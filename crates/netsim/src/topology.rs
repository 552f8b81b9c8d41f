//! Cluster topology descriptions.
//!
//! The paper's testbed is a blade center with an internal 1 Gb switch
//! and two external file servers ([`Topology::flat`]). The 64-node
//! experiment (paper Fig 6) chains several blade centers behind
//! limited uplinks ([`Topology::hierarchical`]), which adds hops and a
//! shared-bandwidth bottleneck for traffic that crosses centers.

use simcore::prelude::*;

/// Shape of the cluster network.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    kind: TopologyKind,
    /// One-way latency contributed by each hop (NIC + switch traversal).
    pub hop_latency: SimDuration,
    /// Capacity of every node access link.
    pub access_bandwidth: Bandwidth,
    /// Capacity of each blade-center uplink (hierarchical only).
    pub uplink_bandwidth: Bandwidth,
}

#[derive(Debug, Clone, PartialEq)]
enum TopologyKind {
    /// Everything hangs off one switch.
    Flat,
    /// `center_size` nodes per blade center; servers and the metadata
    /// host sit in center 0; other centers reach them via uplinks
    /// through a core switch (so cross-center paths cross several
    /// switches, as in the paper's 64-node extension).
    Hierarchical {
        /// Number of client blades per blade center.
        center_size: usize,
    },
}

impl Topology {
    /// Single blade center with an internal 1 Gb switch — the paper's
    /// primary testbed shape.
    pub fn flat() -> Self {
        Topology {
            kind: TopologyKind::Flat,
            hop_latency: SimDuration::from_micros(55),
            access_bandwidth: Bandwidth::gigabit_ethernet(),
            uplink_bandwidth: Bandwidth::gigabit_ethernet(),
        }
    }

    /// Several blade centers behind shared uplinks — the 64-node
    /// configuration of paper §IV-A.
    ///
    /// # Panics
    ///
    /// Panics if `center_size` is zero.
    pub fn hierarchical(center_size: usize) -> Self {
        assert!(center_size > 0, "blade centers must hold at least one node");
        Topology {
            kind: TopologyKind::Hierarchical { center_size },
            hop_latency: SimDuration::from_micros(55),
            access_bandwidth: Bandwidth::gigabit_ethernet(),
            uplink_bandwidth: Bandwidth::gigabit_ethernet(),
        }
    }

    /// Which blade center a client of index `client_idx` (0-based among
    /// clients) lives in.
    pub fn center_of_client(&self, client_idx: usize) -> usize {
        match self.kind {
            TopologyKind::Flat => 0,
            TopologyKind::Hierarchical { center_size } => client_idx / center_size,
        }
    }

    /// Number of blade centers needed for `n_clients` clients.
    pub fn centers_for(&self, n_clients: usize) -> usize {
        match self.kind {
            TopologyKind::Flat => 1,
            TopologyKind::Hierarchical { center_size } => n_clients.div_ceil(center_size).max(1),
        }
    }

    /// True if this is the hierarchical multi-center shape.
    pub fn is_hierarchical(&self) -> bool {
        matches!(self.kind, TopologyKind::Hierarchical { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_topology_has_one_center() {
        let t = Topology::flat();
        assert_eq!(t.centers_for(64), 1);
        assert_eq!(t.center_of_client(63), 0);
        assert!(!t.is_hierarchical());
    }

    #[test]
    fn hierarchical_assigns_centers() {
        let t = Topology::hierarchical(16);
        assert!(t.is_hierarchical());
        assert_eq!(t.centers_for(64), 4);
        assert_eq!(t.centers_for(65), 5);
        assert_eq!(t.center_of_client(0), 0);
        assert_eq!(t.center_of_client(15), 0);
        assert_eq!(t.center_of_client(16), 1);
        assert_eq!(t.center_of_client(63), 3);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_center_size_panics() {
        let _ = Topology::hierarchical(0);
    }
}
