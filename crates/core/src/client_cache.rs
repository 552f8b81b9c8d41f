//! Per-client metadata caching with lease-based coherence.
//!
//! After the metadata service was sharded (`mds_cluster`), the
//! dominant cost of stat/open-heavy workloads is the per-operation
//! client↔shard round trip — every `getattr` pays a full RTT even when
//! nothing changed. GPFS solves the same problem one level down with
//! token delegation (modeled in the `dlm` crate): a node that holds a
//! token operates on cached state until a conflicting access revokes
//! it. This module brings that idea to the COFS layer: each client
//! node keeps an attribute + directory-entry + negative-entry cache
//! whose entries are backed by *leases* granted by the owning metadata
//! shard. Reads that hit a live lease cost no RTT at all — including
//! repeated `ENOENT` probes against a negatively-cached name
//! ([`EntryKind::Negative`], the lock-file-polling pattern); mutations
//! recall the leases of every other holder, paying explicit RTT-costed
//! invalidation messages (the analogue of `dlm` token revocations).
//!
//! Semantics vs. cost: exactly like the shard split, the cache is a
//! *cost* model, never a *truth* model. Every operation is still
//! answered by the unified [`crate::mds::Mds`] namespace, so for any
//! TTL and capacity the user-visible outcome of any operation sequence
//! is bit-for-bit identical with the cache on or off — only simulated
//! time and counters differ. The differential suite pins this.
//!
//! Two deliberate fidelity limits, both conservative:
//!
//! - a lease on `/a/b/c` does not cover permission changes on the
//!   *ancestors* `/a` and `/a/b`; a hit may therefore be charged for
//!   an operation the service would deny. The outcome is still the
//!   denial (the namespace answers), only the charged latency is the
//!   optimistic one — the same staleness window a real dentry cache
//!   has;
//! - `readdir`'s atime bump on the listed directory is not treated as
//!   a conflicting write (strict atime coherence would make dentry
//!   leases self-defeating, and real systems relax it the same way).

use netsim::ids::NodeId;
use simcore::hash::FxHashMap;
use simcore::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use vfs::path::VPath;

/// What a cache entry (and its lease) covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EntryKind {
    /// The attributes of one path (`getattr`/`lookup` answers).
    Attr,
    /// The entry list of one directory (`readdir` answers).
    Dentry,
    /// The *absence* of one path (a lease-covered `ENOENT`): lock-file
    /// and output polling repeatedly `stat` names that do not exist
    /// yet, and without negative entries every probe pays a full round
    /// trip. Creating the name (create/mkdir/symlink/link/rename
    /// destination) recalls these leases like any conflicting write.
    Negative,
}

/// One lease key: which kind of state, on which virtual path.
pub type LeaseKey = (EntryKind, VPath);

/// Client-cache knobs on [`crate::config::CofsConfig`].
///
/// The default is **disabled**, so existing calibration numbers are
/// reproduced bit-for-bit unless a harness opts in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientCacheConfig {
    /// Master switch. Off by default.
    pub enabled: bool,
    /// Maximum cached entries per client node (LRU eviction beyond
    /// this; eviction releases the lease voluntarily, at no cost).
    pub capacity: usize,
    /// Lease lifetime in *virtual* time. A hit on an expired entry is
    /// a miss that re-fetches and re-leases.
    pub lease_ttl: SimDuration,
}

impl Default for ClientCacheConfig {
    fn default() -> Self {
        ClientCacheConfig {
            enabled: false,
            capacity: 4096,
            lease_ttl: SimDuration::from_secs(5),
        }
    }
}

impl ClientCacheConfig {
    /// An enabled cache with the given per-node capacity and TTL.
    pub fn enabled(capacity: usize, lease_ttl: SimDuration) -> Self {
        ClientCacheConfig {
            enabled: true,
            capacity,
            lease_ttl,
        }
    }
}

/// Aggregate cache/coherence counters across all client nodes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads served from a live lease (no RPC charged).
    pub hits: u64,
    /// Reads that went to the owning shard (and granted a lease).
    pub misses: u64,
    /// Entries dropped because a conflicting mutation recalled their
    /// lease (local drops at the mutating node included).
    pub invalidations: u64,
    /// Recall messages actually sent over the network (one per remote
    /// holder per recalled key — the RTT-costed coherence traffic).
    pub recall_messages: u64,
    /// Entries dropped because their lease TTL ran out.
    pub expirations: u64,
    /// Entries dropped by LRU capacity eviction (voluntary, free lease
    /// release).
    pub evictions: u64,
    /// The subset of `hits` served by negative (`ENOENT`) entries —
    /// repeated existence probes answered without a round trip.
    pub negative_hits: u64,
}

impl CacheStats {
    /// Hit fraction over all lease-eligible reads (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Outcome of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// A live lease answered the read locally.
    Hit,
    /// An entry existed but its lease had lapsed; the caller should
    /// release the (now useless) lease with the cluster so the
    /// shard-side registry stays bounded.
    Expired,
    /// Nothing cached.
    Miss,
}

impl Lookup {
    /// True for [`Lookup::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, Lookup::Hit)
    }
}

#[derive(Debug, Clone)]
struct Entry {
    expires: SimTime,
    last_use: u64,
}

/// Per-kind hash maps keyed by bare `VPath`, so the hot probe path is
/// one hash probe and never clones a path just to build a tuple key.
/// The only scan, the LRU victim search, takes a minimum over use
/// counters that are unique per node, so it does not depend on the
/// maps' order (lint rule D003).
#[derive(Debug, Default)]
struct NodeCache {
    attrs: FxHashMap<VPath, Entry>,
    dentries: FxHashMap<VPath, Entry>,
    negatives: FxHashMap<VPath, Entry>,
    use_seq: u64,
}

impl NodeCache {
    fn map(&mut self, kind: EntryKind) -> &mut FxHashMap<VPath, Entry> {
        match kind {
            EntryKind::Attr => &mut self.attrs,
            EntryKind::Dentry => &mut self.dentries,
            EntryKind::Negative => &mut self.negatives,
        }
    }

    fn len(&self) -> usize {
        self.attrs.len() + self.dentries.len() + self.negatives.len()
    }

    /// The least-recently-used entry across all kinds (use counters
    /// are unique per node, so the minimum is unambiguous whatever the
    /// map order).
    fn lru_victim(&self) -> Option<LeaseKey> {
        self.attrs
            // cofs-lint: allow(D003, minimum of use counters unique per node)
            .iter()
            .map(|(p, e)| (EntryKind::Attr, p, e.last_use))
            .chain(
                self.dentries
                    // cofs-lint: allow(D003, minimum of use counters unique per node)
                    .iter()
                    .map(|(p, e)| (EntryKind::Dentry, p, e.last_use)),
            )
            .chain(
                self.negatives
                    // cofs-lint: allow(D003, minimum of use counters unique per node)
                    .iter()
                    .map(|(p, e)| (EntryKind::Negative, p, e.last_use)),
            )
            .min_by_key(|&(_, _, last_use)| last_use)
            .map(|(kind, path, _)| (kind, path.clone()))
    }
}

/// The per-node attribute/dentry cache of the whole client population.
///
/// Owned by [`crate::fs::CofsFs`], which consults it before charging
/// any metadata RPC and drops entries when the cluster's lease table
/// reports a recall. The cache stores no filesystem *state* — see the
/// module docs for the semantics/cost split.
///
/// # Examples
///
/// ```
/// use cofs::client_cache::{ClientCache, ClientCacheConfig, EntryKind};
/// use netsim::ids::NodeId;
/// use simcore::time::{SimDuration, SimTime};
/// use vfs::path::vpath;
///
/// let cfg = ClientCacheConfig::enabled(64, SimDuration::from_secs(1));
/// let mut cache = ClientCache::new(cfg);
/// let (n, p) = (NodeId(0), vpath("/f"));
/// assert!(!cache.lookup(n, EntryKind::Attr, &p, SimTime::ZERO).is_hit());
/// cache.insert(n, EntryKind::Attr, p.clone(), SimTime::ZERO);
/// assert!(cache.lookup(n, EntryKind::Attr, &p, SimTime::from_millis(1)).is_hit());
/// ```
#[derive(Debug)]
pub struct ClientCache {
    cfg: ClientCacheConfig,
    nodes: BTreeMap<NodeId, NodeCache>,
    stats: CacheStats,
}

impl ClientCache {
    /// Creates an empty cache with the given knobs.
    pub fn new(cfg: ClientCacheConfig) -> Self {
        ClientCache {
            cfg,
            nodes: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// True when caching is switched on.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// The configured knobs.
    pub fn config(&self) -> &ClientCacheConfig {
        &self.cfg
    }

    /// When a lease granted at `now` expires.
    pub fn lease_expiry(&self, now: SimTime) -> SimTime {
        now + self.cfg.lease_ttl
    }

    /// Probes `node`'s entry for `(kind, path)` at time `now`,
    /// recording a hit or a miss. Expired entries are dropped, count
    /// as both an expiration and a miss, and are reported as
    /// [`Lookup::Expired`] so the caller can release the dead lease
    /// with the cluster.
    pub fn lookup(&mut self, node: NodeId, kind: EntryKind, path: &VPath, now: SimTime) -> Lookup {
        if !self.cfg.enabled {
            return Lookup::Miss;
        }
        let cache = self.nodes.entry(node).or_default();
        cache.use_seq += 1;
        let seq = cache.use_seq;
        let map = cache.map(kind);
        match map.get_mut(path) {
            Some(e) if e.expires > now => {
                e.last_use = seq;
                self.stats.hits += 1;
                if kind == EntryKind::Negative {
                    self.stats.negative_hits += 1;
                }
                Lookup::Hit
            }
            Some(_) => {
                map.remove(path);
                self.stats.expirations += 1;
                self.stats.misses += 1;
                Lookup::Expired
            }
            None => {
                self.stats.misses += 1;
                Lookup::Miss
            }
        }
    }

    /// Installs an entry for `node` with a lease granted at `now`,
    /// evicting the least-recently-used entry when the node is at
    /// capacity. Returns the evicted key (its lease should be released
    /// with the cluster) if any. No-op when disabled.
    pub fn insert(
        &mut self,
        node: NodeId,
        kind: EntryKind,
        path: VPath,
        now: SimTime,
    ) -> Option<LeaseKey> {
        if !self.cfg.enabled {
            return None;
        }
        let expires = now + self.cfg.lease_ttl;
        let cache = self.nodes.entry(node).or_default();
        cache.use_seq += 1;
        let seq = cache.use_seq;
        let mut evicted = None;
        if !cache.map(kind).contains_key(&path) && cache.len() >= self.cfg.capacity.max(1) {
            if let Some(victim) = cache.lru_victim() {
                cache.map(victim.0).remove(&victim.1);
                self.stats.evictions += 1;
                evicted = Some(victim);
            }
        }
        cache.map(kind).insert(
            path,
            Entry {
                expires,
                last_use: seq,
            },
        );
        evicted
    }

    /// Drops `node`'s entry for `(kind, path)` after a lease recall
    /// (or the mutating node's own, free, local invalidation).
    pub fn invalidate(&mut self, node: NodeId, kind: EntryKind, path: &VPath) {
        if let Some(cache) = self.nodes.get_mut(&node) {
            if cache.map(kind).remove(path).is_some() {
                self.stats.invalidations += 1;
            }
        }
    }

    /// Records `n` recall messages sent over the network.
    pub fn note_recall_messages(&mut self, n: u64) {
        self.stats.recall_messages += n;
    }

    /// Total entries currently cached for `node`.
    pub fn len(&self, node: NodeId) -> usize {
        self.nodes.get(&node).map_or(0, |c| c.len())
    }

    /// True when `node` caches nothing.
    pub fn is_empty(&self, node: NodeId) -> bool {
        self.len(node) == 0
    }

    /// Aggregate counters since the last [`Self::reset_stats`].
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears counters; cached entries (and their leases) survive,
    /// like sessions and token state across benchmark phases.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::path::vpath;

    fn on(capacity: usize, ttl_ms: u64) -> ClientCache {
        ClientCache::new(ClientCacheConfig::enabled(
            capacity,
            SimDuration::from_millis(ttl_ms),
        ))
    }

    #[test]
    fn disabled_cache_never_hits_or_stores() {
        let mut c = ClientCache::new(ClientCacheConfig::default());
        assert!(!c.enabled());
        let p = vpath("/f");
        assert!(c
            .insert(NodeId(0), EntryKind::Attr, p.clone(), SimTime::ZERO)
            .is_none());
        assert!(!c
            .lookup(NodeId(0), EntryKind::Attr, &p, SimTime::ZERO)
            .is_hit());
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn hit_then_expiry_then_miss() {
        let mut c = on(16, 10);
        let p = vpath("/f");
        c.insert(NodeId(0), EntryKind::Attr, p.clone(), SimTime::ZERO);
        assert!(c
            .lookup(NodeId(0), EntryKind::Attr, &p, SimTime::from_millis(9))
            .is_hit());
        assert!(!c
            .lookup(NodeId(0), EntryKind::Attr, &p, SimTime::from_millis(10))
            .is_hit());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.expirations), (1, 1, 1));
        // The expired entry is gone, not resurrected.
        assert!(c.is_empty(NodeId(0)));
    }

    #[test]
    fn kinds_and_nodes_are_independent() {
        let mut c = on(16, 100);
        let p = vpath("/d");
        c.insert(NodeId(0), EntryKind::Dentry, p.clone(), SimTime::ZERO);
        assert!(!c
            .lookup(NodeId(0), EntryKind::Attr, &p, SimTime::ZERO)
            .is_hit());
        assert!(!c
            .lookup(NodeId(1), EntryKind::Dentry, &p, SimTime::ZERO)
            .is_hit());
        assert!(c
            .lookup(NodeId(0), EntryKind::Dentry, &p, SimTime::ZERO)
            .is_hit());
    }

    #[test]
    fn lru_eviction_is_by_least_recent_use() {
        let mut c = on(2, 1000);
        let (a, b, x) = (vpath("/a"), vpath("/b"), vpath("/x"));
        c.insert(NodeId(0), EntryKind::Attr, a.clone(), SimTime::ZERO);
        c.insert(NodeId(0), EntryKind::Attr, b.clone(), SimTime::ZERO);
        // Touch /a so /b is the LRU victim.
        assert!(c
            .lookup(NodeId(0), EntryKind::Attr, &a, SimTime::ZERO)
            .is_hit());
        let evicted = c.insert(NodeId(0), EntryKind::Attr, x.clone(), SimTime::ZERO);
        assert_eq!(evicted, Some((EntryKind::Attr, b.clone())));
        assert_eq!(c.stats().evictions, 1);
        assert!(c
            .lookup(NodeId(0), EntryKind::Attr, &a, SimTime::ZERO)
            .is_hit());
        assert!(!c
            .lookup(NodeId(0), EntryKind::Attr, &b, SimTime::ZERO)
            .is_hit());
        assert!(c
            .lookup(NodeId(0), EntryKind::Attr, &x, SimTime::ZERO)
            .is_hit());
    }

    #[test]
    fn negative_entries_hit_and_count_separately() {
        let mut c = on(16, 1000);
        let p = vpath("/lock");
        assert!(!c
            .lookup(NodeId(0), EntryKind::Negative, &p, SimTime::ZERO)
            .is_hit());
        c.insert(NodeId(0), EntryKind::Negative, p.clone(), SimTime::ZERO);
        assert!(c
            .lookup(NodeId(0), EntryKind::Negative, &p, SimTime::ZERO)
            .is_hit());
        // A negative entry answers only absence probes, not getattr.
        assert!(!c
            .lookup(NodeId(0), EntryKind::Attr, &p, SimTime::ZERO)
            .is_hit());
        let s = c.stats();
        assert_eq!(s.negative_hits, 1);
        assert_eq!(s.hits, 1);
        // The create that materializes the name invalidates it.
        c.invalidate(NodeId(0), EntryKind::Negative, &p);
        assert!(!c
            .lookup(NodeId(0), EntryKind::Negative, &p, SimTime::ZERO)
            .is_hit());
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn negative_entries_share_lru_capacity() {
        let mut c = on(1, 1000);
        c.insert(NodeId(0), EntryKind::Attr, vpath("/a"), SimTime::ZERO);
        let evicted = c.insert(NodeId(0), EntryKind::Negative, vpath("/b"), SimTime::ZERO);
        assert_eq!(evicted, Some((EntryKind::Attr, vpath("/a"))));
        let evicted = c.insert(NodeId(0), EntryKind::Attr, vpath("/c"), SimTime::ZERO);
        assert_eq!(evicted, Some((EntryKind::Negative, vpath("/b"))));
    }

    #[test]
    fn invalidate_drops_and_counts() {
        let mut c = on(16, 1000);
        let p = vpath("/f");
        c.insert(NodeId(0), EntryKind::Attr, p.clone(), SimTime::ZERO);
        c.invalidate(NodeId(0), EntryKind::Attr, &p);
        // A second invalidation of an absent entry is not counted.
        c.invalidate(NodeId(0), EntryKind::Attr, &p);
        assert_eq!(c.stats().invalidations, 1);
        assert!(!c
            .lookup(NodeId(0), EntryKind::Attr, &p, SimTime::ZERO)
            .is_hit());
    }

    #[test]
    fn reinsert_refreshes_lease_without_eviction() {
        let mut c = on(1, 10);
        let p = vpath("/f");
        c.insert(NodeId(0), EntryKind::Attr, p.clone(), SimTime::ZERO);
        // Refreshing the same key at capacity must not evict it.
        let evicted = c.insert(
            NodeId(0),
            EntryKind::Attr,
            p.clone(),
            SimTime::from_millis(8),
        );
        assert_eq!(evicted, None);
        assert!(c
            .lookup(NodeId(0), EntryKind::Attr, &p, SimTime::from_millis(15))
            .is_hit());
    }

    #[test]
    fn hit_rate_and_reset() {
        let mut c = on(16, 1000);
        let p = vpath("/f");
        c.insert(NodeId(0), EntryKind::Attr, p.clone(), SimTime::ZERO);
        for _ in 0..3 {
            c.lookup(NodeId(0), EntryKind::Attr, &p, SimTime::ZERO);
        }
        c.lookup(NodeId(0), EntryKind::Attr, &vpath("/g"), SimTime::ZERO);
        assert!((c.stats().hit_rate() - 0.75).abs() < 1e-9);
        c.reset_stats();
        assert_eq!(c.stats(), CacheStats::default());
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        // Entries survive a stats reset.
        assert!(c
            .lookup(NodeId(0), EntryKind::Attr, &p, SimTime::ZERO)
            .is_hit());
    }
}
