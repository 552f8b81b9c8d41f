//! Benchmark targets: filesystems plus the between-phase reset hook.
//!
//! metarates and IOR run in *phases* separated by barriers; in the real
//! testbed the gap between phases lets write-behind daemons drain and
//! queues empty. [`BenchTarget::phase_reset`] models that gap: it
//! completes background work and rewinds queueing resources to virtual
//! time zero so the next phase's driver run starts clean, while cache
//! and token state (deliberately) survive.

use cofs::batch::{BatchPipeline, BatchStats};
use cofs::client_cache::{CacheStats, ClientCache};
use cofs::fault::FaultSummary;
use cofs::fs::CofsFs;
use cofs::mds_cluster::ShardUsage;
use pfs::fs::PfsFs;
use simcore::time::SimTime;
use vfs::fs::FileSystem;
use vfs::memfs::MemFs;

/// A filesystem that can host benchmark phases.
pub trait BenchTarget: FileSystem {
    /// Completes background work and rewinds per-phase queue state.
    fn phase_reset(&mut self) {}

    /// A short label for report tables.
    fn target_label(&self) -> &'static str {
        "fs"
    }

    /// Per-shard metadata-service load since the last reset — empty
    /// for targets without a sharded MDS.
    fn shard_usage(&self) -> Vec<ShardUsage> {
        Vec::new()
    }

    /// Client-side metadata-cache counters since the last reset —
    /// `None` for targets without a client cache, so reports can
    /// distinguish "no cache" from "cache saw no traffic".
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }

    /// Flushes any buffered asynchronous work at the *end* of a
    /// measured phase and returns the virtual time its tail completed
    /// — `None` when nothing was buffered. Scenario makespans fold
    /// this in, so pipelined batching cannot hide its wire time.
    fn drain_outstanding(&mut self) -> Option<SimTime> {
        None
    }

    /// Batching counters since the last reset — `None` for targets
    /// without a batch pipeline.
    fn batch_stats(&self) -> Option<BatchStats> {
        None
    }

    /// When the last acked-but-unapplied write-behind batch finishes
    /// applying, given the workload finished at `horizon` — the end of
    /// the crash-consistency window scenario reports surface. Targets
    /// without deferred application return `horizon`: the ack is the
    /// apply.
    fn apply_horizon(&self, horizon: SimTime) -> SimTime {
        horizon
    }

    /// Fault/recovery accounting since the last reset — `None` for
    /// targets without an armed fault plan, so fault-free results stay
    /// byte-identical to targets that predate fault injection.
    fn fault_summary(&self) -> Option<FaultSummary> {
        None
    }
}

impl BenchTarget for MemFs {
    fn target_label(&self) -> &'static str {
        "memfs"
    }
}

impl BenchTarget for PfsFs {
    fn phase_reset(&mut self) {
        self.quiesce();
    }

    fn target_label(&self) -> &'static str {
        "gpfs"
    }
}

impl<U: BenchTarget> BenchTarget for CofsFs<U> {
    fn phase_reset(&mut self) {
        self.reset_time();
        self.under_mut().phase_reset();
    }

    fn target_label(&self) -> &'static str {
        "cofs"
    }

    fn shard_usage(&self) -> Vec<ShardUsage> {
        CofsFs::shard_usage(self)
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.client_cache().map(ClientCache::stats)
    }

    fn drain_outstanding(&mut self) -> Option<SimTime> {
        self.drain_batches()
    }

    fn batch_stats(&self) -> Option<BatchStats> {
        self.batch_pipeline().map(BatchPipeline::stats)
    }

    fn apply_horizon(&self, horizon: SimTime) -> SimTime {
        CofsFs::apply_horizon(self, horizon)
    }

    fn fault_summary(&self) -> Option<FaultSummary> {
        CofsFs::fault_summary(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cofs::config::{CofsConfig, MdsNetwork};
    use netsim::cluster::ClusterBuilder;
    use pfs::config::PfsConfig;
    use simcore::time::SimDuration;

    #[test]
    fn labels() {
        let cluster = ClusterBuilder::new().clients(2).servers(2).build();
        let gpfs = PfsFs::new(cluster, PfsConfig::default());
        assert_eq!(gpfs.target_label(), "gpfs");
        let cofs = CofsFs::new(
            MemFs::new(),
            CofsConfig::default(),
            MdsNetwork::uniform(SimDuration::from_micros(200)),
            1,
        );
        assert_eq!(cofs.target_label(), "cofs");
        assert_eq!(MemFs::new().target_label(), "memfs");
    }

    #[test]
    fn cofs_exposes_shard_usage_and_others_do_not() {
        use netsim::ids::NodeId;
        use vfs::fs::OpCtx;
        use vfs::path::vpath;
        use vfs::types::Mode;

        let cfg = CofsConfig::default().with_shards(2, cofs::config::ShardPolicyKind::HashByParent);
        let mut cofs = CofsFs::new(
            MemFs::new(),
            cfg,
            MdsNetwork::uniform(SimDuration::from_micros(200)),
            1,
        );
        let ctx = OpCtx::test(NodeId(0));
        cofs.mkdir(&ctx, &vpath("/d"), Mode::dir_default()).unwrap();
        let usage = BenchTarget::shard_usage(&cofs);
        assert_eq!(usage.len(), 2);
        assert_eq!(usage.iter().map(|u| u.rpcs).sum::<u64>(), 1);
        assert!(MemFs::new().shard_usage().is_empty());
    }

    #[test]
    fn cache_stats_visible_only_when_enabled() {
        use simcore::time::SimDuration;

        let off = CofsFs::new(
            MemFs::new(),
            CofsConfig::default(),
            MdsNetwork::uniform(SimDuration::from_micros(200)),
            1,
        );
        assert!(BenchTarget::cache_stats(&off).is_none());
        let on = CofsFs::new(
            MemFs::new(),
            CofsConfig::default().with_client_cache(64, SimDuration::from_secs(1)),
            MdsNetwork::uniform(SimDuration::from_micros(200)),
            1,
        );
        assert_eq!(BenchTarget::cache_stats(&on), Some(CacheStats::default()));
        assert!(MemFs::new().cache_stats().is_none());
    }

    #[test]
    fn reset_is_idempotent() {
        let cluster = ClusterBuilder::new().clients(2).servers(2).build();
        let mut gpfs = PfsFs::new(cluster, PfsConfig::default());
        gpfs.phase_reset();
        gpfs.phase_reset();
        let mut mem = MemFs::new();
        mem.phase_reset();
    }
}
