//! COFS configuration: FUSE interposition costs, metadata-service
//! network model, sharding, and placement parameters.

use crate::batch::BatchConfig;
use crate::client_cache::ClientCacheConfig;
use crate::elastic::{ElasticConfig, ElasticPolicy};
use crate::fault::{FaultPlan, RetryConfig};
use crate::mds_cluster::{ShardId, ShardPolicy};
use netsim::cluster::Cluster;
use netsim::ids::NodeId;
use simcore::time::SimDuration;
use vfs::path::{vpath, VPath};

/// The partitioning [`CofsConfig::with_shards`] builds a
/// [`ShardPolicy`] with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicyKind {
    /// Hash of the parent directory picks the shard.
    HashByParent,
    /// The first path component assigns its whole subtree to a shard.
    Subtree,
    /// Load-adaptive: starts as hash-by-parent and splits hot
    /// directories across shards / merges them back as measured load
    /// moves (see [`crate::elastic`]), with the default
    /// [`ElasticConfig`] thresholds.
    Elastic,
}

/// Write-behind journaling knobs on [`CofsConfig`].
///
/// With write-behind on, a [`crate::mds_cluster::Shape::Batch`] request
/// acks a mutation batch once its ops are appended to the shard's
/// journal (one sequential append per batch) and applies the rows off
/// the critical path, after coalescing same-parent siblings
/// ([`crate::batch::coalesce_writes`]). The durability window bounds
/// how far application may trail acks: a batch whose admission would
/// exceed either limit waits for older applies to finish, exactly like
/// `pipeline_depth` slot backpressure. Acked-but-unapplied work is the
/// *crash-consistency window* — what a shard crash could lose.
///
/// [`CofsConfig::write_behind`] is `None` by default: no journal, so
/// existing calibration numbers are reproduced bit-for-bit unless a
/// harness opts in. The `Default` value is the default durability
/// window [`CofsConfig::with_write_behind`] installs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteBehindConfig {
    /// Maximum acked-but-unapplied operations per shard before new
    /// mutation batches are held back.
    pub max_unapplied_ops: u64,
    /// Maximum virtual-time age of the oldest unapplied batch before
    /// new mutation batches are held back.
    pub max_unapplied_window: SimDuration,
}

impl Default for WriteBehindConfig {
    fn default() -> Self {
        WriteBehindConfig {
            max_unapplied_ops: 256,
            max_unapplied_window: SimDuration::from_millis(20),
        }
    }
}

/// Hot-standby promotion knobs on [`CofsConfig`].
///
/// With a standby configured, each shard primary ships every journal
/// append to a warm standby host — priced as half a shard-to-shard round
/// trip plus the standby's own append, *off the ack path* — and a crash
/// is absorbed by **promoting** the standby instead of waiting out the
/// scripted `restart_after`: the fencing epoch still bumps (sessions
/// evicted, leases fenced), but the availability gap becomes
/// `promotion_cost` plus the replay of the replication-lag suffix (the
/// appends still in flight to the standby at crash time), not the
/// scripted downtime.
///
/// [`CofsConfig::standby`] is `None` by default: a crash then waits out
/// its scripted downtime. The `Default` value is the promotion cost
/// [`CofsConfig::with_standby`] installs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StandbyConfig {
    /// Fixed cost of failing over to the standby: leader handoff,
    /// fencing broadcast, and opening the standby for traffic.
    pub promotion_cost: SimDuration,
}

impl Default for StandbyConfig {
    fn default() -> Self {
        StandbyConfig {
            promotion_cost: SimDuration::from_micros(500),
        }
    }
}

/// Post-recovery admission-control knobs on [`CofsConfig`].
///
/// With admission on, a recovering (or freshly promoted) shard re-admits
/// evicted sessions through a deterministic token bucket:
/// `sessions_per_window` re-establishments per `window` of virtual time,
/// anchored at the shard's resume instant. Overflow is NACKed with a
/// server-supplied retry-after (the next admission window), and while the
/// shard is still down its refusals carry the scheduled resume time —
/// clients honoring the hint arrive paced instead of stampeding, which
/// converts the post-recovery convoy into a bounded ramp.
///
/// [`CofsConfig::admission`] is `None` by default: refusals then carry
/// no hint and clients climb the plain exponential-backoff ladder. The
/// `Default` value is the ramp rate [`CofsConfig::with_admission`]
/// installs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Session re-establishments granted per window.
    pub sessions_per_window: u64,
    /// Width of one admission window.
    pub window: SimDuration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            sessions_per_window: 2,
            window: SimDuration::from_micros(250),
        }
    }
}

/// Per-operation service demands of the metadata database
/// ([`CofsConfig::db`]).
///
/// The paper keeps the metadata service's tables in Mnesia, backed by
/// "a 25 GB disk locally attached to that node and formatted with the
/// ext3 file system", with disc-copies semantics: reads are served from
/// memory, writes append to a log that is periodically synced. Each
/// shard of [`crate::mds_cluster::MdsCluster`] charges the rows an
/// operation reads and writes at these prices against its CPU, and
/// counts that row work in its [`crate::mds_cluster::ShardUsage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbCostModel {
    /// In-memory lookup or range-scan step.
    pub lookup: SimDuration,
    /// In-memory mutation plus log-record append.
    pub write: SimDuration,
    /// Transaction commit bookkeeping.
    pub commit: SimDuration,
    /// Every `sync_every` commits, the log is fsynced to the local
    /// disk (ext3 journal flush).
    pub sync_every: u64,
    /// Cost of that periodic fsync.
    pub sync_cost: SimDuration,
    /// Fixed cost of one sequential append to the write-behind dentry
    /// journal (write-behind mode acks a whole batch on one append).
    pub journal_append: SimDuration,
    /// Per-row cost of serializing a mutation record into that append.
    /// Much cheaper than [`DbCostModel::write`]: the journal is a
    /// sequential log, not an indexed table update.
    pub journal_record: SimDuration,
}

impl DbCostModel {
    /// Service demand of replicating one journal append (carrying
    /// `records` mutation records) onto a hot standby. The standby
    /// replays the identical sequential append, so the cost reuses the
    /// journal terms; what makes it cheap for clients is *where* it is
    /// paid — off the ack path, after the primary's own append. A pure
    /// function of the model (no shard count advances), so the
    /// promotion path can re-derive a batch's ship-completion time at
    /// crash time from the same inputs.
    ///
    /// # Panics
    ///
    /// Panics if `records` is zero — an empty append ships nothing.
    pub fn standby_append_cost(&self, records: u64) -> SimDuration {
        assert!(records > 0, "standby append of zero records");
        self.journal_append + self.journal_record * records
    }
}

impl Default for DbCostModel {
    /// Defaults calibrated to Mnesia ram/disc-copies on a 2004-era
    /// blade: single-digit-microsecond ETS lookups, log-append writes,
    /// periodic fsync amortized over 64 commits. The journal terms
    /// price one sequential log append (batch-fixed base plus a cheap
    /// per-record serialization step); they are only charged when
    /// write-behind journaling is enabled upstream.
    fn default() -> Self {
        DbCostModel {
            lookup: SimDuration::from_micros(8),
            write: SimDuration::from_micros(15),
            commit: SimDuration::from_micros(10),
            sync_every: 64,
            sync_cost: SimDuration::from_micros(800),
            journal_append: SimDuration::from_micros(12),
            journal_record: SimDuration::from_micros(1),
        }
    }
}

/// Tunable parameters of the COFS virtualization layer.
#[derive(Debug, Clone)]
pub struct CofsConfig {
    // ---- FUSE interposition ----
    /// Per-request dispatch overhead (two user/kernel crossings plus
    /// daemon scheduling). The paper runs COFS as a FUSE daemon; this
    /// is the cost of that indirection.
    pub fuse_dispatch: SimDuration,
    /// Extra copy bandwidth for data through the FUSE double buffer
    /// ("FUSE's double buffer copying", paper §IV-B). Charged per byte
    /// on reads and writes in addition to the underlying transfer.
    pub fuse_copy_bytes_per_sec: u64,

    // ---- placement driver ----
    /// Maximum entries per underlying directory. The paper: "we
    /// applied a limit of 512 entries to the underlying directory
    /// size", keeping the native filesystem in its optimized range.
    pub dir_limit: u32,
    /// Number of randomized second-level subdirectories per hash
    /// directory ("a randomization factor is used, resulting in files
    /// being further distributed in a subdirectory level").
    pub spread: u32,
    /// Root of the underlying layout.
    pub under_root: VPath,

    // ---- metadata service ----
    /// Database cost model (Mnesia disc-copies equivalent, see
    /// [`DbCostModel`]).
    pub db: DbCostModel,
    /// Metadata-service CPU overhead per RPC beyond the DB work.
    pub mds_service: SimDuration,
    /// One-time per-node (per-shard) session establishment with the
    /// service.
    pub session_cost: SimDuration,
    /// The shard layout the metadata cluster starts from: shard count,
    /// partitioning and, for [`ShardPolicy::Elastic`], the split/merge
    /// thresholds. One hashed shard (the paper's centralized MDS) by
    /// default. The cluster runs on a clone; the live, possibly split
    /// policy is [`crate::mds_cluster::MdsCluster::policy`].
    pub shard_policy: ShardPolicy,
    /// Round trip between two shard hosts (they share the blade
    /// center, like the servers in the paper's testbed); paid by the
    /// prepare/vote and commit/ack exchanges of cross-shard two-phase
    /// operations.
    pub cross_shard_rtt: SimDuration,

    // ---- client-side metadata cache ----
    /// Per-client attribute/dentry caching with lease-based coherence
    /// (see [`crate::client_cache`]). `None` by default: no cache is
    /// built, so the paper-calibrated numbers are reproduced
    /// bit-for-bit.
    pub client_cache: Option<ClientCacheConfig>,

    // ---- metadata RPC batching ----
    /// Client-side batching/pipelining of metadata mutations with
    /// shard-side group commit (see [`crate::batch`]). `None` by
    /// default: no pipeline is built, and every mutation is one
    /// synchronous request.
    pub batch: Option<BatchConfig>,

    // ---- write-behind journaling ----
    /// Shard-side write-behind dentry journaling with same-parent
    /// sibling coalescing (see [`WriteBehindConfig`]). `None` by
    /// default; only batches journal, so it needs [`Self::batch`].
    pub write_behind: Option<WriteBehindConfig>,

    // ---- shard service discipline ----
    /// Serve read RPCs from a priority lane on each shard CPU: reads
    /// bypass *queued* (never in-service) batch lumps, decoupling
    /// synchronous `stat` latency from `max_batch_ops`
    /// ([`simcore::resource::TwoLaneResource`]). Disabled by default —
    /// every request then takes the FIFO lane, bit-for-bit the
    /// calibrated discipline.
    pub read_priority: bool,

    // ---- fault injection ----
    /// Deterministic crash/message-drop script (see [`crate::fault`]).
    /// Empty by default — an empty plan is never armed, so the
    /// fault-free path stays bit-for-bit the calibrated one.
    pub fault: FaultPlan,
    /// Client retry/timeout/backoff policy, consulted only while a
    /// fault plan is armed.
    pub retry: RetryConfig,
    /// Hot-standby promotion (see [`StandbyConfig`]). `None` by
    /// default; the standby ships journal appends, so it needs
    /// [`Self::write_behind`].
    pub standby: Option<StandbyConfig>,
    /// Post-recovery admission control (see [`AdmissionConfig`]).
    /// `None` by default.
    pub admission: Option<AdmissionConfig>,
}

impl Default for CofsConfig {
    fn default() -> Self {
        CofsConfig {
            fuse_dispatch: SimDuration::from_micros(60),
            fuse_copy_bytes_per_sec: 350 * 1024 * 1024,
            dir_limit: 512,
            spread: 8,
            under_root: vpath("/.cofs"),
            db: DbCostModel::default(),
            mds_service: SimDuration::from_micros(15),
            session_cost: SimDuration::from_millis(2),
            shard_policy: ShardPolicy::hash(1),
            cross_shard_rtt: SimDuration::from_micros(220),
            client_cache: None,
            batch: None,
            write_behind: None,
            read_priority: false,
            fault: FaultPlan::default(),
            retry: RetryConfig::default(),
            standby: None,
            admission: None,
        }
    }
}

impl CofsConfig {
    /// FUSE copy time for `len` bytes.
    pub fn fuse_copy(&self, len: u64) -> SimDuration {
        SimDuration::from_secs_f64(len as f64 / self.fuse_copy_bytes_per_sec as f64)
    }

    /// A copy of this config running `shards` metadata shards
    /// partitioned by `kind`. One static shard of any kind is
    /// [`ShardPolicy::hash`]`(1)`, labelled `single`; one elastic shard
    /// stays elastic, because the elastic sweeps start at one.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(mut self, shards: usize, kind: ShardPolicyKind) -> Self {
        self.shard_policy = match kind {
            ShardPolicyKind::Elastic => {
                ShardPolicy::Elastic(ElasticPolicy::new(shards, ElasticConfig::default()))
            }
            _ if shards == 1 => ShardPolicy::hash(1),
            ShardPolicyKind::HashByParent => ShardPolicy::hash(shards),
            ShardPolicyKind::Subtree => ShardPolicy::subtree(shards),
        };
        self
    }

    /// A copy of this config with the client-side metadata cache
    /// switched on with the given per-node capacity and lease TTL.
    pub fn with_client_cache(mut self, capacity: usize, lease_ttl: SimDuration) -> Self {
        self.client_cache = Some(ClientCacheConfig {
            capacity,
            lease_ttl,
        });
        self
    }

    /// A copy of this config with metadata-RPC batching switched on:
    /// batches close at `max_batch_ops` operations or after
    /// `max_batch_delay` of virtual time, with `pipeline_depth` batches
    /// outstanding per node (see [`crate::batch`]).
    ///
    /// # Panics
    ///
    /// Panics if `max_batch_ops` or `pipeline_depth` is zero.
    pub fn with_batching(
        mut self,
        max_batch_ops: usize,
        max_batch_delay: SimDuration,
        pipeline_depth: usize,
    ) -> Self {
        self.batch = Some(BatchConfig::new(
            max_batch_ops,
            max_batch_delay,
            pipeline_depth,
        ));
        self
    }

    /// This config unchanged. Read memoization is part of batching:
    /// every batch charges each distinct ancestor-chain row once (see
    /// [`crate::mds_cluster::MdsCluster::request`]). The builder stays
    /// because `cofs-perf`'s `mixed_cached` workload calls it.
    ///
    /// # Panics
    ///
    /// Panics if batching is not enabled: such a call names a stack
    /// that memoizes nothing.
    pub fn with_read_memoization(self) -> Self {
        assert!(
            self.batch.is_some(),
            "read memoization requires batching; call with_batching first"
        );
        self
    }

    /// A copy of this config with write-behind journaling switched on
    /// under the default durability window: mutation batches ack at
    /// journal append, rows apply off the critical path with
    /// same-parent siblings coalesced (see [`WriteBehindConfig`]).
    /// Tune the window by replacing [`Self::write_behind`] afterwards.
    ///
    /// # Panics
    ///
    /// Panics if batching is not enabled — the journal acks *batches*,
    /// so without batches there is nothing to defer and a silent no-op
    /// would mask a misconfigured sweep.
    pub fn with_write_behind(mut self) -> Self {
        assert!(
            self.batch.is_some(),
            "write-behind journaling requires batching; call with_batching first"
        );
        self.write_behind = Some(WriteBehindConfig::default());
        self
    }

    /// A copy of this config with the shard CPUs' read-priority lane
    /// switched on (see [`Self::read_priority`]).
    pub fn with_read_priority(mut self) -> Self {
        self.read_priority = true;
        self
    }

    /// A copy of this config carrying a fault-injection script (see
    /// [`crate::fault::FaultPlan`]). A non-empty plan arms the fault
    /// subsystem; retries follow [`Self::retry`].
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// A copy of this config with the given retry/backoff policy.
    pub fn with_retry(mut self, retry: RetryConfig) -> Self {
        self.retry = retry;
        self
    }

    /// A copy of this config with hot-standby promotion switched on at
    /// the default promotion cost (see [`StandbyConfig`]). Tune by
    /// replacing [`Self::standby`] afterwards.
    ///
    /// # Panics
    ///
    /// Panics if write-behind journaling is not enabled — the standby
    /// replicates *journal appends*, so without a journal there is
    /// nothing to ship and a silent no-op would mask a misconfigured
    /// sweep.
    pub fn with_standby(mut self) -> Self {
        assert!(
            self.write_behind.is_some(),
            "standby promotion requires write-behind journaling; call with_write_behind first"
        );
        self.standby = Some(StandbyConfig::default());
        self
    }

    /// A copy of this config with post-recovery admission control
    /// switched on at the default ramp rate (see [`AdmissionConfig`]).
    /// Tune by replacing [`Self::admission`] afterwards.
    pub fn with_admission(mut self) -> Self {
        self.admission = Some(AdmissionConfig::default());
        self
    }

    /// A copy of this config running `shards` shards under the
    /// load-adaptive elastic policy with the default thresholds. Other
    /// thresholds go in through [`Self::shard_policy`].
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_elastic(self, shards: usize) -> Self {
        self.with_shards(shards, ShardPolicyKind::Elastic)
    }

    /// A fresh copy of the shard policy the cluster starts from.
    pub fn build_shard_policy(&self) -> ShardPolicy {
        self.shard_policy.clone()
    }
}

/// Per-shard round-trip table from each client node to the metadata
/// hosts. COFS is layered *above* the filesystem, so it cannot reach
/// inside the underlying simulator's network; harnesses build this
/// table from the same cluster instead. Shards beyond the last
/// configured host reuse the last entry, so a single-host table works
/// unchanged for any shard count (uniform placement).
#[derive(Debug, Clone)]
pub struct MdsNetwork {
    shards: Vec<ShardRtts>,
}

/// One shard's round trips, indexed by `NodeId`; nodes past the end
/// (and gaps, which hold it) see `default_rtt`.
#[derive(Debug, Clone)]
struct ShardRtts {
    rtts: Vec<SimDuration>,
    default_rtt: SimDuration,
}

impl MdsNetwork {
    /// Every node sees the same round-trip time to every shard (flat
    /// blade center).
    pub fn uniform(rtt: SimDuration) -> Self {
        MdsNetwork {
            shards: vec![ShardRtts {
                rtts: Vec::new(),
                default_rtt: rtt,
            }],
        }
    }

    /// Derives per-node RTTs from a cluster and the single node
    /// hosting the metadata service.
    pub fn from_cluster(cluster: &Cluster, mds_host: NodeId) -> Self {
        Self::from_cluster_hosts(cluster, &[mds_host])
    }

    /// Derives per-node, per-shard RTTs from a cluster and one host
    /// per shard (shard *i* lives on `hosts[i]`).
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is empty.
    pub fn from_cluster_hosts(cluster: &Cluster, hosts: &[NodeId]) -> Self {
        assert!(!hosts.is_empty(), "need at least one metadata host");
        let shards = hosts
            .iter()
            .map(|&host| {
                let default_rtt = cluster.rtt(cluster.clients()[0], host);
                let mut rtts = Vec::new();
                for &c in cluster.clients() {
                    if c.index() >= rtts.len() {
                        rtts.resize(c.index() + 1, default_rtt);
                    }
                    rtts[c.index()] = cluster.rtt(c, host);
                }
                ShardRtts { rtts, default_rtt }
            })
            .collect();
        MdsNetwork { shards }
    }

    /// Round trip from `node` to the host of `shard` (clamped to the
    /// last configured host).
    pub fn shard_rtt(&self, node: NodeId, shard: ShardId) -> SimDuration {
        let s = self
            .shards
            .get(shard.0)
            .unwrap_or_else(|| self.shards.last().expect("at least one shard"));
        s.rtts.get(node.index()).copied().unwrap_or(s.default_rtt)
    }

    /// Round trip from `node` to shard 0 (the single-MDS convenience).
    pub fn rtt(&self, node: NodeId) -> SimDuration {
        self.shard_rtt(node, ShardId(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::cluster::ClusterBuilder;
    use netsim::topology::Topology;

    #[test]
    fn defaults_match_paper() {
        let c = CofsConfig::default();
        assert_eq!(c.dir_limit, 512);
        assert!(c.spread > 1);
        assert_eq!(c.under_root.as_str(), "/.cofs");
        assert_eq!(c.shard_policy.shard_count(), 1);
        assert_eq!(c.shard_policy.label(), "single");
    }

    #[test]
    fn batching_defaults_off_and_builder_enables() {
        let c = CofsConfig::default();
        assert!(c.batch.is_none());
        assert!(!c.read_priority);
        let b = CofsConfig::default().with_batching(16, SimDuration::from_millis(2), 4);
        let batch = b.batch.as_ref().expect("batching on");
        assert_eq!(batch.max_batch_ops, 16);
        assert_eq!(batch.max_batch_delay, SimDuration::from_millis(2));
        assert_eq!(batch.pipeline_depth, 4);
        // Memoization is part of batching: its builder changes nothing.
        assert_eq!(b.clone().with_read_memoization().batch, b.batch);
        let p = CofsConfig::default().with_read_priority();
        assert!(p.read_priority);
    }

    #[test]
    #[should_panic(expected = "requires batching")]
    fn read_memoization_without_batching_panics() {
        let _ = CofsConfig::default().with_read_memoization();
    }

    #[test]
    fn write_behind_defaults_off_and_builder_enables() {
        assert!(CofsConfig::default().write_behind.is_none());
        let window = WriteBehindConfig::default();
        assert!(window.max_unapplied_ops > 0);
        assert!(!window.max_unapplied_window.is_zero());
        let w = CofsConfig::default()
            .with_batching(16, SimDuration::from_millis(2), 4)
            .with_write_behind();
        assert_eq!(w.write_behind, Some(window));
    }

    #[test]
    #[should_panic(expected = "requires batching")]
    fn write_behind_without_batching_panics() {
        let _ = CofsConfig::default().with_write_behind();
    }

    #[test]
    fn fuse_copy_scales() {
        let c = CofsConfig::default();
        let one = c.fuse_copy(1024 * 1024);
        let four = c.fuse_copy(4 * 1024 * 1024);
        assert!(four > one * 3);
        assert!(four < one * 5);
    }

    #[test]
    fn build_shard_policy_respects_count_and_kind() {
        let single = CofsConfig::default().build_shard_policy();
        assert_eq!(single.shard_count(), 1);
        // One static shard routes as "single" whatever the kind.
        let degenerate = CofsConfig::default()
            .with_shards(1, ShardPolicyKind::HashByParent)
            .build_shard_policy();
        assert_eq!(degenerate.label(), "single");
        let hashed = CofsConfig::default()
            .with_shards(4, ShardPolicyKind::HashByParent)
            .build_shard_policy();
        assert_eq!(hashed.shard_count(), 4);
        assert_eq!(hashed.label(), "hash-parent");
        let subtree = CofsConfig::default()
            .with_shards(2, ShardPolicyKind::Subtree)
            .build_shard_policy();
        assert_eq!(subtree.label(), "subtree");
        let one_subtree = CofsConfig::default()
            .with_shards(1, ShardPolicyKind::Subtree)
            .build_shard_policy();
        assert_eq!(one_subtree.label(), "single");
        assert_eq!(one_subtree.shard_count(), 1);
    }

    #[test]
    fn elastic_defaults_off_and_builder_enables() {
        let c = CofsConfig::default();
        assert!(c.shard_policy.as_elastic().is_none());
        let e = CofsConfig::default().with_elastic(8);
        let p = e.build_shard_policy();
        assert_eq!(p.label(), "elastic");
        assert_eq!(p.shard_count(), 8);
        let thresholds = p.as_elastic().expect("elastic policy").config();
        assert_eq!(thresholds, &ElasticConfig::default());
        assert!(thresholds.split_threshold > 0);
        assert!(!thresholds.window.is_zero());
        // One elastic shard keeps its label (sweeps start at 1), while
        // the static kinds still degenerate to one hashed shard.
        let one = CofsConfig::default().with_elastic(1).build_shard_policy();
        assert_eq!(one.label(), "elastic");
        assert_eq!(one.shard_count(), 1);
        // Static policies report no elastic downcast.
        let h = CofsConfig::default()
            .with_shards(4, ShardPolicyKind::HashByParent)
            .build_shard_policy();
        assert!(h.as_elastic().is_none());
    }

    #[test]
    fn fault_defaults_off_and_builder_enables() {
        use crate::fault::FaultPlan;
        use crate::mds_cluster::ShardId;
        use simcore::time::SimTime;
        let c = CofsConfig::default();
        assert!(c.fault.is_empty());
        assert!(c.retry.max_retries > 0);
        assert!(!c.retry.base_backoff.is_zero());
        let plan = FaultPlan::default().crash(
            ShardId(1),
            SimTime::from_millis(40),
            SimDuration::from_millis(5),
        );
        let f = CofsConfig::default().with_fault_plan(plan.clone());
        assert_eq!(f.fault, plan);
        let quiet = CofsConfig::default().with_retry(RetryConfig {
            jitter_pct: 0,
            ..RetryConfig::default()
        });
        assert_eq!(quiet.retry.jitter_pct, 0);
    }

    #[test]
    fn standby_defaults_off_and_builder_enables() {
        assert!(CofsConfig::default().standby.is_none());
        assert!(!StandbyConfig::default().promotion_cost.is_zero());
        let s = CofsConfig::default()
            .with_batching(16, SimDuration::from_millis(2), 4)
            .with_write_behind()
            .with_standby();
        assert_eq!(s.standby, Some(StandbyConfig::default()));
    }

    #[test]
    #[should_panic(expected = "requires write-behind")]
    fn standby_without_write_behind_panics() {
        let _ = CofsConfig::default()
            .with_batching(16, SimDuration::from_millis(2), 4)
            .with_standby();
    }

    #[test]
    fn admission_defaults_off_and_builder_enables() {
        assert!(CofsConfig::default().admission.is_none());
        let ramp = AdmissionConfig::default();
        assert!(ramp.sessions_per_window >= 1);
        assert!(!ramp.window.is_zero());
        let a = CofsConfig::default().with_admission();
        assert_eq!(a.admission, Some(ramp));
    }

    #[test]
    fn uniform_network() {
        let n = MdsNetwork::uniform(SimDuration::from_micros(300));
        assert_eq!(n.rtt(NodeId(0)), SimDuration::from_micros(300));
        assert_eq!(n.rtt(NodeId(42)), SimDuration::from_micros(300));
        // Any shard id resolves (clamped to the last host).
        assert_eq!(
            n.shard_rtt(NodeId(1), ShardId(3)),
            SimDuration::from_micros(300)
        );
    }

    #[test]
    fn cluster_network_reflects_topology() {
        let cluster = ClusterBuilder::new()
            .clients(32)
            .servers(2)
            .with_metadata_host()
            .topology(Topology::hierarchical(16))
            .build();
        let mds = cluster.metadata_host().unwrap();
        let net = MdsNetwork::from_cluster(&cluster, mds);
        let near = cluster.clients()[0]; // center 0, same as the host
        let far = cluster.clients()[20]; // center 1
        assert!(net.rtt(far) > net.rtt(near));
    }

    #[test]
    fn per_shard_hosts_have_independent_rtts() {
        let cluster = ClusterBuilder::new()
            .clients(8)
            .servers(2)
            .metadata_hosts(3)
            .build();
        let hosts = cluster.metadata_hosts().to_vec();
        assert_eq!(hosts.len(), 3);
        let net = MdsNetwork::from_cluster_hosts(&cluster, &hosts);
        let c0 = cluster.clients()[0];
        for (s, &host) in hosts.iter().enumerate() {
            assert_eq!(net.shard_rtt(c0, ShardId(s)), cluster.rtt(c0, host));
        }
    }
}
