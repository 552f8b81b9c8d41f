//! `CofsFs` — the composite filesystem.
//!
//! Implements the paper's architecture (Fig 3): a FUSE-style
//! interposition layer on every client diverts filesystem requests to
//! two userspace modules — the **placement driver** (which maps
//! regular files onto an underlying layout that avoids synchronization
//! conflicts) and the **metadata driver** (which forwards pure
//! metadata operations to a centralized metadata service). Only
//! requests related to file contents reach the underlying filesystem.

use crate::batch::{BatchPipeline, BatchStats, BatchedOp};
use crate::client_cache::{CacheStats, ClientCache, EntryKind, LeaseKey};
use crate::config::{CofsConfig, MdsNetwork};
use crate::fault::{FaultSummary, Nack, RetryStats};
use crate::mds::{Cred, DbOps, Mds, RowSet};
use crate::mds_cluster::{MdsCluster, Shape, ShardId, ShardUsage};
use crate::placement::{format_name, HashedPlacement, PlacementPolicy, NAME_BUF};
use netsim::ids::NodeId;
use simcore::prelude::*;
use std::collections::BTreeMap;
use vfs::error::{Errno, FsError};
use vfs::fs::{FileSystem, FsResult, OpCtx, Timed};
use vfs::path::VPath;
use vfs::types::{
    DirEntry, FileAttr, FileHandle, FileType, FsStats, Gid, Ino, Mode, OpenFlags, SetAttr, Uid,
};

/// One FUSE request on its way through the daemon: the caller's
/// context, the op's name (its errors carry it) and its virtual clock,
/// which starts once FUSE has dispatched the request and moves only
/// forward, through [`Op::advance`].
struct Op<'c> {
    ctx: &'c OpCtx,
    name: &'static str,
    t: SimTime,
}

impl<'c> Op<'c> {
    /// `ctx`'s request `name`, delivered to the daemon `dispatch` after
    /// its issue.
    fn new(ctx: &'c OpCtx, name: &'static str, dispatch: SimDuration) -> Self {
        let t = ctx.now + dispatch;
        Op { ctx, name, t }
    }

    /// The caller's credentials, checked by the metadata service
    /// against the virtual attributes.
    fn cred(&self) -> Cred {
        Cred {
            uid: self.ctx.uid,
            gid: self.ctx.gid,
        }
    }

    /// The daemon performs underlying I/O with its own (root)
    /// credentials, at the op's current time.
    fn daemon(&self) -> OpCtx {
        OpCtx {
            uid: Uid(0),
            gid: Gid(0),
            now: self.t,
            ..*self.ctx
        }
    }

    /// Moves the clock to `to`; it never moves back.
    fn advance(&mut self, to: SimTime) {
        debug_assert!(
            to >= self.t,
            "{} moved its clock back from {:?} to {to:?}",
            self.name,
            self.t
        );
        self.t = to;
    }

    /// The `EIO` that the refusal `nack` fails this op with, on `what`.
    /// A refusal that predates the op (a stale batch its submission
    /// pumped) still ends no earlier than the op has got to.
    fn refused(&self, what: &str, nack: &Nack) -> FsError {
        FsError::new(Errno::EIO, self.name, what).with_end(nack.at.max(self.t))
    }

    /// The op's reply: `v`, at the current time.
    fn done<T>(self, v: T) -> FsResult<T> {
        Ok(Timed::new(v, self.t))
    }
}

/// What a metadata operation charged by `CofsFs::charge` touches.
#[derive(Debug, Clone, Copy)]
enum Target<'a> {
    /// A read of a path's attributes (for [`EntryKind::Dentry`], of its
    /// entry list).
    Read(EntryKind, &'a VPath),
    /// A mutation of one name, or of two (`rename`, `link`).
    Write(&'a VPath, Option<&'a VPath>),
}

#[derive(Debug, Clone)]
struct CHandle {
    vino: u64,
    /// Virtual path at open/create time — used to route handle-based
    /// metadata updates (size publication) to the owning shard.
    vpath: VPath,
    under_fh: Option<FileHandle>,
    mapping: Option<VPath>,
    flags: OpenFlags,
    written: bool,
    /// Regular file whose underlying open is deferred until first I/O
    /// (the daemon opens lazily; pure open/close cycles never touch
    /// the underlying filesystem).
    lazy: bool,
}

/// The COFS virtualization layer over any underlying filesystem.
///
/// # Examples
///
/// ```
/// use cofs::config::{CofsConfig, MdsNetwork};
/// use cofs::fs::CofsFs;
/// use netsim::ids::NodeId;
/// use simcore::time::SimDuration;
/// use vfs::fs::{FileSystem, OpCtx};
/// use vfs::memfs::MemFs;
/// use vfs::path::vpath;
/// use vfs::types::Mode;
///
/// let net = MdsNetwork::uniform(SimDuration::from_micros(250));
/// let mut fs = CofsFs::new(MemFs::new(), CofsConfig::default(), net, 42);
/// let ctx = OpCtx::test(NodeId(0));
/// fs.mkdir(&ctx, &vpath("/shared"), Mode::dir_default())?;
/// let fh = fs.create(&ctx, &vpath("/shared/out"), Mode::file_default())?.value;
/// fs.close(&ctx, fh)?;
/// // The virtual view shows the file where the user put it…
/// assert_eq!(fs.readdir(&ctx, &vpath("/shared"))?.value.len(), 1);
/// # Ok::<(), vfs::error::FsError>(())
/// ```
#[derive(Debug)]
pub struct CofsFs<U: FileSystem> {
    under: U,
    cfg: CofsConfig,
    net: MdsNetwork,
    mds: MdsCluster,
    cache: Option<ClientCache>,
    batch: Option<BatchPipeline>,
    /// Chooses each file's underlying directory and knows which of
    /// those directories are made.
    placement: Box<dyn PlacementPolicy>,
    handles: FxHashMap<u64, CHandle>,
    next_fh: u64,
    next_under_name: u64,
    counters: Counters,
    retry: RetryStats,
    /// Monotonic retry sequence — seeds per-retry backoff jitter so
    /// concurrent clients de-synchronize deterministically.
    retry_seq: u64,
    /// Retry-exhausted (`EIO`) operations per client node — how
    /// concentrated the convoy's damage was, surfaced as aggregates in
    /// [`FaultSummary`]. Empty without an armed plan.
    exhausted_by_node: BTreeMap<NodeId, u64>,
}

impl<U: FileSystem> CofsFs<U> {
    /// Wraps `under` with the COFS layer using the paper's hashed
    /// placement policy. `seed` fixes the placement randomization.
    pub fn new(under: U, cfg: CofsConfig, net: MdsNetwork, seed: u64) -> Self {
        let placement: Box<dyn PlacementPolicy> = Box::new(HashedPlacement::new(
            cfg.under_root.clone(),
            cfg.dir_limit,
            cfg.spread,
            seed,
        ));
        Self::with_placement(under, cfg, net, placement)
    }

    /// Wraps `under` with a custom placement policy (used by the
    /// ablation benchmarks, e.g. [`crate::placement::PassthroughPlacement`]).
    /// The metadata cluster is built from the config's shard count and
    /// policy kind.
    pub fn with_placement(
        under: U,
        cfg: CofsConfig,
        net: MdsNetwork,
        placement: Box<dyn PlacementPolicy>,
    ) -> Self {
        let mut mds = MdsCluster::new(cfg.build_shard_policy());
        // Default-off: an empty plan never arms, so the fault gate
        // admits every request and the fault-free configuration stays
        // bit-for-bit the seed path.
        if !cfg.fault.is_empty() {
            mds.arm_faults(cfg.fault.clone());
        }
        CofsFs {
            under,
            net,
            mds,
            cache: cfg.client_cache.clone().map(ClientCache::new),
            batch: cfg.batch.clone().map(BatchPipeline::new),
            placement,
            handles: FxHashMap::default(),
            next_fh: 1,
            next_under_name: 1,
            counters: Counters::new(),
            retry: RetryStats::default(),
            retry_seq: 0,
            exhausted_by_node: BTreeMap::new(),
            cfg,
        }
    }

    /// The underlying filesystem (e.g. to inspect its counters).
    pub fn under(&self) -> &U {
        &self.under
    }

    /// Mutable access to the underlying filesystem (harnesses use this
    /// to quiesce/reset it between benchmark phases).
    pub fn under_mut(&mut self) -> &mut U {
        &mut self.under
    }

    /// Layer counters (`mds_rpcs`, `under_creates`, `under_dirs_made`, …).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The logical metadata namespace (for table statistics in
    /// reports).
    pub fn mds(&self) -> &Mds {
        self.mds.namespace()
    }

    /// The sharded metadata service (routing, per-shard load).
    pub fn mds_cluster(&self) -> &MdsCluster {
        &self.mds
    }

    /// Per-shard metadata load since the last [`Self::reset_time`]
    /// (scenario reports use this to expose partition skew).
    pub fn shard_usage(&self) -> Vec<ShardUsage> {
        self.mds.usage()
    }

    /// The configuration in use.
    pub fn config(&self) -> &CofsConfig {
        &self.cfg
    }

    /// When the last acked-but-unapplied write-behind batch finishes
    /// applying, given the workload finished at `horizon` — the end of
    /// the crash-consistency window
    /// ([`crate::mds_cluster::MdsCluster::apply_horizon`]). Equals
    /// `horizon` with write-behind off.
    pub fn apply_horizon(&self, horizon: SimTime) -> SimTime {
        self.mds.apply_horizon(horizon)
    }

    /// The per-client metadata cache (lease state and knobs), if the
    /// config has one.
    pub fn client_cache(&self) -> Option<&ClientCache> {
        self.cache.as_ref()
    }

    /// Aggregate client-cache counters since the last
    /// [`Self::reset_time`] (all zero without a cache).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
            .as_ref()
            .map(ClientCache::stats)
            .unwrap_or_default()
    }

    /// The per-node batch pipeline (knobs and buffered state), if the
    /// config has one.
    pub fn batch_pipeline(&self) -> Option<&BatchPipeline> {
        self.batch.as_ref()
    }

    /// Aggregate batching counters since the last [`Self::reset_time`]
    /// (all zero without a pipeline).
    pub fn batch_stats(&self) -> BatchStats {
        self.batch
            .as_ref()
            .map(BatchPipeline::stats)
            .unwrap_or_default()
    }

    /// Client-side retry accounting since the last [`Self::reset_time`]
    /// (all zero without an armed fault plan).
    pub fn retry_stats(&self) -> RetryStats {
        self.retry
    }

    /// Combined cluster/client fault accounting — `None` unless a fault
    /// plan is armed, so fault-free results stay byte-identical. The
    /// `errors` field is left zero here; scenario drivers that collect
    /// per-step failures fill it in.
    pub fn fault_summary(&self) -> Option<FaultSummary> {
        if !self.mds.fault_active() {
            return None;
        }
        let f = self.mds.fault_stats();
        let r = self.retry;
        Some(FaultSummary {
            crashes: f.crashes,
            nacks: f.nacks,
            drops: f.drops,
            retries: r.retries,
            exhausted: r.exhausted,
            replayed_ops: f.replayed_ops,
            lost_acked_ops: f.lost_acked_ops,
            fenced_leases: self.cache_stats().fenced,
            fenced_sessions: f.fenced_sessions,
            elastic_aborts: f.elastic_aborts,
            promotions: f.promotions,
            lag_replayed: f.lag_replayed_rows,
            admission_defers: f.admission_defers,
            partition_nacks: f.partition_nacks,
            eio_nodes: self.exhausted_by_node.len() as u64,
            max_node_exhausted: self.exhausted_by_node.values().copied().max().unwrap_or(0),
            max_backoff_depth: r.max_backoff_depth,
            gap_ms: f.downtime.as_millis_f64(),
            recovery_ms: f.recovery_busy.as_millis_f64(),
            errors: 0,
        })
    }

    /// Flushes every buffered batch — each at its natural delay-window
    /// deadline, exactly as its flush timer would have — and returns
    /// the latest batch completion across all nodes, if the config has
    /// a pipeline and anything was ever issued. An end-of-phase
    /// makespan must fold this tail in: the last acknowledgements
    /// precede the last wire completions by design.
    pub fn drain_batches(&mut self) -> Option<SimTime> {
        for node in self.batch.as_ref()?.nodes_with_work() {
            self.batch.as_mut()?.close_all(node);
            // A batch that exhausts its retries during a drain has
            // already recorded its failure (counters + completion);
            // keep draining the rest of the pipeline.
            while self.pump(node, SimTime::MAX).is_err() {}
        }
        self.batch.as_ref()?.last_completion()
    }

    /// Rewinds every metadata shard's queue to virtual time zero (used
    /// between benchmark phases together with the underlying
    /// filesystem's own reset). Cached entries and their leases
    /// survive, like sessions; the cache counters rewind with the
    /// shard counters so reports describe the measured phase only.
    /// Buffered batches are drained first (their cost lands in the
    /// phase that buffered them), then the pipeline rewinds too.
    pub fn reset_time(&mut self) {
        self.drain_batches();
        if let Some(batch) = self.batch.as_mut() {
            batch.reset_time();
        }
        self.mds.reset_time();
        if let Some(cache) = self.cache.as_mut() {
            cache.reset_stats();
        }
        self.retry = RetryStats::default();
        self.retry_seq = 0;
        self.exhausted_by_node.clear();
    }

    /// Feeds one operation on `path` into the elastic policy's
    /// per-directory load window (the *parent* is the observed
    /// directory, passed as borrowed text). A no-op under static
    /// policies; observation itself never charges time (see
    /// [`crate::mds_cluster::MdsCluster::observe_elastic`]).
    fn observe_parent(&mut self, op: &Op, path: &VPath) {
        self.observe(op, path.parent_str().unwrap_or("/"));
    }

    /// Feeds one operation under directory `dir` into the elastic
    /// policy, then fences the leases of any crash the policy's fault
    /// check processed.
    fn observe(&mut self, op: &Op, dir: &str) {
        self.mds.observe_elastic(&self.cfg, dir, op.t);
        self.fence_crashed();
    }

    /// Charges one metadata operation.
    ///
    /// A [`Target::Read`] is one synchronous request, gated through the
    /// retry driver ([`Self::admit`]) right before it is priced. A
    /// [`Target::Write`] was gated before it changed the namespace
    /// ([`Self::gate`]) and is priced here: a two-phase commit when its
    /// names live on different shards (two-phase operations never batch:
    /// distributed agreement needs both shards engaged synchronously),
    /// otherwise buffered into the node's open batch for the shard when
    /// the config has a pipeline — acknowledged as soon as the daemon
    /// accepts it, the caller's clock advancing past the round trip
    /// only when flow control makes it wait (see [`crate::batch`]) —
    /// and one synchronous request otherwise.
    ///
    /// A batched op carries the row keys of its names' resolution
    /// chains (deduped, so shared prefixes count once), clamped to the
    /// rows the operation actually read so short-circuiting mutations
    /// (pure size publication) advertise nothing; the shard then prices
    /// the batch by its deduplicated read set. It also carries its
    /// parents' rows for write-behind coalescing.
    fn charge(&mut self, op: &mut Op, target: Target<'_>, ops: DbOps) -> Result<(), FsError> {
        let node = op.ctx.node;
        let shape = match target {
            Target::Read(kind, path) => {
                let shard = match kind {
                    EntryKind::Attr | EntryKind::Negative => {
                        self.observe_parent(op, path);
                        self.mds.route(path)
                    }
                    EntryKind::Dentry => {
                        // A listing observes the listed directory itself.
                        self.observe(op, path.as_str());
                        self.mds.route_entries(path)
                    }
                };
                let t = self
                    .admit(node, shard, op.t)
                    .map_err(|nack| op.refused(path.as_str(), &nack))?;
                op.advance(t);
                Shape::Sync(shard)
            }
            Target::Write(a, b) => {
                self.observe_parent(op, a);
                if let Some(b) = b {
                    self.observe_parent(op, b);
                }
                let sa = self.mds.route(a);
                let sb = b.map_or(sa, |b| self.mds.route(b));
                if sa != sb {
                    self.counters.bump("mds_two_phase");
                    Shape::TwoPhase(sa, sb)
                } else if let Some(batch) = self.batch.as_mut() {
                    // Both names' rows, each shared row once, clamped to
                    // the rows the op touched.
                    let rows = |of: fn(&VPath) -> RowSet, max: u64| {
                        let mut set = of(a);
                        if let Some(b) = b {
                            set.merge(&of(b));
                        }
                        set.truncated(max)
                    };
                    let read_set = rows(RowSet::resolution_chain, ops.reads);
                    // Only the journal coalesces writes; without it the
                    // write set stays empty and allocation-free.
                    let write_set = if self.cfg.write_behind.is_some() {
                        rows(RowSet::parent_row, ops.writes)
                    } else {
                        RowSet::empty()
                    };
                    self.counters.bump("mds_rpcs");
                    batch.enqueue(
                        node,
                        sa,
                        BatchedOp {
                            db: ops,
                            read_set,
                            write_set,
                        },
                        op.t,
                    );
                    // A batch this submission puts on the wire and the
                    // retry driver gives up on fails this op.
                    self.pump(node, op.t)
                        .map_err(|nack| op.refused(a.as_str(), &nack))?;
                    let batch = self.batch.as_ref().expect("this arm holds a pipeline");
                    op.advance(batch.ack_time(node, op.t));
                    return Ok(());
                } else {
                    Shape::Sync(sa)
                }
            }
        };
        self.counters.bump("mds_rpcs");
        let done = self.mds.request(
            &self.cfg,
            &self.net,
            node,
            shape,
            &[BatchedOp::opaque(ops)],
            op.t,
        );
        op.advance(done);
        Ok(())
    }

    /// Puts every closed batch of `node` due by `horizon` on the wire,
    /// in close order, feeding each completion back into the pipeline's
    /// slot accounting. A batch the retry driver gives up on records
    /// the failure time as its completion (the slot frees — the
    /// pipeline never wedges) and returns the refusal. Nothing is due
    /// without a pipeline.
    fn pump(&mut self, node: NodeId, horizon: SimTime) -> Result<(), Nack> {
        while let Some(b) = self.batch.as_mut().and_then(|p| p.take_due(node, horizon)) {
            self.counters.bump("mds_batches");
            let admitted = self.admit(node, b.shard, b.issue_at);
            let done = match admitted {
                Ok(t) => {
                    self.mds
                        .request(&self.cfg, &self.net, node, Shape::Batch(b.shard), &b.ops, t)
                }
                Err(nack) => {
                    self.retry.exhausted_ops += b.ops.len() as u64;
                    nack.at
                }
            };
            let batch = self.batch.as_mut().expect("batches come from a pipeline");
            batch.record_completion(node, done);
            admitted?;
        }
        Ok(())
    }

    /// The retry driver: waits (in virtual time) until `shard` admits a
    /// request from `node` ([`MdsCluster::admit`]) and returns when the
    /// admitted attempt is issued. Free without an armed fault plan.
    /// Each refused or dropped attempt costs its refusal time plus a
    /// deterministic, jittered exponential backoff; a refusal quoting a
    /// retry-after is honoured exactly instead. Exhausting the budget
    /// returns the last refusal, whose `at` is the honest failure time.
    fn admit(&mut self, node: NodeId, shard: ShardId, t: SimTime) -> Result<SimTime, Nack> {
        let mut now = t;
        let mut attempt = 0u32;
        loop {
            let verdict = self.mds.admit(&self.cfg, &self.net, node, shard, now);
            self.fence_crashed();
            let nack = match verdict {
                Ok(()) => return Ok(now),
                Err(nack) => nack,
            };
            self.retry.nacks += 1;
            if let Some(after) = nack.retry_after {
                // Server-scheduled wait (admission control, or a
                // supervisor quoting the restart): arrive exactly when
                // told instead of climbing the backoff ladder — a
                // scheduled slot is not a failure escalation, and the
                // schedule guarantees progress.
                self.retry.retries += 1;
                now = nack.at.max(after);
                continue;
            }
            if attempt >= self.cfg.retry.max_retries {
                self.retry.exhausted += 1;
                *self.exhausted_by_node.entry(node).or_insert(0) += 1;
                return Err(nack);
            }
            self.retry.retries += 1;
            let seq = self.retry_seq;
            self.retry_seq += 1;
            let delay = self.cfg.retry.backoff(node, seq, attempt);
            self.retry.backoff += delay;
            now = nack.at + delay;
            attempt += 1;
            self.retry.max_backoff_depth = self.retry.max_backoff_depth.max(attempt);
        }
    }

    /// Admission check for a namespace *mutation* of `path`: the owning
    /// shard must be reachable before the mutation is applied, so a
    /// retry-exhausted `EIO` can never leave the namespace changed —
    /// an op either completes (possibly via retries) or fails without
    /// effect, never both.
    fn gate(&mut self, op: &mut Op, path: &VPath) -> Result<(), FsError> {
        if !self.mds.fault_active() {
            return Ok(());
        }
        let shard = self.mds.route(path);
        let t = self
            .admit(op.ctx.node, shard, op.t)
            .map_err(|nack| op.refused(path.as_str(), &nack))?;
        op.advance(t);
        Ok(())
    }

    /// Fences, for every crash the cluster processed since the last
    /// call, the live leases the crashed shard granted: they vanish
    /// from their holders' caches, so post-crash reads revalidate
    /// against the recovered shard.
    fn fence_crashed(&mut self) {
        for (shard, at) in self.mds.take_crashes() {
            if let Some(cache) = self.cache.as_mut() {
                let mds = &self.mds;
                cache.fence(at, |key| mds.lease_shard(key) == shard);
            }
        }
    }

    /// Charges a lease-eligible metadata read. A live cached lease
    /// answers locally — no RPC, no shard contact, ~0 RTT. A miss pays
    /// the full shard RPC and installs a fresh lease for the caller.
    /// The *answer* always comes from the unified namespace either
    /// way; only the charged time differs (see [`crate::client_cache`]).
    /// Without a cache every read is charged.
    fn cached_read(
        &mut self,
        op: &mut Op,
        kind: EntryKind,
        path: &VPath,
        ops: DbOps,
    ) -> Result<(), FsError> {
        let (node, t) = (op.ctx.node, op.t);
        if self
            .cache
            .as_mut()
            .is_some_and(|cache| cache.lookup(node, kind, path, t).is_hit())
        {
            // A live lease answers locally even while the owning shard
            // is down — exactly the availability a cache buys through a
            // fault window (fenced leases were already dropped when the
            // crash was processed).
            return Ok(());
        }
        self.charge(op, Target::Read(kind, path), ops)?;
        if let Some(cache) = self.cache.as_mut() {
            cache.insert(node, kind, path.clone(), op.t);
        }
        Ok(())
    }

    /// Recalls every live lease conflicting with a mutation that has
    /// completed: the recalled entries leave the holders' caches, the
    /// mutator's own copies for free, and the owning shards price a
    /// message to each remote holder (in parallel, RTT-costed). `keys`
    /// runs only with a client cache; without one there are no leases,
    /// and building the keys would only clone paths.
    fn recall(&mut self, op: &mut Op, keys: impl FnOnce() -> Vec<LeaseKey>) {
        let Some(cache) = self.cache.as_mut() else {
            return;
        };
        let keys = keys();
        let messages = cache.recall(op.ctx.node, &keys, op.t);
        op.advance(self.mds.price_recall(&self.net, &messages, op.t));
    }

    /// The lease keys a namespace mutation under `path`'s parent
    /// conflicts with: the parent's entry list and its own attributes
    /// (mtime/entry count change with the child set).
    fn parent_keys(path: &VPath) -> [LeaseKey; 2] {
        let parent = path.parent().unwrap_or_else(VPath::root);
        [
            (EntryKind::Dentry, parent.clone()),
            (EntryKind::Attr, parent),
        ]
    }

    /// The lease keys the *creation* of `path` conflicts with: the
    /// parent keys plus any negative (`ENOENT`) leases on the name
    /// itself — pollers that cached its absence must learn it now
    /// exists.
    fn creation_keys(path: &VPath) -> Vec<LeaseKey> {
        let mut keys = vec![(EntryKind::Negative, path.clone())];
        keys.extend(Self::parent_keys(path));
        keys
    }

    /// Makes the `missing` trailing levels of `mapping`'s directory
    /// through the underlying filesystem, root-down, hinting the first
    /// at `ino` (the deepest made level's inode) and each later one at
    /// the level made before it, then reports the chain to placement.
    /// Returns the directory's inode if the underlying filesystem
    /// reported it. A level that already exists counts as made; any
    /// other failure fails the op and reports nothing, so the next
    /// create that needs the chain makes it again.
    fn make_levels(
        &mut self,
        op: &mut Op,
        mapping: &VPath,
        missing: usize,
        mut ino: Option<Ino>,
    ) -> Result<Option<Ino>, FsError> {
        let levels: Vec<VPath> = std::iter::successors(mapping.parent(), VPath::parent)
            .take(missing)
            .collect();
        let mut inos = Vec::with_capacity(missing);
        for level in levels.iter().rev() {
            ino = match self
                .under
                .mkdir_in(&op.daemon(), level, ino, Mode::new(0o755))
            {
                Ok(done) => {
                    op.advance(done.end);
                    self.counters.bump("under_dirs_made");
                    done.value
                }
                Err(e) if e.is(Errno::EEXIST) => None,
                Err(e) => return Err(e),
            };
            inos.push(ino);
        }
        self.placement.made(&inos);
        Ok(ino)
    }

    /// The underlying handle behind `fh`, performing the deferred
    /// underlying open first if the handle is lazy.
    fn materialize(&mut self, op: &mut Op, fh: FileHandle) -> Result<FileHandle, FsError> {
        let h = self
            .handles
            .get_mut(&fh.0)
            .ok_or_else(|| FsError::new(Errno::EBADF, op.name, fh.to_string()))?;
        if let Some(ufh) = h.under_fh {
            return Ok(ufh);
        }
        let mapping = h
            .mapping
            .as_ref()
            .ok_or_else(|| FsError::new(Errno::EISDIR, op.name, fh.to_string()))?;
        let under = self.under.open(&op.daemon(), mapping, h.flags)?;
        self.counters.bump("under_opens");
        h.under_fh = Some(under.value);
        op.advance(under.end);
        Ok(under.value)
    }

    /// The one listing path behind `readdir` and `readdir_count`: the
    /// service resolves and checks `path`, stamps its atime and prices
    /// the scan, and the read is charged like any lease-eligible one.
    /// Returns the listed directory's inode number; only `readdir` goes
    /// on to copy its names.
    fn list(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<u64> {
        let mut op = Op::new(ctx, "readdir", self.cfg.fuse_dispatch);
        let (dir, ops) = self.mds.namespace_mut().readdir(op.cred(), path, ctx.now)?;
        // The entry list lives with the children, not with the
        // directory's own dentry; a live dentry lease lists locally.
        self.cached_read(&mut op, EntryKind::Dentry, path, ops)?;
        op.done(dir)
    }

    fn handle(&self, op: &Op, fh: FileHandle) -> Result<&CHandle, FsError> {
        self.handles
            .get(&fh.0)
            .ok_or_else(|| FsError::new(Errno::EBADF, op.name, fh.to_string()))
    }

    fn alloc_fh(&mut self, h: CHandle) -> FileHandle {
        let fh = FileHandle(self.next_fh);
        self.next_fh += 1;
        self.handles.insert(fh.0, h);
        fh
    }
}

impl<U: FileSystem> FileSystem for CofsFs<U> {
    fn mkdir(&mut self, ctx: &OpCtx, path: &VPath, mode: Mode) -> FsResult<()> {
        let mut op = Op::new(ctx, "mkdir", self.cfg.fuse_dispatch);
        self.gate(&mut op, path)?;
        // Directories are pure metadata: one service transaction, no
        // underlying filesystem involvement whatsoever.
        let ops = self
            .mds
            .namespace_mut()
            .mkdir(op.cred(), path, mode, ctx.now)?;
        self.charge(&mut op, Target::Write(path, None), ops)?;
        self.recall(&mut op, || Self::creation_keys(path));
        op.done(())
    }

    fn rmdir(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<()> {
        let mut op = Op::new(ctx, "rmdir", self.cfg.fuse_dispatch);
        self.gate(&mut op, path)?;
        let ops = self.mds.namespace_mut().rmdir(op.cred(), path, ctx.now)?;
        self.charge(&mut op, Target::Write(path, None), ops)?;
        let keys = || {
            let mut keys = vec![
                (EntryKind::Attr, path.clone()),
                (EntryKind::Dentry, path.clone()),
            ];
            keys.extend(Self::parent_keys(path));
            keys
        };
        self.recall(&mut op, keys);
        op.done(())
    }

    fn create(&mut self, ctx: &OpCtx, path: &VPath, mode: Mode) -> FsResult<FileHandle> {
        let mut op = Op::new(ctx, "create", self.cfg.fuse_dispatch);
        self.gate(&mut op, path)?;
        // Placement decides where the bits will really live.
        let (Some(vparent), Some(name)) = (path.parent_str(), path.file_name()) else {
            return Err(FsError::new(Errno::EINVAL, op.name, path.as_str()));
        };
        let placed = self.placement.place(ctx.node, ctx.pid, vparent, name);
        // The underlying name, `i<n>`, is unique across the layout.
        let mut buf = [0; NAME_BUF];
        let uname = format_name(&mut buf, format_args!("i{}", self.next_under_name));
        let mapping = placed.dir.join(uname);
        let (missing, mut ino) = (placed.missing, placed.ino);
        self.next_under_name += 1;
        // Register in the metadata service (validates permissions and
        // uniqueness in the *virtual* namespace).
        let (rec, ops) =
            self.mds
                .namespace_mut()
                .create(op.cred(), path, mode, mapping.clone(), ctx.now)?;
        let vino = rec.ino;
        self.charge(&mut op, Target::Write(path, None), ops)?;
        // Other clients caching the parent's listing (or its attrs)
        // must give their leases back before the create is done, and
        // pollers holding a negative lease on the name learn it exists.
        self.recall(&mut op, || Self::creation_keys(path));
        // Materialize the underlying file in its private directory,
        // making the directory first if no create has yet.
        if missing > 0 {
            ino = self.make_levels(&mut op, &mapping, missing, ino)?;
        }
        let under = self
            .under
            .create_in(&op.daemon(), &mapping, ino, Mode::new(0o644))?;
        self.counters.bump("under_creates");
        op.advance(under.end);
        let fh = self.alloc_fh(CHandle {
            vino,
            vpath: path.clone(),
            under_fh: Some(under.value),
            mapping: Some(mapping),
            flags: OpenFlags::RDWR,
            written: false,
            lazy: false,
        });
        op.done(fh)
    }

    fn open(&mut self, ctx: &OpCtx, path: &VPath, flags: OpenFlags) -> FsResult<FileHandle> {
        let mut op = Op::new(ctx, "open", self.cfg.fuse_dispatch);
        let (rec, ops) = self.mds.namespace().lookup(op.cred(), path)?;
        // Virtual permission checks (the service stores the truth).
        if rec.ftype == FileType::Directory && (flags.write || flags.truncate) {
            return Err(FsError::new(Errno::EISDIR, op.name, path.as_str()));
        }
        if flags.read && !rec.mode.allows_read(ctx.uid, ctx.gid, rec.uid, rec.gid) {
            return Err(FsError::new(Errno::EACCES, op.name, path.as_str()));
        }
        if flags.write && !rec.mode.allows_write(ctx.uid, ctx.gid, rec.uid, rec.gid) {
            return Err(FsError::new(Errno::EACCES, op.name, path.as_str()));
        }
        let (vino, ftype, mapping) = (rec.ino, rec.ftype, rec.mapping.clone());
        self.cached_read(&mut op, EntryKind::Attr, path, ops)?;
        let mut under_fh = None;
        let mut lazy = false;
        if ftype == FileType::Regular {
            if flags.truncate {
                // Truncation must reach the real bits immediately, so
                // the gate admits it first: a refused open leaves the
                // file whole.
                let under_path = mapping
                    .as_ref()
                    .ok_or_else(|| FsError::new(Errno::EINVAL, op.name, path.as_str()))?;
                self.gate(&mut op, path)?;
                let under = self.under.open(&op.daemon(), under_path, flags)?;
                self.counters.bump("under_opens");
                under_fh = Some(under.value);
                op.advance(under.end);
                let ops = self.mds.namespace_mut().set_size(vino, 0, ctx.now);
                self.charge(&mut op, Target::Write(path, None), ops)?;
                self.recall(&mut op, || vec![(EntryKind::Attr, path.clone())]);
            } else {
                // The daemon defers the underlying open until the
                // first read/write; an open/close cycle with no I/O
                // never touches the underlying filesystem at all.
                lazy = true;
            }
        }
        let fh = self.alloc_fh(CHandle {
            vino,
            vpath: path.clone(),
            under_fh,
            mapping,
            flags,
            written: false,
            lazy,
        });
        op.done(fh)
    }

    fn close(&mut self, ctx: &OpCtx, fh: FileHandle) -> FsResult<()> {
        let mut op = Op::new(ctx, "close", self.cfg.fuse_dispatch);
        let h = self.handle(&op, fh)?;
        // Writes never contact the service (paper §V: "there is no
        // need to contact the COFS metadata server if a file is
        // written or resized") — the release after a write reports the
        // authoritative size instead. That update needs the shard, so
        // the gate admits it before anything is released: a refused
        // close keeps the handle open and changes nothing.
        let publish = h.written && h.mapping.is_some();
        if publish {
            let vpath = h.vpath.clone();
            self.gate(&mut op, &vpath)?;
        }
        let h = self.handles.remove(&fh.0).expect("handle checked above");
        if let Some(ufh) = h.under_fh {
            op.advance(self.under.close(&op.daemon(), ufh)?.end);
        }
        if let Some(mapping) = h.mapping.as_ref().filter(|_| publish) {
            // The daemon reads the size back without waiting on it.
            let size = self.under.stat(&op.daemon(), mapping)?.value.size;
            let ops = self.mds.namespace_mut().set_size(h.vino, size, ctx.now);
            self.charge(&mut op, Target::Write(&h.vpath, None), ops)?;
            self.recall(&mut op, || vec![(EntryKind::Attr, h.vpath.clone())]);
        }
        op.done(())
    }

    fn read(&mut self, ctx: &OpCtx, fh: FileHandle, offset: u64, len: u64) -> FsResult<u64> {
        let mut op = Op::new(ctx, "read", self.cfg.fuse_dispatch);
        let h = self.handle(&op, fh)?;
        if !h.flags.read {
            return Err(FsError::new(Errno::EBADF, op.name, fh.to_string()));
        }
        if h.under_fh.is_none() && !h.lazy {
            return Err(FsError::new(Errno::EISDIR, op.name, fh.to_string()));
        }
        // FUSE dispatch, the underlying read, then the double buffer
        // copy of what it returned.
        let ufh = self.materialize(&mut op, fh)?;
        let got = self.under.read(&op.daemon(), ufh, offset, len)?;
        op.advance(got.end + self.cfg.fuse_copy(got.value));
        op.done(got.value)
    }

    fn write(&mut self, ctx: &OpCtx, fh: FileHandle, offset: u64, len: u64) -> FsResult<u64> {
        let mut op = Op::new(ctx, "write", self.cfg.fuse_dispatch);
        let h = self.handle(&op, fh)?;
        // `create` handles are RDWR; plain opens need the flag, and a
        // directory handle has nothing to write to.
        if !h.flags.write || (h.under_fh.is_none() && !h.lazy) {
            return Err(FsError::new(Errno::EBADF, op.name, fh.to_string()));
        }
        // FUSE dispatch and the double buffer copy come first.
        op.advance(op.t + self.cfg.fuse_copy(len));
        let ufh = self.materialize(&mut op, fh)?;
        let wrote = self.under.write(&op.daemon(), ufh, offset, len)?;
        op.advance(wrote.end);
        if let Some(hm) = self.handles.get_mut(&fh.0) {
            hm.written = true;
        }
        op.done(wrote.value)
    }

    fn stat(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<FileAttr> {
        let mut op = Op::new(ctx, "stat", self.cfg.fuse_dispatch);
        // Pure metadata: answered entirely from the service's tables.
        // No underlying-filesystem tokens are touched at all. With the
        // client cache on, a live attribute lease answers locally.
        match self.mds.namespace().getattr(op.cred(), path) {
            Ok((rec, ops)) => {
                let attr = rec.attr();
                self.cached_read(&mut op, EntryKind::Attr, path, ops)?;
                op.done(attr)
            }
            Err(e) if e.is(Errno::ENOENT) => {
                // A probe of a missing name still pays the round trip
                // the service needed to fail the lookup: a nominal
                // scan of one row per component plus the missing
                // dentry. With the client cache on, the miss installs
                // a lease-backed *negative* entry, so repeat probes —
                // the lock-file-polling pattern — answer locally until
                // the name is created (recall) or the lease lapses.
                // Only `stat` probes are negatively cached; `open`'s
                // failure path stays uncharged, as polling loops stat
                // before they open.
                let ops = DbOps {
                    reads: path.depth() as u64 + 1,
                    writes: 0,
                };
                self.cached_read(&mut op, EntryKind::Negative, path, ops)?;
                Err(e.with_end(op.t))
            }
            Err(e) => Err(e),
        }
    }

    fn setattr(&mut self, ctx: &OpCtx, path: &VPath, set: SetAttr) -> FsResult<FileAttr> {
        let mut op = Op::new(ctx, "setattr", self.cfg.fuse_dispatch);
        self.gate(&mut op, path)?;
        let (rec, ops) = self
            .mds
            .namespace_mut()
            .setattr(op.cred(), path, set, ctx.now)?;
        let attr = rec.attr();
        let resize = set.size.and_then(|size| Some((size, rec.mapping.clone()?)));
        if let Some((size, mapping)) = resize {
            // A size change must reach the real bits, like `open(O_TRUNC)`.
            op.advance(self.under.truncate(&op.daemon(), &mapping, size)?.end);
        }
        self.charge(&mut op, Target::Write(path, None), ops)?;
        self.recall(&mut op, || vec![(EntryKind::Attr, path.clone())]);
        op.done(attr)
    }

    fn readdir(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<Vec<DirEntry>> {
        let t = self.list(ctx, path)?;
        Ok(t.map(|dir| self.mds().entries(dir)))
    }

    fn readdir_count(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<u64> {
        let t = self.list(ctx, path)?;
        Ok(t.map(|dir| self.mds().entry_len(dir)))
    }

    fn unlink(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<()> {
        let mut op = Op::new(ctx, "unlink", self.cfg.fuse_dispatch);
        self.gate(&mut op, path)?;
        let (gone, ops) = self.mds.namespace_mut().unlink(op.cred(), path, ctx.now)?;
        self.charge(&mut op, Target::Write(path, None), ops)?;
        let keys = || {
            let mut keys = vec![(EntryKind::Attr, path.clone())];
            keys.extend(Self::parent_keys(path));
            keys
        };
        self.recall(&mut op, keys);
        if let Some(mapping) = gone {
            // Last link went away: remove the real bits.
            op.advance(self.under.unlink(&op.daemon(), &mapping)?.end);
            self.counters.bump("under_unlinks");
        }
        op.done(())
    }

    fn rename(&mut self, ctx: &OpCtx, from: &VPath, to: &VPath) -> FsResult<()> {
        let mut op = Op::new(ctx, "rename", self.cfg.fuse_dispatch);
        // Both ends' shards must admit the rename before the namespace
        // changes (a cross-shard rename is a two-phase commit).
        self.gate(&mut op, from)?;
        self.gate(&mut op, to)?;
        // If the rename will replace the last link of a regular file,
        // remember its mapping for underlying cleanup.
        let doomed = match self.mds.namespace().getattr(op.cred(), to) {
            Ok((rec, _)) if rec.ftype == FileType::Regular && rec.nlink == 1 && from != to => {
                rec.mapping.clone()
            }
            _ => None,
        };
        let ops = self
            .mds
            .namespace_mut()
            .rename(op.cred(), from, to, ctx.now)?;
        // Open handles keep routing by their virtual path; re-root the
        // ones the rename moved so later size publication charges the
        // shard that now owns them.
        // cofs-lint: allow(D003, each handle is re-rooted on its own, so the visit order has no effect)
        for h in self.handles.values_mut() {
            if let Some(moved) = h.vpath.rebase(from, to) {
                h.vpath = moved;
            }
        }
        // Source and destination may live on different shards; the
        // cluster then charges an explicit two-phase commit.
        self.charge(&mut op, Target::Write(from, Some(to)), ops)?;
        // The whole moved subtree changes identity, so every lease on
        // or below either name must come back, plus both parents'
        // listing/attr leases — on top of the two-phase commit when
        // the names straddle shards.
        if let Some(cache) = &self.cache {
            let mut keys = cache.keys_under(from);
            keys.extend(cache.keys_under(to));
            keys.extend(Self::parent_keys(from));
            keys.extend(Self::parent_keys(to));
            self.recall(&mut op, || keys);
        }
        if let Some(mapping) = doomed {
            op.advance(self.under.unlink(&op.daemon(), &mapping)?.end);
            self.counters.bump("under_unlinks");
        }
        op.done(())
    }

    fn link(&mut self, ctx: &OpCtx, existing: &VPath, new: &VPath) -> FsResult<()> {
        let mut op = Op::new(ctx, "link", self.cfg.fuse_dispatch);
        self.gate(&mut op, existing)?;
        self.gate(&mut op, new)?;
        // Hard links are pure metadata in COFS — the underlying file
        // is untouched no matter which virtual directories share it.
        // The inode record and the new name may live on different
        // shards, which costs a two-phase commit.
        let ops = self
            .mds
            .namespace_mut()
            .link(op.cred(), existing, new, ctx.now)?;
        self.charge(&mut op, Target::Write(existing, Some(new)), ops)?;
        // The linked inode's nlink changed, the new parent gained an
        // entry, and the new name stopped being absent.
        let keys = || {
            let mut keys = vec![(EntryKind::Attr, existing.clone())];
            keys.extend(Self::creation_keys(new));
            keys
        };
        self.recall(&mut op, keys);
        op.done(())
    }

    fn symlink(&mut self, ctx: &OpCtx, target: &str, new: &VPath) -> FsResult<()> {
        let mut op = Op::new(ctx, "symlink", self.cfg.fuse_dispatch);
        self.gate(&mut op, new)?;
        let ops = self
            .mds
            .namespace_mut()
            .symlink(op.cred(), target, new, ctx.now)?;
        self.charge(&mut op, Target::Write(new, None), ops)?;
        self.recall(&mut op, || Self::creation_keys(new));
        op.done(())
    }

    fn readlink(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<String> {
        let mut op = Op::new(ctx, "readlink", self.cfg.fuse_dispatch);
        let (target, ops) = self.mds.namespace().readlink(op.cred(), path)?;
        self.charge(&mut op, Target::Read(EntryKind::Attr, path), ops)?;
        op.done(target)
    }

    fn statfs(&mut self, ctx: &OpCtx) -> FsResult<FsStats> {
        let mut op = Op::new(ctx, "statfs", self.cfg.fuse_dispatch);
        let under = self.under.statfs(&op.daemon())?;
        op.advance(under.end);
        let namespace = self.mds.namespace();
        let stats = FsStats {
            inodes: namespace.inode_count(),
            directories: namespace.directory_count(),
            bytes_used: under.value.bytes_used,
        };
        // Inode and directory counts come from the virtual namespace
        // (charged against the root's shard).
        let ops = DbOps {
            reads: 2,
            writes: 0,
        };
        self.charge(&mut op, Target::Read(EntryKind::Attr, &VPath::root()), ops)?;
        op.done(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::ids::Pid;
    use simcore::time::{SimDuration, SimTime};
    use vfs::memfs::MemFs;
    use vfs::path::vpath;

    fn new_fs() -> CofsFs<MemFs> {
        CofsFs::new(
            MemFs::new(),
            CofsConfig::default(),
            MdsNetwork::uniform(SimDuration::from_micros(250)),
            7,
        )
    }

    /// Recall messages the shards priced since the last reset.
    fn shard_recalls(fs: &CofsFs<MemFs>) -> u64 {
        fs.shard_usage().iter().map(|u| u.recalls).sum()
    }

    #[test]
    fn virtual_view_decouples_from_layout() {
        let mut fs = new_fs();
        let ctx = OpCtx::test(NodeId(0));
        fs.mkdir(&ctx, &vpath("/shared"), Mode::dir_default())
            .unwrap();
        for i in 0..10 {
            let fh = fs
                .create(&ctx, &vpath(&format!("/shared/f{i}")), Mode::file_default())
                .unwrap()
                .value;
            fs.close(&ctx, fh).unwrap();
        }
        // Virtual view: all ten files in /shared.
        let names = fs.readdir(&ctx, &vpath("/shared")).unwrap().value;
        assert_eq!(names.len(), 10);
        // Underlying view: nothing in /shared (it does not even exist);
        // files live under /.cofs hash directories.
        let dctx = OpCtx {
            uid: Uid(0),
            gid: Gid(0),
            ..OpCtx::test(NodeId(0))
        };
        assert!(fs
            .under_mut()
            .readdir(&dctx, &vpath("/shared"))
            .unwrap_err()
            .is(Errno::ENOENT));
        let under_root = fs
            .under_mut()
            .readdir(&dctx, &vpath("/.cofs"))
            .unwrap()
            .value;
        assert!(!under_root.is_empty());
    }

    #[test]
    fn a_failed_placement_mkdir_is_made_again_by_the_next_create() {
        // A regular file where placement's root directory goes: its
        // mkdir fails with `EEXIST`, which counts as made, and the
        // mkdir of the node directory under it with `ENOTDIR`.
        let daemon = OpCtx {
            uid: Uid(0),
            gid: Gid(0),
            ..OpCtx::test(NodeId(0))
        };
        let mut under = MemFs::new();
        let fh = under
            .create(&daemon, &vpath("/.cofs"), Mode::file_default())
            .unwrap()
            .value;
        under.close(&daemon, fh).unwrap();
        let net = MdsNetwork::uniform(SimDuration::from_micros(250));
        let mut fs = CofsFs::new(under, CofsConfig::default(), net, 7);
        let ctx = OpCtx::test(NodeId(0));
        fs.mkdir(&ctx, &vpath("/d"), Mode::dir_default()).unwrap();
        for name in ["/d/a", "/d/b"] {
            let err = fs
                .create(&ctx, &vpath(name), Mode::file_default())
                .unwrap_err();
            assert!(err.is(Errno::ENOTDIR), "{err}");
            // Only a successful mkdir counts.
            assert_eq!(fs.counters().get("under_dirs_made"), 0);
        }
        // The failed chain recorded no level, the root's included: once
        // the file is gone, the next create makes all four.
        fs.under_mut().unlink(&daemon, &vpath("/.cofs")).unwrap();
        let fh = fs
            .create(&ctx, &vpath("/d/c"), Mode::file_default())
            .unwrap()
            .value;
        fs.close(&ctx, fh).unwrap();
        assert_eq!(fs.counters().get("under_dirs_made"), 4);
        assert_eq!(fs.counters().get("under_creates"), 1);
        let nodes = fs.under_mut().readdir(&daemon, &vpath("/.cofs")).unwrap();
        assert_eq!(nodes.value.len(), 1);
    }

    #[test]
    fn different_nodes_get_different_under_dirs() {
        let mut fs = new_fs();
        let a = OpCtx::test(NodeId(0));
        let b = OpCtx::test(NodeId(1));
        fs.mkdir(&a, &vpath("/d"), Mode::dir_default()).unwrap();
        let fa = fs
            .create(&a, &vpath("/d/x"), Mode::file_default())
            .unwrap()
            .value;
        let fb = fs
            .create(&b, &vpath("/d/y"), Mode::file_default())
            .unwrap()
            .value;
        fs.close(&a, fa).unwrap();
        fs.close(&b, fb).unwrap();
        let ma = fs.mds().inode_count();
        assert!(ma >= 4); // root + /d + two files
                          // The two files' mappings differ in their hash directory.
        let (rx, _) = fs
            .mds
            .namespace()
            .getattr(
                Cred {
                    uid: a.uid,
                    gid: a.gid,
                },
                &vpath("/d/x"),
            )
            .unwrap();
        let (ry, _) = fs
            .mds
            .namespace()
            .getattr(
                Cred {
                    uid: b.uid,
                    gid: b.gid,
                },
                &vpath("/d/y"),
            )
            .unwrap();
        let (rx, ry) = (rx.clone(), ry.clone());
        let hx = rx.mapping.unwrap().parent().unwrap().parent().unwrap();
        let hy = ry.mapping.unwrap().parent().unwrap().parent().unwrap();
        assert_ne!(hx, hy);
    }

    #[test]
    fn write_then_close_publishes_size() {
        let mut fs = new_fs();
        let ctx = OpCtx::test(NodeId(0));
        let fh = fs
            .create(&ctx, &vpath("/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.write(&ctx, fh, 0, 12345).unwrap();
        fs.close(&ctx, fh).unwrap();
        assert_eq!(fs.stat(&ctx, &vpath("/f")).unwrap().value.size, 12345);
    }

    #[test]
    fn stat_never_touches_underlying() {
        let mut fs = new_fs();
        let ctx = OpCtx::test(NodeId(0));
        let fh = fs
            .create(&ctx, &vpath("/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.close(&ctx, fh).unwrap();
        let under_before = fs.counters().get("under_opens");
        let rpcs_before = fs.counters().get("mds_rpcs");
        for _ in 0..5 {
            fs.stat(&ctx, &vpath("/f")).unwrap();
            fs.utime(&ctx, &vpath("/f"), SimTime::ZERO, SimTime::ZERO)
                .unwrap();
        }
        assert_eq!(fs.counters().get("under_opens"), under_before);
        assert_eq!(fs.counters().get("mds_rpcs"), rpcs_before + 10);
    }

    #[test]
    fn rename_is_pure_metadata() {
        let mut fs = new_fs();
        let ctx = OpCtx::test(NodeId(0));
        fs.mkdir(&ctx, &vpath("/a"), Mode::dir_default()).unwrap();
        fs.mkdir(&ctx, &vpath("/b"), Mode::dir_default()).unwrap();
        let fh = fs
            .create(&ctx, &vpath("/a/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.write(&ctx, fh, 0, 99).unwrap();
        fs.close(&ctx, fh).unwrap();
        let under_creates = fs.counters().get("under_creates");
        let under_unlinks = fs.counters().get("under_unlinks");
        fs.rename(&ctx, &vpath("/a/f"), &vpath("/b/g")).unwrap();
        assert_eq!(fs.counters().get("under_creates"), under_creates);
        assert_eq!(fs.counters().get("under_unlinks"), under_unlinks);
        assert_eq!(fs.stat(&ctx, &vpath("/b/g")).unwrap().value.size, 99);
    }

    #[test]
    fn rename_over_file_cleans_underlying() {
        let mut fs = new_fs();
        let ctx = OpCtx::test(NodeId(0));
        let f1 = fs
            .create(&ctx, &vpath("/a"), Mode::file_default())
            .unwrap()
            .value;
        fs.close(&ctx, f1).unwrap();
        let f2 = fs
            .create(&ctx, &vpath("/b"), Mode::file_default())
            .unwrap()
            .value;
        fs.close(&ctx, f2).unwrap();
        fs.rename(&ctx, &vpath("/a"), &vpath("/b")).unwrap();
        assert_eq!(fs.counters().get("under_unlinks"), 1);
        assert!(fs.stat(&ctx, &vpath("/a")).unwrap_err().is(Errno::ENOENT));
    }

    #[test]
    fn unlink_removes_underlying_on_last_link() {
        let mut fs = new_fs();
        let ctx = OpCtx::test(NodeId(0));
        let fh = fs
            .create(&ctx, &vpath("/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.close(&ctx, fh).unwrap();
        fs.link(&ctx, &vpath("/f"), &vpath("/g")).unwrap();
        fs.unlink(&ctx, &vpath("/f")).unwrap();
        assert_eq!(fs.counters().get("under_unlinks"), 0);
        fs.unlink(&ctx, &vpath("/g")).unwrap();
        assert_eq!(fs.counters().get("under_unlinks"), 1);
    }

    #[test]
    fn symlinks_resolve_in_virtual_space() {
        let mut fs = new_fs();
        let ctx = OpCtx::test(NodeId(0));
        fs.mkdir(&ctx, &vpath("/real"), Mode::dir_default())
            .unwrap();
        let fh = fs
            .create(&ctx, &vpath("/real/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.write(&ctx, fh, 0, 5).unwrap();
        fs.close(&ctx, fh).unwrap();
        fs.symlink(&ctx, "/real", &vpath("/alias")).unwrap();
        let fh = fs
            .open(&ctx, &vpath("/alias/f"), OpenFlags::RDONLY)
            .unwrap()
            .value;
        assert_eq!(fs.read(&ctx, fh, 0, 100).unwrap().value, 5);
        fs.close(&ctx, fh).unwrap();
        assert_eq!(fs.readlink(&ctx, &vpath("/alias")).unwrap().value, "/real");
        assert!(fs.stat(&ctx, &vpath("/alias")).unwrap().value.is_symlink());
    }

    #[test]
    fn permissions_checked_virtually() {
        let mut fs = new_fs();
        let owner = OpCtx::test(NodeId(0));
        let other = OpCtx {
            uid: Uid(2000),
            gid: Gid(2000),
            ..OpCtx::test(NodeId(1))
        };
        fs.mkdir(&owner, &vpath("/priv"), Mode::new(0o700)).unwrap();
        let fh = fs
            .create(&owner, &vpath("/priv/f"), Mode::new(0o600))
            .unwrap()
            .value;
        fs.close(&owner, fh).unwrap();
        assert!(fs
            .stat(&other, &vpath("/priv/f"))
            .unwrap_err()
            .is(Errno::EACCES));
        // Virtual chmod opens it up — no underlying chmod needed.
        fs.setattr(
            &owner,
            &vpath("/priv"),
            SetAttr {
                mode: Some(Mode::new(0o755)),
                ..SetAttr::default()
            },
        )
        .unwrap();
        fs.setattr(
            &owner,
            &vpath("/priv/f"),
            SetAttr {
                mode: Some(Mode::new(0o644)),
                ..SetAttr::default()
            },
        )
        .unwrap();
        let fh = fs
            .open(&other, &vpath("/priv/f"), OpenFlags::RDONLY)
            .unwrap()
            .value;
        fs.close(&other, fh).unwrap();
    }

    #[test]
    fn open_write_requires_flag() {
        let mut fs = new_fs();
        let ctx = OpCtx::test(NodeId(0));
        let fh = fs
            .create(&ctx, &vpath("/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.close(&ctx, fh).unwrap();
        let ro = fs
            .open(&ctx, &vpath("/f"), OpenFlags::RDONLY)
            .unwrap()
            .value;
        assert!(fs.write(&ctx, ro, 0, 1).unwrap_err().is(Errno::EBADF));
        fs.close(&ctx, ro).unwrap();
        assert!(fs.close(&ctx, ro).unwrap_err().is(Errno::EBADF));
    }

    #[test]
    fn truncate_on_open_resets_size() {
        let mut fs = new_fs();
        let ctx = OpCtx::test(NodeId(0));
        let fh = fs
            .create(&ctx, &vpath("/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.write(&ctx, fh, 0, 100).unwrap();
        fs.close(&ctx, fh).unwrap();
        let fh = fs
            .open(&ctx, &vpath("/f"), OpenFlags::WRONLY.with_truncate())
            .unwrap()
            .value;
        fs.close(&ctx, fh).unwrap();
        assert_eq!(fs.stat(&ctx, &vpath("/f")).unwrap().value.size, 0);
    }

    #[test]
    fn under_dir_limit_respected() {
        let mut fs = new_fs();
        let ctx = OpCtx::test(NodeId(0)).with_pid(Pid(1));
        fs.mkdir(&ctx, &vpath("/d"), Mode::dir_default()).unwrap();
        for i in 0..1500 {
            let fh = fs
                .create(&ctx, &vpath(&format!("/d/f{i}")), Mode::file_default())
                .unwrap()
                .value;
            fs.close(&ctx, fh).unwrap();
        }
        // Inspect every underlying hash directory: none may exceed the
        // 512-entry limit.
        let dctx = OpCtx {
            uid: Uid(0),
            gid: Gid(0),
            ..OpCtx::test(NodeId(0))
        };
        // Walk the whole underlying tree; every directory must respect
        // the limit, and leaf files must total the created count.
        let mut total = 0;
        let mut stack = vec![vpath("/.cofs")];
        while let Some(dir) = stack.pop() {
            let entries = fs.under_mut().readdir(&dctx, &dir).unwrap().value;
            let files = entries
                .iter()
                .filter(|e| e.ftype == vfs::types::FileType::Regular)
                .count();
            assert!(files <= 512, "{dir} holds {files} files");
            total += files;
            for e in entries {
                if e.ftype == vfs::types::FileType::Directory {
                    stack.push(dir.join(&e.name));
                }
            }
        }
        assert_eq!(total, 1500);
    }

    #[test]
    fn statfs_reports_virtual_inodes() {
        let mut fs = new_fs();
        let ctx = OpCtx::test(NodeId(0));
        fs.mkdir(&ctx, &vpath("/d"), Mode::dir_default()).unwrap();
        let fh = fs
            .create(&ctx, &vpath("/d/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.write(&ctx, fh, 0, 777).unwrap();
        fs.close(&ctx, fh).unwrap();
        let stats = fs.statfs(&ctx).unwrap().value;
        assert_eq!(stats.inodes, 3); // root + /d + file
        assert_eq!(stats.directories, 2); // root + /d
        assert_eq!(stats.bytes_used, 777);
    }

    fn cached_fs(ttl: SimDuration) -> CofsFs<MemFs> {
        CofsFs::new(
            MemFs::new(),
            CofsConfig::default().with_client_cache(1024, ttl),
            MdsNetwork::uniform(SimDuration::from_micros(250)),
            7,
        )
    }

    #[test]
    fn repeated_stat_hits_cache_and_skips_rpc() {
        let mut fs = cached_fs(SimDuration::from_secs(5));
        let ctx = OpCtx::test(NodeId(0));
        let fh = fs
            .create(&ctx, &vpath("/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.close(&ctx, fh).unwrap();
        let first = fs.stat(&ctx, &vpath("/f")).unwrap().end;
        let rpcs = fs.counters().get("mds_rpcs");
        let second = fs.stat(&ctx, &vpath("/f")).unwrap().end;
        // Hit: no RPC charged, completion is FUSE dispatch only.
        assert_eq!(fs.counters().get("mds_rpcs"), rpcs);
        assert_eq!(second, ctx.now + fs.config().fuse_dispatch);
        assert!(second < first);
        assert_eq!(fs.cache_stats().hits, 1);
        assert!(fs.cache_stats().misses >= 1);
    }

    #[test]
    fn remote_mutation_recalls_lease_and_charges_rtt() {
        let mut fs = cached_fs(SimDuration::from_secs(5));
        let a = OpCtx::test(NodeId(0));
        let b = OpCtx::test(NodeId(1));
        let fh = fs
            .create(&a, &vpath("/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.close(&a, fh).unwrap();
        // Burn node 1's session so both measured chmods are steady-state.
        fs.stat(&b, &vpath("/f")).unwrap();
        // Node 0 leases /f's attributes.
        fs.stat(&a, &vpath("/f")).unwrap();
        fs.reset_time();
        // Node 1's chmod must recall node 0's lease, paying the RTT on
        // top of its own RPC (its own lease drops locally, for free).
        let set = SetAttr {
            mode: Some(Mode::new(0o600)),
            ..SetAttr::default()
        };
        let with_recall = fs.setattr(&b, &vpath("/f"), set).unwrap().end;
        assert_eq!(shard_recalls(&fs), 1);
        assert!(fs.cache_stats().invalidations >= 2);
        assert_eq!(fs.cache_stats().recall_messages, 1);
        // The same chmod with nobody holding a lease costs exactly one
        // recall round trip less.
        fs.reset_time();
        let set2 = SetAttr {
            mode: Some(Mode::new(0o644)),
            ..SetAttr::default()
        };
        let without_recall = fs.setattr(&b, &vpath("/f"), set2).unwrap().end;
        assert_eq!(with_recall, without_recall + SimDuration::from_micros(250));
        // Node 0's next stat is a miss again.
        let hits = fs.cache_stats().hits;
        fs.stat(&a, &vpath("/f")).unwrap();
        assert_eq!(fs.cache_stats().hits, hits);
    }

    #[test]
    fn readdir_lease_recalled_by_sibling_create() {
        let mut fs = cached_fs(SimDuration::from_secs(5));
        let a = OpCtx::test(NodeId(0));
        let b = OpCtx::test(NodeId(1));
        fs.mkdir(&a, &vpath("/d"), Mode::dir_default()).unwrap();
        fs.readdir(&a, &vpath("/d")).unwrap();
        let rpcs = fs.counters().get("mds_rpcs");
        fs.readdir(&a, &vpath("/d")).unwrap();
        assert_eq!(fs.counters().get("mds_rpcs"), rpcs, "listing was leased");
        // Another node creating in /d recalls the dentry lease…
        let fh = fs
            .create(&b, &vpath("/d/x"), Mode::file_default())
            .unwrap()
            .value;
        fs.close(&b, fh).unwrap();
        // …so the listing (with the new entry) is fetched fresh.
        let rpcs = fs.counters().get("mds_rpcs");
        let list = fs.readdir(&a, &vpath("/d")).unwrap().value;
        assert_eq!(fs.counters().get("mds_rpcs"), rpcs + 1);
        assert_eq!(list.len(), 1);
    }

    #[test]
    fn lease_ttl_expires_in_virtual_time() {
        let mut fs = cached_fs(SimDuration::from_millis(1));
        let ctx = OpCtx::test(NodeId(0));
        let fh = fs
            .create(&ctx, &vpath("/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.close(&ctx, fh).unwrap();
        let t = fs.stat(&ctx, &vpath("/f")).unwrap().end;
        // Within TTL: hit. Past TTL: expired, miss again.
        fs.stat(&ctx.at(t), &vpath("/f")).unwrap();
        let late = ctx.at(t + SimDuration::from_millis(5));
        fs.stat(&late, &vpath("/f")).unwrap();
        let s = fs.cache_stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.expirations, 1);
    }

    #[test]
    fn mutators_own_expired_lease_survives_its_recall() {
        let mut fs = cached_fs(SimDuration::from_millis(1));
        let ctx = OpCtx::test(NodeId(0));
        fs.mkdir(&ctx, &vpath("/d"), Mode::dir_default()).unwrap();
        fs.stat(&ctx, &vpath("/d")).unwrap();
        // Long after its lease on /d lapsed, the node creates in /d,
        // which recalls /d's attributes. The expired lease is inert:
        // the recall neither drops it nor counts it.
        let late = ctx.at(SimTime::from_millis(5));
        let fh = fs
            .create(&late, &vpath("/d/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.close(&late, fh).unwrap();
        assert_eq!(fs.cache_stats().invalidations, 0);
        // Its holder's next lookup drops it, as an expiration.
        fs.stat(&late, &vpath("/d")).unwrap();
        assert_eq!(fs.cache_stats().expirations, 1);
    }

    #[test]
    fn rename_recalls_whole_subtree_leases() {
        let mut fs = cached_fs(SimDuration::from_secs(5));
        let a = OpCtx::test(NodeId(0));
        let b = OpCtx::test(NodeId(1));
        fs.mkdir(&a, &vpath("/src"), Mode::dir_default()).unwrap();
        fs.mkdir(&a, &vpath("/dst"), Mode::dir_default()).unwrap();
        let fh = fs
            .create(&a, &vpath("/src/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.close(&a, fh).unwrap();
        // Node 1 leases a path *inside* the renamed subtree.
        fs.stat(&b, &vpath("/src/f")).unwrap();
        let recalls = shard_recalls(&fs);
        fs.rename(&a, &vpath("/src"), &vpath("/moved")).unwrap();
        assert!(shard_recalls(&fs) > recalls);
        // Node 1 sees the move, at miss cost.
        let rpcs = fs.counters().get("mds_rpcs");
        assert!(fs.stat(&b, &vpath("/src/f")).is_err());
        assert_eq!(fs.stat(&b, &vpath("/moved/f")).unwrap().value.size, 0);
        assert!(fs.counters().get("mds_rpcs") > rpcs);
    }

    fn batched_fs(max_ops: usize, delay: SimDuration, depth: usize) -> CofsFs<MemFs> {
        CofsFs::new(
            MemFs::new(),
            CofsConfig::default().with_batching(max_ops, delay, depth),
            MdsNetwork::uniform(SimDuration::from_micros(250)),
            7,
        )
    }

    #[test]
    fn batched_mutations_ack_at_the_daemon() {
        let mut fs = batched_fs(4, SimDuration::from_millis(5), 4);
        let ctx = OpCtx::test(NodeId(0));
        // Pure-metadata mutations are acknowledged as soon as the
        // daemon buffers them: no round trip on the caller's clock.
        for i in 0..4 {
            let t = fs
                .mkdir(&ctx, &vpath(&format!("/d{i}")), Mode::dir_default())
                .unwrap()
                .end;
            assert_eq!(t, ctx.now + fs.config().fuse_dispatch, "mkdir {i}");
        }
        // Four ops, one wire batch (the fourth filled it).
        assert_eq!(fs.counters().get("mds_rpcs"), 4);
        assert_eq!(fs.counters().get("mds_batches"), 1);
        let st = fs.batch_stats();
        assert_eq!(st.ops_enqueued, 4);
        assert_eq!(st.batches_issued, 1);
        assert_eq!(st.flush_full, 1);
        assert_eq!(st.largest_batch, 4);
        // The unbatched path pays the round trip synchronously, and
        // has no pipeline to drain.
        let mut plain = new_fs();
        let t = plain
            .mkdir(&ctx, &vpath("/d0"), Mode::dir_default())
            .unwrap()
            .end;
        assert!(t > ctx.now + plain.config().fuse_dispatch + SimDuration::from_micros(250));
        assert_eq!(plain.counters().get("mds_batches"), 0);
        assert_eq!(plain.drain_batches(), None);
    }

    #[test]
    fn pipeline_depth_backpressures_the_client() {
        // Depth 1, batch size 1: every mutation issues immediately, and
        // each next one waits for the previous wire completion.
        let mut fs = batched_fs(1, SimDuration::from_millis(5), 1);
        let ctx = OpCtx::test(NodeId(0));
        let first = fs
            .mkdir(&ctx, &vpath("/a"), Mode::dir_default())
            .unwrap()
            .end;
        assert_eq!(first, ctx.now + fs.config().fuse_dispatch);
        let second = fs
            .mkdir(&ctx, &vpath("/b"), Mode::dir_default())
            .unwrap()
            .end;
        assert!(
            second > first + SimDuration::from_micros(250),
            "flow control must surface the oldest batch's round trip: {second:?}"
        );
    }

    #[test]
    fn drain_returns_the_wire_tail_and_empties_the_pipeline() {
        let mut fs = batched_fs(8, SimDuration::from_millis(5), 4);
        let buffered = |fs: &CofsFs<MemFs>| fs.batch_pipeline().unwrap().buffered_ops(NodeId(0));
        let ctx = OpCtx::test(NodeId(0));
        let ack = fs
            .mkdir(&ctx, &vpath("/d"), Mode::dir_default())
            .unwrap()
            .end;
        // One op buffered, nothing on the wire yet.
        assert_eq!(fs.counters().get("mds_batches"), 0);
        assert_eq!(buffered(&fs), 1);
        let tail = fs.drain_batches().expect("one batch outstanding");
        // The drained batch flushed at its window deadline and then
        // paid the round trip.
        assert!(tail > ack + SimDuration::from_millis(5));
        assert_eq!(fs.counters().get("mds_batches"), 1);
        assert_eq!(fs.batch_stats().flush_drain, 1);
        assert_eq!(buffered(&fs), 0);
        // reset_time drains implicitly, so phases never leak work.
        fs.mkdir(&ctx, &vpath("/e"), Mode::dir_default()).unwrap();
        fs.reset_time();
        assert_eq!(buffered(&fs), 0);
        assert_eq!(fs.batch_stats(), crate::batch::BatchStats::default());
    }

    #[test]
    fn negative_stat_probe_charges_rpc_then_hits_lease() {
        let mut fs = cached_fs(SimDuration::from_secs(5));
        let ctx = OpCtx::test(NodeId(0));
        // First probe of a missing name: full round trip, carried on
        // the error.
        let e1 = fs.stat(&ctx, &vpath("/lock")).unwrap_err();
        assert!(e1.is(Errno::ENOENT));
        let first = e1.end().expect("probe is timed");
        assert!(first > ctx.now + fs.config().fuse_dispatch + SimDuration::from_micros(250));
        let rpcs = fs.counters().get("mds_rpcs");
        // Repeat probes answer from the negative lease: no RPC, FUSE
        // dispatch only.
        let e2 = fs.stat(&ctx, &vpath("/lock")).unwrap_err();
        assert_eq!(e2.end(), Some(ctx.now + fs.config().fuse_dispatch));
        assert_eq!(fs.counters().get("mds_rpcs"), rpcs);
        assert_eq!(fs.cache_stats().negative_hits, 1);
    }

    #[test]
    fn create_recalls_negative_lease_of_poller() {
        let mut fs = cached_fs(SimDuration::from_secs(5));
        let poller = OpCtx::test(NodeId(0));
        let writer = OpCtx::test(NodeId(1));
        // The poller caches the absence of /out.
        fs.stat(&poller, &vpath("/out")).unwrap_err();
        fs.stat(&poller, &vpath("/out")).unwrap_err();
        assert_eq!(fs.cache_stats().negative_hits, 1);
        let recalls = shard_recalls(&fs);
        // Another node creating the name must recall that lease.
        let fh = fs
            .create(&writer, &vpath("/out"), Mode::file_default())
            .unwrap()
            .value;
        fs.close(&writer, fh).unwrap();
        assert!(shard_recalls(&fs) > recalls);
        // The poller now sees the file (at miss cost, not stale).
        assert_eq!(fs.stat(&poller, &vpath("/out")).unwrap().value.size, 0);
    }

    #[test]
    fn negative_probe_without_cache_pays_every_time() {
        let mut fs = new_fs();
        let ctx = OpCtx::test(NodeId(0));
        let before = fs.counters().get("mds_rpcs");
        for _ in 0..3 {
            let e = fs.stat(&ctx, &vpath("/missing")).unwrap_err();
            assert!(e.end().expect("probes are timed") > ctx.now);
        }
        assert_eq!(fs.counters().get("mds_rpcs"), before + 3);
        // No cache is built, and its stats read zero.
        assert!(fs.client_cache().is_none());
        assert_eq!(fs.cache_stats(), CacheStats::default());
    }

    #[test]
    fn timing_is_monotonic_and_includes_fuse() {
        let mut fs = new_fs();
        let ctx = OpCtx::test(NodeId(0)).at(SimTime::from_millis(5));
        let t = fs
            .mkdir(&ctx, &vpath("/d"), Mode::dir_default())
            .unwrap()
            .end;
        assert!(t >= ctx.now + fs.config().fuse_dispatch);
    }

    fn fault_fs(plan: crate::fault::FaultPlan, retry: crate::fault::RetryConfig) -> CofsFs<MemFs> {
        CofsFs::new(
            MemFs::new(),
            CofsConfig::default()
                .with_fault_plan(plan)
                .with_retry(retry),
            MdsNetwork::uniform(SimDuration::from_micros(250)),
            7,
        )
    }

    #[test]
    fn empty_fault_plan_is_bit_for_bit_and_summary_is_none() {
        let mut plain = new_fs();
        let mut gated = fault_fs(
            crate::fault::FaultPlan::default(),
            crate::fault::RetryConfig::default(),
        );
        let ctx = OpCtx::test(NodeId(0));
        for fs in [&mut plain, &mut gated] {
            assert!(fs.fault_summary().is_none());
        }
        let a = plain
            .mkdir(&ctx, &vpath("/d"), Mode::dir_default())
            .unwrap()
            .end;
        let b = gated
            .mkdir(&ctx, &vpath("/d"), Mode::dir_default())
            .unwrap()
            .end;
        assert_eq!(a, b);
        let sa = plain.stat(&ctx, &vpath("/d")).unwrap().end;
        let sb = gated.stat(&ctx, &vpath("/d")).unwrap().end;
        assert_eq!(sa, sb);
        assert_eq!(plain.retry_stats(), gated.retry_stats());
        assert_eq!(plain.retry_stats(), crate::fault::RetryStats::default());
    }

    #[test]
    fn crash_window_rides_out_on_retries() {
        let plan = crate::fault::FaultPlan::default().crash(
            crate::mds_cluster::ShardId(0),
            SimTime::from_millis(1),
            SimDuration::from_millis(5),
        );
        let mut fs = fault_fs(plan, crate::fault::RetryConfig::default());
        let ctx = OpCtx::test(NodeId(0));
        fs.mkdir(&ctx, &vpath("/d"), Mode::dir_default()).unwrap();
        // Inside the window: the mkdir retries until the shard recovers
        // instead of wedging or failing.
        let late = ctx.at(SimTime::from_millis(2));
        let done = fs
            .mkdir(&late, &vpath("/d/e"), Mode::dir_default())
            .unwrap()
            .end;
        assert!(
            done >= SimTime::from_millis(6),
            "must wait out the crash window: {done:?}"
        );
        assert!(fs.retry_stats().retries > 0);
        assert_eq!(fs.retry_stats().exhausted, 0);
        let s = fs.fault_summary().expect("plan armed");
        assert_eq!(s.crashes, 1);
        assert!(s.nacks > 0);
        assert_eq!(s.lost_acked_ops, 0);
        assert!(s.gap_ms > 5.0);
    }

    #[test]
    fn retry_exhaustion_surfaces_eio_before_any_mutation() {
        let plan = crate::fault::FaultPlan::default().crash(
            crate::mds_cluster::ShardId(0),
            SimTime::from_millis(1),
            SimDuration::from_millis(100),
        );
        let retry = crate::fault::RetryConfig {
            max_retries: 0,
            ..crate::fault::RetryConfig::default()
        };
        let mut fs = fault_fs(plan, retry);
        let ctx = OpCtx::test(NodeId(0));
        let late = ctx.at(SimTime::from_millis(2));
        let e = fs
            .create(&late, &vpath("/f"), Mode::file_default())
            .unwrap_err();
        assert!(e.is(Errno::EIO));
        let failed = e.end().expect("refusal is timed");
        assert!(failed > late.now);
        assert_eq!(fs.retry_stats().exhausted, 1);
        // The namespace was never touched: once the shard recovers, the
        // name is still absent — a failed create has no partial effect.
        let after = ctx.at(SimTime::from_secs(2));
        assert!(fs.stat(&after, &vpath("/f")).unwrap_err().is(Errno::ENOENT));
    }

    #[test]
    fn refused_truncating_open_leaves_the_file_whole() {
        let plan = crate::fault::FaultPlan::default().crash(
            crate::mds_cluster::ShardId(0),
            SimTime::from_millis(5),
            SimDuration::from_millis(100),
        );
        let retry = crate::fault::RetryConfig {
            max_retries: 0,
            ..crate::fault::RetryConfig::default()
        };
        let mut fs = CofsFs::new(
            MemFs::new(),
            CofsConfig::default()
                .with_client_cache(1024, SimDuration::from_secs(60))
                .with_fault_plan(plan)
                .with_retry(retry),
            MdsNetwork::uniform(SimDuration::from_micros(250)),
            7,
        );
        let ctx = OpCtx::test(NodeId(0));
        let fh = fs
            .create(&ctx, &vpath("/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.write(&ctx, fh, 0, 4096).unwrap();
        fs.close(&ctx, fh).unwrap();
        fs.stat(&ctx, &vpath("/f")).unwrap(); // install the lease
                                              // Inside the crash window the lease answers the lookup, and the
                                              // gate refuses the size update.
        let late = ctx.at(SimTime::from_millis(6));
        let e = fs
            .open(&late, &vpath("/f"), OpenFlags::RDWR.with_truncate())
            .unwrap_err();
        assert!(e.is(Errno::EIO));
        // The refused open had no effect: no underlying handle, and
        // once the shard recovers both the size and the bytes remain.
        assert_eq!(fs.under().open_handles(), 0);
        let after = ctx.at(SimTime::from_secs(2));
        assert_eq!(fs.stat(&after, &vpath("/f")).unwrap().value.size, 4096);
        let fh = fs
            .open(&after, &vpath("/f"), OpenFlags::RDONLY)
            .unwrap()
            .value;
        assert_eq!(fs.read(&after, fh, 0, 4096).unwrap().value, 4096);
    }

    #[test]
    fn refused_close_keeps_the_handle_until_the_size_can_publish() {
        let plan = crate::fault::FaultPlan::default().crash(
            crate::mds_cluster::ShardId(0),
            SimTime::from_millis(5),
            SimDuration::from_millis(100),
        );
        let retry = crate::fault::RetryConfig {
            max_retries: 0,
            ..crate::fault::RetryConfig::default()
        };
        let mut fs = fault_fs(plan, retry);
        let ctx = OpCtx::test(NodeId(0));
        let fh = fs
            .create(&ctx, &vpath("/f"), Mode::file_default())
            .unwrap()
            .value;
        // Inside the crash window the write needs no shard, but the
        // close must publish the size, and the gate refuses it.
        let late = ctx.at(SimTime::from_millis(6));
        fs.write(&late, fh, 0, 4096).unwrap();
        let e = fs.close(&late, fh).unwrap_err();
        assert!(e.is(Errno::EIO));
        // The refused close had no effect: the handle and its
        // underlying file stay open, and the size is still unpublished.
        assert_eq!(fs.under().open_handles(), 1);
        let after = ctx.at(SimTime::from_secs(2));
        assert_eq!(fs.stat(&after, &vpath("/f")).unwrap().value.size, 0);
        // After recovery the same handle closes and publishes.
        fs.close(&after, fh).unwrap();
        assert_eq!(fs.under().open_handles(), 0);
        assert_eq!(fs.stat(&after, &vpath("/f")).unwrap().value.size, 4096);
        let fh = fs
            .open(&after, &vpath("/f"), OpenFlags::RDONLY)
            .unwrap()
            .value;
        assert_eq!(fs.read(&after, fh, 0, 4096).unwrap().value, 4096);
    }

    #[test]
    fn crash_fences_client_leases_so_reads_revalidate() {
        let plan = crate::fault::FaultPlan::default().crash(
            crate::mds_cluster::ShardId(0),
            SimTime::from_millis(5),
            SimDuration::from_millis(2),
        );
        let mut fs = CofsFs::new(
            MemFs::new(),
            CofsConfig::default()
                .with_client_cache(1024, SimDuration::from_secs(60))
                .with_fault_plan(plan),
            MdsNetwork::uniform(SimDuration::from_micros(250)),
            7,
        );
        let ctx = OpCtx::test(NodeId(0));
        let fh = fs
            .create(&ctx, &vpath("/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.close(&ctx, fh).unwrap();
        fs.stat(&ctx, &vpath("/f")).unwrap(); // install the lease
        let misses = fs.cache_stats().misses;
        // Ride an op through the crash window so the fence notices
        // drain into the client cache.
        let late = ctx.at(SimTime::from_millis(6));
        fs.mkdir(&late, &vpath("/d"), Mode::dir_default()).unwrap();
        let s = fs.fault_summary().unwrap();
        assert!(s.fenced_leases >= 1);
        // The fenced attr lease is gone: the next stat revalidates.
        let after = ctx.at(SimTime::from_millis(30));
        fs.stat(&after, &vpath("/f")).unwrap();
        assert_eq!(fs.cache_stats().misses, misses + 1);
        assert!(fs.cache_stats().invalidations >= 1);
    }

    #[test]
    fn lease_expired_before_a_crash_is_neither_fenced_nor_counted() {
        let plan = crate::fault::FaultPlan::default().crash(
            crate::mds_cluster::ShardId(0),
            SimTime::from_millis(5),
            SimDuration::from_millis(2),
        );
        let mut fs = CofsFs::new(
            MemFs::new(),
            CofsConfig::default()
                .with_client_cache(1024, SimDuration::from_millis(1))
                .with_fault_plan(plan),
            MdsNetwork::uniform(SimDuration::from_micros(250)),
            7,
        );
        let ctx = OpCtx::test(NodeId(0));
        let fh = fs
            .create(&ctx, &vpath("/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.close(&ctx, fh).unwrap();
        fs.stat(&ctx, &vpath("/f")).unwrap(); // a lease that lapses at ~1ms
                                              // Ride an op through the crash window so the crash is processed.
        let late = ctx.at(SimTime::from_millis(6));
        fs.mkdir(&late, &vpath("/d"), Mode::dir_default()).unwrap();
        assert_eq!(fs.fault_summary().unwrap().fenced_leases, 0);
        assert_eq!(fs.cache_stats().invalidations, 0);
        // The lapsed lease waited for its holder's next lookup.
        let after = ctx.at(SimTime::from_millis(30));
        fs.stat(&after, &vpath("/f")).unwrap();
        assert_eq!(fs.cache_stats().expirations, 1);
    }

    #[test]
    fn buffered_batch_retries_when_flush_lands_in_the_window() {
        let plan = crate::fault::FaultPlan::default().crash(
            crate::mds_cluster::ShardId(0),
            SimTime::from_millis(1),
            SimDuration::from_millis(8),
        );
        let mut fs = CofsFs::new(
            MemFs::new(),
            CofsConfig::default()
                .with_batching(4, SimDuration::from_millis(5), 4)
                .with_fault_plan(plan),
            MdsNetwork::uniform(SimDuration::from_micros(250)),
            7,
        );
        let ctx = OpCtx::test(NodeId(0));
        // Admitted (and daemon-acked) before the crash; the batch's
        // flush deadline lands inside the window, so the wire attempt
        // is refused and retried until recovery.
        fs.mkdir(&ctx, &vpath("/d"), Mode::dir_default()).unwrap();
        let tail = fs.drain_batches().expect("one batch outstanding");
        assert!(
            tail >= SimTime::from_millis(9),
            "flush at 5ms must ride out the window: {tail:?}"
        );
        assert!(fs.retry_stats().retries >= 1);
        assert_eq!(fs.retry_stats().exhausted, 0);
    }
}
