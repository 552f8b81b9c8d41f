//! The sharded COFS metadata service.
//!
//! The paper frames the virtualization layer as the enabler for
//! "distributing metadata across multiple servers": once clients talk
//! to a metadata *service* instead of the native filesystem, that
//! service can be split into independent shards. [`MdsCluster`] models
//! exactly that: N shards, each with its own CPU queue, its own
//! database cost state, and its own host (and therefore RTT), behind a
//! [`ShardPolicy`] that partitions the namespace.
//!
//! Every request reaches the shards the same way: the client passes the
//! fault gate ([`MdsCluster::admit`]), then the request is priced in
//! one of three [`Shape`]s — synchronous, batch, or two-phase — by
//! [`MdsCluster::request`].
//!
//! Semantics vs. cost: the *logical* namespace (the [`Mds`] tables) is
//! kept unified so that every operation sequence produces bit-for-bit
//! the same user-visible outcome regardless of shard count — the
//! differential suite pins this. What the policy partitions is the
//! *work*: which shard's CPU queues the request, which shard's commit
//! log advances, and which host the client pays a round trip to.
//! Cross-shard operations (a `rename` or `link` whose source and
//! destination live on different shards) pay an explicit two-phase
//! commit: both shards prepare, exchange votes over the inter-shard
//! link, and commit — strictly more expensive than the single-shard
//! path, but still atomic in outcome.

use crate::batch::{coalesce_writes, BatchedOp};
use crate::client_cache::{EntryKind, LeaseKey};
use crate::config::{CofsConfig, DbCostModel, MdsNetwork, WriteBehindConfig};
use crate::elastic::ElasticPolicy;
use crate::fault::{FaultPlan, FaultStats, MessageDrop, Nack, ShardCrash, ShardPartition};
use crate::mds::{DbOps, Mds, RowSet};
use netsim::ids::NodeId;
use simcore::prelude::*;
use std::collections::BTreeSet;
use vfs::path::VPath;

/// Identifies one shard within an [`MdsCluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardId(pub usize);

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

/// Partitions the virtual namespace across metadata shards.
///
/// Routing is a pure function of the path *given the policy's current
/// routing state*: the same path always routes to the same shard until
/// the policy itself is reconfigured, and the static policies never
/// reconfigure at all. [`ShardPolicy::Elastic`] reconfigures only at
/// deterministic virtual-time window boundaries (via
/// [`MdsCluster::observe_elastic`]), so experiment runs stay exactly
/// reproducible and a dentry has a single home at any instant.
///
/// # Examples
///
/// ```
/// use cofs::mds_cluster::{ShardId, ShardPolicy};
/// use vfs::path::vpath;
///
/// // One hashed shard is the paper's centralized service.
/// let p = ShardPolicy::hash(1);
/// assert_eq!(p.shard_count(), 1);
/// assert_eq!(p.shard_of(&vpath("/any/where")), ShardId(0));
/// assert_eq!(p.label(), "single");
/// ```
#[derive(Debug, Clone)]
pub enum ShardPolicy {
    /// Hashes the *parent directory* of each path to a shard, so all
    /// entries of one directory live together and directory-local
    /// operations never cross shards. At one shard this is the paper's
    /// centralized service.
    ///
    /// ```
    /// use cofs::mds_cluster::ShardPolicy;
    /// use vfs::path::vpath;
    ///
    /// let p = ShardPolicy::hash(4);
    /// // Siblings share a shard…
    /// assert_eq!(p.shard_of(&vpath("/d/a")), p.shard_of(&vpath("/d/b")));
    /// ```
    Hash {
        /// Shards routed across (at least one).
        shards: usize,
    },
    /// Subtree (prefix) partitioning: the first path component assigns
    /// the *entire* subtree below it to one shard; root-level metadata
    /// lives on shard 0. Deep operations then never cross shards, at the
    /// price of whole-subtree hotspots.
    ///
    /// ```
    /// use cofs::mds_cluster::ShardPolicy;
    /// use vfs::path::vpath;
    ///
    /// let p = ShardPolicy::subtree(4);
    /// // Everything under one top-level directory shares a shard.
    /// assert_eq!(p.shard_of(&vpath("/proj/a/b")), p.shard_of(&vpath("/proj/z")));
    /// ```
    Subtree {
        /// Shards routed across (at least one).
        shards: usize,
    },
    /// Load-adaptive splitting and merging of hot directories (see
    /// [`crate::elastic`]).
    Elastic(ElasticPolicy),
}

impl ShardPolicy {
    /// Hash-by-parent routing across `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn hash(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardPolicy::Hash { shards }
    }

    /// Subtree routing across `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn subtree(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardPolicy::Subtree { shards }
    }

    /// Number of shards this policy routes across.
    pub fn shard_count(&self) -> usize {
        match self {
            ShardPolicy::Hash { shards } | ShardPolicy::Subtree { shards } => *shards,
            ShardPolicy::Elastic(p) => p.shard_count(),
        }
    }

    /// The shard owning the metadata for `path` (its directory entry
    /// and inode record).
    pub fn shard_of(&self, path: &VPath) -> ShardId {
        match self {
            ShardPolicy::Hash { shards } => hash_shard(path.parent_str().unwrap_or("/"), *shards),
            ShardPolicy::Subtree { shards } => match path.components().next() {
                None => ShardId(0),
                Some(first) => ShardId((stable_hash(first.as_bytes()) % *shards as u64) as usize),
            },
            ShardPolicy::Elastic(p) => p.shard_of(path),
        }
    }

    /// The shard charged for scanning the *entry list* of directory
    /// `dir`, so `readdir` lands where the children live. Consistent
    /// with [`Self::shard_of`] (`shard_of(p) == shard_of_entries(parent(p))`)
    /// except where the partitioning forbids it: subtree routing splits
    /// the root's entries, and a split elastic directory spreads its
    /// children while its entry count stays home.
    pub fn shard_of_entries(&self, dir: &VPath) -> ShardId {
        match self {
            ShardPolicy::Hash { shards } => hash_shard(dir.as_str(), *shards),
            // A subtree is wholly owned, entry lists included; the
            // root's entries stay on shard 0 with the root itself.
            ShardPolicy::Subtree { .. } => self.shard_of(dir),
            ShardPolicy::Elastic(p) => p.shard_of_entries(dir),
        }
    }

    /// A short label for reports and ablation tables.
    pub fn label(&self) -> &'static str {
        match self {
            ShardPolicy::Hash { shards: 1 } => "single",
            ShardPolicy::Hash { .. } => "hash-parent",
            ShardPolicy::Subtree { .. } => "subtree",
            ShardPolicy::Elastic(_) => "elastic",
        }
    }

    /// The load-adaptive policy's state, if that is what this is.
    pub fn as_elastic(&self) -> Option<&ElasticPolicy> {
        match self {
            ShardPolicy::Elastic(p) => Some(p),
            _ => None,
        }
    }
}

/// The hash-by-parent placement of directory `dir`'s entries — also the
/// home shard of an unsplit elastic directory. `dir` is the directory's
/// normalized path text, so routing a name needs only its borrowed
/// [`VPath::parent_str`].
pub(crate) fn hash_shard(dir: &str, shards: usize) -> ShardId {
    ShardId((stable_hash(dir.as_bytes()) % shards as u64) as usize)
}

/// Per-shard load observed since the last reset (for scenario reports
/// and skew diagnostics).
#[derive(Debug, Clone, Default)]
pub struct ShardUsage {
    /// Which shard.
    pub shard: usize,
    /// Logical metadata operations served (a cross-shard op counts on
    /// both participants).
    pub rpcs: u64,
    /// Cumulative CPU service time delivered.
    pub busy: SimDuration,
    /// Mean queueing delay per CPU acquisition.
    pub mean_wait: SimDuration,
    /// Cross-shard two-phase operations this shard participated in.
    pub two_phase: u64,
    /// Client-cache lease recall messages this shard sent (coherence
    /// traffic of the client-side metadata cache; zero with the cache
    /// off).
    pub recalls: u64,
    /// Batch requests served ([`Shape::Batch`]; each covers one or
    /// more of the `rpcs` logical operations and group-commits their
    /// writes). Zero with batching off.
    pub batches: u64,
    /// Row reads actually charged against the shard's database, counted
    /// where they are priced: requests, recovery replay and migration
    /// scans.
    pub reads_charged: u64,
    /// Row reads absorbed by per-batch memoization; zero with
    /// batching off.
    pub reads_memoized: u64,
    /// Read RPCs that jumped the priority lane past queued batch lumps
    /// ([`simcore::resource::TwoLaneResource::priority_bypasses`]);
    /// zero with `read_priority` off.
    pub read_bypasses: u64,
    /// Journal appends performed: one per acked write-behind mutation
    /// batch and one per elastic migration transfer received. Zero with
    /// write-behind off and a static policy.
    pub journal_appends: u64,
    /// Row applications absorbed by same-parent sibling coalescing
    /// ([`crate::batch::coalesce_writes`]); zero with write-behind off.
    pub rows_coalesced: u64,
    /// Largest observed ack-to-apply lag — the worst-case
    /// crash-consistency window this shard exposed. Zero with
    /// write-behind off (apply is the ack).
    pub apply_lag: SimDuration,
    /// Elastic directory splits homed on this shard
    /// ([`MdsCluster::observe_elastic`]); zero under static policies.
    pub splits: u64,
    /// Elastic merges (affinity-restoring migrations) homed on this
    /// shard; zero under static policies.
    pub merges: u64,
    /// Elastic migration transfers this shard participated in (as
    /// source or destination); zero under static policies.
    pub migrations: u64,
}

/// One acked-but-unapplied batch in a shard's write-behind journal:
/// the durability-window bookkeeping a write-behind [`Shape::Batch`]
/// request keeps per shard. Ordered by ack time by construction (acks come off one
/// CPU queue).
#[derive(Debug, Clone)]
struct UnappliedEntry {
    /// When the batch was acked (journal append completed).
    acked: SimTime,
    /// When its coalesced row application finishes on the shard CPU.
    apply_done: SimTime,
    /// Operations the batch carried (what the op-count limit bounds).
    ops: u64,
    /// Coalesced rows awaiting application — the journal-replay work a
    /// crash in the ack-to-apply window would have to redo.
    rows: u64,
}

/// One journal append shipped (asynchronously) to the shard's hot
/// standby. `ship_done` is when the standby has durably appended it —
/// a pure function of the ack time, the inter-shard link, and the
/// standby's append cost, never of client traffic, so promotion can
/// classify any batch as shipped-or-in-flight at an arbitrary crash
/// instant. Kept separately from [`UnappliedEntry`] because the
/// durability clamp prunes entries once *the primary* applies them,
/// while a late ship can outlive that: a row applied on the primary
/// but still in flight to the standby must be replayed at promotion.
#[derive(Debug, Clone)]
struct ShipEntry {
    /// When the primary acked the batch (journal append completed).
    acked: SimTime,
    /// When the standby has the append durably.
    ship_done: SimTime,
    /// Operations the batch carried.
    ops: u64,
    /// Coalesced rows the batch will apply.
    rows: u64,
}

/// Post-recovery admission state, created when a shard resumes (or is
/// promoted) with an [`crate::config::AdmissionConfig`] configured. Gates
/// *session re-establishment* only: nodes already re-admitted (or never
/// evicted) pass untouched, so steady-state traffic sees no gate.
#[derive(Debug)]
struct ShardAdmission {
    bucket: TokenBucket,
    /// Nodes granted re-admission (their session insert may lag the
    /// grant by one round trip; this set keeps the grant from being
    /// charged twice).
    admitted: BTreeSet<NodeId>,
}

/// One completed crash window on a shard: the shard refuses requests
/// arriving in `[crashed_at, resume_at)`; `resume_at` includes the
/// priced recovery work (journal scan + replay).
#[derive(Debug, Clone, Copy)]
struct FaultWindow {
    crashed_at: SimTime,
    resume_at: SimTime,
}

/// Armed fault script: events fire in `(at, shard)` order as virtual
/// time passes them (processing piggybacks on the fault gate,
/// [`MdsCluster::admit`]).
#[derive(Debug)]
struct FaultState {
    crashes: Vec<ShardCrash>,
    next_crash: usize,
    /// Each scripted drop event paired with how many requests it has
    /// swallowed so far.
    drops: Vec<(MessageDrop, u32)>,
    /// Scripted partitions. Static windows: whether a request at `t` is
    /// refused is a pure predicate, so no cursor or event processing.
    partitions: Vec<ShardPartition>,
}

#[derive(Debug)]
struct Shard {
    cpu: TwoLaneResource,
    /// Transactions committed: the cadence the periodic fsync lands on
    /// ([`Self::commit`]).
    commits: u64,
    /// The shard's load counters. The figures the CPU owns (`busy`,
    /// `mean_wait`, `read_bypasses`) stay zero here;
    /// [`MdsCluster::usage`] fills them in.
    usage: ShardUsage,
    unapplied: Vec<UnappliedEntry>,
    /// One window per crash, in fire order; the fencing epoch
    /// ([`MdsCluster::epoch`]) counts them.
    windows: Vec<FaultWindow>,
    /// Journal appends shipped to the hot standby and not yet settled
    /// by a crash (standby mode only; empty otherwise).
    ship_tail: Vec<ShipEntry>,
    /// Post-recovery admission gate; `None` until a crash resumes with
    /// admission control configured.
    admission: Option<ShardAdmission>,
}

impl Shard {
    fn new(idx: usize) -> Self {
        Shard {
            cpu: TwoLaneResource::new(format!("cofs-mds-{idx}")),
            commits: 0,
            usage: ShardUsage {
                shard: idx,
                ..ShardUsage::default()
            },
            unapplied: Vec::new(),
            windows: Vec::new(),
            ship_tail: Vec::new(),
            admission: None,
        }
    }

    /// Holds a batch arriving at `t` back until admitting `incoming_ops`
    /// more acked-but-unapplied operations would respect the durability
    /// window — the write-behind analogue of `pipeline_depth` slot
    /// backpressure. Entries whose application finished by the (possibly
    /// delayed) arrival are pruned; while the op budget or the oldest
    /// entry's age is still exceeded, arrival waits for the earliest
    /// outstanding apply to finish.
    fn durability_clamp(
        &mut self,
        wb: &WriteBehindConfig,
        t: SimTime,
        incoming_ops: u64,
    ) -> SimTime {
        let mut t = t;
        loop {
            self.unapplied.retain(|e| e.apply_done > t);
            let outstanding: u64 = self.unapplied.iter().map(|e| e.ops).sum();
            let over_ops = outstanding + incoming_ops > wb.max_unapplied_ops;
            let over_age = self
                .unapplied
                .first()
                .is_some_and(|e| e.acked + wb.max_unapplied_window < t);
            if !over_ops && !over_age {
                break;
            }
            let Some(earliest) = self.unapplied.iter().map(|e| e.apply_done).min() else {
                // A single batch larger than the op budget: nothing
                // outstanding to wait for, admit it (the window bounds
                // *accumulation*, not one batch's size).
                break;
            };
            t = t.max(earliest);
        }
        debug_assert!(
            self.unapplied.is_empty()
                || (self.unapplied.iter().map(|e| e.ops).sum::<u64>() + incoming_ops
                    <= wb.max_unapplied_ops
                    && self
                        .unapplied
                        .iter()
                        .all(|e| e.acked + wb.max_unapplied_window >= t)),
            "acked-but-unapplied work exceeds the durability window"
        );
        t
    }

    /// Service demand of reading `rows` rows, `memoized` of which an
    /// earlier op of the same request already resolved. A read of no
    /// rows still costs one lookup; each memoized row saves exactly one
    /// lookup, and `memoized` is clamped to `rows`, so the demand never
    /// goes negative and `memoized == 0` is the plain read. Counts the
    /// charged and memoized rows.
    fn read_rows(&mut self, db: &DbCostModel, rows: u64, memoized: u64) -> SimDuration {
        let memoized = memoized.min(rows);
        self.usage.reads_charged += rows - memoized;
        self.usage.reads_memoized += memoized;
        db.lookup * rows.max(1) - db.lookup * memoized
    }

    /// Service demand of one transaction writing `writes` rows: a whole
    /// request's write set commits once (a group commit), and every
    /// `sync_every`-th commit also pays the periodic fsync.
    fn commit(&mut self, db: &DbCostModel, writes: u64) -> SimDuration {
        self.commits += 1;
        let mut d = db.commit + db.write * writes.max(1);
        if db.sync_every > 0 && self.commits.is_multiple_of(db.sync_every) {
            d += db.sync_cost;
        }
        d
    }

    /// Service demand of one sequential journal append carrying
    /// `records` mutation records: the fixed append base plus one
    /// serialization step per record. An append is not a commit, so the
    /// fsync cadence stays put.
    ///
    /// # Panics
    ///
    /// Panics if `records` is zero — there is nothing to journal.
    fn journal_append(&mut self, db: &DbCostModel, records: u64) -> SimDuration {
        assert!(records > 0, "journal append of zero records");
        self.usage.journal_appends += 1;
        db.journal_append + db.journal_record * records
    }

    /// Serves `ops` as one request arriving at `arrive` and returns when
    /// the shard replies. The per-request CPU overhead is paid once,
    /// each operation's row reads are charged individually, and every
    /// operation's writes fold into one group commit
    /// ([`Self::commit`]) instead of one transaction per op. A one-op
    /// request is therefore exactly one transaction.
    ///
    /// Reads are priced by the request's *deduplicated* read set: each
    /// distinct row key in the ops' [`BatchedOp::read_set`]s is charged
    /// once ([`Self::read_rows`]) — a batch of creates into one
    /// directory resolves the shared parent chain once instead of k
    /// times. Keyless reads (op-private probes) are always charged, and
    /// a one-op read set memoizes nothing (its keys are distinct by
    /// construction). Only batched ops carry read sets, so a
    /// synchronous request charges every row.
    ///
    /// The shape decides the rest. Only a [`Shape::Batch`] counts in
    /// `batches` and can take the write-behind ack
    /// ([`Self::write_behind`]). A [`Shape::Sync`] pure read (`writes ==
    /// 0`) with [`CofsConfig::read_priority`] on takes the CPU's
    /// priority lane: it bypasses queued — but never in-service — work,
    /// so a `stat` no longer waits out batch lumps ahead of it.
    fn serve(
        &mut self,
        cfg: &CofsConfig,
        shape: Shape,
        ops: &[BatchedOp],
        arrive: SimTime,
        ship_to_standby: bool,
    ) -> SimTime {
        self.usage.rpcs += ops.len() as u64;
        let total_writes: u64 = ops.iter().map(|o| o.db.writes).sum();
        let mut seen = RowSet::empty();
        let mut service = cfg.mds_service;
        for o in ops {
            let memoized = seen.merge(&o.read_set);
            service += self.read_rows(&cfg.db, o.db.reads, memoized);
        }
        if let Shape::Batch(_) = shape {
            self.usage.batches += 1;
            if let Some(wb) = cfg.write_behind.as_ref().filter(|_| total_writes > 0) {
                let arrive = self.durability_clamp(wb, arrive, ops.len() as u64);
                return self.write_behind(cfg, ops, arrive, service, total_writes, ship_to_standby);
            }
        }
        if total_writes > 0 {
            service += self.commit(&cfg.db, total_writes);
        }
        if matches!(shape, Shape::Sync(_)) && cfg.read_priority && total_writes == 0 {
            self.cpu.acquire_priority(arrive, service).end
        } else {
            self.cpu.acquire(arrive, service).end
        }
    }

    /// The write-behind ack path of a mutation batch whose reads cost
    /// `service`, arriving at `arrive` once the durability window
    /// ([`Self::durability_clamp`]) admits it: the batch is *acked at
    /// journal append* — its ack-path
    /// service swaps the group commit for one sequential journal append
    /// ([`Self::journal_append`]) — and its rows apply
    /// right after the ack as deferred shard-CPU work: one group commit
    /// over the batch's *coalesced* write set
    /// ([`crate::batch::coalesce_writes`]: same-parent sibling rows fold
    /// into one application per batch). Deferred applies still consume
    /// shard CPU (later batches queue behind them), but no batch waits
    /// for its own rows. Read-your-writes stays exact for free: outcomes
    /// always come from the unified namespace, so a read hitting a
    /// not-yet-applied row is served from the journal at unchanged cost.
    fn write_behind(
        &mut self,
        cfg: &CofsConfig,
        ops: &[BatchedOp],
        arrive: SimTime,
        service: SimDuration,
        total_writes: u64,
        ship_to_standby: bool,
    ) -> SimTime {
        let service = service + self.journal_append(&cfg.db, total_writes);
        let acked = self.cpu.acquire(arrive, service).end;
        let cw = coalesce_writes(ops);
        self.usage.rows_coalesced += cw.rows_coalesced;
        let rows = cw.rows_applied;
        let apply_done = if rows == 0 {
            acked
        } else {
            let apply_service = self.commit(&cfg.db, rows);
            self.cpu.acquire(acked, apply_service).end
        };
        self.usage.apply_lag = self.usage.apply_lag.max(apply_done - acked);
        self.unapplied.push(UnappliedEntry {
            acked,
            apply_done,
            ops: ops.len() as u64,
            rows,
        });
        if ship_to_standby {
            // The append crosses the inter-shard link and is re-appended
            // on the standby — entirely off the ack path, so the
            // client-visible ack above is untouched. What the entry buys
            // is the replication-lag bound: a crash before `ship_done`
            // must replay this batch onto the promoted standby.
            let ship_done =
                acked + cfg.cross_shard_rtt / 2 + cfg.db.standby_append_cost(total_writes);
            self.ship_tail.push(ShipEntry {
                acked,
                ship_done,
                ops: ops.len() as u64,
                rows,
            });
        }
        acked
    }

    /// Phase 1 of two-phase request `shape` on this participant: the
    /// prepare is served as a one-op request carrying this shard's half
    /// of the row work.
    fn prepare(&mut self, cfg: &CofsConfig, shape: Shape, db: DbOps, arrive: SimTime) -> SimTime {
        self.usage.two_phase += 1;
        self.serve(cfg, shape, &[BatchedOp::opaque(db)], arrive, false)
    }
}

/// The shape of one metadata request on the wire, which decides how
/// [`MdsCluster::request`] prices it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One synchronous operation on one shard.
    Sync(ShardId),
    /// A client daemon's batch of same-shard operations in one round
    /// trip (group commit; write-behind when the config journals).
    Batch(ShardId),
    /// One cross-shard operation committed with two-phase agreement;
    /// the first shard coordinates.
    TwoPhase(ShardId, ShardId),
}

/// N independent metadata shards behind a routing policy.
///
/// Every request takes the same two calls. [`Self::admit`] is the fault
/// gate: the client learns whether the shard would take a request now.
/// [`Self::request`] prices the request in one of three [`Shape`]s. A
/// synchronous mutation passes the gate *before* it changes the
/// namespace and is priced after, so a refused op never leaves a trace.
///
/// # Examples
///
/// ```
/// use cofs::batch::BatchedOp;
/// use cofs::config::{CofsConfig, MdsNetwork};
/// use cofs::mds::DbOps;
/// use cofs::mds_cluster::{MdsCluster, Shape, ShardPolicy};
/// use netsim::ids::NodeId;
/// use simcore::time::{SimDuration, SimTime};
/// use vfs::path::vpath;
///
/// let mut cluster = MdsCluster::new(ShardPolicy::hash(4));
/// let cfg = CofsConfig::default();
/// let net = MdsNetwork::uniform(SimDuration::from_micros(250));
/// let shard = cluster.route(&vpath("/d/f"));
/// cluster.admit(&cfg, &net, NodeId(0), shard, SimTime::ZERO)?;
/// let done = cluster.request(
///     &cfg,
///     &net,
///     NodeId(0),
///     Shape::Sync(shard),
///     &[BatchedOp::opaque(DbOps { reads: 3, writes: 2 })],
///     SimTime::ZERO,
/// );
/// assert!(done > SimTime::ZERO);
/// # Ok::<(), cofs::fault::Nack>(())
/// ```
#[derive(Debug)]
pub struct MdsCluster {
    namespace: Mds,
    shards: Vec<Shard>,
    policy: ShardPolicy,
    /// Open client sessions: one row per shard, indexed by node, grown
    /// on first contact. A crash takes its shard's row.
    sessions: Vec<Vec<bool>>,
    /// Armed fault script, if any. `None` (the empty-plan case) makes
    /// the fault gate a no-op, keeping the calibrated path.
    faults: Option<FaultState>,
    /// `(shard, instant)` of each crash processed and not yet drained
    /// by the client side ([`Self::take_crashes`]), which fences the
    /// leases the shard granted.
    crashes: Vec<(ShardId, SimTime)>,
    /// Fault and recovery accounting since the last
    /// [`Self::reset_time`], counted where each event happens.
    fault_stats: FaultStats,
}

impl MdsCluster {
    /// Creates a cluster with `policy.shard_count()` empty shards over
    /// a fresh (root-only) namespace.
    pub fn new(policy: ShardPolicy) -> Self {
        let shards = (0..policy.shard_count()).map(Shard::new).collect();
        MdsCluster {
            namespace: Mds::new(),
            shards,
            sessions: vec![Vec::new(); policy.shard_count()],
            policy,
            faults: None,
            crashes: Vec::new(),
            fault_stats: FaultStats::default(),
        }
    }

    /// The unified logical namespace (the shared truth all shards
    /// serve; see the module docs for the semantics/cost split).
    pub fn namespace(&self) -> &Mds {
        &self.namespace
    }

    /// Mutable access to the logical namespace — callers perform the
    /// operation here, then charge its [`DbOps`] via [`Self::request`].
    pub fn namespace_mut(&mut self) -> &mut Mds {
        &mut self.namespace
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The routing policy in use.
    pub fn policy(&self) -> &ShardPolicy {
        &self.policy
    }

    /// The shard owning `path` under the cluster's policy.
    pub fn route(&self, path: &VPath) -> ShardId {
        self.policy.shard_of(path)
    }

    /// The shard charged for listing directory `dir`.
    pub fn route_entries(&self, dir: &VPath) -> ShardId {
        self.policy.shard_of_entries(dir)
    }

    /// Prices one metadata request from `node` issued at `t` and returns
    /// when the response reaches the client. Every shape shares one
    /// prologue: session establishment on first contact with each shard
    /// involved, and the trip to the (coordinating) shard.
    /// [`Shape::Sync`] and [`Shape::Batch`] are then served by one
    /// service loop, so a one-op batch and a
    /// synchronous mutation cost the same: the per-request overhead
    /// once, each op's row reads (deduplicated across a batch), and
    /// every op's writes folded into one group commit — or, for a
    /// write-behind batch, one journal append on the ack path.
    ///
    /// A [`Shape::TwoPhase`] request spans shards `(a, b)` with `a` as
    /// coordinator: both shards prepare their half of the row work in
    /// parallel, `b`'s vote crosses the inter-shard link, then both
    /// commit and the coordinator replies. Atomicity of the *outcome*
    /// is inherited from the unified namespace; what this models is the
    /// price of distributed agreement.
    ///
    /// The request does not consult the fault script: gate it with
    /// [`Self::admit`] first.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty, if a sync or two-phase request carries
    /// more than one op, or if a two-phase request names one shard
    /// twice.
    pub fn request(
        &mut self,
        cfg: &CofsConfig,
        net: &MdsNetwork,
        node: NodeId,
        shape: Shape,
        ops: &[BatchedOp],
        t: SimTime,
    ) -> SimTime {
        assert!(!ops.is_empty(), "a request carries at least one op");
        let (a, b) = match shape {
            Shape::Batch(s) => (s, None),
            Shape::Sync(s) => {
                assert_eq!(ops.len(), 1, "a sync request carries one op");
                (s, None)
            }
            Shape::TwoPhase(a, b) => {
                assert_eq!(ops.len(), 1, "a two-phase request carries one op");
                assert_ne!(a, b, "a two-phase request needs two distinct shards");
                (a, Some(b))
            }
        };
        let mut t = t;
        for s in std::iter::once(a).chain(b) {
            if self.open_session(node, s) {
                t += cfg.session_cost;
            }
        }
        let rtt = net.shard_rtt(node, a);
        let arrive = t + rtt / 2;
        let done = match b {
            Some(b) => self.two_phase(cfg, shape, (a, b), ops[0].db, arrive),
            None => {
                // Ship bookkeeping only matters when a crash could
                // consult it; gating on an armed plan keeps fault-free
                // runs allocation-flat.
                let ship = cfg.standby.is_some() && self.faults.is_some();
                self.shards[a.0].serve(cfg, shape, ops, arrive, ship)
            }
        };
        done + rtt / 2
    }

    /// True when `node` holds a session with `shard`.
    fn has_session(&self, node: NodeId, shard: ShardId) -> bool {
        self.sessions[shard.0]
            .get(node.index())
            .copied()
            .unwrap_or(false)
    }

    /// Opens `node`'s session with `shard`; true if it was not open.
    fn open_session(&mut self, node: NodeId, shard: ShardId) -> bool {
        let row = &mut self.sessions[shard.0];
        if row.len() <= node.index() {
            row.resize(node.index() + 1, false);
        }
        !std::mem::replace(&mut row[node.index()], true)
    }

    /// The shard side of a two-phase request arriving at the
    /// coordinator `a` at `arrive`; returns when the coordinator has
    /// committed and heard `b`'s ack.
    fn two_phase(
        &mut self,
        cfg: &CofsConfig,
        shape: Shape,
        (a, b): (ShardId, ShardId),
        ops: DbOps,
        arrive: SimTime,
    ) -> SimTime {
        let cross = cfg.cross_shard_rtt;
        // Split the row work between the participants; the coordinator
        // keeps the larger half.
        let b_ops = DbOps {
            reads: ops.reads / 2,
            writes: ops.writes / 2,
        };
        let a_ops = DbOps {
            reads: ops.reads - b_ops.reads,
            writes: ops.writes - b_ops.writes,
        };
        // Phase 1: prepare on both shards.
        let prep_a = self.shards[a.0].prepare(cfg, shape, a_ops, arrive);
        let prep_b = self.shards[b.0].prepare(cfg, shape, b_ops, arrive + cross / 2);
        // b's vote travels back to the coordinator.
        let voted = prep_a.max(prep_b + cross / 2);
        // Phase 2: both shards process the commit decision.
        let commit_service = cfg.mds_service + cfg.db.commit;
        let commit_a = self.shards[a.0].cpu.acquire(voted, commit_service).end;
        let commit_b = self.shards[b.0]
            .cpu
            .acquire(voted + cross / 2, commit_service)
            .end;
        commit_a.max(commit_b + cross / 2)
    }

    // ---- fault injection ---------------------------------------------

    /// Arms a fault script. An empty plan disarms the subsystem
    /// entirely — the fault gate ([`Self::admit`]) then always admits,
    /// bit-for-bit the calibrated path. Events are processed in
    /// `(at, shard)` order as virtual time passes them.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        if plan.is_empty() {
            self.faults = None;
            return;
        }
        let mut crashes = plan.crashes;
        crashes.sort_by_key(|c| (c.at, c.shard));
        let mut drops = plan.drops;
        drops.sort_by_key(|d| (d.at, d.shard));
        let mut partitions = plan.partitions;
        partitions.sort_by_key(|p| (p.at, p.shard));
        self.faults = Some(FaultState {
            crashes,
            next_crash: 0,
            drops: drops.into_iter().map(|d| (d, 0)).collect(),
            partitions,
        });
    }

    /// True when a non-empty fault plan is armed — lets every caller
    /// bail in one branch on the pinned fault-free path.
    pub fn fault_active(&self) -> bool {
        self.faults.is_some()
    }

    /// Current fencing epoch of `shard`: 1, plus one per crash since
    /// the last [`Self::reset_time`].
    pub fn epoch(&self, shard: ShardId) -> u64 {
        1 + self.shards[shard.0].windows.len() as u64
    }

    /// True when `shard` is inside a crash window at `t`: it refuses
    /// requests from the crash until recovery (including priced journal
    /// replay) completes.
    pub fn is_down(&self, shard: ShardId, t: SimTime) -> bool {
        self.shards[shard.0]
            .windows
            .iter()
            .any(|w| w.crashed_at <= t && t < w.resume_at)
    }

    /// True when `shard` is cut off by a scripted network partition at
    /// `t`. Unlike a crash this never bumps the epoch, evicts sessions,
    /// or fences leases — the process is alive, just unreachable, so a
    /// still-live lease keeps answering on its holder and state survives
    /// the heal untouched.
    pub fn is_isolated(&self, shard: ShardId, t: SimTime) -> bool {
        self.faults.as_ref().is_some_and(|f| {
            f.partitions
                .iter()
                .any(|p| p.shard == shard && p.at <= t && t < p.at + p.heal_after)
        })
    }

    /// Scheduled resume instant of the crash window covering `t` on
    /// `shard`, if any — what a supervisor quotes as retry-after while
    /// the shard is down.
    fn resume_of(&self, shard: ShardId, t: SimTime) -> Option<SimTime> {
        self.shards[shard.0]
            .windows
            .iter()
            .find(|w| w.crashed_at <= t && t < w.resume_at)
            .map(|w| w.resume_at)
    }

    /// Shard-side acceptance decision for a request from `node` landing
    /// at `arrive` (refusals become known to the client at `reply_at`).
    /// Order matters: a crashed shard refuses before its partition state
    /// is even reachable, and admission gates only requests that made it
    /// to a live, connected shard. With admission control configured a
    /// down-shard refusal quotes the scheduled resume as retry-after
    /// (the supervisor knows the restart schedule); a partition refusal
    /// never quotes one — no supervisor answers across a severed link.
    fn accept(
        &mut self,
        cfg: &CofsConfig,
        node: NodeId,
        shard: ShardId,
        arrive: SimTime,
        reply_at: SimTime,
    ) -> Result<(), Nack> {
        if self.is_down(shard, arrive) {
            let retry_after = match cfg.admission {
                Some(_) => self.resume_of(shard, arrive),
                None => None,
            };
            self.fault_stats.nacks += 1;
            return Err(Nack {
                shard,
                at: reply_at,
                retry_after,
            });
        }
        if self.is_isolated(shard, arrive) {
            self.fault_stats.nacks += 1;
            self.fault_stats.partition_nacks += 1;
            return Err(Nack {
                shard,
                at: reply_at,
                retry_after: None,
            });
        }
        if !self.has_session(node, shard) {
            if let Some(adm) = self.shards[shard.0].admission.as_mut() {
                if !adm.admitted.contains(&node) {
                    match adm.bucket.admit(arrive) {
                        Admit::Granted => {
                            adm.admitted.insert(node);
                        }
                        Admit::RetryAt(after) => {
                            self.fault_stats.nacks += 1;
                            self.fault_stats.admission_defers += 1;
                            return Err(Nack {
                                shard,
                                at: reply_at,
                                retry_after: Some(after),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Processes every scripted crash due by `now`. Piggybacks on the
    /// fault gate, so fault processing needs no external timer and
    /// stays deterministic.
    fn advance_faults(&mut self, cfg: &CofsConfig, now: SimTime) {
        loop {
            let crash = match self.faults.as_mut() {
                Some(f) if f.next_crash < f.crashes.len() && f.crashes[f.next_crash].at <= now => {
                    let c = f.crashes[f.next_crash];
                    f.next_crash += 1;
                    c
                }
                _ => return,
            };
            self.apply_crash(cfg, crash);
        }
    }

    /// Executes one scripted crash: fence the epoch, evict sessions,
    /// queue the crash for lease fencing ([`Self::take_crashes`]), and
    /// price recovery (boot +
    /// journal scan + replay of acked-but-unapplied rows) before the
    /// shard serves traffic again. Survivors re-pay `session_cost` on
    /// next contact, so session re-establishment is charged where it
    /// happens.
    ///
    /// With a [`crate::config::StandbyConfig`] configured the crash is
    /// absorbed by *promoting* the hot standby instead: same fencing
    /// (epoch bump, evictions, lease fences — the old primary's grants
    /// are worthless either way), but service resumes after the fixed
    /// promotion cost plus replay of only the replication-lag suffix —
    /// the journal appends still in flight to the standby at the crash
    /// instant, re-read from the dead primary's durable journal. Fully
    /// shipped batches were already applied by the warm standby, so the
    /// scripted `restart_after` never enters the gap.
    ///
    /// Crash-loop flap clamping: a crash scripted inside the shard's
    /// previous recovery window fires the instant that window ends, so
    /// windows never overlap and downtime sums remain exact.
    fn apply_crash(&mut self, cfg: &CofsConfig, crash: ShardCrash) {
        let shard = crash.shard;
        assert!(
            shard.0 < self.shards.len(),
            "fault plan names unknown {shard}"
        );
        // Windows are pushed in fire order and resume times are monotone
        // under this clamp, so checking the last window suffices.
        let at = self.shards[shard.0]
            .windows
            .last()
            .map_or(crash.at, |w| crash.at.max(w.resume_at));
        self.fault_stats.crashes += 1;
        let evicted = std::mem::take(&mut self.sessions[shard.0]);
        self.fault_stats.fenced_sessions += evicted.iter().filter(|&&open| open).count() as u64;
        // Every lease this shard granted is now worthless: the client
        // side fences them once it drains this entry.
        self.crashes.push((shard, at));
        let promotion = cfg.standby.as_ref().map(|sb| sb.promotion_cost);
        let promote = promotion.is_some();
        let restart_at = at + promotion.unwrap_or(crash.restart_after);
        let s = &mut self.shards[shard.0];
        let (mut replay_ops, mut replay_rows) = (0u64, 0u64);
        let mut acked_at_crash = 0u64;
        let mut covered_ops = 0u64;
        if promote {
            // The promotion replay set: journal appends acked by the
            // crash but still in flight to the standby (`ship_done`
            // after `at`), re-read from the dead primary's durable
            // journal tail. Fully shipped batches were applied by the
            // warm standby as they arrived and cost nothing here.
            for e in s.ship_tail.iter() {
                if e.acked > at {
                    continue;
                }
                acked_at_crash += e.ops;
                if e.ship_done > at {
                    replay_ops += e.ops;
                    replay_rows += e.rows;
                } else {
                    covered_ops += e.ops;
                }
            }
        } else {
            // The replay set: journal-acked by the crash instant but
            // not yet applied. Entries the simulator priced ahead of
            // the crash (acked after `at`) keep their original schedule
            // — a virtual-time approximation documented in the module
            // docs.
            for e in s.unapplied.iter() {
                if e.acked <= at && e.apply_done > at {
                    acked_at_crash += e.ops;
                    replay_ops += e.ops;
                    replay_rows += e.rows;
                }
            }
        }
        // Recovery is real work: boot (or leader handoff), scan the
        // journal tail, re-apply the replay set as one group commit.
        // Only then does the shard resume service.
        let mut service = cfg.mds_service + s.read_rows(&cfg.db, replay_ops, 0);
        if replay_rows > 0 {
            service += s.commit(&cfg.db, replay_rows);
        }
        let resume_at = s.cpu.acquire(restart_at, service).end;
        let f = &mut self.fault_stats;
        f.recovery_busy += service;
        f.replayed_ops += replay_ops;
        if promote {
            f.promotions += 1;
            f.lag_replayed_rows += replay_rows;
            // Every batch acked by the crash is either on the standby
            // (fully shipped, applied there) or replayed from the
            // durable journal tail — the canary stays structural.
            f.lost_acked_ops += acked_at_crash - covered_ops - replay_ops;
            // Batches acked by this crash are settled: shipped ones
            // live on the new primary, the lag suffix was just
            // replayed, and the next standby bootstraps from the full
            // journal. Later crashes only ever consult newer acks.
            s.ship_tail.retain(|e| e.acked > at);
        } else {
            // Canary for the bench gate: the replay set is exactly the
            // acked-but-unapplied window, so nothing journal-acked is
            // lost.
            f.lost_acked_ops += acked_at_crash - replay_ops;
        }
        f.downtime += resume_at - at;
        let mut max_lag = s.usage.apply_lag;
        for e in s.unapplied.iter_mut() {
            if e.acked <= at && e.apply_done > at {
                e.apply_done = resume_at;
                max_lag = max_lag.max(resume_at - e.acked);
            }
        }
        s.usage.apply_lag = max_lag;
        s.windows.push(FaultWindow {
            crashed_at: at,
            resume_at,
        });
        if let Some(adm) = &cfg.admission {
            // Re-admit evicted sessions through a fresh token bucket
            // anchored at the resume: `sessions_per_window` grants per
            // window, overflow deferred to the next window start. A
            // repeat crash replaces the gate wholesale — the new outage
            // re-evicts everyone anyway.
            s.admission = Some(ShardAdmission {
                bucket: TokenBucket::new(resume_at, adm.sessions_per_window, adm.window),
                admitted: BTreeSet::new(),
            });
        }
    }

    /// Consumes one scripted message drop addressed to `shard` at `t`,
    /// if the script has one pending.
    fn consume_drop(&mut self, shard: ShardId, t: SimTime) -> bool {
        let Some(f) = self.faults.as_mut() else {
            return false;
        };
        for (d, taken) in f.drops.iter_mut() {
            if d.shard == shard && d.at <= t && *taken < d.count {
                *taken += 1;
                return true;
            }
        }
        false
    }

    /// The fault gate for a request from `node` to `shard` issued at
    /// `t`. Always `Ok` (and side-effect-free) with no plan armed.
    /// Otherwise it processes every scripted crash due by the issue
    /// instant, lets a pending scripted drop swallow the request (the
    /// client learns of it only when its timeout fires), advances the
    /// script to the request's arrival, and asks the shard: a crashed
    /// or partitioned shard refuses after
    /// one round trip, and post-recovery admission may defer a node
    /// that has no session yet. A refusal counts as a shard-side NACK;
    /// an admission grant consumed here is remembered, so the request
    /// it admits does not pay twice.
    pub fn admit(
        &mut self,
        cfg: &CofsConfig,
        net: &MdsNetwork,
        node: NodeId,
        shard: ShardId,
        t: SimTime,
    ) -> Result<(), Nack> {
        if self.faults.is_none() {
            return Ok(());
        }
        self.advance_faults(cfg, t);
        if self.consume_drop(shard, t) {
            self.fault_stats.drops += 1;
            return Err(Nack {
                shard,
                at: t + cfg.retry.timeout,
                retry_after: None,
            });
        }
        let rtt = net.shard_rtt(node, shard);
        let arrive = t + rtt / 2;
        self.advance_faults(cfg, arrive);
        self.accept(cfg, node, shard, arrive, t + rtt)
    }

    /// Drains the `(shard, instant)` of every crash processed since the
    /// last call. Only [`Self::admit`] and [`Self::observe_elastic`]
    /// process crashes; the client side drains right after each and
    /// fences the leases each shard granted
    /// ([`crate::client_cache::ClientCache::fence`]).
    pub fn take_crashes(&mut self) -> Vec<(ShardId, SimTime)> {
        std::mem::take(&mut self.crashes)
    }

    /// Fault/recovery accounting over all shards since the last
    /// [`Self::reset_time`].
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    // ---- elastic load observation ------------------------------------

    /// Feeds one observed operation under directory `dir` (normalized
    /// path text, typically a borrowed [`VPath::parent_str`]) at virtual
    /// time `t` into the elastic policy, and prices any split or merge
    /// it decides. A no-op (and allocation-free) under static policies,
    /// so every pinned path is bit-for-bit untouched.
    ///
    /// Observation itself charges no time: the policy piggybacks on
    /// requests the client already paid for. Reconfiguration is the
    /// opposite of free — each [`crate::elastic::ShardTransfer`] scans
    /// the moving dentry rows on the source shard's CPU, crosses the
    /// inter-shard link, and is journaled plus group-committed on the
    /// destination's CPU (the write-behind pricing). The triggering
    /// request does not await the migration, but later requests queue
    /// behind it on both CPUs — exactly like deferred journal applies.
    pub fn observe_elastic(&mut self, cfg: &CofsConfig, dir: &str, t: SimTime) {
        let due = match &mut self.policy {
            ShardPolicy::Elastic(p) => p.record(dir, t),
            _ => return,
        };
        if !due {
            return;
        }
        // A rebalance that would straddle a crashed or fenced shard
        // aborts and re-enqueues: migrating rows off a dead shard (or
        // under a stale epoch) would "transfer" state the shard can no
        // longer vouch for. The observation window is only reset inside
        // `rebalance`, so the next observed op after recovery
        // re-triggers the decision — abort really is re-enqueue.
        if self.faults.is_some() {
            let crashes = self.fault_stats.crashes;
            self.advance_faults(cfg, t);
            let blocked = self.fault_stats.crashes != crashes
                || (0..self.shards.len()).any(|i| self.is_down(ShardId(i), t));
            if blocked {
                self.fault_stats.elastic_aborts += 1;
                return;
            }
        }
        let loads: Vec<SimDuration> = self.shards.iter().map(|s| s.cpu.busy_time()).collect();
        // The policy's attribution gate needs the *measured* mean
        // per-op service time — database work rides on top of the base
        // RPC service charge, so `mds_service` alone would
        // underestimate a directory's busy contribution several-fold.
        let rpcs: u64 = self.shards.iter().map(|s| s.usage.rpcs).sum();
        let service = if rpcs > 0 {
            let busy = loads.iter().fold(SimDuration::ZERO, |acc, &b| acc + b);
            (busy / rpcs).max(cfg.mds_service)
        } else {
            cfg.mds_service
        };
        let entries = self.namespace.entry_count(dir);
        let ShardPolicy::Elastic(p) = &mut self.policy else {
            unreachable!("due observation implies an elastic policy");
        };
        let event = p.rebalance(dir, t, &loads, service, entries);
        if let Some(ev) = event {
            match ev.kind {
                crate::elastic::ElasticEventKind::Split => self.shards[ev.home.0].usage.splits += 1,
                crate::elastic::ElasticEventKind::Merge => self.shards[ev.home.0].usage.merges += 1,
            }
            for tr in &ev.transfers {
                // Source side: scan the moving dentry rows.
                let read_done = {
                    let s = &mut self.shards[tr.from.0];
                    s.usage.migrations += 1;
                    let service = cfg.mds_service + s.read_rows(&cfg.db, tr.rows, 0);
                    s.cpu.acquire(t, service).end
                };
                // Destination side: the rows cross the inter-shard link,
                // are journaled for the ack, and group-committed into
                // the tables — the same pricing a write-behind batch of
                // `rows` writes pays.
                let arrive = read_done + cfg.cross_shard_rtt / 2;
                let s = &mut self.shards[tr.to.0];
                s.usage.migrations += 1;
                let service = cfg.mds_service
                    + s.journal_append(&cfg.db, tr.rows)
                    + s.commit(&cfg.db, tr.rows);
                let _ = s.cpu.acquire(arrive, service);
            }
        }
    }

    // ---- client-cache recalls ----------------------------------------

    /// The shard that grants and recalls a lease on `key`: the one
    /// serving the read it covers.
    pub fn lease_shard(&self, key: &LeaseKey) -> ShardId {
        match key.0 {
            EntryKind::Attr | EntryKind::Negative => self.route(&key.1),
            EntryKind::Dentry => self.route_entries(&key.1),
        }
    }

    /// Prices the recall messages of a mutation that completed at `t`
    /// (the `(holder, key)` pairs [`crate::client_cache::ClientCache::recall`]
    /// returns). Each costs one round trip from the key's
    /// [`Self::lease_shard`] to the holder and counts in that shard's
    /// [`ShardUsage::recalls`]. Recalls fan out in parallel, so the
    /// mutation completes once the slowest ack is in: `t` plus the
    /// largest round trip, or `t` itself with nothing to recall.
    pub fn price_recall(
        &mut self,
        net: &MdsNetwork,
        messages: &[(NodeId, &LeaseKey)],
        t: SimTime,
    ) -> SimTime {
        let mut done = t;
        for &(holder, key) in messages {
            let shard = self.lease_shard(key);
            self.shards[shard.0].usage.recalls += 1;
            done = done.max(t + net.shard_rtt(holder, shard));
        }
        done
    }

    /// Per-shard load since the last [`Self::reset_time`].
    pub fn usage(&self) -> Vec<ShardUsage> {
        self.shards
            .iter()
            .map(|s| ShardUsage {
                busy: s.cpu.busy_time(),
                mean_wait: s.cpu.mean_wait(),
                read_bypasses: s.cpu.priority_bypasses(),
                ..s.usage.clone()
            })
            .collect()
    }

    /// When the last acked-but-unapplied batch across all shards
    /// finishes applying — the end of the cluster's crash-consistency
    /// window. Equals `horizon` when nothing is outstanding (write
    /// behind off, or every journal entry already applied): the ack is
    /// the apply.
    pub fn apply_horizon(&self, horizon: SimTime) -> SimTime {
        self.shards
            .iter()
            .flat_map(|s| s.unapplied.iter().map(|e| e.apply_done))
            .fold(horizon, SimTime::max)
    }

    /// Acked-but-unapplied operations outstanding across all shards at
    /// virtual time `t` — the quantity
    /// [`WriteBehindConfig::max_unapplied_ops`] bounds (journal entries
    /// are pruned lazily, so this filters by apply completion rather
    /// than trusting the raw lists). Zero with write-behind off.
    pub fn unapplied_ops_at(&self, t: SimTime) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| &s.unapplied)
            .filter(|e| e.apply_done > t)
            .map(|e| e.ops)
            .sum()
    }

    /// Rewinds every shard's queue and cost state to virtual time zero
    /// (between benchmark phases). Sessions survive, as in the
    /// single-MDS model: establishment is paid once per node per shard.
    pub fn reset_time(&mut self) {
        // Every `Shard` field is per-phase state, so each is rebuilt.
        for (i, s) in self.shards.iter_mut().enumerate() {
            *s = Shard::new(i);
        }
        // The fault script is anchored in virtual time: re-arm it so
        // plans written against the measured phase replay from zero.
        self.crashes.clear();
        self.fault_stats = FaultStats::default();
        if let Some(f) = self.faults.as_mut() {
            f.next_crash = 0;
            for (_, taken) in f.drops.iter_mut() {
                *taken = 0;
            }
        }
        // The elastic policy's observation windows are anchored in
        // virtual time and must rewind with it; its bucket tables
        // survive, like sessions.
        if let ShardPolicy::Elastic(p) = &mut self.policy {
            p.reset_time();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client_cache::{ClientCache, ClientCacheConfig};
    use crate::config::{AdmissionConfig, StandbyConfig};
    use crate::mds::RowKey;
    use std::collections::HashSet;
    use vfs::path::vpath;

    fn cfg() -> CofsConfig {
        CofsConfig::default()
    }

    fn net() -> MdsNetwork {
        MdsNetwork::uniform(SimDuration::from_micros(250))
    }

    /// One synchronous single-op request.
    fn sync(
        cluster: &mut MdsCluster,
        cfg: &CofsConfig,
        net: &MdsNetwork,
        node: NodeId,
        shard: ShardId,
        ops: DbOps,
        t: SimTime,
    ) -> SimTime {
        let op = [BatchedOp::opaque(ops)];
        cluster.request(cfg, net, node, Shape::Sync(shard), &op, t)
    }

    /// One batch request.
    fn batched(
        cluster: &mut MdsCluster,
        cfg: &CofsConfig,
        net: &MdsNetwork,
        node: NodeId,
        shard: ShardId,
        ops: &[BatchedOp],
        t: SimTime,
    ) -> SimTime {
        cluster.request(cfg, net, node, Shape::Batch(shard), ops, t)
    }

    /// A synchronous request behind the fault gate.
    fn checked(
        cluster: &mut MdsCluster,
        cfg: &CofsConfig,
        net: &MdsNetwork,
        node: NodeId,
        shard: ShardId,
        ops: DbOps,
        t: SimTime,
    ) -> Result<SimTime, Nack> {
        cluster.admit(cfg, net, node, shard, t)?;
        Ok(sync(cluster, cfg, net, node, shard, ops, t))
    }

    #[test]
    fn single_shard_matches_legacy_rpc_math() {
        // Replicate the pre-cluster arithmetic by hand and require
        // bit-for-bit agreement.
        let c = cfg();
        let n = net();
        let mut cluster = MdsCluster::new(ShardPolicy::hash(1));
        let ops = DbOps {
            reads: 4,
            writes: 3,
        };
        let got = sync(
            &mut cluster,
            &c,
            &n,
            NodeId(0),
            ShardId(0),
            ops,
            SimTime::ZERO,
        );
        let mut cpu = FifoResource::new("legacy");
        let t = SimTime::ZERO + c.session_cost;
        let rtt = SimDuration::from_micros(250);
        let arrive = t + rtt / 2;
        // The first commit, far from the fsync cadence.
        assert!(c.db.sync_every > 1);
        let service =
            c.mds_service + c.db.lookup * ops.reads + c.db.commit + c.db.write * ops.writes;
        let expect = cpu.acquire(arrive, service).end + rtt / 2;
        assert_eq!(got, expect);
    }

    #[test]
    #[should_panic(expected = "journal append of zero records")]
    fn empty_journal_append_panics() {
        Shard::new(0).journal_append(&DbCostModel::default(), 0);
    }

    #[test]
    fn session_cost_paid_once_per_node_per_shard() {
        let c = cfg();
        let n = net();
        let mut cluster = MdsCluster::new(ShardPolicy::hash(2));
        let ops = DbOps {
            reads: 1,
            writes: 0,
        };
        let first = sync(
            &mut cluster,
            &c,
            &n,
            NodeId(0),
            ShardId(0),
            ops,
            SimTime::ZERO,
        );
        cluster.reset_time();
        let second = sync(
            &mut cluster,
            &c,
            &n,
            NodeId(0),
            ShardId(0),
            ops,
            SimTime::ZERO,
        );
        assert_eq!(first, second + c.session_cost);
        // A different shard is a different session.
        cluster.reset_time();
        let other = sync(
            &mut cluster,
            &c,
            &n,
            NodeId(0),
            ShardId(1),
            ops,
            SimTime::ZERO,
        );
        assert_eq!(other, first);
    }

    #[test]
    fn policies_are_pure_and_in_range() {
        let paths = [
            vpath("/a/b/c"),
            vpath("/a/b"),
            vpath("/x"),
            VPath::root(),
            vpath("/deep/er/still/more"),
        ];
        for shards in [1usize, 2, 4, 7] {
            let policies = [
                ShardPolicy::hash(shards),
                ShardPolicy::subtree(shards),
                ShardPolicy::Elastic(ElasticPolicy::new(
                    shards,
                    crate::elastic::ElasticConfig::default(),
                )),
            ];
            for p in &policies {
                for path in &paths {
                    let s = p.shard_of(path);
                    assert!(s.0 < p.shard_count(), "{p:?} routed {path} to {s}");
                    assert_eq!(s, p.shard_of(path), "routing must be deterministic");
                }
            }
        }
    }

    #[test]
    fn hash_by_parent_keeps_siblings_together_and_spreads_dirs() {
        let p = ShardPolicy::hash(4);
        assert_eq!(p.shard_of(&vpath("/d0/a")), p.shard_of(&vpath("/d0/b")));
        // Many distinct parents must not all collapse onto one shard.
        let mut seen = HashSet::new();
        for i in 0..32 {
            seen.insert(p.shard_of(&vpath(&format!("/dir{i}/f"))));
        }
        assert!(
            seen.len() >= 3,
            "32 dirs should spread over 4 shards: {seen:?}"
        );
    }

    #[test]
    fn subtree_keeps_whole_trees_together() {
        let p = ShardPolicy::subtree(4);
        let top = p.shard_of(&vpath("/proj"));
        assert_eq!(p.shard_of(&vpath("/proj/a")), top);
        assert_eq!(p.shard_of(&vpath("/proj/a/b/c")), top);
        assert_eq!(p.shard_of(&VPath::root()), ShardId(0));
    }

    #[test]
    fn cross_shard_costs_more_than_single_shard() {
        let c = cfg();
        let n = net();
        let ops = DbOps {
            reads: 6,
            writes: 5,
        };
        let mut one = MdsCluster::new(ShardPolicy::hash(1));
        // Burn the session costs first so the comparison is steady-state.
        sync(
            &mut one,
            &c,
            &n,
            NodeId(0),
            ShardId(0),
            DbOps::default(),
            SimTime::ZERO,
        );
        one.reset_time();
        let single = sync(&mut one, &c, &n, NodeId(0), ShardId(0), ops, SimTime::ZERO);

        let mut two = MdsCluster::new(ShardPolicy::hash(2));
        sync(
            &mut two,
            &c,
            &n,
            NodeId(0),
            ShardId(0),
            DbOps::default(),
            SimTime::ZERO,
        );
        sync(
            &mut two,
            &c,
            &n,
            NodeId(0),
            ShardId(1),
            DbOps::default(),
            SimTime::ZERO,
        );
        two.reset_time();
        let cross = two.request(
            &c,
            &n,
            NodeId(0),
            Shape::TwoPhase(ShardId(0), ShardId(1)),
            &[BatchedOp::opaque(ops)],
            SimTime::ZERO,
        );
        assert!(
            cross > single,
            "two-phase must cost more: {cross:?} vs {single:?}"
        );
        let usage = two.usage();
        assert_eq!(usage[0].two_phase, 1);
        assert_eq!(usage[1].two_phase, 1);
    }

    /// A client cache holding leases that expire `ttl_ms` after their
    /// grant.
    fn cache(ttl_ms: u64) -> ClientCache {
        ClientCache::new(ClientCacheConfig {
            capacity: 64,
            lease_ttl: SimDuration::from_millis(ttl_ms),
        })
    }

    #[test]
    fn recalls_charge_remote_holders_only() {
        let n = net();
        let mut cluster = MdsCluster::new(ShardPolicy::hash(2));
        let key = (EntryKind::Attr, vpath("/d/f"));
        let mut leases = cache(4);
        leases.insert(NodeId(2), key.0, key.1.clone(), SimTime::ZERO);
        leases.insert(NodeId(0), key.0, key.1.clone(), SimTime::from_millis(3));
        leases.insert(NodeId(1), key.0, key.1.clone(), SimTime::from_millis(3));
        // Node 0 mutates at t=5ms: node 1 is messaged, node 2's lease
        // already lapsed, node 0 drops locally.
        let t = SimTime::from_millis(5);
        let keys = [key];
        let messages = leases.recall(NodeId(0), &keys, t);
        assert_eq!(messages, vec![(NodeId(1), &keys[0])]);
        let done = cluster.price_recall(&n, &messages, t);
        assert_eq!(done, t + SimDuration::from_micros(250));
        let shard = cluster.lease_shard(&keys[0]);
        assert_eq!(cluster.usage()[shard.0].recalls, 1);
        // Every live lease is gone; a second recall is free.
        let messages = leases.recall(NodeId(0), &keys, t);
        assert!(messages.is_empty());
        assert_eq!(cluster.price_recall(&n, &messages, t), t);
    }

    #[test]
    fn batch_amortizes_per_rpc_overhead_and_commit() {
        let c = cfg();
        let n = net();
        let ops = DbOps {
            reads: 2,
            writes: 2,
        };
        let k = 4usize;
        // k sequential single-op RPCs (client waits for each response).
        let mut seq = MdsCluster::new(ShardPolicy::hash(1));
        let mut t = SimTime::ZERO;
        for _ in 0..k {
            t = sync(&mut seq, &c, &n, NodeId(0), ShardId(0), ops, t);
        }
        // One k-op batch RPC.
        let mut grp = MdsCluster::new(ShardPolicy::hash(1));
        let batched = batched(
            &mut grp,
            &c,
            &n,
            NodeId(0),
            ShardId(0),
            &vec![BatchedOp::opaque(ops); k],
            SimTime::ZERO,
        );
        assert!(
            batched < t,
            "batch must beat sequential RPCs: {batched:?} vs {t:?}"
        );
        // Shard CPU demand shrinks by the amortized per-RPC overhead
        // and the (k - 1) saved commits.
        let saved = (c.mds_service + c.db.commit) * (k as u64 - 1);
        assert_eq!(grp.usage()[0].busy + saved, seq.usage()[0].busy);
        assert_eq!(grp.usage()[0].rpcs, k as u64);
        assert_eq!(grp.usage()[0].batches, 1);
    }

    #[test]
    fn memoized_batch_charges_each_distinct_row_once() {
        let c = cfg().with_batching(16, SimDuration::from_millis(5), 4);
        let n = net();
        // Four creates into the same parent: each reads the 2-row chain
        // of /d plus 3 private rows (5 reads total, 2 keyed).
        let chain = RowSet::resolution_chain(&vpath("/d/f"));
        assert_eq!(chain.len(), 2);
        let db = DbOps {
            reads: 5,
            writes: 2,
        };
        let op = BatchedOp {
            db,
            read_set: chain,
            ..BatchedOp::default()
        };
        let batch = vec![op; 4];
        // The reference: the same batch with its read sets stripped.
        let plain = vec![BatchedOp::opaque(db); 4];
        let price = |ops: &[BatchedOp]| {
            let mut cluster = MdsCluster::new(ShardPolicy::hash(1));
            let t = batched(
                &mut cluster,
                &c,
                &n,
                NodeId(0),
                ShardId(0),
                ops,
                SimTime::ZERO,
            );
            (t, cluster.usage().remove(0))
        };
        let (t_plain, plain_usage) = price(&plain);
        let (t_memo, memo_usage) = price(&batch);
        // Three repeat resolutions of the 2-row chain are absorbed.
        let saved = c.db.lookup * 2 * 3;
        assert_eq!(t_plain, t_memo + saved);
        assert_eq!(memo_usage.reads_memoized, 6);
        assert_eq!(memo_usage.reads_charged, 4 * 5 - 6);
        assert_eq!(plain_usage.reads_memoized, 0);
        assert_eq!(plain_usage.reads_charged, 20);
        // A batch of one reprices nothing: its keys are distinct by
        // construction.
        let (a, one) = price(&batch[..1]);
        let (b, _) = price(&plain[..1]);
        assert_eq!(a, b);
        assert_eq!(one.reads_memoized, 0);
    }

    fn wb_cfg() -> CofsConfig {
        cfg()
            .with_batching(16, SimDuration::from_millis(5), 4)
            .with_write_behind()
    }

    /// [`wb_cfg`] with a durability window of `max_unapplied_ops`.
    fn wb_cfg_bounded(max_unapplied_ops: u64) -> CofsConfig {
        CofsConfig {
            write_behind: Some(WriteBehindConfig {
                max_unapplied_ops,
                ..WriteBehindConfig::default()
            }),
            ..wb_cfg()
        }
    }

    /// A create-like batched op: `reads` keyless reads, 3 writes of
    /// which the shared `parent` row is coalescable.
    fn create_op(parent: RowKey) -> BatchedOp {
        BatchedOp {
            db: DbOps {
                reads: 2,
                writes: 3,
            },
            write_set: RowSet::from_keys([parent]),
            ..BatchedOp::default()
        }
    }

    #[test]
    fn write_behind_acks_at_journal_append_and_applies_behind() {
        let c = wb_cfg();
        let n = net();
        let batch: Vec<BatchedOp> = (0..4).map(|_| create_op(42)).collect();
        let mut wb = MdsCluster::new(ShardPolicy::hash(1));
        let ack = batched(
            &mut wb,
            &c,
            &n,
            NodeId(0),
            ShardId(0),
            &batch,
            SimTime::ZERO,
        );
        // Hand arithmetic: session + half RTT, then service = per-batch
        // overhead + 4 keyless 2-row reads + one journal append of the
        // 12-record write set. The group commit is NOT in the ack.
        let arrive = SimTime::ZERO + c.session_cost + SimDuration::from_micros(125);
        let service =
            c.mds_service + c.db.lookup * 2 * 4 + c.db.journal_append + c.db.journal_record * 12;
        let expect_ack = arrive + service + SimDuration::from_micros(125);
        assert_eq!(ack, expect_ack);
        // The deferred apply group-commits the coalesced rows (3 + 2 +
        // 2 + 2 = 9 of the raw 12) right behind the ack.
        let apply = c.db.commit + c.db.write * 9;
        let acked_at = ack - SimDuration::from_micros(125);
        assert_eq!(wb.apply_horizon(acked_at), acked_at + apply);
        let u = &wb.usage()[0];
        assert_eq!(u.journal_appends, 1);
        assert_eq!(u.rows_coalesced, 3);
        assert_eq!(u.apply_lag, apply);
        // The shard CPU still did the apply work (busy includes it).
        assert_eq!(u.busy, service + apply);
        // And the ack beats the synchronous group-commit pricing.
        let mut sync = MdsCluster::new(ShardPolicy::hash(1));
        let base = CofsConfig {
            batch: c.batch.clone(),
            ..cfg()
        };
        let done = batched(
            &mut sync,
            &base,
            &n,
            NodeId(0),
            ShardId(0),
            &batch,
            SimTime::ZERO,
        );
        assert!(ack < done, "{ack:?} vs {done:?}");
        assert_eq!(sync.usage()[0].journal_appends, 0);
        assert_eq!(sync.usage()[0].rows_coalesced, 0);
        assert_eq!(sync.usage()[0].apply_lag, SimDuration::ZERO);
    }

    #[test]
    fn write_behind_read_only_batch_takes_the_calibrated_path() {
        let c = wb_cfg();
        let base = CofsConfig {
            batch: c.batch.clone(),
            ..cfg()
        };
        let n = net();
        let reads: Vec<BatchedOp> = vec![
            BatchedOp::opaque(DbOps {
                reads: 3,
                writes: 0,
            });
            5
        ];
        let mut wb = MdsCluster::new(ShardPolicy::hash(1));
        let mut plain = MdsCluster::new(ShardPolicy::hash(1));
        let a = batched(
            &mut wb,
            &c,
            &n,
            NodeId(0),
            ShardId(0),
            &reads,
            SimTime::ZERO,
        );
        let b = batched(
            &mut plain,
            &base,
            &n,
            NodeId(0),
            ShardId(0),
            &reads,
            SimTime::ZERO,
        );
        assert_eq!(a, b, "nothing to journal, nothing to defer");
        assert_eq!(wb.usage()[0].journal_appends, 0);
        assert_eq!(wb.apply_horizon(a), a);
    }

    #[test]
    fn durability_window_bounds_acked_but_unapplied_work() {
        let c = wb_cfg_bounded(4); // exactly one batch
        let n = net();
        let batch: Vec<BatchedOp> = (0..4).map(|_| create_op(7)).collect();
        let mut cluster = MdsCluster::new(ShardPolicy::hash(1));
        let mut t = SimTime::ZERO;
        let mut acks = Vec::new();
        for _ in 0..6 {
            t = batched(&mut cluster, &c, &n, NodeId(0), ShardId(0), &batch, t);
            acks.push(t);
            let acked_at = t - SimDuration::from_micros(125);
            assert!(
                cluster.unapplied_ops_at(acked_at) <= 4,
                "outstanding work exceeds the durability window at {acked_at:?}"
            );
        }
        // Acks advance strictly: each admission waited out the prior
        // batch's apply (the window here is exactly one batch).
        for pair in acks.windows(2) {
            assert!(pair[1] > pair[0]);
        }
        // The tail apply is visible past the last ack.
        let last_acked = *acks.last().unwrap() - SimDuration::from_micros(125);
        assert!(cluster.apply_horizon(last_acked) > last_acked);
        // reset_time clears the journal bookkeeping.
        cluster.reset_time();
        assert_eq!(cluster.unapplied_ops_at(SimTime::ZERO), 0);
        assert_eq!(cluster.apply_horizon(SimTime::ZERO), SimTime::ZERO);
        assert_eq!(cluster.usage()[0].journal_appends, 0);
        assert_eq!(cluster.usage()[0].apply_lag, SimDuration::ZERO);
    }

    #[test]
    fn oversized_batch_is_admitted_not_deadlocked() {
        // A single batch larger than the op budget must still be
        // served: the window bounds accumulation, not one batch.
        let c = wb_cfg_bounded(2);
        let n = net();
        let batch: Vec<BatchedOp> = (0..8).map(|_| create_op(9)).collect();
        let mut cluster = MdsCluster::new(ShardPolicy::hash(1));
        let mut t = SimTime::ZERO;
        for _ in 0..3 {
            t = batched(&mut cluster, &c, &n, NodeId(0), ShardId(0), &batch, t);
        }
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn read_priority_bypasses_queued_batch_lumps() {
        let fifo_cfg = cfg();
        let prio_cfg = CofsConfig {
            read_priority: true,
            ..cfg()
        };
        let n = net();
        let lump: Vec<BatchedOp> = vec![
            BatchedOp::opaque(DbOps {
                reads: 5,
                writes: 2,
            });
            16
        ];
        let read = DbOps {
            reads: 3,
            writes: 0,
        };
        let run = |cfg: &CofsConfig| {
            let mut cluster = MdsCluster::new(ShardPolicy::hash(1));
            // Two 16-op lumps from node 0: one in service, one queued.
            batched(
                &mut cluster,
                cfg,
                &n,
                NodeId(0),
                ShardId(0),
                &lump,
                SimTime::ZERO,
            );
            batched(
                &mut cluster,
                cfg,
                &n,
                NodeId(0),
                ShardId(0),
                &lump,
                SimTime::ZERO,
            );
            // Node 1's stat arrives while the first lump is in service.
            // (Session establishment shifts its arrival, not the queue.)
            let done = sync(
                &mut cluster,
                cfg,
                &n,
                NodeId(1),
                ShardId(0),
                read,
                SimTime::ZERO,
            );
            (done, cluster.usage()[0].read_bypasses)
        };
        let (fifo_done, fifo_bypasses) = run(&fifo_cfg);
        let (prio_done, prio_bypasses) = run(&prio_cfg);
        assert_eq!(fifo_bypasses, 0);
        assert_eq!(prio_bypasses, 1);
        assert!(
            prio_done < fifo_done,
            "the priority lane must skip the queued lump: {prio_done:?} vs {fifo_done:?}"
        );
        // With priority off, the knobless default prices identically —
        // the calibration pin at the RPC level.
        let default_done = run(&cfg()).0;
        assert_eq!(fifo_done, default_done);
    }

    #[test]
    fn read_priority_never_touches_write_rpcs() {
        let prio_cfg = CofsConfig {
            read_priority: true,
            ..cfg()
        };
        let n = net();
        let w = DbOps {
            reads: 2,
            writes: 1,
        };
        let mut a = MdsCluster::new(ShardPolicy::hash(1));
        let mut b = MdsCluster::new(ShardPolicy::hash(1));
        let mut ta = SimTime::ZERO;
        let mut tb = SimTime::ZERO;
        for _ in 0..4 {
            ta = sync(&mut a, &cfg(), &n, NodeId(0), ShardId(0), w, ta);
            tb = sync(&mut b, &prio_cfg, &n, NodeId(0), ShardId(0), w, tb);
        }
        assert_eq!(ta, tb, "mutations always take the FIFO lane");
        assert_eq!(b.usage()[0].read_bypasses, 0);
    }

    #[test]
    #[should_panic(expected = "at least one op")]
    fn empty_batch_rpc_panics() {
        let c = cfg();
        let n = net();
        MdsCluster::new(ShardPolicy::hash(1)).request(
            &c,
            &n,
            NodeId(0),
            Shape::Batch(ShardId(0)),
            &[],
            SimTime::ZERO,
        );
    }

    #[test]
    fn observe_elastic_is_a_no_op_under_static_policies() {
        let c = cfg();
        let mut cluster = MdsCluster::new(ShardPolicy::hash(4));
        assert!(cluster.policy().as_elastic().is_none());
        for i in 0..1000u64 {
            cluster.observe_elastic(&c, "/hot", SimTime::from_micros(i));
        }
        let u = cluster.usage();
        assert!(u.iter().all(|s| s.splits == 0 && s.migrations == 0));
        assert!(u.iter().all(|s| s.busy == SimDuration::ZERO));
    }

    #[test]
    fn observed_hot_directory_splits_and_migration_is_costed() {
        use crate::elastic::{ElasticConfig, ElasticPolicy};

        let c = cfg();
        let mut cluster = MdsCluster::new(ShardPolicy::Elastic(ElasticPolicy::new(
            4,
            ElasticConfig {
                split_threshold: 8,
                window: SimDuration::from_micros(100),
                ..ElasticConfig::default()
            },
        )));
        assert!(cluster.policy().as_elastic().is_some());
        let dir = vpath("/hot");
        let before = cluster.route(&vpath("/hot/f0"));
        for i in 0..200u64 {
            cluster.observe_elastic(&c, dir.as_str(), SimTime::from_micros(i));
        }
        let p = cluster.policy().as_elastic().unwrap();
        assert!(p.depth_of(&dir) > 0, "hot window must have split");
        let u = cluster.usage();
        let splits: u64 = u.iter().map(|s| s.splits).sum();
        let merges: u64 = u.iter().map(|s| s.merges).sum();
        assert_eq!(splits - merges, u64::from(p.depth_of(&dir)));
        let movers: u64 = u.iter().map(|s| s.migrations).sum();
        assert!(movers > 0, "a split across shards must migrate rows");
        // Migration work landed on real shard CPUs — never free.
        assert!(u.iter().map(|s| s.busy).any(|b| b > SimDuration::ZERO));
        // Routing still lands in range and siblings can now differ.
        let mut seen = HashSet::new();
        for i in 0..32 {
            let s = cluster.route(&vpath(&format!("/hot/f{i}")));
            assert!(s.0 < 4);
            seen.insert(s);
        }
        assert!(seen.len() > 1, "split dir must spread: all on {before}");
        // reset_time clears the counters but keeps the bucket table.
        cluster.reset_time();
        assert!(cluster.usage().iter().all(|s| s.splits == 0));
        assert!(cluster.policy().as_elastic().unwrap().depth_of(&dir) > 0);
    }

    #[test]
    fn usage_reports_per_shard_load() {
        let c = cfg();
        let n = net();
        let mut cluster = MdsCluster::new(ShardPolicy::hash(2));
        let ops = DbOps {
            reads: 2,
            writes: 1,
        };
        for _ in 0..5 {
            sync(
                &mut cluster,
                &c,
                &n,
                NodeId(0),
                ShardId(1),
                ops,
                SimTime::ZERO,
            );
        }
        let usage = cluster.usage();
        assert_eq!(usage.len(), 2);
        assert_eq!(usage[0].rpcs, 0);
        assert_eq!(usage[1].rpcs, 5);
        assert!(usage[1].busy > SimDuration::ZERO);
        cluster.reset_time();
        assert_eq!(cluster.usage()[1].rpcs, 0);
    }

    #[test]
    fn crash_bumps_epoch_nacks_requests_and_refences_sessions() {
        let c = CofsConfig::default().with_fault_plan(FaultPlan::default().crash(
            ShardId(0),
            SimTime::from_millis(10),
            SimDuration::from_millis(5),
        ));
        let n = net();
        let mut cluster = MdsCluster::new(ShardPolicy::hash(1));
        cluster.arm_faults(c.fault.clone());
        let ops = DbOps {
            reads: 1,
            writes: 0,
        };
        let first = checked(
            &mut cluster,
            &c,
            &n,
            NodeId(0),
            ShardId(0),
            ops,
            SimTime::ZERO,
        )
        .unwrap();
        assert!(first > SimTime::ZERO);
        assert_eq!(cluster.epoch(ShardId(0)), 1);
        // A request inside the window is refused after one round trip.
        let nack = checked(
            &mut cluster,
            &c,
            &n,
            NodeId(0),
            ShardId(0),
            ops,
            SimTime::from_millis(12),
        )
        .unwrap_err();
        assert_eq!(nack.shard, ShardId(0));
        assert_eq!(
            nack.at,
            SimTime::from_millis(12) + SimDuration::from_micros(250)
        );
        assert_eq!(cluster.epoch(ShardId(0)), 2);
        // After recovery the shard serves again; the node's session was
        // fenced at the crash, so it re-pays establishment.
        let after = checked(
            &mut cluster,
            &c,
            &n,
            NodeId(0),
            ShardId(0),
            ops,
            SimTime::from_millis(20),
        )
        .unwrap();
        let f = cluster.fault_stats();
        assert_eq!(f.crashes, 1);
        assert_eq!(f.nacks, 1);
        assert_eq!(f.fenced_sessions, 1);
        assert_eq!(f.lost_acked_ops, 0);
        assert!(f.downtime >= SimDuration::from_millis(5));
        let mut quiet = MdsCluster::new(ShardPolicy::hash(1));
        let qc = cfg();
        sync(
            &mut quiet,
            &qc,
            &n,
            NodeId(0),
            ShardId(0),
            ops,
            SimTime::ZERO,
        );
        let quiet_after = sync(
            &mut quiet,
            &qc,
            &n,
            NodeId(0),
            ShardId(0),
            ops,
            SimTime::from_millis(20),
        );
        assert_eq!(after, quiet_after + qc.session_cost);
    }

    #[test]
    fn crash_fences_every_lease_the_crashed_shard_granted() {
        let plan = FaultPlan::default().crash(
            ShardId(1),
            SimTime::from_millis(5),
            SimDuration::from_millis(1),
        );
        let c = CofsConfig::default().with_fault_plan(plan.clone());
        let n = net();
        let mut cluster = MdsCluster::new(ShardPolicy::hash(2));
        cluster.arm_faults(plan);
        let mut on1 = None;
        let mut on0 = None;
        for i in 0..16 {
            let p = vpath(&format!("/d{i}/f"));
            if cluster.route(&p) == ShardId(1) {
                if on1.is_none() {
                    on1 = Some(p);
                }
            } else if on0.is_none() {
                on0 = Some(p);
            }
        }
        let p1 = on1.expect("some path routes to shard 1");
        let p0 = on0.expect("some path routes to shard 0");
        let d1 = p1.parent().unwrap();
        assert_eq!(cluster.route_entries(&d1), ShardId(1));
        let mut leases = cache(10_000);
        leases.insert(NodeId(3), EntryKind::Attr, p1.clone(), SimTime::ZERO);
        leases.insert(NodeId(4), EntryKind::Dentry, d1.clone(), SimTime::ZERO);
        leases.insert(NodeId(5), EntryKind::Attr, p0.clone(), SimTime::ZERO);
        // Any probe past the crash time processes the script, which
        // queues the crash once.
        assert!(cluster
            .admit(&c, &n, NodeId(0), ShardId(0), SimTime::from_millis(6))
            .is_ok());
        let crashes = cluster.take_crashes();
        assert_eq!(crashes, vec![(ShardId(1), SimTime::from_millis(5))]);
        assert!(cluster.take_crashes().is_empty());
        for (shard, at) in crashes {
            leases.fence(at, |key| cluster.lease_shard(key) == shard);
        }
        // Both shard-1 leases are fenced; the shard-0 lease survives.
        assert_eq!(leases.stats().fenced, 2);
        assert!(leases.is_empty(NodeId(3)) && leases.is_empty(NodeId(4)));
        let t = SimTime::from_millis(7);
        assert!(leases.lookup(NodeId(5), EntryKind::Attr, &p0, t).is_hit());
    }

    #[test]
    fn recovery_replays_acked_but_unapplied_batches() {
        // Ack a write-behind batch, crash inside its ack-to-apply
        // window, and require the journal replay to carry every acked
        // op across the crash — priced as real recovery work.
        let c = wb_cfg();
        let n = net();
        let batch: Vec<BatchedOp> = (0..8).map(|_| create_op(42)).collect();
        let mut cluster = MdsCluster::new(ShardPolicy::hash(1));
        let ack = batched(
            &mut cluster,
            &c,
            &n,
            NodeId(0),
            ShardId(0),
            &batch,
            SimTime::ZERO,
        );
        let acked_server = ack - SimDuration::from_micros(125); // minus rtt/2
        let horizon = cluster.apply_horizon(SimTime::ZERO);
        assert!(horizon > acked_server, "apply must trail the ack");
        let crash_at = acked_server + (horizon - acked_server) / 2;
        let restart = SimDuration::from_millis(1);
        cluster.arm_faults(FaultPlan::default().crash(ShardId(0), crash_at, restart));
        assert!(cluster
            .admit(
                &c,
                &n,
                NodeId(0),
                ShardId(0),
                crash_at + SimDuration::from_micros(1)
            )
            .is_err());
        assert!(cluster
            .admit(
                &c,
                &n,
                NodeId(0),
                ShardId(0),
                crash_at + SimDuration::from_secs(1)
            )
            .is_ok());
        let f = cluster.fault_stats();
        assert_eq!(f.crashes, 1);
        assert_eq!(f.replayed_ops, 8, "every acked op replays");
        assert_eq!(f.lost_acked_ops, 0, "journal-acked work is never lost");
        assert!(f.recovery_busy > SimDuration::ZERO, "recovery is priced");
        // The replayed rows now apply at recovery completion, and the
        // horizon honestly reflects that.
        assert!(cluster.apply_horizon(SimTime::ZERO) >= crash_at + restart);
    }

    #[test]
    fn scripted_drops_time_out_then_traffic_passes() {
        let plan = FaultPlan::default().drop_messages(ShardId(0), SimTime::ZERO, 2);
        let c = CofsConfig::default().with_fault_plan(plan.clone());
        let n = net();
        let mut cluster = MdsCluster::new(ShardPolicy::hash(1));
        cluster.arm_faults(plan);
        let ops = DbOps {
            reads: 1,
            writes: 0,
        };
        let e1 = checked(
            &mut cluster,
            &c,
            &n,
            NodeId(0),
            ShardId(0),
            ops,
            SimTime::ZERO,
        )
        .unwrap_err();
        assert_eq!(e1.at, SimTime::ZERO + c.retry.timeout);
        let e2 = checked(&mut cluster, &c, &n, NodeId(0), ShardId(0), ops, e1.at).unwrap_err();
        let ok = checked(&mut cluster, &c, &n, NodeId(0), ShardId(0), ops, e2.at).unwrap();
        assert!(ok > e2.at);
        let f = cluster.fault_stats();
        assert_eq!(f.drops, 2);
        assert_eq!(f.nacks, 0);
        assert_eq!(cluster.epoch(ShardId(0)), 1, "drops never fence");
    }

    #[test]
    fn elastic_rebalance_aborts_through_a_crash_window_and_retriggers() {
        use crate::elastic::{ElasticConfig, ElasticPolicy};

        let plan = FaultPlan::default().crash(
            ShardId(0),
            SimTime::from_micros(50),
            SimDuration::from_micros(100),
        );
        let c = CofsConfig::default().with_fault_plan(plan.clone());
        let mut cluster = MdsCluster::new(ShardPolicy::Elastic(ElasticPolicy::new(
            4,
            ElasticConfig {
                split_threshold: 8,
                window: SimDuration::from_micros(100),
                ..ElasticConfig::default()
            },
        )));
        cluster.arm_faults(plan);
        let dir = vpath("/hot");
        for i in 0..400u64 {
            cluster.observe_elastic(&c, dir.as_str(), SimTime::from_micros(i));
        }
        let f = cluster.fault_stats();
        assert!(
            f.elastic_aborts > 0,
            "a rebalance due inside the crash window must abort"
        );
        assert_eq!(cluster.epoch(ShardId(0)), 2);
        // Abort really was re-enqueue: the observation window stayed
        // pending, so the split landed once the shard recovered.
        assert!(
            cluster.policy().as_elastic().unwrap().depth_of(&dir) > 0,
            "the deferred split must land after recovery"
        );
        let migrations: u64 = cluster.usage().iter().map(|s| s.migrations).sum();
        assert!(migrations > 0, "the landed split still migrates rows");
    }

    #[test]
    fn reset_time_rearms_the_fault_script() {
        let plan = FaultPlan::default().crash(
            ShardId(0),
            SimTime::from_millis(1),
            SimDuration::from_millis(1),
        );
        let c = CofsConfig::default().with_fault_plan(plan.clone());
        let n = net();
        let mut cluster = MdsCluster::new(ShardPolicy::hash(1));
        cluster.arm_faults(plan);
        let ops = DbOps {
            reads: 1,
            writes: 0,
        };
        let e1 = checked(
            &mut cluster,
            &c,
            &n,
            NodeId(0),
            ShardId(0),
            ops,
            SimTime::from_millis(1),
        )
        .unwrap_err();
        assert_eq!(cluster.epoch(ShardId(0)), 2);
        cluster.reset_time();
        assert_eq!(cluster.epoch(ShardId(0)), 1);
        assert_eq!(cluster.fault_stats(), FaultStats::default());
        let e2 = checked(
            &mut cluster,
            &c,
            &n,
            NodeId(0),
            ShardId(0),
            ops,
            SimTime::from_millis(1),
        )
        .unwrap_err();
        assert_eq!(e1, e2, "the script replays identically after reset");
        assert_eq!(cluster.epoch(ShardId(0)), 2);
    }

    /// Runs one 8-op write-behind batch under `c` and returns
    /// `(server ack, ship_done)` — the instants the journal append was
    /// acked and the standby append would complete.
    fn shipped_batch_times(c: &CofsConfig) -> (SimTime, SimTime) {
        let n = net();
        let batch: Vec<BatchedOp> = (0..8).map(|_| create_op(42)).collect();
        let mut probe = MdsCluster::new(ShardPolicy::hash(1));
        let ack = batched(
            &mut probe,
            c,
            &n,
            NodeId(0),
            ShardId(0),
            &batch,
            SimTime::ZERO,
        );
        let acked = ack - SimDuration::from_micros(125); // minus rtt/2
        let ship_done = acked + SimDuration::from_micros(125) + c.db.standby_append_cost(24);
        (acked, ship_done)
    }

    #[test]
    fn promotion_resumes_within_promotion_cost_not_restart_after() {
        // Standby on: the crash is absorbed by promoting the warm
        // standby. The outage is promotion cost plus the lag replay —
        // far below the scripted restart_after the cold path waits out.
        let c = wb_cfg().with_standby();
        let n = net();
        let (acked, ship_done) = shipped_batch_times(&c);
        // Crash while the journal append is still in flight to the
        // standby: the suffix must replay from the durable tail.
        let crash_at = acked + (ship_done - acked) / 2;
        let restart = SimDuration::from_millis(10);
        let plan = FaultPlan::default().crash(ShardId(0), crash_at, restart);
        let mut cluster = MdsCluster::new(ShardPolicy::hash(1));
        cluster.arm_faults(plan);
        let batch: Vec<BatchedOp> = (0..8).map(|_| create_op(42)).collect();
        let ack = batched(
            &mut cluster,
            &c,
            &n,
            NodeId(0),
            ShardId(0),
            &batch,
            SimTime::ZERO,
        );
        assert_eq!(
            ack,
            acked + SimDuration::from_micros(125),
            "shipping stays off the ack path"
        );
        assert!(cluster
            .admit(
                &c,
                &n,
                NodeId(0),
                ShardId(0),
                crash_at + SimDuration::from_micros(1)
            )
            .is_err());
        let f = cluster.fault_stats();
        assert_eq!(f.crashes, 1);
        assert_eq!(f.promotions, 1);
        assert_eq!(f.replayed_ops, 8, "the in-flight ship suffix replays");
        assert_eq!(f.lag_replayed_rows, 17, "the coalesced write set replays");
        assert_eq!(f.lost_acked_ops, 0, "acked work survives the promotion");
        assert!(
            f.downtime >= StandbyConfig::default().promotion_cost && f.downtime < restart,
            "promotion beats the scripted restart: {:?}",
            f.downtime
        );
        // Fencing is not skipped: the epoch bumps and the writer's
        // session was evicted, exactly as on a cold restart.
        assert_eq!(cluster.epoch(ShardId(0)), 2);
        assert_eq!(f.fenced_sessions, 1);
        assert!(cluster
            .admit(&c, &n, NodeId(0), ShardId(0), crash_at + f.downtime)
            .is_ok());
    }

    #[test]
    fn fully_shipped_batches_cost_nothing_at_promotion() {
        // Crash after the standby append landed: the warm standby
        // already applied the batch, so promotion replays nothing.
        let c = wb_cfg().with_standby();
        let n = net();
        let (_, ship_done) = shipped_batch_times(&c);
        let crash_at = ship_done + SimDuration::from_micros(1);
        let plan = FaultPlan::default().crash(ShardId(0), crash_at, SimDuration::from_millis(10));
        let mut cluster = MdsCluster::new(ShardPolicy::hash(1));
        cluster.arm_faults(plan);
        let batch: Vec<BatchedOp> = (0..8).map(|_| create_op(42)).collect();
        batched(
            &mut cluster,
            &c,
            &n,
            NodeId(0),
            ShardId(0),
            &batch,
            SimTime::ZERO,
        );
        assert!(cluster
            .admit(
                &c,
                &n,
                NodeId(0),
                ShardId(0),
                crash_at + SimDuration::from_micros(1)
            )
            .is_err());
        let f = cluster.fault_stats();
        assert_eq!(f.promotions, 1);
        assert_eq!(f.replayed_ops, 0, "nothing was in flight");
        assert_eq!(f.lag_replayed_rows, 0);
        assert_eq!(f.lost_acked_ops, 0);
        // Downtime is exactly promotion + the empty journal-tail scan.
        assert_eq!(
            f.downtime,
            StandbyConfig::default().promotion_cost + c.mds_service + c.db.lookup
        );
    }

    #[test]
    fn admission_paces_session_readmission_after_recovery() {
        let plan = FaultPlan::default().crash(
            ShardId(0),
            SimTime::from_millis(1),
            SimDuration::from_millis(1),
        );
        let c = CofsConfig::default()
            .with_fault_plan(plan.clone())
            .with_admission();
        let n = net();
        let mut cluster = MdsCluster::new(ShardPolicy::hash(1));
        cluster.arm_faults(plan);
        // While the shard is down, the supervisor quotes the scheduled
        // resume as retry-after (admission control is on).
        let down = cluster
            .admit(&c, &n, NodeId(0), ShardId(0), SimTime::from_millis(1))
            .unwrap_err();
        let resume = down.retry_after.expect("supervisor quotes the restart");
        // The first `sessions_per_window` nodes are re-admitted...
        assert!(cluster.admit(&c, &n, NodeId(0), ShardId(0), resume).is_ok());
        assert!(cluster.admit(&c, &n, NodeId(1), ShardId(0), resume).is_ok());
        // ...the next is deferred to the following window start.
        let deferred = cluster
            .admit(&c, &n, NodeId(2), ShardId(0), resume)
            .unwrap_err();
        let after = deferred
            .retry_after
            .expect("admission quotes the next window");
        assert_eq!(after, resume + AdmissionConfig::default().window);
        // A probe-granted node re-probes without burning a second
        // token: node 0 stays admitted while node 3 is still deferred.
        assert!(cluster.admit(&c, &n, NodeId(0), ShardId(0), resume).is_ok());
        assert!(cluster
            .admit(&c, &n, NodeId(3), ShardId(0), resume)
            .is_err());
        // Honoring the quoted retry-after lands node 2 in window 1.
        assert!(cluster.admit(&c, &n, NodeId(2), ShardId(0), after).is_ok());
        let f = cluster.fault_stats();
        assert_eq!(f.admission_defers, 2, "nodes 2 and 3 each deferred once");
        assert_eq!(f.nacks, 1 + 2, "the down NACK plus both defers");
    }

    #[test]
    fn partition_refuses_without_fencing_or_epoch_bump() {
        // A partitioned shard is alive but unreachable: requests NACK
        // with no retry-after, yet nothing is fenced, no epoch bumps,
        // and no downtime accrues — the shard never died.
        let plan = FaultPlan::default().partition(
            ShardId(0),
            SimTime::from_millis(1),
            SimDuration::from_millis(2),
        );
        let c = CofsConfig::default().with_fault_plan(plan.clone());
        let n = net();
        let mut cluster = MdsCluster::new(ShardPolicy::hash(1));
        cluster.arm_faults(plan);
        let ops = DbOps {
            reads: 1,
            writes: 0,
        };
        assert!(checked(
            &mut cluster,
            &c,
            &n,
            NodeId(0),
            ShardId(0),
            ops,
            SimTime::ZERO
        )
        .is_ok());
        let e = checked(
            &mut cluster,
            &c,
            &n,
            NodeId(0),
            ShardId(0),
            ops,
            SimTime::from_millis(1),
        )
        .unwrap_err();
        assert_eq!(
            e.retry_after, None,
            "no supervisor answers across a severed link"
        );
        assert_eq!(
            e.at,
            SimTime::from_millis(1) + SimDuration::from_micros(250),
            "the refusal costs one round trip"
        );
        assert_eq!(cluster.epoch(ShardId(0)), 1);
        // After the heal the same session keeps working — it was never
        // evicted.
        assert!(checked(
            &mut cluster,
            &c,
            &n,
            NodeId(0),
            ShardId(0),
            ops,
            SimTime::from_millis(3)
        )
        .is_ok());
        let f = cluster.fault_stats();
        assert_eq!(f.partition_nacks, 1);
        assert_eq!(f.nacks, 1);
        assert_eq!(f.crashes, 0);
        assert_eq!(f.fenced_sessions, 0);
        assert!(cluster.take_crashes().is_empty(), "nothing to fence");
        assert_eq!(f.downtime, SimDuration::ZERO);
    }

    #[test]
    fn crash_loop_flaps_clamp_into_nonoverlapping_windows() {
        // The scripted period (1ms) is tighter than the outage (2ms +
        // recovery), so each flap clamps to fire at the previous
        // resume: downtime accrues sequentially, never double-counting
        // overlapped windows.
        let restart = SimDuration::from_millis(2);
        let plan = FaultPlan::default().crash_loop(
            ShardId(0),
            SimTime::from_millis(1),
            SimDuration::from_millis(1),
            restart,
            3,
        );
        let c = CofsConfig::default().with_fault_plan(plan.clone());
        let n = net();
        let mut cluster = MdsCluster::new(ShardPolicy::hash(1));
        cluster.arm_faults(plan);
        // One probe far in the future drives every scripted flap.
        let _ = cluster.admit(&c, &n, NodeId(0), ShardId(0), SimTime::from_secs(1));
        let f = cluster.fault_stats();
        assert_eq!(f.crashes, 3);
        // Empty replay: each window is restart + the journal-tail scan,
        // chained end to end.
        let per = restart + c.mds_service + c.db.lookup;
        assert_eq!(f.downtime, per * 3);
        assert_eq!(cluster.epoch(ShardId(0)), 4, "every flap fences");
    }
}
