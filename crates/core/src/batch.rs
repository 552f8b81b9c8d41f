//! Client-side batching and pipelining of metadata RPCs.
//!
//! After sharding (`mds_cluster`) and client caching (`client_cache`),
//! write storms are bounded by two per-operation costs the cache cannot
//! remove: one client↔shard round trip per mutation, and one commit-log
//! transaction per operation on a saturated shard CPU. Both are
//! *per-op* overheads that a dedicated metadata service can amortize
//! *across* operations — the structural advantage the paper claims for
//! restructuring (not merely relocating) metadata work.
//!
//! [`BatchPipeline`] models the client half: the COFS daemon on each
//! node coalesces consecutive same-shard metadata mutations into one
//! batch RPC, closing a batch when it reaches
//! [`BatchConfig::max_batch_ops`] or when its
//! [`BatchConfig::max_batch_delay`] window (in *virtual* time) lapses,
//! and keeps up to [`BatchConfig::pipeline_depth`] batches outstanding
//! per node. A mutation is *acknowledged* to the caller as soon as the
//! daemon buffers it; the client blocks only when it fills a batch
//! while every pipeline slot is occupied (flow control), so the round
//! trip and the shard's queueing leave the client's critical path. The
//! shard half lives in [`crate::mds_cluster::MdsCluster::request`]:
//! one RPC, one per-request CPU overhead, one lookup per distinct
//! ancestor-chain row the batch's ops resolve (read memoization: a
//! batch of creates into one directory reads the shared chain once),
//! and one group-commit transaction for the whole batch's writes,
//! priced at [`crate::config::DbCostModel`]'s rates.
//!
//! Semantics vs. cost: exactly like sharding and caching, batching is a
//! *cost* model, never a *truth* model. Every mutation is applied to
//! the unified [`crate::mds::Mds`] namespace synchronously, so for any
//! batch size, delay, and depth the user-visible outcome of any
//! operation sequence is bit-for-bit identical with batching on or off
//! — only simulated time and counters change. The differential suite
//! pins this. By default no pipeline is built
//! ([`crate::config::CofsConfig::batch`] is `None`), so the
//! paper-calibrated numbers are reproduced exactly.
//!
//! Ordering: operations to one shard from one node always append to
//! that node's open batch for the shard, batches close in FIFO order,
//! and issue in close order. Two conflicting same-path operations
//! always route to the same shard (policies are pure functions of the
//! path), so batching can never reorder them — a property test pins
//! this via the sequence numbers threaded through [`ReadyBatch::seqs`].
//!
//! Deliberate fidelity limits, both conservative and documented where
//! they bite:
//!
//! - reads overtake buffered writes (the namespace already reflects
//!   every buffered mutation, so a read never depends on unflushed
//!   work; real daemons route reads around the write queue the same
//!   way);
//! - lease recalls for a batched mutation are charged at buffering
//!   time, not at batch completion — the coherence protocol stays
//!   synchronous in virtual time while only the durability path is
//!   deferred.

use crate::mds::{DbOps, RowSet};
use crate::mds_cluster::ShardId;
use netsim::ids::NodeId;
use simcore::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// One buffered mutation: its database work plus the row keys of the
/// memoizable reads its resolution performed and the coalescable rows
/// it writes. The read set rides along so the shard prices the batch by
/// its *deduplicated* read set
/// ([`crate::mds_cluster::MdsCluster::request`]); the write set feeds
/// [`coalesce_writes`] when write-behind journaling is on, and is empty
/// otherwise.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchedOp {
    /// Rows read and written by the operation.
    pub db: DbOps,
    /// Keys of the ancestor-chain rows among `db.reads`.
    pub read_set: RowSet,
    /// Keys of the coalescable (shared-parent) rows among `db.writes`.
    pub write_set: RowSet,
}

impl BatchedOp {
    /// An op carrying no memoizable or coalescable keys (every read
    /// charged, every write applied).
    pub fn opaque(db: DbOps) -> Self {
        BatchedOp {
            db,
            read_set: RowSet::empty(),
            write_set: RowSet::empty(),
        }
    }
}

/// Result of same-parent sibling coalescing over one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalescedWrites {
    /// Rows the batch actually applies after coalescing.
    pub rows_applied: u64,
    /// Rows absorbed: duplicate write-set keys folded into the first
    /// op that touches them. `rows_applied + rows_coalesced` always
    /// equals the batch's raw write count.
    pub rows_coalesced: u64,
}

/// Folds same-parent sibling dentry updates across a batch: a row key
/// written by several ops in the batch is applied once, by the first
/// op that names it. A 16-create burst into one directory carries the
/// parent row's key 16 times and applies it once — 15 rows coalesced.
///
/// Only keys named in each op's [`BatchedOp::write_set`] participate;
/// op-private rows (child inodes, new dentries) carry no key and are
/// always applied. The applied row count is invariant to batch order
/// (which op absorbs a shared row depends on the order, how many rows
/// are absorbed does not), so deferred-apply pricing built on it is
/// order-stable.
///
/// # Examples
///
/// ```
/// use cofs::batch::{coalesce_writes, BatchedOp};
/// use cofs::mds::{DbOps, RowSet};
/// use vfs::path::vpath;
///
/// let creat = |name: &str| BatchedOp {
///     db: DbOps { reads: 2, writes: 3 },
///     write_set: RowSet::parent_row(&vpath(name)),
///     ..BatchedOp::default()
/// };
/// let batch = [creat("/shared/a"), creat("/shared/b"), creat("/shared/c")];
/// let cw = coalesce_writes(&batch);
/// // The first create applies all 3 rows; its siblings skip the
/// // parent row, so 9 raw writes apply as 7.
/// assert_eq!(cw.rows_applied, 7);
/// assert_eq!(cw.rows_coalesced, 2);
/// ```
pub fn coalesce_writes(ops: &[BatchedOp]) -> CoalescedWrites {
    let mut seen = RowSet::empty();
    let mut cw = CoalescedWrites {
        rows_applied: 0,
        rows_coalesced: 0,
    };
    for o in ops {
        // The RowSet invariant (len <= db.writes) bounds the repeats;
        // min() keeps hand-built harness ops sane.
        let dups = seen.merge(&o.write_set).min(o.db.writes);
        cw.rows_applied += o.db.writes - dups;
        cw.rows_coalesced += dups;
    }
    cw
}

/// Batching knobs on [`crate::config::CofsConfig`]. A config without
/// them (the default) builds no pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchConfig {
    /// A batch closes (and goes on the wire) when it holds this many
    /// operations. `1` degenerates to per-op RPCs that are still
    /// pipelined.
    pub max_batch_ops: usize,
    /// A batch closes at the latest this long (virtual time) after its
    /// first operation was buffered, even if not full — the Nagle
    /// window. Sparse mutators therefore pay up to this much extra
    /// completion latency: batching's measured non-win.
    pub max_batch_delay: SimDuration,
    /// Outstanding (issued, uncompleted) batches allowed per node; a
    /// full batch closing with every slot occupied blocks the client
    /// until the oldest batch completes (flow control).
    pub pipeline_depth: usize,
}

impl BatchConfig {
    /// A batching layer with the given knobs.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch_ops` or `pipeline_depth` is zero.
    pub fn new(max_batch_ops: usize, max_batch_delay: SimDuration, depth: usize) -> Self {
        assert!(max_batch_ops > 0, "a batch holds at least one op");
        assert!(depth > 0, "the pipeline needs at least one slot");
        BatchConfig {
            max_batch_ops,
            max_batch_delay,
            pipeline_depth: depth,
        }
    }
}

/// Why a batch left the open state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// Reached [`BatchConfig::max_batch_ops`].
    Full,
    /// Its delay window lapsed before filling.
    Timer,
    /// End-of-phase drain flushed it.
    Drain,
}

/// A closed batch the pipeline has scheduled onto the wire.
#[derive(Debug, Clone)]
pub struct ReadyBatch {
    /// The shard every operation in this batch routes to.
    pub shard: ShardId,
    /// The database work (and read keys) of each operation, in
    /// submission order.
    pub ops: Vec<BatchedOp>,
    /// Submission sequence numbers, parallel to `ops` (ordering
    /// audits; strictly increasing within a batch).
    pub seqs: Vec<u64>,
    /// When the batch closed (full: the triggering op's time; timer or
    /// drain: the window deadline).
    pub flushed_at: SimTime,
    /// When it actually goes on the wire, after pipeline-slot
    /// backpressure (`>= flushed_at`).
    pub issue_at: SimTime,
    /// Why it closed.
    pub reason: FlushReason,
}

/// Aggregate batching counters across all client nodes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Mutations buffered into batches.
    pub ops_enqueued: u64,
    /// Batch RPCs put on the wire.
    pub batches_issued: u64,
    /// Batches closed by reaching `max_batch_ops`.
    pub flush_full: u64,
    /// Batches closed by their delay window.
    pub flush_timer: u64,
    /// Batches closed by an end-of-phase drain.
    pub flush_drain: u64,
    /// Largest batch issued.
    pub largest_batch: u64,
}

impl BatchStats {
    /// Mean operations per issued batch (0.0 when idle).
    pub fn mean_batch_ops(&self) -> f64 {
        if self.batches_issued == 0 {
            0.0
        } else {
            self.ops_enqueued as f64 / self.batches_issued as f64
        }
    }
}

#[derive(Debug)]
struct OpenBatch {
    ops: Vec<BatchedOp>,
    seqs: Vec<u64>,
    deadline: SimTime,
}

#[derive(Debug)]
struct ClosedBatch {
    shard: ShardId,
    ops: Vec<BatchedOp>,
    seqs: Vec<u64>,
    flushed_at: SimTime,
    reason: FlushReason,
}

#[derive(Debug, Default)]
struct NodeState {
    /// Open batches keyed by shard index (deterministic order).
    open: BTreeMap<usize, OpenBatch>,
    /// Closed batches awaiting issue, FIFO.
    ready: VecDeque<ClosedBatch>,
    /// Completion times of issued, possibly still outstanding batches.
    inflight: Vec<SimTime>,
    /// Earliest time the daemon can acknowledge the op being buffered
    /// (raised by flow control when a full batch waits for a slot).
    ack_floor: SimTime,
    /// A batch from `take_due` awaits its `record_completion`.
    awaiting_completion: bool,
}

/// The per-node batching/pipelining state of the whole client
/// population.
///
/// Owned by [`crate::fs::CofsFs`], which buffers every single-shard
/// metadata mutation here and issues the closed batches through
/// [`crate::mds_cluster::MdsCluster::request`]. The handshake per
/// node is strict: [`BatchPipeline::take_due`] hands out one batch,
/// whose completion must be reported via
/// [`BatchPipeline::record_completion`] before the next `take_due`, so
/// pipeline-slot accounting always sees real completion times.
///
/// # Examples
///
/// ```
/// use cofs::batch::{BatchConfig, BatchPipeline, BatchedOp};
/// use cofs::mds::DbOps;
/// use cofs::mds_cluster::ShardId;
/// use netsim::ids::NodeId;
/// use simcore::time::{SimDuration, SimTime};
///
/// let cfg = BatchConfig::new(2, SimDuration::from_millis(1), 2);
/// let mut p = BatchPipeline::new(cfg);
/// let (n, s) = (NodeId(0), ShardId(0));
/// let w = BatchedOp::opaque(DbOps { reads: 1, writes: 1 });
/// p.enqueue(n, s, w.clone(), SimTime::ZERO);
/// assert!(p.take_due(n, SimTime::ZERO).is_none()); // still open
/// p.enqueue(n, s, w, SimTime::ZERO);
/// let batch = p.take_due(n, SimTime::ZERO).expect("full at 2 ops");
/// assert_eq!(batch.ops.len(), 2);
/// p.record_completion(n, SimTime::from_micros(300));
/// ```
#[derive(Debug)]
pub struct BatchPipeline {
    cfg: BatchConfig,
    // Ordered so per-node bookkeeping sweeps run in NodeId order on
    // every platform (lint rule D003).
    nodes: BTreeMap<NodeId, NodeState>,
    seq: u64,
    stats: BatchStats,
}

impl BatchPipeline {
    /// Creates an idle pipeline with the given knobs.
    pub fn new(cfg: BatchConfig) -> Self {
        BatchPipeline {
            cfg,
            nodes: BTreeMap::new(),
            seq: 0,
            stats: BatchStats::default(),
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> &BatchConfig {
        &self.cfg
    }

    /// Aggregate counters since the last [`Self::reset_stats`].
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// Clears the counters; buffered and outstanding batches survive.
    pub fn reset_stats(&mut self) {
        self.stats = BatchStats::default();
    }

    /// Rewinds to virtual time zero between benchmark phases: drops
    /// completed-batch bookkeeping and counters. The caller must drain
    /// first — rewinding with work still buffered would leak its cost.
    ///
    /// # Panics
    ///
    /// Panics if any node still has open or ready batches.
    pub fn reset_time(&mut self) {
        for (node, st) in &self.nodes {
            assert!(
                st.open.is_empty() && st.ready.is_empty() && !st.awaiting_completion,
                "reset_time with undrained batches on {node:?}"
            );
        }
        for st in self.nodes.values_mut() {
            st.inflight.clear();
            st.ack_floor = SimTime::ZERO;
        }
        self.stats = BatchStats::default();
    }

    /// Buffers one mutation for `shard` at time `now` and returns its
    /// sequence number. Closes the node's delay-expired batches (at
    /// their deadlines) and, if this op fills its batch, that batch (at
    /// `now`). Follow with [`Self::take_due`] until empty, then read
    /// the op's acknowledgement time via [`Self::ack_time`].
    pub fn enqueue(&mut self, node: NodeId, shard: ShardId, ops: BatchedOp, now: SimTime) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.stats.ops_enqueued += 1;
        let max_ops = self.cfg.max_batch_ops;
        let delay = self.cfg.max_batch_delay;
        let st = self.nodes.entry(node).or_default();
        st.ack_floor = now;
        Self::close_due(st, now, &mut self.stats);
        let open = st.open.entry(shard.0).or_insert_with(|| OpenBatch {
            ops: Vec::new(),
            seqs: Vec::new(),
            deadline: now + delay,
        });
        open.ops.push(ops);
        open.seqs.push(seq);
        if open.ops.len() >= max_ops {
            let open = st.open.remove(&shard.0).expect("just inserted");
            self.stats.flush_full += 1;
            st.ready.push_back(ClosedBatch {
                shard,
                ops: open.ops,
                seqs: open.seqs,
                flushed_at: now,
                reason: FlushReason::Full,
            });
        }
        seq
    }

    /// Moves every open batch whose delay window lapsed by `now` to the
    /// ready queue, in (deadline, shard) order, as if its flush timer
    /// had fired at the deadline.
    fn close_due(st: &mut NodeState, now: SimTime, stats: &mut BatchStats) {
        Self::close_expired(st, Some(now), FlushReason::Timer, stats);
    }

    /// Closes open batches at their window deadlines, in (deadline,
    /// shard) order: those lapsed by `upto`, or every one when `upto`
    /// is `None` (drain). Timer and drain closes share this path so a
    /// batch flushes identically however its window ends.
    fn close_expired(
        st: &mut NodeState,
        upto: Option<SimTime>,
        reason: FlushReason,
        stats: &mut BatchStats,
    ) {
        let mut due: Vec<(SimTime, usize)> = st
            .open
            .iter()
            .filter(|(_, b)| upto.is_none_or(|now| b.deadline <= now))
            .map(|(&s, b)| (b.deadline, s))
            .collect();
        due.sort();
        for (deadline, shard) in due {
            let open = st.open.remove(&shard).expect("collected from the map");
            match reason {
                FlushReason::Timer => stats.flush_timer += 1,
                FlushReason::Drain => stats.flush_drain += 1,
                FlushReason::Full => unreachable!("full batches close in enqueue"),
            }
            st.ready.push_back(ClosedBatch {
                shard: ShardId(shard),
                ops: open.ops,
                seqs: open.seqs,
                flushed_at: deadline,
                reason,
            });
        }
    }

    /// Pops the next closed batch of `node` due by `horizon`, with its
    /// issue time after pipeline-slot backpressure. A batch closed by
    /// fullness that had to wait for a slot raises the node's
    /// acknowledgement floor — that wait is the client-visible part of
    /// batching.
    ///
    /// # Panics
    ///
    /// Panics if the previous batch's completion was not recorded.
    pub fn take_due(&mut self, node: NodeId, horizon: SimTime) -> Option<ReadyBatch> {
        let depth = self.cfg.pipeline_depth;
        let st = self.nodes.get_mut(&node)?;
        assert!(
            !st.awaiting_completion,
            "take_due before record_completion on {node:?}"
        );
        if st.ready.front()?.flushed_at > horizon {
            return None;
        }
        let b = st.ready.pop_front().expect("peeked above");
        let issue_at = Self::slot_time(&mut st.inflight, depth, b.flushed_at);
        if b.reason == FlushReason::Full {
            st.ack_floor = st.ack_floor.max(issue_at);
        }
        st.awaiting_completion = true;
        self.stats.batches_issued += 1;
        self.stats.largest_batch = self.stats.largest_batch.max(b.ops.len() as u64);
        Some(ReadyBatch {
            shard: b.shard,
            ops: b.ops,
            seqs: b.seqs,
            flushed_at: b.flushed_at,
            issue_at,
            reason: b.reason,
        })
    }

    /// Earliest time a new batch can go on the wire given `depth`
    /// pipeline slots: completions at or before the candidate time free
    /// their slots; with all slots held, the batch waits for the
    /// earliest outstanding completion.
    fn slot_time(inflight: &mut Vec<SimTime>, depth: usize, mut t: SimTime) -> SimTime {
        inflight.retain(|&c| c > t);
        while inflight.len() >= depth {
            let (i, &m) = inflight
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| **c)
                .expect("non-empty while over capacity");
            t = t.max(m);
            inflight.swap_remove(i);
            inflight.retain(|&c| c > t);
        }
        t
    }

    /// Records the wire completion time of the batch most recently
    /// returned by [`Self::take_due`] for `node`.
    ///
    /// # Panics
    ///
    /// Panics if no batch of `node` awaits completion.
    pub fn record_completion(&mut self, node: NodeId, done: SimTime) {
        let st = self.nodes.get_mut(&node).expect("node has issued batches");
        assert!(
            st.awaiting_completion,
            "record_completion without take_due on {node:?}"
        );
        st.awaiting_completion = false;
        st.inflight.push(done);
    }

    /// When the daemon acknowledges the op buffered at `now` — `now`
    /// itself unless flow control made a full batch wait for a pipeline
    /// slot during this submission.
    pub fn ack_time(&self, node: NodeId, now: SimTime) -> SimTime {
        self.nodes
            .get(&node)
            .map_or(now, |st| now.max(st.ack_floor))
    }

    /// Closes every open batch of `node` for an end-of-phase drain.
    /// Each flushes at its natural window deadline, exactly when its
    /// timer would have fired.
    pub fn close_all(&mut self, node: NodeId) {
        let Some(st) = self.nodes.get_mut(&node) else {
            return;
        };
        Self::close_expired(st, None, FlushReason::Drain, &mut self.stats);
    }

    /// Nodes with buffered (open or ready) batches, in id order.
    pub fn nodes_with_work(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self
            .nodes
            .iter()
            .filter(|(_, st)| !st.open.is_empty() || !st.ready.is_empty())
            .map(|(&n, _)| n)
            .collect();
        nodes.sort();
        nodes
    }

    /// Latest completion among every node's issued batches, if any —
    /// the tail an end-of-phase drain folds into the makespan.
    pub fn last_completion(&self) -> Option<SimTime> {
        self.nodes
            .values()
            .flat_map(|st| st.inflight.iter().copied())
            .max()
    }

    /// Operations currently buffered in `node`'s open batches.
    pub fn buffered_ops(&self, node: NodeId) -> usize {
        self.nodes
            .get(&node)
            .map_or(0, |st| st.open.values().map(|b| b.ops.len()).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mds::RowKey;

    fn on(max_ops: usize, delay_us: u64, depth: usize) -> BatchPipeline {
        BatchPipeline::new(BatchConfig::new(
            max_ops,
            SimDuration::from_micros(delay_us),
            depth,
        ))
    }

    fn w() -> BatchedOp {
        BatchedOp::opaque(DbOps {
            reads: 1,
            writes: 1,
        })
    }

    fn keyed(writes: u64, keys: &[RowKey]) -> BatchedOp {
        BatchedOp {
            db: DbOps { reads: 0, writes },
            write_set: RowSet::from_keys(keys.iter().copied()),
            ..BatchedOp::default()
        }
    }

    #[test]
    fn coalesce_folds_shared_rows_onto_first_toucher() {
        // 16 creates into one directory: 3 writes each, one shared
        // parent row — the canonical bursty-storm batch.
        let batch: Vec<BatchedOp> = (0..16).map(|_| keyed(3, &[42])).collect();
        let cw = coalesce_writes(&batch);
        // The first create applies all 3 rows, the 15 others 2 each.
        assert_eq!(cw.rows_applied, 3 + 15 * 2);
        assert_eq!(cw.rows_coalesced, 15);
        assert_eq!(cw.rows_applied + cw.rows_coalesced, 48, "rows conserved");
    }

    #[test]
    fn coalesce_is_identity_without_shared_keys() {
        // Distinct parents (or no keys at all): nothing to fold.
        let batch = [
            keyed(3, &[1]),
            keyed(2, &[2]),
            BatchedOp::opaque(DbOps {
                reads: 0,
                writes: 4,
            }),
        ];
        let cw = coalesce_writes(&batch);
        assert_eq!(cw.rows_applied, 3 + 2 + 4);
        assert_eq!(cw.rows_coalesced, 0);
        // Batch of one never coalesces, whatever it carries.
        let one = coalesce_writes(&[keyed(3, &[42])]);
        assert_eq!(one.rows_applied, 3);
        assert_eq!(one.rows_coalesced, 0);
    }

    #[test]
    fn coalesce_total_is_order_invariant() {
        // Rename-style ops carrying two keys, interleaved with creates:
        // which op absorbs a shared row shifts with order, the totals
        // never do.
        let a = keyed(1, &[7]);
        let b = keyed(2, &[7, 8]);
        let c = keyed(3, &[8]);
        let fwd = coalesce_writes(&[a.clone(), b.clone(), c.clone()]);
        let rev = coalesce_writes(&[c, b, a]);
        assert_eq!(fwd, rev);
        assert_eq!(fwd.rows_applied + fwd.rows_coalesced, 6, "rows conserved");
    }

    #[test]
    fn coalesce_clamps_hand_built_ops() {
        // A harness op naming more keys than writes cannot go negative.
        let odd = keyed(1, &[5, 6]);
        let cw = coalesce_writes(&[odd.clone(), odd]);
        assert_eq!(cw.rows_applied, 1);
        assert_eq!(cw.rows_coalesced, 1);
    }

    #[test]
    fn batch_closes_when_full_and_preserves_order() {
        let mut p = on(3, 1_000, 4);
        let (n, s) = (NodeId(0), ShardId(2));
        let seqs: Vec<u64> = (0..3)
            .map(|_| p.enqueue(n, s, w(), SimTime::ZERO))
            .collect();
        let b = p.take_due(n, SimTime::ZERO).expect("full");
        assert_eq!(b.reason, FlushReason::Full);
        assert_eq!(b.shard, s);
        assert_eq!(b.seqs, seqs);
        assert_eq!(b.issue_at, SimTime::ZERO);
        p.record_completion(n, SimTime::from_micros(10));
        assert!(p.take_due(n, SimTime::MAX).is_none());
        assert_eq!(p.stats().flush_full, 1);
        assert_eq!(p.stats().largest_batch, 3);
    }

    #[test]
    fn delay_window_closes_at_deadline() {
        let mut p = on(8, 100, 4);
        let (n, s) = (NodeId(0), ShardId(0));
        p.enqueue(n, s, w(), SimTime::ZERO);
        // Window still open: nothing due.
        assert!(p.take_due(n, SimTime::from_micros(99)).is_none());
        // The next submission after the deadline closes the old batch
        // at its deadline, then opens a fresh one.
        p.enqueue(n, s, w(), SimTime::from_micros(250));
        let b = p.take_due(n, SimTime::from_micros(250)).expect("timed out");
        assert_eq!(b.reason, FlushReason::Timer);
        assert_eq!(b.flushed_at, SimTime::from_micros(100));
        assert_eq!(b.ops.len(), 1);
        p.record_completion(n, SimTime::from_micros(300));
        assert_eq!(p.buffered_ops(n), 1);
        assert_eq!(p.stats().flush_timer, 1);
    }

    #[test]
    fn different_shards_batch_independently() {
        let mut p = on(2, 1_000, 4);
        let n = NodeId(0);
        p.enqueue(n, ShardId(0), w(), SimTime::ZERO);
        p.enqueue(n, ShardId(1), w(), SimTime::ZERO);
        assert!(p.take_due(n, SimTime::ZERO).is_none());
        p.enqueue(n, ShardId(1), w(), SimTime::ZERO);
        let b = p.take_due(n, SimTime::ZERO).expect("shard 1 full");
        assert_eq!(b.shard, ShardId(1));
        p.record_completion(n, SimTime::from_micros(10));
        assert_eq!(p.buffered_ops(n), 1);
    }

    #[test]
    fn pipeline_depth_backpressures_full_batches() {
        let mut p = on(1, 1_000, 2);
        let (n, s) = (NodeId(0), ShardId(0));
        // Two slow batches occupy both slots.
        for done_ms in [10u64, 12] {
            p.enqueue(n, s, w(), SimTime::ZERO);
            let b = p.take_due(n, SimTime::ZERO).expect("full at 1");
            assert_eq!(b.issue_at, SimTime::ZERO);
            p.record_completion(n, SimTime::from_millis(done_ms));
        }
        assert_eq!(p.ack_time(n, SimTime::ZERO), SimTime::ZERO);
        // The third must wait for the oldest (10ms) completion, and the
        // wait surfaces in the acknowledgement floor.
        p.enqueue(n, s, w(), SimTime::from_micros(5));
        let b = p.take_due(n, SimTime::from_micros(5)).expect("full at 1");
        assert_eq!(b.issue_at, SimTime::from_millis(10));
        p.record_completion(n, SimTime::from_millis(20));
        assert_eq!(
            p.ack_time(n, SimTime::from_micros(5)),
            SimTime::from_millis(10)
        );
    }

    #[test]
    fn drain_flushes_at_natural_deadlines() {
        let mut p = on(8, 500, 4);
        let n = NodeId(3);
        p.enqueue(n, ShardId(0), w(), SimTime::from_micros(10));
        p.enqueue(n, ShardId(1), w(), SimTime::from_micros(40));
        assert_eq!(p.nodes_with_work(), vec![n]);
        p.close_all(n);
        let a = p.take_due(n, SimTime::MAX).expect("drained");
        assert_eq!(a.reason, FlushReason::Drain);
        assert_eq!(a.flushed_at, SimTime::from_micros(510));
        p.record_completion(n, SimTime::from_micros(600));
        let b = p.take_due(n, SimTime::MAX).expect("drained");
        assert_eq!(b.flushed_at, SimTime::from_micros(540));
        p.record_completion(n, SimTime::from_micros(700));
        assert!(p.take_due(n, SimTime::MAX).is_none());
        assert!(p.nodes_with_work().is_empty());
        assert_eq!(p.last_completion(), Some(SimTime::from_micros(700)));
        assert_eq!(p.stats().flush_drain, 2);
        p.reset_time();
        assert_eq!(p.last_completion(), None);
        assert_eq!(p.stats(), BatchStats::default());
    }

    #[test]
    fn mean_batch_ops_reflects_coalescing() {
        let mut p = on(4, 1_000, 4);
        let (n, s) = (NodeId(0), ShardId(0));
        for _ in 0..8 {
            p.enqueue(n, s, w(), SimTime::ZERO);
            if let Some(_b) = p.take_due(n, SimTime::ZERO) {
                p.record_completion(n, SimTime::from_micros(1));
            }
        }
        let st = p.stats();
        assert_eq!(st.ops_enqueued, 8);
        assert_eq!(st.batches_issued, 2);
        assert!((st.mean_batch_ops() - 4.0).abs() < 1e-9);
        assert_eq!(BatchStats::default().mean_batch_ops(), 0.0);
    }

    #[test]
    #[should_panic(expected = "undrained batches")]
    fn reset_time_rejects_buffered_work() {
        let mut p = on(8, 1_000, 4);
        p.enqueue(NodeId(0), ShardId(0), w(), SimTime::ZERO);
        p.reset_time();
    }
}
