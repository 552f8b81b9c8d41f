//! Integration tests for shard-side batch read memoization and the
//! read-priority service lane: the calibration guards (a batch of one
//! reproduces the unbatched path and an unused priority lane the FIFO
//! path, bit for bit), the acceptance wins (the bursty
//! storm's batches charge each shared ancestor row once, so the storm
//! improves with batch size; the mixed storm's stat p99 stops tracking
//! `max_batch_ops` under the priority lane), and the pricing
//! properties — a batch never prices above the same batch with its
//! read sets stripped, and is invariant to op order.

use cofs::batch::BatchedOp;
use cofs::config::{CofsConfig, MdsNetwork, ShardPolicyKind};
use cofs::fs::CofsFs;
use cofs::mds::{Cred, DbOps, Mds, RowSet};
use cofs::mds_cluster::{MdsCluster, Shape, ShardId, ShardPolicy};
use cofs_tests::cofs_over_memfs;
use netsim::ids::NodeId;
use simcore::time::{SimDuration, SimTime};
use vfs::fs::OpCtx;
use vfs::memfs::MemFs;
use vfs::path::vpath;
use vfs::types::Mode;
use workloads::scenarios::{ScenarioResult, SharedDirStorm};

fn net() -> MdsNetwork {
    MdsNetwork::uniform(SimDuration::from_micros(250))
}

fn stack(max_batch_ops: Option<usize>, priority: bool) -> CofsFs<MemFs> {
    let mut cfg = CofsConfig::default().with_shards(2, ShardPolicyKind::HashByParent);
    if let Some(k) = max_batch_ops {
        cfg = cfg.with_batching(k, SimDuration::from_millis(5), 4);
    }
    if priority {
        cfg = cfg.with_read_priority();
    }
    cofs_over_memfs(cfg)
}

/// A one-shard batching config for pricing batches by hand.
fn batched_cfg() -> CofsConfig {
    CofsConfig::default().with_batching(64, SimDuration::from_millis(5), 4)
}

/// Prices one batch on a fresh single-shard cluster and returns
/// (client completion time, shard busy time).
fn price(cfg: &CofsConfig, ops: &[BatchedOp]) -> (SimTime, SimDuration) {
    let mut cluster = MdsCluster::new(ShardPolicy::hash(1));
    let done = cluster.request(
        cfg,
        &net(),
        NodeId(0),
        Shape::Batch(ShardId(0)),
        ops,
        SimTime::ZERO,
    );
    (done, cluster.usage()[0].busy)
}

/// The same batch with its read sets stripped: every row read charged,
/// the unmemoized reference.
fn stripped(ops: &[BatchedOp]) -> Vec<BatchedOp> {
    ops.iter().map(|o| BatchedOp::opaque(o.db)).collect()
}

/// `k` creates into one of the bursty storm's directories, as the
/// daemon buffers them: each op's row counts from a namespace holding
/// the directory, and its resolution chain as its read set.
fn create_train(k: usize) -> Vec<BatchedOp> {
    let ctx = OpCtx::test(NodeId(0));
    let cred = Cred {
        uid: ctx.uid,
        gid: ctx.gid,
    };
    let mut ns = Mds::new();
    for dir in ["/storm", "/storm/d0"] {
        ns.mkdir(cred, &vpath(dir), Mode::dir_default(), SimTime::ZERO)
            .unwrap();
    }
    (0..k)
        .map(|i| {
            let path = vpath(&format!("/storm/d0/f{i}"));
            let under = vpath(&format!("/.cofs/i{i}"));
            let (_, db) = ns
                .create(cred, &path, Mode::file_default(), under, SimTime::ZERO)
                .unwrap();
            BatchedOp {
                db,
                read_set: RowSet::resolution_chain(&path).truncated(db.reads),
                ..BatchedOp::default()
            }
        })
        .collect()
}

/// The bursty create storm of the scaling sweep's batching axis
/// (shrunk), so the acceptance claim is pinned by an exact-virtual-time
/// test and not only by the CI gate on the JSON report.
fn burst_storm() -> SharedDirStorm {
    SharedDirStorm {
        nodes: 8,
        dirs: 8,
        files_per_node: 64,
        stats_per_create: 0,
        burst: 16,
        ..SharedDirStorm::default()
    }
}

/// Row reads the shards charged and memoized over a run.
fn reads(r: &ScenarioResult) -> (u64, u64) {
    let charged = r.per_shard.iter().map(|u| u.reads_charged).sum();
    let memoized = r.per_shard.iter().map(|u| u.reads_memoized).sum();
    (charged, memoized)
}

#[test]
fn memoized_storm_beats_unmemoized_at_every_batch_size_and_its_ceiling() {
    // A batch of one memoizes nothing, so the 1-op storm charges every
    // row the storm reads.
    let one = burst_storm().run(&mut stack(Some(1), false));
    let (rows_read, none) = reads(&one);
    assert_eq!(none, 0);
    let mut makespans = Vec::new();
    let mut absorbed = Vec::new();
    for k in [4usize, 16] {
        // The storm's batch shape prices strictly below the same batch
        // with its read sets stripped.
        let train = create_train(k);
        let (memo_done, memo_busy) = price(&batched_cfg(), &train);
        let (plain_done, plain_busy) = price(&batched_cfg(), &stripped(&train));
        assert!(
            memo_done < plain_done && memo_busy < plain_busy,
            "memoization must strictly win at {k}-op batches: {memo_done:?} vs {plain_done:?}"
        );
        // The storm reads the same rows at every batch size; its
        // batches only stop charging the repeats.
        let r = burst_storm().run(&mut stack(Some(k), false));
        let (charged, memoized) = reads(&r);
        assert!(memoized > 0, "the win must come from absorbed row reads");
        assert_eq!(charged + memoized, rows_read, "{k}-op batches");
        makespans.push(r.makespan);
        absorbed.push(memoized);
    }
    // Bigger batches share more of the parent chain, and the storm
    // keeps improving with batch size.
    assert!(absorbed[1] > absorbed[0], "{absorbed:?}");
    assert!(
        makespans[1] < makespans[0],
        "makespan must improve 4 -> 16: {makespans:?}"
    );
    // The 16-op storm beats both per-op row-work ceilings: singleton
    // batches and batching off.
    let off = burst_storm().run(&mut stack(None, false));
    assert!(makespans[1] < one.makespan);
    assert!(makespans[1] < off.makespan);
}

#[test]
fn memoized_batch_of_one_is_bit_for_bit_unmemoized() {
    // Batch size 1: every batch is a singleton, so it memoizes nothing
    // and each op costs the shard exactly what its synchronous request
    // does — the same rows for the same CPU time as batching off.
    let off = burst_storm().run(&mut stack(None, false));
    let one = burst_storm().run(&mut stack(Some(1), false));
    assert_eq!(reads(&one).1, 0, "singleton batches have nothing to dedupe");
    for (a, b) in off.per_shard.iter().zip(one.per_shard.iter()) {
        assert_eq!(a.busy, b.busy);
        assert_eq!(a.rpcs, b.rpcs);
        assert_eq!(a.reads_charged, b.reads_charged);
    }
    // A one-op batch prices as the same op with its read set stripped.
    let train = create_train(1);
    assert_eq!(
        price(&batched_cfg(), &train),
        price(&batched_cfg(), &stripped(&train))
    );
}

#[test]
fn priority_off_mixed_storm_matches_default_bit_for_bit() {
    // The priority-capable queue with the lane unused must reproduce
    // the FIFO trajectory exactly — the calibration guard for the
    // two-lane resource swap.
    let storm = SharedDirStorm::mixed(4, 32);
    let fifo = storm.run(&mut stack(Some(8), false));
    let default_cfg = storm.run(&mut cofs_over_memfs(
        CofsConfig::default()
            .with_shards(2, ShardPolicyKind::HashByParent)
            .with_batching(8, SimDuration::from_millis(5), 4),
    ));
    assert_eq!(fifo.makespan, default_cfg.makespan);
    assert_eq!(fifo.stat_p50_p99_ms, default_cfg.stat_p50_p99_ms);
    let bypasses: u64 = fifo.per_shard.iter().map(|u| u.read_bypasses).sum();
    assert_eq!(bypasses, 0);
}

#[test]
fn priority_lane_decouples_stat_p99_from_batch_size() {
    let storm = SharedDirStorm::mixed(8, 32);
    let p99 = |r: &ScenarioResult| r.stat_p50_p99_ms.expect("storm measures stats").1;
    let run = |k: Option<usize>, prio: bool| storm.run(&mut stack(k, prio));
    let fifo_off = run(None, false);
    let fifo_16 = run(Some(16), false);
    let prio_off = run(None, true);
    let prio_16 = run(Some(16), true);
    // Head-of-line blocking is real under FIFO: the tail grows with
    // the batch size.
    assert!(
        p99(&fifo_16) > 2.0 * p99(&fifo_off),
        "16-op lumps must inflate the FIFO stat tail: {} vs {} ms",
        p99(&fifo_16),
        p99(&fifo_off)
    );
    // The priority lane removes what FIFO queues: at every batch size
    // the priority tail is no worse, and at 16 ops it stays bounded by
    // the in-service lump instead of tracking the queue.
    assert!(p99(&prio_off) <= p99(&fifo_off) + 1e-9);
    assert!(
        p99(&prio_16) < p99(&fifo_16),
        "priority must beat FIFO at 16-op batches: {} vs {} ms",
        p99(&prio_16),
        p99(&fifo_16)
    );
    assert!(
        p99(&prio_16) <= 2.0 * p99(&prio_off),
        "the priority tail must stop growing with max_batch_ops: \
         {} vs {} ms at batching off",
        p99(&prio_16),
        p99(&prio_off)
    );
    // The bypasses show up in the shard counters, and the makespan
    // keeps its batching win.
    let bypasses: u64 = prio_16.per_shard.iter().map(|u| u.read_bypasses).sum();
    assert!(bypasses > 0);
    assert!(prio_16.makespan < fifo_off.makespan);
}

#[test]
fn memoization_and_priority_compose() {
    let storm = SharedDirStorm::mixed(8, 32);
    let p99 = |r: &ScenarioResult| r.stat_p50_p99_ms.expect("storm measures stats").1;
    let base = storm.run(&mut stack(Some(8), false));
    let both = storm.run(&mut stack(Some(8), true));
    assert!(
        both.makespan < base.makespan,
        "memoized lumps + bypassing reads must beat FIFO batching: {:?} vs {:?}",
        both.makespan,
        base.makespan
    );
    assert!(p99(&both) < p99(&base));
    // Both runs' batches share row reads; only the priority run's
    // reads bypass them.
    assert!(reads(&base).1 > 0 && reads(&both).1 > 0);
    let bypasses: u64 = both.per_shard.iter().map(|u| u.read_bypasses).sum();
    assert!(bypasses > 0, "{bypasses}");
}

/// Pricing properties of the memoized batch path, driven straight
/// through [`MdsCluster::request`] on synthetic batches.
mod pricing_props {
    use super::*;
    use proptest::prelude::*;

    /// Builds a deterministic batch from a seed: each op draws reads,
    /// writes, and a key set no larger than its read count from a
    /// small shared pool (so cross-op sharing actually happens).
    fn gen_batch(seed: u64, len: usize) -> Vec<BatchedOp> {
        let mut rng = simcore::rng::SimRng::seed_from(seed);
        let pool: Vec<u64> = (100..112).collect();
        (0..len)
            .map(|_| {
                let reads = rng.below(8);
                let writes = rng.below(4);
                let n_keys = rng.below(reads + 1) as usize;
                let keys: Vec<u64> = (0..n_keys)
                    .map(|_| pool[rng.below(pool.len() as u64) as usize])
                    .collect();
                // from_keys dedupes, so len() <= n_keys <= reads holds.
                BatchedOp {
                    db: DbOps { reads, writes },
                    read_set: RowSet::from_keys(keys),
                    ..BatchedOp::default()
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn memoized_pricing_never_exceeds_unmemoized_and_ignores_op_order(
            seed in 0u64..10_000,
            len in 1usize..24,
        ) {
            let cfg = batched_cfg();
            let batch = gen_batch(seed, len);
            let (plain_done, plain_busy) = price(&cfg, &stripped(&batch));
            let (memo_done, memo_busy) = price(&cfg, &batch);
            prop_assert!(memo_done <= plain_done);
            prop_assert!(memo_busy <= plain_busy);
            // Any permutation of the ops prices identically: the
            // deduplicated read set is a property of the batch, not of
            // the order the daemon buffered it in.
            let mut rng = simcore::rng::SimRng::seed_from(seed ^ 0xD00D);
            let mut shuffled = batch.clone();
            for i in (1..shuffled.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                shuffled.swap(i, j);
            }
            let (shuffled_done, shuffled_busy) = price(&cfg, &shuffled);
            prop_assert_eq!(memo_done, shuffled_done);
            prop_assert_eq!(memo_busy, shuffled_busy);
            // A batch of one never memoizes: singleton pricing is
            // bit-for-bit the stripped batch's.
            let (one_plain, _) = price(&cfg, &stripped(&batch[..1]));
            let (one_memo, _) = price(&cfg, &batch[..1]);
            prop_assert_eq!(one_plain, one_memo);
        }
    }
}
