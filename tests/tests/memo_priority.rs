//! Integration tests for shard-side batch read memoization and the
//! read-priority service lane: the calibration guards (every knob off
//! — and a batch of one — is bit-for-bit the PR 4 path at RPC, fs, and
//! storm level), the acceptance wins (the memoized bursty storm
//! improves monotonically past the unmemoized ceiling; the mixed
//! storm's stat p99 stops tracking `max_batch_ops` under the priority
//! lane), and the pricing properties — memoized batch pricing never
//! exceeds unmemoized and is invariant to op order within a batch.

use cofs::batch::BatchedOp;
use cofs::config::{CofsConfig, MdsNetwork, ShardPolicyKind};
use cofs::fs::CofsFs;
use cofs::mds::{DbOps, ReadSet};
use cofs::mds_cluster::{MdsCluster, Shape, ShardId, ShardPolicy};
use cofs_tests::cofs_over_memfs;
use netsim::ids::NodeId;
use simcore::time::{SimDuration, SimTime};
use vfs::memfs::MemFs;
use workloads::scenarios::{ScenarioResult, SharedDirStorm};

fn net() -> MdsNetwork {
    MdsNetwork::uniform(SimDuration::from_micros(250))
}

fn stack(max_batch_ops: Option<usize>, memoize: bool, priority: bool) -> CofsFs<MemFs> {
    let mut cfg = CofsConfig::default().with_shards(2, ShardPolicyKind::HashByParent);
    if let Some(k) = max_batch_ops {
        cfg = cfg.with_batching(k, SimDuration::from_millis(5), 4);
    }
    if memoize {
        cfg = cfg.with_read_memoization();
    }
    if priority {
        cfg = cfg.with_read_priority();
    }
    cofs_over_memfs(cfg)
}

/// The bursty create storm of the scaling sweep's memoization axis
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

#[test]
fn memoized_storm_beats_unmemoized_at_every_batch_size_and_its_ceiling() {
    let sizes = [4usize, 16];
    let mut memo_makespans = Vec::new();
    for k in sizes {
        let plain = burst_storm().run(&mut stack(Some(k), false, false));
        let memo = burst_storm().run(&mut stack(Some(k), true, false));
        assert!(
            memo.makespan < plain.makespan,
            "memoization must strictly win at {k}-op batches: {:?} vs {:?}",
            memo.makespan,
            plain.makespan
        );
        let memoized: u64 = memo.per_shard.iter().map(|u| u.reads_memoized).sum();
        assert!(memoized > 0, "the win must come from absorbed row reads");
        assert!(
            plain.per_shard.iter().all(|u| u.reads_memoized == 0),
            "unmemoized runs absorb nothing"
        );
        memo_makespans.push(memo.makespan);
    }
    // The memoized curve keeps improving with batch size: bigger
    // batches share more of the parent chain.
    assert!(
        memo_makespans[1] < memo_makespans[0],
        "memoized makespan must improve 4 -> 16: {memo_makespans:?}"
    );
    // And the 16-op memoized storm beats the unmemoized 16-op ceiling
    // (the post-PR-4 per-op-row-work bottleneck) *and* batching off.
    let off = burst_storm().run(&mut stack(None, false, false));
    assert!(memo_makespans[1] < off.makespan);
}

#[test]
fn memoized_batch_of_one_is_bit_for_bit_unmemoized() {
    // Batch size 1: every batch is a singleton, so memoized pricing
    // must reproduce the unmemoized storm exactly — at the makespan,
    // the per-op means, and the shard counters.
    let plain = burst_storm().run(&mut stack(Some(1), false, false));
    let memo = burst_storm().run(&mut stack(Some(1), true, false));
    assert_eq!(plain.makespan, memo.makespan);
    assert_eq!(plain.mean_create_ms, memo.mean_create_ms);
    let memoized: u64 = memo.per_shard.iter().map(|u| u.reads_memoized).sum();
    assert_eq!(memoized, 0, "singleton batches have nothing to dedupe");
    for (a, b) in plain.per_shard.iter().zip(memo.per_shard.iter()) {
        assert_eq!(a.busy, b.busy);
        assert_eq!(a.rpcs, b.rpcs);
    }
}

#[test]
fn all_defaults_off_reproduces_pr4_storm_bit_for_bit() {
    // A config with every new knob representable but off must price
    // the whole storm identically to the untouched default — the
    // calibration guard at storm level for this PR's two axes.
    let storm = SharedDirStorm {
        nodes: 4,
        dirs: 4,
        files_per_node: 8,
        stats_per_create: 2,
        ..SharedDirStorm::default()
    };
    let mut default_fs = cofs_over_memfs(CofsConfig::default());
    let mut knobbed = cofs_over_memfs(CofsConfig {
        read_priority: false,
        batch: cofs::batch::BatchConfig {
            enabled: false,
            memoize_reads: true,
            ..cofs::batch::BatchConfig::default()
        },
        ..CofsConfig::default()
    });
    let a = storm.run(&mut default_fs);
    let b = storm.run(&mut knobbed);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.mean_create_ms, b.mean_create_ms);
    assert_eq!(a.mean_stat_ms, b.mean_stat_ms);
    assert_eq!(a.stat_p50_p99_ms, b.stat_p50_p99_ms);
}

#[test]
fn priority_off_mixed_storm_matches_default_bit_for_bit() {
    // The priority-capable queue with the lane unused must reproduce
    // the FIFO trajectory exactly — the calibration guard for the
    // two-lane resource swap.
    let storm = SharedDirStorm::mixed(4, 32);
    let fifo = storm.run(&mut stack(Some(8), false, false));
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
    let run = |k: Option<usize>, prio: bool| storm.run(&mut stack(k, false, prio));
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
    let base = storm.run(&mut stack(Some(8), false, false));
    let both = storm.run(&mut stack(Some(8), true, true));
    assert!(
        both.makespan < base.makespan,
        "memoized lumps + bypassing reads must beat plain batching: {:?} vs {:?}",
        both.makespan,
        base.makespan
    );
    assert!(p99(&both) < p99(&base));
    let memoized: u64 = both.per_shard.iter().map(|u| u.reads_memoized).sum();
    let bypasses: u64 = both.per_shard.iter().map(|u| u.read_bypasses).sum();
    assert!(memoized > 0 && bypasses > 0, "{memoized} {bypasses}");
}

/// Pricing properties of the memoized batch path, driven straight
/// through [`MdsCluster::request`] on synthetic batches.
mod pricing_props {
    use super::*;
    use proptest::prelude::*;

    fn memo_cfg() -> CofsConfig {
        CofsConfig {
            batch: cofs::batch::BatchConfig::enabled(64, SimDuration::from_millis(5), 4)
                .with_memoized_reads(),
            ..CofsConfig::default()
        }
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
                    read_set: ReadSet::from_keys(keys),
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
            let batch = gen_batch(seed, len);
            let plain_cfg = CofsConfig {
                batch: cofs::batch::BatchConfig::enabled(
                    64,
                    SimDuration::from_millis(5),
                    4,
                ),
                ..CofsConfig::default()
            };
            let (plain_done, plain_busy) = price(&plain_cfg, &batch);
            let (memo_done, memo_busy) = price(&memo_cfg(), &batch);
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
            let (shuffled_done, shuffled_busy) = price(&memo_cfg(), &shuffled);
            prop_assert_eq!(memo_done, shuffled_done);
            prop_assert_eq!(memo_busy, shuffled_busy);
            // A batch of one never memoizes: singleton pricing is
            // bit-for-bit the unmemoized path.
            let (one_plain, _) = price(&plain_cfg, &batch[..1]);
            let (one_memo, _) = price(&memo_cfg(), &batch[..1]);
            prop_assert_eq!(one_plain, one_memo);
        }
    }
}
