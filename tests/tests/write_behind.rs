//! Integration tests for the write-behind dentry journal and
//! same-parent sibling coalescing: the calibration guards (the journal
//! knobbed-but-off is bit-for-bit the seed path at RPC, fs, and storm
//! level), the acceptance win (the journaled bursty storm beats the
//! memoized-only ceiling at every swept batch size), the durability
//! window (acked-but-unapplied work never exceeds it, at the RPC level
//! and under a storm with a degenerate window), and the pricing
//! properties — journaled acks never arrive later than synchronous
//! ones, and batch pricing is invariant to the order the daemon
//! buffered ops in (the coalesced row total is a property of the
//! batch, not of any apply schedule).

use cofs::batch::BatchedOp;
use cofs::config::{CofsConfig, MdsNetwork, ShardPolicyKind, WriteBehindConfig};
use cofs::fs::CofsFs;
use cofs::mds::{DbOps, ReadSet, WriteSet};
use cofs::mds_cluster::{MdsCluster, Shape, ShardId, ShardPolicy};
use cofs_tests::cofs_over_memfs;
use netsim::ids::NodeId;
use simcore::time::{SimDuration, SimTime};
use vfs::memfs::MemFs;
use workloads::scenarios::{HotStatStorm, SharedDirStorm};

fn net() -> MdsNetwork {
    MdsNetwork::uniform(SimDuration::from_micros(250))
}

fn stack(max_batch_ops: usize, write_behind: bool) -> CofsFs<MemFs> {
    let mut cfg = CofsConfig::default()
        .with_shards(2, ShardPolicyKind::HashByParent)
        .with_batching(max_batch_ops, SimDuration::from_millis(5), 4)
        .with_read_memoization();
    if write_behind {
        cfg = cfg.with_write_behind();
    }
    cofs_over_memfs(cfg)
}

/// The bursty create storm of the scaling sweep's journal axis
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
fn journal_knobbed_but_off_is_bit_for_bit_the_seed_storm() {
    // A config with the write-behind knobs representable — at weird
    // values, even — but disabled must price the whole storm
    // identically to the untouched batched+memoized stack: the
    // calibration guard at storm level.
    let storm = burst_storm();
    let seed = storm.run(&mut stack(16, false));
    let mut cfg = CofsConfig::default()
        .with_shards(2, ShardPolicyKind::HashByParent)
        .with_batching(16, SimDuration::from_millis(5), 4)
        .with_read_memoization();
    cfg.write_behind = WriteBehindConfig {
        enabled: false,
        max_unapplied_ops: 1,
        max_unapplied_window: SimDuration::from_micros(1),
    };
    let knobbed = storm.run(&mut cofs_over_memfs(cfg));
    assert_eq!(seed.makespan, knobbed.makespan);
    assert_eq!(seed.mean_create_ms, knobbed.mean_create_ms);
    assert_eq!(seed.apply_tail_ms, knobbed.apply_tail_ms);
    assert_eq!(knobbed.apply_tail_ms, 0.0, "no journal, no apply tail");
    for (a, b) in seed.per_shard.iter().zip(knobbed.per_shard.iter()) {
        assert_eq!(a.busy, b.busy);
        assert_eq!(a.rpcs, b.rpcs);
        assert_eq!(b.journal_appends, 0);
        assert_eq!(b.rows_coalesced, 0);
        assert_eq!(b.apply_lag, SimDuration::ZERO);
    }
}

#[test]
fn journal_off_rpc_is_bit_for_bit_the_seed_rpc() {
    // The same calibration guard one layer down: a mutation batch
    // priced with the journal knobbed-but-off must reproduce the seed
    // batch pricing exactly, ack and busy time both.
    let ops: Vec<BatchedOp> = (0..4)
        .map(|_| BatchedOp {
            db: DbOps {
                reads: 2,
                writes: 3,
            },
            read_set: ReadSet::from_keys(vec![1, 2]),
            write_set: WriteSet::from_keys(vec![77]),
        })
        .collect();
    let seed_cfg = CofsConfig {
        batch: cofs::batch::BatchConfig::enabled(16, SimDuration::from_millis(5), 4),
        ..CofsConfig::default()
    };
    let mut knobbed_cfg = seed_cfg.clone();
    knobbed_cfg.write_behind = WriteBehindConfig {
        enabled: false,
        max_unapplied_ops: 1,
        max_unapplied_window: SimDuration::from_micros(1),
    };
    let price = |cfg: &CofsConfig| {
        let mut cluster = MdsCluster::new(ShardPolicy::hash(1));
        let done = cluster.request(
            cfg,
            &net(),
            NodeId(0),
            Shape::Batch(ShardId(0)),
            &ops,
            SimTime::ZERO,
        );
        (
            done,
            cluster.usage()[0].busy,
            cluster.usage()[0].journal_appends,
        )
    };
    let (seed_done, seed_busy, seed_appends) = price(&seed_cfg);
    let (knob_done, knob_busy, knob_appends) = price(&knobbed_cfg);
    assert_eq!(seed_done, knob_done);
    assert_eq!(seed_busy, knob_busy);
    assert_eq!(seed_appends, 0);
    assert_eq!(knob_appends, 0);
}

#[test]
fn journaled_storm_beats_memoized_only_at_every_batch_size() {
    let mut journaled_makespans = Vec::new();
    for k in [4usize, 16] {
        let plain = burst_storm().run(&mut stack(k, false));
        let journaled = burst_storm().run(&mut stack(k, true));
        assert!(
            journaled.makespan < plain.makespan,
            "write-behind must strictly win at {k}-op batches: {:?} vs {:?}",
            journaled.makespan,
            plain.makespan
        );
        let appends: u64 = journaled.per_shard.iter().map(|u| u.journal_appends).sum();
        let coalesced: u64 = journaled.per_shard.iter().map(|u| u.rows_coalesced).sum();
        assert!(appends > 0, "acks must come from journal appends");
        assert!(coalesced > 0, "sibling dentry updates must coalesce");
        assert!(
            plain
                .per_shard
                .iter()
                .all(|u| u.journal_appends == 0 && u.rows_coalesced == 0),
            "journal-off runs append and coalesce nothing"
        );
        // The crash-consistency cost is visible, not hidden: rows are
        // still landing after the last ack.
        assert!(journaled.apply_tail_ms > 0.0);
        assert_eq!(plain.apply_tail_ms, 0.0);
        journaled_makespans.push(journaled.makespan);
    }
    // Bigger batches coalesce more siblings per append.
    assert!(
        journaled_makespans[1] < journaled_makespans[0],
        "journaled makespan must improve 4 -> 16: {journaled_makespans:?}"
    );
}

#[test]
fn read_only_work_is_untouched_by_the_journal() {
    // A read-only storm never journals: identical trajectory, zero
    // appends, no apply tail.
    let storm = HotStatStorm {
        nodes: 4,
        dirs: 2,
        files_per_dir: 8,
        rounds: 3,
        ..HotStatStorm::default()
    };
    let plain = storm.run(&mut stack(8, false));
    let journaled = storm.run(&mut stack(8, true));
    assert_eq!(plain.makespan, journaled.makespan);
    assert_eq!(plain.mean_stat_ms, journaled.mean_stat_ms);
    assert_eq!(journaled.apply_tail_ms, 0.0);
    let appends: u64 = journaled.per_shard.iter().map(|u| u.journal_appends).sum();
    assert_eq!(appends, 0, "stats must not touch the journal");
}

#[test]
fn degenerate_durability_window_backpressures_but_completes() {
    // A 2-op / 50µs window under 16-op bursts forces the clamp to fire
    // on essentially every batch (the debug_assert in the cluster
    // verifies the invariant on each one). The storm must still
    // complete, still journal, and never finish earlier than the
    // unconstrained journaled run — backpressure only delays.
    let storm = burst_storm();
    let open = storm.run(&mut stack(16, true));
    let mut cfg = CofsConfig::default()
        .with_shards(2, ShardPolicyKind::HashByParent)
        .with_batching(16, SimDuration::from_millis(5), 4)
        .with_read_memoization()
        .with_write_behind();
    cfg.write_behind.max_unapplied_ops = 2;
    cfg.write_behind.max_unapplied_window = SimDuration::from_micros(50);
    let tight = storm.run(&mut cofs_over_memfs(cfg));
    assert!(tight.makespan >= open.makespan);
    let appends: u64 = tight.per_shard.iter().map(|u| u.journal_appends).sum();
    assert!(appends > 0);
}

/// Pricing properties of the journaled batch path, driven straight
/// through [`MdsCluster::request`] on synthetic batches.
mod pricing_props {
    use super::*;
    use proptest::prelude::*;

    fn wb_cfg() -> CofsConfig {
        let mut cfg = CofsConfig {
            batch: cofs::batch::BatchConfig::enabled(64, SimDuration::from_millis(5), 4),
            ..CofsConfig::default()
        };
        cfg.write_behind = WriteBehindConfig::enabled();
        cfg
    }

    /// Builds a deterministic batch from a seed: each op draws reads,
    /// writes, a read-key set, and a write-key set no larger than its
    /// write count from a small shared pool (so cross-op sibling
    /// sharing actually happens).
    fn gen_batch(seed: u64, len: usize) -> Vec<BatchedOp> {
        let mut rng = simcore::rng::SimRng::seed_from(seed);
        let pool: Vec<u64> = (100..108).collect();
        (0..len)
            .map(|_| {
                let reads = rng.below(8);
                let writes = rng.below(4);
                let n_keys = rng.below(writes + 1) as usize;
                let keys: Vec<u64> = (0..n_keys)
                    .map(|_| pool[rng.below(pool.len() as u64) as usize])
                    .collect();
                // from_keys dedupes, so len() <= n_keys <= writes holds.
                BatchedOp {
                    db: DbOps { reads, writes },
                    read_set: ReadSet::empty(),
                    write_set: WriteSet::from_keys(keys),
                }
            })
            .collect()
    }

    /// Prices one batch on a fresh single-shard cluster and returns
    /// (client completion time, shard busy time, rows coalesced).
    fn price(cfg: &CofsConfig, ops: &[BatchedOp]) -> (SimTime, SimDuration, u64) {
        let mut cluster = MdsCluster::new(ShardPolicy::hash(1));
        let done = cluster.request(
            cfg,
            &net(),
            NodeId(0),
            Shape::Batch(ShardId(0)),
            ops,
            SimTime::ZERO,
        );
        let u = &cluster.usage()[0];
        (done, u.busy, u.rows_coalesced)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn journaled_ack_never_later_and_pricing_ignores_op_order(
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
            let (plain_done, _, plain_coalesced) = price(&plain_cfg, &batch);
            let (wb_done, wb_busy, wb_coalesced) = price(&wb_cfg(), &batch);
            // One sequential append is always durable no later than the
            // synchronous group commit, so the journaled client never
            // hears back later.
            prop_assert!(wb_done <= plain_done);
            prop_assert_eq!(plain_coalesced, 0);
            // Any permutation of the ops prices identically: which op
            // is charged a shared row is order-dependent attribution,
            // but the coalesced total, the ack, and the shard busy
            // time are properties of the batch — no apply schedule can
            // change them.
            let mut rng = simcore::rng::SimRng::seed_from(seed ^ 0xD00D);
            let mut shuffled = batch.clone();
            for i in (1..shuffled.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                shuffled.swap(i, j);
            }
            let (shuf_done, shuf_busy, shuf_coalesced) = price(&wb_cfg(), &shuffled);
            prop_assert_eq!(wb_done, shuf_done);
            prop_assert_eq!(wb_busy, shuf_busy);
            prop_assert_eq!(wb_coalesced, shuf_coalesced);
        }

        #[test]
        fn acked_but_unapplied_work_never_exceeds_the_window(
            seed in 0u64..10_000,
            rounds in 1usize..12,
        ) {
            let mut cfg = wb_cfg();
            cfg.write_behind.max_unapplied_ops = 6;
            cfg.write_behind.max_unapplied_window = SimDuration::from_micros(200);
            let mut cluster = MdsCluster::new(ShardPolicy::hash(1));
            let mut now = SimTime::ZERO;
            for r in 0..rounds {
                let batch = gen_batch(seed.wrapping_add(r as u64), 4);
                let acked =
                    cluster.request(&cfg, &net(), NodeId(0), Shape::Batch(ShardId(0)), &batch, now);
                // The invariant the durability window promises, checked
                // from outside (the cluster's debug_assert checks it
                // from inside on every clamp).
                prop_assert!(
                    cluster.unapplied_ops_at(acked) <= cfg.write_behind.max_unapplied_ops
                        || batch.len() as u64 > cfg.write_behind.max_unapplied_ops,
                    "round {r}: outstanding {} > window {}",
                    cluster.unapplied_ops_at(acked),
                    cfg.write_behind.max_unapplied_ops
                );
                prop_assert!(acked > now);
                now = acked;
            }
        }
    }
}
