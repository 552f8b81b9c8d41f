//! Integration tests for the metadata-RPC batching/pipelining layer:
//! the acceptance win (storm makespan improves monotonically with
//! `max_batch_ops` 1 → 4 → 16), honest non-wins (sparse mutators pay
//! the delay window; read-only storms are untouched), outcome
//! invariance at the namespace level, and the ordering property —
//! batching never reorders conflicting same-path operations.

use cofs::batch::{BatchConfig, BatchPipeline, BatchedOp};
use cofs::config::{CofsConfig, ShardPolicyKind};
use cofs::fs::CofsFs;
use cofs::mds::DbOps;
use cofs::mds_cluster::ShardPolicy;
use cofs_tests::cofs_over_memfs;
use netsim::ids::NodeId;
use simcore::time::{SimDuration, SimTime};
use vfs::fs::{FileSystem, OpCtx};
use vfs::memfs::MemFs;
use vfs::path::vpath;
use workloads::scenarios::{HotStatStorm, ScenarioResult, SharedDirStorm};

fn mds_limit(batch: Option<usize>) -> CofsFs<MemFs> {
    let cfg = CofsConfig::default().with_shards(2, ShardPolicyKind::HashByParent);
    cofs_over_memfs(match batch {
        None => cfg,
        Some(k) => cfg.with_batching(k, SimDuration::from_millis(5), 4),
    })
}

/// The bursty create storm the scaling sweep's batching axis runs
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
fn storm_makespan_improves_monotonically_with_batch_size() {
    let runs: Vec<ScenarioResult> = [None, Some(1), Some(4), Some(16)]
        .into_iter()
        .map(|k| burst_storm().run(&mut mds_limit(k)))
        .collect();
    for w in runs.windows(2) {
        assert!(
            w[1].makespan < w[0].makespan,
            "each step of off -> 1 -> 4 -> 16 must strictly improve: {:?}",
            runs.iter().map(|r| r.makespan).collect::<Vec<_>>()
        );
    }
    // Without a pipeline the storm reports no batch stats.
    assert!(runs[0].batch.is_none());
    // The coalescing is real, not incidental: at 16 the batches fill.
    let st = runs[3].batch.expect("batching on");
    assert_eq!(st.largest_batch, 16);
    assert!(st.mean_batch_ops() > 8.0, "{st:?}");
}

#[test]
fn batched_storm_outcomes_are_bit_for_bit_identical() {
    let storm = SharedDirStorm {
        nodes: 4,
        dirs: 4,
        files_per_node: 8,
        stats_per_create: 1,
        burst: 4,
        ..SharedDirStorm::default()
    };
    let mut plain = mds_limit(None);
    let mut batched = mds_limit(Some(8));
    storm.run(&mut plain);
    storm.run(&mut batched);
    // Same virtual namespace: every directory lists identically.
    let ctx = OpCtx::test(NodeId(0));
    for d in 0..4 {
        let dir = vpath(&format!("/storm/d{d}"));
        let a: Vec<String> = plain
            .readdir(&ctx, &dir)
            .unwrap()
            .value
            .into_iter()
            .map(|e| e.name)
            .collect();
        let b: Vec<String> = batched
            .readdir(&ctx, &dir)
            .unwrap()
            .value
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(a, b, "batching must be invisible in outcomes");
    }
    assert_eq!(
        plain.mds().inode_count(),
        batched.mds().inode_count(),
        "same namespace size"
    );
}

#[test]
fn sparse_mutators_pay_the_delay_window() {
    // One lone create per node: the batch waits out its window before
    // the wire sees it, so the drained makespan regresses — batching's
    // deliberate, measured non-win.
    let sparse = SharedDirStorm {
        nodes: 4,
        dirs: 4,
        files_per_node: 1,
        stats_per_create: 0,
        ..SharedDirStorm::default()
    };
    let off = sparse.run(&mut mds_limit(None));
    let on = sparse.run(&mut mds_limit(Some(16)));
    assert!(
        on.makespan > off.makespan,
        "lone ops must pay the Nagle window: {:?} vs {:?}",
        on.makespan,
        off.makespan
    );
    assert!(
        on.makespan >= off.makespan + SimDuration::from_millis(4),
        "the regression is the ~5ms window itself"
    );
    let st = on.batch.expect("batching on");
    assert_eq!(st.flush_full, 0);
    assert!(st.flush_timer + st.flush_drain > 0);
}

#[test]
fn read_only_storms_are_untouched_by_batching() {
    let hot = HotStatStorm {
        nodes: 4,
        dirs: 2,
        files_per_dir: 8,
        rounds: 2,
        ..HotStatStorm::default()
    };
    let off = hot.run(&mut mds_limit(None));
    let on = hot.run(&mut mds_limit(Some(16)));
    assert_eq!(
        off.makespan, on.makespan,
        "reads never batch, so nothing may change"
    );
    assert_eq!(on.batch.expect("batching on").batches_issued, 0);
}

/// The ordering property, driven through the pipeline itself: however
/// batches close (fullness, timers, drain) and stall on pipeline
/// slots, the per-(node, shard) issue order preserves submission
/// order — and since conflicting same-path operations always route to
/// the same shard (policies are pure), batching can never reorder
/// them.
mod order_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn batching_never_reorders_conflicting_same_path_ops(
            seed in 0u64..10_000,
            max_ops in 1usize..6,
            depth in 1usize..4,
            delay_us in 1u64..2_000,
        ) {
            let mut rng = simcore::rng::SimRng::seed_from(seed);
            let policy = ShardPolicy::hash(4);
            let mut p = BatchPipeline::new(BatchConfig::new(
                max_ops,
                SimDuration::from_micros(delay_us),
                depth,
            ));
            let paths = ["/a/x", "/a/y", "/b/x", "/c/z", "/d/w"];
            // Submit a random schedule of mutations from 3 nodes and
            // drive the issue loop with synthetic wire completions.
            let mut clock = [SimTime::ZERO; 3];
            let mut submitted: Vec<(NodeId, usize, u64)> = Vec::new(); // (node, shard, seq)
            let mut issued: Vec<(NodeId, usize, u64)> = Vec::new();
            for _ in 0..80 {
                let n = rng.below(3) as usize;
                let node = NodeId(n as u32);
                clock[n] += SimDuration::from_micros(rng.range(1, 400));
                let path = vpath(paths[rng.below(paths.len() as u64) as usize]);
                let shard = policy.shard_of(&path);
                let seq = p.enqueue(
                    node,
                    shard,
                    BatchedOp::opaque(DbOps { reads: 1, writes: 1 }),
                    clock[n],
                );
                submitted.push((node, shard.0, seq));
                while let Some(b) = p.take_due(node, clock[n]) {
                    for &s in &b.seqs {
                        issued.push((node, b.shard.0, s));
                    }
                    p.record_completion(node, b.issue_at + SimDuration::from_micros(300));
                }
            }
            for node in p.nodes_with_work() {
                p.close_all(node);
                while let Some(b) = p.take_due(node, SimTime::MAX) {
                    for &s in &b.seqs {
                        issued.push((node, b.shard.0, s));
                    }
                    p.record_completion(node, b.issue_at + SimDuration::from_micros(300));
                }
            }
            // Nothing lost, nothing duplicated.
            prop_assert_eq!(issued.len(), submitted.len());
            // Per (node, shard) — which subsumes per (node, path) —
            // the issue order is exactly the submission order.
            for node in 0..3u32 {
                for shard in 0..4usize {
                    let sub: Vec<u64> = submitted
                        .iter()
                        .filter(|(n, s, _)| *n == NodeId(node) && *s == shard)
                        .map(|&(_, _, q)| q)
                        .collect();
                    let iss: Vec<u64> = issued
                        .iter()
                        .filter(|(n, s, _)| *n == NodeId(node) && *s == shard)
                        .map(|&(_, _, q)| q)
                        .collect();
                    prop_assert_eq!(&sub, &iss);
                }
            }
        }
    }
}
