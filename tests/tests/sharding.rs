//! Integration tests for the sharded metadata service (`MdsCluster`).
//!
//! Three pinned properties:
//!
//! 1. One shard is *bit-for-bit* the centralized MDS the paper
//!    measured — same virtual timings, so the fig4/fig5 calibration
//!    suite keeps passing unchanged against the default config.
//! 2. Under the shared-directory storm, create throughput improves
//!    monotonically from 1 → 2 → 4 shards (the scaling study's
//!    headline).
//! 3. Cross-shard rename/link pays an explicit two-phase cost, and
//!    per-shard usage makes partition skew visible.

use cofs::config::ShardPolicyKind;
use cofs_tests::{cofs_over_gpfs, cofs_over_gpfs_sharded, cofs_over_memfs_sharded};
use netsim::ids::NodeId;
use vfs::fs::{FileSystem, OpCtx};
use vfs::path::{vpath, VPath};
use vfs::types::Mode;
use workloads::metarates::{run_phase, MetaOp, MetaratesConfig};
use workloads::scenarios::SharedDirStorm;

#[test]
fn single_shard_is_bit_for_bit_the_centralized_mds() {
    let cfg = MetaratesConfig::new(4, 128);
    for op in [MetaOp::Create, MetaOp::Stat] {
        let legacy = run_phase(&mut cofs_over_gpfs(4), &cfg, op);
        let sharded = run_phase(
            &mut cofs_over_gpfs_sharded(4, 1, ShardPolicyKind::Single),
            &cfg,
            op,
        );
        assert_eq!(
            legacy.makespan, sharded.makespan,
            "{op:?} makespan must be identical"
        );
        assert_eq!(
            legacy.summary.count(),
            sharded.summary.count(),
            "{op:?} sample counts must match"
        );
        assert!(
            (legacy.mean_ms() - sharded.mean_ms()).abs() < f64::EPSILON,
            "{op:?} mean must be identical: {} vs {}",
            legacy.mean_ms(),
            sharded.mean_ms()
        );
    }
}

#[test]
fn storm_throughput_improves_monotonically_with_shards() {
    // Metadata-service limit (MemFs substrate): the MDS is the only
    // queueing server, so the shard count is what the sweep measures.
    let storm = SharedDirStorm::default();
    let mut prev_makespan = None;
    for shards in [1usize, 2, 4] {
        // A count of 1 degenerates to one hashed shard inside the config.
        let mut fs = cofs_over_memfs_sharded(shards);
        let r = storm.run(&mut fs);
        if let Some(prev) = prev_makespan {
            assert!(
                r.makespan < prev,
                "{shards} shards must beat fewer: {:?} vs {prev:?}",
                r.makespan
            );
        }
        prev_makespan = Some(r.makespan);
    }
}

/// A bottleneck-shift check on the *full* stack: over real GPFS the
/// native filesystem's creates bound storm throughput, so shard count
/// barely moves the makespan — the paper's argument, one level up.
#[test]
fn full_stack_storm_is_underlying_bound() {
    let storm = SharedDirStorm {
        nodes: 8,
        files_per_node: 8,
        ..SharedDirStorm::default()
    };
    let mut one = cofs_over_gpfs_sharded(storm.nodes, 1, ShardPolicyKind::Single);
    let mut four = cofs_over_gpfs_sharded(storm.nodes, 4, ShardPolicyKind::HashByParent);
    let r1 = storm.run(&mut one);
    let r4 = storm.run(&mut four);
    let ratio = r1.makespan.as_secs_f64() / r4.makespan.as_secs_f64();
    assert!(
        (0.8..1.25).contains(&ratio),
        "underlying-bound storm should not care about shards: ratio {ratio:.2}"
    );
}

/// Finds two top-level directories that land on different shards under
/// the cluster's policy.
fn two_cross_shard_dirs<F: FileSystem>(fs: &cofs::fs::CofsFs<F>) -> (VPath, VPath) {
    let a = vpath("/d0");
    let sa = fs.mds_cluster().route(&a.join("probe"));
    for i in 1..64 {
        let b = vpath(&format!("/d{i}"));
        if fs.mds_cluster().route(&b.join("probe")) != sa {
            return (a, b);
        }
    }
    panic!("no cross-shard directory pair found in 64 candidates");
}

#[test]
fn cross_shard_rename_and_link_pay_two_phase() {
    let mut fs = cofs_over_memfs_sharded(2);
    let ctx = OpCtx::test(NodeId(0));
    let (da, db) = two_cross_shard_dirs(&fs);
    fs.mkdir(&ctx, &da, Mode::dir_default()).unwrap();
    fs.mkdir(&ctx, &db, Mode::dir_default()).unwrap();
    let fh = fs
        .create(&ctx, &da.join("f"), Mode::file_default())
        .unwrap()
        .value;
    fs.close(&ctx, fh).unwrap();
    assert_eq!(fs.counters().get("mds_two_phase"), 0);

    // Same-directory rename: one shard, no two-phase.
    fs.rename(&ctx, &da.join("f"), &da.join("g")).unwrap();
    assert_eq!(fs.counters().get("mds_two_phase"), 0);

    // Cross-shard rename: explicit two-phase commit.
    fs.rename(&ctx, &da.join("g"), &db.join("g")).unwrap();
    assert_eq!(fs.counters().get("mds_two_phase"), 1);

    // Cross-shard hard link likewise.
    fs.link(&ctx, &db.join("g"), &da.join("lnk")).unwrap();
    assert_eq!(fs.counters().get("mds_two_phase"), 2);

    // Outcome stayed atomic: exactly one file, visible under both names.
    assert_eq!(fs.stat(&ctx, &db.join("g")).unwrap().value.nlink, 2);
    assert_eq!(fs.stat(&ctx, &da.join("lnk")).unwrap().value.nlink, 2);
    assert!(fs.stat(&ctx, &da.join("g")).is_err());
}

#[test]
fn rename_reroutes_open_handles_to_the_new_owner() {
    // A file renamed across shards while open must publish its size
    // (on close-after-write) to the shard that *now* owns it.
    let mut fs = cofs_over_memfs_sharded(2);
    let ctx = OpCtx::test(NodeId(0));
    let (da, db) = two_cross_shard_dirs(&fs);
    fs.mkdir(&ctx, &da, Mode::dir_default()).unwrap();
    fs.mkdir(&ctx, &db, Mode::dir_default()).unwrap();
    let fh = fs
        .create(&ctx, &da.join("f"), Mode::file_default())
        .unwrap()
        .value;
    fs.write(&ctx, fh, 0, 4096).unwrap();
    fs.rename(&ctx, &da.join("f"), &db.join("f")).unwrap();
    let new_owner = fs.mds_cluster().route(&db.join("f"));
    fs.reset_time();
    fs.close(&ctx, fh).unwrap();
    let usage = fs.shard_usage();
    assert_eq!(usage[new_owner.0].rpcs, 1, "{usage:?}");
    assert_eq!(usage[1 - new_owner.0].rpcs, 0, "{usage:?}");
    // And the size really was published.
    assert_eq!(fs.stat(&ctx, &db.join("f")).unwrap().value.size, 4096);
}

#[test]
fn a_single_hot_directory_skews_onto_one_shard() {
    let mut fs = cofs_over_memfs_sharded(4);
    let ctx = OpCtx::test(NodeId(0));
    fs.mkdir(&ctx, &vpath("/hot"), Mode::dir_default()).unwrap();
    fs.reset_time();
    for i in 0..24 {
        let fh = fs
            .create(&ctx, &vpath(&format!("/hot/f{i}")), Mode::file_default())
            .unwrap()
            .value;
        fs.close(&ctx, fh).unwrap();
    }
    let usage = fs.shard_usage();
    assert_eq!(usage.len(), 4);
    let total: u64 = usage.iter().map(|u| u.rpcs).sum();
    let max = usage.iter().map(|u| u.rpcs).max().unwrap();
    assert!(
        max * 10 >= total * 9,
        "hash-by-parent must pin a single hot dir to one shard: {usage:?}"
    );
}

#[test]
fn shard_count_changes_time_but_not_outcomes() {
    // Same op sequence on 1 and 4 shards: identical virtual view,
    // different (better) virtual time.
    let storm = SharedDirStorm {
        dirs: 8,
        ..SharedDirStorm::default()
    };
    let mut one = cofs_over_memfs_sharded(1);
    let mut four = cofs_over_memfs_sharded(4);
    let r1 = storm.run(&mut one);
    let r4 = storm.run(&mut four);
    assert!(r4.makespan < r1.makespan);
    let ctx = OpCtx::test(NodeId(0));
    for d in 0..8 {
        let dir = storm.root.join(&format!("d{d}"));
        let names = |fs: &mut cofs::fs::CofsFs<_>| -> Vec<String> {
            fs.readdir(&ctx, &dir)
                .unwrap()
                .value
                .into_iter()
                .map(|e| e.name)
                .collect()
        };
        assert_eq!(names(&mut one), names(&mut four), "{dir}");
    }
}
