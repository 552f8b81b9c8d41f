//! Elastic shard policy: storm-level regression pins and property
//! tests.
//!
//! Three pinned claims:
//!
//! 1. **The off path is free**: an elastic policy whose split
//!    threshold is unreachable ([`ElasticConfig::frozen`]) is
//!    *bit-for-bit* `HashByParent` under a full shared-directory storm
//!    — same makespan, same per-shard op counts and busy time, zero
//!    reconfiguration counters.
//! 2. **Affinity returns**: a directory that splits under load pays
//!    cross-shard rename 2PCs while spread; after the load subsides
//!    and lazy migration folds it back to its home shard, the same
//!    rename traffic is single-shard again — the `two_phase` counter
//!    strictly drops.
//! 3. **Routing is a function** (property tests): every path routes to
//!    exactly one valid shard with the directory row pinned home,
//!    routing never changes between reconfiguration events, and a
//!    replayed observation sequence is byte-identical in both events
//!    and routes.

use cofs::config::{CofsConfig, ShardPolicyKind};
use cofs::elastic::{ElasticConfig, ElasticPolicy};
use cofs::mds_cluster::ShardPolicy;
use cofs_tests::{cofs_over_memfs, hair_trigger_elastic};
use netsim::ids::NodeId;
use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};
use vfs::fs::{FileSystem, OpCtx};
use vfs::path::{vpath, VPath};
use vfs::types::Mode;
use workloads::scenarios::SharedDirStorm;

#[test]
fn frozen_elastic_is_bit_for_bit_hash_by_parent_under_storm() {
    let storm = SharedDirStorm {
        nodes: 16,
        dirs: 4,
        files_per_node: 8,
        ..SharedDirStorm::default()
    };
    let mut fixed =
        cofs_over_memfs(CofsConfig::default().with_shards(8, ShardPolicyKind::HashByParent));
    let mut frozen = cofs_over_memfs(CofsConfig {
        shard_policy: ShardPolicy::Elastic(ElasticPolicy::new(8, ElasticConfig::frozen())),
        ..CofsConfig::default()
    });
    let a = storm.run(&mut fixed);
    let b = storm.run(&mut frozen);
    assert_eq!(a.makespan, b.makespan, "off-path timing must be pinned");
    for (ua, ub) in a.per_shard.iter().zip(&b.per_shard) {
        assert_eq!(ua.rpcs, ub.rpcs, "shard {} rpcs", ua.shard);
        assert_eq!(ua.busy, ub.busy, "shard {} busy", ua.shard);
        assert_eq!(ua.two_phase, ub.two_phase, "shard {} 2pc", ua.shard);
        assert_eq!(
            (ub.splits, ub.merges, ub.migrations),
            (0, 0, 0),
            "frozen policy must never reconfigure"
        );
    }
}

/// Drives the hair-trigger elastic fs through: a create storm that
/// splits `/hot`, renames while spread (cross-shard 2PCs), a cool-down
/// that lazily merges the directory home, and the same rename traffic
/// again — which must now be single-shard.
#[test]
fn rename_two_phase_cost_drops_after_migration_home() {
    let mut fs = cofs_over_memfs(hair_trigger_elastic(4));
    let at = |now: SimTime| OpCtx::test(NodeId(0)).at(now);
    let mut now = SimTime::ZERO;
    let tick = |step: u64, now: &mut SimTime| {
        *now += SimDuration::from_micros(step);
        *now
    };
    fs.mkdir(&at(now), &vpath("/hot"), Mode::dir_default())
        .unwrap();
    // Hot phase: 32 creates at 250 µs spacing — four 2 ms windows at 8
    // ops each, far past the hair-trigger split threshold of 4.
    for i in 0..32 {
        let fh = fs
            .create(
                &at(tick(250, &mut now)),
                &vpath(&format!("/hot/f{i}")),
                Mode::file_default(),
            )
            .unwrap()
            .value;
        fs.close(&at(now), fh).unwrap();
    }
    let depth_hot = fs
        .mds_cluster()
        .policy()
        .as_elastic()
        .expect("elastic policy")
        .depth_of(&vpath("/hot"));
    assert!(depth_hot > 0, "the create storm must split /hot");

    // Renames while spread: same-directory renames whose source and
    // destination names hash to different buckets are cross-shard
    // two-phase commits. 2.5 ms spacing puts exactly one rename (two
    // observations) in each 2 ms window — under the per-bucket split
    // threshold at any depth, over the merge threshold — so the rename
    // traffic itself holds the table where it is.
    let before = fs.counters().get("mds_two_phase");
    for i in 0..16 {
        fs.rename(
            &at(tick(2500, &mut now)),
            &vpath(&format!("/hot/f{i}")),
            &vpath(&format!("/hot/r{i}")),
        )
        .unwrap();
    }
    let spread_2pc = fs.counters().get("mds_two_phase") - before;
    assert!(
        spread_2pc > 0,
        "renames inside a split directory must pay cross-shard 2PCs"
    );

    // Cool-down: sparse stats at 3 ms spacing close one observation
    // window each at a single op — at or below the merge threshold —
    // so lazy migration folds the directory home one level at a time.
    for _ in 0..12 {
        fs.stat(&at(tick(3000, &mut now)), &vpath("/hot/r0"))
            .unwrap();
    }
    let policy = fs.mds_cluster().policy().as_elastic().unwrap();
    assert_eq!(
        policy.depth_of(&vpath("/hot")),
        0,
        "cold windows must migrate the directory back to its home shard"
    );
    assert!(policy.merge_events() > 0, "merges must be observed");

    // The same rename traffic after migration home: single-shard again
    // (and still one rename per window, so depth 0 holds — at depth 0
    // the GIGA+ overflow rule `ops >> depth` is at its most sensitive).
    let before = fs.counters().get("mds_two_phase");
    for i in 0..16 {
        fs.rename(
            &at(tick(2500, &mut now)),
            &vpath(&format!("/hot/r{i}")),
            &vpath(&format!("/hot/s{i}")),
        )
        .unwrap();
    }
    let home_2pc = fs.counters().get("mds_two_phase") - before;
    assert!(
        home_2pc < spread_2pc,
        "rename 2PCs must strictly drop after migration home \
         ({home_2pc} vs {spread_2pc})"
    );
    assert_eq!(home_2pc, 0, "a fully merged directory renames one-shard");
}

/// A deterministic pseudo-random workload against the bare policy:
/// records ops across three directories at jittered virtual times,
/// consults `rebalance` whenever a window lapses, and logs every
/// reconfiguration event. Returns the driven policy and the event log.
fn drive(seed: u64, shards: usize, steps: usize) -> (ElasticPolicy, Vec<String>) {
    let cfg = ElasticConfig {
        split_threshold: 4,
        merge_threshold: 1,
        window: SimDuration::from_millis(1),
        max_depth: 3,
        split_skew_pct: 0,
        split_contrib_pct: 0,
        headroom_pct: u64::MAX,
    };
    let mut rng = SimRng::seed_from(seed);
    let mut p = ElasticPolicy::new(shards, cfg);
    let dirs = [vpath("/a"), vpath("/b"), vpath("/c")];
    let mut t = SimTime::ZERO;
    let mut loads = vec![SimDuration::ZERO; shards];
    let mut log = Vec::new();
    for _ in 0..steps {
        t += SimDuration::from_micros(rng.range(10, 400));
        let dir = rng.choose(&dirs).clone();
        if p.record(dir.as_str(), t) {
            for l in loads.iter_mut() {
                *l += SimDuration::from_micros(rng.range(0, 200));
            }
            let entries = rng.range(1, 500);
            if let Some(ev) = p.rebalance(
                dir.as_str(),
                t,
                &loads,
                SimDuration::from_micros(77),
                entries,
            ) {
                log.push(format!("{ev:?}"));
            }
        }
    }
    (p, log)
}

fn sample_paths() -> Vec<VPath> {
    let mut v = Vec::new();
    for d in ["/a", "/b", "/c", "/never-observed"] {
        for i in 0..12 {
            v.push(vpath(&format!("{d}/f{i}")));
        }
    }
    v
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Totality: whatever reconfiguration history the policy has,
        /// every path routes to exactly one in-range shard, and the
        /// directory row itself never leaves its hash-routing home.
        #[test]
        fn every_path_routes_to_exactly_one_shard(
            seed in 0u64..10_000,
            shards in 1usize..9,
        ) {
            let (p, _) = drive(seed, shards, 400);
            let reference = ShardPolicy::hash(shards);
            for path in sample_paths() {
                let s = p.shard_of(&path);
                prop_assert!(s.0 < shards, "{path} routed to {s}");
                prop_assert_eq!(p.shard_of(&path), s);
                let dir = path.parent().unwrap();
                prop_assert_eq!(
                    p.shard_of_entries(&dir),
                    reference.shard_of_entries(&dir)
                );
            }
        }

        /// Between reconfiguration events routing never moves: records
        /// alone (however many windows they lapse) change nothing, and
        /// a `rebalance` that declines also changes nothing.
        #[test]
        fn routing_is_stable_between_split_events(
            seed in 0u64..10_000,
            shards in 2usize..9,
        ) {
            let (mut p, _) = drive(seed, shards, 300);
            let paths = sample_paths();
            let snapshot: Vec<_> = paths.iter().map(|pa| p.shard_of(pa)).collect();
            let mut rng = SimRng::seed_from(seed ^ 0xD1F7);
            let far = SimTime::ZERO + SimDuration::from_secs(60);
            for i in 0..200u64 {
                let dir = vpath(["/a", "/b", "/c"][(rng.below(3)) as usize]);
                p.record(dir.as_str(), far + SimDuration::from_micros(i));
            }
            let after: Vec<_> = paths.iter().map(|pa| p.shard_of(pa)).collect();
            prop_assert_eq!(&snapshot, &after);
            // A declined rebalance (rate inside the hot band, so
            // neither branch fires) leaves routing untouched too.
            let dir = vpath("/a");
            for j in 0..3u64 {
                p.record(dir.as_str(), far + SimDuration::from_millis(10 + j));
            }
            let loads = vec![SimDuration::ZERO; shards];
            let ev = p.rebalance(
                dir.as_str(),
                far + SimDuration::from_millis(14),
                &loads,
                SimDuration::from_micros(77),
                64,
            );
            if ev.is_none() {
                let still: Vec<_> = paths.iter().map(|pa| p.shard_of(pa)).collect();
                prop_assert_eq!(&snapshot, &still);
            }
        }

        /// Replays are byte-identical: the same observation sequence
        /// produces the same events and the same final routing table.
        #[test]
        fn replay_is_byte_identical(
            seed in 0u64..10_000,
            shards in 1usize..9,
        ) {
            let (p1, log1) = drive(seed, shards, 400);
            let (p2, log2) = drive(seed, shards, 400);
            prop_assert_eq!(log1, log2);
            for path in sample_paths() {
                prop_assert_eq!(p1.shard_of(&path), p2.shard_of(&path));
            }
        }
    }
}
