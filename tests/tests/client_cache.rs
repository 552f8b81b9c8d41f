//! Integration tests for the client-side metadata cache.
//!
//! Pinned properties (the PR's acceptance criteria):
//!
//! 1. Cache off (the default) charges *bit-for-bit* the same virtual
//!    times as a stack built before the cache existed — the
//!    calibration suite keeps passing against the default config.
//! 2. `HotStatStorm` shows a measurable simulated-time win with the
//!    cache on, at the same shard count.
//! 3. Write sharing (`SharedDirStorm` with readdir polling) produces
//!    visible invalidation/recall traffic — in the cache stats and in
//!    the per-shard usage — while outcomes stay identical.
//! 4. TTL orders hit rates: a longer lease can only hit more.

use cofs::config::{CofsConfig, ShardPolicyKind};
use cofs::fs::CofsFs;
use cofs_tests::cofs_over_memfs;
use netsim::ids::NodeId;
use simcore::time::SimDuration;
use vfs::fs::{FileSystem, OpCtx};
use vfs::memfs::MemFs;
use vfs::path::vpath;
use workloads::metarates::{run_phase, MetaOp, MetaratesConfig};
use workloads::scenarios::{HotStatStorm, SharedDirStorm};
use workloads::target::BenchTarget;

#[test]
fn cache_off_is_bit_for_bit_the_pre_cache_stack() {
    // A config whose cache knobs are set but *disabled* must charge
    // exactly what the default (knob-free) config charges, op for op.
    let mut knobless = cofs_over_memfs(CofsConfig::default());
    let mut disabled_cfg = CofsConfig::default();
    disabled_cfg.client_cache.capacity = 7;
    disabled_cfg.client_cache.lease_ttl = SimDuration::from_micros(3);
    assert!(!disabled_cfg.client_cache.enabled);
    let mut with_knobs = cofs_over_memfs(disabled_cfg);

    let cfg = MetaratesConfig::new(4, 64);
    for op in [MetaOp::Create, MetaOp::Stat, MetaOp::OpenClose] {
        let a = run_phase(&mut cofs_over_memfs(CofsConfig::default()), &cfg, op);
        let b = run_phase(
            &mut cofs_over_memfs({
                let mut c = CofsConfig::default();
                c.client_cache.capacity = 1;
                c
            }),
            &cfg,
            op,
        );
        assert_eq!(a.makespan, b.makespan, "{op:?} makespan must be identical");
        assert!(
            (a.mean_ms() - b.mean_ms()).abs() < f64::EPSILON,
            "{op:?} mean must be identical"
        );
    }
    // And zero cache traffic is recorded either way.
    let ctx = OpCtx::test(NodeId(0));
    for fs in [&mut knobless, &mut with_knobs] {
        fs.mkdir(&ctx, &vpath("/d"), vfs::types::Mode::dir_default())
            .unwrap();
        fs.stat(&ctx, &vpath("/d")).unwrap();
        assert_eq!(fs.cache_stats().hits + fs.cache_stats().misses, 0);
        assert!(BenchTarget::cache_stats(&*fs).is_none());
    }
}

#[test]
fn hot_stat_storm_wins_at_every_shard_count() {
    let storm = HotStatStorm {
        nodes: 8,
        dirs: 2,
        files_per_dir: 8,
        rounds: 4,
        ..HotStatStorm::default()
    };
    for shards in [1usize, 2, 4] {
        let base = CofsConfig::default().with_shards(shards, ShardPolicyKind::HashByParent);
        let mut plain = cofs_over_memfs(base.clone());
        let mut cached = cofs_over_memfs(base.with_client_cache(4096, SimDuration::from_secs(30)));
        let r_plain = storm.run(&mut plain);
        let r_cached = storm.run(&mut cached);
        assert!(
            r_cached.makespan.as_secs_f64() < 0.6 * r_plain.makespan.as_secs_f64(),
            "{shards} shards: cache must win clearly: {:?} vs {:?}",
            r_cached.makespan,
            r_plain.makespan
        );
        let stats = r_cached.cache.expect("cache on");
        assert!(stats.hit_rate() > 0.7, "{shards} shards: {stats:?}");
    }
}

#[test]
fn write_sharing_shows_recalls_and_identical_outcomes() {
    let storm = SharedDirStorm {
        nodes: 4,
        dirs: 4,
        files_per_node: 8,
        stats_per_create: 2,
        readdirs_per_create: 1,
        ..SharedDirStorm::default()
    };
    let base = CofsConfig::default().with_shards(2, ShardPolicyKind::HashByParent);
    let mut plain = cofs_over_memfs(base.clone());
    let mut cached = cofs_over_memfs(base.with_client_cache(4096, SimDuration::from_secs(30)));
    let r_plain = storm.run(&mut plain);
    let r_cached = storm.run(&mut cached);

    // Coherence traffic is visible in the new columns…
    let stats = r_cached.cache.expect("cache on");
    assert!(stats.invalidations > 0, "{stats:?}");
    assert!(stats.recall_messages > 0, "{stats:?}");
    assert!(
        r_cached.per_shard.iter().map(|u| u.recalls).sum::<u64>() > 0,
        "{:?}",
        r_cached.per_shard
    );
    assert_eq!(
        r_plain.per_shard.iter().map(|u| u.recalls).sum::<u64>(),
        0,
        "no cache, no recalls"
    );

    // …while the virtual view is identical file for file.
    let ctx = OpCtx::test(NodeId(0));
    for d in 0..storm.dirs {
        let dir = storm.root.join(&format!("d{d}"));
        let names = |fs: &mut CofsFs<MemFs>| -> Vec<String> {
            fs.readdir(&ctx, &dir)
                .unwrap()
                .value
                .into_iter()
                .map(|e| e.name)
                .collect()
        };
        assert_eq!(names(&mut plain), names(&mut cached), "{dir}");
    }
}

#[test]
fn longer_leases_hit_no_less() {
    let storm = HotStatStorm {
        nodes: 4,
        dirs: 2,
        files_per_dir: 8,
        rounds: 6,
        ..HotStatStorm::default()
    };
    let mut last_rate = -1.0f64;
    for ttl in [
        SimDuration::from_micros(50),
        SimDuration::from_millis(5),
        SimDuration::from_secs(30),
    ] {
        let mut fs = cofs_over_memfs(
            CofsConfig::default()
                .with_shards(2, ShardPolicyKind::HashByParent)
                .with_client_cache(4096, ttl),
        );
        let r = storm.run(&mut fs);
        let rate = r.cache.expect("cache on").hit_rate();
        assert!(
            rate >= last_rate,
            "hit rate must be monotone in TTL: {rate} after {last_rate}"
        );
        last_rate = rate;
    }
    assert!(last_rate > 0.7, "long leases on a read-only tree must hit");
}

#[test]
fn capacity_one_cache_still_produces_correct_outcomes() {
    // Eviction thrash: every insert evicts; lease release + recall
    // bookkeeping must stay consistent and outcomes correct.
    let mut fs = cofs_over_memfs(
        CofsConfig::default()
            .with_shards(2, ShardPolicyKind::HashByParent)
            .with_client_cache(1, SimDuration::from_secs(30)),
    );
    let ctx = OpCtx::test(NodeId(0));
    fs.mkdir(&ctx, &vpath("/d"), vfs::types::Mode::dir_default())
        .unwrap();
    for i in 0..8 {
        let fh = fs
            .create(
                &ctx,
                &vpath(&format!("/d/f{i}")),
                vfs::types::Mode::file_default(),
            )
            .unwrap()
            .value;
        fs.close(&ctx, fh).unwrap();
    }
    for _ in 0..3 {
        for i in 0..8 {
            assert_eq!(
                fs.stat(&ctx, &vpath(&format!("/d/f{i}")))
                    .unwrap()
                    .value
                    .size,
                0
            );
        }
    }
    assert!(fs.cache_stats().evictions > 0);
    assert_eq!(fs.readdir(&ctx, &vpath("/d")).unwrap().value.len(), 8);
}
