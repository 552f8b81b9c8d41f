//! Differential tests: random operation sequences must produce
//! identical user-visible outcomes on the reference `MemFs`, on
//! COFS-over-MemFs (at 1, 2, and 4 metadata shards, with the
//! client-side metadata cache on at aggressive and degenerate
//! configurations, with metadata-RPC batching on — alone and stacked
//! under the cache — with per-batch read memoization and the
//! read-priority service lane, with write-behind journaling at a
//! degenerate durability window, and with the elastic shard policy at
//! a hair-trigger configuration — directories split, migrate, and
//! merge live mid-sequence — alone and stacked with everything else),
//! on bare GPFS (`PfsFs`), and on COFS-over-GPFS (centralized and at
//! 2 and 4 shards).
//!
//! This is the strongest POSIX-compliance evidence in the repository:
//! the virtualization layer reorganizes the physical layout — the
//! shard policy partitions the metadata service, the client cache
//! short-circuits round trips behind leases, and the batch pipeline
//! defers mutations' wire time behind asynchronous acknowledgements —
//! arbitrarily, yet no sequence of operations may be able to tell.
//! Shard counts, cache settings, and batch knobs are distinguishable
//! only by simulated time, never by outcome.

use cofs::config::ShardPolicyKind;
use cofs_tests::{
    apply_at, cofs_over_gpfs, cofs_over_gpfs_sharded, cofs_over_memfs, cofs_over_memfs_batched,
    cofs_over_memfs_batched_cached, cofs_over_memfs_cached, cofs_over_memfs_elastic,
    cofs_over_memfs_full_stack, cofs_over_memfs_memoized, cofs_over_memfs_sharded,
    cofs_over_memfs_write_behind, gen_ops, gpfs,
};
use netsim::ids::NodeId;
use simcore::time::SimDuration;
use vfs::memfs::MemFs;

fn run_differential(seed: u64, n_ops: usize) {
    let ops = gen_ops(seed, n_ops);
    let mut reference = MemFs::new();
    let mut cofs_mem = cofs_over_memfs();
    let mut cofs_mem_2s = cofs_over_memfs_sharded(2);
    let mut cofs_mem_4s = cofs_over_memfs_sharded(4);
    // Cache extremes: a generous cache that hits constantly, a
    // 1-entry cache that evicts constantly, and a 1µs TTL that expires
    // constantly — none may be observable in outcomes.
    let mut cofs_mem_cached = cofs_over_memfs_cached(1, 4096, SimDuration::from_secs(60));
    let mut cofs_mem_cached_4s = cofs_over_memfs_cached(4, 1, SimDuration::from_secs(60));
    let mut cofs_mem_cached_ttl = cofs_over_memfs_cached(2, 4096, SimDuration::from_micros(1));
    // Batching extremes: a deep pipeline with big slow batches, a
    // degenerate 1-op/depth-1 pipeline, and batching stacked under the
    // client cache — all must be invisible in outcomes too.
    let mut cofs_mem_batched = cofs_over_memfs_batched(1, 16, SimDuration::from_millis(10), 4);
    let mut cofs_mem_batched_4s = cofs_over_memfs_batched(4, 1, SimDuration::from_micros(1), 1);
    let mut cofs_mem_batched_cached =
        cofs_over_memfs_batched_cached(2, 8, SimDuration::from_secs(60));
    // Memoized batch pricing, alone and stacked with the priority lane
    // and the client cache — pricing and scheduling knobs must never
    // leak into outcomes.
    let mut cofs_mem_memoized = cofs_over_memfs_memoized(2, 16);
    // Write-behind journaling at a deliberately tiny durability window
    // (2 ops / 50µs, so the backpressure clamp fires constantly) —
    // deferred row application must stay invisible: reads consult the
    // journaled namespace, so read-your-writes is exact.
    let mut cofs_mem_journal = cofs_over_memfs_write_behind(2, 16);
    // Elastic sharding at a hair-trigger configuration: directories
    // split, migrate, and merge live mid-sequence, yet the routing
    // churn must never be observable in outcomes.
    let mut cofs_mem_elastic = cofs_over_memfs_elastic(4);
    let mut cofs_mem_full = cofs_over_memfs_full_stack(4);
    let mut bare_gpfs = gpfs(2);
    let mut cofs_gpfs = cofs_over_gpfs(2);
    let mut cofs_gpfs_2s = cofs_over_gpfs_sharded(2, 2, ShardPolicyKind::HashByParent);
    let mut cofs_gpfs_4s = cofs_over_gpfs_sharded(2, 4, ShardPolicyKind::HashByParent);
    for (i, op) in ops.iter().enumerate() {
        let node = NodeId((i % 2) as u32);
        // The issuers' clocks advance 100 µs per op, so time-windowed
        // machinery (cache TTLs, journal windows, elastic observation
        // windows) genuinely fires mid-sequence; outcomes must be
        // invariant to all of it.
        let now = simcore::time::SimTime::ZERO + SimDuration::from_micros(100) * i as u64;
        let expect = apply_at(&mut reference, node, now, op);
        for (label, got) in [
            ("cofs/memfs", apply_at(&mut cofs_mem, node, now, op)),
            (
                "cofs/memfs 2 shards",
                apply_at(&mut cofs_mem_2s, node, now, op),
            ),
            (
                "cofs/memfs 4 shards",
                apply_at(&mut cofs_mem_4s, node, now, op),
            ),
            (
                "cofs/memfs cached",
                apply_at(&mut cofs_mem_cached, node, now, op),
            ),
            (
                "cofs/memfs cached 4 shards cap 1",
                apply_at(&mut cofs_mem_cached_4s, node, now, op),
            ),
            (
                "cofs/memfs cached ttl 1us",
                apply_at(&mut cofs_mem_cached_ttl, node, now, op),
            ),
            (
                "cofs/memfs batched 16x4",
                apply_at(&mut cofs_mem_batched, node, now, op),
            ),
            (
                "cofs/memfs batched degenerate 4 shards",
                apply_at(&mut cofs_mem_batched_4s, node, now, op),
            ),
            (
                "cofs/memfs batched+cached 2 shards",
                apply_at(&mut cofs_mem_batched_cached, node, now, op),
            ),
            (
                "cofs/memfs memoized 2 shards",
                apply_at(&mut cofs_mem_memoized, node, now, op),
            ),
            (
                "cofs/memfs write-behind tiny window",
                apply_at(&mut cofs_mem_journal, node, now, op),
            ),
            (
                "cofs/memfs elastic hair-trigger 4 shards",
                apply_at(&mut cofs_mem_elastic, node, now, op),
            ),
            (
                "cofs/memfs memo+prio+journal+cached 4 shards",
                apply_at(&mut cofs_mem_full, node, now, op),
            ),
            ("gpfs", apply_at(&mut bare_gpfs, node, now, op)),
            ("cofs/gpfs", apply_at(&mut cofs_gpfs, node, now, op)),
            (
                "cofs/gpfs 2 shards",
                apply_at(&mut cofs_gpfs_2s, node, now, op),
            ),
            (
                "cofs/gpfs 4 shards",
                apply_at(&mut cofs_gpfs_4s, node, now, op),
            ),
        ] {
            assert_eq!(
                got, expect,
                "seed {seed} op {i} ({op:?}) diverged on {label}: \
                 expected {expect:?}, got {got:?}"
            );
        }
    }
    // The elastic row must not pass vacuously: on the long runs the
    // hair-trigger config has to have actually reorganized directories
    // mid-sequence (the advancing clocks above are what close its
    // observation windows).
    if n_ops >= 300 {
        let policy = cofs_mem_elastic
            .mds_cluster()
            .policy()
            .as_elastic()
            .expect("elastic row runs the elastic policy");
        assert!(
            policy.split_events() > 0,
            "seed {seed}: hair-trigger elastic policy never split — \
             the differential row exercises nothing"
        );
    }
}

#[test]
fn differential_seed_1() {
    run_differential(1, 300);
}

#[test]
fn differential_seed_2() {
    run_differential(2, 300);
}

#[test]
fn differential_seed_3() {
    run_differential(3, 300);
}

#[test]
fn differential_seed_4() {
    run_differential(4, 300);
}

#[test]
fn differential_many_seeds_short() {
    for seed in 10..40 {
        run_differential(seed, 80);
    }
}

/// The same differential property under proptest-driven seeds.
mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn differential_holds_for_any_seed(seed in 0u64..10_000) {
            run_differential(seed, 60);
        }
    }
}

/// Symlink resolution on a fixed script. Generated scripts never reach
/// a live link (their targets at the root are never created), so this
/// walks absolute and relative targets, `.` and `..` in a target
/// (including `..` past the root), links to links, and a link as the
/// first, a middle and the last component (`stat` does not follow a
/// trailing link, `open` does), plus the failures: a dangling link, a
/// loop, and a link to a file used as a directory. Every outcome on
/// `CofsFs` over `MemFs` at 1 and 4 shards and over GPFS must match
/// `MemFs`, and `MemFs` must answer what each step expects.
#[test]
fn symlink_resolution_matches_memfs() {
    use cofs_tests::{GenOp, Outcome};
    use vfs::error::Errno::{self, EINVAL, ENOENT, ENOTDIR};
    use vfs::path::vpath;
    use GenOp::*;

    let link = |target: &str, at: &str| Symlink(target.to_string(), vpath(at));
    let stat = |p: &str| Stat(vpath(p));
    let open = |p: &str| OpenRead(vpath(p), 4096);
    // Each step with the errno the reference must fail it with, if any.
    let script: Vec<(GenOp, Option<Errno>)> = vec![
        (Mkdir(vpath("/a")), None),
        (Mkdir(vpath("/a/sub")), None),
        (Mkdir(vpath("/b")), None),
        (CreateWrite(vpath("/a/sub/f"), 100), None),
        (CreateWrite(vpath("/a/g"), 7), None),
        (link("/a/sub", "/abs"), None),
        (link("sub", "/a/rel"), None),
        (link("../a/sub", "/b/up"), None),
        (link("../../../a", "/b/deep"), None),
        (link("./sub/f", "/a/dotf"), None),
        (link("/abs", "/chain"), None),
        (link("/a/g", "/a/filelink"), None),
        (link("/nowhere", "/dangling"), None),
        (link("/loop2", "/loop1"), None),
        (link("/loop1", "/loop2"), None),
        // The link as the first component.
        (stat("/abs/f"), None),
        (open("/abs/f"), None),
        (Readdir(vpath("/abs")), None),
        // The link as a middle component, relative and through `..`.
        (stat("/a/rel/f"), None),
        (open("/a/rel/f"), None),
        (stat("/b/up/f"), None),
        (stat("/b/deep/g"), None),
        (stat("/chain/f"), None),
        (Readdir(vpath("/a/rel")), None),
        // The link as the last component: lstat versus open.
        (stat("/a/dotf"), None),
        (open("/a/dotf"), None),
        (stat("/a/filelink"), None),
        (open("/a/filelink"), None),
        (stat("/chain"), None),
        // Mutations through links land in the target directory.
        (CreateWrite(vpath("/abs/new"), 5), None),
        (Mkdir(vpath("/a/rel/d2")), None),
        (Rename(vpath("/a/rel/new"), vpath("/b/up/moved")), None),
        (Readdir(vpath("/a/sub")), None),
        (Unlink(vpath("/chain/moved")), None),
        (Utime(vpath("/b/up/f")), None),
        (stat("/a/sub/f"), None),
        // Failures.
        (stat("/dangling"), None),
        (open("/dangling"), Some(ENOENT)),
        (stat("/dangling/x"), Some(ENOENT)),
        (open("/loop1"), Some(EINVAL)),
        (stat("/loop1/x"), Some(EINVAL)),
        (stat("/loop2"), None),
        (stat("/a/filelink/x"), Some(ENOTDIR)),
        (open("/a/filelink/x"), Some(ENOTDIR)),
        (CreateWrite(vpath("/a/filelink/new"), 1), Some(ENOTDIR)),
        (Mkdir(vpath("/a/filelink/d")), Some(ENOTDIR)),
    ];

    let mut reference = MemFs::new();
    let mut cofs_mem = cofs_over_memfs();
    let mut cofs_mem_4s = cofs_over_memfs_sharded(4);
    let mut cofs_gpfs = cofs_over_gpfs(2);
    for (i, (op, fails)) in script.iter().enumerate() {
        let node = NodeId((i % 2) as u32);
        let now = simcore::time::SimTime::ZERO + SimDuration::from_micros(100) * i as u64;
        let expect = apply_at(&mut reference, node, now, op);
        match (fails, &expect) {
            (None, Outcome::Ok(_)) => {}
            (Some(want), Outcome::Err(got)) if want == got => {}
            _ => panic!("step {i} ({op:?}): MemFs answered {expect:?}, expected {fails:?}"),
        }
        for (label, got) in [
            ("cofs/memfs", apply_at(&mut cofs_mem, node, now, op)),
            (
                "cofs/memfs 4 shards",
                apply_at(&mut cofs_mem_4s, node, now, op),
            ),
            ("cofs/gpfs", apply_at(&mut cofs_gpfs, node, now, op)),
        ] {
            assert_eq!(got, expect, "step {i} ({op:?}) diverged on {label}");
        }
    }
}
