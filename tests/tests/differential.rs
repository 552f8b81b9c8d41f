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
//! 2 and 4 shards). Each random sequence ends with every stack's
//! `statfs` counts compared against the reference's.
//!
//! This is the strongest POSIX-compliance evidence in the repository:
//! the virtualization layer reorganizes the physical layout — the
//! shard policy partitions the metadata service, the client cache
//! short-circuits round trips behind leases, and the batch pipeline
//! defers mutations' wire time behind asynchronous acknowledgements —
//! arbitrarily, yet no sequence of operations may be able to tell.
//! Shard counts, cache settings, and batch knobs are distinguishable
//! only by simulated time, never by outcome.

use cofs::config::{CofsConfig, ShardPolicyKind, WriteBehindConfig};
use cofs_tests::{
    apply_at, cofs_over_gpfs, cofs_over_gpfs_sharded, cofs_over_memfs, gen_ops, gpfs,
    hair_trigger_elastic,
};
use netsim::ids::NodeId;
use simcore::time::{SimDuration, SimTime};
use vfs::fs::{FileSystem, OpCtx};
use vfs::memfs::MemFs;

/// `shards` hash-by-parent shards (one shard is the centralized MDS).
fn hashed(shards: usize) -> CofsConfig {
    CofsConfig::default().with_shards(shards, ShardPolicyKind::HashByParent)
}

fn run_differential(seed: u64, n_ops: usize) {
    let ops = gen_ops(seed, n_ops);
    let mut reference = MemFs::new();
    // Elastic sharding at a hair-trigger configuration: directories
    // split, migrate, and merge live mid-sequence, yet the routing
    // churn must never be observable in outcomes.
    let mut elastic = cofs_over_memfs(hair_trigger_elastic(4));
    // Write-behind journaling at a deliberately tiny durability window
    // (2 ops / 50µs, so the backpressure clamp fires constantly) —
    // deferred row application must stay invisible: reads consult the
    // journaled namespace, so read-your-writes is exact.
    let mut journal = hashed(2)
        .with_batching(16, SimDuration::from_millis(5), 4)
        .with_write_behind();
    journal.write_behind = Some(WriteBehindConfig {
        max_unapplied_ops: 2,
        max_unapplied_window: SimDuration::from_micros(50),
    });
    let memfs = |cfg| Box::new(cofs_over_memfs(cfg)) as Box<dyn FileSystem>;
    let mut boxed: Vec<(&str, Box<dyn FileSystem>)> = vec![
        ("cofs/memfs", memfs(CofsConfig::default())),
        ("cofs/memfs 2 shards", memfs(hashed(2))),
        ("cofs/memfs 4 shards", memfs(hashed(4))),
        // Cache extremes: a generous cache that hits constantly, a
        // 1-entry cache that evicts constantly, and a 1µs TTL that
        // expires constantly — none may be observable in outcomes.
        (
            "cofs/memfs cached",
            memfs(hashed(1).with_client_cache(4096, SimDuration::from_secs(60))),
        ),
        (
            "cofs/memfs cached 4 shards cap 1",
            memfs(hashed(4).with_client_cache(1, SimDuration::from_secs(60))),
        ),
        (
            "cofs/memfs cached ttl 1us",
            memfs(hashed(2).with_client_cache(4096, SimDuration::from_micros(1))),
        ),
        // Batching extremes: a deep pipeline with big slow batches, a
        // degenerate 1-op/depth-1 pipeline, and batching stacked under
        // the client cache — all must be invisible in outcomes too.
        (
            "cofs/memfs batched 16x4",
            memfs(hashed(1).with_batching(16, SimDuration::from_millis(10), 4)),
        ),
        (
            "cofs/memfs batched degenerate 4 shards",
            memfs(hashed(4).with_batching(1, SimDuration::from_micros(1), 1)),
        ),
        (
            "cofs/memfs batched+cached 2 shards",
            memfs(
                hashed(2)
                    .with_batching(8, SimDuration::from_millis(1), 2)
                    .with_client_cache(4096, SimDuration::from_secs(60)),
            ),
        ),
        // Memoized batch pricing, alone and stacked with the priority
        // lane and the client cache — pricing and scheduling knobs must
        // never leak into outcomes.
        (
            "cofs/memfs memoized 2 shards",
            memfs(hashed(2).with_batching(16, SimDuration::from_millis(5), 4)),
        ),
        ("cofs/memfs write-behind tiny window", memfs(journal)),
        // The complete cost-model tower: every performance knob at once.
        (
            "cofs/memfs memo+prio+journal+cached 4 shards",
            memfs(
                hashed(4)
                    .with_batching(8, SimDuration::from_millis(1), 2)
                    .with_read_priority()
                    .with_write_behind()
                    .with_client_cache(4096, SimDuration::from_secs(60)),
            ),
        ),
        ("gpfs", Box::new(gpfs(2))),
        ("cofs/gpfs", Box::new(cofs_over_gpfs(2))),
        (
            "cofs/gpfs 2 shards",
            Box::new(cofs_over_gpfs_sharded(2, 2, ShardPolicyKind::HashByParent)),
        ),
        (
            "cofs/gpfs 4 shards",
            Box::new(cofs_over_gpfs_sharded(2, 4, ShardPolicyKind::HashByParent)),
        ),
    ];
    let mut stacks: Vec<(&str, &mut dyn FileSystem)> = boxed
        .iter_mut()
        .map(|(label, fs)| (*label, fs.as_mut() as &mut dyn FileSystem))
        .collect();
    stacks.push(("cofs/memfs elastic hair-trigger 4 shards", &mut elastic));
    // The issuers' clocks advance 100 µs per op, so time-windowed
    // machinery (cache TTLs, journal windows, elastic observation
    // windows) genuinely fires mid-sequence; outcomes must be invariant
    // to all of it.
    let clock = |i: usize| SimTime::ZERO + SimDuration::from_micros(100) * i as u64;
    for (i, op) in ops.iter().enumerate() {
        let node = NodeId((i % 2) as u32);
        let expect = apply_at(&mut reference, node, clock(i), op);
        for (label, fs) in stacks.iter_mut() {
            let got = apply_at(*fs, node, clock(i), op);
            assert_eq!(
                got, expect,
                "seed {seed} op {i} ({op:?}) diverged on {label}: \
                 expected {expect:?}, got {got:?}"
            );
        }
    }
    // The aggregate view must agree too: inode, directory and byte
    // counts after the whole sequence.
    let ctx = OpCtx::test(NodeId(0)).at(clock(n_ops));
    let expect = reference.statfs(&ctx).expect("statfs").value;
    for (label, fs) in stacks.iter_mut() {
        let got = fs.statfs(&ctx).expect("statfs").value;
        assert_eq!(got, expect, "seed {seed}: statfs diverged on {label}");
    }
    // The elastic row must not pass vacuously: on the long runs the
    // hair-trigger config has to have actually reorganized directories
    // mid-sequence (the advancing clocks above are what close its
    // observation windows).
    if n_ops >= 300 {
        let splits: u64 = elastic.shard_usage().iter().map(|u| u.splits).sum();
        assert!(
            splits > 0,
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
    let mut cofs_mem = cofs_over_memfs(CofsConfig::default());
    let mut cofs_mem_4s = cofs_over_memfs(hashed(4));
    let mut cofs_gpfs = cofs_over_gpfs(2);
    for (i, (op, fails)) in script.iter().enumerate() {
        let node = NodeId((i % 2) as u32);
        let now = SimTime::ZERO + SimDuration::from_micros(100) * i as u64;
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

/// Listing errors on a fixed script, through both `readdir` and
/// `readdir_count`. Generated scripts never make an unreadable file or
/// a directory the caller cannot read or search, so this does: the
/// owner lists an unreadable file and a readable one (`ENOTDIR`: the
/// type is checked before the permission), a directory without read
/// permission (`EACCES`), a directory under one without search
/// permission (`EACCES`), a missing name (`ENOENT`) and a readable
/// directory. Every outcome on bare GPFS, on `CofsFs` over `MemFs` at
/// 1 and 4 shards and on `CofsFs` over GPFS must match `MemFs`, and
/// `MemFs` must answer what each case expects.
#[test]
fn readdir_errors_match_memfs() {
    use cofs_tests::Outcome;
    use vfs::error::Errno::{self, EACCES, ENOENT, ENOTDIR};
    use vfs::fs::Timed;
    use vfs::path::vpath;
    use vfs::types::{DirEntry, Mode, SetAttr};

    // Each listed path with the errno the reference must fail it with,
    // if any.
    let cases: [(&str, Option<Errno>); 6] = [
        ("/secret", Some(ENOTDIR)),
        ("/plain", Some(ENOTDIR)),
        ("/noread", Some(EACCES)),
        ("/nosearch/d", Some(EACCES)),
        ("/missing", Some(ENOENT)),
        ("/open", None),
    ];

    /// Builds the fixture as its owner, then lists every case through
    /// both entry points; returns `(readdir, readdir_count)` outcomes.
    fn probe<F: FileSystem>(
        fs: &mut F,
        cases: &[(&str, Option<Errno>)],
    ) -> Vec<(Outcome, Outcome)> {
        let mut now = SimTime::ZERO;
        let mut ctx = || {
            now += SimDuration::from_millis(1);
            OpCtx::test(NodeId(0)).at(now)
        };
        let chmod = |bits| SetAttr {
            mode: Some(Mode::new(bits)),
            ..SetAttr::default()
        };
        for dir in ["/noread", "/nosearch", "/nosearch/d", "/open", "/open/a"] {
            fs.mkdir(&ctx(), &vpath(dir), Mode::dir_default()).unwrap();
        }
        for file in ["/secret", "/plain", "/open/b"] {
            let fh = fs
                .create(&ctx(), &vpath(file), Mode::file_default())
                .unwrap();
            fs.close(&ctx(), fh.value).unwrap();
        }
        for (path, bits) in [("/secret", 0o000), ("/noread", 0o300), ("/nosearch", 0o600)] {
            fs.setattr(&ctx(), &vpath(path), chmod(bits)).unwrap();
        }
        let outcome = |r: Result<String, vfs::error::FsError>| match r {
            Ok(s) => Outcome::Ok(s),
            Err(e) => Outcome::Err(e.errno()),
        };
        cases
            .iter()
            .map(|(path, _)| {
                let p = vpath(path);
                let listed = fs.readdir(&ctx(), &p);
                let counted = fs.readdir_count(&ctx(), &p);
                if let (Ok(l), Ok(c)) = (&listed, &counted) {
                    assert_eq!(l.value.len() as u64, c.value, "{path}: count");
                }
                let names = |t: Timed<Vec<DirEntry>>| {
                    let names: Vec<String> = t.value.into_iter().map(|e| e.name).collect();
                    names.join(",")
                };
                (
                    outcome(listed.map(names)),
                    outcome(counted.map(|t| t.value.to_string())),
                )
            })
            .collect()
    }

    let expect = probe(&mut MemFs::new(), &cases);
    for ((path, fails), (listed, counted)) in cases.iter().zip(&expect) {
        match (fails, listed, counted) {
            (None, Outcome::Ok(l), Outcome::Ok(_)) => assert_eq!(l, "a,b", "{path}"),
            (Some(want), Outcome::Err(l), Outcome::Err(c)) if want == l && want == c => {}
            _ => panic!("{path}: MemFs answered {listed:?} / {counted:?}, expected {fails:?}"),
        }
    }
    for (label, got) in [
        ("gpfs", probe(&mut gpfs(2), &cases)),
        (
            "cofs/memfs",
            probe(&mut cofs_over_memfs(CofsConfig::default()), &cases),
        ),
        (
            "cofs/memfs 4 shards",
            probe(&mut cofs_over_memfs(hashed(4)), &cases),
        ),
        ("cofs/gpfs", probe(&mut cofs_over_gpfs(2), &cases)),
    ] {
        for ((path, _), (got, want)) in cases.iter().zip(got.iter().zip(&expect)) {
            assert_eq!(got, want, "{path} diverged on {label}");
        }
    }
}

/// Truncation through `setattr` on a fixed script. Generated scripts
/// never change a size by path, so this writes 4096 bytes through a
/// handle it keeps open, truncates the file down by path, stats it,
/// reads and writes through the handle, closes it and stats again, then
/// truncates up and reads the file back. Every outcome on bare GPFS, on
/// `CofsFs` over `MemFs` at 1 and 4 shards and on `CofsFs` over GPFS
/// must match `MemFs`, and `MemFs` must answer the sizes POSIX gives.
#[test]
fn truncate_matches_memfs() {
    use vfs::path::vpath;
    use vfs::types::{Mode, OpenFlags};

    /// Runs the script; returns one line per step.
    fn probe<F: FileSystem>(fs: &mut F) -> Vec<String> {
        let mut now = SimTime::ZERO;
        let mut ctx = || {
            now += SimDuration::from_millis(1);
            OpCtx::test(NodeId(0)).at(now)
        };
        let f = vpath("/f");
        let mut out = Vec::new();
        let mut step = |what: &str, r: Result<u64, vfs::error::FsError>| {
            out.push(match r {
                Ok(v) => format!("{what} {v}"),
                Err(e) => format!("{what} {:?}", e.errno()),
            });
        };
        let fh = fs.create(&ctx(), &f, Mode::file_default()).unwrap().value;
        step("write", fs.write(&ctx(), fh, 0, 4096).map(|t| t.value));
        step("truncate", fs.truncate(&ctx(), &f, 100).map(|_| 100));
        step("stat", fs.stat(&ctx(), &f).map(|t| t.value.size));
        step("read", fs.read(&ctx(), fh, 0, 4096).map(|t| t.value));
        step("write", fs.write(&ctx(), fh, 100, 10).map(|t| t.value));
        step("close", fs.close(&ctx(), fh).map(|_| 0));
        step("stat", fs.stat(&ctx(), &f).map(|t| t.value.size));
        step("truncate", fs.truncate(&ctx(), &f, 8192).map(|_| 8192));
        step("stat", fs.stat(&ctx(), &f).map(|t| t.value.size));
        let fh = fs.open(&ctx(), &f, OpenFlags::RDONLY).unwrap().value;
        step("read", fs.read(&ctx(), fh, 0, 16384).map(|t| t.value));
        step("close", fs.close(&ctx(), fh).map(|_| 0));
        out
    }

    let expect = probe(&mut MemFs::new());
    assert_eq!(
        expect,
        [
            "write 4096",
            "truncate 100",
            "stat 100",
            "read 100",
            "write 10",
            "close 0",
            "stat 110",
            "truncate 8192",
            "stat 8192",
            "read 8192",
            "close 0",
        ]
    );
    for (label, got) in [
        ("gpfs", probe(&mut gpfs(2))),
        (
            "cofs/memfs",
            probe(&mut cofs_over_memfs(CofsConfig::default())),
        ),
        (
            "cofs/memfs 4 shards",
            probe(&mut cofs_over_memfs(hashed(4))),
        ),
        ("cofs/gpfs", probe(&mut cofs_over_gpfs(2))),
    ] {
        assert_eq!(got, expect, "diverged on {label}");
    }
}

/// Renaming one hard link of a file onto another on a fixed script.
/// POSIX says that when both names refer to the same file, `rename`
/// succeeds and does nothing, so both names survive with `nlink` 2 and
/// both stay listed; generated scripts never line this up. Covers a
/// same-directory and a cross-directory pair, then unlinks one name of
/// each pair and reads the file through the other. Every outcome on
/// bare GPFS, on `CofsFs` over `MemFs` at 1 and 4 shards and on
/// `CofsFs` over GPFS must match `MemFs`, and `MemFs` must answer what
/// each step expects.
#[test]
fn rename_between_links_matches_memfs() {
    use cofs_tests::{GenOp, Outcome};
    use vfs::path::vpath;
    use GenOp::*;

    let file = |nlink: u32| format!("Regular mode=644 nlink={nlink} size=5");
    let stat = |p: &str| Stat(vpath(p));
    let rename = |a: &str, b: &str| Rename(vpath(a), vpath(b));
    // Each step with the reference's expected payload.
    let script: Vec<(GenOp, String)> = vec![
        (Mkdir(vpath("/d")), "ok".into()),
        (Mkdir(vpath("/e")), "ok".into()),
        (CreateWrite(vpath("/d/a"), 5), "wrote 5".into()),
        (CreateWrite(vpath("/d/x"), 5), "wrote 5".into()),
        (Link(vpath("/d/a"), vpath("/d/b")), "ok".into()),
        (Link(vpath("/d/x"), vpath("/e/y")), "ok".into()),
        (rename("/d/a", "/d/b"), "ok".into()),
        (rename("/e/y", "/d/x"), "ok".into()),
        (stat("/d/a"), file(2)),
        (stat("/d/b"), file(2)),
        (stat("/d/x"), file(2)),
        (stat("/e/y"), file(2)),
        (Readdir(vpath("/d")), "a:file,b:file,x:file".into()),
        (Readdir(vpath("/e")), "y:file".into()),
        (Unlink(vpath("/d/a")), "ok".into()),
        (Unlink(vpath("/e/y")), "ok".into()),
        (stat("/d/b"), file(1)),
        (stat("/d/x"), file(1)),
        (OpenRead(vpath("/d/b"), 4096), "read 5".into()),
        (OpenRead(vpath("/d/x"), 4096), "read 5".into()),
    ];

    let mut reference = MemFs::new();
    let mut bare_gpfs = gpfs(2);
    let mut cofs_mem = cofs_over_memfs(CofsConfig::default());
    let mut cofs_mem_4s = cofs_over_memfs(hashed(4));
    let mut cofs_gpfs = cofs_over_gpfs(2);
    for (i, (op, want)) in script.iter().enumerate() {
        let node = NodeId((i % 2) as u32);
        let now = SimTime::ZERO + SimDuration::from_micros(100) * i as u64;
        let expect = apply_at(&mut reference, node, now, op);
        assert_eq!(
            expect,
            Outcome::Ok(want.clone()),
            "step {i} ({op:?}) on MemFs"
        );
        for (label, got) in [
            ("gpfs", apply_at(&mut bare_gpfs, node, now, op)),
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
