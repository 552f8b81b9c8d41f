//! The simplest stack against its closed form.
//!
//! COFS over MemFs on one shard, with no batching and no cache, a
//! uniform round trip `R` and FUSE dispatch `F`. `N` closed-loop
//! clients, one per node and each with its shard session opened before
//! the measured phase, issue `K` ops each. The shard CPU is one FIFO
//! server with demand `S` per op, priced from the op's own row counts,
//! so the makespan has an exact form on both sides of the knee
//! `N·S = F + R + S`:
//!
//! - below it, the first round's queue order survives: each client's
//!   next request arrives after the last client of the round was
//!   served, so the last client finishes at `(N − 1)·S + K·(F + R + S)`;
//! - at or above it, the shard never idles after the first arrival, so
//!   the makespan is `F + R + N·K·S`.
//!
//! A mutation adds a commit, `S_w = S + commit + write × max(writes, 1)`,
//! and every `sync_every`-th commit adds `sync_cost`; the saturated
//! `mkdir` grid checks `F + R + N·K·S_w + ⌊N·K / sync_every⌋ · sync_cost`.
//!
//! A batch prices its reads once per distinct ancestor row. One node's
//! train of `k` creates into a batching stack that closes batches at
//! `k` ops fills one batch, which goes on the wire when its `k`-th op
//! is buffered at `t_k` and drains at `t_k + R/2 + S_b + R/2`, with
//! `S_b = mds_service + lookup·(Σ reads − memoized) + commit +
//! write·Σ writes`, plus `sync_cost` when the commit cadence lands. A
//! directory at depth `d` has `c = 2d` ancestor rows (an inode and a
//! dentry per level), so `k` creates into one directory memoize
//! `(k − 1)·c` reads and `k` creates into `k` sibling directories
//! memoize `(k − 1)·(c − 1)`: siblings differ in their last dentry.
//!
//! These forms pin the read and commit prices with arithmetic, not with
//! the code that computes them.

use cofs::config::{CofsConfig, DbCostModel};
use cofs::fs::CofsFs;
use cofs::mds::{Cred, DbOps, Mds};
use cofs_tests::cofs_over_memfs;
use netsim::ids::{NodeId, Pid};
use simcore::time::{SimDuration, SimTime};
use vfs::driver::{run, Action, ClientScript};
use vfs::fs::{FileSystem, OpCtx};
use vfs::memfs::MemFs;
use vfs::path::vpath;
use vfs::types::Mode;

/// The round trip `cofs_over_memfs` puts between every node and shard.
const R: SimDuration = SimDuration::from_micros(250);

/// Shard demand of an op reading `ops.reads` rows, and committing
/// `ops.writes` rows when it writes any.
fn demand(cfg: &CofsConfig, ops: DbOps) -> SimDuration {
    let db = &cfg.db;
    let reads = cfg.mds_service + db.lookup * ops.reads.max(1);
    if ops.writes == 0 {
        reads
    } else {
        reads + db.commit + db.write * ops.writes.max(1)
    }
}

fn ctx(node: usize) -> OpCtx {
    OpCtx::test(NodeId(node as u32))
}

fn cred() -> Cred {
    Cred {
        uid: ctx(0).uid,
        gid: ctx(0).gid,
    }
}

/// A stack on which each of `n` clients owns the directory `/c{i}`
/// holding the file `/c{i}/f`, and has its session open.
fn stack(cfg: &CofsConfig, n: usize) -> CofsFs<MemFs> {
    let mut fs = cofs_over_memfs(cfg.clone());
    for i in 0..n {
        fs.mkdir(&ctx(i), &vpath(&format!("/c{i}")), Mode::dir_default())
            .unwrap();
        let fh = fs
            .create(&ctx(i), &vpath(&format!("/c{i}/f")), Mode::file_default())
            .unwrap()
            .value;
        fs.close(&ctx(i), fh).unwrap();
    }
    // Sessions survive the reset; the clocks and commit counts do not.
    fs.reset_time();
    fs
}

/// The makespan of `k` measured ops per client for `n` clients.
fn makespan(
    cfg: &CofsConfig,
    n: usize,
    k: usize,
    op: impl Fn(usize, usize) -> Action,
) -> SimDuration {
    let mut fs = stack(cfg, n);
    let scripts = (0..n)
        .map(|i| {
            let mut s = ClientScript::new(NodeId(i as u32), Pid(1));
            for j in 0..k {
                s.push_measured("op", op(i, j));
            }
            s
        })
        .collect();
    let report = run(&mut fs, scripts);
    report.expect_clean();
    report.makespan - SimTime::ZERO
}

#[test]
fn stat_makespan_matches_the_closed_form_on_both_sides_of_the_knee() {
    // The rows a stat of `/c{i}/f` reads, counted by the namespace.
    let fs = stack(&CofsConfig::default(), 1);
    let ops = fs
        .mds_cluster()
        .namespace()
        .getattr(cred(), &vpath("/c0/f"))
        .unwrap()
        .1;
    assert_eq!(ops.writes, 0);
    let default = CofsConfig::default();
    let s = demand(&default, ops);
    // The default dispatch, and one that puts the knee on N = 8.
    let knee_at_8 = CofsConfig {
        fuse_dispatch: s * 7 - R,
        ..CofsConfig::default()
    };
    let mut below = 0;
    let mut above = 0;
    for cfg in [default, knee_at_8] {
        let f = cfg.fuse_dispatch;
        for n in [1u64, 2, 3, 4, 6, 7, 8, 9, 12, 16, 32, 64] {
            for k in [1u64, 8] {
                let expect = if s * n < f + R + s {
                    below += 1;
                    s * (n - 1) + (f + R + s) * k
                } else {
                    above += 1;
                    f + R + s * (n * k)
                };
                let got = makespan(&cfg, n as usize, k as usize, |i, _| {
                    Action::Stat(vpath(&format!("/c{i}/f")))
                });
                assert_eq!(got, expect, "F {f:?}, N {n}, K {k}, S {s:?}");
            }
        }
    }
    assert!(
        below >= 8 && above >= 8,
        "{below} rows below, {above} above"
    );
}

#[test]
fn saturated_mkdir_makespan_adds_commits_and_the_fsync_cadence() {
    // The rows a `mkdir` in `/c{i}` reads and writes, counted by a
    // namespace holding what the stack's does.
    let mut probe = Mds::new();
    let (dir, file) = (Mode::dir_default(), Mode::file_default());
    probe
        .mkdir(cred(), &vpath("/c0"), dir, SimTime::ZERO)
        .unwrap();
    let under = vpath("/.cofs/f");
    probe
        .create(cred(), &vpath("/c0/f"), file, under, SimTime::ZERO)
        .unwrap();
    let ops = probe
        .mkdir(cred(), &vpath("/c0/m0"), dir, SimTime::ZERO)
        .unwrap();
    assert!(ops.writes > 0);
    let cfg = CofsConfig::default();
    let (f, db) = (cfg.fuse_dispatch, &cfg.db);
    let sw = demand(&cfg, ops);
    // N·K straddles each multiple of `sync_every` (64) by one commit.
    for (n, k) in [(16u64, 1u64), (9, 7), (8, 8), (13, 5), (32, 8), (64, 8)] {
        assert!(sw * n >= f + R + sw, "N {n} must saturate the shard");
        let syncs = (n * k) / db.sync_every;
        let expect = f + R + sw * (n * k) + db.sync_cost * syncs;
        let got = makespan(&cfg, n as usize, k as usize, |i, j| {
            Action::Mkdir(vpath(&format!("/c{i}/m{j}")), Mode::dir_default())
        });
        assert_eq!(got, expect, "N {n}, K {k}, S_w {sw:?}");
    }
}

#[test]
fn batched_create_train_drains_at_the_closed_form() {
    let every_commit_syncs = CofsConfig {
        db: DbCostModel {
            sync_every: 1,
            ..DbCostModel::default()
        },
        ..CofsConfig::default()
    };
    let (dir, file) = (Mode::dir_default(), Mode::file_default());
    // `/p/d` and its siblings sit at depth 2.
    let c = 2 * 2;
    for cfg in [CofsConfig::default(), every_commit_syncs] {
        let db = &cfg.db;
        for k in [1u64, 2, 3, 8, 16] {
            for siblings in [false, true] {
                let dirs: Vec<String> = if siblings {
                    (0..k).map(|j| format!("/p/d{j}")).collect()
                } else {
                    vec!["/p/d".into()]
                };
                let made: Vec<_> = std::iter::once("/p")
                    .chain(dirs.iter().map(String::as_str))
                    .map(vpath)
                    .collect();
                let files: Vec<_> = (0..k as usize)
                    .map(|j| vpath(&format!("{}/f{j}", dirs[j % dirs.len()])))
                    .collect();
                // The train's rows, counted by a namespace holding what
                // the stack's does.
                let mut probe = Mds::new();
                for d in &made {
                    probe.mkdir(cred(), d, dir, SimTime::ZERO).unwrap();
                }
                let mut rows = DbOps::default();
                for f in &files {
                    let under = vpath("/.cofs/f");
                    let (_, ops) = probe.create(cred(), f, file, under, SimTime::ZERO).unwrap();
                    assert!(ops.reads > c, "a create reads its chain and more");
                    rows.merge(ops);
                }
                let memoized = (k - 1) * if siblings { c - 1 } else { c };
                let mut s_b = cfg.mds_service
                    + db.lookup * (rows.reads - memoized)
                    + db.commit
                    + db.write * rows.writes;
                // The batch's commit is the measured phase's first.
                if db.sync_every == 1 {
                    s_b += db.sync_cost;
                }

                let mut fs = cofs_over_memfs(cfg.clone().with_batching(
                    k as usize,
                    SimDuration::from_secs(1),
                    1,
                ));
                for d in &made {
                    fs.mkdir(&ctx(0), d, dir).unwrap();
                }
                // Sessions survive the reset; the clocks and commit
                // counts do not.
                fs.reset_time();
                let mut now = SimTime::ZERO;
                let mut t_k = now;
                for f in &files {
                    t_k = now + cfg.fuse_dispatch;
                    let op = OpCtx { now, ..ctx(0) };
                    now = fs.create(&op, f, file).unwrap().end;
                }
                let drained = fs.drain_batches().expect("the train filled a batch");
                let case = format!("k {k}, siblings {siblings}, sync_every {}", db.sync_every);
                assert_eq!(drained, t_k + R / 2 + s_b + R / 2, "{case}");
                let usage = &fs.mds_cluster().usage()[0];
                assert_eq!((usage.batches, usage.rpcs), (1, k), "{case}");
                assert_eq!(usage.reads_memoized, memoized, "{case}");
            }
        }
    }
}
