//! Golden pin of the metadata request path.
//!
//! A fixed op sequence from four nodes runs on seven stacks that between
//! them reach the metadata service every way `CofsFs` can: synchronous
//! reads and mutations, lease-cached and negative reads, batched
//! mutations with group commit or write-behind, two-phase renames and
//! links, elastic splits, and fault gates with retries. Every op's
//! completion time and errno, plus each stack's final per-shard, fault
//! and retry accounting, must match `golden/request_path.txt` exactly,
//! so any change to how a request is gated or priced shows up as a diff.
//!
//! Every stack runs twice: once listing through `readdir`, once through
//! `readdir_count`. Both passes must reproduce the golden file, each
//! count must equal the list length, and the two passes must end with
//! the same cache and layer counters and the same attributes, atime
//! included, on every listed directory that still exists.
//!
//! After an intended change to the numbers, regenerate the file with
//! `COFS_BLESS=1 cargo test -p cofs-tests --test request_path`.

use cofs::config::{CofsConfig, ShardPolicyKind};
use cofs::fault::FaultPlan;
use cofs::fs::CofsFs;
use cofs::mds::Cred;
use cofs::mds_cluster::ShardId;
use cofs_tests::{cofs_over_memfs, hair_trigger_elastic};
use netsim::ids::NodeId;
use simcore::time::{SimDuration, SimTime};
use std::fmt::Write as _;
use vfs::error::{Errno, FsError};
use vfs::fs::{FileSystem, OpCtx};
use vfs::memfs::MemFs;
use vfs::path::{vpath, VPath};
use vfs::types::{FileAttr, FileHandle, Mode, OpenFlags, SetAttr};

const NODES: usize = 4;

/// Which entry point a pass lists directories through.
#[derive(Debug, Clone, Copy)]
enum Listing {
    Readdir,
    Count,
}

/// One step of a node's script. `Write` and `Close` act on the handle
/// the node's last `Create` or `OpenTrunc` returned.
#[derive(Debug)]
enum Op {
    Mkdir(VPath),
    Create(VPath),
    Write(u64),
    Close,
    Stat(VPath),
    Readdir(VPath),
    Chmod(VPath),
    OpenTrunc(VPath),
    Symlink(String, VPath),
    Readlink(VPath),
    Statfs,
    Rename(VPath, VPath),
    Link(VPath, VPath),
    Unlink(VPath),
    Rmdir(VPath),
}

/// Node `i`'s script: its own directory, a shared directory every node
/// creates into, and renames and links into the next node's directory
/// (a different parent, so a different shard under most policies).
fn script(i: usize) -> Vec<Op> {
    use Op::*;
    let d = vpath(&format!("/n{i}"));
    let next = vpath(&format!("/n{}", (i + 1) % NODES));
    let shared = vpath("/shared");
    let s = |k: usize| shared.join(&format!("s{i}.{k}"));
    vec![
        Mkdir(shared.clone()),
        Mkdir(d.clone()),
        Mkdir(d.join("sub")),
        Create(d.join("f")),
        Close,
        Create(d.join("g")),
        Write(4096),
        Close,
        Stat(d.join("f")),
        Stat(d.join("missing")),
        Stat(d.join("missing")),
        Readdir(d.clone()),
        Chmod(d.join("f")),
        OpenTrunc(d.join("g")),
        Close,
        Symlink(format!("/n{i}/g"), d.join("ln")),
        Readlink(d.join("ln")),
        Statfs,
        Create(s(0)),
        Close,
        Create(s(1)),
        Close,
        Create(s(2)),
        Close,
        Stat(s(0)),
        Readdir(shared.clone()),
        Rename(d.join("f"), d.join("f2")),
        Rename(d.join("f2"), next.join(&format!("x{i}"))),
        Rename(s(1), d.join("s1")),
        Link(d.join("g"), d.join("g2")),
        Link(d.join("g"), next.join(&format!("l{i}"))),
        Readdir(d.clone()),
        Unlink(d.join("g2")),
        Unlink(d.join("g")),
        Unlink(next.join(&format!("l{i}"))),
        Unlink(d.join("ln")),
        Rmdir(d.join("sub")),
        Stat(d.join("g")),
        Rmdir(d.clone()),
        Stat(s(2)),
    ]
}

/// Applies `op` for `node` at `now`; returns the completion time
/// (a failure's own end time when it carries one). A successful
/// listing appends its entry count to `listed`.
fn apply(
    fs: &mut CofsFs<MemFs>,
    node: usize,
    now: SimTime,
    op: &Op,
    fh: &mut Option<FileHandle>,
    listing: Listing,
    listed: &mut Vec<u64>,
) -> Result<SimTime, FsError> {
    let ctx = OpCtx::test(NodeId(node as u32)).at(now);
    // A failed open leaves no handle: the dependent step fails too.
    let open = |fh: Option<FileHandle>| fh.ok_or_else(|| FsError::new(Errno::EBADF, "io", "none"));
    match op {
        Op::Mkdir(p) => fs.mkdir(&ctx, p, Mode::dir_default()).map(|t| t.end),
        Op::Create(p) => fs.create(&ctx, p, Mode::file_default()).map(|t| {
            *fh = Some(t.value);
            t.end
        }),
        Op::Write(len) => fs.write(&ctx, open(*fh)?, 0, *len).map(|t| t.end),
        Op::Close => fs.close(&ctx, open(fh.take())?).map(|t| t.end),
        Op::Stat(p) => fs.stat(&ctx, p).map(|t| t.end),
        Op::Readdir(p) => {
            let t = match listing {
                Listing::Readdir => fs.readdir(&ctx, p).map(|t| t.map(|v| v.len() as u64)),
                Listing::Count => fs.readdir_count(&ctx, p),
            }?;
            listed.push(t.value);
            Ok(t.end)
        }
        Op::Chmod(p) => fs
            .setattr(
                &ctx,
                p,
                SetAttr {
                    mode: Some(Mode::new(0o600)),
                    ..SetAttr::default()
                },
            )
            .map(|t| t.end),
        Op::OpenTrunc(p) => fs
            .open(&ctx, p, OpenFlags::WRONLY.with_truncate())
            .map(|t| {
                *fh = Some(t.value);
                t.end
            }),
        Op::Symlink(target, p) => fs.symlink(&ctx, target, p).map(|t| t.end),
        Op::Readlink(p) => fs.readlink(&ctx, p).map(|t| t.end),
        Op::Statfs => fs.statfs(&ctx).map(|t| t.end),
        Op::Rename(a, b) => fs.rename(&ctx, a, b).map(|t| t.end),
        Op::Link(a, b) => fs.link(&ctx, a, b).map(|t| t.end),
        Op::Unlink(p) => fs.unlink(&ctx, p).map(|t| t.end),
        Op::Rmdir(p) => fs.rmdir(&ctx, p).map(|t| t.end),
    }
}

/// Runs every node's script round-robin, one step per node per round,
/// each node on its own clock, and appends one line per op plus the
/// final accounting to `out`. Returns each successful listing's entry
/// count, in order.
fn run(name: &str, fs: &mut CofsFs<MemFs>, listing: Listing, out: &mut String) -> Vec<u64> {
    let scripts: Vec<Vec<Op>> = (0..NODES).map(script).collect();
    let mut clock = [SimTime::ZERO; NODES];
    let mut handles: [Option<FileHandle>; NODES] = [None; NODES];
    let mut listed = Vec::new();
    let steps = scripts[0].len();
    for step in 0..steps {
        for (node, script) in scripts.iter().enumerate() {
            let op = &script[step];
            let now = clock[node];
            let outcome = apply(fs, node, now, op, &mut handles[node], listing, &mut listed);
            let (end, what) = match &outcome {
                Ok(end) => (Some(*end), "ok".to_string()),
                Err(e) => (e.end(), format!("{:?}", e.errno())),
            };
            let end = end.unwrap_or(now).max(now);
            clock[node] = end;
            writeln!(
                out,
                "{name} n{node} #{step} {op:?}: {what} @{}",
                end.as_nanos()
            )
            .unwrap();
        }
    }
    finish(name, fs, out);
    listed
}

fn finish(name: &str, fs: &mut CofsFs<MemFs>, out: &mut String) {
    let tail = fs.drain_batches().map(SimTime::as_nanos);
    writeln!(out, "{name} drain: {tail:?}").unwrap();
    for u in fs.shard_usage() {
        writeln!(out, "{name} {u:?}").unwrap();
    }
    writeln!(out, "{name} {:?}", fs.fault_summary()).unwrap();
    writeln!(out, "{name} {:?}", fs.retry_stats()).unwrap();
}

fn hash4() -> CofsConfig {
    CofsConfig::default().with_shards(4, ShardPolicyKind::HashByParent)
}

/// (g)'s late phase: one more mutation far past the scripted run, its
/// batch flushed by a drain into two scripted drops. Nothing else talks
/// to the shard after the drops arm, so only the flush meets them.
const LATE: SimTime = SimTime::from_secs(1);

fn stacks() -> Vec<(&'static str, CofsFs<MemFs>)> {
    let late_shard = hash4().shard_policy.shard_of(&vpath("/late"));
    let crash = FaultPlan::default().crash(
        ShardId(0),
        SimTime::from_millis(6),
        SimDuration::from_millis(3),
    );
    let cascade = FaultPlan::default()
        .crash_loop(
            ShardId(1),
            SimTime::from_millis(4),
            SimDuration::from_millis(3),
            SimDuration::from_millis(2),
            3,
        )
        .crash(
            ShardId(2),
            SimTime::from_millis(4),
            SimDuration::from_millis(2),
        )
        .partition(
            ShardId(3),
            SimTime::from_millis(8),
            SimDuration::from_millis(2),
        )
        .drop_messages(late_shard, LATE + SimDuration::from_millis(1), 2);
    vec![
        ("a", cofs_over_memfs(CofsConfig::default())),
        ("b", cofs_over_memfs(hash4().with_read_priority())),
        (
            "c",
            cofs_over_memfs(
                hash4()
                    .with_batching(16, SimDuration::from_millis(5), 4)
                    .with_read_memoization()
                    .with_write_behind()
                    .with_read_priority()
                    .with_client_cache(4096, SimDuration::from_secs(10)),
            ),
        ),
        (
            "d",
            cofs_over_memfs(
                CofsConfig::default()
                    .with_shards(4, ShardPolicyKind::Subtree)
                    .with_batching(8, SimDuration::from_millis(1), 2),
            ),
        ),
        ("e", cofs_over_memfs(hair_trigger_elastic(4))),
        (
            "f",
            cofs_over_memfs(
                hash4()
                    .with_client_cache(256, SimDuration::from_millis(50))
                    .with_fault_plan(crash),
            ),
        ),
        (
            "g",
            cofs_over_memfs(
                hash4()
                    .with_batching(4, SimDuration::from_millis(2), 2)
                    .with_write_behind()
                    .with_standby()
                    .with_admission()
                    .with_client_cache(256, SimDuration::from_millis(50))
                    .with_fault_plan(cascade),
            ),
        ),
    ]
}

/// What a pass leaves that the golden file does not record, per stack.
#[derive(Debug, PartialEq)]
struct Tail {
    stack: &'static str,
    /// Each successful listing's entry count, in order.
    listed: Vec<u64>,
    cache: cofs::client_cache::CacheStats,
    counters: Vec<(&'static str, u64)>,
    /// Every listed directory that still exists, with its attributes.
    dirs: Vec<(VPath, FileAttr)>,
}

/// Runs every stack with `listing`; returns the golden text and each
/// stack's [`Tail`].
fn pass(listing: Listing) -> (String, Vec<Tail>) {
    let mut out = String::new();
    let mut tails = Vec::new();
    for (name, mut fs) in stacks() {
        let listed = run(name, &mut fs, listing, &mut out);
        let usage = fs.shard_usage();
        let two_phase: u64 = usage.iter().map(|u| u.two_phase).sum();
        let splits: u64 = usage.iter().map(|u| u.splits).sum();
        let retries = fs.retry_stats().retries;
        match name {
            "b" | "d" => assert!(two_phase > 0, "{name}: no two-phase commit ran"),
            "e" => assert!(splits > 0, "{name}: no elastic split fired"),
            "f" => assert!(retries > 0, "{name}: the crash never met a request"),
            _ => {}
        }
        if name == "g" {
            assert!(retries > 0, "g: the cascade never met a request");
            let ctx = OpCtx::test(NodeId(0)).at(LATE);
            let end = fs.mkdir(&ctx, &vpath("/late"), Mode::dir_default());
            writeln!(out, "g late mkdir: {:?}", end.map(|t| t.end.as_nanos())).unwrap();
            finish("g late", &mut fs, &mut out);
            let f = fs.fault_summary().expect("plan armed");
            assert_eq!(f.drops, 2, "g: both late drops must hit the flush");
        }
        // Read straight from the service's tables: a `stat` would
        // charge, and take leases, in the state being compared.
        let ctx = OpCtx::test(NodeId(0));
        let cred = Cred {
            uid: ctx.uid,
            gid: ctx.gid,
        };
        let mut dirs: Vec<VPath> = (0..NODES)
            .flat_map(script)
            .filter_map(|op| match op {
                Op::Readdir(p) => Some(p),
                _ => None,
            })
            .collect();
        dirs.sort();
        dirs.dedup();
        let dirs: Vec<(VPath, FileAttr)> = dirs
            .into_iter()
            .filter_map(|p| {
                let attr = fs.mds().getattr(cred, &p).ok()?.0.attr();
                Some((p, attr))
            })
            .collect();
        assert!(!dirs.is_empty(), "{name}: no listed directory survives");
        tails.push(Tail {
            stack: name,
            listed,
            cache: fs.cache_stats(),
            counters: fs.counters().iter().collect(),
            dirs,
        });
    }
    (out, tails)
}

#[test]
fn request_path_matches_golden() {
    let (out, by_readdir) = pass(Listing::Readdir);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/request_path.txt");
    if std::env::var_os("COFS_BLESS").is_some() {
        std::fs::write(path, &out).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file exists");
    let (counted_out, by_count) = pass(Listing::Count);
    for (listing, out) in [(Listing::Readdir, &out), (Listing::Count, &counted_out)] {
        for (i, (got, want)) in out.lines().zip(golden.lines()).enumerate() {
            assert_eq!(got, want, "{listing:?}: first difference at line {}", i + 1);
        }
        assert_eq!(
            out.lines().count(),
            golden.lines().count(),
            "{listing:?}: line count"
        );
    }
    assert_eq!(by_readdir.len(), by_count.len());
    for (a, b) in by_readdir.iter().zip(&by_count) {
        assert!(!a.listed.is_empty(), "{}: no listing succeeded", a.stack);
        assert_eq!(a, b, "{}: the two listing passes diverged", a.stack);
    }
}
