//! # cofs-tests — cross-crate integration, differential, and
//! calibration tests
//!
//! The actual tests live in `tests/`; this library only hosts shared
//! helpers: building the GPFS and COFS-over-GPFS stacks the same way
//! the benchmark binaries do, [`cofs_over_memfs`], the one
//! COFS-over-MemFs stack every test configures through a
//! [`CofsConfig`], and a deterministic random-operation generator for
//! differential testing.

use cofs::config::{CofsConfig, MdsNetwork, ShardPolicyKind};
use cofs::elastic::{ElasticConfig, ElasticPolicy};
use cofs::fs::CofsFs;
use cofs::mds_cluster::ShardPolicy;
use netsim::cluster::ClusterBuilder;
use netsim::ids::{NodeId, Pid};
use pfs::config::PfsConfig;
use pfs::fs::PfsFs;
use simcore::rng::SimRng;
use simcore::time::SimDuration;
use vfs::fs::{FileSystem, OpCtx};
use vfs::memfs::MemFs;
use vfs::path::{vpath, VPath};
use vfs::types::{Mode, OpenFlags};

/// Bare GPFS on the paper's flat testbed.
pub fn gpfs(nodes: usize) -> PfsFs {
    let cluster = ClusterBuilder::new().clients(nodes).servers(2).build();
    PfsFs::new(cluster, PfsConfig::default())
}

/// COFS over GPFS with a dedicated metadata host.
pub fn cofs_over_gpfs(nodes: usize) -> CofsFs<PfsFs> {
    let cluster = ClusterBuilder::new()
        .clients(nodes)
        .servers(2)
        .with_metadata_host()
        .build();
    let host = cluster.metadata_host().expect("metadata host requested");
    let net = MdsNetwork::from_cluster(&cluster, host);
    CofsFs::new(
        PfsFs::new(cluster, PfsConfig::default()),
        CofsConfig::default(),
        net,
        7,
    )
}

/// COFS over the plain reference filesystem, configured by `cfg` —
/// the one constructor behind every COFS-over-MemFs stack the tests
/// build (uniform 250 µs round trip, placement seed 7).
pub fn cofs_over_memfs(cfg: CofsConfig) -> CofsFs<MemFs> {
    CofsFs::new(
        MemFs::new(),
        cfg,
        MdsNetwork::uniform(SimDuration::from_micros(250)),
        7,
    )
}

/// `shards` shards under the elastic policy at a deliberately
/// hair-trigger configuration — splits after a handful of ops in a
/// tiny window, skew gate wide open, merges on any cold window — so a
/// short op sequence already sees live splits, migrations and merges.
pub fn hair_trigger_elastic(shards: usize) -> CofsConfig {
    let thresholds = ElasticConfig {
        split_threshold: 4,
        merge_threshold: 1,
        window: SimDuration::from_millis(2),
        split_skew_pct: 0,
        split_contrib_pct: 0,
        headroom_pct: u64::MAX,
        ..ElasticConfig::default()
    };
    CofsConfig {
        shard_policy: ShardPolicy::Elastic(ElasticPolicy::new(shards, thresholds)),
        ..CofsConfig::default()
    }
}

/// COFS over GPFS with `shards` metadata blades and the given
/// partitioning policy.
pub fn cofs_over_gpfs_sharded(
    nodes: usize,
    shards: usize,
    policy: ShardPolicyKind,
) -> CofsFs<PfsFs> {
    let cluster = ClusterBuilder::new()
        .clients(nodes)
        .servers(2)
        .metadata_hosts(shards)
        .build();
    let hosts = cluster.metadata_hosts().to_vec();
    let net = MdsNetwork::from_cluster_hosts(&cluster, &hosts);
    CofsFs::new(
        PfsFs::new(cluster, PfsConfig::default()),
        CofsConfig::default().with_shards(shards, policy),
        net,
        7,
    )
}

/// One randomly generated filesystem operation (paths drawn from a
/// small pool so collisions and error paths get exercised).
#[derive(Debug, Clone)]
pub enum GenOp {
    /// mkdir
    Mkdir(VPath),
    /// create + write + close (compound, so size is always published)
    CreateWrite(VPath, u64),
    /// open read-only + read + close
    OpenRead(VPath, u64),
    /// stat
    Stat(VPath),
    /// utime with fixed timestamps
    Utime(VPath),
    /// readdir
    Readdir(VPath),
    /// unlink
    Unlink(VPath),
    /// rmdir
    Rmdir(VPath),
    /// rename
    Rename(VPath, VPath),
    /// hard link
    Link(VPath, VPath),
    /// symlink (target drawn from the pool)
    Symlink(String, VPath),
}

/// Deterministically generates `n` operations from `seed`.
pub fn gen_ops(seed: u64, n: usize) -> Vec<GenOp> {
    let mut rng = SimRng::seed_from(seed);
    let dirs = ["/a", "/b", "/a/sub", "/b/sub"];
    let names = ["x", "y", "z", "w"];
    let pick_path = |rng: &mut SimRng| {
        let d = *rng.choose(&dirs);
        let f = *rng.choose(&names);
        vpath(&format!("{d}/{f}"))
    };
    let pick_dir = |rng: &mut SimRng| {
        let d = *rng.choose(&dirs);
        vpath(d)
    };
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let op = match rng.below(11) {
            0 => GenOp::Mkdir(pick_dir(&mut rng)),
            1 => GenOp::CreateWrite(pick_path(&mut rng), rng.range(0, 4096)),
            2 => GenOp::OpenRead(pick_path(&mut rng), rng.range(1, 8192)),
            3 => GenOp::Stat(pick_path(&mut rng)),
            4 => GenOp::Utime(pick_path(&mut rng)),
            5 => GenOp::Readdir(pick_dir(&mut rng)),
            6 => GenOp::Unlink(pick_path(&mut rng)),
            7 => GenOp::Rmdir(pick_dir(&mut rng)),
            8 => GenOp::Rename(pick_path(&mut rng), pick_path(&mut rng)),
            9 => GenOp::Link(pick_path(&mut rng), pick_path(&mut rng)),
            _ => GenOp::Symlink(format!("/{}", rng.choose(&names)), pick_path(&mut rng)),
        };
        ops.push(op);
    }
    ops
}

/// The observable outcome of one operation, normalized for comparison
/// across filesystems (timestamps and inode numbers excluded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Operation succeeded; payload captures the comparable result.
    Ok(String),
    /// Operation failed with this errno.
    Err(vfs::error::Errno),
}

/// Applies one generated op to a filesystem and returns the
/// normalized outcome.
pub fn apply<F: FileSystem + ?Sized>(fs: &mut F, node: NodeId, op: &GenOp) -> Outcome {
    apply_at(fs, node, simcore::time::SimTime::ZERO, op)
}

/// [`apply`] with the issuer's virtual clock at `now`. Advancing `now`
/// across a sequence is what lets time-windowed machinery (client-cache
/// TTLs, journal durability windows, elastic observation windows) fire
/// mid-sequence; outcomes must be invariant to it regardless.
pub fn apply_at<F: FileSystem + ?Sized>(
    fs: &mut F,
    node: NodeId,
    now: simcore::time::SimTime,
    op: &GenOp,
) -> Outcome {
    let ctx = OpCtx::test(node).with_pid(Pid(1)).at(now);
    let norm_attr = |a: vfs::types::FileAttr| {
        format!(
            "{:?} mode={} nlink={} size={}",
            a.ftype, a.mode, a.nlink, a.size
        )
    };
    let r: Result<String, vfs::error::FsError> = match op {
        GenOp::Mkdir(p) => fs.mkdir(&ctx, p, Mode::dir_default()).map(|_| "ok".into()),
        GenOp::CreateWrite(p, len) => fs.create(&ctx, p, Mode::file_default()).and_then(|t| {
            let c = ctx.at(t.end);
            let w = fs.write(&c, t.value, 0, *len)?;
            let c2 = ctx.at(w.end);
            fs.close(&c2, t.value)?;
            Ok(format!("wrote {len}"))
        }),
        GenOp::OpenRead(p, len) => fs.open(&ctx, p, OpenFlags::RDONLY).and_then(|t| {
            let c = ctx.at(t.end);
            let r = fs.read(&c, t.value, 0, *len);
            let got = match &r {
                Ok(g) => g.value,
                Err(_) => 0,
            };
            let c2 = ctx.at(r.as_ref().map(|g| g.end).unwrap_or(t.end));
            fs.close(&c2, t.value)?;
            r.map(|_| format!("read {got}"))
        }),
        GenOp::Stat(p) => fs.stat(&ctx, p).map(|t| norm_attr(t.value)),
        GenOp::Utime(p) => fs
            .utime(
                &ctx,
                p,
                simcore::time::SimTime::from_secs(1),
                simcore::time::SimTime::from_secs(2),
            )
            .map(|_| "ok".into()),
        GenOp::Readdir(p) => fs.readdir(&ctx, p).map(|t| {
            let names: Vec<String> = t
                .value
                .into_iter()
                .map(|e| format!("{}:{}", e.name, e.ftype))
                .collect();
            names.join(",")
        }),
        GenOp::Unlink(p) => fs.unlink(&ctx, p).map(|_| "ok".into()),
        GenOp::Rmdir(p) => fs.rmdir(&ctx, p).map(|_| "ok".into()),
        GenOp::Rename(a, b) => fs.rename(&ctx, a, b).map(|_| "ok".into()),
        GenOp::Link(a, b) => fs.link(&ctx, a, b).map(|_| "ok".into()),
        GenOp::Symlink(t, p) => fs.symlink(&ctx, t, p).map(|_| "ok".into()),
    };
    match r {
        Ok(s) => Outcome::Ok(s),
        Err(e) => Outcome::Err(e.errno()),
    }
}
