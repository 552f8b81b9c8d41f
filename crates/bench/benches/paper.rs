//! Criterion micro-benchmarks: one group per paper artifact, at
//! reduced sizes (these measure the *simulator's* wall-clock cost of
//! regenerating each experiment; the `fig*`/`table1` binaries print
//! the paper-scale rows).

use cofs::config::{CofsConfig, ShardPolicyKind};
use cofs_bench::{cofs_over_gpfs, gpfs, mds_limit, SWEEP_BATCH_DELAY, SWEEP_PIPELINE_DEPTH};
use criterion::{criterion_group, criterion_main, Criterion};
use workloads::ior::{run_ior_op, Access, FileMode, IoOp, IorConfig};
use workloads::metarates::{run_phase, MetaOp, MetaratesConfig};

const MB: u64 = 1024 * 1024;

/// `shards` hash-by-parent shards.
fn hashed(shards: usize) -> CofsConfig {
    CofsConfig::default().with_shards(shards, ShardPolicyKind::HashByParent)
}

/// [`hashed`] batching at `max_batch_ops` in the sweeps' shape.
fn hashed_batched(shards: usize, max_batch_ops: usize) -> CofsConfig {
    hashed(shards).with_batching(max_batch_ops, SWEEP_BATCH_DELAY, SWEEP_PIPELINE_DEPTH)
}

/// Raw MDS op throughput: drives an [`cofs::mds_cluster::MdsCluster`]
/// directly (no underlying filesystem, no driver) through the same
/// namespace-op + charge-RPC sequence `CofsFs` performs, so MDS
/// refactors show up here without workload noise.
fn mds_raw_ops(shards: usize) {
    use cofs::batch::BatchedOp;
    use cofs::config::MdsNetwork;
    use cofs::mds::Cred;
    use cofs::mds_cluster::{MdsCluster, Shape};
    use netsim::ids::NodeId;
    use simcore::time::{SimDuration, SimTime};
    use vfs::path::vpath;
    use vfs::types::{Gid, Mode, Uid};

    let cfg = hashed(shards);
    let net = MdsNetwork::uniform(SimDuration::from_micros(250));
    let mut cluster = MdsCluster::new(cfg.build_shard_policy());
    let cred = Cred {
        uid: Uid(1000),
        gid: Gid(1000),
    };
    let node = NodeId(0);
    let mut now = SimTime::ZERO;
    let charge = |cluster: &mut MdsCluster, shape, ops, now| {
        cluster.request(&cfg, &net, node, shape, &[BatchedOp::opaque(ops)], now)
    };
    const DIRS: usize = 8;
    for d in 0..DIRS {
        let dir = vpath(&format!("/d{d}"));
        let ops = cluster
            .namespace_mut()
            .mkdir(cred, &dir, Mode::dir_default(), now)
            .unwrap();
        let shard = cluster.route(&dir);
        now = charge(&mut cluster, Shape::Sync(shard), ops, now);
    }
    for i in 0..256usize {
        let path = vpath(&format!("/d{}/f{i}", i % DIRS));
        let (_, ops) = cluster
            .namespace_mut()
            .create(cred, &path, Mode::file_default(), vpath("/.u/x"), now)
            .unwrap();
        let shard = cluster.route(&path);
        now = charge(&mut cluster, Shape::Sync(shard), ops, now);
        let (_, ops) = cluster.namespace().getattr(cred, &path).unwrap();
        now = charge(&mut cluster, Shape::Sync(shard), ops, now);
        let to = vpath(&format!("/d{}/g{i}", (i + 3) % DIRS));
        let ops = cluster
            .namespace_mut()
            .rename(cred, &path, &to, now)
            .unwrap();
        let (a, b) = (cluster.route(&path), cluster.route(&to));
        let shape = if a == b {
            Shape::Sync(a)
        } else {
            Shape::TwoPhase(a, b)
        };
        now = charge(&mut cluster, shape, ops, now);
    }
}

fn bench_mds(c: &mut Criterion) {
    c.bench_function("mds_raw_create_getattr_rename_1shard", |b| {
        b.iter(|| mds_raw_ops(1))
    });
    c.bench_function("mds_raw_create_getattr_rename_4shards", |b| {
        b.iter(|| mds_raw_ops(4))
    });
}

/// The hot-stat storm in the metadata-service limit, with and without
/// the client cache — measures the simulator's wall-clock cost of the
/// cache bookkeeping itself (the *virtual*-time win is asserted by the
/// integration tests; here we make sure lease tracking stays cheap).
fn client_cache_storm(cached: bool) {
    use simcore::time::SimDuration;
    use workloads::scenarios::HotStatStorm;

    let storm = HotStatStorm {
        nodes: 4,
        dirs: 2,
        files_per_dir: 8,
        rounds: 4,
        ..HotStatStorm::default()
    };
    let cfg = if cached {
        hashed(2).with_client_cache(4096, SimDuration::from_secs(10))
    } else {
        hashed(2)
    };
    storm.run(&mut mds_limit(cfg));
}

fn bench_client_cache(c: &mut Criterion) {
    c.bench_function("client_cache_hot_stat_off", |b| {
        b.iter(|| client_cache_storm(false))
    });
    c.bench_function("client_cache_hot_stat_on", |b| {
        b.iter(|| client_cache_storm(true))
    });
}

/// Entries in the directory the `listing_` pair lists.
const LISTED: usize = 2560;

/// One `LISTED`-entry directory on a 4-shard COFS over MemFs with the
/// client cache on, and a context at the clock after its creates.
fn listing_dir() -> (
    cofs::fs::CofsFs<vfs::memfs::MemFs>,
    vfs::path::VPath,
    vfs::fs::OpCtx,
) {
    use simcore::time::SimDuration;
    use vfs::fs::{FileSystem, OpCtx};
    use vfs::types::Mode;

    let mut fs = mds_limit(hashed(4).with_client_cache(4096, SimDuration::from_secs(10)));
    let dir = vfs::path::vpath("/d");
    let ctx = OpCtx::test(netsim::ids::NodeId(0));
    let mut now = fs.mkdir(&ctx, &dir, Mode::dir_default()).unwrap().end;
    for i in 0..LISTED {
        let fh = fs
            .create(
                &ctx.at(now),
                &dir.join(&format!("f{i}")),
                Mode::file_default(),
            )
            .unwrap();
        now = fs.close(&ctx.at(fh.end), fh.value).unwrap().end;
    }
    (fs, dir, ctx.at(now))
}

/// One listing of the `LISTED`-entry directory through `readdir`, which
/// copies every name, and through `readdir_count`, which prices the
/// same listing without building it — the host cost scripted clients
/// save on every `Action::Readdir`.
fn bench_listing(c: &mut Criterion) {
    use vfs::fs::FileSystem;

    c.bench_function("listing_readdir_2560", |b| {
        let (mut fs, dir, ctx) = listing_dir();
        b.iter(|| fs.readdir(&ctx, &dir).unwrap().value.len())
    });
    c.bench_function("listing_count_2560", |b| {
        let (mut fs, dir, ctx) = listing_dir();
        b.iter(|| fs.readdir_count(&ctx, &dir).unwrap().value)
    });
}

/// One `stat` in the `LISTED`-entry directory, of a different name on
/// each iteration: the keyed lookups by name and path that every
/// create, stat and open pays (the namespace's directory-entry probes
/// and the client cache's lease probe). The `listing_` pair above is
/// the one place that sorts names.
fn bench_lookup(c: &mut Criterion) {
    use vfs::fs::FileSystem;

    c.bench_function("lookup_stat_2560", |b| {
        let (mut fs, dir, ctx) = listing_dir();
        let paths: Vec<_> = (0..LISTED).map(|i| dir.join(&format!("f{i}"))).collect();
        // 977 is coprime with `LISTED`, so the stride visits every name
        // before it repeats one. An untimed pass over half the names
        // warms the path first.
        let mut next = (0..).map(|turn| &paths[turn * 977 % LISTED]);
        for path in next.by_ref().take(LISTED / 2) {
            fs.stat(&ctx, path).unwrap();
        }
        b.iter(|| fs.stat(&ctx, next.next().unwrap()).unwrap().value.size)
    });
}

/// A bursty create storm in the metadata-service limit, with and
/// without the batch/pipeline layer — measures the simulator's
/// wall-clock cost of the batching bookkeeping (the *virtual*-time win
/// is asserted by the integration tests; here we make sure the
/// pipeline's buffering and slot accounting stay cheap).
fn batch_storm(max_batch_ops: Option<usize>) {
    use workloads::scenarios::SharedDirStorm;

    let storm = SharedDirStorm {
        nodes: 4,
        dirs: 2,
        files_per_node: 16,
        stats_per_create: 1,
        burst: 8,
        ..SharedDirStorm::default()
    };
    let cfg = match max_batch_ops {
        Some(k) => hashed_batched(2, k),
        None => hashed(2),
    };
    storm.run(&mut mds_limit(cfg));
}

fn bench_batching(c: &mut Criterion) {
    c.bench_function("batch_create_storm_off", |b| b.iter(|| batch_storm(None)));
    c.bench_function("batch_create_storm_ops8", |b| {
        b.iter(|| batch_storm(Some(8)))
    });
}

/// The mixed stat+create storm on an 8-op batched stack, FIFO vs the
/// read-priority lane — measures the wall-clock cost of the two-lane
/// segment bookkeeping (the stat-tail win is asserted by the
/// integration tests).
fn prio_storm(priority: bool) {
    use workloads::scenarios::SharedDirStorm;

    let storm = SharedDirStorm::mixed(4, 16);
    let cfg = if priority {
        hashed_batched(2, 8).with_read_priority()
    } else {
        hashed_batched(2, 8)
    };
    storm.run(&mut mds_limit(cfg));
}

/// The bursty create storm on an 8-op batched stack, with and without
/// the write-behind journal — measures the simulator's
/// wall-clock cost of the write-set plumbing, the per-batch sibling
/// coalescing pass, and the unapplied-entry window bookkeeping (the
/// *virtual*-time win is asserted by the integration tests).
fn journal_storm(write_behind: bool) {
    use workloads::scenarios::SharedDirStorm;

    let storm = SharedDirStorm {
        nodes: 4,
        dirs: 2,
        files_per_node: 16,
        stats_per_create: 0,
        burst: 8,
        ..SharedDirStorm::default()
    };
    let cfg = if write_behind {
        hashed_batched(2, 8).with_write_behind()
    } else {
        hashed_batched(2, 8)
    };
    storm.run(&mut mds_limit(cfg));
}

fn bench_write_behind(c: &mut Criterion) {
    c.bench_function("journal_batched_storm_off", |b| {
        b.iter(|| journal_storm(false))
    });
    c.bench_function("journal_batched_storm_on", |b| {
        b.iter(|| journal_storm(true))
    });
}

fn bench_read_priority(c: &mut Criterion) {
    c.bench_function("prio_mixed_storm_fifo", |b| b.iter(|| prio_storm(false)));
    c.bench_function("prio_mixed_storm_lane", |b| b.iter(|| prio_storm(true)));
}

/// The skewed-tenant storm under the static hash policy vs the elastic
/// policy — measures the simulator's wall-clock cost of the elastic
/// bookkeeping (per-directory observation windows, bucket tables, and
/// migration costing; the *virtual*-time win is asserted by the
/// integration tests and gated by `scripts/bench_check.py`).
fn elastic_storm(elastic: bool) {
    use workloads::scenarios::SkewedTenantStorm;

    let storm = SkewedTenantStorm {
        nodes: 4,
        tenants: 4,
        files_per_node: 16,
        ..SkewedTenantStorm::default()
    };
    let cfg = if elastic {
        CofsConfig::default().with_elastic(2)
    } else {
        hashed(2)
    };
    storm.run(&mut mds_limit(cfg));
}

fn bench_elastic(c: &mut Criterion) {
    c.bench_function("elastic_skewed_storm_static", |b| {
        b.iter(|| elastic_storm(false))
    });
    c.bench_function("elastic_skewed_storm_adaptive", |b| {
        b.iter(|| elastic_storm(true))
    });
}

/// The failover storm with and without one scripted mid-storm shard
/// crash — measures the simulator's wall-clock cost of the fault
/// machinery (script scanning at request entry, availability preflight,
/// fencing and retry bookkeeping; the *virtual*-time behaviour is
/// asserted by the integration tests and gated by
/// `scripts/bench_check.py`). The fault-free run exercises the armed
/// branch-out, so a regression in the default-off path shows here too.
fn failover_storm(crash: bool) {
    use cofs::fault::FaultPlan;
    use cofs::mds_cluster::ShardId;
    use simcore::time::{SimDuration, SimTime};
    use workloads::scenarios::SharedDirStorm;

    let storm = SharedDirStorm {
        nodes: 4,
        dirs: 8,
        files_per_node: 8,
        stats_per_create: 2,
        root: vfs::path::vpath("/failover"),
        ..SharedDirStorm::default()
    };
    let plan = if crash {
        FaultPlan::default().crash(
            ShardId(1),
            SimTime::from_millis(5),
            SimDuration::from_millis(10),
        )
    } else {
        FaultPlan::default()
    };
    storm.run(&mut mds_limit(hashed(4).with_fault_plan(plan)));
}

fn bench_fault(c: &mut Criterion) {
    c.bench_function("fault_failover_storm_off", |b| {
        b.iter(|| failover_storm(false))
    });
    c.bench_function("fault_failover_storm_crash", |b| {
        b.iter(|| failover_storm(true))
    });
}

/// The cascade storm under a crash-loop plus rack-partner plan —
/// measures the wall-clock cost of the correlated-failure machinery
/// (standby shipping per write-behind batch, promotion replay-set
/// scans, admission token-bucket checks at session re-establishment)
/// on top of the fault scaffolding `bench_fault` prices. Knobs-off vs
/// knobs-on isolates what the survival path itself costs the
/// simulator.
fn cascade_storm(standby: bool, admission: bool) {
    use cofs::fault::FaultPlan;
    use cofs::mds_cluster::ShardId;
    use simcore::time::{SimDuration, SimTime};
    use workloads::scenarios::SharedDirStorm;

    let storm = SharedDirStorm {
        nodes: 4,
        dirs: 8,
        files_per_node: 8,
        stats_per_create: 2,
        root: vfs::path::vpath("/cascade"),
        ..SharedDirStorm::default()
    };
    let plan = FaultPlan::default()
        .crash_loop(
            ShardId(1),
            SimTime::from_millis(2),
            SimDuration::from_millis(3),
            SimDuration::from_millis(10),
            3,
        )
        .crash(
            ShardId(2),
            SimTime::from_millis(2),
            SimDuration::from_millis(10),
        );
    let mut cfg = hashed_batched(4, 16)
        .with_write_behind()
        .with_fault_plan(plan);
    if standby {
        cfg = cfg.with_standby();
    }
    if admission {
        cfg = cfg.with_admission();
    }
    storm.run(&mut mds_limit(cfg));
}

fn bench_cascade(c: &mut Criterion) {
    c.bench_function("cascade_storm_knobs_off", |b| {
        b.iter(|| cascade_storm(false, false))
    });
    c.bench_function("cascade_storm_standby", |b| {
        b.iter(|| cascade_storm(true, false))
    });
    c.bench_function("cascade_storm_standby_admission", |b| {
        b.iter(|| cascade_storm(true, true))
    });
}

fn bench_fig1(c: &mut Criterion) {
    c.bench_function("fig1_single_node_stat_1536", |b| {
        b.iter(|| {
            let cfg = MetaratesConfig::new(1, 1536);
            run_phase(&mut gpfs(1), &cfg, MetaOp::Stat)
        })
    });
    c.bench_function("fig1_single_node_create_1024", |b| {
        b.iter(|| {
            let cfg = MetaratesConfig::new(1, 1024);
            run_phase(&mut gpfs(1), &cfg, MetaOp::Create)
        })
    });
}

fn bench_fig2(c: &mut Criterion) {
    c.bench_function("fig2_gpfs_parallel_create_4n", |b| {
        b.iter(|| {
            let cfg = MetaratesConfig::new(4, 256);
            run_phase(&mut gpfs(4), &cfg, MetaOp::Create)
        })
    });
}

fn bench_fig4(c: &mut Criterion) {
    c.bench_function("fig4_cofs_parallel_create_4n", |b| {
        b.iter(|| {
            let cfg = MetaratesConfig::new(4, 256);
            run_phase(&mut cofs_over_gpfs(4), &cfg, MetaOp::Create)
        })
    });
}

fn bench_fig5(c: &mut Criterion) {
    c.bench_function("fig5_cofs_parallel_stat_4n", |b| {
        b.iter(|| {
            let cfg = MetaratesConfig::new(4, 512);
            run_phase(&mut cofs_over_gpfs(4), &cfg, MetaOp::Stat)
        })
    });
}

fn bench_fig6(c: &mut Criterion) {
    use netsim::topology::Topology;
    c.bench_function("fig6_hierarchical_16n_stat", |b| {
        b.iter(|| {
            let cfg = MetaratesConfig::new(16, 64);
            run_phase(
                &mut cofs_bench::gpfs_on(16, Topology::hierarchical(8)),
                &cfg,
                MetaOp::Stat,
            )
        })
    });
}

fn bench_table1(c: &mut Criterion) {
    c.bench_function("table1_ior_seq_write_separate_4n", |b| {
        b.iter(|| {
            let cfg = IorConfig::new(4, 64 * MB, FileMode::FilePerProcess, Access::Sequential);
            run_ior_op(&mut gpfs(4), &cfg, IoOp::Write)
        })
    });
    c.bench_function("table1_ior_seq_read_cofs_4n", |b| {
        b.iter(|| {
            let cfg = IorConfig::new(4, 64 * MB, FileMode::FilePerProcess, Access::Sequential);
            run_ior_op(&mut cofs_over_gpfs(4), &cfg, IoOp::Read)
        })
    });
}

criterion_group! {
    name = paper;
    config = Criterion::default().sample_size(10);
    targets = bench_fig1, bench_fig2, bench_fig4, bench_fig5, bench_fig6, bench_table1, bench_mds, bench_client_cache, bench_batching, bench_write_behind, bench_read_priority, bench_elastic, bench_fault, bench_cascade, bench_listing, bench_lookup
}
criterion_main!(paper);
