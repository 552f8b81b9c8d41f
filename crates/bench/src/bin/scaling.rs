//! Extension experiments beyond the paper's measured points:
//!
//! 1. Node-count sweep 4→64 on the hierarchical topology (the paper
//!    measured only the 64-node endpoint; this sweep shows where the
//!    curves separate — §IV-A: "the benefits of virtualization are not
//!    only maintained but increased in larger scales").
//! 2. MDS shard-count sweep under the shared-directory storm: the
//!    paper frames the virtualization layer as the enabler for
//!    distributing metadata across multiple servers; this axis
//!    measures that enablement directly.
//! 3. Client-cache sweep under the hot-stat storm: lease TTL × shard
//!    count, measuring how much of the remaining per-op RTT the
//!    client-side metadata cache removes when nothing conflicts.
//! 4. Batching sweep under a bursty create storm: `max_batch_ops`
//!    1 → 4 → 16 at fixed shards, measuring the RTT + group-commit
//!    amortization of the batch/pipeline layer — plus its deliberate
//!    non-wins (sparse mutators pay the delay window, read-only storms
//!    are untouched).
//! 5. Write-behind journal sweep under the same bursty storm: acks at
//!    journal append, sibling-coalesced deferred apply, with the
//!    durability window and the post-ack apply tail (the
//!    crash-consistency cost) reported explicitly.
//! 6. Elastic-policy axis: the shard-count storm sweep carries an
//!    elastic row per count (load-adaptive splitting must keep scaling
//!    where the static policies run out of directories), and a skewed
//!    multi-tenant storm where one tenant takes ~75 % of the load —
//!    the shape both static policies lose to a single hot shard.
//! 7. Failover axis: the same create/stat storm with one scripted
//!    shard crash, swept over crash timing × journal (plain vs
//!    write-behind, batched) × shard count. Reports the availability
//!    gap, recovery CPU, retry/NACK counts and backoff depth, lost-acked
//!    ops (gated at zero), and the stat tail through the fault window —
//!    next to a fault-free baseline row from the *same* config, which
//!    must match the plain storm bit-for-bit. No swept crash finds
//!    acked-but-unapplied rows: every row reads 0 for `replayed`,
//!    `lag rows`, `fenced`, `errors`, `cut off` and `eio nodes`, so
//!    recovery is a boot plus an empty journal-tail scan and the
//!    journal rows measure the retry traffic under batching, not
//!    replay cost. Rows that reach replay, fencing and retry exhaustion
//!    are ROADMAP item 2.
//! 8. Cascade axis: correlated failures (a crash-loop on one shard
//!    plus a simultaneous rack-partner crash) against the survival
//!    knobs — hot-standby promotion × post-recovery admission control
//!    × loop count × shard count. Standby must shrink the availability
//!    gap below the scripted `loops × down` floor; admission must
//!    shrink the post-recovery makespan on the convoy-visible rows;
//!    lost-acked stays zero everywhere.
//!
//! Alongside the text tables the binary writes `BENCH_scaling.json`
//! (see [`cofs_bench::write_bench_json`]) for machine consumption;
//! `scripts/bench_check.py` gates CI on its monotonicity claims.

use cofs::config::{CofsConfig, ShardPolicyKind};
use cofs::fault::FaultPlan;
use cofs_bench::{
    cofs_over_gpfs_on, gpfs_on, mds_limit, smoke_files, smoke_or, write_bench_json,
    SWEEP_BATCH_DELAY, SWEEP_PIPELINE_DEPTH,
};
use netsim::topology::Topology;
use simcore::time::{SimDuration, SimTime};
use workloads::metarates::{run_phase, MetaOp, MetaratesConfig};
use workloads::report::{
    batch_cells, cache_cells, fault_cells, ms, read_latency_cells, shard_skew,
    shard_utilization_table, Table, BATCH_COLUMNS, CACHE_COLUMNS, FAULT_COLUMNS, READ_LAT_COLUMNS,
};
use workloads::scenarios::{
    CascadeStorm, FailoverStorm, HotStatStorm, SharedDirStorm, SkewedTenantStorm,
};

/// `shards` hash-by-parent shards (one shard is the paper's single MDS).
fn hashed(shards: usize) -> CofsConfig {
    CofsConfig::default().with_shards(shards, ShardPolicyKind::HashByParent)
}

/// `cfg` batching at `max_ops` in the sweeps' shape; `None` leaves it
/// fully synchronous.
fn batched(cfg: CofsConfig, max_ops: Option<usize>) -> CofsConfig {
    match max_ops {
        Some(k) => cfg.with_batching(k, SWEEP_BATCH_DELAY, SWEEP_PIPELINE_DEPTH),
        None => cfg,
    }
}

fn main() {
    let fpn = smoke_files(256);
    println!("== Scaling: create & stat vs node count (hierarchical, {fpn} files/node) ==\n");
    let mut nodes_table = Table::new(vec![
        "nodes",
        "gpfs create",
        "cofs create",
        "gpfs stat",
        "cofs stat",
    ]);
    let node_counts = smoke_or(vec![4, 8], vec![4, 8, 16, 32, 64]);
    for nodes in node_counts {
        let cfg = MetaratesConfig::new(nodes, fpn);
        let topo = || Topology::hierarchical(16);
        let gc = run_phase(&mut gpfs_on(nodes, topo()), &cfg, MetaOp::Create);
        let cc = run_phase(&mut cofs_over_gpfs_on(nodes, topo()), &cfg, MetaOp::Create);
        let gs = run_phase(&mut gpfs_on(nodes, topo()), &cfg, MetaOp::Stat);
        let cs = run_phase(&mut cofs_over_gpfs_on(nodes, topo()), &cfg, MetaOp::Stat);
        nodes_table.row(vec![
            nodes.to_string(),
            ms(gc.mean_ms()),
            ms(cc.mean_ms()),
            ms(gs.mean_ms()),
            ms(cs.mean_ms()),
        ]);
    }
    println!("{}", nodes_table.render());

    // ---- shard-count axis (ROADMAP extension, not a paper figure) ----
    // Run in the metadata-service limit (MemFs substrate): over real
    // GPFS the native filesystem's ms-scale creates bound throughput
    // long before the MDS does, which is exactly the bottleneck shift
    // the paper predicts — here we measure the *next* bottleneck.
    // The storm concentrates 512 nodes on 8 hot directories so the
    // static policies run out of parallelism inside the sweep:
    // hash-by-parent can spread 8 dirs over at most 8 shards (its
    // 8- and 16-shard rows tie *exactly*), while the elastic policy
    // splits the hot directories' dentries across the idle shards and
    // must scale monotonically through 16 (`scripts/bench_check.py`
    // gates the elastic rows at *every* swept count; the static claim
    // still stops at the claimed regime). The node count matters
    // twice: 64 clients per directory keep every shard queue-bound
    // *even after* a split doubles each directory's service capacity
    // (a storm that splitting un-saturates only trades queueing for
    // convoy burstiness), and the long per-client op streams amortize
    // the extra per-(node, shard) session establishments that a wider
    // bucket fan-out forces every client to pay.
    let storm = SharedDirStorm {
        nodes: if cofs_bench::smoke_mode() { 48 } else { 512 },
        dirs: 8,
        files_per_node: smoke_files(8),
        ..SharedDirStorm::default()
    };
    println!(
        "== Scaling: shared-directory storm vs MDS shard count \
         ({} nodes, {} dirs, {} files/node, {} stats/create, \
         metadata-service limit) ==\n",
        storm.nodes, storm.dirs, storm.files_per_node, storm.stats_per_create
    );
    let mut headers = vec![
        "shards",
        "policy",
        "create (ms)",
        "makespan (ms)",
        "creates/s",
        "skew",
    ];
    headers.extend(READ_LAT_COLUMNS);
    let mut shards_table = Table::new(headers);
    let shard_counts = smoke_or(vec![1, 2], vec![1, 2, 4, 8, 16]);
    let mut last_usage = None;
    for shards in shard_counts.clone() {
        for kind in [ShardPolicyKind::HashByParent, ShardPolicyKind::Elastic] {
            let mut fs = mds_limit(CofsConfig::default().with_shards(shards, kind));
            let r = storm.run(&mut fs);
            let mut row = vec![
                shards.to_string(),
                fs.mds_cluster().policy().label().into(),
                ms(r.mean_create_ms),
                ms(r.makespan.as_millis_f64()),
                format!("{:.0}", r.creates_per_sec()),
                format!("{:.2}", shard_skew(&r.per_shard)),
            ];
            row.extend(read_latency_cells(r.stat_p50_p99_ms));
            shards_table.row(row);
            if kind == ShardPolicyKind::Elastic {
                last_usage = Some((r.per_shard, r.makespan));
            }
        }
    }
    println!("{}", shards_table.render());
    let (usage, usage_makespan) = last_usage.expect("shard sweep ran");
    println!("Per-shard load at the largest shard count (elastic):\n");
    let usage_table = shard_utilization_table(&usage, usage_makespan);
    println!("{}", usage_table.render());

    // ---- skewed-tenant axis: the workload both static policies lose --
    // One tenant directory takes ~75 % of all creates. Subtree
    // partitioning pins the whole hot tenant to one shard,
    // hash-by-parent pins the hot *directory* to one shard just the
    // same — so both saturate one shard however many exist. The
    // elastic policy splits the hot directory's dentries across shards
    // once its measured rate crosses the split threshold, so its
    // makespan must stay at or below the best static row at every
    // swept shard count (`scripts/bench_check.py` gates this).
    let skewed = SkewedTenantStorm {
        files_per_node: smoke_files(32),
        ..SkewedTenantStorm::default()
    };
    println!(
        "== Scaling: skewed multi-tenant storm vs shard policy \
         ({} nodes, {} tenants, {} files/node, ~75% on one tenant, \
         metadata-service limit) ==\n",
        skewed.nodes, skewed.tenants, skewed.files_per_node
    );
    let mut skew_table = Table::new(vec![
        "shards",
        "policy",
        "create (ms)",
        "makespan (ms)",
        "creates/s",
        "skew",
    ]);
    for shards in smoke_or(vec![2], vec![2, 4, 8, 16]) {
        for kind in [
            ShardPolicyKind::HashByParent,
            ShardPolicyKind::Subtree,
            ShardPolicyKind::Elastic,
        ] {
            let mut fs = mds_limit(CofsConfig::default().with_shards(shards, kind));
            let r = skewed.run(&mut fs);
            skew_table.row(vec![
                shards.to_string(),
                fs.mds_cluster().policy().label().into(),
                ms(r.mean_create_ms),
                ms(r.makespan.as_millis_f64()),
                format!("{:.0}", r.creates_per_sec()),
                format!("{:.2}", shard_skew(&r.per_shard)),
            ]);
        }
    }
    println!("{}", skew_table.render());

    // ---- client-cache axis: hot-stat storm, lease TTL × shards ----
    // The cache's best case: a read-only tree every node polls. With
    // leases the RTT is paid once per (node, path) per TTL window, so
    // makespan collapses toward the FUSE dispatch floor whatever the
    // shard count — and the shard sweep shows caching and sharding
    // compose (hits bypass the shard queues entirely).
    let hot = HotStatStorm {
        nodes: cofs_bench::smoke_nodes(16),
        rounds: if cofs_bench::smoke_mode() { 3 } else { 8 },
        ..HotStatStorm::default()
    };
    println!(
        "== Scaling: hot-stat storm vs client cache \
         ({} nodes, {} dirs × {} files, {} rounds, metadata-service limit) ==\n",
        hot.nodes, hot.dirs, hot.files_per_dir, hot.rounds
    );
    let mut headers = vec!["shards", "cache ttl", "stat (ms)", "makespan (ms)"];
    headers.extend(CACHE_COLUMNS);
    let mut cache_table = Table::new(headers);
    let ttls = smoke_or(
        vec![None, Some(SimDuration::from_secs(10))],
        vec![
            None,
            Some(SimDuration::from_millis(2)),
            Some(SimDuration::from_millis(50)),
            Some(SimDuration::from_secs(10)),
        ],
    );
    for shards in shard_counts {
        for ttl in &ttls {
            let cfg = match ttl {
                None => hashed(shards),
                Some(ttl) => hashed(shards).with_client_cache(4096, *ttl),
            };
            let r = hot.run(&mut mds_limit(cfg));
            let mut row = vec![
                shards.to_string(),
                ttl.map_or("off".into(), |t| format!("{:.0}ms", t.as_millis_f64())),
                ms(r.mean_stat_ms),
                ms(r.makespan.as_millis_f64()),
            ];
            row.extend(cache_cells(r.cache.as_ref()));
            cache_table.row(row);
        }
    }
    println!("{}", cache_table.render());

    // ---- batching axis: bursty create storm, max_batch_ops sweep ----
    // Fixed shards, creates arriving in bursts (the untar/compile
    // pattern SharedDirStorm.burst models), no interleaved stats: the
    // polling axis belongs to the cache sweep above, and synchronous
    // reads behind batched create lumps would measure head-of-line
    // blocking instead of the mutation path. Here the pipeline
    // saturates the shard CPUs, so RTT amortization and shard-side
    // group commit compound and the storm makespan must improve
    // monotonically 1 → 4 → 16 (`scripts/bench_check.py` enforces this
    // on the JSON report).
    let bstorm = SharedDirStorm {
        nodes: cofs_bench::smoke_nodes(16),
        dirs: 8,
        files_per_node: smoke_files(64),
        stats_per_create: 0,
        burst: 16,
        ..SharedDirStorm::default()
    };
    println!(
        "== Scaling: shared-directory storm vs batching \
         ({} nodes, {} dirs, {} files/node in bursts of {}, 2 shards, \
         metadata-service limit) ==\n",
        bstorm.nodes, bstorm.dirs, bstorm.files_per_node, bstorm.burst
    );
    let mut headers = vec!["batching", "create (ms)", "makespan (ms)"];
    headers.extend(READ_LAT_COLUMNS);
    headers.extend(BATCH_COLUMNS);
    let mut batch_table = Table::new(headers);
    for max_ops in [None, Some(1), Some(4), Some(16)] {
        let r = bstorm.run(&mut mds_limit(batched(hashed(2), max_ops)));
        let mut row = vec![
            max_ops.map_or("off".into(), |k| k.to_string()),
            ms(r.mean_create_ms),
            ms(r.makespan.as_millis_f64()),
        ];
        row.extend(read_latency_cells(r.stat_p50_p99_ms));
        row.extend(batch_cells(r.batch.as_ref()));
        batch_table.row(row);
    }
    println!("{}", batch_table.render());

    // ---- memoization axis: the same bursty storm, batch pricing by
    // deduplicated read set ----
    // At 16-op batches >90% of a batch's service time is per-op row
    // reads, and a batch into one directory resolves the same parent
    // chain 16 times. Memoized pricing charges each distinct chain row
    // once per batch, so every batch size must get strictly cheaper
    // with memoization on and the 16-op memoized storm must beat PR 4's
    // unmemoized ceiling (`scripts/bench_check.py` gates both).
    println!(
        "== Scaling: bursty storm vs per-batch read memoization \
         ({} nodes, {} dirs, {} files/node in bursts of {}, 2 shards) ==\n",
        bstorm.nodes, bstorm.dirs, bstorm.files_per_node, bstorm.burst
    );
    let mut headers = vec!["batching", "memo", "create (ms)", "makespan (ms)"];
    headers.extend(READ_LAT_COLUMNS);
    headers.extend(["reads charged", "reads memoized"]);
    let mut memo_table = Table::new(headers);
    for max_ops in [None, Some(1), Some(4), Some(16)] {
        for memo in [false, true] {
            if memo && max_ops.is_none() {
                continue; // memoization dedupes within batches only
            }
            let mut cfg = batched(hashed(2), max_ops);
            if memo {
                cfg = cfg.with_read_memoization();
            }
            let r = bstorm.run(&mut mds_limit(cfg));
            let charged: u64 = r.per_shard.iter().map(|u| u.reads_charged).sum();
            let memoized: u64 = r.per_shard.iter().map(|u| u.reads_memoized).sum();
            let mut row = vec![
                max_ops.map_or("off".into(), |k| k.to_string()),
                if memo { "on" } else { "off" }.to_string(),
                ms(r.mean_create_ms),
                ms(r.makespan.as_millis_f64()),
            ];
            row.extend(read_latency_cells(r.stat_p50_p99_ms));
            row.extend([charged.to_string(), memoized.to_string()]);
            memo_table.row(row);
        }
    }
    println!("{}", memo_table.render());

    // ---- write-behind axis: the same bursty storm, acks at journal
    // append, sibling-coalesced deferred apply ----
    // The memoized 16-op batch still pays a full group commit (writes
    // priced row by row) before the ack. Write-behind acks after one
    // sequential journal append and applies the rows behind the ack,
    // coalescing same-parent sibling dentry updates so a 16-create
    // burst into one directory touches the parent row once per batch.
    // Every swept batch size must be no slower with the journal on,
    // and the 16-op journaled storm must beat PR 6's memoized ceiling
    // (`scripts/bench_check.py` gates both, plus coalesced > 0). The
    // sweep starts at 4-op batches: a singleton batch has nothing to
    // coalesce, so under CPU saturation it pays the append as pure tax
    // — the ablation binary shows that non-win honestly. The
    // crash-consistency cost is explicit: "apply tail" is how long
    // after the last ack the final rows land.
    {
        let wb = cofs::config::WriteBehindConfig::enabled();
        println!(
            "== Scaling: bursty storm vs write-behind journal \
             ({} nodes, {} dirs, {} files/node in bursts of {}, 2 shards, \
             memoization on, durability window {} ops / {:.0} ms) ==\n",
            bstorm.nodes,
            bstorm.dirs,
            bstorm.files_per_node,
            bstorm.burst,
            wb.max_unapplied_ops,
            wb.max_unapplied_window.as_millis_f64()
        );
    }
    let mut headers = vec!["batching", "write-behind", "create (ms)", "makespan (ms)"];
    headers.extend(READ_LAT_COLUMNS);
    headers.extend(["journal", "coalesced", "apply lag (ms)", "apply tail (ms)"]);
    let mut wb_table = Table::new(headers);
    for k in [4, 8, 16] {
        for behind in [false, true] {
            let mut cfg = batched(hashed(2), Some(k)).with_read_memoization();
            if behind {
                cfg = cfg.with_write_behind();
            }
            let r = bstorm.run(&mut mds_limit(cfg));
            let appends: u64 = r.per_shard.iter().map(|u| u.journal_appends).sum();
            let coalesced: u64 = r.per_shard.iter().map(|u| u.rows_coalesced).sum();
            let lag = r
                .per_shard
                .iter()
                .map(|u| u.apply_lag)
                .max()
                .unwrap_or(SimDuration::ZERO);
            let mut row = vec![
                k.to_string(),
                if behind { "on" } else { "off" }.to_string(),
                ms(r.mean_create_ms),
                ms(r.makespan.as_millis_f64()),
            ];
            row.extend(read_latency_cells(r.stat_p50_p99_ms));
            row.extend([
                appends.to_string(),
                coalesced.to_string(),
                ms(lag.as_millis_f64()),
                ms(r.apply_tail_ms),
            ]);
            wb_table.row(row);
        }
    }
    println!("{}", wb_table.render());

    // ---- read-priority axis: mixed stat+create storm, lane × batch ----
    // The ablation's round-robin row shows mixed storms gain nothing
    // from batching: synchronous stats queue behind multi-op batch
    // lumps, so stat p99 *grows* with max_batch_ops under FIFO. The
    // priority lane lets reads bypass queued (not in-service) lumps —
    // stat p99 must stop growing with batch size while the storm's
    // makespan keeps its batching win (`scripts/bench_check.py` gates
    // the tail claims).
    let mstorm = SharedDirStorm::mixed(cofs_bench::smoke_nodes(16), smoke_files(32));
    println!(
        "== Scaling: mixed stat+create storm vs read priority \
         ({} nodes, {} dirs, {} files/node in bursts of {}, \
         {} stats/create, 2 shards) ==\n",
        mstorm.nodes, mstorm.dirs, mstorm.files_per_node, mstorm.burst, mstorm.stats_per_create
    );
    let mut headers = vec!["batching", "lane"];
    headers.extend(READ_LAT_COLUMNS);
    headers.extend(["makespan (ms)", "bypasses"]);
    let mut prio_table = Table::new(headers);
    for max_ops in [None, Some(4), Some(16)] {
        for priority in [false, true] {
            let mut cfg = batched(hashed(2), max_ops);
            if priority {
                cfg = cfg.with_read_priority();
            }
            let r = mstorm.run(&mut mds_limit(cfg));
            let bypasses: u64 = r.per_shard.iter().map(|u| u.read_bypasses).sum();
            let mut row = vec![
                max_ops.map_or("off".into(), |k| k.to_string()),
                if priority { "priority" } else { "fifo" }.to_string(),
            ];
            row.extend(read_latency_cells(r.stat_p50_p99_ms));
            row.push(ms(r.makespan.as_millis_f64()));
            row.push(bypasses.to_string());
            prio_table.row(row);
        }
    }
    println!("{}", prio_table.render());

    // ---- batching non-wins: sparse mutators and read-only storms ----
    // The same layer must NOT pay for itself where it cannot help: a
    // sparse mutator's lone ops wait out the delay window before going
    // on the wire (the Nagle tax on completion), and a read-only storm
    // never batches at all — its makespan must be untouched.
    let sparse = SharedDirStorm {
        nodes: cofs_bench::smoke_nodes(8),
        dirs: 8,
        files_per_node: 2,
        stats_per_create: 0,
        ..SharedDirStorm::default()
    };
    println!(
        "== Scaling: batching non-wins (sparse: {} nodes × {} lone creates; \
         hot-stat: read-only) ==\n",
        sparse.nodes, sparse.files_per_node
    );
    let hot_nw = HotStatStorm {
        nodes: cofs_bench::smoke_nodes(8),
        rounds: if cofs_bench::smoke_mode() { 2 } else { 4 },
        ..HotStatStorm::default()
    };
    let mut headers = vec!["workload", "batching", "makespan (ms)"];
    headers.extend(BATCH_COLUMNS);
    let mut nonwin_table = Table::new(headers);
    for max_ops in [None, Some(16)] {
        let label = max_ops.map_or("off".to_string(), |k| k.to_string());
        let stack = || mds_limit(batched(hashed(4), max_ops));
        for (wl, r) in [
            ("sparse creates", sparse.run(&mut stack())),
            ("hot-stat (read-only)", hot_nw.run(&mut stack())),
        ] {
            let mut row = vec![
                wl.to_string(),
                label.clone(),
                ms(r.makespan.as_millis_f64()),
            ];
            row.extend(batch_cells(r.batch.as_ref()));
            nonwin_table.row(row);
        }
    }
    println!("{}", nonwin_table.render());

    // ---- failover axis: crash timing × journal × shard count --------
    // One scripted crash of d0's shard mid-storm. The client rides it
    // out on bounded retries (nothing wedges); the shard serves again
    // after the scripted "down" window plus its priced recovery work,
    // the "recovery (ms)" column. No swept crash finds acked-but-
    // unapplied rows and these stacks cache nothing, so `replayed`,
    // `lag rows`, `fenced`, `errors`, `cut off` and `eio nodes` read 0
    // on every row: the journal rows measure retries and the stat tail
    // under batching, not replay cost (ROADMAP item 2 adds rows that
    // reach it). `scripts/bench_check.py` gates lost-acked at zero on
    // every row, nacks > 0 on every crash row, and the crashed makespan
    // against baseline + gap + recovery slack. The apply-lag/tail
    // columns make the post-crash durability window machine-checkable
    // alongside the write-behind axis above.
    let fstorm = FailoverStorm {
        nodes: cofs_bench::smoke_nodes(8),
        files_per_node: smoke_files(16),
        ..FailoverStorm::default()
    };
    println!(
        "== Scaling: failover storm vs crash timing, recovery cost, shard count \
         ({} nodes, {} dirs, {} files/node, {} stats/create, one crash of d0's shard, \
         metadata-service limit) ==\n",
        fstorm.nodes, fstorm.dirs, fstorm.files_per_node, fstorm.stats_per_create
    );
    let mut headers = vec![
        "shards",
        "journal",
        "crash at (ms)",
        "down (ms)",
        "create (ms)",
        "makespan (ms)",
    ];
    headers.extend(READ_LAT_COLUMNS);
    headers.extend(FAULT_COLUMNS);
    headers.extend(["apply lag (ms)", "apply tail (ms)"]);
    let mut failover_table = Table::new(headers);
    let crash_windows: Vec<Option<(SimTime, SimDuration)>> = smoke_or(
        vec![
            None,
            Some((SimTime::from_millis(2), SimDuration::from_millis(5))),
        ],
        vec![
            None,
            Some((SimTime::from_millis(2), SimDuration::from_millis(5))),
            Some((SimTime::from_millis(5), SimDuration::from_millis(5))),
            Some((SimTime::from_millis(5), SimDuration::from_millis(20))),
        ],
    );
    for shards in smoke_or(vec![2], vec![2, 4, 8]) {
        // Crash the shard serving the storm's first hot directory —
        // `ShardId(0)` can end up dirless under hash-by-parent at wider
        // shard counts, and an unobserved crash would make the row a
        // silent baseline.
        let victim = hashed(shards)
            .shard_policy
            .shard_of(&vfs::path::vpath("/failover/d0/f"));
        for journal in [false, true] {
            let cfg = if journal {
                batched(hashed(shards), Some(16)).with_write_behind()
            } else {
                hashed(shards)
            };
            for window in &crash_windows {
                let plan = match window {
                    None => FaultPlan::default(),
                    Some((at, down)) => FaultPlan::default().crash(victim, *at, *down),
                };
                let r = fstorm.run(&mut mds_limit(cfg.clone().with_fault_plan(plan)));
                let lag = r
                    .per_shard
                    .iter()
                    .map(|u| u.apply_lag)
                    .max()
                    .unwrap_or(SimDuration::ZERO);
                let mut row = vec![
                    shards.to_string(),
                    if journal { "on" } else { "off" }.to_string(),
                    window.map_or("-".into(), |(at, _)| ms(at.as_millis_f64())),
                    window.map_or("-".into(), |(_, down)| ms(down.as_millis_f64())),
                    ms(r.mean_create_ms),
                    ms(r.makespan.as_millis_f64()),
                ];
                row.extend(read_latency_cells(r.stat_p50_p99_ms));
                row.extend(fault_cells(r.fault.as_ref()));
                row.extend([ms(lag.as_millis_f64()), ms(r.apply_tail_ms)]);
                failover_table.row(row);
            }
        }
    }
    println!("{}", failover_table.render());

    // ---- cascade axis: correlated failures × standby × admission ----
    // Rack crashes and crash-loops against the survival knobs. Every
    // row keeps write-behind journaling on (standby promotion ships
    // journal appends, so it requires the journal); the knobs-off rows
    // are the scripted-restart path of the failover axis above, the
    // gate's comparison anchor. `scripts/bench_check.py` gates:
    // standby strictly shrinks the availability gap versus the
    // knobs-matched restart row and beats the `loops × down` scripted
    // floor; admission strictly shrinks the post-recovery makespan on
    // the convoy-visible (standby-off) rows; lost-acked stays zero on
    // every row.
    let cstorm = CascadeStorm {
        nodes: cofs_bench::smoke_nodes(8),
        files_per_node: smoke_files(16),
        ..CascadeStorm::default()
    };
    let down = SimDuration::from_millis(10);
    println!(
        "== Scaling: cascade storm vs correlated failures ({} nodes, {} dirs, \
         {} files/node, {} stats/create; crash-loop of d0's shard from 2 ms every \
         14 ms × loops, rack partner d1's shard at 2 ms, down {} ms each, \
         write-behind on) ==\n",
        cstorm.nodes,
        cstorm.dirs,
        cstorm.files_per_node,
        cstorm.stats_per_create,
        down.as_millis(),
    );
    let mut headers = vec![
        "shards",
        "loops",
        "standby",
        "admission",
        "down (ms)",
        "create (ms)",
        "makespan (ms)",
    ];
    headers.extend(FAULT_COLUMNS);
    let mut cascade_table = Table::new(headers);
    for shards in smoke_or(vec![2], vec![2, 4, 8]) {
        let cascade = batched(hashed(shards), Some(16)).with_write_behind();
        let v0 = cascade
            .shard_policy
            .shard_of(&vfs::path::vpath("/cascade/d0/f"));
        let v1 = cascade
            .shard_policy
            .shard_of(&vfs::path::vpath("/cascade/d1/f"));
        // The rack partner is d1's shard when it differs from d0's —
        // under hash-by-parent at narrow counts they can coincide,
        // leaving a pure crash-loop row.
        let partner = if v1 == v0 { vec![] } else { vec![v1] };
        // Fault-free baseline from the same config: the makespan
        // anchor the stretch gates divide by.
        let base = cstorm.run(&mut mds_limit(cascade.clone()));
        let mut row = vec![
            shards.to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            ms(base.mean_create_ms),
            ms(base.makespan.as_millis_f64()),
        ];
        row.extend(fault_cells(base.fault.as_ref()));
        cascade_table.row(row);
        for loops in smoke_or(vec![1u32], vec![1, 3]) {
            for standby in [false, true] {
                for admission in [false, true] {
                    let plan = FaultPlan::default()
                        .crash_loop(
                            v0,
                            SimTime::from_millis(2),
                            SimDuration::from_millis(14),
                            down,
                            loops,
                        )
                        .rack(&partner, SimTime::from_millis(2), down);
                    let mut cfg = cascade.clone().with_fault_plan(plan);
                    if standby {
                        cfg = cfg.with_standby();
                    }
                    if admission {
                        cfg = cfg.with_admission();
                    }
                    let r = cstorm.run(&mut mds_limit(cfg));
                    let mut row = vec![
                        shards.to_string(),
                        loops.to_string(),
                        if standby { "on" } else { "off" }.to_string(),
                        if admission { "on" } else { "off" }.to_string(),
                        ms(down.as_millis_f64()),
                        ms(r.mean_create_ms),
                        ms(r.makespan.as_millis_f64()),
                    ];
                    row.extend(fault_cells(r.fault.as_ref()));
                    cascade_table.row(row);
                }
            }
        }
    }
    println!("{}", cascade_table.render());

    match write_bench_json(
        "scaling",
        &[
            ("create & stat vs node count", &nodes_table),
            ("shared-directory storm vs shard count", &shards_table),
            ("per-shard load at largest shard count", &usage_table),
            ("skewed multi-tenant storm vs shard policy", &skew_table),
            ("hot-stat storm vs client cache", &cache_table),
            ("shared-directory storm vs batching", &batch_table),
            ("bursty storm vs read memoization", &memo_table),
            ("bursty storm vs write-behind journal", &wb_table),
            ("mixed stat+create storm vs read priority", &prio_table),
            ("batching non-wins", &nonwin_table),
            ("failover storm vs crash timing", &failover_table),
            ("cascade storm vs correlated failures", &cascade_table),
        ],
    ) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_scaling.json: {e}"),
    }
}
