//! Ablation experiments for the design choices the README's "Paper
//! mapping" section and its extension axes describe:
//!
//! 1. *Placement policy*: the paper's hashed policy vs. passthrough
//!    (metadata service only, shared underlying directory) — isolates
//!    how much of the win is placement vs. the metadata service.
//! 2. *Underlying directory limit*: 128 / 512 (paper) / 2048.
//! 3. *Randomization spread*: 1 (off) vs. 8 (paper).
//! 4. *MDS sharding*: shard count × partitioning policy under the
//!    shared-directory storm (extension; the single-shard row is the
//!    paper's centralized service).
//! 5. *Client cache*: lease TTL under a read-only hot-stat storm vs.
//!    a write-sharing storm — near-total RTT elimination in the first,
//!    hit-rate collapse (and recall traffic) in the second.
//! 6. *RPC batching*: batch size × burstiness under the create storm —
//!    group commit and RTT amortization only pay when the workload
//!    offers same-shard runs to coalesce.
//! 7. *Read priority*: FIFO vs the priority lane on the mixed
//!    stat+create storm at 8-op batches.
//! 8. *Write-behind journal*: journal × batch size on the bursty
//!    storm, including the singleton-batch non-win.
//! 9. *Elastic adaptation*: a shifting hotspot under the elastic shard
//!    policy vs. its static starting point — splits while a directory
//!    is hot, lazy merges back to home affinity after the hotspot
//!    moves on.
//!
//! Alongside the text tables the binary writes `BENCH_ablation.json`
//! (see [`cofs_bench::write_bench_json`]) for machine consumption.

use cofs::config::{CofsConfig, MdsNetwork, ShardPolicyKind};
use cofs::fs::CofsFs;
use cofs::placement::{HashedPlacement, PassthroughPlacement, PlacementPolicy};
use netsim::cluster::ClusterBuilder;
use pfs::config::PfsConfig;
use pfs::fs::PfsFs;
use simcore::time::SimDuration;
use workloads::metarates::{run_phase, MetaOp, MetaratesConfig};
use workloads::report::{batch_cells, cache_cells, ms, Table, BATCH_COLUMNS, CACHE_COLUMNS};
use workloads::scenarios::{HotStatStorm, SharedDirStorm};

use cofs_bench::{
    mds_limit, smoke_files, smoke_mode, smoke_nodes, smoke_or, write_bench_json, SWEEP_BATCH_DELAY,
    SWEEP_PIPELINE_DEPTH,
};

fn stack(cfg: CofsConfig, placement: Box<dyn PlacementPolicy>) -> CofsFs<PfsFs> {
    let cluster = ClusterBuilder::new()
        .clients(smoke_nodes(8))
        .servers(2)
        .with_metadata_host()
        .build();
    let host = cluster.metadata_host().expect("metadata host requested");
    let net = MdsNetwork::from_cluster(&cluster, host);
    CofsFs::with_placement(
        PfsFs::new(cluster, PfsConfig::default()),
        cfg,
        net,
        placement,
    )
}

fn main() {
    let (nodes, fpn) = (smoke_nodes(8), smoke_files(1024));
    println!("== Ablations ({nodes} nodes, {fpn} files/node, create phase) ==\n");
    let bench = MetaratesConfig::new(nodes, fpn);
    let mut table = Table::new(vec!["variant", "create (ms)"]);

    let base = CofsConfig::default();
    let hashed = |cfg: &CofsConfig, spread: u32, limit: u32| -> Box<dyn PlacementPolicy> {
        Box::new(HashedPlacement::new(
            cfg.under_root.clone(),
            limit,
            spread,
            7,
        ))
    };

    let mut fs = stack(base.clone(), hashed(&base, 8, 512));
    let r = run_phase(&mut fs, &bench, MetaOp::Create);
    table.row(vec![
        "paper (hash, spread 8, limit 512)".into(),
        ms(r.mean_ms()),
    ]);

    let mut fs = stack(base.clone(), hashed(&base, 1, 512));
    let r = run_phase(&mut fs, &bench, MetaOp::Create);
    table.row(vec!["no randomization (spread 1)".into(), ms(r.mean_ms())]);

    for limit in [128u32, 2048] {
        let mut fs = stack(base.clone(), hashed(&base, 8, limit));
        let r = run_phase(&mut fs, &bench, MetaOp::Create);
        table.row(vec![format!("dir limit {limit}"), ms(r.mean_ms())]);
    }

    let mut fs = stack(
        base.clone(),
        Box::new(PassthroughPlacement::new(base.under_root.clone())),
    );
    let r = run_phase(&mut fs, &bench, MetaOp::Create);
    table.row(vec![
        "passthrough (no placement decoupling)".into(),
        ms(r.mean_ms()),
    ]);

    println!("{}", table.render());

    // ---- MDS sharding ablation (shared-directory storm, run in the
    // metadata-service limit so the MDS is the measured server) ----
    let storm = SharedDirStorm {
        files_per_node: smoke_files(16),
        ..SharedDirStorm::default()
    };
    println!(
        "\n== MDS sharding ablation (storm: {} nodes, {} dirs, {} files/node) ==\n",
        storm.nodes, storm.dirs, storm.files_per_node
    );
    let mut shard_table = Table::new(vec!["variant", "create (ms)", "makespan (ms)"]);
    for (shards, policy, label) in [
        (
            1,
            ShardPolicyKind::HashByParent,
            "1 shard (paper, centralized)",
        ),
        (2, ShardPolicyKind::HashByParent, "2 shards, hash-by-parent"),
        (4, ShardPolicyKind::HashByParent, "4 shards, hash-by-parent"),
        // All storm dirs share the top-level /storm subtree, so this
        // partitioning degenerates to one hot shard — the policy
        // choice, not the shard count, decides whether sharding helps.
        (4, ShardPolicyKind::Subtree, "4 shards, subtree (hotspot)"),
        // Elastic starts from hash-by-parent homes and splits whatever
        // the observed load says is hot — it must never lose to its
        // own static starting point.
        (4, ShardPolicyKind::Elastic, "4 shards, elastic"),
    ] {
        let r = storm.run(&mut mds_limit(
            CofsConfig::default().with_shards(shards, policy),
        ));
        shard_table.row(vec![
            label.into(),
            ms(r.mean_create_ms),
            ms(r.makespan.as_millis_f64()),
        ]);
    }
    println!("{}", shard_table.render());

    // ---- elastic adaptation ablation: a hotspot that moves ----
    // The shifting-hotspot storm hammers one directory per phase and
    // rotates; sparse lookback polling keeps the cooled directory
    // observed. The elastic rows must show both halves of the
    // adaptation loop: splits while a directory is hot, merges after
    // the hotspot moves on (lazy migration back to home affinity),
    // with every migration step costed on the shard CPUs.
    let shifting = workloads::scenarios::ShiftingHotspotStorm {
        nodes: smoke_nodes(8),
        phases: if smoke_mode() { 4 } else { 8 },
        files_per_phase: smoke_files(32),
        ..workloads::scenarios::ShiftingHotspotStorm::default()
    };
    println!(
        "\n== Elastic adaptation ablation (shifting hotspot: {} nodes, \
         {} dirs, {} phases x {} files/node, 4 shards) ==\n",
        shifting.nodes, shifting.dirs, shifting.phases, shifting.files_per_phase
    );
    let mut elastic_table = Table::new(vec![
        "policy",
        "create (ms)",
        "makespan (ms)",
        "skew",
        "splits",
        "merges",
        "migr",
    ]);
    for policy in [ShardPolicyKind::HashByParent, ShardPolicyKind::Elastic] {
        let mut fs = mds_limit(CofsConfig::default().with_shards(4, policy));
        let r = shifting.run(&mut fs);
        let splits: u64 = r.per_shard.iter().map(|u| u.splits).sum();
        let merges: u64 = r.per_shard.iter().map(|u| u.merges).sum();
        let migrations: u64 = r.per_shard.iter().map(|u| u.migrations).sum();
        elastic_table.row(vec![
            fs.mds_cluster().policy().label().into(),
            ms(r.mean_create_ms),
            ms(r.makespan.as_millis_f64()),
            format!("{:.2}", workloads::report::shard_skew(&r.per_shard)),
            splits.to_string(),
            merges.to_string(),
            migrations.to_string(),
        ]);
    }
    println!("{}", elastic_table.render());

    // ---- client-cache ablation: lease TTL, read-only vs write-shared --
    // The same cache, two workloads: the hot-stat storm never mutates
    // the polled tree (leases live out their TTL — hits dominate and
    // the per-op RTT disappears), while the shared-dir storm's creates
    // recall the listing leases its own readdir polling takes out (hit
    // rate collapses, recall columns light up).
    let hot = HotStatStorm {
        nodes: smoke_nodes(8),
        rounds: if smoke_mode() { 3 } else { 8 },
        ..HotStatStorm::default()
    };
    let shared = SharedDirStorm {
        nodes: smoke_nodes(8),
        dirs: 4,
        files_per_node: smoke_files(16),
        stats_per_create: 2,
        readdirs_per_create: 1,
        ..SharedDirStorm::default()
    };
    println!(
        "\n== Client-cache ablation (2 shards; hot-stat: {} nodes × {} rounds; \
         shared-dir: {} nodes, {} dirs, readdir polling) ==\n",
        hot.nodes, hot.rounds, shared.nodes, shared.dirs
    );
    let mut headers = vec!["workload", "cache ttl", "makespan (ms)"];
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
    let two_shards = || CofsConfig::default().with_shards(2, ShardPolicyKind::HashByParent);
    for ttl in &ttls {
        let build = || {
            mds_limit(match ttl {
                None => two_shards(),
                Some(ttl) => two_shards().with_client_cache(4096, *ttl),
            })
        };
        let ttl_label = ttl.map_or("off".to_string(), |t| format!("{:.0}ms", t.as_millis_f64()));
        let r = hot.run(&mut build());
        let mut row = vec![
            "hot-stat (read-only)".to_string(),
            ttl_label.clone(),
            ms(r.makespan.as_millis_f64()),
        ];
        row.extend(cache_cells(r.cache.as_ref()));
        cache_table.row(row);
        let r = shared.run(&mut build());
        let mut row = vec![
            "shared-dir (write sharing)".to_string(),
            ttl_label,
            ms(r.makespan.as_millis_f64()),
        ];
        row.extend(cache_cells(r.cache.as_ref()));
        cache_table.row(row);
    }
    println!("{}", cache_table.render());

    // ---- RPC batching ablation: batch size × workload burstiness ----
    // The batch layer's two amortizations (round trips, commits) need
    // same-shard create runs to bite: the bursty storm hands it trains
    // of 8, the round-robin storm (burst 1) only what the delay window
    // happens to catch.
    let bursty = SharedDirStorm {
        nodes: smoke_nodes(8),
        dirs: 4,
        files_per_node: smoke_files(16),
        stats_per_create: 2,
        burst: 8,
        ..SharedDirStorm::default()
    };
    let round_robin = SharedDirStorm {
        burst: 1,
        ..bursty.clone()
    };
    println!(
        "\n== RPC batching ablation (2 shards; {} nodes, {} dirs, {} files/node) ==\n",
        bursty.nodes, bursty.dirs, bursty.files_per_node
    );
    let mut headers = vec!["workload", "batching", "makespan (ms)"];
    headers.extend(BATCH_COLUMNS);
    let mut batch_table = Table::new(headers);
    for (storm, wl) in [
        (&bursty, "bursty creates (8)"),
        (&round_robin, "round-robin"),
    ] {
        for max_ops in [None, Some(8)] {
            let cfg = match max_ops {
                None => two_shards(),
                Some(k) => two_shards().with_batching(k, SWEEP_BATCH_DELAY, SWEEP_PIPELINE_DEPTH),
            };
            let r = storm.run(&mut mds_limit(cfg));
            let mut row = vec![
                wl.to_string(),
                max_ops.map_or("off".into(), |k| k.to_string()),
                ms(r.makespan.as_millis_f64()),
            ];
            row.extend(batch_cells(r.batch.as_ref()));
            batch_table.row(row);
        }
    }
    println!("{}", batch_table.render());

    // ---- read-priority ablation: FIFO vs the priority lane on the
    // mixed stat+create storm ----
    // Batching shrinks the per-op row work (each batch resolves a
    // shared parent chain once); priority attacks head-of-line blocking
    // (stat tail latency) by routing reads around the lumps that remain.
    let mixed = workloads::scenarios::SharedDirStorm::mixed(smoke_nodes(8), smoke_files(32));
    println!(
        "\n== Read priority ablation (2 shards, 8-op batches; \
         mixed storm: {} nodes, {} files/node in bursts of {}, {} stats/create) ==\n",
        mixed.nodes, mixed.files_per_node, mixed.burst, mixed.stats_per_create
    );
    let mut prio_table = Table::new(vec![
        "lane",
        "stat p99 (ms)",
        "makespan (ms)",
        "reads memoized",
        "bypasses",
    ]);
    for priority in [false, true] {
        let mut cfg = two_shards().with_batching(8, SWEEP_BATCH_DELAY, SWEEP_PIPELINE_DEPTH);
        if priority {
            cfg = cfg.with_read_priority();
        }
        let r = mixed.run(&mut mds_limit(cfg));
        let memoized: u64 = r.per_shard.iter().map(|u| u.reads_memoized).sum();
        let bypasses: u64 = r.per_shard.iter().map(|u| u.read_bypasses).sum();
        prio_table.row(vec![
            if priority { "priority" } else { "fifo" }.to_string(),
            ms(r.stat_p50_p99_ms.map_or(0.0, |(_, p99)| p99)),
            ms(r.makespan.as_millis_f64()),
            memoized.to_string(),
            bypasses.to_string(),
        ]);
    }
    println!("{}", prio_table.render());

    // ---- write-behind ablation: journal × batch size on the bursty
    // create storm ----
    // Write-behind attacks the ack-critical group commit (writes priced
    // row by row before the client hears back). It needs multi-op
    // batches: the 1-op rows show the journal's honest non-win
    // — a singleton batch has no siblings to coalesce, so under CPU
    // saturation the append is pure tax and makespan *grows*.
    let wstorm = SharedDirStorm {
        nodes: smoke_nodes(8),
        dirs: 8,
        files_per_node: smoke_files(64),
        stats_per_create: 0,
        burst: 16,
        ..SharedDirStorm::default()
    };
    println!(
        "\n== Write-behind ablation (2 shards; bursty storm: {} nodes, {} dirs, \
         {} files/node in bursts of {}) ==\n",
        wstorm.nodes, wstorm.dirs, wstorm.files_per_node, wstorm.burst
    );
    let mut wb_table = Table::new(vec![
        "batching",
        "write-behind",
        "makespan (ms)",
        "appends",
        "coalesced",
        "apply lag (ms)",
        "apply tail (ms)",
    ]);
    for (k, behind) in [(16, false), (16, true), (1, false), (1, true)] {
        let mut cfg = two_shards().with_batching(k, SWEEP_BATCH_DELAY, SWEEP_PIPELINE_DEPTH);
        if behind {
            cfg = cfg.with_write_behind();
        }
        let r = wstorm.run(&mut mds_limit(cfg));
        let appends: u64 = r.per_shard.iter().map(|u| u.journal_appends).sum();
        let coalesced: u64 = r.per_shard.iter().map(|u| u.rows_coalesced).sum();
        let lag = r
            .per_shard
            .iter()
            .map(|u| u.apply_lag)
            .max()
            .unwrap_or(SimDuration::ZERO);
        wb_table.row(vec![
            k.to_string(),
            if behind { "on" } else { "off" }.to_string(),
            ms(r.makespan.as_millis_f64()),
            appends.to_string(),
            coalesced.to_string(),
            ms(lag.as_millis_f64()),
            ms(r.apply_tail_ms),
        ]);
    }
    println!("{}", wb_table.render());

    match write_bench_json(
        "ablation",
        &[
            ("placement ablations", &table),
            ("mds sharding ablation", &shard_table),
            ("elastic adaptation ablation", &elastic_table),
            ("client-cache ablation", &cache_table),
            ("rpc batching ablation", &batch_table),
            ("read priority ablation", &prio_table),
            ("write-behind ablation", &wb_table),
        ],
    ) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_ablation.json: {e}"),
    }
}
