//! # cofs-bench — harness regenerating every table and figure
//!
//! One binary per paper artifact:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig1` | Fig 1 — single-node GPFS op times vs. directory size |
//! | `fig2` | Fig 2 — parallel GPFS metadata behaviour (4/8 nodes) |
//! | `fig4` | Fig 4 — create time, GPFS vs. COFS sweep |
//! | `fig5` | Fig 5 — stat time (plus utime/open-close series) |
//! | `fig6` | Fig 6 — 64 nodes, hierarchical network |
//! | `table1` | Table I — IOR data-transfer impact matrix |
//! | `scaling` | extension — node-count sweep 4→64 |
//! | `ablation` | extension — placement/limit ablations |
//!
//! This library holds the factories shared by the binaries and the
//! Criterion micro-benches: standard ways to build the bare-GPFS stack
//! and the COFS-over-GPFS stack on a given cluster size, and
//! [`mds_limit`], the one COFS-over-MemFs stack every sweep configures
//! through a [`CofsConfig`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cofs::config::{CofsConfig, MdsNetwork};
use cofs::fs::CofsFs;
use netsim::cluster::ClusterBuilder;
use netsim::topology::Topology;
use pfs::config::PfsConfig;
use pfs::fs::PfsFs;
use simcore::time::SimDuration;

/// Builds the paper's primary testbed: `nodes` blades, two file
/// servers, one blade-center switch, bare GPFS.
pub fn gpfs(nodes: usize) -> PfsFs {
    gpfs_on(nodes, Topology::flat())
}

/// Builds bare GPFS on an arbitrary topology.
pub fn gpfs_on(nodes: usize, topology: Topology) -> PfsFs {
    let cluster = ClusterBuilder::new()
        .clients(nodes)
        .servers(2)
        .topology(topology)
        .build();
    PfsFs::new(cluster, PfsConfig::default())
}

/// Builds COFS over GPFS: same testbed plus one extra blade hosting
/// the metadata service (paper §IV: "one of the blades … was used to
/// host the COFS metadata service").
pub fn cofs_over_gpfs(nodes: usize) -> CofsFs<PfsFs> {
    cofs_over_gpfs_on(nodes, Topology::flat())
}

/// Builds COFS over GPFS on an arbitrary topology.
pub fn cofs_over_gpfs_on(nodes: usize, topology: Topology) -> CofsFs<PfsFs> {
    let cluster = ClusterBuilder::new()
        .clients(nodes)
        .servers(2)
        .with_metadata_host()
        .topology(topology)
        .build();
    let mds_host = cluster.metadata_host().expect("requested a metadata host");
    let net = MdsNetwork::from_cluster(&cluster, mds_host);
    let under = PfsFs::new(cluster, PfsConfig::default());
    CofsFs::new(under, CofsConfig::default(), net, 0xC0F5)
}

/// Builds COFS in the *metadata-service limit*: the underlying
/// filesystem is `MemFs` (local-memory cost) behind a uniform 250 µs
/// round trip, so the MDS is the only queueing server and a sweep over
/// `cfg` measures the metadata service itself. Over real GPFS the
/// native filesystem's ~ms-scale creates bound throughput long before
/// the MDS does — the very bottleneck shift the paper predicts — so
/// that stack cannot resolve MDS scaling. Every `scaling`/`ablation`
/// stack over MemFs is one `cfg` passed here.
pub fn mds_limit(cfg: CofsConfig) -> CofsFs<vfs::memfs::MemFs> {
    CofsFs::new(
        vfs::memfs::MemFs::new(),
        cfg,
        MdsNetwork::uniform(SimDuration::from_micros(250)),
        0xC0F5,
    )
}

/// The delay window of every batched sweep stack: a batch closes at
/// `max_batch_ops` operations or this much virtual time after it
/// opened.
pub const SWEEP_BATCH_DELAY: SimDuration = SimDuration::from_millis(5);

/// Batches each node keeps outstanding on every batched sweep stack.
pub const SWEEP_PIPELINE_DEPTH: usize = 4;

/// The files-per-node sweep of Figs 4 and 5.
pub const FILES_PER_NODE_SWEEP: [usize; 9] = [32, 64, 128, 256, 512, 1024, 2048, 4096, 8192];

/// The directory-size sweep of Fig 1.
pub const FIG1_DIR_SIZES: [usize; 9] = [128, 256, 512, 768, 1024, 1280, 1536, 2048, 2560];

/// True when `COFS_SMOKE` is set in the environment: the figure
/// binaries then run drastically reduced sweeps so the smoke tests can
/// execute every entrypoint in seconds instead of minutes. Paper-scale
/// output is the default.
pub fn smoke_mode() -> bool {
    std::env::var_os("COFS_SMOKE").is_some_and(|v| !v.is_empty() && v != "0")
}

/// The Fig 4/5 files-per-node sweep, truncated in smoke mode.
pub fn files_per_node_sweep() -> Vec<usize> {
    if smoke_mode() {
        vec![32, 64]
    } else {
        FILES_PER_NODE_SWEEP.to_vec()
    }
}

/// The Fig 1 directory-size sweep, truncated in smoke mode.
pub fn fig1_dir_sizes() -> Vec<usize> {
    if smoke_mode() {
        vec![128, 256]
    } else {
        FIG1_DIR_SIZES.to_vec()
    }
}

/// Caps a node count in smoke mode (e.g. Fig 6's 64 nodes → 8).
pub fn smoke_nodes(full: usize) -> usize {
    if smoke_mode() {
        full.min(8)
    } else {
        full
    }
}

/// Caps a per-node file count in smoke mode.
pub fn smoke_files(full: usize) -> usize {
    if smoke_mode() {
        full.min(64)
    } else {
        full
    }
}

/// Picks the reduced sweep in smoke mode, the full sweep otherwise.
pub fn smoke_or<T>(smoke: Vec<T>, full: Vec<T>) -> Vec<T> {
    if smoke_mode() {
        smoke
    } else {
        full
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Emits a table cell as JSON: bare number when the whole cell parses
/// as a finite float (so downstream tooling gets numbers, not digit
/// strings), quoted string otherwise ("hash-parent", "25.6%", "-").
fn json_cell(cell: &str) -> String {
    match cell.parse::<f64>() {
        Ok(v) if v.is_finite() => cell.to_string(),
        _ => format!("\"{}\"", json_escape(cell)),
    }
}

/// Writes the machine-readable companion of a benchmark binary's text
/// report: `BENCH_<name>.json` containing every table (headers + rows,
/// numeric cells as JSON numbers), in the directory named by
/// `COFS_BENCH_OUT` (default: the current directory). The perf
/// trajectory reads these files; the text tables stay for humans.
///
/// # Errors
///
/// Propagates the underlying filesystem write error.
pub fn write_bench_json(
    name: &str,
    sections: &[(&str, &workloads::report::Table)],
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::env::var_os("COFS_BENCH_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"bench\": \"{}\",\n", json_escape(name)));
    out.push_str(&format!("  \"smoke\": {},\n", smoke_mode()));
    out.push_str("  \"sections\": [\n");
    for (i, (title, table)) in sections.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"title\": \"{}\",\n", json_escape(title)));
        let headers: Vec<String> = table
            .headers()
            .iter()
            .map(|h| format!("\"{}\"", json_escape(h)))
            .collect();
        out.push_str(&format!("      \"headers\": [{}],\n", headers.join(", ")));
        out.push_str("      \"rows\": [\n");
        for (j, row) in table.rows().iter().enumerate() {
            let cells: Vec<String> = row.iter().map(|c| json_cell(c)).collect();
            out.push_str(&format!("        [{}]", cells.join(", ")));
            out.push_str(if j + 1 < table.rows().len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("      ]\n");
        out.push_str(if i + 1 < sections.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&path, out)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cofs::config::ShardPolicyKind;
    use vfs::fs::FileSystem;
    use vfs::fs::OpCtx;
    use vfs::path::vpath;
    use vfs::types::Mode;

    #[test]
    fn bench_json_round_trips_tables() {
        use workloads::report::Table;

        let dir = std::env::temp_dir().join(format!("cofs-bench-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("COFS_BENCH_OUT", &dir);
        let mut t = Table::new(vec!["shards", "policy", "create (ms)"]);
        t.row(vec!["4".into(), "hash-parent".into(), "1.25".into()]);
        let path = write_bench_json("unit_test", &[("storm", &t)]).unwrap();
        std::env::remove_var("COFS_BENCH_OUT");
        assert_eq!(path.file_name().unwrap(), "BENCH_unit_test.json");
        let text = std::fs::read_to_string(&path).unwrap();
        // Numeric cells are numbers, labels are strings, structure is
        // a sections array.
        assert!(text.contains("\"sections\""), "{text}");
        assert!(text.contains("[4, \"hash-parent\", 1.25]"), "{text}");
        assert!(text.contains("\"headers\": [\"shards\", \"policy\", \"create (ms)\"]"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two hash-by-parent shards, the shape most sweep stacks start from.
    fn two_shards() -> CofsConfig {
        CofsConfig::default().with_shards(2, ShardPolicyKind::HashByParent)
    }

    /// [`two_shards`] batching at `k` ops in the sweeps' shape.
    fn two_shards_batched(k: usize) -> CofsConfig {
        two_shards().with_batching(k, SWEEP_BATCH_DELAY, SWEEP_PIPELINE_DEPTH)
    }

    #[test]
    fn cached_factory_enables_the_cache() {
        let fs = mds_limit(two_shards().with_client_cache(4096, SimDuration::from_secs(1)));
        assert!(fs.client_cache().enabled());
        assert_eq!(fs.mds_cluster().shard_count(), 2);
    }

    #[test]
    fn batched_factory_enables_batching() {
        let fs = mds_limit(two_shards_batched(16));
        assert!(fs.batch_pipeline().enabled());
        let batch = fs.batch_pipeline().config();
        assert_eq!(batch.max_batch_ops, 16);
        assert_eq!(batch.max_batch_delay, SWEEP_BATCH_DELAY);
        assert_eq!(batch.pipeline_depth, SWEEP_PIPELINE_DEPTH);
        assert_eq!(fs.mds_cluster().shard_count(), 2);
    }

    #[test]
    fn tuned_factory_sets_every_discipline_knob() {
        let all = mds_limit(
            two_shards_batched(8)
                .with_read_memoization()
                .with_read_priority(),
        );
        assert!(all.batch_pipeline().enabled());
        assert!(all.batch_pipeline().config().memoize_reads);
        assert!(all.config().read_priority);
        let none = mds_limit(two_shards());
        assert!(!none.batch_pipeline().enabled());
        assert!(!none.config().read_priority);
    }

    #[test]
    fn write_behind_factory_enables_journal_and_batching() {
        let fs = mds_limit(
            two_shards_batched(16)
                .with_read_memoization()
                .with_write_behind(),
        );
        assert!(fs.batch_pipeline().enabled());
        assert!(fs.batch_pipeline().config().memoize_reads);
        assert!(fs.config().write_behind.enabled);
        let plain = mds_limit(two_shards_batched(16).with_read_memoization());
        assert!(!plain.config().write_behind.enabled);
    }

    #[test]
    fn elastic_factory_routes_and_reports_elastic() {
        let mut fs = mds_limit(CofsConfig::default().with_elastic(4));
        assert_eq!(fs.mds_cluster().shard_count(), 4);
        assert_eq!(fs.mds_cluster().policy().label(), "elastic");
        let ctx = OpCtx::test(netsim::ids::NodeId(0));
        fs.mkdir(&ctx, &vpath("/d"), Mode::dir_default()).unwrap();
        let fh = fs
            .create(&ctx, &vpath("/d/f"), Mode::file_default())
            .unwrap()
            .value;
        fs.close(&ctx, fh).unwrap();
        assert_eq!(fs.readdir(&ctx, &vpath("/d")).unwrap().value.len(), 1);
    }

    #[test]
    fn failover_factory_arms_only_nonempty_plans() {
        use cofs::fault::FaultPlan;
        use cofs::mds_cluster::ShardId;
        use simcore::time::SimTime;

        let off = mds_limit(two_shards().with_fault_plan(FaultPlan::default()));
        assert!(
            off.fault_summary().is_none(),
            "empty plan must stay disarmed"
        );
        assert!(!off.batch_pipeline().enabled());
        let plan = FaultPlan::default().crash(
            ShardId(0),
            SimTime::from_millis(1),
            SimDuration::from_millis(2),
        );
        let on = mds_limit(
            two_shards_batched(16)
                .with_write_behind()
                .with_fault_plan(plan),
        );
        assert!(on.fault_summary().is_some());
        assert!(on.batch_pipeline().enabled());
        assert!(on.config().write_behind.enabled);
    }

    #[test]
    fn factories_build_working_stacks() {
        let mut g = gpfs(4);
        let ctx = OpCtx::test(netsim::ids::NodeId(0));
        g.mkdir(&ctx, &vpath("/d"), Mode::dir_default()).unwrap();
        let mut c = cofs_over_gpfs(4);
        c.mkdir(&ctx, &vpath("/d"), Mode::dir_default()).unwrap();
        let fh = c
            .create(&ctx, &vpath("/d/f"), Mode::file_default())
            .unwrap()
            .value;
        c.close(&ctx, fh).unwrap();
        assert_eq!(c.readdir(&ctx, &vpath("/d")).unwrap().value.len(), 1);
    }
}
