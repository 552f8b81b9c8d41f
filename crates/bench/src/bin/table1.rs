//! Regenerates **paper Table I**: "Impact of COFS on data transfers,
//! depending on use pattern" — IOR aggregate data rates for
//! {sequential, random} × {read, write} × {separate files, single
//! shared file}, GPFS vs. COFS over GPFS, across aggregate sizes and
//! node counts.
//!
//! Expected shape (paper §IV-B): COFS ≈ GPFS everywhere except
//! (a) small separate-file reads (< 32 MB per node, which fit the GPFS
//! page pool) where COFS suffers an important slowdown; (b) separate-
//! file sequential writes, where GPFS degrades with node count (open
//! serialization) and COFS does not; (c) single-node writes, where
//! COFS pays the FUSE copy.

use cofs_bench::{cofs_over_gpfs, gpfs, smoke_or, write_bench_json};
use workloads::ior::{run_ior_op, Access, FileMode, IoOp, IorConfig};
use workloads::report::{mibs, Table};

const MB: u64 = 1024 * 1024;

fn main() {
    println!("== Table I: IOR aggregate data rates (MiB/s), GPFS vs COFS over GPFS ==\n");
    let sizes = smoke_or(
        vec![(256 * MB, "256MB")],
        vec![(256 * MB, "256MB"), (1024 * MB, "1GB"), (4096 * MB, "4GB")],
    );
    let node_counts = smoke_or(vec![1, 4], vec![1, 4, 8]);
    let mut sections = Vec::new();
    for (access, op) in [
        (Access::Sequential, IoOp::Read),
        (Access::Random, IoOp::Read),
        (Access::Sequential, IoOp::Write),
        (Access::Random, IoOp::Write),
    ] {
        for file_mode in [FileMode::FilePerProcess, FileMode::Shared] {
            let mut table = Table::new(vec![
                "aggregate",
                "nodes",
                "per-node",
                "gpfs (MiB/s)",
                "cofs (MiB/s)",
                "cofs/gpfs",
            ]);
            for &(bytes, label) in &sizes {
                for &nodes in &node_counts {
                    let cfg = IorConfig::new(nodes, bytes, file_mode, access);
                    let mut g = gpfs(nodes);
                    let rg = run_ior_op(&mut g, &cfg, op);
                    let mut c = cofs_over_gpfs(nodes);
                    let rc = run_ior_op(&mut c, &cfg, op);
                    let ratio = rc.aggregate_mib_s / rg.aggregate_mib_s.max(1e-9);
                    table.row(vec![
                        label.to_string(),
                        nodes.to_string(),
                        format!("{}MB", bytes / MB / nodes as u64),
                        mibs(rg.aggregate_mib_s),
                        mibs(rc.aggregate_mib_s),
                        format!("{ratio:.2}"),
                    ]);
                }
            }
            let title = format!(
                "{} {} / {} files",
                access.label(),
                op.label(),
                file_mode.label()
            );
            println!("{title}:\n{}", table.render());
            sections.push((title, table));
        }
    }
    match write_bench_json("table1", &sections) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_table1.json: {e}"),
    }
}
