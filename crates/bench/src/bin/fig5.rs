//! Regenerates **paper Fig 5**: "Stat time (pure GPFS vs. COFS over
//! GPFS)" — plus the utime and open/close series the paper reports in
//! text as "closely resembling the stat behavior".
//!
//! Expected shape (paper §IV-A): COFS reduces stat beyond 512 entries
//! per node from ≈5 ms (4 nodes) / ≈7 ms (8 nodes) down to ≈1 ms;
//! for very small per-node counts both systems are elevated, with
//! COFS comparable or slightly better.

use cofs_bench::{cofs_over_gpfs, files_per_node_sweep, gpfs, write_bench_json};
use workloads::metarates::{run_phase, MetaOp, MetaratesConfig};
use workloads::report::{ms, Table};

fn main() {
    println!("== Fig 5: stat/utime/open-close time, pure GPFS vs COFS over GPFS ==\n");
    let mut sections = Vec::new();
    for op in [MetaOp::Stat, MetaOp::Utime, MetaOp::OpenClose] {
        for nodes in [4usize, 8] {
            let mut table = Table::new(vec!["files/node", "gpfs (ms)", "cofs (ms)", "speedup"]);
            for &fpn in &files_per_node_sweep() {
                let cfg = MetaratesConfig::new(nodes, fpn);
                let mut g = gpfs(nodes);
                let rg = run_phase(&mut g, &cfg, op);
                let mut c = cofs_over_gpfs(nodes);
                let rc = run_phase(&mut c, &cfg, op);
                let speedup = if rc.mean_ms() > 0.0 {
                    rg.mean_ms() / rc.mean_ms()
                } else {
                    f64::INFINITY
                };
                table.row(vec![
                    fpn.to_string(),
                    ms(rg.mean_ms()),
                    ms(rc.mean_ms()),
                    format!("{speedup:.1}x"),
                ]);
            }
            let title = format!("avg. time per {} — {nodes} nodes", op.label());
            println!("{title}:\n{}", table.render());
            sections.push((title, table));
        }
    }
    match write_bench_json("fig5", &sections) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_fig5.json: {e}"),
    }
}
