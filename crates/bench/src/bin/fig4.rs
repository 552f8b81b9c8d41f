//! Regenerates **paper Fig 4**: "Create time (pure GPFS vs. COFS over
//! GPFS)" — average create time on 4 and 8 nodes, 32–8192 files per
//! node, all in one shared (virtual) directory.
//!
//! Expected shape (paper §IV-A): GPFS ≈ 20 ms (4 nodes) rising to
//! ≈ 30 ms (8 nodes); COFS cuts this to 2–5 ms and eliminates the
//! 4→8-node degradation — speed-up factors of 5–10.

use cofs_bench::{cofs_over_gpfs, files_per_node_sweep, gpfs, write_bench_json};
use workloads::metarates::{run_phase, MetaOp, MetaratesConfig};
use workloads::report::{ms, Table};

fn main() {
    println!("== Fig 4: create time, pure GPFS vs COFS over GPFS ==\n");
    let mut sections = Vec::new();
    for nodes in [4usize, 8] {
        let mut table = Table::new(vec![
            "files/node",
            "gpfs create (ms)",
            "cofs create (ms)",
            "speedup",
        ]);
        for &fpn in &files_per_node_sweep() {
            let cfg = MetaratesConfig::new(nodes, fpn);
            let mut g = gpfs(nodes);
            let rg = run_phase(&mut g, &cfg, MetaOp::Create);
            let mut c = cofs_over_gpfs(nodes);
            let rc = run_phase(&mut c, &cfg, MetaOp::Create);
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
        let title = format!("{nodes} nodes");
        println!("{title}:\n{}", table.render());
        sections.push((title, table));
    }
    match write_bench_json("fig4", &sections) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_fig4.json: {e}"),
    }
}
