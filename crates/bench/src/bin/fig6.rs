//! Regenerates **paper Fig 6**: "Operation times on 64 nodes" —
//! create/stat/utime/open on 64 nodes accessing 256 files per node in
//! a shared directory, over a *hierarchical* network (several blade
//! centers chained behind limited uplinks, paper §IV-A).
//!
//! Expected shape: "Pure GPFS shows considerably higher operation
//! times due to inter-node conflicts when accessing a shared
//! directory, while COFS seems to be able to avoid such conflicts" —
//! the virtualization benefit *increases* at larger scale.

use cofs_bench::{cofs_over_gpfs_on, gpfs_on, smoke_files, smoke_nodes, write_bench_json};
use netsim::topology::Topology;
use workloads::metarates::{run_phase, MetaOp, MetaratesConfig};
use workloads::report::{ms, Table};

fn main() {
    let nodes = smoke_nodes(64);
    let fpn = smoke_files(256);
    println!("== Fig 6: operation times on {nodes} nodes ({fpn} files/node, shared dir) ==\n");
    let cfg = MetaratesConfig::new(nodes, fpn);
    let mut table = Table::new(vec!["operation", "gpfs (ms)", "cofs (ms)", "speedup"]);
    for op in MetaOp::ALL {
        let mut g = gpfs_on(nodes, Topology::hierarchical(16));
        let rg = run_phase(&mut g, &cfg, op);
        let mut c = cofs_over_gpfs_on(nodes, Topology::hierarchical(16));
        let rc = run_phase(&mut c, &cfg, op);
        let speedup = if rc.mean_ms() > 0.0 {
            rg.mean_ms() / rc.mean_ms()
        } else {
            f64::INFINITY
        };
        table.row(vec![
            op.label().to_string(),
            ms(rg.mean_ms()),
            ms(rc.mean_ms()),
            format!("{speedup:.1}x"),
        ]);
    }
    println!("{}", table.render());
    let sections = [("operation times, shared dir, hierarchical network", table)];
    match write_bench_json("fig6", &sections) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_fig6.json: {e}"),
    }
}
