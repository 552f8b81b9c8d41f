//! Regenerates **paper Fig 1**: "Effect of the number of entries in a
//! directory in GPFS" — average time per create/stat/utime/open-close
//! on a *single node*, with 1 and 2 processes, as the directory grows.
//!
//! Expected shape (paper §II-B): stat/utime/open-close are extremely
//! fast below ~1024 entries (client-cache delegation) and drop to
//! network rates beyond; create shows a steady increase above ~512
//! entries.

use cofs_bench::{fig1_dir_sizes, gpfs, write_bench_json};
use workloads::metarates::{run_phase, MetaOp, MetaratesConfig};
use workloads::report::{ms, Table};

fn main() {
    println!("== Fig 1: single-node GPFS op times vs files per directory ==\n");
    let mut sections = Vec::new();
    for op in MetaOp::ALL {
        let mut table = Table::new(vec!["files/dir", "1 process (ms)", "2 processes (ms)"]);
        for &size in &fig1_dir_sizes() {
            let mut row = vec![size.to_string()];
            for procs in [1usize, 2] {
                let cfg = MetaratesConfig {
                    nodes: 1,
                    procs_per_node: procs,
                    files_per_proc: size / procs,
                    shared_dir: vfs::path::vpath("/shared"),
                };
                let mut fs = gpfs(1);
                let result = run_phase(&mut fs, &cfg, op);
                row.push(ms(result.mean_ms()));
            }
            table.row(row);
        }
        let title = format!("avg. time per {}", op.label());
        println!("{title}:\n{}", table.render());
        sections.push((title, table));
    }
    match write_bench_json("fig1", &sections) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_fig1.json: {e}"),
    }
}
