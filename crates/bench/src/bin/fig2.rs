//! Regenerates **paper Fig 2**: "Parallel metadata behavior of GPFS" —
//! average time per operation on 4 and 8 nodes for directories of
//! 1024, 4096 and 16384 total files (single shared directory).
//!
//! Expected shape (paper §II-B): parallel create cost is dominated by
//! node count (≈20 ms @ 4 nodes, ≈30 ms @ 8 nodes) and barely depends
//! on the file count; stat/utime/open-close are elevated versus the
//! single-node case, most strongly for the smaller directories.

use cofs_bench::{gpfs, smoke_or, write_bench_json};
use workloads::metarates::{run_phase, MetaOp, MetaratesConfig};
use workloads::report::{ms, Table};

fn main() {
    println!("== Fig 2: parallel metadata behavior of GPFS ==\n");
    let totals = smoke_or(vec![256], vec![1024, 4096, 16384]);
    let mut header = vec!["operation".to_string(), "nodes".to_string()];
    header.extend(totals.iter().map(|t| format!("{t} files (ms)")));
    let mut table = Table::new(header);
    for op in MetaOp::ALL {
        for nodes in [4usize, 8] {
            let mut row = vec![op.label().to_string(), format!("{nodes} n.")];
            for &total in &totals {
                let cfg = MetaratesConfig::new(nodes, total / nodes);
                let mut fs = gpfs(nodes);
                let result = run_phase(&mut fs, &cfg, op);
                row.push(ms(result.mean_ms()));
            }
            table.row(row);
        }
    }
    println!("{}", table.render());
    let sections = [("parallel GPFS op times", table)];
    match write_bench_json("fig2", &sections) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_fig2.json: {e}"),
    }
}
