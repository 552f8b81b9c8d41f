//! Golden pin of the layer counters `cofs-perf` reports on the
//! paper's shared-directory workload.
//!
//! Runs metarates phases, each on a fresh stack, on bare GPFS and on
//! COFS over GPFS: create and stat at `MetaratesConfig::new(4, 64)`,
//! then create, stat and utime at `MetaratesConfig::new(2, 1280)`. The
//! second case passes GPFS's 128-block dirty limit and 1,024-entry
//! attribute cache, so the write-behind throttle, attribute eviction
//! and inode-block revocation paths run. After each phase it records
//! the phase's exact mean latency and makespan, every GPFS protocol
//! counter, the token manager's counts and, on COFS, the COFS layer
//! counters and the per-shard usage. The text must match
//! `golden/counters.txt`.
//!
//! After an intended change to a count, regenerate the file with
//! `COFS_BLESS=1 cargo test -p cofs-tests --test counters`.

use cofs_tests::{cofs_over_gpfs, gpfs};
use pfs::fs::PfsFs;
use simcore::stats::Counters;
use std::fmt::Write as _;
use workloads::metarates::{run_phase, MetaOp, MetaratesConfig, PhaseResult};

/// The GPFS protocol counters.
const PFS_KEYS: [&str; 11] = [
    "attr_hits",
    "attr_misses",
    "dir_hits",
    "dir_misses",
    "block_fetches",
    "block_writebacks",
    "revoke_flushes",
    "dirty_throttle_flushes",
    "dir_attaches",
    "data_cache_hits",
    "data_cache_misses",
];

/// The token manager's counters.
const DLM_KEYS: [&str; 4] = [
    "acquires",
    "local_hits",
    "revocations",
    "exclusive_revocations",
];

/// The COFS layer counters.
const COFS_KEYS: [&str; 7] = [
    "mds_rpcs",
    "mds_batches",
    "mds_two_phase",
    "under_creates",
    "under_dirs_made",
    "under_opens",
    "under_unlinks",
];

/// One line naming each of `keys` with its count in `c`.
fn line(out: &mut String, label: &str, c: &Counters, keys: &[&str]) {
    write!(out, "{label}:").unwrap();
    for k in keys {
        write!(out, " {k}={}", c.get(k)).unwrap();
    }
    out.push('\n');
}

fn gpfs_lines(out: &mut String, label: &str, fs: &PfsFs) {
    line(out, &format!("{label} pfs"), fs.counters(), &PFS_KEYS);
    line(out, &format!("{label} dlm"), fs.token_stats(), &DLM_KEYS);
}

/// The phase's op count, exact mean latency and makespan.
fn latency_line(out: &mut String, label: &str, r: &PhaseResult) {
    writeln!(
        out,
        "{label} latency: ops={} mean={:?} makespan={:?}",
        r.summary.count(),
        r.summary.mean(),
        r.makespan
    )
    .unwrap();
}

/// The lines of each phase of `ops` at `nodes` × `files` (each label
/// starts with `prefix`).
fn render_case(out: &mut String, prefix: &str, nodes: usize, files: usize, ops: &[MetaOp]) {
    let cfg = MetaratesConfig::new(nodes, files);
    for &op in ops {
        let mut fs = gpfs(nodes);
        let r = run_phase(&mut fs, &cfg, op);
        let label = format!("{prefix}gpfs {}", op.label());
        gpfs_lines(out, &label, &fs);
        latency_line(out, &label, &r);

        let mut fs = cofs_over_gpfs(nodes);
        let r = run_phase(&mut fs, &cfg, op);
        let label = format!("{prefix}cofs {}", op.label());
        gpfs_lines(out, &label, fs.under());
        line(out, &format!("{label} cofs"), fs.counters(), &COFS_KEYS);
        for u in fs.shard_usage() {
            writeln!(out, "{label} {u:?}").unwrap();
        }
        latency_line(out, &label, &r);
    }
}

fn render() -> String {
    let mut out = String::new();
    render_case(&mut out, "", 4, 64, &[MetaOp::Create, MetaOp::Stat]);
    let ops = [MetaOp::Create, MetaOp::Stat, MetaOp::Utime];
    render_case(&mut out, "2x1280 ", 2, 1280, &ops);
    out
}

#[test]
fn counters_match_golden() {
    let out = render();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/counters.txt");
    if std::env::var_os("COFS_BLESS").is_some() {
        std::fs::write(path, &out).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file exists");
    for (i, (got, want)) in out.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "first difference at line {}", i + 1);
    }
    assert_eq!(out.lines().count(), golden.lines().count(), "line count");
}
