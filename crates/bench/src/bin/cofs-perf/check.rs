//! Correctness checks and non-vacuity gates. A run that fails any of
//! them reports `"correct": false` and exits non-zero.

use crate::measure::{self, Outcome};
use crate::workload::{Case, Workload};
use netsim::ids::NodeId;
use simcore::time::SimTime;
use std::collections::BTreeSet;
use vfs::driver::Action;
use vfs::error::Errno;
use vfs::fs::{FileSystem, OpCtx};
use vfs::memfs::MemFs;
use vfs::path::VPath;
use vfs::types::FileType;

/// One directory's entries, sorted by name.
pub type Listing = Vec<(String, FileType)>;

/// Lists each of `dirs` on `fs` at virtual time `at`.
pub fn listings<F: FileSystem>(
    fs: &mut F,
    dirs: &[VPath],
    at: SimTime,
) -> Result<Vec<Listing>, String> {
    let ctx = OpCtx::test(NodeId(0)).at(at);
    dirs.iter()
        .map(|dir| {
            let mut names: Listing = fs
                .readdir(&ctx, dir)
                .map_err(|e| format!("readdir {dir}: {e}"))?
                .value
                .into_iter()
                .map(|e| (e.name, e.ftype))
                .collect();
            names.sort_by(|a, b| a.0.cmp(&b.0));
            Ok(names)
        })
        .collect()
}

/// Replays the inputs of `case` against the reference `MemFs` and
/// requires `got`, the listings of every directory the workload touches
/// (`Inputs::dirs`, in order) on the filesystem under test, to match
/// the reference's — less the creates that failed with `EIO` there
/// (`errors` as in [`Outcome::errors`]), which must leave no trace.
pub fn differential(
    case: Case,
    got: &[Listing],
    errors: &[(usize, usize, Errno)],
) -> Result<(), String> {
    let inputs = case.inputs();
    let failed: BTreeSet<VPath> = errors
        .iter()
        .filter(|&&(_, _, errno)| errno == Errno::EIO)
        .filter_map(
            |&(client, step, _)| match &inputs.scripts[client].steps[step].action {
                Action::Create { path, .. } => Some(path.clone()),
                _ => None,
            },
        )
        .collect();
    let mut reference = MemFs::new();
    measure::prepare(&mut reference, &inputs);
    let report = vfs::driver::run(&mut reference, inputs.scripts);
    if let Some(e) = report.errors.first() {
        return Err(format!("reference replay failed: {}", e.error));
    }
    let expected = listings(&mut reference, &inputs.dirs, report.makespan)?;
    for ((dir, mut expected), got) in inputs.dirs.iter().zip(expected).zip(got) {
        expected.retain(|(name, _)| !failed.contains(&dir.join(name)));
        if *got != expected {
            let missing = expected.iter().find(|e| !got.contains(e));
            let extra = got.iter().find(|e| !expected.contains(e));
            return Err(format!(
                "{dir}: {} entries, reference has {} (first missing {missing:?}, first extra {extra:?})",
                got.len(),
                expected.len()
            ));
        }
    }
    Ok(())
}

/// Requires that every failed step failed in a way the workload allows.
pub fn errors(w: Workload, outcome: &Outcome) -> Result<(), String> {
    match outcome.errors.iter().find(|&&(_, _, e)| !w.allows(e)) {
        Some((client, step, errno)) => Err(format!(
            "client {client} step {step} failed with {errno}, which {} never allows",
            w.name()
        )),
        None => Ok(()),
    }
}

/// Requires that the layers each workload exists to exercise actually
/// ran, and that no journal-acked operation was lost.
pub fn gates(w: Workload, outcome: &Outcome) -> Result<(), String> {
    let l = &outcome.layers;
    let sum = |f: fn(&cofs::mds_cluster::ShardUsage) -> u64| l.usage.iter().map(f).sum::<u64>();
    let required: Vec<(&str, u64)> = match w {
        Workload::PaperSharedDir => vec![
            ("cofs.under_creates", l.counts["cofs.under_creates"]),
            ("dlm.acquires", l.counts["dlm.acquires"]),
        ],
        Workload::MdsStorm => vec![("elastic.splits", sum(|u| u.splits))],
        Workload::MixedCached => vec![
            ("cache.hits", l.cache.hits),
            ("mds.recalls", sum(|u| u.recalls)),
            ("mds.read_bypasses", sum(|u| u.read_bypasses)),
            ("metadb.rows_coalesced", sum(|u| u.rows_coalesced)),
            ("metadb.reads_memoized", sum(|u| u.reads_memoized)),
        ],
        Workload::Cascade => vec![
            ("fault.crashes", l.fault.crashes),
            ("fault.promotions", l.fault.promotions),
            ("fault.nacks", l.fault.nacks),
            ("fault.fenced_leases", l.fault.fenced_leases),
            ("fault.replayed_ops", l.fault.replayed_ops),
        ],
    };
    if let Some((name, _)) = required.iter().find(|&&(_, v)| v == 0) {
        return Err(format!("{name} is 0 on {}: the gate is vacuous", w.name()));
    }
    if l.fault.lost_acked_ops > 0 {
        return Err(format!(
            "{} journal-acked operations lost",
            l.fault.lost_acked_ops
        ));
    }
    Ok(())
}
