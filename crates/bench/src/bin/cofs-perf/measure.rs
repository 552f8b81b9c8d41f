//! One repetition of a workload: build a fresh stack, run the scripts,
//! and collect what the run produced.

use crate::check;
use crate::host::{self, Clock};
use crate::trace::{Layer, Span, SpanSource, Traced};
use crate::workload::{self, Case, Inputs, Substrate, PLACEMENT_SEED};
use cofs::batch::BatchStats;
use cofs::client_cache::CacheStats;
use cofs::config::{CofsConfig, MdsNetwork};
use cofs::fault::FaultSummary;
use cofs::fs::CofsFs;
use cofs::mds_cluster::ShardUsage;
use netsim::ids::NodeId;
use pfs::fs::PfsFs;
use simcore::stats::Summary;
use simcore::time::SimTime;
use std::collections::BTreeMap;
use vfs::driver::Action;
use vfs::error::Errno;
use vfs::fs::{FileSystem, OpCtx};
use vfs::memfs::MemFs;
use vfs::types::Mode;
use workloads::target::BenchTarget;

/// GPFS protocol counters reported as `pfs.*` metrics: (metric, key).
const PFS_COUNTERS: [(&str, &str); 9] = [
    ("pfs.attr_hits", "attr_hits"),
    ("pfs.attr_misses", "attr_misses"),
    ("pfs.dir_hits", "dir_hits"),
    ("pfs.dir_misses", "dir_misses"),
    ("pfs.block_fetches", "block_fetches"),
    ("pfs.block_writebacks", "block_writebacks"),
    ("pfs.revoke_flushes", "revoke_flushes"),
    ("pfs.dirty_throttle_flushes", "dirty_throttle_flushes"),
    ("pfs.dir_attaches", "dir_attaches"),
];

/// Token-manager counters reported as `dlm.*` metrics.
const DLM_COUNTERS: [(&str, &str); 3] = [
    ("dlm.acquires", "acquires"),
    ("dlm.local_hits", "local_hits"),
    ("dlm.revocations", "revocations"),
];

/// COFS layer counters reported as `cofs.*` metrics.
const COFS_COUNTERS: [(&str, &str); 5] = [
    ("cofs.mds_rpcs", "mds_rpcs"),
    ("cofs.mds_batches", "mds_batches"),
    ("cofs.mds_two_phase", "mds_two_phase"),
    ("cofs.under_creates", "under_creates"),
    ("cofs.under_dirs_made", "under_dirs_made"),
];

/// A filesystem COFS runs over, with the running counters its own
/// layers expose (zero for layers it does not have).
pub trait Under: BenchTarget {
    /// `(metric name, running total)` for the `pfs`, `dlm` and `net`
    /// metrics.
    fn counters(&self) -> Vec<(&'static str, u64)>;
}

impl Under for PfsFs {
    fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = PFS_COUNTERS
            .iter()
            .map(|&(name, key)| (name, self.counters().get(key)))
            .collect();
        out.extend(
            DLM_COUNTERS
                .iter()
                .map(|&(name, key)| (name, self.token_stats().get(key))),
        );
        out.push(("net.messages", self.cluster().messages()));
        out.push(("net.bytes", self.cluster().bytes_carried()));
        out
    }
}

impl Under for MemFs {
    fn counters(&self) -> Vec<(&'static str, u64)> {
        PFS_COUNTERS
            .iter()
            .chain(&DLM_COUNTERS)
            .map(|&(name, _)| (name, 0))
            .chain([("net.messages", 0), ("net.bytes", 0)])
            .collect()
    }
}

impl<U: Under + SpanSource> Under for Traced<U> {
    fn counters(&self) -> Vec<(&'static str, u64)> {
        self.inner().counters()
    }
}

/// A COFS stack as the driver sees it: bare, or wrapped for tracing.
pub trait Stack: FileSystem {
    /// The filesystem under COFS.
    type U: Under;
    /// The COFS layer.
    fn cofs(&self) -> &CofsFs<Self::U>;
    /// The COFS layer, mutably (calls through it are not traced).
    fn cofs_mut(&mut self) -> &mut CofsFs<Self::U>;
    /// Moves out every span recorded so far (none when untraced).
    fn take_spans(&mut self) -> Vec<Span> {
        Vec::new()
    }
}

impl<U: Under> Stack for CofsFs<U> {
    type U = U;
    fn cofs(&self) -> &CofsFs<U> {
        self
    }
    fn cofs_mut(&mut self) -> &mut CofsFs<U> {
        self
    }
}

impl<U: Under + SpanSource> Stack for Traced<CofsFs<Traced<U>>> {
    type U = Traced<U>;
    fn cofs(&self) -> &CofsFs<Traced<U>> {
        self.inner()
    }
    fn cofs_mut(&mut self) -> &mut CofsFs<Traced<U>> {
        self.inner_mut()
    }
    fn take_spans(&mut self) -> Vec<Span> {
        self.collect_orphans();
        std::mem::take(&mut self.spans)
    }
}

/// Layer counters over the measured phase. Every field is a function of
/// the inputs alone.
#[derive(Debug)]
pub struct Layers {
    /// `cofs.*` and substrate counter deltas, by metric name.
    pub counts: BTreeMap<&'static str, u64>,
    /// Per-shard metadata-service load.
    pub usage: Vec<ShardUsage>,
    /// Client-cache counters.
    pub cache: CacheStats,
    /// Batching counters.
    pub batch: BatchStats,
    /// Fault and recovery accounting (all zero without a fault plan).
    pub fault: FaultSummary,
}

fn running_counts<U: Under>(fs: &CofsFs<U>) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = COFS_COUNTERS
        .iter()
        .map(|&(name, key)| (name, fs.counters().get(key)))
        .collect();
    out.extend(fs.under().counters());
    out
}

impl Layers {
    fn since<U: Under>(before: &BTreeMap<&'static str, u64>, fs: &CofsFs<U>) -> Layers {
        let counts = running_counts(fs)
            .into_iter()
            .map(|(name, now)| (name, now - before[name]))
            .collect();
        Layers {
            counts,
            usage: fs.shard_usage(),
            cache: fs.cache_stats(),
            batch: fs.batch_stats(),
            fault: fs.fault_summary().unwrap_or_default(),
        }
    }
}

/// What one repetition produced in virtual time. Repetitions of one
/// seed must render to the same bytes.
#[derive(Debug)]
pub struct Outcome {
    /// When the last client finished or the last batch drained.
    pub makespan: SimTime,
    /// When the last acked write-behind row is applied.
    pub apply_horizon: SimTime,
    /// Operations the driver issued (barriers excluded).
    pub steps: u64,
    /// Failed steps: (client, step, errno).
    pub errors: Vec<(usize, usize, Errno)>,
    /// Latency samples per measurement label.
    pub latency: BTreeMap<&'static str, Summary>,
    /// Each client's measured operations and when it finished them.
    pub clients: Vec<(u64, SimTime)>,
    /// Layer counters.
    pub layers: Layers,
}

/// One repetition: host-time costs, the virtual outcome, and the
/// spans of a traced run.
pub struct Rep {
    /// Host seconds to generate the inputs, build the stack and make
    /// the namespace the measured phase starts from.
    pub setup_s: f64,
    /// Host seconds of the measured phase (driver run plus drain).
    pub run_s: f64,
    /// The virtual-time result.
    pub outcome: Outcome,
    /// Spans of a traced repetition, in recording order.
    pub spans: Vec<Span>,
    /// The differential check's verdict, when asked for.
    pub check: Option<Result<(), String>>,
}

/// Runs one repetition of `case` on a fresh stack; with `traced` the
/// stack is wrapped in span recorders, with `check` the resulting
/// namespace is compared against a `MemFs` replay of the same inputs.
pub fn rep(case: Case, traced: bool, check: bool) -> Rep {
    let clock = host::clock();
    let inputs = case.inputs();
    let cfg = workload::config(case.workload, inputs.plan.clone());
    let (under, net) = workload::substrate(case.workload, case.size);
    let run = Run {
        case,
        check,
        clock: &clock,
    };
    match (under, traced) {
        (Substrate::Gpfs(u), false) => {
            run.measure(CofsFs::new(*u, cfg, net, PLACEMENT_SEED), inputs)
        }
        (Substrate::Gpfs(u), true) => run.measure(traced_stack(*u, cfg, net, &clock), inputs),
        (Substrate::Mem(u), false) => run.measure(CofsFs::new(u, cfg, net, PLACEMENT_SEED), inputs),
        (Substrate::Mem(u), true) => run.measure(traced_stack(u, cfg, net, &clock), inputs),
    }
}

fn traced_stack<U: Under + SpanSource>(
    under: U,
    cfg: CofsConfig,
    net: MdsNetwork,
    clock: &Clock,
) -> Traced<CofsFs<Traced<U>>> {
    let under = Traced::new(under, Layer::Under, clock.clone());
    let cofs = CofsFs::new(under, cfg, net, PLACEMENT_SEED);
    Traced::new(cofs, Layer::Cofs, clock.clone())
}

/// Makes the namespace a workload starts from, then rewinds queues and
/// counters so the measured phase starts at virtual time zero.
pub fn prepare<F: BenchTarget>(fs: &mut F, inputs: &Inputs) {
    let ctx = OpCtx::test(NodeId(0));
    let mut now = SimTime::ZERO;
    for dir in &inputs.dirs {
        now = fs
            .mkdir(&ctx.at(now), dir, Mode::dir_default())
            .expect("setup mkdir")
            .end;
    }
    for file in &inputs.files {
        let t = fs
            .create(&ctx.at(now), file, Mode::file_default())
            .expect("setup create");
        now = fs.close(&ctx.at(t.end), t.value).expect("setup close").end;
    }
    fs.phase_reset();
}

struct Run<'a> {
    case: Case,
    check: bool,
    clock: &'a Clock,
}

impl Run<'_> {
    fn measure<S: Stack>(&self, mut fs: S, inputs: Inputs) -> Rep {
        prepare(fs.cofs_mut(), &inputs);
        fs.take_spans();
        let steps = inputs
            .scripts
            .iter()
            .flat_map(|s| &s.steps)
            .filter(|s| !matches!(s.action, Action::Barrier))
            .count() as u64;
        let measured: Vec<u64> = inputs
            .scripts
            .iter()
            .map(|s| s.steps.iter().filter(|s| s.label.is_some()).count() as u64)
            .collect();
        let before = running_counts(fs.cofs());
        let setup_s = (self.clock)();
        let report = vfs::driver::run(&mut fs, inputs.scripts);
        let tail = fs.cofs_mut().drain_outstanding();
        let run_s = (self.clock)() - setup_s;
        let spans = fs.take_spans();
        let makespan = tail.map_or(report.makespan, |t| report.makespan.max(t));
        let outcome = Outcome {
            makespan,
            apply_horizon: fs.cofs().apply_horizon(makespan),
            steps,
            errors: report
                .errors
                .iter()
                .map(|e| (e.client, e.step, e.error.errno()))
                .collect(),
            latency: report.per_label,
            clients: measured.into_iter().zip(report.client_end).collect(),
            layers: Layers::since(&before, fs.cofs()),
        };
        let check = if self.check {
            let got = check::listings(&mut fs, &inputs.dirs, makespan);
            // The stack goes before the reference replay is built, so
            // the process's peak memory is that of the stack under test.
            drop(fs);
            Some(got.and_then(|got| check::differential(self.case, &got, &outcome.errors)))
        } else {
            None
        };
        Rep {
            setup_s,
            run_s,
            outcome,
            spans,
            check,
        }
    }
}
