//! `cofs-perf` — the repository's benchmark.
//!
//! ```text
//! cofs-perf [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//!           [--json <file>] [--trace-out <dir>]
//! ```
//!
//! One invocation measures one workload for `--seconds` of host time:
//! it runs each of the workload's seeded instances on a fresh stack,
//! checks each resulting namespace against a `MemFs` replay, repeats
//! them until the time is up (at least one repeat), requires every
//! repeat's virtual-time results to be byte-identical, and prints every metric as `name value unit` followed by a
//! one-line JSON result. `--trace 0` reports the end-to-end metrics of
//! untraced repetitions; `--trace 1` alternates traced and untraced
//! repetitions and reports the per-layer metrics. Without `--workload`
//! every workload runs, each in its own child process so peak memory is
//! per workload. See README.md for the metrics and the comparison rule.

mod check;
mod host;
mod measure;
mod metrics;
#[cfg(test)]
mod tests;
mod trace;
mod workload;

use metrics::{mean, median, Metric};
use simcore::rng::{stable_hash, stable_hash_combine};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Case, Size, Workload};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        json: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                out.workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => out.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {value}: not a duration"))?
            }
            "--trace" => {
                out.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            "--json" => out.json = Some(PathBuf::from(value)),
            "--trace-out" => out.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(out)
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result of one invocation on one workload.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Reported in the JSON result.
    metrics: Vec<Metric>,
    /// Printed only.
    info: Vec<Metric>,
    problems: Vec<String>,
}

impl Report {
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Hashes text as it is written, without keeping it.
struct HashWriter(u64);

impl std::fmt::Write for HashWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 = stable_hash_combine(self.0, stable_hash(s.as_bytes()));
        Ok(())
    }
}

/// A hash of everything an instance produced in virtual time: equal
/// fingerprints mean byte-identical renderings.
fn fingerprint(o: &measure::Outcome) -> u64 {
    let mut h = HashWriter(0);
    let _ = write!(h, "{o:?}");
    h.0
}

/// Measures `w` for at least `seconds` of host time, checking
/// correctness along the way. Repetition `r` runs instance
/// `r % w.instances()`; the first round of repetitions is untraced,
/// checks each instance and sets its virtual outcome, which every later
/// repetition of that instance, traced or not, must reproduce byte for
/// byte.
fn bench(
    w: Workload,
    size: Size,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> (Report, Vec<trace::Span>) {
    let clock = host::clock();
    let case = |instance| Case {
        workload: w,
        size,
        seed,
        instance,
    };
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut goldens = Vec::new();
    let (mut virt, mut info) = (Vec::new(), Vec::new());
    let (mut runs, mut setups, mut refs) = (Vec::new(), Vec::new(), Vec::new());
    let (mut layered, mut traced_runs, mut spans) = (Vec::new(), Vec::new(), Vec::new());
    let instances = w.instances();
    let mut reps = 0;
    while reps <= instances || clock() < seconds || (traced && layered.is_empty()) {
        let instance = reps % instances;
        let first = reps < instances;
        let sides: &[bool] = if traced && !first {
            &[true, false]
        } else {
            &[false]
        };
        for &traced_rep in sides {
            if !traced_rep {
                refs.push(host::reference_s());
            }
            let r = measure::rep(case(instance), traced_rep, first);
            let o = &r.outcome;
            attempted += o.steps;
            failed += o.errors.len() as u64;
            if first {
                if let Some(Err(e)) = &r.check {
                    problems.push(format!("differential check: {e}"));
                }
                problems.extend(check::errors(w, o).err());
                problems.extend(check::gates(w, o).err());
                goldens.push(fingerprint(o));
                virt.push(metrics::virtual_end_to_end(o));
                info.push(metrics::info(o));
            } else if fingerprint(o) != goldens[instance] {
                problems.push(format!(
                    "instance {instance} ran differently on repetition {reps}{}",
                    if traced_rep { " (traced)" } else { "" }
                ));
            }
            if traced_rep {
                layered.push(metrics::per_layer(o, &r.spans, r.run_s));
                traced_runs.push(r.run_s);
                spans = r.spans;
            } else {
                runs.push(r.run_s);
                setups.push(r.setup_s);
            }
        }
        if !problems.is_empty() {
            break;
        }
        reps += 1;
    }
    let metrics = if traced && !layered.is_empty() {
        let mut out = metrics::combine(&layered, median);
        out.push(metrics::trace_overhead(median(&traced_runs), median(&runs)));
        out
    } else {
        let mut out = metrics::combine(&virt, mean);
        out.extend(metrics::host_end_to_end(
            median(&runs) / median(&refs),
            median(&setups) / median(&refs),
            median(&setups),
            peak_rss_mb(),
        ));
        out
    };
    let mut info = metrics::combine(&info, mean);
    info.extend(metrics::host_info(median(&runs), median(&refs)));
    let report = Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        info,
        problems,
    };
    (report, spans)
}

/// Runs every workload, each in a child process, forwarding the
/// arguments; succeeds only if every child does.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cofs-perf: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        println!("== {} ==", w.name());
        let status = std::process::Command::new(&exe)
            .args(args)
            .args(["--workload", w.name()])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("cofs-perf: {} exited with {s}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("cofs-perf: cannot run {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cofs-perf: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = args.workload else {
        if args.json.is_some() {
            eprintln!("cofs-perf: --json needs --workload");
            return ExitCode::from(2);
        }
        return run_all(&raw);
    };
    let (report, spans) = bench(w, w.full(), args.seed, args.seconds, args.trace);
    for m in report.metrics.iter().chain(&report.info) {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for p in &report.problems {
        eprintln!("cofs-perf: {}: {p}", w.name());
    }
    let json = report.json();
    let mut ok = report.correct;
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("cofs-perf: writing {}: {e}", path.display());
            ok = false;
        }
    }
    if let (Some(dir), true) = (&args.trace_out, args.trace) {
        let path = dir.join(format!("trace_{}_{}.json", w.name(), args.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace::chrome_trace(&spans)));
        if let Err(e) = written {
            eprintln!("cofs-perf: writing {}: {e}", path.display());
            ok = false;
        }
    }
    println!("{json}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
