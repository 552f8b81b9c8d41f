use crate::check;
use crate::measure::{self, Rep};
use crate::metrics;
use crate::workload::{self, Case, Workload, PLACEMENT_SEED};
use cofs::fs::CofsFs;
use netsim::ids::NodeId;
use simcore::time::SimTime;
use vfs::fs::{FileSystem, OpCtx};
use vfs::memfs::MemFs;
use vfs::types::Mode;

fn tiny(workload: Workload, seed: u64, instance: usize) -> Case {
    Case {
        workload,
        size: workload.tiny(),
        seed,
        instance,
    }
}

fn names(metrics: &[metrics::Metric]) -> Vec<(String, String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
        .collect()
}

#[test]
fn every_workload_runs_correctly_at_tiny_scale() {
    for w in Workload::ALL {
        let r = measure::rep(tiny(w, 1, 0), false, true);
        assert_eq!(r.check, Some(Ok(())), "{}", w.name());
        assert!(r.outcome.errors.is_empty(), "{}", w.name());
        assert!(r.outcome.steps > 0 && r.run_s > 0.0 && r.setup_s > 0.0);
        let traced = measure::rep(tiny(w, 1, 0), true, false);
        assert!(!traced.spans.is_empty(), "{}", w.name());
        assert_eq!(
            format!("{:?}", traced.outcome),
            format!("{:?}", r.outcome),
            "{}: tracing changed the virtual-time outcome",
            w.name()
        );
    }
}

#[test]
fn seeds_fix_inputs_and_outcomes() {
    for w in Workload::ALL {
        let inputs = |seed, instance| format!("{:?}", tiny(w, seed, instance).inputs());
        assert_eq!(inputs(7, 0), inputs(7, 0), "{}", w.name());
        assert_ne!(inputs(7, 0), inputs(8, 0), "{}", w.name());
        assert_ne!(inputs(7, 0), inputs(7, 1), "{}", w.name());
        let outcome = || format!("{:?}", measure::rep(tiny(w, 7, 0), false, false).outcome);
        assert_eq!(outcome(), outcome(), "{}", w.name());
    }
}

#[test]
fn a_tampered_namespace_fails_the_differential_check() {
    let case = tiny(Workload::MdsStorm, 3, 0);
    let inputs = case.inputs();
    let (under, net) = match workload::substrate(case.workload, case.size) {
        (workload::Substrate::Mem(m), net) => (m, net),
        _ => unreachable!("mds_storm runs over MemFs"),
    };
    let cfg = workload::config(case.workload, inputs.plan.clone());
    let mut fs = CofsFs::new(under, cfg, net, PLACEMENT_SEED);
    measure::prepare(&mut fs, &inputs);
    let report = vfs::driver::run(&mut fs, inputs.scripts.clone());
    let at = report.makespan;
    let got = check::listings(&mut fs, &inputs.dirs, at).unwrap();
    assert_eq!(check::differential(case, &got, &[]), Ok(()));
    let ctx = OpCtx::test(NodeId(0)).at(at);
    let stray = inputs.dirs[1].join("stray");
    let fh = fs.create(&ctx, &stray, Mode::file_default()).unwrap().value;
    fs.close(&ctx, fh).unwrap();
    let got = check::listings(&mut fs, &inputs.dirs, at).unwrap();
    let err = check::differential(case, &got, &[]).unwrap_err();
    assert!(err.contains("stray"), "{err}");
}

#[test]
fn differential_check_ignores_creates_that_failed_with_eio() {
    let case = tiny(Workload::Cascade, 1, 0);
    let inputs = case.inputs();
    let mut sim = MemFs::new();
    measure::prepare(&mut sim, &inputs);
    // Client 0's first create (step 0) and its close never take effect,
    // as when the create runs out of retries.
    let mut scripts = inputs.scripts;
    scripts[0].steps.drain(0..2);
    vfs::driver::run(&mut sim, scripts);
    let got = check::listings(&mut sim, &inputs.dirs, SimTime::ZERO).unwrap();
    assert!(check::differential(case, &got, &[]).is_err());
    let eio = [(0, 0, vfs::error::Errno::EIO)];
    assert_eq!(check::differential(case, &got, &eio), Ok(()));
}

/// The `"name"`, `"unit"` and `"better"` fields of every object in the
/// array under `key` of `BENCHMARK.json` (missing fields read as "").
fn benchmark_entries(key: &str) -> Vec<(String, String, String)> {
    let text = include_str!("../../../../../BENCHMARK.json");
    let start = text.find(&format!("\"{key}\"")).expect("key present");
    let open = start + text[start..].find('[').expect("array");
    let close = open + text[open..].find(']').expect("array end");
    let field = |obj: &str, f: &str| -> String {
        obj.find(&format!("\"{f}\""))
            .map(|i| {
                let rest = &obj[i + f.len() + 2..];
                let rest = &rest[rest.find('"').expect("string value") + 1..];
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .unwrap_or_default()
    };
    text[open + 1..close]
        .split('}')
        .filter(|obj| obj.contains('{'))
        .map(|obj| (field(obj, "name"), field(obj, "unit"), field(obj, "better")))
        .collect()
}

#[test]
fn emitted_names_match_benchmark_json() {
    let listed: Vec<String> = benchmark_entries("workloads")
        .into_iter()
        .map(|e| e.0)
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, ours);

    let r: Rep = measure::rep(tiny(Workload::PaperSharedDir, 1, 0), true, false);
    let mut e2e = metrics::virtual_end_to_end(&r.outcome);
    e2e.extend(metrics::host_end_to_end(1.0, 1.0, 1.0, 1.0));
    assert_eq!(names(&e2e), benchmark_entries("end_to_end"));
    let mut layers = metrics::per_layer(&r.outcome, &r.spans, r.run_s);
    layers.push(metrics::trace_overhead(1.0, 1.0));
    assert_eq!(names(&layers), benchmark_entries("per_layer"));
}

#[test]
fn command_line_follows_the_benchmark_contract() {
    let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
    let a = crate::parse(&args("--workload cascade --seed 9 --seconds 12 --trace 1")).unwrap();
    assert_eq!(a.workload, Some(Workload::Cascade));
    assert_eq!((a.seed, a.seconds, a.trace), (9, 12.0, true));
    for bad in [
        "--trace 2",
        "--workload nope",
        "--seed -1",
        "--seconds",
        "--bogus 1",
    ] {
        assert!(crate::parse(&args(bad)).is_err(), "{bad}");
    }
}
