//! Smoke tests: every figure/table binary must run to completion,
//! print its report header and write its `BENCH_<name>.json`, so
//! entrypoints cannot silently rot.
//!
//! `COFS_SMOKE=1` makes the binaries run drastically reduced sweeps
//! (see `cofs_bench::smoke_mode`), keeping this suite fast while still
//! executing the real `main` of each artifact.

use std::process::Command;

/// Runs a benchmark binary with `COFS_BENCH_OUT` pointed at a scratch
/// directory and returns the `BENCH_<name>.json` it must write.
fn run_smoke_with_json(exe: &str, expect: &str, name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("cofs-smoke-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(exe)
        .env("COFS_SMOKE", "1")
        .env("COFS_BENCH_OUT", &dir)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} exited with {:?}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(expect),
        "{exe} output missing {expect:?}; got:\n{stdout}"
    );
    let json_path = dir.join(format!("BENCH_{name}.json"));
    let json = std::fs::read_to_string(&json_path)
        .unwrap_or_else(|e| panic!("{exe} did not write {}: {e}", json_path.display()));
    std::fs::remove_dir_all(&dir).ok();
    json
}

#[test]
fn fig1_runs() {
    let json = run_smoke_with_json(env!("CARGO_BIN_EXE_fig1"), "Fig 1", "fig1");
    assert!(json.contains("avg. time per create"), "{json}");
}

#[test]
fn fig2_runs() {
    let json = run_smoke_with_json(env!("CARGO_BIN_EXE_fig2"), "Fig 2", "fig2");
    assert!(json.contains("parallel GPFS op times"), "{json}");
}

#[test]
fn fig4_runs() {
    let json = run_smoke_with_json(env!("CARGO_BIN_EXE_fig4"), "Fig 4", "fig4");
    assert!(json.contains("\"title\": \"8 nodes\""), "{json}");
}

#[test]
fn fig5_runs() {
    let json = run_smoke_with_json(env!("CARGO_BIN_EXE_fig5"), "Fig 5", "fig5");
    assert!(json.contains("avg. time per open_close"), "{json}");
}

#[test]
fn fig6_runs() {
    let json = run_smoke_with_json(env!("CARGO_BIN_EXE_fig6"), "Fig 6", "fig6");
    assert!(json.contains("hierarchical network"), "{json}");
}

#[test]
fn table1_runs() {
    let json = run_smoke_with_json(env!("CARGO_BIN_EXE_table1"), "Table I", "table1");
    assert!(json.contains("shared files"), "{json}");
}

#[test]
fn scaling_runs_and_writes_json() {
    let json = run_smoke_with_json(env!("CARGO_BIN_EXE_scaling"), "Scaling", "scaling");
    assert!(json.contains("\"sections\""), "{json}");
    assert!(json.contains("hot-stat storm vs client cache"), "{json}");
}

#[test]
fn ablation_runs_and_writes_json() {
    let json = run_smoke_with_json(env!("CARGO_BIN_EXE_ablation"), "Ablations", "ablation");
    assert!(json.contains("client-cache ablation"), "{json}");
    assert!(json.contains("mds sharding ablation"), "{json}");
}
