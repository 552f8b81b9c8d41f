//! `cofs-analyze` — the workspace determinism & simulation-safety
//! lint gate.
//!
//! Every reported number in this repro rests on bit-for-bit virtual
//! time replay; one wall-clock read, ambient RNG call, or unordered
//! `HashMap` iteration silently breaks it. This binary lexes every
//! workspace `.rs` file (no `syn` offline — see [`lexer`]) and
//! enforces the deny-by-default rules in [`rules`]:
//!
//! * **D001** no wall-clock (`Instant::now`, `SystemTime::now`,
//!   `std::time` outside `simcore::time`)
//! * **D002** no ambient randomness (`thread_rng`, `rand::random`)
//! * **D003** no unordered `HashMap`/`HashSet` iteration in
//!   simulation crates
//! * **D004** no threads or unaudited interior mutability
//!
//! Usage:
//!
//! ```text
//! cofs-analyze                 # scan the workspace, exit 1 on findings
//! cofs-analyze --root DIR      # scan a different root
//! cofs-analyze --strict PATHS  # scan only PATHS with every rule forced on
//! ```
//!
//! Escape hatch: `// cofs-lint: allow(RULE, reason)` on or directly
//! above the offending line. The reason is mandatory (`A001`), and an
//! escape that suppresses nothing is reported as stale (`A002`).

mod config;
mod lexer;
mod rules;

use config::{FilePolicy, EXCLUDED_DIRS};
use rules::Violation;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Recursively collects `.rs` files under `dir`, skipping
/// [`EXCLUDED_DIRS`] (matched against workspace-relative prefixes).
/// Results are sorted so diagnostics are stable across platforms.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut children: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    children.sort();
    for path in children {
        let rel = rel_path(root, &path);
        if EXCLUDED_DIRS
            .iter()
            .any(|ex| rel == *ex || rel.starts_with(&format!("{ex}/")))
        {
            continue;
        }
        // Skip hidden directories (.git and editor droppings).
        if path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with('.'))
        {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Workspace-relative, `/`-separated form of `path`.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut strict = false;
    let mut explicit: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => {
                let Some(dir) = args.next() else {
                    eprintln!("--root needs a directory");
                    return ExitCode::from(2);
                };
                root = PathBuf::from(dir);
            }
            "--strict" => strict = true,
            "--help" | "-h" => {
                eprintln!("usage: cofs-analyze [--root DIR] [--strict] [PATHS...]");
                return ExitCode::SUCCESS;
            }
            other => explicit.push(PathBuf::from(other)),
        }
    }

    let mut files: Vec<PathBuf> = Vec::new();
    if explicit.is_empty() {
        collect_rs_files(&root.clone(), &root, &mut files);
    } else {
        for p in &explicit {
            if p.is_dir() {
                // Explicitly named directories are scanned even if the
                // workspace walk would exclude them (fixture checks).
                let mut sub = Vec::new();
                walk_all(p, &mut sub);
                files.extend(sub);
            } else {
                files.push(p.clone());
            }
        }
        files.sort();
    }

    // Pass 1: read sources and collect HashMap/HashSet-typed names per
    // crate, so fields declared in one file are recognized when a
    // sibling file iterates them through an accessor.
    let mut sources: Vec<(String, String)> = Vec::new();
    let mut crate_names: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for f in &files {
        let rel = rel_path(&root, f);
        let Ok(src) = std::fs::read_to_string(f) else {
            eprintln!("cofs-analyze: cannot read {rel}");
            continue;
        };
        crate_names
            .entry(config::crate_of(&rel))
            .or_default()
            .extend(rules::hash_typed_names_in(&src));
        sources.push((rel, src));
    }

    // Pass 2: rules.
    let empty = BTreeSet::new();
    let mut violations: Vec<Violation> = Vec::new();
    let scanned = sources.len();
    for (rel, src) in &sources {
        let policy = FilePolicy::for_path(rel, strict);
        let names = crate_names.get(&config::crate_of(rel)).unwrap_or(&empty);
        violations.extend(rules::analyze_source(rel, src, policy, names));
    }
    violations.sort();

    for v in &violations {
        println!("{v}");
    }
    if violations.is_empty() {
        eprintln!("cofs-analyze: {scanned} files clean");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "cofs-analyze: {} violation(s) in {scanned} files (escape: \
             `// cofs-lint: allow(RULE, reason)`)",
            violations.len()
        );
        ExitCode::FAILURE
    }
}

/// Unconditional recursive `.rs` walk (for explicitly named paths).
fn walk_all(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut children: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    children.sort();
    for path in children {
        if path.is_dir() {
            walk_all(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod cli_tests {
    use super::*;

    #[test]
    fn rel_path_is_slash_separated() {
        let root = Path::new("/a/b");
        let p = Path::new("/a/b/crates/core/src/fs.rs");
        assert_eq!(rel_path(root, p), "crates/core/src/fs.rs");
    }

    #[test]
    fn excluded_prefixes_match_whole_components() {
        // "targets" must not be excluded by the "target" prefix.
        let ex = "target";
        assert!("target/debug".starts_with(&format!("{ex}/")));
        assert!(!"targets/debug".starts_with(&format!("{ex}/")));
    }
}
