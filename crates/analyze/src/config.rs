//! Per-crate rule policy and allowlists.
//!
//! Deny-by-default: every rule applies everywhere unless a policy here
//! relaxes it. Relaxations are deliberate and centralized so a grep of
//! this file answers "what is exempt and why".

/// Directories (workspace-relative prefixes) never scanned: build
/// output, vendored shims (external code with its own idioms), and the
/// analyzer's own seeded-violation fixtures.
pub const EXCLUDED_DIRS: &[&str] = &["target", "vendor", ".git", "crates/analyze/fixtures"];

/// Crates whose results feed the simulation: unordered iteration
/// (D003) changes event order or float-summation order there, so it is
/// denied. Test/bench/tooling crates only *observe* results and may
/// iterate hash maps in assertions.
pub const SIM_CRATES: &[&str] = &[
    "crates/simcore",
    "crates/netsim",
    "crates/vfs",
    "crates/dlm",
    "crates/pfs",
    "crates/core",
    "crates/workloads",
];

/// Files allowed to touch `std::time`: only the virtual-time module
/// itself, which defines the replacement vocabulary (it currently uses
/// none, but the exemption documents where such code *would* live).
pub const D001_EXEMPT_FILES: &[&str] = &["crates/simcore/src/time.rs"];

/// Files allowed threads / interior mutability (D004). Empty: the
/// simulator is single-threaded by design, and the future parallel
/// event loop must add its files here explicitly — that audit trail is
/// the point of the rule.
pub const D004_ALLOWLIST: &[&str] = &[];

/// The rule identifiers, in report order.
pub const RULES: &[&str] = &["D001", "D002", "D003", "D004"];

/// Which crate-policy bucket a workspace-relative path belongs to:
/// `crates/<name>` for crate members, else the first path component
/// (`tests`, `examples`, `scripts`).
pub fn crate_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match parts.next() {
        Some("crates") => match parts.next() {
            Some(name) => format!("crates/{name}"),
            None => "crates".to_string(),
        },
        Some(first) => first.to_string(),
        None => String::new(),
    }
}

/// Policy for one file, derived from its workspace-relative path.
#[derive(Debug, Clone, Copy)]
pub struct FilePolicy {
    /// D001 wall-clock rule applies.
    pub d001: bool,
    /// D002 ambient-randomness rule applies.
    pub d002: bool,
    /// D003 unordered-iteration rule applies (sim crates only; always
    /// relaxed inside `#[cfg(test)]` regions, which the rule engine
    /// handles separately).
    pub d003: bool,
    /// D004 thread/interior-mutability rule applies.
    pub d004: bool,
}

impl FilePolicy {
    /// Deny-by-default policy for `rel_path`. `strict` forces every
    /// rule on regardless of crate (used to prove the gate trips on
    /// the seeded fixtures).
    pub fn for_path(rel_path: &str, strict: bool) -> FilePolicy {
        if strict {
            return FilePolicy {
                d001: true,
                d002: true,
                d003: true,
                d004: true,
            };
        }
        let krate = crate_of(rel_path);
        FilePolicy {
            d001: !D001_EXEMPT_FILES.contains(&rel_path),
            d002: true,
            d003: SIM_CRATES.contains(&krate.as_str()),
            d004: !D004_ALLOWLIST.contains(&rel_path),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_bucket_extraction() {
        assert_eq!(crate_of("crates/core/src/fs.rs"), "crates/core");
        assert_eq!(crate_of("tests/tests/properties.rs"), "tests");
        assert_eq!(crate_of("examples/src/main.rs"), "examples");
    }

    #[test]
    fn sim_crates_get_d003_others_do_not() {
        assert!(FilePolicy::for_path("crates/core/src/fs.rs", false).d003);
        assert!(FilePolicy::for_path("crates/dlm/src/lib.rs", false).d003);
        assert!(!FilePolicy::for_path("tests/tests/properties.rs", false).d003);
        assert!(!FilePolicy::for_path("crates/bench/src/lib.rs", false).d003);
        assert!(!FilePolicy::for_path("crates/analyze/src/main.rs", false).d003);
    }

    #[test]
    fn time_module_is_d001_exempt() {
        assert!(!FilePolicy::for_path("crates/simcore/src/time.rs", false).d001);
        assert!(FilePolicy::for_path("crates/simcore/src/lib.rs", false).d001);
    }

    #[test]
    fn strict_forces_everything() {
        let p = FilePolicy::for_path("crates/analyze/fixtures/seeded.rs", true);
        assert!(p.d001 && p.d002 && p.d003 && p.d004);
    }
}
