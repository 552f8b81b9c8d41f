//! The determinism & simulation-safety rules.
//!
//! | rule | denies |
//! |------|--------|
//! | D001 | wall-clock: `Instant::now`, `SystemTime::now`, `std::time` |
//! | D002 | ambient randomness: `thread_rng`, `rand::random` |
//! | D003 | unordered iteration over `HashMap`/`HashSet` values |
//! | D004 | threads & interior mutability: `thread::spawn`, `Mutex`, `RwLock`, `RefCell`, `UnsafeCell`, `static mut` |
//!
//! Escapes: `// cofs-lint: allow(RULE, reason)` suppresses RULE on its
//! own line and the next one. A reason is mandatory — an allow without
//! one is itself reported (rule `A001`), and so is a well-formed allow
//! that suppresses nothing (rule `A002`), so an escape left behind when
//! code moves fails the gate.

use crate::config::{FilePolicy, RULES};
use crate::lexer::{lex, Comment, Tok};
use std::collections::BTreeSet;

/// One diagnostic: `file:line: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule identifier (`D001`…`D004`, `A001` for a bad escape, or
    /// `A002` for a stale one).
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A parsed `cofs-lint: allow(RULE, reason)` directive.
#[derive(Debug, Clone)]
struct Directive {
    line: u32,
    rule: String,
    reason: Option<String>,
}

/// Extracts `cofs-lint:` directives from comment text. Only plain
/// `//` or `/*` comments that *start* with `cofs-lint:` count — doc
/// comments (`///`, `//!`) are prose and may mention the syntax.
fn parse_directives(comments: &[Comment]) -> Vec<Directive> {
    let mut out = Vec::new();
    for c in comments {
        let text = c.text.trim_start();
        let content = if let Some(r) = text.strip_prefix("//") {
            if r.starts_with('/') || r.starts_with('!') {
                continue; // doc comment
            }
            r
        } else if let Some(r) = text.strip_prefix("/*") {
            r
        } else {
            text
        };
        let Some(rest) = content.trim_start().strip_prefix("cofs-lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(body) = rest.strip_prefix("allow(") else {
            // An unparseable directive must not silently pass.
            out.push(Directive {
                line: c.line,
                rule: String::new(),
                reason: None,
            });
            continue;
        };
        let Some(close) = body.find(')') else {
            out.push(Directive {
                line: c.line,
                rule: String::new(),
                reason: None,
            });
            continue;
        };
        let inner = &body[..close];
        let (rule, reason) = match inner.split_once(',') {
            Some((r, why)) => {
                let why = why.trim();
                (
                    r.trim().to_string(),
                    (!why.is_empty()).then(|| why.to_string()),
                )
            }
            None => (inner.trim().to_string(), None),
        };
        out.push(Directive {
            line: c.line,
            rule,
            reason,
        });
    }
    out
}

/// Line ranges covered by `#[cfg(test)]` items (D003 is relaxed there:
/// test-module iteration only feeds assertions, never the simulation).
fn cfg_test_regions(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let t = |i: usize| -> &str {
        if i < toks.len() {
            toks[i].text.as_str()
        } else {
            ""
        }
    };
    let mut i = 0usize;
    while i + 6 < toks.len() {
        if t(i) == "#"
            && t(i + 1) == "["
            && t(i + 2) == "cfg"
            && t(i + 3) == "("
            && t(i + 4) == "test"
            && t(i + 5) == ")"
            && t(i + 6) == "]"
        {
            let start_line = toks[i].line;
            let mut j = i + 7;
            // Skip any further attributes on the same item.
            while t(j) == "#" && t(j + 1) == "[" {
                let mut depth = 0i32;
                j += 1;
                while j < toks.len() {
                    match t(j) {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            // Find the item's body and brace-match it; `mod x;` (no
            // body) ends at the semicolon.
            while j < toks.len() && t(j) != "{" && t(j) != ";" {
                j += 1;
            }
            if t(j) == "{" {
                let mut depth = 0i32;
                while j < toks.len() {
                    match t(j) {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            let end_line = if j < toks.len() {
                toks[j].line
            } else {
                u32::MAX
            };
            regions.push((start_line, end_line));
            i = j + 1;
        } else {
            i += 1;
        }
    }
    regions
}

fn in_regions(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|&(a, b)| a <= line && line <= b)
}

/// The token naming a method call's receiver that ends at `end`: `end`
/// itself, or, when the receiver is indexed once (`name[…]`), the name
/// before the brackets.
fn indexed_name(toks: &[Tok], end: usize) -> Option<usize> {
    if toks[end].text != "]" {
        return Some(end);
    }
    let mut depth = 0i32;
    for j in (0..=end).rev() {
        match toks[j].text.as_str() {
            "]" => depth += 1,
            "[" => {
                depth -= 1;
                if depth == 0 {
                    return j.checked_sub(1);
                }
            }
            _ => {}
        }
    }
    None
}

/// Methods whose iteration order follows the map's internal order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// D003 pass 1 over raw source: names declared with a
/// `HashMap`/`HashSet` type. The driver unions these per *crate*, so
/// a field declared in `cache.rs` is still recognized when a sibling
/// file iterates it through an accessor.
pub fn hash_typed_names_in(src: &str) -> BTreeSet<String> {
    hash_typed_names(&lex(src).0)
}

/// A hash-table type name: `HashMap`, `HashSet`, or an alias whose
/// name ends in one of them (`FxHashMap`, `FxHashSet`).
fn is_hash_type(tok: &Tok) -> bool {
    tok.is_ident && (tok.text.ends_with("HashMap") || tok.text.ends_with("HashSet"))
}

/// D003 pass 1: names declared in this file with a type that mentions
/// a hash table anywhere inside (`m: HashMap<…>`, `m: Vec<FxHashMap<…>>`
/// — struct fields, lets, params) or initialized from one
/// (`= HashMap::new()`, `= FxHashMap::default()` and friends).
fn hash_typed_names(toks: &[Tok]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let t = |i: usize| -> &str {
        if i < toks.len() {
            toks[i].text.as_str()
        } else {
            ""
        }
    };
    for i in 0..toks.len() {
        // `name: Type` — a single colon, not a `::` path separator.
        if toks[i].is_ident && t(i + 1) == ":" && t(i + 2) != ":" && (i == 0 || t(i - 1) != ":") {
            if type_mentions_hash(toks, i + 2) {
                names.insert(toks[i].text.clone());
            }
            continue;
        }
        if !is_hash_type(&toks[i]) {
            continue;
        }
        // `let [mut] name = [path ::]HashMap::new()`: walk back over the
        // path prefix to the `=`.
        let mut k = i;
        while k >= 3 && t(k - 1) == ":" && t(k - 2) == ":" && toks[k - 3].is_ident {
            k -= 3;
        }
        if k >= 2 && t(k - 1) == "=" && toks[k - 2].is_ident {
            names.insert(toks[k - 2].text.clone());
        }
    }
    names
}

/// True when the type starting at token `start` mentions a hash table
/// before it ends: at a `,`, `=` or `|` at its own nesting level, at a
/// closing bracket it did not open, or at a token no type contains
/// (`;`, braces, `!`, `.`), which also stops the scan of a struct
/// literal's `field: value` at the first nested literal or call.
fn type_mentions_hash(toks: &[Tok], start: usize) -> bool {
    let mut depth = 0i32;
    for j in start..toks.len().min(start + 64) {
        let tok = &toks[j];
        if is_hash_type(tok) {
            return true;
        }
        match tok.text.as_str() {
            "<" | "(" | "[" => depth += 1,
            // The `>` of a `->` return arrow closes nothing.
            ">" if j > 0 && toks[j - 1].text == "-" => {}
            ">" | ")" | "]" => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            "," | "=" | "|" if depth == 0 => return false,
            ";" | "{" | "}" | "!" | "." => return false,
            _ => {}
        }
    }
    false
}

/// Whether the `let` at token `i` gives its name a type, or binds it
/// to a constructor path (`BTreeSet::new()`), and if so whether that
/// names a hash table. `None` for any other `let` (patterns, inferred
/// initializers), which leaves the name's crate-wide reading alone.
fn let_binding(toks: &[Tok], i: usize) -> Option<(usize, bool)> {
    let t = |j: usize| toks.get(j).map_or("", |tok| tok.text.as_str());
    let name = if t(i + 1) == "mut" { i + 2 } else { i + 1 };
    if !toks.get(name)?.is_ident {
        return None;
    }
    match t(name + 1) {
        ":" if t(name + 2) != ":" => Some((name, type_mentions_hash(toks, name + 2))),
        "=" if t(name + 2) != "=" => {
            // `Seg :: Seg … :: ctor (` with at least one `::`.
            let (mut j, mut hash) = (name + 2, false);
            while toks.get(j)?.is_ident && t(j + 1) == ":" && t(j + 2) == ":" {
                hash |= is_hash_type(&toks[j]);
                j += 3;
            }
            (j > name + 2 && toks.get(j)?.is_ident && t(j + 1) == "(").then_some((name, hash))
        }
        _ => None,
    }
}

/// Runs every applicable rule over one file's source. `crate_names`
/// carries HashMap/HashSet-typed names declared elsewhere in the same
/// crate (fields reached through accessors); pass an empty set to
/// match on this file's declarations only. A `let` that types its
/// name, or builds it with a constructor path, without a hash table
/// shadows those names for bare uses (`name.iter()`, not
/// `self.name.iter()`) until its block closes.
pub fn analyze_source(
    rel_path: &str,
    src: &str,
    policy: FilePolicy,
    crate_names: &BTreeSet<String>,
) -> Vec<Violation> {
    let (toks, comments) = lex(src);
    let directives = parse_directives(&comments);
    let test_regions = cfg_test_regions(&toks);
    let mut raw: Vec<Violation> = Vec::new();
    let t = |i: usize| -> &str {
        if i < toks.len() {
            toks[i].text.as_str()
        } else {
            ""
        }
    };
    let push = |raw: &mut Vec<Violation>, line: u32, rule: &str, msg: String| {
        raw.push(Violation {
            file: rel_path.to_string(),
            line,
            rule: rule.to_string(),
            message: msg,
        });
    };

    let hash_names = if policy.d003 {
        let mut names = hash_typed_names(&toks);
        names.extend(crate_names.iter().cloned());
        names
    } else {
        BTreeSet::new()
    };
    // Typed `let` bindings in scope: name, brace depth, hash-typed.
    let mut locals: Vec<(&str, u32, bool)> = Vec::new();
    let mut depth = 0u32;
    // Whether the name at token `k` is a hash table: a bare name by
    // its innermost typed `let`, if any, else by the declared names.
    let is_hash = |locals: &[(&str, u32, bool)], k: usize| -> bool {
        let bare = k == 0 || t(k - 1) != ".";
        let local = locals.iter().rev().find(|l| bare && l.0 == t(k));
        local.map_or_else(|| hash_names.contains(t(k)), |l| l.2)
    };

    for i in 0..toks.len() {
        let line = toks[i].line;
        if policy.d003 {
            match t(i) {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    locals.retain(|l| l.1 <= depth);
                }
                "let" => {
                    if let Some((name, hash)) = let_binding(&toks, i) {
                        locals.push((t(name), depth, hash));
                    }
                }
                _ => {}
            }
        }
        // ---- D001: wall-clock ------------------------------------------
        if policy.d001 {
            if (t(i) == "Instant" || t(i) == "SystemTime")
                && t(i + 1) == ":"
                && t(i + 2) == ":"
                && t(i + 3) == "now"
            {
                push(
                    &mut raw,
                    line,
                    "D001",
                    format!(
                        "wall-clock read `{}::now` — use virtual time (simcore::time)",
                        t(i)
                    ),
                );
            }
            if t(i) == "std" && t(i + 1) == ":" && t(i + 2) == ":" && t(i + 3) == "time" {
                push(
                    &mut raw,
                    line,
                    "D001",
                    "`std::time` — simulation code must use simcore::time".to_string(),
                );
            }
        }
        // ---- D002: ambient randomness ----------------------------------
        if policy.d002 {
            if t(i) == "thread_rng" {
                push(
                    &mut raw,
                    line,
                    "D002",
                    "`thread_rng` — RNG must flow from simcore::rng seeds".to_string(),
                );
            }
            if t(i) == "rand" && t(i + 1) == ":" && t(i + 2) == ":" && t(i + 3) == "random" {
                push(
                    &mut raw,
                    line,
                    "D002",
                    "`rand::random` — RNG must flow from simcore::rng seeds".to_string(),
                );
            }
        }
        // ---- D004: threads & interior mutability -----------------------
        if policy.d004 {
            if t(i) == "thread" && t(i + 1) == ":" && t(i + 2) == ":" && t(i + 3) == "spawn" {
                push(
                    &mut raw,
                    line,
                    "D004",
                    "`thread::spawn` — the simulator is single-threaded; parallel \
                     code needs a config.rs allowlist entry"
                        .to_string(),
                );
            }
            if matches!(t(i), "Mutex" | "RwLock" | "RefCell" | "UnsafeCell") {
                push(
                    &mut raw,
                    line,
                    "D004",
                    format!(
                        "`{}` — interior mutability outside the config.rs allowlist",
                        t(i)
                    ),
                );
            }
            if t(i) == "static" && t(i + 1) == "mut" {
                push(
                    &mut raw,
                    line,
                    "D004",
                    "`static mut` — unaudited global mutable state".to_string(),
                );
            }
        }
        // ---- D003: unordered iteration ---------------------------------
        if policy.d003 && !in_regions(&test_regions, line) {
            // `name.iter()` / `self.name.keys()` / `name[…].iter()` …
            let receiver = if i >= 2 && t(i - 1) == "." {
                indexed_name(&toks, i - 2)
            } else {
                None
            };
            if let Some(name) = receiver.filter(|&r| {
                toks[i].is_ident
                    && ITER_METHODS.contains(&t(i))
                    && t(i + 1) == "("
                    && is_hash(&locals, r)
            }) {
                push(
                    &mut raw,
                    line,
                    "D003",
                    format!(
                        "`{}{}.{}()` iterates a HashMap/HashSet — use BTreeMap/BTreeSet \
                         or a sorted collect",
                        t(name),
                        if name + 1 < i - 1 { "[…]" } else { "" },
                        t(i)
                    ),
                );
            }
            // `for … in …name… {`
            if t(i) == "for" {
                let mut j = i + 1;
                // Find the `in` of this for-expression (patterns are
                // short; bail out quickly so `for` in macros/doc text
                // cannot run away).
                let mut depth = 0i32;
                let mut found_in = None;
                while j < toks.len() && j < i + 24 {
                    match t(j) {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" => break,
                        "in" if depth == 0 => {
                            found_in = Some(j);
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(start) = found_in {
                    let mut k = start + 1;
                    while k < toks.len() && t(k) != "{" && k < start + 12 {
                        // A name followed by `.` is a method call; the
                        // method-call check above owns that case.
                        if toks[k].is_ident && is_hash(&locals, k) && t(k + 1) != "." {
                            // Iterating an iterator-returning call like
                            // `name.keys()` is caught above; a bare
                            // `for x in &name` lands here.
                            push(
                                &mut raw,
                                toks[k].line,
                                "D003",
                                format!(
                                    "`for … in` over HashMap/HashSet `{}` — use \
                                     BTreeMap/BTreeSet or a sorted collect",
                                    t(k)
                                ),
                            );
                            break;
                        }
                        k += 1;
                    }
                }
            }
        }
    }

    // ---- apply escapes -----------------------------------------------
    let mut out: Vec<Violation> = Vec::new();
    let mut used = vec![false; directives.len()];
    for v in raw {
        let mut suppressed = false;
        for (d, used) in directives.iter().zip(used.iter_mut()) {
            if d.rule == v.rule && d.reason.is_some() && (d.line == v.line || d.line + 1 == v.line)
            {
                *used = true;
                suppressed = true;
            }
        }
        if !suppressed {
            out.push(v);
        }
    }
    // Malformed or reason-less escapes are themselves violations.
    for d in &directives {
        if d.rule.is_empty() || !RULES.contains(&d.rule.as_str()) {
            out.push(Violation {
                file: rel_path.to_string(),
                line: d.line,
                rule: "A001".to_string(),
                message: "malformed cofs-lint directive — expected \
                          `cofs-lint: allow(RULE, reason)`"
                    .to_string(),
            });
        } else if d.reason.is_none() {
            out.push(Violation {
                file: rel_path.to_string(),
                line: d.line,
                rule: "A001".to_string(),
                message: format!("cofs-lint allow({}) without a reason", d.rule),
            });
        }
    }
    for (d, used) in directives.iter().zip(&used) {
        if d.reason.is_some() && RULES.contains(&d.rule.as_str()) && !used {
            out.push(Violation {
                file: rel_path.to_string(),
                line: d.line,
                rule: "A002".to_string(),
                message: format!(
                    "cofs-lint allow({}) suppresses nothing — remove the stale escape",
                    d.rule
                ),
            });
        }
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FilePolicy;

    fn sim_policy() -> FilePolicy {
        FilePolicy::for_path("crates/core/src/x.rs", false)
    }

    fn rules_of(src: &str) -> Vec<String> {
        analyze_source("crates/core/src/x.rs", src, sim_policy(), &BTreeSet::new())
            .into_iter()
            .map(|v| v.rule)
            .collect()
    }

    // ---- D001 ----------------------------------------------------------

    #[test]
    fn d001_instant_now_fires() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(rules_of(src), vec!["D001"]);
    }

    #[test]
    fn d001_system_time_and_std_time_import() {
        let src = "use std::time::Duration;\nfn f() { let t = SystemTime::now(); }";
        let r = rules_of(src);
        assert_eq!(r, vec!["D001", "D001"]);
    }

    #[test]
    fn d001_exempt_in_time_module() {
        let p = FilePolicy::for_path("crates/simcore/src/time.rs", false);
        let v = analyze_source(
            "crates/simcore/src/time.rs",
            "use std::time::Duration;",
            p,
            &BTreeSet::new(),
        );
        assert!(v.is_empty());
    }

    // ---- D002 ----------------------------------------------------------

    #[test]
    fn d002_thread_rng_and_rand_random() {
        let src = "fn f() { let a = thread_rng(); let b: u8 = rand::random(); }";
        assert_eq!(rules_of(src), vec!["D002", "D002"]);
    }

    #[test]
    fn d002_simcore_rng_is_fine() {
        let src = "fn f() { let mut r = simcore::rng::SimRng::seeded(7); }";
        assert!(rules_of(src).is_empty());
    }

    // ---- D003 ----------------------------------------------------------

    #[test]
    fn d003_field_iteration_fires() {
        let src = "
            struct S { leases: HashMap<u64, u64> }
            impl S { fn f(&self) -> u64 { self.leases.keys().sum() } }
        ";
        assert_eq!(rules_of(src), vec!["D003"]);
    }

    #[test]
    fn d003_let_binding_and_for_loop() {
        let src = "
            fn f() {
                let mut m = HashMap::new();
                m.insert(1, 2);
                for (k, v) in &m { println!(\"{k}{v}\"); }
            }
        ";
        assert_eq!(rules_of(src), vec!["D003"]);
    }

    #[test]
    fn d003_values_drain_retain() {
        let src = "
            struct S { m: HashMap<u64, u64>, s: HashSet<u64> }
            impl S {
                fn f(&mut self) {
                    let _ = self.m.values().count();
                    self.m.retain(|_, v| *v > 0);
                    for x in self.s.drain() { let _ = x; }
                }
            }
        ";
        assert_eq!(rules_of(src), vec!["D003", "D003", "D003"]);
    }

    #[test]
    fn d003_type_nesting_a_hash_map_is_recorded() {
        let src = "
            struct S { per_dir: Vec<Option<HashMap<String, u64>>> }
            impl S { fn f(&self) -> usize { self.per_dir.iter().flatten().count() } }
        ";
        assert_eq!(rules_of(src), vec!["D003"]);
    }

    #[test]
    fn d003_alias_named_like_a_hash_map_is_recorded() {
        let src = "
            type FxHashMap<K, V> = HashMap<K, V>;
            struct S { m: FxHashMap<u64, u64> }
            impl S { fn f(&self) -> u64 { self.m.values().sum() } }
            fn g() -> usize {
                let made = simcore::hash::FxHashSet::default();
                made.iter().count()
            }
        ";
        assert_eq!(rules_of(src), vec!["D003", "D003"]);
    }

    #[test]
    fn d003_iteration_through_one_index_fires() {
        let src = "
            struct S { dirs: Vec<HashMap<String, u64>>, sizes: Vec<Vec<u64>> }
            impl S {
                fn f(&self, d: usize) -> usize { self.dirs[d as usize].keys().count() }
                fn g(&self, d: usize) -> u64 { self.sizes[d].iter().sum() }
            }
        ";
        let v = analyze_source("crates/core/src/x.rs", src, sim_policy(), &BTreeSet::new());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 4);
        assert!(
            v[0].message.contains("`dirs[…].keys()`"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn d003_struct_literal_holding_a_hash_map_is_not_the_field() {
        // `shards` holds literals with a hash map inside; it is not one.
        let src = "
            fn f() -> Net {
                Net { shards: vec![Rtts { rtts: HashMap::new(), n: 1 }] }
            }
            fn g(net: &Net) -> usize { net.shards.iter().count() }
        ";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn seeded_fixture_trips_the_aliased_nested_map_behind_an_index() {
        let path = "crates/analyze/fixtures/seeded.rs";
        let src = include_str!("../fixtures/seeded.rs");
        let policy = FilePolicy::for_path(path, true);
        let v = analyze_source(path, src, policy, &BTreeSet::new());
        assert!(
            v.iter()
                .any(|v| v.rule == "D003" && v.message.contains("`per_dir[…].keys()`")),
            "{v:?}"
        );
    }

    #[test]
    fn d003_btreemap_is_fine() {
        let src = "
            struct S { m: BTreeMap<u64, u64> }
            impl S { fn f(&self) -> usize { self.m.keys().count() } }
        ";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn d003_lookup_without_iteration_is_fine() {
        let src = "
            struct S { m: HashMap<u64, u64> }
            impl S {
                fn f(&mut self) -> Option<u64> {
                    self.m.insert(1, 2);
                    self.m.get(&1).copied()
                }
            }
        ";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn d003_relaxed_in_cfg_test_modules() {
        let src = "
            struct S { m: HashMap<u64, u64> }
            #[cfg(test)]
            mod tests {
                fn f(s: &super::S) -> usize { s.m.iter().count() }
            }
        ";
        // The field is declared outside the test module but only
        // iterated inside it.
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn d003_relaxed_in_non_sim_crates() {
        let p = FilePolicy::for_path("tests/tests/properties.rs", false);
        let src = "
            fn f() {
                let mut counts: HashMap<u64, u32> = HashMap::new();
                for (k, v) in &counts { let _ = (k, v); }
            }
        ";
        assert!(analyze_source("tests/tests/properties.rs", src, p, &BTreeSet::new()).is_empty());
    }

    // ---- D004 ----------------------------------------------------------

    #[test]
    fn d004_thread_spawn_mutex_refcell_static_mut() {
        let src = "
            static mut COUNTER: u64 = 0;
            fn f() {
                let h = std::thread::spawn(|| 1);
                let m = Mutex::new(0);
                let c = RefCell::new(0);
            }
        ";
        assert_eq!(rules_of(src), vec!["D004", "D004", "D004", "D004"]);
    }

    // ---- escapes -------------------------------------------------------

    #[test]
    fn allow_with_reason_suppresses_same_and_next_line() {
        let src = "// cofs-lint: allow(D001, calibration-only timestamp)\n\
                   fn f() { let t = Instant::now(); }";
        assert!(rules_of(src).is_empty());
        let trailing = "fn f() { let t = Instant::now(); } \
                        // cofs-lint: allow(D001, calibration-only timestamp)";
        assert!(rules_of(trailing).is_empty());
    }

    #[test]
    fn allow_without_reason_is_itself_flagged() {
        let src = "// cofs-lint: allow(D001)\nfn f() { let t = Instant::now(); }";
        let r = rules_of(src);
        // The violation stays AND the bad escape is reported.
        assert!(r.contains(&"D001".to_string()));
        assert!(r.contains(&"A001".to_string()));
    }

    #[test]
    fn allow_that_suppresses_nothing_is_flagged_stale() {
        // The code the escape covered moved away: only A002 remains.
        let src = "// cofs-lint: allow(D001, calibration-only timestamp)\n\
                   fn f() {}\n\
                   fn g() { let t = Instant::now(); }";
        assert_eq!(rules_of(src), vec!["A002", "D001"]);
        // An escape for a rule the file's policy switches off is stale
        // too: D003 does not apply outside the simulation crates.
        let src = "struct S { m: HashMap<u64, u64> }\n\
                   fn f(s: &S) -> usize {\n\
                   // cofs-lint: allow(D003, counts only)\n\
                   s.m.iter().count() }";
        let policy = FilePolicy::for_path("crates/bench/src/lib.rs", false);
        let found = analyze_source("crates/bench/src/lib.rs", src, policy, &BTreeSet::new());
        let rules: Vec<String> = found.into_iter().map(|v| v.rule).collect();
        assert_eq!(rules, vec!["A002"]);
        assert!(
            rules_of(src).is_empty(),
            "under D003 the same escape is live"
        );
    }

    #[test]
    fn allow_wrong_rule_does_not_suppress() {
        let src = "// cofs-lint: allow(D002, wrong rule)\n\
                   fn f() { let t = Instant::now(); }";
        assert!(rules_of(src).contains(&"D001".to_string()));
    }

    #[test]
    fn malformed_directive_is_flagged() {
        let src = "// cofs-lint: allow D001 no parens";
        assert_eq!(rules_of(src), vec!["A001"]);
    }

    #[test]
    fn doc_comment_prose_is_not_a_directive() {
        let src = "//! Escape with `cofs-lint: allow(RULE, reason)`.\n\
                   /// Mentions cofs-lint: allow(D001, prose) in docs.\n\
                   fn f() {}";
        assert!(rules_of(src).is_empty());
    }

    /// `holders` is a hash-map field declared in a sibling file.
    fn holders_rules(body: &str) -> Vec<String> {
        let names = BTreeSet::from(["holders".to_string()]);
        let src = format!("fn f(&self) {{ {body} }}");
        analyze_source("crates/core/src/x.rs", &src, sim_policy(), &names)
            .into_iter()
            .map(|v| v.rule)
            .collect()
    }

    #[test]
    fn d003_local_typed_without_a_hash_table_shadows_the_field_name() {
        let typed = "let holders: BTreeSet<u64> = BTreeSet::new(); \
                     for h in &holders {} holders.iter().count();";
        assert!(holders_rules(typed).is_empty());
        let built = "let mut holders = BTreeSet::new(); holders.iter().count();";
        assert!(holders_rules(built).is_empty());
    }

    #[test]
    fn d003_field_receiver_still_fires_beside_a_shadowing_local() {
        let src = "let holders: Vec<u64> = Vec::new(); \
                   holders.iter().count(); self.holders.keys().count();";
        assert_eq!(holders_rules(src), vec!["D003"]);
    }

    #[test]
    fn d003_local_declared_with_a_hash_type_still_fires() {
        let typed = "let holders: FxHashSet<u64> = make(); holders.iter().count();";
        assert_eq!(holders_rules(typed), vec!["D003"]);
        // The innermost binding decides.
        let nested = "let holders: Vec<u64> = Vec::new(); \
                      { let holders = HashSet::new(); for h in &holders {} }";
        assert_eq!(holders_rules(nested), vec!["D003"]);
    }

    #[test]
    fn d003_shadow_ends_at_its_closing_brace() {
        let src = "fn f() {\n\
                   { let holders: Vec<u64> = Vec::new(); holders.iter().count(); }\n\
                   holders.iter().count();\n\
                   }";
        let names = BTreeSet::from(["holders".to_string()]);
        let v = analyze_source("crates/core/src/x.rs", src, sim_policy(), &names);
        assert_eq!(
            v.iter()
                .map(|v| (v.line, v.rule.as_str()))
                .collect::<Vec<_>>(),
            [(3, "D003")]
        );
        // An inferred initializer shadows nothing.
        let inferred = "let holders = snapshot(); holders.iter().count();";
        assert_eq!(holders_rules(inferred), vec!["D003"]);
    }

    #[test]
    fn crate_wide_names_catch_cross_file_field_iteration() {
        // `dirty_attr` is declared HashSet in a sibling file; this file
        // only iterates it through an accessor.
        let mut names = BTreeSet::new();
        names.insert("dirty_attr".to_string());
        let src = "fn f(fs: &mut Pfs) { let v: Vec<u64> = \
                   fs.cache_of(n).dirty_attr.iter().copied().collect(); }";
        let v = analyze_source("crates/core/src/x.rs", src, sim_policy(), &names);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "D003");
        // Without the crate-wide set there is nothing to match.
        assert!(
            analyze_source("crates/core/src/x.rs", src, sim_policy(), &BTreeSet::new()).is_empty()
        );
    }

    #[test]
    fn patterns_inside_strings_do_not_fire() {
        let src = r##"
            fn f() -> &'static str {
                let msg = "never call Instant::now or thread_rng here";
                let raw = r#"Mutex<RefCell<HashMap>> for x in map.iter()"#;
                msg
            }
        "##;
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn diagnostics_carry_file_line_rule() {
        let src = "fn f() {\n let t = Instant::now();\n}";
        let v = analyze_source("crates/core/src/x.rs", src, sim_policy(), &BTreeSet::new());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
        assert!(v[0].to_string().split(':').count() >= 4);
        assert!(v[0]
            .to_string()
            .starts_with("crates/core/src/x.rs:2: D001:"));
    }
}
