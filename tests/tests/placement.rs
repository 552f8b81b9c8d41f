//! Golden pin of the placement driver.
//!
//! Every file COFS creates lands in the underlying directory its
//! placement policy returns, so a change to that choice moves every
//! underlying path and every GPFS directory a sweep touches. Each case
//! below drives a seeded `place()` sequence over several nodes, pids
//! and virtual parents. The small directory limits make slots retire
//! and lanes reopen fresh ones many times over. One line per case
//! records the sequence's shape plus stable hashes of the returned
//! paths and of `entries_in` for every directory used, and must match
//! `golden/placement.txt`. `PassthroughPlacement` is pinned the same
//! way.
//!
//! After an intended change to placement, regenerate the file with
//! `COFS_BLESS=1 cargo test -p cofs-tests --test placement`.

use cofs::placement::{HashedPlacement, PassthroughPlacement, PlacementPolicy};
use netsim::ids::{NodeId, Pid};
use simcore::rng::{stable_hash, SimRng};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use vfs::path::{vpath, VPath};

/// Virtual parents the cases draw from: the root, shallow and deep
/// directories, and two names that differ in one character.
fn parents() -> Vec<VPath> {
    ["/", "/shared", "/a/b/c", "/proj/run1/out", "/f0", "/r0"]
        .iter()
        .map(|p| vpath(p))
        .collect()
}

/// One hashed-placement case: `(seed, root, dir_limit, spread, nodes,
/// pids, parents used, places)`.
type Case = (u64, &'static str, u32, u32, u32, u32, usize, usize);

const HASHED: &[Case] = &[
    (1, "/.cofs", 512, 8, 1, 1, 1, 300),
    (2, "/.cofs", 4, 2, 1, 1, 1, 200),
    (3, "/.cofs", 3, 4, 4, 3, 6, 600),
    (4, "/.cofs", 8, 1, 16, 2, 3, 800),
    (5, "/", 2, 3, 3, 2, 6, 400),
    (6, "/under/deep", 5, 8, 8, 4, 4, 1000),
    (7, "/.cofs", 1, 2, 2, 2, 2, 150),
];

/// Appends the case's line; returns whether some directory filled up
/// to the limit (its slot retired).
fn hashed_line(
    out: &mut String,
    &(seed, root, limit, spread, nodes, pids, used, places): &Case,
) -> bool {
    let parents = parents();
    let mut policy = HashedPlacement::new(vpath(root), limit, spread, seed);
    let mut draw = SimRng::seed_from(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut paths = String::new();
    let mut tally: BTreeMap<VPath, u32> = BTreeMap::new();
    for i in 0..places {
        let node = NodeId(draw.below(u64::from(nodes)) as u32);
        let pid = Pid(draw.below(u64::from(pids)) as u32 + 1);
        let parent = &parents[draw.below(used as u64) as usize];
        let dir = policy
            .place(node, pid, parent.as_str(), &format!("f{i}"))
            .dir
            .clone();
        writeln!(paths, "{dir}").unwrap();
        *tally.entry(dir).or_insert(0) += 1;
    }
    let mut counts = String::new();
    let mut max_fill = 0;
    for (dir, &n) in &tally {
        let recorded = policy.entries_in(dir);
        assert_eq!(recorded, n, "{dir}: entries_in disagrees with the tally");
        assert!(n <= limit, "{dir} holds {n} > limit {limit}");
        max_fill = max_fill.max(n);
        writeln!(counts, "{dir} {recorded}").unwrap();
    }
    // Directories the policy never returned hold nothing, including
    // ones shaped like its own layout.
    for stray in [root, "/", "/.cofs/n0/h0000000000000000/d0", "/other/n0"] {
        let stray = vpath(stray);
        if !tally.contains_key(&stray) {
            assert_eq!(policy.entries_in(&stray), 0, "{stray}");
        }
    }
    writeln!(
        out,
        "hashed seed={seed} root={root} limit={limit} spread={spread} nodes={nodes} \
         pids={pids} parents={used} places={places} dirs={} max_fill={max_fill} \
         paths={:016x} counts={:016x}",
        tally.len(),
        stable_hash(paths.as_bytes()),
        stable_hash(counts.as_bytes()),
    )
    .unwrap();
    max_fill == limit
}

fn passthrough_line(out: &mut String, root: &str) {
    let mut policy = PassthroughPlacement::new(vpath(root));
    let mut paths = String::new();
    for (i, parent) in parents().iter().enumerate() {
        let dir = policy
            .place(NodeId(i as u32), Pid(1), parent.as_str(), "f")
            .dir
            .clone();
        writeln!(paths, "{dir}").unwrap();
    }
    writeln!(
        out,
        "passthrough root={root} label={} paths={:016x}",
        policy.label(),
        stable_hash(paths.as_bytes()),
    )
    .unwrap();
}

#[test]
fn placement_matches_golden() {
    let mut out = String::new();
    let mut retiring = 0;
    for case in HASHED {
        retiring += usize::from(hashed_line(&mut out, case));
    }
    // The cases must exercise what the file claims they pin.
    assert!(retiring >= 5, "only {retiring} cases retired a slot");
    for root in ["/.under", "/"] {
        passthrough_line(&mut out, root);
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/placement.txt");
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
