//! Golden pin of the driver's dispatch order.
//!
//! `vfs::driver::run` always runs the client with the smallest clock
//! next, breaking clock ties by client index. On a stack with shared
//! queues the order in which clients arrive decides who waits, so any
//! change to the order shows up in the latencies. Per-label samples are
//! also stored in dispatch order, so the `RunReport` pins the order
//! itself, not only its effect.
//!
//! Each case runs seeded scripts on a 4-shard, unbatched `CofsFs` over
//! `MemFs`: from 1 to 512 clients, identical scripts (every step a clock
//! tie), barriers at seeded positions, clients that finish before
//! another's barrier, empty scripts, and failing steps (a close of an
//! empty slot fails with `EBADF` at the nominal penalty; a stat of a
//! missing name fails with `ENOENT` at the end time it carries). One
//! line per case records the report's shape and a stable hash of its
//! `Debug` rendering, which must match `golden/driver_order.txt`.
//!
//! After an intended change to the order, regenerate the file with
//! `COFS_BLESS=1 cargo test -p cofs-tests --test driver_order`.

use cofs::config::{CofsConfig, MdsNetwork, ShardPolicyKind};
use cofs::fs::CofsFs;
use netsim::ids::{NodeId, Pid};
use simcore::rng::{stable_hash, SimRng};
use simcore::time::SimDuration;
use std::fmt::Write as _;
use vfs::driver::{run, Action, ClientScript};
use vfs::fs::{FileSystem, OpCtx};
use vfs::memfs::MemFs;
use vfs::path::{vpath, VPath};
use vfs::types::{Mode, OpenFlags};

/// How a case shapes its clients' scripts.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// Every client runs its own seeded script in its own directory;
    /// about one in eight scripts is empty.
    Mixed,
    /// Every client runs the same script on the same paths, so every
    /// dispatch is a clock tie and all but one create of a name fail.
    Identical,
}

/// One seeded script of `len` steps rooted at `dir`. Barriers land at
/// seeded positions when `barriers` is set.
fn script(rng: &mut SimRng, dir: &VPath, len: usize, barriers: bool) -> Vec<(Action, bool)> {
    let mut steps = vec![(Action::Mkdir(dir.clone(), Mode::dir_default()), false)];
    let mut files: Vec<VPath> = Vec::new();
    while steps.len() < len {
        let k = steps.len();
        let pick = rng.below(if barriers { 11 } else { 10 });
        match pick {
            0 | 1 => {
                let path = dir.join(&format!("f{k}"));
                files.push(path.clone());
                steps.push((
                    Action::Create {
                        path,
                        mode: Mode::file_default(),
                        slot: 0,
                    },
                    true,
                ));
                steps.push((Action::Close { slot: 0 }, false));
            }
            2 => {
                let path = vpath("/shared").join(&format!("s{}", rng.below(64)));
                steps.push((
                    Action::Create {
                        path,
                        mode: Mode::file_default(),
                        slot: 1,
                    },
                    true,
                ));
                steps.push((Action::Close { slot: 1 }, false));
            }
            3 => match files.last() {
                Some(f) => steps.push((Action::Stat(f.clone()), true)),
                None => steps.push((Action::Stat(vpath("/shared")), true)),
            },
            4 => steps.push((Action::Stat(dir.join(&format!("missing{k}"))), true)),
            5 => steps.push((Action::Close { slot: 2 }, false)),
            6 => steps.push((Action::Readdir(dir.clone()), true)),
            7 => steps.push((Action::Utime(dir.clone()), false)),
            8 => match files.first() {
                Some(f) => steps.push((Action::OpenClose(f.clone(), OpenFlags::RDONLY), true)),
                None => steps.push((Action::Readdir(vpath("/shared")), true)),
            },
            9 => match files.pop() {
                Some(f) => steps.push((Action::Unlink(f), false)),
                None => steps.push((Action::Stat(VPath::root()), true)),
            },
            _ => steps.push((Action::Barrier, false)),
        }
    }
    steps
}

fn client(i: usize, steps: &[(Action, bool)]) -> ClientScript {
    let mut c = ClientScript::new(NodeId(i as u32), Pid(1));
    for (action, measured) in steps {
        let label = match action {
            Action::Create { .. } => "create",
            Action::Stat(_) => "stat",
            Action::Readdir(_) => "readdir",
            _ => "other",
        };
        if *measured {
            c.push_measured(label, action.clone());
        } else {
            c.push(action.clone());
        }
    }
    c
}

/// The scripts of one case.
fn scripts(
    seed: u64,
    clients: usize,
    len: usize,
    shape: Shape,
    barriers: bool,
) -> Vec<ClientScript> {
    let mut rng = SimRng::seed_from(seed);
    match shape {
        Shape::Identical => {
            let steps = script(&mut rng, &vpath("/same"), len, barriers);
            (0..clients).map(|i| client(i, &steps)).collect()
        }
        Shape::Mixed => (0..clients)
            .map(|i| {
                let mut own = rng.fork();
                if clients > 1 && own.below(8) == 0 {
                    return ClientScript::new(NodeId(i as u32), Pid(1));
                }
                // Scripts differ in length, so some clients finish
                // while others still wait at a barrier.
                let n = len / 2 + own.below(len as u64) as usize;
                let dir = vpath(&format!("/c{i}"));
                client(i, &script(&mut own, &dir, n, barriers))
            })
            .collect(),
    }
}

/// A 4-shard, unbatched COFS over the reference filesystem, with the
/// shared directory already made.
fn stack() -> CofsFs<MemFs> {
    let mut fs = CofsFs::new(
        MemFs::new(),
        CofsConfig::default().with_shards(4, ShardPolicyKind::HashByParent),
        MdsNetwork::uniform(SimDuration::from_micros(250)),
        11,
    );
    fs.mkdir(
        &OpCtx::test(NodeId(0)),
        &vpath("/shared"),
        Mode::dir_default(),
    )
    .expect("fresh namespace");
    fs
}

#[test]
fn dispatch_order_matches_golden() {
    let cases: &[(u64, usize, usize, Shape, bool)] = &[
        (1, 1, 24, Shape::Mixed, false),
        (2, 1, 24, Shape::Mixed, true),
        (3, 2, 24, Shape::Identical, false),
        (4, 2, 24, Shape::Mixed, true),
        (5, 3, 30, Shape::Mixed, true),
        (6, 5, 30, Shape::Identical, true),
        (7, 8, 30, Shape::Mixed, false),
        (8, 16, 24, Shape::Mixed, true),
        (9, 16, 24, Shape::Identical, true),
        (10, 33, 20, Shape::Mixed, true),
        (11, 64, 16, Shape::Identical, false),
        (12, 128, 16, Shape::Mixed, true),
        (13, 257, 12, Shape::Mixed, true),
        (14, 512, 10, Shape::Identical, true),
        (15, 512, 10, Shape::Mixed, true),
    ];
    let mut out = String::new();
    let mut ties = 0;
    let mut barriers = 0;
    let (mut ebadf, mut enoent_timed) = (0, 0);
    for &(seed, clients, len, shape, with_barriers) in cases {
        let scripts = scripts(seed, clients, len, shape, with_barriers);
        let steps: usize = scripts.iter().map(|s| s.steps.len()).sum();
        let empty = scripts.iter().filter(|s| s.steps.is_empty()).count();
        barriers += scripts
            .iter()
            .flat_map(|s| &s.steps)
            .filter(|s| matches!(s.action, Action::Barrier))
            .count();
        if shape == Shape::Identical && clients > 1 {
            ties += 1;
        }
        let report = run(&mut stack(), scripts);
        for e in &report.errors {
            match e.error.errno() {
                vfs::error::Errno::EBADF => ebadf += 1,
                vfs::error::Errno::ENOENT if e.error.end().is_some() => enoent_timed += 1,
                _ => {}
            }
        }
        let samples: usize = report.per_label.values().map(|s| s.count()).sum();
        let rendered = format!("{report:?}");
        writeln!(
            out,
            "seed={seed} clients={clients} shape={shape:?} barriers={with_barriers} \
             steps={steps} empty={empty} samples={samples} errors={} makespan={} \
             debug_len={} hash={:016x}",
            report.errors.len(),
            report.makespan.as_nanos(),
            rendered.len(),
            stable_hash(rendered.as_bytes()),
        )
        .unwrap();
    }
    // The cases must exercise what the file claims they pin.
    assert!(ties > 0 && barriers > 0, "ties={ties} barriers={barriers}");
    assert!(ebadf > 0, "no close of an empty slot failed");
    assert!(enoent_timed > 0, "no ENOENT carried its end time");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/driver_order.txt");
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
