//! Replay-determinism tests: the dynamic backstop for the
//! `cofs-analyze` static pass.
//!
//! The simulator's correctness story is bit-for-bit replay: the same
//! scenario on the same configuration must price to the same virtual
//! nanosecond every time, in every process, on every platform. The
//! static lint (rule D003) bans unordered `HashMap` iteration in
//! simulation crates because Rust's per-instance hasher seeds make
//! such iteration order differ *between two runs in one process* —
//! which is exactly what these tests exercise: every `CofsFs` built
//! here owns freshly seeded hash maps, so any surviving
//! iteration-order dependence shows up as a byte-level report diff.

use cofs::config::{CofsConfig, ShardPolicyKind};
use cofs_tests::cofs_over_memfs;
use netsim::ids::{NodeId, Pid};
use proptest::prelude::*;
use simcore::time::SimDuration;
use vfs::driver::{run, Action, ClientScript};
use vfs::fs::{FileSystem, OpCtx};
use vfs::path::vpath;
use vfs::types::Mode;
use workloads::report::shard_utilization_table;
use workloads::scenarios::SharedDirStorm;
use workloads::target::BenchTarget;

/// Every subsystem on at once: sharded MDS, client metadata cache,
/// batched+pipelined RPCs, shard-side read memoization, and the
/// read-priority lane — the widest surface for order-dependent state.
fn full_stack() -> CofsConfig {
    CofsConfig::default()
        .with_shards(4, ShardPolicyKind::HashByParent)
        .with_client_cache(256, SimDuration::from_millis(50))
        .with_batching(8, SimDuration::from_millis(5), 4)
        .with_read_priority()
}

#[test]
fn mixed_storm_replays_byte_identical_within_one_process() {
    let storm = SharedDirStorm::mixed(8, 32);
    let a = storm.run(&mut cofs_over_memfs(full_stack()));
    let b = storm.run(&mut cofs_over_memfs(full_stack()));
    // The whole report — makespan, per-op means, stat tail, per-shard
    // counters, cache and batch stats — must match byte for byte.
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "two in-process runs of the same storm diverged"
    );
    // And so must the rendered shard table (what CI artifacts diff).
    assert_eq!(
        shard_utilization_table(&a.per_shard, a.makespan).render(),
        shard_utilization_table(&b.per_shard, b.makespan).render()
    );
    // Guard that the run actually exercised the full stack.
    assert!(!a.per_shard.is_empty(), "sharded MDS must be on");
    assert!(a.cache.is_some(), "client cache must be on");
    assert!(a.batch.is_some(), "batching must be on");
}

/// Builds the mini-storm's per-node scripts, *constructing* them in
/// `order` but returning them in canonical (node-index) positions, so
/// the driver input is semantically identical for every permutation.
fn storm_scripts(order: &[usize], files: usize) -> Vec<ClientScript> {
    let nodes = order.len();
    let mut scripts: Vec<Option<ClientScript>> = (0..nodes).map(|_| None).collect();
    for &n in order {
        let mut s = ClientScript::new(NodeId(n as u32), Pid(1));
        s.push(Action::Barrier);
        for i in 0..files {
            let d = (n + i / 4) % 4;
            let path = vpath(&format!("/storm/d{d}")).join(&format!("f.{n}.{i}"));
            s.push_measured(
                "create",
                Action::Create {
                    path: path.clone(),
                    mode: Mode::file_default(),
                    slot: 0,
                },
            );
            s.push(Action::Close { slot: 0 });
            s.push_measured("stat", Action::Stat(path));
        }
        scripts[n] = Some(s);
    }
    scripts
        .into_iter()
        .map(|s| s.expect("order is a permutation"))
        .collect()
}

/// One full run on a fresh stack, rendered to a canonical string:
/// makespan, every client's final clock, every latency summary, every
/// per-shard counter, and the shard table.
fn run_once(order: &[usize]) -> String {
    let mut fs = cofs_over_memfs(full_stack());
    let setup = OpCtx::test(NodeId(0));
    fs.mkdir(&setup, &vpath("/storm"), Mode::dir_default())
        .expect("setup mkdir");
    for d in 0..4 {
        fs.mkdir(&setup, &vpath(&format!("/storm/d{d}")), Mode::dir_default())
            .expect("setup mkdir");
    }
    fs.phase_reset();
    let report = run(&mut fs, storm_scripts(order, 8));
    report.expect_clean();
    let usage = fs.shard_usage();
    format!(
        "{:?} {:?} {:?}\n{usage:?}\n{}",
        report.makespan,
        report.client_end,
        report.per_label,
        shard_utilization_table(&usage, report.makespan).render()
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shuffling the order in which per-node client scripts are
    /// *constructed* (while keeping their canonical positions in the
    /// driver's script vector — dispatch ties break on position) must
    /// not change a single byte of the outcome, for any permutation.
    #[test]
    fn construction_order_never_changes_the_run(seed in 0u64..10_000) {
        let nodes = 6usize;
        let canonical: Vec<usize> = (0..nodes).collect();
        // Fisher-Yates driven by a seeded LCG (the shim has no
        // permutation strategy; ambient randomness is banned anyway).
        let mut perm = canonical.clone();
        let mut s = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        for i in (1..nodes).rev() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        prop_assert_eq!(run_once(&canonical), run_once(&perm));
    }
}
