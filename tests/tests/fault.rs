//! Fault-injection integration tests: the crash/recovery contract from
//! the client's point of view.
//!
//! Three claims are pinned here. First, the *empty* fault plan is free:
//! a stack configured with `FaultPlan::default()` must price a whole
//! storm byte-for-byte identically to a stack that never mentions
//! faults — default-off means bit-for-bit, not merely "close". Second,
//! the ack is the durability line: journal-acked mutations survive a
//! crash via recovery replay (never lost), while ops that exhausted
//! their retries surface exactly one `EIO` and leave no trace in the
//! namespace — an op completes or fails, never both. Third, a
//! *crashing* run is as replayable as a clean one: the same plan on the
//! same storm prices to the same virtual nanosecond every time.

use cofs::config::{CofsConfig, ShardPolicyKind};
use cofs::fault::{FaultPlan, RetryConfig};
use cofs::fs::CofsFs;
use cofs::mds_cluster::ShardId;
use cofs_tests::cofs_over_memfs;
use netsim::ids::NodeId;
use proptest::prelude::*;
use simcore::time::{SimDuration, SimTime};
use vfs::error::Errno;
use vfs::fs::{FileSystem, OpCtx};
use vfs::memfs::MemFs;
use vfs::path::vpath;
use vfs::types::Mode;
use workloads::scenarios::{CascadeStorm, FailoverStorm};

/// The storm stack of the failover sweep: sharded MDS plus the client
/// cache (so fencing has leases to fence), with the given plan.
fn storm_cfg(plan: FaultPlan) -> CofsConfig {
    CofsConfig::default()
        .with_shards(4, ShardPolicyKind::HashByParent)
        .with_client_cache(256, SimDuration::from_millis(50))
        .with_fault_plan(plan)
}

#[test]
fn empty_fault_plan_is_bit_for_bit_at_storm_level() {
    let storm = FailoverStorm {
        nodes: 4,
        files_per_node: 8,
        ..FailoverStorm::default()
    };
    // Same stack twice: once with no fault field ever touched, once
    // with an explicitly-empty plan. The whole ScenarioResult — every
    // latency, every per-shard counter — must match byte for byte.
    let plain = CofsConfig::default()
        .with_shards(4, ShardPolicyKind::HashByParent)
        .with_client_cache(256, SimDuration::from_millis(50));
    let a = storm.run(&mut cofs_over_memfs(plain));
    let b = storm.run(&mut cofs_over_memfs(storm_cfg(FaultPlan::default())));
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "an empty fault plan changed a fault-free run"
    );
    assert!(a.fault.is_none(), "fault-free run must report no summary");
    assert!(b.fault.is_none(), "empty plan must stay disarmed");
}

#[test]
fn crashing_storm_replays_byte_identical() {
    let plan = FaultPlan::default().crash(
        ShardId(1),
        SimTime::from_millis(5),
        SimDuration::from_millis(10),
    );
    let storm = FailoverStorm {
        nodes: 4,
        files_per_node: 8,
        ..FailoverStorm::default()
    };
    let a = storm.run(&mut cofs_over_memfs(storm_cfg(plan.clone())));
    let b = storm.run(&mut cofs_over_memfs(storm_cfg(plan)));
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "two runs of the same crashing storm diverged"
    );
    let f = a.fault.expect("armed plan must report a summary");
    assert_eq!(f.crashes, 1, "the scripted crash must fire");
    assert!(f.retries > 0, "the storm must ride the window on retries");
    assert_eq!(f.lost_acked_ops, 0, "journal-acked work is never lost");
}

#[test]
fn acked_but_unapplied_rows_replay_after_crash() {
    // Write-behind acks at journal append and applies behind the ack;
    // a crash inside that lag window forces recovery to replay the
    // acked rows. A fault-free probe of the same (deterministic) run
    // measures the window, then the real run crashes in the middle of
    // it: the replay set must be non-empty and nothing acked may be
    // lost.
    let wb_cfg = || {
        CofsConfig::default()
            .with_batching(4, SimDuration::from_millis(5), 4)
            .with_write_behind()
    };
    let run_ops = |fs: &mut CofsFs<MemFs>| {
        let ctx = OpCtx::test(NodeId(0));
        fs.mkdir(&ctx, &vpath("/d"), Mode::dir_default())
            .expect("mkdir before the crash");
        for i in 0..7 {
            let fh = fs
                .create(&ctx, &vpath(&format!("/d/f{i}")), Mode::file_default())
                .expect("create before the crash")
                .value;
            fs.close(&ctx, fh).expect("close");
        }
    };
    let mut probe = cofs_over_memfs(wb_cfg());
    run_ops(&mut probe);
    let ack_tail = probe.drain_batches().expect("batches were buffered");
    let horizon = probe.apply_horizon(ack_tail);
    assert!(horizon > ack_tail, "apply must trail the last ack");
    let crash_at = ack_tail + (horizon - ack_tail) / 2;

    let plan = FaultPlan::default().crash(ShardId(0), crash_at, SimDuration::from_millis(2));
    let mut fs = cofs_over_memfs(wb_cfg().with_fault_plan(plan));
    run_ops(&mut fs);
    // Drain the pipeline, then look again from well past recovery:
    // every acked create must still be there.
    fs.drain_batches();
    let ctx = OpCtx::test(NodeId(0));
    let late = ctx.at(SimTime::from_millis(200));
    for i in 0..7 {
        fs.stat(&late, &vpath(&format!("/d/f{i}")))
            .expect("acked create must survive the crash");
    }
    let f = fs.fault_summary().expect("armed plan");
    assert_eq!(f.crashes, 1);
    assert!(
        f.replayed_ops > 0,
        "crash inside the apply lag must force a journal replay, got {f:?}"
    );
    assert_eq!(f.lost_acked_ops, 0, "journal-acked work is never lost");
    assert!(f.recovery_ms > 0.0, "replay is priced, not free");
}

#[test]
fn scripted_drops_reach_unbatched_requests() {
    // Synchronous requests pass the same fault gate as batch flushes,
    // so a scripted drop swallows them too: the client times out,
    // retries, and every op still completes.
    let plan = FaultPlan::default().drop_messages(ShardId(0), SimTime::ZERO, 2);
    let mut fs = cofs_over_memfs(CofsConfig::default().with_fault_plan(plan));
    let ctx = OpCtx::test(NodeId(0));
    let mut t = SimTime::ZERO;
    for i in 0..3 {
        let d = vpath(&format!("/d{i}"));
        t = fs
            .mkdir(&ctx.at(t), &d, Mode::dir_default())
            .expect("mkdir completes despite the drops")
            .end;
        t = fs.stat(&ctx.at(t), &d).expect("stat completes").end;
    }
    let f = fs.fault_summary().expect("armed plan");
    assert_eq!(f.drops, 2, "both scripted drops must hit: {f:?}");
    assert!(f.retries >= 2, "each drop costs a retry: {f:?}");
    assert_eq!(f.exhausted, 0);
}

/// The write-behind storm stack of the cascade sweep, with both
/// survival knobs off.
fn cascade_cfg() -> CofsConfig {
    CofsConfig::default()
        .with_shards(4, ShardPolicyKind::HashByParent)
        .with_batching(16, SimDuration::from_millis(5), 4)
        .with_write_behind()
}

#[test]
fn empty_cascade_plan_is_bit_for_bit_even_with_knobs_on() {
    // A rack of no shards plus a zero-count crash-loop is an *empty*
    // plan: never armed. With the survival knobs on top (standby +
    // admission act only inside fault processing), the storm must
    // still price byte-for-byte like a stack that never mentions
    // faults or knobs at all.
    let storm = CascadeStorm {
        nodes: 4,
        files_per_node: 8,
        ..CascadeStorm::default()
    };
    let empty = FaultPlan::default()
        .rack(&[], SimTime::from_millis(2), SimDuration::from_millis(10))
        .crash_loop(
            ShardId(1),
            SimTime::from_millis(2),
            SimDuration::from_millis(3),
            SimDuration::from_millis(10),
            0,
        );
    assert!(empty.is_empty(), "no-op builders must compose to empty");
    let a = storm.run(&mut cofs_over_memfs(cascade_cfg()));
    let b = storm.run(&mut cofs_over_memfs(
        cascade_cfg()
            .with_standby()
            .with_admission()
            .with_fault_plan(empty),
    ));
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "an empty cascade plan (knobs on) changed a fault-free run"
    );
    assert!(b.fault.is_none(), "empty cascade plan must stay disarmed");
}

#[test]
fn cascading_storm_replays_byte_identical_with_knobs_on() {
    // The most machinery one run can exercise — a crash-loop, a
    // simultaneous rack partner, a partition, standby promotion, and
    // admission pacing — must still replay to the same virtual
    // nanosecond every time.
    let plan = FaultPlan::default()
        .crash_loop(
            ShardId(1),
            SimTime::from_millis(2),
            SimDuration::from_millis(3),
            SimDuration::from_millis(10),
            3,
        )
        .rack(
            &[ShardId(2)],
            SimTime::from_millis(2),
            SimDuration::from_millis(10),
        )
        .partition(
            ShardId(3),
            SimTime::from_millis(4),
            SimDuration::from_millis(3),
        );
    let storm = CascadeStorm {
        nodes: 4,
        files_per_node: 8,
        ..CascadeStorm::default()
    };
    let cfg = || {
        cascade_cfg()
            .with_standby()
            .with_admission()
            .with_fault_plan(plan.clone())
    };
    let a = storm.run(&mut cofs_over_memfs(cfg()));
    let b = storm.run(&mut cofs_over_memfs(cfg()));
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "two runs of the same cascading storm diverged"
    );
    let f = a.fault.expect("armed plan must report a summary");
    assert!(f.crashes >= 2, "the loop and the rack partner must fire");
    assert_eq!(
        f.promotions, f.crashes,
        "with standby on, every crash is absorbed by a promotion"
    );
    assert_eq!(f.lost_acked_ops, 0, "journal-acked work is never lost");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Unbatched ops against a crashing shard, over a swept crash
    /// time, downtime, and retry budget: every op either completes
    /// (possibly via retries) or surfaces one `EIO` — and a later look
    /// at the namespace agrees exactly with what the client was told.
    /// Nothing wedges, nothing half-happens, nothing acked is lost.
    #[test]
    fn ops_complete_or_fail_exactly_once(
        crash_us in 300u64..6_000,
        down_ms in 1u64..40,
        max_retries in 0u32..5,
    ) {
        // Crash the shard that serves the hot directory's entries, so
        // the window is actually contested whatever the hash layout.
        let victim = CofsConfig::default()
            .with_shards(2, ShardPolicyKind::HashByParent)
            .shard_policy
            .shard_of(&vpath("/d/f0"));
        let plan = FaultPlan::default().crash(
            victim,
            SimTime::from_micros(crash_us),
            SimDuration::from_millis(down_ms),
        );
        let cfg = CofsConfig::default()
            .with_shards(2, ShardPolicyKind::HashByParent)
            .with_fault_plan(plan)
            .with_retry(RetryConfig { max_retries, ..RetryConfig::default() });
        let mut fs = cofs_over_memfs(cfg);
        let ctx = OpCtx::test(NodeId(0));
        fs.mkdir(&ctx, &vpath("/d"), Mode::dir_default())
            .expect("mkdir at t=0 precedes the earliest crash");
        let mut outcomes = Vec::new();
        for i in 0..16u64 {
            let c = ctx.at(SimTime::from_micros(400 * i));
            let path = vpath(&format!("/d/f{i}"));
            match fs.create(&c, &path, Mode::file_default()) {
                Ok(fh) => {
                    fs.close(&c, fh.value).expect("close");
                    outcomes.push((path, true));
                }
                Err(e) => {
                    prop_assert!(
                        e.is(Errno::EIO),
                        "only retry exhaustion may fail a create, got {e}"
                    );
                    prop_assert!(
                        e.end().is_some(),
                        "an exhausted op must still carry its honest end time"
                    );
                    outcomes.push((path, false));
                }
            }
        }
        // Well past crash + downtime + recovery: the namespace must
        // match the acks exactly.
        let late = ctx.at(SimTime::from_millis(500));
        for (path, acked) in outcomes {
            let st = fs.stat(&late, &path);
            if acked {
                prop_assert!(st.is_ok(), "acked create vanished: {path}");
            } else {
                let e = st.expect_err("failed create must leave no trace");
                prop_assert!(e.is(Errno::ENOENT), "expected ENOENT for {path}, got {e}");
            }
        }
        let f = fs.fault_summary().expect("armed plan");
        prop_assert_eq!(f.crashes, 1);
        prop_assert_eq!(f.lost_acked_ops, 0);
    }

    /// Any bounded crash-loop against unbatched clients, admission on
    /// or off: every op still completes or fails exactly once, the
    /// namespace agrees with the acks, and nothing journal-acked is
    /// lost — no matter how often the shard flaps.
    #[test]
    fn crash_loops_keep_ops_exactly_once(
        first_us in 300u64..4_000,
        period_ms in 1u64..8,
        down_ms in 1u64..12,
        count in 1u32..4,
        admission in prop::bool::ANY,
        max_retries in 0u32..5,
    ) {
        let victim = CofsConfig::default()
            .with_shards(2, ShardPolicyKind::HashByParent)
            .shard_policy
            .shard_of(&vpath("/d/f0"));
        let plan = FaultPlan::default().crash_loop(
            victim,
            SimTime::from_micros(first_us),
            SimDuration::from_millis(period_ms),
            SimDuration::from_millis(down_ms),
            count,
        );
        let mut cfg = CofsConfig::default()
            .with_shards(2, ShardPolicyKind::HashByParent)
            .with_fault_plan(plan)
            .with_retry(RetryConfig { max_retries, ..RetryConfig::default() });
        if admission {
            cfg = cfg.with_admission();
        }
        let mut fs = cofs_over_memfs(cfg);
        let ctx = OpCtx::test(NodeId(0));
        fs.mkdir(&ctx, &vpath("/d"), Mode::dir_default())
            .expect("mkdir at t=0 precedes the earliest crash");
        let mut outcomes = Vec::new();
        for i in 0..16u64 {
            let c = ctx.at(SimTime::from_micros(400 * i));
            let path = vpath(&format!("/d/f{i}"));
            match fs.create(&c, &path, Mode::file_default()) {
                Ok(fh) => {
                    fs.close(&c, fh.value).expect("close");
                    outcomes.push((path, true));
                }
                Err(e) => {
                    prop_assert!(
                        e.is(Errno::EIO),
                        "only retry exhaustion may fail a create, got {e}"
                    );
                    outcomes.push((path, false));
                }
            }
        }
        // Past every flap, window, and admission ramp.
        let late = ctx.at(SimTime::from_millis(500));
        for (path, acked) in outcomes {
            let st = fs.stat(&late, &path);
            if acked {
                prop_assert!(st.is_ok(), "acked create vanished: {path}");
            } else {
                let e = st.expect_err("failed create must leave no trace");
                prop_assert!(e.is(Errno::ENOENT), "expected ENOENT for {path}, got {e}");
            }
        }
        let f = fs.fault_summary().expect("armed plan");
        prop_assert!(f.crashes >= 1, "at least the first flap fires");
        prop_assert_eq!(f.lost_acked_ops, 0);
    }

    /// Any bounded crash-loop against the write-behind (batched)
    /// stack, standby promotion on or off: the default retry budget
    /// rides out every flap, so every create survives — the ack is the
    /// durability line across repeated crashes and promotions, and the
    /// lost-acked canary stays zero.
    #[test]
    fn crash_loops_lose_no_acked_work_across_promotions(
        first_us in 300u64..4_000,
        period_ms in 1u64..8,
        down_ms in 1u64..12,
        count in 1u32..4,
        standby in prop::bool::ANY,
        admission in prop::bool::ANY,
    ) {
        let victim = cascade_cfg().shard_policy.shard_of(&vpath("/d/f0"));
        let plan = FaultPlan::default().crash_loop(
            victim,
            SimTime::from_micros(first_us),
            SimDuration::from_millis(period_ms),
            SimDuration::from_millis(down_ms),
            count,
        );
        let mut cfg = cascade_cfg().with_fault_plan(plan);
        if standby {
            cfg = cfg.with_standby();
        }
        if admission {
            cfg = cfg.with_admission();
        }
        let mut fs = cofs_over_memfs(cfg);
        let ctx = OpCtx::test(NodeId(0));
        fs.mkdir(&ctx, &vpath("/d"), Mode::dir_default())
            .expect("mkdir at t=0 precedes the earliest crash");
        for i in 0..16u64 {
            let c = ctx.at(SimTime::from_micros(400 * i));
            let path = vpath(&format!("/d/f{i}"));
            let fh = fs
                .create(&c, &path, Mode::file_default())
                .expect("default retry budget rides out every flap")
                .value;
            fs.close(&c, fh).expect("close");
        }
        fs.drain_batches();
        let late = ctx.at(SimTime::from_millis(500));
        for i in 0..16u64 {
            fs.stat(&late, &vpath(&format!("/d/f{i}")))
                .expect("acked create must survive every flap");
        }
        let f = fs.fault_summary().expect("armed plan");
        prop_assert!(f.crashes >= 1, "at least the first flap fires");
        if standby {
            // Standby absorbs every crash as a promotion.
            prop_assert_eq!(f.promotions, f.crashes);
        } else {
            prop_assert_eq!(f.promotions, 0);
        }
        prop_assert_eq!(f.lost_acked_ops, 0);
    }
}
