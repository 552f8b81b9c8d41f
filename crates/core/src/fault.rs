//! Deterministic fault injection: crash/recovery scripts, retry policy,
//! and the counters both sides keep while riding out a fault window.
//!
//! A [`FaultPlan`] is a virtual-time script of shard crashes and message
//! drops. It is **default-off**: an empty plan is never armed, and every
//! fault-aware code path branches out before doing any work, so the
//! fault-free configuration stays bit-for-bit identical to the seed path.
//! When a plan is armed, the same plan replayed against the same workload
//! produces byte-identical traces — faults fire at scripted virtual times,
//! and retry jitter comes from `simcore::rng` seeded by (node, sequence).
//!
//! The crash model (priced in `MdsCluster`):
//! - at `ShardCrash::at` the shard's fencing epoch bumps, its sessions are
//!   evicted (survivors re-pay `session_cost`), and every lease it granted
//!   is fenced — holders must revalidate;
//! - journal-acked but unapplied work survives: recovery replays it before
//!   the shard serves traffic, priced as a journal scan plus the deferred
//!   group transaction;
//! - requests arriving inside the `[crash, resume)` window are refused
//!   (fast NACK) or, for scripted message drops, time out.
//!
//! The client model (in `CofsFs`): a preflight availability wait with
//! bounded exponential backoff. Exhausted retries surface as `EIO` with an
//! honest virtual end time, so scenario drivers complete instead of
//! wedging.

use crate::mds_cluster::ShardId;
use netsim::ids::NodeId;
use simcore::prelude::*;

/// One scripted shard crash: the shard dies at `at` and begins recovery
/// `restart_after` later. Recovery work (journal scan + replay) is priced
/// on top, so the shard resumes service only once replay completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCrash {
    /// Which shard dies.
    pub shard: ShardId,
    /// Virtual time of the crash (relative to the measured phase — plans
    /// are re-armed by `reset_time`).
    pub at: SimTime,
    /// How long the process stays down before recovery begins.
    pub restart_after: SimDuration,
}

/// One scripted message-drop event: the next `count` requests sent to
/// `shard` at or after `at` vanish; the client observes a timeout
/// (`RetryConfig::timeout`) instead of a fast refusal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageDrop {
    /// Which shard the doomed requests were addressed to.
    pub shard: ShardId,
    /// Virtual time from which drops apply.
    pub at: SimTime,
    /// How many consecutive requests to drop.
    pub count: u32,
}

/// One scripted network partition: from `at` the shard is unreachable for
/// `heal_after`, but the process never dies. No fencing epoch bump, no
/// session eviction, no recovery replay — granted leases keep answering
/// locally on their holders, and requests are refused with a fast NACK
/// until the partition heals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPartition {
    /// Which shard is cut off.
    pub shard: ShardId,
    /// Virtual time the partition opens.
    pub at: SimTime,
    /// How long until connectivity heals.
    pub heal_after: SimDuration,
}

/// A deterministic, virtual-time fault script. Empty by default; an empty
/// plan is never armed and costs nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Scripted shard crashes (armed in `(at, shard)` order).
    pub crashes: Vec<ShardCrash>,
    /// Scripted message drops (consumed in `(at, shard)` order).
    pub drops: Vec<MessageDrop>,
    /// Scripted network partitions (static windows — no event processing).
    pub partitions: Vec<ShardPartition>,
}

impl FaultPlan {
    /// True when the plan schedules nothing — the fault subsystem stays
    /// disarmed and the fault-free path is bit-for-bit untouched.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.drops.is_empty() && self.partitions.is_empty()
    }

    /// Schedule a shard crash (builder style).
    pub fn crash(mut self, shard: ShardId, at: SimTime, restart_after: SimDuration) -> Self {
        self.crashes.push(ShardCrash {
            shard,
            at,
            restart_after,
        });
        self
    }

    /// Schedule a run of message drops (builder style).
    pub fn drop_messages(mut self, shard: ShardId, at: SimTime, count: u32) -> Self {
        self.drops.push(MessageDrop { shard, at, count });
        self
    }

    /// Schedule a correlated (rack-level) crash: every listed shard dies
    /// at the same instant with the same downtime. An empty shard list
    /// schedules nothing, so the plan stays empty and is never armed.
    pub fn rack(mut self, shards: &[ShardId], at: SimTime, restart_after: SimDuration) -> Self {
        for &shard in shards {
            self = self.crash(shard, at, restart_after);
        }
        self
    }

    /// Schedule a crash-loop: `count` crashes of the same shard starting
    /// at `first_at`, spaced `period` apart, each down for
    /// `restart_after`. If the scripted spacing is tighter than the
    /// downtime (plus recovery replay), the cluster clamps each flap to
    /// fire no earlier than the previous resume, so windows never
    /// overlap. `count == 0` schedules nothing.
    pub fn crash_loop(
        mut self,
        shard: ShardId,
        first_at: SimTime,
        period: SimDuration,
        restart_after: SimDuration,
        count: u32,
    ) -> Self {
        for i in 0..count {
            self = self.crash(shard, first_at + period * u64::from(i), restart_after);
        }
        self
    }

    /// Schedule a network partition (builder style).
    pub fn partition(mut self, shard: ShardId, at: SimTime, heal_after: SimDuration) -> Self {
        self.partitions.push(ShardPartition {
            shard,
            at,
            heal_after,
        });
        self
    }
}

/// Client retry/timeout/backoff policy. Only consulted while a fault plan
/// is armed; the defaults are tuned so bounded retries ride out a typical
/// scripted crash window (12 retries, backoff capped at 20ms, covers well
/// over 100ms of downtime).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// Retries after the first failure before surfacing `EIO`.
    pub max_retries: u32,
    /// First backoff delay; doubles each attempt.
    pub base_backoff: SimDuration,
    /// Cap on the exponential backoff.
    pub max_backoff: SimDuration,
    /// Jitter added on top of the capped delay, as a percentage drawn
    /// deterministically from `simcore::rng` per (node, retry-sequence).
    pub jitter_pct: u32,
    /// How long a client waits before declaring a dropped message lost.
    pub timeout: SimDuration,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_retries: 12,
            base_backoff: SimDuration::from_micros(500),
            max_backoff: SimDuration::from_millis(20),
            jitter_pct: 20,
            timeout: SimDuration::from_millis(10),
        }
    }
}

impl RetryConfig {
    /// Deterministic exponential backoff with per-node jitter.
    ///
    /// `seq` is a monotonic per-filesystem retry sequence number: seeding
    /// the jitter RNG from `(node, seq)` keeps concurrent clients
    /// de-synchronized (no retry stampede) while staying replayable.
    pub fn backoff(&self, node: NodeId, seq: u64, attempt: u32) -> SimDuration {
        let doubled = self
            .base_backoff
            .as_nanos()
            .saturating_mul(1u64 << attempt.min(20));
        let capped = doubled.min(self.max_backoff.as_nanos()).max(1);
        if self.jitter_pct == 0 {
            return SimDuration::from_nanos(capped);
        }
        let mut rng = SimRng::seed_from(stable_hash_combine(u64::from(node.0), seq));
        let jitter = rng.below(u64::from(self.jitter_pct) + 1);
        SimDuration::from_nanos(capped + capped * jitter / 100)
    }
}

/// A refused or lost request: the failure becomes known to the client at
/// `at` (a refused round trip for a down shard, a timeout for a drop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Nack {
    /// The shard that refused (or swallowed) the request.
    pub shard: ShardId,
    /// When the client learns of the failure.
    pub at: SimTime,
    /// Server-supplied earliest useful retry instant. `Some` only when
    /// post-recovery admission control is enabled: a down shard points at
    /// its scheduled resume, a token-bucket refusal at the next admission
    /// window. Clients honoring it wait out the hint instead of climbing
    /// the exponential-backoff ladder (a scheduled wait is not a failure
    /// escalation). `None` — always, for partitions and drops, since no
    /// supervisor can answer across a severed link — falls back to plain
    /// backoff, bit-for-bit the admission-off path.
    pub retry_after: Option<SimTime>,
}

/// Cluster-side fault accounting, aggregated over shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Crashes processed from the plan.
    pub crashes: u64,
    /// Requests refused because the target shard was down.
    pub nacks: u64,
    /// Requests swallowed by scripted message drops.
    pub drops: u64,
    /// Sessions evicted at crash time (survivors re-pay `session_cost`).
    pub fenced_sessions: u64,
    /// Journal-acked ops replayed during recovery.
    pub replayed_ops: u64,
    /// Journal-acked ops lost across a crash (must stay zero: the journal
    /// replay set is exactly the acked-but-unapplied window).
    pub lost_acked_ops: u64,
    /// Elastic rebalances aborted because a shard was down or fenced.
    pub elastic_aborts: u64,
    /// Crashes absorbed by promoting a hot standby instead of waiting
    /// out the scripted downtime.
    pub promotions: u64,
    /// Journal rows replayed from the replication-lag suffix at
    /// promotion (shipped-but-unacknowledged tail on the standby).
    pub lag_replayed_rows: u64,
    /// Session re-admissions deferred by post-recovery admission control.
    pub admission_defers: u64,
    /// Requests refused because the target shard was partitioned (alive
    /// but unreachable). Also counted in `nacks`.
    pub partition_nacks: u64,
    /// Total unavailability (crash → resume) summed over fault windows.
    pub downtime: SimDuration,
    /// CPU time spent on recovery (journal scan + replay).
    pub recovery_busy: SimDuration,
}

/// Client-side retry accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Failures observed (refusals + timeouts), including final ones.
    pub nacks: u64,
    /// Retries issued after a failure.
    pub retries: u64,
    /// Total backoff delay injected.
    pub backoff: SimDuration,
    /// Operations that exhausted their retry budget and surfaced `EIO`.
    pub exhausted: u64,
    /// Daemon-acked ops inside batches that exhausted retries (work the
    /// client believed submitted but the cluster never journaled).
    pub exhausted_ops: u64,
    /// Deepest backoff-ladder rung any single operation reached (attempt
    /// index of the last backoff issued) — a direct measure of convoy
    /// severity that raw retry counts hide.
    pub max_backoff_depth: u32,
}

/// Combined fault/retry summary for scenario reports. `None` on targets
/// without an armed plan, so fault-free `ScenarioResult`s stay identical.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultSummary {
    /// Crashes processed from the plan.
    pub crashes: u64,
    /// Cluster-side refusals (down-shard NACKs).
    pub nacks: u64,
    /// Scripted message drops consumed.
    pub drops: u64,
    /// Client retries issued.
    pub retries: u64,
    /// Client ops that exhausted retries and surfaced `EIO`.
    pub exhausted: u64,
    /// Journal-acked ops replayed during recovery.
    pub replayed_ops: u64,
    /// Journal-acked ops lost across a crash (gate: must be zero).
    pub lost_acked_ops: u64,
    /// Live leases fenced at crash time
    /// ([`crate::client_cache::CacheStats::fenced`]).
    pub fenced_leases: u64,
    /// Sessions evicted at crash time.
    pub fenced_sessions: u64,
    /// Elastic rebalances aborted by the fault window.
    pub elastic_aborts: u64,
    /// Crashes absorbed by standby promotion.
    pub promotions: u64,
    /// Journal rows replayed from the replication-lag suffix at promotion.
    pub lag_replayed: u64,
    /// Session re-admissions deferred by the post-recovery token bucket.
    pub admission_defers: u64,
    /// Refusals attributable to network partitions (subset of `nacks`).
    pub partition_nacks: u64,
    /// Distinct client nodes that surfaced at least one `EIO`.
    pub eio_nodes: u64,
    /// Worst per-node `EIO` count (how concentrated the damage was).
    pub max_node_exhausted: u64,
    /// Deepest backoff-ladder rung any operation reached.
    pub max_backoff_depth: u32,
    /// Availability gap (crash → resume), milliseconds.
    pub gap_ms: f64,
    /// Recovery CPU time (journal scan + replay), milliseconds.
    pub recovery_ms: f64,
    /// Retry-exhausted scripted steps (`EIO`) the scenario driver
    /// recorded.
    pub errors: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty_and_builders_fill_it() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        let plan = plan
            .crash(
                ShardId(1),
                SimTime::from_millis(50),
                SimDuration::from_millis(10),
            )
            .drop_messages(ShardId(0), SimTime::from_millis(5), 3);
        assert!(!plan.is_empty());
        assert_eq!(plan.crashes.len(), 1);
        assert_eq!(plan.drops[0].count, 3);
    }

    #[test]
    fn rack_expands_to_one_crash_per_shard() {
        let at = SimTime::from_millis(3);
        let down = SimDuration::from_millis(8);
        let plan = FaultPlan::default().rack(&[ShardId(0), ShardId(2)], at, down);
        assert_eq!(plan.crashes.len(), 2);
        assert!(plan
            .crashes
            .iter()
            .all(|c| c.at == at && c.restart_after == down));
        assert_eq!(plan.crashes[1].shard, ShardId(2));
        // An empty rack schedules nothing — the plan is never armed.
        assert!(FaultPlan::default().rack(&[], at, down).is_empty());
    }

    #[test]
    fn crash_loop_spaces_flaps_by_period() {
        let plan = FaultPlan::default().crash_loop(
            ShardId(1),
            SimTime::from_millis(2),
            SimDuration::from_millis(14),
            SimDuration::from_millis(10),
            3,
        );
        assert_eq!(plan.crashes.len(), 3);
        let ats: Vec<u64> = plan.crashes.iter().map(|c| c.at.as_millis()).collect();
        assert_eq!(ats, vec![2, 16, 30]);
        assert!(plan.crashes.iter().all(|c| c.shard == ShardId(1)));
        // A zero-count loop schedules nothing.
        assert!(FaultPlan::default()
            .crash_loop(
                ShardId(1),
                SimTime::ZERO,
                SimDuration::from_millis(1),
                SimDuration::from_millis(1),
                0,
            )
            .is_empty());
    }

    #[test]
    fn partitions_make_the_plan_nonempty() {
        let plan = FaultPlan::default().partition(
            ShardId(0),
            SimTime::from_millis(1),
            SimDuration::from_millis(5),
        );
        assert!(!plan.is_empty());
        assert_eq!(plan.partitions.len(), 1);
        assert!(plan.crashes.is_empty());
    }

    #[test]
    fn backoff_is_deterministic_and_monotone_in_attempt() {
        let r = RetryConfig::default();
        let a = r.backoff(NodeId(3), 7, 0);
        let b = r.backoff(NodeId(3), 7, 0);
        assert_eq!(a, b, "same (node, seq, attempt) must reproduce");
        // Doubling dominates jitter (jitter <= 20%, doubling is +100%).
        let base0 = r.backoff(NodeId(3), 7, 0);
        let base3 = r.backoff(NodeId(3), 7, 3);
        assert!(base3 > base0);
    }

    #[test]
    fn backoff_caps_at_max_plus_jitter() {
        let r = RetryConfig::default();
        let huge = r.backoff(NodeId(0), 0, 30);
        let cap_plus_jitter = SimDuration::from_nanos(
            r.max_backoff.as_nanos() + r.max_backoff.as_nanos() * u64::from(r.jitter_pct) / 100,
        );
        assert!(huge <= cap_plus_jitter);
        assert!(huge >= r.max_backoff);
    }

    #[test]
    fn jitter_varies_across_nodes_and_sequence() {
        let r = RetryConfig::default();
        let mut distinct = std::collections::BTreeSet::new();
        for node in 0..8u32 {
            for seq in 0..8u64 {
                distinct.insert(r.backoff(NodeId(node), seq, 2).as_nanos());
            }
        }
        assert!(
            distinct.len() > 1,
            "jitter should de-synchronize retry schedules"
        );
    }

    #[test]
    fn zero_jitter_is_pure_exponential() {
        let r = RetryConfig {
            jitter_pct: 0,
            ..RetryConfig::default()
        };
        assert_eq!(r.backoff(NodeId(0), 0, 0), r.base_backoff);
        assert_eq!(
            r.backoff(NodeId(5), 99, 1).as_nanos(),
            r.base_backoff.as_nanos() * 2
        );
    }
}
