//! Load-adaptive ("elastic") namespace partitioning.
//!
//! The static policies each fail on skew in their own way:
//! [`ShardPolicy::Hash`] pins a hot directory's whole entry set to one
//! shard forever, and [`ShardPolicy::Subtree`] collapses entire tenant
//! trees onto single shards. [`ElasticPolicy`] starts exactly where
//! hash routing starts — every directory *homed* by the same parent
//! hash — and then adapts:
//!
//! - **Splitting** (GIGA+-style incremental hashing): per directory,
//!   the policy counts observed operations in fixed virtual-time
//!   windows. When a window closes above
//!   [`ElasticConfig::split_threshold`] *per current bucket* (the
//!   GIGA+ overflow rule), the directory's hottest shard measures
//!   above the cluster-mean CPU busy time accrued during that window
//!   by [`ElasticConfig::split_skew_pct`], *and* the directory's own
//!   estimated work is what makes that shard hot
//!   ([`ElasticConfig::split_contrib_pct`]) — rate says hot,
//!   window-local utilization says imbalanced, attribution says this
//!   directory is the cause — the directory's dentry space doubles
//!   from `2^k`
//!   to `2^(k+1)` hash buckets; the new sibling buckets are placed on
//!   the shards hosting the *fewest buckets*, window-local CPU busy
//!   time breaking ties toward the coldest, so rebalancing follows
//!   measured utilization without letting directories that split in
//!   the same instant pile their siblings onto one cold shard. A name
//!   routes to bucket [`bucket_hash`]`(name) & (2^k - 1)` —
//!   deterministic, radix-extendible, no ambient randomness.
//! - **Lazy migration back**: when a window closes at or below
//!   [`ElasticConfig::merge_threshold`], one split level is undone and
//!   the dying buckets' entries migrate home. A fully cooled directory
//!   converges back to single-shard affinity, which is what makes
//!   rename 2PCs (and their `two_phase` counters) drop after the
//!   hotspot moves on.
//! - **Never free**: every split or merge yields an [`ElasticEvent`]
//!   whose [`ShardTransfer`]s the cluster prices as real work — a row
//!   scan on the source shard, a cross-shard hop, and a journal append
//!   plus group-commit apply on the destination
//!   ([`crate::mds_cluster::MdsCluster::observe_elastic`]). Migration
//!   traffic queues on the same shard CPUs every RPC queues on.
//!
//! Everything is driven by *virtual* time carried on the observed
//! operations, so replays are byte-identical; with splitting frozen
//! ([`ElasticConfig::frozen`]) the policy is bit-for-bit hash routing.
//!
//! [`ShardPolicy::Hash`]: crate::mds_cluster::ShardPolicy::Hash
//! [`ShardPolicy::Subtree`]: crate::mds_cluster::ShardPolicy::Subtree

use crate::mds_cluster::{hash_shard, ShardId};
use simcore::hash::FxHashMap;
use simcore::rng::stable_hash;
use simcore::time::{SimDuration, SimTime};
use vfs::path::VPath;

/// The radix hash a dentry name routes by: bucket `i` of a directory
/// split to depth `k` owns the names with `bucket_hash(name) & (2^k -
/// 1) == i`.
///
/// [`stable_hash`] (FNV-1a) alone is not usable here: its last step is
/// a multiply, so `h mod 2^k` depends only on the input bytes mod
/// `2^k` — names differing in one character by a multiple of 4 (`f0`
/// vs `r0`) would collide in every ≤4-bucket table. The splitmix64
/// finalizer folds the well-mixed high bits down so the masked low
/// bits actually partition the names.
pub fn bucket_hash(name: &str) -> u64 {
    let mut h = stable_hash(name.as_bytes());
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Knobs of the elastic policy, carried inside
/// [`crate::mds_cluster::ShardPolicy::Elastic`] on
/// [`crate::config::CofsConfig::shard_policy`].
/// [`crate::config::CofsConfig::with_elastic`] is the opt-in; these
/// defaults only shape how eagerly an elastic cluster adapts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElasticConfig {
    /// Observed operations per window *per bucket* at which a
    /// directory's dentry space doubles to the next power of two of
    /// shards. The per-bucket normalization (`ops >> depth`) is the
    /// GIGA+ overflow rule: a depth-`k` table already absorbs the rate
    /// that justified depth `k`, so only a doubling of observed demand
    /// argues for depth `k + 1` — without it a capacity-bound hot
    /// directory re-triggers on every window and splits cascade
    /// straight to [`Self::max_depth`].
    pub split_threshold: u64,
    /// Observed operations per window at or below which a split
    /// directory gives one level back and migrates entries home.
    pub merge_threshold: u64,
    /// Virtual-time length of one observation window per directory.
    pub window: SimDuration,
    /// Maximum split depth `k`: a directory spreads over at most `2^k`
    /// buckets.
    pub max_depth: u32,
    /// Skew gate on splits, as a percentage of the mean per-shard CPU
    /// busy time accrued during the closing window: a hot directory
    /// only splits while its hottest bucket shard carries at least
    /// this share of the mean (150 = hottest ≥ 1.5× mean). Splitting a
    /// hot directory off an *already balanced* shard buys no
    /// parallelism but still pays the migration, so rate alone must
    /// not trigger it; the margin sits above the transient wobble that
    /// migration lumps themselves inject into a single window.
    ///
    /// The requirement *doubles per split level* (`pct × 2^depth`):
    /// each level doubles the clients' session fan-out and re-migrates
    /// the rows, so the evidence must double to pay for it. The
    /// achievable hottest/mean ratio is bounded by the shard count,
    /// which caps depth structurally — closed-loop storms that merely
    /// saturate balanced shards stop after one split, a lone hot
    /// tenant on an idle cluster keeps going. With no load measured
    /// yet the gate is open.
    pub split_skew_pct: u64,
    /// Attribution gate on splits: the window work estimated for the
    /// directory's buckets *on its hottest shard* (observed ops scaled
    /// by the share of buckets living there, times the measured per-op
    /// service time) must be at least this percentage of that shard's
    /// window-local busy time (50 = the directory is at least half of
    /// what makes that shard hot). Without it, one overloaded shard
    /// opens the skew gate for *every* directory holding a bucket
    /// there, and splitting the cold co-tenants pays migrations
    /// without offloading the hotspot.
    pub split_contrib_pct: u64,
    /// Headroom gate on splits: the cluster-mean utilization over the
    /// closing window (total per-shard busy delta against `shards ×`
    /// the window horizon) must be *at most* this percentage. Splitting
    /// moves work to other shards; when every shard is already near
    /// saturation there is no spare capacity to capture, and a deeper
    /// table only buys more per-client session establishments and
    /// migration churn. This is what stops a capacity-bound storm from
    /// cascading past the depth at which it saturates the cluster.
    pub headroom_pct: u64,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        // The observable per-directory rate is closed-loop-bounded by
        // what the home shard can serve in a window (window /
        // mds_service ≈ 50 ops at the defaults), so the split
        // threshold must sit *below* shard capacity: a directory that
        // alone fills half a shard's window is hot enough to spread.
        ElasticConfig {
            split_threshold: 24,
            merge_threshold: 2,
            window: SimDuration::from_millis(4),
            max_depth: 4,
            split_skew_pct: 150,
            split_contrib_pct: 50,
            headroom_pct: 80,
        }
    }
}

impl ElasticConfig {
    /// A config whose split threshold is unreachable: the policy then
    /// never reconfigures and routes bit-for-bit like
    /// [`crate::mds_cluster::ShardPolicy::Hash`] (the regression pin).
    pub fn frozen() -> Self {
        ElasticConfig {
            split_threshold: u64::MAX,
            ..ElasticConfig::default()
        }
    }
}

/// What a split or merge did to a directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElasticEventKind {
    /// The dentry space doubled onto additional shards.
    Split,
    /// One split level was undone; entries migrated back.
    Merge,
}

/// One batch of dentry rows moving between two shards as part of a
/// split or merge — the unit of migration work the cluster prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTransfer {
    /// Shard the rows leave.
    pub from: ShardId,
    /// Shard the rows land on.
    pub to: ShardId,
    /// Dentry rows moved (at least one: even a near-empty bucket costs
    /// a marker row, so reconfiguration is never free).
    pub rows: u64,
}

/// A reconfiguration decision closed out of one observation window,
/// returned by [`ElasticPolicy::rebalance`] for the cluster to cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElasticEvent {
    /// The directory whose bucket table changed.
    pub dir: VPath,
    /// The directory's home shard (bucket 0, the hash-routing home).
    pub home: ShardId,
    /// Split or merge.
    pub kind: ElasticEventKind,
    /// Split depth *after* the event.
    pub depth: u32,
    /// The row movements the event requires (same-shard and empty
    /// movements are elided).
    pub transfers: Vec<ShardTransfer>,
}

/// Per-directory adaptive state: the current bucket table and the open
/// observation window.
#[derive(Debug, Clone)]
struct DirState {
    /// Current split depth `k`; `buckets.len() == 2^k`.
    depth: u32,
    /// Bucket `i` owns names with `bucket_hash(name) & (2^k - 1) == i`.
    /// Bucket 0 is always the directory's home shard.
    buckets: Vec<ShardId>,
    /// When the open observation window started.
    window_start: SimTime,
    /// Operations observed in the open window.
    ops: u64,
    /// Per-shard cumulative busy time as of this directory's last
    /// window close. The next close differences against it, so the
    /// skew gate and the cold-shard ranking see only the load accrued
    /// *during* the window — cumulative history would keep a
    /// once-loaded home shard looking hot forever and cascade splits
    /// to [`ElasticConfig::max_depth`].
    last_loads: Vec<SimDuration>,
}

/// The load-adaptive shard policy (see the module docs).
///
/// # Examples
///
/// ```
/// use cofs::elastic::{ElasticConfig, ElasticPolicy};
/// use cofs::mds_cluster::ShardPolicy;
/// use vfs::path::vpath;
///
/// // Before any split, routing is exactly hash-by-parent.
/// let p = ElasticPolicy::new(4, ElasticConfig::default());
/// let h = ShardPolicy::hash(4);
/// assert_eq!(p.shard_of(&vpath("/d/f")), h.shard_of(&vpath("/d/f")));
/// assert_eq!(p.depth_of(&vpath("/d")), 0);
/// ```
#[derive(Debug, Clone)]
pub struct ElasticPolicy {
    shards: usize,
    cfg: ElasticConfig,
    /// Observed directories, probed by path on every routed op.
    dirs: FxHashMap<VPath, DirState>,
    /// How many buckets (homes and split siblings) each shard
    /// currently hosts. Sibling placement ranks shards
    /// least-occupied-first with measured coldness as the tiebreak:
    /// load deltas are sampled per directory at *its* window close, so
    /// directories splitting within the same instant would all see
    /// the same "coldest" shard and pile their siblings onto it —
    /// the occupancy count is updated synchronously and keeps
    /// concurrent splits spread.
    bucket_counts: Vec<u64>,
}

impl ElasticPolicy {
    /// Creates the policy for `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize, cfg: ElasticConfig) -> Self {
        assert!(shards > 0, "need at least one shard");
        ElasticPolicy {
            shards,
            cfg,
            dirs: FxHashMap::default(),
            bucket_counts: vec![0; shards],
        }
    }

    /// The knobs this policy runs under.
    pub fn config(&self) -> &ElasticConfig {
        &self.cfg
    }

    /// The directory's home shard — the
    /// [`crate::mds_cluster::ShardPolicy::Hash`] formula, so an unsplit
    /// elastic namespace routes bit-for-bit like the static hash
    /// policy.
    fn home(&self, dir: &str) -> ShardId {
        hash_shard(dir, self.shards)
    }

    /// Current split depth of `dir` (0 = unsplit, single home shard).
    pub fn depth_of(&self, dir: &VPath) -> u32 {
        self.dirs.get(dir).map_or(0, |st| st.depth)
    }

    /// Records one observed operation under `dir` (normalized path
    /// text) at virtual time `t`. Returns `true` when the directory's
    /// observation window has lapsed and [`Self::rebalance`] should be
    /// consulted. Only a directory's first observation allocates.
    ///
    /// # Panics
    ///
    /// Panics if `dir` is not an absolute path.
    pub fn record(&mut self, dir: &str, t: SimTime) -> bool {
        if let Some(st) = self.dirs.get_mut(dir) {
            st.ops += 1;
            t >= st.window_start + self.cfg.window
        } else {
            let home = self.home(dir);
            self.bucket_counts[home.0] += 1;
            self.dirs.insert(
                dir_path(dir),
                DirState {
                    depth: 0,
                    buckets: vec![home],
                    window_start: t,
                    ops: 1,
                    last_loads: Vec::new(),
                },
            );
            false
        }
    }

    /// Closes `dir`'s observation window at `t` and decides: split
    /// (window rate at or above the threshold, depth and shard count
    /// permitting), merge one level (rate at or below the merge
    /// threshold), or leave the table alone. `loads` is the
    /// *cumulative* per-shard CPU busy time; the policy differences
    /// successive observations per directory, so the skew gate and the
    /// placement ranking (new sibling buckets land on the
    /// least-occupied shards, coldest window-local load breaking ties)
    /// judge only the load accrued during the closing window.
    /// `service` is the per-op shard service time, which converts the
    /// window's op count into the directory's own estimated busy
    /// contribution for the attribution gate (see `split_gate`), and
    /// `entries` the directory's current child count, which sizes the
    /// migration. Purely virtual-time-driven and deterministic: same
    /// observation sequence, same decisions.
    pub fn rebalance(
        &mut self,
        dir: &str,
        t: SimTime,
        loads: &[SimDuration],
        service: SimDuration,
        entries: u64,
    ) -> Option<ElasticEvent> {
        let (shards, cfg) = (self.shards, self.cfg.clone());
        let counts = self.bucket_counts.clone();
        let st = self.dirs.get_mut(dir)?;
        let ops = st.ops;
        // Windows close on the first operation past the deadline, so
        // the horizon the deltas accrued over is at least one window
        // but often longer; the headroom gate sizes capacity by it.
        let horizon = if t > st.window_start {
            (t - st.window_start).max(cfg.window)
        } else {
            cfg.window
        };
        st.ops = 0;
        st.window_start = t;
        let delta: Vec<SimDuration> = loads
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                l.saturating_sub(st.last_loads.get(i).copied().unwrap_or(SimDuration::ZERO))
            })
            .collect();
        st.last_loads = loads.to_vec();
        if (ops >> st.depth.min(63)) >= cfg.split_threshold
            && st.depth < cfg.max_depth
            && shards > 1
            && split_gate(&st.buckets, &delta, ops, service, horizon, &cfg)
        {
            // Least-occupied shards first, measured coldness breaking
            // ties, shard index last for determinism.
            let mut order: Vec<usize> = (0..shards).collect();
            order.sort_by_key(|&i| {
                (
                    counts[i],
                    delta.get(i).copied().unwrap_or(SimDuration::ZERO),
                    i,
                )
            });
            let rows = (entries >> (st.depth + 1)).max(1);
            // Each bucket's new sibling walks the cold-first ranking
            // from a bucket-specific offset and takes the first shard
            // that differs from the source, so a split always spreads.
            let siblings: Vec<ShardId> = st
                .buckets
                .iter()
                .enumerate()
                .map(|(i, &from)| {
                    (0..order.len())
                        .map(|j| ShardId(order[(i + j) % order.len()]))
                        .find(|&cand| cand != from)
                        .unwrap_or(from)
                })
                .collect();
            let transfers: Vec<ShardTransfer> = st
                .buckets
                .iter()
                .zip(&siblings)
                .filter(|(from, to)| from != to)
                .map(|(&from, &to)| ShardTransfer { from, to, rows })
                .collect();
            for s in &siblings {
                self.bucket_counts[s.0] += 1;
            }
            st.buckets.extend(&siblings);
            st.depth += 1;
            Some(ElasticEvent {
                dir: dir_path(dir),
                home: st.buckets[0],
                kind: ElasticEventKind::Split,
                depth: st.depth,
                transfers,
            })
        } else if ops <= cfg.merge_threshold && st.depth > 0 {
            let keep = st.buckets.len() / 2;
            let rows = (entries >> st.depth).max(1);
            let (kept, dying) = st.buckets.split_at(keep);
            let transfers: Vec<ShardTransfer> = dying
                .iter()
                .zip(kept)
                .filter(|(from, to)| from != to)
                .map(|(&from, &to)| ShardTransfer { from, to, rows })
                .collect();
            for d in dying {
                self.bucket_counts[d.0] = self.bucket_counts[d.0].saturating_sub(1);
            }
            st.buckets.truncate(keep);
            st.depth -= 1;
            Some(ElasticEvent {
                dir: dir_path(dir),
                home: st.buckets[0],
                kind: ElasticEventKind::Merge,
                depth: st.depth,
                transfers,
            })
        } else {
            None
        }
    }

    /// Re-anchors every open observation window at virtual time zero
    /// (benchmark phase reset). Bucket tables survive — placement is
    /// durable state, like sessions — but counts restart so the first
    /// post-reset window measures only post-reset load.
    pub fn reset_time(&mut self) {
        // cofs-lint: allow(D003, resets each window alike; order-free)
        for st in self.dirs.values_mut() {
            st.window_start = SimTime::ZERO;
            st.ops = 0;
            st.last_loads.clear();
        }
    }
}

impl ElasticPolicy {
    /// Number of shards this policy routes across.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The shard owning `path`: the bucket its name hashes to when its
    /// parent is split, the parent's home shard otherwise.
    pub fn shard_of(&self, path: &VPath) -> ShardId {
        let dir = path.parent_str().unwrap_or("/");
        match (self.dirs.get(dir), path.file_name()) {
            (Some(st), Some(name)) if st.depth > 0 => {
                let mask = (1u64 << st.depth) - 1;
                st.buckets[(bucket_hash(name) & mask) as usize]
            }
            _ => self.home(dir),
        }
    }

    /// The shard charged for listing `dir`: the directory's own row
    /// (and the authoritative entry count) stay on its home shard
    /// however far its dentries spread.
    pub fn shard_of_entries(&self, dir: &VPath) -> ShardId {
        self.home(dir.as_str())
    }
}

/// The owned path of an observed directory's text, built only when the
/// policy first keeps the directory or reports an event on it.
fn dir_path(dir: &str) -> VPath {
    VPath::new(dir).expect("observed directories are absolute paths")
}

/// The utilization gates on splitting, judged on window-local load:
///
/// - **Headroom**: the cluster-mean utilization over the window
///   horizon stays at or below [`ElasticConfig::headroom_pct`]. A
///   split *moves* work; once every shard is near saturation there is
///   nowhere to move it, and deeper tables only multiply per-client
///   session establishments and migration churn — this is the brake
///   that holds a capacity-bound storm at the depth where it saturates
///   the cluster.
/// - **Skew**: the hottest of the directory's current bucket shards
///   carries at least [`ElasticConfig::split_skew_pct`] percent of the
///   mean per-shard load. A directory whose shards sit at or below the
///   cluster mean gains no parallelism from splitting — only the
///   migration bill — so rate alone must not deepen it.
/// - **Attribution**: the directory's own estimated window work
///   (`ops × service`) is at least
///   [`ElasticConfig::split_contrib_pct`] percent of that hottest
///   shard's load, so the split actually removes what makes the shard
///   hot instead of shuffling a cold co-tenant around.
///
/// With no load measured yet there is no evidence against splitting,
/// so the gate is open.
fn split_gate(
    buckets: &[ShardId],
    loads: &[SimDuration],
    ops: u64,
    service: SimDuration,
    horizon: SimDuration,
    cfg: &ElasticConfig,
) -> bool {
    let total: u128 = loads.iter().map(|d| d.as_nanos() as u128).sum();
    if total == 0 || loads.is_empty() {
        return true;
    }
    let capacity = loads.len() as u128 * horizon.as_nanos() as u128;
    if total * 100 > capacity * u128::from(cfg.headroom_pct) {
        return false;
    }
    let load_of = |b: &ShardId| {
        loads
            .get(b.0)
            .copied()
            .unwrap_or(SimDuration::ZERO)
            .as_nanos() as u128
    };
    let hot = match buckets.iter().max_by_key(|b| (load_of(b), b.0)) {
        Some(&b) => b,
        None => return true,
    };
    let hottest = load_of(&hot);
    // The skew requirement doubles with each split level (buckets.len()
    // = 2^depth): every level doubles the clients' session fan-out and
    // re-migrates the rows, so the imbalance evidence must double to
    // pay for it. Since the achievable hottest/mean ratio is bounded by
    // the shard count, this caps depth structurally — a storm that
    // merely saturates balanced shards (ratio ~2) stops after its first
    // split, while a lone hot tenant on an otherwise idle cluster
    // (ratio ~shards) keeps deepening until it has spread.
    let skew_req = u128::from(cfg.split_skew_pct) * buckets.len() as u128;
    let skewed = hottest * 100 * loads.len() as u128 >= total * skew_req;
    // The directory's ops spread evenly over its buckets, so its work
    // on the hot shard scales with how many of its buckets sit there.
    let here = buckets.iter().filter(|b| **b == hot).count() as u128;
    let contribution = u128::from(ops) * here * service.as_nanos() as u128;
    skewed
        && contribution * 100 >= hottest * u128::from(cfg.split_contrib_pct) * buckets.len() as u128
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mds_cluster::ShardPolicy;
    use vfs::path::vpath;

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    /// Per-op service time handed to `rebalance` in tests: saturate's
    /// thousands of ops estimate far more window work than any load
    /// vector below, so the attribution gate stays out of the way
    /// unless a test drives it explicitly.
    const SVC: SimDuration = SimDuration::from_micros(77);

    /// Drives `dir` hot enough (and long enough) to close a window:
    /// 3000 ops at 2 µs spacing span 6 ms, past the default window.
    fn saturate(p: &mut ElasticPolicy, dir: &VPath, t0: SimTime, ops: u64) -> bool {
        let mut due = false;
        for i in 0..ops {
            due = p.record(dir.as_str(), t0 + SimDuration::from_micros(2 * i));
        }
        due
    }

    #[test]
    fn unsplit_routing_is_hash_by_parent_bit_for_bit() {
        let p = ElasticPolicy::new(8, ElasticConfig::frozen());
        let h = ShardPolicy::hash(8);
        for s in ["/a/b/c", "/a/b", "/x", "/", "/deep/er/still/more"] {
            let path = vpath(s);
            assert_eq!(p.shard_of(&path), h.shard_of(&path), "{s}");
            assert_eq!(p.shard_of_entries(&path), h.shard_of_entries(&path));
        }
    }

    #[test]
    fn frozen_policy_never_splits() {
        let mut p = ElasticPolicy::new(8, ElasticConfig::frozen());
        let dir = vpath("/hot");
        let mut events = 0;
        for w in 0..20u64 {
            if saturate(&mut p, &dir, ms(10 * w), 500) {
                let ev = p.rebalance(dir.as_str(), ms(10 * w + 5), &[], SVC, 1000);
                events += ev.into_iter().count();
            }
        }
        assert_eq!(events, 0, "frozen threshold must never split");
        assert_eq!(p.depth_of(&dir), 0);
    }

    #[test]
    fn hot_window_splits_and_spreads_names() {
        let mut p = ElasticPolicy::new(8, ElasticConfig::default());
        let dir = vpath("/hot");
        assert!(saturate(&mut p, &dir, SimTime::ZERO, 3000));
        let loads = vec![SimDuration::ZERO; 8];
        let ev = p
            .rebalance(dir.as_str(), ms(3), &loads, SVC, 256)
            .expect("must split");
        assert_eq!(ev.kind, ElasticEventKind::Split);
        assert_eq!(ev.depth, 1);
        assert_eq!(p.depth_of(&dir), 1);
        // Each transfer moves half the entries off the home bucket.
        for tr in &ev.transfers {
            assert_eq!(tr.rows, 128);
        }
        // Names now spread across more than one shard.
        let mut seen = std::collections::BTreeSet::new();
        // Two more splits reach depth 3 = 8 buckets.
        for w in 2..4u64 {
            assert!(saturate(&mut p, &dir, ms(3 * w), 3000));
            p.rebalance(dir.as_str(), ms(3 * w + 3), &loads, SVC, 256)
                .expect("still hot");
        }
        assert_eq!(p.depth_of(&dir), 3);
        for i in 0..64 {
            seen.insert(p.shard_of(&vpath(&format!("/hot/f{i}"))));
        }
        assert!(seen.len() >= 4, "64 names over 8 buckets: {seen:?}");
        // Sibling dirs are untouched.
        let h = ShardPolicy::hash(8);
        assert_eq!(p.shard_of(&vpath("/cold/f")), h.shard_of(&vpath("/cold/f")));
    }

    #[test]
    fn split_targets_coldest_shards_first() {
        let mut p = ElasticPolicy::new(4, ElasticConfig::default());
        let dir = vpath("/hot");
        assert!(saturate(&mut p, &dir, SimTime::ZERO, 3000));
        let home = p.shard_of_entries(&dir);
        // Every shard busy, the home busiest, one shard idle — and the
        // cluster as a whole well under the headroom ceiling, so only
        // the skew (not the saturation brake) is in play.
        let mut loads = vec![SimDuration::from_micros(500); 4];
        loads[home.0] = SimDuration::from_millis(3);
        let cold = ShardId((home.0 + 2) % 4);
        loads[cold.0] = SimDuration::ZERO;
        let ev = p
            .rebalance(dir.as_str(), ms(3), &loads, SVC, 64)
            .expect("must split");
        assert_eq!(ev.transfers.len(), 1);
        assert_eq!(ev.transfers[0].from, home);
        assert_eq!(ev.transfers[0].to, cold, "coldest shard wins");
    }

    #[test]
    fn balanced_load_never_splits() {
        let mut p = ElasticPolicy::new(4, ElasticConfig::default());
        let dir = vpath("/hot");
        // Every shard accrues equal busy time each window (loads are
        // cumulative, like the cluster's counters): rate says hot,
        // utilization says nothing to gain — the skew gate must hold
        // the split back, window after window.
        let mut loads = vec![SimDuration::ZERO; 4];
        let mut events = 0;
        for w in 0..4u64 {
            for l in &mut loads {
                *l += SimDuration::from_millis(10);
            }
            assert!(saturate(&mut p, &dir, ms(10 * w), 3000));
            let ev = p.rebalance(dir.as_str(), ms(10 * w + 7), &loads, SVC, 256);
            events += ev.into_iter().count();
        }
        assert_eq!(events, 0, "balanced shards must not split");
        assert_eq!(p.depth_of(&dir), 0);
        // The same rate with the home shard clearly over the mean
        // *within the window* splits immediately.
        let home = p.shard_of_entries(&dir);
        for (i, l) in loads.iter_mut().enumerate() {
            *l += SimDuration::from_millis(if i == home.0 { 20 } else { 5 });
        }
        assert!(saturate(&mut p, &dir, ms(100), 3000));
        assert!(p
            .rebalance(dir.as_str(), ms(107), &loads, SVC, 256)
            .is_some());
        assert_eq!(p.depth_of(&dir), 1);
    }

    #[test]
    fn saturated_cluster_never_deepens() {
        let mut p = ElasticPolicy::new(4, ElasticConfig::default());
        let dir = vpath("/hot");
        assert!(saturate(&mut p, &dir, SimTime::ZERO, 3000));
        let home = p.shard_of_entries(&dir);
        // Strong skew toward the home shard — but every shard is near
        // its window capacity, so splitting has nowhere to move work:
        // the headroom brake must hold even though the skew gate alone
        // would open.
        let mut loads = vec![SimDuration::from_millis(3); 4];
        loads[home.0] = SimDuration::from_millis(7);
        assert!(
            p.rebalance(dir.as_str(), ms(4), &loads, SVC, 256).is_none(),
            "no headroom, no split"
        );
        assert_eq!(p.depth_of(&dir), 0);
        // The same skew with the rest of the cluster now idle (their
        // cumulative busy unchanged, so their window deltas are zero)
        // splits immediately.
        let mut loads2 = loads.clone();
        loads2[home.0] = loads[home.0] + SimDuration::from_millis(3);
        assert!(saturate(&mut p, &dir, ms(10), 3000));
        assert!(p
            .rebalance(dir.as_str(), ms(16), &loads2, SVC, 256)
            .is_some());
        assert_eq!(p.depth_of(&dir), 1);
    }

    #[test]
    fn cold_windows_merge_back_to_home() {
        let mut p = ElasticPolicy::new(8, ElasticConfig::default());
        let dir = vpath("/hot");
        let loads = vec![SimDuration::ZERO; 8];
        for w in 0..2u64 {
            assert!(saturate(&mut p, &dir, ms(3 * w), 3000));
            p.rebalance(dir.as_str(), ms(3 * w + 3), &loads, SVC, 64)
                .unwrap();
        }
        assert_eq!(p.depth_of(&dir), 2);
        let home = p.shard_of_entries(&dir);
        // Two cold windows undo both levels, one at a time.
        let mut merges = 0;
        for w in 10..12u64 {
            assert!(
                p.record(dir.as_str(), ms(5 * w)) || {
                    p.record(dir.as_str(), ms(5 * w) + p.config().window)
                }
            );
            let ev = p
                .rebalance(dir.as_str(), ms(5 * w + 4), &loads, SVC, 64)
                .expect("cold window must merge");
            merges += usize::from(ev.kind == ElasticEventKind::Merge);
            assert_eq!(ev.home, home);
        }
        assert_eq!(merges, 2);
        assert_eq!(p.depth_of(&dir), 0);
        // Fully merged: every name routes home again.
        for i in 0..16 {
            assert_eq!(p.shard_of(&vpath(&format!("/hot/f{i}"))), home);
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let run = || {
            let mut p = ElasticPolicy::new(8, ElasticConfig::default());
            let loads: Vec<SimDuration> =
                (0..8u64).map(|i| SimDuration::from_micros(i * 7)).collect();
            let mut log = Vec::new();
            for w in 0..6u64 {
                let dir = vpath(if w % 2 == 0 { "/a" } else { "/b" });
                let ops = if w < 4 { 2000 } else { 1 };
                if saturate(&mut p, &dir, ms(3 * w), ops) {
                    if let Some(ev) = p.rebalance(dir.as_str(), ms(3 * w + 2), &loads, SVC, 100) {
                        log.push(format!("{ev:?}"));
                    }
                }
                for i in 0..32 {
                    log.push(format!("{:?}", p.shard_of(&vpath(&format!("/a/f{i}")))));
                }
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn single_shard_cluster_never_splits() {
        let mut p = ElasticPolicy::new(1, ElasticConfig::default());
        let dir = vpath("/hot");
        assert!(saturate(&mut p, &dir, SimTime::ZERO, 3000));
        assert!(p
            .rebalance(dir.as_str(), ms(3), &[SimDuration::ZERO], SVC, 64)
            .is_none());
        assert_eq!(p.shard_of(&vpath("/hot/f")), ShardId(0));
    }

    #[test]
    fn reset_time_rewinds_windows_but_keeps_buckets() {
        let mut p = ElasticPolicy::new(8, ElasticConfig::default());
        let dir = vpath("/hot");
        assert!(saturate(&mut p, &dir, SimTime::ZERO, 3000));
        p.rebalance(dir.as_str(), ms(3), &[SimDuration::ZERO; 8], SVC, 64)
            .unwrap();
        let routed: Vec<ShardId> = (0..8)
            .map(|i| p.shard_of(&vpath(&format!("/hot/f{i}"))))
            .collect();
        p.reset_time();
        assert_eq!(p.depth_of(&dir), 1, "placement survives the reset");
        let after: Vec<ShardId> = (0..8)
            .map(|i| p.shard_of(&vpath(&format!("/hot/f{i}"))))
            .collect();
        assert_eq!(routed, after);
        // The first post-reset window opens from zero: not immediately due.
        assert!(!p.record(dir.as_str(), SimTime::ZERO));
        assert!(!p.record(dir.as_str(), SimTime::ZERO + SimDuration::from_micros(10)));
    }
}
