//! Per-client metadata caching with lease-based coherence.
//!
//! After the metadata service was sharded (`mds_cluster`), the
//! dominant cost of stat/open-heavy workloads is the per-operation
//! client↔shard round trip — every `getattr` pays a full RTT even when
//! nothing changed. GPFS solves the same problem one level down with
//! token delegation (modeled in the `dlm` crate): a node that holds a
//! token operates on cached state until a conflicting access revokes
//! it. This module brings that idea to the COFS layer: each client
//! node keeps an attribute + directory-entry + negative-entry cache
//! whose entries are backed by *leases* granted by the owning metadata
//! shard. Reads that hit a live lease cost no RTT at all — including
//! repeated `ENOENT` probes against a negatively-cached name
//! ([`EntryKind::Negative`], the lock-file-polling pattern); mutations
//! recall the leases of every other holder, paying explicit RTT-costed
//! invalidation messages (the analogue of `dlm` token revocations).
//!
//! Semantics vs. cost: exactly like the shard split, the cache is a
//! *cost* model, never a *truth* model. Every operation is still
//! answered by the unified [`crate::mds::Mds`] namespace, so for any
//! TTL and capacity the user-visible outcome of any operation sequence
//! is bit-for-bit identical with or without the cache — only simulated
//! time and counters differ. The differential suite pins this.
//!
//! Lease state has one home, [`ClientCache`]: each `(node, kind, path)`
//! entry stores its lease's expiry, and a holder index kept in step
//! with the per-node maps answers which nodes to recall on a
//! conflicting write and which entries a crash of the granting shard
//! fences. The metadata service only prices that traffic
//! ([`crate::mds_cluster::MdsCluster::price_recall`]). One rule covers
//! every lapsed lease: **an expired lease is inert.** No recall messages
//! or drops it, even the mutator's own, and no crash fences or counts
//! it; its holder's next lookup drops it and counts an expiration. The
//! index therefore never holds more than the per-node maps do, which
//! the LRU capacity bounds, so nothing needs to prune it.
//!
//! Two deliberate fidelity limits, both conservative:
//!
//! - a lease on `/a/b/c` does not cover permission changes on the
//!   *ancestors* `/a` and `/a/b`; a hit may therefore be charged for
//!   an operation the service would deny. The outcome is still the
//!   denial (the namespace answers), only the charged latency is the
//!   optimistic one — the same staleness window a real dentry cache
//!   has;
//! - `readdir`'s atime bump on the listed directory is not treated as
//!   a conflicting write (strict atime coherence would make dentry
//!   leases self-defeating, and real systems relax it the same way).

use netsim::ids::NodeId;
use simcore::hash::FxHashMap;
use simcore::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use vfs::path::VPath;

/// What a cache entry (and its lease) covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EntryKind {
    /// The attributes of one path (`getattr`/`lookup` answers).
    Attr,
    /// The entry list of one directory (`readdir` answers).
    Dentry,
    /// The *absence* of one path (a lease-covered `ENOENT`): lock-file
    /// and output polling repeatedly `stat` names that do not exist
    /// yet, and without negative entries every probe pays a full round
    /// trip. Creating the name (create/mkdir/symlink/link/rename
    /// destination) recalls these leases like any conflicting write.
    Negative,
}

/// One lease key: which kind of state, on which virtual path.
pub type LeaseKey = (EntryKind, VPath);

/// Client-cache knobs on [`crate::config::CofsConfig`]. A config
/// without them (the default) builds no cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientCacheConfig {
    /// Maximum cached entries per client node (LRU eviction beyond
    /// this; eviction releases the lease voluntarily, at no cost).
    pub capacity: usize,
    /// Lease lifetime in *virtual* time. A hit on an expired entry is
    /// a miss that re-fetches and re-leases.
    pub lease_ttl: SimDuration,
}

/// Aggregate cache/coherence counters across all client nodes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads served from a live lease (no RPC charged).
    pub hits: u64,
    /// Reads that went to the owning shard (and granted a lease).
    pub misses: u64,
    /// Entries dropped because a conflicting mutation recalled their
    /// lease (local drops at the mutating node included) or a crash of
    /// the granting shard fenced it.
    pub invalidations: u64,
    /// Recall messages actually sent over the network (one per remote
    /// holder per recalled key — the RTT-costed coherence traffic).
    pub recall_messages: u64,
    /// Entries dropped because their lease TTL ran out.
    pub expirations: u64,
    /// Entries dropped by LRU capacity eviction (voluntary, free lease
    /// release).
    pub evictions: u64,
    /// The subset of `hits` served by negative (`ENOENT`) entries —
    /// repeated existence probes answered without a round trip.
    pub negative_hits: u64,
    /// The subset of `invalidations` dropped by crash fences: live
    /// leases whose granting shard crashed.
    pub fenced: u64,
}

impl CacheStats {
    /// Hit fraction over all lease-eligible reads (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Outcome of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// A live lease answered the read locally.
    Hit,
    /// Nothing live cached: the read goes to the owning shard.
    Miss,
}

impl Lookup {
    /// True for [`Lookup::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, Lookup::Hit)
    }
}

#[derive(Debug, Clone)]
struct Entry {
    expires: SimTime,
    last_use: u64,
}

/// Per-kind hash maps keyed by bare `VPath`, so the hot probe path is
/// one hash probe and never clones a path just to build a tuple key.
/// The only scan, the LRU victim search, takes a minimum over use
/// counters that are unique per node, so it does not depend on the
/// maps' order (lint rule D003).
#[derive(Debug, Default)]
struct NodeCache {
    attrs: FxHashMap<VPath, Entry>,
    dentries: FxHashMap<VPath, Entry>,
    negatives: FxHashMap<VPath, Entry>,
    use_seq: u64,
}

impl NodeCache {
    fn get(&self, kind: EntryKind) -> &FxHashMap<VPath, Entry> {
        match kind {
            EntryKind::Attr => &self.attrs,
            EntryKind::Dentry => &self.dentries,
            EntryKind::Negative => &self.negatives,
        }
    }

    fn map(&mut self, kind: EntryKind) -> &mut FxHashMap<VPath, Entry> {
        match kind {
            EntryKind::Attr => &mut self.attrs,
            EntryKind::Dentry => &mut self.dentries,
            EntryKind::Negative => &mut self.negatives,
        }
    }

    fn len(&self) -> usize {
        self.attrs.len() + self.dentries.len() + self.negatives.len()
    }

    /// The least-recently-used entry across all kinds (use counters
    /// are unique per node, so the minimum is unambiguous whatever the
    /// map order).
    fn lru_victim(&self) -> Option<LeaseKey> {
        self.attrs
            // cofs-lint: allow(D003, minimum of use counters unique per node)
            .iter()
            .map(|(p, e)| (EntryKind::Attr, p, e.last_use))
            .chain(
                self.dentries
                    // cofs-lint: allow(D003, minimum of use counters unique per node)
                    .iter()
                    .map(|(p, e)| (EntryKind::Dentry, p, e.last_use)),
            )
            .chain(
                self.negatives
                    // cofs-lint: allow(D003, minimum of use counters unique per node)
                    .iter()
                    .map(|(p, e)| (EntryKind::Negative, p, e.last_use)),
            )
            .min_by_key(|&(_, _, last_use)| last_use)
            .map(|(kind, path, _)| (kind, path.clone()))
    }
}

/// The per-node attribute/dentry cache of the whole client population,
/// and the only home of its lease state.
///
/// Owned by [`crate::fs::CofsFs`], which consults it before charging
/// any metadata RPC, asks it which holders a mutation recalls, and
/// fences it after each crash the cluster processes. The cache stores
/// no filesystem *state* — see the module docs for the semantics/cost
/// split.
///
/// # Examples
///
/// ```
/// use cofs::client_cache::{ClientCache, ClientCacheConfig, EntryKind};
/// use netsim::ids::NodeId;
/// use simcore::time::{SimDuration, SimTime};
/// use vfs::path::vpath;
///
/// let cfg = ClientCacheConfig {
///     capacity: 64,
///     lease_ttl: SimDuration::from_secs(1),
/// };
/// let mut cache = ClientCache::new(cfg);
/// let (n, p) = (NodeId(0), vpath("/f"));
/// assert!(!cache.lookup(n, EntryKind::Attr, &p, SimTime::ZERO).is_hit());
/// cache.insert(n, EntryKind::Attr, p.clone(), SimTime::ZERO);
/// assert!(cache.lookup(n, EntryKind::Attr, &p, SimTime::from_millis(1)).is_hit());
/// ```
#[derive(Debug)]
pub struct ClientCache {
    cfg: ClientCacheConfig,
    nodes: BTreeMap<NodeId, NodeCache>,
    /// The per-node maps inverted: which nodes hold an entry on each
    /// key. Every insert and removal updates both in the same call, so
    /// neither names an entry the other lacks. Holder sets are ordered,
    /// so recalls and fences visit holders in node order; the one scan
    /// over the keys sorts what it collects (lint rule D003).
    holders: FxHashMap<LeaseKey, BTreeSet<NodeId>>,
    stats: CacheStats,
}

impl ClientCache {
    /// Creates an empty cache with the given knobs.
    pub fn new(cfg: ClientCacheConfig) -> Self {
        ClientCache {
            cfg,
            nodes: BTreeMap::new(),
            holders: FxHashMap::default(),
            stats: CacheStats::default(),
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> &ClientCacheConfig {
        &self.cfg
    }

    /// Probes `node`'s entry for `(kind, path)` at time `now`,
    /// recording a hit or a miss. This is the only place an expired
    /// entry is dropped; it counts as both an expiration and a miss.
    pub fn lookup(&mut self, node: NodeId, kind: EntryKind, path: &VPath, now: SimTime) -> Lookup {
        let cache = self.nodes.entry(node).or_default();
        cache.use_seq += 1;
        let seq = cache.use_seq;
        let map = cache.map(kind);
        match map.get_mut(path) {
            Some(e) if e.expires > now => {
                e.last_use = seq;
                self.stats.hits += 1;
                if kind == EntryKind::Negative {
                    self.stats.negative_hits += 1;
                }
                Lookup::Hit
            }
            Some(_) => {
                let (path, _) = map.remove_entry(path).expect("the entry was just probed");
                unindex(&mut self.holders, node, &(kind, path));
                self.stats.expirations += 1;
                self.stats.misses += 1;
                Lookup::Miss
            }
            None => {
                self.stats.misses += 1;
                Lookup::Miss
            }
        }
    }

    /// Installs an entry for `node` with a lease granted at `now` (a
    /// grant rides on the read that fetched it), or refreshes the
    /// lease of an entry already there. A new entry on a node at
    /// capacity first evicts the least-recently-used one, whose lease
    /// goes with it at no cost; returns the evicted key, if any.
    pub fn insert(
        &mut self,
        node: NodeId,
        kind: EntryKind,
        path: VPath,
        now: SimTime,
    ) -> Option<LeaseKey> {
        let cache = self.nodes.entry(node).or_default();
        cache.use_seq += 1;
        let entry = Entry {
            expires: now + self.cfg.lease_ttl,
            last_use: cache.use_seq,
        };
        if let Some(held) = cache.map(kind).get_mut(&path) {
            *held = entry;
            return None;
        }
        let mut evicted = None;
        if cache.len() >= self.cfg.capacity.max(1) {
            if let Some(victim) = cache.lru_victim() {
                cache.map(victim.0).remove(&victim.1);
                unindex(&mut self.holders, node, &victim);
                self.stats.evictions += 1;
                evicted = Some(victim);
            }
        }
        cache.map(kind).insert(path.clone(), entry);
        self.holders.entry((kind, path)).or_default().insert(node);
        evicted
    }

    /// Recalls every live lease on `keys` because `mutator` changed
    /// what they cover at `t`. Each live holder's entry is dropped and
    /// counted as an invalidation: the mutator's own locally and for
    /// free, every other holder's by one recall message. Expired leases
    /// are inert and stay where they are.
    ///
    /// Returns the messaged `(holder, key)` pairs, in key order and
    /// then node order, for the owning shards to price
    /// ([`crate::mds_cluster::MdsCluster::price_recall`]).
    pub fn recall<'k>(
        &mut self,
        mutator: NodeId,
        keys: &'k [LeaseKey],
        t: SimTime,
    ) -> Vec<(NodeId, &'k LeaseKey)> {
        let mut messages = Vec::new();
        for key in keys {
            for node in self.drop_live(key, t) {
                if node != mutator {
                    self.stats.recall_messages += 1;
                    messages.push((node, key));
                }
            }
        }
        messages
    }

    /// Every key held on `path` or below it — the set a `rename` must
    /// recall, since the whole subtree changes identity. Sorted.
    pub fn keys_under(&self, path: &VPath) -> Vec<LeaseKey> {
        self.sorted_keys(|(_, p)| p.starts_with(path))
    }

    /// Fences the leases of a shard that crashed at `at`: every entry
    /// on a key `owned` accepts (one the crashed shard granted) whose
    /// lease is live at `at` is dropped and counted as fenced, so its
    /// holder's next read revalidates against the recovered shard.
    /// Expired leases are inert and stay where they are.
    pub fn fence(&mut self, at: SimTime, owned: impl Fn(&LeaseKey) -> bool) {
        for key in self.sorted_keys(owned) {
            self.stats.fenced += self.drop_live(&key, at).len() as u64;
        }
    }

    /// The held keys `keep` accepts, sorted, so no caller depends on
    /// the index's hash order.
    fn sorted_keys(&self, keep: impl Fn(&LeaseKey) -> bool) -> Vec<LeaseKey> {
        let mut keys: Vec<LeaseKey> = self
            .holders
            // cofs-lint: allow(D003, the keys are sorted before they are returned)
            .keys()
            .filter(|key| keep(key))
            .cloned()
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Drops every entry on `key` whose lease is live at `t`, counting
    /// each as an invalidation, and returns their holders in node
    /// order. Expired entries are inert and stay.
    fn drop_live(&mut self, key: &LeaseKey, t: SimTime) -> Vec<NodeId> {
        let Some(nodes) = self.holders.get(key) else {
            return Vec::new();
        };
        let live: Vec<NodeId> = nodes
            .iter()
            .copied()
            .filter(|node| {
                let entry = self
                    .nodes
                    .get(node)
                    .and_then(|cache| cache.get(key.0).get(&key.1))
                    .expect("the holder index names only held entries");
                entry.expires > t
            })
            .collect();
        for &node in &live {
            if let Some(cache) = self.nodes.get_mut(&node) {
                cache.map(key.0).remove(&key.1);
            }
            unindex(&mut self.holders, node, key);
        }
        self.stats.invalidations += live.len() as u64;
        live
    }

    /// Total entries currently cached for `node`.
    pub fn len(&self, node: NodeId) -> usize {
        self.nodes.get(&node).map_or(0, |c| c.len())
    }

    /// True when `node` caches nothing.
    pub fn is_empty(&self, node: NodeId) -> bool {
        self.len(node) == 0
    }

    /// Aggregate counters since the last [`Self::reset_stats`].
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears counters; cached entries (and their leases) survive,
    /// like sessions and token state across benchmark phases.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

/// Removes `node` from `key`'s holders, and the key once none is left.
fn unindex(holders: &mut FxHashMap<LeaseKey, BTreeSet<NodeId>>, node: NodeId, key: &LeaseKey) {
    if let Some(set) = holders.get_mut(key) {
        set.remove(&node);
        if set.is_empty() {
            holders.remove(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::path::vpath;

    fn on(capacity: usize, ttl_ms: u64) -> ClientCache {
        ClientCache::new(ClientCacheConfig {
            capacity,
            lease_ttl: SimDuration::from_millis(ttl_ms),
        })
    }

    #[test]
    fn hit_then_expiry_then_miss() {
        let mut c = on(16, 10);
        let p = vpath("/f");
        c.insert(NodeId(0), EntryKind::Attr, p.clone(), SimTime::ZERO);
        assert!(c
            .lookup(NodeId(0), EntryKind::Attr, &p, SimTime::from_millis(9))
            .is_hit());
        assert!(!c
            .lookup(NodeId(0), EntryKind::Attr, &p, SimTime::from_millis(10))
            .is_hit());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.expirations), (1, 1, 1));
        // The expired entry is gone, not resurrected.
        assert!(c.is_empty(NodeId(0)));
    }

    #[test]
    fn kinds_and_nodes_are_independent() {
        let mut c = on(16, 100);
        let p = vpath("/d");
        c.insert(NodeId(0), EntryKind::Dentry, p.clone(), SimTime::ZERO);
        assert!(!c
            .lookup(NodeId(0), EntryKind::Attr, &p, SimTime::ZERO)
            .is_hit());
        assert!(!c
            .lookup(NodeId(1), EntryKind::Dentry, &p, SimTime::ZERO)
            .is_hit());
        assert!(c
            .lookup(NodeId(0), EntryKind::Dentry, &p, SimTime::ZERO)
            .is_hit());
    }

    #[test]
    fn lru_eviction_is_by_least_recent_use() {
        let mut c = on(2, 1000);
        let (a, b, x) = (vpath("/a"), vpath("/b"), vpath("/x"));
        c.insert(NodeId(0), EntryKind::Attr, a.clone(), SimTime::ZERO);
        c.insert(NodeId(0), EntryKind::Attr, b.clone(), SimTime::ZERO);
        // Touch /a so /b is the LRU victim.
        assert!(c
            .lookup(NodeId(0), EntryKind::Attr, &a, SimTime::ZERO)
            .is_hit());
        let evicted = c.insert(NodeId(0), EntryKind::Attr, x.clone(), SimTime::ZERO);
        assert_eq!(evicted, Some((EntryKind::Attr, b.clone())));
        assert_eq!(c.stats().evictions, 1);
        assert!(c
            .lookup(NodeId(0), EntryKind::Attr, &a, SimTime::ZERO)
            .is_hit());
        assert!(!c
            .lookup(NodeId(0), EntryKind::Attr, &b, SimTime::ZERO)
            .is_hit());
        assert!(c
            .lookup(NodeId(0), EntryKind::Attr, &x, SimTime::ZERO)
            .is_hit());
    }

    #[test]
    fn negative_entries_hit_and_count_separately() {
        let mut c = on(16, 1000);
        let p = vpath("/lock");
        assert!(!c
            .lookup(NodeId(0), EntryKind::Negative, &p, SimTime::ZERO)
            .is_hit());
        c.insert(NodeId(0), EntryKind::Negative, p.clone(), SimTime::ZERO);
        assert!(c
            .lookup(NodeId(0), EntryKind::Negative, &p, SimTime::ZERO)
            .is_hit());
        // A negative entry answers only absence probes, not getattr.
        assert!(!c
            .lookup(NodeId(0), EntryKind::Attr, &p, SimTime::ZERO)
            .is_hit());
        let s = c.stats();
        assert_eq!(s.negative_hits, 1);
        assert_eq!(s.hits, 1);
        // The create that materializes the name recalls it.
        c.recall(
            NodeId(1),
            &[(EntryKind::Negative, p.clone())],
            SimTime::ZERO,
        );
        assert!(!c
            .lookup(NodeId(0), EntryKind::Negative, &p, SimTime::ZERO)
            .is_hit());
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn negative_entries_share_lru_capacity() {
        let mut c = on(1, 1000);
        c.insert(NodeId(0), EntryKind::Attr, vpath("/a"), SimTime::ZERO);
        let evicted = c.insert(NodeId(0), EntryKind::Negative, vpath("/b"), SimTime::ZERO);
        assert_eq!(evicted, Some((EntryKind::Attr, vpath("/a"))));
        let evicted = c.insert(NodeId(0), EntryKind::Attr, vpath("/c"), SimTime::ZERO);
        assert_eq!(evicted, Some((EntryKind::Negative, vpath("/b"))));
    }

    #[test]
    fn invalidate_drops_and_counts() {
        let mut c = on(16, 1000);
        let p = vpath("/f");
        let key = [(EntryKind::Attr, p.clone())];
        c.insert(NodeId(0), EntryKind::Attr, p.clone(), SimTime::ZERO);
        // The mutator's own live lease drops locally, with no message.
        assert!(c.recall(NodeId(0), &key, SimTime::ZERO).is_empty());
        // A second recall of an absent entry is not counted.
        c.recall(NodeId(0), &key, SimTime::ZERO);
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!(c.stats().recall_messages, 0);
        assert!(!c
            .lookup(NodeId(0), EntryKind::Attr, &p, SimTime::ZERO)
            .is_hit());
    }

    #[test]
    fn reinsert_refreshes_lease_without_eviction() {
        let mut c = on(1, 10);
        let p = vpath("/f");
        c.insert(NodeId(0), EntryKind::Attr, p.clone(), SimTime::ZERO);
        // Refreshing the same key at capacity must not evict it.
        let evicted = c.insert(
            NodeId(0),
            EntryKind::Attr,
            p.clone(),
            SimTime::from_millis(8),
        );
        assert_eq!(evicted, None);
        assert!(c
            .lookup(NodeId(0), EntryKind::Attr, &p, SimTime::from_millis(15))
            .is_hit());
    }

    #[test]
    fn release_and_subtree_key_scan() {
        let mut c = on(4, 1000);
        for p in ["/a/x", "/a/y/z", "/b/x"] {
            c.insert(NodeId(0), EntryKind::Attr, vpath(p), SimTime::ZERO);
        }
        c.insert(NodeId(0), EntryKind::Dentry, vpath("/a"), SimTime::ZERO);
        let under_a = c.keys_under(&vpath("/a"));
        assert_eq!(
            under_a,
            vec![
                (EntryKind::Attr, vpath("/a/x")),
                (EntryKind::Attr, vpath("/a/y/z")),
                (EntryKind::Dentry, vpath("/a")),
            ]
        );
        // An eviction releases its lease: the LRU entry, /a/x, goes.
        c.insert(NodeId(0), EntryKind::Attr, vpath("/c"), SimTime::ZERO);
        assert_eq!(c.keys_under(&vpath("/a")).len(), 2);
        // So does an expiry, at its holder's lookup.
        let late = SimTime::from_secs(2);
        assert!(!c
            .lookup(NodeId(0), EntryKind::Dentry, &vpath("/a"), late)
            .is_hit());
        assert_eq!(c.keys_under(&vpath("/a")).len(), 1);
        assert!(c.keys_under(&vpath("/nope")).is_empty());
    }

    #[test]
    fn lease_table_stays_bounded_under_churn() {
        // Every 2 ms for 20 s of virtual time, each of eight nodes
        // re-reads its hot name and reads one new name, with 5 ms leases.
        // Lapsed leases wait for their holder's next lookup or the LRU,
        // so the capacity alone bounds the table.
        let (nodes, capacity) = (8u32, 16usize);
        let mut c = on(capacity, 5);
        let mut t = SimTime::ZERO;
        let mut name = 0u64;
        while t < SimTime::from_secs(20) {
            for n in 0..nodes {
                let hot = vpath(&format!("/churn/hot{}", name % 4));
                let cold = vpath(&format!("/churn/f{}", name % 1024));
                name += 1;
                for p in [hot, cold] {
                    if !c.lookup(NodeId(n), EntryKind::Attr, &p, t).is_hit() {
                        c.insert(NodeId(n), EntryKind::Attr, p, t);
                    }
                }
            }
            if name.is_multiple_of(96) {
                let keys = [(EntryKind::Attr, vpath(&format!("/churn/f{}", name % 1024)))];
                c.recall(NodeId(0), &keys, t);
            }
            let held: usize = c.holders.values().map(BTreeSet::len).sum();
            assert!(held <= nodes as usize * capacity, "{held} at {t:?}");
            assert_eq!(held, (0..nodes).map(|n| c.len(NodeId(n))).sum::<usize>());
            t += SimDuration::from_millis(2);
        }
        assert!(c.stats().evictions > 0 && c.stats().expirations > 0);
    }

    #[test]
    fn hit_rate_and_reset() {
        let mut c = on(16, 1000);
        let p = vpath("/f");
        c.insert(NodeId(0), EntryKind::Attr, p.clone(), SimTime::ZERO);
        for _ in 0..3 {
            c.lookup(NodeId(0), EntryKind::Attr, &p, SimTime::ZERO);
        }
        c.lookup(NodeId(0), EntryKind::Attr, &vpath("/g"), SimTime::ZERO);
        assert!((c.stats().hit_rate() - 0.75).abs() < 1e-9);
        c.reset_stats();
        assert_eq!(c.stats(), CacheStats::default());
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        // Entries survive a stats reset.
        assert!(c
            .lookup(NodeId(0), EntryKind::Attr, &p, SimTime::ZERO)
            .is_hit());
    }
}
