//! Integration tests for the client-side metadata cache.
//!
//! Pinned properties:
//!
//! 1. `HotStatStorm` shows a measurable simulated-time win with the
//!    cache on, at the same shard count; the stack without a cache
//!    reports no cache stats.
//! 2. Write sharing (`SharedDirStorm` with readdir polling) produces
//!    visible invalidation/recall traffic — in the cache stats and in
//!    the per-shard usage — while outcomes stay identical.
//! 3. TTL orders hit rates: a longer lease can only hit more.
//! 4. The single lease table (`ClientCache`) matches a naive reference
//!    step for step under random reads, recalls and crashes.

use cofs::client_cache::{CacheStats, ClientCache, ClientCacheConfig, EntryKind, LeaseKey};
use cofs::config::{CofsConfig, ShardPolicyKind};
use cofs::fs::CofsFs;
use cofs_tests::cofs_over_memfs;
use netsim::ids::NodeId;
use proptest::prelude::*;
use simcore::time::{SimDuration, SimTime};
use vfs::fs::{FileSystem, OpCtx};
use vfs::memfs::MemFs;
use vfs::path::vpath;
use workloads::scenarios::{HotStatStorm, SharedDirStorm};

#[test]
fn hot_stat_storm_wins_at_every_shard_count() {
    let storm = HotStatStorm {
        nodes: 8,
        dirs: 2,
        files_per_dir: 8,
        rounds: 4,
        ..HotStatStorm::default()
    };
    for shards in [1usize, 2, 4] {
        let base = CofsConfig::default().with_shards(shards, ShardPolicyKind::HashByParent);
        let mut plain = cofs_over_memfs(base.clone());
        let mut cached = cofs_over_memfs(base.with_client_cache(4096, SimDuration::from_secs(30)));
        let r_plain = storm.run(&mut plain);
        let r_cached = storm.run(&mut cached);
        // Without a cache no traffic is recorded, and none reported.
        assert_eq!(plain.cache_stats(), CacheStats::default());
        assert!(r_plain.cache.is_none());
        assert!(
            r_cached.makespan.as_secs_f64() < 0.6 * r_plain.makespan.as_secs_f64(),
            "{shards} shards: cache must win clearly: {:?} vs {:?}",
            r_cached.makespan,
            r_plain.makespan
        );
        let stats = r_cached.cache.expect("cache on");
        assert!(stats.hit_rate() > 0.7, "{shards} shards: {stats:?}");
    }
}

#[test]
fn write_sharing_shows_recalls_and_identical_outcomes() {
    let storm = SharedDirStorm {
        nodes: 4,
        dirs: 4,
        files_per_node: 8,
        stats_per_create: 2,
        readdirs_per_create: 1,
        ..SharedDirStorm::default()
    };
    let base = CofsConfig::default().with_shards(2, ShardPolicyKind::HashByParent);
    let mut plain = cofs_over_memfs(base.clone());
    let mut cached = cofs_over_memfs(base.with_client_cache(4096, SimDuration::from_secs(30)));
    let r_plain = storm.run(&mut plain);
    let r_cached = storm.run(&mut cached);

    // Coherence traffic is visible in the new columns…
    let stats = r_cached.cache.expect("cache on");
    assert!(stats.invalidations > 0, "{stats:?}");
    assert!(stats.recall_messages > 0, "{stats:?}");
    assert!(
        r_cached.per_shard.iter().map(|u| u.recalls).sum::<u64>() > 0,
        "{:?}",
        r_cached.per_shard
    );
    assert_eq!(
        r_plain.per_shard.iter().map(|u| u.recalls).sum::<u64>(),
        0,
        "no cache, no recalls"
    );

    // …while the virtual view is identical file for file.
    let ctx = OpCtx::test(NodeId(0));
    for d in 0..storm.dirs {
        let dir = storm.root.join(&format!("d{d}"));
        let names = |fs: &mut CofsFs<MemFs>| -> Vec<String> {
            fs.readdir(&ctx, &dir)
                .unwrap()
                .value
                .into_iter()
                .map(|e| e.name)
                .collect()
        };
        assert_eq!(names(&mut plain), names(&mut cached), "{dir}");
    }
}

#[test]
fn longer_leases_hit_no_less() {
    let storm = HotStatStorm {
        nodes: 4,
        dirs: 2,
        files_per_dir: 8,
        rounds: 6,
        ..HotStatStorm::default()
    };
    let mut last_rate = -1.0f64;
    for ttl in [
        SimDuration::from_micros(50),
        SimDuration::from_millis(5),
        SimDuration::from_secs(30),
    ] {
        let mut fs = cofs_over_memfs(
            CofsConfig::default()
                .with_shards(2, ShardPolicyKind::HashByParent)
                .with_client_cache(4096, ttl),
        );
        let r = storm.run(&mut fs);
        let rate = r.cache.expect("cache on").hit_rate();
        assert!(
            rate >= last_rate,
            "hit rate must be monotone in TTL: {rate} after {last_rate}"
        );
        last_rate = rate;
    }
    assert!(last_rate > 0.7, "long leases on a read-only tree must hit");
}

#[test]
fn capacity_one_cache_still_produces_correct_outcomes() {
    // Eviction thrash: every insert evicts; lease release + recall
    // bookkeeping must stay consistent and outcomes correct.
    let mut fs = cofs_over_memfs(
        CofsConfig::default()
            .with_shards(2, ShardPolicyKind::HashByParent)
            .with_client_cache(1, SimDuration::from_secs(30)),
    );
    let ctx = OpCtx::test(NodeId(0));
    fs.mkdir(&ctx, &vpath("/d"), vfs::types::Mode::dir_default())
        .unwrap();
    for i in 0..8 {
        let fh = fs
            .create(
                &ctx,
                &vpath(&format!("/d/f{i}")),
                vfs::types::Mode::file_default(),
            )
            .unwrap()
            .value;
        fs.close(&ctx, fh).unwrap();
    }
    for _ in 0..3 {
        for i in 0..8 {
            assert_eq!(
                fs.stat(&ctx, &vpath(&format!("/d/f{i}")))
                    .unwrap()
                    .value
                    .size,
                0
            );
        }
    }
    assert!(fs.cache_stats().evictions > 0);
    assert_eq!(fs.readdir(&ctx, &vpath("/d")).unwrap().value.len(), 8);
}

/// One held lease in the [`Naive`] reference.
#[derive(Debug, Clone)]
struct Held {
    key: LeaseKey,
    expires: SimTime,
    last_use: u64,
}

/// The lease table written the obvious way: one list per node, scanned
/// linearly for every probe, recall and fence.
struct Naive {
    capacity: usize,
    ttl: SimDuration,
    nodes: Vec<(Vec<Held>, u64)>,
    stats: CacheStats,
}

impl Naive {
    fn new(nodes: usize, capacity: usize, ttl: SimDuration) -> Self {
        Naive {
            capacity,
            ttl,
            nodes: vec![(Vec::new(), 0); nodes],
            stats: CacheStats::default(),
        }
    }

    fn lookup(&mut self, node: usize, key: &LeaseKey, now: SimTime) -> bool {
        let (held, seq) = &mut self.nodes[node];
        *seq += 1;
        let Some(i) = held.iter().position(|h| &h.key == key) else {
            self.stats.misses += 1;
            return false;
        };
        if held[i].expires > now {
            held[i].last_use = *seq;
            self.stats.hits += 1;
            if key.0 == EntryKind::Negative {
                self.stats.negative_hits += 1;
            }
            return true;
        }
        held.remove(i);
        self.stats.expirations += 1;
        self.stats.misses += 1;
        false
    }

    fn insert(&mut self, node: usize, key: LeaseKey, now: SimTime) {
        let (held, seq) = &mut self.nodes[node];
        *seq += 1;
        let fresh = Held {
            key,
            expires: now + self.ttl,
            last_use: *seq,
        };
        if let Some(h) = held.iter_mut().find(|h| h.key == fresh.key) {
            *h = fresh;
            return;
        }
        if held.len() >= self.capacity {
            let lru = (0..held.len()).min_by_key(|&i| held[i].last_use).unwrap();
            held.remove(lru);
            self.stats.evictions += 1;
        }
        held.push(fresh);
    }

    /// Drops every live entry `hit` accepts, node by node, returning
    /// the `(node, key)` pairs dropped.
    fn drop_live(
        &mut self,
        live_at: SimTime,
        hit: impl Fn(&LeaseKey) -> bool,
    ) -> Vec<(usize, LeaseKey)> {
        let mut dropped = Vec::new();
        for (node, (held, _)) in self.nodes.iter_mut().enumerate() {
            held.retain(|h| {
                let drop = hit(&h.key) && h.expires > live_at;
                if drop {
                    dropped.push((node, h.key.clone()));
                }
                !drop
            });
        }
        dropped
    }

    fn recall(&mut self, mutator: usize, keys: &[LeaseKey], t: SimTime) -> Vec<(usize, LeaseKey)> {
        let mut messages = Vec::new();
        for key in keys {
            for (node, k) in self.drop_live(t, |k| k == key) {
                self.stats.invalidations += 1;
                if node != mutator {
                    self.stats.recall_messages += 1;
                    messages.push((node, k));
                }
            }
        }
        messages
    }

    fn fence(&mut self, at: SimTime, owned: impl Fn(&LeaseKey) -> bool) {
        let n = self.drop_live(at, owned).len() as u64;
        self.stats.invalidations += n;
        self.stats.fenced += n;
    }
}

const KINDS: [EntryKind; 3] = [EntryKind::Attr, EntryKind::Dentry, EntryKind::Negative];

/// The crashed shard of a fence step owns the paths whose last digit
/// has its parity.
fn owned_by(shard: u32) -> impl Fn(&LeaseKey) -> bool {
    move |(_, p): &LeaseKey| u32::from(*p.as_str().as_bytes().last().unwrap()) % 2 == shard
}

proptest! {
    /// Every read, recall and crash gives the same counts, and every
    /// recall the same messaged holders, as the naive reference.
    #[test]
    fn lease_table_matches_naive_reference(
        capacity in 1usize..5,
        ttl_us in 1_000u64..6_000,
        steps in prop::collection::vec((0u32..10, 0u32..4, 0u32..3, 0u32..5, 0u64..2_000), 1..160),
    ) {
        const NODES: usize = 4;
        let ttl = SimDuration::from_micros(ttl_us);
        let mut table = ClientCache::new(ClientCacheConfig { capacity, lease_ttl: ttl });
        let mut naive = Naive::new(NODES, capacity, ttl);
        let key = |kind: u32, path: u32| (KINDS[kind as usize], vpath(&format!("/p{path}")));
        let mut now = SimTime::ZERO;
        for (op, node, kind, path, dt) in steps {
            now += SimDuration::from_micros(dt);
            let k = key(kind, path);
            match op {
                // A read: a miss fetches and installs a fresh lease.
                0..=5 => {
                    let hit = table.lookup(NodeId(node), k.0, &k.1, now).is_hit();
                    prop_assert_eq!(hit, naive.lookup(node as usize, &k, now));
                    if !hit {
                        table.insert(NodeId(node), k.0, k.1.clone(), now);
                        naive.insert(node as usize, k, now);
                    }
                }
                // A mutation recalls its key and the next path's attrs.
                6..=8 => {
                    let keys = [k, key(0, (path + 1) % 5)];
                    let got: Vec<(usize, LeaseKey)> = table
                        .recall(NodeId(node), &keys, now)
                        .into_iter()
                        .map(|(n, k)| (n.index(), k.clone()))
                        .collect();
                    prop_assert_eq!(got, naive.recall(node as usize, &keys, now));
                }
                // A crash of shard `node % 2`, processed up to 1.5 ms
                // after its instant.
                _ => {
                    let at = SimTime::from_nanos(
                        now.as_nanos().saturating_sub(u64::from(node) * 500_000),
                    );
                    table.fence(at, owned_by(node % 2));
                    naive.fence(at, owned_by(node % 2));
                }
            }
            prop_assert_eq!(table.stats(), naive.stats);
            for n in 0..NODES {
                prop_assert_eq!(table.len(NodeId(n as u32)), naive.nodes[n].0.len());
            }
        }
    }
}
