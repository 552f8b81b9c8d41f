//! Property-based tests on core invariants: paths, placement, the
//! metadata database, the token manager and the GPFS model's LRU set.

use proptest::prelude::*;

mod path_props {
    use super::*;
    use vfs::path::VPath;

    proptest! {
        /// Normalization is idempotent: re-parsing a normalized path
        /// yields the same path.
        #[test]
        fn normalization_is_idempotent(raw in "(/[a-z.]{1,8}){1,6}") {
            if let Ok(p) = VPath::new(&raw) {
                let again = VPath::new(p.as_str()).unwrap();
                prop_assert_eq!(p, again);
            }
        }

        /// parent/join round-trip: joining a parent with the file name
        /// reproduces the original path.
        #[test]
        fn parent_join_round_trip(raw in "(/[a-z]{1,8}){1,6}") {
            let p = VPath::new(&raw).unwrap();
            if let (Some(parent), Some(name)) = (p.parent(), p.file_name()) {
                prop_assert_eq!(parent.join(name), p);
            }
        }

        /// Depth equals the component count, and every path starts
        /// with the root.
        #[test]
        fn depth_and_prefix(raw in "(/[a-z]{1,8}){1,6}") {
            let p = VPath::new(&raw).unwrap();
            prop_assert_eq!(p.depth(), p.components().count());
            prop_assert!(p.starts_with(&VPath::root()));
        }
    }
}

mod placement_props {
    use super::*;
    use cofs::placement::{HashedPlacement, PlacementPolicy};
    use netsim::ids::{NodeId, Pid};
    use std::collections::HashMap;
    use vfs::path::{vpath, VPath};

    proptest! {
        /// The underlying-directory limit is never exceeded, for any
        /// limit, spread, and operation count.
        #[test]
        fn dir_limit_invariant(
            limit in 1u32..128,
            spread in 1u32..8,
            seed in 0u64..1000,
            n in 1usize..600,
        ) {
            let mut p = HashedPlacement::new(vpath("/.u"), limit, spread, seed);
            let mut counts: HashMap<VPath, u32> = HashMap::new();
            for i in 0..n {
                let d = p.place(NodeId(0), Pid(1), &vpath("/v"), &format!("f{i}"));
                let c = counts.entry(d).or_insert(0);
                *c += 1;
                prop_assert!(*c <= limit);
            }
        }

        /// Placement always lands under the configured root.
        #[test]
        fn placement_stays_under_root(seed in 0u64..1000, n in 1usize..100) {
            let mut p = HashedPlacement::new(vpath("/.u"), 512, 4, seed);
            for i in 0..n {
                let d = p.place(NodeId((i % 5) as u32), Pid(1), &vpath("/v"), &format!("f{i}"));
                prop_assert!(d.starts_with(&vpath("/.u")));
            }
        }
    }
}

mod shard_policy_props {
    use super::*;
    use cofs::mds_cluster::ShardPolicy;
    use vfs::path::VPath;

    fn policies(shards: usize) -> [ShardPolicy; 3] {
        [
            ShardPolicy::hash(1),
            ShardPolicy::hash(shards),
            ShardPolicy::subtree(shards),
        ]
    }

    proptest! {
        /// Every policy is *total* and *stable*: any path routes to a
        /// shard below the declared count (for both the dentry and the
        /// entry-list route), and re-routing the same path is
        /// idempotent.
        #[test]
        fn routing_is_total_and_stable(
            raw in "(/[a-z0-9.]{1,8}){1,6}",
            shards in 1usize..16,
        ) {
            let p = VPath::new(&raw).unwrap();
            for policy in policies(shards) {
                let s = policy.shard_of(&p);
                prop_assert!(s.0 < policy.shard_count(), "{policy:?} sent {p} to {s}");
                prop_assert_eq!(s, policy.shard_of(&p));
                let e = policy.shard_of_entries(&p);
                prop_assert!(e.0 < policy.shard_count(), "{policy:?} listed {p} on {e}");
                prop_assert_eq!(e, policy.shard_of_entries(&p));
            }
            // The root is routable too.
            for policy in policies(shards) {
                prop_assert!(policy.shard_of(&VPath::root()).0 < policy.shard_count());
            }
        }

        /// Hash-by-parent keeps every pair of siblings on one shard —
        /// the shard of a path is the shard of its parent's entry
        /// list, so directory-local operations never cross shards.
        #[test]
        fn hash_by_parent_routes_siblings_identically(
            dir in "(/[a-z]{1,6}){1,4}",
            a in "[a-z0-9]{1,8}",
            b in "[a-z0-9]{1,8}",
            shards in 1usize..16,
        ) {
            let dir = VPath::new(&dir).unwrap();
            let policy = ShardPolicy::hash(shards);
            let sa = policy.shard_of(&dir.join(&a));
            let sb = policy.shard_of(&dir.join(&b));
            prop_assert_eq!(sa, sb);
            prop_assert_eq!(sa, policy.shard_of_entries(&dir));
        }

        /// Subtree partitioning respects subtree roots: every path
        /// below a top-level directory routes exactly where the
        /// top-level directory itself routes, entry lists included.
        #[test]
        fn subtree_partition_respects_subtree_roots(
            top in "/[a-z]{1,8}",
            rest in "(/[a-z0-9]{1,8}){0,5}",
            shards in 1usize..16,
        ) {
            let root = VPath::new(&top).unwrap();
            let deep = VPath::new(&format!("{top}{rest}")).unwrap();
            let policy = ShardPolicy::subtree(shards);
            let home = policy.shard_of(&root);
            prop_assert_eq!(policy.shard_of(&deep), home);
            prop_assert_eq!(policy.shard_of_entries(&deep), home);
        }
    }
}

mod dlm_props {
    use super::*;
    use dlm::{AcquireOutcome, Revocation, TokenId, TokenManager, TokenMode};
    use netsim::ids::NodeId;
    use std::collections::BTreeMap;

    proptest! {
        /// Safety invariant: after any sequence of acquires/releases,
        /// an exclusive holder is always the *only* holder.
        #[test]
        fn exclusive_means_alone(
            steps in prop::collection::vec((0u32..6, 0u64..4, prop::bool::ANY, prop::bool::ANY), 1..200),
        ) {
            let mut tm = TokenManager::new();
            for (node, token, exclusive, release) in steps {
                let node = NodeId(node);
                let token = TokenId(token);
                if release {
                    tm.release(node, token);
                } else {
                    let mode = if exclusive { TokenMode::Exclusive } else { TokenMode::Shared };
                    tm.acquire(node, token, mode);
                }
                // Check the invariant on this token.
                if tm.held_mode(node, token) == Some(TokenMode::Exclusive) {
                    prop_assert_eq!(tm.holder_count(token), 1);
                }
            }
        }

        /// The token manager agrees with an ordered reference on every
        /// outcome and every holder's mode, and plans revocations in
        /// `NodeId` order.
        #[test]
        fn token_manager_matches_an_ordered_reference(
            steps in prop::collection::vec((0u32..16, 0u32..4, 0u64..8), 1..300),
        ) {
            let mut tm = TokenManager::new();
            let mut reference = Reference::default();
            for (op, node, token) in steps {
                let (n, t) = (NodeId(node), TokenId(token));
                match op {
                    0..=5 => {
                        let got = tm.acquire(n, t, TokenMode::Shared);
                        prop_assert_eq!(got, reference.acquire(n, t, TokenMode::Shared));
                    }
                    6..=11 => {
                        let got = tm.acquire(n, t, TokenMode::Exclusive);
                        let sorted = got.revocations.windows(2).all(|w| w[0].holder < w[1].holder);
                        prop_assert!(sorted, "{:?}", got.revocations);
                        prop_assert_eq!(got, reference.acquire(n, t, TokenMode::Exclusive));
                    }
                    12 | 13 => {
                        tm.release(n, t);
                        reference.release(n, t);
                    }
                    14 => {
                        tm.drop_token(t);
                        reference.tokens.remove(&t);
                    }
                    _ => {
                        tm.release_all(n);
                        reference.release_all(n);
                    }
                }
                prop_assert_eq!(tm.live_tokens(), reference.tokens.len());
                for t in (0..8).map(TokenId) {
                    let holders = reference.tokens.get(&t);
                    prop_assert_eq!(tm.holder_count(t), holders.map_or(0, BTreeMap::len));
                    for n in (0..4).map(NodeId) {
                        let want = holders.and_then(|h| h.get(&n).copied());
                        prop_assert_eq!(tm.held_mode(n, t), want);
                    }
                }
            }
        }
    }

    /// The token protocol over ordered maps: each token's holders by
    /// node, tokens without holders absent.
    #[derive(Default)]
    struct Reference {
        tokens: BTreeMap<TokenId, BTreeMap<NodeId, TokenMode>>,
    }

    impl Reference {
        fn acquire(&mut self, node: NodeId, token: TokenId, mode: TokenMode) -> AcquireOutcome {
            let holders = self.tokens.entry(token).or_default();
            if holders.get(&node).is_some_and(|held| held.covers(mode)) {
                return AcquireOutcome {
                    already_held: true,
                    revocations: Vec::new(),
                };
            }
            let mut revocations = Vec::new();
            match mode {
                TokenMode::Exclusive => {
                    for (&holder, &had) in holders.iter().filter(|(&h, _)| h != node) {
                        revocations.push(Revocation { holder, had });
                    }
                    holders.clear();
                }
                TokenMode::Shared => {
                    let writer = holders
                        .iter()
                        .find(|(_, &m)| m == TokenMode::Exclusive)
                        .map(|(&h, _)| h);
                    if let Some(holder) = writer.filter(|&h| h != node) {
                        revocations.push(Revocation {
                            holder,
                            had: TokenMode::Exclusive,
                        });
                        holders.insert(holder, TokenMode::Shared);
                    }
                }
            }
            holders.insert(node, mode);
            AcquireOutcome {
                already_held: false,
                revocations,
            }
        }

        fn release(&mut self, node: NodeId, token: TokenId) {
            if let Some(holders) = self.tokens.get_mut(&token) {
                holders.remove(&node);
                if holders.is_empty() {
                    self.tokens.remove(&token);
                }
            }
        }

        fn release_all(&mut self, node: NodeId) {
            self.tokens.retain(|_, holders| {
                holders.remove(&node);
                !holders.is_empty()
            });
        }
    }
}

mod lru_props {
    use super::*;
    use pfs::cache::LruSet;

    /// The reference: cached keys in recency order, least recent first.
    struct Recency {
        capacity: usize,
        keys: Vec<u64>,
    }

    impl Recency {
        fn remove(&mut self, key: u64) -> bool {
            let at = self.keys.iter().position(|&k| k == key);
            at.map(|i| self.keys.remove(i)).is_some()
        }

        fn touch(&mut self, key: u64) -> Option<u64> {
            let known = self.remove(key);
            self.keys.push(key);
            (!known && self.keys.len() > self.capacity).then(|| self.keys.remove(0))
        }
    }

    proptest! {
        /// `LruSet` evicts the same victims as a plain recency list and
        /// lists its keys in the same order after every step.
        #[test]
        fn lru_set_matches_a_recency_list(
            capacity in 1usize..7,
            steps in prop::collection::vec((0u32..20, 0u64..10), 1..300),
        ) {
            let mut lru = LruSet::new(capacity);
            let mut reference = Recency { capacity, keys: Vec::new() };
            for (op, key) in steps {
                match op {
                    0..=11 => prop_assert_eq!(lru.touch(key), reference.touch(key)),
                    12..=15 => prop_assert_eq!(lru.remove(&key), reference.remove(key)),
                    16..=18 => prop_assert_eq!(lru.contains(&key), reference.keys.contains(&key)),
                    _ => {
                        lru.clear();
                        reference.keys.clear();
                    }
                }
                prop_assert_eq!(lru.len(), reference.keys.len());
                let keys: Vec<u64> = lru.keys().copied().collect();
                prop_assert_eq!(&keys, &reference.keys);
            }
        }
    }
}

mod summary_props {
    use super::*;
    use simcore::stats::Summary;
    use simcore::time::SimDuration;

    proptest! {
        /// Mean lies between min and max, and quantiles are monotone.
        #[test]
        fn summary_invariants(samples in prop::collection::vec(0u64..1_000_000, 1..100)) {
            let mut s = Summary::new("x");
            for v in &samples {
                s.record(SimDuration::from_nanos(*v));
            }
            prop_assert!(s.min() <= s.mean());
            prop_assert!(s.mean() <= s.max());
            prop_assert!(s.quantile(0.25) <= s.quantile(0.75));
            prop_assert_eq!(s.count(), samples.len());
        }
    }
}
