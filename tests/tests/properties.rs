//! Property-based tests on core invariants: paths, placement, the
//! metadata database, and the token manager.

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
    use dlm::{TokenId, TokenManager, TokenMode};
    use netsim::ids::NodeId;

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
