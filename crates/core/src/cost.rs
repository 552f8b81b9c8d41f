//! Checks of the metadata database's price as a shard charges it.
//!
//! [`crate::config::DbCostModel`] holds the rates; each shard of
//! [`crate::mds_cluster::MdsCluster`] applies them to the rows a request
//! reads and writes and counts that row work in its
//! [`crate::mds_cluster::ShardUsage`]. These tests drive the request
//! path of one shard whose every other price is zero, so a request's
//! latency is exactly its row work.

#[cfg(test)]
mod tests {
    use crate::batch::BatchedOp;
    use crate::config::{CofsConfig, DbCostModel, MdsNetwork};
    use crate::fault::FaultPlan;
    use crate::mds::{DbOps, RowSet};
    use crate::mds_cluster::{MdsCluster, Shape, ShardId, ShardPolicy, ShardUsage};
    use netsim::ids::NodeId;
    use simcore::time::{SimDuration, SimTime};

    /// One shard with no round trip, session or per-request overhead,
    /// left idle for a second before each request.
    struct OneShard {
        cluster: MdsCluster,
        cfg: CofsConfig,
        now: SimTime,
    }

    impl OneShard {
        fn new(cfg: CofsConfig) -> Self {
            OneShard {
                cluster: MdsCluster::new(ShardPolicy::hash(1)),
                cfg: CofsConfig {
                    mds_service: SimDuration::ZERO,
                    session_cost: SimDuration::ZERO,
                    ..cfg
                },
                now: SimTime::ZERO,
            }
        }

        fn with_db(db: &DbCostModel) -> Self {
            OneShard::new(CofsConfig {
                db: db.clone(),
                ..CofsConfig::default()
            })
        }

        /// The service demand of `ops` sent as one request of `shape`.
        fn price(&mut self, shape: fn(ShardId) -> Shape, ops: &[BatchedOp]) -> SimDuration {
            self.now += SimDuration::from_secs(1);
            let net = MdsNetwork::uniform(SimDuration::ZERO);
            let node = NodeId(0);
            let done =
                self.cluster
                    .request(&self.cfg, &net, node, shape(ShardId(0)), ops, self.now);
            done - self.now
        }

        /// The service demand of one synchronous op.
        fn sync(&mut self, reads: u64, writes: u64) -> SimDuration {
            self.price(Shape::Sync, &[op(reads, writes)])
        }

        fn usage(&self) -> ShardUsage {
            self.cluster.usage().remove(0)
        }
    }

    fn op(reads: u64, writes: u64) -> BatchedOp {
        BatchedOp::opaque(DbOps { reads, writes })
    }

    /// A read of `rows` rows naming `keys` as its memoizable rows.
    fn keyed(rows: u64, keys: std::ops::Range<u64>) -> BatchedOp {
        BatchedOp {
            read_set: RowSet::from_keys(keys),
            ..op(rows, 0)
        }
    }

    fn batching() -> CofsConfig {
        CofsConfig::default().with_batching(16, SimDuration::from_millis(5), 4)
    }

    fn write_behind() -> CofsConfig {
        batching().with_write_behind()
    }

    #[test]
    fn query_cost_scales_with_rows() {
        let m = DbCostModel::default();
        let mut shard = OneShard::with_db(&m);
        assert_eq!(shard.sync(1, 0), m.lookup);
        assert_eq!(shard.sync(10, 0), m.lookup * 10);
        // Zero-row queries still cost one lookup step.
        assert_eq!(shard.sync(0, 0), m.lookup);
        assert_eq!(shard.usage().reads_charged, 11);
    }

    #[test]
    fn dedup_query_cost_discounts_memoized_rows() {
        let m = DbCostModel::default();
        let mut shard = OneShard::new(batching());
        // A primer op reads rows 0..10 first, so each of the probe's
        // keys below 10 is a memoized row.
        let mut probe = |rows, keys| {
            let primer = keyed(10, 0..10);
            shard.price(Shape::Batch, &[primer, keyed(rows, keys)]) - m.lookup * 10
        };
        // No memoized rows: the plain query cost.
        assert_eq!(probe(5, 0..0), m.lookup * 5);
        assert_eq!(probe(0, 0..0), m.lookup);
        // Each memoized row saves exactly one lookup step.
        assert_eq!(probe(5, 0..3), m.lookup * 2);
        // A fully memoized read set costs nothing.
        assert_eq!(probe(4, 0..4), SimDuration::ZERO);
        // Memoized counts clamp to the rows actually read.
        assert_eq!(probe(2, 0..10), SimDuration::ZERO);
        let u = shard.usage();
        assert_eq!(u.reads_charged, 5 * 10 + 5 + 2);
        assert_eq!(u.reads_memoized, 3 + 4 + 2);
    }

    #[test]
    fn dedup_never_exceeds_plain_query_cost() {
        let m = DbCostModel::default();
        let mut plain = OneShard::new(CofsConfig::default());
        let mut memo = OneShard::new(batching());
        for rows in 0..20u64 {
            for keys in 0..25u64 {
                let batch = [keyed(25, 0..25), keyed(rows, 0..keys)];
                let dedup = memo.price(Shape::Batch, &batch) - m.lookup * 25;
                assert!(dedup <= plain.sync(rows, 0), "{rows} rows, {keys} keys");
            }
        }
    }

    #[test]
    fn txn_cost_includes_periodic_sync() {
        let m = DbCostModel {
            sync_every: 4,
            ..DbCostModel::default()
        };
        let mut shard = OneShard::with_db(&m);
        let base = m.lookup + m.commit + m.write;
        for i in 1..=8u64 {
            let c = shard.sync(0, 1);
            if i % 4 == 0 {
                assert_eq!(c, base + m.sync_cost, "commit {i} syncs");
            } else {
                assert_eq!(c, base, "commit {i} does not sync");
            }
        }
    }

    #[test]
    fn group_commit_amortizes_commit_and_sync() {
        let m = DbCostModel::default();
        // k single-write transactions vs. one k-op group commit.
        let k = 4u64;
        let mut singles = OneShard::with_db(&m);
        let single_total: SimDuration = (0..k).map(|_| singles.sync(0, 1)).sum();
        let mut grouped = OneShard::with_db(&m);
        let group = grouped.price(Shape::Batch, &[op(0, 1), op(0, 1), op(0, 1), op(0, 1)]);
        // Same row work, (k - 1) fewer commits.
        assert_eq!(single_total, group + m.commit * (k - 1));
        // The sync cadence counts transactions, so group commits also
        // stretch the fsync interval over more operations.
        let m = DbCostModel {
            sync_every: 2,
            ..DbCostModel::default()
        };
        let mut shard = OneShard::with_db(&m);
        shard.price(Shape::Batch, &[op(0, 1), op(0, 1), op(0, 1)]);
        let second = shard.price(Shape::Batch, &[op(0, 1)]);
        assert_eq!(second, m.lookup + m.commit + m.write + m.sync_cost);
    }

    #[test]
    fn group_of_one_matches_txn_cost() {
        let m = DbCostModel {
            sync_every: 3,
            ..DbCostModel::default()
        };
        let mut a = OneShard::with_db(&m);
        let mut b = OneShard::with_db(&m);
        // A write-free op commits nothing on either path, so the
        // cadence stays in step.
        for w in [1u64, 2, 5, 1, 0, 3] {
            assert_eq!(
                a.sync(0, w),
                b.price(Shape::Batch, &[op(0, w)]),
                "{w} writes"
            );
        }
    }

    #[test]
    #[should_panic(expected = "a request carries at least one op")]
    fn empty_group_panics() {
        OneShard::new(CofsConfig::default()).price(Shape::Batch, &[]);
    }

    #[test]
    fn reset_clears_group_counters() {
        let m = DbCostModel {
            sync_every: 2,
            ..DbCostModel::default()
        };
        let mut shard = OneShard::with_db(&m);
        shard.price(Shape::Batch, &[op(3, 1), op(2, 1)]);
        shard.cluster.reset_time();
        let u = shard.usage();
        assert_eq!((u.rpcs, u.batches, u.reads_charged), (0, 0, 0));
        // The fsync cadence restarts too: this is commit 1 again, not 2.
        assert_eq!(shard.sync(0, 1), m.lookup + m.commit + m.write);
    }

    #[test]
    fn journal_append_scales_with_records() {
        let m = DbCostModel::default();
        let mut shard = OneShard::new(write_behind());
        // The ack pays the op's one lookup and the append; the rows
        // apply after it.
        assert_eq!(
            shard.price(Shape::Batch, &[op(0, 1)]),
            m.lookup + m.journal_append + m.journal_record
        );
        assert_eq!(
            shard.price(Shape::Batch, &[op(0, 48)]),
            m.lookup + m.journal_append + m.journal_record * 48
        );
        assert_eq!(shard.usage().journal_appends, 2);
    }

    #[test]
    fn journal_append_undercuts_group_commit() {
        // The whole point of write-behind: acking a batch via one
        // sequential journal append is cheaper than the group commit it
        // defers, for any plausible batch.
        let mut journaled = OneShard::new(write_behind());
        let mut committed = OneShard::new(batching());
        for ops in 1..=32usize {
            let batch = vec![op(0, 3); ops];
            let append = journaled.price(Shape::Batch, &batch);
            let group = committed.price(Shape::Batch, &batch);
            assert!(append < group, "{ops}-op batch: {append:?} vs {group:?}");
        }
    }

    #[test]
    fn journal_append_leaves_commit_cadence_alone() {
        // Journal appends are not commits: they must not advance the
        // periodic-sync counter, or enabling write-behind would shift
        // every later fsync.
        let m = DbCostModel {
            sync_every: 2,
            ..DbCostModel::default()
        };
        let mut shard = OneShard::new(CofsConfig {
            db: m.clone(),
            ..write_behind()
        });
        // One append, then the apply: commit 1.
        shard.price(Shape::Batch, &[op(0, 5)]);
        // Commit 2 syncs; it would be commit 3 if the append counted.
        assert_eq!(
            shard.sync(0, 1),
            m.lookup + m.commit + m.write + m.sync_cost
        );
    }

    #[test]
    fn standby_append_mirrors_journal_append_without_counters() {
        let m = DbCostModel::default();
        let mut shard = OneShard::new(write_behind().with_standby());
        // A shard ships to its standby only while a fault plan is
        // armed; this crash lands long after the test.
        let crash = FaultPlan::default().crash(
            ShardId(0),
            SimTime::from_secs(3600),
            SimDuration::from_secs(1),
        );
        shard.cluster.arm_faults(crash);
        let ack = shard.price(Shape::Batch, &[op(0, 7)]);
        // Same bytes, same sequential append cost as the primary's.
        assert_eq!(m.standby_append_cost(7), ack - m.lookup);
        // But the ship is not one of the shard's own appends.
        assert_eq!(shard.usage().journal_appends, 1);
    }

    #[test]
    #[should_panic(expected = "standby append of zero records")]
    fn empty_standby_append_panics() {
        DbCostModel::default().standby_append_cost(0);
    }

    #[test]
    fn sync_disabled_when_every_is_zero() {
        let m = DbCostModel {
            sync_every: 0,
            ..DbCostModel::default()
        };
        let mut shard = OneShard::with_db(&m);
        for _ in 0..100 {
            assert_eq!(shard.sync(0, 1), m.lookup + m.commit + m.write);
        }
    }
}
