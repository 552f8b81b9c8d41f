//! Calibration tests: pin the qualitative shapes of every paper
//! figure/table so cost-model regressions are caught by `cargo test`.
//!
//! Tolerances are deliberately wide — our substrate is a simulator,
//! not the authors' testbed — but orderings, knees, and who-wins
//! relations are asserted strictly. Sizes are scaled down where the
//! full sweep would be slow in debug builds; the bench binaries run
//! the paper-size sweeps.

use cofs_tests::{cofs_over_gpfs, gpfs};
use workloads::ior::{run_ior_op, Access, FileMode, IoOp, IorConfig};
use workloads::metarates::{run_phase, MetaOp, MetaratesConfig};

const MB: u64 = 1024 * 1024;

/// Fig 1: single-node stat/open are delegation-fast below 1024
/// entries and fall off a cliff beyond the stat-cache capacity.
#[test]
fn fig1_stat_knee_at_1024_entries() {
    let below = run_phase(&mut gpfs(1), &MetaratesConfig::new(1, 896), MetaOp::Stat);
    let above = run_phase(&mut gpfs(1), &MetaratesConfig::new(1, 1536), MetaOp::Stat);
    assert!(
        below.mean_ms() < 0.2,
        "below-knee stat should be cache-speed, got {:.3} ms",
        below.mean_ms()
    );
    assert!(
        above.mean_ms() > below.mean_ms() * 5.0,
        "beyond-knee stat should fall off: {:.3} vs {:.3} ms",
        above.mean_ms(),
        below.mean_ms()
    );
}

/// Fig 1: single-node create rises steadily above ~512 entries.
#[test]
fn fig1_create_grows_above_512_entries() {
    let small = run_phase(&mut gpfs(1), &MetaratesConfig::new(1, 256), MetaOp::Create);
    let large = run_phase(&mut gpfs(1), &MetaratesConfig::new(1, 2048), MetaOp::Create);
    assert!(
        large.mean_ms() > small.mean_ms() + 0.5,
        "create should grow with directory size: {:.3} -> {:.3} ms",
        small.mean_ms(),
        large.mean_ms()
    );
}

/// Fig 2: parallel create is dominated by node count (≈20 ms at 4
/// nodes in the paper) and grows when nodes double.
#[test]
fn fig2_parallel_create_scales_with_nodes() {
    let cfg4 = MetaratesConfig::new(4, 256);
    let c4 = run_phase(&mut gpfs(4), &cfg4, MetaOp::Create);
    let cfg8 = MetaratesConfig::new(8, 256);
    let c8 = run_phase(&mut gpfs(8), &cfg8, MetaOp::Create);
    assert!(
        (8.0..40.0).contains(&c4.mean_ms()),
        "4-node create should land near the paper's ~20 ms, got {:.2}",
        c4.mean_ms()
    );
    assert!(
        c8.mean_ms() > c4.mean_ms() * 1.2,
        "8 nodes should be clearly worse than 4: {:.2} vs {:.2}",
        c8.mean_ms(),
        c4.mean_ms()
    );
    // And create dwarfs the read-mostly ops (Fig 2's main contrast).
    let s4 = run_phase(&mut gpfs(4), &cfg4, MetaOp::Stat);
    assert!(c4.mean_ms() > s4.mean_ms() * 3.0);
}

/// Fig 4: COFS cuts parallel create to a few ms (paper: 2–5 ms,
/// speed-ups 5–10×) and removes the 4→8-node degradation.
#[test]
fn fig4_cofs_fixes_parallel_create() {
    let cfg = MetaratesConfig::new(4, 256);
    let g = run_phase(&mut gpfs(4), &cfg, MetaOp::Create);
    let c = run_phase(&mut cofs_over_gpfs(4), &cfg, MetaOp::Create);
    assert!(
        (0.5..6.0).contains(&c.mean_ms()),
        "COFS create should be a few ms, got {:.2}",
        c.mean_ms()
    );
    assert!(
        g.mean_ms() / c.mean_ms() >= 4.0,
        "speed-up should be at least 4x: {:.2} / {:.2}",
        g.mean_ms(),
        c.mean_ms()
    );
    let cfg8 = MetaratesConfig::new(8, 256);
    let c8 = run_phase(&mut cofs_over_gpfs(8), &cfg8, MetaOp::Create);
    assert!(
        c8.mean_ms() < c.mean_ms() * 2.0,
        "COFS should not degrade steeply from 4 to 8 nodes: {:.2} vs {:.2}",
        c8.mean_ms(),
        c.mean_ms()
    );
}

/// Fig 5: beyond 512 files per node, COFS answers stat from the
/// metadata service (~1 ms in the paper) while GPFS pays server
/// fetches; utime and open/close follow the same pattern.
#[test]
fn fig5_cofs_wins_stat_beyond_512() {
    let cfg = MetaratesConfig::new(4, 1024);
    for op in [MetaOp::Stat, MetaOp::Utime, MetaOp::OpenClose] {
        let g = run_phase(&mut gpfs(4), &cfg, op);
        let c = run_phase(&mut cofs_over_gpfs(4), &cfg, op);
        assert!(
            c.mean_ms() < 1.5,
            "COFS {op:?} should be ~metadata-service speed, got {:.2}",
            c.mean_ms()
        );
        assert!(
            g.mean_ms() / c.mean_ms() >= 2.0,
            "COFS should clearly win {op:?}: gpfs {:.2} vs cofs {:.2}",
            g.mean_ms(),
            c.mean_ms()
        );
    }
}

/// Fig 6 (scaled to 16 nodes for debug-build speed): the benefit of
/// virtualization persists and grows on the hierarchical topology.
#[test]
fn fig6_benefit_holds_on_hierarchical_topology() {
    use cofs::config::{CofsConfig, MdsNetwork};
    use cofs::fs::CofsFs;
    use netsim::cluster::ClusterBuilder;
    use netsim::topology::Topology;
    use pfs::config::PfsConfig;
    use pfs::fs::PfsFs;

    let nodes = 16;
    let cfg = MetaratesConfig::new(nodes, 128);
    let gcluster = ClusterBuilder::new()
        .clients(nodes)
        .servers(2)
        .topology(Topology::hierarchical(8))
        .build();
    let mut g = PfsFs::new(gcluster, PfsConfig::default());
    let rg = run_phase(&mut g, &cfg, MetaOp::Create);
    let ccluster = ClusterBuilder::new()
        .clients(nodes)
        .servers(2)
        .with_metadata_host()
        .topology(Topology::hierarchical(8))
        .build();
    let host = ccluster.metadata_host().unwrap();
    let net = MdsNetwork::from_cluster(&ccluster, host);
    let mut c = CofsFs::new(
        PfsFs::new(ccluster, PfsConfig::default()),
        CofsConfig::default(),
        net,
        7,
    );
    let rc = run_phase(&mut c, &cfg, MetaOp::Create);
    assert!(
        rg.mean_ms() / rc.mean_ms() >= 6.0,
        "the win should grow at scale: gpfs {:.2} vs cofs {:.2}",
        rg.mean_ms(),
        rc.mean_ms()
    );
}

/// Table I: small separate-file reads (< 32 MB per node) are served
/// from the GPFS page pool; COFS pays its infrastructure and suffers
/// an important slowdown. Large transfers are comparable.
#[test]
fn table1_small_separate_reads_favor_gpfs() {
    let small = IorConfig::new(4, 64 * MB, FileMode::FilePerProcess, Access::Sequential);
    let g = run_ior_op(&mut gpfs(4), &small, IoOp::Read);
    let c = run_ior_op(&mut cofs_over_gpfs(4), &small, IoOp::Read);
    let ratio = c.aggregate_mib_s / g.aggregate_mib_s;
    assert!(
        ratio < 0.6,
        "COFS should clearly lose cached small reads, ratio {ratio:.2}"
    );
    // Shared-file reads (never page-pool resident) are comparable.
    let shared = IorConfig::new(4, 512 * MB, FileMode::Shared, Access::Sequential);
    let gs = run_ior_op(&mut gpfs(4), &shared, IoOp::Read);
    let cs = run_ior_op(&mut cofs_over_gpfs(4), &shared, IoOp::Read);
    let rs = cs.aggregate_mib_s / gs.aggregate_mib_s;
    assert!(rs > 0.8, "shared reads should be comparable, ratio {rs:.2}");
}

/// Table I: single-node sequential writes show the COFS drawback
/// (FUSE double copy), and GPFS's aggregate write rate degrades as
/// node count grows on small aggregates (open serialization) while
/// COFS stays close.
#[test]
fn table1_write_patterns() {
    let one = IorConfig::new(1, 256 * MB, FileMode::FilePerProcess, Access::Sequential);
    let g1 = run_ior_op(&mut gpfs(1), &one, IoOp::Write);
    let c1 = run_ior_op(&mut cofs_over_gpfs(1), &one, IoOp::Write);
    let r1 = c1.aggregate_mib_s / g1.aggregate_mib_s;
    assert!(
        (0.5..0.98).contains(&r1),
        "single-node COFS write should show a moderate drawback, ratio {r1:.2}"
    );
    // GPFS degradation with node count on a small aggregate.
    let cfg4 = IorConfig::new(4, 256 * MB, FileMode::FilePerProcess, Access::Sequential);
    let cfg8 = IorConfig::new(8, 256 * MB, FileMode::FilePerProcess, Access::Sequential);
    let g4 = run_ior_op(&mut gpfs(4), &cfg4, IoOp::Write);
    let g8 = run_ior_op(&mut gpfs(8), &cfg8, IoOp::Write);
    assert!(
        g8.aggregate_mib_s < g4.aggregate_mib_s,
        "GPFS separate-file writes should degrade with node count: {:.1} -> {:.1}",
        g4.aggregate_mib_s,
        g8.aggregate_mib_s
    );
    // COFS stays within a moderate factor of GPFS at 8 nodes (the
    // paper reports COFS overtaking GPFS here; our network model gives
    // each blade a full-rate access link, which attenuates the effect
    // to rough parity — see the README, "Sweep goldens", Table I).
    let c8 = run_ior_op(&mut cofs_over_gpfs(8), &cfg8, IoOp::Write);
    let r8 = c8.aggregate_mib_s / g8.aggregate_mib_s;
    assert!(
        r8 > 0.65,
        "COFS should stay within a moderate factor, ratio {r8:.2}"
    );
}

/// The paper's headline: COFS converts a shared parallel workload
/// into conflict-free local sections — token revocations on the
/// underlying filesystem all but disappear.
#[test]
fn cofs_eliminates_underlying_revocations() {
    let cfg = MetaratesConfig::new(4, 256);
    let mut g = gpfs(4);
    run_phase(&mut g, &cfg, MetaOp::Create);
    let gpfs_revocations = g.token_stats().get("revocations");
    let mut c = cofs_over_gpfs(4);
    run_phase(&mut c, &cfg, MetaOp::Create);
    let cofs_revocations = c.under().token_stats().get("revocations");
    assert!(
        cofs_revocations * 10 <= gpfs_revocations.max(1),
        "COFS should avoid almost all revocations: gpfs {gpfs_revocations}, cofs {cofs_revocations}"
    );
}
