//! The reported metrics: end-to-end (from untraced repetitions),
//! per-layer (from traced ones), and informational extras.

use crate::measure::Outcome;
use crate::trace::{Layer, Span};
use cofs::mds_cluster::ShardUsage;
use simcore::time::SimDuration;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of `value`.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`: which direction is an improvement.
    pub better: &'static str,
    /// The measured value.
    pub value: f64,
}

fn lower(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        value,
    }
}

fn higher(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        better: "higher",
        value,
    }
}

fn ms(d: SimDuration) -> f64 {
    d.as_millis_f64()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn quantile_ms(o: &Outcome, label: &str, q: f64) -> f64 {
    o.latency.get(label).map_or(0.0, |s| ms(s.quantile(q)))
}

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The arithmetic mean of `values`.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Combines same-shaped metric lists (one per repetition or instance)
/// into one, value by value.
///
/// # Panics
///
/// Panics if `sets` is empty.
pub fn combine(sets: &[Vec<Metric>], by: fn(&[f64]) -> f64) -> Vec<Metric> {
    sets[0]
        .iter()
        .enumerate()
        .map(|(i, m)| Metric {
            value: by(&sets.iter().map(|s| s[i].value).collect::<Vec<_>>()),
            ..m.clone()
        })
        .collect()
}

fn mean_ms(o: &Outcome, label: &str) -> f64 {
    o.latency.get(label).map_or(0.0, |s| s.mean_millis())
}

/// The virtual-time end-to-end metrics of one instance.
///
/// Throughput is the sum over clients of each client's measured
/// operations divided by the virtual time it took to finish them — the
/// rate the service sustains for its clients, which one straggling
/// client does not set. Latencies are means: the simulator's costs are
/// quantized, so a median often sits on one cost-model constant for
/// every seed, and a p99.9 is set by a handful of discrete events
/// (splits, crashes, recall storms); both are printed by [`info`].
pub fn virtual_end_to_end(o: &Outcome) -> Vec<Metric> {
    let rate = o
        .clients
        .iter()
        .map(|&(ops, end)| ratio(ops as f64, end.as_secs_f64()))
        .sum();
    vec![
        higher("throughput_ops_s", "ops/s", rate),
        lower("create_mean_ms", "ms", mean_ms(o, "create")),
        lower("stat_mean_ms", "ms", mean_ms(o, "stat")),
    ]
}

/// The host-cost end-to-end metrics: the medians of the measured phase's
/// and of set-up's host time, each in units of the reference
/// computation's median ([`crate::host::reference_s`]), the median
/// set-up time in seconds, and the process's peak memory.
pub fn host_end_to_end(
    run_rel: f64,
    setup_rel: f64,
    setup_s: f64,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    vec![
        lower("run_rel", "ratio", run_rel),
        lower("setup_rel", "ratio", setup_rel),
        lower("setup_s", "s", setup_s),
        lower("peak_rss_mb", "MB", peak_rss_mb),
    ]
}

/// The raw host times behind `run_rel`, printed only: both move with
/// the host's speed of the moment.
pub fn host_info(run_s: f64, ref_s: f64) -> Vec<Metric> {
    vec![lower("run_s", "s", run_s), lower("ref_s", "s", ref_s)]
}

/// Printed with every run but kept out of `BENCHMARK.json`: each reads
/// exactly zero on some workload (no faults, no write-behind), sits on
/// a cost-model constant for every seed, swings with a few discrete
/// events from seed to seed, or is a sample count.
pub fn info(o: &Outcome) -> Vec<Metric> {
    let count = |label: &str| o.latency.get(label).map_or(0, |s| s.count()) as f64;
    let l = &o.layers;
    vec![
        lower("makespan_ms", "ms", o.makespan.as_millis_f64()),
        lower("create_p50_ms", "ms", quantile_ms(o, "create", 0.5)),
        lower("create_p999_ms", "ms", quantile_ms(o, "create", 0.999)),
        lower("stat_p50_ms", "ms", quantile_ms(o, "stat", 0.5)),
        lower("stat_p999_ms", "ms", quantile_ms(o, "stat", 0.999)),
        lower("apply_tail_ms", "ms", ms(o.apply_horizon - o.makespan)),
        lower("gap_ms", "ms", l.fault.gap_ms),
        lower(
            "failed_frac",
            "ratio",
            ratio(o.errors.len() as f64, o.steps as f64),
        ),
        higher("create_n", "count", count("create")),
        higher("stat_n", "count", count("stat")),
        lower("fault.recovery_ms", "ms", l.fault.recovery_ms),
        lower(
            "mds.apply_lag_max_ms",
            "ms",
            l.usage.iter().map(|u| ms(u.apply_lag)).fold(0.0, f64::max),
        ),
    ]
}

/// How much longer traced repetitions took than untraced ones, from
/// the medians of their measured phases.
pub fn trace_overhead(traced_run_s: f64, run_s: f64) -> Metric {
    lower("trace.overhead_frac", "ratio", traced_run_s / run_s - 1.0)
}

/// Host time spent inside each traced boundary.
#[derive(Default)]
struct SpanTotals {
    cofs_calls: f64,
    cofs_wall: f64,
    cofs_virt_ms: f64,
    under_calls: f64,
    under_wall: f64,
    under_wall_in_cofs: f64,
    under_virt_ms: f64,
}

fn totals(spans: &[Span]) -> SpanTotals {
    let mut t = SpanTotals::default();
    for s in spans {
        let wall = s.wall.1 - s.wall.0;
        let virt_ms = ms(s.virt.1.saturating_since(s.virt.0));
        match s.layer {
            Layer::Cofs => {
                t.cofs_calls += 1.0;
                t.cofs_wall += wall;
                t.cofs_virt_ms += virt_ms;
            }
            Layer::Under => {
                t.under_calls += 1.0;
                t.under_wall += wall;
                if s.parent.is_some() {
                    t.under_wall_in_cofs += wall;
                }
                t.under_virt_ms += virt_ms;
            }
        }
    }
    t
}

/// The per-layer metrics of one traced repetition whose measured phase
/// took `run_s` host seconds (`trace.overhead_frac` is added by the
/// caller, which has the untraced repetitions).
pub fn per_layer(o: &Outcome, spans: &[Span], run_s: f64) -> Vec<Metric> {
    let t = totals(spans);
    let l = &o.layers;
    let u = &l.usage;
    let sum = |f: fn(&ShardUsage) -> u64| u.iter().map(f).sum::<u64>() as f64;
    let busy_max = u.iter().map(|s| ms(s.busy)).fold(0.0, f64::max);
    let rpcs = sum(|s| s.rpcs);
    let reads_charged = sum(|s| s.reads_charged);
    let reads_memoized = sum(|s| s.reads_memoized);
    let rows_coalesced = sum(|s| s.rows_coalesced);
    let b = &l.batch;
    let c = &l.cache;
    let f = &l.fault;
    let cofs_self = t.cofs_wall - t.under_wall_in_cofs;
    let driver_self = run_s - t.cofs_wall;
    let mut out = vec![
        lower("driver.steps", "count", o.steps as f64),
        lower("driver.self_wall_s", "s", driver_self),
        lower("driver.self_frac", "ratio", ratio(driver_self, run_s)),
        lower("cofs.calls", "count", t.cofs_calls),
        lower("cofs.wall_s", "s", t.cofs_wall),
        lower("cofs.self_wall_s", "s", cofs_self),
        lower(
            "cofs.ns_per_call",
            "ns",
            ratio(cofs_self * 1e9, t.cofs_calls),
        ),
    ];
    out.extend(
        l.counts
            .iter()
            .filter(|(name, _)| name.starts_with("cofs."))
            .map(|(&name, &v)| lower(name, "count", v as f64)),
    );
    out.extend([
        lower("mds.rpcs", "count", rpcs),
        lower("mds.busy_ms", "ms", u.iter().map(|s| ms(s.busy)).sum()),
        lower("mds.busy_max_ms", "ms", busy_max),
        lower(
            "mds.util_max",
            "ratio",
            ratio(busy_max, o.makespan.as_millis_f64()),
        ),
        lower(
            "mds.wait_mean_ms",
            "ms",
            ratio(
                u.iter().map(|s| ms(s.mean_wait) * s.rpcs as f64).sum(),
                rpcs,
            ),
        ),
        lower(
            "mds.wait_max_ms",
            "ms",
            u.iter().map(|s| ms(s.mean_wait)).fold(0.0, f64::max),
        ),
        lower("mds.skew", "ratio", workloads::report::shard_skew(u)),
        lower("mds.recalls", "count", sum(|s| s.recalls)),
        lower("mds.batches", "count", sum(|s| s.batches)),
        higher("mds.read_bypasses", "count", sum(|s| s.read_bypasses)),
        lower("metadb.reads_charged", "count", reads_charged),
        higher("metadb.reads_memoized", "count", reads_memoized),
        higher(
            "metadb.memo_ratio",
            "ratio",
            ratio(reads_memoized, reads_charged + reads_memoized),
        ),
        lower(
            "metadb.journal_appends",
            "count",
            sum(|s| s.journal_appends),
        ),
        higher("metadb.rows_coalesced", "count", rows_coalesced),
        higher(
            "metadb.coalesce_ratio",
            "ratio",
            ratio(rows_coalesced, b.ops_enqueued as f64),
        ),
        lower("batch.ops", "count", b.ops_enqueued as f64),
        lower("batch.batches", "count", b.batches_issued as f64),
        higher("batch.mean_ops", "ops", b.mean_batch_ops()),
        higher("batch.flush_full", "count", b.flush_full as f64),
        lower("batch.flush_timer", "count", b.flush_timer as f64),
        lower("batch.flush_drain", "count", b.flush_drain as f64),
        higher("cache.hits", "count", c.hits as f64),
        lower("cache.misses", "count", c.misses as f64),
        higher("cache.hit_rate", "ratio", c.hit_rate()),
        lower("cache.invalidations", "count", c.invalidations as f64),
        lower("cache.recall_messages", "count", c.recall_messages as f64),
        lower("cache.expirations", "count", c.expirations as f64),
        lower("cache.evictions", "count", c.evictions as f64),
        higher("cache.negative_hits", "count", c.negative_hits as f64),
        lower("elastic.splits", "count", sum(|s| s.splits)),
        lower("elastic.merges", "count", sum(|s| s.merges)),
        lower("elastic.migrations", "count", sum(|s| s.migrations)),
        lower("fault.crashes", "count", f.crashes as f64),
        lower("fault.nacks", "count", f.nacks as f64),
        lower("fault.retries", "count", f.retries as f64),
        lower(
            "fault.retries_per_op",
            "ratio",
            ratio(f.retries as f64, o.steps as f64),
        ),
        lower("fault.exhausted", "count", f.exhausted as f64),
        lower("fault.replayed_ops", "count", f.replayed_ops as f64),
        lower("fault.lost_acked_ops", "count", f.lost_acked_ops as f64),
        lower("fault.fenced_leases", "count", f.fenced_leases as f64),
        lower("fault.fenced_sessions", "count", f.fenced_sessions as f64),
        lower("fault.promotions", "count", f.promotions as f64),
        lower("fault.lag_replayed", "count", f.lag_replayed as f64),
        lower("fault.admission_defers", "count", f.admission_defers as f64),
        lower(
            "fault.max_backoff_depth",
            "count",
            f64::from(f.max_backoff_depth),
        ),
        lower("under.calls", "count", t.under_calls),
        lower("under.wall_s", "s", t.under_wall),
        lower(
            "under.ns_per_call",
            "ns",
            ratio(t.under_wall * 1e9, t.under_calls),
        ),
        lower("under.virt_ms", "ms", t.under_virt_ms),
        // A share rather than a per-call time: `MemFs` charges every
        // call the same fixed cost, so a per-call time would read the
        // same on every run of the three MemFs workloads.
        lower(
            "under.virt_frac",
            "ratio",
            ratio(t.under_virt_ms, t.cofs_virt_ms),
        ),
    ]);
    out.extend(
        l.counts
            .iter()
            .filter(|(name, _)| !name.starts_with("cofs."))
            .map(|(&name, &v)| {
                if name.ends_with("hits") {
                    higher(name, "count", v as f64)
                } else {
                    lower(name, "count", v as f64)
                }
            }),
    );
    out
}
