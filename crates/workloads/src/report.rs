//! Plain-text tables and series for benchmark output.
//!
//! The bench binaries print the same rows/series the paper's figures
//! plot; these helpers keep the formatting consistent and also emit
//! CSV for post-processing.

use cofs::batch::BatchStats;
use cofs::client_cache::CacheStats;
use cofs::fault::FaultSummary;
use cofs::mds_cluster::ShardUsage;
use simcore::time::SimTime;
use std::fmt;

/// A simple aligned text table.
///
/// # Examples
///
/// ```
/// use workloads::report::Table;
///
/// let mut t = Table::new(vec!["files/node", "gpfs (ms)", "cofs (ms)"]);
/// t.row(vec!["32".into(), "18.2".into(), "2.1".into()]);
/// let text = t.render();
/// assert!(text.contains("files/node"));
/// assert!(text.contains("18.2"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// The column headers (for machine-readable exports).
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows (for machine-readable exports).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// True if there are no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{:<width$}", c, width = widths[i]));
            }
            out.push('\n');
        };
        line(&self.headers, &widths, &mut out);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            line(row, &widths, &mut out);
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a milliseconds value the way the paper's figures read.
pub fn ms(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a MiB/s value.
pub fn mibs(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a 0–1 fraction as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Renders per-shard metadata-service load as a table, so skewed
/// namespace partitions are visible at a glance in scenario reports.
/// `makespan` is the phase wall time the utilization column is
/// computed against. It prints the load every storm puts on a shard;
/// the batching, two-phase, recall, memoization, bypass, coalescing and
/// apply-lag counts stay in [`ShardUsage`] for the reports of storms
/// that exercise them.
///
/// # Examples
///
/// ```
/// use cofs::mds_cluster::ShardUsage;
/// use simcore::time::{SimDuration, SimTime};
/// use workloads::report::shard_utilization_table;
///
/// let usage = vec![ShardUsage {
///     shard: 0,
///     rpcs: 10,
///     busy: SimDuration::from_millis(5),
///     mean_wait: SimDuration::from_micros(40),
///     two_phase: 1,
///     recalls: 0,
///     batches: 0,
///     reads_charged: 30,
///     reads_memoized: 0,
///     read_bypasses: 0,
///     journal_appends: 0,
///     rows_coalesced: 0,
///     apply_lag: SimDuration::ZERO,
///     splits: 0,
///     merges: 0,
///     migrations: 0,
/// }];
/// let t = shard_utilization_table(&usage, SimTime::from_millis(10));
/// assert!(t.render().contains("50.0%"));
/// ```
pub fn shard_utilization_table(usage: &[ShardUsage], makespan: SimTime) -> Table {
    let mut t = Table::new(vec![
        "shard",
        "rpcs",
        "busy (ms)",
        "util",
        "skew",
        "mean wait (ms)",
        "reads",
        "appends",
        "splits",
        "merges",
        "migr",
    ]);
    let span = makespan.as_secs_f64();
    let mean_busy = if usage.is_empty() {
        0.0
    } else {
        usage.iter().map(|u| u.busy.as_secs_f64()).sum::<f64>() / usage.len() as f64
    };
    for u in usage {
        let util = if span > 0.0 {
            u.busy.as_secs_f64() / span
        } else {
            0.0
        };
        let skew = if mean_busy > 0.0 {
            u.busy.as_secs_f64() / mean_busy
        } else {
            0.0
        };
        t.row(vec![
            u.shard.to_string(),
            u.rpcs.to_string(),
            ms(u.busy.as_millis_f64()),
            pct(util),
            format!("{skew:.2}"),
            ms(u.mean_wait.as_millis_f64()),
            u.reads_charged.to_string(),
            u.journal_appends.to_string(),
            u.splits.to_string(),
            u.merges.to_string(),
            u.migrations.to_string(),
        ]);
    }
    t
}

/// The skew of a per-shard load sample: max over mean CPU busy time
/// (1.0 = perfectly balanced, `shards` = everything on one shard,
/// 0.0 = no load at all). The scenario-level number the elastic
/// policy's rebalancing is judged by — the per-shard tables carry the
/// same ratio per row.
///
/// # Examples
///
/// ```
/// use cofs::mds_cluster::ShardUsage;
/// use simcore::time::SimDuration;
/// use workloads::report::shard_skew;
///
/// let mk = |shard, millis| ShardUsage {
///     shard,
///     rpcs: 0,
///     busy: SimDuration::from_millis(millis),
///     mean_wait: SimDuration::ZERO,
///     two_phase: 0,
///     recalls: 0,
///     batches: 0,
///     reads_charged: 0,
///     reads_memoized: 0,
///     read_bypasses: 0,
///     journal_appends: 0,
///     rows_coalesced: 0,
///     apply_lag: SimDuration::ZERO,
///     splits: 0,
///     merges: 0,
///     migrations: 0,
/// };
/// // All load on one of two shards: skew = max/mean = 2.0.
/// assert_eq!(shard_skew(&[mk(0, 8), mk(1, 0)]), 2.0);
/// assert_eq!(shard_skew(&[mk(0, 4), mk(1, 4)]), 1.0);
/// assert_eq!(shard_skew(&[]), 0.0);
/// ```
pub fn shard_skew(usage: &[ShardUsage]) -> f64 {
    if usage.is_empty() {
        return 0.0;
    }
    let mean = usage.iter().map(|u| u.busy.as_secs_f64()).sum::<f64>() / usage.len() as f64;
    if mean <= 0.0 {
        return 0.0;
    }
    let max = usage
        .iter()
        .map(|u| u.busy.as_secs_f64())
        .fold(0.0, f64::max);
    max / mean
}

/// The read-latency columns scenario tables append when a run measures
/// synchronous reads: `stat` p50 and p99 in milliseconds. Makespan
/// alone hides head-of-line blocking — a storm can finish at the same
/// time while its interactive stats wait out whole batch lumps — so
/// the priority-lane studies report these tail columns per storm.
pub const READ_LAT_COLUMNS: [&str; 2] = ["stat p50 (ms)", "stat p99 (ms)"];

/// Formats a scenario's stat-latency percentiles into the
/// [`READ_LAT_COLUMNS`] cells (dashes when the storm measured no
/// stats, so rows with and without read traffic align).
///
/// # Examples
///
/// ```
/// use workloads::report::read_latency_cells;
///
/// assert_eq!(read_latency_cells(Some((0.5, 2.25))), vec!["0.50", "2.25"]);
/// assert_eq!(read_latency_cells(None), vec!["-", "-"]);
/// ```
pub fn read_latency_cells(p50_p99_ms: Option<(f64, f64)>) -> Vec<String> {
    match p50_p99_ms {
        Some((p50, p99)) => vec![ms(p50), ms(p99)],
        None => vec!["-".into(); READ_LAT_COLUMNS.len()],
    }
}

/// The client-cache columns scenario tables append when a run reports
/// cache statistics: hits, misses, hit rate, invalidations, recall
/// messages. A run without a cache (or with it disabled) renders as
/// dashes so cache-on and cache-off rows align in one table.
pub const CACHE_COLUMNS: [&str; 5] = ["hits", "misses", "hit rate", "invald", "recalls"];

/// Formats [`CacheStats`] into the [`CACHE_COLUMNS`] cells.
///
/// # Examples
///
/// ```
/// use cofs::client_cache::CacheStats;
/// use workloads::report::cache_cells;
///
/// let cells = cache_cells(Some(&CacheStats { hits: 3, misses: 1, ..Default::default() }));
/// assert_eq!(cells[2], "75.0%");
/// assert_eq!(cache_cells(None)[0], "-");
/// ```
pub fn cache_cells(stats: Option<&CacheStats>) -> Vec<String> {
    match stats {
        Some(s) => vec![
            s.hits.to_string(),
            s.misses.to_string(),
            pct(s.hit_rate()),
            s.invalidations.to_string(),
            s.recall_messages.to_string(),
        ],
        None => vec!["-".into(); CACHE_COLUMNS.len()],
    }
}

/// The batching columns scenario tables append when a run reports
/// batch statistics: wire batches issued, mean operations per batch,
/// and how batches closed (full vs. timer/drain). A run without
/// batching renders as dashes so batching-on and -off rows align.
pub const BATCH_COLUMNS: [&str; 4] = ["batches", "ops/batch", "full", "timed"];

/// Formats [`BatchStats`] into the [`BATCH_COLUMNS`] cells.
///
/// # Examples
///
/// ```
/// use cofs::batch::BatchStats;
/// use workloads::report::batch_cells;
///
/// let s = BatchStats { ops_enqueued: 8, batches_issued: 2, flush_full: 2, ..Default::default() };
/// assert_eq!(batch_cells(Some(&s))[1], "4.0");
/// assert_eq!(batch_cells(None)[0], "-");
/// ```
pub fn batch_cells(stats: Option<&BatchStats>) -> Vec<String> {
    match stats {
        Some(s) => vec![
            s.batches_issued.to_string(),
            format!("{:.1}", s.mean_batch_ops()),
            s.flush_full.to_string(),
            (s.flush_timer + s.flush_drain).to_string(),
        ],
        None => vec!["-".into(); BATCH_COLUMNS.len()],
    }
}

/// The failover columns scenario tables append when a run reports a
/// [`FaultSummary`]: client retries and cluster refusals, steps that
/// exhausted retries (`EIO`), journal rows replayed vs. lost across the
/// crash, standby promotions and the replication-lag rows they
/// replayed, admission deferrals and partition refusals, how the `EIO`
/// damage spread across nodes (distinct nodes, worst per-node count,
/// deepest backoff rung), then the availability gap and recovery CPU,
/// both in milliseconds. A fault-free run (plan unarmed) renders as
/// dashes so baseline and crash rows align in one table.
pub const FAULT_COLUMNS: [&str; 14] = [
    "retries",
    "nacks",
    "errors",
    "replayed",
    "lost acked",
    "fenced",
    "promoted",
    "lag rows",
    "deferred",
    "cut off",
    "eio nodes",
    "max depth",
    "gap (ms)",
    "recovery (ms)",
];

/// Formats a [`FaultSummary`] into the [`FAULT_COLUMNS`] cells.
///
/// # Examples
///
/// ```
/// use cofs::fault::FaultSummary;
/// use workloads::report::fault_cells;
///
/// let s = FaultSummary { retries: 9, gap_ms: 12.5, ..Default::default() };
/// assert_eq!(fault_cells(Some(&s))[0], "9");
/// assert_eq!(fault_cells(Some(&s))[12], "12.50");
/// assert_eq!(fault_cells(None)[0], "-");
/// ```
pub fn fault_cells(summary: Option<&FaultSummary>) -> Vec<String> {
    match summary {
        Some(s) => vec![
            s.retries.to_string(),
            s.nacks.to_string(),
            s.errors.to_string(),
            s.replayed_ops.to_string(),
            s.lost_acked_ops.to_string(),
            s.fenced_leases.to_string(),
            s.promotions.to_string(),
            s.lag_replayed.to_string(),
            s.admission_defers.to_string(),
            s.partition_nacks.to_string(),
            s.eio_nodes.to_string(),
            s.max_backoff_depth.to_string(),
            ms(s.gap_ms),
            ms(s.recovery_ms),
        ],
        None => vec!["-".into(); FAULT_COLUMNS.len()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.row(vec!["xxxxxxxx".into(), "1".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a "));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new(vec!["k", "v"]);
        t.row(vec!["a,b".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        Table::new(vec!["a"]).row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn number_formats() {
        assert_eq!(ms(1.2345), "1.23");
        assert_eq!(mibs(102.34), "102.3");
        assert_eq!(pct(0.256), "25.6%");
    }

    #[test]
    fn batch_cells_align_with_columns() {
        let s = BatchStats {
            ops_enqueued: 12,
            batches_issued: 3,
            flush_full: 2,
            flush_timer: 1,
            flush_drain: 0,
            largest_batch: 6,
        };
        let cells = batch_cells(Some(&s));
        assert_eq!(cells.len(), BATCH_COLUMNS.len());
        assert_eq!(cells, vec!["3", "4.0", "2", "1"]);
        assert!(batch_cells(None).iter().all(|c| c == "-"));
    }

    #[test]
    fn cache_cells_align_with_columns() {
        let s = CacheStats {
            hits: 9,
            misses: 1,
            invalidations: 2,
            recall_messages: 3,
            ..Default::default()
        };
        let cells = cache_cells(Some(&s));
        assert_eq!(cells.len(), CACHE_COLUMNS.len());
        assert_eq!(cells, vec!["9", "1", "90.0%", "2", "3"]);
        let dashes = cache_cells(None);
        assert!(dashes.iter().all(|c| c == "-"));
    }

    #[test]
    fn table_exposes_headers_and_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.headers(), ["a", "b"]);
        assert_eq!(t.rows(), [vec!["1".to_string(), "2".to_string()]]);
    }

    #[test]
    fn shard_table_shows_skew() {
        use simcore::time::SimDuration;
        let usage = vec![
            ShardUsage {
                shard: 0,
                rpcs: 90,
                busy: SimDuration::from_millis(9),
                mean_wait: SimDuration::from_micros(500),
                two_phase: 0,
                recalls: 4,
                batches: 12,
                reads_charged: 180,
                reads_memoized: 45,
                read_bypasses: 7,
                journal_appends: 12,
                rows_coalesced: 33,
                apply_lag: SimDuration::from_micros(480),
                splits: 2,
                merges: 1,
                migrations: 5,
            },
            ShardUsage {
                shard: 1,
                rpcs: 10,
                busy: SimDuration::from_millis(1),
                mean_wait: SimDuration::ZERO,
                two_phase: 0,
                recalls: 0,
                batches: 0,
                reads_charged: 20,
                reads_memoized: 0,
                read_bypasses: 0,
                journal_appends: 0,
                rows_coalesced: 0,
                apply_lag: SimDuration::ZERO,
                splits: 0,
                merges: 0,
                migrations: 0,
            },
        ];
        let t = shard_utilization_table(&usage, SimTime::from_millis(10));
        let text = t.render();
        assert!(text.contains("90.0%"), "{text}");
        assert!(text.contains("10.0%"), "{text}");
        // Per-row skew: busy 9 ms and 1 ms against a 5 ms mean.
        assert!(text.contains("1.80"), "{text}");
        assert!(text.contains("0.20"), "{text}");
        assert!((shard_skew(&usage) - 1.8).abs() < 1e-9);
        // The elastic split/merge/migration counters are visible.
        assert!(text.contains("splits"), "{text}");
        assert!(text.contains("migr"), "{text}");
        // So is the journal append count.
        assert!(text.contains("appends"), "{text}");
        assert_eq!(t.len(), 2);
        // A zero makespan must not divide by zero.
        let z = shard_utilization_table(&usage, SimTime::ZERO);
        assert!(z.render().contains("0.0%"));
    }
}
