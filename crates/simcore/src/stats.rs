//! Online statistics for simulation measurements.
//!
//! Benchmark harnesses record one sample per operation; the paper
//! reports *average time per operation*, so [`Summary`] keeps exact
//! mean/min/max plus Welford variance, and retains the raw samples so
//! quantiles can be computed after the run.

use crate::time::SimDuration;
use std::fmt;

/// A collection of duration samples with summary statistics.
///
/// # Examples
///
/// ```
/// use simcore::stats::Summary;
/// use simcore::time::SimDuration;
///
/// let mut s = Summary::new("create");
/// s.record(SimDuration::from_millis(2));
/// s.record(SimDuration::from_millis(4));
/// assert_eq!(s.mean().as_millis(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Summary {
    name: String,
    samples: Vec<SimDuration>,
    sum_ns: u128,
    min: SimDuration,
    max: SimDuration,
    mean_ns: f64,
    m2: f64,
}

impl Summary {
    /// Creates an empty summary with a diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        Summary {
            name: name.into(),
            samples: Vec::new(),
            sum_ns: 0,
            min: SimDuration::from_nanos(u64::MAX),
            max: SimDuration::ZERO,
            mean_ns: 0.0,
            m2: 0.0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d);
        self.sum_ns += d.as_nanos() as u128;
        self.min = self.min.min(d);
        self.max = self.max.max(d);
        let n = self.samples.len() as f64;
        let x = d.as_nanos() as f64;
        let delta = x - self.mean_ns;
        self.mean_ns += delta / n;
        self.m2 += delta * (x - self.mean_ns);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean (zero when empty).
    pub fn mean(&self) -> SimDuration {
        if self.samples.is_empty() {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos((self.sum_ns / self.samples.len() as u128) as u64)
        }
    }

    /// Mean in milliseconds as a float — the unit of the paper's figures.
    pub fn mean_millis(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.mean_ns / 1e6
        }
    }

    /// Smallest sample (zero when empty).
    pub fn min(&self) -> SimDuration {
        if self.samples.is_empty() {
            SimDuration::ZERO
        } else {
            self.min
        }
    }

    /// Largest sample (zero when empty).
    pub fn max(&self) -> SimDuration {
        self.max
    }

    /// Sum of all samples.
    pub fn total(&self) -> SimDuration {
        SimDuration::from_nanos(self.sum_ns.min(u64::MAX as u128) as u64)
    }

    /// Sample standard deviation (zero with fewer than two samples).
    pub fn std_dev_millis(&self) -> f64 {
        if self.samples.len() < 2 {
            0.0
        } else {
            (self.m2 / (self.samples.len() - 1) as f64).sqrt() / 1e6
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank on sorted samples.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "quantile must be within [0, 1]");
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = ((q * (sorted.len() - 1) as f64).round()) as usize;
        sorted[rank]
    }

    /// Diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All raw samples, in recording order.
    pub fn samples(&self) -> &[SimDuration] {
        &self.samples
    }

    /// Merges another summary's samples into this one.
    pub fn merge(&mut self, other: &Summary) {
        for &s in &other.samples {
            self.record(s);
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: n={} mean={:.3}ms min={} max={}",
            self.name,
            self.count(),
            self.mean_millis(),
            self.min(),
            self.max()
        )
    }
}

/// A named bag of counters for protocol-level events (token revocations,
/// cache misses, flushes, …). Keys are static strings so recording is
/// allocation-free after first use of each key.
///
/// A bag holds a handful of keys, so it is a short vector of slots kept
/// in key order. Recording finds its slot by the key's address first (a
/// call site passes the same literal every time) and only then by its
/// text, so keys with equal text share a slot wherever they come from.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// One `(key, count)` slot per key text, sorted by key.
    slots: Vec<(&'static str, u64)>,
}

impl Counters {
    /// Creates an empty counter bag.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Adds `n` to counter `key`.
    pub fn add(&mut self, key: &'static str, n: u64) {
        let slot = match self.slots.iter().position(|&(k, _)| std::ptr::eq(k, key)) {
            Some(i) => i,
            None => self.find(key).unwrap_or_else(|i| {
                self.slots.insert(i, (key, 0));
                i
            }),
        };
        self.slots[slot].1 += n;
    }

    /// The slot holding `key`'s text, or where it would be inserted.
    fn find(&self, key: &str) -> Result<usize, usize> {
        self.slots.binary_search_by(|&(k, _)| k.cmp(key))
    }

    /// Increments counter `key` by one.
    pub fn bump(&mut self, key: &'static str) {
        self.add(key, 1);
    }

    /// Current value of counter `key` (zero if never touched).
    pub fn get(&self, key: &str) -> u64 {
        self.find(key).map_or(0, |i| self.slots[i].1)
    }

    /// Iterates over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.slots.iter().copied()
    }

    /// Resets every counter to zero (removes all keys).
    pub fn reset(&mut self) {
        self.slots.clear();
    }

    /// Merges another bag into this one by summing matching keys.
    pub fn merge(&mut self, other: &Counters) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, v) in self.iter() {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{k}={v}")?;
            first = false;
        }
        if first {
            write!(f, "(no counters)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn empty_summary_is_all_zero() {
        let s = Summary::new("x");
        assert!(s.is_empty());
        assert_eq!(s.mean(), SimDuration::ZERO);
        assert_eq!(s.min(), SimDuration::ZERO);
        assert_eq!(s.max(), SimDuration::ZERO);
        assert_eq!(s.mean_millis(), 0.0);
        assert_eq!(s.quantile(0.5), SimDuration::ZERO);
    }

    #[test]
    fn mean_min_max() {
        let mut s = Summary::new("x");
        for v in [1, 2, 3, 4, 5] {
            s.record(ms(v));
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.mean(), ms(3));
        assert_eq!(s.min(), ms(1));
        assert_eq!(s.max(), ms(5));
        assert_eq!(s.total(), ms(15));
        assert!((s.mean_millis() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles() {
        let mut s = Summary::new("x");
        for v in 1..=100 {
            s.record(ms(v));
        }
        assert_eq!(s.quantile(0.0), ms(1));
        assert_eq!(s.quantile(1.0), ms(100));
        let median = s.quantile(0.5).as_millis();
        assert!((49..=51).contains(&median));
    }

    #[test]
    fn std_dev() {
        let mut s = Summary::new("x");
        for v in [2, 4, 4, 4, 5, 5, 7, 9] {
            s.record(ms(v));
        }
        // Known dataset: population sd = 2; sample sd ≈ 2.138.
        assert!((s.std_dev_millis() - 2.138).abs() < 0.01);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = Summary::new("a");
        a.record(ms(1));
        let mut b = Summary::new("b");
        b.record(ms(3));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), ms(2));
    }

    #[test]
    fn display_contains_name_and_count() {
        let mut s = Summary::new("stat");
        s.record(ms(2));
        let text = s.to_string();
        assert!(text.contains("stat"));
        assert!(text.contains("n=1"));
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn quantile_out_of_range_panics() {
        Summary::new("x").quantile(1.5);
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let mut c = Counters::new();
        c.bump("revocations");
        c.add("revocations", 2);
        c.bump("misses");
        assert_eq!(c.get("revocations"), 3);
        assert_eq!(c.get("misses"), 1);
        assert_eq!(c.get("unknown"), 0);
        let mut d = Counters::new();
        d.add("misses", 4);
        c.merge(&d);
        assert_eq!(c.get("misses"), 5);
        assert_eq!(c.iter().count(), 2);
        c.reset();
        assert_eq!(c.get("revocations"), 0);
        assert_eq!(c.to_string(), "(no counters)");
    }
}
