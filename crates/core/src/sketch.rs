//! Streaming (single-pass, bounded-state) summary statistics for
//! million-request traces.
//!
//! The serving engines in `lat-hwsim` historically retained every
//! per-request latency sample and sorted the full population at report
//! time, so trace size was memory-bound long before it was compute-bound.
//! This module provides the on-line replacements the engines route through
//! when a report is built under `ReportMode::Streaming`:
//!
//! - [`StreamingStats`]: count/mean/min/max in O(1) state, NaN-poisoning
//!   exactly like `lat_tensor::stats::summarize` (one NaN observation
//!   poisons every moment uniformly — no finite min beside a NaN mean).
//! - [`QuantileSketch`]: a log-bucketed (DDSketch-style) quantile sketch
//!   plus a [`StreamingStats`]. Any quantile is within [`ALPHA`] = 1%
//!   relative error of the exact nearest-rank value, whatever the input
//!   order. State is one integer count per occupied bucket — about 35
//!   buckets per doubling of the value range.
//!
//! Everything here is deterministic: no ambient RNG, no wall clock, no
//! hash-order iteration. Bucket counts do not depend on observation
//! order, and [`QuantileSketch::merge`] adds them, so per-chunk sketches
//! produced under `Scheduler::par_map_indexed` fan-out fold to
//! bit-identical quantiles for any worker count and any chunk order.

/// How an engine builds its report.
///
/// - [`ReportMode::Exact`] retains every per-request sample and computes
///   nearest-rank percentiles over the sorted population — bit-identical
///   to the historical reports, O(n) memory.
/// - [`ReportMode::Streaming`] feeds each sample into a [`QuantileSketch`]
///   as it is produced and drops it, so a million-request trace runs in
///   bounded memory. Percentiles are sketch estimates within [`ALPHA`]
///   (1%) of the exact path; per-request vectors in the report (`batch_log`,
///   decode `requests`, failure `outcomes`) are left empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportMode {
    /// Retain all samples; reports are bit-identical to the pre-sketch era.
    #[default]
    Exact,
    /// Streaming sketches; bounded memory, percentiles within 1%.
    Streaming,
}

/// Count/mean/min/max accumulator in O(1) state.
///
/// NaN observations poison the whole summary uniformly (mean, min and max
/// all become NaN), mirroring `lat_tensor::stats::summarize`; the count
/// still includes poisoned observations. Min/max use `total_cmp`, so a
/// clean stream containing signed zeros orders them deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingStats {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    poisoned: bool,
}

impl Default for StreamingStats {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            poisoned: false,
        }
    }

    /// Feeds one observation.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        if x.is_nan() {
            self.poisoned = true;
            return;
        }
        self.sum += x;
        if x.total_cmp(&self.min) == std::cmp::Ordering::Less {
            self.min = x;
        }
        if x.total_cmp(&self.max) == std::cmp::Ordering::Greater {
            self.max = x;
        }
    }

    /// Observations seen (including NaN observations).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether a NaN observation has poisoned the summary.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Arithmetic mean; NaN when empty or poisoned.
    pub fn mean(&self) -> f64 {
        if self.count == 0 || self.poisoned {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Sum of the (non-NaN) observations; NaN when poisoned.
    pub fn sum(&self) -> f64 {
        if self.poisoned {
            f64::NAN
        } else {
            self.sum
        }
    }

    /// Minimum; NaN when empty or poisoned.
    pub fn min(&self) -> f64 {
        if self.count == 0 || self.poisoned {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Maximum; NaN when empty or poisoned.
    pub fn max(&self) -> f64 {
        if self.count == 0 || self.poisoned {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Folds `other` in. Exact: the merged accumulator equals one fed the
    /// concatenated streams (sum re-association aside, which is the only
    /// way a merge order can show up — and only in the last bits of
    /// `mean`).
    pub fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.sum += other.sum;
        self.poisoned |= other.poisoned;
        if other.count > other.nan_count_proxy() {
            if other.min.total_cmp(&self.min) == std::cmp::Ordering::Less {
                self.min = other.min;
            }
            if other.max.total_cmp(&self.max) == std::cmp::Ordering::Greater {
                self.max = other.max;
            }
        }
    }

    /// `other.min/max` are the sentinels iff it never saw a non-NaN value;
    /// merging sentinels would be harmless (±inf never wins `total_cmp`
    /// against a finite value on the wrong side) but this keeps the
    /// intent explicit.
    fn nan_count_proxy(&self) -> u64 {
        if self.min == f64::INFINITY && self.max == f64::NEG_INFINITY {
            self.count
        } else {
            0
        }
    }
}

/// Relative-error guarantee of every [`QuantileSketch::quantile`]: the
/// estimate lies within `ALPHA` (1%) of the exact nearest-rank value.
pub const ALPHA: f64 = 0.01;

/// Bucket growth factor `γ = (1 + α) / (1 − α)`. Bucket `k` holds the
/// values in `(γ^(k−1), γ^k]`, whose representative `2γ^k / (γ + 1)`
/// is within `α` of every value in the bucket.
const GAMMA: f64 = (1.0 + ALPHA) / (1.0 - ALPHA);

/// Observations in `[0, X_MIN)` share one zero bucket and read back as 0,
/// an absolute error below `X_MIN`.
const X_MIN: f64 = 1e-9;

/// Log-bucketed quantile sketch (DDSketch: Masson, Rim & Lee, VLDB 2019)
/// plus a [`StreamingStats`] for count/mean/min/max, all fed by one
/// [`QuantileSketch::observe`] call per sample.
///
/// Any quantile can be queried, and every answer is within [`ALPHA`]
/// relative error of the exact nearest-rank value (plus `X_MIN` absolute
/// for values below it) for every input order. [`QuantileSketch::merge`]
/// adds integer bucket counts, so folding chunk sketches in any order, on
/// any worker count, yields bit-identical quantiles.
///
/// Negative and non-finite observations poison the sketch: its
/// quantiles read NaN from then on, and [`QuantileSketch::is_poisoned`]
/// says so. (The moments keep [`StreamingStats`]' NaN-only poisoning.)
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuantileSketch {
    stats: StreamingStats,
    /// Observations in `[0, X_MIN)`.
    zero: u64,
    /// `counts[i]` counts bucket `offset + i`; the vector spans exactly the
    /// lowest to the highest occupied bucket.
    counts: Vec<u64>,
    offset: i32,
    /// A negative or non-finite value was observed.
    poisoned: bool,
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one observation.
    pub fn observe(&mut self, x: f64) {
        self.stats.observe(x);
        if !(x >= 0.0 && x.is_finite()) {
            self.poisoned = true;
        } else if x < X_MIN {
            self.zero += 1;
        } else {
            self.add((x.ln() / GAMMA.ln()).ceil() as i32, 1);
        }
    }

    /// Adds `n` to bucket `k`, growing `counts` to cover it.
    fn add(&mut self, k: i32, n: u64) {
        if self.counts.is_empty() {
            self.offset = k;
        } else if k < self.offset {
            let grow = (self.offset - k) as usize;
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            self.offset = k;
        }
        let i = (k - self.offset) as usize;
        match self.counts.get_mut(i) {
            Some(c) => *c += n,
            None => {
                self.counts.resize(i, 0);
                self.counts.push(n);
            }
        }
    }

    /// Observations seen (including poisoning ones).
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Whether any observation poisoned the sketch.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned || self.stats.is_poisoned()
    }

    /// Mean of the observations; NaN when empty or poisoned.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Minimum observation; NaN when empty or poisoned.
    pub fn min(&self) -> f64 {
        self.stats.min()
    }

    /// Maximum observation; NaN when empty or poisoned.
    pub fn max(&self) -> f64 {
        self.stats.max()
    }

    /// Sum of the observations; NaN when poisoned.
    pub fn sum(&self) -> f64 {
        self.stats.sum()
    }

    /// Estimate of quantile `p`: the bucket holding the nearest-rank
    /// sample `round((n − 1)·p)` — the rank `lat_tensor::stats::percentile`
    /// reads — reported as `2γ^k / (γ + 1)` clamped into the observed
    /// `[min, max]` (which can only move it closer to the exact value).
    /// NaN when empty or poisoned.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile {p} outside [0,1]");
        let n = self.count();
        if n == 0 || self.is_poisoned() {
            return f64::NAN;
        }
        let rank = ((n - 1) as f64 * p).round() as u64;
        self.rank_value(rank).max(self.min()).min(self.max())
    }

    /// Representative value of the bucket holding the `rank`-th smallest
    /// observation (0-based).
    fn rank_value(&self, rank: u64) -> f64 {
        let mut seen = self.zero;
        if rank < seen {
            return 0.0;
        }
        for (k, &c) in (self.offset..).zip(&self.counts) {
            seen += c;
            if rank < seen {
                return 2.0 * GAMMA.powi(k) / (GAMMA + 1.0);
            }
        }
        // Unreachable for `rank < count()`: unpoisoned observations all
        // land in a bucket.
        f64::NAN
    }

    /// Folds `other` in by adding bucket counts: exact, so the merged
    /// quantiles are bit-identical to one sketch fed both streams, for
    /// any merge order. (Only the moments' `sum` re-associates.)
    pub fn merge(&mut self, other: &Self) {
        self.stats.merge(&other.stats);
        self.poisoned |= other.poisoned;
        self.zero += other.zero;
        for (k, &c) in (other.offset..).zip(&other.counts) {
            if c > 0 {
                self.add(k, c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_stats_matches_summarize() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut s = StreamingStats::new();
        for &x in &xs {
            s.observe(x);
        }
        assert_eq!(s.count(), xs.len() as u64);
        assert!((s.mean() - xs.iter().sum::<f64>() / xs.len() as f64).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn streaming_stats_nan_poisons_uniformly() {
        let mut s = StreamingStats::new();
        s.observe(1.0);
        s.observe(f64::NAN);
        s.observe(3.0);
        assert_eq!(s.count(), 3);
        assert!(s.is_poisoned());
        assert!(s.mean().is_nan());
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
    }

    #[test]
    fn streaming_stats_empty_is_nan_not_garbage() {
        let s = StreamingStats::new();
        assert_eq!(s.count(), 0);
        assert!(s.mean().is_nan());
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
        assert!(!s.is_poisoned());
    }

    #[test]
    fn streaming_stats_signed_zero_total_cmp() {
        let mut s = StreamingStats::new();
        s.observe(0.0);
        s.observe(-0.0);
        assert_eq!(s.min().to_bits(), (-0.0f64).to_bits());
        assert_eq!(s.max().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn streaming_stats_merge_is_exact() {
        let xs: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64).collect();
        let mut whole = StreamingStats::new();
        for &x in &xs {
            whole.observe(x);
        }
        let mut left = StreamingStats::new();
        let mut right = StreamingStats::new();
        for &x in &xs[..40] {
            left.observe(x);
        }
        for &x in &xs[40..] {
            right.observe(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert_eq!(left.min().to_bits(), whole.min().to_bits());
        assert_eq!(left.max().to_bits(), whole.max().to_bits());
        assert!((left.mean() - whole.mean()).abs() < 1e-12);
    }

    /// Relative error of `got` against `want`.
    fn rel_err(got: f64, want: f64) -> f64 {
        (got - want).abs() / want.abs()
    }

    fn fed(xs: impl IntoIterator<Item = f64>) -> QuantileSketch {
        let mut s = QuantileSketch::new();
        for x in xs {
            s.observe(x);
        }
        s
    }

    #[test]
    fn sketch_empty_is_nan() {
        let s = QuantileSketch::new();
        assert_eq!(s.count(), 0);
        assert!(!s.is_poisoned());
        for p in [0.0, 0.5, 1.0] {
            assert!(s.quantile(p).is_nan());
        }
    }

    #[test]
    fn sketch_zero_and_sub_x_min_land_in_zero_bucket() {
        let s = fed([0.0, -0.0, X_MIN / 2.0, 1e-12]);
        assert!(!s.is_poisoned());
        assert_eq!(s.zero, 4);
        assert!(s.counts.is_empty());
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.quantile(1.0), 0.0);
        // Ranks past the zero bucket reach the regular buckets.
        let s = fed([0.0, 1.0]);
        assert_eq!(s.quantile(0.0), 0.0);
        assert!(rel_err(s.quantile(1.0), 1.0) <= ALPHA);
    }

    #[test]
    fn sketch_poisons_on_negative_or_non_finite() {
        for bad in [
            -1.0,
            -X_MIN / 2.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let mut s = fed((1..=100).map(f64::from));
            s.observe(bad);
            assert!(s.is_poisoned(), "{bad} must poison");
            assert!(s.quantile(0.5).is_nan(), "{bad}: quantile must read NaN");
            assert_eq!(s.count(), 101);
        }
    }

    #[test]
    fn sketch_single_sample_within_alpha() {
        for x in [X_MIN, 1e-6, 8.07e-4, 1.0, 3.0, 1e9, 1e300] {
            let s = fed([x]);
            for p in [0.0, 0.5, 1.0] {
                let q = s.quantile(p);
                assert!(rel_err(q, x) <= ALPHA, "{x} at q{p}: {q}");
            }
        }
    }

    #[test]
    fn sketch_descending_feed_within_alpha() {
        // The feed that starves P²'s upper markers: largest values first.
        let xs: Vec<f64> = (1..=20_000).rev().map(|i| f64::from(i) * 1e-4).collect();
        let s = fed(xs.iter().copied());
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        for p in [0.50, 0.95, 0.99] {
            let exact = sorted[((sorted.len() - 1) as f64 * p).round() as usize];
            let q = s.quantile(p);
            assert!(rel_err(q, exact) <= ALPHA, "q{p}: {q} vs exact {exact}");
        }
    }

    #[test]
    fn sketch_median_of_uniform_ramp() {
        let s = fed((0..10_001).map(|i| f64::from(i) / 10.0));
        // True median of the 0.0..=1000.0 uniform grid is 500.
        assert!(rel_err(s.quantile(0.50), 500.0) <= ALPHA);
    }

    #[test]
    fn sketch_p99_of_uniform_ramp() {
        let s = fed((0..10_001).map(|i| f64::from(i) / 10.0));
        assert!(rel_err(s.quantile(0.99), 990.0) <= ALPHA);
    }

    #[test]
    fn sketch_deterministic_replay() {
        let feed = |seed: u64| {
            let mut state = seed;
            fed((0..5000).map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            }))
        };
        let a = feed(42);
        assert_eq!(a, feed(42));
        assert_eq!(
            a.quantile(0.95).to_bits(),
            feed(42).quantile(0.95).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn sketch_quantile_range_checked() {
        let _ = fed([1.0]).quantile(1.5);
    }

    #[test]
    fn sketch_bucket_count_is_bounded_by_range() {
        for (lo, hi) in [(1.0, 1.0), (1e-3, 2e-3), (1e-6, 1e3), (X_MIN, 1e12)] {
            // Geometric sweep of [lo, hi], endpoints included.
            let s = fed((0..=1000).map(|i| lo * (hi / lo).powf(f64::from(i) / 1000.0)));
            let bound = ((hi / lo).ln() / GAMMA.ln()).ceil() + 1.0;
            assert!(
                s.counts.len() as f64 <= bound,
                "[{lo}, {hi}]: {} buckets > {bound}",
                s.counts.len()
            );
            let occupied = |c: Option<&u64>| c.is_some_and(|&c| c > 0);
            assert!(occupied(s.counts.first()) && occupied(s.counts.last()));
        }
    }

    #[test]
    fn sketch_merge_count_is_exact() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 1000) as f64).collect();
        let mut a = fed(xs[..600].iter().copied());
        a.merge(&fed(xs[600..].iter().copied()));
        assert_eq!(a.count(), 1000);
        assert_eq!(a.min(), 0.0);
        assert_eq!(a.max(), 999.0);
        // Integer bucket addition: the merged buckets are the whole stream's.
        let whole = fed(xs.iter().copied());
        assert_eq!(
            (a.zero, a.offset, &a.counts),
            (whole.zero, whole.offset, &whole.counts)
        );
        assert!(rel_err(a.quantile(0.50), 500.0) <= ALPHA);
    }

    #[test]
    fn sketch_merge_with_empty_is_identity() {
        let mut a = fed((0..100).map(f64::from));
        let before = a.clone();
        a.merge(&QuantileSketch::new());
        assert_eq!(a, before);
        let mut empty = QuantileSketch::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn report_mode_default_is_exact() {
        assert_eq!(ReportMode::default(), ReportMode::Exact);
    }
}
