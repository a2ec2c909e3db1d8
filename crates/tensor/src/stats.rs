//! Small statistics helpers shared by the evaluation harnesses
//! (summaries, percentiles, histograms for printed reports).

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

/// Computes [`Summary`] statistics; `None` for an empty slice.
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    if xs.is_empty() {
        return None;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    // NaN must poison the whole summary uniformly. `f64::min`/`max` silently
    // ignore NaN, which used to yield self-contradictory summaries (NaN
    // mean/std beside finite min/max); a `total_cmp` fold keeps min/max
    // NaN-free only when the data is.
    let (min, max) = if xs.iter().any(|x| x.is_nan()) {
        (f64::NAN, f64::NAN)
    } else {
        xs.iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (
                    if x.total_cmp(&lo) == std::cmp::Ordering::Less {
                        x
                    } else {
                        lo
                    },
                    if x.total_cmp(&hi) == std::cmp::Ordering::Greater {
                        x
                    } else {
                        hi
                    },
                )
            })
    };
    Some(Summary {
        count: xs.len(),
        mean,
        std: var.sqrt(),
        min,
        max,
    })
}

/// `p`-th percentile (0.0–1.0) by nearest-rank on a copy of the data;
/// `None` for an empty slice. NaN-bearing input never panics: under
/// `total_cmp` NaNs rank after `+inf`, so they only surface at the top
/// percentiles.
///
/// The rank is found by selection, not a full sort: nearest rank under a
/// total order names one value to the bit, so the result is the sorted
/// copy's element at that rank.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    percentiles(xs, &[p]).and_then(|v| v.first().copied())
}

/// Several nearest-rank percentiles of one sample from a single working
/// copy — the report builders ask for p50/p95/p99 (and TTFT/ITL triples)
/// of the same sample. Each returned value is bit-identical to
/// `percentile(xs, p)` for the corresponding `p`, in the order of `ps`
/// (which need not be ascending); `None` for an empty slice.
///
/// The ranks are selected in ascending order, each within the part of the
/// copy that the previous selection left at or above its rank, so the
/// total cost is linear in `xs.len()` per distinct rank and no sort
/// scratch buffer is allocated.
///
/// # Panics
///
/// Panics if any `p` is outside `[0, 1]`.
pub fn percentiles(xs: &[f64], ps: &[f64]) -> Option<Vec<f64>> {
    for &p in ps {
        assert!((0.0..=1.0).contains(&p), "percentile {p} outside [0,1]");
    }
    if xs.is_empty() {
        return None;
    }
    let mut work = xs.to_vec();
    let mut ranks: Vec<(usize, usize)> = ps
        .iter()
        .enumerate()
        .map(|(i, &p)| (rank(xs.len(), p), i))
        .collect();
    ranks.sort_unstable();
    let mut out = vec![0.0; ps.len()];
    // Everything at or after `lo` is >= every value selected so far.
    let mut lo = 0;
    for (idx, i) in ranks {
        if let (Some(rest), Some(slot)) = (work.get_mut(lo..), out.get_mut(i)) {
            let (_, &mut v, _) = rest.select_nth_unstable_by(idx - lo, f64::total_cmp);
            *slot = v;
        }
        lo = idx;
    }
    Some(out)
}

/// Nearest-rank index of percentile `p` in a sample of `n` values (shared
/// by [`percentile`] and [`percentiles`] so the two can never drift).
fn rank(n: usize, p: f64) -> usize {
    ((n as f64 - 1.0) * p).round() as usize
}

/// Fixed-width histogram over `[lo, hi)` with `bins` buckets; values
/// outside the range clamp to the edge buckets.
///
/// # Panics
///
/// Panics if `bins == 0`, `lo >= hi`, or the data contains NaN (previously
/// NaN was silently counted in bin 0 via `NaN.max(0.0)`).
pub fn histogram(xs: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<usize> {
    assert!(bins > 0, "need at least one bin");
    assert!(lo < hi, "empty histogram range");
    let mut counts = vec![0usize; bins];
    let width = (hi - lo) / bins as f64;
    for &x in xs {
        assert!(!x.is_nan(), "no NaNs in histogram data");
        let idx = ((x - lo) / width).floor();
        let idx = (idx.max(0.0) as usize).min(bins - 1);
        counts[idx] += 1;
    }
    counts
}

/// Renders a histogram as a one-line-per-bin ASCII bar chart.
pub fn render_histogram(counts: &[usize], lo: f64, hi: f64, width: usize) -> String {
    let max = counts.iter().copied().max().unwrap_or(0).max(1);
    let bin_width = (hi - lo) / counts.len().max(1) as f64;
    let mut out = String::new();
    for (i, &c) in counts.iter().enumerate() {
        let bar = "#".repeat(c * width / max);
        out.push_str(&format!(
            "[{:>8.1}, {:>8.1}) {:>6} |{}\n",
            lo + i as f64 * bin_width,
            lo + (i + 1) as f64 * bin_width,
            c,
            bar
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_known_values() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn percentile_nan_input_does_not_panic() {
        // Regression: the comparator used to be partial_cmp().expect(),
        // which panicked the whole report path on a single NaN sample.
        // total_cmp sorts NaNs after +inf, so low/mid percentiles of a
        // mostly-finite sample stay finite and p100 surfaces the NaN.
        let xs = [2.0, f64::NAN, 1.0, 3.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 0.5), Some(3.0));
        assert!(percentile(&xs, 1.0).unwrap().is_nan());
        assert!(percentile(&[f64::NAN], 0.5).unwrap().is_nan());
    }

    #[test]
    fn summarize_nan_poisons_uniformly() {
        // Regression: min/max used f64::min/max, which skip NaN — a NaN
        // sample produced NaN mean/std beside finite min/max. All four
        // moments must now agree that the data is poisoned.
        let s = summarize(&[1.0, f64::NAN, 3.0]).unwrap();
        assert_eq!(s.count, 3);
        assert!(s.mean.is_nan());
        assert!(s.std.is_nan());
        assert!(s.min.is_nan(), "min must surface NaN like mean does");
        assert!(s.max.is_nan(), "max must surface NaN like mean does");
        // And a clean sample stays clean, signed zeros ordered by total_cmp.
        let s = summarize(&[-0.0, 0.0, 2.0]).unwrap();
        assert_eq!(s.min.to_bits(), (-0.0f64).to_bits());
        assert_eq!(s.max, 2.0);
    }

    #[test]
    fn percentiles_match_percentile_bit_for_bit() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0, 2.5, 4.5, 0.5];
        let ps = [0.0, 0.25, 0.5, 0.95, 0.99, 1.0];
        let batch = percentiles(&xs, &ps).unwrap();
        for (&p, &got) in ps.iter().zip(&batch) {
            assert_eq!(
                got.to_bits(),
                percentile(&xs, p).unwrap().to_bits(),
                "batch percentile p={p} drifted from the single-p path"
            );
        }
        assert_eq!(percentiles(&[], &ps), None);
        assert_eq!(percentiles(&xs, &[]), Some(Vec::new()));
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn percentiles_range_checked() {
        let _ = percentiles(&[1.0], &[0.5, 1.5]);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 0.5), Some(3.0));
        assert_eq!(percentile(&xs, 1.0), Some(5.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn percentile_range_checked() {
        let _ = percentile(&[1.0], 1.5);
    }

    #[test]
    fn histogram_counts_and_clamps() {
        let xs = [0.5, 1.5, 2.5, -10.0, 10.0];
        let h = histogram(&xs, 0.0, 3.0, 3);
        assert_eq!(h, vec![2, 1, 2]); // -10 clamps left, 10 clamps right
        assert_eq!(h.iter().sum::<usize>(), xs.len());
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_zero_bins_panics() {
        let _ = histogram(&[1.0], 0.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "no NaNs in histogram data")]
    fn histogram_nan_panics() {
        // NaN used to clamp into bin 0, silently corrupting the counts.
        let _ = histogram(&[0.5, f64::NAN], 0.0, 1.0, 2);
    }

    #[test]
    fn render_histogram_shape() {
        let h = histogram(&[0.1, 0.1, 0.9], 0.0, 1.0, 2);
        let s = render_histogram(&h, 0.0, 1.0, 20);
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains('#'));
    }
}
