//! Property suite for the log-bucketed streaming quantile sketch —
//! isolated and fast so a sketch regression fails here first, before the
//! engine-level streaming suites run.
//!
//! Three property families:
//!
//! 1. **α-bound vs the exact reference**: sketch p50/p95/p99 stay within
//!    1% relative error of `lat_tensor::stats::percentile` on uniform,
//!    heavy-tailed and adversarial (sorted / reversed / spiked / bimodal)
//!    streams.
//! 2. **Merge-order invariance under Scheduler fan-out**: per-chunk
//!    sketches built through `Scheduler::par_map_indexed` fold to
//!    bit-identical results for any worker count, a single pairwise
//!    merge is bit-symmetric, and chunk-order permutations give
//!    bit-identical quantiles that also hold the α bound.
//! 3. **Seed-matrix determinism**: rebuilding the sketch from the same
//!    `HARNESS_SEED`-derived stream is bit-identical, for every seed in
//!    the matrix.

use lat_bench::scenarios::harness_seed;
use lat_fpga::core::pool::Scheduler;
use lat_fpga::core::sketch::QuantileSketch;
use lat_fpga::tensor::rng::SplitMix64;
use lat_fpga::tensor::stats;

/// Relative tolerance on every sketch percentile: the sketch's α
/// guarantee, and the contract the engine-level streaming suites pin.
const QUANTILE_EPS: f64 = 0.01;
/// Stream length — long enough for heavy tails to show, short enough
/// that the whole suite stays in the fast tier.
const STREAM_LEN: usize = 20_000;
/// The quantiles every report pins.
const PS: [f64; 3] = [0.50, 0.95, 0.99];

/// Sketch value must be within `QUANTILE_EPS` (relative) of the exact
/// nearest-rank value.
fn assert_quantile_pinned(tag: &str, p: f64, sketch: f64, sorted: &[f64]) {
    let exact = stats::percentile(sorted, p).expect("non-empty stream");
    let tol = exact.abs().max(1e-12) * QUANTILE_EPS + 1e-12;
    assert!(
        (sketch - exact).abs() <= tol,
        "{tag} q{p}: sketch {sketch} vs exact {exact} — outside ε {QUANTILE_EPS}"
    );
}

fn assert_sketch_pinned(tag: &str, sketch: &QuantileSketch, stream: &[f64]) {
    let mut sorted = stream.to_vec();
    sorted.sort_by(f64::total_cmp);
    for &p in &PS {
        assert_quantile_pinned(tag, p, sketch.quantile(p), &sorted);
    }
    // The exact moments ride along for free: count and mean are not
    // estimates, so they must match the reference bit-for-bit.
    assert_eq!(sketch.count(), stream.len() as u64, "{tag}: count");
    let exact_mean = stream.iter().sum::<f64>() / stream.len() as f64;
    assert!(
        (sketch.mean() - exact_mean).abs() <= exact_mean.abs() * 1e-12 + 1e-12,
        "{tag}: mean {} vs {exact_mean}",
        sketch.mean()
    );
}

fn build(stream: &[f64]) -> QuantileSketch {
    let mut sk = QuantileSketch::new();
    for &x in stream {
        sk.observe(x);
    }
    sk
}

// ---- deterministic stream generators -----------------------------------

fn uniform(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_f64()).collect()
}

/// Exponential(1) via inverse CDF — a mild heavy tail.
fn exponential(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| -(1.0 - rng.next_f64()).ln()).collect()
}

/// Pareto with α = 1.5 — infinite variance, the hostile heavy tail.
fn pareto(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| (1.0 - rng.next_f64()).powf(-1.0 / 1.5))
        .collect()
}

/// Latency-shaped bimodal mix: a 2 ms bulk with a 30% retried cohort one
/// decade slower (modes in adjacent decades, the shape the engine
/// produces under partial faults).
fn bimodal(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let jitter = 1.0 + 0.2 * rng.next_f64();
            if rng.next_f64() < 0.7 {
                0.002 * jitter
            } else {
                0.020 * jitter
            }
        })
        .collect()
}

/// Constant stream with rare large spikes — the degenerate-width case
/// (equal marker heights) plus an extreme-order-statistic tail.
fn constant_with_spikes(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| if rng.next_f64() < 0.01 { 100.0 } else { 1.0 })
        .collect()
}

// ---- 1. α-bound vs stats::percentiles ----------------------------------

#[test]
fn sketch_pinned_on_uniform_and_heavy_tailed_streams() {
    let seed = harness_seed();
    for (tag, stream) in [
        ("uniform", uniform(seed, STREAM_LEN)),
        ("exponential", exponential(seed ^ 1, STREAM_LEN)),
        ("pareto-1.5", pareto(seed ^ 2, STREAM_LEN)),
        ("bimodal", bimodal(seed ^ 3, STREAM_LEN)),
    ] {
        assert_sketch_pinned(tag, &build(&stream), &stream);
    }
}

#[test]
fn sketch_pinned_on_adversarial_orderings() {
    let seed = harness_seed();
    // Same population, hostile arrival orders. Bucket counts do not
    // depend on arrival order, so the sorted feeds — a descending feed
    // starves a marker-based estimator such as P² — build the very same
    // quantiles as the shuffled one, all within the α bound.
    let shuffled = uniform(seed, STREAM_LEN);
    let mut ascending = shuffled.clone();
    ascending.sort_by(f64::total_cmp);
    let descending: Vec<f64> = ascending.iter().rev().copied().collect();
    let reference = build(&shuffled);
    for (tag, stream) in [
        ("sorted-ascending", &ascending),
        ("sorted-descending", &descending),
    ] {
        let sk = build(stream);
        assert_sketch_pinned(tag, &sk, stream);
        for &p in &PS {
            assert_eq!(
                sk.quantile(p).to_bits(),
                reference.quantile(p).to_bits(),
                "{tag} q{p}: arrival order moved the estimate"
            );
        }
    }

    let spiky = constant_with_spikes(seed ^ 4, STREAM_LEN);
    let sk = build(&spiky);
    // 99% of the mass sits exactly at 1.0, the observed minimum; the
    // median must sit on the constant, not drift toward the spikes.
    let p50 = sk.quantile(0.50);
    assert!(
        (p50 - 1.0).abs() <= 1e-6,
        "constant bulk median drifted: {p50}"
    );
    assert_sketch_pinned("constant+spikes", &sk, &spiky);
}

#[test]
fn nan_poisons_the_sketch() {
    let mut sk = build(&uniform(harness_seed(), 512));
    assert!(!sk.is_poisoned());
    sk.observe(f64::NAN);
    assert!(sk.is_poisoned(), "NaN input must poison, not vanish");
    assert!(sk.quantile(0.95).is_nan(), "poisoned quantiles surface NaN");
}

// ---- 2. merge-order invariance under Scheduler fan-out ------------------

const CHUNKS: usize = 16;

fn chunked(stream: &[f64]) -> Vec<&[f64]> {
    let size = stream.len().div_ceil(CHUNKS);
    stream.chunks(size).collect()
}

fn fan_out_merge(pool: &Scheduler, chunks: &[&[f64]]) -> QuantileSketch {
    let parts = pool.par_map_indexed(chunks, |c| build(c));
    let mut acc = QuantileSketch::new();
    for part in &parts {
        acc.merge(part);
    }
    acc
}

#[test]
fn fan_out_merge_is_worker_count_invariant() {
    let stream = exponential(harness_seed(), STREAM_LEN);
    let chunks = chunked(&stream);
    let serial = fan_out_merge(&Scheduler::serial(), &chunks);
    for workers in [2, 4, 8] {
        let parallel = fan_out_merge(&Scheduler::new(workers), &chunks);
        assert_eq!(parallel.count(), serial.count(), "{workers} workers");
        for &p in &PS {
            assert_eq!(
                parallel.quantile(p).to_bits(),
                serial.quantile(p).to_bits(),
                "{workers} workers: q{p} drifted from the serial fold"
            );
        }
    }
    // And the fan-out result is still a valid estimate of the stream.
    assert_sketch_pinned("fan-out-merge", &serial, &stream);
}

#[test]
fn pairwise_merge_is_bit_symmetric() {
    let seed = harness_seed();
    let a = build(&pareto(seed, STREAM_LEN / 2));
    let b = build(&uniform(seed ^ 5, STREAM_LEN / 4));
    let mut ab = a.clone();
    ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    assert_eq!(ab.count(), ba.count());
    for &p in &PS {
        assert_eq!(
            ab.quantile(p).to_bits(),
            ba.quantile(p).to_bits(),
            "q{p}: a∪b differs from b∪a"
        );
    }
}

#[test]
fn chunk_permutations_stay_pinned() {
    let stream = bimodal(harness_seed(), STREAM_LEN);
    let chunks = chunked(&stream);
    // Merging adds integer bucket counts, so every chunk order folds to
    // bit-identical quantiles, each held to the exact reference too.
    let mut rotated: Vec<&[f64]> = chunks.clone();
    rotated.rotate_left(CHUNKS / 3);
    let reversed: Vec<&[f64]> = chunks.iter().rev().copied().collect();
    let in_order = fan_out_merge(&Scheduler::serial(), &chunks);
    for (tag, order) in [
        ("in-order", &chunks),
        ("rotated", &rotated),
        ("reversed", &reversed),
    ] {
        let merged = fan_out_merge(&Scheduler::serial(), order);
        assert_eq!(merged.count(), stream.len() as u64, "{tag}: count");
        assert_sketch_pinned(tag, &merged, &stream);
        for &p in &PS {
            assert_eq!(
                merged.quantile(p).to_bits(),
                in_order.quantile(p).to_bits(),
                "{tag} q{p}: chunk order moved the merged estimate"
            );
        }
    }
}

// ---- 3. HARNESS_SEED-matrix determinism ---------------------------------

#[test]
fn seed_matrix_rebuilds_are_bit_identical() {
    for seed in [harness_seed(), 1, 42, 7, 2026] {
        let stream = pareto(seed, STREAM_LEN / 2);
        let first = build(&stream);
        let second = build(&stream);
        assert_eq!(first.count(), second.count(), "seed {seed:#x}");
        for &p in &PS {
            assert_eq!(
                first.quantile(p).to_bits(),
                second.quantile(p).to_bits(),
                "seed {seed:#x}: q{p} not reproducible"
            );
        }
        // Fan-out path reproduces too — the property CI leans on.
        let chunks = chunked(&stream);
        let fanned = fan_out_merge(&Scheduler::new(4), &chunks);
        let fanned2 = fan_out_merge(&Scheduler::new(4), &chunks);
        for &p in &PS {
            assert_eq!(
                fanned.quantile(p).to_bits(),
                fanned2.quantile(p).to_bits(),
                "seed {seed:#x}: fan-out q{p} not reproducible"
            );
        }
    }
}
