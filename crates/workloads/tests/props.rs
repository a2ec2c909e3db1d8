//! Property-based tests of the workload generators.

use lat_tensor::rng::SplitMix64;
use lat_workloads::accuracy::anchored_score;
use lat_workloads::datasets::{DatasetSpec, LengthSampler, MixedWorkload, PreparedSampler};
use lat_workloads::task::{TaskConfig, TaskGenerator};
use proptest::prelude::*;

/// The per-draw sampler as it stood before calibration moved into
/// [`LengthSampler::prepare`]: bisect the exponential scale on every call,
/// then draw. The prepared samplers must reproduce its stream exactly.
fn reference_draw(spec: &DatasetSpec, rng: &mut SplitMix64) -> usize {
    let target = spec.avg_len as f64;
    let min = spec.min_len as f64;
    let max = spec.max_len as f64;
    let truncated_mean = |s: f64| min + s * (1.0 - (-(max - min) / s).exp());
    let (mut lo, mut hi) = (1.0f64, 16.0 * (max - min).max(1.0));
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if truncated_mean(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let scale = 0.5 * (lo + hi);
    let u = rng.next_f64().clamp(1e-12, 1.0 - 1e-12);
    let x = spec.min_len as f64 - scale * (1.0 - u).ln();
    (x.round() as usize).clamp(spec.min_len, spec.max_len)
}

/// The pre-change per-draw mix sampler: re-sum the weights, pick a
/// component, draw from it.
fn reference_mix_draw(components: &[(DatasetSpec, f64)], rng: &mut SplitMix64) -> usize {
    let total: f64 = components.iter().map(|&(_, w)| w).sum();
    let mut x = rng.next_f64() * total;
    for (d, w) in components {
        if x < *w {
            return reference_draw(d, rng);
        }
        x -= w;
    }
    reference_draw(&components[components.len() - 1].0, rng)
}

fn spec(min: usize, avg_off: usize, max_off: usize) -> DatasetSpec {
    DatasetSpec {
        name: "prop".into(),
        min_len: min,
        avg_len: min + avg_off,
        max_len: min + avg_off + max_off,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sampled lengths always respect the dataset bounds, for arbitrary
    /// (consistent) specs.
    #[test]
    fn sampler_respects_bounds(
        min in 5usize..50,
        avg_off in 1usize..100,
        max_off in 1usize..500,
        seed in 0u64..10_000,
    ) {
        let spec = DatasetSpec {
            name: "prop".into(),
            min_len: min,
            avg_len: min + avg_off,
            max_len: min + avg_off + max_off,
        };
        let mut rng = SplitMix64::new(seed);
        for _ in 0..50 {
            let l = spec.sample_length(&mut rng);
            prop_assert!(l >= spec.min_len && l <= spec.max_len);
        }
    }

    /// A prepared spec draws exactly the per-call stream: same lengths, same
    /// RNG consumption, for arbitrary (consistent) specs.
    #[test]
    fn prepared_spec_reproduces_per_call_stream(
        min in 5usize..50,
        avg_off in 1usize..100,
        max_off in 1usize..500,
        seed in 0u64..10_000,
    ) {
        let spec = spec(min, avg_off, max_off);
        let lengths = spec.prepare();
        let (mut a, mut b, mut c) =
            (SplitMix64::new(seed), SplitMix64::new(seed), SplitMix64::new(seed));
        for _ in 0..64 {
            let want = reference_draw(&spec, &mut a);
            prop_assert_eq!(lengths.sample(&mut b), want);
            prop_assert_eq!(spec.sample_length(&mut c), want);
        }
        prop_assert_eq!(a.next_u64(), b.next_u64());
    }

    /// A prepared mix draws exactly the per-call stream of the same mix.
    #[test]
    fn prepared_mix_reproduces_per_call_stream(
        mins in proptest::collection::vec(5usize..50, 1..4),
        avg_off in 1usize..100,
        max_off in 1usize..500,
        weights in proptest::collection::vec(0.05f64..5.0, 3),
        seed in 0u64..10_000,
    ) {
        let components: Vec<(DatasetSpec, f64)> = mins
            .iter()
            .zip(&weights)
            .enumerate()
            .map(|(i, (&min, &w))| (spec(min, avg_off + 7 * i, max_off), w))
            .collect();
        let mix = MixedWorkload::new(components.clone());
        let lengths = mix.prepare();
        let (mut a, mut b, mut c) =
            (SplitMix64::new(seed), SplitMix64::new(seed), SplitMix64::new(seed));
        for _ in 0..64 {
            let want = reference_mix_draw(&components, &mut a);
            prop_assert_eq!(lengths.sample(&mut b), want);
            prop_assert_eq!(mix.sample_length(&mut c), want);
        }
        prop_assert_eq!(a.next_u64(), b.next_u64());
    }

    /// The sampled mean tracks the spec's average within tolerance when
    /// the average sits comfortably inside the bounds.
    #[test]
    fn sampler_mean_tracks_average(seed in 0u64..1000) {
        let spec = DatasetSpec {
            name: "prop".into(),
            min_len: 20,
            avg_len: 80,
            max_len: 400,
        };
        let mut rng = SplitMix64::new(seed);
        let n = 4000;
        let sum: usize = (0..n).map(|_| spec.sample_length(&mut rng)).sum();
        let mean = sum as f64 / n as f64;
        prop_assert!((mean - 80.0).abs() / 80.0 < 0.10, "mean {mean}");
    }

    /// Task instances always have consistent labels and shapes.
    #[test]
    fn task_instances_well_formed(seed in 0u64..10_000, n in 30usize..200) {
        let g = TaskGenerator::new(TaskConfig::default(), 5);
        let mut rng = SplitMix64::new(seed);
        let inst = g.generate(&mut rng, n);
        prop_assert_eq!(inst.q.shape(), (n, 64));
        prop_assert_eq!(inst.k.shape(), (n, 64));
        prop_assert_eq!(inst.v.shape(), (n, 64));
        prop_assert!(inst.label < 4);
        prop_assert_ne!(inst.label, inst.decoy_label);
        prop_assert!(inst.q.as_slice().iter().all(|x| x.is_finite()));
    }

    /// Anchored scores are always within [0, anchor] and decrease with the
    /// measured drop.
    #[test]
    fn anchoring_bounds(anchor in 50.0f64..95.0, dense in 0.5f64..1.0, drop in 0.0f64..0.5) {
        let sparse = (dense - drop).max(0.0);
        let s = anchored_score(anchor, dense, sparse);
        prop_assert!((0.0..=anchor).contains(&s));
        let s_less = anchored_score(anchor, dense, (sparse - 0.05).max(0.0));
        prop_assert!(s_less <= s + 1e-9);
    }
}
