//! The engines' seconds-only pricing path is pinned bit-equal to the full
//! report: `AcceleratorDesign::batch_seconds(lengths, policy)` must have
//! the same `to_bits()` as `run_batch(lengths, policy).seconds` for every
//! policy, batch shape, design size and attention mode.

use lat_fpga::core::pipeline::SchedulingPolicy;
use lat_fpga::hwsim::accelerator::AcceleratorDesign;
use lat_fpga::hwsim::spec::FpgaSpec;
use lat_fpga::model::config::ModelConfig;
use lat_fpga::model::graph::AttentionMode;
use lat_fpga::tensor::rng::SplitMix64;
use proptest::prelude::*;

const POLICIES: [SchedulingPolicy; 6] = [
    SchedulingPolicy::LengthAware,
    SchedulingPolicy::PadToMax,
    SchedulingPolicy::MicroBatch { size: 1 },
    SchedulingPolicy::MicroBatch { size: 3 },
    SchedulingPolicy::MicroBatch { size: 4 },
    SchedulingPolicy::MicroBatch { size: 16 },
];

/// `tiny` and `bert-base`, each with sparse and dense attention.
fn designs() -> Vec<AcceleratorDesign> {
    let mut out = Vec::new();
    for (cfg, s_avg) in [(ModelConfig::tiny(), 64), (ModelConfig::bert_base(), 177)] {
        for mode in [AttentionMode::paper_sparse(), AttentionMode::Dense] {
            out.push(AcceleratorDesign::new(
                &cfg,
                mode,
                FpgaSpec::alveo_u280(),
                s_avg,
            ));
        }
    }
    out
}

fn assert_bit_equal(d: &AcceleratorDesign, lengths: &[usize], policy: SchedulingPolicy) {
    let full = d.run_batch(lengths, policy).seconds;
    let fast = d.batch_seconds(lengths, policy);
    assert_eq!(
        fast.to_bits(),
        full.to_bits(),
        "{} {:?} {policy}: batch_seconds {fast} != run_batch {full} on {lengths:?}",
        d.config().name,
        d.mode(),
    );
}

/// Every batch size 1..=32 in three shapes: random lengths (with the
/// duplicates a real trace has), all equal, and all ones (the decode
/// engine's pure-decode iteration).
#[test]
fn batch_seconds_matches_run_batch_on_every_size_and_shape() {
    let mut rng = SplitMix64::new(0xB17E);
    for d in designs() {
        for size in 1..=32usize {
            let random: Vec<usize> = (0..size).map(|_| 1 + rng.next_below(512)).collect();
            let shapes = [random, vec![97; size], vec![1; size]];
            for lengths in &shapes {
                for policy in POLICIES {
                    assert_bit_equal(&d, lengths, policy);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary batches, including unsorted input and lengths beyond the
    /// tuned average.
    #[test]
    fn batch_seconds_matches_run_batch_on_arbitrary_batches(
        lengths in proptest::collection::vec(1usize..1024, 1..33),
    ) {
        for d in designs() {
            for policy in POLICIES {
                let full = d.run_batch(&lengths, policy).seconds;
                let fast = d.batch_seconds(&lengths, policy);
                prop_assert_eq!(fast.to_bits(), full.to_bits());
            }
        }
    }
}
