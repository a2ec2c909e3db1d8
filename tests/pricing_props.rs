//! The engines' seconds-only pricing path is pinned bit-equal to the full
//! report: `AcceleratorDesign::batch_seconds(lengths, policy)` must have
//! the same `to_bits()` as `run_batch(lengths, policy).seconds` for every
//! policy, batch shape, design size and attention mode. The engines price
//! through a per-shard `ShardPricer`, whose memo must in turn reproduce
//! `batch_seconds` bit for bit however long it has been in use.

use lat_fpga::core::pipeline::SchedulingPolicy;
use lat_fpga::hwsim::accelerator::{AcceleratorDesign, ShardPricer};
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

/// One pricer per design and policy, reused across a long random sequence
/// of batches of 1..=32 sequences. Every few batches one length reaches
/// past the longest length seen so far (the memo must grow and fill the new
/// row); the others mostly draw from below it (rows already filled, rows
/// allocated by a growth but never filled, and fresh short lengths). Every
/// call is also checked against the all-ones decode memo at a random batch
/// size: on bert-base those batches are memory-bound, so the batch-size
/// dependent weight share decides their price.
#[test]
fn shard_pricer_matches_batch_seconds_on_a_reused_memo() {
    let mut rng = SplitMix64::new(0x5EED_0C0D);
    for d in designs() {
        for policy in POLICIES {
            let mut pricer = ShardPricer::new(&d, policy);
            let mut longest = 0usize;
            for step in 0..120 {
                let size = 1 + rng.next_below(32);
                let mut lengths: Vec<usize> = (0..size)
                    .map(|_| 1 + rng.next_below(longest.max(16)))
                    .collect();
                if step % 4 == 0 {
                    let at = rng.next_below(size);
                    lengths[at] = longest + 1 + rng.next_below(96);
                }
                longest = longest.max(lengths.iter().copied().max().unwrap_or(0));
                let memo = pricer.seconds(&lengths);
                let direct = d.batch_seconds(&lengths, policy);
                assert_eq!(
                    memo.to_bits(),
                    direct.to_bits(),
                    "{} {:?} {policy} step {step}: pricer {memo} != batch_seconds {direct} on {lengths:?}",
                    d.config().name,
                    d.mode(),
                );
                let batch = 1 + rng.next_below(32);
                let memo = pricer.decode_seconds(batch);
                let direct = d.batch_seconds(&vec![1; batch], policy);
                assert_eq!(
                    memo.to_bits(),
                    direct.to_bits(),
                    "{} {:?} {policy} step {step}: decode memo {memo} != batch_seconds {direct} at batch {batch}",
                    d.config().name,
                    d.mode(),
                );
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary batch sequences through one pricer per design and policy.
    #[test]
    fn shard_pricer_matches_batch_seconds_on_arbitrary_sequences(
        batches in proptest::collection::vec(
            proptest::collection::vec(1usize..1024, 1..33),
            1..9,
        ),
    ) {
        for d in designs() {
            for policy in POLICIES {
                let mut pricer = ShardPricer::new(&d, policy);
                for lengths in &batches {
                    let direct = d.batch_seconds(lengths, policy);
                    prop_assert_eq!(pricer.seconds(lengths).to_bits(), direct.to_bits());
                }
            }
        }
    }
}
