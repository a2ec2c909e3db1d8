//! Stream pins for the length samplers.
//!
//! The constants below were captured from the per-draw sampler that
//! solved its exponential scale on every call, before calibration moved
//! into `LengthSampler::prepare`. Every trace, golden artifact and report
//! fingerprint rests on these streams, so preparing once must reproduce
//! them bit for bit.

use lat_bench::scenarios::{disagg_outputs, HARNESS_SEED};
use lat_fpga::tensor::rng::SplitMix64;
use lat_fpga::workloads::datasets::{DatasetSpec, LengthSampler, MixedWorkload, PreparedSampler};

/// `(name, calibrated scale bits, first 64 lengths at HARNESS_SEED)`.
type Pin = (&'static str, u64, [usize; 64]);

const SPEC_PINS: [Pin; 11] = [
    (
        "SQuAD v1.1",
        0x4061_2eff_2de5_69da,
        [
            381, 69, 694, 87, 121, 256, 49, 286, 219, 67, 42, 256, 43, 257, 249, 126, 148, 324, 94,
            61, 227, 75, 151, 247, 76, 72, 375, 67, 75, 206, 322, 58, 256, 90, 165, 142, 227, 175,
            141, 119, 244, 318, 96, 320, 376, 138, 91, 79, 115, 697, 64, 93, 152, 70, 142, 98, 42,
            146, 519, 290, 89, 59, 97, 163,
        ],
    ),
    (
        "RTE",
        0x404a_d12f_eca5_6a2c,
        [
            148, 26, 253, 33, 46, 99, 18, 111, 85, 25, 16, 99, 16, 100, 96, 49, 57, 126, 36, 23,
            88, 29, 58, 96, 29, 28, 146, 25, 28, 80, 125, 22, 99, 34, 64, 55, 88, 68, 54, 46, 95,
            123, 37, 124, 146, 53, 35, 30, 44, 253, 25, 36, 59, 27, 55, 37, 16, 56, 202, 113, 34,
            23, 37, 63,
        ],
    ),
    (
        "MRPC",
        0x4040_ade6_4489_b81c,
        [
            86, 32, 86, 36, 45, 78, 27, 85, 68, 31, 25, 77, 26, 78, 76, 46, 51, 86, 38, 30, 70, 33,
            52, 75, 34, 33, 86, 31, 33, 65, 86, 29, 77, 37, 55, 50, 70, 58, 50, 44, 74, 86, 38, 86,
            86, 49, 37, 35, 43, 86, 31, 38, 52, 32, 50, 39, 26, 51, 86, 86, 37, 30, 39, 55,
        ],
    ),
    (
        "SQuAD v2.0",
        0x4060_635a_855f_59ec,
        [
            366, 68, 663, 85, 117, 246, 48, 274, 211, 65, 41, 246, 43, 247, 239, 122, 143, 311, 91,
            60, 218, 73, 146, 238, 74, 71, 360, 65, 73, 198, 309, 57, 246, 88, 159, 138, 219, 169,
            136, 115, 234, 305, 93, 307, 360, 133, 89, 78, 112, 666, 63, 91, 147, 69, 137, 95, 42,
            141, 497, 278, 86, 59, 94, 157,
        ],
    ),
    (
        "WikiText-2",
        0x4050_03c3_395f_3e22,
        [
            223, 78, 369, 86, 102, 165, 68, 179, 147, 76, 65, 165, 65, 165, 161, 104, 114, 196, 89,
            74, 151, 80, 116, 161, 81, 79, 220, 76, 80, 141, 195, 72, 165, 87, 122, 112, 151, 127,
            111, 101, 159, 194, 90, 195, 220, 110, 88, 82, 99, 370, 75, 89, 116, 78, 112, 91, 65,
            113, 287, 180, 87, 73, 90, 121,
        ],
    ),
    (
        "SQuAD v1.1 decode",
        0x4066_3872_ec5b_53f6,
        [
            442, 39, 821, 62, 105, 281, 12, 319, 232, 35, 3, 280, 5, 282, 271, 112, 141, 368, 71,
            28, 243, 46, 145, 269, 47, 42, 434, 35, 46, 215, 365, 24, 281, 66, 163, 133, 243, 176,
            132, 103, 265, 361, 73, 363, 435, 127, 67, 52, 98, 821, 33, 70, 146, 40, 133, 76, 4,
            138, 620, 324, 64, 26, 74, 160,
        ],
    ),
    (
        "RTE decode",
        0x4051_30b0_833f_c180,
        [
            172, 16, 253, 25, 41, 109, 5, 124, 91, 14, 2, 109, 3, 110, 105, 44, 55, 143, 28, 12,
            94, 18, 57, 105, 19, 17, 169, 14, 18, 84, 142, 10, 109, 26, 63, 52, 95, 69, 52, 41,
            103, 140, 29, 141, 169, 50, 27, 21, 39, 253, 13, 28, 57, 16, 52, 30, 2, 54, 241, 126,
            25, 11, 29, 62,
        ],
    ),
    (
        "MRPC decode",
        0x4053_b235_fc78_8932,
        [
            86, 18, 86, 28, 47, 86, 6, 86, 86, 16, 2, 86, 3, 86, 86, 50, 63, 86, 32, 13, 86, 21,
            65, 86, 21, 19, 86, 16, 21, 86, 86, 11, 86, 30, 73, 60, 86, 78, 59, 46, 86, 86, 33, 86,
            86, 57, 30, 24, 44, 86, 15, 32, 65, 18, 59, 34, 2, 62, 86, 86, 29, 12, 34, 71,
        ],
    ),
    (
        "SQuAD v2.0 decode",
        0x4065_5212_a608_e956,
        [
            425, 37, 812, 59, 101, 270, 12, 306, 223, 34, 3, 269, 5, 271, 260, 108, 135, 353, 68,
            27, 233, 44, 139, 258, 45, 41, 417, 34, 44, 207, 350, 23, 269, 63, 156, 128, 233, 169,
            126, 99, 254, 346, 70, 349, 418, 122, 65, 50, 94, 816, 31, 67, 140, 38, 128, 73, 4,
            132, 595, 311, 61, 25, 72, 153,
        ],
    ),
    (
        "WikiText-2 decode",
        0x4060_3020_ba6f_b61c,
        [
            323, 29, 512, 45, 77, 205, 9, 233, 170, 26, 2, 204, 4, 206, 198, 82, 103, 268, 52, 21,
            177, 34, 106, 196, 35, 31, 317, 26, 34, 157, 266, 18, 205, 48, 119, 97, 177, 128, 96,
            76, 193, 263, 53, 265, 317, 93, 49, 38, 72, 512, 24, 51, 106, 29, 97, 55, 3, 101, 452,
            237, 47, 19, 55, 117,
        ],
    ),
    (
        "short continuation",
        0x4037_676f_cc45_6f50,
        [
            59, 6, 96, 9, 15, 38, 3, 43, 31, 6, 1, 38, 2, 38, 37, 16, 19, 49, 10, 5, 33, 7, 20, 36,
            7, 6, 58, 6, 7, 29, 49, 4, 38, 9, 22, 18, 33, 24, 18, 14, 36, 48, 10, 49, 58, 18, 10,
            8, 14, 96, 5, 10, 20, 6, 18, 11, 1, 19, 83, 44, 9, 4, 11, 22,
        ],
    ),
];

const PAPER_MIX_PIN: [usize; 64] = [
    32, 36, 99, 286, 31, 256, 257, 46, 126, 61, 33, 96, 72, 31, 206, 29, 37, 55, 58, 46, 86, 320,
    49, 79, 253, 93, 27, 37, 146, 86, 59, 63, 110, 18, 37, 43, 79, 82, 93, 578, 67, 38, 60, 43,
    145, 59, 83, 123, 391, 469, 35, 44, 86, 32, 86, 70, 70, 30, 45, 58, 68, 57, 54, 86,
];

/// The five datasets, their decode-output profiles, and the disaggregated
/// serving continuation profile, in pin order.
fn pinned_specs() -> Vec<DatasetSpec> {
    let all = DatasetSpec::all_datasets();
    let outputs = all
        .iter()
        .map(DatasetSpec::decode_output)
        .collect::<Vec<_>>();
    all.into_iter()
        .chain(outputs)
        .chain([disagg_outputs()])
        .collect()
}

fn first_64<S: PreparedSampler>(lengths: &S) -> Vec<usize> {
    let mut rng = SplitMix64::new(HARNESS_SEED);
    (0..64).map(|_| lengths.sample(&mut rng)).collect()
}

#[test]
fn calibrated_scales_are_pinned() {
    let specs = pinned_specs();
    assert_eq!(specs.len(), SPEC_PINS.len());
    for (spec, (name, bits, _)) in specs.iter().zip(SPEC_PINS) {
        assert_eq!(spec.name, name);
        let scale = spec.prepare().scale();
        assert_eq!(scale.to_bits(), bits, "{name}: scale {scale}");
    }
}

#[test]
fn prepared_streams_are_pinned() {
    for (spec, (name, _, lens)) in pinned_specs().iter().zip(SPEC_PINS) {
        assert_eq!(first_64(&spec.prepare()), lens, "{name}");
        // The per-draw path and the batch sampler give the same stream.
        let mut rng = SplitMix64::new(HARNESS_SEED);
        let per_call: Vec<usize> = (0..64).map(|_| spec.sample_length(&mut rng)).collect();
        assert_eq!(per_call, lens, "{name} per call");
        let batch = spec.sample_batch(&mut SplitMix64::new(HARNESS_SEED), 64);
        assert_eq!(batch, lens, "{name} batch");
    }
}

#[test]
fn paper_mix_stream_is_pinned() {
    let mix = MixedWorkload::paper_mix();
    assert_eq!(first_64(&mix.prepare()), PAPER_MIX_PIN);
    let mut rng = SplitMix64::new(HARNESS_SEED);
    let per_call: Vec<usize> = (0..64).map(|_| mix.sample_length(&mut rng)).collect();
    assert_eq!(per_call, PAPER_MIX_PIN);
    let batch = mix.sample_batch(&mut SplitMix64::new(HARNESS_SEED), 64);
    assert_eq!(batch, PAPER_MIX_PIN);
}
