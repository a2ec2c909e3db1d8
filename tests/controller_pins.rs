//! Bit-exact pins of the controller stack: the autoscalers and the fault
//! injector on non-degenerate runs (scaling that acts, incidents that
//! strand and re-route work, clients that time out and retry).
//!
//! Each cell runs one scenario and digests the whole report as
//! `fnv1a64(format!("{report:?}"))`. `f64` `Debug` prints the shortest
//! round-trip form, so two reports share a digest only if every field
//! agrees bit for bit. The property suites pin the degenerate
//! containment links (pinned ≡ plain, empty plan ≡ plain); these cells
//! pin what the controllers actually *do*, so a refactor of the
//! controller layer must leave every digest unchanged.
//!
//! Seeds are fixed (not `HARNESS_SEED`): a digest is a property of one
//! concrete run. On a mismatch the failure message prints the full table
//! of observed digests.

use lat_exp::artifact::fnv1a64;
use lat_fpga::core::pipeline::SchedulingPolicy;
use lat_fpga::core::sketch::ReportMode;
use lat_fpga::hwsim::accelerator::AcceleratorDesign;
use lat_fpga::hwsim::autoscale::{
    simulate_autoscale, simulate_decode_autoscale, AutoscaleConfig, DecodeAutoscaleConfig,
    DecodeScaleDown, RetirePolicy, ScaleEventKind, ScalePolicy, SchedulePhase,
};
use lat_fpga::hwsim::decode::{
    decode_trace, nonstationary_decode_trace, DecodeConfig, DecodeRequest, DecodeScheduler,
    KvTransfer,
};
use lat_fpga::hwsim::disagg::{
    simulate_disagg_autoscale, DisaggAutoscaleConfig, DisaggConfig, PoolPolicy,
};
use lat_fpga::hwsim::failure::{
    simulate_autoscale_failure_mode, simulate_decode_failure_mode, simulate_disagg_failure_mode,
    simulate_fleet_failure_mode, ClientConfig, Fault, FaultKind, FaultPlan,
};
use lat_fpga::hwsim::fleet::{
    homogeneous_fleet, nonstationary_poisson_trace, poisson_trace, BatcherConfig, DispatchPolicy,
    RatePhase, RateProfile, Request,
};
use lat_fpga::hwsim::spec::FpgaSpec;
use lat_fpga::model::config::ModelConfig;
use lat_fpga::model::graph::AttentionMode;
use lat_fpga::workloads::datasets::DatasetSpec;
use lat_fpga::workloads::prefix::PrefixProfile;
use std::fmt::Debug;

fn tiny_design() -> AcceleratorDesign {
    AcceleratorDesign::new(
        &ModelConfig::bert_base(),
        AttentionMode::paper_sparse(),
        FpgaSpec::alveo_u280(),
        64,
    )
}

fn digest(report: &impl Debug) -> u64 {
    fnv1a64(format!("{report:?}").as_bytes())
}

/// Compares observed digests against the pinned table, reporting every
/// cell at once (with the full observed table for re-pinning by hand).
fn check(observed: &[(String, u64)], pinned: &[(&str, u64)]) {
    let table: String = observed
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    let names: Vec<&str> = observed.iter().map(|(n, _)| n.as_str()).collect();
    let pinned_names: Vec<&str> = pinned.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, pinned_names, "cell set changed; observed:\n{table}");
    let drifted: Vec<&str> = observed
        .iter()
        .zip(pinned)
        .filter(|((_, got), (_, want))| got != want)
        .map(|((name, _), _)| name.as_str())
        .collect();
    assert!(
        drifted.is_empty(),
        "controller output drifted in {drifted:?}; observed:\n{table}"
    );
}

/// Four scaling policies that all act under the bursty traces below.
fn policies(min: usize, max: usize, up_s: f64, down_s: f64, capacity: f64) -> [ScalePolicy; 4] {
    [
        ScalePolicy::Reactive {
            scale_up_depth: 4.0,
            scale_down_depth: 1.0,
        },
        ScalePolicy::UtilizationTarget {
            low: 0.2,
            high: 0.8,
        },
        ScalePolicy::Scheduled(vec![
            SchedulePhase {
                start_s: up_s,
                shards: max,
            },
            SchedulePhase {
                start_s: down_s,
                shards: min,
            },
        ]),
        ScalePolicy::Predictive {
            shard_capacity: capacity,
            horizon_s: 0.05,
            alpha: 0.5,
            period_s: None,
        },
    ]
}

/// Quiet → burst → quiet encoder traffic.
fn fleet_burst_trace() -> Vec<Request> {
    nonstationary_poisson_trace(
        &DatasetSpec::mrpc(),
        &RateProfile::Piecewise(vec![
            RatePhase {
                duration_s: 0.5,
                rate: 40.0,
            },
            RatePhase {
                duration_s: 0.5,
                rate: 4000.0,
            },
            RatePhase {
                duration_s: 1.0,
                rate: 40.0,
            },
        ]),
        400,
        11,
    )
}

/// Trickle → saturating burst → trickle decode traffic.
fn decode_burst_trace(n: usize) -> Vec<DecodeRequest> {
    let spec = DatasetSpec::mrpc();
    nonstationary_decode_trace(
        &spec,
        &spec.decode_output(),
        0.15,
        &RateProfile::Piecewise(vec![
            RatePhase {
                duration_s: 0.1,
                rate: 100.0,
            },
            RatePhase {
                duration_s: 0.05,
                rate: 2000.0,
            },
            RatePhase {
                duration_s: 1.0,
                rate: 100.0,
            },
        ]),
        n,
        13,
    )
}

fn cheap_wire() -> DisaggConfig {
    DisaggConfig {
        transfer: KvTransfer::Copy {
            base_s: 1e-5,
            per_token_s: 1e-8,
        },
        prefix_cache_capacity: 2,
    }
}

#[test]
fn fleet_autoscaler_cells_are_pinned() {
    let fleet = homogeneous_fleet(&tiny_design(), 3);
    let trace = fleet_burst_trace();
    let mut observed = Vec::new();
    for policy in policies(1, 3, 0.5, 0.6, 200.0) {
        for retire in [RetirePolicy::Drain, RetirePolicy::Evict] {
            for warmup_s in [0.0, 0.1] {
                let r = simulate_autoscale(
                    &fleet,
                    &trace,
                    SchedulingPolicy::LengthAware,
                    DispatchPolicy::JoinShortestQueue,
                    &BatcherConfig::default(),
                    &AutoscaleConfig {
                        min_shards: 1,
                        initial_shards: 1,
                        policy: policy.clone(),
                        retire,
                        eval_interval_s: 0.05,
                        warmup_s,
                        cooldown_s: 0.0,
                        slo_latency_s: 0.05,
                        phase_bounds_s: vec![0.5, 1.0],
                    },
                );
                assert!(!r.scale_events.is_empty(), "degenerate cell");
                let name = format!("fleet/{}/{retire}/warmup{warmup_s}", policy);
                observed.push((name, digest(&r)));
            }
        }
    }
    // Two shards still draining when the schedule wants one back: the
    // recall order decides which of them rejoins.
    let recall = simulate_autoscale(
        &fleet,
        &trace,
        SchedulingPolicy::LengthAware,
        DispatchPolicy::JoinShortestQueue,
        &BatcherConfig::default(),
        &AutoscaleConfig {
            min_shards: 1,
            initial_shards: 3,
            policy: ScalePolicy::Scheduled(vec![
                SchedulePhase {
                    start_s: 0.5,
                    shards: 1,
                },
                SchedulePhase {
                    start_s: 0.7,
                    shards: 2,
                },
            ]),
            retire: RetirePolicy::Drain,
            eval_interval_s: 0.05,
            warmup_s: 0.1,
            cooldown_s: 0.0,
            slo_latency_s: 0.05,
            phase_bounds_s: vec![0.5, 1.0],
        },
    );
    let rejoined: Vec<usize> = recall
        .scale_events
        .iter()
        .filter(|e| e.kind == ScaleEventKind::Join)
        .map(|e| e.shard)
        .collect();
    assert_eq!(rejoined.len(), 1, "degenerate cell: no recall");
    observed.push(("fleet/recall".to_string(), digest(&recall)));
    check(&observed, FLEET_AUTOSCALE_PINS);
}

#[test]
fn decode_autoscaler_cells_are_pinned() {
    let fleet = homogeneous_fleet(&tiny_design(), 3);
    let trace = decode_burst_trace(200);
    let decode_cfg = DecodeConfig {
        max_slots: 4,
        ttft_deadline_s: 0.001,
    };
    let mut observed = Vec::new();
    let mut migrations = 0;
    for policy in policies(1, 3, 0.1, 0.2, 200.0) {
        for scale_down in [DecodeScaleDown::Drain, DecodeScaleDown::Migrate] {
            let r = simulate_decode_autoscale(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                DecodeScheduler::Continuous,
                &decode_cfg,
                &DecodeAutoscaleConfig {
                    min_shards: 1,
                    initial_shards: 1,
                    policy: policy.clone(),
                    scale_down,
                    eval_interval_s: 0.01,
                    warmup_s: 0.02,
                    cooldown_s: 0.0,
                    slo_ttft_s: 0.05,
                    phase_bounds_s: vec![0.1, 0.15],
                },
            );
            assert!(!r.scale_events.is_empty(), "degenerate cell");
            migrations += r.migrations;
            let name = format!("decode/{}/{scale_down}", policy);
            observed.push((name, digest(&r)));
        }
    }
    assert!(migrations > 0, "no cell migrated a KV resident");
    check(&observed, DECODE_AUTOSCALE_PINS);
}

#[test]
fn disagg_autoscaler_cells_are_pinned() {
    let pool = homogeneous_fleet(&tiny_design(), 3);
    let trace = decode_burst_trace(200);
    let prefixes = PrefixProfile {
        num_groups: 3,
        prefix_len: 32,
        grouped_fraction: 0.8,
    }
    .assign(trace.len(), 17);
    let scaling = |min| PoolPolicy {
        min_shards: min,
        initial_shards: min,
        policy: ScalePolicy::Reactive {
            scale_up_depth: 2.0,
            scale_down_depth: 0.5,
        },
    };
    let cells = [
        ("prefill", scaling(1), PoolPolicy::pinned(3)),
        ("decode", PoolPolicy::pinned(3), scaling(1)),
        ("both", scaling(1), scaling(1)),
    ];
    let mut observed = Vec::new();
    for (name, prefill, decode) in cells {
        let r = simulate_disagg_autoscale(
            &pool,
            &pool,
            &trace,
            &prefixes,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Continuous,
            &DecodeConfig::default(),
            &cheap_wire(),
            &DisaggAutoscaleConfig {
                prefill,
                decode,
                eval_interval_s: 0.002,
                warmup_s: 0.003,
                cooldown_s: 0.0,
            },
        );
        assert!(!r.scale_events.is_empty(), "degenerate cell");
        observed.push((format!("disagg/{name}"), digest(&r)));
    }
    check(&observed, DISAGG_AUTOSCALE_PINS);
}

/// The three incident shapes over `shard_a` / `shard_b`, scaled to the
/// run's time base `t`: a crash with recovery, a straggler window, and an
/// overlapping two-shard incident (crash on `a` while `b` straggles).
fn shapes(a: usize, b: usize, t: f64) -> [(&'static str, FaultPlan); 3] {
    let crash = Fault {
        shard: a,
        kind: FaultKind::Crash {
            at_s: t,
            recover_s: Some(4.0 * t),
        },
    };
    let straggler = |shard| Fault {
        shard,
        kind: FaultKind::Straggler {
            from_s: 2.0 * t,
            until_s: 6.0 * t,
            slowdown: 4.0,
        },
    };
    [
        (
            "crash",
            FaultPlan {
                faults: vec![crash],
            },
        ),
        (
            "straggler",
            FaultPlan {
                faults: vec![straggler(a)],
            },
        ),
        (
            "overlap",
            FaultPlan {
                faults: vec![crash, straggler(b)],
            },
        ),
    ]
}

/// The patient client and one that times out, backs off and retries at
/// the run's time base `t`.
fn clients(t: f64) -> [(&'static str, ClientConfig); 2] {
    [
        ("patient", ClientConfig::patient()),
        (
            "retrying",
            ClientConfig {
                timeout_s: t,
                max_retries: 2,
                backoff_s: t / 4.0,
                deadline_s: 8.0 * t,
            },
        ),
    ]
}

const MODES: [(&str, ReportMode); 2] = [
    ("exact", ReportMode::Exact),
    ("streaming", ReportMode::Streaming),
];

#[test]
fn fleet_failure_cells_are_pinned() {
    let fleet = homogeneous_fleet(&tiny_design(), 3);
    let trace = poisson_trace(&DatasetSpec::rte(), 3000.0, 150, 19);
    let mut observed = Vec::new();
    for (shape, plan) in shapes(0, 1, 0.005) {
        for (client_name, client) in clients(0.05) {
            for (mode_name, mode) in MODES {
                let r = simulate_fleet_failure_mode(
                    &fleet,
                    &trace,
                    SchedulingPolicy::LengthAware,
                    DispatchPolicy::JoinShortestQueue,
                    &BatcherConfig::default(),
                    &plan,
                    &client,
                    0.01,
                    mode,
                );
                assert_eq!(
                    r.retries > 0,
                    client.timeout_s.is_finite(),
                    "degenerate cell"
                );
                let name = format!("fleet/{shape}/{client_name}/{mode_name}");
                observed.push((name, digest(&r)));
            }
        }
    }
    check(&observed, FLEET_FAILURE_PINS);
}

#[test]
fn autoscale_failure_cells_are_pinned() {
    let fleet = homogeneous_fleet(&tiny_design(), 3);
    let trace = poisson_trace(&DatasetSpec::rte(), 3000.0, 150, 23);
    let cfg = AutoscaleConfig {
        min_shards: 1,
        initial_shards: 2,
        policy: ScalePolicy::Reactive {
            scale_up_depth: 3.0,
            scale_down_depth: 1.0,
        },
        retire: RetirePolicy::Evict,
        eval_interval_s: 0.004,
        warmup_s: 0.006,
        cooldown_s: 0.0,
        slo_latency_s: 0.01,
        phase_bounds_s: Vec::new(),
    };
    let mut observed = Vec::new();
    for (shape, plan) in shapes(0, 1, 0.005) {
        for (client_name, client) in clients(0.05) {
            for (mode_name, mode) in MODES {
                let r = simulate_autoscale_failure_mode(
                    &fleet,
                    &trace,
                    SchedulingPolicy::LengthAware,
                    DispatchPolicy::JoinShortestQueue,
                    &BatcherConfig::default(),
                    &cfg,
                    &plan,
                    &client,
                    mode,
                );
                assert_eq!(
                    r.failure.retries > 0,
                    client.timeout_s.is_finite(),
                    "degenerate cell"
                );
                let name = format!("autoscale/{shape}/{client_name}/{mode_name}");
                observed.push((name, digest(&r)));
            }
        }
    }
    check(&observed, AUTOSCALE_FAILURE_PINS);
}

#[test]
fn decode_failure_cells_are_pinned() {
    let fleet = homogeneous_fleet(&tiny_design(), 3);
    let spec = DatasetSpec::mrpc();
    let trace = decode_trace(&spec, &spec.decode_output(), 0.2, 400.0, 80, 29);
    let mut observed = Vec::new();
    for (shape, plan) in shapes(0, 1, 0.02) {
        for (client_name, client) in clients(0.06) {
            // Patient runs migrate a straggler's residents, retrying runs
            // drain them in place: both responses stay covered.
            let response = if client.timeout_s.is_finite() {
                DecodeScaleDown::Drain
            } else {
                DecodeScaleDown::Migrate
            };
            for (mode_name, mode) in MODES {
                let r = simulate_decode_failure_mode(
                    &fleet,
                    &trace,
                    SchedulingPolicy::LengthAware,
                    DispatchPolicy::JoinShortestQueue,
                    DecodeScheduler::Continuous,
                    &DecodeConfig::default(),
                    &plan,
                    &client,
                    response,
                    0.004,
                    mode,
                );
                assert_eq!(
                    r.retries > 0,
                    client.timeout_s.is_finite(),
                    "degenerate cell"
                );
                let name = format!("decode/{shape}/{client_name}/{mode_name}");
                observed.push((name, digest(&r)));
            }
        }
    }
    check(&observed, DECODE_FAILURE_PINS);
}

#[test]
fn disagg_failure_cells_are_pinned() {
    let pool = homogeneous_fleet(&tiny_design(), 2);
    let spec = DatasetSpec::mrpc();
    let trace = decode_trace(&spec, &spec.decode_output(), 0.2, 400.0, 80, 31);
    let mut observed = Vec::new();
    // Combined-fleet indices: shard 0 is a prefill shard, shard 2 the
    // first decode shard.
    for (shape, plan) in shapes(0, 2, 0.02) {
        for (client_name, client) in clients(0.06) {
            let response = if client.timeout_s.is_finite() {
                DecodeScaleDown::Drain
            } else {
                DecodeScaleDown::Migrate
            };
            for (mode_name, mode) in MODES {
                let r = simulate_disagg_failure_mode(
                    &pool,
                    &pool,
                    &trace,
                    &[],
                    SchedulingPolicy::LengthAware,
                    DispatchPolicy::JoinShortestQueue,
                    DecodeScheduler::Continuous,
                    &DecodeConfig::default(),
                    &cheap_wire(),
                    &plan,
                    &client,
                    response,
                    0.004,
                    mode,
                );
                assert_eq!(
                    r.retries > 0,
                    client.timeout_s.is_finite(),
                    "degenerate cell"
                );
                let name = format!("disagg/{shape}/{client_name}/{mode_name}");
                observed.push((name, digest(&r)));
            }
        }
    }
    check(&observed, DISAGG_FAILURE_PINS);
}

const FLEET_AUTOSCALE_PINS: &[(&str, u64)] = &[
    ("fleet/reactive/drain/warmup0", 0x91ad6a5a9cc09c86),
    ("fleet/reactive/drain/warmup0.1", 0x366446e2a3cf5121),
    ("fleet/reactive/evict/warmup0", 0x91ad6a5a9cc09c86),
    ("fleet/reactive/evict/warmup0.1", 0x366446e2a3cf5121),
    ("fleet/utilization/drain/warmup0", 0xf03c2604d99f5463),
    ("fleet/utilization/drain/warmup0.1", 0xb44226d4d499f909),
    ("fleet/utilization/evict/warmup0", 0xf03c2604d99f5463),
    ("fleet/utilization/evict/warmup0.1", 0xb44226d4d499f909),
    ("fleet/scheduled/drain/warmup0", 0xba71d93fac21894d),
    ("fleet/scheduled/drain/warmup0.1", 0xe554930875938ce5),
    ("fleet/scheduled/evict/warmup0", 0xbaa6c11c63b359bf),
    ("fleet/scheduled/evict/warmup0.1", 0xe554930875938ce5),
    ("fleet/predictive/drain/warmup0", 0x35411d56c47aed52),
    ("fleet/predictive/drain/warmup0.1", 0x196dbcf13cf8853e),
    ("fleet/predictive/evict/warmup0", 0x8d745e871e315edb),
    ("fleet/predictive/evict/warmup0.1", 0x196dbcf13cf8853e),
    ("fleet/recall", 0xd855978687b00c6f),
];
const DECODE_AUTOSCALE_PINS: &[(&str, u64)] = &[
    ("decode/reactive/drain", 0x8962edc4e32ca86c),
    ("decode/reactive/migrate", 0x8962edc4e32ca86c),
    ("decode/utilization/drain", 0xefc1728b9cb7f5b6),
    ("decode/utilization/migrate", 0xefc1728b9cb7f5b6),
    ("decode/scheduled/drain", 0x46d2bda8a30150cf),
    ("decode/scheduled/migrate", 0xf8c4c6402cbff576),
    ("decode/predictive/drain", 0x0d42b6e70155d624),
    ("decode/predictive/migrate", 0x6a787e96a5b4ef57),
];
const DISAGG_AUTOSCALE_PINS: &[(&str, u64)] = &[
    ("disagg/prefill", 0x9bf228aa2d0d6819),
    ("disagg/decode", 0x51d0b8c1099c3f10),
    ("disagg/both", 0x85039cee3d6fe3c4),
];
const FLEET_FAILURE_PINS: &[(&str, u64)] = &[
    ("fleet/crash/patient/exact", 0xf8e6b3dac91086f1),
    ("fleet/crash/patient/streaming", 0x9e45d626379174ff),
    ("fleet/crash/retrying/exact", 0xd50e8ea841f6e6a6),
    ("fleet/crash/retrying/streaming", 0xf712d70a17e92b21),
    ("fleet/straggler/patient/exact", 0xc7f66731126a2c16),
    ("fleet/straggler/patient/streaming", 0x924376f1ce2a0b5d),
    ("fleet/straggler/retrying/exact", 0xd6b16125c3f5cc00),
    ("fleet/straggler/retrying/streaming", 0x451ad99f8f88d905),
    ("fleet/overlap/patient/exact", 0x0ea36c749436db06),
    ("fleet/overlap/patient/streaming", 0x89d32c0a069b6c80),
    ("fleet/overlap/retrying/exact", 0x5a077f3491cf12ff),
    ("fleet/overlap/retrying/streaming", 0x42c5e4ad6e1636d0),
];
const AUTOSCALE_FAILURE_PINS: &[(&str, u64)] = &[
    ("autoscale/crash/patient/exact", 0x058b517d118ad0f2),
    ("autoscale/crash/patient/streaming", 0xa92ddfab5ef2c8d1),
    ("autoscale/crash/retrying/exact", 0xd1eafb26ad55cb4b),
    ("autoscale/crash/retrying/streaming", 0x5463c58078a260a4),
    ("autoscale/straggler/patient/exact", 0x54b64213337116f5),
    ("autoscale/straggler/patient/streaming", 0x2ad9726232928041),
    ("autoscale/straggler/retrying/exact", 0x89ddeee741359c0f),
    ("autoscale/straggler/retrying/streaming", 0x26e871907fa716ea),
    ("autoscale/overlap/patient/exact", 0xeb5c008ad20d2eff),
    ("autoscale/overlap/patient/streaming", 0x446740236127ae09),
    ("autoscale/overlap/retrying/exact", 0x40301363f04de4af),
    ("autoscale/overlap/retrying/streaming", 0x26a79488cbfea903),
];
const DECODE_FAILURE_PINS: &[(&str, u64)] = &[
    ("decode/crash/patient/exact", 0x1d836c81e20e4714),
    ("decode/crash/patient/streaming", 0xa9737937ab40f169),
    ("decode/crash/retrying/exact", 0x0e30e1e09f317b48),
    ("decode/crash/retrying/streaming", 0x8cc40c6b860885d3),
    ("decode/straggler/patient/exact", 0x9cb657da74df7a95),
    ("decode/straggler/patient/streaming", 0x1a07513169b3e32e),
    ("decode/straggler/retrying/exact", 0x66efe7d07e5a0ce6),
    ("decode/straggler/retrying/streaming", 0x2084fe15add9e426),
    ("decode/overlap/patient/exact", 0x350c3155e106f8af),
    ("decode/overlap/patient/streaming", 0xff23fceaed0576df),
    ("decode/overlap/retrying/exact", 0x8aa11b752f760d4d),
    ("decode/overlap/retrying/streaming", 0x14fd82444ad98493),
];
const DISAGG_FAILURE_PINS: &[(&str, u64)] = &[
    ("disagg/crash/patient/exact", 0x72185c2d0efc0fde),
    ("disagg/crash/patient/streaming", 0xe6152247a84cc7d7),
    ("disagg/crash/retrying/exact", 0xd1e4e2178fbebed0),
    ("disagg/crash/retrying/streaming", 0x70bab106434dab59),
    ("disagg/straggler/patient/exact", 0xf148d074e2a3d1f7),
    ("disagg/straggler/patient/streaming", 0xd7d74aab112b1c31),
    ("disagg/straggler/retrying/exact", 0x16771e04608fbe3f),
    ("disagg/straggler/retrying/streaming", 0x75a2f0b31f37653b),
    ("disagg/overlap/patient/exact", 0x85d38ac6fd8cd339),
    ("disagg/overlap/patient/streaming", 0x1e003f9e232c9118),
    ("disagg/overlap/retrying/exact", 0x4ab47c72f5c6f024),
    ("disagg/overlap/retrying/streaming", 0xac30d22ea6b4d944),
];
