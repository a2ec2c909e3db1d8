//! Streaming-vs-exact report equivalence across the serving engines, plus
//! the PR's two client/report regression pins.
//!
//! `ReportMode::Streaming` must change *representation*, never *events*:
//! every counter, makespan, throughput, and batch-size mean is asserted
//! bit-identical to the exact run of the same scenario, while the
//! percentile fields — the only sketch-estimated values — are pinned to
//! `|sketch − exact| ≤ ε`. The suite covers the healthy fleet and decode
//! engines and all three failure entry points (fixed fleet, autoscaled
//! fleet, decode), so the sketch path is exercised through crashes,
//! stragglers, client retries, and re-priced in-flight work.

use lat_bench::scenarios::{
    harness_seed, FAILURE_BACKOFF_S, FAILURE_DEADLINE_S, FAILURE_MAX_RETRIES, FAILURE_TIMEOUT_S,
};
use lat_fpga::core::pipeline::SchedulingPolicy;
use lat_fpga::core::sketch::ReportMode;
use lat_fpga::hwsim::accelerator::AcceleratorDesign;
use lat_fpga::hwsim::autoscale::{AutoscaleConfig, DecodeScaleDown, RetirePolicy, ScalePolicy};
use lat_fpga::hwsim::decode::{decode_trace, simulate_decode_mode, DecodeConfig, DecodeScheduler};
use lat_fpga::hwsim::failure::{
    simulate_autoscale_failure, simulate_autoscale_failure_mode, simulate_decode_failure,
    simulate_decode_failure_mode, simulate_fleet_failure, simulate_fleet_failure_mode,
    ClientConfig, Fault, FaultKind, FaultPlan, RetryDecision,
};
use lat_fpga::hwsim::fleet::{
    homogeneous_fleet, poisson_trace, simulate_fleet, simulate_fleet_mode, BatcherConfig,
    DispatchPolicy, FleetReport,
};
use lat_fpga::hwsim::spec::FpgaSpec;
use lat_fpga::model::config::ModelConfig;
use lat_fpga::model::graph::AttentionMode;
use lat_fpga::workloads::datasets::DatasetSpec;

/// Relative tolerance pinned for every sketch-estimated percentile: the
/// log-bucket sketch's α guarantee, which holds for every population and
/// arrival order — smooth bulks and fault-induced CDF cliffs alike.
const QUANTILE_EPS: f64 = 0.01;

fn tiny_design(s_avg: usize) -> AcceleratorDesign {
    AcceleratorDesign::new(
        &ModelConfig::tiny(),
        AttentionMode::paper_sparse(),
        FpgaSpec::alveo_u280(),
        s_avg,
    )
}

fn batcher() -> BatcherConfig {
    BatcherConfig {
        max_batch: 8,
        batch_window_s: 0.002,
    }
}

fn client() -> ClientConfig {
    ClientConfig {
        timeout_s: FAILURE_TIMEOUT_S,
        max_retries: FAILURE_MAX_RETRIES,
        backoff_s: FAILURE_BACKOFF_S,
        deadline_s: FAILURE_DEADLINE_S,
    }
}

/// A client impatient enough to act inside the blackout window below:
/// 50 ms per-attempt timeout, two backoff-doubled retries, and a 250 ms
/// end-to-end deadline that expires well before the outage lifts.
fn impatient_client() -> ClientConfig {
    ClientConfig {
        timeout_s: 0.05,
        max_retries: 2,
        backoff_s: 0.02,
        deadline_s: 0.25,
    }
}

/// Total outage: every shard crashes at 0.1 s and recovers at 0.7 s.
/// Arrivals inside the window park, so the impatient client's timeouts
/// actually fire — retries pile up and the 250 ms deadline abandons the
/// early cohort, exercising retry/abandonment accounting in both report
/// modes. (Partial faults never make this fleet slow enough for a
/// client-visible queue; see the straggler-only [`stormy_plan`].)
fn blackout_plan() -> FaultPlan {
    FaultPlan {
        faults: (0..3)
            .map(|shard| Fault {
                shard,
                kind: FaultKind::Crash {
                    at_s: 0.1,
                    recover_s: Some(0.7),
                },
            })
            .collect(),
    }
}

/// A surge scenario that produces client retries *without* a latency
/// cliff: shard 0 crashes for 0.9 s and shard 1 drags ×100 while a
/// heavy arrival stream keeps the survivors saturated, so some queued
/// requests outlive the 10 ms timeout and re-enter — but the retried
/// cohort's latencies stay within the same decade as the bulk (deadline
/// 30 ms), keeping the population smooth enough for value-space pins.
fn surge_plan() -> FaultPlan {
    FaultPlan {
        faults: vec![
            Fault {
                shard: 0,
                kind: FaultKind::Crash {
                    at_s: 0.1,
                    recover_s: Some(1.0),
                },
            },
            Fault {
                shard: 1,
                kind: FaultKind::Straggler {
                    from_s: 0.05,
                    until_s: 0.8,
                    slowdown: 100.0,
                },
            },
        ],
    }
}

/// The client paired with [`surge_plan`]: fires fast, gives up fast.
fn hasty_client() -> ClientConfig {
    ClientConfig {
        timeout_s: 0.01,
        max_retries: 3,
        backoff_s: 0.005,
        deadline_s: 0.03,
    }
}

/// Crash-with-recovery on shard 0 plus a straggler window on shard 1 —
/// exercises batch-record removal and in-flight re-pricing.
fn stormy_plan() -> FaultPlan {
    FaultPlan {
        faults: vec![
            Fault {
                shard: 0,
                kind: FaultKind::Crash {
                    at_s: 1.0,
                    recover_s: Some(2.5),
                },
            },
            Fault {
                shard: 1,
                kind: FaultKind::Straggler {
                    from_s: 0.5,
                    until_s: 3.0,
                    slowdown: 20.0,
                },
            },
        ],
    }
}

fn assert_quantile_close(tag: &str, sketch: f64, exact: f64) {
    let tol = exact.abs().max(1e-9) * QUANTILE_EPS + 1e-9;
    assert!(
        (sketch - exact).abs() <= tol,
        "{tag}: sketch {sketch} vs exact {exact} (tol {tol})"
    );
}

/// The bit-identical portion of the streaming contract: every counter,
/// the makespan, throughput, batch-size mean, and per-shard stats must
/// match the exact run exactly — `ReportMode::Streaming` changes
/// representation, never events.
fn assert_fleet_counters_equal(stream: &FleetReport, exact: &FleetReport) {
    assert_eq!(stream.completed, exact.completed);
    assert_eq!(stream.makespan_s.to_bits(), exact.makespan_s.to_bits());
    assert_eq!(
        stream.throughput_seq_s.to_bits(),
        exact.throughput_seq_s.to_bits()
    );
    assert_eq!(
        stream.mean_batch_size.to_bits(),
        exact.mean_batch_size.to_bits()
    );
    assert_eq!(stream.shards, exact.shards, "per-shard stats diverged");
    assert!(
        stream.batch_log.is_empty(),
        "streaming retained a batch log"
    );
}

/// Everything in a [`FleetReport`] except the three percentile fields,
/// the (summation-order-sensitive) mean, and the batch log must be
/// bit-identical between modes.
fn assert_fleet_reports_equivalent(stream: &FleetReport, exact: &FleetReport) {
    assert_fleet_counters_equal(stream, exact);
    assert_quantile_close("mean latency", stream.mean_latency_s, exact.mean_latency_s);
    assert_quantile_close("p50", stream.p50_latency_s, exact.p50_latency_s);
    assert_quantile_close("p95", stream.p95_latency_s, exact.p95_latency_s);
    assert_quantile_close("p99", stream.p99_latency_s, exact.p99_latency_s);
}

#[test]
fn fleet_streaming_matches_exact() {
    let fleet = homogeneous_fleet(&tiny_design(64), 3);
    let trace = poisson_trace(&DatasetSpec::rte(), 120.0, 800, harness_seed());
    let cfg = batcher();
    let run = |mode| {
        simulate_fleet_mode(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &cfg,
            mode,
        )
    };
    let exact = run(ReportMode::Exact);
    let stream = run(ReportMode::Streaming);
    assert_eq!(
        exact,
        simulate_fleet(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &cfg,
        ),
        "Exact mode must be simulate_fleet verbatim"
    );
    assert_fleet_reports_equivalent(&stream, &exact);
}

#[test]
fn decode_streaming_matches_exact() {
    let fleet = homogeneous_fleet(&tiny_design(64), 3);
    let trace = decode_trace(
        &DatasetSpec::mrpc(),
        &DatasetSpec::mrpc().decode_output(),
        0.3,
        60.0,
        400,
        harness_seed(),
    );
    let cfg = DecodeConfig {
        max_slots: 6,
        ttft_deadline_s: 0.05,
    };
    let run = |mode| {
        simulate_decode_mode(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::ContinuousPreempt,
            &cfg,
            mode,
        )
    };
    let exact = run(ReportMode::Exact);
    let stream = run(ReportMode::Streaming);
    assert_fleet_reports_equivalent(&stream.fleet, &exact.fleet);
    assert_eq!(stream.generated_tokens, exact.generated_tokens);
    assert_eq!(
        stream.goodput_tok_s.to_bits(),
        exact.goodput_tok_s.to_bits()
    );
    assert_eq!(
        stream.slot_utilization.to_bits(),
        exact.slot_utilization.to_bits()
    );
    assert_eq!(stream.preemptions, exact.preemptions);
    assert_eq!(stream.shards, exact.shards);
    assert!(stream.requests.is_empty(), "streaming retained outcomes");
    assert_quantile_close("ttft mean", stream.ttft_mean_s, exact.ttft_mean_s);
    assert_quantile_close("ttft p50", stream.ttft_p50_s, exact.ttft_p50_s);
    assert_quantile_close("ttft p95", stream.ttft_p95_s, exact.ttft_p95_s);
    assert_quantile_close("ttft p99", stream.ttft_p99_s, exact.ttft_p99_s);
    assert_quantile_close("itl p50", stream.itl_p50_s, exact.itl_p50_s);
    assert_quantile_close("itl p95", stream.itl_p95_s, exact.itl_p95_s);
    assert_quantile_close("itl p99", stream.itl_p99_s, exact.itl_p99_s);
    let (se, ee) = (stream.high_ttft_p95_s, exact.high_ttft_p95_s);
    assert_eq!(se.is_some(), ee.is_some(), "high-priority presence");
    if let (Some(s), Some(e)) = (se, ee) {
        assert_quantile_close("high ttft p95", s, e);
    }
}

#[test]
fn fleet_failure_streaming_matches_exact() {
    let fleet = homogeneous_fleet(&tiny_design(64), 3);
    let trace = poisson_trace(&DatasetSpec::rte(), 8000.0, 3000, harness_seed());
    let cfg = batcher();
    let plan = surge_plan();
    let cl = hasty_client();
    let run = |mode| {
        simulate_fleet_failure_mode(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &cfg,
            &plan,
            &cl,
            0.25,
            mode,
        )
    };
    let exact = run(ReportMode::Exact);
    let stream = run(ReportMode::Streaming);
    assert!(exact.retries > 0, "scenario too calm to exercise retries");
    assert_eq!(stream.completed, exact.completed);
    assert_eq!(stream.timed_out, exact.timed_out);
    assert_eq!(stream.retried, exact.retried);
    assert_eq!(stream.retries, exact.retries);
    assert_eq!(
        stream.slo_attainment.to_bits(),
        exact.slo_attainment.to_bits(),
        "SLO attainment is a count ratio — identical in both modes"
    );
    assert_eq!(
        stream.goodput_seq_s.to_bits(),
        exact.goodput_seq_s.to_bits()
    );
    assert!(stream.outcomes.is_empty(), "streaming retained outcomes");
    assert_fleet_counters_equal(&stream.fleet, &exact.fleet);
    let (sf, ef) = (&stream.fleet, &exact.fleet);
    assert_quantile_close("surge mean latency", sf.mean_latency_s, ef.mean_latency_s);
    assert_quantile_close("surge p50", sf.p50_latency_s, ef.p50_latency_s);
    assert_quantile_close("surge p95", sf.p95_latency_s, ef.p95_latency_s);
    assert_quantile_close("surge p99", sf.p99_latency_s, ef.p99_latency_s);
    assert_eq!(stream.phases.len(), exact.phases.len());
    for (sp, ep) in stream.phases.iter().zip(&exact.phases) {
        assert_eq!(sp.arrivals, ep.arrivals);
        assert_eq!(sp.completed, ep.completed);
        assert_eq!(sp.timed_out, ep.timed_out);
        assert_eq!(sp.scale_events, ep.scale_events);
        assert_eq!(sp.slo_attainment.to_bits(), ep.slo_attainment.to_bits());
        assert_eq!(sp.goodput_seq_s.to_bits(), ep.goodput_seq_s.to_bits());
        assert_quantile_close("phase p95", sp.p95_latency_s, ep.p95_latency_s);
    }
}

#[test]
fn autoscale_failure_streaming_matches_exact() {
    let fleet = homogeneous_fleet(&tiny_design(64), 4);
    let trace = poisson_trace(&DatasetSpec::rte(), 150.0, 600, harness_seed());
    let cfg = batcher();
    let auto_cfg = AutoscaleConfig {
        min_shards: 1,
        initial_shards: 2,
        policy: ScalePolicy::Reactive {
            scale_up_depth: 4.0,
            scale_down_depth: 0.5,
        },
        retire: RetirePolicy::Evict,
        eval_interval_s: 0.05,
        warmup_s: 0.2,
        cooldown_s: 0.0,
        ..AutoscaleConfig::default()
    };
    let plan = stormy_plan();
    let cl = client();
    let run = |mode| {
        simulate_autoscale_failure_mode(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &cfg,
            &auto_cfg,
            &plan,
            &cl,
            mode,
        )
    };
    let exact = run(ReportMode::Exact);
    let stream = run(ReportMode::Streaming);
    assert_eq!(
        exact,
        simulate_autoscale_failure(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &cfg,
            &auto_cfg,
            &plan,
            &cl,
        ),
        "Exact mode must be simulate_autoscale_failure verbatim"
    );
    assert_eq!(
        stream.shard_seconds.to_bits(),
        exact.shard_seconds.to_bits()
    );
    assert_eq!(
        stream.mean_active_shards.to_bits(),
        exact.mean_active_shards.to_bits()
    );
    assert_eq!(stream.peak_active_shards, exact.peak_active_shards);
    assert_eq!(stream.scale_events, exact.scale_events);
    assert_eq!(stream.failure.completed, exact.failure.completed);
    assert_eq!(stream.failure.timed_out, exact.failure.timed_out);
    assert_eq!(stream.failure.retries, exact.failure.retries);
    assert!(stream.failure.outcomes.is_empty());
    assert_fleet_counters_equal(&stream.failure.fleet, &exact.failure.fleet);
    // The autoscaled incident produces a *cliff* latency population: a
    // warm-up-delayed cohort sits orders of magnitude above the healthy
    // bulk, and the CDF jump lands right at p95. The sketch's relative
    // error bound holds across the cliff all the same.
    let (sf, ef) = (&stream.failure.fleet, &exact.failure.fleet);
    assert_quantile_close(
        "autoscale mean latency",
        sf.mean_latency_s,
        ef.mean_latency_s,
    );
    assert_quantile_close("autoscale p50", sf.p50_latency_s, ef.p50_latency_s);
    assert_quantile_close("autoscale p95", sf.p95_latency_s, ef.p95_latency_s);
    assert_quantile_close("autoscale p99", sf.p99_latency_s, ef.p99_latency_s);
}

#[test]
fn decode_failure_streaming_matches_exact() {
    let fleet = homogeneous_fleet(&tiny_design(64), 3);
    let trace = decode_trace(
        &DatasetSpec::mrpc(),
        &DatasetSpec::mrpc().decode_output(),
        0.2,
        50.0,
        300,
        harness_seed(),
    );
    let cfg = DecodeConfig {
        max_slots: 4,
        ttft_deadline_s: 0.05,
    };
    let plan = stormy_plan();
    let cl = client();
    let run = |mode| {
        simulate_decode_failure_mode(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Continuous,
            &cfg,
            &plan,
            &cl,
            DecodeScaleDown::Migrate,
            0.1,
            mode,
        )
    };
    let exact = run(ReportMode::Exact);
    let stream = run(ReportMode::Streaming);
    assert_eq!(
        exact,
        simulate_decode_failure(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Continuous,
            &cfg,
            &plan,
            &cl,
            DecodeScaleDown::Migrate,
            0.1,
        ),
        "Exact mode must be simulate_decode_failure verbatim"
    );
    assert_eq!(stream.completed, exact.completed);
    assert_eq!(stream.timed_out, exact.timed_out);
    assert_eq!(stream.retried, exact.retried);
    assert_eq!(stream.retries, exact.retries);
    assert_eq!(
        stream.slo_attainment.to_bits(),
        exact.slo_attainment.to_bits()
    );
    assert_eq!(
        stream.affected_drain_s.to_bits(),
        exact.affected_drain_s.to_bits()
    );
    assert!(stream.outcomes.is_empty());
    assert_fleet_reports_equivalent(&stream.decode.fleet, &exact.decode.fleet);
    for (sp, ep) in stream.phases.iter().zip(&exact.phases) {
        assert_eq!(sp.arrivals, ep.arrivals);
        assert_eq!(sp.completed, ep.completed);
        assert_eq!(sp.slo_attainment.to_bits(), ep.slo_attainment.to_bits());
        assert_quantile_close("decode phase p95", sp.p95_latency_s, ep.p95_latency_s);
    }
}

/// Regression pin for the deduplicated client-retry scheduling: the
/// fleet and decode fault injectors once carried verbatim copies of the
/// backoff/timeout arithmetic and could drift apart. Both now route
/// through [`ClientConfig::on_timeout`]; this pins the exact
/// `retry_at`/`timeout_at` ladder that shared helper schedules for a full
/// timed-out-every-attempt disposition history.
#[test]
fn retry_schedule_pinned_for_both_client_layers() {
    let cl = client();
    let arrival = 0.0;
    let mut now = arrival + cl.timeout_s; // first timeout fires
    let mut ladder = Vec::new();
    let mut attempts = 0u32;
    while let RetryDecision::Retry {
        retry_at,
        timeout_at,
    } = cl.on_timeout(now, arrival, attempts)
    {
        // The exact arithmetic both injectors used before the
        // dedupe — any drift in the shared helper breaks this.
        let expect_retry = now + cl.backoff_s * 2f64.powi(attempts as i32);
        assert_eq!(retry_at.to_bits(), expect_retry.to_bits());
        assert_eq!(timeout_at.to_bits(), (retry_at + cl.timeout_s).to_bits());
        ladder.push((retry_at, timeout_at));
        attempts += 1;
        now = timeout_at;
    }
    assert_eq!(attempts, cl.max_retries, "full retry budget consumed");
    assert!(attempts <= cl.attempt_bound());
    // FAILURE_* client: timeout 1s, backoff 0.05s doubling, 3 retries.
    let expected = [(1.05, 2.05), (2.15, 3.15), (3.35, 4.35)];
    assert_eq!(ladder.len(), expected.len());
    for ((r, t), (er, et)) in ladder.iter().zip(expected) {
        assert!((r - er).abs() < 1e-12 && (t - et).abs() < 1e-12);
    }
    // Past the deadline the helper abandons even with retries left.
    let late = arrival + cl.deadline_s + 1.0;
    assert_eq!(cl.on_timeout(late, arrival, 0), RetryDecision::Abandon);
    // A timeout-free client arms no next timeout.
    let patient_backoff = ClientConfig {
        timeout_s: f64::INFINITY,
        max_retries: 1,
        backoff_s: 0.5,
        deadline_s: f64::INFINITY,
    };
    match patient_backoff.on_timeout(2.0, 0.0, 0) {
        RetryDecision::Retry { timeout_at, .. } => assert!(timeout_at.is_infinite()),
        RetryDecision::Abandon => panic!("budget allowed a retry"),
    }
}

/// Regression pin for the fleet-level `mean_batch_size` fix: the report
/// must equal Σ logged batch sizes / batch count — computed from the
/// batch log itself — in a crash + straggler + timeout scenario where
/// clients abandon work, and the per-shard means must be consistent with
/// the per-shard slices of the same log.
#[test]
fn fleet_mean_batch_size_matches_batch_log() {
    let fleet = homogeneous_fleet(&tiny_design(64), 3);
    let trace = poisson_trace(&DatasetSpec::rte(), 800.0, 700, harness_seed());
    let r = simulate_fleet_failure(
        &fleet,
        &trace,
        SchedulingPolicy::LengthAware,
        DispatchPolicy::JoinShortestQueue,
        &batcher(),
        &blackout_plan(),
        &impatient_client(),
        0.25,
    );
    assert!(r.timed_out > 0, "scenario too calm to exercise abandonment");
    let log = &r.fleet.batch_log;
    assert!(!log.is_empty());
    let total: usize = log.iter().map(|b| b.size).sum();
    assert_eq!(
        r.fleet.mean_batch_size.to_bits(),
        (total as f64 / log.len() as f64).to_bits(),
        "fleet mean_batch_size must come from logged batch sizes"
    );
    for sh in &r.fleet.shards {
        let sizes: Vec<usize> = log
            .iter()
            .filter(|b| b.shard == sh.shard)
            .map(|b| b.size)
            .collect();
        assert_eq!(sh.batches, sizes.len());
        let expect = if sizes.is_empty() {
            0.0
        } else {
            sizes.iter().sum::<usize>() as f64 / sizes.len() as f64
        };
        assert_eq!(
            sh.mean_batch_size.to_bits(),
            expect.to_bits(),
            "shard {} mean_batch_size inconsistent with its log slice",
            sh.shard
        );
    }
}
