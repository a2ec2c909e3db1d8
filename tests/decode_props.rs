//! Property-based tests of the generative-decode engine's invariants:
//! request/token conservation, slot-capacity respect, TTFT ordering,
//! degenerate equivalence of static and continuous batching at one slot,
//! determinism under `HARNESS_SEED`, the shared arrival process between
//! the encoder and decode trace generators, and the single-step
//! cross-check that pins the decode engine to `simulate_fleet`'s cost
//! model (mirrors `tests/fleet_props.rs`).

use lat_bench::scenarios::harness_seed;
use lat_fpga::core::pipeline::SchedulingPolicy;
use lat_fpga::hwsim::accelerator::AcceleratorDesign;
use lat_fpga::hwsim::decode::nonstationary_decode_trace;
use lat_fpga::hwsim::decode::{
    decode_trace, simulate_decode, DecodeConfig, DecodeScheduler, Priority,
};
use lat_fpga::hwsim::fleet::{
    homogeneous_fleet, nonstationary_poisson_trace, poisson_trace, simulate_fleet, BatcherConfig,
    DispatchPolicy, RatePhase, RateProfile,
};
use lat_fpga::hwsim::spec::FpgaSpec;
use lat_fpga::model::config::ModelConfig;
use lat_fpga::model::graph::AttentionMode;
use lat_fpga::tensor::rng::SplitMix64;
use lat_fpga::workloads::datasets::{DatasetSpec, LengthSampler, PreparedSampler};
use proptest::prelude::*;

fn tiny_design(s_avg: usize) -> AcceleratorDesign {
    AcceleratorDesign::new(
        &ModelConfig::tiny(),
        AttentionMode::paper_sparse(),
        FpgaSpec::alveo_u280(),
        s_avg,
    )
}

fn scheduler_from_index(i: usize) -> DecodeScheduler {
    DecodeScheduler::ALL[i % DecodeScheduler::ALL.len()]
}

fn dispatch_from_index(i: usize) -> DispatchPolicy {
    DispatchPolicy::ALL[i % DispatchPolicy::ALL.len()]
}

/// Output sampler fixed at one token: a decode request degenerates to a
/// pure prefill, i.e. an encoder request.
struct SingleToken;

impl LengthSampler for SingleToken {
    type Prepared = SingleToken;

    fn prepare(&self) -> SingleToken {
        SingleToken
    }

    fn label(&self) -> String {
        "1-token".into()
    }
}

impl PreparedSampler for SingleToken {
    fn sample(&self, _rng: &mut SplitMix64) -> usize {
        1
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every admitted request completes exactly once and generates exactly
    /// its sampled output tokens; TTFT never exceeds end-to-end latency;
    /// no iteration exceeds the slot cap; per-shard iterations never
    /// overlap in time — whatever the scheduler, fleet shape, or load.
    #[test]
    fn conservation_capacity_and_ttft_ordering(
        shards in 1usize..4,
        scheduler_idx in 0usize..3,
        dispatch_idx in 0usize..3,
        rate in 50.0f64..5000.0,
        max_slots in 1usize..10,
        high_pct in 0u32..50,
        n in 8usize..32,
        seed in 0u64..1_000_000,
    ) {
        let fleet = homogeneous_fleet(&tiny_design(64), shards);
        let trace = decode_trace(
            &DatasetSpec::mrpc(),
            &DatasetSpec::mrpc().decode_output(),
            high_pct as f64 / 100.0,
            rate,
            n,
            seed,
        );
        let r = simulate_decode(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            dispatch_from_index(dispatch_idx),
            scheduler_from_index(scheduler_idx),
            &DecodeConfig { max_slots, ttft_deadline_s: 0.02 },
        );
        // Request and token conservation.
        prop_assert_eq!(r.fleet.completed, n);
        prop_assert_eq!(r.fleet.shards.iter().map(|s| s.completed).sum::<usize>(), n);
        prop_assert_eq!(
            r.generated_tokens,
            trace.iter().map(|q| q.output_len as u64).sum::<u64>()
        );
        for (req, out) in trace.iter().zip(&r.requests) {
            prop_assert_eq!(out.tokens, req.output_len);
            prop_assert!(out.shard < shards);
            // First token can't land after the last one.
            prop_assert!(out.ttft_s > 0.0);
            prop_assert!(out.ttft_s <= out.completion_s - req.arrival_s + 1e-12);
        }
        // Slot capacity: no iteration holds more live sequences than the
        // cap, and a shard never runs two iterations at once.
        prop_assert!(r.fleet.batch_log.iter().all(|b| b.size >= 1 && b.size <= max_slots));
        for s in 0..shards {
            let mut last_end = 0.0f64;
            for b in r.fleet.batch_log.iter().filter(|b| b.shard == s) {
                prop_assert!(b.start_s >= last_end - 1e-12, "overlapping iterations");
                prop_assert!(b.completion_s > b.start_s);
                last_end = b.completion_s;
            }
        }
        // Metrics sanity.
        prop_assert!(r.slot_utilization > 0.0 && r.slot_utilization <= 1.0 + 1e-12);
        prop_assert!(r.ttft_p50_s <= r.ttft_p95_s && r.ttft_p95_s <= r.ttft_p99_s);
        prop_assert!(r.fleet.p50_latency_s <= r.fleet.p95_latency_s);
        prop_assert!(r.goodput_tok_s > 0.0);
        if scheduler_from_index(scheduler_idx) != DecodeScheduler::ContinuousPreempt {
            prop_assert_eq!(r.preemptions, 0);
            prop_assert!(r.requests.iter().all(|q| q.preemptions == 0));
        }
    }

    /// With a single slot there is nothing to backfill: static and
    /// continuous batching are the same serial schedule and must produce
    /// bit-identical reports.
    #[test]
    fn static_equals_continuous_at_one_slot(
        shards in 1usize..4,
        rate in 50.0f64..3000.0,
        n in 8usize..24,
        seed in 0u64..1_000_000,
    ) {
        let fleet = homogeneous_fleet(&tiny_design(64), shards);
        let trace = decode_trace(
            &DatasetSpec::mrpc(),
            &DatasetSpec::mrpc().decode_output(),
            0.25,
            rate,
            n,
            seed,
        );
        let run = |scheduler| simulate_decode(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            scheduler,
            &DecodeConfig { max_slots: 1, ttft_deadline_s: 0.02 },
        );
        prop_assert_eq!(run(DecodeScheduler::Static), run(DecodeScheduler::Continuous));
    }

    /// Bit-identical reports when re-run from `HARNESS_SEED`-derived
    /// traces: the engine has no hidden nondeterminism.
    #[test]
    fn deterministic_under_harness_seed(
        shards in 1usize..4,
        scheduler_idx in 0usize..3,
        rate in 100.0f64..2000.0,
        n in 8usize..24,
    ) {
        let fleet = homogeneous_fleet(&tiny_design(64), shards);
        let trace = decode_trace(
            &DatasetSpec::rte(),
            &DatasetSpec::rte().decode_output(),
            0.2,
            rate,
            n,
            harness_seed(),
        );
        let run = || simulate_decode(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            scheduler_from_index(scheduler_idx),
            &DecodeConfig { max_slots: 4, ttft_deadline_s: 0.01 },
        );
        prop_assert_eq!(run(), run());
    }

    /// The decode trace generator and the encoder fleet's `poisson_trace`
    /// share one trace-building helper: for the same `(sampler, rate, n,
    /// seed)` they emit identical arrival times and identical
    /// prefill/sequence lengths — the arrival processes cannot drift
    /// apart.
    #[test]
    fn arrival_process_shared_with_poisson_trace(
        rate in 10.0f64..5000.0,
        n in 1usize..64,
        seed in 0u64..u64::MAX,
        high_pct in 0u32..=100,
    ) {
        let spec = DatasetSpec::squad_v1();
        let enc = poisson_trace(&spec, rate, n, seed);
        let dec = decode_trace(
            &spec,
            &spec.decode_output(),
            high_pct as f64 / 100.0,
            rate,
            n,
            seed,
        );
        prop_assert_eq!(enc.len(), dec.len());
        for (e, d) in enc.iter().zip(&dec) {
            prop_assert_eq!(e.arrival_s, d.arrival_s);
            prop_assert_eq!(e.len, d.prefill_len);
        }
    }

    /// The nonstationary mirror of the shared-arrival pinning: for the
    /// same `(profile, n, seed)`, the piecewise/diurnal decode trace
    /// generator and the fleet's nonstationary Poisson generator emit
    /// bit-identical arrival times and prefill/sequence lengths — both
    /// are thin payloads over `nonstationary_poisson_process`, so the
    /// arrival processes cannot drift apart.
    #[test]
    fn nonstationary_arrival_process_shared_with_poisson_trace(
        profile_idx in 0usize..2,
        rate_a in 20.0f64..3000.0,
        rate_b in 20.0f64..3000.0,
        dur_a in 0.05f64..2.0,
        swing in 1.0f64..8.0,
        period in 0.5f64..20.0,
        n in 1usize..64,
        seed in 0u64..u64::MAX,
        high_pct in 0u32..=100,
    ) {
        let profile = if profile_idx == 0 {
            RateProfile::Piecewise(vec![
                RatePhase { duration_s: dur_a, rate: rate_a },
                RatePhase { duration_s: 1.0, rate: rate_b },
            ])
        } else {
            RateProfile::Diurnal { mean_rate: rate_a, swing, period_s: period }
        };
        let spec = DatasetSpec::squad_v1();
        let enc = nonstationary_poisson_trace(&spec, &profile, n, seed);
        let dec = nonstationary_decode_trace(
            &spec,
            &spec.decode_output(),
            high_pct as f64 / 100.0,
            &profile,
            n,
            seed,
        );
        prop_assert_eq!(enc.len(), dec.len());
        for (e, d) in enc.iter().zip(&dec) {
            prop_assert_eq!(e.arrival_s, d.arrival_s);
            prop_assert_eq!(e.len, d.prefill_len);
        }
        prop_assert!(dec.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        prop_assert!(dec.iter().all(|r| r.output_len >= 1));
    }

    /// Cross-check: a single-step decode workload (every `output_len` = 1)
    /// is a stream of pure prefills, so the decode engine must reproduce
    /// `simulate_fleet`'s throughput on the same trace — the two engines
    /// answer to one cost model.
    #[test]
    fn single_step_decode_matches_fleet_throughput(
        max_batch in 2usize..8,
        n in 16usize..48,
        seed in 0u64..1_000_000,
    ) {
        // Saturating arrivals: both engines run full back-to-back batches,
        // so batch formation differences stay in the noise.
        let rate = 50_000.0;
        let design = tiny_design(64);
        let dec = decode_trace(&DatasetSpec::rte(), &SingleToken, 0.0, rate, n, seed);
        let enc = poisson_trace(&DatasetSpec::rte(), rate, n, seed);
        let d = simulate_decode(
            std::slice::from_ref(&design),
            &dec,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Continuous,
            &DecodeConfig { max_slots: max_batch, ttft_deadline_s: 0.02 },
        );
        // Zero batching window: the fleet dispatches as eagerly as the
        // decode engine admits, so neither side idles on a timer.
        let f = simulate_fleet(
            std::slice::from_ref(&design),
            &enc,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &BatcherConfig { batch_window_s: 0.0, max_batch },
        );
        prop_assert_eq!(d.generated_tokens as usize, n);
        let rel = (d.fleet.throughput_seq_s - f.throughput_seq_s).abs() / f.throughput_seq_s;
        prop_assert!(
            rel < 0.10,
            "decode {} vs fleet {} seq/s (rel {:.3})",
            d.fleet.throughput_seq_s,
            f.throughput_seq_s,
            rel
        );
    }

    /// The continuous scheduler is priority-blind: rewriting every request
    /// to normal priority must not change its schedule.
    #[test]
    fn continuous_ignores_priorities(
        rate in 100.0f64..3000.0,
        n in 8usize..24,
        seed in 0u64..1_000_000,
    ) {
        let fleet = homogeneous_fleet(&tiny_design(64), 2);
        let trace = decode_trace(
            &DatasetSpec::mrpc(),
            &DatasetSpec::mrpc().decode_output(),
            0.5,
            rate,
            n,
            seed,
        );
        let mut flattened = trace.clone();
        for q in &mut flattened {
            q.priority = Priority::Normal;
        }
        let run = |t: &[lat_fpga::hwsim::decode::DecodeRequest]| simulate_decode(
            &fleet,
            t,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Continuous,
            &DecodeConfig { max_slots: 4, ttft_deadline_s: 0.02 },
        );
        let (a, b) = (run(&trace), run(&flattened));
        // Everything but the per-class TTFT slice (which by construction
        // reads the trace's priority labels) must be bit-identical.
        prop_assert_eq!(&a.fleet, &b.fleet);
        prop_assert_eq!(&a.requests, &b.requests);
        prop_assert_eq!(a.ttft_p99_s, b.ttft_p99_s);
        prop_assert_eq!(a.itl_p99_s, b.itl_p99_s);
        prop_assert_eq!(a.preemptions + b.preemptions, 0);
    }
}
