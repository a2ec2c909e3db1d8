//! `fleet_stream_1m`: the million-request smoke scenario timed from trace
//! generation on — 1M RTE requests, open-loop Poisson at 50,000 seq/s in
//! simulated time, on 4 tiny-model shards tuned for s_avg 64, with
//! join-shortest-queue dispatch, length-aware scheduling, the default
//! batcher and streaming report sketches.

use lat_core::pipeline::SchedulingPolicy;
use lat_core::sketch::ReportMode;
use lat_hwsim::accelerator::AcceleratorDesign;
use lat_hwsim::fleet::{
    homogeneous_fleet, poisson_trace, simulate_fleet_instrumented, BatcherConfig, DispatchPolicy,
    FleetReport, FleetRunStats, Request,
};
use lat_hwsim::spec::FpgaSpec;
use lat_model::config::ModelConfig;
use lat_model::graph::AttentionMode;
use lat_workloads::datasets::DatasetSpec;
use serde::json::Value;

use crate::outcome::{digest, f, n, obj, Outcome, Sim};
use crate::spans::Tracer;
use crate::workload::{layer, ratio, Layers, Workload};

const REQUESTS: usize = 1_000_000;
const RATE_SEQ_S: f64 = 50_000.0;
const SHARDS: usize = 4;
const S_AVG: usize = 64;
/// Batches priced again, outside the engine, to time `run_batch`.
const REPLAY_BATCHES: usize = 10_000;

pub struct FleetStream {
    seed: u64,
    dataset: DatasetSpec,
    fleet: Vec<AcceleratorDesign>,
    cfg: BatcherConfig,
}

impl FleetStream {
    fn simulate(&self, trace: &[Request], mode: ReportMode) -> (FleetReport, FleetRunStats) {
        simulate_fleet_instrumented(
            &self.fleet,
            trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &self.cfg,
            mode,
        )
    }
}

/// One job's output: the trace it generated and the engine's report.
pub struct FleetRun {
    trace: Vec<Request>,
    report: FleetReport,
    stats: FleetRunStats,
}

impl Workload for FleetStream {
    type Output = FleetRun;

    fn setup(seed: u64, _workers: usize) -> Self {
        let design = AcceleratorDesign::new(
            &ModelConfig::tiny(),
            AttentionMode::paper_sparse(),
            FpgaSpec::alveo_u280(),
            S_AVG,
        );
        Self {
            seed,
            dataset: DatasetSpec::rte(),
            fleet: homogeneous_fleet(&design, SHARDS),
            cfg: BatcherConfig::default(),
        }
    }

    fn size(&self) -> Value {
        obj([
            ("requests", n(REQUESTS)),
            ("rate_seq_s", f(RATE_SEQ_S)),
            ("shards", n(SHARDS)),
            ("model", Value::Str("tiny".into())),
            ("s_avg", n(S_AVG)),
            ("dataset", Value::Str(self.dataset.name.clone())),
            ("dispatch", Value::Str("join-shortest-queue".into())),
            ("scheduling", Value::Str("length-aware".into())),
            ("mode", Value::Str("streaming".into())),
        ])
    }

    fn run(&self, t: &Tracer) -> FleetRun {
        let trace = t.span("workloads.poisson_trace", || {
            poisson_trace(&self.dataset, RATE_SEQ_S, REQUESTS, self.seed)
        });
        let (report, stats) = t.span("fleet.simulate", || {
            self.simulate(&trace, ReportMode::Streaming)
        });
        FleetRun {
            trace,
            report,
            stats,
        }
    }

    fn check(&self, run: &FleetRun) -> Outcome {
        fleet_outcome(&run.report, &run.stats, run.trace.len())
    }

    fn probe(&self, t: &Tracer, run: &FleetRun, out: &Outcome) -> Result<Layers, String> {
        let (exact, exact_stats) = t.span("sketch.exact", || {
            self.simulate(&run.trace, ReportMode::Exact)
        });
        let exact_out = fleet_outcome(&exact, &exact_stats, run.trace.len());
        if exact_out.counters_fp() != out.counters_fp() {
            return Err(format!(
                "Exact counters {} differ from Streaming counters {}",
                exact_out.counters_fp(),
                out.counters_fp()
            ));
        }

        let batch = (exact.mean_batch_size.round() as usize).max(1);
        let replayed = t.span("accelerator.run_batch_replay", || {
            run.trace
                .chunks_exact(batch)
                .take(REPLAY_BATCHES)
                .map(|chunk| {
                    let lengths: Vec<usize> = chunk.iter().map(|r| r.len).collect();
                    let r = self.fleet[0].run_batch(&lengths, SchedulingPolicy::LengthAware);
                    std::hint::black_box(r.seconds);
                })
                .count()
        });
        let run_batch_us = 1e6 * ratio(t.total_s("accelerator.run_batch_replay"), replayed as f64);

        let trace_gen_s = t.self_s("workloads.poisson_trace");
        // `poisson_trace` draws one length per request.
        let samples = run.trace.len() as f64;
        let sim_s = t.self_s("fleet.simulate");
        let calls = layer(out, "accelerator.run_batch_calls");
        let events = layer(out, "fleet.events");
        let mut layers = out.layers.clone();
        layers.extend([
            ("workloads.trace_gen_s", trace_gen_s),
            ("workloads.samples", samples),
            ("workloads.ns_per_sample", 1e9 * ratio(trace_gen_s, samples)),
            ("accelerator.run_batch_us", run_batch_us),
            (
                "accelerator.pricing_share",
                ratio(calls * run_batch_us * 1e-6, sim_s),
            ),
            ("fleet.sim_s", sim_s),
            ("fleet.events_per_s", ratio(events, sim_s)),
            ("sketch.streaming_s", sim_s),
            ("sketch.exact_s", t.total_s("sketch.exact")),
        ]);
        Ok(layers)
    }
}

/// Outcome of one fleet run: conservation, the report fingerprint and the
/// mode-independent counters.
fn fleet_outcome(r: &FleetReport, stats: &FleetRunStats, requests: usize) -> Outcome {
    let batches: usize = r.shards.iter().map(|s| s.batches).sum();
    let shards = Value::Arr(
        r.shards
            .iter()
            .map(|s| {
                obj([
                    ("shard", n(s.shard)),
                    ("tuned_length", n(s.tuned_length)),
                    ("completed", n(s.completed)),
                    ("batches", n(s.batches)),
                    ("mean_batch_size", f(s.mean_batch_size)),
                    ("utilization", f(s.utilization)),
                    ("mean_queue_depth", f(s.mean_queue_depth)),
                    ("max_queue_depth", n(s.max_queue_depth)),
                ])
            })
            .collect(),
    );
    let counters = obj([
        ("completed", n(r.completed)),
        ("makespan_s", f(r.makespan_s)),
        ("throughput_seq_s", f(r.throughput_seq_s)),
        ("mean_batch_size", f(r.mean_batch_size)),
        ("shards", shards),
        ("events", Value::UInt(stats.events_processed)),
        ("peak_heap_events", n(stats.peak_heap_events)),
    ]);
    let report = obj([
        ("counters", counters.clone()),
        ("mean_latency_s", f(r.mean_latency_s)),
        ("p50_latency_s", f(r.p50_latency_s)),
        ("p95_latency_s", f(r.p95_latency_s)),
        ("p99_latency_s", f(r.p99_latency_s)),
        (
            "batch_log",
            digest(r.batch_log.iter().flat_map(|b| {
                [
                    b.shard as u64,
                    b.start_s.to_bits(),
                    b.completion_s.to_bits(),
                    b.size as u64,
                ]
            })),
        ),
    ]);
    let sim = Sim {
        latency_p50_s: r.p50_latency_s,
        latency_p99_s: r.p99_latency_s,
        throughput_seq_s: r.throughput_seq_s,
        samples: r.completed as u64,
    };
    let mut out = Outcome::new(requests as u64, r.completed as u64, sim, report, counters);
    out.layers = vec![
        ("fleet.events", stats.events_processed as f64),
        ("fleet.peak_heap_events", stats.peak_heap_events as f64),
        ("fleet.batches", batches as f64),
        ("fleet.tracked_bytes", stats.peak_tracked_bytes() as f64),
        ("accelerator.run_batch_calls", batches as f64),
        (
            "sketch.retained_samples",
            (stats.retained_latency_samples + stats.retained_batch_records) as f64,
        ),
    ];
    out
}
