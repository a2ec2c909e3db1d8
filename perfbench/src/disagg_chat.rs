//! `disagg_chat`: disaggregated prefill/decode serving of a chat-style
//! stream — SQuAD v1.1 prompts with short continuations, open-loop
//! Poisson at 68 req/s in simulated time, on 2 prefill + 2 decode
//! bert-base shards with continuous batching (16 slots), the cheap KV
//! wire, 4 shared 128-token prefixes carried by 90% of requests, a
//! 4-entry prefix cache and exact reports.

use lat_bench::scenarios::{
    disagg_outputs, disagg_prompts, DISAGG_CACHE_CAPACITY, DISAGG_CHEAP_BASE_S,
    DISAGG_CHEAP_PER_TOKEN_S, DISAGG_DECODE_SHARDS, DISAGG_GROUPED_FRACTION, DISAGG_PREFILL_SHARDS,
    DISAGG_PREFIX_GROUPS, DISAGG_PREFIX_LEN, DISAGG_RATE, DISAGG_SLOTS,
};
use lat_core::pipeline::SchedulingPolicy;
use lat_core::sketch::ReportMode;
use lat_hwsim::accelerator::AcceleratorDesign;
use lat_hwsim::decode::{decode_trace, DecodeConfig, DecodeRequest, DecodeScheduler, KvTransfer};
use lat_hwsim::disagg::{simulate_disaggregated_mode, DisaggConfig, DisaggReport, PoolReport};
use lat_hwsim::fleet::{homogeneous_fleet, DispatchPolicy};
use lat_hwsim::spec::FpgaSpec;
use lat_model::config::ModelConfig;
use lat_model::graph::AttentionMode;
use lat_workloads::datasets::DatasetSpec;
use lat_workloads::prefix::{PrefixGroup, PrefixProfile};
use serde::json::Value;

use crate::outcome::{digest, f, n, obj, Outcome, Sim};
use crate::spans::Tracer;
use crate::workload::{layer, ratio, Layers, Workload};

const REQUESTS: usize = 200_000;
/// Prefill-shaped batches priced again, outside the engine.
const REPLAY_BATCHES: usize = 2_000;

pub struct DisaggChat {
    seed: u64,
    prompts: DatasetSpec,
    outputs: DatasetSpec,
    profile: PrefixProfile,
    prefill: Vec<AcceleratorDesign>,
    decode: Vec<AcceleratorDesign>,
    cfg: DecodeConfig,
    dcfg: DisaggConfig,
}

/// One job's output: the generated trace, its prefix assignment and the
/// engine's report.
pub struct DisaggRun {
    trace: Vec<DecodeRequest>,
    prefixes: Vec<Option<PrefixGroup>>,
    report: DisaggReport,
}

impl DisaggChat {
    fn simulate(
        &self,
        trace: &[DecodeRequest],
        prefixes: &[Option<PrefixGroup>],
        mode: ReportMode,
    ) -> DisaggReport {
        simulate_disaggregated_mode(
            &self.prefill,
            &self.decode,
            trace,
            prefixes,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Continuous,
            &self.cfg,
            &self.dcfg,
            mode,
        )
    }
}

impl Workload for DisaggChat {
    type Output = DisaggRun;

    fn setup(seed: u64, _workers: usize) -> Self {
        let prompts = disagg_prompts();
        let design = AcceleratorDesign::new(
            &ModelConfig::bert_base(),
            AttentionMode::paper_sparse(),
            FpgaSpec::alveo_u280(),
            prompts.avg_len,
        );
        let fleet = homogeneous_fleet(&design, DISAGG_PREFILL_SHARDS + DISAGG_DECODE_SHARDS);
        let (prefill, decode) = fleet.split_at(DISAGG_PREFILL_SHARDS);
        Self {
            seed,
            prompts,
            outputs: disagg_outputs(),
            profile: PrefixProfile {
                num_groups: DISAGG_PREFIX_GROUPS,
                prefix_len: DISAGG_PREFIX_LEN,
                grouped_fraction: DISAGG_GROUPED_FRACTION,
            },
            prefill: prefill.to_vec(),
            decode: decode.to_vec(),
            cfg: DecodeConfig {
                max_slots: DISAGG_SLOTS,
                ttft_deadline_s: f64::INFINITY,
            },
            dcfg: DisaggConfig {
                transfer: KvTransfer::Copy {
                    base_s: DISAGG_CHEAP_BASE_S,
                    per_token_s: DISAGG_CHEAP_PER_TOKEN_S,
                },
                prefix_cache_capacity: DISAGG_CACHE_CAPACITY,
            },
        }
    }

    fn size(&self) -> Value {
        obj([
            ("requests", n(REQUESTS)),
            ("rate_seq_s", f(DISAGG_RATE)),
            ("prefill_shards", n(self.prefill.len())),
            ("decode_shards", n(self.decode.len())),
            ("model", Value::Str("bert-base".into())),
            ("prompts", Value::Str(self.prompts.name.clone())),
            ("outputs", Value::Str(self.outputs.name.clone())),
            ("slots", n(self.cfg.max_slots)),
            ("scheduler", Value::Str("continuous".into())),
            ("transfer_base_s", f(DISAGG_CHEAP_BASE_S)),
            ("transfer_per_token_s", f(DISAGG_CHEAP_PER_TOKEN_S)),
            ("prefix_groups", n(self.profile.num_groups)),
            ("prefix_len", n(self.profile.prefix_len)),
            ("grouped_fraction", f(self.profile.grouped_fraction)),
            ("cache_capacity", n(self.dcfg.prefix_cache_capacity)),
            ("mode", Value::Str("exact".into())),
        ])
    }

    fn run(&self, t: &Tracer) -> DisaggRun {
        let trace = t.span("workloads.decode_trace", || {
            decode_trace(
                &self.prompts,
                &self.outputs,
                0.0,
                DISAGG_RATE,
                REQUESTS,
                self.seed,
            )
        });
        let prefixes = t.span("workloads.prefix_assign", || {
            self.profile.assign(trace.len(), self.seed)
        });
        let report = t.span("disagg.simulate", || {
            self.simulate(&trace, &prefixes, ReportMode::Exact)
        });
        DisaggRun {
            trace,
            prefixes,
            report,
        }
    }

    fn check(&self, run: &DisaggRun) -> Outcome {
        disagg_outcome(&run.report, run.trace.len())
    }

    fn probe(&self, t: &Tracer, run: &DisaggRun, out: &Outcome) -> Result<Layers, String> {
        let streaming = t.span("sketch.streaming", || {
            self.simulate(&run.trace, &run.prefixes, ReportMode::Streaming)
        });
        let streaming_out = disagg_outcome(&streaming, run.trace.len());
        if streaming_out.counters_fp() != out.counters_fp() {
            return Err(format!(
                "Streaming counters {} differ from Exact counters {}",
                streaming_out.counters_fp(),
                out.counters_fp()
            ));
        }

        // Prefill iterations are the ones the engine prices with
        // `run_batch`; replay batches of their mean shape.
        let r = &run.report;
        let per_iteration = ratio(
            r.decode.fleet.completed as f64,
            r.prefill_pool.iterations as f64,
        );
        let batch = (per_iteration.round() as usize).max(1);
        let replayed = t.span("accelerator.run_batch_replay", || {
            run.trace
                .chunks_exact(batch)
                .take(REPLAY_BATCHES)
                .map(|chunk| {
                    let lengths: Vec<usize> = chunk.iter().map(|q| q.prefill_len).collect();
                    let r = self.prefill[0].run_batch(&lengths, SchedulingPolicy::LengthAware);
                    std::hint::black_box(r.seconds);
                })
                .count()
        });
        let run_batch_us = 1e6 * ratio(t.total_s("accelerator.run_batch_replay"), replayed as f64);

        let trace_gen_s = t.self_s("workloads.decode_trace") + t.self_s("workloads.prefix_assign");
        // `decode_trace` draws a prompt and an output length per request.
        let samples = 2.0 * run.trace.len() as f64;
        let sim_s = t.self_s("disagg.simulate");
        let calls = layer(out, "accelerator.run_batch_calls");
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
            ("disagg.sim_s", sim_s),
            (
                "disagg.iterations_per_s",
                ratio(layer(out, "disagg.iterations"), sim_s),
            ),
            ("sketch.exact_s", sim_s),
            ("sketch.streaming_s", t.total_s("sketch.streaming")),
        ]);
        Ok(layers)
    }

    fn details(&self, run: &DisaggRun) -> Vec<(&'static str, f64, &'static str, u64)> {
        let d = &run.report.decode;
        let completed = d.fleet.completed as u64;
        let gaps = d.generated_tokens.saturating_sub(completed);
        vec![
            ("sim_ttft_p50_s", d.ttft_p50_s, "s", completed),
            ("sim_ttft_p99_s", d.ttft_p99_s, "s", completed),
            ("sim_itl_p99_s", d.itl_p99_s, "s", gaps),
            (
                "sim_goodput_tok_s",
                d.goodput_tok_s,
                "tok/s",
                d.generated_tokens,
            ),
        ]
    }
}

fn pool(p: &PoolReport) -> Value {
    obj([
        ("shards", n(p.shards)),
        ("completed", n(p.completed)),
        ("iterations", n(p.iterations)),
        ("utilization", f(p.utilization)),
        ("slot_utilization", f(p.slot_utilization)),
    ])
}

/// Outcome of one disaggregated run: conservation, the report
/// fingerprint and the mode-independent counters.
fn disagg_outcome(r: &DisaggReport, requests: usize) -> Outcome {
    let d = &r.decode;
    let fl = &d.fleet;
    let shards = Value::Arr(
        fl.shards
            .iter()
            .zip(&d.shards)
            .map(|(s, ds)| {
                obj([
                    ("shard", n(s.shard)),
                    ("completed", n(s.completed)),
                    ("batches", n(s.batches)),
                    ("mean_batch_size", f(s.mean_batch_size)),
                    ("utilization", f(s.utilization)),
                    ("preemptions", n(ds.preemptions)),
                    ("slot_utilization", f(ds.slot_utilization)),
                    ("peak_resident", n(ds.peak_resident)),
                ])
            })
            .collect(),
    );
    let p = &r.prefix;
    let counters = obj([
        ("completed", n(fl.completed)),
        ("makespan_s", f(fl.makespan_s)),
        ("throughput_seq_s", f(fl.throughput_seq_s)),
        ("mean_batch_size", f(fl.mean_batch_size)),
        ("generated_tokens", Value::UInt(d.generated_tokens)),
        ("goodput_tok_s", f(d.goodput_tok_s)),
        ("slot_utilization", f(d.slot_utilization)),
        ("preemptions", n(d.preemptions)),
        ("shards", shards),
        ("prefill_pool", pool(&r.prefill_pool)),
        ("decode_pool", pool(&r.decode_pool)),
        ("transfers", n(r.transfers)),
        ("transfer_time_s", f(r.transfer_time_s)),
        ("transferred_tokens", Value::UInt(r.transferred_tokens)),
        (
            "prefix",
            obj([
                ("capacity", n(p.capacity)),
                ("hits", n(p.hits)),
                ("misses", n(p.misses)),
                ("evictions", n(p.evictions)),
                ("tokens_saved", Value::UInt(p.tokens_saved)),
            ]),
        ),
    ]);
    let report = obj([
        ("counters", counters.clone()),
        ("mean_latency_s", f(fl.mean_latency_s)),
        ("p50_latency_s", f(fl.p50_latency_s)),
        ("p95_latency_s", f(fl.p95_latency_s)),
        ("p99_latency_s", f(fl.p99_latency_s)),
        ("ttft_mean_s", f(d.ttft_mean_s)),
        ("ttft_p50_s", f(d.ttft_p50_s)),
        ("ttft_p95_s", f(d.ttft_p95_s)),
        ("ttft_p99_s", f(d.ttft_p99_s)),
        ("itl_p50_s", f(d.itl_p50_s)),
        ("itl_p95_s", f(d.itl_p95_s)),
        ("itl_p99_s", f(d.itl_p99_s)),
        (
            "requests",
            digest(d.requests.iter().flat_map(|q| {
                [
                    q.shard as u64,
                    q.ttft_s.to_bits(),
                    q.completion_s.to_bits(),
                    q.tokens as u64,
                    u64::from(q.preemptions),
                    u64::from(q.re_prefills),
                ]
            })),
        ),
        (
            "batch_log",
            digest(fl.batch_log.iter().flat_map(|b| {
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
        latency_p50_s: fl.p50_latency_s,
        latency_p99_s: fl.p99_latency_s,
        throughput_seq_s: fl.throughput_seq_s,
        samples: fl.completed as u64,
    };
    let mut out = Outcome::new(requests as u64, fl.completed as u64, sim, report, counters);
    let lookups = (p.hits + p.misses) as f64;
    out.layers = vec![
        (
            "disagg.iterations",
            (r.prefill_pool.iterations + r.decode_pool.iterations) as f64,
        ),
        ("disagg.generated_tokens", d.generated_tokens as f64),
        ("disagg.transfers", r.transfers as f64),
        ("disagg.prefix_hit_ratio", ratio(p.hits as f64, lookups)),
        ("disagg.prefill_util", r.prefill_pool.utilization),
        ("disagg.decode_util", r.decode_pool.utilization),
        ("disagg.ttft_p50_s", d.ttft_p50_s),
        ("disagg.ttft_p99_s", d.ttft_p99_s),
        ("disagg.itl_p99_s", d.itl_p99_s),
        ("disagg.goodput_tok_s", d.goodput_tok_s),
        (
            "accelerator.run_batch_calls",
            r.prefill_pool.iterations as f64,
        ),
        (
            "sketch.retained_samples",
            (d.requests.len() + fl.batch_log.len()) as f64,
        ),
    ];
    out
}
