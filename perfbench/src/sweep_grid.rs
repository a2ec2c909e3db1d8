//! `sweep_grid`: a 27-cell `SweepPlan` — 3 dispatch policies ×
//! {length-aware, pad-to-max, micro-batch of 4} × {150, 600, 2400} seq/s
//! on 3 tiny shards, exact reports — run through
//! `lat_exp::runner::run_plan` on a pool of at most two workers. The seed
//! reaches the plan through `HARNESS_SEED`, set for this process only.
//! Its traced run also makes the functional-kernel probe
//! ([`crate::encoder_sparse::probe`]).

use lat_core::pipeline::SchedulingPolicy;
use lat_core::pool::Scheduler;
use lat_core::sketch::ReportMode;
use lat_exp::artifact::{seal, verify_seal};
use lat_exp::plan::SweepPlan;
use lat_exp::runner::run_plan;
use lat_hwsim::accelerator::AcceleratorDesign;
use lat_hwsim::fleet::{poisson_trace, DispatchPolicy, Request};
use lat_hwsim::spec::FpgaSpec;
use lat_model::config::ModelConfig;
use lat_model::graph::AttentionMode;
use lat_workloads::datasets::DatasetSpec;
use serde::json::Value;

use crate::outcome::{f, median, n, obj, Outcome, Sim};
use crate::spans::{Stopwatch, Tracer};
use crate::workload::{layer, ratio, Layers, Workload};

const CELL_REQUESTS: usize = 40_000;
const SHARDS: usize = 3;
const RATES_SEQ_S: [f64; 3] = [150.0, 600.0, 2400.0];
/// Batches per cell priced again, outside the engine.
const REPLAY_BATCHES: usize = 200;

pub struct SweepGrid {
    seed: u64,
    plan: SweepPlan,
    pool: Scheduler,
    /// The design `run_plan` builds for its fleet, for the pricing replay.
    design: AcceleratorDesign,
    dataset: DatasetSpec,
}

impl Workload for SweepGrid {
    type Output = Value;

    fn setup(seed: u64, workers: usize) -> Self {
        std::env::set_var("HARNESS_SEED", format!("{seed:#x}"));
        Self {
            seed,
            plan: SweepPlan {
                name: "perfbench_sweep_grid",
                description: "dispatch × scheduling × rate grid on a healthy 3-shard fleet",
                requests: CELL_REQUESTS,
                shards: SHARDS,
                dispatch: DispatchPolicy::ALL.to_vec(),
                scheduling: vec![
                    SchedulingPolicy::LengthAware,
                    SchedulingPolicy::PadToMax,
                    SchedulingPolicy::MicroBatch { size: 4 },
                ],
                rates_seq_s: RATES_SEQ_S.to_vec(),
                mode: ReportMode::Exact,
            },
            pool: Scheduler::new(workers),
            design: AcceleratorDesign::new(
                &ModelConfig::tiny(),
                AttentionMode::paper_sparse(),
                FpgaSpec::alveo_u280(),
                64,
            ),
            dataset: DatasetSpec::rte(),
        }
    }

    fn size(&self) -> Value {
        obj([
            ("cells", n(self.plan.cells().len())),
            ("requests_per_cell", n(CELL_REQUESTS)),
            ("shards", n(SHARDS)),
            ("rates_seq_s", Value::Arr(RATES_SEQ_S.map(f).to_vec())),
            ("workers", n(self.pool.parallelism())),
            ("mode", Value::Str("exact".into())),
        ])
    }

    fn run(&self, t: &Tracer) -> Value {
        t.span("pool.run_plan", || run_plan(&self.plan, &self.pool))
    }

    fn check(&self, doc: &Value) -> Outcome {
        let cells = array(doc, "cells");
        let col = |k: &str| -> Vec<f64> { cells.iter().map(|c| num(c, k)).collect() };
        let completed = col("completed");
        let conserved = completed
            .iter()
            .filter(|&&c| c == CELL_REQUESTS as f64)
            .count();
        let counters = Value::Arr(
            cells
                .iter()
                .map(|c| {
                    let keep = [
                        "cell",
                        "completed",
                        "batches",
                        "makespan_s",
                        "throughput_seq_s",
                        "mean_batch_size",
                        "events_processed",
                    ];
                    Value::obj(keep.map(|k| (k.to_string(), get(c, k).clone())))
                })
                .collect(),
        );
        let sim = Sim {
            latency_p50_s: median(&col("p50_latency_s")),
            latency_p99_s: median(&col("p99_latency_s")),
            throughput_seq_s: median(&col("throughput_seq_s")),
            samples: completed.iter().sum::<f64>() as u64,
        };
        let planned = self.plan.cells().len();
        let mut out = Outcome::new(planned as u64, conserved as u64, sim, doc.clone(), counters);
        if let Err(e) = verify_seal(doc) {
            out.fail_all(format!("artifact seal: {e}"));
        }
        if cells.len() != planned {
            out.fail_all(format!(
                "{} cells in the artifact, {planned} planned",
                cells.len()
            ));
        }
        let sum = |k: &str| col(k).iter().sum::<f64>();
        out.layers = vec![
            ("pool.cells", cells.len() as f64),
            ("pool.workers", self.pool.parallelism() as f64),
            ("fleet.events", sum("events_processed")),
            ("fleet.batches", sum("batches")),
            ("accelerator.run_batch_calls", sum("batches")),
            ("sketch.retained_samples", sum("retained_latency_samples")),
        ];
        out
    }

    fn probe(&self, t: &Tracer, doc: &Value, out: &Outcome) -> Result<Layers, String> {
        let serial = t.span("pool.serial", || run_plan(&self.plan, &Scheduler::serial()));
        if serial != *doc {
            return Err("the serial pool produced a different artifact".into());
        }
        let Value::Obj(mut body) = doc.clone() else {
            return Err("artifact is not an object".into());
        };
        body.remove("fingerprint");
        let body = Value::Obj(body);
        if t.span("exp.seal", || seal(body)) != *doc {
            return Err("re-sealing the artifact changed it".into());
        }

        // Trace generation happens inside the pool's cells; replay each
        // cell's trace on this thread to time it.
        let cells = self.plan.cells();
        // `poisson_trace` draws one length per request.
        let mut draws = 0;
        let mut traces: Vec<(f64, Vec<Request>)> = Vec::new();
        for cell in &cells {
            let trace = t.span("workloads.poisson_trace", || {
                poisson_trace(&self.dataset, cell.rate_seq_s, CELL_REQUESTS, self.seed)
            });
            draws += trace.len();
            if !traces.iter().any(|(r, _)| *r == cell.rate_seq_s) {
                traces.push((cell.rate_seq_s, trace));
            }
        }

        // Price batches of each cell's mean shape under its scheduling
        // policy; weight each cell's cost per call by its batch count.
        let rows = array(doc, "cells");
        let mut pricing_s = 0.0;
        t.span("accelerator.run_batch_replay", || {
            for (cell, row) in cells.iter().zip(rows) {
                let trace = traces
                    .iter()
                    .find(|(r, _)| *r == cell.rate_seq_s)
                    .map(|(_, tr)| tr)
                    .expect("every rate's trace was generated above");
                let batch = (num(row, "mean_batch_size").round() as usize).max(1);
                let clock = Stopwatch::start();
                let priced = trace
                    .chunks_exact(batch)
                    .take(REPLAY_BATCHES)
                    .map(|chunk| {
                        let lengths: Vec<usize> = chunk.iter().map(|r| r.len).collect();
                        std::hint::black_box(self.design.run_batch(&lengths, cell.scheduling));
                    })
                    .count();
                pricing_s += num(row, "batches") * ratio(clock.elapsed_s(), priced as f64);
            }
        });

        let mut layers = out.layers.clone();
        layers.extend(crate::encoder_sparse::probe(self.seed, t)?);

        let calls = layer(out, "accelerator.run_batch_calls");
        let trace_gen_s = t.total_s("workloads.poisson_trace");
        let wall_s = t.self_s("pool.run_plan");
        let serial_s = t.total_s("pool.serial");
        let workers = self.pool.parallelism() as f64;
        layers.extend([
            ("workloads.trace_gen_s", trace_gen_s),
            ("workloads.samples", draws as f64),
            (
                "workloads.ns_per_sample",
                1e9 * ratio(trace_gen_s, draws as f64),
            ),
            ("accelerator.run_batch_us", 1e6 * ratio(pricing_s, calls)),
            ("accelerator.pricing_share", ratio(pricing_s, serial_s)),
            ("pool.wall_s", wall_s),
            ("pool.serial_s", serial_s),
            ("pool.efficiency", ratio(serial_s, workers * wall_s)),
            ("exp.seal_s", t.total_s("exp.seal")),
        ]);
        Ok(layers)
    }
}

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Obj(map) => map.get(key).unwrap_or(&Value::Null),
        _ => &Value::Null,
    }
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match get(v, key) {
        Value::Arr(items) => items,
        _ => &[],
    }
}

/// A numeric field as `f64` (NaN when absent or not a number, which the
/// outcome's finiteness check then reports).
fn num(v: &Value, key: &str) -> f64 {
    match get(v, key) {
        Value::Float(x) => *x,
        Value::UInt(x) => *x as f64,
        Value::Int(x) => *x as f64,
        _ => f64::NAN,
    }
}
