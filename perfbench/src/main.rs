//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet_stream_1m|disagg_chat|sweep_grid|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. One invocation checks the committed
//! golden pack, builds the workload's set-up several times, then runs the
//! fixed-size job repeatedly for `--seconds` (default: the declared
//! `run_seconds`) with tracing off and reports medians of the end-to-end
//! metrics. With `--trace 1` it then runs the
//! job once more with every call into the program wrapped in a span, makes
//! the extra per-layer probes, writes the spans as Chrome trace-event JSON
//! and reports the per-layer metrics instead. The metric names and units
//! are the ones `BENCHMARK.json` declares; the last line of standard
//! output is the result object.

mod disagg_chat;
mod encoder_sparse;
mod fleet_stream;
mod golden;
mod outcome;
mod spans;
mod sweep_grid;
mod workload;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use lat_bench::scenarios::HARNESS_SEED;
use lat_core::pool::Scheduler;
use serde::json::{self, Value};

use outcome::{median, obj, Outcome};
use spans::{Stopwatch, Tracer};
use workload::Workload;

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["fleet_stream_1m", "disagg_chat", "sweep_grid"];

/// End-to-end metrics `(name, unit)`, reported with tracing off.
const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("completed_frac", "ratio"),
    ("sim_latency_p50_s", "s"),
    ("sim_latency_p99_s", "s"),
    ("sim_throughput_seq_s", "1/s"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run. A layer
/// the workload does not exercise reports 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("workloads.trace_gen_s", "s"),
    ("workloads.samples", "count"),
    ("workloads.ns_per_sample", "ns"),
    ("accelerator.run_batch_calls", "count"),
    ("accelerator.run_batch_us", "us"),
    ("accelerator.pricing_share", "ratio"),
    ("fleet.sim_s", "s"),
    ("fleet.events", "count"),
    ("fleet.events_per_s", "1/s"),
    ("fleet.peak_heap_events", "count"),
    ("fleet.batches", "count"),
    ("fleet.tracked_bytes", "bytes"),
    ("disagg.sim_s", "s"),
    ("disagg.iterations", "count"),
    ("disagg.iterations_per_s", "1/s"),
    ("disagg.generated_tokens", "count"),
    ("disagg.transfers", "count"),
    ("disagg.prefix_hit_ratio", "ratio"),
    ("disagg.prefill_util", "ratio"),
    ("disagg.decode_util", "ratio"),
    ("disagg.ttft_p50_s", "s"),
    ("disagg.ttft_p99_s", "s"),
    ("disagg.itl_p99_s", "s"),
    ("disagg.goodput_tok_s", "tok/s"),
    ("sketch.exact_s", "s"),
    ("sketch.streaming_s", "s"),
    ("sketch.retained_samples", "count"),
    ("pool.cells", "count"),
    ("pool.workers", "count"),
    ("pool.wall_s", "s"),
    ("pool.serial_s", "s"),
    ("pool.efficiency", "ratio"),
    ("exp.seal_s", "s"),
    ("exp.golden_check_s", "s"),
    ("encoder.forward_s", "s"),
    ("encoder.tokens_per_s", "1/s"),
    ("encoder.dense_ref_s", "s"),
    ("encoder.fidelity_cos", "ratio"),
    ("attention.calls", "count"),
    ("attention.sparse_s", "s"),
    ("attention.preselect_s", "s"),
    ("attention.share", "ratio"),
    ("trace.overhead_s", "s"),
];

/// Seconds of set-ups timed before the first job, and after each job.
const SETUP_FIRST_S: f64 = 0.01;
const SETUP_AFTER_JOB_S: f64 = 0.01;
/// Set-ups timed together as one `setup_s` sample. A single set-up lasts
/// microseconds, too short to time steadily on its own.
const SETUP_BATCH: usize = 64;
/// Untraced jobs run at least this often, however long `--seconds` is.
const MIN_REPS: usize = 3;
/// Threads any workload may use.
const MAX_WORKERS: usize = 2;
/// The build profile, stamped on every result.
const BUILD_PROFILE: &str = if cfg!(debug_assertions) {
    "debug"
} else {
    "release"
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Parses the command line; `--seconds` defaults to `run_seconds`.
fn parse_args(run_seconds: f64) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: HARNESS_SEED,
        seconds: run_seconds,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = parse_seed(&value()?)?,
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--seconds {v:?} is not a non-negative number"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?} is not 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all (got {:?})",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("--seed {s:?} is not a u64"))
}

/// Checks that `BENCHMARK.json` declares exactly the workloads and
/// metrics this program reports, with the same units, and returns its
/// `run_seconds`.
fn check_declaration(path: &Path) -> Result<f64, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
    let field = |v: &Value, k: &str| match v {
        Value::Obj(m) => m.get(k).cloned().unwrap_or(Value::Null),
        _ => Value::Null,
    };
    let names = |key: &str, with_unit: bool| -> Vec<(String, String)> {
        match field(&doc, key) {
            Value::Arr(items) => items
                .iter()
                .map(|m| {
                    let s = |k| match field(m, k) {
                        Value::Str(s) => s,
                        _ => String::new(),
                    };
                    (s("name"), if with_unit { s("unit") } else { String::new() })
                })
                .collect(),
            _ => Vec::new(),
        }
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    let no_unit = |list: &[&str]| -> Vec<(String, String)> {
        list.iter()
            .map(|n| (n.to_string(), String::new()))
            .collect()
    };
    for (key, declared, reported) in [
        ("workloads", names("workloads", false), no_unit(&WORKLOADS)),
        ("end_to_end", names("end_to_end", true), own(&END_TO_END)),
        ("per_layer", names("per_layer", true), own(&PER_LAYER)),
    ] {
        if declared != reported {
            return Err(format!(
                "{}: `{key}` declares {declared:?} but the benchmark reports {reported:?}",
                path.display()
            ));
        }
    }
    match field(&doc, "run_seconds") {
        Value::UInt(s) => Ok(s as f64),
        Value::Int(s) if s >= 0 => Ok(s as f64),
        v => Err(format!(
            "{}: `run_seconds` is {v:?}, not a whole number",
            path.display()
        )),
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = check_declaration(Path::new("BENCHMARK.json")).and_then(parse_args);
    let args = match args {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "all" => run_all(),
        "fleet_stream_1m" => bench::<fleet_stream::FleetStream>(&args),
        "disagg_chat" => bench::<disagg_chat::DisaggChat>(&args),
        "sweep_grid" => bench::<sweep_grid::SweepGrid>(&args),
        _ => unreachable!("parse_args accepts only known workloads"),
    }
}

/// Runs every workload in a process of its own, one after another, with
/// the same arguments.
fn run_all() -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: locating own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let passed: Vec<String> = std::env::args().skip(1).collect();
    let mut ok = true;
    for name in WORKLOADS {
        let mut child_args = passed.clone();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("`all` came from a --workload flag");
        child_args[at + 1] = name.to_string();
        let status = std::process::Command::new(&exe).args(&child_args).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: {name} exited with {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: starting {name}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Operations attempted and failed, with a description of every failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Failed operations once every problem is known. A problem no
    /// operation was charged with (the golden pack, a metric) fails them
    /// all.
    fn settled_failed(&self) -> u64 {
        if !self.problems.is_empty() && self.failed == 0 {
            self.attempted
        } else {
            self.failed.min(self.attempted)
        }
    }

    /// 1 − failed ÷ attempted, from [`Tally::settled_failed`].
    fn completed_frac(&self) -> f64 {
        1.0 - self.settled_failed() as f64 / self.attempted.max(1) as f64
    }

    fn add(&mut self, out: &Outcome) {
        self.attempted += out.attempted;
        self.failed += out.failed;
        self.problems.extend(out.problems.iter().cloned());
    }

    /// A check that fails all of `out`'s operations.
    fn fail(&mut self, out: &Outcome, problem: String) {
        self.failed += out.attempted;
        self.problems.push(problem);
    }
}

/// What the untraced jobs measured.
struct Untraced {
    walls: Vec<f64>,
    setups: Vec<f64>,
    peak_rss_mb: f64,
    first: Outcome,
    details: Vec<(&'static str, f64, &'static str, u64)>,
}

/// Set-up and the untraced jobs. Set-ups are timed SETUP_BATCH at a
/// time, for SETUP_FIRST_S up front and SETUP_AFTER_JOB_S after every job,
/// so their median covers the same host conditions as the jobs. Jobs run
/// for `seconds` (at least MIN_REPS of them), and every job must
/// fingerprint the same.
fn untraced<W: Workload>(w: &W, args: &Args, workers: usize, tally: &mut Tally) -> Untraced {
    let time_setups = |setups: &mut Vec<f64>, for_s: f64| {
        let clock = Stopwatch::start();
        while setups.is_empty() || clock.elapsed_s() < for_s {
            let batch = Stopwatch::start();
            for _ in 0..SETUP_BATCH {
                std::hint::black_box(W::setup(args.seed, workers));
            }
            setups.push(batch.elapsed_s() / SETUP_BATCH as f64);
        }
    };
    let mut setups = Vec::new();
    time_setups(&mut setups, SETUP_FIRST_S);

    let off = Tracer::off();
    let mut walls = Vec::new();
    let mut first: Option<(Outcome, _)> = None;
    let clock = Stopwatch::start();
    // A job starts only if a typical job still ends inside `--seconds`.
    while walls.len() < MIN_REPS || clock.elapsed_s() + median(&walls) <= args.seconds {
        let rep = Stopwatch::start();
        let output = w.run(&off);
        walls.push(rep.elapsed_s());
        let out = w.check(&output);
        tally.add(&out);
        match &first {
            Some((f, _)) if out.report_fp() != f.report_fp() => tally.fail(
                &out,
                format!(
                    "job {} report {} differs from job 1 report {}",
                    walls.len(),
                    out.report_fp(),
                    f.report_fp()
                ),
            ),
            Some(_) => {}
            None => first = Some((out, w.details(&output))),
        }
        time_setups(&mut setups, SETUP_AFTER_JOB_S);
    }
    let peak_rss_mb = peak_rss_mb();
    let (first, details) = first.expect("at least one job ran");
    Untraced {
        walls,
        setups,
        peak_rss_mb,
        first,
        details,
    }
}

/// The traced job, its probes, and the Chrome trace file. Returns the
/// per-layer values.
fn traced<W: Workload>(
    w: &W,
    args: &Args,
    untraced: &Untraced,
    context: Value,
    tally: &mut Tally,
) -> BTreeMap<&'static str, f64> {
    let t = Tracer::on();
    t.set_run(1);
    let rep = Stopwatch::start();
    let output = t.span("bench.run", || w.run(&t));
    let traced_wall_s = rep.elapsed_s();
    let out = w.check(&output);
    tally.add(&out);
    if out.report_fp() != untraced.first.report_fp() {
        let problem = format!(
            "traced report {} differs from untraced report {}",
            out.report_fp(),
            untraced.first.report_fp()
        );
        tally.fail(&out, problem);
    }
    t.set_run(2);
    let mut values = BTreeMap::new();
    match t.span("bench.probe", || w.probe(&t, &output, &out)) {
        Ok(layers) => values.extend(layers),
        Err(e) => tally.fail(&out, e),
    }
    values.insert("trace.overhead_s", traced_wall_s - median(&untraced.walls));

    let dir = Path::new("perfbench/traces");
    let path = dir.join(format!("{}-{:#x}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, t.chrome_trace(context).to_canonical_string()));
    match written {
        Ok(()) => println!("trace: {}", path.display()),
        Err(e) => tally
            .problems
            .push(format!("writing {}: {e}", path.display())),
    }
    values
}

fn bench<W: Workload>(args: &Args) -> ExitCode {
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = host_parallelism.min(MAX_WORKERS);
    let mut tally = Tally::default();

    // Serial, so the check leaves no per-thread allocator arenas behind to
    // make `peak_rss_mb` vary between runs.
    let clock = Stopwatch::start();
    if let Err(e) = golden::check(Path::new(golden::GOLDEN_DIR), &Scheduler::serial()) {
        tally.problems.push(format!("golden pack: {e}"));
    }
    let golden_check_s = clock.elapsed_s();

    let w = W::setup(args.seed, workers);
    let run = untraced(&w, args, workers, &mut tally);
    let context = obj([
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::Str(format!("{:#x}", args.seed))),
        ("size", w.size()),
        ("host_parallelism", Value::UInt(host_parallelism as u64)),
        ("workers", Value::UInt(workers as u64)),
        ("profile", Value::Str(BUILD_PROFILE.into())),
        ("seconds", Value::Float(args.seconds)),
        ("jobs", Value::UInt(run.walls.len() as u64)),
        ("trace", Value::Bool(args.trace)),
    ]);
    let mut layers = BTreeMap::new();
    if args.trace {
        layers = traced(&w, args, &run, context.clone(), &mut tally);
        layers.insert("exp.golden_check_s", golden_check_s);
    }

    println!("context: {}", context.to_canonical_string());
    let out = &run.first;
    println!(
        "fingerprint: report {} counters {}",
        out.report_fp(),
        out.counters_fp()
    );
    let e2e = |tally: &Tally| {
        [
            median(&run.walls),
            median(&run.setups),
            run.peak_rss_mb,
            tally.completed_frac(),
            out.sim.latency_p50_s,
            out.sim.latency_p99_s,
            out.sim.throughput_seq_s,
        ]
    };
    let per_layer: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, layers.remove(name).unwrap_or(0.0)))
        .collect();
    assert!(
        layers.is_empty(),
        "per-layer values missing from PER_LAYER: {layers:?}"
    );
    let traced_layers = if args.trace { &per_layer[..] } else { &[] };
    let non_finite: Vec<String> = END_TO_END
        .iter()
        .zip(e2e(&tally))
        .map(|(&(name, _), v)| (name, v))
        .chain(traced_layers.iter().map(|&(name, _, v)| (name, v)))
        .filter(|(_, v)| !v.is_finite())
        .map(|(name, v)| format!("metric {name} is {v}"))
        .collect();
    tally.problems.extend(non_finite);
    // Every problem is known now, so `completed_frac` and `failed` agree.
    let e2e = e2e(&tally);
    let failed = tally.settled_failed();

    for ((name, unit), value) in END_TO_END.iter().zip(e2e) {
        let note = match *name {
            "wall_s" => format!(" (median of {} jobs: {:?})", run.walls.len(), run.walls),
            "setup_s" => format!(
                " (median of {} samples of {SETUP_BATCH} set-ups)",
                run.setups.len()
            ),
            "sim_latency_p50_s" | "sim_latency_p99_s" => format!(" (n={})", out.sim.samples),
            _ => String::new(),
        };
        println!("{name} = {value} {unit}{note}");
    }
    for (name, value, unit, samples) in &run.details {
        println!("{name} = {value} {unit} (n={samples})");
    }
    let values: Vec<(&str, &str, f64)> = if args.trace {
        for &(name, unit, value) in &per_layer {
            println!("{name} = {value} {unit}");
        }
        per_layer
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(name, unit), value)| (name, unit, value))
            .collect()
    };
    let problems = tally.problems;
    for p in &problems {
        eprintln!("perfbench: FAILED: {p}");
    }
    let metrics = values
        .iter()
        .map(|&(name, unit, value)| {
            let m = obj([
                ("value", Value::Float(value)),
                ("unit", Value::Str(unit.into())),
            ]);
            (name.to_string(), m)
        })
        .collect();
    let result = obj([
        ("correct", Value::Bool(problems.is_empty())),
        ("attempted", Value::UInt(tally.attempted)),
        ("failed", Value::UInt(failed)),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{}", result.to_canonical_string());
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_problem_no_job_was_charged_with_fails_every_operation() {
        let mut tally = Tally {
            attempted: 10,
            ..Tally::default()
        };
        assert_eq!(tally.settled_failed(), 0);
        assert_eq!(tally.completed_frac(), 1.0);
        tally.problems.push("golden pack: differs".into());
        assert_eq!(tally.settled_failed(), 10);
        assert_eq!(tally.completed_frac(), 0.0);
    }

    #[test]
    fn job_failures_are_counted_as_charged() {
        let tally = Tally {
            attempted: 10,
            failed: 4,
            problems: vec!["job 2 report differs".into()],
        };
        assert_eq!(tally.settled_failed(), 4);
        assert!((tally.completed_frac() - 0.6).abs() < 1e-12);
    }
}
