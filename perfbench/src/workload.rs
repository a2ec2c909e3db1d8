//! The interface every benchmark workload implements, and helpers for
//! assembling per-layer values.

use serde::json::Value;

use crate::outcome::Outcome;
use crate::spans::Tracer;

/// Per-layer metric values a workload reports, by name.
pub type Layers = Vec<(&'static str, f64)>;

/// One benchmark workload: a fixed-size batch job over the program's
/// public API.
pub trait Workload: Sized {
    /// What one job returns, before any checking.
    type Output;

    /// Builds designs, fleets, weights and inputs for `seed` — everything
    /// the job needs before trace generation starts. `workers` caps the
    /// threads the job may use.
    fn setup(seed: u64, workers: usize) -> Self;

    /// The fixed job size and parameters, stamped on every result.
    fn size(&self) -> Value;

    /// Runs the job once: the timed region, from trace generation to the
    /// final report. With an enabled tracer every call into the program
    /// is wrapped in a span; the calls themselves are the same.
    fn run(&self, t: &Tracer) -> Self::Output;

    /// Checks one job's output (untimed): conservation, finiteness, the
    /// canonical report and its counters, and the layer counters the
    /// program's reports carry.
    fn check(&self, output: &Self::Output) -> Outcome;

    /// Traced run only: the extra calls behind the per-layer metrics that
    /// the job itself cannot show (replays, the other report mode, the
    /// serial pool), then every per-layer value. An `Err` is a failed
    /// correctness check.
    fn probe(&self, t: &Tracer, output: &Self::Output, out: &Outcome) -> Result<Layers, String>;

    /// Workload-specific simulated figures printed beside the metrics:
    /// `(name, value, unit, samples)`.
    fn details(&self, output: &Self::Output) -> Vec<(&'static str, f64, &'static str, u64)> {
        let _ = output;
        Vec::new()
    }
}

/// Looks up a layer value recorded by the run (0 when absent).
pub fn layer(out: &Outcome, name: &str) -> f64 {
    out.layers
        .iter()
        .find(|(k, _)| *k == name)
        .map_or(0.0, |&(_, v)| v)
}

/// `num / den`, or 0 when the denominator is not positive.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
