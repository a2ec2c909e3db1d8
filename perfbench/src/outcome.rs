//! What one workload run hands back to `main`: operation counts, the
//! simulated headline figures, the canonical report that is fingerprinted,
//! and the layer counters read off the program's own reports.

use lat_exp::artifact::fingerprint;
use serde::json::Value;

/// Simulated (deterministic, hardware-unvalidated) headline figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sim {
    /// Median simulated request latency, seconds.
    pub latency_p50_s: f64,
    /// 99th-percentile simulated request latency, seconds.
    pub latency_p99_s: f64,
    /// Simulated sequences completed per simulated second.
    pub throughput_seq_s: f64,
    /// Samples behind the percentiles.
    pub samples: u64,
}

/// Result of one fixed-size workload run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted (requests, cells or sequences).
    pub attempted: u64,
    /// Operations that failed or were not conserved.
    pub failed: u64,
    /// Human-readable description of every failed check.
    pub problems: Vec<String>,
    /// Simulated headline figures.
    pub sim: Sim,
    /// Canonical report: every output the run produced, in a form whose
    /// fingerprint must repeat exactly for a given seed.
    pub report: Value,
    /// The report's mode-independent counters: these must also agree
    /// between `ReportMode::Exact` and `ReportMode::Streaming`.
    pub counters: Value,
    /// Layer counters (per-layer metric name → value) read from the run.
    pub layers: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Starts an outcome for `attempted` operations of which `completed`
    /// were conserved; the remaining fields are filled by the workload.
    pub fn new(attempted: u64, completed: u64, sim: Sim, report: Value, counters: Value) -> Self {
        let mut out = Self {
            attempted,
            failed: attempted.saturating_sub(completed),
            problems: Vec::new(),
            sim,
            report,
            counters,
            layers: Vec::new(),
        };
        if out.failed > 0 {
            out.problems
                .push(format!("{completed} of {attempted} operations conserved"));
        }
        let mut bad = Vec::new();
        non_finite(&out.report, "report", &mut bad);
        for (name, v) in [
            ("sim.latency_p50_s", sim.latency_p50_s),
            ("sim.latency_p99_s", sim.latency_p99_s),
            ("sim.throughput_seq_s", sim.throughput_seq_s),
        ] {
            if !v.is_finite() || v <= 0.0 {
                bad.push(format!("{name} = {v}"));
            }
        }
        if !bad.is_empty() {
            out.fail_all(format!(
                "non-finite or non-positive values: {}",
                bad.join(", ")
            ));
        }
        out
    }

    /// Records a failed check that invalidates the whole run.
    pub fn fail_all(&mut self, problem: String) {
        self.failed = self.attempted;
        self.problems.push(problem);
    }

    /// Fingerprint of the canonical report.
    pub fn report_fp(&self) -> String {
        fingerprint(&self.report)
    }

    /// Fingerprint of the mode-independent counters.
    pub fn counters_fp(&self) -> String {
        fingerprint(&self.counters)
    }
}

/// FNV-1a-64 over the little-endian bytes of `words` (the same function
/// as `lat_exp::artifact::fnv1a64`, fed incrementally) — folds a large
/// per-request population into one canonical report field without
/// materialising it as JSON or as one byte buffer.
pub fn digest(words: impl IntoIterator<Item = u64>) -> Value {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in words.into_iter().flat_map(u64::to_le_bytes) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    Value::Str(format!("fnv1a64:{h:016x}"))
}

/// Shorthand for a JSON float.
pub fn f(x: f64) -> Value {
    Value::Float(x)
}

/// Shorthand for a JSON count.
pub fn n(x: usize) -> Value {
    Value::UInt(x as u64)
}

/// Builds a JSON object from `(&str, Value)` pairs.
pub fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::obj(pairs.map(|(k, v)| (k.to_string(), v)))
}

/// Collects the path of every non-finite float under `v`.
fn non_finite(v: &Value, path: &str, out: &mut Vec<String>) {
    match v {
        Value::Float(x) if !x.is_finite() => out.push(format!("{path} = {x}")),
        Value::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                non_finite(item, &format!("{path}[{i}]"), out);
            }
        }
        Value::Obj(map) => {
            for (k, item) in map {
                non_finite(item, &format!("{path}.{k}"), out);
            }
        }
        _ => {}
    }
}

/// Median of `xs` (mean of the middle pair for even counts); NaN if empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        len if len % 2 == 1 => v[len / 2],
        len => 0.5 * (v[len / 2 - 1] + v[len / 2]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn digest_is_fnv1a64_of_the_bytes() {
        let words = [1u64, 0xdead_beef, u64::MAX];
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let want = format!("fnv1a64:{:016x}", lat_exp::artifact::fnv1a64(&bytes));
        assert_eq!(digest(words), Value::Str(want));
    }

    #[test]
    fn non_finite_values_fail_the_run() {
        let sim = Sim {
            latency_p50_s: 1.0,
            latency_p99_s: 2.0,
            throughput_seq_s: 3.0,
            samples: 1,
        };
        let ok = Outcome::new(4, 4, sim, obj([("x", f(1.0))]), Value::Null);
        assert_eq!(ok.failed, 0);
        let bad = Outcome::new(4, 4, sim, obj([("x", f(f64::NAN))]), Value::Null);
        assert_eq!(bad.failed, 4);
        let lost = Outcome::new(4, 3, sim, obj([("x", f(1.0))]), Value::Null);
        assert_eq!(lost.failed, 1);
    }
}
