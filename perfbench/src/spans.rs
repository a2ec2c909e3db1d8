//! In-memory span recorder for the traced run.
//!
//! A span is a named wall-clock interval with the span that was open when
//! it began (its parent) and the workload run it belongs to. Spans are
//! kept in memory and written out once, as Chrome trace-event JSON, when
//! the run ends. A disabled tracer records nothing and reads no clock, so
//! the untraced timing runs execute exactly the calls the program makes.

use std::cell::{Cell, RefCell};
// audit:allow(d2) -- the benchmark measures host wall time; no simulated value reads it
use std::time::Instant;

use serde::json::Value;

/// Monotonic host clock. The only wall-clock reads of the benchmark go
/// through here.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant); // audit:allow(d2) -- host timing is this type's purpose

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Self(Instant::now()) // audit:allow(d2) -- host timing is this type's purpose
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn elapsed_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// One recorded interval.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
    run: u32,
}

/// Span recorder; single-threaded (every span is opened on the thread
/// that drives the workload).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Stopwatch,
    run: Cell<u32>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Stopwatch::start(),
            run: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Tags every later span with workload run `id`.
    pub fn set_run(&self, id: u32) {
        self.run.set(id);
    }

    /// Runs `f` inside a span called `name` (a plain call when disabled).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start_s: self.origin.elapsed_s(),
                end_s: f64::NAN,
                parent,
                run: self.run.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_s = self.origin.elapsed_s();
        out
    }

    /// Summed duration of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_s - s.start_s)
            .sum()
    }

    /// Summed self time of every span called `name`: its duration minus
    /// the time its direct children cover (children run sequentially on
    /// the same thread, so they never overlap).
    pub fn self_s(&self, name: &str) -> f64 {
        let spans = self.spans.borrow();
        let child_time = |i: usize| -> f64 {
            spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| c.end_s - c.start_s)
                .sum()
        };
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.end_s - s.start_s) - child_time(i))
            .sum()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .count() as u64
    }

    /// The spans as a Chrome trace-event document (opens in Perfetto):
    /// one complete (`"ph": "X"`) event per span, microsecond timestamps,
    /// parent index and run id in `args`, plus `context` as metadata.
    pub fn chrome_trace(&self, context: Value) -> Value {
        let events = self
            .spans
            .borrow()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or(Value::Null, |p| Value::UInt(p as u64));
                Value::obj([
                    ("name".into(), Value::Str(s.name.into())),
                    ("cat".into(), Value::Str(layer_of(s.name).into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("ts".into(), Value::Float(s.start_s * 1e6)),
                    ("dur".into(), Value::Float((s.end_s - s.start_s) * 1e6)),
                    ("pid".into(), Value::UInt(1)),
                    ("tid".into(), Value::UInt(1)),
                    (
                        "args".into(),
                        Value::obj([
                            ("span".into(), Value::UInt(i as u64)),
                            ("parent".into(), parent),
                            ("run".into(), Value::UInt(u64::from(s.run))),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::obj([
            ("traceEvents".into(), Value::Arr(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
            ("otherData".into(), context),
        ])
    }
}

/// The layer a span belongs to: its name up to the first `.`.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let t = Tracer::on();
        t.span("outer", || {
            t.span("inner", || std::hint::black_box((0..10_000).sum::<u64>()));
            t.span("inner", || std::hint::black_box((0..10_000).sum::<u64>()));
        });
        let outer = t.total_s("outer");
        let inner = t.total_s("inner");
        assert!(inner <= outer);
        assert!((t.self_s("outer") - (outer - inner)).abs() < 1e-12);
        assert_eq!(t.count("inner"), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("x", || 7), 7);
        assert_eq!(t.count("x"), 0);
    }
}
