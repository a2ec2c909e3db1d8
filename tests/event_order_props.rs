//! The engines' event queue (a cursor over the arrival-sorted trace merged
//! with a heap of run-time events) must pop exactly what one `BinaryHeap`
//! preloaded with every trace arrival pops: same events, same order, same
//! pending count. Random traces with heavy same-instant ties are driven
//! through both queues in lockstep, with retries scheduled at exactly a
//! trace arrival's time, step-end and control events at arrival instants,
//! and a tail that drains the heap after the cursor is exhausted. The fleet
//! engine's `events_processed` / `peak_heap_events` are pinned to the
//! values the preloaded heap produced.

use lat_fpga::core::pipeline::SchedulingPolicy;
use lat_fpga::hwsim::accelerator::AcceleratorDesign;
use lat_fpga::hwsim::fleet::{
    homogeneous_fleet, poisson_trace, simulate_fleet_instrumented, ArrivalKind, BatcherConfig,
    DispatchPolicy, Event, EventQueue, ReportMode, Request,
};
use lat_fpga::hwsim::spec::FpgaSpec;
use lat_fpga::model::config::ModelConfig;
use lat_fpga::model::graph::AttentionMode;
use lat_fpga::tensor::rng::SplitMix64;
use lat_fpga::workloads::datasets::DatasetSpec;
use proptest::prelude::*;
use std::collections::BinaryHeap;

/// Payloads in the shape of the engines' event kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Arrival(usize),
    StepEnd { shard: usize },
    Control,
}

impl ArrivalKind for Kind {
    fn arrival(r: usize) -> Self {
        Kind::Arrival(r)
    }

    fn arrival_index(&self) -> Option<usize> {
        match *self {
            Kind::Arrival(r) => Some(r),
            _ => None,
        }
    }
}

/// The reference: every trace arrival pushed up front as
/// `(arrival_s, 0, r)`, run-time events numbered on from `trace.len()`.
struct Preloaded {
    heap: BinaryHeap<Event<Kind>>,
    seq: u64,
}

impl Preloaded {
    fn new(trace: &[Request]) -> Self {
        let mut q = Self {
            heap: BinaryHeap::new(),
            seq: 0,
        };
        for (r, req) in trace.iter().enumerate() {
            q.push(req.arrival_s, 0, Kind::Arrival(r));
        }
        q
    }

    fn push(&mut self, time: f64, rank: u8, kind: Kind) {
        self.heap.push(Event {
            time,
            rank,
            seq: self.seq,
            kind,
        });
        self.seq += 1;
    }

    /// The same-instant grouping the engines' run loops did on the heap.
    fn pop_arrival_at(&mut self, now: f64) -> Option<usize> {
        match self.heap.peek()?.kind {
            Kind::Arrival(r) if self.heap.peek()?.time == now => {
                self.heap.pop();
                Some(r)
            }
            _ => None,
        }
    }
}

/// Everything observable about one event, with the time as bits so a
/// `-0.0`/`0.0` or NaN mix-up cannot hide.
fn key(ev: Option<Event<Kind>>) -> Option<(u64, u8, u64, Kind)> {
    ev.map(|e| (e.time.to_bits(), e.rank, e.seq, e.kind))
}

/// A sorted trace on a coarse dyadic grid: about half the gaps are zero,
/// so same-instant bursts are common, and every time is exact in `f64`.
fn tied_trace(rng: &mut SplitMix64, n: usize) -> Vec<Request> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            if rng.next_below(2) == 0 {
                t += (1 + rng.next_below(4)) as f64 * 0.25;
            }
            Request {
                arrival_s: t,
                len: 1 + rng.next_below(128),
            }
        })
        .collect()
}

/// A run-time event to schedule at `now`: a retry (rank 0), a step end
/// (rank 1) or a control callback (rank 2/3), at `now` itself, at exactly
/// some trace arrival's time, or on the grid after `now`.
fn runtime_event(rng: &mut SplitMix64, trace: &[Request], now: f64) -> (f64, u8, Kind) {
    let time = match rng.next_below(3) {
        0 => now,
        1 if !trace.is_empty() => {
            let at = trace[rng.next_below(trace.len())].arrival_s;
            at.max(now)
        }
        _ => now + rng.next_below(8) as f64 * 0.25,
    };
    let n = trace.len().max(1);
    match rng.next_below(4) {
        0 => (time, 0, Kind::Arrival(rng.next_below(n))),
        1 => (
            time,
            1,
            Kind::StepEnd {
                shard: rng.next_below(4),
            },
        ),
        r => (time, r as u8, Kind::Control),
    }
}

/// Drives both queues through one random run and checks every pop, peek,
/// pending count and same-instant grouping agree.
fn check_lockstep(seed: u64, n: usize, budget: usize) -> Result<(), TestCaseError> {
    let mut rng = SplitMix64::new(seed);
    let trace = tied_trace(&mut rng, n);
    let mut merged: EventQueue<'_, Request, Kind> = EventQueue::new(&trace);
    let mut reference = Preloaded::new(&trace);
    let mut pushes = 0;
    loop {
        prop_assert_eq!(merged.len(), reference.heap.len());
        prop_assert_eq!(merged.is_empty(), reference.heap.is_empty());
        prop_assert_eq!(key(merged.peek()), key(reference.heap.peek().copied()));
        let popped = merged.pop();
        prop_assert_eq!(key(popped), key(reference.heap.pop()));
        let Some(ev) = popped else { break };
        if ev.kind.arrival_index().is_some() && rng.next_below(2) == 0 {
            // Admit the rest of the burst the way the engines do.
            loop {
                let r = merged.pop_arrival_at(ev.time);
                prop_assert_eq!(r, reference.pop_arrival_at(ev.time));
                if r.is_none() {
                    break;
                }
            }
        }
        // Stop scheduling after the budget so the run drains: the tail
        // pops the heap alone once the cursor is exhausted.
        for _ in 0..rng.next_below(3) {
            if pushes >= budget {
                break;
            }
            let (time, rank, kind) = runtime_event(&mut rng, &trace, ev.time);
            match kind {
                Kind::Arrival(r) => merged.push_arrival(r, time),
                _ => merged.push(time, rank, kind),
            }
            reference.push(time, rank, kind);
            pushes += 1;
        }
    }
    prop_assert_eq!(merged.pop_arrival_at(0.0), None);
    prop_assert!(merged.pop().is_none() && merged.is_empty());
    Ok(())
}

#[test]
fn empty_trace_pops_only_runtime_events() {
    let mut merged: EventQueue<'_, Request, Kind> = EventQueue::new(&[]);
    assert!(merged.is_empty() && merged.pop().is_none());
    merged.push(1.0, 3, Kind::Control);
    merged.push_arrival(0, 1.0);
    merged.push(0.5, 1, Kind::StepEnd { shard: 0 });
    assert_eq!(merged.len(), 3);
    let order: Vec<_> = std::iter::from_fn(|| merged.pop().map(|e| (e.seq, e.kind))).collect();
    assert_eq!(
        order,
        [
            (2, Kind::StepEnd { shard: 0 }),
            (1, Kind::Arrival(0)),
            (0, Kind::Control)
        ]
    );
}

#[test]
fn retry_at_a_trace_instant_pops_after_the_trace_burst() {
    // Trace arrivals 1..=3 at t = 1.0; a retry of request 0 scheduled for
    // t = 1.0 carries a run-time seq (numbered from the trace length) and
    // so pops after the whole trace burst, ahead of a same-instant step
    // end (rank 1).
    let trace = [0.0, 1.0, 1.0, 1.0].map(|arrival_s| Request { arrival_s, len: 8 });
    let mut merged: EventQueue<'_, Request, Kind> = EventQueue::new(&trace);
    assert_eq!(merged.pop().map(|e| e.kind), Some(Kind::Arrival(0)));
    merged.push(1.0, 1, Kind::StepEnd { shard: 0 });
    merged.push_arrival(0, 1.0);
    assert_eq!(merged.len(), 5);
    assert_eq!(merged.pop().map(|e| e.kind), Some(Kind::Arrival(1)));
    assert_eq!(merged.pop_arrival_at(1.0), Some(2));
    assert_eq!(merged.pop_arrival_at(1.0), Some(3));
    assert_eq!(merged.pop_arrival_at(1.0), Some(0));
    assert_eq!(merged.pop_arrival_at(1.0), None);
    assert_eq!(
        merged.pop().map(|e| (e.rank, e.kind)),
        Some((1, Kind::StepEnd { shard: 0 }))
    );
    assert!(merged.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random tied traces and random run-time schedules pop identically.
    #[test]
    fn merged_queue_pops_like_the_preloaded_heap(
        seed in any::<u64>(),
        n in 0usize..96,
        budget in 0usize..256,
    ) {
        check_lockstep(seed, n, budget)?;
    }
}

fn tiny(s_avg: usize) -> AcceleratorDesign {
    AcceleratorDesign::new(
        &ModelConfig::tiny(),
        AttentionMode::paper_sparse(),
        FpgaSpec::alveo_u280(),
        s_avg,
    )
}

/// Runs one fleet case in both report modes and checks its
/// `(events_processed, peak_heap_events)` against `pinned`.
fn check_fleet_counters(
    name: &str,
    shards: &[AcceleratorDesign],
    trace: &[Request],
    dispatch: DispatchPolicy,
    cfg: &BatcherConfig,
    pinned: (u64, usize),
) {
    for mode in [ReportMode::Exact, ReportMode::Streaming] {
        let (_, stats) = simulate_fleet_instrumented(
            shards,
            trace,
            SchedulingPolicy::LengthAware,
            dispatch,
            cfg,
            mode,
        );
        let got = (stats.events_processed, stats.peak_heap_events);
        assert_eq!(got, pinned, "{name} {mode:?}");
        // Every arrival is pending before the first pop.
        assert!(stats.peak_heap_events >= trace.len(), "{name} {mode:?}");
    }
}

/// `(events_processed, peak_heap_events)` of four fixed fleet runs,
/// recorded from the engine that preloaded every arrival into its heap.
#[test]
fn fleet_counters_match_the_preloaded_heap() {
    let rte = poisson_trace(&DatasetSpec::rte(), 2000.0, 3000, 7);
    // The same arrivals on a 1 ms grid: thousands of same-instant ties.
    let tied: Vec<Request> = rte
        .iter()
        .map(|r| Request {
            arrival_s: (r.arrival_s * 1000.0).floor() / 1000.0,
            len: r.len,
        })
        .collect();
    let burst = vec![
        Request {
            arrival_s: 0.5,
            len: 64,
        };
        200
    ];
    let small = |max_batch, batch_window_s| BatcherConfig {
        max_batch,
        batch_window_s,
    };
    let uniform = homogeneous_fleet(&tiny(64), 3);
    let mixed = [tiny(32), tiny(64), tiny(128)];
    let jsq = DispatchPolicy::JoinShortestQueue;
    let default = BatcherConfig::default();
    check_fleet_counters("poisson/jsq", &uniform, &rte, jsq, &default, (3382, 3000));
    check_fleet_counters(
        "poisson/round-robin/zero-window",
        &uniform,
        &rte,
        DispatchPolicy::RoundRobin,
        &small(4, 0.0),
        (6000, 3000),
    );
    check_fleet_counters(
        "tied/length-binned",
        &mixed,
        &tied,
        DispatchPolicy::LengthBinned,
        &small(8, 0.002),
        (5222, 3000),
    );
    check_fleet_counters(
        "burst/jsq",
        &uniform[..2],
        &burst,
        jsq,
        &default,
        (216, 200),
    );
}
