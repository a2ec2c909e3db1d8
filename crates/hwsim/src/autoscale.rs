//! Runtime autoscaling over the fleet engine: shard join/retire driven by
//! pluggable policies under nonstationary load.
//!
//! The encoder fleet ([`crate::fleet`]) and decode engine
//! ([`crate::decode`]) simulate a *fixed* shard count, which wastes
//! shard-seconds in the trough of a diurnal load curve and blows latency
//! SLOs at its peak. This module drives the same event-driven core
//! (`FleetCore`) with a controller that changes fleet
//! membership at runtime:
//!
//! - [`ScalePolicy::Pinned`] — never scales; with `min == max` shards this
//!   reproduces [`simulate_fleet`](crate::fleet::simulate_fleet) **bit-for-bit** (it is literally the
//!   same code path), which `tests/autoscale_props.rs` pins.
//! - [`ScalePolicy::Reactive`] — queue-depth threshold with hysteresis:
//!   scale up one shard when mean waiting depth per accepting shard
//!   crosses `scale_up_depth`, down when it falls below
//!   `scale_down_depth`.
//! - [`ScalePolicy::UtilizationTarget`] — hold the fleet's busy fraction
//!   over the last evaluation window inside `[low, high]`.
//! - [`ScalePolicy::Scheduled`] — a time-of-day table of shard counts
//!   (applied at evaluation ticks).
//!
//! **Scale-up** pays a configurable warm-up delay (weight streaming into a
//! cold shard's HBM) before the shard joins dispatch; a warming shard is
//! paid for (shard-seconds) but never admits work. **Scale-down** follows
//! the decode engine's eviction-vs-drain split: [`RetirePolicy::Drain`]
//! stops routing to the shard and lets it finish its queued work before
//! retiring; [`RetirePolicy::Evict`] re-routes the queued (not yet
//! dispatched) requests to the surviving shards immediately — like decode
//! preemption, evicted work loses its place and re-queues, but is never
//! dropped. In both cases an in-flight batch always completes. If load
//! re-spikes while a shard is still draining, scale-up *recalls* it —
//! it rejoins dispatch immediately (weights still resident, no warm-up;
//! the event log shows a bare `Join`) instead of cold-launching a
//! replacement.
//!
//! ## One scaler
//!
//! Every autoscaling decision in the crate — fleet, decode, and both
//! pools of disaggregated serving — is made by one controller,
//! `PoolScaler`. It owns the per-shard lifecycles and cost books, the
//! [`ScaleEvent`] log, the policy evaluation and cooldown, warm-up joins,
//! recall-before-launch, the never-retire-the-last-routable-shard guard
//! and the pinned short-circuit. Colocated serving is its one-pool case;
//! [`crate::disagg::simulate_disagg_autoscale`] is its two-pool case. It
//! reaches an engine only through the crate-internal `ShardEngine` trait
//! (open or close a shard for routing, re-route work, the engine's retire
//! move, the idle test, the observation fields), so the per-engine
//! semantics above — drain/evict, drain/migrate, queue-only vs
//! queue + resident pressure — live in the trait's implementations.
//!
//! The [`AutoscaleReport`] extends the [`FleetReport`] with the cost side
//! of the trade: shard-seconds (the cost proxy a deployment bills by), the
//! scaling-event log, SLO attainment overall and per workload phase, and
//! mean/peak active shards — enough to sweep a cost × p95 frontier, which
//! the `ablate_autoscale` bin does under a 4× diurnal swing.
//!
//! ## Predictive scaling
//!
//! The feedback policies only react *after* a backlog forms, so every
//! up-ramp eats a queueing spike plus a warm-up delay before relief
//! arrives. [`ScalePolicy::Predictive`] instead scales on a *forecast*:
//! a [`RateForecaster`] turns the observed arrival stream into a
//! windowed-EWMA rate estimate, optionally sharpened by a least-squares
//! diurnal-harmonic fit at a known period, and the policy provisions
//! `ceil(forecast(now + horizon) / shard_capacity)` shards — launching
//! capacity one warm-up *ahead* of the demand it predicts. The estimator
//! consumes only `(simulation time, cumulative arrivals)` pairs — no wall
//! clock, no RNG — so predictive runs stay bit-reproducible (pinned by
//! the determinism properties in `tests/autoscale_props.rs` and
//! `tests/decode_autoscale_props.rs`).
//!
//! ## Decode autoscaling
//!
//! [`simulate_decode_autoscale`] applies the same policy machinery to the
//! generative-decode engine ([`crate::decode`]), where scale-down is
//! harder: a retiring shard holds *KV-resident* sequences mid-generation,
//! not just queued work. [`DecodeScaleDown::Drain`] lets residents decode
//! to completion while the shard rejects new admissions (its waiting
//! queue re-routes to survivors immediately);
//! [`DecodeScaleDown::Migrate`] additionally evicts the residents at the
//! next iteration boundary and re-routes them, paying one re-prefill of
//! each evicted sequence's *grown* context on re-admission — the decode
//! engine's preemption machinery applied to scale-down. Either way no
//! request is ever dropped, and a pinned `min == max` decode autoscaler
//! reproduces [`crate::decode::simulate_decode`] bit-for-bit (same
//! `DecodeCore` code path, zero control events).
//!
//! # Example
//!
//! The containment pin, runnable: a pinned autoscaler holding the full
//! fleet drives the identical code path as [`simulate_fleet`](crate::fleet::simulate_fleet), so the
//! two reports agree bit-for-bit and the event log stays empty.
//!
//! ```
//! use lat_core::pipeline::SchedulingPolicy;
//! use lat_hwsim::accelerator::AcceleratorDesign;
//! use lat_hwsim::autoscale::{simulate_autoscale, AutoscaleConfig, ScalePolicy};
//! use lat_hwsim::fleet::{
//!     homogeneous_fleet, poisson_trace, simulate_fleet, BatcherConfig, DispatchPolicy,
//! };
//! use lat_hwsim::spec::FpgaSpec;
//! use lat_model::config::ModelConfig;
//! use lat_model::graph::AttentionMode;
//! use lat_workloads::datasets::DatasetSpec;
//!
//! let design = AcceleratorDesign::new(
//!     &ModelConfig::tiny(),
//!     AttentionMode::paper_sparse(),
//!     FpgaSpec::alveo_u280(),
//!     64,
//! );
//! let fleet = homogeneous_fleet(&design, 2);
//! let trace = poisson_trace(&DatasetSpec::rte(), 600.0, 12, 7);
//! let plain = simulate_fleet(
//!     &fleet,
//!     &trace,
//!     SchedulingPolicy::LengthAware,
//!     DispatchPolicy::JoinShortestQueue,
//!     &BatcherConfig::default(),
//! );
//! let pinned = simulate_autoscale(
//!     &fleet,
//!     &trace,
//!     SchedulingPolicy::LengthAware,
//!     DispatchPolicy::JoinShortestQueue,
//!     &BatcherConfig::default(),
//!     &AutoscaleConfig {
//!         min_shards: 2,
//!         initial_shards: 2,
//!         policy: ScalePolicy::Pinned,
//!         ..AutoscaleConfig::default()
//!     },
//! );
//! assert_eq!(pinned.fleet, plain);
//! assert!(pinned.scale_events.is_empty());
//! ```

use crate::accelerator::AcceleratorDesign;
use crate::decode::{
    DecodeConfig, DecodeController, DecodeCore, DecodeReport, DecodeRequest, DecodeScheduler,
};
use crate::disagg::PoolPolicy;
use crate::failure::{slice_phases, slo_attainment};
use crate::fleet::{
    BatcherConfig, DispatchPolicy, FleetController, FleetCore, FleetReport, Request,
};
use lat_core::pipeline::SchedulingPolicy;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// One entry of a [`ScalePolicy::Scheduled`] table: hold `shards` shards
/// from `start_s` until the next entry's start.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedulePhase {
    /// Time the phase begins, in seconds since simulation start.
    pub start_s: f64,
    /// Shard count to hold during the phase.
    pub shards: usize,
}

/// How the controller decides the target shard count at each evaluation
/// tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScalePolicy {
    /// Never scale: the fleet stays at `initial_shards`. With
    /// `min_shards == max shards` this is [`simulate_fleet`](crate::fleet::simulate_fleet) bit-for-bit.
    Pinned,
    /// Queue-depth threshold with hysteresis: scale up by one shard when
    /// the mean waiting depth per accepting shard exceeds
    /// `scale_up_depth`, down by one when it falls below
    /// `scale_down_depth` (`scale_up_depth > scale_down_depth` — the gap
    /// is the hysteresis band that stops flapping).
    Reactive {
        /// Mean waiting requests per accepting shard that triggers +1.
        scale_up_depth: f64,
        /// Mean waiting requests per accepting shard that triggers −1.
        scale_down_depth: f64,
    },
    /// Hold the fleet's busy fraction over the last evaluation window
    /// inside `[low, high]`: above `high` scale up, below `low` scale
    /// down.
    UtilizationTarget {
        /// Busy fraction below which a shard is retired.
        low: f64,
        /// Busy fraction above which a shard is launched.
        high: f64,
    },
    /// Time-of-day table of shard counts, applied at evaluation ticks;
    /// before the first entry's start the fleet stays at
    /// `initial_shards`.
    Scheduled(Vec<SchedulePhase>),
    /// Model-based scaling on a *forecast* of the arrival rate rather
    /// than the observed backlog: provision
    /// `ceil(forecast(now + horizon_s) / shard_capacity)` shards, where
    /// the forecast comes from a [`RateForecaster`] (windowed EWMA,
    /// optionally a diurnal-harmonic fit at a known period). Not subject
    /// to the cooldown — the whole point is to act *before* the backlog
    /// forms.
    Predictive {
        /// Sustainable per-shard throughput (requests/second) that maps
        /// the forecast rate to a shard count.
        shard_capacity: f64,
        /// Forecast lead time; `warmup_s + eval_interval_s` makes the
        /// launched shard warm exactly when the predicted load lands.
        horizon_s: f64,
        /// EWMA smoothing factor in `(0, 1]` (1 = last window only).
        alpha: f64,
        /// Known diurnal period enabling the harmonic fit; `None` keeps
        /// the estimator a pure EWMA.
        period_s: Option<f64>,
    },
}

impl ScalePolicy {
    /// Panics unless the policy is well-formed for a fleet scaling
    /// between `min_shards` and `max_shards` shards. Shared by the
    /// request-level ([`AutoscaleConfig`]) and decode
    /// ([`DecodeAutoscaleConfig`]) configurations.
    pub(crate) fn validate(&self, min_shards: usize, max_shards: usize) {
        match self {
            ScalePolicy::Pinned => {}
            ScalePolicy::Reactive {
                scale_up_depth,
                scale_down_depth,
            } => assert!(
                scale_up_depth > scale_down_depth && *scale_down_depth >= 0.0,
                "reactive thresholds need scale_up_depth > scale_down_depth >= 0"
            ),
            ScalePolicy::UtilizationTarget { low, high } => assert!(
                high > low && *low >= 0.0,
                "utilization band needs high > low >= 0"
            ),
            ScalePolicy::Scheduled(table) => {
                assert!(
                    !table.is_empty(),
                    "scheduled table needs at least one phase"
                );
                assert!(
                    table.windows(2).all(|w| w[0].start_s < w[1].start_s),
                    "scheduled table must be sorted by start time"
                );
                assert!(
                    table
                        .iter()
                        .all(|p| (min_shards..=max_shards).contains(&p.shards)),
                    "scheduled shard counts outside [min_shards, fleet size]"
                );
            }
            ScalePolicy::Predictive {
                shard_capacity,
                horizon_s,
                alpha,
                period_s,
            } => {
                assert!(
                    *shard_capacity > 0.0 && shard_capacity.is_finite(),
                    "predictive shard_capacity must be positive and finite"
                );
                assert!(
                    *horizon_s >= 0.0 && horizon_s.is_finite(),
                    "predictive horizon must be non-negative and finite"
                );
                assert!(
                    *alpha > 0.0 && *alpha <= 1.0,
                    "predictive alpha outside (0, 1]"
                );
                if let Some(p) = period_s {
                    assert!(
                        *p > 0.0 && p.is_finite(),
                        "predictive period must be positive and finite"
                    );
                }
            }
        }
    }

    /// Whether the policy is a ±1 feedback loop subject to the cooldown.
    pub(crate) fn is_feedback(&self) -> bool {
        matches!(
            self,
            ScalePolicy::Reactive { .. } | ScalePolicy::UtilizationTarget { .. }
        )
    }
}

impl fmt::Display for ScalePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalePolicy::Pinned => write!(f, "pinned"),
            ScalePolicy::Reactive { .. } => write!(f, "reactive"),
            ScalePolicy::UtilizationTarget { .. } => write!(f, "utilization"),
            ScalePolicy::Scheduled(_) => write!(f, "scheduled"),
            ScalePolicy::Predictive { .. } => write!(f, "predictive"),
        }
    }
}

/// Windowed arrival-rate estimator behind [`ScalePolicy::Predictive`]: an
/// EWMA over per-window observed rates, optionally sharpened by a
/// least-squares diurnal-harmonic fit
/// `r(t) ≈ c₀ + c₁·sin(ωt) + c₂·cos(ωt)` at a known period.
///
/// Observations are `(simulation time, cumulative arrivals)` pairs — the
/// shared, RNG-stream-free observation path both autoscalers expose. The
/// estimator never reads a wall clock, so forecast-driven runs are as
/// bit-reproducible as reactive ones.
#[derive(Debug, Clone)]
pub struct RateForecaster {
    alpha: f64,
    period_s: Option<f64>,
    last_t: f64,
    last_count: usize,
    ewma: Option<f64>,
    /// Windows folded into the harmonic normal equations.
    n_obs: usize,
    /// Mid-time of the earliest / latest harmonic observation: the fit is
    /// trusted only once the observations span a full period.
    first_mid_t: f64,
    last_mid_t: f64,
    /// Normal equations Σxxᵀ·c = Σx·r over the basis [1, sin ωt, cos ωt].
    xtx: [[f64; 3]; 3],
    xty: [f64; 3],
}

/// Harmonic observations needed before the fit outranks the EWMA (three
/// would determine the coefficients exactly; demanding more suppresses
/// noise-chasing on short histories).
const FORECAST_MIN_OBS: usize = 8;

impl RateForecaster {
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]` or `period_s` is not
    /// positive and finite.
    pub fn new(alpha: f64, period_s: Option<f64>) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha outside (0, 1]");
        if let Some(p) = period_s {
            assert!(p > 0.0 && p.is_finite(), "period must be positive/finite");
        }
        Self {
            alpha,
            period_s,
            last_t: 0.0,
            last_count: 0,
            ewma: None,
            n_obs: 0,
            first_mid_t: f64::INFINITY,
            last_mid_t: f64::NEG_INFINITY,
            xtx: [[0.0; 3]; 3],
            xty: [0.0; 3],
        }
    }

    /// Feeds one observation: by `now`, `total_arrivals` requests have
    /// arrived since the start of the run. The window since the previous
    /// call becomes one rate sample; a zero-arrival window is a valid
    /// sample (rate 0 — it cannot NaN the estimate), and a zero-length
    /// window is folded into the next one.
    pub fn observe(&mut self, now: f64, total_arrivals: usize) {
        let dt = now - self.last_t;
        if dt <= 1e-12 {
            return; // degenerate window: keep the arrivals for the next one
        }
        let arrived = total_arrivals.saturating_sub(self.last_count);
        let rate = arrived as f64 / dt;
        self.last_t = now;
        self.last_count = total_arrivals;
        self.ewma = Some(match self.ewma {
            Some(e) => self.alpha * rate + (1.0 - self.alpha) * e,
            None => rate,
        });
        if let Some(p) = self.period_s {
            // Attribute the window's mean rate to its midpoint.
            let t_mid = now - dt / 2.0;
            let omega = std::f64::consts::TAU / p;
            let x = [1.0, (omega * t_mid).sin(), (omega * t_mid).cos()];
            for i in 0..3 {
                for j in 0..3 {
                    self.xtx[i][j] += x[i] * x[j];
                }
                self.xty[i] += x[i] * rate;
            }
            self.n_obs += 1;
            self.first_mid_t = self.first_mid_t.min(t_mid);
            self.last_mid_t = self.last_mid_t.max(t_mid);
        }
    }

    /// Current smoothed rate estimate (0 before the first window closes).
    pub fn rate_estimate(&self) -> f64 {
        self.ewma.unwrap_or(0.0)
    }

    /// Forecast arrival rate at time `t` (typically `now + horizon`): the
    /// harmonic fit once a full period of observations exists, the EWMA
    /// before that (a flat extrapolation). Never negative, never NaN.
    pub fn forecast(&self, t: f64) -> f64 {
        if let Some(p) = self.period_s {
            if self.n_obs >= FORECAST_MIN_OBS && self.last_mid_t - self.first_mid_t >= p {
                if let Some(c) = solve3(&self.xtx, &self.xty) {
                    let omega = std::f64::consts::TAU / p;
                    let r = c[0] + c[1] * (omega * t).sin() + c[2] * (omega * t).cos();
                    if r.is_finite() {
                        return r.max(0.0);
                    }
                }
            }
        }
        self.rate_estimate()
    }
}

/// Solves the 3×3 system `a·x = b` by Gaussian elimination with partial
/// pivoting; `None` when (near-)singular — e.g. every observation at the
/// same diurnal phase.
fn solve3(a: &[[f64; 3]; 3], b: &[f64; 3]) -> Option<[f64; 3]> {
    let mut m = [[0.0f64; 4]; 3];
    for i in 0..3 {
        m[i][..3].copy_from_slice(&a[i]);
        m[i][3] = b[i];
    }
    for col in 0..3 {
        let pivot = (col..3).max_by(|&i, &j| m[i][col].abs().total_cmp(&m[j][col].abs()))?;
        if m[pivot][col].abs() < 1e-9 {
            return None;
        }
        m.swap(col, pivot);
        for row in col + 1..3 {
            let f = m[row][col] / m[col][col];
            let pivot_row = m[col];
            for (k, &p) in pivot_row.iter().enumerate().skip(col) {
                m[row][k] -= f * p;
            }
        }
    }
    let mut x = [0.0f64; 3];
    for i in (0..3).rev() {
        let mut acc = m[i][3];
        for j in i + 1..3 {
            acc -= m[i][j] * x[j];
        }
        x[i] = acc / m[i][i];
    }
    Some(x)
}

/// One evaluation tick's observed inputs to [`PolicyEngine::desired`]:
/// engine-agnostic numbers both the fleet and decode autoscalers can
/// produce. All of them are simulation-state reads — no RNG, no clock.
pub(crate) struct Observation {
    /// Shards committed going forward (active + warming, not retiring).
    pub(crate) staying: usize,
    /// The engine's backlog metric, in requests. The encoder fleet counts
    /// requests waiting in queues; the decode engine counts waiting +
    /// KV-resident requests (slot-pool pressure) — a held slot is as much
    /// a capacity commitment as a queued request, and counting only the
    /// queue would read a fully-occupied-but-unqueued fleet as idle and
    /// flap it down.
    pub(crate) waiting: usize,
    /// Shards currently accepting routed work.
    pub(crate) accepting: usize,
    /// Paid (committed) shards right now.
    pub(crate) paid: usize,
    /// Fleet busy time actually elapsed by now.
    pub(crate) busy_elapsed: f64,
    /// Trace arrivals observed by now.
    pub(crate) arrivals: usize,
}

/// Policy evaluation shared by the request-level and decode autoscalers:
/// one source of truth for what each [`ScalePolicy`] does with the
/// observed state, so the two engines cannot drift apart in policy
/// semantics.
pub(crate) struct PolicyEngine {
    policy: ScalePolicy,
    initial_shards: usize,
    eval_interval_s: f64,
    /// Total busy time at the previous tick (utilization window).
    busy_snapshot: f64,
    /// Present only for [`ScalePolicy::Predictive`].
    forecaster: Option<RateForecaster>,
}

impl PolicyEngine {
    pub(crate) fn new(policy: &ScalePolicy, initial_shards: usize, eval_interval_s: f64) -> Self {
        let forecaster = match policy {
            ScalePolicy::Predictive {
                alpha, period_s, ..
            } => Some(RateForecaster::new(*alpha, *period_s)),
            _ => None,
        };
        Self {
            policy: policy.clone(),
            initial_shards,
            eval_interval_s,
            busy_snapshot: 0.0,
            forecaster,
        }
    }

    /// The policy's target committed-shard count at `now` (unclamped),
    /// relative to the shards committed going forward for the feedback
    /// policies, absolute for scheduled/predictive. Also advances the
    /// utilization window and the rate estimator — call exactly once per
    /// evaluation tick.
    pub(crate) fn desired(&mut self, now: f64, obs: &Observation) -> usize {
        if let Some(f) = &mut self.forecaster {
            f.observe(now, obs.arrivals);
        }
        let target = match &self.policy {
            ScalePolicy::Pinned => obs.staying,
            ScalePolicy::Reactive {
                scale_up_depth,
                scale_down_depth,
            } => {
                let depth = obs.waiting as f64 / obs.accepting.max(1) as f64;
                if depth > *scale_up_depth {
                    obs.staying + 1
                } else if depth < *scale_down_depth {
                    obs.staying.saturating_sub(1)
                } else {
                    obs.staying
                }
            }
            ScalePolicy::UtilizationTarget { low, high } => {
                // Busy fraction over the last window, normalized by the
                // *paid* fleet (retiring shards still serve).
                let util = (obs.busy_elapsed - self.busy_snapshot)
                    / (self.eval_interval_s * obs.paid.max(1) as f64);
                if util > *high {
                    obs.staying + 1
                } else if util < *low {
                    obs.staying.saturating_sub(1)
                } else {
                    obs.staying
                }
            }
            ScalePolicy::Scheduled(table) => table
                .iter()
                .take_while(|p| p.start_s <= now)
                .last()
                .map_or(self.initial_shards, |p| p.shards),
            ScalePolicy::Predictive {
                shard_capacity,
                horizon_s,
                ..
            } => {
                // `new` builds the forecaster exactly for this policy.
                let rate = self
                    .forecaster
                    .as_ref()
                    .map_or(0.0, |f| f.forecast(now + horizon_s));
                (rate / shard_capacity).ceil() as usize
            }
        };
        // The utilization window resets every tick, acted on or not.
        self.busy_snapshot = obs.busy_elapsed;
        target
    }
}

/// What happens to a retiring shard's waiting queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RetirePolicy {
    /// The shard stops accepting new work but serves its queue to empty
    /// before retiring (slow, graceful).
    Drain,
    /// The shard's waiting requests are re-routed to surviving shards
    /// immediately (the decode engine's preemption move applied to
    /// scale-down); the shard retires as soon as its in-flight batch
    /// completes. Evicted requests re-queue — they are never dropped.
    Evict,
}

impl fmt::Display for RetirePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetirePolicy::Drain => write!(f, "drain"),
            RetirePolicy::Evict => write!(f, "evict"),
        }
    }
}

/// Parameters of the autoscaling layer. The maximum shard count is the
/// length of the design slice handed to [`simulate_autoscale`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoscaleConfig {
    /// Floor on committed (active + warming) shards; never retires below.
    pub min_shards: usize,
    /// Shards active at `t = 0` (already warm).
    pub initial_shards: usize,
    /// Scaling decision rule.
    pub policy: ScalePolicy,
    /// Eviction-vs-drain semantics of scale-down.
    pub retire: RetirePolicy,
    /// Controller sampling period in seconds.
    pub eval_interval_s: f64,
    /// Weight-streaming delay between launching a shard and it joining
    /// dispatch; the shard is paid for but admits no work while warming.
    pub warmup_s: f64,
    /// Minimum time between scaling actions of the feedback policies
    /// (reactive / utilization-target); scheduled tables ignore it.
    pub cooldown_s: f64,
    /// End-to-end latency SLO used for attainment reporting.
    pub slo_latency_s: f64,
    /// Ascending arrival-time boundaries splitting the trace into
    /// reporting phases (empty = one phase). Purely observational.
    pub phase_bounds_s: Vec<f64>,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        Self {
            min_shards: 1,
            initial_shards: 1,
            policy: ScalePolicy::Reactive {
                scale_up_depth: 12.0,
                scale_down_depth: 2.0,
            },
            retire: RetirePolicy::Drain,
            eval_interval_s: 0.2,
            warmup_s: 0.3,
            cooldown_s: 0.4,
            slo_latency_s: 0.25,
            phase_bounds_s: Vec::new(),
        }
    }
}

impl AutoscaleConfig {
    /// Panics unless the configuration is well-formed for a fleet of
    /// `max_shards` designs.
    pub fn validate(&self, max_shards: usize) {
        assert!(self.min_shards >= 1, "min_shards must be >= 1");
        assert!(
            self.min_shards <= max_shards,
            "min_shards exceeds the fleet size"
        );
        assert!(
            (self.min_shards..=max_shards).contains(&self.initial_shards),
            "initial_shards outside [min_shards, fleet size]"
        );
        assert!(self.eval_interval_s > 0.0, "eval interval must be positive");
        assert!(self.warmup_s >= 0.0, "negative warm-up");
        assert!(self.cooldown_s >= 0.0, "negative cooldown");
        assert!(self.slo_latency_s > 0.0, "SLO latency must be positive");
        assert!(
            self.phase_bounds_s.windows(2).all(|w| w[0] < w[1])
                && self
                    .phase_bounds_s
                    .iter()
                    .all(|b| b.is_finite() && *b > 0.0),
            "phase bounds must be ascending, positive and finite"
        );
        self.policy.validate(self.min_shards, max_shards);
    }
}

/// What a [`ScaleEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScaleEventKind {
    /// A cold shard started warming up (paid from here on).
    Launch,
    /// A warmed shard joined dispatch.
    Join,
    /// A shard stopped accepting work and began draining/evicting.
    RetireStart,
    /// A retiring shard went idle and left the paid fleet.
    Retired,
    /// The failure layer crashed the shard; it left the paid fleet
    /// immediately (crashed capacity is not billed) and cannot be
    /// relaunched until it recovers.
    Failed,
    /// The failure layer revived the shard; it is launchable again but
    /// rejoins only through the normal launch/warm-up path.
    Recovered,
}

impl fmt::Display for ScaleEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScaleEventKind::Launch => write!(f, "launch"),
            ScaleEventKind::Join => write!(f, "join"),
            ScaleEventKind::RetireStart => write!(f, "retire-start"),
            ScaleEventKind::Retired => write!(f, "retired"),
            ScaleEventKind::Failed => write!(f, "failed"),
            ScaleEventKind::Recovered => write!(f, "recovered"),
        }
    }
}

/// One entry of the scaling-event log.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScaleEvent {
    /// Event time in seconds.
    pub time_s: f64,
    /// Shard the event concerns.
    pub shard: usize,
    /// What happened.
    pub kind: ScaleEventKind,
    /// Committed (active + warming + retiring) shards after the event.
    pub on_after: usize,
}

/// SLO attainment over one reporting phase of the trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseSlo {
    /// Phase start (arrival-time bucket), inclusive.
    pub start_s: f64,
    /// Phase end, exclusive (`f64::INFINITY` for the last phase).
    pub end_s: f64,
    /// Requests that arrived in the phase.
    pub requests: usize,
    /// Fraction of the phase's requests inside the latency SLO (1 when
    /// the phase is empty).
    pub slo_attainment: f64,
    /// 95th-percentile latency of the phase's requests (0 when empty).
    pub p95_latency_s: f64,
}

/// Result of an autoscaling simulation: the fleet-level report plus the
/// cost/SLO view the scaling trade-off is judged by.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoscaleReport {
    /// Fleet-level view (latency percentiles, throughput, per-shard
    /// stats, batch log). Shards that never joined show zero work.
    pub fleet: FleetReport,
    /// Σ over shards of paid time (launch → retirement, warm-up
    /// included; still-on shards are charged to the makespan) — the cost
    /// proxy autoscaling tries to shrink.
    pub shard_seconds: f64,
    /// Time-averaged committed shard count over the makespan.
    pub mean_active_shards: f64,
    /// Peak committed shard count.
    pub peak_active_shards: usize,
    /// Every scaling action in time order (empty for a pinned policy).
    pub scale_events: Vec<ScaleEvent>,
    /// Fraction of all requests inside `slo_latency_s`.
    pub slo_attainment: f64,
    /// Per-phase SLO attainment along `phase_bounds_s`.
    pub phases: Vec<PhaseSlo>,
}

/// Lifecycle of one shard under the [`PoolScaler`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Lifecycle {
    /// Cold: not paid, not routed to.
    Off,
    /// Launched, streaming weights; paid but not yet routed to.
    Warming {
        /// Time the shard finishes warming and joins routing.
        ready_s: f64,
    },
    /// Open to routing.
    Active,
    /// Closed to routing, finishing residual work.
    Retiring,
}

/// The moves the [`PoolScaler`] (and the fault injector of
/// [`crate::failure`]) make on an engine — moves the cores already have:
/// open or close a shard for routing, re-route work, the engine's retire
/// move, the idle test, and the [`Observation`] fields. Implemented by
/// `FleetCore`, `DecodeCore`, and the disaggregated decode pool's handoff
/// mask ([`crate::disagg`]); every per-engine semantic lives behind it.
pub(crate) trait ShardEngine {
    /// Opens or closes shard `s` to routing.
    fn set_open(&mut self, s: usize, open: bool);
    /// Whether routing reaches shard `s` right now.
    fn is_open(&self, s: usize) -> bool;
    /// Routes `requests` among the open shards and kicks every shard
    /// that received work. The fleet parks them when no shard is open; the
    /// decode engine cannot park, so some shard must be open.
    fn readmit(&mut self, requests: Vec<usize>, now: f64);
    /// The engine's retire move on shard `s`, just closed to routing. The
    /// fleet re-routes its queue only under `evict`
    /// ([`RetirePolicy::Evict`]); the decode engine always re-routes its
    /// waiting queue and, under `evict` ([`DecodeScaleDown::Migrate`]),
    /// migrates its residents at once if the shard is idle. Returns the
    /// residents migrated, or `None` when the migration must wait for the
    /// in-flight iteration's boundary ([`ShardEngine::evict_residents`]).
    fn retire_move(&mut self, s: usize, now: f64, evict: bool) -> Option<usize>;
    /// Migrates shard `s`'s unfinished residents to the open shards (each
    /// re-prefills its grown context) and returns how many moved; the
    /// fleet holds no residents.
    fn evict_residents(&mut self, s: usize, now: f64) -> usize;
    /// Whether shard `s` is idle with nothing queued or resident.
    fn idle(&self, s: usize) -> bool;
    /// Backlog over `shards` in requests. The fleet counts its queues; the
    /// decode engine counts waiting + KV-resident requests (slot-pool
    /// pressure) — a held slot is as much a capacity commitment as a
    /// queued request, and counting only the queue would read a
    /// fully-occupied-but-unqueued fleet as idle and flap it down.
    fn backlog(&self, shards: Range<usize>) -> usize;
    /// Busy time of `shards` actually *elapsed* by `t`: a batch or
    /// iteration charges its whole service at launch, so the in-flight
    /// tail is clipped off. Window deltas of this integral are exact even
    /// when service times span many evaluation windows.
    fn busy_elapsed(&self, shards: Range<usize>, t: f64) -> f64;
    /// Arrivals the pool has observed (the forecaster's input stream).
    fn arrivals(&self) -> usize;
    /// Schedules a control event at `t`.
    fn control_at(&mut self, t: f64);
    /// Whether every request completed or was given up on.
    fn work_done(&self) -> bool;
}

/// Routes `requests` on the decode core, collecting the shards that
/// received work (deduplicated, first-touch order) into `touched`.
fn route_all(core: &mut DecodeCore<'_>, requests: Vec<usize>, now: f64, touched: &mut Vec<usize>) {
    for r in requests {
        let s = core.route_request(r, now);
        if !touched.contains(&s) {
            touched.push(s);
        }
    }
}

impl ShardEngine for FleetCore<'_> {
    fn set_open(&mut self, s: usize, open: bool) {
        self.accepting[s] = open;
    }

    fn is_open(&self, s: usize) -> bool {
        self.accepting[s]
    }

    fn readmit(&mut self, requests: Vec<usize>, now: f64) {
        let mut touched = Vec::new();
        for r in requests {
            if let Some(s) = self.admit(r, now) {
                if !touched.contains(&s) {
                    touched.push(s);
                }
            }
        }
        for s in touched {
            self.try_dispatch(s, now);
        }
    }

    fn retire_move(&mut self, s: usize, now: f64, evict: bool) -> Option<usize> {
        if evict {
            // The scaler keeps a survivor open during a retire, so the
            // evicted work never parks.
            let st = &mut self.state[s];
            st.tick(now);
            let evicted: Vec<usize> = st.queue.drain(..).collect();
            st.window_scheduled_for = None;
            self.readmit(evicted, now);
        }
        Some(0)
    }

    fn evict_residents(&mut self, _s: usize, _now: f64) -> usize {
        0
    }

    fn idle(&self, s: usize) -> bool {
        !self.state[s].busy && self.state[s].queue.is_empty()
    }

    fn backlog(&self, shards: Range<usize>) -> usize {
        self.state[shards].iter().map(|st| st.queue.len()).sum()
    }

    fn busy_elapsed(&self, shards: Range<usize>, t: f64) -> f64 {
        self.state[shards]
            .iter()
            .map(|st| {
                st.busy_time_s
                    - if st.busy {
                        (st.busy_until_s - t).max(0.0)
                    } else {
                        0.0
                    }
            })
            .sum()
    }

    fn arrivals(&self) -> usize {
        self.arrivals_seen
    }

    fn control_at(&mut self, t: f64) {
        self.schedule_control(t);
    }

    fn work_done(&self) -> bool {
        self.completed() + self.abandoned == self.trace.len()
    }
}

impl ShardEngine for DecodeCore<'_> {
    fn set_open(&mut self, s: usize, open: bool) {
        self.accepting[s] = open;
    }

    fn is_open(&self, s: usize) -> bool {
        self.accepting[s]
    }

    fn readmit(&mut self, requests: Vec<usize>, now: f64) {
        let mut touched = Vec::new();
        route_all(self, requests, now, &mut touched);
        for s in touched {
            self.start_iteration(s, now);
        }
    }

    fn retire_move(&mut self, s: usize, now: f64, evict: bool) -> Option<usize> {
        self.shards[s].tick(now);
        let waiting: Vec<usize> = self.shards[s].queue.drain(..).collect();
        let mut touched = Vec::new();
        route_all(self, waiting, now, &mut touched);
        let migrated = match (evict, self.shards[s].stepping) {
            (false, _) => Some(0),
            (true, true) => None,
            (true, false) => Some(self.evict_unfinished(s, now, &mut touched)),
        };
        for s2 in touched {
            self.start_iteration(s2, now);
        }
        migrated
    }

    fn evict_residents(&mut self, s: usize, now: f64) -> usize {
        let mut touched = Vec::new();
        let moved = self.evict_unfinished(s, now, &mut touched);
        for s2 in touched {
            self.start_iteration(s2, now);
        }
        moved
    }

    fn idle(&self, s: usize) -> bool {
        let sh = &self.shards[s];
        !sh.stepping && sh.resident.is_empty() && sh.queue.is_empty()
    }

    fn backlog(&self, shards: Range<usize>) -> usize {
        self.shards[shards]
            .iter()
            .map(|sh| sh.queue.len() + sh.resident.len())
            .sum()
    }

    fn busy_elapsed(&self, shards: Range<usize>, t: f64) -> f64 {
        self.shards[shards]
            .iter()
            .map(|sh| {
                sh.busy_time_s
                    - if sh.stepping {
                        (sh.busy_until_s - t).max(0.0)
                    } else {
                        0.0
                    }
            })
            .sum()
    }

    fn arrivals(&self) -> usize {
        self.arrivals_seen
    }

    fn control_at(&mut self, t: f64) {
        self.schedule_control(t);
    }

    fn work_done(&self) -> bool {
        self.completed() + self.abandoned == self.trace.len()
    }
}

/// One shard's books under the [`PoolScaler`].
#[derive(Debug, Clone, Copy)]
struct ShardBook {
    life: Lifecycle,
    /// Time the shard last started being paid for.
    on_since: f64,
    /// Crashed by the failure layer: never a launch target until its
    /// [`ScaleEventKind::Recovered`] event.
    failed: bool,
}

/// One pool of a [`PoolScaler`]: a contiguous shard range with its own
/// [`PolicyEngine`], lifecycles, cost books, cooldown and event log.
pub(crate) struct Pool {
    shards: Range<usize>,
    min_shards: usize,
    /// Fleet [`RetirePolicy::Evict`] / decode [`DecodeScaleDown::Migrate`].
    evict: bool,
    warmup_s: f64,
    cooldown_s: f64,
    pinned: bool,
    feedback: bool,
    engine: PolicyEngine,
    /// Indexed by fleet shard; entries below `shards.start` stay `Off`.
    books: Vec<ShardBook>,
    shard_seconds: f64,
    /// Committed (non-Off) shards right now.
    on_count: usize,
    peak_on: usize,
    on_integral: f64,
    last_on_change_s: f64,
    last_action_s: f64,
    events: Vec<ScaleEvent>,
    /// Residents migrated by evicting scale-downs.
    pub(crate) migrations: usize,
}

impl Pool {
    fn new(cfg: &PoolPolicy, shards: Range<usize>, evict: bool, timing: [f64; 3]) -> Self {
        let [eval_interval_s, warmup_s, cooldown_s] = timing;
        let initial = shards.start..shards.start + cfg.initial_shards;
        Self {
            min_shards: cfg.min_shards,
            evict,
            warmup_s,
            cooldown_s,
            pinned: matches!(cfg.policy, ScalePolicy::Pinned),
            feedback: cfg.policy.is_feedback(),
            engine: PolicyEngine::new(&cfg.policy, cfg.initial_shards, eval_interval_s),
            books: (0..shards.end)
                .map(|s| ShardBook {
                    life: if initial.contains(&s) {
                        Lifecycle::Active
                    } else {
                        Lifecycle::Off
                    },
                    on_since: 0.0,
                    failed: false,
                })
                .collect(),
            shard_seconds: 0.0,
            on_count: cfg.initial_shards,
            peak_on: cfg.initial_shards,
            on_integral: 0.0,
            last_on_change_s: 0.0,
            last_action_s: f64::NEG_INFINITY,
            events: Vec::new(),
            migrations: 0,
            shards,
        }
    }

    /// Closes the cost books at `makespan`: Σ paid shard-seconds
    /// (still-on shards charged to the makespan), time-averaged committed
    /// shard count, and the committed peak.
    pub(crate) fn close_books(&self, makespan: f64) -> (f64, f64, usize) {
        let mut shard_seconds = self.shard_seconds;
        for b in &self.books {
            if b.life != Lifecycle::Off {
                shard_seconds += (makespan - b.on_since).max(0.0);
            }
        }
        let end = makespan.max(self.last_on_change_s).max(1e-12);
        let on_integral = self.on_integral + self.on_count as f64 * (end - self.last_on_change_s);
        (shard_seconds, on_integral / end, self.peak_on)
    }

    /// Advances the committed-shard integral and applies `delta`.
    fn change_on_count(&mut self, now: f64, delta: isize) {
        self.on_integral += self.on_count as f64 * (now - self.last_on_change_s);
        self.last_on_change_s = now;
        self.on_count = (self.on_count as isize + delta) as usize;
        self.peak_on = self.peak_on.max(self.on_count);
    }

    fn record(&mut self, now: f64, shard: usize, kind: ScaleEventKind) {
        self.events.push(ScaleEvent {
            time_s: now,
            shard,
            kind,
            on_after: self.on_count,
        });
    }

    /// Shards committed *going forward* — active or warming, but not
    /// retiring (those leave as soon as they drain). Scaling decisions
    /// compare targets against this count, so in-progress drains can't
    /// stack further retires and push the surviving pool below
    /// `min_shards`.
    fn staying(&self) -> usize {
        self.books
            .iter()
            .filter(|b| matches!(b.life, Lifecycle::Active | Lifecycle::Warming { .. }))
            .count()
    }

    fn routable(&self, e: &impl ShardEngine) -> usize {
        self.shards.clone().filter(|&s| e.is_open(s)).count()
    }

    /// Opens shard `s` to routing: its warm-up finished, it launched with
    /// no warm-up, or it is recalled from retiring.
    fn join(&mut self, e: &mut impl ShardEngine, s: usize, now: f64) {
        self.books[s].life = Lifecycle::Active;
        e.set_open(s, true);
        self.record(now, s, ScaleEventKind::Join);
    }

    /// Starts paying for shard `s`; it joins routing after the warm-up.
    fn launch(&mut self, e: &mut impl ShardEngine, s: usize, now: f64) {
        self.change_on_count(now, 1);
        self.books[s].on_since = now;
        self.record(now, s, ScaleEventKind::Launch);
        if self.warmup_s <= 0.0 {
            self.join(e, s, now);
        } else {
            let ready_s = now + self.warmup_s;
            self.books[s].life = Lifecycle::Warming { ready_s };
            e.control_at(ready_s);
        }
    }

    /// Closes shard `s` to routing and applies the engine's retire move;
    /// the shard leaves the paid pool once idle.
    fn retire(&mut self, e: &mut impl ShardEngine, s: usize, now: f64) {
        self.books[s].life = Lifecycle::Retiring;
        e.set_open(s, false);
        self.record(now, s, ScaleEventKind::RetireStart);
        self.migrations += e.retire_move(s, now, self.evict).unwrap_or(0);
        self.maybe_finish_retire(e, s, now);
    }

    /// Completes a retirement once the shard is idle.
    fn maybe_finish_retire(&mut self, e: &impl ShardEngine, s: usize, now: f64) {
        if self.books[s].life == Lifecycle::Retiring && e.idle(s) {
            self.books[s].life = Lifecycle::Off;
            self.change_on_count(now, -1);
            self.shard_seconds += now - self.books[s].on_since;
            self.record(now, s, ScaleEventKind::Retired);
        }
    }

    /// Joins every shard whose warm-up is due, so it can receive work
    /// decided at the very same tick.
    pub(crate) fn join_due(&mut self, e: &mut impl ShardEngine, now: f64) {
        for s in self.shards.clone() {
            if let Lifecycle::Warming { ready_s } = self.books[s].life {
                if ready_s <= now {
                    self.join(e, s, now);
                }
            }
        }
    }

    /// One evaluation tick: decide a target and launch/recall/retire
    /// towards it.
    pub(crate) fn evaluate(&mut self, e: &mut impl ShardEngine, now: f64) {
        let staying = self.staying();
        let obs = Observation {
            staying,
            waiting: e.backlog(self.shards.clone()),
            accepting: self.routable(e),
            paid: self.on_count,
            busy_elapsed: e.busy_elapsed(self.shards.clone(), now),
            arrivals: e.arrivals(),
        };
        let desired = self
            .engine
            .desired(now, &obs)
            .clamp(self.min_shards, self.shards.len());
        if desired == staying || (self.feedback && now - self.last_action_s < self.cooldown_s) {
            return;
        }
        let mut acted = false;
        if desired > staying {
            let mut need = desired - staying;
            // Recall retiring shards first: weights (and any draining
            // residents) are still in place, so rejoining is free — no
            // warm-up, no fresh Launch; the event log shows a bare Join.
            for s in self.shards.clone().rev() {
                if need > 0 && self.books[s].life == Lifecycle::Retiring {
                    self.join(e, s, now);
                    need -= 1;
                    acted = true;
                }
            }
            for s in self.shards.clone() {
                if need > 0 && self.books[s].life == Lifecycle::Off && !self.books[s].failed {
                    self.launch(e, s, now);
                    need -= 1;
                    acted = true;
                }
            }
        } else {
            // desired >= min_shards (clamped) and each retire moves one
            // shard out of `staying`, so the surviving pool never drops
            // below the floor even while earlier drains are in flight.
            let mut staying_now = staying;
            for s in self.shards.clone().rev() {
                // Retire only active shards, and never the last routable
                // one — a warming shard is not yet a routing target.
                if staying_now > desired
                    && self.books[s].life == Lifecycle::Active
                    && self.routable(e) > 1
                {
                    self.retire(e, s, now);
                    staying_now -= 1;
                    acted = true;
                }
            }
        }
        if acted {
            self.last_action_s = now;
        }
    }

    /// Shard `s` finished a batch or iteration: a retiring shard migrates
    /// its still-unfinished residents (evicting scale-down) and retires
    /// once idle.
    pub(crate) fn after_work(&mut self, e: &mut impl ShardEngine, s: usize, now: f64) {
        if self.books[s].life == Lifecycle::Retiring && self.evict {
            self.migrations += e.evict_residents(s, now);
        }
        self.maybe_finish_retire(e, s, now);
    }
}

/// The one autoscaling controller: a tick chain over one pool (colocated
/// serving — [`simulate_autoscale`], [`simulate_decode_autoscale`]) or two
/// (disaggregated serving — [`crate::disagg::simulate_disagg_autoscale`]).
/// Each [`Pool`] owns its scaling decisions; the engine semantics sit
/// behind [`ShardEngine`].
pub(crate) struct PoolScaler {
    pub(crate) pools: Vec<Pool>,
    eval_interval_s: f64,
    next_eval_s: f64,
    /// Whether the evaluation tick chain runs ([`PoolScaler::arm`]).
    ticking: bool,
}

impl PoolScaler {
    /// `pools` pairs each envelope with its fleet shard range; `evict`
    /// selects the evicting scale-down; `timing` is
    /// `[eval_interval_s, warmup_s, cooldown_s]`.
    pub(crate) fn new(
        pools: &[(&PoolPolicy, Range<usize>)],
        evict: bool,
        timing: [f64; 3],
    ) -> Self {
        Self {
            pools: pools
                .iter()
                .map(|(cfg, shards)| Pool::new(cfg, shards.clone(), evict, timing))
                .collect(),
            eval_interval_s: timing[0],
            next_eval_s: timing[0],
            ticking: false,
        }
    }

    /// Starts the evaluation tick chain unless every pool is pinned: a
    /// pinned run then carries no scaler event at all, so its event stream
    /// (and report) is the plain engine's bit for bit.
    pub(crate) fn prime(&mut self, e: &mut impl ShardEngine) {
        if !self.pools.iter().all(|p| p.pinned) {
            self.arm(e);
        }
    }

    /// Starts the evaluation tick chain unconditionally.
    pub(crate) fn arm(&mut self, e: &mut impl ShardEngine) {
        self.ticking = true;
        e.control_at(self.eval_interval_s);
    }

    /// Whether an evaluation tick is due at `now`. Once all work is done
    /// (completed, or given up on by the client layer) the tick chain
    /// stops so the event queue can drain.
    pub(crate) fn tick_due(&mut self, e: &impl ShardEngine, now: f64) -> bool {
        if !self.ticking || now + 1e-9 < self.next_eval_s {
            return false;
        }
        self.ticking = !e.work_done();
        self.ticking
    }

    /// Schedules the tick after an evaluation at `now`.
    pub(crate) fn rearm(&mut self, e: &mut impl ShardEngine, now: f64) {
        self.next_eval_s = now + self.eval_interval_s;
        e.control_at(self.next_eval_s);
    }

    /// Every pool's scale events in time order (pool order at equal
    /// instants).
    pub(crate) fn take_events(&mut self) -> Vec<ScaleEvent> {
        let mut events: Vec<ScaleEvent> = self
            .pools
            .iter_mut()
            .flat_map(|p| std::mem::take(&mut p.events))
            .collect();
        events.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
        events
    }

    /// The colocated control step: due warm-ups join first, then an
    /// evaluation tick if one is due.
    fn control(&mut self, e: &mut impl ShardEngine, now: f64) {
        for pool in &mut self.pools {
            pool.join_due(e, now);
        }
        if self.tick_due(e, now) {
            for pool in &mut self.pools {
                pool.evaluate(e, now);
            }
            self.rearm(e, now);
        }
    }

    /// The colocated pool.
    pub(crate) fn colocated(&mut self) -> &mut Pool {
        &mut self.pools[0]
    }
}

impl FleetController for PoolScaler {
    fn on_control(&mut self, core: &mut FleetCore<'_>, now: f64) {
        self.control(core, now);
    }

    fn after_completion(&mut self, core: &mut FleetCore<'_>, shard: usize, now: f64) {
        self.colocated().after_work(core, shard, now);
    }

    fn on_shard_down(&mut self, _core: &mut FleetCore<'_>, s: usize, now: f64) {
        // Crashed capacity stops billing immediately, whatever lifecycle
        // stage it was in (a crash mid-warm-up or mid-retire also lands
        // here; the pending warm-up control event finds no Warming state
        // and is a no-op).
        let pool = self.colocated();
        if pool.books[s].life != Lifecycle::Off {
            pool.change_on_count(now, -1);
            pool.shard_seconds += now - pool.books[s].on_since;
            pool.books[s].life = Lifecycle::Off;
        }
        pool.books[s].failed = true;
        pool.record(now, s, ScaleEventKind::Failed);
    }

    fn on_shard_up(&mut self, _core: &mut FleetCore<'_>, s: usize, now: f64) {
        // Deliberately does NOT reopen routing: a recovered shard is
        // cold, so it rejoins through the policy's normal launch +
        // warm-up path at the next evaluation that wants capacity.
        let pool = self.colocated();
        pool.books[s].failed = false;
        pool.record(now, s, ScaleEventKind::Recovered);
    }
}

impl DecodeController for PoolScaler {
    fn on_control(&mut self, core: &mut DecodeCore<'_>, now: f64) {
        self.control(core, now);
    }

    fn after_step(&mut self, core: &mut DecodeCore<'_>, shard: usize, now: f64) {
        self.colocated().after_work(core, shard, now);
    }
}

impl AutoscaleConfig {
    /// The one-pool scaler this configuration describes.
    pub(crate) fn scaler(&self, max_shards: usize) -> PoolScaler {
        let pool = PoolPolicy {
            min_shards: self.min_shards,
            initial_shards: self.initial_shards,
            policy: self.policy.clone(),
        };
        PoolScaler::new(
            &[(&pool, 0..max_shards)],
            self.retire == RetirePolicy::Evict,
            [self.eval_interval_s, self.warmup_s, self.cooldown_s],
        )
    }
}

/// Simulates `trace` over a fleet of up to `shards.len()` shards whose
/// membership the autoscaling controller drives at runtime; batching,
/// dispatch and the cost model are exactly [`simulate_fleet`](crate::fleet::simulate_fleet)'s.
///
/// Every request completes exactly once — scaling events re-route or delay
/// work but never drop it.
///
/// # Panics
///
/// Panics on the [`simulate_fleet`](crate::fleet::simulate_fleet) input errors or a malformed
/// [`AutoscaleConfig`] (see [`AutoscaleConfig::validate`]).
pub fn simulate_autoscale(
    shards: &[AcceleratorDesign],
    trace: &[Request],
    policy: SchedulingPolicy,
    dispatch: DispatchPolicy,
    batcher: &BatcherConfig,
    cfg: &AutoscaleConfig,
) -> AutoscaleReport {
    assert!(!shards.is_empty(), "fleet needs at least one shard");
    cfg.validate(shards.len());
    let accepting: Vec<bool> = (0..shards.len()).map(|s| s < cfg.initial_shards).collect();
    let mut core = FleetCore::new(shards, trace, policy, dispatch, batcher, accepting);
    let mut scaler = cfg.scaler(shards.len());
    scaler.prime(&mut core);
    core.run(&mut scaler);
    let completion_s = core.completion_s.clone();
    let fleet = core.into_report();
    let (shard_seconds, mean_active_shards, peak_active_shards) =
        scaler.colocated().close_books(fleet.makespan_s);
    let arrivals: Vec<f64> = trace.iter().map(|r| r.arrival_s).collect();
    let latency = |r: usize| completion_s[r] - arrivals[r];
    let slo = cfg.slo_latency_s;
    AutoscaleReport {
        fleet,
        shard_seconds,
        mean_active_shards,
        peak_active_shards,
        scale_events: scaler.take_events(),
        slo_attainment: slo_attainment(arrivals.len(), &latency, slo),
        phases: slice_phases(
            &cfg.phase_bounds_s,
            &arrivals,
            &completion_s,
            &latency,
            slo,
            true,
        )
        .iter()
        .map(|t| PhaseSlo {
            start_s: t.start_s,
            end_s: t.end_s,
            requests: t.arrivals,
            slo_attainment: t.slo_attainment(),
            p95_latency_s: t.p95_s,
        })
        .collect(),
    }
}

// ────────────────────────── decode autoscaling ──────────────────────────

/// What happens to a retiring decode shard's KV-resident sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecodeScaleDown {
    /// The shard stops accepting routed work and hands its *waiting*
    /// queue to the survivors, but its residents keep decoding to
    /// completion in place; the shard retires when the last resident
    /// finishes (slow, no re-prefill cost).
    Drain,
    /// Residents are evicted at the next iteration boundary and re-routed
    /// to surviving shards, where each re-prefills its *grown* context on
    /// re-admission — the decode engine's preemption machinery applied to
    /// scale-down. The shard retires as soon as its in-flight iteration
    /// completes (fast, pays one re-prefill per evicted resident).
    Migrate,
}

impl fmt::Display for DecodeScaleDown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeScaleDown::Drain => write!(f, "drain"),
            DecodeScaleDown::Migrate => write!(f, "migrate"),
        }
    }
}

/// Parameters of the decode autoscaling layer; the maximum shard count is
/// the length of the design slice handed to [`simulate_decode_autoscale`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecodeAutoscaleConfig {
    /// Floor on committed (active + warming) shards; never retires below.
    pub min_shards: usize,
    /// Shards active at `t = 0` (already warm).
    pub initial_shards: usize,
    /// Scaling decision rule (shared with the request-level autoscaler).
    pub policy: ScalePolicy,
    /// What scale-down does with a retiring shard's KV residents.
    pub scale_down: DecodeScaleDown,
    /// Controller sampling period in seconds.
    pub eval_interval_s: f64,
    /// Weight-streaming delay between launching a shard and it joining
    /// dispatch; the shard is paid for but admits no work while warming.
    pub warmup_s: f64,
    /// Minimum time between scaling actions of the feedback policies
    /// (reactive / utilization-target); scheduled and predictive policies
    /// ignore it.
    pub cooldown_s: f64,
    /// Time-to-first-token SLO used for attainment reporting (the
    /// user-facing latency target of generative serving).
    pub slo_ttft_s: f64,
    /// Ascending arrival-time boundaries splitting the trace into
    /// reporting phases (empty = one phase). Purely observational.
    pub phase_bounds_s: Vec<f64>,
}

impl Default for DecodeAutoscaleConfig {
    fn default() -> Self {
        Self {
            min_shards: 1,
            initial_shards: 1,
            policy: ScalePolicy::Reactive {
                scale_up_depth: 8.0,
                scale_down_depth: 1.0,
            },
            scale_down: DecodeScaleDown::Drain,
            eval_interval_s: 0.2,
            warmup_s: 0.3,
            cooldown_s: 0.4,
            slo_ttft_s: 0.25,
            phase_bounds_s: Vec::new(),
        }
    }
}

impl DecodeAutoscaleConfig {
    /// Panics unless the configuration is well-formed for a fleet of
    /// `max_shards` designs.
    pub fn validate(&self, max_shards: usize) {
        assert!(self.min_shards >= 1, "min_shards must be >= 1");
        assert!(
            self.min_shards <= max_shards,
            "min_shards exceeds the fleet size"
        );
        assert!(
            (self.min_shards..=max_shards).contains(&self.initial_shards),
            "initial_shards outside [min_shards, fleet size]"
        );
        assert!(self.eval_interval_s > 0.0, "eval interval must be positive");
        assert!(self.warmup_s >= 0.0, "negative warm-up");
        assert!(self.cooldown_s >= 0.0, "negative cooldown");
        assert!(self.slo_ttft_s > 0.0, "TTFT SLO must be positive");
        assert!(
            self.phase_bounds_s.windows(2).all(|w| w[0] < w[1])
                && self
                    .phase_bounds_s
                    .iter()
                    .all(|b| b.is_finite() && *b > 0.0),
            "phase bounds must be ascending, positive and finite"
        );
        self.policy.validate(self.min_shards, max_shards);
    }
}

/// TTFT SLO attainment over one reporting phase of a decode trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecodePhaseSlo {
    /// Phase start (arrival-time bucket), inclusive.
    pub start_s: f64,
    /// Phase end, exclusive (`f64::INFINITY` for the last phase).
    pub end_s: f64,
    /// Requests that arrived in the phase.
    pub requests: usize,
    /// Fraction of the phase's requests whose TTFT met the SLO (1 when
    /// the phase is empty).
    pub slo_attainment: f64,
    /// 95th-percentile TTFT of the phase's requests (0 when empty).
    pub p95_ttft_s: f64,
}

/// Result of a decode autoscaling simulation: the full [`DecodeReport`]
/// (TTFT/ITL percentiles, token goodput, slot utilization, per-request
/// outcomes) plus the cost/SLO view and the KV-migration accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecodeAutoscaleReport {
    /// Decode-engine view; under a pinned `min == max` policy this is
    /// [`crate::decode::simulate_decode`]'s report bit-for-bit.
    pub decode: DecodeReport,
    /// Σ over shards of paid time (launch → retirement, warm-up included;
    /// still-on shards are charged to the makespan).
    pub shard_seconds: f64,
    /// Time-averaged committed shard count over the makespan.
    pub mean_active_shards: f64,
    /// Peak committed shard count.
    pub peak_active_shards: usize,
    /// Every scaling action in time order (empty for a pinned policy).
    pub scale_events: Vec<ScaleEvent>,
    /// Fraction of all requests whose TTFT met `slo_ttft_s`.
    pub slo_attainment: f64,
    /// Per-phase TTFT SLO attainment along `phase_bounds_s`.
    pub phases: Vec<DecodePhaseSlo>,
    /// KV residents evicted by scale-down ([`DecodeScaleDown::Migrate`]).
    pub migrations: usize,
    /// Context re-prefill passes actually priced (one per preemption or
    /// migration whose re-admission ran) — the cost migrating KV state
    /// adds on top of drain.
    pub re_prefills: usize,
}

/// Simulates a decode `trace` over a fleet of up to `shards.len()` shards
/// whose membership the autoscaling controller drives at runtime;
/// scheduling, admission and the iteration cost model are exactly
/// [`crate::decode::simulate_decode`]'s.
///
/// Every request completes exactly once and generates exactly its
/// `output_len` tokens — scale-down drains or migrates KV residents but
/// never drops one.
///
/// # Panics
///
/// Panics on the [`crate::decode::simulate_decode`] input errors or a
/// malformed [`DecodeAutoscaleConfig`].
pub fn simulate_decode_autoscale(
    shards: &[AcceleratorDesign],
    trace: &[DecodeRequest],
    policy: SchedulingPolicy,
    dispatch: DispatchPolicy,
    scheduler: DecodeScheduler,
    decode_cfg: &DecodeConfig,
    cfg: &DecodeAutoscaleConfig,
) -> DecodeAutoscaleReport {
    assert!(!shards.is_empty(), "fleet needs at least one shard");
    cfg.validate(shards.len());
    let accepting: Vec<bool> = (0..shards.len()).map(|s| s < cfg.initial_shards).collect();
    let mut core = DecodeCore::new(
        shards, trace, policy, dispatch, scheduler, decode_cfg, accepting,
    );
    let pool = PoolPolicy {
        min_shards: cfg.min_shards,
        initial_shards: cfg.initial_shards,
        policy: cfg.policy.clone(),
    };
    let mut scaler = PoolScaler::new(
        &[(&pool, 0..shards.len())],
        cfg.scale_down == DecodeScaleDown::Migrate,
        [cfg.eval_interval_s, cfg.warmup_s, cfg.cooldown_s],
    );
    scaler.prime(&mut core);
    core.run(&mut scaler);
    let completion_s = core.completion_s.clone();
    let ttft_s = core.ttft_s.clone();
    let decode = core.into_report();
    let (shard_seconds, mean_active_shards, peak_active_shards) =
        scaler.colocated().close_books(decode.fleet.makespan_s);
    let arrivals: Vec<f64> = trace.iter().map(|r| r.arrival_s).collect();
    let ttft = |r: usize| ttft_s[r];
    let slo = cfg.slo_ttft_s;
    let re_prefills = decode.requests.iter().map(|r| r.re_prefills as usize).sum();
    DecodeAutoscaleReport {
        decode,
        shard_seconds,
        mean_active_shards,
        peak_active_shards,
        scale_events: scaler.take_events(),
        slo_attainment: slo_attainment(arrivals.len(), &ttft, slo),
        phases: slice_phases(
            &cfg.phase_bounds_s,
            &arrivals,
            &completion_s,
            &ttft,
            slo,
            true,
        )
        .iter()
        .map(|t| DecodePhaseSlo {
            start_s: t.start_s,
            end_s: t.end_s,
            requests: t.arrivals,
            slo_attainment: t.slo_attainment(),
            p95_ttft_s: t.p95_s,
        })
        .collect(),
        migrations: scaler.colocated().migrations,
        re_prefills,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{
        homogeneous_fleet, nonstationary_poisson_trace, poisson_trace, simulate_fleet, RatePhase,
        RateProfile,
    };
    use crate::spec::FpgaSpec;
    use lat_model::config::ModelConfig;
    use lat_model::graph::AttentionMode;
    use lat_workloads::datasets::DatasetSpec;

    fn tiny_design(s_avg: usize) -> AcceleratorDesign {
        AcceleratorDesign::new(
            &ModelConfig::tiny(),
            AttentionMode::paper_sparse(),
            FpgaSpec::alveo_u280(),
            s_avg,
        )
    }

    fn reactive_cfg(min: usize, initial: usize) -> AutoscaleConfig {
        AutoscaleConfig {
            min_shards: min,
            initial_shards: initial,
            policy: ScalePolicy::Reactive {
                scale_up_depth: 6.0,
                scale_down_depth: 1.0,
            },
            eval_interval_s: 0.05,
            warmup_s: 0.1,
            cooldown_s: 0.0,
            ..AutoscaleConfig::default()
        }
    }

    /// A two-phase burst profile: quiet, then far past 1-shard capacity.
    fn burst_profile() -> RateProfile {
        RateProfile::Piecewise(vec![
            RatePhase {
                duration_s: 1.0,
                rate: 30.0,
            },
            RatePhase {
                duration_s: 2.0,
                rate: 2500.0,
            },
        ])
    }

    #[test]
    fn pinned_full_fleet_reproduces_simulate_fleet_bit_for_bit() {
        let fleet = homogeneous_fleet(&tiny_design(64), 3);
        let trace = poisson_trace(&DatasetSpec::rte(), 500.0, 90, 42);
        let batcher = BatcherConfig::default();
        let auto = simulate_autoscale(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &batcher,
            &AutoscaleConfig {
                min_shards: 3,
                initial_shards: 3,
                policy: ScalePolicy::Pinned,
                ..AutoscaleConfig::default()
            },
        );
        let fixed = simulate_fleet(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &batcher,
        );
        assert_eq!(auto.fleet, fixed);
        assert!(auto.scale_events.is_empty());
        assert_eq!(auto.peak_active_shards, 3);
        let expect = 3.0 * fixed.makespan_s;
        assert!((auto.shard_seconds - expect).abs() < 1e-9);
    }

    #[test]
    fn reactive_scales_up_under_burst_and_back_down() {
        let fleet = homogeneous_fleet(&tiny_design(64), 4);
        let trace = nonstationary_poisson_trace(&DatasetSpec::mrpc(), &burst_profile(), 400, 7);
        let r = simulate_autoscale(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &BatcherConfig::default(),
            &reactive_cfg(1, 1),
        );
        assert_eq!(r.fleet.completed, 400);
        assert!(r.peak_active_shards > 1, "never scaled up under the burst");
        assert!(
            r.scale_events
                .iter()
                .any(|e| e.kind == ScaleEventKind::Join),
            "no shard ever joined"
        );
        assert!(
            r.scale_events
                .iter()
                .any(|e| e.kind == ScaleEventKind::Retired),
            "never scaled back down after the burst"
        );
        assert!(r.mean_active_shards < r.peak_active_shards as f64);
        assert!(r.shard_seconds < 4.0 * r.fleet.makespan_s);
    }

    #[test]
    fn warming_shards_admit_no_work_before_join() {
        let fleet = homogeneous_fleet(&tiny_design(64), 4);
        let trace = nonstationary_poisson_trace(&DatasetSpec::mrpc(), &burst_profile(), 400, 11);
        let r = simulate_autoscale(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &BatcherConfig::default(),
            &reactive_cfg(1, 1),
        );
        // Every batch on a launched shard starts at/after that shard's
        // join; shard 0 (initial) is exempt.
        for e in r
            .scale_events
            .iter()
            .filter(|e| e.kind == ScaleEventKind::Join)
        {
            let launch = r
                .scale_events
                .iter()
                .find(|l| l.shard == e.shard && l.kind == ScaleEventKind::Launch)
                .expect("join without launch");
            assert!(e.time_s - launch.time_s >= 0.1 - 1e-9, "warm-up skipped");
        }
        for b in &r.fleet.batch_log {
            if b.shard == 0 {
                continue;
            }
            let join = r
                .scale_events
                .iter()
                .filter(|e| e.shard == b.shard && e.kind == ScaleEventKind::Join)
                .map(|e| e.time_s)
                .next()
                .expect("batch on a shard that never joined");
            assert!(
                b.start_s >= join - 1e-9,
                "shard {} ran a batch at {} before joining at {}",
                b.shard,
                b.start_s,
                join
            );
        }
    }

    #[test]
    fn evict_reroutes_queued_work_and_conserves_requests() {
        let fleet = homogeneous_fleet(&tiny_design(64), 4);
        let trace = nonstationary_poisson_trace(&DatasetSpec::mrpc(), &burst_profile(), 500, 3);
        for retire in [RetirePolicy::Drain, RetirePolicy::Evict] {
            let r = simulate_autoscale(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                &BatcherConfig::default(),
                &AutoscaleConfig {
                    retire,
                    ..reactive_cfg(1, 4)
                },
            );
            assert_eq!(r.fleet.completed, 500, "{retire}");
            assert_eq!(
                r.fleet.shards.iter().map(|s| s.completed).sum::<usize>(),
                500,
                "{retire}"
            );
            // No batch on a shard after it retired (until a relaunch).
            for b in &r.fleet.batch_log {
                let mut allowed = true;
                for e in r.scale_events.iter().filter(|e| e.shard == b.shard) {
                    if e.time_s > b.start_s + 1e-12 {
                        break;
                    }
                    match e.kind {
                        ScaleEventKind::Retired | ScaleEventKind::Failed => allowed = false,
                        ScaleEventKind::Launch | ScaleEventKind::Join => allowed = true,
                        ScaleEventKind::RetireStart | ScaleEventKind::Recovered => {}
                    }
                }
                assert!(allowed, "{retire}: batch on retired shard {}", b.shard);
            }
        }
    }

    #[test]
    fn scheduled_policy_follows_the_table() {
        let fleet = homogeneous_fleet(&tiny_design(64), 3);
        let trace = poisson_trace(&DatasetSpec::mrpc(), 120.0, 360, 5);
        let r = simulate_autoscale(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &BatcherConfig::default(),
            &AutoscaleConfig {
                min_shards: 1,
                initial_shards: 1,
                policy: ScalePolicy::Scheduled(vec![
                    SchedulePhase {
                        start_s: 0.5,
                        shards: 3,
                    },
                    SchedulePhase {
                        start_s: 1.5,
                        shards: 1,
                    },
                ]),
                eval_interval_s: 0.1,
                warmup_s: 0.05,
                ..AutoscaleConfig::default()
            },
        );
        assert_eq!(r.fleet.completed, 360);
        let launches = r
            .scale_events
            .iter()
            .filter(|e| e.kind == ScaleEventKind::Launch)
            .count();
        let retires = r
            .scale_events
            .iter()
            .filter(|e| e.kind == ScaleEventKind::RetireStart)
            .count();
        assert_eq!(launches, 2, "table never scaled to 3");
        assert!(retires >= 2, "table never scaled back to 1");
        assert_eq!(r.peak_active_shards, 3);
    }

    #[test]
    fn slo_and_phase_accounting_consistent() {
        let fleet = homogeneous_fleet(&tiny_design(64), 2);
        let trace = poisson_trace(&DatasetSpec::rte(), 200.0, 120, 9);
        let r = simulate_autoscale(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &BatcherConfig::default(),
            &AutoscaleConfig {
                min_shards: 2,
                initial_shards: 2,
                policy: ScalePolicy::Pinned,
                slo_latency_s: 10.0, // generous: everything attains
                phase_bounds_s: vec![0.2, 0.4],
                ..AutoscaleConfig::default()
            },
        );
        assert_eq!(r.slo_attainment, 1.0);
        assert_eq!(r.phases.len(), 3);
        assert_eq!(r.phases.iter().map(|p| p.requests).sum::<usize>(), 120);
        assert!(r.phases.iter().all(|p| p.slo_attainment == 1.0));
        assert_eq!(r.phases[0].start_s, 0.0);
        assert_eq!(r.phases[2].end_s, f64::INFINITY);
    }

    #[test]
    fn utilization_target_scales_up_under_saturation() {
        // A tiny shard sustains ~78k seq/s, so saturate with a 200k seq/s
        // stream and tick fast enough to observe the busy window.
        let fleet = homogeneous_fleet(&tiny_design(64), 3);
        let trace = poisson_trace(&DatasetSpec::mrpc(), 200_000.0, 2000, 13);
        let r = simulate_autoscale(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &BatcherConfig::default(),
            &AutoscaleConfig {
                min_shards: 1,
                initial_shards: 1,
                policy: ScalePolicy::UtilizationTarget {
                    low: 0.3,
                    high: 0.85,
                },
                eval_interval_s: 0.002,
                warmup_s: 0.002,
                cooldown_s: 0.0,
                ..AutoscaleConfig::default()
            },
        );
        assert_eq!(r.fleet.completed, 2000);
        assert_eq!(r.peak_active_shards, 3, "saturation never filled the fleet");
    }

    #[test]
    fn deterministic_for_identical_inputs() {
        let fleet = homogeneous_fleet(&tiny_design(64), 4);
        let trace = nonstationary_poisson_trace(&DatasetSpec::rte(), &burst_profile(), 300, 21);
        let go = || {
            simulate_autoscale(
                &fleet,
                &trace,
                SchedulingPolicy::LengthAware,
                DispatchPolicy::JoinShortestQueue,
                &BatcherConfig::default(),
                &reactive_cfg(1, 2),
            )
        };
        assert_eq!(go(), go());
    }

    #[test]
    #[should_panic(expected = "initial_shards outside")]
    fn initial_below_min_rejected() {
        let fleet = homogeneous_fleet(&tiny_design(64), 2);
        let trace = poisson_trace(&DatasetSpec::rte(), 100.0, 10, 1);
        let _ = simulate_autoscale(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &BatcherConfig::default(),
            &AutoscaleConfig {
                min_shards: 2,
                initial_shards: 1,
                ..AutoscaleConfig::default()
            },
        );
    }

    // ───────────────────── rate forecaster ─────────────────────

    /// Feeds the forecaster the expected cumulative arrivals of `profile`
    /// sampled every `window_s` up to `horizon_s`.
    fn feed_profile(f: &mut RateForecaster, profile: &RateProfile, window_s: f64, horizon_s: f64) {
        let mut t = window_s;
        while t <= horizon_s + 1e-9 {
            f.observe(t, profile.cumulative(t).round() as usize);
            t += window_s;
        }
    }

    #[test]
    fn forecaster_converges_on_piecewise_profile() {
        // 2 s at 50/s then 400/s: after three seconds in the second
        // phase the EWMA must have converged to the new rate.
        let profile = RateProfile::Piecewise(vec![
            RatePhase {
                duration_s: 2.0,
                rate: 50.0,
            },
            RatePhase {
                duration_s: 10.0,
                rate: 400.0,
            },
        ]);
        let mut f = RateForecaster::new(0.3, None);
        feed_profile(&mut f, &profile, 0.1, 5.0);
        let est = f.rate_estimate();
        assert!(
            (est - 400.0).abs() / 400.0 < 0.1,
            "EWMA {est} not within 10% of 400"
        );
        // Without a period the forecast is the flat EWMA extrapolation.
        assert_eq!(f.forecast(9.0), est);
    }

    #[test]
    fn forecaster_harmonic_fit_tracks_diurnal_profile() {
        let profile = RateProfile::Diurnal {
            mean_rate: 100.0,
            swing: 4.0,
            period_s: 8.0,
        };
        let mut f = RateForecaster::new(0.3, Some(8.0));
        feed_profile(&mut f, &profile, 0.1, 16.0); // two full periods
        for &t in &[17.0, 18.5, 20.0, 22.0, 23.5] {
            let predicted = f.forecast(t);
            let truth = profile.rate_at(t);
            assert!(
                (predicted - truth).abs() / truth < 0.1,
                "forecast({t}) = {predicted} not within 10% of {truth}"
            );
        }
    }

    #[test]
    fn forecaster_harmonic_needs_a_full_period_of_history() {
        // Half a period of data: the fit must NOT be trusted yet — the
        // forecast falls back to the EWMA instead of extrapolating a
        // sinusoid through an under-determined history.
        let profile = RateProfile::Diurnal {
            mean_rate: 100.0,
            swing: 4.0,
            period_s: 8.0,
        };
        let mut f = RateForecaster::new(0.3, Some(8.0));
        feed_profile(&mut f, &profile, 0.1, 3.0);
        assert_eq!(f.forecast(100.0), f.rate_estimate());
    }

    #[test]
    fn forecaster_zero_arrival_windows_do_not_nan() {
        let mut f = RateForecaster::new(0.5, Some(4.0));
        for i in 1..=20 {
            f.observe(i as f64 * 0.5, 0); // dead air
        }
        assert_eq!(f.rate_estimate(), 0.0);
        let fc = f.forecast(30.0);
        assert!(fc.is_finite() && fc >= 0.0, "forecast {fc} not finite/≥0");
        // A zero-length window is folded into the next one, not divided
        // by zero.
        f.observe(10.0, 40);
        f.observe(10.0, 45);
        f.observe(10.5, 50);
        assert!(f.rate_estimate().is_finite());
        assert!(f.forecast(11.0).is_finite());
    }

    #[test]
    fn predictive_policy_scales_the_fleet_to_the_forecast() {
        // Demand ramps 40 → 150 seq/s against a declared 60 seq/s shard
        // capacity: the predictive fleet must provision ≥ 3 shards at the
        // peak and fall back towards 1 in the quiet tail, with every
        // request served.
        let fleet = homogeneous_fleet(&tiny_design(64), 4);
        let profile = RateProfile::Piecewise(vec![
            RatePhase {
                duration_s: 1.0,
                rate: 40.0,
            },
            RatePhase {
                duration_s: 2.0,
                rate: 150.0,
            },
            RatePhase {
                duration_s: 2.0,
                rate: 40.0,
            },
        ]);
        let trace = nonstationary_poisson_trace(&DatasetSpec::mrpc(), &profile, 400, 5);
        let r = simulate_autoscale(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &BatcherConfig::default(),
            &AutoscaleConfig {
                min_shards: 1,
                initial_shards: 1,
                policy: ScalePolicy::Predictive {
                    shard_capacity: 60.0,
                    horizon_s: 0.15,
                    alpha: 0.5,
                    period_s: None,
                },
                eval_interval_s: 0.05,
                warmup_s: 0.1,
                cooldown_s: 0.0,
                ..AutoscaleConfig::default()
            },
        );
        assert_eq!(r.fleet.completed, 400);
        assert!(
            r.peak_active_shards >= 3,
            "forecast never provisioned the ramp: peak {}",
            r.peak_active_shards
        );
        assert!(
            r.scale_events
                .iter()
                .any(|e| e.kind == ScaleEventKind::Retired),
            "never scaled back down after the ramp"
        );
    }

    // ───────────────────── decode autoscaling ─────────────────────

    use crate::decode::{nonstationary_decode_trace, simulate_decode};

    /// Trickle → saturating burst → trickle. A tiny 4-slot shard sustains
    /// ~48k decode seq/s, so the 200k/s burst phase dumps a backlog that
    /// takes tens of milliseconds to drain — visible across many 2 ms
    /// controller ticks.
    fn decode_burst_trace(n: usize, seed: u64) -> Vec<DecodeRequest> {
        let spec = DatasetSpec::mrpc();
        nonstationary_decode_trace(
            &spec,
            &spec.decode_output(),
            0.1,
            &RateProfile::Piecewise(vec![
                RatePhase {
                    duration_s: 0.1,
                    rate: 1000.0,
                },
                RatePhase {
                    duration_s: 0.005,
                    rate: 200_000.0,
                },
                RatePhase {
                    duration_s: 1.0,
                    rate: 1000.0,
                },
            ]),
            n,
            seed,
        )
    }

    fn decode_reactive_cfg(min: usize, initial: usize) -> DecodeAutoscaleConfig {
        DecodeAutoscaleConfig {
            min_shards: min,
            initial_shards: initial,
            policy: ScalePolicy::Reactive {
                scale_up_depth: 4.0,
                scale_down_depth: 0.5,
            },
            eval_interval_s: 0.002,
            warmup_s: 0.004,
            cooldown_s: 0.0,
            ..DecodeAutoscaleConfig::default()
        }
    }

    fn run_decode_auto(
        trace: &[DecodeRequest],
        fleet: &[AcceleratorDesign],
        cfg: &DecodeAutoscaleConfig,
        scheduler: DecodeScheduler,
    ) -> DecodeAutoscaleReport {
        simulate_decode_autoscale(
            fleet,
            trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            scheduler,
            &DecodeConfig {
                max_slots: 4,
                ttft_deadline_s: 0.25,
            },
            cfg,
        )
    }

    #[test]
    fn pinned_decode_full_fleet_reproduces_simulate_decode_bit_for_bit() {
        let fleet = homogeneous_fleet(&tiny_design(64), 3);
        let trace = decode_burst_trace(400, 42);
        let decode_cfg = DecodeConfig {
            max_slots: 4,
            ttft_deadline_s: 0.25,
        };
        let auto = simulate_decode_autoscale(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::ContinuousPreempt,
            &decode_cfg,
            &DecodeAutoscaleConfig {
                min_shards: 3,
                initial_shards: 3,
                policy: ScalePolicy::Pinned,
                ..DecodeAutoscaleConfig::default()
            },
        );
        let fixed = simulate_decode(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::ContinuousPreempt,
            &decode_cfg,
        );
        assert_eq!(auto.decode, fixed);
        assert!(auto.scale_events.is_empty());
        assert_eq!(auto.migrations, 0);
        assert_eq!(auto.peak_active_shards, 3);
        let expect = 3.0 * fixed.fleet.makespan_s;
        assert!((auto.shard_seconds - expect).abs() < 1e-9);
    }

    #[test]
    fn decode_reactive_scales_up_under_burst_and_back_down() {
        let fleet = homogeneous_fleet(&tiny_design(64), 4);
        let trace = decode_burst_trace(1400, 7);
        for scale_down in [DecodeScaleDown::Drain, DecodeScaleDown::Migrate] {
            let r = run_decode_auto(
                &trace,
                &fleet,
                &DecodeAutoscaleConfig {
                    scale_down,
                    ..decode_reactive_cfg(1, 1)
                },
                DecodeScheduler::Continuous,
            );
            assert_eq!(r.decode.fleet.completed, 1400, "{scale_down}");
            assert_eq!(
                r.decode.generated_tokens,
                trace.iter().map(|q| q.output_len as u64).sum::<u64>(),
                "{scale_down}"
            );
            assert!(
                r.peak_active_shards > 1,
                "{scale_down}: never scaled up under the burst"
            );
            assert!(
                r.scale_events
                    .iter()
                    .any(|e| e.kind == ScaleEventKind::Retired),
                "{scale_down}: never scaled back down"
            );
            assert!(r.mean_active_shards < r.peak_active_shards as f64);
        }
    }

    #[test]
    fn decode_migrate_re_prefills_evicted_residents_exactly_once() {
        // Start wide and schedule down to 1 shard mid-burst: residents
        // are mid-generation on the retiring shards, so Migrate must
        // evict them and every eviction must be matched by exactly one
        // re-prefill on a survivor. Continuous scheduling keeps deadline
        // preemptions out of the count.
        let fleet = homogeneous_fleet(&tiny_design(64), 3);
        let trace = decode_burst_trace(800, 11);
        let cfg = DecodeAutoscaleConfig {
            min_shards: 1,
            initial_shards: 3,
            policy: ScalePolicy::Scheduled(vec![SchedulePhase {
                start_s: 0.104, // mid-burst backlog: residents in flight
                shards: 1,
            }]),
            scale_down: DecodeScaleDown::Migrate,
            eval_interval_s: 0.002,
            warmup_s: 0.004,
            cooldown_s: 0.0,
            ..DecodeAutoscaleConfig::default()
        };
        let r = run_decode_auto(&trace, &fleet, &cfg, DecodeScheduler::Continuous);
        assert_eq!(r.decode.fleet.completed, 800);
        assert!(r.migrations > 0, "scale-down never caught a resident");
        assert_eq!(
            r.re_prefills, r.migrations,
            "every migrated resident re-prefills exactly once"
        );
        assert_eq!(r.decode.preemptions, 0, "continuous never preempts");
        // Token conservation survives the migrations.
        for (req, out) in trace.iter().zip(&r.decode.requests) {
            assert_eq!(out.tokens, req.output_len);
        }
        // The per-request split agrees with the totals.
        let per_req: usize = r
            .decode
            .requests
            .iter()
            .map(|q| q.re_prefills as usize)
            .sum();
        assert_eq!(per_req, r.re_prefills);
    }

    #[test]
    fn decode_migrate_releases_finished_static_residents_without_re_prefill() {
        // Static scheduling pads finished sequences in their slots until
        // the whole batch drains. A Migrate scale-down that catches such
        // a batch must evict (and re-prefill) only the residents still
        // generating — the finished ones are released, not migrated.
        // Shard 1 holds {out=1 (finished after one iteration), out=200
        // (mid-generation)} when the scheduled retire lands.
        let fleet = homogeneous_fleet(&tiny_design(64), 2);
        let mk = |output_len: usize| DecodeRequest {
            arrival_s: 0.0,
            prefill_len: 64,
            output_len,
            priority: crate::decode::Priority::Normal,
        };
        // JSQ routes in order: s0, s1, s0, s1.
        let trace = vec![mk(1), mk(1), mk(200), mk(200)];
        let r = simulate_decode_autoscale(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            DecodeScheduler::Static,
            &DecodeConfig {
                max_slots: 2,
                ttft_deadline_s: 0.25,
            },
            &DecodeAutoscaleConfig {
                min_shards: 1,
                initial_shards: 2,
                policy: ScalePolicy::Scheduled(vec![SchedulePhase {
                    start_s: 1e-4, // lands mid-batch, after the out=1 members finished
                    shards: 1,
                }]),
                scale_down: DecodeScaleDown::Migrate,
                eval_interval_s: 1e-4,
                warmup_s: 0.001,
                cooldown_s: 0.0,
                ..DecodeAutoscaleConfig::default()
            },
        );
        assert_eq!(r.decode.fleet.completed, 4);
        assert_eq!(r.decode.generated_tokens, 402);
        // Only the unfinished resident of the retired shard migrates; its
        // finished batch-mate is released with no phantom re-prefill.
        assert_eq!(r.migrations, 1, "finished padded resident was migrated");
        assert_eq!(r.re_prefills, 1);
        assert_eq!(
            r.decode.requests[1].re_prefills, 0,
            "finished request re-priced"
        );
        assert_eq!(
            r.decode.requests[3].re_prefills, 1,
            "live resident not re-prefilled"
        );
    }

    #[test]
    fn decode_drain_retires_without_re_prefills() {
        let fleet = homogeneous_fleet(&tiny_design(64), 3);
        let trace = decode_burst_trace(800, 13);
        let cfg = DecodeAutoscaleConfig {
            min_shards: 1,
            initial_shards: 3,
            policy: ScalePolicy::Scheduled(vec![SchedulePhase {
                start_s: 0.104,
                shards: 1,
            }]),
            scale_down: DecodeScaleDown::Drain,
            eval_interval_s: 0.002,
            warmup_s: 0.004,
            cooldown_s: 0.0,
            ..DecodeAutoscaleConfig::default()
        };
        let r = run_decode_auto(&trace, &fleet, &cfg, DecodeScheduler::Continuous);
        assert_eq!(r.decode.fleet.completed, 800);
        assert_eq!(r.migrations, 0, "drain never evicts");
        assert_eq!(r.re_prefills, 0, "drain pays no re-prefill");
        assert!(
            r.scale_events
                .iter()
                .any(|e| e.kind == ScaleEventKind::Retired),
            "the table scale-down never completed"
        );
        // Drained shards must not run an iteration after retiring.
        for b in &r.decode.fleet.batch_log {
            let mut allowed = true;
            for e in r.scale_events.iter().filter(|e| e.shard == b.shard) {
                if e.time_s > b.start_s + 1e-12 {
                    break;
                }
                match e.kind {
                    ScaleEventKind::Retired | ScaleEventKind::Failed => allowed = false,
                    ScaleEventKind::Launch | ScaleEventKind::Join => allowed = true,
                    ScaleEventKind::RetireStart | ScaleEventKind::Recovered => {}
                }
            }
            assert!(allowed, "iteration on retired shard {}", b.shard);
        }
    }

    #[test]
    fn decode_warmup_never_admits_work_to_a_cold_shard() {
        let fleet = homogeneous_fleet(&tiny_design(64), 4);
        let trace = decode_burst_trace(1400, 17);
        let r = run_decode_auto(
            &trace,
            &fleet,
            &decode_reactive_cfg(1, 1),
            DecodeScheduler::Continuous,
        );
        for e in r
            .scale_events
            .iter()
            .filter(|e| e.kind == ScaleEventKind::Join)
        {
            let launch = r
                .scale_events
                .iter()
                .find(|l| l.shard == e.shard && l.kind == ScaleEventKind::Launch)
                .expect("join without launch");
            assert!(e.time_s - launch.time_s >= 0.004 - 1e-9, "warm-up skipped");
        }
        for b in &r.decode.fleet.batch_log {
            if b.shard == 0 {
                continue;
            }
            let join = r
                .scale_events
                .iter()
                .filter(|e| e.shard == b.shard && e.kind == ScaleEventKind::Join)
                .map(|e| e.time_s)
                .next()
                .expect("iteration on a shard that never joined");
            assert!(
                b.start_s >= join - 1e-9,
                "shard {} ran an iteration at {} before joining at {}",
                b.shard,
                b.start_s,
                join
            );
        }
    }

    #[test]
    fn decode_predictive_autoscale_is_deterministic() {
        // Predictive scaling consumes only the simulation-time arrival
        // stream — re-running the identical inputs must be bit-identical
        // (the satellite pin: no wall-clock reads in the estimator).
        let fleet = homogeneous_fleet(&tiny_design(64), 4);
        let trace = decode_burst_trace(600, 21);
        let cfg = DecodeAutoscaleConfig {
            min_shards: 1,
            initial_shards: 1,
            policy: ScalePolicy::Predictive {
                shard_capacity: 2000.0,
                horizon_s: 0.006,
                alpha: 0.4,
                period_s: Some(0.5),
            },
            scale_down: DecodeScaleDown::Migrate,
            eval_interval_s: 0.002,
            warmup_s: 0.004,
            cooldown_s: 0.0,
            ..DecodeAutoscaleConfig::default()
        };
        let go = || run_decode_auto(&trace, &fleet, &cfg, DecodeScheduler::ContinuousPreempt);
        assert_eq!(go(), go());
    }

    #[test]
    #[should_panic(expected = "initial_shards outside")]
    fn decode_initial_below_min_rejected() {
        let fleet = homogeneous_fleet(&tiny_design(64), 2);
        let trace = decode_burst_trace(10, 1);
        let _ = run_decode_auto(
            &trace,
            &fleet,
            &DecodeAutoscaleConfig {
                min_shards: 2,
                initial_shards: 1,
                ..DecodeAutoscaleConfig::default()
            },
            DecodeScheduler::Continuous,
        );
    }

    #[test]
    #[should_panic(expected = "predictive alpha")]
    fn predictive_zero_alpha_rejected() {
        let fleet = homogeneous_fleet(&tiny_design(64), 2);
        let trace = poisson_trace(&DatasetSpec::rte(), 100.0, 10, 1);
        let _ = simulate_autoscale(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &BatcherConfig::default(),
            &AutoscaleConfig {
                policy: ScalePolicy::Predictive {
                    shard_capacity: 50.0,
                    horizon_s: 0.1,
                    alpha: 0.0,
                    period_s: None,
                },
                ..AutoscaleConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "scale_up_depth > scale_down_depth")]
    fn inverted_hysteresis_rejected() {
        let fleet = homogeneous_fleet(&tiny_design(64), 2);
        let trace = poisson_trace(&DatasetSpec::rte(), 100.0, 10, 1);
        let _ = simulate_autoscale(
            &fleet,
            &trace,
            SchedulingPolicy::LengthAware,
            DispatchPolicy::JoinShortestQueue,
            &BatcherConfig::default(),
            &AutoscaleConfig {
                policy: ScalePolicy::Reactive {
                    scale_up_depth: 1.0,
                    scale_down_depth: 4.0,
                },
                ..AutoscaleConfig::default()
            },
        );
    }
}
