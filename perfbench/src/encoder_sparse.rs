//! The functional-kernel (L0) probe, made in `sweep_grid`'s traced run: a
//! `BatchRunner` with the paper's sparse attention (1-bit pre-selection,
//! Top-30) over 16 sequences whose lengths are spread over the SQuAD v1.1
//! length distribution, on the tiny model.
//!
//! It is a probe, not a timed workload: this compute-bound batch follows
//! host contention so closely that its run-to-run spread reached the
//! widest bound the benchmark may set (see `perfbench/README.md`).

use std::cell::RefCell;

use lat_core::preselect::{preselect, PreselectConfig};
use lat_core::runtime::{BatchRunner, RunnerAttention};
use lat_core::sparse::{SparseAttention, SparseAttentionConfig};
use lat_model::attention::AttentionOp;
use lat_model::config::ModelConfig;
use lat_model::encoder::Encoder;
use lat_model::ModelError;
use lat_tensor::ops::cosine_similarity;
use lat_tensor::rng::SplitMix64;
use lat_tensor::Matrix;
use lat_workloads::datasets::DatasetSpec;

use crate::spans::Tracer;
use crate::workload::{ratio, Layers};

const BATCH: usize = 16;
/// Lengths drawn to pick the batch's lengths from.
const LENGTH_POOL: usize = 4096;
/// Mean row cosine below which the sparse outputs count as wrong — the
/// floor the operator's own encoder-level unit test pins.
const MIN_FIDELITY_COS: f64 = 0.9;

/// Pass-through attention operator: one span per call, and a copy of the
/// call's `Q` and `K` for the pre-selection replay.
struct TracedAttention<'a> {
    inner: SparseAttention,
    t: &'a Tracer,
    attended: RefCell<Vec<(Matrix, Matrix)>>,
}

impl AttentionOp for TracedAttention<'_> {
    fn attend(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> Result<Matrix, ModelError> {
        let z = self
            .t
            .span("attention.sparse", || self.inner.attend(q, k, v));
        self.attended.borrow_mut().push((q.clone(), k.clone()));
        z
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Runs the batch through `BatchRunner::run`, through the dense runner,
/// and through the unchanged encoder with [`TracedAttention`], then
/// replays the pre-selection of every attention call. The traced outputs
/// must equal `BatchRunner::run`'s bit for bit and keep a mean row cosine
/// of at least [`MIN_FIDELITY_COS`] with the dense ones.
pub fn probe(seed: u64, t: &Tracer) -> Result<Layers, String> {
    let cfg = ModelConfig::tiny();
    let mut rng = SplitMix64::new(seed);
    let encoder = Encoder::random(&cfg, &mut rng);
    // BATCH evenly spaced order statistics of LENGTH_POOL draws: a batch
    // shaped like the dataset for every seed.
    let mut pool = DatasetSpec::squad_v1().sample_batch(&mut rng, LENGTH_POOL);
    pool.sort_unstable();
    let inputs: Vec<Matrix> = (0..BATCH)
        .map(|i| {
            let len = pool[(2 * i + 1) * LENGTH_POOL / (2 * BATCH)];
            rng.gaussian_matrix(len, cfg.hidden_dim, 1.0)
        })
        .collect();
    let sparse_cfg = SparseAttentionConfig::paper_default();
    let err = |e: ModelError| e.to_string();

    let runner = BatchRunner::new(encoder.clone(), RunnerAttention::Sparse(sparse_cfg));
    let reference = t
        .span("encoder.batch_runner", || runner.run(&inputs))
        .map_err(err)?;
    let dense = t
        .span("encoder.dense_ref", || {
            BatchRunner::new(encoder, RunnerAttention::Dense).run(&inputs)
        })
        .map_err(err)?;

    // `BatchRunner::run`'s flow — decreasing length, stable on ties — with
    // the traced operator handed to the same encoder.
    let op = TracedAttention {
        inner: SparseAttention::new(sparse_cfg),
        t,
        attended: RefCell::new(Vec::new()),
    };
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    order.sort_by(|&a, &b| inputs[b].rows().cmp(&inputs[a].rows()).then(a.cmp(&b)));
    let mut outputs = vec![Matrix::zeros(0, 0); inputs.len()];
    for i in order {
        outputs[i] = t
            .span("encoder.forward", || {
                runner.encoder().forward(&inputs[i], &op)
            })
            .map_err(err)?;
    }
    if outputs != reference.outputs {
        return Err("traced encoder outputs differ from BatchRunner::run".into());
    }
    if !outputs
        .iter()
        .all(|m| m.as_slice().iter().all(|v| v.is_finite()))
    {
        return Err("non-finite encoder output".into());
    }

    let (mut cos, mut rows) = (0.0, 0usize);
    for (s, d) in outputs.iter().zip(&dense.outputs) {
        for i in 0..s.rows() {
            cos += f64::from(cosine_similarity(s.row(i), d.row(i)));
            rows += 1;
        }
    }
    let fidelity = ratio(cos, rows as f64);
    if fidelity.is_nan() || fidelity < MIN_FIDELITY_COS {
        return Err(format!(
            "sparse vs dense mean row cosine {fidelity} below {MIN_FIDELITY_COS}"
        ));
    }

    let pcfg = PreselectConfig {
        bits: sparse_cfg.bits,
        k: sparse_cfg.k,
    };
    let attended = op.attended.into_inner();
    t.span("attention.preselect_replay", || {
        attended.iter().try_for_each(|(q, k)| {
            std::hint::black_box(preselect(q, k, pcfg)?);
            Ok(())
        })
    })
    .map_err(err)?;

    let forward_s = t.total_s("encoder.forward");
    let sparse_s = t.total_s("attention.sparse");
    Ok(vec![
        ("encoder.forward_s", forward_s),
        (
            "encoder.tokens_per_s",
            ratio(reference.tokens as f64, forward_s),
        ),
        ("encoder.dense_ref_s", t.total_s("encoder.dense_ref")),
        ("encoder.fidelity_cos", fidelity),
        ("attention.calls", t.count("attention.sparse") as f64),
        ("attention.sparse_s", sparse_s),
        (
            "attention.preselect_s",
            t.total_s("attention.preselect_replay"),
        ),
        ("attention.share", ratio(sparse_s, forward_s)),
    ])
}
