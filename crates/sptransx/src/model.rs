//! The shared model interface and training configuration.

use kg::BatchPlan;
use tensor::{Graph, ParamStore, Var};

use crate::distributed::Combine;
use crate::Result;

/// Distance metric applied to the translated expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Norm {
    /// Manhattan distance.
    L1,
    /// Euclidean distance (the paper's default, §5.3).
    #[default]
    L2,
    /// Wraparound L1 distance on the unit torus (TorusE).
    TorusL1,
    /// Squared wraparound L2 distance on the unit torus (TorusE).
    TorusL2,
}

impl Norm {
    /// Applies this norm row-wise on the tape, producing `(m, 1)` scores.
    pub fn apply(self, g: &mut Graph, expr: Var) -> Var {
        g.score_rows(expr, self.row_score())
    }

    /// This norm as the tape's row score, for [`Graph::score_rows`] over a
    /// materialized expression and `Graph::spmm_score` over an incidence
    /// SpMM alike.
    pub fn row_score(self) -> tensor::RowScore {
        match self {
            Norm::L1 => tensor::RowScore::L1,
            Norm::L2 => tensor::RowScore::L2 { eps: 1e-9 },
            Norm::TorusL1 => tensor::RowScore::TorusL1,
            Norm::TorusL2 => tensor::RowScore::TorusL2Sq,
        }
    }

    /// Distance between two raw vectors: the tape's own row score of `a − b`,
    /// so evaluation and serving rank with the arithmetic training optimized.
    #[inline]
    pub fn distance(self, a: &[f32], b: &[f32]) -> f32 {
        self.row_score().distance(a, b)
    }
}

/// Negative-sampling strategy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplerKind {
    /// Uniform head/tail corruption (TransE's scheme).
    #[default]
    Uniform,
    /// Relation-statistics-weighted corruption (TransH's scheme).
    Bernoulli,
}

/// Optimizer selector, wired from [`TrainConfig`] through [`crate::Trainer`]
/// (one instance per replica) down to `sptx train --optimizer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptimizerKind {
    /// Plain SGD (the paper's optimizer, §5.3). Touched-row sparse step.
    #[default]
    Sgd,
    /// Adagrad. Touched-row sparse step.
    Adagrad,
    /// Adam. **Always dense**: its moments decay on zero gradients, so the
    /// touched-row fast path does not apply (see `tensor::optim::Adam`).
    Adam,
}

impl OptimizerKind {
    /// Instantiates the optimizer at learning rate `lr`.
    pub fn build(self, lr: f32) -> Box<dyn tensor::optim::Optimizer + Send> {
        match self {
            OptimizerKind::Sgd => Box::new(tensor::optim::Sgd::new(lr)),
            OptimizerKind::Adagrad => Box::new(tensor::optim::Adagrad::new(lr)),
            OptimizerKind::Adam => Box::new(tensor::optim::Adam::new(lr)),
        }
    }
}

/// Hyperparameters shared by all models and the trainer.
///
/// Defaults follow the paper's training configuration (§5.3): learning rate
/// `4e-4`, margin `0.5`, L2 dissimilarity, margin-ranking loss. Batch size
/// and dimensions are scaled-down defaults; the benchmark harnesses override
/// them per experiment (Table 4).
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Positive triples per mini-batch.
    pub batch_size: usize,
    /// Entity embedding dimension.
    pub dim: usize,
    /// Relation-space dimension (TransR projections; TransH relation vectors
    /// use `dim`).
    pub rel_dim: usize,
    /// Learning rate.
    pub lr: f32,
    /// Margin of the ranking loss.
    pub margin: f32,
    /// Dissimilarity function.
    pub norm: Norm,
    /// Negative sampler.
    pub sampler: SamplerKind,
    /// RNG seed for init, shuffling and sampling.
    pub seed: u64,
    /// Optional step LR schedule `(step_epochs, gamma)` (Appendix E).
    pub lr_schedule: Option<(u32, f32)>,
    /// Optimizer driving the parameter update.
    pub optimizer: OptimizerKind,
    /// Forces every gradient sweep dense (`ParamStore::set_dense_grads`) —
    /// the ablation arm of the touched-row contract. Also forces the epoch
    /// renormalization sweeps dense, so this arm measures the full
    /// `O(N · d)` baseline. Training is bit-identical either way; only the
    /// per-batch and per-epoch cost changes from `O(batch · d)` to
    /// `O(N · d)`.
    pub dense_grads: bool,
    /// Uses the fused gather+distance and loss+backward-seed kernels
    /// (`Graph::set_fused`). On by default; the unfused arm materializes
    /// every intermediate and is bit-identical — it exists for ablation and
    /// the fused-kernel property tests.
    pub fused: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 5,
            batch_size: 1024,
            dim: 32,
            rel_dim: 16,
            lr: 4e-4,
            margin: 0.5,
            norm: Norm::L2,
            sampler: SamplerKind::Uniform,
            seed: 42,
            lr_schedule: None,
            optimizer: OptimizerKind::Sgd,
            dense_grads: false,
            fused: true,
        }
    }
}

impl TrainConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Config`] for zero sizes and for a learning
    /// rate or margin that is out of range or not finite (`NaN` fails every
    /// comparison, so the checks are written as what must hold).
    pub fn validate(&self) -> Result<()> {
        if self.epochs == 0 {
            return Err(crate::Error::config("epochs must be positive"));
        }
        if self.batch_size == 0 {
            return Err(crate::Error::config("batch_size must be positive"));
        }
        if self.dim == 0 || self.rel_dim == 0 {
            return Err(crate::Error::config(
                "embedding dimensions must be positive",
            ));
        }
        if !(self.lr.is_finite() && self.lr > 0.0) {
            return Err(crate::Error::config(format!(
                "learning rate (--lr) must be positive and finite, got {}",
                self.lr
            )));
        }
        if !(self.margin.is_finite() && self.margin >= 0.0) {
            return Err(crate::Error::config(format!(
                "margin (--margin) must be non-negative and finite, got {}",
                self.margin
            )));
        }
        Ok(())
    }
}

/// One training arm: the facts that decide whether a run is legal.
/// [`crate::Trainer::run_epochs`] checks the arm it observes before the first
/// batch; `sptx train` checks the arm it parsed before loading any data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arm {
    /// A parameter table is paged out to backing storage (`--store disk`).
    pub paged: bool,
    /// [`TrainConfig::optimizer`].
    pub optimizer: OptimizerKind,
    /// [`TrainConfig::dense_grads`].
    pub dense_grads: bool,
    /// [`TrainConfig::fused`]. No rule reads it — both tapes run on every
    /// arm — but a report names the arm that produced its numbers.
    pub fused: bool,
    /// Replicas training (1 for [`crate::Trainer::new`]).
    pub workers: usize,
    /// How the replicas' updates meet; immaterial at one worker.
    pub combine: Combine,
}

impl Arm {
    /// The one place that knows which combinations train correctly: five
    /// rules, in order. Below it are only the tensor layer's last-resort
    /// asserts.
    ///
    /// # Errors
    ///
    /// [`crate::Error::Config`] stating the first rule the arm breaks.
    pub fn check(&self) -> Result<()> {
        let sgd = self.optimizer == OptimizerKind::Sgd;
        let replicated = self.workers >= 2;
        let racing = replicated && self.combine == Combine::Shared;
        let rules = [
            (
                self.paged && !sgd,
                "--store disk requires --optimizer sgd: Adagrad and Adam do not support paged \
                 parameters (they keep dense per-row state the row cache cannot page)",
            ),
            (
                self.paged && self.dense_grads,
                "--store disk needs the sparse touched-row gradient path (a paged table keeps \
                 gradients for its cached rows only); drop --dense-grads true",
            ),
            (
                self.paged && replicated,
                "two or more replicas (data-parallel, or --async true workers) are incompatible \
                 with --store disk: a row cache serves one store, and can be neither all-reduced \
                 nor shared lock-free; train with one replica, or use --store ram",
            ),
            (
                racing && !sgd,
                "--async true with 2+ workers supports only --optimizer sgd: stateless \
                 scaled-add updates are what make lock-free row collisions benign (a lost \
                 increment), while adagrad/adam accumulators have read-modify-write dependencies \
                 that corrupt state under races; use the synchronous arm for stateful optimizers",
            ),
            (
                racing && self.dense_grads,
                "--async true with 2+ workers requires sparse (touched-row) gradients: the dense \
                 step rewrites every table row from a stale read, destroying concurrent updates \
                 to rows this worker never touched; drop --dense-grads true or use the \
                 synchronous arm",
            ),
        ];
        match rules.iter().find(|(broken, _)| *broken) {
            Some(&(_, why)) => Err(crate::Error::config(why)),
            None => Ok(()),
        }
    }
}

/// A trainable knowledge-graph embedding model.
///
/// Models own their parameters (a [`ParamStore`]) and any per-batch cached
/// structures (incidence matrices for the sparse variants, index arrays for
/// the dense baselines). The [`crate::Trainer`] drives the protocol:
///
/// 1. [`attach_plan`](KgeModel::attach_plan) once per training run;
/// 2. per batch: build a fresh [`Graph`], call
///    [`score_batch`](KgeModel::score_batch), take the margin loss, run
///    backward, step the optimizer;
/// 3. [`end_epoch`](KgeModel::end_epoch) applies model constraints (entity
///    normalization, hyperplane unit norms).
pub trait KgeModel {
    /// Short model name (e.g. `"SpTransE"`).
    fn name(&self) -> &'static str;

    /// Borrows the parameter store.
    fn store(&self) -> &ParamStore;

    /// Mutably borrows the parameter store.
    fn store_mut(&mut self) -> &mut ParamStore;

    /// Pre-computes cached structures for every batch of `plan`. Replaces
    /// any previously attached plan.
    ///
    /// # Errors
    ///
    /// Returns an error if the plan references out-of-range indices.
    fn attach_plan(&mut self, plan: &BatchPlan) -> Result<()>;

    /// Number of batches in the attached plan (0 before attachment).
    fn num_batches(&self) -> usize;

    /// Builds the forward graph for attached batch `batch_idx`, returning
    /// `(positive_scores, negative_scores)` as `(m, 1)` distance columns.
    ///
    /// # Panics
    ///
    /// Panics if `batch_idx >= num_batches()`.
    fn score_batch(&self, g: &mut Graph, batch_idx: usize) -> (Var, Var);

    /// Pages in the rows batch `batch_idx` will touch. The contract: a model
    /// whose table is paged out to a [`tensor::RowStorage`] pages each
    /// batch's rows in here. The batch's working set is known up front from
    /// its cached incidence/index lists — the sparsity premise that makes
    /// demand paging possible — so the trainer calls this before
    /// [`score_batch`](KgeModel::score_batch). With every table resident it
    /// changes nothing.
    ///
    /// # Errors
    ///
    /// Returns an error if the working set exceeds the cache budget or the
    /// backing store fails.
    fn page_in_batch(&mut self, batch_idx: usize) -> Result<()>;

    /// Applies per-epoch parameter constraints. Default: none.
    fn end_epoch(&mut self) {}
}

/// Rows whose L2 norm is already within this tolerance of 1.0 are unit-norm
/// at f32 working precision and renormalization skips them.
///
/// This makes the normalize map **idempotent**: one application lands every
/// row within a few ulps of unit norm (measured ≤ 4 ulps up to `d = 256`;
/// the tolerance is ~8 ulps), so the second application is a guaranteed
/// no-op. Without the band, `x ↦ x · (1/‖x‖)` settles into a bitwise
/// period-2 oscillation for ~16% of already-normalized rows — last-ulp
/// jitter with no modeling content that would keep those rows in the dirty
/// set forever and put an `O(N)` floor under the per-epoch sweep.
pub(crate) const UNIT_NORM_TOL: f32 = 1e-6;

/// Normalizes the first `n` rows of a parameter to unit L2 norm in place —
/// the entity-embedding constraint of TransE/TransH.
///
/// Walks only the parameter's **dirty rows** (rows the optimizer stepped
/// since the last sweep, plus rows whose last renormalization changed
/// bits), so the per-epoch cost is `O(touched · d)` rather than `O(N · d)`.
/// Bit-identical to the dense sweep: a row leaves the dirty set only when
/// renormalizing it was a bitwise no-op, i.e. when it is a fixed point
/// (already unit-norm within [`UNIT_NORM_TOL`]) that the dense sweep would
/// also leave untouched. Rows at index `≥ n` (relation rows in a stacked
/// parameter) are outside this constraint and are simply dropped from the
/// set; the optimizer re-marks them on the next touch.
pub(crate) fn normalize_leading_rows(store: &mut ParamStore, id: tensor::ParamId, n: usize) {
    // `param_shape` reports the logical shape even when the parameter is
    // paged out (where `value()` would be the slot cache, not the table).
    let (rows, cols) = store.param_shape(id);
    let n = n.min(rows);
    store.for_dirty_rows(id, |idx, row| {
        if idx >= n || cols == 0 {
            return false;
        }
        let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt();
        let mut changed = false;
        if norm > 1e-12 && (norm - 1.0).abs() > UNIT_NORM_TOL {
            let inv = 1.0 / norm;
            for x in row {
                let y = *x * inv;
                changed |= y.to_bits() != x.to_bits();
                *x = y;
            }
        }
        changed
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_distances() {
        let a = [1.0, 2.0];
        let b = [0.0, 0.0];
        assert_eq!(Norm::L1.distance(&a, &b), 3.0);
        assert!((Norm::L2.distance(&a, &b) - 5f32.sqrt()).abs() < 1e-6);
        // Torus: differences 1.0 and 2.0 are both 0 on the unit torus.
        assert!(Norm::TorusL1.distance(&a, &b).abs() < 1e-6);
        assert!(Norm::TorusL2.distance(&[0.25, 0.0], &[0.0, 0.0]) - 0.0625 < 1e-6);
    }

    #[test]
    fn config_validation() {
        assert!(TrainConfig::default().validate().is_ok());
        let bad = TrainConfig {
            epochs: 0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = TrainConfig {
            lr: 0.0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = TrainConfig {
            margin: -1.0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = TrainConfig {
            dim: 0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn config_validation_rejects_non_finite_hyperparameters() {
        // `NaN < 0.0` and `inf < 0.0` are both false: a range check written
        // as "reject what is below" lets all three through.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let lr = TrainConfig {
                lr: bad,
                ..Default::default()
            };
            let margin = TrainConfig {
                margin: bad,
                ..Default::default()
            };
            for (cfg, flag) in [(lr, "--lr"), (margin, "--margin")] {
                match cfg.validate() {
                    Err(crate::Error::Config { context }) => {
                        assert!(context.contains(flag), "{flag} = {bad}: {context}")
                    }
                    other => panic!("{flag} = {bad} passed validation: {other:?}"),
                }
            }
        }
        let zero_margin = TrainConfig {
            margin: 0.0,
            ..Default::default()
        };
        assert!(zero_margin.validate().is_ok());
    }

    #[test]
    fn normalize_leading_rows_only() {
        let mut store = ParamStore::new();
        let p = store.add_param("e", tensor::Tensor::from_rows(&[[3.0, 4.0], [10.0, 0.0]]));
        normalize_leading_rows(&mut store, p, 1);
        assert!((store.value(p).get(0, 0) - 0.6).abs() < 1e-6);
        assert_eq!(store.value(p).get(1, 0), 10.0); // untouched
    }
}
