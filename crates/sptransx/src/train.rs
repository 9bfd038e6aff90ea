//! The training loop, with the paper's instrumentation built in.

use std::time::{Duration, Instant};

use kg::eval::{
    evaluate, evaluate_batched, BatchScorer, EvalConfig, LinkPredictionReport, TripleScorer,
};
use kg::{BatchPlan, BernoulliSampler, Dataset, UniformSampler};
use tensor::optim::{Optimizer, StepLr};
use tensor::{memory, Graph};
use xparallel::PoolHandle;

use crate::model::{KgeModel, OptimizerKind, SamplerKind, TrainConfig};
use crate::Result;

/// Accumulated wall-clock time of the three training phases the paper
/// breaks out (Table 1, Figure 8).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Loss computation (graph construction + forward kernels).
    pub forward: Duration,
    /// Gradient computation (reverse tape replay).
    pub backward: Duration,
    /// Optimizer parameter update.
    pub step: Duration,
}

impl Breakdown {
    /// Sum of all phases.
    pub fn total(&self) -> Duration {
        self.forward + self.backward + self.step
    }
}

impl std::ops::Add for Breakdown {
    type Output = Breakdown;
    fn add(self, rhs: Self) -> Breakdown {
        Breakdown {
            forward: self.forward + rhs.forward,
            backward: self.backward + rhs.backward,
            step: self.step + rhs.step,
        }
    }
}

/// Everything measured during one training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean batch loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Forward/backward/step time totals.
    pub breakdown: Breakdown,
    /// Total wall-clock time.
    pub wall: Duration,
    /// Peak tensor memory (bytes) above the pre-training baseline — the
    /// paper's CUDA-memory analog (Table 5).
    pub peak_memory_bytes: u64,
    /// FLOPs recorded by instrumented kernels during the run (Table 6).
    pub flops: u64,
    /// SpMM kernel invocations during the run.
    pub spmm_calls: u64,
}

/// Drives a [`KgeModel`] over a [`BatchPlan`] with margin-ranking loss and
/// the configured optimizer ([`crate::OptimizerKind`], default SGD),
/// recording the paper's metrics.
///
/// The gradient plumbing is **row-sparse end to end** (the touched-row
/// contract, see `tensor::ParamStore`): per batch, zeroing, backward
/// scatters and the SGD/Adagrad update walk only the rows the batch
/// touches, so step cost is `O(batch · d)` regardless of entity count.
/// `TrainConfig::dense_grads` restores the dense sweeps (bit-identical,
/// just `O(N · d)`) for ablation.
///
/// # Examples
///
/// ```
/// use kg::synthetic::SyntheticKgBuilder;
/// use sptransx::{SpTransE, TrainConfig, Trainer};
///
/// # fn main() -> Result<(), sptransx::Error> {
/// let ds = SyntheticKgBuilder::new(60, 4).triples(400).seed(8).build();
/// let config = TrainConfig { epochs: 2, batch_size: 128, dim: 8, lr: 0.05, ..Default::default() };
/// let mut trainer = Trainer::new(SpTransE::from_config(&ds, &config)?, &ds, &config)?;
/// let report = trainer.run()?;
/// assert_eq!(report.epoch_losses.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Trainer<M: KgeModel> {
    model: M,
    config: TrainConfig,
    num_batches: usize,
    optimizer: Box<dyn Optimizer>,
    /// The built-in optimizer in use when it keeps dense per-row state
    /// (Adagrad, Adam) and therefore cannot step a paged parameter; `None`
    /// for SGD and for custom optimizers, which answer for themselves.
    dense_row_state: Option<OptimizerKind>,
    scheduler: Option<StepLr>,
    pool: PoolHandle,
    /// One long-lived tape, [`Graph::reset`] per batch: its arena serves
    /// every buffer of the steady-state step, so training performs zero
    /// tensor-buffer heap allocations after the first batch.
    graph: Graph,
}

impl<M: KgeModel> Trainer<M> {
    /// Builds the batch plan from `dataset.train` (pre-generating negatives
    /// per §5.3), attaches it to the model, and prepares the optimizer.
    ///
    /// # Errors
    ///
    /// Returns configuration or index errors from plan construction.
    pub fn new(model: M, dataset: &Dataset, config: &TrainConfig) -> Result<Self> {
        config.validate()?;
        let known = dataset.all_known();
        let plan = match config.sampler {
            SamplerKind::Uniform => {
                let sampler = UniformSampler::new(dataset.num_entities.max(2));
                BatchPlan::build(
                    &dataset.train,
                    &known,
                    &sampler,
                    config.batch_size,
                    config.seed,
                )
            }
            SamplerKind::Bernoulli => {
                let sampler = BernoulliSampler::fit(&dataset.train, dataset.num_entities.max(2));
                BatchPlan::build(
                    &dataset.train,
                    &known,
                    &sampler,
                    config.batch_size,
                    config.seed,
                )
            }
        };
        Self::with_plan(model, plan, config)
    }

    /// Like [`Trainer::new`] but with a caller-provided plan (used by the
    /// data-parallel driver and the benches).
    ///
    /// # Errors
    ///
    /// Returns errors from [`KgeModel::attach_plan`].
    pub fn with_plan(mut model: M, plan: BatchPlan, config: &TrainConfig) -> Result<Self> {
        config.validate()?;
        model.attach_plan(&plan)?;
        // The dense-gradient ablation switch: forces every touched-row
        // sweep (zeroing, backward scatters, optimizer, all-reduce) onto
        // its full-table path. Bit-identical to the sparse walks.
        model.store_mut().set_dense_grads(config.dense_grads);
        let scheduler = config
            .lr_schedule
            .map(|(step, gamma)| StepLr::new(config.lr, step, gamma));
        let mut graph = Graph::new();
        graph.set_fused(config.fused);
        Ok(Self {
            num_batches: plan.num_batches(),
            model,
            config: config.clone(),
            optimizer: config.optimizer.build(config.lr),
            dense_row_state: (config.optimizer != OptimizerKind::Sgd).then_some(config.optimizer),
            scheduler,
            pool: PoolHandle::global(),
            graph,
        })
    }

    /// Dispatches the whole training step — forward kernels, backward
    /// closures, and optimizer updates — on an explicit pool handle.
    ///
    /// The step is bit-identical at any handle width (see `tensor::Graph`),
    /// so this knob trades wall-clock only: `PoolHandle::sequential()` is
    /// the serial baseline, pinned widths reproduce a wide machine's
    /// schedule on a narrow one.
    #[must_use]
    pub fn with_pool(mut self, pool: PoolHandle) -> Self {
        self.optimizer.set_pool(&pool);
        self.graph = Graph::with_pool(pool.clone());
        self.graph.set_fused(self.config.fused);
        self.pool = pool;
        self
    }

    /// Replaces the optimizer (keeping the configured schedule, which acts
    /// through [`tensor::optim::Optimizer::set_learning_rate`]). Prefer
    /// [`TrainConfig::optimizer`]; this hook exists for custom
    /// implementations.
    #[must_use]
    pub fn with_optimizer(mut self, optimizer: impl Optimizer + 'static) -> Self {
        self.optimizer = Box::new(optimizer);
        self.optimizer.set_pool(&self.pool);
        self.dense_row_state = None;
        self
    }

    /// Borrows the optimizer (e.g. to inspect the scheduled learning rate).
    pub fn optimizer(&self) -> &dyn Optimizer {
        self.optimizer.as_ref()
    }

    /// Runs the configured number of epochs.
    ///
    /// # Errors
    ///
    /// See [`Trainer::run_epochs`].
    pub fn run(&mut self) -> Result<TrainReport> {
        self.run_epochs(self.config.epochs)
    }

    /// Runs exactly `epochs` epochs (callers can interleave evaluation).
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Config`] if the attached plan has no batches
    /// (a 0-batch epoch would otherwise silently report loss 0), or if a
    /// parameter is paged out while the optimizer is Adagrad or Adam (their
    /// per-row state is a dense table the row cache cannot page).
    pub fn run_epochs(&mut self, epochs: usize) -> Result<TrainReport> {
        if self.num_batches == 0 {
            return Err(crate::Error::config(
                "batch plan has no batches (empty training set?); refusing to report 0-batch epochs as loss 0",
            ));
        }
        if let Some(kind) = self
            .dense_row_state
            .filter(|_| self.model.store().has_paged())
        {
            return Err(crate::Error::config(format!(
                "{kind:?} does not support paged parameters; use SGD with --store disk"
            )));
        }
        let wall_start = Instant::now();
        let mem_scope = memory::MemoryScope::start();
        let metrics_before = sparse::metrics::snapshot();
        let mut breakdown = Breakdown::default();
        let mut epoch_losses = Vec::with_capacity(epochs);

        for epoch in 0..epochs {
            if let Some(sched) = &self.scheduler {
                sched.apply(self.optimizer.as_mut(), epoch as u32);
            }
            let mut loss_sum = 0f64;
            for b in 0..self.num_batches {
                self.model.store_mut().zero_grads();
                // Out-of-core models pin this batch's working set in the
                // row cache here; fully resident models no-op.
                self.model.page_in_batch(b)?;

                let t0 = Instant::now();
                // Reset (not rebuild) the tape: node buffers recycle through
                // the graph's arena, so the steady-state step never touches
                // the allocator (see `tensor::Arena`).
                self.graph.reset();
                let (pos, neg) = self.model.score_batch(&mut self.graph, b);
                let loss = self.graph.margin_ranking_loss(pos, neg, self.config.margin);
                breakdown.forward += t0.elapsed();
                loss_sum += f64::from(self.graph.value(loss).get(0, 0));

                let t1 = Instant::now();
                self.graph.backward(loss, self.model.store_mut());
                breakdown.backward += t1.elapsed();

                let t2 = Instant::now();
                self.optimizer.step(self.model.store_mut());
                breakdown.step += t2.elapsed();
            }
            self.model.end_epoch();
            epoch_losses.push((loss_sum / self.num_batches as f64) as f32);
        }

        let delta = sparse::metrics::snapshot() - metrics_before;
        Ok(TrainReport {
            epoch_losses,
            breakdown,
            wall: wall_start.elapsed(),
            peak_memory_bytes: mem_scope.peak_delta_bytes(),
            flops: delta.flops,
            spmm_calls: delta.spmm_calls,
        })
    }

    /// Runs filtered link-prediction evaluation through the scalar
    /// per-query path (requires a scoring model).
    ///
    /// Prefer [`Trainer::evaluate_batched`] — all built-in models implement
    /// [`BatchScorer`] natively; this entry point is kept for custom models
    /// that only implement the scalar [`TripleScorer`].
    pub fn evaluate(&self, dataset: &Dataset, eval: &EvalConfig) -> LinkPredictionReport
    where
        M: TripleScorer,
    {
        evaluate(&self.model, &dataset.test, &dataset.all_known(), eval)
    }

    /// Runs filtered link-prediction evaluation through the batched,
    /// pool-parallel engine: chunked scoring into reused buffers plus
    /// parallel ranking, producing bit-identical metrics to
    /// [`Trainer::evaluate`] (see `kg::eval`).
    pub fn evaluate_batched(&self, dataset: &Dataset, eval: &EvalConfig) -> LinkPredictionReport
    where
        M: BatchScorer,
    {
        evaluate_batched(&self.model, &dataset.test, &dataset.all_known(), eval)
    }

    /// Borrows the persistent tape (e.g. for arena recycling statistics).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Borrows the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutably borrows the model.
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consumes the trainer, returning the trained model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// The effective number of batches per epoch.
    pub fn num_batches(&self) -> usize {
        self.num_batches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DenseTransE, SpDistMult, SpTorusE, SpTransE, SpTransH, SpTransR};
    use kg::synthetic::SyntheticKgBuilder;

    fn dataset() -> Dataset {
        SyntheticKgBuilder::new(60, 5).triples(500).seed(30).build()
    }

    fn fast_config() -> TrainConfig {
        TrainConfig {
            epochs: 4,
            batch_size: 128,
            dim: 12,
            rel_dim: 6,
            lr: 0.05,
            ..Default::default()
        }
    }

    #[test]
    fn transe_loss_decreases() {
        let ds = dataset();
        let cfg = fast_config();
        let mut t = Trainer::new(SpTransE::from_config(&ds, &cfg).unwrap(), &ds, &cfg).unwrap();
        let report = t.run().unwrap();
        assert!(report.epoch_losses.last().unwrap() < report.epoch_losses.first().unwrap());
        assert!(report.flops > 0);
        assert!(report.spmm_calls > 0);
        assert!(report.peak_memory_bytes > 0);
        assert!(report.breakdown.total() <= report.wall + Duration::from_millis(50));
    }

    #[test]
    fn all_sparse_models_train() {
        let ds = dataset();
        let cfg = fast_config();
        macro_rules! check {
            ($model:expr) => {{
                let mut t = Trainer::new($model, &ds, &cfg).unwrap();
                let report = t.run().unwrap();
                assert!(
                    report.epoch_losses.last().unwrap() <= report.epoch_losses.first().unwrap(),
                    "loss should not increase"
                );
            }};
        }
        check!(SpTransE::from_config(&ds, &cfg).unwrap());
        check!(SpTorusE::from_config(&ds, &cfg).unwrap());
        check!(SpTransR::from_config(&ds, &cfg).unwrap());
        check!(SpTransH::from_config(&ds, &cfg).unwrap());
        check!(SpDistMult::from_config(&ds, &cfg).unwrap());
    }

    #[test]
    fn sparse_and_dense_trainers_converge_identically() {
        // Same init, same plan seed, same optimizer: the loss trajectories
        // must match closely (accuracy parity, paper §6.2.5).
        let ds = dataset();
        let cfg = fast_config();
        let mut ts = Trainer::new(SpTransE::from_config(&ds, &cfg).unwrap(), &ds, &cfg).unwrap();
        let rs = ts.run().unwrap();
        let mut td = Trainer::new(DenseTransE::from_config(&ds, &cfg).unwrap(), &ds, &cfg).unwrap();
        let rd = td.run().unwrap();
        for (a, b) in rs.epoch_losses.iter().zip(&rd.epoch_losses) {
            assert!((a - b).abs() < 1e-3, "sparse {a} vs dense {b}");
        }
    }

    #[test]
    fn bernoulli_sampler_path_works() {
        let ds = dataset();
        let cfg = TrainConfig {
            sampler: SamplerKind::Bernoulli,
            ..fast_config()
        };
        let mut t = Trainer::new(SpTransE::from_config(&ds, &cfg).unwrap(), &ds, &cfg).unwrap();
        assert!(t.run().is_ok());
    }

    #[test]
    fn lr_schedule_is_applied() {
        let ds = dataset();
        let cfg = TrainConfig {
            lr_schedule: Some((1, 0.5)),
            epochs: 3,
            ..fast_config()
        };
        let mut t = Trainer::new(SpTransE::from_config(&ds, &cfg).unwrap(), &ds, &cfg).unwrap();
        t.run().unwrap();
        // After 3 epochs with step=1, gamma=0.5: lr = base * 0.25.
        assert!((t.optimizer.learning_rate() - cfg.lr * 0.25).abs() < 1e-9);
    }

    #[test]
    fn evaluation_protocol_runs() {
        let ds = dataset();
        let cfg = fast_config();
        let mut t = Trainer::new(SpTransE::from_config(&ds, &cfg).unwrap(), &ds, &cfg).unwrap();
        t.run().unwrap();
        let report = t.evaluate(&ds, &EvalConfig::default());
        assert_eq!(report.queries, 2 * ds.test.len());
        assert!(report.mrr > 0.0 && report.mrr <= 1.0);
        for h in &report.hits_at {
            assert!((0.0..=1.0).contains(h));
        }
    }

    #[test]
    fn batched_evaluation_matches_scalar_after_training() {
        let ds = dataset();
        let cfg = fast_config();
        let mut t = Trainer::new(SpTransE::from_config(&ds, &cfg).unwrap(), &ds, &cfg).unwrap();
        t.run().unwrap();
        let eval = EvalConfig::default();
        // Bit-identical: both paths share the ranking engine, and the native
        // BatchScorer reproduces the scalar arithmetic exactly.
        assert_eq!(t.evaluate(&ds, &eval), t.evaluate_batched(&ds, &eval));
    }
}
