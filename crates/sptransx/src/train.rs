//! The training loop, with the paper's instrumentation built in.

use std::time::{Duration, Instant};

use kg::eval::{
    evaluate, evaluate_batched, BatchScorer, EvalConfig, LinkPredictionReport, TripleScorer,
};
use kg::{BatchPlan, BernoulliSampler, Dataset, NegativeSampler, UniformSampler};
use tensor::optim::{Optimizer, StepLr};
use tensor::{memory, Graph};
use xparallel::PoolHandle;

use crate::distributed::{fold_dirty_rows, Combine, Reducer};
use crate::model::{Arm, KgeModel, SamplerKind, TrainConfig};
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
    /// Mean batch loss per epoch (over every replica's batches).
    pub epoch_losses: Vec<f32>,
    /// Forward/backward/step time totals of rank 0.
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
    /// Replicas that trained (1 for [`Trainer::new`]).
    pub workers: usize,
    /// Parameter updates applied: one per batch — under [`Combine::Shared`]
    /// every worker's step lands in the shared tables — but one per round
    /// under [`Combine::AllReduce`].
    pub steps: usize,
}

/// One gradient worker: the model, its tape, optimizer, shard size and the
/// accumulators the trainer collects. With two or more replicas every
/// replica's value tensors alias rank 0's, whatever the [`Combine`];
/// gradients, row sets and everything else here stay private to the replica,
/// which is what lets a schedule hand each one to its own pool task. Under
/// [`Combine::AllReduce`] that is race-free: the concurrent phase only reads
/// the values, and rank 0 writes them after the join.
#[derive(Debug)]
pub(crate) struct Replica<M> {
    pub(crate) model: M,
    /// One long-lived tape, [`Graph::reset`] per batch: its arena serves
    /// every buffer of the steady-state step, so training performs zero
    /// tensor-buffer heap allocations after the first batch.
    graph: Graph,
    /// Steps the shared values: rank 0's alone under [`Combine::AllReduce`]
    /// (so Adagrad and Adam keep one state, as on one replica), every
    /// worker's own stateless SGD under [`Combine::Shared`].
    optimizer: Box<dyn Optimizer + Send>,
    num_batches: usize,
    loss_sum: f64,
    loss_count: usize,
    breakdown: Breakdown,
    /// This replica's place in rank order, when two or more train (it names
    /// the replica in a divergence error).
    rank: Option<usize>,
    /// What this replica's last fan-out task returned (a pool task cannot
    /// return it directly).
    outcome: Result<()>,
}

impl<M: KgeModel> Replica<M> {
    fn new(mut model: M, plan: &BatchPlan, config: &TrainConfig) -> Result<Self> {
        model.attach_plan(plan)?;
        // The dense-gradient ablation switch: puts every touched-row set in
        // the all-rows state, so the same sweeps (zeroing, backward scatters,
        // optimizer, all-reduce) visit the full table. Bit-identical. The store
        // asserts if asked to go dense while paged; that arm is
        // `run_epochs`' to refuse (rule 2), so it is left sparse here.
        if !(config.dense_grads && model.store().has_paged()) {
            model.store_mut().set_dense_grads(config.dense_grads);
        }
        Ok(Self {
            model,
            graph: Graph::new(),
            optimizer: config.optimizer.build(config.lr),
            num_batches: plan.num_batches(),
            loss_sum: 0.0,
            loss_count: 0,
            breakdown: Breakdown::default(),
            rank: None,
            outcome: Ok(()),
        })
    }

    /// The paper's step up to the update: one SpMM-score forward, one
    /// transposed-SpMM backward. Every schedule runs exactly this.
    pub(crate) fn forward_backward(&mut self, batch: usize, margin: f32) -> Result<()> {
        self.model.store_mut().zero_grads();
        // Out-of-core models pin this batch's working set in the row cache
        // here; fully resident models no-op.
        self.model.page_in_batch(batch)?;

        let t0 = Instant::now();
        // Reset (not rebuild) the tape: node buffers recycle through the
        // graph's arena, so the steady-state step never touches the
        // allocator (see `tensor::Arena`).
        self.graph.reset();
        let (pos, neg) = self.model.score_batch(&mut self.graph, batch);
        let loss = self.graph.margin_ranking_loss(pos, neg, margin);
        self.breakdown.forward += t0.elapsed();
        let value = self.graph.value(loss).get(0, 0);
        if !value.is_finite() {
            // The epoch is the trainer's to fill in (`Trainer::run_epochs`).
            return Err(crate::Error::Diverged {
                epoch: 0,
                batch: batch + 1,
                rank: self.rank,
                loss: value,
            });
        }
        self.loss_sum += f64::from(value);
        self.loss_count += 1;

        let t1 = Instant::now();
        self.graph.backward(loss, self.model.store_mut());
        self.breakdown.backward += t1.elapsed();
        Ok(())
    }

    /// The row-sparse update.
    pub(crate) fn step(&mut self) {
        let t = Instant::now();
        self.optimizer.step(self.model.store_mut());
        self.breakdown.step += t.elapsed();
    }

    /// One pass over this replica's shard, stepping after every batch.
    fn sweep(&mut self, margin: f32) -> Result<()> {
        for b in 0..self.num_batches {
            self.forward_backward(b, margin)?;
            self.step();
        }
        Ok(())
    }
}

/// Pre-generates the epoch's batches and their negatives (§5.3).
fn build_plan(dataset: &Dataset, config: &TrainConfig) -> BatchPlan {
    let entities = dataset.num_entities.max(2);
    let sampler: Box<dyn NegativeSampler> = match config.sampler {
        SamplerKind::Uniform => Box::new(UniformSampler::new(entities)),
        SamplerKind::Bernoulli => Box::new(BernoulliSampler::fit(&dataset.train, entities)),
    };
    BatchPlan::build(
        &dataset.train,
        &dataset.all_known(),
        sampler.as_ref(),
        config.batch_size,
        config.seed,
    )
}

/// The training driver: runs [`KgeModel`] replicas over a [`BatchPlan`] with
/// margin-ranking loss and the configured optimizer
/// ([`crate::OptimizerKind`], default SGD), recording the paper's metrics.
/// [`Trainer::new`] trains one replica; [`Trainer::replicated`] trains
/// several over a sharded plan. Either way an epoch is the same step —
/// forward, backward, row-sparse update — under one of three schedules.
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
    /// In rank order; rank 0 is *the* model, whose values the others alias.
    pub(crate) replicas: Vec<Replica<M>>,
    config: TrainConfig,
    combine: Combine,
    /// One epoch's batches, returning the updates applied. A `fn` pointer the
    /// constructor picks, because only [`Trainer::replicated`] knows
    /// `M: Send`; everything else works on any model.
    schedule: fn(&mut Self) -> Result<usize>,
    scheduler: Option<StepLr>,
    /// Epochs completed over every `run_epochs` call so far — the epoch the
    /// LR schedule is at, so interleaved calls continue the decay.
    epochs_done: u32,
    pool: PoolHandle,
    reducer: Reducer,
    /// The running epoch's loss, collected from the replicas.
    loss_sum: f64,
    loss_count: usize,
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
        Self::with_plan(model, build_plan(dataset, config), config)
    }

    /// Like [`Trainer::new`] but with a caller-provided plan (used by the
    /// benches).
    ///
    /// # Errors
    ///
    /// Returns errors from [`KgeModel::attach_plan`].
    pub fn with_plan(model: M, plan: BatchPlan, config: &TrainConfig) -> Result<Self> {
        config.validate()?;
        let alone = vec![Replica::new(model, &plan, config)?];
        Ok(Self::assemble(
            alone,
            config,
            Combine::AllReduce,
            single_epoch,
        ))
    }

    /// Trains `workers` replicas over one sharded plan, their updates
    /// combined as `combine` says (see [`Combine`] for both algorithms, the
    /// determinism each keeps, and the Hogwild safety argument).
    ///
    /// `make_model` is called once per worker. Every later replica's value
    /// tensors are replaced by aliases of rank 0's — DDP's broadcast from
    /// rank 0, without the copies — so the models must match parameter for
    /// parameter in shape. Afterwards
    /// [`Trainer::model`] / [`Trainer::into_model`] give rank 0, which is
    /// *the* trained model under either combine. With `workers == 1` this is
    /// [`Trainer::new`] bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates configuration, model-construction and plan-attachment
    /// errors.
    ///
    /// # Examples
    ///
    /// ```
    /// use kg::synthetic::SyntheticKgBuilder;
    /// use sptransx::{Combine, SpTransE, TrainConfig, Trainer};
    ///
    /// # fn main() -> Result<(), sptransx::Error> {
    /// let ds = SyntheticKgBuilder::new(80, 4).triples(600).seed(9).build();
    /// let config = TrainConfig { epochs: 2, batch_size: 64, dim: 8, lr: 0.05, ..Default::default() };
    /// for combine in [Combine::AllReduce, Combine::Shared] {
    ///     let report =
    ///         Trainer::replicated(&ds, &config, 2, combine, SpTransE::from_config)?.run()?;
    ///     assert_eq!(report.workers, 2);
    /// }
    /// # Ok(())
    /// # }
    /// ```
    pub fn replicated<F>(
        dataset: &Dataset,
        config: &TrainConfig,
        workers: usize,
        combine: Combine,
        make_model: F,
    ) -> Result<Self>
    where
        M: Send,
        F: Fn(&Dataset, &TrainConfig) -> Result<M>,
    {
        config.validate()?;
        let shards = build_plan(dataset, config).shard(workers.max(1));
        let mut replicas: Vec<Replica<M>> = Vec::with_capacity(shards.len());
        for (rank, shard) in shards.iter().enumerate() {
            let mut replica = Replica::new(make_model(dataset, config)?, shard, config)?;
            replica.rank = (shards.len() > 1).then_some(rank);
            // Every later replica drops its own values and aliases rank 0's.
            if let Some(rank0) = replicas.first_mut() {
                let store = replica.model.store_mut();
                store.alias_values(rank0.model.store_mut())?;
            }
            replicas.push(replica);
        }
        let schedule = match (replicas.len(), combine) {
            (1, _) => single_epoch,
            (_, Combine::AllReduce) => all_reduce_epoch,
            (_, Combine::Shared) => shared_epoch,
        };
        Ok(Self::assemble(replicas, config, combine, schedule))
    }

    fn assemble(
        replicas: Vec<Replica<M>>,
        config: &TrainConfig,
        combine: Combine,
        schedule: fn(&mut Self) -> Result<usize>,
    ) -> Self {
        let scheduler = config
            .lr_schedule
            .map(|(step, gamma)| StepLr::new(config.lr, step, gamma));
        let trainer = Self {
            replicas,
            config: config.clone(),
            combine,
            schedule,
            scheduler,
            epochs_done: 0,
            pool: PoolHandle::global(),
            reducer: Reducer::default(),
            loss_sum: 0.0,
            loss_count: 0,
        };
        trainer.with_pool(PoolHandle::global())
    }

    /// Dispatches the whole training step — forward kernels, backward
    /// closures, and optimizer updates — on an explicit pool handle.
    ///
    /// The step is bit-identical at any handle width (see `tensor::Graph`),
    /// so this knob trades wall-clock only: `PoolHandle::sequential()` is
    /// the serial baseline, pinned widths reproduce a wide machine's
    /// schedule on a narrow one.
    ///
    /// With two or more replicas the handle fans out *across* replicas and
    /// every tape stays sequential (see [`crate::distributed`]).
    #[must_use]
    pub fn with_pool(mut self, pool: PoolHandle) -> Self {
        let sequential = PoolHandle::sequential();
        let alone = self.replicas.len() == 1;
        let tapes = if alone { &pool } else { &sequential };
        // All-reduce steps on the caller thread, shared on the workers'.
        let steps = match self.combine {
            Combine::Shared if !alone => &sequential,
            _ => &pool,
        };
        for r in &mut self.replicas {
            r.graph = Graph::with_pool(tapes.clone());
            r.graph.set_fused(self.config.fused);
            r.optimizer.set_pool(steps);
        }
        self.pool = pool;
        self
    }

    /// Borrows rank 0's optimizer (e.g. to inspect the scheduled learning
    /// rate, which every replica's optimizer shares).
    pub fn optimizer(&self) -> &dyn Optimizer {
        self.replicas[0].optimizer.as_ref()
    }

    /// The arm this trainer is about to run, as [`Trainer::run_epochs`]
    /// observes it (paging included, which can change between runs).
    pub fn arm(&self) -> Arm {
        Arm {
            pages: self.model().pages(),
            paged: (self.replicas.iter()).any(|r| r.model.store().has_paged()),
            optimizer: self.config.optimizer,
            dense_grads: self.config.dense_grads,
            fused: self.config.fused,
            workers: self.replicas.len(),
            combine: self.combine,
        }
    }

    /// Runs the configured number of epochs.
    ///
    /// # Errors
    ///
    /// See [`Trainer::run_epochs`].
    pub fn run(&mut self) -> Result<TrainReport> {
        self.run_epochs(self.config.epochs)
    }

    /// Runs exactly `epochs` more epochs (callers can interleave
    /// evaluation): the LR schedule continues from the epochs already run,
    /// so `k` calls of one epoch train exactly as one call of `k`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Config`] if [`Arm::check`] refuses the arm
    /// this trainer is in (checked here rather than at construction because
    /// a table can be paged out afterwards, through
    /// [`Trainer::model_mut`]), or if the attached plan has no batches (a
    /// 0-batch epoch would otherwise silently report loss 0); returns
    /// [`crate::Error::Diverged`] at the first batch whose loss is NaN or
    /// infinite, naming its epoch, batch and (with 2+ replicas) rank;
    /// propagates
    /// paging errors from [`KgeModel::page_in_batch`] and from the
    /// end-of-epoch renormalization of a paged table.
    pub fn run_epochs(&mut self, epochs: usize) -> Result<TrainReport> {
        self.arm().check()?;
        if self.num_batches() == 0 {
            return Err(crate::Error::config(
                "batch plan has no batches (empty training set?); refusing to report 0-batch epochs as loss 0",
            ));
        }
        let wall_start = Instant::now();
        let mem_scope = memory::MemoryScope::start();
        let metrics_before = sparse::metrics::snapshot();
        for r in &mut self.replicas {
            r.breakdown = Breakdown::default();
        }
        let mut epoch_losses = Vec::with_capacity(epochs);
        let mut steps = 0;

        for _ in 0..epochs {
            if let Some(sched) = &self.scheduler {
                // The same decayed rate on every optimizer that steps.
                for r in &mut self.replicas {
                    sched.apply(r.optimizer.as_mut(), self.epochs_done);
                }
            }
            let mut updates = (self.schedule)(self);
            if let Err(crate::Error::Diverged { epoch, .. }) = &mut updates {
                *epoch = self.epochs_done as usize + 1;
            }
            steps += updates?;
            self.collect_losses();
            // One table: every replica's dirty rows fold into rank 0, whose
            // renormalization is the renorm.
            fold_dirty_rows(&mut self.replicas);
            let rank0 = &mut self.replicas[0].model;
            rank0.end_epoch();
            // The hook has no error channel; a paged renormalization that
            // hit a storage fault left it with the store.
            rank0.store_mut().take_storage_error()?;
            epoch_losses.push((self.loss_sum / self.loss_count as f64) as f32);
            (self.loss_sum, self.loss_count) = (0.0, 0);
            self.epochs_done += 1;
        }

        let delta = sparse::metrics::snapshot() - metrics_before;
        Ok(TrainReport {
            epoch_losses,
            breakdown: self.replicas[0].breakdown,
            wall: wall_start.elapsed(),
            peak_memory_bytes: mem_scope.peak_delta_bytes(),
            flops: delta.flops,
            spmm_calls: delta.spmm_calls,
            workers: self.replicas.len(),
            steps,
        })
    }

    /// Drains every replica's loss accumulators into the epoch's, in rank
    /// order.
    fn collect_losses(&mut self) {
        for r in &mut self.replicas {
            self.loss_sum += std::mem::take(&mut r.loss_sum);
            self.loss_count += std::mem::take(&mut r.loss_count);
        }
    }

    /// Returns the first failure a fan-out left on a replica, in rank order.
    fn outcome(&mut self) -> Result<()> {
        (self.replicas.iter_mut()).try_for_each(|r| std::mem::replace(&mut r.outcome, Ok(())))
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
        evaluate(self.model(), &dataset.test, &dataset.all_known(), eval)
    }

    /// Runs filtered link-prediction evaluation through the batched,
    /// pool-parallel engine: chunked scoring into reused buffers plus
    /// parallel ranking, producing bit-identical metrics to
    /// [`Trainer::evaluate`] (see `kg::eval`).
    pub fn evaluate_batched(&self, dataset: &Dataset, eval: &EvalConfig) -> LinkPredictionReport
    where
        M: BatchScorer,
    {
        evaluate_batched(self.model(), &dataset.test, &dataset.all_known(), eval)
    }

    /// Borrows rank 0's persistent tape (e.g. for arena recycling
    /// statistics).
    pub fn graph(&self) -> &Graph {
        &self.replicas[0].graph
    }

    /// Borrows the model (rank 0).
    pub fn model(&self) -> &M {
        &self.replicas[0].model
    }

    /// Mutably borrows the model (rank 0).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.replicas[0].model
    }

    /// Consumes the trainer, returning the trained model (rank 0).
    pub fn into_model(mut self) -> M {
        self.replicas.swap_remove(0).model
    }

    /// The number of batches per epoch, over all replicas.
    pub fn num_batches(&self) -> usize {
        self.replicas.iter().map(|r| r.num_batches).sum()
    }
}

/// One replica, on the caller thread, with the trainer's pool: a step after
/// every batch.
fn single_epoch<M: KgeModel>(t: &mut Trainer<M>) -> Result<usize> {
    t.replicas[0].sweep(t.config.margin)?;
    Ok(t.replicas[0].num_batches)
}

/// Rounds: every replica computes the gradient of its own batch (one pool
/// task each, reading the shared values and nothing else), the gradients
/// are averaged into rank 0, and rank 0 alone steps, after the join.
fn all_reduce_epoch<M: KgeModel + Send>(t: &mut Trainer<M>) -> Result<usize> {
    let margin = t.config.margin;
    let sizes = || t.replicas.iter().map(|r| r.num_batches);
    let rounds = sizes().max().unwrap_or(0);
    let active = sizes().filter(|&n| n > 0).count().max(1) as f32;
    for round in 0..rounds {
        // An idle replica (more workers than batches) never writes a
        // gradient, so its share of the mean is zero.
        t.pool.for_each_mut(&mut t.replicas, |_, r| {
            if r.num_batches > 0 {
                r.outcome = r.forward_backward(round % r.num_batches, margin);
            }
        });
        t.outcome()?;
        // Per round, not per epoch: the epoch loss is an `f64` sum in round
        // order, then rank order, and its bits are pinned (`kernel_golden`).
        t.collect_losses();
        t.reducer.all_reduce(&mut t.replicas, active);
        t.replicas[0].step();
    }
    Ok(rounds)
}

/// No rounds: every replica sweeps its shard as one pool task, stepping the
/// shared values as it goes; the only synchronization is the join. On a
/// one-wide pool the shards run back to back in plan order.
fn shared_epoch<M: KgeModel + Send>(t: &mut Trainer<M>) -> Result<usize> {
    let margin = t.config.margin;
    t.pool
        .for_each_mut(&mut t.replicas, |_, r| r.outcome = r.sweep(margin));
    t.outcome()?;
    Ok(t.num_batches())
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
        assert!((t.optimizer().learning_rate() - cfg.lr * 0.25).abs() < 1e-9);
    }

    /// The schedule counts epochs over the trainer's lifetime, not per call:
    /// three calls of one epoch are one call of three, bit for bit.
    #[test]
    fn lr_schedule_continues_across_run_epochs_calls() {
        let ds = dataset();
        let cfg = TrainConfig {
            lr_schedule: Some((1, 0.5)),
            epochs: 3,
            ..fast_config()
        };
        let lone = || Trainer::new(SpTransE::from_config(&ds, &cfg).unwrap(), &ds, &cfg).unwrap();
        let pair = || {
            Trainer::replicated(&ds, &cfg, 2, Combine::AllReduce, SpTransE::from_config).unwrap()
        };
        let makes: [&dyn Fn() -> Trainer<SpTransE>; 2] = [&lone, &pair];
        for make in makes {
            let (mut whole, mut pieces) = (make(), make());
            let want = whole.run_epochs(3).unwrap().epoch_losses;
            let got: Vec<f32> = (0..3)
                .flat_map(|_| pieces.run_epochs(1).unwrap().epoch_losses)
                .collect();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want));
            let emb = |t: &Trainer<SpTransE>| {
                let m = t.model();
                bits(m.store().value(m.embedding_param()).as_slice())
            };
            assert_eq!(emb(&pieces), emb(&whole));
            assert_eq!(
                pieces.optimizer().learning_rate().to_bits(),
                (cfg.lr * 0.25).to_bits()
            );
        }
    }

    /// `f32::max(NaN, 0.0)` is `0.0`, so the hinge used to hide NaN scores
    /// and a diverged run reported loss 0. It stops at the first
    /// non-finite batch loss instead, and says where.
    #[test]
    fn a_diverged_run_is_an_error_naming_epoch_batch_and_rank() {
        let ds = dataset();
        let cfg = TrainConfig {
            lr: 1e30,
            ..fast_config()
        };
        let mut t = Trainer::new(SpTransH::from_config(&ds, &cfg).unwrap(), &ds, &cfg).unwrap();
        match t.run() {
            Err(crate::Error::Diverged {
                epoch,
                batch,
                rank: None,
                loss,
            }) => {
                assert!(!loss.is_finite());
                assert!(epoch >= 1 && (1..=t.num_batches()).contains(&batch));
            }
            other => panic!("expected a divergence error, got {other:?}"),
        }
        for combine in [Combine::AllReduce, Combine::Shared] {
            let mut t = Trainer::replicated(&ds, &cfg, 2, combine, SpTransH::from_config).unwrap();
            let err = t.run().unwrap_err();
            assert!(
                matches!(err, crate::Error::Diverged { rank: Some(_), .. }),
                "{combine:?}: {err}"
            );
            let msg = err.to_string();
            assert!(msg.contains("epoch") && msg.contains("batch") && msg.contains("rank"));
        }
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
