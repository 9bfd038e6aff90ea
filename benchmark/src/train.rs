//! The four training workloads: the shipped trainer's epoch loop, re-issued
//! call for call from outside so every batch step can be timed on its own
//! (R2 needs per-item times, which `Trainer::run_epochs` does not expose).

use std::path::PathBuf;
use std::time::Instant;

use kg::eval::{evaluate_batched, BatchScorer, EvalConfig, SampleStrategy};
use kg::synthetic::SyntheticKgBuilder;
use kg::{BatchPlan, Dataset, TripleSet, UniformSampler};
use sptransx::{
    FileRowStorage, KgeModel, SpTorusE, SpTransE, SpTransH, SpTransR, TrainConfig, Trainer,
};
use tensor::optim::{Optimizer, Sgd};
use tensor::{Graph, PageStats, ParamId};
use xparallel::PoolHandle;

use crate::quiet::{latency, Quiet};
use crate::run::{drive, record_trace_overhead, Ctx, EndToEnd, Pass, Res};

/// A synthetic knowledge graph and the embedding sizes trained on it.
#[derive(Debug, Clone, Copy)]
pub struct KgSpec {
    entities: usize,
    relations: usize,
    triples: usize,
    dim: usize,
    rel_dim: usize,
    batch_size: usize,
}

/// 200 k entities × dim 64: a 51 MB table, far beyond the last-level
/// cache — the paper's regime. 108 k training triples, 27 batches of 4096.
pub const KG_LARGE: KgSpec = KgSpec {
    entities: 200_000,
    relations: 200,
    triples: 120_000,
    dim: 64,
    rel_dim: 32,
    batch_size: 4096,
};

/// 20 k entities × dim 64: a 5 MB cache-resident table, where tape, arena
/// and dispatch overhead replace cache misses. 54 k training triples, 53
/// batches of `TrainConfig::default()`'s 1024.
pub const KG_SMALL: KgSpec = KgSpec {
    entities: 20_000,
    relations: 100,
    triples: 60_000,
    dim: 64,
    rel_dim: 32,
    batch_size: 1024,
};

/// Complete set-ups after the first: one after each eighth of the rounds
/// (a training set-up is 0.1–0.3 s, so nine of them are affordable and the
/// minimum over nine is steadier than over five).
const EXTRA_SETUPS: usize = 8;

/// The paper's four translational models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    TransE,
    TransH,
    TransR,
    TorusE,
}

/// All four, in the order `train_models` runs them each round.
pub const ALL_MODELS: [ModelKind; 4] = [
    ModelKind::TransE,
    ModelKind::TransH,
    ModelKind::TransR,
    ModelKind::TorusE,
];

/// What the benchmark needs of a model: training and batched scoring.
trait BenchModel: KgeModel + BatchScorer {}
impl<T: KgeModel + BatchScorer> BenchModel for T {}

impl ModelKind {
    fn build(self, ds: &Dataset, cfg: &TrainConfig) -> sptransx::Result<Box<dyn BenchModel>> {
        Ok(match self {
            ModelKind::TransE => Box::new(SpTransE::from_config(ds, cfg)?),
            ModelKind::TransH => Box::new(SpTransH::from_config(ds, cfg)?),
            ModelKind::TransR => Box::new(SpTransR::from_config(ds, cfg)?),
            ModelKind::TorusE => Box::new(SpTorusE::from_config(ds, cfg)?),
        })
    }

    fn name(self) -> &'static str {
        match self {
            ModelKind::TransE => "transe",
            ModelKind::TransH => "transh",
            ModelKind::TransR => "transr",
            ModelKind::TorusE => "toruse",
        }
    }

    /// Runs the shipped trainer on an identically built model.
    fn twin(self, ds: &Dataset, cfg: &TrainConfig, job: &TwinJob) -> Res<TwinOut> {
        match self {
            ModelKind::TransE => run_twin(SpTransE::from_config(ds, cfg)?, ds, cfg, job),
            ModelKind::TransH => run_twin(SpTransH::from_config(ds, cfg)?, ds, cfg, job),
            ModelKind::TransR => run_twin(SpTransR::from_config(ds, cfg)?, ds, cfg, job),
            ModelKind::TorusE => run_twin(SpTorusE::from_config(ds, cfg)?, ds, cfg, job),
        }
    }
}

/// Where the embedding table lives while training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// Everything in RAM.
    Resident,
    /// `embeddings` paged out to a pagefile, with a row cache of this
    /// percentage of the table's rows.
    Paged { budget_percent: usize },
}

/// One training workload.
#[derive(Debug, Clone, Copy)]
pub struct TrainWorkload {
    /// The graph and sizes.
    pub spec: KgSpec,
    /// The models trained back to back each round.
    pub models: &'static [ModelKind],
    /// Where the table lives.
    pub residency: Residency,
    /// Timed rounds at the nominal `--seconds`.
    pub rounds: usize,
}

/// Removes a pagefile when the model that pages to it is gone.
#[derive(Debug)]
struct Pagefile(PathBuf);

impl Drop for Pagefile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The program's own monotone counters, in the order of the per-layer
/// metrics that report them (as a mean per timed epoch).
const COUNTER_METRICS: [&str; 10] = [
    "sparse.spmm.calls",
    "sparse.flops",
    "sparse.bytes",
    "tensor.alloc.per_epoch",
    "pager.hits",
    "pager.misses",
    "pager.evictions",
    "pager.write_backs",
    "pager.read_ops",
    "pager.write_ops",
];
const ALLOCS: usize = 3;
const PAGER_HITS: usize = 4;
const PAGER_MISSES: usize = 5;

type Counters = [u64; COUNTER_METRICS.len()];

/// One model in training: the pieces `Trainer` holds, held apart.
struct Live {
    kind: ModelKind,
    model: Box<dyn BenchModel>,
    graph: Graph,
    optimizer: Sgd,
    /// The paged parameter, for its pager's counters.
    paged: Option<ParamId>,
    /// Step `b` of plain passes, one clock pair per step.
    step: Quiet,
    /// `end_epoch` of plain passes.
    end: Quiet,
    /// The same two under spans (traced passes), for the overhead.
    step_traced: Quiet,
    end_traced: Quiet,
    losses: Vec<f32>,
    /// Counter deltas summed over the timed epochs.
    counters: Counters,
    timed_epochs: u64,
    // Declared last: the pagefile outlives the model's open handle to it.
    _pagefile: Option<Pagefile>,
}

struct TrainState {
    ds: Dataset,
    known: TripleSet,
    cfg: TrainConfig,
    lives: Vec<Live>,
}

fn train_config(spec: KgSpec, seed: u64) -> TrainConfig {
    TrainConfig {
        batch_size: spec.batch_size,
        dim: spec.dim,
        rel_dim: spec.rel_dim,
        seed,
        ..TrainConfig::default()
    }
}

fn build_dataset(spec: KgSpec, seed: u64) -> Dataset {
    SyntheticKgBuilder::new(spec.entities, spec.relations)
        .triples(spec.triples)
        .seed(seed)
        .build()
}

/// Pages `embeddings` out to a fresh pagefile, as `sptx train --store
/// disk` does after building its trainer.
fn page_out(
    model: &mut dyn KgeModel,
    path: PathBuf,
    budget_percent: usize,
) -> Res<(ParamId, Pagefile)> {
    let store = model.store_mut();
    let id = store
        .lookup("embeddings")
        .ok_or("model has no 'embeddings' table to page out")?;
    let (rows, cols) = store.param_shape(id);
    let storage = FileRowStorage::create(&path, rows, cols)?;
    let pagefile = Pagefile(path);
    store.page_out(id, Box::new(storage), rows * budget_percent / 100)?;
    Ok((id, pagefile))
}

/// One complete set-up: everything a training run needs before its first
/// batch step, in the order `Trainer::new` does it.
fn set_up(ctx: &mut Ctx, w: &TrainWorkload, rep: usize) -> Res<TrainState> {
    let tr = &mut ctx.tracer;
    let ds = tr.span("kg.synthetic.build", 0, || build_dataset(w.spec, ctx.seed));
    let cfg = train_config(w.spec, ctx.seed);
    cfg.validate()?;
    let known = tr.span("kg.known.build", 0, || ds.all_known());
    let sampler = UniformSampler::new(ds.num_entities.max(2));
    let plan = tr.span("kg.plan.build", 0, || {
        BatchPlan::build(&ds.train, &known, &sampler, cfg.batch_size, cfg.seed)
    });
    let mut lives = Vec::with_capacity(w.models.len());
    for (m, &kind) in w.models.iter().enumerate() {
        let mut model = tr.span("sptransx.model.init", m, || kind.build(&ds, &cfg))?;
        tr.span("sptransx.attach_plan", m, || model.attach_plan(&plan))?;
        let (paged, pagefile) = match w.residency {
            Residency::Resident => (None, None),
            Residency::Paged { budget_percent } => {
                let path = ctx.dir.path().join(format!("pagefile-{rep}-{m}.bin"));
                let (id, file) = tr.span("tensor.page_out", m, || {
                    page_out(model.as_mut(), path, budget_percent)
                })?;
                (Some(id), Some(file))
            }
        };
        // R1: one compute thread, for the tape and the optimizer alike.
        let pool = PoolHandle::sequential();
        let mut graph = Graph::with_pool(pool.clone());
        graph.set_fused(cfg.fused);
        let batches = model.num_batches();
        lives.push(Live {
            kind,
            model,
            graph,
            optimizer: Sgd::new(cfg.lr).with_pool(pool),
            paged,
            step: Quiet::new(batches),
            end: Quiet::new(1),
            step_traced: Quiet::new(batches),
            end_traced: Quiet::new(1),
            losses: Vec::new(),
            counters: Counters::default(),
            timed_epochs: 0,
            _pagefile: pagefile,
        });
    }
    Ok(TrainState {
        ds,
        known,
        cfg,
        lives,
    })
}

/// Current readings of [`COUNTER_METRICS`]: the process-wide kernel and
/// allocation counters and this model's pager (zeros when resident).
fn read_counters(live: &Live) -> Counters {
    let sparse = sparse::metrics::snapshot();
    let (pager, (reads, writes)) = live
        .paged
        .and_then(|id| live.model.store().pager(id))
        .map_or((PageStats::default(), (0, 0)), |p| {
            (p.stats(), p.storage_io_ops())
        });
    [
        sparse.spmm_calls,
        sparse.flops,
        sparse.bytes_touched,
        tensor::memory::alloc_count(),
        pager.hits,
        pager.misses,
        pager.evictions,
        pager.write_backs,
        reads,
        writes,
    ]
}

/// One epoch of one model: `Trainer::run_epochs`'s loop body, with a clock
/// pair around each batch step and, when the tracer is on, a span around
/// each call into a layer. `slot` offsets span items so that the models of
/// a round do not share them.
fn run_epoch(ctx: &mut Ctx, live: &mut Live, margin: f32, kind: Pass, slot: usize) -> Res<()> {
    let tr = &mut ctx.tracer;
    let batches = live.model.num_batches();
    let before = read_counters(live);

    tr.begin("epoch", slot);
    let mut loss_sum = 0f64;
    for b in 0..batches {
        let item = slot * batches + b;
        tr.begin("step", item);
        let start = Instant::now();
        tr.span("step.zero_grads", item, || {
            live.model.store_mut().zero_grads()
        });
        tr.span("step.page_in", item, || live.model.page_in_batch(b))?;
        let loss = tr.span("step.forward", item, || {
            live.graph.reset();
            let (pos, neg) = live.model.score_batch(&mut live.graph, b);
            live.graph.margin_ranking_loss(pos, neg, margin)
        });
        loss_sum += f64::from(live.graph.value(loss).get(0, 0));
        tr.span("step.backward", item, || {
            live.graph.backward(loss, live.model.store_mut())
        });
        tr.span("step.optimizer", item, || {
            live.optimizer.step(live.model.store_mut())
        });
        let secs = start.elapsed().as_secs_f64();
        tr.end();
        match kind {
            Pass::WarmUp => {}
            Pass::Plain => live.step.record(b, secs),
            Pass::Traced => live.step_traced.record(b, secs),
        }
    }
    let start = Instant::now();
    tr.span("step.end_epoch", slot, || live.model.end_epoch());
    let secs = start.elapsed().as_secs_f64();
    tr.end();
    match kind {
        Pass::WarmUp => {}
        Pass::Plain => live.end.record(0, secs),
        Pass::Traced => live.end_traced.record(0, secs),
    }

    live.losses.push((loss_sum / batches as f64) as f32);
    ctx.checks.ops(batches as u64);
    if kind != Pass::WarmUp {
        let after = read_counters(live);
        for (sum, (after, before)) in live.counters.iter_mut().zip(after.iter().zip(before)) {
            *sum += after - before;
        }
        live.timed_epochs += 1;
    }
    Ok(())
}

/// Single epochs of the shipped trainer timed in a traced run, best taken.
const TWIN_TIMED_EPOCHS: usize = 3;

/// What a trainer twin is asked to do.
struct TwinJob {
    /// Page the twin's table out like the workload's, to this file.
    paging: Option<(PathBuf, usize)>,
    /// Epochs whose losses are compared.
    epochs: usize,
    /// Further single epochs to time (traced run), best taken.
    timed_epochs: usize,
}

struct TwinOut {
    losses: Vec<f32>,
    best_epoch_s: f64,
}

fn run_twin<M: KgeModel>(model: M, ds: &Dataset, cfg: &TrainConfig, job: &TwinJob) -> Res<TwinOut> {
    let mut trainer = Trainer::new(model, ds, cfg)?.with_pool(PoolHandle::sequential());
    let _pagefile = match &job.paging {
        Some((path, budget_percent)) => {
            Some(page_out(trainer.model_mut(), path.clone(), *budget_percent)?.1)
        }
        None => None,
    };
    let losses = trainer.run_epochs(job.epochs)?.epoch_losses;
    let mut best_epoch_s = f64::INFINITY;
    for _ in 0..job.timed_epochs {
        best_epoch_s = best_epoch_s.min(trainer.run_epochs(1)?.wall.as_secs_f64());
    }
    drop(trainer);
    Ok(TwinOut {
        losses,
        best_epoch_s,
    })
}

fn bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|l| l.to_bits()).collect()
}

/// Untimed checks of one model's training against the shipped trainer.
fn verify(ctx: &mut Ctx, w: &TrainWorkload, state: &TrainState, m: usize) -> Res<()> {
    let live = &state.lives[m];
    let name = live.kind.name();
    let losses = &live.losses;
    ctx.checks.check(
        &format!("{name}: every epoch loss finite"),
        losses.iter().all(|l| l.is_finite()),
        || format!("losses {losses:?}"),
    );
    let (first, last) = (losses[0], losses[losses.len() - 1]);
    ctx.checks
        .check(&format!("{name}: last loss < first"), last < first, || {
            format!("first {first} last {last}")
        });
    ctx.checks.check(
        &format!("{name}: no tensor allocations in timed epochs"),
        live.counters[ALLOCS] == 0,
        || {
            format!(
                "{} allocations over {} epochs",
                live.counters[ALLOCS], live.timed_epochs
            )
        },
    );

    // The shipped trainer on an identically initialised resident model. For
    // a paged workload this is also the resident twin of the paging
    // contract: paging moves bytes, never arithmetic.
    let paged = w.residency != Residency::Resident;
    let resident = live.kind.twin(
        &state.ds,
        &state.cfg,
        &TwinJob {
            paging: None,
            epochs: if paged { 2 } else { 1 },
            timed_epochs: if ctx.trace && !paged {
                TWIN_TIMED_EPOCHS
            } else {
                0
            },
        },
    )?;
    ctx.checks.check(
        &format!("{name}: first-epoch loss bits equal Trainer::run_epochs(1)"),
        bits(&resident.losses[..1]) == bits(&losses[..1]),
        || {
            format!(
                "trainer {:?} benchmark loop {:?}",
                &resident.losses[..1],
                &losses[..1]
            )
        },
    );
    if paged {
        ctx.checks.check(
            &format!("{name}: two epochs of loss bits equal a resident twin"),
            bits(&resident.losses) == bits(&losses[..2]),
            || format!("resident {:?} paged {:?}", resident.losses, &losses[..2]),
        );
    }
    let mut trainer_epoch_s = resident.best_epoch_s;
    if let (true, Residency::Paged { budget_percent }) = (ctx.trace, w.residency) {
        // Time the shipped loop paged the same way (traced run only).
        let twin = live.kind.twin(
            &state.ds,
            &state.cfg,
            &TwinJob {
                paging: Some((
                    ctx.dir.path().join(format!("pagefile-twin-{m}.bin")),
                    budget_percent,
                )),
                epochs: 1,
                timed_epochs: TWIN_TIMED_EPOCHS,
            },
        )?;
        ctx.checks.check(
            &format!("{name}: first-epoch loss bits equal a paged Trainer"),
            bits(&twin.losses) == bits(&losses[..1]),
            || {
                format!(
                    "trainer {:?} benchmark loop {:?}",
                    twin.losses,
                    &losses[..1]
                )
            },
        );
        trainer_epoch_s = twin.best_epoch_s;
    }
    if ctx.trace {
        ctx.layers.add("sptransx.trainer.epoch_s", trainer_epoch_s);
    }
    Ok(())
}

/// Runs a training workload end to end and returns its five numbers.
///
/// # Errors
///
/// Any error of the program under test (a failed operation) aborts the run.
pub fn run(ctx: &mut Ctx, w: &TrainWorkload) -> Res<EndToEnd> {
    let rounds = ctx.passes(w.rounds);
    let (state, driven) = drive(
        ctx,
        rounds,
        EXTRA_SETUPS,
        |ctx, rep| set_up(ctx, w, rep),
        |ctx, state, kind| {
            let margin = state.cfg.margin;
            for (slot, live) in state.lives.iter_mut().enumerate() {
                run_epoch(ctx, live, margin, kind, slot)?;
            }
            Ok(())
        },
    )?;

    let triples = state.ds.train.len() * state.lives.len();
    let quiet_epoch: f64 = state
        .lives
        .iter()
        .map(|l| l.step.total() + l.end.total())
        .sum();
    // A latency item is batch `b` through every model of the round, so the
    // items are alike (one model's steps are 3× another's).
    let batches = state.lives[0].step.minima().len();
    let step_ms: Vec<f64> = (0..batches)
        .map(|b| {
            let secs: f64 = state.lives.iter().map(|l| l.step.minima()[b]).sum();
            secs * 1e3
        })
        .collect();
    let end_to_end = EndToEnd {
        setup_s: driven.setup.total(),
        throughput_per_s: triples as f64 / quiet_epoch,
        latency_ms: latency(&step_ms),
        peak_rss_mb: driven.peak_rss_mb,
    };
    let reps = state.lives.iter().map(|l| l.step.min_reps()).min();
    ctx.note(format!(
        "{triples} training triples per round over {} model(s), {} batch steps; quiet round {quiet_epoch:.6} s = sum of per-step minima over {} plain epochs + min end_epoch",
        state.lives.len(),
        step_ms.len(),
        reps.unwrap_or(0),
    ));

    // Per round: summed over the models, averaged over the timed epochs.
    let epochs = state.lives[0].timed_epochs.max(1) as f64;
    let mut per_round = [0f64; COUNTER_METRICS.len()];
    for live in &state.lives {
        for (sum, &c) in per_round.iter_mut().zip(&live.counters) {
            *sum += c as f64 / epochs;
        }
    }
    let (hits, misses) = (per_round[PAGER_HITS], per_round[PAGER_MISSES]);
    let hit_rate = if hits + misses == 0.0 {
        0.0
    } else {
        hits / (hits + misses)
    };
    match w.residency {
        Residency::Resident => {}
        Residency::Paged {
            budget_percent: 100,
        } => ctx.checks.check(
            "no pager misses in timed epochs",
            misses == 0.0 && hits > 0.0,
            || format!("{hits} hits and {misses} misses per epoch"),
        ),
        Residency::Paged { .. } => ctx.checks.check(
            "pager hit rate strictly between 0 and 1",
            hit_rate > 0.0 && hit_rate < 1.0,
            || format!("hit rate {hit_rate}: {hits} hits and {misses} misses per epoch"),
        ),
    }

    if ctx.trace {
        let l = &mut ctx.layers;
        for stem in [
            "kg.synthetic.build",
            "kg.known.build",
            "kg.plan.build",
            "sptransx.model.init",
            "sptransx.attach_plan",
            "tensor.page_out",
            "step.zero_grads",
            "step.page_in",
            "step.forward",
            "step.backward",
            "step.optimizer",
            "step.end_epoch",
        ] {
            l.set_quiet(&ctx.tracer, stem);
        }
        for live in &state.lives {
            l.set(
                &format!("models.{}.epoch_s", live.kind.name()),
                live.step.total() + live.end.total(),
            );
        }
        for (name, value) in COUNTER_METRICS.iter().zip(per_round) {
            l.set(name, value);
        }
        l.set("tensor.memory.peak_mb", driven.tensor_peak_mb);
        l.set("pager.hit_rate", hit_rate);

        let traced_epoch: f64 = state
            .lives
            .iter()
            .map(|l| l.step_traced.total() + l.end_traced.total())
            .sum();
        record_trace_overhead(ctx, quiet_epoch, traced_epoch);
        let coverage = ctx.tracer.child_coverage("step");
        ctx.checks.check(
            "phases of a batch sum to its step span within 5 %",
            coverage >= 0.95,
            || format!("phase spans cover {coverage} of the step spans"),
        );
        if w.models.len() > 1 {
            evaluate(ctx, &state);
        }
    }

    for m in 0..state.lives.len() {
        verify(ctx, w, &state, m)?;
    }
    Ok(end_to_end)
}

/// Filtered link prediction on 128 strided test triples per model: the
/// `kg::eval` layer, which training never calls (traced run only).
fn evaluate(ctx: &mut Ctx, state: &TrainState) {
    let eval = EvalConfig {
        max_triples: Some(128),
        sample: SampleStrategy::Strided,
        ..EvalConfig::default()
    };
    let (mut queries, mut secs, mut mrr) = (0usize, 0f64, 0f64);
    for (m, live) in state.lives.iter().enumerate() {
        let scorer: &dyn BatchScorer = live.model.as_ref();
        ctx.tracer.set_on(true);
        ctx.tracer.begin("kg.eval", m);
        let start = Instant::now();
        let report = evaluate_batched(scorer, &state.ds.test, &state.known, &eval);
        secs += start.elapsed().as_secs_f64();
        ctx.tracer.end();
        ctx.tracer.set_on(false);
        queries += report.queries;
        mrr += f64::from(report.mrr);
        ctx.checks.ops(report.queries as u64);
    }
    ctx.layers
        .set("kg.eval.queries_per_s", queries as f64 / secs);
    ctx.layers
        .set("kg.eval.mrr", mrr / state.lives.len() as f64);
}
