//! The steady-state allocation contract, asserted per batch.
//!
//! The recycling arena promises: after the first mini-batch has populated
//! the pool, the training step performs **zero** tensor-buffer heap
//! allocations — `tensor::memory::alloc_count()` is flat from batch 2
//! onward of a multi-epoch run — while every loss and embedding bit stays
//! identical to a fresh-`Graph`-per-batch run.
//!
//! Everything lives in ONE `#[test]` on purpose: `alloc_count()` is a
//! process-global counter, and a sibling test allocating tensors on another
//! thread would make a "delta is zero" assertion racy. This file is its own
//! integration binary, so a single test means no concurrent allocations.
//! CI runs it under `SPTX_NUM_THREADS ∈ {1,4}` in the determinism job; the
//! pinned-width handles below additionally exercise both schedules
//! in-process.

use kg::synthetic::SyntheticKgBuilder;
use kg::{BatchPlan, Dataset, UniformSampler};
use sptransx::{
    DenseTransR, KgeModel, SpDistMult, SpRotatE, SpTransE, SpTransH, SpTransM, SpTransR,
    TrainConfig, Trainer,
};
use tensor::memory;
use tensor::optim::{Optimizer, Sgd};
use tensor::Graph;
use xparallel::PoolHandle;

fn dataset() -> Dataset {
    SyntheticKgBuilder::new(60, 5).triples(500).seed(90).build()
}

fn config() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        batch_size: 64,
        dim: 12,
        rel_dim: 6,
        lr: 0.05,
        ..Default::default()
    }
}

/// Everything one training run observes: per-batch tensor-allocation deltas
/// plus the bit patterns of the losses and final parameters (and, for
/// paged runs, the total evictions so the trace provably exercised paging).
struct RunTrace {
    batch_allocs: Vec<u64>,
    loss_bits: Vec<u32>,
    param_bits: Vec<Vec<u32>>,
    evictions: u64,
}

fn param_bits<M: KgeModel>(model: &M) -> Vec<Vec<u32>> {
    model
        .store()
        .param_ids()
        .into_iter()
        .map(|id| {
            model
                .store()
                .value(id)
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect()
        })
        .collect()
}

/// Replays the `Trainer` step loop by hand so each batch's allocation count
/// can be sampled. `fresh_graph_per_batch = true` reproduces the pre-arena
/// schedule (a new tape every batch); `false` is the recycling steady state.
fn run_traced<M: KgeModel>(
    mut model: M,
    plan: &BatchPlan,
    cfg: &TrainConfig,
    pool: PoolHandle,
    fresh_graph_per_batch: bool,
) -> RunTrace {
    model.attach_plan(plan).expect("attach plan");
    let mut graph = Graph::with_pool(pool.clone());
    let mut opt = Sgd::new(cfg.lr).with_pool(pool.clone());
    let mut batch_allocs = Vec::new();
    let mut loss_bits = Vec::new();
    for _epoch in 0..cfg.epochs {
        for b in 0..plan.num_batches() {
            let before = memory::alloc_count();
            model.store_mut().zero_grads();
            model.page_in_batch(b).expect("page in batch working set");
            if fresh_graph_per_batch {
                graph = Graph::with_pool(pool.clone());
            } else {
                graph.reset();
            }
            let (pos, neg) = model.score_batch(&mut graph, b);
            let loss = graph.margin_ranking_loss(pos, neg, cfg.margin);
            loss_bits.push(graph.value(loss).get(0, 0).to_bits());
            graph.backward(loss, model.store_mut());
            opt.step(model.store_mut());
            batch_allocs.push(memory::alloc_count() - before);
        }
        model.end_epoch();
    }
    // Paged parameters must come back resident before `param_bits` reads
    // the full table (counting their evictions on the way out).
    let mut evictions = 0;
    let store = model.store_mut();
    for id in store.param_ids() {
        if store.is_paged(id) {
            evictions += store
                .pager(id)
                .expect("paged param has a pager")
                .stats()
                .evictions;
            store.unpage(id).expect("unpage after traced run");
        }
    }
    RunTrace {
        batch_allocs,
        loss_bits,
        param_bits: param_bits(&model),
        evictions,
    }
}

/// Asserts the per-batch allocation profile: batch 1 may (must) allocate,
/// every later batch must not — except the *first* occurrence of a ragged
/// final batch, whose smaller shapes enter the pool once.
fn assert_flat_from_batch_2(trace: &RunTrace, num_batches: usize, uniform: bool, ctx: &str) {
    assert!(
        trace.batch_allocs[0] > 0,
        "{ctx}: the first batch should populate the arena"
    );
    for (i, &allocs) in trace.batch_allocs.iter().enumerate().skip(1) {
        let (epoch, batch) = (i / num_batches, i % num_batches);
        let first_ragged_batch = !uniform && epoch == 0 && batch == num_batches - 1;
        if !first_ragged_batch {
            assert_eq!(
                allocs, 0,
                "{ctx}: batch {batch} of epoch {epoch} performed {allocs} \
                 tensor-buffer heap allocations (steady state must be flat)"
            );
        }
    }
}

#[test]
fn steady_state_training_step_is_allocation_free_and_bit_identical() {
    let ds = dataset();
    let cfg = config();
    let known = ds.all_known();
    let sampler = UniformSampler::new(ds.num_entities.max(2));
    let plan = BatchPlan::build(&ds.train, &known, &sampler, cfg.batch_size, cfg.seed);
    let num_batches = plan.num_batches();
    assert!(num_batches >= 3, "need several batches per epoch");
    let uniform = (0..num_batches).all(|i| plan.batch(i).len() == plan.batch(0).len());

    // Pre-arena reference: a fresh Graph per batch, exactly the old step.
    let reference = run_traced(
        SpTransE::from_config(&ds, &cfg).unwrap(),
        &plan,
        &cfg,
        PoolHandle::global().with_width(4),
        true,
    );

    // Sequential and pinned-width-4 schedules (CI re-runs the whole binary
    // under SPTX_NUM_THREADS=1 and =4 on top of this).
    for (name, pool) in [
        ("seq", PoolHandle::sequential()),
        ("w4", PoolHandle::global().with_width(4)),
    ] {
        macro_rules! check_model {
            ($model:ty) => {{
                let trace = run_traced(
                    <$model>::from_config(&ds, &cfg).unwrap(),
                    &plan,
                    &cfg,
                    pool.clone(),
                    false,
                );
                let ctx = format!("{} [{name}]", stringify!($model));
                assert_flat_from_batch_2(&trace, num_batches, uniform, &ctx);
                trace
            }};
        }
        let transe = check_model!(SpTransE);
        check_model!(SpTransH);
        check_model!(SpTransR);
        check_model!(DenseTransR);
        check_model!(SpDistMult);
        check_model!(SpRotatE);
        check_model!(SpTransM);

        // Recycling swaps buffer identity, never arithmetic: the arena run
        // matches the fresh-graph-per-batch reference bit for bit.
        assert_eq!(
            transe.loss_bits, reference.loss_bits,
            "[{name}] arena step changed a loss bit vs fresh-graph step"
        );
        assert_eq!(
            transe.param_bits, reference.param_bits,
            "[{name}] arena step changed an embedding bit vs fresh-graph step"
        );
    }

    // Paged arm: demand paging must not reintroduce steady-state
    // allocations. The table is paged out to in-RAM backing storage at a
    // full-table budget first (this dataset's batches touch nearly every
    // row, so any smaller budget could not pin a working set) — reads,
    // write-backs and the slot translation all run, batch 2 onward stays
    // flat, and the bits still match the resident reference.
    {
        let mut model = SpTransE::from_config(&ds, &cfg).unwrap();
        let emb = model.embedding_param();
        let (rows, cols) = model.store().param_shape(emb);
        model
            .store_mut()
            .page_out(emb, Box::new(tensor::VecStorage::new(rows, cols)), rows)
            .unwrap();
        let trace = run_traced(
            model,
            &plan,
            &cfg,
            PoolHandle::global().with_width(4),
            false,
        );
        assert_flat_from_batch_2(&trace, num_batches, uniform, "SpTransE [paged]");
        assert_eq!(
            trace.loss_bits, reference.loss_bits,
            "[paged] demand paging changed a loss bit"
        );
        assert_eq!(
            trace.param_bits, reference.param_bits,
            "[paged] demand paging changed an embedding bit"
        );
    }

    // And under genuine eviction pressure: a smaller-batch plan whose
    // working sets fit a half-table budget. Compared against its own
    // resident run (different plan ⇒ different losses than `reference`).
    {
        let small_plan = BatchPlan::build(&ds.train, &known, &sampler, 12, cfg.seed);
        let small_batches = small_plan.num_batches();
        let small_uniform =
            (0..small_batches).all(|i| small_plan.batch(i).len() == small_plan.batch(0).len());
        let resident = run_traced(
            SpTransE::from_config(&ds, &cfg).unwrap(),
            &small_plan,
            &cfg,
            PoolHandle::sequential(),
            false,
        );
        let mut model = SpTransE::from_config(&ds, &cfg).unwrap();
        let emb = model.embedding_param();
        let (rows, cols) = model.store().param_shape(emb);
        model
            .store_mut()
            .page_out(
                emb,
                Box::new(tensor::VecStorage::new(rows, cols)),
                rows / 2 + 8,
            )
            .unwrap();
        let trace = run_traced(model, &small_plan, &cfg, PoolHandle::sequential(), false);
        assert!(
            trace.evictions > 0,
            "half-table budget over 3 epochs must evict"
        );
        assert_flat_from_batch_2(
            &trace,
            small_batches,
            small_uniform,
            "SpTransE [paged/evict]",
        );
        assert_eq!(
            trace.loss_bits, resident.loss_bits,
            "[paged/evict] eviction + write-back changed a loss bit"
        );
        assert_eq!(
            trace.param_bits, resident.param_bits,
            "[paged/evict] eviction + write-back changed an embedding bit"
        );
    }

    // The same contract holds through the public Trainer API: after a
    // warm-up epoch, further epochs are allocation-free end to end — for the
    // fused score and for both users of the projection kernels, whose
    // transposed-matrix scratch is drawn from the arena and returned to it
    // inside the op.
    macro_rules! check_trainer {
        ($model:ty) => {{
            let model = <$model>::from_config(&ds, &cfg).unwrap();
            let mut trainer = Trainer::new(model, &ds, &cfg).unwrap();
            let warm_up = trainer.run_epochs(1).expect("warm-up epoch");
            // Asserted here, where the process-global peak counter has one
            // writer; beside concurrently training sibling tests it races.
            assert!(
                warm_up.peak_memory_bytes > 0,
                "the first epoch allocates the tape's buffers above the baseline"
            );
            let before = memory::alloc_count();
            trainer.run_epochs(2).expect("steady-state epochs");
            assert_eq!(
                memory::alloc_count(),
                before,
                "{}: Trainer epochs after the first must not heap-allocate tensor buffers",
                stringify!($model)
            );
            assert!(
                trainer.graph().arena().hits() > 0,
                "the trainer's arena should be serving buffers"
            );
        }};
    }
    check_trainer!(SpTransE);
    check_trainer!(SpTransR);
    check_trainer!(DenseTransR);
}
