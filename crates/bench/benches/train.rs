//! The training-step arms nothing else times, and the per-model JSON pass.
//!
//! * `pool-step/t{1,2,4,8}` — one epoch through `Trainer` on a pool pinned
//!   to width `t`: row-sharded forward/backward kernels plus the parallel
//!   optimizer update. `benchmark/` runs one compute thread (its rule R1),
//!   so this is the one place pool width is timed. The determinism contract
//!   makes every width bit-identical; only wall-clock may differ, and
//!   widths beyond the core count add scheduling overhead without speedup.
//! * `step-alloc/{fresh-graph,arena}` — the buffer-lifecycle ablation: the
//!   identical sequential step with a freshly allocated `Graph` (and thus
//!   freshly `malloc`ed/zeroed tensors) per batch versus the `Trainer`'s
//!   recycling-arena steady state. Arithmetic is bit-identical; only
//!   allocator traffic differs, so the gap is the allocator tax the arena
//!   removes. A `Trainer` always recycles its tape, so the fresh-graph arm
//!   is the one training step in the crate written out by hand.
//!
//! The JSON pass (`models/<key>` for every family of `sptransx::MODELS` →
//! `BENCH_models.json`, see `sptx_bench::json`) times a steady-state epoch
//! of each registered model on the end-to-end benchmark's `train_models`
//! shape, sequential pool: the committed per-model number that the
//! projection-kernel and torus-score work is judged by, and the only
//! timing of the families no benchmark workload runs (the semiring models,
//! TransC, TransM and the gather baselines).
//!
//! Throughput is positive training triples per second per epoch.

use kg::synthetic::SyntheticKgBuilder;
use kg::{BatchPlan, Dataset, UniformSampler};
use sptransx::{KgeModel, Registered, SpTransE, TrainConfig, Trainer, MODELS};
use sptx_bench::harness::{time_arm, TIMED_RUNS};
use sptx_bench::json::{write_bench_json, JsonObject};
use tensor::optim::{Optimizer, Sgd};
use tensor::Graph;
use xparallel::PoolHandle;

fn bench_training_step() {
    let ds = SyntheticKgBuilder::new(2_000, 12)
        .triples(16_000)
        .seed(0x7EA1)
        .build();
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 512,
        dim: 48,
        rel_dim: 24,
        lr: 0.05,
        ..Default::default()
    };
    let sampler = UniformSampler::new(ds.num_entities.max(2));
    let plan = BatchPlan::build(
        &ds.train,
        &ds.all_known(),
        &sampler,
        cfg.batch_size,
        cfg.seed,
    );
    let triples = Some(ds.train.len() as u64);
    let trainer = |pool| {
        let model = SpTransE::from_config(&ds, &cfg).expect("model");
        let trainer = Trainer::with_plan(model, plan.clone(), &cfg).expect("trainer");
        trainer.with_pool(pool)
    };

    for threads in [1usize, 2, 4, 8] {
        let mut t = trainer(PoolHandle::global().with_width(threads));
        time_arm(&format!("pool-step/t{threads}"), triples, || {
            t.run_epochs(1).expect("epoch")
        });
    }

    let pool = PoolHandle::sequential();
    let mut model = SpTransE::from_config(&ds, &cfg).expect("model");
    model.attach_plan(&plan).expect("plan");
    let mut opt = Sgd::new(cfg.lr).with_pool(pool.clone());
    time_arm("step-alloc/fresh-graph", triples, || {
        for bi in 0..plan.num_batches() {
            model.store_mut().zero_grads();
            let mut g = Graph::with_pool(pool.clone());
            let (pos, neg) = model.score_batch(&mut g, bi);
            let loss = g.margin_ranking_loss(pos, neg, cfg.margin);
            g.backward(loss, model.store_mut());
            opt.step(model.store_mut());
        }
        model.end_epoch();
    });
    let mut arena = trainer(pool);
    time_arm("step-alloc/arena", triples, || {
        arena.run_epochs(1).expect("epoch")
    });
}

/// The record of one model's steady-state epoch under the shipped `Trainer`
/// on a sequential pool.
fn model_record(family: &Registered, ds: &Dataset, cfg: &TrainConfig) -> JsonObject {
    let arm = &format!("models/{}", family.key());
    let model = (family.build)(ds, cfg);
    let mut trainer = Trainer::new(model.expect("model"), ds, cfg)
        .expect("trainer")
        .with_pool(PoolHandle::sequential());
    let triples = ds.train.len() as u64;
    let ms = time_arm(arm, Some(triples), || trainer.run_epochs(1).expect("epoch"));
    JsonObject::new()
        .str("bench", "train_models_epoch")
        .str("arm", arm)
        .int("train_triples", triples)
        .int("epochs_timed", u64::from(TIMED_RUNS))
        .num("ms_per_epoch", ms)
}

/// JSON pass → `BENCH_models.json`: one record per registered family on the
/// `train_models` shape of the end-to-end benchmark (20 000 entities, 100
/// relations, 54 000 training triples, `dim` 64, `rel_dim` 32, batches of
/// 1024).
fn emit_json_models() {
    let ds = SyntheticKgBuilder::new(20_000, 100)
        .triples(60_000)
        .seed(1)
        .build();
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 1024,
        dim: 64,
        rel_dim: 32,
        seed: 1,
        ..Default::default()
    };
    let records: Vec<_> = MODELS.iter().map(|m| model_record(m, &ds, &cfg)).collect();
    match write_bench_json("models", &records) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_models.json: {e}"),
    }
}

fn main() {
    bench_training_step();
    emit_json_models();
}
