//! Training-step throughput: the pool-parallel step against its serial
//! baseline (paper Table 1 / Figure 8 territory — this is where the paper's
//! wall-clock goes).
//!
//! Four arms, swept across pool widths on a synthetic KG:
//!
//! * `serial` — the whole step (forward kernels, backward closures, SGD
//!   update) on a `PoolHandle::sequential()` tape: the pre-pool baseline.
//!   Ignores the thread knob.
//! * `pool-step` — the same step on a tape pinned to width `t`: row-sharded
//!   forward/backward kernels plus the parallel optimizer update.
//! * `data-parallel` — `Trainer::replicated` with 2 all-reduce replicas
//!   sharing the pool (sequential inner tapes, parallelism across replicas).
//! * `step-alloc/{fresh-graph,arena}` — the buffer-lifecycle ablation: the
//!   identical sequential step with a freshly allocated `Graph` (and thus
//!   freshly `malloc`ed/zeroed tensors) per batch versus the `Trainer`'s
//!   recycling-arena steady state. Arithmetic is bit-identical; only
//!   allocator traffic differs, so the gap is the allocator tax the arena
//!   removes. Meaningful even on the 1-core container.
//!
//! After the Criterion arms a JSON pass (`models/{transe,transh,transr,toruse}`
//! → `BENCH_models.json`, see `sptx_bench::json`) times a steady-state epoch
//! of the paper's four models on the end-to-end benchmark's `train_models`
//! shape, sequential pool: the committed per-model number that the
//! projection-kernel and torus-score work is judged by.
//!
//! Throughput is positive training triples per second per epoch. The
//! determinism contract guarantees all arms produce bit-identical losses and
//! embeddings — only wall-clock may differ. As with `benches/eval.rs`, the
//! `t1`..`t8` sweep only differentiates on a machine with that many physical
//! cores; on a 1-core container widths beyond the core count add scheduling
//! overhead without speedup, and only the serial-vs-pool dispatch overhead
//! remains visible. The acceptance target (pool-parallel ≥ 1.3× serial at 4
//! threads) is therefore meaningful on multicore hardware only.

use std::time::Duration;

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use kg::synthetic::SyntheticKgBuilder;
use kg::{BatchPlan, Dataset, UniformSampler};
use sptransx::{Combine, KgeModel, SpTorusE, SpTransE, SpTransH, SpTransR, TrainConfig, Trainer};
use sptx_bench::harness::{steady_epoch_ms, TIMED_EPOCHS};
use tensor::optim::{Optimizer, Sgd};
use tensor::Graph;
use xparallel::PoolHandle;

const NUM_ENTITIES: usize = 2_000;
const NUM_TRIPLES: usize = 16_000;

fn bench_training_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("training_step");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));

    let ds = SyntheticKgBuilder::new(NUM_ENTITIES, 12)
        .triples(NUM_TRIPLES)
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
    let known = ds.all_known();
    let sampler = UniformSampler::new(ds.num_entities.max(2));
    let plan = BatchPlan::build(&ds.train, &known, &sampler, cfg.batch_size, cfg.seed);
    let triples_per_epoch = ds.train.len() as u64;

    let make_trainer = |pool: PoolHandle| {
        let model = SpTransE::from_config(&ds, &cfg).expect("model");
        Trainer::with_plan(model, plan.clone(), &cfg)
            .expect("trainer")
            .with_pool(pool)
    };

    // Serial baseline: built once; each iteration is one full epoch.
    let mut serial = make_trainer(PoolHandle::sequential());
    group.throughput(Throughput::Elements(triples_per_epoch));
    group.bench_function("serial", |b| {
        b.iter(|| serial.run_epochs(1).expect("epoch"));
    });

    // Buffer-lifecycle ablation on a sequential schedule: a fresh tape (and
    // fresh zeroed buffers) every batch vs the arena-recycled steady state.
    {
        let pool = PoolHandle::sequential();
        let mut model = SpTransE::from_config(&ds, &cfg).expect("model");
        model.attach_plan(&plan).expect("plan");
        let mut opt = Sgd::new(cfg.lr).with_pool(pool.clone());
        group.throughput(Throughput::Elements(triples_per_epoch));
        group.bench_function("step-alloc/fresh-graph", |b| {
            b.iter(|| {
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
        });

        let mut arena_trainer = make_trainer(PoolHandle::sequential());
        group.throughput(Throughput::Elements(triples_per_epoch));
        group.bench_function("step-alloc/arena", |b| {
            b.iter(|| arena_trainer.run_epochs(1).expect("epoch"));
        });
    }

    for &threads in &[1usize, 2, 4, 8] {
        group.throughput(Throughput::Elements(triples_per_epoch));
        let mut pooled = make_trainer(PoolHandle::global().with_width(threads));
        group.bench_with_input(
            BenchmarkId::new("pool-step", format!("t{threads}")),
            &threads,
            |b, _| {
                b.iter(|| pooled.run_epochs(1).expect("epoch"));
            },
        );
        let mut replicated =
            Trainer::replicated(&ds, &cfg, 2, Combine::AllReduce, SpTransE::from_config)
                .expect("replicas");
        group.bench_with_input(
            BenchmarkId::new("data-parallel", format!("t{threads}")),
            &threads,
            |b, &t| {
                xparallel::with_parallelism(t, || {
                    b.iter(|| replicated.run_epochs(1).expect("epoch"))
                })
            },
        );
    }
    group.finish();
}

/// Steady-state epoch ([`steady_epoch_ms`]) of one model under the shipped
/// `Trainer` on a sequential pool.
fn model_epoch_ms<M: KgeModel>(model: sptransx::Result<M>, ds: &Dataset, cfg: &TrainConfig) -> f64 {
    let mut trainer = Trainer::new(model.expect("model"), ds, cfg)
        .expect("trainer")
        .with_pool(PoolHandle::sequential());
    steady_epoch_ms(|| {
        trainer.run_epochs(1).expect("epoch");
    })
}

/// Post-Criterion JSON pass → `BENCH_models.json`: one record per paper
/// model on the `train_models` shape of the end-to-end benchmark (20 000
/// entities, 100 relations, 54 000 training triples, `dim` 64, `rel_dim` 32,
/// batches of 1024).
fn emit_json_models() {
    use sptx_bench::json::{write_bench_json, JsonObject};

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
    let records: Vec<JsonObject> = [
        (
            "models/transe",
            model_epoch_ms(SpTransE::from_config(&ds, &cfg), &ds, &cfg),
        ),
        (
            "models/transh",
            model_epoch_ms(SpTransH::from_config(&ds, &cfg), &ds, &cfg),
        ),
        (
            "models/transr",
            model_epoch_ms(SpTransR::from_config(&ds, &cfg), &ds, &cfg),
        ),
        (
            "models/toruse",
            model_epoch_ms(SpTorusE::from_config(&ds, &cfg), &ds, &cfg),
        ),
    ]
    .into_iter()
    .map(|(arm, ms)| {
        JsonObject::new()
            .str("bench", "train_models_epoch")
            .str("arm", arm)
            .int("train_triples", ds.train.len() as u64)
            .int("epochs_timed", u64::from(TIMED_EPOCHS))
            .num("ms_per_epoch", ms)
    })
    .collect();
    match write_bench_json("models", &records) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_models.json: {e}"),
    }
}

criterion_group!(benches, bench_training_step);

fn main() {
    benches();
    emit_json_models();
}
