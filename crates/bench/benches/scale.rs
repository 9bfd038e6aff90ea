//! Entity-count scaling of the per-batch training step — the touched-row
//! gradient contract's acceptance bench.
//!
//! The paper's premise is that TransX training is row-sparse: a batch of
//! `B` triples touches `O(B)` embedding rows out of `N`. With the
//! touched-row pipeline (sparse `zero_grads`, listed backward kernels,
//! touched-row SGD), per-batch step time depends on the **batch**, not the
//! table: the `sparse` arm must stay flat (±20%) across a 10k → 1M entity
//! sweep at fixed batch size. The `dense-grads` ablation arm
//! (`TrainConfig::dense_grads` / `ParamStore::set_dense_grads`, the same
//! switch as `sptx train --dense-grads true`) restores the pre-contract
//! full-table sweeps and must grow roughly linearly in `N` — the two arms
//! are bit-identical in results (see `tests/sparse_grad_properties.rs`),
//! so the gap is pure bookkeeping cost.
//!
//! Two benchmark groups share the controlled batch:
//!
//! * `scale` — one synchronous training step (zero grads, tape reset,
//!   forward, loss, backward, SGD) on a single fixed-size batch. Per-epoch
//!   model constraints (entity renormalization) are excluded to isolate the
//!   *per-batch* cost the gradient contract bounds.
//! * `scale_epoch` — a whole epoch (the same triples split into 8 batches)
//!   **including** `end_epoch()` renormalization. With the touched-row
//!   dirty sets the renorm sweep visits `O(batch · epochs)` rows, so the
//!   `sparse` arm stays flat (±20%) across the sweep; the `dense-grads`
//!   ablation re-marks every row dirty each step and its `O(N · d)`
//!   full-table renorm grows roughly linearly in `N`. (The first epoch
//!   after construction renormalizes every row — all rows start dirty —
//!   and criterion's warm-up absorbs it.)
//!
//! **Controlled variable:** the batch is held **byte-identical** across the
//! sweep — every dataset uses the same triples over entities `0..10k`
//! (negatives included), and only the declared entity count (and therefore
//! the embedding-table height) grows. Sampling triples from the full range
//! instead would shrink duplicate-row collisions and scatter the touched
//! rows across a larger working set as `N` grows — real effects, but
//! cache-locality ones that any gather-based implementation pays per
//! *distinct touched row*; the contract under test is about `O(N)`
//! full-table sweeps, so the sweep isolates exactly those.
//!
//! Run with `cargo bench -p sptx-bench --bench scale`. The flat-vs-linear
//! separation shows on any machine — it is allocator/memory-bound, not
//! core-count-bound.

use std::time::Duration;

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use kg::synthetic::SyntheticKgBuilder;
use kg::{BatchPlan, UniformSampler};
use sptransx::{KgeModel, SpTransE, TrainConfig};
use sptx_bench::harness::{steady_epoch_ms, TIMED_EPOCHS};
use tensor::optim::{Optimizer, Sgd};
use tensor::Graph;
use xparallel::PoolHandle;

/// Positive triples per batch; the whole (train-split) plan is one batch so
/// every size in the sweep steps over an identically-sized batch.
const TRIPLES: usize = 2_048;
const DIM: usize = 16;
/// Entity range the fixed batch actually references (see module docs).
const ACTIVE_ENTITIES: usize = 10_000;

fn bench_entity_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));

    // One batch over entities 0..10k, reused verbatim at every table size.
    let base = SyntheticKgBuilder::new(ACTIVE_ENTITIES, 8)
        .triples(TRIPLES)
        .seed(0x5CA1E)
        .build();
    let known = base.all_known();
    // Negatives stay inside the active range too, keeping the batch
    // byte-identical while the table grows.
    let sampler = UniformSampler::new(ACTIVE_ENTITIES);

    for &(entities, label) in &[(10_000usize, "10k"), (100_000, "100k"), (1_000_000, "1M")] {
        let mut ds = base.clone();
        ds.num_entities = entities;
        for dense_grads in [false, true] {
            let cfg = TrainConfig {
                epochs: 1,
                batch_size: TRIPLES, // one batch per epoch: fixed batch size
                dim: DIM,
                rel_dim: DIM / 2,
                lr: 0.01,
                dense_grads,
                ..Default::default()
            };
            let plan = BatchPlan::build(&ds.train, &known, &sampler, cfg.batch_size, cfg.seed);
            let batch_rows = plan.batch(0).len() as u64;
            let mut model = SpTransE::from_config(&ds, &cfg).expect("model");
            model.attach_plan(&plan).expect("plan");
            model.store_mut().set_dense_grads(cfg.dense_grads);
            let mut opt = Sgd::new(cfg.lr);
            opt.set_pool(&PoolHandle::global());
            let mut graph = Graph::new();

            let arm = if dense_grads { "dense-grads" } else { "sparse" };
            group.throughput(Throughput::Elements(batch_rows));
            group.bench_with_input(BenchmarkId::new(arm, label), &entities, |b, _| {
                b.iter(|| {
                    model.store_mut().zero_grads();
                    graph.reset();
                    let (pos, neg) = model.score_batch(&mut graph, 0);
                    let loss = graph.margin_ranking_loss(pos, neg, cfg.margin);
                    graph.backward(loss, model.store_mut());
                    opt.step(model.store_mut());
                });
            });
        }
    }
    group.finish();
}

/// Positive triples per `scale_epoch` batch: the same 2 048-triple plan as
/// the per-batch group, split into 8 batches so the epoch loop exercises
/// multi-batch dirty-set accumulation before the renorm sweep.
const EPOCH_BATCH: usize = 256;

fn bench_epoch_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale_epoch");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));

    let base = SyntheticKgBuilder::new(ACTIVE_ENTITIES, 8)
        .triples(TRIPLES)
        .seed(0x5CA1E)
        .build();
    let known = base.all_known();
    let sampler = UniformSampler::new(ACTIVE_ENTITIES);

    for &(entities, label) in &[(10_000usize, "10k"), (100_000, "100k"), (1_000_000, "1M")] {
        let mut ds = base.clone();
        ds.num_entities = entities;
        for dense_grads in [false, true] {
            let cfg = TrainConfig {
                epochs: 1,
                batch_size: EPOCH_BATCH,
                dim: DIM,
                rel_dim: DIM / 2,
                lr: 0.01,
                dense_grads,
                ..Default::default()
            };
            let plan = BatchPlan::build(&ds.train, &known, &sampler, cfg.batch_size, cfg.seed);
            let epoch_rows: u64 = (0..plan.num_batches())
                .map(|b| plan.batch(b).len() as u64)
                .sum();
            let mut model = SpTransE::from_config(&ds, &cfg).expect("model");
            model.attach_plan(&plan).expect("plan");
            model.store_mut().set_dense_grads(cfg.dense_grads);
            let mut opt = Sgd::new(cfg.lr);
            opt.set_pool(&PoolHandle::global());
            let mut graph = Graph::new();

            let arm = if dense_grads { "dense-grads" } else { "sparse" };
            group.throughput(Throughput::Elements(epoch_rows));
            group.bench_with_input(BenchmarkId::new(arm, label), &entities, |b, _| {
                b.iter(|| {
                    for bi in 0..model.num_batches() {
                        model.store_mut().zero_grads();
                        graph.reset();
                        let (pos, neg) = model.score_batch(&mut graph, bi);
                        let loss = graph.margin_ranking_loss(pos, neg, cfg.margin);
                        graph.backward(loss, model.store_mut());
                        opt.step(model.store_mut());
                    }
                    model.end_epoch();
                });
            });
        }
    }
    group.finish();
}

/// The largest per-batch working set of a plan: distinct stacked-matrix rows
/// (`h`, `t`, `N + r`) across a batch's positive and negative triples. The
/// paged arm's cache budget must be at least this to pin a batch.
fn max_batch_working_set(plan: &BatchPlan, num_entities: usize) -> usize {
    (0..plan.num_batches())
        .map(|i| {
            let batch = plan.batch(i);
            let mut rows: Vec<u32> = Vec::with_capacity(6 * batch.len());
            for store in [&batch.pos, &batch.neg] {
                rows.extend_from_slice(store.heads());
                rows.extend_from_slice(store.tails());
                rows.extend(store.rels().iter().map(|&r| num_entities as u32 + r));
            }
            rows.sort_unstable();
            rows.dedup();
            rows.len()
        })
        .max()
        .unwrap_or(0)
}

/// Out-of-core arm: the same epoch loop as `scale_epoch`'s sparse arm, but
/// with the embedding table paged out to backing storage and only a
/// budgeted row cache resident. The budget sweeps 1% / 10% / 100% of the
/// table (clamped from below to the batch working set — a smaller cache
/// cannot pin a batch and is a hard error by contract), measuring how the
/// paging overhead (LRU bookkeeping, row copies, dirty write-backs)
/// shrinks as the cache approaches the table. In-RAM `VecStorage` backs
/// the table so the sweep isolates pager cost from disk latency; arithmetic
/// is bit-identical to the resident arms by the paging contract.
fn bench_paged_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale_paged");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));

    let base = SyntheticKgBuilder::new(ACTIVE_ENTITIES, 8)
        .triples(TRIPLES)
        .seed(0x5CA1E)
        .build();
    let known = base.all_known();
    let sampler = UniformSampler::new(ACTIVE_ENTITIES);

    for &(entities, label) in &[(10_000usize, "10k"), (100_000, "100k"), (1_000_000, "1M")] {
        let mut ds = base.clone();
        ds.num_entities = entities;
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: EPOCH_BATCH,
            dim: DIM,
            rel_dim: DIM / 2,
            lr: 0.01,
            ..Default::default()
        };
        let plan = BatchPlan::build(&ds.train, &known, &sampler, cfg.batch_size, cfg.seed);
        let epoch_rows: u64 = (0..plan.num_batches())
            .map(|b| plan.batch(b).len() as u64)
            .sum();
        let working_set = max_batch_working_set(&plan, entities);

        for &(pct, pct_label) in &[(1usize, "1pct"), (10, "10pct"), (100, "100pct")] {
            let mut model = SpTransE::from_config(&ds, &cfg).expect("model");
            model.attach_plan(&plan).expect("plan");
            let emb = model.embedding_param();
            let (rows, cols) = model.store().param_shape(emb);
            let budget = (rows * pct / 100).max(working_set).min(rows);
            model
                .store_mut()
                .page_out(emb, Box::new(tensor::VecStorage::new(rows, cols)), budget)
                .expect("page out");
            let mut opt = Sgd::new(cfg.lr);
            opt.set_pool(&PoolHandle::global());
            let mut graph = Graph::new();

            group.throughput(Throughput::Elements(epoch_rows));
            group.bench_with_input(BenchmarkId::new(pct_label, label), &entities, |b, _| {
                b.iter(|| {
                    for bi in 0..model.num_batches() {
                        model.store_mut().zero_grads();
                        model.page_in_batch(bi).expect("page in");
                        graph.reset();
                        let (pos, neg) = model.score_batch(&mut graph, bi);
                        let loss = graph.margin_ranking_loss(pos, neg, cfg.margin);
                        graph.backward(loss, model.store_mut());
                        opt.step(model.store_mut());
                    }
                    model.end_epoch();
                });
            });
        }
    }
    group.finish();
}

/// Post-Criterion JSON pass: re-times a steady-state epoch
/// ([`steady_epoch_ms`]) of the sparse and dense-grads arms at each table
/// size and writes the records to `BENCH_scale.json` (see
/// `sptx_bench::json`) — plain numbers scripts can diff, next to
/// Criterion's distribution estimates.
fn emit_json() {
    use sptx_bench::json::{write_bench_json, JsonObject};

    let base = SyntheticKgBuilder::new(ACTIVE_ENTITIES, 8)
        .triples(TRIPLES)
        .seed(0x5CA1E)
        .build();
    let known = base.all_known();
    let sampler = UniformSampler::new(ACTIVE_ENTITIES);
    let mut records = Vec::new();

    for &(entities, label) in &[(10_000usize, "10k"), (100_000, "100k"), (1_000_000, "1M")] {
        let mut ds = base.clone();
        ds.num_entities = entities;
        for dense_grads in [false, true] {
            let cfg = TrainConfig {
                epochs: 1,
                batch_size: EPOCH_BATCH,
                dim: DIM,
                rel_dim: DIM / 2,
                lr: 0.01,
                dense_grads,
                ..Default::default()
            };
            let plan = BatchPlan::build(&ds.train, &known, &sampler, cfg.batch_size, cfg.seed);
            let mut model = SpTransE::from_config(&ds, &cfg).expect("model");
            model.attach_plan(&plan).expect("plan");
            model.store_mut().set_dense_grads(cfg.dense_grads);
            let mut opt = Sgd::new(cfg.lr);
            opt.set_pool(&PoolHandle::global());
            let mut graph = Graph::new();

            let epoch = |model: &mut SpTransE, graph: &mut Graph, opt: &mut Sgd| {
                for bi in 0..model.num_batches() {
                    model.store_mut().zero_grads();
                    graph.reset();
                    let (pos, neg) = model.score_batch(graph, bi);
                    let loss = graph.margin_ranking_loss(pos, neg, cfg.margin);
                    graph.backward(loss, model.store_mut());
                    opt.step(model.store_mut());
                }
                model.end_epoch();
            };
            let ms = steady_epoch_ms(|| epoch(&mut model, &mut graph, &mut opt));

            records.push(
                JsonObject::new()
                    .str("bench", "scale_epoch")
                    .str("arm", if dense_grads { "dense-grads" } else { "sparse" })
                    .str("entities", label)
                    .int("entity_count", entities as u64)
                    .num("ms_per_epoch", ms),
            );
        }
    }

    match write_bench_json("scale", &records) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_scale.json: {e}"),
    }
}

/// Out-of-core JSON pass → `BENCH_paged.json`: a steady-state epoch
/// ([`steady_epoch_ms`]) per arm, across the
/// budget sweep (in-RAM backing) and two disk-backed (`FileRowStorage`
/// pagefile) arms at the tightest budgets. Each record carries the
/// per-epoch time, its cost relative to the resident sparse epoch at the
/// same table size, and one further epoch's exact traffic: backend
/// `read_ops` / `write_ops` (calls, zero for the in-RAM backing, which does
/// not count them) and the pager's `hit_rate` (bit-identity across arms is
/// the paging contract, enforced by the test suites).
fn emit_json_paged() {
    use sptransx::FileRowStorage;
    use sptx_bench::json::{write_bench_json, JsonObject};

    let base = SyntheticKgBuilder::new(ACTIVE_ENTITIES, 8)
        .triples(TRIPLES)
        .seed(0x5CA1E)
        .build();
    let known = base.all_known();
    let sampler = UniformSampler::new(ACTIVE_ENTITIES);
    let mut records = Vec::new();
    let pagefile =
        std::env::temp_dir().join(format!("sptx_bench_paged_{}.bin", std::process::id()));

    for &(entities, label) in &[(10_000usize, "10k"), (100_000, "100k"), (1_000_000, "1M")] {
        let mut ds = base.clone();
        ds.num_entities = entities;
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: EPOCH_BATCH,
            dim: DIM,
            rel_dim: DIM / 2,
            lr: 0.01,
            ..Default::default()
        };
        let plan = BatchPlan::build(&ds.train, &known, &sampler, cfg.batch_size, cfg.seed);
        let working_set = max_batch_working_set(&plan, entities);

        let epoch = |model: &mut SpTransE, graph: &mut Graph, opt: &mut Sgd| {
            for bi in 0..model.num_batches() {
                model.store_mut().zero_grads();
                model.page_in_batch(bi).expect("page in");
                graph.reset();
                let (pos, neg) = model.score_batch(graph, bi);
                let loss = graph.margin_ranking_loss(pos, neg, cfg.margin);
                graph.backward(loss, model.store_mut());
                opt.step(model.store_mut());
            }
            model.end_epoch();
        };

        // Resident sparse epoch at this table size: the denominator for
        // every arm's relative-cost column.
        let resident_ms = {
            let mut model = SpTransE::from_config(&ds, &cfg).expect("model");
            model.attach_plan(&plan).expect("plan");
            let mut opt = Sgd::new(cfg.lr);
            opt.set_pool(&PoolHandle::global());
            let mut graph = Graph::new();
            steady_epoch_ms(|| epoch(&mut model, &mut graph, &mut opt))
        };

        // `pct = 0` pins the budget to the batch working set itself — the
        // tightest legal cache. The percentage budgets grow with the table
        // while the (byte-identical) batch's traffic does not, so at 1M
        // entities even 1 % already holds the whole active row range; the
        // `ws` arm keeps the eviction churn — the I/O-bound regime — at
        // every table size.
        for &(disk, pct, arm) in &[
            (false, 1usize, "ram-1pct"),
            (false, 10, "ram-10pct"),
            (false, 100, "ram-100pct"),
            (true, 1, "disk-1pct"),
            (true, 0, "disk-ws"),
        ] {
            let mut model = SpTransE::from_config(&ds, &cfg).expect("model");
            model.attach_plan(&plan).expect("plan");
            let emb = model.embedding_param();
            let (rows, cols) = model.store().param_shape(emb);
            let budget = (rows * pct / 100).max(working_set).min(rows);
            let storage: Box<dyn tensor::RowStorage> = if disk {
                Box::new(FileRowStorage::create(&pagefile, rows, cols).expect("pagefile"))
            } else {
                Box::new(tensor::VecStorage::new(rows, cols))
            };
            model
                .store_mut()
                .page_out(emb, storage, budget)
                .expect("page out");
            let mut opt = Sgd::new(cfg.lr);
            opt.set_pool(&PoolHandle::global());
            let mut graph = Graph::new();
            let ms = steady_epoch_ms(|| epoch(&mut model, &mut graph, &mut opt));
            // One more (untimed) epoch for the exact per-epoch traffic: the
            // pager's row counters and the backend's call counters.
            let counters = |model: &SpTransE| {
                let pager = model.store().pager(emb).expect("paged");
                (pager.stats(), pager.storage_io_ops())
            };
            let (stats0, (reads0, writes0)) = counters(&model);
            epoch(&mut model, &mut graph, &mut opt);
            let (stats, (reads, writes)) = counters(&model);
            let (hits, misses) = (stats.hits - stats0.hits, stats.misses - stats0.misses);

            records.push(
                JsonObject::new()
                    .str("bench", "scale_paged")
                    .str("arm", arm)
                    .str("entities", label)
                    .int("entity_count", entities as u64)
                    .int("budget_rows", budget as u64)
                    .int("epochs_timed", u64::from(TIMED_EPOCHS))
                    .num("ms_per_epoch", ms)
                    .num("cost_vs_resident", ms / resident_ms)
                    .int("read_ops", reads - reads0)
                    .int("write_ops", writes - writes0)
                    .num("hit_rate", hits as f64 / (hits + misses).max(1) as f64),
            );
        }
    }
    let _ = std::fs::remove_file(&pagefile);

    match write_bench_json("paged", &records) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_paged.json: {e}"),
    }
}

criterion_group!(
    benches,
    bench_entity_scaling,
    bench_epoch_scaling,
    bench_paged_scaling
);

fn main() {
    benches();
    emit_json();
    emit_json_paged();
}
