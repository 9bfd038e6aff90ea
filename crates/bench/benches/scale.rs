//! Entity-count scaling of a training epoch — the touched-row gradient
//! contract's acceptance bench — and its out-of-core counterpart.
//!
//! The paper's premise is that TransX training is row-sparse: a batch of
//! `B` triples touches `O(B)` embedding rows out of `N`. With the
//! touched-row pipeline (sparse `zero_grads`, listed backward kernels,
//! touched-row SGD, dirty-set renormalization), epoch time depends on the
//! **batches**, not the table: the `sparse` arm must stay flat (±20%) across
//! a 10k → 1M entity sweep. The `dense-grads` ablation arm
//! (`TrainConfig::dense_grads`, the same switch as
//! `sptx train --dense-grads true`) restores the full-table sweeps and must
//! grow roughly linearly in `N` — the two arms are bit-identical in results
//! (see `tests/sparse_grad_properties.rs`), so the gap is pure bookkeeping
//! cost.
//!
//! Two passes, each timing a steady-state epoch through `Trainer` with
//! [`time_arm`]:
//!
//! * `BENCH_scale.json` — the `sparse` and `dense-grads` arms at each table
//!   size, with the gradient bytes the store holds after the timed epochs
//!   (`ParamStore::grad_bytes`: flat for `sparse`, the sized-for-the-batch
//!   slot buffer; linear in `N` for `dense-grads`, whose all-rows state gives
//!   every row a slot);
//! * `BENCH_paged.json` — the table paged out behind a row cache: a budget
//!   sweep over in-RAM backing, which isolates pager cost from disk latency,
//!   and two disk-backed (`FileRowStorage` pagefile) arms at the tightest
//!   budgets, with one further epoch's exact traffic per arm.
//!
//! **Controlled variable:** the batches are held **byte-identical** across
//! the sweep — every dataset uses the same 2 048 triples over entities
//! `0..10k` (negatives included), and only the declared entity count (and
//! therefore the embedding-table height) grows. Sampling triples from the
//! full range instead would shrink duplicate-row collisions and scatter the
//! touched rows across a larger working set as `N` grows — real effects,
//! but cache-locality ones that any gather-based implementation pays per
//! *distinct touched row*; the contract under test is about `O(N)`
//! full-table sweeps, so the sweep isolates exactly those.
//!
//! Run with `SPTX_NUM_THREADS=1 cargo bench -p sptx-bench --bench scale`.

use kg::synthetic::SyntheticKgBuilder;
use kg::{BatchPlan, Dataset, UniformSampler};
use sptransx::{FileRowStorage, KgeModel, SpTransE, TrainConfig, Trainer};
use sptx_bench::harness::{time_arm, TIMED_RUNS};
use sptx_bench::json::{write_bench_json, JsonObject};
use xparallel::PoolHandle;

/// Positive triples per epoch, in batches of [`EPOCH_BATCH`].
const TRIPLES: usize = 2_048;
const EPOCH_BATCH: usize = 256;
const DIM: usize = 16;
/// Entity range the fixed batches actually reference (see module docs).
const ACTIVE_ENTITIES: usize = 10_000;

fn config(dense_grads: bool) -> TrainConfig {
    TrainConfig {
        epochs: 1,
        batch_size: EPOCH_BATCH,
        dim: DIM,
        rel_dim: DIM / 2,
        lr: 0.01,
        dense_grads,
        ..Default::default()
    }
}

/// One `(label, dataset, plan)` per table size: the same plan over entities
/// `0..10k` every time — negatives stay inside that range too — while the
/// declared entity count grows.
fn sweep() -> Vec<(&'static str, Dataset, BatchPlan)> {
    let base = SyntheticKgBuilder::new(ACTIVE_ENTITIES, 8)
        .triples(TRIPLES)
        .seed(0x5CA1E)
        .build();
    let known = base.all_known();
    let sampler = UniformSampler::new(ACTIVE_ENTITIES);
    [(10_000usize, "10k"), (100_000, "100k"), (1_000_000, "1M")]
        .into_iter()
        .map(|(entities, label)| {
            let mut ds = base.clone();
            ds.num_entities = entities;
            let plan =
                BatchPlan::build(&ds.train, &known, &sampler, EPOCH_BATCH, config(false).seed);
            (label, ds, plan)
        })
        .collect()
}

fn trainer(ds: &Dataset, plan: &BatchPlan, dense_grads: bool) -> Trainer<SpTransE> {
    let cfg = config(dense_grads);
    let model = SpTransE::from_config(ds, &cfg).expect("model");
    let trainer = Trainer::with_plan(model, plan.clone(), &cfg).expect("trainer");
    trainer.with_pool(PoolHandle::global())
}

fn epoch(trainer: &mut Trainer<SpTransE>) {
    trainer.run_epochs(1).expect("epoch");
}

fn write(name: &str, records: &[JsonObject]) {
    match write_bench_json(name, records) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_{name}.json: {e}"),
    }
}

/// `BENCH_scale.json`: the sparse and dense-grads arms at each table size.
fn emit_json(sweep: &[(&str, Dataset, BatchPlan)]) {
    let mut records = Vec::new();
    for (label, ds, plan) in sweep {
        for (dense_grads, arm) in [(false, "sparse"), (true, "dense-grads")] {
            let mut t = trainer(ds, plan, dense_grads);
            let triples = Some(ds.train.len() as u64);
            let ms = time_arm(&format!("scale_epoch/{arm}/{label}"), triples, || {
                epoch(&mut t)
            });
            records.push(
                JsonObject::new()
                    .str("bench", "scale_epoch")
                    .str("arm", arm)
                    .str("entities", label)
                    .int("entity_count", ds.num_entities as u64)
                    .num("ms_per_epoch", ms)
                    .int("grad_bytes", t.model().store().grad_bytes()),
            );
        }
    }
    write("scale", &records);
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

/// `BENCH_paged.json`: a steady-state epoch per arm, its cost relative to
/// the resident sparse epoch at the same table size, and one further
/// epoch's exact traffic — backend `read_ops` / `write_ops` (calls, zero for
/// the in-RAM backing, which does not count them) and the pager's
/// `hit_rate` (bit-identity across arms is the paging contract, enforced by
/// the test suites).
fn emit_json_paged(sweep: &[(&str, Dataset, BatchPlan)]) {
    let mut records = Vec::new();
    let pagefile =
        std::env::temp_dir().join(format!("sptx_bench_paged_{}.bin", std::process::id()));

    for (label, ds, plan) in sweep {
        let entities = ds.num_entities;
        let triples = Some(ds.train.len() as u64);
        let working_set = max_batch_working_set(plan, entities);
        let resident_ms = {
            let mut t = trainer(ds, plan, false);
            time_arm(&format!("scale_paged/resident/{label}"), triples, || {
                epoch(&mut t)
            })
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
            let mut t = trainer(ds, plan, false);
            let emb = t.model().embedding_param();
            let (rows, cols) = t.model().store().param_shape(emb);
            let budget = (rows * pct / 100).max(working_set).min(rows);
            let storage: Box<dyn tensor::RowStorage> = if disk {
                Box::new(FileRowStorage::create(&pagefile, rows, cols).expect("pagefile"))
            } else {
                Box::new(tensor::VecStorage::new(rows, cols))
            };
            let store = t.model_mut().store_mut();
            store.page_out(emb, storage, budget).expect("page out");
            let ms = time_arm(&format!("scale_paged/{arm}/{label}"), triples, || {
                epoch(&mut t)
            });
            // One more epoch for the exact per-epoch traffic: the pager's
            // row counters and the backend's call counters.
            let counters = |t: &Trainer<SpTransE>| {
                let pager = t.model().store().pager(emb).expect("paged");
                (pager.stats(), pager.storage_io_ops())
            };
            let (stats0, (reads0, writes0)) = counters(&t);
            epoch(&mut t);
            let (stats, (reads, writes)) = counters(&t);
            let (hits, misses) = (stats.hits - stats0.hits, stats.misses - stats0.misses);

            records.push(
                JsonObject::new()
                    .str("bench", "scale_paged")
                    .str("arm", arm)
                    .str("entities", label)
                    .int("entity_count", entities as u64)
                    .int("budget_rows", budget as u64)
                    .int("epochs_timed", u64::from(TIMED_RUNS))
                    .num("ms_per_epoch", ms)
                    .num("cost_vs_resident", ms / resident_ms)
                    .int("read_ops", reads - reads0)
                    .int("write_ops", writes - writes0)
                    .num("hit_rate", hits as f64 / (hits + misses).max(1) as f64),
            );
        }
    }
    let _ = std::fs::remove_file(&pagefile);
    write("paged", &records);
}

fn main() {
    let sweep = sweep();
    emit_json(&sweep);
    emit_json_paged(&sweep);
}
