//! Out-of-core training contract: the paged parameter store moves bytes,
//! never arithmetic.
//!
//! Three pillars, mirroring the CI `out-of-core-smoke` job in-process:
//!
//! 1. **Bit-identity** — training with the embedding table paged to backing
//!    storage under a tight cache budget produces byte-for-byte the same
//!    losses and final embeddings as the fully resident run, over both the
//!    in-RAM and file-backed [`tensor::RowStorage`] backends.
//! 2. **Counter validation** — the pager's hit/miss counters are replayed
//!    through an independent `simcache` fully-associative LRU model over the
//!    same row trace and must match *exactly* (the PR-6 query-cache idiom).
//! 3. **Failure modes** — budgets below the working set, invalid page-outs
//!    and a pagefile that fails mid-epoch refuse loudly instead of silently
//!    corrupting state (which arms may page at all is
//!    `tests/arm_soundness.rs`).
//! 4. **Layout** — the pagefile's row order follows the batch plan; it
//!    changes how many storage calls an epoch costs, and nothing else.

use std::sync::Arc;

use kg::synthetic::SyntheticKgBuilder;
use kg::Dataset;
use sptransx::{
    DenseTorusE, DenseTransE, DenseTransH, DenseTransR, FileRowStorage, KgeModel, SpComplEx,
    SpDistMult, SpRotatE, SpTorusE, SpTransC, SpTransE, SpTransH, SpTransM, SpTransR, TrainConfig,
    Trainer,
};
use tensor::paged::Schedule;
use tensor::{PageStats, RowStorage, VecStorage};

fn dataset() -> Dataset {
    SyntheticKgBuilder::new(200, 4)
        .triples(1200)
        .seed(9)
        .build()
}

fn config() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        batch_size: 16,
        dim: 8,
        lr: 0.05,
        seed: 7,
        ..Default::default()
    }
}

/// A cache budget safely above any batch's working set (≤ 3 rows per triple
/// × 2 sides × 16 triples) but well below the 200- or 204-row table, so
/// every epoch exercises eviction and write-back.
const BUDGET: usize = 96;

struct Run {
    /// Every parameter, in store order: the paged table first, then (TransH,
    /// TransR) the relation tables that stay resident beside it.
    embeddings: Vec<f32>,
    losses: Vec<f32>,
}

fn all_parameters(store: &tensor::ParamStore) -> Vec<f32> {
    let table = |id| store.value(id).as_slice();
    store
        .param_ids()
        .into_iter()
        .flat_map(table)
        .copied()
        .collect()
}

/// Fully resident training run over any model family.
fn train_resident_model<M: KgeModel>(
    ds: &Dataset,
    cfg: &TrainConfig,
    ctor: impl FnOnce(&Dataset, &TrainConfig) -> sptransx::Result<M>,
) -> Run {
    let mut trainer = Trainer::new(ctor(ds, cfg).unwrap(), ds, cfg).unwrap();
    let report = trainer.run().unwrap();
    Run {
        embeddings: all_parameters(trainer.model().store()),
        losses: report.epoch_losses,
    }
}

fn train_resident(ds: &Dataset, cfg: &TrainConfig) -> Run {
    train_resident_model(ds, cfg, SpTransE::from_config)
}

/// Trains any model family with its first table (the stacked `embeddings`,
/// or the `entities` of the others) paged out to `storage`, returning the
/// run plus the pager's counters and row trace (collected before unpaging). The pagefile is laid out by the schedule
/// the model declared from its batch plan.
fn train_paged_model<M: KgeModel>(
    ds: &Dataset,
    cfg: &TrainConfig,
    storage: Box<dyn RowStorage>,
    budget: usize,
    ctor: impl FnOnce(&Dataset, &TrainConfig) -> sptransx::Result<M>,
) -> sptransx::Result<(Run, PageStats, Vec<u32>)> {
    train_paged_laid_out(ds, cfg, storage, budget, ctor, None)
}

/// [`train_paged_model`], with the declared schedule replaced by `layout`
/// if one is given.
fn train_paged_laid_out<M: KgeModel>(
    ds: &Dataset,
    cfg: &TrainConfig,
    storage: Box<dyn RowStorage>,
    budget: usize,
    ctor: impl FnOnce(&Dataset, &TrainConfig) -> sptransx::Result<M>,
    layout: Option<Schedule>,
) -> sptransx::Result<(Run, PageStats, Vec<u32>)> {
    let mut trainer = Trainer::new(ctor(ds, cfg)?, ds, cfg)?;
    let store = trainer.model_mut().store_mut();
    let emb = store.param_ids()[0];
    if let Some(schedule) = layout {
        store.declare_schedule(emb, schedule);
    }
    store.page_out(emb, storage, budget)?;
    store.pager_mut(emb).unwrap().set_tracing(true);
    let report = trainer.run()?;
    let store = trainer.model_mut().store_mut();
    let pager = store.pager(emb).unwrap();
    let stats = pager.stats();
    let trace = pager.trace().unwrap().to_vec();
    store.unpage(emb)?;
    Ok((
        Run {
            embeddings: all_parameters(store),
            losses: report.epoch_losses,
        },
        stats,
        trace,
    ))
}

fn train_paged(
    ds: &Dataset,
    cfg: &TrainConfig,
    storage: Box<dyn RowStorage>,
    budget: usize,
) -> (Run, PageStats, Vec<u32>) {
    train_paged_model(ds, cfg, storage, budget, SpTransE::from_config).unwrap()
}

fn assert_bits_equal(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs ({x} vs {y})"
        );
    }
}

/// Replays the pager's row trace through simcache configured as a
/// fully-associative LRU of `budget` lines (one synthetic 64-byte line per
/// row), the same cross-validation idiom the serving layer uses for its
/// query cache.
fn simcache_replay(trace: &[u32], budget: usize) -> simcache::CacheStats {
    let mut sim = simcache::Cache::new(simcache::CacheConfig {
        size_bytes: budget * 64,
        line_bytes: 64,
        ways: budget,
    });
    for &row in trace {
        sim.access(u64::from(row) * 64);
    }
    sim.stats()
}

/// A scratch pagefile for one test (the process id keeps concurrent test
/// binaries apart).
fn temp_table(tag: &str, rows: usize, cols: usize) -> (std::path::PathBuf, Box<dyn RowStorage>) {
    let dir = std::env::temp_dir().join("sptx-paged-store-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}_{}.bin", std::process::id()));
    let storage = FileRowStorage::create(&path, rows, cols).unwrap();
    (path, Box::new(storage))
}

#[test]
fn paged_training_is_bit_identical_to_resident_vec_backend() {
    let ds = dataset();
    let cfg = config();
    let resident = train_resident(&ds, &cfg);
    let (rows, cols) = (204, cfg.dim);
    let (paged, stats, _) = train_paged(&ds, &cfg, Box::new(VecStorage::new(rows, cols)), BUDGET);
    assert_eq!(paged.losses, resident.losses, "per-epoch losses diverged");
    assert_bits_equal(&paged.embeddings, &resident.embeddings, "embeddings");
    // The tight budget really exercised the machinery.
    assert!(stats.evictions > 0, "no evictions at budget {BUDGET}");
    assert!(stats.write_backs > 0, "no write-backs at budget {BUDGET}");
}

#[test]
fn paged_training_is_bit_identical_to_resident_file_backend() {
    let ds = dataset();
    let cfg = config();
    let resident = train_resident(&ds, &cfg);
    let (path, storage) = temp_table("table", 204, cfg.dim);
    let (paged, stats, _) = train_paged(&ds, &cfg, storage, BUDGET);
    std::fs::remove_file(&path).ok();
    assert_eq!(paged.losses, resident.losses, "per-epoch losses diverged");
    assert_bits_equal(&paged.embeddings, &resident.embeddings, "embeddings");
    assert!(stats.write_backs > 0, "dirty rows never hit the file");
}

#[test]
fn pager_counters_match_simcache_lru_replay_exactly() {
    let ds = dataset();
    let cfg = config();
    let (_, stats, trace) = train_paged(&ds, &cfg, Box::new(VecStorage::new(204, cfg.dim)), BUDGET);
    assert_eq!(
        stats.hits + stats.misses,
        trace.len() as u64,
        "every traced access is a hit or a miss"
    );
    let sim = simcache_replay(&trace, BUDGET);
    assert_eq!(
        stats.hits, sim.hits,
        "hit counts diverge from the LRU model"
    );
    assert_eq!(
        stats.misses, sim.misses,
        "miss counts diverge from the LRU model"
    );
    // Fully associative with sequential slot fill: the first `BUDGET` misses
    // occupy free slots, every later miss evicts exactly one row.
    assert_eq!(
        stats.evictions,
        stats.misses.saturating_sub(BUDGET as u64),
        "eviction count inconsistent with fully-associative fill"
    );
}

#[test]
fn counters_match_model_at_full_table_budget_too() {
    // Budget = whole table: after compulsory misses everything hits and
    // nothing is ever evicted.
    let ds = dataset();
    let cfg = config();
    let (_, stats, trace) = train_paged(&ds, &cfg, Box::new(VecStorage::new(204, cfg.dim)), 204);
    let sim = simcache_replay(&trace, 204);
    assert_eq!((stats.hits, stats.misses), (sim.hits, sim.misses));
    assert_eq!(stats.evictions, 0);
    assert!(stats.misses <= 204, "at most one compulsory miss per row");
}

#[test]
fn budget_below_working_set_is_a_hard_error() {
    let ds = dataset();
    let cfg = config();
    let model = SpTransE::from_config(&ds, &cfg).unwrap();
    let emb = model.embedding_param();
    let mut trainer = Trainer::new(model, &ds, &cfg).unwrap();
    trainer
        .model_mut()
        .store_mut()
        .page_out(emb, Box::new(VecStorage::new(204, cfg.dim)), 4)
        .unwrap();
    let err = trainer
        .run()
        .expect_err("a 4-row budget cannot hold a batch");
    let msg = err.to_string();
    assert!(
        msg.contains("cache budget"),
        "unexpected error message: {msg}"
    );
}

#[test]
fn page_out_rejects_invalid_configurations() {
    let ds = dataset();
    let cfg = config();
    let mut model = SpTransE::from_config(&ds, &cfg).unwrap();
    let emb = model.embedding_param();
    // Shape mismatch between the parameter and the backing store.
    assert!(model
        .store_mut()
        .page_out(emb, Box::new(VecStorage::new(10, 3)), 8)
        .is_err());
    // Zero budget.
    assert!(model
        .store_mut()
        .page_out(emb, Box::new(VecStorage::new(204, cfg.dim)), 0)
        .is_err());
    // Paging out twice.
    model
        .store_mut()
        .page_out(emb, Box::new(VecStorage::new(204, cfg.dim)), 32)
        .unwrap();
    assert!(model
        .store_mut()
        .page_out(emb, Box::new(VecStorage::new(204, cfg.dim)), 32)
        .is_err());
}

#[test]
fn unpaged_table_round_trips_through_storage() {
    // page_out → a few batches → unpage restores a fully resident table
    // usable by the (paging-unaware) evaluation path.
    let ds = dataset();
    let cfg = TrainConfig {
        epochs: 1,
        ..config()
    };
    let resident = train_resident(&ds, &cfg);
    let (paged, _, _) = train_paged(&ds, &cfg, Box::new(VecStorage::new(204, cfg.dim)), BUDGET);
    assert_bits_equal(&paged.embeddings, &resident.embeddings, "one-epoch table");
}

#[test]
fn file_backend_coalesces_io_transfers_below_per_row_counts() {
    // Write coalescing: the pager batches maximal runs of adjacent rows into
    // single storage transfers, so over a full training run the *transfer*
    // counts must come in strictly below the per-row miss/write-back
    // counters — while the bytes on disk stay exactly what a row-at-a-time
    // pager would have written.
    let ds = dataset();
    let cfg = config();
    let dir = std::env::temp_dir().join("sptx-test-io-coalescing");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("emb.bin");

    let model = SpTransE::from_config(&ds, &cfg).unwrap();
    let emb = model.embedding_param();
    let mut trainer = Trainer::new(model, &ds, &cfg).unwrap();
    let store = trainer.model_mut().store_mut();
    let (rows, cols) = store.param_shape(emb);
    store
        .page_out(
            emb,
            Box::new(FileRowStorage::create(&path, rows, cols).unwrap()),
            BUDGET,
        )
        .unwrap();
    trainer.run().unwrap();

    let store = trainer.model_mut().store_mut();
    store.flush_paged(emb).unwrap();
    let pager = store.pager(emb).unwrap();
    let stats = pager.stats();
    let (reads, writes) = pager.storage_io_ops();
    let row_at = pager.row_at().to_vec();
    assert!(
        stats.misses > 0 && stats.write_backs > 0,
        "budget too loose"
    );
    assert!(
        reads < stats.misses,
        "no read coalescing: {reads} transfers for {} misses",
        stats.misses
    );
    assert!(
        writes < stats.write_backs,
        "no write coalescing: {writes} transfers for {} write-backs",
        stats.write_backs
    );

    // Unchanged bytes: the flushed file must hold exactly the table the
    // pager reassembles, row for row — in the order of the batch plan, not
    // of the ids (file row `k` is logical row `row_at[k]`).
    store.unpage(emb).unwrap();
    let final_emb = trainer.model().store().value(emb).as_slice().to_vec();
    let mut reopened = FileRowStorage::open(&path).unwrap();
    let mut from_disk = vec![0f32; rows * cols];
    reopened.read_rows_into(0, rows, &mut from_disk).unwrap();
    assert!(
        row_at.iter().enumerate().any(|(k, &r)| k != r as usize),
        "the plan's schedule did not reach the pagefile"
    );
    for (k, &r) in row_at.iter().enumerate() {
        let r = r as usize;
        assert_bits_equal(
            &from_disk[k * cols..(k + 1) * cols],
            &final_emb[r * cols..(r + 1) * cols],
            &format!("file row {k} vs table row {r}"),
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Paged over the in-RAM and the file back end at `budget`: both must match
/// `resident` bit for bit, agree with each other on every paging decision,
/// and match the simcache LRU replay of their own trace. Returns the
/// (shared) counters.
fn assert_paged_matches_resident<M: KgeModel>(
    what: &str,
    ds: &Dataset,
    cfg: &TrainConfig,
    budget: usize,
    resident: &Run,
    ctor: impl Fn(&Dataset, &TrainConfig) -> sptransx::Result<M>,
) -> PageStats {
    let model = ctor(ds, cfg).unwrap();
    let (rows, cols) = model.store().param_shape(model.store().param_ids()[0]);
    let vec = Box::new(VecStorage::new(rows, cols));
    let (in_ram, stats, trace) = train_paged_model(ds, cfg, vec, budget, &ctor).unwrap();
    let (path, file) = temp_table(what, rows, cols);
    let on_disk = train_paged_model(ds, cfg, file, budget, &ctor);
    std::fs::remove_file(&path).ok();
    let (on_disk, file_stats, file_trace) = on_disk.unwrap();

    assert_eq!(in_ram.losses, resident.losses, "{what}: losses diverged");
    assert_bits_equal(
        &in_ram.embeddings,
        &resident.embeddings,
        &format!("{what}: Vec-paged vs resident"),
    );
    assert_eq!(
        on_disk.losses, resident.losses,
        "{what}/file: losses diverged"
    );
    assert_bits_equal(
        &on_disk.embeddings,
        &resident.embeddings,
        &format!("{what}: File-paged vs resident"),
    );
    // The back end changes where bytes live, never what the cache decides.
    assert_eq!(
        file_stats, stats,
        "{what}: back end changed a paging decision"
    );
    assert_eq!(
        file_trace, trace,
        "{what}: back end changed the access trace"
    );
    let sim = simcache_replay(&trace, budget);
    assert_eq!(
        (stats.hits, stats.misses),
        (sim.hits, sim.misses),
        "{what}: counters diverge from the LRU model"
    );
    stats
}

#[test]
fn paged_training_is_bit_identical_across_model_families() {
    // Paged ≡ resident for all thirteen model families, the four gather
    // baselines included, over both storage back ends — every parameter, not
    // only the paged table. The whole suite
    // reruns under SPTX_NUM_THREADS ∈ {1, 4} in CI, covering the thread-count
    // leg.
    fn family<M: KgeModel>(
        what: &str,
        ctor: impl Fn(&Dataset, &TrainConfig) -> sptransx::Result<M>,
    ) {
        let (ds, cfg) = (dataset(), config());
        let resident = train_resident_model(&ds, &cfg, &ctor);
        let stats = assert_paged_matches_resident(what, &ds, &cfg, BUDGET, &resident, &ctor);
        assert!(
            stats.evictions > 0 && stats.write_backs > 0,
            "{what}: budget too loose to prove anything: {stats:?}"
        );
    }
    family("transe", SpTransE::from_config);
    family("toruse", SpTorusE::from_config);
    family("transh", SpTransH::from_config);
    family("transr", SpTransR::from_config);
    family("transc", SpTransC::from_config);
    family("transm", SpTransM::from_config);
    family("distmult", SpDistMult::from_config);
    family("complex", SpComplEx::from_config);
    family("rotate", SpRotatE::from_config);
    family("transe-dense", DenseTransE::from_config);
    family("toruse-dense", DenseTorusE::from_config);
    family("transh-dense", DenseTransH::from_config);
    family("transr-dense", DenseTransR::from_config);
}

#[test]
fn paged_training_is_bit_identical_under_eviction_pressure() {
    // Budget barely above the working set: nearly every miss evicts a row
    // the previous batches just dirtied, the hardest interleaving for the
    // write-back / reload path.
    let ds = dataset();
    let cfg = config();
    // Find the tightest budget that can pin every batch's working set (the
    // pager hard-errors below it), then run every arm exactly there.
    let mut budget = 40;
    loop {
        let vec = Box::new(VecStorage::new(204, cfg.dim));
        match train_paged_model(&ds, &cfg, vec, budget, SpTransE::from_config) {
            Ok(_) => break,
            Err(e) => {
                assert!(
                    e.to_string().contains("cache budget"),
                    "unexpected failure at budget {budget}: {e}"
                );
                budget += 4;
                assert!(budget <= 204, "never found a workable budget");
            }
        }
    }
    let resident = train_resident(&ds, &cfg);
    let stats = assert_paged_matches_resident(
        "pressure",
        &ds,
        &cfg,
        budget,
        &resident,
        SpTransE::from_config,
    );
    assert!(
        budget < BUDGET && stats.evictions > 0 && stats.write_backs > 0,
        "budget {budget} not tight enough: {stats:?}",
    );
}

/// The schedule whose placement is exactly `order`: step `k` touches only
/// row `order[k]`, so the signatures sort the rows into that order.
fn layout_of(order: &[u32]) -> Schedule {
    order.iter().map(|&r| vec![Arc::from([r])]).collect()
}

#[test]
fn the_pagefile_layout_never_reaches_losses_embeddings_or_lru_exactness() {
    // The plan-derived layout, the identity and a shuffle: where a row lives
    // in the file decides which rows share a storage call, and nothing a
    // model can see. Every layout's counters are those of a plain LRU fed its
    // own trace, on both back ends.
    let ds = dataset();
    let cfg = config();
    let resident = train_resident(&ds, &cfg);
    let mut shuffled: Vec<u32> = (0..204).collect();
    let mut state = 0x2545_F491u32;
    for k in (1..shuffled.len()).rev() {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        shuffled.swap(k, (state >> 8) as usize % (k + 1));
    }
    let layouts = [
        ("plan", None),
        ("identity", Some(Schedule::new())),
        ("shuffled", Some(layout_of(&shuffled))),
    ];
    let mut misses = Vec::new();
    for (what, layout) in layouts {
        let (path, file) = temp_table(what, 204, cfg.dim);
        let backends = [
            ("vec", Box::new(VecStorage::new(204, cfg.dim)) as _),
            ("file", file),
        ];
        for (backend, storage) in backends {
            let what = format!("{what}/{backend}");
            let ctor = SpTransE::from_config;
            let (run, stats, trace) =
                train_paged_laid_out(&ds, &cfg, storage, BUDGET, ctor, layout.clone()).unwrap();
            assert_eq!(run.losses, resident.losses, "{what}: losses diverged");
            assert_bits_equal(&run.embeddings, &resident.embeddings, &what);
            let sim = simcache_replay(&trace, BUDGET);
            assert_eq!(
                (stats.hits, stats.misses),
                (sim.hits, sim.misses),
                "{what}: counters diverge from the LRU model"
            );
            assert!(stats.evictions > 0 && stats.write_backs > 0, "{what}");
            misses.push(stats.misses);
        }
        std::fs::remove_file(&path).ok();
    }
    // The order of a call's misses is the layout's, so LRU ties break
    // differently: the counters are each exact, not all equal.
    assert_eq!(misses[0], misses[1], "the back end changed a decision");
}

#[test]
fn schedule_order_turns_an_epochs_rows_into_a_few_storage_calls() {
    // A Zipf graph (a hot head every batch touches, a long tail each batch
    // touches once) and a cache of about a batch and a half: in a steady
    // epoch nearly every tail row is a miss and a write-back, and the
    // schedule order moves them in runs. Exact counters, no clock.
    let ds = SyntheticKgBuilder::new(20000, 6)
        .triples(6000)
        .zipf_exponent(1.0)
        .seed(3)
        .build();
    let cfg = TrainConfig {
        batch_size: 256,
        dim: 8,
        ..config()
    };
    let model = SpTransE::from_config(&ds, &cfg).unwrap();
    let emb = model.embedding_param();
    let mut trainer = Trainer::new(model, &ds, &cfg).unwrap();
    let store = trainer.model_mut().store_mut();
    let (rows, cols) = store.param_shape(emb);
    let (path, storage) = temp_table("zipf", rows, cols);
    store.page_out(emb, storage, 1500).unwrap();
    trainer.run_epochs(1).unwrap();
    let counters = |trainer: &Trainer<SpTransE>| {
        let pager = trainer.model().store().pager(emb).unwrap();
        (pager.stats(), pager.storage_io_ops())
    };
    let (before, (reads0, writes0)) = counters(&trainer);
    trainer.run_epochs(1).unwrap();
    let (after, (reads1, writes1)) = counters(&trainer);
    std::fs::remove_file(&path).ok();
    let (misses, write_backs) = (
        after.misses - before.misses,
        after.write_backs - before.write_backs,
    );
    let (reads, writes) = (reads1 - reads0, writes1 - writes0);
    assert!(misses > 3000 && write_backs > 3000, "{after:?}: too tame");
    assert!(
        4 * reads < misses,
        "{reads} read calls for {misses} misses in the second epoch"
    );
    assert!(
        4 * writes < write_backs,
        "{writes} write calls for {write_backs} write-backs in the second epoch"
    );
}

/// A pagefile whose `fail_at`-th read (0-based) fails; reads are counted in
/// `reads`, which outlives the storage.
#[derive(Debug)]
struct FailingRead {
    inner: VecStorage,
    reads: Arc<std::sync::atomic::AtomicU64>,
    fail_at: u64,
}

impl RowStorage for FailingRead {
    fn rows(&self) -> usize {
        self.inner.rows()
    }
    fn cols(&self) -> usize {
        self.inner.cols()
    }
    fn read_rows_into(
        &mut self,
        first: usize,
        count: usize,
        out: &mut [f32],
    ) -> std::io::Result<()> {
        let call = self
            .reads
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if call == self.fail_at {
            return Err(std::io::Error::other("injected EIO on read"));
        }
        self.inner.read_rows_into(first, count, out)
    }
    fn write_rows(&mut self, first: usize, count: usize, data: &[f32]) -> std::io::Result<()> {
        self.inner.write_rows(first, count, data)
    }
}

#[test]
fn a_pagefile_fault_in_the_epoch_end_renormalization_fails_the_run() {
    // The end-of-epoch hook has no error channel; the trainer must still
    // return the fault, not panic and not train on. The first epoch's
    // renormalization is a page-through of the whole table and the epoch's
    // last phase, so the epoch's last read is inside it: count the reads of
    // a clean epoch, then fail that one.
    let ds = dataset();
    let cfg = config();
    let epoch_with_fault_at = |fail_at: u64| {
        let reads = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let storage = FailingRead {
            inner: VecStorage::new(204, cfg.dim),
            reads: reads.clone(),
            fail_at,
        };
        let model = SpTransE::from_config(&ds, &cfg).unwrap();
        let emb = model.embedding_param();
        let mut trainer = Trainer::new(model, &ds, &cfg).unwrap();
        let store = trainer.model_mut().store_mut();
        store.page_out(emb, Box::new(storage), BUDGET).unwrap();
        let outcome = trainer.run_epochs(1).map(|_| ());
        (outcome, reads.load(std::sync::atomic::Ordering::Relaxed))
    };
    let (clean, reads) = epoch_with_fault_at(u64::MAX);
    clean.unwrap();
    let (faulted, _) = epoch_with_fault_at(reads - 1);
    let msg = faulted.expect_err("the fault must surface").to_string();
    assert!(
        msg.contains("renormalization sweep of 'embeddings'") && msg.contains("injected EIO"),
        "unexpected error: {msg}"
    );
}
