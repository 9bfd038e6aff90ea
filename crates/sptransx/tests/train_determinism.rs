//! The training determinism contract, asserted bit-for-bit.
//!
//! The pool-parallel training step promises: epoch losses and final
//! embeddings are **bit-identical** at any pool width (any
//! `SPTX_NUM_THREADS`). These tests pin tape handles to explicit widths —
//! which may exceed the physical worker count, so the wide schedules are
//! exercised even on a 1-core CI machine — and compare `f32` bits, not
//! tolerances. CI additionally re-runs this suite under
//! `SPTX_NUM_THREADS=1` and `=4` and diffs a cross-process CLI run.

use kg::synthetic::SyntheticKgBuilder;
use kg::{BatchPlan, Dataset, Triple, TripleSet, TripleStore, UniformSampler};
use sptransx::{
    Combine, KgeModel, SamplerKind, SpComplEx, SpDistMult, SpRotatE, SpTransE, SpTransH, SpTransR,
    TrainConfig, TrainReport, Trainer,
};
use xparallel::PoolHandle;

fn dataset() -> Dataset {
    SyntheticKgBuilder::new(70, 5).triples(600).seed(77).build()
}

fn config() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        batch_size: 96,
        dim: 12,
        rel_dim: 6,
        lr: 0.05,
        ..Default::default()
    }
}

/// An all-reduce run of `workers` SpTransE replicas: its report and rank 0.
fn all_reduce(ds: &Dataset, cfg: &TrainConfig, workers: usize) -> (TrainReport, SpTransE) {
    let mut trainer =
        Trainer::replicated(ds, cfg, workers, Combine::AllReduce, SpTransE::from_config).unwrap();
    (trainer.run().unwrap(), trainer.into_model())
}

/// Losses and final parameters of one training run at a pinned pool width.
fn run_at_width<M, F>(width: usize, make: F) -> (Vec<f32>, Vec<Vec<f32>>)
where
    M: KgeModel,
    F: FnOnce(&Dataset, &TrainConfig) -> M,
{
    let ds = dataset();
    let cfg = config();
    let model = make(&ds, &cfg);
    let mut trainer = Trainer::new(model, &ds, &cfg)
        .unwrap()
        .with_pool(PoolHandle::global().with_width(width));
    let report = trainer.run().unwrap();
    let model = trainer.into_model();
    let params = model
        .store()
        .param_ids()
        .into_iter()
        .map(|id| model.store().value(id).as_slice().to_vec())
        .collect();
    (report.epoch_losses, params)
}

fn assert_bitwise_equal(a: &(Vec<f32>, Vec<Vec<f32>>), b: &(Vec<f32>, Vec<Vec<f32>>), ctx: &str) {
    assert_eq!(a.0.len(), b.0.len(), "{ctx}: epoch count differs");
    for (i, (x, y)) in a.0.iter().zip(&b.0).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: epoch {i} loss {x} vs {y}");
    }
    assert_eq!(a.1.len(), b.1.len(), "{ctx}: parameter count differs");
    for (p, (pa, pb)) in a.1.iter().zip(&b.1).enumerate() {
        assert_eq!(pa.len(), pb.len(), "{ctx}: param {p} length differs");
        for (j, (x, y)) in pa.iter().zip(pb).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{ctx}: param {p} element {j}: {x} vs {y}"
            );
        }
    }
}

/// One model family per kernel family: TransE (spmm + L2 norm), TransH
/// (gather / row_dot / scale_rows), TransR (project_rows + scatter outer),
/// DistMult, RotatE and ComplEx (the semiring score under its three kinds).
macro_rules! width_invariance_test {
    ($name:ident, $model:ty) => {
        #[test]
        fn $name() {
            let make = |ds: &Dataset, cfg: &TrainConfig| <$model>::from_config(ds, cfg).unwrap();
            let base = run_at_width(1, make);
            assert!(
                base.0.iter().all(|l| l.is_finite()),
                "losses must be finite"
            );
            for width in [2usize, 4, 8] {
                let wide = run_at_width(width, make);
                assert_bitwise_equal(
                    &base,
                    &wide,
                    &format!("{} width {width}", stringify!($model)),
                );
            }
        }
    };
}

width_invariance_test!(sptranse_is_bit_identical_across_widths, SpTransE);
width_invariance_test!(sptransh_is_bit_identical_across_widths, SpTransH);
width_invariance_test!(sptransr_is_bit_identical_across_widths, SpTransR);
width_invariance_test!(spdistmult_is_bit_identical_across_widths, SpDistMult);
width_invariance_test!(sprotate_is_bit_identical_across_widths, SpRotatE);
width_invariance_test!(spcomplex_is_bit_identical_across_widths, SpComplEx);

/// Data-parallel runs share the determinism contract: the same worker count
/// must produce bit-identical losses and embeddings at any pool fan-out
/// (the thread knob trades wall-clock only).
#[test]
fn distributed_worker4_is_bit_identical_across_thread_limits() {
    let ds = dataset();
    let cfg = config();
    let run = |limit: usize| {
        xparallel::with_parallelism(limit, || {
            let (report, model) = all_reduce(&ds, &cfg, 4);
            let emb: Vec<u32> = model
                .store()
                .value(model.embedding_param())
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let losses: Vec<u32> = report.epoch_losses.iter().map(|x| x.to_bits()).collect();
            (losses, emb)
        })
    };
    let narrow = run(1);
    let wide = run(4);
    assert_eq!(
        narrow.0, wide.0,
        "epoch losses diverged across thread limits"
    );
    assert_eq!(narrow.1, wide.1, "embeddings diverged across thread limits");
}

/// A 1-worker all-reduce run *is* the plain `Trainer`, bit for bit — with
/// either sampler, which a replicated run builds its plan from exactly as
/// `Trainer::new` does (`tests/hogwild.rs` has the `Combine::Shared` twin).
/// At two workers the sampler shows in the loss bits.
#[test]
fn distributed_worker1_matches_trainer_bitwise() {
    let ds = dataset();
    let snapshot = |report: TrainReport, model: &SpTransE| {
        let ids = model.store().param_ids().into_iter();
        let params = ids.map(|id| model.store().value(id).as_slice().to_vec());
        (report.epoch_losses, params.collect())
    };
    let mut two_worker_losses = Vec::new();
    for sampler in [SamplerKind::Uniform, SamplerKind::Bernoulli] {
        let cfg = TrainConfig {
            sampler,
            ..config()
        };
        let mut trainer =
            Trainer::new(SpTransE::from_config(&ds, &cfg).unwrap(), &ds, &cfg).unwrap();
        let report = trainer.run().unwrap();
        let (dist_report, dist_model) = all_reduce(&ds, &cfg, 1);
        assert_bitwise_equal(
            &snapshot(report, trainer.model()),
            &snapshot(dist_report, &dist_model),
            &format!("{sampler:?}: 1-worker all-reduce vs Trainer::new"),
        );
        let losses = all_reduce(&ds, &cfg, 2).0.epoch_losses;
        two_worker_losses.push(losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>());
    }
    assert_ne!(
        two_worker_losses[0], two_worker_losses[1],
        "a 2-worker run must train on the configured sampler's negatives"
    );
}

/// Repeated identical runs are bit-identical (no hidden global state).
#[test]
fn distributed_runs_are_repeatable() {
    let ds = dataset();
    let cfg = config();
    let (a, _) = all_reduce(&ds, &cfg, 3);
    let (b, _) = all_reduce(&ds, &cfg, 3);
    let bits = |r: &TrainReport| {
        r.epoch_losses
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(&a), bits(&b));
    assert_eq!(a.steps, b.steps);
}

/// Regression: sharding a plan must cover every batch exactly once, in
/// order — the data-parallel driver relies on shards being a partition.
#[test]
fn shards_cover_every_batch_exactly_once() {
    let ds = dataset();
    let known = ds.all_known();
    let sampler = UniformSampler::new(ds.num_entities.max(2));
    let plan = BatchPlan::build(&ds.train, &known, &sampler, 64, 7);

    let batch_signature = |plan: &BatchPlan, i: usize| {
        let b = plan.batch(i);
        (
            b.pos.heads().to_vec(),
            b.pos.rels().to_vec(),
            b.pos.tails().to_vec(),
            b.neg.heads().to_vec(),
            b.neg.rels().to_vec(),
            b.neg.tails().to_vec(),
        )
    };

    for workers in [1usize, 2, 3, 4, 7, 16] {
        let shards = plan.shard(workers);
        let total: usize = shards.iter().map(BatchPlan::num_batches).sum();
        assert_eq!(
            total,
            plan.num_batches(),
            "workers={workers}: shard batch counts must sum to the plan's"
        );
        let mut rebuilt = Vec::new();
        for shard in &shards {
            for i in 0..shard.num_batches() {
                rebuilt.push(batch_signature(shard, i));
            }
        }
        let original: Vec<_> = (0..plan.num_batches())
            .map(|i| batch_signature(&plan, i))
            .collect();
        assert_eq!(
            rebuilt, original,
            "workers={workers}: concatenated shards must equal the plan batch-for-batch"
        );
    }
}

/// A plan with zero batches is a configuration error, not a silent
/// loss-0 report.
#[test]
fn zero_batch_plan_is_a_config_error() {
    let ds = dataset();
    let cfg = config();
    let empty: TripleStore = std::iter::empty::<Triple>().collect();
    let known = TripleSet::from_stores([&empty]);
    let sampler = UniformSampler::new(2);
    let plan = BatchPlan::build(&empty, &known, &sampler, 16, 0);
    assert_eq!(plan.num_batches(), 0);
    let model = SpTransE::from_config(&ds, &cfg).unwrap();
    let mut trainer = Trainer::with_plan(model, plan, &cfg).unwrap();
    let err = trainer.run().unwrap_err();
    assert!(
        err.to_string().contains("no batches"),
        "unexpected error: {err}"
    );

    // A replicated run shares the contract: an empty training set is an
    // error, not a loss-0 report.
    let empty_ds = Dataset {
        name: "empty".into(),
        num_entities: ds.num_entities,
        num_relations: ds.num_relations,
        train: std::iter::empty::<Triple>().collect(),
        valid: std::iter::empty::<Triple>().collect(),
        test: std::iter::empty::<Triple>().collect(),
    };
    let err = Trainer::replicated(
        &empty_ds,
        &cfg,
        2,
        Combine::AllReduce,
        SpTransE::from_config,
    )
    .and_then(|mut t| t.run())
    .unwrap_err();
    assert!(
        err.to_string().contains("no batches"),
        "unexpected error: {err}"
    );
}
