//! The asynchronous (Hogwild) training arm: degenerate determinism,
//! race-safety under forced row conflicts, and statistical agreement with
//! the synchronous arm.
//!
//! `Combine::Shared` is explicitly outside the bit-determinism contract at
//! 2+ workers, so these tests split into two regimes:
//!
//! * **one at a time** — one worker, or any number on a width-1 pool: the
//!   run must collapse to the synchronous `Trainer` **bit-for-bit** (same
//!   losses, same embeddings). The replicas are pool tasks, so a width-1
//!   pool runs the contiguous shards back to back in plan order, which is
//!   the exact `Trainer` step sequence.
//! * **concurrent** — `workers >= 2` on a wider pool: only statistical
//!   properties hold: parameters stay finite under heavy deliberate row
//!   conflicts, loss decreases, and the final filtered MRR lands within
//!   tolerance of the synchronous arm.
//!
//! CI re-runs this suite under `SPTX_NUM_THREADS=1` and `=4`; the
//! statistical tests must hold at either (at 1 their workers run in turn).

use kg::eval::{EvalConfig, SampleStrategy};
use kg::synthetic::SyntheticKgBuilder;
use kg::Dataset;
use sptransx::{
    Combine, KgeModel, SamplerKind, SpRotatE, SpTransE, TrainConfig, TrainReport, Trainer,
};
use xparallel::PoolHandle;

fn dataset() -> Dataset {
    SyntheticKgBuilder::new(60, 4).triples(600).seed(40).build()
}

fn config() -> TrainConfig {
    TrainConfig {
        epochs: 4,
        batch_size: 64,
        dim: 8,
        lr: 0.05,
        ..Default::default()
    }
}

/// A `Combine::Shared` run of `workers` replicas: its report and rank 0 (all
/// replicas alias the same values, so after the last join it *is* the model).
fn hogwild<M: KgeModel + Send>(
    ds: &Dataset,
    cfg: &TrainConfig,
    workers: usize,
    make: impl Fn(&Dataset, &TrainConfig) -> sptransx::Result<M>,
) -> (TrainReport, M) {
    let mut trainer = Trainer::replicated(ds, cfg, workers, Combine::Shared, make).unwrap();
    (trainer.run().unwrap(), trainer.into_model())
}

/// Losses and all final parameter tables of a model, as raw bits carriers.
fn snapshot<M: KgeModel>(losses: &[f32], model: &M) -> (Vec<f32>, Vec<Vec<f32>>) {
    let params = model
        .store()
        .param_ids()
        .into_iter()
        .map(|id| model.store().value(id).as_slice().to_vec())
        .collect();
    (losses.to_vec(), params)
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
                "{ctx}: param {p} scalar {j}: {x} vs {y}"
            );
        }
    }
}

/// Degenerate determinism: at `workers == 1` the shared arm is the
/// synchronous `Trainer` — same plan (under either sampler), same step
/// sequence, inline execution — so its report and final embeddings must
/// match bit-for-bit.
#[test]
fn single_worker_is_bit_identical_to_synchronous_trainer() {
    let ds = dataset();
    for sampler in [SamplerKind::Uniform, SamplerKind::Bernoulli] {
        let cfg = TrainConfig {
            sampler,
            ..config()
        };
        let mut trainer =
            Trainer::new(SpTransE::from_config(&ds, &cfg).unwrap(), &ds, &cfg).unwrap();
        let sync_report = trainer.run().unwrap();
        let sync_model = trainer.into_model();

        let (async_report, async_model) = hogwild(&ds, &cfg, 1, SpTransE::from_config);

        assert_eq!(async_report.workers, 1);
        assert_eq!(async_report.steps, sync_report.epoch_losses.len() * 9);
        assert_bitwise_equal(
            &snapshot(&sync_report.epoch_losses, &sync_model),
            &snapshot(&async_report.epoch_losses, &async_model),
            &format!("SpTransE/{sampler:?} sync vs async(1)"),
        );
    }
}

/// Same degeneracy for a model with a nontrivial epoch hook (SpRotatE
/// reprojects relations in `end_epoch`): the epoch-edge dirty-row fold and
/// rank-0 renormalization must reproduce the `Trainer`'s sweep exactly.
#[test]
fn single_worker_matches_trainer_for_rotate_epoch_hook() {
    let ds = dataset();
    let cfg = config();

    let mut trainer = Trainer::new(SpRotatE::from_config(&ds, &cfg).unwrap(), &ds, &cfg).unwrap();
    let sync_report = trainer.run().unwrap();
    let sync_model = trainer.into_model();

    let (async_report, async_model) = hogwild(&ds, &cfg, 1, SpRotatE::from_config);

    assert_bitwise_equal(
        &snapshot(&sync_report.epoch_losses, &sync_model),
        &snapshot(&async_report.epoch_losses, &async_model),
        "SpRotatE sync vs async(1)",
    );
}

/// `Combine::Shared` at `workers` replicas on a width-1 pool against the
/// synchronous `Trainer`, bit for bit.
fn width_one_matches_trainer<M: KgeModel + Send>(
    make: impl Fn(&Dataset, &TrainConfig) -> sptransx::Result<M> + Copy,
    name: &str,
) {
    let (ds, cfg) = (dataset(), config());
    let mut trainer = Trainer::new(make(&ds, &cfg).unwrap(), &ds, &cfg).unwrap();
    let report = trainer.run().unwrap();
    let want = snapshot(&report.epoch_losses, &trainer.into_model());
    for workers in [2, 4, 8] {
        let mut trainer = Trainer::replicated(&ds, &cfg, workers, Combine::Shared, make)
            .unwrap()
            .with_pool(PoolHandle::global().with_width(1));
        let report = trainer.run().unwrap();
        assert_eq!(report.workers, workers);
        let got = snapshot(&report.epoch_losses, &trainer.into_model());
        assert_bitwise_equal(
            &want,
            &got,
            &format!("{name} sync vs Shared({workers}) at width 1"),
        );
    }
}

/// One pool runs every replica, so a width-1 pool runs the Hogwild workers
/// one after another: at 2, 4 and 8 workers the run is the synchronous
/// `Trainer`'s, with and without an epoch hook (SpRotatE reprojects its
/// relations in `end_epoch`).
#[test]
fn shared_workers_on_a_width_one_pool_are_the_synchronous_trainer() {
    width_one_matches_trainer(SpTransE::from_config, "SpTransE");
    width_one_matches_trainer(SpRotatE::from_config, "SpRotatE");
}

/// Safety/liveness under forced contention: a vocabulary so small that
/// every worker's every batch collides on the same embedding rows. The run
/// must not panic, every shared scalar must come out finite (no torn or
/// corrupted writes — racy word-sized stores lose increments, never bits),
/// and the loss must still trend down.
#[test]
fn many_workers_on_tiny_vocab_stay_finite_and_learn() {
    let ds = SyntheticKgBuilder::new(10, 2).triples(400).seed(7).build();
    let cfg = TrainConfig {
        epochs: 5,
        batch_size: 16,
        dim: 8,
        lr: 0.02,
        ..Default::default()
    };
    let (report, model) = hogwild(&ds, &cfg, 8, SpTransE::from_config);

    assert_eq!(report.workers, 8);
    assert_eq!(report.epoch_losses.len(), 5);
    for id in model.store().param_ids() {
        assert!(
            model
                .store()
                .value(id)
                .as_slice()
                .iter()
                .all(|x| x.is_finite()),
            "non-finite scalar in {:?} after contended async training",
            id
        );
    }
    let first = report.epoch_losses.first().copied().unwrap();
    let last = report.epoch_losses.last().copied().unwrap();
    assert!(
        last <= first,
        "loss did not trend down under contention: {:?}",
        report.epoch_losses
    );
}

/// Statistical agreement: at 4 workers the async arm's filtered MRR must
/// land within 5% relative of the synchronous arm's (the paper-style
/// Hogwild claim — staleness perturbs the trajectory, not the quality).
#[test]
fn four_worker_mrr_is_within_tolerance_of_sync() {
    let ds = dataset();
    let cfg = config();
    let eval = EvalConfig {
        max_triples: Some(500),
        sample: SampleStrategy::Strided,
        ..EvalConfig::default()
    };
    let known = ds.all_known();

    let mut trainer = Trainer::new(SpTransE::from_config(&ds, &cfg).unwrap(), &ds, &cfg).unwrap();
    trainer.run().unwrap();
    let sync_model = trainer.into_model();
    let sync_mrr = kg::eval::evaluate_batched(&sync_model, &ds.test, &known, &eval).mrr;

    let (_, async_model) = hogwild(&ds, &cfg, 4, SpTransE::from_config);
    let async_mrr = kg::eval::evaluate_batched(&async_model, &ds.test, &known, &eval).mrr;

    assert!(sync_mrr > 0.0, "sync arm failed to learn (MRR {sync_mrr})");
    let rel = (f64::from(async_mrr) - f64::from(sync_mrr)).abs() / f64::from(sync_mrr);
    assert!(
        rel <= 0.05,
        "async MRR {async_mrr} deviates {:.1}% from sync MRR {sync_mrr}",
        rel * 100.0
    );
}
