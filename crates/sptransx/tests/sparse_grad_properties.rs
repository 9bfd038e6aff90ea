//! The touched-row gradient contract, asserted bit-for-bit.
//!
//! The sparse gradient pipeline (tape-recorded row sets → sparse
//! `zero_grads` → touched-row backward kernels → touched-row SGD/Adagrad →
//! union all-reduce) promises **bit-identical training to the dense
//! sweeps** it replaced: untouched rows carry exact `+0.0` gradients and
//! every per-row expression matches the dense path's, so only the per-batch
//! cost changes (`O(batch · d)` vs `O(N · d)`). These tests flip
//! `TrainConfig::dense_grads` — the ablation switch `sptx train
//! --dense-grads` exposes — and compare multi-epoch runs across every model
//! family and several pinned pool widths, `f32` bits not tolerances. CI
//! re-runs the suite under `SPTX_NUM_THREADS ∈ {1, 4}` and cross-diffs CLI
//! runs of both paths.

use kg::synthetic::SyntheticKgBuilder;
use kg::Dataset;
use sptransx::{
    Combine, DenseTransE, DenseTransR, KgeModel, OptimizerKind, SpComplEx, SpDistMult, SpRotatE,
    SpTorusE, SpTransE, SpTransH, SpTransR, TrainConfig, TrainReport, Trainer,
};
use xparallel::PoolHandle;

fn dataset() -> Dataset {
    SyntheticKgBuilder::new(80, 5).triples(500).seed(91).build()
}

fn config(dense_grads: bool, optimizer: OptimizerKind) -> TrainConfig {
    TrainConfig {
        epochs: 3,
        batch_size: 96,
        dim: 12,
        rel_dim: 6,
        lr: 0.05,
        dense_grads,
        optimizer,
        ..Default::default()
    }
}

/// An all-reduce run of `workers` SpTransE replicas: its report and rank 0.
fn all_reduce(ds: &Dataset, cfg: &TrainConfig, workers: usize) -> (TrainReport, SpTransE) {
    let mut trainer =
        Trainer::replicated(ds, cfg, workers, Combine::AllReduce, SpTransE::from_config).unwrap();
    (trainer.run().unwrap(), trainer.into_model())
}

/// Losses and final parameter bits of one run.
fn run<M, F>(
    width: usize,
    dense_grads: bool,
    optimizer: OptimizerKind,
    make: F,
) -> (Vec<u32>, Vec<Vec<u32>>)
where
    M: KgeModel,
    F: FnOnce(&Dataset, &TrainConfig) -> M,
{
    let ds = dataset();
    let cfg = config(dense_grads, optimizer);
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
        .map(|id| {
            model
                .store()
                .value(id)
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect()
        })
        .collect();
    let losses = report.epoch_losses.iter().map(|x| x.to_bits()).collect();
    (losses, params)
}

/// Sparse vs dense gradient path must agree bit-for-bit after multi-epoch
/// training, at every pool width — for every kernel family on the tape:
/// TransE/TorusE (SpMM + norms), TransR (projections + scatter-outer),
/// TransH (gathers + hyperplane algebra), DistMult/RotatE/ComplEx (the
/// semiring score under its three kinds), and the dense gather/scatter
/// baselines.
macro_rules! sparse_matches_dense_test {
    ($name:ident, $model:ty) => {
        #[test]
        fn $name() {
            let make = |ds: &Dataset, cfg: &TrainConfig| <$model>::from_config(ds, cfg).unwrap();
            for width in [1usize, 4, 8] {
                let sparse = run(width, false, OptimizerKind::Sgd, make);
                let dense = run(width, true, OptimizerKind::Sgd, make);
                assert!(
                    sparse.0.iter().all(|l| f32::from_bits(*l).is_finite()),
                    "losses must be finite"
                );
                assert_eq!(
                    sparse.0,
                    dense.0,
                    "{} width {width}: epoch losses diverged",
                    stringify!($model)
                );
                assert_eq!(
                    sparse.1,
                    dense.1,
                    "{} width {width}: final parameters diverged",
                    stringify!($model)
                );
            }
        }
    };
}

sparse_matches_dense_test!(sptranse_sparse_matches_dense, SpTransE);
sparse_matches_dense_test!(sptoruse_sparse_matches_dense, SpTorusE);
sparse_matches_dense_test!(sptransr_sparse_matches_dense, SpTransR);
sparse_matches_dense_test!(sptransh_sparse_matches_dense, SpTransH);
sparse_matches_dense_test!(spdistmult_sparse_matches_dense, SpDistMult);
sparse_matches_dense_test!(sprotate_sparse_matches_dense, SpRotatE);
sparse_matches_dense_test!(spcomplex_sparse_matches_dense, SpComplEx);
sparse_matches_dense_test!(densetranse_sparse_matches_dense, DenseTransE);
sparse_matches_dense_test!(densetransr_sparse_matches_dense, DenseTransR);

/// Adagrad's touched-row step is a bitwise fixed point on zero gradients
/// too; Adam intentionally stays dense either way — both optimizers must
/// produce identical bits with and without the ablation switch.
#[test]
fn adagrad_and_adam_sparse_match_dense() {
    let make = |ds: &Dataset, cfg: &TrainConfig| SpTransE::from_config(ds, cfg).unwrap();
    for optimizer in [OptimizerKind::Adagrad, OptimizerKind::Adam] {
        for width in [1usize, 4] {
            let sparse = run(width, false, optimizer, make);
            let dense = run(width, true, optimizer, make);
            assert_eq!(sparse, dense, "{optimizer:?} width {width} diverged");
        }
    }
}

/// The optimizer choice must actually change training (the wiring is live,
/// not cosmetic), while the LR schedule composes with any optimizer.
#[test]
fn optimizer_choice_is_wired_through_the_trainer() {
    let make = |ds: &Dataset, cfg: &TrainConfig| SpTransE::from_config(ds, cfg).unwrap();
    let sgd = run(1, false, OptimizerKind::Sgd, make);
    let adagrad = run(1, false, OptimizerKind::Adagrad, make);
    let adam = run(1, false, OptimizerKind::Adam, make);
    assert_ne!(sgd.1, adagrad.1, "Adagrad must differ from SGD");
    assert_ne!(sgd.1, adam.1, "Adam must differ from SGD");

    let ds = dataset();
    let cfg = TrainConfig {
        lr_schedule: Some((1, 0.5)),
        optimizer: OptimizerKind::Adagrad,
        ..config(false, OptimizerKind::Adagrad)
    };
    let mut trainer = Trainer::new(SpTransE::from_config(&ds, &cfg).unwrap(), &ds, &cfg).unwrap();
    trainer.run().unwrap();
    // 3 epochs, step 1, gamma 0.5: lr = base · 0.25.
    assert!((trainer.optimizer().learning_rate() - cfg.lr * 0.25).abs() < 1e-9);
}

/// Data-parallel replicas share the contract: their union all-reduce and
/// per-replica sparse steps must match the dense reduction bit-for-bit.
#[test]
fn distributed_sparse_all_reduce_matches_dense() {
    let ds = dataset();
    for workers in [2usize, 3] {
        let run_mode = |dense_grads: bool| {
            let cfg = config(dense_grads, OptimizerKind::Sgd);
            let (report, model) = all_reduce(&ds, &cfg, workers);
            let emb: Vec<u32> = model
                .store()
                .value(model.embedding_param())
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let losses: Vec<u32> = report.epoch_losses.iter().map(|x| x.to_bits()).collect();
            (losses, emb)
        };
        let sparse = run_mode(false);
        let dense = run_mode(true);
        assert_eq!(sparse.0, dense.0, "workers {workers}: losses diverged");
        assert_eq!(sparse.1, dense.1, "workers {workers}: embeddings diverged");
    }
}

/// Stateful optimizers under all-reduce: the replicas share one table and
/// rank 0's optimizer alone steps it, once per round on the averaged
/// gradient, so Adagrad accumulators and Adam moments advance once per
/// step, as on one replica.
#[test]
fn distributed_stateful_optimizers_keep_replicas_in_lockstep() {
    let ds = dataset();
    for optimizer in [OptimizerKind::Adagrad, OptimizerKind::Adam] {
        let cfg = config(false, optimizer);
        let (report, _model) = all_reduce(&ds, &cfg, 3);
        assert!(
            report.epoch_losses.iter().all(|l| l.is_finite()),
            "{optimizer:?}: losses must be finite"
        );
    }
}

/// `TrainConfig::lr_schedule` must act on every replica's optimizer exactly
/// as on a lone one: a 1-worker all-reduce run with a decay schedule matches
/// `Trainer::new` bit-for-bit (same optimizer state, same per-epoch decayed
/// rate).
#[test]
fn distributed_honors_lr_schedule_like_trainer() {
    let ds = dataset();
    let cfg = TrainConfig {
        lr_schedule: Some((1, 0.5)),
        ..config(false, OptimizerKind::Adagrad)
    };
    let (dist_report, dist_model) = all_reduce(&ds, &cfg, 1);
    let mut trainer = Trainer::new(SpTransE::from_config(&ds, &cfg).unwrap(), &ds, &cfg).unwrap();
    let train_report = trainer.run().unwrap();
    let final_lr = trainer.optimizer().learning_rate();
    let trainer_model = trainer.into_model();
    for (i, (a, b)) in dist_report
        .epoch_losses
        .iter()
        .zip(&train_report.epoch_losses)
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "epoch {i}: {a} vs {b}");
    }
    let da = dist_model.store().value(dist_model.embedding_param());
    let db = trainer_model.store().value(trainer_model.embedding_param());
    for (a, b) in da.as_slice().iter().zip(db.as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    // 3 epochs, step 1, gamma 0.5: the schedule really decayed.
    assert!((final_lr - cfg.lr * 0.25).abs() < 1e-9);
}

/// After `backward`, each parameter's row set covers exactly the rows with
/// nonzero gradient — and nothing in the batch's complement.
#[test]
fn row_sets_cover_all_nonzero_gradient_rows() {
    let ds = dataset();
    let cfg = config(false, OptimizerKind::Sgd);
    for model_run in 0..2 {
        // Two structurally different families: SpTransE (one stacked
        // parameter, SpMM backward) and SpTransR (three parameters:
        // SpMM + gather + scatter-outer backward).
        let check = |store: &tensor::ParamStore| {
            for id in store.param_ids() {
                let rows = store.touched(id);
                let grad = store.grad(id);
                let listed = rows.as_slice().expect("sparse mode must stay sparse");
                for r in 0..grad.rows() {
                    let nonzero = grad.row(r).iter().any(|&x| x != 0.0);
                    let in_set = listed.binary_search(&(r as u32)).is_ok();
                    assert!(
                        !nonzero || in_set,
                        "param {id:?} row {r} has gradient but is not in the row set"
                    );
                }
                assert!(
                    listed.windows(2).all(|w| w[0] < w[1]),
                    "row set must be sorted and deduplicated"
                );
            }
        };
        if model_run == 0 {
            let mut t = Trainer::new(SpTransE::from_config(&ds, &cfg).unwrap(), &ds, &cfg).unwrap();
            t.run_epochs(1).unwrap();
            check(t.model().store());
        } else {
            let mut t = Trainer::new(SpTransR::from_config(&ds, &cfg).unwrap(), &ds, &cfg).unwrap();
            t.run_epochs(1).unwrap();
            check(t.model().store());
        }
    }
}
