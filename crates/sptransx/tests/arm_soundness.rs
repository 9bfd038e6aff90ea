//! Soundness of the arm table: `Arm::check` and the trainer agree on every
//! combination.
//!
//! The whole product {6 model families} × {resident, paged} × {Sgd, Adagrad,
//! Adam} × `dense_grads` × `fused` × {single, all-reduce(2), shared(2)} runs
//! one epoch on a tiny graph. Where `check()` says `Ok` the epoch must
//! succeed with a finite loss; where it says `Err` the trainer must return
//! that same `Error::Config` from `run_epochs` — never a panic from the
//! tensor layer's last-resort asserts, which sit below the table.

use std::collections::BTreeSet;

use kg::synthetic::SyntheticKgBuilder;
use kg::Dataset;
use sptransx::{
    Arm, Combine, DenseTransE, Error, KgeModel, OptimizerKind, SpDistMult, SpTorusE, SpTransE,
    SpTransH, SpTransR, TrainConfig, Trainer,
};
use tensor::VecStorage;

/// Pages the model's first table out to RAM-backed storage, whole-table
/// budget (no run here is about cache pressure).
fn page_out<M: KgeModel>(model: &mut M) -> tensor::Result<()> {
    let store = model.store_mut();
    let id = store.param_ids()[0];
    let (rows, cols) = store.param_shape(id);
    store.page_out(id, Box::new(VecStorage::new(rows, cols)), rows)
}

/// Runs every arm of one model family, adding each refusal it sees to
/// `refusals`.
fn family<M: KgeModel + Send>(
    ds: &Dataset,
    ctor: impl Fn(&Dataset, &TrainConfig) -> sptransx::Result<M>,
    refusals: &mut BTreeSet<String>,
) {
    let schedules = [
        (1, Combine::AllReduce),
        (2, Combine::AllReduce),
        (2, Combine::Shared),
    ];
    let optimizers = [
        OptimizerKind::Sgd,
        OptimizerKind::Adagrad,
        OptimizerKind::Adam,
    ];
    for (workers, combine) in schedules {
        for optimizer in optimizers {
            for flags in 0..8 {
                let (paged, dense_grads, fused) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
                let arm = Arm {
                    paged,
                    optimizer,
                    dense_grads,
                    fused,
                    workers,
                    combine,
                };
                let cfg = TrainConfig {
                    epochs: 1,
                    batch_size: 32,
                    dim: 6,
                    rel_dim: 3,
                    lr: 0.05,
                    optimizer,
                    dense_grads,
                    fused,
                    ..Default::default()
                };
                let what = format!("{} {arm:?}", ctor(ds, &cfg).unwrap().name());

                // A lone model is paged out before the trainer sees it, a
                // replicated run's rank 0 after (through `model_mut`, as the
                // benchmark does) — the two orders a caller can page in.
                let mut trainer = if workers == 1 {
                    let mut model = ctor(ds, &cfg).unwrap();
                    if paged {
                        page_out(&mut model).unwrap();
                    }
                    Trainer::new(model, ds, &cfg).unwrap()
                } else {
                    let mut trainer =
                        Trainer::replicated(ds, &cfg, workers, combine, &ctor).unwrap();
                    if paged {
                        if let Err(e) = page_out(trainer.model_mut()) {
                            // Rule 2's other face: a store already in dense
                            // mode refuses the page-out itself.
                            assert!(dense_grads && arm.check().is_err(), "{what}: {e}");
                            assert!(e.to_string().contains("dense-gradient mode"), "{e}");
                            continue;
                        }
                    }
                    trainer
                };
                assert_eq!(
                    trainer.arm(),
                    arm,
                    "{what}: the trainer observes another arm"
                );

                match (arm.check(), trainer.run_epochs(1)) {
                    (Ok(()), Ok(report)) => {
                        assert!(report.epoch_losses[0].is_finite(), "{what}: {report:?}");
                        assert_eq!(report.workers, workers, "{what}");
                    }
                    (Err(want), Err(got)) => {
                        assert!(matches!(got, Error::Config { .. }), "{what}: {got:?}");
                        assert_eq!(got.to_string(), want.to_string(), "{what}");
                        refusals.insert(got.to_string());
                    }
                    (want, got) => panic!("{what}: check() says {want:?}, run_epochs {got:?}"),
                }
            }
        }
    }
}

#[test]
fn check_agrees_with_run_epochs_on_every_arm() {
    let ds = SyntheticKgBuilder::new(30, 3).triples(160).seed(17).build();
    let mut refusals = BTreeSet::new();
    family(&ds, SpTransE::from_config, &mut refusals);
    family(&ds, SpTorusE::from_config, &mut refusals);
    family(&ds, SpTransH::from_config, &mut refusals);
    family(&ds, SpTransR::from_config, &mut refusals);
    family(&ds, SpDistMult::from_config, &mut refusals);
    family(&ds, DenseTransE::from_config, &mut refusals);

    // Every rule was reached through `run_epochs`, and says what it is about.
    for rule in [
        "--store disk requires --optimizer sgd: Adagrad and Adam do not support paged parameters",
        "--store disk needs the sparse touched-row gradient path",
        "(data-parallel, or --async true workers) are incompatible with --store disk",
        "--async true with 2+ workers supports only --optimizer sgd",
        "--async true with 2+ workers requires sparse (touched-row) gradients",
    ] {
        assert!(
            refusals.iter().any(|msg| msg.contains(rule)),
            "no arm was refused with {rule:?}; saw {refusals:#?}"
        );
    }
}
