//! End-to-end integration tests spanning the whole stack: data generation →
//! batch planning → sparse training → evaluation.

use kg::eval::EvalConfig;
use kg::synthetic::SyntheticKgBuilder;
use sptransx::{
    KgeModel, SpComplEx, SpDistMult, SpRotatE, SpTorusE, SpTransC, SpTransE, SpTransH, SpTransM,
    SpTransR, TrainConfig, Trainer,
};

fn dataset() -> kg::Dataset {
    SyntheticKgBuilder::new(120, 6)
        .triples(900)
        .seed(100)
        .build()
}

fn config() -> TrainConfig {
    TrainConfig {
        epochs: 40,
        batch_size: 128,
        dim: 16,
        rel_dim: 8,
        lr: 0.3,
        margin: 1.0,
        ..Default::default()
    }
}

#[test]
fn transe_learns_something() {
    let ds = dataset();
    let cfg = config();
    let mut trainer = Trainer::new(SpTransE::from_config(&ds, &cfg).unwrap(), &ds, &cfg).unwrap();
    let report = trainer.run().unwrap();
    let first = report.epoch_losses[0];
    let last = *report.epoch_losses.last().unwrap();
    assert!(
        last < first * 0.8,
        "loss should fall by >20%: {first} -> {last}"
    );

    let eval = trainer.evaluate(&ds, &EvalConfig::default());
    // Random ranking over 120 entities gives Hits@10 ~ 10/120 ≈ 0.083 and
    // mean rank ~ 60; the trained model must beat both comfortably.
    assert!(eval.hits(10).unwrap() > 0.15, "hits@10 {:?}", eval.hits(10));
    assert!(eval.mean_rank < 55.0, "mean rank {}", eval.mean_rank);
}

#[test]
fn every_model_trains_and_evaluates() {
    let ds = dataset();
    let cfg = config();

    macro_rules! check {
        ($model:expr, $name:literal) => {{
            let mut trainer = Trainer::new($model, &ds, &cfg).unwrap();
            let report = trainer.run().unwrap();
            assert!(
                report.epoch_losses.last().unwrap() <= report.epoch_losses.first().unwrap(),
                "{}: loss must not increase",
                $name
            );
            let eval = trainer.evaluate(
                &ds,
                &EvalConfig {
                    max_triples: Some(20),
                    ..Default::default()
                },
            );
            assert_eq!(eval.queries, 40, "{}", $name);
            assert!(eval.mrr > 0.0, "{}", $name);
        }};
    }
    check!(SpTransE::from_config(&ds, &cfg).unwrap(), "SpTransE");
    check!(SpTorusE::from_config(&ds, &cfg).unwrap(), "SpTorusE");
    check!(SpTransR::from_config(&ds, &cfg).unwrap(), "SpTransR");
    check!(SpTransH::from_config(&ds, &cfg).unwrap(), "SpTransH");
    check!(SpDistMult::from_config(&ds, &cfg).unwrap(), "SpDistMult");
    check!(SpTransC::from_config(&ds, &cfg).unwrap(), "SpTransC");
    check!(SpTransM::from_config(&ds, &cfg).unwrap(), "SpTransM");
    check!(SpRotatE::from_config(&ds, &cfg).unwrap(), "SpRotatE");
    check!(SpComplEx::from_config(&ds, &cfg).unwrap(), "SpComplEx");
}

#[test]
fn training_is_deterministic() {
    let ds = dataset();
    let cfg = config();
    let run = || {
        let mut t = Trainer::new(SpTransE::from_config(&ds, &cfg).unwrap(), &ds, &cfg).unwrap();
        t.run().unwrap().epoch_losses
    };
    let (a, b) = (run(), run());
    assert_eq!(
        a, b,
        "same seed + same threading must give identical losses"
    );
}

#[test]
fn model_names_are_distinct() {
    let ds = dataset();
    let cfg = config();
    let names = [
        KgeModel::name(&SpTransE::from_config(&ds, &cfg).unwrap()),
        KgeModel::name(&SpTorusE::from_config(&ds, &cfg).unwrap()),
        KgeModel::name(&SpTransR::from_config(&ds, &cfg).unwrap()),
        KgeModel::name(&SpTransH::from_config(&ds, &cfg).unwrap()),
        KgeModel::name(&SpDistMult::from_config(&ds, &cfg).unwrap()),
        KgeModel::name(&SpTransC::from_config(&ds, &cfg).unwrap()),
        KgeModel::name(&SpTransM::from_config(&ds, &cfg).unwrap()),
        KgeModel::name(&SpRotatE::from_config(&ds, &cfg).unwrap()),
        KgeModel::name(&SpComplEx::from_config(&ds, &cfg).unwrap()),
    ];
    let set: std::collections::HashSet<_> = names.iter().collect();
    assert_eq!(set.len(), names.len());
}

#[test]
fn trainer_rejects_invalid_configs() {
    let ds = dataset();
    let bad = TrainConfig {
        epochs: 0,
        ..config()
    };
    assert!(SpTransE::from_config(&ds, &bad).is_err());
    let bad = TrainConfig {
        lr: -1.0,
        ..config()
    };
    assert!(SpTransE::from_config(&ds, &bad).is_err());
}

#[test]
fn run_epochs_can_be_interleaved_with_eval() {
    let ds = dataset();
    let cfg = config();
    let mut trainer = Trainer::new(SpTransE::from_config(&ds, &cfg).unwrap(), &ds, &cfg).unwrap();
    let eval_cfg = EvalConfig {
        max_triples: Some(30),
        ..Default::default()
    };
    let before = trainer.evaluate(&ds, &eval_cfg).mrr;
    let mut mrr_history = vec![before];
    for _ in 0..3 {
        trainer.run_epochs(5).unwrap();
        mrr_history.push(trainer.evaluate(&ds, &eval_cfg).mrr);
    }
    assert!(
        mrr_history.last().unwrap() > mrr_history.first().unwrap(),
        "MRR should improve over training: {mrr_history:?}"
    );
}
