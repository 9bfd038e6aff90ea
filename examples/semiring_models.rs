//! Appendix D in action: the same incidence-matrix traversal computes
//! non-translational scores when the semiring is swapped.
//!
//! Trains DistMult, RotatE and ComplEx end-to-end — one tape op,
//! `Graph::semiring_score`, under three lane descriptions — then ranks with
//! the complex models and calls the score kernel directly.
//!
//! ```sh
//! cargo run --release --example semiring_models
//! ```

use kg::eval::{evaluate, EvalConfig, TripleScorer};
use kg::synthetic::SyntheticKgBuilder;
use sparse::incidence::{hrt, TailSign};
use sparse::semiring::{semiring_spmm, Semiring};
use sparse::DenseView;
use sptransx::{KgeModel, SpComplEx, SpDistMult, SpRotatE, TrainConfig, Trainer};

/// Overwrites a model's stacked `embeddings` table.
fn set_embeddings(model: &mut impl KgeModel, values: &[f32]) {
    let store = model.store_mut();
    let emb = store.lookup("embeddings").expect("a stacked-table model");
    store.value_mut(emb).as_mut_slice().copy_from_slice(values);
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = SyntheticKgBuilder::new(300, 8)
        .triples(2_500)
        .seed(5)
        .build();
    let config = TrainConfig {
        epochs: 25,
        batch_size: 512,
        dim: 32,
        lr: 0.05,
        ..Default::default()
    };

    // --- DistMult: trainable via the (×,×) semiring score ----------------
    let model = SpDistMult::from_config(&dataset, &config)?;
    let mut trainer = Trainer::new(model, &dataset, &config)?;
    let report = trainer.run()?;
    println!(
        "DistMult loss: {:.4} -> {:.4}",
        report.epoch_losses.first().unwrap(),
        report.epoch_losses.last().unwrap()
    );
    let eval = trainer.evaluate(
        &dataset,
        &EvalConfig {
            max_triples: Some(100),
            ..Default::default()
        },
    );
    println!(
        "DistMult filtered Hits@10: {:.3}\n",
        eval.hits(10).unwrap_or(0.0)
    );

    // --- RotatE & ComplEx: trainable through the complex semirings --------
    for name in ["rotate", "complex"] {
        let cfg = TrainConfig {
            dim: 16,
            ..config.clone()
        };
        let (first, last, hits) = match name {
            "rotate" => {
                let mut t = Trainer::new(SpRotatE::from_config(&dataset, &cfg)?, &dataset, &cfg)?;
                let r = t.run()?;
                let e = t.evaluate(
                    &dataset,
                    &EvalConfig {
                        max_triples: Some(100),
                        ..Default::default()
                    },
                );
                (
                    r.epoch_losses[0],
                    *r.epoch_losses.last().unwrap(),
                    e.hits(10).unwrap_or(0.0),
                )
            }
            _ => {
                let mut t = Trainer::new(SpComplEx::from_config(&dataset, &cfg)?, &dataset, &cfg)?;
                let r = t.run()?;
                let e = t.evaluate(
                    &dataset,
                    &EvalConfig {
                        max_triples: Some(100),
                        ..Default::default()
                    },
                );
                (
                    r.epoch_losses[0],
                    *r.epoch_losses.last().unwrap(),
                    e.hits(10).unwrap_or(0.0),
                )
            }
        };
        println!("Sp{name}: loss {first:.4} -> {last:.4}, filtered Hits@10 {hits:.3}");
    }
    println!();

    // --- ComplEx & RotatE: complex-semiring scoring -----------------------
    // Give both models a table where every row is a pure rotation (unit
    // phases, RotatE's geometric ideal for relations) and rank with it.
    let n = dataset.num_entities;
    let r = dataset.num_relations;
    let cfg = TrainConfig {
        dim: 8,
        ..config.clone()
    };
    let phases = tensor::init::unit_phases(n + r, cfg.dim, 99);
    let mut rotate = SpRotatE::from_config(&dataset, &cfg)?;
    let mut complex = SpComplEx::from_config(&dataset, &cfg)?;
    set_embeddings(&mut rotate, phases.as_slice());
    set_embeddings(&mut complex, phases.as_slice());

    let eval_cfg = EvalConfig {
        max_triples: Some(30),
        ..Default::default()
    };
    let known = dataset.all_known();
    let rot_eval = evaluate(&rotate, &dataset.test, &known, &eval_cfg);
    let cpx_eval = evaluate(&complex, &dataset.test, &known, &eval_cfg);
    println!(
        "RotatE  (random unit-phase embeddings) MRR: {:.3}",
        rot_eval.mrr
    );
    println!(
        "ComplEx (random unit-phase embeddings) MRR: {:.3}",
        cpx_eval.mrr
    );
    println!("(random embeddings score near chance — the point is the kernel path)");

    // Direct kernel sanity: a tail that IS the rotated head scores ~0.
    let toy_kg = SyntheticKgBuilder::new(2, 1).triples(2).seed(1).build();
    let toy_cfg = TrainConfig {
        dim: 1,
        ..Default::default()
    };
    let mut toy = SpRotatE::from_config(&toy_kg, &toy_cfg)?;
    let h = sparse::Complex32::from_phase(0.3);
    let rel = sparse::Complex32::from_phase(1.2);
    let t = h * rel;
    set_embeddings(&mut toy, &[h.re, h.im, t.re, t.im, rel.re, rel.im]);
    println!(
        "\ntoy RotatE distance(h, r, h∘r) = {:.2e} (exact rotation scores zero)",
        toy.score_tails(0, 0)[1]
    );
    // The same triple through the walk the tape trains with.
    let triple = hrt(2, 1, &[0], &[0], &[1], TailSign::Negative)?;
    let table = [h.re, h.im, t.re, t.im, rel.re, rel.im];
    let direct = semiring_spmm(Semiring::RotatE, &triple, DenseView::new(3, 2, &table));
    println!("semiring_spmm(RotatE) on that triple  = {:.2e}", direct[0]);
    Ok(())
}
