//! Quickstart: train sparse TransE on a synthetic knowledge graph, watch the
//! loss fall, and run filtered link-prediction evaluation.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use kg::eval::EvalConfig;
use kg::synthetic::SyntheticKgBuilder;
use sptransx::{SpTransE, TrainConfig, Trainer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A synthetic KG: 500 entities, 12 relations, 4000 triples with
    //    Zipf-distributed entity popularity (see kg::synthetic for knobs).
    let dataset = SyntheticKgBuilder::new(500, 12)
        .triples(4_000)
        .valid_frac(0.05)
        .test_frac(0.10)
        .seed(7)
        .build();
    println!(
        "dataset: {} entities, {} relations, {} train / {} test triples",
        dataset.num_entities,
        dataset.num_relations,
        dataset.train.len(),
        dataset.test.len()
    );

    // 2. Configure training. The paper's optimizer settings are the
    //    defaults; we raise the learning rate for a short demo run.
    let config = TrainConfig {
        epochs: 200,
        batch_size: 512,
        dim: 32,
        lr: 0.5,
        margin: 1.0,
        ..Default::default()
    };

    // 3. One SpMM per batch side computes every h + r - t expression; the
    //    backward pass is the transpose product, pushed back through the
    //    same matrix's rows into the embedding rows the batch touches.
    let model = SpTransE::from_config(&dataset, &config)?;
    let mut trainer = Trainer::new(model, &dataset, &config)?;
    let report = trainer.run()?;

    println!(
        "\nloss: first epoch {:.4} -> last epoch {:.4}",
        report.epoch_losses.first().copied().unwrap_or(0.0),
        report.epoch_losses.last().copied().unwrap_or(0.0)
    );
    println!(
        "time: {:.2}s total (forward {:.2}s, backward {:.2}s, step {:.2}s)",
        report.wall.as_secs_f64(),
        report.breakdown.forward.as_secs_f64(),
        report.breakdown.backward.as_secs_f64(),
        report.breakdown.step.as_secs_f64()
    );
    println!(
        "peak tensor memory: {:.2} MiB, SpMM calls: {}, GFLOPs: {:.3}",
        report.peak_memory_bytes as f64 / (1024.0 * 1024.0),
        report.spmm_calls,
        report.flops as f64 / 1e9
    );

    // 4. Filtered link prediction (Hits@K / MRR / mean rank).
    let eval = trainer.evaluate(&dataset, &EvalConfig::default());
    println!("\nlink prediction over {} queries:", eval.queries);
    for (k, h) in eval.ks.iter().zip(&eval.hits_at) {
        println!("  filtered Hits@{k}: {h:.3}");
    }
    println!("  MRR: {:.3}, mean rank: {:.1}", eval.mrr, eval.mean_rank);
    Ok(())
}
