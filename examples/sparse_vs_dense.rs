//! The paper's headline comparison on your machine: train the same TransE
//! model with the SpTransX (SpMM) schedule and the TorchKGE-style
//! (gather/scatter) schedule, from identical initialization, and compare
//! time, memory, FLOPs — and confirm the losses coincide.
//!
//! ```sh
//! cargo run --release --example sparse_vs_dense
//! ```

use kg::synthetic::SyntheticKgBuilder;
use sptransx::{DenseTransE, KgeModel, SpTransE, TrainConfig, Trainer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = SyntheticKgBuilder::new(5_000, 50)
        .triples(40_000)
        .seed(42)
        .build();
    let config = TrainConfig {
        epochs: 10,
        batch_size: 4096,
        dim: 64,
        lr: 0.01,
        ..Default::default()
    };

    println!(
        "TransE on {} entities / {} triples, dim {}, batch {}\n",
        dataset.num_entities,
        dataset.train.len(),
        config.dim,
        config.batch_size
    );

    let mut results = Vec::new();
    {
        let model = SpTransE::from_config(&dataset, &config)?;
        let mut trainer = Trainer::new(model, &dataset, &config)?;
        results.push(("SpTransX (sparse)", trainer.run()?));
    }
    {
        let model = DenseTransE::from_config(&dataset, &config)?;
        let mut trainer = Trainer::new(model, &dataset, &config)?;
        results.push(("Baseline (gather/scatter)", trainer.run()?));
    }

    println!(
        "{:<28} {:>9} {:>9} {:>9} {:>10} {:>9}",
        "variant", "fwd (s)", "bwd (s)", "step (s)", "mem (MiB)", "GFLOPs"
    );
    for (name, r) in &results {
        println!(
            "{:<28} {:>9.2} {:>9.2} {:>9.2} {:>10.2} {:>9.2}",
            name,
            r.breakdown.forward.as_secs_f64(),
            r.breakdown.backward.as_secs_f64(),
            r.breakdown.step.as_secs_f64(),
            r.peak_memory_bytes as f64 / (1024.0 * 1024.0),
            r.flops() as f64 / 1e9,
        );
    }

    let speedup = results[1].1.wall.as_secs_f64() / results[0].1.wall.as_secs_f64().max(1e-9);
    println!("\noverall: baseline is {speedup:.2}x slower than SpTransX");

    println!("\nloss trajectories (must coincide — same math, different schedule):");
    println!("{:<8} {:>12} {:>12}", "epoch", "sparse", "dense");
    for (e, (a, b)) in results[0]
        .1
        .epoch_losses
        .iter()
        .zip(&results[1].1.epoch_losses)
        .enumerate()
    {
        println!("{e:<8} {a:>12.6} {b:>12.6}");
    }

    // Also show the model names via the common trait, for API discovery.
    let sp = SpTransE::from_config(&dataset, &config)?;
    println!(
        "\ntrait KgeModel: {} / dim {}",
        KgeModel::name(&sp),
        sp.dim()
    );
    Ok(())
}
