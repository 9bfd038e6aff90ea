//! Appendix F analog: data-parallel training with gradient all-reduce.
//!
//! Runs SpTransE gradient workers over one shared table, shards the batch
//! plan, and averages the workers' gradients into one step per round — the
//! DDP algorithm the paper scales to 64 GPUs, here swept over in-process
//! worker counts.
//!
//! ```sh
//! cargo run --release --example distributed_training
//! ```

use kg::synthetic::SyntheticKgBuilder;
use sptransx::{Combine::AllReduce, SpTransE, TrainConfig, Trainer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = SyntheticKgBuilder::new(6_000, 60)
        .triples(100_000)
        .seed(2024)
        .build();
    let config = TrainConfig {
        epochs: 3,
        batch_size: 2048,
        dim: 32,
        lr: 0.01,
        ..Default::default()
    };
    println!(
        "COVID-19-style workload: {} entities, {} relations, {} triples\n",
        dataset.num_entities,
        dataset.num_relations,
        dataset.total_triples()
    );

    println!(
        "{:<10} {:>10} {:>12} {:>12}",
        "workers", "time (s)", "speedup", "final loss"
    );
    let mut baseline = None;
    for workers in [1usize, 2, 4, 8] {
        // Two or more replicas fan out on the pool with sequential tapes; one
        // replica trains alone with the whole pool under its kernels.
        let report =
            Trainer::replicated(&dataset, &config, workers, AllReduce, SpTransE::from_config)?
                .run()?;
        let t = report.wall.as_secs_f64();
        let base = *baseline.get_or_insert(t);
        println!(
            "{:<10} {:>10.2} {:>11.2}x {:>12.5}",
            workers,
            t,
            base / t,
            report.epoch_losses.last().copied().unwrap_or(0.0)
        );
    }
    println!("\nEach round all-reduces one batch per worker into one averaged step, so an");
    println!("epoch takes ceil(batches / workers) steps: each worker count follows its own");
    println!("trajectory, which is why the final losses differ.");
    Ok(())
}
