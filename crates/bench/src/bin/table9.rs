//! Regenerates **Table 9** (Appendix F): data-parallel scaling of SpTransE
//! on the COVID-19-shaped graph.
//!
//! The paper scales DDP from 4 to 64 A100s; the analog sweeps in-process
//! data-parallel workers (gradient all-reduce per step). Paper claim to
//! check: wall-clock time falls as workers are added (communication is not
//! yet the bottleneck at this scale).

use sptransx::{Combine::AllReduce, SpTransE, TrainConfig, Trainer};
use sptx_bench::harness::{covid_dataset, epochs_from_env, print_table, scale_from_env, secs};

fn main() {
    let scale = scale_from_env();
    let epochs = epochs_from_env();
    println!("# Table 9 — data-parallel scaling on the COVID-19 stand-in (scale 1/{scale})");
    let ds = covid_dataset(scale);
    println!(
        "\nGraph: {} entities, {} relations, {} triples",
        ds.num_entities,
        ds.num_relations,
        ds.total_triples()
    );
    let cfg = TrainConfig {
        epochs,
        batch_size: 2048,
        dim: 64,
        rel_dim: 16,
        lr: 4e-4,
        ..Default::default()
    };

    let max_workers = xparallel::current_num_threads().min(16);
    let mut workers = vec![1usize, 2, 4, 8, 16];
    workers.retain(|&w| w <= max_workers.max(2));

    let mut rows = Vec::new();
    let mut baseline = None;
    for &w in &workers {
        eprintln!("[table9] {w} workers ...");
        // The replicas fan out on the pool, each tape sequential, so worker
        // count — up to the pool's size — is the variable being swept.
        let report = Trainer::replicated(&ds, &cfg, w, AllReduce, SpTransE::from_config)
            .and_then(|mut t| t.run())
            .expect("distributed training");
        let t = report.wall.as_secs_f64();
        let speedup = baseline.get_or_insert(t);
        rows.push(vec![
            w.to_string(),
            secs(report.wall),
            format!("{:.2}x", *speedup / t),
            report.steps.to_string(),
        ]);
    }
    print_table(
        &format!("SpTransE, {epochs} epochs"),
        &["Workers", "Time (s)", "Speedup vs 1 worker", "Sync steps"],
        &rows,
    );
    println!("\nExpected shape: monotone speedup with diminishing returns (Table 9's");
    println!("706s -> 180s over 4 -> 64 GPUs is a ~3.9x gain over 16x more hardware).");
}
