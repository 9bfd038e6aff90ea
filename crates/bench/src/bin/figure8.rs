//! Regenerates **Figure 8**: forward/backward/step breakdown per model,
//! averaged over the seven datasets, sparse vs baseline.
//!
//! Paper claims to check: SpTransX improves forward time everywhere and
//! backward time for all models; step time is roughly model-independent.

use sptransx::Breakdown;
use sptx_bench::harness::{
    bench_config, epochs_from_env, paper_datasets, print_table, run_model, scale_from_env, secs,
    ModelKind, Variant,
};
use xparallel::PoolHandle;

fn main() {
    let scale = scale_from_env();
    let epochs = epochs_from_env();
    println!(
        "# Figure 8 — phase breakdown averaged over datasets (scale 1/{scale}, {epochs} epochs)"
    );
    let datasets = paper_datasets(scale);
    let n = datasets.len() as u32;

    let mut rows = Vec::new();
    for kind in ModelKind::ALL {
        let (dim, rel_dim, bs) = match kind {
            ModelKind::TransE | ModelKind::TorusE => (128, 8, 4096),
            ModelKind::TransR => (32, 16, 2048),
            ModelKind::TransH => (32, 32, 1024),
        };
        let cfg = bench_config(dim, rel_dim, bs, epochs);
        for variant in [Variant::Sparse, Variant::Dense] {
            let mut sum = Breakdown::default();
            for (spec, ds) in &datasets {
                eprintln!(
                    "[figure8] {} {} {} ...",
                    kind.name(),
                    variant.name(),
                    spec.name
                );
                sum = sum + run_model(kind, variant, ds, &cfg, &PoolHandle::global()).breakdown;
            }
            rows.push(vec![
                kind.name().to_string(),
                variant.name().to_string(),
                secs(sum.forward / n),
                secs(sum.backward / n),
                secs(sum.step / n),
                secs(sum.total() / n),
            ]);
        }
    }
    print_table(
        "Mean seconds per dataset",
        &["Model", "Variant", "Forward", "Backward", "Step", "Total"],
        &rows,
    );
    println!("\nExpected shape: SpTransX rows dominate the baseline rows in forward and");
    println!("backward columns; the step column is close between variants.");
}
