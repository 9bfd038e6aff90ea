//! Regenerates **Table 6**: average FLOP count per model, SpTransX vs the
//! dense baseline.
//!
//! FLOPs are recorded analytically by the instrumented kernels (the paper
//! uses `perf`). Paper claim to check: SpTransX executes fewer
//! floating-point operations — the incidence SpMM's ±1 coefficients are pure
//! adds, and the rearranged formulations avoid duplicated projections.

use sptx_bench::harness::{
    bench_config, epochs_from_env, factor, paper_datasets, print_table, run_model, scale_from_env,
    ModelKind, Variant,
};
use xparallel::PoolHandle;

fn main() {
    let scale = scale_from_env();
    let epochs = epochs_from_env();
    println!("# Table 6 — average FLOP count (scale 1/{scale}, {epochs} epochs)");
    let datasets = paper_datasets(scale);
    let n = datasets.len() as u64;

    let mut rows = Vec::new();
    for kind in ModelKind::ALL {
        let (dim, rel_dim, bs) = match kind {
            ModelKind::TransE | ModelKind::TorusE => (128, 8, 4096),
            ModelKind::TransR => (32, 16, 2048),
            ModelKind::TransH => (32, 32, 1024),
        };
        let cfg = bench_config(dim, rel_dim, bs, epochs);
        let mut flops = [0u64; 2];
        for (vi, variant) in [Variant::Sparse, Variant::Dense].into_iter().enumerate() {
            for (spec, ds) in &datasets {
                eprintln!(
                    "[table6] {} {} {} ...",
                    kind.name(),
                    variant.name(),
                    spec.name
                );
                flops[vi] += run_model(kind, variant, ds, &cfg, &PoolHandle::global()).flops;
            }
            flops[vi] /= n;
        }
        rows.push(vec![
            kind.name().to_string(),
            format!("{:.2}", flops[0] as f64 / 1e9),
            format!("{:.2}", flops[1] as f64 / 1e9),
            factor(flops[0] as f64, flops[1] as f64),
        ]);
    }
    print_table(
        "Mean GFLOPs per training run",
        &["Model", "SpTransX", "Baseline", "Baseline overhead"],
        &rows,
    );
    println!("\nExpected shape: SpTransX ≤ Baseline for every model.");
}
