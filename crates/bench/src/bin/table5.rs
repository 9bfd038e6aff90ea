//! Regenerates **Table 5**: average peak training memory per model,
//! SpTransX vs the dense baseline.
//!
//! Paper claims to check: SpTransX allocates less peak memory everywhere,
//! with the largest relative gap on TransH (expression reuse shrinks the
//! computational graph).

use sptx_bench::harness::{
    bench_config, epochs_from_env, factor, mib, paper_datasets, print_table, run_model,
    scale_from_env, ModelKind, Variant,
};
use xparallel::PoolHandle;

fn main() {
    let scale = scale_from_env();
    let epochs = epochs_from_env();
    println!("# Table 5 — average peak tensor memory (scale 1/{scale}, {epochs} epochs)");
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
        let mut mem = [0u64; 2];
        for (vi, variant) in [Variant::Sparse, Variant::Dense].into_iter().enumerate() {
            for (spec, ds) in &datasets {
                eprintln!(
                    "[table5] {} {} {} ...",
                    kind.name(),
                    variant.name(),
                    spec.name
                );
                mem[vi] +=
                    run_model(kind, variant, ds, &cfg, &PoolHandle::global()).peak_memory_bytes;
            }
            mem[vi] /= n;
        }
        rows.push(vec![
            kind.name().to_string(),
            mib(mem[0]),
            mib(mem[1]),
            factor(mem[0] as f64, mem[1] as f64),
        ]);
    }
    print_table(
        "Mean peak memory (MiB)",
        &["Model", "SpTransX", "Baseline", "Baseline overhead"],
        &rows,
    );
    println!("\nExpected shape: SpTransX < Baseline for every model; largest factor on TransH.");
}
