//! Regenerates **Figure 7**: total training time for every dataset × model,
//! SpTransX vs the dense baseline, with slowdown factors, in both thread
//! configurations.
//!
//! Paper claims to check: SpTransX wins everywhere; the largest factors are
//! on TransE (embedding-gradient bound), the smallest on TorusE (metric
//! bound); factors are consistent across small and large datasets.

use sptx_bench::harness::{
    bench_config, epochs_from_env, factor, paper_datasets, print_table, run_model, scale_from_env,
    secs, ModelKind, Variant,
};
use xparallel::PoolHandle;

fn main() {
    let scale = scale_from_env();
    let epochs = epochs_from_env();
    println!("# Figure 7 — total training time (scale 1/{scale}, {epochs} epochs)");
    let datasets = paper_datasets(scale);

    for (mode_name, pool) in [
        ("(a) CPU — 1 thread", PoolHandle::sequential()),
        ("(b) GPU analog — all cores", PoolHandle::global()),
    ] {
        for kind in ModelKind::ALL {
            // Table 4 dimensions, scaled: TransE/TorusE run wide, TransR/
            // TransH reduced for memory (we scale all down uniformly).
            let (dim, rel_dim, bs) = match kind {
                ModelKind::TransE | ModelKind::TorusE => (128, 8, 4096),
                ModelKind::TransR => (32, 16, 2048),
                ModelKind::TransH => (32, 32, 1024),
            };
            let cfg = bench_config(dim, rel_dim, bs, epochs);
            let mut rows = Vec::new();
            for (spec, ds) in &datasets {
                eprintln!("[figure7/{mode_name}] {} {} ...", kind.name(), spec.name);
                let sp = run_model(kind, Variant::Sparse, ds, &cfg, &pool);
                let de = run_model(kind, Variant::Dense, ds, &cfg, &pool);
                rows.push(vec![
                    spec.name.to_string(),
                    secs(sp.wall),
                    secs(de.wall),
                    factor(sp.wall.as_secs_f64(), de.wall.as_secs_f64()),
                ]);
            }
            print_table(
                &format!("{mode_name} — {}", kind.name()),
                &[
                    "Dataset",
                    "SpTransX (s)",
                    "Baseline (s)",
                    "Baseline slowdown",
                ],
                &rows,
            );
        }
    }
    println!("\nExpected shape: slowdown factors > 1 everywhere; largest for TransE,");
    println!("smallest for TorusE; consistent across datasets for a given model.");
}
