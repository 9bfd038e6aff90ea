//! Regenerates **Table 1**: TransE training-time breakdown (forward /
//! backward / step), sparse vs non-sparse, averaged over the seven datasets,
//! in both the single-thread ("CPU") and all-core ("GPU") configurations.
//!
//! Paper claim to check: the sparse approach cuts forward and especially
//! backward time by 2–5×, while optimizer-step time is unchanged.

use sptransx::Breakdown;
use sptx_bench::harness::{
    bench_config, epochs_from_env, paper_datasets, print_table, scale_from_env, secs, ModelKind,
    Variant,
};
use xparallel::PoolHandle;

fn main() {
    let scale = scale_from_env();
    let epochs = epochs_from_env();
    println!("# Table 1 — TransE time breakdown (scale 1/{scale}, {epochs} epochs)");
    let datasets = paper_datasets(scale);
    let cfg = bench_config(64, 32, 4096, epochs);

    for (mode_name, pool) in [
        ("CPU (1 thread)", PoolHandle::sequential()),
        ("GPU analog (all cores)", PoolHandle::global()),
    ] {
        let mut sparse_sum = Breakdown::default();
        let mut dense_sum = Breakdown::default();
        for (spec, ds) in &datasets {
            eprintln!("[table1/{mode_name}] {} ...", spec.name);
            sparse_sum = sparse_sum + run(Variant::Sparse, ds, &cfg, &pool);
            dense_sum = dense_sum + run(Variant::Dense, ds, &cfg, &pool);
        }
        let n = datasets.len() as u32;
        let rows = vec![
            vec![
                "Forward".to_string(),
                secs(sparse_sum.forward / n),
                secs(dense_sum.forward / n),
            ],
            vec![
                "Backward".to_string(),
                secs(sparse_sum.backward / n),
                secs(dense_sum.backward / n),
            ],
            vec![
                "Step".to_string(),
                secs(sparse_sum.step / n),
                secs(dense_sum.step / n),
            ],
        ];
        print_table(
            &format!("{mode_name} — mean seconds per dataset"),
            &["Phase", "Sparse", "Non-Sparse (baseline)"],
            &rows,
        );
    }
}

fn run(
    variant: Variant,
    ds: &kg::Dataset,
    cfg: &sptransx::TrainConfig,
    pool: &PoolHandle,
) -> Breakdown {
    sptx_bench::harness::run_model(ModelKind::TransE, variant, ds, cfg, pool).breakdown
}
