//! Regenerates **Figure 6**: training time and peak memory versus batch
//! size, for all four SpTransX models.
//!
//! Paper claim to check: the largest batch size gives both the fastest
//! training (fewer kernel launches per epoch) and the highest memory use.

use kg::synthetic::PaperDatasetSpec;
use sptx_bench::harness::{
    bench_config, epochs_from_env, mib, print_table, run_model, scale_from_env, secs, ModelKind,
    Variant,
};
use xparallel::PoolHandle;

fn main() {
    let scale = scale_from_env();
    let epochs = epochs_from_env();
    println!("# Figure 6 — time & peak memory vs batch size (scale 1/{scale}, {epochs} epochs)");
    let spec = PaperDatasetSpec::by_name("FB15K").expect("known dataset");
    let ds = spec.generate(scale, 0xBA7C);

    let batch_sizes = [64usize, 128, 256, 512, 1024, 2048, 4096];
    for kind in ModelKind::ALL {
        let mut rows = Vec::new();
        for &bs in &batch_sizes {
            let cfg = bench_config(128, 8, bs, epochs);
            eprintln!("[figure6] {} bs={bs} ...", kind.name());
            let report = run_model(kind, Variant::Sparse, &ds, &cfg, &PoolHandle::global());
            rows.push(vec![
                bs.to_string(),
                secs(report.wall),
                mib(report.peak_memory_bytes),
            ]);
        }
        print_table(
            &format!("{} — SpTransX, dim 128", kind.name()),
            &["Batch size", "Train time (s)", "Peak memory (MiB)"],
            &rows,
        );
    }
    println!("\nExpected shape: time falls and memory rises as batch size grows.");
}
