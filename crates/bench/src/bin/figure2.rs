//! Regenerates **Figure 2**: the most CPU-intensive functions per model and
//! dataset, as fractions of total training time.
//!
//! The paper profiles the PyTorch baselines with `perf` and finds
//! `EmbeddingBackward` (gradient scatter) among the top functions for every
//! translational model, plus `l2_torus_dissimilarity` for TorusE. Our analog
//! attributes wall-clock time to the named autograd-op scopes.

use kg::synthetic::PaperDatasetSpec;
use sptx_bench::harness::{
    bench_config, epochs_from_env, print_table, run_model, scale_from_env, ModelKind, Variant,
};
use tensor::profile;
use xparallel::PoolHandle;

fn main() {
    let scale = scale_from_env();
    let epochs = epochs_from_env();
    println!("# Figure 2 — top op-level time consumers (scale 1/{scale}, {epochs} epochs)");
    println!("\nBaseline (gather/scatter) variants are profiled, as in the paper.");

    let cfg = bench_config(32, 16, 2048, epochs);
    for ds_name in ["FB13", "FB15K"] {
        let spec = PaperDatasetSpec::by_name(ds_name).expect("known dataset");
        let ds = spec.generate(scale, 0xF16 + u64::from(ds_name.len() as u32));
        for kind in ModelKind::ALL {
            profile::reset();
            let report = run_model(kind, Variant::Dense, &ds, &cfg, &PoolHandle::global());
            let total = report.breakdown.total().as_secs_f64().max(1e-9);
            let mut rows: Vec<Vec<String>> = profile::report()
                .into_iter()
                .filter(|e| e.name.starts_with("op::"))
                .take(5)
                .map(|e| {
                    vec![
                        e.name.to_string(),
                        format!("{:.1}%", 100.0 * e.total.as_secs_f64() / total),
                        e.calls.to_string(),
                    ]
                })
                .collect();
            if rows.is_empty() {
                rows.push(vec!["<none>".into(), "-".into(), "0".into()]);
            }
            print_table(
                &format!(
                    "{} ({}) — top ops by share of training time",
                    kind.name(),
                    ds_name
                ),
                &["Function (op scope)", "Share", "Calls"],
                &rows,
            );
        }
    }
    println!("\nExpected shape: gather_backward (the scatter of Figure 1b) ranks near the");
    println!("top for TransE/TransR/TransH; the torus dissimilarity op joins it for TorusE.");
}
