//! Regenerates **Figure 9** (Appendix E): margin-loss curves of the sparse
//! and dense variants for all four models.
//!
//! Paper claim to check: the curves track each other and converge to the
//! same loss — the sparse approach changes the schedule, not the math. (In
//! this reproduction both variants share initialization and batch order, so
//! the curves coincide up to float association.)

use kg::synthetic::PaperDatasetSpec;
use sptx_bench::harness::bench_config;
use sptx_bench::harness::{
    epochs_from_env, print_table, run_model, scale_from_env, ModelKind, Variant,
};
use xparallel::PoolHandle;

fn main() {
    let scale = scale_from_env();
    let epochs = epochs_from_env().max(8);
    println!("# Figure 9 — loss curves, sparse vs non-sparse (WN18 stand-in, scale 1/{scale})");
    let spec = PaperDatasetSpec::by_name("WN18").expect("known dataset");
    let ds = spec.generate(scale, 0xF19);

    for kind in ModelKind::ALL {
        let mut cfg = bench_config(16, 8, 2048, epochs);
        cfg.lr = 0.05; // visible convergence within few epochs
        eprintln!("[figure9] {} ...", kind.name());
        let sp = run_model(kind, Variant::Sparse, &ds, &cfg, &PoolHandle::global());
        let de = run_model(kind, Variant::Dense, &ds, &cfg, &PoolHandle::global());
        let rows: Vec<Vec<String>> = sp
            .epoch_losses
            .iter()
            .zip(&de.epoch_losses)
            .enumerate()
            .map(|(e, (a, b))| vec![e.to_string(), format!("{a:.5}"), format!("{b:.5}")])
            .collect();
        print_table(
            &format!("{} — margin loss per epoch", kind.name()),
            &["Epoch", "SpTransX", "Baseline"],
            &rows,
        );
    }
    println!("\nExpected shape: per-model curves coincide and decrease.");
}
