//! Regenerates **Figure 5**: filtered Hits@10 versus embedding size on the
//! FB15K stand-in, for all four SpTransX models.
//!
//! Paper claim to check: accuracy rises with embedding size and saturates;
//! larger embeddings stop helping.

use kg::eval::EvalConfig;
use kg::synthetic::PaperDatasetSpec;
use sptransx::TrainConfig;
use sptx_bench::harness::{
    epochs_from_env, print_table, scale_from_env, trained, ModelKind, Variant,
};
use xparallel::PoolHandle;

fn main() {
    let scale = scale_from_env();
    let epochs = epochs_from_env().max(10);
    println!("# Figure 5 — Hits@10 vs embedding size (FB15K stand-in, scale 1/{scale})");
    let spec = PaperDatasetSpec::by_name("FB15K").expect("known dataset");
    let ds = spec.generate(scale, 0x5EED);
    let eval_cfg = EvalConfig {
        max_triples: Some(200),
        ..Default::default()
    };

    let dims = [4usize, 8, 16, 32, 64, 128];
    let mut rows = Vec::new();
    for &dim in &dims {
        let cfg = TrainConfig {
            epochs,
            batch_size: 2048,
            dim,
            rel_dim: dim.min(8),
            lr: 0.3,
            ..Default::default()
        };
        eprintln!("[figure5] dim={dim} ...");
        let mut row = vec![dim.to_string()];
        for kind in ModelKind::ALL {
            let model = kind.registered(Variant::Sparse);
            let (trainer, _) = trained(model, &ds, &cfg, &PoolHandle::global());
            let hits = trainer.evaluate_batched(&ds, &eval_cfg).hits(10);
            row.push(format!("{:.3}", hits.unwrap_or(0.0)));
        }
        rows.push(row);
    }
    print_table(
        "Filtered Hits@10 by embedding size",
        &["Dim", "TransE", "TransR", "TransH", "TorusE"],
        &rows,
    );
    println!("\nExpected shape: monotone-increasing then saturating curves.");
}
