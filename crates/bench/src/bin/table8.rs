//! Regenerates **Table 8** (Appendix E): mean ± std of filtered Hits@10 over
//! 9 seeds on the WN18 stand-in, sparse vs dense baseline, trained with the
//! step LR scheduler.
//!
//! Paper claim to check: SpTransX accuracy is comparable to (or slightly
//! better than) the baseline — the sparse schedule changes no math.

use kg::eval::EvalConfig;
use kg::synthetic::PaperDatasetSpec;
use sptransx::TrainConfig;
use sptx_bench::harness::{
    epochs_from_env, print_table, scale_from_env, trained, ModelKind, Variant,
};
use xparallel::PoolHandle;

const SEEDS: [u64; 9] = [11, 22, 33, 44, 55, 66, 77, 88, 99];

fn main() {
    let scale = scale_from_env();
    let epochs = epochs_from_env().max(10);
    println!(
        "# Table 8 — Hits@10 over {} seeds (WN18 stand-in, scale 1/{scale})",
        SEEDS.len()
    );
    let spec = PaperDatasetSpec::by_name("WN18").expect("known dataset");
    let ds = spec.generate(scale, 0x88);
    let eval_cfg = EvalConfig {
        max_triples: Some(150),
        ..Default::default()
    };

    let base = TrainConfig {
        epochs,
        batch_size: 2048,
        dim: 32,
        rel_dim: 16,
        lr: 0.3,
        lr_schedule: Some((5, 0.7)),
        ..Default::default()
    };

    let mut rows = Vec::new();
    for kind in ModelKind::ALL {
        let [sp, de] = [Variant::Sparse, Variant::Dense].map(|variant| {
            stats(kind.name(), variant.name(), &base, |cfg| {
                let model = kind.registered(variant);
                let (trainer, _) = trained(model, &ds, cfg, &PoolHandle::global());
                trainer
                    .evaluate_batched(&ds, &eval_cfg)
                    .hits(10)
                    .unwrap_or(0.0)
            })
        });
        rows.push(vec![
            kind.name().to_string(),
            format!("{:.3} ± {:.4}", de.0, de.1),
            format!("{:.3} ± {:.4}", sp.0, sp.1),
        ]);
    }

    print_table(
        "Filtered Hits@10 (mean ± std over seeds)",
        &["Model", "Baseline (TorchKGE-style)", "SpTransX"],
        &rows,
    );
    println!("\nExpected shape: overlapping intervals — the sparse formulation is");
    println!("accuracy-neutral (paper reports equal or slightly better Hits@10).");
}

fn stats(
    model: &str,
    variant: &str,
    base: &TrainConfig,
    f: impl Fn(&TrainConfig) -> f32,
) -> (f64, f64) {
    let mut values = Vec::with_capacity(SEEDS.len());
    for &seed in &SEEDS {
        eprintln!("[table8] {model}/{variant} seed {seed} ...");
        let cfg = TrainConfig {
            seed,
            ..base.clone()
        };
        values.push(f64::from(f(&cfg)));
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
    (mean, var.sqrt())
}
