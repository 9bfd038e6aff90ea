//! Cross-version guard for the fused incidence-score kernel.
//!
//! Every other bit-identity test in the workspace compares two arms of the
//! *same* build (fused vs `set_fused(false)`, paged vs resident, 1 vs 4
//! threads), so an edit that changes both arms the same way passes them
//! all. These constants pin the arithmetic across builds: FNV-1a hashes of
//! the final embedding bits and the epoch-loss bits of short seeded runs,
//! captured on the commit *before* the kernel was restructured to read each
//! operand row once (PR 15). A kernel change that alters any float
//! association, accumulation order or `-0.0`/`NaN` canonicalization moves a
//! hash; a change that only moves bytes does not.
//!
//! The last test pins a *schedule* the same way: the all-reduce rounds of
//! `Trainer::replicated` against hashes captured from the free-standing
//! data-parallel driver they replaced (481f5c4), whose loss summation order
//! and reduction arithmetic they must reproduce.
//!
//! The KG uses `zipf_exponent(1.0)` so the builder's only libm call is
//! `powf(x, 1.0)` (exact); everything downstream is `+ − × ÷ √ floor`,
//! which IEEE 754 fixes bit-for-bit, so the constants are portable.

use kg::synthetic::SyntheticKgBuilder;
use kg::Dataset;
use sptransx::{Combine, KgeModel, Norm, OptimizerKind, SpTorusE, SpTransE, TrainConfig, Trainer};
use tensor::VecStorage;

const ENTITIES: usize = 800;
const RELATIONS: usize = 8;

fn dataset() -> Dataset {
    SyntheticKgBuilder::new(ENTITIES, RELATIONS)
        .triples(2400)
        .zipf_exponent(1.0)
        .seed(15)
        .build()
}

fn config(norm: Norm) -> TrainConfig {
    TrainConfig {
        epochs: 3,
        batch_size: 32,
        dim: 20,
        lr: 0.05,
        seed: 11,
        norm,
        ..Default::default()
    }
}

fn fnv1a(words: impl Iterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Trains 3 epochs and returns `(embedding hash, epoch-loss hash)`; with
/// `paged` the table lives in a `VecStorage` behind a 25 % row cache.
fn run<M: KgeModel>(
    norm: Norm,
    paged: bool,
    ctor: impl FnOnce(&Dataset, &TrainConfig) -> sptransx::Result<M>,
) -> (u64, u64) {
    let ds = dataset();
    let cfg = config(norm);
    let model = ctor(&ds, &cfg).unwrap();
    let emb = model.store().lookup("embeddings").unwrap();
    let mut trainer = Trainer::new(model, &ds, &cfg).unwrap();
    if paged {
        let rows = ENTITIES + RELATIONS;
        let storage = Box::new(VecStorage::new(rows, cfg.dim));
        let store = trainer.model_mut().store_mut();
        store.page_out(emb, storage, rows / 4).unwrap();
    }
    let report = trainer.run().unwrap();
    if paged {
        let store = trainer.model_mut().store_mut();
        assert!(store.pager(emb).unwrap().stats().evictions > 0);
        store.unpage(emb).unwrap();
    }
    let model = trainer.into_model();
    let values = model.store().value(emb).as_slice();
    (
        fnv1a(values.iter().map(|x| x.to_bits())),
        fnv1a(report.epoch_losses.iter().map(|x| x.to_bits())),
    )
}

fn check<M: KgeModel>(
    what: &str,
    norm: Norm,
    golden: (u64, u64),
    ctor: impl Fn(&Dataset, &TrainConfig) -> sptransx::Result<M>,
) {
    for paged in [false, true] {
        let got = run(norm, paged, &ctor);
        assert_eq!(
            got, golden,
            "{what} (paged: {paged}): (embedding, loss) hashes {got:#018x?} differ from the \
             pre-PR-15 kernel's {golden:#018x?} — the fused score kernel's arithmetic changed"
        );
    }
}

#[test]
fn sptranse_l1_matches_pre_rewrite_kernel() {
    check(
        "SpTransE/L1",
        Norm::L1,
        (0xa86d_84fa_68ec_2486, 0xad7d_f647_d637_588d),
        SpTransE::from_config,
    );
}

#[test]
fn sptranse_l2_matches_pre_rewrite_kernel() {
    check(
        "SpTransE/L2",
        Norm::L2,
        (0xd913_d7ee_eccf_e669, 0x3de5_8085_6782_54a5),
        SpTransE::from_config,
    );
}

#[test]
fn sptoruse_matches_pre_rewrite_kernel() {
    check(
        "SpTorusE",
        Norm::TorusL1,
        (0x986d_d099_58dc_087b, 0x785b_f907_4420_8694),
        SpTorusE::from_config,
    );
}

#[test]
fn all_reduce_schedule_matches_pre_unification_driver() {
    // (optimizer, workers, lock-step rounds, embedding hash, loss hash); the
    // Adagrad rows also decay the rate every epoch, on every replica.
    #[rustfmt::skip]
    let golden = [
        (OptimizerKind::Sgd, 2, 102, 0x7e04_af42_bf92_d1ae_u64, 0xbd51_7047_f53e_b170_u64),
        (OptimizerKind::Sgd, 3, 69, 0xa458_96b1_b2f2_7856, 0x2751_8f3c_8057_05d8),
        (OptimizerKind::Sgd, 4, 51, 0xd9fc_d427_38b3_819f, 0xab1d_abfe_f2bc_77aa),
        (OptimizerKind::Adagrad, 2, 102, 0x6c20_dd93_b5fb_5168, 0x23d7_9ec9_7f86_67ba),
        (OptimizerKind::Adagrad, 3, 69, 0x7bf6_1df8_4337_b2ef, 0x069b_f3df_df08_33c6),
        (OptimizerKind::Adagrad, 4, 51, 0xb1c9_affa_17fc_3e0c, 0x2502_6524_ca9e_1515),
    ];
    let ds = dataset();
    for (optimizer, workers, rounds, emb_hash, loss_hash) in golden {
        let cfg = TrainConfig {
            optimizer,
            lr_schedule: (optimizer == OptimizerKind::Adagrad).then_some((1, 0.5)),
            ..config(Norm::L2)
        };
        let mut trainer = Trainer::replicated(
            &ds,
            &cfg,
            workers,
            Combine::AllReduce,
            SpTransE::from_config,
        )
        .unwrap();
        let report = trainer.run().unwrap();
        let store = trainer.model().store();
        let values = store.value(store.lookup("embeddings").unwrap()).as_slice();
        let got = (
            report.steps,
            fnv1a(values.iter().map(|x| x.to_bits())),
            fnv1a(report.epoch_losses.iter().map(|x| x.to_bits())),
        );
        assert_eq!(
            got,
            (rounds, emb_hash, loss_hash),
            "{optimizer:?} at {workers} workers: (rounds, embedding, loss) {got:#018x?} differ \
             from the data-parallel driver's at 481f5c4"
        );
    }
}
