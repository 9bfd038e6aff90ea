//! Cross-version guard for the training kernels.
//!
//! Every other bit-identity test in the workspace compares two arms of the
//! *same* build (fused vs `set_fused(false)`, paged vs resident, 1 vs 4
//! threads, blocked vs naive projection), so an edit that changes both arms
//! the same way passes them all. These constants pin the arithmetic across
//! builds: FNV-1a hashes of the final parameter bits and the epoch-loss bits
//! of short seeded runs, captured on the commit *before* a kernel was
//! restructured — the fused incidence-score kernel before it read each
//! operand row once (PR 15: TransE, TorusE), the generic tape ops and the
//! TransR projection loops before the latter were blocked by relation and
//! the torus `floor` was replaced (9174ddb: TransH, TransR, every
//! parameter). A kernel change that alters any float association,
//! accumulation order or `-0.0`/`NaN` canonicalization moves a hash; a
//! change that only moves bytes does not.
//!
//! The last test pins a *schedule* the same way: the all-reduce rounds of
//! `Trainer::replicated` against hashes captured from the free-standing
//! data-parallel driver they replaced (481f5c4), whose loss summation order
//! and reduction arithmetic they must reproduce.
//!
//! The KG uses `zipf_exponent(1.0)` so the builder's only libm call is
//! `powf(x, 1.0)` (exact); everything downstream is `+ − × ÷ √` and
//! compares, which IEEE 754 fixes bit-for-bit — `floor` included, which is
//! neither libm's nor compiler-builtins' any more but `tensor::kernels::floor`,
//! built from two adds and two compares — so the constants are portable.

use kg::synthetic::SyntheticKgBuilder;
use kg::Dataset;
use sptransx::{
    Combine, KgeModel, Norm, OptimizerKind, SpTorusE, SpTransE, SpTransH, SpTransR, TrainConfig,
    Trainer,
};
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

/// Trains 3 epochs at `rel_dim` 12 (no multiple of a vector width, so the
/// projection kernels' tails run) and returns `(hash of every parameter in
/// store order, epoch-loss hash)`.
fn run_every_param<M: KgeModel>(
    norm: Norm,
    ctor: impl FnOnce(&Dataset, &TrainConfig) -> sptransx::Result<M>,
) -> (u64, u64) {
    let ds = dataset();
    let cfg = TrainConfig {
        rel_dim: 12,
        ..config(norm)
    };
    let mut trainer = Trainer::new(ctor(&ds, &cfg).unwrap(), &ds, &cfg).unwrap();
    let report = trainer.run().unwrap();
    let store = trainer.model().store();
    let params = store.param_ids();
    assert!(params.len() >= 3, "entities plus two relation tables");
    let words = params
        .iter()
        .flat_map(|&id| store.value(id).as_slice())
        .map(|x| x.to_bits());
    (
        fnv1a(words),
        fnv1a(report.epoch_losses.iter().map(|x| x.to_bits())),
    )
}

#[test]
fn projection_models_match_pre_blocking_kernels() {
    type Run = fn(Norm) -> (u64, u64);
    let transh: Run = |norm| run_every_param(norm, SpTransH::from_config);
    let transr: Run = |norm| run_every_param(norm, SpTransR::from_config);
    #[rustfmt::skip]
    let golden = [
        ("SpTransH/L1", transh, Norm::L1, (0x595a_6c76_5c93_1d28_u64, 0x4229_0347_06e1_8c51_u64)),
        ("SpTransH/L2", transh, Norm::L2, (0x9ead_4dfa_9e54_29c4, 0x2e6c_331e_0347_e79f)),
        ("SpTransR/L1", transr, Norm::L1, (0xb9ea_4675_87b3_3497, 0xd22e_494d_1657_2629)),
        ("SpTransR/L2", transr, Norm::L2, (0x23ea_7bbf_9bb2_f372, 0xe28e_89b5_3fb2_5f8a)),
    ];
    for (what, run, norm, want) in golden {
        let got = run(norm);
        assert_eq!(
            got, want,
            "{what}: (parameter, loss) hashes {got:#018x?} differ from 9174ddb's {want:#018x?} \
             — a generic tape op's or a projection kernel's arithmetic changed"
        );
    }
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
