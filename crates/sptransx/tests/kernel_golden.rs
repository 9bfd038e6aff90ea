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
//! `every_model_matches_pre_skeleton_structs` pins the *model layer* the same
//! way: all thirteen models' parameters, losses and batched score buffers
//! against the thirteen hand-written structs and four evaluation kernels that
//! `Model<F>` and the two walks in `scorer.rs` replaced (f6dd388). The score
//! hash is what sees an error common to the scalar and batched walks, which
//! share their per-family transforms and so cannot check each other.
//!
//! `serving_arms_match_pre_unification_distance_and_query` pins what comes
//! *after* training — the IVF index bytes and the exact / ANN / paged answers
//! under all four norms — against aba0a40, the last commit where evaluation
//! and serving re-derived the distance and the query vector themselves.
//! `ivf_index_bytes_match_row_major_assignment` adds the index bytes at the
//! edges of the 16-lane centroid panel (one lane, whole blocks, ties, empty
//! clusters) against 9295046, the last commit with a row-at-a-time
//! assignment.
//!
//! `row_files_match_two_handle_writers` pins the bytes on disk — the
//! streaming dump and the pagefile after a paged epoch, with its storage
//! calls — against 0c0bd16, the last commit with two `SPTXEMB1` handles.
//!
//! `all_reduce_schedule_…` pins a *schedule*: the all-reduce rounds of
//! `Trainer::replicated` against hashes captured from the free-standing
//! data-parallel driver they replaced (481f5c4), whose loss summation order
//! and reduction arithmetic they must reproduce.
//!
//! `self_loops_match_coo_staged_incidence` pins the incidence builders where
//! they merge a repeated column, on self-loop triples, against a45757d, the
//! last commit that staged every row in COO; the golden graph has none.
//!
//! `setup_matches_pre_monomorphic_sampling` and
//! `initial_parameters_match_pre_monomorphic_sampling` pin what set-up builds
//! before the first step — the benchmark-shaped graphs, their known sets and
//! batch plans, and every family's initial parameters — against 75c083b, the
//! last commit whose `rand` shim drew through `&mut dyn RngCore`.
//!
//! The KG uses `zipf_exponent(1.0)` so the builder's only libm call is
//! `powf(x, 1.0)` (exact); everything downstream is `+ − × ÷ √` and
//! compares, which IEEE 754 fixes bit-for-bit — `floor` included, which is
//! neither libm's nor compiler-builtins' any more but the tape's own `floor`
//! (`tensor/src/graph.rs`), built from two adds and two compares — so the
//! constants are portable.

use kg::eval::BatchScorer;
use kg::synthetic::SyntheticKgBuilder;
use kg::Dataset;
use sptransx::{
    Combine, DenseTorusE, DenseTransE, DenseTransH, DenseTransR, KgeModel, Norm, OptimizerKind,
    SpComplEx, SpDistMult, SpRotatE, SpTorusE, SpTransC, SpTransE, SpTransH, SpTransM, SpTransR,
    TrainConfig, Trainer,
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

/// One fixed chunk of ranking queries, `(head, rel)`; read as `(rel, tail)`
/// with the pair swapped for the head direction.
const QUERIES: [(u32, u32); 8] = [
    (0, 0),
    (17, 3),
    (799, 7),
    (400, 1),
    (5, 5),
    (123, 2),
    (640, 6),
    (77, 4),
];

/// Hash of the batched engine's two score buffers for [`QUERIES`].
fn score_hash(model: &impl BatchScorer) -> u64 {
    let mut tails = vec![0f32; QUERIES.len() * ENTITIES];
    model.score_tails_into(&QUERIES, &mut tails);
    let mut heads = vec![0f32; QUERIES.len() * ENTITIES];
    model.score_heads_into(&QUERIES.map(|(e, r)| (r, e)), &mut heads);
    fnv1a(tails.iter().chain(&heads).map(|x| x.to_bits()))
}

/// Trains 3 epochs at `rel_dim` 12 (no multiple of a vector width, so the
/// projection kernels' tails run) and returns `[hash of every parameter in
/// store order, epoch-loss hash, score_hash of the trained model]`.
fn run_every_param<M: KgeModel + BatchScorer>(
    norm: Norm,
    ctor: impl FnOnce(&Dataset, &TrainConfig) -> sptransx::Result<M>,
) -> [u64; 3] {
    run_every_param_on(&dataset(), norm, ctor)
}

/// [`run_every_param`] on the graph `ds`.
fn run_every_param_on<M: KgeModel + BatchScorer>(
    ds: &Dataset,
    norm: Norm,
    ctor: impl FnOnce(&Dataset, &TrainConfig) -> sptransx::Result<M>,
) -> [u64; 3] {
    let cfg = TrainConfig {
        rel_dim: 12,
        ..config(norm)
    };
    let mut trainer = Trainer::new(ctor(ds, &cfg).unwrap(), ds, &cfg).unwrap();
    let report = trainer.run().unwrap();
    let store = trainer.model().store();
    let params = store.param_ids();
    let words = params
        .iter()
        .flat_map(|&id| store.value(id).as_slice())
        .map(|x| x.to_bits());
    [
        fnv1a(words),
        fnv1a(report.epoch_losses.iter().map(|x| x.to_bits())),
        score_hash(trainer.model()),
    ]
}

#[test]
fn projection_models_match_pre_blocking_kernels() {
    type Run = fn(Norm) -> [u64; 3];
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
        let [params, losses, _] = run(norm);
        let got = (params, losses);
        assert_eq!(
            got, want,
            "{what}: (parameter, loss) hashes {got:#018x?} differ from 9174ddb's {want:#018x?} \
             — a generic tape op's or a projection kernel's arithmetic changed"
        );
    }
}

/// A self-loop triple `(e, r, e)` is one merged entity entry in its
/// incidence row: `0` in `ht` and the signed `hrt`, `2` in the unsigned
/// `hrt`. Up to a45757d the builders staged every row in COO and merged the
/// repeated coordinate in the COO → CSR conversion; since, they write CSR
/// directly. This pins the matrices of a batch with self-loops in all three
/// forms, and the families that build each form trained on the golden graph
/// with self-loop triples added, against a45757d.
#[test]
fn self_loops_match_coo_staged_incidence() {
    use sparse::incidence::{hrt, ht, TailSign};
    let (heads, rels, tails) = ([3, 5, 5, 0, 7, 2], [1, 0, 2, 2, 1, 0], [3, 1, 5, 0, 2, 7]);
    let words = |a: sparse::CsrMatrix| {
        let bits = a.values().iter().map(|v| v.to_bits());
        fnv1a(a.indptr().iter().chain(a.indices()).copied().chain(bits))
    };
    let matrices = [
        words(ht(8, &heads, &tails).unwrap()),
        words(hrt(8, 3, &heads, &rels, &tails, TailSign::Negative).unwrap()),
        words(hrt(8, 3, &heads, &rels, &tails, TailSign::Positive).unwrap()),
    ];
    let golden_matrices = [
        0xd6df_c9f0_8763_365a_u64,
        0xd7f3_9eeb_af61_4eed,
        0x6c70_e9e3_4262_92ad,
    ];
    assert_eq!(
        matrices, golden_matrices,
        "[ht, hrt, unsigned hrt] hashes {matrices:#018x?} differ from a45757d's \
         {golden_matrices:#018x?} — an incidence builder's entries changed"
    );

    let mut ds = dataset();
    for i in 0..48 {
        let e = (i * 97 % ENTITIES) as u32;
        ds.train
            .push(kg::Triple::new(e, i as u32 % RELATIONS as u32, e));
    }
    type Run = fn(&Dataset) -> [u64; 3];
    #[rustfmt::skip]
    let golden: [(&str, Run, [u64; 3]); 5] = [
        ("SpTransE", |ds| run_every_param_on(ds, Norm::L2, SpTransE::from_config), [0xcf1a_5630_01a3_bf6e, 0x3199_ff84_837c_37f5, 0x7954_89f6_d417_ad94]),
        ("SpTorusE", |ds| run_every_param_on(ds, Norm::L2, SpTorusE::from_config), [0x5818_3f2b_c1ef_0ddd, 0xaca1_4c3f_d79c_6c79, 0x26a2_f3bc_05e6_54a8]),
        ("SpTransH", |ds| run_every_param_on(ds, Norm::L2, SpTransH::from_config), [0xaa12_ef4b_3053_39a9, 0x9ac0_fe56_cae3_4bd0, 0x3328_2742_2fd0_0e69]),
        ("SpDistMult", |ds| run_every_param_on(ds, Norm::L2, SpDistMult::from_config), [0xc232_7f83_4213_a68e, 0x240e_dab3_c83d_3386, 0x124f_22eb_e2f2_ed25]),
        ("SpComplEx", |ds| run_every_param_on(ds, Norm::L2, SpComplEx::from_config), [0x3dfd_d7e3_c1ae_c6a2, 0xbdb7_5770_868f_27e3, 0xd234_6116_9b3a_9bcb]),
    ];
    let moved: Vec<String> = golden
        .iter()
        .filter_map(|&(what, run, want)| {
            let got = run(&ds);
            (got != want).then(|| {
                format!("{what}: {got:#x?}, a45757d had {want:#x?}").replace(['\n', ' '], "")
            })
        })
        .collect();
    assert!(
        moved.is_empty(),
        "[parameter, loss, score] hashes on a graph with self-loops moved:\n{}",
        moved.join("\n")
    );
}

/// `SpRotatE` with its table overwritten by exact binary fractions (odd
/// multiples of 1/128, so never zero): `init::unit_phases` calls libm's
/// `sin`/`cos`, which IEEE 754 does not fix. The first `end_epoch` puts the
/// relation rows back on the unit circle with `÷` and `√`.
fn rotate_from_binary_fractions(ds: &Dataset, cfg: &TrainConfig) -> sptransx::Result<SpRotatE> {
    let mut model = SpRotatE::from_config(ds, cfg)?;
    let store = model.store_mut();
    let emb = store.lookup("embeddings").unwrap();
    for (i, x) in store.value_mut(emb).as_mut_slice().iter_mut().enumerate() {
        *x = (2 * ((i * 37 + 11) % 63) + 1) as f32 / 128.0 - 0.5;
    }
    Ok(model)
}

/// Every model at `Norm::L2`: parameters, losses and the batched engine's
/// scores, captured on f6dd388 — the last commit with thirteen hand-written
/// model structs and per-family evaluation kernels. The scalar scorers are
/// held to the batched ones by `batch_eval_properties`; this holds the
/// batched ones to the old build. (`SpTransM`'s relation weights go through
/// one f64 `ln` rounded to f32 — the only libm call behind these rows.)
#[test]
fn every_model_matches_pre_skeleton_structs() {
    type Run = fn() -> [u64; 3];
    #[rustfmt::skip]
    let golden: [(&str, Run, [u64; 3]); 13] = [
        ("SpTransE", || run_every_param(Norm::L2, SpTransE::from_config), [0xd913_d7ee_eccf_e669, 0x3de5_8085_6782_54a5, 0xa2d2_a87e_a5d2_d805]),
        ("SpTorusE", || run_every_param(Norm::L2, SpTorusE::from_config), [0xbd41_9339_b443_058a, 0x5968_d23d_d1dc_d482, 0xcb27_cebb_07a6_a751]),
        ("SpTransH", || run_every_param(Norm::L2, SpTransH::from_config), [0x9ead_4dfa_9e54_29c4, 0x2e6c_331e_0347_e79f, 0xf15b_b5cf_66b4_ae77]),
        ("SpTransR", || run_every_param(Norm::L2, SpTransR::from_config), [0x23ea_7bbf_9bb2_f372, 0xe28e_89b5_3fb2_5f8a, 0x4bcb_cf07_038d_6914]),
        ("SpTransC", || run_every_param(Norm::L2, SpTransC::from_config), [0x2b64_18e4_68a9_be46, 0x51b0_992d_22c2_f99c, 0xd23f_ee85_9227_80a6]),
        ("SpTransM", || run_every_param(Norm::L2, SpTransM::from_config), [0xefd0_8446_b2a7_e71d, 0x75eb_0b08_2b05_f419, 0xe603_f0de_1b88_14ad]),
        ("SpDistMult", || run_every_param(Norm::L2, SpDistMult::from_config), [0x2e31_6894_1660_0ac7, 0xaee0_89ca_569f_7a15, 0x6b24_0b97_449a_0c79]),
        ("SpComplEx", || run_every_param(Norm::L2, SpComplEx::from_config), [0x81f5_58de_da9c_7dd3, 0x4efd_5da5_0fe6_b52c, 0x2159_68f5_a73e_0bf1]),
        ("SpRotatE", || run_every_param(Norm::L2, rotate_from_binary_fractions), [0x3f53_e81d_64a7_9f07, 0xf999_f86c_8148_6785, 0xd7bc_8317_3f93_e418]),
        ("DenseTransE", || run_every_param(Norm::L2, DenseTransE::from_config), [0xb7c8_9a6d_b261_b648, 0x3de5_8085_6782_54a5, 0x2e27_1090_c02c_c78b]),
        ("DenseTorusE", || run_every_param(Norm::L2, DenseTorusE::from_config), [0xd7b7_e8fb_f05b_4936, 0xfa9a_7d84_02a8_5951, 0xac57_bc04_538e_86d2]),
        ("DenseTransH", || run_every_param(Norm::L2, DenseTransH::from_config), [0x325b_df24_d577_f1b2, 0x2e6c_331e_0347_e79f, 0x10a1_8996_fab8_63b1]),
        ("DenseTransR", || run_every_param(Norm::L2, DenseTransR::from_config), [0x70f2_1f23_c44c_31fc, 0x7dd1_d27e_f145_3087, 0x2df0_dffe_249c_66e9]),
    ];
    // Report every moved row at once: one edit to the skeleton moves many.
    let moved: Vec<String> = golden
        .iter()
        .filter_map(|&(what, run, want)| {
            let got = run();
            (got != want).then(|| {
                format!("{what}: {got:#x?}, f6dd388 had {want:#x?}").replace(['\n', ' '], "")
            })
        })
        .collect();
    assert!(
        moved.is_empty(),
        "[parameter, loss, score] hashes moved — the model skeleton or the evaluation walk \
         changed arithmetic:\n{}",
        moved.join("\n")
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

/// The serving stack after training: one fixed synthetic `(400 + 5) × 72`
/// stacked model (exact binary fractions in `[-1, 1)`, 72 columns so a row
/// spans more than one 64-wide score tile), its IVF index, and the three
/// serving arms' answers to a 64-query Zipf(1.0) stream under every norm.
/// Captured on aba0a40 — the last commit where `Norm::distance` was four
/// hand-written loops, the ANN query vector came out of a COO → CSR → SpMM
/// round trip, the paged arm formed `v0·e + v1·r` itself and each arm had its
/// own rescoring loop. Each row is `[exact, ann (nprobe 3), paged]` hashes of
/// the `(hit count, (id, score bits)…)` lists.
#[test]
fn serving_arms_match_pre_unification_distance_and_query() {
    use sptransx::serve::{IvfConfig, IvfIndex, PagedRows, ServeEngine, ServeModel, ZipfWorkload};
    use tensor::RowStorage;

    const INDEX_BYTES: u64 = 0xda78_e615_b009_f1e6;
    #[rustfmt::skip]
    let golden: [(Norm, [u64; 3]); 4] = [
        (Norm::L1, [0x9662_5196_36c1_96ec, 0x9ba9_f6b9_417a_23c9, 0x9ba9_f6b9_417a_23c9]),
        (Norm::L2, [0x557a_0940_0fad_256c, 0x227a_b109_2d66_c626, 0x227a_b109_2d66_c626]),
        (Norm::TorusL1, [0x29e0_0061_d75f_92d3, 0x921e_7d9f_e319_f449, 0x921e_7d9f_e319_f449]),
        (Norm::TorusL2, [0x5a84_751a_9c88_eca6, 0xe07c_46d4_aa66_a3bc, 0xe07c_46d4_aa66_a3bc]),
    ];

    let (n, r, d) = (400usize, 5usize, 72usize);
    let stack: Vec<f32> = (0..((n + r) * d) as u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 8) as f32 / 8_388_608.0 - 1.0)
        .collect();
    let cfg = IvfConfig {
        clusters: 20,
        iters: 4,
        seed: 0x1DF,
    };
    let index = IvfIndex::build(&stack, n, d, &cfg, &xparallel::PoolHandle::global()).unwrap();
    let path = std::env::temp_dir().join(format!("sptx-golden-ivf-{}.bin", std::process::id()));
    index.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    // The format is all 4- and 8-byte words, so hashing words hashes bytes.
    let words = bytes.chunks_exact(4);
    assert!(words.remainder().is_empty());
    let index_hash = fnv1a(words.map(|w| u32::from_le_bytes(w.try_into().unwrap())));
    let mut moved = Vec::new();
    if index_hash != INDEX_BYTES {
        moved.push(format!(
            "index bytes: {index_hash:#x}, aba0a40 had {INDEX_BYTES:#x}"
        ));
    }

    let queries = ZipfWorkload::new(n, r, 1.0, 24).take(64);
    let answers = |hits: &[(u32, f32)]| {
        let mut words = vec![hits.len() as u32];
        words.extend(hits.iter().flat_map(|&(id, s)| [id, s.to_bits()]));
        words
    };
    for (norm, want) in golden {
        let model = ServeModel::from_stacked(stack.clone(), n, r, d, norm).unwrap();
        let mut engine = ServeEngine::new(model, index.clone()).unwrap();
        let mut storage = tensor::VecStorage::new(n + r, d);
        storage.write_rows(0, n + r, &stack).unwrap();
        let mut rows = PagedRows::new(Box::new(storage), 200).unwrap();
        let (mut exact, mut ann, mut paged) = (Vec::new(), Vec::new(), Vec::new());
        for q in &queries {
            exact.extend(answers(&engine.answer_exact(q, 10)));
            ann.extend(answers(&engine.answer_ann(q, 10, 3).hits));
            paged.extend(answers(
                &engine.answer_ann_paged(&mut rows, q, 10, 3).unwrap().hits,
            ));
        }
        assert!(rows.stats().evictions > 0, "a 200-row cache must evict");
        let got = [exact, ann, paged].map(|w| fnv1a(w.into_iter()));
        if got != want {
            moved.push(
                format!("{norm:?}: {got:#x?}, aba0a40 had {want:#x?}").replace(['\n', ' '], ""),
            );
        }
    }
    assert!(
        moved.is_empty(),
        "[exact, ann, paged] answer hashes moved — the distance, the query vector or the \
         candidate scan changed arithmetic:\n{}",
        moved.join("\n")
    );
}

/// The IVF index bytes at the edges of the build's 16-lane centroid panel,
/// captured on 9295046 — the last commit whose assignment scanned the
/// centroids one row-major distance at a time. `INDEX_BYTES` above is one
/// full block plus a 4-lane tail; these add a 1-lane block, exactly one
/// block and exactly three at `d` 13 (no multiple of any vector width), a
/// table of 25 distinct rows each repeated (equidistant centroids, so ties
/// must go to the lowest cluster), and 16 clusters over 6 distinct rows (the
/// empty-cluster re-seed runs every round).
#[test]
fn ivf_index_bytes_match_row_major_assignment() {
    use sptransx::serve::{IvfConfig, IvfIndex};

    let spread = |i: u32| (i.wrapping_mul(2_654_435_761) >> 8) as f32 / 8_388_608.0 - 1.0;
    // Quarter steps in [-1, 1): distinct rows at equal distances are common.
    let coarse = |i: u32| (i.wrapping_mul(2_654_435_761) >> 29) as f32 / 4.0 - 1.0;
    let table = |n: usize, d: usize, distinct: usize, value: &dyn Fn(u32) -> f32| {
        (0..n * d)
            .map(|i| value(((i / d * 7 % distinct) * d + i % d) as u32))
            .collect::<Vec<f32>>()
    };
    #[rustfmt::skip]
    let golden: [(&str, Vec<f32>, usize, usize, u64); 5] = [
        ("k 1", table(300, 13, 300, &spread), 1, 3, 0xfab5_f8ef_1022_14b1),
        ("k 16", table(300, 13, 300, &spread), 16, 3, 0x4936_29c6_a33d_dc0d),
        ("k 48", table(300, 13, 300, &spread), 48, 3, 0x4e4a_3aea_cd7c_fa7f),
        ("duplicated rows", table(200, 13, 25, &coarse), 20, 4, 0x5a3c_1142_7832_3004),
        ("more clusters than rows", table(100, 13, 6, &coarse), 16, 3, 0x08a1_c064_167e_6260),
    ];
    let path = std::env::temp_dir().join(format!("sptx-golden-panel-{}.ivf", std::process::id()));
    let mut moved = Vec::new();
    for (what, emb, clusters, iters, want) in golden {
        let n = emb.len() / 13;
        let cfg = IvfConfig {
            clusters,
            iters,
            seed: 0x1DF,
        };
        for width in [1, 4] {
            let handle = xparallel::PoolHandle::global().with_width(width);
            let index = IvfIndex::build(&emb, n, 13, &cfg, &handle).unwrap();
            index.save(&path).unwrap();
            let got = file_hash(&path);
            if got != want {
                moved.push(format!(
                    "{what} (width {width}): {got:#x}, 9295046 had {want:#x}"
                ));
            }
        }
    }
    std::fs::remove_file(&path).ok();
    assert!(
        moved.is_empty(),
        "IVF index bytes moved — the assignment's distances or tie-breaks changed:\n{}",
        moved.join("\n")
    );
}

/// FNV-1a of a file's bytes; every on-disk format here is whole 4-byte
/// words, so hashing words hashes bytes.
fn file_hash(path: &std::path::Path) -> u64 {
    let bytes = std::fs::read(path).unwrap();
    let words = bytes.chunks_exact(4);
    assert!(words.remainder().is_empty(), "{} bytes", bytes.len());
    fnv1a(words.map(|w| u32::from_le_bytes(w.try_into().unwrap())))
}

/// The bytes on disk of both `SPTXEMB1` writers, captured on 0c0bd16 — the
/// last commit where the streaming dump (`EmbeddingStore`) and the pagefile
/// (`RowFile`) were two handles with two write paths:
///
/// * the dump of three tables whose values are arbitrary bit
///   patterns (NaN payloads, infinities, subnormals, `-0.0`): an odd width,
///   a zero-row table and a table larger than one write chunk;
/// * the pagefile after `flush_paged` of one paged SpTransE epoch over
///   `FileRowStorage` on `kernel_counters`' fixture, with the storage calls
///   it took and the pager's counters.
#[test]
fn row_files_match_two_handle_writers() {
    use sptransx::FileRowStorage;

    let dir = std::env::temp_dir().join(format!("sptx-golden-rowfile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    #[rustfmt::skip]
    let dumps: [((usize, usize), u64); 3] = [
        ((7, 5), 0x0f76_eb90_7e1f_baa5),
        ((0, 8), 0x12a5_2148_4978_193d),
        ((5000, 3), 0xe52b_bd8b_b8a9_90af),
    ];
    let mut moved = Vec::new();
    for ((rows, cols), want) in dumps {
        let path = dir.join(format!("dump_{rows}x{cols}.bin"));
        kg::stream::RowFile::write(&path, rows, cols, |r, out| {
            for (c, v) in out.iter_mut().enumerate() {
                *v = f32::from_bits(((r * cols + c) as u32).wrapping_mul(2_654_435_761));
            }
        })
        .unwrap();
        let got = file_hash(&path);
        if got != want {
            moved.push(format!(
                "{rows}x{cols} dump: {got:#x}, 0c0bd16 had {want:#x}"
            ));
        }
    }

    let ds = dataset();
    let cfg = TrainConfig {
        batch_size: 32,
        dim: 20,
        rel_dim: 12,
        lr: 0.05,
        seed: 11,
        ..Default::default()
    };
    let model = SpTransE::from_config(&ds, &cfg).unwrap();
    let emb = model.embedding_param();
    let mut trainer = Trainer::new(model, &ds, &cfg).unwrap();
    let store = trainer.model_mut().store_mut();
    let (rows, cols) = store.param_shape(emb);
    let path = dir.join("pagefile.bin");
    let storage = FileRowStorage::create(&path, rows, cols).unwrap();
    store.page_out(emb, Box::new(storage), rows / 4).unwrap();
    trainer.run_epochs(1).unwrap();
    let store = trainer.model_mut().store_mut();
    store.flush_paged(emb).unwrap();
    let pager = store.pager(emb).unwrap();
    let s = pager.stats();
    let got = (
        file_hash(&path),
        pager.storage_io_ops(),
        [s.hits, s.misses, s.evictions, s.write_backs],
    );
    #[rustfmt::skip]
    let want: (u64, (u64, u64), [u64; 4]) = (0x2a30_ac51_2030_ef35, (2357, 2467), [2704, 4138, 3936, 4126]);
    if got != want {
        moved.push(format!(
            "pagefile (bytes, io_ops, [hits, misses, evictions, write_backs]): {got:x?}, \
             0c0bd16 had {want:x?}"
        ));
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        moved.is_empty(),
        "row-file bytes moved — the SPTXEMB1 writer or the pager's I/O changed:\n{}",
        moved.join("\n")
    );
}

/// The benchmark's two graph shapes, `(name, entities, relations, triples,
/// batch size)`: its `KG_LARGE` and `KG_SMALL`.
const SETUP_SHAPES: [(&str, usize, usize, usize, usize); 2] = [
    ("KG_LARGE", 200_000, 200, 120_000, 4096),
    ("KG_SMALL", 20_000, 100, 60_000, 1024),
];

/// The graph of shape `shape` at Zipf exponent `exponent`, seed 1.
fn setup_graph(shape: &str, exponent: f64) -> (Dataset, usize) {
    let &(_, n, r, triples, batch) = SETUP_SHAPES.iter().find(|s| s.0 == shape).unwrap();
    let ds = SyntheticKgBuilder::new(n, r)
        .triples(triples)
        .zipf_exponent(exponent)
        .seed(1)
        .build();
    (ds, batch)
}

fn store_words(s: &kg::TripleStore) -> impl Iterator<Item = u32> + '_ {
    s.heads().iter().chain(s.rels()).chain(s.tails()).copied()
}

/// Everything set-up builds before a model, on the benchmark's two shapes
/// at the default Zipf exponent 0.9, at 0 (uniform) and at 3.0 (nearly all
/// mass on the first rows): `[dataset, sorted known set, batch plan]`
/// hashes. Captured on 75c083b — the last commit whose `rand` shim drew
/// through `&mut dyn RngCore` with a `u128` modulus, whose Zipf sampler
/// binary-searched its CDF and whose triple sets hashed with SipHash. Unlike
/// the golden graph's exponent 1.0, these call libm's `pow`, so they pin
/// the platform's `pow` too.
#[test]
fn setup_matches_pre_monomorphic_sampling() {
    use kg::{BatchPlan, UniformSampler};
    #[rustfmt::skip]
    let golden: [(&str, f64, [u64; 3]); 6] = [
        ("KG_LARGE", 0.9, [0xb610_9cbb_983d_0a72, 0xaf5b_5dc5_1c92_a27a, 0x4432_1b89_9675_951e]),
        ("KG_LARGE", 0.0, [0x5113_812f_7eff_e2eb, 0xd7de_61bd_475c_7db7, 0xa8b1_8dfe_70b0_5a27]),
        ("KG_LARGE", 3.0, [0x0b55_560b_5b58_c697, 0xebdf_22ec_306e_9367, 0xd60c_b174_6144_e7d4]),
        ("KG_SMALL", 0.9, [0x363a_6924_df71_4725, 0x3b25_6076_11c2_ee15, 0x0ad9_8c86_5b23_d5b8]),
        ("KG_SMALL", 0.0, [0x4585_eea4_ca26_4f47, 0x999b_3325_4833_b93b, 0xc99b_e5e4_0136_b565]),
        ("KG_SMALL", 3.0, [0x3ff4_a5dd_7245_817b, 0x41bf_01e7_779f_249f, 0xbec7_eb0c_4d04_308d]),
    ];
    let moved: Vec<String> = golden
        .iter()
        .filter_map(|&(shape, exponent, want)| {
            let (ds, batch) = setup_graph(shape, exponent);
            let splits = [&ds.train, &ds.valid, &ds.test];
            let known = ds.all_known();
            let mut sorted: Vec<kg::Triple> = known.iter().collect();
            sorted.sort_unstable();
            let sampler = UniformSampler::new(ds.num_entities);
            let plan = BatchPlan::build(&ds.train, &known, &sampler, batch, 1);
            let got = [
                fnv1a(splits.into_iter().flat_map(store_words)),
                fnv1a(sorted.iter().flat_map(|t| [t.head, t.rel, t.tail])),
                fnv1a(
                    plan.iter()
                        .flat_map(|b| store_words(&b.pos).chain(store_words(&b.neg))),
                ),
            ];
            (got != want).then(|| {
                format!("{shape} at {exponent}: {got:#x?}, 75c083b had {want:#x?}")
                    .replace(['\n', ' '], "")
            })
        })
        .collect();
    assert!(
        moved.is_empty(),
        "[dataset, known, plan] hashes moved — a sampler's stream, the Zipf search or the \
         known-set membership changed:\n{}",
        moved.join("\n")
    );
}

/// The initial parameters of every registered family at the default
/// `TrainConfig`, on the `KG_LARGE` graph, hashed in store order: entity
/// tables of 25.6 MB, large enough for `tensor::init`'s huge-page hint.
/// Captured on 75c083b, like the set-up hashes above. (`SpRotatE`'s phases
/// go through libm's `sin`/`cos` and `SpTransM`'s weights through `ln`.)
#[test]
fn initial_parameters_match_pre_monomorphic_sampling() {
    #[rustfmt::skip]
    let golden: [(&str, u64); 13] = [
        ("SpTransE", 0x0f19_5953_8579_8c5a),
        ("SpTorusE", 0xa570_f90c_fb6f_a1bc),
        ("SpTransH", 0x7662_94c9_ca9c_e8bf),
        ("SpTransR", 0xcf96_840b_f58d_79b6),
        ("SpDistMult", 0xa69a_2486_2e0c_034e),
        ("SpComplEx", 0x494e_06bd_bacd_3600),
        ("SpRotatE", 0x4e1c_dccb_ed9c_bc31),
        ("SpTransC", 0x0f19_5953_8579_8c5a),
        ("SpTransM", 0x0f19_5953_8579_8c5a),
        ("TransE-dense", 0x0f19_5953_8579_8c5a),
        ("TorusE-dense", 0xa570_f90c_fb6f_a1bc),
        ("TransH-dense", 0x7662_94c9_ca9c_e8bf),
        ("TransR-dense", 0xcf96_840b_f58d_79b6),
    ];
    assert_eq!(golden.len(), sptransx::MODELS.len());
    let (ds, _) = setup_graph("KG_LARGE", 0.9);
    let cfg = TrainConfig::default();
    let moved: Vec<String> = golden
        .iter()
        .zip(sptransx::MODELS)
        .filter_map(|(&(what, want), family)| {
            assert_eq!(what, family.name);
            let model = (family.build)(&ds, &cfg).unwrap();
            let store = model.store();
            let words = store
                .param_ids()
                .into_iter()
                .flat_map(|id| store.value(id).as_slice().iter().map(|x| x.to_bits()));
            let got = fnv1a(words);
            (got != want).then(|| format!("{what}: {got:#x}, 75c083b had {want:#x}"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "initial parameter hashes moved — an init stream changed:\n{}",
        moved.join("\n")
    );
}
