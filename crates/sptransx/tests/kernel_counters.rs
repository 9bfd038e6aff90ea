//! Cross-version guard for the SpMM kernels' *accounting*.
//!
//! `kernel_golden` pins what the kernels compute; this pins what they say it
//! cost. One fixed epoch per arm, and for each the `sparse::metrics` delta
//! plus the four SpMM rows of `tensor::profile` — the numbers behind
//! `TrainReport::{flops, spmm_calls}`, the per-kernel table `sptx train`
//! prints and CI diffs, and the benchmark's `sparse.*` layer metrics.
//! Captured on 73cdeec, the last commit where the tape's forward and
//! backward SpMM each had a second implementation with an accounting site of
//! its own. Analytic counters depend on shapes only, so they are the same in
//! debug and release and at any `SPTX_NUM_THREADS`. The SpDistMult block pins
//! the semiring score op from the commit that introduced it (its counters are
//! new there by definition), for the next change to that op to start from.
//! The elementwise block pins the totals of the tapes that run the six
//! generic elementwise ops, captured on f15cdb9 before they became one op.
//!
//! The counters are process-global: this binary holds exactly one test.

use kg::synthetic::SyntheticKgBuilder;
use kg::Dataset;
use sptransx::{
    DenseTransE, DenseTransH, KgeModel, SpComplEx, SpDistMult, SpTransE, SpTransH, SpTransM,
    SpTransR, TrainConfig, Trainer,
};

/// `[calls, bytes, flops]` of one `tensor::profile` row (zeros if the op
/// never ran).
type Row = [u64; 3];

/// What one epoch recorded: the `sparse::metrics` delta as `[flops,
/// bytes_touched, spmm_calls]`, then the rows of the ops asked for — for the
/// SpMM arms `op::spmm`, `op::spmm_backward`, `op::spmm_score` and
/// `op::spmm_score_backward`.
type Counters<const N: usize = 4> = ([u64; 3], [Row; N]);

const OPS: [&str; 4] = [
    "op::spmm",
    "op::spmm_backward",
    "op::spmm_score",
    "op::spmm_score_backward",
];

const SEMIRING_OPS: [&str; 2] = ["op::semiring_score", "op::semiring_score_backward"];

fn epoch<M: KgeModel, const N: usize>(
    ds: &Dataset,
    cfg: &TrainConfig,
    ctor: impl FnOnce(&Dataset, &TrainConfig) -> sptransx::Result<M>,
    ops: [&str; N],
) -> Counters<N> {
    let mut trainer = Trainer::new(ctor(ds, cfg).unwrap(), ds, cfg).unwrap();
    tensor::profile::reset();
    let before = sparse::metrics::snapshot();
    trainer.run_epochs(1).unwrap();
    let delta = sparse::metrics::snapshot() - before;
    let report = tensor::profile::report();
    let row = |name: &str| {
        report
            .iter()
            .find(|e| e.name == name)
            .map_or([0; 3], |e| [e.calls, e.bytes, e.flops])
    };
    (
        [delta.flops, delta.bytes_touched, delta.spmm_calls],
        ops.map(row),
    )
}

#[test]
fn spmm_counters_match_pre_unification_kernels() {
    let ds = SyntheticKgBuilder::new(800, 8)
        .triples(2400)
        .zipf_exponent(1.0)
        .seed(15)
        .build();
    let base = TrainConfig {
        batch_size: 32,
        dim: 20,
        rel_dim: 12,
        lr: 0.05,
        seed: 11,
        ..Default::default()
    };
    let unfused = TrainConfig {
        fused: false,
        ..base.clone()
    };
    let dense = TrainConfig {
        dense_grads: true,
        ..base.clone()
    };
    let unfused_dense = TrainConfig {
        dense_grads: true,
        ..unfused.clone()
    };
    #[rustfmt::skip]
    let golden: [(&str, Counters, Counters); 6] = [
        ("SpTransE fused", epoch(&ds, &base, SpTransE::from_config, OPS), ([1_388_880, 5_754_240, 272], [[0; 3], [0; 3], [136, 1_157_760, 345_600], [136, 4_596_480, 1_036_800]])),
        ("SpTransE unfused", epoch(&ds, &unfused, SpTransE::from_config, OPS), ([965_520, 4_700_160, 272], [[136, 1_486_080, 172_800], [136, 3_214_080, 259_200], [0; 3], [0; 3]])),
        ("SpTransH", epoch(&ds, &base, SpTransH::from_config, OPS), ([2_607_120, 6_704_640, 272], [[136, 1_105_920, 86_400], [136, 2_142_720, 172_800], [0; 3], [0; 3]])),
        ("SpTransR", epoch(&ds, &base, SpTransR::from_config, OPS), ([7_281_360, 9_976_320, 272], [[136, 1_105_920, 86_400], [136, 2_142_720, 172_800], [0; 3], [0; 3]])),
        ("SpTransE dense_grads", epoch(&ds, &dense, SpTransE::from_config, OPS), ([1_388_880, 5_754_240, 272], [[0; 3], [0; 3], [136, 1_157_760, 345_600], [136, 4_596_480, 1_036_800]])),
        ("SpTransE unfused dense_grads", epoch(&ds, &unfused_dense, SpTransE::from_config, OPS), ([965_520, 4_700_160, 272], [[136, 1_486_080, 172_800], [136, 3_214_080, 259_200], [0; 3], [0; 3]])),
    ];
    let mut moved: Vec<String> = golden
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(what, got, want)| format!("{what}: {got:?}, 73cdeec had {want:?}"))
        .collect();
    let got = epoch(&ds, &base, SpDistMult::from_config, SEMIRING_OPS);
    #[rustfmt::skip]
    let want: Counters<2> = ([1_056_240, 5_460_480, 272], [[136, 1_157_760, 259_200], [136, 4_302_720, 777_600]]);
    if got != want {
        moved.push(format!(
            "SpDistMult {SEMIRING_OPS:?}: {got:?}, pinned {want:?}"
        ));
    }
    // The tapes that run the six generic elementwise ops (`mul`, `scale`,
    // `add`/`sub`, `row_dot`/`scale_rows`), captured on f15cdb9 before they
    // became one op. Totals only: the per-op rows gain `*_backward` scopes.
    #[rustfmt::skip]
    let elementwise: [(&str, [u64; 3], [u64; 3]); 5] = [
        ("SpTransM", epoch(&ds, &base, SpTransM::from_config, []).0, [1_410_480, 5_754_240, 272]),
        ("SpComplEx", epoch(&ds, &base, SpComplEx::from_config, []).0, [3_475_440, 10_644_480, 272]),
        ("DenseTransE", epoch(&ds, &base, DenseTransE::from_config, []).0, [1_648_080, 5_184_000, 0]),
        ("DenseTransH", epoch(&ds, &base, DenseTransH::from_config, []).0, [4_170_960, 6_912_000, 0]),
        ("DenseTransH unfused", epoch(&ds, &unfused, DenseTransH::from_config, []).0, [4_179_600, 6_912_000, 0]),
    ];
    moved.extend(
        elementwise
            .iter()
            .filter(|(_, got, want)| got != want)
            .map(|(what, got, want)| format!("{what} totals: {got:?}, f15cdb9 had {want:?}")),
    );
    assert!(
        moved.is_empty(),
        "([flops, bytes, spmm_calls], [calls, bytes, flops] of {OPS:?}) moved — a tape op's \
         accounting changed:\n{}",
        moved.join("\n")
    );
}
