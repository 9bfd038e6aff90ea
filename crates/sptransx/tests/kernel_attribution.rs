//! The per-kernel table accounts for every flop and byte it counts.
//!
//! `sptx train` ends its report with one row per `op::*` profile scope; the
//! run's totals are the `sparse::metrics` delta. Every counted unit of work
//! is recorded inside exactly one `op::*` scope, forward or backward, so for
//! one epoch of every model family (and the unfused tapes of SpTransE and
//! SpTransH) the rows sum to the totals — no counter is kept twice and none
//! is left outside the table. Analytic counters depend on shapes only, so
//! this holds in debug and release and at any `SPTX_NUM_THREADS`.
//!
//! The counters are process-global: this binary holds exactly one test.

use kg::synthetic::SyntheticKgBuilder;
use kg::Dataset;
use sptransx::{
    DenseTorusE, DenseTransE, DenseTransH, DenseTransR, KgeModel, SpComplEx, SpDistMult, SpRotatE,
    SpTorusE, SpTransC, SpTransE, SpTransH, SpTransM, SpTransR, TrainConfig, Trainer,
};

/// One epoch's `[flops, bytes]`: the `sparse::metrics` delta, then the sum
/// over the `op::*` rows of the profile.
fn totals_and_rows<M: KgeModel>(
    ds: &Dataset,
    cfg: &TrainConfig,
    ctor: impl FnOnce(&Dataset, &TrainConfig) -> sptransx::Result<M>,
) -> ([u64; 2], [u64; 2]) {
    let mut trainer = Trainer::new(ctor(ds, cfg).unwrap(), ds, cfg).unwrap();
    tensor::profile::reset();
    let before = sparse::metrics::snapshot();
    trainer.run_epochs(1).unwrap();
    let delta = sparse::metrics::snapshot() - before;
    let rows = tensor::profile::report()
        .into_iter()
        .filter(|e| e.name.starts_with("op::"))
        .fold([0, 0], |[f, b], e| [f + e.flops, b + e.bytes]);
    ([delta.flops, delta.bytes_touched], rows)
}

#[test]
fn op_rows_sum_to_the_epoch_totals() {
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
    #[rustfmt::skip]
    let runs = [
        ("SpTransE", totals_and_rows(&ds, &base, SpTransE::from_config)),
        ("SpTransE unfused", totals_and_rows(&ds, &unfused, SpTransE::from_config)),
        ("SpTorusE", totals_and_rows(&ds, &base, SpTorusE::from_config)),
        ("SpTransH", totals_and_rows(&ds, &base, SpTransH::from_config)),
        ("SpTransH unfused", totals_and_rows(&ds, &unfused, SpTransH::from_config)),
        ("SpTransR", totals_and_rows(&ds, &base, SpTransR::from_config)),
        ("SpTransC", totals_and_rows(&ds, &base, SpTransC::from_config)),
        ("SpTransM", totals_and_rows(&ds, &base, SpTransM::from_config)),
        ("SpDistMult", totals_and_rows(&ds, &base, SpDistMult::from_config)),
        ("SpComplEx", totals_and_rows(&ds, &base, SpComplEx::from_config)),
        ("SpRotatE", totals_and_rows(&ds, &base, SpRotatE::from_config)),
        ("DenseTransE", totals_and_rows(&ds, &base, DenseTransE::from_config)),
        ("DenseTorusE", totals_and_rows(&ds, &base, DenseTorusE::from_config)),
        ("DenseTransH", totals_and_rows(&ds, &base, DenseTransH::from_config)),
        ("DenseTransR", totals_and_rows(&ds, &base, DenseTransR::from_config)),
    ];
    let share = |part: u64, whole: u64| 100.0 * part as f64 / whole.max(1) as f64;
    let unexplained: Vec<String> = runs
        .iter()
        .filter(|(_, (totals, rows))| totals != rows)
        .map(|(model, ([flops, bytes], [row_flops, row_bytes]))| {
            format!(
                "{model}: op::* rows hold {row_flops} of {flops} flops ({:.1} %) and \
                 {row_bytes} of {bytes} bytes ({:.1} %)",
                share(*row_flops, *flops),
                share(*row_bytes, *bytes),
            )
        })
        .collect();
    assert!(
        runs.iter().all(|(_, ([flops, _], _))| *flops > 0),
        "every family counts work"
    );
    assert!(
        unexplained.is_empty(),
        "counted work outside every op::* scope:\n{}",
        unexplained.join("\n")
    );
}
