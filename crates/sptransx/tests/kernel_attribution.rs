//! The per-kernel table accounts for every flop and byte it counts.
//!
//! `sptx train` ends its report with one row per `op::*` row of the run's
//! per-op table (`TrainReport::ops`); the global totals the benchmark reads
//! are the `sparse::metrics` delta. Every counted unit of work is recorded
//! by exactly one op, forward or backward, in one call that feeds both, so
//! for one epoch of every model family (and the unfused tapes of SpTransE
//! and SpTransH) the rows sum to the totals — no counter is kept twice and
//! none is left outside the table. Analytic counters depend on shapes only,
//! so this holds in debug and release and at any `SPTX_NUM_THREADS`.
//!
//! The public scatters outside the tape (`tensor::kernels`) add to the
//! totals exactly what the tape's backward row charges for the same scatter.
//!
//! The `sparse::metrics` totals are process-global: this binary holds
//! exactly one test.

use std::sync::Arc;

use kg::synthetic::SyntheticKgBuilder;
use kg::Dataset;
use sparse::incidence::{hrt, IncidencePair, TailSign};
use sptransx::{
    DenseTorusE, DenseTransE, DenseTransH, DenseTransR, KgeModel, SpComplEx, SpDistMult, SpRotatE,
    SpTorusE, SpTransC, SpTransE, SpTransH, SpTransM, SpTransR, TrainConfig, Trainer,
};
use tensor::kernels::{scatter_add_csr, scatter_add_rows};
use tensor::{Graph, ParamStore, Tensor, Var};

/// One epoch's `[flops, bytes]`: the `sparse::metrics` delta, then the sum
/// over the report's `op::*` rows.
fn totals_and_rows<M: KgeModel>(
    ds: &Dataset,
    cfg: &TrainConfig,
    ctor: impl FnOnce(&Dataset, &TrainConfig) -> sptransx::Result<M>,
) -> ([u64; 2], [u64; 2]) {
    let mut trainer = Trainer::new(ctor(ds, cfg).unwrap(), ds, cfg).unwrap();
    let before = sparse::metrics::snapshot();
    let report = trainer.run_epochs(1).unwrap();
    let delta = sparse::metrics::snapshot() - before;
    let rows = (report.ops.iter())
        .filter(|e| e.name.starts_with("op::"))
        .fold([0, 0], |[f, b], e| [f + e.flops, b + e.bytes]);
    ([delta.flops, delta.bytes_touched], rows)
}

/// Row `name` of a tape that ran `forward` and then backward through its
/// mean, as `[flops, bytes, spmm_calls]`.
fn backward_row(
    store: &mut ParamStore,
    forward: impl FnOnce(&mut Graph, &ParamStore) -> Var,
    name: &str,
) -> [u64; 3] {
    let mut g = Graph::new();
    let x = forward(&mut g, store);
    let loss = g.mean(x);
    g.backward(loss, store);
    let row = g.ops().iter().find(|r| r.name == name).unwrap();
    assert_eq!(row.calls, 1, "{name}");
    [row.flops, row.bytes, row.spmm_calls]
}

/// The `sparse::metrics` delta across `f`, as `[flops, bytes, spmm_calls]`.
fn totals_across(f: impl FnOnce()) -> [u64; 3] {
    let before = sparse::metrics::snapshot();
    f();
    let delta = sparse::metrics::snapshot() - before;
    [delta.flops, delta.bytes_touched, delta.spmm_calls]
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
        "counted work outside every op::* row:\n{}",
        unexplained.join("\n")
    );

    // Each public scatter against the backward row of the op whose scatter
    // it is: a gather of 12 rows, and one hrt SpMM over the same triples.
    let (entities, relations, d) = (20, 3, 5);
    let heads: Vec<u32> = (0..12).map(|i| i * 7 % 20).collect();
    let rels: Vec<u32> = (0..12).map(|i| i % 3).collect();
    let tails: Vec<u32> = (0..12).map(|i| (i * 3 + 1) % 20).collect();
    let mut store = ParamStore::new();
    let table = store.add_param("table", Tensor::full(entities + relations, d, 0.25));
    let src = Tensor::full(heads.len(), d, 0.5);
    let mut dst = Tensor::zeros(entities + relations, d);

    let indices = Arc::new(heads.clone());
    let gather = |g: &mut Graph, s: &ParamStore| g.gather(s, table, indices.clone());
    let row = backward_row(&mut store, gather, "op::gather_backward");
    let wrapper = totals_across(|| scatter_add_rows(&mut dst, &heads, &src));
    assert_eq!(wrapper, row, "scatter_add_rows against op::gather_backward");

    let a = hrt(
        entities,
        relations,
        &heads,
        &rels,
        &tails,
        TailSign::Negative,
    )
    .unwrap();
    let pair = Arc::new(IncidencePair::new(a));
    let spmm = |g: &mut Graph, s: &ParamStore| g.spmm(s, table, pair.clone());
    let row = backward_row(&mut store, spmm, "op::spmm_backward");
    let wrapper = totals_across(|| scatter_add_csr(&mut dst, &pair.forward, &src));
    assert_eq!(wrapper, row, "scatter_add_csr against op::spmm_backward");
}
