//! The kernel-fusion contract, asserted bit-for-bit.
//!
//! `TrainConfig::fused` (the `sptx train --fused` switch) selects between
//! the fused hot-path kernels — gather+distance on the forward pass
//! (`tensor::Graph::spmm_score`), margin-loss+backward-seed on the backward
//! pass — and the materialized pipeline they replace (SpMM into a `chunk×d`
//! arena buffer, then a separate norm reduction; separate loss-seed tensors
//! accumulated through the tape). Fusion is a pure memory-traffic
//! optimization: both paths compute **the same float expressions in the
//! same association order**, so scores, losses, gradients, and multi-epoch
//! trained parameters must match `f32`-bit-for-bit across every scorer in
//! the zoo. The graph-level half of this contract (single ops, counter
//! deltas) lives in `tensor`'s unit tests; these tests close it end-to-end
//! at the model level for all 13 scorers, and then walk the incidence-score
//! kernel's own edges for the four families whose whole scoring path it is
//! (SpTransE, SpTorusE, SpTransC, SpTransM): embedding widths that end
//! inside, on and past its 64-column tile, all five row scores, the paged
//! arm (fused and unfused) against the resident one, and pool widths 1/4/8.
//! The last test carries the contract past training: the distance evaluation
//! and serving rank with *is* the tape's row score, every lane of the panel
//! kernel serving scans candidates with is that distance, and their query
//! vector is the 2-nonzero incidence row it used to be built from.

use kg::synthetic::SyntheticKgBuilder;
use kg::{BatchPlan, Dataset, UniformSampler};
use sptransx::{
    DenseTorusE, DenseTransE, DenseTransH, DenseTransR, KgeModel, Norm, QueryDir, SpComplEx,
    SpDistMult, SpRotatE, SpTorusE, SpTransC, SpTransE, SpTransH, SpTransM, SpTransR, TrainConfig,
    Trainer,
};
use tensor::{Graph, Tensor, VecStorage};
use xparallel::PoolHandle;

fn dataset() -> Dataset {
    SyntheticKgBuilder::new(70, 4).triples(400).seed(23).build()
}

fn config(fused: bool) -> TrainConfig {
    TrainConfig {
        epochs: 2,
        batch_size: 80,
        dim: 12,
        rel_dim: 6,
        lr: 0.05,
        fused,
        ..Default::default()
    }
}

/// Widths around the score kernel's 64-column tile: one column, a short
/// tile, one short of / exactly / one past a full tile, two tiles and a tail.
const TILE_TAIL_DIMS: [usize; 6] = [1, 7, 63, 64, 65, 130];

/// Epoch losses and final parameter bits of one trained run.
fn train_run<M, F>(fused: bool, make: F) -> (Vec<u32>, Vec<Vec<u32>>)
where
    M: KgeModel,
    F: FnOnce(&Dataset, &TrainConfig) -> M,
{
    train_run_with(&config(fused), PoolHandle::global(), false, make)
}

/// [`train_run`] under an explicit config and pool; with `paged` the
/// `embeddings` table trains behind a half-size row cache (evicting and
/// writing back every epoch) and is unpaged before the bits are read.
fn train_run_with<M, F>(
    cfg: &TrainConfig,
    pool: PoolHandle,
    paged: bool,
    make: F,
) -> (Vec<u32>, Vec<Vec<u32>>)
where
    M: KgeModel,
    F: FnOnce(&Dataset, &TrainConfig) -> M,
{
    let ds = dataset();
    let model = make(&ds, cfg);
    let mut trainer = Trainer::new(model, &ds, cfg).unwrap().with_pool(pool);
    let emb = trainer.model_mut().store().lookup("embeddings");
    if paged {
        let store = trainer.model_mut().store_mut();
        let emb = emb.expect("embeddings table");
        let (rows, cols) = store.param_shape(emb);
        let storage = Box::new(VecStorage::new(rows, cols));
        store.page_out(emb, storage, rows / 2).unwrap();
    }
    let report = trainer.run().unwrap();
    if paged {
        let store = trainer.model_mut().store_mut();
        let emb = emb.expect("embeddings table");
        assert!(store.pager(emb).unwrap().stats().evictions > 0);
        store.unpage(emb).unwrap();
    }
    let model = trainer.into_model();
    let params = model
        .store()
        .param_ids()
        .into_iter()
        .map(|id| {
            model
                .store()
                .value(id)
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect()
        })
        .collect();
    let losses = report.epoch_losses.iter().map(|x| x.to_bits()).collect();
    (losses, params)
}

/// Score buffers, loss, and gradients of one forward+backward on batch 0.
fn batch_run<M, F>(fused: bool, make: F) -> (Vec<u32>, Vec<u32>, u32, Vec<Vec<u32>>)
where
    M: KgeModel,
    F: FnOnce(&Dataset, &TrainConfig) -> M,
{
    let ds = dataset();
    let cfg = config(fused);
    let mut model = make(&ds, &cfg);
    let sampler = UniformSampler::new(ds.num_entities);
    let plan = BatchPlan::build(
        &ds.train,
        &ds.all_known(),
        &sampler,
        cfg.batch_size,
        cfg.seed,
    );
    model.attach_plan(&plan).unwrap();
    let mut g = Graph::new();
    g.set_fused(cfg.fused);
    let (pos, neg) = model.score_batch(&mut g, 0);
    let loss = g.margin_ranking_loss(pos, neg, cfg.margin);
    let bits = |t: &tensor::Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let pos_bits = bits(g.value(pos));
    let neg_bits = bits(g.value(neg));
    let loss_bits = g.value(loss).get(0, 0).to_bits();
    g.backward(loss, model.store_mut());
    let grads = model
        .store()
        .param_ids()
        .into_iter()
        .map(|id| bits(&tensor::Tensor::from_view(model.store().grad(id))))
        .collect();
    (pos_bits, neg_bits, loss_bits, grads)
}

/// Fused and unfused paths must produce bit-identical score buffers,
/// losses, and gradients on a single batch, and bit-identical losses and
/// parameters after multi-epoch training — for every scorer in the zoo.
macro_rules! fused_matches_unfused_test {
    ($name:ident, $model:ty) => {
        #[test]
        fn $name() {
            let make = |ds: &Dataset, cfg: &TrainConfig| <$model>::from_config(ds, cfg).unwrap();
            let fused = batch_run(true, make);
            let unfused = batch_run(false, make);
            assert_eq!(
                fused.0,
                unfused.0,
                "{}: positive score buffer diverged",
                stringify!($model)
            );
            assert_eq!(
                fused.1,
                unfused.1,
                "{}: negative score buffer diverged",
                stringify!($model)
            );
            assert_eq!(fused.2, unfused.2, "{}: loss diverged", stringify!($model));
            assert_eq!(
                fused.3,
                unfused.3,
                "{}: gradients diverged",
                stringify!($model)
            );

            let trained_fused = train_run(true, make);
            let trained_unfused = train_run(false, make);
            assert!(
                trained_fused
                    .0
                    .iter()
                    .all(|l| f32::from_bits(*l).is_finite()),
                "losses must be finite"
            );
            assert_eq!(
                trained_fused,
                trained_unfused,
                "{}: multi-epoch training diverged between fused and unfused",
                stringify!($model)
            );
        }
    };
}

fused_matches_unfused_test!(sptranse_fused_matches_unfused, SpTransE);
fused_matches_unfused_test!(sptoruse_fused_matches_unfused, SpTorusE);
fused_matches_unfused_test!(sptransr_fused_matches_unfused, SpTransR);
fused_matches_unfused_test!(sptransh_fused_matches_unfused, SpTransH);
fused_matches_unfused_test!(spdistmult_fused_matches_unfused, SpDistMult);
fused_matches_unfused_test!(spcomplex_fused_matches_unfused, SpComplEx);
fused_matches_unfused_test!(sprotate_fused_matches_unfused, SpRotatE);
fused_matches_unfused_test!(sptransc_fused_matches_unfused, SpTransC);
fused_matches_unfused_test!(sptransm_fused_matches_unfused, SpTransM);
fused_matches_unfused_test!(densetranse_fused_matches_unfused, DenseTransE);
fused_matches_unfused_test!(densetoruse_fused_matches_unfused, DenseTorusE);
fused_matches_unfused_test!(densetransr_fused_matches_unfused, DenseTransR);
fused_matches_unfused_test!(densetransh_fused_matches_unfused, DenseTransH);

/// Fused ≡ unfused training at every tile tail, and the fused arm is the
/// same at pool widths 1, 4 and 8.
fn assert_matches_unfused_at_tile_tails<M: KgeModel>(
    name: &str,
    norm: Norm,
    from_config: fn(&Dataset, &TrainConfig) -> sptransx::Result<M>,
) {
    let make = |ds: &Dataset, cfg: &TrainConfig| from_config(ds, cfg).unwrap();
    for dim in TILE_TAIL_DIMS {
        let cfg = |fused| TrainConfig {
            dim,
            norm,
            ..config(fused)
        };
        let unfused = train_run_with(&cfg(false), PoolHandle::sequential(), false, make);
        for width in [1, 4, 8] {
            let pool = PoolHandle::global().with_width(width);
            assert_eq!(
                train_run_with(&cfg(true), pool, false, make),
                unfused,
                "{name}, dim {dim}, width {width}: fused training diverged from unfused"
            );
        }
    }
}

/// The four families that train through `Graph::spmm_score` alone, under
/// norms that between them reach all five `RowScore`s (SpTransC scores
/// with the squared L2).
#[test]
fn score_kernel_matches_unfused_at_every_tile_tail_and_width() {
    assert_matches_unfused_at_tile_tails("SpTransE/L1", Norm::L1, SpTransE::from_config);
    assert_matches_unfused_at_tile_tails("SpTransE/L2", Norm::L2, SpTransE::from_config);
    assert_matches_unfused_at_tile_tails("SpTorusE/L1", Norm::TorusL1, SpTorusE::from_config);
    assert_matches_unfused_at_tile_tails("SpTorusE/L2", Norm::TorusL2, SpTorusE::from_config);
    assert_matches_unfused_at_tile_tails("SpTransC", Norm::L2, SpTransC::from_config);
    assert_matches_unfused_at_tile_tails("SpTransM", Norm::L1, SpTransM::from_config);
}

/// The paged arm of the row kernels (operand rows resolved through the slot
/// map, gradients accumulated into cache slots) trains to the resident
/// arm's bits — fused, and unfused through the materialized `spmm` op — at
/// a tile tail on each side of the tile and at every width.
fn assert_paged_matches_resident<M: KgeModel>(
    name: &str,
    norm: Norm,
    from_config: fn(&Dataset, &TrainConfig) -> sptransx::Result<M>,
) {
    let make = |ds: &Dataset, cfg: &TrainConfig| from_config(ds, cfg).unwrap();
    for dim in [7, 65] {
        // Batches of 8 keep the working set (≤ 28 rows) under the 37-row
        // cache of the 74-row table.
        let cfg = |fused| TrainConfig {
            dim,
            norm,
            batch_size: 8,
            ..config(fused)
        };
        let resident = train_run_with(&cfg(true), PoolHandle::sequential(), false, make);
        assert_eq!(
            train_run_with(&cfg(false), PoolHandle::sequential(), false, make),
            resident,
            "{name}, dim {dim}: unfused training diverged from fused"
        );
        for (fused, width) in [(true, 1), (true, 4), (true, 8), (false, 1), (false, 4)] {
            let pool = PoolHandle::global().with_width(width);
            assert_eq!(
                train_run_with(&cfg(fused), pool, true, make),
                resident,
                "{name}, dim {dim}, width {width}, fused {fused}: paged training diverged from \
                 resident"
            );
        }
    }
}

#[test]
fn score_kernel_paged_matches_resident() {
    assert_paged_matches_resident("SpTransE/L1", Norm::L1, SpTransE::from_config);
    assert_paged_matches_resident("SpTransE/L2", Norm::L2, SpTransE::from_config);
    assert_paged_matches_resident("SpTorusE/L1", Norm::TorusL1, SpTorusE::from_config);
    assert_paged_matches_resident("SpTorusE/L2", Norm::TorusL2, SpTorusE::from_config);
}

/// `Norm::distance(a, b)` is `Graph::score_rows` of the materialized `a − b`
/// and `QueryDir::translated` is the `1·e + (±1)·r` incidence row of the
/// SpMM-built query it replaced, bit for bit — under all four norms, at
/// widths on both sides of the score tile, with `±0.0`, `±inf` and `NaN`
/// planted in either operand at the first column, the tile edge and the last
/// column. Every lane of `RowScore::panel_distances` over 1-, 7- and 16-row
/// panels of those rows bit-equals `Norm::distance` of its row. (NaNs compare
/// as a class: which operand's payload an addition of two NaNs keeps is the
/// code generator's choice, not the arithmetic's.)
#[test]
fn evaluation_distance_and_query_vector_are_the_tape_arithmetic() {
    const SPECIALS: [f32; 5] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    let same =
        |got: f32, want: f32| got.to_bits() == want.to_bits() || got.is_nan() && want.is_nan();
    for d in [1usize, 63, 64, 65, 130] {
        let a = tensor::init::uniform(1, d, 1.5, 41).into_vec();
        let b = tensor::init::uniform(1, d, 1.0, 43).into_vec();
        let mut cases = vec![(a.clone(), b.clone())];
        for (sa, sb) in SPECIALS.iter().flat_map(|&sa| SPECIALS.map(|sb| (sa, sb))) {
            for pos in [0, 63.min(d - 1), d - 1] {
                let (mut a, mut b) = (a.clone(), b.clone());
                (a[pos], b[pos]) = (sa, sb);
                cases.push((a, b));
            }
        }
        // The panel kernel: case `i`'s `a` against a `w`-row column-major
        // panel of the `b`s of cases `i ..= i + w − 1`, so the plants sit
        // in the query and in every lane.
        for w in [1usize, 7, tensor::PANEL_LANES] {
            for (i, (a, _)) in cases.iter().enumerate() {
                let rows: Vec<&[f32]> = (0..w)
                    .map(|l| cases[(i + l) % cases.len()].1.as_slice())
                    .collect();
                let panel: Vec<f32> = (0..d)
                    .flat_map(|j| rows.iter().map(move |r| r[j]))
                    .collect();
                for norm in [Norm::L1, Norm::L2, Norm::TorusL1, Norm::TorusL2] {
                    let mut got = vec![0f32; w];
                    norm.row_score().panel_distances(a, &panel, &mut got);
                    for (l, (&got, row)) in got.iter().zip(&rows).enumerate() {
                        let want = norm.distance(a, row);
                        assert!(
                            same(got, want),
                            "{norm:?}, width {d}, panel of {w}, lane {l}: {got:e} is not the row's {want:e}"
                        );
                    }
                }
            }
        }
        for (a, b) in &cases {
            let diff: Vec<f32> = a.iter().zip(b).map(|(x, y)| x - y).collect();
            for norm in [Norm::L1, Norm::L2, Norm::TorusL1, Norm::TorusL2] {
                let mut g = Graph::new();
                let x = g.input(Tensor::from_vec(1, d, diff.clone()));
                let score = g.score_rows(x, norm.row_score());
                let (got, want) = (norm.distance(a, b), g.value(score).as_slice()[0]);
                assert!(
                    same(got, want),
                    "{norm:?}, width {d}: distance {got:e} is not the tape's {want:e}"
                );
            }
            for (dir, coeff) in [(QueryDir::Tails, 1.0f32), (QueryDir::Heads, -1.0)] {
                let mut q = vec![0f32; d];
                dir.translated(a, b, &mut q);
                for ((&got, &e), &r) in q.iter().zip(a).zip(b) {
                    let want = 1.0 * e + coeff * r;
                    assert!(
                        same(got, want),
                        "{dir:?}, width {d}: {e:e} ∘ {r:e} gave {got:e}, the SpMM row {want:e}"
                    );
                }
            }
        }
    }
}
