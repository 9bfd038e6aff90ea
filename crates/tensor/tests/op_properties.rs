//! Property-based tests of the autograd ops: linearity of the tape and
//! gradient-accumulation semantics. (The memory-accounting invariant reads a
//! process-global counter and lives alone in `memory_accounting.rs`.)

use std::sync::Arc;

use proptest::prelude::*;
use sparse::incidence::{hrt, ht, IncidencePair, RelationGroups, TailSign};
use sparse::semiring::Semiring;
use sparse::spmm::spmm_row_acc;
use sparse::{CsrMatrix, DenseView};
use tensor::optim::{Adagrad, Adam, Optimizer, Sgd};
use tensor::{init, Graph, ParamId, ParamStore, RowScore, RowSet, Sweep, Tensor, Var, VecStorage};
use xparallel::PoolHandle;

fn small_matrix() -> impl Strategy<Value = (usize, usize, Vec<f32>)> {
    (1usize..8, 1usize..8)
        .prop_flat_map(|(m, n)| (Just(m), Just(n), prop::collection::vec(-3.0f32..3.0, m * n)))
}

/// A TransR-shaped projection problem: `((R, d_out, d_in), rels, mats, vecs,
/// weights)` with dimensions on both sides of the kernels' 16-wide tile and
/// up to four 32-row chunks for a wide pool to split.
#[allow(clippy::type_complexity)]
fn projection_problem() -> impl Strategy<
    Value = (
        (usize, usize, usize),
        Vec<u32>,
        Vec<f32>,
        Vec<f32>,
        Vec<f32>,
    ),
> {
    (1usize..7, 1usize..140, 1usize..36, 1usize..36).prop_flat_map(|(r, m, d_out, d_in)| {
        (
            Just((r, d_out, d_in)),
            prop::collection::vec(0u32..r as u32, m),
            prop::collection::vec(-2.0f32..2.0, r * d_out * d_in),
            prop::collection::vec(-2.0f32..2.0, m * d_in),
            prop::collection::vec(-1.0f32..1.0, m * d_out),
        )
    })
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// 24 entities and 3 relations. Every other batch row gets weight (so `g_i`)
/// 0, row 0 among them: it is `(e20, r0, e21)`, two entities no other row
/// reads (the rest stay below 20, and 22.. are never read). Rows 5, 11, …
/// are self-loops.
const SEMIRING_TABLE: (usize, usize) = (24, 3);
const SEMIRING_BATCH: usize = 40;

fn semiring_batch(sign: TailSign) -> (Arc<IncidencePair>, Vec<f32>) {
    let (m, (n, r)) = (SEMIRING_BATCH, SEMIRING_TABLE);
    let mut heads: Vec<u32> = (0..m).map(|i| (i * 7 % 20) as u32).collect();
    let mut tails: Vec<u32> = (0..m)
        .map(|i| {
            if i % 6 == 5 {
                heads[i]
            } else {
                ((i * 3 + 1) % 20) as u32
            }
        })
        .collect();
    (heads[0], tails[0]) = (20, 21);
    let rels: Vec<u32> = (0..m).map(|i| (i % r) as u32).collect();
    let a = hrt(n, r, &heads, &rels, &tails, sign).unwrap();
    assert!(a.nnz() < 3 * m, "no self-loop row in the batch");
    let weights = (0..m)
        .map(|i| (i % 2) as f32 * (1.0 + i as f32 / 8.0))
        .collect();
    (Arc::new(IncidencePair::new(a)), weights)
}

/// One weighted forward + backward of `semiring_score`: the score column's
/// bits, then the parameter gradient's by absolute row — NaNs as one class
/// (their payloads are unspecified). `paged` runs it over a slot cache just
/// big enough for the batch, so rows are read and written through the map.
fn semiring_score_bits(
    width: usize,
    paged: bool,
    kind: Semiring,
    table: &Tensor,
    (pair, weights): &(Arc<IncidencePair>, Vec<f32>),
) -> Vec<u32> {
    let (rows, cols) = table.shape();
    let mut store = ParamStore::new();
    let p = store.add_param("emb", table.clone());
    if paged {
        let budget = pair.touched_columns().len();
        assert!(budget < rows, "the slot map would be the identity");
        let backing = Box::new(VecStorage::new(rows, cols));
        store.page_out(p, backing, budget).unwrap();
        store.page_in(p, &[pair.touched_columns()]).unwrap();
    }
    let mut g = Graph::with_pool(PoolHandle::global().with_width(width));
    let score = g.semiring_score(&store, p, pair.clone(), kind);
    let w = g.input_from_slice(weights.len(), 1, weights);
    let weighted = g.mul(score, w);
    let loss = g.mean(weighted);
    g.backward(loss, &mut store);
    let mut out = g.value(score).as_slice().to_vec();
    let mut grad = vec![0.0f32; rows * cols];
    store.sweep_serial(p, Sweep::Grads, |row, g, _| {
        grad[row * cols..(row + 1) * cols].copy_from_slice(g)
    });
    out.extend(grad);
    let class = |x: &f32| if x.is_nan() { 0x7fc0_0000 } else { x.to_bits() };
    out.iter().map(class).collect()
}

/// The semiring score and its gradient do not depend on the pool width or on
/// where the table's rows live, for every kind on both sides of a SIMD width.
#[test]
fn semiring_score_is_bit_identical_at_any_width_and_paged() {
    let (n, r) = SEMIRING_TABLE;
    for kind in Semiring::ALL {
        let batch = semiring_batch(TailSign::Negative);
        for lanes in [1, 7, 33] {
            let table = init::uniform(n + r, lanes * kind.lane_width(), 1.5, 3);
            let want = semiring_score_bits(1, false, kind, &table, &batch);
            assert!(want.iter().any(|&b| f32::from_bits(b) != 0.0));
            for (width, paged) in [(4, false), (8, false), (1, true), (4, true)] {
                let got = semiring_score_bits(width, paged, kind, &table, &batch);
                assert_eq!(
                    got, want,
                    "{kind:?} × {lanes} lanes, width {width}, paged {paged}"
                );
            }
        }
    }
}

/// Nothing is skipped for a zero upstream gradient or a non-finite operand:
/// `0 · inf` reaches the gradient as `NaN`, as the translational
/// `spmm_score` is held to.
#[test]
fn semiring_score_keeps_non_finite_operands_and_zero_gradient_rows() {
    let ((n, r), m) = (SEMIRING_TABLE, SEMIRING_BATCH);
    for kind in Semiring::ALL {
        let cols = 7 * kind.lane_width();
        let mut table = init::uniform(n + r, cols, 1.5, 3);
        // Rows that weighted batch rows read, and the head of batch row 0.
        let poisons = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        for (row, poison) in poisons.into_iter().enumerate() {
            for j in (row..cols).step_by(3) {
                table.set(row, j, poison);
            }
        }
        table.set(20, 0, f32::INFINITY);
        let sign = if kind == Semiring::DistMult {
            TailSign::Positive
        } else {
            TailSign::Negative
        };
        let batch = semiring_batch(sign);
        let want = semiring_score_bits(1, false, kind, &table, &batch);
        for (width, paged) in [(4, false), (8, false), (1, true)] {
            let got = semiring_score_bits(width, paged, kind, &table, &batch);
            assert_eq!(got, want, "{kind:?}, width {width}, paged {paged}");
        }
        // Batch row 0 has `g = 0` and an infinite head: its tail, which no
        // other row reads, must receive `0 · inf = NaN`, not a skipped `0`.
        let tail = &want[m + 21 * cols..m + 22 * cols];
        assert!(
            tail.contains(&0x7fc0_0000),
            "{kind:?}: a zero-gradient row was skipped"
        );
    }
}

/// Every row score.
const ROW_SCORES: [RowScore; 5] = [
    RowScore::L1,
    RowScore::L2 { eps: 1e-9 },
    RowScore::SquaredL2,
    RowScore::TorusL1,
    RowScore::TorusL2Sq,
];

/// TransH's tables `[entities (24 rows), normals (3), translations (3)]`,
/// `d` wide, in about ±1.5, with special values planted: `±0.0`,
/// subnormals, `±inf` and NaN in entity rows 0..7; normal row 0 and
/// translation row 0 keep finite plants (`±0.0` and subnormals), normal row
/// 1 gets `+inf` and translation row 1 `−inf`, and at widths above 6
/// normal row 2 gets a NaN in column 6 and translation row 2 in its last.
fn hyperplane_tables(d: usize) -> [Tensor; 3] {
    const SUB: f32 = 1.0e-40;
    let mut tables =
        [(24, 1), (3, 2), (3, 3)].map(|(rows, seed)| init::uniform(rows, d, 1.5, seed));
    let [ent, normals, translations] = &mut tables;
    let entity_plants = [
        -0.0,
        0.0,
        SUB,
        -SUB,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    for (row, x) in entity_plants.into_iter().enumerate() {
        for j in (row % 3..d).step_by(3) {
            ent.set(row, j, x);
        }
    }
    for (j, x) in (0..d).zip([-0.0, SUB, 0.0, -SUB].into_iter().cycle()) {
        if j % 2 == 1 {
            normals.set(0, j, x);
        } else {
            translations.set(0, j, x);
        }
    }
    for j in (1..d).step_by(5) {
        normals.set(1, j, f32::INFINITY);
        translations.set(1, j, f32::NEG_INFINITY);
    }
    if d > 6 {
        normals.set(2, 6, f32::NAN);
        translations.set(2, d - 1, f32::NAN);
    }
    tables
}

/// `m` TransH triples over [`hyperplane_tables`]: heads and tails below 20
/// (so entity rows 0..7 are read), a self-loop at every sixth row (its `ht`
/// row is one explicit `0.0`), relation `i % 3`, and a weight (so `g_i`)
/// of 0 on every relation-0 row: relation 0's gradient rows receive only
/// zero contributions, so their sign of zero shows.
fn hyperplane_batch(m: usize) -> (Arc<IncidencePair>, Arc<Vec<u32>>, Vec<f32>) {
    let heads: Vec<u32> = (0..m).map(|i| ((i * 7 + 3) % 20) as u32).collect();
    let tails: Vec<u32> = (0..m)
        .map(|i| {
            if i % 6 == 5 {
                heads[i]
            } else {
                ((i * 5 + 1) % 20) as u32
            }
        })
        .collect();
    let rels: Vec<u32> = (0..m).map(|i| (i % 3) as u32).collect();
    let weights = (0..m)
        .map(|i| match i % 3 {
            0 => 0.0,
            _ => (i % 4) as f32 * 0.75 - 1.0,
        })
        .collect();
    let a = ht(24, &heads, &tails).unwrap();
    (Arc::new(IncidencePair::new(a)), Arc::new(rels), weights)
}

/// One weighted forward + backward of `hyperplane_score`, fused or as the
/// eight-op chain: the score column's bits, then each parameter's gradient
/// by absolute row — NaNs as one class. Every gradient row starts at `−0.0`
/// (written through `grad_mut`), so a contribution's sign of zero survives
/// into the sum where no other contribution lands.
fn hyperplane_bits(
    width: usize,
    fused: bool,
    score: RowScore,
    tables: &[Tensor; 3],
    (pair, rels, weights): &(Arc<IncidencePair>, Arc<Vec<u32>>, Vec<f32>),
) -> Vec<u32> {
    let mut store = ParamStore::new();
    let [ent, normals, translations] = [("entities", 0), ("normals", 1), ("translations", 2)]
        .map(|(name, k)| store.add_param(name, tables[k].clone()));
    for p in [ent, normals, translations] {
        store.grad_mut(p).fill(-0.0);
    }
    let mut g = Graph::with_pool(PoolHandle::global().with_width(width));
    g.set_fused(fused);
    let planes = [normals, translations];
    let s = g.hyperplane_score(&store, ent, pair.clone(), planes, rels.clone(), score);
    let w = g.input_from_slice(weights.len(), 1, weights);
    let weighted = g.mul(s, w);
    let loss = g.mean(weighted);
    g.backward(loss, &mut store);
    let mut out = g.value(s).as_slice().to_vec();
    for p in [ent, normals, translations] {
        out.extend_from_slice(Tensor::from_view(store.grad(p)).as_slice());
    }
    let class = |x: &f32| if x.is_nan() { 0x7fc0_0000 } else { x.to_bits() };
    out.iter().map(class).collect()
}

/// The fused hyperplane score equals the chain it replaced (`spmm`, two
/// gathers, `row_dot`, `scale_rows`, `sub`, `add`, the norm) bit for bit —
/// the scores and all three parameter gradients, signs of zero included —
/// for every row score, on both sides of the 64-wide score tile, for 1 to
/// 17 batch rows (every remainder of its four-row folds) and a 150-row
/// batch a wide pool splits, at pool widths 1 and 4.
#[test]
fn hyperplane_score_matches_the_eight_op_chain_bitwise() {
    let mut signed_zeros = [false; 2];
    for d in [1, 7, 63, 64, 65, 130] {
        let tables = hyperplane_tables(d);
        for m in (1..=17).chain([150]) {
            let batch = hyperplane_batch(m);
            for score in ROW_SCORES {
                let want = hyperplane_bits(1, false, score, &tables, &batch);
                for width in [1, 4] {
                    let got = hyperplane_bits(width, true, score, &tables, &batch);
                    assert_eq!(got, want, "d {d}, {m} rows, {score:?}, width {width}");
                }
                for (seen, zero) in signed_zeros.iter_mut().zip([0.0f32, -0.0]) {
                    *seen |= want[m..].contains(&zero.to_bits());
                }
            }
        }
    }
    assert_eq!(
        signed_zeros, [true; 2],
        "both signs of zero reach a gradient"
    );
}

/// Which incidence matrix [`incidence_matrix`] built.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Form {
    Hrt(TailSign),
    Ht,
    /// One `+1` per row at the head's column: the batch's relation list,
    /// as [`RelationGroups`] groups it.
    Selection,
}

/// A random incidence matrix and its [`Form`]. Picks come from the first
/// `n − 2` of `n` entity columns, so at least two columns are untouched; a
/// sixth of the triples are self-loops (an explicit zero, or `2` under a
/// positive tail sign), column 0 is hot, and the batch may be empty.
fn incidence_matrix() -> impl Strategy<Value = (CsrMatrix, Form)> {
    (0usize..4, 4usize..14, 1usize..4, 0usize..40).prop_flat_map(|(form, n, r, m)| {
        let e = 0..n as u32 - 2;
        let triple = (e.clone(), 0..r as u32, e, 0u8..6).prop_map(|(h, rel, t, mode)| match mode {
            0 => (h, rel, h),
            1 => (0, rel, t),
            2 => (h, rel, 0),
            _ => (h, rel, t),
        });
        prop::collection::vec(triple, m).prop_map(move |triples| {
            let heads: Vec<u32> = triples.iter().map(|t| t.0).collect();
            let rels: Vec<u32> = triples.iter().map(|t| t.1).collect();
            let tails: Vec<u32> = triples.iter().map(|t| t.2).collect();
            let sign = [TailSign::Negative, TailSign::Positive];
            match form {
                0 | 1 => (
                    hrt(n, r, &heads, &rels, &tails, sign[form]).unwrap(),
                    Form::Hrt(sign[form]),
                ),
                2 => (ht(n, &heads, &tails).unwrap(), Form::Ht),
                _ => {
                    let (m, ones) = (heads.len(), vec![1.0; heads.len()]);
                    let indptr = (0..=m as u32).collect();
                    let a = CsrMatrix::from_raw_parts(m, n, indptr, heads, ones).unwrap();
                    (a, Form::Selection)
                }
            }
        })
    })
}

/// The backward walk over the full transpose: gradient row `e` accumulates
/// `spmm_row_acc` over row `e` of `a.transpose()` (empty for a row the batch
/// does not touch) — the pull the tape's push through `a` replaced.
fn full_transpose_walk(a: &CsrMatrix, upstream: &[f32], d: usize) -> Vec<f32> {
    let mut grad = vec![0.0f32; a.cols() * d];
    accumulate_full_transpose(a, upstream, d, &mut grad);
    grad
}

/// [`full_transpose_walk`] accumulated into an existing `grad`.
fn accumulate_full_transpose(a: &CsrMatrix, upstream: &[f32], d: usize, grad: &mut [f32]) {
    let t = a.transpose();
    let g = DenseView::new(a.rows(), d, upstream);
    for (e, dst) in grad.chunks_exact_mut(d).enumerate() {
        let (s, end) = t.row_bounds(e);
        spmm_row_acc(&t.indices()[s..end], &t.values()[s..end], &g, 0, dst);
    }
}

/// The semiring backward over the full transpose, as [`full_transpose_walk`]
/// for `semiring_score`.
fn full_transpose_semiring_walk(
    kind: Semiring,
    a: &CsrMatrix,
    table: &Tensor,
    gd: &[f32],
) -> Vec<f32> {
    let (t, d) = (a.transpose(), table.cols());
    let mut grad = vec![0.0f32; t.rows() * d];
    for (e, dst) in grad.chunks_exact_mut(d).enumerate() {
        for (i, _) in t.row(e) {
            let (s, end) = a.row_bounds(i);
            let cols = kind.decode(&a.indices()[s..end], &a.values()[s..end]);
            let rows = cols.map(|c| table.row(c));
            for slot in (0..3).filter(|&slot| cols[slot] == e) {
                kind.grad_row_acc(slot, gd[i], rows, dst);
            }
        }
    }
    grad
}

/// The `project_rows` backward as plain loops over the batch in order, for
/// the relation list `a.indices()` (one per row) and `d_out = up.len() / m`:
/// `dv[i] = 0.0 + 1.0 · Mᵣᵀ · up[i]` (the node-gradient accumulate on a
/// fresh buffer) and `dM[r] += up[i] ⊗ v[i]`, every sum in ascending index.
fn plain_projection_backward(
    a: &CsrMatrix,
    mats: &Tensor,
    vecs: &[f32],
    up: &[f32],
) -> (Vec<f32>, Vec<f32>) {
    let m = a.rows();
    let (d_out, d_in) = (up.len() / m.max(1), vecs.len() / m.max(1));
    let mut dv = vec![0.0f32; m * d_in];
    let mut dm = vec![0.0f32; mats.len()];
    for (i, &r) in a.indices().iter().enumerate() {
        let mat = mats.row(r as usize);
        for j in 0..d_in {
            let mut acc = 0.0;
            for o in 0..d_out {
                acc += mat[o * d_in + j] * up[i * d_out + o];
            }
            dv[i * d_in + j] = 0.0 + 1.0 * acc;
        }
        let dmat = &mut dm[r as usize * d_out * d_in..][..d_out * d_in];
        for o in 0..d_out {
            for j in 0..d_in {
                dmat[o * d_in + j] += up[i * d_out + o] * vecs[i * d_in + j];
            }
        }
    }
    (dv, dm)
}

/// Tape ops under test: records them and returns `(output, tap)`, the node
/// the loss weights and the node whose gradient is wanted.
type Record<'a> = &'a dyn Fn(&mut Graph, &ParamStore, ParamId) -> (Var, Var);

/// Runs `record` on a copy of `table`, weights its output into the loss, and
/// returns `[gradient of the output, gradient of the tap, parameter gradient
/// by absolute row]`. The store also touches the last row the pair does not
/// (another op's row); `paged` runs over a slot cache of exactly the touched
/// rows.
fn through_tape(
    width: usize,
    paged: bool,
    fused: bool,
    pair: &Arc<IncidencePair>,
    table: &Tensor,
    record: Record<'_>,
) -> [Vec<f32>; 3] {
    let (rows, cols) = table.shape();
    let untouched = |e: &u32| pair.touched_columns().binary_search(e).is_err();
    let extra = [(0..rows as u32).rev().find(untouched).unwrap()];
    let mut store = ParamStore::new();
    let p = store.add_param("emb", table.clone());
    if paged {
        let budget = pair.touched_columns().len() + 1;
        store
            .page_out(p, Box::new(VecStorage::new(rows, cols)), budget)
            .unwrap();
        store.page_in(p, &[pair.touched_columns(), &extra]).unwrap();
    }
    let mut g = Graph::with_pool(PoolHandle::global().with_width(width));
    g.set_fused(fused);
    let (out, tap) = record(&mut g, &store, p);
    let (m, w) = g.value(out).shape();
    let weights: Vec<f32> = (0..m * w).map(|k| (k % 5) as f32 * 0.5 - 1.0).collect();
    let wv = g.input_from_slice(m, w, &weights);
    let weighted = g.mul(out, wv);
    let loss = g.mean(weighted);
    store.touch(p, &extra);
    g.backward(loss, &mut store);
    let mut grad = vec![0.0f32; rows * cols];
    store.sweep_serial(p, Sweep::Grads, |row, g, _| {
        grad[row * cols..(row + 1) * cols].copy_from_slice(g)
    });
    let grad_of = |v: Var| g.grad(v).unwrap().as_slice().to_vec();
    [grad_of(out), grad_of(tap), grad]
}

/// One step of the working-set property test: gradient writers, each a
/// kind and raw picks the test maps into the step's rows.
type Writers = Vec<(u8, Vec<(u32, u32, u32)>)>;

fn writers() -> impl Strategy<Value = Writers> {
    let picks = prop::collection::vec((0u32..1000, 0u32..1000, 0u32..1000), 1..7);
    prop::collection::vec((0u8..5, picks), 1..5)
}

/// The optimizers the working-set property test steps with.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Update {
    Sgd,
    Adagrad,
    Adam,
}

const LR: f32 = 0.1;

impl Update {
    fn build(self, pool: &PoolHandle) -> Box<dyn Optimizer> {
        match self {
            Update::Sgd => Box::new(Sgd::new(LR).with_pool(pool.clone())),
            Update::Adagrad => Box::new(Adagrad::new(LR)),
            Update::Adam => Box::new(Adam::new(LR)),
        }
    }
}

/// What the working-set store must equal: the full gradient table, the
/// values and the optimizer state, kept dense and updated by the plain
/// per-element formulas over every row.
struct Reference {
    grad: Vec<f32>,
    value: Vec<f32>,
    acc: Vec<f32>,
    m: Vec<f32>,
    v: Vec<f32>,
    t: i32,
}

impl Reference {
    fn new(table: &Tensor) -> Self {
        let n = table.len();
        Self {
            grad: vec![0.0; n],
            value: table.as_slice().to_vec(),
            acc: vec![0.0; n],
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
        }
    }

    fn step(&mut self, update: Update) {
        let (value, grad) = (&mut self.value, &self.grad);
        match update {
            Update::Sgd => {
                for (x, g) in value.iter_mut().zip(grad) {
                    *x += -LR * *g;
                }
            }
            Update::Adagrad => {
                for ((x, a), g) in value.iter_mut().zip(&mut self.acc).zip(grad) {
                    *a += g * g;
                    *x -= LR * g / (a.sqrt() + 1e-10);
                }
            }
            Update::Adam => {
                self.t += 1;
                let (b1, b2) = (0.9f32, 0.999f32);
                let (bias1, bias2) = (1.0 - b1.powi(self.t), 1.0 - b2.powi(self.t));
                let state = self.m.iter_mut().zip(&mut self.v);
                for ((x, g), (m, s)) in value.iter_mut().zip(grad).zip(state) {
                    *m = b1 * *m + (1.0 - b1) * g;
                    *s = b2 * *s + (1.0 - b2) * g * g;
                    *x -= LR * (*m / bias1) / ((*s / bias2).sqrt() + 1e-8);
                }
            }
        }
    }
}

/// The amount a hand-written writer adds at occurrence `k`, column `j`.
fn written(k: usize, j: usize) -> f32 {
    ((k * 3 + j) % 7) as f32 * 0.25 - 0.75
}

/// Weights the loss with a fixed non-uniform upstream gradient.
fn weighted_mean(g: &mut Graph, out: Var) -> Var {
    let (m, w) = g.value(out).shape();
    let weights: Vec<f32> = (0..m * w).map(|k| (k % 5) as f32 * 0.5 - 1.0).collect();
    let wv = g.input_from_slice(m, w, &weights);
    let weighted = g.mul(out, wv);
    g.mean(weighted)
}

/// Runs two steps of `writers` on a table of `n` entities and `r`
/// relations — resident, or paged behind a cache of one step's working set
/// (so the second step evicts) — and checks after every step's writers that
/// every row of the store's gradient view, untouched ones included, is the
/// dense reference's, and after every update (and the final unpage) that
/// the values are.
fn working_set_run(
    (n, r): (usize, usize),
    table: &Tensor,
    steps: [&Writers; 2],
    width: usize,
    paged: bool,
    update: Update,
) {
    let (rows, d) = table.shape();
    let pool = PoolHandle::global().with_width(width);
    // Step 0 reads the low entities, step 1 the high ones; they overlap in
    // two, and share the relation rows.
    let half = n / 2;
    let span = [(0, half + 1), (half - 1, n - half + 1)];
    let lists = |s: usize, picks: &[(u32, u32, u32)]| {
        let (lo, len) = span[s];
        let ent = |p: u32| lo as u32 + p % len as u32;
        let heads: Vec<u32> = picks.iter().map(|t| ent(t.0)).collect();
        let rels: Vec<u32> = picks.iter().map(|t| t.1 % r as u32).collect();
        let tails: Vec<u32> = picks.iter().map(|t| ent(t.2)).collect();
        let mut rows: Vec<u32> = heads
            .iter()
            .zip(&tails)
            .flat_map(|(&h, &t)| [h, t])
            .collect();
        rows.extend(rels.iter().map(|&q| n as u32 + q));
        (heads, rels, tails, rows)
    };
    let working_set = |s: usize| {
        let mut ws = RowSet::new();
        for (_, picks) in steps[s] {
            ws.insert_slice(&lists(s, picks).3);
        }
        ws.as_slice().unwrap().to_vec()
    };
    let ws = [working_set(0), working_set(1)];
    let budget = ws[0].len().max(ws[1].len());

    let mut store = ParamStore::new();
    let p = store.add_param("emb", table.clone());
    if paged {
        store
            .page_out(p, Box::new(VecStorage::new(rows, d)), budget)
            .unwrap();
    }
    let mut reference = Reference::new(table);
    let mut opt = update.build(&pool);
    let at = format!("width {width}, paged {paged}, {update:?}");
    for (s, writers) in steps.iter().enumerate() {
        store.zero_grads();
        store.page_in(p, &[&ws[s]]).unwrap();
        reference.grad.fill(0.0);
        for (w, (kind, picks)) in writers.iter().enumerate() {
            let (heads, rels, tails, list) = lists(s, picks);
            // A paged table has no gather and no all-rows state: those
            // writers write by hand instead.
            let kind = match (*kind, paged) {
                (1 | 4, true) => 2,
                (kind, _) => kind,
            };
            let refg = &mut reference.grad;
            match kind {
                0 => {
                    let a = hrt(n, r, &heads, &rels, &tails, TailSign::Negative).unwrap();
                    let mut g = Graph::with_pool(pool.clone());
                    let x = g.spmm(&store, p, Arc::new(IncidencePair::new(a.clone())));
                    let loss = weighted_mean(&mut g, x);
                    g.backward(loss, &mut store);
                    accumulate_full_transpose(&a, g.grad(x).unwrap().as_slice(), d, refg);
                }
                1 => {
                    let mut g = Graph::with_pool(pool.clone());
                    let x = g.gather(&store, p, list.clone());
                    let loss = weighted_mean(&mut g, x);
                    g.backward(loss, &mut store);
                    let src = g.grad(x).unwrap().as_slice();
                    for (k, &row) in list.iter().enumerate() {
                        let dst = &mut refg[row as usize * d..(row as usize + 1) * d];
                        for (x, y) in dst.iter_mut().zip(&src[k * d..(k + 1) * d]) {
                            *x += *y;
                        }
                    }
                }
                2 => {
                    store.touch(p, &list);
                    store.sweep(p, Sweep::Grads, &pool, 1, |row, grad, _| {
                        for (k, _) in list.iter().enumerate().filter(|e| *e.1 as usize == row) {
                            for (j, x) in grad.iter_mut().enumerate() {
                                *x += written(k, j);
                            }
                        }
                    });
                    for (k, &row) in list.iter().enumerate() {
                        for j in 0..d {
                            refg[row as usize * d + j] += written(k, j);
                        }
                    }
                }
                3 => {
                    let mut set = RowSet::new();
                    set.insert_slice(&list);
                    store.touch_set(p, &set);
                }
                _ => {
                    let all = store.grad_mut(p);
                    for (k, &row) in list.iter().enumerate() {
                        for j in 0..d {
                            all[row as usize * d + j] += written(k, j);
                            refg[row as usize * d + j] += written(k, j);
                        }
                    }
                    assert!(store.touched(p).is_dense());
                }
            }
            let view = store.grad(p);
            for row in 0..rows {
                let want = &reference.grad[row * d..(row + 1) * d];
                assert_eq!(
                    bits(view.row(row)),
                    bits(want),
                    "step {s}, writer {w} (kind {kind}), row {row}, {at}"
                );
            }
        }
        opt.step(&mut store);
        reference.step(update);
        if !paged {
            let value = store.value(p).as_slice();
            assert_eq!(bits(value), bits(&reference.value), "step {s}, {at}");
        }
    }
    store.zero_grads();
    let view = store.grad(p);
    assert!((0..rows).all(|row| view.row(row).iter().all(|x| x.to_bits() == 0)));
    if paged {
        let pager = store.pager(p).unwrap();
        let union = ws[0]
            .iter()
            .chain(&ws[1])
            .collect::<std::collections::BTreeSet<_>>();
        assert!(union.len() <= budget || pager.stats().evictions > 0, "{at}");
        store.unpage(p).unwrap();
    }
    assert_eq!(
        bits(store.value(p).as_slice()),
        bits(&reference.value),
        "{at}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `project_rows` and both halves of its backward equal the plain
    /// per-element loops bit for bit, at any pool width: blocking by
    /// relation and vectorizing across outputs reorders which element is
    /// computed when, never the sum inside an element.
    #[test]
    fn projection_matches_plain_loops_at_any_width(
        ((r, d_out, d_in), rels, mats, vecs, weights) in projection_problem()
    ) {
        let m = rels.len();
        let mat = |i: usize| &mats[rels[i] as usize * d_out * d_in..][..d_out * d_in];
        let by_rel = Arc::new(RelationGroups::new(r, &rels).unwrap());
        for width in [1, 4, 8] {
            let mut store = ParamStore::new();
            let p = store.add_param("mats", Tensor::from_vec(r, d_out * d_in, mats.clone()));
            let mut g = Graph::with_pool(PoolHandle::global().with_width(width));
            let x = g.input_from_slice(m, d_in, &vecs);
            let out = g.project_rows(&store, p, x, by_rel.clone(), d_out);
            let w = g.input_from_slice(m, d_out, &weights);
            let weighted = g.mul(out, w);
            let loss = g.mean(weighted);
            g.backward(loss, &mut store);

            let mut want = vec![0.0f32; m * d_out];
            for i in 0..m {
                for o in 0..d_out {
                    let mut acc = 0.0;
                    for j in 0..d_in {
                        acc += mat(i)[o * d_in + j] * vecs[i * d_in + j];
                    }
                    want[i * d_out + o] = acc;
                }
            }
            prop_assert_eq!(bits(g.value(out).as_slice()), bits(&want), "forward, width {}", width);

            let up = g.grad(out).unwrap().as_slice();
            let mut dv = vec![0.0f32; m * d_in];
            let mut dm = vec![0.0f32; r * d_out * d_in];
            for i in 0..m {
                for j in 0..d_in {
                    let mut acc = 0.0;
                    for o in 0..d_out {
                        acc += mat(i)[o * d_in + j] * up[i * d_out + o];
                    }
                    // The node-gradient accumulate on a fresh buffer.
                    dv[i * d_in + j] = 0.0 + 1.0 * acc;
                }
                let dmat = &mut dm[rels[i] as usize * d_out * d_in..][..d_out * d_in];
                for o in 0..d_out {
                    for j in 0..d_in {
                        dmat[o * d_in + j] += up[i * d_out + o] * vecs[i * d_in + j];
                    }
                }
            }
            prop_assert_eq!(bits(g.grad(x).unwrap().as_slice()), bits(&dv), "dv, width {}", width);
            prop_assert_eq!(bits(Tensor::from_view(store.grad(p)).as_slice()), bits(&dm), "dM, width {}", width);
        }
    }

    /// add/sub/mul forward values match elementwise arithmetic.
    #[test]
    fn elementwise_forward_laws((m, n, data) in small_matrix()) {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(m, n, data.clone()));
        let b = g.input(Tensor::from_vec(m, n, data.iter().map(|x| x * 0.5 + 1.0).collect()));
        let sum = g.add(a, b);
        let diff = g.sub(sum, b);
        // (a + b) - b == a.
        for (x, y) in g.value(diff).as_slice().iter().zip(&data) {
            prop_assert!((x - y).abs() < 1e-4);
        }
        let prod = g.mul(a, b);
        for (got, x) in g.value(prod).as_slice().iter().zip(&data) {
            let want = x * (x * 0.5 + 1.0);
            prop_assert!((got - want).abs() < 1e-3);
        }
    }

    /// Gradient of mean(gather) counts row multiplicity.
    #[test]
    fn gather_gradient_counts_multiplicity(
        rows in 2usize..6,
        cols in 1usize..5,
        picks in prop::collection::vec(0u32..6, 1..12),
    ) {
        let picks: Vec<u32> = picks.into_iter().map(|p| p % rows as u32).collect();
        let mut store = ParamStore::new();
        let p = store.add_param("p", Tensor::full(rows, cols, 1.0));
        let mut g = Graph::new();
        let x = g.gather(&store, p, picks.clone());
        let loss = g.mean(x);
        g.backward(loss, &mut store);
        let scale = 1.0 / (picks.len() * cols) as f32;
        for r in 0..rows {
            let mult = picks.iter().filter(|&&i| i as usize == r).count() as f32;
            for j in 0..cols {
                let got = store.grad(p).row(r)[j];
                prop_assert!((got - mult * scale).abs() < 1e-5,
                    "row {} mult {}: got {}", r, mult, got);
            }
        }
    }

    /// Backward of `scale` is linear: grad(c·x) = c · grad(x).
    #[test]
    fn scale_backward_linearity((m, n, data) in small_matrix(), c in -3.0f32..3.0) {
        let run = |scale: f32| {
            let mut store = ParamStore::new();
            let p = store.add_param("p", Tensor::from_vec(m, n, data.clone()));
            let mut g = Graph::new();
            let x = g.gather(&store, p, (0..m as u32).collect::<Vec<u32>>());
            let y = g.scale(x, scale);
            let loss = g.mean(y);
            g.backward(loss, &mut store);
            Tensor::from_view(store.grad(p)).into_vec()
        };
        let base = run(1.0);
        let scaled = run(c);
        for (b, s) in base.iter().zip(&scaled) {
            prop_assert!((c * b - s).abs() < 1e-4);
        }
    }

    /// Gradients accumulate across backward calls until zero_grads.
    #[test]
    fn gradients_accumulate_until_cleared((m, n, data) in small_matrix()) {
        let mut store = ParamStore::new();
        let p = store.add_param("p", Tensor::from_vec(m, n, data));
        let backward_once = |store: &mut ParamStore| {
            let mut g = Graph::new();
            let x = g.gather(store, p, (0..m as u32).collect::<Vec<u32>>());
            let loss = g.mean(x);
            g.backward(loss, store);
        };
        backward_once(&mut store);
        let once = Tensor::from_view(store.grad(p)).into_vec();
        backward_once(&mut store);
        for (g2, g1) in Tensor::from_view(store.grad(p)).as_slice().iter().zip(&once) {
            prop_assert!((g2 - 2.0 * g1).abs() < 1e-5);
        }
        store.zero_grads();
        prop_assert!(Tensor::from_view(store.grad(p)).as_slice().iter().all(|&x| x == 0.0));
    }

    /// Row norms: L1 ≥ L2 ≥ 0 and both are absolutely homogeneous.
    #[test]
    fn norm_inequalities((m, n, data) in small_matrix()) {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(m, n, data));
        let l1 = g.score_rows(x, RowScore::L1);
        let l2 = g.score_rows(x, RowScore::L2 { eps: 1e-9 });
        for i in 0..m {
            let a = g.value(l1).get(i, 0);
            let b = g.value(l2).get(i, 0);
            prop_assert!(a + 1e-5 >= b, "L1 {} < L2 {}", a, b);
            prop_assert!(b >= 0.0);
        }
    }

    /// An incidence pair's touched columns are exactly the occupied rows of
    /// the full transpose, and every backward pushed through its forward
    /// rows — `spmm`, `spmm_score` and `semiring_score` (both tail signs,
    /// self-loops) — equals the walk over the full transpose bit for bit, as
    /// `project_rows`' does the plain loops over a selection batch, through
    /// a store that touched a row the batch does not, resident or paged (the
    /// projection resident only), at pool widths 1 and 4.
    #[test]
    fn kept_columns_are_the_full_transpose_through_the_tape(
        (a, form) in incidence_matrix(),
        d in 1usize..9,
    ) {
        let pair = Arc::new(IncidencePair::new(a.clone()));
        let t = a.transpose();
        let occupied: Vec<u32> = (0..t.rows() as u32).filter(|&e| t.row(e as usize).count() > 0).collect();
        prop_assert_eq!(&pair.touched_columns()[..], &occupied[..]);

        let table = init::uniform(a.cols(), 2 * d, 1.5, d as u64);
        let score = RowScore::L2 { eps: 1e-9 };
        let spmm: Record<'_> = &|g, store, p| {
            let x = g.spmm(store, p, pair.clone());
            (x, x)
        };
        // Unfused, `spmm_score` records these two ops; the spmm node's
        // gradient is the fused backward's `dx`.
        let spmm_then_score: Record<'_> = &|g, store, p| {
            let x = g.spmm(store, p, pair.clone());
            (g.score_rows(x, score), x)
        };
        let fused_score: Record<'_> = &|g, store, p| {
            let s = g.spmm_score(store, p, pair.clone(), score);
            (s, s)
        };
        // `d` outputs from `d_in` inputs per batch row, relation = column.
        let (m, d_in) = (a.rows(), 3);
        let vecs: Vec<f32> = (0..m * d_in).map(|k| (k % 7) as f32 * 0.375 - 1.0).collect();
        let mats = init::uniform(a.cols(), d * d_in, 1.5, d as u64 + 1);
        let project: Record<'_> = &|g, store, p| {
            let by_rel = Arc::new(RelationGroups::new(a.cols(), a.indices()).unwrap());
            let x = g.input_from_slice(m, d_in, &vecs);
            (g.project_rows(store, p, x, by_rel, d), x)
        };
        for width in [1, 4] {
            for paged in [false, true] {
                let at = format!("width {width}, paged {paged}");
                let [up, _, grad] = through_tape(width, paged, true, &pair, &table, spmm);
                prop_assert_eq!(bits(&grad), bits(&full_transpose_walk(&a, &up, 2 * d)), "spmm, {}", at);
                let [_, dx, unfused] = through_tape(width, paged, false, &pair, &table, spmm_then_score);
                let want = bits(&full_transpose_walk(&a, &dx, 2 * d));
                prop_assert_eq!(bits(&unfused), want.clone(), "unfused spmm_score, {}", at);
                let [_, _, fused] = through_tape(width, paged, true, &pair, &table, fused_score);
                prop_assert_eq!(bits(&fused), want, "spmm_score, {}", at);
                match form {
                    Form::Hrt(sign) => {
                        let kinds = if sign == TailSign::Negative { &Semiring::ALL[..] } else { &Semiring::ALL[..1] };
                        for &kind in kinds {
                            let semiring: Record<'_> = &|g, store, p| {
                                let s = g.semiring_score(store, p, pair.clone(), kind);
                                (s, s)
                            };
                            let [up, _, grad] = through_tape(width, paged, true, &pair, &table, semiring);
                            let want = full_transpose_semiring_walk(kind, &a, &table, &up);
                            prop_assert_eq!(bits(&grad), bits(&want), "{:?}, {}", kind, at);
                        }
                    }
                    Form::Selection if !paged => {
                        let [up, dv, dm] = through_tape(width, paged, true, &pair, &mats, project);
                        let (want_dv, want_dm) = plain_projection_backward(&a, &mats, &vecs, &up);
                        prop_assert_eq!(bits(&dv), bits(&want_dv), "project dv, {}", at);
                        prop_assert_eq!(bits(&dm), bits(&want_dm), "project dM, {}", at);
                    }
                    _ => {}
                }
            }
        }
    }

    /// The working-set gradient is the full table: after every writer —
    /// `spmm` and `gather` backwards and hand-written sweeps over unsorted
    /// row lists with repeats, `touch_set` unions, a `grad_mut` switch to
    /// the all-rows state after rows accumulated — every row read through
    /// `ParamStore::grad`, untouched ones included, equals a dense reference
    /// kept here, and `Sgd`, `Adagrad` and `Adam` steps leave the values the
    /// reference's formulas do. Resident and paged with eviction (`Sgd`, the
    /// one optimizer that pages), at pool widths 1 and 4.
    #[test]
    fn working_set_gradient_is_the_full_table_reference(
        (n, r, d) in (4usize..16, 1usize..3, 1usize..5),
        first in writers(),
        second in writers(),
    ) {
        let table = init::uniform(n + r, d, 1.0, (n * 8 + d) as u64);
        for width in [1, 4] {
            for update in [Update::Sgd, Update::Adagrad, Update::Adam] {
                for paged in [false, true] {
                    if paged && update != Update::Sgd {
                        continue;
                    }
                    working_set_run((n, r), &table, [&first, &second], width, paged, update);
                }
            }
        }
    }
}
