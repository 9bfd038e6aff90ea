//! The define-by-run autograd tape.
//!
//! Besides the ops, this module holds the kernels that run them and whose
//! bits the pins hold: the row score's terms and folds ([`RowScore`]: one
//! row at a time in the fused forward, four at a time in
//! [`Graph::score_rows`] and TransH's fused score, sixteen lanes in a
//! panel), TransH's hyperplane rows (the expression and the gradients of
//! its eight-op chain, re-derived four rows at a time), the one push every
//! sparse backward runs, and TransR's projection kernels (a blocked
//! transpose, then two rows per pass over each relation's matrix), the
//! lane-parallel ones dispatched through [`Isa::run`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use sparse::incidence::{IncidencePair, RelationGroups};
use sparse::metrics::Cost;
use sparse::semiring::{semiring_spmm_into_with, Semiring};
use sparse::spmm::{axpy, csr_spmm_into_with, prefetch_operands, spmm_row};
use sparse::CsrMatrix;
use sparse::DenseView;
use xparallel::{Isa, PoolHandle, PREFETCH_DISTANCE};

use crate::tensor::REDUCE_CHUNK;
use crate::{Arena, ParamId, ParamStore, Tensor};

/// Handle to a node on a [`Graph`] tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

/// Per-row score: reduces each row of a node to a scalar
/// ([`Graph::score_rows`]), or each row of an incidence SpMM without
/// materializing it ([`Graph::spmm_score`], the distance half of a fused
/// gather+distance kernel).
///
/// Both ops run the same three functions (per-element term, per-row finish,
/// per-element derivative) in the same order, so the fused and materialized
/// pipelines are bit-identical by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RowScore {
    /// `Σ_j |x_j|`.
    L1,
    /// `√(Σ_j x_j²)`; `eps` guards the backward division for zero rows.
    L2 {
        /// Backward-division guard: the derivative divides by
        /// `max(score, eps)`.
        eps: f32,
    },
    /// `Σ_j x_j²` (TransC-style scoring).
    SquaredL2,
    /// `Σ_j min(f_j, 1−f_j)`, `f_j = frac(x_j)` — TorusE's wraparound L1.
    TorusL1,
    /// `Σ_j min(f_j, 1−f_j)²` — the `l2_torus_dissimilarity` the paper's
    /// Figure 2 profiles.
    TorusL2Sq,
}

/// IEEE-exact `floor` from float adds and compares, bit-identical to
/// [`f32::floor`] on every input (NaNs as a class).
///
/// At the baseline x86-64 target `f32::floor` is a call into a software
/// `floorf`, one per element, which no loop around it can vectorize. Below
/// `2²³` adding and subtracting `2²³` rounds `|x|` to the nearest integer
/// (every f32 from `2²³` up already is one); with the sign restored, that is
/// `floor(x)` or one above it.
#[inline(always)]
fn floor(x: f32) -> f32 {
    const TWO_23: f32 = 8_388_608.0;
    let a = x.abs();
    let nearest = ((a + TWO_23) - TWO_23).copysign(x);
    let fl = if nearest > x { nearest - 1.0 } else { nearest };
    if a < TWO_23 {
        fl
    } else {
        x
    }
}

/// `min(f, 1 − f)` for `f = frac(x)` — one coordinate of the torus L1
/// distance.
#[inline(always)]
fn torus_l1_term(x: f32) -> f32 {
    let f = x - floor(x);
    f.min(1.0 - f)
}

#[inline(always)]
fn torus_l2_sq_term(x: f32) -> f32 {
    let d = torus_l1_term(x);
    d * d
}

#[inline(always)]
fn torus_l1_deriv(x: f32) -> f32 {
    let f = x - floor(x);
    if f <= 0.5 {
        1.0
    } else {
        -1.0
    }
}

#[inline(always)]
fn torus_l2_sq_deriv(x: f32) -> f32 {
    let f = x - floor(x);
    if f <= 0.5 {
        2.0 * f
    } else {
        -2.0 * (1.0 - f)
    }
}

/// `x[j] = f(x[j])`. Each call site passes one closure, so each gets its own
/// branch-free loop the compiler can vectorize.
#[inline(always)]
fn map_in_place(x: &mut [f32], f: impl Fn(f32) -> f32) {
    for xj in x {
        *xj = f(*xj);
    }
}

/// Evaluates `$body` with `$term` bound to the score's per-element forward
/// term (an `Fn(f32) -> f32`): the variant is matched once, outside whatever
/// loop `$body` runs, and each arm gets its own branch-free loop. The one
/// definition of the terms, for the row tile and the panel alike.
macro_rules! with_term {
    ($score:expr, $term:ident => $body:expr) => {
        match $score {
            RowScore::L1 => {
                let $term = f32::abs;
                $body
            }
            RowScore::L2 { .. } | RowScore::SquaredL2 => {
                let $term = |x: f32| x * x;
                $body
            }
            RowScore::TorusL1 => {
                let $term = torus_l1_term;
                $body
            }
            RowScore::TorusL2Sq => {
                let $term = torus_l2_sq_term;
                $body
            }
        }
    };
}

/// Rows per panel of [`RowScore::panel_distances`]: the distances one pass
/// over the columns advances together, in one `[f32; 16]` accumulator.
pub const PANEL_LANES: usize = 16;

/// Columns [`RowScore::panel_distances_within`] folds between two looks at
/// its bound. At 64 columns, 4 and 16 both scanned slower than 8.
pub const PANEL_EXIT_COLUMNS: usize = 8;

/// `acc[l] += term(a_j − panel[j·w + l])` for every column `j` in order and
/// every lane `l < w`: each lane is one row's fold, from wherever `acc`
/// starts, strictly in column order.
#[inline(always)]
fn fold_panel(
    a: &[f32],
    panel: &[f32],
    w: usize,
    acc: &mut [f32; PANEL_LANES],
    term: impl Fn(f32) -> f32,
) {
    for (&aj, col) in a.iter().zip(panel.chunks_exact(w)) {
        for (al, &c) in acc.iter_mut().zip(col) {
            *al += term(aj - c);
        }
    }
}

/// [`fold_panel`] in blocks of [`PANEL_EXIT_COLUMNS`] columns, stopping
/// before a block once `stop(acc)`; returns the columns folded.
#[inline(always)]
fn fold_panel_until(
    a: &[f32],
    panel: &[f32],
    w: usize,
    acc: &mut [f32; PANEL_LANES],
    term: impl Fn(f32) -> f32 + Copy,
    stop: impl Fn(&[f32; PANEL_LANES]) -> bool,
) -> usize {
    let blocks = a
        .chunks(PANEL_EXIT_COLUMNS)
        .zip(panel.chunks(PANEL_EXIT_COLUMNS * w));
    let mut read = 0;
    for (a, panel) in blocks {
        if read > 0 && stop(acc) {
            break;
        }
        fold_panel(a, panel, w, acc, term);
        read += a.len();
    }
    read
}

impl RowScore {
    /// Replaces every element by its forward term. The variant is matched
    /// once per tile, not once per element.
    #[inline]
    fn terms(self, x: &mut [f32]) {
        with_term!(self, term => map_in_place(x, term))
    }

    /// The op-table rows of [`Graph::score_rows`] and its backward.
    fn op_names(self) -> [&'static str; 2] {
        match self {
            RowScore::L1 => ["op::l1_norm", "op::l1_norm_backward"],
            RowScore::L2 { .. } => ["op::l2_norm", "op::l2_norm_backward"],
            RowScore::SquaredL2 => ["op::sq_l2_norm", "op::sq_l2_norm_backward"],
            RowScore::TorusL1 => ["op::torus_l1", "op::torus_l1_backward"],
            RowScore::TorusL2Sq => ["op::torus_l2", "op::torus_l2_backward"],
        }
    }

    /// Final per-row transform of the accumulated terms.
    #[inline]
    fn finish(self, acc: f32) -> f32 {
        match self {
            RowScore::L2 { .. } => acc.sqrt(),
            _ => acc,
        }
    }

    /// One row's score. `fill(t0, x)` writes elements `t0 .. t0 + x.len()` of
    /// the row into the stack tile `x`; they are mapped to terms (a loop that
    /// vectorizes) and folded from `0.0` strictly in column order.
    #[inline(always)]
    fn fold_row(
        self,
        d: usize,
        tile: &mut [f32; SCORE_TILE],
        fill: impl Fn(usize, &mut [f32]),
    ) -> f32 {
        let mut acc = 0.0f32;
        for t0 in (0..d).step_by(SCORE_TILE) {
            let x = &mut tile[..SCORE_TILE.min(d - t0)];
            fill(t0, x);
            self.terms(x);
            for &xj in x.iter() {
                acc += xj;
            }
        }
        self.finish(acc)
    }

    /// [`RowScore::fold_row`] for `R` rows at once: `fill(r, t0, x)` writes
    /// elements `t0 .. t0 + x.len()` of row `r` into its own stack tile `x`.
    /// Each row's terms are added from `0.0` in column order into its own
    /// accumulator, so `out[r]` is bit-equal to row `r`'s `fold_row`; the
    /// adds are `R` independent chains where one row is one chain, bound by
    /// the add latency.
    #[inline(always)]
    fn fold_rows<const R: usize>(
        self,
        d: usize,
        tiles: &mut [[f32; SCORE_TILE]; R],
        fill: impl Fn(usize, usize, &mut [f32]),
    ) -> [f32; R] {
        let mut acc = [0.0f32; R];
        for t0 in (0..d).step_by(SCORE_TILE) {
            let w = SCORE_TILE.min(d - t0);
            for (r, tile) in tiles.iter_mut().enumerate() {
                let x = &mut tile[..w];
                fill(r, t0, x);
                self.terms(x);
            }
            for j in 0..w {
                for (a, tile) in acc.iter_mut().zip(tiles.iter()) {
                    *a += tile[j];
                }
            }
        }
        acc.map(|a| self.finish(a))
    }

    /// This score of `a − b` for two raw rows — the distance evaluation and
    /// serving rank with. The difference is formed in the stack tile and
    /// goes through the tape ops' own terms, fold and finish, so it bit-equals
    /// [`Graph::score_rows`] of the materialized difference.
    #[inline]
    pub fn distance(self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let mut tile = [0.0f32; SCORE_TILE];
        self.fold_row(a.len(), &mut tile, |t0, x| {
            for (xj, (aj, bj)) in x.iter_mut().zip(a[t0..].iter().zip(&b[t0..])) {
                *xj = aj - bj;
            }
        })
    }

    /// This score of `a − row` for each row of a column-major *panel*:
    /// `panel` holds `w = out.len()` rows (`1 ≤ w ≤ PANEL_LANES`) of
    /// `a.len()` columns, column `j` of row `l` at `panel[j·w + l]`, and
    /// `out[l]` receives row `l`'s score. One pass over the columns advances
    /// all `w` scores, one independent accumulator per lane, which vectorizes
    /// at the baseline target.
    ///
    /// Each lane performs exactly the IEEE operations [`RowScore::distance`]
    /// performs on its row — `a_j − b_j`, the same term, added from `0.0` in
    /// ascending column order, the same finish — so `out[l]` is bit-equal to
    /// `self.distance(a, row_l)` (Rust never contracts into an FMA).
    ///
    /// # Panics
    ///
    /// Panics if `out` is empty or wider than [`PANEL_LANES`], or if
    /// `panel.len() != a.len() * out.len()`.
    // Always inlined: the IVF probe calls it once per centroid block with a
    // constant score (as a call it made the k-means 13–25 % slower when the
    // build used it too), and an `Isa::run` trampoline only widens what is
    // inlined into it. A caller that scores with a runtime score wraps it in
    // a function of its own (see the serving scan).
    #[inline(always)]
    pub fn panel_distances(self, a: &[f32], panel: &[f32], out: &mut [f32]) {
        let w = out.len();
        assert!(
            (1..=PANEL_LANES).contains(&w),
            "a panel holds 1..={PANEL_LANES} rows, not {w}"
        );
        assert_eq!(panel.len(), a.len() * w, "panel is not {w} rows of a");
        let mut acc = [0.0f32; PANEL_LANES];
        // A full panel's width is a constant, so its lane loop is whole
        // vectors; only a narrower last panel runs the general one.
        if w == PANEL_LANES {
            with_term!(self, term => fold_panel(a, panel, PANEL_LANES, &mut acc, term));
        } else {
            with_term!(self, term => fold_panel(a, panel, w, &mut acc, term));
        }
        for (o, &al) in out.iter_mut().zip(&acc) {
            *o = self.finish(al);
        }
    }

    /// [`RowScore::panel_distances`] that gives up on a panel none of whose
    /// `keep` lanes can score `≤ bound`. It folds the columns in blocks of
    /// [`PANEL_EXIT_COLUMNS`]; after each block but the last, if
    /// `finish(partial) > bound` for every lane in `keep`, it stops and
    /// returns the columns folded so far (`out` is left as it was).
    /// Otherwise it returns `a.len()` and `out` holds every lane's score,
    /// bit-equal to [`RowScore::panel_distances`]: the same adds in the same
    /// order, only interrupted by compares.
    ///
    /// Every term is `≥ 0` or NaN and `finish` never decreases, so a partial
    /// score never exceeds the full one, and a stopped lane's full score is
    /// `> bound` too — unless a later column makes it NaN. A NaN partial
    /// never compares `> bound` and keeps its panel going, but a finite
    /// partial can still become NaN: `inf − inf` in the torus term of an
    /// overflowed difference. That NaN may have its sign bit set, and
    /// `total_cmp` ranks a negative NaN first. A caller that prunes with a
    /// finite bound must rule that out, for example by keeping every value
    /// of `a` and of the panel within `±f32::MAX / 2`, where no difference
    /// overflows; `bound = +∞` (or NaN) never stops.
    ///
    /// # Panics
    ///
    /// As [`RowScore::panel_distances`], and if `keep` does not lie within
    /// `0..out.len()`.
    // Not dispatched through `Isa::run`: the serving walk calls it through a
    // function of its own with a runtime score, at the baseline width.
    #[inline(always)]
    pub fn panel_distances_within(
        self,
        a: &[f32],
        panel: &[f32],
        out: &mut [f32],
        keep: std::ops::Range<usize>,
        bound: f32,
    ) -> usize {
        let w = out.len();
        assert!(
            (1..=PANEL_LANES).contains(&w),
            "a panel holds 1..={PANEL_LANES} rows, not {w}"
        );
        assert_eq!(panel.len(), a.len() * w, "panel is not {w} rows of a");
        assert!(keep.end <= w, "lanes {keep:?} are not within {w}");
        let ignored: [bool; PANEL_LANES] = std::array::from_fn(|l| !keep.contains(&l));
        let mut acc = [0.0f32; PANEL_LANES];
        let beyond = |acc: &[f32; PANEL_LANES]| self.beyond(acc, &ignored, bound);
        // One loop per term and width, as in `panel_distances`.
        let read = if w == PANEL_LANES {
            with_term!(self, term => fold_panel_until(a, panel, PANEL_LANES, &mut acc, term, beyond))
        } else {
            with_term!(self, term => fold_panel_until(a, panel, w, &mut acc, term, beyond))
        };
        if read == a.len() {
            for (o, &al) in out.iter_mut().zip(&acc) {
                *o = self.finish(al);
            }
        }
        read
    }

    /// Whether every lane not `ignored` finishes `> bound`: all sixteen
    /// lanes are compared, branch-free, so the check vectorizes.
    #[inline(always)]
    fn beyond(self, acc: &[f32; PANEL_LANES], ignored: &[bool; PANEL_LANES], bound: f32) -> bool {
        let all = |finish: fn(f32) -> f32| {
            acc.iter()
                .zip(ignored)
                .fold(true, |all, (&s, &i)| all & (i | (finish(s) > bound)))
        };
        match self {
            RowScore::L2 { .. } => all(f32::sqrt),
            _ => all(|s| s),
        }
    }

    /// [`RowScore::panel_distances`] for `R` rows at once against one full
    /// panel of [`PANEL_LANES`] rows: `out[r][l]` is bit-equal to lane `l` of
    /// `self.panel_distances(a[r], panel, ..)`. Each panel column is read once
    /// for all `R` rows, and `R × 16` independent sums advance together, so
    /// the adds are `R` times as many independent chains as one row's lanes
    /// give: at 8 lanes one row's 16 sums are two chains, bound by the add
    /// latency, and two rows are four.
    ///
    /// # Panics
    ///
    /// Panics if a row of `a` is not `panel.len() / PANEL_LANES` long.
    #[inline(always)]
    pub fn panel_distances_rows<const R: usize>(
        self,
        a: [&[f32]; R],
        panel: &[f32],
        out: &mut [[f32; PANEL_LANES]; R],
    ) {
        let d = panel.len() / PANEL_LANES;
        assert!(a.iter().all(|row| row.len() == d), "rows are not {d} wide");
        let mut acc = [[0.0f32; PANEL_LANES]; R];
        with_term!(self, term => {
            for (j, col) in panel.chunks_exact(PANEL_LANES).enumerate() {
                for (acc, row) in acc.iter_mut().zip(&a) {
                    let aj = row[j];
                    for (al, &c) in acc.iter_mut().zip(col) {
                        *al += term(aj - c);
                    }
                }
            }
        });
        for (out, acc) in out.iter_mut().zip(&acc) {
            for (o, &al) in out.iter_mut().zip(acc) {
                *o = self.finish(al);
            }
        }
    }

    /// Replaces every element `x_j` of one row by `0.0 + g · score'(x_j)`.
    /// The leading `0.0 +` canonicalizes `-0.0` to `+0.0`, which is what
    /// accumulating into a fresh (zeroed) node gradient does; accumulating
    /// the result into an existing one adds the same value either way.
    /// `norm` is the row's stored score, which the `L2` backward divides by.
    #[inline]
    fn derivs(self, g: f32, norm: f32, x: &mut [f32]) {
        match self {
            RowScore::L1 => map_in_place(x, |x| 0.0 + g * x.signum()),
            RowScore::L2 { eps } => {
                let denom = norm.max(eps);
                map_in_place(x, |x| 0.0 + g * x / denom);
            }
            RowScore::SquaredL2 => map_in_place(x, |x| 0.0 + g * (2.0 * x)),
            RowScore::TorusL1 => map_in_place(x, |x| 0.0 + g * torus_l1_deriv(x)),
            RowScore::TorusL2Sq => map_in_place(x, |x| 0.0 + g * torus_l2_sq_deriv(x)),
        }
    }
}

/// Column tile of the fused score forward: the incidence-row product is
/// evaluated `SCORE_TILE` elements at a time into a stack buffer, then
/// folded into the row's accumulator strictly in column order.
const SCORE_TILE: usize = 64;

/// The six generic elementwise ops ([`Graph::add`] … [`Graph::scale_rows`])
/// as one description of a batch row: what the forward writes and what each
/// operand's derivative is. `a` is `(m, n)`; `b` is `(m, n)`, except the
/// `(m, 1)` column of `ScaleRows` and `Scale`'s unused second operand (`a`
/// again). The variant is matched once per chunk of rows, so each kind keeps
/// its own branch-free element loop.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Elementwise {
    Add,
    Sub,
    Mul,
    Scale(f32),
    RowDot,
    ScaleRows,
}

/// `f(&mut dst[k], x[k], y[k])` over `dst`. Each call site passes one
/// closure, so each gets its own loop the compiler can vectorize.
#[inline(always)]
fn zip_each(dst: &mut [f32], x: &[f32], y: &[f32], f: impl Fn(&mut f32, f32, f32)) {
    for (d, (&x, &y)) in dst.iter_mut().zip(x.iter().zip(y)) {
        f(d, x, y);
    }
}

/// `Σ_j x[j]·y[j]` over the first `n`, folded from `0.0` in column order.
#[inline(always)]
fn dot(n: usize, x: &[f32], y: &[f32]) -> f32 {
    let mut acc = 0.0;
    for (&x, &y) in x[..n].iter().zip(&y[..n]) {
        acc += x * y;
    }
    acc
}

impl Elementwise {
    /// The op-table rows of the forward and the backward.
    fn op_names(self) -> [&'static str; 2] {
        match self {
            Elementwise::Add => ["op::add", "op::add_backward"],
            Elementwise::Sub => ["op::sub", "op::sub_backward"],
            Elementwise::Mul => ["op::mul", "op::mul_backward"],
            Elementwise::Scale(_) => ["op::scale", "op::scale_backward"],
            Elementwise::RowDot => ["op::row_dot", "op::row_dot_backward"],
            Elementwise::ScaleRows => ["op::scale_rows", "op::scale_rows_backward"],
        }
    }

    /// Row widths of `b` and of the output for an `n`-wide `a`.
    fn widths(self, n: usize) -> (usize, usize) {
        match self {
            Elementwise::RowDot => (n, 1),
            Elementwise::ScaleRows => (1, n),
            _ => (n, n),
        }
    }

    /// Fills `out`, a chunk of output rows; `a` and `b` start at its first
    /// row (`a` is `n` wide).
    #[inline]
    fn forward(self, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        match self {
            Elementwise::Add => zip_each(out, a, b, |o, x, y| *o = x + y),
            Elementwise::Sub => zip_each(out, a, b, |o, x, y| *o = x - y),
            Elementwise::Mul => zip_each(out, a, b, |o, x, y| *o = x * y),
            Elementwise::Scale(c) => zip_each(out, a, a, |o, x, _| *o = c * x),
            Elementwise::RowDot => {
                for (i, o) in out.iter_mut().enumerate() {
                    *o = dot(n, &a[i * n..], &b[i * n..]);
                }
            }
            Elementwise::ScaleRows => {
                let rows = out.chunks_exact_mut(n.max(1)).zip(a.chunks(n.max(1)));
                for ((o, x), &s) in rows.zip(b) {
                    zip_each(o, x, x, |o, x, _| *o = x * s);
                }
            }
        }
    }

    /// Adds operand `slot`'s derivative (`0`: `a`, `1`: `b`) to `dst`, a
    /// chunk of that operand's gradient rows; `g`, `a` and `b` start at its
    /// first row. The association is `grad += α · derivative`'s: linear
    /// kinds add `α·g`, products `1·(g·other)` (the exact `1·` left out), the
    /// row reduction folds from `0.0` in column order first.
    #[inline]
    fn backward(self, slot: usize, n: usize, g: &[f32], a: &[f32], b: &[f32], dst: &mut [f32]) {
        let other = if slot == 0 { b } else { a };
        match self {
            Elementwise::Add | Elementwise::Sub | Elementwise::Scale(_) => {
                let alpha = match self {
                    Elementwise::Scale(c) => c,
                    Elementwise::Sub if slot == 1 => -1.0,
                    _ => 1.0,
                };
                zip_each(dst, g, g, |d, gx, _| *d += alpha * gx);
            }
            Elementwise::Mul => zip_each(dst, g, other, |d, gx, y| *d += gx * y),
            Elementwise::RowDot => {
                let rows = dst.chunks_exact_mut(n.max(1)).zip(other.chunks(n.max(1)));
                for ((d, y), &gi) in rows.zip(g) {
                    zip_each(d, y, y, |d, y, _| *d += y * gi);
                }
            }
            Elementwise::ScaleRows if slot == 0 => {
                let rows = dst.chunks_exact_mut(n.max(1)).zip(g.chunks(n.max(1)));
                for ((d, gr), &s) in rows.zip(b) {
                    zip_each(d, gr, gr, |d, gx, _| *d += gx * s);
                }
            }
            Elementwise::ScaleRows => {
                for (i, d) in dst.iter_mut().enumerate() {
                    *d += dot(n, &g[i * n..], &a[i * n..]);
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Input,
    Gather {
        param: ParamId,
        indices: Arc<Vec<u32>>,
    },
    Spmm {
        param: ParamId,
        pair: Arc<IncidencePair>,
    },
    SpmmScore {
        param: ParamId,
        pair: Arc<IncidencePair>,
        score: RowScore,
    },
    HyperplaneScore {
        ent: ParamId,
        pair: Arc<IncidencePair>,
        planes: [ParamId; 2],
        rels: Arc<Vec<u32>>,
        score: RowScore,
    },
    Elementwise {
        kind: Elementwise,
        a: Var,
        b: Var,
    },
    ScoreRows {
        input: Var,
        score: RowScore,
    },
    ProjectRows {
        mats: ParamId,
        vecs: Var,
        by_rel: Arc<RelationGroups>,
        d_out: usize,
        d_in: usize,
    },
    MarginRankingLoss {
        pos: Var,
        neg: Var,
        margin: f32,
    },
    Mean(Var),
    SemiringScore {
        param: ParamId,
        pair: Arc<IncidencePair>,
        kind: Semiring,
    },
}

#[derive(Debug)]
struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    op: Op,
}

/// One row of a tape's per-op table ([`Graph::ops`]): every call of one op,
/// forward (`op::<name>`) or backward (`op::<name>_backward`), and what the
/// calls cost together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRow {
    /// The op, e.g. `op::spmm_score_backward`.
    pub name: &'static str,
    /// Times it ran.
    pub calls: u64,
    /// Estimated bytes its kernels moved.
    pub bytes: u64,
    /// Floating-point operations its kernels executed.
    pub flops: u64,
    /// SpMM kernel invocations among its calls.
    pub spmm_calls: u64,
    /// Wall-clock time spent in it.
    pub time: Duration,
}

impl OpRow {
    /// Adds `row` into the row of the same op in `table`, or appends it —
    /// how a tape tallies each call, and how a trainer sums its replicas'
    /// tables.
    pub fn tally(table: &mut Vec<OpRow>, row: &OpRow) {
        match table.iter_mut().find(|r| r.name == row.name) {
            Some(r) => {
                r.calls += row.calls;
                r.bytes += row.bytes;
                r.flops += row.flops;
                r.spmm_calls += row.spmm_calls;
                r.time += row.time;
            }
            None => table.push(*row),
        }
    }
}

/// A cost of `n` flops and nothing else.
fn flops(n: u64) -> Cost {
    Cost {
        flops: n,
        ..Cost::default()
    }
}

/// A tape of eagerly-evaluated operations supporting reverse-mode autodiff.
///
/// A fresh `Graph` is built per mini-batch (define-by-run, as in PyTorch).
/// Values are computed when ops are recorded; [`Graph::backward`] replays the
/// tape in reverse, accumulating parameter gradients into the
/// [`ParamStore`].
///
/// The two embedding-access ops embody the paper's comparison:
///
/// * [`Graph::gather`] — fine-grained row gather whose backward is a
///   **scatter-add** (the non-sparse baseline path, paper Figure 1);
/// * [`Graph::spmm`] — incidence-matrix SpMM whose backward is `Aᵀ · G`
///   pushed through the forward rows (the SparseTransX path, paper §4.1 and
///   Appendix G).
///
/// Both backwards are one scatter: each batch row adds `coefficient · G[i]`
/// into the gradient rows it names, with coefficient `1` for a gather.
///
/// The six elementwise ops ([`Graph::add`], [`Graph::sub`], [`Graph::mul`],
/// [`Graph::scale`], [`Graph::row_dot`], [`Graph::scale_rows`]) are one op:
/// one forward row walk, one backward arm landing each operand's derivative
/// straight in its gradient. Every op records its analytic cost with one
/// call, into the `sparse::metrics` totals and into its own row of the tape's
/// per-op table ([`Graph::ops`]: `op::<name>` forward, `op::<name>_backward`
/// backward), so the rows sum to what the tape counted.
///
/// # Parallelism and determinism
///
/// Every forward kernel and backward arm dispatches on the tape's
/// [`PoolHandle`]: row-wise kernels partition their **output** rows across
/// workers (each row computed by exactly one worker with a serial inner
/// loop), and parameter-gradient accumulation is sharded by **destination**
/// row with per-triple contributions applied in tape order. Scalar
/// reductions (the losses) use fixed-size chunks folded in order. Together
/// these make one training step bit-identical at any pool width — the
/// determinism contract behind `SPTX_NUM_THREADS`-invariant training.
///
/// [`Graph::new`] uses the global pool; [`Graph::with_pool`] pins an
/// explicit handle (e.g. [`PoolHandle::sequential`] inside data-parallel
/// workers, or a pinned width for determinism audits).
///
/// # Memory
///
/// The tape owns a recycling [`Arena`]: every node value, node gradient,
/// kernel output, and backward temporary is drawn from it, and
/// [`Graph::reset`] returns them all for reuse. A driver that keeps one
/// `Graph` per thread and resets it between batches performs **zero**
/// tensor-buffer heap allocations once the first batch has populated the
/// pool (asserted by [`crate::memory::alloc_count`]-based regression
/// tests). Recycling swaps buffer identity only — arithmetic order, and
/// therefore every result bit, is unchanged.
#[derive(Debug)]
pub struct Graph {
    nodes: Vec<Node>,
    pool: PoolHandle,
    arena: Arena,
    /// Whether fused hot-path kernels are used ([`Graph::spmm_score`],
    /// [`Graph::hyperplane_score`] and the margin-loss backward seed). On by
    /// default; the unfused arm records the materialized op-by-op tape
    /// instead, bit-identical.
    fused: bool,
    /// The lane width TransR's projection kernels run at; both give the
    /// same bits.
    isa: Isa,
    /// One row per op run since the tape was made or last cleared.
    ops: Vec<OpRow>,
}

impl Default for Graph {
    fn default() -> Self {
        Self::with_pool(PoolHandle::default())
    }
}

impl Graph {
    /// Creates an empty tape dispatching kernels on the global pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty tape dispatching kernels on an explicit pool handle.
    pub fn with_pool(pool: PoolHandle) -> Self {
        Self {
            nodes: Vec::new(),
            pool,
            arena: Arena::new(),
            fused: true,
            isa: Isa::detected(),
            ops: Vec::new(),
        }
    }

    /// Enables or disables the fused hot-path kernels.
    ///
    /// Fused and unfused tapes are bit-identical (same float association,
    /// operation for operation); the unfused arm exists for ablation and
    /// for the property tests that prove the equivalence.
    pub fn set_fused(&mut self, fused: bool) {
        self.fused = fused;
    }

    /// Whether fused hot-path kernels are enabled.
    pub fn fused(&self) -> bool {
        self.fused
    }

    /// Runs the dispatched projection kernels ([`Graph::project_rows`] and
    /// its backward) at `isa` instead of [`Isa::detected`]. Every output
    /// element performs the same IEEE operations in the same order at either
    /// width, so this changes timing only: it lets one process time both
    /// twins and tests compare them.
    pub fn set_isa(&mut self, isa: Isa) {
        self.isa = isa;
    }

    /// The pool handle this tape dispatches kernels on.
    pub fn pool(&self) -> &PoolHandle {
        &self.pool
    }

    /// The tape's buffer arena (recycling statistics for tests/reports).
    pub fn arena(&self) -> &Arena {
        &self.arena
    }

    /// The per-op table: one row per op this tape ran since it was made or
    /// last [cleared](Graph::clear_ops), in the order the ops first ran.
    /// Each op charges its own row once per call, so the rows are exact
    /// whatever other tapes run at the same time, and they sum to what this
    /// tape added to the `sparse::metrics` totals.
    ///
    /// # Examples
    ///
    /// ```
    /// use tensor::{Graph, ParamStore, RowScore, Tensor};
    ///
    /// let mut store = ParamStore::new();
    /// let emb = store.add_param("emb", Tensor::from_rows(&[[1.0, 2.0], [0.5, 0.0]]));
    /// let mut g = Graph::new();
    /// for _ in 0..3 {
    ///     g.reset();
    ///     let rows = g.gather(&store, emb, vec![0, 1, 1]);
    ///     let _ = g.score_rows(rows, RowScore::L1);
    /// }
    /// let gather = g.ops().iter().find(|r| r.name == "op::gather").unwrap();
    /// assert_eq!((gather.calls, gather.bytes), (3, 3 * 2 * (3 * 2 * 4)));
    /// ```
    pub fn ops(&self) -> &[OpRow] {
        &self.ops
    }

    /// Empties the per-op table, keeping its capacity (so the next batch
    /// allocates nothing for it).
    pub fn clear_ops(&mut self) {
        self.ops.clear();
    }

    /// Records one call of op `name`, begun at `start`, that cost `cost`:
    /// into the global `sparse::metrics` totals and into the op's row.
    fn record(&mut self, name: &'static str, start: Instant, cost: Cost) {
        cost.record();
        let row = OpRow {
            name,
            calls: 1,
            bytes: cost.bytes,
            flops: cost.flops,
            spmm_calls: cost.spmm_calls,
            time: start.elapsed(),
        };
        OpRow::tally(&mut self.ops, &row);
    }

    /// Clears the tape, recycling every node's value and gradient buffer
    /// into the arena. The per-op table stays.
    ///
    /// This is the steady-state entry point: call it at the top of each
    /// mini-batch instead of constructing a fresh `Graph`, and the batch's
    /// identical tape shape is served entirely from recycled buffers.
    ///
    /// Every [`Var`] handed out before the reset is **invalidated** (`Var`
    /// is a plain tape index): using one afterwards indexes whatever node
    /// the next batch records at that position, or panics if the new tape
    /// is shorter. Read everything you need (loss values, gradients)
    /// before resetting — exactly as you would before dropping a
    /// per-batch graph.
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            self.arena.reclaim(node.value);
            if let Some(grad) = node.grad {
                self.arena.reclaim(grad);
            }
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrows the forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Borrows the gradient of a node, if backward has reached it.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
        });
        Var(self.nodes.len() - 1)
    }

    /// Records a constant input (gradients are tracked but go nowhere).
    pub fn input(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Input)
    }

    /// Records a constant input copied out of a slice, drawing the buffer
    /// from the arena — the allocation-free analog of [`Graph::input`] for
    /// per-batch constants (e.g. triple weights) that recur every epoch.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn input_from_slice(&mut self, rows: usize, cols: usize, data: &[f32]) -> Var {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        let mut t = Tensor::uninit_in(&mut self.arena, rows, cols);
        t.as_mut_slice().copy_from_slice(data);
        self.push(t, Op::Input)
    }

    /// Gathers rows `indices` of parameter `param`: `out[i] = P[indices[i]]`.
    ///
    /// Backward is a scatter-add into the parameter gradient — the
    /// fine-grained path the paper identifies as the training bottleneck.
    /// Callers that gather the same index list every epoch should pass an
    /// `Arc<Vec<u32>>` to avoid re-copying it per batch.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds for the parameter.
    pub fn gather(
        &mut self,
        store: &ParamStore,
        param: ParamId,
        indices: impl Into<Arc<Vec<u32>>>,
    ) -> Var {
        let start = Instant::now();
        let indices: Arc<Vec<u32>> = indices.into();
        // Resident or paged alike: a paged table was paged in for this
        // batch's index lists up front.
        let table = store.table(param);
        let d = table.cols();
        let mut out = Tensor::uninit_in(&mut self.arena, indices.len(), d);
        let idx = &indices;
        self.pool
            .for_rows(out.as_mut_slice(), d.max(1), 64, |first, chunk| {
                for (k, dst) in chunk.chunks_exact_mut(d.max(1)).enumerate() {
                    dst.copy_from_slice(table.row(idx[first + k] as usize));
                }
            });
        let bytes = 2 * (indices.len() * d * 4) as u64;
        let cost = Cost {
            bytes,
            ..Cost::default()
        };
        self.record("op::gather", start, cost);
        self.push(out, Op::Gather { param, indices })
    }

    /// Multiplies an incidence pair's matrix by parameter `param`:
    /// `out = A · P`. Backward: `P.grad += Aᵀ · out.grad` (Appendix G).
    ///
    /// # Panics
    ///
    /// Panics if `A.cols() != P.rows()`.
    pub fn spmm(&mut self, store: &ParamStore, param: ParamId, pair: Arc<IncidencePair>) -> Var {
        let start = Instant::now();
        // `table` serves both residency modes: a resident parameter reads
        // rows directly, a paged one reads its pinned cache through the
        // row→slot map (every incidence column was paged in up front).
        let table = store.table(param);
        // The kernel overwrites every output row, so the buffer can come
        // back from the arena unscrubbed (no redundant zero-fill).
        let mut out = Tensor::uninit_in(&mut self.arena, pair.forward.rows(), table.cols());
        let cost = csr_spmm_into_with(&self.pool, &pair.forward, table, out.as_mut_slice());
        self.record("op::spmm", start, cost);
        self.push(out, Op::Spmm { param, pair })
    }

    /// Fused gather+distance: computes the `(m, 1)` per-row score
    /// `out[i] = score(A[i,:] · P)` in a single pass, never materializing
    /// the `m × d` SpMM intermediate — the pack-indices-then-single-pass
    /// shape of the paper's hot path.
    ///
    /// Bit-identical to `spmm` followed by [`Graph::score_rows`]: each
    /// batch row's operand rows are read once, a stack tile of the product
    /// is evaluated by the same [`spmm_row`] kernel, and the terms are
    /// folded from `0.0` in column order — the same arithmetic the
    /// materialized pipeline performs. Both the forward and the backward's
    /// re-derive prefetch the operand rows of the batch row
    /// [`xparallel::PREFETCH_DISTANCE`] ahead of the one they compute (a
    /// hint: no bits move). When the tape's fused flag is off
    /// this *records* that two-op pipeline instead.
    ///
    /// Backward (fused arm) is two passes. A batch-row-parallel pass
    /// re-derives each row's product once and stores the score derivative
    /// `g_i · score'(x_{i,j})` in one arena-recycled `m × d` buffer; then
    /// that buffer is pushed through the forward rows like the SpMM
    /// backward, each parameter gradient row owned by exactly one worker and
    /// accumulating `aval · dx[i, :]` in batch order, so training stays
    /// bit-identical at any pool width.
    ///
    /// # Panics
    ///
    /// Panics if `A.cols() != P.rows()`.
    pub fn spmm_score(
        &mut self,
        store: &ParamStore,
        param: ParamId,
        pair: Arc<IncidencePair>,
        score: RowScore,
    ) -> Var {
        if !self.fused {
            let x = self.spmm(store, param, pair);
            return self.score_rows(x, score);
        }
        let start = Instant::now();
        let view = store.table(param);
        assert_eq!(pair.forward.cols(), view.rows(), "incidence width mismatch");
        let (d, m) = (view.cols(), pair.forward.rows());
        let mut out = Tensor::uninit_in(&mut self.arena, m, 1);
        self.pool
            .for_rows(out.as_mut_slice(), 1, 128, |first, chunk| {
                let mut tile = [0.0f32; SCORE_TILE];
                for (k, dst) in chunk.iter_mut().enumerate() {
                    let i = first + k;
                    prefetch_operands(&pair.forward, &view, i + PREFETCH_DISTANCE);
                    let (cols, vals) = pair.forward.row_entries(i);
                    *dst = score.fold_row(d, &mut tile, |t0, x| spmm_row(cols, vals, &view, t0, x));
                }
            });
        // One SpMM's worth of reads plus the reduction's flops, but the
        // output write shrinks from m·d to m — the traffic the fusion
        // eliminates, visible in the per-kernel counter report.
        let nnz = pair.forward.nnz() as u64;
        let cost = Cost {
            flops: spmm_flops(&pair.forward, d) + 2 * (m * d) as u64,
            bytes: nnz * 8 + nnz * d as u64 * 4 + m as u64 * 4,
            spmm_calls: 1,
        };
        self.record("op::spmm_score", start, cost);
        self.push(out, Op::SpmmScore { param, pair, score })
    }

    /// Fused TransH score: the `(m, 1)` column
    /// `out[i] = score(x − (wᵣ·x) wᵣ + dᵣ)` with `x = A[i,:] · E`, `r =
    /// rels[i]` and `[normals, translations] = planes` the `(R, d)` tables of
    /// `wᵣ` and `dᵣ` — the paper's rearranged hyperplane expression over one
    /// `ht` SpMM (§4.5), in one pass that stores no `m × d` node.
    ///
    /// Bit-identical to the eight-op chain it replaces, which the tape
    /// records instead when its fused flag is off: `spmm`, a `gather` of
    /// `wᵣ` and of `dᵣ`, `row_dot`, `scale_rows`, `sub`, `add` and
    /// [`Graph::score_rows`]. Per batch row the forward re-derives `x` with
    /// [`spmm_row`], folds `dot = wᵣ·x` from `0.0` in column order (the row
    /// dot's fold), forms each `(x_j − w_j·dot) + d_j` (the chain's
    /// association) and folds its terms as the norm does, four rows at a
    /// time. The relation rows are read through [`ParamStore::table`], so a
    /// paged table works as it does for the gathers.
    ///
    /// Backward is two passes, as [`Graph::spmm_score`]'s. A
    /// batch-row-parallel pass re-derives each row and writes the three
    /// gradients the chain's backward arms would push — `x`'s, `wᵣ`'s and
    /// `dᵣ`'s, each accumulated in the chain's order — into one
    /// arena-recycled `m × 3d` buffer. Then `x`'s is pushed through the
    /// forward rows into `E`'s gradient, and `wᵣ`'s and `dᵣ`'s are scattered
    /// by `rels` in ascending batch row, as the gather backward does.
    ///
    /// Counters (`d` wide rows, `nnz` incidence entries, `s` the SpMM's
    /// flops): forward `s + 7md` flops — the dot, the expression and the
    /// norm, what the chain's ops count — and `8·nnz + 4·nnz·d + 8md + 4m`
    /// bytes (index+value, operand lanes, the two relation rows, the score).
    /// Backward: `s + c + (15 + k)md` flops, where `c` is the SpMM
    /// backward's count and `k` the norm derivative's flops per element (2
    /// for L2, else 1), and `8·nnz + 16·nnz·d + 44md` bytes (the re-derive's
    /// operand and relation rows, the three gradients written, and the
    /// three scatters' lanes). One SpMM call each way.
    ///
    /// # Panics
    ///
    /// Panics if `A.cols()` is not `E`'s row count, `rels` is not one
    /// relation per batch row, a table is not `d` wide, or a relation is not
    /// a row of `planes`.
    pub fn hyperplane_score(
        &mut self,
        store: &ParamStore,
        ent: ParamId,
        pair: Arc<IncidencePair>,
        planes: [ParamId; 2],
        rels: Arc<Vec<u32>>,
        score: RowScore,
    ) -> Var {
        let [normals, translations] = planes;
        if !self.fused {
            let ht = self.spmm(store, ent, pair);
            let w = self.gather(store, normals, rels.clone());
            let dr = self.gather(store, translations, rels);
            let dot = self.row_dot(w, ht);
            let proj = self.scale_rows(w, dot);
            let perp = self.sub(ht, proj);
            let expr = self.add(perp, dr);
            return self.score_rows(expr, score);
        }
        let start = Instant::now();
        let h = Hyperplane::new(store, ent, &pair, planes, &rels);
        let (m, d) = (rels.len(), h.d);
        let mut out = Tensor::uninit_in(&mut self.arena, m, 1);
        // Each chunk re-derives its rows' `x` into rows of its own scratch.
        let mut xs = Tensor::uninit_in(&mut self.arena, self.pool.width(), HYPERPLANE_ROWS * d);
        self.pool.for_rows_with_scratch(
            out.as_mut_slice(),
            1,
            128,
            xs.as_mut_slice(),
            |first, chunk, xs| {
                let end = first + chunk.len();
                let mut quads = chunk.chunks_exact_mut(HYPERPLANE_ROWS);
                for (i, dst) in (first..).step_by(HYPERPLANE_ROWS).zip(&mut quads) {
                    let rows = split_rows(xs, d);
                    dst.copy_from_slice(&h.scores::<HYPERPLANE_ROWS>(i, rows, score));
                }
                let rest = quads.into_remainder();
                for (i, dst) in (end - rest.len()..).zip(rest) {
                    *dst = h.scores::<1>(i, split_rows(xs, d), score)[0];
                }
            },
        );
        self.arena.reclaim(xs);
        let fwd = &pair.forward;
        let (nnz, md) = (fwd.nnz() as u64, (m * d) as u64);
        let cost = Cost {
            flops: spmm_flops(fwd, d) + 7 * md,
            bytes: nnz * 8 + nnz * d as u64 * 4 + 8 * md + m as u64 * 4,
            spmm_calls: 1,
        };
        self.record("op::hyperplane_score", start, cost);
        let op = Op::HyperplaneScore {
            ent,
            pair,
            planes,
            rels,
            score,
        };
        self.push(out, op)
    }

    /// Elementwise sum of two same-shape nodes (panics on shape mismatch).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.elementwise(Elementwise::Add, a, b)
    }

    /// Elementwise difference of two same-shape nodes (panics on shape
    /// mismatch).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.elementwise(Elementwise::Sub, a, b)
    }

    /// Elementwise product of two same-shape nodes (panics on shape
    /// mismatch).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.elementwise(Elementwise::Mul, a, b)
    }

    /// Scales a node by a constant.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        self.elementwise(Elementwise::Scale(c), a, a)
    }

    /// Per-row dot product: `out[i] = Σ_j a[i,j]·b[i,j]`, shape `(m, 1)` —
    /// TransH's `wᵣᵀ·(h−t)` (panics on shape mismatch).
    pub fn row_dot(&mut self, a: Var, b: Var) -> Var {
        self.elementwise(Elementwise::RowDot, a, b)
    }

    /// Broadcast row scaling: `out[i,:] = mat[i,:] · scale[i]` (panics unless
    /// `scale` is a `(mat.rows, 1)` column).
    pub fn scale_rows(&mut self, mat: Var, scale: Var) -> Var {
        self.elementwise(Elementwise::ScaleRows, mat, scale)
    }

    /// The six methods above: one row walk over the output, each chunk of
    /// rows handed to the kind's own loop. The grain, about 4096 elements,
    /// is the one the per-op loops it replaced dispatched at.
    fn elementwise(&mut self, kind: Elementwise, a: Var, b: Var) -> Var {
        let start = Instant::now();
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        let (m, n) = av.shape();
        let ((bw, ow), grain) = (kind.widths(n), (4096 / n.max(1)).max(1));
        assert_eq!(bv.shape(), (m, bw), "elementwise operands do not fit");
        let mut out = Tensor::uninit_in(&mut self.arena, m, ow);
        let (ad, bd) = (av.as_slice(), bv.as_slice());
        let w = ow.max(1);
        self.pool.for_rows(out.as_mut_slice(), w, grain, |i, out| {
            kind.forward(n, &ad[i * n..], &bd[i * bw..], out);
        });
        // One flop per element; the row dot's add and multiply are two.
        let per_element = if kind == Elementwise::RowDot { 2 } else { 1 };
        let cost = flops(per_element * (m * n) as u64);
        self.record(kind.op_names()[0], start, cost);
        self.push(out, Op::Elementwise { kind, a, b })
    }

    /// Per-row score: `out[i] = score(a[i, :])`, shape `(m, 1)` — the norm
    /// on top of a materialized expression, and the second half of
    /// [`Graph::spmm_score`]'s unfused arm.
    pub fn score_rows(&mut self, a: Var, score: RowScore) -> Var {
        let start = Instant::now();
        let (m, n) = self.value(a).shape();
        let mut out = Tensor::uninit_in(&mut self.arena, m, 1);
        let ad = self.nodes[a.0].value.as_slice();
        self.pool
            .for_rows(out.as_mut_slice(), 1, 256, |first, chunk| {
                let row = |k: usize| &ad[(first + k) * n..(first + k + 1) * n];
                // Four rows per fold, the last one to three one at a time.
                let mut tiles = [[0.0f32; SCORE_TILE]; 4];
                let done = chunk.len() - chunk.len() % 4;
                let mut quads = chunk.chunks_exact_mut(4);
                for (k0, dst) in (0..).step_by(4).zip(&mut quads) {
                    dst.copy_from_slice(&score.fold_rows(n, &mut tiles, |r, t0, x| {
                        x.copy_from_slice(&row(k0 + r)[t0..t0 + x.len()])
                    }));
                }
                for (k, dst) in (done..).zip(quads.into_remainder()) {
                    let row = row(k);
                    *dst = score.fold_row(n, &mut tiles[0], |t0, x| {
                        x.copy_from_slice(&row[t0..t0 + x.len()])
                    });
                }
            });
        self.record(score.op_names()[0], start, flops(2 * (m * n) as u64));
        self.push(out, Op::ScoreRows { input: a, score })
    }

    /// Per-row relation-specific projection (TransR):
    /// `out[i] = M_{r(i)} · vecs[i]`, where parameter `mats` has shape
    /// `(R, d_out·d_in)` storing each `d_out × d_in` matrix row-major and
    /// `by_rel` is the batch grouped by relation ([`RelationGroups`]).
    ///
    /// The kernels walk the batch **relation by relation**, so each `Mᵣ`
    /// is brought into L1 (and, forward, transposed) once per group instead
    /// of once per batch row, and they vectorize *across* the outputs of a
    /// row, two batch rows per pass over the matrix. Every output element is
    /// still the sum of its products folded from `0.0` in ascending inner
    /// index — what a plain dot-product loop computes — so results do not
    /// depend on the grouping, the tiling, the pairing, the ISA
    /// ([`Graph::set_isa`]) or the pool width. Backward accumulates
    /// `dMᵣ += Σᵢ gᵢ ⊗ vᵢ` over each group in ascending `i`, two outputs per
    /// pass, sharded by destination relation.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent or `by_rel` does not group the
    /// parameter's rows.
    pub fn project_rows(
        &mut self,
        store: &ParamStore,
        mats: ParamId,
        vecs: Var,
        by_rel: Arc<RelationGroups>,
        d_out: usize,
    ) -> Var {
        let start = Instant::now();
        let mv = store.table(mats);
        let (m, d_in) = self.value(vecs).shape();
        assert_eq!(by_rel.rows().len(), m, "one relation per row required");
        let in_range = by_rel.relations().iter().all(|&r| (r as usize) < mv.rows());
        assert!(in_range, "a relation past the parameter's rows");
        assert_eq!(
            mv.cols(),
            d_out * d_in,
            "projection parameter has wrong width"
        );
        let mut out = Tensor::uninit_in(&mut self.arena, m, d_out);
        // One `Mᵣᵀ` per chunk of batch rows, rewritten per relation group.
        let mut mt = Tensor::uninit_in(&mut self.arena, self.pool.width(), d_out * d_in);
        let (vd, isa) = (self.nodes[vecs.0].value.as_slice(), self.isa);
        self.pool.for_rows_with_scratch(
            out.as_mut_slice(),
            d_out.max(1),
            32,
            mt.as_mut_slice(),
            |first, chunk, mt| {
                for_each_group(&by_rel, first, first + chunk.len() / d_out, |r, rows| {
                    // `Mᵣᵀ`, then the group's products against it, in one
                    // dispatch.
                    isa.run(
                        #[inline(always)]
                        || {
                            transpose(mv.row(r), d_out, d_in, mt);
                            group_times_matrix(rows, vd, mt, first, chunk, d_out);
                        },
                    );
                });
            },
        );
        self.arena.reclaim(mt);
        let groups = by_rel.relations().len();
        let cost = Cost {
            flops: 2 * (m * d_out * d_in) as u64,
            // Each group's matrix once, each row's vector in and projection
            // out.
            bytes: 4 * (groups * d_out * d_in + m * (d_in + d_out)) as u64,
            spmm_calls: 0,
        };
        self.record("op::project_rows", start, cost);
        self.push(
            out,
            Op::ProjectRows {
                mats,
                vecs,
                by_rel,
                d_out,
                d_in,
            },
        )
    }

    /// Margin ranking loss over `(m,1)` positive/negative score columns:
    /// `loss = mean(max(0, margin + pos − neg))`.
    ///
    /// Distance scores: positives should be *smaller* than negatives. A NaN
    /// hinge term makes the loss NaN (a diverged batch must not read 0).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ or are not columns.
    pub fn margin_ranking_loss(&mut self, pos: Var, neg: Var, margin: f32) -> Var {
        let start = Instant::now();
        let (pv, nv) = (self.value(pos), self.value(neg));
        assert_eq!(pv.shape(), nv.shape(), "margin loss operands must match");
        assert_eq!(pv.cols(), 1, "scores must be (m,1) columns");
        let m = pv.rows();
        let (pd, nd) = (pv.as_slice(), nv.as_slice());
        // Fixed-size chunks folded in order: the f64 association depends only
        // on `m`, never on the pool width (determinism contract).
        let acc = self.pool.map_reduce_fixed(
            m,
            REDUCE_CHUNK,
            0.0f64,
            |r| {
                let mut part = 0.0f64;
                for i in r {
                    // `f32::max` drops a NaN operand; a NaN score must
                    // reach the loss instead of hinging to 0.
                    let h = margin + pd[i] - nd[i];
                    part += f64::from(if h.is_nan() { h } else { h.max(0.0) });
                }
                part
            },
            |x, y| x + y,
        );
        let loss = if m == 0 { 0.0 } else { (acc / m as f64) as f32 };
        self.record("op::margin_loss", start, flops(3 * m as u64));
        let mut t = Tensor::uninit_in(&mut self.arena, 1, 1);
        t.set(0, 0, loss);
        self.push(t, Op::MarginRankingLoss { pos, neg, margin })
    }

    /// Mean over all elements, shape `(1,1)`.
    pub fn mean(&mut self, a: Var) -> Var {
        let av = self.value(a);
        let len = av.len();
        let ad = av.as_slice();
        let sum = self.pool.map_reduce_fixed(
            len,
            REDUCE_CHUNK,
            0.0f64,
            |r| ad[r].iter().map(|&x| f64::from(x)).sum::<f64>(),
            |x, y| x + y,
        );
        let mean = if len == 0 {
            0.0
        } else {
            (sum / len as f64) as f32
        };
        let mut v = Tensor::uninit_in(&mut self.arena, 1, 1);
        v.set(0, 0, mean);
        self.push(v, Op::Mean(a))
    }

    /// Semiring score (paper Appendix D): the `(m, 1)` column
    /// `out[i] = Σⱼ term(hⱼ, rⱼ, tⱼ)` over the lanes of the three rows of
    /// `param` that row `i` of the `hrt` incidence matrix names, under
    /// `kind` — DistMult's `h·r·t` and ComplEx's `Re(h·r·t̄)` (similarities:
    /// negate, e.g. [`Graph::scale`] by `−1`, before a distance-based loss)
    /// or RotatE's `|h·r − t|` (a distance). The complex kinds read the
    /// parameter's columns as interleaved `(re, im)` pairs and need the
    /// signed matrix; a self-loop row (`h == t`, two stored entries) scores
    /// its entity row in both roles.
    ///
    /// Forward is [`semiring_spmm_into_with`] over the forward matrix.
    /// Backward pushes each triple through its forward row: decoded once,
    /// its three operand rows read once through the store's table view,
    /// then `g_i · ∂term/∂operand` added into each operand's gradient row,
    /// lanes in `[head, relation, tail]` order. Each gradient row is owned
    /// by one worker and receives its triples in batch order — so the op is
    /// bit-identical at any pool width and for a resident or a paged table.
    ///
    /// # Panics
    ///
    /// Panics if the incidence width differs from the parameter's row
    /// count, the parameter is not a whole number of lanes wide, or a row
    /// is not an `hrt` row ([`Semiring::decode`]).
    pub fn semiring_score(
        &mut self,
        store: &ParamStore,
        param: ParamId,
        pair: Arc<IncidencePair>,
        kind: Semiring,
    ) -> Var {
        let start = Instant::now();
        let mut out = Tensor::uninit_in(&mut self.arena, pair.forward.rows(), 1);
        let table = store.table(param);
        let cost =
            semiring_spmm_into_with(&self.pool, kind, &pair.forward, table, out.as_mut_slice());
        self.record("op::semiring_score", start, cost);
        self.push(out, Op::SemiringScore { param, pair, kind })
    }

    /// Runs reverse-mode differentiation from scalar node `loss`.
    ///
    /// Node gradients are materialized on the tape (available via
    /// [`Graph::grad`]); parameter gradients **accumulate** into `store`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a `(1,1)` scalar node.
    pub fn backward(&mut self, loss: Var, store: &mut ParamStore) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward requires a scalar loss node"
        );
        let mut seed = Tensor::uninit_in(&mut self.arena, 1, 1);
        seed.set(0, 0, 1.0);
        self.nodes[loss.0].grad = Some(seed);
        for i in (0..self.nodes.len()).rev() {
            let Some(g) = self.nodes[i].grad.take() else {
                continue;
            };
            self.backward_node(i, &g, store);
            // Re-install so callers can inspect intermediate gradients.
            self.nodes[i].grad = Some(g);
        }
    }

    /// Runs node `i`'s backward arm and records it as one call of the op's
    /// `_backward` row.
    fn backward_node(&mut self, i: usize, g: &Tensor, store: &mut ParamStore) {
        let start = Instant::now();
        // Compute input deltas immutably, then accumulate. All input nodes
        // have indices < i by construction. The op is cloned out of the node
        // (cheap: `Copy` fields plus `Arc`s) so `self` stays borrowable.
        let op = self.nodes[i].op.clone();
        let (name, cost) = match op {
            Op::Input => return,
            Op::Gather { param, indices } => {
                let (slot, grad, _) = store.touched_grads(param, &indices);
                scatter(&self.pool, grad, slot, g.view(), index_rows(&indices));
                (
                    "op::gather_backward",
                    rows_scatter_cost(indices.len(), g.cols()),
                )
            }
            Op::Spmm { param, pair } => {
                // grad += Aᵀ · g, accumulated in place: untouched parameter
                // rows cost nothing (Appendix G, without the dense delta).
                let fwd = &pair.forward;
                let (slot, grad, _) = store.touched_grads(param, pair.touched_columns());
                scatter(&self.pool, grad, slot, g.view(), |i| fwd.row_entries(i));
                ("op::spmm_backward", csr_scatter_cost(fwd, g.cols()))
            }
            Op::SpmmScore { param, pair, score } => {
                let fwd = &pair.forward;
                let (m, nnz, d) = (fwd.rows(), fwd.nnz() as u64, store.param_shape(param).1);
                let mut dx = Tensor::uninit_in(&mut self.arena, m, d);
                if d > 0 {
                    // Pass 1, batch-row-parallel: `dx[i, j] = g_i ·
                    // score'(x_{i,j})` with `x_i = A[i,:] · P` re-derived
                    // once per row (operand rows read once) instead of
                    // materialized by the forward. The leading `0.0 + …`
                    // replicates the unfused pipeline's node-gradient
                    // accumulate (which canonicalizes `-0.0` to `+0.0`),
                    // keeping the arms bit-identical. Rows with `g_i == 0`
                    // are not skipped: `0 · inf` must stay `NaN`.
                    // The stored (m,1) score column `nd` feeds the L2
                    // backward's division, exactly like the standalone norm op.
                    let (gd, nd) = (g.as_slice(), self.nodes[i].value.as_slice());
                    let view = store.table(param);
                    self.pool
                        .for_rows(dx.as_mut_slice(), d, 64, |first, chunk| {
                            for (k, x) in chunk.chunks_exact_mut(d).enumerate() {
                                let ti = first + k;
                                prefetch_operands(fwd, &view, ti + PREFETCH_DISTANCE);
                                let (cols, vals) = fwd.row_entries(ti);
                                spmm_row(cols, vals, &view, 0, x);
                                score.derivs(gd[ti], nd[ti], x);
                            }
                        });
                }
                // Pass 2: the SpMM backward, over `dx`.
                let (slot, grad, _) = store.touched_grads(param, pair.touched_columns());
                scatter(&self.pool, grad, slot, dx.view(), |i| fwd.row_entries(i));
                self.arena.reclaim(dx);
                // What the two passes move: the derivative pass reads one
                // operand lane per nonzero and writes `dx`; the scatter
                // reads index+value and one `dx` lane per nonzero and
                // read-modify-writes one gradient lane per nonzero (the
                // pull's count: the push reads each `dx` row once per batch
                // row, as the SpMM backward's note says).
                let lane = d as u64 * 4;
                let cost = Cost {
                    flops: 4 * nnz * d as u64,
                    bytes: nnz * 8 + 4 * nnz * lane + m as u64 * lane,
                    spmm_calls: 1,
                };
                ("op::spmm_score_backward", cost)
            }
            Op::HyperplaneScore {
                ent,
                pair,
                planes,
                rels,
                score,
            } => {
                let (fwd, [normals, translations]) = (&pair.forward, planes);
                let (m, d) = (rels.len(), store.param_shape(ent).1);
                // Row `i`: `[x's gradient | wᵣ's | dᵣ's]`.
                let mut grads = Tensor::uninit_in(&mut self.arena, m, 3 * d);
                if d > 0 {
                    let (gd, nd) = (g.as_slice(), self.nodes[i].value.as_slice());
                    let h = Hyperplane::new(store, ent, &pair, planes, &rels);
                    self.pool
                        .for_rows(grads.as_mut_slice(), 3 * d, 64, |first, chunk| {
                            let end = first + chunk.len() / (3 * d);
                            let mut quads = chunk.chunks_exact_mut(HYPERPLANE_ROWS * 3 * d);
                            for (i, rows) in (first..).step_by(HYPERPLANE_ROWS).zip(&mut quads) {
                                h.grads::<HYPERPLANE_ROWS>(
                                    i,
                                    split_rows(rows, 3 * d),
                                    gd,
                                    nd,
                                    score,
                                );
                            }
                            let rest = quads.into_remainder();
                            for (i, row) in
                                (end - rest.len() / (3 * d)..).zip(rest.chunks_exact_mut(3 * d))
                            {
                                h.grads::<1>(i, [row], gd, nd, score);
                            }
                        });
                }
                // The chain's gather backwards (`dᵣ`'s, then `wᵣ`'s), then
                // its SpMM backward, each a push in ascending batch row.
                let lanes = |k: usize| {
                    let grads = grads.as_slice();
                    move |i: usize| &grads[(3 * i + k) * d..(3 * i + k + 1) * d]
                };
                for (param, k) in [(translations, 2), (normals, 1)] {
                    let (slot, grad, _) = store.touched_grads(param, &rels);
                    scatter_rows(&self.pool, grad, slot, (m, d), lanes(k), index_rows(&rels));
                }
                let (slot, grad, _) = store.touched_grads(ent, pair.touched_columns());
                scatter_rows(&self.pool, grad, slot, (m, d), lanes(0), |i| {
                    fwd.row_entries(i)
                });
                self.arena.reclaim(grads);
                let scatter = csr_scatter_cost(fwd, d);
                let (nnz, md) = (fwd.nnz() as u64, (m * d) as u64);
                let derivative = if matches!(score, RowScore::L2 { .. }) {
                    2
                } else {
                    1
                };
                let cost = Cost {
                    flops: spmm_flops(fwd, d) + scatter.flops + (15 + derivative) * md,
                    bytes: scatter.bytes + nnz * d as u64 * 4 + 44 * md,
                    spmm_calls: 1,
                };
                ("op::hyperplane_score_backward", cost)
            }
            Op::Elementwise { kind, a, b } => {
                let n = self.nodes[a.0].value.cols();
                let ((bw, gw), grain) = (kind.widths(n), (4096 / n.max(1)).max(1));
                // Operand by operand, straight into its gradient (`Scale`'s
                // second operand is its first again). `a == b` gets both
                // contributions in that order, as two accumulates land them.
                let operands = if matches!(kind, Elementwise::Scale(_)) {
                    1
                } else {
                    2
                };
                let mut n_flops = 0;
                for (slot, v) in [a, b].into_iter().enumerate().take(operands) {
                    let mut grad = self.take_grad(v);
                    let w = grad.cols().max(1);
                    let (ad, bd) = (self.value(a).as_slice(), self.value(b).as_slice());
                    let gd = g.as_slice();
                    self.pool.for_rows(grad.as_mut_slice(), w, grain, |i, dst| {
                        kind.backward(slot, n, &gd[i * gw..], &ad[i * n..], &bd[i * bw..], dst);
                    });
                    n_flops += 2 * grad.len() as u64;
                    self.nodes[v.0].grad = Some(grad);
                }
                (kind.op_names()[1], flops(n_flops))
            }
            Op::ScoreRows { input, score } => {
                let (m, n) = self.nodes[input.0].value.shape();
                let mut da = Tensor::uninit_in(&mut self.arena, m, n);
                let (ad, gd) = (self.value(input).as_slice(), g.as_slice());
                let nd = self.nodes[i].value.as_slice();
                self.pool
                    .for_rows(da.as_mut_slice(), n.max(1), 64, |first, chunk| {
                        for (k, x) in chunk.chunks_exact_mut(n.max(1)).enumerate() {
                            let r = first + k;
                            x.copy_from_slice(&ad[r * n..(r + 1) * n]);
                            score.derivs(gd[r], nd[r], x);
                        }
                    });
                // One multiply per element; `L2` also divides.
                let per_element = if matches!(score, RowScore::L2 { .. }) {
                    2
                } else {
                    1
                };
                let accum_flops = self.accum(input, &da, 1.0);
                self.arena.reclaim(da);
                let n_flops = per_element * (m * n) as u64 + accum_flops;
                (score.op_names()[1], flops(n_flops))
            }
            Op::ProjectRows {
                mats,
                vecs,
                by_rel,
                d_out,
                d_in,
            } => {
                let (m, gd, pool, isa) = (g.rows(), g.as_slice(), &self.pool, self.isa);
                // d vecs[i] = M_{r}ᵀ · g_i: `g_i` times `Mᵣ` as stored, so no
                // transposed copy — computed against the parameter table
                // before its gradient is borrowed mutably.
                let mut dv = Tensor::uninit_in(&mut self.arena, m, d_in);
                let mv = store.table(mats);
                pool.for_rows(dv.as_mut_slice(), d_in.max(1), 32, |first, chunk| {
                    for_each_group(&by_rel, first, first + chunk.len() / d_in, |r, rows| {
                        project_group(isa, rows, gd, mv.row(r), first, chunk, d_in);
                    });
                });
                // d mats[r] += Σ_i g_i ⊗ vecs[i], each relation group pushed
                // into its matrix's gradient slot.
                let (vd, n) = (self.nodes[vecs.0].value.as_slice(), d_out * d_in);
                let (slot, grad, _) = store.touched_grads(mats, by_rel.relations());
                pool.for_rows(grad, n.max(1), 8, |first, window| {
                    for (r, rows) in by_rel.iter() {
                        if let Some(dm) = row_in(window, first, n, slot(r as usize)) {
                            add_outer_products(isa, rows, gd, vd, d_out, d_in, dm);
                        }
                    }
                });
                let groups = by_rel.relations().len();
                let accum_flops = self.accum(vecs, &dv, 1.0);
                self.arena.reclaim(dv);
                let cost = Cost {
                    flops: 4 * (m * d_out * d_in) as u64 + accum_flops,
                    // Per group: Mᵣ read, dMᵣ read and written. Per row: `g`
                    // and `v` read by the outer product, `g` read and `dv`
                    // written by the transposed projection.
                    bytes: 4 * (3 * groups * d_out * d_in + m * (2 * d_in + 2 * d_out)) as u64,
                    spmm_calls: 0,
                };
                ("op::project_backward", cost)
            }
            Op::MarginRankingLoss { pos, neg, margin } => {
                let m = self.nodes[pos.0].value.rows();
                let gscale = if m == 0 { 0.0 } else { g.get(0, 0) / m as f32 };
                // `0.0 + ±gscale` is what accumulating into a fresh (zeroed)
                // gradient writes (`-0.0` becomes `+0.0`), so installing the
                // seeds (fused arm, both gradients fresh) is bit-identical.
                let install = self.fused
                    && pos != neg
                    && self.nodes[pos.0].grad.is_none()
                    && self.nodes[neg.0].grad.is_none();
                let mut n_flops = 0;
                for (v, seed) in [(pos, 0.0 + gscale), (neg, 0.0 + (-gscale))] {
                    // Only active rows are written: inactive ones stay 0.
                    let mut d = Tensor::zeros_in(&mut self.arena, m, 1);
                    let (pd, nd) = (self.value(pos).as_slice(), self.value(neg).as_slice());
                    self.pool.for_mut(d.as_mut_slice(), 256, |offset, chunk| {
                        for (k, d) in chunk.iter_mut().enumerate() {
                            let r = offset + k;
                            if margin + pd[r] - nd[r] > 0.0 {
                                *d = seed;
                            }
                        }
                    });
                    if install {
                        self.nodes[v.0].grad = Some(d);
                    } else {
                        n_flops += self.accum(v, &d, 1.0);
                        self.arena.reclaim(d);
                    }
                }
                ("op::margin_loss_backward", flops(n_flops))
            }
            Op::Mean(a) => {
                let (m, n) = self.value(a).shape();
                let mut da = Tensor::uninit_in(&mut self.arena, m, n);
                da.as_mut_slice().fill(g.get(0, 0) / (m * n).max(1) as f32);
                let accum_flops = self.accum(a, &da, 1.0);
                self.arena.reclaim(da);
                ("op::mean_backward", flops(accum_flops))
            }
            Op::SemiringScore { param, pair, kind } => {
                let (fwd, gd, d) = (&pair.forward, g.as_slice(), store.param_shape(param).1);
                let (slot, grad, table) = store.touched_grads(param, pair.touched_columns());
                let pool = &self.pool;
                pool.for_rows(grad, d.max(1), 32, |first, window| {
                    for (i, &gi) in gd.iter().enumerate() {
                        let (cols, vals) = fwd.row_entries(i);
                        let cols = kind.decode(cols, vals);
                        let slots = cols.map(&slot);
                        if slots.iter().all(|&s| row_in(window, first, d, s).is_none()) {
                            continue;
                        }
                        let rows = cols.map(|c| table.row(c));
                        // A self-loop's entity row is the operand of lanes 0
                        // and 2, and takes both, in that order.
                        for (lane, s) in slots.into_iter().enumerate() {
                            if let Some(dst) = row_in(window, first, d, s) {
                                kind.grad_row_acc(lane, gi, rows, dst);
                            }
                        }
                    }
                });
                ("op::semiring_score_backward", kind.pass_cost(fwd, d, true))
            }
        };
        self.record(name, start, cost);
    }

    /// `nodes[v].grad += alpha * delta`; returns the flops that took.
    fn accum(&mut self, v: Var, delta: &Tensor, alpha: f32) -> u64 {
        let mut grad = self.take_grad(v);
        grad.add_scaled_with(&self.pool, delta, alpha);
        self.nodes[v.0].grad = Some(grad);
        2 * delta.len() as u64
    }

    /// Takes `nodes[v].grad` out to accumulate into, drawing a zeroed buffer
    /// from the arena on first touch; the caller puts it back.
    fn take_grad(&mut self, v: Var) -> Tensor {
        let node = &mut self.nodes[v.0];
        let (m, n) = node.value.shape();
        node.grad
            .take()
            .unwrap_or_else(|| Tensor::zeros_in(&mut self.arena, m, n))
    }
}

/// The flops of `A · B` for a `d`-wide `B`: `(nnz − m)·d` additions when
/// every coefficient is `±1`, a multiply and an add per nonzero and lane
/// otherwise.
fn spmm_flops(a: &CsrMatrix, d: usize) -> u64 {
    let (nnz, d) = (a.nnz() as u64, d as u64);
    if a.has_unit_coefficients() {
        nnz.saturating_sub(a.rows() as u64) * d
    } else {
        2 * nnz * d
    }
}

/// Batch rows [`Graph::hyperplane_score`] advances together: its two row
/// folds (the dot and the norm; the dot and the gradient's dot backward)
/// are chains of dependent adds, and four rows make four independent ones.
const HYPERPLANE_ROWS: usize = 4;

/// The first `R` rows, `n` wide, of `buf`.
#[inline(always)]
fn split_rows<const R: usize>(buf: &mut [f32], n: usize) -> [&mut [f32]; R] {
    let mut rest = buf;
    std::array::from_fn(|_| {
        let (row, tail) = std::mem::take(&mut rest).split_at_mut(n);
        rest = tail;
        row
    })
}

/// `Σ_j a[r][j] · b[r][j]` for each of `R` rows, each folded from `0.0` in
/// column order — [`Graph::row_dot`]'s fold, `R` chains at a time.
#[inline(always)]
fn dot_rows<const R: usize>(a: [&[f32]; R], b: [&[f32]; R]) -> [f32; R] {
    let mut acc = [0.0f32; R];
    for j in 0..a[0].len() {
        for ((acc, a), b) in acc.iter_mut().zip(&a).zip(&b) {
            *acc += a[j] * b[j];
        }
    }
    acc
}

/// The operands of [`Graph::hyperplane_score`] as its kernels read them:
/// the incidence rows over the entity table, and each batch row's
/// relation into the normal and translation tables.
struct Hyperplane<'a> {
    a: &'a CsrMatrix,
    ent: DenseView<'a>,
    normals: DenseView<'a>,
    translations: DenseView<'a>,
    rels: &'a [u32],
    d: usize,
}

impl<'a> Hyperplane<'a> {
    fn new(
        store: &'a ParamStore,
        ent: ParamId,
        pair: &'a IncidencePair,
        [normals, translations]: [ParamId; 2],
        rels: &'a [u32],
    ) -> Self {
        let (a, ent) = (&pair.forward, store.table(ent));
        let (normals, translations) = (store.table(normals), store.table(translations));
        let d = ent.cols();
        assert_eq!(a.cols(), ent.rows(), "incidence width mismatch");
        assert_eq!(rels.len(), a.rows(), "one relation per row required");
        assert!(
            normals.cols() == d && translations.cols() == d,
            "hyperplane rows are not {d} wide"
        );
        Self {
            a,
            ent,
            normals,
            translations,
            rels,
            d,
        }
    }

    /// Writes batch row `i`'s `x = A[i,:] · E` into `x` and returns its
    /// relation's `(wᵣ, dᵣ)`. The operand rows of the row
    /// [`PREFETCH_DISTANCE`] ahead are prefetched (a hint: no bits move).
    #[inline(always)]
    fn derive(&self, i: usize, x: &mut [f32]) -> (&'a [f32], &'a [f32]) {
        prefetch_operands(self.a, &self.ent, i + PREFETCH_DISTANCE);
        let (cols, vals) = self.a.row_entries(i);
        spmm_row(cols, vals, &self.ent, 0, x);
        let r = self.rels[i] as usize;
        (self.normals.row(r), self.translations.row(r))
    }

    /// The scores of batch rows `i .. i + R`, each row's `x` re-derived into
    /// `xs[r]`: `dot = wᵣ·x`, then `score` folds `(x_j − w_j·dot) + d_j` —
    /// `row_dot`, `scale_rows`, `sub` and `add`, then the norm.
    #[inline(always)]
    fn scores<const R: usize>(
        &self,
        i: usize,
        mut xs: [&mut [f32]; R],
        score: RowScore,
    ) -> [f32; R] {
        let planes: [_; R] = std::array::from_fn(|r| self.derive(i + r, xs[r]));
        let (w, t) = (planes.map(|(w, _)| w), planes.map(|(_, t)| t));
        let x = xs.each_ref().map(|x| &**x);
        let dot = dot_rows(w, x);
        let mut tiles = [[0.0f32; SCORE_TILE]; R];
        score.fold_rows(self.d, &mut tiles, |r, t0, e| {
            let operands = x[r][t0..].iter().zip(&w[r][t0..]).zip(&t[r][t0..]);
            for (e, ((&x, &w), &t)) in e.iter_mut().zip(operands) {
                *e = (x - w * dot[r]) + t;
            }
        })
    }

    /// The gradients of batch rows `i .. i + R` from their upstream `g` and
    /// stored scores: `rows[r]` (`3d` wide) becomes `[x's | wᵣ's | dᵣ's]`,
    /// element for element what the chain's backward arms leave in the
    /// `ht`, `w` and `dr` node gradients. With `s = 0.0 + g·score'(e)` (the
    /// expression's gradient, which `add` and `sub` pass on unchanged, since
    /// `0.0 + 1.0·s` is `s`) and `p = 0.0 − s` (the projection's, as `sub`
    /// writes it):
    ///
    /// * `dot' = Σ_j p_j·w_j` from `0.0` (`scale_rows`' second operand);
    /// * `wᵣ`: `(0.0 + p_j·dot) + x_j·dot'` — `scale_rows`' contribution,
    ///   then `row_dot`'s;
    /// * `x`: `s_j + w_j·dot'` — `sub`'s, then `row_dot`'s;
    /// * `dᵣ`: `s_j`.
    #[inline(always)]
    fn grads<const R: usize>(
        &self,
        i: usize,
        rows: [&mut [f32]; R],
        g: &[f32],
        scores: &[f32],
        score: RowScore,
    ) {
        let d = self.d;
        let mut rows = rows.map(|row| {
            let (x, rest) = row.split_at_mut(d);
            let (w, t) = rest.split_at_mut(d);
            [x, w, t]
        });
        let planes: [_; R] = std::array::from_fn(|r| self.derive(i + r, rows[r][0]));
        let w = planes.map(|(w, _)| w);
        let dot = dot_rows(w, rows.each_ref().map(|row| &*row[0]));
        for (r, [x, p, s]) in rows.iter_mut().enumerate() {
            let operands = x.iter().zip(w[r]).zip(planes[r].1);
            for (e, ((&x, &w), &t)) in s.iter_mut().zip(operands) {
                *e = (x - w * dot[r]) + t;
            }
            score.derivs(g[i + r], scores[i + r], s);
            for (p, &s) in p.iter_mut().zip(s.iter()) {
                *p = 0.0 - s;
            }
        }
        let dot_grad = dot_rows(rows.each_ref().map(|row| &*row[1]), w);
        for (r, [x, p, s]) in rows.iter_mut().enumerate() {
            let (dot, dot_grad) = (dot[r], dot_grad[r]);
            for (((x, p), &s), &w) in x.iter_mut().zip(p.iter_mut()).zip(s.iter()).zip(w[r]) {
                *p = (0.0 + *p * dot) + *x * dot_grad;
                *x = s + w * dot_grad;
            }
        }
    }
}

/// Entry `k` of an index list as a row of one coefficient-`1` entry: what
/// the gather backward pushes source row `k` through.
fn index_rows<'a>(indices: &'a [u32]) -> impl Fn(usize) -> (&'a [u32], &'a [f32]) + Sync {
    |k| (std::slice::from_ref(&indices[k]), &[1.0][..])
}

/// `dst[indices[k], :] += src[k, :]` — the scatter of paper Figure 1(b).
///
/// It runs the tape's one scatter with coefficient `1` on the global pool,
/// so each destination row receives its updates in index-scan order and
/// the result is bit-identical at any pool width. It adds to the
/// `sparse::metrics` totals what the tape's `op::gather_backward` row
/// charges for the same scatter.
///
/// # Panics
///
/// Panics if `src` is not `indices.len()` rows as wide as `dst`, or an
/// index is not a row of `dst`.
pub fn scatter_add_rows(dst: &mut Tensor, indices: &[u32], src: &Tensor) {
    check_scatter(dst, indices, src, indices.len());
    rows_scatter_cost(indices.len(), src.cols()).record();
    let (pool, dst) = (PoolHandle::global(), dst.as_mut_slice());
    scatter(&pool, dst, |r| r, src.view(), index_rows(indices));
}

/// `dst += Aᵀ · src` (Appendix G): the tape's one scatter fed from the rows
/// of `a`, on the global pool — row `i` of `src`, times each coefficient,
/// added into the rows of `dst` that row `i` of `a` names, so each
/// destination row receives its updates in ascending `i` at any pool width.
/// It adds to the `sparse::metrics` totals what the tape's
/// `op::spmm_backward` row charges for the same scatter.
///
/// # Panics
///
/// Panics if `src` is not `a.rows()` rows as wide as `dst`, or `a` has a
/// column that is not a row of `dst`.
pub fn scatter_add_csr(dst: &mut Tensor, a: &CsrMatrix, src: &Tensor) {
    check_scatter(dst, a.indices(), src, a.rows());
    csr_scatter_cost(a, src.cols()).record();
    let (pool, dst) = (PoolHandle::global(), dst.as_mut_slice());
    scatter(&pool, dst, |r| r, src.view(), |i| a.row_entries(i));
}

/// The public scatters' checks: `src` is `src_rows` rows as wide as `dst`,
/// and every index is a row of `dst`.
fn check_scatter(dst: &Tensor, indices: &[u32], src: &Tensor, src_rows: usize) {
    let (rows, cols) = dst.shape();
    assert_eq!(src.shape(), (src_rows, cols), "scatter source shape");
    if let Some(r) = indices.iter().find(|&&r| r as usize >= rows) {
        panic!("scatter index {r} out of bounds for {rows} rows");
    }
}

/// **The scatter** of paper Figure 1(b), with a coefficient: for every row
/// `i` of `src`, ascending, resolved once, and every entry `(c, v)` of
/// `entries(i)`, `dst[slot(c), :] += v · src[i, :]` through the accumulate
/// of `Aᵀ · G`, [`axpy`]. With `entries` the rows of a forward incidence matrix
/// this is the SpMM backward pushed through `A`; with one `1.0` per row it
/// is the gather baseline's scatter-add, exactly (`1.0 · x == x`). The two
/// arms differ only in the rows they scatter.
///
/// Every entry's slot must be a row of `dst` (callers touch their columns
/// first). It is a push ([`row_in`]): each destination row receives its
/// contributions in ascending `i` at any pool width.
fn scatter<'e>(
    pool: &PoolHandle,
    dst: &mut [f32],
    slot: impl Fn(usize) -> usize + Sync,
    src: DenseView<'_>,
    entries: impl Fn(usize) -> (&'e [u32], &'e [f32]) + Sync,
) {
    let shape = (src.rows(), src.cols());
    scatter_rows(pool, dst, slot, shape, |i| src.row(i), entries);
}

/// [`scatter`] from `rows` source rows `n` wide, row `i` being `src(i)`: a
/// source that is not one row-major table (a strip of a wider buffer).
fn scatter_rows<'e, 's>(
    pool: &PoolHandle,
    dst: &mut [f32],
    slot: impl Fn(usize) -> usize + Sync,
    (rows, n): (usize, usize),
    src: impl Fn(usize) -> &'s [f32] + Sync,
    entries: impl Fn(usize) -> (&'e [u32], &'e [f32]) + Sync,
) {
    pool.for_rows(dst, n.max(1), 128, |first, window| {
        for i in 0..rows {
            let ((cols, vals), row) = (entries(i), src(i));
            for (&c, &v) in cols.iter().zip(vals) {
                if let Some(dst) = row_in(window, first, n, slot(c as usize)) {
                    axpy(v, row, dst);
                }
            }
        }
    });
}

/// What [`scatter`] costs with one coefficient-`1` entry per source row
/// (the gather backward, [`scatter_add_rows`]): per element of the `rows × n`
/// source, one add, and the source lane read plus the gradient lane read and
/// written.
fn rows_scatter_cost(rows: usize, n: usize) -> Cost {
    Cost {
        flops: (rows * n) as u64,
        bytes: 3 * (rows * n * 4) as u64,
        spmm_calls: 0,
    }
}

/// What [`scatter`] costs fed from the rows of `a` with `n`-wide source rows
/// (the SpMM backward, [`scatter_add_csr`]). Accumulation makes every ±1
/// nonzero one add. Per nonzero: index+value, one row of the source, and the
/// gradient row read *and* written. The formula is the pull's, which
/// gathered a source row per nonzero; the push reads each source row once
/// per row of `a`, `(nnz − m) · n · 4` bytes fewer.
fn csr_scatter_cost(a: &CsrMatrix, n: usize) -> Cost {
    let (nnz, n) = (a.nnz() as u64, n as u64);
    let per_nnz = if a.has_unit_coefficients() { 1 } else { 2 };
    Cost {
        flops: per_nnz * nnz * n,
        bytes: nnz * 8 + 3 * nnz * n * 4,
        spmm_calls: 1,
    }
}

/// Row `s` of the `n`-wide rows that `window` holds from row `first` on,
/// if it holds it — how **the push** every sparse backward runs finds its
/// destination rows.
///
/// A push splits the gradient slots into disjoint windows, one per worker
/// ([`PoolHandle::for_rows`]); every worker scans the whole batch in
/// order and writes only the rows its window holds. Each destination row is
/// therefore written by one worker and receives its contributions in the
/// scan's order, at any pool width. A zero-width buffer (`n == 0`) is
/// walked with stride 1, and every row it "holds" is empty.
fn row_in(window: &mut [f32], first: usize, n: usize, s: usize) -> Option<&mut [f32]> {
    window
        .get_mut(s.wrapping_sub(first).checked_mul(n)?..)?
        .get_mut(..n)
}

/// Outputs the projection kernels accumulate at a time, per row: two rows'
/// tiles are eight AVX2 registers (eight independent add chains, enough to
/// keep both FP ports busy through the add latency) or sixteen SSE ones.
const PROJ_TILE: usize = 32;

/// The tile of `out` that starts at column `c0`, as an array.
#[inline(always)]
fn tile_mut(out: &mut [f32], c0: usize) -> &mut [f32; PROJ_TILE] {
    (&mut out[c0..c0 + PROJ_TILE])
        .try_into()
        .expect("tile is PROJ_TILE wide")
}

/// The tile of `x` that starts at column `c0`, as an array.
#[inline(always)]
fn tile(x: &[f32], c0: usize) -> &[f32; PROJ_TILE] {
    x[c0..c0 + PROJ_TILE]
        .try_into()
        .expect("tile is PROJ_TILE wide")
}

/// `acc[c] += x · b[c]` for one tile: `PROJ_TILE` independent sums.
#[inline(always)]
fn add_scaled(acc: &mut [f32; PROJ_TILE], b: &[f32; PROJ_TILE], x: f32) {
    for (s, &bv) in acc.iter_mut().zip(b) {
        *s += bv * x;
    }
}

/// `out[c] = Σ_p a[p] · b[p, c]` for a row-major `a.len() × out.len()` matrix
/// `b`, every sum folded from `0.0` in ascending `p` — per element, exactly
/// the dot-product loop `acc = 0.0; for p { acc += b[p, c] * a[p] }`. The
/// loops are interchanged so that the `p`-th step is one contiguous row of
/// `b` scaled by a scalar: `PROJ_TILE` independent sums advance together.
/// Always inlined, so it is compiled into its caller's [`Isa::run`]
/// trampoline.
#[inline(always)]
fn row_times_matrix(a: &[f32], b: &[f32], out: &mut [f32]) {
    let n = out.len();
    debug_assert_eq!(b.len(), a.len() * n);
    let full = n - n % PROJ_TILE;
    for c0 in (0..full).step_by(PROJ_TILE) {
        let mut acc = [0.0f32; PROJ_TILE];
        for (&ap, brow) in a.iter().zip(b.chunks_exact(n)) {
            add_scaled(&mut acc, tile(brow, c0), ap);
        }
        *tile_mut(out, c0) = acc;
    }
    tail_times_matrix(a, b, out, full);
}

/// [`row_times_matrix`] of two rows at once, bit for bit: each tile of `b`
/// is loaded once for both rows, and `2 × PROJ_TILE` independent sums
/// advance together. The two accumulators are two named tiles, not one
/// `[[f32; PROJ_TILE]; 2]`: the compiler keeps named tiles in registers
/// through the trampoline, but left the array's tiles on the stack.
#[inline(always)]
fn two_rows_times_matrix(a: [&[f32]; 2], b: &[f32], out: [&mut [f32]; 2]) {
    let ([a0, a1], [o0, o1]) = (a, out);
    let n = o0.len();
    debug_assert!(b.len() == a0.len() * n && a1.len() == a0.len() && o1.len() == n);
    let full = n - n % PROJ_TILE;
    for c0 in (0..full).step_by(PROJ_TILE) {
        let (mut acc0, mut acc1) = ([0.0f32; PROJ_TILE], [0.0f32; PROJ_TILE]);
        for ((&x0, &x1), brow) in a0.iter().zip(a1).zip(b.chunks_exact(n)) {
            let btile = tile(brow, c0);
            add_scaled(&mut acc0, btile, x0);
            add_scaled(&mut acc1, btile, x1);
        }
        *tile_mut(o0, c0) = acc0;
        *tile_mut(o1, c0) = acc1;
    }
    tail_times_matrix(a0, b, o0, full);
    tail_times_matrix(a1, b, o1, full);
}

/// The columns `full..` of [`row_times_matrix`]: the same folds, one
/// element wide.
#[inline(always)]
fn tail_times_matrix(a: &[f32], b: &[f32], out: &mut [f32], full: usize) {
    let n = out.len();
    if full < n {
        let tail = &mut out[full..];
        tail.fill(0.0);
        for (&ap, brow) in a.iter().zip(b.chunks_exact(n)) {
            for (s, &bv) in tail.iter_mut().zip(&brow[full..]) {
                *s += bv * ap;
            }
        }
    }
}

/// Calls `body(r, rows)` for every relation `r` with batch rows inside
/// `first..end`, `rows` being those rows in ascending order — the batch (or
/// one worker's chunk of it) visited relation by relation, so that whatever
/// `body` reads of relation `r` stays in L1 for the whole group.
fn for_each_group(
    by_rel: &RelationGroups,
    first: usize,
    end: usize,
    mut body: impl FnMut(usize, &[u32]),
) {
    for (r, rows) in by_rel.iter() {
        // Relation r's batch rows are ascending: cut the run inside the range.
        let rows = &rows[rows.partition_point(|&i| (i as usize) < first)..];
        let rows = &rows[..rows.partition_point(|&i| (i as usize) < end)];
        if !rows.is_empty() {
            body(r as usize, rows);
        }
    }
}

/// `out[i − first, :] = a[i, :] · b` for each batch row `i` of one relation
/// group, where `b` is that relation's matrix with `n` columns, the width of
/// an `out` row: `Mᵣ` as stored, for the backward projection of `g`. The
/// group is one `isa` dispatch; either twin gives the same bits.
fn project_group(
    isa: Isa,
    rows: &[u32],
    a: &[f32],
    b: &[f32],
    first: usize,
    out: &mut [f32],
    n: usize,
) {
    isa.run(
        #[inline(always)]
        || group_times_matrix(rows, a, b, first, out, n),
    )
}

/// `out[i − first, :] = a[i, :] · b` for each batch row `i` in `rows`, `b`
/// a row-major matrix with `n` columns. The rows go two per pass over `b`,
/// an odd last row alone. Always inlined, so it is compiled into its
/// caller's [`Isa::run`] trampoline.
#[inline(always)]
fn group_times_matrix(rows: &[u32], a: &[f32], b: &[f32], first: usize, out: &mut [f32], n: usize) {
    let depth = b.len() / n;
    let a_row = |i: usize| &a[i * depth..(i + 1) * depth];
    let mut pairs = rows.chunks_exact(2);
    for pair in &mut pairs {
        let (i, k) = (pair[0] as usize, pair[1] as usize);
        // Ascending rows: `k`'s output row lies past `i`'s.
        let (lo, hi) = out.split_at_mut((k - first) * n);
        two_rows_times_matrix(
            [a_row(i), a_row(k)],
            b,
            [&mut lo[(i - first) * n..][..n], &mut hi[..n]],
        );
    }
    if let [i] = *pairs.remainder() {
        let i = i as usize;
        row_times_matrix(a_row(i), b, &mut out[(i - first) * n..(i - first + 1) * n]);
    }
}

/// `dm[o, j] += Σ_i g[i, o] · v[i, j]` over the batch rows `rows` of one
/// relation, `dm` its `d_out × d_in` gradient matrix: every element's sum
/// continues from the stored value in the order of `rows` (ascending `i`,
/// the order a scan over the batch meets them). Two outputs `o` share each
/// pass over the group's rows (an odd last `o` goes alone), so each tile of
/// `v` is loaded once for both; a tile of `dm` is loaded once, accumulated
/// over the whole group in registers and stored once, instead of the matrix
/// being read and rewritten per batch row. The group is one `isa` dispatch;
/// either twin gives the same bits.
fn add_outer_products(
    isa: Isa,
    rows: &[u32],
    g: &[f32],
    v: &[f32],
    d_out: usize,
    d_in: usize,
    dm: &mut [f32],
) {
    if rows.is_empty() || d_in == 0 {
        return;
    }
    isa.run(
        #[inline(always)]
        || {
            let full = d_in - d_in % PROJ_TILE;
            let mut pairs = dm.chunks_exact_mut(2 * d_in);
            for (o, drows) in (0..d_out).step_by(2).zip(&mut pairs) {
                let (d0, d1) = drows.split_at_mut(d_in);
                for j0 in (0..full).step_by(PROJ_TILE) {
                    let (t0, t1) = (tile_mut(d0, j0), tile_mut(d1, j0));
                    let (mut acc0, mut acc1) = (*t0, *t1);
                    for &i in rows {
                        let i = i as usize;
                        let [g0, g1]: [f32; 2] = g[i * d_out + o..i * d_out + o + 2]
                            .try_into()
                            .expect("two outputs");
                        let vtile = tile(v, i * d_in + j0);
                        add_scaled(&mut acc0, vtile, g0);
                        add_scaled(&mut acc1, vtile, g1);
                    }
                    (*t0, *t1) = (acc0, acc1);
                }
                add_outer_tail(d0, o, rows, g, v, d_out, full);
                add_outer_tail(d1, o + 1, rows, g, v, d_out, full);
            }
            let last = pairs.into_remainder();
            if !last.is_empty() {
                let o = d_out - 1;
                for j0 in (0..full).step_by(PROJ_TILE) {
                    let t = tile_mut(last, j0);
                    let mut acc = *t;
                    for &i in rows {
                        let i = i as usize;
                        add_scaled(&mut acc, tile(v, i * d_in + j0), g[i * d_out + o]);
                    }
                    *t = acc;
                }
                add_outer_tail(last, o, rows, g, v, d_out, full);
            }
        },
    )
}

/// The columns `full..` of row `o` of [`add_outer_products`]: the same
/// sums, one element wide.
#[inline(always)]
fn add_outer_tail(
    drow: &mut [f32],
    o: usize,
    rows: &[u32],
    g: &[f32],
    v: &[f32],
    d_out: usize,
    full: usize,
) {
    let d_in = drow.len();
    if full < d_in {
        for &i in rows {
            let i = i as usize;
            let go = g[i * d_out + o];
            let vtail = &v[i * d_in + full..(i + 1) * d_in];
            for (s, &x) in drow[full..].iter_mut().zip(vtail) {
                *s += go * x;
            }
        }
    }
}

/// Source rows per block of [`transpose`]: each column writes a 32-byte run.
const TRANSPOSE_BLOCK: usize = 8;

/// `mt[j·rows + o] = m[o·cols + j]`: the first `rows · cols` floats of `mt`
/// become the transpose of the row-major `rows × cols` matrix `m` — how
/// TransR's forward gets `Mᵣᵀ` for contiguous loads, once per relation
/// group. It takes `TRANSPOSE_BLOCK` source rows at a time, so that each
/// column `j` writes one contiguous run and each block's bounds are checked
/// once; the rows past the last whole block go one at a time. A copy, so
/// no bit depends on where it runs. Always inlined, so the forward compiles
/// it into its group's [`Isa::run`] trampoline; it is eight scalar loads
/// and stores per run at either width, so the store port bounds it, not
/// the lanes.
///
/// # Panics
///
/// Panics if `m` is not `rows · cols` long or `mt` is shorter.
#[inline(always)]
pub fn transpose(m: &[f32], rows: usize, cols: usize, mt: &mut [f32]) {
    assert_eq!(m.len(), rows * cols, "m is not {rows} x {cols}");
    if rows == 0 || cols == 0 {
        return;
    }
    let mt = &mut mt[..rows * cols];
    let full = rows - rows % TRANSPOSE_BLOCK;
    let blocks = m.chunks_exact(TRANSPOSE_BLOCK * cols);
    for (o0, block) in (0..full).step_by(TRANSPOSE_BLOCK).zip(blocks) {
        // Split, not `array::map`: a call the trampoline does not inline
        // would hide each row's length from the loop below.
        let (mut src, mut rest) = ([block; TRANSPOSE_BLOCK], block);
        for row in &mut src {
            (*row, rest) = rest.split_at(cols);
        }
        for (dst, j) in mt.chunks_exact_mut(rows).zip(0..cols) {
            let run: &mut [f32; TRANSPOSE_BLOCK] = (&mut dst[o0..o0 + TRANSPOSE_BLOCK])
                .try_into()
                .expect("run is TRANSPOSE_BLOCK wide");
            for (x, row) in run.iter_mut().zip(&src) {
                *x = row[j];
            }
        }
    }
    for (o, row) in m.chunks_exact(cols).enumerate().skip(full) {
        for (dst, &x) in mt.chunks_exact_mut(rows).zip(row) {
            dst[o] = x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::incidence::{hrt, ht, RelationGroups, TailSign};

    fn store_with(name: &str, t: Tensor) -> (ParamStore, ParamId) {
        let mut s = ParamStore::new();
        let id = s.add_param(name, t);
        (s, id)
    }

    #[test]
    fn gather_forward_and_backward() {
        let (mut store, emb) = store_with(
            "e",
            Tensor::from_rows(&[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
        );
        let mut g = Graph::new();
        let x = g.gather(&store, emb, vec![2, 0, 2]);
        assert_eq!(g.value(x).row(0), &[5.0, 6.0]);
        assert_eq!(g.value(x).row(1), &[1.0, 2.0]);
        let loss = g.mean(x);
        g.backward(loss, &mut store);
        // d mean / d x = 1/6 per element; row 2 gathered twice.
        let grad = store.grad(emb);
        assert!((grad.row(0)[0] - 1.0 / 6.0).abs() < 1e-6);
        assert!((grad.row(1)[0] - 0.0).abs() < 1e-6);
        assert!((grad.row(2)[0] - 2.0 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn spmm_matches_gather_arithmetic() {
        // h + r - t via SpMM should equal the gather/add/sub path.
        let stacked = Tensor::from_rows(&[[1.0, 0.5], [2.0, -1.0], [0.25, 0.25]]); // e0,e1,r0
        let (mut store, emb) = store_with("emb", stacked);
        let pair = Arc::new(IncidencePair::new(
            hrt(2, 1, &[0], &[0], &[1], TailSign::Negative).unwrap(),
        ));
        let mut g = Graph::new();
        let expr = g.spmm(&store, emb, pair);
        assert_eq!(g.value(expr).row(0), &[1.0 + 0.25 - 2.0, 0.5 + 0.25 + 1.0]);
        let loss = g.mean(expr);
        g.backward(loss, &mut store);
        let grad = store.grad(emb);
        // d expr / d e0 = +1, e1 = -1, r0 = +1; mean scale 1/2 per column.
        assert!((grad.row(0)[0] - 0.5).abs() < 1e-6);
        assert!((grad.row(1)[0] + 0.5).abs() < 1e-6);
        assert!((grad.row(2)[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn spmm_and_gather_paths_agree_on_gradients() {
        let data = Tensor::from_rows(&[[0.3, -0.2], [1.5, 0.7], [-0.4, 0.9], [0.1, 0.2]]);
        // Entities 0..3, relation embedded separately in same stacked matrix:
        // treat row 3 as the single relation.
        let heads = vec![0u32, 1];
        let tails = vec![2u32, 0];
        let rels = vec![0u32, 0];

        // Sparse path.
        let (mut s1, p1) = store_with("emb", data.clone());
        let pair = Arc::new(IncidencePair::new(
            hrt(3, 1, &heads, &rels, &tails, TailSign::Negative).unwrap(),
        ));
        let mut g1 = Graph::new();
        let expr1 = g1.spmm(&s1, p1, pair);
        let n1 = g1.score_rows(expr1, RowScore::L2 { eps: 1e-9 });
        let l1 = g1.mean(n1);
        g1.backward(l1, &mut s1);

        // Dense path.
        let (mut s2, p2) = store_with("emb", data);
        let mut g2 = Graph::new();
        let h = g2.gather(&s2, p2, heads.clone());
        let r = g2.gather(&s2, p2, rels.iter().map(|&x| x + 3).collect::<Vec<u32>>());
        let t = g2.gather(&s2, p2, tails.clone());
        let hr = g2.add(h, r);
        let expr2 = g2.sub(hr, t);
        let n2 = g2.score_rows(expr2, RowScore::L2 { eps: 1e-9 });
        let l2 = g2.mean(n2);
        g2.backward(l2, &mut s2);

        assert!((g1.value(l1).get(0, 0) - g2.value(l2).get(0, 0)).abs() < 1e-6);
        let (d1, d2) = (
            Tensor::from_view(s1.grad(p1)),
            Tensor::from_view(s2.grad(p2)),
        );
        for (a, b) in d1.as_slice().iter().zip(d2.as_slice()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn ht_spmm_is_head_minus_tail() {
        let (store, emb) = store_with("e", Tensor::from_rows(&[[1.0], [4.0], [9.0]]));
        let pair = Arc::new(IncidencePair::new(ht(3, &[2], &[0]).unwrap()));
        let mut g = Graph::new();
        let expr = g.spmm(&store, emb, pair);
        assert_eq!(g.value(expr).get(0, 0), 8.0);
    }

    #[test]
    fn margin_loss_forward_and_active_set() {
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        let pos = g.input(Tensor::from_rows(&[[1.0], [5.0]]));
        let neg = g.input(Tensor::from_rows(&[[3.0], [5.2]]));
        // margin 0.5: row 0 -> 0.5 + 1 - 3 < 0 inactive; row 1 -> 0.5 + 5 - 5.2 = 0.3 active.
        let loss = g.margin_ranking_loss(pos, neg, 0.5);
        assert!((g.value(loss).get(0, 0) - 0.15).abs() < 1e-6);
        g.backward(loss, &mut store);
        let gp = g.grad(pos).unwrap();
        assert_eq!(gp.get(0, 0), 0.0);
        assert!((gp.get(1, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn transh_style_composition_runs() {
        // (h - t) + d_r - w (wᵀ(h-t)) through the tape.
        let (mut store, ent) = store_with(
            "ent",
            Tensor::from_rows(&[[0.5, 0.1], [0.2, -0.3], [0.9, 0.4]]),
        );
        let w = store.add_param("w", Tensor::from_rows(&[[0.6, 0.8]]));
        let d = store.add_param("d", Tensor::from_rows(&[[0.05, -0.02]]));
        let pair = Arc::new(IncidencePair::new(ht(3, &[0, 1], &[2, 0]).unwrap()));
        let mut g = Graph::new();
        let htv = g.spmm(&store, ent, pair);
        let wv = g.gather(&store, w, vec![0, 0]);
        let dv = g.gather(&store, d, vec![0, 0]);
        let dot = g.row_dot(wv, htv);
        let proj = g.scale_rows(wv, dot);
        let tmp = g.sub(htv, proj);
        let expr = g.add(tmp, dv);
        let score = g.score_rows(expr, RowScore::L2 { eps: 1e-9 });
        let loss = g.mean(score);
        g.backward(loss, &mut store);
        for p in [ent, w, d] {
            assert!(Tensor::from_view(store.grad(p)).frobenius_norm() > 0.0);
        }
    }

    #[test]
    fn project_rows_forward() {
        let (store, _) = store_with("unused", Tensor::zeros(1, 1));
        let mut s = ParamStore::new();
        // One relation, projecting 2D -> 1D with matrix [2, 3].
        let mats = s.add_param("m", Tensor::from_rows(&[[2.0, 3.0]]));
        let mut g = Graph::new();
        let v = g.input(Tensor::from_rows(&[[1.0, 1.0], [0.5, -1.0]]));
        let by_rel = Arc::new(RelationGroups::new(1, &[0, 0]).unwrap());
        let p = g.project_rows(&s, mats, v, by_rel, 1);
        assert_eq!(g.value(p).get(0, 0), 5.0);
        assert_eq!(g.value(p).get(1, 0), -2.0);
        drop(store);
    }

    /// The projection loops as they were before relation blocking, kept as
    /// the reference the blocked kernels are compared with bit for bit: a
    /// dot product per output element, batch rows in natural order.
    fn naive_project(rels: &[u32], mats: &[f32], v: &[f32], d_out: usize, d_in: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; rels.len() * d_out];
        for (i, dst) in out.chunks_exact_mut(d_out).enumerate() {
            let r = rels[i] as usize;
            let mat = &mats[r * d_out * d_in..(r + 1) * d_out * d_in];
            let vec = &v[i * d_in..(i + 1) * d_in];
            for (o, d) in dst.iter_mut().enumerate() {
                let mrow = &mat[o * d_in..(o + 1) * d_in];
                let mut acc = 0.0;
                for j in 0..d_in {
                    acc += mrow[j] * vec[j];
                }
                *d = acc;
            }
        }
        out
    }

    /// Reference `dv[i] = Mᵣᵀ · g_i`: a strided dot product per element.
    fn naive_project_dv(
        rels: &[u32],
        mats: &[f32],
        g: &[f32],
        d_out: usize,
        d_in: usize,
    ) -> Vec<f32> {
        let mut dv = vec![0.0f32; rels.len() * d_in];
        for (i, dst) in dv.chunks_exact_mut(d_in).enumerate() {
            let r = rels[i] as usize;
            let mat = &mats[r * d_out * d_in..(r + 1) * d_out * d_in];
            for (j, d) in dst.iter_mut().enumerate() {
                let mut acc = 0.0;
                for o in 0..d_out {
                    acc += mat[o * d_in + j] * g[i * d_out + o];
                }
                *d = acc;
            }
        }
        dv
    }

    /// Reference `dm[rels[i]] += g_i ⊗ v_i`: one read-modify-write of the
    /// relation's whole matrix per batch row, in index-scan order.
    fn naive_add_outer(
        rels: &[u32],
        g: &[f32],
        v: &[f32],
        d_out: usize,
        d_in: usize,
        dm: &mut [f32],
    ) {
        let width = d_out * d_in;
        for (i, &rel) in rels.iter().enumerate() {
            let mat = &mut dm[rel as usize * width..(rel as usize + 1) * width];
            for o in 0..d_out {
                let go = g[i * d_out + o];
                let row = &mut mat[o * d_in..(o + 1) * d_in];
                for (j, m) in row.iter_mut().enumerate() {
                    *m += go * v[i * d_in + j];
                }
            }
        }
    }

    /// Bits with every NaN mapped to one pattern: NaN payloads are
    /// unspecified by IEEE 754 (and by LLVM), everything else is exact.
    fn nan_classes(xs: &[f32]) -> Vec<u32> {
        xs.iter()
            .map(|x| if x.is_nan() { 0x7fc0_0000 } else { x.to_bits() })
            .collect()
    }

    /// `(out, dv, dM)` of `mean(w ⊙ project_rows(v))` on the fresh tape `g`,
    /// and the same three from the naive loops fed the tape's own upstream
    /// gradient.
    /// `pre` is the gradient already stored in `dM` (written through
    /// `grad_mut`, so the parameter sweeps all rows; `None` leaves a fresh
    /// listed set).
    #[allow(clippy::type_complexity)]
    fn projection_case(
        mut g: Graph,
        rels: &[u32],
        mats: &Tensor,
        v: &[f32],
        w: &[f32],
        d_out: usize,
        pre: Option<&[f32]>,
    ) -> ([Vec<u32>; 3], [Vec<u32>; 3]) {
        let (m, d_in) = (rels.len(), v.len() / rels.len());
        let (mut store, p) = store_with("mats", mats.clone());
        let mut dm_ref = vec![0.0f32; mats.len()];
        if let Some(pre) = pre {
            store.grad_mut(p).copy_from_slice(pre);
            dm_ref.copy_from_slice(pre);
        }
        let by_rel = Arc::new(RelationGroups::new(mats.rows(), rels).unwrap());
        let x = g.input_from_slice(m, d_in, v);
        let out = g.project_rows(&store, p, x, by_rel, d_out);
        let weights = g.input_from_slice(m, d_out, w);
        let weighted = g.mul(out, weights);
        let loss = g.mean(weighted);
        g.backward(loss, &mut store);

        let upstream = g.grad(out).unwrap().as_slice();
        let dv_ref: Vec<f32> = naive_project_dv(rels, mats.as_slice(), upstream, d_out, d_in)
            .into_iter()
            .map(|x| 0.0 + 1.0 * x) // the node-gradient accumulate
            .collect();
        naive_add_outer(rels, upstream, v, d_out, d_in, &mut dm_ref);
        (
            [
                nan_classes(g.value(out).as_slice()),
                nan_classes(g.grad(x).unwrap().as_slice()),
                nan_classes(Tensor::from_view(store.grad(p)).as_slice()),
            ],
            [
                nan_classes(&naive_project(rels, mats.as_slice(), v, d_out, d_in)),
                nan_classes(&dv_ref),
                nan_classes(&dm_ref),
            ],
        )
    }

    /// Relation lists that stress the grouping: `(name, R, rels)`.
    fn relation_patterns(m: usize) -> Vec<(&'static str, usize, Vec<u32>)> {
        let mut first_and_last: Vec<u32> = (0..m).map(|i| (1 + i % 5) as u32).collect();
        (first_and_last[0], first_and_last[m - 1]) = (0, 0);
        vec![
            ("one relation", 3, vec![1; m]),
            ("all distinct", m, (0..m as u32).rev().collect()),
            (
                "R > m, gaps between used relations",
                3 * m + 2,
                (0..m).map(|i| ((i * 7) % m * 3 + 1) as u32).collect(),
            ),
            ("one relation first and last", 6, first_and_last),
            ("few relations, uneven groups", 4, {
                (0..m).map(|i| (i * i % 7 % 4) as u32).collect()
            }),
        ]
    }

    /// A tape at pool width `width` whose projection kernels run at `isa`.
    fn tape_at(width: usize, isa: Isa) -> Graph {
        let mut g = Graph::with_pool(PoolHandle::global().with_width(width));
        g.set_isa(isa);
        g
    }

    #[test]
    fn blocked_projection_matches_naive_loops_bitwise() {
        // 150 batch rows: four 32-row-minimum chunks on a wide pool, so
        // relation groups straddle chunk boundaries.
        let m = 150;
        let twins = both_twins("blocked_projection_matches_naive_loops_bitwise");
        for (d_out, d_in) in [(1, 1), (3, 7), (16, 16), (31, 33), (32, 64), (65, 17)] {
            let v = lcg_table(m, d_in);
            // Every fourth batch row has zero weight: its `g_i` is all zero.
            let mut w = lcg_table(m, d_out);
            for i in (0..m).step_by(4) {
                w.row_mut(i).fill(0.0);
            }
            for (name, num_rels, rels) in relation_patterns(m) {
                let mats = lcg_table(num_rels, d_out * d_in);
                let pre = lcg_table(num_rels, d_out * d_in);
                for pre in [None, Some(pre.as_slice())] {
                    for (width, &isa) in [1, 4, 8].into_iter().zip(twins.iter().cycle()) {
                        let (got, want) = projection_case(
                            tape_at(width, isa),
                            &rels,
                            &mats,
                            v.as_slice(),
                            w.as_slice(),
                            d_out,
                            pre,
                        );
                        for (what, (got, want)) in ["forward", "dv", "dM"]
                            .into_iter()
                            .zip(got.iter().zip(&want))
                        {
                            assert_eq!(
                                got,
                                want,
                                "{what}: {d_out}x{d_in}, {name}, accumulate {}, width {width}, {isa:?}",
                                pre.is_some()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_projection_keeps_non_finite_operands_and_zero_gradient_rows() {
        let (m, d_out, d_in, num_rels) = (40, 19, 35, 4);
        let rels: Vec<u32> = (0..m).map(|i| (i % num_rels) as u32).collect();
        let poison = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        let mut mats = lcg_table(num_rels, d_out * d_in);
        let mut v = lcg_table(m, d_in);
        let mut w = lcg_table(m, d_out);
        for (q, &x) in poison.iter().enumerate() {
            // Relation q's matrix and batch rows q, q + 4, … carry poison q
            // at scattered places; rows ≥ 20 of `w` are zero, so `0 · inf`
            // and `0 · NaN` reach both backward products.
            for j in (q..d_out * d_in).step_by(11) {
                mats.set(q, j, x);
            }
            for i in (q..m).step_by(8) {
                v.set(i, (3 * i + q) % d_in, x);
            }
            w.set(q, q, x);
        }
        for i in 20..m {
            w.row_mut(i).fill(0.0);
        }
        let pre = lcg_table(num_rels, d_out * d_in);
        let twins =
            both_twins("blocked_projection_keeps_non_finite_operands_and_zero_gradient_rows");
        for (width, isa) in [1, 4]
            .into_iter()
            .flat_map(|w| twins.iter().map(move |&i| (w, i)))
        {
            let (got, want) = projection_case(
                tape_at(width, isa),
                &rels,
                &mats,
                v.as_slice(),
                w.as_slice(),
                d_out,
                Some(pre.as_slice()),
            );
            assert_eq!(got, want, "width {width}, {isa:?}");
            // A zero-gradient row times an infinite matrix entry is NaN, not
            // a skipped zero: batch row 21 (relation 1, `+inf`) has `g = 0`.
            let dv_row = &got[1][21 * d_in..22 * d_in];
            assert!(dv_row.contains(&0x7fc0_0000), "zero-gradient row skipped");
        }
    }

    /// The widths every twin test sweeps: under, at and over the 4-, 8- and
    /// 16-lane edges, and two whole-tile-plus-tail widths.
    const TWIN_WIDTHS: [usize; 9] = [1, 7, 15, 16, 17, 63, 64, 65, 130];

    /// The AVX2 twin to compare with the baseline, or `None` after a skip
    /// line on a CPU without AVX2.
    fn avx2_twin(test: &str) -> Option<Isa> {
        let isa = Isa::avx2();
        if isa.is_none() {
            println!("{test}: skipped the AVX2 half, this CPU has no AVX2");
        }
        isa
    }

    /// `n` values in about ±2.5 from a fixed LCG. With `plant`, every
    /// eleventh one is `±0.0`, a subnormal, `±inf` or NaN, in turn.
    fn planted(n: usize, seed: u32, plant: bool) -> Vec<f32> {
        const SPECIAL: [f32; 7] = [
            0.0,
            -0.0,
            1.0e-40,
            -3.0e-39,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let mut state = seed;
        (0..n)
            .map(|i| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                match i % 11 {
                    5 if plant => SPECIAL[i / 11 % SPECIAL.len()],
                    _ => (state >> 8) as f32 / (1u32 << 24) as f32 * 5.0 - 2.5,
                }
            })
            .collect()
    }

    /// The panel kernel's AVX2 twin is the baseline bit for bit (NaN as a
    /// class) under every score, at every column count and panel width.
    #[test]
    fn panel_distances_twin_matches_baseline() {
        let Some(avx2) = avx2_twin("panel_distances_twin_matches_baseline") else {
            return;
        };
        let scores = [
            RowScore::L1,
            RowScore::L2 { eps: 1e-12 },
            RowScore::SquaredL2,
            RowScore::TorusL1,
            RowScore::TorusL2Sq,
        ];
        for d in TWIN_WIDTHS {
            for w in [1, 7, PANEL_LANES] {
                for plant in [false, true] {
                    let a = planted(d, 3 + d as u32, plant);
                    let panel = planted(d * w, 7 + w as u32, plant);
                    for score in scores {
                        let run = |isa: Isa| {
                            let mut out = vec![0.0; w];
                            isa.run(
                                #[inline(always)]
                                || score.panel_distances(&a, &panel, &mut out),
                            );
                            nan_classes(&out)
                        };
                        let what = format!("{score:?}, {d} columns, {w} lanes, planted {plant}");
                        assert_eq!(run(avx2), run(Isa::BASELINE), "{what}");
                    }
                }
            }
        }
    }

    /// Two rows at once against a full panel are each row's
    /// `panel_distances` bit for bit, in the baseline loop and in the AVX2
    /// twin, under every score.
    #[test]
    fn panel_distances_rows_is_each_row_at_either_width() {
        let twins = [Some(Isa::BASELINE), avx2_twin("panel_distances_rows")];
        for d in TWIN_WIDTHS {
            for plant in [false, true] {
                let rows = [planted(d, 29 + d as u32, plant), planted(d, 31, plant)];
                let panel = planted(d * PANEL_LANES, 37, plant);
                for score in [
                    RowScore::L1,
                    RowScore::L2 { eps: 1e-12 },
                    RowScore::SquaredL2,
                    RowScore::TorusL1,
                    RowScore::TorusL2Sq,
                ] {
                    let one_at_a_time = rows.each_ref().map(|a| {
                        let mut out = [0.0; PANEL_LANES];
                        score.panel_distances(a, &panel, &mut out);
                        nan_classes(&out)
                    });
                    for isa in twins.into_iter().flatten() {
                        let mut out = [[0.0; PANEL_LANES]; 2];
                        isa.run(
                            #[inline(always)]
                            || score.panel_distances_rows([&rows[0], &rows[1]], &panel, &mut out),
                        );
                        let what = format!("{score:?}, {d} columns, planted {plant}, {isa:?}");
                        assert_eq!(out.map(|o| nan_classes(&o)), one_at_a_time, "{what}");
                    }
                }
            }
        }
    }

    /// `n` values in about ±2.5 from a fixed LCG with every eleventh one a
    /// `±0.0`, a subnormal or a large finite value within `±f32::MAX / 2`,
    /// in turn: what the serving walk prunes over.
    fn planted_finite(n: usize, seed: u32) -> Vec<f32> {
        const SPECIAL: [f32; 6] = [0.0, -0.0, 1.0e-40, -3.0e-39, 1.7e38, -1.7e38];
        let mut v = planted(n, seed, false);
        for (i, x) in v.iter_mut().enumerate().skip(5).step_by(11) {
            *x = SPECIAL[i / 11 % SPECIAL.len()];
        }
        v
    }

    /// The early-exit panel kernel either scores the panel as
    /// `panel_distances` does, bit for bit, or stops after a whole number of
    /// 8-column blocks, and then only when every kept lane's full distance
    /// is strictly above the bound. Every score, column counts around the
    /// block size and the serving width, panel widths 1, 7 and 16, kept
    /// lanes all, the upper half or one, and bounds 0, each lane's exact
    /// distance and its neighbours `next_up` and `next_down`, `+∞` and NaN.
    /// Besides planted values, a panel whose rows equal `a` after the first
    /// block: its partial scores are already the full ones, so a bound equal
    /// to one is a tie that must not stop the panel.
    #[test]
    fn panel_distances_within_is_exact_or_out_of_reach() {
        let mut stopped = 0;
        for d in [1, 7, 8, 9, 63, 64, 65, 130] {
            for w in [1, 7, PANEL_LANES] {
                let a = planted_finite(d, 41 + d as u32);
                let planted = planted_finite(d * w, 43 + w as u32);
                let mut settled = planted.clone();
                for (j, col) in settled
                    .chunks_exact_mut(w)
                    .enumerate()
                    .skip(PANEL_EXIT_COLUMNS)
                {
                    col.fill(a[j]);
                }
                for (panel, score) in [&planted, &settled].into_iter().flat_map(|p| {
                    [
                        RowScore::L1,
                        RowScore::L2 { eps: 1e-12 },
                        RowScore::SquaredL2,
                        RowScore::TorusL1,
                        RowScore::TorusL2Sq,
                    ]
                    .map(|score| (p, score))
                }) {
                    let mut full = vec![0.0; w];
                    score.panel_distances(&a, panel, &mut full);
                    let near = full.iter().flat_map(|&s| [s, s.next_up(), s.next_down()]);
                    let bounds: Vec<f32> = [0.0, f32::INFINITY, f32::NAN]
                        .into_iter()
                        .chain(near)
                        .collect();
                    for keep in [0..w, w / 2..w, 0..1] {
                        for &bound in &bounds {
                            let mut out = vec![0.0; w];
                            let read = score.panel_distances_within(
                                &a,
                                panel,
                                &mut out,
                                keep.clone(),
                                bound,
                            );
                            let what = format!(
                                "{score:?}, {d} columns, {w} lanes, keep {keep:?}, bound {bound}"
                            );
                            if read == d {
                                assert_eq!(nan_classes(&out), nan_classes(&full), "{what}");
                                continue;
                            }
                            stopped += 1;
                            assert!(read > 0 && read % PANEL_EXIT_COLUMNS == 0, "{what}: {read}");
                            for &s in &full[keep.clone()] {
                                assert!(s > bound, "{what}: stopped a lane at {s}");
                            }
                        }
                    }
                }
            }
        }
        assert!(stopped > 0, "no panel stopped early");
    }

    /// Output widths the projection twin tests sweep: under, at and over the
    /// 32-wide tile and two tiles, and two whole-tile-plus-tail widths.
    const PROJ_WIDTHS: [usize; 9] = [1, 7, 31, 32, 33, 63, 64, 65, 130];

    /// The twins to run: the baseline loop, and the AVX2 one where the CPU
    /// has it.
    fn both_twins(test: &str) -> Vec<Isa> {
        [Some(Isa::BASELINE), avx2_twin(test)]
            .into_iter()
            .flatten()
            .collect()
    }

    /// `project_group`, through the relation group's dispatch, for groups of
    /// 1, 2, 3 and 5 rows (so the two-row pass and the odd last row both
    /// run) at every output width and depth: each twin is the plain
    /// dot-product loop `acc = 0.0; for p { acc += b[p, c] * a[p] }` bit for
    /// bit, and rows outside the group are left as they were.
    #[test]
    fn projection_twin_matches_baseline() {
        let twins = both_twins("projection_twin_matches_baseline");
        // Batch rows 1..=9, the group's first batch row at `first = 1`.
        let (first, m) = (1, 10);
        for size in [1, 2, 3, 5] {
            let rows = &[1u32, 3, 4, 7, 8][..size];
            for n in PROJ_WIDTHS {
                for depth in [1, 5, 33] {
                    for plant in [false, true] {
                        let a = planted(m * depth, 11 + n as u32, plant);
                        let b = planted(depth * n, 13 + depth as u32, plant);
                        let before = planted((m - first) * n, 17, plant);
                        let mut want = before.clone();
                        for &i in rows {
                            let i = i as usize;
                            for (c, w) in want[(i - first) * n..][..n].iter_mut().enumerate() {
                                let mut acc = 0.0;
                                for p in 0..depth {
                                    acc += b[p * n + c] * a[i * depth + p];
                                }
                                *w = acc;
                            }
                        }
                        for &isa in &twins {
                            let mut out = before.clone();
                            project_group(isa, rows, &a, &b, first, &mut out, n);
                            let what = format!(
                                "{isa:?}: {size} rows, {n} outputs, depth {depth}, planted {plant}"
                            );
                            assert_eq!(nan_classes(&out), nan_classes(&want), "{what}");
                        }
                    }
                }
            }
        }
    }

    /// `add_outer_products` for `d_out` 1, 2, 3 and 5 (so the two-output
    /// pass and the odd last output both run) at every input width: each
    /// twin continues every stored sum over the group's rows in ascending
    /// order, bit for bit the one-product-at-a-time loop.
    #[test]
    fn outer_product_twin_matches_baseline() {
        let twins = both_twins("outer_product_twin_matches_baseline");
        let rows: Vec<u32> = vec![1, 2, 4, 5];
        for d_in in PROJ_WIDTHS {
            for d_out in [1, 2, 3, 5] {
                for plant in [false, true] {
                    let g = planted(6 * d_out, 17 + d_in as u32, plant);
                    let v = planted(6 * d_in, 19 + d_out as u32, plant);
                    let dm = planted(d_out * d_in, 23, plant);
                    let mut want = dm.clone();
                    for &i in &rows {
                        let i = i as usize;
                        for (o, drow) in want.chunks_exact_mut(d_in).enumerate() {
                            for (j, d) in drow.iter_mut().enumerate() {
                                *d += g[i * d_out + o] * v[i * d_in + j];
                            }
                        }
                    }
                    for &isa in &twins {
                        let mut got = dm.clone();
                        add_outer_products(isa, &rows, &g, &v, d_out, d_in, &mut got);
                        let what = format!("{isa:?}: {d_out}x{d_in}, planted {plant}");
                        assert_eq!(nan_classes(&got), nan_classes(&want), "{what}");
                    }
                }
            }
        }
    }

    /// The blocked transpose is the element-by-element one, bit for bit, in
    /// both twins: under, at and over the 8-row block, and past the end of
    /// a longer scratch buffer nothing is written.
    #[test]
    fn transpose_matches_naive_loop() {
        let twins = both_twins("transpose_matches_naive_loop");
        for rows in [1, 7, 8, 9, 32, 33] {
            for cols in [1, 5, 64, 65] {
                let m = planted(rows * cols, 29 + rows as u32, true);
                let mut want = vec![7.0f32; rows * cols + 3];
                for o in 0..rows {
                    for j in 0..cols {
                        want[j * rows + o] = m[o * cols + j];
                    }
                }
                let bits = |x: &[f32]| x.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                for &isa in &twins {
                    let mut mt = vec![7.0f32; rows * cols + 3];
                    isa.run(
                        #[inline(always)]
                        || transpose(&m, rows, cols, &mut mt),
                    );
                    assert_eq!(bits(&mt), bits(&want), "{isa:?}: {rows} x {cols}");
                }
            }
        }
    }

    /// `Graph::score_rows`, four rows per fold, is each row's one-row fold
    /// bit for bit (NaN as a class) — `RowScore::distance(row, 0)` — under
    /// every score, at every width and for 1–9 rows (whole four-row folds
    /// and every tail), on one worker and on four.
    #[test]
    fn score_rows_folds_each_row_as_one_row() {
        let scores = [
            RowScore::L1,
            RowScore::L2 { eps: 1e-12 },
            RowScore::SquaredL2,
            RowScore::TorusL1,
            RowScore::TorusL2Sq,
        ];
        for n in [1, 7, 63, 64, 65, 130] {
            let zeros = vec![0.0f32; n];
            for m in 1..=9 {
                for plant in [false, true] {
                    let x = planted(m * n, 31 + (m * n) as u32, plant);
                    for score in scores {
                        let want: Vec<f32> = x
                            .chunks_exact(n)
                            .map(|row| score.distance(row, &zeros))
                            .collect();
                        for width in [1, 4] {
                            let mut g = Graph::with_pool(PoolHandle::global().with_width(width));
                            let rows = g.input_from_slice(m, n, &x);
                            let out = g.score_rows(rows, score);
                            let what = format!(
                                "{score:?}, {m} rows of {n}, planted {plant}, width {width}"
                            );
                            assert_eq!(
                                nan_classes(g.value(out).as_slice()),
                                nan_classes(&want),
                                "{what}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The counters of `rows`, summed.
    fn cost_of(rows: &[OpRow]) -> Cost {
        rows.iter().fold(Cost::default(), |c, r| Cost {
            flops: c.flops + r.flops,
            bytes: c.bytes + r.bytes,
            spmm_calls: c.spmm_calls + r.spmm_calls,
        })
    }

    #[test]
    fn projection_ops_report_analytic_bytes() {
        // 9 batch rows over 3 of 5 relations, 4 × 6 matrices.
        let (m, d_out, d_in, groups) = (9usize, 4usize, 6usize, 3usize);
        let rels: Vec<u32> = (0..m).map(|i| [0, 2, 4][i % 3]).collect();
        let (mut store, p) = store_with("mats", lcg_table(5, d_out * d_in));
        let by_rel = Arc::new(RelationGroups::new(5, &rels).unwrap());
        let mut g = Graph::new();
        let x = g.input(lcg_table(m, d_in));
        let out = g.project_rows(&store, p, x, by_rel, d_out);
        let forward = cost_of(g.ops());
        // Each group's matrix once; each row's vector in, projection out.
        assert_eq!(
            forward.bytes as usize,
            4 * (groups * d_out * d_in + m * (d_in + d_out))
        );
        assert_eq!(forward.flops as usize, 2 * m * d_out * d_in);
        // Mᵣ read, dMᵣ read and written per group; `g` twice, `v` and `dv`
        // once per row. The mean's own backward moves no counted bytes.
        let loss = g.mean(out);
        g.clear_ops();
        g.backward(loss, &mut store);
        let backward = cost_of(g.ops());
        assert_eq!(
            backward.bytes as usize,
            4 * (3 * groups * d_out * d_in + m * (2 * d_in + 2 * d_out))
        );
    }

    #[test]
    fn semiring_score_reports_analytic_counters() {
        // 6 triples over 5 entities + 2 relations, one of them a self-loop.
        let (heads, rels, tails) = ([0, 1, 2, 3, 4, 2], [0, 1, 0, 1, 0, 1], [1, 2, 3, 4, 0, 2]);
        let fwd = hrt(5, 2, &heads, &rels, &tails, TailSign::Negative).unwrap();
        let (m, nnz) = (6u64, 17u64);
        assert_eq!((fwd.rows() as u64, fwd.nnz() as u64), (m, nnz));
        let pair = Arc::new(IncidencePair::new(fwd));
        for (kind, flops) in [
            (Semiring::DistMult, (3, 3)),
            (Semiring::ComplEx, (10, 10)),
            (Semiring::RotatE, (13, 24)),
        ] {
            let (lanes, d) = (9u64, 9 * kind.lane_width() as u64);
            let (mut store, p) = store_with("emb", lcg_table(7, d as usize));
            let mut g = Graph::new();
            let score = g.semiring_score(&store, p, pair.clone(), kind);
            // Index + value and one operand row per stored entry in, one
            // float per batch row out.
            let want = Cost {
                flops: flops.0 * m * lanes,
                bytes: nnz * 8 + nnz * d * 4 + m * 4,
                spmm_calls: 1,
            };
            assert_eq!(cost_of(g.ops()), want, "{kind:?} forward");
            // Per stored entry: index + value, `g_i`, two sibling rows in,
            // one gradient row read and written. The mean's own backward
            // counts flops but no bytes.
            let loss = g.mean(score);
            g.clear_ops();
            g.backward(loss, &mut store);
            let backward = cost_of(g.ops());
            assert_eq!(backward.spmm_calls, 1, "{kind:?}");
            assert_eq!(backward.bytes, nnz * (8 + 4) + 4 * nnz * d * 4, "{kind:?}");
            assert_eq!(backward.flops, flops.1 * nnz * lanes + 2 * m, "{kind:?}");
        }
    }

    /// Mantissas at the rounding edges of every binade.
    const EDGE_MANTISSAS: [u32; 6] = [0, 1, 0x7f_ffff, 0x40_0000, 0x40_0001, 0x3f_ffff];

    fn assert_floor_matches(bits: u32) {
        let x = f32::from_bits(bits);
        let (got, want) = (floor(x), x.floor());
        assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "floor({x:e}) [{bits:#010x}] = {got:e}, f32::floor gives {want:e}"
        );
    }

    #[test]
    fn floor_matches_f32_floor_on_edges() {
        for sign in [0u32, 0x8000_0000] {
            // Every exponent (zero/subnormals and inf/NaN included) at the
            // mantissas where rounding flips.
            for exp in 0..=0xffu32 {
                for mant in EDGE_MANTISSAS {
                    assert_floor_matches(sign | exp << 23 | mant);
                }
            }
            // ±(2²² … 2²⁴) and their neighbours: where halves, then integers
            // stop being representable.
            for exp in [22, 23, 24] {
                let edge = ((127 + exp) << 23) as u32;
                for bits in edge - 2..=edge + 2 {
                    assert_floor_matches(sign | bits);
                }
            }
        }
        for x in [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ] {
            assert_floor_matches(x.to_bits());
        }
        assert_eq!(floor(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(floor(0.75).to_bits(), 0.0f32.to_bits());
        assert_eq!(floor(-0.25), -1.0);
    }

    #[test]
    fn floor_matches_f32_floor_on_a_strided_sweep() {
        // 65 521 is prime, so the low bits run through every residue over
        // the 65 551 steps that span all 2³² patterns.
        let mut bits = 0u32;
        loop {
            assert_floor_matches(bits);
            match bits.checked_add(65_521) {
                Some(next) => bits = next,
                None => break,
            }
        }
    }

    #[test]
    #[ignore = "all 2^32 bit patterns: about 25 s in release, minutes in debug"]
    fn floor_matches_f32_floor_on_every_bit_pattern() {
        for bits in 0..=u32::MAX {
            assert_floor_matches(bits);
        }
    }

    #[test]
    fn torus_norms_are_wraparound() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_rows(&[[0.25, 1.75]])); // fracs: 0.25, 0.75
        let l1 = g.score_rows(x, RowScore::TorusL1);
        assert!((g.value(l1).get(0, 0) - 0.5).abs() < 1e-6); // 0.25 + 0.25
        let l2 = g.score_rows(x, RowScore::TorusL2Sq);
        assert!((g.value(l2).get(0, 0) - 0.125).abs() < 1e-6); // 0.0625 * 2
    }

    #[test]
    fn scatter_add_rows_handles_duplicates() {
        let mut dst = Tensor::zeros(4, 2);
        let src = Tensor::from_rows(&[[1.0, 1.0], [2.0, 2.0], [4.0, 4.0]]);
        scatter_add_rows(&mut dst, &[1, 1, 3], &src);
        assert_eq!(dst.row(1), &[3.0, 3.0]);
        assert_eq!(dst.row(3), &[4.0, 4.0]);
        assert_eq!(dst.row(0), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "scatter index 7 out of bounds for 3 rows")]
    fn scatter_add_rows_rejects_an_index_past_the_destination() {
        scatter_add_rows(&mut Tensor::zeros(3, 2), &[1, 7], &Tensor::full(2, 2, 1.0));
    }

    #[test]
    #[should_panic(expected = "scatter source shape")]
    fn scatter_add_rows_rejects_a_source_of_another_width() {
        scatter_add_rows(&mut Tensor::zeros(3, 2), &[1], &Tensor::full(1, 3, 1.0));
    }

    #[test]
    #[should_panic(expected = "scatter source shape")]
    fn scatter_add_rows_rejects_a_source_row_count_other_than_the_index_count() {
        scatter_add_rows(&mut Tensor::zeros(3, 2), &[0, 2], &Tensor::full(3, 2, 1.0));
    }

    #[test]
    fn scatter_add_csr_is_the_transpose_product() {
        // h − t rows (0, 1) and (2, 0), and a self-loop's explicit zero.
        let a = ht(3, &[0, 2, 1], &[1, 0, 1]).unwrap();
        let src = Tensor::from_rows(&[[1.0, 2.0], [4.0, 8.0], [16.0, 32.0]]);
        let mut dst = Tensor::full(3, 2, 0.5);
        scatter_add_csr(&mut dst, &a, &src);
        assert_eq!(dst.row(0), &[0.5 + 1.0 - 4.0, 0.5 + 2.0 - 8.0]);
        assert_eq!(dst.row(1), &[0.5 - 1.0 + 0.0, 0.5 - 2.0 + 0.0]);
        assert_eq!(dst.row(2), &[0.5 + 4.0, 0.5 + 8.0]);
    }

    #[test]
    #[should_panic(expected = "scatter index 3 out of bounds for 3 rows")]
    fn scatter_add_csr_rejects_a_column_past_the_destination() {
        let a = ht(4, &[0], &[3]).unwrap();
        scatter_add_csr(&mut Tensor::zeros(3, 2), &a, &Tensor::full(1, 2, 1.0));
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_scalar() {
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(2, 2));
        g.backward(x, &mut store);
    }

    /// One forward + backward pass of a TransE-shaped tape (SpMM, L2 norm,
    /// mean), returning the loss and parameter-gradient bits.
    fn tape_pass(g: &mut Graph, store: &mut ParamStore, p: ParamId) -> (u32, Vec<u32>) {
        let pair = Arc::new(IncidencePair::new(
            hrt(3, 1, &[0, 1], &[0, 0], &[2, 0], TailSign::Negative).unwrap(),
        ));
        let expr = g.spmm(store, p, pair);
        let n = g.score_rows(expr, RowScore::L2 { eps: 1e-9 });
        let loss = g.mean(n);
        g.backward(loss, store);
        (
            g.value(loss).get(0, 0).to_bits(),
            Tensor::from_view(store.grad(p))
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect(),
        )
    }

    /// Public calls alone feed a replica's aliased value to a tape: `reset`
    /// drops it instead of pooling a buffer the canonical store still uses.
    #[test]
    fn reset_drops_a_shared_input() {
        let (mut canonical, w) = store_with("w", Tensor::from_rows(&[[1.0, 2.0], [3.0, 4.0]]));
        let (mut replica, r) = store_with("w", Tensor::zeros(2, 2));
        replica.alias_values(&mut canonical).unwrap();
        let shared = std::mem::replace(replica.value_mut(r), Tensor::zeros(2, 2));
        assert!(shared.is_shared());
        let mut g = Graph::new();
        g.input(shared);
        g.reset();
        assert_eq!(g.arena().pooled_buffers(), 0);
        assert_eq!(canonical.value(w).row(1), &[3.0, 4.0]);
    }

    #[test]
    fn reset_makes_repeat_passes_allocation_free_and_bit_identical() {
        let data = Tensor::from_rows(&[[0.3, -0.2], [1.5, 0.7], [-0.4, 0.9], [0.1, 0.2]]);
        let (mut store, p) = store_with("emb", data);
        let mut g = Graph::new();
        let first = tape_pass(&mut g, &mut store, p);

        g.reset();
        store.zero_grads();
        let misses = g.arena().misses();
        let second = tape_pass(&mut g, &mut store, p);
        // Every buffer request of the second pass is served by the arena
        // (misses are the only path that heap-allocates).
        assert_eq!(
            g.arena().misses(),
            misses,
            "steady-state pass must draw every buffer from the arena"
        );
        assert!(g.arena().hits() > 0);
        // Recycling swaps buffer identity, never arithmetic: bits match.
        assert_eq!(first, second);
    }

    #[test]
    fn reset_reclaims_every_node_buffer() {
        let (mut store, p) = store_with("emb", Tensor::from_rows(&[[1.0, 2.0], [3.0, 4.0]]));
        let mut g = Graph::new();
        let x = g.gather(&store, p, vec![0, 1, 0]);
        let n = g.score_rows(x, RowScore::L2 { eps: 1e-9 });
        let loss = g.mean(n);
        g.backward(loss, &mut store);
        assert!(
            g.arena().pooled_buffers() > 0,
            "backward temporaries recycle"
        );
        let nodes = g.len();
        g.reset();
        assert!(g.is_empty());
        // At least one value and one grad buffer per node went back.
        assert!(g.arena().pooled_buffers() >= nodes);
        assert!(g.arena().held_bytes() > 0);
    }

    /// All five row scores the fused kernel supports.
    const ALL_SCORES: [RowScore; 5] = [
        RowScore::L1,
        RowScore::L2 { eps: 1e-9 },
        RowScore::SquaredL2,
        RowScore::TorusL1,
        RowScore::TorusL2Sq,
    ];

    /// Full pos/neg margin-loss tape over `spmm_score`, returning the score
    /// bits, loss bits, and parameter-gradient bits.
    fn spmm_score_pass(fused: bool, score: RowScore) -> (Vec<u32>, u32, Vec<u32>) {
        let data = Tensor::from_rows(&[
            [0.3, -0.2, 1.1],
            [1.5, 0.7, -0.6],
            [-0.4, 0.9, 0.2],
            [0.1, 0.2, -1.3],
            [0.8, -0.5, 0.4],
        ]);
        let (mut store, p) = store_with("emb", data);
        // Entities 0..4 with relation rows folded in; duplicate heads/tails
        // exercise gradient accumulation order.
        let pos = Arc::new(IncidencePair::new(
            hrt(4, 1, &[0, 1, 0], &[0, 0, 0], &[2, 0, 3], TailSign::Negative).unwrap(),
        ));
        let neg = Arc::new(IncidencePair::new(
            hrt(4, 1, &[3, 1, 2], &[0, 0, 0], &[1, 2, 0], TailSign::Negative).unwrap(),
        ));
        let mut g = Graph::new();
        g.set_fused(fused);
        let sp = g.spmm_score(&store, p, pos, score);
        let sn = g.spmm_score(&store, p, neg, score);
        let loss = g.margin_ranking_loss(sp, sn, 1.0);
        g.backward(loss, &mut store);
        let score_bits = g
            .value(sp)
            .as_slice()
            .iter()
            .chain(g.value(sn).as_slice())
            .map(|x| x.to_bits())
            .collect();
        let grad_bits = Tensor::from_view(store.grad(p))
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        (score_bits, g.value(loss).get(0, 0).to_bits(), grad_bits)
    }

    #[test]
    fn fused_spmm_score_matches_unfused_bitwise() {
        for score in ALL_SCORES {
            let fused = spmm_score_pass(true, score);
            let unfused = spmm_score_pass(false, score);
            assert_eq!(fused, unfused, "fused vs unfused diverged for {score:?}");
        }
    }

    #[test]
    fn fused_spmm_score_matches_two_nonzero_rows() {
        // ht incidence (2 nonzeros per row) hits the pair fast path.
        let data = Tensor::from_rows(&[[1.0, -0.5], [0.3, 0.8], [-1.2, 0.1]]);
        for score in ALL_SCORES {
            let run = |fused: bool| {
                let (mut store, p) = store_with("emb", data.clone());
                let pair = Arc::new(IncidencePair::new(ht(3, &[0, 2, 1], &[1, 0, 2]).unwrap()));
                let mut g = Graph::new();
                g.set_fused(fused);
                let s = g.spmm_score(&store, p, pair, score);
                let loss = g.mean(s);
                g.backward(loss, &mut store);
                let bits: Vec<u32> = g
                    .value(s)
                    .as_slice()
                    .iter()
                    .chain(Tensor::from_view(store.grad(p)).as_slice())
                    .map(|x| x.to_bits())
                    .collect();
                bits
            };
            assert_eq!(run(true), run(false), "ht divergence for {score:?}");
        }
    }

    /// Entities (and stacked relation rows) of the kernel-edge tests below.
    const EDGE_ROWS: usize = 40;

    /// Deterministic `rows × d` table with values in about ±2.5, so torus
    /// scores wrap and every sign occurs.
    fn lcg_table(rows: usize, d: usize) -> Tensor {
        let mut state = 0x2545_f491u32;
        let data = (0..rows * d)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 8) as f32 / (1u32 << 24) as f32 * 5.0 - 2.5
            })
            .collect();
        Tensor::from_vec(rows, d, data)
    }

    /// `m` incidence rows of `k` nonzeros each over `EDGE_ROWS` columns;
    /// coefficients are `±1` or, with `unit` off, a spread of magnitudes.
    fn k_nonzero_rows(m: usize, k: usize, unit: bool) -> sparse::CsrMatrix {
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for i in 0..m {
            let mut cols: Vec<u32> = (0..k)
                .map(|q| ((i * 7 + q * 11) % EDGE_ROWS) as u32)
                .collect();
            cols.sort_unstable();
            cols.dedup();
            assert_eq!(cols.len(), k, "stride collision");
            for (q, c) in cols.into_iter().enumerate() {
                let sign = if (i + q) % 2 == 0 { 1.0 } else { -1.0 };
                indices.push(c);
                values.push(if unit {
                    sign
                } else {
                    sign * (0.25 + q as f32 * 0.5)
                });
            }
        }
        let indptr = (0..=m as u32).map(|i| i * k as u32).collect();
        sparse::CsrMatrix::from_raw_parts(m, EDGE_ROWS, indptr, indices, values).unwrap()
    }

    /// Score, loss and parameter-gradient bits of `mean(w ⊙ spmm_score)`;
    /// a zero weight gives its batch row `g_i == 0`.
    fn weighted_score_bits(
        pool: PoolHandle,
        fused: bool,
        score: RowScore,
        table: &Tensor,
        fwd: &sparse::CsrMatrix,
        weights: &[f32],
    ) -> Vec<u32> {
        let (mut store, p) = store_with("emb", table.clone());
        let mut g = Graph::with_pool(pool);
        g.set_fused(fused);
        let s = g.spmm_score(&store, p, Arc::new(IncidencePair::new(fwd.clone())), score);
        let w = g.input_from_slice(weights.len(), 1, weights);
        let ws = g.mul(s, w);
        let loss = g.mean(ws);
        g.backward(loss, &mut store);
        g.value(s)
            .as_slice()
            .iter()
            .chain(g.value(loss).as_slice())
            .chain(Tensor::from_view(store.grad(p)).as_slice())
            .map(|x| x.to_bits())
            .collect()
    }

    #[test]
    fn fused_spmm_score_matches_unfused_on_every_row_shape_tile_tail_and_width() {
        // 150 batch rows: enough for the forward (128-row) and backward
        // (64-row) chunking to split across workers.
        let m = 150;
        let ends = |mul: usize, add: usize| -> Vec<u32> {
            (0..m)
                .map(|i| ((i * mul + add) % (EDGE_ROWS - 2)) as u32)
                .collect()
        };
        // `heads[i] == tails[i]` whenever `i % 19 == 0`: self-loop triples,
        // whose merged row is one `0.0` coefficient (ht) or a `0.0` plus the
        // relation (hrt).
        let (heads, mut tails) = (ends(5, 3), ends(11, 1));
        for i in (0..m).step_by(19) {
            tails[i] = heads[i];
        }
        let rels: Vec<u32> = (0..m).map(|i| (i % 2) as u32).collect();
        let shapes = [
            ("ht", ht(EDGE_ROWS, &heads, &tails).unwrap()),
            (
                "hrt",
                hrt(EDGE_ROWS - 2, 2, &heads, &rels, &tails, TailSign::Negative).unwrap(),
            ),
            ("1 nonzero, unit", k_nonzero_rows(m, 1, true)),
            ("1 nonzero, scaled", k_nonzero_rows(m, 1, false)),
            ("3 nonzeros, scaled", k_nonzero_rows(m, 3, false)),
            ("5 nonzeros, unit", k_nonzero_rows(m, 5, true)),
            ("5 nonzeros, scaled", k_nonzero_rows(m, 5, false)),
        ];
        let weights: Vec<f32> = (0..m).map(|i| (i % 4) as f32 - 1.0).collect();
        for d in [1, 7, 63, 64, 65, 130] {
            let table = lcg_table(EDGE_ROWS, d);
            for (name, fwd) in &shapes {
                for score in ALL_SCORES {
                    let pass = |pool, fused| {
                        weighted_score_bits(pool, fused, score, &table, fwd, &weights)
                    };
                    let want = pass(PoolHandle::sequential(), false);
                    for width in [1, 4, 8] {
                        assert_eq!(
                            pass(PoolHandle::global().with_width(width), true),
                            want,
                            "{name}, d = {d}, {score:?}, width {width}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fused_spmm_score_keeps_non_finite_operands_and_zero_gradient_rows() {
        // Rows 0..4 of the table are poisoned; every batch row reads one of
        // them, and every other batch row has `g_i == 0`. NaN payloads are
        // unspecified by IEEE 754 (and by LLVM), so NaNs compare as a class;
        // everything else, `-0.0` and `±inf` included, compares by bits.
        let d = 65;
        let mut table = lcg_table(EDGE_ROWS, d);
        for (row, poison) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0]
            .into_iter()
            .enumerate()
        {
            for j in (row..d).step_by(3) {
                table.set(row, j, poison);
            }
        }
        let m = 24;
        let heads: Vec<u32> = (0..m).map(|i| ((i + 1) % 4) as u32).collect();
        let tails: Vec<u32> = (0..m).map(|i| (4 + i) as u32).collect();
        let rels: Vec<u32> = (0..m).map(|i| (i % 2) as u32).collect();
        let fwd = hrt(EDGE_ROWS - 2, 2, &heads, &rels, &tails, TailSign::Negative).unwrap();
        let weights: Vec<f32> = (0..m).map(|i| (i % 2) as f32).collect();
        let classes = |bits: Vec<u32>| -> Vec<u32> {
            bits.into_iter()
                .map(|b| {
                    if f32::from_bits(b).is_nan() {
                        0x7fc0_0000
                    } else {
                        b
                    }
                })
                .collect()
        };
        for score in ALL_SCORES {
            let pass = |fused| {
                classes(weighted_score_bits(
                    PoolHandle::sequential(),
                    fused,
                    score,
                    &table,
                    &fwd,
                    &weights,
                ))
            };
            let fused = pass(true);
            assert_eq!(fused, pass(false), "{score:?}");
            if matches!(score, RowScore::L2 { .. } | RowScore::SquaredL2) {
                // Batch row 0 has weight 0 and reads table row 1's `+inf`:
                // its tail (table row 4, read by no other batch row) must
                // receive `0 · inf = NaN`, not a skipped `0`.
                let tail_grad = &fused[m + 1 + 4 * d..m + 1 + 5 * d];
                assert!(
                    tail_grad.iter().any(|&b| f32::from_bits(b).is_nan()),
                    "{score:?}: a zero-gradient row was skipped"
                );
            }
        }
    }

    /// Row `i` of the per-op pipeline the elementwise walk replaced, from
    /// rows of `a`, `b` and the upstream gradient `g`: the forward row and
    /// each operand's derivative row as the old temporaries held it.
    fn per_op_row(kind: Elementwise, a: &[f32], b: &[f32], g: &[f32]) -> [Vec<f32>; 3] {
        let zip = |x: &[f32], y: &[f32], f: fn(f32, f32) -> f32| -> Vec<f32> {
            x.iter().zip(y).map(|(&x, &y)| f(x, y)).collect()
        };
        let times = |x: &[f32], s: f32| -> Vec<f32> { x.iter().map(|&x| x * s).collect() };
        let dot =
            |x: &[f32], y: &[f32]| vec![zip(x, y, |x, y| x * y).iter().fold(0.0, |s, t| s + t)];
        match kind {
            Elementwise::Add => [zip(a, b, |x, y| x + y), times(g, 1.0), times(g, 1.0)],
            Elementwise::Sub => [zip(a, b, |x, y| x - y), times(g, 1.0), times(g, -1.0)],
            Elementwise::Mul => [
                zip(a, b, |x, y| x * y),
                zip(g, b, |g, y| g * y),
                zip(g, a, |g, x| g * x),
            ],
            Elementwise::Scale(c) => [
                a.iter().map(|&x| c * x).collect(),
                g.iter().map(|&x| c * x).collect(),
                vec![],
            ],
            Elementwise::RowDot => [dot(a, b), times(b, g[0]), times(a, g[0])],
            Elementwise::ScaleRows => [times(a, b[0]), times(g, b[0]), dot(g, a)],
        }
    }

    /// Every elementwise kind against the per-op pipeline it replaced, its
    /// derivatives landed by `grad += 1·derivative` — onto a gradient `a`
    /// already holds, and twice onto one gradient when `a == b`, at pool
    /// widths 1 and 4. Non-finite and `-0.0` operands and a zero-gradient
    /// row included; NaNs compare as a class.
    #[test]
    fn elementwise_kinds_match_the_per_op_pipeline() {
        let (m, n) = (150, 7);
        let mut data = lcg_table(m, n);
        for (j, x) in [f32::NAN, f32::INFINITY, -0.0, f32::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            data.set(3 + j, j, x);
        }
        let col = lcg_table(m, 1);
        for kind in [
            Elementwise::Add,
            Elementwise::Sub,
            Elementwise::Mul,
            Elementwise::Scale(-1.5),
            Elementwise::RowDot,
            Elementwise::ScaleRows,
        ] {
            for (aliased, width) in [(false, 1), (false, 4), (true, 1), (true, 4)] {
                let (a_val, b_val) = match (kind, aliased) {
                    (Elementwise::ScaleRows, false) => (&data, &col),
                    (Elementwise::ScaleRows, true) => (&col, &col),
                    (_, false) => (&data, &lcg_table(m, n)),
                    (_, true) => (&data, &data),
                };
                let mut g = Graph::with_pool(PoolHandle::global().with_width(width));
                let a = g.input(a_val.clone());
                let b = if aliased { a } else { g.input(b_val.clone()) };
                let y = g.elementwise(kind, a, b);
                // A zero-weight row, and a later consumer of `a` whose
                // backward runs first, so `a`'s gradient exists by then.
                let mut w = lcg_table(m, g.value(y).cols());
                w.row_mut(3).fill(0.0);
                let w = g.input(w);
                let yw = g.mul(y, w);
                let u = g.scale(a, 0.7);
                let (my, mu) = (g.mean(yw), g.mean(u));
                let loss = g.add(my, mu);
                g.backward(loss, &mut ParamStore::new());

                let up = g.grad(y).unwrap();
                let mut want = [vec![], vec![], vec![0.0; b_val.len()]];
                want[1] = g
                    .grad(u)
                    .unwrap()
                    .as_slice()
                    .iter()
                    .map(|&x| 0.0 + 0.7 * x)
                    .collect();
                for i in 0..m {
                    let [out, da, db] = per_op_row(kind, a_val.row(i), b_val.row(i), up.row(i));
                    let (k, bw) = (a_val.cols(), db.len());
                    want[0].extend(out);
                    for (dst, d) in want[1][i * k..].iter_mut().zip(da) {
                        *dst += 1.0 * d;
                    }
                    let b_grad = if aliased { 1 } else { 2 };
                    for (dst, d) in want[b_grad][i * bw..].iter_mut().zip(db) {
                        *dst += 1.0 * d;
                    }
                }
                let mut got = vec![g.value(y).as_slice(), g.grad(a).unwrap().as_slice()];
                if !aliased && !matches!(kind, Elementwise::Scale(_)) {
                    got.push(g.grad(b).unwrap().as_slice());
                }
                for (what, (got, want)) in ["forward", "da", "db"].iter().zip(got.iter().zip(&want))
                {
                    assert_eq!(
                        nan_classes(got),
                        nan_classes(want),
                        "{what}: {kind:?}, aliased {aliased}, width {width}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_margin_loss_seed_matches_accumulated_path() {
        // Gather-based tape (no spmm_score): only the loss+seed fusion
        // differs between the arms.
        let run = |fused: bool| {
            let data = Tensor::from_rows(&[[0.4, -0.7], [1.1, 0.2], [-0.3, 0.9]]);
            let (mut store, p) = store_with("emb", data);
            let mut g = Graph::new();
            g.set_fused(fused);
            let hp = g.gather(&store, p, vec![0, 1, 2]);
            let hn = g.gather(&store, p, vec![2, 0, 1]);
            let np = g.score_rows(hp, RowScore::L2 { eps: 1e-9 });
            let nn = g.score_rows(hn, RowScore::L2 { eps: 1e-9 });
            let loss = g.margin_ranking_loss(np, nn, 0.5);
            g.backward(loss, &mut store);
            let bits: Vec<u32> = g
                .grad(np)
                .unwrap()
                .as_slice()
                .iter()
                .chain(g.grad(nn).unwrap().as_slice())
                .chain(Tensor::from_view(store.grad(p)).as_slice())
                .map(|x| x.to_bits())
                .collect();
            (g.value(loss).get(0, 0).to_bits(), bits)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn fused_margin_loss_with_shared_operand_falls_back() {
        // pos == neg must not hit the direct-seed path (both grads land on
        // one node); the loss is degenerate but must not panic and the two
        // arms must agree.
        let run = |fused: bool| {
            let mut store = ParamStore::new();
            let mut g = Graph::new();
            g.set_fused(fused);
            let s = g.input(Tensor::from_rows(&[[1.0], [2.0]]));
            let loss = g.margin_ranking_loss(s, s, 0.5);
            g.backward(loss, &mut store);
            g.grad(s)
                .unwrap()
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<u32>>()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn spmm_score_reports_fewer_bytes_than_materialized_pipeline() {
        let data = Tensor::from_rows(&[
            [0.3, -0.2, 1.1, 0.5],
            [1.5, 0.7, -0.6, -0.1],
            [-0.4, 0.9, 0.2, 0.3],
            [0.1, 0.2, -1.3, 0.8],
        ]);
        let pair = Arc::new(IncidencePair::new(
            hrt(3, 1, &[0, 1], &[0, 0], &[2, 0], TailSign::Negative).unwrap(),
        ));
        // (forward bytes, backward bytes) of one scored batch.
        let bytes = |fused: bool| {
            let (mut store, p) = store_with("emb", data.clone());
            let mut g = Graph::new();
            g.set_fused(fused);
            let s = g.spmm_score(&store, p, pair.clone(), RowScore::L2 { eps: 1e-9 });
            let forward = cost_of(g.ops()).bytes;
            let loss = g.mean(s);
            g.clear_ops();
            g.backward(loss, &mut store);
            (forward, cost_of(g.ops()).bytes)
        };
        let (fused, fused_backward) = bytes(true);
        let (unfused, _) = bytes(false);
        assert!(
            fused < unfused,
            "fused forward must move fewer bytes ({fused} vs {unfused})"
        );
        // What the two backward passes move, for m = 2 rows of nnz = 6
        // nonzeros at d = 4: index+value, four 16-byte lanes per nonzero
        // (operand read, dx read, gradient read+write) and the m × d
        // derivative write.
        assert_eq!(fused_backward, 6 * 8 + 4 * 6 * 16 + 2 * 16);
    }

    /// One scored batch of both sides through the fused SpMM score, the
    /// margin loss and its backward, on `g` — every row kind the sparse
    /// trainer's tape records.
    fn scored_batch(g: &mut Graph, store: &mut ParamStore, p: ParamId, pair: &Arc<IncidencePair>) {
        g.reset();
        let pos = g.spmm_score(store, p, pair.clone(), RowScore::L1);
        let neg = g.spmm_score(store, p, pair.clone(), RowScore::L2 { eps: 1e-9 });
        let loss = g.margin_ranking_loss(pos, neg, 1.0);
        g.backward(loss, store);
    }

    /// Every row's name and counters, without its time.
    fn counts(rows: &[OpRow]) -> Vec<(&'static str, u64, u64, u64, u64)> {
        (rows.iter())
            .map(|r| (r.name, r.calls, r.bytes, r.flops, r.spmm_calls))
            .collect()
    }

    fn score_pair() -> Arc<IncidencePair> {
        let heads: Vec<u32> = (0..40).map(|i| i % 7).collect();
        let tails: Vec<u32> = (0..40).map(|i| (i * 3 + 1) % 7).collect();
        let rels: Vec<u32> = (0..40).map(|i| i % 2).collect();
        let fwd = hrt(7, 2, &heads, &rels, &tails, TailSign::Negative).unwrap();
        Arc::new(IncidencePair::new(fwd))
    }

    #[test]
    fn op_rows_accumulate_calls_across_resets() {
        let pair = score_pair();
        let (mut store, p) = store_with("emb", lcg_table(9, 6));
        let mut g = Graph::with_pool(PoolHandle::sequential());
        scored_batch(&mut g, &mut store, p, &pair);
        let once = counts(g.ops());
        // `reset` recycles the nodes and keeps the table.
        scored_batch(&mut g, &mut store, p, &pair);
        scored_batch(&mut g, &mut store, p, &pair);
        let thrice: Vec<_> = (once.iter())
            .map(|&(name, calls, bytes, flops, spmm)| {
                (name, 3 * calls, 3 * bytes, 3 * flops, 3 * spmm)
            })
            .collect();
        assert_eq!(counts(g.ops()), thrice);
        let names: Vec<_> = once.iter().map(|r| r.0).collect();
        let want = [
            "op::spmm_score",
            "op::margin_loss",
            "op::margin_loss_backward",
            "op::spmm_score_backward",
        ];
        assert_eq!(names, want, "one row per op, in first-run order");
        assert_eq!(once[0].1, 2, "both sides charge the one spmm_score row");
    }

    #[test]
    fn clear_ops_empties_the_table_and_rows_restart() {
        let pair = score_pair();
        let (mut store, p) = store_with("emb", lcg_table(9, 6));
        let mut g = Graph::with_pool(PoolHandle::sequential());
        scored_batch(&mut g, &mut store, p, &pair);
        let once = counts(g.ops());
        scored_batch(&mut g, &mut store, p, &pair);
        g.clear_ops();
        assert!(g.ops().is_empty());
        scored_batch(&mut g, &mut store, p, &pair);
        assert_eq!(counts(g.ops()), once);
    }

    #[test]
    fn a_fresh_tape_has_no_op_rows_and_inputs_add_none() {
        let mut g = Graph::new();
        assert!(g.ops().is_empty());
        // Inputs and the mean's forward count nothing and get no row.
        let x = g.input(lcg_table(4, 3));
        let _ = g.mean(x);
        assert!(g.ops().is_empty(), "{:?}", g.ops());
    }

    #[test]
    fn op_rows_record_the_cost_the_kernel_returns() {
        let pair = score_pair();
        let table = lcg_table(9, 6);
        let (store, p) = store_with("emb", table.clone());
        let mut g = Graph::with_pool(PoolHandle::sequential());
        let _ = g.spmm(&store, p, pair.clone());
        let mut out = vec![0.0; pair.forward.rows() * 6];
        let (pool, b) = (PoolHandle::sequential(), table.view());
        let want = csr_spmm_into_with(&pool, &pair.forward, b, &mut out);
        let row = &g.ops()[0];
        assert_eq!((row.name, row.calls), ("op::spmm", 1));
        assert_eq!(cost_of(g.ops()), want);
    }

    #[test]
    fn unfused_spmm_score_records_its_two_ops() {
        let pair = score_pair();
        let (store, p) = store_with("emb", lcg_table(9, 6));
        let mut g = Graph::with_pool(PoolHandle::sequential());
        g.set_fused(false);
        let _ = g.spmm_score(&store, p, pair, RowScore::L2 { eps: 1e-9 });
        let names: Vec<_> = counts(g.ops()).iter().map(|r| (r.0, r.1)).collect();
        assert_eq!(names, [("op::spmm", 1), ("op::l2_norm", 1)]);
    }

    #[test]
    fn concurrent_tapes_keep_exact_tables() {
        let pair = score_pair();
        // The barrier makes every batch of one tape run while the other
        // tape runs the same batch.
        let run = |batches: usize, step: Option<&std::sync::Barrier>| {
            let (mut store, p) = store_with("emb", lcg_table(9, 6));
            let mut g = Graph::with_pool(PoolHandle::sequential());
            for _ in 0..batches {
                step.map(std::sync::Barrier::wait);
                scored_batch(&mut g, &mut store, p, &pair);
            }
            counts(g.ops())
        };
        let alone = run(50, None);
        let step = std::sync::Barrier::new(2);
        let [a, b] = std::thread::scope(|s| {
            let (a, b) = (
                s.spawn(|| run(50, Some(&step))),
                s.spawn(|| run(50, Some(&step))),
            );
            [a.join().unwrap(), b.join().unwrap()]
        });
        assert_eq!(a, alone);
        assert_eq!(b, alone);
    }
}
