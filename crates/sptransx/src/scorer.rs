//! The two evaluation walks every scorer in this crate runs on.
//!
//! A ranking query fixes one entity and a relation and scores every
//! candidate entity for the open slot. What a model contributes is two
//! closures — *form the query vector* and *score one candidate against it*
//! (for the thirteen training models, their [`crate::Family`]'s `query` and
//! `score` hooks; for [`crate::serve::ServeModel`], a gather and a distance).
//! The walks are written once, here:
//!
//! * [`scalar_scores`] — one query, one output `Vec`, candidates one at a
//!   time on the calling thread. The reference.
//! * [`batched_scores_into`] — a chunk of queries: every query vector up
//!   front into one buffer, then one pool-parallel pass over the
//!   `(chunk × num_entities)` output, replacing one heap-allocated `Vec` and
//!   one dispatch *per query* with one of each *per chunk*.
//!
//! Both call the same closures with the same operands in the same order, so
//! they produce bit-identical score buffers (property-tested in
//! `tests/batch_eval_properties.rs`); `tests/kernel_golden.rs` pins the
//! closures themselves across builds.
//!
//! One score from tape to top-k: the distance is [`Norm::distance`] (the
//! tape's own [`tensor::RowScore`] of `a − b`) and the translational query
//! `h + r` / `t − r` is [`QueryDir::translated`], for models and serving alike.

use xparallel::PoolHandle;

use crate::model::Norm;

/// Direction of a batch of ranking queries, fixing how `(u32, u32)` pairs are
/// interpreted: tail queries are `(head, rel)`, head queries are `(rel, tail)`
/// (matching the scalar `score_tails` / `score_heads` argument orders).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryDir {
    /// Predict tails: query entity is the head, relation enters with `+1`
    /// (`q = h + r`).
    Tails,
    /// Predict heads: query entity is the tail, relation enters with `−1`
    /// (`q = t − r`).
    Heads,
}

impl QueryDir {
    /// `(entity, relation)` of one raw query pair under this direction.
    #[inline]
    pub(crate) fn split(self, q: (u32, u32)) -> (u32, u32) {
        match self {
            QueryDir::Tails => (q.0, q.1),
            QueryDir::Heads => (q.1, q.0),
        }
    }

    /// Translates the entity part already in `q` by the relation vector
    /// `r`: `q + r` for tail queries, `q − r` for head queries.
    pub fn translate(self, q: &mut [f32], r: &[f32]) {
        match self {
            QueryDir::Tails => q.iter_mut().zip(r).for_each(|(q, r)| *q += r),
            QueryDir::Heads => q.iter_mut().zip(r).for_each(|(q, r)| *q -= r),
        }
    }

    /// The translational query vector: `q = ent + rel` for tail queries,
    /// `q = ent − rel` for head queries, from the two table rows.
    pub fn translated(self, ent: &[f32], rel: &[f32], q: &mut [f32]) {
        q.copy_from_slice(ent);
        self.translate(q, rel);
    }

    /// Distance between query vector `q` and a projected candidate `cand` in
    /// the operand order of the projection families' score expression:
    /// `‖(h⊥ + r) − t⊥‖` has the query on the left for tails,
    /// `‖h⊥ − (t⊥ − r)‖` the candidate for heads. (The unprojected families
    /// put the query first in both directions; `kernel_golden` pins both
    /// conventions, which only the torus metrics can tell apart.)
    #[inline]
    pub fn distance(self, norm: Norm, q: &[f32], cand: &[f32]) -> f32 {
        match self {
            QueryDir::Tails => norm.distance(q, cand),
            QueryDir::Heads => norm.distance(cand, q),
        }
    }
}

/// The scalar walk: the scores of every candidate `0..n` for one query.
///
/// `query` fills the `k`-float query vector; `score(q, cand, scratch)` scores
/// one candidate against it, with `k` floats of scratch for a candidate
/// transform. Serial, no kernel dispatch: this is what the batched walk is
/// tested against.
pub(crate) fn scalar_scores(
    n: usize,
    k: usize,
    query: impl FnOnce(&mut [f32]),
    score: impl Fn(&[f32], usize, &mut [f32]) -> f32,
) -> Vec<f32> {
    let (mut q, mut scratch) = (vec![0f32; k], vec![0f32; k]);
    query(&mut q);
    (0..n).map(|cand| score(&q, cand, &mut scratch)).collect()
}

/// The batched walk: fills `out[qi * n + cand]` for a chunk of raw query
/// pairs under `dir`.
///
/// `query(ent, rel, q)` fills one `k`-float query vector (all of them are
/// formed before any candidate is scored); `score(rel, q, cand, scratch)`
/// scores one candidate, with `k` floats of per-worker scratch — allocated
/// once per worker window, not per element. The output buffer is split
/// element-granularly across the global pool (a window may start mid-row),
/// but the inner loop walks whole per-query runs, so the query vector is
/// sliced once per run instead of once per candidate.
///
/// # Panics
///
/// Panics if `out.len() != queries.len() * n` or a query's entity is not
/// below `n` (a relation out of range panics in `query`'s row lookup).
pub(crate) fn batched_scores_into(
    (n, k): (usize, usize),
    queries: &[(u32, u32)],
    dir: QueryDir,
    out: &mut [f32],
    query: impl Fn(usize, usize, &mut [f32]),
    score: impl Fn(usize, &[f32], usize, &mut [f32]) -> f32 + Sync,
) {
    assert_eq!(
        out.len(),
        queries.len() * n,
        "score buffer has wrong length"
    );
    if n == 0 {
        return;
    }
    let mut qs = vec![0f32; queries.len() * k];
    for (q, &raw) in qs.chunks_exact_mut(k.max(1)).zip(queries) {
        let (ent, rel) = dir.split(raw);
        assert!(
            (ent as usize) < n,
            "query entity {ent} out of range for {n} entities"
        );
        query(ent as usize, rel as usize, q);
    }
    PoolHandle::global().for_mut(out, 256, |offset, chunk| {
        let mut scratch = vec![0f32; k];
        let mut idx = offset;
        let mut remaining = chunk;
        while !remaining.is_empty() {
            let (qi, cand0) = (idx / n, idx % n);
            let run = (n - cand0).min(remaining.len());
            let (cur, rest) = remaining.split_at_mut(run);
            let q = &qs[qi * k..(qi + 1) * k];
            let rel = dir.split(queries[qi]).1 as usize;
            for (cand, dst) in (cand0..).zip(cur) {
                *dst = score(rel, q, cand, &mut scratch);
            }
            idx += run;
            remaining = rest;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_to_rows_matches_norm() {
        let buffer = [0.0, 0.0, 3.0, 4.0, 1.0, 1.0];
        let scores = |norm: Norm| {
            scalar_scores(
                3,
                2,
                |q| q.fill(0.0),
                |q, cand, _| norm.distance(q, &buffer[cand * 2..(cand + 1) * 2]),
            )
        };
        let d = scores(Norm::L2);
        assert!((d[0] - 0.0).abs() < 1e-6);
        assert!((d[1] - 5.0).abs() < 1e-6);
        let d = scores(Norm::L1);
        assert!((d[2] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn batched_distances_match_distances_to_rows() {
        // Two queries over 6 candidates of width 4: a worker window is free
        // to start mid-row.
        let emb: Vec<f32> = (0..6 * 4).map(|i| (i as f32 * 0.37).sin()).collect();
        let row = |i: usize| &emb[i * 4..(i + 1) * 4];
        let mut out = vec![0f32; 2 * 6];
        batched_scores_into(
            (6, 4),
            &[(5, 0), (2, 0)],
            QueryDir::Tails,
            &mut out,
            |ent, _, q| q.copy_from_slice(row(ent)),
            |_, q, cand, _| Norm::L2.distance(q, row(cand)),
        );
        for (qi, ent) in [5, 2].into_iter().enumerate() {
            let want = scalar_scores(
                6,
                4,
                |q| q.copy_from_slice(row(ent)),
                |q, cand, _| Norm::L2.distance(q, row(cand)),
            );
            assert_eq!(&out[qi * 6..(qi + 1) * 6], want.as_slice());
        }
    }

    #[test]
    fn translate_and_distance_follow_the_direction() {
        let mut q = [1.0, 2.0];
        QueryDir::Tails.translate(&mut q, &[0.5, 0.5]);
        assert_eq!(q, [1.5, 2.5]);
        QueryDir::Heads.translate(&mut q, &[0.5, 0.5]);
        assert_eq!(q, [1.0, 2.0]);
        QueryDir::Heads.translated(&[3.0, 1.0], &[0.5, 0.25], &mut q);
        assert_eq!(q, [2.5, 0.75]);
        // The torus metrics are symmetric only up to rounding; the operand
        // order is part of the contract.
        let (a, b) = ([0.3f32, 0.9], [0.7f32, 0.2]);
        assert_eq!(
            QueryDir::Heads.distance(Norm::TorusL1, &a, &b),
            Norm::TorusL1.distance(&b, &a)
        );
    }
}
