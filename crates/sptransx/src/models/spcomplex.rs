//! Sparse ComplEx (paper Appendix D, trainable).
//!
//! ComplEx scores triples with `Re(⟨h, r, t̄⟩)` over complex embeddings —
//! a similarity (higher is better). It is the incidence traversal of
//! [`tensor::Graph::semiring_score`] under [`Semiring::ComplEx`], the
//! complex-conjugate semiring of Appendix D; scores are negated on the tape
//! for the margin-ranking trainer.

use kg::TripleStore;
use sparse::incidence::TailSign;
use sparse::Complex32;
use tensor::{init, Graph, ParamStore, Semiring, Var};

use crate::models::{hrt_side, Cx, Eval, Family, HrtSide, Model, RankQuery, Shape, Stacked};
use crate::scorer::QueryDir;
use crate::Result;

/// The semiring-SpMM ComplEx model.
///
/// `config.dim` is the complex dimension (the parameter has `2 · dim`
/// interleaved columns).
///
/// # Examples
///
/// ```
/// use kg::synthetic::SyntheticKgBuilder;
/// use sptransx::{SpComplEx, TrainConfig};
///
/// let ds = SyntheticKgBuilder::new(40, 3).triples(200).seed(1).build();
/// let model = SpComplEx::from_config(&ds, &TrainConfig { dim: 8, ..Default::default() })?;
/// assert_eq!(sptransx::KgeModel::name(&model), "SpComplEx");
/// # Ok::<(), sptransx::Error>(())
/// ```
pub type SpComplEx = Model<ComplEx>;

/// [`SpComplEx`]'s family: one stacked table of interleaved `(re, im)`
/// pairs, the complex-conjugate semiring score negated, no constraint.
#[derive(Debug)]
pub struct ComplEx(pub Stacked);

/// The complex numbers of one interleaved `(re, im)` row.
pub(crate) fn complex(row: &[f32]) -> impl Iterator<Item = Complex32> + '_ {
    row.chunks_exact(2).map(|z| Complex32::new(z[0], z[1]))
}

/// `q = h ∘ r` for tail queries — the candidate-independent half of both
/// complex scores. For head queries the candidate multiplies the relation
/// *first* (`h ∘ r ∘ t̄`, `h ∘ r − t`), so nothing can be factored out without
/// changing the float association: `q` is the tail's row, and the scores
/// form the product per candidate.
pub(crate) fn complex_query(
    table: &Stacked,
    ev: &Eval<'_>,
    dir: QueryDir,
    ent: usize,
    rel: usize,
    q: &mut [f32],
) {
    let e = table.entity(ev, ent);
    match dir {
        QueryDir::Heads => q.copy_from_slice(e),
        QueryDir::Tails => {
            let hr = complex(e).zip(complex(table.relation(ev, rel)));
            for (q, (h, r)) in q.chunks_exact_mut(2).zip(hr) {
                let z = h * r;
                (q[0], q[1]) = (z.re, z.im);
            }
        }
    }
}

impl Family for ComplEx {
    const NAME: &'static str = "SpComplEx";
    const WORKING_SET: super::WorkingSet<Self> = |f, side| f.0.working_set(side);
    type Side = HrtSide;

    fn init(store: &mut ParamStore, s: &Shape, seed: u64, _: &TripleStore) -> Self {
        let emb = init::xavier_normalized(s.entities + s.relations, 2 * s.dim, seed);
        ComplEx(Stacked::register(store, emb))
    }

    fn cache(&self, shape: &Shape, triples: &TripleStore) -> Result<HrtSide> {
        hrt_side(shape, triples, TailSign::Negative)
    }

    fn side(&self, cx: &Cx<'_>, g: &mut Graph, side: &HrtSide) -> Var {
        let sim = g.semiring_score(cx.store, self.0.emb, side.clone(), Semiring::ComplEx);
        // Similarity -> pseudo-distance.
        g.scale(sim, -1.0)
    }

    fn query_len(shape: &Shape) -> usize {
        2 * shape.dim
    }

    fn query(&self, ev: &Eval<'_>, dir: QueryDir, ent: usize, rel: usize, q: &mut [f32]) {
        complex_query(&self.0, ev, dir, ent, rel, q);
    }

    /// `−Σⱼ Re(hⱼ rⱼ t̄ⱼ)`, associated `(h r) t̄` in both directions.
    fn score(&self, ev: &Eval<'_>, q: &RankQuery<'_>, cand: usize, _: &mut [f32]) -> f32 {
        let c = complex(self.0.entity(ev, cand));
        let sim: f32 = match q.dir {
            QueryDir::Tails => complex(q.vector)
                .zip(c)
                .map(|(hr, t)| (hr * t.conj()).re)
                .sum(),
            QueryDir::Heads => c
                .zip(complex(self.0.relation(ev, q.rel)))
                .zip(complex(q.vector))
                .map(|((h, r), t)| (h * r * t.conj()).re)
                .sum(),
        };
        -sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KgeModel, TrainConfig};
    use kg::eval::TripleScorer;
    use kg::synthetic::SyntheticKgBuilder;
    use kg::{BatchPlan, Dataset, UniformSampler};

    /// ComplEx similarity of one triple, from the table.
    fn similarity(model: &SpComplEx, head: u32, rel: u32, tail: u32) -> f32 {
        let emb = model.store().value(model.embedding_param());
        let r = model.num_entities() + rel as usize;
        complex(emb.row(head as usize))
            .zip(complex(emb.row(r)))
            .zip(complex(emb.row(tail as usize)))
            .map(|((a, b), c)| (a * b * c.conj()).re)
            .sum()
    }

    fn setup() -> (Dataset, SpComplEx, BatchPlan) {
        let ds = SyntheticKgBuilder::new(40, 4).triples(300).seed(60).build();
        let config = TrainConfig {
            dim: 4,
            batch_size: 64,
            ..Default::default()
        };
        let model = SpComplEx::from_config(&ds, &config).unwrap();
        let sampler = UniformSampler::new(ds.num_entities);
        let plan = BatchPlan::build(&ds.train, &ds.all_known(), &sampler, 64, 61);
        (ds, model, plan)
    }

    #[test]
    fn tape_scores_match_similarity() {
        let (_, mut model, plan) = setup();
        model.attach_plan(&plan).unwrap();
        let mut g = Graph::new();
        let (pos, _) = model.score_batch(&mut g, 0);
        let batch = plan.batch(0);
        for i in 0..batch.len().min(10) {
            let t = batch.pos.get(i);
            let want = -similarity(&model, t.head, t.rel, t.tail);
            assert!((g.value(pos).get(i, 0) - want).abs() < 1e-4);
        }
    }

    #[test]
    fn complex_is_antisymmetric_capable() {
        // Unlike DistMult, ComplEx can distinguish (h, r, t) from (t, r, h)
        // when embeddings have imaginary parts.
        let (_, model, plan) = setup();
        let t = plan.batch(0).pos.get(0);
        let fwd = similarity(&model, t.head, t.rel, t.tail);
        let bwd = similarity(&model, t.tail, t.rel, t.head);
        assert!((fwd - bwd).abs() > 1e-9, "scores unexpectedly symmetric");
    }

    #[test]
    fn gradients_flow() {
        let (_, mut model, plan) = setup();
        model.attach_plan(&plan).unwrap();
        let mut g = Graph::new();
        let (pos, neg) = model.score_batch(&mut g, 0);
        let loss = g.margin_ranking_loss(pos, neg, 5.0);
        g.backward(loss, model.store_mut());
        assert!(
            tensor::Tensor::from_view(model.store().grad(model.embedding_param())).frobenius_norm()
                > 0.0
        );
    }

    #[test]
    fn scorer_matches_similarity() {
        let (_, model, plan) = setup();
        let t = plan.batch(0).pos.get(0);
        let tails = model.score_tails(t.head, t.rel);
        assert!((tails[t.tail as usize] + similarity(&model, t.head, t.rel, t.tail)).abs() < 1e-5);
    }

    #[test]
    fn complex_similarity_matches_manual() {
        // h = 1+i, r = i, t = 2 - i: Re(h*r*conj(t)).
        let ds = SyntheticKgBuilder::new(2, 1).triples(2).seed(1).build();
        let config = TrainConfig {
            dim: 1,
            ..Default::default()
        };
        let mut model = SpComplEx::from_config(&ds, &config).unwrap();
        let emb = model.embedding_param();
        model
            .store_mut()
            .value_mut(emb)
            .as_mut_slice()
            .copy_from_slice(&[
                1.0, 1.0, // e0 = h
                2.0, -1.0, // e1 = t
                0.0, 1.0, // r0
            ]);
        let h = Complex32::new(1.0, 1.0);
        let r = Complex32::new(0.0, 1.0);
        let t = Complex32::new(2.0, -1.0);
        let want = (h * r * t.conj()).re;
        assert!((model.score_tails(0, 0)[1] + want).abs() < 1e-5);
        assert!((model.score_heads(0, 1)[0] + want).abs() < 1e-5);
    }
}
