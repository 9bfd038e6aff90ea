//! Sparse DistMult (paper Appendix D).
//!
//! DistMult is a bilinear (semantic matching) model with score
//! `⟨h, r, t⟩ = Σⱼ hⱼ rⱼ tⱼ` — **higher is better**, unlike the
//! translational distances. Appendix D shows the same incidence-matrix
//! traversal computes it when the SpMM semiring is switched to `(×, ×)`;
//! this model is that traversal ([`tensor::Graph::semiring_score`]) under
//! [`Semiring::DistMult`], over an **unsigned** `hrt` incidence matrix.
//!
//! To reuse the margin-ranking trainer (which minimizes positive
//! *distances*), scores are negated on the tape.

use kg::TripleStore;
use sparse::incidence::TailSign;
use tensor::{init, Graph, ParamStore, Semiring, Var};

use crate::models::{hrt_side, Cx, Eval, Family, HrtSide, Model, RankQuery, Shape, Stacked};
use crate::scorer::QueryDir;
use crate::Result;

/// The semiring-SpMM DistMult model.
///
/// # Examples
///
/// ```
/// use kg::synthetic::SyntheticKgBuilder;
/// use sptransx::{SpDistMult, TrainConfig};
///
/// let ds = SyntheticKgBuilder::new(40, 3).triples(200).seed(1).build();
/// let model = SpDistMult::from_config(&ds, &TrainConfig { dim: 8, ..Default::default() })?;
/// assert_eq!(sptransx::KgeModel::name(&model), "SpDistMult");
/// # Ok::<(), sptransx::Error>(())
/// ```
pub type SpDistMult = Model<DistMult>;

/// [`SpDistMult`]'s family: one stacked table, the `(×, ×)` semiring score
/// negated, no constraint.
#[derive(Debug)]
pub struct DistMult(pub Stacked);

impl Family for DistMult {
    const NAME: &'static str = "SpDistMult";
    const WORKING_SET: super::WorkingSet<Self> = |f, side| f.0.working_set(side);
    type Side = HrtSide;

    fn init(store: &mut ParamStore, s: &Shape, seed: u64, _: &TripleStore) -> Self {
        // Unit-normalized init keeps triple products in a sane range.
        let emb = init::xavier_normalized(s.entities + s.relations, s.dim, seed);
        DistMult(Stacked::register(store, emb))
    }

    fn cache(&self, shape: &Shape, triples: &TripleStore) -> Result<HrtSide> {
        // Positive tail sign: the (×,×) semiring ignores signs, and an
        // all-+1 matrix keeps the formulation of Appendix D literal.
        hrt_side(shape, triples, TailSign::Positive)
    }

    fn side(&self, cx: &Cx<'_>, g: &mut Graph, side: &HrtSide) -> Var {
        let sim = g.semiring_score(cx.store, self.0.emb, side.clone(), Semiring::DistMult);
        // Similarity -> pseudo-distance for the margin ranking loss.
        g.scale(sim, -1.0)
    }

    /// `q = h ⊙ r` for tails, `t ⊙ r` for heads: the product commutes, so
    /// one expression serves both directions.
    fn query(&self, ev: &Eval<'_>, _: QueryDir, ent: usize, rel: usize, q: &mut [f32]) {
        let (e, r) = (self.0.entity(ev, ent), self.0.relation(ev, rel));
        for ((q, a), b) in q.iter_mut().zip(e).zip(r) {
            *q = a * b;
        }
    }

    fn score(&self, ev: &Eval<'_>, q: &RankQuery<'_>, cand: usize, _: &mut [f32]) -> f32 {
        let e = self.0.entity(ev, cand);
        -q.vector.iter().zip(e).map(|(a, b)| a * b).sum::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KgeModel, TrainConfig};
    use kg::eval::TripleScorer;
    use kg::synthetic::SyntheticKgBuilder;
    use kg::{BatchPlan, Dataset, UniformSampler};

    /// Raw (similarity) score of one triple, `Σⱼ hⱼ rⱼ tⱼ`, from the table.
    fn similarity(model: &SpDistMult, head: u32, rel: u32, tail: u32) -> f32 {
        let emb = model.store().value(model.embedding_param());
        let h = emb.row(head as usize);
        let r = emb.row(model.num_entities() + rel as usize);
        let t = emb.row(tail as usize);
        h.iter().zip(r).zip(t).map(|((a, b), c)| a * b * c).sum()
    }

    fn setup() -> (Dataset, SpDistMult, BatchPlan) {
        let ds = SyntheticKgBuilder::new(40, 4).triples(300).seed(13).build();
        let config = TrainConfig {
            dim: 8,
            batch_size: 64,
            ..Default::default()
        };
        let model = SpDistMult::from_config(&ds, &config).unwrap();
        let sampler = UniformSampler::new(ds.num_entities);
        let plan = BatchPlan::build(&ds.train, &ds.all_known(), &sampler, 64, 14);
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
    fn symmetry_of_distmult() {
        // DistMult is symmetric in head/tail by construction.
        let (_, model, plan) = setup();
        let t = plan.batch(0).pos.get(0);
        let a = similarity(&model, t.head, t.rel, t.tail);
        let b = similarity(&model, t.tail, t.rel, t.head);
        assert!((a - b).abs() < 1e-5);
    }

    #[test]
    fn gradients_flow_through_semiring() {
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
}
