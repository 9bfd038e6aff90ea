//! Sparse TransR (paper §4.4).
//!
//! TransR projects entities into a relation-specific space before
//! translating: `‖Mᵣh + r − Mᵣt‖`. The paper's rearrangement
//! `Mᵣ(h − t) + r` lets the sparse variant compute all `h − t` expressions
//! with one `ht` SpMM and apply **one** projection per triple, where the
//! dense baseline projects head and tail separately (two projections).

use std::sync::Arc;

use kg::TripleStore;
use sparse::incidence::RelationGroups;
use tensor::{init, Graph, ParamId, ParamStore, Var};

use crate::model::normalize_leading_rows;
use crate::models::{
    by_relation, ht_side, Cx, Eval, Family, HtSide, Model, RankQuery, Shape, WorkingSet,
};
use crate::scorer::QueryDir;
use crate::Result;

/// The SpTransX TransR model.
///
/// Parameters: entity embeddings `(N, d)`, relation embeddings `(R, k)`, and
/// per-relation projection matrices `(R, k·d)` (each row a `k × d` matrix),
/// initialized to identity blocks as in the original TransR.
///
/// # Examples
///
/// ```
/// use kg::synthetic::SyntheticKgBuilder;
/// use sptransx::{SpTransR, TrainConfig};
///
/// let ds = SyntheticKgBuilder::new(40, 3).triples(200).seed(1).build();
/// let config = TrainConfig { dim: 8, rel_dim: 4, ..Default::default() };
/// let model = SpTransR::from_config(&ds, &config)?;
/// assert_eq!(model.shape().rel_dim, 4);
/// # Ok::<(), sptransx::Error>(())
/// ```
pub type SpTransR = Model<TransR>;

/// The TransR parameters, shared by [`SpTransR`] and
/// [`crate::DenseTransR`] with everything that depends on them alone: their
/// initialization, the entity constraint and the evaluation transforms.
#[derive(Debug, Clone, Copy)]
pub struct Projections {
    /// `entities`, `(N, d)`.
    pub ent: ParamId,
    /// `relations`, `(R, k)`.
    pub rel: ParamId,
    /// `projections`, `(R, k·d)`: one row-major `k × d` matrix per row.
    pub mats: ParamId,
}

impl Projections {
    pub(crate) fn register(store: &mut ParamStore, s: &Shape, seed: u64) -> Self {
        let (r, d, k) = (s.relations, s.dim, s.rel_dim);
        Self {
            ent: store.add_param("entities", init::xavier_normalized(s.entities, d, seed)),
            rel: store.add_param("relations", init::xavier_translational(r, k, seed + 1)),
            mats: store.add_param("projections", init::stacked_identity(r, k, d)),
        }
    }

    pub(crate) fn end_epoch(&self, store: &mut ParamStore, s: &Shape) {
        normalize_leading_rows(store, self.ent, s.entities);
    }

    /// `out = Mᵣ · e`: entity `e` (length `d`) in relation `rel`'s space
    /// (length `k`).
    fn project(&self, ev: &Eval<'_>, rel: usize, e: usize, out: &mut [f32]) {
        let (x, mat) = (ev.row(self.ent, e), ev.row(self.mats, rel));
        for (o, row) in out.iter_mut().zip(mat.chunks_exact(ev.shape.dim)) {
            *o = row.iter().zip(x).map(|(m, v)| m * v).sum();
        }
    }

    /// `q = Mᵣh + r` (tails) or `Mᵣt − r` (heads).
    pub(crate) fn query(
        &self,
        ev: &Eval<'_>,
        dir: QueryDir,
        ent: usize,
        rel: usize,
        q: &mut [f32],
    ) {
        self.project(ev, rel, ent, q);
        dir.translate(q, ev.row(self.rel, rel));
    }

    /// The distance from `q` to the candidate's projection, in the
    /// `k`-dimensional relation space.
    pub(crate) fn score(
        &self,
        ev: &Eval<'_>,
        q: &RankQuery<'_>,
        cand: usize,
        scratch: &mut [f32],
    ) -> f32 {
        self.project(ev, q.rel, cand, scratch);
        q.dir.distance(ev.norm, q.vector, scratch)
    }
}

/// [`SpTransR`]'s family: `Mᵣ(h − t) + r`, one `ht` SpMM and one projection
/// per triple.
#[derive(Debug)]
pub struct TransR(pub Projections);

impl Family for TransR {
    const NAME: &'static str = "SpTransR";
    const WORKING_SET: Option<WorkingSet<Self>> =
        Some(|f, (side, _)| (f.0.ent, side.pair.touched_columns()));
    /// The `ht` side and the side's triples grouped by relation.
    type Side = (HtSide, Arc<RelationGroups>);

    fn init(store: &mut ParamStore, shape: &Shape, seed: u64, _: &TripleStore) -> Self {
        TransR(Projections::register(store, shape, seed))
    }

    fn cache(&self, shape: &Shape, triples: &TripleStore) -> Result<Self::Side> {
        Ok((ht_side(shape, triples)?, by_relation(shape, triples)?))
    }

    fn side(&self, cx: &Cx<'_>, g: &mut Graph, (side, by_rel): &Self::Side) -> Var {
        let (p, k) = (&self.0, cx.shape.rel_dim);
        let ht = g.spmm(cx.store, p.ent, side.pair.clone());
        let proj = g.project_rows(cx.store, p.mats, ht, by_rel.clone(), k);
        let r = g.gather(cx.store, p.rel, side.rels.clone());
        let expr = g.add(proj, r);
        cx.norm.apply(g, expr)
    }

    fn end_epoch(&self, store: &mut ParamStore, shape: &Shape) {
        self.0.end_epoch(store, shape);
    }

    fn query_len(shape: &Shape) -> usize {
        shape.rel_dim
    }

    fn query(&self, ev: &Eval<'_>, dir: QueryDir, ent: usize, rel: usize, q: &mut [f32]) {
        self.0.query(ev, dir, ent, rel, q);
    }

    fn score(&self, ev: &Eval<'_>, q: &RankQuery<'_>, cand: usize, scratch: &mut [f32]) -> f32 {
        self.0.score(ev, q, cand, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KgeModel, TrainConfig};
    use kg::eval::TripleScorer;
    use kg::synthetic::SyntheticKgBuilder;
    use kg::{BatchPlan, Dataset, UniformSampler};

    fn setup() -> (Dataset, SpTransR, BatchPlan) {
        let ds = SyntheticKgBuilder::new(40, 4).triples(300).seed(6).build();
        let config = TrainConfig {
            dim: 8,
            rel_dim: 4,
            batch_size: 64,
            ..Default::default()
        };
        let model = SpTransR::from_config(&ds, &config).unwrap();
        let sampler = UniformSampler::new(ds.num_entities);
        let plan = BatchPlan::build(&ds.train, &ds.all_known(), &sampler, 64, 8);
        (ds, model, plan)
    }

    #[test]
    fn identity_projection_reduces_to_transe_form() {
        // With identity Mᵣ (the init) and k == d, score = ‖(h − t) + r‖.
        let ds = SyntheticKgBuilder::new(30, 2).triples(150).seed(7).build();
        let config = TrainConfig {
            dim: 6,
            rel_dim: 6,
            batch_size: 32,
            ..Default::default()
        };
        let mut model = SpTransR::from_config(&ds, &config).unwrap();
        let sampler = UniformSampler::new(ds.num_entities);
        let plan = BatchPlan::build(&ds.train, &ds.all_known(), &sampler, 32, 9);
        model.attach_plan(&plan).unwrap();
        let mut g = Graph::new();
        let (pos, _) = model.score_batch(&mut g, 0);
        let batch = plan.batch(0);
        let params = model.family().0;
        let ent = model.store().value(params.ent);
        let rel = model.store().value(params.rel);
        for i in 0..batch.len().min(8) {
            let t = batch.pos.get(i);
            let mut dist = 0.0f32;
            for j in 0..6 {
                let v = ent.get(t.head as usize, j) - ent.get(t.tail as usize, j)
                    + rel.get(t.rel as usize, j);
                dist += v * v;
            }
            assert!((g.value(pos).get(i, 0) - dist.sqrt()).abs() < 1e-4);
        }
    }

    #[test]
    fn projection_shape_is_rel_dim() {
        let (_, mut model, plan) = setup();
        model.attach_plan(&plan).unwrap();
        let mut g = Graph::new();
        let (pos, neg) = model.score_batch(&mut g, 0);
        assert_eq!(g.value(pos).shape(), (plan.batch(0).len(), 1));
        assert_eq!(g.value(neg).shape(), (plan.batch(0).len(), 1));
    }

    #[test]
    fn gradients_reach_all_three_params() {
        let (_, mut model, plan) = setup();
        model.attach_plan(&plan).unwrap();
        let mut g = Graph::new();
        let (pos, neg) = model.score_batch(&mut g, 0);
        let loss = g.margin_ranking_loss(pos, neg, 5.0); // large margin: all active
        g.backward(loss, model.store_mut());
        let p = model.family().0;
        for id in [p.ent, p.rel, p.mats] {
            assert!(tensor::Tensor::from_view(model.store().grad(id)).frobenius_norm() > 0.0);
        }
    }

    #[test]
    fn scorer_is_consistent_with_forward() {
        let (_, mut model, plan) = setup();
        model.attach_plan(&plan).unwrap();
        let mut g = Graph::new();
        let (pos, _) = model.score_batch(&mut g, 0);
        let batch = plan.batch(0);
        let t = batch.pos.get(0);
        let tails = model.score_tails(t.head, t.rel);
        assert!((tails[t.tail as usize] - g.value(pos).get(0, 0)).abs() < 1e-3);
        let heads = model.score_heads(t.rel, t.tail);
        assert!((heads[t.head as usize] - g.value(pos).get(0, 0)).abs() < 1e-3);
    }
}
