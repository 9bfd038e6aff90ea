//! Sparse TransR (paper §4.4).
//!
//! TransR projects entities into a relation-specific space before
//! translating: `‖Mᵣh + r − Mᵣt‖`. The paper's rearrangement
//! `Mᵣ(h − t) + r` lets the sparse variant compute all `h − t` expressions
//! with one `ht` SpMM and apply **one** projection per triple, where the
//! dense baseline projects head and tail separately (two projections).

use std::sync::Arc;

use kg::eval::TripleScorer;
use kg::{BatchPlan, Dataset};
use sparse::incidence::IncidencePair;
use tensor::{init, Graph, ParamId, ParamStore, Var};

use crate::model::{KgeModel, Norm, TrainConfig};
use crate::models::{build_ht_caches, build_rel_groups, HtCache, RelGroups};
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
/// assert_eq!(model.rel_dim(), 4);
/// # Ok::<(), sptransx::Error>(())
/// ```
#[derive(Debug)]
pub struct SpTransR {
    store: ParamStore,
    ent: ParamId,
    rel: ParamId,
    mats: ParamId,
    num_entities: usize,
    num_relations: usize,
    dim: usize,
    rel_dim: usize,
    norm: Norm,
    batches: Vec<HtCache>,
    by_rel: Vec<RelGroups>,
}

impl SpTransR {
    /// Initializes the model for a dataset.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Config`] for invalid hyperparameters.
    pub fn from_config(dataset: &Dataset, config: &TrainConfig) -> Result<Self> {
        config.validate()?;
        let (n, r) = (dataset.num_entities, dataset.num_relations);
        let (d, k) = (config.dim, config.rel_dim);
        let mut store = ParamStore::new();
        let ent = store.add_param("entities", init::xavier_normalized(n, d, config.seed));
        let rel = store.add_param(
            "relations",
            init::xavier_translational(r, k, config.seed + 1),
        );
        let mats = store.add_param("projections", init::stacked_identity(r, k, d));
        Ok(Self {
            store,
            ent,
            rel,
            mats,
            num_entities: n,
            num_relations: r,
            dim: d,
            rel_dim: k,
            norm: match config.norm {
                Norm::TorusL1 | Norm::TorusL2 => Norm::L2, // torus metrics are TorusE-only
                other => other,
            },
            batches: Vec::new(),
            by_rel: Vec::new(),
        })
    }

    /// Entity embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Relation-space dimension.
    pub fn rel_dim(&self) -> usize {
        self.rel_dim
    }

    /// Number of relations.
    pub fn num_relations(&self) -> usize {
        self.num_relations
    }

    /// Handles to `(entities, relations, projections)` parameters.
    pub fn params(&self) -> (ParamId, ParamId, ParamId) {
        (self.ent, self.rel, self.mats)
    }

    /// Projects `vec` (length `d`) with relation `r`'s matrix into the
    /// relation space (length `k`) — evaluation helper.
    fn project(&self, rel: usize, vec: &[f32]) -> Vec<f32> {
        let mats = self.store.value(self.mats);
        let mat = mats.row(rel);
        let (k, d) = (self.rel_dim, self.dim);
        (0..k)
            .map(|o| {
                let row = &mat[o * d..(o + 1) * d];
                row.iter().zip(vec).map(|(m, v)| m * v).sum()
            })
            .collect()
    }
}

impl KgeModel for SpTransR {
    fn name(&self) -> &'static str {
        "SpTransR"
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn attach_plan(&mut self, plan: &BatchPlan) -> Result<()> {
        self.batches = build_ht_caches(plan, self.num_entities)?;
        self.by_rel = build_rel_groups(plan, self.num_relations)?;
        Ok(())
    }

    fn num_batches(&self) -> usize {
        self.batches.len()
    }

    fn score_batch(&self, g: &mut Graph, batch_idx: usize) -> (Var, Var) {
        let (cache, by_rel) = (&self.batches[batch_idx], &self.by_rel[batch_idx]);
        let side = |g: &mut Graph,
                    pair: &Arc<IncidencePair>,
                    by_rel: &Arc<IncidencePair>,
                    rels: &Arc<Vec<u32>>| {
            // Mᵣ(h − t) + r, one SpMM + one projection per triple. Incidence
            // pairs and index lists are Arc-shared with the tape (no
            // per-batch copy).
            let ht = g.spmm(&self.store, self.ent, pair.clone());
            let proj = g.project_rows(&self.store, self.mats, ht, by_rel.clone(), self.rel_dim);
            let r = g.gather(&self.store, self.rel, rels.clone());
            let expr = g.add(proj, r);
            self.norm.apply(g, expr)
        };
        let pos = side(g, &cache.pos, &by_rel.pos, &cache.pos_rels);
        let neg = side(g, &cache.neg, &by_rel.neg, &cache.neg_rels);
        (pos, neg)
    }

    fn end_epoch(&mut self) {
        crate::model::normalize_leading_rows(&mut self.store, self.ent, self.num_entities);
    }
}

impl TripleScorer for SpTransR {
    fn score_tails(&self, head: u32, rel: u32) -> Vec<f32> {
        let ent = self.store.value(self.ent);
        let r_emb = self.store.value(self.rel);
        let ph = self.project(rel as usize, ent.row(head as usize));
        // score(t) = ‖(Mᵣh + r) − Mᵣt‖.
        let query: Vec<f32> = ph
            .iter()
            .zip(r_emb.row(rel as usize))
            .map(|(a, b)| a + b)
            .collect();
        (0..self.num_entities)
            .map(|t| {
                let pt = self.project(rel as usize, ent.row(t));
                self.norm.distance(&query, &pt)
            })
            .collect()
    }

    fn score_heads(&self, rel: u32, tail: u32) -> Vec<f32> {
        let ent = self.store.value(self.ent);
        let r_emb = self.store.value(self.rel);
        let pt = self.project(rel as usize, ent.row(tail as usize));
        // score(h) = ‖Mᵣh − (Mᵣt − r)‖.
        let query: Vec<f32> = pt
            .iter()
            .zip(r_emb.row(rel as usize))
            .map(|(a, b)| a - b)
            .collect();
        (0..self.num_entities)
            .map(|h| {
                let ph = self.project(rel as usize, ent.row(h));
                self.norm.distance(&ph, &query)
            })
            .collect()
    }

    fn num_entities(&self) -> usize {
        self.num_entities
    }
}

impl kg::eval::BatchScorer for SpTransR {
    fn num_entities(&self) -> usize {
        self.num_entities
    }

    fn score_tails_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
        crate::scorer::projected_scores_into(
            self.store.value(self.ent).as_slice(),
            self.store.value(self.rel).as_slice(),
            self.store.value(self.mats).as_slice(),
            self.num_entities,
            self.dim,
            self.rel_dim,
            self.norm,
            queries,
            crate::scorer::QueryDir::Tails,
            out,
        );
    }

    fn score_heads_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
        crate::scorer::projected_scores_into(
            self.store.value(self.ent).as_slice(),
            self.store.value(self.rel).as_slice(),
            self.store.value(self.mats).as_slice(),
            self.num_entities,
            self.dim,
            self.rel_dim,
            self.norm,
            queries,
            crate::scorer::QueryDir::Heads,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg::synthetic::SyntheticKgBuilder;
    use kg::UniformSampler;

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
        let (ent_id, rel_id, _) = model.params();
        let ent = model.store().value(ent_id);
        let rel = model.store().value(rel_id);
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
        let (ent, rel, mats) = model.params();
        assert!(model.store().grad(ent).frobenius_norm() > 0.0);
        assert!(model.store().grad(rel).frobenius_norm() > 0.0);
        assert!(model.store().grad(mats).frobenius_norm() > 0.0);
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
