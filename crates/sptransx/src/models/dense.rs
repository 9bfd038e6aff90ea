//! Dense (gather/scatter) baselines — the "non-sparse" competitors.
//!
//! These mirror how TorchKGE / PyG / DGL-KE train the same models: per batch,
//! embedding rows are **gathered** per triple component (paper Figure 1a),
//! the score expression is assembled with elementwise tensor ops, and the
//! backward pass **scatter-adds** gradients into the embedding tables
//! (Figure 1b). Mathematically identical to the sparse variants — the paper's
//! point is that only the *computation schedule* differs.
//!
//! Two fidelity details copied from the baselines the paper profiles:
//!
//! * Dense TransR projects head and tail **separately** (`Mᵣh`, `Mᵣt`) —
//!   twice the projection work of the rearranged sparse form.
//! * Dense TransH projects head and tail onto the hyperplane separately —
//!   two dot products and two rank-1 corrections per triple, with a larger
//!   computational graph (the paper's explanation for TransH's memory gap).

use std::sync::Arc;

use kg::eval::TripleScorer;
use kg::{BatchPlan, Dataset};
use sparse::incidence::IncidencePair;
use tensor::{init, Graph, ParamId, ParamStore, Tensor, Var};

use crate::model::{normalize_leading_rows, KgeModel, Norm, TrainConfig};
use crate::models::{build_dense_caches, build_rel_groups, DenseCache, RelGroups};
use crate::scorer::{
    distances_to_rows, gathered_translational_scores_into, hyperplane_scores_into,
    projected_scores_into, QueryDir,
};
use crate::Result;

/// Implements [`kg::eval::BatchScorer`] for a dense TransE-style baseline by
/// gathering query vectors from the split entity/relation tables and running
/// the shared pool-parallel distance pass.
macro_rules! impl_gathered_batch_scorer {
    ($ty:ident) => {
        impl kg::eval::BatchScorer for $ty {
            fn num_entities(&self) -> usize {
                self.num_entities
            }

            fn score_tails_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
                gathered_translational_scores_into(
                    self.store.value(self.ent).as_slice(),
                    self.store.value(self.rel).as_slice(),
                    self.num_entities,
                    self.dim,
                    self.norm,
                    queries,
                    QueryDir::Tails,
                    out,
                );
            }

            fn score_heads_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
                gathered_translational_scores_into(
                    self.store.value(self.ent).as_slice(),
                    self.store.value(self.rel).as_slice(),
                    self.num_entities,
                    self.dim,
                    self.norm,
                    queries,
                    QueryDir::Heads,
                    out,
                );
            }
        }
    };
}

/// Builds the stacked `(N+R) × d` init used by the sparse models, then
/// splits it into separate entity/relation tensors so dense and sparse
/// variants start from bit-identical parameters.
fn split_stacked_init(
    n: usize,
    r: usize,
    d: usize,
    seed: u64,
    normalize: bool,
) -> (Tensor, Tensor) {
    let stacked = if normalize {
        crate::models::stacked_transe_init(n, r, d, seed)
    } else {
        let mut t = init::uniform(n + r, d, 0.5, seed);
        for x in t.as_mut_slice() {
            *x += 0.5;
        }
        t
    };
    let buf = stacked.as_slice();
    let ent = Tensor::from_vec(n, d, buf[..n * d].to_vec());
    let rel = Tensor::from_vec(r, d, buf[n * d..].to_vec());
    (ent, rel)
}

macro_rules! impl_common_accessors {
    ($ty:ident) => {
        impl $ty {
            /// Embedding dimension.
            pub fn dim(&self) -> usize {
                self.dim
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Dense TransE
// ---------------------------------------------------------------------------

/// Gather/scatter TransE baseline (TorchKGE-style).
///
/// # Examples
///
/// ```
/// use kg::synthetic::SyntheticKgBuilder;
/// use sptransx::{DenseTransE, TrainConfig};
///
/// let ds = SyntheticKgBuilder::new(40, 3).triples(200).seed(1).build();
/// let model = DenseTransE::from_config(&ds, &TrainConfig { dim: 8, ..Default::default() })?;
/// assert_eq!(sptransx::KgeModel::name(&model), "TransE-dense");
/// # Ok::<(), sptransx::Error>(())
/// ```
#[derive(Debug)]
pub struct DenseTransE {
    store: ParamStore,
    ent: ParamId,
    rel: ParamId,
    num_entities: usize,
    dim: usize,
    norm: Norm,
    batches: Vec<DenseCache>,
}

impl DenseTransE {
    /// Initializes the model (bit-identical init to [`crate::SpTransE`] for
    /// the same config).
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Config`] for invalid hyperparameters.
    pub fn from_config(dataset: &Dataset, config: &TrainConfig) -> Result<Self> {
        config.validate()?;
        let (n, r, d) = (dataset.num_entities, dataset.num_relations, config.dim);
        let (ent_t, rel_t) = split_stacked_init(n, r, d, config.seed, true);
        let mut store = ParamStore::new();
        let ent = store.add_param("entities", ent_t);
        let rel = store.add_param("relations", rel_t);
        Ok(Self {
            store,
            ent,
            rel,
            num_entities: n,
            dim: d,
            norm: config.norm,
            batches: Vec::new(),
        })
    }

    fn side(
        &self,
        g: &mut Graph,
        heads: &Arc<Vec<u32>>,
        rels: &Arc<Vec<u32>>,
        tails: &Arc<Vec<u32>>,
    ) -> Var {
        let h = g.gather(&self.store, self.ent, heads.clone());
        let r = g.gather(&self.store, self.rel, rels.clone());
        let t = g.gather(&self.store, self.ent, tails.clone());
        let hr = g.add(h, r);
        let expr = g.sub(hr, t);
        self.norm.apply(g, expr)
    }
}

impl_common_accessors!(DenseTransE);

impl KgeModel for DenseTransE {
    fn name(&self) -> &'static str {
        "TransE-dense"
    }
    fn store(&self) -> &ParamStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
    fn attach_plan(&mut self, plan: &BatchPlan) -> Result<()> {
        self.batches = build_dense_caches(plan);
        Ok(())
    }
    fn num_batches(&self) -> usize {
        self.batches.len()
    }
    fn score_batch(&self, g: &mut Graph, batch_idx: usize) -> (Var, Var) {
        let c = &self.batches[batch_idx];
        let pos = self.side(g, &c.pos_heads, &c.pos_rels, &c.pos_tails);
        let neg = self.side(g, &c.neg_heads, &c.neg_rels, &c.neg_tails);
        (pos, neg)
    }
    fn end_epoch(&mut self) {
        normalize_leading_rows(&mut self.store, self.ent, self.num_entities);
    }
}

impl TripleScorer for DenseTransE {
    fn score_tails(&self, head: u32, rel: u32) -> Vec<f32> {
        let ent = self.store.value(self.ent);
        let r = self.store.value(self.rel);
        let query: Vec<f32> = ent
            .row(head as usize)
            .iter()
            .zip(r.row(rel as usize))
            .map(|(a, b)| a + b)
            .collect();
        distances_to_rows(
            ent.as_slice(),
            self.num_entities,
            self.dim,
            &query,
            self.norm,
        )
    }
    fn score_heads(&self, rel: u32, tail: u32) -> Vec<f32> {
        let ent = self.store.value(self.ent);
        let r = self.store.value(self.rel);
        let query: Vec<f32> = ent
            .row(tail as usize)
            .iter()
            .zip(r.row(rel as usize))
            .map(|(a, b)| a - b)
            .collect();
        distances_to_rows(
            ent.as_slice(),
            self.num_entities,
            self.dim,
            &query,
            self.norm,
        )
    }
    fn num_entities(&self) -> usize {
        self.num_entities
    }
}

impl_gathered_batch_scorer!(DenseTransE);

// ---------------------------------------------------------------------------
// Dense TorusE
// ---------------------------------------------------------------------------

/// Gather/scatter TorusE baseline.
#[derive(Debug)]
pub struct DenseTorusE {
    store: ParamStore,
    ent: ParamId,
    rel: ParamId,
    num_entities: usize,
    dim: usize,
    norm: Norm,
    batches: Vec<DenseCache>,
}

impl DenseTorusE {
    /// Initializes the model (bit-identical init to [`crate::SpTorusE`]).
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Config`] for invalid hyperparameters.
    pub fn from_config(dataset: &Dataset, config: &TrainConfig) -> Result<Self> {
        config.validate()?;
        let (n, r, d) = (dataset.num_entities, dataset.num_relations, config.dim);
        let (ent_t, rel_t) = split_stacked_init(n, r, d, config.seed, false);
        let norm = match config.norm {
            Norm::L1 | Norm::TorusL1 => Norm::TorusL1,
            _ => Norm::TorusL2,
        };
        let mut store = ParamStore::new();
        let ent = store.add_param("entities", ent_t);
        let rel = store.add_param("relations", rel_t);
        Ok(Self {
            store,
            ent,
            rel,
            num_entities: n,
            dim: d,
            norm,
            batches: Vec::new(),
        })
    }
}

impl_common_accessors!(DenseTorusE);

impl KgeModel for DenseTorusE {
    fn name(&self) -> &'static str {
        "TorusE-dense"
    }
    fn store(&self) -> &ParamStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
    fn attach_plan(&mut self, plan: &BatchPlan) -> Result<()> {
        self.batches = build_dense_caches(plan);
        Ok(())
    }
    fn num_batches(&self) -> usize {
        self.batches.len()
    }
    fn score_batch(&self, g: &mut Graph, batch_idx: usize) -> (Var, Var) {
        let c = &self.batches[batch_idx];
        let side =
            |g: &mut Graph, heads: &Arc<Vec<u32>>, rels: &Arc<Vec<u32>>, tails: &Arc<Vec<u32>>| {
                let h = g.gather(&self.store, self.ent, heads.clone());
                let r = g.gather(&self.store, self.rel, rels.clone());
                let t = g.gather(&self.store, self.ent, tails.clone());
                let hr = g.add(h, r);
                let expr = g.sub(hr, t);
                self.norm.apply(g, expr)
            };
        let pos = side(g, &c.pos_heads, &c.pos_rels, &c.pos_tails);
        let neg = side(g, &c.neg_heads, &c.neg_rels, &c.neg_tails);
        (pos, neg)
    }
}

impl TripleScorer for DenseTorusE {
    fn score_tails(&self, head: u32, rel: u32) -> Vec<f32> {
        let ent = self.store.value(self.ent);
        let r = self.store.value(self.rel);
        let query: Vec<f32> = ent
            .row(head as usize)
            .iter()
            .zip(r.row(rel as usize))
            .map(|(a, b)| a + b)
            .collect();
        distances_to_rows(
            ent.as_slice(),
            self.num_entities,
            self.dim,
            &query,
            self.norm,
        )
    }
    fn score_heads(&self, rel: u32, tail: u32) -> Vec<f32> {
        let ent = self.store.value(self.ent);
        let r = self.store.value(self.rel);
        let query: Vec<f32> = ent
            .row(tail as usize)
            .iter()
            .zip(r.row(rel as usize))
            .map(|(a, b)| a - b)
            .collect();
        distances_to_rows(
            ent.as_slice(),
            self.num_entities,
            self.dim,
            &query,
            self.norm,
        )
    }
    fn num_entities(&self) -> usize {
        self.num_entities
    }
}

impl_gathered_batch_scorer!(DenseTorusE);

// ---------------------------------------------------------------------------
// Dense TransR
// ---------------------------------------------------------------------------

/// Gather/scatter TransR baseline: projects head and tail separately, as
/// TorchKGE does (`‖Mᵣh + r − Mᵣt‖`).
#[derive(Debug)]
pub struct DenseTransR {
    store: ParamStore,
    ent: ParamId,
    rel: ParamId,
    mats: ParamId,
    num_entities: usize,
    dim: usize,
    rel_dim: usize,
    norm: Norm,
    batches: Vec<DenseCache>,
    by_rel: Vec<RelGroups>,
}

impl DenseTransR {
    /// Initializes the model (bit-identical init to [`crate::SpTransR`]).
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
            dim: d,
            rel_dim: k,
            norm: match config.norm {
                Norm::TorusL1 | Norm::TorusL2 => Norm::L2,
                other => other,
            },
            batches: Vec::new(),
            by_rel: Vec::new(),
        })
    }
}

impl_common_accessors!(DenseTransR);

impl KgeModel for DenseTransR {
    fn name(&self) -> &'static str {
        "TransR-dense"
    }
    fn store(&self) -> &ParamStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
    fn attach_plan(&mut self, plan: &BatchPlan) -> Result<()> {
        self.batches = build_dense_caches(plan);
        self.by_rel = build_rel_groups(plan, self.store.param_shape(self.mats).0)?;
        Ok(())
    }
    fn num_batches(&self) -> usize {
        self.batches.len()
    }
    fn score_batch(&self, g: &mut Graph, batch_idx: usize) -> (Var, Var) {
        let (c, by_rel) = (&self.batches[batch_idx], &self.by_rel[batch_idx]);
        let side = |g: &mut Graph,
                    heads: &Arc<Vec<u32>>,
                    rels: &Arc<Vec<u32>>,
                    by_rel: &Arc<IncidencePair>,
                    tails: &Arc<Vec<u32>>| {
            let h = g.gather(&self.store, self.ent, heads.clone());
            let t = g.gather(&self.store, self.ent, tails.clone());
            // Two projections per triple (the un-rearranged formulation).
            let ph = g.project_rows(&self.store, self.mats, h, by_rel.clone(), self.rel_dim);
            let pt = g.project_rows(&self.store, self.mats, t, by_rel.clone(), self.rel_dim);
            let r = g.gather(&self.store, self.rel, rels.clone());
            let phr = g.add(ph, r);
            let expr = g.sub(phr, pt);
            self.norm.apply(g, expr)
        };
        let pos = side(g, &c.pos_heads, &c.pos_rels, &by_rel.pos, &c.pos_tails);
        let neg = side(g, &c.neg_heads, &c.neg_rels, &by_rel.neg, &c.neg_tails);
        (pos, neg)
    }
    fn end_epoch(&mut self) {
        normalize_leading_rows(&mut self.store, self.ent, self.num_entities);
    }
}

impl DenseTransR {
    /// Projects `vec` with relation `rel`'s matrix (evaluation helper).
    fn project(&self, rel: usize, vec: &[f32]) -> Vec<f32> {
        let mats = self.store.value(self.mats);
        let mat = mats.row(rel);
        let (k, d) = (self.rel_dim, self.dim);
        (0..k)
            .map(|o| {
                mat[o * d..(o + 1) * d]
                    .iter()
                    .zip(vec)
                    .map(|(m, v)| m * v)
                    .sum()
            })
            .collect()
    }
}

impl TripleScorer for DenseTransR {
    fn score_tails(&self, head: u32, rel: u32) -> Vec<f32> {
        let ent = self.store.value(self.ent);
        let r_emb = self.store.value(self.rel);
        let ph = self.project(rel as usize, ent.row(head as usize));
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

impl kg::eval::BatchScorer for DenseTransR {
    fn num_entities(&self) -> usize {
        self.num_entities
    }

    fn score_tails_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
        projected_scores_into(
            self.store.value(self.ent).as_slice(),
            self.store.value(self.rel).as_slice(),
            self.store.value(self.mats).as_slice(),
            self.num_entities,
            self.dim,
            self.rel_dim,
            self.norm,
            queries,
            QueryDir::Tails,
            out,
        );
    }

    fn score_heads_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
        projected_scores_into(
            self.store.value(self.ent).as_slice(),
            self.store.value(self.rel).as_slice(),
            self.store.value(self.mats).as_slice(),
            self.num_entities,
            self.dim,
            self.rel_dim,
            self.norm,
            queries,
            QueryDir::Heads,
            out,
        );
    }
}

// ---------------------------------------------------------------------------
// Dense TransH
// ---------------------------------------------------------------------------

/// Gather/scatter TransH baseline: projects head and tail onto the
/// hyperplane separately (`h⊥ + dᵣ − t⊥`), with the larger computational
/// graph the paper attributes to baseline TransH implementations.
#[derive(Debug)]
pub struct DenseTransH {
    store: ParamStore,
    ent: ParamId,
    normals: ParamId,
    translations: ParamId,
    num_entities: usize,
    num_relations: usize,
    dim: usize,
    norm: Norm,
    batches: Vec<DenseCache>,
}

impl DenseTransH {
    /// Initializes the model (bit-identical init to [`crate::SpTransH`]).
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Config`] for invalid hyperparameters.
    pub fn from_config(dataset: &Dataset, config: &TrainConfig) -> Result<Self> {
        config.validate()?;
        let (n, r, d) = (dataset.num_entities, dataset.num_relations, config.dim);
        let mut store = ParamStore::new();
        let ent = store.add_param("entities", init::xavier_normalized(n, d, config.seed));
        let normals = store.add_param("normals", init::xavier_normalized(r, d, config.seed + 1));
        let translations = store.add_param(
            "translations",
            init::xavier_translational(r, d, config.seed + 2),
        );
        Ok(Self {
            store,
            ent,
            normals,
            translations,
            num_entities: n,
            num_relations: r,
            dim: d,
            norm: match config.norm {
                Norm::TorusL1 | Norm::TorusL2 => Norm::L2,
                other => other,
            },
            batches: Vec::new(),
        })
    }
}

impl_common_accessors!(DenseTransH);

impl KgeModel for DenseTransH {
    fn name(&self) -> &'static str {
        "TransH-dense"
    }
    fn store(&self) -> &ParamStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
    fn attach_plan(&mut self, plan: &BatchPlan) -> Result<()> {
        self.batches = build_dense_caches(plan);
        Ok(())
    }
    fn num_batches(&self) -> usize {
        self.batches.len()
    }
    fn score_batch(&self, g: &mut Graph, batch_idx: usize) -> (Var, Var) {
        let c = &self.batches[batch_idx];
        let side =
            |g: &mut Graph, heads: &Arc<Vec<u32>>, rels: &Arc<Vec<u32>>, tails: &Arc<Vec<u32>>| {
                let h = g.gather(&self.store, self.ent, heads.clone());
                let t = g.gather(&self.store, self.ent, tails.clone());
                let w = g.gather(&self.store, self.normals, rels.clone());
                let dr = g.gather(&self.store, self.translations, rels.clone());
                // h⊥ = h − (wᵀh)w; t⊥ = t − (wᵀt)w — two separate projections.
                let dot_h = g.row_dot(w, h);
                let corr_h = g.scale_rows(w, dot_h);
                let hp = g.sub(h, corr_h);
                let dot_t = g.row_dot(w, t);
                let corr_t = g.scale_rows(w, dot_t);
                let tp = g.sub(t, corr_t);
                let hpd = g.add(hp, dr);
                let expr = g.sub(hpd, tp);
                self.norm.apply(g, expr)
            };
        let pos = side(g, &c.pos_heads, &c.pos_rels, &c.pos_tails);
        let neg = side(g, &c.neg_heads, &c.neg_rels, &c.neg_tails);
        (pos, neg)
    }
    fn end_epoch(&mut self) {
        normalize_leading_rows(&mut self.store, self.ent, self.num_entities);
        normalize_leading_rows(&mut self.store, self.normals, self.num_relations);
    }
}

impl DenseTransH {
    /// Projects `x` onto relation `rel`'s hyperplane (evaluation helper).
    fn project(&self, rel: usize, x: &[f32]) -> Vec<f32> {
        let w = self.store.value(self.normals).row(rel);
        let dot: f32 = w.iter().zip(x).map(|(a, b)| a * b).sum();
        x.iter().zip(w).map(|(xi, wi)| xi - dot * wi).collect()
    }
}

impl TripleScorer for DenseTransH {
    fn score_tails(&self, head: u32, rel: u32) -> Vec<f32> {
        let ent = self.store.value(self.ent);
        let dr = self.store.value(self.translations).row(rel as usize);
        let hp = self.project(rel as usize, ent.row(head as usize));
        let query: Vec<f32> = hp.iter().zip(dr).map(|(a, b)| a + b).collect();
        (0..self.num_entities)
            .map(|t| {
                let tp = self.project(rel as usize, ent.row(t));
                self.norm.distance(&query, &tp)
            })
            .collect()
    }
    fn score_heads(&self, rel: u32, tail: u32) -> Vec<f32> {
        let ent = self.store.value(self.ent);
        let dr = self.store.value(self.translations).row(rel as usize);
        let tp = self.project(rel as usize, ent.row(tail as usize));
        let query: Vec<f32> = tp.iter().zip(dr).map(|(a, b)| a - b).collect();
        (0..self.num_entities)
            .map(|h| {
                let hp = self.project(rel as usize, ent.row(h));
                self.norm.distance(&hp, &query)
            })
            .collect()
    }
    fn num_entities(&self) -> usize {
        self.num_entities
    }
}

impl kg::eval::BatchScorer for DenseTransH {
    fn num_entities(&self) -> usize {
        self.num_entities
    }

    fn score_tails_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
        hyperplane_scores_into(
            self.store.value(self.ent).as_slice(),
            self.store.value(self.normals).as_slice(),
            self.store.value(self.translations).as_slice(),
            self.num_entities,
            self.dim,
            self.norm,
            queries,
            QueryDir::Tails,
            out,
        );
    }

    fn score_heads_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
        hyperplane_scores_into(
            self.store.value(self.ent).as_slice(),
            self.store.value(self.normals).as_slice(),
            self.store.value(self.translations).as_slice(),
            self.num_entities,
            self.dim,
            self.norm,
            queries,
            QueryDir::Heads,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpTorusE, SpTransE, SpTransH, SpTransR};
    use kg::synthetic::SyntheticKgBuilder;
    use kg::UniformSampler;

    fn dataset() -> Dataset {
        SyntheticKgBuilder::new(50, 5).triples(400).seed(20).build()
    }

    fn plan(ds: &Dataset, bs: usize) -> BatchPlan {
        let sampler = UniformSampler::new(ds.num_entities);
        BatchPlan::build(&ds.train, &ds.all_known(), &sampler, bs, 21)
    }

    fn config() -> TrainConfig {
        TrainConfig {
            dim: 8,
            rel_dim: 8,
            batch_size: 64,
            ..Default::default()
        }
    }

    /// The load-bearing equivalence: dense and sparse variants must produce
    /// identical forward scores (they share initialization).
    #[test]
    fn transe_dense_equals_sparse_forward() {
        let ds = dataset();
        let p = plan(&ds, 64);
        let cfg = config();
        let mut sparse_m = SpTransE::from_config(&ds, &cfg).unwrap();
        let mut dense_m = DenseTransE::from_config(&ds, &cfg).unwrap();
        sparse_m.attach_plan(&p).unwrap();
        dense_m.attach_plan(&p).unwrap();
        for b in 0..p.num_batches().min(3) {
            let mut g1 = Graph::new();
            let (sp, _) = sparse_m.score_batch(&mut g1, b);
            let mut g2 = Graph::new();
            let (dp, _) = dense_m.score_batch(&mut g2, b);
            for (a, c) in g1.value(sp).as_slice().iter().zip(g2.value(dp).as_slice()) {
                assert!((a - c).abs() < 1e-4, "{a} vs {c}");
            }
        }
    }

    #[test]
    fn transe_dense_equals_sparse_gradients() {
        let ds = dataset();
        let p = plan(&ds, 64);
        let cfg = config();
        let mut sparse_m = SpTransE::from_config(&ds, &cfg).unwrap();
        let mut dense_m = DenseTransE::from_config(&ds, &cfg).unwrap();
        sparse_m.attach_plan(&p).unwrap();
        dense_m.attach_plan(&p).unwrap();

        let mut g1 = Graph::new();
        let (sp, sn) = sparse_m.score_batch(&mut g1, 0);
        let l1 = g1.margin_ranking_loss(sp, sn, 0.5);
        g1.backward(l1, sparse_m.store_mut());

        let mut g2 = Graph::new();
        let (dp, dn) = dense_m.score_batch(&mut g2, 0);
        let l2 = g2.margin_ranking_loss(dp, dn, 0.5);
        g2.backward(l2, dense_m.store_mut());

        // Sparse: one stacked grad (N+R, d); dense: split grads.
        let stacked = sparse_m.store().grad(sparse_m.embedding_param());
        let dent = dense_m
            .store()
            .grad(dense_m.store().lookup("entities").unwrap());
        let drel = dense_m
            .store()
            .grad(dense_m.store().lookup("relations").unwrap());
        let n = ds.num_entities;
        for i in 0..n {
            for (a, b) in stacked.row(i).iter().zip(dent.row(i)) {
                assert!((a - b).abs() < 1e-4, "entity {i}: {a} vs {b}");
            }
        }
        for i in 0..ds.num_relations {
            for (a, b) in stacked.row(n + i).iter().zip(drel.row(i)) {
                assert!((a - b).abs() < 1e-4, "relation {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn toruse_dense_equals_sparse_forward() {
        let ds = dataset();
        let p = plan(&ds, 64);
        let cfg = config();
        let mut sparse_m = SpTorusE::from_config(&ds, &cfg).unwrap();
        let mut dense_m = DenseTorusE::from_config(&ds, &cfg).unwrap();
        sparse_m.attach_plan(&p).unwrap();
        dense_m.attach_plan(&p).unwrap();
        let mut g1 = Graph::new();
        let (sp, _) = sparse_m.score_batch(&mut g1, 0);
        let mut g2 = Graph::new();
        let (dp, _) = dense_m.score_batch(&mut g2, 0);
        for (a, c) in g1.value(sp).as_slice().iter().zip(g2.value(dp).as_slice()) {
            assert!((a - c).abs() < 1e-4, "{a} vs {c}");
        }
    }

    #[test]
    fn transr_dense_equals_sparse_forward() {
        let ds = dataset();
        let p = plan(&ds, 64);
        let cfg = config();
        let mut sparse_m = SpTransR::from_config(&ds, &cfg).unwrap();
        let mut dense_m = DenseTransR::from_config(&ds, &cfg).unwrap();
        sparse_m.attach_plan(&p).unwrap();
        dense_m.attach_plan(&p).unwrap();
        let mut g1 = Graph::new();
        let (sp, _) = sparse_m.score_batch(&mut g1, 0);
        let mut g2 = Graph::new();
        let (dp, _) = dense_m.score_batch(&mut g2, 0);
        // Mᵣ(h − t) + r == Mᵣh + r − Mᵣt up to float association.
        for (a, c) in g1.value(sp).as_slice().iter().zip(g2.value(dp).as_slice()) {
            assert!((a - c).abs() < 1e-3, "{a} vs {c}");
        }
    }

    #[test]
    fn transh_dense_equals_sparse_forward() {
        let ds = dataset();
        let p = plan(&ds, 64);
        let cfg = config();
        let mut sparse_m = SpTransH::from_config(&ds, &cfg).unwrap();
        let mut dense_m = DenseTransH::from_config(&ds, &cfg).unwrap();
        sparse_m.attach_plan(&p).unwrap();
        dense_m.attach_plan(&p).unwrap();
        let mut g1 = Graph::new();
        let (sp, _) = sparse_m.score_batch(&mut g1, 0);
        let mut g2 = Graph::new();
        let (dp, _) = dense_m.score_batch(&mut g2, 0);
        for (a, c) in g1.value(sp).as_slice().iter().zip(g2.value(dp).as_slice()) {
            assert!((a - c).abs() < 1e-3, "{a} vs {c}");
        }
    }

    #[test]
    fn dense_graph_is_larger_than_sparse() {
        // The paper's memory argument: the dense TransH graph materializes
        // more intermediate nodes than the rearranged sparse one.
        let ds = dataset();
        let p = plan(&ds, 64);
        let cfg = config();
        let mut sparse_m = SpTransH::from_config(&ds, &cfg).unwrap();
        let mut dense_m = DenseTransH::from_config(&ds, &cfg).unwrap();
        sparse_m.attach_plan(&p).unwrap();
        dense_m.attach_plan(&p).unwrap();
        let mut g1 = Graph::new();
        sparse_m.score_batch(&mut g1, 0);
        let mut g2 = Graph::new();
        dense_m.score_batch(&mut g2, 0);
        assert!(
            g2.len() > g1.len(),
            "dense {} <= sparse {}",
            g2.len(),
            g1.len()
        );
    }
}
