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

use kg::TripleStore;
use sparse::incidence::RelationGroups;
use tensor::{Graph, ParamId, ParamStore, Tensor, Var};

use crate::model::normalize_leading_rows;
use crate::models::sptransh::Hyperplanes;
use crate::models::sptransr::Projections;
use crate::models::{
    by_relation, dense_side, stacked_torus_init, stacked_transe_init, Cx, DenseSide, Eval, Family,
    Geometry, Model, RankQuery, Shape,
};
use crate::scorer::QueryDir;
use crate::Result;

/// The split `entities` `(N, d)` / `relations` `(R, d)` tables of the dense
/// TransE and TorusE baselines, with the tape expression and the evaluation
/// transforms the two share.
#[derive(Debug, Clone, Copy)]
pub struct Split {
    /// `entities`, `(N, d)`.
    pub ent: ParamId,
    /// `relations`, `(R, d)`.
    pub rel: ParamId,
}

impl Split {
    /// Splits the sparse models' stacked `(N + R) × d` init into the two
    /// tables, so dense and sparse variants start from bit-identical
    /// parameters.
    fn register(store: &mut ParamStore, s: &Shape, stacked: Tensor) -> Self {
        let (ent, rel) = stacked.as_slice().split_at(s.entities * s.dim);
        Self {
            ent: store.add_param(
                "entities",
                Tensor::from_vec(s.entities, s.dim, ent.to_vec()),
            ),
            rel: store.add_param(
                "relations",
                Tensor::from_vec(s.relations, s.dim, rel.to_vec()),
            ),
        }
    }

    /// `h + r − t` from three gathers, under the configured norm.
    fn side(&self, cx: &Cx<'_>, g: &mut Graph, side: &DenseSide) -> Var {
        let h = g.gather(cx.store, self.ent, side.heads.clone());
        let r = g.gather(cx.store, self.rel, side.rels.clone());
        let t = g.gather(cx.store, self.ent, side.tails.clone());
        let hr = g.add(h, r);
        let expr = g.sub(hr, t);
        cx.norm.apply(g, expr)
    }

    fn query(&self, ev: &Eval<'_>, dir: QueryDir, ent: usize, rel: usize, q: &mut [f32]) {
        q.copy_from_slice(ev.row(self.ent, ent));
        dir.translate(q, ev.row(self.rel, rel));
    }

    fn score(&self, ev: &Eval<'_>, q: &RankQuery<'_>, cand: usize) -> f32 {
        ev.norm.distance(q.vector, ev.row(self.ent, cand))
    }
}

/// Gather/scatter TransE baseline (TorchKGE-style), with bit-identical init
/// to [`crate::SpTransE`] for the same config.
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
pub type DenseTransE = Model<GatherTransE>;

/// [`DenseTransE`]'s family.
#[derive(Debug)]
pub struct GatherTransE(pub Split);

impl Family for GatherTransE {
    const NAME: &'static str = "TransE-dense";
    type Side = DenseSide;

    fn init(store: &mut ParamStore, shape: &Shape, seed: u64, _: &TripleStore) -> Self {
        GatherTransE(Split::register(
            store,
            shape,
            stacked_transe_init(shape, seed),
        ))
    }

    fn cache(&self, _: &Shape, triples: &TripleStore) -> Result<DenseSide> {
        Ok(dense_side(triples))
    }

    fn side(&self, cx: &Cx<'_>, g: &mut Graph, side: &DenseSide) -> Var {
        self.0.side(cx, g, side)
    }

    fn end_epoch(&self, store: &mut ParamStore, shape: &Shape) {
        normalize_leading_rows(store, self.0.ent, shape.entities);
    }

    fn query(&self, ev: &Eval<'_>, dir: QueryDir, ent: usize, rel: usize, q: &mut [f32]) {
        self.0.query(ev, dir, ent, rel, q);
    }

    fn score(&self, ev: &Eval<'_>, q: &RankQuery<'_>, cand: usize, _: &mut [f32]) -> f32 {
        self.0.score(ev, q, cand)
    }
}

/// Gather/scatter TorusE baseline, with bit-identical init to
/// [`crate::SpTorusE`].
///
/// # Examples
///
/// ```
/// use kg::synthetic::SyntheticKgBuilder;
/// use sptransx::{DenseTorusE, Norm, TrainConfig};
///
/// let ds = SyntheticKgBuilder::new(40, 3).triples(200).seed(1).build();
/// let model = DenseTorusE::from_config(&ds, &TrainConfig { dim: 8, ..Default::default() })?;
/// assert_eq!(model.metric(), Norm::TorusL2);
/// # Ok::<(), sptransx::Error>(())
/// ```
pub type DenseTorusE = Model<GatherTorusE>;

/// [`DenseTorusE`]'s family.
#[derive(Debug)]
pub struct GatherTorusE(pub Split);

impl Family for GatherTorusE {
    const NAME: &'static str = "TorusE-dense";
    const GEOMETRY: Geometry = Geometry::Torus;
    type Side = DenseSide;

    fn init(store: &mut ParamStore, shape: &Shape, seed: u64, _: &TripleStore) -> Self {
        GatherTorusE(Split::register(
            store,
            shape,
            stacked_torus_init(shape, seed),
        ))
    }

    fn cache(&self, _: &Shape, triples: &TripleStore) -> Result<DenseSide> {
        Ok(dense_side(triples))
    }

    fn side(&self, cx: &Cx<'_>, g: &mut Graph, side: &DenseSide) -> Var {
        self.0.side(cx, g, side)
    }

    fn query(&self, ev: &Eval<'_>, dir: QueryDir, ent: usize, rel: usize, q: &mut [f32]) {
        self.0.query(ev, dir, ent, rel, q);
    }

    fn score(&self, ev: &Eval<'_>, q: &RankQuery<'_>, cand: usize, _: &mut [f32]) -> f32 {
        self.0.score(ev, q, cand)
    }
}

/// Gather/scatter TransR baseline: projects head and tail separately, as
/// TorchKGE does (`‖Mᵣh + r − Mᵣt‖`), from bit-identical init to
/// [`crate::SpTransR`].
///
/// # Examples
///
/// ```
/// use kg::synthetic::SyntheticKgBuilder;
/// use sptransx::{DenseTransR, TrainConfig};
///
/// let ds = SyntheticKgBuilder::new(40, 3).triples(200).seed(1).build();
/// let config = TrainConfig { dim: 8, rel_dim: 4, ..Default::default() };
/// let model = DenseTransR::from_config(&ds, &config)?;
/// assert_eq!(sptransx::KgeModel::name(&model), "TransR-dense");
/// # Ok::<(), sptransx::Error>(())
/// ```
pub type DenseTransR = Model<GatherTransR>;

/// [`DenseTransR`]'s family.
#[derive(Debug)]
pub struct GatherTransR(pub Projections);

impl Family for GatherTransR {
    const NAME: &'static str = "TransR-dense";
    /// The gather lists and the side's triples grouped by relation.
    type Side = (DenseSide, Arc<RelationGroups>);

    fn init(store: &mut ParamStore, shape: &Shape, seed: u64, _: &TripleStore) -> Self {
        GatherTransR(Projections::register(store, shape, seed))
    }

    fn cache(&self, shape: &Shape, triples: &TripleStore) -> Result<Self::Side> {
        Ok((dense_side(triples), by_relation(shape, triples)?))
    }

    fn side(&self, cx: &Cx<'_>, g: &mut Graph, (side, by_rel): &Self::Side) -> Var {
        let (p, k) = (&self.0, cx.shape.rel_dim);
        let h = g.gather(cx.store, p.ent, side.heads.clone());
        let t = g.gather(cx.store, p.ent, side.tails.clone());
        // Two projections per triple (the un-rearranged formulation).
        let ph = g.project_rows(cx.store, p.mats, h, by_rel.clone(), k);
        let pt = g.project_rows(cx.store, p.mats, t, by_rel.clone(), k);
        let r = g.gather(cx.store, p.rel, side.rels.clone());
        let phr = g.add(ph, r);
        let expr = g.sub(phr, pt);
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

/// Gather/scatter TransH baseline: projects head and tail onto the
/// hyperplane separately (`h⊥ + dᵣ − t⊥`), with the larger computational
/// graph the paper attributes to baseline TransH implementations, from
/// bit-identical init to [`crate::SpTransH`].
///
/// # Examples
///
/// ```
/// use kg::synthetic::SyntheticKgBuilder;
/// use sptransx::{DenseTransH, TrainConfig};
///
/// let ds = SyntheticKgBuilder::new(40, 3).triples(200).seed(1).build();
/// let model = DenseTransH::from_config(&ds, &TrainConfig { dim: 8, ..Default::default() })?;
/// assert_eq!(sptransx::KgeModel::name(&model), "TransH-dense");
/// # Ok::<(), sptransx::Error>(())
/// ```
pub type DenseTransH = Model<GatherTransH>;

/// [`DenseTransH`]'s family.
#[derive(Debug)]
pub struct GatherTransH(pub Hyperplanes);

impl Family for GatherTransH {
    const NAME: &'static str = "TransH-dense";
    type Side = DenseSide;

    fn init(store: &mut ParamStore, shape: &Shape, seed: u64, _: &TripleStore) -> Self {
        GatherTransH(Hyperplanes::register(store, shape, seed))
    }

    fn cache(&self, _: &Shape, triples: &TripleStore) -> Result<DenseSide> {
        Ok(dense_side(triples))
    }

    fn side(&self, cx: &Cx<'_>, g: &mut Graph, side: &DenseSide) -> Var {
        let p = &self.0;
        let h = g.gather(cx.store, p.ent, side.heads.clone());
        let t = g.gather(cx.store, p.ent, side.tails.clone());
        let w = g.gather(cx.store, p.normals, side.rels.clone());
        let dr = g.gather(cx.store, p.translations, side.rels.clone());
        // h⊥ = h − (wᵀh)w; t⊥ = t − (wᵀt)w — two separate projections.
        let dot_h = g.row_dot(w, h);
        let corr_h = g.scale_rows(w, dot_h);
        let hp = g.sub(h, corr_h);
        let dot_t = g.row_dot(w, t);
        let corr_t = g.scale_rows(w, dot_t);
        let tp = g.sub(t, corr_t);
        let hpd = g.add(hp, dr);
        let expr = g.sub(hpd, tp);
        cx.norm.apply(g, expr)
    }

    fn end_epoch(&self, store: &mut ParamStore, shape: &Shape) {
        self.0.end_epoch(store, shape);
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
    use crate::{KgeModel, SpTorusE, SpTransE, SpTransH, SpTransR, TrainConfig};
    use kg::synthetic::SyntheticKgBuilder;
    use kg::{BatchPlan, Dataset, UniformSampler};

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
