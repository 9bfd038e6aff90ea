//! Sparse TransH (paper §4.5).
//!
//! TransH translates on relation-specific hyperplanes:
//! `‖h⊥ + dᵣ − t⊥‖` with `x⊥ = x − (wᵣᵀx)wᵣ`. The paper's rearrangement
//!
//! ```text
//! (h − t) + dᵣ − wᵣ (wᵣᵀ (h − t))
//! ```
//!
//! contains the `ht` expression **twice**; the sparse variant computes it
//! with one SpMM and reuses the node, where the dense baseline projects head
//! and tail separately (two dot products, two rank-1 updates) — this
//! expression reuse is why the paper reports ~11× lower GPU memory for
//! TransH (§6.2.2).

use kg::TripleStore;
use tensor::{init, Graph, ParamId, ParamStore, Var};

use crate::model::normalize_leading_rows;
use crate::models::{ht_side, Cx, Eval, Family, HtSide, Model, RankQuery, Shape, WorkingSet};
use crate::scorer::QueryDir;
use crate::Result;

/// The SpTransX TransH model.
///
/// Parameters: entity embeddings `(N, d)`, hyperplane normals `(R, d)` (unit
/// rows), and translation vectors `(R, d)`.
///
/// # Examples
///
/// ```
/// use kg::synthetic::SyntheticKgBuilder;
/// use sptransx::{SpTransH, TrainConfig};
///
/// let ds = SyntheticKgBuilder::new(40, 3).triples(200).seed(1).build();
/// let model = SpTransH::from_config(&ds, &TrainConfig { dim: 8, ..Default::default() })?;
/// assert_eq!(sptransx::KgeModel::name(&model), "SpTransH");
/// # Ok::<(), sptransx::Error>(())
/// ```
pub type SpTransH = Model<TransH>;

/// The TransH parameters, shared by [`SpTransH`] and
/// [`crate::DenseTransH`] with everything that depends on them alone: their
/// initialization, the unit-norm constraints and the evaluation transforms.
#[derive(Debug, Clone, Copy)]
pub struct Hyperplanes {
    /// `entities`, `(N, d)`.
    pub ent: ParamId,
    /// `normals`, `(R, d)`, unit rows.
    pub normals: ParamId,
    /// `translations`, `(R, d)`.
    pub translations: ParamId,
}

impl Hyperplanes {
    pub(crate) fn register(store: &mut ParamStore, s: &Shape, seed: u64) -> Self {
        let (r, d) = (s.relations, s.dim);
        Self {
            ent: store.add_param("entities", init::xavier_normalized(s.entities, d, seed)),
            normals: store.add_param("normals", init::xavier_normalized(r, d, seed + 1)),
            translations: store
                .add_param("translations", init::xavier_translational(r, d, seed + 2)),
        }
    }

    pub(crate) fn end_epoch(&self, store: &mut ParamStore, s: &Shape) {
        normalize_leading_rows(store, self.ent, s.entities);
        // Hyperplane normals are unit vectors by definition.
        normalize_leading_rows(store, self.normals, s.relations);
    }

    /// `out = x⊥ = x − (wᵣᵀx)wᵣ`: `x` projected onto relation `rel`'s
    /// hyperplane.
    fn project(&self, ev: &Eval<'_>, rel: usize, x: &[f32], out: &mut [f32]) {
        let w = ev.row(self.normals, rel);
        let dot: f32 = w.iter().zip(x).map(|(a, b)| a * b).sum();
        for ((o, xi), wi) in out.iter_mut().zip(x).zip(w) {
            *o = xi - dot * wi;
        }
    }

    /// `q = h⊥ + dᵣ` (tails) or `t⊥ − dᵣ` (heads).
    pub(crate) fn query(
        &self,
        ev: &Eval<'_>,
        dir: QueryDir,
        ent: usize,
        rel: usize,
        q: &mut [f32],
    ) {
        self.project(ev, rel, ev.row(self.ent, ent), q);
        dir.translate(q, ev.row(self.translations, rel));
    }

    /// The distance from `q` to the candidate's projection.
    pub(crate) fn score(
        &self,
        ev: &Eval<'_>,
        q: &RankQuery<'_>,
        cand: usize,
        scratch: &mut [f32],
    ) -> f32 {
        self.project(ev, q.rel, ev.row(self.ent, cand), scratch);
        q.dir.distance(ev.norm, q.vector, scratch)
    }
}

/// [`SpTransH`]'s family: the rearranged expression over one `ht` SpMM.
#[derive(Debug)]
pub struct TransH(pub Hyperplanes);

impl Family for TransH {
    const NAME: &'static str = "SpTransH";
    const WORKING_SET: WorkingSet<Self> = |f, side| (f.0.ent, side.pair.touched_columns());
    type Side = HtSide;

    fn init(store: &mut ParamStore, shape: &Shape, seed: u64, _: &TripleStore) -> Self {
        TransH(Hyperplanes::register(store, shape, seed))
    }

    fn cache(&self, shape: &Shape, triples: &TripleStore) -> Result<HtSide> {
        ht_side(shape, triples)
    }

    fn side(&self, cx: &Cx<'_>, g: &mut Graph, side: &HtSide) -> Var {
        let p = &self.0;
        // (h − t) + dᵣ − wᵣ(wᵣᵀ(h − t)): ht computed once and reused.
        let ht = g.spmm(cx.store, p.ent, side.pair.clone());
        let w = g.gather(cx.store, p.normals, side.rels.clone());
        let dr = g.gather(cx.store, p.translations, side.rels.clone());
        let dot = g.row_dot(w, ht);
        let proj = g.scale_rows(w, dot);
        let perp = g.sub(ht, proj);
        let expr = g.add(perp, dr);
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
    use crate::{KgeModel, TrainConfig};
    use kg::synthetic::SyntheticKgBuilder;
    use kg::{BatchPlan, Dataset, UniformSampler};

    /// `x` projected onto relation `rel`'s hyperplane.
    fn project(model: &SpTransH, rel: usize, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; model.dim()];
        model.family().0.project(&model.eval(), rel, x, &mut out);
        out
    }

    fn setup() -> (Dataset, SpTransH, BatchPlan) {
        let ds = SyntheticKgBuilder::new(40, 4).triples(300).seed(11).build();
        let config = TrainConfig {
            dim: 8,
            batch_size: 64,
            ..Default::default()
        };
        let model = SpTransH::from_config(&ds, &config).unwrap();
        let sampler = UniformSampler::new(ds.num_entities);
        let plan = BatchPlan::build(&ds.train, &ds.all_known(), &sampler, 64, 12);
        (ds, model, plan)
    }

    #[test]
    fn forward_matches_hyperplane_definition() {
        // Compare the rearranged sparse formulation against the direct
        // h⊥ + dᵣ − t⊥ definition.
        let (_, mut model, plan) = setup();
        model.attach_plan(&plan).unwrap();
        let mut g = Graph::new();
        let (pos, _) = model.score_batch(&mut g, 0);
        let batch = plan.batch(0);
        let params = model.family().0;
        let ent = model.store().value(params.ent);
        for i in 0..batch.len().min(8) {
            let t = batch.pos.get(i);
            let hp = project(&model, t.rel as usize, ent.row(t.head as usize));
            let tp = project(&model, t.rel as usize, ent.row(t.tail as usize));
            let dr = model.store().value(params.translations).row(t.rel as usize);
            let mut dist = 0.0f32;
            for j in 0..model.dim() {
                let v = hp[j] + dr[j] - tp[j];
                dist += v * v;
            }
            assert!(
                (g.value(pos).get(i, 0) - dist.sqrt()).abs() < 1e-4,
                "triple {i}: {} vs {}",
                g.value(pos).get(i, 0),
                dist.sqrt()
            );
        }
    }

    #[test]
    fn gradients_reach_all_three_params() {
        let (_, mut model, plan) = setup();
        model.attach_plan(&plan).unwrap();
        let mut g = Graph::new();
        let (pos, neg) = model.score_batch(&mut g, 0);
        let loss = g.margin_ranking_loss(pos, neg, 5.0);
        g.backward(loss, model.store_mut());
        let p = model.family().0;
        for id in [p.ent, p.normals, p.translations] {
            assert!(tensor::Tensor::from_view(model.store().grad(id)).frobenius_norm() > 0.0);
        }
    }

    #[test]
    fn end_epoch_normalizes_normals() {
        let (_, mut model, _) = setup();
        let w_id = model.family().0.normals;
        model.store_mut().value_mut(w_id).as_mut_slice()[0] = 50.0;
        model.end_epoch();
        let w = model.store().value(w_id);
        let norm: f32 = w.row(0).iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn projection_is_idempotent() {
        let (_, model, _) = setup();
        let x = model.store().value(model.embedding_param()).row(0).to_vec();
        let p1 = project(&model, 0, &x);
        let p2 = project(&model, 0, &p1);
        for (a, b) in p1.iter().zip(&p2) {
            assert!(
                (a - b).abs() < 1e-5,
                "projection not idempotent: {a} vs {b}"
            );
        }
    }
}
