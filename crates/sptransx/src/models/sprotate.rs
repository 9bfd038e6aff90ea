//! Sparse RotatE (paper Appendix D, trainable).
//!
//! RotatE embeds entities and relations as complex vectors and scores
//! `‖h ∘ r − t‖` with relations constrained to the unit circle (rotations).
//! Appendix D maps this onto the same incidence traversal with a "rotate"
//! semiring: [`tensor::Graph::semiring_score`] under [`Semiring::RotatE`]
//! computes the per-triple distance and backpropagates through the complex
//! product, pushing each triple through its row of the batch's incidence
//! matrix.

use kg::TripleStore;
use sparse::incidence::TailSign;
use tensor::{init, Graph, ParamStore, Semiring, Tensor, Var};

use crate::model::UNIT_NORM_TOL;
use crate::models::spcomplex::{complex, complex_query};
use crate::models::{hrt_side, Cx, Eval, Family, HrtSide, Model, RankQuery, Shape, Stacked};
use crate::scorer::QueryDir;
use crate::Result;

/// The semiring-SpMM RotatE model.
///
/// The parameter holds interleaved complex values: `config.dim` is the
/// **complex** dimension, so the tensor has `2 · dim` columns. Relation rows
/// are initialized to (and re-projected onto) unit phases.
///
/// # Examples
///
/// ```
/// use kg::synthetic::SyntheticKgBuilder;
/// use sptransx::{SpRotatE, TrainConfig};
///
/// let ds = SyntheticKgBuilder::new(40, 3).triples(200).seed(1).build();
/// let model = SpRotatE::from_config(&ds, &TrainConfig { dim: 8, ..Default::default() })?;
/// assert_eq!(sptransx::KgeModel::name(&model), "SpRotatE");
/// # Ok::<(), sptransx::Error>(())
/// ```
pub type SpRotatE = Model<RotatE>;

/// [`SpRotatE`]'s family: one stacked table of interleaved `(re, im)` pairs,
/// the rotate semiring score, relations kept on the unit circle.
#[derive(Debug)]
pub struct RotatE(pub Stacked);

impl Family for RotatE {
    const NAME: &'static str = "SpRotatE";
    const WORKING_SET: super::WorkingSet<Self> = |f, side| f.0.working_set(side);
    type Side = HrtSide;

    fn init(store: &mut ParamStore, s: &Shape, seed: u64, _: &TripleStore) -> Self {
        // Entities: uniform complex; relations: unit phases.
        let ent = init::uniform(s.entities, 2 * s.dim, 0.5, seed);
        let rel = init::unit_phases(s.relations, s.dim, seed + 1);
        let data = [ent.as_slice(), rel.as_slice()].concat();
        let emb = Tensor::from_vec(s.entities + s.relations, 2 * s.dim, data);
        RotatE(Stacked::register(store, emb))
    }

    fn cache(&self, shape: &Shape, triples: &TripleStore) -> Result<HrtSide> {
        hrt_side(shape, triples, TailSign::Negative)
    }

    fn side(&self, cx: &Cx<'_>, g: &mut Graph, side: &HrtSide) -> Var {
        g.semiring_score(cx.store, self.0.emb, side.clone(), Semiring::RotatE)
    }

    fn end_epoch(&self, store: &mut ParamStore, shape: &Shape) {
        // Re-project relation components onto the unit circle (rotations),
        // walking only dirty rows. Entity rows (index < n) are outside this
        // constraint and are dropped from the set; a relation row leaves it
        // only once reprojection is a bitwise no-op (every component pair
        // already on the unit circle within `UNIT_NORM_TOL`, the same
        // idempotence band as `normalize_leading_rows`), so the sweep stays
        // bit-identical to the dense one.
        let n = shape.entities;
        store.for_dirty_rows(self.0.emb, |row, r| {
            if row < n {
                return false;
            }
            let mut changed = false;
            for pair in r.chunks_exact_mut(2) {
                let norm = (pair[0] * pair[0] + pair[1] * pair[1]).sqrt();
                if norm > 1e-12 && (norm - 1.0).abs() > UNIT_NORM_TOL {
                    let y0 = pair[0] / norm;
                    let y1 = pair[1] / norm;
                    changed |=
                        y0.to_bits() != pair[0].to_bits() || y1.to_bits() != pair[1].to_bits();
                    pair[0] = y0;
                    pair[1] = y1;
                }
            }
            changed
        });
    }

    fn query_len(shape: &Shape) -> usize {
        2 * shape.dim
    }

    fn query(&self, ev: &Eval<'_>, dir: QueryDir, ent: usize, rel: usize, q: &mut [f32]) {
        complex_query(&self.0, ev, dir, ent, rel, q);
    }

    /// `Σⱼ |hⱼ rⱼ − tⱼ|`.
    fn score(&self, ev: &Eval<'_>, q: &RankQuery<'_>, cand: usize, _: &mut [f32]) -> f32 {
        let c = complex(self.0.entity(ev, cand));
        match q.dir {
            QueryDir::Tails => complex(q.vector).zip(c).map(|(hr, t)| (hr - t).abs()).sum(),
            QueryDir::Heads => c
                .zip(complex(self.0.relation(ev, q.rel)))
                .zip(complex(q.vector))
                .map(|((h, r), t)| (h * r - t).abs())
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KgeModel, TrainConfig};
    use kg::eval::TripleScorer;
    use kg::synthetic::SyntheticKgBuilder;
    use kg::{BatchPlan, Dataset, UniformSampler};
    use sparse::Complex32;

    /// RotatE distance of one triple, from the table.
    fn distance(model: &SpRotatE, head: u32, rel: u32, tail: u32) -> f32 {
        let emb = model.store().value(model.embedding_param());
        let r = model.num_entities() + rel as usize;
        complex(emb.row(head as usize))
            .zip(complex(emb.row(r)))
            .zip(complex(emb.row(tail as usize)))
            .map(|((a, b), c)| (a * b - c).abs())
            .sum()
    }

    fn setup() -> (Dataset, SpRotatE, BatchPlan) {
        let ds = SyntheticKgBuilder::new(40, 4).triples(300).seed(50).build();
        let config = TrainConfig {
            dim: 4,
            batch_size: 64,
            ..Default::default()
        };
        let model = SpRotatE::from_config(&ds, &config).unwrap();
        let sampler = UniformSampler::new(ds.num_entities);
        let plan = BatchPlan::build(&ds.train, &ds.all_known(), &sampler, 64, 51);
        (ds, model, plan)
    }

    #[test]
    fn relations_start_as_unit_rotations() {
        let (_, model, _) = setup();
        let emb = model.store().value(model.embedding_param());
        for row in 40..emb.rows() {
            for pair in emb.row(row).chunks_exact(2) {
                let norm = pair[0] * pair[0] + pair[1] * pair[1];
                assert!((norm - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn tape_scores_match_distance() {
        let (_, mut model, plan) = setup();
        model.attach_plan(&plan).unwrap();
        let mut g = Graph::new();
        let (pos, _) = model.score_batch(&mut g, 0);
        let batch = plan.batch(0);
        for i in 0..batch.len().min(10) {
            let t = batch.pos.get(i);
            let want = distance(&model, t.head, t.rel, t.tail);
            assert!((g.value(pos).get(i, 0) - want).abs() < 1e-4);
        }
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
    fn exact_rotation_scores_zero() {
        let (_, mut model, _) = setup();
        // Force t = h ∘ r for triple (0, 0, 1).
        let emb_id = model.embedding_param();
        let half = model.dim();
        {
            let emb = model.store_mut().value_mut(emb_id);
            let h: Vec<f32> = emb.row(0).to_vec();
            let r: Vec<f32> = emb.row(40).to_vec();
            let t = emb.row_mut(1);
            for j in 0..half {
                let hv = Complex32::new(h[2 * j], h[2 * j + 1]);
                let rv = Complex32::new(r[2 * j], r[2 * j + 1]);
                let prod = hv * rv;
                t[2 * j] = prod.re;
                t[2 * j + 1] = prod.im;
            }
        }
        assert!(distance(&model, 0, 0, 1) < 1e-5);
        let tails = model.score_tails(0, 0);
        let best = tails
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 1);
    }

    #[test]
    fn end_epoch_reprojects_relations() {
        let (_, mut model, _) = setup();
        let emb_id = model.embedding_param();
        model.store_mut().value_mut(emb_id).row_mut(40)[0] = 7.0;
        model.end_epoch();
        let emb = model.store().value(emb_id);
        let pair = &emb.row(40)[..2];
        assert!((pair[0] * pair[0] + pair[1] * pair[1] - 1.0).abs() < 1e-5);
    }
}
