//! Model implementations (sparse variants and dense baselines).

pub mod dense;
pub mod extensions;
pub mod spcomplex;
pub mod spdistmult;
pub mod sprotate;
pub mod sptorus;
pub mod sptranse;
pub mod sptransh;
pub mod sptransr;

use std::sync::Arc;

use kg::BatchPlan;
use sparse::incidence::{self, IncidencePair, TailSign};
use tensor::{init, Tensor};

use crate::Result;

/// The stacked `(N + R) × d` TransE-family initialization: Xavier uniform
/// with entity rows (the first `n`) L2-normalized, relation rows left as-is.
pub(crate) fn stacked_transe_init(n: usize, r: usize, d: usize, seed: u64) -> Tensor {
    let mut emb = init::xavier_translational(n + r, d, seed);
    let data = emb.as_mut_slice();
    for row in data[..n * d].chunks_exact_mut(d) {
        let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 1e-12 {
            for x in row.iter_mut() {
                *x /= norm;
            }
        }
    }
    emb
}

/// Cached sparse structures for one batch of an `hrt`-family model
/// (TransE, TorusE, DistMult): positive and negative incidence pairs.
#[derive(Debug, Clone)]
pub(crate) struct HrtCache {
    pub pos: Arc<IncidencePair>,
    pub neg: Arc<IncidencePair>,
}

/// Builds `hrt` incidence caches for every batch of a plan.
///
/// Batches are independent, so cache construction (CSR assembly plus the
/// cached transpose) fans out one task per batch on the global pool; errors
/// are surfaced in batch order, keeping `attach_plan` deterministic.
pub(crate) fn build_hrt_caches(
    plan: &BatchPlan,
    num_entities: usize,
    num_relations: usize,
    tail_sign: TailSign,
) -> Result<Vec<HrtCache>> {
    build_caches_parallel(plan.num_batches(), |i| {
        let batch = plan.batch(i);
        let pos = incidence::hrt(
            num_entities,
            num_relations,
            batch.pos.heads(),
            batch.pos.rels(),
            batch.pos.tails(),
            tail_sign,
        )?;
        let neg = incidence::hrt(
            num_entities,
            num_relations,
            batch.neg.heads(),
            batch.neg.rels(),
            batch.neg.tails(),
            tail_sign,
        )?;
        Ok(HrtCache {
            pos: Arc::new(IncidencePair::new(pos)),
            neg: Arc::new(IncidencePair::new(neg)),
        })
    })
}

/// Shared fan-out for per-batch cache builders: runs `build(i)` for every
/// batch index on the global pool and collects results in batch order (the
/// first error by index wins, matching the previous serial semantics).
fn build_caches_parallel<C, F>(num_batches: usize, build: F) -> Result<Vec<C>>
where
    C: Send,
    F: Fn(usize) -> Result<C> + Sync,
{
    let mut slots: Vec<Option<Result<C>>> = Vec::new();
    slots.resize_with(num_batches, || None);
    xparallel::PoolHandle::global().for_each_mut(&mut slots, |i, slot| {
        *slot = Some(build(i));
    });
    slots
        .into_iter()
        .map(|s| s.expect("cache slot filled by its task"))
        .collect()
}

/// Cached sparse structures for one batch of an `ht`-family model
/// (TransR, TransH): incidence pairs plus the per-triple relation indices
/// needed for gathers/projections.
///
/// Index lists are `Arc`-shared so `score_batch` hands them to the tape's
/// gather/projection ops with a refcount bump instead of a per-batch copy
/// (part of the allocation-free steady-state contract).
#[derive(Debug, Clone)]
pub(crate) struct HtCache {
    pub pos: Arc<IncidencePair>,
    pub neg: Arc<IncidencePair>,
    pub pos_rels: Arc<Vec<u32>>,
    pub neg_rels: Arc<Vec<u32>>,
}

/// Builds `ht` incidence caches for every batch of a plan (fanned out per
/// batch like [`build_hrt_caches`]).
pub(crate) fn build_ht_caches(plan: &BatchPlan, num_entities: usize) -> Result<Vec<HtCache>> {
    build_caches_parallel(plan.num_batches(), |i| {
        let batch = plan.batch(i);
        let pos = incidence::ht(num_entities, batch.pos.heads(), batch.pos.tails())?;
        let neg = incidence::ht(num_entities, batch.neg.heads(), batch.neg.tails())?;
        Ok(HtCache {
            pos: Arc::new(IncidencePair::new(pos)),
            neg: Arc::new(IncidencePair::new(neg)),
            pos_rels: Arc::new(batch.pos.rels().to_vec()),
            neg_rels: Arc::new(batch.neg.rels().to_vec()),
        })
    })
}

/// One batch grouped by relation, per side: the pair of the side's `m × R`
/// relation selection matrix ([`incidence::selection`]), which is what
/// `Graph::project_rows` walks. The built-in samplers corrupt heads and tails
/// only, so both sides usually share one pair.
#[derive(Debug, Clone)]
pub(crate) struct RelGroups {
    pub pos: Arc<IncidencePair>,
    pub neg: Arc<IncidencePair>,
}

/// Groups every batch of a plan by relation (fanned out per batch like
/// [`build_hrt_caches`]); the TransR models build this next to their
/// incidence or index caches.
pub(crate) fn build_rel_groups(plan: &BatchPlan, num_relations: usize) -> Result<Vec<RelGroups>> {
    build_caches_parallel(plan.num_batches(), |i| {
        let batch = plan.batch(i);
        let group = |rels: &[u32]| -> Result<Arc<IncidencePair>> {
            let selection = incidence::selection(num_relations, rels)?;
            Ok(Arc::new(IncidencePair::new(selection)))
        };
        let pos = group(batch.pos.rels())?;
        let neg = if batch.neg.rels() == batch.pos.rels() {
            pos.clone()
        } else {
            group(batch.neg.rels())?
        };
        Ok(RelGroups { pos, neg })
    })
}

/// Per-batch index arrays for the dense (gather/scatter) baselines,
/// `Arc`-shared with the tape like [`HtCache`]'s relation lists.
#[derive(Debug, Clone)]
pub(crate) struct DenseCache {
    pub pos_heads: Arc<Vec<u32>>,
    pub pos_rels: Arc<Vec<u32>>,
    pub pos_tails: Arc<Vec<u32>>,
    pub neg_heads: Arc<Vec<u32>>,
    pub neg_rels: Arc<Vec<u32>>,
    pub neg_tails: Arc<Vec<u32>>,
}

/// Extracts dense index caches for every batch of a plan.
pub(crate) fn build_dense_caches(plan: &BatchPlan) -> Vec<DenseCache> {
    plan.iter()
        .map(|b| DenseCache {
            pos_heads: Arc::new(b.pos.heads().to_vec()),
            pos_rels: Arc::new(b.pos.rels().to_vec()),
            pos_tails: Arc::new(b.pos.tails().to_vec()),
            neg_heads: Arc::new(b.neg.heads().to_vec()),
            neg_rels: Arc::new(b.neg.rels().to_vec()),
            neg_tails: Arc::new(b.neg.tails().to_vec()),
        })
        .collect()
}
