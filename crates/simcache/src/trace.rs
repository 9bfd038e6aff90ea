//! Kernel address-trace generators.
//!
//! Each generator replays the byte-level access pattern of one training
//! kernel against a [`crate::Hierarchy`]. Addresses use a simple virtual
//! layout: the embedding table at [`EMB_BASE`], the batch output buffer at
//! [`OUT_BASE`], and sparse-index arrays at [`IDX_BASE`], far enough apart
//! that distinct structures never share a line.

use sparse::incidence::IncidencePair;
use sparse::CsrMatrix;

use crate::Hierarchy;

/// Base address of the (large) embedding/parameter table.
pub const EMB_BASE: u64 = 0x1_0000_0000;
/// Base address of per-batch output/gradient buffers.
pub const OUT_BASE: u64 = 0x8_0000_0000;
/// Base address of CSR index structures.
pub const IDX_BASE: u64 = 0xC_0000_0000;

const F32: u64 = 4;
const U32: u64 = 4;

/// Replays the **gather** kernel (paper Figure 1a): for each batch item,
/// read one `dim`-wide embedding row and write one output row.
pub fn replay_gather(h: &mut Hierarchy, indices: &[u32], dim: usize) {
    let row = dim as u64 * F32;
    for (k, &idx) in indices.iter().enumerate() {
        h.access_range(EMB_BASE + u64::from(idx) * row, row);
        h.access_range(OUT_BASE + k as u64 * row, row);
    }
}

/// Replays the **scatter-add** backward (paper Figure 1b): for each batch
/// item, read the upstream gradient row and read-modify-write one row of the
/// (large) parameter-gradient table. Each occurrence of an entity in the
/// batch touches its gradient row again — the fine-grained cost the paper
/// attributes to `EmbeddingBackward`.
pub fn replay_scatter(h: &mut Hierarchy, indices: &[u32], dim: usize) {
    let row = dim as u64 * F32;
    // The gradient table lives at a distinct offset above the embeddings.
    let grad_base = EMB_BASE + (1u64 << 34);
    for (k, &idx) in indices.iter().enumerate() {
        h.access_range(OUT_BASE + k as u64 * row, row);
        // RMW of the destination row (read-for-ownership counted once per
        // line, as a hardware prefetch-free LLC would see it).
        h.access_range(grad_base + u64::from(idx) * row, row);
    }
}

/// Replays the **CSR SpMM** forward kernel: stream `indptr`/`indices`/
/// `values`, gather the 2–3 source rows per output row, write the output row.
pub fn replay_csr_spmm(h: &mut Hierarchy, a: &CsrMatrix, dim: usize) {
    let row = dim as u64 * F32;
    let indptr_base = IDX_BASE;
    let indices_base = IDX_BASE + (1 << 30);
    let values_base = IDX_BASE + (2 << 30);
    for i in 0..a.rows() {
        h.access_range(indptr_base + i as u64 * U32, 2 * U32);
        let (s, e) = a.row_bounds(i);
        if e > s {
            h.access_range(indices_base + s as u64 * U32, (e - s) as u64 * U32);
            h.access_range(values_base + s as u64 * F32, (e - s) as u64 * F32);
        }
        for (col, _) in a.row(i) {
            h.access_range(EMB_BASE + col as u64 * row, row);
        }
        h.access_range(OUT_BASE + i as u64 * row, row);
    }
}

/// Replays the **transpose-SpMM** backward (`Aᵀ · G`) as the tape runs it:
/// over the columns the incidence pair keeps, column `k` of `A` gathering
/// its upstream-gradient rows and writing parameter-gradient row
/// `touched_columns()[k]` once, in ascending row order.
pub fn replay_csr_spmm_transpose(h: &mut Hierarchy, pair: &IncidencePair, dim: usize) {
    let row = dim as u64 * F32;
    let grad_base = EMB_BASE + (1u64 << 34);
    let indptr_base = IDX_BASE + (3u64 << 30);
    let indices_base = IDX_BASE + (4u64 << 30);
    let mut start = 0;
    for (k, &e) in pair.touched_columns().iter().enumerate() {
        h.access_range(indptr_base + k as u64 * U32, 2 * U32);
        let (rows, _) = pair.column(k);
        h.access_range(indices_base + start * U32, rows.len() as u64 * U32);
        for &i in rows {
            // Gather the upstream gradient row (batch-sized buffer).
            h.access_range(OUT_BASE + u64::from(i) * row, row);
        }
        h.access_range(grad_base + u64::from(e) * row, row);
        start += rows.len() as u64;
    }
}

/// Miss-rate comparison for one batch of triples: the gather/scatter
/// ("non-sparse") pipeline versus the SpMM ("sparse") pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelComparison {
    /// Overall miss rate of gather (fwd) + scatter (bwd).
    pub gather_scatter_miss_rate: f64,
    /// Overall miss rate of SpMM (fwd) + transpose SpMM (bwd).
    pub spmm_miss_rate: f64,
}

/// Runs both pipelines over the same triple batch and embedding dimension.
///
/// `incidence` must be the batch's `hrt` (or `ht`) incidence matrix; the
/// gather indices are taken from its nonzero columns so both pipelines touch
/// the same embedding rows.
pub fn compare_kernels(incidence: &CsrMatrix, dim: usize) -> KernelComparison {
    // Gather indices: every nonzero column, row-major (h, r, t per triple).
    let gather_indices: Vec<u32> = incidence.indices().to_vec();

    let mut gs = Hierarchy::epyc_like();
    replay_gather(&mut gs, &gather_indices, dim);
    replay_scatter(&mut gs, &gather_indices, dim);
    let gather_scatter = gs.overall_miss_rate();

    let mut sp = Hierarchy::epyc_like();
    let pair = IncidencePair::new(incidence.clone());
    replay_csr_spmm(&mut sp, incidence, dim);
    replay_csr_spmm_transpose(&mut sp, &pair, dim);
    let spmm = sp.overall_miss_rate();

    KernelComparison {
        gather_scatter_miss_rate: gather_scatter,
        spmm_miss_rate: spmm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sparse::incidence::{hrt, TailSign};

    /// Heavy-tailed entity draw (`u³` skew approximates Zipf popularity, as
    /// real KG batches have).
    fn skewed(rng: &mut StdRng, n: usize) -> u32 {
        let u: f64 = rng.gen();
        ((u * u * u) * n as f64) as u32
    }

    fn random_incidence(n_ent: usize, n_rel: usize, m: usize, seed: u64) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let heads: Vec<u32> = (0..m).map(|_| skewed(&mut rng, n_ent)).collect();
        let tails: Vec<u32> = (0..m).map(|_| skewed(&mut rng, n_ent)).collect();
        let rels: Vec<u32> = (0..m).map(|_| rng.gen_range(0..n_rel as u32)).collect();
        hrt(n_ent, n_rel, &heads, &rels, &tails, TailSign::Negative).unwrap()
    }

    #[test]
    fn traces_generate_accesses() {
        let a = random_incidence(1000, 10, 256, 1);
        let mut h = Hierarchy::epyc_like();
        replay_csr_spmm(&mut h, &a, 64);
        assert!(h.l1.stats().accesses() > 0);
    }

    #[test]
    fn spmm_misses_no_more_than_gather_scatter() {
        // Large entity table, moderate batch: the SpMM pipeline reads index
        // arrays sequentially and touches each embedding row once per use,
        // while scatter does irregular read-modify-writes — the paper's
        // Table 7 ordering.
        let a = random_incidence(50_000, 100, 4096, 2);
        let cmp = compare_kernels(&a, 128);
        assert!(
            cmp.spmm_miss_rate <= cmp.gather_scatter_miss_rate + 1e-9,
            "spmm {} vs gather/scatter {}",
            cmp.spmm_miss_rate,
            cmp.gather_scatter_miss_rate
        );
    }

    #[test]
    fn small_working_sets_mostly_hit() {
        let a = random_incidence(32, 2, 64, 3);
        let cmp = compare_kernels(&a, 16);
        assert!(cmp.spmm_miss_rate < 0.8);
        assert!(cmp.gather_scatter_miss_rate < 0.9);
    }
}
