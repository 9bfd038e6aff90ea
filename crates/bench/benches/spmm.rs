//! The `csr_spmm` design decisions, one arm pair each — the kernel-level
//! ablation backing Figure 7:
//!
//! 1. **Incidence fast path**: `sparse::spmm::spmm_row`'s one-pass
//!    2/3-nonzero arms vs its general arm (zero, then `spmm_row_acc` per
//!    nonzero — `csr_spmm_into_general` sends every row there) on the same
//!    matrix.
//! 2. **CSR vs COO** on a general sparse matrix (~8 nonzeros per row, beyond
//!    the fast path): row-parallel CSR against COO's entry-sharded scatter
//!    (the paper selects COO for DGL's GPU kernel).
//! 3. **Transpose caching**: the backward `Aᵀ · G` against a kept
//!    `CsrMatrix::transpose` vs re-transposing per call, the decision behind
//!    `IncidencePair` keeping its columns.
//! 4. **Width sweep** of the fast path on a pool pinned to 1, 2, 4 and 8
//!    chunks (the paper's CPU-vs-GPU axis; informative only on multi-core
//!    hosts — the bits are the same at every width).
//!
//! Run with `cargo bench -p sptx-bench --bench spmm`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparse::incidence::TailSign;
use sparse::spmm::{coo_spmm, csr_spmm, csr_spmm_into, csr_spmm_into_general, csr_spmm_into_with};
use sparse::CooMatrix;
use sptx_bench::harness::{dense, incidence, time_arm};
use xparallel::PoolHandle;

fn main() {
    let (n_ent, n_rel, d) = (20_000usize, 200usize, 128usize);
    let a = incidence(n_ent, n_rel, 8192, TailSign::Negative, 1);
    let b = dense(n_ent + n_rel, d, 2);
    let mut out = vec![0f32; a.rows() * d];
    let elements = Some(out.len() as u64);
    time_arm("fastpath/fused_incidence_rows", elements, || {
        csr_spmm_into(&a, b.view(), &mut out)
    });
    time_arm("fastpath/general_zero_then_accumulate", elements, || {
        csr_spmm_into_general(&a, b.view(), &mut out)
    });

    let (rows, cols) = (2048, 4096);
    let mut rng = StdRng::seed_from_u64(3);
    let mut coo = CooMatrix::new(rows, cols);
    for r in 0..rows {
        for _ in 0..8 {
            let c = rng.gen_range(0..cols);
            coo.push(r, c, rng.gen_range(-1.0..1.0)).unwrap();
        }
    }
    let csr = coo.to_csr();
    let b_general = dense(cols, d, 4);
    time_arm("csr_vs_coo/csr_general", None, || {
        csr_spmm(&csr, &b_general)
    });
    time_arm("csr_vs_coo/coo_scatter", None, || {
        coo_spmm(&PoolHandle::global(), &coo, &b_general)
    });

    let a_t = a.transpose();
    let g = dense(a.rows(), 64, 6);
    time_arm("transpose/cached", None, || csr_spmm(&a_t, &g));
    time_arm("transpose/rebuilt_every_call", None, || {
        csr_spmm(&a.transpose(), &g)
    });

    for width in [1usize, 2, 4, 8] {
        let pool = PoolHandle::global().with_width(width);
        time_arm(&format!("width/t{width}"), elements, || {
            csr_spmm_into_with(&pool, &a, b.view(), &mut out)
        });
    }
}
