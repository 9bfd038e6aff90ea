//! The `csr_spmm` design decisions, one arm set each — the kernel-level
//! ablation backing Figure 7:
//!
//! 1. **Incidence fast path**: `sparse::spmm::spmm_row`'s one-pass
//!    2/3-nonzero arms vs its general arm (zero, then `spmm_row_acc` per
//!    nonzero — `csr_spmm_into_general` sends every row there) on the same
//!    matrix.
//! 2. **Width sweep** of the fast path on a pool pinned to 1, 2, 4 and 8
//!    chunks (the paper's CPU-vs-GPU axis; informative only on multi-core
//!    hosts — the bits are the same at every width).
//!
//! Run with `cargo bench -p sptx-bench --bench spmm`.

use sparse::incidence::TailSign;
use sparse::spmm::{csr_spmm_into_general, csr_spmm_into_with};
use sparse::DenseView;
use sptx_bench::harness::{dense, incidence, time_arm};
use xparallel::PoolHandle;

fn main() {
    let (n_ent, n_rel, d) = (20_000usize, 200usize, 128usize);
    let a = incidence(n_ent, n_rel, 8192, TailSign::Negative, 1);
    let b = dense(n_ent + n_rel, d, 2);
    let b = DenseView::new(n_ent + n_rel, d, &b);
    let mut out = vec![0f32; a.rows() * d];
    let elements = Some(out.len() as u64);
    let global = PoolHandle::global();
    time_arm("fastpath/fused_incidence_rows", elements, || {
        csr_spmm_into_with(&global, &a, b, &mut out)
    });
    time_arm("fastpath/general_zero_then_accumulate", elements, || {
        csr_spmm_into_general(&a, b, &mut out)
    });

    for width in [1usize, 2, 4, 8] {
        let pool = PoolHandle::global().with_width(width);
        time_arm(&format!("width/t{width}"), elements, || {
            csr_spmm_into_with(&pool, &a, b, &mut out)
        });
    }
}
