//! The Appendix D semiring score — the forward walk the training tape runs —
//! under its three lane descriptions: `(×, ×)` (DistMult), complex conjugate
//! product (ComplEx) and rotate (RotatE). The `(+, ×)` product of TransE is
//! `benches/spmm.rs`.
//!
//! Run with `cargo bench -p sptx-bench --bench semiring`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparse::incidence::TailSign;
use sparse::semiring::{semiring_spmm, Semiring};
use sparse::DenseView;
use sptx_bench::harness::{incidence, time_arm};

fn main() {
    let (n_ent, n_rel, m, d) = (10_000usize, 100usize, 4096usize, 64usize);
    let rows = n_ent + n_rel;
    let mut rng = StdRng::seed_from_u64(11);

    let signed = incidence(n_ent, n_rel, m, TailSign::Negative, 1);
    let unsigned = incidence(n_ent, n_rel, m, TailSign::Positive, 1);
    // `d` lanes each: the complex kinds read a table twice as wide.
    let table: Vec<f32> = (0..rows * 2 * d)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    for (name, kind, a) in [
        ("times_times(DistMult)", Semiring::DistMult, &unsigned),
        ("complex(ComplEx)", Semiring::ComplEx, &signed),
        ("rotate(RotatE)", Semiring::RotatE, &signed),
    ] {
        let cols = d * kind.lane_width();
        let b = DenseView::new(rows, cols, &table[..rows * cols]);
        time_arm(&format!("semiring_spmm/{name}/{d}"), None, || {
            semiring_spmm(kind, a, b)
        });
    }
}
