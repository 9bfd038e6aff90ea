//! Criterion micro-benchmarks of the Appendix D semiring score — the forward
//! walk the training tape runs — under its three lane descriptions: `(×, ×)`
//! (DistMult), complex conjugate product (ComplEx) and rotate (RotatE). The
//! `(+, ×)` product of TransE is `benches/spmm.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparse::incidence::{hrt, TailSign};
use sparse::semiring::{semiring_spmm, Semiring};
use sparse::{CsrMatrix, DenseView};

fn incidence(n_ent: usize, n_rel: usize, m: usize, sign: TailSign, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let heads: Vec<u32> = (0..m).map(|_| rng.gen_range(0..n_ent as u32)).collect();
    let tails: Vec<u32> = (0..m)
        .map(|i| {
            let mut t = rng.gen_range(0..n_ent as u32);
            if t == heads[i] {
                t = (t + 1) % n_ent as u32;
            }
            t
        })
        .collect();
    let rels: Vec<u32> = (0..m).map(|_| rng.gen_range(0..n_rel as u32)).collect();
    hrt(n_ent, n_rel, &heads, &rels, &tails, sign).unwrap()
}

fn bench_semirings(c: &mut Criterion) {
    let mut group = c.benchmark_group("semiring_spmm");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
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
        group.bench_with_input(BenchmarkId::new(name, d), &(), |bench, ()| {
            bench.iter(|| semiring_spmm(kind, a, b))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_semirings);
criterion_main!(benches);
