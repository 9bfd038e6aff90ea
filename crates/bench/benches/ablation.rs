//! Ablations of the DESIGN.md kernel choices:
//!
//! 1. **Incidence fast path**: `sparse::spmm::spmm_row`'s one-pass 2/3-nonzero
//!    arms vs its general arm (zero, then `spmm_row_acc` per nonzero —
//!    `csr_spmm_into_general` sends every row there) on the same matrix —
//!    the "specialized for incidence rows" design decision.
//! 2. **Thread scaling** of the SpMM kernel via the runtime parallelism cap
//!    (the paper's CPU-vs-GPU axis; informative only on multi-core hosts).
//! 3. **Transpose caching**: backward with the cached `Aᵀ` vs re-transposing
//!    per call, the `IncidencePair` design decision.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparse::incidence::{hrt, TailSign};
use sparse::spmm::{csr_spmm, csr_spmm_into, csr_spmm_into_general};
use sparse::{CsrMatrix, DenseMatrix};

fn incidence(n_ent: usize, n_rel: usize, m: usize, seed: u64) -> CsrMatrix {
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
    hrt(n_ent, n_rel, &heads, &rels, &tails, TailSign::Negative).unwrap()
}

fn dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    DenseMatrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
}

fn bench_fastpath_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_fastpath");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let (n_ent, n_rel, m, d) = (20_000usize, 200usize, 8192usize, 128usize);
    let a = incidence(n_ent, n_rel, m, 1);
    let b = dense(n_ent + n_rel, d, 2);
    let mut out = vec![0f32; m * d];
    group.bench_function("fused_incidence_rows", |bench| {
        bench.iter(|| csr_spmm_into(&a, b.view(), &mut out))
    });
    group.bench_function("general_zero_then_accumulate", |bench| {
        bench.iter(|| csr_spmm_into_general(&a, b.view(), &mut out))
    });
    group.finish();
}

fn bench_thread_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_threads");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let (n_ent, n_rel, m, d) = (20_000usize, 200usize, 16_384usize, 128usize);
    let a = incidence(n_ent, n_rel, m, 3);
    let b = dense(n_ent + n_rel, d, 4);
    let mut out = vec![0f32; m * d];
    let max = xparallel::current_num_threads();
    for threads in [1usize, 2, 4, 8] {
        if threads > max {
            break;
        }
        group.bench_with_input(BenchmarkId::new("spmm", threads), &threads, |bench, &t| {
            xparallel::with_parallelism(t, || bench.iter(|| csr_spmm_into(&a, b.view(), &mut out)))
        });
    }
    group.finish();
}

fn bench_transpose_caching(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_transpose_cache");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let (n_ent, n_rel, m, d) = (20_000usize, 200usize, 8192usize, 64usize);
    let a = incidence(n_ent, n_rel, m, 5);
    let a_t = a.transpose();
    let g = dense(m, d, 6);
    group.bench_function("cached_transpose_backward", |bench| {
        bench.iter(|| csr_spmm(&a_t, &g))
    });
    group.bench_function("retranspose_every_call", |bench| {
        bench.iter(|| csr_spmm(&a.transpose(), &g))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fastpath_ablation,
    bench_thread_scaling,
    bench_transpose_caching
);
criterion_main!(benches);
