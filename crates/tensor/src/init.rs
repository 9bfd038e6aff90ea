//! Parameter initialization schemes.
//!
//! TransE (Bordes et al., 2013) initializes embeddings uniformly in
//! `[-6/√d, 6/√d]` and L2-normalizes entity rows; the other translational
//! models follow the same convention. All initializers are deterministic
//! given a seed.
//!
//! Every table is born on transparent huge pages where the platform allows
//! it: before the first value is written, a buffer of 4 MiB or more is
//! advised `MADV_HUGEPAGE` (Linux only), so filling it takes one fault per
//! 2 MiB instead of one per 4 KiB, and training's random row reads miss the
//! TLB less. Like `xparallel::prefetch`, the advice is a hint: its result is
//! ignored, and it never changes a value, a counter or a panic — the table
//! holds the same bits whether the kernel honours it or not.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Tensor;

/// Buffers below this size are left on ordinary pages: a huge page is 2 MiB,
/// and a smaller table could not fill two of them.
const HUGE_PAGE_MIN_BYTES: usize = 4 << 20;

/// A `rows × cols` tensor whose values `fill` pushes, in order, into an
/// empty buffer of exactly that capacity — advised onto huge pages first.
fn table(rows: usize, cols: usize, fill: impl FnOnce(&mut Vec<f32>)) -> Tensor {
    let mut data = Vec::with_capacity(rows * cols);
    advise_huge_pages(&mut data);
    fill(&mut data);
    Tensor::from_vec(rows, cols, data)
}

/// Asks the kernel to back the page-aligned interior of `buf`'s capacity
/// with transparent huge pages. A hint: the result is ignored.
#[cfg(target_os = "linux")]
fn advise_huge_pages(buf: &mut Vec<f32>) {
    const PAGE: usize = 4096;
    const MADV_HUGEPAGE: std::ffi::c_int = 14;
    extern "C" {
        fn madvise(
            addr: *mut std::ffi::c_void,
            len: usize,
            advice: std::ffi::c_int,
        ) -> std::ffi::c_int;
    }
    let bytes = std::mem::size_of_val(buf.spare_capacity_mut());
    if bytes < HUGE_PAGE_MIN_BYTES {
        return;
    }
    let base = buf.as_mut_ptr().cast::<u8>();
    let start = base.addr().next_multiple_of(PAGE) - base.addr();
    let len = (base.addr() + bytes) / PAGE * PAGE - base.addr() - start;
    // SAFETY: `madvise` is declared with its C signature. Its range,
    // `start..start + len` from `base`, is page-aligned and lies inside the
    // buffer's allocation (the capacity rounded inward to whole pages), and
    // the buffer is empty, so nothing reads it. `MADV_HUGEPAGE` only sets
    // the range's huge-page policy: it moves no data, changes no contents
    // and unmaps nothing, so the allocator's and the `Vec`'s view of the
    // memory stay valid whatever the call returns.
    unsafe { madvise(base.wrapping_add(start).cast(), len, MADV_HUGEPAGE) };
}

#[cfg(not(target_os = "linux"))]
fn advise_huge_pages(_buf: &mut Vec<f32>) {}

/// Uniform init in `[-bound, bound]`.
///
/// # Examples
///
/// ```
/// let t = tensor::init::uniform(4, 8, 0.1, 42);
/// assert!(t.as_slice().iter().all(|x| x.abs() <= 0.1));
/// ```
pub fn uniform(rows: usize, cols: usize, bound: f32, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    table(rows, cols, |data| {
        data.extend((0..rows * cols).map(|_| rng.gen_range(-bound..=bound)));
    })
}

/// The TransE paper's embedding init: uniform `[-6/√d, 6/√d]`.
pub fn xavier_translational(rows: usize, cols: usize, seed: u64) -> Tensor {
    let bound = 6.0 / (cols.max(1) as f32).sqrt();
    uniform(rows, cols, bound, seed)
}

/// Like [`xavier_translational`] followed by row L2 normalization (entity
/// embeddings are kept on the unit sphere).
pub fn xavier_normalized(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut t = xavier_translational(rows, cols, seed);
    t.normalize_rows_(1e-12);
    t
}

/// Identity-stacked projection matrices for TransR: each of the `rows`
/// relation matrices starts as `d_out × d_in` identity (standard TransR
/// initialization), flattened row-major.
pub fn stacked_identity(rows: usize, d_out: usize, d_in: usize) -> Tensor {
    table(rows, d_out * d_in, |data| {
        data.resize(rows * d_out * d_in, 0.0);
        for r in 0..rows {
            for o in 0..d_out.min(d_in) {
                data[(r * d_out + o) * d_in + o] = 1.0;
            }
        }
    })
}

/// Uniform phases in `[0, 2π)` for RotatE relation embeddings, interleaved
/// `(cos θ, sin θ)` pairs occupying `2 * half_dim` columns.
pub fn unit_phases(rows: usize, half_dim: usize, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    table(rows, half_dim * 2, |data| {
        for _ in 0..rows * half_dim {
            let theta: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
            let (s, c) = theta.sin_cos();
            data.push(c);
            data.push(s);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_seeded_deterministic() {
        let a = uniform(3, 5, 1.0, 7);
        let b = uniform(3, 5, 1.0, 7);
        assert_eq!(a, b);
        let c = uniform(3, 5, 1.0, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn xavier_bound_scales_with_dim() {
        let t = xavier_translational(10, 64, 1);
        let bound = 6.0 / 8.0;
        assert!(t.as_slice().iter().all(|x| x.abs() <= bound + 1e-6));
    }

    #[test]
    fn normalized_rows_are_unit() {
        let t = xavier_normalized(20, 16, 3);
        for i in 0..20 {
            let norm: f32 = t.row(i).iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn stacked_identity_blocks() {
        let t = stacked_identity(2, 2, 3);
        // Each row is a 2x3 matrix [[1,0,0],[0,1,0]].
        for r in 0..2 {
            assert_eq!(t.row(r), &[1.0, 0.0, 0.0, 0.0, 1.0, 0.0]);
        }
        assert_eq!(stacked_identity(2, 0, 3).shape(), (2, 0));
    }

    #[test]
    fn unit_phases_lie_on_circle() {
        let t = unit_phases(4, 8, 5);
        for row in 0..4 {
            for pair in t.row(row).chunks_exact(2) {
                let norm = pair[0] * pair[0] + pair[1] * pair[1];
                assert!((norm - 1.0).abs() < 1e-5);
            }
        }
    }
}
