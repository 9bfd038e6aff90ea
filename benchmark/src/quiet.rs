//! The quiet-time estimator (rule R2 of the README) and the percentile
//! rule every latency metric uses.
//!
//! On the shared two-core box this benchmark was designed on, identical
//! work inside one process varies by 15–25 % between a "quiet" and a "slow"
//! machine state that last seconds to tens of seconds. A mean or a median of
//! whole passes inherits that state; the *minimum over repetitions of each
//! small item*, summed over the items, does not, as long as every item saw
//! the quiet state at least once — which is why repetitions are spread over
//! the whole run rather than run back to back.

/// Running minimum of each of a fixed set of identical-work items
/// (batch step `b`, query `i`, the end-of-epoch call, one whole set-up).
#[derive(Debug, Clone)]
pub struct Quiet {
    min: Vec<f64>,
    reps: Vec<u32>,
}

impl Quiet {
    /// An estimator over `items` items, none of them seen yet.
    pub fn new(items: usize) -> Self {
        Self {
            min: vec![f64::INFINITY; items],
            reps: vec![0; items],
        }
    }

    /// Records one repetition of item `item` that took `secs` seconds.
    pub fn record(&mut self, item: usize, secs: f64) {
        if secs < self.min[item] {
            self.min[item] = secs;
        }
        self.reps[item] += 1;
    }

    /// Per-item minima, in item order. An item never recorded reads as
    /// infinity, so a hole in the schedule cannot pass as a fast run.
    pub fn minima(&self) -> &[f64] {
        &self.min
    }

    /// The quiet time of one pass over all items: the sum of the minima.
    pub fn total(&self) -> f64 {
        self.min.iter().sum()
    }

    /// The smallest repetition count over the items (0 for no items).
    pub fn min_reps(&self) -> u32 {
        self.reps.iter().copied().min().unwrap_or(0)
    }
}

/// The pass indices (1-based, "after pass k") at which the `extra`
/// additional set-up repetitions run: after each `1/extra` of the passes,
/// so set-ups sample the same stretch of wall-clock as the timed items.
/// The first set-up runs before the warm-up pass and is not listed.
pub fn setup_points(passes: usize, extra: usize) -> Vec<usize> {
    (1..=extra)
        .map(|q| (q * passes).div_ceil(extra.max(1)))
        .collect()
}

/// Nearest rank (1-based) of percentile `p` (in `0..=1`) among `n` samples.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The rank (1-based) of the tail a sample set of size `n` supports: the
/// nearest rank of `want` if at least [`TAIL_BEYOND`] samples lie beyond
/// it, else the highest rank that still has that many beyond it; with fewer
/// than `2 × TAIL_BEYOND` samples nothing above the median is supported.
pub fn supported_tail_rank(n: usize, want: f64) -> usize {
    if n < 2 * TAIL_BEYOND {
        return nearest_rank(n, 0.5);
    }
    nearest_rank(n, want).min(n - TAIL_BEYOND)
}

/// Median and supported tail of a set of per-item minima.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Sample count.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// The percentile `tail` is taken at: 0.99 when [`TAIL_BEYOND`] samples
    /// lie beyond it, lower otherwise (see [`supported_tail_rank`]).
    pub tail_p: f64,
    /// Value at `tail_p`.
    pub tail: f64,
}

/// Summarizes per-item minima (any order, same unit in as out).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn latency(samples: &[f64]) -> Latency {
    assert!(!samples.is_empty(), "latency of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    let want_rank = nearest_rank(n, 0.99);
    let tail_rank = supported_tail_rank(n, 0.99);
    Latency {
        n,
        p50: sorted[nearest_rank(n, 0.5) - 1],
        tail_p: if tail_rank == want_rank {
            0.99
        } else {
            tail_rank as f64 / n as f64
        },
        tail: sorted[tail_rank - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_time_is_the_sum_of_per_item_minima() {
        // 3 items × 4 passes; pass 1 is wholly in the slow state and pass 2
        // has one stalled item. No single pass is all-quiet for item 2.
        let passes = [
            [1.00, 2.00, 3.30],
            [1.25, 2.50, 3.75],
            [1.00, 9.00, 3.00],
            [1.10, 2.00, 3.10],
        ];
        let mut q = Quiet::new(3);
        for pass in &passes {
            for (item, &t) in pass.iter().enumerate() {
                q.record(item, t);
            }
        }
        assert_eq!(q.minima(), &[1.00, 2.00, 3.00]);
        assert_eq!(q.total(), 6.00);
        assert_eq!(q.min_reps(), 4);
        // The best whole pass is slower than the quiet time.
        let best_pass = passes
            .iter()
            .map(|p| p.iter().sum::<f64>())
            .fold(f64::INFINITY, f64::min);
        assert!(best_pass > q.total());
    }

    #[test]
    fn unseen_items_poison_the_total() {
        let mut q = Quiet::new(2);
        q.record(0, 1.0);
        assert!(q.total().is_infinite());
        assert_eq!(q.min_reps(), 0);
    }

    #[test]
    fn extra_setups_are_interleaved_over_the_whole_run() {
        assert_eq!(setup_points(30, 4), vec![8, 15, 23, 30]);
        assert_eq!(setup_points(10, 4), vec![3, 5, 8, 10]);
        assert_eq!(setup_points(8, 4), vec![2, 4, 6, 8]);
        for passes in 4..40 {
            let pts = setup_points(passes, 4);
            assert_eq!(pts.len(), 4);
            assert!(pts.windows(2).all(|w| w[0] < w[1]), "{pts:?}");
            assert_eq!(*pts.last().unwrap(), passes);
        }
    }

    #[test]
    fn nearest_ranks() {
        assert_eq!(nearest_rank(100, 0.5), 50);
        assert_eq!(nearest_rank(100, 0.99), 99);
        assert_eq!(nearest_rank(100, 1.0), 100);
        assert_eq!(nearest_rank(100, 0.0), 1);
        assert_eq!(nearest_rank(1, 0.99), 1);
        assert_eq!(nearest_rank(27, 0.5), 14);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 3000 queries: p99 is rank 2970, 30 beyond.
        assert_eq!(supported_tail_rank(3000, 0.99), 2970);
        // 1000: rank 990, exactly 10 beyond.
        assert_eq!(supported_tail_rank(1000, 0.99), 990);
        // 999: rank 990 has 9 beyond -> rank 989.
        assert_eq!(supported_tail_rank(999, 0.99), 989);
        // 27 batch steps: rank 17 of 27.
        assert_eq!(supported_tail_rank(27, 0.99), 17);
        // Too few for any tail: the median.
        assert_eq!(supported_tail_rank(19, 0.99), 10);
    }

    #[test]
    fn latency_summary_sorts_and_reports_the_supported_tail() {
        let samples: Vec<f64> = (0..56).rev().map(f64::from).collect();
        let l = latency(&samples);
        assert_eq!(l.n, 56);
        assert_eq!(l.p50, 27.0);
        assert_eq!(l.tail_p, 46.0 / 56.0);
        assert_eq!(l.tail, 45.0);
        assert_eq!(samples.iter().filter(|&&s| s > l.tail).count(), 10);

        let many: Vec<f64> = (1..=3000).map(f64::from).collect();
        let l = latency(&many);
        assert_eq!((l.tail_p, l.tail, l.p50), (0.99, 2970.0, 1500.0));
    }
}
