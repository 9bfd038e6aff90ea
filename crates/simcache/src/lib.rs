//! Trace-driven cache simulation.
//!
//! The paper measures CPU cache-miss rates with Linux `perf` (Table 7). That
//! counter is unavailable in a pure-Rust reproduction, so we replay the
//! *memory access streams* of the competing kernels — fine-grained
//! gather/scatter versus CSR SpMM — through a configurable set-associative
//! LRU cache model and compare miss rates. The locality mechanism the paper
//! measures (SpMM's streaming, row-blocked access vs. scatter's irregular
//! row-sized writes to a huge table) is exactly what the model captures.
//!
//! * [`Cache`] — one set-associative LRU level.
//! * [`Hierarchy`] — an inclusive two-level (L1 + L2) stack.
//! * [`trace`] — address-stream generators mirroring the kernels in
//!   `sparse` and `tensor`.
//!
//! **Place in the workspace:** a leaf analysis crate over `sparse` (whose
//! matrices drive the traces). The paper artifact `table7`, the CLI's LRU
//! replay of the pager's and the serving cache's row traces, and the
//! `sptransx` tests depend on it.
//!
//! # Examples
//!
//! ```
//! use simcache::{Cache, CacheConfig};
//!
//! let mut cache = Cache::new(CacheConfig { size_bytes: 1024, line_bytes: 64, ways: 2 });
//! cache.access(0);
//! cache.access(0);
//! assert_eq!(cache.stats().hits, 1);
//! assert_eq!(cache.stats().misses, 1);
//! ```

#![deny(missing_docs)]

pub mod trace;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line (block) size in bytes.
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// A 32 KiB, 8-way, 64-byte-line L1d (typical x86 core).
    pub fn l1d() -> Self {
        Self {
            size_bytes: 32 * 1024,
            line_bytes: 64,
            ways: 8,
        }
    }

    /// A 512 KiB, 8-way, 64-byte-line private L2 (Zen 3, the paper's EPYC
    /// 7763 test CPU).
    pub fn l2() -> Self {
        Self {
            size_bytes: 512 * 1024,
            line_bytes: 64,
            ways: 8,
        }
    }

    fn num_sets(&self) -> usize {
        (self.size_bytes / self.line_bytes / self.ways).max(1)
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss rate in `[0, 1]` (0 for no accesses).
    pub fn miss_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// One set-associative LRU cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `sets[s]` holds up to `ways` tags, most-recently-used last.
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
}

/// Result of a single access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The line was resident.
    Hit,
    /// The line was fetched (possibly evicting another).
    Miss,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes or ways, or a line
    /// larger than the capacity).
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.line_bytes > 0 && config.ways > 0,
            "degenerate cache geometry"
        );
        assert!(
            config.size_bytes >= config.line_bytes * config.ways,
            "capacity below one set"
        );
        let sets = vec![Vec::with_capacity(config.ways); config.num_sets()];
        Self {
            config,
            sets,
            stats: CacheStats::default(),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accesses one byte address; returns hit/miss and updates LRU state.
    pub fn access(&mut self, addr: u64) -> Access {
        let line = addr / self.config.line_bytes as u64;
        let set_idx = (line % self.sets.len() as u64) as usize;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == line) {
            // Move to MRU position.
            let tag = set.remove(pos);
            set.push(tag);
            self.stats.hits += 1;
            Access::Hit
        } else {
            if set.len() == self.config.ways {
                set.remove(0); // evict LRU
            }
            set.push(line);
            self.stats.misses += 1;
            Access::Miss
        }
    }

    /// Accesses every line in `[addr, addr + len)` once (a streaming read or
    /// write of `len` bytes).
    pub fn access_range(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let lb = self.config.line_bytes as u64;
        let first = addr / lb;
        let last = (addr + len - 1) / lb;
        for line in first..=last {
            self.access(line * lb);
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears counters (contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

/// A two-level cache hierarchy: L1 misses fall through to L2.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// First level.
    pub l1: Cache,
    /// Second level.
    pub l2: Cache,
}

impl Hierarchy {
    /// Builds the default L1+L2 stack modeled on the paper's test CPU.
    pub fn epyc_like() -> Self {
        Self {
            l1: Cache::new(CacheConfig::l1d()),
            l2: Cache::new(CacheConfig::l2()),
        }
    }

    /// Accesses one address through the hierarchy.
    pub fn access(&mut self, addr: u64) {
        if self.l1.access(addr) == Access::Miss {
            self.l2.access(addr);
        }
    }

    /// Streams `len` bytes starting at `addr` through the hierarchy.
    pub fn access_range(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let lb = self.l1.config().line_bytes as u64;
        let first = addr / lb;
        let last = (addr + len - 1) / lb;
        for line in first..=last {
            self.access(line * lb);
        }
    }

    /// Overall miss rate: L2 misses over L1 accesses (the "both levels
    /// missed" fraction, closest to perf's LLC-miss ratio).
    pub fn overall_miss_rate(&self) -> f64 {
        let total = self.l1.stats().accesses();
        if total == 0 {
            0.0
        } else {
            self.l2.stats().misses as f64 / total as f64
        }
    }

    /// Clears counters on both levels.
    pub fn reset_stats(&mut self) {
        self.l1.reset_stats();
        self.l2.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512 B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            ways: 2,
        })
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = tiny();
        assert_eq!(c.access(100), Access::Miss);
        assert_eq!(c.access(100), Access::Hit);
        assert_eq!(c.access(127), Access::Hit); // same 64B line
        assert_eq!(c.access(128), Access::Miss); // next line
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Three lines mapping to the same set (stride = sets * line = 256).
        c.access(0);
        c.access(256);
        c.access(0); // refresh 0 -> LRU order: 256, 0
        c.access(512); // evicts 256
        assert_eq!(c.access(0), Access::Hit);
        assert_eq!(c.access(256), Access::Miss);
    }

    #[test]
    fn range_access_touches_each_line_once() {
        let mut c = tiny();
        c.access_range(0, 256); // 4 lines
        assert_eq!(c.stats().accesses(), 4);
        c.access_range(10, 0);
        assert_eq!(c.stats().accesses(), 4);
        c.access_range(63, 2); // straddles a boundary -> 2 lines
        assert_eq!(c.stats().accesses(), 6);
    }

    #[test]
    fn sequential_stream_beats_random() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut seq = Cache::new(CacheConfig::l1d());
        let mut rnd = Cache::new(CacheConfig::l1d());
        // 1 MiB working set.
        for i in 0..262_144u64 {
            seq.access(i * 4);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..262_144u64 {
            rnd.access(rng.gen_range(0..1_048_576));
        }
        assert!(seq.stats().miss_rate() < rnd.stats().miss_rate());
    }

    #[test]
    fn hierarchy_l2_absorbs_l1_misses() {
        let mut h = Hierarchy::epyc_like();
        // Working set: 64 KiB — too big for L1 (32 KiB), fits L2.
        for _ in 0..4 {
            for i in 0..1024u64 {
                h.access_range(i * 64, 64);
            }
        }
        let l1_rate = h.l1.stats().miss_rate();
        let overall = h.overall_miss_rate();
        assert!(l1_rate > 0.5, "L1 should thrash: {l1_rate}");
        assert!(overall < 0.3, "L2 should absorb: {overall}");
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_ways_rejected() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            ways: 0,
        });
    }
}
