//! Shared harness utilities for the benchmark binaries that regenerate the
//! paper's tables and figures. See `src/bin/` for one binary per artifact
//! and `benches/` for the micro-benchmarks and the `BENCH_*.json` passes,
//! all timed by [`harness::time_arm`].
//!
//! **Place in the workspace:** the top of the dependency graph — it drives
//! every other crate (`sptransx` models over `kg` datasets, with `simcache`
//! for the cache-miss analog) and is depended on by nothing.

#![deny(missing_docs)]

pub mod harness;
pub mod json;
