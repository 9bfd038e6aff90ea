//! The paper's twelve figures and tables ([`paper`], run by the `paper`
//! binary), the shared harness they and the benches use, and the one
//! estimator every bench in `benches/` — the micro-benchmarks and the
//! `BENCH_*.json` passes — times through ([`harness::time_arm`]).
//!
//! **Place in the workspace:** the top of the dependency graph — it drives
//! every other crate (`sptransx` models over `kg` datasets, with `simcache`
//! for the cache-miss analog) and is depended on by nothing.

#![deny(missing_docs)]

pub mod harness;
pub mod json;
pub mod paper;
