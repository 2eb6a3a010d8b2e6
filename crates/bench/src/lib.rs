//! # blast-bench
//!
//! Benchmark harnesses reproducing every table and figure in the paper's
//! evaluation (see `DESIGN.md` §3 for the experiment index) and the
//! ablations grown on top of it.
//!
//! Each exhibit is a `harness = false` bench target under `benches/`
//! that runs its simulated experiments through the one recipe,
//! [`runner::run`], prints the rows/series the paper reports, asserts
//! the exhibit's claim, and leaves its numbers through the one writer,
//! [`report`]: the figure harnesses under `target/paper-results/`, the
//! ablations in the committed `BENCH_*.json` files at the workspace
//! root, which CI regenerates and diffs. Host-time measurements live in
//! the separate `benchmark/` workspace, not here.

#![warn(missing_docs)]

pub mod report;
pub mod runner;
pub mod table;
pub mod workload;

pub use runner::{run, Program, Run, RunSummary};
