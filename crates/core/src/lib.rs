//! # pioblast
//!
//! The paper's contribution: **pioBLAST**, a parallel BLAST with
//! efficient data access (Lin, Ma, Chandramohan, Geist, Samatova,
//! IPPS 2005), rebuilt from scratch on a simulated cluster.
//!
//! Four optimizations over the mpiBLAST baseline (the `mpiblast` crate):
//!
//! 1. **Dynamic virtual partitioning** — the master computes
//!    `(start offset, end offset)` byte ranges over the shared formatted
//!    database's index, sequence and header files; no physical fragments
//!    are ever created, and any worker count works against one database
//!    ([`proto`], `seqfmt::virtual_fragments`).
//! 2. **Parallel input** — each worker reads exactly its ranges with
//!    MPI-IO-style ranged reads and searches in-memory buffers, removing
//!    both the copy stage and the I/O embedded in the search kernel.
//! 3. **Result caching** — workers format alignment records the moment
//!    results are found, while the subject data is at hand, and keep the
//!    bytes locally ([`cache`]).
//! 4. **Metadata-only merging + collective output** — the master merges
//!    scores and sizes, assigns absolute file offsets ([`merge`]), and
//!    all ranks emit the report with one two-phase collective write
//!    (`mpiio`): the master contributes headers and footers, the workers
//!    their records and the one-line summaries they render.
//!
//! Given the same queries and database, the serial reference
//! (`mpiblast::report::serial_report`), mpiBLAST, and pioBLAST produce
//! byte-identical output — the property the test suites of both app
//! crates pin down.
//!
//! Use [`app::run_rank`] as the rank body of a `simcluster::Sim`; see the
//! `examples/` directory at the workspace root.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod app;
pub mod cache;
pub mod fault;
pub mod input;
pub mod merge;
pub mod proto;
pub mod runtime;
pub mod service;
#[cfg(test)]
mod testutil;

pub use app::{run_rank, FragmentSchedule, PioBlastConfig};
pub use cache::ResultCache;
pub use fault::{FaultMode, PioError};
pub use input::InputError;
pub use merge::{merge_and_layout, MergeOutcome, Merger};
pub use service::{FragmentStore, QueryStreamPlan, ServiceMetrics, ServiceOptions, StreamBatch};

// Re-export the pieces callers need to assemble a run.
pub use mpiblast::{phases, ClusterEnv, ComputeModel, Platform, RankReport, ReportOptions};
pub use mpiio::{BurstError, BurstOptions, BurstStats, IoOptions, StagingStore};
