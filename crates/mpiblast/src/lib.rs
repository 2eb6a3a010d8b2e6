//! # mpiblast
//!
//! A faithful reimplementation of the mpiBLAST 1.2.1 baseline the paper
//! measures against, plus the application-level substrate both programs
//! share:
//!
//! * [`platform`] — the simulated machines (Altix, blade cluster) and
//!   their file systems;
//! * [`model`] — measured vs. modeled compute-cost accounting;
//! * [`wire`] — the serialized message formats (query broadcast, result
//!   submissions, the serialized fetch protocol, pioBLAST metadata);
//! * [`report`] — canonical hit ordering, selection, section layout, and
//!   the serial reference report both parallel programs must reproduce
//!   byte-for-byte;
//! * [`setup`] — staging databases/fragments/queries on the shared file
//!   system;
//! * [`error`] — the one failure vocabulary both programs report in;
//! * [`app`] — the mpiBLAST run itself: static fragments, greedy
//!   assignment, the copy stage, and the serialized result merging and
//!   master-only output that the paper shows dominating execution time.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod app;
pub mod error;
pub mod model;
pub mod platform;
pub mod report;
pub mod setup;
pub mod wire;

pub use app::{run_rank, MpiBlastConfig, RankReport, MASTER};
pub use error::{InputError, PioError};
pub use model::{ComputeModel, ModelParams};
pub use platform::{ClusterEnv, Platform};
pub use report::{ReportError, ReportOptions};

/// Phase-name constants shared by both applications and the harnesses.
pub mod phases {
    /// mpiBLAST fragment copying (shared -> private storage).
    pub const COPY: &str = "copy";
    /// pioBLAST parallel input (ranged reads of the shared database).
    pub const INPUT: &str = "input";
    /// BLAST search.
    pub const SEARCH: &str = "search";
    /// Result merging and output.
    pub const OUTPUT: &str = "output";
    /// Everything else (query broadcast, setup, teardown).
    pub const OTHER: &str = "other";
}
