//! # parafs
//!
//! Simulated cluster file systems for the pioBLAST reproduction: an
//! in-memory object [`store`] behind a processor-sharing bandwidth
//! contention model ([`fs::SimFs`]), parameterized by [`profile`]s that
//! model the paper's two platforms — XFS on the ORNL SGI Altix (high
//! aggregate bandwidth, collective writes scale) and NFS on the NCSU
//! blade cluster (a single saturated server, concurrent clients mostly
//! serialize). Node-local disks are just private `SimFs` instances with
//! the `local_disk` profile.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod fs;
pub mod profile;
pub mod run;
pub mod store;
pub mod stripe;

pub use fs::{AsyncIo, FsCounters, SimFs};
pub use profile::{ClassTally, FsProfile, IoClass};
pub use run::Run;
pub use store::{FileStore, StoreError};
pub use stripe::{StripeChunk, StripeMap};
