//! # mpiio
//!
//! MPI-IO over the simulated cluster: [`view::FileView`]s (displacement +
//! noncontiguous regions, as set by `MPI_File_set_view`) and a faithful
//! *two-phase collective I/O* implementation ([`fileio::MpiFile::write_at_all`] /
//! [`fileio::MpiFile::read_at_all`]): view exchange, file-domain
//! partitioning across aggregator ranks, point-to-point data shuffling,
//! and large coalesced file-system transfers.
//!
//! This is the substrate behind both of pioBLAST's headline I/O moves:
//! parallel input of virtual database fragments, and collective output of
//! scattered result records into one shared report file.
//!
//! Consumers do not call `MpiFile` directly: the [`plane::IoPlane`]
//! fronts it with one typed verb per kind of data and owns how the bytes
//! move: the access class of each kind (independent, data-sieved, or
//! two-phase collective), the issue policy (`io_async`) and the rank's
//! burst-buffer staging sink. Whoever turns regions into file-system
//! operations does its offset–length list arithmetic in [`runs`].

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod fileio;
pub mod plane;
pub mod runs;
mod stage;
pub mod view;

pub use burstfs::{BurstError, BurstOptions, BurstStats, StagingStore};
pub use fileio::{CollectiveHints, MpiFile};
pub use plane::{IoOptions, IoPlane, PlaneConfig, PostedViews, SIEVE_HOLE_LIMIT};
pub use runs::{cut, merge, merge_bytes, pieces, Cover, Run};
pub use view::{FileView, ViewError};
