//! # seqfmt
//!
//! The database-formatting substrate of the pioBLAST reproduction — the
//! role NCBI `formatdb` plays for mpiBLAST:
//!
//! * [`formatdb`] turns raw FASTA into indexed [`volume`]s (sequence,
//!   header and index files) plus an alias file, with multi-volume
//!   splitting for large databases.
//! * [`frag`] computes fragments two ways: *virtual* byte-range fragments
//!   for pioBLAST's dynamic partitioning, and *physical* fragment files
//!   for the mpiBLAST baseline (`mpiformatdb`).
//! * [`reader`] reassembles a searchable fragment from either whole files
//!   or the exact byte ranges a worker read with parallel I/O.
//! * [`synth`] generates deterministic GenBank-nr-like databases (the
//!   stand-in for nr/nt) and [`sampler`] draws query sets from them, the
//!   way the paper sampled its query workloads.
//!
//! All formats encode to and decode from plain byte buffers, so a
//! database can live on the simulated cluster file system, the host file
//! system, or in memory, identically.

#![warn(missing_docs)]
// Every parser here reads bytes a file or a peer supplied.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod codec;
pub mod formatdb;
pub mod frag;
pub mod reader;
pub mod sampler;
pub mod synth;
pub mod volume;

pub use codec::Wire;
pub use formatdb::{format_fasta, format_records, FormatDbConfig, FormattedDb};
pub use frag::{physical_fragments, virtual_fragments, FragmentSpec};
pub use reader::FragmentData;
pub use volume::{AliasFile, EncodedVolume, VolumeIndex};
