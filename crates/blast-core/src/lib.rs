//! # blast-core
//!
//! A from-scratch implementation of the BLAST sequence-search algorithm
//! (Altschul et al. 1990, with the gapped two-hit refinements of BLAST 2),
//! built as the search substrate for the pioBLAST reproduction.
//!
//! The pipeline:
//!
//! 1. [`fasta`] parses queries and databases; [`alphabet`] encodes residues.
//! 2. [`lookup`] builds a neighborhood-word table over the concatenated
//!    query set ([`lookup::QuerySet`]).
//! 3. [`search::BlastSearcher`] scans subjects, triggering two-hit ungapped
//!    X-drop extensions ([`extend::ungapped_xdrop`]) and escalating to
//!    gapped X-drop extensions ([`extend::gapped_xdrop`]).
//! 4. [`stats`] scores HSPs against the whole database's effective search
//!    space with Karlin–Altschul statistics computed in [`karlin`].
//! 5. [`mod@format`] renders NCBI-style pairwise reports; traceback comes from
//!    [`extend::banded_global`].
//!
//! The kernel is deliberately partition-agnostic: it searches any
//! [`search::SubjectSource`], and statistics are always global, so a
//! database may be split across workers (mpiBLAST-style physical fragments
//! or pioBLAST-style virtual fragments) without changing any reported
//! score, E-value, or output byte.
//!
//! ```
//! use blast_core::alphabet::Molecule;
//! use blast_core::fasta;
//! use blast_core::search::{
//!     BlastSearcher, PreparedQueries, SearchParams, SearchScratch, VecSource,
//! };
//! use blast_core::stats::DbStats;
//!
//! let db = fasta::parse(Molecule::Protein,
//!     b">s1 target\nMKVLAAGHWRTEYFNDCQWHERTYPLKIHGFDSAEWCVNM\n").unwrap();
//! let stats = DbStats { num_sequences: 1, total_residues: 40 };
//! let queries = fasta::parse(Molecule::Protein,
//!     b">q1\nMKVLAAGHWRTEYFNDCQWHERTYPLKIHGFDSAEWCVNM\n").unwrap();
//!
//! let params = SearchParams::blastp();
//! let prepared = PreparedQueries::prepare(&params, queries, stats);
//! let searcher = BlastSearcher::new(&params, &prepared);
//! // One scratch, reused across every partition searched (the runtime
//! // borrows its thread's through `SearchScratch::with_local`).
//! let mut scratch = SearchScratch::new();
//! let result = searcher.search(&VecSource::from_records(&db), &mut scratch);
//! assert_eq!(result.per_query[0][0].oid, 0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod alphabet;
pub mod extend;
pub mod fasta;
pub mod filter;
pub mod format;
pub mod hsp;
pub mod karlin;
mod lanes;
pub mod lookup;
pub mod matrix;
pub mod search;
pub mod seq;
pub mod stats;

pub use alphabet::Molecule;
pub use hsp::Hsp;
pub use matrix::ScoreMatrix;
pub use search::{BlastSearcher, PreparedQueries, SearchParams, SearchScratch};
pub use seq::{SeqRecord, SubjectView};
pub use stats::DbStats;
