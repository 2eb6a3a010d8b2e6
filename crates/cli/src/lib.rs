//! # pioblast-cli
//!
//! The library behind the `pioblast-sim` binary: argument parsing
//! ([`args`]) and the subcommands ([`commands`]) that generate synthetic
//! databases, format them, sample query sets, and run simulated
//! mpiBLAST/pioBLAST jobs against host-filesystem inputs.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod args;
pub mod commands;
