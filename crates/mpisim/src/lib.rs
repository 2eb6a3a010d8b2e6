//! # mpisim
//!
//! An MPI-like communication layer over the `simcluster` discrete-event
//! engine: point-to-point send/receive with a latency + bandwidth cost
//! model ([`net::NetProfile`], the Hockney model), and collectives
//! (binomial-tree barrier and broadcast, flat gather/scatter) whose costs
//! emerge from real per-hop messages.
//!
//! This is the stand-in for the MPI library mpiBLAST and pioBLAST run on;
//! the presets mirror the paper's machines (Altix NUMAlink, blade-cluster
//! gigabit Ethernet).

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod coll;
pub mod comm;
pub mod fault;
pub mod net;
pub mod sched;

pub use coll::Collectives;
pub use comm::Comm;
pub use fault::{RecvError, SendError};
pub use net::NetProfile;
pub use sched::{GrantQueue, Polled, Pump};
