//! # simcluster
//!
//! A deterministic discrete-event simulator for a message-passing cluster
//! — the substitute for the SGI Altix and the IBM blade cluster the paper
//! ran on.
//!
//! Every simulated MPI rank is a resumable continuation (a stackful
//! [`fiber`]); the [`engine`] runs them all on one thread per run, so
//! exactly one rank runs at a time against a shared virtual clock and a
//! 512-rank run needs one OS thread beyond its caller, not 512.
//! Communication and I/O charge *modeled* time; computation can charge
//! either modeled time ([`engine::RankCtx::charge`]) or the *measured*
//! wall time of real code ([`engine::RankCtx::run_measured`]), which is
//! how the benchmark harnesses embed genuine BLAST searches in simulated
//! multi-hundred-rank runs.
//!
//! Services built on the [`engine::SimHandle`] (the `parafs` file system,
//! the `mpisim` communication layer) can schedule and cancel wakes for
//! blocked ranks, enabling contention models that retime pending
//! operations as load changes.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod device;
pub mod engine;
pub mod fiber;
pub mod metrics;
pub mod time;

pub use device::{DeviceModel, DeviceTimeline};
pub use engine::{
    FaultPlan, FaultSpec, FaultTrigger, FaultySimOutcome, Message, RankCtx, Sim, SimError,
    SimHandle, SimOutcome, WakeId,
};
pub use metrics::PhaseTimes;
pub use time::{SimDuration, SimTime};
