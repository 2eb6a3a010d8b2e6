//! # tracelog
//!
//! The cluster-wide observability plane: structured span/event tracing
//! stamped with the discrete-event simulator's virtual clock.
//!
//! Simulated ranks run as resumable continuations on `simcluster`'s
//! engine thread, so the plane hangs off a thread-local slot that the
//! engine fills per *resumption*: each rank's [`RankHandle`] (rank id +
//! virtual-clock closure) is swapped in before the rank runs and back
//! out when it yields. Instrumented code anywhere in the stack calls
//! the free functions ([`span`], [`instant`], [`counter`], [`phase`])
//! without threading a handle through every signature; when no tracer
//! is installed they are no-ops, so untraced runs pay almost nothing.
//!
//! The pieces:
//!
//! * [`Tracer`] — per-rank ring-buffered event sinks, merged
//!   deterministically into a [`Trace`] at run end;
//! * [`Counters`] — the one counter registry. `simcluster`'s phase
//!   accounting and `parafs`'s per-class I/O tallies are both stored in
//!   this type, so there is exactly one accounting path;
//! * [`chrome`] — a Chrome `trace_event` JSON exporter (one "process"
//!   per rank, one "thread" per subsystem [`Lane`]) loadable in
//!   Perfetto;
//! * [`analyze`] — flat per-rank phase timelines and a cluster-wide
//!   critical-path phase breakdown, both exact partitions of the
//!   virtual wall clock in integer nanoseconds;
//! * [`check`] — a schema validator for the exported JSON (monotonic
//!   timestamps, balanced begin/end pairs), used by `trace-check` in CI;
//! * [`diff`] — aligns two exported runs by `(rank, lane, phase)` and
//!   reports which lane/phase diverged and by how much, used by
//!   `trace-diff` to compare scale-sweep runs.
//!
//! ## Clock domain
//!
//! All timestamps are **virtual nanoseconds** since simulation start —
//! the same integer clock `simcluster::SimTime` wraps. Real (measured)
//! compute time is charged to the virtual clock by the engine before
//! any event is stamped, so traces are deterministic for a fixed seed.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod analyze;
pub mod check;
pub mod chrome;
mod counters;
pub mod diff;
mod event;
mod sink;

pub use counters::Counters;
pub use event::{ArgVal, Event, EventKind, Lane};
pub use sink::{
    closed_span, counter, install, installed, instant, is_installed, now, phase, rank_handle, span,
    span_args, InstallGuard, RankHandle, Span, Trace, Tracer,
};
