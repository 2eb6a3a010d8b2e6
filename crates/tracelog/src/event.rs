//! The event model: lanes, kinds, argument values.

use std::borrow::Cow;
use std::fmt;

/// A subsystem timeline. Each rank's trace is split into lanes, which
/// the Chrome exporter renders as one "thread" per lane inside the
/// rank's "process".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lane {
    /// Normalized per-rank phase timeline (copy/input/search/output/other).
    Phase,
    /// Per-fragment BLAST search spans from the driver.
    Search,
    /// File-system and I/O-plane request spans.
    Io,
    /// Point-to-point and collective communication.
    Net,
    /// Master/worker protocol events (grants, submissions, epochs).
    Runtime,
    /// Failure detection: liveness sweeps and timeouts.
    Sched,
    /// Engine-level process lifecycle: spawn, block, wake, kill, finish.
    Engine,
}

impl Lane {
    /// Every lane, in display order.
    pub const ALL: [Lane; 7] = [
        Lane::Phase,
        Lane::Search,
        Lane::Io,
        Lane::Net,
        Lane::Runtime,
        Lane::Sched,
        Lane::Engine,
    ];

    /// Stable lowercase label, used for `--trace-filter` and as the
    /// exported thread name.
    pub fn label(&self) -> &'static str {
        match self {
            Lane::Phase => "phase",
            Lane::Search => "search",
            Lane::Io => "io",
            Lane::Net => "net",
            Lane::Runtime => "runtime",
            Lane::Sched => "sched",
            Lane::Engine => "engine",
        }
    }

    /// The Chrome `tid` this lane exports as (1-based, display order).
    pub fn tid(&self) -> u64 {
        match self {
            Lane::Phase => 1,
            Lane::Search => 2,
            Lane::Io => 3,
            Lane::Net => 4,
            Lane::Runtime => 5,
            Lane::Sched => 6,
            Lane::Engine => 7,
        }
    }

    /// Parse a [`Lane::label`] back into a lane.
    pub fn parse(s: &str) -> Option<Lane> {
        Lane::ALL.into_iter().find(|l| l.label() == s)
    }
}

impl fmt::Display for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opens at `t`.
    Begin,
    /// The most recently opened span on this rank+lane closes at `t`.
    End,
    /// A point event.
    Instant,
    /// A cumulative counter sample (the registry value at `t`).
    Counter(u64),
}

/// A typed argument value attached to an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgVal {
    /// An unsigned integer.
    U64(u64),
    /// A short string (strategy name, phase label, ...).
    Str(Cow<'static, str>),
}

impl From<u64> for ArgVal {
    fn from(v: u64) -> ArgVal {
        ArgVal::U64(v)
    }
}

impl From<usize> for ArgVal {
    fn from(v: usize) -> ArgVal {
        ArgVal::U64(v as u64)
    }
}

impl From<&'static str> for ArgVal {
    fn from(v: &'static str) -> ArgVal {
        ArgVal::Str(Cow::Borrowed(v))
    }
}

impl From<String> for ArgVal {
    fn from(v: String) -> ArgVal {
        ArgVal::Str(Cow::Owned(v))
    }
}

/// One trace record: a span boundary, instant, or counter sample on a
/// rank's lane, stamped with the virtual clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Virtual time in nanoseconds since simulation start.
    pub t: u64,
    /// The rank whose timeline this event belongs to.
    pub rank: usize,
    /// Per-rank record sequence number (merge tiebreaker; also the
    /// recording order for retroactive spans).
    pub seq: u64,
    /// The subsystem lane.
    pub lane: Lane,
    /// Span boundary, instant, or counter sample.
    pub kind: EventKind,
    /// Event name ("grant", "read", "search", a phase label, ...).
    pub name: Cow<'static, str>,
    /// Typed key/value arguments.
    pub args: Vec<(&'static str, ArgVal)>,
}
