//! The trace sink: per-rank ring buffers behind a cloneable handle,
//! plus the thread-local recording API instrumented code calls.
//!
//! `simcluster` executes every rank of a run as a resumable
//! continuation on one engine thread, exactly one running at a time.
//! The engine keeps one [`RankHandle`] per rank (rank id + virtual-clock
//! closure) and swaps it into that thread's thread-local slot around
//! every resumption, so the recording context follows the rank, not
//! the thread; plain thread-per-task hosts can use [`install`] instead.
//! The free functions here ([`span`], [`instant`], [`counter`],
//! [`phase`]) look the slot up and record into the rank's buffer. When
//! nothing is installed they are no-ops, so instrumentation can live
//! permanently in every crate.

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::{Arc, Mutex, PoisonError};

use crate::event::{ArgVal, Event, EventKind, Lane};

/// Default per-rank event capacity. Generous for any simulated run in
/// this suite; overflow increments a per-rank drop counter instead of
/// growing without bound.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

#[derive(Debug, Default)]
struct RankBuf {
    events: Vec<Event>,
    seq: u64,
    dropped: u64,
}

#[derive(Debug)]
struct TracerInner {
    ranks: Vec<Mutex<RankBuf>>,
    cap: usize,
}

/// A cloneable handle on the whole run's trace: one ring buffer per
/// rank, merged deterministically by [`Tracer::finish`].
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// A tracer for `nranks` ranks with the default per-rank capacity.
    pub fn new(nranks: usize) -> Tracer {
        Tracer::with_capacity(nranks, DEFAULT_CAPACITY)
    }

    /// A tracer with an explicit per-rank event capacity.
    pub fn with_capacity(nranks: usize, cap: usize) -> Tracer {
        Tracer {
            inner: Arc::new(TracerInner {
                ranks: (0..nranks)
                    .map(|_| Mutex::new(RankBuf::default()))
                    .collect(),
                cap,
            }),
        }
    }

    /// Number of ranks this tracer buffers.
    pub fn nranks(&self) -> usize {
        self.inner.ranks.len()
    }

    /// Record one event on `rank`'s buffer at virtual time `t`. This is
    /// the low-level entry point; rank threads normally go through the
    /// thread-local free functions, while the engine's scheduler (which
    /// acts on behalf of ranks it is waking or killing) calls this
    /// directly.
    pub fn record(
        &self,
        rank: usize,
        t: u64,
        lane: Lane,
        kind: EventKind,
        name: Cow<'static, str>,
        args: Vec<(&'static str, ArgVal)>,
    ) {
        // Each update below leaves the buffer valid, so one poisoned by
        // a panicking rank is used as it is.
        let mut buf = self.inner.ranks[rank]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let seq = buf.seq;
        buf.seq += 1;
        if buf.events.len() >= self.inner.cap {
            buf.dropped += 1;
            return;
        }
        buf.events.push(Event {
            t,
            rank,
            seq,
            lane,
            kind,
            name,
            args,
        });
    }

    /// Drain every rank buffer and merge into one deterministic stream,
    /// sorted by `(t, rank, seq)`. `wall` is the engine's final virtual
    /// clock; it bounds every timeline the analyzer derives.
    pub fn finish(&self, wall: u64) -> Trace {
        let mut events = Vec::new();
        let mut dropped = 0;
        for m in &self.inner.ranks {
            let buf = std::mem::take(&mut *m.lock().unwrap_or_else(PoisonError::into_inner));
            dropped += buf.dropped;
            events.extend(buf.events);
        }
        events.sort_by_key(|e| (e.t, e.rank, e.seq));
        Trace {
            nranks: self.inner.ranks.len(),
            wall,
            events,
            dropped,
        }
    }
}

/// A finished, merged trace: the deterministic event stream for a run.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Number of ranks in the run.
    pub nranks: usize,
    /// The engine's final virtual clock in nanoseconds.
    pub wall: u64,
    /// All events, sorted by `(t, rank, seq)`.
    pub events: Vec<Event>,
    /// Events lost to ring-buffer overflow (0 in any healthy run).
    pub dropped: u64,
}

impl Trace {
    /// Events belonging to `rank`, in merged order.
    pub fn rank_events(&self, rank: usize) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.rank == rank)
    }
}

struct Installed {
    tracer: Tracer,
    rank: usize,
    clock: Box<dyn Fn() -> u64>,
}

thread_local! {
    static CURRENT: RefCell<Option<Installed>> = const { RefCell::new(None) };
}

/// Install `tracer` as this thread's sink for `rank`, with `clock`
/// supplying the virtual time for every subsequent free-function call.
/// The returned guard uninstalls on drop (end of the rank thread).
pub fn install(tracer: Tracer, rank: usize, clock: impl Fn() -> u64 + 'static) -> InstallGuard {
    CURRENT.with(|c| {
        *c.borrow_mut() = Some(Installed {
            tracer,
            rank,
            clock: Box::new(clock),
        });
    });
    InstallGuard { _priv: () }
}

/// Uninstalls the thread-local tracer when dropped.
#[must_use = "dropping the guard uninstalls the tracer"]
pub struct InstallGuard {
    _priv: (),
}

/// A detached per-rank tracer installation for engines that execute
/// many ranks as resumable continuations on one thread: the handle is
/// built once per rank (boxing the clock closure exactly once) and then
/// [`RankHandle::swap`]ped into the thread-local slot before each
/// resumption and back out after the rank yields — so the recording
/// context follows the *rank*, not the OS thread, with no per-resume
/// allocation.
pub struct RankHandle {
    slot: Option<Installed>,
}

/// Build a [`RankHandle`] for `rank` recording into `tracer`, with
/// `clock` supplying the virtual time. Nothing is installed until the
/// first [`RankHandle::swap`].
pub fn rank_handle(tracer: Tracer, rank: usize, clock: impl Fn() -> u64 + 'static) -> RankHandle {
    RankHandle {
        slot: Some(Installed {
            tracer,
            rank,
            clock: Box::new(clock),
        }),
    }
}

impl RankHandle {
    /// Exchange this handle's installation with the current thread's
    /// slot. Calling it twice (around a resumption) restores whatever
    /// was installed before — swaps therefore nest correctly even if a
    /// resumed continuation briefly resumes another.
    pub fn swap(&mut self) {
        CURRENT.with(|c| std::mem::swap(&mut *c.borrow_mut(), &mut self.slot));
    }
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = None);
    }
}

/// Is a tracer installed on this thread?
pub fn is_installed() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// The tracer installed on this thread and the rank it records for.
/// Work a rank hands to the engine — a service callback, which runs with
/// no rank installed — records on the rank's behalf through it
/// ([`Tracer::record`]).
pub fn installed() -> Option<(Tracer, usize)> {
    CURRENT.with(|c| c.borrow().as_ref().map(|i| (i.tracer.clone(), i.rank)))
}

/// The installed clock's current virtual time, if a tracer is installed.
pub fn now() -> Option<u64> {
    CURRENT.with(|c| c.borrow().as_ref().map(|i| (i.clock)()))
}

fn record_here(
    lane: Lane,
    kind: EventKind,
    name: Cow<'static, str>,
    args: Vec<(&'static str, ArgVal)>,
) {
    CURRENT.with(|c| {
        if let Some(i) = c.borrow().as_ref() {
            let t = (i.clock)();
            i.tracer.record(i.rank, t, lane, kind, name, args);
        }
    });
}

fn record_here_at(
    t: u64,
    lane: Lane,
    kind: EventKind,
    name: Cow<'static, str>,
    args: Vec<(&'static str, ArgVal)>,
) {
    CURRENT.with(|c| {
        if let Some(i) = c.borrow().as_ref() {
            i.tracer.record(i.rank, t, lane, kind, name, args);
        }
    });
}

/// Record a point event on `lane` at the current virtual time.
pub fn instant(lane: Lane, name: impl Into<Cow<'static, str>>, args: Vec<(&'static str, ArgVal)>) {
    record_here(lane, EventKind::Instant, name.into(), args);
}

/// Record a cumulative counter sample: the registry value of `name` is
/// `value` as of now.
pub fn counter(name: impl Into<Cow<'static, str>>, value: u64) {
    record_here(Lane::Io, EventKind::Counter(value), name.into(), Vec::new());
}

/// Open a span on `lane`; the returned guard closes it on drop. Spans
/// on one rank+lane nest like a stack (RAII ordering).
pub fn span(lane: Lane, name: impl Into<Cow<'static, str>>) -> Span {
    span_args(lane, name, Vec::new())
}

/// [`span`] with arguments attached to the opening event.
pub fn span_args(
    lane: Lane,
    name: impl Into<Cow<'static, str>>,
    args: Vec<(&'static str, ArgVal)>,
) -> Span {
    let active = is_installed();
    if active {
        record_here(lane, EventKind::Begin, name.into(), args);
    }
    Span { lane, active }
}

/// An open span; dropping it records the matching end event.
#[must_use = "dropping the span closes it immediately"]
pub struct Span {
    lane: Lane,
    active: bool,
}

impl Span {
    /// Close the span now (same as dropping it).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.active {
            record_here(self.lane, EventKind::End, Cow::Borrowed(""), Vec::new());
        }
    }
}

/// Record a completed span retroactively: a Begin at `start_ns` and an
/// End at `end_ns` on `lane`, with `args` attached to the opening
/// event. For instrumentation whose interesting attributes (counts,
/// sizes) are only known once the work has finished.
pub fn closed_span(
    lane: Lane,
    name: impl Into<Cow<'static, str>>,
    start_ns: u64,
    end_ns: u64,
    args: Vec<(&'static str, ArgVal)>,
) {
    let name = name.into();
    record_here_at(start_ns, lane, EventKind::Begin, name, args);
    record_here_at(
        end_ns.max(start_ns),
        lane,
        EventKind::End,
        Cow::Borrowed(""),
        Vec::new(),
    );
}

/// Record a retroactive span of `dur_ns` ending now on the [`Lane::Phase`]
/// timeline — the bridge from `PhaseTimes::add` style accounting
/// ("charge d nanoseconds of `name`, measured just now") into the trace.
pub fn phase(name: &str, dur_ns: u64) {
    CURRENT.with(|c| {
        if let Some(i) = c.borrow().as_ref() {
            let end = (i.clock)();
            let start = end.saturating_sub(dur_ns);
            let owned: Cow<'static, str> = Cow::Owned(name.to_string());
            i.tracer.record(
                i.rank,
                start,
                Lane::Phase,
                EventKind::Begin,
                owned.clone(),
                Vec::new(),
            );
            i.tracer
                .record(i.rank, end, Lane::Phase, EventKind::End, owned, Vec::new());
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn free_functions_are_noops_without_install() {
        assert!(!is_installed());
        assert_eq!(now(), None);
        instant(Lane::Runtime, "orphan", Vec::new());
        let s = span(Lane::Io, "orphan");
        drop(s);
        phase("search", 100);
    }

    #[test]
    fn spans_and_instants_record_in_order() {
        let tracer = Tracer::new(1);
        let t = Rc::new(Cell::new(0u64));
        {
            let tc = t.clone();
            let _g = install(tracer.clone(), 0, move || tc.get());
            t.set(10);
            let s = span_args(Lane::Io, "read", vec![("bytes", ArgVal::U64(64))]);
            t.set(25);
            instant(Lane::Runtime, "grant", vec![("frag", 3usize.into())]);
            t.set(40);
            drop(s);
            t.set(50);
            phase("search", 30);
        }
        assert!(!is_installed());
        let trace = tracer.finish(60);
        let kinds: Vec<(u64, EventKind)> = trace.events.iter().map(|e| (e.t, e.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                (10, EventKind::Begin),
                (20, EventKind::Begin), // phase span start: 50 - 30
                (25, EventKind::Instant),
                (40, EventKind::End),
                (50, EventKind::End),
            ]
        );
        // Sequence numbers break the (t, rank) ties deterministically.
        let seqs: Vec<u64> = trace.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 3, 1, 2, 4]);
        assert_eq!(trace.dropped, 0);
        assert_eq!(trace.wall, 60);
    }

    #[test]
    fn overflow_counts_drops() {
        let tracer = Tracer::with_capacity(1, 2);
        let _g = install(tracer.clone(), 0, || 0);
        for _ in 0..5 {
            instant(Lane::Engine, "tick", Vec::new());
        }
        let trace = tracer.finish(0);
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.dropped, 3);
    }

    #[test]
    fn merge_orders_across_ranks() {
        let tracer = Tracer::new(2);
        tracer.record(1, 5, Lane::Net, EventKind::Instant, "b".into(), Vec::new());
        tracer.record(0, 5, Lane::Net, EventKind::Instant, "a".into(), Vec::new());
        tracer.record(0, 2, Lane::Net, EventKind::Instant, "c".into(), Vec::new());
        let trace = tracer.finish(10);
        let names: Vec<&str> = trace.events.iter().map(|e| e.name.as_ref()).collect();
        assert_eq!(names, vec!["c", "a", "b"]);
    }
}
