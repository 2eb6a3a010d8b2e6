//! The discrete-event engine and rank runtime.
//!
//! Each simulated MPI rank runs as a *resumable continuation* — a
//! stackful fiber ([`crate::fiber`]). Every run spawns one *engine
//! thread* that owns all of them: it pops the earliest event, resumes
//! the target rank's fiber by a direct call, and gets control back when
//! the rank yields again (on a timer, a message receive, or a
//! service-managed wake such as a file-system transfer). So *exactly
//! one* rank is ever running, a yielding rank parks by switching stacks
//! back to the scheduler loop rather than by blocking an OS thread, and
//! a run of any rank count uses one OS thread beyond its caller.
//! Virtual time advances only between events.
//!
//! Because only one rank runs at a time, a rank can execute *real*
//! computation (e.g. an actual BLAST fragment search) and charge its
//! measured wall time to the virtual clock ([`RankCtx::run_measured`]) —
//! the mechanism the benchmark harnesses use to get honest compute costs
//! inside the simulation.
//!
//! Services (like the simulated file system in the `parafs` crate) get a
//! [`SimHandle`] that can schedule and cancel wakes for blocked ranks,
//! which is what lets a processor-sharing bandwidth model retime pending
//! transfers whenever contention changes.
//!
//! Teardown is synchronous: a killed rank's fiber is force-unwound at
//! its kill time (destructors, and therefore open trace spans, close
//! deterministically), and a rank panic or deadlock drains every other
//! live fiber before [`Sim::try_run_faulty`] surfaces a typed
//! [`SimError`] — nothing is left parked when the engine thread is
//! joined.

use std::cell::RefCell;
use std::collections::{BinaryHeap, HashMap};
use std::convert::Infallible;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::fiber::{self, Fiber};
use crate::time::{SimDuration, SimTime};

/// Identifier of a scheduled wake, used to cancel or replace it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WakeId(u64);

/// A delivered message.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sending rank.
    pub src: usize,
    /// Application tag.
    pub tag: u64,
    /// Payload bytes.
    pub payload: Bytes,
    /// Virtual time the message arrived at the receiver.
    pub arrival: SimTime,
}

#[derive(Debug, Clone)]
struct QueuedMsg {
    src: usize,
    tag: u64,
    payload: Bytes,
    arrival: u64,
    seq: u64,
}

#[derive(Debug, Clone, Copy)]
struct Filter {
    src: Option<usize>,
    tag: Option<u64>,
}

impl Filter {
    fn matches(&self, m: &QueuedMsg) -> bool {
        self.src.is_none_or(|s| s == m.src) && self.tag.is_none_or(|t| t == m.tag)
    }
}

/// Aggregate engine statistics reported at the end of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Messages posted.
    pub messages: u64,
    /// Payload bytes posted.
    pub message_bytes: u64,
    /// Events processed by the scheduler.
    pub events: u64,
    /// Events ever pushed on the heap: `events` plus every event that
    /// was cancelled, or woke a rank that had already finished.
    pub scheduled: u64,
    /// Messages dropped because the destination rank was dead.
    pub dropped_to_dead: u64,
}

/// When an injected fault kills its rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// Kill at this virtual time (takes effect at the rank's next
    /// scheduling point at or after the time).
    AtTime(SimTime),
    /// Kill once the rank has posted this many messages (takes effect at
    /// the rank's next scheduling point after the triggering send).
    AfterSends(u64),
}

/// One injected rank failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Rank to kill.
    pub rank: usize,
    /// When to kill it.
    pub trigger: FaultTrigger,
}

/// A set of injected failures for one run (crash-stop model: a killed
/// rank silently stops executing, its queued and in-flight messages are
/// discarded, and later messages to it vanish — peers observe the death
/// only through [`RankCtx::is_dead`], [`RankCtx::has_left`] or timed-out
/// receives).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The injected failures.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// No injected failures.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Add a kill of `rank` at virtual time `time`.
    pub fn kill_at(mut self, rank: usize, time: SimTime) -> FaultPlan {
        self.faults.push(FaultSpec {
            rank,
            trigger: FaultTrigger::AtTime(time),
        });
        self
    }

    /// Add a kill of `rank` after its `sends`-th posted message.
    pub fn kill_after_sends(mut self, rank: usize, sends: u64) -> FaultPlan {
        self.faults.push(FaultSpec {
            rank,
            trigger: FaultTrigger::AfterSends(sends),
        });
        self
    }
}

/// A deferred service action run on the engine thread when its event
/// fires (see [`SimHandle::schedule_callback`]).
type Callback = Box<dyn FnOnce() + Send>;

/// What a heap event does when it fires.
enum Target {
    /// Resume this rank.
    Wake(usize),
    /// Crash-stop this rank.
    Kill(usize),
    /// Run a service callback on the engine thread.
    Callback(Callback),
}

struct EngineState {
    clock: u64,
    heap: BinaryHeap<std::cmp::Reverse<(u64, u64)>>, // (time, gen)
    /// Every pending heap event's target, by gen; a canceled event has
    /// no entry.
    targets: HashMap<u64, Target>,
    /// Ranks that returned or were killed.
    finished: Vec<bool>,
    dead: Vec<bool>,
    mailboxes: Vec<Vec<QueuedMsg>>,
    recv_filter: Vec<Option<Filter>>,
    recv_wakes: Vec<Vec<u64>>,
    /// Sends remaining until an `AfterSends` fault arms, per doomed rank.
    sends_until_kill: HashMap<usize, u64>,
    next_seq: u64,
    stats: EngineStats,
}

impl EngineState {
    fn schedule(&mut self, time: u64, target: Target) -> WakeId {
        // An event's generation is its ordinal among all ever scheduled.
        let gen = self.stats.scheduled;
        self.stats.scheduled += 1;
        self.heap.push(std::cmp::Reverse((time, gen)));
        self.targets.insert(gen, target);
        WakeId(gen)
    }

    /// Schedule a wake of `rank` that its current receive owns: delivery
    /// or give-up cancels it.
    fn schedule_recv_wake(&mut self, rank: usize, time: u64) {
        let gen = self.schedule(time, Target::Wake(rank));
        self.recv_wakes[rank].push(gen.0);
    }

    fn cancel(&mut self, id: WakeId) {
        self.targets.remove(&id.0);
    }

    /// `rank`'s earliest message matching `filter`, by (arrival, seq): its
    /// mailbox index and arrival time.
    fn earliest(&self, rank: usize, filter: Filter) -> Option<(usize, u64)> {
        self.mailboxes[rank]
            .iter()
            .enumerate()
            .filter(|(_, m)| filter.matches(m))
            .min_by_key(|(_, m)| (m.arrival, m.seq))
            .map(|(i, m)| (i, m.arrival))
    }

    /// Leave `rank`'s receive: drop its filter and cancel the wakes the
    /// receive armed (arrivals, the deadline, death notices).
    fn end_recv(&mut self, rank: usize) {
        self.recv_filter[rank] = None;
        while let Some(gen) = self.recv_wakes[rank].pop() {
            self.cancel(WakeId(gen));
        }
    }

    /// Remove message `i` from `rank`'s mailbox and leave the receive.
    fn deliver(&mut self, rank: usize, i: usize) -> Message {
        let m = self.mailboxes[rank].remove(i);
        self.end_recv(rank);
        Message {
            src: m.src,
            tag: m.tag,
            payload: m.payload,
            arrival: SimTime(m.arrival),
        }
    }

    /// Crash-stop `rank`: discard its mailbox and pending recv state, and
    /// give every rank blocked in a receive a spurious wake so
    /// deadline-aware receives can re-check liveness promptly.
    fn mark_dead(&mut self, rank: usize) {
        self.dead[rank] = true;
        self.finished[rank] = true;
        self.mailboxes[rank].clear();
        self.end_recv(rank);
        let clock = self.clock;
        for peer in 0..self.dead.len() {
            if peer != rank && self.recv_filter[peer].is_some() {
                self.schedule_recv_wake(peer, clock);
            }
        }
    }
}

/// Fiber stack size for rank bodies. Stacks are lazily committed by the
/// allocator, so this costs address space, not resident memory; bodies
/// run real search kernels, so it is sized like a small thread stack.
const RANK_STACK_BYTES: usize = 2 << 20;

/// Yield code: the rank suspended at an engine yield point
/// ([`RankCtx::wait_woken`]).
const YIELD_BLOCKED: usize = 0;
/// Completion code: the body returned and its output is stored.
const DONE_FINISHED: usize = 1;
/// Completion code: a teardown unwind ran the body's destructors.
const DONE_UNWOUND: usize = 2;
/// Completion code: the body panicked; the message is stored.
const DONE_PANICKED: usize = 3;

/// A fatal simulation failure, surfaced as a typed error by
/// [`Sim::try_run_faulty`]. The panicking entry points ([`Sim::run`],
/// [`Sim::run_faulty`]) panic with this error's `Display` string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A rank body panicked. The engine force-unwinds every other live
    /// rank before reporting, so a panicked run never hangs.
    RankPanic {
        /// The rank whose body panicked.
        rank: usize,
        /// The panic payload, rendered as a string.
        message: String,
    },
    /// No runnable rank and no pending event while unfinished ranks
    /// remain.
    Deadlock {
        /// Virtual time at which progress stopped.
        at: SimTime,
        /// The ranks still blocked, ascending.
        blocked: Vec<usize>,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::RankPanic { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            SimError::Deadlock { at, blocked } => write!(
                f,
                "simcluster deadlock at {at}: ranks {blocked:?} blocked with no pending events"
            ),
        }
    }
}

impl std::error::Error for SimError {}

struct Inner {
    state: Mutex<EngineState>,
    /// Hand-off slot from [`Sim::set_tracer`] to the run, which clones
    /// it once; nothing reads it while events are being dispatched.
    tracer: Mutex<Option<tracelog::Tracer>>,
}

/// Record an engine-lifecycle instant on `rank`'s trace at `t`. Called
/// from the scheduler loop, never while holding the engine state lock.
fn trace_engine(tracer: Option<&tracelog::Tracer>, rank: usize, t: u64, name: &'static str) {
    if let Some(tr) = tracer {
        tr.record(
            rank,
            t,
            tracelog::Lane::Engine,
            tracelog::EventKind::Instant,
            name.into(),
            Vec::new(),
        );
    }
}

/// A simulated cluster, fixed at `nranks` ranks.
pub struct Sim {
    inner: Arc<Inner>,
    nranks: usize,
}

/// The result of a completed simulation.
#[derive(Debug)]
pub struct SimOutcome<R> {
    /// Per-rank return values of the rank body.
    pub outputs: Vec<R>,
    /// Virtual time when the last rank finished.
    pub elapsed: SimTime,
    /// Engine counters.
    pub stats: EngineStats,
}

/// The result of a simulation run under a [`FaultPlan`]: killed ranks
/// have no output.
#[derive(Debug)]
pub struct FaultySimOutcome<R> {
    /// Per-rank return values; `None` for ranks killed by the plan.
    pub outputs: Vec<Option<R>>,
    /// Virtual time when the last surviving rank finished.
    pub elapsed: SimTime,
    /// Engine counters.
    pub stats: EngineStats,
    /// Ranks actually killed, ascending.
    pub killed: Vec<usize>,
}

impl Sim {
    /// Create a simulation with `nranks` ranks.
    pub fn new(nranks: usize) -> Sim {
        assert!(nranks > 0, "need at least one rank");
        let inner = Arc::new(Inner {
            state: Mutex::new(EngineState {
                clock: 0,
                heap: BinaryHeap::new(),
                targets: HashMap::new(),
                finished: vec![false; nranks],
                dead: vec![false; nranks],
                mailboxes: vec![Vec::new(); nranks],
                recv_filter: vec![None; nranks],
                recv_wakes: vec![Vec::new(); nranks],
                sends_until_kill: HashMap::new(),
                next_seq: 0,
                stats: EngineStats::default(),
            }),
            tracer: Mutex::new(None),
        });
        Sim { inner, nranks }
    }

    /// Inert alias of [`Sim::new`], kept only because the frozen
    /// `benchmark/` harness calls it: the engine once ran ranks on a
    /// worker pool of this width, and now runs every rank on the one
    /// engine thread, so the second argument is ignored.
    pub fn with_pool(nranks: usize, _pool_threads: usize) -> Sim {
        Sim::new(nranks)
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Attach a [`tracelog::Tracer`] to this simulation. The engine
    /// builds one [`tracelog::RankHandle`] per rank (rank id +
    /// virtual-clock closure) and swaps it into the engine thread's
    /// thread-local slot around every resumption, so instrumentation
    /// anywhere in the stack records without plumbing a handle through
    /// signatures; the scheduler itself records engine-lifecycle events
    /// (wake, block, finish, kill) on each rank's
    /// [`tracelog::Lane::Engine`] timeline.
    pub fn set_tracer(&self, tracer: tracelog::Tracer) {
        assert_eq!(
            tracer.nranks(),
            self.nranks,
            "tracer rank count must match the simulation"
        );
        *self.inner.tracer.lock() = Some(tracer);
    }

    /// A handle for services (file systems, etc.) created before `run`.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Run the simulation: every rank executes `body`, and the call
    /// returns when all ranks have finished.
    ///
    /// # Panics
    /// Panics if any rank body panics, or on deadlock (no runnable rank
    /// and no pending event while unfinished ranks remain).
    pub fn run<R, F>(self, body: F) -> SimOutcome<R>
    where
        R: Send,
        F: Fn(RankCtx) -> R + Sync,
    {
        let faulty = self.run_faulty(FaultPlan::none(), body);
        let nranks = faulty.outputs.len();
        // No faults injected, so every rank finished: none is `None`.
        let outputs: Vec<R> = faulty.outputs.into_iter().flatten().collect();
        debug_assert_eq!(outputs.len(), nranks, "a fault-free rank left no output");
        SimOutcome {
            outputs,
            elapsed: faulty.elapsed,
            stats: faulty.stats,
        }
    }

    /// Run the simulation under an injected [`FaultPlan`]. Killed ranks
    /// produce `None` outputs; everything else matches [`Sim::run`].
    ///
    /// # Panics
    /// Panics if any surviving rank body panics, or on deadlock among
    /// surviving ranks (the [`Sim::try_run_faulty`] error's `Display`
    /// string).
    pub fn run_faulty<R, F>(self, plan: FaultPlan, body: F) -> FaultySimOutcome<R>
    where
        R: Send,
        F: Fn(RankCtx) -> R + Sync,
    {
        match self.try_run_faulty(plan, body) {
            Ok(outcome) => outcome,
            Err(e) => panic!("{e}"),
        }
    }

    /// Run the simulation under an injected [`FaultPlan`], surfacing
    /// rank panics and deadlocks as typed [`SimError`]s instead of
    /// panicking. On error the engine has already force-unwound every
    /// live rank continuation and its thread has been joined, so the
    /// call returns cleanly with no leaked threads or stacks.
    pub fn try_run_faulty<R, F>(
        self,
        plan: FaultPlan,
        body: F,
    ) -> Result<FaultySimOutcome<R>, SimError>
    where
        R: Send,
        F: Fn(RankCtx) -> R + Sync,
    {
        let n = self.nranks;
        let inner = &self.inner;
        // Seed: every rank wakes at t = 0, and faults arm.
        {
            let mut st = inner.state.lock();
            for r in 0..n {
                st.schedule(0, Target::Wake(r));
            }
            for f in &plan.faults {
                assert!(f.rank < n, "fault targets rank {} of {n}", f.rank);
                let time = match f.trigger {
                    FaultTrigger::AtTime(t) => t.0,
                    FaultTrigger::AfterSends(0) => 0,
                    FaultTrigger::AfterSends(k) => {
                        st.sends_until_kill.insert(f.rank, k);
                        continue;
                    }
                };
                st.schedule(time, Target::Kill(f.rank));
            }
        }
        let tracer = inner.tracer.lock().clone();

        // The engine thread. It is a spawned thread, not the caller's,
        // for two reasons: rank bodies then allocate from that thread's
        // own malloc arena rather than the caller's (on glibc the main
        // thread's brk-backed arena, measurably slower for this
        // allocation pattern), and the thread-locals rank code sees (the
        // tracer slot, the current-fiber pointer) belong to a thread
        // nothing else runs on. A panic on it (a service callback's, or
        // an engine assertion) is re-raised on the caller after the
        // join, with its payload.
        let (outputs, killed) = std::thread::scope(|scope| {
            scope
                .spawn(|| run_engine(inner, n, tracer.as_ref(), &body))
                .join()
        })
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))?;
        let st = inner.state.lock();
        Ok(FaultySimOutcome {
            outputs,
            elapsed: SimTime(st.clock),
            stats: st.stats,
            killed,
        })
    }
}

/// One rank's continuation and its tracer handle.
type Lane<'a> = (Fiber<'a>, Option<tracelog::RankHandle>);

/// Call `f` on `lane`'s fiber with the rank's tracer handle swapped
/// into the thread-local slot — per *resumption*, and for a forced
/// unwind too: destructors close open spans, and those events must land
/// on the rank's buffer at the (deterministic) current clock.
fn enter<'a, T>(lane: &mut Lane<'a>, f: impl FnOnce(&mut Fiber<'a>) -> T) -> T {
    let (fib, handle) = lane;
    if let Some(h) = handle.as_mut() {
        h.swap();
    }
    let out = f(fib);
    if let Some(h) = handle.as_mut() {
        h.swap();
    }
    out
}

/// The body of a run's engine thread: build every rank continuation,
/// dispatch events until all ranks finish or the run fails, then drain.
/// Returns the per-rank outputs (`None` for killed ranks) and the ranks
/// killed, ascending.
fn run_engine<R, F>(
    inner: &Arc<Inner>,
    n: usize,
    tracer: Option<&tracelog::Tracer>,
    body: &F,
) -> Result<(Vec<Option<R>>, Vec<usize>), SimError>
where
    F: Fn(RankCtx) -> R,
{
    let outputs: Vec<RefCell<Option<R>>> = (0..n).map(|_| RefCell::new(None)).collect();
    let outputs = &outputs;
    // The message of a rank-body panic, from the fiber that caught it to
    // the scheduler loop, which takes it as soon as that fiber returns.
    let panic_text = RefCell::new(None::<String>);
    let panic_text = &panic_text;
    // Every fiber is built on, and only ever resumed from, this thread,
    // so thread-local state observed by rank code stays consistent
    // across resumptions.
    let mut lanes: Vec<Lane<'_>> = (0..n)
        .map(|rank| {
            let ctx_inner = Arc::clone(inner);
            let entry = move |_first: usize| -> usize {
                let ctx = RankCtx {
                    inner: ctx_inner,
                    rank,
                    nranks: n,
                };
                let result = std::panic::catch_unwind(AssertUnwindSafe(|| body(ctx)));
                match result {
                    Ok(out) => {
                        *outputs[rank].borrow_mut() = Some(out);
                        DONE_FINISHED
                    }
                    Err(payload) if payload.is::<fiber::ForcedUnwind>() => DONE_UNWOUND,
                    Err(payload) => {
                        // `&*payload`: downcast the payload itself, not
                        // the Box.
                        *panic_text.borrow_mut() = Some(panic_message(&*payload));
                        DONE_PANICKED
                    }
                }
            };
            let fib = Fiber::new(RANK_STACK_BYTES, entry);
            // The clock closure reads the engine clock, which is safe
            // from rank code because the state lock is never held
            // across a yield.
            let handle = tracer.cloned().map(|tr| {
                let clock_src = Arc::clone(inner);
                tracelog::rank_handle(tr, rank, move || clock_src.state.lock().clock)
            });
            (fib, handle)
        })
        .collect();

    let take_panic = |rank: usize| SimError::RankPanic {
        rank,
        message: panic_text.take().unwrap_or_default(),
    };
    let mut killed: Vec<usize> = Vec::new();
    let mut error: Option<SimError> = None;
    let mut finished = 0usize;

    while finished < n && error.is_none() {
        // The earliest live event and the clock it fires at, or the
        // deadlock an empty heap means.
        let next = {
            let mut st = inner.state.lock();
            loop {
                let Some(std::cmp::Reverse((time, gen))) = st.heap.pop() else {
                    let blocked = (0..n).filter(|&r| !st.finished[r]).collect();
                    break Err(SimError::Deadlock {
                        at: SimTime(st.clock),
                        blocked,
                    });
                };
                let target = match st.targets.remove(&gen) {
                    None => continue, // canceled
                    // A wake or kill of a rank that already finished or died.
                    Some(Target::Wake(r) | Target::Kill(r)) if st.finished[r] => continue,
                    Some(target) => target,
                };
                st.stats.events += 1;
                st.clock = st.clock.max(time);
                if let Target::Kill(rank) = target {
                    st.mark_dead(rank);
                }
                break Ok((target, st.clock));
            }
        };
        match next {
            Ok((Target::Wake(r), t)) => {
                trace_engine(tracer, r, t, "wake");
                match enter(&mut lanes[r], |fib| fib.resume(0)) {
                    YIELD_BLOCKED => {
                        let t = inner.state.lock().clock;
                        trace_engine(tracer, r, t, "block");
                    }
                    DONE_FINISHED => {
                        let t = {
                            let mut st = inner.state.lock();
                            st.finished[r] = true;
                            st.clock
                        };
                        finished += 1;
                        trace_engine(tracer, r, t, "finish");
                    }
                    DONE_PANICKED => error = Some(take_panic(r)),
                    code => unreachable!("impossible resume code {code}"),
                }
            }
            Ok((Target::Kill(r), t)) => {
                trace_engine(tracer, r, t, "kill");
                // Unwind the continuation *now*: destructors (and their
                // trace events) run synchronously at the kill time, and
                // the rank never reports an output.
                if enter(&mut lanes[r], Fiber::unwind) == Some(DONE_PANICKED) {
                    error = Some(take_panic(r));
                }
                killed.push(r);
                finished += 1;
            }
            // Run the service action here, between resumptions, while
            // every rank is parked; the callback may schedule wakes,
            // further callbacks, or posts.
            Ok((Target::Callback(cb), _)) => cb(),
            Err(deadlock) => error = Some(deadlock),
        }
    }

    // Drain: force-unwind every continuation that still holds a live
    // stack (in rank order, for deterministic teardown traces) so no
    // suspended stack outlives the run. After a clean run this loop
    // finds nothing.
    for (r, lane) in lanes.iter_mut().enumerate() {
        if !lane.0.is_done() && enter(lane, Fiber::unwind) == Some(DONE_PANICKED) && error.is_none()
        {
            error = Some(take_panic(r));
        }
    }
    drop(lanes);
    if let Some(e) = error {
        return Err(e);
    }
    killed.sort_unstable();
    let mut outs: Vec<Option<R>> = outputs.iter().map(RefCell::take).collect();
    for &r in &killed {
        outs[r] = None;
    }
    Ok((outs, killed))
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A cloneable handle for services that schedule wakes and post messages.
#[derive(Clone)]
pub struct SimHandle {
    inner: Arc<Inner>,
}

impl SimHandle {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime(self.inner.state.lock().clock)
    }

    /// Schedule `rank` to wake at `time` (must not be in the past).
    pub fn schedule_wake(&self, rank: usize, time: SimTime) -> WakeId {
        let mut st = self.inner.state.lock();
        let t = time.0.max(st.clock);
        st.schedule(t, Target::Wake(rank))
    }

    /// Schedule `cb` to run on the engine thread at `time` (clamped to
    /// now). Callbacks are heap events like wakes, so deadlock detection
    /// stays sound: a run with a pending callback is never "stuck". The
    /// callback runs with no engine lock held while every rank is
    /// parked, and may itself schedule wakes, callbacks, or posts — this
    /// is how a service models an in-flight operation that completes
    /// while its owner rank keeps computing.
    pub fn schedule_callback(&self, time: SimTime, cb: impl FnOnce() + Send + 'static) -> WakeId {
        let mut st = self.inner.state.lock();
        let t = time.0.max(st.clock);
        st.schedule(t, Target::Callback(Box::new(cb)))
    }

    /// Cancel a previously scheduled wake or callback (no-op if already
    /// fired).
    pub fn cancel_wake(&self, id: WakeId) {
        self.inner.state.lock().cancel(id);
    }

    /// Post a message from `src` to `dst`, arriving `delay` from now.
    /// Messages to a dead rank are silently dropped (crash-stop model).
    pub fn post(&self, src: usize, dst: usize, tag: u64, payload: Bytes, delay: SimDuration) {
        let mut st = self.inner.state.lock();
        if let Some(remaining) = st.sends_until_kill.get_mut(&src) {
            *remaining = remaining.saturating_sub(1);
            if *remaining == 0 {
                st.sends_until_kill.remove(&src);
                let clock = st.clock;
                st.schedule(clock, Target::Kill(src));
            }
        }
        if st.dead[dst] {
            st.stats.dropped_to_dead += 1;
            return;
        }
        let arrival = st.clock + delay.0;
        let seq = st.next_seq;
        st.next_seq += 1;
        st.stats.messages += 1;
        st.stats.message_bytes += payload.len() as u64;
        let msg = QueuedMsg {
            src,
            tag,
            payload,
            arrival,
            seq,
        };
        let wake = matches!(&st.recv_filter[dst], Some(f) if f.matches(&msg));
        st.mailboxes[dst].push(msg);
        if wake {
            st.schedule_recv_wake(dst, arrival);
        }
    }

    /// Whether `rank` has been killed by an injected fault.
    pub fn is_dead(&self, rank: usize) -> bool {
        self.inner.state.lock().dead[rank]
    }
}

/// The per-rank API handed to a rank body.
pub struct RankCtx {
    inner: Arc<Inner>,
    rank: usize,
    nranks: usize,
}

impl RankCtx {
    /// This rank's id, `0..nranks`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total rank count.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime(self.inner.state.lock().clock)
    }

    /// A service handle sharing this simulation.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Yield to the scheduler and block until some wake fires for this
    /// rank. The caller must have arranged a wake (or be a service's
    /// registered waiter), or the run will deadlock-panic.
    ///
    /// This is *the* engine yield point: it suspends the rank's
    /// continuation, handing the engine thread back to the scheduler. If
    /// the engine is tearing the rank down (kill, panic drain), the
    /// suspension resumes by unwinding ([`fiber::ForcedUnwind`]) so
    /// destructors on the rank stack run at the teardown time.
    pub fn wait_woken(&self) {
        let _ = fiber::suspend(YIELD_BLOCKED);
    }

    /// Advance this rank's virtual time by `d` (a pure compute charge).
    pub fn charge(&self, d: SimDuration) {
        if d == SimDuration::ZERO {
            return;
        }
        let target = {
            let mut st = self.inner.state.lock();
            let t = st.clock + d.0;
            st.schedule(t, Target::Wake(self.rank));
            t
        };
        loop {
            self.wait_woken();
            if self.inner.state.lock().clock >= target {
                return;
            }
            // Spurious wake: re-arm.
            let mut st = self.inner.state.lock();
            st.schedule(target, Target::Wake(self.rank));
        }
    }

    /// Run real code and charge its measured wall time (scaled by
    /// `scale`) to the virtual clock. Only one rank runs at a time, so
    /// the measurement is not polluted by sibling ranks.
    pub fn run_measured<T>(&self, scale: f64, f: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let out = f();
        let elapsed = start.elapsed().as_secs_f64() * scale;
        self.charge(SimDuration::from_secs_f64(elapsed));
        out
    }

    /// Run `nslices` independent compute slices and charge their
    /// *slot-parallel* virtual time: each slice reports the virtual
    /// duration it would cost serially, slices are packed onto `slots`
    /// compute slots (deterministic greedy least-loaded, ties broken
    /// toward the lowest slot index), and the rank's clock advances by
    /// the maximum slot load plus `fork_join` overhead per slice.
    ///
    /// The slices themselves execute serially in real time on this
    /// rank's continuation — the engine still runs exactly one rank at
    /// a time — so measured compute stays honest, and a kill or fault
    /// tears down every slot with the rank (the only yield point is the
    /// single trailing [`RankCtx::charge`], which unwinds through the
    /// engine's forced teardown like any other block).
    ///
    /// Each slot's packed slices are mirrored onto the rank's
    /// [`tracelog::Lane::Search`] timeline as retroactive `search.slot`
    /// spans carrying `slot`/`slice` arguments: slot `k`'s spans tile
    /// `[t0, t0 + load_k)` where `t0` is the clock at the call. The
    /// Chrome exporter turns these into per-slot sub-lanes.
    pub fn compute_parallel<T>(
        &self,
        slots: usize,
        fork_join: SimDuration,
        nslices: usize,
        mut slice: impl FnMut(usize) -> (T, SimDuration),
    ) -> Vec<T> {
        assert!(slots > 0, "compute_parallel needs at least one slot");
        let t0 = self.now().0;
        let mut outs = Vec::with_capacity(nslices);
        let mut costs: Vec<u64> = Vec::with_capacity(nslices);
        for i in 0..nslices {
            let (v, d) = slice(i);
            outs.push(v);
            costs.push(d.0);
        }
        let nslots = slots.min(nslices.max(1));
        let mut loads = vec![0u64; nslots];
        for (i, &cost) in costs.iter().enumerate() {
            // The least-loaded slot, ties to the lowest index.
            let k = (1..nslots).fold(0, |k, j| if loads[j] < loads[k] { j } else { k });
            let start = t0 + loads[k];
            loads[k] += cost;
            tracelog::closed_span(
                tracelog::Lane::Search,
                "search.slot",
                start,
                t0 + loads[k],
                vec![("slot", k.into()), ("slice", i.into())],
            );
        }
        let max_load = loads.iter().copied().max().unwrap_or(0);
        self.charge(SimDuration(max_load + fork_join.0 * nslices as u64));
        outs
    }

    /// Post a message to `dst` arriving after `delay`. This is the raw
    /// primitive; the `mpisim` crate layers send-side occupancy and
    /// latency/bandwidth models over it.
    pub fn post(&self, dst: usize, tag: u64, payload: Bytes, delay: SimDuration) {
        self.handle().post(self.rank, dst, tag, payload, delay);
    }

    /// Receive the earliest message matching the optional source and tag
    /// filters, blocking in virtual time until one arrives. A dead source
    /// does not end the wait: with nothing else pending the run deadlocks.
    pub fn recv(&self, src: Option<usize>, tag: Option<u64>) -> Message {
        // No deadline can be given: the wait cannot give up.
        let Ok(m) = self.recv_deadline(src, tag, None::<(SimTime, Infallible)>);
        m
    }

    /// Like [`RankCtx::recv`], but gives up at `deadline`: returns `None`
    /// if no matching message has arrived by then. A message arriving
    /// exactly at the deadline is still delivered. The deadline wake is
    /// canceled on delivery, so a receive that succeeds costs the same
    /// virtual time as a plain [`RankCtx::recv`].
    pub fn recv_until(
        &self,
        src: Option<usize>,
        tag: Option<u64>,
        deadline: SimTime,
    ) -> Option<Message> {
        self.recv_deadline(src, tag, Some((deadline, ()))).ok()
    }

    /// The one blocking receive. With a deadline, giving up at it
    /// returns the `expired` value paired with it; with none it never
    /// gives up, and an uninhabited `E` says so by type.
    fn recv_deadline<E>(
        &self,
        src: Option<usize>,
        tag: Option<u64>,
        mut deadline: Option<(SimTime, E)>,
    ) -> Result<Message, E> {
        let filter = Filter { src, tag };
        let rank = self.rank;
        if let Some((deadline, _)) = &deadline {
            // Arm the deadline wake once; it rides in `recv_wakes`, so a
            // successful receive cancels it along with any arrival wakes.
            let mut st = self.inner.state.lock();
            let t = deadline.0.max(st.clock);
            st.schedule_recv_wake(rank, t);
        }
        loop {
            {
                let mut st = self.inner.state.lock();
                match st.earliest(rank, filter) {
                    Some((i, arrival)) if arrival <= st.clock => return Ok(st.deliver(rank, i)),
                    // In flight and lands in time: wake at arrival.
                    Some((_, arrival)) if deadline.as_ref().is_none_or(|(d, _)| arrival <= d.0) => {
                        st.schedule_recv_wake(rank, arrival);
                    }
                    _ => {
                        // Give up at the deadline — or immediately if the
                        // awaited source is dead with nothing matching
                        // queued or in flight (no message can ever come:
                        // in-flight sends are already in the mailbox).
                        let src_dead = src.is_some_and(|s| st.dead[s]);
                        let clock = st.clock;
                        if let Some((_, expired)) =
                            deadline.take_if(|(d, _)| clock >= d.0 || src_dead)
                        {
                            st.end_recv(rank);
                            return Err(expired);
                        }
                    }
                }
                st.recv_filter[rank] = Some(filter);
            }
            self.wait_woken();
        }
    }

    /// Whether `rank` has been killed by an injected fault.
    pub fn is_dead(&self, rank: usize) -> bool {
        self.inner.state.lock().dead[rank]
    }

    /// Whether `rank` has left the run: its body returned, or it was
    /// killed. Either way it will never send or receive again.
    pub fn has_left(&self, rank: usize) -> bool {
        self.inner.state.lock().finished[rank]
    }

    /// Whether a message matching `src`/`tag` is queued for this rank,
    /// arrived or still in flight.
    pub fn has_pending(&self, src: Option<usize>, tag: Option<u64>) -> bool {
        let st = self.inner.state.lock();
        st.earliest(self.rank, Filter { src, tag }).is_some()
    }

    /// Non-blocking receive: the earliest already-arrived matching
    /// message, if any.
    pub fn try_recv(&self, src: Option<usize>, tag: Option<u64>) -> Option<Message> {
        let mut st = self.inner.state.lock();
        match st.earliest(self.rank, Filter { src, tag }) {
            Some((i, arrival)) if arrival <= st.clock => Some(st.deliver(self.rank, i)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_charges() {
        let sim = Sim::new(2);
        let out = sim.run(|ctx| {
            ctx.charge(SimDuration::from_secs(ctx.rank() as u64 + 1));
            ctx.now()
        });
        assert_eq!(out.outputs[0], SimTime(1_000_000_000));
        assert_eq!(out.outputs[1], SimTime(2_000_000_000));
        assert_eq!(out.elapsed, SimTime(2_000_000_000));
    }

    #[test]
    fn ping_pong_accumulates_latency() {
        let sim = Sim::new(2);
        let lat = SimDuration::from_micros(50);
        let out = sim.run(move |ctx| {
            if ctx.rank() == 0 {
                ctx.post(1, 1, Bytes::from_static(b"ping"), lat);
                let m = ctx.recv(Some(1), Some(2));
                assert_eq!(&m.payload[..], b"pong");
                ctx.now()
            } else {
                let m = ctx.recv(Some(0), Some(1));
                assert_eq!(&m.payload[..], b"ping");
                assert_eq!(m.arrival, SimTime(50_000));
                ctx.post(0, 2, Bytes::from_static(b"pong"), lat);
                ctx.now()
            }
        });
        // Rank 0 received the pong at 100 us.
        assert_eq!(out.outputs[0], SimTime(100_000));
        assert_eq!(out.stats.messages, 2);
        assert_eq!(out.stats.message_bytes, 8);
    }

    #[test]
    fn recv_any_source_takes_earliest_arrival() {
        let sim = Sim::new(3);
        let out = sim.run(|ctx| {
            match ctx.rank() {
                0 => {
                    // Wait so both messages are posted first.
                    let a = ctx.recv(None, None);
                    let b = ctx.recv(None, None);
                    vec![(a.src, a.arrival), (b.src, b.arrival)]
                }
                1 => {
                    ctx.post(
                        0,
                        9,
                        Bytes::from_static(b"slow"),
                        SimDuration::from_millis(10),
                    );
                    Vec::new()
                }
                2 => {
                    ctx.post(
                        0,
                        9,
                        Bytes::from_static(b"fast"),
                        SimDuration::from_millis(2),
                    );
                    Vec::new()
                }
                _ => unreachable!(),
            }
        });
        let got = &out.outputs[0];
        assert_eq!(got[0].0, 2, "earlier arrival wins");
        assert_eq!(got[0].1, SimTime(2_000_000));
        assert_eq!(got[1].0, 1);
        assert_eq!(got[1].1, SimTime(10_000_000));
    }

    #[test]
    fn tag_filters_select_messages() {
        let sim = Sim::new(2);
        let out = sim.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.post(1, 7, Bytes::from_static(b"seven"), SimDuration::ZERO);
                ctx.post(1, 8, Bytes::from_static(b"eight"), SimDuration::ZERO);
                String::new()
            } else {
                // Receive tag 8 first even though 7 arrived first.
                let m8 = ctx.recv(None, Some(8));
                let m7 = ctx.recv(None, Some(7));
                format!(
                    "{}-{}",
                    String::from_utf8_lossy(&m8.payload),
                    String::from_utf8_lossy(&m7.payload)
                )
            }
        });
        assert_eq!(out.outputs[1], "eight-seven");
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let sim = Sim::new(8);
            let out = sim.run(|ctx| {
                // All-to-one with per-rank delays, then a reply storm.
                if ctx.rank() == 0 {
                    let mut order = Vec::new();
                    for _ in 1..8 {
                        let m = ctx.recv(None, None);
                        order.push((m.src, m.arrival.0));
                    }
                    order
                } else {
                    ctx.charge(SimDuration::from_micros((ctx.rank() * 13 % 5) as u64));
                    ctx.post(
                        0,
                        1,
                        Bytes::from(vec![ctx.rank() as u8]),
                        SimDuration::from_micros(10),
                    );
                    Vec::new()
                }
            });
            (out.outputs, out.elapsed, out.stats)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn service_wakes_and_cancels() {
        let sim = Sim::new(2);
        let handle = sim.handle();
        let out = sim.run(move |ctx| {
            if ctx.rank() == 0 {
                // Rank 1 arranged our wake at 5 ms; a canceled earlier wake
                // at 1 ms must not fire.
                ctx.recv(Some(1), Some(0)); // sync: wait for arrangement
                ctx.wait_woken();
                ctx.now()
            } else {
                let early = handle.schedule_wake(0, SimTime(1_000_000));
                handle.cancel_wake(early);
                handle.schedule_wake(0, SimTime(5_000_000));
                ctx.post(0, 0, Bytes::new(), SimDuration::ZERO);
                ctx.now()
            }
        });
        assert_eq!(out.outputs[0], SimTime(5_000_000));
    }

    #[test]
    fn callbacks_run_at_their_time_and_can_wake_ranks() {
        let sim = Sim::new(2);
        let handle = sim.handle();
        let out = sim.run(move |ctx| {
            if ctx.rank() == 0 {
                ctx.recv(Some(1), Some(0)); // sync: wait for arrangement
                ctx.wait_woken();
                ctx.now()
            } else {
                // A callback at 2 ms re-arms a second callback at 7 ms
                // that finally wakes rank 0 — two service hops with no
                // rank runnable in between.
                let h = handle.clone();
                handle.schedule_callback(SimTime(2_000_000), move || {
                    let h2 = h.clone();
                    let at = h.now() + SimDuration::from_millis(5);
                    h.schedule_callback(at, move || {
                        let now = h2.now();
                        h2.schedule_wake(0, now);
                    });
                });
                ctx.post(0, 0, Bytes::new(), SimDuration::ZERO);
                ctx.now()
            }
        });
        assert_eq!(out.outputs[0], SimTime(7_000_000));
    }

    #[test]
    fn canceled_callbacks_do_not_run() {
        let sim = Sim::new(1);
        let handle = sim.handle();
        let fired = Arc::new(Mutex::new(false));
        let fired_in_cb = Arc::clone(&fired);
        let out = sim.run(move |ctx| {
            let f = Arc::clone(&fired_in_cb);
            let early = handle.schedule_callback(SimTime(1_000), move || {
                *f.lock() = true;
            });
            handle.cancel_wake(early);
            // An uncanceled wake afterwards proves the canceled event was
            // skipped without disturbing the clock.
            handle.schedule_wake(0, SimTime(5_000));
            ctx.wait_woken();
            ctx.now()
        });
        assert_eq!(out.outputs[0], SimTime(5_000));
        assert!(!*fired.lock());
        // Scheduled: the rank's start, the canceled callback, the wake;
        // only the two that fired count as events.
        assert_eq!((out.stats.scheduled, out.stats.events), (3, 2));
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn callback_that_wakes_no_one_still_deadlocks() {
        let sim = Sim::new(1);
        let handle = sim.handle();
        sim.run(move |ctx| {
            handle.schedule_callback(SimTime(1_000), || {});
            // The callback fires at 1 us but arranges nothing: the rank
            // stays blocked with an empty heap afterwards.
            ctx.wait_woken();
        });
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let sim = Sim::new(2);
        sim.run(|ctx| {
            if ctx.rank() == 0 {
                // Waits forever: rank 1 never sends.
                ctx.recv(Some(1), None);
            }
        });
    }

    #[test]
    #[should_panic(expected = "rank 1 panicked: boom")]
    fn rank_panic_propagates() {
        let sim = Sim::new(2);
        sim.run(|ctx| {
            if ctx.rank() == 1 {
                panic!("boom");
            }
            ctx.charge(SimDuration::from_secs(1));
        });
    }

    #[test]
    fn measured_compute_advances_clock() {
        let sim = Sim::new(1);
        let out = sim.run(|ctx| {
            let v = ctx.run_measured(1.0, || {
                // Busy work that takes measurable time.
                let mut acc = 0u64;
                for i in 0..200_000u64 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                acc
            });
            let _ = v;
            ctx.now()
        });
        assert!(out.outputs[0] > SimTime::ZERO);
    }

    #[test]
    fn compute_parallel_charges_max_over_slots() {
        // Costs 3/1/1/1 s on two slots pack greedily as slot0=[3],
        // slot1=[1,1,1]: elapsed is the 3 s maximum, not the 6 s sum.
        let costs = [3u64, 1, 1, 1];
        let run = |slots: usize| {
            let sim = Sim::new(1);
            let out = sim.run(move |ctx| {
                let vals = ctx.compute_parallel(slots, SimDuration::ZERO, costs.len(), |i| {
                    (i, SimDuration::from_secs(costs[i]))
                });
                assert_eq!(vals, vec![0, 1, 2, 3], "slice results in slice order");
                ctx.now()
            });
            out.outputs[0]
        };
        assert_eq!(run(1), SimTime(6_000_000_000));
        assert_eq!(run(2), SimTime(3_000_000_000));
        // More slots than slices: bounded by the longest slice.
        assert_eq!(run(8), SimTime(3_000_000_000));
    }

    #[test]
    fn compute_parallel_charges_fork_join_per_slice() {
        let sim = Sim::new(1);
        let out = sim.run(|ctx| {
            ctx.compute_parallel(4, SimDuration::from_micros(10), 3, |_| {
                ((), SimDuration::from_millis(1))
            });
            ctx.now()
        });
        // max slot load (1 ms) + 3 slices x 10 us fork/join.
        assert_eq!(out.outputs[0], SimTime(1_030_000));
    }

    #[test]
    fn compute_parallel_traces_per_slot_spans() {
        let sim = Sim::new(1);
        let tracer = tracelog::Tracer::new(1);
        sim.set_tracer(tracer.clone());
        let out = sim.run(|ctx| {
            ctx.charge(SimDuration::from_micros(1));
            ctx.compute_parallel(2, SimDuration::ZERO, 3, |i| {
                ((), SimDuration::from_micros(1 + i as u64))
            });
            ctx.now()
        });
        let trace = tracer.finish(out.elapsed.0);
        // Slices 1/2/3 us on two slots: slot0=[1,3] us, slot1=[2] us.
        let spans: Vec<(u64, u64, u64)> = trace
            .events
            .iter()
            .filter(|e| e.name == "search.slot" && e.kind == tracelog::EventKind::Begin)
            .map(|e| {
                let slot = e
                    .args
                    .iter()
                    .find_map(|(k, v)| match (k, v) {
                        (&"slot", tracelog::ArgVal::U64(s)) => Some(*s),
                        _ => None,
                    })
                    .expect("slot arg");
                let slice = e
                    .args
                    .iter()
                    .find_map(|(k, v)| match (k, v) {
                        (&"slice", tracelog::ArgVal::U64(s)) => Some(*s),
                        _ => None,
                    })
                    .expect("slice arg");
                (slot, slice, e.t)
            })
            .collect();
        assert_eq!(
            spans,
            vec![(0, 0, 1_000), (1, 1, 1_000), (0, 2, 2_000)],
            "slot-packed starts offset from the call time"
        );
        assert_eq!(out.outputs[0], SimTime(1_000 + 4_000));
    }

    #[test]
    fn kill_tears_down_compute_slots() {
        // A rank killed while charging slot-parallel compute yields no
        // output: the slices already ran on the rank's fiber, and the
        // trailing charge unwinds through the forced teardown.
        let sim = Sim::new(2);
        let plan = FaultPlan::none().kill_at(1, SimTime(5_000));
        let out = sim.run_faulty(plan, |ctx| {
            if ctx.rank() == 1 {
                ctx.compute_parallel(4, SimDuration::ZERO, 8, |_| ((), SimDuration::from_secs(1)));
            }
            ctx.rank()
        });
        assert_eq!(out.killed, vec![1]);
        assert_eq!(out.outputs[0], Some(0));
        assert_eq!(out.outputs[1], None);
    }

    #[test]
    fn sixty_four_ranks_all_to_all_completes() {
        let sim = Sim::new(64);
        let out = sim.run(|ctx| {
            let me = ctx.rank();
            for dst in 0..ctx.nranks() {
                if dst != me {
                    ctx.post(
                        dst,
                        1,
                        Bytes::from(vec![me as u8]),
                        SimDuration::from_micros(5),
                    );
                }
            }
            let mut sum = 0u64;
            for _ in 0..ctx.nranks() - 1 {
                let m = ctx.recv(None, Some(1));
                sum += m.payload[0] as u64;
            }
            sum
        });
        let expect: u64 = (0..64).sum();
        for (r, s) in out.outputs.iter().enumerate() {
            assert_eq!(*s, expect - r as u64);
        }
        assert_eq!(out.stats.messages, 64 * 63);
    }

    #[test]
    fn killed_rank_yields_no_output_and_messages_drop() {
        let sim = Sim::new(3);
        let plan = FaultPlan::none().kill_at(2, SimTime(5_000));
        let out = sim.run_faulty(plan, |ctx| {
            if ctx.rank() == 0 {
                // Give the kill time to land, then message the corpse.
                ctx.charge(SimDuration::from_micros(10));
                ctx.post(2, 1, Bytes::from_static(b"late"), SimDuration::ZERO);
                assert!(ctx.is_dead(2));
                assert!(!ctx.is_dead(1));
                // Rank 1 returned at once: gone, but not dead.
                assert!(ctx.has_left(1) && ctx.has_left(2) && !ctx.has_left(0));
            }
            if ctx.rank() == 2 {
                // Stay busy past the kill time so the fault lands.
                ctx.charge(SimDuration::from_secs(1));
            }
            ctx.rank()
        });
        assert_eq!(out.killed, vec![2]);
        assert_eq!(out.outputs[0], Some(0));
        assert_eq!(out.outputs[1], Some(1));
        assert_eq!(out.outputs[2], None);
        assert_eq!(out.stats.dropped_to_dead, 1);
    }

    #[test]
    fn kill_after_sends_stops_midstream() {
        let sim = Sim::new(2);
        let plan = FaultPlan::none().kill_after_sends(1, 3);
        let out = sim.run_faulty(plan, |ctx| {
            if ctx.rank() == 0 {
                let mut got = 0u32;
                while ctx
                    .recv_until(Some(1), Some(1), ctx.now() + SimDuration::from_millis(50))
                    .is_some()
                {
                    got += 1;
                }
                got
            } else {
                for _ in 0..10 {
                    ctx.post(0, 1, Bytes::from_static(b"m"), SimDuration::from_micros(1));
                    ctx.charge(SimDuration::from_micros(5));
                }
                99
            }
        });
        // The sender dies at its next scheduling point after send #3.
        assert_eq!(out.killed, vec![1]);
        assert_eq!(out.outputs[0], Some(3));
        assert_eq!(out.outputs[1], None);
    }

    #[test]
    fn recv_until_expires_and_delivery_cancels_deadline() {
        let sim = Sim::new(2);
        let out = sim.run(|ctx| {
            if ctx.rank() == 0 {
                // First wait expires: nothing sent yet.
                let missed = ctx.recv_until(Some(1), Some(7), SimTime(1_000_000));
                assert!(missed.is_none());
                assert_eq!(ctx.now(), SimTime(1_000_000));
                // Second wait succeeds well before its deadline, and the
                // unused deadline wake must not disturb the clock later.
                let got = ctx.recv_until(Some(1), Some(7), SimTime(1_000_000_000));
                let got = got.expect("message arrives in time");
                ctx.charge(SimDuration::from_micros(1));
                (got.arrival, ctx.now())
            } else {
                ctx.charge(SimDuration::from_millis(2));
                ctx.post(0, 7, Bytes::from_static(b"hi"), SimDuration::from_micros(3));
                (SimTime::ZERO, ctx.now())
            }
        });
        let (arrival, after) = out.outputs[0];
        assert_eq!(arrival, SimTime(2_003_000));
        assert_eq!(after, SimTime(2_004_000));
    }

    #[test]
    fn death_wakes_blocked_receivers() {
        let sim = Sim::new(2);
        let plan = FaultPlan::none().kill_at(1, SimTime(3_000));
        let out = sim.run_faulty(plan, |ctx| {
            if ctx.rank() == 0 {
                // Far-future deadline: the death wake at 3 us lets the
                // receive notice the dead source immediately instead of
                // sitting until the 1 s deadline.
                let m = ctx.recv_until(Some(1), None, SimTime(1_000_000_000));
                assert!(m.is_none());
                assert!(ctx.is_dead(1));
                ctx.now()
            } else {
                // Blocks forever; killed at 3 us.
                let _ = ctx.recv(Some(0), None);
                SimTime::ZERO
            }
        });
        assert_eq!(out.killed, vec![1]);
        assert_eq!(out.outputs[0], Some(SimTime(3_000)));
    }

    #[test]
    fn plain_recv_from_a_dead_source_reblocks_and_deadlocks() {
        // The one thing the shared receive loop must not share: with no
        // deadline, the death wake is spurious — the survivor re-blocks
        // instead of returning the way `recv_until` does.
        let plan = FaultPlan::none().kill_at(1, SimTime(3_000));
        let err = Sim::new(2)
            .try_run_faulty(plan, |ctx| {
                let _ = ctx.recv(Some(1 - ctx.rank()), None);
            })
            .expect_err("nobody ever sends");
        assert_eq!(
            err,
            SimError::Deadlock {
                at: SimTime(3_000),
                blocked: vec![0],
            }
        );
    }

    #[test]
    fn faultless_run_faulty_matches_run() {
        let body = |ctx: RankCtx| {
            if ctx.rank() == 0 {
                let m = ctx.recv(Some(1), Some(1));
                m.arrival
            } else {
                ctx.charge(SimDuration::from_micros(7));
                ctx.post(0, 1, Bytes::from_static(b"x"), SimDuration::from_micros(2));
                ctx.now()
            }
        };
        let a = Sim::new(2).run(body);
        let b = Sim::new(2).run_faulty(FaultPlan::none(), body);
        assert_eq!(a.outputs[0], b.outputs[0].unwrap());
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.stats, b.stats);
        assert!(b.killed.is_empty());
    }

    #[test]
    fn try_run_faulty_surfaces_rank_panic_as_typed_error() {
        // Every other rank is parked in a receive that will never
        // complete; the panic must drain them all and return, not hang.
        let err = Sim::new(8)
            .try_run_faulty(FaultPlan::none(), |ctx| {
                if ctx.rank() == 3 {
                    ctx.charge(SimDuration::from_micros(5));
                    panic!("fragment 3 corrupt");
                }
                let _ = ctx.recv(None, None);
            })
            .expect_err("panic must surface as an error");
        match &err {
            SimError::RankPanic { rank, message } => {
                assert_eq!(*rank, 3);
                assert_eq!(message, "fragment 3 corrupt");
            }
            other => panic!("expected RankPanic, got {other}"),
        }
        assert_eq!(err.to_string(), "rank 3 panicked: fragment 3 corrupt");
    }

    #[test]
    fn try_run_faulty_surfaces_deadlock_as_typed_error() {
        let err = Sim::new(3)
            .try_run_faulty(FaultPlan::none(), |ctx| {
                ctx.charge(SimDuration::from_micros(ctx.rank() as u64));
                if ctx.rank() != 0 {
                    let _ = ctx.recv(Some(0), None);
                }
            })
            .expect_err("unmatched receives must deadlock");
        match &err {
            SimError::Deadlock { at, blocked } => {
                assert_eq!(*at, SimTime(2_000));
                assert_eq!(blocked, &vec![1, 2]);
            }
            other => panic!("expected Deadlock, got {other}"),
        }
    }

    #[test]
    fn rank_panic_drains_and_runs_peer_destructors() {
        // Peers hold guard values whose destructors record the unwind; a
        // leaked (never-unwound) fiber would leave its flag unset.
        struct DropFlag(Arc<Mutex<Vec<usize>>>, usize);
        impl Drop for DropFlag {
            fn drop(&mut self) {
                self.0.lock().push(self.1);
            }
        }
        let dropped = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&dropped);
        let err = Sim::new(5)
            .try_run_faulty(FaultPlan::none(), move |ctx| {
                let _guard = DropFlag(Arc::clone(&seen), ctx.rank());
                if ctx.rank() == 2 {
                    // Yield once so every rank has started (and parked)
                    // before the panic lands.
                    let _ = ctx.recv_until(None, Some(99), SimTime(1_000));
                    panic!("boom");
                }
                let _ = ctx.recv(None, None);
            })
            .expect_err("rank 2 panics");
        assert!(matches!(err, SimError::RankPanic { rank: 2, .. }));
        let mut order = dropped.lock().clone();
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2, 3, 4], "every rank body unwound");
    }

    #[test]
    fn panic_in_killed_rank_window_still_reports_other_ranks() {
        // A kill and a panic in one run: the kill tears down rank 1, the
        // panic on rank 2 ends the run, and rank 0's fiber still drains.
        let err = Sim::new(3)
            .try_run_faulty(
                FaultPlan::none().kill_at(1, SimTime(1_000)),
                |ctx| match ctx.rank() {
                    1 => ctx.charge(SimDuration::from_secs(1)),
                    2 => {
                        ctx.charge(SimDuration::from_micros(10));
                        panic!("late failure");
                    }
                    _ => {
                        let _ = ctx.recv(None, None);
                    }
                },
            )
            .expect_err("rank 2 panics after the kill");
        match err {
            SimError::RankPanic { rank, message } => {
                assert_eq!(rank, 2);
                assert_eq!(message, "late failure");
            }
            other => panic!("expected RankPanic, got {other}"),
        }
    }

    #[test]
    fn try_run_faulty_ok_matches_run_faulty() {
        let plan = || FaultPlan::none().kill_at(2, SimTime(5_000));
        let body = |ctx: RankCtx| {
            if ctx.rank() == 2 {
                ctx.charge(SimDuration::from_secs(1));
            }
            ctx.charge(SimDuration::from_micros(ctx.rank() as u64 + 1));
            ctx.now()
        };
        let a = Sim::new(4).try_run_faulty(plan(), body).expect("no error");
        let b = Sim::new(4).run_faulty(plan(), body);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.killed, b.killed);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn non_string_panic_payload_is_described() {
        let err = Sim::new(1)
            .try_run_faulty(FaultPlan::none(), |_ctx| {
                std::panic::panic_any(42u32);
            })
            .expect_err("panic");
        match err {
            SimError::RankPanic { rank, message } => {
                assert_eq!(rank, 0);
                assert!(!message.is_empty());
            }
            other => panic!("expected RankPanic, got {other}"),
        }
    }

    #[test]
    fn try_recv_sees_only_arrived() {
        let sim = Sim::new(2);
        let out = sim.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.post(1, 1, Bytes::from_static(b"x"), SimDuration::from_millis(5));
                true
            } else {
                // Nothing arrived yet at t=0.
                let before = ctx.try_recv(None, None).is_none();
                ctx.charge(SimDuration::from_millis(10));
                let after = ctx.try_recv(None, None).is_some();
                before && after
            }
        });
        assert!(out.outputs[1]);
    }
}
