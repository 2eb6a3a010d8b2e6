//! Engine-thread and teardown tests.
//!
//! The DES engine runs every rank of a run as a fiber on one spawned
//! engine thread. These tests pin what that promises: rank bodies,
//! service callbacks and teardown destructors all run on that one
//! thread (never the caller's); a run costs one OS thread at any rank
//! count; `Sim::with_pool` is an inert alias of `Sim::new`; and a
//! rank-body panic or a deadlock drains every other rank into a typed
//! error — from a bare engine run and from inside a real pioBLAST
//! protocol — never a hang.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, ThreadId};

use blast_bench::runner::os_thread_count;
use common::{sample_queries, small_db, staged, OUTPUT};
use mpiblast::Platform;
use pioblast::{FragmentSchedule, PioBlastConfig};
use simcluster::engine::EngineStats;
use simcluster::{FaultPlan, Sim, SimDuration, SimError, SimTime};
use tracelog::{chrome, Tracer};

/// The thread-count test reads a process-wide number, so the tests of
/// this file (each of which spawns an engine thread) run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The pioBLAST configuration the full-run tests share, staged on `sim`.
fn pio_config(
    sim: &Sim,
    db_seed: u64,
    n_queries: usize,
    nfrags: usize,
    threads: usize,
) -> PioBlastConfig {
    let db = small_db(db_seed);
    let queries = sample_queries(&db, n_queries);
    PioBlastConfig {
        num_fragments: Some(nfrags),
        schedule: FragmentSchedule::Dynamic,
        threads,
        ..staged(sim, &Platform::altix(), &db, &queries)
    }
}

/// One full traced pioBLAST run on `sim`; returns the report bytes, the
/// Chrome trace export, the virtual wall clock, and the engine stats.
fn run_pio(sim: Sim, nfrags: usize, db_seed: u64) -> (Vec<u8>, String, u64, EngineStats) {
    let tracer = Tracer::new(sim.nranks());
    sim.set_tracer(tracer.clone());
    let cfg = pio_config(&sim, db_seed, 2, nfrags, 2);
    let out = sim.run(|ctx| pioblast::run_rank(&ctx, &cfg));
    for r in &out.outputs {
        r.as_ref().expect("rank failed");
    }
    let report = cfg.env.shared.peek(OUTPUT).expect("report exists");
    let wall = out.elapsed.since(SimTime::ZERO).0;
    let trace = tracer.finish(wall);
    (
        report.to_vec(),
        chrome::export_chrome(&trace, None),
        wall,
        out.stats,
    )
}

/// Runs its closure when dropped: a rank body holding one shows where
/// and whether its stack was unwound.
struct OnDrop<F: FnMut()>(F);

impl<F: FnMut()> Drop for OnDrop<F> {
    fn drop(&mut self) {
        (self.0)()
    }
}

#[test]
fn bodies_callbacks_and_unwinds_share_one_thread_that_is_not_the_callers() {
    let _serial = serial();
    let seen: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
    let note = || seen.lock().unwrap().push(thread::current().id());
    let sim = Sim::new(6);
    let handle = sim.handle();
    // Every rank schedules a service callback and then charges; rank 5
    // is killed mid-charge, so its guard's destructor runs in the forced
    // unwind and it never reaches the note after the charge.
    let plan = FaultPlan::none().kill_at(5, SimTime(2_000));
    let out = sim.run_faulty(plan, |ctx| {
        note();
        let _guard = (ctx.rank() == 5).then(|| OnDrop(note));
        let seen_cb = Arc::clone(&seen);
        handle.schedule_callback(SimTime(500 + ctx.rank() as u64), move || {
            seen_cb.lock().unwrap().push(thread::current().id());
        });
        ctx.charge(SimDuration::from_micros(1 + ctx.rank() as u64));
        note();
    });
    assert_eq!(out.killed, vec![5]);
    let seen = seen.lock().unwrap();
    // 6 entries + 6 callbacks + 5 after-charge notes + 1 unwind drop.
    assert_eq!(seen.len(), 18);
    assert!(seen.iter().all(|id| *id == seen[0]), "more than one thread");
    assert_ne!(seen[0], thread::current().id(), "ran on the caller");
}

#[test]
fn a_run_costs_one_os_thread_at_16_and_at_512_ranks() {
    let _serial = serial();
    if os_thread_count().is_none() {
        return; // no /proc on this host
    }
    for nranks in [16usize, 512] {
        // libtest may start or retire a test thread of its own around
        // the run; take the sample from a run it left alone.
        let sampled = (0..20).find_map(|_| {
            let before = os_thread_count()?;
            let out = Sim::new(nranks).run(|ctx| {
                ctx.charge(SimDuration::from_micros(1));
                os_thread_count().expect("/proc/self/status readable")
            });
            (os_thread_count()? == before).then_some((before, out.outputs))
        });
        let (before, inside) = sampled.expect("the harness never held still");
        assert_eq!(inside.len(), nranks);
        assert!(
            inside.iter().all(|&n| n == before + 1),
            "{nranks} ranks: {before} threads before the run, rank bodies saw {:?}",
            inside.iter().max()
        );
    }
}

#[test]
fn with_pool_is_an_inert_alias_of_new() {
    let _serial = serial();
    let base = run_pio(Sim::new(4), 5, 41);
    for width in [1, 7] {
        let got = run_pio(Sim::with_pool(4, width), 5, 41);
        assert_eq!(got.0, base.0, "report bytes diverged at width {width}");
        assert_eq!(got.1, base.1, "trace export diverged at width {width}");
        assert_eq!(got.2, base.2, "wall clock diverged at width {width}");
        assert_eq!(got.3, base.3, "engine stats diverged at width {width}");
    }
}

#[test]
fn rank_panic_and_deadlock_drain_into_typed_errors() {
    let _serial = serial();
    let everyone: Vec<usize> = (0..12).collect();
    for panics in [true, false] {
        // Every rank holds a guard and ends parked in a receive nobody
        // answers (a deadlock once the last charge expires at 12 us);
        // with `panics`, rank 7 panics at 8 us instead, while ranks
        // 8..12 are still mid-charge. A leaked (never-unwound) fiber
        // would leave its guard undropped.
        let dropped = Mutex::new(Vec::new());
        let body = |ctx: simcluster::RankCtx| {
            let _guard = OnDrop(|| dropped.lock().unwrap().push(ctx.rank()));
            ctx.charge(SimDuration::from_micros(1 + ctx.rank() as u64));
            if panics && ctx.rank() == 7 {
                panic!("injected failure on rank 7");
            }
            let _ = ctx.recv(None, None);
        };
        let take_dropped = || {
            let mut ranks = std::mem::take(&mut *dropped.lock().unwrap());
            ranks.sort_unstable();
            ranks
        };
        let expected = if panics {
            SimError::RankPanic {
                rank: 7,
                message: "injected failure on rank 7".into(),
            }
        } else {
            SimError::Deadlock {
                at: SimTime(12_000),
                blocked: everyone.clone(),
            }
        };
        let err = Sim::new(12)
            .try_run_faulty(FaultPlan::none(), body)
            .expect_err("the run must fail, not hang");
        assert_eq!(err, expected);
        assert_eq!(take_dropped(), everyone, "every rank body unwound");
        // The panicking wrappers drain the same way, then panic with
        // the error's Display string.
        let payload = catch_unwind(AssertUnwindSafe(|| Sim::new(12).run(body)))
            .expect_err("run panics on a failed simulation");
        assert_eq!(
            payload.downcast_ref::<String>(),
            Some(&expected.to_string())
        );
        assert_eq!(take_dropped(), everyone, "every rank body unwound");
    }
}

#[test]
fn panic_mid_collective_surfaces_not_hangs() {
    let _serial = serial();
    // A panic inside a real pioBLAST worker body (mid-protocol, peers
    // blocked in engine receives) must surface as the typed error, with
    // the message format the panicking entry points print.
    let sim = Sim::new(4);
    let cfg = pio_config(&sim, 50, 1, 4, 1);
    let err = sim
        .try_run_faulty(FaultPlan::none(), |ctx| {
            if ctx.rank() == 2 {
                ctx.charge(SimDuration::from_micros(3));
                panic!("worker 2 died mid-run");
            }
            pioblast::run_rank(&ctx, &cfg)
        })
        .expect_err("worker 2 panics");
    assert_eq!(err.to_string(), "rank 2 panicked: worker 2 died mid-run");
}
