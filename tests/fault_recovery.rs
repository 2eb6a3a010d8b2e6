//! Property test for the fault-recovery protocol: under an arbitrary
//! single-worker failure — any victim rank, any kill point in the
//! protocol — a Dynamic-schedule pioBLAST run in `FaultMode::Recover`
//! produces output byte-identical to a fault-free run.
//!
//! The kill trigger counts the victim's *sends* (initial fragment
//! request, per-grant acks, submission, merge acknowledgment), so the
//! sampled kill points land at every stage of the master/worker
//! exchange. Triggers past the victim's last send simply never fire;
//! the run then completes fault-free and must still match the
//! reference, so both branches of the property are meaningful.
//!
//! A worker that *returns* an error has left the run as surely as a
//! killed one: the master's liveness sweep must report it, so a run
//! whose every worker fails ends in a typed error instead of sweeping
//! forever.

mod common;

use std::sync::OnceLock;

use common::{run_frags, run_opts, Done, Opts};
use parafs::StoreError;
use pioblast::{FaultMode, FragmentSchedule, InputError, PioError};
use proptest::prelude::*;
use simcluster::{FaultPlan, SimTime};
use tracelog::{ArgVal, Event};

fn run_recover_opts(
    nranks: usize,
    nfrags: usize,
    query_batch: Option<usize>,
    checkpoint: bool,
    collective_input: bool,
    plan: FaultPlan,
) -> (Vec<u8>, Vec<usize>) {
    let opts = Opts {
        nranks,
        plan,
        ..Opts::default()
    };
    run_frags(opts, nfrags, |cfg| {
        cfg.collective_output = false;
        cfg.query_batch = query_batch;
        cfg.collective_input = collective_input;
        cfg.schedule = FragmentSchedule::Dynamic;
        cfg.fault = FaultMode::Recover;
        cfg.checkpoint = checkpoint;
    })
}

fn run_recover(nranks: usize, nfrags: usize, plan: FaultPlan) -> (Vec<u8>, Vec<usize>) {
    run_recover_opts(nranks, nfrags, None, false, false, plan)
}

fn reference_bytes() -> &'static [u8] {
    static REF: OnceLock<Vec<u8>> = OnceLock::new();
    REF.get_or_init(|| {
        let (bytes, killed) = run_recover(4, 9, FaultPlan::none());
        assert!(killed.is_empty());
        assert!(!bytes.is_empty(), "reference run produced no output");
        bytes
    })
}

/// A `--recover` run of the common 4-rank job, after `corrupt` damaged
/// the staged shared file system.
fn recover_with(corrupt: impl FnOnce(&parafs::SimFs)) -> Done {
    let opts = Opts {
        plan: common::watchdog(),
        ..Opts::default()
    };
    run_opts(opts, |cfg| {
        corrupt(&cfg.env.shared);
        cfg.schedule = FragmentSchedule::Dynamic;
        cfg.fault = FaultMode::Recover;
    })
}

/// Every worker returned `expected`; the master, left with no worker,
/// returned `AllWorkersDied` long before the watchdog.
fn assert_every_worker_returned(done: &Done, expected: impl Fn(&PioError) -> bool) {
    assert!(
        done.killed.is_empty(),
        "the watchdog fired: {:?}",
        done.outputs
    );
    assert!(
        done.elapsed < SimTime(1_000_000_000),
        "ended at {}",
        done.elapsed
    );
    assert_eq!(done.outputs[0], Some(Err(PioError::AllWorkersDied)));
    for (w, out) in done.outputs.iter().enumerate().skip(1) {
        match out {
            Some(Err(e)) if expected(e) => {}
            other => panic!("worker {w}: {other:?}"),
        }
    }
}

#[test]
fn recovery_ends_when_every_worker_returns_an_input_error() {
    let done = recover_with(|fs| {
        let seq = "db/nr-test.seq";
        let bytes = fs.peek(seq).expect("staged");
        fs.preload(seq, bytes[..bytes.len() / 2].to_vec());
    });
    assert_every_worker_returned(&done, |e| {
        matches!(
            e,
            PioError::Input(InputError::Store(StoreError::OutOfRange { .. }))
        )
    });
}

#[test]
fn recovery_ends_when_every_worker_returns_an_output_error() {
    let done = recover_with(|fs| fs.set_capacity(0));
    assert_every_worker_returned(&done, |e| {
        matches!(e, PioError::Output(StoreError::NoSpace { .. }))
    });
}

/// Host-time bound on a death test: far past its run in a debug build,
/// and what ends it if the master loops at one virtual instant.
const DEATH_TEST_SECS: u64 = 60;

/// The master machine's table is the only record of who is live, so
/// each death must still be swept, traced and handled once: two workers
/// killed at different points of a traced run leave one `sweep.dead`
/// and one `worker_dead` instant each, and the report is the fault-free
/// one.
#[test]
fn each_death_under_recovery_is_swept_and_handled_once() {
    common::within_host_secs(DEATH_TEST_SECS, || {
        let plan = common::watchdog()
            .kill_after_sends(2, 2)
            .kill_after_sends(4, 5);
        let opts = Opts {
            nranks: 5,
            plan,
            traced: true,
            ..Opts::default()
        };
        let done = run_opts(opts, |cfg| {
            cfg.num_fragments = Some(9);
            cfg.collective_output = false;
            cfg.schedule = FragmentSchedule::Dynamic;
            cfg.fault = FaultMode::Recover;
        });
        assert_eq!(done.killed, vec![2, 4]);
        assert!(
            matches!(done.outputs[0], Some(Ok(_))),
            "{:?}",
            done.outputs[0]
        );
        assert_eq!(done.report, reference_bytes());
        let trace = done.trace.expect("traced run");
        let instants = |name: &str| -> Vec<Vec<(&str, ArgVal)>> {
            let named = trace.events.iter().filter(|e| e.name == name);
            named.map(|e| e.args.clone()).collect()
        };
        let victims = |r: [usize; 2]| r.map(|r| vec![("rank", r.into())]).to_vec();
        assert_eq!(instants("sweep.dead"), victims([2, 4]));
        assert_eq!(instants("worker_dead"), victims([2, 4]));
    });
}

/// The `u64` argument `key` of a trace event.
fn arg(e: &Event, key: &str) -> usize {
    match e.args.iter().find(|(k, _)| *k == key) {
        Some((_, ArgVal::U64(v))) => *v as usize,
        other => panic!("{} has no u64 {key}: {other:?}", e.name),
    }
}

/// Two workers die at one virtual instant, each midway through its
/// second fragment with its first one checkpointed, and one sweep reports
/// both. The ground truth is what each rank's `search.fragment` spans say
/// was searched, not the master's bookkeeping: a death requeues exactly
/// the victim's granted fragments it had not searched, and each of them
/// is searched once more on a live rank; the ones it had searched are
/// the merge's orphans and are never searched again.
#[test]
fn a_death_requeues_exactly_what_its_checkpoints_do_not_cover() {
    common::within_host_secs(DEATH_TEST_SECS, || {
        // The fault-free run searches its second round of fragments from
        // about 30 ms to 50 ms of virtual time.
        let at = SimTime::ZERO + simcluster::SimDuration::from_millis(40);
        let plan = common::watchdog().kill_at(2, at).kill_at(3, at);
        let opts = Opts {
            nranks: 5,
            plan,
            traced: true,
            ..Opts::default()
        };
        let done = run_opts(opts, |cfg| {
            cfg.num_fragments = Some(9);
            cfg.collective_output = false;
            cfg.schedule = FragmentSchedule::Dynamic;
            cfg.fault = FaultMode::Recover;
            cfg.checkpoint = true;
        });
        assert_eq!(done.killed, vec![2, 3]);
        assert!(
            matches!(done.outputs[0], Some(Ok(_))),
            "{:?}",
            done.outputs[0]
        );
        assert_eq!(done.report, reference_bytes());
        let trace = done.trace.expect("traced run");
        let events = &trace.events;
        let named = |name: &'static str| {
            let idx = (0..events.len()).filter(move |&i| events[i].name == name);
            idx.map(|i| (i, &events[i]))
        };
        let victim = |rank: usize| done.killed.contains(&rank);

        // One sweep reports both deaths.
        let deaths: Vec<_> = named("worker_dead").collect();
        let ranks: Vec<usize> = deaths.iter().map(|(_, e)| arg(e, "rank")).collect();
        assert_eq!(ranks, vec![2, 3]);
        assert!(deaths.iter().all(|(_, e)| e.t == deaths[0].1.t));
        assert_eq!(named("sweep.dead").count(), 2);

        // Every completed search, by rank; each fragment completes once.
        let searches: Vec<(usize, &Event)> = named("search.fragment")
            .map(|(_, e)| (arg(e, "fragment"), e))
            .collect();
        let mut fragments: Vec<usize> = searches.iter().map(|&(f, _)| f).collect();
        fragments.sort_unstable();
        assert_eq!(fragments, (0..9).collect::<Vec<_>>());
        let searched_by_victims: Vec<usize> = searches
            .iter()
            .filter(|(_, e)| victim(e.rank))
            .map(|&(f, _)| f)
            .collect();

        // Each requeue follows its owner's death, names a fragment its
        // owner never searched, and that fragment is searched afterwards
        // on a live rank.
        let requeues: Vec<_> = named("requeue").collect();
        for &(i, e) in &requeues {
            let (f, owner) = (arg(e, "fragment"), arg(e, "owner"));
            assert!(
                deaths
                    .iter()
                    .any(|&(d, de)| d < i && arg(de, "rank") == owner),
                "requeue of {f} before rank {owner}'s death"
            );
            assert!(!searched_by_victims.contains(&f), "{f} was checkpointed");
            assert!(
                searches
                    .iter()
                    .any(|&(g, s)| g == f && !victim(s.rank) && s.t >= e.t),
                "requeued fragment {f} is never searched again"
            );
        }
        // ...and exactly the fragments its owner was granted and had not
        // searched: one grant carries one fragment.
        for &w in &done.killed {
            let granted = named("grant").filter(|(_, e)| arg(e, "to") == w).count();
            let searched = searches.iter().filter(|(_, e)| e.rank == w).count();
            let requeued = requeues.iter().filter(|(_, e)| arg(e, "owner") == w);
            assert_eq!((searched, requeued.count()), (1, granted - searched));
        }

        // The victims' searched fragments are the merge's orphans.
        let (_, merge) = named("merge").next_back().expect("a merge");
        assert_eq!(arg(merge, "orphans"), searched_by_victims.len());
        assert_eq!(requeues.len(), 2);
    });
}

/// One death with every other fragment granted: the victim's leftover
/// fragment is re-cut into one piece per survivor, each piece is a new
/// fragment id searched once on its own live rank, and the report is the
/// fault-free one.
#[test]
fn a_death_spreads_its_leftover_fragment_over_every_survivor() {
    common::within_host_secs(DEATH_TEST_SECS, || {
        // One fragment per worker: rank 3 dies right after acknowledging
        // its fragment, whose results lived only in its cache. Every
        // fragment is granted by then.
        let plan = common::watchdog().kill_after_sends(3, 2);
        let opts = Opts {
            nranks: 9,
            plan,
            traced: true,
            ..Opts::default()
        };
        let done = run_opts(opts, |cfg| {
            cfg.num_fragments = Some(8);
            cfg.collective_output = false;
            cfg.schedule = FragmentSchedule::Dynamic;
            cfg.fault = FaultMode::Recover;
        });
        assert_eq!(done.killed, vec![3]);
        assert_eq!(done.report, reference_bytes());
        let trace = done.trace.expect("traced run");
        let named = |name: &'static str| trace.events.iter().filter(move |e| e.name == name);
        let [split] = named("split").collect::<Vec<_>>()[..] else {
            panic!("one split expected");
        };
        let [requeue] = named("requeue").collect::<Vec<_>>()[..] else {
            panic!("one requeue expected");
        };
        assert_eq!(arg(split, "fragment"), arg(requeue, "fragment"));
        assert_eq!(arg(split, "pieces"), 7, "one piece per survivor");
        // The pieces are ids 8..15: each searched once, after the
        // split, on its own survivor; the cut fragment never again.
        let cut = arg(split, "fragment");
        let searched: Vec<(usize, usize)> = named("search.fragment")
            .filter(|e| e.t >= split.t)
            .map(|e| (arg(e, "fragment"), e.rank))
            .collect();
        let mut pieces: Vec<usize> = searched.iter().map(|&(f, _)| f).collect();
        pieces.sort_unstable();
        assert_eq!(pieces, (8..15).collect::<Vec<_>>());
        let mut ranks: Vec<usize> = searched.iter().map(|&(_, r)| r).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![1, 2, 4, 5, 6, 7, 8]);
        assert_eq!(
            named("search.fragment")
                .filter(|e| arg(e, "fragment") == cut && e.t >= split.t)
                .count(),
            0
        );
    });
}

/// Kills of one worker among eight, at several points of 8- and
/// 16-fragment runs, with and without checkpoints and query batching. A
/// death with every other fragment granted re-cuts the victim's leftover
/// fragments over the survivors; with checkpoints, the records of the
/// fragments it had searched ride to the survivors with their
/// assignments. Every report is the fault-free one, and the matrix does
/// both.
#[test]
fn kills_that_split_fragments_and_ship_orphans_recover_byte_identically() {
    let (mut splits, mut shipped) = (0, 0);
    for nfrags in [8, 16] {
        for kill_after in [2u64, 3, 4] {
            for checkpoint in [false, true] {
                for query_batch in [None, Some(1)] {
                    let opts = Opts {
                        nranks: 9,
                        plan: FaultPlan::none().kill_after_sends(3, kill_after),
                        traced: true,
                        ..Opts::default()
                    };
                    let done = run_opts(opts, |cfg| {
                        cfg.num_fragments = Some(nfrags);
                        cfg.collective_output = false;
                        cfg.query_batch = query_batch;
                        cfg.schedule = FragmentSchedule::Dynamic;
                        cfg.fault = FaultMode::Recover;
                        cfg.checkpoint = checkpoint;
                    });
                    let what = format!(
                        "nfrags={nfrags} kill_after={kill_after} ckpt={checkpoint} \
                         batch={query_batch:?} killed={:?}",
                        done.killed
                    );
                    assert!(done.killed.is_empty() || done.killed == vec![3], "{what}");
                    assert_eq!(done.report, reference_bytes(), "{what}");
                    let (s, o) = common::splits_and_shipments(&done.trace.expect("traced"));
                    splits += s;
                    shipped += o;
                }
            }
        }
    }
    assert!(
        splits > 0 && shipped > 0,
        "{splits} splits, {shipped} shipments"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn any_single_worker_failure_recovers_byte_identically(
        nranks in 3usize..=5,
        nfrags in 4usize..=10,
        victim_seed in 0usize..64,
        kill_after in 1u64..=8,
    ) {
        let victim = 1 + victim_seed % (nranks - 1);
        let plan = FaultPlan::none().kill_after_sends(victim, kill_after);
        let (bytes, killed) = run_recover(nranks, nfrags, plan);
        // The trigger may never fire (the victim finishes before its
        // kill_after-th send); either way the bytes must match.
        prop_assert!(killed.is_empty() || killed == vec![victim]);
        prop_assert_eq!(
            &bytes[..],
            reference_bytes(),
            "nranks={} nfrags={} victim={} kill_after={} killed={:?}",
            nranks, nfrags, victim, kill_after, killed
        );
    }

    /// Query batching multiplies the protocol cycle: every batch replays
    /// the distribute/collect/write exchange, so a kill can land in any
    /// batch — including at a batch boundary, where the victim holds
    /// nothing. With or without fragment checkpointing, the recovered
    /// output must stay byte-identical to the fault-free reference.
    #[test]
    fn kill_during_any_batch_of_a_batched_run_recovers_byte_identically(
        nranks in 3usize..=4,
        nfrags in 4usize..=8,
        query_batch in 1usize..=2,
        victim_seed in 0usize..64,
        kill_after in 1u64..=14,
        checkpoint in any::<bool>(),
    ) {
        let victim = 1 + victim_seed % (nranks - 1);
        let plan = FaultPlan::none().kill_after_sends(victim, kill_after);
        let (bytes, killed) =
            run_recover_opts(nranks, nfrags, Some(query_batch), checkpoint, false, plan);
        prop_assert!(killed.is_empty() || killed == vec![victim]);
        prop_assert_eq!(
            &bytes[..],
            reference_bytes(),
            "nranks={} nfrags={} batch={} victim={} kill_after={} ckpt={} killed={:?}",
            nranks, nfrags, query_batch, victim, kill_after, checkpoint, killed
        );
    }

    /// The lifted restriction: `collective_input` now composes with the
    /// dynamic schedule and `FaultMode::Recover` (the plane degrades the
    /// read pattern to per-rank sieved access off the collective path
    /// instead of rejecting the config). Under an arbitrary worker kill,
    /// with and without fragment checkpointing, aggregated input must
    /// still recover byte-identically to the plain fault-free reference.
    #[test]
    fn collective_input_under_recovery_is_byte_identical(
        nranks in 3usize..=5,
        nfrags in 4usize..=10,
        victim_seed in 0usize..64,
        kill_after in 1u64..=8,
        checkpoint in any::<bool>(),
    ) {
        let victim = 1 + victim_seed % (nranks - 1);
        let plan = FaultPlan::none().kill_after_sends(victim, kill_after);
        let (bytes, killed) =
            run_recover_opts(nranks, nfrags, None, checkpoint, true, plan);
        prop_assert!(killed.is_empty() || killed == vec![victim]);
        prop_assert_eq!(
            &bytes[..],
            reference_bytes(),
            "nranks={} nfrags={} victim={} kill_after={} ckpt={} killed={:?}",
            nranks, nfrags, victim, kill_after, checkpoint, killed
        );
    }
}
