//! Property tests for query-stream service mode (`pioblast serve`):
//! every stream batch's per-batch report must be byte-identical to
//! running that batch's queries as an ordinary one-shot job — across
//! affinity on/off, resident-store capacities, the nonblocking I/O
//! plane, intra-rank compute slots, and single-worker kills under
//! `FaultMode::Recover`.
//!
//! Affinity and residency change *which worker* searches a fragment and
//! *whether its bytes come from the store or the file system* — neither
//! may ever change the report. The resident store is a cache, not a
//! scheduler: the deterministic metrics test pins down that it actually
//! hits (rate > 50% once the stream revisits fragments) and that a
//! zero-capacity store never does.

mod common;

use std::sync::OnceLock;

use blast_core::seq::SeqRecord;
use common::{run_opts, Opts, OUTPUT};
use mpiblast::setup::stage_queries;
use pioblast::{
    BurstOptions, FaultMode, FragmentSchedule, InputError, PioError, QueryStreamPlan,
    ServiceMetrics, ServiceOptions, StreamBatch,
};
use proptest::prelude::*;
use simcluster::{FaultPlan, Sim, SimTime};

/// Queries the whole stream consumes (kept tiny: every proptest case
/// pays one one-shot reference run per stream batch).
const N_QUERIES: usize = 5;
const MEAN_GAP_NS: u64 = 2_000_000;
const DB_SEED: u64 = 47;

struct ServiceRun {
    /// Per-stream-batch report bytes (`results.txt.q<b>`).
    batches: Vec<Vec<u8>>,
    killed: Vec<usize>,
    metrics: ServiceMetrics,
    outputs: Vec<Option<Result<mpiblast::RankReport, PioError>>>,
    elapsed: SimTime,
    trace: tracelog::Trace,
}

#[allow(clippy::too_many_arguments)]
fn run_service(
    nranks: usize,
    nfrags: usize,
    plan: &QueryStreamPlan,
    resident_bytes: u64,
    affinity: bool,
    io_async: bool,
    threads: usize,
    fault: FaultMode,
    fplan: FaultPlan,
) -> ServiceRun {
    let opts = Opts {
        nranks,
        db_seed: DB_SEED,
        n_queries: plan.total_queries(),
        plan: fplan,
        traced: true,
        ..Opts::default()
    };
    let done = run_opts(opts, |cfg| {
        cfg.num_fragments = Some(nfrags);
        cfg.collective_output = false;
        cfg.schedule = FragmentSchedule::Dynamic;
        cfg.fault = fault;
        cfg.threads = threads;
        cfg.io.io_async = io_async;
        cfg.service = Some(ServiceOptions {
            plan: plan.clone(),
            resident_bytes,
            affinity,
        });
    });
    let batches = (0..plan.batches.len())
        .map(|b| {
            done.env
                .shared
                .peek(&format!("{OUTPUT}.q{b}"))
                .unwrap_or_default()
        })
        .collect();
    let trace = done.trace.expect("traced");
    ServiceRun {
        batches,
        killed: done.killed,
        metrics: ServiceMetrics::from_trace(&trace),
        outputs: done.outputs,
        elapsed: done.elapsed,
        trace,
    }
}

/// Run one stream batch's queries as an ordinary fault-free one-shot
/// job: the reference bytes its service-mode report must reproduce.
fn one_shot(nranks: usize, nfrags: usize, queries: &[SeqRecord]) -> Vec<u8> {
    let opts = Opts {
        nranks,
        db_seed: DB_SEED,
        ..Opts::default()
    };
    let done = run_opts(opts, |cfg| {
        // Replace the staged query set with this batch's.
        cfg.query_path = stage_queries(&cfg.env.shared, queries);
        cfg.num_fragments = Some(nfrags);
        cfg.collective_output = false;
        cfg.schedule = FragmentSchedule::Dynamic;
    });
    assert!(done.killed.is_empty());
    assert!(!done.report.is_empty(), "reference run produced no output");
    done.report
}

/// Per-batch one-shot reference bytes for `plan` at this cluster shape.
fn references(nranks: usize, nfrags: usize, plan: &QueryStreamPlan) -> Vec<Vec<u8>> {
    let db = common::small_db(DB_SEED);
    let queries = common::sample_queries(&db, plan.total_queries());
    let parts = plan.partition(&queries).expect("plan matches its queries");
    parts
        .iter()
        .map(|batch| one_shot(nranks, nfrags, batch))
        .collect()
}

fn fixed_plan() -> QueryStreamPlan {
    QueryStreamPlan::generate(3, 4, N_QUERIES, MEAN_GAP_NS, 42)
}

fn fixed_references() -> &'static Vec<Vec<u8>> {
    static REFS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    REFS.get_or_init(|| references(4, 9, &fixed_plan()))
}

/// Cheap deterministic guard independent of the proptest machinery: a
/// fault-free sweep over affinity x residency x the async I/O plane x
/// slot counts must reproduce every batch's one-shot bytes.
#[test]
fn service_reports_match_one_shot_runs_without_faults() {
    let plan = fixed_plan();
    let refs = fixed_references();
    for affinity in [false, true] {
        for io_async in [false, true] {
            for threads in [1, 4] {
                let resident = if affinity { 64 << 20 } else { 0 };
                let run = run_service(
                    4,
                    9,
                    &plan,
                    resident,
                    affinity,
                    io_async,
                    threads,
                    FaultMode::Off,
                    FaultPlan::none(),
                );
                assert!(run.killed.is_empty());
                assert_eq!(run.batches.len(), refs.len());
                for (b, (got, want)) in run.batches.iter().zip(refs.iter()).enumerate() {
                    assert_eq!(
                        got, want,
                        "batch {b} diverged: affinity={affinity} \
                         io_async={io_async} threads={threads}"
                    );
                }
            }
        }
    }
}

/// The resident store must actually serve re-grants: with affinity on
/// and a capacious store, every batch after the first hits (> 50% of
/// all grants once the stream revisits each fragment), while the
/// zero-capacity affinity-off baseline never hits and re-reads
/// everything. Residency must not slow the virtual clock down.
#[test]
fn affinity_reuses_resident_fragments_across_the_stream() {
    let plan = fixed_plan();
    let nbatches = plan.batches.len();
    let on = run_service(
        4,
        9,
        &plan,
        64 << 20,
        true,
        false,
        1,
        FaultMode::Off,
        FaultPlan::none(),
    );
    let off = run_service(
        4,
        9,
        &plan,
        0,
        false,
        false,
        1,
        FaultMode::Off,
        FaultPlan::none(),
    );
    assert!(on.killed.is_empty() && off.killed.is_empty());
    assert_eq!(on.metrics.queries, nbatches, "every stream batch seals");
    assert_eq!(off.metrics.queries, nbatches);

    // Grants total nfrags per batch on both sides.
    let grants = (9 * nbatches) as u64;
    assert_eq!(on.metrics.cache_hits + on.metrics.cache_misses, grants);
    assert_eq!(off.metrics.cache_hits, 0, "a zero-cap store never hits");
    assert_eq!(off.metrics.cache_misses, grants);

    // With stable affinity placement, only batch 0 misses.
    assert_eq!(on.metrics.cache_misses, 9, "only the cold batch reads");
    assert!(
        on.metrics.hit_rate() > 0.5,
        "hit rate {:.2} not > 0.5",
        on.metrics.hit_rate()
    );

    // Skipped reads can only shrink the virtual wall.
    assert!(on.metrics.wall_s <= off.metrics.wall_s);
    assert!(on.metrics.queries_per_sec >= off.metrics.queries_per_sec);
    assert!(on.metrics.p50_latency_s > 0.0);
    assert!(on.metrics.p99_latency_s >= on.metrics.p50_latency_s);
}

/// `serve` without `--recover`: the stream runs point-to-point, so the
/// master hears of a worker's death — and must fail the run, not requeue.
/// Nobody posted the fences that make a requeue safe, and with staged
/// output the silent requeue used to finish `Ok` on every rank with wrong
/// bytes in a stream batch's report.
#[test]
fn worker_death_without_recover_fails_fast() {
    let plan = fixed_plan();
    let db = common::small_db(DB_SEED);
    let queries = common::sample_queries(&db, plan.total_queries());
    let sim = Sim::new(4);
    let mut cfg = common::staged(&sim, &mpiblast::Platform::altix(), &db, &queries);
    cfg.num_fragments = Some(9);
    cfg.collective_output = false;
    cfg.schedule = FragmentSchedule::Dynamic;
    cfg.io.burst = Some(BurstOptions::default());
    cfg.service = Some(ServiceOptions {
        plan,
        resident_bytes: 64 << 20,
        affinity: true,
    });
    assert_eq!(cfg.fault, FaultMode::Off);
    let out = sim
        .try_run_faulty(FaultPlan::none().kill_after_sends(1, 6), |ctx| {
            pioblast::run_rank(&ctx, &cfg)
        })
        .expect("neither a deadlock nor a rank panic");
    assert_eq!(out.killed, vec![1]);
    assert_eq!(out.outputs[0], Some(Err(PioError::WorkerDied { rank: 1 })));
    assert_eq!(out.outputs[1], None, "the killed rank yields nothing");
    for w in [2, 3] {
        assert_eq!(out.outputs[w], Some(Err(PioError::Aborted)), "worker {w}");
    }
}

/// The same contract when the worker leaves by *returning* its own error
/// instead of being killed: the `.seq` lost its last byte, so the one
/// worker granted the last fragment reads past its end. The master's
/// sweep reports a rank that returned like one that died. It used to see
/// only kills, and swept forever; the watchdog turns that hang into a
/// failure.
#[test]
fn a_worker_that_returns_an_error_without_recover_fails_the_stream() {
    let done = run_opts(
        Opts {
            db_seed: DB_SEED,
            n_queries: N_QUERIES,
            plan: common::watchdog(),
            ..Opts::default()
        },
        |cfg| {
            let seq = "db/nr-test.seq";
            let bytes = cfg.env.shared.peek(seq).expect("staged");
            cfg.env
                .shared
                .preload(seq, bytes[..bytes.len() - 1].to_vec());
            cfg.num_fragments = Some(9);
            cfg.collective_output = false;
            cfg.schedule = FragmentSchedule::Dynamic;
            cfg.service = Some(ServiceOptions {
                plan: fixed_plan(),
                resident_bytes: 64 << 20,
                affinity: true,
            });
        },
    );
    assert!(
        done.killed.is_empty(),
        "the watchdog fired: {:?}",
        done.outputs
    );
    let Some(Err(PioError::WorkerDied { rank })) = done.outputs[0] else {
        panic!("master: {:?}", done.outputs[0]);
    };
    for (w, out) in done.outputs.iter().enumerate().skip(1) {
        let own = matches!(
            out,
            Some(Err(PioError::Input(InputError::Store(
                parafs::StoreError::OutOfRange { .. }
            ))))
        );
        let aborted = *out == Some(Err(PioError::Aborted));
        assert!(if w == rank { own } else { aborted }, "worker {w}: {out:?}");
    }
}

/// A stream of four batches on eight workers, one worker killed at
/// several points, with and without affinity: a death with every other
/// fragment granted re-cuts the victim's fragments over the survivors,
/// at the front of the queue, and the pieces stay fragments of their own
/// for the rest of the stream. Every batch's report is its one-shot
/// reference, and some kill does re-cut.
#[test]
fn stream_kills_that_split_fragments_recover_byte_identically() {
    let plan = fixed_plan();
    let refs = references(9, 8, &plan);
    let mut splits = 0;
    for affinity in [false, true] {
        for kill_after in [2u64, 4, 6] {
            let opts = Opts {
                nranks: 9,
                db_seed: DB_SEED,
                n_queries: plan.total_queries(),
                plan: FaultPlan::none().kill_after_sends(3, kill_after),
                traced: true,
                ..Opts::default()
            };
            let done = run_opts(opts, |cfg| {
                cfg.num_fragments = Some(8);
                cfg.collective_output = false;
                cfg.schedule = FragmentSchedule::Dynamic;
                cfg.fault = FaultMode::Recover;
                cfg.service = Some(ServiceOptions {
                    plan: plan.clone(),
                    resident_bytes: if affinity { 64 << 20 } else { 0 },
                    affinity,
                });
            });
            let what = format!(
                "affinity={affinity} kill_after={kill_after} killed={:?}",
                done.killed
            );
            assert!(done.killed.is_empty() || done.killed == vec![3], "{what}");
            for (b, want) in refs.iter().enumerate() {
                let got = done.env.shared.peek(&format!("{OUTPUT}.q{b}"));
                assert_eq!(got.as_ref(), Ok(want), "batch {b}: {what}");
            }
            splits += common::splits_and_shipments(&done.trace.expect("traced")).0;
        }
    }
    assert!(splits > 0, "no kill re-cut a fragment");
}

/// Batch 0 (two queries, user 0) at t = 0, batch 1 (three queries,
/// user 1) at `second_ns`.
fn two_batch_plan(second_ns: u64) -> QueryStreamPlan {
    let batch = |user, arrival_ns, nqueries| StreamBatch {
        user,
        arrival_ns,
        nqueries,
    };
    QueryStreamPlan {
        batches: vec![batch(0, 0, 2), batch(1, second_ns, 3)],
    }
}

/// The virtual time of every master `name` instant whose `key` argument
/// is `value`.
fn master_instants(trace: &tracelog::Trace, name: &str, key: &str, value: u64) -> Vec<u64> {
    let events = trace.rank_events(0).filter(|e| e.name == name);
    events
        .filter(|e| common::arg(e, key) == value)
        .map(|e| e.t)
        .collect()
}

/// Where the next stream batch opens at the merge, one that arrives
/// 50 ms after the merge is still granted only once admitted, and the
/// merged batch seals meanwhile exactly when it did while each batch
/// was a closed distribute -> collect -> write cycle: the `merge` and
/// `service.done` instants below were read off the traces of these runs
/// (on both planes) with the merge absorbing each submission as it
/// arrives, so the merge begins after the last one's absorb. The master
/// waits for the arrival by receiving, so the acknowledgements it gets
/// meanwhile seal the batch on time.
#[test]
fn a_batch_arriving_after_the_merge_is_granted_once_admitted_while_the_last_one_seals() {
    for (io_async, merge_ns, done_ns) in [
        (false, 73_915_824, 76_471_562),
        (true, 71_210_202, 71_818_627),
    ] {
        let arrival = merge_ns + 50_000_000;
        let plan = two_batch_plan(arrival);
        let run = run_service(
            4,
            9,
            &plan,
            64 << 20,
            true,
            io_async,
            1,
            FaultMode::Off,
            FaultPlan::none(),
        );
        let what = format!("io_async={io_async}");
        assert!(run.killed.is_empty(), "{what}");
        assert_eq!(run.batches, references(4, 9, &plan), "{what}");
        let trace = &run.trace;
        assert_eq!(
            master_instants(trace, "merge", "batch", 0),
            [merge_ns],
            "{what}"
        );
        let done = master_instants(trace, "service.done", "query", 0);
        assert_eq!(done, [done_ns], "{what}");
        assert_eq!(
            master_instants(trace, "service.admit", "query", 1),
            [arrival],
            "{what}"
        );
        let grants = master_instants(trace, "grant", "batch", 1);
        assert_eq!(grants.len(), 9, "{what}");
        assert!(grants.iter().all(|&t| t >= arrival), "{what}: {grants:?}");
    }
}

/// A worker killed with its batch-0 report write in flight (posted at
/// 71.48 ms, landing at 71.82 ms on the nonblocking plane), batch 1 due
/// at 121 ms. Without `--recover` the stream fails fast — `WorkerDied`
/// on the master, `Aborted` on the survivors — at the first sweep after
/// the kill, not after batch 1's admission: the killed write never
/// sends its acknowledgement, and the master waits for the arrival by
/// receiving. With `--recover`, which keeps the closed per-batch cycle,
/// the same kill gives byte-identical reports and the grant order the
/// parent commit gave, read off its trace.
#[test]
fn a_kill_with_a_report_write_in_flight_fails_fast_or_recovers_as_before() {
    let plan = two_batch_plan(121_140_279);
    let kill = || FaultPlan::none().kill_at(2, SimTime(71_600_000));
    let fail_fast = common::within_host_secs(120, move || {
        let plan = two_batch_plan(121_140_279);
        let fplan = kill().kill_at(0, SimTime(1_000_000_000_000));
        let run = run_service(4, 9, &plan, 64 << 20, true, true, 1, FaultMode::Off, fplan);
        (run.killed, run.outputs, run.elapsed)
    });
    let (killed, outputs, elapsed) = fail_fast;
    assert_eq!(killed, vec![2]);
    assert_eq!(outputs[0], Some(Err(PioError::WorkerDied { rank: 2 })));
    for w in [1, 3] {
        assert_eq!(outputs[w], Some(Err(PioError::Aborted)), "worker {w}");
    }
    assert!(elapsed < SimTime(100_000_000), "ended at {elapsed}");

    let run = run_service(
        4,
        9,
        &plan,
        64 << 20,
        true,
        true,
        1,
        FaultMode::Recover,
        kill(),
    );
    assert_eq!(run.killed, vec![2]);
    assert_eq!(run.batches, references(4, 9, &plan));
    let grants: Vec<(u64, u64)> = run
        .trace
        .rank_events(0)
        .filter(|e| e.name == "grant")
        .map(|e| (common::arg(e, "to"), common::arg(e, "batch")))
        .collect();
    // The parent's grantees, batch by batch, in grant order.
    let parent = [
        (0, &[1, 2, 3, 2, 3, 1, 3, 1, 2, 1, 3, 1][..]),
        (1, &[1, 3, 3, 1, 3, 1, 3, 1, 3][..]),
    ];
    let parent: Vec<(u64, u64)> = parent
        .iter()
        .flat_map(|&(batch, to)| to.iter().map(move |&w| (w, batch)))
        .collect();
    assert_eq!(grants, parent);
}

/// A shared file system with room for less than half of batch 0's
/// 87 920-byte report: on both planes the stream ends in typed errors
/// on every rank, at least one of them the writer's
/// `PioError::Output(NoSpace)` — a posted write that fails sends no
/// acknowledgement, and its worker joins it while it waits for its next
/// command instead of leaving the master waiting for one.
#[test]
fn a_report_that_does_not_fit_ends_in_a_typed_output_error() {
    for io_async in [false, true] {
        let outputs = common::within_host_secs(120, move || {
            let done = run_opts(
                Opts {
                    db_seed: DB_SEED,
                    n_queries: N_QUERIES,
                    plan: common::watchdog(),
                    ..Opts::default()
                },
                |cfg| {
                    let fs = &cfg.env.shared;
                    fs.set_capacity(common::stored_bytes(fs) + 40_000);
                    cfg.num_fragments = Some(9);
                    cfg.collective_output = false;
                    cfg.schedule = FragmentSchedule::Dynamic;
                    cfg.io.io_async = io_async;
                    cfg.service = Some(ServiceOptions {
                        plan: two_batch_plan(0),
                        resident_bytes: 64 << 20,
                        affinity: true,
                    });
                },
            );
            assert!(done.killed.is_empty(), "the watchdog fired");
            done.outputs
        });
        let no_space = |out: &Option<Result<_, PioError>>| {
            matches!(
                out,
                Some(Err(PioError::Output(parafs::StoreError::NoSpace { .. })))
            )
        };
        assert!(
            outputs.iter().any(no_space),
            "io_async={io_async}: {outputs:?}"
        );
        for (rank, out) in outputs.iter().enumerate() {
            assert!(
                matches!(out, Some(Err(_))),
                "io_async={io_async}: rank {rank}: {out:?}"
            );
        }
    }
}

/// Pipelined batches still write what their one-shot jobs write:
/// affinity on and off, both planes, two compute slots per worker.
#[test]
fn pipelined_stream_batches_equal_their_one_shot_jobs() {
    let plan = fixed_plan();
    for affinity in [false, true] {
        for io_async in [false, true] {
            let resident = if affinity { 64 << 20 } else { 0 };
            let run = run_service(
                4,
                9,
                &plan,
                resident,
                affinity,
                io_async,
                2,
                FaultMode::Off,
                FaultPlan::none(),
            );
            assert!(run.killed.is_empty());
            assert_eq!(
                &run.batches,
                fixed_references(),
                "affinity={affinity} io_async={io_async}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full matrix the issue names: stream plans x affinity on/off x
    /// `--io-async` x `--threads` x a single-worker kill under Recover.
    /// Every batch's report must be byte-identical to its one-shot
    /// reference, whatever the placement, residency, and recovery path.
    #[test]
    fn stream_batches_recover_byte_identically(
        nranks in 3usize..=5,
        nfrags in 4usize..=8,
        plan_seed in 0u64..64,
        affinity in any::<bool>(),
        io_async in any::<bool>(),
        threads in 1usize..=4,
        victim_seed in 0usize..64,
        kill_after in 1u64..=8,
    ) {
        // The plan seed also picks the stream shape (the vendored
        // proptest tops out at 8 strategy slots).
        let users = 1 + (plan_seed % 3) as u32;
        let nbatches = 2 + (plan_seed / 3 % 2) as usize;
        let plan = QueryStreamPlan::generate(users, nbatches, N_QUERIES, MEAN_GAP_NS, plan_seed);
        let refs = references(nranks, nfrags, &plan);
        let victim = 1 + victim_seed % (nranks - 1);
        let fplan = FaultPlan::none().kill_after_sends(victim, kill_after);
        let resident = if affinity { 64 << 20 } else { 0 };
        let run = run_service(
            nranks, nfrags, &plan, resident, affinity, io_async, threads,
            FaultMode::Recover, fplan,
        );
        // The trigger may never fire (the victim outlives its
        // kill_after-th send); either way every batch must match.
        prop_assert!(run.killed.is_empty() || run.killed == vec![victim]);
        prop_assert_eq!(run.batches.len(), refs.len());
        for (b, (got, want)) in run.batches.iter().zip(refs.iter()).enumerate() {
            prop_assert_eq!(
                got, want,
                "batch {} diverged: nranks={} nfrags={} users={} nbatches={} \
                 affinity={} io_async={} threads={} victim={} kill_after={} \
                 killed={:?}",
                b, nranks, nfrags, users, nbatches, affinity, io_async,
                threads, victim, kill_after, run.killed
            );
        }
    }
}
