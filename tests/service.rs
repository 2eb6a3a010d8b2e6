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
    ServiceMetrics, ServiceOptions,
};
use proptest::prelude::*;
use simcluster::{FaultPlan, Sim};

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
    ServiceRun {
        batches,
        killed: done.killed,
        metrics: ServiceMetrics::from_trace(&done.trace.expect("traced")),
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
