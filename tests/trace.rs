//! Integration tests for the observability plane (`tracelog`):
//!
//! * **Determinism** — the exported Chrome trace of a modeled-compute
//!   run is byte-identical across repeated executions of the same
//!   configuration (the DES is deterministic, and so must be every
//!   layer of the trace pipeline: stamping, merging, exporting).
//! * **Recovery sequences** — a `FaultMode::Recover` run with a worker
//!   kill leaves a legible `worker_dead -> requeue -> epoch_start`
//!   record on the master's runtime lane.
//! * **Acceptance** — a 16-process blade/NFS pioBLAST run produces a
//!   validator-clean Chrome trace whose per-rank phase timelines each
//!   partition the DES wall clock exactly, and whose critical-path
//!   breakdown is exactly what `RunSummary` reports (the scaling hack
//!   is gone).

mod common;

use blast_bench::runner::PHASE_PRECEDENCE;
use blast_bench::{run, Program};
use common::{run_opts, Opts};
use mpiblast::Platform;
use pioblast::{FaultMode, FragmentSchedule};
use proptest::prelude::*;
use simcluster::FaultPlan;
use tracelog::{analyze, chrome, Lane, Trace};

/// Run a traced pioBLAST job (modeled compute, so virtual time — and
/// therefore the trace — is a pure function of the configuration).
fn run_pio_traced(
    nranks: usize,
    nfrags: usize,
    db_seed: u64,
    fault: FaultMode,
    plan: FaultPlan,
) -> (Trace, Vec<usize>) {
    let opts = Opts {
        nranks,
        db_seed,
        plan,
        traced: true,
        ..Opts::default()
    };
    let done = run_opts(opts, |cfg| {
        cfg.num_fragments = Some(nfrags);
        cfg.collective_output = false;
        cfg.schedule = FragmentSchedule::Dynamic;
        cfg.fault = fault;
    });
    (done.trace.expect("traced"), done.killed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Same configuration, same seed -> byte-identical Chrome export.
    #[test]
    fn traces_are_byte_identical_across_repeated_runs(
        nranks in 3usize..=4,
        nfrags in 4usize..=8,
        db_seed in 20u64..24,
    ) {
        let (a, killed_a) =
            run_pio_traced(nranks, nfrags, db_seed, FaultMode::Off, FaultPlan::none());
        let (b, killed_b) =
            run_pio_traced(nranks, nfrags, db_seed, FaultMode::Off, FaultPlan::none());
        prop_assert!(killed_a.is_empty() && killed_b.is_empty());
        prop_assert_eq!(a.wall, b.wall);
        let json_a = chrome::export_chrome(&a, None);
        let json_b = chrome::export_chrome(&b, None);
        prop_assert!(!json_a.is_empty());
        prop_assert_eq!(json_a, json_b);
    }
}

/// Runtime-lane event names on the master, in merged order, filtered to
/// the recovery vocabulary.
fn recovery_sequence(trace: &Trace) -> Vec<String> {
    trace
        .rank_events(0)
        .filter(|e| e.lane == Lane::Runtime)
        .filter(|e| matches!(e.name.as_ref(), "epoch_start" | "worker_dead" | "requeue"))
        .map(|e| e.name.to_string())
        .collect()
}

#[test]
fn recover_run_emits_dead_requeue_epoch_sequence() {
    // Kill worker 1 after its second send (initial request + first
    // grant ack): it dies holding an unfinished fragment, so recovery
    // must requeue it and re-open collection.
    let plan = FaultPlan::none().kill_after_sends(1, 2);
    let (trace, killed) = run_pio_traced(4, 6, 21, FaultMode::Recover, plan);
    assert_eq!(killed, vec![1]);

    let seq = recovery_sequence(&trace);
    let dead = seq.iter().position(|n| n == "worker_dead");
    let requeue = seq.iter().position(|n| n == "requeue");
    let dead = dead.expect("the kill must surface as worker_dead");
    let requeue = requeue.expect("the victim's fragment must be requeued");
    assert!(dead < requeue, "death precedes its requeue: {seq:?}");
    assert!(
        seq.iter()
            .rposition(|n| n == "epoch_start")
            .expect("collection must re-open")
            > requeue,
        "an epoch must start after the requeue: {seq:?}"
    );
    // Exactly one death, and its rank is the victim.
    let deaths: Vec<_> = trace
        .rank_events(0)
        .filter(|e| e.lane == Lane::Runtime && e.name == "worker_dead")
        .collect();
    assert_eq!(deaths.len(), 1);
    assert!(deaths[0]
        .args
        .iter()
        .any(|(k, v)| *k == "rank" && *v == tracelog::ArgVal::U64(1)));

    // Golden: the same plan replays to the same sequence.
    let (trace2, killed2) = run_pio_traced(4, 6, 21, FaultMode::Recover, plan_clone());
    assert_eq!(killed2, vec![1]);
    assert_eq!(seq, recovery_sequence(&trace2));
}

fn plan_clone() -> FaultPlan {
    FaultPlan::none().kill_after_sends(1, 2)
}

#[test]
fn blade_16_proc_trace_is_valid_and_matches_the_summary() {
    let workload = blast_bench::workload::nr_like(60_000, 1024, 29);
    let blast_bench::Run { summary, trace, .. } = run(
        Program::PioBlast,
        16,
        None,
        &Platform::blade_cluster(),
        &workload,
        FaultPlan::none(),
        |_| {},
    );
    assert_eq!(trace.nranks, 16);
    assert_eq!(trace.dropped, 0);
    assert!(trace.wall > 0);

    // Every rank's phase timeline partitions [0, wall] exactly.
    for rank in 0..trace.nranks {
        let totals = analyze::rank_phase_totals(&trace, rank);
        assert_eq!(totals.total(), trace.wall, "rank {rank}");
    }

    // The summary's breakdown is the trace's critical path, and it
    // partitions the wall with no rescaling.
    let path = analyze::critical_path(&trace, &PHASE_PRECEDENCE);
    assert_eq!(path.total(), trace.wall);
    let secs = |name: &str| path.get(name) as f64 / 1e9;
    assert!((summary.search - secs("search")).abs() < 1e-9);
    assert!((summary.copy_input - secs("copy") - secs("input")).abs() < 1e-9);
    assert!((summary.output - secs("output")).abs() < 1e-9);
    let parts = summary.copy_input + summary.search + summary.output + summary.other;
    assert!((parts - summary.total).abs() < 1e-9);
    assert!(summary.search > 0.0);

    // The export is validator-clean (Perfetto-loadable shape).
    let json = chrome::export_chrome(&trace, None);
    let stats = tracelog::check::validate_chrome(&json).expect("exported trace validates");
    assert_eq!(stats.ranks, 16);
    assert!(stats.spans > 0 && stats.instants > 0);

    // Lane filtering drops the excluded subsystems but stays valid.
    let filtered = chrome::export_chrome(&trace, Some(&[Lane::Phase, Lane::Search]));
    let fstats = tracelog::check::validate_chrome(&filtered).expect("filtered trace validates");
    assert!(fstats.events < stats.events);
}

#[test]
fn the_master_renders_only_headers_preambles_notices_and_footers() {
    // The merge instant counts the bytes the master renders. They are
    // each query's header and footer, with the summary preamble or the
    // no-hits notice between; every one-line summary is rendered by a
    // worker, under a `format.summary` span.
    use blast_core::format::{self, ReportConfig};
    use blast_core::search::{PreparedQueries, SearchParams};
    let db = common::small_db(21);
    let queries = common::sample_queries(&db, 3);
    for fault in [FaultMode::Off, FaultMode::Recover] {
        let opts = Opts {
            traced: true,
            ..Opts::default()
        };
        let done = run_opts(opts, |cfg| {
            cfg.schedule = FragmentSchedule::Dynamic;
            cfg.fault = fault;
        });
        let trace = done.trace.expect("traced");
        let report = String::from_utf8(done.report).expect("a text report");
        let cfg = ReportConfig::for_molecule(db.alias.molecule, db.alias.title.clone(), db.stats());
        let params = SearchParams::blastp();
        let prepared = PreparedQueries::prepare(&params, queries.clone(), db.stats());
        let framing: usize = (0..queries.len())
            .map(|q| {
                format::query_header(&cfg, &prepared.records[q]).len()
                    + format::query_footer(&params, &prepared.spaces[q]).len()
            })
            .sum();
        let preambles = report.matches(format::SUMMARY_PREAMBLE).count();
        let notices = report.matches(&format::no_hits_section()).count();
        assert_eq!(preambles + notices, queries.len(), "{fault:?}");
        let expected = framing
            + preambles * format::SUMMARY_PREAMBLE.len()
            + notices * format::no_hits_section().len();
        let merges: Vec<u64> = trace
            .rank_events(0)
            .filter(|e| e.name == "merge")
            .map(|e| common::arg(e, "rendered_bytes"))
            .collect();
        assert_eq!(merges, [expected as u64], "{fault:?}");
        let spans = common::summary_spans(&trace);
        assert!(
            !spans.is_empty() && spans.iter().all(|s| s.0 != 0),
            "{spans:?}"
        );
        let rendered: u64 = spans.iter().map(|s| s.3).sum();
        assert_eq!(
            rendered,
            common::summary_bytes(report.as_bytes()),
            "{fault:?}"
        );
    }
}

/// A parked report write's acknowledgement leaves from the write's
/// completion callback, on the engine, yet is traced like any send of
/// the worker's: a `send` span (dst 0, tag 15, 8 bytes) on its net lane,
/// at the instant it leaves — after the worker posted that batch's
/// write, before the master sealed the batch — in an export
/// `trace-check` accepts.
#[test]
fn a_parked_writes_acknowledgement_is_traced_as_the_workers_send() {
    let opts = Opts {
        traced: true,
        ..Opts::default()
    };
    let done = run_opts(opts, |cfg| {
        cfg.num_fragments = Some(6);
        cfg.collective_output = false;
        cfg.schedule = FragmentSchedule::Dynamic;
        cfg.io.io_async = true;
        cfg.service = Some(pioblast::ServiceOptions {
            plan: pioblast::QueryStreamPlan::generate(2, 3, 3, 1_000_000, 7),
            resident_bytes: 64 << 20,
            affinity: true,
        });
    });
    let trace = done.trace.expect("traced");
    let named = |rank: usize, name: &'static str| {
        let events = trace.rank_events(rank).filter(move |e| e.name == name);
        events.filter(|e| e.kind != tracelog::EventKind::End)
    };
    let seals: Vec<u64> = named(0, "service.done").map(|e| e.t).collect();
    let output_write = tracelog::ArgVal::Str("output_write".into());
    for w in 1..4 {
        let posts: Vec<u64> = named(w, "plane.async.begin")
            .filter(|e| e.args.contains(&("op", output_write.clone())))
            .map(|e| e.t)
            .collect();
        let acks: Vec<u64> = named(w, "send")
            .filter(|e| e.lane == Lane::Net && common::arg(e, "tag") == 15)
            .inspect(|e| assert_eq!((common::arg(e, "dst"), common::arg(e, "bytes")), (0, 8)))
            .map(|e| e.t)
            .collect();
        let landed = |(b, &ack): (usize, &u64)| posts[b] <= ack && ack < seals[b];
        assert!(
            acks.len() == 3 && posts.len() == 3 && acks.iter().enumerate().all(landed),
            "worker {w}: posts {posts:?}, acks {acks:?}, seals {seals:?}"
        );
    }
    let json = chrome::export_chrome(&trace, None);
    tracelog::check::validate_chrome(&json).expect("exported trace validates");
}

/// In a `--recover` run — fault-free, and with a worker killed holding
/// an unsearched fragment, which re-opens collection — every worker's
/// `TAG_SUBMIT` send pairs with exactly one master `recv.done` carrying
/// the same source and tag: the master's point-to-point receipts are
/// traced like its blocking ones, in the order each worker sent.
#[test]
fn every_submission_a_worker_sends_pairs_with_one_traced_receipt_on_the_master() {
    const TAG_SUBMIT: u64 = 13;
    for plan in [FaultPlan::none(), plan_clone()] {
        let (trace, killed) = run_pio_traced(4, 6, 21, FaultMode::Recover, plan);
        let receipts = |w: usize| -> Vec<u64> {
            let events = trace.rank_events(0).filter(|e| e.lane == Lane::Net);
            events
                .filter(|e| e.name == "recv.done" && common::arg(e, "tag") == TAG_SUBMIT)
                .filter(|e| common::arg(e, "src") == w as u64)
                .map(|e| e.t)
                .collect()
        };
        let mut received = 0;
        for w in 1..4 {
            let sends: Vec<u64> = trace
                .rank_events(w)
                .filter(|e| e.lane == Lane::Net && e.name == "send")
                .filter(|e| e.kind == tracelog::EventKind::Begin)
                .filter(|e| common::arg(e, "tag") == TAG_SUBMIT)
                .inspect(|e| assert_eq!(common::arg(e, "dst"), 0))
                .map(|e| e.t)
                .collect();
            let got = receipts(w);
            let paired = got.len() == sends.len() && sends.iter().zip(&got).all(|(s, r)| s < r);
            assert!(
                paired,
                "killed {killed:?}, worker {w}: sent {sends:?}, received {got:?}"
            );
            received += got.len();
        }
        // Every live worker submitted at least once.
        assert!(
            received >= 3 - killed.len(),
            "killed {killed:?}: {received}"
        );
    }
}
