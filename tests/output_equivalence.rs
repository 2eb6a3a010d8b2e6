//! The paper's central correctness requirement, tested across the whole
//! stack: given the same query and database, the serial reference,
//! mpiBLAST, and pioBLAST produce **byte-identical** output — for any
//! worker count, fragment count, platform, and volume layout.

mod common;

use blast_core::search::SearchParams;
use blast_core::seq::SeqRecord;
use blast_core::Molecule;
use common::{staged, OUTPUT};
use mpiblast::report::{serial_report, ReportOptions};
use mpiblast::setup::{stage_fragments, stage_queries};
use mpiblast::{ClusterEnv, MpiBlastConfig, Platform};
use pioblast::{FaultMode, FragmentSchedule, PioBlastConfig};
use seqfmt::formatdb::{format_records, FormatDbConfig};
use seqfmt::sampler::sample_queries;
use seqfmt::synth::{generate, SynthConfig};
use seqfmt::FormattedDb;
use simcluster::{FaultPlan, Sim};

fn build_db(seed: u64, residues: u64, volume_cap: Option<u64>) -> (FormattedDb, Vec<SeqRecord>) {
    let records = generate(&SynthConfig::nr_like(seed, residues));
    let cfg = FormatDbConfig {
        title: "nr-eq".into(),
        molecule: Molecule::Protein,
        volume_residue_cap: volume_cap,
    };
    (format_records(&records, &cfg), records)
}

fn run_mpi(
    db: &FormattedDb,
    queries: &[SeqRecord],
    nprocs: usize,
    nfrags: usize,
    platform: Platform,
) -> Vec<u8> {
    let sim = Sim::new(nprocs);
    let env = ClusterEnv::new(&sim, &platform);
    let fragment_names = stage_fragments(&env.shared, db, nfrags);
    let query_path = stage_queries(&env.shared, queries);
    let cfg = MpiBlastConfig::new(&platform, &env, fragment_names, &query_path, OUTPUT);
    sim.run(|ctx| mpiblast::run_rank(&ctx, &cfg));
    env.shared.peek(OUTPUT).expect("mpi output")
}

fn run_pio(
    db: &FormattedDb,
    queries: &[SeqRecord],
    nprocs: usize,
    nfrags: Option<usize>,
    platform: Platform,
    collective: bool,
) -> Vec<u8> {
    let sim = Sim::new(nprocs);
    let cfg = PioBlastConfig {
        num_fragments: nfrags,
        collective_output: collective,
        ..staged(&sim, &platform, db, queries)
    };
    sim.run(|ctx| pioblast::run_rank(&ctx, &cfg));
    cfg.env.shared.peek(OUTPUT).expect("pio output")
}

#[test]
fn all_three_implementations_agree() {
    let (db, records) = build_db(99, 60_000, None);
    let queries = sample_queries(&records, 1200, 5);
    let oracle = serial_report(
        &SearchParams::blastp(),
        queries.clone(),
        &db,
        ReportOptions::default(),
    )
    .expect("serial oracle");
    assert!(!oracle.is_empty());
    let mpi = run_mpi(&db, &queries, 5, 4, Platform::altix());
    let pio = run_pio(&db, &queries, 5, None, Platform::altix(), true);
    assert_eq!(
        String::from_utf8_lossy(&mpi),
        String::from_utf8_lossy(&oracle),
        "mpiBLAST differs from the serial oracle"
    );
    assert_eq!(
        String::from_utf8_lossy(&pio),
        String::from_utf8_lossy(&oracle),
        "pioBLAST differs from the serial oracle"
    );
}

#[test]
fn agreement_holds_across_worker_counts() {
    let (db, records) = build_db(7, 50_000, None);
    let queries = sample_queries(&records, 800, 3);
    let reference = run_pio(&db, &queries, 3, None, Platform::altix(), true);
    for nprocs in [2usize, 4, 9] {
        let out = run_pio(&db, &queries, nprocs, None, Platform::altix(), true);
        assert_eq!(out, reference, "pio with {nprocs} procs");
        let out = run_mpi(&db, &queries, nprocs, nprocs.max(3) - 1, Platform::altix());
        assert_eq!(out, reference, "mpi with {nprocs} procs");
    }
}

#[test]
fn agreement_holds_for_weird_fragment_counts() {
    let (db, records) = build_db(13, 50_000, None);
    let queries = sample_queries(&records, 800, 3);
    let reference = run_pio(&db, &queries, 4, None, Platform::altix(), true);
    for nfrags in [1usize, 2, 17, 40] {
        let out = run_mpi(&db, &queries, 4, nfrags, Platform::altix());
        assert_eq!(out, reference, "mpi with {nfrags} fragments");
        let out = run_pio(&db, &queries, 4, Some(nfrags), Platform::altix(), true);
        assert_eq!(out, reference, "pio with {nfrags} virtual fragments");
    }
}

#[test]
fn agreement_holds_on_multivolume_databases() {
    let (db_multi, records) = build_db(21, 60_000, Some(20_000));
    assert!(db_multi.volumes.len() >= 3, "want a multi-volume database");
    let (db_single, _) = build_db(21, 60_000, None);
    let queries = sample_queries(&records, 800, 3);
    let a = run_pio(&db_multi, &queries, 5, None, Platform::altix(), true);
    let b = run_pio(&db_single, &queries, 5, None, Platform::altix(), true);
    let c = run_mpi(&db_multi, &queries, 5, 4, Platform::altix());
    assert_eq!(a, b, "volume layout must not change output");
    assert_eq!(a, c);
}

#[test]
fn agreement_holds_on_the_nfs_platform_and_without_collectives() {
    let (db, records) = build_db(31, 40_000, None);
    let queries = sample_queries(&records, 600, 3);
    let a = run_pio(&db, &queries, 4, None, Platform::altix(), true);
    let b = run_pio(&db, &queries, 4, None, Platform::blade_cluster(), true);
    let c = run_pio(&db, &queries, 4, None, Platform::blade_cluster(), false);
    let d = run_mpi(&db, &queries, 4, 3, Platform::blade_cluster());
    assert_eq!(a, b);
    assert_eq!(a, c, "independent-write ablation must not change bytes");
    assert_eq!(a, d);
}

/// One run over [`common::small_db`] with `queries` staged in place of
/// the sampled ones, traced: the report, the killed ranks and the trace.
fn run_summaries(
    nranks: usize,
    queries: &[SeqRecord],
    plan: simcluster::FaultPlan,
    tweak: impl FnOnce(&mut PioBlastConfig),
) -> (Vec<u8>, Vec<usize>, tracelog::Trace) {
    let opts = common::Opts {
        nranks,
        plan,
        traced: true,
        ..common::Opts::default()
    };
    let done = common::run_opts(opts, |cfg| {
        cfg.query_path = stage_queries(&cfg.env.shared, queries);
        tweak(cfg);
    });
    (done.report, done.killed, done.trace.expect("traced"))
}

/// The serial oracle over [`common::small_db`] (seed 21, as
/// `Opts::default`).
fn oracle(queries: &[SeqRecord], opts: ReportOptions) -> Vec<u8> {
    let db = common::small_db(21);
    serial_report(&SearchParams::blastp(), queries.to_vec(), &db, opts).expect("serial oracle")
}

/// The master never renders a one-line summary: the workers' spans
/// render every summary byte of `report`, and none runs on rank 0.
fn workers_rendered_every_summary(
    report: &[u8],
    trace: &tracelog::Trace,
) -> Vec<(usize, u64, u64, u64)> {
    let spans = common::summary_spans(trace);
    assert!(spans.iter().all(|&(rank, ..)| rank != 0), "{spans:?}");
    assert!(
        spans.iter().all(|&(_, _, lines, _)| lines > 0),
        "an empty block: {spans:?}"
    );
    let bytes: u64 = spans.iter().map(|s| s.3).sum();
    assert_eq!(bytes, common::summary_bytes(report), "{spans:?}");
    spans
}

#[test]
fn one_worker_renders_every_summary_line_of_a_two_rank_run() {
    let db = common::small_db(21);
    let queries = common::sample_queries(&db, 3);
    let (report, _, trace) = run_summaries(2, &queries, FaultPlan::none(), |_| {});
    assert_eq!(report, oracle(&queries, ReportOptions::default()));
    let spans = workers_rendered_every_summary(&report, &trace);
    assert!(spans.iter().all(|&(rank, ..)| rank == 1), "{spans:?}");
    // The collective run writes once: one span, every query's block in it.
    assert_eq!(spans.len(), 1, "{spans:?}");
}

#[test]
fn more_workers_than_summary_lines_send_and_write_no_empty_block() {
    // One query, two summary lines, five workers: one two-line block,
    // to the worker that writes the record right after it. The other
    // four workers get no block, so render nothing.
    let db = common::small_db(21);
    let queries = common::sample_queries(&db, 1);
    let opts = ReportOptions {
        num_descriptions: 2,
        num_alignments: 1,
    };
    for recover in [false, true] {
        let (report, _, trace) = run_summaries(6, &queries, FaultPlan::none(), |cfg| {
            cfg.report = opts;
            if recover {
                cfg.schedule = FragmentSchedule::Dynamic;
                cfg.fault = FaultMode::Recover;
            }
        });
        assert_eq!(report, oracle(&queries, opts), "recover={recover}");
        let spans = workers_rendered_every_summary(&report, &trace);
        let lines: Vec<u64> = spans.iter().map(|s| s.2).collect();
        assert_eq!(lines, [2], "recover={recover}: {spans:?}");
    }
}

#[test]
fn a_long_summary_is_split_over_the_workers_in_blocks_of_64_lines_or_more() {
    // Families grown without bound give each query hundreds of hits.
    // Each query's summary goes out in blocks of at least 64 lines, up to
    // one per worker, and the lines even out over the workers.
    let mut synth = SynthConfig::nr_like(8, 120_000);
    synth.family_size_mean = 1e9;
    let db = format_records(&generate(&synth), &FormatDbConfig::protein("nr-long"));
    let queries = common::sample_queries(&db, 3);
    let opts = ReportOptions {
        num_descriptions: 500,
        num_alignments: 5,
    };
    let expected =
        serial_report(&SearchParams::blastp(), queries.clone(), &db, opts).expect("serial oracle");
    let sim = Sim::new(6);
    let tracer = tracelog::Tracer::new(6);
    sim.set_tracer(tracer.clone());
    let cfg = PioBlastConfig {
        report: opts,
        ..staged(&sim, &Platform::altix(), &db, &queries)
    };
    let out = sim.run(|ctx| pioblast::run_rank(&ctx, &cfg));
    let report = cfg.env.shared.peek(OUTPUT).expect("pio output");
    assert_eq!(report, expected);
    let trace = tracer.finish(out.elapsed.0);
    let spans = workers_rendered_every_summary(&report, &trace);
    let lines: Vec<u64> = spans.iter().map(|s| s.2).collect();
    let total: u64 = lines.iter().sum();
    assert!(
        total >= 3 * 5 * 64,
        "the fixture has long summaries: {spans:?}"
    );
    assert_eq!(spans.len(), 5, "every worker renders: {spans:?}");
    let (least, most) = (lines.iter().min(), lines.iter().max());
    assert!(
        most.zip(least).is_some_and(|(m, l)| m - l <= total / 10),
        "uneven: {spans:?}"
    );
}

#[test]
fn a_query_without_hits_keeps_its_notice_on_the_master() {
    let db = common::small_db(21);
    let mut queries = common::sample_queries(&db, 2);
    let nohit = SeqRecord::from_ascii(Molecule::Protein, "no_hits low complexity", &[b'W'; 40])
        .expect("ASCII residues");
    queries.insert(1, nohit);
    let expected = oracle(&queries, ReportOptions::default());
    let text = String::from_utf8_lossy(&expected);
    assert_eq!(
        text.matches("No hits found").count(),
        1,
        "the fixture has one hitless query"
    );
    let (report, _, trace) = run_summaries(4, &queries, FaultPlan::none(), |_| {});
    assert_eq!(report, expected);
    workers_rendered_every_summary(&report, &trace);
}

#[test]
fn every_schedule_renders_its_summaries_on_the_workers() {
    use pioblast::{QueryStreamPlan, ServiceOptions};
    let db = common::small_db(21);
    let queries = common::sample_queries(&db, 4);
    let expected = oracle(&queries, ReportOptions::default());
    type Tweak = fn(&mut PioBlastConfig);
    let rows: [(&str, Tweak); 4] = [
        ("static", |_| {}),
        ("dynamic", |cfg| cfg.schedule = FragmentSchedule::Dynamic),
        ("query_batch", |cfg| cfg.query_batch = Some(1)),
        ("recover", |cfg| {
            cfg.schedule = FragmentSchedule::Dynamic;
            cfg.fault = FaultMode::Recover;
        }),
    ];
    for (what, tweak) in rows {
        let (report, _, trace) = run_summaries(4, &queries, FaultPlan::none(), tweak);
        assert_eq!(report, expected, "{what}");
        workers_rendered_every_summary(&report, &trace);
    }
    // Service mode: each stream batch's report is its own serial report.
    let plan = QueryStreamPlan::generate(2, 3, queries.len(), 1_000, 7);
    let batches = plan
        .partition(&queries)
        .expect("the plan covers the queries");
    let opts = common::Opts {
        traced: true,
        ..common::Opts::default()
    };
    let done = common::run_opts(opts, |cfg| {
        cfg.query_path = stage_queries(&cfg.env.shared, &queries);
        cfg.schedule = FragmentSchedule::Dynamic;
        cfg.service = Some(ServiceOptions {
            plan,
            resident_bytes: u64::MAX,
            affinity: true,
        });
    });
    let mut summary_bytes = 0;
    for (b, batch) in batches.iter().enumerate() {
        let got = done
            .env
            .shared
            .peek(&format!("{OUTPUT}.q{b}"))
            .expect("a batch report");
        assert_eq!(
            got,
            oracle(batch, ReportOptions::default()),
            "stream batch {b}"
        );
        summary_bytes += common::summary_bytes(&got);
    }
    let spans = common::summary_spans(done.trace.as_ref().expect("traced"));
    assert!(spans.iter().all(|&(rank, ..)| rank != 0), "{spans:?}");
    assert_eq!(spans.iter().map(|s| s.3).sum::<u64>(), summary_bytes);
}

#[test]
fn a_kill_during_the_write_re_ships_the_summary_blocks_to_the_survivors() {
    // Kill the first worker that renders summary blocks while it
    // renders: the master re-merges, the survivors render every block
    // again, and the report is the fault-free one.
    let db = common::small_db(21);
    let queries = common::sample_queries(&db, 3);
    let expected = oracle(&queries, ReportOptions::default());
    let recover = |cfg: &mut PioBlastConfig| {
        cfg.schedule = FragmentSchedule::Dynamic;
        cfg.fault = FaultMode::Recover;
    };
    let (_, _, clean) = run_summaries(5, &queries, FaultPlan::none(), recover);
    let spans = common::summary_spans(&clean);
    let (victim, rendering_at, ..) = spans[0];
    let plan = common::watchdog().kill_at(victim, simcluster::SimTime(rendering_at + 1));
    let (report, killed, trace) = run_summaries(5, &queries, plan, recover);
    assert_eq!(killed, [victim]);
    assert_eq!(report, expected);
    let merges: Vec<u64> = trace
        .rank_events(0)
        .filter(|e| e.name == "merge")
        .map(|e| e.t)
        .collect();
    assert_eq!(merges.len(), 2, "one re-merge after the death: {merges:?}");
    let after: Vec<_> = common::summary_spans(&trace)
        .into_iter()
        .filter(|&(_, t, ..)| t > merges[1])
        .collect();
    assert!(
        after.iter().all(|&(rank, ..)| rank != victim && rank != 0),
        "{after:?}"
    );
    let bytes: u64 = after.iter().map(|s| s.3).sum();
    assert_eq!(bytes, common::summary_bytes(&report));
}
