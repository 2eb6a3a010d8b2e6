//! Ablation: what does fragment affinity buy a query-stream service?
//!
//! `pioblast serve` turns the one-shot job into a stream of query
//! batches over the same database. Without affinity every stream batch
//! re-reads every fragment from the parallel file system; with
//! `--affinity` plus a resident store the master re-grants each fragment
//! to the worker that already holds it, and the re-grant skips the read
//! entirely. This harness replays one seeded 8-batch stream (4 users)
//! through both configurations at 16 ranks on the Altix and blade/NFS
//! profiles and 64 ranks on the manycore profile, reporting throughput
//! (stream batches per virtual second), p50/p99 admission-to-seal
//! latency, and the resident store's hit rate.
//!
//! Assertions, per the service-mode roadmap item:
//! * every stream batch's report is byte-identical to running that
//!   batch's queries as its own one-shot job — affinity and residency
//!   change placement and data motion, never results;
//! * affinity-on hit rate exceeds 50% on every profile (an 8-batch
//!   stream with a capacious store misses only the cold batch);
//! * headline: on the blade/NFS profile, affinity-on throughput is at
//!   least 2x affinity-off — re-reading the database per batch is
//!   exactly the NFS bottleneck the paper's staging amortizes, and
//!   residency amortizes it across the stream;
//! * the affinity-on blade trace passes the trace-check validator.
//!
//! Results land in `BENCH_service.json` at the workspace root.

use blast_bench::report::{round4, save_bench, Value};
use blast_bench::runner::OUTPUT_PATH;
use blast_bench::workload::{default_db_residues, default_query_bytes, nr_like, Workload};
use blast_bench::{run, Program, Run};
use blast_core::seq::SeqRecord;
use mpiblast::setup::stage_queries;
use mpiblast::Platform;
use pioblast::{FragmentSchedule, PioBlastConfig, QueryStreamPlan, ServiceMetrics, ServiceOptions};
use simcluster::FaultPlan;

const NBATCHES: usize = 8;
const USERS: u32 = 4;
const MEAN_GAP_NS: u64 = 1_000_000;
const PLAN_SEED: u64 = 2005;

/// One job on the shape the service runs and their one-shot references
/// share: the dynamic schedule a service needs, independent output,
/// four slots, one fragment per worker.
fn run_shaped(
    platform: &Platform,
    ranks: usize,
    workload: &Workload,
    tweak: impl FnOnce(&mut PioBlastConfig),
) -> Run {
    run(
        Program::PioBlast,
        ranks,
        Some(ranks - 1),
        platform,
        workload,
        FaultPlan::none(),
        |cfg| {
            cfg.collective_output = false;
            cfg.schedule = FragmentSchedule::Dynamic;
            cfg.threads = 4;
            tweak(cfg);
        },
    )
}

struct ServiceRun {
    affinity: bool,
    elapsed_s: f64,
    metrics: ServiceMetrics,
    /// Per-stream-batch report bytes (`<OUTPUT_PATH>.q<b>`).
    batches: Vec<Vec<u8>>,
    trace: tracelog::Trace,
}

fn run_service(
    platform: &Platform,
    ranks: usize,
    workload: &Workload,
    plan: &QueryStreamPlan,
    affinity: bool,
) -> ServiceRun {
    let service = ServiceOptions {
        plan: plan.clone(),
        // Capacious on the affinity side (every worker's share fits);
        // zero on the baseline, which retains nothing.
        resident_bytes: if affinity { 256 << 20 } else { 0 },
        affinity,
    };
    let r = run_shaped(platform, ranks, workload, |cfg| cfg.service = Some(service));
    let batch = |b| r.env.shared.peek(&format!("{OUTPUT_PATH}.q{b}"));
    ServiceRun {
        affinity,
        elapsed_s: r.summary.total,
        metrics: ServiceMetrics::from_trace(&r.trace),
        batches: (0..plan.batches.len())
            .map(|b| batch(b).expect("per-batch report present"))
            .collect(),
        trace: r.trace,
    }
}

/// One stream batch's queries as an ordinary one-shot job: the
/// reference bytes its service-mode report must reproduce.
fn one_shot(
    platform: &Platform,
    ranks: usize,
    workload: &Workload,
    queries: &[SeqRecord],
) -> Vec<u8> {
    let r = run_shaped(platform, ranks, workload, |cfg| {
        // Replace the staged query set with this batch's.
        cfg.query_path = stage_queries(&cfg.env.shared, queries);
    });
    assert!(!r.report.is_empty(), "one-shot report present");
    r.report
}

fn main() {
    // The service shape: the full default database, *short* interactive
    // queries (a wide sample, truncated to 80 residues each), and a
    // top-hits report — what each stream batch pays for is data motion,
    // re-reading the whole database from NFS, not compute. That is
    // exactly the regime the paper's one-shot staging amortizes and
    // residency amortizes further; a compute-bound stream would bury
    // the read savings the headline measures. `--threads 4` keeps the
    // compute side honest (the service composes with the slot fork).
    let mut workload = nr_like(default_db_residues(), 4 * default_query_bytes(), 2005);
    for q in &mut workload.queries {
        q.residues.truncate(80);
    }
    workload.report = mpiblast::ReportOptions {
        num_descriptions: 25,
        num_alignments: 10,
    };
    let plan = QueryStreamPlan::generate(
        USERS,
        NBATCHES,
        workload.queries.len(),
        MEAN_GAP_NS,
        PLAN_SEED,
    );
    let parts = plan
        .partition(&workload.queries)
        .expect("plan sized to the query set");
    println!("== Ablation: query-stream service, affinity on/off ==");
    println!(
        "{:<35} {:>5} {:>8} {:>10} {:>9} {:>9} {:>8}",
        "platform", "ranks", "affinity", "queries/s", "p50(s)", "p99(s)", "hitrate"
    );
    let mut platforms = Vec::new();
    let mut blade_speedup = 0.0f64;
    let mut blade_trace_checked = false;
    let profiles = [
        (Platform::altix(), 16usize),
        (Platform::blade_cluster(), 16),
        (Platform::manycore(), 64),
    ];
    for (platform, ranks) in profiles {
        // Byte-identity references: each stream batch as its own job.
        let refs: Vec<Vec<u8>> = parts
            .iter()
            .map(|batch| one_shot(&platform, ranks, &workload, batch))
            .collect();
        let mut runs: Vec<ServiceRun> = Vec::new();
        for affinity in [false, true] {
            let r = run_service(&platform, ranks, &workload, &plan, affinity);
            println!(
                "{:<35} {:>5} {:>8} {:>10.4} {:>9.3} {:>9.3} {:>7.1}%",
                platform.name,
                ranks,
                r.affinity,
                r.metrics.queries_per_sec,
                r.metrics.p50_latency_s,
                r.metrics.p99_latency_s,
                100.0 * r.metrics.hit_rate()
            );
            assert_eq!(r.metrics.queries, NBATCHES, "every stream batch seals");
            assert_eq!(r.batches.len(), refs.len());
            for (b, (got, want)) in r.batches.iter().zip(refs.iter()).enumerate() {
                assert_eq!(
                    got, want,
                    "{}: affinity={} batch {b} diverged from its one-shot run",
                    platform.name, r.affinity
                );
            }
            runs.push(r);
        }
        let off = &runs[0];
        let on = &runs[1];
        assert_eq!(off.metrics.cache_hits, 0, "zero-cap store must not hit");
        assert!(
            on.metrics.hit_rate() > 0.5,
            "{}: affinity-on hit rate must exceed 50% (got {:.1}%)",
            platform.name,
            100.0 * on.metrics.hit_rate()
        );
        let speedup = on.metrics.queries_per_sec / off.metrics.queries_per_sec.max(1e-12);
        println!(
            "{:<35} affinity speedup {:.2}x, hit rate {:.1}%",
            platform.name,
            speedup,
            100.0 * on.metrics.hit_rate()
        );
        platforms.push(Value::object([
            ("platform", platform.name.as_str().into()),
            ("ranks", ranks.into()),
            ("affinity_speedup", round4(speedup).into()),
            (
                "runs",
                Value::array(runs.iter().map(|r| {
                    Value::object([
                        ("affinity", r.affinity.into()),
                        ("elapsed_s", r.elapsed_s.into()),
                        ("queries_per_sec", r.metrics.queries_per_sec.into()),
                        ("p50_latency_s", r.metrics.p50_latency_s.into()),
                        ("p99_latency_s", r.metrics.p99_latency_s.into()),
                        ("cache_hits", r.metrics.cache_hits.into()),
                        ("cache_misses", r.metrics.cache_misses.into()),
                        ("hit_rate", round4(r.metrics.hit_rate()).into()),
                        ("bytes_identical", true.into()),
                    ])
                })),
            ),
        ]));
        if platform.name.contains("Blade") {
            blade_speedup = speedup;
            assert!(
                blade_speedup >= 2.0,
                "{}: affinity must buy >= 2x stream throughput over per-batch \
                 re-reads (got {blade_speedup:.2}x)",
                platform.name
            );
            let chrome = tracelog::chrome::export_chrome(&on.trace, None);
            let stats = tracelog::check::validate_chrome(&chrome)
                .expect("affinity-on service trace validates");
            assert_eq!(stats.ranks, ranks);
            assert!(stats.instants > 0, "cache/service instants present");
            blade_trace_checked = true;
        }
    }
    assert!(blade_trace_checked, "blade profile missing from the sweep");
    save_bench(
        "service",
        &Value::object([
            ("bench", "ablate_service".into()),
            ("users", u64::from(USERS).into()),
            ("stream_batches", NBATCHES.into()),
            ("platforms", Value::Array(platforms)),
            (
                "blade_headline",
                Value::object([
                    ("affinity_speedup", round4(blade_speedup).into()),
                    ("bytes_identical", true.into()),
                    ("trace_validated", true.into()),
                ]),
            ),
        ]),
    );
    println!("affinity pays exactly where per-batch re-reads were the stream's bottleneck");
}
