//! Scale sweep: 128/256/512 simulated ranks on the fiber-based DES engine.
//!
//! Ranks are fibers so that rank count stops being an OS thread count:
//! 512 simulated ranks run on the run's one engine thread. This harness
//! is the payoff measurement. It sweeps 128/256/512 ranks across four
//! platform profiles — the two paper machines (Altix, blade cluster)
//! plus the two extrapolated profiles (`objectstore`, `multisite`) —
//! with the database synthesized per scale by the
//! multi-volume size sweep (`MultiVolumeConfig::size_sweep`), so bigger
//! clusters search proportionally bigger, more volume-skewed databases.
//!
//! Two contracts are asserted, not just reported:
//!
//! * **thread economy** — a second 512-rank blade run, whose rank
//!   bodies sample `/proc/self/status` `Threads:` (the one recipe here
//!   that is not `blast_bench::run`, which has no rank-body hook), must
//!   peak at the count before the run plus one (the engine thread) and
//!   reproduce the sweep's report;
//! * **rank-count invariance** — the 512-rank blade report must be
//!   byte-identical to a 16-rank run over the same fragments.
//!
//! The 128- vs 512-rank Altix traces are then fed through the
//! `trace-diff` profiler, which must name the diverging lane/phase.
//!
//! A second, nucleotide-shaped sweep (`MultiVolumeConfig::dna_sweep`,
//! blastn parameters, long records, few queries) runs at 128/256 ranks
//! to exercise the bytes-per-operation regime the protein sweep does
//! not.
//!
//! Results land in `BENCH_scale.json` at the workspace root.

use std::sync::atomic::{AtomicUsize, Ordering};

use blast_bench::report::{save_bench, Value};
use blast_bench::runner::{os_thread_count, OUTPUT_PATH};
use blast_bench::workload::{scaled_params, Workload};
use blast_bench::{run, Program, Run};
use blast_core::search::SearchParams;
use blast_core::seq::SeqRecord;
use mpiblast::setup::{stage_queries, stage_shared_db};
use mpiblast::{ClusterEnv, ComputeModel, Platform};
use pioblast::PioBlastConfig;
use seqfmt::sampler::sample_queries;
use seqfmt::synth::MultiVolumeConfig;
use simcluster::{FaultPlan, Sim};
use tracelog::diff::{diff_profiles, profile_chrome, render_diff};

const SCALES: [usize; 3] = [128, 256, 512];
const SEED: u64 = 2005;

/// A per-scale workload — a multi-volume database sized to the rank
/// count, and queries sampled from it — with its volume count and size.
struct ScaleWorkload {
    workload: Workload,
    nvolumes: usize,
    residues: u64,
}

fn scale_workload(
    mv: MultiVolumeConfig,
    title: &str,
    query_bytes: u64,
    query_seed: u64,
    params: SearchParams,
) -> ScaleWorkload {
    let per_volume = mv.generate_volumes();
    let flat: Vec<SeqRecord> = per_volume.iter().flatten().cloned().collect();
    ScaleWorkload {
        workload: Workload {
            db: mv.format(title),
            queries: sample_queries(&flat, query_bytes, query_seed),
            params,
            report: scaled_params().1,
            compute: ComputeModel::modeled(),
        },
        nvolumes: mv.volumes.len(),
        residues: mv.volumes.iter().map(|v| v.residues).sum(),
    }
}

/// The protein sweep: the database grows with the cluster, ~1200
/// residues per rank (a few records per natural fragment even at 512
/// ranks), split into more volumes (and therefore more
/// length-distribution skew) at larger scales.
fn protein_workload(nranks: usize) -> ScaleWorkload {
    let mv = MultiVolumeConfig::size_sweep(SEED, nranks / 64 + 2, nranks as u64 * 1200);
    scale_workload(mv, "nr-scale", 1024, SEED ^ 0x5eed, scaled_params().0)
}

/// The nt-shaped workload: a nucleotide multi-volume sweep
/// (`MultiVolumeConfig::dna_sweep`) with long records and *few*
/// queries — nucleotide databases put far more bytes behind each
/// header, so this profile stresses bytes-per-operation where the
/// protein sweep stresses operation count. ~4800 bases per rank: the
/// same fragment count carries ~4x the protein sweep's bytes.
fn dna_workload(nranks: usize) -> ScaleWorkload {
    let mv = MultiVolumeConfig::dna_sweep(SEED ^ 0xd4a, nranks / 64 + 2, nranks as u64 * 4800);
    // Few, long queries: ~2 KiB of sampled bases is one or two records.
    let w = scale_workload(mv, "nt-scale", 2048, SEED ^ 0xd4a, SearchParams::blastn());
    let nqueries = w.workload.queries.len();
    assert!(
        nqueries <= 6,
        "nt-shaped profile wants few queries, sampled {nqueries}"
    );
    w
}

/// One pioBLAST run at `nranks` ranks: prints its table row and returns
/// it with its JSON row.
fn run_scale(platform: &Platform, w: &Workload, nranks: usize, nfrags: usize) -> (Run, Value) {
    let r = run(
        Program::PioBlast,
        nranks,
        Some(nfrags),
        platform,
        w,
        FaultPlan::none(),
        |_| {},
    );
    assert!(!r.report.is_empty(), "report");
    let [input, search, output] = r.summary.shares();
    println!(
        "{:<35} {:>6} {:>7} {:>11.3} {:>7.1}% {:>7.1}% {:>7.1}%",
        platform.name,
        nranks,
        nfrags,
        r.summary.total,
        input * 100.0,
        search * 100.0,
        output * 100.0
    );
    let row = Value::object([
        ("platform", platform.name.as_str().into()),
        ("elapsed_s", r.summary.total.into()),
        ("share_input", input.into()),
        ("share_search", search.into()),
        ("share_output", output.into()),
        ("output_bytes", r.report.len().into()),
    ]);
    (r, row)
}

/// The same job as [`run_scale`], untraced, with every rank body
/// sampling the process's OS thread count on entry. Returns the peak
/// and the report bytes.
fn run_sampling_threads(
    platform: &Platform,
    w: &Workload,
    nranks: usize,
    nfrags: usize,
) -> (usize, Vec<u8>) {
    let sim = Sim::new(nranks);
    let env = ClusterEnv::new(&sim, platform);
    let query_path = stage_queries(&env.shared, &w.queries);
    let db_alias = stage_shared_db(&env.shared, &w.db);
    let cfg = PioBlastConfig {
        params: w.params.clone(),
        report: w.report,
        num_fragments: Some(nfrags),
        ..PioBlastConfig::new(platform, &env, &db_alias, &query_path, OUTPUT_PATH)
    };
    let peak = AtomicUsize::new(0);
    let outcome = sim.run(|ctx| {
        if let Some(n) = os_thread_count() {
            peak.fetch_max(n, Ordering::Relaxed);
        }
        pioblast::run_rank(&ctx, &cfg)
    });
    for r in &outcome.outputs {
        r.as_ref().expect("rank completed");
    }
    let report = env.shared.peek(OUTPUT_PATH).expect("report");
    (peak.into_inner(), report)
}

fn print_header(title: &str) {
    println!("{title}");
    println!(
        "{:<35} {:>6} {:>7} {:>11} {:>8} {:>8} {:>8}",
        "platform", "ranks", "frags", "elapsed(s)", "input%", "search%", "output%"
    );
}

/// Run `w` on each platform at `nranks` ranks over natural fragments.
fn run_platforms(platforms: &[Platform], w: &Workload, nranks: usize) -> (Vec<Run>, Vec<Value>) {
    let each = |platform| run_scale(platform, w, nranks, nranks - 1);
    platforms.iter().map(each).unzip()
}

fn main() {
    let threads_before = os_thread_count();
    let platforms = [
        Platform::altix(),
        Platform::blade_cluster(),
        Platform::objectstore(),
        Platform::multisite(),
    ];
    print_header("== Scale sweep: 128/256/512 ranks, four platforms ==");
    // Every run is kept for the cross-cutting assertions below.
    let (mut scales, mut runs) = (Vec::new(), Vec::new());
    for nranks in SCALES {
        let w = protein_workload(nranks);
        let (at_scale, rows) = run_platforms(&platforms, &w.workload, nranks);
        runs.push(at_scale);
        scales.push(Value::object([
            ("ranks", nranks.into()),
            ("nfrags", (nranks - 1).into()),
            ("db_residues", w.residues.into()),
            ("db_volumes", w.nvolumes.into()),
            ("runs", Value::Array(rows)),
        ]));
    }

    // ---- nt-shaped sweep: long sequences, few queries ----
    print_header("\n== DNA sweep: nucleotide-shaped volumes (long records, few queries) ==");
    let mut dna_sweep = Vec::new();
    for nranks in [128usize, 256] {
        let w = dna_workload(nranks);
        let (_, rows) = run_platforms(&platforms[..2], &w.workload, nranks);
        dna_sweep.push(Value::object([
            ("ranks", nranks.into()),
            ("nfrags", (nranks - 1).into()),
            ("db_bases", w.residues.into()),
            ("db_volumes", w.nvolumes.into()),
            ("queries", w.workload.queries.len().into()),
            ("runs", Value::Array(rows)),
        ]));
    }

    // ---- 512-rank blade: thread economy + rank-count invariance ----
    let (blade, b512) = (&platforms[1], &runs[2][1]);
    let w512 = protein_workload(512).workload;
    let (peak, sampled_report) = run_sampling_threads(blade, &w512, 512, 511);
    if let Some(before) = threads_before {
        assert_eq!(
            peak,
            before + 1,
            "512-rank blade run peaked at {peak} OS threads; {before} before the run \
             plus the engine thread allows {}",
            before + 1
        );
    }
    assert_eq!(
        sampled_report, b512.report,
        "the thread-sampling run diverged from the sweep's 512-rank blade report"
    );
    print_header("\n== 16-rank reference over the 512-rank blade run's fragments ==");
    let (ref16, _) = run_scale(blade, &w512, 16, 511);
    assert_eq!(
        b512.report, ref16.report,
        "512-rank blade report diverged from the 16-rank run on the same fragments"
    );
    println!(
        "512-rank blade: peak OS threads {peak}, report identical to 16 ranks \
         on 511 fragments"
    );

    // ---- trace-diff across scales: where does the extra time go? ----
    let altix_profile = |scale: usize| {
        let chrome = tracelog::chrome::export_chrome(&runs[scale][0].trace, None);
        profile_chrome(&chrome).expect("altix profile")
    };
    let d = diff_profiles(&altix_profile(0), &altix_profile(2));
    assert!(
        !d.cluster.is_empty(),
        "128 vs 512 ranks must diverge in at least one lane/phase"
    );
    let top = &d.cluster[0];
    println!("\ntrace-diff, Altix 128 vs 512 ranks (top rows):");
    for line in render_diff(&d, 5).lines() {
        println!("  {line}");
    }

    save_bench(
        "scale",
        &Value::object([
            ("bench", "ablate_scale".into()),
            ("scales", Value::Array(scales)),
            ("dna_sweep", Value::Array(dna_sweep)),
            (
                "blade_512",
                Value::object([
                    ("peak_os_threads", peak.into()),
                    ("report_matches_16_ranks", true.into()),
                ]),
            ),
            (
                "trace_diff_128_vs_512",
                Value::object([
                    ("top_lane", top.lane.as_str().into()),
                    ("top_phase", top.name.as_str().into()),
                    ("a_ns", top.a_ns.into()),
                    ("b_ns", top.b_ns.into()),
                ]),
            ),
        ]),
    );
}
