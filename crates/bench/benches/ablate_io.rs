//! Ablation: what does each I/O-plane access class cost end to end?
//!
//! The plane services the same noncontiguous request lists (§3.3 of the
//! paper) under one of three classes, resolved from the run's context:
//! `independent` (one file-system operation per region), `sieve`
//! (per-rank hole-bridging reads and adjacent-run write coalescing),
//! and `two-phase` (the full collective exchange over the aggregators).
//! This harness holds the workload fixed on the static fault-free
//! schedule and reaches the classes the way a user does — aggregated
//! input *and* output requested (two-phase) or not (independent) — on
//! both file-system profiles at 4/8/16 processes, reporting virtual
//! elapsed time alongside the file system's physical counters and the
//! plane's per-class logical tallies.
//!
//! Expectation, matching the paper's Table 1 argument: on the blade
//! cluster's NFS (high per-op latency, low aggregate bandwidth) the
//! per-region independent pattern loses badly to two-phase at scale. On
//! the Altix XFS the two converge — bandwidth is cheap and operation
//! latency small, so access-pattern surgery buys little.
//!
//! Sieving on this static fault-free context is no longer expressible
//! (it was, while `--io-strategy` could pin it): the rows measured then
//! are kept verbatim under `pinned_strategy_history`. They are the
//! evidence the pin was retired on — the automatic choice won every row.
//!
//! Results land in `BENCH_io.json` at the workspace root. The harness
//! asserts the headline: two-phase beats independent on blade/NFS at
//! 16 processes.

use blast_bench::report::{save_bench, Value};
use blast_bench::workload::{default_db_residues, default_query_bytes, nr_like, Workload};
use blast_bench::{run, Program, Run};
use blast_core::search::SearchParams;
use mpiblast::Platform;
use parafs::IoClass;
use simcluster::FaultPlan;

const PROCS: [usize; 3] = [4, 8, 16];

/// The class a static fault-free run resolves to on both paths.
fn class_of(collective: bool) -> IoClass {
    if collective {
        IoClass::TwoPhase
    } else {
        IoClass::Independent
    }
}

/// One row of the per-class table: virtual time, the shared file
/// system's physical counters (`[bytes_read, bytes_written, data_ops,
/// meta_ops]`), the plane's logical tally for the class (`[requests,
/// bytes]`), and the critical-path `[input, search, output]` shares.
fn row(
    procs: usize,
    strategy: &str,
    elapsed_s: f64,
    fs: [u64; 4],
    class: [u64; 2],
    shares: [f64; 3],
) -> Value {
    Value::object([
        ("procs", procs.into()),
        ("strategy", strategy.into()),
        ("elapsed_s", elapsed_s.into()),
        ("bytes_read", fs[0].into()),
        ("bytes_written", fs[1].into()),
        ("data_ops", fs[2].into()),
        ("meta_ops", fs[3].into()),
        ("class_requests", class[0].into()),
        ("class_bytes", class[1].into()),
        ("share_input", shares[0].into()),
        ("share_search", shares[1].into()),
        ("share_output", shares[2].into()),
    ])
}

/// The async comparison: per side `[elapsed_s, io_path_s, share_input,
/// share_output]`.
fn async_16(strategy: &str, sync: [f64; 4], asynch: [f64; 4]) -> Value {
    let side = |[elapsed_s, io_path_s, share_input, share_output]: [f64; 4]| {
        Value::object([
            ("elapsed_s", elapsed_s.into()),
            ("io_path_s", io_path_s.into()),
            ("share_input", share_input.into()),
            ("share_output", share_output.into()),
        ])
    };
    Value::object([
        ("platform", Platform::blade_cluster().name.as_str().into()),
        ("procs", 16usize.into()),
        ("strategy", strategy.into()),
        ("sync", side(sync)),
        ("async", side(asynch)),
        ("bytes_identical", true.into()),
    ])
}

fn platform_rows(platform: &Platform, runs: Vec<Value>) -> Value {
    Value::object([
        ("platform", platform.name.as_str().into()),
        ("runs", Value::Array(runs)),
    ])
}

/// The last measurements under a pinned `--io-strategy sieve` (static
/// schedule, `FaultMode::Off`, aggregation requested), taken at the
/// commit before the flag was retired. Not reproducible any more.
/// Per row: procs, elapsed_s, bytes read, data and meta ops, the class
/// tally, the shares; every run wrote the same 3 160 647 report bytes.
type Pinned = (usize, f64, u64, [u64; 2], [u64; 2], [f64; 3]);
#[rustfmt::skip]
const PINNED_ALTIX: [Pinned; 3] = [
    (4, 5.893030, 16008770, [748, 15], [1221, 18609754], [0.002569, 0.963642, 0.033255]),
    (8, 2.603917, 16008834, [991, 31], [1237, 18609818], [0.002988, 0.963453, 0.032351]),
    (16, 1.283490, 16008962, [1155, 63], [1269, 18609946], [0.005491, 0.954156, 0.037900]),
];
#[rustfmt::skip]
const PINNED_BLADE: [Pinned; 3] = [
    (4, 6.514607, 16008770, [748, 15], [1221, 18609754], [0.028651, 0.871705, 0.098070]),
    (8, 3.050249, 16008834, [991, 31], [1237, 18609818], [0.059173, 0.821617, 0.115829]),
    (16, 1.614186, 16008962, [1155, 63], [1269, 18609946], [0.101651, 0.766086, 0.125848]),
];

fn pinned_strategy_history() -> Value {
    let platform = |platform: Platform, rows: &[Pinned]| {
        let rows = rows
            .iter()
            .map(|&(procs, elapsed_s, read, ops, class, shares)| {
                let fs = [read, 3_160_647, ops[0], ops[1]];
                row(procs, "sieve", elapsed_s, fs, class, shares)
            });
        platform_rows(&platform, rows.collect())
    };
    let platforms = [
        platform(Platform::altix(), &PINNED_ALTIX),
        platform(Platform::blade_cluster(), &PINNED_BLADE),
    ];
    Value::object([
        (
            "note",
            "--io-strategy sieve pinned on the static fault-free schedule; not expressible \
             since the plane resolves the class from context"
                .into(),
        ),
        ("platforms", Value::array(platforms)),
        (
            "async_16",
            async_16(
                "sieve",
                [1.614186, 0.367225, 0.101651, 0.125848],
                [1.480626, 0.245362, 0.125698, 0.040017],
            ),
        ),
    ])
}

fn run_one(
    platform: &Platform,
    workload: &Workload,
    procs: usize,
    collective: bool,
    io_async: bool,
) -> Run {
    // Several fragments per worker: each rank's share of every volume
    // file is a list of noncontiguous ranges, which is exactly the
    // access shape the classes differ on.
    let nfrags = Some((procs - 1) * 4);
    let plan = FaultPlan::none();
    let tweak = |cfg: &mut pioblast::PioBlastConfig| {
        cfg.collective_input = collective;
        cfg.collective_output = collective;
        cfg.io.io_async = io_async;
    };
    let r = run(
        Program::PioBlast,
        procs,
        nfrags,
        platform,
        workload,
        plan,
        tweak,
    );
    assert!(!r.report.is_empty(), "merged output present");
    r
}

/// `[input, search, output]` critical-path shares of the elapsed time.
fn shares(r: &Run) -> [f64; 3] {
    let s = &r.summary;
    [s.copy_input, s.search, s.output].map(|part| part / s.total)
}

/// `[elapsed_s, io_path_s, share_input, share_output]`: the absolute
/// input + output critical-path time is kept beside the shares so the
/// async comparison can report the raw shrink too.
fn async_side(r: &Run) -> [f64; 4] {
    let [share_input, _, share_output] = shares(r);
    let s = &r.summary;
    [s.total, s.copy_input + s.output, share_input, share_output]
}

fn main() {
    let mut workload = nr_like(default_db_residues(), default_query_bytes(), 2005);
    workload.params = SearchParams::blastp();
    println!("== Ablation: I/O plane access class, 4/8/16 processes, both profiles ==");
    println!(
        "{:<35} {:>5} {:>12} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "platform",
        "procs",
        "strategy",
        "elapsed(s)",
        "data_ops",
        "meta_ops",
        "class_rq",
        "MB_moved"
    );
    let mut platforms = Vec::new();
    for platform in [Platform::altix(), Platform::blade_cluster()] {
        let mut rows = Vec::new();
        let mut elapsed_at_16 = [0.0f64; 2];
        for procs in PROCS {
            for (j, collective) in [false, true].into_iter().enumerate() {
                let label = class_of(collective).label();
                let r = run_one(&platform, &workload, procs, collective, false);
                let c = r.env.shared.counters();
                let tally = r.env.shared.class_tally(class_of(collective));
                let elapsed_s = r.summary.total;
                println!(
                    "{:<35} {:>5} {:>12} {:>10.3} {:>10} {:>9} {:>9} {:>9.2}",
                    platform.name,
                    procs,
                    label,
                    elapsed_s,
                    c.data_ops,
                    c.meta_ops,
                    tally.requests,
                    (c.bytes_read + c.bytes_written) as f64 / 1e6
                );
                if procs == 16 {
                    elapsed_at_16[j] = elapsed_s;
                }
                let fs = [c.bytes_read, c.bytes_written, c.data_ops, c.meta_ops];
                let class = [tally.requests, tally.bytes];
                rows.push(row(procs, label, elapsed_s, fs, class, shares(&r)));
            }
        }
        platforms.push(platform_rows(&platform, rows));
        let speedup = elapsed_at_16[0] / elapsed_at_16[1].max(1e-12);
        println!(
            "{:<35} two-phase vs independent at 16 procs: {:.2}x\n",
            platform.name, speedup
        );
        if platform.name.contains("Blade") {
            assert!(
                elapsed_at_16[1] < elapsed_at_16[0],
                "{}: two-phase ({:.3}s) must beat independent ({:.3}s) at 16 processes",
                platform.name,
                elapsed_at_16[1],
                elapsed_at_16[0]
            );
        }
    }

    // Nonblocking plane: the same workload on the blade cluster's NFS
    // at 16 processes, no aggregation requested (the independent
    // class), with and without `--io-async`. A fragment's file reads
    // overlap each other, and output writes fire all their runs
    // concurrently instead of charging them serially — so the
    // critical-path time attributed to input+output must strictly
    // shrink while the merged bytes stay identical.
    println!("== Nonblocking plane: async vs sync, blade/NFS, 16 processes ==");
    let blade = Platform::blade_cluster();
    let sync_r = run_one(&blade, &workload, 16, false, false);
    let async_r = run_one(&blade, &workload, 16, false, true);
    let (sync, asynch) = (async_side(&sync_r), async_side(&async_r));
    for (label, [elapsed_s, io_path_s, share_input, share_output]) in
        [("sync", sync), ("async", asynch)]
    {
        println!(
            "{label:<8} elapsed {elapsed_s:>8.3}s  input+output path {io_path_s:>8.3}s  \
             shares in/out {share_input:.4}/{share_output:.4}"
        );
    }
    assert_eq!(
        sync_r.report, async_r.report,
        "async plane must produce byte-identical merged output"
    );
    let (sync_share, async_share) = (sync[2] + sync[3], asynch[2] + asynch[3]);
    assert!(
        async_share < sync_share,
        "input+output critical-path share must shrink with --io-async \
         (sync {sync_share:.4}, async {async_share:.4})"
    );
    assert!(
        asynch[1] < sync[1],
        "absolute input+output path time must shrink with --io-async \
         (sync {:.3}s, async {:.3}s)",
        sync[1],
        asynch[1]
    );
    save_bench(
        "io",
        &Value::object([
            ("bench", "ablate_io".into()),
            ("platforms", Value::Array(platforms)),
            ("pinned_strategy_history", pinned_strategy_history()),
            (
                "async_16",
                async_16(IoClass::Independent.label(), sync, asynch),
            ),
        ]),
    );
    println!("access-pattern surgery pays on NFS; on XFS the classes converge");
}
