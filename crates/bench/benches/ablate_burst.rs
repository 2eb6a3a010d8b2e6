//! Ablation: what does the burst-buffer staging tier buy?
//!
//! With `--burst-buffer` on, aggregator output and checkpoint writes
//! are absorbed into the node's fast staging volume (striped across
//! four backing files) and drained to the shared file system
//! asynchronously, fenced only at epoch boundaries. On a
//! platform whose shared file system is slow relative to its staging
//! devices — the blade cluster's NFS is the paper's motivating case —
//! that converts the output phase's synchronous shared-FS writes into
//! cheap local absorbs whose drains overlap the next batch's searches.
//!
//! The harness runs 16 processes over a multi-batch query stream
//! (`query_batch` = 4, so there are output epochs left to overlap)
//! and measures the critical-path time attributed to the output phase
//! with staging off and on, on both the blade cluster and the
//! multisite profile. Three contracts are asserted, not just reported:
//!
//! * **the headline**: on blade/NFS at 16 ranks, staging with 4-way
//!   striping shrinks output-phase critical-path time by ≥ 1.5x;
//! * **byte identity**: every staged run's merged report matches the
//!   unstaged run's, on every platform;
//! * **fault composition**: a single-worker `FaultMode::Recover` kill
//!   with checkpointing and staging on still reproduces the unstaged
//!   fault-free bytes (the fence-before-ack drain contract).
//!
//! Results land in `BENCH_burst.json` at the workspace root.

use blast_bench::report::{round4, save_bench, Value};
use blast_bench::workload::{default_db_residues, default_query_bytes, nr_like, Workload};
use blast_bench::{run, Program, Run};
use blast_core::search::SearchParams;
use mpiblast::Platform;
use pioblast::{BurstOptions, FaultMode, FragmentSchedule};
use simcluster::FaultPlan;

const NPROCS: usize = 16;
const BATCH: usize = 4;

/// A run with the `stage.put` / `stage.drain` instants observed in its
/// trace. The summary's `output` is the absolute critical-path time in
/// the output phase, simulated seconds.
struct Staged {
    run: Run,
    puts: u64,
    drains: u64,
}

impl Staged {
    /// `elapsed_s`, `output_path_s`, `share_output`.
    fn timing(&self) -> Vec<(&'static str, Value)> {
        let s = &self.run.summary;
        vec![
            ("elapsed_s", s.total.into()),
            ("output_path_s", s.output.into()),
            ("share_output", s.shares()[2].into()),
        ]
    }
}

fn run_one(
    platform: &Platform,
    workload: &Workload,
    burst: Option<BurstOptions>,
    kill: Option<(usize, u64)>,
) -> Staged {
    let plan = match kill {
        None => FaultPlan::none(),
        Some((rank, sends)) => FaultPlan::none().kill_after_sends(rank, sends),
    };
    let run = run(
        Program::PioBlast,
        NPROCS,
        Some((NPROCS - 1) * 2),
        platform,
        workload,
        plan,
        |cfg| {
            cfg.query_batch = Some(BATCH);
            cfg.io.burst = burst;
            if kill.is_some() {
                cfg.schedule = FragmentSchedule::Dynamic;
                cfg.fault = FaultMode::Recover;
                cfg.checkpoint = true;
            }
        },
    );
    let victims: Vec<usize> = kill.iter().map(|&(rank, _)| rank).collect();
    assert_eq!(run.killed, victims, "exactly the planned kill fires");
    assert!(!run.report.is_empty(), "merged report");
    let count = |name: &str| run.trace.events.iter().filter(|e| e.name == name).count() as u64;
    Staged {
        puts: count("stage.put"),
        drains: count("stage.drain"),
        run,
    }
}

fn main() {
    let mut workload = nr_like(default_db_residues(), default_query_bytes(), 2005);
    workload.params = SearchParams::blastp();
    println!(
        "== Ablation: burst-buffer staging, {NPROCS} processes, query batch {BATCH}, \
         blade + multisite =="
    );
    println!(
        "{:<35} {:>10} {:>11} {:>12} {:>8} {:>7} {:>7}",
        "platform", "staging", "elapsed(s)", "out path(s)", "out%", "puts", "drains"
    );

    let mut platforms = Vec::new();
    let mut blade_speedup = 0.0f64;
    for (pi, platform) in [Platform::blade_cluster(), Platform::multisite()]
        .into_iter()
        .enumerate()
    {
        let off = run_one(&platform, &workload, None, None);
        let on = run_one(&platform, &workload, Some(BurstOptions::default()), None);
        for (label, r) in [("off", &off), ("stripe 4", &on)] {
            let s = &r.run.summary;
            println!(
                "{:<35} {:>10} {:>11.3} {:>12.4} {:>7.1}% {:>7} {:>7}",
                platform.name,
                label,
                s.total,
                s.output,
                s.shares()[2] * 100.0,
                r.puts,
                r.drains
            );
        }
        assert_eq!(
            on.run.report, off.run.report,
            "{}: staged report must be byte-identical to unstaged",
            platform.name
        );
        assert!(
            on.puts > 0 && on.drains > 0,
            "{}: staged run must actually stage and drain",
            platform.name
        );
        assert_eq!(off.puts, 0, "unstaged run must not stage");
        let speedup = off.run.summary.output / on.run.summary.output.max(1e-12);
        println!(
            "{:<35} output-path speedup with staging: {:.2}x",
            platform.name, speedup
        );
        if pi == 0 {
            blade_speedup = speedup;
        }
        let mut staged = on.timing();
        staged.push(("stage_puts", on.puts.into()));
        staged.push(("stage_drains", on.drains.into()));
        platforms.push(Value::object([
            ("platform", platform.name.as_str().into()),
            ("off", Value::object(off.timing())),
            ("on", Value::object(staged)),
            ("output_path_speedup", round4(speedup).into()),
            ("bytes_identical", true.into()),
        ]));
    }
    assert!(
        blade_speedup >= 1.5,
        "blade/NFS at {NPROCS} ranks: staging must shrink output-phase critical path \
         by >= 1.5x, measured {blade_speedup:.2}x"
    );

    // ---- recovery composition: kill one worker mid-distribution ----
    println!("\n== Recover kill with staging + checkpointing, blade/NFS ==");
    let blade = Platform::blade_cluster();
    let baseline = run_one(&blade, &workload, None, None).run;
    let burst = Some(BurstOptions::default());
    let faulty = run_one(&blade, &workload, burst, Some((5, 3)));
    let elapsed_s = faulty.run.summary.total;
    println!(
        "killed rank 5: elapsed {elapsed_s:.3}s, output path {:.4}s, puts {} drains {}",
        faulty.run.summary.output, faulty.puts, faulty.drains
    );
    assert_eq!(
        faulty.run.report, baseline.report,
        "staged Recover run must reproduce the unstaged fault-free bytes"
    );

    save_bench(
        "burst",
        &Value::object([
            ("bench", "ablate_burst".into()),
            ("procs", NPROCS.into()),
            ("query_batch", BATCH.into()),
            ("platforms", Value::Array(platforms)),
            ("blade_output_path_speedup", round4(blade_speedup).into()),
            ("speedup_floor", 1.5.into()),
            (
                "recover_kill",
                Value::object([
                    ("victim", 5usize.into()),
                    ("elapsed_s", elapsed_s.into()),
                    ("stage_puts", faulty.puts.into()),
                    ("stage_drains", faulty.drains.into()),
                    ("bytes_identical", true.into()),
                ]),
            ),
        ]),
    );
    println!("staging absorbs output epochs locally; NFS sees only the overlapped drains");
}
