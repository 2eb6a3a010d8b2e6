//! Ablation: what does the burst-buffer staging tier buy?
//!
//! With `--burst-buffer` on, aggregator output and checkpoint writes
//! are absorbed into the node's fast staging volume (striped across
//! `BurstOptions::stripe_files` backing files) and drained to the shared file
//! system asynchronously, fenced only at epoch boundaries. On a
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
//!   unstaged run's, on every platform and at every stripe count;
//! * **fault composition**: a single-worker `FaultMode::Recover` kill
//!   with checkpointing and staging on still reproduces the unstaged
//!   fault-free bytes (the fence-before-ack drain contract).
//!
//! A stripe-count sweep (1/2/4/8) on blade isolates how much of the
//! win is striping versus staging itself. The answer — the output path
//! moves by under 1 % across the sweep — is why the stripe count is a
//! library default (4) and no longer a CLI flag; the sweep stays as the
//! evidence.
//!
//! Results land in `BENCH_burst.json` at the workspace root.

use std::fmt::Write as _;

use blast_bench::runner::PHASE_PRECEDENCE;
use blast_bench::workload::{default_db_residues, default_query_bytes, nr_like};
use blast_core::search::SearchParams;
use mpiblast::setup::{stage_queries, stage_shared_db};
use mpiblast::{phases, ClusterEnv, Platform};
use pioblast::{BurstOptions, FaultMode, FragmentSchedule, IoOptions, PioBlastConfig};
use simcluster::{FaultPlan, Sim};

const NPROCS: usize = 16;
const BATCH: usize = 4;

struct Run {
    elapsed_s: f64,
    /// Absolute critical-path time in the output phase, simulated secs.
    output_path_s: f64,
    share_output: f64,
    /// `stage.put` / `stage.drain` instants observed in the trace.
    stage_puts: u64,
    stage_drains: u64,
    report: Vec<u8>,
}

fn run_one(platform: &Platform, burst: Option<BurstOptions>, kill: Option<(usize, u64)>) -> Run {
    let workload = nr_like(default_db_residues(), default_query_bytes(), 2005);
    let sim = Sim::new(NPROCS);
    let tracer = tracelog::Tracer::new(NPROCS);
    sim.set_tracer(tracer.clone());
    let env = ClusterEnv::new(&sim, platform);
    let db_alias = stage_shared_db(&env.shared, &workload.db);
    let query_path = stage_queries(&env.shared, &workload.queries);
    let faulty = kill.is_some();
    let cfg = PioBlastConfig {
        platform: platform.clone(),
        env: env.clone(),
        compute: workload.compute,
        params: SearchParams::blastp(),
        report: workload.report,
        db_alias,
        query_path,
        output_path: "out.txt".into(),
        num_fragments: Some((NPROCS - 1) * 2),
        collective_output: true,
        local_prune: false,
        query_batch: Some(BATCH),
        collective_input: false,
        schedule: if faulty {
            FragmentSchedule::Dynamic
        } else {
            Default::default()
        },
        fault: if faulty {
            FaultMode::Recover
        } else {
            Default::default()
        },
        checkpoint: faulty,
        rank_compute: None,
        threads: 1,
        io: IoOptions {
            burst,
            ..Default::default()
        },
        service: None,
    };
    let plan = match kill {
        None => FaultPlan::none(),
        Some((rank, sends)) => FaultPlan::none().kill_after_sends(rank, sends),
    };
    let outcome = sim.run_faulty(plan, |ctx| pioblast::run_rank(&ctx, &cfg));
    assert!(
        matches!(outcome.outputs[0], Some(Ok(_))),
        "master completes"
    );
    if let Some((rank, _)) = kill {
        assert_eq!(outcome.killed, vec![rank], "planned kill fires");
    }
    let wall = outcome.elapsed.since(simcluster::SimTime::ZERO).0;
    let trace = tracer.finish(wall);
    let path = tracelog::analyze::critical_path(&trace, &PHASE_PRECEDENCE);
    let tick = if wall == 0 {
        0.0
    } else {
        outcome.elapsed.as_secs_f64() / wall as f64
    };
    let count = |name: &str| trace.events.iter().filter(|e| e.name == name).count() as u64;
    Run {
        elapsed_s: outcome.elapsed.as_secs_f64(),
        output_path_s: path.get(phases::OUTPUT) as f64 * tick,
        share_output: if wall == 0 {
            0.0
        } else {
            path.get(phases::OUTPUT) as f64 / wall as f64
        },
        stage_puts: count("stage.put"),
        stage_drains: count("stage.drain"),
        report: env.shared.peek("out.txt").expect("merged report").to_vec(),
    }
}

fn main() {
    println!(
        "== Ablation: burst-buffer staging, {NPROCS} processes, query batch {BATCH}, \
         blade + multisite =="
    );
    println!(
        "{:<35} {:>10} {:>11} {:>12} {:>8} {:>7} {:>7}",
        "platform", "staging", "elapsed(s)", "out path(s)", "out%", "puts", "drains"
    );
    let mut json = String::from("{\n  \"bench\": \"ablate_burst\",\n");
    let _ = writeln!(json, "  \"procs\": {NPROCS},\n  \"query_batch\": {BATCH},");
    json.push_str("  \"platforms\": [\n");

    let mut blade_speedup = 0.0f64;
    for (pi, platform) in [Platform::blade_cluster(), Platform::multisite()]
        .into_iter()
        .enumerate()
    {
        let off = run_one(&platform, None, None);
        let on = run_one(&platform, Some(BurstOptions::default()), None);
        for (label, r) in [("off", &off), ("stripe 4", &on)] {
            println!(
                "{:<35} {:>10} {:>11.3} {:>12.4} {:>7.1}% {:>7} {:>7}",
                platform.name,
                label,
                r.elapsed_s,
                r.output_path_s,
                r.share_output * 100.0,
                r.stage_puts,
                r.stage_drains
            );
        }
        assert_eq!(
            on.report, off.report,
            "{}: staged report must be byte-identical to unstaged",
            platform.name
        );
        assert!(
            on.stage_puts > 0 && on.stage_drains > 0,
            "{}: staged run must actually stage and drain",
            platform.name
        );
        assert_eq!(off.stage_puts, 0, "unstaged run must not stage");
        let speedup = off.output_path_s / on.output_path_s.max(1e-12);
        println!(
            "{:<35} output-path speedup with staging: {:.2}x",
            platform.name, speedup
        );
        if pi == 0 {
            blade_speedup = speedup;
        }
        if pi > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "    {{\"platform\": \"{}\", \
             \"off\": {{\"elapsed_s\": {:.6}, \"output_path_s\": {:.6}, \"share_output\": {:.6}}}, \
             \"on\": {{\"elapsed_s\": {:.6}, \"output_path_s\": {:.6}, \"share_output\": {:.6}, \
             \"stage_puts\": {}, \"stage_drains\": {}}}, \
             \"output_path_speedup\": {:.4}, \"bytes_identical\": true}}",
            platform.name,
            off.elapsed_s,
            off.output_path_s,
            off.share_output,
            on.elapsed_s,
            on.output_path_s,
            on.share_output,
            on.stage_puts,
            on.stage_drains,
            speedup
        );
    }
    json.push_str("\n  ],\n");
    assert!(
        blade_speedup >= 1.5,
        "blade/NFS at {NPROCS} ranks: staging must shrink output-phase critical path \
         by >= 1.5x, measured {blade_speedup:.2}x"
    );
    let _ = writeln!(
        json,
        "  \"blade_output_path_speedup\": {blade_speedup:.4},\n  \"speedup_floor\": 1.5,"
    );

    // ---- stripe-count sweep: how much is striping vs staging? ----
    println!("\n== Stripe-count sweep, blade/NFS ==");
    let blade = Platform::blade_cluster();
    let baseline = run_one(&blade, None, None);
    json.push_str("  \"stripe_sweep\": [");
    let mut by_stripe: Vec<(usize, f64)> = Vec::new();
    for (i, stripes) in [1usize, 2, 4, 8].into_iter().enumerate() {
        let r = run_one(
            &blade,
            Some(BurstOptions {
                stripe_files: stripes,
                ..Default::default()
            }),
            None,
        );
        println!(
            "stripe_files {stripes}: elapsed {:.3}s, output path {:.4}s ({:.2}x vs unstaged)",
            r.elapsed_s,
            r.output_path_s,
            baseline.output_path_s / r.output_path_s.max(1e-12)
        );
        assert_eq!(
            r.report, baseline.report,
            "stripe_files {stripes}: report must stay byte-identical"
        );
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "\n    {{\"stripe_files\": {stripes}, \"elapsed_s\": {:.6}, \
             \"output_path_s\": {:.6}}}",
            r.elapsed_s, r.output_path_s
        );
        by_stripe.push((stripes, r.output_path_s));
    }
    json.push_str("\n  ],\n");
    assert!(
        by_stripe[2].1 <= by_stripe[0].1,
        "4-way striping must not lose to a single backing file \
         (stripe 4 {:.4}s vs stripe 1 {:.4}s)",
        by_stripe[2].1,
        by_stripe[0].1
    );

    // ---- recovery composition: kill one worker mid-distribution ----
    println!("\n== Recover kill with staging + checkpointing, blade/NFS ==");
    let faulty = run_one(&blade, Some(BurstOptions::default()), Some((5, 3)));
    println!(
        "killed rank 5: elapsed {:.3}s, output path {:.4}s, puts {} drains {}",
        faulty.elapsed_s, faulty.output_path_s, faulty.stage_puts, faulty.stage_drains
    );
    assert_eq!(
        faulty.report, baseline.report,
        "staged Recover run must reproduce the unstaged fault-free bytes"
    );
    let _ = writeln!(
        json,
        "  \"recover_kill\": {{\"victim\": 5, \"elapsed_s\": {:.6}, \
         \"stage_puts\": {}, \"stage_drains\": {}, \"bytes_identical\": true}}\n}}",
        faulty.elapsed_s, faulty.stage_puts, faulty.stage_drains
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_burst.json");
    std::fs::write(path, &json).expect("write BENCH_burst.json");
    println!("\nwrote {path}");
    println!("staging absorbs output epochs locally; NFS sees only the overlapped drains");
}
