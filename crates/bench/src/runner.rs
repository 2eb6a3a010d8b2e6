//! Run orchestration: execute one simulated mpiBLAST or pioBLAST job and
//! summarize it the way the paper reports results.

use mpiblast::setup::{stage_fragments, stage_queries, stage_shared_db};
use mpiblast::{phases, ClusterEnv, MpiBlastConfig, Platform, RankReport};
use pioblast::PioBlastConfig;
use simcluster::{Sim, SimDuration};
use tracelog::Trace;

use crate::workload::Workload;

/// Which program a run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    /// The mpiBLAST 1.2.1 baseline.
    MpiBlast,
    /// The paper's pioBLAST.
    PioBlast,
}

impl Program {
    /// Short label used in tables ("mpi"/"pio", as in the paper's charts).
    pub fn label(&self) -> &'static str {
        match self {
            Program::MpiBlast => "mpi",
            Program::PioBlast => "pio",
        }
    }
}

/// The paper-style summary of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Program executed.
    pub program: Program,
    /// Total processes (master + workers).
    pub nprocs: usize,
    /// Database fragments (physical for mpiBLAST, virtual for pioBLAST).
    pub nfrags: usize,
    /// Copy (mpiBLAST) or parallel input (pioBLAST) time, seconds.
    pub copy_input: f64,
    /// Search time, seconds (max over workers).
    pub search: f64,
    /// Result merging + output time, seconds.
    pub output: f64,
    /// Everything else, seconds.
    pub other: f64,
    /// Total wall (virtual) time, seconds.
    pub total: f64,
    /// Bytes of the final report file.
    pub output_bytes: u64,
}

impl RunSummary {
    /// Non-search time (the paper's "other" bars).
    pub fn non_search(&self) -> f64 {
        self.total - self.search
    }

    /// Fraction of total time spent searching.
    pub fn search_share(&self) -> f64 {
        if self.total == 0.0 {
            0.0
        } else {
            self.search / self.total
        }
    }
}

/// The phase precedence the paper's charts imply: an instant of wall
/// time where any rank is searching counts as search; copy/input beat
/// output (they gate it); explicit "other" charges beat only the
/// analyzer's gap fill.
pub const PHASE_PRECEDENCE: [&str; 5] = [
    phases::SEARCH,
    phases::COPY,
    phases::INPUT,
    phases::OUTPUT,
    phases::OTHER,
];

fn summarize(
    program: Program,
    nprocs: usize,
    nfrags: usize,
    trace: &Trace,
    total: SimDuration,
    output_bytes: u64,
) -> RunSummary {
    // The breakdown is the trace-derived critical path: every instant of
    // the run's wall clock is attributed to the strongest phase active
    // on any rank at that instant, so the parts partition `total`
    // exactly — no per-rank maxima, no rescaling.
    let path = tracelog::analyze::critical_path(trace, &PHASE_PRECEDENCE);
    let secs = |name: &str| path.get(name) as f64 / 1e9;
    let copy_input = secs(phases::COPY) + secs(phases::INPUT);
    let search = secs(phases::SEARCH);
    let output = secs(phases::OUTPUT);
    let total = total.as_secs_f64();
    let other = (total - copy_input - search - output).max(0.0);
    RunSummary {
        program,
        nprocs,
        nfrags,
        copy_input,
        search,
        output,
        other,
        total,
        output_bytes,
    }
}

/// The process's OS thread count (`Threads:` in `/proc/self/status`), or
/// `None` where that file does not exist. Sampled from inside rank bodies
/// it shows what a run costs in threads: one, the engine thread.
pub fn os_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// pioBLAST ablation switches (the defaults are the paper's design).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PioOptions {
    /// Two-phase collective output vs. independent per-record writes.
    pub collective_output: bool,
    /// Worker-side local pruning before formatting (paper §5).
    pub local_prune: bool,
    /// Intra-rank compute slots per worker (`--threads`).
    pub threads: usize,
}

impl Default for PioOptions {
    fn default() -> PioOptions {
        PioOptions {
            collective_output: true,
            local_prune: false,
            threads: 1,
        }
    }
}

/// Execute one run. `nfrags` is the physical fragment count for mpiBLAST
/// or the virtual fragment count for pioBLAST; `None` selects natural
/// partitioning (one fragment per worker).
pub fn run_once(
    program: Program,
    nprocs: usize,
    nfrags: Option<usize>,
    platform: &Platform,
    workload: &Workload,
) -> RunSummary {
    run_with_options(
        program,
        nprocs,
        nfrags,
        platform,
        workload,
        PioOptions::default(),
    )
}

/// [`run_once`] with explicit pioBLAST ablation options.
pub fn run_with_options(
    program: Program,
    nprocs: usize,
    nfrags: Option<usize>,
    platform: &Platform,
    workload: &Workload,
    pio_options: PioOptions,
) -> RunSummary {
    run_traced(program, nprocs, nfrags, platform, workload, pio_options).0
}

/// [`run_with_options`], additionally returning the run's merged trace
/// (the summary's phase breakdown is derived from it).
pub fn run_traced(
    program: Program,
    nprocs: usize,
    nfrags: Option<usize>,
    platform: &Platform,
    workload: &Workload,
    pio_options: PioOptions,
) -> (RunSummary, Trace) {
    let sim = Sim::new(nprocs);
    let tracer = tracelog::Tracer::new(nprocs);
    sim.set_tracer(tracer.clone());
    let env = ClusterEnv::new(&sim, platform);
    let query_path = stage_queries(&env.shared, &workload.queries);
    let nworkers = nprocs - 1;
    let output_path = "results.txt".to_string();

    let (_reports, elapsed, actual_frags) = match program {
        Program::MpiBlast => {
            let fragment_names =
                stage_fragments(&env.shared, &workload.db, nfrags.unwrap_or(nworkers));
            let actual = fragment_names.len();
            let cfg = MpiBlastConfig {
                platform: platform.clone(),
                env: env.clone(),
                compute: workload.compute,
                params: workload.params.clone(),
                report: workload.report,
                fragment_names,
                query_path,
                output_path: output_path.clone(),
                fault_detection: false,
            };
            let outcome = sim.run(|ctx| mpiblast::run_rank(&ctx, &cfg));
            let reports = outcome
                .outputs
                .into_iter()
                .map(|r| r.expect("fault-free run completes"))
                .collect();
            (reports, outcome.elapsed, actual)
        }
        Program::PioBlast => {
            let db_alias = stage_shared_db(&env.shared, &workload.db);
            let cfg = PioBlastConfig {
                platform: platform.clone(),
                env: env.clone(),
                compute: workload.compute,
                params: workload.params.clone(),
                report: workload.report,
                db_alias,
                query_path,
                output_path: output_path.clone(),
                num_fragments: nfrags,
                collective_output: pio_options.collective_output,
                local_prune: pio_options.local_prune,
                query_batch: None,
                collective_input: false,
                schedule: Default::default(),
                fault: Default::default(),
                checkpoint: false,
                rank_compute: None,
                threads: pio_options.threads,
                io: Default::default(),
                service: None,
            };
            let outcome = sim.run(|ctx| pioblast::run_rank(&ctx, &cfg));
            let reports: Vec<RankReport> = outcome
                .outputs
                .into_iter()
                .map(|r| r.expect("fault-free run completes"))
                .collect();
            (reports, outcome.elapsed, nfrags.unwrap_or(nworkers))
        }
    };
    let output_bytes = env
        .shared
        .peek(&output_path)
        .map(|b| b.len() as u64)
        .unwrap_or(0);
    let wall = elapsed.since(simcluster::SimTime::ZERO);
    let trace = tracer.finish(wall.0);
    let summary = summarize(program, nprocs, actual_frags, &trace, wall, output_bytes);
    (summary, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::nr_like;

    #[test]
    fn both_programs_run_and_produce_identical_output_sizes() {
        let w = nr_like(50_000, 1024, 11);
        let platform = Platform::altix();
        let mpi = run_once(Program::MpiBlast, 4, None, &platform, &w);
        let pio = run_once(Program::PioBlast, 4, None, &platform, &w);
        assert_eq!(mpi.output_bytes, pio.output_bytes);
        assert!(mpi.output_bytes > 0);
        assert!(mpi.total > 0.0);
        assert!(pio.total > 0.0);
        // The headline claim at even this tiny scale: pioBLAST's output
        // stage is much cheaper than mpiBLAST's.
        assert!(
            pio.output < mpi.output,
            "pio output {} vs mpi output {}",
            pio.output,
            mpi.output
        );
    }

    #[test]
    fn summaries_account_for_all_time() {
        let w = nr_like(50_000, 1024, 13);
        let s = run_once(Program::MpiBlast, 3, None, &Platform::altix(), &w);
        let sum = s.copy_input + s.search + s.output + s.other;
        assert!((sum - s.total).abs() < 1e-6);
        assert!(s.search_share() > 0.0 && s.search_share() <= 1.0);
    }

    #[test]
    fn summary_phases_are_the_trace_critical_path() {
        let w = nr_like(50_000, 1024, 17);
        for program in [Program::MpiBlast, Program::PioBlast] {
            let (s, trace) = run_traced(
                program,
                4,
                None,
                &Platform::altix(),
                &w,
                PioOptions::default(),
            );
            // The critical path partitions the engine wall clock exactly
            // (integer nanoseconds): the old proportional-scaling fixup
            // must have nothing left to do.
            let path = tracelog::analyze::critical_path(&trace, &PHASE_PRECEDENCE);
            assert_eq!(path.total(), trace.wall, "{program:?}");
            // The summary is that partition in seconds.
            let secs = |name: &str| path.get(name) as f64 / 1e9;
            assert!((s.copy_input - secs(phases::COPY) - secs(phases::INPUT)).abs() < 1e-9);
            assert!((s.search - secs(phases::SEARCH)).abs() < 1e-9);
            assert!((s.output - secs(phases::OUTPUT)).abs() < 1e-9);
            assert!((s.copy_input + s.search + s.output + s.other - s.total).abs() < 1e-9);
        }
    }
}
