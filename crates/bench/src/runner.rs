//! Run orchestration: execute one simulated mpiBLAST or pioBLAST job and
//! summarize it the way the paper reports results.

use mpiblast::setup::{stage_fragments, stage_queries, stage_shared_db};
use mpiblast::{phases, ClusterEnv, MpiBlastConfig, Platform, RankReport};
use pioblast::PioBlastConfig;
use simcluster::{FaultPlan, Sim};
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

    /// `[copy/input, search, output]` as fractions of the total time.
    pub fn shares(&self) -> [f64; 3] {
        [self.copy_input, self.search, self.output].map(|part| part / self.total)
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

/// Path on the simulated shared file system every run writes its
/// report to (service mode: `<OUTPUT_PATH>.q<batch>` per stream batch).
pub const OUTPUT_PATH: &str = "results.txt";

/// Everything one [`run`] hands back.
pub struct Run {
    /// The paper-style breakdown, derived from `trace`.
    pub summary: RunSummary,
    /// The run's merged trace.
    pub trace: Trace,
    /// Bytes at [`OUTPUT_PATH`]; empty when the job wrote none there
    /// (service mode writes one report per stream batch instead).
    pub report: Vec<u8>,
    /// What each rank reported; `None` for a rank the plan killed.
    pub ranks: Vec<Option<RankReport>>,
    /// Ranks the fault plan killed, in kill order.
    pub killed: Vec<usize>,
    /// The run's file systems: counters, class tallies, per-batch reports.
    pub env: ClusterEnv,
}

/// Execute one traced run: stage the workload on a fresh `nprocs`-rank
/// cluster of `platform`, build the program's paper-design config over
/// it, run under `plan`, and summarize from the trace.
///
/// `nfrags` is the physical fragment count for mpiBLAST or the virtual
/// fragment count for pioBLAST; `None` selects natural partitioning (one
/// fragment per worker). `tweak` changes whatever else a pioBLAST
/// ablation varies (it may also restage files through `cfg.env`); it is
/// not called for mpiBLAST. Every rank the plan did not kill must
/// complete, or the run panics naming the rank and its typed error.
pub fn run(
    program: Program,
    nprocs: usize,
    nfrags: Option<usize>,
    platform: &Platform,
    workload: &Workload,
    plan: FaultPlan,
    tweak: impl FnOnce(&mut PioBlastConfig),
) -> Run {
    let sim = Sim::new(nprocs);
    let tracer = tracelog::Tracer::new(nprocs);
    sim.set_tracer(tracer.clone());
    let env = ClusterEnv::new(&sim, platform);
    let query_path = stage_queries(&env.shared, &workload.queries);
    let nworkers = nprocs - 1;

    let (ranks, elapsed, killed, actual_frags) = match program {
        Program::MpiBlast => {
            let fragment_names =
                stage_fragments(&env.shared, &workload.db, nfrags.unwrap_or(nworkers));
            let actual = fragment_names.len();
            let cfg = MpiBlastConfig {
                compute: workload.compute,
                params: workload.params.clone(),
                report: workload.report,
                ..MpiBlastConfig::new(platform, &env, fragment_names, &query_path, OUTPUT_PATH)
            };
            let out = sim.run_faulty(plan, |ctx| mpiblast::run_rank(&ctx, &cfg));
            (completed(out.outputs), out.elapsed, out.killed, actual)
        }
        Program::PioBlast => {
            let db_alias = stage_shared_db(&env.shared, &workload.db);
            let mut cfg = PioBlastConfig {
                compute: workload.compute,
                params: workload.params.clone(),
                report: workload.report,
                num_fragments: nfrags,
                ..PioBlastConfig::new(platform, &env, &db_alias, &query_path, OUTPUT_PATH)
            };
            tweak(&mut cfg);
            let out = sim.run_faulty(plan, |ctx| pioblast::run_rank(&ctx, &cfg));
            let frags = cfg.num_fragments.unwrap_or(nworkers);
            (completed(out.outputs), out.elapsed, out.killed, frags)
        }
    };
    let report = env.shared.peek(OUTPUT_PATH).unwrap_or_default();
    // The breakdown is the trace-derived critical path: every instant of
    // the run's wall clock is attributed to the strongest phase active
    // on any rank at that instant, so the parts partition the total
    // exactly — no per-rank maxima, no rescaling.
    let wall = elapsed.since(simcluster::SimTime::ZERO);
    let trace = tracer.finish(wall.0);
    let path = tracelog::analyze::critical_path(&trace, &PHASE_PRECEDENCE);
    let secs = |name: &str| path.get(name) as f64 / 1e9;
    let copy_input = secs(phases::COPY) + secs(phases::INPUT);
    let search = secs(phases::SEARCH);
    let output = secs(phases::OUTPUT);
    let total = wall.as_secs_f64();
    let summary = RunSummary {
        program,
        nprocs,
        nfrags: actual_frags,
        copy_input,
        search,
        output,
        other: (total - copy_input - search - output).max(0.0),
        total,
        output_bytes: report.len() as u64,
    };
    Run {
        summary,
        trace,
        report,
        ranks,
        killed,
        env,
    }
}

/// Unwrap every surviving rank's result (a killed rank has no output;
/// that is the plan), panicking on the first typed error.
fn completed<E: std::fmt::Display>(
    outputs: Vec<Option<Result<RankReport, E>>>,
) -> Vec<Option<RankReport>> {
    let unwrap = |(rank, r): (usize, Option<Result<RankReport, E>>)| {
        r.map(|r| r.unwrap_or_else(|e| panic!("rank {rank} failed: {e}")))
    };
    outputs.into_iter().enumerate().map(unwrap).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::nr_like;
    use pioblast::{FaultMode, FragmentSchedule};

    /// The paper-design run: natural partitioning, no faults, no tweak.
    fn plain(program: Program, nprocs: usize, w: &Workload) -> Run {
        let platform = Platform::altix();
        run(
            program,
            nprocs,
            None,
            &platform,
            w,
            FaultPlan::none(),
            |_| {},
        )
    }

    #[test]
    fn both_programs_run_and_produce_identical_output_sizes() {
        let w = nr_like(50_000, 1024, 11);
        let mpi = plain(Program::MpiBlast, 4, &w).summary;
        let pio = plain(Program::PioBlast, 4, &w).summary;
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
        let s = plain(Program::MpiBlast, 3, &w).summary;
        let sum = s.copy_input + s.search + s.output + s.other;
        assert!((sum - s.total).abs() < 1e-6);
        assert!(s.search_share() > 0.0 && s.search_share() <= 1.0);
    }

    #[test]
    fn summary_phases_are_the_trace_critical_path() {
        let w = nr_like(50_000, 1024, 17);
        for program in [Program::MpiBlast, Program::PioBlast] {
            let Run {
                summary: s, trace, ..
            } = plain(program, 4, &w);
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

    #[test]
    fn a_planned_kill_under_recover_returns_the_fault_free_bytes_and_the_victim() {
        let w = nr_like(50_000, 1024, 19);
        let platform = Platform::altix();
        let recover = |plan: FaultPlan| {
            run(Program::PioBlast, 4, Some(9), &platform, &w, plan, |cfg| {
                cfg.collective_output = false;
                cfg.schedule = FragmentSchedule::Dynamic;
                cfg.fault = FaultMode::Recover;
            })
        };
        let clean = recover(FaultPlan::none());
        let faulty = recover(FaultPlan::none().kill_after_sends(2, 2));
        assert!(clean.killed.is_empty());
        assert_eq!(faulty.killed, vec![2]);
        assert!(!clean.report.is_empty());
        assert_eq!(faulty.report, clean.report);
        assert_eq!(faulty.summary.nfrags, 9);
        assert_eq!(faulty.summary.output_bytes, clean.report.len() as u64);
        // The plain design writes the same bytes, and its file system
        // counters come back through the environment.
        let plain = plain(Program::PioBlast, 4, &w);
        assert_eq!(plain.report, clean.report);
        assert!(plain.env.shared.counters().bytes_written >= clean.report.len() as u64);
    }
}
