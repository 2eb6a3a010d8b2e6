//! Run one job: a workload's program, on its inputs, inside the DES.
//!
//! The job is what a user of the system runs. It receives only the
//! generated inputs (a shared-file-system image) and returns the report
//! bytes plus the counters the program already exports.

use std::time::Instant;

use blast_core::search::SearchStats;
use mpiblast::{ClusterEnv, ComputeModel, MpiBlastConfig};
use parafs::{ClassTally, FsCounters, IoClass};
use pioblast::{
    BurstOptions, FaultMode, FragmentSchedule, IoOptions, PioBlastConfig, ServiceOptions,
};
use simcluster::engine::EngineStats;
use simcluster::{FaultPlan, Sim, SimTime};
use tracelog::Tracer;

use crate::workloads::{self, Mode, Spec};

/// Engine worker-pool width every job and probe runs at. Fixed so host
/// numbers do not depend on the machine's core count.
pub const POOL: usize = 2;

const OUTPUT_PATH: &str = "report.txt";

/// What a job needs besides its [`Spec`].
pub struct JobInput<'a> {
    /// Shared-file-system image: `(path, bytes)`. Owned, and moved onto
    /// the simulated file system, so the job's process holds one copy of
    /// its database, as a real run does.
    pub image: Vec<(String, Vec<u8>)>,
    /// Database alias path in the image.
    pub db_alias: &'a str,
    /// Fragment base names in the image (mpiBLAST).
    pub fragment_names: &'a [String],
    /// Query FASTA path in the image.
    pub query_path: &'a str,
    /// Number of queries (sizes the `serve` stream plan).
    pub nqueries: usize,
    /// Workload seed (seeds the `serve` stream plan).
    pub seed: u64,
}

/// The sums of one file-system tier's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCounters {
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Data operations.
    pub data_ops: u64,
    /// Metadata operations.
    pub meta_ops: u64,
}

impl TierCounters {
    fn add(&mut self, c: FsCounters) {
        self.bytes_read += c.bytes_read;
        self.bytes_written += c.bytes_written;
        self.data_ops += c.data_ops;
        self.meta_ops += c.meta_ops;
    }
}

/// Everything a finished job hands back.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Host seconds from `Sim::with_pool` to report bytes in hand.
    pub wall_s: f64,
    /// DES makespan in virtual nanoseconds.
    pub virt_ns: u64,
    /// Engine counters.
    pub engine: EngineStats,
    /// Report bytes: one, or one per stream batch for `serve`.
    pub reports: Vec<Vec<u8>>,
    /// A typed error the job should not have returned.
    pub error: Option<String>,
    /// Search-effort counters summed over ranks.
    pub search: SearchStats,
    /// Shared file system.
    pub shared: TierCounters,
    /// Per-rank local disks, summed.
    pub local: TierCounters,
    /// Per-rank staging volumes, summed.
    pub staging: TierCounters,
    /// Requests per I/O class on the shared file system
    /// (independent, sieved, two-phase).
    pub classes: [ClassTally; 3],
    /// Ranks the fault plan killed.
    pub killed: Vec<usize>,
}

impl JobOutcome {
    /// The parts of the outcome that must be identical between any two
    /// runs of the same inputs, traced or not: everything but host time.
    pub fn deterministic_part(&self) -> JobOutcome {
        JobOutcome {
            wall_s: 0.0,
            ..self.clone()
        }
    }
}

/// Run `spec`'s job once. With `tracer` set the run is traced; the
/// caller finishes the tracer with the outcome's `virt_ns`.
pub fn run(spec: &Spec, input: JobInput<'_>, tracer: Option<&Tracer>) -> JobOutcome {
    let start = Instant::now();
    let platform = spec.machine.platform();
    let sim = Sim::with_pool(spec.ranks, POOL);
    if let Some(t) = tracer {
        sim.set_tracer(t.clone());
    }
    let env = ClusterEnv::new(&sim, &platform);
    for (path, bytes) in input.image {
        env.shared.preload(&path, bytes);
    }
    let (params, report) = workloads::scaled_params();
    let mut plan = FaultPlan::none();
    let mut nreports = None;

    type RankResult = Result<mpiblast::RankReport, String>;
    let result = match spec.mode {
        Mode::Mpi => {
            let cfg = MpiBlastConfig {
                platform,
                env: env.clone(),
                compute: ComputeModel::modeled(),
                params,
                report,
                fragment_names: input.fragment_names.to_vec(),
                query_path: input.query_path.to_string(),
                output_path: OUTPUT_PATH.to_string(),
                fault_detection: false,
            };
            sim.try_run_faulty(plan, |ctx| -> RankResult {
                mpiblast::run_rank(&ctx, &cfg).map_err(|e| e.to_string())
            })
        }
        Mode::Pio | Mode::Serve | Mode::Recover => {
            let mut cfg = PioBlastConfig {
                platform,
                env: env.clone(),
                compute: ComputeModel::modeled(),
                params,
                report,
                db_alias: input.db_alias.to_string(),
                query_path: input.query_path.to_string(),
                output_path: OUTPUT_PATH.to_string(),
                num_fragments: None,
                collective_output: true,
                local_prune: false,
                query_batch: None,
                collective_input: false,
                schedule: FragmentSchedule::Static,
                fault: FaultMode::Off,
                checkpoint: false,
                rank_compute: None,
                threads: 1,
                io: IoOptions::default(),
                service: None,
            };
            match spec.mode {
                Mode::Serve => {
                    let plan = workloads::serve_plan(input.nqueries, input.seed);
                    nreports = Some(plan.batches.len());
                    cfg.schedule = FragmentSchedule::Dynamic;
                    cfg.collective_output = false;
                    cfg.io.io_async = true;
                    cfg.service = Some(ServiceOptions {
                        plan,
                        resident_bytes: workloads::SERVE_RESIDENT_BYTES,
                        affinity: true,
                    });
                }
                Mode::Recover => {
                    let (victim, sends) = workloads::RECOVER_KILL;
                    plan = plan.kill_after_sends(victim, sends);
                    cfg.schedule = FragmentSchedule::Dynamic;
                    cfg.fault = FaultMode::Recover;
                    cfg.checkpoint = true;
                    cfg.io.io_async = true;
                    cfg.io.burst = Some(BurstOptions::default());
                }
                Mode::Pio | Mode::Mpi => {}
            }
            sim.try_run_faulty(plan, |ctx| -> RankResult {
                pioblast::run_rank(&ctx, &cfg).map_err(|e| e.to_string())
            })
        }
    };

    let mut out = JobOutcome {
        wall_s: 0.0,
        virt_ns: 0,
        engine: EngineStats::default(),
        reports: Vec::new(),
        error: None,
        search: SearchStats::default(),
        shared: TierCounters::default(),
        local: TierCounters::default(),
        staging: TierCounters::default(),
        classes: [ClassTally::default(); 3],
        killed: Vec::new(),
    };
    match result {
        Err(e) => out.error = Some(format!("engine: {e}")),
        Ok(outcome) => {
            out.virt_ns = outcome.elapsed.since(SimTime::ZERO).0;
            out.engine = outcome.stats;
            out.killed = outcome.killed;
            for (rank, r) in outcome.outputs.iter().enumerate() {
                match r {
                    Some(Ok(report)) => out.search.merge(&report.search_stats),
                    Some(Err(e)) if out.error.is_none() => {
                        out.error = Some(format!("rank {rank}: {e}"))
                    }
                    // A killed rank has no output; that is the plan.
                    Some(Err(_)) | None => {}
                }
            }
            let paths: Vec<String> = match nreports {
                None => vec![OUTPUT_PATH.to_string()],
                Some(n) => (0..n).map(|b| format!("{OUTPUT_PATH}.q{b}")).collect(),
            };
            for path in paths {
                match env.shared.peek(&path) {
                    Ok(bytes) => out.reports.push(bytes),
                    Err(e) if out.error.is_none() => {
                        out.error = Some(format!("no report at {path}: {e}"))
                    }
                    Err(_) => {}
                }
            }
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();

    out.shared.add(env.shared.counters());
    for fs in &env.locals {
        out.local.add(fs.counters());
    }
    for fs in &env.stagings {
        out.staging.add(fs.counters());
    }
    for (slot, class) in out.classes.iter_mut().zip(IoClass::ALL) {
        *slot = env.shared.class_tally(class);
    }
    out
}

/// Whether the job did what its workload promises: no unexpected error,
/// the planned kill (and only it) fired, and every report equals the
/// oracle byte for byte. Returns the first discrepancy.
pub fn verify(spec: &Spec, outcome: &JobOutcome, oracle: &[Vec<u8>]) -> Result<(), String> {
    if let Some(e) = &outcome.error {
        return Err(e.clone());
    }
    let expected_kills: Vec<usize> = match spec.mode {
        Mode::Recover => vec![workloads::RECOVER_KILL.0],
        _ => Vec::new(),
    };
    if outcome.killed != expected_kills {
        return Err(format!(
            "killed ranks {:?}, planned {:?}",
            outcome.killed, expected_kills
        ));
    }
    if outcome.reports.len() != oracle.len() {
        return Err(format!(
            "{} reports, oracle has {}",
            outcome.reports.len(),
            oracle.len()
        ));
    }
    for (b, (got, want)) in outcome.reports.iter().zip(oracle).enumerate() {
        if got != want {
            let at = got
                .iter()
                .zip(want)
                .position(|(a, b)| a != b)
                .unwrap_or(got.len().min(want.len()));
            return Err(format!(
                "report {b} differs from the serial oracle at byte {at} ({} vs {} bytes)",
                got.len(),
                want.len()
            ));
        }
    }
    Ok(())
}
