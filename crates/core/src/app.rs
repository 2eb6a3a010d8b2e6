//! The pioBLAST run: dynamic virtual partitioning, parallel input,
//! worker-side result caching, metadata-only merging, and collective
//! output (paper §3), plus the §5 extensions (query batching, local
//! pruning, output-mode ablation).
//!
//! Differences from the mpiBLAST baseline, stage by stage:
//!
//! | stage   | mpiBLAST                              | pioBLAST (here) |
//! |---------|----------------------------------------|-----------------|
//! | prepare | pre-partitioned physical fragments     | none needed |
//! | input   | copy fragment files, re-read in search | each worker `read_at`s its byte ranges of the shared files |
//! | search  | I/O embedded via mmap                  | pure in-memory search |
//! | results | full alignments to master, serialized per-alignment sequence fetch | metadata only; records formatted and cached where the data lives |
//! | output  | master formats and writes everything   | master assigns offsets; workers write collectively via MPI-IO |
//!
//! **Query batching** (paper §5: "query batching and pipelining that
//! adjust to the amount of available memory"): with
//! [`PioBlastConfig::query_batch`] set, the query set is processed in
//! batches — the database stays in memory across batches, but result
//! caches and formatted buffers are bounded by the batch size. Output is
//! byte-identical to an unbatched run; the cost is one search pass over
//! the in-memory fragments per batch.
//!
//! The protocol itself — who grants fragments, when submissions are
//! collected, how deaths are handled — lives in [`crate::runtime`] as one
//! event-driven state-machine pair shared by every mode; this module only
//! validates the configuration and dispatches ranks into it.

use blast_core::seq::SeqRecord;
use mpiblast::platform::{ClusterEnv, Platform};
use mpiblast::report::ReportOptions;
use mpiblast::{ComputeModel, RankReport, MASTER};
use mpisim::Comm;
use simcluster::RankCtx;

use crate::fault::{FaultMode, PioError};

/// How virtual fragments are handed to workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FragmentSchedule {
    /// The master scatters a fixed, contiguous share to each worker up
    /// front (the paper's implementation).
    #[default]
    Static,
    /// Workers request fragments one at a time as they finish (paper §5:
    /// "the file ranges can be decided at run time and differentiated
    /// between different workers, ideal for ... heterogeneous nodes or
    /// skewed search"). Output bytes are unchanged; only placement moves.
    Dynamic,
}

/// Configuration of one pioBLAST run.
pub struct PioBlastConfig {
    /// Machine description.
    pub platform: Platform,
    /// Instantiated file systems.
    pub env: ClusterEnv,
    /// Compute-cost mode.
    pub compute: ComputeModel,
    /// BLAST search parameters.
    pub params: blast_core::search::SearchParams,
    /// Report-size limits.
    pub report: ReportOptions,
    /// Alias-file path of the shared formatted database.
    pub db_alias: String,
    /// Query FASTA path on the shared file system.
    pub query_path: String,
    /// Output report path on the shared file system.
    pub output_path: String,
    /// Virtual fragments to create (`None` = natural partitioning, one
    /// per worker).
    pub num_fragments: Option<usize>,
    /// Write the report with two-phase collective I/O (the paper's
    /// design). `false` falls back to one independent `write_at` per
    /// record/section — the ablation showing what collective I/O buys.
    pub collective_output: bool,
    /// Paper §5 "early score communication" in its always-correct form:
    /// workers prune their local hit lists to the report limits before
    /// formatting/submitting (a worker can never contribute more than the
    /// global top-N's size, so output bytes are unchanged).
    pub local_prune: bool,
    /// Process queries in batches of this many (paper §5 query batching;
    /// `None` = one pass over the whole query set). Supported in every
    /// fault mode.
    pub query_batch: Option<usize>,
    /// Read the shared database files with aggregated reads instead of
    /// independent ranged reads (the paper's §4 alternative of "reading
    /// multiple global files simultaneously"). On the static schedule
    /// this is a true two-phase collective read; under the dynamic
    /// schedule (and so under recovery and service mode) the I/O plane
    /// aggregates (sieves) each rank's granted views instead — output
    /// bytes are identical in every combination.
    pub collective_input: bool,
    /// Fragment scheduling policy.
    pub schedule: FragmentSchedule,
    /// Fault-tolerance mode (see [`crate::fault`]). `Off` lowers a
    /// one-shot run onto collectives; `Recover` (like service mode)
    /// lowers it onto a point-to-point master-driven protocol that
    /// notices rank death. That protocol cannot synchronize ranks for
    /// two-phase collective I/O, so `collective_input`/
    /// `collective_output` degrade to per-rank sieved access through the
    /// I/O plane.
    pub fault: FaultMode,
    /// Persist each completed `(batch, fragment)` search result to the
    /// shared file system so a recovery epoch re-queues only the victim's
    /// *unfinished* fragments (see [`crate::runtime`]). Requires
    /// [`FaultMode::Recover`].
    pub checkpoint: bool,
    /// Per-rank compute-speed multipliers (> 1 = slower node), to model
    /// heterogeneous clusters; `None` = homogeneous.
    pub rank_compute: Option<Vec<f64>>,
    /// Intra-rank compute slots per worker (`--threads`): each granted
    /// fragment's subjects are sharded across this many slots and the
    /// per-shard hit lists are merged deterministically, so output bytes
    /// never change. The slots' shards run one after another on the
    /// host, so they take the engine thread's one `SearchScratch` in
    /// turn. Must be ≥ 1 and ≤ the platform's `cores_per_node`.
    pub threads: usize,
    /// I/O-plane options: posted requests (`io_async`, on by default)
    /// and the burst-buffer staging tier (`burst`). How noncontiguous requests
    /// are physically serviced — independent, sieved, two-phase — is not
    /// an option: each rank's plane resolves it from `collective_input`,
    /// `collective_output`, `schedule`, `fault` and `service`. Output
    /// bytes never depend on any of it.
    pub io: mpiio::IoOptions,
    /// Query-stream service mode (`pioblast serve`): the query set is
    /// split by a [`crate::service::QueryStreamPlan`] into per-user
    /// stream batches, admitted at their arrival times, with every
    /// fragment re-granted per batch; workers keep a bounded resident
    /// fragment store so re-grants skip their reads, and the scheduler
    /// steers each fragment back to its last holder when
    /// [`crate::service::ServiceOptions::affinity`] is set. Each stream
    /// batch's report lands at `<output_path>.q<batch>`, byte-identical
    /// to a one-shot run over the same queries. Requires the dynamic
    /// schedule and excludes `query_batch`. `None` = one-shot run.
    pub service: Option<crate::service::ServiceOptions>,
}

impl PioBlastConfig {
    /// The paper's design over a staged environment: natural
    /// partitioning, independent ranged input, collective output, no
    /// pruning or batching, the static schedule, no fault tolerance,
    /// homogeneous single-slot ranks, the synchronous I/O plane, one-shot
    /// — with modeled compute, blastp parameters and the default report
    /// limits. Callers change what they vary with struct-update syntax.
    pub fn new(
        platform: &Platform,
        env: &ClusterEnv,
        db_alias: &str,
        query_path: &str,
        output_path: &str,
    ) -> PioBlastConfig {
        PioBlastConfig {
            platform: platform.clone(),
            env: env.clone(),
            compute: ComputeModel::modeled(),
            params: blast_core::search::SearchParams::blastp(),
            report: ReportOptions::default(),
            db_alias: db_alias.to_string(),
            query_path: query_path.to_string(),
            output_path: output_path.to_string(),
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
            io: mpiio::IoOptions::default(),
            service: None,
        }
    }

    /// The compute model for one rank, with any heterogeneity applied.
    pub(crate) fn compute_for(&self, rank: usize) -> ComputeModel {
        match &self.rank_compute {
            Some(scales) => self
                .compute
                .scaled(scales.get(rank).copied().unwrap_or(1.0)),
            None => self.compute,
        }
    }

    /// Reject configuration combinations the runtime does not support,
    /// with a typed [`PioError::UnsupportedConfig`] naming the conflict.
    pub fn validate(&self) -> Result<(), PioError> {
        let unsupported = |what: &str| Err(PioError::UnsupportedConfig(what.to_string()));
        if self.fault == FaultMode::Recover && self.schedule == FragmentSchedule::Static {
            return unsupported("fault recovery requires the dynamic schedule");
        }
        if self.checkpoint && self.fault != FaultMode::Recover {
            return unsupported("fragment checkpointing requires FaultMode::Recover");
        }
        if self.threads == 0 {
            return unsupported("--threads must be at least 1");
        }
        if self.threads > self.platform.cores_per_node {
            return unsupported("--threads exceeds the platform's cores per node");
        }
        if let Some(svc) = &self.service {
            if self.schedule != FragmentSchedule::Dynamic {
                return unsupported("service mode requires the dynamic schedule");
            }
            if self.query_batch.is_some() {
                return unsupported(
                    "service mode excludes --query-batch (the stream plan batches queries)",
                );
            }
            if svc.plan.batches.is_empty() {
                return unsupported("service mode needs a non-empty stream plan");
            }
        }
        Ok(())
    }
}

/// Split the query set into processing batches. An empty query set still
/// yields one (empty) round so the collectives stay matched.
pub(crate) fn query_batches(queries: &[SeqRecord], batch: Option<usize>) -> Vec<Vec<SeqRecord>> {
    let size = batch.unwrap_or(usize::MAX).max(1);
    if queries.is_empty() {
        return vec![Vec::new()];
    }
    queries.chunks(size).map(|c| c.to_vec()).collect()
}

/// The per-rank body of a pioBLAST run.
///
/// Every mode runs the same [`crate::runtime`] protocol; the
/// configuration only changes how its messages are lowered. With
/// [`PioBlastConfig::fault`] at its default (`Off`) this cannot fail in a
/// fault-free simulation; under the point-to-point lowering (`Recover`,
/// service mode) it returns a typed [`PioError`] when the run cannot
/// complete (master death, all workers dead, a worker death nobody asked
/// to recover). Unsupported configuration combinations fail on every
/// rank with [`PioError::UnsupportedConfig`].
pub fn run_rank(ctx: &RankCtx, cfg: &PioBlastConfig) -> Result<RankReport, PioError> {
    assert!(ctx.nranks() >= 2, "pioBLAST needs a master and a worker");
    cfg.validate()?;
    let comm = Comm::new(ctx, cfg.platform.net);
    if ctx.rank() == MASTER {
        crate::runtime::run_master(ctx, &comm, cfg)
    } else {
        crate::runtime::run_worker(ctx, &comm, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{sample_queries, small_db, Job};
    use blast_core::search::SearchParams;
    use mpiblast::phases;
    use mpiblast::report::serial_report;
    use simcluster::Sim;

    fn run_once(
        nranks: usize,
        nfrags: Option<usize>,
        platform: Platform,
        cap: Option<u64>,
    ) -> (Vec<u8>, Vec<RankReport>) {
        let job = Job {
            nranks,
            platform,
            cap,
            ..Job::default()
        };
        let done = job.run(|cfg| cfg.num_fragments = nfrags);
        (done.report.clone(), done.reports())
    }

    /// The default job with `tweak` applied; returns the report bytes.
    fn run_with(tweak: impl FnOnce(&mut PioBlastConfig)) -> Vec<u8> {
        Job::default().run(tweak).report
    }

    #[test]
    fn constructors_return_the_paper_design() {
        // Spelled out field by field, as `benchmark/src/job.rs` spells
        // its `Mode::Pio` and `Mode::Mpi` literals: a changed default
        // must fail here before it moves a benchmark number.
        let platform = Platform::altix();
        let sim = Sim::new(2);
        let env = ClusterEnv::new(&sim, &platform);
        let pio = PioBlastConfig::new(&platform, &env, "db/x.al", "queries.fa", "out.txt");
        pio.validate()
            .expect("the paper design is a supported config");
        assert_eq!(pio.platform.name, platform.name);
        assert_eq!(pio.compute, ComputeModel::modeled());
        let blastp = format!("{:?}", SearchParams::blastp());
        assert_eq!(format!("{:?}", pio.params), blastp);
        assert_eq!(pio.report, ReportOptions::default());
        assert_eq!(pio.db_alias, "db/x.al");
        assert_eq!(pio.query_path, "queries.fa");
        assert_eq!(pio.output_path, "out.txt");
        assert_eq!(pio.num_fragments, None);
        assert!(pio.collective_output);
        assert!(!pio.local_prune);
        assert_eq!(pio.query_batch, None);
        assert!(!pio.collective_input);
        assert_eq!(pio.schedule, FragmentSchedule::Static);
        assert_eq!(pio.fault, FaultMode::Off);
        assert!(!pio.checkpoint);
        assert_eq!(pio.rank_compute, None);
        assert_eq!(pio.threads, 1);
        assert_eq!(pio.io, mpiio::IoOptions::default());
        assert!(pio.io.io_async && pio.io.burst.is_none());
        assert!(pio.service.is_none());

        let names = vec!["frags/x.000".to_string(), "frags/x.001".to_string()];
        let mpi =
            mpiblast::MpiBlastConfig::new(&platform, &env, names.clone(), "queries.fa", "out.txt");
        assert_eq!(mpi.platform.name, platform.name);
        assert_eq!(mpi.compute, ComputeModel::modeled());
        assert_eq!(format!("{:?}", mpi.params), blastp);
        assert_eq!(mpi.report, ReportOptions::default());
        assert_eq!(mpi.fragment_names, names);
        assert_eq!(mpi.query_path, "queries.fa");
        assert_eq!(mpi.output_path, "out.txt");
        assert!(!mpi.fault_detection);
    }

    #[test]
    fn output_matches_serial_reference() {
        let db = small_db(None);
        let queries = sample_queries(&db, 3);
        let expected = serial_report(
            &SearchParams::blastp(),
            queries,
            &db,
            ReportOptions::default(),
        )
        .expect("serial oracle");
        let (got, _) = run_once(4, None, Platform::altix(), None);
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&expected)
        );
    }

    #[test]
    fn output_is_invariant_to_worker_and_fragment_count() {
        let (a, _) = run_once(3, None, Platform::altix(), None);
        let (b, _) = run_once(6, None, Platform::altix(), None);
        let (c, _) = run_once(4, Some(7), Platform::altix(), None);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn multi_volume_database_works() {
        // The paper left multi-volume (nt-scale) databases as future work;
        // our implementation handles them via per-volume fragments.
        let (a, _) = run_once(4, None, Platform::altix(), None);
        let (b, _) = run_once(4, None, Platform::altix(), Some(15_000));
        assert_eq!(a, b, "volume split must not change output bytes");
    }

    #[test]
    fn blade_platform_works() {
        let (a, _) = run_once(3, None, Platform::blade_cluster(), None);
        let (b, _) = run_once(3, None, Platform::altix(), None);
        assert_eq!(a, b);
    }

    #[test]
    fn phases_are_populated_and_copy_free() {
        let (_, reports) = run_once(4, None, Platform::altix(), None);
        for r in &reports[1..] {
            assert!(r.phases.get(phases::INPUT) > simcluster::SimDuration::ZERO);
            assert!(r.phases.get(phases::SEARCH) > simcluster::SimDuration::ZERO);
            assert_eq!(r.phases.get(phases::COPY), simcluster::SimDuration::ZERO);
        }
        assert!(reports[0].phases.get(phases::OUTPUT) > simcluster::SimDuration::ZERO);
    }

    #[test]
    fn independent_output_mode_is_byte_identical() {
        let a = run_with(|_| {});
        let b = run_with(|cfg| cfg.collective_output = false);
        assert_eq!(a, b, "ablation must only change timing, not bytes");
    }

    #[test]
    fn local_prune_is_byte_identical() {
        let five = || Job {
            nranks: 5,
            ..Job::default()
        };
        let a = five().run(|_| {}).report;
        let b = five().run(|cfg| cfg.local_prune = true).report;
        assert_eq!(a, b, "local pruning must never change the output");
    }

    #[test]
    fn finer_granularity_is_byte_identical() {
        // Paper §5: partition granularity is a pure performance knob.
        let (a, _) = run_once(4, None, Platform::altix(), None);
        let (b, _) = run_once(4, Some(12), Platform::altix(), None);
        assert_eq!(a, b);
    }

    fn with_queries(n_queries: usize) -> Job {
        Job {
            n_queries,
            ..Job::default()
        }
    }

    #[test]
    fn query_batching_is_byte_identical() {
        // Paper §5: batching bounds memory; it must not change the report.
        let reference = with_queries(5).run(|_| {}).report;
        for batch in [1usize, 2, 3, 5, 100] {
            let batched = with_queries(5)
                .run(|cfg| cfg.query_batch = Some(batch))
                .report;
            assert_eq!(batched, reference, "batch size {batch}");
        }
    }

    #[test]
    fn query_batching_searches_fragments_repeatedly() {
        let unbatched = with_queries(4).run(|_| {}).reports();
        let batched = with_queries(4)
            .run(|cfg| cfg.query_batch = Some(1))
            .reports();
        // Four batches -> four search passes per fragment.
        let subjects =
            |rs: &[RankReport]| -> u64 { rs.iter().map(|r| r.search_stats.subjects).sum() };
        assert_eq!(subjects(&batched), 4 * subjects(&unbatched));
    }

    #[test]
    fn collective_input_is_byte_identical() {
        // Paper §4's deferred design alternative: reading the global
        // files with collective I/O must not change a single output byte,
        // for any volume layout or fragment granularity.
        let a = run_with(|_| {});
        for cap in [None, Some(15_000)] {
            for nfrags in [None, Some(9)] {
                let job = Job {
                    cap,
                    ..Job::default()
                };
                let b = job
                    .run(|cfg| {
                        cfg.num_fragments = nfrags;
                        cfg.collective_input = true;
                    })
                    .report;
                assert_eq!(a, b, "cap {cap:?} nfrags {nfrags:?}");
            }
        }
    }

    #[test]
    fn dynamic_schedule_is_byte_identical() {
        let a = run_with(|_| {});
        for nfrags in [None, Some(9)] {
            let b = run_with(|cfg| {
                cfg.num_fragments = nfrags;
                cfg.schedule = FragmentSchedule::Dynamic;
            });
            assert_eq!(a, b, "dynamic scheduling must not change bytes");
        }
    }

    #[test]
    fn dynamic_schedule_balances_heterogeneous_nodes() {
        // One worker 8x slower; with 4 fragments per worker, dynamic
        // scheduling should beat static placement.
        let run_total = |schedule: FragmentSchedule| -> u64 {
            let job = Job {
                nranks: 5,
                n_queries: 4,
                ..Job::default()
            };
            job.run(|cfg| {
                cfg.num_fragments = Some(16);
                cfg.schedule = schedule;
                cfg.rank_compute = Some(vec![1.0, 8.0, 1.0, 1.0, 1.0]);
            })
            .elapsed
            .0
        };
        let static_total = run_total(FragmentSchedule::Static);
        let dynamic_total = run_total(FragmentSchedule::Dynamic);
        assert!(
            dynamic_total < static_total,
            "dynamic {dynamic_total} ns should beat static {static_total} ns on a heterogeneous cluster"
        );
    }

    #[test]
    fn empty_query_set_still_runs() {
        let output = with_queries(0).run(|_| {}).report;
        assert!(output.is_empty(), "no queries -> empty report file");
    }

    #[test]
    fn runs_are_deterministic_in_modeled_mode() {
        let (a, ra) = run_once(4, None, Platform::altix(), None);
        let (b, rb) = run_once(4, None, Platform::altix(), None);
        assert_eq!(a, b);
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x.phases, y.phases);
        }
    }

    #[test]
    fn collective_input_composes_with_dynamic_and_fault_modes() {
        // The I/O-plane refactor lifted the old `UnsupportedConfig`
        // rejections: collective input now composes with the dynamic
        // schedule under both lowerings (the plane sieves the granted
        // views instead of synchronizing), byte-identically.
        let reference = run_with(|_| {});
        let combos = [
            (FragmentSchedule::Dynamic, FaultMode::Off),
            (FragmentSchedule::Dynamic, FaultMode::Recover),
        ];
        for (schedule, fault) in combos {
            let got = run_with(|cfg| {
                cfg.collective_input = true;
                cfg.schedule = schedule;
                cfg.fault = fault;
            });
            assert_eq!(got, reference, "schedule {schedule:?} fault {fault:?}");
        }
    }

    #[test]
    fn access_class_is_resolved_from_context() {
        // The plane picks the access class per request kind from
        // (collective_input, collective_output, schedule, fault): every
        // row must reproduce the serial report, and the shared file
        // system's class tallies must show exactly the classes the
        // context resolves to. The setup reads (alias, queries, volume
        // indexes) are whole-file and always tally as independent.
        use parafs::IoClass;
        use FaultMode::{Off, Recover};
        use FragmentSchedule::{Dynamic, Static};
        let db = small_db(None);
        let reference = serial_report(
            &SearchParams::blastp(),
            sample_queries(&db, 3),
            &db,
            ReportOptions::default(),
        )
        .expect("serial oracle");
        // (collective_input, collective_output, schedule, fault) ->
        // which of [sieved, two-phase] carry traffic.
        let table = [
            // Every rank posts in lockstep: two-phase on both paths.
            (true, true, Static, Off, [false, true]),
            // Grant-driven reads cannot synchronize; writes still can.
            (true, true, Dynamic, Off, [true, true]),
            (true, false, Dynamic, Off, [true, false]),
            (false, true, Dynamic, Off, [false, true]),
            (true, false, Static, Off, [false, true]),
            // Point-to-point lowering: nothing synchronizes.
            (true, true, Dynamic, Recover, [true, false]),
            // No aggregation asked for: independent only, in any mode.
            (false, false, Static, Off, [false, false]),
            (false, false, Dynamic, Recover, [false, false]),
        ];
        for (collective_input, collective_output, schedule, fault, want) in table {
            let row =
                format!("ci={collective_input} co={collective_output} {schedule:?} {fault:?}");
            let done = Job::default().run(|cfg| {
                cfg.collective_input = collective_input;
                cfg.collective_output = collective_output;
                cfg.schedule = schedule;
                cfg.fault = fault;
            });
            assert_eq!(done.report, reference, "{row}");
            let used = |class| done.env.shared.class_tally(class).requests > 0;
            assert!(used(IoClass::Independent), "{row}: setup reads");
            assert_eq!(
                [used(IoClass::Sieved), used(IoClass::TwoPhase)],
                want,
                "{row}: [sieved, two-phase]"
            );
        }
    }

    /// A config over an empty environment, for `validate()`-only checks.
    fn unstaged(platform: Platform) -> PioBlastConfig {
        let sim = Sim::new(2);
        let env = ClusterEnv::new(&sim, &platform);
        PioBlastConfig::new(&platform, &env, "db.pal", "queries.fa", "results.txt")
    }

    #[test]
    fn unsupported_configs_fail_with_a_typed_error() {
        // Satellite: conflicting knob combinations must surface as
        // `PioError::UnsupportedConfig` on every rank, not as a panic or
        // a hang. Pin the exact conflicts the runtime rejects.
        let done = Job::default().run(|cfg| {
            cfg.schedule = FragmentSchedule::Static;
            cfg.fault = FaultMode::Recover;
        });
        for r in done.outputs {
            assert_eq!(
                r.expect("nobody was killed")
                    .expect_err("conflicting config must fail"),
                PioError::UnsupportedConfig(
                    "fault recovery requires the dynamic schedule".to_string()
                )
            );
        }
        // Checkpointing without recovery is rejected by validate() alone.
        let cfg = PioBlastConfig {
            schedule: FragmentSchedule::Dynamic,
            fault: FaultMode::Off,
            checkpoint: true,
            ..unstaged(Platform::altix())
        };
        assert_eq!(
            cfg.validate().expect_err("checkpoint needs Recover"),
            PioError::UnsupportedConfig(
                "fragment checkpointing requires FaultMode::Recover".to_string()
            )
        );
    }

    #[test]
    fn every_accepted_config_runs_p2p_on_the_dynamic_schedule() {
        // The runtime relies on it: the point-to-point lowering
        // (`Recover` or service mode) grants one fragment per request,
        // never the static scatter. Walk the whole
        // (schedule, fault, service) table.
        use FaultMode::{Off, Recover};
        use FragmentSchedule::{Dynamic, Static};
        let plan = crate::service::QueryStreamPlan::generate(1, 1, 1, 1_000, 7);
        let mut accepted = Vec::new();
        for schedule in [Static, Dynamic] {
            for fault in [Off, Recover] {
                for service in [false, true] {
                    let cfg = PioBlastConfig {
                        schedule,
                        fault,
                        service: service.then(|| crate::service::ServiceOptions {
                            plan: plan.clone(),
                            resident_bytes: 0,
                            affinity: false,
                        }),
                        ..unstaged(Platform::altix())
                    };
                    if cfg.validate().is_ok() {
                        let policy = crate::runtime::RunPolicy {
                            schedule,
                            fault,
                            checkpoint: false,
                            nranks: 2,
                            nfrags: 1,
                            nbatches: 1,
                            service,
                            affinity: false,
                        };
                        assert!(!policy.p2p() || policy.dynamic(), "{policy:?}");
                        accepted.push((schedule, fault, service));
                    }
                }
            }
        }
        // Three (schedule, fault) pairs survive; service rides on two.
        assert_eq!(
            accepted,
            vec![
                (Static, Off, false),
                (Dynamic, Off, false),
                (Dynamic, Off, true),
                (Dynamic, Recover, false),
                (Dynamic, Recover, true),
            ]
        );
    }

    #[test]
    fn thread_counts_are_validated_against_the_platform() {
        // Satellite: `--threads 0` and thread counts beyond the
        // platform's cores are typed errors, not panics or silent clamps.
        let mk = |platform: Platform, threads: usize| PioBlastConfig {
            threads,
            ..unstaged(platform)
        };
        assert_eq!(
            mk(Platform::altix(), 0).validate().expect_err("zero slots"),
            PioError::UnsupportedConfig("--threads must be at least 1".to_string())
        );
        // Blade nodes expose four hardware threads: 8 slots oversubscribe.
        assert_eq!(
            mk(Platform::blade_cluster(), 8)
                .validate()
                .expect_err("oversubscribed"),
            PioError::UnsupportedConfig(
                "--threads exceeds the platform's cores per node".to_string()
            )
        );
        // Every in-budget count on every profile validates.
        for (platform, max) in [
            (Platform::altix(), 16),
            (Platform::blade_cluster(), 4),
            (Platform::manycore(), 64),
        ] {
            assert!(mk(platform.clone(), 1).validate().is_ok());
            assert!(mk(platform, max).validate().is_ok());
        }
    }
}
