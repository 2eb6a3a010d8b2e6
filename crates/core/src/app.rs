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
    /// multiple global files simultaneously"). On the static fault-free
    /// schedule this is a true two-phase collective read; under the
    /// dynamic schedule or a fault mode the I/O plane aggregates
    /// (sieves) each rank's granted views instead — output bytes are
    /// identical in every combination.
    pub collective_input: bool,
    /// Fragment scheduling policy.
    pub schedule: FragmentSchedule,
    /// Fault-tolerance mode (see [`crate::fault`]). `Off` lowers the
    /// runtime onto collectives; `Detect` and `Recover` lower it onto a
    /// point-to-point master-driven protocol that notices rank death.
    /// Fault modes cannot synchronize ranks for two-phase collective
    /// I/O, so `collective_input`/`collective_output` degrade to
    /// per-rank sieved access through the I/O plane.
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
    /// fragment's subjects are sharded across this many slots (one
    /// `SearchScratch` per slot) and the per-shard hit lists are merged
    /// deterministically, so output bytes never change. Must be ≥ 1 and
    /// ≤ the platform's `cores_per_node`.
    pub threads: usize,
    /// I/O-plane options: asynchronous servicing (`io_async`) and the
    /// burst-buffer staging tier (`burst`). How noncontiguous requests
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
/// Every mode runs the same [`crate::runtime`] state machines; the
/// configuration only changes how their actions are lowered. With
/// [`PioBlastConfig::fault`] at its default (`Off`) this cannot fail in a
/// fault-free simulation; in `Detect`/`Recover` mode it returns a typed
/// [`PioError`] when the run cannot complete (master death, all workers
/// dead, detected death in `Detect` mode). Unsupported configuration
/// combinations fail on every rank with
/// [`PioError::UnsupportedConfig`].
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
    use blast_core::search::SearchParams;
    use mpiblast::phases;
    use mpiblast::report::serial_report;
    use mpiblast::setup::{stage_queries, stage_shared_db};
    use seqfmt::formatdb::{format_records, FormatDbConfig};
    use seqfmt::synth::{generate, SynthConfig};
    use seqfmt::FragmentData;
    use simcluster::Sim;

    fn small_db(cap: Option<u64>) -> seqfmt::FormattedDb {
        let recs = generate(&SynthConfig::nr_like(21, 40_000));
        let cfg = FormatDbConfig {
            title: "nr-test".into(),
            molecule: blast_core::Molecule::Protein,
            volume_residue_cap: cap,
        };
        format_records(&recs, &cfg)
    }

    fn sample_queries(db: &seqfmt::FormattedDb, n: usize) -> Vec<SeqRecord> {
        use blast_core::search::SubjectSource;
        let frag = FragmentData::from_volume(&db.volumes[0]);
        (0..n)
            .map(|i| {
                let s = frag.subject((i * 13) % frag.num_subjects());
                SeqRecord {
                    defline: format!("query_{i:05} sampled"),
                    residues: s.residues.to_vec(),
                    molecule: blast_core::Molecule::Protein,
                }
            })
            .collect()
    }

    struct Opts {
        nranks: usize,
        nfrags: Option<usize>,
        platform: Platform,
        cap: Option<u64>,
        collective_output: bool,
        local_prune: bool,
        query_batch: Option<usize>,
        n_queries: usize,
        collective_input: bool,
        schedule: FragmentSchedule,
        fault: FaultMode,
        rank_compute: Option<Vec<f64>>,
        threads: usize,
        io: mpiio::IoOptions,
    }

    impl Default for Opts {
        fn default() -> Opts {
            Opts {
                nranks: 4,
                nfrags: None,
                platform: Platform::altix(),
                cap: None,
                collective_output: true,
                local_prune: false,
                query_batch: None,
                n_queries: 3,
                collective_input: false,
                schedule: FragmentSchedule::Static,
                fault: FaultMode::Off,
                rank_compute: None,
                threads: 1,
                io: mpiio::IoOptions::default(),
            }
        }
    }

    fn run_opts(opts: Opts) -> (Vec<u8>, Vec<RankReport>) {
        let (output, reports, _) = run_with_env(opts);
        (output, reports)
    }

    fn run_with_env(opts: Opts) -> (Vec<u8>, Vec<RankReport>, ClusterEnv) {
        let db = small_db(opts.cap);
        let queries = sample_queries(&db, opts.n_queries);
        let sim = Sim::new(opts.nranks);
        let env = ClusterEnv::new(&sim, &opts.platform);
        let db_alias = stage_shared_db(&env.shared, &db);
        let query_path = stage_queries(&env.shared, &queries);
        let cfg = PioBlastConfig {
            platform: opts.platform,
            env: env.clone(),
            compute: ComputeModel::modeled(),
            params: SearchParams::blastp(),
            report: ReportOptions::default(),
            db_alias,
            query_path,
            output_path: "results.txt".to_string(),
            num_fragments: opts.nfrags,
            collective_output: opts.collective_output,
            local_prune: opts.local_prune,
            query_batch: opts.query_batch,
            collective_input: opts.collective_input,
            schedule: opts.schedule,
            fault: opts.fault,
            checkpoint: false,
            rank_compute: opts.rank_compute.clone(),
            threads: opts.threads,
            io: opts.io,
            service: None,
        };
        let outcome = sim.run(|ctx| run_rank(&ctx, &cfg));
        let output = env.shared.peek("results.txt").unwrap_or_default();
        let reports = outcome
            .outputs
            .into_iter()
            .map(|r| r.expect("rank completed"))
            .collect();
        (output, reports, env)
    }

    fn run_once(
        nranks: usize,
        nfrags: Option<usize>,
        platform: Platform,
        cap: Option<u64>,
    ) -> (Vec<u8>, Vec<RankReport>) {
        run_opts(Opts {
            nranks,
            nfrags,
            platform,
            cap,
            ..Opts::default()
        })
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
        let (a, _) = run_opts(Opts::default());
        let (b, _) = run_opts(Opts {
            collective_output: false,
            ..Opts::default()
        });
        assert_eq!(a, b, "ablation must only change timing, not bytes");
    }

    #[test]
    fn local_prune_is_byte_identical() {
        let (a, _) = run_opts(Opts {
            nranks: 5,
            ..Opts::default()
        });
        let (b, _) = run_opts(Opts {
            nranks: 5,
            local_prune: true,
            ..Opts::default()
        });
        assert_eq!(a, b, "local pruning must never change the output");
    }

    #[test]
    fn finer_granularity_is_byte_identical() {
        // Paper §5: partition granularity is a pure performance knob.
        let (a, _) = run_once(4, None, Platform::altix(), None);
        let (b, _) = run_once(4, Some(12), Platform::altix(), None);
        assert_eq!(a, b);
    }

    #[test]
    fn query_batching_is_byte_identical() {
        // Paper §5: batching bounds memory; it must not change the report.
        let (reference, _) = run_opts(Opts {
            n_queries: 5,
            ..Opts::default()
        });
        for batch in [1usize, 2, 3, 5, 100] {
            let (batched, _) = run_opts(Opts {
                n_queries: 5,
                query_batch: Some(batch),
                ..Opts::default()
            });
            assert_eq!(batched, reference, "batch size {batch}");
        }
    }

    #[test]
    fn query_batching_searches_fragments_repeatedly() {
        let (_, unbatched) = run_opts(Opts {
            n_queries: 4,
            ..Opts::default()
        });
        let (_, batched) = run_opts(Opts {
            n_queries: 4,
            query_batch: Some(1),
            ..Opts::default()
        });
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
        let (a, _) = run_opts(Opts::default());
        for cap in [None, Some(15_000)] {
            for nfrags in [None, Some(9)] {
                let (b, _) = run_opts(Opts {
                    cap,
                    nfrags,
                    collective_input: true,
                    ..Opts::default()
                });
                assert_eq!(a, b, "cap {cap:?} nfrags {nfrags:?}");
            }
        }
    }

    #[test]
    fn dynamic_schedule_is_byte_identical() {
        let (a, _) = run_opts(Opts::default());
        for nfrags in [None, Some(9)] {
            let (b, _) = run_opts(Opts {
                nfrags,
                schedule: FragmentSchedule::Dynamic,
                ..Opts::default()
            });
            assert_eq!(a, b, "dynamic scheduling must not change bytes");
        }
    }

    #[test]
    fn dynamic_schedule_balances_heterogeneous_nodes() {
        // One worker 8x slower; with 4 fragments per worker, dynamic
        // scheduling should beat static placement.
        let hetero = Some(vec![1.0, 8.0, 1.0, 1.0, 1.0]);
        let base = Opts {
            nranks: 5,
            nfrags: Some(16),
            n_queries: 4,
            rank_compute: hetero.clone(),
            ..Opts::default()
        };
        let run_total = |schedule: FragmentSchedule| -> u64 {
            let db = small_db(base.cap);
            let queries = sample_queries(&db, base.n_queries);
            let sim = Sim::new(base.nranks);
            let env = ClusterEnv::new(&sim, &base.platform);
            let db_alias = stage_shared_db(&env.shared, &db);
            let query_path = stage_queries(&env.shared, &queries);
            let cfg = PioBlastConfig {
                platform: base.platform.clone(),
                env: env.clone(),
                compute: ComputeModel::modeled(),
                params: SearchParams::blastp(),
                report: ReportOptions::default(),
                db_alias,
                query_path,
                output_path: "results.txt".to_string(),
                num_fragments: base.nfrags,
                collective_output: true,
                local_prune: false,
                query_batch: None,
                collective_input: false,
                schedule,
                fault: FaultMode::Off,
                checkpoint: false,
                rank_compute: hetero.clone(),
                threads: 1,
                io: Default::default(),
                service: None,
            };
            sim.run(|ctx| run_rank(&ctx, &cfg)).elapsed.0
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
        let (output, _) = run_opts(Opts {
            n_queries: 0,
            ..Opts::default()
        });
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
        // schedule and with both fault modes (the plane sieves the
        // granted views instead of synchronizing), byte-identically.
        let (reference, _) = run_opts(Opts::default());
        let combos = [
            (FragmentSchedule::Dynamic, FaultMode::Off),
            (FragmentSchedule::Static, FaultMode::Detect),
            (FragmentSchedule::Dynamic, FaultMode::Detect),
            (FragmentSchedule::Dynamic, FaultMode::Recover),
        ];
        for (schedule, fault) in combos {
            let (got, _) = run_opts(Opts {
                collective_input: true,
                schedule,
                fault,
                ..Opts::default()
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
        use FaultMode::{Detect, Off, Recover};
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
            (true, true, Static, Detect, [true, false]),
            (true, true, Dynamic, Recover, [true, false]),
            // No aggregation asked for: independent only, in any mode.
            (false, false, Static, Off, [false, false]),
            (false, false, Dynamic, Recover, [false, false]),
        ];
        for (collective_input, collective_output, schedule, fault, want) in table {
            let row =
                format!("ci={collective_input} co={collective_output} {schedule:?} {fault:?}");
            let (got, _, env) = run_with_env(Opts {
                collective_input,
                collective_output,
                schedule,
                fault,
                ..Opts::default()
            });
            assert_eq!(got, reference, "{row}");
            let used = |class| env.shared.class_tally(class).requests > 0;
            assert!(used(IoClass::Independent), "{row}: setup reads");
            assert_eq!(
                [used(IoClass::Sieved), used(IoClass::TwoPhase)],
                want,
                "{row}: [sieved, two-phase]"
            );
        }
    }

    #[test]
    fn unsupported_configs_fail_with_a_typed_error() {
        // Satellite: conflicting knob combinations must surface as
        // `PioError::UnsupportedConfig` on every rank, not as a panic or
        // a hang. Pin the exact conflicts the runtime rejects.
        let cases: &[(Opts, &str)] = &[(
            Opts {
                schedule: FragmentSchedule::Static,
                fault: FaultMode::Recover,
                ..Opts::default()
            },
            "fault recovery requires the dynamic schedule",
        )];
        for (opts, want) in cases {
            let db = small_db(opts.cap);
            let queries = sample_queries(&db, opts.n_queries);
            let sim = Sim::new(opts.nranks);
            let env = ClusterEnv::new(&sim, &opts.platform);
            let db_alias = stage_shared_db(&env.shared, &db);
            let query_path = stage_queries(&env.shared, &queries);
            let cfg = PioBlastConfig {
                platform: opts.platform.clone(),
                env: env.clone(),
                compute: ComputeModel::modeled(),
                params: SearchParams::blastp(),
                report: ReportOptions::default(),
                db_alias,
                query_path,
                output_path: "results.txt".to_string(),
                num_fragments: opts.nfrags,
                collective_output: opts.collective_output,
                local_prune: opts.local_prune,
                query_batch: opts.query_batch,
                collective_input: opts.collective_input,
                schedule: opts.schedule,
                fault: opts.fault,
                checkpoint: false,
                rank_compute: opts.rank_compute.clone(),
                threads: opts.threads,
                io: opts.io,
                service: None,
            };
            let outcome = sim.run(|ctx| run_rank(&ctx, &cfg));
            for r in outcome.outputs {
                assert_eq!(
                    r.expect_err("conflicting config must fail"),
                    PioError::UnsupportedConfig(want.to_string())
                );
            }
        }
        // Checkpointing without recovery is rejected by validate() alone.
        let sim = Sim::new(2);
        let env = ClusterEnv::new(&sim, &Platform::altix());
        let cfg = PioBlastConfig {
            platform: Platform::altix(),
            env,
            compute: ComputeModel::modeled(),
            params: SearchParams::blastp(),
            report: ReportOptions::default(),
            db_alias: "db.pal".into(),
            query_path: "queries.fa".into(),
            output_path: "results.txt".into(),
            num_fragments: None,
            collective_output: true,
            local_prune: false,
            query_batch: None,
            collective_input: false,
            schedule: FragmentSchedule::Dynamic,
            fault: FaultMode::Detect,
            checkpoint: true,
            rank_compute: None,
            threads: 1,
            io: Default::default(),
            service: None,
        };
        assert_eq!(
            cfg.validate().expect_err("checkpoint needs Recover"),
            PioError::UnsupportedConfig(
                "fragment checkpointing requires FaultMode::Recover".to_string()
            )
        );
    }

    #[test]
    fn thread_counts_are_validated_against_the_platform() {
        // Satellite: `--threads 0` and thread counts beyond the
        // platform's cores are typed errors, not panics or silent clamps.
        let mk = |platform: Platform, threads: usize| {
            let sim = Sim::new(2);
            let env = ClusterEnv::new(&sim, &platform);
            PioBlastConfig {
                platform,
                env,
                compute: ComputeModel::modeled(),
                params: SearchParams::blastp(),
                report: ReportOptions::default(),
                db_alias: "db.pal".into(),
                query_path: "queries.fa".into(),
                output_path: "results.txt".into(),
                num_fragments: None,
                collective_output: true,
                local_prune: false,
                query_batch: None,
                collective_input: false,
                schedule: FragmentSchedule::Static,
                fault: FaultMode::Off,
                checkpoint: false,
                rank_compute: None,
                threads,
                io: Default::default(),
                service: None,
            }
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
