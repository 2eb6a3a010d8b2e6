//! Property and degradation tests for the nonblocking I/O plane
//! (`--io-async`).
//!
//! The async plane changes *when* bytes move — fragment read-ahead
//! overlaps input with search, checkpoint and output writes fire and
//! collect at epoch fences — but must never change *what* lands in the
//! report. The properties here drive arbitrary interleavings of
//! begin/wait orderings (schedules, access classes, batching, skewed rank
//! speeds, worker kills with operations in flight) and pin the output
//! to the synchronous plane's bytes.
//!
//! The degradation tests cover the purged panic paths: malformed setup
//! files (alias, query FASTA, volume index) and a full file system must
//! surface as typed errors on every rank — no panic, no deadlock.

use std::sync::OnceLock;

use blast_core::search::SearchParams;
use blast_core::seq::SeqRecord;
use mpiblast::setup::{stage_queries, stage_shared_db};
use mpiblast::{ClusterEnv, ComputeModel, Platform, ReportOptions};
use pioblast::{FaultMode, FragmentSchedule, InputError, PioBlastConfig, PioError};
use proptest::prelude::*;
use seqfmt::formatdb::{format_records, FormatDbConfig};
use seqfmt::synth::{generate, SynthConfig};
use seqfmt::FormattedDb;
use simcluster::{FaultPlan, Sim};

fn small_db() -> FormattedDb {
    let recs = generate(&SynthConfig::nr_like(21, 40_000));
    format_records(&recs, &FormatDbConfig::protein("nr-async"))
}

fn sample_queries(db: &FormattedDb, n: usize) -> Vec<SeqRecord> {
    use blast_core::search::SubjectSource;
    let frag = seqfmt::FragmentData::from_volume(&db.volumes[0]);
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

#[derive(Clone)]
struct Opts {
    nranks: usize,
    nfrags: usize,
    platform: Platform,
    io_async: bool,
    collective_input: bool,
    collective_output: bool,
    schedule: FragmentSchedule,
    fault: FaultMode,
    checkpoint: bool,
    query_batch: Option<usize>,
    rank_compute: Option<Vec<f64>>,
    threads: usize,
    plan: FaultPlan,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            nranks: 4,
            nfrags: 9,
            platform: Platform::altix(),
            io_async: false,
            collective_input: false,
            collective_output: true,
            schedule: FragmentSchedule::Static,
            fault: FaultMode::Off,
            checkpoint: false,
            query_batch: None,
            rank_compute: None,
            threads: 1,
            plan: FaultPlan::none(),
        }
    }
}

fn run_opts(opts: Opts) -> (Vec<u8>, Vec<usize>) {
    let db = small_db();
    let queries = sample_queries(&db, 3);
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
        output_path: "results.txt".into(),
        num_fragments: Some(opts.nfrags),
        collective_output: opts.collective_output,
        local_prune: false,
        query_batch: opts.query_batch,
        collective_input: opts.collective_input,
        schedule: opts.schedule,
        fault: opts.fault,
        checkpoint: opts.checkpoint,
        rank_compute: opts.rank_compute.clone(),
        threads: opts.threads,
        io: mpiio::IoOptions {
            io_async: opts.io_async,
            ..Default::default()
        },
        service: None,
    };
    let out = sim.run_faulty(opts.plan.clone(), |ctx| pioblast::run_rank(&ctx, &cfg));
    let bytes = env.shared.peek("results.txt").unwrap_or_default();
    (bytes, out.killed)
}

fn reference_bytes() -> &'static [u8] {
    static REF: OnceLock<Vec<u8>> = OnceLock::new();
    REF.get_or_init(|| {
        let (bytes, killed) = run_opts(Opts::default());
        assert!(killed.is_empty());
        assert!(!bytes.is_empty(), "reference run produced no output");
        bytes
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any interleaving of begin/wait orderings the async plane can
    /// produce — every access class (the `flags` bits draw every
    /// context the plane resolves one from), both platforms, static and
    /// dynamic schedules, batched epochs (handles fired during a batch's
    /// searches are collected at its fence), skewed per-rank compute
    /// speeds to shuffle which rank's operations are in flight when —
    /// yields bytes identical to the synchronous plane's.
    #[test]
    fn async_interleavings_are_byte_identical_to_sync(
        nranks in 3usize..=5,
        nfrags in 4usize..=10,
        flags in 0u32..16,
        batch_pick in 0usize..=2,
        skew in prop::collection::vec(0.5f64..2.0, 5),
    ) {
        let (blade, dynamic) = (flags & 1 != 0, flags & 2 != 0);
        let (collective_input, collective_output) = (flags & 4 != 0, flags & 8 != 0);
        let query_batch = if batch_pick == 0 { None } else { Some(batch_pick) };
        let opts = Opts {
            nranks,
            nfrags,
            platform: if blade { Platform::blade_cluster() } else { Platform::altix() },
            io_async: true,
            collective_input,
            collective_output,
            schedule: if dynamic { FragmentSchedule::Dynamic } else { FragmentSchedule::Static },
            query_batch,
            rank_compute: Some(skew[..nranks].to_vec()),
            ..Opts::default()
        };
        let (bytes, killed) = run_opts(opts);
        prop_assert!(killed.is_empty());
        prop_assert_eq!(
            &bytes[..],
            reference_bytes(),
            "nranks={} nfrags={} blade={} dynamic={} ci={} co={} batch={:?}",
            nranks, nfrags, blade, dynamic,
            collective_input, collective_output, query_batch
        );
    }

    /// A worker killed with asynchronous operations in flight —
    /// read-ahead reads, fire-and-collect checkpoint blobs that may
    /// straddle the kill point — must not corrupt recovery:
    /// `FaultMode::Recover` still produces the fault-free bytes. The
    /// dead rank's in-flight writes are discarded, so a half-written
    /// checkpoint decodes as garbage and the fragment is re-queued,
    /// exactly like the synchronous plane's partial write.
    #[test]
    fn kill_with_async_ops_in_flight_recovers_byte_identically(
        nranks in 3usize..=5,
        nfrags in 4usize..=10,
        victim_seed in 0usize..64,
        kill_after in 1u64..=8,
        checkpoint in any::<bool>(),
        batch_pick in 0usize..=2,
    ) {
        let victim = 1 + victim_seed % (nranks - 1);
        let query_batch = if batch_pick == 0 { None } else { Some(batch_pick) };
        let opts = Opts {
            nranks,
            nfrags,
            io_async: true,
            collective_output: false,
            schedule: FragmentSchedule::Dynamic,
            fault: FaultMode::Recover,
            checkpoint,
            query_batch,
            plan: FaultPlan::none().kill_after_sends(victim, kill_after),
            ..Opts::default()
        };
        let (bytes, killed) = run_opts(opts);
        prop_assert!(killed.is_empty() || killed == vec![victim]);
        prop_assert_eq!(
            &bytes[..],
            reference_bytes(),
            "nranks={} nfrags={} victim={} kill_after={} ckpt={} batch={:?} killed={:?}",
            nranks, nfrags, victim, kill_after, checkpoint, query_batch, killed
        );
    }
}

// ---------------------------------------------------------------------
// Degradation: the purged panic paths
// ---------------------------------------------------------------------

/// Run with a post-staging corruption applied to the shared store; every
/// rank must return an error (typed, no panic, no deadlock). The closure
/// may also redirect the alias path (the missing-file case).
fn run_corrupted(
    fault: FaultMode,
    corrupt: impl Fn(&parafs::SimFs, &mut String),
) -> Vec<Result<mpiblast::RankReport, PioError>> {
    let db = small_db();
    let queries = sample_queries(&db, 2);
    let sim = Sim::new(3);
    let env = ClusterEnv::new(&sim, &Platform::altix());
    let mut db_alias = stage_shared_db(&env.shared, &db);
    let query_path = stage_queries(&env.shared, &queries);
    corrupt(&env.shared, &mut db_alias);
    let cfg = PioBlastConfig {
        platform: Platform::altix(),
        env: env.clone(),
        compute: ComputeModel::modeled(),
        params: SearchParams::blastp(),
        report: ReportOptions::default(),
        db_alias,
        query_path,
        output_path: "results.txt".into(),
        num_fragments: None,
        collective_output: true,
        local_prune: false,
        query_batch: None,
        collective_input: false,
        schedule: if fault == FaultMode::Recover {
            FragmentSchedule::Dynamic
        } else {
            FragmentSchedule::Static
        },
        fault,
        checkpoint: false,
        rank_compute: None,
        threads: 1,
        io: Default::default(),
        service: None,
    };
    sim.run(|ctx| pioblast::run_rank(&ctx, &cfg)).outputs
}

fn assert_master_input_error(outputs: &[Result<mpiblast::RankReport, PioError>]) {
    match &outputs[0] {
        Err(PioError::Input(InputError::Malformed(_) | InputError::Store(_))) => {}
        other => panic!("master should fail with a typed input error, got {other:?}"),
    }
    for (rank, r) in outputs.iter().enumerate().skip(1) {
        assert!(r.is_err(), "worker {rank} should error, got {r:?}");
    }
}

#[test]
fn malformed_alias_degrades_without_abort() {
    for fault in [FaultMode::Off, FaultMode::Detect] {
        let outputs = run_corrupted(fault, |fs, alias| {
            fs.preload(alias, b"this is not an alias file".to_vec());
        });
        assert_master_input_error(&outputs);
    }
}

#[test]
fn missing_alias_degrades_without_abort() {
    let outputs = run_corrupted(FaultMode::Off, |_, alias| {
        *alias = "no-such-db.al".into();
    });
    assert_master_input_error(&outputs);
}

#[test]
fn malformed_query_fasta_degrades_without_abort() {
    for fault in [FaultMode::Off, FaultMode::Detect] {
        let outputs = run_corrupted(fault, |fs, _| {
            // Protein residues outside the alphabet fail the parse.
            fs.preload("queries.fa", b">q1\n@@##!!\n".to_vec());
        });
        assert_master_input_error(&outputs);
    }
}

#[test]
fn malformed_volume_index_degrades_without_abort() {
    let db = small_db();
    let vol = db.volumes[0].name.clone();
    for fault in [FaultMode::Off, FaultMode::Detect] {
        let outputs = run_corrupted(fault, |fs, _| {
            fs.preload(&format!("db/{vol}.idx"), vec![0xAB; 17]);
        });
        assert_master_input_error(&outputs);
    }
}

#[test]
fn full_file_system_degrades_output_to_typed_errors() {
    for io_async in [false, true] {
        let db = small_db();
        let queries = sample_queries(&db, 2);
        let sim = Sim::new(3);
        let env = ClusterEnv::new(&sim, &Platform::altix());
        let db_alias = stage_shared_db(&env.shared, &db);
        let query_path = stage_queries(&env.shared, &queries);
        // Nothing written past this point fits: every report write
        // must surface `StoreError::NoSpace` as `PioError::Output`.
        env.shared.set_capacity(0);
        let cfg = PioBlastConfig {
            platform: Platform::altix(),
            env: env.clone(),
            compute: ComputeModel::modeled(),
            params: SearchParams::blastp(),
            report: ReportOptions::default(),
            db_alias,
            query_path,
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
            threads: 1,
            io: mpiio::IoOptions {
                io_async,
                ..Default::default()
            },
            service: None,
        };
        let outputs = sim.run(|ctx| pioblast::run_rank(&ctx, &cfg)).outputs;
        let writers = outputs
            .iter()
            .filter(|r| matches!(r, Err(PioError::Output(parafs::StoreError::NoSpace { .. }))))
            .count();
        assert!(
            writers > 0,
            "io_async={io_async}: at least one rank must report NoSpace, got {outputs:?}"
        );
        for (rank, r) in outputs.iter().enumerate() {
            assert!(
                r.is_err(),
                "io_async={io_async}: rank {rank} should degrade to an error, got {r:?}"
            );
        }
    }
}
