//! The paper's central correctness requirement, tested across the whole
//! stack: given the same query and database, the serial reference,
//! mpiBLAST, and pioBLAST produce **byte-identical** output — for any
//! worker count, fragment count, platform, and volume layout.

mod common;

use blast_core::search::SearchParams;
use blast_core::seq::SeqRecord;
use blast_core::Molecule;
use common::{staged, OUTPUT};
use mpiblast::report::{serial_report, ReportOptions};
use mpiblast::setup::{stage_fragments, stage_queries};
use mpiblast::{ClusterEnv, MpiBlastConfig, Platform};
use pioblast::PioBlastConfig;
use seqfmt::formatdb::{format_records, FormatDbConfig};
use seqfmt::sampler::sample_queries;
use seqfmt::synth::{generate, SynthConfig};
use seqfmt::FormattedDb;
use simcluster::Sim;

fn build_db(seed: u64, residues: u64, volume_cap: Option<u64>) -> (FormattedDb, Vec<SeqRecord>) {
    let records = generate(&SynthConfig::nr_like(seed, residues));
    let cfg = FormatDbConfig {
        title: "nr-eq".into(),
        molecule: Molecule::Protein,
        volume_residue_cap: volume_cap,
    };
    (format_records(&records, &cfg), records)
}

fn run_mpi(
    db: &FormattedDb,
    queries: &[SeqRecord],
    nprocs: usize,
    nfrags: usize,
    platform: Platform,
) -> Vec<u8> {
    let sim = Sim::new(nprocs);
    let env = ClusterEnv::new(&sim, &platform);
    let fragment_names = stage_fragments(&env.shared, db, nfrags);
    let query_path = stage_queries(&env.shared, queries);
    let cfg = MpiBlastConfig::new(&platform, &env, fragment_names, &query_path, OUTPUT);
    sim.run(|ctx| mpiblast::run_rank(&ctx, &cfg));
    env.shared.peek(OUTPUT).expect("mpi output")
}

fn run_pio(
    db: &FormattedDb,
    queries: &[SeqRecord],
    nprocs: usize,
    nfrags: Option<usize>,
    platform: Platform,
    collective: bool,
) -> Vec<u8> {
    let sim = Sim::new(nprocs);
    let cfg = PioBlastConfig {
        num_fragments: nfrags,
        collective_output: collective,
        ..staged(&sim, &platform, db, queries)
    };
    sim.run(|ctx| pioblast::run_rank(&ctx, &cfg));
    cfg.env.shared.peek(OUTPUT).expect("pio output")
}

#[test]
fn all_three_implementations_agree() {
    let (db, records) = build_db(99, 60_000, None);
    let queries = sample_queries(&records, 1200, 5);
    let oracle = serial_report(
        &SearchParams::blastp(),
        queries.clone(),
        &db,
        ReportOptions::default(),
    )
    .expect("serial oracle");
    assert!(!oracle.is_empty());
    let mpi = run_mpi(&db, &queries, 5, 4, Platform::altix());
    let pio = run_pio(&db, &queries, 5, None, Platform::altix(), true);
    assert_eq!(
        String::from_utf8_lossy(&mpi),
        String::from_utf8_lossy(&oracle),
        "mpiBLAST differs from the serial oracle"
    );
    assert_eq!(
        String::from_utf8_lossy(&pio),
        String::from_utf8_lossy(&oracle),
        "pioBLAST differs from the serial oracle"
    );
}

#[test]
fn agreement_holds_across_worker_counts() {
    let (db, records) = build_db(7, 50_000, None);
    let queries = sample_queries(&records, 800, 3);
    let reference = run_pio(&db, &queries, 3, None, Platform::altix(), true);
    for nprocs in [2usize, 4, 9] {
        let out = run_pio(&db, &queries, nprocs, None, Platform::altix(), true);
        assert_eq!(out, reference, "pio with {nprocs} procs");
        let out = run_mpi(&db, &queries, nprocs, nprocs.max(3) - 1, Platform::altix());
        assert_eq!(out, reference, "mpi with {nprocs} procs");
    }
}

#[test]
fn agreement_holds_for_weird_fragment_counts() {
    let (db, records) = build_db(13, 50_000, None);
    let queries = sample_queries(&records, 800, 3);
    let reference = run_pio(&db, &queries, 4, None, Platform::altix(), true);
    for nfrags in [1usize, 2, 17, 40] {
        let out = run_mpi(&db, &queries, 4, nfrags, Platform::altix());
        assert_eq!(out, reference, "mpi with {nfrags} fragments");
        let out = run_pio(&db, &queries, 4, Some(nfrags), Platform::altix(), true);
        assert_eq!(out, reference, "pio with {nfrags} virtual fragments");
    }
}

#[test]
fn agreement_holds_on_multivolume_databases() {
    let (db_multi, records) = build_db(21, 60_000, Some(20_000));
    assert!(db_multi.volumes.len() >= 3, "want a multi-volume database");
    let (db_single, _) = build_db(21, 60_000, None);
    let queries = sample_queries(&records, 800, 3);
    let a = run_pio(&db_multi, &queries, 5, None, Platform::altix(), true);
    let b = run_pio(&db_single, &queries, 5, None, Platform::altix(), true);
    let c = run_mpi(&db_multi, &queries, 5, 4, Platform::altix());
    assert_eq!(a, b, "volume layout must not change output");
    assert_eq!(a, c);
}

#[test]
fn agreement_holds_on_the_nfs_platform_and_without_collectives() {
    let (db, records) = build_db(31, 40_000, None);
    let queries = sample_queries(&records, 600, 3);
    let a = run_pio(&db, &queries, 4, None, Platform::altix(), true);
    let b = run_pio(&db, &queries, 4, None, Platform::blade_cluster(), true);
    let c = run_pio(&db, &queries, 4, None, Platform::blade_cluster(), false);
    let d = run_mpi(&db, &queries, 4, 3, Platform::blade_cluster());
    assert_eq!(a, b);
    assert_eq!(a, c, "independent-write ablation must not change bytes");
    assert_eq!(a, d);
}
