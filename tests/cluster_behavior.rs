//! Cross-crate behavioural tests of the simulated cluster runs: phase
//! accounting, file-system traffic, determinism, and the paper's headline
//! performance orderings at test scale.

mod common;

use std::sync::Arc;

use blast_core::search::SearchParams;
use blast_core::seq::SeqRecord;
use common::{staged, OUTPUT};
use mpiblast::report::{serial_report, ReportOptions};
use mpiblast::setup::{stage_fragments, stage_queries};
use mpiblast::{phases, ClusterEnv, ComputeModel, ModelParams, MpiBlastConfig, Platform};
use pioblast::PioBlastConfig;
use seqfmt::formatdb::{format_records, FormatDbConfig};
use seqfmt::sampler::sample_queries;
use seqfmt::synth::{generate, SynthConfig};
use seqfmt::FormattedDb;
use simcluster::{Sim, SimDuration};

fn workload(seed: u64) -> (FormattedDb, Vec<SeqRecord>) {
    let records = generate(&SynthConfig::nr_like(seed, 80_000));
    let db = format_records(&records, &FormatDbConfig::protein("nr-beh"));
    let queries = sample_queries(&records, 1500, seed ^ 1);
    (db, queries)
}

#[test]
fn pioblast_moves_less_shared_fs_data_than_mpiblast() {
    let (db, queries) = workload(3);
    let nprocs = 5;

    // mpiBLAST on the Altix profile: fragments are copied to shared
    // scratch and read back — three traversals of the database.
    let sim = Sim::new(nprocs);
    let env = ClusterEnv::new(&sim, &Platform::altix());
    let fragment_names = stage_fragments(&env.shared, &db, nprocs - 1);
    let query_path = stage_queries(&env.shared, &queries);
    let cfg = MpiBlastConfig::new(
        &Platform::altix(),
        &env,
        fragment_names,
        &query_path,
        OUTPUT,
    );
    sim.run(|ctx| mpiblast::run_rank(&ctx, &cfg));
    let mpi_counters = cfg.env.shared.counters();

    // pioBLAST: one ranged traversal.
    let sim = Sim::new(nprocs);
    let cfg = staged(&sim, &Platform::altix(), &db, &queries);
    sim.run(|ctx| pioblast::run_rank(&ctx, &cfg));
    let pio_counters = cfg.env.shared.counters();

    // On the Altix profile the scratch "local" copy lives on the shared
    // file system, so mpiBLAST traverses the database twice (copy +
    // mmap-read) where pioBLAST reads it once.
    assert!(
        pio_counters.bytes_read * 3 < mpi_counters.bytes_read * 2,
        "pio read {} bytes, mpi read {} bytes",
        pio_counters.bytes_read,
        mpi_counters.bytes_read
    );
    // mpiBLAST also writes the fragment copies; pioBLAST writes only the
    // report.
    assert!(pio_counters.bytes_written < mpi_counters.bytes_written);
}

#[test]
fn phase_totals_cover_the_run() {
    let (db, queries) = workload(5);
    let sim = Sim::new(4);
    let cfg = staged(&sim, &Platform::altix(), &db, &queries);
    let outcome = sim.run(|ctx| pioblast::run_rank(&ctx, &cfg));
    let total = outcome.elapsed.since(simcluster::SimTime::ZERO);
    for (rank, report) in outcome.outputs.iter().enumerate() {
        let report = report.as_ref().expect("rank completed");
        let sum = report.phases.total();
        assert!(
            sum <= total + SimDuration::from_millis(1),
            "rank {rank}: phase sum {sum} exceeds total {total}"
        );
        if rank > 0 {
            assert!(report.phases.get(phases::SEARCH) > SimDuration::ZERO);
        }
    }
}

#[test]
fn virtual_time_is_host_independent() {
    // Two modeled runs must agree to the nanosecond, regardless of host
    // load — the property that makes the figure harnesses reproducible.
    let elapsed: Vec<u64> = (0..2)
        .map(|_| {
            let (db, queries) = workload(7);
            let sim = Sim::new(6);
            let cfg = staged(&sim, &Platform::blade_cluster(), &db, &queries);
            let out = sim.run(|ctx| pioblast::run_rank(&ctx, &cfg));
            out.elapsed.0
        })
        .collect();
    assert_eq!(elapsed[0], elapsed[1]);
}

#[test]
fn measured_and_modeled_modes_agree_on_results() {
    // The compute mode only changes virtual-time charges; the report
    // bytes must be identical — to each other and to the serial oracle,
    // whether the ranks share one prepared query set (modeled) or each
    // build their own (measured).
    let (db, queries) = workload(13);
    let oracle = serial_report(
        &SearchParams::blastp(),
        queries.clone(),
        &db,
        ReportOptions::default(),
    )
    .expect("oracle report");
    let mut outputs = Vec::new();
    for compute in [ComputeModel::modeled(), ComputeModel::measured()] {
        let sim = Sim::new(4);
        let cfg = PioBlastConfig {
            compute,
            ..staged(&sim, &Platform::altix(), &db, &queries)
        };
        sim.run(|ctx| pioblast::run_rank(&ctx, &cfg));
        outputs.push(cfg.env.shared.peek(OUTPUT).unwrap());
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[0], oracle);
}

#[test]
fn every_rank_is_charged_for_its_own_prepare() {
    // Sharing the prepared query set is a host-side economy: each rank's
    // virtual clock must still pay for a preparation of its own.
    let (db, queries) = workload(17);
    let params = SearchParams::blastp();
    let residues: u64 = queries.iter().map(|q| q.len() as u64).sum();
    let nranks = 6;
    let prepare_on_every_rank = |model: ComputeModel| {
        Sim::new(nranks)
            .run(|ctx| {
                let before = ctx.now();
                let prepared = model.run_prepare(&ctx, &params, &queries, db.stats());
                (ctx.now() - before, prepared)
            })
            .outputs
    };

    // Modeled: exactly the analytical charge on every rank, one build.
    let per_residue = ModelParams::default().per_prepare_residue;
    let charge = SimDuration::from_secs_f64(per_residue * residues as f64);
    let modeled = prepare_on_every_rank(ComputeModel::modeled());
    for (rank, (advance, prepared)) in modeled.iter().enumerate() {
        assert_eq!(*advance, charge, "rank {rank}");
        assert!(Arc::ptr_eq(prepared, &modeled[0].1), "rank {rank} shares");
    }
    // Once the job's ranks let go, nothing keeps the table alive.
    let watch = Arc::downgrade(&modeled[0].1);
    drop(modeled);
    assert!(watch.upgrade().is_none());

    // Measured: host time is the model, so every rank builds its own and
    // is charged what its own build took.
    let measured = prepare_on_every_rank(ComputeModel::measured());
    for (rank, (advance, prepared)) in measured.iter().enumerate() {
        assert!(*advance > SimDuration::ZERO, "rank {rank} charged nothing");
        for (_, other) in &measured[..rank] {
            assert!(!Arc::ptr_eq(prepared, other), "rank {rank} did not build");
        }
    }
}

#[test]
fn nfs_slows_everything_down() {
    let (db, queries) = workload(11);
    let mut totals = Vec::new();
    for platform in [Platform::altix(), Platform::blade_cluster()] {
        let sim = Sim::new(4);
        let cfg = staged(&sim, &platform, &db, &queries);
        totals.push(sim.run(|ctx| pioblast::run_rank(&ctx, &cfg)).elapsed);
    }
    assert!(
        totals[1] > totals[0],
        "NFS run ({}) must be slower than XFS run ({})",
        totals[1],
        totals[0]
    );
}
