//! The paper's §5 extensions in one run: a heterogeneous 16-rank cluster
//! (three nodes 4x slower), fine-grained virtual fragments with
//! demand-driven scheduling, and memory-bounded query batching — all
//! while the report stays byte-identical to the plain configuration.
//!
//! Run with: `cargo run --release --example adaptive_cluster`

use mpiblast::setup::{stage_queries, stage_shared_db};
use mpiblast::{ClusterEnv, Platform};
use pioblast::{FragmentSchedule, PioBlastConfig};
use seqfmt::formatdb::{format_records, FormatDbConfig};
use seqfmt::sampler::sample_queries;
use seqfmt::synth::{generate, SynthConfig};
use simcluster::Sim;

struct RunSpec {
    label: &'static str,
    num_fragments: Option<usize>,
    schedule: FragmentSchedule,
    query_batch: Option<usize>,
}

fn main() {
    let records = generate(&SynthConfig::nr_like(42, 1_500_000));
    let db = format_records(&records, &FormatDbConfig::protein("nr-sim"));
    let queries = sample_queries(&records, 3000, 7);
    let nprocs = 16usize;
    // Ranks 5, 10, 15 are 4x slower.
    let mut scales = vec![1.0f64; nprocs];
    for r in [5usize, 10, 15] {
        scales[r] = 4.0;
    }
    println!(
        "cluster: {nprocs} ranks, 3 of them 4x slower; db {} residues, {} queries\n",
        db.stats().total_residues,
        queries.len()
    );

    let specs = [
        RunSpec {
            label: "paper default (static, natural partitioning)",
            num_fragments: None,
            schedule: FragmentSchedule::Static,
            query_batch: None,
        },
        RunSpec {
            label: "fine fragments, static",
            num_fragments: Some((nprocs - 1) * 4),
            schedule: FragmentSchedule::Static,
            query_batch: None,
        },
        RunSpec {
            label: "fine fragments, dynamic (work stealing)",
            num_fragments: Some((nprocs - 1) * 4),
            schedule: FragmentSchedule::Dynamic,
            query_batch: None,
        },
        RunSpec {
            label: "dynamic + query batching (batch = 2)",
            num_fragments: Some((nprocs - 1) * 4),
            schedule: FragmentSchedule::Dynamic,
            query_batch: Some(2),
        },
    ];

    let mut reference: Option<Vec<u8>> = None;
    for spec in specs {
        let sim = Sim::new(nprocs);
        let platform = Platform::altix();
        let env = ClusterEnv::new(&sim, &platform);
        let db_alias = stage_shared_db(&env.shared, &db);
        let query_path = stage_queries(&env.shared, &queries);
        let cfg = PioBlastConfig {
            num_fragments: spec.num_fragments,
            query_batch: spec.query_batch,
            schedule: spec.schedule,
            rank_compute: Some(scales.clone()),
            ..PioBlastConfig::new(&platform, &env, &db_alias, &query_path, "out.txt")
        };
        let outcome = sim.run(|ctx| pioblast::run_rank(&ctx, &cfg));
        let report = env.shared.peek("out.txt").unwrap();
        match &reference {
            None => reference = Some(report),
            Some(r) => assert_eq!(r, &report, "all configurations must agree byte-for-byte"),
        }
        println!(
            "{:<48} total {:>7.3}s",
            spec.label,
            outcome.elapsed.as_secs_f64()
        );
    }
    println!(
        "\nall four reports are byte-identical ({} bytes)",
        reference.unwrap().len()
    );
}
