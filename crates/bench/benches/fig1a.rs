//! Figure 1(a): distribution of mpiBLAST execution time between search
//! and non-search ("other") as process counts grow, on the nt-like
//! (multi-volume) workload.
//!
//! Paper reference: with 16 processes 95.6% of the time is search; with
//! 64 processes only 70.7% is — the non-search share triples while total
//! time stops improving. The reproduction must show the same monotonic
//! slide of the search share.

use blast_bench::table::{save_json, split_series};
use blast_bench::workload::{default_db_residues, default_query_bytes, nt_like};
use blast_bench::{run, Program};
use mpiblast::Platform;
use simcluster::FaultPlan;

fn main() {
    let workload = nt_like(default_db_residues(), default_query_bytes(), 2003);
    let platform = Platform::altix();
    let mut rows = Vec::new();
    for nprocs in [16usize, 32, 64] {
        let (mpi, none) = (Program::MpiBlast, FaultPlan::none());
        rows.push(run(mpi, nprocs, None, &platform, &workload, none, |_| {}).summary);
    }
    println!(
        "{}",
        split_series(
            "Figure 1(a): mpiBLAST search vs other time, nt-sim (Altix/XFS profile)",
            &rows
        )
    );
    println!("paper reference: search share 95.6% at 16 procs -> 70.7% at 64 procs");
    for pair in rows.windows(2) {
        assert!(
            pair[1].search_share() < pair[0].search_share(),
            "search share must fall as processes grow"
        );
    }
    save_json("fig1a", &rows);
}
