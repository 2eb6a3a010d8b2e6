//! Figure 3(a): node scalability of mpiBLAST vs pioBLAST on the Altix,
//! 4 to 62 processes, natural partitioning, fixed query set.
//!
//! Paper reference: both programs' search times scale down nicely, but
//! mpiBLAST's non-search time grows with workers until (past 31 workers)
//! it *reverses* the total-time curve; pioBLAST's non-search time keeps
//! shrinking, it achieves a 1.86x speedup from 32 to 62 processes, and
//! still spends 92.4% of its time searching with 61 workers (mpiBLAST:
//! 10.3%).

use blast_bench::table::{breakdown_table, save_json};
use blast_bench::workload::{default_db_residues, default_query_bytes, nr_like};
use blast_bench::{run, Program};
use mpiblast::Platform;
use simcluster::FaultPlan;

fn main() {
    let workload = nr_like(default_db_residues(), default_query_bytes(), 2005);
    let platform = Platform::altix();
    let mut rows = Vec::new();
    for nprocs in [4usize, 8, 16, 32, 62] {
        for program in [Program::MpiBlast, Program::PioBlast] {
            let r = run(
                program,
                nprocs,
                None,
                &platform,
                &workload,
                FaultPlan::none(),
                |_| {},
            );
            rows.push(r.summary);
        }
    }
    println!(
        "{}",
        breakdown_table(
            "Figure 3(a): node scalability, nr-sim (Altix/XFS profile)",
            &rows
        )
    );
    let pio: Vec<_> = rows
        .iter()
        .filter(|r| r.program == Program::PioBlast)
        .collect();
    let mpi: Vec<_> = rows
        .iter()
        .filter(|r| r.program == Program::MpiBlast)
        .collect();
    let pio32 = pio.iter().find(|r| r.nprocs == 32).unwrap();
    let pio62 = pio.iter().find(|r| r.nprocs == 62).unwrap();
    let mpi32 = mpi.iter().find(|r| r.nprocs == 32).unwrap();
    let mpi62 = mpi.iter().find(|r| r.nprocs == 62).unwrap();
    println!(
        "pioBLAST 32->62 speedup: {:.2}x (paper: 1.86x); search share at 62: {:.1}% (paper: 92.4%)",
        pio32.total / pio62.total,
        100.0 * pio62.search_share()
    );
    println!(
        "mpiBLAST total 32->62: {:.2}s -> {:.2}s (paper: grows); search share at 62: {:.1}% (paper: 10.3%)",
        mpi32.total, mpi62.total,
        100.0 * mpi62.search_share()
    );
    // Shape assertions.
    assert!(
        pio62.total < pio32.total,
        "pioBLAST must keep speeding up past 32 processes"
    );
    assert!(
        mpi62.total >= mpi32.total * 0.98,
        "mpiBLAST must stop improving past ~31 workers"
    );
    assert!(pio62.search_share() > mpi62.search_share() * 3.0);
    save_json("fig3a", &rows);
}
