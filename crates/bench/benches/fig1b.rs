//! Figure 1(b): mpiBLAST's sensitivity to the number of pre-partitioned
//! fragments, at a fixed 32 processes.
//!
//! Paper reference (nr, 150 KB query): both the search time and the
//! non-search time rise as the fragment count grows from 31 to 167 —
//! creating many fragments "for running on different numbers of
//! processors" is not viable, which motivates pioBLAST's dynamic virtual
//! partitioning. The drivers reproduced here: each fragment is a separate
//! BLAST engine invocation (query re-preparation, kernel init), adds a
//! copy + per-file I/O overhead, and adds per-(fragment, query) result
//! messages the master must process.

use blast_bench::table::{breakdown_table, save_json};
use blast_bench::workload::{default_db_residues, default_query_bytes, nr_like};
use blast_bench::{run, Program};
use mpiblast::Platform;
use simcluster::FaultPlan;

fn main() {
    let workload = nr_like(default_db_residues(), default_query_bytes(), 2005);
    let platform = Platform::altix();
    let mut rows = Vec::new();
    for nfrags in [31usize, 61, 96, 167] {
        let (mpi, none) = (Program::MpiBlast, FaultPlan::none());
        rows.push(run(mpi, 32, Some(nfrags), &platform, &workload, none, |_| {}).summary);
    }
    println!(
        "{}",
        breakdown_table(
            "Figure 1(b): mpiBLAST at 32 processes vs fragment count (Altix/XFS profile)",
            &rows
        )
    );
    println!("paper reference: total execution time degrades steadily from 31 to 167 fragments");
    for pair in rows.windows(2) {
        assert!(
            pair[1].total > pair[0].total,
            "total time must grow with fragment count: {} -> {}",
            pair[0].total,
            pair[1].total
        );
    }
    save_json("fig1b", &rows);
}
