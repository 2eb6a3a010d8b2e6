//! Table 1: breakdown of execution time for mpiBLAST and pioBLAST
//! searching a sampled query set against the nr-like database with 32
//! processes (natural partitioning: 31 fragments / 31 workers).
//!
//! Paper reference (seconds, real nr on the ORNL Altix):
//!
//! |          | Copy/Input | Search | Output | Other | Total  |
//! |----------|-----------:|-------:|-------:|------:|-------:|
//! | mpiBLAST |       17.1 |  318.5 | 1007.2 |  11.3 | 1354.1 |
//! | pioBLAST |        0.4 |  281.7 |   15.4 |  10.4 |  307.9 |
//!
//! The reproduction runs a ~12 M-residue synthetic nr at a query size
//! scaled the same way, and should reproduce the *shape*: pioBLAST wins
//! Copy/Input and Output by an order of magnitude, Search is similar
//! (slightly lower for pioBLAST), and the overall speedup is severalfold.

use blast_bench::table::{breakdown_table, save_json};
use blast_bench::workload::{default_db_residues, default_query_bytes, nr_like};
use blast_bench::{run, Program};
use mpiblast::Platform;
use simcluster::FaultPlan;

fn main() {
    let workload = nr_like(default_db_residues(), default_query_bytes(), 2005);
    let platform = Platform::altix();
    let rows = [Program::MpiBlast, Program::PioBlast].map(|program| {
        run(
            program,
            32,
            None,
            &platform,
            &workload,
            FaultPlan::none(),
            |_| {},
        )
        .summary
    });
    println!(
        "{}",
        breakdown_table(
            "Table 1: phase breakdown, 32 processes, nr-sim (Altix/XFS profile)",
            &rows
        )
    );
    let (mpi, pio) = (&rows[0], &rows[1]);
    println!(
        "pioBLAST vs mpiBLAST:  copy/input {:.1}x  output {:.1}x  total {:.1}x  (paper: 43x, 65x, 4.4x)",
        mpi.copy_input / pio.copy_input.max(1e-9),
        mpi.output / pio.output.max(1e-9),
        mpi.total / pio.total.max(1e-9),
    );
    save_json("table1", &rows);
}
