//! Figure 3(b): output-size scalability at a fixed 62 processes — the
//! Table 2 query ladder run through both programs.
//!
//! Paper reference: both programs' totals scale roughly with the output
//! size; mpiBLAST is dominated by result/output time at every size, while
//! pioBLAST is dominated by search, and pioBLAST's non-search time less
//! than doubles from the 11 MB to the 153 MB output (mpiBLAST's grows
//! much faster).

use blast_bench::table::{breakdown_table, save_json};
use blast_bench::workload::{default_db_residues, nr_like};
use blast_bench::{run, Program};
use mpiblast::Platform;
use simcluster::FaultPlan;

fn main() {
    let db_residues = default_db_residues();
    // x8 keeps the smallest ladder step above a single query's size
    // at the default database scale.
    let scale = 8.0 * db_residues as f64 / 1.0e9;
    let platform = Platform::altix();
    let mut rows = Vec::new();
    for (name, paper_bytes) in [
        ("26KB", 26u64 * 1024),
        ("77KB", 77 * 1024),
        ("159KB", 159 * 1024),
        ("289KB", 289 * 1024),
    ] {
        let target = ((paper_bytes as f64 * scale) as u64).max(512);
        let workload = nr_like(db_residues, target, 2005);
        for program in [Program::MpiBlast, Program::PioBlast] {
            let r = run(
                program,
                62,
                None,
                &platform,
                &workload,
                FaultPlan::none(),
                |_| {},
            );
            let s = r.summary;
            println!(
                "ladder {name}: {}-62 output {} bytes, non-search {:.2}s",
                s.program.label(),
                s.output_bytes,
                s.non_search()
            );
            rows.push(s);
        }
    }
    println!();
    println!(
        "{}",
        breakdown_table(
            "Figure 3(b): output scalability at 62 processes (Altix/XFS profile)",
            &rows
        )
    );
    // Shape: pioBLAST's non-search time grows far more slowly with output
    // size than mpiBLAST's.
    let mpi: Vec<_> = rows
        .iter()
        .filter(|r| r.program == Program::MpiBlast)
        .collect();
    let pio: Vec<_> = rows
        .iter()
        .filter(|r| r.program == Program::PioBlast)
        .collect();
    let mpi_growth = mpi.last().unwrap().non_search() / mpi[0].non_search().max(1e-9);
    let pio_growth = pio.last().unwrap().non_search() / pio[0].non_search().max(1e-9);
    println!(
        "non-search growth smallest->largest output: mpiBLAST {mpi_growth:.2}x, pioBLAST {pio_growth:.2}x"
    );
    assert!(
        pio_growth < mpi_growth,
        "pioBLAST's non-search time must grow more slowly with output size"
    );
    for i in 0..4 {
        assert_eq!(
            mpi[i].output_bytes, pio[i].output_bytes,
            "programs must produce identical outputs"
        );
    }
    save_json("fig3b", &rows);
}
