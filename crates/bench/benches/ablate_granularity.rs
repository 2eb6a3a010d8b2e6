//! Ablation: virtual-partition granularity (paper §5).
//!
//! pioBLAST's framework makes the fragment count a run-time knob: finer
//! virtual fragments enable load balancing, but each fragment costs a
//! fixed kernel setup and extra ranged reads. The paper proposes
//! "starting from coarse fragments and gradually refining"; this harness
//! quantifies the trade-off by sweeping fragments-per-worker at a fixed
//! 32 processes.

use blast_bench::table::breakdown_table;
use blast_bench::workload::{default_db_residues, default_query_bytes, nr_like};
use blast_bench::{run, Program};
use mpiblast::Platform;
use simcluster::FaultPlan;

fn main() {
    let workload = nr_like(default_db_residues(), default_query_bytes(), 2005);
    let platform = Platform::altix();
    let workers = 31usize;
    let mut rows = Vec::new();
    for per_worker in [1usize, 2, 4, 8] {
        let (pio, nfrags, none) = (Program::PioBlast, workers * per_worker, FaultPlan::none());
        rows.push(run(pio, 32, Some(nfrags), &platform, &workload, none, |_| {}).summary);
    }
    println!(
        "{}",
        breakdown_table(
            "Ablation: pioBLAST virtual-fragment granularity, 32 processes (Altix/XFS)",
            &rows
        )
    );
    println!(
        "natural partitioning (1 fragment/worker) total: {:.2}s; 8 fragments/worker: {:.2}s",
        rows[0].total,
        rows.last().unwrap().total
    );
    // The paper's observation: very fine granularity costs more (per-
    // fragment overheads) — it must not be free.
    assert!(rows.last().unwrap().total > rows[0].total * 0.9);
}
