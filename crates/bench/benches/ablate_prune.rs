//! Ablation: worker-side local result pruning (paper §5, "early score
//! communication" in its always-correct local form).
//!
//! A worker can never contribute more alignments to the global output
//! than the report limits, so pruning its local list to `max(-v, -b)`
//! before formatting is free of correctness risk and cuts the dominant
//! worker-side output cost (formatting records that can never be
//! selected). The effect appears when per-worker candidate counts exceed
//! the limits — i.e. at small worker counts or tight report limits; this
//! harness uses tightened limits to expose it.

use blast_bench::table::breakdown_table;
use blast_bench::workload::{default_db_residues, default_query_bytes, nr_like};
use blast_bench::{run, Program};
use mpiblast::{Platform, ReportOptions};
use simcluster::FaultPlan;

fn main() {
    let mut workload = nr_like(default_db_residues(), default_query_bytes(), 2005);
    // Tight limits (like `-v 10 -b 5`): most candidates will not appear.
    workload.report = ReportOptions {
        num_descriptions: 10,
        num_alignments: 5,
    };
    let platform = Platform::altix();
    let mut rows = Vec::new();
    for prune in [false, true] {
        let (pio, none) = (Program::PioBlast, FaultPlan::none());
        let r = run(pio, 8, None, &platform, &workload, none, |cfg| {
            cfg.local_prune = prune
        });
        rows.push(r.summary);
    }
    println!(
        "{}",
        breakdown_table(
            "Ablation: local result pruning, pioBLAST at 8 processes, -v10 -b5 (Altix/XFS)",
            &rows
        )
    );
    println!(
        "no pruning: output {:.3}s | local pruning: output {:.3}s ({:.2}x)",
        rows[0].output,
        rows[1].output,
        rows[0].output / rows[1].output.max(1e-9)
    );
    assert_eq!(
        rows[0].output_bytes, rows[1].output_bytes,
        "pruning must not change the report"
    );
    assert!(
        rows[1].output <= rows[0].output,
        "pruning must not slow the output stage"
    );
}
