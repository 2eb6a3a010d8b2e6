//! Figure 4: process scalability on the NCSU blade cluster — gigabit
//! Ethernet, node-local disks, and an NFS shared file system whose
//! aggregate bandwidth barely exceeds one client's.
//!
//! Paper reference: the same trends as on the Altix, but the slow shared
//! file system bites both programs: pioBLAST's search share falls from
//! 93% at 4 processes to 64% at 32 (much worse than on XFS, though still
//! far better than mpiBLAST's 50% -> 14%).

use blast_bench::table::{breakdown_table, save_json};
use blast_bench::workload::{default_db_residues, default_query_bytes, nr_like};
use blast_bench::{run, Program};
use mpiblast::Platform;
use simcluster::FaultPlan;

fn main() {
    let workload = nr_like(default_db_residues(), default_query_bytes(), 2005);
    let platform = Platform::blade_cluster();
    let mut rows = Vec::new();
    for nprocs in [4usize, 8, 16, 32] {
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
            "Figure 4: process scalability, nr-sim (NCSU blade cluster / NFS profile)",
            &rows
        )
    );
    let share = |prog, n| {
        rows.iter()
            .find(|r| r.program == prog && r.nprocs == n)
            .map(|r| 100.0 * r.search_share())
            .unwrap()
    };
    println!(
        "pioBLAST search share: {:.1}% at 4 -> {:.1}% at 32 (paper: 93% -> 64%)",
        share(Program::PioBlast, 4),
        share(Program::PioBlast, 32)
    );
    println!(
        "mpiBLAST search share: {:.1}% at 4 -> {:.1}% at 32 (paper: 50% -> 14%)",
        share(Program::MpiBlast, 4),
        share(Program::MpiBlast, 32)
    );
    // Shape: NFS degrades pioBLAST's share markedly (unlike XFS), but it
    // stays well above mpiBLAST's at every size.
    assert!(share(Program::PioBlast, 32) < share(Program::PioBlast, 4) - 10.0);
    for n in [4usize, 8, 16, 32] {
        assert!(share(Program::PioBlast, n) > share(Program::MpiBlast, n));
    }
    save_json("fig4", &rows);
}
