//! Ablation: what does intra-rank slot parallelism buy once the I/O
//! plane is out of the way?
//!
//! pioBLAST's `--threads N` shards each granted fragment's subject scan
//! across N virtual compute slots inside a rank; the DES charges the
//! maximum slot load plus per-shard fork/join, while the fragment's
//! fixed kernel setup stays serial (it does not replicate per shard).
//! This harness holds the workload fixed and sweeps 1/2/4/8 slots at 16
//! ranks on every platform profile, skipping counts the profile's
//! hardware cannot schedule (`--threads` > `cores_per_node` is a typed
//! config error, and silently clamping would misreport coverage).
//!
//! Assertions, per the hybrid-parallelism roadmap item:
//! * the merged report is byte-identical at every slot count — the
//!   deterministic shard merge is doing its job;
//! * the SEARCH-phase critical path strictly shrinks as slots double;
//! * headline: on the blade cluster, 4 slots shrink the SEARCH critical
//!   path >= 2.5x vs 1 slot;
//! * the slot-parallel Chrome export passes the trace-check validator
//!   (per-slot sub-lanes included) and every rank's flat phase timeline
//!   still tiles `[0, wall]` exactly.
//!
//! Results land in `BENCH_hybrid.json` at the workspace root.

use blast_bench::report::{round4, save_bench, Value};
use blast_bench::workload::{default_db_residues, default_query_bytes, nr_like, Workload};
use blast_bench::{run, Program, Run};
use mpiblast::Platform;
use simcluster::FaultPlan;

const RANKS: usize = 16;
const SLOTS: [usize; 4] = [1, 2, 4, 8];

fn run_one(platform: &Platform, workload: &Workload, slots: usize) -> Run {
    let r = run(
        Program::PioBlast,
        RANKS,
        None,
        platform,
        workload,
        FaultPlan::none(),
        |cfg| cfg.threads = slots,
    );
    // Slot-parallel compute must not corrupt the per-rank accounting:
    // every rank's flat phase timeline still tiles [0, wall] exactly.
    for rank in 0..RANKS {
        let mut cursor = 0;
        for seg in tracelog::analyze::rank_phase_timeline(&r.trace, rank) {
            assert_eq!(seg.start, cursor, "rank {rank}: gap in phase timeline");
            cursor = seg.end;
        }
        assert_eq!(cursor, r.trace.wall, "rank {rank}: span sums != DES wall");
    }
    assert!(!r.report.is_empty(), "merged output present");
    r
}

fn main() {
    // Three times the default database: per-fragment residue cost must
    // dominate the fixed per-fragment kernel setup, or there is nothing
    // for slot parallelism to win.
    let workload = nr_like(3 * default_db_residues(), default_query_bytes(), 2005);
    println!("== Ablation: intra-rank compute slots, 16 ranks, all profiles ==");
    println!(
        "{:<35} {:>5} {:>10} {:>12} {:>10}",
        "platform", "slots", "elapsed(s)", "search(s)", "vs 1 slot"
    );
    let mut platforms = Vec::new();
    let mut blade_shrink = None;
    for platform in [
        Platform::altix(),
        Platform::blade_cluster(),
        Platform::manycore(),
    ] {
        for &skipped in SLOTS.iter().filter(|&&s| s > platform.cores_per_node) {
            println!(
                "{:<35} {:>5} skipped: exceeds the profile's {} hardware threads",
                platform.name, skipped, platform.cores_per_node
            );
        }
        // (slots, run); the summary's `search` is the SEARCH-phase part
        // of the trace-derived critical path.
        let mut runs: Vec<(usize, Run)> = Vec::new();
        for &slots in SLOTS.iter().filter(|&&s| s <= platform.cores_per_node) {
            let r = run_one(&platform, &workload, slots);
            let serial = runs
                .first()
                .map_or(r.summary.search, |(_, b)| b.summary.search);
            println!(
                "{:<35} {:>5} {:>10.3} {:>12.3} {:>9.2}x",
                platform.name,
                slots,
                r.summary.total,
                r.summary.search,
                serial / r.summary.search
            );
            runs.push((slots, r));
        }
        // Byte-identity: every slot count produces the serial report.
        for (slots, r) in &runs[1..] {
            assert_eq!(
                r.report, runs[0].1.report,
                "{}: {slots} slots changed the merged report bytes",
                platform.name
            );
        }
        // Doubling the slots must strictly shrink the SEARCH critical
        // path — the residue scan is the parallel part and dominates.
        for w in runs.windows(2) {
            let [(from, a), (to, b)] = w else {
                unreachable!()
            };
            assert!(
                b.summary.search < a.summary.search,
                "{}: SEARCH path must shrink going {from} -> {to} slots ({:.3}s -> {:.3}s)",
                platform.name,
                a.summary.search,
                b.summary.search
            );
        }
        let rows = runs.iter().map(|(slots, r)| {
            Value::object([
                ("slots", (*slots).into()),
                ("elapsed_s", r.summary.total.into()),
                ("search_path_s", r.summary.search.into()),
                ("output_bytes", r.report.len().into()),
                ("bytes_identical", true.into()),
            ])
        });
        platforms.push(Value::object([
            ("platform", platform.name.as_str().into()),
            ("cores_per_node", platform.cores_per_node.into()),
            ("runs", Value::array(rows)),
        ]));

        if platform.name.contains("Blade") {
            let at = |n| &runs.iter().find(|(slots, _)| *slots == n).expect("run").1;
            let (one, four) = (at(1), at(4));
            let shrink = one.summary.search / four.summary.search.max(1e-12);
            println!(
                "{:<35} headline: 4 slots shrink SEARCH {shrink:.2}x vs 1 slot",
                platform.name
            );
            assert!(
                shrink >= 2.5,
                "{}: 4 slots must shrink the SEARCH critical path >= 2.5x \
                 vs 1 slot (got {shrink:.2}x)",
                platform.name
            );
            // Validator coverage on the slot-parallel trace: the Chrome
            // export routes each slot's slices to its own sub-thread and
            // still balances begin/end with monotone time everywhere.
            let chrome = tracelog::chrome::export_chrome(&four.trace, None);
            let stats = tracelog::check::validate_chrome(&chrome)
                .expect("slot-parallel chrome export validates");
            assert_eq!(stats.ranks, RANKS);
            assert!(
                chrome.contains("\"search slot 3\""),
                "4-slot run must populate all four slot sub-lanes"
            );
            blade_shrink = Some(shrink);
        }
    }
    let blade_shrink = blade_shrink.expect("blade profile missing from the sweep");
    save_bench(
        "hybrid",
        &Value::object([
            ("bench", "ablate_hybrid".into()),
            ("ranks", RANKS.into()),
            ("platforms", Value::Array(platforms)),
            (
                "blade_headline",
                Value::object([
                    ("slots", 4usize.into()),
                    ("search_shrink_vs_serial", round4(blade_shrink).into()),
                    ("bytes_identical", true.into()),
                    ("trace_validated", true.into()),
                ]),
            ),
        ]),
    );
    println!("slot parallelism pays exactly where search still dominates the critical path");
}
