//! Golden tests for trace diffing (`tracelog::diff`, surfaced as the
//! `pioblast-sim trace-diff` subcommand).
//!
//! The diff aligns two exported runs by `(rank, lane, phase)` and must
//! name the lane that actually moved:
//!
//! * `--threads 4` vs serial: the divergence is in the Search
//!   compute-slot sub-lanes (`search slot k`) — threading reshapes the
//!   search timeline and nothing about the report;
//! * `--io-async` vs sync: the divergence includes the Io lane — the
//!   read-ahead plane overlaps reads that the sync plane serializes;
//! * identical configurations: the diff is empty, byte-for-byte — the
//!   determinism contract seen through the diff tool.

mod common;

use common::{run_opts, Opts};
use pioblast::FragmentSchedule;
use tracelog::chrome;
use tracelog::diff::{diff_profiles, profile_chrome, render_diff, TraceDiff};

/// Run a modeled pioBLAST job and return its Chrome export plus the
/// report bytes.
fn run_export(threads: usize, io_async: bool) -> (String, Vec<u8>) {
    let opts = Opts {
        db_seed: 33,
        traced: true,
        ..Opts::default()
    };
    let done = run_opts(opts, |cfg| {
        cfg.num_fragments = Some(6);
        cfg.collective_output = false;
        cfg.schedule = FragmentSchedule::Dynamic;
        cfg.threads = threads;
        cfg.io.io_async = io_async;
    });
    for r in &done.outputs {
        r.as_ref()
            .expect("nobody killed")
            .as_ref()
            .expect("rank failed");
    }
    assert!(!done.report.is_empty(), "report exists");
    let trace = done.trace.expect("traced");
    (chrome::export_chrome(&trace, None), done.report)
}

fn diff_of(a: &str, b: &str) -> TraceDiff {
    diff_profiles(
        &profile_chrome(a).expect("run A parses"),
        &profile_chrome(b).expect("run B parses"),
    )
}

#[test]
fn identical_runs_diff_empty() {
    let (a, _) = run_export(1, false);
    let (b, _) = run_export(1, false);
    assert_eq!(a, b, "determinism: identical configs export identically");
    let d = diff_of(&a, &b);
    assert!(d.is_empty(), "diff must be empty: {}", render_diff(&d, 20));
    assert!(render_diff(&d, 20).contains("equivalent"));
}

#[test]
fn threaded_vs_serial_diverges_in_search_slot_lanes() {
    let (serial, report_serial) = run_export(1, false);
    let (threaded, report_threaded) = run_export(4, false);
    assert_eq!(
        report_serial, report_threaded,
        "threading must not change report bytes"
    );
    let d = diff_of(&serial, &threaded);
    assert!(!d.is_empty());
    let slot_rows: Vec<_> = d
        .cluster
        .iter()
        .filter(|r| r.lane.starts_with("search slot"))
        .collect();
    assert!(
        !slot_rows.is_empty(),
        "slot sub-lanes must appear in the diff: {}",
        render_diff(&d, 20)
    );
    // Slot lanes exist only in the threaded run: the serial side of
    // every slot row is zero.
    assert!(slot_rows.iter().all(|r| r.a_ns == 0 && r.b_ns > 0));
    let text = render_diff(&d, 20);
    assert!(text.contains("search slot"), "{text}");
}

#[test]
fn async_vs_sync_io_diverges_in_io_lane() {
    let (sync, report_sync) = run_export(1, false);
    let (asynch, report_async) = run_export(1, true);
    assert_eq!(
        report_sync, report_async,
        "read-ahead must not change report bytes"
    );
    let d = diff_of(&sync, &asynch);
    assert!(!d.is_empty());
    assert!(
        d.cluster.iter().any(|r| r.lane == "io"),
        "the io lane must be named: {}",
        render_diff(&d, 20)
    );
    // With the same rank count, the per-rank section pins divergence to
    // specific ranks.
    assert!(d.per_rank.iter().any(|r| r.lane == "io"));
}
