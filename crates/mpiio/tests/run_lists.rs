//! The file-system operations the plane turns a view into, observed
//! from outside through the `fs.*` trace events.
//!
//! The literal lists below were recorded by this same test body from
//! the binary of the parent of the PR that moved all run-list arithmetic
//! into `mpiio::runs` (then: five merge loops in three modules). They
//! are the definition of "every run list comes out exactly as it did".
//! One change since is deliberate: independent-class writes now join
//! strictly adjacent regions into one operation, as sieved writes do,
//! so those two cases list the sieved writes' operations.

use mpiio::{CollectiveHints, FileView, IoOptions, IoPlane, PlaneConfig, SIEVE_HOLE_LIMIT};
use mpisim::{Comm, NetProfile};
use parafs::{FsProfile, IoClass, SimFs, StoreError};
use simcluster::Sim;
use tracelog::{ArgVal, EventKind, Tracer};

const RANKS: usize = 4;
/// Rank `r`'s view is displaced by `r * STRIDE`.
const STRIDE: u64 = 150_000;

type Runs = Vec<(u64, u64)>;

/// Holes on both sides of the sieve limit: one of 76 bytes, one of
/// exactly `SIEVE_HOLE_LIMIT`, one a byte wider; adjacency at both ends.
fn holey() -> Runs {
    let a = 1_600 + SIEVE_HOLE_LIMIT;
    let b = a + 300 + SIEVE_HOLE_LIMIT + 1;
    vec![
        (0, 1_000),
        (1_000, 24),
        (1_100, 500),
        (a, 300),
        (b, 200),
        (b + 200, 50),
    ]
}

/// Strictly adjacent records.
fn adjacent() -> Runs {
    vec![(0, 100), (100, 50), (150, 70), (220, 30)]
}

fn plane_cfg(class: IoClass, io_async: bool) -> PlaneConfig {
    PlaneConfig {
        options: IoOptions {
            io_async,
            burst: None,
        },
        hints: CollectiveHints { aggregators: 3 },
        input: class,
        output: class,
    }
}

fn net() -> NetProfile {
    NetProfile {
        latency: 5e-6,
        bandwidth: 1e9,
    }
}

/// Every rank reads or writes `regions` displaced by its rank; returns
/// each rank's file-system operations as `(offset, bytes)`, in issue
/// order, and each rank's result. With `full_at`, the output file
/// exists with that many bytes and the file system has no room for one
/// more: a write succeeds exactly if it grows nothing.
fn observe(
    class: IoClass,
    io_async: bool,
    regions: &Runs,
    write: bool,
    full_at: Option<u64>,
) -> (Vec<Runs>, Vec<Result<(), StoreError>>) {
    let sim = Sim::new(RANKS);
    let tracer = Tracer::new(RANKS);
    sim.set_tracer(tracer.clone());
    let fs = SimFs::new(sim.handle(), "xfs", FsProfile::altix_xfs());
    fs.preload("db", vec![7u8; RANKS * STRIDE as usize]);
    if let Some(bytes) = full_at {
        fs.preload("out", vec![0u8; bytes as usize]);
        fs.set_capacity(RANKS as u64 * STRIDE + bytes);
    }
    let regions = regions.clone();
    let out = sim.run(move |ctx| {
        let comm = Comm::new(&ctx, net());
        let plane = IoPlane::new(&comm, &fs, plane_cfg(class, io_async), None);
        let view = FileView::new(ctx.rank() as u64 * STRIDE, regions.clone()).unwrap();
        if write {
            let payload = vec![ctx.rank() as u8 + 1; view.total_bytes() as usize];
            plane.write_output("out", &view, payload)
        } else {
            plane.read_views(&[("db", &view)]).map(drop)
        }
    });
    let trace = tracer.finish(out.elapsed.0);
    let mut per_rank = vec![Runs::new(); RANKS];
    for e in &trace.events {
        let issued = matches!(
            (e.name.as_ref(), e.kind),
            ("fs.read" | "fs.write", EventKind::Begin)
                | ("fs.read.begin" | "fs.write.begin", EventKind::Instant)
        );
        if issued {
            let arg = |key: &str| {
                let found = e.args.iter().find_map(|(k, v)| match v {
                    ArgVal::U64(n) if *k == key => Some(*n),
                    _ => None,
                });
                found.expect("fs events carry offset and bytes")
            };
            per_rank[e.rank].push((arg("offset"), arg("bytes")));
        }
    }
    (per_rank, out.outputs)
}

/// `runs`, displaced for each rank in turn: what the per-rank classes
/// (independent, sieve) issue.
fn on_every_rank(runs: &[(u64, u64)]) -> Vec<Runs> {
    let displaced = |r: u64| runs.iter().map(move |&(o, l)| (r * STRIDE + o, l));
    (0..RANKS as u64).map(|r| displaced(r).collect()).collect()
}

#[test]
fn run_lists_equal_the_parent_commits() {
    let (a, b) = (1_600 + SIEVE_HOLE_LIMIT, 67_436 + SIEVE_HOLE_LIMIT + 1);
    assert_eq!((a, b), (67_136, 132_973));
    // (view, class, write?) -> the operations of ranks 0..4.
    let cases: Vec<(Runs, IoClass, bool, Vec<Runs>)> = vec![
        // Independent: one read per region; one write per stretch of
        // strictly adjacent regions, never through a hole.
        (
            holey(),
            IoClass::Independent,
            false,
            on_every_rank(&holey()),
        ),
        (
            holey(),
            IoClass::Independent,
            true,
            on_every_rank(&[(0, 1_024), (1_100, 500), (67_136, 300), (132_973, 250)]),
        ),
        (
            adjacent(),
            IoClass::Independent,
            false,
            on_every_rank(&adjacent()),
        ),
        (
            adjacent(),
            IoClass::Independent,
            true,
            on_every_rank(&[(0, 250)]),
        ),
        // Sieved reads bridge the 0-, 76- and 65536-byte holes, not the
        // 65537-byte one; sieved writes join only what is adjacent.
        (
            holey(),
            IoClass::Sieved,
            false,
            on_every_rank(&[(0, 67_436), (132_973, 250)]),
        ),
        (
            holey(),
            IoClass::Sieved,
            true,
            on_every_rank(&[(0, 1_024), (1_100, 500), (67_136, 300), (132_973, 250)]),
        ),
        (
            adjacent(),
            IoClass::Sieved,
            false,
            on_every_rank(&[(0, 250)]),
        ),
        (
            adjacent(),
            IoClass::Sieved,
            true,
            on_every_rank(&[(0, 250)]),
        ),
        // Two-phase, 3 aggregators (ranks 0, 1, 2) over 4 ranks' views:
        // each aggregator's domain, adjacent chunks merged, holes kept.
        (holey(), IoClass::TwoPhase, false, two_phase_holey()),
        (holey(), IoClass::TwoPhase, true, two_phase_holey()),
        // The domain bounds (150083, 300166) cut ranks 1's and 2's
        // first records.
        (adjacent(), IoClass::TwoPhase, false, two_phase_adjacent()),
        (adjacent(), IoClass::TwoPhase, true, two_phase_adjacent()),
    ];
    for (regions, class, write, want) in cases {
        for io_async in [false, true] {
            let (got, results) = observe(class, io_async, &regions, write, None);
            let what = format!(
                "{} {} of {} regions, io_async {io_async}",
                class.label(),
                if write { "write" } else { "read" },
                regions.len()
            );
            assert_eq!(got, want, "{what}");
            assert!(results.iter().all(Result::is_ok), "{what}: {results:?}");
        }
    }
}

fn two_phase_holey() -> Vec<Runs> {
    vec![
        vec![
            (0, 1_024),
            (1_100, 500),
            (67_136, 300),
            (132_973, 250),
            (150_000, 1_024),
            (151_100, 500),
        ],
        vec![
            (217_136, 300),
            (282_973, 250),
            (300_000, 1_024),
            (301_100, 500),
            (367_136, 300),
        ],
        vec![
            (432_973, 250),
            (450_000, 1_024),
            (451_100, 500),
            (517_136, 300),
            (582_973, 250),
        ],
        vec![],
    ]
}

fn two_phase_adjacent() -> Vec<Runs> {
    vec![
        vec![(0, 250), (150_000, 83)],
        vec![(150_083, 167), (300_000, 166)],
        vec![(300_166, 84), (450_000, 250)],
        vec![],
    ]
}

#[test]
fn a_failed_run_stops_nothing_and_both_policies_report_the_same_error() {
    // The output file ends after rank 0's third region and cannot grow:
    // every later run fails, late, with `NoSpace`. Both policies attempt
    // every run of the view and report the first failure, in issue
    // order — the serial one used to return at it.
    // Both classes write the six regions as four runs.
    for class in [IoClass::Independent, IoClass::Sieved] {
        let all_runs = 4;
        let mut reported = Vec::new();
        for io_async in [false, true] {
            let (got, results) = observe(class, io_async, &holey(), true, Some(1_600));
            for (rank, runs) in got.iter().enumerate() {
                assert_eq!(runs.len(), all_runs, "rank {rank}, io_async {io_async}");
            }
            let first_to_grow = StoreError::NoSpace {
                path: "out".into(),
                needed: 67_436 - 1_600,
                free: 0,
            };
            assert_eq!(results[0], Err(first_to_grow), "io_async {io_async}");
            reported.push(results);
        }
        assert_eq!(reported[0], reported[1], "{}", class.label());
    }
}
