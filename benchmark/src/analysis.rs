//! Source T: per-layer numbers read from the traced run and from the
//! counters the program already exports. Everything here is on the
//! virtual clock or a count, so it is exact for fixed inputs.

use mpiblast::phases;
use pioblast::ServiceMetrics;
use tracelog::{ArgVal, EventKind, Lane, Trace};

use crate::job::JobOutcome;
use crate::metrics::Values;
use crate::stats::ratio;
use crate::workloads::{Mode, Spec};

/// The phase precedence the paper's charts imply (the same order
/// `blast_bench::runner::PHASE_PRECEDENCE` uses; copied so the benchmark
/// does not depend on the bench crate): an instant where any rank
/// searches counts as search; copy/input beat output; explicit "other"
/// beats only the analyzer's gap fill.
pub const PHASE_PRECEDENCE: [&str; 5] = [
    phases::SEARCH,
    phases::COPY,
    phases::INPUT,
    phases::OUTPUT,
    phases::OTHER,
];

/// A closed span recovered from the trace's begin/end pairs.
struct TraceSpan<'a> {
    rank: usize,
    lane: Lane,
    name: &'a str,
    /// The `op` argument of the opening event, if it carries one.
    op: Option<&'a str>,
    start: u64,
    end: u64,
    /// Nesting depth on its `(rank, lane)` (0 = outermost).
    depth: usize,
}

/// The `op` argument the I/O plane tags its async events with.
fn op_of(e: &tracelog::Event) -> Option<&str> {
    e.args.iter().find_map(|(k, v)| match v {
        ArgVal::Str(s) if *k == "op" => Some(&**s),
        _ => None,
    })
}

/// Pair every `Begin` with its `End` (per rank and lane, innermost
/// first). A span still open when the trace ends is closed at the wall.
fn spans(trace: &Trace) -> Vec<TraceSpan<'_>> {
    let mut out = Vec::new();
    let mut open: Vec<Vec<(&str, Option<&str>, u64)>> =
        vec![Vec::new(); trace.nranks * Lane::ALL.len()];
    let slot = |rank: usize, lane: Lane| rank * Lane::ALL.len() + (lane.tid() as usize - 1);
    for e in &trace.events {
        let stack = &mut open[slot(e.rank, e.lane)];
        match e.kind {
            EventKind::Begin => stack.push((&e.name, op_of(e), e.t)),
            EventKind::End => {
                if let Some((name, op, start)) = stack.pop() {
                    out.push(TraceSpan {
                        rank: e.rank,
                        lane: e.lane,
                        name,
                        op,
                        start,
                        end: e.t,
                        depth: stack.len(),
                    });
                }
            }
            EventKind::Instant | EventKind::Counter(_) => {}
        }
    }
    for rank in 0..trace.nranks {
        for lane in Lane::ALL {
            let stack = &mut open[slot(rank, lane)];
            while let Some((name, op, start)) = stack.pop() {
                out.push(TraceSpan {
                    rank,
                    lane,
                    name,
                    op,
                    start,
                    end: trace.wall.max(start),
                    depth: stack.len(),
                });
            }
        }
    }
    out
}

/// Per-rank sums of the durations of the spans `keep` selects.
fn busy_per_rank(
    nranks: usize,
    spans: &[TraceSpan<'_>],
    keep: impl Fn(&TraceSpan<'_>) -> bool,
) -> Vec<u64> {
    let mut busy = vec![0u64; nranks];
    for s in spans.iter().filter(|s| keep(s)) {
        busy[s.rank] += s.end - s.start;
    }
    busy
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The critical-path partition of the run's wall clock, in seconds:
/// `(input, search, output, other)`. Sums to the makespan exactly (in
/// integer nanoseconds, asserted).
pub fn critical_path(trace: &Trace) -> (f64, f64, f64, f64) {
    let path = tracelog::analyze::critical_path(trace, &PHASE_PRECEDENCE);
    assert_eq!(
        path.total(),
        trace.wall,
        "the critical path must partition the virtual wall clock"
    );
    let input = path.get(phases::COPY) + path.get(phases::INPUT);
    let search = path.get(phases::SEARCH);
    let output = path.get(phases::OUTPUT);
    let other = trace.wall - input - search - output;
    (secs(input), secs(search), secs(output), secs(other))
}

/// `virt_total_s` minus the SEARCH share of the critical path.
pub fn virt_nonsearch_s(trace: &Trace) -> f64 {
    let path = tracelog::analyze::critical_path(trace, &PHASE_PRECEDENCE);
    secs(trace.wall.saturating_sub(path.get(phases::SEARCH)))
}

/// Record every source-T metric of one traced run.
pub fn record(spec: &Spec, outcome: &JobOutcome, trace: &Trace, out: &mut Values) {
    let all = spans(trace);
    let count_begin = |names: &[&str]| {
        trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Begin && names.contains(&&*e.name))
            .count() as f64
    };
    let count_instant = |names: &[&str]| {
        trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Instant && names.contains(&&*e.name))
            .count() as f64
    };

    // blast-core: the run's own SearchStats, summed over ranks.
    let s = outcome.search;
    out.set("blast-core.residues", s.residues as f64);
    out.set("blast-core.seed_hits", s.seed_hits as f64);
    out.set("blast-core.ungapped_ext", s.ungapped_extensions as f64);
    out.set("blast-core.gapped_ext", s.gapped_extensions as f64);
    out.set("blast-core.hsps_kept", s.hsps_kept as f64);
    out.set(
        "blast-core.gapped_per_ungapped",
        ratio(s.gapped_extensions as f64, s.ungapped_extensions as f64),
    );
    out.set(
        "blast-core.kept_per_gapped",
        ratio(s.hsps_kept as f64, s.gapped_extensions as f64),
    );

    // simcluster / mpisim: EngineStats plus the Net lane.
    out.set("simcluster.events", outcome.engine.events as f64);
    out.set("mpisim.messages", outcome.engine.messages as f64);
    out.set("mpisim.message_bytes", outcome.engine.message_bytes as f64);
    let net = busy_per_rank(trace.nranks, &all, |s| s.lane == Lane::Net && s.depth == 0);
    out.set(
        "mpisim.virt_wait_s",
        secs(net.iter().sum::<u64>()) / trace.nranks as f64,
    );

    // parafs: FsCounters, ClassTally and the Io lane.
    out.set(
        "parafs.read_ops",
        count_begin(&["fs.read"]) + count_instant(&["fs.read.begin"]),
    );
    out.set(
        "parafs.write_ops",
        count_begin(&["fs.write"]) + count_instant(&["fs.write.begin"]),
    );
    out.set(
        "parafs.read_bytes",
        (outcome.shared.bytes_read + outcome.local.bytes_read) as f64,
    );
    out.set(
        "parafs.write_bytes",
        (outcome.shared.bytes_written + outcome.local.bytes_written) as f64,
    );
    let [independent, sieved, two_phase] = outcome.classes;
    out.set("parafs.class.independent_reqs", independent.requests as f64);
    out.set("parafs.class.sieve_reqs", sieved.requests as f64);
    out.set("parafs.class.two_phase_reqs", two_phase.requests as f64);
    let io = busy_per_rank(trace.nranks, &all, |s| s.lane == Lane::Io && s.depth == 0);
    out.set(
        "parafs.virt_io_s",
        secs(io.iter().copied().max().unwrap_or(0)),
    );

    // mpiio: the plane's request spans. Async requests show as a
    // `plane.async.begin` instant tagged with the operation.
    let async_ops = |op: &str| {
        trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Instant && e.name == "plane.async.begin")
            .filter(|e| op_of(e) == Some(op))
            .count() as f64
    };
    out.set(
        "mpiio.plane_reads",
        count_begin(&["plane.read"]) + async_ops("db_read"),
    );
    out.set(
        "mpiio.plane_writes",
        count_begin(&["plane.write"]) + async_ops("output_write"),
    );
    out.set(
        "mpiio.ckpt_puts",
        count_begin(&["plane.ckpt.put"]) + async_ops("ckpt_put"),
    );
    let writes = busy_per_rank(trace.nranks, &all, |s| {
        s.lane == Lane::Io
            && (matches!(s.name, "plane.write" | "plane.ckpt.put")
                || (s.name == "plane.async.wait"
                    && matches!(s.op, Some("output_write" | "ckpt_put"))))
    });
    out.set(
        "mpiio.virt_write_s",
        secs(writes.iter().copied().max().unwrap_or(0)),
    );

    // burstfs: the staging tier's counters and its fence spans.
    out.set("burstfs.staged_bytes", outcome.staging.bytes_written as f64);
    out.set(
        "burstfs.backpressure",
        count_instant(&["stage.backpressure"]),
    );
    let fenced = busy_per_rank(trace.nranks, &all, |s| {
        s.lane == Lane::Io && s.name == "stage.drain"
    });
    out.set("burstfs.drain_virt_s", secs(fenced.iter().sum()));
    if spec.mode != Mode::Recover {
        assert!(
            outcome.staging == Default::default() && count_begin(&["stage.put"]) == 0.0,
            "{}: the burst tier must stay idle when staging is off",
            spec.name
        );
    }

    // app: the critical-path partition and the protocol's instants.
    let (input, search, output, other) = critical_path(trace);
    out.set("app.virt_input_s", input);
    out.set("app.virt_search_s", search);
    out.set("app.virt_output_s", output);
    out.set("app.virt_other_s", other);
    // Both programs mark search on the Phase lane; only pioBLAST also
    // emits per-fragment Search-lane spans.
    let searching: Vec<u64> = busy_per_rank(trace.nranks, &all, |s| {
        s.lane == Lane::Phase && s.name == phases::SEARCH
    })
    .into_iter()
    .filter(|&ns| ns > 0)
    .collect();
    let mean = ratio(searching.iter().sum::<u64>() as f64, searching.len() as f64);
    out.set(
        "app.search_imbalance",
        ratio(searching.iter().copied().max().unwrap_or(0) as f64, mean),
    );
    out.set("app.grants", count_instant(&["grant"]));
    out.set("app.submissions", count_instant(&["submission"]));
    out.set("app.requeues", count_instant(&["requeue"]));
    out.set("app.epochs", count_instant(&["epoch_start"]));
    if spec.mode == Mode::Serve {
        let m = ServiceMetrics::from_trace(trace);
        out.set("app.cache_hit_ratio", m.hit_rate());
        out.set("app.service_queries_per_virt_s", m.queries_per_sec);
        out.set("app.service_p50_virt_s", m.p50_latency_s);
    } else {
        out.set("app.cache_hit_ratio", 0.0);
        out.set("app.service_queries_per_virt_s", 0.0);
        out.set("app.service_p50_virt_s", 0.0);
    }

    // tracelog itself.
    out.set("tracelog.events", trace.events.len() as f64);
    out.set("tracelog.dropped", trace.dropped as f64);
    assert_eq!(trace.dropped, 0, "{}: the tracer dropped events", spec.name);
}
