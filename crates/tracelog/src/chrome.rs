//! Chrome `trace_event` JSON export, loadable in Perfetto / `chrome://tracing`.
//!
//! Layout: one trace "process" per simulated rank (`pid` = rank), one
//! "thread" per subsystem [`Lane`] (`tid` = [`Lane::tid`]), with
//! `process_name` / `thread_name` metadata so the viewer labels them.
//! Timestamps are virtual microseconds with nanosecond precision
//! (three decimals).
//!
//! The [`Lane::Phase`] lane is exported from the analyzer's *flat*
//! per-rank timeline rather than the raw retroactive charges, so the
//! viewer shows each rank doing exactly one phase at a time and the
//! lane's spans tile `[0, wall]` exactly. All other lanes export their
//! raw events, sanitized so begin/end pairs always balance (stray ends
//! are dropped; spans left open by a killed rank are closed at the
//! wall clock).
//!
//! **Slot sub-lanes.** [`Lane::Search`] begin events carrying a
//! `("slot", k)` argument — the DES engine's virtual compute slots —
//! are routed to a dedicated thread per slot (`tid` =
//! [`SLOT_TID_BASE`]` + k`, labelled "search slot k") so overlapping
//! slot slices render side by side instead of as a bogus nested stack.
//! The matching end event carries no arguments; it is paired by record
//! adjacency — `closed_span` records a span's begin and end back to
//! back on the rank thread, so the end's per-rank `seq` is exactly the
//! begin's plus one.
//!
//! The output is deliberately line-oriented — one event object per
//! line, fixed field order — so the [`crate::check`] validator and the
//! determinism tests can treat it as a stable byte stream.

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;

use crate::analyze;
use crate::check::DROPPED_META;
use crate::event::{ArgVal, EventKind, Lane};
use crate::sink::Trace;

/// Exported `tid` of compute slot 0; slot `k` maps to `SLOT_TID_BASE + k`.
/// Far above every [`Lane::tid`] so slot threads can never collide with
/// a lane thread.
pub const SLOT_TID_BASE: u64 = 100;

/// The `("slot", k)` argument that marks a Search-lane begin as a
/// compute-slot slice.
fn slot_arg(args: &[(&'static str, ArgVal)]) -> Option<u64> {
    args.iter().find_map(|(k, v)| match (*k, v) {
        ("slot", ArgVal::U64(n)) => Some(*n),
        _ => None,
    })
}

fn esc(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn push_ts(ns: u64, out: &mut String) {
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

fn push_args(args: &[(&'static str, ArgVal)], out: &mut String) {
    out.push_str(",\"args\":{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":");
        match v {
            ArgVal::U64(n) => {
                let _ = write!(out, "{n}");
            }
            ArgVal::Str(s) => {
                out.push('"');
                esc(s, out);
                out.push('"');
            }
        }
    }
    out.push('}');
}

#[allow(clippy::too_many_arguments)]
fn event_line(
    name: &str,
    ph: char,
    pid: usize,
    tid: u64,
    ts_ns: u64,
    args: &[(&'static str, ArgVal)],
    instant: bool,
    out: &mut Vec<String>,
) {
    let mut line = String::new();
    line.push_str("{\"name\":\"");
    esc(name, &mut line);
    let _ = write!(
        line,
        "\",\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid},\"ts\":"
    );
    push_ts(ts_ns, &mut line);
    if instant {
        line.push_str(",\"s\":\"t\"");
    }
    if !args.is_empty() {
        push_args(args, &mut line);
    }
    line.push('}');
    out.push(line);
}

fn meta_line(kind: &str, pid: usize, tid: u64, label: &str, out: &mut Vec<String>) {
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"name\":\"{kind}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\""
    );
    esc(label, &mut line);
    line.push_str("\"}}");
    out.push(line);
}

/// Serialize `trace` as Chrome `trace_event` JSON. `filter` restricts
/// the export to the given lanes (`None` = everything).
pub fn export_chrome(trace: &Trace, filter: Option<&[Lane]>) -> String {
    let included = |lane: Lane| filter.is_none_or(|f| f.contains(&lane));
    let mut lines: Vec<String> = Vec::new();
    // An overflowed tracer's trace is incomplete: say so up front, where
    // `trace-check` refuses it. A healthy export carries no such line.
    if trace.dropped > 0 {
        lines.push(format!(
            "{{\"name\":\"{DROPPED_META}\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{{\"count\":{}}}}}",
            trace.dropped
        ));
    }

    // Which (rank, slot) sub-lanes does this trace use? Collected up
    // front so their thread names sit with the other metadata.
    let mut slot_tids: BTreeSet<(usize, u64)> = BTreeSet::new();
    if included(Lane::Search) {
        for e in &trace.events {
            if e.lane == Lane::Search && e.kind == EventKind::Begin {
                if let Some(k) = slot_arg(&e.args) {
                    slot_tids.insert((e.rank, SLOT_TID_BASE + k));
                }
            }
        }
    }

    for rank in 0..trace.nranks {
        meta_line("process_name", rank, 0, &format!("rank {rank}"), &mut lines);
        for lane in Lane::ALL {
            if included(lane) {
                meta_line("thread_name", rank, lane.tid(), lane.label(), &mut lines);
            }
        }
        for &(r, tid) in slot_tids.range((rank, 0)..(rank + 1, 0)) {
            meta_line(
                "thread_name",
                r,
                tid,
                &format!("search slot {}", tid - SLOT_TID_BASE),
                &mut lines,
            );
        }
    }

    // Phase lane: the normalized flat timeline, tiling [0, wall].
    if included(Lane::Phase) {
        for rank in 0..trace.nranks {
            for seg in analyze::rank_phase_timeline(trace, rank) {
                event_line(
                    &seg.phase,
                    'B',
                    rank,
                    Lane::Phase.tid(),
                    seg.start,
                    &[],
                    false,
                    &mut lines,
                );
                event_line(
                    &seg.phase,
                    'E',
                    rank,
                    Lane::Phase.tid(),
                    seg.end,
                    &[],
                    false,
                    &mut lines,
                );
            }
        }
    }

    // All other lanes: raw events in merged order, with begin/end
    // sanitized per (rank, lane). The stack remembers begin names so
    // end events display matching names in the viewer. A lane's stack
    // sits at its discriminant, which is its place in `Lane::ALL`.
    let mut stacks: Vec<Vec<Vec<String>>> =
        vec![Lane::ALL.map(|_| Vec::new()).to_vec(); trace.nranks];
    // Slot slices awaiting their end event, keyed by the `(rank, seq)`
    // the end will carry (begin's seq + 1 — `closed_span` records the
    // pair adjacently). Slot ends can't use the lane stacks: slices on
    // different slots overlap, so time order is not stack order.
    let mut slot_pending: HashMap<(usize, u64), (u64, String)> = HashMap::new();
    for e in &trace.events {
        if e.lane == Lane::Phase || !included(e.lane) {
            continue;
        }
        let tid = e.lane.tid();
        match e.kind {
            EventKind::Begin => {
                if e.lane == Lane::Search {
                    if let Some(k) = slot_arg(&e.args) {
                        let tid = SLOT_TID_BASE + k;
                        slot_pending.insert((e.rank, e.seq + 1), (tid, e.name.to_string()));
                        event_line(&e.name, 'B', e.rank, tid, e.t, &e.args, false, &mut lines);
                        continue;
                    }
                }
                stacks[e.rank][e.lane as usize].push(e.name.to_string());
                event_line(&e.name, 'B', e.rank, tid, e.t, &e.args, false, &mut lines);
            }
            EventKind::End => {
                if let Some((tid, name)) = slot_pending.remove(&(e.rank, e.seq)) {
                    event_line(&name, 'E', e.rank, tid, e.t, &e.args, false, &mut lines);
                    continue;
                }
                if let Some(name) = stacks[e.rank][e.lane as usize].pop() {
                    event_line(&name, 'E', e.rank, tid, e.t, &e.args, false, &mut lines);
                }
            }
            EventKind::Instant => {
                event_line(&e.name, 'i', e.rank, tid, e.t, &e.args, true, &mut lines);
            }
            EventKind::Counter(v) => {
                event_line(
                    &e.name,
                    'C',
                    e.rank,
                    tid,
                    e.t,
                    &[("value", ArgVal::U64(v))],
                    false,
                    &mut lines,
                );
            }
        }
    }
    // Close anything a killed rank left open. Slot slices first: a
    // begin whose adjacent end never arrived (it was recorded by some
    // path other than `closed_span`) must still balance.
    let mut stranded: Vec<((usize, u64), (u64, String))> = slot_pending.into_iter().collect();
    stranded.sort_by_key(|&((rank, seq), _)| (rank, seq));
    for ((rank, _), (tid, name)) in stranded {
        event_line(&name, 'E', rank, tid, trace.wall, &[], false, &mut lines);
    }
    for (rank, lanes) in stacks.iter_mut().enumerate() {
        for (li, stack) in lanes.iter_mut().enumerate() {
            while let Some(name) = stack.pop() {
                event_line(
                    &name,
                    'E',
                    rank,
                    Lane::ALL[li].tid(),
                    trace.wall,
                    &[],
                    false,
                    &mut lines,
                );
            }
        }
    }

    let mut out = String::from("[\n");
    for (i, line) in lines.iter().enumerate() {
        out.push_str(line);
        if i + 1 < lines.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::Tracer;

    #[test]
    fn export_is_balanced_and_labelled() {
        let tracer = Tracer::new(2);
        tracer.record(
            0,
            0,
            Lane::Phase,
            EventKind::Begin,
            "search".into(),
            Vec::new(),
        );
        tracer.record(
            0,
            80,
            Lane::Phase,
            EventKind::End,
            "search".into(),
            Vec::new(),
        );
        tracer.record(
            1,
            10,
            Lane::Io,
            EventKind::Begin,
            "read".into(),
            vec![("bytes", ArgVal::U64(4096))],
        );
        tracer.record(1, 30, Lane::Io, EventKind::End, "".into(), Vec::new());
        tracer.record(
            1,
            40,
            Lane::Runtime,
            EventKind::Instant,
            "grant".into(),
            Vec::new(),
        );
        tracer.record(
            0,
            50,
            Lane::Io,
            EventKind::Counter(7),
            "io.reqs".into(),
            Vec::new(),
        );
        // A span the rank never closed: must be closed at the wall.
        tracer.record(
            1,
            60,
            Lane::Net,
            EventKind::Begin,
            "recv".into(),
            Vec::new(),
        );
        let trace = tracer.finish(100);
        let json = export_chrome(&trace, None);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"rank 1\""));
        assert!(json.contains("\"thread_name\""));
        // The io span keeps its name on both ends.
        assert_eq!(json.matches("\"name\":\"read\"").count(), 2);
        // The unclosed net recv is closed at the 100 ns wall = 0.100 us.
        assert!(json.contains("{\"name\":\"recv\",\"ph\":\"E\",\"pid\":1,\"tid\":4,\"ts\":0.100}"));
        // Counter exports as a "C" sample.
        assert!(json.contains("\"ph\":\"C\""));
        // Phase lane tiles [0, wall]: search then trailing other.
        assert!(
            json.contains("{\"name\":\"search\",\"ph\":\"B\",\"pid\":0,\"tid\":1,\"ts\":0.000}")
        );
        assert!(json.contains("{\"name\":\"other\",\"ph\":\"E\",\"pid\":0,\"tid\":1,\"ts\":0.100}"));
    }

    #[test]
    fn filter_restricts_lanes() {
        let tracer = Tracer::new(1);
        tracer.record(
            0,
            1,
            Lane::Io,
            EventKind::Instant,
            "open".into(),
            Vec::new(),
        );
        tracer.record(
            0,
            2,
            Lane::Net,
            EventKind::Instant,
            "send".into(),
            Vec::new(),
        );
        let trace = tracer.finish(10);
        let json = export_chrome(&trace, Some(&[Lane::Net]));
        assert!(json.contains("\"send\""));
        assert!(!json.contains("\"open\""));
        assert!(!json.contains("\"ph\":\"B\"")); // phase lane filtered out too
    }

    #[test]
    fn stray_end_is_dropped() {
        let tracer = Tracer::new(1);
        tracer.record(0, 5, Lane::Io, EventKind::End, "".into(), Vec::new());
        let trace = tracer.finish(10);
        let json = export_chrome(&trace, Some(&[Lane::Io]));
        assert!(!json.contains("\"ph\":\"E\""));
    }

    #[test]
    fn slot_slices_get_their_own_sub_lanes() {
        // Two compute-slot slices overlapping in virtual time on rank 0,
        // recorded the way `closed_span` records them (begin and end
        // back to back, so their seqs are adjacent), under an ordinary
        // search.fragment span on the plain Search thread.
        let tracer = Tracer::new(1);
        tracer.record(
            0,
            10,
            Lane::Search,
            EventKind::Begin,
            "search.slot".into(),
            vec![("slot", ArgVal::U64(0)), ("slice", ArgVal::U64(0))],
        );
        tracer.record(0, 40, Lane::Search, EventKind::End, "".into(), Vec::new());
        tracer.record(
            0,
            10,
            Lane::Search,
            EventKind::Begin,
            "search.slot".into(),
            vec![("slot", ArgVal::U64(1)), ("slice", ArgVal::U64(1))],
        );
        tracer.record(0, 25, Lane::Search, EventKind::End, "".into(), Vec::new());
        tracer.record(
            0,
            10,
            Lane::Search,
            EventKind::Begin,
            "search.fragment".into(),
            Vec::new(),
        );
        tracer.record(0, 40, Lane::Search, EventKind::End, "".into(), Vec::new());
        let trace = tracer.finish(50);
        let json = export_chrome(&trace, None);

        // Each used slot gets a labelled sub-thread.
        assert!(json.contains(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":\"search slot 0\"}}}}",
            SLOT_TID_BASE
        )));
        assert!(json.contains("\"search slot 1\""));
        // Slot 1's end at 25 ns routes to tid 101 even though slot 0's
        // slice (begun earlier in record order) is still open — the
        // overlap a naive per-lane stack would mispair.
        assert!(json.contains(&format!(
            "{{\"name\":\"search.slot\",\"ph\":\"E\",\"pid\":0,\"tid\":{},\"ts\":0.025}}",
            SLOT_TID_BASE + 1
        )));
        assert!(json.contains(&format!(
            "{{\"name\":\"search.slot\",\"ph\":\"E\",\"pid\":0,\"tid\":{},\"ts\":0.040}}",
            SLOT_TID_BASE
        )));
        // The wrapping fragment span stays on the plain Search thread.
        assert!(json.contains(&format!(
            "{{\"name\":\"search.fragment\",\"ph\":\"E\",\"pid\":0,\"tid\":{},\"ts\":0.040}}",
            Lane::Search.tid()
        )));
        // And the whole export passes the trace-check validator:
        // balanced depth and monotone time on every thread, slot
        // sub-threads included.
        let stats = crate::check::validate_chrome(&json).expect("slot export validates");
        assert!(stats.spans >= 3);
    }

    #[test]
    fn stranded_slot_begin_is_closed_at_the_wall() {
        // A slot-tagged begin whose adjacent record is not its end (not
        // produced by `closed_span`): the exporter must still balance
        // it, at the wall clock.
        let tracer = Tracer::new(1);
        tracer.record(
            0,
            5,
            Lane::Search,
            EventKind::Begin,
            "search.slot".into(),
            vec![("slot", ArgVal::U64(2))],
        );
        tracer.record(
            0,
            6,
            Lane::Search,
            EventKind::Instant,
            "note".into(),
            Vec::new(),
        );
        let trace = tracer.finish(30);
        let json = export_chrome(&trace, None);
        assert!(json.contains(&format!(
            "{{\"name\":\"search.slot\",\"ph\":\"E\",\"pid\":0,\"tid\":{},\"ts\":0.030}}",
            SLOT_TID_BASE + 2
        )));
        crate::check::validate_chrome(&json).expect("stranded slot begin still balances");
    }

    #[test]
    fn names_are_escaped() {
        let tracer = Tracer::new(1);
        tracer.record(
            0,
            1,
            Lane::Runtime,
            EventKind::Instant,
            "weird\"name\\".into(),
            Vec::new(),
        );
        let trace = tracer.finish(2);
        let json = export_chrome(&trace, None);
        assert!(json.contains("weird\\\"name\\\\"));
    }
}
