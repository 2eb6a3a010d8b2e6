//! Schema validation for exported Chrome traces — the `trace-check`
//! CI gate.
//!
//! The exporter writes one event object per line with a fixed field
//! order, so this validator is a small line-oriented parser rather
//! than a general JSON reader (the workspace vendors no JSON library).
//! It enforces the invariants the suite relies on:
//!
//! * every event's `ph` is one of `M`, `B`, `E`, `i`, `C`;
//! * timestamps are monotonically nondecreasing per `(pid, tid)`;
//! * begin/end pairs balance per `(pid, tid)` — depth never goes
//!   negative and ends at zero.

use std::collections::{BTreeMap, BTreeSet};

/// Summary of a validated trace file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Total non-metadata events.
    pub events: usize,
    /// Completed begin/end span pairs.
    pub spans: usize,
    /// Instant events.
    pub instants: usize,
    /// Counter samples.
    pub counters: usize,
    /// Distinct `pid`s (ranks) seen.
    pub ranks: usize,
}

/// Extract the string value of `"key":"..."` from `line`.
pub(crate) fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let mut end = 0;
    let bytes = rest.as_bytes();
    while end < bytes.len() {
        match bytes[end] {
            b'\\' => end += 2,
            b'"' => return Some(&rest[..end]),
            _ => end += 1,
        }
    }
    None
}

/// Extract the numeric value of `"key":123` or `"key":123.456`.
pub(crate) fn field_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `name` of the metadata line the exporter writes when the tracer
/// dropped events to ring-buffer overflow; its `args` carry the `count`.
pub(crate) const DROPPED_META: &str = "dropped_events";

/// One event object of an exported trace, its fixed fields extracted.
pub(crate) struct EventLine<'a> {
    /// 1-based line number, for error messages.
    pub lineno: usize,
    /// The whole object, for the fields only some events carry.
    pub line: &'a str,
    pub ph: &'a str,
    pub pid: u64,
    pub tid: u64,
    pub name: &'a str,
    /// Virtual nanoseconds; metadata (`M`) lines carry none and read 0.
    pub ts: u64,
}

/// Every event object of an exported Chrome trace, in file order — one
/// per line, the exporter's layout — each parsed or a message naming
/// the offending line. Fails up front if `text` is not a JSON array.
pub(crate) fn event_lines(
    text: &str,
) -> Result<impl Iterator<Item = Result<EventLine<'_>, String>>, String> {
    let trimmed = text.trim();
    if !trimmed.starts_with('[') || !trimmed.ends_with(']') {
        return Err("trace is not a JSON array".into());
    }
    let objects = text.lines().enumerate().filter_map(|(idx, raw)| {
        let line = raw.trim().trim_end_matches(',');
        (!line.is_empty() && line != "[" && line != "]").then_some((idx + 1, line))
    });
    Ok(objects.map(|(lineno, line)| {
        if !line.starts_with('{') || !line.ends_with('}') {
            return Err(format!("line {lineno}: not an event object"));
        }
        let missing = |what: &str| format!("line {lineno}: missing {what}");
        let ph = field_str(line, "ph").ok_or_else(|| missing("ph"))?;
        // Microseconds with three decimals; metadata carries none.
        let ts_us = match ph {
            "M" => Some(0.0),
            _ => field_num(line, "ts"),
        };
        let ts_us = ts_us.filter(|us| *us >= 0.0);
        Ok(EventLine {
            lineno,
            line,
            ph,
            pid: field_num(line, "pid").ok_or_else(|| missing("pid"))? as u64,
            tid: field_num(line, "tid").ok_or_else(|| missing("tid"))? as u64,
            name: field_str(line, "name").ok_or_else(|| missing("name"))?,
            ts: (ts_us.ok_or_else(|| missing("or negative ts"))? * 1000.0).round() as u64,
        })
    }))
}

/// Validate exported Chrome trace JSON. Returns summary statistics or
/// a message naming the first offending line. A trace whose tracer
/// dropped events is incomplete, and fails with the count.
pub fn validate_chrome(text: &str) -> Result<CheckStats, String> {
    let mut stats = CheckStats::default();
    // Per `(pid, tid)`: open span depth and latest timestamp.
    let mut lanes: BTreeMap<(u64, u64), (i64, u64)> = BTreeMap::new();
    for event in event_lines(text)? {
        let ev = event?;
        let (lineno, pid, tid, ts) = (ev.lineno, ev.pid, ev.tid, ev.ts);
        if ev.ph == "M" {
            if ev.name == DROPPED_META {
                let count = field_num(ev.line, "count").unwrap_or(f64::NAN);
                return Err(format!(
                    "line {lineno}: the tracer dropped {count} event(s) to ring-buffer overflow"
                ));
            }
            continue;
        }
        let (depth, last_ts) = lanes.entry((pid, tid)).or_insert((0, 0));
        if ts < *last_ts {
            return Err(format!(
                "line {lineno}: ts regressed on pid {pid} tid {tid} ({ts} ns after {last_ts} ns)"
            ));
        }
        *last_ts = ts;
        stats.events += 1;
        match ev.ph {
            "B" => *depth += 1,
            "E" => {
                *depth -= 1;
                if *depth < 0 {
                    return Err(format!(
                        "line {lineno}: unmatched end on pid {pid} tid {tid}"
                    ));
                }
                stats.spans += 1;
            }
            "i" => stats.instants += 1,
            "C" => stats.counters += 1,
            other => return Err(format!("line {lineno}: unknown ph {other:?}")),
        }
    }
    if let Some(((pid, tid), (d, _))) = lanes.iter().find(|(_, (d, _))| *d != 0) {
        return Err(format!(
            "pid {pid} tid {tid}: {d} begin event(s) never closed"
        ));
    }
    let pids: BTreeSet<u64> = lanes.keys().map(|&(pid, _)| pid).collect();
    stats.ranks = pids.len();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::export_chrome;
    use crate::event::{EventKind, Lane};
    use crate::sink::Tracer;

    fn sample_trace() -> String {
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
            90,
            Lane::Phase,
            EventKind::End,
            "search".into(),
            Vec::new(),
        );
        tracer.record(1, 10, Lane::Io, EventKind::Begin, "read".into(), Vec::new());
        tracer.record(1, 20, Lane::Io, EventKind::End, "".into(), Vec::new());
        tracer.record(
            1,
            30,
            Lane::Runtime,
            EventKind::Instant,
            "grant".into(),
            Vec::new(),
        );
        tracer.record(
            1,
            40,
            Lane::Io,
            EventKind::Counter(3),
            "reqs".into(),
            Vec::new(),
        );
        export_chrome(&tracer.finish(100), None)
    }

    #[test]
    fn exporter_output_validates() {
        let stats = validate_chrome(&sample_trace()).expect("valid");
        assert_eq!(stats.ranks, 2);
        assert!(stats.spans >= 2);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.counters, 1);
    }

    #[test]
    fn a_dropped_event_count_is_exported_only_when_non_zero_and_fails_the_check() {
        let export = |cap: usize| {
            let tracer = Tracer::with_capacity(2, cap);
            for t in 0..4 {
                tracer.record(1, t, Lane::Io, EventKind::Instant, "x".into(), Vec::new());
            }
            let trace = tracer.finish(10);
            assert_eq!(trace.dropped, 4u64.saturating_sub(cap as u64));
            export_chrome(&trace, None)
        };
        let (whole, lossy) = (export(4), export(1));
        assert!(
            !whole.contains(DROPPED_META),
            "a healthy export is unchanged"
        );
        assert_eq!(validate_chrome(&whole).unwrap().instants, 4);
        let meta = "{\"name\":\"dropped_events\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"count\":3}},";
        assert_eq!(lossy.lines().nth(1), Some(meta));
        let err = validate_chrome(&lossy).unwrap_err();
        assert!(err.contains("dropped 3 event(s)"), "{err}");
    }

    #[test]
    fn rejects_unbalanced_spans() {
        let bad = "[\n{\"name\":\"x\",\"ph\":\"B\",\"pid\":0,\"tid\":1,\"ts\":0.000}\n]\n";
        let err = validate_chrome(bad).unwrap_err();
        assert!(err.contains("never closed"), "{err}");
        let bad2 = "[\n{\"name\":\"x\",\"ph\":\"E\",\"pid\":0,\"tid\":1,\"ts\":0.000}\n]\n";
        assert!(validate_chrome(bad2).unwrap_err().contains("unmatched end"));
    }

    #[test]
    fn rejects_time_regression() {
        let bad = "[\n\
            {\"name\":\"a\",\"ph\":\"i\",\"pid\":0,\"tid\":1,\"ts\":5.000,\"s\":\"t\"},\n\
            {\"name\":\"b\",\"ph\":\"i\",\"pid\":0,\"tid\":1,\"ts\":4.000,\"s\":\"t\"}\n]\n";
        assert!(validate_chrome(bad).unwrap_err().contains("regressed"));
    }

    #[test]
    fn rejects_non_array_and_junk() {
        assert!(validate_chrome("hello").is_err());
        assert!(validate_chrome("[\nnot json\n]\n").is_err());
        let nameless = "[\n{\"ph\":\"i\",\"pid\":0,\"tid\":1,\"ts\":1.000}\n]\n";
        assert!(validate_chrome(nameless)
            .unwrap_err()
            .contains("missing name"));
    }
}
