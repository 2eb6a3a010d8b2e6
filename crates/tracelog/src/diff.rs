//! Trace diffing — align two runs' exported event streams and report
//! where they diverge.
//!
//! The scale sweep needs a sharper tool than "the wall clocks differ":
//! when a 512-rank run and a 128-rank run disagree, *which lane* (I/O,
//! search, net, a compute-slot sub-lane) and *which phase or span name*
//! moved, and by how much? [`profile_chrome`] folds an exported Chrome
//! trace into busy-time totals keyed by `(rank, lane, name)` — lane
//! labels come from the exporter's `thread_name` metadata, so slot
//! sub-lanes (`search slot k`) and ordinary lanes diff alike —
//! and [`diff_profiles`] aligns two profiles:
//!
//! * **cluster rows** always: per-`(lane, name)` totals summed over
//!   ranks, compared both as totals and as per-rank means so runs at
//!   different scales stay comparable;
//! * **rank rows** only when both runs have the same rank count, so a
//!   lane that diverged on one straggler is named precisely.
//!
//! Two byte-identical exports — what the deterministic engine gives
//! for two runs of the same job — produce an empty diff. The parser
//! reuses the [`crate::check`] line readers and the same tolerance: one
//! event object per line, fixed field order.

use std::collections::BTreeMap;

use crate::check::{event_lines, field_str};

/// Busy-time totals for one run, keyed by `(rank, lane label, name)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunProfile {
    /// Distinct ranks (`pid`s) that emitted events.
    pub ranks: usize,
    /// Latest timestamp seen, in virtual nanoseconds.
    pub wall_ns: u64,
    /// Summed span durations (ns) per `(rank, lane, name)`.
    totals: BTreeMap<(usize, String, String), u64>,
}

/// One aligned divergence between two runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffRow {
    /// `Some(rank)` for a per-rank row, `None` for a cluster aggregate.
    pub rank: Option<usize>,
    /// Lane label from the exporter's `thread_name` metadata (e.g.
    /// `"io"`, `"phase"`, `"search slot 3"`).
    pub lane: String,
    /// Span or phase name (e.g. `"search"`, `"read"`, `"search.slot"`).
    pub name: String,
    /// Busy nanoseconds in run A.
    pub a_ns: u64,
    /// Busy nanoseconds in run B.
    pub b_ns: u64,
}

impl DiffRow {
    /// Signed change from A to B in nanoseconds.
    pub fn delta_ns(&self) -> i128 {
        self.b_ns as i128 - self.a_ns as i128
    }
}

/// The aligned comparison of two runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDiff {
    /// Rank count of run A.
    pub a_ranks: usize,
    /// Rank count of run B.
    pub b_ranks: usize,
    /// Wall clock of run A (ns).
    pub a_wall_ns: u64,
    /// Wall clock of run B (ns).
    pub b_wall_ns: u64,
    /// Cluster-aggregate divergences, largest |delta| first.
    pub cluster: Vec<DiffRow>,
    /// Per-rank divergences (empty when the rank counts differ),
    /// largest |delta| first.
    pub per_rank: Vec<DiffRow>,
}

impl TraceDiff {
    /// True when the two runs' profiles are indistinguishable.
    pub fn is_empty(&self) -> bool {
        self.cluster.is_empty() && self.per_rank.is_empty() && self.a_wall_ns == self.b_wall_ns
    }
}

impl RunProfile {
    /// Cluster busy-time totals per `(lane, name)`, summed over ranks —
    /// the aggregate a committed baseline file pins down.
    pub fn cluster_totals(&self) -> BTreeMap<(String, String), u64> {
        let mut agg = BTreeMap::new();
        for ((_, lane, name), ns) in &self.totals {
            *agg.entry((lane.clone(), name.clone())).or_insert(0) += ns;
        }
        agg
    }
}

/// Render a profile as a committed baseline file: a header comment,
/// `ranks`/`wall_ns` lines, then one tab-separated
/// `lane<TAB>name<TAB>busy_ns` row per cluster total (lane labels may
/// contain spaces, never tabs).
pub fn render_baseline(p: &RunProfile) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("# trace-diff baseline: cluster busy ns per (lane, span)\n");
    out.push_str(
        "# regenerate with: pioblast-sim trace-diff --in <trace> --write-baseline <file>\n",
    );
    let _ = writeln!(out, "ranks\t{}", p.ranks);
    let _ = writeln!(out, "wall_ns\t{}", p.wall_ns);
    for ((lane, name), ns) in p.cluster_totals() {
        let _ = writeln!(out, "{lane}\t{name}\t{ns}");
    }
    out
}

/// Check a run against a committed baseline file: it passes only when
/// [`render_baseline`] reproduces the file exactly — the DES is
/// deterministic, so any difference is a change in simulated work, and
/// a malformed file fails because it cannot equal a rendering. Returns
/// every line only the baseline holds (`-`) and every line only the
/// run renders (`+`); empty means the run matches.
pub fn check_baseline(base: &str, current: &RunProfile) -> Vec<String> {
    let rendered = render_baseline(current);
    if base == rendered {
        return Vec::new();
    }
    let only = |sign: char, of: &str, other: &str| {
        let other: std::collections::BTreeSet<&str> = other.lines().collect();
        let lines = of.lines().filter(|l| !other.contains(l));
        lines.map(|l| format!("{sign}{l}")).collect::<Vec<_>>()
    };
    let mut failures = only('-', base, &rendered);
    failures.extend(only('+', &rendered, base));
    if failures.is_empty() {
        failures.push("the same lines in a different order or layout".into());
    }
    failures
}

/// Fold an exported Chrome trace into per-`(rank, lane, name)` busy
/// time. Returns a message naming the first offending line on malformed
/// input.
pub fn profile_chrome(text: &str) -> Result<RunProfile, String> {
    // Lane labels come from thread_name metadata. The exporter emits
    // all metadata before any event, but a hand-edited trace may not —
    // busy time is keyed by `tid` until every line has been seen.
    let mut labels: BTreeMap<(u64, u64), &str> = BTreeMap::new();
    let mut busy: BTreeMap<(u64, u64, String), u64> = BTreeMap::new();
    let mut profile = RunProfile::default();
    let mut open: BTreeMap<(u64, u64), Vec<(u64, &str)>> = BTreeMap::new();
    let mut ranks: BTreeMap<u64, ()> = BTreeMap::new();
    for event in event_lines(text)? {
        let ev = event?;
        let (lineno, pid, tid, ts) = (ev.lineno, ev.pid, ev.tid, ev.ts);
        if ev.ph == "M" {
            // The label lives in args: {"name":"io"} — the *second*
            // "name" field on the line.
            let tail = &ev.line[ev.line.find("\"args\"").unwrap_or(0)..];
            if let ("thread_name", Some(label)) = (ev.name, field_str(tail, "name")) {
                labels.insert((pid, tid), label);
            }
            continue;
        }
        ranks.insert(pid, ());
        profile.wall_ns = profile.wall_ns.max(ts);
        match ev.ph {
            "B" => open.entry((pid, tid)).or_default().push((ts, ev.name)),
            "E" => {
                let Some((start, begin_name)) = open.entry((pid, tid)).or_default().pop() else {
                    return Err(format!(
                        "line {lineno}: unmatched end on pid {pid} tid {tid}"
                    ));
                };
                *busy.entry((pid, tid, begin_name.to_string())).or_insert(0) +=
                    ts.saturating_sub(start);
            }
            // Instants and counters carry no duration; they advance the
            // wall clock above but add no busy time.
            "i" | "C" => {}
            other => return Err(format!("line {lineno}: unknown ph {other:?}")),
        }
    }
    for ((pid, tid, name), ns) in busy {
        let label = labels.get(&(pid, tid));
        let lane = label.map_or_else(|| format!("tid {tid}"), |l| l.to_string());
        *profile
            .totals
            .entry((pid as usize, lane, name))
            .or_insert(0) += ns;
    }
    profile.ranks = ranks.len();
    Ok(profile)
}

/// One row per key whose busy time differs between `a` and `b` (an
/// absent key is 0 ns), largest |delta| first; `split` names the row's
/// `(rank, lane, name)`.
fn diverging<K: Ord + Clone>(
    a: &BTreeMap<K, u64>,
    b: &BTreeMap<K, u64>,
    split: impl Fn(K) -> (Option<usize>, String, String),
) -> Vec<DiffRow> {
    let keys: std::collections::BTreeSet<&K> = a.keys().chain(b.keys()).collect();
    let ns = |of: &BTreeMap<K, u64>, key: &K| of.get(key).copied().unwrap_or(0);
    let row = |key: &K| {
        let ((rank, lane, name), a_ns, b_ns) = (split(key.clone()), ns(a, key), ns(b, key));
        let row = DiffRow {
            rank,
            lane,
            name,
            a_ns,
            b_ns,
        };
        (a_ns != b_ns).then_some(row)
    };
    let mut rows: Vec<DiffRow> = keys.into_iter().filter_map(row).collect();
    rows.sort_by_cached_key(|r| {
        let magnitude = std::cmp::Reverse(r.delta_ns().unsigned_abs());
        (magnitude, r.lane.clone(), r.name.clone(), r.rank)
    });
    rows
}

/// Align two profiles by `(rank, lane, name)` and collect every key
/// whose busy time differs.
pub fn diff_profiles(a: &RunProfile, b: &RunProfile) -> TraceDiff {
    // Cluster aggregates: totals per (lane, name) across all ranks.
    let (agg_a, agg_b) = (a.cluster_totals(), b.cluster_totals());
    let cluster = diverging(&agg_a, &agg_b, |(l, n)| (None, l, n));
    // Per-rank rows only when the rank spaces are the same — across
    // scales a rank-by-rank pairing would be meaningless.
    let mut per_rank = Vec::new();
    if a.ranks == b.ranks {
        per_rank = diverging(&a.totals, &b.totals, |(r, l, n)| (Some(r), l, n));
    }
    TraceDiff {
        a_ranks: a.ranks,
        b_ranks: b.ranks,
        a_wall_ns: a.wall_ns,
        b_wall_ns: b.wall_ns,
        cluster,
        per_rank,
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn fmt_delta(d: i128) -> String {
    let sign = if d < 0 { "-" } else { "+" };
    format!("{sign}{}", fmt_ns(d.unsigned_abs() as u64))
}

/// Render a [`TraceDiff`] as a human-readable report, listing at most
/// `top` rows per section.
pub fn render_diff(d: &TraceDiff, top: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "run A: {} rank(s), wall {}  |  run B: {} rank(s), wall {}",
        d.a_ranks,
        fmt_ns(d.a_wall_ns),
        d.b_ranks,
        fmt_ns(d.b_wall_ns),
    );
    if d.is_empty() {
        out.push_str("traces are equivalent: no lane or phase diverged\n");
        return out;
    }
    if !d.cluster.is_empty() {
        let _ = writeln!(
            out,
            "\ncluster totals ({} diverging lane/phase pairs):",
            d.cluster.len()
        );
        let show_mean = d.a_ranks != d.b_ranks && d.a_ranks > 0 && d.b_ranks > 0;
        for row in d.cluster.iter().take(top) {
            let mut line = format!(
                "  {:<18} {:<22} A {:>12}  B {:>12}  {}",
                row.lane,
                row.name,
                fmt_ns(row.a_ns),
                fmt_ns(row.b_ns),
                fmt_delta(row.delta_ns()),
            );
            if show_mean {
                let _ = write!(
                    line,
                    "  (per-rank mean A {} vs B {})",
                    fmt_ns(row.a_ns / d.a_ranks as u64),
                    fmt_ns(row.b_ns / d.b_ranks as u64),
                );
            }
            out.push_str(&line);
            out.push('\n');
        }
        if d.cluster.len() > top {
            let _ = writeln!(out, "  ... {} more", d.cluster.len() - top);
        }
    }
    if !d.per_rank.is_empty() {
        let _ = writeln!(
            out,
            "\nper-rank rows ({} diverging, same rank space):",
            d.per_rank.len()
        );
        // Every per-rank row carries its rank.
        let ranked = d.per_rank.iter().filter_map(|row| Some((row.rank?, row)));
        for (rank, row) in ranked.take(top) {
            let _ = writeln!(
                out,
                "  rank {:<5} {:<18} {:<22} A {:>12}  B {:>12}  {}",
                rank,
                row.lane,
                row.name,
                fmt_ns(row.a_ns),
                fmt_ns(row.b_ns),
                fmt_delta(row.delta_ns()),
            );
        }
        if d.per_rank.len() > top {
            let _ = writeln!(out, "  ... {} more", d.per_rank.len() - top);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::export_chrome;
    use crate::event::{ArgVal, EventKind, Lane};
    use crate::sink::Tracer;

    fn trace_json(build: impl Fn(&Tracer), nranks: usize, wall: u64) -> String {
        let tracer = Tracer::new(nranks);
        build(&tracer);
        export_chrome(&tracer.finish(wall), None)
    }

    #[test]
    fn identical_exports_diff_empty() {
        let build = |t: &Tracer| {
            t.record(0, 0, Lane::Io, EventKind::Begin, "read".into(), Vec::new());
            t.record(0, 70, Lane::Io, EventKind::End, "".into(), Vec::new());
        };
        let a = profile_chrome(&trace_json(build, 2, 100)).unwrap();
        let b = profile_chrome(&trace_json(build, 2, 100)).unwrap();
        let d = diff_profiles(&a, &b);
        assert!(d.is_empty());
        assert!(render_diff(&d, 10).contains("equivalent"));
    }

    #[test]
    fn io_divergence_names_the_io_lane() {
        let short = |t: &Tracer| {
            t.record(1, 0, Lane::Io, EventKind::Begin, "read".into(), Vec::new());
            t.record(1, 10, Lane::Io, EventKind::End, "".into(), Vec::new());
        };
        let long = |t: &Tracer| {
            t.record(1, 0, Lane::Io, EventKind::Begin, "read".into(), Vec::new());
            t.record(1, 90, Lane::Io, EventKind::End, "".into(), Vec::new());
        };
        let a = profile_chrome(&trace_json(short, 2, 100)).unwrap();
        let b = profile_chrome(&trace_json(long, 2, 100)).unwrap();
        let d = diff_profiles(&a, &b);
        let row = d
            .cluster
            .iter()
            .find(|r| r.lane == "io")
            .expect("io lane diverges");
        assert_eq!(row.name, "read");
        assert_eq!(row.delta_ns(), 80);
        // Same rank count: the per-rank section pins it to rank 1.
        assert!(d
            .per_rank
            .iter()
            .any(|r| r.rank == Some(1) && r.lane == "io"));
        let text = render_diff(&d, 10);
        assert!(text.contains("io"), "{text}");
        assert!(text.contains("read"), "{text}");
    }

    #[test]
    fn slot_sub_lanes_diff_by_their_labels() {
        let slots = |t: &Tracer| {
            t.record(
                0,
                0,
                Lane::Search,
                EventKind::Begin,
                "search.slot".into(),
                vec![("slot", ArgVal::U64(1)), ("slice", ArgVal::U64(0))],
            );
            t.record(0, 40, Lane::Search, EventKind::End, "".into(), Vec::new());
        };
        let serial = |t: &Tracer| {
            t.record(
                0,
                0,
                Lane::Search,
                EventKind::Begin,
                "search.fragment".into(),
                Vec::new(),
            );
            t.record(0, 40, Lane::Search, EventKind::End, "".into(), Vec::new());
        };
        let a = profile_chrome(&trace_json(serial, 1, 50)).unwrap();
        let b = profile_chrome(&trace_json(slots, 1, 50)).unwrap();
        let d = diff_profiles(&a, &b);
        assert!(
            d.cluster.iter().any(|r| r.lane == "search slot 1"),
            "slot sub-lane appears as its own row: {:?}",
            d.cluster
        );
        assert!(d.cluster.iter().any(|r| r.lane == "search"));
    }

    #[test]
    fn differing_scales_aggregate_without_rank_rows() {
        let build = |nranks: usize| {
            move |t: &Tracer| {
                for r in 0..nranks {
                    t.record(r, 0, Lane::Net, EventKind::Begin, "send".into(), Vec::new());
                    t.record(r, 20, Lane::Net, EventKind::End, "".into(), Vec::new());
                }
            }
        };
        let a = profile_chrome(&trace_json(build(2), 2, 30)).unwrap();
        let b = profile_chrome(&trace_json(build(8), 8, 30)).unwrap();
        let d = diff_profiles(&a, &b);
        assert!(d.per_rank.is_empty(), "no rank pairing across scales");
        let row = d.cluster.iter().find(|r| r.lane == "net").unwrap();
        assert_eq!(row.a_ns, 40);
        assert_eq!(row.b_ns, 160);
        let text = render_diff(&d, 10);
        assert!(text.contains("per-rank mean"), "{text}");
    }

    #[test]
    fn a_baseline_passes_only_its_exact_rendering() {
        let build = |dur: u64| {
            move |t: &Tracer| {
                t.record(0, 0, Lane::Io, EventKind::Begin, "read".into(), Vec::new());
                t.record(0, dur, Lane::Io, EventKind::End, "".into(), Vec::new());
                t.record(1, 0, Lane::Net, EventKind::Begin, "send".into(), Vec::new());
                t.record(1, 500, Lane::Net, EventKind::End, "".into(), Vec::new());
            }
        };
        let base_profile = profile_chrome(&trace_json(build(10_000), 2, 20_000)).unwrap();
        let base = render_baseline(&base_profile);
        assert!(base.contains("ranks\t2\nwall_ns\t20000\n"), "{base}");
        assert!(base.contains("io\tread\t10000\n"), "{base}");

        // The identical run passes; any growth fails, however small, and
        // names the row on both sides.
        assert!(check_baseline(&base, &base_profile).is_empty());
        let slightly = profile_chrome(&trace_json(build(10_001), 2, 20_000)).unwrap();
        assert_eq!(
            check_baseline(&base, &slightly),
            vec!["-io\tread\t10000", "+io\tread\t10001"]
        );
        // So does shrinkage.
        let shrunk = profile_chrome(&trace_json(build(9_000), 2, 20_000)).unwrap();
        assert_eq!(
            check_baseline(&base, &shrunk),
            vec!["-io\tread\t10000", "+io\tread\t9000"]
        );
        // Reordered lines are not the same text.
        let mut lines: Vec<&str> = base.lines().collect();
        lines.swap(2, 3);
        let reordered = lines.join("\n") + "\n";
        assert_eq!(check_baseline(&reordered, &base_profile).len(), 1);
    }

    #[test]
    fn a_baseline_mismatch_lists_new_and_missing_rows_and_malformed_files_fail() {
        let serial = |t: &Tracer| {
            t.record(0, 0, Lane::Io, EventKind::Begin, "read".into(), Vec::new());
            t.record(0, 5_000, Lane::Io, EventKind::End, "".into(), Vec::new());
        };
        let staged = |t: &Tracer| {
            t.record(0, 0, Lane::Io, EventKind::Begin, "read".into(), Vec::new());
            t.record(0, 5_000, Lane::Io, EventKind::End, "".into(), Vec::new());
            t.record(
                0,
                5_000,
                Lane::Io,
                EventKind::Begin,
                "stage.put".into(),
                Vec::new(),
            );
            t.record(0, 9_000, Lane::Io, EventKind::End, "".into(), Vec::new());
        };
        let serial = profile_chrome(&trace_json(serial, 1, 10_000)).unwrap();
        let staged = profile_chrome(&trace_json(staged, 1, 10_000)).unwrap();
        // A lane the baseline lacks, and one the run lost.
        let added = check_baseline(&render_baseline(&serial), &staged);
        assert_eq!(added, vec!["+io\tstage.put\t4000"]);
        let lost = check_baseline(&render_baseline(&staged), &serial);
        assert_eq!(lost, vec!["-io\tstage.put\t4000"]);

        for malformed in ["", "ranks\t1\n", "ranks\t1\nwall_ns\tx\nio\tread\t5000\n"] {
            assert!(
                !check_baseline(malformed, &serial).is_empty(),
                "{malformed:?}"
            );
        }
    }

    #[test]
    fn profile_rejects_malformed_input() {
        assert!(profile_chrome("nope").is_err());
        assert!(profile_chrome("[\njunk\n]\n").is_err());
        let bad_end = "[\n{\"name\":\"x\",\"ph\":\"E\",\"pid\":0,\"tid\":1,\"ts\":1.000}\n]\n";
        assert!(profile_chrome(bad_end).unwrap_err().contains("unmatched"));
    }

    #[test]
    fn wall_clock_only_divergence_is_reported() {
        let build = |t: &Tracer| {
            t.record(
                0,
                5,
                Lane::Runtime,
                EventKind::Instant,
                "x".into(),
                Vec::new(),
            );
        };
        let a = profile_chrome(&trace_json(build, 1, 10)).unwrap();
        let mut b = a.clone();
        b.wall_ns += 1_500;
        let d = diff_profiles(&a, &b);
        assert!(!d.is_empty());
        assert!(d.cluster.is_empty());
        let text = render_diff(&d, 10);
        assert!(text.contains("wall"), "{text}");
    }
}
