//! Table rendering and result persistence for the figure harnesses.

use std::fmt::Write as _;

use crate::report::Value;
use crate::runner::RunSummary;

/// Render a paper-style breakdown table from run summaries.
pub fn breakdown_table(title: &str, rows: &[RunSummary]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "{:<10} {:>6} {:>7} {:>12} {:>10} {:>10} {:>8} {:>10} {:>9} {:>11}",
        "program",
        "procs",
        "frags",
        "copy/input",
        "search",
        "output",
        "other",
        "total",
        "search%",
        "out bytes"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>7} {:>12.2} {:>10.2} {:>10.2} {:>8.2} {:>10.2} {:>8.1}% {:>11}",
            format!("{}-{}", r.program.label(), r.nprocs),
            r.nprocs,
            r.nfrags,
            r.copy_input,
            r.search,
            r.output,
            r.other,
            r.total,
            100.0 * r.search_share(),
            r.output_bytes,
        );
    }
    out
}

/// Render the paper's Figure-1(a)-style search/other split.
pub fn split_series(title: &str, rows: &[RunSummary]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10} {:>10} {:>9}",
        "run", "search(s)", "other(s)", "total(s)", "search%"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} {:>10.2} {:>10.2} {:>10.2} {:>8.1}%",
            format!("{}-{}", r.program.label(), r.nprocs),
            r.search,
            r.non_search(),
            r.total,
            100.0 * r.search_share(),
        );
    }
    out
}

/// The summaries as a [`Value`] array, one object per run.
fn rows_value(rows: &[RunSummary]) -> Value {
    Value::array(rows.iter().map(|r| {
        Value::object([
            ("program", r.program.label().into()),
            ("nprocs", r.nprocs.into()),
            ("nfrags", r.nfrags.into()),
            ("copy_input", r.copy_input.into()),
            ("search", r.search.into()),
            ("output", r.output.into()),
            ("other", r.other.into()),
            ("total", r.total.into()),
            ("output_bytes", r.output_bytes.into()),
        ])
    }))
}

/// Write a result artifact under `target/paper-results/`.
pub fn save_json(name: &str, rows: &[RunSummary]) {
    let dir = std::path::Path::new("target/paper-results");
    let text = rows_value(rows)
        .render()
        .unwrap_or_else(|e| panic!("{name}.json: {e}"));
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("{name}.json")), text);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Program;

    fn row() -> RunSummary {
        RunSummary {
            program: Program::PioBlast,
            nprocs: 32,
            nfrags: 31,
            copy_input: 0.4,
            search: 281.7,
            output: 15.4,
            other: 10.4,
            total: 307.9,
            output_bytes: 100_000_000,
        }
    }

    #[test]
    fn tables_render_all_rows() {
        let t = breakdown_table("Table 1", &[row(), row()]);
        assert_eq!(t.matches("pio-32").count(), 2);
        assert!(t.contains("281.70"));
        let s = split_series("Fig 1a", &[row()]);
        assert!(s.contains("91.5%"));
    }

    #[test]
    fn rows_render_one_object_per_run() {
        let j = rows_value(&[row(), row()]).render().expect("finite");
        assert!(j.starts_with("[\n  {\"program\": \"pio\", \"nprocs\": 32, "));
        assert_eq!(j.matches("\"search\": 281.700000").count(), 2);
        assert!(j.ends_with("\"output_bytes\": 100000000}\n]\n"));
    }
}
