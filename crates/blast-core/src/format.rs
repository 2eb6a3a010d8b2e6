//! NCBI-style pairwise report formatting.
//!
//! The output file of a BLAST run is organized by query: a header with the
//! query defline and database statistics, a one-line-summary section
//! listing every reported subject, one alignment record per subject, and a
//! statistics footer.
//!
//! Every piece is formatted by a standalone function returning a `String`,
//! because the paper's central output optimization depends on it: pioBLAST
//! workers format their own alignment records *early*, report only the
//! record sizes to the master, and later write the bytes at
//! master-assigned offsets with collective I/O. Byte-exact sizes must
//! therefore be computable worker-side, and identical input must format
//! identically everywhere.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::alphabet::{decode_letter, Molecule};
use crate::extend::{banded_global_into, Alignment, EditOp, ExtendScratch};
use crate::hsp::Hsp;
use crate::search::SearchParams;
use crate::seq::SeqRecord;
use crate::stats::{DbStats, SearchSpace};

/// Report-wide configuration.
#[derive(Debug, Clone)]
pub struct ReportConfig {
    /// Program banner, e.g. `BLASTP 2.2.10-sim [pioblast-rs]`.
    pub program: String,
    /// Database display name.
    pub db_title: String,
    /// Global database statistics.
    pub db_stats: DbStats,
    /// Residues per alignment line.
    pub line_width: usize,
    /// Maximum one-line summaries per query (NCBI `-v`, default 500).
    pub num_descriptions: usize,
    /// Maximum alignment records per query (NCBI `-b`, default 250).
    pub num_alignments: usize,
}

impl ReportConfig {
    /// Defaults matching `blastall -p blastp`.
    pub fn blastp(db_title: impl Into<String>, db_stats: DbStats) -> ReportConfig {
        ReportConfig {
            program: "BLASTP 2.2.10-sim [pioblast-rs]".to_string(),
            db_title: db_title.into(),
            db_stats,
            line_width: 60,
            num_descriptions: 500,
            num_alignments: 250,
        }
    }

    /// Defaults matching `blastall -p blastn`.
    pub fn blastn(db_title: impl Into<String>, db_stats: DbStats) -> ReportConfig {
        ReportConfig {
            program: "BLASTN 2.2.10-sim [pioblast-rs]".to_string(),
            ..ReportConfig::blastp(db_title, db_stats)
        }
    }

    /// Pick the program banner from the molecule searched.
    pub fn for_molecule(
        molecule: Molecule,
        db_title: impl Into<String>,
        db_stats: DbStats,
    ) -> ReportConfig {
        match molecule {
            Molecule::Protein => ReportConfig::blastp(db_title, db_stats),
            Molecule::Dna => ReportConfig::blastn(db_title, db_stats),
        }
    }
}

/// Group digits with commas (`1986684` -> `1,986,684`), as NCBI reports do.
pub fn commas(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    let lead = digits.len() % 3;
    for (i, c) in digits.chars().enumerate() {
        if i != 0 && (i + 3 - lead).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Format an E-value the way BLAST reports do.
pub fn format_evalue(e: f64) -> String {
    let mut out = String::new();
    write_evalue(&mut out, e);
    out
}

/// [`format_evalue`] written to any `fmt::Write` sink — a `String`, or a
/// byte counter that measures the text without rendering it.
fn write_evalue(out: &mut impl std::fmt::Write, e: f64) {
    // Neither sink this module writes to can fail.
    let _ = if e == 0.0 {
        out.write_str("0.0")
    } else if e < 1e-99 {
        // NCBI drops the mantissa's "1." for tiny values: `e-120`.
        let exp = e.log10().floor() as i32;
        write!(out, "e{exp}")
    } else if e < 0.001 {
        let exp = e.log10().floor() as i32;
        let mantissa = e / 10f64.powi(exp);
        write!(out, "{:.0}e-{:02}", mantissa, -exp)
    } else if e < 0.1 {
        write!(out, "{e:.3}")
    } else if e < 10.0 {
        write!(out, "{e:.2}")
    } else {
        write!(out, "{e:.1}")
    };
}

/// A `fmt::Write` sink that only counts the bytes written to it.
#[derive(Default)]
struct ByteCount(usize);

impl std::fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

/// The header block that starts each query's section of the report.
pub fn query_header(cfg: &ReportConfig, query: &SeqRecord) -> String {
    format!(
        "{}\n\n\nQuery= {}\n         ({} letters)\n\nDatabase: {}\n           {} sequences; {} total letters\n\n",
        cfg.program,
        query.defline,
        commas(query.len() as u64),
        cfg.db_title,
        commas(cfg.db_stats.num_sequences),
        commas(cfg.db_stats.total_residues),
    )
}

/// Width, in chars, of the defline column of a one-line summary.
const DEFLINE_COL: usize = 64;

/// The column preamble that opens a summary section.
pub const SUMMARY_PREAMBLE: &str = "                                                                 Score    E\nSequences producing significant alignments:                     (bits)  Value\n\n";

/// Where a defline too long for the summary's defline column is cut:
/// the byte index of its 62nd char, if it has more than 64.
fn summary_cut(defline: &str) -> Option<usize> {
    let mut chars = defline.char_indices().skip(DEFLINE_COL - 3);
    let cut = chars.next()?.0;
    chars.nth(2).map(|_| cut)
}

/// `defline` cut to the summary's defline column: whole if it fits in
/// 64 chars, else its first 61 chars and `...`. Cutting a cut name
/// changes nothing, so a name can travel cut and be rendered elsewhere.
pub fn summary_name(defline: &str) -> Cow<'_, str> {
    match summary_cut(defline) {
        None => Cow::Borrowed(defline),
        Some(cut) => Cow::Owned(format!("{}...", &defline[..cut])),
    }
}

/// One entry of the "Sequences producing significant alignments" section.
///
/// `defline` is the subject defline; it is cut ([`summary_name`]) and
/// padded to a fixed column so scores align.
pub fn summary_line(defline: &str, bit_score: f64, evalue: f64) -> String {
    let mut out = String::new();
    push_summary_line(&mut out, defline, bit_score, evalue);
    out
}

/// [`summary_line`] appended to `out`, for a writer that renders a run
/// of entries into one buffer.
pub fn push_summary_line(out: &mut String, defline: &str, bit_score: f64, evalue: f64) {
    let name = summary_name(defline);
    let _ = writeln!(
        out,
        "{name:<DEFLINE_COL$} {bit_score:>7.1} {:>9}",
        format_evalue(evalue)
    );
}

/// The length of [`summary_line`]`(defline, bit_score, evalue)`, worked
/// out without rendering the line: the pad to the defline column counts
/// chars, so a multi-byte defline is measured by both.
pub fn summary_len(defline: &str, bit_score: f64, evalue: f64) -> usize {
    let (name_bytes, name_chars) = match summary_cut(defline) {
        Some(cut) => (cut + 3, DEFLINE_COL),
        None => (defline.len(), defline.chars().count()),
    };
    let mut bits = ByteCount::default();
    let _ = write!(bits, "{bit_score:.1}");
    let mut e = ByteCount::default();
    write_evalue(&mut e, evalue);
    name_bytes + DEFLINE_COL.saturating_sub(name_chars) + 1 + bits.0.max(7) + 1 + e.0.max(9) + 1
}

/// The blank line that closes a summary section after its last entry.
pub const SUMMARY_CLOSE: &str = "\n";

/// A query's summary lines as they stand in the report: the lines, then
/// [`SUMMARY_CLOSE`] — or nothing for a query without lines, whose
/// no-hits notice stands in the section's head instead.
pub fn summary_region(lines: &[String]) -> String {
    if lines.is_empty() {
        return String::new();
    }
    let mut out = lines.concat();
    out.push_str(SUMMARY_CLOSE);
    out
}

/// One query's section of the report, laid out from the lengths of its
/// one-line summaries without rendering them. In file order: `head`, the
/// summary region ([`summary_region`], `summary_len` bytes), the
/// alignment records, then `footer`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySection {
    /// The query header, then the [`SUMMARY_PREAMBLE`] — or, for a query
    /// without summary lines, the no-hits notice.
    pub head: String,
    /// Bytes of the summary region.
    pub summary_len: u64,
    /// The statistics footer.
    pub footer: String,
}

impl QuerySection {
    /// The section of `query`, whose summary lines are `line_lens` bytes
    /// long ([`summary_len`]), in report order.
    pub fn new(
        cfg: &ReportConfig,
        params: &SearchParams,
        query: &SeqRecord,
        space: &SearchSpace,
        line_lens: impl IntoIterator<Item = u64>,
    ) -> QuerySection {
        let mut head = query_header(cfg, query);
        let mut lens = line_lens.into_iter().peekable();
        let summary_len = if lens.peek().is_none() {
            head.push_str(&no_hits_section());
            0
        } else {
            head.push_str(SUMMARY_PREAMBLE);
            lens.sum::<u64>() + SUMMARY_CLOSE.len() as u64
        };
        QuerySection {
            head,
            summary_len,
            footer: query_footer(params, space),
        }
    }

    /// Offset of the summary region, given the section's start offset.
    pub fn summary_offset(&self, start: u64) -> u64 {
        start + self.head.len() as u64
    }

    /// Offset of the first alignment record, given the section's start
    /// offset.
    pub fn records_offset(&self, start: u64) -> u64 {
        self.summary_offset(start) + self.summary_len
    }
}

/// Identity/positive/gap counts of a traceback alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlignmentCounts {
    /// Exactly matching columns.
    pub identities: u32,
    /// Columns with a positive substitution score (includes identities).
    pub positives: u32,
    /// Gap columns.
    pub gaps: u32,
    /// Total alignment columns.
    pub length: u32,
}

/// Walk an edit script and count identities/positives/gaps.
pub fn count_alignment(
    params: &SearchParams,
    query: &[u8],
    subject: &[u8],
    aln: &Alignment,
) -> AlignmentCounts {
    let mut qi = 0usize;
    let mut si = 0usize;
    let mut counts = AlignmentCounts {
        identities: 0,
        positives: 0,
        gaps: 0,
        length: aln.alignment_len(),
    };
    for op in &aln.ops {
        match *op {
            EditOp::Aligned(n) => {
                for _ in 0..n {
                    let (a, b) = (query[qi], subject[si]);
                    if a == b {
                        counts.identities += 1;
                        counts.positives += 1;
                    } else if params.matrix.score(a, b) > 0 {
                        counts.positives += 1;
                    }
                    qi += 1;
                    si += 1;
                }
            }
            EditOp::GapInSubject(n) => {
                counts.gaps += n;
                qi += n as usize;
            }
            EditOp::GapInQuery(n) => {
                counts.gaps += n;
                si += n as usize;
            }
        }
    }
    counts
}

/// Percentage in NCBI style (rounded down like `28/88 (31%)`).
fn pct(part: u32, whole: u32) -> u32 {
    (part * 100).checked_div(whole).unwrap_or(0)
}

/// Format one full alignment record: the subject defline block followed by
/// every HSP's score block and alignment lines.
///
/// `query`/`subject` are encoded residues; HSP coordinates index into them.
/// Traceback runs here (this is the expensive "output function" the paper's
/// master calls serially in mpiBLAST and workers call in parallel in
/// pioBLAST).
pub fn alignment_record(
    params: &SearchParams,
    cfg: &ReportConfig,
    query: &[u8],
    subject_defline: &str,
    subject: &[u8],
    hsps: &[Hsp],
) -> String {
    alignment_record_into(
        params,
        cfg,
        query,
        subject_defline,
        subject,
        hsps,
        &mut ExtendScratch::new(),
    )
}

/// [`alignment_record`] with caller-owned traceback buffers: a formatting
/// loop reuses one [`ExtendScratch`] across every record it renders.
pub fn alignment_record_into(
    params: &SearchParams,
    cfg: &ReportConfig,
    query: &[u8],
    subject_defline: &str,
    subject: &[u8],
    hsps: &[Hsp],
    scratch: &mut ExtendScratch,
) -> String {
    let mut out = String::new();
    let record = (subject_defline, subject, hsps);
    append_alignment_record(params, cfg, query, record, scratch, &mut out);
    out
}

/// [`alignment_record_into`] appended to `out`, for a writer that formats
/// records back to back into one buffer. `record` is the subject's
/// defline, its residues and the HSPs to render.
pub fn append_alignment_record(
    params: &SearchParams,
    cfg: &ReportConfig,
    query: &[u8],
    (subject_defline, subject, hsps): (&str, &[u8], &[Hsp]),
    scratch: &mut ExtendScratch,
    out: &mut String,
) {
    // `fmt::Write` for `String` cannot fail, so the results are dropped.
    let _ = write!(
        out,
        ">{}\n          Length = {}\n\n",
        subject_defline,
        subject.len()
    );
    for h in hsps {
        let q_range = &query[h.q_start as usize..h.q_end as usize];
        let s_range = &subject[h.s_start as usize..h.s_end as usize];
        let aln = banded_global_into(&params.matrix, params.gaps, q_range, s_range, 16, scratch);
        let counts = count_alignment(params, q_range, s_range, &aln);
        let _ = writeln!(
            out,
            " Score = {:.1} bits ({}), Expect = {}",
            h.bit_score,
            h.score,
            format_evalue(h.evalue)
        );
        let _ = write!(
            out,
            " Identities = {}/{} ({}%), Positives = {}/{} ({}%)",
            counts.identities,
            counts.length,
            pct(counts.identities, counts.length),
            counts.positives,
            counts.length,
            pct(counts.positives, counts.length),
        );
        if counts.gaps > 0 {
            let _ = write!(
                out,
                ", Gaps = {}/{} ({}%)",
                counts.gaps,
                counts.length,
                pct(counts.gaps, counts.length)
            );
        }
        out.push_str("\n\n");
        render_alignment_lines(
            params.molecule,
            &params.matrix,
            cfg.line_width,
            q_range,
            s_range,
            h.q_start + 1,
            h.s_start + 1,
            &aln,
            out,
        );
    }
}

/// Expand an edit script into three aligned ASCII rows and emit them in
/// `width`-column blocks with 1-based coordinates, straight into `out`.
#[allow(clippy::too_many_arguments)]
fn render_alignment_lines(
    molecule: Molecule,
    matrix: &crate::matrix::ScoreMatrix,
    width: usize,
    query: &[u8],
    subject: &[u8],
    q_base: u32,
    s_base: u32,
    aln: &Alignment,
    out: &mut String,
) {
    // The query, midline and subject rows, back to back in one buffer.
    let total = aln.alignment_len() as usize;
    let mut rows = vec![b' '; 3 * total];
    let (q_row, rest) = rows.split_at_mut(total);
    let (mid, s_row) = rest.split_at_mut(total);
    let letter = |code: u8| decode_letter(molecule, code);
    let mut col = 0usize;
    let mut qi = 0usize;
    let mut si = 0usize;
    for op in &aln.ops {
        match *op {
            EditOp::Aligned(n) => {
                for _ in 0..n {
                    let (a, b) = (query[qi], subject[si]);
                    q_row[col] = letter(a);
                    s_row[col] = letter(b);
                    if a == b {
                        mid[col] = letter(a);
                    } else if matrix.score(a, b) > 0 {
                        mid[col] = b'+';
                    }
                    col += 1;
                    qi += 1;
                    si += 1;
                }
            }
            EditOp::GapInSubject(n) => {
                for _ in 0..n {
                    q_row[col] = letter(query[qi]);
                    s_row[col] = b'-';
                    col += 1;
                    qi += 1;
                }
            }
            EditOp::GapInQuery(n) => {
                for _ in 0..n {
                    q_row[col] = b'-';
                    s_row[col] = letter(subject[si]);
                    col += 1;
                    si += 1;
                }
            }
        }
    }

    let mut q_pos = q_base;
    let mut s_pos = s_base;
    let mut start = 0usize;
    while start < total {
        let end = (start + width).min(total);
        // The rows are alphabet letters, `+`, `-` and spaces: ASCII, so
        // every chunk is borrowed, never replaced.
        let [q_chunk, m_chunk, s_chunk] =
            [&q_row[start..end], &mid[start..end], &s_row[start..end]].map(String::from_utf8_lossy);
        let q_res = q_chunk.bytes().filter(|&c| c != b'-').count() as u32;
        let s_res = s_chunk.bytes().filter(|&c| c != b'-').count() as u32;
        let q_end_pos = q_pos + q_res.saturating_sub(1);
        let s_end_pos = s_pos + s_res.saturating_sub(1);
        let _ = write!(
            out,
            "Query: {q_pos:<5} {q_chunk} {q_end_pos}\n             {m_chunk}\nSbjct: {s_pos:<5} {s_chunk} {s_end_pos}\n\n"
        );
        q_pos += q_res;
        s_pos += s_res;
        start = end;
    }
}

/// The statistics footer closing each query's section.
pub fn query_footer(params: &SearchParams, space: &SearchSpace) -> String {
    format!(
        "\nLambda     K      H\n   {:.3}   {:.3}    {:.3}\n\nGapped\nLambda     K      H\n   {:.3}   {:.3}    {:.3}\n\nEffective length of query: {}\nEffective length of database: {}\nEffective search space: {:.0}\n\n\n",
        params.ungapped.lambda,
        params.ungapped.k,
        params.ungapped.h,
        params.gapped.lambda,
        params.gapped.k,
        params.gapped.h,
        space.eff_query_len,
        space.eff_db_len,
        space.space(),
    )
}

/// The "no hits" body used when a query reports nothing.
pub fn no_hits_section() -> String {
    " ***** No hits found ******\n\n".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Molecule;
    use crate::karlin::KarlinParams;

    fn cfg() -> ReportConfig {
        ReportConfig::blastp(
            "nr-sim",
            DbStats {
                num_sequences: 1_986_684,
                total_residues: 999_000_111,
            },
        )
    }

    #[test]
    fn commas_groups_digits() {
        assert_eq!(commas(0), "0");
        assert_eq!(commas(999), "999");
        assert_eq!(commas(1000), "1,000");
        assert_eq!(commas(1986684), "1,986,684");
        assert_eq!(commas(999000111), "999,000,111");
    }

    #[test]
    fn evalue_formats() {
        assert_eq!(format_evalue(0.0), "0.0");
        assert_eq!(format_evalue(2.3e-7), "2e-07");
        assert_eq!(format_evalue(0.004), "0.004");
        assert_eq!(format_evalue(0.5), "0.50");
        assert_eq!(format_evalue(42.0), "42.0");
        assert!(format_evalue(1e-120).starts_with("e-"));
    }

    #[test]
    fn header_mentions_query_and_db() {
        let q = SeqRecord::from_ascii(Molecule::Protein, "q1 test protein", b"MKVLAAGH").unwrap();
        let h = query_header(&cfg(), &q);
        assert!(h.contains("Query= q1 test protein"));
        assert!(h.contains("(8 letters)"));
        assert!(h.contains("1,986,684 sequences"));
    }

    #[test]
    fn summary_line_is_fixed_width() {
        let a = summary_line("short", 55.1, 2e-7);
        let b = summary_line(
            "a very long defline that keeps going and going and going and going on",
            155.0,
            1e-50,
        );
        // Both lines place the score at the same column.
        let col_a = a.rfind("  ").unwrap();
        let col_b = b.rfind("  ").unwrap();
        assert_eq!(col_a, col_b);
        assert!(b.contains("..."));
    }

    #[test]
    fn alignment_record_is_self_consistent() {
        let params = SearchParams::blastp();
        let q = crate::alphabet::encode(Molecule::Protein, b"MKVLAAGHWRTEYFNDCQWH").unwrap();
        let s = q.clone();
        let space = SearchSpace::new(params.gapped, q.len() as u64, cfg().db_stats);
        let h = Hsp {
            query_idx: 0,
            oid: 3,
            q_start: 0,
            q_end: q.len() as u32,
            s_start: 0,
            s_end: s.len() as u32,
            score: 120,
            bit_score: space.bit_score(120),
            evalue: space.evalue(120),
        };
        let rec = alignment_record(&params, &cfg(), &q, "gi|3| subject", &s, &[h]);
        assert!(rec.contains(">gi|3| subject"));
        assert!(rec.contains("Length = 20"));
        assert!(rec.contains("Identities = 20/20 (100%)"));
        assert!(rec.contains("Query: 1"));
        assert!(rec.contains("Sbjct: 1"));
        // Identical sequences: no Gaps clause.
        assert!(!rec.contains("Gaps ="));
    }

    #[test]
    fn alignment_record_reports_gaps() {
        let params = SearchParams::blastp();
        let q =
            crate::alphabet::encode(Molecule::Protein, b"MKVLAAGHWRTEYFNDCQWHERTYPLKI").unwrap();
        let mut s = q.clone();
        s.drain(10..13);
        let space = SearchSpace::new(params.gapped, q.len() as u64, cfg().db_stats);
        let h = Hsp {
            query_idx: 0,
            oid: 0,
            q_start: 0,
            q_end: q.len() as u32,
            s_start: 0,
            s_end: s.len() as u32,
            score: 90,
            bit_score: space.bit_score(90),
            evalue: space.evalue(90),
        };
        let rec = alignment_record(&params, &cfg(), &q, "subj", &s, &[h]);
        assert!(rec.contains("Gaps = 3/"), "record:\n{rec}");
        assert!(rec.contains('-'), "gap dashes must appear");
    }

    #[test]
    fn long_alignments_wrap_at_width() {
        let params = SearchParams::blastp();
        let unit = b"MKVLAAGHWRTEYFNDCQWH";
        let mut raw = Vec::new();
        for _ in 0..8 {
            raw.extend_from_slice(unit);
        }
        let q = crate::alphabet::encode(Molecule::Protein, &raw).unwrap();
        let space = SearchSpace::new(params.gapped, q.len() as u64, cfg().db_stats);
        let h = Hsp {
            query_idx: 0,
            oid: 0,
            q_start: 0,
            q_end: q.len() as u32,
            s_start: 0,
            s_end: q.len() as u32,
            score: 800,
            bit_score: space.bit_score(800),
            evalue: space.evalue(800),
        };
        let rec = alignment_record(&params, &cfg(), &q, "subj", &q, &[h]);
        // 160 residues at width 60 -> 3 blocks.
        assert_eq!(rec.matches("Query: ").count(), 3);
        assert!(rec.contains("Query: 61"));
        assert!(rec.contains("Query: 121"));
    }

    #[test]
    fn footer_contains_lambda_table() {
        let params = SearchParams::blastp();
        let space = SearchSpace::new(params.gapped, 100, cfg().db_stats);
        let f = query_footer(&params, &space);
        assert!(f.contains("Lambda     K      H"));
        assert!(f.contains("0.267"));
    }

    #[test]
    fn formatting_is_deterministic_across_calls() {
        // Same input, same bytes — the property pioBLAST's size metadata
        // protocol relies on.
        let params = SearchParams::blastp();
        let q = crate::alphabet::encode(Molecule::Protein, b"MKVLAAGHWRTEYFNDCQWH").unwrap();
        let p = KarlinParams {
            lambda: 0.267,
            k: 0.041,
            h: 0.14,
        };
        let h = Hsp {
            query_idx: 0,
            oid: 0,
            q_start: 2,
            q_end: 18,
            s_start: 2,
            s_end: 18,
            score: 80,
            bit_score: p.bit_score(80),
            evalue: 1e-12,
        };
        let a = alignment_record(&params, &cfg(), &q, "subj x", &q, &[h]);
        let b = alignment_record(&params, &cfg(), &q, "subj x", &q, &[h]);
        assert_eq!(a, b);
        assert_eq!(a.len(), b.len());
    }
}
