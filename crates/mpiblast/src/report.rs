//! Shared report semantics: selection, ordering, and section assembly.
//!
//! mpiBLAST's one hard correctness requirement — which pioBLAST inherits —
//! is that the parallel programs produce exactly the serial program's
//! output file. This module centralizes everything that determines output
//! bytes: the canonical hit ordering, the per-query selection rule, the
//! section layout, and a full serial reference implementation used as the
//! oracle in tests.

use blast_core::extend::ExtendScratch;
use blast_core::format::{self, QuerySection, ReportConfig};
use blast_core::search::{BlastSearcher, PreparedQueries, SearchParams, SearchScratch, SubjectHit};
use blast_core::seq::SeqRecord;
use seqfmt::FormattedDb;

use crate::wire::MetaHit;

/// Why building a report failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportError {
    /// A hit references a subject oid that no searched fragment holds.
    UnknownOid {
        /// The dangling subject oid.
        oid: u32,
    },
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::UnknownOid { oid } => write!(f, "oid {oid} not in database"),
        }
    }
}

impl std::error::Error for ReportError {}

/// Report-size limits (NCBI `-v`/`-b`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportOptions {
    /// One-line summaries kept per query.
    pub num_descriptions: usize,
    /// Alignment records kept per query.
    pub num_alignments: usize,
}

impl Default for ReportOptions {
    fn default() -> ReportOptions {
        ReportOptions {
            num_descriptions: 500,
            num_alignments: 250,
        }
    }
}

/// Sort subject hits into canonical reporting order (best first; total
/// and deterministic).
pub fn order_hits(hits: &mut [SubjectHit]) {
    hits.sort_by(|a, b| a.hsps[0].rank_key().cmp(&b.hsps[0].rank_key()));
}

/// The same ordering over metadata-only hits, each paired with the rank
/// that owns its record.
pub fn order_meta(hits: &mut [(MetaHit, usize)]) {
    hits.sort_by_key(|(hit, _)| hit.best.rank_key());
}

/// One query's fully determined output: its section — head, summary
/// length and footer ([`QuerySection`]) — and its rendered summary region.
#[derive(Debug, Clone)]
pub struct QueryLayout {
    /// Head, summary length and footer.
    pub section: QuerySection,
    /// The summary region's text ([`format::summary_region`]).
    pub summary: String,
}

/// Build a query's layout from already-ordered, already-selected summary
/// entries: `(defline, bit, evalue)` for the top `num_descriptions` hits.
pub fn build_layout(
    cfg: &ReportConfig,
    params: &SearchParams,
    query: &SeqRecord,
    space: &blast_core::stats::SearchSpace,
    summaries: &[(String, f64, f64)],
) -> QueryLayout {
    let lines: Vec<String> = summaries
        .iter()
        .map(|(d, b, e)| format::summary_line(d, *b, *e))
        .collect();
    let lens = lines.iter().map(|l| l.len() as u64);
    QueryLayout {
        section: QuerySection::new(cfg, params, query, space, lens),
        summary: format::summary_region(&lines),
    }
}

/// The serial reference: search the whole database in-process and render
/// the complete report. This is what `blastall` would print, and the
/// oracle both parallel programs are tested against. Fails with
/// [`ReportError::UnknownOid`] if a hit references a subject no volume
/// holds (a corrupt database or search result).
pub fn serial_report(
    params: &SearchParams,
    queries: Vec<SeqRecord>,
    db: &FormattedDb,
    opts: ReportOptions,
) -> Result<Vec<u8>, ReportError> {
    let cfg = ReportConfig::for_molecule(db.alias.molecule, db.alias.title.clone(), db.stats());
    let prepared = PreparedQueries::prepare(params, queries, db.stats());
    let searcher = BlastSearcher::new(params, &prepared);

    // Search all volumes, merging per-query hit lists. One scratch
    // serves every volume, exactly as a worker reuses one per run.
    let mut scratch = SearchScratch::new();
    let mut per_query: Vec<Vec<SubjectHit>> = vec![Vec::new(); prepared.len()];
    let mut fragments: Vec<seqfmt::FragmentData> = Vec::new();
    for vol in &db.volumes {
        let frag = seqfmt::FragmentData::from_volume(vol);
        let result = searcher.search(&frag, &mut scratch);
        for (q, hits) in result.per_query.into_iter().enumerate() {
            per_query[q].extend(hits);
        }
        fragments.push(frag);
    }
    let subject_of = |oid: u32| -> Result<(&[u8], &[u8]), ReportError> {
        for f in &fragments {
            if let (Some(r), Some(d)) = (f.residues_of(oid), f.defline_of(oid)) {
                return Ok((r, d));
            }
        }
        Err(ReportError::UnknownOid { oid })
    };

    let mut out = Vec::new();
    let mut traceback = ExtendScratch::new();
    for (q, mut hits) in per_query.into_iter().enumerate() {
        order_hits(&mut hits);
        let query = &prepared.records[q];
        let space = &prepared.spaces[q];
        let summaries: Vec<(String, f64, f64)> = hits
            .iter()
            .take(opts.num_descriptions)
            .map(|h| {
                let (_, defline) = subject_of(h.oid)?;
                Ok((
                    String::from_utf8_lossy(defline).into_owned(),
                    h.hsps[0].bit_score,
                    h.hsps[0].evalue,
                ))
            })
            .collect::<Result<_, ReportError>>()?;
        let records: Vec<String> = hits
            .iter()
            .take(opts.num_alignments)
            .map(|h| {
                let (residues, defline) = subject_of(h.oid)?;
                Ok(format::alignment_record_into(
                    params,
                    &cfg,
                    &query.residues,
                    &String::from_utf8_lossy(defline),
                    residues,
                    &h.hsps,
                    &mut traceback,
                ))
            })
            .collect::<Result<_, ReportError>>()?;
        let layout = build_layout(&cfg, params, query, space, &summaries);
        out.extend_from_slice(layout.section.head.as_bytes());
        out.extend_from_slice(layout.summary.as_bytes());
        for r in &records {
            out.extend_from_slice(r.as_bytes());
        }
        out.extend_from_slice(layout.section.footer.as_bytes());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_core::alphabet::Molecule;
    use blast_core::hsp::Hsp;
    use seqfmt::formatdb::{format_records, FormatDbConfig};
    use seqfmt::synth::{generate, SynthConfig};

    fn tiny_db() -> FormattedDb {
        let recs = generate(&SynthConfig::nr_like(5, 30_000));
        format_records(&recs, &FormatDbConfig::protein("nr-tiny"))
    }

    fn sample_queries(db: &FormattedDb, n: usize) -> Vec<SeqRecord> {
        let vol = &db.volumes[0];
        let frag = seqfmt::FragmentData::from_volume(vol);
        use blast_core::search::SubjectSource;
        (0..n)
            .map(|i| {
                let s = frag.subject((i * 7) % frag.num_subjects());
                SeqRecord {
                    defline: format!("query_{i:05} sampled"),
                    residues: s.residues.to_vec(),
                    molecule: Molecule::Protein,
                }
            })
            .collect()
    }

    #[test]
    fn serial_report_contains_all_query_sections() {
        let db = tiny_db();
        let queries = sample_queries(&db, 3);
        let params = SearchParams::blastp();
        let report = serial_report(&params, queries, &db, ReportOptions::default()).unwrap();
        let text = String::from_utf8_lossy(&report);
        assert_eq!(text.matches("Query= query_").count(), 3);
        assert_eq!(
            text.matches("Sequences producing significant alignments")
                .count(),
            3
        );
        assert!(text.contains("Score = "));
        assert!(text.contains("Lambda     K      H"));
    }

    #[test]
    fn serial_report_is_deterministic() {
        let db = tiny_db();
        let params = SearchParams::blastp();
        let a = serial_report(
            &params,
            sample_queries(&db, 2),
            &db,
            ReportOptions::default(),
        )
        .unwrap();
        let b = serial_report(
            &params,
            sample_queries(&db, 2),
            &db,
            ReportOptions::default(),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn num_alignments_truncates_records() {
        let db = tiny_db();
        let queries = sample_queries(&db, 1);
        let params = SearchParams::blastp();
        let full = serial_report(&params, queries.clone(), &db, ReportOptions::default()).unwrap();
        let trimmed = serial_report(
            &params,
            queries,
            &db,
            ReportOptions {
                num_descriptions: 500,
                num_alignments: 1,
            },
        )
        .unwrap();
        let count = |r: &[u8]| String::from_utf8_lossy(r).matches("\n Score = ").count();
        assert!(count(&full) > count(&trimmed) || count(&full) == 1);
        assert!(trimmed.len() <= full.len());
    }

    #[test]
    fn layout_offsets_are_consistent() {
        // The head, the rendered summary region and the records chain in
        // file order; without summaries the region is empty and the
        // no-hits notice closes the head.
        let db = tiny_db();
        let params = SearchParams::blastp();
        let cfg = ReportConfig::for_molecule(Molecule::Protein, "nr-tiny", db.stats());
        let query = sample_queries(&db, 1).remove(0);
        let prepared = PreparedQueries::prepare(&params, vec![query.clone()], db.stats());
        let space = &prepared.spaces[0];
        let summaries = vec![("gi|1| subject".to_string(), 50.0, 1e-9); 3];
        let layout = build_layout(&cfg, &params, &query, space, &summaries);
        let section = &layout.section;
        assert!(section.head.ends_with(format::SUMMARY_PREAMBLE));
        assert_eq!(section.summary_len, layout.summary.len() as u64);
        assert_eq!(section.summary_offset(100), 100 + section.head.len() as u64);
        assert_eq!(
            section.records_offset(100),
            section.summary_offset(100) + layout.summary.len() as u64
        );
        let none = build_layout(&cfg, &params, &query, space, &[]);
        assert!(none.section.head.ends_with(&format::no_hits_section()));
        assert_eq!((none.section.summary_len, none.summary.as_str()), (0, ""));
        assert_eq!(
            none.section.records_offset(7),
            7 + none.section.head.len() as u64
        );
    }

    #[test]
    fn order_hits_and_order_meta_agree() {
        let mk = |score: i32, oid: u32| Hsp {
            query_idx: 0,
            oid,
            q_start: 0,
            q_end: 10,
            s_start: 0,
            s_end: 10,
            score,
            bit_score: score as f64,
            evalue: 1.0 / score as f64,
        };
        let mut hits = vec![
            SubjectHit {
                oid: 2,
                subject_len: 10,
                hsps: vec![mk(50, 2)],
            },
            SubjectHit {
                oid: 1,
                subject_len: 10,
                hsps: vec![mk(90, 1)],
            },
        ];
        let mut meta: Vec<(MetaHit, usize)> = hits
            .iter()
            .map(|h| MetaHit {
                oid: h.oid,
                subject_len: h.subject_len,
                record_size: 1,
                defline: String::new(),
                best: h.hsps[0],
            })
            .zip(1..)
            .collect();
        order_hits(&mut hits);
        order_meta(&mut meta);
        let a: Vec<u32> = hits.iter().map(|h| h.oid).collect();
        let b: Vec<u32> = meta.iter().map(|(h, _)| h.oid).collect();
        assert_eq!(a, b);
        assert_eq!(a, vec![1, 2]);
    }
}
