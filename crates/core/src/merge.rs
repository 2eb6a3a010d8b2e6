//! Master-side metadata merging, global selection, and output layout.
//!
//! The master never touches sequence data or record bytes: it merges the
//! workers' metadata, picks the global output set, renders only the
//! per-query headers/summaries/footers (whose content is metadata), and
//! assigns an absolute file offset to every selected record. Workers then
//! write their own cached records at those offsets collectively.

use blast_core::format::ReportConfig;
use blast_core::search::{PreparedQueries, SearchParams};
use mpiblast::report::{build_layout, order_meta, ReportOptions};
use mpiblast::wire::{MetaHit, MetaSubmission, OffsetAssignment};

/// The result of merging all workers' metadata.
#[derive(Debug, Clone, Default)]
pub struct MergeOutcome {
    /// Per-rank offset assignments (index = rank; the master's entry is
    /// always empty).
    pub per_rank: Vec<OffsetAssignment>,
    /// The master's own file regions: `(absolute offset, text)` for each
    /// query's header+summary block and footer.
    pub master_sections: Vec<(u64, String)>,
    /// Total output-file size.
    pub total_bytes: u64,
    /// Items that passed through the merge (cost accounting).
    pub merged_items: u64,
}

/// Merge `subs[rank]` (one [`MetaSubmission`] per rank, the master's
/// empty) into the global output layout, starting at file offset
/// `start_offset` (non-zero when the run processes queries in batches:
/// each batch's sections append after the previous batch's).
pub fn merge_and_layout(
    report_cfg: &ReportConfig,
    params: &SearchParams,
    prepared: &PreparedQueries,
    subs: &[MetaSubmission],
    opts: ReportOptions,
    start_offset: u64,
) -> MergeOutcome {
    let nranks = subs.len();
    let mut out = MergeOutcome {
        per_rank: vec![OffsetAssignment::default(); nranks],
        ..Default::default()
    };

    // Regroup metadata per query, remembering each hit's owner rank.
    let mut per_query: Vec<Vec<(MetaHit, usize)>> = vec![Vec::new(); prepared.len()];
    for (rank, sub) in subs.iter().enumerate() {
        for (q, hits) in &sub.per_query {
            for h in hits {
                per_query[*q as usize].push((h.clone(), rank));
            }
        }
    }

    let mut section_start = start_offset;
    for (q, mut hits) in per_query.into_iter().enumerate() {
        out.merged_items += hits.len() as u64;
        order_meta(&mut hits);
        let n_desc = hits.len().min(opts.num_descriptions);
        let n_rec = hits.len().min(opts.num_alignments);
        let summaries: Vec<(String, f64, f64)> = hits
            .iter()
            .take(n_desc)
            .map(|(h, _)| (h.defline.clone(), h.best.bit_score, h.best.evalue))
            .collect();
        let layout = build_layout(
            report_cfg,
            params,
            &prepared.records[q],
            &prepared.spaces[q],
            &summaries,
            hits.iter()
                .take(n_rec)
                .map(|(h, _)| h.record_size)
                .collect(),
        );
        for (i, (h, owner)) in hits.iter().take(n_rec).enumerate() {
            out.per_rank[*owner].records.push((
                q as u32,
                h.oid,
                layout.record_offset(section_start, i),
            ));
        }
        let mut head = layout.header.clone();
        head.push_str(&layout.summary);
        out.master_sections.push((section_start, head));
        let footer_off = section_start + layout.total() - layout.footer.len() as u64;
        out.master_sections
            .push((footer_off, layout.footer.clone()));
        section_start += layout.total();
    }
    out.total_bytes = section_start - start_offset;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_core::hsp::Hsp;
    use blast_core::seq::SeqRecord;
    use blast_core::stats::DbStats;
    use blast_core::Molecule;

    fn meta(oid: u32, score: i32, size: u64) -> MetaHit {
        MetaHit {
            oid,
            subject_len: 100,
            record_size: size,
            defline: format!("gi|{oid}| subject"),
            best: Hsp {
                query_idx: 0,
                oid,
                q_start: 0,
                q_end: 10,
                s_start: 0,
                s_end: 10,
                score,
                bit_score: score as f64,
                evalue: (-(score as f64)).exp(),
            },
        }
    }

    fn prepared() -> (SearchParams, PreparedQueries, ReportConfig) {
        let params = SearchParams::blastp();
        let stats = DbStats {
            num_sequences: 100,
            total_residues: 50_000,
        };
        let queries = vec![SeqRecord {
            defline: "q0".into(),
            residues: vec![0u8; 60],
            molecule: Molecule::Protein,
        }];
        let prepared = PreparedQueries::prepare(&params, queries, stats);
        let cfg = ReportConfig::blastp("mdb", stats);
        (params, prepared, cfg)
    }

    #[test]
    fn records_are_placed_in_score_order_without_overlap() {
        let (params, prepared, cfg) = prepared();
        // Worker 1 has oids 10 (score 50) and 11 (score 90); worker 2 has
        // oid 20 (score 70).
        let subs = vec![
            MetaSubmission::default(),
            MetaSubmission {
                per_query: vec![(0, vec![meta(10, 50, 100), meta(11, 90, 200)])],
            },
            MetaSubmission {
                per_query: vec![(0, vec![meta(20, 70, 300)])],
            },
        ];
        let out = merge_and_layout(&cfg, &params, &prepared, &subs, ReportOptions::default(), 0);
        assert_eq!(out.merged_items, 3);
        // Worker 1 owns two records, worker 2 one; rank 0 none.
        assert!(out.per_rank[0].records.is_empty());
        assert_eq!(out.per_rank[1].records.len(), 2);
        assert_eq!(out.per_rank[2].records.len(), 1);
        // File order: 11 (90), 20 (70), 10 (50) — offsets must chain with
        // the record sizes 200, 300, 100 after the header+summary block.
        let (_, _, off11) = out.per_rank[1].records[0];
        let (_, _, off10) = out.per_rank[1].records[1];
        let (_, _, off20) = out.per_rank[2].records[0];
        assert_eq!(off20, off11 + 200);
        assert_eq!(off10, off20 + 300);
        // Master's header+summary block starts at 0 and footer follows the
        // last record.
        assert_eq!(out.master_sections[0].0, 0);
        assert_eq!(out.master_sections[1].0, off10 + 100);
        assert_eq!(
            out.total_bytes,
            out.master_sections[1].0 + out.master_sections[1].1.len() as u64
        );
    }

    #[test]
    fn num_alignments_limits_records_but_not_summaries() {
        let (params, prepared, cfg) = prepared();
        let subs = vec![
            MetaSubmission::default(),
            MetaSubmission {
                per_query: vec![(0, vec![meta(1, 90, 10), meta(2, 80, 10), meta(3, 70, 10)])],
            },
        ];
        let opts = ReportOptions {
            num_descriptions: 3,
            num_alignments: 1,
        };
        let out = merge_and_layout(&cfg, &params, &prepared, &subs, opts, 0);
        assert_eq!(out.per_rank[1].records.len(), 1);
        assert_eq!(out.per_rank[1].records[0].1, 1, "best oid kept");
        // All three appear in the summary text.
        assert!(out.master_sections[0].1.contains("gi|1|"));
        assert!(out.master_sections[0].1.contains("gi|3|"));
    }

    #[test]
    fn no_hits_query_still_gets_sections() {
        let (params, prepared, cfg) = prepared();
        let subs = vec![MetaSubmission::default(), MetaSubmission::default()];
        let out = merge_and_layout(&cfg, &params, &prepared, &subs, ReportOptions::default(), 0);
        assert_eq!(out.master_sections.len(), 2);
        assert!(out.master_sections[0].1.contains("No hits found"));
        assert!(out.total_bytes > 0);
        assert!(out.per_rank.iter().all(|a| a.records.is_empty()));
    }
}
