//! Master-side metadata merging, global selection, and output layout.
//!
//! The master never touches sequence data or record bytes: it merges the
//! workers' metadata, picks the global output set, and lays the report
//! out in the order [`QuerySection`] gives every query's section. The
//! merge follows the arrivals: a [`Merger`] absorbs each submission the
//! moment the master accepts it, ordering its hits into per-query sets,
//! so the ordering work is done while the other workers still format
//! theirs; at the merge it absorbs only the orphans' metadata, and the
//! layout is one in-order walk. It renders only what no worker holds —
//! each query's header, the summary section's column preamble (or the
//! no-hits notice) and the footer — and measures every one-line summary
//! without rendering it ([`format::summary_len`]). Each selected record
//! gets an absolute file offset, and each query's summary entries one
//! [`SummaryBlock`], which the live workers split between them
//! ([`SummaryBlock::split`]), render, and write beside their own cached
//! records. [`merge_and_layout`] is the one-shot form over the same
//! merger.

use std::collections::BTreeSet;

use blast_core::format::{self, QuerySection, ReportConfig};
use blast_core::hsp::RankKey;
use blast_core::search::{PreparedQueries, SearchParams};
use mpiblast::report::ReportOptions;
use mpiblast::wire::{MetaHit, MetaSubmission, OffsetAssignment};
use mpisim::sched::chunk_evenly;
use seqfmt::wire_struct;

/// One one-line summary as it travels to the worker that renders it: the
/// subject defline already cut to the summary column
/// ([`format::summary_name`]), the bit score and the E-value.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SummaryEntry {
    /// The cut defline.
    pub name: String,
    /// Bit score of the subject's best HSP.
    pub bit_score: f64,
    /// E-value of the subject's best HSP.
    pub evalue: f64,
}

wire_struct!(SummaryEntry {
    name: String,
    bit_score: f64,
    evalue: f64,
});

impl SummaryEntry {
    /// The entry of a merged hit.
    fn of(hit: &MetaHit) -> SummaryEntry {
        SummaryEntry {
            name: format::summary_name(&hit.defline).into_owned(),
            bit_score: hit.best.bit_score,
            evalue: hit.best.evalue,
        }
    }

    /// The length of the rendered line.
    fn len(&self) -> u64 {
        format::summary_len(&self.name, self.bit_score, self.evalue) as u64
    }
}

/// A contiguous run of one query's one-line summaries at an absolute
/// file offset. The block that `closes` the query's summary section ends
/// with the blank line after its last entry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SummaryBlock {
    /// Absolute offset of the block's first byte.
    pub offset: u64,
    /// The entries, in report order.
    pub entries: Vec<SummaryEntry>,
    /// Whether the section's closing blank line follows the entries.
    pub closes: bool,
}

wire_struct!(SummaryBlock {
    offset: u64,
    entries: Vec<SummaryEntry>,
    closes: bool,
});

impl SummaryBlock {
    /// The bytes the block renders to.
    pub fn len(&self) -> u64 {
        let close = if self.closes {
            format::SUMMARY_CLOSE.len()
        } else {
            0
        };
        self.entries.iter().map(SummaryEntry::len).sum::<u64>() + close as u64
    }

    /// Whether the block renders to nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && !self.closes
    }

    /// Render the block: its lines, then the closing blank line if it
    /// closes the section.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            format::push_summary_line(&mut out, &e.name, e.bit_score, e.evalue);
        }
        if self.closes {
            out.push_str(format::SUMMARY_CLOSE);
        }
        out
    }

    /// Deal the entries out into `parts` contiguous blocks
    /// ([`chunk_evenly`]), each at its own offset; the last one closes
    /// the section if this one does. Blocks may be empty.
    pub fn split(self, parts: usize) -> Vec<SummaryBlock> {
        let mut offset = self.offset;
        let mut blocks: Vec<SummaryBlock> = chunk_evenly(self.entries, parts)
            .into_iter()
            .map(|entries| {
                let block = SummaryBlock {
                    offset,
                    entries,
                    closes: false,
                };
                offset += block.len();
                block
            })
            .collect();
        if let Some(last) = blocks.last_mut() {
            last.closes = self.closes;
        }
        blocks
    }
}

/// The result of merging all workers' metadata.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MergeOutcome {
    /// Per-rank offset assignments (index = rank; the master's entry
    /// holds the records of the orphans it adopted).
    pub per_rank: Vec<OffsetAssignment>,
    /// The master's own file regions: `(absolute offset, text)` for each
    /// query's header with the summary preamble (or the no-hits notice),
    /// and its footer.
    pub master_sections: Vec<(u64, String)>,
    /// Each query's one-line summaries, one closing block per query that
    /// has hits, in file order: the workers render them.
    pub summaries: Vec<SummaryBlock>,
    /// Total output-file size.
    pub total_bytes: u64,
    /// Items that passed through the merge (cost accounting).
    pub merged_items: u64,
}

/// Where a hit sorts among its query's hits: its best HSP's rank key,
/// then the rank owning its record, then its slot in the merger's hits.
/// A rank's hits take ascending slots in submission order, so that is
/// the order a stable sort by rank key over the rank-ordered
/// concatenation of the submissions gives
/// ([`order_meta`](mpiblast::report::order_meta)), whatever order the
/// submissions arrive in.
type MergeKey = (RankKey, usize, usize);

/// The merge of one epoch's submissions, fed one submission at a time.
#[derive(Debug, Clone, Default)]
pub struct Merger {
    /// Every absorbed hit, in arrival order.
    hits: Vec<MetaHit>,
    /// Per query, the keys of its absorbed hits, in report order.
    per_query: Vec<BTreeSet<MergeKey>>,
    nranks: usize,
}

impl Merger {
    /// An empty merge of a `nqueries`-query batch over `nranks` ranks.
    pub fn new(nqueries: usize, nranks: usize) -> Merger {
        Merger {
            hits: Vec::new(),
            per_query: vec![BTreeSet::new(); nqueries],
            nranks,
        }
    }

    /// The hits a submission carries: the items its absorb is charged.
    pub fn items(sub: &MetaSubmission) -> u64 {
        sub.per_query
            .iter()
            .map(|(_, hits)| hits.len() as u64)
            .sum()
    }

    /// Order `rank`'s submission into the merge. Each rank is absorbed
    /// at most once; its query indexes must lie inside the batch.
    pub fn absorb(&mut self, rank: usize, sub: MetaSubmission) {
        for (q, hits) in sub.per_query {
            for hit in hits {
                let key = (hit.best.rank_key(), rank, self.hits.len());
                self.per_query[q as usize].insert(key);
                self.hits.push(hit);
            }
        }
    }

    /// Lay the report out from the absorbed hits of the ranks `counts`
    /// accepts, starting at file offset `start_offset` (non-zero when
    /// the run processes queries in batches: each batch's sections
    /// append after the previous batch's).
    pub fn layout(
        self,
        report_cfg: &ReportConfig,
        params: &SearchParams,
        prepared: &PreparedQueries,
        opts: ReportOptions,
        start_offset: u64,
        counts: impl Fn(usize) -> bool,
    ) -> MergeOutcome {
        let mut out = MergeOutcome {
            per_rank: vec![OffsetAssignment::default(); self.nranks],
            ..Default::default()
        };
        let mut section_start = start_offset;
        for (q, keys) in self.per_query.iter().enumerate() {
            let hits: Vec<(&MetaHit, usize)> = keys
                .iter()
                .filter(|&&(_, owner, _)| counts(owner))
                .map(|&(_, owner, slot)| (&self.hits[slot], owner))
                .collect();
            out.merged_items += hits.len() as u64;
            let n_desc = hits.len().min(opts.num_descriptions);
            let n_rec = hits.len().min(opts.num_alignments);
            let entries: Vec<SummaryEntry> = hits
                .iter()
                .take(n_desc)
                .map(|(h, _)| SummaryEntry::of(h))
                .collect();
            let section = QuerySection::new(
                report_cfg,
                params,
                &prepared.records[q],
                &prepared.spaces[q],
                entries.iter().map(SummaryEntry::len),
            );
            let mut offset = section.records_offset(section_start);
            for (h, owner) in hits.iter().take(n_rec) {
                out.per_rank[*owner].records.push((q as u32, h.oid, offset));
                offset += h.record_size;
            }
            if !entries.is_empty() {
                out.summaries.push(SummaryBlock {
                    offset: section.summary_offset(section_start),
                    entries,
                    closes: true,
                });
            }
            out.master_sections.push((section_start, section.head));
            section_start = offset + section.footer.len() as u64;
            out.master_sections.push((offset, section.footer));
        }
        out.total_bytes = section_start - start_offset;
        out
    }
}

/// Merge `subs[rank]` (one [`MetaSubmission`] per rank, the master's
/// holding the orphans' metadata) into the global output layout at once,
/// starting at file offset `start_offset`: every submission absorbed in
/// rank order, then [`Merger::layout`] over all of them.
pub fn merge_and_layout(
    report_cfg: &ReportConfig,
    params: &SearchParams,
    prepared: &PreparedQueries,
    subs: &[MetaSubmission],
    opts: ReportOptions,
    start_offset: u64,
) -> MergeOutcome {
    let mut merger = Merger::new(prepared.len(), subs.len());
    for (rank, sub) in subs.iter().enumerate() {
        merger.absorb(rank, sub.clone());
    }
    merger.layout(report_cfg, params, prepared, opts, start_offset, |_| true)
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
        prepared_n(1)
    }

    /// A batch of `n` queries.
    fn prepared_n(n: usize) -> (SearchParams, PreparedQueries, ReportConfig) {
        let params = SearchParams::blastp();
        let stats = DbStats {
            num_sequences: 100,
            total_residues: 50_000,
        };
        let queries = (0..n)
            .map(|q| SeqRecord {
                defline: format!("q{q}"),
                residues: vec![0u8; 60 + q],
                molecule: Molecule::Protein,
            })
            .collect();
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
        // the record sizes 200, 300, 100 after the header and summary.
        let (_, _, off11) = out.per_rank[1].records[0];
        let (_, _, off10) = out.per_rank[1].records[1];
        let (_, _, off20) = out.per_rank[2].records[0];
        assert_eq!(off20, off11 + 200);
        assert_eq!(off10, off20 + 300);
        // The master's header starts at 0, the summary right after it,
        // the first record right after that, and the footer follows the
        // last record.
        assert_eq!(out.master_sections[0].0, 0);
        let summary = &out.summaries[0];
        assert_eq!(summary.offset, out.master_sections[0].1.len() as u64);
        assert_eq!(off11, summary.offset + summary.len());
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
        // All three are in the query's summary block, best first.
        let names: Vec<&str> = out.summaries[0]
            .entries
            .iter()
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(names, ["gi|1| subject", "gi|2| subject", "gi|3| subject"]);
        // The master renders none of them.
        assert!(!out.master_sections[0].1.contains("gi|"));
    }

    #[test]
    fn the_layout_renders_the_serial_sections_byte_for_byte() {
        // Master sections, summary blocks split any way and records of
        // their stated sizes tile the report; together they are exactly
        // `build_layout`'s head, summary region, records and footer.
        let (params, prepared, cfg) = prepared();
        let hits = vec![meta(1, 90, 10), meta(2, 80, 20), meta(3, 70, 30)];
        let subs = vec![
            MetaSubmission::default(),
            MetaSubmission {
                per_query: vec![(0, hits.clone())],
            },
        ];
        let summaries: Vec<(String, f64, f64)> = hits
            .iter()
            .map(|h| (h.defline.clone(), h.best.bit_score, h.best.evalue))
            .collect();
        let layout = mpiblast::report::build_layout(
            &cfg,
            &params,
            &prepared.records[0],
            &prepared.spaces[0],
            &summaries,
        );
        let mut expected = layout.section.head + &layout.summary;
        for (i, size) in [10, 20, 30].into_iter().enumerate() {
            expected.push_str(&i.to_string().repeat(size));
        }
        expected.push_str(&layout.section.footer);
        for parts in 1..=5 {
            let start = 7;
            let out = merge_and_layout(
                &cfg,
                &params,
                &prepared,
                &subs,
                ReportOptions::default(),
                start,
            );
            let mut report = vec![b'?'; out.total_bytes as usize];
            let mut put = |off: u64, text: &[u8]| {
                let at = (off - start) as usize;
                report[at..at + text.len()].copy_from_slice(text);
            };
            for (off, text) in &out.master_sections {
                put(*off, text.as_bytes());
            }
            for block in out
                .summaries
                .clone()
                .into_iter()
                .flat_map(|b| b.split(parts))
            {
                let text = block.render();
                assert_eq!(text.len() as u64, block.len());
                put(block.offset, text.as_bytes());
            }
            for (i, &(_, _, off)) in out.per_rank[1].records.iter().enumerate() {
                put(off, i.to_string().repeat([10, 20, 30][i]).as_bytes());
            }
            assert_eq!(
                String::from_utf8(report).unwrap(),
                expected,
                "{parts} parts"
            );
        }
    }

    #[test]
    fn no_hits_query_still_gets_sections() {
        let (params, prepared, cfg) = prepared();
        let subs = vec![MetaSubmission::default(), MetaSubmission::default()];
        let out = merge_and_layout(&cfg, &params, &prepared, &subs, ReportOptions::default(), 0);
        assert_eq!(out.master_sections.len(), 2);
        assert!(out.master_sections[0].1.contains("No hits found"));
        assert!(out.summaries.is_empty(), "the notice stays on the master");
        assert!(out.total_bytes > 0);
        assert!(out.per_rank.iter().all(|a| a.records.is_empty()));
    }

    /// One rank's submission as the property test draws it: per entry a
    /// query index and its hits, each `(oid, score, record size)`.
    type Drawn = Vec<(u32, Vec<(u32, i32, u64)>)>;

    fn submission(drawn: &Drawn) -> MetaSubmission {
        let per_query = drawn.iter().map(|(q, hits)| {
            let hits = hits
                .iter()
                .map(|&(oid, score, size)| meta(oid, score, size));
            (*q, hits.collect())
        });
        MetaSubmission {
            per_query: per_query.collect(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Absorb any set of submissions in any arrival order — the
        /// orphans' (rank 0) last, as the master does, or empty — and
        /// leave out any ranks: the layout equals the one-shot merge of
        /// the same submissions with the left-out ranks' emptied. Oids
        /// and scores are drawn from few values, so rank keys tie across
        /// and within ranks.
        #[test]
        fn absorbing_in_any_arrival_order_lays_out_as_the_one_shot_merge(
            ranks in proptest::collection::vec(
                (
                    proptest::collection::vec(
                        (0u32..3, proptest::collection::vec((0u32..4, 0i32..3, 1u64..40), 0..5)),
                        0..4,
                    ),
                    proptest::prelude::any::<u16>(),
                    0u8..5,
                ),
                1..6,
            ),
            (num_descriptions, num_alignments, start) in (1usize..6, 0usize..6, 0u64..100),
        ) {
            let (params, prepared, cfg) = prepared_n(3);
            let opts = ReportOptions {
                num_descriptions,
                num_alignments,
            };
            let subs: Vec<MetaSubmission> = ranks.iter().map(|(d, _, _)| submission(d)).collect();
            // Rank 0 always counts, like the master; any other rank is
            // left out one time in five, like a worker that died.
            let counts = |r: usize| r == 0 || ranks[r].2 != 0;
            let mut arrivals: Vec<usize> = (1..ranks.len()).collect();
            arrivals.sort_by_key(|&r| ranks[r].1);
            arrivals.push(0);
            let mut merger = Merger::new(prepared.len(), subs.len());
            for &r in &arrivals {
                merger.absorb(r, subs[r].clone());
            }
            let got = merger.layout(&cfg, &params, &prepared, opts, start, counts);
            let counted: Vec<MetaSubmission> = subs
                .iter()
                .enumerate()
                .map(|(r, sub)| if counts(r) { sub.clone() } else { MetaSubmission::default() })
                .collect();
            let want = merge_and_layout(&cfg, &params, &prepared, &counted, opts, start);
            proptest::prop_assert_eq!(got, want);
        }
    }
}
