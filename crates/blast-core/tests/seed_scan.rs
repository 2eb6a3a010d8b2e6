//! Differential test of the two-pass seed scan.
//!
//! The reference below is the one-pass scan `BlastSearcher::search_subject`
//! ran before the scan was split into a pass that compacts the subject's
//! non-empty words and a pass that walks fixed-trip buckets, together with
//! the stamped 16-byte diagonal table it used (`reference/stamped_diag.rs`)
//! and the extension and collection steps around it — moved here
//! verbatim, except that the kernel's private fields became the public
//! accessors of `PreparedQueries` and `SearchParams::bits_to_raw` a local
//! function. The production kernel must reproduce its results and counters
//! exactly.

use blast_core::alphabet::DNA_N;
use blast_core::extend::{gapped_xdrop, ungapped_xdrop, ExtendScratch, GappedHit, UngappedHit};
use blast_core::hsp::{cull_contained_sorted, Hsp, RankKey};
use blast_core::lookup::INLINE_HITS;
use blast_core::search::{
    BlastSearcher, FragmentResult, PreparedQueries, SearchParams, SearchScratch, SearchStats,
    SubjectHit, SubjectSource, VecSource,
};
use blast_core::seq::{SeqRecord, SubjectView};
use blast_core::stats::DbStats;
use proptest::prelude::*;

mod stamped {
    include!("reference/stamped_diag.rs");
}

// ---- reference: the one-pass scan -------------------------------------

fn bits_to_raw(params: &SearchParams, bits: f64) -> i32 {
    (bits * std::f64::consts::LN_2 / params.ungapped.lambda).round() as i32
}

#[derive(Default)]
struct RefScratch {
    diag: stamped::DiagState,
    gapped_hits: Vec<(u32, GappedHit)>,
    ungapped_keep: Vec<(u32, UngappedHit)>,
    keyed: Vec<((u32, RankKey), Hsp)>,
    run: Vec<Hsp>,
    ranked: Vec<(RankKey, SubjectHit)>,
    ext: ExtendScratch,
}

struct Reference<'a> {
    params: &'a SearchParams,
    queries: &'a PreparedQueries,
    x_ungapped: i32,
    x_gapped: i32,
    gap_trigger: i32,
}

impl<'a> Reference<'a> {
    fn new(params: &'a SearchParams, queries: &'a PreparedQueries) -> Reference<'a> {
        Reference {
            params,
            queries,
            x_ungapped: bits_to_raw(params, params.xdrop_ungapped_bits),
            x_gapped: bits_to_raw(params, params.xdrop_gapped_bits),
            gap_trigger: bits_to_raw(params, params.gap_trigger_bits),
        }
    }

    fn search<S: SubjectSource + ?Sized>(
        &self,
        source: &S,
        scratch: &mut RefScratch,
    ) -> FragmentResult {
        let mut result = FragmentResult {
            per_query: vec![Vec::new(); self.queries.len()],
            stats: SearchStats::default(),
        };
        let concat_len = self.queries.set().concat().len();
        for si in 0..source.num_subjects() {
            let subject = source.subject(si);
            self.search_subject(&subject, concat_len, scratch, &mut result);
        }
        self.finalize(&mut result, scratch);
        result
    }

    fn finalize(&self, result: &mut FragmentResult, scratch: &mut RefScratch) {
        let ranked = &mut scratch.ranked;
        for hits in &mut result.per_query {
            ranked.clear();
            ranked.extend(hits.drain(..).map(|h| (h.hsps[0].rank_key(), h)));
            ranked.sort_unstable_by_key(|a| a.0);
            ranked.truncate(self.params.hitlist_size);
            hits.extend(ranked.drain(..).map(|(_, h)| h));
        }
    }

    fn search_subject(
        &self,
        subject: &SubjectView<'_>,
        concat_len: usize,
        scratch: &mut RefScratch,
        result: &mut FragmentResult,
    ) {
        let params = self.params;
        let w = params.word_len;
        result.stats.subjects += 1;
        result.stats.residues += subject.residues.len() as u64;
        if subject.residues.len() < w {
            return;
        }
        scratch
            .diag
            .begin_subject(concat_len + subject.residues.len() + 1);
        scratch.gapped_hits.clear();
        scratch.ungapped_keep.clear();

        let concat = self.queries.set().concat();
        let s = subject.residues;
        let s_len = s.len();
        let alpha = params.word_alphabet as u32;
        let word_span = alpha.pow(w as u32 - 1);

        // Rolling word index over the subject.
        let mut idx = 0u32;
        let mut run = 0usize;
        for (sp_end, &c) in s.iter().enumerate().take(s_len) {
            if (c as u32) >= alpha {
                run = 0;
                idx = 0;
                continue;
            }
            idx = (idx % word_span) * alpha + c as u32;
            run += 1;
            if run < w {
                continue;
            }
            let sp = (sp_end + 1 - w) as u32; // word start in subject
            let bucket = self.queries.lookup().hits(idx);
            if bucket.is_empty() {
                continue;
            }
            result.stats.seed_hits += bucket.len() as u64;
            for &qp in bucket {
                let d = (qp as usize + s_len) - sp as usize;
                if !scratch
                    .diag
                    .admit_hit(d, sp, w as u32, params.two_hit_window)
                {
                    continue;
                }
                self.extend_seed(subject, concat, qp, sp, d, scratch, result);
            }
        }

        self.collect_subject_hits(subject, scratch, result);
    }

    #[allow(clippy::too_many_arguments)]
    fn extend_seed(
        &self,
        subject: &SubjectView<'_>,
        concat: &[u8],
        qp: u32,
        sp: u32,
        d: usize,
        scratch: &mut RefScratch,
        result: &mut FragmentResult,
    ) {
        let params = self.params;
        result.stats.ungapped_extensions += 1;
        let hit = ungapped_xdrop(
            &params.matrix,
            concat,
            subject.residues,
            qp,
            sp,
            params.word_len as u32,
            self.x_ungapped,
        );
        scratch.diag.set_extension_end(d, hit.s_end);

        // Identify which query this extension belongs to. Extensions cannot
        // cross sentinels (they score UNDEFINED against everything), but be
        // defensive: locate both ends.
        let Some((query_idx, _)) = self.queries.set().locate(hit.q_start) else {
            return;
        };
        let (q_lo, q_hi) = self.queries.set().range(query_idx);
        if hit.q_end > q_hi {
            return; // crossed a sentinel: discard (cannot happen with sane matrices)
        }
        let cutoff = self.queries.cutoff(query_idx);

        if hit.score >= self.gap_trigger {
            // Gapped extension from the ungapped segment's midpoint, unless
            // that seed already lies inside a gapped hit for this query.
            let (seed_q, seed_s) = hit.seed_point();
            let covered = scratch.gapped_hits.iter().any(|(qi, g)| {
                *qi == query_idx as u32
                    && seed_q >= g.q_start + q_lo
                    && seed_q < g.q_end + q_lo
                    && seed_s >= g.s_start
                    && seed_s < g.s_end
            });
            if covered {
                return;
            }
            result.stats.gapped_extensions += 1;
            let query = &concat[q_lo as usize..q_hi as usize];
            let g = gapped_xdrop(
                &params.matrix,
                params.gaps,
                query,
                subject.residues,
                seed_q - q_lo,
                seed_s,
                self.x_gapped,
                &mut scratch.ext,
            );
            if g.score >= cutoff {
                scratch.gapped_hits.push((query_idx as u32, g));
            }
        } else if hit.score >= cutoff {
            // Strong enough ungapped-only HSP (rare with gapped cutoffs).
            let mut h = hit;
            h.q_start -= q_lo;
            h.q_end -= q_lo;
            scratch.ungapped_keep.push((query_idx as u32, h));
        }
    }

    fn collect_subject_hits(
        &self,
        subject: &SubjectView<'_>,
        scratch: &mut RefScratch,
        result: &mut FragmentResult,
    ) {
        if scratch.gapped_hits.is_empty() && scratch.ungapped_keep.is_empty() {
            return;
        }
        let params = self.params;
        let RefScratch {
            gapped_hits,
            ungapped_keep,
            keyed,
            run,
            ..
        } = scratch;
        keyed.clear();
        for &(qi, g) in gapped_hits.iter() {
            let sp = &self.queries.spaces[qi as usize];
            let h = Hsp {
                query_idx: qi,
                oid: subject.oid,
                q_start: g.q_start,
                q_end: g.q_end,
                s_start: g.s_start,
                s_end: g.s_end,
                score: g.score,
                bit_score: sp.bit_score(g.score),
                evalue: sp.evalue(g.score),
            };
            keyed.push(((qi, h.rank_key()), h));
        }
        for &(qi, u) in ungapped_keep.iter() {
            let sp = &self.queries.spaces[qi as usize];
            let h = Hsp {
                query_idx: qi,
                oid: subject.oid,
                q_start: u.q_start,
                q_end: u.q_end,
                s_start: u.s_start,
                s_end: u.s_end,
                score: u.score,
                bit_score: sp.bit_score(u.score),
                evalue: sp.evalue(u.score),
            };
            keyed.push(((qi, h.rank_key()), h));
        }
        // Queries ascending, canonical HSP order within each query. Equal
        // keys imply identical HSPs, so the unstable sort is deterministic.
        keyed.sort_unstable_by_key(|a| a.0);

        let mut i = 0;
        while i < keyed.len() {
            let qi = keyed[i].0 .0;
            run.clear();
            while i < keyed.len() && keyed[i].0 .0 == qi {
                run.push(keyed[i].1);
                i += 1;
            }
            let kept = cull_contained_sorted(run);
            run.truncate(kept);
            run.retain(|h| h.evalue <= params.expect);
            run.truncate(params.max_hsps_per_subject);
            if run.is_empty() {
                continue;
            }
            result.stats.hsps_kept += run.len() as u64;
            result.per_query[qi as usize].push(SubjectHit {
                oid: subject.oid,
                subject_len: subject.residues.len() as u32,
                hsps: run.clone(),
            });
        }
    }
}

// ---- workloads ---------------------------------------------------------

/// Deterministic draws (xorshift64*).
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 16
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn residues(&mut self, alpha: usize, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.below(alpha) as u8).collect()
    }

    /// `base` with about one residue in `1/rate` substituted.
    fn mutate(&mut self, base: &[u8], alpha: usize, rate: usize) -> Vec<u8> {
        base.iter()
            .map(|&c| {
                if self.below(rate) == 0 {
                    self.below(alpha) as u8
                } else {
                    c
                }
            })
            .collect()
    }
}

/// A search to run both ways: parameters, queries, and a database.
struct Workload {
    params: SearchParams,
    queries: Vec<SeqRecord>,
    subjects: Vec<SeqRecord>,
}

/// `nq` queries and a few subjects from one family. Query 0 repeats a
/// short motif, so its words have more positions than fit inline and
/// their buckets spill; later queries are family members, copies of
/// query 0, or noise. Subjects are family members (some carrying the
/// motif), noise, or shorter than a word, with ambiguity codes sprinkled
/// through them. The query filter is off, so the motif is not masked.
fn workload(dna: bool, nq: usize, seed: u64) -> Workload {
    let mut params = if dna {
        SearchParams::blastn()
    } else {
        SearchParams::blastp()
    };
    params.filter_query = false;
    let molecule = params.molecule;
    let (alpha, w) = (params.word_alphabet, params.word_len);
    let ambiguity: &[u8] = if dna {
        &[DNA_N]
    } else {
        &[20, 21, 22, 23, 24, 25, 26]
    };
    let mut draw = Draw(seed | 1);
    let scale = if dna { 2 } else { 1 };

    let family = draw.residues(alpha, 90 * scale);
    let period = 1 + draw.below(4);
    let motif: Vec<u8> = draw
        .residues(alpha, period)
        .into_iter()
        .cycle()
        .take((w + 12 + draw.below(30)) * scale)
        .collect();
    let mut queries = vec![motif.clone()];
    for _ in 1..nq {
        let q = match draw.below(4) {
            0 => queries[0].clone(),
            1 => {
                let len = (10 + draw.below(40)) * scale;
                draw.residues(alpha, len)
            }
            _ => {
                let lo = draw.below(family.len() / 2);
                let hi = (lo + (w + 10 + draw.below(60)) * scale).min(family.len());
                draw.mutate(&family[lo..hi], alpha, 8)
            }
        };
        queries.push(q);
    }

    let nsubjects = 2 + draw.below(7);
    let mut subjects = Vec::new();
    for _ in 0..nsubjects {
        let kind = draw.below(5);
        let len = match kind {
            0 => draw.below(w),
            1 => (20 + draw.below(120)) * scale,
            _ => draw.below(30) * scale,
        };
        let mut s = draw.residues(alpha, len);
        if kind >= 2 {
            if kind == 2 {
                s.extend_from_slice(&motif);
            }
            s.extend(draw.mutate(&family, alpha, 6));
        }
        for c in s.iter_mut() {
            if draw.below(40) == 0 {
                *c = ambiguity[draw.below(ambiguity.len())];
            }
        }
        subjects.push(s);
    }

    let record = |i: usize, residues: Vec<u8>| SeqRecord {
        defline: format!("r{i}"),
        residues,
        molecule,
    };
    Workload {
        params,
        queries: queries
            .into_iter()
            .enumerate()
            .map(|(i, r)| record(i, r))
            .collect(),
        subjects: subjects
            .into_iter()
            .enumerate()
            .map(|(i, r)| record(i, r))
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every search — 1 to 12 queries, spilled buckets, ambiguity codes in
    /// subjects, subjects shorter than a word, blastp and blastn — returns
    /// the one-pass reference's hits and counters, through a fresh scratch
    /// and through one left dirty by the searches before it.
    #[test]
    fn two_pass_scan_equals_the_one_pass_reference(
        searches in prop::collection::vec((any::<bool>(), 1usize..13, any::<u64>()), 1..5),
    ) {
        let mut dirty = SearchScratch::new();
        for (dna, nq, seed) in searches {
            let Workload { params, queries, subjects } = workload(dna, nq, seed);
            let db = DbStats {
                num_sequences: subjects.len() as u64,
                total_residues: subjects.iter().map(|r| r.len() as u64).sum(),
            };
            let prepared = PreparedQueries::prepare(&params, queries, db);
            let concat = prepared.set().concat();
            let motif_word = prepared.lookup().word_index(&concat[..params.word_len]);
            prop_assert!(
                motif_word.is_some_and(|w| prepared.lookup().hits(w).len() > INLINE_HITS),
                "query 0's first word spills"
            );
            let source = VecSource::from_records(&subjects);

            let reference = Reference::new(&params, &prepared)
                .search(&source, &mut RefScratch::default());
            let searcher = BlastSearcher::new(&params, &prepared);
            let fresh = searcher.search(&source, &mut SearchScratch::new());
            let reused = searcher.search(&source, &mut dirty);
            prop_assert_eq!(&fresh.per_query, &reference.per_query, "fresh scratch");
            prop_assert_eq!(fresh.stats, reference.stats, "fresh scratch");
            prop_assert_eq!(&reused.per_query, &reference.per_query, "dirty scratch");
            prop_assert_eq!(reused.stats, reference.stats, "dirty scratch");
        }
    }
}
