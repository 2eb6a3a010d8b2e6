//! Differential tests of the band-only traceback and the direct renderer.
//!
//! The reference below is the dense formulation `banded_global_into`
//! replaced — three full `(n+1)×(m+1)` matrices, traceback by comparing
//! stored scores — and the `format!`-per-line renderer that sat on top of
//! it, both moved here verbatim (only the buffers became locals). The
//! production code must reproduce their scores, edit scripts and record
//! bytes exactly.

use blast_core::alphabet::{decode_letter, Molecule};
use blast_core::extend::{banded_global_into, Alignment, EditOp, ExtendScratch};
use blast_core::format::{
    alignment_record, alignment_record_into, count_alignment, format_evalue, ReportConfig,
};
use blast_core::hsp::Hsp;
use blast_core::karlin::GapPenalties;
use blast_core::matrix::ScoreMatrix;
use blast_core::search::{BlastSearcher, PreparedQueries, SearchParams, SearchScratch, VecSource};
use blast_core::seq::SeqRecord;
use blast_core::stats::DbStats;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---- reference: the dense traceback ----------------------------------

fn dense_banded_global(
    matrix: &ScoreMatrix,
    gaps: GapPenalties,
    query: &[u8],
    subject: &[u8],
    band_pad: usize,
) -> Alignment {
    const NEG: i32 = i32::MIN / 4;
    let n = query.len();
    let m = subject.len();
    assert!(n > 0 && m > 0, "banded_global needs non-empty ranges");

    // Band half-width: diagonal drift plus padding.
    let drift = n.abs_diff(m);
    let half = drift + band_pad.max(1);

    // For row i (0..=n), alive columns are j in [lo(i), hi(i)].
    let lo = |i: usize| -> usize {
        let center = i * m / n.max(1);
        center.saturating_sub(half)
    };
    let hi = |i: usize| -> usize { ((i * m / n.max(1)) + half).min(m) };

    let width = m + 1;
    let cells = (n + 1) * width;
    let mut dp_m = vec![NEG; cells];
    let mut dp_e = vec![NEG; cells]; // gap in query (horizontal)
    let mut dp_f = vec![NEG; cells]; // gap in subject (vertical)
    let at = |i: usize, j: usize| i * width + j;

    dp_m[at(0, 0)] = 0;
    for j in 1..=hi(0) {
        dp_e[at(0, j)] = -gaps.cost(j as i32);
    }
    for i in 1..=n {
        if lo(i) == 0 {
            dp_f[at(i, 0)] = -gaps.cost(i as i32);
        }
        let row = matrix.row(query[i - 1]);
        for j in lo(i).max(1)..=hi(i) {
            let sc = row[subject[j - 1] as usize];
            let prev_best = dp_m[at(i - 1, j - 1)]
                .max(dp_e[at(i - 1, j - 1)])
                .max(dp_f[at(i - 1, j - 1)]);
            if prev_best > NEG {
                dp_m[at(i, j)] = prev_best + sc;
            }
            let up = dp_m[at(i - 1, j)].max(dp_f[at(i - 1, j)] + gaps.open);
            if up > NEG {
                dp_f[at(i, j)] = up - gaps.open - gaps.extend;
            }
            let left = dp_m[at(i, j - 1)].max(dp_e[at(i, j - 1)] + gaps.open);
            if left > NEG {
                dp_e[at(i, j)] = left - gaps.open - gaps.extend;
            }
        }
    }

    // Traceback from (n, m), choosing the best of the three states.
    let mut i = n;
    let mut j = m;
    let score = dp_m[at(n, m)].max(dp_e[at(n, m)]).max(dp_f[at(n, m)]);
    #[derive(Clone, Copy, PartialEq)]
    enum St {
        M,
        E,
        F,
    }
    let mut state = if score == dp_m[at(n, m)] {
        St::M
    } else if score == dp_e[at(n, m)] {
        St::E
    } else {
        St::F
    };
    let mut rev_ops: Vec<EditOp> = Vec::new();
    let push = |ops: &mut Vec<EditOp>, op: EditOp| {
        // Merge with the previous run when the kind matches.
        match (ops.last_mut(), op) {
            (Some(EditOp::Aligned(n)), EditOp::Aligned(k)) => *n += k,
            (Some(EditOp::GapInSubject(n)), EditOp::GapInSubject(k)) => *n += k,
            (Some(EditOp::GapInQuery(n)), EditOp::GapInQuery(k)) => *n += k,
            _ => ops.push(op),
        }
    };
    while i > 0 || j > 0 {
        match state {
            St::M => {
                debug_assert!(i > 0 && j > 0);
                let sc = matrix.score(query[i - 1], subject[j - 1]);
                let target = dp_m[at(i, j)] - sc;
                push(&mut rev_ops, EditOp::Aligned(1));
                i -= 1;
                j -= 1;
                state = if target == dp_m[at(i, j)] {
                    St::M
                } else if target == dp_e[at(i, j)] {
                    St::E
                } else {
                    St::F
                };
            }
            St::E => {
                debug_assert!(j > 0);
                let target = dp_e[at(i, j)];
                push(&mut rev_ops, EditOp::GapInQuery(1));
                // Came from M (open) or E (extend) at (i, j-1).
                let from_open = dp_m[at(i, j - 1)] - gaps.open - gaps.extend;
                j -= 1;
                state = if target == from_open { St::M } else { St::E };
            }
            St::F => {
                debug_assert!(i > 0);
                let target = dp_f[at(i, j)];
                push(&mut rev_ops, EditOp::GapInSubject(1));
                let from_open = dp_m[at(i - 1, j)] - gaps.open - gaps.extend;
                i -= 1;
                state = if target == from_open { St::M } else { St::F };
            }
        }
    }
    rev_ops.reverse();
    Alignment {
        q_start: 0,
        q_end: n as u32,
        s_start: 0,
        s_end: m as u32,
        score,
        ops: rev_ops,
    }
}

// ---- reference: the old record renderer ------------------------------

fn pct(part: u32, whole: u32) -> u32 {
    (part * 100).checked_div(whole).unwrap_or(0)
}

fn reference_alignment_record(
    params: &SearchParams,
    cfg: &ReportConfig,
    query: &[u8],
    subject_defline: &str,
    subject: &[u8],
    hsps: &[Hsp],
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        ">{}\n          Length = {}\n\n",
        subject_defline,
        subject.len()
    ));
    for h in hsps {
        let q_range = &query[h.q_start as usize..h.q_end as usize];
        let s_range = &subject[h.s_start as usize..h.s_end as usize];
        let aln = dense_banded_global(&params.matrix, params.gaps, q_range, s_range, 16);
        let counts = count_alignment(params, q_range, s_range, &aln);
        out.push_str(&format!(
            " Score = {:.1} bits ({}), Expect = {}\n",
            h.bit_score,
            h.score,
            format_evalue(h.evalue)
        ));
        out.push_str(&format!(
            " Identities = {}/{} ({}%), Positives = {}/{} ({}%)",
            counts.identities,
            counts.length,
            pct(counts.identities, counts.length),
            counts.positives,
            counts.length,
            pct(counts.positives, counts.length),
        ));
        if counts.gaps > 0 {
            out.push_str(&format!(
                ", Gaps = {}/{} ({}%)",
                counts.gaps,
                counts.length,
                pct(counts.gaps, counts.length)
            ));
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
            &mut out,
        );
    }
    out
}

/// Expand an edit script into three aligned ASCII rows and emit them in
/// `width`-column blocks with 1-based coordinates.
#[allow(clippy::too_many_arguments)]
fn render_alignment_lines(
    molecule: Molecule,
    matrix: &ScoreMatrix,
    width: usize,
    query: &[u8],
    subject: &[u8],
    q_base: u32,
    s_base: u32,
    aln: &Alignment,
    out: &mut String,
) {
    let mut q_row = Vec::new();
    let mut mid = Vec::new();
    let mut s_row = Vec::new();
    let mut qi = 0usize;
    let mut si = 0usize;
    for op in &aln.ops {
        match *op {
            EditOp::Aligned(n) => {
                for _ in 0..n {
                    let (a, b) = (query[qi], subject[si]);
                    q_row.push(decode_letter(molecule, a));
                    s_row.push(decode_letter(molecule, b));
                    mid.push(if a == b {
                        decode_letter(molecule, a)
                    } else if matrix.score(a, b) > 0 {
                        b'+'
                    } else {
                        b' '
                    });
                    qi += 1;
                    si += 1;
                }
            }
            EditOp::GapInSubject(n) => {
                for _ in 0..n {
                    q_row.push(decode_letter(molecule, query[qi]));
                    s_row.push(b'-');
                    mid.push(b' ');
                    qi += 1;
                }
            }
            EditOp::GapInQuery(n) => {
                for _ in 0..n {
                    q_row.push(b'-');
                    s_row.push(decode_letter(molecule, subject[si]));
                    mid.push(b' ');
                    si += 1;
                }
            }
        }
    }

    let total = q_row.len();
    let mut q_pos = q_base;
    let mut s_pos = s_base;
    let mut start = 0usize;
    while start < total {
        let end = (start + width).min(total);
        let q_chunk = &q_row[start..end];
        let s_chunk = &s_row[start..end];
        let m_chunk = &mid[start..end];
        let q_res = q_chunk.iter().filter(|&&c| c != b'-').count() as u32;
        let s_res = s_chunk.iter().filter(|&&c| c != b'-').count() as u32;
        let q_end_pos = q_pos + q_res.saturating_sub(1);
        let s_end_pos = s_pos + s_res.saturating_sub(1);
        out.push_str(&format!(
            "Query: {:<5} {} {}\n",
            q_pos,
            String::from_utf8_lossy(q_chunk),
            q_end_pos
        ));
        out.push_str(&format!(
            "             {}\n",
            String::from_utf8_lossy(m_chunk)
        ));
        out.push_str(&format!(
            "Sbjct: {:<5} {} {}\n\n",
            s_pos,
            String::from_utf8_lossy(s_chunk),
            s_end_pos
        ));
        q_pos += q_res;
        s_pos += s_res;
        start = end;
    }
}

// ---- differential properties -----------------------------------------

/// Both scoring systems the reports use: BLOSUM62 11/1 and blastn +1/-3 5/2.
fn scoring(dna: bool) -> (ScoreMatrix, GapPenalties, u8) {
    if dna {
        (
            ScoreMatrix::dna(1, -3),
            GapPenalties { open: 5, extend: 2 },
            4,
        )
    } else {
        (ScoreMatrix::blosum62(), GapPenalties::BLOSUM62_DEFAULT, 20)
    }
}

/// `q` with substitutions, insertions and deletions applied: a homolog
/// whose optimal path really uses gaps, and whose length drifts from `q`'s.
fn mutate(q: &[u8], edits: &[(u8, u16, u8, u8)], alphabet: u8) -> Vec<u8> {
    let mut s = q.to_vec();
    for &(kind, at, len, residue) in edits {
        let at = at as usize % (s.len() + 1);
        let residue = residue % alphabet;
        match kind % 3 {
            0 if at < s.len() => s[at] = residue,
            1 => {
                for _ in 0..len {
                    s.insert(at, residue);
                }
            }
            _ => {
                let end = (at + len as usize).min(s.len());
                s.drain(at..end);
            }
        }
    }
    if s.is_empty() {
        s.push(0);
    }
    s
}

/// The production traceback must equal the dense one on `(q, s)`, with a
/// fresh scratch and with `scratch` (which earlier pairs have dirtied).
fn assert_same_traceback(
    matrix: &ScoreMatrix,
    gaps: GapPenalties,
    q: &[u8],
    s: &[u8],
    band_pad: usize,
    scratch: &mut ExtendScratch,
) -> Result<(), TestCaseError> {
    let want = dense_banded_global(matrix, gaps, q, s, band_pad);
    let fresh = banded_global_into(matrix, gaps, q, s, band_pad, &mut ExtendScratch::new());
    let reused = banded_global_into(matrix, gaps, q, s, band_pad, scratch);
    prop_assert_eq!(
        &fresh,
        &want,
        "n={} m={} pad={}",
        q.len(),
        s.len(),
        band_pad
    );
    prop_assert_eq!(
        &reused,
        &want,
        "reused scratch, n={} m={}",
        q.len(),
        s.len()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Homologous pairs with indels: real gapped paths, `n != m` drift,
    /// every `band_pad` the callers could pass. Rows near the corners
    /// have bands clipped at column 0 and at `m`; with a narrow pad and
    /// a long pair the middle rows' bands are clipped at neither.
    #[test]
    fn traceback_matches_dense_on_homologs(
        dna in any::<bool>(),
        q in prop::collection::vec(0u8..20, 1..160),
        edits in prop::collection::vec((0u8..3, any::<u16>(), 1u8..7, 0u8..20), 0..10),
        band_pad in 0usize..=64,
    ) {
        let (matrix, gaps, alphabet) = scoring(dna);
        let q: Vec<u8> = q.iter().map(|&c| c % alphabet).collect();
        let s = mutate(&q, &edits, alphabet);
        let mut scratch = ExtendScratch::new();
        assert_same_traceback(&matrix, gaps, &q, &s, band_pad, &mut scratch)?;
        // Transposed: the drift changes sign, and the scratch is reused.
        assert_same_traceback(&matrix, gaps, &s, &q, band_pad, &mut scratch)?;
    }

    /// Unrelated pairs of unrelated lengths: `m/n` far from 1, so the
    /// band's centre moves by more than one column per row (or stays put
    /// for several rows), and ties between the three states are common.
    #[test]
    fn traceback_matches_dense_on_unrelated_lengths(
        dna in any::<bool>(),
        q in prop::collection::vec(0u8..20, 1..120),
        s in prop::collection::vec(0u8..20, 1..120),
        band_pad in 1usize..=64,
    ) {
        let (matrix, gaps, alphabet) = scoring(dna);
        let q: Vec<u8> = q.iter().map(|&c| c % alphabet).collect();
        let s: Vec<u8> = s.iter().map(|&c| c % alphabet).collect();
        let mut scratch = ExtendScratch::new();
        assert_same_traceback(&matrix, gaps, &q, &s, band_pad, &mut scratch)?;
    }

    /// One-residue ranges on either side.
    #[test]
    fn traceback_matches_dense_on_single_residue_ranges(
        one in 0u8..20,
        other in prop::collection::vec(0u8..20, 1..50),
        band_pad in 1usize..=64,
    ) {
        let (matrix, gaps, _) = scoring(false);
        let mut scratch = ExtendScratch::new();
        assert_same_traceback(&matrix, gaps, &[one], &other, band_pad, &mut scratch)?;
        assert_same_traceback(&matrix, gaps, &other, &[one], band_pad, &mut scratch)?;
    }
}

/// A database of mutated family members around a few random ancestors.
fn family_database(seed: u64) -> (Vec<SeqRecord>, Vec<SeqRecord>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Vec::new();
    let mut queries = Vec::new();
    for fam in 0..4 {
        let len = rng.gen_range(120..400usize);
        let ancestor: Vec<u8> = (0..len).map(|_| rng.gen_range(0..20u32) as u8).collect();
        for member in 0..12 {
            let edits: Vec<(u8, u16, u8, u8)> = (0..rng.gen_range(0..40usize))
                .map(|_| {
                    (
                        rng.gen_range(0..3u32) as u8,
                        rng.gen_range(0..1u32 << 16) as u16,
                        rng.gen_range(1..9u32) as u8,
                        rng.gen_range(0..20u32) as u8,
                    )
                })
                .collect();
            db.push(SeqRecord {
                defline: format!("gi|{}| family {fam} member {member}", db.len() + 1),
                residues: mutate(&ancestor, &edits, 20),
                molecule: Molecule::Protein,
            });
        }
        queries.push(SeqRecord {
            defline: format!("query_{fam} ancestor"),
            residues: ancestor,
            molecule: Molecule::Protein,
        });
    }
    (db, queries)
}

#[test]
fn alignment_record_bytes_match_the_reference_on_a_family_database() {
    let (db, queries) = family_database(2005);
    let stats = DbStats {
        num_sequences: db.len() as u64,
        total_residues: db.iter().map(|r| r.len() as u64).sum(),
    };
    let params = SearchParams::blastp();
    let cfg = ReportConfig::blastp("family-db", stats);
    let prepared = PreparedQueries::prepare(&params, queries, stats);
    let result = BlastSearcher::new(&params, &prepared)
        .search(&VecSource::from_records(&db), &mut SearchScratch::new());

    // One scratch across every record, as the result cache holds it.
    let mut scratch = ExtendScratch::new();
    let (mut records, mut gapped) = (0, 0);
    for (q, hits) in result.per_query.iter().enumerate() {
        let query = &prepared.records[q].residues;
        for hit in hits {
            let subject = &db[hit.oid as usize];
            let want = reference_alignment_record(
                &params,
                &cfg,
                query,
                &subject.defline,
                &subject.residues,
                &hit.hsps,
            );
            let wrapper = alignment_record(
                &params,
                &cfg,
                query,
                &subject.defline,
                &subject.residues,
                &hit.hsps,
            );
            let shared = alignment_record_into(
                &params,
                &cfg,
                query,
                &subject.defline,
                &subject.residues,
                &hit.hsps,
                &mut scratch,
            );
            assert_eq!(wrapper, want, "query {q} oid {}", hit.oid);
            assert_eq!(shared, want, "query {q} oid {} (shared scratch)", hit.oid);
            records += 1;
            gapped += usize::from(want.contains("Gaps ="));
        }
    }
    assert!(
        records >= 40,
        "every family member should be found: {records}"
    );
    assert!(
        gapped >= 10,
        "the families must exercise gapped paths: {gapped}"
    );
}
