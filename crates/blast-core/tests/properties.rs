//! Property-based tests of the BLAST kernel's core invariants.

use blast_core::alphabet::{decode, encode, Molecule};
use blast_core::extend::{banded_global, gapped_xdrop, ungapped_xdrop, EditOp};
use blast_core::hsp::{cull_contained, sort_canonical, Hsp};
use blast_core::karlin::{solve_from_distribution, ScoreDistribution};
use blast_core::lookup::{LookupTable, QuerySet};
use blast_core::matrix::ScoreMatrix;
use blast_core::search::{BlastSearcher, PreparedQueries, SearchParams, SearchScratch, VecSource};
use blast_core::seq::SeqRecord;
use blast_core::stats::{DbStats, SearchSpace};
use proptest::prelude::*;

/// Residues over the 20 standard amino acids.
fn arb_protein(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..20, len)
}

/// Score an alignment's edit script directly from the matrix and gaps.
fn rescore(
    matrix: &ScoreMatrix,
    gaps: blast_core::karlin::GapPenalties,
    q: &[u8],
    s: &[u8],
    ops: &[EditOp],
) -> i32 {
    let mut qi = 0usize;
    let mut si = 0usize;
    let mut score = 0i32;
    for op in ops {
        match *op {
            EditOp::Aligned(n) => {
                for _ in 0..n {
                    score += matrix.score(q[qi], s[si]);
                    qi += 1;
                    si += 1;
                }
            }
            EditOp::GapInSubject(n) => {
                score -= gaps.cost(n as i32);
                qi += n as usize;
            }
            EditOp::GapInQuery(n) => {
                score -= gaps.cost(n as i32);
                si += n as usize;
            }
        }
    }
    assert_eq!(qi, q.len());
    assert_eq!(si, s.len());
    score
}

/// `q` walked with one `(kind, residue)` op per step: a substitution, an
/// inserted residue, a deletion, or a copy; the rest of `q` is copied.
fn homolog(q: &[u8], ops: &[(u8, u8)]) -> Vec<u8> {
    let mut s = Vec::new();
    let mut i = 0;
    for &(kind, residue) in ops {
        if i >= q.len() {
            break;
        }
        match kind {
            0..25 => {
                s.push(residue);
                i += 1;
            }
            25..30 => s.push(residue),
            30..35 => i += 1,
            _ => {
                s.push(q[i]);
                i += 1;
            }
        }
    }
    s.extend_from_slice(&q[i..]);
    if s.is_empty() {
        s.push(0);
    }
    s
}

/// The gapped X-drop score from `(q_seed, s_seed)`, and the best global
/// score of the rectangle it returns.
fn gapped_and_rectangle_optimum(
    q: &[u8],
    s: &[u8],
    q_seed: u32,
    s_seed: u32,
    x_drop: i32,
) -> (i32, i32) {
    let matrix = ScoreMatrix::blosum62();
    let gaps = blast_core::karlin::GapPenalties::BLOSUM62_DEFAULT;
    let hit = gapped_xdrop(
        &matrix,
        gaps,
        q,
        s,
        q_seed,
        s_seed,
        x_drop,
        &mut Default::default(),
    );
    let q_rect = &q[hit.q_start as usize..hit.q_end as usize];
    let s_rect = &s[hit.s_start as usize..hit.s_end as usize];
    let dense = banded_global(&matrix, gaps, q_rect, s_rect, q_rect.len() + s_rect.len());
    (hit.score, dense.score)
}

#[test]
fn gapped_xdrop_reads_no_out_of_band_cell_left_from_two_rows_earlier() {
    // n = 83, m = 87, seed (5, 5), x = 38: with rows that read the two
    // cells beside their predecessor's band unwritten, this extension
    // scored 15 over the rectangle q 5..80, s 5..76, whose best global
    // alignment scores 9.
    let q = encode(
        Molecule::Protein,
        b"RKGNGEPNCIGMSWQWILVCRYKGYDNLKFLFLRFTVGVANLSRTLNFMSKEMTSWYGAARYRWLYVFSIWFWWMSPEEVMTH",
    )
    .unwrap();
    let s = encode(
        Molecule::Protein,
        b"FKRGFIDDVSMSIGPNRPVNYYRPAYHLTLFGLWEEDQGMCDYLRTSWGGAAGHSSCRRSLYNFYIWKLIHSDEEVFMCEYLDNGCD",
    )
    .unwrap();
    assert_eq!((q.len(), s.len()), (83, 87));
    let (score, optimum) = gapped_and_rectangle_optimum(&q, &s, 5, 5, 38);
    assert!(score <= optimum, "gapped {score} > optimum {optimum}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Residue encode/decode is the identity for valid letters.
    #[test]
    fn alphabet_round_trips(residues in arb_protein(0..200)) {
        let ascii = decode(Molecule::Protein, &residues);
        let back = encode(Molecule::Protein, &ascii).unwrap();
        prop_assert_eq!(back, residues);
    }

    /// The banded-Gotoh traceback's edit script re-scores to exactly the
    /// DP score it reports, and consumes both sequences exactly.
    #[test]
    fn traceback_score_is_consistent(
        q in arb_protein(1..60),
        s in arb_protein(1..60),
    ) {
        let matrix = ScoreMatrix::blosum62();
        let gaps = blast_core::karlin::GapPenalties::BLOSUM62_DEFAULT;
        let aln = banded_global(&matrix, gaps, &q, &s, 64);
        let rescored = rescore(&matrix, gaps, &q, &s, &aln.ops);
        prop_assert_eq!(rescored, aln.score);
    }

    /// Widening the band never lowers the banded-alignment score, and
    /// with a full-width band the alignment of a sequence against itself
    /// is the identity.
    #[test]
    fn band_widening_is_monotone(q in arb_protein(4..50)) {
        let matrix = ScoreMatrix::blosum62();
        let gaps = blast_core::karlin::GapPenalties::BLOSUM62_DEFAULT;
        let narrow = banded_global(&matrix, gaps, &q, &q, 2);
        let wide = banded_global(&matrix, gaps, &q, &q, q.len() + 2);
        prop_assert!(wide.score >= narrow.score);
        let self_score: i32 = q.iter().map(|&c| matrix.score(c, c)).sum();
        prop_assert_eq!(wide.score, self_score);
        prop_assert_eq!(wide.ops, vec![EditOp::Aligned(q.len() as u32)]);
    }

    /// An ungapped extension's reported range re-scores to its reported
    /// score, and the gapped extension from any seed inside it never
    /// scores lower than the seed pair itself.
    #[test]
    fn extension_scores_are_consistent(
        q in arb_protein(12..80),
        offset in 0usize..8,
    ) {
        let matrix = ScoreMatrix::blosum62();
        let gaps = blast_core::karlin::GapPenalties::BLOSUM62_DEFAULT;
        // Subject = query shifted (guaranteed strong diagonal).
        let s = q.clone();
        let pos = (q.len() / 2 + offset).min(q.len() - 3) as u32;
        let hit = ungapped_xdrop(&matrix, &q, &s, pos, pos, 3, 16);
        let mut rescored = 0i32;
        for k in hit.q_start..hit.q_end {
            rescored += matrix.score(q[k as usize], s[(k - hit.q_start + hit.s_start) as usize]);
        }
        prop_assert_eq!(rescored, hit.score);

        let g = gapped_xdrop(&matrix, gaps, &q, &s, pos, pos, 40, &mut Default::default());
        prop_assert!(g.score >= matrix.score(q[pos as usize], s[pos as usize]));
        prop_assert!(g.q_start <= pos && g.q_end > pos);
    }

    /// A gapped X-drop extension is a global alignment of the rectangle
    /// it returns, so it never scores above that rectangle's optimum (the
    /// dense, unbanded `banded_global`). A DP row that reads a cell its
    /// predecessor never wrote reports scores no alignment has.
    #[test]
    fn gapped_score_is_at_most_the_rectangle_optimum(
        q in arb_protein(1..120),
        ops in prop::collection::vec((0u8..100, 0u8..20), 0..140),
        seed in (any::<u16>(), any::<u16>()),
        x_drop in 10i32..=40,
    ) {
        let s = homolog(&q, &ops);
        let q_seed = u32::from(seed.0) % q.len() as u32;
        let s_seed = u32::from(seed.1) % s.len() as u32;
        let (score, optimum) = gapped_and_rectangle_optimum(&q, &s, q_seed, s_seed, x_drop);
        prop_assert!(score <= optimum, "gapped {} > optimum {}", score, optimum);
    }

    /// Culling never drops the best HSP of a (query, subject) pair and
    /// never invents new HSPs.
    #[test]
    fn culling_preserves_the_best(
        raw in prop::collection::vec(
            (0u32..3, 0u32..3, 0u32..40, 1u32..30, 0u32..40, 1u32..30, 1i32..200),
            1..30,
        )
    ) {
        let mut hsps: Vec<Hsp> = raw
            .into_iter()
            .map(|(query_idx, oid, qs, ql, ss, sl, score)| Hsp {
                query_idx,
                oid,
                q_start: qs,
                q_end: qs + ql,
                s_start: ss,
                s_end: ss + sl,
                score,
                bit_score: score as f64,
                evalue: (-(score as f64)).exp(),
            })
            .collect();
        let original = hsps.clone();
        cull_contained(&mut hsps);
        prop_assert!(!hsps.is_empty());
        // Every survivor was in the input.
        for h in &hsps {
            prop_assert!(original.contains(h));
        }
        // The global best survives.
        let mut sorted = original.clone();
        sort_canonical(&mut sorted);
        prop_assert!(hsps.contains(&sorted[0]));
    }

    /// E-values decrease monotonically in score and increase with the
    /// search space, for any query/database sizes.
    #[test]
    fn evalue_monotonicity(
        qlen in 10u64..5000,
        db_res in 1000u64..10_000_000,
        nseq in 1u64..10_000,
        score in 20i32..300,
    ) {
        let params = SearchParams::blastp();
        let space = SearchSpace::new(
            params.gapped,
            qlen,
            DbStats { num_sequences: nseq, total_residues: db_res },
        );
        prop_assert!(space.evalue(score + 1) < space.evalue(score));
        let bigger = SearchSpace::new(
            params.gapped,
            qlen,
            DbStats { num_sequences: nseq, total_residues: db_res * 2 + 1 },
        );
        // Database growth raises E-values — except in the clamped
        // length-adjustment regime (queries barely longer than the
        // adjustment), where the effective query length collapses and the
        // product can move either way (NCBI behaves the same); restrict
        // the claim to the meaningful regime.
        // Also require the effective database length to be meaningful
        // (at least one residue per sequence): databases whose average
        // sequence length falls below the adjustment clamp to the floor.
        if space.eff_query_len >= 10
            && bigger.eff_query_len >= 10
            && space.eff_db_len > nseq
            && bigger.eff_db_len > nseq
        {
            prop_assert!(bigger.evalue(score) >= space.evalue(score));
        }
    }

    /// The Karlin–Altschul solver produces sane parameters for arbitrary
    /// valid (negative-mean, positive-max) score distributions.
    #[test]
    fn karlin_solver_is_sane(
        weights in prop::collection::vec(1u32..100, 5..9),
    ) {
        // Scores -4..=+N with random weights; force negative mean by
        // overweighting the most negative score.
        let n = weights.len();
        let mut prob: Vec<f64> = weights.iter().map(|&w| w as f64).collect();
        prob[0] += 50.0 * prob.iter().sum::<f64>();
        let total: f64 = prob.iter().sum();
        for p in &mut prob {
            *p /= total;
        }
        let dist = ScoreDistribution { low: -4, high: -4 + n as i32 - 1, prob };
        if dist.high <= 0 || dist.mean() >= 0.0 {
            return Ok(()); // not a valid local-alignment regime
        }
        let params = solve_from_distribution(&dist).unwrap();
        prop_assert!(params.lambda > 0.0 && params.lambda.is_finite());
        prop_assert!(params.k > 0.0 && params.k < 1.0, "K = {}", params.k);
        prop_assert!(params.h > 0.0);
    }

    /// Lookup-table hits equal brute-force neighborhood checks for random
    /// short queries.
    #[test]
    fn lookup_matches_brute_force(q in arb_protein(3..12)) {
        let matrix = ScoreMatrix::blosum62();
        let set = QuerySet::new(std::slice::from_ref(&q), 27);
        let t = 11;
        let table = LookupTable::build(&set, &matrix, 3, 20, t);
        for w0 in 0..20u8 {
            for w1 in 0..20u8 {
                for w2 in 0..20u8 {
                    let idx = table.word_index(&[w0, w1, w2]).unwrap();
                    let hits = table.hits(idx);
                    for pos in 0..=(q.len().saturating_sub(3)) {
                        let score = matrix.score(q[pos], w0)
                            + matrix.score(q[pos + 1], w1)
                            + matrix.score(q[pos + 2], w2);
                        prop_assert_eq!(
                            hits.contains(&(pos as u32)),
                            score >= t,
                            "word {:?} at {}", (w0, w1, w2), pos
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Splitting a random database into any two partitions yields exactly
    /// the whole-database hit set (the invariant all of pioBLAST rests on).
    #[test]
    fn partitioned_search_equals_whole(
        seed_lens in prop::collection::vec(30usize..90, 4..10),
        split in 1usize..3,
    ) {
        // Build subjects: one family related to the query + noise.
        let mut records = Vec::new();
        let base: Vec<u8> = (0..60).map(|i| ((i * 7 + 3) % 20) as u8).collect();
        for (i, len) in seed_lens.iter().enumerate() {
            let residues: Vec<u8> = if i % 2 == 0 {
                base.iter().take(*len).map(|&c| (c + (i as u8 % 3)) % 20).collect()
            } else {
                (0..*len).map(|j| ((i * 13 + j * 5) % 20) as u8).collect()
            };
            records.push(SeqRecord {
                defline: format!("s{i}"),
                residues,
                molecule: Molecule::Protein,
            });
        }
        let db = DbStats {
            num_sequences: records.len() as u64,
            total_residues: records.iter().map(|r| r.len() as u64).sum(),
        };
        let params = SearchParams::blastp();
        let queries = vec![SeqRecord {
            defline: "q".into(),
            residues: base.clone(),
            molecule: Molecule::Protein,
        }];
        let prepared = PreparedQueries::prepare(&params, queries, db);
        let searcher = BlastSearcher::new(&params, &prepared);

        let whole = searcher.search(&VecSource::from_records(&records), &mut SearchScratch::new());

        let cut = split.min(records.len() - 1);
        let all: Vec<(u32, Vec<u8>, Vec<u8>)> = records
            .iter()
            .enumerate()
            .map(|(i, r)| (i as u32, r.residues.clone(), r.defline.clone().into_bytes()))
            .collect();
        let ra = searcher.search(&VecSource::with_oids(all[..cut].to_vec()), &mut SearchScratch::new());
        let rb = searcher.search(&VecSource::with_oids(all[cut..].to_vec()), &mut SearchScratch::new());
        let mut merged: Vec<_> = ra.per_query[0]
            .iter()
            .chain(rb.per_query[0].iter())
            .cloned()
            .collect();
        merged.sort_by(|a, b| a.hsps[0].rank_key().cmp(&b.hsps[0].rank_key()));
        prop_assert_eq!(merged, whole.per_query[0].clone());
    }

    /// One `SearchScratch` reused across many searches — different queries,
    /// different subjects, arbitrarily dirty state from the previous call —
    /// yields results identical to a fresh scratch per call. This is the
    /// contract that lets a worker own a single scratch for its lifetime.
    #[test]
    fn scratch_reuse_is_invisible(
        workloads in prop::collection::vec(
            (
                prop::collection::vec(20usize..70, 1..3), // query lengths
                prop::collection::vec(25usize..90, 1..6), // subject lengths
                0usize..5,                                // mutation phase
            ),
            2..5,
        ),
    ) {
        let params = SearchParams::blastp();
        let mut reused = SearchScratch::new();
        let base: Vec<u8> = (0..70).map(|i| ((i * 7 + 3) % 20) as u8).collect();

        for (qlens, slens, phase) in workloads {
            let queries: Vec<SeqRecord> = qlens
                .iter()
                .enumerate()
                .map(|(i, &len)| SeqRecord {
                    defline: format!("q{i}"),
                    residues: base
                        .iter()
                        .take(len)
                        .map(|&c| (c + (i + phase) as u8) % 20)
                        .collect(),
                    molecule: Molecule::Protein,
                })
                .collect();
            let records: Vec<SeqRecord> = slens
                .iter()
                .enumerate()
                .map(|(i, &len)| {
                    let residues: Vec<u8> = if i % 2 == 0 {
                        base.iter().take(len).map(|&c| (c + (i as u8 % 3)) % 20).collect()
                    } else {
                        (0..len).map(|j| ((i * 13 + j * 5 + phase) % 20) as u8).collect()
                    };
                    SeqRecord {
                        defline: format!("s{i}"),
                        residues,
                        molecule: Molecule::Protein,
                    }
                })
                .collect();
            let db = DbStats {
                num_sequences: records.len() as u64,
                total_residues: records.iter().map(|r| r.len() as u64).sum(),
            };
            let prepared = PreparedQueries::prepare(&params, queries, db);
            let searcher = BlastSearcher::new(&params, &prepared);
            let source = VecSource::from_records(&records);

            let with_reused = searcher.search(&source, &mut reused);
            let with_fresh = searcher.search(&source, &mut SearchScratch::new());
            prop_assert_eq!(with_reused.per_query, with_fresh.per_query);
            prop_assert_eq!(with_reused.stats, with_fresh.stats);
        }
    }
}

/// Deflines around every edge of the 64-char summary column: empty, 60
/// to 66 ASCII chars, 200 chars, and multi-byte UTF-8 that fits, fills
/// or overflows the column (with the cut falling inside a 2-, 3- or
/// 4-byte char).
fn summary_deflines() -> Vec<String> {
    let mut out = vec![String::new(), "x".repeat(200)];
    out.extend((60..=66).map(|n| "gi|1| d".chars().cycle().take(n).collect::<String>()));
    for wide in ["é", "中", "🧬"] {
        for n in [1, 60, 61, 62, 63, 64, 65, 66, 200] {
            out.push(wide.repeat(n));
            out.push(format!("{}{}", "a".repeat(60), wide.repeat(n)));
        }
    }
    out
}

#[test]
fn summary_len_equals_the_rendered_length_on_every_edge() {
    use blast_core::format::{summary_len, summary_line, summary_name};
    let bits = [0.0, 9_999_999.9, 1e9];
    let evalues = [0.0, 1e-300, 1e-5, 0.5, 9.99, 1e5];
    for d in summary_deflines() {
        for &b in &bits {
            for &e in &evalues {
                let line = summary_line(&d, b, e);
                assert_eq!(summary_len(&d, b, e), line.len(), "{d:?} {b} {e}: {line:?}");
                // The cut name renders the same line: it may travel cut.
                assert_eq!(summary_line(&summary_name(&d), b, e), line, "{d:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn summary_len_equals_the_rendered_length(
        d in "[a-z|é中🧬 ]{0,80}",
        b in (0usize..4, 0.0..1e4f64).prop_map(|(i, x)| [0.0, 9_999_999.9, 1e9, x][i]),
        e in (0usize..7, 0.0..100f64)
            .prop_map(|(i, x)| [0.0, 1e-300, 1e-5, 0.5, 9.99, 1e5, x][i]),
    ) {
        use blast_core::format::{summary_len, summary_line};
        prop_assert_eq!(summary_len(&d, b, e), summary_line(&d, b, e).len());
    }
}
