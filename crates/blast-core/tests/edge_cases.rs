//! Edge-case tests of the search kernel: degenerate queries, masked
//! inputs, ambiguity codes, and extreme sizes must never panic and must
//! behave sensibly.

use blast_core::alphabet::Molecule;
use blast_core::extend::ExtendScratch;
use blast_core::fasta;
use blast_core::format::{alignment_record_into, ReportConfig};
use blast_core::search::{BlastSearcher, PreparedQueries, SearchParams, SearchScratch, VecSource};
use blast_core::seq::SeqRecord;
use blast_core::stats::DbStats;

fn stats_for(records: &[SeqRecord]) -> DbStats {
    DbStats {
        num_sequences: records.len() as u64,
        total_residues: records.iter().map(|r| r.len() as u64).sum(),
    }
}

fn run(queries: Vec<SeqRecord>, db: &[SeqRecord]) -> blast_core::search::FragmentResult {
    let params = SearchParams::blastp();
    let prepared = PreparedQueries::prepare(&params, queries, stats_for(db));
    BlastSearcher::new(&params, &prepared)
        .search(&VecSource::from_records(db), &mut SearchScratch::new())
}

fn rec(defline: &str, seq: &[u8]) -> SeqRecord {
    SeqRecord::from_ascii(Molecule::Protein, defline, seq).unwrap()
}

#[test]
fn fully_masked_low_complexity_query_finds_nothing() {
    // A poly-A query is entirely masked by SEG; it must produce no seeds
    // and no hits, even against a database containing poly-A.
    let db = vec![rec("polyA", b"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA")];
    let result = run(vec![rec("q", b"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA")], &db);
    assert_eq!(result.stats.seed_hits, 0);
    assert!(result.per_query[0].is_empty());
}

#[test]
fn query_with_ambiguity_codes_works() {
    let db = vec![rec("s", b"MKVLAAGHWRTEYFNDCQWHERTYPLKIHGFDSAEWCVNM")];
    // X and U inside the query: words containing them are skipped, the
    // rest still seed.
    let result = run(
        vec![rec("q", b"MKVLAAGHWRXEYFNDCQWHURTYPLKIHGFDSAEWCVNM")],
        &db,
    );
    assert_eq!(result.per_query[0].len(), 1);
}

#[test]
fn query_shorter_than_word_length_is_harmless() {
    let db = vec![rec("s", b"MKVLAAGHWRTEYFNDCQWH")];
    let result = run(vec![rec("q", b"MK")], &db);
    assert!(result.per_query[0].is_empty());
    assert_eq!(result.stats.seed_hits, 0);
}

#[test]
fn empty_database_is_harmless() {
    let result = run(vec![rec("q", b"MKVLAAGHWRTEYFNDCQWH")], &[]);
    assert!(result.per_query[0].is_empty());
    assert_eq!(result.stats.subjects, 0);
}

#[test]
fn stop_codons_in_subject_do_not_crash() {
    let db = vec![rec("s", b"MKVLAAGHWR*EYFNDCQWHERTYPLKIHGFDSAEWCVNM")];
    let result = run(
        vec![rec("q", b"MKVLAAGHWRTEYFNDCQWHERTYPLKIHGFDSAEWCVNM")],
        &db,
    );
    // Alignment still forms around/through the stop codon.
    assert_eq!(result.per_query[0].len(), 1);
}

#[test]
fn long_sequences_align_end_to_end() {
    // 12 kilo-residue identical pair: the gapped extension and traceback
    // must handle it without quadratic blowup or overflow.
    let unit = b"MKVLAAGHWRTEYFNDCQWHERTYPLKIHGFDSAEWCVNM";
    let mut long = Vec::new();
    for _ in 0..300 {
        long.extend_from_slice(unit);
    }
    let db = vec![rec("giant", &long)];
    let result = run(vec![rec("q", &long)], &db);
    let hits = &result.per_query[0];
    assert_eq!(hits.len(), 1);
    let h = &hits[0].hsps[0];
    assert_eq!(h.q_end - h.q_start, long.len() as u32, "full-length HSP");
    assert!(h.evalue < 1e-100);

    // Formatting it runs the banded traceback over the whole pair. The
    // buffers must stay proportional to n x band (33 direction bytes per
    // row at the formatter's pad of 16, plus two score rows) — three
    // dense (n+1)^2 i32 matrices would be 1.7 GB here.
    let params = SearchParams::blastp();
    let cfg = ReportConfig::blastp("giant-db", stats_for(&db));
    let mut scratch = ExtendScratch::new();
    let record = alignment_record_into(
        &params,
        &cfg,
        &db[0].residues,
        "giant",
        &db[0].residues,
        &hits[0].hsps,
        &mut scratch,
    );
    assert!(record.contains(&format!("Identities = {0}/{0} (100%)", long.len())));
    assert_eq!(record.matches("Query: ").count(), long.len().div_ceil(60));
    assert!(
        scratch.heap_bytes() <= 64 * long.len(),
        "traceback scratch grew to {} bytes for n = {}",
        scratch.heap_bytes(),
        long.len()
    );
}

#[test]
fn identical_duplicate_subjects_are_all_reported() {
    let seq = b"MKVLAAGHWRTEYFNDCQWHERTYPLKIHGFDSAEWCVNM";
    let db = vec![rec("dup1", seq), rec("dup2", seq), rec("dup3", seq)];
    let result = run(vec![rec("q", seq)], &db);
    let oids: Vec<u32> = result.per_query[0].iter().map(|h| h.oid).collect();
    assert_eq!(oids.len(), 3);
    // Deterministic order: equal scores fall back to oid order.
    assert_eq!(oids, vec![0, 1, 2]);
}

#[test]
fn many_queries_against_many_subjects() {
    // 64 queries x 50 subjects without pathological blowup.
    let unit = b"MKVLAAGHWRTEYFNDCQWHERTYPLKIHGFDSAEWCVNM";
    let db: Vec<SeqRecord> = (0..50)
        .map(|i| {
            let mut s = unit.to_vec();
            s.rotate_left(i % unit.len());
            rec(&format!("s{i}"), &s)
        })
        .collect();
    let queries: Vec<SeqRecord> = (0..64)
        .map(|i| {
            let mut q = unit.to_vec();
            q.rotate_left((i * 3) % unit.len());
            rec(&format!("q{i}"), &q)
        })
        .collect();
    let result = run(queries, &db);
    assert_eq!(result.per_query.len(), 64);
    for hits in &result.per_query {
        assert!(!hits.is_empty(), "every rotated query matches something");
    }
}

#[test]
fn fasta_defline_unicode_is_tolerated() {
    let recs = fasta::parse(
        Molecule::Protein,
        ">q1 β-globin [Homo sapiens] — test\nMKVLAAGH\n".as_bytes(),
    )
    .unwrap();
    assert!(recs[0].defline.contains("β-globin"));
    let db = vec![rec("s", b"MKVLAAGHWRTEYFNDCQWH")];
    let result = run(recs, &db);
    assert_eq!(result.per_query.len(), 1);
}
