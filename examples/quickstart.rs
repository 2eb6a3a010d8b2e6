//! Quickstart: a serial BLAST search with `blast-core`.
//!
//! Builds a small protein database, searches two queries against it, and
//! prints an NCBI-style report — no cluster simulation involved.
//!
//! Run with: `cargo run --release --example quickstart`

use blast_core::alphabet::Molecule;
use blast_core::fasta;
use blast_core::format::{self, ReportConfig};
use blast_core::search::{BlastSearcher, PreparedQueries, SearchParams, SearchScratch, VecSource};
use blast_core::stats::DbStats;

const DB_FASTA: &[u8] = b">sp|P001| kinase-like protein [Synthetica]
MKVLAAGHWRTEYFNDCQWHERTYPLKIHGFDSAEWCVNMMKVLAAGHWRTEYFNDCQ
>sp|P002| kinase-like protein, paralog [Synthetica]
MKVLAAGHWRTEYFNDCQWHERTYPLKIHGFDSAEWCVNMMKVLAAGHWRTEYANDCQ
>sp|P003| unrelated membrane protein [Synthetica]
GAVLIMFWPSTCYNQDEKRHGAVLIMFWPSTCYNQDEKRH
";

const QUERY_FASTA: &[u8] = b">query1 a sampled kinase fragment
MKVLAAGHWRTEYFNDCQWHERTYPLKIHGFDSAEWCVNM
>query2 something novel
DEDKRKHWYFWYHDEDKRKHWYFWYHDKRHWYFWYHAAGH
";

fn main() {
    // 1. Parse the database and compute its global statistics.
    let db_records = fasta::parse(Molecule::Protein, DB_FASTA).expect("valid database FASTA");
    let db_stats = DbStats {
        num_sequences: db_records.len() as u64,
        total_residues: db_records.iter().map(|r| r.len() as u64).sum(),
    };

    // 2. Prepare the queries: masking, lookup table, search spaces.
    let queries = fasta::parse(Molecule::Protein, QUERY_FASTA).expect("valid query FASTA");
    let params = SearchParams::blastp();
    let prepared = PreparedQueries::prepare(&params, queries, db_stats);

    // 3. Search.
    let searcher = BlastSearcher::new(&params, &prepared);
    let result = searcher.search(
        &VecSource::from_records(&db_records),
        &mut SearchScratch::new(),
    );
    println!(
        "searched {} subjects, {} residues: {} seed hits, {} gapped extensions\n",
        result.stats.subjects,
        result.stats.residues,
        result.stats.seed_hits,
        result.stats.gapped_extensions
    );

    // 4. Print an NCBI-style report.
    let cfg = ReportConfig::blastp("demo-db", db_stats);
    for (q, hits) in result.per_query.iter().enumerate() {
        let lines: Vec<String> = hits
            .iter()
            .map(|h| {
                let rec = &db_records[h.oid as usize];
                format::summary_line(&rec.defline, h.hsps[0].bit_score, h.hsps[0].evalue)
            })
            .collect();
        let (query, space) = (&prepared.records[q], &prepared.spaces[q]);
        let lens = lines.iter().map(|l| l.len() as u64);
        let section = format::QuerySection::new(&cfg, &params, query, space, lens);
        print!("{}{}", section.head, format::summary_region(&lines));
        for h in hits {
            let rec = &db_records[h.oid as usize];
            print!(
                "{}",
                format::alignment_record(
                    &params,
                    &cfg,
                    &query.residues,
                    &rec.defline,
                    &rec.residues,
                    &h.hsps
                )
            );
        }
        print!("{}", section.footer);
    }
}
