//! Query sampling.
//!
//! "To better control the query output size, we created several input
//! query sets, each containing a different number of query sequences, by
//! randomly sampling the nr database itself." (paper, §4). This module
//! reproduces that: sample whole sequences uniformly at random from a
//! record set until the query set's FASTA size reaches a byte target.

use blast_core::seq::SeqRecord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Approximate FASTA size of a record: defline + `>` + newlines + residues.
pub fn fasta_size(rec: &SeqRecord) -> u64 {
    (rec.defline.len() + 2 + rec.len() + rec.len() / 60 + 1) as u64
}

/// Sample whole sequences from `records` until the set's FASTA size
/// reaches `target_bytes`. Sampling is with replacement over a shuffled
/// order (deterministic for a given seed); re-sampled duplicates get
/// distinct query ids so downstream output is unambiguous.
pub fn sample_queries(records: &[SeqRecord], target_bytes: u64, seed: u64) -> Vec<SeqRecord> {
    assert!(!records.is_empty(), "cannot sample an empty database");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut bytes = 0u64;
    while bytes < target_bytes {
        let pick = rng.gen_range(0..records.len());
        let src = &records[pick];
        let rec = SeqRecord {
            defline: format!("query_{:05} sampled_from {}", out.len(), src.id()),
            residues: src.residues.clone(),
            molecule: src.molecule,
        };
        bytes += fasta_size(&rec);
        out.push(rec);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_core::alphabet::Molecule;

    fn records() -> Vec<SeqRecord> {
        (0..50)
            .map(|i| SeqRecord {
                defline: format!("gi|{i}| db seq"),
                residues: vec![(i % 20) as u8; 100 + i],
                molecule: Molecule::Protein,
            })
            .collect()
    }

    #[test]
    fn sampling_reaches_target() {
        let recs = records();
        let qs = sample_queries(&recs, 4096, 1);
        let total: u64 = qs.iter().map(fasta_size).sum();
        assert!(total >= 4096);
        // Not wildly past the target either (one record overshoot max).
        assert!(total < 4096 + 1024);
    }

    #[test]
    fn sampling_is_deterministic() {
        let recs = records();
        assert_eq!(
            sample_queries(&recs, 2048, 7),
            sample_queries(&recs, 2048, 7)
        );
        assert_ne!(
            sample_queries(&recs, 2048, 7),
            sample_queries(&recs, 2048, 8)
        );
    }

    #[test]
    fn sampled_queries_come_from_the_database() {
        let recs = records();
        for q in sample_queries(&recs, 2048, 3) {
            assert!(q.defline.contains("sampled_from gi|"));
            assert!(recs.iter().any(|r| r.residues == q.residues));
        }
    }

    #[test]
    fn query_ids_are_unique() {
        let recs = records();
        let qs = sample_queries(&recs, 8192, 5);
        let mut ids: Vec<&str> = qs.iter().map(|q| q.id()).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }
}
