//! The result cache: formatted records and the metadata to merge.
//!
//! As local results are discovered, a pioBLAST worker formats each
//! alignment record into a memory buffer immediately — while the subject's
//! residues and defline are still in its in-memory fragment — and records
//! only metadata (ordering key, record size, defline) for the master.
//! This is the paper's §3.2: it eliminates the mpiBLAST master's
//! per-alignment sequence-data fetch entirely, and it is what makes the
//! later collective write possible (record sizes are known up front).
//!
//! Each record is formatted once, into a `String` that becomes a shared
//! [`Bytes`] without a copy. That buffer is the one the output write
//! hands to the file system, the one a checkpoint payload carries, and,
//! once the master assigns offsets, the cache lets go of every record it
//! was not asked to write.
//!
//! A hit's one-line summary is not formatted here: its defline travels
//! in the metadata, the master measures the line when it lays the report
//! out (`blast_core::format::summary_len`), and the live workers render
//! the selected lines in contiguous blocks when they write
//! ([`crate::merge::SummaryBlock`]), whoever's hits they are.
//!
//! Formatting a fragment yields its [`FragmentPayload`], and
//! [`ResultCache::adopt`] is the one way in: a worker adopts what it
//! formats (and checkpoints a copy under `Recover`), and the master adopts
//! the payloads of a dead worker's checkpointed fragments, whose records
//! it then writes itself.

use std::collections::HashMap;

use blast_core::format::{self, ReportConfig};
use blast_core::search::{PreparedQueries, SearchParams, SearchScratch, SubjectHit};
use bytes::Bytes;
use mpiblast::wire::{MetaHit, MetaSubmission};
use seqfmt::FragmentData;

use crate::fault::PioError;

/// A rank's formatted-record cache plus the metadata to submit: a
/// worker's own searched fragments, or the master's checkpointed orphans.
#[derive(Debug, Default)]
pub struct ResultCache {
    records: HashMap<(u32, u32), Bytes>,
    per_query: Vec<(u32, Vec<MetaHit>)>,
}

/// One fragment's own metadata and `(query, oid, record)` bytes — what a
/// [`ResultCache`] adopts, and the content of a fragment checkpoint blob.
pub type FragmentPayload = (MetaSubmission, Vec<(u32, u32, Bytes)>);

/// Format every hit of one searched fragment into its payload, returned
/// with the number of record bytes formatted (for cost accounting).
///
/// `per_query[q]` holds query `q`'s subjects found in `fragment`. The
/// payload is deterministic in the fragment and batch alone, which is
/// what makes checkpoint rewrites during retried recovery epochs
/// idempotent. A hit whose oid falls outside `fragment` is a protocol
/// violation (the search produced it from *some* fragment, so a mismatch
/// means grant bookkeeping went wrong) and fails with a typed error
/// rather than panicking the rank.
pub(crate) fn format_fragment(
    params: &SearchParams,
    report_cfg: &ReportConfig,
    prepared: &PreparedQueries,
    fragment: &FragmentData,
    per_query: Vec<Vec<SubjectHit>>,
) -> Result<(u64, FragmentPayload), PioError> {
    let mut bytes = 0u64;
    let (mut meta, mut records) = FragmentPayload::default();
    for (q, hits) in per_query.into_iter().enumerate() {
        if hits.is_empty() {
            continue;
        }
        let query = &prepared.records[q];
        let mut metas = Vec::with_capacity(hits.len());
        for hit in hits {
            let outside = |what: &str| {
                PioError::Protocol(format!(
                    "hit subject oid {} has no {what} in the searched fragment \
                     ({} sequences)",
                    hit.oid,
                    fragment.num_seqs()
                ))
            };
            let defline_bytes = fragment
                .defline_of(hit.oid)
                .ok_or_else(|| outside("defline"))?;
            let residues = fragment
                .residues_of(hit.oid)
                .ok_or_else(|| outside("residues"))?;
            let defline = String::from_utf8_lossy(defline_bytes).into_owned();
            // Traceback runs in the thread's kernel scratch: between
            // calls the cache holds records and metadata only.
            let record = Bytes::from(SearchScratch::with_local(|scratch| {
                format::alignment_record_into(
                    params,
                    report_cfg,
                    &query.residues,
                    &defline,
                    residues,
                    &hit.hsps,
                    scratch.extend_scratch(),
                )
            }));
            bytes += record.len() as u64;
            metas.push(MetaHit {
                oid: hit.oid,
                subject_len: hit.subject_len,
                record_size: record.len() as u64,
                defline,
                best: hit.hsps[0],
            });
            records.push((q as u32, hit.oid, record));
        }
        meta.per_query.push((q as u32, metas));
    }
    Ok((bytes, (meta, records)))
}

impl ResultCache {
    /// Take one fragment's payload in: its records join the cache, and
    /// its per-query metadata is appended to any list the cache already
    /// holds for that query (several fragments per rank).
    pub fn adopt(&mut self, (meta, records): FragmentPayload) {
        for (q, oid, record) in records {
            self.records.insert((q, oid), record);
        }
        for (q, metas) in meta.per_query {
            match self.per_query.iter_mut().find(|(qi, _)| *qi == q) {
                Some((_, list)) => list.extend(metas),
                None => self.per_query.push((q, metas)),
            }
        }
    }

    /// The metadata submission for the master (sorted by query index).
    pub fn metadata(&self) -> MetaSubmission {
        let mut per_query = self.per_query.clone();
        per_query.sort_by_key(|(q, _)| *q);
        MetaSubmission { per_query }
    }

    /// A cached record's bytes.
    fn record(&self, query_idx: u32, oid: u32) -> Option<&Bytes> {
        self.records.get(&(query_idx, oid))
    }

    /// Every master-assigned `(query, oid, offset)` record for an output
    /// flush, sharing the cache's buffers, or the first `(query, oid)`
    /// that is missing from the cache.
    pub fn assigned_records(
        &self,
        assignments: &[(u32, u32, u64)],
    ) -> Result<Vec<(u64, Bytes)>, (u32, u32)> {
        let record = |&(q, oid, off): &(u32, u32, u64)| {
            self.record(q, oid)
                .map(|r| (off, r.clone()))
                .ok_or((q, oid))
        };
        assignments.iter().map(record).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_core::search::{BlastSearcher, SearchScratch};
    use blast_core::seq::SeqRecord;
    use blast_core::Molecule;
    use seqfmt::formatdb::{format_records, FormatDbConfig};
    use seqfmt::synth::{generate, SynthConfig};

    fn setup() -> (SearchParams, ReportConfig, PreparedQueries, FragmentData) {
        let recs = generate(&SynthConfig::nr_like(33, 20_000));
        let db = format_records(&recs, &FormatDbConfig::protein("cache-test"));
        let frag = FragmentData::from_volume(&db.volumes[0]);
        use blast_core::search::SubjectSource;
        let q = frag.subject(0);
        let queries = vec![SeqRecord {
            defline: "query_0 sampled".into(),
            residues: q.residues.to_vec(),
            molecule: Molecule::Protein,
        }];
        let params = SearchParams::blastp();
        let prepared = PreparedQueries::prepare(&params, queries, db.stats());
        let report_cfg = ReportConfig::blastp("cache-test", db.stats());
        (params, report_cfg, prepared, frag)
    }

    /// The worker's path: format one searched fragment and adopt its
    /// payload into a fresh cache; returns the formatted byte count too.
    fn cached(
        (params, cfg, prepared, frag): &(SearchParams, ReportConfig, PreparedQueries, FragmentData),
        per_query: Vec<Vec<SubjectHit>>,
    ) -> Result<(u64, ResultCache), PioError> {
        let (bytes, payload) = format_fragment(params, cfg, prepared, frag, per_query)?;
        let mut cache = ResultCache::default();
        cache.adopt(payload);
        Ok((bytes, cache))
    }

    /// Total cached record bytes.
    fn cached_bytes(cache: &ResultCache) -> u64 {
        cache.records.values().map(|r| r.len() as u64).sum()
    }

    fn search(
        (params, _, prepared, frag): &(SearchParams, ReportConfig, PreparedQueries, FragmentData),
    ) -> Vec<Vec<SubjectHit>> {
        let searcher = BlastSearcher::new(params, prepared);
        searcher.search(frag, &mut SearchScratch::new()).per_query
    }

    #[test]
    fn cache_holds_formatted_records_with_exact_sizes() {
        let run = setup();
        let (bytes, cache) =
            cached(&run, search(&run)).expect("hits resolve in their own fragment");
        assert!(!cache.records.is_empty());
        assert_eq!(bytes, cached_bytes(&cache));
        let meta = cache.metadata();
        assert_eq!(meta.per_query.len(), 1);
        for (q, hits) in &meta.per_query {
            for h in hits {
                let rec = cache.record(*q, h.oid).expect("cached record");
                assert_eq!(rec.len() as u64, h.record_size);
                let rec = std::str::from_utf8(rec).expect("records are text");
                assert!(rec.starts_with('>'), "record starts with defline");
                assert!(rec.contains("Score ="));
            }
        }
    }

    #[test]
    fn metadata_best_hsp_matches_search_order() {
        let run = setup();
        let per_query = search(&run);
        let best_score = per_query[0][0].hsps[0].score;
        let (_, cache) = cached(&run, per_query).expect("hits resolve in their own fragment");
        let meta = cache.metadata();
        let max_meta = meta.per_query[0]
            .1
            .iter()
            .map(|h| h.best.score)
            .max()
            .unwrap();
        assert_eq!(max_meta, best_score);
    }

    #[test]
    fn an_adopted_checkpoint_payload_equals_formatting_the_fragment() {
        use mpiblast::wire::FragmentCheckpoint;
        use seqfmt::Wire;
        let run = setup();
        let (params, cfg, prepared, frag) = &run;
        let per_query = search(&run);
        let (_, direct) =
            cached(&run, per_query.clone()).expect("hits resolve in their own fragment");
        // The master's path: the worker's payload, through a checkpoint
        // blob's bytes, adopted into a fresh cache.
        let (_, (meta, records)) = format_fragment(params, cfg, prepared, frag, per_query)
            .expect("hits resolve in their own fragment");
        let blob = FragmentCheckpoint {
            batch: 1,
            fragment: 3,
            meta,
            records,
        }
        .encode();
        let ck = FragmentCheckpoint::decode(&blob).expect("a whole blob decodes");
        let mut adopted = ResultCache::default();
        adopted.adopt((ck.meta, ck.records));
        assert_eq!(adopted.metadata(), direct.metadata());
        let assignments: Vec<(u32, u32, u64)> = direct
            .metadata()
            .per_query
            .iter()
            .flat_map(|(q, hits)| hits.iter().map(|h| (*q, h.oid, h.record_size * 7)))
            .collect();
        assert!(assignments.len() > 1, "{assignments:?}");
        assert_eq!(
            adopted.assigned_records(&assignments),
            direct.assigned_records(&assignments)
        );
        assert_eq!(cached_bytes(&adopted), cached_bytes(&direct));
    }

    #[test]
    fn missing_record_is_none() {
        let cache = ResultCache::default();
        assert!(cache.record(0, 42).is_none());
        assert_eq!(cache.metadata().per_query.len(), 0);
    }

    #[test]
    fn hit_outside_fragment_is_a_typed_error_not_a_panic() {
        let run = setup();
        // Forge a hit whose oid lies past the fragment's last sequence —
        // the shape a corrupted grant or a stale resident fragment would
        // produce.
        let mut forged = search(&run);
        let mut bogus = forged[0][0].clone();
        bogus.oid = run.3.num_seqs() as u32 + 7;
        forged[0].push(bogus);
        let err = cached(&run, forged).expect_err("out-of-fragment oid must fail");
        match err {
            PioError::Protocol(msg) => assert!(msg.contains("no defline"), "{msg}"),
            other => panic!("wrong error kind: {other:?}"),
        }
    }
}
