//! Wire formats for the application protocols.
//!
//! Both programs move real serialized bytes through the simulated
//! interconnect, so message volumes (which the paper's optimizations are
//! all about) are honest. Every format is a field list over
//! [`seqfmt::codec::Wire`]; DESIGN.md tabulates the layouts.

use blast_core::alphabet::Molecule;
use blast_core::hsp::Hsp;
use blast_core::search::SubjectHit;
use blast_core::seq::SeqRecord;
use blast_core::stats::DbStats;
use bytes::Bytes;
use seqfmt::codec::{CodecError, Reader, Wire, Writer};
use seqfmt::wire_struct;

/// Append a query list: a `u32` count, then each record's defline and
/// residues. The molecule is not repeated per record — it travels once,
/// in the [`QueryBundle`] — so the reader is told it.
pub fn put_queries(queries: &[SeqRecord], w: &mut Writer) {
    (queries.len() as u32).put(w);
    for q in queries {
        q.defline.put(w);
        q.residues.put(w);
    }
}

/// Inverse of [`put_queries`], for records of `molecule`.
pub fn get_queries(r: &mut Reader<'_>, molecule: Molecule) -> Result<Vec<SeqRecord>, CodecError> {
    let n = u32::get(r.at("query list"))?;
    r.list_of(u64::from(n), <(String, Vec<u8>)>::MIN_SIZE, |r| {
        Ok(SeqRecord {
            defline: Wire::get(r)?,
            residues: Wire::get(r)?,
            molecule,
        })
    })
}

/// The master's broadcast at run start: database identity plus queries.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryBundle {
    /// Database display title.
    pub db_title: String,
    /// Whole-database statistics (E-values are computed against these).
    pub db_stats: DbStats,
    /// Molecule type.
    pub molecule: Molecule,
    /// The query records.
    pub queries: Vec<SeqRecord>,
}

impl Wire for QueryBundle {
    const MIN_SIZE: usize = 4 + DbStats::MIN_SIZE + 1 + 4;

    fn put(&self, w: &mut Writer) {
        self.db_title.put(w);
        self.db_stats.put(w);
        self.molecule.put(w);
        put_queries(&self.queries, w);
    }

    fn get(r: &mut Reader<'_>) -> Result<QueryBundle, CodecError> {
        let db_title = Wire::get(r.at("QueryBundle.db_title"))?;
        let db_stats = Wire::get(r)?;
        let molecule = Wire::get(r.at("QueryBundle.molecule"))?;
        Ok(QueryBundle {
            db_title,
            db_stats,
            molecule,
            queries: get_queries(r, molecule)?,
        })
    }
}

/// A worker's per-fragment result submission (mpiBLAST protocol): for
/// every query, the subjects found in that fragment with all their HSPs
/// — but no sequence data (that is fetched later, serially).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSubmission {
    /// Fragment id this submission covers.
    pub fragment: u32,
    /// `(query_idx, hits)` pairs for queries with at least one hit.
    pub per_query: Vec<(u32, Vec<SubjectHit>)>,
}

wire_struct!(ResultSubmission {
    fragment: u32,
    per_query: Vec<(u32, Vec<SubjectHit>)>,
});

/// A master -> worker sequence-data fetch request (mpiBLAST's serialized
/// result-fetching protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchRequest {
    /// Query the alignment belongs to.
    pub query_idx: u32,
    /// Subject to fetch.
    pub oid: u32,
}

wire_struct!(FetchRequest {
    query_idx: u32,
    oid: u32,
});

/// The worker's response: the subject's defline and residues (the "return
/// trip" of sequence data that pioBLAST eliminates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchResponse {
    /// Subject defline bytes.
    pub defline: Vec<u8>,
    /// Subject residues (encoded).
    pub residues: Vec<u8>,
}

wire_struct!(FetchResponse {
    defline: Vec<u8>,
    residues: Vec<u8>,
});

/// pioBLAST's metadata-only submission entry: everything the master needs
/// to merge, select, order, summarize and place one alignment record —
/// without the record bytes or any sequence data.
#[derive(Debug, Clone, PartialEq)]
pub struct MetaHit {
    /// Subject ordinal id.
    pub oid: u32,
    /// Subject length (for deterministic ordering parity only).
    pub subject_len: u32,
    /// Size in bytes of the worker's cached formatted record.
    pub record_size: u64,
    /// Subject defline (for the one-line summary section).
    pub defline: String,
    /// The best HSP (carries the ordering key, bit score and E-value).
    pub best: Hsp,
}

wire_struct!(MetaHit {
    oid: u32,
    subject_len: u32,
    record_size: u64,
    defline: String,
    best: Hsp,
});

/// One query's metadata list in a pioBLAST submission.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetaSubmission {
    /// `(query_idx, hits)` for queries with hits.
    pub per_query: Vec<(u32, Vec<MetaHit>)>,
}

wire_struct!(MetaSubmission {
    per_query: Vec<(u32, Vec<MetaHit>)>,
});

/// The master's reply to a pioBLAST worker: file offsets for the selected
/// subset of the worker's cached records.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OffsetAssignment {
    /// `(query_idx, oid, absolute file offset)` triples, in file order.
    pub records: Vec<(u32, u32, u64)>,
}

wire_struct!(OffsetAssignment {
    records: Vec<(u32, u32, u64)>,
});

/// Magic + version header guarding [`FragmentCheckpoint`] blobs: a blob
/// whose header does not match (e.g. a partial write cut off by the
/// writer's death) is treated as absent, never as corrupt data.
const CHECKPOINT_MAGIC: u32 = 0x70_63_6b_31; // "pck1"

/// A durable record of one completed `(query batch, fragment)` search:
/// the metadata the worker would submit plus the formatted record bytes,
/// persisted to the shared file system so a recovery epoch can adopt the
/// victim's finished work instead of re-searching it.
///
/// Content is deterministic in `(batch, fragment)` — any worker searching
/// the same fragment against the same batch produces the same blob — so
/// re-writes during retried epochs are idempotent.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FragmentCheckpoint {
    /// Query-batch index this search covered.
    pub batch: u32,
    /// Global fragment id.
    pub fragment: u32,
    /// The fragment's metadata contribution, shaped like a submission.
    pub meta: MetaSubmission,
    /// `(query_idx, oid, formatted record)` for every metadata entry.
    /// A record is UTF-8 text held as shared bytes: the worker's result
    /// cache, this payload and the master's orphan table hold one buffer
    /// between them.
    pub records: Vec<(u32, u32, Bytes)>,
}

/// The guard header, then the fields, `meta` as a length-prefixed frame
/// of its own; each record travels as a `String` does. Any mismatch —
/// bad magic, truncation, record text that is not UTF-8, trailing
/// garbage — is an error; callers treat that as "not checkpointed".
impl Wire for FragmentCheckpoint {
    const MIN_SIZE: usize = 4 + 4 + 4 + 4 + MetaSubmission::MIN_SIZE + 4;

    fn put(&self, w: &mut Writer) {
        CHECKPOINT_MAGIC.put(w);
        self.batch.put(w);
        self.fragment.put(w);
        self.meta.encode().put(w);
        (self.records.len() as u32).put(w);
        for (q, oid, text) in &self.records {
            q.put(w);
            oid.put(w);
            (text.len() as u32).put(w);
            w.bytes(text);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<FragmentCheckpoint, CodecError> {
        if u32::get(r.at("FragmentCheckpoint.magic"))? != CHECKPOINT_MAGIC {
            return Err(r.bad_value());
        }
        Ok(FragmentCheckpoint {
            batch: Wire::get(r.at("FragmentCheckpoint.batch"))?,
            fragment: Wire::get(r.at("FragmentCheckpoint.fragment"))?,
            meta: Wire::decode(r.at("FragmentCheckpoint.meta").blob()?)?,
            records: {
                let n = u32::get(r.at("FragmentCheckpoint.records"))?;
                r.list_of(u64::from(n), <(u32, u32, String)>::MIN_SIZE, |r| {
                    let (q, oid) = (u32::get(r)?, u32::get(r)?);
                    let text = r.blob()?;
                    std::str::from_utf8(text).map_err(|_| r.bad_value())?;
                    Ok((q, oid, Bytes::copy_from_slice(text)))
                })?
            },
        })
    }
}
