//! Fragment readers: turning raw file bytes (or ranges of them) into a
//! searchable [`SubjectSource`].

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use blast_core::alphabet::Molecule;
use blast_core::search::SubjectSource;
use blast_core::seq::SubjectView;

use crate::codec::{CodecError, Reader, Wire};
use crate::frag::FragmentSpec;
use crate::volume::{EncodedVolume, VolumeIndex};

/// An in-memory database fragment: the unit a worker searches.
///
/// pioBLAST workers build this from four ranged reads of the shared files
/// ([`FragmentData::from_ranges`] — the paper's parallel input stage);
/// mpiBLAST workers build it from whole fragment files they copied
/// ([`FragmentData::from_file_bytes`]). The residue and defline buffers
/// are taken as given — any owner of bytes, such as a view of what a
/// file system read returned — and shared, never copied. A fragment read
/// ahead in record-aligned pieces is those pieces [joined](FragmentData::join):
/// one run of subjects over the pieces' own buffers.
#[derive(Debug, Clone)]
pub struct FragmentData {
    /// Molecule type.
    pub molecule: Molecule,
    /// Global ordinal id of the first sequence.
    pub base_oid: u64,
    /// The runs of records the fragment's bytes arrived in, in oid order:
    /// one, unless it was joined from pieces, and never none.
    parts: Vec<Part>,
}

/// One run of a fragment's records over its own buffers.
#[derive(Debug, Clone)]
struct Part {
    /// Fragment-local index of the run's first record.
    first: usize,
    /// Residue offsets rebased to `seq` (`num_seqs + 1` entries).
    seq_offsets: Vec<u64>,
    /// Defline offsets rebased to `hdr`.
    hdr_offsets: Vec<u64>,
    /// Concatenated encoded residues.
    seq: Shared,
    /// Concatenated defline bytes.
    hdr: Shared,
}

impl Part {
    fn num_seqs(&self) -> usize {
        self.seq_offsets.len().saturating_sub(1)
    }

    /// Residues and defline of the run's `i`-th record.
    fn record(&self, i: usize) -> (&[u8], &[u8]) {
        let (s, h) = (&self.seq_offsets, &self.hdr_offsets);
        (
            &self.seq[s[i] as usize..s[i + 1] as usize],
            &self.hdr[h[i] as usize..h[i + 1] as usize],
        )
    }
}

/// Bytes kept alive by whatever owns them (a `Vec`, a shared view of a
/// file system's buffer), behind a std `Arc` so clones share them.
#[derive(Clone)]
struct Shared(Arc<dyn AsRef<[u8]> + Send + Sync>);

impl Shared {
    fn new(owner: impl AsRef<[u8]> + Send + Sync + 'static) -> Shared {
        Shared(Arc::new(owner))
    }
}

impl Deref for Shared {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        (*self.0).as_ref()
    }
}

impl PartialEq for Shared {
    fn eq(&self, other: &Shared) -> bool {
        **self == **other
    }
}

impl Eq for Shared {}

impl fmt::Debug for Shared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} bytes", self.len())
    }
}

impl FragmentData {
    /// Build from the four byte ranges named by a [`FragmentSpec`]:
    /// slices of the `.idx` offset tables plus the `.seq`/`.hdr` ranges.
    ///
    /// This is the pioBLAST input path: each buffer is exactly what one
    /// `read_at` of the shared files returns; nothing else is needed, and
    /// `seq`/`hdr` are kept as they are.
    pub fn from_ranges(
        molecule: Molecule,
        base_oid: u64,
        idx_seq_table: &[u8],
        idx_hdr_table: &[u8],
        seq: impl AsRef<[u8]> + Send + Sync + 'static,
        hdr: impl AsRef<[u8]> + Send + Sync + 'static,
    ) -> Result<FragmentData, CodecError> {
        let (seq, hdr) = (Shared::new(seq), Shared::new(hdr));
        let seq_offsets = decode_rebased_table(idx_seq_table, "seq offset table")?;
        let hdr_offsets = decode_rebased_table(idx_hdr_table, "hdr offset table")?;
        if seq_offsets.len() != hdr_offsets.len() {
            return Err(CodecError::BadValue {
                what: "offset table lengths",
            });
        }
        if seq_offsets.last().copied().unwrap_or(0) != seq.len() as u64
            || hdr_offsets.last().copied().unwrap_or(0) != hdr.len() as u64
        {
            return Err(CodecError::BadValue {
                what: "offset table vs data length",
            });
        }
        Ok(FragmentData::one(
            molecule,
            base_oid,
            seq_offsets,
            hdr_offsets,
            seq,
            hdr,
        ))
    }

    /// A fragment of one run of records.
    fn one(
        molecule: Molecule,
        base_oid: u64,
        seq_offsets: Vec<u64>,
        hdr_offsets: Vec<u64>,
        seq: Shared,
        hdr: Shared,
    ) -> FragmentData {
        let part = Part {
            first: 0,
            seq_offsets,
            hdr_offsets,
            seq,
            hdr,
        };
        FragmentData {
            molecule,
            base_oid,
            parts: vec![part],
        }
    }

    /// Join record-aligned pieces of one fragment, in oid order, into
    /// the fragment: each piece's buffers are kept as they are, and the
    /// subjects, oid lookups and byte counts are those of the fragment
    /// read whole. Fails unless the pieces are of one molecule and each
    /// starts at the oid where the one before it ends.
    pub fn join(pieces: Vec<FragmentData>) -> Result<FragmentData, CodecError> {
        let bad = CodecError::BadValue {
            what: "pieces of a fragment",
        };
        let mut pieces = pieces.into_iter();
        let mut whole = pieces.next().ok_or(bad.clone())?;
        for piece in pieces {
            let first = whole.num_seqs();
            if piece.molecule != whole.molecule || piece.base_oid != whole.base_oid + first as u64 {
                return Err(bad);
            }
            whole.parts.extend(piece.parts.into_iter().map(|mut part| {
                part.first += first;
                part
            }));
        }
        Ok(whole)
    }

    /// Build from the raw bytes of a volume's three files, as read back
    /// from disk (the mpiBLAST worker path: fragment files were copied to
    /// local storage and are now loaded for searching).
    pub fn from_file_bytes(
        idx: &[u8],
        seq: impl AsRef<[u8]> + Send + Sync + 'static,
        hdr: impl AsRef<[u8]> + Send + Sync + 'static,
    ) -> Result<FragmentData, CodecError> {
        let (seq, hdr) = (Shared::new(seq), Shared::new(hdr));
        let index = VolumeIndex::decode(idx)?;
        if index.seq_offsets.last().copied().unwrap_or(0) != seq.len() as u64
            || index.hdr_offsets.last().copied().unwrap_or(0) != hdr.len() as u64
        {
            return Err(CodecError::BadValue {
                what: "volume data length vs index",
            });
        }
        Ok(FragmentData::one(
            index.molecule,
            index.base_oid,
            index.seq_offsets,
            index.hdr_offsets,
            seq,
            hdr,
        ))
    }

    /// Build from a whole in-memory volume (mpiBLAST fragment files, or a
    /// serial whole-database search).
    pub fn from_volume(vol: &EncodedVolume) -> FragmentData {
        FragmentData::one(
            vol.index.molecule,
            vol.index.base_oid,
            vol.index.seq_offsets.clone(),
            vol.index.hdr_offsets.clone(),
            Shared::new(vol.seq.clone()),
            Shared::new(vol.hdr.clone()),
        )
    }

    /// Build by slicing a whole volume with a [`FragmentSpec`] (a virtual
    /// fragment materialized locally — used in tests to validate the
    /// ranged-read path against an in-memory reference).
    pub fn from_volume_slice(vol: &EncodedVolume, spec: &FragmentSpec) -> FragmentData {
        let first = spec.first_seq as usize;
        let last = spec.last_seq as usize;
        FragmentData::one(
            vol.index.molecule,
            spec.base_oid,
            vol.index.seq_offsets[first..=last]
                .iter()
                .map(|&o| o - spec.seq_range.0)
                .collect(),
            vol.index.hdr_offsets[first..=last]
                .iter()
                .map(|&o| o - spec.hdr_range.0)
                .collect(),
            Shared::new(vol.seq[spec.seq_range.0 as usize..spec.seq_range.1 as usize].to_vec()),
            Shared::new(vol.hdr[spec.hdr_range.0 as usize..spec.hdr_range.1 as usize].to_vec()),
        )
    }

    /// Number of sequences.
    pub fn num_seqs(&self) -> usize {
        self.parts.last().map_or(0, |p| p.first + p.num_seqs())
    }

    /// Total residues held.
    pub fn total_residues(&self) -> u64 {
        self.parts.iter().map(|p| p.seq.len() as u64).sum()
    }

    /// Total bytes of all buffers (equals the bytes read from the file
    /// system to build it, minus the index slices; a view counts its own
    /// length, whoever else shares its allocation). Pieces count as the
    /// fragment read whole.
    pub fn data_bytes(&self) -> u64 {
        let buffers: usize = self.parts.iter().map(|p| p.seq.len() + p.hdr.len()).sum();
        (buffers + 16 * (self.num_seqs() + 1)) as u64
    }

    /// The part fragment-local record `i` falls in, if the fragment
    /// holds it: the last one starting at or before it.
    fn part_of(&self, i: usize) -> &Part {
        match self.parts.as_slice() {
            [only] => only,
            parts => &parts[parts.partition_point(|p| p.first <= i).saturating_sub(1)],
        }
    }

    /// The part holding fragment-local record `i`, and `i` within it.
    fn locate(&self, i: usize) -> Option<(&Part, usize)> {
        let part = self.part_of(i);
        let local = i.checked_sub(part.first)?;
        (local < part.num_seqs()).then_some((part, local))
    }

    /// Residues and defline of a subject by *global* oid.
    fn record_of(&self, oid: u32) -> Option<(&[u8], &[u8])> {
        let local = usize::try_from((oid as u64).checked_sub(self.base_oid)?).ok()?;
        let (part, i) = self.locate(local)?;
        Some(part.record(i))
    }

    /// Residues of a subject by *global* oid.
    pub fn residues_of(&self, oid: u32) -> Option<&[u8]> {
        self.record_of(oid).map(|(residues, _)| residues)
    }

    /// Defline bytes of a subject by global oid.
    pub fn defline_of(&self, oid: u32) -> Option<&[u8]> {
        self.record_of(oid).map(|(_, defline)| defline)
    }
}

/// Fragments are equal when they hold the same subjects under the same
/// oids, however their bytes were read.
impl PartialEq for FragmentData {
    fn eq(&self, other: &FragmentData) -> bool {
        self.molecule == other.molecule
            && self.base_oid == other.base_oid
            && self.num_seqs() == other.num_seqs()
            && (0..self.num_seqs()).all(|i| {
                let (a, b) = (self.locate(i), other.locate(i));
                a.map(|(part, j)| part.record(j)) == b.map(|(part, j)| part.record(j))
            })
    }
}

impl Eq for FragmentData {}

/// Decode a slice of a fixed-stride offset table as it stands in the
/// file: absolute offsets, one per entry.
pub fn decode_table(bytes: &[u8], what: &'static str) -> Result<Vec<u64>, CodecError> {
    if !bytes.len().is_multiple_of(8) {
        return Err(CodecError::BadValue { what });
    }
    Reader::new(bytes).at(what).list((bytes.len() / 8) as u64)
}

/// Decode a slice of the fixed-stride offset table, rebasing so the first
/// entry is zero.
fn decode_rebased_table(bytes: &[u8], what: &'static str) -> Result<Vec<u64>, CodecError> {
    let bad = || CodecError::BadValue { what };
    let mut table = decode_table(bytes, what)?;
    let base = *table.first().ok_or_else(bad)?;
    for v in &mut table {
        *v = v.checked_sub(base).ok_or_else(bad)?;
    }
    Ok(table)
}

impl SubjectSource for FragmentData {
    fn num_subjects(&self) -> usize {
        self.num_seqs()
    }

    fn subject(&self, i: usize) -> SubjectView<'_> {
        let part = self.part_of(i);
        let (residues, defline) = part.record(i - part.first);
        SubjectView {
            oid: (self.base_oid + i as u64) as u32,
            residues,
            defline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formatdb::{format_records, FormatDbConfig};
    use crate::frag::virtual_fragments;
    use blast_core::seq::SeqRecord;

    fn make_db() -> crate::formatdb::FormattedDb {
        let recs: Vec<SeqRecord> = (0..6)
            .map(|i| SeqRecord {
                defline: format!("gi|{i}| protein number {i}"),
                residues: (0..(10 + i * 3)).map(|j| ((i + j) % 20) as u8).collect(),
                molecule: Molecule::Protein,
            })
            .collect();
        format_records(&recs, &FormatDbConfig::protein("rdb"))
    }

    #[test]
    fn from_volume_exposes_all_subjects() {
        let db = make_db();
        let frag = FragmentData::from_volume(&db.volumes[0]);
        assert_eq!(frag.num_subjects(), 6);
        let s = frag.subject(2);
        assert_eq!(s.oid, 2);
        assert_eq!(s.residues.len(), 16);
        assert_eq!(s.defline, b"gi|2| protein number 2");
    }

    #[test]
    fn ranged_read_path_matches_local_slice_path() {
        let db = make_db();
        let vol = &db.volumes[0];
        let indexes = vec![&vol.index];
        for n in [1, 2, 3] {
            for spec in virtual_fragments(&indexes, n) {
                let reference = FragmentData::from_volume_slice(vol, &spec);
                // Simulate the four ranged reads a pioBLAST worker issues.
                let idx_seq =
                    &vol.idx[spec.idx_seq_range.0 as usize..spec.idx_seq_range.1 as usize];
                let idx_hdr =
                    &vol.idx[spec.idx_hdr_range.0 as usize..spec.idx_hdr_range.1 as usize];
                let seq = vol.seq[spec.seq_range.0 as usize..spec.seq_range.1 as usize].to_vec();
                let hdr = vol.hdr[spec.hdr_range.0 as usize..spec.hdr_range.1 as usize].to_vec();
                let from_ranges = FragmentData::from_ranges(
                    Molecule::Protein,
                    spec.base_oid,
                    idx_seq,
                    idx_hdr,
                    seq,
                    hdr,
                )
                .unwrap();
                assert_eq!(from_ranges, reference, "n = {n}, spec = {spec:?}");
            }
        }
    }

    #[test]
    fn oid_lookups_respect_base() {
        let db = make_db();
        let vol = &db.volumes[0];
        let indexes = vec![&vol.index];
        let specs = virtual_fragments(&indexes, 2);
        let frag = FragmentData::from_volume_slice(vol, &specs[1]);
        let first_oid = specs[1].base_oid as u32;
        assert!(frag.residues_of(first_oid).is_some());
        assert!(frag.residues_of(first_oid.wrapping_sub(1)).is_none());
        assert!(frag.defline_of(first_oid).unwrap().starts_with(b"gi|"));
        let past = (specs[1].base_oid + specs[1].num_seqs()) as u32;
        assert!(frag.residues_of(past).is_none());
    }

    #[test]
    fn corrupted_tables_are_rejected() {
        assert!(decode_rebased_table(&[1, 2, 3], "x").is_err());
        assert!(decode_rebased_table(&[], "x").is_err());
        // Decreasing offsets are invalid.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&10u64.to_le_bytes());
        bytes.extend_from_slice(&5u64.to_le_bytes());
        assert!(decode_rebased_table(&bytes, "x").is_err());
    }

    #[test]
    fn mismatched_data_length_is_rejected() {
        let db = make_db();
        let vol = &db.volumes[0];
        let spec = virtual_fragments(&[&vol.index], 1)[0];
        let idx_seq = &vol.idx[spec.idx_seq_range.0 as usize..spec.idx_seq_range.1 as usize];
        let idx_hdr = &vol.idx[spec.idx_hdr_range.0 as usize..spec.idx_hdr_range.1 as usize];
        let result = FragmentData::from_ranges(
            Molecule::Protein,
            0,
            idx_seq,
            idx_hdr,
            vec![0u8; 3], // wrong length
            vol.hdr.clone(),
        );
        assert!(result.is_err());
    }
}
