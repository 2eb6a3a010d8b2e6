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
/// file system read returned — and shared, never copied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragmentData {
    /// Molecule type.
    pub molecule: Molecule,
    /// Global ordinal id of the first sequence.
    pub base_oid: u64,
    /// Residue offsets rebased to this fragment's `seq` buffer
    /// (`num_seqs + 1` entries).
    seq_offsets: Vec<u64>,
    /// Defline offsets rebased to `hdr`.
    hdr_offsets: Vec<u64>,
    /// Concatenated encoded residues.
    seq: Shared,
    /// Concatenated defline bytes.
    hdr: Shared,
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
        Ok(FragmentData {
            molecule,
            base_oid,
            seq_offsets,
            hdr_offsets,
            seq,
            hdr,
        })
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
        Ok(FragmentData {
            molecule: index.molecule,
            base_oid: index.base_oid,
            seq_offsets: index.seq_offsets,
            hdr_offsets: index.hdr_offsets,
            seq,
            hdr,
        })
    }

    /// Build from a whole in-memory volume (mpiBLAST fragment files, or a
    /// serial whole-database search).
    pub fn from_volume(vol: &EncodedVolume) -> FragmentData {
        FragmentData {
            molecule: vol.index.molecule,
            base_oid: vol.index.base_oid,
            seq_offsets: vol.index.seq_offsets.clone(),
            hdr_offsets: vol.index.hdr_offsets.clone(),
            seq: Shared::new(vol.seq.clone()),
            hdr: Shared::new(vol.hdr.clone()),
        }
    }

    /// Build by slicing a whole volume with a [`FragmentSpec`] (a virtual
    /// fragment materialized locally — used in tests to validate the
    /// ranged-read path against an in-memory reference).
    pub fn from_volume_slice(vol: &EncodedVolume, spec: &FragmentSpec) -> FragmentData {
        let first = spec.first_seq as usize;
        let last = spec.last_seq as usize;
        FragmentData {
            molecule: vol.index.molecule,
            base_oid: spec.base_oid,
            seq_offsets: vol.index.seq_offsets[first..=last]
                .iter()
                .map(|&o| o - spec.seq_range.0)
                .collect(),
            hdr_offsets: vol.index.hdr_offsets[first..=last]
                .iter()
                .map(|&o| o - spec.hdr_range.0)
                .collect(),
            seq: Shared::new(
                vol.seq[spec.seq_range.0 as usize..spec.seq_range.1 as usize].to_vec(),
            ),
            hdr: Shared::new(
                vol.hdr[spec.hdr_range.0 as usize..spec.hdr_range.1 as usize].to_vec(),
            ),
        }
    }

    /// Number of sequences.
    pub fn num_seqs(&self) -> usize {
        self.seq_offsets.len().saturating_sub(1)
    }

    /// Total residues held.
    pub fn total_residues(&self) -> u64 {
        self.seq.len() as u64
    }

    /// Total bytes of all buffers (equals the bytes read from the file
    /// system to build it, minus the index slices; a view counts its own
    /// length, whoever else shares its allocation).
    pub fn data_bytes(&self) -> u64 {
        (self.seq.len() + self.hdr.len() + 16 * self.seq_offsets.len()) as u64
    }

    /// Residues of a subject by *global* oid.
    pub fn residues_of(&self, oid: u32) -> Option<&[u8]> {
        let local = (oid as u64).checked_sub(self.base_oid)? as usize;
        if local >= self.num_seqs() {
            return None;
        }
        Some(&self.seq[self.seq_offsets[local] as usize..self.seq_offsets[local + 1] as usize])
    }

    /// Defline bytes of a subject by global oid.
    pub fn defline_of(&self, oid: u32) -> Option<&[u8]> {
        let local = (oid as u64).checked_sub(self.base_oid)? as usize;
        if local >= self.num_seqs() {
            return None;
        }
        Some(&self.hdr[self.hdr_offsets[local] as usize..self.hdr_offsets[local + 1] as usize])
    }
}

/// Decode a slice of the fixed-stride offset table, rebasing so the first
/// entry is zero.
fn decode_rebased_table(bytes: &[u8], what: &'static str) -> Result<Vec<u64>, CodecError> {
    let bad = || CodecError::BadValue { what };
    if !bytes.len().is_multiple_of(8) {
        return Err(bad());
    }
    let mut table: Vec<u64> = Reader::new(bytes).at(what).list((bytes.len() / 8) as u64)?;
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
        SubjectView {
            oid: (self.base_oid + i as u64) as u32,
            residues: &self.seq[self.seq_offsets[i] as usize..self.seq_offsets[i + 1] as usize],
            defline: &self.hdr[self.hdr_offsets[i] as usize..self.hdr_offsets[i + 1] as usize],
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
