//! The formatted-database volume layout.
//!
//! A *volume* is one indexed chunk of a database, stored as three files
//! (mirroring formatdb's `.pin`/`.psq`/`.phr` triple):
//!
//! * `<name>.idx` — header (magic, molecule, title, statistics) followed by
//!   two fixed-stride offset tables: sequence offsets into `.seq` and
//!   defline offsets into `.hdr`. Fixed stride is the property pioBLAST's
//!   dynamic partitioning depends on: the byte range of any sequence
//!   interval's index entries is computable without reading the file.
//! * `<name>.seq` — concatenated encoded residues.
//! * `<name>.hdr` — concatenated defline bytes.
//!
//! Databases larger than a volume cap are split into `name.00`, `name.01`,
//! ... with a text alias file `<name>.al` naming the volumes (formatdb's
//! `.pal`). All encode/decode works on in-memory byte buffers so volumes
//! can live on the simulated cluster file system or the host file system
//! alike.

use blast_core::alphabet::Molecule;
use blast_core::stats::DbStats;

use crate::codec::{CodecError, Reader, Wire, Writer};

/// Magic bytes opening every `.idx` file.
pub const IDX_MAGIC: &[u8; 8] = b"PIOBDB1\0";

/// File-name extensions of the volume triple.
pub const EXT_IDX: &str = "idx";
/// Sequence-file extension.
pub const EXT_SEQ: &str = "seq";
/// Header-file extension.
pub const EXT_HDR: &str = "hdr";
/// Alias-file extension.
pub const EXT_ALIAS: &str = "al";

/// Parsed contents of a volume's `.idx` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VolumeIndex {
    /// Molecule type of the residues in `.seq`.
    pub molecule: Molecule,
    /// Database title.
    pub title: String,
    /// Ordinal id (within the whole database) of this volume's first
    /// sequence.
    pub base_oid: u64,
    /// Statistics of this volume only.
    pub volume_stats: DbStats,
    /// Statistics of the whole database (all volumes), so any single
    /// volume suffices to compute global E-values.
    pub global_stats: DbStats,
    /// `seq_offsets[i]..seq_offsets[i+1]` is sequence `i`'s byte range in
    /// `.seq` (local oid `i`; `num_seqs + 1` entries).
    pub seq_offsets: Vec<u64>,
    /// Same for deflines in `.hdr`.
    pub hdr_offsets: Vec<u64>,
}

impl VolumeIndex {
    /// Number of sequences in this volume.
    pub fn num_seqs(&self) -> usize {
        self.seq_offsets.len().saturating_sub(1)
    }

    /// Length in residues of local sequence `i`.
    pub fn seq_len(&self, i: usize) -> u64 {
        self.seq_offsets[i + 1] - self.seq_offsets[i]
    }

    /// Byte offset, within the `.idx` file, where the sequence-offset
    /// table begins. Entries are 8 bytes each, so entry `i` lives at
    /// `seq_table_start() + 8*i`. This is what lets a worker read just its
    /// fragment's slice of the index with a ranged read.
    pub fn seq_table_start(&self) -> u64 {
        // magic(8) + tag(1) + pad(3) + title(4 + len) + 5×u64 stats/base +
        // count(8)
        (8 + 4 + 4 + self.title.len() + 5 * 8 + 8) as u64
    }

    /// Byte offset of the header-offset table.
    pub fn hdr_table_start(&self) -> u64 {
        self.seq_table_start() + 8 * self.seq_offsets.len() as u64
    }
}

/// The `.idx` layout: magic, molecule tag padded to four bytes, title,
/// base oid, volume and global statistics, then one `u64` count shared
/// by the two offset tables that close the file.
impl Wire for VolumeIndex {
    const MIN_SIZE: usize = 8 + 4 + 4 + 6 * 8;

    fn put(&self, w: &mut Writer) {
        w.bytes(IDX_MAGIC);
        self.molecule.put(w);
        w.bytes(&[0u8; 3]);
        self.title.put(w);
        self.base_oid.put(w);
        self.volume_stats.put(w);
        self.global_stats.put(w);
        (self.seq_offsets.len() as u64).put(w);
        u64::put_all(&self.seq_offsets, w);
        u64::put_all(&self.hdr_offsets, w);
    }

    fn get(r: &mut Reader<'_>) -> Result<VolumeIndex, CodecError> {
        if r.at("idx magic").bytes(8)? != IDX_MAGIC {
            return Err(r.bad_value());
        }
        let molecule = Wire::get(r.at("molecule tag"))?;
        r.at("pad").bytes(3)?;
        let title = Wire::get(r.at("title"))?;
        let base_oid = Wire::get(r.at("base oid"))?;
        let volume_stats = Wire::get(r)?;
        let global_stats = Wire::get(r)?;
        let n = u64::get(r.at("offset count"))?;
        Ok(VolumeIndex {
            molecule,
            title,
            base_oid,
            volume_stats,
            global_stats,
            seq_offsets: r.at("seq offset").list(n)?,
            hdr_offsets: r.at("hdr offset").list(n)?,
        })
    }
}

/// The three files of an encoded volume, plus its parsed index.
#[derive(Debug, Clone)]
pub struct EncodedVolume {
    /// Volume base name, e.g. `nr-sim.00`.
    pub name: String,
    /// `.idx` bytes.
    pub idx: Vec<u8>,
    /// `.seq` bytes.
    pub seq: Vec<u8>,
    /// `.hdr` bytes.
    pub hdr: Vec<u8>,
    /// The index these bytes encode.
    pub index: VolumeIndex,
}

impl EncodedVolume {
    /// The `(file name, contents)` pairs of this volume.
    pub fn files(&self) -> [(String, &[u8]); 3] {
        [
            (format!("{}.{}", self.name, EXT_IDX), &self.idx[..]),
            (format!("{}.{}", self.name, EXT_SEQ), &self.seq[..]),
            (format!("{}.{}", self.name, EXT_HDR), &self.hdr[..]),
        ]
    }
}

/// The alias file describing a multi-volume database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AliasFile {
    /// Database title.
    pub title: String,
    /// Molecule type.
    pub molecule: Molecule,
    /// Volume base names, in oid order.
    pub volumes: Vec<String>,
    /// Whole-database statistics.
    pub global_stats: DbStats,
}

impl AliasFile {
    /// Render the text form (a formatdb-like key/value file).
    pub fn encode(&self) -> Vec<u8> {
        let mut s = String::new();
        s.push_str("# pioblast-rs database alias\n");
        s.push_str(&format!("TITLE {}\n", self.title));
        s.push_str(&format!("MOLECULE {}\n", self.molecule.tag() as char));
        s.push_str(&format!("NSEQ {}\n", self.global_stats.num_sequences));
        s.push_str(&format!("LENGTH {}\n", self.global_stats.total_residues));
        s.push_str(&format!("DBLIST {}\n", self.volumes.join(" ")));
        s.into_bytes()
    }

    /// Parse the text form.
    pub fn decode(buf: &[u8]) -> Result<AliasFile, CodecError> {
        let text =
            std::str::from_utf8(buf).map_err(|_| CodecError::BadValue { what: "alias utf8" })?;
        let mut title = None;
        let mut molecule = None;
        let mut nseq = None;
        let mut length = None;
        let mut volumes = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.split_once(' ') else {
                continue;
            };
            match key {
                "TITLE" => title = Some(value.to_string()),
                "MOLECULE" => {
                    molecule = Molecule::from_tag(value.as_bytes().first().copied().unwrap_or(0))
                }
                "NSEQ" => {
                    nseq = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| CodecError::BadValue { what: "alias NSEQ" })?,
                    )
                }
                "LENGTH" => {
                    length = Some(value.parse::<u64>().map_err(|_| CodecError::BadValue {
                        what: "alias LENGTH",
                    })?)
                }
                "DBLIST" => volumes = value.split_whitespace().map(String::from).collect(),
                _ => {}
            }
        }
        Ok(AliasFile {
            title: title.ok_or(CodecError::BadValue {
                what: "alias TITLE",
            })?,
            molecule: molecule.ok_or(CodecError::BadValue {
                what: "alias MOLECULE",
            })?,
            volumes,
            global_stats: DbStats {
                num_sequences: nseq.ok_or(CodecError::BadValue { what: "alias NSEQ" })?,
                total_residues: length.ok_or(CodecError::BadValue {
                    what: "alias LENGTH",
                })?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_index() -> VolumeIndex {
        VolumeIndex {
            molecule: Molecule::Protein,
            title: "nr-sim".to_string(),
            base_oid: 100,
            volume_stats: DbStats {
                num_sequences: 3,
                total_residues: 30,
            },
            global_stats: DbStats {
                num_sequences: 10,
                total_residues: 100,
            },
            seq_offsets: vec![0, 10, 22, 30],
            hdr_offsets: vec![0, 5, 11, 20],
        }
    }

    #[test]
    fn table_starts_are_correct() {
        let idx = sample_index();
        let bytes = idx.encode();
        let s = idx.seq_table_start() as usize;
        // Entry 0 of the sequence table must decode to seq_offsets[0].
        let v = u64::from_le_bytes(bytes[s..s + 8].try_into().unwrap());
        assert_eq!(v, 0);
        let v = u64::from_le_bytes(bytes[s + 8..s + 16].try_into().unwrap());
        assert_eq!(v, 10);
        let h = idx.hdr_table_start() as usize;
        let v = u64::from_le_bytes(bytes[h + 8..h + 16].try_into().unwrap());
        assert_eq!(v, 5);
        // The header table ends exactly at the file end.
        assert_eq!(h + 8 * idx.hdr_offsets.len(), bytes.len());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample_index().encode();
        bytes[0] = b'X';
        assert!(VolumeIndex::decode(&bytes).is_err());
    }

    #[test]
    fn seq_len_uses_offsets() {
        let idx = sample_index();
        assert_eq!(idx.num_seqs(), 3);
        assert_eq!(idx.seq_len(0), 10);
        assert_eq!(idx.seq_len(1), 12);
        assert_eq!(idx.seq_len(2), 8);
    }

    #[test]
    fn alias_round_trips() {
        let alias = AliasFile {
            title: "nt-sim".to_string(),
            molecule: Molecule::Dna,
            volumes: vec!["nt-sim.00".into(), "nt-sim.01".into()],
            global_stats: DbStats {
                num_sequences: 42,
                total_residues: 12345,
            },
        };
        let bytes = alias.encode();
        assert_eq!(AliasFile::decode(&bytes).unwrap(), alias);
    }

    #[test]
    fn alias_with_missing_fields_is_rejected() {
        assert!(AliasFile::decode(b"TITLE x\n").is_err());
        assert!(AliasFile::decode(b"# nothing\n").is_err());
    }
}
