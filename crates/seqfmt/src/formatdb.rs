//! The `formatdb` equivalent: raw FASTA -> indexed volumes.
//!
//! Mirrors NCBI `formatdb` (and therefore the first half of mpiBLAST's
//! `mpiformatdb`): scan the raw database once, encode residues, and emit
//! one or more indexed volumes plus an alias file. Volumes are split when
//! a residue cap is exceeded, the way formatdb splits the multi-gigabyte
//! `nt` database — the case the paper's §4 discusses.

use blast_core::alphabet::Molecule;
use blast_core::fasta::{self, FastaError};
use blast_core::seq::SeqRecord;
use blast_core::stats::DbStats;

use crate::codec::Wire;
use crate::volume::{AliasFile, EncodedVolume, VolumeIndex, EXT_ALIAS};

/// Configuration for a formatting run.
#[derive(Debug, Clone)]
pub struct FormatDbConfig {
    /// Database title (also the output base name).
    pub title: String,
    /// Molecule type of the input.
    pub molecule: Molecule,
    /// Split volumes when they would exceed this many residues
    /// (`None` = single volume, like formatdb on a small database).
    pub volume_residue_cap: Option<u64>,
}

impl FormatDbConfig {
    /// Single-volume protein database.
    pub fn protein(title: impl Into<String>) -> FormatDbConfig {
        FormatDbConfig {
            title: title.into(),
            molecule: Molecule::Protein,
            volume_residue_cap: None,
        }
    }

    /// Single-volume nucleotide database.
    pub fn dna(title: impl Into<String>) -> FormatDbConfig {
        FormatDbConfig {
            title: title.into(),
            molecule: Molecule::Dna,
            volume_residue_cap: None,
        }
    }
}

/// A fully formatted database: all volumes plus the alias file.
#[derive(Debug, Clone)]
pub struct FormattedDb {
    /// Alias describing the volume set.
    pub alias: AliasFile,
    /// Volumes in oid order.
    pub volumes: Vec<EncodedVolume>,
}

impl FormattedDb {
    /// Whole-database statistics.
    pub fn stats(&self) -> DbStats {
        self.alias.global_stats
    }

    /// Every output file as `(name, contents)`, alias first.
    pub fn files(&self) -> Vec<(String, Vec<u8>)> {
        let mut out = vec![(
            format!("{}.{}", self.alias.title, EXT_ALIAS),
            self.alias.encode(),
        )];
        for v in &self.volumes {
            for (name, bytes) in v.files() {
                out.push((name, bytes.to_vec()));
            }
        }
        out
    }

    /// Total bytes across all output files.
    pub fn total_bytes(&self) -> u64 {
        self.files().iter().map(|(_, b)| b.len() as u64).sum()
    }
}

/// Format already-parsed records.
pub fn format_records(records: &[SeqRecord], cfg: &FormatDbConfig) -> FormattedDb {
    let global_stats = DbStats {
        num_sequences: records.len() as u64,
        total_residues: records.iter().map(|r| r.len() as u64).sum(),
    };

    // Split records into volumes by the residue cap.
    let mut volume_ranges: Vec<(usize, usize)> = Vec::new();
    match cfg.volume_residue_cap {
        None => volume_ranges.push((0, records.len())),
        Some(cap) => {
            let cap = cap.max(1);
            let mut start = 0usize;
            let mut acc = 0u64;
            for (i, r) in records.iter().enumerate() {
                let len = r.len() as u64;
                if acc > 0 && acc + len > cap {
                    volume_ranges.push((start, i));
                    start = i;
                    acc = 0;
                }
                acc += len;
            }
            if start < records.len() || volume_ranges.is_empty() {
                volume_ranges.push((start, records.len()));
            }
        }
    }

    let multi = volume_ranges.len() > 1;
    let mut volumes = Vec::with_capacity(volume_ranges.len());
    let mut base_oid = 0u64;
    for (vi, &(lo, hi)) in volume_ranges.iter().enumerate() {
        let slice = &records[lo..hi];
        let name = if multi {
            format!("{}.{:02}", cfg.title, vi)
        } else {
            cfg.title.clone()
        };
        volumes.push(encode_volume(
            &name,
            &cfg.title,
            cfg.molecule,
            base_oid,
            slice,
            global_stats,
        ));
        base_oid += slice.len() as u64;
    }

    let alias = AliasFile {
        title: cfg.title.clone(),
        molecule: cfg.molecule,
        volumes: volumes.iter().map(|v| v.name.clone()).collect(),
        global_stats,
    };
    FormattedDb { alias, volumes }
}

/// Format records with *explicit* volume boundaries — one input slice
/// per volume — instead of splitting by a residue cap. This is what the
/// multi-volume synthesis sweep uses: each volume's record set (and
/// therefore its size and length distribution) is chosen by the
/// generator, and the formatter must not re-draw the boundaries.
/// `cfg.volume_residue_cap` is ignored. Oids stay continuous across
/// volumes, exactly as with cap-based splitting.
pub fn format_volumes(per_volume: &[Vec<SeqRecord>], cfg: &FormatDbConfig) -> FormattedDb {
    let global_stats = DbStats {
        num_sequences: per_volume.iter().map(|v| v.len() as u64).sum(),
        total_residues: per_volume
            .iter()
            .flat_map(|v| v.iter())
            .map(|r| r.len() as u64)
            .sum(),
    };
    let empty: Vec<SeqRecord> = Vec::new();
    let slices: Vec<&Vec<SeqRecord>> = if per_volume.is_empty() {
        vec![&empty]
    } else {
        per_volume.iter().collect()
    };
    let multi = slices.len() > 1;
    let mut volumes = Vec::with_capacity(slices.len());
    let mut base_oid = 0u64;
    for (vi, slice) in slices.iter().enumerate() {
        let name = if multi {
            format!("{}.{:02}", cfg.title, vi)
        } else {
            cfg.title.clone()
        };
        volumes.push(encode_volume(
            &name,
            &cfg.title,
            cfg.molecule,
            base_oid,
            slice,
            global_stats,
        ));
        base_oid += slice.len() as u64;
    }
    let alias = AliasFile {
        title: cfg.title.clone(),
        molecule: cfg.molecule,
        volumes: volumes.iter().map(|v| v.name.clone()).collect(),
        global_stats,
    };
    FormattedDb { alias, volumes }
}

/// Format raw FASTA text.
pub fn format_fasta(text: &[u8], cfg: &FormatDbConfig) -> Result<FormattedDb, FastaError> {
    let records = fasta::parse(cfg.molecule, text)?;
    Ok(format_records(&records, cfg))
}

fn encode_volume(
    name: &str,
    title: &str,
    molecule: Molecule,
    base_oid: u64,
    records: &[SeqRecord],
    global_stats: DbStats,
) -> EncodedVolume {
    let mut seq = Vec::new();
    let mut hdr = Vec::new();
    let mut seq_offsets = Vec::with_capacity(records.len() + 1);
    let mut hdr_offsets = Vec::with_capacity(records.len() + 1);
    seq_offsets.push(0u64);
    hdr_offsets.push(0u64);
    for r in records {
        seq.extend_from_slice(&r.residues);
        hdr.extend_from_slice(r.defline.as_bytes());
        seq_offsets.push(seq.len() as u64);
        hdr_offsets.push(hdr.len() as u64);
    }
    let index = VolumeIndex {
        molecule,
        title: title.to_string(),
        base_oid,
        volume_stats: DbStats {
            num_sequences: records.len() as u64,
            total_residues: seq.len() as u64,
        },
        global_stats,
        seq_offsets,
        hdr_offsets,
    };
    EncodedVolume {
        name: name.to_string(),
        idx: index.encode(),
        seq,
        hdr,
        index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(n: usize, len: usize) -> Vec<SeqRecord> {
        (0..n)
            .map(|i| SeqRecord {
                defline: format!("gi|{i}| synthetic {i}"),
                residues: vec![(i % 20) as u8; len],
                molecule: Molecule::Protein,
            })
            .collect()
    }

    #[test]
    fn single_volume_round_trip() {
        let recs = records(5, 10);
        let db = format_records(&recs, &FormatDbConfig::protein("testdb"));
        assert_eq!(db.volumes.len(), 1);
        let v = &db.volumes[0];
        assert_eq!(v.name, "testdb");
        assert_eq!(v.index.num_seqs(), 5);
        assert_eq!(v.index.global_stats.total_residues, 50);
        // Index bytes decode back to the same index.
        let back = VolumeIndex::decode(&v.idx).unwrap();
        assert_eq!(back, v.index);
        // Residues of sequence 3 are recoverable through the offsets.
        let s = v.index.seq_offsets[3] as usize;
        let e = v.index.seq_offsets[4] as usize;
        assert_eq!(&v.seq[s..e], &recs[3].residues[..]);
        let s = v.index.hdr_offsets[3] as usize;
        let e = v.index.hdr_offsets[4] as usize;
        assert_eq!(&v.hdr[s..e], recs[3].defline.as_bytes());
    }

    #[test]
    fn volume_cap_splits() {
        let recs = records(10, 10); // 100 residues
        let cfg = FormatDbConfig {
            title: "big".into(),
            molecule: Molecule::Protein,
            volume_residue_cap: Some(35),
        };
        let db = format_records(&recs, &cfg);
        assert!(db.volumes.len() >= 3, "got {} volumes", db.volumes.len());
        // Volumes chain base oids and cover everything exactly once.
        let mut oid = 0u64;
        for v in &db.volumes {
            assert_eq!(v.index.base_oid, oid);
            assert!(v.index.volume_stats.total_residues <= 35);
            oid += v.index.volume_stats.num_sequences;
        }
        assert_eq!(oid, 10);
        assert_eq!(db.alias.volumes.len(), db.volumes.len());
        assert!(db.volumes[0].name.starts_with("big.0"));
    }

    #[test]
    fn sequence_longer_than_cap_still_fits_one_volume() {
        let recs = records(2, 100);
        let cfg = FormatDbConfig {
            title: "huge".into(),
            molecule: Molecule::Protein,
            volume_residue_cap: Some(10),
        };
        let db = format_records(&recs, &cfg);
        assert_eq!(db.volumes.len(), 2);
        assert_eq!(db.stats().num_sequences, 2);
    }

    #[test]
    fn format_fasta_end_to_end() {
        let db = format_fasta(
            b">a one\nMKVL\n>b two\nACDEFG\n",
            &FormatDbConfig::protein("mini"),
        )
        .unwrap();
        assert_eq!(db.stats().num_sequences, 2);
        assert_eq!(db.stats().total_residues, 10);
        let files = db.files();
        assert_eq!(files.len(), 4); // alias + idx/seq/hdr
        assert!(files[0].0.ends_with(".al"));
    }

    #[test]
    fn empty_database_formats() {
        let db = format_records(&[], &FormatDbConfig::protein("empty"));
        assert_eq!(db.volumes.len(), 1);
        assert_eq!(db.volumes[0].index.num_seqs(), 0);
        assert_eq!(db.stats().total_residues, 0);
    }
}
