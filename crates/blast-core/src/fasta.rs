//! Streaming FASTA reader and writer.

use std::io::{self, BufRead, Write};

use crate::alphabet::Molecule;
use crate::seq::SeqRecord;

/// Errors produced while parsing FASTA input.
#[derive(Debug)]
pub enum FastaError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Residue data before any `>` defline.
    DataBeforeDefline {
        /// 1-based line number of the offending line.
        line: usize,
    },
    /// A residue line contained an invalid character.
    BadResidue {
        /// 1-based line number of the offending line.
        line: usize,
        /// The encode-level error.
        source: crate::alphabet::EncodeError,
    },
}

impl std::fmt::Display for FastaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FastaError::Io(e) => write!(f, "I/O error reading FASTA: {e}"),
            FastaError::DataBeforeDefline { line } => {
                write!(f, "line {line}: sequence data before any '>' defline")
            }
            FastaError::BadResidue { line, source } => write!(f, "line {line}: {source}"),
        }
    }
}

impl std::error::Error for FastaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FastaError::Io(e) => Some(e),
            FastaError::BadResidue { source, .. } => Some(source),
            FastaError::DataBeforeDefline { .. } => None,
        }
    }
}

impl From<io::Error> for FastaError {
    fn from(e: io::Error) -> Self {
        FastaError::Io(e)
    }
}

/// Streaming FASTA reader yielding [`SeqRecord`]s.
pub struct FastaReader<R> {
    input: R,
    molecule: Molecule,
    line: usize,
    pending_defline: Option<String>,
    done: bool,
}

impl<R: BufRead> FastaReader<R> {
    /// Wrap a buffered reader, encoding residues for `molecule`.
    pub fn new(molecule: Molecule, input: R) -> FastaReader<R> {
        FastaReader {
            input,
            molecule,
            line: 0,
            pending_defline: None,
            done: false,
        }
    }

    /// Read the next record, or `Ok(None)` at end of input.
    pub fn next_record(&mut self) -> Result<Option<SeqRecord>, FastaError> {
        if self.done {
            return Ok(None);
        }
        let mut defline = self.pending_defline.take();
        let mut residues: Vec<u8> = Vec::new();
        let mut buf = String::new();
        loop {
            buf.clear();
            let n = self.input.read_line(&mut buf)?;
            if n == 0 {
                self.done = true;
                break;
            }
            self.line += 1;
            let line = buf.trim_end_matches(['\n', '\r']);
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('>') {
                if defline.is_some() {
                    // Start of the next record: stash and emit the current one.
                    self.pending_defline = Some(rest.trim().to_string());
                    break;
                }
                defline = Some(rest.trim().to_string());
            } else {
                let Some(_) = defline else {
                    return Err(FastaError::DataBeforeDefline { line: self.line });
                };
                let encoded =
                    crate::alphabet::encode(self.molecule, line.as_bytes()).map_err(|source| {
                        FastaError::BadResidue {
                            line: self.line,
                            source,
                        }
                    })?;
                residues.extend_from_slice(&encoded);
            }
        }
        match defline {
            Some(defline) => Ok(Some(SeqRecord {
                defline,
                residues,
                molecule: self.molecule,
            })),
            None => Ok(None),
        }
    }

    /// Read all remaining records.
    pub fn read_all(&mut self) -> Result<Vec<SeqRecord>, FastaError> {
        let mut out = Vec::new();
        while let Some(rec) = self.next_record()? {
            out.push(rec);
        }
        Ok(out)
    }
}

/// Parse a complete FASTA text held in memory.
pub fn parse(molecule: Molecule, text: &[u8]) -> Result<Vec<SeqRecord>, FastaError> {
    FastaReader::new(molecule, text).read_all()
}

/// Write records as FASTA, wrapping residue lines at `width` columns.
pub fn write<W: Write>(out: &mut W, records: &[SeqRecord], width: usize) -> io::Result<()> {
    let width = width.max(1);
    for rec in records {
        writeln!(out, ">{}", rec.defline)?;
        let ascii = rec.residues_ascii();
        for chunk in ascii.chunks(width) {
            out.write_all(chunk)?;
            out.write_all(b"\n")?;
        }
    }
    Ok(())
}

/// Render records to an in-memory FASTA string.
pub fn to_string(records: &[SeqRecord], width: usize) -> String {
    let mut buf = Vec::new();
    // Writing to a `Vec` cannot fail, and deflines are `String`s and
    // decoded residues ASCII, so the lossy branch never runs.
    let _ = write(&mut buf, records, width);
    String::from_utf8(buf).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &[u8] = b">seq1 first protein\nMKVL\nAAGH\n\n>seq2\nACDE\n";

    #[test]
    fn parses_multi_record_input() {
        let recs = parse(Molecule::Protein, SAMPLE).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].defline, "seq1 first protein");
        assert_eq!(recs[0].residues_ascii(), b"MKVLAAGH");
        assert_eq!(recs[1].defline, "seq2");
        assert_eq!(recs[1].residues_ascii(), b"ACDE");
    }

    #[test]
    fn round_trips_through_writer() {
        let recs = parse(Molecule::Protein, SAMPLE).unwrap();
        let text = to_string(&recs, 3);
        let reparsed = parse(Molecule::Protein, text.as_bytes()).unwrap();
        assert_eq!(recs, reparsed);
    }

    #[test]
    fn rejects_leading_data() {
        let err = parse(Molecule::Protein, b"MKVL\n>seq1\nAA\n").unwrap_err();
        assert!(matches!(err, FastaError::DataBeforeDefline { line: 1 }));
    }

    #[test]
    fn rejects_bad_residue_with_line_number() {
        let err = parse(Molecule::Protein, b">s\nMK9L\n").unwrap_err();
        match err {
            FastaError::BadResidue { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn empty_input_yields_no_records() {
        assert!(parse(Molecule::Protein, b"").unwrap().is_empty());
        assert!(parse(Molecule::Protein, b"\n\n").unwrap().is_empty());
    }

    #[test]
    fn record_with_no_residues_is_kept() {
        let recs = parse(Molecule::Protein, b">empty\n>full\nAC\n").unwrap();
        assert_eq!(recs.len(), 2);
        assert!(recs[0].is_empty());
        assert_eq!(recs[1].residues_ascii(), b"AC");
    }

    #[test]
    fn crlf_input_is_tolerated() {
        let recs = parse(Molecule::Protein, b">s one\r\nMKVL\r\n").unwrap();
        assert_eq!(recs[0].defline, "s one");
        assert_eq!(recs[0].residues_ascii(), b"MKVL");
    }

    #[test]
    fn dna_parsing_uses_dna_alphabet() {
        let recs = parse(Molecule::Dna, b">d\nACGTN\n").unwrap();
        assert_eq!(recs[0].residues, vec![0, 1, 2, 3, 4]);
    }
}
