//! Scoring matrices.
//!
//! The canonical BLOSUM62 table (the blastp default, and the matrix the
//! paper's experiments use implicitly) is embedded in NCBI's text format and
//! parsed at first use; arbitrary matrices in the same format can be loaded
//! with [`ScoreMatrix::parse_ncbi`]. DNA matrices are generated from
//! match/mismatch rewards.

use crate::alphabet::{encode_letter, Molecule, DNA_ALPHABET_SIZE, PROTEIN_ALPHABET_SIZE};

/// Score assigned to any pairing involving a residue code the source matrix
/// does not cover (gap placeholder pairings, etc.).
pub const UNDEFINED_SCORE: i32 = -4;

/// Row stride of the padded score table. A power of two, strictly larger
/// than every alphabet, so [`ScoreMatrix::score`] can index with masked
/// coordinates — the compiler proves the index in bounds and the lookup
/// compiles to a single unchecked load. Ungapped extension calls `score`
/// once per residue pair, and the gapped DPs gather rows of the table the
/// same way.
pub(crate) const STRIDE: usize = 32;

/// A dense residue-pair scoring matrix over one molecule's full alphabet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoreMatrix {
    /// Human-readable name, e.g. `BLOSUM62`.
    pub name: String,
    /// Molecule the matrix scores.
    pub molecule: Molecule,
    size: usize,
    /// `STRIDE`-strided table; cells outside the `size × size` valid
    /// region hold [`UNDEFINED_SCORE`] and are never read via `score`.
    scores: Box<[i32; STRIDE * STRIDE]>,
    /// `scores` saturated to `i16`, one row per residue: the extension
    /// DPs' 16-bit lanes gather from it. Built once, with the table.
    scores16: Box<[[i16; STRIDE]; STRIDE]>,
    /// The largest magnitude in `scores`, padding included.
    max_abs: i32,
}

fn empty_table() -> Box<[i32; STRIDE * STRIDE]> {
    Box::new([UNDEFINED_SCORE; STRIDE * STRIDE])
}

impl ScoreMatrix {
    /// The matrix over a finished table, with the narrowed copy the
    /// extension kernels read.
    fn with_table(
        name: String,
        molecule: Molecule,
        scores: Box<[i32; STRIDE * STRIDE]>,
    ) -> ScoreMatrix {
        let scores16 = Box::new(std::array::from_fn(|a| {
            std::array::from_fn(|b| {
                scores[a * STRIDE + b].clamp(i16::MIN.into(), i16::MAX.into()) as i16
            })
        }));
        let max_abs = scores.iter().map(|s| s.saturating_abs()).max().unwrap_or(0);
        ScoreMatrix {
            name,
            molecule,
            size: molecule.alphabet_size(),
            scores,
            scores16,
            max_abs,
        }
    }

    /// Build a matrix from a full `size × size` score table.
    ///
    /// # Panics
    /// Panics if `scores.len() != size * size` or `size` does not match the
    /// molecule's alphabet size.
    pub fn from_table(
        name: impl Into<String>,
        molecule: Molecule,
        scores: Vec<i32>,
    ) -> ScoreMatrix {
        let size = molecule.alphabet_size();
        assert_eq!(
            scores.len(),
            size * size,
            "score table must cover the full alphabet"
        );
        let mut table = empty_table();
        for a in 0..size {
            table[a * STRIDE..a * STRIDE + size].copy_from_slice(&scores[a * size..(a + 1) * size]);
        }
        ScoreMatrix::with_table(name.into(), molecule, table)
    }

    /// Score for the encoded residue pair `(a, b)`.
    #[inline(always)]
    pub fn score(&self, a: u8, b: u8) -> i32 {
        debug_assert!((a as usize) < self.size && (b as usize) < self.size);
        // The masks are no-ops for valid codes (every alphabet fits in
        // STRIDE) and let the compiler elide the bounds check entirely.
        self.scores[(a as usize & (STRIDE - 1)) * STRIDE + (b as usize & (STRIDE - 1))]
    }

    /// Row of scores for residue `a` against every residue.
    #[inline]
    pub fn row(&self, a: u8) -> &[i32] {
        let start = a as usize * STRIDE;
        &self.scores[start..start + self.size]
    }

    /// Alphabet size (row length).
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The table as rows of `i16` (saturated), for the 16-bit lanes.
    pub(crate) fn lane_rows16(&self) -> &[[i16; STRIDE]] {
        &self.scores16[..]
    }

    /// The table as rows of `i32`, for the 32-bit lanes.
    pub(crate) fn lane_rows32(&self) -> &[[i32; STRIDE]] {
        self.scores.as_chunks().0
    }

    /// The largest score magnitude in the table: the most one aligned
    /// pair can move a DP score.
    pub(crate) fn max_abs_score(&self) -> i32 {
        self.max_abs
    }

    /// Highest score anywhere in the matrix.
    pub fn max_score(&self) -> i32 {
        (0..self.size as u8)
            .flat_map(|a| self.row(a))
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Lowest score anywhere in the matrix.
    pub fn min_score(&self) -> i32 {
        (0..self.size as u8)
            .flat_map(|a| self.row(a))
            .copied()
            .min()
            .unwrap_or(0)
    }

    /// Whether `score(a, b) == score(b, a)` for all pairs.
    pub fn is_symmetric(&self) -> bool {
        (0..self.size as u8).all(|a| (0..a).all(|b| self.score(a, b) == self.score(b, a)))
    }

    /// Parse a matrix in NCBI text format: a `#`-comment header, a column
    /// line of residue letters, then one row per residue.
    ///
    /// Alphabet codes not covered by the file score [`UNDEFINED_SCORE`]
    /// against everything (except code pairs both covered).
    pub fn parse_ncbi(
        name: impl Into<String>,
        molecule: Molecule,
        text: &str,
    ) -> Result<ScoreMatrix, MatrixParseError> {
        let mut scores = empty_table();
        let mut columns: Option<Vec<u8>> = None;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut tokens = line.split_ascii_whitespace();
            let Some(cols) = &columns else {
                // Header row: residue letters naming the columns.
                let mut cols = Vec::new();
                for tok in tokens {
                    let letter = single_letter(tok, lineno)?;
                    cols.push(code_for(molecule, letter, lineno)?);
                }
                if cols.is_empty() {
                    return Err(MatrixParseError::Malformed {
                        line: lineno + 1,
                        reason: "empty column header".into(),
                    });
                }
                columns = Some(cols);
                continue;
            };
            let row_letter = tokens.next().ok_or(MatrixParseError::Malformed {
                line: lineno + 1,
                reason: "missing row label".into(),
            })?;
            let row_code = code_for(molecule, single_letter(row_letter, lineno)?, lineno)?;
            for (i, tok) in tokens.enumerate() {
                let col_code = *cols.get(i).ok_or(MatrixParseError::Malformed {
                    line: lineno + 1,
                    reason: format!("row has more than {} entries", cols.len()),
                })?;
                let value: i32 = tok.parse().map_err(|_| MatrixParseError::Malformed {
                    line: lineno + 1,
                    reason: format!("bad score token {tok:?}"),
                })?;
                scores[row_code as usize * STRIDE + col_code as usize] = value;
            }
        }
        if columns.is_none() {
            return Err(MatrixParseError::Malformed {
                line: 0,
                reason: "no column header found".into(),
            });
        }
        Ok(ScoreMatrix::with_table(name.into(), molecule, scores))
    }

    /// The canonical BLOSUM62 matrix over the protein alphabet.
    // `BLOSUM62_TEXT` is a constant that parses (the unit tests below
    // build it).
    #[allow(clippy::expect_used)]
    pub fn blosum62() -> ScoreMatrix {
        let m = ScoreMatrix::parse_ncbi("BLOSUM62", Molecule::Protein, BLOSUM62_TEXT)
            .expect("embedded BLOSUM62 must parse");
        let mut scores = m.scores;
        extend_uncovered_protein_codes(&mut scores, m.size);
        ScoreMatrix::with_table(m.name, m.molecule, scores)
    }

    /// A DNA matrix with `reward` on the diagonal and `penalty` elsewhere
    /// (the blastn model). Pairings involving `N` score `penalty.min(0)`.
    pub fn dna(reward: i32, penalty: i32) -> ScoreMatrix {
        assert!(reward > 0, "match reward must be positive");
        assert!(penalty < 0, "mismatch penalty must be negative");
        let size = DNA_ALPHABET_SIZE;
        let mut scores = empty_table();
        for a in 0..size {
            for b in 0..size {
                scores[a * STRIDE + b] = penalty;
            }
        }
        for base in 0..4usize {
            scores[base * STRIDE + base] = reward;
        }
        let n = crate::alphabet::DNA_N as usize;
        for other in 0..size {
            scores[n * STRIDE + other] = penalty;
            scores[other * STRIDE + n] = penalty;
        }
        ScoreMatrix::with_table(format!("DNA(+{reward}/{penalty})"), Molecule::Dna, scores)
    }
}

/// Map protein codes beyond the 24-letter BLOSUM coverage (`U`, `O`,
/// `J`, gap) onto the `X` ambiguity row/column, as NCBI tools do.
fn extend_uncovered_protein_codes(scores: &mut [i32; STRIDE * STRIDE], size: usize) {
    let x = crate::alphabet::PROTEIN_X as usize;
    for extra in 24..PROTEIN_ALPHABET_SIZE {
        for other in 0..size {
            scores[extra * STRIDE + other] = scores[x * STRIDE + other];
            scores[other * STRIDE + extra] = scores[other * STRIDE + x];
        }
        scores[extra * STRIDE + extra] = scores[x * STRIDE + x];
    }
    // Gap placeholder pairs stay strongly negative.
    let gap = size - 1;
    for other in 0..size {
        scores[gap * STRIDE + other] = UNDEFINED_SCORE;
        scores[other * STRIDE + gap] = UNDEFINED_SCORE;
    }
}

fn single_letter(tok: &str, lineno: usize) -> Result<u8, MatrixParseError> {
    let bytes = tok.as_bytes();
    if bytes.len() != 1 {
        return Err(MatrixParseError::Malformed {
            line: lineno + 1,
            reason: format!("expected single residue letter, got {tok:?}"),
        });
    }
    Ok(bytes[0])
}

fn code_for(molecule: Molecule, letter: u8, lineno: usize) -> Result<u8, MatrixParseError> {
    encode_letter(molecule, letter).ok_or(MatrixParseError::Malformed {
        line: lineno + 1,
        reason: format!("letter {:?} not in alphabet", char::from(letter)),
    })
}

/// Error from [`ScoreMatrix::parse_ncbi`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixParseError {
    /// Structurally invalid matrix text.
    Malformed {
        /// 1-based line number (0 when the whole file is unusable).
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for MatrixParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatrixParseError::Malformed { line, reason } => {
                write!(f, "malformed matrix at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for MatrixParseError {}

/// The NCBI BLOSUM62 matrix text (24 residues: 20 standard + B, Z, X, *).
pub const BLOSUM62_TEXT: &str = "\
#  Matrix made by matblas from blosum62.iij
#  BLOSUM Clustered Scoring Matrix in 1/2 Bit Units
   A  R  N  D  C  Q  E  G  H  I  L  K  M  F  P  S  T  W  Y  V  B  Z  X  *
A  4 -1 -2 -2  0 -1 -1  0 -2 -1 -1 -1 -1 -2 -1  1  0 -3 -2  0 -2 -1  0 -4
R -1  5  0 -2 -3  1  0 -2  0 -3 -2  2 -1 -3 -2 -1 -1 -3 -2 -3 -1  0 -1 -4
N -2  0  6  1 -3  0  0  0  1 -3 -3  0 -2 -3 -2  1  0 -4 -2 -3  3  0 -1 -4
D -2 -2  1  6 -3  0  2 -1 -1 -3 -4 -1 -3 -3 -1  0 -1 -4 -3 -3  4  1 -1 -4
C  0 -3 -3 -3  9 -3 -4 -3 -3 -1 -1 -3 -1 -2 -3 -1 -1 -2 -2 -1 -3 -3 -2 -4
Q -1  1  0  0 -3  5  2 -2  0 -3 -2  1  0 -3 -1  0 -1 -2 -1 -2  0  3 -1 -4
E -1  0  0  2 -4  2  5 -2  0 -3 -3  1 -2 -3 -1  0 -1 -3 -2 -2  1  4 -1 -4
G  0 -2  0 -1 -3 -2 -2  6 -2 -4 -4 -2 -3 -3 -2  0 -2 -2 -3 -3 -1 -2 -1 -4
H -2  0  1 -1 -3  0  0 -2  8 -3 -3 -1 -2 -1 -2 -1 -2 -2  2 -3  0  0 -1 -4
I -1 -3 -3 -3 -1 -3 -3 -4 -3  4  2 -3  1  0 -3 -2 -1 -3 -1  3 -3 -3 -1 -4
L -1 -2 -3 -4 -1 -2 -3 -4 -3  2  4 -2  2  0 -3 -2 -1 -2 -1  1 -4 -3 -1 -4
K -1  2  0 -1 -3  1  1 -2 -1 -3 -2  5 -1 -3 -1  0 -1 -3 -2 -2  0  1 -1 -4
M -1 -1 -2 -3 -1  0 -2 -3 -2  1  2 -1  5  0 -2 -1 -1 -1 -1  1 -3 -1 -1 -4
F -2 -3 -3 -3 -2 -3 -3 -3 -1  0  0 -3  0  6 -4 -2 -2  1  3 -1 -3 -3 -1 -4
P -1 -2 -2 -1 -3 -1 -1 -2 -2 -3 -3 -1 -2 -4  7 -1 -1 -4 -3 -2 -2 -1 -2 -4
S  1 -1  1  0 -1  0  0  0 -1 -2 -2  0 -1 -2 -1  4  1 -3 -2 -2  0  0  0 -4
T  0 -1  0 -1 -1 -1 -1 -2 -2 -1 -1 -1 -1 -2 -1  1  5 -2 -2  0 -1 -1  0 -4
W -3 -3 -4 -4 -2 -2 -3 -2 -2 -3 -2 -3 -1  1 -4 -3 -2 11  2 -3 -4 -3 -2 -4
Y -2 -2 -2 -3 -2 -1 -2 -3  2 -1 -1 -2 -1  3 -3 -2 -2  2  7 -1 -3 -2 -1 -4
V  0 -3 -3 -3 -1 -2 -2 -3 -3  3  1 -2  1 -1 -2 -2  0 -3 -1  4 -3 -2 -1 -4
B -2 -1  3  4 -3  0  1 -1  0 -3 -4  0 -3 -3 -2  0 -1 -4 -3 -3  4  1 -1 -4
Z -1  0  0  1 -3  3  4 -2  0 -3 -3  1 -1 -3 -1  0 -1 -3 -2 -2  1  4 -1 -4
X  0 -1 -1 -1 -2 -1 -1 -1 -1 -1 -1 -1 -1 -1 -2  0  0 -2 -1 -1 -1 -1 -1 -4
* -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4  1
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::encode;

    fn score_of(m: &ScoreMatrix, a: u8, b: u8) -> i32 {
        let ca = encode_letter(Molecule::Protein, a).unwrap();
        let cb = encode_letter(Molecule::Protein, b).unwrap();
        m.score(ca, cb)
    }

    #[test]
    fn blosum62_spot_values() {
        let m = ScoreMatrix::blosum62();
        assert_eq!(score_of(&m, b'A', b'A'), 4);
        assert_eq!(score_of(&m, b'W', b'W'), 11);
        assert_eq!(score_of(&m, b'W', b'C'), -2);
        assert_eq!(score_of(&m, b'E', b'Z'), 4);
        assert_eq!(score_of(&m, b'L', b'I'), 2);
        assert_eq!(score_of(&m, b'P', b'F'), -4);
        assert_eq!(score_of(&m, b'*', b'*'), 1);
    }

    #[test]
    fn blosum62_is_symmetric() {
        assert!(ScoreMatrix::blosum62().is_symmetric());
    }

    #[test]
    fn blosum62_extremes() {
        let m = ScoreMatrix::blosum62();
        assert_eq!(m.max_score(), 11);
        assert_eq!(m.min_score(), -4);
    }

    #[test]
    fn extended_codes_score_like_x() {
        let m = ScoreMatrix::blosum62();
        let u = encode_letter(Molecule::Protein, b'U').unwrap();
        let x = crate::alphabet::PROTEIN_X;
        let a = encode_letter(Molecule::Protein, b'A').unwrap();
        assert_eq!(m.score(u, a), m.score(x, a));
        assert_eq!(m.score(a, u), m.score(a, x));
    }

    #[test]
    fn row_matches_score() {
        let m = ScoreMatrix::blosum62();
        let a = encode_letter(Molecule::Protein, b'R').unwrap();
        let row = m.row(a);
        for b in 0..m.size() as u8 {
            assert_eq!(row[b as usize], m.score(a, b));
        }
    }

    #[test]
    fn lane_rows_hold_every_score() {
        for m in [ScoreMatrix::blosum62(), ScoreMatrix::dna(1, -3)] {
            for a in 0..m.size() as u8 {
                for b in 0..m.size() as u8 {
                    let (a_at, b_at) = (usize::from(a), usize::from(b));
                    assert_eq!(i32::from(m.lane_rows16()[a_at][b_at]), m.score(a, b));
                    assert_eq!(m.lane_rows32()[a_at][b_at], m.score(a, b));
                }
            }
            // The bound covers the padding cells too.
            assert!(m.max_abs_score() >= m.max_score().max(-m.min_score()));
        }
    }

    #[test]
    fn dna_matrix_scores() {
        let m = ScoreMatrix::dna(1, -3);
        let d = |x| encode_letter(Molecule::Dna, x).unwrap();
        assert_eq!(m.score(d(b'A'), d(b'A')), 1);
        assert_eq!(m.score(d(b'A'), d(b'C')), -3);
        assert_eq!(m.score(d(b'N'), d(b'N')), -3);
        assert!(m.is_symmetric());
    }

    #[test]
    #[should_panic(expected = "match reward must be positive")]
    fn dna_rejects_bad_reward() {
        let _ = ScoreMatrix::dna(0, -3);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ScoreMatrix::parse_ncbi("bad", Molecule::Protein, "# only comments\n").is_err());
        assert!(
            ScoreMatrix::parse_ncbi("bad", Molecule::Protein, "A R\nA 1 q\n").is_err(),
            "non-numeric score must fail"
        );
    }

    #[test]
    fn parse_partial_matrix_defaults_elsewhere() {
        let m =
            ScoreMatrix::parse_ncbi("tiny", Molecule::Protein, "  A R\nA 4 -1\nR -1 5\n").unwrap();
        assert_eq!(score_of(&m, b'A', b'A'), 4);
        assert_eq!(score_of(&m, b'A', b'N'), UNDEFINED_SCORE);
    }

    #[test]
    fn scoring_whole_sequences_is_consistent() {
        let m = ScoreMatrix::blosum62();
        let q = encode(Molecule::Protein, b"MKVLAA").unwrap();
        let identity: i32 = q.iter().map(|&c| m.score(c, c)).sum();
        assert!(identity > 0, "self-alignment must score positively");
    }
}
