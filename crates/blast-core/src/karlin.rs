//! Karlin–Altschul statistical parameters.
//!
//! Given a scoring matrix and residue background frequencies, the local
//! alignment score of random sequences follows an extreme-value
//! distribution characterized by `lambda`, `K` and the relative entropy
//! `H`. This module computes those parameters from first principles
//! (Karlin & Altschul, PNAS 1990), the way NCBI's `karlin.c` does:
//!
//! * `lambda` is the unique positive root of `Σ pᵢpⱼ·exp(λ·sᵢⱼ) = 1`;
//! * `H = λ · Σ pᵢpⱼ·sᵢⱼ·exp(λ·sᵢⱼ)`;
//! * `K = gcd·λ·exp(−2σ) / (H·(1 − exp(−λ·gcd)))` where
//!   `σ = Σ_{j≥1} j⁻¹·[P(Sⱼ ≥ 0) + E(exp(λSⱼ); Sⱼ < 0)]` and `Sⱼ` is the
//!   j-fold sum of the per-pair score distribution.
//!
//! Gapped search cannot be solved analytically; like NCBI BLAST we carry a
//! small table of empirically fitted gapped parameters for the supported
//! matrices (the paper's runs use the blastp default BLOSUM62 with gap
//! open 11 / extend 1).

use crate::alphabet::Molecule;
use crate::matrix::ScoreMatrix;

/// The statistical parameter triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KarlinParams {
    /// Scale parameter of the extreme-value distribution (nats per score unit).
    pub lambda: f64,
    /// Search-space scale constant.
    pub k: f64,
    /// Relative entropy of the target vs background distribution (nats/pair).
    pub h: f64,
}

impl KarlinParams {
    /// `ln K`, used in bit-score conversion.
    #[inline]
    pub fn log_k(&self) -> f64 {
        self.k.ln()
    }

    /// Convert a raw score to a normalized bit score.
    #[inline]
    pub fn bit_score(&self, raw: i32) -> f64 {
        (self.lambda * raw as f64 - self.log_k()) / std::f64::consts::LN_2
    }
}

/// Errors from the parameter solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KarlinError {
    /// Expected pair score is non-negative: no local-alignment statistics
    /// exist (lambda has no positive root).
    NonNegativeExpectedScore,
    /// The matrix has no positive score: every alignment is rejected.
    NoPositiveScore,
    /// Root finding failed to converge.
    NoConvergence,
}

impl std::fmt::Display for KarlinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KarlinError::NonNegativeExpectedScore => {
                write!(f, "expected pair score is non-negative; lambda undefined")
            }
            KarlinError::NoPositiveScore => write!(f, "matrix has no positive score"),
            KarlinError::NoConvergence => write!(f, "lambda root finding did not converge"),
        }
    }
}

impl std::error::Error for KarlinError {}

/// Robinson & Robinson (1991) amino-acid background frequencies, indexed by
/// the first 20 protein codes (A R N D C Q E G H I L K M F P S T W Y V).
pub const ROBINSON_FREQS: [f64; 20] = [
    0.07805, 0.05129, 0.04487, 0.05364, 0.01925, 0.04264, 0.06295, 0.07377, 0.02199, 0.05142,
    0.09019, 0.05744, 0.02243, 0.03856, 0.05203, 0.07120, 0.05841, 0.01330, 0.03216, 0.06441,
];

/// Background residue frequencies over a molecule's alphabet.
///
/// Ambiguity codes carry zero probability; the 20 standard amino acids (or
/// 4 bases) carry the full mass, renormalized to sum to one.
#[derive(Debug, Clone)]
pub struct Background {
    freqs: Vec<f64>,
}

impl Background {
    /// Standard protein background (Robinson–Robinson), zero elsewhere.
    pub fn protein() -> Background {
        let mut freqs = vec![0.0; Molecule::Protein.alphabet_size()];
        let total: f64 = ROBINSON_FREQS.iter().sum();
        for (i, &f) in ROBINSON_FREQS.iter().enumerate() {
            freqs[i] = f / total;
        }
        Background { freqs }
    }

    /// Uniform DNA background (¼ per base), zero for `N`.
    pub fn dna() -> Background {
        let mut freqs = vec![0.0; Molecule::Dna.alphabet_size()];
        for f in freqs.iter_mut().take(4) {
            *f = 0.25;
        }
        Background { freqs }
    }

    /// Default background for a molecule.
    pub fn for_molecule(molecule: Molecule) -> Background {
        match molecule {
            Molecule::Protein => Background::protein(),
            Molecule::Dna => Background::dna(),
        }
    }

    /// Build from explicit frequencies (renormalized; negatives rejected).
    pub fn from_freqs(freqs: Vec<f64>) -> Option<Background> {
        let total: f64 = freqs.iter().sum();
        if total <= 0.0 || freqs.iter().any(|&f| f < 0.0 || !f.is_finite()) {
            return None;
        }
        Some(Background {
            freqs: freqs.into_iter().map(|f| f / total).collect(),
        })
    }

    /// Frequency of encoded residue `code` (zero outside the table).
    #[inline]
    pub fn freq(&self, code: u8) -> f64 {
        self.freqs.get(code as usize).copied().unwrap_or(0.0)
    }

    /// Number of codes covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// Whether the table is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }
}

/// The distribution of the per-pair score under the background model:
/// `prob[i]` is the probability of score `low + i as i32`.
#[derive(Debug, Clone)]
pub struct ScoreDistribution {
    /// Lowest score with non-zero probability.
    pub low: i32,
    /// Highest score with non-zero probability.
    pub high: i32,
    /// Probabilities for scores `low..=high`.
    pub prob: Vec<f64>,
}

impl ScoreDistribution {
    /// Tabulate the pair-score distribution of `matrix` under `background`.
    pub fn from_matrix(matrix: &ScoreMatrix, background: &Background) -> ScoreDistribution {
        let n = matrix.size().min(background.len());
        let mut low = i32::MAX;
        let mut high = i32::MIN;
        for a in 0..n as u8 {
            if background.freq(a) == 0.0 {
                continue;
            }
            for b in 0..n as u8 {
                if background.freq(b) == 0.0 {
                    continue;
                }
                let s = matrix.score(a, b);
                low = low.min(s);
                high = high.max(s);
            }
        }
        if low > high {
            // Degenerate background; produce the zero distribution.
            return ScoreDistribution {
                low: 0,
                high: 0,
                prob: vec![1.0],
            };
        }
        let mut prob = vec![0.0; (high - low + 1) as usize];
        for a in 0..n as u8 {
            let fa = background.freq(a);
            if fa == 0.0 {
                continue;
            }
            for b in 0..n as u8 {
                let fb = background.freq(b);
                if fb == 0.0 {
                    continue;
                }
                prob[(matrix.score(a, b) - low) as usize] += fa * fb;
            }
        }
        ScoreDistribution { low, high, prob }
    }

    /// Expected score `Σ p(s)·s`.
    pub fn mean(&self) -> f64 {
        self.prob
            .iter()
            .enumerate()
            .map(|(i, &p)| p * (self.low + i as i32) as f64)
            .sum()
    }

    /// Greatest common divisor of all scores with non-zero probability.
    pub fn score_gcd(&self) -> i32 {
        let mut g = 0i32;
        for (i, &p) in self.prob.iter().enumerate() {
            if p > 0.0 {
                let s = self.low + i as i32;
                if s != 0 {
                    g = gcd(g, s.abs());
                }
            }
        }
        g.max(1)
    }
}

fn gcd(a: i32, b: i32) -> i32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Solve for the ungapped Karlin–Altschul parameters of a matrix under a
/// background distribution.
pub fn solve_ungapped(
    matrix: &ScoreMatrix,
    background: &Background,
) -> Result<KarlinParams, KarlinError> {
    let dist = ScoreDistribution::from_matrix(matrix, background);
    solve_from_distribution(&dist)
}

/// Solve parameters directly from a score distribution.
pub fn solve_from_distribution(dist: &ScoreDistribution) -> Result<KarlinParams, KarlinError> {
    if dist.high <= 0 {
        return Err(KarlinError::NoPositiveScore);
    }
    if dist.mean() >= 0.0 {
        return Err(KarlinError::NonNegativeExpectedScore);
    }
    let lambda = solve_lambda(dist)?;
    let h = entropy(dist, lambda);
    let k = solve_k(dist, lambda, h);
    Ok(KarlinParams { lambda, k, h })
}

/// `phi(λ) = Σ p(s)·exp(λ·s) − 1`; strictly convex with `phi(0) = 0`, a
/// negative derivative at 0 (mean < 0) and `phi → ∞`, so it has exactly one
/// positive root.
fn phi(dist: &ScoreDistribution, lambda: f64) -> f64 {
    let mut sum = 0.0;
    for (i, &p) in dist.prob.iter().enumerate() {
        if p > 0.0 {
            sum += p * (lambda * (dist.low + i as i32) as f64).exp();
        }
    }
    sum - 1.0
}

fn solve_lambda(dist: &ScoreDistribution) -> Result<f64, KarlinError> {
    // Bracket the root: phi(0)=0 and phi'(0)<0, so walk right until positive.
    let mut hi = 0.5;
    let mut iters = 0;
    while phi(dist, hi) <= 0.0 {
        hi *= 2.0;
        iters += 1;
        if iters > 64 {
            return Err(KarlinError::NoConvergence);
        }
    }
    let mut lo = 0.0;
    // Bisection to ~1e-12 relative precision; phi is cheap to evaluate.
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if phi(dist, mid) > 0.0 {
            hi = mid;
        } else {
            lo = mid;
        }
        if hi - lo < 1e-14 + 1e-12 * hi {
            break;
        }
    }
    let lambda = 0.5 * (lo + hi);
    if lambda <= 0.0 || !lambda.is_finite() {
        return Err(KarlinError::NoConvergence);
    }
    Ok(lambda)
}

/// Relative entropy `H = λ · Σ p(s)·s·exp(λ·s)` (nats per aligned pair).
fn entropy(dist: &ScoreDistribution, lambda: f64) -> f64 {
    let mut sum = 0.0;
    for (i, &p) in dist.prob.iter().enumerate() {
        if p > 0.0 {
            let s = (dist.low + i as i32) as f64;
            sum += p * s * (lambda * s).exp();
        }
    }
    lambda * sum
}

/// Number of convolution rounds in the `sigma` series. Each round j
/// contributes O(1/j)·(geometrically shrinking mass), so ~30 rounds give
/// several digits — the same order NCBI uses.
const K_ITERATIONS: usize = 40;

/// Compute `K` from the sigma series (see module docs).
fn solve_k(dist: &ScoreDistribution, lambda: f64, h: f64) -> f64 {
    let gcd = dist.score_gcd() as f64;
    // Convolve the score distribution with itself j times, accumulating
    // sigma = Σ_j (1/j)·[P(Sⱼ ≥ 0) + E(e^{λSⱼ}; Sⱼ < 0)]. Both terms decay
    // exponentially in j (the first by the negative drift, the second
    // because it equals the λ-tilted walk's probability of being negative),
    // so the truncated series converges quickly.
    let mut sigma = 0.0;
    let base_len = dist.prob.len();
    let mut conv = dist.prob.clone();
    let mut conv_low = dist.low;
    for j in 1..=K_ITERATIONS {
        let mut term = 0.0;
        for (i, &p) in conv.iter().enumerate() {
            if p <= 0.0 {
                continue;
            }
            let s = conv_low + i as i32;
            if s >= 0 {
                term += p;
            } else {
                term += p * (lambda * s as f64).exp();
            }
        }
        sigma += term / j as f64;
        if j < K_ITERATIONS {
            // One more convolution with the base distribution.
            let mut next = vec![0.0; conv.len() + base_len - 1];
            for (i, &p) in conv.iter().enumerate() {
                if p <= 0.0 {
                    continue;
                }
                for (k, &q) in dist.prob.iter().enumerate() {
                    if q > 0.0 {
                        next[i + k] += p * q;
                    }
                }
            }
            conv = next;
            conv_low += dist.low;
        }
    }
    gcd * lambda * (-2.0 * sigma).exp() / (h * (1.0 - (-lambda * gcd).exp()))
}

/// Affine gap penalties: opening a gap of length g costs `open + g·extend`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GapPenalties {
    /// Gap existence cost.
    pub open: i32,
    /// Per-residue gap extension cost.
    pub extend: i32,
}

impl GapPenalties {
    /// The blastp default for BLOSUM62: open 11, extend 1.
    pub const BLOSUM62_DEFAULT: GapPenalties = GapPenalties {
        open: 11,
        extend: 1,
    };

    /// Total cost of a gap of `len` residues.
    #[inline]
    pub fn cost(&self, len: i32) -> i32 {
        self.open + self.extend * len
    }
}

/// Empirically fitted gapped parameters (the NCBI approach: gapped
/// statistics are not analytically solvable, so published fits are used).
///
/// Returns `None` for unsupported (matrix, penalties) combinations; callers
/// then fall back to ungapped parameters, which is conservative (it
/// overestimates E-values slightly).
pub fn gapped_params(matrix_name: &str, gaps: GapPenalties) -> Option<KarlinParams> {
    match (matrix_name, gaps.open, gaps.extend) {
        // From the NCBI blastp parameter tables.
        ("BLOSUM62", 11, 1) => Some(KarlinParams {
            lambda: 0.267,
            k: 0.041,
            h: 0.14,
        }),
        ("BLOSUM62", 10, 1) => Some(KarlinParams {
            lambda: 0.243,
            k: 0.024,
            h: 0.10,
        }),
        ("BLOSUM62", 9, 2) => Some(KarlinParams {
            lambda: 0.279,
            k: 0.058,
            h: 0.19,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blosum62_params() -> KarlinParams {
        solve_ungapped(&ScoreMatrix::blosum62(), &Background::protein()).unwrap()
    }

    #[test]
    fn blosum62_lambda_matches_published_value() {
        // NCBI reports ungapped BLOSUM62 lambda = 0.3176.
        let p = blosum62_params();
        assert!((p.lambda - 0.3176).abs() < 0.002, "lambda = {}", p.lambda);
    }

    #[test]
    fn blosum62_h_matches_published_value() {
        // NCBI reports H = 0.4012 nats for ungapped BLOSUM62.
        let p = blosum62_params();
        assert!((p.h - 0.4012).abs() < 0.01, "H = {}", p.h);
    }

    #[test]
    fn blosum62_k_matches_published_value() {
        // NCBI reports K = 0.134 for ungapped BLOSUM62.
        let p = blosum62_params();
        assert!((p.k - 0.134).abs() < 0.02, "K = {}", p.k);
    }

    #[test]
    fn dna_params_are_sane() {
        let p = solve_ungapped(&ScoreMatrix::dna(1, -3), &Background::dna()).unwrap();
        // Published blastn +1/−3: lambda = 1.374, K = 0.711.
        assert!((p.lambda - 1.374).abs() < 0.01, "lambda = {}", p.lambda);
        assert!((p.k - 0.711).abs() < 0.05, "K = {}", p.k);
    }

    #[test]
    fn positive_mean_matrix_is_rejected() {
        // An all-positive matrix has no negative drift.
        let m = ScoreMatrix::dna(1, -3);
        let mut scores = Vec::new();
        for a in 0..m.size() as u8 {
            for b in 0..m.size() as u8 {
                let _ = (a, b);
                scores.push(2);
            }
        }
        let m = ScoreMatrix::from_table("pos", Molecule::Dna, scores);
        assert_eq!(
            solve_ungapped(&m, &Background::dna()).unwrap_err(),
            KarlinError::NonNegativeExpectedScore
        );
    }

    #[test]
    fn all_negative_matrix_is_rejected() {
        let size = Molecule::Dna.alphabet_size();
        let m = ScoreMatrix::from_table("neg", Molecule::Dna, vec![-1; size * size]);
        assert_eq!(
            solve_ungapped(&m, &Background::dna()).unwrap_err(),
            KarlinError::NoPositiveScore
        );
    }

    #[test]
    fn score_distribution_sums_to_one() {
        let dist = ScoreDistribution::from_matrix(&ScoreMatrix::blosum62(), &Background::protein());
        let total: f64 = dist.prob.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(dist.mean() < 0.0);
    }

    #[test]
    fn gcd_of_blosum62_scores_is_one() {
        let dist = ScoreDistribution::from_matrix(&ScoreMatrix::blosum62(), &Background::protein());
        assert_eq!(dist.score_gcd(), 1);
    }

    #[test]
    fn gapped_table_has_default() {
        let p = gapped_params("BLOSUM62", GapPenalties::BLOSUM62_DEFAULT).unwrap();
        assert!((p.lambda - 0.267).abs() < 1e-9);
        assert!(gapped_params("BLOSUM62", GapPenalties { open: 7, extend: 7 }).is_none());
    }

    #[test]
    fn background_normalizes() {
        let bg = Background::protein();
        let total: f64 = (0..bg.len() as u8).map(|c| bg.freq(c)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(bg.freq(crate::alphabet::PROTEIN_X), 0.0);
    }

    #[test]
    fn background_from_freqs_validates() {
        assert!(Background::from_freqs(vec![0.0, 0.0]).is_none());
        assert!(Background::from_freqs(vec![1.0, -0.5]).is_none());
        let bg = Background::from_freqs(vec![1.0, 3.0]).unwrap();
        assert!((bg.freq(1) - 0.75).abs() < 1e-12);
    }
}
