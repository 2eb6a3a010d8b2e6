//! Differential tests of the eight-lane extension kernels.
//!
//! The references are the scalar gapped X-drop and banded-traceback
//! kernels the lane kernels replaced, kept verbatim in
//! `reference/extend_scalar.rs`. Coordinates, scores and edit scripts must
//! be equal on every input, in both lane widths, with a fresh scratch and
//! with one that both kernels have dirtied.

use blast_core::extend::{banded_global_into, gapped_xdrop, ExtendScratch};
use blast_core::karlin::GapPenalties;
use blast_core::matrix::ScoreMatrix;
use proptest::prelude::*;

mod reference {
    include!("reference/extend_scalar.rs");
}

/// Both scoring systems the searches use: BLOSUM62 11/1 and blastn +1/-3
/// 5/2, with the alphabet size residues are drawn from.
fn scoring(dna: bool) -> (ScoreMatrix, GapPenalties, u8) {
    if dna {
        (
            ScoreMatrix::dna(1, -3),
            GapPenalties { open: 5, extend: 2 },
            4,
        )
    } else {
        (ScoreMatrix::blosum62(), GapPenalties::BLOSUM62_DEFAULT, 20)
    }
}

/// `q` with substitutions, insertions and deletions applied.
fn mutate(q: &[u8], edits: &[(u8, u16, u8, u8)], alphabet: u8) -> Vec<u8> {
    let mut s = q.to_vec();
    for &(kind, at, len, residue) in edits {
        let at = at as usize % (s.len() + 1);
        let residue = residue % alphabet;
        match kind % 3 {
            0 if at < s.len() => s[at] = residue,
            1 => {
                for _ in 0..len {
                    s.insert(at, residue);
                }
            }
            _ => {
                let end = (at + len as usize).min(s.len());
                s.drain(at..end);
            }
        }
    }
    if s.is_empty() {
        s.push(0);
    }
    s
}

/// A seed position in `0..len`: either end, or anywhere.
fn seed_at(kind: u8, pick: u16, len: usize) -> u32 {
    match kind {
        0 => 0,
        1 => len as u32 - 1,
        _ => u32::from(pick) % len as u32,
    }
}

/// The lane kernels equal the references on `(q, s)`: the gapped
/// extension from `seed` and the traceback of the whole pair, each with a
/// fresh scratch and with `dirty`.
#[allow(clippy::too_many_arguments)]
fn assert_same_extensions(
    matrix: &ScoreMatrix,
    gaps: GapPenalties,
    q: &[u8],
    s: &[u8],
    seed: (u32, u32),
    x_drop: i32,
    band_pad: usize,
    dirty: &mut ExtendScratch,
) -> Result<(), TestCaseError> {
    let (q_seed, s_seed) = seed;
    let want = reference::gapped_xdrop(
        matrix,
        gaps,
        q,
        s,
        q_seed,
        s_seed,
        x_drop,
        &mut reference::ExtendScratch::new(),
    );
    let fresh = gapped_xdrop(
        matrix,
        gaps,
        q,
        s,
        q_seed,
        s_seed,
        x_drop,
        &mut ExtendScratch::new(),
    );
    let reused = gapped_xdrop(matrix, gaps, q, s, q_seed, s_seed, x_drop, dirty);
    let case = format!(
        "n={} m={} seed=({q_seed}, {s_seed}) x={x_drop}",
        q.len(),
        s.len()
    );
    prop_assert_eq!(fresh, want, "gapped, fresh scratch, {}", case);
    prop_assert_eq!(reused, want, "gapped, dirty scratch, {}", case);

    let want = reference::banded_global_into(
        matrix,
        gaps,
        q,
        s,
        band_pad,
        &mut reference::ExtendScratch::new(),
    );
    let fresh = banded_global_into(matrix, gaps, q, s, band_pad, &mut ExtendScratch::new());
    let reused = banded_global_into(matrix, gaps, q, s, band_pad, dirty);
    prop_assert_eq!(
        &fresh,
        &want,
        "banded, fresh scratch, {} pad={}",
        case,
        band_pad
    );
    prop_assert_eq!(
        &reused,
        &want,
        "banded, dirty scratch, {} pad={}",
        case,
        band_pad
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Homologous pairs with indels: real gapped paths, bands that drift
    /// and shrink, every `x_drop` from "stop at the first loss" to wide,
    /// every `band_pad` a caller could pass, seeds at both ends.
    #[test]
    fn lane_kernels_equal_the_scalar_reference_on_homologs(
        dna in any::<bool>(),
        q in prop::collection::vec(0u8..20, 1..200),
        edits in prop::collection::vec((0u8..3, any::<u16>(), 1u8..7, 0u8..20), 0..12),
        seed in (0u8..4, any::<u16>(), 0u8..4, any::<u16>()),
        x_drop in 0i32..=60,
        band_pad in 0usize..=64,
    ) {
        let (matrix, gaps, alphabet) = scoring(dna);
        let q: Vec<u8> = q.iter().map(|&c| c % alphabet).collect();
        let s = mutate(&q, &edits, alphabet);
        let mut dirty = ExtendScratch::new();
        let at = (seed_at(seed.0, seed.1, q.len()), seed_at(seed.2, seed.3, s.len()));
        assert_same_extensions(&matrix, gaps, &q, &s, at, x_drop, band_pad, &mut dirty)?;
        // Transposed: the drift changes sign, and the scratch is reused.
        let at = (seed_at(seed.2, seed.3, s.len()), seed_at(seed.0, seed.1, q.len()));
        assert_same_extensions(&matrix, gaps, &s, &q, at, x_drop, band_pad, &mut dirty)?;
    }

    /// Unrelated pairs of unrelated lengths, one residue included: bands
    /// die within a few rows, ties between states are common, and the
    /// band's centre moves by more than a column per row.
    #[test]
    fn lane_kernels_equal_the_scalar_reference_on_unrelated_pairs(
        dna in any::<bool>(),
        q in prop::collection::vec(0u8..20, 1..120),
        s in prop::collection::vec(0u8..20, 1..120),
        one in (any::<bool>(), any::<bool>()),
        seed in (0u8..4, any::<u16>(), 0u8..4, any::<u16>()),
        x_drop in 0i32..=60,
        band_pad in 0usize..=64,
    ) {
        let (matrix, gaps, alphabet) = scoring(dna);
        let mut q: Vec<u8> = q.iter().map(|&c| c % alphabet).collect();
        let mut s: Vec<u8> = s.iter().map(|&c| c % alphabet).collect();
        if one.0 {
            q.truncate(1);
        }
        if one.1 {
            s.truncate(1);
        }
        let mut dirty = ExtendScratch::new();
        let at = (seed_at(seed.0, seed.1, q.len()), seed_at(seed.2, seed.3, s.len()));
        assert_same_extensions(&matrix, gaps, &q, &s, at, x_drop, band_pad, &mut dirty)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Pairs whose scores may not fit 16-bit lanes take the 32-bit ones:
    /// rectangles of 2 400 residues and more for the traceback, and an
    /// `x_drop` of 16 000 or more (no cell is ever pruned) for the gapped
    /// extension. The dirty scratch has run 16-bit kernels first.
    #[test]
    fn lane_kernels_equal_the_scalar_reference_in_32_bit_lanes(
        dna in any::<bool>(),
        q in prop::collection::vec(0u8..20, 1_250..1_400),
        edits in prop::collection::vec((0u8..3, any::<u16>(), 1u8..7, 0u8..20), 0..30),
        seed in (any::<u16>(), any::<u16>()),
        x_drop in 16_000i32..20_000,
        band_pad in 0usize..=32,
    ) {
        let (matrix, gaps, alphabet) = scoring(dna);
        let q: Vec<u8> = q.iter().map(|&c| c % alphabet).collect();
        let s = mutate(&q, &edits, alphabet);
        let mut dirty = ExtendScratch::new();
        let at = (seed_at(2, seed.0, q.len()), seed_at(2, seed.1, s.len()));
        assert_same_extensions(&matrix, gaps, &q, &s, at, 38, band_pad, &mut dirty)?;
        // Nothing is pruned, so the gapped DP fills its whole rectangle:
        // keep that to a window.
        let (qw, sw) = (&q[..200], &s[..200.min(s.len())]);
        let at = (seed_at(2, seed.0, qw.len()), seed_at(2, seed.1, sw.len()));
        assert_same_extensions(&matrix, gaps, qw, sw, at, x_drop, band_pad, &mut dirty)?;
    }
}
