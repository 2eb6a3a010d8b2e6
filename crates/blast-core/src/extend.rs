//! Alignment extension: ungapped X-drop, gapped X-drop (Zhang et al.),
//! and a banded Gotoh alignment with traceback for final output.
//!
//! Both affine-gap DPs run eight cells of a row at a time on the
//! crate-private `lanes` vectors; their scores and edit scripts are those
//! of the scalar kernels they replaced (kept as test references in
//! `tests/reference/extend_scalar.rs`).

use crate::karlin::GapPenalties;
use crate::lanes::{chunks, chunks_mut, Elem, I16x8, I32x8, Lanes, LANES};
use crate::matrix::{ScoreMatrix, STRIDE};

/// An ungapped extension result, in 0-based half-open coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UngappedHit {
    /// Query range `[q_start, q_end)`.
    pub q_start: u32,
    /// End of the query range (exclusive).
    pub q_end: u32,
    /// Subject range `[s_start, s_end)`.
    pub s_start: u32,
    /// End of the subject range (exclusive).
    pub s_end: u32,
    /// Raw ungapped score.
    pub score: i32,
}

impl UngappedHit {
    /// The query position of the best-scoring cell, used as the gapped
    /// extension seed point. We use the midpoint of the ungapped segment,
    /// like NCBI's `BlastGetStartForGappedAlignment` does for short HSPs.
    pub fn seed_point(&self) -> (u32, u32) {
        let mid = (self.q_end - self.q_start) / 2;
        (self.q_start + mid, self.s_start + mid)
    }
}

/// Extend an exact/neighborhood word hit in both directions without gaps,
/// dropping out when the running score falls `x_drop` below the best seen.
///
/// `q_pos`/`s_pos` point at the first residue of the matched word of length
/// `word_len`. Returns the maximal-scoring ungapped segment through the word.
pub fn ungapped_xdrop(
    matrix: &ScoreMatrix,
    query: &[u8],
    subject: &[u8],
    q_pos: u32,
    s_pos: u32,
    word_len: u32,
    x_drop: i32,
) -> UngappedHit {
    debug_assert!(q_pos as usize + word_len as usize <= query.len());
    debug_assert!(s_pos as usize + word_len as usize <= subject.len());

    // Score of the seed word itself.
    let mut score = 0i32;
    for k in 0..word_len as usize {
        score += matrix.score(query[q_pos as usize + k], subject[s_pos as usize + k]);
    }

    // Extend right of the word. This loop and its mirror below are the
    // kernel's hottest residue-level path, so they are shaped for the
    // hardware: the zipped iteration compiles without per-step bounds
    // checks, and the best-so-far update is a pair of selects (the
    // data-dependent `running > best` comparison mispredicts badly as a
    // branch). The only branch left is the X-drop exit, taken once per
    // extension. Equivalence with the classic branchy form: after an
    // improving step `best == running`, so `best - running > x_drop`
    // cannot fire on that step (`x_drop >= 0`).
    let mut best = score;
    let mut running = score;
    let mut q_end = q_pos + word_len;
    let mut s_end = s_pos + word_len;
    {
        let mut best_ahead = 0u32;
        for (i, (&qc, &sc)) in query[q_end as usize..]
            .iter()
            .zip(subject[s_end as usize..].iter())
            .enumerate()
        {
            running += matrix.score(qc, sc);
            let better = running > best;
            best_ahead = if better { i as u32 + 1 } else { best_ahead };
            best = if better { running } else { best };
            if best - running > x_drop {
                break;
            }
        }
        q_end += best_ahead;
        s_end += best_ahead;
    }

    // Extend left of the word.
    let mut q_start = q_pos;
    let mut s_start = s_pos;
    running = best;
    {
        let mut best_behind = 0u32;
        for (i, (&qc, &sc)) in query[..q_pos as usize]
            .iter()
            .rev()
            .zip(subject[..s_pos as usize].iter().rev())
            .enumerate()
        {
            running += matrix.score(qc, sc);
            let better = running > best;
            best_behind = if better { i as u32 + 1 } else { best_behind };
            best = if better { running } else { best };
            if best - running > x_drop {
                break;
            }
        }
        q_start -= best_behind;
        s_start -= best_behind;
    }

    UngappedHit {
        q_start,
        q_end,
        s_start,
        s_end,
        score: best,
    }
}

/// Reusable DP and traceback buffers for the extension routines.
///
/// Gapped X-drop extension and banded traceback both run affine-gap DPs
/// whose rows the seed kernel used to allocate afresh on every call. One
/// `ExtendScratch`, reused by the caller, removes every heap allocation
/// from those paths: buffers grow to the high-water mark and are never
/// re-allocated. Reuse is invisible in the results — each routine writes
/// every cell it reads before reading it. The runtime's search and
/// formatting both use the one embedded in the thread's
/// [`crate::search::SearchScratch`]
/// ([`crate::search::SearchScratch::with_local`]), so the simulated ranks
/// of a job share one set of DP rows.
#[derive(Debug, Default)]
pub struct ExtendScratch {
    // The reversed query prefix for the leftward half-extension.
    q_rev: Vec<u8>,
    // The subject residues a DP runs over, padded (`pad_codes`).
    codes: Vec<u8>,
    rows: DpRows,
    // Banded traceback: one direction byte per in-band cell.
    tb_dirs: Vec<u8>,
}

impl ExtendScratch {
    /// Fresh, empty scratch. Buffers grow on first use.
    pub fn new() -> ExtendScratch {
        ExtendScratch::default()
    }

    /// Heap bytes the buffers have grown to (their high-water mark).
    pub fn heap_bytes(&self) -> usize {
        self.q_rev.capacity()
            + self.codes.capacity()
            + self.rows.narrow.heap_bytes()
            + self.rows.wide.heap_bytes()
            + self.tb_dirs.capacity()
    }
}

/// DP rows for both lane widths: a DP whose scores may not fit 16 bits
/// runs on 32-bit lanes.
#[derive(Debug, Default)]
struct DpRows {
    narrow: LaneRows<i16>,
    wide: LaneRows<i32>,
}

/// Two rolling rows, `[previous, current]`, of each DP state, one cell
/// per column. The gapped X-drop kernel uses `m` and `f`, the banded one
/// all three.
#[derive(Debug, Default)]
struct LaneRows<E> {
    m: [Vec<E>; 2],
    e: [Vec<E>; 2],
    f: [Vec<E>; 2],
}

impl<E> LaneRows<E> {
    fn heap_bytes(&self) -> usize {
        [&self.m, &self.e, &self.f]
            .iter()
            .flat_map(|rows| rows.iter())
            .map(|row| row.capacity() * std::mem::size_of::<E>())
            .sum()
    }
}

/// A lane type the extension kernels are instantiated with, and where
/// its score rows and DP rows live.
trait KernelElem: Elem {
    fn table(matrix: &ScoreMatrix) -> &[[Self; STRIDE]];
    fn rows(rows: &mut DpRows) -> &mut LaneRows<Self>;
}

impl KernelElem for i16 {
    fn table(matrix: &ScoreMatrix) -> &[[i16; STRIDE]] {
        matrix.lane_rows16()
    }
    fn rows(rows: &mut DpRows) -> &mut LaneRows<i16> {
        &mut rows.narrow
    }
}

impl KernelElem for i32 {
    fn table(matrix: &ScoreMatrix) -> &[[i32; STRIDE]] {
        matrix.lane_rows32()
    }
    fn rows(rows: &mut DpRows) -> &mut LaneRows<i32> {
        &mut rows.wide
    }
}

/// Scores the 16-bit kernels let a DP reach: about half of `i16`'s
/// range. A live score stays within `I16_REACH` of zero, and a score
/// derived from the dead sentinel `i16::MIN` stays below
/// `i16::MIN + I16_REACH`, so the two never meet and saturation never
/// touches a score that can decide a cell.
const I16_REACH: i64 = 16_000;

/// The most one DP step moves a score: an aligned pair, or an opened gap.
fn step_bound(matrix: &ScoreMatrix, gaps: GapPenalties) -> i64 {
    i64::from(matrix.max_abs_score().max(gaps.open + gaps.extend))
}

/// Whether a gapped X-drop DP fits 16-bit lanes. Its scores are relative
/// to each row's entry best: a score that can decide a live cell is
/// within `x_drop`, a step and a chunk of gap extensions of it.
fn gapped_fits_i16(matrix: &ScoreMatrix, gaps: GapPenalties, x_drop: i32) -> bool {
    let chunk_extensions = LANES as i64 * i64::from(gaps.extend);
    i64::from(x_drop.unsigned_abs()) + 2 * step_bound(matrix, gaps) + 2 * chunk_extensions
        <= I16_REACH
}

/// Whether the banded DP of an `n × m` rectangle fits 16-bit lanes. Its
/// scores are absolute: no path moves more than a step per row or column.
fn banded_fits_i16(matrix: &ScoreMatrix, gaps: GapPenalties, n: usize, m: usize) -> bool {
    (n as i64 + m as i64 + LANES as i64).saturating_mul(step_bound(matrix, gaps)) <= I16_REACH
}

/// Fill `codes` with `residues` behind one pad code and ahead of `LANES`
/// more, so that DP column `j` pairs `codes[j]` (column 0 pairs no
/// residue) and a chunk of eight columns starting at any column reads
/// eight codes. A pad code's score only reaches cells no result reads.
fn pad_codes(codes: &mut Vec<u8>, residues: impl Iterator<Item = u8>) {
    codes.clear();
    codes.push(0);
    codes.extend(residues);
    codes.extend([0; LANES]);
}

/// The scores of one query residue's row `scores` against eight codes.
#[inline(always)]
fn gather<E: Copy>(scores: &[E; STRIDE], codes: &[u8; LANES]) -> [E; LANES] {
    codes.map(|code| scores[usize::from(code) & (STRIDE - 1)])
}

/// Clear and re-initialise a reused DP row to `val` at length `len`
/// (exactly the state a fresh `vec![val; len]` would have).
#[inline]
fn reset_row<T: Copy>(row: &mut Vec<T>, len: usize, val: T) {
    row.clear();
    row.resize(len, val);
}

/// Result of a one-directional gapped X-drop extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GappedHalf {
    /// Best score of the half-extension (0 if extending is not worth it).
    score: i32,
    /// Query residues consumed at the best score.
    q_ext: u32,
    /// Subject residues consumed at the best score.
    s_ext: u32,
}

/// A full gapped extension around a seed point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GappedHit {
    /// Query range `[q_start, q_end)` of the gapped alignment.
    pub q_start: u32,
    /// End of the query range (exclusive).
    pub q_end: u32,
    /// Subject range `[s_start, s_end)`.
    pub s_start: u32,
    /// End of the subject range (exclusive).
    pub s_end: u32,
    /// Raw gapped score.
    pub score: i32,
}

/// Gapped X-drop extension (Zhang/Schwartz/Miller, as in NCBI's
/// `s_BlastGappedExtension`): extend left and right from a seed pair
/// `(q_seed, s_seed)`, each half an adaptive-band affine-gap DP that prunes
/// cells more than `x_drop` below the best score seen so far.
///
/// # Panics
/// If a gap cost is negative.
#[allow(clippy::too_many_arguments)]
pub fn gapped_xdrop(
    matrix: &ScoreMatrix,
    gaps: GapPenalties,
    query: &[u8],
    subject: &[u8],
    q_seed: u32,
    s_seed: u32,
    x_drop: i32,
    scratch: &mut ExtendScratch,
) -> GappedHit {
    if gapped_fits_i16(matrix, gaps, x_drop) {
        gapped_with::<I16x8>(
            matrix,
            gaps,
            query,
            subject,
            (q_seed, s_seed),
            x_drop,
            scratch,
        )
    } else {
        gapped_with::<I32x8>(
            matrix,
            gaps,
            query,
            subject,
            (q_seed, s_seed),
            x_drop,
            scratch,
        )
    }
}

/// [`gapped_xdrop`] on lanes `L`.
fn gapped_with<L: Lanes>(
    matrix: &ScoreMatrix,
    gaps: GapPenalties,
    query: &[u8],
    subject: &[u8],
    (q_seed, s_seed): (u32, u32),
    x_drop: i32,
    scratch: &mut ExtendScratch,
) -> GappedHit
where
    L::Elem: KernelElem,
{
    assert!(
        gaps.open >= 0 && gaps.extend >= 0,
        "gap costs must not be negative"
    );
    let seed_score = matrix.score(query[q_seed as usize], subject[s_seed as usize]);
    let ExtendScratch {
        q_rev, codes, rows, ..
    } = scratch;
    let (table, rows) = (L::Elem::table(matrix), L::Elem::rows(rows));
    let (q_at, s_at) = (q_seed as usize, s_seed as usize);
    pad_codes(codes, subject[s_at + 1..].iter().copied());
    let right = half_extension::<L>(table, gaps, &query[q_at + 1..], codes, x_drop, rows);
    q_rev.clear();
    q_rev.extend(query[..q_at].iter().rev().copied());
    pad_codes(codes, subject[..s_at].iter().rev().copied());
    let left = half_extension::<L>(table, gaps, q_rev, codes, x_drop, rows);
    GappedHit {
        q_start: q_seed - left.q_ext,
        q_end: q_seed + 1 + right.q_ext,
        s_start: s_seed - left.s_ext,
        s_end: s_seed + 1 + right.s_ext,
        score: seed_score + left.score + right.score,
    }
}

/// One direction of the gapped X-drop DP, eight columns at a time.
///
/// Aligns prefixes of `q` and of the subject `s` that `codes` pads
/// ([`pad_codes`]), both starting at offset 0, where the
/// empty extension scores 0. Row `i` covers query residue `i−1`; the band
/// `[lo, hi)` of subject columns alive in a row shrinks as cells drop
/// `x_drop` below the running best.
///
/// A row's cells are scored relative to the best score on entry to the
/// row, so every score that can decide a live cell lies within `x_drop`
/// plus a step of zero whatever the sequence lengths (see
/// [`gapped_fits_i16`]); the previous row is rebased by the row's rise,
/// at most one step, as it is loaded. A chunk of eight cells takes its
/// vertical state `f` and diagonal from the previous row in plain lane
/// operations. The horizontal state is a prefix maximum carried from the
/// previous chunk: with `h = max(diag, f)`,
/// `e_l = max(e_in, max_{t<l}(h_t − oe + (t+1)·ge)) − l·ge`, which is
/// exact because `max(m − oe, e − ge) = max(h − oe, e − ge)` when opening
/// a gap costs at least as much as extending one. The running best is a
/// prefix maximum too, and a cell is alive when it is within `x_drop` of
/// it. Dead cells store the sentinel `MIN`, which saturating arithmetic
/// keeps dead (the prune is sticky), and so do the two cells beside the
/// band that the next row reads: column `lo − 1` and column `col_end`.
fn half_extension<L: Lanes>(
    table: &[[L::Elem; STRIDE]],
    gaps: GapPenalties,
    q: &[u8],
    codes: &[u8],
    x_drop: i32,
    rows: &mut LaneRows<L::Elem>,
) -> GappedHalf {
    let width = codes.len() - LANES;
    if q.is_empty() || width == 1 {
        // A pure gap extension can never help (gap costs are positive).
        return GappedHalf {
            score: 0,
            q_ext: 0,
            s_ext: 0,
        };
    }
    let sat = <L::Elem as Elem>::sat;
    let dead = L::Elem::MIN;
    let (oe, ge) = (gaps.open + gaps.extend, gaps.extend);

    // Column `j` is cell `j + 1`: cell 0 is column −1, column 0's dead
    // diagonal. `LANES` more cells hold the last chunk's lanes past the
    // band. Every cell a row reads was written by the row before (or is
    // cell 0), so the rows are grown but never cleared.
    let [prev_m, cur_m] = &mut rows.m;
    let [prev_f, cur_f] = &mut rows.f;
    for row in [&mut *prev_m, &mut *cur_m, &mut *prev_f, &mut *cur_f] {
        if row.len() < width + 1 + LANES {
            row.resize(width + 1 + LANES, dead);
        }
    }
    (prev_m[0], cur_m[0]) = (dead, dead);

    // Row 0: leading gaps in the subject direction.
    (prev_m[1], prev_f[1]) = (sat(0), dead);
    let mut hi = 1; // exclusive upper bound of alive columns in row 0
    while hi < width && gaps.cost(hi as i32) <= x_drop {
        (prev_m[hi + 1], prev_f[hi + 1]) = (sat(-gaps.cost(hi as i32)), dead);
        hi += 1;
    }
    (prev_m[hi + 1], prev_f[hi + 1]) = (dead, dead);

    let lanes = |f: &dyn Fn(i32) -> i32| L::load(&std::array::from_fn(|l| sat(f(l as i32))));
    let (ramp0, ramp1) = (lanes(&|l| l * ge), lanes(&|l| (l + 1) * ge));
    let column = lanes(&|l| l);
    let (oe_v, ge_v, dead_v) = (L::splat(sat(oe)), L::splat(sat(ge)), L::splat(dead));
    let drop_v = L::splat(sat(x_drop.saturating_add(1)));
    let chunk_extension = L::splat(sat(LANES as i32 * ge));

    let mut best = 0i32;
    let mut best_q = 0u32;
    let mut best_s = 0u32;
    let mut lo = 0usize;
    let mut rise = sat(0);
    for (i, &qc) in q.iter().enumerate() {
        let scores = &table[usize::from(qc)];
        // Column range: can extend one beyond the previous row's band.
        let col_end = (hi + 1).min(width);
        (cur_m[lo], cur_f[lo]) = (dead, dead);
        (cur_m[col_end + 1], cur_f[col_end + 1]) = (dead, dead);
        let rebase = L::splat(rise);
        // Carried from chunk to chunk in every lane: the horizontal state
        // entering the chunk, and the row's best so far.
        let mut e_in = dead_v;
        let mut row_best = L::splat(sat(0));
        let mut row_best_col = 0usize;
        let mut new_lo = usize::MAX;
        let mut new_hi = lo;
        // Chunks start at `lo` and cover `lo..col_end`; the last one's
        // lanes past the band are masked out.
        let span = (col_end - lo).next_multiple_of(LANES);
        let (up_m, up_f) = (chunks(prev_m, lo + 1, span), chunks(prev_f, lo + 1, span));
        let diag_m = chunks(prev_m, lo, span);
        let (out_m, out_f) = (
            chunks_mut(cur_m, lo + 1, span),
            chunks_mut(cur_f, lo + 1, span),
        );
        let code = chunks(codes, lo, span);
        for c in 0..span / LANES {
            let j = lo + c * LANES;
            let up_m = L::load(&up_m[c]).sub(rebase);
            let up_f = L::load(&up_f[c]).sub(rebase);
            let diag = L::load(&diag_m[c])
                .sub(rebase)
                .add(L::load(&gather(scores, &code[c])));
            // Vertical: gap in subject (consume query residue).
            let f = up_m.sub(oe_v).max(up_f.sub(ge_v));
            let h = diag.max(f);
            // Horizontal: the prefix maximum above, from `e_in`.
            let reach = h.sub(oe_v).add(ramp1).prefix_max().max(e_in);
            let e = reach.shift_in(e_in).sub(ramp0);
            e_in = reach.broadcast_last().sub(chunk_extension);
            let in_band = L::splat(sat((col_end - j) as i32)).gt(column);
            let m = L::select(in_band, h.max(e), dead_v);
            let running = m.prefix_max().max(row_best);
            let alive = m.gt(running.sub(drop_v));
            L::select(alive, m, dead_v).store(&mut out_m[c]);
            L::select(alive, f, dead_v).store(&mut out_f[c]);
            let live = alive.bits();
            if live != 0 {
                new_lo = new_lo.min(j + live.trailing_zeros() as usize);
                new_hi = j + (u32::BITS - live.leading_zeros()) as usize;
            }
            let top = running.broadcast_last();
            if top.gt(row_best).bits() != 0 {
                // The first column reaching the new best, as a scan that
                // moves the best only on a strict gain would leave it.
                row_best_col = j + m.eq(top).bits().trailing_zeros() as usize;
            }
            row_best = top;
        }
        let row_best = row_best.last();
        rise = row_best;
        if row_best > sat(0) {
            best += row_best.get();
            best_q = i as u32 + 1;
            best_s = row_best_col as u32;
        }
        if new_lo == usize::MAX {
            break; // entire row pruned: extension is finished
        }
        lo = new_lo;
        hi = new_hi;
        std::mem::swap(prev_m, cur_m);
        std::mem::swap(prev_f, cur_f);
    }

    GappedHalf {
        score: best,
        q_ext: best_q,
        s_ext: best_s,
    }
}

/// One run of alignment operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditOp {
    /// `len` aligned residue pairs (matches or mismatches).
    Aligned(u32),
    /// `len` query residues aligned against a subject gap (insertion).
    GapInSubject(u32),
    /// `len` subject residues aligned against a query gap (deletion).
    GapInQuery(u32),
}

/// A traceback-capable alignment of a query range to a subject range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// Query range `[q_start, q_end)`.
    pub q_start: u32,
    /// End of query range (exclusive).
    pub q_end: u32,
    /// Subject range `[s_start, s_end)`.
    pub s_start: u32,
    /// End of subject range (exclusive).
    pub s_end: u32,
    /// Raw score under the matrix + gap penalties it was computed with.
    pub score: i32,
    /// Edit script from `(q_start, s_start)` to `(q_end, s_end)`.
    pub ops: Vec<EditOp>,
}

impl Alignment {
    /// Total alignment columns (pairs + gaps).
    pub fn alignment_len(&self) -> u32 {
        self.ops
            .iter()
            .map(|op| match op {
                EditOp::Aligned(n) | EditOp::GapInSubject(n) | EditOp::GapInQuery(n) => *n,
            })
            .sum()
    }

    /// Number of gap columns.
    pub fn gap_columns(&self) -> u32 {
        self.ops
            .iter()
            .map(|op| match op {
                EditOp::Aligned(_) => 0,
                EditOp::GapInSubject(n) | EditOp::GapInQuery(n) => *n,
            })
            .sum()
    }
}

/// Global banded Gotoh alignment of `query[q_range]` vs `subject[s_range]`
/// with traceback, used to produce the final edit script for an HSP whose
/// endpoints were fixed by [`gapped_xdrop`].
///
/// The band is centered on the straight line between the two corners and
/// widened by `band_pad` cells on each side (plus the diagonal drift).
pub fn banded_global(
    matrix: &ScoreMatrix,
    gaps: GapPenalties,
    query: &[u8],
    subject: &[u8],
    band_pad: usize,
) -> Alignment {
    banded_global_into(
        matrix,
        gaps,
        query,
        subject,
        band_pad,
        &mut ExtendScratch::new(),
    )
}

/// [`banded_global`] with caller-owned DP buffers: formatting loops call
/// this once per HSP and reuse one [`ExtendScratch`] across the batch.
///
/// Only the band is stored. Scores live in two rolling rows; what the
/// traceback needs from each in-band cell — which state its diagonal
/// predecessor was in, and whether its `E`/`F` value opened or extended
/// a gap — is decided while the row is filled and kept as one direction
/// byte at `row * width + (column - lo(row))`. Every decision is the
/// comparison a traceback over full `M`/`E`/`F` matrices would make at
/// that cell (ties prefer `M`, then `E`, then `F`), and a read outside
/// a row's band sees a dead cell exactly as an unwritten matrix cell
/// would, so scores and edit scripts are those of the dense formulation
/// (kept as the reference in `tests/traceback.rs`).
///
/// Rows are filled eight columns at a time on absolute scores, in 16-bit
/// lanes when every score of the rectangle provably fits and in 32-bit
/// lanes otherwise.
pub fn banded_global_into(
    matrix: &ScoreMatrix,
    gaps: GapPenalties,
    query: &[u8],
    subject: &[u8],
    band_pad: usize,
    scratch: &mut ExtendScratch,
) -> Alignment {
    if banded_fits_i16(matrix, gaps, query.len(), subject.len()) {
        banded_with::<I16x8>(matrix, gaps, query, subject, band_pad, scratch)
    } else {
        banded_with::<I32x8>(matrix, gaps, query, subject, band_pad, scratch)
    }
}

// Direction byte: bits 0-1 hold the state (`M`/`E`/`F`) the cell's `m`
// came from, `E_OPEN`/`F_OPEN` say its `e`/`f` opened its gap.
const M: u8 = 0;
const E: u8 = 1;
const F: u8 = 2;
const E_OPEN: u8 = 4;
const F_OPEN: u8 = 8;

/// The band of an `n × m` banded alignment: diagonal drift plus padding
/// on each side of the straight line between the corners.
struct Band {
    n: usize,
    m: usize,
    half: usize,
    /// Direction bytes per row.
    width: usize,
}

impl Band {
    fn new(n: usize, m: usize, band_pad: usize) -> Band {
        let half = n.abs_diff(m).saturating_add(band_pad.max(1));
        Band {
            n,
            m,
            half,
            width: half.saturating_mul(2).saturating_add(1).min(m + 1),
        }
    }

    /// Row `i` (0..=n) keeps columns `lo(i)..=hi(i)`; both ends are
    /// non-decreasing in `i`.
    fn cols(&self, i: usize) -> (usize, usize) {
        let center = i * self.m / self.n;
        (
            center.saturating_sub(self.half),
            center.saturating_add(self.half).min(self.m),
        )
    }
}

/// [`banded_global_into`] on lanes `L`.
fn banded_with<L: Lanes>(
    matrix: &ScoreMatrix,
    gaps: GapPenalties,
    query: &[u8],
    subject: &[u8],
    band_pad: usize,
    scratch: &mut ExtendScratch,
) -> Alignment
where
    L::Elem: KernelElem,
{
    let n = query.len();
    let m = subject.len();
    assert!(n > 0 && m > 0, "banded_global needs non-empty ranges");
    let band = Band::new(n, m, band_pad);
    let ExtendScratch {
        rows,
        codes,
        tb_dirs: dirs,
        ..
    } = scratch;
    pad_codes(codes, subject.iter().copied());
    // The direction bytes need no reset: the fill writes every in-band
    // cell and the traceback never leaves the band. The last chunk of the
    // last row writes up to `LANES` bytes past it.
    if dirs.len() < (n + 1) * band.width + LANES {
        dirs.resize((n + 1) * band.width + LANES, 0);
    }
    let [end_m, end_e, end_f] = banded_fill::<L>(
        L::Elem::table(matrix),
        gaps,
        query,
        codes,
        &band,
        L::Elem::rows(rows),
        dirs,
    );

    // Traceback from (n, m), choosing the best of the three states.
    let score = end_m.max(end_e).max(end_f);
    let mut state = if score == end_m {
        M
    } else if score == end_e {
        E
    } else {
        F
    };
    let mut i = n;
    let mut j = m;
    let mut rev_ops: Vec<EditOp> = Vec::new();
    let push = |ops: &mut Vec<EditOp>, op: EditOp| {
        // Merge with the previous run when the kind matches.
        match (ops.last_mut(), op) {
            (Some(EditOp::Aligned(n)), EditOp::Aligned(k)) => *n += k,
            (Some(EditOp::GapInSubject(n)), EditOp::GapInSubject(k)) => *n += k,
            (Some(EditOp::GapInQuery(n)), EditOp::GapInQuery(k)) => *n += k,
            _ => ops.push(op),
        }
    };
    while i > 0 || j > 0 {
        let dir = dirs[i * band.width + (j - band.cols(i).0)];
        match state {
            M => {
                debug_assert!(i > 0 && j > 0);
                push(&mut rev_ops, EditOp::Aligned(1));
                i -= 1;
                j -= 1;
                state = dir & 3;
            }
            E => {
                debug_assert!(j > 0);
                push(&mut rev_ops, EditOp::GapInQuery(1));
                j -= 1;
                state = if dir & E_OPEN != 0 { M } else { E };
            }
            _ => {
                debug_assert!(i > 0);
                push(&mut rev_ops, EditOp::GapInSubject(1));
                i -= 1;
                state = if dir & F_OPEN != 0 { M } else { F };
            }
        }
    }
    rev_ops.reverse();
    Alignment {
        q_start: 0,
        q_end: n as u32,
        s_start: 0,
        s_end: m as u32,
        score,
        ops: rev_ops,
    }
}

/// Fill `band` of `query` against the subject `codes` pads ([`pad_codes`])
/// eight columns at a time, writing the direction byte of every in-band
/// cell to `dirs`, and return the
/// `[m, e, f]` scores of cell `(n, m)`: `m` ends in a residue pair, `e`
/// in a gap in the query (horizontal), `f` in a gap in the subject
/// (vertical).
///
/// A chunk's `m` and `f` come from the previous row in plain lane
/// operations, and its direction bits from lane compares. Its `e` is a
/// prefix maximum from the cell left of the chunk,
/// `e_l = max(e_in, max_{t<l}(m_t − oe + (t+1)·ge)) − l·ge`. Every cell
/// is computed unconditionally; a score derived from a dead cell stays
/// within `(n + m) · step` of `MIN`, so it loses every `max` against a
/// reachable score and never equals one: it cannot decide a cell the
/// traceback visits. The cells just outside a row's band that the next
/// row reads are made dead: column `lo − 1`, and the columns past `hi`
/// that the last chunk's lanes stored.
fn banded_fill<L: Lanes>(
    table: &[[L::Elem; STRIDE]],
    gaps: GapPenalties,
    query: &[u8],
    codes: &[u8],
    band: &Band,
    rows: &mut LaneRows<L::Elem>,
    dirs: &mut [u8],
) -> [i32; 3] {
    let sat = <L::Elem as Elem>::sat;
    let dead = L::Elem::MIN;
    let (oe, ge) = (gaps.open + gaps.extend, gaps.extend);
    let m = band.m;

    // The rows are indexed by absolute column, with `LANES` more cells for
    // the last chunk's lanes past the band, and start all-dead.
    let LaneRows {
        m: [prev_m, cur_m],
        e: [prev_e, cur_e],
        f: [prev_f, cur_f],
    } = rows;
    for row in [
        &mut *prev_m,
        &mut *cur_m,
        &mut *prev_e,
        &mut *cur_e,
        &mut *prev_f,
        &mut *cur_f,
    ] {
        reset_row(row, m + 1 + LANES, dead);
    }

    // Row 0: a leading gap in the query, opened at column 1.
    prev_m[0] = sat(0);
    for j in 1..=band.cols(0).1 {
        dirs[j] = if j == 1 { E_OPEN } else { 0 };
        prev_e[j] = sat(-gaps.cost(j as i32));
    }

    let lanes = |f: &dyn Fn(i32) -> i32| L::load(&std::array::from_fn(|l| sat(f(l as i32))));
    let (ramp0, ramp1) = (lanes(&|l| l * ge), lanes(&|l| (l + 1) * ge));
    let (oe_v, ge_v) = (L::splat(sat(oe)), L::splat(sat(ge)));
    let bit = |b: u8| L::splat(sat(b.into()));
    let (from_e, from_f, e_open, f_open) = (bit(E), bit(F), bit(E_OPEN), bit(F_OPEN));

    for i in 1..=band.n {
        let (lo, hi) = band.cols(i);
        let dir_row = &mut dirs[i * band.width..(i + 1) * band.width + LANES];
        if lo == 0 {
            // Column 0: a leading gap in the subject, opened at row 1.
            dir_row[0] = if i == 1 { F_OPEN } else { 0 };
            (cur_m[0], cur_e[0], cur_f[0]) = (dead, dead, sat(-gaps.cost(i as i32)));
        } else {
            // The cell left of the band is out of band for this row and
            // for the next one's diagonal; this buffer last held row
            // i-2, whose band may have covered it.
            (cur_m[lo - 1], cur_e[lo - 1], cur_f[lo - 1]) = (dead, dead, dead);
        }
        let first = lo.max(1);
        let scores = &table[usize::from(query[i - 1])];
        // The cell left of the chunk, in lane 7: `m` and `e` carried from
        // chunk to chunk.
        let mut left_m = L::splat(cur_m[first - 1]);
        let mut left_e = L::splat(cur_e[first - 1]);
        // Chunks start at `first` and cover `first..=hi`; the last one's
        // lanes past `hi` compute cells no traceback reads.
        let span = (hi + 1 - first).next_multiple_of(LANES);
        let (diag_m, diag_e, diag_f) = (
            chunks(prev_m, first - 1, span),
            chunks(prev_e, first - 1, span),
            chunks(prev_f, first - 1, span),
        );
        let (up_m, up_f) = (chunks(prev_m, first, span), chunks(prev_f, first, span));
        let out_m = chunks_mut(cur_m, first, span);
        let out_e = chunks_mut(cur_e, first, span);
        let out_f = chunks_mut(cur_f, first, span);
        let code = chunks(codes, first, span);
        let dir_out = chunks_mut(dir_row, first - lo, span);
        for c in 0..span / LANES {
            let (diag_m, diag_e, diag_f) = (
                L::load(&diag_m[c]),
                L::load(&diag_e[c]),
                L::load(&diag_f[c]),
            );
            let (up_m, up_f) = (L::load(&up_m[c]), L::load(&up_f[c]));
            // Diagonal: ties prefer `M`, then `E`.
            let from = diag_m.max(diag_e).max(diag_f);
            let mv = from.add(L::load(&gather(scores, &code[c])));
            let (on_m, on_e) = (from.eq(diag_m), from.eq(diag_e));
            // Vertical and horizontal: opening a gap wins ties.
            let (f_opened, f_extended) = (up_m.sub(oe_v), up_f.sub(ge_v));
            let fv = f_opened.max(f_extended);
            let e_in = left_m
                .broadcast_last()
                .sub(oe_v)
                .max(left_e.broadcast_last().sub(ge_v));
            let reach = mv.sub(oe_v).add(ramp1).prefix_max().max(e_in);
            let ev = reach.shift_in(e_in).sub(ramp0);
            let e_opened = mv.shift_in(left_m).sub(oe_v);
            let e_extended = ev.shift_in(left_e).sub(ge_v);
            let dir = from_e
                .and(on_e)
                .and_not(on_m)
                .or(from_f.and_not(on_m.or(on_e)))
                .or(e_open.and_not(e_extended.gt(e_opened)))
                .or(f_open.and_not(f_extended.gt(f_opened)));
            dir_out[c] = dir.bytes();
            mv.store(&mut out_m[c]);
            ev.store(&mut out_e[c]);
            fv.store(&mut out_f[c]);
            (left_m, left_e) = (mv, ev);
        }
        let j = first + span;
        for row in [&mut *cur_m, &mut *cur_e, &mut *cur_f] {
            row[hi + 1..j].fill(dead);
        }
        std::mem::swap(prev_m, cur_m);
        std::mem::swap(prev_e, cur_e);
        std::mem::swap(prev_f, cur_f);
    }
    [prev_m[m], prev_e[m], prev_f[m]].map(Elem::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::{encode, Molecule};

    fn enc(s: &[u8]) -> Vec<u8> {
        encode(Molecule::Protein, s).unwrap()
    }

    fn m62() -> ScoreMatrix {
        ScoreMatrix::blosum62()
    }

    fn self_score(m: &ScoreMatrix, s: &[u8]) -> i32 {
        s.iter().map(|&c| m.score(c, c)).sum()
    }

    #[test]
    fn ungapped_identical_sequences_extend_fully() {
        let m = m62();
        let q = enc(b"MKVLAAGHWRTE");
        let hit = ungapped_xdrop(&m, &q, &q, 4, 4, 3, 16);
        assert_eq!(hit.q_start, 0);
        assert_eq!(hit.q_end, q.len() as u32);
        assert_eq!(hit.score, self_score(&m, &q));
    }

    #[test]
    fn ungapped_xdrop_stops_at_junk() {
        let m = m62();
        let q = enc(b"MKVLMKVL");
        // Subject matches the first 8 residues then diverges badly.
        let s = enc(b"MKVLMKVLPPPPPPPPPPPPPPPPPP");
        let hit = ungapped_xdrop(&m, &q, &s, 0, 0, 3, 10);
        assert_eq!(hit.q_end, 8);
        assert_eq!(hit.s_end, 8);
        assert_eq!(hit.score, self_score(&m, &q));
    }

    #[test]
    fn ungapped_offset_hit() {
        let m = m62();
        let q = enc(b"GGGMKVLWGGG");
        let s = enc(b"TTTTTMKVLWTTTTT");
        // Word at q[3], s[5].
        let hit = ungapped_xdrop(&m, &q, &s, 3, 5, 3, 7);
        assert!(hit.q_start <= 3 && hit.q_end >= 8);
        assert!(hit.score >= self_score(&m, &enc(b"MKVLW")));
    }

    #[test]
    fn gapped_identical_equals_self_score() {
        let m = m62();
        let q = enc(b"MKVLAAGHWRTEYFNDCQ");
        let hit = gapped_xdrop(
            &m,
            GapPenalties::BLOSUM62_DEFAULT,
            &q,
            &q,
            9,
            9,
            38,
            &mut ExtendScratch::new(),
        );
        assert_eq!(hit.q_start, 0);
        assert_eq!(hit.q_end, q.len() as u32);
        assert_eq!(hit.score, self_score(&m, &q));
    }

    #[test]
    fn gapped_extension_crosses_a_gap() {
        let m = m62();
        let gaps = GapPenalties::BLOSUM62_DEFAULT;
        // Subject = query with 2 residues deleted in the middle; flanks are
        // long enough that bridging the gap beats stopping at it.
        let q = enc(b"MKVLAAGHWRTEYFNDCQWHMKVLAAGHWRTEYFNDCQWH");
        let mut s_vec = q.clone();
        s_vec.drain(20..22);
        let s = s_vec;
        let hit = gapped_xdrop(&m, gaps, &q, &s, 5, 5, 40, &mut ExtendScratch::new());
        let expected =
            self_score(&m, &q) - m.score(q[20], q[20]) - m.score(q[21], q[21]) - gaps.cost(2);
        assert_eq!(hit.score, expected);
        assert_eq!(hit.q_end, q.len() as u32);
        assert_eq!(hit.s_end, s.len() as u32);
    }

    #[test]
    fn gapped_seed_at_sequence_edges() {
        let m = m62();
        let q = enc(b"MKVL");
        let hit = gapped_xdrop(
            &m,
            GapPenalties::BLOSUM62_DEFAULT,
            &q,
            &q,
            0,
            0,
            20,
            &mut ExtendScratch::new(),
        );
        assert_eq!(hit.q_start, 0);
        assert_eq!(hit.score, self_score(&m, &q));
        let hit = gapped_xdrop(
            &m,
            GapPenalties::BLOSUM62_DEFAULT,
            &q,
            &q,
            3,
            3,
            20,
            &mut ExtendScratch::new(),
        );
        assert_eq!(hit.q_end, 4);
        assert_eq!(hit.score, self_score(&m, &q));
    }

    #[test]
    fn banded_global_identity() {
        let m = m62();
        let q = enc(b"MKVLAAGHWR");
        let aln = banded_global(&m, GapPenalties::BLOSUM62_DEFAULT, &q, &q, 4);
        assert_eq!(aln.score, self_score(&m, &q));
        assert_eq!(aln.ops, vec![EditOp::Aligned(10)]);
        assert_eq!(aln.alignment_len(), 10);
        assert_eq!(aln.gap_columns(), 0);
    }

    #[test]
    fn banded_global_with_deletion() {
        let m = m62();
        let gaps = GapPenalties::BLOSUM62_DEFAULT;
        let q = enc(b"MKVLAAGHWRTEYFND");
        let mut s = q.clone();
        s.drain(8..11);
        let aln = banded_global(&m, gaps, &q, &s, 6);
        let gap_cols = aln.gap_columns();
        assert_eq!(gap_cols, 3);
        // Score = self score of remaining pairs minus gap cost.
        let kept: i32 = self_score(&m, &q)
            - q[8..11].iter().map(|&c| m.score(c, c)).sum::<i32>()
            - gaps.cost(3);
        assert_eq!(aln.score, kept);
    }

    #[test]
    fn banded_global_matches_gapped_score() {
        // The traceback alignment over the gapped hit's rectangle must
        // reproduce the gapped extension's score for a clean homolog pair.
        let m = m62();
        let gaps = GapPenalties::BLOSUM62_DEFAULT;
        let q = enc(b"MKVLAAGHWRTEYFNDCQWHERTYPLKJHGFDSAZXCVBNM");
        let mut s = q.clone();
        s[12] = 0; // one substitution
        s.remove(30); // one deletion
        let hit = gapped_xdrop(&m, gaps, &q, &s, 3, 3, 40, &mut ExtendScratch::new());
        let aln = banded_global(
            &m,
            gaps,
            &q[hit.q_start as usize..hit.q_end as usize],
            &s[hit.s_start as usize..hit.s_end as usize],
            8,
        );
        assert_eq!(aln.score, hit.score);
    }

    #[test]
    fn edit_ops_account_for_all_residues() {
        let m = m62();
        let gaps = GapPenalties::BLOSUM62_DEFAULT;
        let q = enc(b"MKVLAAGHWRTEYF");
        let mut s = q.clone();
        s.insert(5, 7);
        let aln = banded_global(&m, gaps, &q, &s, 5);
        let mut q_used = 0u32;
        let mut s_used = 0u32;
        for op in &aln.ops {
            match op {
                EditOp::Aligned(n) => {
                    q_used += n;
                    s_used += n;
                }
                EditOp::GapInSubject(n) => q_used += n,
                EditOp::GapInQuery(n) => s_used += n,
            }
        }
        assert_eq!(q_used as usize, q.len());
        assert_eq!(s_used as usize, s.len());
    }

    #[test]
    fn sixteen_bit_lanes_hold_the_searches_and_not_the_32_bit_test_cases() {
        let m62 = m62();
        let dna = ScoreMatrix::dna(1, -3);
        let (blastp, blastn) = (
            GapPenalties::BLOSUM62_DEFAULT,
            GapPenalties { open: 5, extend: 2 },
        );
        // The x_drops the searches and the differential tests use.
        for x_drop in 0..=60 {
            assert!(gapped_fits_i16(&m62, blastp, x_drop));
            assert!(gapped_fits_i16(&dna, blastn, x_drop));
        }
        assert!(!gapped_fits_i16(&m62, blastp, 16_000));
        assert!(!gapped_fits_i16(&dna, blastn, 16_000));
        // Rectangles of up to 1 300 residues in all fit; the 32-bit test
        // cases' 2 400 do not.
        assert!(banded_fits_i16(&m62, blastp, 650, 650));
        assert!(!banded_fits_i16(&m62, blastp, 1_200, 1_200));
        assert!(!banded_fits_i16(&dna, blastn, 1_200, 1_200));
    }

    /// `q` with one `(kind, residue)` op per step: substitute, insert,
    /// delete or copy.
    fn homolog(q: &[u8], ops: &[(u8, u8)]) -> Vec<u8> {
        let mut s = Vec::new();
        let mut i = 0;
        for &(kind, residue) in ops {
            if i >= q.len() {
                break;
            }
            match kind {
                0..25 => {
                    s.push(residue);
                    i += 1;
                }
                25..30 => s.push(residue),
                30..35 => i += 1,
                _ => {
                    s.push(q[i]);
                    i += 1;
                }
            }
        }
        s.extend_from_slice(&q[i..]);
        if s.is_empty() {
            s.push(0);
        }
        s
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Both kernels instantiated with the SSE2 lanes, the `[i16; 8]`
        /// lanes and the `[i32; 8]` lanes give equal extensions and
        /// tracebacks.
        #[test]
        fn sse2_and_array_lanes_give_equal_extensions(
            q in proptest::collection::vec(0u8..20, 1..150),
            ops in proptest::collection::vec((0u8..100, 0u8..20), 0..160),
            seed in (proptest::prelude::any::<u16>(), proptest::prelude::any::<u16>()),
            x_drop in 0i32..=60,
            band_pad in 0usize..=64,
        ) {
            use crate::lanes::Array;
            let matrix = m62();
            let gaps = GapPenalties::BLOSUM62_DEFAULT;
            let s = homolog(&q, &ops);
            let at = (u32::from(seed.0) % q.len() as u32, u32::from(seed.1) % s.len() as u32);
            let scratch = &mut ExtendScratch::new();
            let sse2 = gapped_with::<I16x8>(&matrix, gaps, &q, &s, at, x_drop, scratch);
            let narrow = gapped_with::<Array<i16>>(&matrix, gaps, &q, &s, at, x_drop, scratch);
            let wide = gapped_with::<I32x8>(&matrix, gaps, &q, &s, at, x_drop, scratch);
            proptest::prop_assert_eq!(sse2, narrow);
            proptest::prop_assert_eq!(sse2, wide);
            let sse2 = banded_with::<I16x8>(&matrix, gaps, &q, &s, band_pad, scratch);
            let narrow = banded_with::<Array<i16>>(&matrix, gaps, &q, &s, band_pad, scratch);
            let wide = banded_with::<I32x8>(&matrix, gaps, &q, &s, band_pad, scratch);
            proptest::prop_assert_eq!(&sse2, &narrow);
            proptest::prop_assert_eq!(&sse2, &wide);
        }
    }
}
