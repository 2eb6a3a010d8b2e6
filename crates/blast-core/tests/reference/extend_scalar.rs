// The scalar gapped X-drop and banded-traceback kernels the extension
// DPs ran before they became eight-lane kernels (with the out-of-band fix
// of the gapped rows), kept verbatim as the reference for
// `tests/extend_lanes.rs`. The scratch they shared keeps its fields and
// constructor; its doc comment and `heap_bytes` did not come along.
// Included with `include!`, so it carries no module-level attributes.

use blast_core::extend::{Alignment, EditOp, GappedHit};
use blast_core::karlin::GapPenalties;
use blast_core::matrix::ScoreMatrix;

/// The scalar kernels' DP and traceback buffers.
#[derive(Debug, Default)]
pub struct ExtendScratch {
    // Gapped X-drop half-extension rows. Each cell interleaves the
    // match/mismatch and gap-in-subject states as `[m, f]` so the DP
    // inner loop streams one array per row instead of two.
    prev: Vec<[i32; 2]>,
    cur: Vec<[i32; 2]>,
    // Reversed prefixes for the leftward half-extension.
    q_rev: Vec<u8>,
    s_rev: Vec<u8>,
    // Banded-Gotoh traceback: two rolling `[m, e, f]` score rows and one
    // direction byte per in-band cell.
    tb_prev: Vec<[i32; 3]>,
    tb_cur: Vec<[i32; 3]>,
    tb_dirs: Vec<u8>,
}

impl ExtendScratch {
    /// Fresh, empty scratch. Buffers grow on first use.
    pub fn new() -> ExtendScratch {
        ExtendScratch::default()
    }
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

/// Gapped X-drop extension (Zhang/Schwartz/Miller, as in NCBI's
/// `s_BlastGappedExtension`): extend left and right from a seed pair
/// `(q_seed, s_seed)`, each half an adaptive-band affine-gap DP that prunes
/// cells more than `x_drop` below the best score seen so far.
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
    let seed_score = matrix.score(query[q_seed as usize], subject[s_seed as usize]);
    let ExtendScratch {
        prev,
        cur,
        q_rev,
        s_rev,
        ..
    } = scratch;
    let right = half_extension(
        matrix,
        gaps,
        &query[q_seed as usize + 1..],
        &subject[s_seed as usize + 1..],
        x_drop,
        (prev, cur),
    );
    let left = {
        q_rev.clear();
        q_rev.extend(query[..q_seed as usize].iter().rev().copied());
        s_rev.clear();
        s_rev.extend(subject[..s_seed as usize].iter().rev().copied());
        half_extension(matrix, gaps, q_rev, s_rev, x_drop, (prev, cur))
    };
    GappedHit {
        q_start: q_seed - left.q_ext,
        q_end: q_seed + 1 + right.q_ext,
        s_start: s_seed - left.s_ext,
        s_end: s_seed + 1 + right.s_ext,
        score: seed_score + left.score + right.score,
    }
}

/// One direction of the gapped X-drop DP.
///
/// Aligns prefixes of `q` and `s`, both starting at offset 0, where the
/// empty extension scores 0. Row `i` covers query residue `i−1`; the band
/// `[lo, hi)` of subject columns alive in a row shrinks as cells drop
/// `x_drop` below the running best.
fn half_extension(
    matrix: &ScoreMatrix,
    gaps: GapPenalties,
    q: &[u8],
    s: &[u8],
    x_drop: i32,
    rows: (&mut Vec<[i32; 2]>, &mut Vec<[i32; 2]>),
) -> GappedHalf {
    const NEG: i32 = i32::MIN / 4;
    if q.is_empty() || s.is_empty() {
        // A pure gap extension can never help (gap costs are positive).
        return GappedHalf {
            score: 0,
            q_ext: 0,
            s_ext: 0,
        };
    }
    let open_ext = gaps.open + gaps.extend;

    let width = s.len() + 1;
    // Each cell holds `[m, f]`: m = best score ending at (i, j) in any
    // state; f = best ending in a gap-in-subject (vertical) state. The
    // horizontal gap state e is carried along the row in a register. The
    // rows are caller-owned scratch, re-initialised to exactly the state
    // a fresh allocation would have.
    let (prev, cur) = rows;
    reset_row(prev, width, [NEG, NEG]);
    reset_row(cur, width, [NEG, NEG]);

    let mut best = 0i32;
    let mut best_q = 0u32;
    let mut best_s = 0u32;

    // Row 0: leading gaps in the subject direction.
    prev[0] = [0, NEG];
    let mut lo = 0usize;
    let mut hi = 1usize; // exclusive upper bound of alive columns in row 0
    for (j, slot) in prev.iter_mut().enumerate().take(width).skip(1) {
        let sc = -gaps.cost(j as i32);
        if best - sc > x_drop {
            break;
        }
        slot[0] = sc;
        hi = j + 1;
    }

    // The inner loop below is the kernel's single hottest piece of code on
    // redundant (nr-style) databases: each gapped extension sweeps tens of
    // thousands of band cells. It is written branch-free — every per-cell
    // decision is a `max`/select that compiles to cmov — because the alive
    // /dead and best-update outcomes flip unpredictably at band edges and
    // mispredictions dominate a branchy formulation.
    //
    // Two formulation changes keep it select-only without changing any
    // result. First, `f`, `diag`, and `e` are computed unconditionally
    // from the stored rows rather than guarded by `== NEG` tests: a value
    // derived from a dead (`NEG`) cell stays within a few tens of
    // thousands of `NEG` (gap costs and matrix scores are tiny against
    // `i32::MIN / 4`), so it loses every `max` against an alive path and
    // fails `best - m <= x_drop` for any reachable `best`. Second, the
    // dead-cell *stores* still write the exact `NEG` sentinel via a
    // select, because the band prune is sticky — a barely-dead score (as
    // opposed to a hugely negative one) written back would revive pruned
    // paths through the next row's diagonal. The row-carried horizontal
    // state `e` may exceed its branchy counterpart after a dead cell
    // (`m - open_ext` with `m` just below the threshold), but such a
    // value is itself below `best - x_drop` and decays monotonically, so
    // it can never decide an alive cell's value either.
    let gext = gaps.extend;
    for i in 1..=q.len() {
        let qc = q[i - 1];
        let row_entry_best = best;
        let mut e = NEG; // horizontal gap state within this row
        let mut new_lo = usize::MAX;
        let mut new_hi = lo;
        // Column range: can extend one beyond the previous row's band.
        let col_end = (hi + 1).min(width);
        // The next row reads this one at `lo - 1` (its first cell's
        // diagonal, when its band starts where this one does) and at
        // `col_end` (its new column's vertical neighbour). This buffer
        // last held row `i - 2`, whose band may have covered either, so
        // both are made dead here.
        if col_end < width {
            cur[col_end] = [NEG, NEG];
        }
        if lo > 0 {
            cur[lo - 1] = [NEG, NEG];
        }

        // Column 0 has no diagonal predecessor and consumes no subject
        // residue; peel it so the main loop can index `s[j - 1]` safely.
        let mut start = lo;
        let mut prev_m; // carries prev[j - 1]'s m across iterations
        if lo == 0 {
            let [mp, fp] = prev[0];
            let f = (mp - open_ext).max(fp - gext);
            let m = e.max(f);
            let alive = best - m <= x_drop;
            // Dead cells must store the exact `NEG` sentinel: the band
            // prune is sticky, and a barely-dead score leaking into the
            // next row's diagonal would revive pruned paths.
            cur[0] = if alive { [m, f] } else { [NEG, NEG] };
            new_lo = if alive { 0 } else { new_lo };
            new_hi = if alive { 1 } else { new_hi };
            e = (m - open_ext).max(e - gext);
            prev_m = mp;
            start = 1;
        } else {
            prev_m = prev[lo - 1][0];
        }

        if start < col_end {
            let prev_row = &prev[start..col_end];
            let cur_row = &mut cur[start..col_end];
            let s_row = &s[start - 1..col_end - 1];
            for (idx, (c, (&[mp, fp], &sc))) in cur_row
                .iter_mut()
                .zip(prev_row.iter().zip(s_row.iter()))
                .enumerate()
            {
                let j = start + idx;
                // Vertical: gap in subject (consume query residue).
                let f = (mp - open_ext).max(fp - gext);
                // Diagonal: match/mismatch.
                let diag = prev_m + matrix.score(qc, sc);
                prev_m = mp;
                let m = diag.max(e).max(f);
                let alive = best - m <= x_drop;
                // Sticky prune: dead cells store the exact `NEG` sentinel
                // (see the column-0 peel above).
                *c = if alive { [m, f] } else { [NEG, NEG] };
                new_lo = if alive { new_lo.min(j) } else { new_lo };
                new_hi = if alive { j + 1 } else { new_hi };
                let better = m > best;
                best = if better { m } else { best };
                best_s = if better { j as u32 } else { best_s };
                // Horizontal gap for the next column.
                e = (m - open_ext).max(e - gext);
            }
        }
        // `best_q` moves only when this row improved the best score; one
        // per-row check keeps a register (and a select) out of the cell
        // loop above.
        if best > row_entry_best {
            best_q = i as u32;
        }
        if new_lo == usize::MAX {
            break; // entire row pruned: extension is finished
        }
        lo = new_lo;
        hi = new_hi;
        std::mem::swap(prev, cur);
    }

    GappedHalf {
        score: best,
        q_ext: best_q,
        s_ext: best_s,
    }
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
/// a row's band sees `NEG` exactly as an unwritten matrix cell would, so
/// scores and edit scripts are those of the dense formulation (kept as
/// the reference in `tests/traceback.rs`).
pub fn banded_global_into(
    matrix: &ScoreMatrix,
    gaps: GapPenalties,
    query: &[u8],
    subject: &[u8],
    band_pad: usize,
    scratch: &mut ExtendScratch,
) -> Alignment {
    const NEG: i32 = i32::MIN / 4;
    // One DP cell: `[m, e, f]` = best score ending in a residue pair, a
    // gap in the query (horizontal), a gap in the subject (vertical).
    const DEAD: [i32; 3] = [NEG; 3];
    // Direction byte: bits 0-1 hold the state (`M`/`E`/`F`) the cell's
    // `m` came from, `E_OPEN`/`F_OPEN` say its `e`/`f` opened its gap.
    const M: u8 = 0;
    const E: u8 = 1;
    const F: u8 = 2;
    const E_OPEN: u8 = 4;
    const F_OPEN: u8 = 8;

    let n = query.len();
    let m = subject.len();
    assert!(n > 0 && m > 0, "banded_global needs non-empty ranges");

    // Band half-width: diagonal drift plus padding. Row i (0..=n) keeps
    // columns `lo(i)..=hi(i)`; both ends are non-decreasing in `i`.
    let half = n.abs_diff(m).saturating_add(band_pad.max(1));
    let band = |i: usize| -> (usize, usize) {
        let center = i * m / n;
        (
            center.saturating_sub(half),
            center.saturating_add(half).min(m),
        )
    };
    let width = half.saturating_mul(2).saturating_add(1).min(m + 1);
    let extend = gaps.extend;
    let open_ext = gaps.open + gaps.extend;

    let ExtendScratch {
        tb_prev: prev,
        tb_cur: cur,
        tb_dirs: dirs,
        ..
    } = scratch;
    // The rows are indexed by absolute column and start all-dead; the
    // direction bytes need no reset because the fill below writes every
    // in-band cell and the traceback never leaves the band.
    reset_row(prev, m + 1, DEAD);
    reset_row(cur, m + 1, DEAD);
    if dirs.len() < (n + 1) * width {
        dirs.resize((n + 1) * width, 0);
    }

    // Row 0: a leading gap in the query, opened at column 1.
    prev[0] = [0, NEG, NEG];
    for j in 1..=band(0).1 {
        dirs[j] = if j == 1 { E_OPEN } else { 0 };
        prev[j] = [NEG, -gaps.cost(j as i32), NEG];
    }
    for i in 1..=n {
        let (lo, hi) = band(i);
        let dir_row = &mut dirs[i * width..(i + 1) * width];
        if lo == 0 {
            // Column 0: a leading gap in the subject, opened at row 1.
            dir_row[0] = if i == 1 { F_OPEN } else { 0 };
            cur[0] = [NEG, NEG, -gaps.cost(i as i32)];
        } else {
            // The cell left of the band is out of band for this row and
            // for the next one's diagonal; this buffer last held row
            // i-2, whose band may have covered it.
            cur[lo - 1] = DEAD;
        }
        let first = lo.max(1);
        let qc = query[i - 1];
        let (mut diag, mut left) = (prev[first - 1], cur[first - 1]);
        // Every cell is computed unconditionally. A value derived from a
        // dead cell stays within `n * max|score|` of `NEG`, so it loses
        // every `max` against a reachable score and never equals one: it
        // cannot decide a cell the traceback visits. Ties: `M`, then `E`,
        // then `F` for the diagonal; opening a gap over extending one.
        let cells = cur[first..=hi]
            .iter_mut()
            .zip(&prev[first..=hi])
            .zip(&subject[first - 1..hi])
            .zip(&mut dir_row[first - lo..=hi - lo]);
        for (((cell, &up), &sc), dir) in cells {
            let from = diag[0].max(diag[1]).max(diag[2]);
            let mv = from + matrix.score(qc, sc);
            let m_from = u8::from(from != diag[0]) + u8::from(from != diag[0] && from != diag[1]);
            let (f_opened, f_extended) = (up[0] - open_ext, up[2] - extend);
            let fv = f_opened.max(f_extended);
            let f_open = if f_opened >= f_extended { F_OPEN } else { 0 };
            let (e_opened, e_extended) = (left[0] - open_ext, left[1] - extend);
            let ev = e_opened.max(e_extended);
            let e_open = if e_opened >= e_extended { E_OPEN } else { 0 };
            *dir = m_from | e_open | f_open;
            *cell = [mv, ev, fv];
            diag = up;
            left = *cell;
        }
        std::mem::swap(prev, cur);
    }

    // Traceback from (n, m), choosing the best of the three states.
    let [end_m, end_e, end_f] = prev[m];
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
        let dir = dirs[i * width + (j - band(i).0)];
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
