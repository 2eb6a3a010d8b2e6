// The stamped 16-byte diagonal table the seed scan used before its cells
// became offset-biased, kept verbatim (only `pub` added) as the reference
// for the unit test beside `search::DiagState` and for `seed_scan.rs`.
// Included with `include!`, so it carries no module-level attributes.

/// One diagonal's scan state. Kept as a single 16-byte cell so each seed
/// hit touches one cache line; the seed kernel's four parallel arrays
/// cost up to four lines per hit, and the seed-hit loop is the kernel's
/// hottest path.
#[derive(Clone, Copy, Default)]
pub struct DiagCell {
    stamp: u32,
    last_hit: u32,
    ext_stamp: u32,
    last_ext_end: u32,
}

/// Per-diagonal scan state, stamped to avoid clearing between subjects.
#[derive(Default)]
pub struct DiagState {
    cells: Vec<DiagCell>,
    current: u32,
}

impl DiagState {
    pub fn begin_subject(&mut self, diagonals: usize) {
        if self.cells.len() < diagonals {
            self.cells.resize(diagonals, DiagCell::default());
        }
        self.current = self.current.wrapping_add(1);
        if self.current == 0 {
            // Stamp wrapped: hard reset.
            for cell in &mut self.cells {
                cell.stamp = 0;
                cell.ext_stamp = 0;
            }
            self.current = 1;
        }
    }

    /// Combined per-seed-hit update: a single cell load decides whether the
    /// hit is masked by an earlier ungapped extension on this diagonal,
    /// completes a two-hit pair (return `true` = extend), or merely arms
    /// the diagonal. Folding the extension-mask check and the two-hit
    /// bookkeeping into one call costs one bounds check and one cell load
    /// per seed hit instead of two, and seed hits outnumber every other
    /// kernel event by two orders of magnitude.
    ///
    /// NCBI's two-hit rule: a new hit pairs with the stored one when they
    /// do not overlap (`dist >= word_len`) and fall within the window `A`
    /// (`dist <= window`). An overlapping hit *keeps* the stored position
    /// (so a later hit can still pair with the original); a hit beyond the
    /// window replaces it. A hit masked by a previous extension leaves the
    /// stored pair state untouched.
    /// The body is written branch-free (selects over the loaded cell):
    /// the masked/fresh/overlap outcomes depend on just-loaded data and
    /// mispredict heavily in a branchy formulation, serialising the scan
    /// on the cell load latency. Only the loop-invariant `window == 0`
    /// test remains a branch. Stale cells (stamp from an older subject)
    /// make `dist` garbage, so it uses wrapping arithmetic; `fresh` then
    /// forces the update and vetoes the pair, exactly as the stamped
    /// branchy logic did.
    #[inline]
    pub fn admit_hit(&mut self, d: usize, new_pos: u32, word_len: u32, window: u32) -> bool {
        let current = self.current;
        let cell = &mut self.cells[d];
        let masked = cell.ext_stamp == current && new_pos + word_len <= cell.last_ext_end;
        if window == 0 {
            // Single-hit seeding: every unmasked hit extends.
            cell.stamp = if masked { cell.stamp } else { current };
            cell.last_hit = if masked { cell.last_hit } else { new_pos };
            return !masked;
        }
        let fresh = cell.stamp != current;
        let dist = new_pos.wrapping_sub(cell.last_hit);
        let overlap = dist < word_len;
        // Two-hit pair: stored hit present, non-overlapping, within the
        // window. Overlapping hits keep the stored position (so a later
        // hit can still pair with the original); beyond-window hits
        // restart the pair, completed pairs reset it.
        let pair = !fresh & !overlap & (dist <= window);
        let update = !masked & (fresh | !overlap);
        cell.stamp = if masked { cell.stamp } else { current };
        cell.last_hit = if update { new_pos } else { cell.last_hit };
        !masked & pair
    }

    #[inline]
    pub fn set_extension_end(&mut self, d: usize, end: u32) {
        let cell = &mut self.cells[d];
        cell.ext_stamp = self.current;
        cell.last_ext_end = end;
    }
}
