//! Offset–length run lists: the flattened, sorted list Thakur et al.
//! build data sieving and two-phase I/O on. Every layer that turns
//! regions into file-system operations merges, cuts and slices its
//! list here, so a run list comes out the same whoever asked for it.
//!
//! Bytes ride as shared [`Bytes`] views: cutting a payload into pieces,
//! joining pieces into a write's [`Run`], holding a read's runs and
//! handing a range out of them copy nothing.

use bytes::Bytes;
pub use parafs::Run;

/// Merge `(offset, len)` ranges — in any order, overlapping, empty —
/// into sorted, disjoint runs: overlapping and adjacent ranges join,
/// and so do ranges separated by a hole of at most `max_hole` bytes.
/// A range that would end past `u64::MAX` is clamped to end there.
pub fn merge(mut ranges: Vec<(u64, u64)>, max_hole: u64) -> Vec<(u64, u64)> {
    for (o, l) in &mut ranges {
        *l = (*l).min(u64::MAX - *o);
    }
    let extend = |run: &mut u64, at: u64, l: u64| *run = (*run).max(at + l);
    merge_by(ranges, max_hole, |&l| l, extend)
}

/// [`merge`] with `max_hole = 0` over pieces that carry their bytes (a
/// hole has none to bridge it with). Where pieces overlap, the one that
/// starts later wins — of two that start together, the later in the
/// input — as it would had they been written in offset order. A run
/// keeps its pieces as they are: joining them copies nothing, and the
/// file system lays them down in that order.
pub fn merge_bytes<P: Into<Run>>(pieces: Vec<(u64, P)>) -> Vec<(u64, Run)> {
    let pieces = pieces.into_iter().map(|(o, d)| (o, d.into())).collect();
    merge_by(pieces, 0, Run::len, |run: &mut Run, at, piece| {
        run.join(at, piece)
    })
}

/// The one walk: sort by offset, then fold each piece into the run
/// before it when it starts at most `max_hole` bytes past that run's
/// end. `join(run, at, piece)` absorbs a piece starting `at` bytes into
/// the run (`at` is at most the run's length plus `max_hole`).
fn merge_by<T>(
    mut pieces: Vec<(u64, T)>,
    max_hole: u64,
    len: impl Fn(&T) -> u64,
    join: impl Fn(&mut T, u64, T),
) -> Vec<(u64, T)> {
    pieces.retain(|(_, p)| len(p) > 0);
    pieces.sort_by_key(|&(o, _)| o);
    let mut out: Vec<(u64, T)> = Vec::new();
    for (o, piece) in pieces {
        match out.last_mut() {
            Some((ro, run)) if o.saturating_sub(ro.saturating_add(len(run))) <= max_hole => {
                join(run, o - *ro, piece)
            }
            _ => out.push((o, piece)),
        }
    }
    out
}

/// Cut `payload` — the bytes of `regions`, concatenated in order — into
/// one `(offset, bytes)` piece per region, each a view of `payload`. A
/// payload that runs out early leaves the last pieces short rather than
/// panicking.
pub fn pieces(regions: impl IntoIterator<Item = (u64, u64)>, payload: &Bytes) -> Vec<(u64, Bytes)> {
    let mut at = 0usize;
    let cut = |(o, l): (u64, u64)| {
        let end = payload.len().min(at.saturating_add(l as usize));
        let piece = payload.slice(at..end);
        at = end;
        (o, piece)
    };
    regions.into_iter().map(cut).collect()
}

/// [`pieces`] for a write's payload, which may itself be several
/// pieces: one run per region, each views of the payload's pieces.
pub fn cut(regions: impl IntoIterator<Item = (u64, u64)>, payload: &Run) -> Vec<(u64, Run)> {
    let mut at = 0u64;
    let cut = |(o, l): (u64, u64)| {
        let run = payload.slice(at, l);
        at += run.len();
        (o, run)
    };
    regions.into_iter().map(cut).collect()
}

/// The bytes of a sorted, disjoint run list, addressable by absolute
/// file offset.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cover {
    runs: Vec<(u64, Bytes)>,
}

impl Cover {
    /// Wrap `runs`, which must be sorted by offset and disjoint — what
    /// [`merge`]d reads and a view's [`pieces`] are.
    pub fn new(runs: Vec<(u64, Bytes)>) -> Cover {
        debug_assert!(runs
            .windows(2)
            .all(|w| w[0].0 + w[0].1.len() as u64 <= w[1].0));
        Cover { runs }
    }

    /// The bytes at `[offset, offset + len)` as a view sharing the run's
    /// buffer, or `None` unless one run holds all of them (an empty range
    /// is held anywhere).
    pub fn slice(&self, offset: u64, len: u64) -> Option<Bytes> {
        if len == 0 {
            return Some(Bytes::new());
        }
        let at = self.runs.partition_point(|(o, _)| *o <= offset);
        let (o, bytes) = self.runs.get(at.checked_sub(1)?)?;
        let start = usize::try_from(offset - o).ok()?;
        let end = start.checked_add(usize::try_from(len).ok()?)?;
        (end <= bytes.len()).then(|| bytes.slice(start..end))
    }
}
