//! MPI-IO file views: the noncontiguous file regions one rank will access.

use parafs::StoreError;

/// A file view: a displacement plus an ordered list of `(offset, len)`
/// regions relative to it. Mirrors `MPI_File_set_view` with an indexed
/// filetype — exactly what pioBLAST builds so scattered result records
/// land at master-assigned offsets in the shared output file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FileView {
    /// Base file offset added to every region.
    pub displacement: u64,
    /// Regions relative to `displacement`, sorted, non-overlapping,
    /// zero-length entries forbidden.
    pub regions: Vec<(u64, u64)>,
}

/// Errors constructing a view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewError {
    /// Regions are not sorted or overlap.
    Unsorted,
    /// A region has zero length.
    EmptyRegion,
    /// Offsets overflow u64.
    Overflow,
}

impl std::fmt::Display for ViewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViewError::Unsorted => write!(f, "view regions must be sorted and disjoint"),
            ViewError::EmptyRegion => write!(f, "view regions must be non-empty"),
            ViewError::Overflow => write!(f, "view offsets overflow"),
        }
    }
}

impl std::error::Error for ViewError {}

impl FileView {
    /// A view of one contiguous range.
    pub fn contiguous(offset: u64, len: u64) -> FileView {
        FileView {
            displacement: 0,
            regions: if len == 0 {
                Vec::new()
            } else {
                vec![(offset, len)]
            },
        }
    }

    /// Build and validate a view.
    pub fn new(displacement: u64, regions: Vec<(u64, u64)>) -> Result<FileView, ViewError> {
        check(displacement, regions.iter().copied())?;
        Ok(FileView {
            displacement,
            regions,
        })
    }

    /// Total bytes covered.
    pub fn total_bytes(&self) -> u64 {
        self.regions.iter().map(|&(_, l)| l).sum()
    }

    /// Iterate absolute `(file_offset, len)` regions.
    pub fn absolute(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.regions
            .iter()
            .map(move |&(o, l)| (self.displacement + o, l))
    }

    /// Lowest absolute offset touched (`None` for an empty view).
    pub fn min_offset(&self) -> Option<u64> {
        self.regions.first().map(|&(o, _)| self.displacement + o)
    }

    /// One past the highest absolute offset touched.
    pub fn max_offset(&self) -> Option<u64> {
        self.regions.last().map(|&(o, l)| self.displacement + o + l)
    }

    /// Serialize for the collective-I/O metadata exchange.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + 16 * self.regions.len());
        out.extend_from_slice(&self.displacement.to_le_bytes());
        out.extend_from_slice(&(self.regions.len() as u32).to_le_bytes());
        for &(o, l) in &self.regions {
            out.extend_from_slice(&o.to_le_bytes());
            out.extend_from_slice(&l.to_le_bytes());
        }
        out
    }

    /// Inverse of [`FileView::encode`]. Bytes that are not exactly one
    /// valid encoding — truncated, overlong, or holding regions
    /// [`FileView::new`] would refuse — are [`StoreError::Corrupt`].
    pub fn decode(buf: &[u8]) -> Result<FileView, StoreError> {
        let frame = ViewFrame::parse(buf).ok_or_else(|| StoreError::Corrupt {
            what: format!("file view: {} bytes are not one valid encoding", buf.len()),
        })?;
        Ok(FileView {
            displacement: frame.displacement,
            regions: frame.regions.iter().map(region).collect(),
        })
    }
}

/// What [`FileView::new`] requires of `regions`: each non-empty, sorted
/// and disjoint, and no end overflowing once displaced.
fn check(displacement: u64, regions: impl Iterator<Item = (u64, u64)>) -> Result<(), ViewError> {
    let mut prev_end = None;
    for (off, len) in regions {
        if len == 0 {
            return Err(ViewError::EmptyRegion);
        }
        let end = off.checked_add(len).ok_or(ViewError::Overflow)?;
        displacement.checked_add(end).ok_or(ViewError::Overflow)?;
        if prev_end.is_some_and(|prev| off < prev) {
            return Err(ViewError::Unsorted);
        }
        prev_end = Some(end);
    }
    Ok(())
}

/// An encoded region, `[offset u64][len u64]`.
fn region(r: &[u8; 16]) -> (u64, u64) {
    let word = |at: usize| u64::from_le_bytes(std::array::from_fn(|j| r[at + j]));
    (word(0), word(8))
}

/// A [`FileView`] read in place from its [`FileView::encode`]d bytes —
/// `[displacement u64][count u32]` then `count` regions — validated as
/// [`FileView::new`] validates, without decoding the regions into a
/// list. Regions are fixed-width, so any one of them is read directly.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ViewFrame<'a> {
    displacement: u64,
    regions: &'a [[u8; 16]],
}

impl<'a> ViewFrame<'a> {
    /// `buf` as an encoded view, if it is exactly one valid encoding.
    pub(crate) fn parse(buf: &'a [u8]) -> Option<ViewFrame<'a>> {
        let frame = ViewFrame::read(buf)?;
        check(frame.displacement, frame.regions.iter().map(region)).ok()?;
        Some(frame)
    }

    /// `buf` as an encoded view if its length is what its count says —
    /// no region looked at, so only for bytes [`ViewFrame::parse`] has
    /// already accepted.
    pub(crate) fn read(buf: &'a [u8]) -> Option<ViewFrame<'a>> {
        let (head, body) = buf.split_first_chunk::<12>()?;
        let (displacement, count) = head.split_first_chunk::<8>()?;
        let count = u32::from_le_bytes(count.try_into().ok()?) as usize;
        let (regions, rest) = body.as_chunks::<16>();
        (regions.len() == count && rest.is_empty()).then(|| ViewFrame {
            displacement: u64::from_le_bytes(*displacement),
            regions,
        })
    }

    /// A region at its absolute file offset.
    fn displaced(&self, r: &[u8; 16]) -> (u64, u64) {
        let (o, l) = region(r);
        (self.displacement + o, l)
    }

    /// Lowest absolute offset touched (`None` for an empty view).
    pub(crate) fn min_offset(&self) -> Option<u64> {
        self.regions.first().map(|r| self.displaced(r).0)
    }

    /// One past the highest absolute offset touched.
    pub(crate) fn max_offset(&self) -> Option<u64> {
        let (o, l) = self.displaced(self.regions.last()?);
        Some(o + l)
    }

    /// The regions that reach into `[lo, hi)`, clipped to it, in order:
    /// a binary search for the first, then a walk while they start
    /// below `hi`.
    pub(crate) fn clipped(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let first = self.regions.partition_point(|r| {
            let (o, l) = self.displaced(r);
            o + l <= lo
        });
        self.regions[first..]
            .iter()
            .map(|r| self.displaced(r))
            .take_while(move |&(o, _)| o < hi)
            .map(move |(o, l)| {
                let (from, to) = (o.max(lo), (o + l).min(hi));
                (from, to - from)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_views() {
        assert_eq!(
            FileView::new(0, vec![(0, 0)]).unwrap_err(),
            ViewError::EmptyRegion
        );
        assert_eq!(
            FileView::new(0, vec![(10, 5), (12, 5)]).unwrap_err(),
            ViewError::Unsorted
        );
        assert_eq!(
            FileView::new(1, vec![(u64::MAX - 1, 2)]).unwrap_err(),
            ViewError::Overflow
        );
    }

    #[test]
    fn adjacent_regions_are_allowed() {
        let v = FileView::new(100, vec![(0, 5), (5, 5), (20, 1)]).unwrap();
        assert_eq!(v.total_bytes(), 11);
        assert_eq!(v.min_offset(), Some(100));
        assert_eq!(v.max_offset(), Some(121));
        let abs: Vec<_> = v.absolute().collect();
        assert_eq!(abs, vec![(100, 5), (105, 5), (120, 1)]);
    }

    #[test]
    fn encode_decode_round_trip() {
        let v = FileView::new(7, vec![(0, 3), (10, 20)]).unwrap();
        assert_eq!(FileView::decode(&v.encode()).unwrap(), v);
        let empty = FileView::new(0, vec![]).unwrap();
        assert_eq!(FileView::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(FileView::decode(b"short").is_err());
        let mut bad = FileView::contiguous(0, 5).encode();
        bad.pop();
        assert!(FileView::decode(&bad).is_err());
    }

    #[test]
    fn contiguous_of_zero_len_is_empty() {
        let v = FileView::contiguous(10, 0);
        assert_eq!(v.total_bytes(), 0);
        assert_eq!(v.min_offset(), None);
    }
}
