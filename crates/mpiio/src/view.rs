//! MPI-IO file views: the noncontiguous file regions one rank will access.

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
        let mut prev_end = 0u64;
        let mut first = true;
        for &(off, len) in &regions {
            if len == 0 {
                return Err(ViewError::EmptyRegion);
            }
            let end = off.checked_add(len).ok_or(ViewError::Overflow)?;
            displacement.checked_add(end).ok_or(ViewError::Overflow)?;
            if !first && off < prev_end {
                return Err(ViewError::Unsorted);
            }
            prev_end = end;
            first = false;
        }
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

    /// Inverse of [`FileView::encode`].
    pub fn decode(buf: &[u8]) -> Option<FileView> {
        let u64_at = |b: &[u8]| Some(u64::from_le_bytes(b.try_into().ok()?));
        let (head, body) = buf.split_first_chunk::<12>()?;
        let n = u32::from_le_bytes(head[8..].try_into().ok()?) as usize;
        if body.len() != n.checked_mul(16)? {
            return None;
        }
        let regions = body
            .chunks_exact(16)
            .map(|c| Some((u64_at(&c[..8])?, u64_at(&c[8..])?)))
            .collect::<Option<Vec<_>>>()?;
        FileView::new(u64_at(&head[..8])?, regions).ok()
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
        assert!(FileView::decode(b"short").is_none());
        let mut bad = FileView::contiguous(0, 5).encode();
        bad.pop();
        assert!(FileView::decode(&bad).is_none());
    }

    #[test]
    fn contiguous_of_zero_len_is_empty() {
        let v = FileView::contiguous(10, 0);
        assert_eq!(v.total_bytes(), 0);
        assert_eq!(v.min_offset(), None);
    }
}
