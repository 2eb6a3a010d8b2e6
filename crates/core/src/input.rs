//! The parallel input stage.
//!
//! pioBLAST's default input is *individual* MPI-IO: each worker issues one
//! ranged read per file region (the paper: "since each worker accesses a
//! single, sequential part of the global files, we use the individual I/O
//! interfaces of MPI-IO in the input phase"). This module also implements
//! the design alternative the paper's §4 discusses — reading the global
//! files *collectively*: every rank participates in one two-phase
//! collective read per shared file, which shines when fragments are fine
//! (many noncontiguous ranges per worker) or the file system punishes
//! small independent reads.
//!
//! Both modes are one function, [`read_fragments`]: the caller hands the
//! rank's [`IoPlane`] and the plane's input class decides how the posted
//! views are serviced. Where reads are collective every rank must call
//! this with the same volume list (the master joins with empty
//! assignments); otherwise — dynamic grants, fault epochs — each rank
//! reads only the volumes it was actually assigned, with no global sync,
//! and where the plane posts reads a volume's three file reads are in
//! flight together.

use blast_core::alphabet::Molecule;
use mpiio::{FileView, IoPlane};
use parafs::StoreError;
use seqfmt::FragmentData;

use std::fmt;

use crate::proto::FragmentAssignment;

/// Why the input stage failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputError {
    /// The requested file range is not covered by the buffered spans.
    Uncovered {
        /// Requested absolute file offset.
        offset: u64,
        /// Requested length in bytes.
        len: u64,
    },
    /// A database file could not be read.
    Store(StoreError),
    /// The read bytes do not form a consistent fragment.
    Fragment(String),
    /// A setup file (alias, query FASTA, volume index) failed to decode.
    Malformed(String),
}

impl fmt::Display for InputError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InputError::Uncovered { offset, len } => {
                write!(
                    f,
                    "range [{offset}, {offset}+{len}) not covered by read spans"
                )
            }
            InputError::Store(e) => write!(f, "database read failed: {e}"),
            InputError::Fragment(msg) => write!(f, "inconsistent fragment: {msg}"),
            InputError::Malformed(msg) => write!(f, "malformed input: {msg}"),
        }
    }
}

impl std::error::Error for InputError {}

impl From<StoreError> for InputError {
    fn from(e: StoreError) -> InputError {
        InputError::Store(e)
    }
}

/// The bytes of a set of disjoint file spans, addressable by absolute
/// file offset.
#[derive(Debug, Clone, Default)]
pub struct RangeBuffers {
    /// Disjoint, sorted `(offset, len)` spans.
    spans: Vec<(u64, u64)>,
    /// Concatenated span bytes, in span order.
    data: Vec<u8>,
}

impl RangeBuffers {
    /// Build from the spans a ranged read used and the bytes it returned
    /// (concatenated in span order).
    pub fn new(spans: Vec<(u64, u64)>, data: Vec<u8>) -> RangeBuffers {
        debug_assert_eq!(
            spans.iter().map(|&(_, l)| l).sum::<u64>(),
            data.len() as u64
        );
        RangeBuffers { spans, data }
    }

    /// The bytes at absolute file range `[offset, offset + len)`.
    ///
    /// The range may straddle several spans as long as they are
    /// contiguous in the file: the bytes of adjacent spans are also
    /// adjacent in the backing buffer, so the view stays a single slice.
    pub fn slice(&self, offset: u64, len: u64) -> Result<&[u8], InputError> {
        let err = || InputError::Uncovered { offset, len };
        let end = offset.checked_add(len).ok_or_else(err)?;
        let mut base = 0u64;
        for (i, &(span_off, span_len)) in self.spans.iter().enumerate() {
            if offset >= span_off && offset < span_off + span_len {
                // Walk forward over file-contiguous spans until the range
                // is covered (or a gap in the file breaks the run).
                let mut covered_to = span_off + span_len;
                for &(next_off, next_len) in &self.spans[i + 1..] {
                    if covered_to >= end || next_off != covered_to {
                        break;
                    }
                    covered_to += next_len;
                }
                if covered_to < end {
                    return Err(err());
                }
                let start = (base + offset - span_off) as usize;
                return Ok(&self.data[start..start + len as usize]);
            }
            base += span_len;
        }
        if len == 0 {
            return Ok(&[]);
        }
        Err(err())
    }
}

/// Merge sorted-or-not, possibly overlapping/adjacent ranges into disjoint
/// sorted spans. All arithmetic is checked: a span whose `offset + len`
/// would overflow `u64` is clamped to end at `u64::MAX` instead of
/// wrapping (and silently swallowing every later span).
pub fn coalesce_spans(mut ranges: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    ranges.retain(|&(_, l)| l > 0);
    ranges.sort_unstable();
    let span_end = |o: u64, l: u64| o.saturating_add(l);
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(ranges.len());
    for (o, l) in ranges {
        match out.last_mut() {
            Some((ro, rl)) if span_end(*ro, *rl) >= o => {
                let end = span_end(o, l).max(span_end(*ro, *rl));
                *rl = end - *ro;
            }
            _ => out.push((o, l.min(u64::MAX - o))),
        }
    }
    out
}

/// Read this rank's assigned fragment ranges of the shared database files
/// through the I/O plane and materialize the fragments.
///
/// Where reads are collective ([`IoPlane::collective_reads`]) every rank
/// must call this with the same `volume_names`, in the same order — it
/// posts one collective read per volume file, and ranks with nothing to
/// read (the master) join with empty views. Otherwise only the volumes
/// with assignments are touched, so any subset of ranks can call at any
/// time.
///
/// Each volume's three files go to the plane as one view set
/// ([`IoPlane::read_views`]), so the plane decides whether their reads
/// overlap or are serviced one after another.
pub fn read_fragments(
    plane: &IoPlane,
    volume_names: &[String],
    assignments: &[FragmentAssignment],
    molecule: Molecule,
) -> Result<Vec<FragmentData>, InputError> {
    // Per (volume index), the buffers of its three files.
    let mut buffers: Vec<[RangeBuffers; 3]> = Vec::with_capacity(volume_names.len());
    for vol in volume_names {
        let mine: Vec<&FragmentAssignment> = assignments
            .iter()
            .filter(|a| a.volume_name == *vol)
            .collect();
        if mine.is_empty() && !plane.collective_reads() {
            // Nothing of ours in this volume, and nobody is waiting for
            // us in a collective — skip the file entirely.
            buffers.push(Default::default());
            continue;
        }
        // Index file: both table slices of every fragment (adjacent
        // fragments share a boundary entry, so spans must be coalesced).
        let idx_spans = coalesce_spans(
            mine.iter()
                .flat_map(|a| [a.spec.idx_seq_range, a.spec.idx_hdr_range])
                .map(|(lo, hi)| (lo, hi - lo))
                .collect(),
        );
        let seq_spans = coalesce_spans(
            mine.iter()
                .map(|a| (a.spec.seq_range.0, a.spec.seq_range.1 - a.spec.seq_range.0))
                .collect(),
        );
        let hdr_spans = coalesce_spans(
            mine.iter()
                .map(|a| (a.spec.hdr_range.0, a.spec.hdr_range.1 - a.spec.hdr_range.0))
                .collect(),
        );
        let mut files = Vec::with_capacity(3);
        for (ext, spans) in [("idx", idx_spans), ("seq", seq_spans), ("hdr", hdr_spans)] {
            let view = FileView::new(0, spans.clone())
                .map_err(|e| InputError::Fragment(format!("bad span set: {e}")))?;
            files.push((format!("db/{vol}.{ext}"), view, spans));
        }
        let views: Vec<(&str, &FileView)> = files.iter().map(|(p, v, _)| (p.as_str(), v)).collect();
        let data = plane.read_views(&views)?;
        let file_buffers: Vec<RangeBuffers> = files
            .into_iter()
            .zip(data)
            .map(|((_, _, spans), d)| RangeBuffers::new(spans, d))
            .collect();
        buffers.push(file_buffers.try_into().expect("three files"));
    }

    // Materialize this rank's fragments from the buffered spans.
    assignments
        .iter()
        .map(|a| {
            let vi = volume_names
                .iter()
                .position(|v| *v == a.volume_name)
                .ok_or_else(|| {
                    InputError::Fragment(format!("volume {} not in the alias", a.volume_name))
                })?;
            let [idx, seq, hdr] = &buffers[vi];
            let spec = &a.spec;
            FragmentData::from_ranges(
                molecule,
                spec.base_oid,
                idx.slice(
                    spec.idx_seq_range.0,
                    spec.idx_seq_range.1 - spec.idx_seq_range.0,
                )?,
                idx.slice(
                    spec.idx_hdr_range.0,
                    spec.idx_hdr_range.1 - spec.idx_hdr_range.0,
                )?,
                seq.slice(spec.seq_range.0, spec.seq_range.1 - spec.seq_range.0)?
                    .to_vec(),
                hdr.slice(spec.hdr_range.0, spec.hdr_range.1 - spec.hdr_range.0)?
                    .to_vec(),
            )
            .map_err(|e| InputError::Fragment(e.to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce_merges_overlaps_and_adjacency() {
        assert_eq!(
            coalesce_spans(vec![(10, 5), (0, 5), (5, 5), (30, 2)]),
            vec![(0, 15), (30, 2)]
        );
        // Overlapping boundary entries (the shared index-table entry).
        assert_eq!(coalesce_spans(vec![(0, 16), (8, 16)]), vec![(0, 24)]);
        assert_eq!(coalesce_spans(vec![(4, 0), (2, 1)]), vec![(2, 1)]);
        assert!(coalesce_spans(vec![]).is_empty());
    }

    #[test]
    fn coalesce_clamps_overflowing_spans() {
        // `offset + len` past u64::MAX must not wrap (which would make the
        // span swallow every later one); it clamps to end at u64::MAX.
        assert_eq!(
            coalesce_spans(vec![(u64::MAX - 4, 10), (0, 1)]),
            vec![(0, 1), (u64::MAX - 4, 4)]
        );
        assert_eq!(
            coalesce_spans(vec![(u64::MAX - 8, 4), (u64::MAX - 4, 10)]),
            vec![(u64::MAX - 8, 8)]
        );
    }

    #[test]
    fn range_buffers_slice_by_absolute_offset() {
        let spans = vec![(10u64, 4u64), (20, 6)];
        let data = vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        let rb = RangeBuffers::new(spans, data);
        assert_eq!(rb.slice(10, 4).unwrap(), &[1, 2, 3, 4]);
        assert_eq!(rb.slice(11, 2).unwrap(), &[2, 3]);
        assert_eq!(rb.slice(20, 6).unwrap(), &[5, 6, 7, 8, 9, 10]);
        assert_eq!(rb.slice(23, 1).unwrap(), &[8]);
    }

    #[test]
    fn slice_straddles_file_contiguous_spans() {
        // Spans (0,4) and (4,6) touch in the file, so their bytes are
        // adjacent in the buffer and a straddling range is one slice.
        let rb = RangeBuffers::new(
            vec![(0, 4), (4, 6), (20, 2)],
            vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
        );
        assert_eq!(rb.slice(2, 5).unwrap(), &[2, 3, 4, 5, 6]);
        assert_eq!(rb.slice(0, 10).unwrap(), &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        // A gap in the file breaks the run even though the buffer bytes
        // happen to be adjacent.
        assert_eq!(
            rb.slice(8, 14),
            Err(InputError::Uncovered { offset: 8, len: 14 })
        );
    }

    #[test]
    fn uncovered_slice_is_a_typed_error() {
        let rb = RangeBuffers::new(vec![(0, 4)], vec![0, 1, 2, 3]);
        assert_eq!(
            rb.slice(2, 5),
            Err(InputError::Uncovered { offset: 2, len: 5 })
        );
        assert_eq!(
            rb.slice(10, 1),
            Err(InputError::Uncovered { offset: 10, len: 1 })
        );
        assert!(rb
            .slice(u64::MAX, 2)
            .unwrap_err()
            .to_string()
            .contains("not covered"));
    }

    #[test]
    fn store_errors_convert_into_input_errors() {
        let e: InputError = StoreError::NotFound {
            path: "db/x.idx".into(),
        }
        .into();
        assert!(e.to_string().contains("database read failed"));
    }
}
