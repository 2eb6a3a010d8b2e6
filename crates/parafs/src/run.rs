//! The bytes of one write, as pieces.
//!
//! A writer's bytes often sit in several buffers: scattered records
//! handed over back to back, a domain gathered from several ranks'
//! chunks, a drain reassembled from stripe chunks. A [`Run`] carries
//! those buffers themselves rather than a copy joining them: the store
//! keeps each piece as its own extent, and the write is still one
//! file-system operation with the same bytes.

use bytes::Bytes;

/// The bytes of one contiguous write: shared [`Bytes`] pieces, each at
/// its offset into the run, laid down in order — where two overlap, the
/// later one wins. Every piece starts at or before the end of the ones
/// before it, so the pieces cover the run with no hole. A run of one
/// piece is the common case, not a second kind.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Run {
    len: u64,
    parts: Vec<(u64, Bytes)>,
}

impl Run {
    /// Length in bytes: the end of the piece that reaches furthest.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the run holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The pieces, each at its offset into the run, in the order they
    /// are laid down.
    pub fn parts(&self) -> &[(u64, Bytes)] {
        &self.parts
    }

    /// Lay `piece` down `at` bytes into the run, over whatever it
    /// overlaps. `at` must not be past the run's end: a run has no holes.
    /// An empty piece adds nothing.
    pub fn push(&mut self, at: u64, piece: Bytes) {
        debug_assert!(
            at <= self.len,
            "a piece at {at} leaves a hole in a {}-byte run",
            self.len
        );
        if piece.is_empty() {
            return;
        }
        self.len = self.len.max(at + piece.len() as u64);
        self.parts.push((at, piece));
    }

    /// Lay every piece of `other` down `at` bytes into this run, in its
    /// own order.
    pub fn join(&mut self, at: u64, other: Run) {
        debug_assert!(
            at <= self.len,
            "a run at {at} leaves a hole in a {}-byte run",
            self.len
        );
        self.len = self.len.max(at + other.len);
        self.parts
            .extend(other.parts.into_iter().map(|(o, d)| (at + o, d)));
    }

    /// The bytes at `[at, at + len)` of the run (clipped to its end), as
    /// views of the pieces that hold them, in the same order.
    pub fn slice(&self, at: u64, len: u64) -> Run {
        let end = at.saturating_add(len).min(self.len);
        let mut out = Run {
            len: end.saturating_sub(at),
            parts: Vec::new(),
        };
        for (o, d) in &self.parts {
            let (lo, hi) = ((*o).max(at), (o + d.len() as u64).min(end));
            if lo < hi {
                let piece = d.slice((lo - o) as usize..(hi - o) as usize);
                out.parts.push((lo - at, piece));
            }
        }
        out
    }

    /// Lay the run down into `out`, which must be exactly as long.
    pub fn copy_to(&self, out: &mut [u8]) {
        debug_assert_eq!(out.len() as u64, self.len);
        for (o, d) in &self.parts {
            out[*o as usize..][..d.len()].copy_from_slice(d);
        }
    }

    /// The run's bytes, copied into one buffer.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len as usize];
        self.copy_to(&mut out);
        out
    }

    /// The pieces, each at its offset into the run, in laying order.
    pub(crate) fn into_parts(self) -> Vec<(u64, Bytes)> {
        self.parts
    }
}

impl From<Bytes> for Run {
    fn from(d: Bytes) -> Run {
        let mut run = Run::default();
        run.push(0, d);
        run
    }
}

impl From<Vec<u8>> for Run {
    fn from(d: Vec<u8>) -> Run {
        Run::from(Bytes::from(d))
    }
}

impl From<&'static [u8]> for Run {
    fn from(d: &'static [u8]) -> Run {
        Run::from(Bytes::from_static(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pieces_tile_and_later_ones_win() {
        let mut run = Run::from(Bytes::from_static(b"abcd"));
        run.push(4, Bytes::from_static(b"ef"));
        run.push(2, Bytes::from_static(b"XY"));
        run.push(6, Bytes::new());
        assert_eq!(run.len(), 6);
        assert_eq!(run.parts().len(), 3);
        assert_eq!(run.to_vec(), b"abXYef");
        let mut joined = Run::from(Bytes::from_static(b"01"));
        joined.join(1, run.clone());
        assert_eq!(joined.to_vec(), b"0abXYef");
    }

    #[test]
    fn a_slice_is_views_of_the_pieces_it_crosses() {
        let (a, b) = (Bytes::from(b"abcd".to_vec()), Bytes::from(b"efgh".to_vec()));
        let mut run = Run::from(a.clone());
        run.push(4, b.clone());
        let mid = run.slice(2, 4);
        assert_eq!(mid.to_vec(), b"cdef");
        assert_eq!(mid.parts()[0].1.as_ptr(), a[2..].as_ptr());
        assert_eq!(mid.parts()[1], (2, b.slice(..2)));
        assert_eq!(run.slice(6, 10).to_vec(), b"gh", "clipped to the end");
        assert!(run.slice(9, 3).is_empty());
        assert_eq!(Run::from(Vec::new()), Run::default());
    }
}
