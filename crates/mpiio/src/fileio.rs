//! MPI-IO file handles: two-phase collective I/O. (Independent and
//! sieved accesses need no handle; the plane issues them to the file
//! system directly.)
//!
//! The collective path implements ROMIO's *two-phase* algorithm for real:
//! ranks exchange their file views, the touched file extent is split into
//! contiguous *file domains* owned by aggregator ranks, data moves
//! point-to-point (paying interconnect costs) so each aggregator holds
//! everything destined for its domain, and the aggregators then issue a
//! small number of large sequential transfers to the file system. This is
//! what turns pioBLAST's scattered per-worker result records into the
//! "large, sequential writes" the paper credits MPI-IO for.

use std::cell::RefCell;

use burstfs::StagingStore;
use bytes::Bytes;
use mpisim::{Collectives, Comm};
use parafs::{SimFs, StoreError};

use crate::runs::{cut, merge, merge_bytes, Cover, Run};
use crate::stage::{Pending, Sink};
use crate::view::{FileView, ViewFrame};

/// Collective-I/O tuning knobs (a tiny subset of ROMIO hints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveHints {
    /// Number of aggregator ranks (`cb_nodes`).
    pub aggregators: usize,
}

impl Default for CollectiveHints {
    fn default() -> CollectiveHints {
        CollectiveHints { aggregators: 8 }
    }
}

/// Tag space used by this module (below mpisim's reserved collectives,
/// above typical application tags).
const IO_TAG_BASE: u64 = 1 << 40;

/// An open file on a simulated file system, bound to a communicator.
pub struct MpiFile<'a, 'c> {
    comm: &'a Comm<'c>,
    /// The file system, behind this rank's staging store if attached.
    sink: Sink<'a>,
    path: String,
    hints: CollectiveHints,
    op_seq: std::cell::Cell<u64>,
}

impl<'a, 'c> MpiFile<'a, 'c> {
    /// Open (or create) a file collectively. Every rank charges one
    /// metadata operation, like `MPI_File_open` hitting the file system.
    pub fn open(comm: &'a Comm<'c>, fs: &'a SimFs, path: &str) -> MpiFile<'a, 'c> {
        let (burst, ctx) = (None, comm.ctx());
        let _ = fs.stat(ctx, path);
        MpiFile {
            comm,
            sink: Sink { burst, fs, ctx },
            path: path.to_string(),
            hints: CollectiveHints::default(),
            op_seq: std::cell::Cell::new(0),
        }
    }

    /// The path this handle was opened on.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Replace the collective hints.
    pub fn with_hints(mut self, hints: CollectiveHints) -> Self {
        self.hints = hints;
        self
    }

    /// Attach a burst-buffer staging store: this aggregator's coalesced
    /// run writes are absorbed into the staging volume (with per-run
    /// fall-through to direct writes on push-back) instead of hitting
    /// the destination synchronously.
    pub fn with_burst(mut self, burst: Option<&'a RefCell<StagingStore>>) -> Self {
        self.sink.burst = burst;
        self
    }

    fn next_tag(&self) -> u64 {
        let s = self.op_seq.get();
        self.op_seq.set(s + 1);
        IO_TAG_BASE | (s << 8)
    }

    /// Exchange every rank's view (gather at 0, broadcast the bundle).
    fn exchange_views(&self, view: &FileView) -> Result<ViewBundle, StoreError> {
        let mine = Bytes::from(view.encode());
        // Only the root gathers anything to bundle.
        let mut buf = Vec::new();
        if let Some(views) = self.comm.gather(0, mine) {
            buf.extend_from_slice(&(views.len() as u32).to_le_bytes());
            for v in &views {
                buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
                buf.extend_from_slice(v);
            }
        }
        ViewBundle::parse(self.comm.bcast(0, Bytes::from(buf)))
    }

    /// Collective write: `data` holds the bytes of `view`'s regions, in
    /// order. All ranks must call this together (a rank with nothing to
    /// write passes an empty view). This is the split collective with
    /// each run joined as it is issued; a failed run write (e.g.
    /// [`StoreError::NoSpace`]) is reported after the closing barrier so
    /// the collective stays aligned across ranks.
    pub fn write_at_all(&self, view: &FileView, data: &[u8]) -> Result<(), StoreError> {
        let pend = self.issue_write_all(view, &Run::from(data.to_vec()), true)?;
        self.write_at_all_end(pend)
    }

    /// Begin a split-collective write (`MPI_File_write_at_all_begin`):
    /// the view exchange, chunk routing, and aggregator coalescing run
    /// now, and the aggregators' large writes are issued asynchronously.
    /// Every rank must call this together and later join with
    /// [`MpiFile::write_at_all_end`]; the caller may compute in between
    /// while the file-system transfers proceed in virtual time. At most
    /// one split-collective operation may be outstanding per file.
    pub fn write_at_all_begin(
        &self,
        view: &FileView,
        data: impl Into<Run>,
    ) -> Result<PendingWriteAll, StoreError> {
        self.issue_write_all(view, &data.into(), false)
    }

    /// Everything of a collective write up to its join: exchange, route,
    /// receive, merge, then stage or issue each of this aggregator's
    /// runs — one after another when `joined`, all in flight otherwise.
    ///
    /// A chunk this rank aggregates itself stays views of `data`'s
    /// pieces all the way to the store; a chunk bound for a peer is
    /// copied once, into the frame that models it on the wire, and the
    /// aggregator stores that frame's bytes as views.
    pub(crate) fn issue_write_all(
        &self,
        view: &FileView,
        data: &Run,
        joined: bool,
    ) -> Result<PendingWriteAll, StoreError> {
        assert_eq!(
            data.len(),
            view.total_bytes(),
            "data must exactly fill the view"
        );
        let tag = self.next_tag();
        let bundle = self.exchange_views(view)?;
        let Some(domains) = Domains::compute(&bundle, self.comm.size(), self.hints) else {
            return Ok(Pending::default()); // nobody is writing anything
        };
        let me = self.comm.rank();

        // Route each of my chunks to its domain's aggregator, or stash
        // it if that is me.
        let mut local_chunks: Vec<(u64, Run)> = Vec::new();
        for (abs, region) in cut(view.absolute(), data) {
            for (d, off, piece_len) in domains.split(abs, region.len()) {
                let chunk = region.slice(off - abs, piece_len);
                let dst = domains.agg_rank(d);
                if dst == me {
                    local_chunks.push((off, chunk));
                } else {
                    let mut frame = vec![0u8; 8 + chunk.len() as usize];
                    frame[..8].copy_from_slice(&off.to_le_bytes());
                    chunk.copy_to(&mut frame[8..]);
                    self.comm.send(dst, tag, Bytes::from(frame));
                }
            }
        }

        // Receive, in rank order, every chunk of the domain I aggregate.
        // A peer frame that disagrees with the exchanged views is left
        // out and every later one still received.
        let (mut chunks, mut corrupt) = (Vec::new(), None);
        for (src, off, piece_len) in self.wanted_chunks(&bundle, &domains) {
            if src == me {
                continue; // already stashed
            }
            let m = self.comm.recv(Some(src), Some(tag));
            match check_chunk("write", frame_bytes(&m.payload, off), src, off, piece_len) {
                Ok(bytes) => chunks.push((off, Run::from(bytes))),
                Err(e) => {
                    corrupt.get_or_insert(e);
                }
            }
        }
        chunks.extend(local_chunks);

        // A failed run is this rank's alone, so like a corrupt frame it
        // rides in the pending half and surfaces after the closing
        // barrier — returning here would strand every other rank in it.
        let mut pend = self
            .sink
            .issue(&self.path, merge_bytes(chunks), joined, false);
        pend.err = corrupt.or(pend.err);
        Ok(pend)
    }

    /// Join a split-collective write: wait for this rank's outstanding
    /// run writes, then barrier. Errors — a corrupt peer frame, a
    /// begin-time staging failure, a full file system at completion
    /// time — are reported after the barrier, so the collective stays
    /// aligned across ranks.
    pub fn write_at_all_end(&self, pend: PendingWriteAll) -> Result<(), StoreError> {
        let joined = self.sink.join(pend);
        self.comm.barrier();
        joined
    }

    /// Every chunk of my aggregation domain across all ranks, as
    /// `(src, off, len)` in deterministic rank order (empty if I
    /// aggregate no domain). Only an aggregator reads other ranks'
    /// regions, and only those that reach into its own domain.
    fn wanted_chunks(&self, bundle: &ViewBundle, domains: &Domains) -> Vec<(usize, u64, u64)> {
        let Some(my_domain) = domains.domain_of(self.comm.rank()) else {
            return Vec::new();
        };
        let (lo, hi) = domains.range(my_domain);
        let mut wanted = Vec::new();
        for (src, view) in bundle.views().enumerate() {
            wanted.extend(view.clipped(lo, hi).map(|(off, len)| (src, off, len)));
        }
        wanted
    }

    /// Collective read: returns the bytes of `view`'s regions, in order.
    /// A chunk an aggregator serves short or long is reported — as
    /// [`StoreError::Corrupt`] — after the closing barrier, with every
    /// later chunk still received, so the collective stays aligned. So is
    /// an aggregator's own failed read: it still serves its peers (empty
    /// pieces, which they report as corrupt) and joins the barrier, then
    /// returns the file system's error.
    pub fn read_at_all(&self, view: &FileView) -> Result<Vec<u8>, StoreError> {
        let tag = self.next_tag();
        let bundle = self.exchange_views(view)?;
        let Some(domains) = Domains::compute(&bundle, self.comm.size(), self.hints) else {
            self.comm.barrier();
            return Ok(Vec::new());
        };
        let me = self.comm.rank();

        // I/O phase: aggregators read the merged runs of their domain
        // and serve every other rank's chunks in deterministic order. The
        // first failed run ends the reading; returning there would strand
        // every peer waiting on this domain.
        let wanted = self.wanted_chunks(&bundle, &domains);
        let held: Result<Vec<_>, _> = merge(wanted.iter().map(|&(_, o, l)| (o, l)).collect(), 0)
            .into_iter()
            .map(|(o, l)| {
                let bytes = self.sink.fs.read_at(self.sink.ctx, &self.path, o, l);
                bytes.map(|b| (o, b))
            })
            .collect();
        let (cover, failed) = match held {
            Ok(held) => (Cover::new(held), None),
            Err(e) => (Cover::new(Vec::new()), Some(e)),
        };
        for (dst, off, len) in wanted {
            if dst != me {
                let piece = cover.slice(off, len).unwrap_or_default();
                self.comm.send(dst, tag, piece);
            }
        }

        // Assembly: my own chunks, in view order.
        let mut out = Vec::with_capacity(view.total_bytes() as usize);
        let mut corrupt = None;
        for (abs, len) in view.absolute() {
            for (d, off, piece_len) in domains.split(abs, len) {
                let agg = domains.agg_rank(d);
                let served = if agg == me {
                    cover.slice(off, piece_len)
                } else {
                    Some(self.comm.recv(Some(agg), Some(tag)).payload)
                };
                match check_chunk("read", served, agg, off, piece_len) {
                    Ok(bytes) => out.extend_from_slice(&bytes),
                    Err(e) => {
                        corrupt.get_or_insert(e);
                    }
                }
            }
        }
        self.comm.barrier();
        failed.or(corrupt).map_or(Ok(out), Err)
    }
}

/// This rank's outstanding half of a split-collective write (see
/// [`MpiFile::write_at_all_begin`]): its aggregator runs in flight and
/// the first corrupt peer frame or failed run, reported by `end`.
pub type PendingWriteAll = Pending;

/// Every rank's view as the exchange broadcast it — `[count u32]`, then
/// per rank `[len u32][encoded view]` — validated once and then read in
/// place. Each rank keeps the one shared buffer, not a decoded copy of
/// every rank's view: P such copies on each of P ranks would make the
/// collective's memory O(P²).
struct ViewBundle(Bytes);

impl ViewBundle {
    /// Validate the bundle: every count and length checked before it is
    /// used, every frame a whole [`FileView`] encoding, nothing left
    /// over.
    ///
    /// Wire bytes are untrusted: malformed input comes back as
    /// [`StoreError::Corrupt`] instead of a panic, so one corrupted
    /// broadcast degrades the collective rather than aborting the whole
    /// run.
    fn parse(buf: Bytes) -> Result<ViewBundle, StoreError> {
        let corrupt = |what: String| StoreError::Corrupt { what };
        let (n, mut rest) =
            split_u32(&buf).ok_or_else(|| corrupt("view bundle: truncated count header".into()))?;
        for i in 0..n {
            let (len, after) = split_u32(rest)
                .ok_or_else(|| corrupt(format!("view bundle: truncated length of frame {i}")))?;
            let (body, after) = after
                .split_at_checked(len as usize)
                .ok_or_else(|| corrupt(format!("view bundle: frame {i} overruns the bundle")))?;
            ViewFrame::parse(body)
                .ok_or_else(|| corrupt(format!("view bundle: frame {i} is not a file view")))?;
            rest = after;
        }
        if !rest.is_empty() {
            return Err(corrupt(format!(
                "view bundle: {} trailing bytes after {n} frames",
                rest.len()
            )));
        }
        Ok(ViewBundle(buf))
    }

    /// Each rank's view, in rank order: a walk over the frame headers,
    /// every region read where it lies.
    fn views(&self) -> impl Iterator<Item = ViewFrame<'_>> {
        let (n, mut rest) = split_u32(&self.0).unwrap_or_default();
        (0..n).map_while(move |_| {
            let (len, after) = split_u32(rest)?;
            let (body, after) = after.split_at_checked(len as usize)?;
            rest = after;
            ViewFrame::read(body)
        })
    }
}

/// Split a little-endian `u32` off the front of `buf`.
fn split_u32(buf: &[u8]) -> Option<(u32, &[u8])> {
    let (head, rest) = buf.split_first_chunk::<4>()?;
    Some((u32::from_le_bytes(*head), rest))
}

/// The bytes of a peer's write-chunk frame, `[offset u64][bytes]`, if
/// it has a header and that names file offset `off` — a view of the
/// frame.
fn frame_bytes(payload: &Bytes, off: u64) -> Option<Bytes> {
    let (head, _) = payload.split_first_chunk::<8>()?;
    (u64::from_le_bytes(*head) == off).then(|| payload.slice(8..))
}

/// What rank `src` sent (or, being this rank, held) for the `len`-byte
/// chunk at file offset `off` — `None` if nothing for that offset. The
/// exchanged views fix the length; anything else is corrupt.
fn check_chunk(
    op: &str,
    sent: Option<Bytes>,
    src: usize,
    off: u64,
    len: u64,
) -> Result<Bytes, StoreError> {
    let what = match sent {
        Some(bytes) if bytes.len() as u64 == len => return Ok(bytes),
        Some(b) => format!(
            "collective {op}: rank {src} sent {} bytes for the {len}-byte chunk at offset {off}",
            b.len()
        ),
        None => format!("collective {op}: rank {src} sent no {len}-byte chunk for offset {off}"),
    };
    Err(StoreError::Corrupt { what })
}

/// The file-domain partition of one collective operation.
struct Domains {
    lo: u64,
    span: u64,
    count: usize,
    size: usize,
}

impl Domains {
    /// The partition of the extent every rank's view touches, read off
    /// each view's first and last region.
    fn compute(bundle: &ViewBundle, size: usize, hints: CollectiveHints) -> Option<Domains> {
        let lo = bundle.views().filter_map(|v| v.min_offset()).min()?;
        let hi = bundle.views().filter_map(|v| v.max_offset()).max()?;
        let span = hi - lo;
        let count = hints.aggregators.clamp(1, size);
        Some(Domains {
            lo,
            span,
            count,
            size,
        })
    }

    fn bound(&self, d: usize) -> u64 {
        self.lo + self.span * d as u64 / self.count as u64
    }

    /// The aggregator rank owning domain `d` (spread across the ranks).
    fn agg_rank(&self, d: usize) -> usize {
        d * self.size / self.count
    }

    /// The domain rank `r` aggregates, if any.
    fn domain_of(&self, r: usize) -> Option<usize> {
        (0..self.count).find(|&d| self.agg_rank(d) == r)
    }

    /// Which domain contains absolute offset `off` (which must lie in the
    /// global extent).
    fn domain_containing(&self, off: u64) -> usize {
        if self.span == 0 {
            return 0;
        }
        let mut d = ((off - self.lo) as u128 * self.count as u128 / self.span as u128) as usize;
        d = d.min(self.count - 1);
        // Integer rounding can land one off; fix up.
        while d > 0 && off < self.bound(d) {
            d -= 1;
        }
        while d + 1 < self.count && off >= self.bound(d + 1) {
            d += 1;
        }
        d
    }

    /// Where domain `d` ends: the next one's start, or never for the last.
    fn end(&self, d: usize) -> u64 {
        if d + 1 == self.count {
            u64::MAX
        } else {
            self.bound(d + 1)
        }
    }

    /// Domain `d`'s file range, `[start, end)`: the offsets
    /// [`Domains::domain_containing`] maps to `d`.
    fn range(&self, d: usize) -> (u64, u64) {
        (self.bound(d), self.end(d))
    }

    /// Split `(abs, len)` at domain boundaries, yielding
    /// `(domain, offset, len)` pieces in order.
    fn split(&self, abs: u64, len: u64) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        let (mut off, end) = (abs, abs + len);
        std::iter::from_fn(move || {
            (off < end).then(|| {
                let d = self.domain_containing(off);
                let piece = (d, off, end.min(self.end(d)) - off);
                off += piece.2;
                piece
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::NetProfile;
    use parafs::FsProfile;
    use simcluster::{Sim, SimDuration};

    fn net() -> NetProfile {
        NetProfile {
            latency: 5e-6,
            bandwidth: 1e9,
        }
    }

    fn fsprofile() -> FsProfile {
        FsProfile {
            per_client_bw: 100e6,
            aggregate_bw: 400e6,
            op_latency: 1e-4,
        }
    }

    #[test]
    fn interleaved_collective_write_round_trips() {
        // Each of 6 ranks writes every 6th 10-byte record of 30 records.
        let sim = Sim::new(6);
        let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
        let fs2 = fs.clone();
        sim.run(move |ctx| {
            let comm = Comm::new(&ctx, net());
            let file =
                MpiFile::open(&comm, &fs2, "out").with_hints(CollectiveHints { aggregators: 3 });
            let me = ctx.rank() as u64;
            let regions: Vec<(u64, u64)> = (0..5).map(|i| ((i * 6 + me) * 10, 10)).collect();
            let view = FileView::new(0, regions).unwrap();
            let data: Vec<u8> = (0..5).flat_map(|i| vec![(i * 6 + me) as u8; 10]).collect();
            file.write_at_all(&view, &data).unwrap();
        });
        let written = fs.peek("out").unwrap();
        assert_eq!(written.len(), 300);
        for rec in 0..30u64 {
            for b in &written[(rec * 10) as usize..(rec * 10 + 10) as usize] {
                assert_eq!(*b as u64, rec, "record {rec}");
            }
        }
    }

    #[test]
    fn collective_write_equals_serial_reference() {
        // Random-ish scattered views; compare against a serially-built
        // reference buffer.
        let sim = Sim::new(5);
        let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
        let fs2 = fs.clone();
        // Disjoint regions per rank keep the oracle exact. The file ends at
        // the last written byte (rank 4's last region).
        let file_len = (4 * 200 + 3 * 50 + 20) as usize;
        let mut reference = vec![0u8; file_len];
        let regions_of =
            |r: u64| -> Vec<(u64, u64)> { (0..4u64).map(|k| (r * 200 + k * 50, 20)).collect() };
        for r in 0..5u64 {
            for (off, len) in regions_of(r) {
                for i in 0..len {
                    reference[(off + i) as usize] = (r + 1) as u8;
                }
            }
        }
        sim.run(move |ctx| {
            let comm = Comm::new(&ctx, net());
            let file = MpiFile::open(&comm, &fs2, "ref");
            let r = ctx.rank() as u64;
            let view = FileView::new(0, regions_of(r)).unwrap();
            let data = vec![(r + 1) as u8; view.total_bytes() as usize];
            file.write_at_all(&view, &data).unwrap();
        });
        let written = fs.peek("ref").unwrap();
        assert_eq!(written, reference);
    }

    #[test]
    fn collective_read_returns_view_bytes() {
        let sim = Sim::new(4);
        let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
        let content: Vec<u8> = (0..240u32).map(|i| (i % 251) as u8).collect();
        fs.preload("db", content.clone());
        let fs2 = fs.clone();
        let out = sim.run(move |ctx| {
            let comm = Comm::new(&ctx, net());
            let file =
                MpiFile::open(&comm, &fs2, "db").with_hints(CollectiveHints { aggregators: 2 });
            let me = ctx.rank() as u64;
            // Rank r reads bytes [60r, 60r+60) as three scattered pieces.
            let view = FileView::new(60 * me, vec![(0, 20), (20, 10), (30, 30)]).unwrap();
            file.read_at_all(&view).unwrap()
        });
        for (r, got) in out.outputs.iter().enumerate() {
            assert_eq!(&got[..], &content[60 * r..60 * (r + 1)], "rank {r}");
        }
    }

    #[test]
    fn empty_participants_are_fine() {
        let sim = Sim::new(3);
        let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
        let fs2 = fs.clone();
        sim.run(move |ctx| {
            let comm = Comm::new(&ctx, net());
            let file = MpiFile::open(&comm, &fs2, "sparse");
            let view = if ctx.rank() == 1 {
                FileView::contiguous(100, 10)
            } else {
                FileView::contiguous(0, 0)
            };
            let data = vec![9u8; view.total_bytes() as usize];
            file.write_at_all(&view, &data).unwrap();
        });
        assert_eq!(fs.peek("sparse").unwrap()[100..110], [9u8; 10]);
    }

    #[test]
    fn all_empty_collective_is_a_barrier() {
        let sim = Sim::new(3);
        let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
        let fs2 = fs.clone();
        sim.run(move |ctx| {
            let comm = Comm::new(&ctx, net());
            let file = MpiFile::open(&comm, &fs2, "none");
            file.write_at_all(&FileView::contiguous(0, 0), &[]).unwrap();
            let got = file.read_at_all(&FileView::contiguous(0, 0)).unwrap();
            assert!(got.is_empty());
        });
        assert!(fs.peek("none").is_err());
    }

    #[test]
    fn aggregated_writes_are_few_and_large() {
        // 8 ranks × 16 interleaved 50-byte records = 6400 bytes. With 2
        // aggregators the file system should see ~2 data writes, not 128.
        let sim = Sim::new(8);
        let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
        let fs2 = fs.clone();
        sim.run(move |ctx| {
            let comm = Comm::new(&ctx, net());
            let file =
                MpiFile::open(&comm, &fs2, "agg").with_hints(CollectiveHints { aggregators: 2 });
            let me = ctx.rank() as u64;
            let regions: Vec<(u64, u64)> = (0..16).map(|i| ((i * 8 + me) * 50, 50)).collect();
            let view = FileView::new(0, regions).unwrap();
            let data = vec![me as u8; view.total_bytes() as usize];
            file.write_at_all(&view, &data).unwrap();
        });
        let c = fs.counters();
        assert_eq!(c.bytes_written, 6400);
        assert!(
            c.data_ops <= 4,
            "expected coalesced writes, saw {} data ops",
            c.data_ops
        );
    }

    #[test]
    fn a_chunk_frame_that_disagrees_with_the_views_is_corrupt() {
        fn decode_chunk(
            payload: &Bytes,
            src: usize,
            off: u64,
            len: u64,
        ) -> Result<Bytes, StoreError> {
            check_chunk("write", frame_bytes(payload, off), src, off, len)
        }
        let mut frame = 40u64.to_le_bytes().to_vec();
        frame.extend_from_slice(b"abc");
        let frame = Bytes::from(frame);
        assert_eq!(
            decode_chunk(&frame, 1, 40, 3),
            Ok(Bytes::from_static(b"abc"))
        );
        for (payload, off, len) in [
            (frame.clone(), 41, 3),    // another offset
            (frame.clone(), 40, 4),    // another length
            (frame.slice(..7), 40, 3), // shorter than its own header
            (Bytes::new(), 0, 0),      // empty
        ] {
            assert!(
                matches!(
                    decode_chunk(&payload, 1, off, len),
                    Err(StoreError::Corrupt { .. })
                ),
                "{payload:?} as {len} bytes at {off}"
            );
        }
    }

    /// Deterministic bytes (xorshift64*).
    struct Noise(u64);

    impl Noise {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn bytes(&mut self, len: usize) -> Vec<u8> {
            (0..len).map(|_| (self.next() >> 32) as u8).collect()
        }
    }

    /// Inputs a decoder has to survive, as `tests/codec.rs` draws them:
    /// noise of every small length, and a valid encoding damaged every
    /// way a count field can be — four `ff` bytes, one flipped byte, one
    /// random byte — at every offset.
    fn hostile_inputs(valid: &[u8], noise: &mut Noise) -> Vec<Vec<u8>> {
        let mut inputs: Vec<Vec<u8>> = (0..48).map(|len| noise.bytes(len)).collect();
        for at in 0..valid.len() {
            let mut lying_count = valid.to_vec();
            for b in lying_count.iter_mut().skip(at).take(4) {
                *b = 0xff;
            }
            let mut flipped = valid.to_vec();
            flipped[at] ^= 0x10;
            let mut random = valid.to_vec();
            random[at] = noise.next() as u8;
            inputs.extend([lying_count, flipped, random]);
        }
        inputs
    }

    /// `valid` decodes, every strict prefix and the one-byte extension
    /// are corrupt, and every hostile input either decodes or is
    /// corrupt — the decoder returns, and with no other error.
    fn survives_hostile_bytes<T>(
        what: &str,
        valid: &[u8],
        noise: &mut Noise,
        decode: impl Fn(&[u8]) -> Result<T, StoreError>,
    ) {
        let corrupt = |r: Result<T, StoreError>| matches!(r, Err(StoreError::Corrupt { .. }));
        assert!(decode(valid).is_ok(), "{what}: valid bytes");
        for cut in 0..valid.len() {
            assert!(corrupt(decode(&valid[..cut])), "{what}: prefix {cut}");
        }
        let mut overlong = valid.to_vec();
        overlong.push(0);
        assert!(corrupt(decode(&overlong)), "{what}: trailing byte");
        for input in hostile_inputs(valid, noise) {
            let r = decode(&input);
            assert!(r.is_ok() || corrupt(r), "{what}: {input:02x?}");
        }
    }

    #[test]
    fn view_decoders_turn_hostile_bytes_into_corrupt_errors() {
        let mut noise = Noise(0x9E37_79B9_7F4A_7C15);
        let views = [
            FileView::new(7, vec![(0, 3), (10, 20), (30, 1)]).unwrap(),
            FileView::contiguous(1 << 40, 9),
            FileView::default(),
        ];
        for view in &views {
            survives_hostile_bytes("FileView", &view.encode(), &mut noise, FileView::decode);
        }
        // The bundle the view exchange broadcasts: every rank's frame.
        let mut bundle = (views.len() as u32).to_le_bytes().to_vec();
        for view in &views {
            let frame = view.encode();
            bundle.extend_from_slice(&(frame.len() as u32).to_le_bytes());
            bundle.extend_from_slice(&frame);
        }
        survives_hostile_bytes("ViewBundle", &bundle, &mut noise, |b| {
            let parsed = ViewBundle::parse(Bytes::copy_from_slice(b))?;
            // A bundle that parses is walked whole.
            assert_eq!(
                parsed.views().count(),
                split_u32(b).map_or(0, |(n, _)| n) as usize
            );
            Ok(())
        });
    }

    #[test]
    fn the_chunk_frame_reader_turns_hostile_bytes_into_corrupt_errors() {
        // A peer's write chunk `[offset u64][bytes]`, read for the
        // 12-byte chunk at offset 4096 the exchanged views announced.
        let mut noise = Noise(0x0123_4567_89AB_CDEF);
        let mut frame = 4096u64.to_le_bytes().to_vec();
        frame.extend_from_slice(b"twelve bytes");
        survives_hostile_bytes("chunk frame", &frame, &mut noise, |b| {
            let payload = Bytes::copy_from_slice(b);
            let chunk = check_chunk("write", frame_bytes(&payload, 4096), 1, 4096, 12)?;
            assert_eq!(chunk.len(), 12);
            Ok(())
        });
    }

    #[test]
    fn a_served_chunk_that_disagrees_with_the_views_is_corrupt() {
        let served = |b: &'static [u8]| Some(Bytes::from_static(b));
        let abc = Bytes::from_static(b"abc");
        assert_eq!(check_chunk("read", served(b"abc"), 2, 40, 3), Ok(abc));
        assert_eq!(check_chunk("read", served(b""), 2, 40, 0), Ok(Bytes::new()));
        for served in [served(b"ab"), served(b"abcd"), served(b""), None] {
            match check_chunk("read", served.clone(), 2, 40, 3) {
                Err(StoreError::Corrupt { what }) => {
                    for part in ["rank 2", "3-byte", "offset 40"] {
                        assert!(what.contains(part), "{what}");
                    }
                }
                other => panic!("{served:?} as 3 bytes at 40: {other:?}"),
            }
        }
    }

    #[test]
    fn a_short_chunk_from_a_peer_aggregator_is_a_typed_error_after_the_barrier() {
        // Rank 0 aggregates the only domain and is played by hand: an
        // honest view exchange, then 7 of the 10 bytes rank 1 asked for.
        // Rank 1 must come back with the typed error — not a panic, not
        // 7 bytes — having still posted the closing barrier (`Sim::run`
        // panics on a deadlock).
        let sim = Sim::new(2);
        let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
        fs.preload("db", vec![9u8; 100]);
        let out = sim.run(move |ctx| {
            let comm = Comm::new(&ctx, net());
            let view = FileView::contiguous(20, 10);
            if ctx.rank() == 1 {
                let file =
                    MpiFile::open(&comm, &fs, "db").with_hints(CollectiveHints { aggregators: 1 });
                return Some(file.read_at_all(&view));
            }
            let views = comm
                .gather(0, Bytes::from(FileView::default().encode()))
                .unwrap();
            let mut bundle = (views.len() as u32).to_le_bytes().to_vec();
            for v in &views {
                bundle.extend_from_slice(&(v.len() as u32).to_le_bytes());
                bundle.extend_from_slice(v);
            }
            comm.bcast(0, Bytes::from(bundle));
            comm.send(1, IO_TAG_BASE, Bytes::from(vec![9u8; 7]));
            comm.barrier();
            None
        });
        match &out.outputs[1] {
            Some(Err(StoreError::Corrupt { what })) => {
                for part in ["rank 0", "7 bytes", "10-byte", "offset 20"] {
                    assert!(what.contains(part), "{what}");
                }
            }
            other => panic!("expected a corrupt-chunk error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_view_bundles_error_instead_of_panicking() {
        let parse = |buf: &[u8]| ViewBundle::parse(Bytes::copy_from_slice(buf));
        // Truncated count header.
        assert!(matches!(parse(&[1, 0]), Err(StoreError::Corrupt { .. })));
        // Count promises more frames than the bundle holds.
        assert!(matches!(
            parse(&2u32.to_le_bytes()),
            Err(StoreError::Corrupt { .. })
        ));
        // Frame length overruns the bundle.
        let mut buf = 1u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&100u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 10]);
        assert!(matches!(parse(&buf), Err(StoreError::Corrupt { .. })));
        // Frame bytes that do not decode as a view — nor do regions that
        // overlap, however well-formed the frame.
        let mut buf = 1u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&[9, 9, 9]);
        assert!(matches!(parse(&buf), Err(StoreError::Corrupt { .. })));
        let overlapping = FileView {
            displacement: 0,
            regions: vec![(0, 10), (5, 10)],
        };
        let enc = overlapping.encode();
        let mut buf = 1u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&(enc.len() as u32).to_le_bytes());
        buf.extend_from_slice(&enc);
        assert!(matches!(parse(&buf), Err(StoreError::Corrupt { .. })));
        // Trailing garbage after the last frame.
        let views = [
            FileView::new(7, vec![(0, 10), (30, 5)]).unwrap(),
            FileView::default(),
        ];
        let mut buf = (views.len() as u32).to_le_bytes().to_vec();
        for v in &views {
            let enc = v.encode();
            buf.extend_from_slice(&(enc.len() as u32).to_le_bytes());
            buf.extend_from_slice(&enc);
        }
        buf.push(0);
        assert!(matches!(parse(&buf), Err(StoreError::Corrupt { .. })));
        // The same bundle without the stray byte reads every view in
        // place, and a domain's clip of them.
        buf.pop();
        let bundle = parse(&buf).unwrap();
        let read: Vec<Vec<(u64, u64)>> = bundle
            .views()
            .map(|f| f.clipped(0, u64::MAX).collect())
            .collect();
        let want: Vec<Vec<(u64, u64)>> = views.iter().map(|v| v.absolute().collect()).collect();
        assert_eq!(read, want);
        let first = bundle.views().next().unwrap();
        assert_eq!(
            (first.min_offset(), first.max_offset()),
            (Some(7), Some(42))
        );
        assert_eq!(
            first.clipped(10, 40).collect::<Vec<_>>(),
            vec![(10, 7), (37, 3)]
        );
        assert_eq!(first.clipped(17, 37).count(), 0);
    }

    #[test]
    fn domain_ranges_are_what_split_assigns() {
        // Every byte of an extent lands, through `split`, in the domain
        // whose `range` holds it — empty domains included (a span
        // shorter than the aggregator count).
        for (lo, span, count) in [(0u64, 1000u64, 3usize), (5, 7, 4), (100, 2, 8), (0, 1, 1)] {
            let d = Domains {
                lo,
                span,
                count,
                size: 8,
            };
            let pieces: Vec<_> = d.split(lo, span + 3).collect();
            assert_eq!(pieces.iter().map(|p| p.2).sum::<u64>(), span + 3);
            for (dom, off, len) in pieces {
                let (a, b) = d.range(dom);
                assert!(
                    a <= off && off + len <= b,
                    "{off}+{len} outside domain {dom}"
                );
            }
        }
    }

    #[test]
    fn split_collective_write_matches_blocking_collective() {
        let sim = Sim::new(6);
        let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
        let fs2 = fs.clone();
        sim.run(move |ctx| {
            let comm = Comm::new(&ctx, net());
            let file =
                MpiFile::open(&comm, &fs2, "out").with_hints(CollectiveHints { aggregators: 3 });
            let me = ctx.rank() as u64;
            let regions: Vec<(u64, u64)> = (0..5).map(|i| ((i * 6 + me) * 10, 10)).collect();
            let view = FileView::new(0, regions).unwrap();
            let data: Vec<u8> = (0..5).flat_map(|i| vec![(i * 6 + me) as u8; 10]).collect();
            let pend = file.write_at_all_begin(&view, data).unwrap();
            ctx.charge(SimDuration::from_millis(5)); // compute while runs are in flight
            file.write_at_all_end(pend).unwrap();
        });
        let written = fs.peek("out").unwrap();
        assert_eq!(written.len(), 300);
        for rec in 0..30u64 {
            for b in &written[(rec * 10) as usize..(rec * 10 + 10) as usize] {
                assert_eq!(*b as u64, rec, "record {rec}");
            }
        }
    }

    #[test]
    fn split_collective_write_stays_aligned_when_one_rank_cannot_stage() {
        // Only rank 0's staging volume is too small for its run, so only
        // rank 0's stage fails. Every rank must still come out of `end`
        // (`Sim::run` panics on a deadlock): rank 0 with the typed
        // error, the others clean and with their domain landed.
        let sim = Sim::new(4);
        let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
        let fs2 = fs.clone();
        let out = sim.run(move |ctx| {
            let comm = Comm::new(&ctx, net());
            let volume = SimFs::new(ctx.handle(), &format!("stage{}", ctx.rank()), fsprofile());
            if ctx.rank() == 0 {
                volume.set_capacity(4);
            }
            let store = RefCell::new(StagingStore::new(
                volume,
                fs2.clone(),
                burstfs::BurstOptions::default(),
                burstfs::DeviceModel {
                    op_latency: 1e-5,
                    bandwidth: 1e9,
                },
            ));
            let file = MpiFile::open(&comm, &fs2, "out")
                .with_hints(CollectiveHints { aggregators: 2 })
                .with_burst(Some(&store));
            let me = ctx.rank() as u64;
            let view = FileView::contiguous(me * 10, 10);
            // As the plane drives it: a failed begin has no end to post.
            let result = file
                .write_at_all_begin(&view, vec![me as u8 + 1; 10])
                .and_then(|pend| file.write_at_all_end(pend));
            store.borrow_mut().fence(&ctx).unwrap();
            result
        });
        assert!(
            matches!(out.outputs[0], Err(StoreError::NoSpace { .. })),
            "rank 0 aggregates the first domain: {:?}",
            out.outputs[0]
        );
        assert!(
            out.outputs[1..].iter().all(|r| r.is_ok()),
            "{:?}",
            out.outputs
        );
        // The second aggregator (rank 2) staged and drained its domain.
        let written = fs.peek("out").unwrap();
        assert_eq!(written[20..30], [3u8; 10]);
        assert_eq!(written[30..40], [4u8; 10]);
    }
}
