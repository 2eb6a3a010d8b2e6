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
use parafs::{AsyncIo, SimFs, StoreError};

use crate::stage::try_stage;
use crate::view::FileView;

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
    fs: &'a SimFs,
    path: String,
    hints: CollectiveHints,
    burst: Option<&'a RefCell<StagingStore>>,
    op_seq: std::cell::Cell<u64>,
}

impl<'a, 'c> MpiFile<'a, 'c> {
    /// Open (or create) a file collectively. Every rank charges one
    /// metadata operation, like `MPI_File_open` hitting the file system.
    pub fn open(comm: &'a Comm<'c>, fs: &'a SimFs, path: &str) -> MpiFile<'a, 'c> {
        let _ = fs.stat(comm.ctx(), path);
        MpiFile {
            comm,
            fs,
            path: path.to_string(),
            hints: CollectiveHints::default(),
            burst: None,
            op_seq: std::cell::Cell::new(0),
        }
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
        self.burst = burst;
        self
    }

    fn next_tag(&self) -> u64 {
        let s = self.op_seq.get();
        self.op_seq.set(s + 1);
        IO_TAG_BASE | (s << 8)
    }

    /// Exchange every rank's view (gather at 0, broadcast the bundle).
    fn exchange_views(&self, view: &FileView) -> Result<Vec<FileView>, StoreError> {
        let mine = Bytes::from(view.encode());
        let gathered = self.comm.gather(0, mine);
        let bundle = if self.comm.rank() == 0 {
            let views = gathered.expect("root gathers");
            let mut buf = Vec::new();
            buf.extend_from_slice(&(views.len() as u32).to_le_bytes());
            for v in &views {
                buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
                buf.extend_from_slice(v);
            }
            Bytes::from(buf)
        } else {
            Bytes::new()
        };
        let bundle = self.comm.bcast(0, bundle);
        decode_view_bundle(&bundle)
    }

    /// Exchange + receive phases of a collective write: route each of my
    /// chunks to its domain's aggregator (or stash it locally if that is
    /// me), then — if I aggregate a domain — receive every expected
    /// chunk in rank order and coalesce into maximal runs. Returns the
    /// runs this rank must write (empty for non-aggregators), and the
    /// first peer frame that disagreed with the exchanged views: the
    /// chunk is left out and every later one still received, so the
    /// collective stays aligned and the caller reports the error after
    /// the closing barrier.
    fn gather_write_runs(
        &self,
        tag: u64,
        view: &FileView,
        data: &[u8],
        all_views: &[FileView],
        domains: &Domains,
    ) -> (Vec<(u64, Vec<u8>)>, Option<StoreError>) {
        let me = self.comm.rank();
        let mut local_chunks: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut cursor = 0usize;
        for (abs, len) in view.absolute() {
            for (d, off, piece_len) in domains.split(abs, len) {
                let slice = &data[cursor..cursor + piece_len as usize];
                cursor += piece_len as usize;
                let dst = domains.agg_rank(d);
                if dst == me {
                    local_chunks.push((off, slice.to_vec()));
                } else {
                    let mut payload = Vec::with_capacity(8 + slice.len());
                    payload.extend_from_slice(&off.to_le_bytes());
                    payload.extend_from_slice(slice);
                    self.comm.send(dst, tag, Bytes::from(payload));
                }
            }
        }
        debug_assert_eq!(cursor, data.len());

        let mut corrupt = None;
        let runs = if let Some(my_domain) = domains.domain_of(me) {
            let mut chunks: Vec<(u64, Vec<u8>)> = Vec::new();
            for (src, view) in all_views.iter().enumerate() {
                for (abs, len) in view.absolute() {
                    for (d, off, piece_len) in domains.split(abs, len) {
                        if d != my_domain {
                            continue;
                        }
                        if src == me {
                            continue; // already stashed
                        }
                        let m = self.comm.recv(Some(src), Some(tag));
                        match decode_chunk(&m.payload, src, off, piece_len) {
                            Ok(bytes) => chunks.push((off, bytes.to_vec())),
                            Err(e) => {
                                corrupt.get_or_insert(e);
                            }
                        }
                    }
                }
            }
            chunks.extend(local_chunks);
            coalesce(chunks)
        } else {
            debug_assert!(local_chunks.is_empty());
            Vec::new()
        };
        (runs, corrupt)
    }

    /// Collective write: `data` holds the bytes of `view`'s regions, in
    /// order. All ranks must call this together (a rank with nothing to
    /// write passes an empty view). This is the split collective with
    /// each run joined as it is issued; a failed run write (e.g.
    /// [`StoreError::NoSpace`]) is reported after the closing barrier so
    /// the collective stays aligned across ranks.
    pub fn write_at_all(&self, view: &FileView, data: &[u8]) -> Result<(), StoreError> {
        let pend = self.issue_write_all(view, data, true)?;
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
        data: &[u8],
    ) -> Result<PendingWriteAll, StoreError> {
        self.issue_write_all(view, data, false)
    }

    /// Everything of a collective write up to its join: exchange, route,
    /// coalesce, then stage or issue each of this aggregator's runs —
    /// one after another when `joined`, all in flight otherwise.
    fn issue_write_all(
        &self,
        view: &FileView,
        data: &[u8],
        joined: bool,
    ) -> Result<PendingWriteAll, StoreError> {
        assert_eq!(
            data.len() as u64,
            view.total_bytes(),
            "data must exactly fill the view"
        );
        let tag = self.next_tag();
        let all_views = self.exchange_views(view)?;
        let mut pend = PendingWriteAll {
            ops: Vec::new(),
            err: None,
        };
        let Some(domains) = Domains::compute(&all_views, self.comm.size(), self.hints) else {
            return Ok(pend); // nobody is writing anything
        };
        let ctx = self.comm.ctx();
        let (runs, corrupt) = self.gather_write_runs(tag, view, data, &all_views, &domains);
        pend.err = corrupt;
        for (run_off, run_data) in runs {
            // A staged run carries no pending op: its drain belongs to
            // the staging store and is joined at the next fence. A
            // failure is this rank's alone, so it rides in the pending
            // half and surfaces after the closing barrier — returning
            // here would strand every other rank in it.
            let issued = match try_stage(self.burst, ctx, &self.path, run_off, &run_data) {
                Ok(false) if joined => self.fs.write_at_owned(ctx, &self.path, run_off, run_data),
                Ok(false) => {
                    let op = self.fs.write_at_begin(ctx, &self.path, run_off, run_data);
                    pend.ops.push(op);
                    Ok(())
                }
                staged => staged.map(drop),
            };
            if let Err(e) = issued {
                pend.err.get_or_insert(e);
            }
        }
        Ok(pend)
    }

    /// Join a split-collective write: wait for this rank's outstanding
    /// run writes, then barrier. Errors — a begin-time staging failure,
    /// a full file system at completion time — are reported after the
    /// barrier, so the collective stays aligned across ranks.
    pub fn write_at_all_end(&self, pend: PendingWriteAll) -> Result<(), StoreError> {
        let mut err = pend.err;
        for op in pend.ops {
            if let Err(e) = self.fs.io_wait(self.comm.ctx(), op) {
                err.get_or_insert(e);
            }
        }
        self.comm.barrier();
        err.map_or(Ok(()), Err)
    }

    /// Every chunk of my aggregation domain across all ranks, as
    /// `(src, off, len)` in deterministic rank order (empty if I
    /// aggregate no domain).
    fn wanted_chunks(&self, all_views: &[FileView], domains: &Domains) -> Vec<(usize, u64, u64)> {
        let Some(my_domain) = domains.domain_of(self.comm.rank()) else {
            return Vec::new();
        };
        let mut wanted = Vec::new();
        for (src, view) in all_views.iter().enumerate() {
            for (abs, len) in view.absolute() {
                for (d, off, piece_len) in domains.split(abs, len) {
                    if d == my_domain {
                        wanted.push((src, off, piece_len));
                    }
                }
            }
        }
        wanted
    }

    /// Serve + assembly phases of a collective read: slice each wanted
    /// chunk out of the aggregator's run data and send it to its rank
    /// (or stash locally), then collect my own chunks in view order.
    fn serve_and_assemble(
        &self,
        tag: u64,
        view: &FileView,
        domains: &Domains,
        wanted: Vec<(usize, u64, u64)>,
        run_data: Vec<(u64, Vec<u8>)>,
    ) -> Vec<u8> {
        let me = self.comm.rank();
        let mut served: Vec<(usize, u64, Vec<u8>)> = Vec::new(); // (dst, off, data) for me
        let fetch = |off: u64, len: u64| -> Vec<u8> {
            let (ro, rd) = run_data
                .iter()
                .find(|(ro, rd)| off >= *ro && off + len <= *ro + rd.len() as u64)
                .expect("chunk lies in a coalesced run");
            rd[(off - ro) as usize..(off - ro + len) as usize].to_vec()
        };
        for (dst, off, len) in wanted {
            let piece = fetch(off, len);
            if dst == me {
                served.push((me, off, piece));
            } else {
                self.comm.send(dst, tag, Bytes::from(piece));
            }
        }

        let mut out = Vec::with_capacity(view.total_bytes() as usize);
        let mut local_iter = served.into_iter();
        for (abs, len) in view.absolute() {
            for (d, _off, piece_len) in domains.split(abs, len) {
                let agg = domains.agg_rank(d);
                if agg == me {
                    let (_, _, piece) = local_iter.next().expect("local chunk available");
                    out.extend_from_slice(&piece);
                } else {
                    let m = self.comm.recv(Some(agg), Some(tag));
                    debug_assert_eq!(m.payload.len() as u64, piece_len);
                    out.extend_from_slice(&m.payload);
                }
            }
        }
        out
    }

    /// Collective read: returns the bytes of `view`'s regions, in order.
    pub fn read_at_all(&self, view: &FileView) -> Result<Vec<u8>, StoreError> {
        let tag = self.next_tag();
        let all_views = self.exchange_views(view)?;
        let Some(domains) = Domains::compute(&all_views, self.comm.size(), self.hints) else {
            self.comm.barrier();
            return Ok(Vec::new());
        };

        // I/O phase: aggregators read coalesced runs of their domain and
        // serve every rank's chunks in deterministic order.
        let wanted = self.wanted_chunks(&all_views, &domains);
        let runs = coalesce_ranges(wanted.iter().map(|&(_, o, l)| (o, l)).collect());
        let mut run_data: Vec<(u64, Vec<u8>)> = Vec::new();
        for (o, l) in runs {
            run_data.push((o, self.fs.read_at(self.comm.ctx(), &self.path, o, l)?));
        }
        let out = self.serve_and_assemble(tag, view, &domains, wanted, run_data);
        self.comm.barrier();
        Ok(out)
    }
}

/// This rank's outstanding half of a split-collective write (see
/// [`MpiFile::write_at_all_begin`]).
pub struct PendingWriteAll {
    ops: Vec<AsyncIo>,
    /// The first corrupt peer frame or run that failed at begin time,
    /// reported by `end`.
    err: Option<StoreError>,
}

impl PendingWriteAll {
    /// Earliest issue time among the outstanding transfers, in virtual
    /// nanoseconds (`None` when this rank aggregates nothing).
    pub fn issued_ns(&self) -> Option<u64> {
        self.ops.iter().map(|op| op.issued_at().0).min()
    }
}

/// Decode the gathered-and-broadcast bundle of every rank's view.
///
/// Wire bytes are untrusted: every length is validated before slicing,
/// and malformed input comes back as [`StoreError::Corrupt`] instead of
/// a panic, so one corrupted broadcast degrades the collective rather
/// than aborting the whole run.
fn decode_view_bundle(buf: &[u8]) -> Result<Vec<FileView>, StoreError> {
    let corrupt = |what: String| StoreError::Corrupt { what };
    let (n, mut rest) =
        split_u32(buf).ok_or_else(|| corrupt("view bundle: truncated count header".into()))?;
    let mut out = Vec::new();
    for i in 0..n {
        let (len, after) = split_u32(rest)
            .ok_or_else(|| corrupt(format!("view bundle: truncated length of frame {i}")))?;
        let (body, after) = after
            .split_at_checked(len as usize)
            .ok_or_else(|| corrupt(format!("view bundle: frame {i} overruns the bundle")))?;
        out.push(
            FileView::decode(body)
                .ok_or_else(|| corrupt(format!("view bundle: frame {i} is not a file view")))?,
        );
        rest = after;
    }
    if !rest.is_empty() {
        return Err(corrupt(format!(
            "view bundle: {} trailing bytes after {n} frames",
            rest.len()
        )));
    }
    Ok(out)
}

/// Split a little-endian `u32` off the front of `buf`.
fn split_u32(buf: &[u8]) -> Option<(u32, &[u8])> {
    let (head, rest) = buf.split_first_chunk::<4>()?;
    Some((u32::from_le_bytes(*head), rest))
}

/// The bytes of a peer's chunk frame, `[offset u64][bytes]`. The
/// exchanged views fix what `src` must send — `len` bytes for file
/// offset `off` — and a frame that says otherwise is corrupt.
fn decode_chunk(payload: &[u8], src: usize, off: u64, len: u64) -> Result<&[u8], StoreError> {
    match payload.split_first_chunk::<8>() {
        Some((head, bytes)) if u64::from_le_bytes(*head) == off && bytes.len() as u64 == len => {
            Ok(bytes)
        }
        _ => Err(StoreError::Corrupt {
            what: format!(
                "collective write: rank {src}'s {}-byte chunk frame is not {len} bytes at offset {off}",
                payload.len()
            ),
        }),
    }
}

/// The file-domain partition of one collective operation.
struct Domains {
    lo: u64,
    span: u64,
    count: usize,
    size: usize,
}

impl Domains {
    fn compute(all_views: &[FileView], size: usize, hints: CollectiveHints) -> Option<Domains> {
        let lo = all_views.iter().filter_map(|v| v.min_offset()).min()?;
        let hi = all_views
            .iter()
            .filter_map(|v| v.max_offset())
            .max()
            .expect("min implies max");
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

    /// Split `(abs, len)` at domain boundaries, yielding
    /// `(domain, offset, len)` pieces in order.
    fn split(&self, abs: u64, len: u64) -> Vec<(usize, u64, u64)> {
        let mut out = Vec::new();
        let mut off = abs;
        let end = abs + len;
        while off < end {
            let d = self.domain_containing(off);
            let d_end = if d + 1 == self.count {
                u64::MAX
            } else {
                self.bound(d + 1)
            };
            let piece_end = end.min(d_end);
            out.push((d, off, piece_end - off));
            off = piece_end;
        }
        out
    }
}

/// Merge `(offset, data)` chunks into maximal contiguous runs.
fn coalesce(mut chunks: Vec<(u64, Vec<u8>)>) -> Vec<(u64, Vec<u8>)> {
    chunks.sort_by_key(|&(o, _)| o);
    let mut out: Vec<(u64, Vec<u8>)> = Vec::new();
    for (o, d) in chunks {
        match out.last_mut() {
            Some((ro, rd)) if *ro + rd.len() as u64 == o => rd.extend_from_slice(&d),
            _ => out.push((o, d)),
        }
    }
    out
}

/// Merge `(offset, len)` ranges into maximal contiguous runs.
fn coalesce_ranges(mut ranges: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    ranges.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (o, l) in ranges {
        match out.last_mut() {
            Some((ro, rl)) if *ro + *rl >= o => {
                let end = (o + l).max(*ro + *rl);
                *rl = end - *ro;
            }
            _ => out.push((o, l)),
        }
    }
    out
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
    fn coalesce_merges_adjacent() {
        let runs = coalesce(vec![(10, vec![3, 4]), (0, vec![1, 2]), (2, vec![9])]);
        assert_eq!(runs, vec![(0, vec![1, 2, 9]), (10, vec![3, 4])]);
        assert_eq!(
            coalesce_ranges(vec![(5, 5), (0, 5), (12, 1)]),
            vec![(0, 10), (12, 1)]
        );
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
        let mut frame = 40u64.to_le_bytes().to_vec();
        frame.extend_from_slice(b"abc");
        assert_eq!(decode_chunk(&frame, 1, 40, 3), Ok(&b"abc"[..]));
        for (payload, off, len) in [
            (&frame[..], 41, 3),  // another offset
            (&frame[..], 40, 4),  // another length
            (&frame[..7], 40, 3), // shorter than its own header
            (&b""[..], 0, 0),     // empty
        ] {
            assert!(
                matches!(
                    decode_chunk(payload, 1, off, len),
                    Err(StoreError::Corrupt { .. })
                ),
                "{payload:?} as {len} bytes at {off}"
            );
        }
    }

    #[test]
    fn malformed_view_bundles_error_instead_of_panicking() {
        // Truncated count header.
        assert!(matches!(
            decode_view_bundle(&[1, 0]),
            Err(StoreError::Corrupt { .. })
        ));
        // Count promises more frames than the bundle holds.
        assert!(matches!(
            decode_view_bundle(&2u32.to_le_bytes()),
            Err(StoreError::Corrupt { .. })
        ));
        // Frame length overruns the bundle.
        let mut buf = 1u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&100u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 10]);
        assert!(matches!(
            decode_view_bundle(&buf),
            Err(StoreError::Corrupt { .. })
        ));
        // Frame bytes that do not decode as a view.
        let mut buf = 1u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&[9, 9, 9]);
        assert!(matches!(
            decode_view_bundle(&buf),
            Err(StoreError::Corrupt { .. })
        ));
        // Trailing garbage after the last frame.
        let v = FileView::contiguous(0, 10);
        let enc = v.encode();
        let mut buf = 1u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&(enc.len() as u32).to_le_bytes());
        buf.extend_from_slice(&enc);
        buf.push(0);
        assert!(matches!(
            decode_view_bundle(&buf),
            Err(StoreError::Corrupt { .. })
        ));
        // The same bundle without the stray byte round-trips.
        buf.pop();
        assert_eq!(decode_view_bundle(&buf).unwrap(), vec![v]);
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
            let pend = file.write_at_all_begin(&view, &data).unwrap();
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
                .write_at_all_begin(&view, &[me as u8 + 1; 10])
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
