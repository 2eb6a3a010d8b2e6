//! The I/O plane: one typed access interface over [`MpiFile`], built
//! once per rank, that owns how the bytes move.
//!
//! Consumers describe *what* they touch — database regions, scattered
//! output records, checkpoint blobs — as an [`IoRequest`]; the plane
//! services each request kind under one access class
//! ([`parafs::IoClass`]), fixed when the plane is built:
//!
//! * `Independent` issues one file-system operation per view region
//!   (the paper's default input mode).
//! * `Sieved` applies data sieving (Thakur et al., *Optimizing
//!   Noncontiguous Accesses in MPI-IO*): on reads, regions whose holes
//!   are at most [`SIEVE_HOLE_LIMIT`] bytes are serviced by one larger
//!   read spanning the holes; on writes, only hole-free (strictly
//!   adjacent) regions are coalesced — the classic read-modify-write
//!   across holes is deliberately omitted, because in pioBLAST the
//!   holes of one rank's output view are exactly the records other
//!   ranks are writing concurrently.
//! * `TwoPhase` uses the full two-phase collective path
//!   ([`MpiFile::write_at_all`]/[`MpiFile::read_at_all`]): view
//!   exchange, file-domain partitioning across aggregators, and large
//!   coalesced transfers.
//!
//! The class is not a user knob. Whoever builds the plane resolves it
//! from the run's context, once for database reads
//! ([`PlaneConfig::input`]) and once for output writes
//! ([`PlaneConfig::output`]): two-phase proper requires every rank of
//! the communicator to post the request synchronously, so it is chosen
//! only where aggregation was asked for *and* the schedule guarantees
//! that; when aggregation was asked for but the context cannot
//! synchronize — grant-driven dynamic schedules, point-to-point fault
//! modes, recovery epochs — the request is sieved: the plane coalesces
//! whatever views are actually posted, with no global exchange and so
//! no deadlock. That degradation is what lets `collective_input`
//! compose with dynamic scheduling and fault recovery. Where no
//! aggregation was requested the class is independent — the paper's
//! per-range individual I/O. Checkpoint blobs and whole-file reads are
//! contiguous per file and always independent.
//!
//! The plane also owns the rank's burst-buffer staging sink, when there
//! is one: output and checkpoint writes are absorbed into it and drain
//! in the background, and [`IoPlane::fence`] joins the drains. *When*
//! to fence is the caller's durability policy; *what* a fence joins is
//! the plane's business.
//!
//! Every serviced request is attributed to its class's tally on the
//! backing file system so benches can break traffic down by class.

use std::cell::RefCell;

use burstfs::{BurstOptions, StagingStore};
use parafs::{AsyncIo, IoClass, SimFs, StoreError};

use mpisim::Comm;

use crate::fileio::{CollectiveHints, MpiFile, PendingWriteAll};
use crate::stage::try_stage;
use crate::view::FileView;

/// Largest hole (bytes) a sieved read bridges to merge two regions into
/// one transfer. One operation's latency buys about 120 KB of transfer
/// on both modeled file systems (blade/NFS 2 ms × 60 MB/s, Altix/XFS
/// 0.3 ms × 400 MB/s), so reading through a hole of up to half that is
/// always cheaper than issuing a second operation.
pub const SIEVE_HOLE_LIMIT: u64 = 64 * 1024;

/// User-facing plane knobs (the `--io-async`/`--burst-buffer` surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoOptions {
    /// Service data requests asynchronously (the `--io-async` knob):
    /// a request's runs are all in flight at once — a fragment's file
    /// reads posted together on input ([`IoPlane::submit_begin`]/
    /// [`IoPlane::wait`] pairs, where reads are not collective),
    /// fire-and-collect on output, checkpoint puts in flight while the
    /// rank searches. Off by default; the synchronous
    /// [`IoPlane::submit`] path is the paper's baseline.
    pub io_async: bool,
    /// Burst-buffer staging knobs (the `--burst-buffer` surface): when
    /// set, output and checkpoint writes are absorbed into the node's
    /// staging volume and drained asynchronously. `None` (the default)
    /// writes straight to the destination.
    pub burst: Option<BurstOptions>,
}

/// Full configuration of one plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaneConfig {
    /// Async and staging knobs.
    pub options: IoOptions,
    /// Collective-I/O tuning (aggregator count).
    pub hints: CollectiveHints,
    /// The class [`IoRequest::DbRead`] is serviced under. `TwoPhase`
    /// makes every database read a collective: all ranks of the
    /// communicator must post it together.
    pub input: IoClass,
    /// The class [`IoRequest::OutputWrite`] is serviced under, with the
    /// same collective contract for `TwoPhase`.
    pub output: IoClass,
}

impl Default for PlaneConfig {
    /// Synchronous, unstaged, independent on both paths: what a run
    /// that asked for no aggregation resolves to.
    fn default() -> PlaneConfig {
        PlaneConfig {
            options: IoOptions::default(),
            hints: CollectiveHints::default(),
            input: IoClass::Independent,
            output: IoClass::Independent,
        }
    }
}

/// A typed I/O request against the plane.
#[derive(Debug)]
pub enum IoRequest<'r> {
    /// Read the given regions of a shared database file.
    DbRead {
        /// File path on the shared file system.
        path: &'r str,
        /// Regions to read.
        view: &'r FileView,
    },
    /// Write scattered output records at master-assigned offsets.
    OutputWrite {
        /// Report path on the shared file system.
        path: &'r str,
        /// Regions to write (`payload` fills them in order).
        view: &'r FileView,
        /// The regions' bytes, concatenated.
        payload: &'r [u8],
    },
    /// Persist a checkpoint blob (whole file, created or replaced).
    CheckpointPut {
        /// Blob path.
        path: &'r str,
        /// Blob bytes.
        payload: &'r [u8],
    },
    /// Fetch a checkpoint blob (whole file).
    CheckpointGet {
        /// Blob path.
        path: &'r str,
    },
    /// Drop a checkpoint blob, if present.
    CheckpointDrop {
        /// Blob path.
        path: &'r str,
    },
}

/// What a serviced request returns.
#[derive(Debug, PartialEq, Eq)]
pub enum IoResponse {
    /// The requested bytes, in view-region order.
    Data(Vec<u8>),
    /// A write/drop completed.
    Done,
}

/// An in-flight request, returned by [`IoPlane::submit_begin`] and
/// joined with [`IoPlane::wait`]. While a handle is outstanding its
/// transfers proceed in virtual time — latency and contended bandwidth
/// elapse whether or not the owning rank is computing — so only the
/// *remainder* at `wait` is exposed as I/O wait.
///
/// A two-phase output write's handle is the rank's half of a
/// split-collective operation: `submit_begin` and `wait` are both
/// collective calls, and at most one collective handle may be
/// outstanding per plane. (A two-phase read is serviced synchronously
/// at begin time — still a collective call — and its handle is ready.)
/// Independent and sieved handles are purely local; any number may be
/// in flight (they contend for file-system bandwidth like concurrent
/// clients).
#[must_use = "every submit_begin must be paired with exactly one wait"]
pub struct IoHandle<'a, 'c> {
    op: &'static str,
    bytes: u64,
    kind: HandleKind<'a, 'c>,
}

enum HandleKind<'a, 'c> {
    /// The request was serviced (or failed) synchronously at begin time.
    Ready(Result<IoResponse, StoreError>),
    /// Independent/sieved read: in-flight run reads plus the region list
    /// for view-order assembly.
    Read {
        runs: Vec<(u64, AsyncIo)>,
        regions: Vec<(u64, u64)>,
    },
    /// Independent/sieved/checkpoint write: in-flight run writes.
    Write { ops: Vec<AsyncIo> },
    /// Split-collective write.
    CollWrite {
        file: MpiFile<'a, 'c>,
        pend: PendingWriteAll,
    },
}

impl IoHandle<'_, '_> {
    /// Earliest issue time among the handle's transfers, in virtual
    /// nanoseconds.
    fn issued_ns(&self) -> Option<u64> {
        match &self.kind {
            HandleKind::Ready(_) => None,
            HandleKind::Read { runs, .. } => runs.iter().map(|(_, op)| op.issued_at().0).min(),
            HandleKind::Write { ops } => ops.iter().map(|op| op.issued_at().0).min(),
            HandleKind::CollWrite { pend, .. } => pend.issued_ns(),
        }
    }
}

/// The typed access plane over one communicator and file system.
pub struct IoPlane<'a, 'c> {
    comm: &'a Comm<'c>,
    fs: &'a SimFs,
    cfg: PlaneConfig,
    staging: Option<RefCell<StagingStore>>,
}

impl<'a, 'c> IoPlane<'a, 'c> {
    /// Build a plane. `staging` is the rank's burst-buffer staging
    /// store, if it has one: output and checkpoint writes are absorbed
    /// into it and drain to `fs` in the background, and a
    /// [`BurstError::StagingFull`](burstfs::BurstError) push-back
    /// transparently degrades the affected run to a direct write.
    /// Database reads never stage.
    pub fn new(
        comm: &'a Comm<'c>,
        fs: &'a SimFs,
        cfg: PlaneConfig,
        staging: Option<StagingStore>,
    ) -> IoPlane<'a, 'c> {
        IoPlane {
            comm,
            fs,
            cfg,
            staging: staging.map(RefCell::new),
        }
    }

    /// The fence: join every pending staged drain, so every absorbed
    /// output and checkpoint byte has landed at the destination when
    /// this returns. Nothing to do on an unstaged plane.
    pub fn fence(&self) -> Result<(), StoreError> {
        match &self.staging {
            Some(cell) => cell.borrow_mut().fence(self.comm.ctx()),
            None => Ok(()),
        }
    }

    /// Whether database reads are true collectives (every rank must
    /// then post them together, and they embed a barrier).
    pub fn collective_reads(&self) -> bool {
        self.cfg.input == IoClass::TwoPhase
    }

    /// Whether output writes are true collectives, with the same
    /// contract.
    pub fn collective_writes(&self) -> bool {
        self.cfg.output == IoClass::TwoPhase
    }

    /// Service one typed request.
    pub fn submit(&self, req: IoRequest<'_>) -> Result<IoResponse, StoreError> {
        match req {
            IoRequest::DbRead { path, view } => self.read_view(path, view).map(IoResponse::Data),
            IoRequest::OutputWrite {
                path,
                view,
                payload,
            } => {
                self.write_view(path, view, payload)?;
                Ok(IoResponse::Done)
            }
            IoRequest::CheckpointPut { path, payload } => {
                let _span = tracelog::span_args(
                    tracelog::Lane::Io,
                    "plane.ckpt.put",
                    vec![("bytes", payload.len().into())],
                );
                self.note(IoClass::Independent, 1, payload.len() as u64);
                if try_stage(self.staging.as_ref(), self.comm.ctx(), path, 0, payload)? {
                    return Ok(IoResponse::Done);
                }
                self.fs.create(self.comm.ctx(), path);
                self.fs.write_at(self.comm.ctx(), path, 0, payload)?;
                Ok(IoResponse::Done)
            }
            IoRequest::CheckpointGet { path } => {
                let _span = tracelog::span(tracelog::Lane::Io, "plane.ckpt.get");
                let data = self.fs.read_all(self.comm.ctx(), path)?;
                self.note(IoClass::Independent, 1, data.len() as u64);
                Ok(IoResponse::Data(data))
            }
            IoRequest::CheckpointDrop { path } => {
                let _span = tracelog::span(tracelog::Lane::Io, "plane.ckpt.drop");
                // A staged blob whose drain is still in flight would land
                // *after* the delete and resurrect it; fence first.
                self.fence()?;
                self.fs.delete(self.comm.ctx(), path)?;
                Ok(IoResponse::Done)
            }
        }
    }

    // ---- convenience wrappers over `submit` ----

    /// Read a view of a database file ([`IoRequest::DbRead`]).
    pub fn db_read(&self, path: &str, view: &FileView) -> Result<Vec<u8>, StoreError> {
        match self.submit(IoRequest::DbRead { path, view })? {
            IoResponse::Data(d) => Ok(d),
            IoResponse::Done => unreachable!("reads return data"),
        }
    }

    /// Read a whole file (run setup: alias, queries, volume indexes).
    pub fn read_whole(&self, path: &str) -> Result<Vec<u8>, StoreError> {
        let data = self.fs.read_all(self.comm.ctx(), path)?;
        self.note(IoClass::Independent, 1, data.len() as u64);
        Ok(data)
    }

    /// Write scattered records ([`IoRequest::OutputWrite`]). Writes *do*
    /// fail — a full file system surfaces as
    /// [`StoreError::NoSpace`] — and the caller must degrade, not abort.
    ///
    /// Under [`IoOptions::io_async`] this is fire-and-collect: every run
    /// of the view goes in flight at once, so per-operation latencies
    /// overlap instead of summing (on the two-phase class it is the
    /// split collective — begin and wait are both posted by every rank).
    pub fn write_output(
        &self,
        path: &str,
        view: &FileView,
        payload: &[u8],
    ) -> Result<(), StoreError> {
        let req = IoRequest::OutputWrite {
            path,
            view,
            payload,
        };
        if self.cfg.options.io_async {
            self.wait(self.submit_begin(req)).map(|_| ())
        } else {
            self.submit(req).map(|_| ())
        }
    }

    /// Persist a checkpoint blob ([`IoRequest::CheckpointPut`]). Fails
    /// with [`StoreError::NoSpace`] on a full file system.
    pub fn checkpoint_put(&self, path: &str, payload: &[u8]) -> Result<(), StoreError> {
        self.submit(IoRequest::CheckpointPut { path, payload })
            .map(|_| ())
    }

    /// Fetch a checkpoint blob ([`IoRequest::CheckpointGet`]).
    pub fn checkpoint_get(&self, path: &str) -> Result<Vec<u8>, StoreError> {
        match self.submit(IoRequest::CheckpointGet { path })? {
            IoResponse::Data(d) => Ok(d),
            IoResponse::Done => unreachable!("gets return data"),
        }
    }

    /// Drop a checkpoint blob ([`IoRequest::CheckpointDrop`]).
    pub fn checkpoint_drop(&self, path: &str) -> Result<(), StoreError> {
        self.submit(IoRequest::CheckpointDrop { path }).map(|_| ())
    }

    // ---- asynchronous submission ----

    /// Begin servicing a request without blocking on the file system,
    /// returning a handle to [`IoPlane::wait`] on. Reads and writes stay
    /// in flight — contending for bandwidth like any concurrent
    /// client — while the rank computes; `wait` exposes only the
    /// remainder. A two-phase output write is a split collective (every
    /// rank must post begin and wait together); two-phase reads,
    /// checkpoint gets/drops and begin-time failures resolve immediately
    /// into a ready handle.
    pub fn submit_begin<'p>(&'p self, req: IoRequest<'_>) -> IoHandle<'p, 'c> {
        let (op, bytes, class) = match &req {
            IoRequest::DbRead { view, .. } => ("db_read", view.total_bytes(), self.cfg.input),
            IoRequest::OutputWrite { payload, .. } => {
                ("output_write", payload.len() as u64, self.cfg.output)
            }
            IoRequest::CheckpointPut { payload, .. } => {
                ("ckpt_put", payload.len() as u64, IoClass::Independent)
            }
            IoRequest::CheckpointGet { .. } => ("ckpt_get", 0, IoClass::Independent),
            IoRequest::CheckpointDrop { .. } => ("ckpt_drop", 0, IoClass::Independent),
        };
        tracelog::instant(
            tracelog::Lane::Io,
            "plane.async.begin",
            vec![
                ("op", op.into()),
                ("strategy", class.label().into()),
                ("bytes", bytes.into()),
            ],
        );
        let kind = match req {
            IoRequest::DbRead { path, view } if class != IoClass::TwoPhase => {
                self.note(class, view.regions.len() as u64, view.total_bytes());
                let regions: Vec<(u64, u64)> = view.absolute().collect();
                let begin_all = || -> Result<Vec<(u64, AsyncIo)>, StoreError> {
                    read_runs(&regions, class)
                        .into_iter()
                        .map(|(o, l)| Ok((o, self.fs.read_at_begin(self.comm.ctx(), path, o, l)?)))
                        .collect()
                };
                match begin_all() {
                    Ok(runs) => HandleKind::Read { runs, regions },
                    Err(e) => HandleKind::Ready(Err(e)),
                }
            }
            IoRequest::OutputWrite {
                path,
                view,
                payload,
            } => {
                assert_eq!(
                    payload.len() as u64,
                    view.total_bytes(),
                    "payload must exactly fill the view"
                );
                self.note(class, view.regions.len() as u64, view.total_bytes());
                match class {
                    IoClass::TwoPhase => {
                        let file = MpiFile::open(self.comm, self.fs, path)
                            .with_hints(self.cfg.hints)
                            .with_burst(self.staging.as_ref());
                        match file.write_at_all_begin(view, payload) {
                            Ok(pend) => HandleKind::CollWrite { file, pend },
                            Err(e) => HandleKind::Ready(Err(e)),
                        }
                    }
                    _ => {
                        let begin_all = || -> Result<Vec<AsyncIo>, StoreError> {
                            let mut ops = Vec::new();
                            for (o, d) in write_runs(view, payload, class == IoClass::Sieved) {
                                // Staged runs carry no handle: their drain
                                // is tracked by the staging store and
                                // joined at the next drain fence.
                                if try_stage(self.staging.as_ref(), self.comm.ctx(), path, o, &d)? {
                                    continue;
                                }
                                ops.push(self.fs.write_at_begin(self.comm.ctx(), path, o, d));
                            }
                            Ok(ops)
                        };
                        match begin_all() {
                            Ok(ops) => HandleKind::Write { ops },
                            Err(e) => HandleKind::Ready(Err(e)),
                        }
                    }
                }
            }
            IoRequest::CheckpointPut { path, payload } => {
                self.note(IoClass::Independent, 1, payload.len() as u64);
                match try_stage(self.staging.as_ref(), self.comm.ctx(), path, 0, payload) {
                    Ok(true) => HandleKind::Write { ops: Vec::new() },
                    Ok(false) => {
                        self.fs.create(self.comm.ctx(), path);
                        let op = self
                            .fs
                            .write_at_begin(self.comm.ctx(), path, 0, payload.to_vec());
                        HandleKind::Write { ops: vec![op] }
                    }
                    Err(e) => HandleKind::Ready(Err(e)),
                }
            }
            // Gets and drops are latency-bound metadata round trips; the
            // sync path already charges them faithfully. So it does the
            // two-phase read, which no caller posts ahead of its use.
            req @ (IoRequest::DbRead { .. }
            | IoRequest::CheckpointGet { .. }
            | IoRequest::CheckpointDrop { .. }) => HandleKind::Ready(self.submit(req)),
        };
        IoHandle { op, bytes, kind }
    }

    /// Join an in-flight request: block until its transfers complete,
    /// assemble the response, and (on the collective path) barrier. The
    /// exposed wait — everything this call blocks on — lands in a
    /// `plane.async.wait` span; the time the handle spent in flight
    /// before the join is reported as its `queued_ns` argument.
    pub fn wait(&self, handle: IoHandle<'_, 'c>) -> Result<IoResponse, StoreError> {
        let queued_ns = handle
            .issued_ns()
            .map_or(0, |t| self.comm.ctx().now().0.saturating_sub(t));
        let _span = tracelog::span_args(
            tracelog::Lane::Io,
            "plane.async.wait",
            vec![
                ("op", handle.op.into()),
                ("bytes", handle.bytes.into()),
                ("queued_ns", queued_ns.into()),
            ],
        );
        match handle.kind {
            HandleKind::Ready(result) => result,
            HandleKind::Read { runs, regions } => {
                let mut run_data: Vec<(u64, Vec<u8>)> = Vec::with_capacity(runs.len());
                for (o, op) in runs {
                    run_data.push((o, self.fs.io_wait(self.comm.ctx(), op)?));
                }
                Ok(IoResponse::Data(assemble(&regions, &run_data)))
            }
            HandleKind::Write { ops } => {
                // Wait for every write even after a failure: the others
                // are still in flight and still land.
                let mut err = None;
                for op in ops {
                    if let Err(e) = self.fs.io_wait(self.comm.ctx(), op) {
                        err.get_or_insert(e);
                    }
                }
                err.map_or(Ok(IoResponse::Done), Err)
            }
            HandleKind::CollWrite { file, pend } => {
                file.write_at_all_end(pend).map(|_| IoResponse::Done)
            }
        }
    }

    // ---- class execution ----

    fn note(&self, class: IoClass, requests: u64, bytes: u64) {
        self.fs.note_class(class, requests, bytes);
    }

    fn read_view(&self, path: &str, view: &FileView) -> Result<Vec<u8>, StoreError> {
        let class = self.cfg.input;
        let _span = tracelog::span_args(
            tracelog::Lane::Io,
            "plane.read",
            vec![
                ("strategy", class.label().into()),
                ("regions", view.regions.len().into()),
                ("bytes", view.total_bytes().into()),
            ],
        );
        self.note(class, view.regions.len() as u64, view.total_bytes());
        match class {
            IoClass::Independent | IoClass::Sieved => {
                let regions: Vec<(u64, u64)> = view.absolute().collect();
                let mut run_data: Vec<(u64, Vec<u8>)> = Vec::new();
                for (o, l) in read_runs(&regions, class) {
                    run_data.push((o, self.fs.read_at(self.comm.ctx(), path, o, l)?));
                }
                Ok(assemble(&regions, &run_data))
            }
            IoClass::TwoPhase => {
                let file = MpiFile::open(self.comm, self.fs, path).with_hints(self.cfg.hints);
                file.read_at_all(view)
            }
        }
    }

    fn write_view(&self, path: &str, view: &FileView, payload: &[u8]) -> Result<(), StoreError> {
        assert_eq!(
            payload.len() as u64,
            view.total_bytes(),
            "payload must exactly fill the view"
        );
        let class = self.cfg.output;
        let _span = tracelog::span_args(
            tracelog::Lane::Io,
            "plane.write",
            vec![
                ("strategy", class.label().into()),
                ("regions", view.regions.len().into()),
                ("bytes", view.total_bytes().into()),
            ],
        );
        self.note(class, view.regions.len() as u64, view.total_bytes());
        match class {
            IoClass::Independent | IoClass::Sieved => {
                for (o, d) in write_runs(view, payload, class == IoClass::Sieved) {
                    if try_stage(self.staging.as_ref(), self.comm.ctx(), path, o, &d)? {
                        continue;
                    }
                    self.fs.write_at(self.comm.ctx(), path, o, &d)?;
                }
                Ok(())
            }
            IoClass::TwoPhase => {
                let file = MpiFile::open(self.comm, self.fs, path)
                    .with_hints(self.cfg.hints)
                    .with_burst(self.staging.as_ref());
                file.write_at_all(view, payload)
            }
        }
    }
}

/// The runs a view's regions are read as: the regions themselves, or —
/// sieved — merged across holes of up to [`SIEVE_HOLE_LIMIT`] bytes.
fn read_runs(regions: &[(u64, u64)], class: IoClass) -> Vec<(u64, u64)> {
    if class == IoClass::Sieved {
        sieve_runs(regions, SIEVE_HOLE_LIMIT)
    } else {
        regions.to_vec()
    }
}

/// Slice every region out of the run that covers it, in view order.
/// Regions and runs are both sorted, so one forward cursor finds them.
fn assemble(regions: &[(u64, u64)], run_data: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let total = regions.iter().map(|&(_, l)| l).sum::<u64>() as usize;
    let mut out = Vec::with_capacity(total);
    let mut runs = run_data.iter().peekable();
    for &(abs, len) in regions {
        while runs
            .peek()
            .is_some_and(|(o, d)| abs + len > o + d.len() as u64)
        {
            runs.next();
        }
        let (o, d) = runs.peek().expect("every region lies in a run");
        let start = (abs - o) as usize;
        out.extend_from_slice(&d[start..start + len as usize]);
    }
    out
}

/// Merge sorted, disjoint absolute regions into read runs, bridging
/// holes of at most `threshold` bytes.
fn sieve_runs(regions: &[(u64, u64)], threshold: u64) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for &(o, l) in regions {
        match out.last_mut() {
            Some((ro, rl)) if o - (*ro + *rl) <= threshold => *rl = o + l - *ro,
            _ => out.push((o, l)),
        }
    }
    out
}

/// Materialize a view's write runs: one `(offset, bytes)` per region,
/// or — when `coalesce` (the sieve write path) — merging only strictly
/// adjacent regions. Writing *through* a hole would clobber bytes other
/// ranks own, so holes always split runs.
fn write_runs(view: &FileView, payload: &[u8], coalesce: bool) -> Vec<(u64, Vec<u8>)> {
    let mut out: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut cursor = 0usize;
    for (abs, len) in view.absolute() {
        let piece = &payload[cursor..cursor + len as usize];
        cursor += len as usize;
        match out.last_mut() {
            Some((o, d)) if coalesce && *o + d.len() as u64 == abs => d.extend_from_slice(piece),
            _ => out.push((abs, piece.to_vec())),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{Collectives, NetProfile};
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

    /// A synchronous plane servicing both request kinds under `class`.
    fn plane_cfg(class: IoClass) -> PlaneConfig {
        PlaneConfig {
            options: IoOptions::default(),
            hints: CollectiveHints { aggregators: 2 },
            input: class,
            output: class,
        }
    }

    /// A staging store over a fresh per-rank staging volume; the volume
    /// handle comes back too, so tests can read its counters.
    fn staging_store(
        ctx: &simcluster::RankCtx,
        dest: &SimFs,
        capacity: u64,
    ) -> (SimFs, StagingStore) {
        let volume = SimFs::new(ctx.handle(), &format!("stage{}", ctx.rank()), fsprofile());
        let store = StagingStore::new(
            volume.clone(),
            dest.clone(),
            BurstOptions {
                stripe_files: 2,
                stripe_unit: 8,
                capacity,
            },
            burstfs::DeviceModel {
                op_latency: 1e-5,
                bandwidth: 1e9,
            },
        );
        (volume, store)
    }

    #[test]
    fn sieve_runs_bridge_small_holes_only() {
        let regions = vec![(0u64, 10u64), (12, 8), (100, 5), (105, 5)];
        assert_eq!(sieve_runs(&regions, 2), vec![(0, 20), (100, 10)]);
        assert_eq!(
            sieve_runs(&regions, 0),
            vec![(0, 10), (12, 8), (100, 10)],
            "threshold 0 still merges adjacency"
        );
        assert_eq!(sieve_runs(&regions, 1 << 30), vec![(0, 110)]);
        assert!(sieve_runs(&[], 4).is_empty());
    }

    #[test]
    fn all_classes_read_the_same_bytes() {
        let content: Vec<u8> = (0..500u32).map(|i| (i % 251) as u8).collect();
        for class in IoClass::ALL {
            let sim = Sim::new(3);
            let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
            fs.preload("db", content.clone());
            let fs2 = fs.clone();
            let out = sim.run(move |ctx| {
                let comm = Comm::new(&ctx, net());
                let plane = IoPlane::new(&comm, &fs2, plane_cfg(class), None);
                let base = 100 * ctx.rank() as u64;
                let view = FileView::new(base, vec![(0, 20), (30, 10), (90, 10)]).unwrap();
                plane.db_read("db", &view).unwrap()
            });
            for (r, got) in out.outputs.iter().enumerate() {
                let base = 100 * r;
                let mut want = content[base..base + 20].to_vec();
                want.extend_from_slice(&content[base + 30..base + 40]);
                want.extend_from_slice(&content[base + 90..base + 100]);
                assert_eq!(got, &want, "{} rank {r}", class.label());
            }
        }
    }

    #[test]
    fn sieved_reads_are_fewer_than_independent() {
        let content = vec![7u8; 4000];
        let run = |cfg: PlaneConfig| -> (u64, u64) {
            let sim = Sim::new(1);
            let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
            fs.preload("db", content.clone());
            let fs2 = fs.clone();
            sim.run(move |ctx| {
                let comm = Comm::new(&ctx, net());
                let plane = IoPlane::new(&comm, &fs2, cfg, None);
                // 16 regions with 8-byte holes: one sieved run.
                let regions: Vec<(u64, u64)> = (0..16).map(|i| (i * 40, 32)).collect();
                let view = FileView::new(0, regions).unwrap();
                plane.db_read("db", &view).unwrap();
            });
            (
                fs.counters().data_ops,
                fs.class_tally(IoClass::Independent).requests,
            )
        };
        assert_eq!(run(plane_cfg(IoClass::Sieved)), (1, 0));
        // The default configuration is the no-aggregation resolution:
        // one physical read per region, tallied as independent.
        assert_eq!(run(PlaneConfig::default()), (16, 16));
    }

    #[test]
    fn sieved_writes_coalesce_only_adjacent_regions() {
        let sim = Sim::new(2);
        let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
        let fs2 = fs.clone();
        sim.run(move |ctx| {
            let comm = Comm::new(&ctx, net());
            let plane = IoPlane::new(&comm, &fs2, plane_cfg(IoClass::Sieved), None);
            // Interleaved: rank r owns records r, r+2, r+4, ... of 10 bytes.
            let me = ctx.rank() as u64;
            let regions: Vec<(u64, u64)> = (0..4).map(|i| ((2 * i + me) * 10, 10)).collect();
            let view = FileView::new(0, regions).unwrap();
            let data = vec![me as u8 + 1; 40];
            plane.write_output("out", &view, &data).unwrap();
        });
        let written = fs.peek("out").unwrap();
        assert_eq!(written.len(), 80);
        for rec in 0..8u64 {
            let want = (rec % 2) as u8 + 1;
            assert!(
                written[(rec * 10) as usize..(rec * 10 + 10) as usize]
                    .iter()
                    .all(|&b| b == want),
                "record {rec}: a sieved write must never fill holes"
            );
        }
        // No coalescing happened (every hole is another rank's record),
        // so each rank issued one write per region.
        assert_eq!(fs.counters().data_ops, 8);
    }

    #[test]
    fn sieved_requests_need_no_partner() {
        let sim = Sim::new(2);
        let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
        fs.preload("db", vec![3u8; 1000]);
        let fs2 = fs.clone();
        sim.run(move |ctx| {
            let comm = Comm::new(&ctx, net());
            let plane = IoPlane::new(&comm, &fs2, plane_cfg(IoClass::Sieved), None);
            assert!(!plane.collective_reads() && !plane.collective_writes());
            // Only rank 1 posts a request: on the two-phase class this
            // would deadlock in the view exchange.
            if ctx.rank() == 1 {
                let view = FileView::new(0, vec![(0, 8), (16, 8)]).unwrap();
                assert_eq!(plane.db_read("db", &view).unwrap(), vec![3u8; 16]);
            }
        });
        assert_eq!(fs.class_tally(IoClass::Sieved).requests, 2);
        assert_eq!(fs.class_tally(IoClass::Sieved).bytes, 16);
        assert_eq!(fs.class_tally(IoClass::TwoPhase).requests, 0);
    }

    #[test]
    fn class_tallies_attribute_logical_traffic() {
        let sim = Sim::new(2);
        let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
        let fs2 = fs.clone();
        sim.run(move |ctx| {
            let comm = Comm::new(&ctx, net());
            let plane = IoPlane::new(&comm, &fs2, plane_cfg(IoClass::TwoPhase), None);
            assert!(plane.collective_reads() && plane.collective_writes());
            let me = ctx.rank() as u64;
            let view = FileView::new(0, vec![(me * 50, 50), (100 + me * 50, 50)]).unwrap();
            plane.write_output("out", &view, &[me as u8; 100]).unwrap();
            // Checkpoint round trip rides the independent class.
            let blob = vec![me as u8; 30];
            let path = format!("ckpt.{me}");
            plane.checkpoint_put(&path, &blob).unwrap();
            assert_eq!(plane.checkpoint_get(&path).unwrap(), blob);
            plane.checkpoint_drop(&path).unwrap();
        });
        let two_phase = fs.class_tally(IoClass::TwoPhase);
        assert_eq!(two_phase.requests, 4);
        assert_eq!(two_phase.bytes, 200);
        let indep = fs.class_tally(IoClass::Independent);
        assert_eq!(indep.requests, 4, "2 puts + 2 gets");
        assert_eq!(indep.bytes, 120);
        assert_eq!(fs.counters().bytes_written, 200 + 60);
    }

    #[test]
    fn async_handles_return_the_same_bytes_as_sync() {
        let content: Vec<u8> = (0..500u32).map(|i| (i % 251) as u8).collect();
        for class in IoClass::ALL {
            let sim = Sim::new(3);
            let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
            fs.preload("db", content.clone());
            let fs2 = fs.clone();
            sim.run(move |ctx| {
                let comm = Comm::new(&ctx, net());
                let plane = IoPlane::new(&comm, &fs2, plane_cfg(class), None);
                let base = 100 * ctx.rank() as u64;
                let view = FileView::new(base, vec![(0, 20), (30, 10), (90, 10)]).unwrap();
                let sync = plane.db_read("db", &view).unwrap();
                let handle = plane.submit_begin(IoRequest::DbRead {
                    path: "db",
                    view: &view,
                });
                match plane.wait(handle).unwrap() {
                    IoResponse::Data(d) => assert_eq!(d, sync, "{} read", class.label()),
                    IoResponse::Done => panic!("reads return data"),
                }
                // Scattered writes land the same bytes on both paths:
                // `write_output` is the sync path here and the
                // begin/wait pair on an `io_async` plane.
                let me = ctx.rank() as u64;
                let wview = FileView::new(0, vec![(me * 30, 15), (90 + me * 30, 15)]).unwrap();
                let payload = vec![me as u8 + 1; 30];
                plane.write_output("out.sync", &wview, &payload).unwrap();
                let mut cfg = plane_cfg(class);
                cfg.options.io_async = true;
                IoPlane::new(&comm, &fs2, cfg, None)
                    .write_output("out.async", &wview, &payload)
                    .unwrap();
            });
            assert_eq!(
                fs.peek("out.sync").unwrap(),
                fs.peek("out.async").unwrap(),
                "{} write",
                class.label()
            );
        }
    }

    #[test]
    fn async_output_writes_overlap_their_latencies() {
        // 32 scattered records on the independent class: the sync path
        // charges 32 operation latencies back to back, `io_async` puts
        // every run in flight at once.
        let elapsed = |io_async: bool| -> u64 {
            let sim = Sim::new(1);
            let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
            let out = sim.run(move |ctx| {
                let comm = Comm::new(&ctx, net());
                let mut cfg = plane_cfg(IoClass::Independent);
                cfg.options.io_async = io_async;
                let plane = IoPlane::new(&comm, &fs, cfg, None);
                let view = FileView::new(0, (0..32).map(|i| (i * 20, 10)).collect()).unwrap();
                let start = ctx.now();
                plane.write_output("out", &view, &[1u8; 320]).unwrap();
                (ctx.now() - start).0
            });
            out.outputs[0]
        };
        let (sync, overlapped) = (elapsed(false), elapsed(true));
        assert!(sync >= 32 * 100_000, "32 serial 0.1 ms latencies: {sync}");
        assert!(
            overlapped < sync / 8,
            "sync {sync} ns, async {overlapped} ns"
        );
    }

    #[test]
    fn async_reads_overlap_compute() {
        let sim = Sim::new(1);
        let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
        fs.preload("db", vec![1u8; 50_000_000]);
        let fs2 = fs.clone();
        let out = sim.run(move |ctx| {
            let comm = Comm::new(&ctx, net());
            let plane = IoPlane::new(&comm, &fs2, plane_cfg(IoClass::Sieved), None);
            let view = FileView::contiguous(0, 50_000_000);
            let start = ctx.now();
            let handle = plane.submit_begin(IoRequest::DbRead {
                path: "db",
                view: &view,
            });
            ctx.charge(SimDuration::from_millis(300));
            match plane.wait(handle).unwrap() {
                IoResponse::Data(d) => assert_eq!(d.len(), 50_000_000),
                IoResponse::Done => panic!("reads return data"),
            }
            (ctx.now() - start).0
        });
        // 50 MB at 100 MB/s is 0.5 s (plus 0.1 ms op latency); the
        // 0.3 s of compute must hide entirely inside the transfer.
        let elapsed = out.outputs[0] as f64 / 1e9;
        assert!(elapsed > 0.4999, "transfer time still elapses: {elapsed}");
        assert!(elapsed < 0.5002, "compute must overlap I/O: {elapsed}");
    }

    #[test]
    fn full_file_system_degrades_writes_to_errors() {
        let sim = Sim::new(1);
        let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
        fs.set_capacity(100);
        let fs2 = fs.clone();
        sim.run(move |ctx| {
            let comm = Comm::new(&ctx, net());
            let plane = IoPlane::new(&comm, &fs2, PlaneConfig::default(), None);
            // Sync paths surface the late ENOSPC as a typed error.
            assert!(matches!(
                plane.checkpoint_put("ckpt", &[0u8; 200]),
                Err(StoreError::NoSpace { .. })
            ));
            let view = FileView::contiguous(0, 150);
            assert!(matches!(
                plane.write_output("out", &view, &[0u8; 150]),
                Err(StoreError::NoSpace { .. })
            ));
            // Async: the failure lands at wait time, not begin time.
            let h = plane.submit_begin(IoRequest::CheckpointPut {
                path: "ckpt2",
                payload: &[0u8; 200],
            });
            assert!(matches!(plane.wait(h), Err(StoreError::NoSpace { .. })));
            // A blob that fits still goes through.
            plane.checkpoint_put("small", &[7u8; 40]).unwrap();
        });
        assert_eq!(fs.peek("small").unwrap(), vec![7u8; 40]);
    }

    #[test]
    fn staged_writes_land_identically_after_the_fence() {
        // Every class, on a plane that owns a staging store: scattered
        // output and a checkpoint blob must land byte-identically to the
        // unstaged run once the fence has been posted.
        for class in IoClass::ALL {
            let sim = Sim::new(3);
            let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
            let fs2 = fs.clone();
            let out = sim.run(move |ctx| {
                let comm = Comm::new(&ctx, net());
                let me = ctx.rank() as u64;
                let view = FileView::new(0, vec![(me * 30, 15), (90 + me * 30, 15)]).unwrap();
                let payload = vec![me as u8 + 1; 30];
                let direct = IoPlane::new(&comm, &fs2, plane_cfg(class), None);
                direct.write_output("out.direct", &view, &payload).unwrap();
                let (volume, store) = staging_store(&ctx, &fs2, 1 << 20);
                let staged = IoPlane::new(&comm, &fs2, plane_cfg(class), Some(store));
                staged.write_output("out.staged", &view, &payload).unwrap();
                let blob = vec![me as u8; 25];
                staged.checkpoint_put(&format!("ck.{me}"), &blob).unwrap();
                staged.fence().unwrap();
                // Checkpoints read back from the *destination*.
                assert_eq!(staged.checkpoint_get(&format!("ck.{me}")).unwrap(), blob);
                comm.barrier();
                volume.counters().bytes_written
            });
            // Nothing bounced: every output byte and every blob went
            // through some rank's staging volume.
            assert_eq!(out.outputs.iter().sum::<u64>(), 3 * (30 + 25));
            assert_eq!(
                fs.peek("out.direct").unwrap(),
                fs.peek("out.staged").unwrap(),
                "{} staged write",
                class.label()
            );
        }
    }

    #[test]
    fn staging_backpressure_degrades_to_direct_writes() {
        // A staging volume too small for the run: every put bounces and
        // the bytes still land via the direct path.
        let sim = Sim::new(1);
        let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
        let fs2 = fs.clone();
        let out = sim.run(move |ctx| {
            let comm = Comm::new(&ctx, net());
            let (volume, store) = staging_store(&ctx, &fs2, 10);
            let plane = IoPlane::new(&comm, &fs2, PlaneConfig::default(), Some(store));
            let view = FileView::contiguous(0, 100);
            plane.write_output("out", &view, &[5u8; 100]).unwrap();
            plane.fence().unwrap();
            volume.counters().bytes_written
        });
        assert_eq!(out.outputs[0], 0, "nothing fit the staging volume");
        assert_eq!(fs.peek("out").unwrap(), vec![5u8; 100]);
    }

    #[test]
    fn checkpoint_get_of_a_missing_blob_is_a_typed_error() {
        let sim = Sim::new(1);
        let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
        let fs2 = fs.clone();
        sim.run(move |ctx| {
            let comm = Comm::new(&ctx, net());
            let plane = IoPlane::new(&comm, &fs2, PlaneConfig::default(), None);
            assert!(matches!(
                plane.checkpoint_get("absent"),
                Err(StoreError::NotFound { .. })
            ));
        });
    }
}
