//! The I/O plane: one typed access interface over [`MpiFile`], built
//! once per rank, that owns how the bytes move.
//!
//! Consumers say *what* they touch through one verb per kind of data —
//! database regions ([`IoPlane::read_views`]), whole setup files
//! ([`IoPlane::read_whole`]), scattered output records
//! ([`IoPlane::write_output`]), checkpoint blobs
//! ([`IoPlane::checkpoint_put`] and friends); the plane services each
//! kind under one access class ([`parafs::IoClass`]), fixed when the
//! plane is built:
//!
//! * `Independent` issues one file-system operation per view region on
//!   reads (the paper's default input mode), and one per stretch of
//!   strictly adjacent regions on writes.
//! * `Sieved` applies data sieving (Thakur et al., *Optimizing
//!   Noncontiguous Accesses in MPI-IO*): on reads, regions whose holes
//!   are at most [`SIEVE_HOLE_LIMIT`] bytes are serviced by one larger
//!   read spanning the holes; on writes it joins only hole-free
//!   (strictly adjacent) regions, as the independent class does — the
//!   classic read-modify-write across holes is deliberately omitted,
//!   because in pioBLAST the holes of one rank's output view are
//!   exactly the records other ranks are writing concurrently.
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
//! The plane also owns the *issue policy* ([`IoOptions::io_async`]):
//! whether a request's runs go to the file system one after another or
//! all at once, and whether a checkpoint put is joined before the verb
//! returns or parked until [`IoPlane::checkpoint_join`] — as an output
//! write posted with [`IoPlane::post_output`] is parked until
//! [`IoPlane::output_join`]. Posted is the default: a real client keeps
//! several requests in flight, so their per-operation latencies overlap
//! instead of summing. Servicing runs in turn is kept only for
//! ablations that set the field by name. Either way a run is the same
//! file-system operation.
//!
//! The two-phase class opens its output file (one metadata operation
//! per rank) when it writes, unless [`IoPlane::open_output`] opened it
//! earlier, where the rank was idle anyway.
//!
//! And it owns the rank's burst-buffer staging sink, when there is
//! one: output and checkpoint writes are absorbed into it and drain in
//! the background, and [`IoPlane::fence`] joins the drains. *When* to
//! fence is the caller's durability policy; *what* a fence joins is the
//! plane's business.
//!
//! Every serviced request is attributed to its class's tally on the
//! backing file system so benches can break traffic down by class.

use std::cell::RefCell;
use std::collections::VecDeque;

use burstfs::{BurstOptions, StagingStore};
use bytes::Bytes;
use parafs::{AsyncIo, IoClass, SimFs, StoreError};

use mpisim::Comm;

use crate::fileio::{CollectiveHints, MpiFile};
use crate::runs::{cut, merge, merge_bytes, pieces, Cover, Run};
use crate::stage::{Pending, Sink};
use crate::view::FileView;

/// Largest hole (bytes) a sieved read bridges to merge two regions into
/// one transfer. One operation's latency buys about 120 KB of transfer
/// on both modeled file systems (blade/NFS 2 ms × 60 MB/s, Altix/XFS
/// 0.3 ms × 400 MB/s), so reading through a hole of up to half that is
/// always cheaper than issuing a second operation.
pub const SIEVE_HOLE_LIMIT: u64 = 64 * 1024;

/// User-facing plane knobs (the `--burst-buffer` surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoOptions {
    /// Post data requests instead of servicing them in turn: a
    /// request's runs are all in flight at once — a fragment's file
    /// reads posted together on input (where reads are not collective),
    /// fire-and-collect on output, checkpoint puts in flight while the
    /// rank searches. On by default (`--io-async` is accepted and changes
    /// nothing); `false`, one run after another, is reachable only by
    /// setting the field, as `ablate_io`'s blocking rows do.
    pub io_async: bool,
    /// Burst-buffer staging knobs (the `--burst-buffer` surface): when
    /// set, output and checkpoint writes are absorbed into the node's
    /// staging volume and drained asynchronously. `None` (the default)
    /// writes straight to the destination.
    pub burst: Option<BurstOptions>,
}

impl Default for IoOptions {
    /// Posted and unstaged.
    fn default() -> IoOptions {
        IoOptions {
            io_async: true,
            burst: None,
        }
    }
}

/// Full configuration of one plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaneConfig {
    /// Async and staging knobs.
    pub options: IoOptions,
    /// Collective-I/O tuning (aggregator count).
    pub hints: CollectiveHints,
    /// The class [`IoPlane::read_views`] is serviced under. `TwoPhase`
    /// makes every database read a collective: all ranks of the
    /// communicator must post it together.
    pub input: IoClass,
    /// The class [`IoPlane::write_output`] is serviced under, with the
    /// same collective contract for `TwoPhase`.
    pub output: IoClass,
}

impl Default for PlaneConfig {
    /// Posted, unstaged, independent on both paths: what a run that
    /// asked for no aggregation resolves to.
    fn default() -> PlaneConfig {
        PlaneConfig {
            options: IoOptions::default(),
            hints: CollectiveHints::default(),
            input: IoClass::Independent,
            output: IoClass::Independent,
        }
    }
}

/// A posted request, from the verb that issued its runs to
/// [`IoPlane::wait`]. While a handle is outstanding its transfers
/// proceed in virtual time — latency and contended bandwidth elapse
/// whether or not the owning rank is computing — so only the
/// *remainder* at `wait` is exposed as I/O wait.
///
/// A two-phase output write's handle is the rank's half of a
/// split-collective operation: begin and wait are both collective
/// calls. Independent and sieved handles are purely local; any number
/// may be in flight (they contend for file-system bandwidth like
/// concurrent clients).
#[must_use = "every begin must be paired with exactly one wait"]
struct IoHandle<'a, 'c> {
    op: &'static str,
    bytes: u64,
    kind: HandleKind<'a, 'c>,
}

enum HandleKind<'a, 'c> {
    /// The request failed at begin time.
    Failed(StoreError),
    /// Independent/sieved read: in-flight run reads, by offset.
    Read(Vec<(u64, AsyncIo)>),
    /// Independent/sieved/checkpoint write: its issued runs.
    Write(Pending),
    /// Split-collective write.
    CollWrite {
        file: MpiFile<'a, 'c>,
        pend: Pending,
    },
}

/// Database views posted by [`IoPlane::post_views`], until
/// [`IoPlane::wait_views`] joins them.
#[must_use = "posted views are read by waiting on them"]
pub struct PostedViews<'p, 'c>(Posted<'p, 'c>);

enum Posted<'p, 'c> {
    /// Serviced when posted, on a plane that does not post reads.
    Done(Result<Vec<Cover>, StoreError>),
    /// One handle per view, its runs in flight.
    InFlight(Vec<IoHandle<'p, 'c>>),
}

/// The typed access plane over one communicator and file system.
pub struct IoPlane<'a, 'c> {
    comm: &'a Comm<'c>,
    fs: &'a SimFs,
    cfg: PlaneConfig,
    staging: Option<RefCell<StagingStore>>,
    /// Checkpoint puts fired under `io_async` and not yet joined, oldest
    /// first: each blob's size and its issued write.
    parked: RefCell<VecDeque<(u64, Pending)>>,
    /// The output write [`IoPlane::post_output`] left in flight and
    /// [`IoPlane::output_join`] has not joined: its size and its runs.
    output: RefCell<Option<(u64, Pending)>>,
    /// The two-phase output file [`IoPlane::open_output`] opened ahead
    /// of the write that takes it.
    opened: RefCell<Option<MpiFile<'a, 'c>>>,
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
            parked: RefCell::default(),
            output: RefCell::default(),
            opened: RefCell::default(),
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

    /// Whether [`IoPlane::read_views`] posts a set's reads together
    /// (`io_async`, reads not collective) instead of servicing them in
    /// turn. Only then can a caller compute between
    /// [`IoPlane::post_views`] and [`IoPlane::wait_views`], as reading
    /// ahead inside a fragment does.
    pub fn posts_reads(&self) -> bool {
        self.cfg.options.io_async && !self.collective_reads()
    }

    /// Whether output writes are posted (`io_async`, writes not
    /// collective): only then does [`IoPlane::post_output`] leave a
    /// write in flight.
    pub fn posts_writes(&self) -> bool {
        self.cfg.options.io_async && !self.collective_writes()
    }

    // ---- the typed verbs ----

    /// Read a whole file (run setup: alias, queries, volume indexes).
    pub fn read_whole(&self, path: &str) -> Result<Bytes, StoreError> {
        let data = self.fs.read_all(self.comm.ctx(), path)?;
        self.fs
            .note_class(IoClass::Independent, 1, data.len() as u64);
        Ok(data)
    }

    /// Read views of shared database files, returning for each view a
    /// [`Cover`] that holds every one of its regions — as views of what
    /// the file system holds, wherever one write holds a run. Where the
    /// plane posts reads ([`IoPlane::posts_reads`]) every view's runs are
    /// begun before the first is joined, so their latencies overlap
    /// instead of summing; otherwise the views are serviced one after
    /// another.
    pub fn read_views(&self, files: &[(&str, &FileView)]) -> Result<Vec<Cover>, StoreError> {
        self.wait_views(self.post_views(files))
    }

    /// The first half of [`IoPlane::read_views`]: where the plane posts
    /// reads, every view's runs are in flight on return, and the caller
    /// may compute before [`IoPlane::wait_views`] joins them — the
    /// transfer proceeds in virtual time meanwhile, so only what is left
    /// of it at the join is exposed. Otherwise the views are serviced
    /// here, one after another, and the wait returns what they gave.
    pub fn post_views<'p>(&'p self, files: &[(&str, &FileView)]) -> PostedViews<'p, 'c> {
        if !self.posts_reads() {
            let read = files.iter().map(|(p, v)| self.read_view(p, v)).collect();
            return PostedViews(Posted::Done(read));
        }
        PostedViews(Posted::InFlight(
            files.iter().map(|(p, v)| self.begin_read(p, v)).collect(),
        ))
    }

    /// Join views posted by [`IoPlane::post_views`], returning a
    /// [`Cover`] per view as [`IoPlane::read_views`] does.
    pub fn wait_views(&self, posted: PostedViews<'_, 'c>) -> Result<Vec<Cover>, StoreError> {
        match posted.0 {
            Posted::Done(read) => read,
            Posted::InFlight(handles) => handles.into_iter().map(|h| self.wait(h)).collect(),
        }
    }

    /// Write scattered records at master-assigned offsets (`payload`
    /// fills the view's regions in order; each region's run is views of
    /// its pieces, so the buffers handed over — the records themselves,
    /// one piece each — are what the file system stores). Writes *do*
    /// fail — a full file system surfaces as [`StoreError::NoSpace`] —
    /// and the caller must degrade, not abort.
    ///
    /// Under [`IoOptions::io_async`] this is fire-and-collect: every run
    /// of the view goes in flight at once, so per-operation latencies
    /// overlap instead of summing (on the two-phase class it is the
    /// split collective — begin and wait are both posted by every rank).
    /// Otherwise each run is joined as it is issued.
    pub fn write_output(
        &self,
        path: &str,
        view: &FileView,
        payload: impl Into<Run>,
    ) -> Result<(), StoreError> {
        let payload = payload.into();
        assert_eq!(
            payload.len(),
            view.total_bytes(),
            "payload must exactly fill the view"
        );
        let posted = self.cfg.options.io_async;
        let (op, bytes, class) = ("output_write", payload.len(), self.cfg.output);
        let _span = self.open(posted, "plane.write", op, class, view);
        let kind = if class == IoClass::TwoPhase {
            let file = self
                .output_file(path)
                .with_hints(self.cfg.hints)
                .with_burst(self.staging.as_ref());
            match file.issue_write_all(view, &payload, !posted) {
                Ok(pend) => HandleKind::CollWrite { file, pend },
                Err(e) => HandleKind::Failed(e),
            }
        } else {
            // One run per stretch of strictly adjacent regions, on both
            // per-rank classes: writing *through* a hole would clobber
            // bytes other ranks own, so holes always split runs.
            let runs = merge_bytes(cut(view.absolute(), &payload));
            HandleKind::Write(self.sink().issue(path, runs, !posted, false))
        };
        if posted {
            self.wait(IoHandle { op, bytes, kind }).map(drop)
        } else {
            self.join(kind).map(drop)
        }
    }

    /// Open `path` for the next two-phase output write to it, so that
    /// write need not: `MPI_File_open`'s one metadata operation per
    /// rank. A rank calls this where it would wait anyway (a worker once
    /// it has submitted, the master while the workers search), which
    /// takes the open off the write's critical path.
    /// Only the two-phase class opens a file to write, so on the others
    /// this does nothing; nor does opening the path that is open.
    pub fn open_output(&self, path: &str) {
        if !self.collective_writes() {
            return;
        }
        let mut opened = self.opened.borrow_mut();
        if opened.as_ref().is_none_or(|file| file.path() != path) {
            let _span = tracelog::span(tracelog::Lane::Io, "plane.open");
            *opened = Some(MpiFile::open(self.comm, self.fs, path));
        }
    }

    /// The file [`IoPlane::open_output`] opened for `path`, or `path`
    /// opened now.
    fn output_file(&self, path: &str) -> MpiFile<'a, 'c> {
        match self.opened.borrow_mut().take() {
            Some(file) if file.path() == path => file,
            _ => MpiFile::open(self.comm, self.fs, path),
        }
    }

    /// Write scattered records as [`IoPlane::write_output`] does, but
    /// where the plane posts writes ([`IoPlane::posts_writes`]) leave
    /// every run in flight and park the write: it lands while the rank
    /// works on, and its outcome — failures included — comes back from
    /// [`IoPlane::output_join`], never from this call. `on_landed` runs
    /// when the last run has landed, in its completion callback on the
    /// engine (at once if every run was staged), and never if a run
    /// fails or the rank is killed first — the point where an MPI
    /// library with asynchronous progress would complete the request.
    /// Elsewhere the write is serviced here, and `on_landed` runs once
    /// it succeeded. One write is parked at a time.
    pub fn post_output(
        &self,
        path: &str,
        view: &FileView,
        payload: impl Into<Run>,
        on_landed: impl FnOnce() + Send + 'static,
    ) -> Result<(), StoreError> {
        if !self.posts_writes() {
            self.write_output(path, view, payload)?;
            on_landed();
            return Ok(());
        }
        let payload = payload.into();
        assert_eq!(
            payload.len(),
            view.total_bytes(),
            "payload must exactly fill the view"
        );
        assert!(
            self.output.borrow().is_none(),
            "an output write is parked already"
        );
        let (op, bytes, class) = ("output_write", payload.len(), self.cfg.output);
        self.open(true, "plane.write", op, class, view);
        let runs = merge_bytes(cut(view.absolute(), &payload));
        let pend = self.sink().issue(path, runs, false, false);
        pend.on_landed(self.fs, on_landed);
        *self.output.borrow_mut() = Some((bytes, pend));
        Ok(())
    }

    /// Whether the parked output write has completed — its join would
    /// not block — or none is parked.
    pub fn output_done(&self) -> bool {
        self.output
            .borrow()
            .as_ref()
            .is_none_or(|(_, p)| p.is_done())
    }

    /// Join the output write [`IoPlane::post_output`] parked — block
    /// until every run has landed or failed — or return `None` when none
    /// is parked.
    pub fn output_join(&self) -> Option<Result<(), StoreError>> {
        let (bytes, pend) = self.output.borrow_mut().take()?;
        let (op, kind) = ("output_write", HandleKind::Write(pend));
        Some(self.wait(IoHandle { op, bytes, kind }).map(drop))
    }

    /// Persist a checkpoint blob (whole file, created or replaced).
    /// Fails with [`StoreError::NoSpace`] on a full file system.
    ///
    /// Under [`IoOptions::io_async`] this is fire-and-collect too: the
    /// blob's write stays in flight while the rank works on, the plane
    /// parks it, and its outcome — failures included — comes back from
    /// [`IoPlane::checkpoint_join`], never from this call.
    pub fn checkpoint_put(&self, path: &str, payload: impl Into<Bytes>) -> Result<(), StoreError> {
        let payload = payload.into();
        let bytes = payload.len() as u64;
        let put = move |joined: bool| {
            self.fs.note_class(IoClass::Independent, 1, bytes);
            self.sink()
                .issue(path, vec![(0, Run::from(payload))], joined, true)
        };
        if self.cfg.options.io_async {
            begin_instant("ckpt_put", IoClass::Independent, bytes);
            self.parked.borrow_mut().push_back((bytes, put(false)));
            return Ok(());
        }
        let _span = tracelog::span_args(
            tracelog::Lane::Io,
            "plane.ckpt.put",
            vec![("bytes", bytes.into())],
        );
        self.sink().join(put(true))
    }

    /// Join the oldest checkpoint put still parked — block until its
    /// write has landed or failed — or return `None` when none is.
    /// Callers loop on this where acknowledged results must not outrun
    /// their checkpoints.
    pub fn checkpoint_join(&self) -> Option<Result<(), StoreError>> {
        let (bytes, pend) = self.parked.borrow_mut().pop_front()?;
        let (op, kind) = ("ckpt_put", HandleKind::Write(pend));
        Some(self.wait(IoHandle { op, bytes, kind }).map(drop))
    }

    /// Fetch a checkpoint blob (whole file).
    pub fn checkpoint_get(&self, path: &str) -> Result<Bytes, StoreError> {
        let _span = tracelog::span(tracelog::Lane::Io, "plane.ckpt.get");
        self.read_whole(path)
    }

    /// Drop every checkpoint blob of `paths` that is present, the
    /// deletes posted together ([`SimFs::delete_all`]). Returns how many
    /// were present.
    pub fn checkpoint_drop_all(&self, paths: &[String]) -> Result<usize, StoreError> {
        let _span = tracelog::span(tracelog::Lane::Io, "plane.ckpt.drop");
        // A staged blob whose drain is still in flight would land
        // *after* the delete and resurrect it; fence first, once.
        self.fence()?;
        Ok(self.fs.delete_all(self.comm.ctx(), paths))
    }

    // ---- shared by both policies ----

    /// Open a view request and tally it under its class: the posted
    /// policy marks it with a `plane.async.begin` instant, the serial
    /// one wraps it in the returned `span`.
    fn open(
        &self,
        posted: bool,
        span: &'static str,
        op: &'static str,
        class: IoClass,
        view: &FileView,
    ) -> Option<tracelog::Span> {
        let (regions, bytes) = (view.regions.len(), view.total_bytes());
        let span = if posted {
            begin_instant(op, class, bytes);
            None
        } else {
            let strategy = class.label();
            let args = vec![
                ("strategy", strategy.into()),
                ("regions", regions.into()),
                ("bytes", bytes.into()),
            ];
            Some(tracelog::span_args(tracelog::Lane::Io, span, args))
        };
        self.fs.note_class(class, regions as u64, bytes);
        span
    }

    /// Where this rank's writes go: the staging sink, if any, in front
    /// of the file system.
    fn sink(&self) -> Sink<'_> {
        Sink {
            burst: self.staging.as_ref(),
            fs: self.fs,
            ctx: self.comm.ctx(),
        }
    }

    /// The runs `view` is read as on the independent and sieved
    /// classes: its regions, or — sieved — those merged across holes of
    /// up to [`SIEVE_HOLE_LIMIT`] bytes.
    fn input_runs(&self, view: &FileView) -> Vec<(u64, u64)> {
        let regions = view.absolute().collect();
        if self.cfg.input == IoClass::Sieved {
            merge(regions, SIEVE_HOLE_LIMIT)
        } else {
            regions
        }
    }

    /// Post a view's reads (independent or sieved class only): every
    /// run in flight on return.
    fn begin_read<'p>(&'p self, path: &str, view: &FileView) -> IoHandle<'p, 'c> {
        let (op, bytes) = ("db_read", view.total_bytes());
        self.open(true, "plane.read", op, self.cfg.input, view);
        let runs: Result<Vec<(u64, AsyncIo)>, StoreError> = self
            .input_runs(view)
            .into_iter()
            .map(|(o, l)| Ok((o, self.fs.read_at_begin(self.comm.ctx(), path, o, l)?)))
            .collect();
        let kind = runs.map_or_else(HandleKind::Failed, HandleKind::Read);
        IoHandle { op, bytes, kind }
    }

    /// Service a view's reads one run after another (on the two-phase
    /// class, as the collective read every rank must post).
    fn read_view(&self, path: &str, view: &FileView) -> Result<Cover, StoreError> {
        let class = self.cfg.input;
        let _span = self.open(false, "plane.read", "db_read", class, view);
        if class == IoClass::TwoPhase {
            let file = MpiFile::open(self.comm, self.fs, path).with_hints(self.cfg.hints);
            let bytes = Bytes::from(file.read_at_all(view)?);
            return Ok(Cover::new(pieces(view.absolute(), &bytes)));
        }
        let mut held = Vec::new();
        for (o, l) in self.input_runs(view) {
            held.push((o, self.fs.read_at(self.comm.ctx(), path, o, l)?));
        }
        Ok(Cover::new(held))
    }

    /// Join a posted request under a `plane.async.wait` span: the
    /// exposed wait — everything this call blocks on — lands in it, and
    /// the time the handle spent in flight before the join is reported
    /// as its `queued_ns` argument.
    fn wait(&self, handle: IoHandle<'_, 'c>) -> Result<Cover, StoreError> {
        // Earliest issue time among the handle's transfers.
        let issued_ns = match &handle.kind {
            HandleKind::Failed(_) => None,
            HandleKind::Read(runs) => runs.iter().map(|(_, op)| op.issued_at().0).min(),
            HandleKind::Write(pend) | HandleKind::CollWrite { pend, .. } => pend.issued_ns(),
        };
        let queued_ns = issued_ns.map_or(0, |t| self.comm.ctx().now().0.saturating_sub(t));
        let _span = tracelog::span_args(
            tracelog::Lane::Io,
            "plane.async.wait",
            vec![
                ("op", handle.op.into()),
                ("bytes", handle.bytes.into()),
                ("queued_ns", queued_ns.into()),
            ],
        );
        self.join(handle.kind)
    }

    /// Block until a request's transfers complete, gather the read runs
    /// into their [`Cover`] (empty for a write), and (on the collective
    /// path) barrier.
    fn join(&self, kind: HandleKind<'_, 'c>) -> Result<Cover, StoreError> {
        match kind {
            HandleKind::Failed(e) => Err(e),
            HandleKind::Read(runs) => {
                let mut held = Vec::with_capacity(runs.len());
                for (o, op) in runs {
                    held.push((o, self.fs.io_wait(self.comm.ctx(), op)?));
                }
                Ok(Cover::new(held))
            }
            HandleKind::Write(pend) => self.sink().join(pend).map(|()| Cover::default()),
            HandleKind::CollWrite { file, pend } => {
                file.write_at_all_end(pend).map(|()| Cover::default())
            }
        }
    }
}

/// The `plane.async.begin` instant every posted request opens with.
fn begin_instant(op: &'static str, class: IoClass, bytes: u64) {
    tracelog::instant(
        tracelog::Lane::Io,
        "plane.async.begin",
        vec![
            ("op", op.into()),
            ("strategy", class.label().into()),
            ("bytes", bytes.into()),
        ],
    );
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

    /// A plane servicing both request kinds under `class`, each run in
    /// turn.
    fn plane_cfg(class: IoClass) -> PlaneConfig {
        PlaneConfig {
            options: IoOptions {
                io_async: false,
                burst: None,
            },
            hints: CollectiveHints { aggregators: 2 },
            input: class,
            output: class,
        }
    }

    /// The same plane with `io_async` on.
    fn posted_cfg(class: IoClass) -> PlaneConfig {
        let mut cfg = plane_cfg(class);
        cfg.options.io_async = true;
        cfg
    }

    /// The bytes of `view`'s regions, in order, out of the cover a read
    /// of it returned.
    fn view_bytes(cover: &Cover, view: &FileView) -> Vec<u8> {
        let held = |(o, l)| cover.slice(o, l).expect("a read covers its view");
        view.absolute().flat_map(|r| held(r).to_vec()).collect()
    }

    fn read_one(plane: &IoPlane, path: &str, view: &FileView) -> Vec<u8> {
        view_bytes(&plane.read_views(&[(path, view)]).unwrap()[0], view)
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
                read_one(&plane, "db", &view)
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
                read_one(&plane, "db", &view);
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
            plane.write_output("out", &view, data).unwrap();
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
                assert_eq!(read_one(&plane, "db", &view), vec![3u8; 16]);
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
            plane
                .write_output("out", &view, vec![me as u8; 100])
                .unwrap();
            // Checkpoint round trip rides the independent class.
            let blob = vec![me as u8; 30];
            let path = format!("ckpt.{me}");
            plane.checkpoint_put(&path, blob.clone()).unwrap();
            assert_eq!(plane.checkpoint_get(&path).unwrap(), blob);
            assert_eq!(
                plane.checkpoint_drop_all(std::slice::from_ref(&path)),
                Ok(1)
            );
            assert_eq!(plane.checkpoint_drop_all(&[path]), Ok(0));
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
    fn an_output_opened_while_idle_leaves_the_write_and_keeps_its_stat_count() {
        // The runtime's shape: rank 1 searches 5 ms and submits; rank 0
        // waits for the submission, merges 1 ms and sends the assignment;
        // both then write collectively. Opened ahead — the master before
        // it waits, the worker once it has submitted, twice to show a
        // second open of the same path is free — the file's metadata
        // operation falls in idle time, and the write lands one operation
        // latency sooner with as many metadata operations. The other
        // classes open nothing, ahead or not.
        let run = |class: IoClass, ahead: bool| -> (u64, u64) {
            let sim = Sim::new(2);
            let fs = SimFs::new(sim.handle(), "nfs", fsprofile());
            let fs2 = fs.clone();
            let out = sim.run(move |ctx| {
                let comm = Comm::new(&ctx, net());
                let plane = IoPlane::new(&comm, &fs2, posted_cfg(class), None);
                let open = || {
                    if ahead {
                        plane.open_output("out");
                        plane.open_output("out");
                    }
                };
                let me = ctx.rank() as u64;
                if me == 0 {
                    open();
                    comm.recv(Some(1), Some(1));
                    ctx.charge(SimDuration::from_millis(1));
                    comm.send(1, 2, Bytes::new());
                } else {
                    ctx.charge(SimDuration::from_millis(5));
                    comm.send(0, 1, Bytes::new());
                    open();
                    comm.recv(Some(0), Some(2));
                }
                let view = FileView::contiguous(me * 50, 50);
                plane
                    .write_output("out", &view, vec![me as u8; 50])
                    .unwrap();
                ctx.now().0
            });
            let end = out.outputs.into_iter().max().unwrap_or(0);
            (end, fs.counters().meta_ops)
        };
        let latency = SimDuration::from_secs_f64(fsprofile().op_latency).0;
        let (cold, cold_meta) = run(IoClass::TwoPhase, false);
        let (warm, warm_meta) = run(IoClass::TwoPhase, true);
        assert_eq!(cold - warm, latency);
        assert_eq!((cold_meta, warm_meta), (2, 2));
        for class in [IoClass::Independent, IoClass::Sieved] {
            assert_eq!(run(class, true), run(class, false), "{class:?}");
        }
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
                // The same verbs on both planes: serviced in turn on
                // one, posted and joined (the split collective on the
                // two-phase write) on the other.
                let plane = IoPlane::new(&comm, &fs2, plane_cfg(class), None);
                let posted = IoPlane::new(&comm, &fs2, posted_cfg(class), None);
                let base = 100 * ctx.rank() as u64;
                let view = FileView::new(base, vec![(0, 20), (30, 10), (90, 10)]).unwrap();
                let sync = read_one(&plane, "db", &view);
                assert_eq!(
                    read_one(&posted, "db", &view),
                    sync,
                    "{} read",
                    class.label()
                );
                let me = ctx.rank() as u64;
                let wview = FileView::new(0, vec![(me * 30, 15), (90 + me * 30, 15)]).unwrap();
                let payload = vec![me as u8 + 1; 30];
                plane
                    .write_output("out.sync", &wview, payload.clone())
                    .unwrap();
                posted.write_output("out.async", &wview, payload).unwrap();
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
    fn read_views_posts_the_set_only_where_the_plane_says() {
        // Three views of one file: the same bytes on every class and
        // policy, and on the independent class — where reads are posted —
        // the nine reads' latencies overlap instead of summing.
        let content: Vec<u8> = (0..900u32).map(|i| (i % 251) as u8).collect();
        let run = |cfg: PlaneConfig| -> (Vec<Vec<Vec<u8>>>, u64) {
            let sim = Sim::new(3);
            let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
            fs.preload("db", content.clone());
            let out = sim.run(move |ctx| {
                let comm = Comm::new(&ctx, net());
                let plane = IoPlane::new(&comm, &fs, cfg, None);
                assert_eq!(
                    plane.posts_reads(),
                    cfg.options.io_async && cfg.input != IoClass::TwoPhase
                );
                let base = 300 * ctx.rank() as u64;
                let views: Vec<FileView> = (0..3)
                    .map(|k| FileView::new(base + 100 * k, vec![(0, 20), (30, 10), (90, 10)]))
                    .collect::<Result<_, _>>()
                    .unwrap();
                let files: Vec<(&str, &FileView)> = views.iter().map(|v| ("db", v)).collect();
                let start = ctx.now();
                let covers = plane.read_views(&files).unwrap();
                let data: Vec<Vec<u8>> = covers
                    .iter()
                    .zip(&views)
                    .map(|(c, v)| view_bytes(c, v))
                    .collect();
                (data, (ctx.now() - start).0)
            });
            let (data, ns): (Vec<_>, Vec<_>) = out.outputs.into_iter().unzip();
            (data, ns.into_iter().max().unwrap())
        };
        for class in IoClass::ALL {
            let (serial, serial_ns) = run(plane_cfg(class));
            let (posted, posted_ns) = run(posted_cfg(class));
            assert_eq!(serial, posted, "{}", class.label());
            for (r, views) in serial.iter().enumerate() {
                for (k, got) in views.iter().enumerate() {
                    let at = 300 * r + 100 * k;
                    let mut want = content[at..at + 20].to_vec();
                    want.extend_from_slice(&content[at + 30..at + 40]);
                    want.extend_from_slice(&content[at + 90..at + 100]);
                    assert_eq!(got, &want, "{} rank {r} view {k}", class.label());
                }
            }
            if class == IoClass::Independent {
                assert!(
                    serial_ns >= 9 * 100_000,
                    "nine serial latencies: {serial_ns}"
                );
                assert!(posted_ns < serial_ns / 4, "{posted_ns} vs {serial_ns} ns");
            }
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
                plane.write_output("out", &view, vec![1u8; 320]).unwrap();
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
    fn posted_output_costs_constant_engine_events_per_run() {
        // A sieved `write_output` of holey regions on the posted plane
        // puts every region in flight at once. `parafs` arms one
        // completion per file system, so the engine schedules at most
        // four events per run — one rank x 256 regions or 16 ranks x 64
        // on the same file system alike — where a completion per stream
        // would schedule on the order of (ranks x regions)².
        for (ranks, regions) in [(1usize, 256u64), (16, 64)] {
            let sim = Sim::new(ranks);
            let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
            let fs2 = fs.clone();
            let out = sim.run(move |ctx| {
                let comm = Comm::new(&ctx, net());
                let plane = IoPlane::new(&comm, &fs2, posted_cfg(IoClass::Sieved), None);
                let base = ctx.rank() as u64 * regions * 2048;
                let holey = (0..regions).map(|i| (base + i * 2048, 1024)).collect();
                let view = FileView::new(0, holey).unwrap();
                let payload = vec![ctx.rank() as u8 + 1; (regions * 1024) as usize];
                plane.write_output("out", &view, payload).unwrap();
            });
            let runs = ranks as u64 * regions;
            assert_eq!(fs.counters().data_ops, runs, "holes are not coalesced");
            assert!(
                out.stats.scheduled <= 4 * runs + 8 * ranks as u64,
                "{ranks} ranks x {regions} regions scheduled {} events (fired {})",
                out.stats.scheduled,
                out.stats.events
            );
        }
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
            let handle = plane.begin_read("db", &view);
            ctx.charge(SimDuration::from_millis(300));
            let cover = plane.wait(handle).unwrap();
            assert_eq!(
                cover.slice(0, 50_000_000).map(|b| b.len()),
                Some(50_000_000)
            );
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
            let plane = IoPlane::new(&comm, &fs2, plane_cfg(IoClass::Independent), None);
            // Sync paths surface the late ENOSPC as a typed error.
            assert!(matches!(
                plane.checkpoint_put("ckpt", vec![0u8; 200]),
                Err(StoreError::NoSpace { .. })
            ));
            let view = FileView::contiguous(0, 150);
            assert!(matches!(
                plane.write_output("out", &view, vec![0u8; 150]),
                Err(StoreError::NoSpace { .. })
            ));
            // Fire-and-collect: the failure lands at the join, not the put.
            let posted = IoPlane::new(&comm, &fs2, posted_cfg(IoClass::Independent), None);
            posted.checkpoint_put("ckpt2", vec![0u8; 200]).unwrap();
            assert!(matches!(
                posted.checkpoint_join(),
                Some(Err(StoreError::NoSpace { .. }))
            ));
            assert!(posted.checkpoint_join().is_none(), "nothing left parked");
            // A blob that fits still goes through.
            plane.checkpoint_put("small", vec![7u8; 40]).unwrap();
        });
        assert_eq!(fs.peek("small").unwrap(), vec![7u8; 40]);
    }

    #[test]
    fn a_parked_output_write_lands_while_the_rank_computes_and_reports_at_its_join() {
        use std::sync::{Arc, Mutex};
        let sim = Sim::new(1);
        let fs = SimFs::new(sim.handle(), "xfs", fsprofile());
        fs.set_capacity(300);
        let (fs2, landed) = (fs.clone(), Arc::new(Mutex::new(Vec::new())));
        let seen = Arc::clone(&landed);
        sim.run(move |ctx| {
            let comm = Comm::new(&ctx, net());
            let plane = IoPlane::new(&comm, &fs2, posted_cfg(IoClass::Independent), None);
            assert!(plane.posts_writes() && plane.output_done());
            // Two runs of 100 bytes each: one latency, then both
            // transfers; the hook runs once, when the second lands.
            let view = FileView::new(0, vec![(0, 100), (200, 100)]).unwrap();
            let (handle, when) = (ctx.handle(), Arc::clone(&seen));
            let on_landed = move || when.lock().unwrap().push(handle.now().0);
            plane
                .post_output("out", &view, vec![1u8; 200], on_landed)
                .unwrap();
            assert!(!plane.output_done(), "the write is in flight");
            ctx.charge(SimDuration::from_millis(1));
            assert!(plane.output_done());
            assert_eq!(plane.output_join(), Some(Ok(())));
            assert!(plane.output_join().is_none(), "nothing left parked");
            // A write that does not fit fails at its join, and its hook
            // never runs.
            let view = FileView::contiguous(400, 150);
            let when = Arc::clone(&seen);
            let on_landed = move || when.lock().unwrap().push(0);
            plane
                .post_output("out", &view, vec![2u8; 150], on_landed)
                .unwrap();
            assert!(matches!(
                plane.output_join(),
                Some(Err(StoreError::NoSpace { .. }))
            ));
        });
        // 0.1 ms latency, then each run's 100 bytes at 100 MB/s (two
        // streams on one 400 MB/s file system): 100 + 1 µs.
        assert_eq!(*landed.lock().unwrap(), vec![101_000]);
        assert_eq!(fs.peek_run("out", 200, 100).unwrap().len(), 100);
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
                direct
                    .write_output("out.direct", &view, payload.clone())
                    .unwrap();
                let (volume, store) = staging_store(&ctx, &fs2, 1 << 20);
                let staged = IoPlane::new(&comm, &fs2, plane_cfg(class), Some(store));
                staged.write_output("out.staged", &view, payload).unwrap();
                let blob = vec![me as u8; 25];
                staged
                    .checkpoint_put(&format!("ck.{me}"), blob.clone())
                    .unwrap();
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
            plane.write_output("out", &view, vec![5u8; 100]).unwrap();
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
