//! The simulated file system: an object store behind a processor-sharing
//! bandwidth model.
//!
//! Every data transfer (read or write) becomes an *active stream*. At any
//! instant, each of the `n` active streams proceeds at
//! `min(per_client_bw, aggregate_bw / n)`. Whenever the active set changes
//! — a stream starts or finishes — the model retimes every pending
//! stream's completion and re-arms the file system's one completion
//! callback in the discrete-event engine, for the stream that now
//! finishes first. This is the standard fluid model of shared-
//! storage contention, and it is what makes the XFS and NFS profiles
//! reproduce the paper's Figure 3 vs Figure 4 contrast.
//!
//! There is one mechanism: an operation is *begun* (its latency and
//! transfer then elapse through engine callbacks, whatever its owner
//! does) and later *joined* with [`SimFs::io_wait`]. A blocking call is
//! begin + wait with nothing in between.
//!
//! Bytes move as shared, immutable [`Bytes`]: a write hands its [`Run`]'s
//! buffers to the store, which keeps those very buffers, and a read
//! returns a view of what the store holds — taken when the transfer
//! completes, and never changed by a later write (see [`crate::store`]).

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use simcluster::{RankCtx, SimDuration, SimHandle, SimTime, WakeId};

use crate::profile::{ClassTally, FsProfile, IoClass};
use crate::run::Run;
use crate::store::{FileStore, StoreError};

/// Byte-level counters for one file system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsCounters {
    /// Bytes moved by reads.
    pub bytes_read: u64,
    /// Bytes moved by writes.
    pub bytes_written: u64,
    /// Data operations issued.
    pub data_ops: u64,
    /// Metadata operations issued.
    pub meta_ops: u64,
}

/// One in-flight operation's transfer. Streams are owned by the engine,
/// not by the issuing rank: a callback starts one, a callback completes
/// it, so a rank killed mid-operation cannot strand its stream.
struct Stream {
    rank: usize,
    remaining: f64,
    shared: Arc<Mutex<AsyncState>>,
    action: AsyncAction,
}

/// What an operation does to the store when its transfer completes.
enum AsyncAction {
    Read {
        path: String,
        offset: u64,
        len: u64,
    },
    Write {
        path: String,
        offset: u64,
        data: Run,
    },
}

/// What [`SimFs::on_complete`] runs when an operation completes: told
/// whether the operation's effect landed.
type Hook = Box<dyn FnOnce(bool) + Send>;

/// The completion state shared between an [`AsyncIo`] token and the
/// stream/callbacks driving it.
struct AsyncState {
    result: Option<Result<Bytes, StoreError>>,
    /// Rank blocked in [`SimFs::io_wait`], woken on completion.
    waiter: Option<usize>,
    /// Run by the completion callback, on the engine (see
    /// [`SimFs::on_complete`]).
    hook: Option<Hook>,
}

/// An in-flight asynchronous file-system operation.
///
/// Obtained from [`SimFs::read_at_begin`] / [`SimFs::write_at_begin`];
/// the transfer proceeds in virtual time while the owner rank keeps
/// computing, and [`SimFs::io_wait`] joins it (consuming the token, so
/// an op cannot be waited twice). Ops are modeled as scheduled engine
/// callbacks: the operation latency and the contended transfer both
/// elapse in flight, and the store mutation (or read snapshot) lands at
/// completion time — a killed owner's write therefore never lands, and
/// its stream leaves the bandwidth share when the transfer would have
/// ended.
pub struct AsyncIo {
    shared: Arc<Mutex<AsyncState>>,
    issued: SimTime,
}

impl AsyncIo {
    /// Virtual time the operation was issued.
    pub fn issued_at(&self) -> SimTime {
        self.issued
    }

    /// Whether the operation has already completed (its wait would not
    /// block).
    pub fn is_done(&self) -> bool {
        self.shared.lock().result.is_some()
    }
}

struct FsState {
    store: FileStore,
    streams: Vec<Stream>,
    /// The one scheduled completion callback — for the stream that
    /// finishes first — re-armed by every retime.
    armed: Option<WakeId>,
    /// Every stream's rate since the last retime: the fair share is one
    /// rate for all.
    rate: f64,
    last_update: SimTime,
    counters: FsCounters,
    /// Optional total-bytes capacity; a write that would grow the store
    /// past it fails with [`StoreError::NoSpace`].
    capacity: Option<u64>,
    /// Per-strategy logical traffic, keyed `io.<class>.requests` /
    /// `io.<class>.bytes` — stored in the `tracelog` registry type so
    /// the I/O tallies share one accounting path with phase timing.
    class_counters: tracelog::Counters,
    /// Per client (rank): operations begun and not yet landed, and the
    /// most it has had at once.
    in_flight: Vec<(u64, u64)>,
}

impl FsState {
    /// Land a write into the store, honoring the capacity limit.
    fn land_write(&mut self, path: &str, offset: u64, data: Run) -> Result<(), StoreError> {
        if let Some(cap) = self.capacity {
            let end = offset + data.len();
            let growth = end.saturating_sub(self.store.len(path).unwrap_or(0));
            let used = self.store.total_bytes();
            if used + growth > cap {
                return Err(StoreError::NoSpace {
                    path: path.to_string(),
                    needed: growth,
                    free: cap.saturating_sub(used),
                });
            }
        }
        self.counters.bytes_written += data.len();
        self.counters.data_ops += 1;
        self.store.write_at(path, offset, data);
        Ok(())
    }
}

/// A simulated file system shared by all ranks (or private to one node,
/// depending on how it is used).
#[derive(Clone)]
pub struct SimFs {
    handle: SimHandle,
    profile: FsProfile,
    /// Display name for diagnostics.
    name: Arc<str>,
    state: Arc<Mutex<FsState>>,
}

impl SimFs {
    /// Create a file system on a simulation.
    pub fn new(handle: SimHandle, name: &str, profile: FsProfile) -> SimFs {
        SimFs {
            handle,
            profile,
            name: Arc::from(name),
            state: Arc::new(Mutex::new(FsState {
                store: FileStore::new(),
                streams: Vec::new(),
                armed: None,
                rate: 0.0,
                last_update: SimTime::ZERO,
                counters: FsCounters::default(),
                capacity: None,
                class_counters: tracelog::Counters::new(),
                in_flight: Vec::new(),
            })),
        }
    }

    /// The profile in force.
    pub fn profile(&self) -> FsProfile {
        self.profile
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Snapshot of the byte counters.
    pub fn counters(&self) -> FsCounters {
        self.state.lock().counters
    }

    /// The most data operations one client has had begun and not yet
    /// landed at once, over every client: the request window this file
    /// system's use so far needed. A blocking operation counts one while
    /// it lasts; the model itself bounds no client's count.
    pub fn max_in_flight(&self) -> u64 {
        let st = self.state.lock();
        st.in_flight
            .iter()
            .map(|&(_, most)| most)
            .max()
            .unwrap_or(0)
    }

    /// Cap the store at `bytes` total: any write (sync or async) that
    /// would grow past the cap fails with [`StoreError::NoSpace`]
    /// instead of landing. Setup helpers ([`SimFs::preload`]) bypass
    /// the cap, so a test can stage a database and then let the run fill
    /// the remaining space.
    pub fn set_capacity(&self, bytes: u64) {
        self.state.lock().capacity = Some(bytes);
    }

    /// Attribute `requests` logical regions covering `bytes` to an
    /// access-strategy class (called by the I/O plane, once per request
    /// it services). The new cumulative totals are also sampled onto
    /// the calling rank's trace when a tracer is installed.
    pub fn note_class(&self, class: IoClass, requests: u64, bytes: u64) {
        let (req_key, bytes_key) = class.counter_keys();
        let (total_req, total_bytes) = {
            let mut st = self.state.lock();
            st.class_counters.add(req_key, requests);
            st.class_counters.add(bytes_key, bytes);
            (
                st.class_counters.get(req_key),
                st.class_counters.get(bytes_key),
            )
        };
        tracelog::counter(req_key, total_req);
        tracelog::counter(bytes_key, total_bytes);
    }

    /// The logical traffic attributed to one strategy class so far.
    pub fn class_tally(&self, class: IoClass) -> ClassTally {
        let st = self.state.lock();
        let (req_key, bytes_key) = class.counter_keys();
        ClassTally {
            requests: st.class_counters.get(req_key),
            bytes: st.class_counters.get(bytes_key),
        }
    }

    /// Snapshot of the per-class counter registry.
    pub fn class_counters(&self) -> tracelog::Counters {
        self.state.lock().class_counters.clone()
    }

    /// Pre-load a file outside simulated time (for run setup: "the
    /// formatted database is already on shared storage").
    pub fn preload(&self, path: &str, data: Vec<u8>) {
        self.state.lock().store.put(path, data);
    }

    /// A copy of a file's bytes, taken outside simulated time (for
    /// post-run verification of outputs): one copy, however it was
    /// written.
    pub fn peek(&self, path: &str) -> Result<Vec<u8>, StoreError> {
        let st = self.state.lock();
        st.store.copy_at(path, 0, st.store.len(path).unwrap_or(0))
    }

    /// `len` bytes at `offset`, taken outside simulated time, as views of
    /// what the store holds (see [`FileStore::read_run_at`]).
    pub fn peek_run(&self, path: &str, offset: u64, len: u64) -> Result<Run, StoreError> {
        self.state.lock().store.read_run_at(path, offset, len)
    }

    /// List paths with a prefix outside simulated time.
    pub fn peek_list(&self, prefix: &str) -> Vec<String> {
        self.state.lock().store.list_prefix(prefix)
    }

    // ---- simulated operations (charge virtual time) ----

    /// Stat: returns the file size if it exists. Charges one metadata op.
    pub fn stat(&self, ctx: &RankCtx, path: &str) -> Option<u64> {
        self.meta_op(ctx);
        self.state.lock().store.len(path)
    }

    /// Create/truncate a file. Charges one metadata op.
    pub fn create(&self, ctx: &RankCtx, path: &str) {
        self.meta_op(ctx);
        let mut st = self.state.lock();
        st.store.create(path);
    }

    /// Delete every file of `paths` that exists, the deletes posted
    /// together: one metadata op per path, one operation latency for the
    /// set. Returns how many files were removed.
    pub fn delete_all(&self, ctx: &RankCtx, paths: &[String]) -> usize {
        self.state.lock().counters.meta_ops += paths.len() as u64;
        ctx.charge(SimDuration::from_secs_f64(self.profile.op_latency));
        let mut st = self.state.lock();
        paths.iter().filter(|p| st.store.delete(p).is_ok()).count()
    }

    /// List files with a prefix. Charges one metadata op.
    pub fn list(&self, ctx: &RankCtx, prefix: &str) -> Vec<String> {
        self.meta_op(ctx);
        self.state.lock().store.list_prefix(prefix)
    }

    /// Read `len` bytes at `offset`, charging latency plus contended
    /// transfer time. The bytes are a view of the stored buffer where
    /// one write holds them all.
    pub fn read_at(
        &self,
        ctx: &RankCtx,
        path: &str,
        offset: u64,
        len: u64,
    ) -> Result<Bytes, StoreError> {
        self.check_range(path, offset, len)?;
        let _span = tracelog::span_args(
            tracelog::Lane::Io,
            "fs.read",
            vec![("bytes", len.into()), ("offset", offset.into())],
        );
        self.io_wait(ctx, self.begin_read(ctx, path, offset, len))
    }

    /// Read a whole file.
    pub fn read_all(&self, ctx: &RankCtx, path: &str) -> Result<Bytes, StoreError> {
        let size = {
            let st = self.state.lock();
            st.store.len(path).ok_or_else(|| StoreError::NotFound {
                path: path.to_string(),
            })?
        };
        self.read_at(ctx, path, 0, size)
    }

    /// Write `data` at `offset`, charging latency plus contended transfer
    /// time. Creates/extends the file as needed. Fails with
    /// [`StoreError::NoSpace`] — after the transfer, like a real late
    /// `ENOSPC` — when a capacity is set and would be exceeded. The
    /// run's buffers move into the operation and, once landed, are the
    /// stored copy: one operation, however many pieces.
    pub fn write_at(
        &self,
        ctx: &RankCtx,
        path: &str,
        offset: u64,
        data: impl Into<Run>,
    ) -> Result<(), StoreError> {
        let data = data.into();
        let _span = tracelog::span_args(
            tracelog::Lane::Io,
            "fs.write",
            vec![("bytes", data.len().into()), ("offset", offset.into())],
        );
        let op = self.begin_write(ctx, path, offset, data);
        self.io_wait(ctx, op).map(drop)
    }

    /// Replace a file's contents.
    pub fn write_all(
        &self,
        ctx: &RankCtx,
        path: &str,
        data: impl Into<Run>,
    ) -> Result<(), StoreError> {
        self.create(ctx, path);
        self.write_at(ctx, path, 0, data)
    }

    // ---- split operations (in flight while the rank computes) ----

    /// Begin an asynchronous read: validate the range (one metadata op),
    /// then return immediately with the transfer in flight. The op's
    /// latency and contended transfer elapse in virtual time via engine
    /// callbacks; join with [`SimFs::io_wait`].
    pub fn read_at_begin(
        &self,
        ctx: &RankCtx,
        path: &str,
        offset: u64,
        len: u64,
    ) -> Result<AsyncIo, StoreError> {
        self.check_range(path, offset, len)?;
        tracelog::instant(
            tracelog::Lane::Io,
            "fs.read.begin",
            vec![("bytes", len.into()), ("offset", offset.into())],
        );
        Ok(self.begin_read(ctx, path, offset, len))
    }

    /// Begin an asynchronous write; join with [`SimFs::io_wait`]. The
    /// store mutation lands at completion time, so a killed owner's
    /// write never lands and capacity is checked against the store as it
    /// is then.
    pub fn write_at_begin(
        &self,
        ctx: &RankCtx,
        path: &str,
        offset: u64,
        data: impl Into<Run>,
    ) -> AsyncIo {
        let data = data.into();
        tracelog::instant(
            tracelog::Lane::Io,
            "fs.write.begin",
            vec![("bytes", data.len().into()), ("offset", offset.into())],
        );
        self.begin_write(ctx, path, offset, data)
    }

    /// Run `hook` when `op` completes, in the completion callback on the
    /// engine thread — while the owner rank computes on, as an I/O
    /// library's progress engine would — telling it whether the
    /// operation's effect landed: `false` for a failed operation and for
    /// one whose owner was killed with it in flight. An operation that
    /// has completed already runs the hook at once. One hook per
    /// operation; a second replaces the first.
    pub fn on_complete(&self, op: &AsyncIo, hook: impl FnOnce(bool) + Send + 'static) {
        let landed = {
            let mut a = op.shared.lock();
            match &a.result {
                Some(result) => result.is_ok(),
                None => {
                    a.hook = Some(Box::new(hook));
                    return;
                }
            }
        };
        hook(landed);
    }

    /// Block the calling rank until the op completes, returning the read
    /// bytes (empty for writes) or the completion error.
    pub fn io_wait(&self, ctx: &RankCtx, op: AsyncIo) -> Result<Bytes, StoreError> {
        loop {
            {
                let mut a = op.shared.lock();
                if let Some(result) = a.result.take() {
                    return result;
                }
                a.waiter = Some(ctx.rank());
            }
            ctx.wait_woken();
        }
    }

    /// Validate a read's range before anything is charged for it, like
    /// a real EOF error. One metadata op.
    fn check_range(&self, path: &str, offset: u64, len: u64) -> Result<(), StoreError> {
        let mut st = self.state.lock();
        st.counters.meta_ops += 1;
        let size = st.store.len(path).ok_or_else(|| StoreError::NotFound {
            path: path.to_string(),
        })?;
        if offset.checked_add(len).is_none_or(|e| e > size) {
            return Err(StoreError::OutOfRange {
                path: path.to_string(),
                offset,
                len,
                size,
            });
        }
        Ok(())
    }

    fn begin_read(&self, ctx: &RankCtx, path: &str, offset: u64, len: u64) -> AsyncIo {
        let path = path.to_string();
        self.begin_async(ctx.rank(), len, AsyncAction::Read { path, offset, len })
    }

    fn begin_write(&self, ctx: &RankCtx, path: &str, offset: u64, data: Run) -> AsyncIo {
        let (path, bytes) = (path.to_string(), data.len());
        self.begin_async(ctx.rank(), bytes, AsyncAction::Write { path, offset, data })
    }

    /// Issue the service-side machinery for one op: a callback at
    /// `now + op_latency` (the request reaching the server) activates
    /// the transfer stream; its completion callback lands the result.
    fn begin_async(&self, rank: usize, bytes: u64, action: AsyncAction) -> AsyncIo {
        let shared = Arc::new(Mutex::new(AsyncState {
            result: None,
            waiter: None,
            hook: None,
        }));
        {
            let mut st = self.state.lock();
            if st.in_flight.len() <= rank {
                st.in_flight.resize(rank + 1, (0, 0));
            }
            let (now, most) = &mut st.in_flight[rank];
            *now += 1;
            *most = (*most).max(*now);
        }
        let now = self.handle.now();
        let start = now + SimDuration::from_secs_f64(self.profile.op_latency);
        let (fs, state) = (self.clone(), Arc::clone(&shared));
        self.handle.schedule_callback(start, move || {
            let mut st = fs.state.lock();
            let at = fs.handle.now();
            fs.settle(&mut st, at);
            st.streams.push(Stream {
                rank,
                remaining: bytes as f64,
                shared: state,
                action,
            });
            fs.retime(&mut st, at);
        });
        AsyncIo {
            shared,
            issued: now,
        }
    }

    /// Completion callback for a stream: remove it, land the action
    /// (unless the owner died mid-flight — crash-stop semantics),
    /// retime the survivors, and wake any joined waiter.
    fn finish_async(&self, shared: &Arc<Mutex<AsyncState>>) {
        let (waiter, hook) = {
            let mut st = self.state.lock();
            let now = self.handle.now();
            self.settle(&mut st, now);
            let done = st
                .streams
                .iter()
                .position(|s| Arc::ptr_eq(&s.shared, shared))
                .filter(|&i| st.streams[i].remaining <= 0.5);
            let Some(idx) = done else {
                // Stale completion, or one for a stream that is gone:
                // nothing else is armed, so re-arm or every remaining
                // stream stalls.
                self.retime(&mut st, now);
                return;
            };
            let Stream {
                rank,
                shared,
                action,
                ..
            } = st.streams.swap_remove(idx);
            st.in_flight[rank].0 -= 1;
            let dead = self.handle.is_dead(rank);
            let result = if dead {
                // The owner was killed with the op in flight: discard the
                // effect. A dead rank's write never lands.
                Ok(Bytes::new())
            } else {
                match action {
                    AsyncAction::Read { path, offset, len } => {
                        let r = st.store.read_at(&path, offset, len);
                        if r.is_ok() {
                            st.counters.bytes_read += len;
                            st.counters.data_ops += 1;
                        }
                        r
                    }
                    AsyncAction::Write { path, offset, data } => {
                        st.land_write(&path, offset, data).map(|()| Bytes::new())
                    }
                }
            };
            self.retime(&mut st, now);
            let landed = !dead && result.is_ok();
            let mut a = shared.lock();
            a.result = Some(result);
            (a.waiter.take(), a.hook.take().map(|hook| (hook, landed)))
        };
        if let Some(rank) = waiter {
            let now = self.handle.now();
            self.handle.schedule_wake(rank, now);
        }
        // With no lock held: a hook may post messages or schedule events.
        if let Some((hook, landed)) = hook {
            hook(landed);
        }
    }

    fn meta_op(&self, ctx: &RankCtx) {
        self.state.lock().counters.meta_ops += 1;
        ctx.charge(SimDuration::from_secs_f64(self.profile.op_latency));
    }

    /// Advance every stream's remaining bytes to `now` at its current rate.
    fn settle(&self, st: &mut FsState, now: SimTime) {
        let dt = (now - st.last_update).as_secs_f64();
        if dt > 0.0 {
            let served = st.rate * dt;
            for s in &mut st.streams {
                s.remaining = (s.remaining - served).max(0.0);
            }
        }
        st.last_update = now;
    }

    /// Recompute the fair-share rate and re-arm the one completion
    /// callback (one cancel, one schedule) for the stream that finishes
    /// first: smallest instant in integer ns, ties to the lowest index in
    /// `streams`.
    fn retime(&self, st: &mut FsState, now: SimTime) {
        if let Some(w) = st.armed.take() {
            self.handle.cancel_wake(w);
        }
        let rate = self.profile.stream_bw(st.streams.len().max(1));
        st.rate = rate;
        let finish = |remaining: f64| now + SimDuration::from_secs_f64(remaining / rate);
        // One rate for all makes the instant monotone in the bytes left:
        // the first stream with the fewest bytes finishes first, unless an
        // earlier one within a nanosecond's transfer of it rounds to the
        // same instant and wins the tie by its lower index.
        let Some((lead, least)) = st
            .streams
            .iter()
            .map(|s| s.remaining)
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
        else {
            return; // nothing in flight, nothing to arm
        };
        let first = finish(least);
        let near = ((first - now).0 + 1) as f64 / 1e9 * rate;
        let tied = |s: &Stream| s.remaining <= near && finish(s.remaining) == first;
        let winner = st.streams[..lead].iter().position(tied).unwrap_or(lead);
        let s = &st.streams[winner];
        let (fs, shared) = (self.clone(), Arc::clone(&s.shared));
        st.armed = Some(
            self.handle
                .schedule_callback(first, move || fs.finish_async(&shared)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcluster::Sim;

    fn test_profile() -> FsProfile {
        FsProfile {
            per_client_bw: 100.0e6, // 100 MB/s per client
            aggregate_bw: 200.0e6,  // 200 MB/s total
            op_latency: 0.001,
        }
    }

    #[test]
    fn delete_all_posts_its_deletes_together() {
        let sim = Sim::new(1);
        let fs = SimFs::new(sim.handle(), "t", test_profile());
        for f in ["a", "b", "c"] {
            fs.preload(f, vec![1u8; 10]);
        }
        let paths: Vec<String> = ["a", "x", "c", "y"].map(String::from).to_vec();
        let out = sim.run(|ctx| (fs.delete_all(&ctx, &paths), ctx.now()));
        // Two of the four paths existed; one 1 ms latency for the set,
        // one metadata op per path.
        let (removed, t) = out.outputs[0];
        assert_eq!(removed, 2);
        assert_eq!(t, SimTime::ZERO + SimDuration::from_millis(1));
        assert_eq!(fs.counters().meta_ops, 4);
        assert_eq!(fs.peek_list(""), vec!["b".to_string()]);
    }

    #[test]
    fn solo_read_takes_latency_plus_bandwidth_time() {
        let sim = Sim::new(1);
        let fs = SimFs::new(sim.handle(), "t", test_profile());
        fs.preload("f", vec![7u8; 100_000_000]);
        let out = sim.run(|ctx| {
            let data = fs.read_at(&ctx, "f", 0, 100_000_000).unwrap();
            assert_eq!(data.len(), 100_000_000);
            ctx.now()
        });
        // 1 ms latency + 1 s transfer at 100 MB/s.
        let t = out.outputs[0].as_secs_f64();
        assert!((t - 1.001).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn two_concurrent_readers_share_the_aggregate() {
        // 200 MB/s aggregate, 2 readers -> each gets its full 100 MB/s.
        let sim = Sim::new(2);
        let fs = SimFs::new(sim.handle(), "t", test_profile());
        fs.preload("f", vec![0u8; 200_000_000]);
        let out = sim.run(|ctx| {
            fs.read_at(&ctx, "f", ctx.rank() as u64 * 100_000_000, 100_000_000)
                .unwrap();
            ctx.now().as_secs_f64()
        });
        for t in &out.outputs {
            assert!((t - 1.001).abs() < 1e-6, "t = {t}");
        }
    }

    #[test]
    fn four_concurrent_readers_contend() {
        // 4 readers on 200 MB/s -> 50 MB/s each; 100 MB takes 2 s.
        let sim = Sim::new(4);
        let fs = SimFs::new(sim.handle(), "t", test_profile());
        fs.preload("f", vec![0u8; 400_000_000]);
        let out = sim.run(|ctx| {
            fs.read_at(&ctx, "f", ctx.rank() as u64 * 100_000_000, 100_000_000)
                .unwrap();
            ctx.now().as_secs_f64()
        });
        for t in &out.outputs {
            assert!((t - 2.001).abs() < 1e-4, "t = {t}");
        }
    }

    #[test]
    fn late_joiner_slows_existing_stream() {
        // Rank 0 starts a 100 MB read alone (100 MB/s). At t=0.5 s it has
        // 50 MB left. Rank 1 then reads too; with 2 streams each still
        // gets 100 MB/s (aggregate 200), so no slowdown. With a tighter
        // aggregate (120 MB/s), rates drop to 60 each.
        let tight = FsProfile {
            per_client_bw: 100.0e6,
            aggregate_bw: 120.0e6,
            op_latency: 0.0,
        };
        let sim = Sim::new(2);
        let fs = SimFs::new(sim.handle(), "t", tight);
        fs.preload("f", vec![0u8; 200_000_000]);
        let out = sim.run(|ctx| {
            if ctx.rank() == 1 {
                ctx.charge(SimDuration::from_secs_f64(0.5));
            }
            fs.read_at(&ctx, "f", ctx.rank() as u64 * 100_000_000, 100_000_000)
                .unwrap();
            ctx.now().as_secs_f64()
        });
        // Rank 0: 50 MB alone at 100 MB/s (0.5 s), then shares 120 MB/s
        // (60 each) for its remaining 50 MB -> 0.5 + 50/60 = 1.3333 s.
        assert!(
            (out.outputs[0] - (0.5 + 50.0 / 60.0)).abs() < 1e-4,
            "{out:?}"
        );
        // Rank 1: starts at 0.5 with 100 MB. Shares 60 MB/s until rank 0
        // finishes at 1.3333 (having moved 50 MB), then 66.67 MB/s... but
        // per-client capped at 100: remaining 50 MB at 100 MB/s? No: alone
        // it gets min(100, 120) = 100. 0.5 + 0.8333 + 50/100 = 1.8333 s.
        assert!(
            (out.outputs[1] - (0.5 + 50.0 / 60.0 + 0.5)).abs() < 1e-4,
            "{out:?}"
        );
    }

    #[test]
    fn writes_and_reads_round_trip_through_sim() {
        let sim = Sim::new(2);
        let fs = SimFs::new(sim.handle(), "t", test_profile());
        let out = sim.run(|ctx| {
            if ctx.rank() == 0 {
                fs.write_at(&ctx, "shared", 0, &b"rank0 data"[..]).unwrap();
                ctx.post(1, 1, bytes::Bytes::new(), SimDuration::ZERO);
                true
            } else {
                ctx.recv(Some(0), Some(1));
                let data = fs.read_all(&ctx, "shared").unwrap();
                data == b"rank0 data"[..]
            }
        });
        assert!(out.outputs[1]);
        let c = fs.counters();
        assert_eq!(c.bytes_written, 10);
        assert_eq!(c.bytes_read, 10);
    }

    #[test]
    fn read_errors_cost_no_transfer_time() {
        let sim = Sim::new(1);
        let fs = SimFs::new(sim.handle(), "t", test_profile());
        fs.preload("f", vec![0u8; 10]);
        let out = sim.run(|ctx| {
            assert!(fs.read_at(&ctx, "missing", 0, 5).is_err());
            assert!(fs.read_at(&ctx, "f", 8, 5).is_err());
            ctx.now().as_secs_f64()
        });
        assert!(out.outputs[0] < 1e-6, "errors should be instant-ish");
    }

    #[test]
    fn metadata_ops_charge_latency() {
        let sim = Sim::new(1);
        let fs = SimFs::new(sim.handle(), "t", test_profile());
        let out = sim.run(|ctx| {
            fs.create(&ctx, "a");
            assert_eq!(fs.stat(&ctx, "a"), Some(0));
            assert_eq!(fs.stat(&ctx, "b"), None);
            assert_eq!(fs.delete_all(&ctx, &["a".into()]), 1);
            assert_eq!(fs.list(&ctx, "").len(), 0);
            ctx.now().as_secs_f64()
        });
        assert!((out.outputs[0] - 0.005).abs() < 1e-9);
    }

    #[test]
    fn async_read_matches_sync_bytes_and_overlaps_compute() {
        // A 100 MB read takes 1 ms latency + 1 s transfer. Issued async
        // and joined after 2 s of compute, the whole transfer hides:
        // elapsed = max(compute, io) = 2 s, and the bytes are identical.
        let sim = Sim::new(1);
        let fs = SimFs::new(sim.handle(), "t", test_profile());
        fs.preload(
            "f",
            (0..1_000_000u32).flat_map(|i| i.to_le_bytes()).collect(),
        );
        let out = sim.run(|ctx| {
            let op = fs.read_at_begin(&ctx, "f", 4_000, 4_000).unwrap();
            ctx.charge(SimDuration::from_secs(2));
            assert!(op.is_done(), "4 KB moves well within 2 s");
            let data = fs.io_wait(&ctx, op).unwrap();
            (data, ctx.now().as_secs_f64())
        });
        let (data, t) = &out.outputs[0];
        let expect: Vec<u8> = (1_000u32..2_000).flat_map(|i| i.to_le_bytes()).collect();
        assert_eq!(data, &expect);
        assert!((t - 2.0).abs() < 1e-9, "fully hidden: t = {t}");
    }

    #[test]
    fn async_wait_exposes_only_the_remainder() {
        // 100 MB at 100 MB/s = 1 s transfer + 1 ms latency. After 0.4 s
        // of compute, the join blocks for the remaining 0.601 s.
        let sim = Sim::new(1);
        let fs = SimFs::new(sim.handle(), "t", test_profile());
        fs.preload("f", vec![3u8; 100_000_000]);
        let out = sim.run(|ctx| {
            let op = fs.read_at_begin(&ctx, "f", 0, 100_000_000).unwrap();
            ctx.charge(SimDuration::from_secs_f64(0.4));
            assert!(!op.is_done());
            let data = fs.io_wait(&ctx, op).unwrap();
            assert_eq!(data.len(), 100_000_000);
            ctx.now().as_secs_f64()
        });
        assert!(
            (out.outputs[0] - 1.001).abs() < 1e-6,
            "t = {}",
            out.outputs[0]
        );
    }

    #[test]
    fn async_write_lands_at_completion_not_at_begin() {
        let sim = Sim::new(2);
        let fs = SimFs::new(sim.handle(), "t", test_profile());
        let fsw = fs.clone();
        let out = sim.run(move |ctx| {
            if ctx.rank() == 0 {
                let op = fsw.write_at_begin(&ctx, "f", 0, vec![9u8; 50_000_000]);
                // Signal rank 1 that the write is in flight.
                ctx.post(1, 1, bytes::Bytes::new(), SimDuration::ZERO);
                fsw.io_wait(&ctx, op).unwrap();
                ctx.now().as_secs_f64()
            } else {
                ctx.recv(Some(0), Some(1));
                // Mid-flight the file does not exist yet.
                let missing = fsw.peek("f").is_err();
                ctx.charge(SimDuration::from_secs(3));
                let after = fsw.peek("f").unwrap();
                assert!(missing, "write landed before completion");
                assert_eq!(after, vec![9u8; 50_000_000]);
                0.0
            }
        });
        // 1 ms latency + 0.5 s transfer (alone at 100 MB/s).
        assert!((out.outputs[0] - 0.501).abs() < 1e-6, "{out:?}");
        let c = fs.counters();
        assert_eq!(c.bytes_written, 50_000_000);
    }

    #[test]
    fn concurrent_async_ops_contend_like_streams() {
        // Two 100 MB async reads from one rank share the 200 MB/s
        // aggregate: each runs at 100 MB/s, both finish at ~1.001 s.
        let sim = Sim::new(1);
        let fs = SimFs::new(sim.handle(), "t", test_profile());
        fs.preload("f", vec![0u8; 200_000_000]);
        let out = sim.run(|ctx| {
            let a = fs.read_at_begin(&ctx, "f", 0, 100_000_000).unwrap();
            let b = fs
                .read_at_begin(&ctx, "f", 100_000_000, 100_000_000)
                .unwrap();
            fs.io_wait(&ctx, a).unwrap();
            let t_a = ctx.now().as_secs_f64();
            fs.io_wait(&ctx, b).unwrap();
            (t_a, ctx.now().as_secs_f64())
        });
        let (t_a, t_b) = out.outputs[0];
        assert!((t_a - 1.001).abs() < 1e-6, "t_a = {t_a}");
        assert!((t_b - 1.001).abs() < 1e-6, "t_b = {t_b}");
    }

    #[test]
    fn async_and_sync_streams_coexist_for_one_rank() {
        // A rank may block on a read while its own write is in flight.
        let sim = Sim::new(1);
        let fs = SimFs::new(sim.handle(), "t", test_profile());
        fs.preload("f", vec![0u8; 10_000_000]);
        sim.run(|ctx| {
            let op = fs.write_at_begin(&ctx, "g", 0, vec![1u8; 10_000_000]);
            let data = fs.read_at(&ctx, "f", 0, 10_000_000).unwrap();
            assert_eq!(data.len(), 10_000_000);
            fs.io_wait(&ctx, op).unwrap();
        });
        assert_eq!(fs.counters().bytes_written, 10_000_000);
        assert_eq!(fs.counters().bytes_read, 10_000_000);
    }

    #[test]
    fn killed_owner_write_never_lands() {
        use simcluster::FaultPlan;
        let sim = Sim::new(2);
        let fs = SimFs::new(sim.handle(), "t", test_profile());
        // Rank 1 begins a 100 MB write (completes ~1.001 s) but is
        // killed at 0.5 s: crash-stop says the write must vanish.
        let plan = FaultPlan::none().kill_at(1, SimTime(500_000_000));
        let fsw = fs.clone();
        let out = sim.run_faulty(plan, move |ctx| {
            if ctx.rank() == 1 {
                let op = fsw.write_at_begin(&ctx, "doomed", 0, vec![5u8; 100_000_000]);
                ctx.charge(SimDuration::from_secs(10));
                fsw.io_wait(&ctx, op).unwrap();
            } else {
                ctx.charge(SimDuration::from_secs(5));
                assert!(fsw.peek("doomed").is_err(), "dead rank's write landed");
            }
            ctx.rank()
        });
        assert_eq!(out.killed, vec![1]);
        assert!(fs.peek("doomed").is_err());
        assert_eq!(fs.counters().bytes_written, 0);
    }

    #[test]
    fn streams_that_round_to_one_instant_finish_in_issue_order() {
        // At 10 GB/s a byte takes 0.1 ns: 105 bytes need 10.5 ns and 101
        // bytes 10.1 ns, both 11 ns in whole nanoseconds. The tie goes to
        // the stream issued first, though it has more bytes left.
        let sim = Sim::new(1);
        let profile = FsProfile {
            per_client_bw: 10.0e9,
            aggregate_bw: 100.0e9,
            op_latency: 0.001,
        };
        let fs = SimFs::new(sim.handle(), "t", profile);
        let order = Arc::new(Mutex::new(Vec::new()));
        let (fsw, seen) = (fs.clone(), Arc::clone(&order));
        sim.run(move |ctx| {
            let ops: Vec<AsyncIo> = [("a", 105), ("b", 101)]
                .into_iter()
                .map(|(name, len)| {
                    let op = fsw.write_at_begin(&ctx, name, 0, vec![1u8; len]);
                    let (handle, seen) = (ctx.handle(), Arc::clone(&seen));
                    fsw.on_complete(&op, move |_| seen.lock().push((name, handle.now())));
                    op
                })
                .collect();
            for op in ops {
                fsw.io_wait(&ctx, op).unwrap();
            }
        });
        let at = SimTime(1_000_011);
        assert_eq!(*order.lock(), [("a", at), ("b", at)]);
    }

    #[test]
    fn a_completion_hook_runs_when_the_write_lands_and_says_whether_it_did() {
        use simcluster::FaultPlan;
        // Rank 1's 100 MB write completes at 1.001 s; rank 2's does too,
        // but rank 2 is killed at 0.5 s; rank 0's does not fit.
        let sim = Sim::new(3);
        let fs = SimFs::new(sim.handle(), "t", test_profile());
        fs.set_capacity(200_000_000);
        let fired = Arc::new(Mutex::new(Vec::new()));
        let plan = FaultPlan::none().kill_at(2, SimTime(500_000_000));
        let (fsw, seen) = (fs.clone(), Arc::clone(&fired));
        sim.run_faulty(plan, move |ctx| {
            let len = if ctx.rank() == 0 {
                300_000_000
            } else {
                100_000_000
            };
            let op = fsw.write_at_begin(&ctx, &format!("f{}", ctx.rank()), 0, vec![1u8; len]);
            let (handle, hooked, rank) = (ctx.handle(), Arc::clone(&seen), ctx.rank());
            fsw.on_complete(&op, move |landed| {
                hooked
                    .lock()
                    .push((rank, landed, handle.now().as_secs_f64()));
            });
            ctx.charge(SimDuration::from_secs(10));
            let _ = fsw.io_wait(&ctx, op);
            // A hook on an operation that has completed runs at once.
            let op = fsw.write_at_begin(&ctx, "late", 0, vec![1u8; 10]);
            ctx.charge(SimDuration::from_secs(1));
            let seen = Arc::clone(&seen);
            fsw.on_complete(&op, move |landed| seen.lock().push((9, landed, 0.0)));
        });
        let mut fired = fired.lock().clone();
        fired.sort_by_key(|f| f.0);
        let when: Vec<(usize, bool)> = fired.iter().map(|f| (f.0, f.1)).collect();
        assert_eq!(
            when,
            [(0, false), (1, true), (2, false), (9, true), (9, true)]
        );
        // Three concurrent streams on 200 MB/s until rank 0's fails.
        assert!(fired[1].2 > 1.001, "rank 1's hook at {}", fired[1].2);
    }

    /// Rank 2 runs `doomed` — one blocking 100 MB transfer from t = 0 —
    /// and, under `kill`, dies at 0.5 s inside it. Ranks 0 and 1 each
    /// read 100 MB from t = 3 s; returns how long those reads took.
    fn survivor_read_secs(kill: bool, doomed: fn(&SimFs, &RankCtx)) -> (SimFs, Vec<f64>) {
        let mut plan = simcluster::FaultPlan::none();
        if kill {
            plan = plan.kill_at(2, SimTime(500_000_000));
        }
        let sim = Sim::new(3);
        let fs = SimFs::new(sim.handle(), "t", test_profile());
        fs.preload("f", vec![0u8; 100_000_000]);
        let fsr = fs.clone();
        let out = sim.run_faulty(plan, move |ctx| {
            if ctx.rank() == 2 {
                doomed(&fsr, &ctx);
                return 0.0;
            }
            ctx.charge(SimDuration::from_secs(3));
            let start = ctx.now();
            fsr.read_at(&ctx, "f", 0, 100_000_000).unwrap();
            (ctx.now() - start).as_secs_f64()
        });
        assert_eq!(out.killed.len(), usize::from(kill));
        let secs = out.outputs[..2].iter().map(|t| t.unwrap()).collect();
        (fs, secs)
    }

    #[test]
    fn a_rank_killed_mid_read_frees_its_bandwidth_share() {
        // Two survivors on a 200 MB/s aggregate get 100 MB/s each: 1 ms
        // latency + 1 s. A stream left behind by the dead rank would
        // make it a three-way share (1.501 s).
        for kill in [false, true] {
            let (_, secs) = survivor_read_secs(kill, |fs, ctx| {
                fs.read_at(ctx, "f", 0, 100_000_000).unwrap();
            });
            for t in secs {
                assert!((t - 1.001).abs() < 1e-6, "kill={kill}: t = {t}");
            }
        }
    }

    #[test]
    fn a_rank_killed_mid_write_frees_its_share_and_never_lands() {
        for kill in [false, true] {
            let (fs, secs) = survivor_read_secs(kill, |fs, ctx| {
                fs.write_at(ctx, "doomed", 0, vec![5u8; 100_000_000])
                    .unwrap();
            });
            for t in secs {
                assert!((t - 1.001).abs() < 1e-6, "kill={kill}: t = {t}");
            }
            assert_eq!(fs.peek("doomed").is_err(), kill, "kill={kill}");
            let landed = if kill { 0 } else { 100_000_000 };
            assert_eq!(fs.counters().bytes_written, landed, "kill={kill}");
        }
    }

    #[test]
    fn in_flight_io_costs_constant_events_per_op() {
        // One begin callback, one armed completion per start and per
        // finish, one waiter wake: at most four heap events per op, however
        // many are in flight. A completion re-armed per stream would
        // schedule between N²/2 and N² — the same virtual clock, a host
        // regression no clock-based gate can see.
        for n in [64u64, 256, 1024] {
            let sim = Sim::new(1);
            let fs = SimFs::new(sim.handle(), "t", test_profile());
            let fsw = fs.clone();
            let out = sim.run(move |ctx| {
                let ops: Vec<AsyncIo> = (0..n)
                    .map(|i| fsw.write_at_begin(&ctx, "f", i * 1024, vec![1u8; 1024]))
                    .collect();
                for op in ops {
                    fsw.io_wait(&ctx, op).unwrap();
                }
            });
            assert_eq!(fs.counters().bytes_written, n * 1024);
            assert!(
                out.stats.scheduled <= 4 * n + 8,
                "{n} posted ops scheduled {} events (fired {})",
                out.stats.scheduled,
                out.stats.events
            );
        }
    }

    #[test]
    fn max_in_flight_is_the_largest_clients_high_water_mark() {
        // Rank 0 posts five writes, joins them, then posts two; rank 1
        // reads three times in turn. Rank 0 peaked at five, rank 1 at one.
        let sim = Sim::new(2);
        let fs = SimFs::new(sim.handle(), "t", test_profile());
        fs.preload("f", vec![0u8; 3_000]);
        let fsw = fs.clone();
        sim.run(move |ctx| {
            if ctx.rank() == 1 {
                for i in 0..3 {
                    fsw.read_at(&ctx, "f", i * 1_000, 1_000).unwrap();
                }
                return;
            }
            for burst in [5u64, 2] {
                let ops: Vec<AsyncIo> = (0..burst)
                    .map(|i| fsw.write_at_begin(&ctx, "g", i * 10, vec![1u8; 10]))
                    .collect();
                for op in ops {
                    fsw.io_wait(&ctx, op).unwrap();
                }
            }
        });
        assert_eq!(fs.max_in_flight(), 5);
        let idle = SimFs::new(Sim::new(1).handle(), "idle", test_profile());
        assert_eq!(idle.max_in_flight(), 0);
    }

    #[test]
    fn a_completion_for_no_stream_rearms_the_rest() {
        // The armed completion is the only event that can end a stream,
        // so a completion that finds nothing to finish must re-arm: play
        // one that fires for a token no stream carries, in place of the
        // armed one, while two writes are in flight.
        let sim = Sim::new(1);
        let fs = SimFs::new(sim.handle(), "t", test_profile());
        let fsw = fs.clone();
        let out = sim.run(move |ctx| {
            let a = fsw.write_at_begin(&ctx, "a", 0, vec![1u8; 10_000_000]);
            let b = fsw.write_at_begin(&ctx, "b", 0, vec![2u8; 20_000_000]);
            let stray = fsw.clone();
            ctx.handle()
                .schedule_callback(SimTime(50_000_000), move || {
                    let armed = stray
                        .state
                        .lock()
                        .armed
                        .take()
                        .expect("two streams in flight");
                    stray.handle.cancel_wake(armed);
                    stray.finish_async(&Arc::new(Mutex::new(AsyncState {
                        result: None,
                        waiter: None,
                        hook: None,
                    })));
                });
            fsw.io_wait(&ctx, a).unwrap();
            fsw.io_wait(&ctx, b).unwrap();
            ctx.now().as_secs_f64()
        });
        // 1 ms latency + 20 MB at 100 MB/s; a stall would be a Deadlock.
        assert!((out.outputs[0] - 0.201).abs() < 1e-6, "{out:?}");
        assert_eq!(fs.counters().bytes_written, 30_000_000);
    }

    #[test]
    fn same_ns_completions_land_and_wake_in_stream_order() {
        // Six equal writes, begun in the same ns by six ranks, all end in
        // the same ns. Completions fire by (finish ns, index in `streams`)
        // and `swap_remove` moves the last stream into the finished one's
        // slot, so the order is 0, 5, 4, 3, 2, 1: the last write to land
        // is rank 1's, and the waiters resume in that order.
        let sim = Sim::new(6);
        let fs = SimFs::new(sim.handle(), "t", test_profile());
        let order = Arc::new(Mutex::new(Vec::new()));
        let (fsw, log) = (fs.clone(), Arc::clone(&order));
        let out = sim.run(move |ctx| {
            let op = fsw.write_at_begin(&ctx, "f", 0, vec![ctx.rank() as u8; 1_000_000]);
            fsw.io_wait(&ctx, op).unwrap();
            log.lock().push(ctx.rank());
            ctx.now().0
        });
        // 1 ms latency + 1 MB at 200/6 MB/s, rounded up a ns.
        assert_eq!(out.outputs, vec![31_000_001; 6]);
        assert_eq!(*order.lock(), vec![0, 5, 4, 3, 2, 1]);
        assert_eq!(fs.peek("f").unwrap(), vec![1u8; 1_000_000]);
    }

    #[test]
    fn eight_mixed_streams_with_late_joiners_finish_at_pinned_ns() {
        // `late_joiner_slows_existing_stream` at eight streams: mixed
        // sizes, rank r joining r x 50 ms late, 120 MB/s shared under a
        // 100 MB/s per-client cap. Every start and finish re-rates every
        // stream; the instants are the per-stream scheme's, to the ns.
        let tight = FsProfile {
            per_client_bw: 100.0e6,
            aggregate_bw: 120.0e6,
            op_latency: 0.001,
        };
        let sim = Sim::new(8);
        let fs = SimFs::new(sim.handle(), "t", tight);
        fs.preload("f", vec![0u8; 64_000_000]);
        let out = sim.run(|ctx| {
            let r = ctx.rank() as u64;
            ctx.charge(SimDuration::from_millis(50 * r));
            let len = [24, 3, 17, 8, 30, 1, 12, 5][ctx.rank()] * 1_000_000 + r * 1_013;
            fs.read_at(&ctx, "f", r * 1_000_000, len).unwrap();
            ctx.now().0
        });
        assert_eq!(
            out.outputs,
            [
                644_904_061,
                101_025_325,
                669_954_711,
                453_715_263,
                868_318_435,
                292_877_709,
                715_826_032,
                576_748_003
            ]
        );
    }

    #[test]
    fn posted_writes_of_a_killed_rank_never_land_and_leave_the_share_on_time() {
        // Rank 12 posts four 5 MB writes and is killed at 0.1 s with all
        // four in flight among twelve survivors' writes of 2..13 MB. The
        // dead rank's streams keep their share until they would have
        // ended (a crashed client's requests are already at the server),
        // then leave it, and nothing of theirs lands: the survivors'
        // instants are the same with and without the kill.
        for kill in [false, true] {
            let mut plan = simcluster::FaultPlan::none();
            if kill {
                plan = plan.kill_at(12, SimTime(100_000_000));
            }
            let sim = Sim::new(13);
            let fs = SimFs::new(sim.handle(), "t", test_profile());
            let fsw = fs.clone();
            let out = sim.run_faulty(plan, move |ctx| {
                let ops: Vec<AsyncIo> = if ctx.rank() == 12 {
                    (0..4u64)
                        .map(|i| {
                            fsw.write_at_begin(&ctx, "doomed", i * 5_000_000, vec![9u8; 5_000_000])
                        })
                        .collect()
                } else {
                    let len = (ctx.rank() + 2) * 1_000_000 + ctx.rank() * 977;
                    vec![fsw.write_at_begin(&ctx, &format!("w{}", ctx.rank()), 0, vec![1u8; len])]
                };
                for op in ops {
                    fsw.io_wait(&ctx, op).unwrap();
                }
                ctx.now().0
            });
            assert_eq!(out.killed.len(), usize::from(kill));
            let survivors: Vec<u64> = out.outputs[..12].iter().map(|t| t.unwrap()).collect();
            assert_eq!(
                survivors,
                [
                    161_000_000,
                    236_073_275,
                    306_141_666,
                    371_146_551,
                    411_185_631,
                    446_219_826,
                    476_249_136,
                    501_273_561,
                    521_293_101,
                    536_307_756,
                    546_317_526,
                    556_327_296
                ],
                "kill={kill}"
            );
            assert_eq!(fs.peek("doomed").is_err(), kill, "kill={kill}");
            let landed: u64 = (0..12u64).map(|r| (r + 2) * 1_000_000 + r * 977).sum();
            let doomed = if kill { 0 } else { 20_000_000 };
            assert_eq!(fs.counters().bytes_written, landed + doomed, "kill={kill}");
        }
    }

    #[test]
    fn capacity_limits_writes_with_nospace() {
        let sim = Sim::new(1);
        let fs = SimFs::new(sim.handle(), "t", test_profile());
        fs.set_capacity(1_000);
        let out = sim.run(|ctx| {
            fs.write_at(&ctx, "a", 0, vec![1u8; 600]).unwrap();
            // Overwriting in place needs no growth.
            fs.write_at(&ctx, "a", 0, vec![2u8; 600]).unwrap();
            let err = fs.write_at(&ctx, "b", 0, vec![3u8; 600]).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::NoSpace {
                        needed: 600,
                        free: 400,
                        ..
                    }
                ),
                "{err}"
            );
            // Async writes hit the same wall at completion time.
            let op = fs.write_at_begin(&ctx, "c", 0, vec![4u8; 500]);
            let err2 = fs.io_wait(&ctx, op).unwrap_err();
            assert!(matches!(err2, StoreError::NoSpace { .. }));
            fs.write_at(&ctx, "d", 0, vec![5u8; 400]).unwrap()
        });
        let _ = out;
        assert!(fs.peek("b").is_err());
        assert!(fs.peek("c").is_err());
        assert_eq!(fs.peek("d").unwrap().len(), 400);
    }

    #[test]
    fn byte_conservation_under_contention() {
        // However the streams interleave, exactly the requested bytes move.
        let sim = Sim::new(8);
        let fs = SimFs::new(sim.handle(), "t", test_profile());
        fs.preload("f", vec![0u8; 8_000_000]);
        sim.run(|ctx| {
            for chunk in 0..4 {
                fs.read_at(
                    &ctx,
                    "f",
                    (ctx.rank() * 4 + chunk) as u64 * 250_000,
                    250_000,
                )
                .unwrap();
            }
        });
        assert_eq!(fs.counters().bytes_read, 8_000_000);
        assert_eq!(fs.counters().data_ops, 32);
    }
}
