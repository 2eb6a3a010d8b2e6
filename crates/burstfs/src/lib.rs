//! # burstfs
//!
//! A burst-buffer staging tier between the I/O plane (`mpiio`) and the
//! destination file system (`parafs`).
//!
//! Output and checkpoint writes are *absorbed* into a per-node staging
//! volume — a fast, low-latency `parafs::SimFs` with the
//! [`parafs::FsProfile::burst_buffer`] profile — striped round-robin
//! across several backing files ([`parafs::StripeMap`]) so the absorb
//! runs at the device's aggregate bandwidth rather than one stream's.
//! Each absorbed run immediately begins its *drain*: the staged bytes
//! are read back through the device's FIFO read port
//! ([`simcluster::DeviceTimeline`]), reassembled in stripe-map order as
//! views of what the staging volume holds, and issued as one
//! nonblocking multi-piece write ([`parafs::Run`]) to the destination.
//! No byte is copied on the way: the stripe files and the destination
//! keep the buffers the caller staged. Pending drains complete in the
//! background of whatever the rank does next; [`StagingStore::fence`]
//! joins them all.
//!
//! Capacity is bounded: a put that would exceed the configured staging
//! capacity fails with typed backpressure
//! ([`BurstError::StagingFull`]) instead of absorbing — callers degrade
//! to a direct destination write. Capacity frees as drains complete
//! (observed at the next put or fence), so bursty arrivals degrade
//! gracefully rather than failing permanently.
//!
//! ## Recovery contract
//!
//! Staged data is *node-local and volatile*: nothing reads another
//! node's staging volume, and a killed rank's in-flight drains are
//! discarded whole by `parafs`'s crash-stop model. A fragment whose
//! checkpoint was staged but not yet drained is therefore simply
//! *absent* from shared storage — recovery requeues it, exactly as if
//! the checkpoint had never been written. Fencing at epoch boundaries
//! (before results are acknowledged) guarantees the converse: anything
//! the master has acknowledged has fully drained. Half-drained state is
//! unobservable either way.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::borrow::Cow;
use std::fmt;

use parafs::stripe::write_striped_begin;
use parafs::{AsyncIo, Run, SimFs, StoreError, StripeMap};
use simcluster::{DeviceTimeline, RankCtx};
use tracelog::{ArgVal, Lane};

pub use simcluster::DeviceModel;

/// Backing files each staged run stripes across. Not a knob: a sweep
/// over 1/2/4/8 files moved blade's output path by under 1 %
/// (EXPERIMENTS.md, "Burst-buffer staging").
const STRIPE_FILES: usize = 4;

/// Staging-tier knobs. The CLI's `--burst-buffer` turns the defaults on
/// and `--burst-capacity` sets `capacity`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstOptions {
    /// Stripe unit in bytes (≥ 1).
    pub stripe_unit: u64,
    /// Staged-but-undrained bytes allowed before puts see typed
    /// backpressure.
    pub capacity: u64,
}

impl Default for BurstOptions {
    fn default() -> BurstOptions {
        BurstOptions {
            stripe_unit: 64 * 1024,
            capacity: 256 * 1024 * 1024,
        }
    }
}

/// Typed staging-tier failure.
#[derive(Debug, Clone, PartialEq)]
pub enum BurstError {
    /// The put would exceed staging capacity; the caller should write
    /// directly to the destination (backpressure, not failure).
    StagingFull {
        /// Bytes the rejected put needed.
        needed: u64,
        /// Staging bytes currently free.
        free: u64,
    },
    /// The staging volume or the destination failed underneath.
    Storage(StoreError),
}

impl fmt::Display for BurstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BurstError::StagingFull { needed, free } => write!(
                f,
                "staging volume full: put needs {needed} bytes, {free} free"
            ),
            BurstError::Storage(e) => write!(f, "staging storage error: {e}"),
        }
    }
}

impl std::error::Error for BurstError {}

impl From<StoreError> for BurstError {
    fn from(e: StoreError) -> BurstError {
        BurstError::Storage(e)
    }
}

/// Counters the staging tier keeps about itself (reported by benches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BurstStats {
    /// Runs absorbed into staging.
    pub puts: u64,
    /// Bytes absorbed into staging.
    pub put_bytes: u64,
    /// Drains completed (observed at reap/fence).
    pub drains: u64,
    /// Bytes drained to the destination.
    pub drained_bytes: u64,
    /// Puts rejected with [`BurstError::StagingFull`].
    pub backpressure: u64,
    /// Peak staged-but-undrained bytes.
    pub peak_staged: u64,
}

/// One in-flight drain: a nonblocking destination write of a
/// reassembled staged run.
struct Drain {
    op: AsyncIo,
    bytes: u64,
}

/// A per-rank staging store: absorbs runs into the node's staging
/// volume and drains them to the destination in the background.
/// [`SimFs`] values are cheap shared handles, so the store owns its
/// two endpoints outright.
pub struct StagingStore {
    staging: SimFs,
    dest: SimFs,
    map: StripeMap,
    capacity: u64,
    port: DeviceTimeline,
    staged: u64,
    pending: Vec<Drain>,
    stats: BurstStats,
}

impl StagingStore {
    /// A store staging into `staging` and draining to `dest`. `port`
    /// models the staging device's sequential read port (the drain
    /// engine); the absorb side is modeled by `staging`'s own
    /// [`parafs::FsProfile`].
    pub fn new(staging: SimFs, dest: SimFs, opts: BurstOptions, port: DeviceModel) -> StagingStore {
        StagingStore {
            staging,
            dest,
            map: StripeMap::new(STRIPE_FILES, opts.stripe_unit),
            capacity: opts.capacity,
            port: DeviceTimeline::new(port),
            staged: 0,
            pending: Vec::new(),
            stats: BurstStats::default(),
        }
    }

    /// Staged-but-undrained bytes.
    pub fn staged_bytes(&self) -> u64 {
        self.staged
    }

    /// Drains still in flight.
    pub fn pending_drains(&self) -> usize {
        self.pending.len()
    }

    /// Counters since construction.
    pub fn stats(&self) -> BurstStats {
        self.stats
    }

    /// [`StagingStore::put_run`] of a copy of `data`.
    pub fn put(
        &mut self,
        ctx: &RankCtx,
        path: &str,
        offset: u64,
        data: &[u8],
    ) -> Result<(), BurstError> {
        self.put_run(ctx, path, offset, Run::from(data.to_vec()))
    }

    /// Absorb `data` destined for `path` at `offset`: stripe it across
    /// the staging volume, then begin its background drain to the
    /// destination. Returns [`BurstError::StagingFull`] — absorbing
    /// nothing — when the run does not fit the remaining capacity.
    pub fn put_run(
        &mut self,
        ctx: &RankCtx,
        path: &str,
        offset: u64,
        data: Run,
    ) -> Result<(), BurstError> {
        // Completed drains free capacity before we judge this put.
        self.reap(ctx)?;
        let needed = data.len();
        let free = self.capacity.saturating_sub(self.staged);
        if needed > free {
            self.stats.backpressure += 1;
            tracelog::instant(
                Lane::Io,
                "stage.backpressure",
                vec![("needed", ArgVal::U64(needed)), ("free", ArgVal::U64(free))],
            );
            return Err(BurstError::StagingFull { needed, free });
        }

        // Absorb: one concurrent nonblocking write per stripe chunk, so
        // the chunks share the staging device's aggregate bandwidth.
        let span = tracelog::span_args(
            Lane::Io,
            "stage.put",
            vec![
                ("bytes", ArgVal::U64(needed)),
                ("stripes", ArgVal::U64(self.map.files() as u64)),
                ("path", ArgVal::Str(Cow::Owned(path.to_string()))),
            ],
        );
        let ops = write_striped_begin(&self.staging, ctx, path, &self.map, offset, &data);
        for op in ops {
            self.staging.io_wait(ctx, op)?;
        }
        drop(span);
        self.staged += needed;
        self.stats.puts += 1;
        self.stats.put_bytes += needed;
        self.stats.peak_staged = self.stats.peak_staged.max(self.staged);
        tracelog::counter("stage.staged_bytes", self.staged);

        // Drain: the device's FIFO read port pages the staged stripes
        // back in (bursty puts queue behind each other here), then one
        // nonblocking destination write carries the reassembled run.
        // The byte path really goes through the staging files — the
        // reassembly below takes views of what the absorb just wrote.
        let done = self.port.issue(ctx.now(), needed);
        ctx.charge(done.since(ctx.now()));
        let mut run = Run::default();
        for c in self.map.chunks(offset, needed) {
            let stripe = StripeMap::stripe_path(path, c.file);
            let chunk = self.staging.peek_run(&stripe, c.file_offset, c.len)?;
            debug_assert_eq!(
                chunk.to_vec(),
                data.slice(c.src_offset, c.len).to_vec(),
                "stripe reassembly must reproduce the staged run"
            );
            run.join(c.src_offset, chunk);
        }
        tracelog::instant(
            Lane::Io,
            "stage.drain",
            vec![
                ("bytes", ArgVal::U64(needed)),
                ("pending", ArgVal::U64(self.pending.len() as u64 + 1)),
            ],
        );
        let op = self.dest.write_at_begin(ctx, path, offset, run);
        self.pending.push(Drain { op, bytes: needed });
        Ok(())
    }

    /// Collect drains that have already completed, freeing their
    /// staging capacity. Surfaces the first drain error, if any.
    pub fn reap(&mut self, ctx: &RankCtx) -> Result<(), StoreError> {
        let mut err = None;
        let mut still = Vec::with_capacity(self.pending.len());
        for d in self.pending.drain(..) {
            if d.op.is_done() {
                self.staged = self.staged.saturating_sub(d.bytes);
                self.stats.drains += 1;
                self.stats.drained_bytes += d.bytes;
                if let Err(e) = self.dest.io_wait(ctx, d.op) {
                    err.get_or_insert(e);
                }
            } else {
                still.push(d);
            }
        }
        self.pending = still;
        tracelog::counter("stage.staged_bytes", self.staged);
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Join every pending drain (the epoch fence): blocks until all
    /// staged data has landed at the destination, then frees all
    /// staging capacity. Surfaces the first drain error.
    pub fn fence(&mut self, ctx: &RankCtx) -> Result<(), StoreError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let span = tracelog::span_args(
            Lane::Io,
            "stage.drain",
            vec![("pending", ArgVal::U64(self.pending.len() as u64))],
        );
        let mut err = None;
        for d in self.pending.drain(..) {
            self.staged = self.staged.saturating_sub(d.bytes);
            self.stats.drains += 1;
            self.stats.drained_bytes += d.bytes;
            if let Err(e) = self.dest.io_wait(ctx, d.op) {
                err.get_or_insert(e);
            }
        }
        drop(span);
        tracelog::counter("stage.staged_bytes", self.staged);
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parafs::FsProfile;
    use simcluster::Sim;

    fn port() -> DeviceModel {
        DeviceModel {
            op_latency: 10e-6,
            bandwidth: 6.0e9,
        }
    }

    fn run_one<T: Send + 'static>(
        f: impl Fn(&simcluster::RankCtx, &SimFs, &SimFs) -> T + Send + Sync + 'static,
    ) -> T {
        let sim = Sim::new(1);
        let staging = SimFs::new(sim.handle(), "stage0", FsProfile::burst_buffer());
        let dest = SimFs::new(sim.handle(), "shared", FsProfile::blade_nfs());
        let mut out = sim.run(move |ctx| f(&ctx, &staging, &dest));
        out.outputs.remove(0)
    }

    #[test]
    fn put_drains_to_destination() {
        // Reassembly reads each chunk's own range of its stripe file, so
        // after one aligned-enough run the next two start mid-unit, span
        // three and five 16-byte units over the four files, and land in
        // stripe rows that already hold the first run's bytes.
        let report = run_one(|ctx, staging, dest| {
            let mut store = StagingStore::new(
                staging.clone(),
                dest.clone(),
                BurstOptions {
                    stripe_unit: 16,
                    capacity: 1 << 20,
                },
                port(),
            );
            let data: Vec<u8> = (0..200u8).collect();
            store.put(ctx, "out.txt", 40, &data).unwrap();
            assert_eq!(store.pending_drains(), 1);
            store.put(ctx, "out.txt", 7, &data[100..129]).unwrap();
            store.put(ctx, "out.txt", 250, &data[100..170]).unwrap();
            store.fence(ctx).unwrap();
            assert_eq!(store.staged_bytes(), 0);
            dest.peek("out.txt").unwrap()
        });
        let data: Vec<u8> = (0..200u8).collect();
        assert_eq!(report.len(), 320);
        assert_eq!(&report[40..240], &data[..]);
        assert_eq!(&report[7..36], &data[100..129]);
        assert_eq!(&report[250..320], &data[100..170]);
        for hole in [0..7, 36..40, 240..250] {
            assert!(report[hole].iter().all(|&b| b == 0), "holes stay holes");
        }
    }

    #[test]
    fn capacity_backpressure_is_typed_and_frees_after_fence() {
        run_one(|ctx, staging, dest| {
            let mut store = StagingStore::new(
                staging.clone(),
                dest.clone(),
                BurstOptions {
                    stripe_unit: 8,
                    capacity: 100,
                },
                port(),
            );
            store.put(ctx, "a", 0, &[7u8; 80]).unwrap();
            // 80 of 100 bytes staged: a 40-byte put must bounce.
            match store.put(ctx, "b", 0, &[9u8; 40]) {
                Err(BurstError::StagingFull {
                    needed: 40,
                    free: 20,
                }) => {}
                other => panic!("expected StagingFull, got {other:?}"),
            }
            assert_eq!(store.stats().backpressure, 1);
            store.fence(ctx).unwrap();
            // Drained: capacity is back.
            store.put(ctx, "b", 0, &[9u8; 40]).unwrap();
            store.fence(ctx).unwrap();
            assert_eq!(dest.peek("a").unwrap(), vec![7u8; 80]);
            assert_eq!(dest.peek("b").unwrap(), vec![9u8; 40]);
        });
    }

    #[test]
    fn drains_overlap_compute() {
        // The drain of a staged run proceeds while the rank computes;
        // the fence afterwards costs (almost) nothing extra.
        run_one(|ctx, staging, dest| {
            let mut store = StagingStore::new(
                staging.clone(),
                dest.clone(),
                BurstOptions::default(),
                port(),
            );
            store.put(ctx, "r", 0, &vec![1u8; 4 << 20]).unwrap();
            // 4 MiB at blade-NFS 60 MB/s ~ 67 ms; compute for 200 ms.
            ctx.charge(simcluster::SimDuration::from_millis(200));
            let before = ctx.now();
            store.fence(ctx).unwrap();
            let fence_cost = ctx.now().since(before).0;
            assert!(
                fence_cost < 1_000_000,
                "fence after long compute should be nearly free, took {fence_cost} ns"
            );
            assert_eq!(dest.peek("r").unwrap(), vec![1u8; 4 << 20]);
        });
    }
}
