//! Report output: every rank's I/O plane, the record writes of workers
//! and master, and the staging fences that make them durable.

use bytes::Bytes;
use mpiblast::phases;
use mpiio::{CollectiveHints, FileView, IoPlane, PlaneConfig, Run, StagingStore};
use mpisim::Comm;
use parafs::IoClass;
use simcluster::{DeviceModel, PhaseTimes, RankCtx};

use super::lowering::Lowering;
use super::master_io::MasterIo;
use super::worker_io::WorkerIo;
use crate::app::{FragmentSchedule, PioBlastConfig};
use crate::cache::ResultCache;
use crate::fault::PioError;

/// This rank's I/O plane, built once: the access class of each request
/// kind resolved from the run's context, plus the rank's burst-buffer
/// staging store when `--burst-buffer` is on.
///
/// Two-phase needs every rank to post the same request sequence
/// synchronously. Database reads have that only on the static schedule
/// (which the point-to-point lowering never runs); report writes under
/// the collective lowering. Where aggregation was asked for
/// (`collective_input`/`collective_output`) but the ranks cannot
/// synchronize — dynamic grants, the point-to-point lowering — the plane
/// sieves each rank's posted views with no global exchange, which is
/// what lets those knobs compose with every mode. Without the knob the
/// path is independent.
///
/// The staging store absorbs output and checkpoint writes into the
/// rank's staging volume (striped per `BurstOptions`) and drains them
/// into the shared file system in the background; its drain engine is
/// the staging device's sequential read port, modeled on the platform's
/// staging profile.
pub(super) fn build_plane<'x, 'y>(
    ctx: &RankCtx,
    comm: &'x Comm<'y>,
    cfg: &'x PioBlastConfig,
    lowering: Lowering,
) -> IoPlane<'x, 'y> {
    let resolve = |aggregate: bool, synchronized: bool| match (aggregate, synchronized) {
        (true, true) => IoClass::TwoPhase,
        (true, false) => IoClass::Sieved,
        (false, _) => IoClass::Independent,
    };
    let staging = cfg.io.burst.map(|opts| {
        let prof = &cfg.platform.staging;
        StagingStore::new(
            cfg.env.stagings[ctx.rank()].clone(),
            cfg.env.shared.clone(),
            opts,
            DeviceModel {
                op_latency: prof.op_latency,
                bandwidth: prof.aggregate_bw,
            },
        )
    });
    IoPlane::new(
        comm,
        &cfg.env.shared,
        PlaneConfig {
            options: cfg.io,
            hints: CollectiveHints {
                aggregators: cfg.platform.aggregators,
            },
            input: resolve(
                cfg.collective_input,
                cfg.schedule == FragmentSchedule::Static,
            ),
            output: resolve(cfg.collective_output, lowering.writes_in_step()),
        },
        staging,
    )
}

/// Join every pending burst-buffer drain, charging the exposed wait to
/// the output phase. A drain failure degrades into a trace event — the
/// affected bytes are absent, exactly as a failed direct write would
/// have left them. *When* this runs is the runtime's durability policy
/// (see the call sites); an unstaged run has nothing to join or charge.
pub(super) fn fence_staging(
    ctx: &RankCtx,
    cfg: &PioBlastConfig,
    io: &IoPlane<'_, '_>,
    phase_times: &mut PhaseTimes,
) {
    if cfg.io.burst.is_none() {
        return;
    }
    let t = ctx.now();
    if let Err(e) = io.fence() {
        tracelog::instant(
            tracelog::Lane::Io,
            "stage.drain_failed",
            vec![("error", e.to_string().into())],
        );
    }
    phase_times.add(phases::OUTPUT, ctx.now() - t);
}

/// The report path of one batch. Service mode writes each stream
/// batch's report to its own file, byte-identical to running the batch
/// as a one-shot job.
fn report_path(cfg: &PioBlastConfig, batch: usize) -> String {
    match cfg.service {
        Some(_) => format!("{}.q{batch}", cfg.output_path),
        None => cfg.output_path.clone(),
    }
}

/// The one output epilogue, shared by the master's section writes and
/// every worker's writes of its assigned and shipped records: build a
/// file view from the scattered `(offset, text)` records and hand it to
/// the plane, each record's buffer one piece of the payload — nothing is
/// concatenated. Always posts, even with nothing to write — on the
/// two-phase class the empty view still participates in the exchange.
/// A full file system surfaces as a typed error, not an abort.
fn flush_output(
    plane: &IoPlane<'_, '_>,
    path: &str,
    mut items: Vec<(u64, Bytes)>,
) -> Result<(), PioError> {
    items.retain(|(_, text)| !text.is_empty());
    items.sort_unstable_by_key(|&(off, _)| off);
    let mut regions = Vec::with_capacity(items.len());
    let mut payload = Run::default();
    for (off, text) in items {
        regions.push((off, text.len() as u64));
        payload.push(payload.len(), text);
    }
    let view = FileView::new(0, regions)
        .map_err(|e| PioError::Protocol(format!("output layout is not writable: {e}")))?;
    plane
        .write_output(path, &view, payload)
        .map_err(PioError::Output)
}

impl MasterIo<'_, '_> {
    /// Write the master's share of a merged batch's report: its own
    /// sections (headers, summaries, footers). The orphan records of
    /// dead owners' checkpointed fragments are not among them: they ride
    /// to the live workers with the assignments.
    pub(super) fn write_master_share(&self, batch: usize) -> Result<(), PioError> {
        let sections = self.sections.clone().ok_or_else(|| {
            PioError::Protocol(format!("batch {batch} finished before it was merged"))
        })?;
        flush_output(self.io, &report_path(self.cfg, batch), sections)?;
        self.lowering.seal_output(self.comm, self.io);
        Ok(())
    }
}

impl WorkerIo<'_, '_> {
    /// Write the records the master assigned this worker for `batch`,
    /// and the orphan records it shipped along, then acknowledge under
    /// `epoch`. Out of line, like the worker's other command handlers
    /// (see `WorkerIo::on_grant`).
    #[inline(never)]
    pub(super) fn write_assigned(&mut self, batch: usize, epoch: u64) -> Result<(), PioError> {
        let t = self.ctx.now();
        let assignment = self.assign.take().ok_or_else(|| {
            PioError::Protocol(format!("batch {batch} written with no assignment"))
        })?;
        let mut items = self
            .cache
            .assigned_records(&assignment.own.records)
            .map_err(|(q, oid)| {
                PioError::Protocol(format!("assigned record ({q}, {oid}) not cached"))
            })?;
        // A shipped record must end inside the report; one that overlaps
        // another record fails the view below.
        let end = assignment.end;
        if let Some((off, record)) = assignment
            .shipped
            .iter()
            .find(|(off, r)| off.checked_add(r.len() as u64).is_none_or(|e| e > end))
        {
            return Err(PioError::Protocol(format!(
                "shipped record at {off} ({} bytes) runs past the report end {end}",
                record.len()
            )));
        }
        items.extend(assignment.shipped);
        if !self.policy.recovers() {
            // The batch is written once: the records nobody assigned can
            // never reach the report, and the assigned ones now live in
            // `items` until the file system holds them. Under `Recover` a
            // death may rewind the batch to another merge, whose
            // assignment can name any cached record, so the cache stays
            // until the next batch's prepare resets it.
            self.cache = ResultCache::default();
        }
        flush_output(self.io, &report_path(self.cfg, batch), items)?;
        self.lowering.seal_output(self.comm, self.io);
        let start = self.out_mark.take().unwrap_or(t);
        self.phase_times.add(phases::OUTPUT, self.ctx.now() - start);
        if self.policy.recovers() {
            // Fence-before-ack: TAG_DONE tells the master this worker's
            // output section is durable, and recovery will not re-assign
            // it after a death. Staged bytes are node-local and die with
            // the rank, so they must drain before the ack leaves.
            fence_staging(self.ctx, self.cfg, self.io, &mut self.phase_times);
        }
        self.lowering.ack_write(self.comm, epoch);
        Ok(())
    }
}
