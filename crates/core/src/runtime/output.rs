//! Report output: every rank's I/O plane, the master's merge of the
//! submissions as they land and its dealing of a merged batch's report
//! among the live workers, the writes of workers and master, and the
//! staging fences that make them durable.
//!
//! The master writes only its own sections (each query's header with the
//! summary preamble or the no-hits notice, and its footer). A worker
//! writes its cached records, the orphan records shipped to it, and the
//! one-line summaries it renders from its blocks, each block one region
//! of its view.

use bytes::Bytes;
use mpiblast::wire::{MetaSubmission, OffsetAssignment};
use mpiblast::{phases, MASTER};
use mpiio::{CollectiveHints, FileView, IoPlane, PlaneConfig, Run, StagingStore};
use mpisim::sched::chunk_evenly;
use mpisim::Comm;
use parafs::IoClass;
use simcluster::{DeviceModel, PhaseTimes, RankCtx};

use super::lowering::Lowering;
use super::master::MasterEvent;
use super::master_io::MasterIo;
use super::worker_io::WorkerIo;
use super::Assign;
use crate::app::{FragmentSchedule, PioBlastConfig};
use crate::cache::ResultCache;
use crate::fault::PioError;
use crate::merge::{MergeOutcome, Merger, SummaryBlock};

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
pub(super) fn report_path(cfg: &PioBlastConfig, batch: usize) -> String {
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
    items: Vec<(u64, Bytes)>,
) -> Result<(), PioError> {
    let (view, payload) = output_layout(items)?;
    plane
        .write_output(path, &view, payload)
        .map_err(PioError::Output)
}

/// [`flush_output`] posted and parked where the plane posts writes
/// ([`IoPlane::post_output`]): `on_landed` runs when the write has
/// landed, and the plane's `output_join` reports its outcome.
fn post_output(
    plane: &IoPlane<'_, '_>,
    path: &str,
    items: Vec<(u64, Bytes)>,
    on_landed: impl FnOnce() + Send + 'static,
) -> Result<(), PioError> {
    let (view, payload) = output_layout(items)?;
    plane
        .post_output(path, &view, payload, on_landed)
        .map_err(PioError::Output)
}

/// The file view and payload of scattered `(offset, text)` records.
fn output_layout(mut items: Vec<(u64, Bytes)>) -> Result<(FileView, Run), PioError> {
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
    Ok((view, payload))
}

/// The fewest one-line summaries a block is split down to; a query with
/// fewer goes out in one block. A block may cost its worker a file-system
/// operation of its own, so a floor of one line (one block per worker
/// for every query) trades formatting time for many small writes. The
/// value is fixed, not derived from the platform: 64 lines are about
/// 5 KB, 0.4 ms of formatting at the model's 80 ns/byte, near one
/// operation on the fastest shared file system modeled (Altix XFS,
/// 300 µs). Floors of 1, 16, 128 and 256 were tried on the benchmark's
/// workloads (EXPERIMENTS.md): 1 to 128 lie within 1.3 ms of each other
/// on each, and 256 is slower on all five.
const MIN_BLOCK_LINES: usize = 64;

/// Deal a merged batch's report out to the `live` workers: each gets
/// its own records (`per_rank`) and one contiguous block of the
/// `orphans`. Each query's `summaries` are split into blocks of at least
/// [`MIN_BLOCK_LINES`] lines, up to one per worker, and each block goes
/// to the worker with the fewest lines so far. Nothing may run past
/// `end`.
fn deal(
    live: &[usize],
    per_rank: &[OffsetAssignment],
    orphans: Vec<(u64, Bytes)>,
    summaries: Vec<SummaryBlock>,
    end: u64,
) -> Vec<(usize, Assign)> {
    let n = live.len().max(1);
    // Each worker's lines so far and its blocks, in file order.
    let mut dealt: Vec<(usize, Vec<SummaryBlock>)> = vec![(0, Vec::new()); n];
    for query in summaries {
        let parts = (query.entries.len() / MIN_BLOCK_LINES).clamp(1, n);
        for block in query.split(parts) {
            if let Some(fewest) = dealt.iter_mut().min_by_key(|share| share.0) {
                fewest.0 += block.entries.len();
                fewest.1.push(block);
            }
        }
    }
    let blocks = dealt.into_iter().map(|(_, mine)| mine);
    let shares = chunk_evenly(orphans, n).into_iter().zip(blocks);
    live.iter()
        .zip(shares)
        .map(|(&w, (shipped, summaries))| {
            let own = per_rank[w].clone();
            let assign = Assign {
                own,
                shipped,
                summaries,
                end,
            };
            (w, assign)
        })
        .collect()
}

impl MasterIo<'_, '_> {
    /// Order a submission into the merge as it arrives, charged for its
    /// hits then, while the other workers still format theirs. It is
    /// output time, unless a rewound batch's output phase is open already.
    pub(super) fn absorb(
        &mut self,
        from: usize,
        sub: MetaSubmission,
    ) -> Result<Vec<MasterEvent>, PioError> {
        let (start, items) = (self.ctx.now(), Merger::items(&sub));
        let args = vec![("from", from.into()), ("items", items.into())];
        let span = tracelog::span_args(tracelog::Lane::Runtime, "merge.absorb", args);
        let merger = &mut self.merger;
        self.cfg
            .compute
            .run_merge(self.ctx, items, || merger.absorb(from, sub));
        drop(span);
        if self.out_mark.is_none() {
            self.phase_times.add(phases::OUTPUT, self.ctx.now() - start);
        }
        Ok(Vec::new())
    }

    /// Lay the batch out from what was absorbed, the orphans' metadata
    /// absorbed last and any rank that died since left out, and deal it:
    /// the assignments go to the live workers at once.
    pub(super) fn merge(
        &mut self,
        batch: usize,
        epoch: u64,
        orphans: &[usize],
    ) -> Result<Vec<MasterEvent>, PioError> {
        self.out_mark.get_or_insert(self.ctx.now());
        let (mut merger, adopted) = (std::mem::take(&mut self.merger), self.orphans.metadata());
        let orphan_items = Merger::items(&adopted);
        let prepared = self.prepared(batch);
        // Service mode writes each stream batch to its own file, so
        // every report starts at offset zero.
        let start_offset = if self.sm.policy().service {
            0
        } else {
            self.batch_offsets[batch]
        };
        let rendered =
            |o: &MergeOutcome| o.master_sections.iter().map(|(_, s)| s.len() as u64).sum();
        let outcome = self.cfg.compute.run_format(
            self.ctx,
            || {
                // The orphans' metadata, then one in-order walk over the
                // live ranks' hits.
                merger.absorb(MASTER, adopted);
                let outcome = merger.layout(
                    &self.report_cfg,
                    &self.cfg.params,
                    &prepared,
                    self.cfg.report,
                    start_offset,
                    |rank| self.sm.is_live(rank),
                );
                // Traced before the charge, so at the merge's start.
                tracelog::instant(
                    tracelog::Lane::Runtime,
                    "merge",
                    vec![
                        ("batch", batch.into()),
                        ("epoch", epoch.into()),
                        ("orphans", orphans.len().into()),
                        ("rendered_bytes", rendered(&outcome).into()),
                    ],
                );
                outcome
            },
            rendered,
        );
        self.cfg.compute.run_merge(self.ctx, orphan_items, || ());
        let end = start_offset + outcome.total_bytes;
        self.batch_offsets[batch + 1] = end;
        // The orphan records the merge placed in the master's slot ride
        // to the live workers, each writing a block beside its own, and
        // so do the one-line summaries.
        let orphans = self
            .orphans
            .assigned_records(&outcome.per_rank[MASTER].records)
            .map_err(|(q, oid)| {
                PioError::Protocol(format!("orphan record ({q}, {oid}) has no checkpoint"))
            })?;
        let live: Vec<usize> = self.sm.live_workers().collect();
        let (per_rank, summaries) = (&outcome.per_rank, outcome.summaries);
        let assigns = deal(&live, per_rank, orphans, summaries, end);
        let events = self.lowering.assign(self.comm, epoch, assigns);
        let sections = outcome.master_sections.into_iter();
        self.sections = Some(sections.map(|(off, s)| (off, Bytes::from(s))).collect());
        // Point-to-point: the master writes its sections now, while the
        // workers write theirs — posted, where the next batch opens at
        // the merge, so its grants leave right behind the assignments,
        // and joined at the seal. Offsets are deterministic, so a rewind
        // rewrites the same bytes; a failed write is left to the seal,
        // which writes them again and fails there, so it changes no
        // run's outcome.
        self.sections_written = !self.lowering.writes_in_step()
            && self
                .write_master_share(batch, self.sm.policy().pipelines())
                .is_ok();
        Ok(events)
    }

    /// Write the master's share of a merged batch's report: its own
    /// sections (headers with the summary preamble or the no-hits
    /// notice, and footers). The one-line summaries and the orphan
    /// records of dead owners' checkpointed fragments are not among
    /// them: they ride to the live workers with the assignments.
    /// With `posted`, the write is parked ([`post_output`]) for the seal
    /// to join.
    pub(super) fn write_master_share(&self, batch: usize, posted: bool) -> Result<(), PioError> {
        let sections = self.sections.clone().ok_or_else(|| {
            PioError::Protocol(format!("batch {batch} finished before it was merged"))
        })?;
        let path = report_path(self.cfg, batch);
        if posted {
            return post_output(self.io, &path, sections, || ());
        }
        flush_output(self.io, &path, sections)?;
        self.lowering.seal_output(self.comm, self.io);
        Ok(())
    }
}

impl WorkerIo<'_, '_> {
    /// Write the records the master assigned this worker for `batch`,
    /// the orphan records it shipped along and the summary blocks it
    /// rendered, then acknowledge under `epoch`. Where the policy
    /// pipelines and the plane posts writes, the write is parked instead
    /// and its completion sends the acknowledgement
    /// ([`Lowering::ack_on_landing`](super::lowering::Lowering)): the
    /// worker searches the next batch's grants while it lands, and joins
    /// it ([`WorkerIo::join_output`]) before its next submission. Out of
    /// line, like the worker's other command handlers (see
    /// `WorkerIo::on_grant`).
    #[inline(never)]
    pub(super) fn write_assigned(&mut self, batch: usize, epoch: u64) -> Result<(), PioError> {
        // One write is parked at a time.
        self.join_output()?;
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
        let rendered = self.render_summaries(&assignment.summaries);
        // Shipped records and rendered blocks must end inside the report;
        // one that overlaps another region fails the view below.
        let end = assignment.end;
        let past_end = |&(off, ref text): &(u64, Bytes)| {
            off.checked_add(text.len() as u64).is_none_or(|e| e > end)
        };
        for (what, placed) in [
            ("shipped record", &assignment.shipped),
            ("summary block", &rendered),
        ] {
            if let Some((off, text)) = placed.iter().find(|item| past_end(item)) {
                return Err(PioError::Protocol(format!(
                    "{what} at {off} ({} bytes) runs past the report end {end}",
                    text.len()
                )));
            }
        }
        items.extend(assignment.shipped);
        items.extend(rendered);
        if !self.policy.recovers() {
            // The batch is written once: the records nobody assigned can
            // never reach the report, and the assigned ones now live in
            // `items` until the file system holds them. Under `Recover` a
            // death may rewind the batch to another merge, whose
            // assignment can name any cached record, so the cache stays
            // until the next batch's prepare resets it.
            self.cache = ResultCache::default();
        }
        let path = report_path(self.cfg, batch);
        let start = self.out_mark.take().unwrap_or(t);
        if self.policy.pipelines() && self.io.posts_writes() {
            let ack = self.lowering.ack_on_landing(self.comm, epoch);
            post_output(self.io, &path, items, ack)?;
            self.phase_times.add(phases::OUTPUT, self.ctx.now() - start);
            return Ok(());
        }
        flush_output(self.io, &path, items)?;
        self.lowering.seal_output(self.comm, self.io);
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

    /// Join the report write [`WorkerIo::write_assigned`] parked, if
    /// any: block until it has landed, charging the wait as output and
    /// the acknowledgement its completion sent as this rank's send.
    pub(super) fn join_output(&mut self) -> Result<(), PioError> {
        let t = self.ctx.now();
        let Some(landed) = self.io.output_join() else {
            return Ok(());
        };
        landed.map_err(PioError::Output)?;
        self.lowering.charge_ack(self.comm);
        self.phase_times.add(phases::OUTPUT, self.ctx.now() - t);
        Ok(())
    }

    /// Render this worker's summary blocks, each into one buffer,
    /// charged as formatting and traced as one `format.summary` span.
    fn render_summaries(&self, blocks: &[SummaryBlock]) -> Vec<(u64, Bytes)> {
        if blocks.is_empty() {
            return Vec::new();
        }
        let start = self.ctx.now();
        let rendered = self.compute.run_format(
            self.ctx,
            || {
                let render = |b: &SummaryBlock| (b.offset, Bytes::from(b.render()));
                blocks.iter().map(render).collect::<Vec<_>>()
            },
            |r| r.iter().map(|(_, text)| text.len() as u64).sum(),
        );
        let lines: usize = blocks.iter().map(|b| b.entries.len()).sum();
        let bytes: usize = rendered.iter().map(|(_, text)| text.len()).sum();
        tracelog::closed_span(
            tracelog::Lane::Runtime,
            "format.summary",
            start.0,
            self.ctx.now().0,
            vec![("lines", lines.into()), ("bytes", bytes.into())],
        );
        rendered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::SummaryEntry;

    /// A closing summary of `lines` entries at `offset`.
    fn summary(offset: u64, lines: usize) -> SummaryBlock {
        let entry = SummaryEntry {
            name: "gi|1| subject".into(),
            bit_score: 50.0,
            evalue: 1e-9,
        };
        SummaryBlock {
            offset,
            entries: vec![entry; lines],
            closes: true,
        }
    }

    #[test]
    fn blocks_of_at_least_64_lines_go_to_the_fewest_lines() {
        // Two queries over workers 1, 2 and 3 (rank 4 is dead). Query 0's
        // 200 lines go out in three blocks, one per worker; query 1's 10
        // lines go out whole, to the worker with the fewest lines so far.
        let (q0, q1) = (summary(100, 200), summary(50_000, 10));
        let per_rank = vec![OffsetAssignment::default(); 5];
        let dealt = deal(&[1, 2, 3], &per_rank, Vec::new(), vec![q0, q1], 60_000);
        assert!(dealt.iter().all(|(_, a)| a.end == 60_000));
        let blocks: Vec<_> = dealt
            .into_iter()
            .map(|(w, a)| {
                let blocks = a.summaries.iter();
                let dealt: Vec<_> = blocks
                    .map(|b| (b.offset, b.entries.len(), b.closes))
                    .collect();
                (w, dealt)
            })
            .collect();
        let line = summary(0, 1).len() - 1;
        assert_eq!(
            blocks,
            [
                (1, vec![(100, 66, false), (50_000, 10, true)]),
                (2, vec![(100 + 66 * line, 67, false)]),
                (3, vec![(100 + 133 * line, 67, true)]),
            ]
        );
    }
}
