//! The master's side of the run: setup and bundle distribution, then
//! [`MasterSm`]'s actions performed and its events gathered, in every
//! mode. Under `Recover` it also keeps the volume indexes, to re-cut a
//! dead worker's requeued fragments into pieces at record boundaries.

use std::collections::VecDeque;
use std::sync::Arc;

use blast_core::fasta;
use blast_core::format::ReportConfig;
use blast_core::search::{PreparedQueries, SearchStats};
use blast_core::seq::SeqRecord;
use bytes::Bytes;
use mpiblast::phases;
use mpiblast::wire::{MetaSubmission, QueryBundle};
use mpiblast::{RankReport, MASTER};
use mpiio::IoPlane;
use mpisim::sched::Polled;
use mpisim::{Collectives, Comm};
use seqfmt::{AliasFile, VolumeIndex, Wire};
use simcluster::{PhaseTimes, RankCtx, SimDuration, SimTime};

use super::checkpoint;
use super::checkpoint::cut_pieces;
use super::lowering::Lowering;
use super::master::{MasterAction, MasterEvent, MasterPhase, MasterSm};
use super::output::{build_plane, fence_staging, report_path};
use super::{policy_of, Grant, TAG_ABORT, TAG_DONE, TAG_GRANT, TAG_READY, TAG_SUBMIT};
use crate::app::{query_batches, PioBlastConfig};
use crate::cache::ResultCache;
use crate::fault::PioError;
use crate::merge::Merger;
use crate::proto::{FragmentAssignment, PartitionMessage};

/// The master's side of the run (every mode).
pub(crate) fn run_master(
    ctx: &RankCtx,
    comm: &Comm<'_>,
    cfg: &PioBlastConfig,
) -> Result<RankReport, PioError> {
    let lowering = Lowering::of(cfg);
    let io = build_plane(ctx, comm, cfg, lowering);
    let (master, init) = MasterIo::new(ctx, comm, cfg, &io, lowering)?;
    master.run(init)
}

pub(super) struct MasterIo<'a, 'b> {
    pub(super) ctx: &'a RankCtx,
    pub(super) comm: &'a Comm<'b>,
    pub(super) cfg: &'a PioBlastConfig,
    /// The rank's I/O plane: every file-system touch goes through it.
    /// Its staging sink is fenced at batch seals under
    /// `FaultMode::Recover` and unconditionally before the run returns.
    pub(super) io: &'a IoPlane<'a, 'b>,
    pub(super) lowering: Lowering,
    pub(super) report_cfg: ReportConfig,
    molecule: blast_core::Molecule,
    pub(super) batches: Vec<Vec<SeqRecord>>,
    volumes: Vec<String>,
    /// Every fragment id's byte ranges: the virtual fragments, then the
    /// pieces deaths re-cut them into, in id order.
    assignments: Vec<FragmentAssignment>,
    /// The volume indexes the pieces are cut from; empty unless the
    /// policy recovers.
    indexes: Vec<VolumeIndex>,
    /// The machine whose actions this performs: the master's only
    /// record of its policy, of fragments and of which workers are live.
    pub(super) sm: MasterSm,
    pub(super) phase_times: PhaseTimes,
    prepared_cache: Vec<Option<Arc<PreparedQueries>>>,
    pub(super) batch_offsets: Vec<u64>,
    /// The current batch's orphans' payloads, adopted as each death's
    /// checkpoints are found.
    pub(super) orphans: ResultCache,
    /// The current epoch's merge: every submission the machine accepted,
    /// absorbed as it arrived.
    pub(super) merger: Merger,
    /// The master's own report sections of the current merge.
    pub(super) sections: Option<Vec<(u64, Bytes)>>,
    /// Whether `sections` landed beside the workers' writes
    /// (point-to-point), so the seal need not write them.
    pub(super) sections_written: bool,
    input_mark: Option<SimTime>,
    pub(super) out_mark: Option<SimTime>,
    /// Service mode: which stream batches' queries have been shipped
    /// (each batch goes out exactly once, gated on its arrival time).
    pub(super) qbatch_sent: Vec<bool>,
}

impl<'a, 'b> MasterIo<'a, 'b> {
    fn new(
        ctx: &'a RankCtx,
        comm: &'a Comm<'b>,
        cfg: &'a PioBlastConfig,
        io: &'a IoPlane<'a, 'b>,
        lowering: Lowering,
    ) -> Result<(MasterIo<'a, 'b>, Vec<MasterAction>), PioError> {
        let mut phase_times = PhaseTimes::new();

        // ---- startup: read and validate *every* setup file before the
        // bundle is distributed, so a missing or malformed alias, query
        // FASTA, or volume index degrades into a typed error on every
        // rank instead of panicking the master (and deadlocking workers
        // mid-broadcast).
        let start = ctx.now();
        let store_err = |e| PioError::Input(crate::input::InputError::Store(e));
        let bad = |what: String| PioError::Input(crate::input::InputError::Malformed(what));
        let setup = || {
            let alias_bytes = io.read_whole(&cfg.db_alias).map_err(store_err)?;
            let alias = AliasFile::decode(&alias_bytes)
                .map_err(|e| bad(format!("alias {}: {e}", cfg.db_alias)))?;
            let query_text = io.read_whole(&cfg.query_path).map_err(store_err)?;
            let queries = fasta::parse(alias.molecule, &query_text)
                .map_err(|e| bad(format!("query FASTA {}: {e}", cfg.query_path)))?;
            let idx_start = ctx.now();
            let mut indexes: Vec<VolumeIndex> = Vec::new();
            for vol in &alias.volumes {
                let path = format!("db/{vol}.idx");
                let idx_bytes = io.read_whole(&path).map_err(store_err)?;
                indexes.push(
                    VolumeIndex::decode(&idx_bytes)
                        .map_err(|e| bad(format!("volume index {path}: {e}")))?,
                );
            }
            let idx_dur = ctx.now() - idx_start;
            // Service mode partitions the query set into per-user stream
            // batches and delivers each over its own TAG_QBATCH message at
            // admission time; the bundle ships *empty* queries. A plan
            // that does not cover the query set exactly degrades with
            // the malformed setup files.
            let (queries, batches) = match &cfg.service {
                Some(svc) => (Vec::new(), svc.plan.partition(&queries)?),
                None => {
                    let batches = query_batches(&queries, cfg.query_batch);
                    (queries, batches)
                }
            };
            Ok::<_, PioError>((alias, queries, batches, indexes, idx_dur))
        };
        let (alias, queries, batches, indexes, idx_dur) =
            setup().inspect_err(|_| lowering.release(comm))?;
        let bundle = QueryBundle {
            db_title: alias.title.clone(),
            db_stats: alias.global_stats,
            molecule: alias.molecule,
            queries,
        };
        let report_cfg =
            ReportConfig::for_molecule(bundle.molecule, bundle.db_title.clone(), bundle.db_stats);
        let live0 = lowering.send_bundle(comm, Bytes::from(bundle.encode()));
        // The index reads precede the bundle (validation must finish
        // before distribution), but they are the master's input phase:
        // back-date the input mark by their duration and charge the rest
        // of the startup to OTHER.
        let input_mark = SimTime(ctx.now().0 - idx_dur.0);
        phase_times.add(
            phases::OTHER,
            SimDuration((ctx.now() - start).0 - idx_dur.0),
        );

        // ---- virtual fragments ----
        let index_refs: Vec<&VolumeIndex> = indexes.iter().collect();
        let mut policy = policy_of(ctx, cfg, batches.len());
        let specs = seqfmt::virtual_fragments(&index_refs, policy.nfrags);
        let assignments: Vec<FragmentAssignment> = specs
            .into_iter()
            .map(|spec| FragmentAssignment {
                volume_name: alias.volumes[spec.volume].clone(),
                spec,
            })
            .collect();
        // The partitioner cannot split below record granularity, so a
        // coarse database (few long sequences, many requested
        // fragments) yields fewer fragments than asked for. The grant
        // queue must be sized to what actually exists — only the
        // master schedules by fragment id, workers learn their sets
        // from the grant payloads.
        policy.nfrags = assignments.len();

        let nbatches = batches.len();
        let indexes = if policy.recovers() {
            indexes
        } else {
            Vec::new()
        };
        let (sm, init) = MasterSm::new(policy, live0);
        let master = MasterIo {
            ctx,
            comm,
            cfg,
            io,
            lowering,
            report_cfg,
            molecule: bundle.molecule,
            batches,
            volumes: alias.volumes,
            assignments,
            indexes,
            sm,
            phase_times,
            prepared_cache: (0..nbatches).map(|_| None).collect(),
            batch_offsets: vec![0; nbatches + 1],
            orphans: ResultCache::default(),
            merger: Merger::default(),
            sections: None,
            sections_written: false,
            input_mark: Some(input_mark),
            out_mark: None,
            qbatch_sent: vec![false; nbatches],
        };
        Ok((master, init))
    }

    fn run(mut self, init: Vec<MasterAction>) -> Result<RankReport, PioError> {
        // Service mode: the first stream batch's queries go out before
        // the grant loop, so workers prepare them ahead of their first
        // grant.
        self.ensure_qbatch(0);
        let mut actions: VecDeque<MasterAction> = init.into();
        loop {
            while let Some(act) = actions.pop_front() {
                if let Some(event) = self.event_before(&act)? {
                    // What the event calls for goes first.
                    actions.push_front(act);
                    for follow in self.sm.handle(event).into_iter().rev() {
                        actions.push_front(follow);
                    }
                    continue;
                }
                // Action -> side effects (+ any synchronous follow-up
                // events).
                let events = match act {
                    MasterAction::Finish => {
                        self.finish();
                        return Ok(RankReport {
                            phases: self.phase_times,
                            search_stats: SearchStats::default(),
                        });
                    }
                    MasterAction::Fail {
                        error,
                        abort_workers,
                    } => {
                        if abort_workers {
                            self.abort_live();
                        }
                        return Err(error);
                    }
                    MasterAction::Grant { to, frag, batch } => self.grant(to, frag, batch),
                    MasterAction::Drain { to } => {
                        self.comm.send(to, TAG_GRANT, self.grant_payload(0, &[]));
                        Ok(Vec::new())
                    }
                    MasterAction::Scatter { chunks } => self.scatter(&chunks),
                    MasterAction::Collect { batch, epoch } => self.collect(batch, epoch),
                    MasterAction::Absorb { from, sub } => self.absorb(from, sub),
                    MasterAction::Merge {
                        batch,
                        epoch,
                        orphans,
                    } => self.merge(batch, epoch, &orphans),
                    MasterAction::FinishBatch { batch } => self.finish_batch(batch),
                };
                // Tell survivors to stop before bailing so nobody waits
                // on a master that returned.
                for ev in events.inspect_err(|_| self.abort_live())? {
                    actions.extend(self.sm.handle(ev));
                }
            }
            // Quiescent: wait for the next event (with no deadline, one
            // always comes).
            if let Some(event) = self.next_event(None)? {
                actions.extend(self.sm.handle(event));
            }
        }
    }

    /// An event to handle before performing `act`, where a merged batch
    /// seals beside the next one: a message that has already arrived,
    /// before a grant, so the seal never waits behind the next batch's
    /// grants; and any that arrives while the stream has not submitted
    /// the batch `act` needs, so acknowledgements and deaths are not held
    /// up behind admission. `None` once `act` may be performed.
    fn event_before(&mut self, act: &MasterAction) -> Result<Option<MasterEvent>, PioError> {
        if self.sm.sealing().is_some() && matches!(act, MasterAction::Grant { .. }) {
            if let Some(m) = self.ctx.try_recv(None, None) {
                return Ok(Some(self.translate(m).inspect_err(|_| self.abort_live())?));
            }
        }
        while let Some(arrival) = self.unadmitted(act) {
            if let Some(event) = self.next_event(Some(arrival))? {
                return Ok(Some(event));
            }
        }
        Ok(None)
    }

    /// Wait for the next message (the pump folds death detection into
    /// the wait) until `deadline`, if there is one: the phase's own while
    /// one batch is open, any while a merged batch seals beside the next
    /// one's distribution. `None` when the deadline passed first.
    fn next_event(&mut self, deadline: Option<SimTime>) -> Result<Option<MasterEvent>, PioError> {
        let tag = match self.sm.phase() {
            _ if self.sm.sealing().is_some() => None,
            MasterPhase::Distribute => Some(TAG_READY),
            MasterPhase::Collect => Some(TAG_SUBMIT),
            MasterPhase::WaitWrites => Some(TAG_DONE),
            MasterPhase::Finished | MasterPhase::Failed => {
                unreachable!("terminal phases return from the action loop")
            }
        };
        let pump = self.lowering.pump(self.comm);
        Ok(
            match pump.poll_until(|w| self.sm.is_live(w), None, tag, deadline) {
                None => None,
                Some(Polled::Msg(m)) => Some(self.translate(m).inspect_err(|_| self.abort_live())?),
                Some(Polled::Dead(ranks)) => Some(self.dead_event(ranks)),
            },
        )
    }

    /// Deaths -> event: each owned fragment of each victim with a valid
    /// checkpoint blob for the current batch is reported, and its payload
    /// adopted into the orphan cache. Each fragment the death requeues is
    /// re-cut into as many pieces as [`MasterSm::recut`] says.
    fn dead_event(&mut self, ranks: Vec<usize>) -> MasterEvent {
        let mut checkpointed = Vec::new();
        let sm = &self.sm;
        if sm.policy().checkpoint {
            let batch = sm.batch();
            let owned = ranks
                .iter()
                .flat_map(|&w| sm.owned(w).iter().map(move |&f| (w, f)));
            let queries = &self.batches[batch];
            let fits = |w, meta: &MetaSubmission| check_queries(queries, w, meta).is_ok();
            checkpointed =
                checkpoint::find(self.io, self.cfg, batch, owned, fits, &mut self.orphans);
        }
        let (requeued, k) = self.sm.recut(&ranks, &checkpointed);
        let pieces = cut_pieces(&mut self.assignments, &self.indexes, &requeued, k);
        MasterEvent::Dead {
            ranks,
            checkpointed,
            pieces,
        }
    }

    fn abort_live(&self) {
        for w in self.sm.live_workers() {
            let _ = self.comm.send_checked(w, TAG_ABORT, Bytes::new());
        }
    }

    /// `batch`'s prepared queries, prepared on first use.
    pub(super) fn prepared(&mut self, batch: usize) -> Arc<PreparedQueries> {
        if let Some(prepared) = &self.prepared_cache[batch] {
            return prepared.clone();
        }
        let t = self.ctx.now();
        let prepared = self.cfg.compute.run_prepare(
            self.ctx,
            &self.cfg.params,
            &self.batches[batch],
            self.report_cfg.db_stats,
        );
        self.prepared_cache[batch] = Some(prepared.clone());
        self.phase_times.add(phases::OTHER, self.ctx.now() - t);
        prepared
    }

    fn grant_payload(&self, batch: usize, frags: &[usize]) -> Bytes {
        let grant = Grant {
            batch: batch as u32,
            ids: frags.iter().map(|&f| f as u32).collect(),
            part: PartitionMessage {
                fragments: frags.iter().map(|&f| self.assignments[f].clone()).collect(),
                volumes: self.volumes.clone(),
            },
        };
        Bytes::from(grant.encode())
    }

    fn grant(
        &mut self,
        to: usize,
        frag: usize,
        batch: usize,
    ) -> Result<Vec<MasterEvent>, PioError> {
        // Service mode: the batch's queries must precede its first grant
        // (FIFO per pair keeps them ordered), and an already-arrived next
        // batch rides along early.
        self.ensure_qbatch(batch);
        self.prefetch_qbatch(batch + 1);
        tracelog::instant(
            tracelog::Lane::Runtime,
            "grant",
            vec![
                ("to", to.into()),
                ("batch", batch.into()),
                ("nfrags", 1usize.into()),
            ],
        );
        // A failed send means the worker just died; the next sweep
        // reports it.
        let _ = self
            .comm
            .send_checked(to, TAG_GRANT, self.grant_payload(batch, &[frag]));
        Ok(Vec::new())
    }

    fn scatter(&mut self, chunks: &[Vec<usize>]) -> Result<Vec<MasterEvent>, PioError> {
        let pieces: Vec<Bytes> = chunks.iter().map(|c| self.grant_payload(0, c)).collect();
        self.comm.scatterv(MASTER, pieces);
        if self.io.collective_reads() {
            // Collective reads involve every rank; the master joins each
            // with an empty view.
            crate::input::read_fragments(self.io, &self.volumes, &[], self.molecule)?;
        }
        Ok(vec![MasterEvent::ScatterDone])
    }

    fn collect(&mut self, batch: usize, epoch: u64) -> Result<Vec<MasterEvent>, PioError> {
        self.ensure_qbatch(batch);
        self.prefetch_qbatch(batch + 1);
        tracelog::instant(
            tracelog::Lane::Runtime,
            "epoch_start",
            vec![("epoch", epoch.into()), ("batch", batch.into())],
        );
        if let Some(mark) = self.input_mark.take() {
            self.phase_times.add(phases::INPUT, self.ctx.now() - mark);
        }
        let prepared = self.prepared(batch);
        self.merger = Merger::new(prepared.len(), self.comm.size());
        self.request_submissions(batch, epoch);
        // The master waits for submissions now: open the report meanwhile.
        self.io.open_output(&report_path(self.cfg, batch));
        Ok(Vec::new())
    }

    /// Every live worker wrote: join the master's share where it was
    /// posted, or write it unless it is written already, then seal.
    fn finish_batch(&mut self, batch: usize) -> Result<Vec<MasterEvent>, PioError> {
        if let Some(landed) = self.io.output_join() {
            landed.map_err(PioError::Output)?;
        }
        if !std::mem::take(&mut self.sections_written) {
            self.write_master_share(batch, false)?;
        }
        self.sections = None;
        if let Some(mark) = self.out_mark.take() {
            self.phase_times.add(phases::OUTPUT, self.ctx.now() - mark);
        }
        // The sealed batch's adopted records are done with.
        self.orphans = ResultCache::default();
        if self.sm.policy().recovers() {
            // Epoch fence: the sealed batch's staged output must be
            // durable before recovery can treat the batch as done — a
            // later death must never expose a report whose bytes still
            // sit in a staging volume.
            fence_staging(self.ctx, self.cfg, self.io, &mut self.phase_times);
        }
        if let Some(svc) = &self.cfg.service {
            // The sealed report is the stream query's response: its
            // latency runs from admission to this moment.
            let sb = &svc.plan.batches[batch];
            let now = self.ctx.now().0;
            tracelog::closed_span(
                tracelog::Lane::Runtime,
                "service.query",
                sb.arrival_ns,
                now,
                vec![
                    ("query", batch.into()),
                    ("user", u64::from(sb.user).into()),
                    ("queries", sb.nqueries.into()),
                ],
            );
            tracelog::instant(
                tracelog::Lane::Runtime,
                "service.done",
                vec![
                    ("query", batch.into()),
                    ("latency_ns", now.saturating_sub(sb.arrival_ns).into()),
                ],
            );
        }
        Ok(Vec::new())
    }

    /// Seal the run: release the workers, join any staged drains, drop
    /// any checkpoint blobs.
    fn finish(&mut self) {
        self.lowering.finish(self.comm, self.sm.live_workers());
        // Final fence: nothing joins a staged drain after the rank body
        // returns, so every absorbed byte must land now.
        fence_staging(self.ctx, self.cfg, self.io, &mut self.phase_times);
        let policy = self.sm.policy();
        if policy.checkpoint {
            let nids = self.assignments.len();
            checkpoint::drop_all(self.io, self.cfg, policy.nbatches, nids);
        }
    }
}

/// The query indexes of a submission arrive on the wire: one outside
/// the batch's query set is a protocol error naming the sender, not an
/// out-of-bounds index in the merge.
pub(super) fn check_queries(
    batch: &[SeqRecord],
    from: usize,
    sub: &MetaSubmission,
) -> Result<(), PioError> {
    let n = batch.len();
    match sub.per_query.iter().find(|(q, _)| *q as usize >= n) {
        Some((q, _)) => Err(PioError::Protocol(format!(
            "submission from rank {from}: query {q} of a {n}-query batch"
        ))),
        None => Ok(()),
    }
}
