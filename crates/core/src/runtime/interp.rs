//! The interpreter: the only place where runtime actions touch the
//! wire and the file system.
//!
//! [`run_master`]/[`run_worker`] drive the pure state machines for every
//! mode. Actions are lowered by policy: the collective lowering (a
//! one-shot `Off` run) maps them onto broadcast/scatter/gather and
//! collective or independent writes; the point-to-point lowering
//! (`Recover`, service mode) maps them onto epoch-framed commands with
//! liveness sweeps, exactly as the old standalone recovery protocol did.
//! Messages (and detected deaths) are translated back into events and
//! fed to the machines.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use blast_core::fasta;
use blast_core::format::ReportConfig;
use blast_core::search::{BlastSearcher, PreparedQueries, SearchScratch, SearchStats};
use blast_core::seq::SeqRecord;
use bytes::Bytes;
use mpiblast::phases;
use mpiblast::wire::{
    get_queries, put_queries, FragmentCheckpoint, MetaHit, MetaSubmission, OffsetAssignment,
    QueryBundle,
};
use mpiblast::{ComputeModel, RankReport, MASTER};
use mpiio::{CollectiveHints, FileView, IoPlane, PlaneConfig, Run, StagingStore};
use mpisim::sched::{default_sweep, Liveness, Polled, Pump};
use mpisim::{Collectives, Comm};
use parafs::{IoClass, StoreError};
use seqfmt::codec::{decode_with, Writer};
use seqfmt::{AliasFile, FragmentData, VolumeIndex, Wire};
use simcluster::{DeviceModel, Message, PhaseTimes, RankCtx, SimDuration, SimTime};

use super::master::{MasterAction, MasterEvent, MasterPhase, MasterSm};
use super::worker::{WorkerAction, WorkerEvent, WorkerSm};
use super::{
    ckpt_path, stream_output_path, Fenced, Grant, RunPolicy, TAG_ABORT, TAG_ASSIGN, TAG_BUNDLE,
    TAG_DONE, TAG_FINISH, TAG_GRANT, TAG_QBATCH, TAG_READY, TAG_SUBMIT, TAG_SUBMIT_REQ,
};
use crate::app::{query_batches, FragmentSchedule, PioBlastConfig};
use crate::cache::ResultCache;
use crate::fault::{FaultMode, PioError};
use crate::merge::{merge_and_layout, MergeOutcome};
use crate::proto::{FragmentAssignment, PartitionMessage};
use crate::service::FragmentStore;

/// Derive the runtime policy from a validated configuration.
fn policy_of(ctx: &RankCtx, cfg: &PioBlastConfig, nbatches: usize) -> RunPolicy {
    RunPolicy {
        schedule: cfg.schedule,
        fault: cfg.fault,
        checkpoint: cfg.checkpoint,
        nranks: ctx.nranks(),
        nfrags: cfg.num_fragments.unwrap_or(ctx.nranks() - 1),
        nbatches,
        service: cfg.service.is_some(),
        affinity: cfg.service.as_ref().is_some_and(|s| s.affinity),
    }
}

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
fn build_plane<'x, 'y>(
    ctx: &RankCtx,
    comm: &'x Comm<'y>,
    cfg: &'x PioBlastConfig,
) -> IoPlane<'x, 'y> {
    // The lowering is settled by the configuration alone; the batch
    // count, unknown until the bundle arrives, plays no part in it.
    let p2p = policy_of(ctx, cfg, 0).p2p();
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
            output: resolve(cfg.collective_output, !p2p),
        },
        staging,
    )
}

/// Join every pending burst-buffer drain, charging the exposed wait to
/// the output phase. A drain failure degrades into a trace event — the
/// affected bytes are absent, exactly as a failed direct write would
/// have left them. *When* this runs is the runtime's durability policy
/// (see the call sites); an unstaged run has nothing to join or charge.
fn fence_staging(
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

/// The outcome of a checkpoint put, at the put or at its join. A failure
/// (a full file system) degrades, not aborts: the blob is simply absent,
/// exactly as if the worker had died mid-checkpoint, and recovery
/// re-queues the fragment.
fn ckpt_landed(put: Result<(), StoreError>) {
    if let Err(e) = put {
        tracelog::instant(
            tracelog::Lane::Io,
            "ckpt.skipped",
            vec![("error", e.to_string().into())],
        );
    }
}

/// The one output epilogue, shared by the master's section writes, the
/// orphan rewrites, and every worker's assigned-record writes: build a
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

// ---------------------------------------------------------------------
// Master
// ---------------------------------------------------------------------

/// The master's side of the run (every mode).
pub(crate) fn run_master(
    ctx: &RankCtx,
    comm: &Comm<'_>,
    cfg: &PioBlastConfig,
) -> Result<RankReport, PioError> {
    let io = build_plane(ctx, comm, cfg);
    MasterIo::new(ctx, comm, cfg, &io)?.run()
}

struct MasterIo<'a, 'b> {
    ctx: &'a RankCtx,
    comm: &'a Comm<'b>,
    cfg: &'a PioBlastConfig,
    /// The rank's I/O plane: every file-system touch goes through it.
    /// Its staging sink is fenced at batch seals under
    /// `FaultMode::Recover` and unconditionally before the run returns.
    io: &'a IoPlane<'a, 'b>,
    policy: RunPolicy,
    report_cfg: ReportConfig,
    molecule: blast_core::Molecule,
    batches: Vec<Vec<SeqRecord>>,
    volumes: Vec<String>,
    assignments: Vec<FragmentAssignment>,
    live0: Vec<bool>,
    liveness: Liveness,
    phase_times: PhaseTimes,
    prepared_cache: Vec<Option<Arc<PreparedQueries>>>,
    batch_offsets: Vec<u64>,
    ckpts: HashMap<(usize, usize), FragmentCheckpoint>,
    orphan_records: HashMap<(u32, u32), Bytes>,
    outcome: Option<MergeOutcome>,
    input_mark: Option<SimTime>,
    out_mark: Option<SimTime>,
    /// Service mode: which stream batches' queries have been shipped
    /// (each batch goes out exactly once, gated on its arrival time).
    qbatch_sent: Vec<bool>,
}

impl<'a, 'b> MasterIo<'a, 'b> {
    fn new(
        ctx: &'a RankCtx,
        comm: &'a Comm<'b>,
        cfg: &'a PioBlastConfig,
        io: &'a IoPlane<'a, 'b>,
    ) -> Result<MasterIo<'a, 'b>, PioError> {
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
            let service_batches = match &cfg.service {
                Some(svc) => Some(svc.plan.partition(&queries)?),
                None => None,
            };
            Ok::<_, PioError>((alias, queries, indexes, idx_dur, service_batches))
        };
        let (alias, queries, indexes, idx_dur, service_batches) = match setup() {
            Ok(v) => v,
            Err(e) => {
                // Release the workers before bailing. Under the
                // collective protocol they sit in the bundle broadcast:
                // an empty bundle fails their decode into a typed
                // protocol error. Under point-to-point modes an abort
                // does the same through the normal path.
                if cfg.fault == FaultMode::Off {
                    comm.bcast(MASTER, Bytes::new());
                } else {
                    for w in 1..ctx.nranks() {
                        let _ = comm.send_checked(w, TAG_ABORT, Bytes::new());
                    }
                }
                return Err(e);
            }
        };
        let bundle = QueryBundle {
            db_title: alias.title.clone(),
            db_stats: alias.global_stats,
            molecule: alias.molecule,
            queries: if cfg.service.is_some() {
                Vec::new()
            } else {
                queries
            },
        };
        let report_cfg =
            ReportConfig::for_molecule(bundle.molecule, bundle.db_title.clone(), bundle.db_stats);
        let bundle_bytes = Bytes::from(bundle.encode());
        let mut live0 = vec![true; ctx.nranks()];
        if cfg.fault == FaultMode::Off {
            comm.bcast(MASTER, bundle_bytes);
        } else {
            for (w, alive) in live0.iter_mut().enumerate().skip(1) {
                *alive = comm
                    .send_checked(w, TAG_BUNDLE, bundle_bytes.clone())
                    .is_ok();
            }
        }
        // The index reads moved ahead of the broadcast (validation must
        // finish before distribution), but they are still the master's
        // input phase: back-date the input mark by their duration and
        // charge the rest of the startup to OTHER, exactly as before.
        let input_mark = SimTime(ctx.now().0 - idx_dur.0);
        phase_times.add(
            phases::OTHER,
            SimDuration((ctx.now() - start).0 - idx_dur.0),
        );

        // ---- virtual fragments ----
        let index_refs: Vec<&VolumeIndex> = indexes.iter().collect();
        let batches = match service_batches {
            Some(b) => b,
            None => query_batches(&bundle.queries, cfg.query_batch),
        };
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
        // queue and ledger must be sized to what actually exists —
        // only the master schedules by fragment id, workers learn
        // their sets from the grant payloads.
        policy.nfrags = assignments.len();

        let nbatches = batches.len();
        Ok(MasterIo {
            ctx,
            comm,
            cfg,
            io,
            policy,
            report_cfg,
            molecule: bundle.molecule,
            batches,
            volumes: alias.volumes,
            assignments,
            liveness: Liveness::from_flags(live0.clone()),
            live0,
            phase_times,
            prepared_cache: (0..nbatches).map(|_| None).collect(),
            batch_offsets: vec![0; nbatches + 1],
            ckpts: HashMap::new(),
            orphan_records: HashMap::new(),
            outcome: None,
            input_mark: Some(input_mark),
            out_mark: None,
            qbatch_sent: vec![false; nbatches],
        })
    }

    fn run(mut self) -> Result<RankReport, PioError> {
        // Service mode: the first stream batch's queries go out before
        // the grant loop, so workers prepare them ahead of their first
        // grant.
        self.ensure_qbatch(0);
        let (mut sm, init) = MasterSm::new(self.policy, self.live0.clone());
        let mut actions: VecDeque<MasterAction> = init.into();
        loop {
            while let Some(act) = actions.pop_front() {
                match act {
                    MasterAction::Finish => {
                        self.finish(&sm);
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
                    act => {
                        let events = match self.exec(&sm, act) {
                            Ok(evs) => evs,
                            Err(e) => {
                                // Tell survivors to stop before bailing so
                                // nobody waits on a master that returned.
                                self.abort_live();
                                return Err(e);
                            }
                        };
                        for ev in events {
                            actions.extend(sm.handle(ev));
                        }
                    }
                }
            }
            // Quiescent: wait for the next message for this phase (the
            // pump folds death detection into the wait).
            let tag = match sm.phase() {
                MasterPhase::Distribute => TAG_READY,
                MasterPhase::Collect => TAG_SUBMIT,
                MasterPhase::WaitWrites => TAG_DONE,
                MasterPhase::Finished | MasterPhase::Failed => {
                    unreachable!("terminal phases return from the action loop")
                }
            };
            let pump = Pump::new(self.comm, self.policy.p2p(), default_sweep());
            let event = match pump.poll(&mut self.liveness, None, Some(tag)) {
                Polled::Msg(m) => match self.translate(&sm, m) {
                    Ok(ev) => ev,
                    Err(e) => {
                        self.abort_live();
                        return Err(e);
                    }
                },
                Polled::Dead(ranks) => self.dead_event(&sm, ranks),
            };
            actions.extend(sm.handle(event));
        }
    }

    /// Message -> event.
    fn translate(&self, sm: &MasterSm, m: Message) -> Result<MasterEvent, PioError> {
        match m.tag {
            TAG_READY => Ok(MasterEvent::Ready { from: m.src }),
            TAG_SUBMIT => {
                let (epoch, sub) = Fenced::<MetaSubmission>::decode(&m.payload)?;
                // A stale epoch's submission is discarded by the machine
                // unread; the current one is the current batch's.
                if epoch == sm.epoch() {
                    self.check_queries(sm.batch(), m.src, &sub)?;
                }
                tracelog::instant(
                    tracelog::Lane::Runtime,
                    "submission",
                    vec![("from", m.src.into()), ("epoch", epoch.into())],
                );
                Ok(MasterEvent::Submission {
                    from: m.src,
                    epoch,
                    sub,
                })
            }
            TAG_DONE => {
                let epoch = u64::decode(&m.payload)?;
                Ok(MasterEvent::WriteDone { from: m.src, epoch })
            }
            other => Err(PioError::Protocol(format!(
                "master got unexpected tag {other}"
            ))),
        }
    }

    /// Deaths -> event, classifying each owned fragment of each victim
    /// as checkpointed (a valid blob exists for the current batch) or
    /// not. Valid blobs are cached for the upcoming merge.
    fn dead_event(&mut self, sm: &MasterSm, ranks: Vec<usize>) -> MasterEvent {
        let mut checkpointed = Vec::new();
        if self.policy.checkpoint {
            let batch = sm.batch();
            for &w in &ranks {
                for &f in sm.owned(w) {
                    let Ok(blob) = self.io.checkpoint_get(&ckpt_path(self.cfg, batch, f)) else {
                        continue;
                    };
                    // A partial write (the victim died mid-checkpoint)
                    // decodes as garbage and counts as absent; so does a
                    // blob naming a query outside the batch.
                    let Ok(ck) = FragmentCheckpoint::decode(&blob) else {
                        continue;
                    };
                    let fits = self.check_queries(batch, w, &ck.meta).is_ok();
                    if fits && ck.batch as usize == batch && ck.fragment as usize == f {
                        self.ckpts.insert((batch, f), ck);
                        checkpointed.push(f);
                    }
                }
            }
        }
        // The machine will requeue exactly the victims' owned fragments
        // that lack a checkpoint; mirror that decision into the trace so
        // recovery runs leave a legible dead -> requeue -> re-collect
        // record.
        for &w in &ranks {
            tracelog::instant(
                tracelog::Lane::Runtime,
                "worker_dead",
                vec![("rank", w.into())],
            );
            if self.policy.recovers() {
                for &f in sm.owned(w) {
                    if !checkpointed.contains(&f) {
                        tracelog::instant(
                            tracelog::Lane::Runtime,
                            "requeue",
                            vec![("fragment", f.into()), ("owner", w.into())],
                        );
                    }
                }
            }
        }
        MasterEvent::Dead {
            ranks,
            checkpointed,
        }
    }

    /// The query indexes of a submission arrive on the wire: one outside
    /// `batch`'s query set is a protocol error naming the sender, not an
    /// out-of-bounds index in the merge.
    fn check_queries(
        &self,
        batch: usize,
        from: usize,
        sub: &MetaSubmission,
    ) -> Result<(), PioError> {
        let n = self.batches[batch].len();
        match sub.per_query.iter().find(|(q, _)| *q as usize >= n) {
            Some((q, _)) => Err(PioError::Protocol(format!(
                "submission from rank {from}: query {q} of a {n}-query batch"
            ))),
            None => Ok(()),
        }
    }

    fn abort_live(&self) {
        for w in self.liveness.live_workers() {
            let _ = self.comm.send_checked(w, TAG_ABORT, Bytes::new());
        }
    }

    /// Service mode: deliver one stream batch's queries to every live
    /// worker, gating on the plan's arrival time — the admission point
    /// of the simulated query stream. Ships each batch exactly once;
    /// a no-op for one-shot runs.
    fn ensure_qbatch(&mut self, batch: usize) {
        let Some(svc) = &self.cfg.service else { return };
        if self.qbatch_sent[batch] {
            return;
        }
        let sb = &svc.plan.batches[batch];
        let (arrival_ns, user, nqueries) = (sb.arrival_ns, sb.user, sb.nqueries);
        self.qbatch_sent[batch] = true;
        let now = self.ctx.now().0;
        if arrival_ns > now {
            // The stream has not submitted this batch yet: wait for it.
            self.ctx.charge(SimDuration(arrival_ns - now));
        }
        tracelog::instant(
            tracelog::Lane::Runtime,
            "service.admit",
            vec![
                ("query", batch.into()),
                ("user", u64::from(user).into()),
                ("queries", nqueries.into()),
            ],
        );
        let mut frame = Writer::default();
        (batch as u32).put(&mut frame);
        put_queries(&self.batches[batch], &mut frame);
        let payload = Bytes::from(frame.finish());
        for w in self.liveness.live_workers() {
            let _ = self.comm.send_checked(w, TAG_QBATCH, payload.clone());
        }
    }

    /// Ship the next stream batch's queries early when it has already
    /// arrived — the delivery overlaps the current batch's searches, so
    /// workers never stall on queries at the batch boundary.
    fn prefetch_qbatch(&mut self, next: usize) {
        let arrived = match &self.cfg.service {
            Some(svc) => {
                next < svc.plan.batches.len()
                    && !self.qbatch_sent[next]
                    && svc.plan.batches[next].arrival_ns <= self.ctx.now().0
            }
            None => false,
        };
        if arrived {
            self.ensure_qbatch(next);
        }
    }

    fn ensure_prepared(&mut self, batch: usize) {
        if self.prepared_cache[batch].is_some() {
            return;
        }
        let t = self.ctx.now();
        let prepared = self.cfg.compute.run_prepare(
            self.ctx,
            &self.cfg.params,
            &self.batches[batch],
            self.report_cfg.db_stats,
        );
        self.prepared_cache[batch] = Some(prepared);
        self.phase_times.add(phases::OTHER, self.ctx.now() - t);
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

    /// Action -> side effects (+ any synchronous follow-up events).
    fn exec(&mut self, sm: &MasterSm, act: MasterAction) -> Result<Vec<MasterEvent>, PioError> {
        match act {
            MasterAction::Grant { to, frag, batch } => {
                // Service mode: the batch's queries must precede its
                // first grant (FIFO per pair keeps them ordered), and an
                // already-arrived next batch rides along early.
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
                let payload = self.grant_payload(batch, &[frag]);
                if self.policy.p2p() {
                    // A failed send means the worker just died; the next
                    // sweep reports it.
                    let _ = self.comm.send_checked(to, TAG_GRANT, payload);
                } else {
                    self.comm.send(to, TAG_GRANT, payload);
                }
                Ok(Vec::new())
            }
            MasterAction::Drain { to } => {
                let payload = self.grant_payload(0, &[]);
                self.comm.send(to, TAG_GRANT, payload);
                Ok(Vec::new())
            }
            MasterAction::Scatter { chunks } => {
                let pieces: Vec<Bytes> = chunks.iter().map(|c| self.grant_payload(0, c)).collect();
                self.comm.scatterv(MASTER, Some(pieces));
                if self.io.collective_reads() {
                    // Collective reads involve every rank; the master
                    // joins each with an empty view.
                    crate::input::read_fragments(self.io, &self.volumes, &[], self.molecule)?;
                }
                Ok(vec![MasterEvent::ScatterDone])
            }
            MasterAction::Collect { batch, epoch } => {
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
                self.ensure_prepared(batch);
                if self.policy.p2p() {
                    let request = Bytes::from((epoch, batch as u32).encode());
                    for w in sm.live_workers() {
                        let _ = self.comm.send_checked(w, TAG_SUBMIT_REQ, request.clone());
                    }
                    Ok(Vec::new())
                } else {
                    // The gather blocks until every worker finished
                    // searching the batch; the wait is the workers'
                    // input+search epochs, not master output time.
                    let subs_bytes = self
                        .comm
                        .gather(MASTER, Bytes::from(MetaSubmission::default().encode()))
                        .ok_or_else(|| {
                            PioError::Protocol("the gather's root received no submissions".into())
                        })?;
                    self.out_mark.get_or_insert(self.ctx.now());
                    let decode = |(rank, b): (usize, &Bytes)| {
                        let sub = MetaSubmission::decode(b)?;
                        self.check_queries(batch, rank, &sub)?;
                        Ok(sub)
                    };
                    match subs_bytes.iter().enumerate().map(decode).collect() {
                        Ok(subs) => Ok(vec![MasterEvent::GatherDone { subs }]),
                        Err(e) => {
                            // The workers wait in the assignment scatter:
                            // empty pieces fail their decode into a typed
                            // error instead of a hang.
                            let empty = vec![Bytes::new(); self.ctx.nranks()];
                            self.comm.scatterv(MASTER, Some(empty));
                            Err(e)
                        }
                    }
                }
            }
            MasterAction::Merge {
                batch,
                epoch,
                mut subs,
                orphans,
            } => {
                self.out_mark.get_or_insert(self.ctx.now());
                tracelog::instant(
                    tracelog::Lane::Runtime,
                    "merge",
                    vec![
                        ("batch", batch.into()),
                        ("epoch", epoch.into()),
                        ("orphans", orphans.len().into()),
                    ],
                );
                if !orphans.is_empty() {
                    subs[MASTER] = self.adopt_orphans(batch, &orphans)?;
                }
                self.ensure_prepared(batch);
                let prepared = self.prepared_cache[batch].as_ref().ok_or_else(|| {
                    PioError::Protocol(format!(
                        "batch {batch} merged before its queries were prepared"
                    ))
                })?;
                // Service mode writes each stream batch to its own file,
                // so every report starts at offset zero.
                let start_offset = if self.policy.service {
                    0
                } else {
                    self.batch_offsets[batch]
                };
                let mut outcome = self.cfg.compute.run_format(
                    self.ctx,
                    || {
                        merge_and_layout(
                            &self.report_cfg,
                            &self.cfg.params,
                            prepared,
                            &subs,
                            self.cfg.report,
                            start_offset,
                        )
                    },
                    |o| o.master_sections.iter().map(|(_, s)| s.len() as u64).sum(),
                );
                self.cfg
                    .compute
                    .run_merge(self.ctx, outcome.merged_items, || ());
                self.batch_offsets[batch + 1] = start_offset + outcome.total_bytes;
                if self.policy.p2p() {
                    for w in sm.live_workers() {
                        let assign = (epoch, outcome.per_rank[w].clone()).encode();
                        let _ = self.comm.send_checked(w, TAG_ASSIGN, Bytes::from(assign));
                    }
                    self.outcome = Some(outcome);
                    Ok(Vec::new())
                } else {
                    let pieces: Vec<Bytes> = outcome
                        .per_rank
                        .iter()
                        .map(|a| Bytes::from(a.encode()))
                        .collect();
                    self.comm.scatterv(MASTER, Some(pieces));
                    self.flush_master_sections(&self.cfg.output_path, &mut outcome)?;
                    if !self.io.collective_writes() {
                        // Two-phase ends in its own barrier; every other
                        // class needs the explicit fence before the batch
                        // is sealed.
                        self.comm.barrier();
                    }
                    if let Some(mark) = self.out_mark.take() {
                        self.phase_times.add(phases::OUTPUT, self.ctx.now() - mark);
                    }
                    Ok(vec![MasterEvent::WriteAllDone])
                }
            }
            MasterAction::FinishBatch { batch } => {
                // Point-to-point only: all live workers wrote. Orphan
                // records (dead owners' checkpointed fragments) land in
                // the master's own assignment slot.
                let mut outcome = self.outcome.take().ok_or_else(|| {
                    PioError::Protocol(format!("batch {batch} finished before it was merged"))
                })?;
                let path = if self.policy.service {
                    stream_output_path(self.cfg, batch)
                } else {
                    self.cfg.output_path.clone()
                };
                let orphans = outcome.per_rank[MASTER]
                    .records
                    .iter()
                    .map(|&(q, oid, off)| {
                        self.orphan_records
                            .get(&(q, oid))
                            .map(|rec| (off, rec.clone()))
                            .ok_or_else(|| {
                                PioError::Protocol(format!(
                                    "orphan record ({q}, {oid}) has no checkpoint"
                                ))
                            })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                flush_output(self.io, &path, orphans)?;
                self.flush_master_sections(&path, &mut outcome)?;
                if let Some(mark) = self.out_mark.take() {
                    self.phase_times.add(phases::OUTPUT, self.ctx.now() - mark);
                }
                if self.policy.recovers() {
                    // Epoch fence: the sealed batch's staged output must
                    // be durable before recovery can treat the batch as
                    // done — a later death must never expose a report
                    // whose bytes still sit in a staging volume.
                    fence_staging(self.ctx, self.cfg, self.io, &mut self.phase_times);
                }
                if let Some(svc) = &self.cfg.service {
                    // The sealed report is the stream query's response:
                    // its latency runs from admission to this moment.
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
            MasterAction::Finish | MasterAction::Fail { .. } => {
                unreachable!("handled in the run loop")
            }
        }
    }

    /// Build the orphan pseudo-submission from cached checkpoint blobs
    /// (ascending fragment order) and stage their record bytes.
    fn adopt_orphans(
        &mut self,
        batch: usize,
        orphans: &[usize],
    ) -> Result<MetaSubmission, PioError> {
        self.orphan_records.clear();
        let mut per_query: Vec<(u32, Vec<MetaHit>)> = Vec::new();
        for &f in orphans {
            let ck = self.ckpts.get(&(batch, f)).ok_or_else(|| {
                PioError::Protocol(format!("fragment {f} orphaned without a checkpoint"))
            })?;
            for (q, hits) in &ck.meta.per_query {
                match per_query.iter_mut().find(|(qi, _)| qi == q) {
                    Some((_, list)) => list.extend(hits.iter().cloned()),
                    None => per_query.push((*q, hits.clone())),
                }
            }
            for (q, oid, rec) in &ck.records {
                self.orphan_records.insert((*q, *oid), rec.clone());
            }
        }
        per_query.sort_by_key(|(q, _)| *q);
        Ok(MetaSubmission { per_query })
    }

    /// Write the master's own sections of a merged batch's report,
    /// handing each section's buffer over to the file system.
    fn flush_master_sections(
        &self,
        path: &str,
        outcome: &mut MergeOutcome,
    ) -> Result<(), PioError> {
        let sections = std::mem::take(&mut outcome.master_sections)
            .into_iter()
            .map(|(off, text)| (off, Bytes::from(text)))
            .collect();
        flush_output(self.io, path, sections)
    }

    /// Seal the run: release the workers, join any staged drains, drop
    /// any checkpoint blobs.
    fn finish(&mut self, sm: &MasterSm) {
        if self.policy.p2p() {
            for w in sm.live_workers() {
                let _ = self.comm.send_checked(w, TAG_FINISH, Bytes::new());
            }
        }
        // Final fence: nothing joins a staged drain after the rank body
        // returns, so every absorbed byte must land now.
        fence_staging(self.ctx, self.cfg, self.io, &mut self.phase_times);
        if self.policy.checkpoint {
            for b in 0..self.policy.nbatches {
                for f in 0..self.policy.nfrags {
                    let _ = self.io.checkpoint_drop(&ckpt_path(self.cfg, b, f));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------

/// A worker's side of the run (every mode).
pub(crate) fn run_worker(
    ctx: &RankCtx,
    comm: &Comm<'_>,
    cfg: &PioBlastConfig,
) -> Result<RankReport, PioError> {
    let io = build_plane(ctx, comm, cfg);
    WorkerIo::new(ctx, comm, cfg, &io)?.run()
}

struct WorkerIo<'a, 'b> {
    ctx: &'a RankCtx,
    comm: &'a Comm<'b>,
    cfg: &'a PioBlastConfig,
    /// The rank's I/O plane: every file-system touch goes through it.
    /// Its staging sink is fenced at the epoch boundary (beside the
    /// checkpoint drain) and unconditionally before the run returns.
    io: &'a IoPlane<'a, 'b>,
    policy: RunPolicy,
    compute: ComputeModel,
    report_cfg: ReportConfig,
    molecule: blast_core::Molecule,
    batches: Vec<Vec<SeqRecord>>,
    /// Service mode: stream batches delivered over TAG_QBATCH, keyed by
    /// batch index, consumed by that batch's prepare.
    batch_store: HashMap<usize, Vec<SeqRecord>>,
    /// Service mode: resident fragments (bounded LRU by bytes). A
    /// re-granted resident fragment skips its read entirely — the
    /// cross-query cache hit this mode exists for.
    store: FragmentStore,
    prepared: Option<Arc<PreparedQueries>>,
    cache: ResultCache,
    frags: Vec<(u32, FragmentData)>,
    pending: VecDeque<(u32, FragmentAssignment)>,
    grant_volumes: Vec<String>,
    assign: Option<OffsetAssignment>,
    stats_total: SearchStats,
    phase_times: PhaseTimes,
    out_mark: Option<SimTime>,
}

impl<'a, 'b> WorkerIo<'a, 'b> {
    fn new(
        ctx: &'a RankCtx,
        comm: &'a Comm<'b>,
        cfg: &'a PioBlastConfig,
        io: &'a IoPlane<'a, 'b>,
    ) -> Result<WorkerIo<'a, 'b>, PioError> {
        let mut phase_times = PhaseTimes::new();
        let start = ctx.now();
        let bundle = if cfg.fault == FaultMode::Off {
            let bytes = comm.bcast(MASTER, Bytes::new());
            QueryBundle::decode(&bytes)?
        } else {
            let pump = Pump::new(comm, true, default_sweep());
            let m = pump
                .recv_from(MASTER, None)
                .map_err(|_| PioError::MasterDied)?;
            match m.tag {
                TAG_ABORT => return Err(PioError::Aborted),
                TAG_BUNDLE => QueryBundle::decode(&m.payload)?,
                other => {
                    return Err(PioError::Protocol(format!(
                        "worker expected the query bundle, got tag {other}"
                    )))
                }
            }
        };
        let report_cfg =
            ReportConfig::for_molecule(bundle.molecule, bundle.db_title.clone(), bundle.db_stats);
        let batches = query_batches(&bundle.queries, cfg.query_batch);
        // Service mode: the bundle's query list is empty (queries come
        // per stream batch), so the batch count comes from the plan.
        let nbatches = match &cfg.service {
            Some(svc) => svc.plan.batches.len(),
            None => batches.len(),
        };
        let policy = policy_of(ctx, cfg, nbatches);
        phase_times.add(phases::OTHER, ctx.now() - start);
        Ok(WorkerIo {
            ctx,
            comm,
            cfg,
            io,
            policy,
            compute: cfg.compute_for(ctx.rank()),
            report_cfg,
            molecule: bundle.molecule,
            batches,
            batch_store: HashMap::new(),
            store: FragmentStore::new(cfg.service.as_ref().map_or(0, |s| s.resident_bytes)),
            prepared: None,
            cache: ResultCache::default(),
            frags: Vec::new(),
            pending: VecDeque::new(),
            grant_volumes: Vec::new(),
            assign: None,
            stats_total: SearchStats::default(),
            phase_times,
            out_mark: None,
        })
    }

    fn run(mut self) -> Result<RankReport, PioError> {
        let (mut sm, init) = WorkerSm::new(self.policy);
        for act in init {
            self.exec(act)?;
        }
        if self.policy.p2p() {
            self.run_p2p(&mut sm)?;
        } else {
            self.run_collective(&mut sm)?;
        }
        // Final fence: nothing joins a staged drain after the rank body
        // returns, so every absorbed byte must land now.
        fence_staging(self.ctx, self.cfg, self.io, &mut self.phase_times);
        Ok(RankReport {
            phases: self.phase_times,
            search_stats: self.stats_total,
        })
    }

    /// The point-to-point command loop (`Recover`, service mode):
    /// everything after the initial request is driven by the master; a
    /// dead master surfaces as a typed error.
    fn run_p2p(&mut self, sm: &mut WorkerSm) -> Result<(), PioError> {
        self.comm.send(MASTER, TAG_READY, Bytes::new());
        loop {
            let m = self.recv_master()?;
            let event = match m.tag {
                TAG_QBATCH => {
                    // A stream batch's queries, possibly prefetched well
                    // ahead of its first grant: stash and keep listening.
                    self.stash_qbatch(&m.payload)?;
                    continue;
                }
                TAG_GRANT => self.stash_grant(&m.payload)?,
                TAG_SUBMIT_REQ => {
                    let (epoch, batch) = Fenced::<u32>::decode(&m.payload)?;
                    WorkerEvent::SubmitReq {
                        batch: batch as usize,
                        epoch,
                    }
                }
                TAG_ASSIGN => {
                    let (epoch, assign) = Fenced::<OffsetAssignment>::decode(&m.payload)?;
                    self.assign = Some(assign);
                    WorkerEvent::Assign { epoch }
                }
                TAG_FINISH => WorkerEvent::Finish,
                other => {
                    return Err(PioError::Protocol(format!(
                        "worker got unexpected tag {other}"
                    )))
                }
            };
            for act in sm.handle(event) {
                if act == WorkerAction::Stop {
                    return Ok(());
                }
                self.exec(act)?;
            }
        }
    }

    /// The collective choreography (a one-shot `Off` run): acquire fragments
    /// (scatter or request loop), then one gather/scatter/write round
    /// per query batch. Same machine, synchronous lowering.
    fn run_collective(&mut self, sm: &mut WorkerSm) -> Result<(), PioError> {
        match self.policy.schedule {
            FragmentSchedule::Static => {
                let part_bytes = self.comm.scatterv(MASTER, None);
                let event = self.stash_grant(&part_bytes)?;
                for act in sm.handle(event) {
                    self.exec(act)?;
                }
            }
            FragmentSchedule::Dynamic => {
                // The initial request; each grant's ack doubles as the
                // next request until the master drains us.
                self.comm.send(MASTER, TAG_READY, Bytes::new());
                loop {
                    let m = self.comm.recv(Some(MASTER), Some(TAG_GRANT));
                    let event = self.stash_grant(&m.payload)?;
                    if matches!(event, WorkerEvent::Drained) {
                        break;
                    }
                    for act in sm.handle(event) {
                        self.exec(act)?;
                    }
                }
            }
        }
        for batch in 0..self.policy.nbatches {
            let epoch = batch as u64 + 1; // cosmetic: collectives self-fence
            for act in sm.handle(WorkerEvent::SubmitReq { batch, epoch }) {
                self.exec(act)?;
            }
            for act in sm.handle(WorkerEvent::Assign { epoch }) {
                self.exec(act)?;
            }
        }
        Ok(())
    }

    fn recv_master(&self) -> Result<Message, PioError> {
        let pump = Pump::new(self.comm, true, default_sweep());
        let m = pump
            .recv_from(MASTER, None)
            .map_err(|_| PioError::MasterDied)?;
        if m.tag == TAG_ABORT {
            return Err(PioError::Aborted);
        }
        Ok(m)
    }

    /// Stash a service-mode query batch delivered over the wire.
    fn stash_qbatch(&mut self, payload: &[u8]) -> Result<(), PioError> {
        let (batch, queries) = decode_with(payload, |r| {
            Ok((u32::get(r)?, get_queries(r, self.molecule)?))
        })?;
        self.batch_store.insert(batch as usize, queries);
        Ok(())
    }

    /// Block until `batch`'s queries have arrived (service mode). The
    /// master ships each batch ahead of its first grant and FIFO order
    /// per pair holds, so this only actually waits for batch 0's
    /// prepare, which runs before the command loop.
    fn ensure_batch_queries(&mut self, batch: usize) -> Result<(), PioError> {
        while !self.batch_store.contains_key(&batch) {
            let m = self.recv_master()?;
            if m.tag == TAG_QBATCH {
                self.stash_qbatch(&m.payload)?;
            } else {
                return Err(PioError::Protocol(format!(
                    "worker expected stream batch {batch} queries, got tag {}",
                    m.tag
                )));
            }
        }
        Ok(())
    }

    /// Queue a grant's assignments and produce the matching event.
    fn stash_grant(&mut self, payload: &[u8]) -> Result<WorkerEvent, PioError> {
        let Grant { batch, ids, part } = Grant::decode(payload)?;
        if ids.len() != part.fragments.len() {
            return Err(PioError::Protocol(
                "grant ids do not match fragments".into(),
            ));
        }
        if part.fragments.is_empty() {
            return Ok(WorkerEvent::Drained);
        }
        let nfrags = part.fragments.len();
        self.grant_volumes = part.volumes;
        self.pending.extend(ids.into_iter().zip(part.fragments));
        Ok(WorkerEvent::Grant {
            batch: batch as usize,
            nfrags,
        })
    }

    fn exec(&mut self, act: WorkerAction) -> Result<(), PioError> {
        match act {
            WorkerAction::Prepare { batch } => {
                if self.policy.service {
                    self.ensure_batch_queries(batch)?;
                }
                let t = self.ctx.now();
                let streamed = if self.policy.service {
                    let queries = self.batch_store.remove(&batch).ok_or_else(|| {
                        PioError::Protocol(format!("stream batch {batch} has no queries"))
                    })?;
                    Some(queries)
                } else {
                    None
                };
                let records = match &streamed {
                    Some(records) => records,
                    None => &self.batches[batch],
                };
                let prepared = self.compute.run_prepare(
                    self.ctx,
                    &self.cfg.params,
                    records,
                    self.report_cfg.db_stats,
                );
                self.prepared = Some(prepared);
                self.cache = ResultCache::default();
                self.phase_times.add(phases::OTHER, self.ctx.now() - t);
                Ok(())
            }
            WorkerAction::SearchHeld { batch } => {
                let frags = std::mem::take(&mut self.frags);
                for (id, frag) in &frags {
                    self.search_one(batch, *id, frag)?;
                }
                self.frags = frags;
                Ok(())
            }
            WorkerAction::Ingest {
                batch,
                count,
                search,
            } => self.ingest(batch, count, search),
            WorkerAction::AckGrant => {
                self.comm.send(MASTER, TAG_READY, Bytes::new());
                Ok(())
            }
            WorkerAction::Submit { batch: _, epoch } => {
                // Epoch fence: checkpoint puts the plane still has in
                // flight from this batch's searches must have landed (or
                // degraded) before the results are acknowledged.
                while let Some(joined) = self.io.checkpoint_join() {
                    ckpt_landed(joined);
                }
                if self.policy.recovers() {
                    // Same contract for the staging tier: anything the
                    // master is about to acknowledge must have drained
                    // out of this node's staging volume. Fault-free runs
                    // defer to the final fence and keep drains
                    // overlapping the next batch's searches.
                    fence_staging(self.ctx, self.cfg, self.io, &mut self.phase_times);
                }
                let meta = self.cache.metadata();
                if self.policy.p2p() {
                    let submission = Bytes::from((epoch, meta).encode());
                    self.comm.send(MASTER, TAG_SUBMIT, submission);
                } else {
                    self.out_mark = Some(self.ctx.now());
                    self.comm.gather(MASTER, Bytes::from(meta.encode()));
                }
                Ok(())
            }
            WorkerAction::WriteAssigned { batch, epoch } => self.write_assigned(batch, epoch),
            WorkerAction::Stop => Ok(()),
        }
    }

    /// Take `count` granted fragments in, one path for every mode. A
    /// fragment comes from the resident [`FragmentStore`] when service
    /// mode holds it — the cross-query cache hit that mode exists for —
    /// and from the plane otherwise: one read set per non-resident
    /// fragment where the plane posts reads (its three file reads in
    /// flight together), one coalesced set for the whole grant
    /// otherwise. It is then searched if the schedule
    /// searches on arrival, and held. A one-shot run is the case with
    /// nothing resident.
    fn ingest(&mut self, batch: usize, count: usize, search: bool) -> Result<(), PioError> {
        if search && count != 1 {
            // Only the static scatter, which defers its searching, hands
            // out whole shares; the count arrives on the wire.
            return Err(PioError::Protocol(format!(
                "grant searched on arrival carries {count} fragments, not 1"
            )));
        }
        if self.pending.len() < count {
            return Err(PioError::Protocol("grant count exceeds stash".into()));
        }
        let granted: Vec<(u32, FragmentAssignment)> = self.pending.drain(..count).collect();
        let absent: Vec<FragmentAssignment> = granted
            .iter()
            .filter(|(id, _)| !self.store.contains(*id as usize))
            .map(|(_, a)| a.clone())
            .collect();
        // The coalesced set is read even when empty: on the two-phase
        // class a rank with nothing of its own still joins the collective.
        let sets: Vec<&[FragmentAssignment]> = if self.io.posts_reads() {
            absent.chunks(1).collect()
        } else {
            vec![&absent]
        };
        let mut read = Vec::with_capacity(absent.len());
        for set in sets {
            let t = self.ctx.now();
            read.extend(crate::input::read_fragments(
                self.io,
                &self.grant_volumes,
                set,
                self.molecule,
            )?);
            self.phase_times.add(phases::INPUT, self.ctx.now() - t);
        }
        let mut read = read.into_iter();
        for (id, _) in granted {
            let resident = self.store.take(id as usize);
            if self.policy.service {
                tracelog::instant(
                    tracelog::Lane::Io,
                    if resident.is_some() {
                        "cache.hit"
                    } else {
                        "cache.miss"
                    },
                    vec![("fragment", u64::from(id).into()), ("batch", batch.into())],
                );
            }
            let frag = resident.or_else(|| read.next()).ok_or_else(|| {
                PioError::Protocol(format!(
                    "fragment {id} of batch {batch} is neither resident nor read"
                ))
            })?;
            if search {
                self.search_one(batch, id, &frag)?;
            }
            if self.policy.service {
                // (Re)admit as most-recently-used, tracing each LRU
                // eviction the insert forces.
                for evicted in self.store.insert(id as usize, frag) {
                    tracelog::instant(
                        tracelog::Lane::Io,
                        "store.evict",
                        vec![("fragment", (evicted as u64).into())],
                    );
                }
            } else {
                self.frags.push((id, frag));
            }
        }
        Ok(())
    }

    /// Search one fragment against the prepared batch, cache the
    /// formatted records, and (under the checkpoint policy) persist the
    /// fragment's results before anything is acknowledged.
    ///
    /// With `cfg.threads > 1` the fragment's subjects are sharded into
    /// contiguous ranges, scanned one after another on the thread's
    /// scratch through [`ComputeModel::run_search_sharded`] (the rank is
    /// charged the max over slot loads plus fork/join), and merged
    /// deterministically — byte-identical to the serial kernel for every
    /// slot count. This composes with `--io-async` and
    /// `FaultMode::Recover` unchanged because both sit outside this call.
    fn search_one(&mut self, batch: usize, id: u32, frag: &FragmentData) -> Result<(), PioError> {
        use blast_core::search::SubjectSource;
        let prepared = self.prepared.as_ref().ok_or_else(|| {
            PioError::Protocol(format!(
                "fragment {id} of batch {batch} granted before its queries were prepared"
            ))
        })?;
        let searcher = BlastSearcher::new(&self.cfg.params, prepared);
        let slots = self.cfg.threads.max(1);
        let search_start = self.ctx.now();
        // Every kernel call borrows the thread's scratch for its own
        // length only: the compute charge that yields to other ranks
        // comes after the closure returns.
        let (per_query, stats) = if slots == 1 {
            self.compute.run_search(self.ctx, || {
                let r = SearchScratch::with_local(|scratch| searcher.search(frag, scratch));
                (r.per_query, r.stats)
            })
        } else {
            let n = frag.num_subjects();
            let nshards = slots.min(n.max(1));
            let per = n.div_ceil(nshards);
            let (parts, _) = self
                .compute
                .run_search_sharded(self.ctx, slots, nshards, |i| {
                    let lo = (i * per).min(n);
                    let hi = ((i + 1) * per).min(n);
                    let r = SearchScratch::with_local(|scratch| {
                        searcher.search_subject_range(frag, lo..hi, scratch)
                    });
                    let stats = r.stats;
                    (r, stats)
                });
            let merged =
                SearchScratch::with_local(|scratch| searcher.merge_sharded(parts, scratch));
            (merged.per_query, merged.stats)
        };
        self.stats_total.merge(&stats);
        tracelog::closed_span(
            tracelog::Lane::Search,
            "search.fragment",
            search_start.0,
            self.ctx.now().0,
            vec![
                ("batch", batch.into()),
                ("fragment", (id as u64).into()),
                ("subjects", stats.subjects.into()),
                ("hsps", stats.hsps_kept.into()),
            ],
        );
        self.phase_times
            .add(phases::SEARCH, self.ctx.now() - search_start);

        let cache_start = self.ctx.now();
        let per_query = if self.cfg.local_prune {
            // Paper §5: a worker's hits beyond the global report limit
            // can never appear in the output; prune before formatting.
            let keep = self
                .cfg
                .report
                .num_descriptions
                .max(self.cfg.report.num_alignments);
            per_query
                .into_iter()
                .map(|mut hits| {
                    hits.truncate(keep);
                    hits
                })
                .collect()
        } else {
            per_query
        };
        let cache = &mut self.cache;
        let (_, payload) = self.compute.run_format(
            self.ctx,
            || {
                cache.add_fragment_traced(
                    &self.cfg.params,
                    &self.report_cfg,
                    prepared,
                    frag,
                    per_query,
                    self.cfg.checkpoint,
                )
            },
            |r| r.as_ref().map(|(bytes, _)| *bytes).unwrap_or(0),
        )?;
        if let Some((meta, records)) = payload {
            let blob = FragmentCheckpoint {
                batch: batch as u32,
                fragment: id,
                meta,
                records,
            }
            .encode();
            let path = ckpt_path(self.cfg, batch, id as usize);
            // Joined here on the serial plane; fired and parked in the
            // plane under `--io-async`, where the epoch fence joins it.
            ckpt_landed(self.io.checkpoint_put(&path, blob));
        }
        self.phase_times
            .add(phases::OUTPUT, self.ctx.now() - cache_start);
        Ok(())
    }

    fn write_assigned(&mut self, batch: usize, epoch: u64) -> Result<(), PioError> {
        let t = self.ctx.now();
        let assignment = if self.policy.p2p() {
            self.assign.take().ok_or_else(|| {
                PioError::Protocol(format!("batch {batch} written with no assignment"))
            })?
        } else {
            let bytes = self.comm.scatterv(MASTER, None);
            OffsetAssignment::decode(&bytes)?
        };
        let items = self
            .cache
            .assigned_records(&assignment.records)
            .map_err(|(q, oid)| {
                PioError::Protocol(format!("assigned record ({q}, {oid}) not cached"))
            })?;
        if !self.policy.recovers() {
            // The batch is written once: the records nobody assigned can
            // never reach the report, and the assigned ones now live in
            // `items` until the file system holds them. Under `Recover` a
            // death may rewind the batch to another merge, whose
            // assignment can name any cached record, so the cache stays
            // until the next batch's prepare resets it.
            self.cache = ResultCache::default();
        }
        let path = if self.policy.service {
            stream_output_path(self.cfg, batch)
        } else {
            self.cfg.output_path.clone()
        };
        flush_output(self.io, &path, items)?;
        if !self.policy.p2p() && !self.io.collective_writes() {
            self.comm.barrier();
        }
        let start = self.out_mark.take().unwrap_or(t);
        self.phase_times.add(phases::OUTPUT, self.ctx.now() - start);
        if self.policy.p2p() {
            if self.policy.recovers() {
                // Fence-before-ack: TAG_DONE tells the master this
                // worker's output section is durable, and recovery will
                // not re-assign it after a death. Staged bytes are
                // node-local and die with the rank, so they must drain
                // before the ack leaves.
                fence_staging(self.ctx, self.cfg, self.io, &mut self.phase_times);
            }
            self.comm
                .send(MASTER, TAG_DONE, Bytes::from(epoch.encode()));
        }
        Ok(())
    }
}
