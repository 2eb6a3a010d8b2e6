//! A worker's side of the run: one command loop in every mode, feeding
//! the master's commands to [`WorkerSm`] and performing its actions.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use blast_core::format::ReportConfig;
use blast_core::search::{PreparedQueries, SearchStats};
use blast_core::seq::SeqRecord;
use bytes::Bytes;
use mpiblast::phases;
use mpiblast::wire::{get_queries, OffsetAssignment};
use mpiblast::{ComputeModel, RankReport, MASTER};
use mpiio::IoPlane;
use mpisim::Comm;
use seqfmt::codec::decode_with;
use seqfmt::{FragmentData, Wire};
use simcluster::{PhaseTimes, RankCtx, SimTime};

use super::checkpoint;
use super::lowering::{Lowering, Step};
use super::output::{build_plane, fence_staging};
use super::worker::{WorkerAction, WorkerEvent, WorkerSm};
use super::{policy_of, Grant, RunPolicy, TAG_READY};
use crate::app::{query_batches, PioBlastConfig};
use crate::cache::ResultCache;
use crate::fault::PioError;
use crate::proto::FragmentAssignment;
use crate::service::FragmentStore;

/// A worker's side of the run (every mode).
pub(crate) fn run_worker(
    ctx: &RankCtx,
    comm: &Comm<'_>,
    cfg: &PioBlastConfig,
) -> Result<RankReport, PioError> {
    let lowering = Lowering::of(&policy_of(ctx, cfg, 0));
    let io = build_plane(ctx, comm, cfg, lowering);
    WorkerIo::new(ctx, comm, cfg, &io, lowering)?.run()
}

pub(super) struct WorkerIo<'a, 'b> {
    pub(super) ctx: &'a RankCtx,
    pub(super) comm: &'a Comm<'b>,
    pub(super) cfg: &'a PioBlastConfig,
    /// The rank's I/O plane: every file-system touch goes through it.
    /// Its staging sink is fenced at the epoch boundary (beside the
    /// checkpoint drain) and unconditionally before the run returns.
    pub(super) io: &'a IoPlane<'a, 'b>,
    pub(super) lowering: Lowering,
    pub(super) step: Step,
    pub(super) policy: RunPolicy,
    pub(super) compute: ComputeModel,
    pub(super) report_cfg: ReportConfig,
    pub(super) molecule: blast_core::Molecule,
    /// Each batch's queries until its prepare takes them: every batch
    /// from the bundle, or (service mode) each stream batch as its
    /// TAG_QBATCH arrives.
    pub(super) queries: HashMap<usize, Vec<SeqRecord>>,
    /// Service mode: resident fragments (bounded LRU by bytes). A
    /// re-granted resident fragment skips its read entirely — the
    /// cross-query cache hit this mode exists for.
    pub(super) store: FragmentStore,
    pub(super) prepared: Option<Arc<PreparedQueries>>,
    pub(super) cache: ResultCache,
    pub(super) frags: Vec<(u32, FragmentData)>,
    pub(super) pending: VecDeque<(u32, FragmentAssignment)>,
    pub(super) grant_volumes: Vec<String>,
    pub(super) assign: Option<OffsetAssignment>,
    pub(super) stats_total: SearchStats,
    pub(super) phase_times: PhaseTimes,
    pub(super) out_mark: Option<SimTime>,
}

impl<'a, 'b> WorkerIo<'a, 'b> {
    fn new(
        ctx: &'a RankCtx,
        comm: &'a Comm<'b>,
        cfg: &'a PioBlastConfig,
        io: &'a IoPlane<'a, 'b>,
        lowering: Lowering,
    ) -> Result<WorkerIo<'a, 'b>, PioError> {
        let mut phase_times = PhaseTimes::new();
        let start = ctx.now();
        let bundle = lowering.recv_bundle(comm)?;
        let report_cfg =
            ReportConfig::for_molecule(bundle.molecule, bundle.db_title.clone(), bundle.db_stats);
        // Service mode: the bundle's query list is empty (queries come
        // per stream batch), so the batch count comes from the plan.
        let (queries, nbatches) = match &cfg.service {
            Some(svc) => (HashMap::new(), svc.plan.batches.len()),
            None => {
                let batches = query_batches(&bundle.queries, cfg.query_batch);
                let n = batches.len();
                (batches.into_iter().enumerate().collect(), n)
            }
        };
        let policy = policy_of(ctx, cfg, nbatches);
        phase_times.add(phases::OTHER, ctx.now() - start);
        Ok(WorkerIo {
            ctx,
            comm,
            cfg,
            io,
            lowering,
            step: lowering.first_step(policy.dynamic()),
            policy,
            compute: cfg.compute_for(ctx.rank()),
            report_cfg,
            molecule: bundle.molecule,
            queries,
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

    /// Everything after the initial request is driven by the master's
    /// commands, whichever lowering carries them.
    fn run(mut self) -> Result<RankReport, PioError> {
        let (mut sm, init) = WorkerSm::new(self.policy);
        for act in init {
            self.exec(act)?;
        }
        if self.policy.dynamic() {
            // The initial request; each grant's ack doubles as the next
            // request.
            self.comm.send(MASTER, TAG_READY, Bytes::new());
        }
        'run: loop {
            let event = self.next_event()?;
            for act in sm.handle(event) {
                if act == WorkerAction::Stop {
                    break 'run;
                }
                self.exec(act)?;
            }
        }
        // Final fence: nothing joins a staged drain after the rank body
        // returns, so every absorbed byte must land now.
        fence_staging(self.ctx, self.cfg, self.io, &mut self.phase_times);
        Ok(RankReport {
            phases: self.phase_times,
            search_stats: self.stats_total,
        })
    }

    /// Stash a service-mode query batch delivered over the wire.
    pub(super) fn stash_qbatch(&mut self, payload: &[u8]) -> Result<(), PioError> {
        let (batch, queries) = decode_with(payload, |r| {
            Ok((u32::get(r)?, get_queries(r, self.molecule)?))
        })?;
        self.queries.insert(batch as usize, queries);
        Ok(())
    }

    /// Queue a grant's assignments and produce the matching event.
    pub(super) fn stash_grant(&mut self, grant: Grant) -> Result<WorkerEvent, PioError> {
        let Grant { batch, ids, part } = grant;
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
                    self.await_queries(batch)?;
                }
                let missing = || PioError::Protocol(format!("batch {batch} has no queries"));
                let queries = self.queries.remove(&batch).ok_or_else(missing)?;
                let t = self.ctx.now();
                let prepared = self.compute.run_prepare(
                    self.ctx,
                    &self.cfg.params,
                    &queries,
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
                checkpoint::join_all(self.io);
                if self.policy.recovers() {
                    // Same contract for the staging tier: anything the
                    // master is about to acknowledge must have drained
                    // out of this node's staging volume. Fault-free runs
                    // defer to the final fence and keep drains
                    // overlapping the next batch's searches.
                    fence_staging(self.ctx, self.cfg, self.io, &mut self.phase_times);
                }
                let meta = self.cache.metadata();
                self.out_mark = self.lowering.submit(self.comm, epoch, meta);
                Ok(())
            }
            WorkerAction::WriteAssigned { batch, epoch } => self.write_assigned(batch, epoch),
            WorkerAction::Stop => Ok(()),
        }
    }
}
