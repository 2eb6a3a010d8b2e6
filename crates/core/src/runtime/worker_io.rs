//! A worker's side of the run: one command loop in every mode, acting on
//! each of the master's commands as it arrives.
//!
//! The worker is passive. Its only state beyond its caches is which query
//! batch it has prepared and whether the fragments it holds have been
//! searched against it. The schedule decides *when* searching happens:
//! the dynamic one (which the point-to-point lowering implies) pipelines
//! each granted fragment's input + search before the acknowledgement;
//! the static one defers searching to the submission request, batch by
//! batch.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use blast_core::format::ReportConfig;
use blast_core::search::{PreparedQueries, SearchStats};
use blast_core::seq::SeqRecord;
use bytes::Bytes;
use mpiblast::phases;
use mpiblast::wire::get_queries;
use mpiblast::{ComputeModel, RankReport, MASTER};
use mpiio::IoPlane;
use mpisim::Comm;
use seqfmt::codec::decode_with;
use seqfmt::Wire;
use simcluster::{PhaseTimes, RankCtx, SimTime};

use super::checkpoint;
use super::lowering::{Lowering, Step};
use super::output::{build_plane, fence_staging, report_path};
use super::{policy_of, Assign, Grant, RunPolicy, TAG_READY};
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
    let lowering = Lowering::of(cfg);
    let io = build_plane(ctx, comm, cfg, lowering);
    WorkerIo::new(ctx, comm, cfg, &io, lowering)?.run()
}

/// One of the master's commands, whichever lowering carried it.
#[derive(Debug, Clone, Copy)]
pub(super) enum WorkerEvent {
    /// Fragments arrived (a grant or the static scatter chunk).
    Grant {
        /// Batch the grant belongs to.
        batch: usize,
        /// How many fragments arrived.
        nfrags: usize,
    },
    /// The master's queue is empty (collective lowering of the dynamic
    /// schedule: leave the request loop).
    Drained,
    /// The master asked for this batch's submission under this epoch.
    SubmitReq {
        /// Batch to submit.
        batch: usize,
        /// Fencing epoch to echo.
        epoch: u64,
    },
    /// Offset assignments arrived for the current submission.
    Assign {
        /// Fencing epoch to echo.
        epoch: u64,
    },
    /// The master sealed the run.
    Finish,
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
    /// The query batch prepared last.
    batch: Option<usize>,
    /// Whether the held fragments have been searched against `batch`.
    searched: bool,
    pub(super) compute: ComputeModel,
    pub(super) report_cfg: ReportConfig,
    pub(super) molecule: blast_core::Molecule,
    /// Each batch's queries until its prepare takes them: every batch
    /// from the bundle, or (service mode) each stream batch as its
    /// TAG_QBATCH arrives.
    pub(super) queries: HashMap<usize, Vec<SeqRecord>>,
    /// Every fragment the worker holds. Service mode bounds it (an LRU
    /// by bytes), and a re-granted resident fragment skips its read
    /// entirely — the cross-query cache hit this mode exists for. A
    /// one-shot run is never granted a fragment it holds (only a dead
    /// rank's are re-granted), so its unbounded store keeps grant order.
    pub(super) store: FragmentStore,
    pub(super) prepared: Option<Arc<PreparedQueries>>,
    pub(super) cache: ResultCache,
    pub(super) pending: VecDeque<(u32, FragmentAssignment)>,
    pub(super) grant_volumes: Vec<String>,
    pub(super) assign: Option<Assign>,
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
            batch: None,
            searched: false,
            compute: cfg.compute_for(ctx.rank()),
            report_cfg,
            molecule: bundle.molecule,
            queries,
            store: FragmentStore::new(cfg.service.as_ref().map_or(u64::MAX, |s| s.resident_bytes)),
            prepared: None,
            cache: ResultCache::default(),
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
        if self.policy.dynamic() {
            // Grants are searched as they arrive, so batch 0 is prepared
            // up front (the static schedule prepares on its scatter
            // chunk). Then the initial request; each grant's ack doubles
            // as the next request.
            self.advance(0)?;
            self.comm.send(MASTER, TAG_READY, Bytes::new());
        }
        loop {
            match self.next_event()? {
                WorkerEvent::Grant { batch, nfrags } => self.on_grant(batch, nfrags)?,
                WorkerEvent::Drained => {}
                WorkerEvent::SubmitReq { batch, epoch } => self.on_submit_req(batch, epoch)?,
                WorkerEvent::Assign { epoch } => {
                    self.write_assigned(self.batch.unwrap_or(0), epoch)?
                }
                WorkerEvent::Finish => break,
            }
        }
        self.join_output()?;
        // Final fence: nothing joins a staged drain after the rank body
        // returns, so every absorbed byte must land now.
        fence_staging(self.ctx, self.cfg, self.io, &mut self.phase_times);
        Ok(RankReport {
            phases: self.phase_times,
            search_stats: self.stats_total,
        })
    }

    /// Take a grant in. The dynamic schedule first brings the held
    /// fragments up to a new batch, then searches the grant on arrival
    /// and acknowledges it; the static one only reads its share.
    // Out of line, like every command's handler: inlined into the command
    // loop, a handler's temporaries stay in the loop's frame beneath every
    // search (see `next_event`).
    #[inline(never)]
    fn on_grant(&mut self, batch: usize, nfrags: usize) -> Result<(), PioError> {
        let dynamic = self.policy.dynamic();
        self.advance(batch)?;
        if dynamic {
            self.search_held(batch)?;
        }
        self.ingest(batch, nfrags, dynamic)?;
        if dynamic {
            // The ack tells the master these fragments are done: their
            // checkpoints must have landed (or degraded) first, or a kill
            // right after it would lose them and requeue the fragments.
            checkpoint::join_all(self.io);
            self.comm.send(MASTER, TAG_READY, Bytes::new());
        }
        Ok(())
    }

    /// Submit `batch`'s metadata under `epoch`, after searching the held
    /// fragments against it if that is still due.
    #[inline(never)]
    fn on_submit_req(&mut self, batch: usize, epoch: u64) -> Result<(), PioError> {
        // The previous batch's report write, parked while this one's
        // grants were searched, lands before this batch is submitted.
        self.join_output()?;
        let batch = self.advance(batch)?;
        self.search_held(batch)?;
        // Epoch fence: checkpoint puts the plane still has in flight from
        // this batch's searches must have landed (or degraded) before the
        // results are acknowledged.
        checkpoint::join_all(self.io);
        if self.policy.recovers() {
            // Same contract for the staging tier: anything the master is
            // about to acknowledge must have drained out of this node's
            // staging volume. Fault-free runs defer to the final fence and
            // keep drains overlapping the next batch's searches.
            fence_staging(self.ctx, self.cfg, self.io, &mut self.phase_times);
        }
        let meta = self.cache.metadata();
        self.out_mark = self.lowering.submit(self.comm, epoch, meta);
        // Idle until the assignment: open the report it will be written to.
        self.io.open_output(&report_path(self.cfg, batch));
        Ok(())
    }

    /// Move to `batch` if it is new, preparing it; the held fragments
    /// are then due a search against it. Returns the batch the worker is
    /// on.
    #[inline(never)]
    fn advance(&mut self, batch: usize) -> Result<usize, PioError> {
        match self.batch {
            Some(current) if current >= batch => Ok(current),
            _ => {
                self.batch = Some(batch);
                // Service mode never re-searches held fragments:
                // residency is a *cache* (skipping the read), not
                // outstanding work. Each stream batch searches exactly
                // what the master re-grants it.
                self.searched = self.policy.service;
                self.prepare(batch)?;
                Ok(batch)
            }
        }
    }

    /// Prepare this query batch (masking, lookup tables, search spaces)
    /// and reset the result cache.
    #[inline(never)]
    fn prepare(&mut self, batch: usize) -> Result<(), PioError> {
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

    /// Search every held fragment against the prepared `batch`, in the
    /// store's order, unless that is done already.
    #[inline(never)]
    fn search_held(&mut self, batch: usize) -> Result<(), PioError> {
        if self.searched {
            return Ok(());
        }
        self.searched = true;
        let store = std::mem::take(&mut self.store);
        for (id, frag) in store.iter() {
            self.search_one(batch, id as u32, frag)?;
        }
        self.store = store;
        Ok(())
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
}
