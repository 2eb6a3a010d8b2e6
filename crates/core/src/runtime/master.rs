//! The master's protocol state machine: it sends no messages and does
//! no file I/O, and it traces the decisions it makes.
//!
//! One machine drives every mode. The cycle per query batch is
//! `Distribute -> Collect -> WaitWrites`, then either the next batch or
//! `Finished`; where the policy [pipelines](RunPolicy::pipelines), a
//! merged batch's `WaitWrites` runs beside the next batch's `Distribute`
//! instead (see below):
//!
//! * **Distribute** — fragments flow from the grant queue to idle live
//!   workers: one scatter of whole shares up front for the static
//!   schedule, one fragment per request for the dynamic one. Completion
//!   means the queue is drained and every live worker is idle — it has
//!   acknowledged its last grant, or the scatter gave it its share.
//! * **Collect** — a new epoch is fenced and every live worker is asked
//!   for its metadata submission. Stale-epoch submissions are discarded;
//!   each accepted one goes at once to the run loop's merger (`Absorb`),
//!   which holds the payloads: the machine records only who submitted.
//! * **WaitWrites** — offsets were assigned; the master waits for every
//!   live worker's write acknowledgement before sealing the batch.
//!
//! Under the point-to-point lowering a death that fails the run needs
//! nothing of a merged batch but its acknowledgements, so there the next
//! batch opens at the merge: its grants follow the `Merge` at once, a
//! sealing record (the merged batch and `done`) collects the merged
//! batch's acknowledgements and emits its `FinishBatch` on the last one,
//! and the next batch's `Collect` waits until that batch is sealed *and*
//! the next one is fully distributed. The collective lowering and
//! `Recover` — whose rewinds need the merged batch's state until the
//! seal — open the next batch at the seal.
//!
//! Where each fragment stands is recorded once, in the grant queue: every
//! fragment's owner (and last holder, which steers service-mode re-grants
//! back to the data). The master's own row holds the orphans.
//!
//! A worker death is one event, and only the point-to-point lowering
//! ever reports one (the collective lowering hangs, like MPI). Unless the
//! policy recovers it fails the run; under `Recover` every fragment the
//! victim owned that no valid checkpoint covers re-enters the queue,
//! searched and acknowledged or not — its results lived only in the
//! victim's cache — rewinding the phase to `Distribute`, while the
//! checkpointed ones become orphans: the master owns them, ascending,
//! until the batch seals, and their records ride to the live workers
//! with the next assignments. If nothing needs re-searching, the machine
//! only rewinds to `Collect` and re-merges with the orphans spliced in.
//!
//! A requeued fragment need not go to one rank. Fragments are virtual —
//! any record range of the shared database is one — so when there are
//! more idle survivors than pending work, the run loop re-cuts each
//! requeued fragment at record boundaries ([`MasterSm::recut`] says
//! into how many pieces) and the death event names the pieces' fresh
//! ids. The queue puts the pieces where the fragment was, and they stay
//! fragments of their own for the rest of the run: granted, owned,
//! checkpointed and re-cut by id like any other. The machine traces each
//! victim's `worker_dead`, each fragment it requeues and each `split`.

use mpiblast::wire::MetaSubmission;
use mpiblast::MASTER;
use mpisim::sched::{chunk_evenly, GrantQueue};

use super::RunPolicy;
use crate::app::FragmentSchedule;
use crate::fault::PioError;

/// What the master's run loop reports to the machine.
#[derive(Debug, Clone)]
pub enum MasterEvent {
    /// A worker requested a fragment / acknowledged its last grant.
    Ready {
        /// Sender.
        from: usize,
    },
    /// A worker's epoch-fenced metadata submission.
    Submission {
        /// Sender.
        from: usize,
        /// Epoch the submission answers.
        epoch: u64,
        /// The metadata.
        sub: MetaSubmission,
    },
    /// A worker finished writing its assigned records.
    WriteDone {
        /// Sender.
        from: usize,
        /// Epoch the acknowledgement answers.
        epoch: u64,
    },
    /// Workers were found dead. `checkpointed` is the subset of their
    /// owned fragments with a valid checkpoint blob on the shared FS;
    /// `pieces` re-cuts some of the others (see [`MasterSm::recut`]).
    Dead {
        /// The newly dead ranks.
        ranks: Vec<usize>,
        /// Their checkpoint-covered fragments.
        checkpointed: Vec<usize>,
        /// `(fragment, piece ids)`: a requeued fragment and the fresh ids
        /// of the pieces it was cut into, which requeue in its place.
        pieces: Vec<(usize, Vec<usize>)>,
    },
    /// The static scatter completed: every worker holds its share.
    ScatterDone,
}

/// What the run loop must do next.
#[derive(Debug, Clone)]
pub enum MasterAction {
    /// Send one fragment to a worker (the dynamic schedule, under either
    /// lowering).
    Grant {
        /// Destination worker.
        to: usize,
        /// Global fragment id.
        frag: usize,
        /// Batch the grant belongs to.
        batch: usize,
    },
    /// Tell a worker the queue is empty (collective lowering of the
    /// dynamic schedule: the worker leaves its request loop).
    Drain {
        /// Destination worker.
        to: usize,
    },
    /// Scatter the rank-indexed fragment chunks (the static schedule).
    Scatter {
        /// `chunks[rank]`; `chunks[0]` is empty (the master).
        chunks: Vec<Vec<usize>>,
    },
    /// Ask every live worker for its batch submission under this epoch,
    /// resetting the merge.
    Collect {
        /// Batch to collect.
        batch: usize,
        /// Fencing epoch.
        epoch: u64,
    },
    /// Absorb an accepted submission into the current epoch's merge.
    Absorb {
        /// Sender.
        from: usize,
        /// The metadata.
        sub: MetaSubmission,
    },
    /// Merge what the live workers' submissions absorbed and the
    /// orphans, assign offsets, start the writes.
    Merge {
        /// Batch being merged.
        batch: usize,
        /// Fencing epoch.
        epoch: u64,
        /// Checkpoint-adopted fragments to splice into the merge.
        orphans: Vec<usize>,
    },
    /// All live workers wrote (their own and any shipped orphan
    /// records): the batch is sealed once the master's own sections are
    /// written too.
    FinishBatch {
        /// The sealed batch.
        batch: usize,
    },
    /// The run is complete: release the workers, clean up.
    Finish,
    /// The run cannot complete.
    Fail {
        /// Why.
        error: PioError,
        /// Whether surviving workers must be told to abort.
        abort_workers: bool,
    },
}

/// The master's protocol phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MasterPhase {
    /// Granting fragments.
    Distribute,
    /// Collecting epoch-fenced submissions.
    Collect,
    /// Waiting for write acknowledgements.
    WaitWrites,
    /// Finished successfully.
    Finished,
    /// Failed with a reported error.
    Failed,
}

/// The master state machine. Feed it events via [`MasterSm::handle`];
/// perform the returned actions in order.
#[derive(Debug)]
pub struct MasterSm {
    policy: RunPolicy,
    phase: MasterPhase,
    live: Vec<bool>,
    /// Workers holding no unacknowledged grant: they asked for work (or
    /// acknowledged their last fragment) and got nothing, or the static
    /// scatter handed them their whole share.
    idle: Vec<bool>,
    /// Every fragment's owner. `MASTER`'s row holds the current batch's
    /// orphans, whose dead owner left a valid checkpoint: the merge
    /// splices in their blobs, and they re-enter the queue when the batch
    /// is sealed.
    queue: GrantQueue,
    epoch: u64,
    batch: usize,
    /// Which workers' submissions this epoch absorbed.
    submitted: Vec<bool>,
    done: Vec<bool>,
    /// The merged batch whose acknowledgements `done` still collects
    /// while `batch`, the next one, is distributed: only where the
    /// policy pipelines.
    sealing: Option<usize>,
}

impl MasterSm {
    /// Build the machine and the initial actions (the scatter for the
    /// static schedule; nothing for the dynamic one, which is
    /// request-driven). `live[w]` marks the workers that accepted the
    /// query bundle.
    pub fn new(policy: RunPolicy, live: Vec<bool>) -> (MasterSm, Vec<MasterAction>) {
        let nranks = policy.nranks;
        assert_eq!(live.len(), nranks);
        let mut sm = MasterSm {
            policy,
            phase: MasterPhase::Distribute,
            live,
            idle: vec![false; nranks],
            queue: GrantQueue::new(policy.nfrags, nranks),
            epoch: 0,
            batch: 0,
            submitted: vec![false; nranks],
            done: vec![false; nranks],
            sealing: None,
        };
        if sm.policy.p2p() && !sm.any_worker_live() {
            let fail = sm.fail(PioError::AllWorkersDied, false);
            return (sm, fail);
        }
        let mut acts = Vec::new();
        if sm.policy.schedule == FragmentSchedule::Static {
            let sizes = chunk_evenly((0..sm.policy.nfrags).collect::<Vec<_>>(), nranks - 1)
                .into_iter()
                .map(|c| c.len());
            let mut chunks: Vec<Vec<usize>> = vec![Vec::new(); nranks];
            for (w, n) in (1..nranks).zip(sizes) {
                chunks[w] = sm.queue.grant_chunk(w, n);
            }
            acts.push(MasterAction::Scatter { chunks });
        }
        (sm, acts)
    }

    /// The policy the machine runs under.
    pub fn policy(&self) -> &RunPolicy {
        &self.policy
    }

    /// Current phase.
    pub fn phase(&self) -> MasterPhase {
        self.phase
    }

    /// Current query batch.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The merged batch still collecting write acknowledgements while
    /// the current one is distributed, if any (a pipelining policy
    /// only).
    pub fn sealing(&self) -> Option<usize> {
        self.sealing
    }

    /// Current fencing epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Fragments currently owned by `rank`; `MASTER`'s are the current
    /// batch's orphans, ascending.
    pub fn owned(&self, rank: usize) -> &[usize] {
        self.queue.owned(rank)
    }

    /// Is `rank` still presumed live?
    pub fn is_live(&self, rank: usize) -> bool {
        self.live[rank]
    }

    /// Still-live worker ranks, ascending.
    pub fn live_workers(&self) -> impl Iterator<Item = usize> + '_ {
        (1..self.policy.nranks).filter(|&w| self.live[w])
    }

    fn any_worker_live(&self) -> bool {
        self.live_workers().next().is_some()
    }

    /// What a death of `ranks` under `Recover` would requeue — their
    /// owned fragments `checkpointed` does not cover — and into how many
    /// pieces to re-cut each: the live workers left, shared over the
    /// work then pending (the requeued fragments and the queue), and
    /// never less than 1. A victim's leftover work thus goes to every
    /// idle survivor instead of one; under a backlog the rule gives 1 and
    /// whole fragments are requeued. It reads only what the machine
    /// holds, and nothing requeues without `Recover`.
    pub fn recut(&self, ranks: &[usize], checkpointed: &[usize]) -> (Vec<usize>, usize) {
        if !self.policy.recovers() {
            return (Vec::new(), 1);
        }
        let requeued: Vec<usize> = ranks
            .iter()
            .filter(|&&w| self.live[w])
            .flat_map(|&w| self.queue.owned(w))
            .filter(|f| !checkpointed.contains(f))
            .copied()
            .collect();
        let left = self.live_workers().filter(|w| !ranks.contains(w)).count();
        let work = requeued.len() + self.queue.pending().count();
        (requeued, (left / work.max(1)).max(1))
    }

    /// Apply one event; returns the actions to perform, in order.
    pub fn handle(&mut self, event: MasterEvent) -> Vec<MasterAction> {
        match event {
            MasterEvent::Ready { from } => self.on_ready(from),
            MasterEvent::Submission { from, epoch, sub } => self.on_submission(from, epoch, sub),
            MasterEvent::WriteDone { from, epoch } => self.on_write_done(from, epoch),
            MasterEvent::Dead {
                ranks,
                checkpointed,
                pieces,
            } => self.on_dead(&ranks, &checkpointed, &pieces),
            MasterEvent::ScatterDone => {
                // Every worker holds its whole share; the collective
                // itself was the acknowledgement.
                self.idle.fill(true);
                self.redistribute()
            }
        }
    }

    /// Grant queued fragments to idle live workers, one fragment each.
    /// A request on a non-empty queue is served at once, so requests are
    /// answered in arrival order; several workers are idle together only
    /// when the queue refills (a requeue, the next stream batch).
    fn pump_grants(&mut self) -> Vec<MasterAction> {
        let mut acts = Vec::new();
        while let Some(w) = (1..self.policy.nranks).find(|&w| self.live[w] && self.idle[w]) {
            let granted = if self.policy.affinity {
                self.queue.grant_to_preferring(w)
            } else {
                self.queue.grant_to(w)
            };
            let Some(f) = granted else {
                break; // the queue is drained
            };
            self.idle[w] = false;
            acts.push(MasterAction::Grant {
                to: w,
                frag: f,
                batch: self.batch,
            });
        }
        acts
    }

    fn distribution_complete(&self) -> bool {
        self.queue.is_drained() && self.live_workers().all(|w| self.idle[w])
    }

    /// Open collection once the batch is fully distributed and the one
    /// before it is sealed.
    fn collect_if_distributed(&mut self) -> Vec<MasterAction> {
        if self.distribution_complete() && self.sealing.is_none() {
            self.start_collect()
        } else {
            Vec::new()
        }
    }

    /// End the run with `error`.
    fn fail(&mut self, error: PioError, abort_workers: bool) -> Vec<MasterAction> {
        self.phase = MasterPhase::Failed;
        self.sealing = None;
        vec![MasterAction::Fail {
            error,
            abort_workers,
        }]
    }

    /// Open a new fenced epoch and ask for submissions.
    fn start_collect(&mut self) -> Vec<MasterAction> {
        self.epoch += 1;
        self.submitted = vec![false; self.policy.nranks];
        self.done = vec![false; self.policy.nranks];
        self.phase = MasterPhase::Collect;
        vec![MasterAction::Collect {
            batch: self.batch,
            epoch: self.epoch,
        }]
    }

    fn collection_complete(&self) -> bool {
        self.live_workers().all(|w| self.submitted[w])
    }

    /// Merge the batch; where the policy pipelines and a batch follows,
    /// open it at once, keeping this one's seal in the sealing record.
    fn merge_actions(&mut self) -> Vec<MasterAction> {
        let mut acts = vec![MasterAction::Merge {
            batch: self.batch,
            epoch: self.epoch,
            orphans: self.queue.owned(MASTER).to_vec(),
        }];
        if self.policy.pipelines() && self.batch + 1 < self.policy.nbatches {
            self.sealing = Some(self.batch);
            acts.extend(self.open_next_batch());
        } else {
            self.phase = MasterPhase::WaitWrites;
        }
        acts
    }

    /// Resume distribution (after a requeue or at a batch boundary) and
    /// fall through to collection if there is nothing left to grant.
    fn redistribute(&mut self) -> Vec<MasterAction> {
        self.phase = MasterPhase::Distribute;
        let mut acts = self.pump_grants();
        acts.extend(self.collect_if_distributed());
        acts
    }

    /// Seal the batch: either the run is over, or the next batch opens.
    fn advance_batch(&mut self) -> Vec<MasterAction> {
        if self.batch + 1 == self.policy.nbatches {
            self.phase = MasterPhase::Finished;
            return vec![MasterAction::Finish];
        }
        self.open_next_batch()
    }

    /// Open the next batch: orphans re-enter the queue, and its
    /// distribution starts.
    fn open_next_batch(&mut self) -> Vec<MasterAction> {
        self.batch += 1;
        // The orphans' blobs covered the sealed batch only, so they go
        // back to the queue first. A stream batch searches the whole
        // database again: every fragment re-enters circulation. Workers
        // keep the *bytes* resident, and under affinity each fragment's
        // re-grant goes back to its last holder so the read is skipped.
        let ranks = if self.policy.service {
            self.policy.nranks
        } else {
            MASTER + 1
        };
        for r in MASTER..ranks {
            let _ = self.queue.release(r, false);
        }
        self.redistribute()
    }

    fn on_ready(&mut self, from: usize) -> Vec<MasterAction> {
        if !self.live[from] {
            return Vec::new();
        }
        self.idle[from] = true;
        if self.phase != MasterPhase::Distribute {
            return Vec::new();
        }
        let mut acts = self.pump_grants();
        if self.idle[from] && !self.policy.p2p() {
            // Nothing left for the requester. A point-to-point worker
            // waits for its next command; a collective one must be told
            // to leave its request loop for the gather.
            acts.push(MasterAction::Drain { to: from });
        }
        acts.extend(self.collect_if_distributed());
        acts
    }

    fn on_submission(&mut self, from: usize, epoch: u64, sub: MetaSubmission) -> Vec<MasterAction> {
        let current = self.phase == MasterPhase::Collect && epoch == self.epoch;
        if !current || !self.live[from] || self.submitted[from] {
            return Vec::new(); // stale epoch, stale sender or a repeat: discard
        }
        self.submitted[from] = true;
        let mut acts = vec![MasterAction::Absorb { from, sub }];
        if self.collection_complete() {
            acts.extend(self.merge_actions());
        }
        acts
    }

    fn on_write_done(&mut self, from: usize, epoch: u64) -> Vec<MasterAction> {
        let writing = self.phase == MasterPhase::WaitWrites || self.sealing.is_some();
        if !writing || epoch != self.epoch || !self.live[from] {
            return Vec::new();
        }
        self.done[from] = true;
        if !self.live_workers().all(|w| self.done[w]) {
            return Vec::new();
        }
        // Where the next batch is open already, it collects once it is
        // distributed too.
        let sealed = self.sealing.take().unwrap_or(self.batch);
        let mut acts = vec![MasterAction::FinishBatch { batch: sealed }];
        acts.extend(if sealed < self.batch {
            self.collect_if_distributed()
        } else {
            self.advance_batch()
        });
        acts
    }

    fn on_dead(
        &mut self,
        ranks: &[usize],
        checkpointed: &[usize],
        pieces: &[(usize, Vec<usize>)],
    ) -> Vec<MasterAction> {
        if matches!(self.phase, MasterPhase::Finished | MasterPhase::Failed) {
            return Vec::new();
        }
        let mut requeued_any = false;
        for &w in ranks {
            self.live[w] = false;
            self.idle[w] = false;
            self.submitted[w] = false;
            self.done[w] = false;
            let rank = ("rank", w.into());
            tracelog::instant(tracelog::Lane::Runtime, "worker_dead", vec![rank]);
            if !self.policy.recovers() {
                continue;
            }
            // Recover: the checkpointed fragments become the master's
            // orphans, and every other one is requeued, as its pieces
            // where it was re-cut. Service mode requeues at the *front*:
            // a stream of batches keeps refilling the queue's tail, and a
            // tail requeue would starve recovered fragments behind work
            // that arrived after the death.
            self.queue
                .hand_over(w, MASTER, |f| checkpointed.contains(f));
            for f in self.queue.release(w, self.policy.service) {
                requeued_any = true;
                tracelog::instant(
                    tracelog::Lane::Runtime,
                    "requeue",
                    vec![("fragment", f.into()), ("owner", w.into())],
                );
                let Some((_, ids)) = pieces.iter().find(|(g, _)| *g == f) else {
                    continue;
                };
                if self.queue.split(f, ids) {
                    tracelog::instant(
                        tracelog::Lane::Runtime,
                        "split",
                        vec![("fragment", f.into()), ("pieces", ids.len().into())],
                    );
                }
            }
        }
        if !self.policy.recovers() {
            // Nobody asked to recover, so nobody posted the fences that
            // make a requeue safe (fence-before-ack, the epoch fence):
            // fail fast.
            return self.fail(PioError::WorkerDied { rank: ranks[0] }, true);
        }
        if !self.any_worker_live() {
            return self.fail(PioError::AllWorkersDied, false);
        }
        match self.phase {
            MasterPhase::Distribute => self.redistribute(),
            MasterPhase::Collect => {
                if requeued_any {
                    self.redistribute()
                } else if self.collection_complete() {
                    // The victim's fragments are all orphaned; the
                    // survivors' submissions plus the orphan blobs still
                    // cover every fragment.
                    self.merge_actions()
                } else {
                    Vec::new()
                }
            }
            MasterPhase::WaitWrites => {
                if requeued_any {
                    self.redistribute()
                } else {
                    // Nothing to re-search: rewind only to collection so
                    // the merge re-runs with the orphans spliced in.
                    self.start_collect()
                }
            }
            MasterPhase::Finished | MasterPhase::Failed => unreachable!(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::checkpoint::cut_pieces;
    use super::*;
    use crate::fault::FaultMode;
    use crate::proto::FragmentAssignment;

    fn policy(
        schedule: FragmentSchedule,
        fault: FaultMode,
        checkpoint: bool,
        nfrags: usize,
        nbatches: usize,
    ) -> RunPolicy {
        RunPolicy {
            schedule,
            fault,
            checkpoint,
            nranks: 3,
            nfrags,
            nbatches,
            service: false,
            affinity: false,
        }
    }

    fn sub() -> MetaSubmission {
        MetaSubmission::default()
    }

    /// `from`'s submission under `epoch`, which the machine must accept
    /// and hand to the merger first: the actions that follow the absorb.
    fn submit(sm: &mut MasterSm, from: usize, epoch: u64) -> Vec<MasterAction> {
        let sub = sub();
        let mut acts = sm.handle(MasterEvent::Submission { from, epoch, sub });
        let absorbed =
            matches!(acts.first(), Some(MasterAction::Absorb { from: f, .. }) if *f == from);
        assert!(absorbed, "{from}'s submission absorbed first: {acts:?}");
        acts.split_off(1)
    }

    /// Every live worker's submission for the current epoch, then every
    /// live worker's write acknowledgement: the actions of each event
    /// (after each submission's absorb).
    fn answer_batch(sm: &mut MasterSm, workers: &[usize]) -> Vec<Vec<MasterAction>> {
        let epoch = sm.epoch();
        let mut acts = Vec::new();
        for &from in workers {
            acts.push(submit(sm, from, epoch));
        }
        for &from in workers {
            acts.push(sm.handle(MasterEvent::WriteDone { from, epoch }));
        }
        acts
    }

    #[test]
    fn collective_static_walks_the_batch_cycle() {
        let p = policy(FragmentSchedule::Static, FaultMode::Off, false, 4, 2);
        let (mut sm, acts) = MasterSm::new(p, vec![true; 3]);
        let [MasterAction::Scatter { chunks }] = &acts[..] else {
            panic!("expected a scatter, got {acts:?}");
        };
        assert_eq!(chunks[0], Vec::<usize>::new());
        assert_eq!(chunks.iter().flatten().count(), 4);
        let acts = sm.handle(MasterEvent::ScatterDone);
        assert!(matches!(
            &acts[..],
            [MasterAction::Collect { batch: 0, .. }]
        ));
        // The gather yields one submission per worker and the assignment
        // scatter one write acknowledgement per worker; `FinishBatch`
        // seals each batch before the next one's `Collect`, or `Finish`.
        let acts = answer_batch(&mut sm, &[1, 2]);
        assert!(acts[0].is_empty() && acts[2].is_empty(), "{acts:?}");
        assert!(matches!(
            &acts[1][..],
            [MasterAction::Merge { batch: 0, .. }]
        ));
        assert!(matches!(
            &acts[3][..],
            [
                MasterAction::FinishBatch { batch: 0 },
                MasterAction::Collect { batch: 1, .. }
            ]
        ));
        let acts = answer_batch(&mut sm, &[1, 2]);
        assert!(matches!(
            &acts[1][..],
            [MasterAction::Merge { batch: 1, .. }]
        ));
        assert!(matches!(
            &acts[3][..],
            [MasterAction::FinishBatch { batch: 1 }, MasterAction::Finish]
        ));
        assert_eq!(sm.phase(), MasterPhase::Finished);
    }

    #[test]
    fn off_and_recover_lower_one_dynamic_cycle() {
        // The same fault-free dynamic `Ready` order: both policies grant,
        // collect, merge and seal alike; only the collective lowering
        // tells a worker that asked on an empty queue to leave its
        // request loop.
        let run = |fault| {
            let p = policy(FragmentSchedule::Dynamic, fault, false, 3, 2);
            let (mut sm, init) = MasterSm::new(p, vec![true; 3]);
            let mut acts = init;
            for from in [1, 2, 1, 2, 1] {
                acts.extend(sm.handle(MasterEvent::Ready { from }));
            }
            // Batch 1 searches the held fragments again: no grants.
            for _ in 0..2 {
                acts.extend(answer_batch(&mut sm, &[1, 2]).into_iter().flatten());
            }
            assert_eq!(sm.phase(), MasterPhase::Finished, "{fault:?}: {acts:?}");
            acts.iter().map(|a| format!("{a:?}")).collect::<Vec<_>>()
        };
        let off = run(FaultMode::Off);
        let recover = run(FaultMode::Recover);
        let not_drain = |a: &&String| !a.starts_with("Drain");
        let drains = off.iter().filter(|a| !not_drain(a)).count();
        assert_eq!(drains, 2, "one per worker: {off:?}");
        assert_eq!(
            off.iter().filter(not_drain).collect::<Vec<_>>(),
            recover.iter().collect::<Vec<_>>()
        );
        assert!(recover
            .iter()
            .any(|a| a.starts_with("FinishBatch { batch: 1 }")));
    }

    #[test]
    fn dynamic_requests_are_served_in_arrival_order() {
        let p = policy(FragmentSchedule::Dynamic, FaultMode::Off, false, 3, 1);
        let (mut sm, acts) = MasterSm::new(p, vec![true; 3]);
        assert!(acts.is_empty(), "dynamic schedules are request-driven");
        for (req, frag) in [(2usize, 0usize), (1, 1), (2, 2)] {
            let acts = sm.handle(MasterEvent::Ready { from: req });
            let [MasterAction::Grant { to, frag: got, .. }] = &acts[..] else {
                panic!("expected a grant");
            };
            assert_eq!((*to, *got), (req, frag));
        }
        let acts = sm.handle(MasterEvent::Ready { from: 1 });
        assert!(matches!(&acts[..], [MasterAction::Drain { to: 1 }]));
        let acts = sm.handle(MasterEvent::Ready { from: 2 });
        assert!(matches!(
            &acts[..],
            [MasterAction::Drain { to: 2 }, MasterAction::Collect { .. }]
        ));
    }

    #[test]
    fn recover_requeues_unfinished_and_adopts_checkpointed() {
        let p = policy(FragmentSchedule::Dynamic, FaultMode::Recover, true, 3, 1);
        let (mut sm, _) = MasterSm::new(p, vec![true; 3]);
        // Worker 1 takes two fragments (acking the first), worker 2 one.
        let _ = sm.handle(MasterEvent::Ready { from: 1 });
        let _ = sm.handle(MasterEvent::Ready { from: 2 });
        let _ = sm.handle(MasterEvent::Ready { from: 1 });
        assert_eq!(sm.owned(1), &[0, 2]);
        // Worker 1 dies; fragment 0 is checkpointed, fragment 2 is not.
        let acts = sm.handle(MasterEvent::Dead {
            ranks: vec![1],
            checkpointed: vec![0],
            pieces: Vec::new(),
        });
        assert_eq!(sm.owned(MASTER), &[0]);
        // Fragment 2 must be re-granted — worker 2 is busy, so no grant
        // yet; its ack pulls the requeued fragment.
        assert!(acts.is_empty());
        let acts = sm.handle(MasterEvent::Ready { from: 2 });
        let [MasterAction::Grant { to: 2, frag: 2, .. }] = &acts[..] else {
            panic!("expected the requeued grant, got {acts:?}");
        };
        // Final ack completes distribution; the merge sees the orphan.
        let acts = sm.handle(MasterEvent::Ready { from: 2 });
        let [MasterAction::Collect { epoch, .. }] = &acts[..] else {
            panic!("expected collection, got {acts:?}");
        };
        let acts = submit(&mut sm, 2, *epoch);
        let [MasterAction::Merge { orphans, .. }] = &acts[..] else {
            panic!("expected the merge, got {acts:?}");
        };
        assert_eq!(orphans, &[0]);
    }

    #[test]
    fn unrecovered_death_fails_fast_and_stale_epochs_are_discarded() {
        // Point-to-point without `Recover` — `serve` with no `--recover`:
        // the one death the master hears of fails the run and aborts the
        // survivors; nothing is requeued.
        let mut p = policy(FragmentSchedule::Dynamic, FaultMode::Off, false, 2, 1);
        p.service = true;
        let (mut sm, _) = MasterSm::new(p, vec![true; 3]);
        let _ = sm.handle(MasterEvent::Ready { from: 1 });
        let stale = sm.handle(MasterEvent::Submission {
            from: 1,
            epoch: 99,
            sub: sub(),
        });
        assert!(stale.is_empty(), "wrong phase/epoch must be discarded");
        let acts = sm.handle(MasterEvent::Dead {
            ranks: vec![1],
            checkpointed: vec![],
            pieces: Vec::new(),
        });
        let [MasterAction::Fail {
            error: PioError::WorkerDied { rank: 1 },
            abort_workers: true,
        }] = &acts[..]
        else {
            panic!("expected a fail action, got {acts:?}");
        };
        assert_eq!(sm.phase(), MasterPhase::Failed);
        assert_eq!(sm.owned(1), &[0], "the victim's fragment is not requeued");
    }

    #[test]
    fn service_regrants_every_fragment_to_its_resident_holder() {
        let mut p = policy(FragmentSchedule::Dynamic, FaultMode::Off, false, 4, 2);
        p.service = true;
        p.affinity = true;
        let (mut sm, acts) = MasterSm::new(p, vec![true; 3]);
        assert!(acts.is_empty());
        // Batch 0: requests alternate, so worker 1 ends up holding
        // fragments {0, 2} and worker 2 holds {1, 3}.
        for w in [1, 2, 1, 2] {
            let _ = sm.handle(MasterEvent::Ready { from: w });
        }
        let _ = sm.handle(MasterEvent::Ready { from: 1 });
        let acts = sm.handle(MasterEvent::Ready { from: 2 });
        let [MasterAction::Collect { epoch, .. }] = &acts[..] else {
            panic!("expected collection, got {acts:?}");
        };
        assert_eq!(sm.owned(1), &[0, 2]);
        assert_eq!(sm.owned(2), &[1, 3]);
        let epoch = *epoch;
        let _ = submit(&mut sm, 1, epoch);
        let acts = submit(&mut sm, 2, epoch);
        // The merge opens batch 1 at once (point-to-point, fail-fast):
        // all four fragments are re-queued and one is re-granted to each
        // idle worker — the one it already holds.
        let [MasterAction::Merge { batch: 0, .. }, MasterAction::Grant {
            to: 1,
            frag: 0,
            batch: 1,
        }, MasterAction::Grant {
            to: 2,
            frag: 1,
            batch: 1,
        }] = &acts[..]
        else {
            panic!("expected the merge + affinity re-grants, got {acts:?}");
        };
        assert_eq!((sm.batch(), sm.sealing()), (1, Some(0)));
        // Batch 0 seals on its last acknowledgement, beside batch 1.
        assert!(sm
            .handle(MasterEvent::WriteDone { from: 1, epoch })
            .is_empty());
        let acts = sm.handle(MasterEvent::WriteDone { from: 2, epoch });
        assert!(
            matches!(&acts[..], [MasterAction::FinishBatch { batch: 0 }]),
            "{acts:?}"
        );
        // The follow-up requests pull each worker's other resident
        // fragment, so batch 1 repeats batch 0's placement exactly.
        let acts = sm.handle(MasterEvent::Ready { from: 1 });
        let [MasterAction::Grant { to: 1, frag: 2, .. }] = &acts[..] else {
            panic!("expected a grant, got {acts:?}");
        };
        let acts = sm.handle(MasterEvent::Ready { from: 2 });
        let [MasterAction::Grant { to: 2, frag: 3, .. }] = &acts[..] else {
            panic!("expected a grant, got {acts:?}");
        };
        assert_eq!(sm.owned(1), &[0, 2]);
        assert_eq!(sm.owned(2), &[1, 3]);
    }

    #[test]
    fn a_fail_fast_stream_grants_the_next_batch_at_the_merge_and_collects_it_after_the_seal() {
        let mut p = policy(FragmentSchedule::Dynamic, FaultMode::Off, false, 2, 3);
        p.service = true;
        let (mut sm, _) = MasterSm::new(p, vec![true; 3]);
        for w in [1, 2, 1, 2] {
            let _ = sm.handle(MasterEvent::Ready { from: w });
        }
        let epoch = sm.epoch();
        let _ = submit(&mut sm, 1, epoch);
        let acts = submit(&mut sm, 2, epoch);
        assert_eq!(grants(&acts), vec![(1, 0), (2, 1)]);
        // Batch 1 is distributed before batch 0 seals: no collection yet,
        // and a submission for it would be stale.
        assert!(sm.handle(MasterEvent::Ready { from: 1 }).is_empty());
        assert!(sm.handle(MasterEvent::Ready { from: 2 }).is_empty());
        assert_eq!(sm.phase(), MasterPhase::Distribute);
        let _ = sm.handle(MasterEvent::WriteDone { from: 2, epoch });
        let stale = sm.handle(MasterEvent::WriteDone {
            from: 2,
            epoch: epoch + 1,
        });
        assert!(stale.is_empty());
        let acts = sm.handle(MasterEvent::WriteDone { from: 1, epoch });
        assert!(
            matches!(
                &acts[..],
                [
                    MasterAction::FinishBatch { batch: 0 },
                    MasterAction::Collect { batch: 1, .. }
                ]
            ),
            "{acts:?}"
        );
        // A death while batch 1 seals beside batch 2 fails the run.
        let epoch = sm.epoch();
        for from in [1, 2] {
            let _ = sm.handle(MasterEvent::Submission {
                from,
                epoch,
                sub: sub(),
            });
        }
        assert_eq!(sm.sealing(), Some(1));
        let acts = sm.handle(MasterEvent::Dead {
            ranks: vec![2],
            checkpointed: vec![],
            pieces: Vec::new(),
        });
        assert!(matches!(&acts[..], [MasterAction::Fail { .. }]), "{acts:?}");
        assert_eq!(sm.sealing(), None);
        assert!(sm
            .handle(MasterEvent::WriteDone { from: 1, epoch })
            .is_empty());
    }

    #[test]
    fn service_death_requeues_recovered_fragments_at_the_front() {
        let mut p = policy(FragmentSchedule::Dynamic, FaultMode::Recover, false, 4, 1);
        p.service = true;
        let (mut sm, _) = MasterSm::new(p, vec![true; 3]);
        let _ = sm.handle(MasterEvent::Ready { from: 1 });
        let _ = sm.handle(MasterEvent::Ready { from: 2 });
        let _ = sm.handle(MasterEvent::Ready { from: 1 });
        assert_eq!(sm.owned(1), &[0, 2]);
        // Worker 1 dies holding {0, 2}; fragment 3 is still queued. The
        // recovered fragments must jump *ahead* of it, not behind.
        let acts = sm.handle(MasterEvent::Dead {
            ranks: vec![1],
            checkpointed: vec![],
            pieces: Vec::new(),
        });
        assert!(acts.is_empty(), "worker 2 is busy, nothing to grant yet");
        let acts = sm.handle(MasterEvent::Ready { from: 2 });
        let [MasterAction::Grant { to: 2, frag, .. }] = &acts[..] else {
            panic!("expected a grant, got {acts:?}");
        };
        assert_eq!(*frag, 0, "recovered fragment granted before the backlog");
    }

    /// A `Recover` machine over `nranks` ranks and `nfrags` fragments in
    /// which every worker asked once: worker `w` holds fragment `w - 1`.
    fn one_grant_each(nranks: usize, nfrags: usize) -> MasterSm {
        let mut p = policy(
            FragmentSchedule::Dynamic,
            FaultMode::Recover,
            false,
            nfrags,
            1,
        );
        p.nranks = nranks;
        let (mut sm, _) = MasterSm::new(p, vec![true; nranks]);
        for w in 1..nranks {
            let _ = sm.handle(MasterEvent::Ready { from: w });
        }
        sm
    }

    /// The `(to, frag)` of every grant among `acts`.
    fn grants(acts: &[MasterAction]) -> Vec<(usize, usize)> {
        let grant = |a: &MasterAction| match *a {
            MasterAction::Grant { to, frag, .. } => Some((to, frag)),
            _ => None,
        };
        acts.iter().filter_map(grant).collect()
    }

    #[test]
    fn a_death_with_pieces_grants_every_piece_to_idle_survivors() {
        // Six workers, one fragment each; all acknowledge, so collection
        // opens. Worker 2 dies holding fragment 1: five survivors and no
        // other work, so the fragment is re-cut five ways.
        let mut sm = one_grant_each(7, 6);
        for w in 1..7 {
            let _ = sm.handle(MasterEvent::Ready { from: w });
        }
        assert_eq!(sm.phase(), MasterPhase::Collect);
        assert_eq!(sm.recut(&[2], &[]), (vec![1], 5));
        let acts = sm.handle(MasterEvent::Dead {
            ranks: vec![2],
            checkpointed: vec![],
            pieces: vec![(1, (6..11).collect())],
        });
        // Every piece goes out at once, one to each idle survivor.
        assert_eq!(grants(&acts), vec![(1, 6), (3, 7), (4, 8), (5, 9), (6, 10)]);
        assert_eq!(sm.phase(), MasterPhase::Distribute);
        for w in [1, 3, 4, 5] {
            assert!(sm.handle(MasterEvent::Ready { from: w }).is_empty());
        }
        let acts = sm.handle(MasterEvent::Ready { from: 6 });
        assert!(
            matches!(&acts[..], [MasterAction::Collect { .. }]),
            "{acts:?}"
        );
        assert_eq!(sm.owned(4), &[3, 8]);
        // Without `Recover` nothing is requeued, so nothing is cut.
        let p = policy(FragmentSchedule::Dynamic, FaultMode::Off, false, 2, 1);
        let (off, _) = MasterSm::new(p, vec![true; 3]);
        assert_eq!(off.recut(&[1], &[]), (vec![], 1));
    }

    #[test]
    fn a_piece_holders_death_re_cuts_that_piece() {
        let mut sm = one_grant_each(7, 6);
        for w in [1, 3, 4, 5, 6] {
            let _ = sm.handle(MasterEvent::Ready { from: w });
        }
        // Worker 2 dies with its grant unacknowledged: fragment 1 becomes
        // pieces 6..=10, one for each idle survivor.
        let acts = sm.handle(MasterEvent::Dead {
            ranks: vec![2],
            checkpointed: vec![],
            pieces: vec![(1, (6..11).collect())],
        });
        assert_eq!(grants(&acts).len(), 5);
        // Worker 4 dies holding fragment 3 and piece 8; one survivor
        // acknowledged its piece. Four survivors for two requeued
        // fragments: each is cut in two, the piece like any fragment.
        let _ = sm.handle(MasterEvent::Ready { from: 1 });
        assert_eq!(sm.recut(&[4], &[]), (vec![3, 8], 2));
        let acts = sm.handle(MasterEvent::Dead {
            ranks: vec![4],
            checkpointed: vec![],
            pieces: vec![(3, vec![11, 12]), (8, vec![13, 14])],
        });
        assert_eq!(grants(&acts), vec![(1, 11)]);
        let mut granted = vec![11];
        for w in [3, 5, 6, 1, 3] {
            granted.extend(
                grants(&sm.handle(MasterEvent::Ready { from: w }))
                    .iter()
                    .map(|g| g.1),
            );
        }
        assert_eq!(granted, vec![11, 12, 13, 14]);
        // Neither retired id is ever granted again: the queue drains into
        // collection once the last holders acknowledge.
        for w in [5, 6] {
            let _ = sm.handle(MasterEvent::Ready { from: w });
        }
        assert_eq!(sm.phase(), MasterPhase::Collect);
    }

    #[test]
    fn a_one_record_fragment_is_requeued_whole() {
        use blast_core::seq::SeqRecord;
        use seqfmt::formatdb::{format_records, FormatDbConfig};
        // Record 0 is long enough to be a fragment of its own; the other
        // four make the second fragment.
        let recs: Vec<SeqRecord> = [50, 7, 9, 11, 13]
            .iter()
            .enumerate()
            .map(|(i, &len)| SeqRecord {
                defline: format!("s{i}"),
                residues: vec![1; len],
                molecule: blast_core::Molecule::Protein,
            })
            .collect();
        let db = format_records(&recs, &FormatDbConfig::protein("t"));
        let indexes = vec![db.volumes[0].index.clone()];
        let mut assignments: Vec<FragmentAssignment> = seqfmt::virtual_fragments(&[&indexes[0]], 2)
            .into_iter()
            .map(|spec| FragmentAssignment {
                spec,
                volume_name: "t".into(),
            })
            .collect();
        assert_eq!(assignments[0].spec.num_seqs(), 1);
        // Workers 1 and 2 die holding one fragment each; the other four
        // asked and wait. Two pieces each, but fragment 0 has one record;
        // fragment 1 is cut where its residues pass half (27 of 40).
        let mut sm = one_grant_each(7, 2);
        let (requeued, k) = sm.recut(&[1, 2], &[]);
        assert_eq!((&requeued[..], k), (&[0, 1][..], 2));
        let pieces = cut_pieces(&mut assignments, &indexes, &requeued, k);
        assert_eq!(pieces, vec![(1, vec![2, 3])]);
        let halves: Vec<u64> = assignments[2..].iter().map(|a| a.spec.num_seqs()).collect();
        assert_eq!(halves, vec![3, 1]);
        let acts = sm.handle(MasterEvent::Dead {
            ranks: vec![1, 2],
            checkpointed: vec![],
            pieces,
        });
        assert_eq!(grants(&acts), vec![(3, 0), (4, 2), (5, 3)]);
    }

    #[test]
    fn losing_every_worker_fails_without_aborts() {
        let p = policy(FragmentSchedule::Dynamic, FaultMode::Recover, false, 2, 1);
        let (mut sm, _) = MasterSm::new(p, vec![true, true, false]);
        let acts = sm.handle(MasterEvent::Dead {
            ranks: vec![1],
            checkpointed: vec![],
            pieces: Vec::new(),
        });
        assert!(matches!(
            &acts[..],
            [MasterAction::Fail {
                error: PioError::AllWorkersDied,
                abort_workers: false,
            }]
        ));
    }
}
