//! The lowering: the one place that picks the transport for the
//! machines' messages.
//!
//! A one-shot fault-free run lowers them onto collectives: every rank
//! walks the same fixed sequence (the static scatter or the request
//! loop, then per batch its submission, one assignment scatter and the
//! report write), which is what lets two-phase output post the same
//! request sequence on every rank. `Recover` and service mode lower
//! them onto point-to-point commands, fenced by epoch, with liveness
//! sweeps. Two rules cross that line: the query bundle follows the
//! fault mode, so service mode without `Recover` broadcasts it; and
//! every submission travels point-to-point, fenced, as its worker's
//! share of the batch is done, so the master merges each as it lands.

use bytes::Bytes;
use mpiblast::wire::{MetaSubmission, QueryBundle};
use mpiblast::MASTER;
use mpiio::IoPlane;
use mpisim::sched::{default_sweep, Pump};
use mpisim::{Collectives, Comm, RecvError};
use seqfmt::Wire;
use simcluster::{Message, SimDuration, SimTime};

use super::master::MasterEvent;
use super::master_io::{check_queries, MasterIo};
use super::worker_io::{WorkerEvent, WorkerIo};
use super::{
    p2p, Assign, Fenced, Grant, TAG_ABORT, TAG_ASSIGN, TAG_BUNDLE, TAG_DONE, TAG_FINISH, TAG_GRANT,
    TAG_QBATCH, TAG_READY, TAG_SUBMIT, TAG_SUBMIT_REQ,
};
use crate::app::PioBlastConfig;
use crate::fault::{FaultMode, PioError};

/// How a run's messages travel, settled by the configuration alone.
#[derive(Debug, Clone, Copy)]
pub(super) struct Lowering {
    /// Point-to-point commands instead of collectives.
    p2p: bool,
    /// The bundle goes out as a broadcast: every run without `Recover`.
    bcast_bundle: bool,
}

/// Where a worker stands in the master's command sequence.
#[derive(Debug, Clone, Copy)]
pub(super) enum Step {
    /// Point-to-point: whatever the master sends next.
    Messages,
    /// The static schedule's scatter of whole shares.
    Scatter,
    /// The dynamic schedule's request loop, until the master drains it.
    Grants,
    /// This batch's submission, or the end of the run.
    Submit(usize),
    /// This batch's assignment scatter.
    Assign(usize),
}

impl Lowering {
    pub(super) fn of(cfg: &PioBlastConfig) -> Lowering {
        Lowering {
            p2p: p2p(cfg.fault, cfg.service.is_some()),
            bcast_bundle: cfg.fault == FaultMode::Off,
        }
    }

    /// Do all ranks post their report writes in step? Only then can the
    /// plane aggregate them two-phase.
    pub(super) fn writes_in_step(&self) -> bool {
        !self.p2p
    }

    /// The master's wait for messages: deaths surface as events under
    /// point-to-point; a collective run hangs on one, like MPI.
    pub(super) fn pump<'a, 'b>(&self, comm: &'a Comm<'b>) -> Pump<'a, 'b> {
        Pump::new(comm, self.p2p)
    }

    /// Release the workers from a master whose setup failed. Waiting in
    /// the bundle broadcast, an empty bundle fails their decode into a
    /// typed protocol error; waiting for `TAG_BUNDLE`, an abort does.
    pub(super) fn release(&self, comm: &Comm<'_>) {
        if self.bcast_bundle {
            comm.bcast(MASTER, Bytes::new());
        } else {
            for w in 1..comm.size() {
                let _ = comm.send_checked(w, TAG_ABORT, Bytes::new());
            }
        }
    }

    /// Distribute the bundle; returns which ranks accepted it.
    pub(super) fn send_bundle(&self, comm: &Comm<'_>, bundle: Bytes) -> Vec<bool> {
        let mut live = vec![true; comm.size()];
        if self.bcast_bundle {
            comm.bcast(MASTER, bundle);
        } else {
            for (w, alive) in live.iter_mut().enumerate().skip(1) {
                *alive = comm.send_checked(w, TAG_BUNDLE, bundle.clone()).is_ok();
            }
        }
        live
    }

    pub(super) fn recv_bundle(&self, comm: &Comm<'_>) -> Result<QueryBundle, PioError> {
        if self.bcast_bundle {
            return Ok(QueryBundle::decode(&comm.bcast(MASTER, Bytes::new()))?);
        }
        let m = recv_master(comm)?;
        match m.tag {
            TAG_BUNDLE => Ok(QueryBundle::decode(&m.payload)?),
            other => Err(PioError::Protocol(format!(
                "worker expected the query bundle, got tag {other}"
            ))),
        }
    }

    /// Hand each live worker its [`Assign`]ment, `assigns` naming the
    /// worker of each. The scatter stands for every live worker's
    /// `WriteDone` (`seal_output` fences the writes themselves); a
    /// command is acknowledged once the worker wrote.
    pub(super) fn assign(
        &self,
        comm: &Comm<'_>,
        epoch: u64,
        assigns: Vec<(usize, Assign)>,
    ) -> Vec<MasterEvent> {
        if self.p2p {
            for (w, assign) in assigns {
                let frame = (epoch, assign).encode();
                let _ = comm.send_checked(w, TAG_ASSIGN, Bytes::from(frame));
            }
            return Vec::new();
        }
        let mut pieces = vec![Bytes::from(Assign::default().encode()); comm.size()];
        let mut done = Vec::with_capacity(assigns.len());
        for (w, assign) in assigns {
            pieces[w] = Bytes::from(assign.encode());
            done.push(MasterEvent::WriteDone { from: w, epoch });
        }
        comm.scatterv(MASTER, pieces);
        done
    }

    /// After a rank's report write: under collectives the batch is sealed
    /// when every rank wrote. Two-phase ends in its own barrier; every
    /// other class needs the explicit one.
    pub(super) fn seal_output(&self, comm: &Comm<'_>, io: &IoPlane<'_, '_>) {
        if !self.p2p && !io.collective_writes() {
            comm.barrier();
        }
    }

    /// Release the live workers at the end of the run; a collective
    /// worker's sequence ends by itself.
    pub(super) fn finish(&self, comm: &Comm<'_>, live: impl Iterator<Item = usize>) {
        if self.p2p {
            for w in live {
                let _ = comm.send_checked(w, TAG_FINISH, Bytes::new());
            }
        }
    }

    /// Where a worker's command sequence starts.
    pub(super) fn first_step(&self, dynamic: bool) -> Step {
        match (self.p2p, dynamic) {
            (true, _) => Step::Messages,
            (false, true) => Step::Grants,
            (false, false) => Step::Scatter,
        }
    }

    /// Send this batch's submission; returns the instant the worker's
    /// output phase starts, if the submission starts it. A collective
    /// worker waits from its submission on through the master's merge.
    pub(super) fn submit(
        &self,
        comm: &Comm<'_>,
        epoch: u64,
        meta: MetaSubmission,
    ) -> Option<SimTime> {
        let mark = comm.ctx().now();
        comm.send(MASTER, TAG_SUBMIT, Bytes::from((epoch, meta).encode()));
        (!self.p2p).then_some(mark)
    }

    /// Release the workers from a master that rejected a submission. A
    /// collective worker waits in the assignment scatter, where empty
    /// pieces fail its decode into a typed error instead of a hang; a
    /// point-to-point one is aborted with the rest.
    fn reject_submission(&self, comm: &Comm<'_>) {
        if !self.p2p {
            comm.scatterv(MASTER, vec![Bytes::new(); comm.size()]);
        }
    }

    /// Acknowledge a finished write: a command is answered; the collective
    /// sequence moves on.
    pub(super) fn ack_write(&self, comm: &Comm<'_>, epoch: u64) {
        if self.p2p {
            comm.send(MASTER, TAG_DONE, Bytes::from(epoch.encode()));
        }
    }

    /// The acknowledgement of a parked write (point-to-point), for the
    /// write's completion to send as an MPI library with asynchronous
    /// progress would: it leaves when the write has landed, traced as
    /// this rank's `send` and counted as one of its sends, and arrives a
    /// [`NetProfile::delivery`](mpisim::NetProfile::delivery) later. Its
    /// occupancy is charged when the rank joins the write
    /// ([`Lowering::charge_ack`]).
    pub(super) fn ack_on_landing(
        &self,
        comm: &Comm<'_>,
        epoch: u64,
    ) -> impl FnOnce() + Send + 'static {
        let (handle, rank, net) = (comm.ctx().handle(), comm.rank(), comm.net());
        let tracer = tracelog::installed();
        let payload = Bytes::from(epoch.encode());
        move || {
            let bytes = payload.len() as u64;
            if let Some((tracer, rank)) = tracer {
                let t = handle.now().0;
                let occupied = SimDuration::from_secs_f64(net.occupancy(bytes)).0;
                let args = vec![
                    ("dst", MASTER.into()),
                    ("tag", TAG_DONE.into()),
                    ("bytes", bytes.into()),
                ];
                let (lane, begin) = (tracelog::Lane::Net, tracelog::EventKind::Begin);
                tracer.record(rank, t, lane, begin, "send".into(), args);
                let end = tracelog::EventKind::End;
                tracer.record(rank, t + occupied, lane, end, "".into(), Vec::new());
            }
            let delivery = SimDuration::from_secs_f64(net.delivery(bytes));
            handle.post(rank, MASTER, TAG_DONE, payload, delivery);
        }
    }

    /// Charge the occupancy of the acknowledgement a parked write sent
    /// when it landed ([`Lowering::ack_on_landing`]).
    pub(super) fn charge_ack(&self, comm: &Comm<'_>) {
        let bytes = 0u64.encode().len() as u64;
        let occupied = comm.net().occupancy(bytes);
        comm.ctx().charge(SimDuration::from_secs_f64(occupied));
    }
}

impl WorkerIo<'_, '_> {
    /// The next event from the master's commands, whichever lowering
    /// carries them. A dead master or an abort is a typed error.
    // Out of line: inlined into the command loop, the decode temporaries
    // stay in the loop's frame beneath every search, a page more of each
    // rank's fiber stack (+5 % peak RSS at 512 ranks).
    #[inline(never)]
    pub(super) fn next_event(&mut self) -> Result<WorkerEvent, PioError> {
        // Collectives self-fence: the epoch is cosmetic.
        let epoch = |batch: usize| batch as u64 + 1;
        Ok(match self.step {
            Step::Messages => loop {
                let m = self.recv_command()?;
                break match m.tag {
                    // A stream batch's queries, possibly prefetched well
                    // ahead of its first grant: stash and keep listening.
                    TAG_QBATCH => {
                        self.stash_qbatch(&m.payload)?;
                        continue;
                    }
                    TAG_GRANT => self.stash_grant(Grant::decode(&m.payload)?)?,
                    TAG_SUBMIT_REQ => {
                        let (epoch, batch) = Fenced::<u32>::decode(&m.payload)?;
                        let batch = batch as usize;
                        WorkerEvent::SubmitReq { batch, epoch }
                    }
                    TAG_ASSIGN => {
                        let (epoch, assign) = Fenced::<Assign>::decode(&m.payload)?;
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
            },
            Step::Scatter => {
                self.step = Step::Submit(0);
                self.stash_grant(Grant::decode(&self.comm.scatterv(MASTER, Vec::new()))?)?
            }
            Step::Grants => {
                let m = self.comm.recv(Some(MASTER), Some(TAG_GRANT));
                let event = self.stash_grant(Grant::decode(&m.payload)?)?;
                if let WorkerEvent::Drained = event {
                    self.step = Step::Submit(0);
                }
                event
            }
            Step::Submit(batch) if batch == self.policy.nbatches => WorkerEvent::Finish,
            Step::Submit(batch) => {
                self.step = Step::Assign(batch);
                let epoch = epoch(batch);
                WorkerEvent::SubmitReq { batch, epoch }
            }
            Step::Assign(batch) => {
                self.step = Step::Submit(batch + 1);
                let assign = Assign::decode(&self.comm.scatterv(MASTER, Vec::new()))?;
                self.assign = Some(assign);
                WorkerEvent::Assign {
                    epoch: epoch(batch),
                }
            }
        })
    }

    /// The master's next point-to-point command. While a report write is
    /// parked, the wait is cut into sweep intervals and the write is
    /// joined once it has completed: a failed one ends the run here
    /// instead of leaving the master waiting for its acknowledgement.
    fn recv_command(&mut self) -> Result<Message, PioError> {
        while !self.io.output_done() {
            match self.comm.recv_timeout(Some(MASTER), None, default_sweep()) {
                Ok(m) => return unless_abort(m),
                Err(RecvError::DeadPeer { .. }) => return Err(PioError::MasterDied),
                Err(RecvError::Timeout { .. }) => {}
            }
        }
        self.join_output()?;
        recv_master(self.comm)
    }

    /// Stash stream batches' queries until `batch`'s are in (service
    /// mode, so point-to-point). The master ships each stream batch ahead
    /// of its first grant and FIFO order per pair holds, so this only
    /// actually waits for batch 0's, whose prepare runs before the
    /// command loop.
    pub(super) fn await_queries(&mut self, batch: usize) -> Result<(), PioError> {
        while !self.queries.contains_key(&batch) {
            let m = recv_master(self.comm)?;
            if m.tag != TAG_QBATCH {
                return Err(PioError::Protocol(format!(
                    "worker expected stream batch {batch} queries, got tag {}",
                    m.tag
                )));
            }
            self.stash_qbatch(&m.payload)?;
        }
        Ok(())
    }
}

impl MasterIo<'_, '_> {
    /// Ask the live workers for `batch`'s submissions (point-to-point);
    /// a collective worker submits unasked once its share is searched.
    /// Either way the answers arrive as messages.
    pub(super) fn request_submissions(&self, batch: usize, epoch: u64) {
        if self.lowering.p2p {
            let request = Bytes::from((epoch, batch as u32).encode());
            for w in self.sm.live_workers() {
                let _ = self.comm.send_checked(w, TAG_SUBMIT_REQ, request.clone());
            }
        }
    }

    /// A point-to-point message to the master, as an event.
    pub(super) fn translate(&self, m: Message) -> Result<MasterEvent, PioError> {
        let from = m.src;
        match m.tag {
            TAG_READY => Ok(MasterEvent::Ready { from }),
            TAG_SUBMIT => {
                let checked = || -> Result<_, PioError> {
                    let (epoch, sub) = Fenced::<MetaSubmission>::decode(&m.payload)?;
                    // A stale epoch's submission is discarded by the
                    // machine unread; the current one is the current
                    // batch's.
                    if epoch == self.sm.epoch() {
                        check_queries(&self.batches[self.sm.batch()], from, &sub)?;
                    }
                    Ok((epoch, sub))
                };
                let (epoch, sub) =
                    checked().inspect_err(|_| self.lowering.reject_submission(self.comm))?;
                tracelog::instant(
                    tracelog::Lane::Runtime,
                    "submission",
                    vec![("from", from.into()), ("epoch", epoch.into())],
                );
                Ok(MasterEvent::Submission { from, epoch, sub })
            }
            TAG_DONE => {
                let epoch = u64::decode(&m.payload)?;
                Ok(MasterEvent::WriteDone { from, epoch })
            }
            other => Err(PioError::Protocol(format!(
                "master got unexpected tag {other}"
            ))),
        }
    }
}

/// A worker's point-to-point receive from the master: its death and an
/// abort are typed errors.
fn recv_master(comm: &Comm<'_>) -> Result<Message, PioError> {
    let m = Pump::new(comm, true)
        .recv_from(MASTER, None)
        .map_err(|_| PioError::MasterDied)?;
    unless_abort(m)
}

/// An abort from the master is a typed error.
fn unless_abort(m: Message) -> Result<Message, PioError> {
    if m.tag == TAG_ABORT {
        return Err(PioError::Aborted);
    }
    Ok(m)
}
