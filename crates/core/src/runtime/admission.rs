//! Service mode's admission on the master: each stream batch's queries
//! go to the live workers once, at the plan's arrival time, ahead of the
//! batch's first grant; one that has already arrived rides along behind
//! the batch before it.

use bytes::Bytes;
use mpiblast::wire::put_queries;
use seqfmt::codec::Writer;
use seqfmt::Wire;
use simcluster::{SimDuration, SimTime};

use super::master::MasterAction;
use super::master_io::MasterIo;
use super::TAG_QBATCH;

impl MasterIo<'_, '_> {
    /// Deliver one stream batch's queries to every live worker, gating
    /// on the plan's arrival time — the admission point of the simulated
    /// query stream. Ships each batch exactly once; a no-op for one-shot
    /// runs.
    pub(super) fn ensure_qbatch(&mut self, batch: usize) {
        let Some(svc) = &self.cfg.service else { return };
        if self.qbatch_sent[batch] {
            return;
        }
        let sb = &svc.plan.batches[batch];
        let (arrival_ns, user, nqueries) = (sb.arrival_ns, sb.user, sb.nqueries);
        self.qbatch_sent[batch] = true;
        let now = self.ctx.now().0;
        if arrival_ns > now {
            // The stream has not submitted this batch yet: wait for it
            // (a pipelining run loop has received until it did).
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
        for w in self.sm.live_workers() {
            let _ = self.comm.send_checked(w, TAG_QBATCH, payload.clone());
        }
    }

    /// Ship the next stream batch's queries early when it has already
    /// arrived — the delivery overlaps the current batch's searches, so
    /// workers never stall on queries at the batch boundary.
    pub(super) fn prefetch_qbatch(&mut self, next: usize) {
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

    /// Under a pipelining policy: the arrival time of the stream batch
    /// `act` needs (a grant or a collection of it) while the stream has
    /// not submitted it yet, for the run loop to receive until. Elsewhere
    /// admission charges its wait ([`MasterIo::ensure_qbatch`]).
    pub(super) fn unadmitted(&self, act: &MasterAction) -> Option<SimTime> {
        let svc = self.cfg.service.as_ref()?;
        let batch = match *act {
            MasterAction::Grant { batch, .. } | MasterAction::Collect { batch, .. } => batch,
            _ => return None,
        };
        let arrival = SimTime(svc.plan.batches[batch].arrival_ns);
        let pending = !self.qbatch_sent[batch] && arrival > self.ctx.now();
        (self.sm.policy().pipelines() && pending).then_some(arrival)
    }
}
