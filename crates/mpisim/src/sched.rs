//! Shared scheduling substrate for master/worker protocols.
//!
//! Both the pioBLAST runtime (`crates/core/src/runtime/`) and the
//! mpiBLAST baseline master loop are event pumps over the same two
//! primitives: a fragment grant queue that records each fragment's owner
//! and last holder, and a message pump that folds failure detection into
//! receive by sweeping the ranks its caller holds live against the
//! simulator's ground truth. Keeping them here means fault detection
//! behaves identically — same sweep cadence, same death-reporting order
//! — in every protocol built on top. The caller keeps the liveness
//! table and records each death the pump reports: pioBLAST's master
//! machine holds the only one, and mpiBLAST's master needs none, since
//! its first death ends the run. The grant queue is the pioBLAST
//! master's only record of where a fragment stands: a rank's row holds
//! the fragments it owns, and the caller names the rank that inherits a
//! dead owner's fragments when they are not requeued.

use simcluster::{Message, SimDuration, SimTime};

use crate::comm::Comm;
use crate::fault::RecvError;

/// The sweep cadence every detector in the suite uses: how long a
/// blocking receive waits before re-checking peers for silent death.
pub fn default_sweep() -> SimDuration {
    SimDuration::from_millis(25)
}

/// Deal `items` out to `workers` bins, contiguously and as evenly as
/// possible (worker `w` gets `items[start_w..end_w]`).
pub fn chunk_evenly<T>(mut items: Vec<T>, workers: usize) -> Vec<Vec<T>> {
    assert!(workers > 0, "need at least one worker");
    let total = items.len();
    let mut out = Vec::with_capacity(workers);
    let mut taken = 0usize;
    let mut rest = items.drain(..);
    for w in 0..workers {
        let end = total * (w + 1) / workers;
        let count = end - taken;
        taken = end;
        out.push(rest.by_ref().take(count).collect());
    }
    out
}

/// What a [`Pump::poll`] produced: a message, or the deaths that were
/// detected while waiting for one.
#[derive(Debug)]
pub enum Polled {
    /// A matching message arrived.
    Msg(Message),
    /// These worker ranks, live by the caller's account, have left the
    /// run; the caller records their deaths. Only produced with
    /// detection enabled.
    Dead(Vec<usize>),
}

/// A receive loop that folds failure detection into message arrival.
///
/// With detection off it degenerates to stock blocking MPI receives —
/// a dead peer hangs the job, exactly like the real library. With
/// detection on, every wait is chopped into sweep intervals and peer
/// death surfaces as [`Polled::Dead`] instead of a hang.
pub struct Pump<'a, 'b> {
    comm: &'a Comm<'b>,
    detect: bool,
}

impl<'a, 'b> Pump<'a, 'b> {
    /// Build a pump; `detect` enables sweeping at [`default_sweep`]
    /// cadence.
    pub fn new(comm: &'a Comm<'b>, detect: bool) -> Pump<'a, 'b> {
        Pump { comm, detect }
    }

    /// Master-side poll: wait for a matching message, first sweeping
    /// the worker ranks `live` accepts against the simulator's ground
    /// truth. A worker is gone once it has left the run, killed or
    /// returned (one that returned its own error will never answer
    /// either); the sweep costs no virtual time. Rank 0 (the master) is
    /// never swept — its death reaches workers as receive errors.
    /// Without detection, blocks forever.
    pub fn poll(
        &self,
        live: impl Fn(usize) -> bool,
        src: Option<usize>,
        tag: Option<u64>,
    ) -> Polled {
        loop {
            // Without a deadline the wait never gives up.
            if let Some(polled) = self.poll_until(&live, src, tag, None) {
                return polled;
            }
        }
    }

    /// [`Pump::poll`] that gives up at `deadline`, if there is one:
    /// `None` when it passed with no message and no departure. A sweep
    /// interval that would run past the deadline is cut short at it.
    pub fn poll_until(
        &self,
        live: impl Fn(usize) -> bool,
        src: Option<usize>,
        tag: Option<u64>,
        deadline: Option<SimTime>,
    ) -> Option<Polled> {
        let ctx = self.comm.ctx();
        if !self.detect {
            return match deadline {
                None => Some(Polled::Msg(self.comm.recv(src, tag))),
                Some(d) => self.comm.recv_deadline(src, tag, d).ok().map(Polled::Msg),
            };
        }
        loop {
            let dead: Vec<usize> = (1..ctx.nranks())
                .filter(|&r| live(r) && ctx.has_left(r))
                .collect();
            if !dead.is_empty() {
                for &r in &dead {
                    tracelog::instant(
                        tracelog::Lane::Sched,
                        "sweep.dead",
                        vec![("rank", r.into())],
                    );
                }
                return Some(Polled::Dead(dead));
            }
            if deadline.is_some_and(|d| ctx.now() >= d) {
                return None;
            }
            let sweep = ctx.now() + default_sweep();
            match self
                .comm
                .recv_deadline(src, tag, deadline.map_or(sweep, |d| d.min(sweep)))
            {
                Ok(m) => return Some(Polled::Msg(m)),
                // Timeout: sweep again. DeadPeer (specific-source waits):
                // the next sweep reports the death.
                Err(RecvError::Timeout { .. }) | Err(RecvError::DeadPeer { .. }) => {}
            }
        }
    }

    /// Worker-side receive from a single peer (the master). Without
    /// detection this is a stock blocking receive; with detection the
    /// peer's death surfaces as [`RecvError::DeadPeer`].
    pub fn recv_from(&self, src: usize, tag: Option<u64>) -> Result<Message, RecvError> {
        if !self.detect {
            return Ok(self.comm.recv(Some(src), tag));
        }
        loop {
            match self.comm.recv_timeout(Some(src), tag, default_sweep()) {
                Ok(m) => return Ok(m),
                Err(e @ RecvError::DeadPeer { .. }) => return Err(e),
                Err(RecvError::Timeout { .. }) => {}
            }
        }
    }
}

/// A fragment grant queue with per-worker ownership tracking.
///
/// Fragments are identified by index. Grants record ownership so a
/// worker's death can requeue exactly what it held or hand it to another
/// rank's row, and each fragment's last holder so a re-grant can go back
/// to its data. A pending fragment can be split into pieces with fresh
/// ids, which take its place in the queue.
#[derive(Debug, Clone)]
pub struct GrantQueue {
    pending: std::collections::VecDeque<usize>,
    owned: Vec<Vec<usize>>,
    last_holder: Vec<Option<usize>>,
}

impl GrantQueue {
    /// Queue fragments `0..nfrags` for granting among `nranks` ranks.
    pub fn new(nfrags: usize, nranks: usize) -> GrantQueue {
        GrantQueue {
            pending: (0..nfrags).collect(),
            owned: vec![Vec::new(); nranks],
            last_holder: vec![None; nfrags],
        }
    }

    /// Is the pending queue empty?
    pub fn is_drained(&self) -> bool {
        self.pending.is_empty()
    }

    /// Fragments still pending, in grant order.
    pub fn pending(&self) -> impl Iterator<Item = usize> + '_ {
        self.pending.iter().copied()
    }

    /// Grant the front fragment to `rank`, recording ownership.
    pub fn grant_to(&mut self, rank: usize) -> Option<usize> {
        self.grant_at(0, rank)
    }

    /// Affinity-aware grant: prefer the frontmost pending fragment whose
    /// last holder is `rank` (its bytes may still be resident there),
    /// falling back to the plain front-of-queue grant (work stealing)
    /// when none is pending. Load balance is preserved — a rank never
    /// idles waiting for "its" fragment — and requeued (recovered)
    /// fragments at the queue front still win over affinity whenever the
    /// rank last held nothing pending.
    pub fn grant_to_preferring(&mut self, rank: usize) -> Option<usize> {
        let pos = self
            .pending
            .iter()
            .position(|&f| self.last_holder[f] == Some(rank));
        self.grant_at(pos.unwrap_or(0), rank)
    }

    fn grant_at(&mut self, pos: usize, rank: usize) -> Option<usize> {
        let f = self.pending.remove(pos)?;
        self.owned[rank].push(f);
        self.last_holder[f] = Some(rank);
        Some(f)
    }

    /// Grant the front `n` fragments to `rank` as one chunk.
    pub fn grant_chunk(&mut self, rank: usize, n: usize) -> Vec<usize> {
        let mut chunk = Vec::with_capacity(n);
        for _ in 0..n {
            match self.grant_to(rank) {
                Some(f) => chunk.push(f),
                None => break,
            }
        }
        chunk
    }

    /// Fragments currently owned by `rank`, in grant order.
    pub fn owned(&self, rank: usize) -> &[usize] {
        &self.owned[rank]
    }

    /// Move the fragments of `rank` that `pred` accepts into `heir`'s
    /// row, each at its place in ascending order, so a row that only ever
    /// inherits stays sorted.
    pub fn hand_over(&mut self, rank: usize, heir: usize, pred: impl FnMut(&usize) -> bool) {
        let (moved, kept): (Vec<usize>, Vec<usize>) = std::mem::take(&mut self.owned[rank])
            .into_iter()
            .partition(pred);
        self.owned[rank] = kept;
        for f in moved {
            let row = &mut self.owned[heir];
            let at = row.partition_point(|&g| g < f);
            row.insert(at, f);
        }
    }

    /// Replace the pending fragment `frag` with `pieces`, in its place
    /// and in order, and grow the last-holder table to fit them. The
    /// pieces are fresh ids, past every id the queue has seen: `frag`
    /// retires and is never granted again, and each piece is granted,
    /// owned, released and handed over like any fragment. Returns
    /// whether `frag` was pending (nothing changes if it was not).
    pub fn split(&mut self, frag: usize, pieces: &[usize]) -> bool {
        let Some(at) = self.pending.iter().position(|&f| f == frag) else {
            return false;
        };
        self.pending.remove(at);
        for (i, &p) in pieces.iter().enumerate() {
            self.pending.insert(at + i, p);
        }
        let top = pieces.iter().map(|&p| p + 1).max().unwrap_or(0);
        if self.last_holder.len() < top {
            self.last_holder.resize(top, None);
        }
        true
    }

    /// Strip `rank` of its fragments and push them back onto the queue in
    /// row order — at the *front* with `front` set, else at the tail.
    /// Returns them. Under a long stream backlog a tail requeue starves a
    /// dead worker's recovered fragments behind every pending batch;
    /// service mode requeues at the front so recovery work is granted
    /// next.
    pub fn release(&mut self, rank: usize, front: bool) -> Vec<usize> {
        let released = std::mem::take(&mut self.owned[rank]);
        if front {
            // Reverse push_front keeps the released block in row order at
            // the head of the queue.
            for &f in released.iter().rev() {
                self.pending.push_front(f);
            }
        } else {
            self.pending.extend(&released);
        }
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_are_contiguous_and_even() {
        let chunks = chunk_evenly((0..10).collect(), 3);
        assert_eq!(chunks, vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8, 9]]);
        let sparse = chunk_evenly(vec![9], 3);
        assert_eq!(sparse.iter().flatten().count(), 1);
        assert_eq!(chunk_evenly(Vec::<u8>::new(), 2), vec![vec![], vec![]]);
    }

    #[test]
    fn grants_track_ownership_and_release_requeues() {
        let mut q = GrantQueue::new(4, 3);
        assert_eq!(q.grant_to(1), Some(0));
        assert_eq!(q.grant_chunk(2, 2), vec![1, 2]);
        assert_eq!(q.owned(2), &[1, 2]);
        q.hand_over(2, 0, |&f| f == 1);
        assert_eq!(q.release(2, false), vec![2]);
        assert_eq!(q.owned(0), &[1]);
        assert_eq!(q.owned(2), &[] as &[usize]);
        // Pending order: untouched tail first, then the requeue.
        assert_eq!(q.pending().collect::<Vec<_>>(), vec![3, 2]);
    }

    #[test]
    fn preferring_grants_pick_last_held_fragments_first() {
        let mut q = GrantQueue::new(5, 3);
        // Nothing was held before: plain front-of-queue grants.
        assert_eq!(q.grant_to_preferring(1), Some(0));
        assert_eq!(q.grant_to(2), Some(1));
        assert_eq!(q.grant_to_preferring(1), Some(2));
        let _ = q.release(1, false);
        let _ = q.release(2, false);
        assert_eq!(q.pending().collect::<Vec<_>>(), vec![3, 4, 0, 2, 1]);
        // Rank 1 last held 0 and 2: affinity pulls them (frontmost
        // first), skipping over 3 and 4; then it steals from the front.
        assert_eq!(q.grant_to_preferring(1), Some(0));
        assert_eq!(q.grant_to_preferring(1), Some(2));
        assert_eq!(q.grant_to_preferring(1), Some(3));
        assert_eq!(q.grant_to_preferring(2), Some(1));
        assert_eq!(q.grant_to_preferring(2), Some(4));
        assert_eq!(q.grant_to_preferring(2), None);
        assert_eq!(q.owned(1), &[0, 2, 3]);
    }

    #[test]
    fn the_last_grant_decides_which_rank_a_fragment_prefers() {
        let mut q = GrantQueue::new(3, 4);
        assert_eq!(q.grant_to(1), Some(0));
        let _ = q.release(1, false);
        // Fragment 0 goes to rank 1, then to rank 2; 1 and 2 to rank 3.
        assert_eq!(q.grant_chunk(3, 2), vec![1, 2]);
        assert_eq!(q.grant_to(2), Some(0));
        let _ = q.release(3, false);
        let _ = q.release(2, false);
        assert_eq!(q.pending().collect::<Vec<_>>(), vec![1, 2, 0]);
        // Rank 1 no longer draws fragment 0 past the front; rank 2 does.
        assert_eq!(q.clone().grant_to_preferring(1), Some(1));
        assert_eq!(q.grant_to_preferring(2), Some(0));
    }

    #[test]
    fn front_release_requeues_ahead_of_the_backlog() {
        let mut q = GrantQueue::new(6, 3);
        assert_eq!(q.grant_chunk(1, 3), vec![0, 1, 2]);
        // Backlog 3,4,5 is pending when rank 1 dies holding 0,1,2 with
        // fragment 1 checkpointed (handed over). The recovered fragments
        // must come out *before* the backlog, in grant order.
        q.hand_over(1, 0, |&f| f == 1);
        assert_eq!(q.release(1, true), vec![0, 2]);
        assert_eq!(q.pending().collect::<Vec<_>>(), vec![0, 2, 3, 4, 5]);
        // Tail release, by contrast, starves them behind the backlog.
        let mut tail = GrantQueue::new(6, 3);
        assert_eq!(tail.grant_chunk(1, 3), vec![0, 1, 2]);
        tail.hand_over(1, 0, |&f| f == 1);
        let _ = tail.release(1, false);
        assert_eq!(tail.pending().collect::<Vec<_>>(), vec![3, 4, 5, 0, 2]);
    }

    #[test]
    fn an_heir_keeps_handed_fragments_ascending_and_releases_them_to_the_tail() {
        let mut q = GrantQueue::new(7, 4);
        assert_eq!(q.grant_chunk(2, 3), vec![0, 1, 2]);
        assert_eq!(q.grant_to(3), Some(3));
        assert_eq!(q.grant_to(2), Some(4));
        assert_eq!(q.grant_to(3), Some(5));
        // Rank 2 dies first and leaves {0, 2, 4} to the heir, rank 0;
        // rank 3's {3, 5} land between them, not after.
        q.hand_over(2, 0, |&f| f != 1);
        assert_eq!(q.owned(2), &[1]);
        q.hand_over(3, 0, |_| true);
        assert_eq!(q.owned(0), &[0, 2, 3, 4, 5]);
        assert_eq!(q.owned(3), &[] as &[usize]);
        // The heir's row goes back to the queue's tail, ascending, and
        // the heir holds nothing after.
        assert_eq!(q.release(0, false), vec![0, 2, 3, 4, 5]);
        assert_eq!(q.pending().collect::<Vec<_>>(), vec![6, 0, 2, 3, 4, 5]);
        assert_eq!(q.owned(0), &[] as &[usize]);
        // Handing over leaves the last holder: rank 2 still draws 0 first.
        assert_eq!(q.grant_to_preferring(2), Some(0));
    }

    #[test]
    fn a_split_retires_a_pending_fragment_for_fresh_pieces_in_its_place() {
        let mut q = GrantQueue::new(4, 4);
        assert_eq!(q.grant_chunk(1, 2), vec![0, 1]);
        assert_eq!(q.release(1, false), vec![0, 1]);
        assert_eq!(q.pending().collect::<Vec<_>>(), vec![2, 3, 0, 1]);
        // Fragment 0 is cut into ids 4, 5 and 6, appended after the
        // four the queue was built with; the pieces take its place.
        assert!(q.split(0, &[4, 5, 6]));
        assert_eq!(q.pending().collect::<Vec<_>>(), vec![2, 3, 4, 5, 6, 1]);
        // A fragment that is not pending is left alone.
        assert!(!q.split(0, &[7, 8]));
        assert!(!q.split(9, &[7, 8]));
        assert_eq!(q.pending().count(), 6);
        // The last-holder table grew: pieces are preferred by their last
        // holder like any fragment, and fragment 0 never comes back.
        assert_eq!(q.grant_chunk(2, 3), vec![2, 3, 4]);
        assert_eq!(q.grant_to(3), Some(5));
        let _ = q.release(3, false);
        assert_eq!(q.pending().collect::<Vec<_>>(), vec![6, 1, 5]);
        assert_eq!(q.grant_to_preferring(3), Some(5));
        // Pieces hand over and release by id.
        q.hand_over(2, 0, |&f| f == 4);
        assert_eq!(q.owned(0), &[4]);
        assert_eq!(q.release(2, true), vec![2, 3]);
        assert_eq!(q.pending().collect::<Vec<_>>(), vec![2, 3, 6, 1]);
        // A piece is cut again like any pending fragment.
        assert!(q.split(6, &[7, 8]));
        assert_eq!(q.pending().collect::<Vec<_>>(), vec![2, 3, 7, 8, 1]);
        assert_eq!(q.grant_chunk(1, 5), vec![2, 3, 7, 8, 1]);
        assert!(q.is_drained());
        assert_eq!(q.release(0, false), vec![4]);
        assert_eq!(q.grant_to_preferring(2), Some(4));
    }

    #[test]
    fn a_detecting_poll_reports_departures_the_caller_holds_live() {
        use crate::net::NetProfile;
        use simcluster::{FaultPlan, Sim, SimTime};
        let sim = Sim::new(5);
        let plan = FaultPlan::none().kill_at(2, SimTime(1_000));
        let out = sim.run_faulty(plan, |ctx| match ctx.rank() {
            0 => {
                let comm = Comm::new(&ctx, NetProfile::altix_numalink());
                let pump = Pump::new(&comm, true);
                ctx.charge(SimDuration::from_micros(10));
                let before = ctx.now();
                // Rank 4 left too, but the caller already holds it dead.
                let Polled::Dead(dead) = pump.poll(|r| r != 4, None, None) else {
                    panic!("the sweep must report the departures before any message");
                };
                let swept_at = ctx.now();
                // With the departed ranks recorded, rank 3's word arrives.
                let Polled::Msg(m) = pump.poll(|r| r == 3, None, None) else {
                    panic!("no rank the caller holds live has left");
                };
                comm.send(3, 0, bytes::Bytes::new());
                (dead, swept_at - before, m.src)
            }
            // Ranks 1 and 4 return at once: they have left the run.
            1 | 4 => Default::default(),
            // Rank 2 blocks forever and is killed; rank 3 reports in and
            // waits for the master's word, live at every sweep.
            2 => {
                let _ = ctx.recv(Some(0), None);
                Default::default()
            }
            _ => {
                let comm = Comm::new(&ctx, NetProfile::altix_numalink());
                comm.send(0, 0, bytes::Bytes::new());
                let _ = comm.recv(Some(0), None);
                Default::default()
            }
        });
        let (dead, cost, from) = out.outputs[0].clone().unwrap();
        assert_eq!(dead, vec![1, 2]);
        assert_eq!(cost, SimDuration::ZERO);
        assert_eq!(from, 3);
    }
}
