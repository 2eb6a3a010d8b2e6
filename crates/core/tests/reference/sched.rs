// The grant queue of `mpisim::sched` as the reference master used it,
// with per-rank ownership and two releases; copied verbatim.

/// A fragment grant queue with per-worker ownership tracking.
///
/// Fragments are identified by index. Grants record ownership so a
/// worker's death can requeue (or orphan) exactly what it held.
#[derive(Debug, Clone)]
pub struct GrantQueue {
    pending: std::collections::VecDeque<usize>,
    owned: Vec<Vec<usize>>,
}

impl GrantQueue {
    /// Queue fragments `0..nfrags` for granting among `nranks` ranks.
    pub fn new(nfrags: usize, nranks: usize) -> GrantQueue {
        GrantQueue {
            pending: (0..nfrags).collect(),
            owned: vec![Vec::new(); nranks],
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
        let f = self.pending.pop_front()?;
        self.owned[rank].push(f);
        Some(f)
    }

    /// Affinity-aware grant: prefer the frontmost pending fragment that
    /// `rank` already holds resident, falling back to the plain
    /// front-of-queue grant (work stealing) when none of its resident
    /// fragments are pending. Load balance is preserved — a rank never
    /// idles waiting for "its" fragment — and requeued (recovered)
    /// fragments at the queue front still win over affinity whenever the
    /// rank holds nothing pending.
    pub fn grant_to_preferring(&mut self, rank: usize, resident: &[usize]) -> Option<usize> {
        match self.pending.iter().position(|f| resident.contains(f)) {
            Some(pos) => {
                let f = self.pending.remove(pos).expect("position just found");
                self.owned[rank].push(f);
                Some(f)
            }
            None => self.grant_to(rank),
        }
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

    /// Strip `rank` of its fragments, pushing those matching `requeue`
    /// back onto the queue (in grant order) and dropping the rest.
    /// Returns `(requeued, dropped)` fragment lists.
    pub fn release(
        &mut self,
        rank: usize,
        mut requeue: impl FnMut(usize) -> bool,
    ) -> (Vec<usize>, Vec<usize>) {
        let held = std::mem::take(&mut self.owned[rank]);
        let mut requeued = Vec::new();
        let mut dropped = Vec::new();
        for f in held {
            if requeue(f) {
                self.pending.push_back(f);
                requeued.push(f);
            } else {
                dropped.push(f);
            }
        }
        (requeued, dropped)
    }

    /// [`GrantQueue::release`], but requeue at the queue *front* (still
    /// in grant order). Under a long stream backlog, tail requeueing
    /// starves a dead worker's recovered fragments behind every pending
    /// batch; service mode uses this variant so recovery work is granted
    /// next.
    pub fn release_front(
        &mut self,
        rank: usize,
        mut requeue: impl FnMut(usize) -> bool,
    ) -> (Vec<usize>, Vec<usize>) {
        let held = std::mem::take(&mut self.owned[rank]);
        let mut requeued = Vec::new();
        let mut dropped = Vec::new();
        for f in held {
            if requeue(f) {
                requeued.push(f);
            } else {
                dropped.push(f);
            }
        }
        // Reverse push_front keeps the requeued block in grant order at
        // the head of the queue.
        for &f in requeued.iter().rev() {
            self.pending.push_front(f);
        }
        (requeued, dropped)
    }

    /// Push a fragment back onto the queue tail (e.g. a previously
    /// orphaned fragment re-entering circulation at a batch boundary).
    pub fn push(&mut self, frag: usize) {
        self.pending.push_back(frag);
    }
}
