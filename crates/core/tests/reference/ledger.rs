//! The submission ledger: the master's per-fragment audit of the current
//! query batch.
//!
//! The grant queue knows *who holds what*; the ledger knows *how far each
//! fragment got* — queued, granted, completed by a live worker, or
//! orphaned (its owner died after checkpointing it). The orphan set is
//! what fragment checkpointing is built on: those fragments are covered
//! by durable blobs on the shared file system, so a recovery epoch leaves
//! them out of the re-queue entirely.

/// Where one fragment stands in the current batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FragmentState {
    /// Waiting in the grant queue.
    Queued,
    /// Granted to this rank; its search is not yet acknowledged.
    Granted(usize),
    /// Search acknowledged by this (still live) rank; its results are in
    /// the worker's cache, pending submission.
    Completed(usize),
    /// The owner died after persisting the fragment's checkpoint; the
    /// master will adopt the blob instead of re-granting.
    Orphaned,
}

/// Per-fragment state for the batch in flight.
#[derive(Debug, Clone)]
pub struct SubmissionLedger {
    states: Vec<FragmentState>,
}

impl SubmissionLedger {
    /// A fresh ledger with every fragment queued.
    pub fn new(nfrags: usize) -> SubmissionLedger {
        SubmissionLedger {
            states: vec![FragmentState::Queued; nfrags],
        }
    }

    /// One fragment's state.
    pub fn state(&self, frag: usize) -> FragmentState {
        self.states[frag]
    }

    /// Record a grant.
    pub fn granted(&mut self, frag: usize, rank: usize) {
        self.states[frag] = FragmentState::Granted(rank);
    }

    /// Record a grant acknowledgement: everything `rank` holds as
    /// `Granted` becomes `Completed`.
    pub fn acked(&mut self, rank: usize) {
        for s in &mut self.states {
            if *s == FragmentState::Granted(rank) {
                *s = FragmentState::Completed(rank);
            }
        }
    }

    /// Put a fragment back in the queue (its owner died without a
    /// checkpoint).
    pub fn requeued(&mut self, frag: usize) {
        self.states[frag] = FragmentState::Queued;
    }

    /// Mark a dead owner's checkpointed fragment as adopted.
    pub fn orphaned(&mut self, frag: usize) {
        self.states[frag] = FragmentState::Orphaned;
    }

    /// The orphaned fragments, ascending.
    pub fn orphans(&self) -> Vec<usize> {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == FragmentState::Orphaned)
            .map(|(f, _)| f)
            .collect()
    }

    /// Start the next query batch: orphans re-enter circulation (their
    /// blobs covered the *previous* batch only) and completions reset.
    /// Returns the fragments to push back onto the grant queue.
    pub fn advance_batch(&mut self) -> Vec<usize> {
        let orphans = self.orphans();
        for &f in &orphans {
            self.states[f] = FragmentState::Queued;
        }
        orphans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_tracks_the_fragment_lifecycle() {
        let mut l = SubmissionLedger::new(3);
        l.granted(0, 1);
        l.granted(1, 1);
        l.granted(2, 2);
        l.acked(1);
        assert_eq!(l.state(0), FragmentState::Completed(1));
        assert_eq!(l.state(2), FragmentState::Granted(2));
        l.requeued(2);
        l.orphaned(0);
        l.orphaned(1);
        assert_eq!(l.orphans(), vec![0, 1]);
        assert_eq!(l.advance_batch(), vec![0, 1]);
        assert_eq!(l.state(0), FragmentState::Queued);
        assert!(l.orphans().is_empty());
    }
}
