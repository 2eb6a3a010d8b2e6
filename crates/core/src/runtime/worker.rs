//! The worker's protocol state machine — pure transitions, no I/O.
//!
//! The worker is driven entirely by the master. Its only real state is
//! which query batch it has prepared and whether its held fragments have
//! been searched against it. The schedule decides *when* searching
//! happens: the dynamic one (which the point-to-point lowering implies)
//! pipelines each granted fragment's input + search before the
//! acknowledgement; the static one defers searching to the submission
//! request, batch by batch.

use super::RunPolicy;

/// What the worker's command loop reports to the machine.
#[derive(Debug, Clone, Copy)]
pub enum WorkerEvent {
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

/// What the command loop must do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerAction {
    /// Prepare this query batch (masking, lookup tables, search spaces)
    /// and reset the result cache.
    Prepare {
        /// Batch to prepare.
        batch: usize,
    },
    /// Search every already-held fragment against the prepared batch
    /// (and checkpoint each, when the policy says so).
    SearchHeld {
        /// Batch being searched.
        batch: usize,
    },
    /// Read the newly granted fragments; search each on arrival when
    /// `search` is set.
    Ingest {
        /// Batch the fragments belong to.
        batch: usize,
        /// How many pending assignments to ingest.
        count: usize,
        /// Pipeline the per-fragment search (and checkpoint).
        search: bool,
    },
    /// Acknowledge the grant / request more work.
    AckGrant,
    /// Submit the batch's metadata under this epoch.
    Submit {
        /// Batch to submit.
        batch: usize,
        /// Fencing epoch to echo.
        epoch: u64,
    },
    /// Write the assigned records and acknowledge under this epoch.
    WriteAssigned {
        /// Batch being written (service mode writes each stream batch's
        /// report to its own per-batch path).
        batch: usize,
        /// Fencing epoch to echo.
        epoch: u64,
    },
    /// The run is over.
    Stop,
}

/// The worker state machine. Feed it events via [`WorkerSm::handle`];
/// perform the returned actions in order.
#[derive(Debug)]
pub struct WorkerSm {
    policy: RunPolicy,
    batch: Option<usize>,
    searched: bool,
}

impl WorkerSm {
    /// Build the machine and the initial actions. The dynamic schedule
    /// prepares batch 0 up front (grants are searched as they arrive);
    /// the static one prepares lazily on its scatter chunk.
    pub fn new(policy: RunPolicy) -> (WorkerSm, Vec<WorkerAction>) {
        if policy.dynamic() {
            let sm = WorkerSm {
                policy,
                batch: Some(0),
                searched: true, // nothing held yet
            };
            (sm, vec![WorkerAction::Prepare { batch: 0 }])
        } else {
            let sm = WorkerSm {
                policy,
                batch: None,
                searched: false,
            };
            (sm, Vec::new())
        }
    }

    /// Move to `batch` if it is new; preparing invalidates the searched
    /// flag so held fragments are re-searched against the new batch.
    /// Returns the batch the worker is on, and the prepare if it moved.
    fn advance(&mut self, batch: usize) -> (usize, Vec<WorkerAction>) {
        match self.batch {
            Some(current) if current >= batch => (current, Vec::new()),
            _ => {
                self.batch = Some(batch);
                // Service mode never re-searches held fragments:
                // residency is a *cache* (skipping the read), not
                // outstanding work. Each stream batch searches exactly
                // what the master re-grants it.
                self.searched = self.policy.service;
                (batch, vec![WorkerAction::Prepare { batch }])
            }
        }
    }

    /// Apply one event; returns the actions to perform, in order.
    pub fn handle(&mut self, event: WorkerEvent) -> Vec<WorkerAction> {
        match event {
            WorkerEvent::Grant { batch, nfrags } => {
                let dynamic = self.policy.dynamic();
                let (_, mut acts) = self.advance(batch);
                if dynamic && !self.searched {
                    // New batch with fragments already in hand: bring
                    // them up to date before ingesting the new grant.
                    acts.push(WorkerAction::SearchHeld { batch });
                    self.searched = true;
                }
                acts.push(WorkerAction::Ingest {
                    batch,
                    count: nfrags,
                    search: dynamic,
                });
                if dynamic {
                    acts.push(WorkerAction::AckGrant);
                }
                acts
            }
            WorkerEvent::Drained => Vec::new(),
            WorkerEvent::SubmitReq { batch, epoch } => {
                let (batch, mut acts) = self.advance(batch);
                if !self.searched {
                    acts.push(WorkerAction::SearchHeld { batch });
                    self.searched = true;
                }
                acts.push(WorkerAction::Submit { batch, epoch });
                acts
            }
            WorkerEvent::Assign { epoch } => vec![WorkerAction::WriteAssigned {
                batch: self.batch.unwrap_or(0),
                epoch,
            }],
            WorkerEvent::Finish => vec![WorkerAction::Stop],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::FragmentSchedule;
    use crate::fault::FaultMode;

    fn policy(schedule: FragmentSchedule, fault: FaultMode) -> RunPolicy {
        RunPolicy {
            schedule,
            fault,
            checkpoint: false,
            nranks: 3,
            nfrags: 4,
            nbatches: 2,
            service: false,
            affinity: false,
        }
    }

    #[test]
    fn static_collective_defers_search_to_submission() {
        let p = policy(FragmentSchedule::Static, FaultMode::Off);
        let (mut sm, init) = WorkerSm::new(p);
        assert!(init.is_empty());
        let acts = sm.handle(WorkerEvent::Grant {
            batch: 0,
            nfrags: 2,
        });
        assert_eq!(
            acts,
            vec![
                WorkerAction::Prepare { batch: 0 },
                WorkerAction::Ingest {
                    batch: 0,
                    count: 2,
                    search: false
                },
            ]
        );
        let acts = sm.handle(WorkerEvent::SubmitReq { batch: 0, epoch: 1 });
        assert_eq!(
            acts,
            vec![
                WorkerAction::SearchHeld { batch: 0 },
                WorkerAction::Submit { batch: 0, epoch: 1 },
            ]
        );
        // The next batch re-prepares and re-searches the held fragments.
        let acts = sm.handle(WorkerEvent::SubmitReq { batch: 1, epoch: 2 });
        assert_eq!(
            acts,
            vec![
                WorkerAction::Prepare { batch: 1 },
                WorkerAction::SearchHeld { batch: 1 },
                WorkerAction::Submit { batch: 1, epoch: 2 },
            ]
        );
    }

    #[test]
    fn search_on_grant_pipelines_and_acks() {
        let p = policy(FragmentSchedule::Dynamic, FaultMode::Recover);
        let (mut sm, init) = WorkerSm::new(p);
        assert_eq!(init, vec![WorkerAction::Prepare { batch: 0 }]);
        let acts = sm.handle(WorkerEvent::Grant {
            batch: 0,
            nfrags: 1,
        });
        assert_eq!(
            acts,
            vec![
                WorkerAction::Ingest {
                    batch: 0,
                    count: 1,
                    search: true
                },
                WorkerAction::AckGrant,
            ]
        );
        // A submission request for the same batch does not re-search.
        let acts = sm.handle(WorkerEvent::SubmitReq { batch: 0, epoch: 3 });
        assert_eq!(acts, vec![WorkerAction::Submit { batch: 0, epoch: 3 }]);
        // A stale-epoch retry resubmits without extra work.
        let acts = sm.handle(WorkerEvent::SubmitReq { batch: 0, epoch: 4 });
        assert_eq!(acts, vec![WorkerAction::Submit { batch: 0, epoch: 4 }]);
        // A grant for the next batch re-prepares, re-searches the held
        // fragments, then ingests.
        let acts = sm.handle(WorkerEvent::Grant {
            batch: 1,
            nfrags: 1,
        });
        assert_eq!(
            acts,
            vec![
                WorkerAction::Prepare { batch: 1 },
                WorkerAction::SearchHeld { batch: 1 },
                WorkerAction::Ingest {
                    batch: 1,
                    count: 1,
                    search: true
                },
                WorkerAction::AckGrant,
            ]
        );
        let acts = sm.handle(WorkerEvent::Assign { epoch: 5 });
        assert_eq!(
            acts,
            vec![WorkerAction::WriteAssigned { batch: 1, epoch: 5 }]
        );
        assert_eq!(sm.handle(WorkerEvent::Finish), vec![WorkerAction::Stop]);
    }

    #[test]
    fn service_mode_treats_held_fragments_as_cache_not_work() {
        let mut p = policy(FragmentSchedule::Dynamic, FaultMode::Off);
        p.service = true;
        p.affinity = true;
        assert!(p.p2p(), "service mode always runs the p2p planes");
        let (mut sm, init) = WorkerSm::new(p);
        assert_eq!(init, vec![WorkerAction::Prepare { batch: 0 }]);
        let acts = sm.handle(WorkerEvent::Grant {
            batch: 0,
            nfrags: 1,
        });
        assert_eq!(
            acts,
            vec![
                WorkerAction::Ingest {
                    batch: 0,
                    count: 1,
                    search: true
                },
                WorkerAction::AckGrant,
            ]
        );
        // The next stream batch re-grants fragments explicitly; the new
        // batch must NOT schedule a SearchHeld over last batch's residents
        // (they are cache entries, and the re-grant covers the work).
        let acts = sm.handle(WorkerEvent::Grant {
            batch: 1,
            nfrags: 1,
        });
        assert_eq!(
            acts,
            vec![
                WorkerAction::Prepare { batch: 1 },
                WorkerAction::Ingest {
                    batch: 1,
                    count: 1,
                    search: true
                },
                WorkerAction::AckGrant,
            ]
        );
        // Nor does a submission request sneak one in.
        let acts = sm.handle(WorkerEvent::SubmitReq { batch: 1, epoch: 2 });
        assert_eq!(acts, vec![WorkerAction::Submit { batch: 1, epoch: 2 }]);
        // Per-batch writes carry the batch so the command loop can route
        // them to the stream's per-batch output path.
        let acts = sm.handle(WorkerEvent::Assign { epoch: 3 });
        assert_eq!(
            acts,
            vec![WorkerAction::WriteAssigned { batch: 1, epoch: 3 }]
        );
    }
}
