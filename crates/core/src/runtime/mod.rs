//! The event-driven protocol runtime.
//!
//! pioBLAST's master/worker choreography used to exist three times —
//! the fault-free collective path, the epoch-fenced point-to-point
//! recovery path, and pieces of the mpiBLAST baseline. This module
//! replaces the first two with **one** protocol, expressed as pure state
//! machines:
//!
//! * [`MasterSm`] — fragment queue, assignment policy, per-worker
//!   liveness, epoch fencing and a per-fragment submission ledger, as a
//!   pure `event -> (state', actions)` transition function;
//! * [`WorkerSm`] — the worker's batch/search lifecycle, equally pure;
//! * `interp` — the thin interpreter that turns actions into
//!   `mpisim::Comm` traffic and file-system I/O, and messages back into
//!   events. All communication and I/O side effects live here.
//!
//! [`FaultMode`] is a *policy* on this one machine,
//! not a separate protocol: a one-shot `Off` run lowers the same actions
//! onto collectives (broadcast/scatter/gather/collective writes), while
//! `Recover` and service mode lower them onto point-to-point commands
//! with liveness sweeps and epoch fencing — where a death is recovered
//! if the policy [recovers](RunPolicy::recovers) and fails the run fast
//! otherwise. Query batching runs through the same distribute → collect
//! → write cycle in every mode.
//!
//! **Fragment checkpointing** (`Recover` + [`RunPolicy::checkpoint`]):
//! workers persist each completed `(batch, fragment)` search — submission
//! metadata plus the formatted record bytes — to the shared file system
//! before acknowledging the grant. When a worker dies, the master
//! re-queues only its *unfinished* fragments; the finished ones are
//! adopted as "orphans" whose metadata is spliced into the merge and
//! whose records the master itself writes. The checkpoint blob for a
//! given `(batch, fragment)` is deterministic in its key, so rewrites
//! during retried epochs are idempotent and byte-identity is preserved.

mod interp;
mod ledger;
mod master;
mod worker;

pub use ledger::{FragmentState, SubmissionLedger};
pub use master::{MasterAction, MasterEvent, MasterPhase, MasterSm};
pub use worker::{WorkerAction, WorkerEvent, WorkerSm};

pub(crate) use interp::{run_master, run_worker};

use seqfmt::wire_struct;

use crate::app::{FragmentSchedule, PioBlastConfig};
use crate::fault::FaultMode;
use crate::proto::PartitionMessage;

// Unified protocol tags. `READY`/`GRANT` keep the fault-free dynamic
// scheduler's historical values; the rest keep the recovery protocol's.
/// Worker -> master: fragment request, doubling as the grant ack.
pub(crate) const TAG_READY: u64 = 1;
/// Master -> worker: a [`Grant`].
pub(crate) const TAG_GRANT: u64 = 2;
/// Master -> worker: the query bundle (point-to-point modes).
pub(crate) const TAG_BUNDLE: u64 = 10;
/// Master -> worker: [`Fenced`] batch (`u32`) submission request.
pub(crate) const TAG_SUBMIT_REQ: u64 = 12;
/// Worker -> master: [`Fenced`] `MetaSubmission`.
pub(crate) const TAG_SUBMIT: u64 = 13;
/// Master -> worker: [`Fenced`] `OffsetAssignment`.
pub(crate) const TAG_ASSIGN: u64 = 14;
/// Worker -> master: write acknowledgement, the bare epoch.
pub(crate) const TAG_DONE: u64 = 15;
/// Master -> worker: the run is complete.
pub(crate) const TAG_FINISH: u64 = 16;
/// Master -> worker: abandon the run.
pub(crate) const TAG_ABORT: u64 = 17;
/// Master -> worker: one stream batch's queries (service mode): the
/// batch (`u32`), then the list `mpiblast::wire::put_queries` writes.
/// Sent ahead of the batch's first grant — FIFO ordering per peer pair
/// guarantees the queries precede every command that needs them — and
/// prefetched behind the previous batch's search.
pub(crate) const TAG_QBATCH: u64 = 18;

/// How the runtime behaves, derived once from the run configuration.
/// This is the knob set that turns the one state machine into the
/// fault-free collective protocol, the fail-fast service, or the
/// recovering (optionally checkpointing) scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunPolicy {
    /// Static pre-assignment or dynamic self-scheduling.
    pub schedule: FragmentSchedule,
    /// Fault-tolerance mode.
    pub fault: FaultMode,
    /// Persist per-fragment search results for cheap recovery epochs.
    pub checkpoint: bool,
    /// Communicator size.
    pub nranks: usize,
    /// Virtual fragment count.
    pub nfrags: usize,
    /// Query-batch count (>= 1; an empty query set is one empty batch).
    /// In service mode this is the stream plan's batch count.
    pub nbatches: usize,
    /// Query-stream service mode: per-batch query delivery, per-batch
    /// fragment re-grants, resident fragment stores on the workers.
    pub service: bool,
    /// Affinity-aware grants (service mode): prefer re-granting a
    /// fragment to the worker that held it last.
    pub affinity: bool,
}

impl RunPolicy {
    /// Point-to-point command protocol vs collectives. Service mode
    /// always uses the command protocol — admission and per-batch
    /// re-grants cannot be expressed as matched collectives. Implies
    /// [`Self::dynamic`]: `PioBlastConfig::validate` rejects recovery and
    /// service mode on the static schedule.
    pub fn p2p(&self) -> bool {
        self.fault != FaultMode::Off || self.service
    }

    /// Request-driven distribution: every grant carries one fragment,
    /// which the worker searches on arrival (pipelined with the next
    /// grant) and acknowledges with the `READY` that requests another.
    /// The static schedule scatters whole shares instead and defers the
    /// searching to the batch loop.
    pub fn dynamic(&self) -> bool {
        self.schedule == FragmentSchedule::Dynamic
    }

    /// Does a worker death re-queue its fragments instead of aborting?
    pub fn recovers(&self) -> bool {
        self.fault == FaultMode::Recover
    }
}

/// An epoch-fenced frame, `[epoch u64][body]`: `SUBMIT_REQ` (body: the
/// batch, `u32`), `SUBMIT`, `ASSIGN` and `DONE` (no body) all carry the
/// epoch they belong to, and a receiver discards a stale one.
pub type Fenced<T> = (u64, T);

/// A `TAG_GRANT` payload.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Grant {
    /// The query batch the fragments are to be searched against.
    pub batch: u32,
    /// Global fragment ids (checkpoint keys), one per assignment.
    pub ids: Vec<u32>,
    /// The byte-range assignments themselves.
    pub part: PartitionMessage,
}

wire_struct!(Grant {
    batch: u32,
    ids: Vec<u32>,
    part: PartitionMessage,
});

/// Shared-file-system path of one `(batch, fragment)` checkpoint blob.
pub(crate) fn ckpt_path(cfg: &PioBlastConfig, batch: usize, fragment: usize) -> String {
    format!("{}.ckpt.b{batch}.f{fragment}", cfg.output_path)
}

/// The report path of one stream batch (service mode): each stream
/// batch's report is its own file, byte-identical to running the batch
/// as a one-shot job.
pub(crate) fn stream_output_path(cfg: &PioBlastConfig, batch: usize) -> String {
    format!("{}.q{batch}", cfg.output_path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::PioError;
    use bytes::Bytes;
    use seqfmt::Wire;

    /// Play the master by hand against one real dynamic worker: grant it
    /// the first `ids.len()` of two virtual fragments, `tweak`ed, and
    /// return what the worker made of it. Neither a rank panic nor a
    /// deadlock is acceptable, whatever the grant says.
    fn worker_outcome_of_grant(
        ids: Vec<u32>,
        tweak: impl Fn(&mut PartitionMessage),
    ) -> Result<mpiblast::RankReport, PioError> {
        use crate::proto::FragmentAssignment;
        use crate::testutil::{sample_queries, small_db, OUTPUT};
        use mpiblast::setup::{stage_queries, stage_shared_db};
        use mpiblast::{ClusterEnv, Platform, MASTER};
        use mpisim::{Collectives, Comm};

        let db = small_db(None);
        let queries = sample_queries(&db, 1);
        let platform = Platform::altix();
        let sim = simcluster::Sim::new(2);
        let env = ClusterEnv::new(&sim, &platform);
        let db_alias = stage_shared_db(&env.shared, &db);
        let query_path = stage_queries(&env.shared, &queries);
        let cfg = PioBlastConfig {
            schedule: FragmentSchedule::Dynamic,
            ..PioBlastConfig::new(&platform, &env, &db_alias, &query_path, OUTPUT)
        };
        let mut part = PartitionMessage {
            fragments: seqfmt::virtual_fragments(&[&db.volumes[0].index], 2)
                .into_iter()
                .take(ids.len())
                .map(|spec| FragmentAssignment {
                    spec,
                    volume_name: db.alias.volumes[0].clone(),
                })
                .collect(),
            volumes: db.alias.volumes.clone(),
        };
        assert_eq!(part.fragments.len(), ids.len());
        tweak(&mut part);
        let bundle = mpiblast::wire::QueryBundle {
            db_title: db.alias.title.clone(),
            db_stats: db.alias.global_stats,
            molecule: db.alias.molecule,
            queries,
        };
        let mut out = sim
            .try_run_faulty(simcluster::FaultPlan::none(), |ctx| {
                let comm = Comm::new(&ctx, cfg.platform.net);
                if ctx.rank() == MASTER {
                    comm.bcast(MASTER, Bytes::from(bundle.encode()));
                    comm.recv(Some(1), Some(TAG_READY));
                    let grant = Grant {
                        batch: 0,
                        ids: ids.clone(),
                        part: part.clone(),
                    };
                    comm.send(1, TAG_GRANT, Bytes::from(grant.encode()));
                    None
                } else {
                    Some(run_worker(&ctx, &comm, &cfg))
                }
            })
            .expect("neither a rank panic nor a deadlock");
        out.outputs
            .remove(1)
            .flatten()
            .expect("the worker returned")
    }

    #[test]
    fn a_dynamic_worker_rejects_a_multi_fragment_grant() {
        // `MasterAction::Grant` carries one fragment, so the master
        // machine cannot send this; the count still arrives on the wire.
        match worker_outcome_of_grant(vec![0, 1], |_| {}) {
            Err(PioError::Protocol(what)) => {
                assert!(what.contains("carries 2 fragments"), "{what}")
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn a_dynamic_worker_rejects_a_grant_with_an_inverted_range() {
        // A well-formed frame whose `seq_range` runs backwards: a typed
        // input error naming the range, not `5 - 10` in `read_fragments`.
        let invert = |part: &mut PartitionMessage| part.fragments[0].spec.seq_range = (10, 5);
        match worker_outcome_of_grant(vec![0], invert) {
            Err(PioError::Input(crate::input::InputError::Fragment(what))) => {
                assert!(what.contains("seq_range (10, 5) is inverted"), "{what}")
            }
            other => panic!("expected an input error, got {other:?}"),
        }
    }

    #[test]
    fn a_master_rejects_a_submission_for_a_query_outside_the_batch() {
        // Play one worker by hand against a real master, on both
        // lowerings: a well-formed submission whose hit names query 7 of
        // a one-query batch. It used to index `per_query[7]` in
        // `merge_and_layout`; now the master fails with a protocol error
        // naming the sender and the index, and still releases the worker
        // — from the assignment scatter, or with an abort.
        use crate::testutil::{sample_queries, small_db, OUTPUT};
        use blast_core::hsp::Hsp;
        use mpiblast::setup::{stage_queries, stage_shared_db};
        use mpiblast::wire::{MetaHit, MetaSubmission};
        use mpiblast::{ClusterEnv, Platform, MASTER};
        use mpisim::{Collectives, Comm};

        let best = Hsp {
            query_idx: 7,
            oid: 0,
            q_start: 0,
            q_end: 10,
            s_start: 0,
            s_end: 10,
            score: 50,
            bit_score: 50.0,
            evalue: 1e-9,
        };
        let hit = MetaHit {
            oid: 0,
            subject_len: 10,
            record_size: 100,
            defline: "forged".into(),
            best,
        };
        let forged = MetaSubmission {
            per_query: vec![(7, vec![hit])],
        };
        for p2p in [false, true] {
            let db = small_db(None);
            let platform = Platform::altix();
            let sim = simcluster::Sim::new(2);
            let env = ClusterEnv::new(&sim, &platform);
            let db_alias = stage_shared_db(&env.shared, &db);
            let query_path = stage_queries(&env.shared, &sample_queries(&db, 1));
            let mut cfg = PioBlastConfig::new(&platform, &env, &db_alias, &query_path, OUTPUT);
            if p2p {
                cfg.schedule = FragmentSchedule::Dynamic;
                cfg.fault = FaultMode::Recover;
            }
            let out = sim
                .try_run_faulty(simcluster::FaultPlan::none(), |ctx| {
                    let comm = Comm::new(&ctx, cfg.platform.net);
                    if ctx.rank() == MASTER {
                        return Some(run_master(&ctx, &comm, &cfg));
                    }
                    if !p2p {
                        comm.bcast(MASTER, Bytes::new());
                        comm.scatterv(MASTER, None);
                        comm.gather(MASTER, Bytes::from(forged.encode()));
                        assert!(comm.scatterv(MASTER, None).is_empty(), "released");
                        return None;
                    }
                    assert_eq!(comm.recv(Some(MASTER), None).tag, TAG_BUNDLE);
                    comm.send(MASTER, TAG_READY, Bytes::new());
                    loop {
                        let m = comm.recv(Some(MASTER), None);
                        match m.tag {
                            TAG_GRANT => comm.send(MASTER, TAG_READY, Bytes::new()),
                            TAG_SUBMIT_REQ => {
                                let (epoch, _) = Fenced::<u32>::decode(&m.payload).unwrap();
                                let sub = (epoch, forged.clone()).encode();
                                comm.send(MASTER, TAG_SUBMIT, Bytes::from(sub));
                            }
                            tag => {
                                assert_eq!(tag, TAG_ABORT, "released");
                                return None;
                            }
                        }
                    }
                })
                .expect("neither a rank panic nor a deadlock");
            match &out.outputs[MASTER] {
                Some(Some(Err(PioError::Protocol(what)))) => {
                    for part in ["rank 1", "query 7", "1-query batch"] {
                        assert!(what.contains(part), "p2p={p2p}: {what}");
                    }
                }
                other => panic!("p2p={p2p}: expected a protocol error, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_grants_are_typed_errors_not_panics() {
        // Every truncation point and garbage frame must fail with a
        // codec error — `PioError::Protocol` once it reaches the run —
        // never a slice or allocation panic.
        let typed = |frame: &[u8]| match Grant::decode(frame).map_err(PioError::from) {
            Err(PioError::Protocol(_)) => {}
            // A prefix may only decode if it is itself coherent — which
            // the strict-length decode rejects.
            other => panic!("{frame:02x?} decoded to {other:?}"),
        };
        let good = Grant {
            batch: 1,
            ids: vec![2, 3, 4],
            part: PartitionMessage::default(),
        }
        .encode();
        for cut in 0..good.len() {
            typed(&good[..cut]);
        }
        // A length field claiming far more ids than the frame holds must
        // not allocate or scan past the buffer.
        typed(&(0u32, u32::MAX).encode());
        // Pure garbage.
        for garbage in [&b""[..], &b"\xff"[..], &[0xAAu8; 37][..]] {
            typed(garbage);
        }
    }
}
