//! The event-driven protocol runtime: one master/worker protocol for
//! every mode.
//!
//! * [`MasterSm`] is an `event -> (state', actions)` machine that sends
//!   no messages and does no file I/O: the fragment queue (each
//!   fragment's owner and last holder; the master's own row holds the
//!   orphans), the master's only liveness table, its one
//!   requeue-or-orphan decision per death, and epoch fencing.
//! * `lowering` is the one place that picks a transport: collectives for
//!   a one-shot fault-free run, epoch-fenced point-to-point commands with
//!   sweeps of the machine's live workers for `Recover` and service mode.
//! * `master_io` is the master's setup and its one loop between the
//!   machine and the lowering, and `admission` its gate for service-mode
//!   stream batches. `worker_io` is the worker's: passive, it
//!   acts on each command as it arrives, and holds only its prepared
//!   batch and whether its fragments are searched against it. `search`
//!   ingests and searches fragments, `output` writes the report, and
//!   `checkpoint` persists searched fragments and looks up a dead
//!   worker's for the master, adopting each valid one into the master's
//!   one orphan [`ResultCache`](crate::cache::ResultCache), whose records
//!   ride to the live workers in their [`Assign`]ments. A dead worker's
//!   other fragments are re-cut over the idle survivors
//!   ([`MasterSm::recut`]).
//!
//! [`FaultMode`] is a policy on the one machine, not a protocol: a death
//! the point-to-point lowering hears of is recovered if the policy
//! [recovers](RunPolicy::recovers) and fails the run fast otherwise —
//! where, with nothing to rewind, the next batch opens at the merge
//! ([pipelines](RunPolicy::pipelines)). DESIGN.md §8 lists the events,
//! the actions and the lowering's decisions.

mod admission;
mod checkpoint;
mod lowering;
mod master;
mod master_io;
mod output;
mod search;
mod worker_io;

pub use master::{MasterAction, MasterEvent, MasterPhase, MasterSm};

pub(crate) use master_io::run_master;
pub(crate) use worker_io::run_worker;

use bytes::Bytes;
use mpiblast::wire::OffsetAssignment;
use seqfmt::codec::{CodecError, Reader, Wire, Writer};
use seqfmt::wire_struct;
use simcluster::RankCtx;

use crate::app::{FragmentSchedule, PioBlastConfig};
use crate::fault::FaultMode;
use crate::merge::SummaryBlock;
use crate::proto::PartitionMessage;

// Unified protocol tags. `READY`/`GRANT` keep the fault-free dynamic
// scheduler's historical values; the rest keep the recovery protocol's.
/// Worker -> master: fragment request, doubling as the grant ack.
pub(crate) const TAG_READY: u64 = 1;
/// Master -> worker: a [`Grant`].
pub(crate) const TAG_GRANT: u64 = 2;
/// Master -> worker: the query bundle under `Recover`; every other run
/// broadcasts it.
pub(crate) const TAG_BUNDLE: u64 = 10;
/// Master -> worker: [`Fenced`] batch (`u32`) submission request.
pub(crate) const TAG_SUBMIT_REQ: u64 = 12;
/// Worker -> master: [`Fenced`] `MetaSubmission`.
pub(crate) const TAG_SUBMIT: u64 = 13;
/// Master -> worker: [`Fenced`] [`Assign`] (point-to-point lowering; the
/// collective one scatters the bare `Assign`s).
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

/// Point-to-point command protocol vs collectives. Service mode always
/// uses the command protocol — admission and per-batch re-grants cannot
/// be expressed as matched collectives. Implies the dynamic schedule:
/// `PioBlastConfig::validate` rejects recovery and service mode on the
/// static one.
fn p2p(fault: FaultMode, service: bool) -> bool {
    fault != FaultMode::Off || service
}

impl RunPolicy {
    /// Point-to-point commands vs collectives under this policy: the
    /// one predicate the lowering is settled by, too.
    pub fn p2p(&self) -> bool {
        p2p(self.fault, self.service)
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

    /// Does the next batch open at the merge instead of at the seal?
    /// Where commands are point-to-point and a death fails the run, no
    /// rewind can need a merged batch's state, so the next batch is
    /// granted while the merged one's report writes land.
    pub fn pipelines(&self) -> bool {
        self.p2p() && !self.recovers()
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

/// An assignment, the worker's share of writing a merged batch's report:
/// the offsets of its own records, the orphan records the master ships
/// it to write beside them, and the one-line summaries it renders.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Assign {
    /// `(query, oid, offset)` of the worker's own cached records.
    pub own: OffsetAssignment,
    /// `(offset, record)` of orphan records (a dead worker's
    /// checkpointed results), ascending: one contiguous block of the
    /// merge's orphan records.
    pub shipped: Vec<(u64, Bytes)>,
    /// Blocks of one-line summaries to render, ascending.
    pub summaries: Vec<SummaryBlock>,
    /// One past the batch report's last byte: nothing may run past it.
    pub end: u64,
}

/// The fields in order; a shipped record travels as its offset and a
/// length-prefixed byte string.
impl Wire for Assign {
    const MIN_SIZE: usize = OffsetAssignment::MIN_SIZE + 4 + 4 + 8;

    fn put(&self, w: &mut Writer) {
        self.own.put(w);
        (self.shipped.len() as u32).put(w);
        for (offset, record) in &self.shipped {
            offset.put(w);
            (record.len() as u32).put(w);
            w.bytes(record);
        }
        self.summaries.put(w);
        self.end.put(w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Assign, CodecError> {
        Ok(Assign {
            own: Wire::get(r.at("Assign.own"))?,
            shipped: {
                let n = u32::get(r.at("Assign.shipped"))?;
                r.list_of(u64::from(n), 8 + 4, |r| {
                    let offset = u64::get(r)?;
                    Ok((offset, Bytes::copy_from_slice(r.blob()?)))
                })?
            },
            summaries: Wire::get(r.at("Assign.summaries"))?,
            end: Wire::get(r.at("Assign.end"))?,
        })
    }
}

/// Derive the runtime policy from a validated configuration.
fn policy_of(ctx: &RankCtx, cfg: &PioBlastConfig, nbatches: usize) -> RunPolicy {
    RunPolicy {
        schedule: cfg.schedule,
        fault: cfg.fault,
        checkpoint: cfg.checkpoint,
        nranks: ctx.nranks(),
        nfrags: cfg.num_fragments.unwrap_or(ctx.nranks() - 1),
        nbatches,
        service: cfg.service.is_some(),
        affinity: cfg.service.as_ref().is_some_and(|s| s.affinity),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::PioError;
    use crate::merge::SummaryBlock;
    use blast_core::seq::SeqRecord;
    use bytes::Bytes;
    use mpiblast::wire::{MetaSubmission, OffsetAssignment};
    use seqfmt::Wire;

    /// The lowering a hand-played master speaks.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Lowering {
        /// A one-shot fault-free run: broadcast and scatters, with
        /// point-to-point submissions.
        Collective,
        /// `Recover`: point-to-point commands after a `TAG_BUNDLE`.
        Recover,
        /// Service mode without `--recover`: point-to-point commands
        /// after a broadcast bundle, queries per stream batch.
        Service,
    }

    /// What a hand-played master has to hand: the query bundle, each
    /// batch's one query, and the database's first two virtual fragments
    /// as grant assignments.
    struct Script {
        bundle: Bytes,
        queries: Vec<SeqRecord>,
        part: PartitionMessage,
    }

    impl Script {
        /// A `TAG_GRANT` payload: `batch`, the fragments `ids` names.
        fn grant(&self, batch: u32, ids: Vec<u32>, tweak: impl Fn(&mut PartitionMessage)) -> Bytes {
            let mut part = self.part.clone();
            part.fragments = ids
                .iter()
                .map(|&id| self.part.fragments[id as usize].clone())
                .collect();
            tweak(&mut part);
            Bytes::from(Grant { batch, ids, part }.encode())
        }

        /// A `TAG_QBATCH` payload: stream batch `batch`'s one query.
        fn qbatch(&self, batch: usize) -> Bytes {
            let mut frame = seqfmt::codec::Writer::default();
            (batch as u32).put(&mut frame);
            mpiblast::wire::put_queries(&self.queries[batch..=batch], &mut frame);
            Bytes::from(frame.finish())
        }

        /// How many subjects fragment `id` holds.
        fn subjects(&self, id: usize) -> u64 {
            let spec = &self.part.fragments[id].spec;
            spec.last_seq - spec.first_seq
        }
    }

    /// Play the master by hand (`master` is rank 0's whole body) against
    /// one real worker under `lowering` and `schedule`, and return what
    /// the worker made of it. Neither a rank panic nor a deadlock is
    /// acceptable, whatever the master says.
    fn worker_outcome(
        lowering: Lowering,
        schedule: FragmentSchedule,
        plan: simcluster::FaultPlan,
        master: impl Fn(&mpisim::Comm<'_>, &Script) + Sync,
    ) -> Result<mpiblast::RankReport, PioError> {
        worker_run(lowering, schedule, 1, plan, master).outcome
    }

    /// What one real worker made of a hand-played master.
    struct WorkerRun {
        outcome: Result<mpiblast::RankReport, PioError>,
        /// `(start, batch, fragment)` of every search the worker ran.
        searches: Vec<(u64, u64, u64)>,
        /// How many subjects each of the two fragments holds.
        subjects: [u64; 2],
    }

    impl WorkerRun {
        /// The worker finished, having searched `(batch, fragment)` as
        /// `expected` says, in that order, and its search stats count
        /// exactly those searches' subjects.
        fn searched(self, expected: &[(u64, u64)]) {
            let got: Vec<(u64, u64)> = self.searches.iter().map(|&(_, b, f)| (b, f)).collect();
            assert_eq!(got, expected);
            let subjects: u64 = expected
                .iter()
                .map(|&(_, f)| self.subjects[f as usize])
                .sum();
            let report = self.outcome.expect("the worker finished");
            assert_eq!(report.search_stats.subjects, subjects);
        }
    }

    /// [`worker_outcome`] over `nbatches` one-query batches, recording
    /// every search the worker ran. Query `b` is subject `13 b` of the
    /// database. Report writes are independent, so a hand-played
    /// collective master need only join the barrier that seals a batch.
    fn worker_run(
        lowering: Lowering,
        schedule: FragmentSchedule,
        nbatches: usize,
        plan: simcluster::FaultPlan,
        master: impl Fn(&mpisim::Comm<'_>, &Script) + Sync,
    ) -> WorkerRun {
        use crate::proto::FragmentAssignment;
        use crate::service::{QueryStreamPlan, ServiceOptions};
        use crate::testutil::{sample_queries, small_db, OUTPUT};
        use mpiblast::setup::{stage_queries, stage_shared_db};
        use mpiblast::{ClusterEnv, Platform, MASTER};
        use mpisim::Comm;

        let db = small_db(None);
        let queries = sample_queries(&db, nbatches);
        let platform = Platform::altix();
        let sim = simcluster::Sim::new(2);
        let tracer = tracelog::Tracer::new(2);
        sim.set_tracer(tracer.clone());
        let env = ClusterEnv::new(&sim, &platform);
        let db_alias = stage_shared_db(&env.shared, &db);
        let query_path = stage_queries(&env.shared, &queries);
        let mut cfg = PioBlastConfig {
            schedule,
            query_batch: Some(1),
            collective_output: false,
            ..PioBlastConfig::new(&platform, &env, &db_alias, &query_path, OUTPUT)
        };
        match lowering {
            Lowering::Collective => {}
            Lowering::Recover => cfg.fault = FaultMode::Recover,
            Lowering::Service => {
                cfg.service = Some(ServiceOptions {
                    plan: QueryStreamPlan::generate(1, nbatches, nbatches, 1_000, 7),
                    resident_bytes: u64::MAX,
                    affinity: false,
                })
            }
        }
        let script = Script {
            bundle: Bytes::from(
                mpiblast::wire::QueryBundle {
                    db_title: db.alias.title.clone(),
                    db_stats: db.alias.global_stats,
                    molecule: db.alias.molecule,
                    queries: if lowering == Lowering::Service {
                        Vec::new()
                    } else {
                        queries.clone()
                    },
                }
                .encode(),
            ),
            queries,
            part: PartitionMessage {
                fragments: seqfmt::virtual_fragments(&[&db.volumes[0].index], 2)
                    .into_iter()
                    .map(|spec| FragmentAssignment {
                        spec,
                        volume_name: db.alias.volumes[0].clone(),
                    })
                    .collect(),
                volumes: db.alias.volumes.clone(),
            },
        };
        let mut out = sim
            .try_run_faulty(plan, |ctx| {
                let comm = Comm::new(&ctx, cfg.platform.net);
                if ctx.rank() == MASTER {
                    master(&comm, &script);
                    None
                } else {
                    Some(run_worker(&ctx, &comm, &cfg))
                }
            })
            .expect("neither a rank panic nor a deadlock");
        let searches = tracer
            .finish(out.elapsed.0)
            .rank_events(1)
            .filter(|e| e.name == "search.fragment" && e.kind == tracelog::EventKind::Begin)
            .map(|e| {
                let arg = |key| match e.args.iter().find(|(k, _)| *k == key) {
                    Some((_, tracelog::ArgVal::U64(v))) => *v,
                    other => panic!("search.fragment {key}: {other:?}"),
                };
                (e.t, arg("batch"), arg("fragment"))
            })
            .collect();
        WorkerRun {
            outcome: out
                .outputs
                .remove(1)
                .flatten()
                .expect("the worker returned"),
            searches,
            subjects: [script.subjects(0), script.subjects(1)],
        }
    }

    /// The worker's next message to the master, which must carry `tag`.
    fn from_worker(comm: &mpisim::Comm<'_>, tag: u64) -> Bytes {
        let m = comm.recv(Some(1), None);
        assert_eq!(m.tag, tag, "the worker sent tag {}", m.tag);
        m.payload
    }

    /// Grant fragment `id` for `batch` point-to-point; returns when the
    /// worker's acknowledgement arrived.
    fn grant_acked(comm: &mpisim::Comm<'_>, s: &Script, batch: u32, id: u32) -> u64 {
        comm.send(1, TAG_GRANT, s.grant(batch, vec![id], |_| {}));
        from_worker(comm, TAG_READY);
        comm.ctx().now().0
    }

    /// Ask for `batch`'s submission under `epoch` and return it.
    fn submission(comm: &mpisim::Comm<'_>, batch: u32, epoch: u64) -> MetaSubmission {
        comm.send(1, TAG_SUBMIT_REQ, Bytes::from((epoch, batch).encode()));
        let (echo, sub) = Fenced::<MetaSubmission>::decode(&from_worker(comm, TAG_SUBMIT))
            .expect("a fenced submission");
        assert_eq!(echo, epoch);
        sub
    }

    /// Assign the worker nothing under `epoch`; take its acknowledgement.
    fn assign_nothing(comm: &mpisim::Comm<'_>, epoch: u64) {
        let assign = (epoch, Assign::default()).encode();
        comm.send(1, TAG_ASSIGN, Bytes::from(assign));
        assert_eq!(u64::decode(&from_worker(comm, TAG_DONE)), Ok(epoch));
    }

    /// Does `sub` list a hit on subject `oid`?
    fn hits(sub: &MetaSubmission, oid: u32) -> bool {
        sub.per_query
            .iter()
            .flat_map(|(_, h)| h)
            .any(|h| h.oid == oid)
    }

    /// A collective master's side of each batch after distribution: the
    /// worker's unasked submission, which must hit the batch's query's own
    /// subject, an empty assignment scatter, and the barrier that seals
    /// the batch.
    fn collect_batches(comm: &mpisim::Comm<'_>, nbatches: usize) {
        use mpisim::Collectives;
        for b in 0..nbatches {
            let frame = from_worker(comm, TAG_SUBMIT);
            let (_, sub) = Fenced::<MetaSubmission>::decode(&frame).expect("a submission");
            assert!(hits(&sub, 13 * b as u32), "batch {b}: {sub:?}");
            let none = Bytes::from(Assign::default().encode());
            comm.scatterv(0, vec![none.clone(), none]);
            comm.barrier();
        }
    }

    #[test]
    fn a_static_worker_searches_its_share_at_each_submission_request() {
        // The scatter hands the worker both fragments, and nothing
        // acknowledges it. The worker searches them at batch 0's
        // submission request, then again, in the same order, at batch
        // 1's against the new batch's query.
        use mpisim::Collectives;
        let run = worker_run(
            Lowering::Collective,
            FragmentSchedule::Static,
            2,
            simcluster::FaultPlan::none(),
            |comm, s| {
                comm.bcast(0, s.bundle.clone());
                let empty = Bytes::from(Grant::default().encode());
                comm.scatterv(0, vec![empty, s.grant(0, vec![0, 1], |_| {})]);
                collect_batches(comm, 2);
            },
        );
        run.searched(&[(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn a_dynamic_worker_searches_each_grant_before_acknowledging_it() {
        // Under Recover: the grant is searched before its ack leaves.
        // Resubmitting batch 0 under a new epoch, or answering a stale
        // request for it once batch 1 is under way, searches nothing
        // more. A grant for batch 1 re-searches the held fragment first,
        // then the new one, both before its ack.
        let acks = std::sync::Mutex::new(Vec::new());
        let run = worker_run(
            Lowering::Recover,
            FragmentSchedule::Dynamic,
            2,
            simcluster::FaultPlan::none(),
            |comm, s| {
                comm.send(1, TAG_BUNDLE, s.bundle.clone());
                from_worker(comm, TAG_READY);
                let mut acked = vec![grant_acked(comm, s, 0, 0)];
                let batch0 = submission(comm, 0, 1);
                assert!(hits(&batch0, 0), "{batch0:?}");
                assert_eq!(submission(comm, 0, 2), batch0);
                acked.push(grant_acked(comm, s, 1, 1));
                let batch1 = submission(comm, 1, 3);
                assert!(hits(&batch1, 13), "{batch1:?}");
                assert_eq!(submission(comm, 0, 4), batch1);
                assign_nothing(comm, 5);
                comm.send(1, TAG_FINISH, Bytes::new());
                *acks.lock().expect("no other rank holds the lock") = acked;
            },
        );
        let acks = acks.into_inner().expect("the master did not panic");
        let began: Vec<u64> = run.searches.iter().map(|&(t, _, _)| t).collect();
        assert!(began[0] < acks[0], "{began:?} vs acks {acks:?}");
        assert!(
            acks[0] < began[1] && began[2] < acks[1],
            "{began:?} vs acks {acks:?}"
        );
        run.searched(&[(0, 0), (1, 0), (1, 1)]);
    }

    #[test]
    fn a_service_worker_never_re_searches_its_residents() {
        // Fragment 0 stays resident after stream batch 0. Batch 1's
        // prepare and submission request leave it alone; only its
        // re-grant, a cache hit, searches it again, once.
        let run = worker_run(
            Lowering::Service,
            FragmentSchedule::Dynamic,
            2,
            simcluster::FaultPlan::none(),
            |comm, s| {
                use mpisim::Collectives;
                comm.bcast(0, s.bundle.clone());
                comm.send(1, TAG_QBATCH, s.qbatch(0));
                from_worker(comm, TAG_READY);
                grant_acked(comm, s, 0, 0);
                submission(comm, 0, 1);
                assign_nothing(comm, 2);
                comm.send(1, TAG_QBATCH, s.qbatch(1));
                grant_acked(comm, s, 1, 1);
                submission(comm, 1, 3);
                grant_acked(comm, s, 1, 0);
                submission(comm, 1, 4);
                assign_nothing(comm, 5);
                comm.send(1, TAG_FINISH, Bytes::new());
            },
        );
        run.searched(&[(0, 0), (1, 1), (1, 0)]);
    }

    #[test]
    fn a_one_shot_worker_re_searches_its_fragments_in_grant_order() {
        // Two grants, fragment 1 before fragment 0, then the drain: each
        // is searched on arrival, and batch 1 re-searches both in the
        // order they were granted.
        let run = worker_run(
            Lowering::Collective,
            FragmentSchedule::Dynamic,
            2,
            simcluster::FaultPlan::none(),
            |comm, s| {
                use mpisim::Collectives;
                comm.bcast(0, s.bundle.clone());
                for ids in [vec![1], vec![0], Vec::new()] {
                    from_worker(comm, TAG_READY);
                    comm.send(1, TAG_GRANT, s.grant(0, ids, |_| {}));
                }
                collect_batches(comm, 2);
            },
        );
        run.searched(&[(0, 1), (0, 0), (1, 1), (1, 0)]);
    }

    /// Grant a real dynamic worker under the collective lowering the
    /// first `ids.len()` of two virtual fragments, `tweak`ed.
    fn worker_outcome_of_grant(
        ids: Vec<u32>,
        tweak: impl Fn(&mut PartitionMessage) + Sync,
    ) -> Result<mpiblast::RankReport, PioError> {
        use mpisim::Collectives;
        let plan = simcluster::FaultPlan::none();
        worker_outcome(
            Lowering::Collective,
            FragmentSchedule::Dynamic,
            plan,
            |comm, s| {
                comm.bcast(0, s.bundle.clone());
                comm.recv(Some(1), Some(TAG_READY));
                comm.send(1, TAG_GRANT, s.grant(0, ids.clone(), &tweak));
            },
        )
    }

    #[test]
    fn a_hostile_master_gets_a_typed_error_from_a_real_worker() {
        // Every way a master can break the protocol, under each lowering
        // that can carry it, ends the worker in its typed error: never a
        // panic, never a deadlock. The texts are what the worker's loop
        // promises to say.
        use mpisim::{Collectives, Comm};
        use simcluster::{FaultPlan, SimDuration, SimTime};
        use FragmentSchedule::{Dynamic, Static};
        use Lowering::{Collective, Recover, Service};

        type Master = fn(&Comm<'_>, &Script);
        /// The bundle, and the worker's first request back.
        fn ready(comm: &Comm<'_>, s: &Script) {
            comm.send(1, TAG_BUNDLE, s.bundle.clone());
            assert_eq!(comm.recv(Some(1), None).tag, TAG_READY);
        }
        /// An assignment naming query 0's oid 5, which no fragment this
        /// worker searched holds.
        fn uncached() -> OffsetAssignment {
            OffsetAssignment {
                records: vec![(0, 5, 0)],
            }
        }
        /// Fragment 0 granted, searched and acknowledged, and the
        /// worker's submission for it under epoch 1, whose first hit the
        /// worker holds a record of.
        fn searched(comm: &Comm<'_>, s: &Script) -> (u32, u32, u64) {
            ready(comm, s);
            grant_acked(comm, s, 0, 0);
            let sub = submission(comm, 0, 1);
            let (q, hits) = &sub.per_query[0];
            (*q, hits[0].oid, hits[0].record_size)
        }
        /// A point-to-point assignment under epoch 1 of the worker's own
        /// record at offset 0, with `shipped` orphan records and
        /// `summaries`. The master then stays until the kill at 1 s: a
        /// worker that wrongly writes and acknowledges meets a dead
        /// master, not one that returned.
        fn ship(
            comm: &Comm<'_>,
            own: (u32, u32, u64),
            shipped: Vec<(u64, Bytes)>,
            summaries: Vec<SummaryBlock>,
            end: u64,
        ) {
            let (q, oid, _) = own;
            let own = OffsetAssignment {
                records: vec![(q, oid, 0)],
            };
            let assign = Assign {
                own,
                shipped,
                summaries,
                end,
            };
            comm.send(1, TAG_ASSIGN, Bytes::from((1u64, assign).encode()));
            comm.recv(Some(1), Some(TAG_ABORT));
        }
        /// A closing summary block of one entry at `offset`.
        fn summary_at(offset: u64) -> Vec<SummaryBlock> {
            let entries = vec![crate::merge::SummaryEntry {
                name: "gi|5| forged".into(),
                bit_score: 50.0,
                evalue: 1e-9,
            }];
            let closes = true;
            vec![SummaryBlock {
                offset,
                entries,
                closes,
            }]
        }
        /// The static collective choreography up to the assignment
        /// scatter, with nothing granted: the bundle, the scatter, and
        /// the worker's submission.
        fn collected(comm: &Comm<'_>, s: &Script) {
            comm.bcast(0, s.bundle.clone());
            let empty = Bytes::from(Grant::default().encode());
            comm.scatterv(0, vec![empty.clone(), empty]);
            comm.recv(Some(1), Some(TAG_SUBMIT));
        }
        let cases: Vec<(&str, Lowering, FragmentSchedule, Master, &str)> = vec![
            (
                "an empty bundle broadcast",
                Collective,
                Static,
                |comm, _| drop(comm.bcast(0, Bytes::new())),
                "Err(Protocol(\"truncated input while reading",
            ),
            (
                "a grant before the bundle",
                Recover,
                Dynamic,
                |comm, s| comm.send(1, TAG_GRANT, s.grant(0, vec![0], |_| {})),
                "Err(Protocol(\"worker expected the query bundle, got tag 2\"))",
            ),
            (
                "an abort before the bundle",
                Recover,
                Dynamic,
                |comm, _| comm.send(1, TAG_ABORT, Bytes::new()),
                "Err(Aborted)",
            ),
            (
                "an unknown tag after the bundle",
                Recover,
                Dynamic,
                |comm, s| {
                    ready(comm, s);
                    comm.send(1, 99, Bytes::new());
                },
                "Err(Protocol(\"worker got unexpected tag 99\"))",
            ),
            (
                "a truncated fenced submission request",
                Recover,
                Dynamic,
                |comm, s| {
                    ready(comm, s);
                    comm.send(1, TAG_SUBMIT_REQ, Bytes::from(vec![1u8, 0, 0]));
                },
                "Err(Protocol(\"truncated input while reading",
            ),
            (
                "an assignment naming a record never cached",
                Recover,
                Dynamic,
                |comm, s| {
                    ready(comm, s);
                    let own = uncached();
                    let assign = (1u64, Assign { own, ..Assign::default() }).encode();
                    comm.send(1, TAG_ASSIGN, Bytes::from(assign));
                },
                "Err(Protocol(\"assigned record (0, 5) not cached\"))",
            ),
            (
                "an assignment with no shipped-record list",
                Recover,
                Dynamic,
                |comm, s| {
                    ready(comm, s);
                    let assign = (1u64, uncached()).encode();
                    comm.send(1, TAG_ASSIGN, Bytes::from(assign));
                },
                "Err(Protocol(\"truncated input while reading Assign.shipped",
            ),
            (
                "a shipped record overlapping the worker's own",
                Recover,
                Dynamic,
                |comm, s| {
                    let own = searched(comm, s);
                    let orphan = (own.2 - 1, Bytes::from_static(b"orphan"));
                    ship(comm, own, vec![orphan], Vec::new(), u64::MAX);
                },
                "Err(Protocol(\"output layout is not writable: view regions must be sorted and disjoint\"))",
            ),
            (
                "a shipped record past the report end",
                Recover,
                Dynamic,
                |comm, s| {
                    let own = searched(comm, s);
                    let orphan = (own.2, Bytes::from_static(b"orphan"));
                    ship(comm, own, vec![orphan], Vec::new(), own.2 + 5);
                },
                "Err(Protocol(\"shipped record at ",
            ),
            (
                "a summary block overlapping the worker's own record",
                Recover,
                Dynamic,
                |comm, s| {
                    let own = searched(comm, s);
                    ship(comm, own, Vec::new(), summary_at(own.2 - 1), u64::MAX);
                },
                "Err(Protocol(\"output layout is not writable: view regions must be sorted and disjoint\"))",
            ),
            (
                "a summary block past the report end",
                Recover,
                Dynamic,
                |comm, s| {
                    let own = searched(comm, s);
                    ship(comm, own, Vec::new(), summary_at(own.2), own.2 + 1);
                },
                "Err(Protocol(\"summary block at ",
            ),
            (
                "an assignment naming a record never cached",
                Collective,
                Static,
                |comm, s| {
                    collected(comm, s);
                    let own = uncached();
                    let piece = Bytes::from(Assign { own, ..Assign::default() }.encode());
                    comm.scatterv(0, vec![piece.clone(), piece]);
                },
                "Err(Protocol(\"assigned record (0, 5) not cached\"))",
            ),
            (
                "an empty assignment-scatter piece",
                Collective,
                Static,
                |comm, s| {
                    collected(comm, s);
                    comm.scatterv(0, vec![Bytes::new(), Bytes::new()]);
                },
                "Err(Protocol(\"truncated input while reading",
            ),
            (
                "a grant for a batch the bundle does not hold",
                Recover,
                Dynamic,
                |comm, s| {
                    ready(comm, s);
                    comm.send(1, TAG_GRANT, s.grant(7, vec![0], |_| {}));
                },
                "Err(Protocol(\"batch 7 has no queries\"))",
            ),
            (
                "a grant where stream batch 0's queries are due",
                Service,
                Dynamic,
                |comm, s| {
                    comm.bcast(0, s.bundle.clone());
                    comm.send(1, TAG_GRANT, s.grant(0, vec![0], |_| {}));
                },
                "Err(Protocol(\"worker expected stream batch 0 queries, got tag 2\"))",
            ),
            (
                "a master killed after the bundle",
                Recover,
                Dynamic,
                |comm, s| {
                    ready(comm, s);
                    comm.recv(Some(1), None);
                },
                "Err(MasterDied)",
            ),
            (
                "a master that returned after its last send",
                Recover,
                Dynamic,
                |comm, s| {
                    ready(comm, s);
                    comm.send(1, TAG_GRANT, s.grant(0, vec![0], |_| {}));
                },
                "Err(MasterDied)",
            ),
        ];
        for (what, lowering, schedule, master, expected) in cases {
            let plan = FaultPlan::none().kill_at(0, SimTime::ZERO + SimDuration::from_secs(1));
            let got = format!("{:?}", worker_outcome(lowering, schedule, plan, master));
            assert!(
                got.starts_with(expected),
                "{what} ({lowering:?}, {schedule:?}): expected {expected}, got {got}"
            );
        }
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
        use mpiblast::wire::MetaHit;
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
                        comm.scatterv(MASTER, Vec::new());
                        let sub = (1u64, forged.clone()).encode();
                        comm.send(MASTER, TAG_SUBMIT, Bytes::from(sub));
                        assert!(comm.scatterv(MASTER, Vec::new()).is_empty(), "released");
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
    fn a_garbage_submission_under_collectives_ends_every_rank_in_a_typed_error() {
        // A real master and a real worker under the collective lowering,
        // beside a hand-played worker whose submission frame is garbage.
        // The master's decode fails, so it fails with a protocol error
        // and releases both workers from the assignment scatter with
        // empty pieces: each worker's decode fails in turn. Every rank
        // ends in a typed error, none in a hang (the master is killed at
        // t = 1000 s if it ever waits that long).
        use crate::testutil::{sample_queries, small_db, OUTPUT};
        use mpiblast::setup::{stage_queries, stage_shared_db};
        use mpiblast::{ClusterEnv, Platform, MASTER};
        use mpisim::{Collectives, Comm};
        use simcluster::{FaultPlan, SimDuration, SimTime};

        let db = small_db(None);
        let platform = Platform::altix();
        let sim = simcluster::Sim::new(3);
        let env = ClusterEnv::new(&sim, &platform);
        let db_alias = stage_shared_db(&env.shared, &db);
        let query_path = stage_queries(&env.shared, &sample_queries(&db, 1));
        let cfg = PioBlastConfig::new(&platform, &env, &db_alias, &query_path, OUTPUT);
        let watchdog =
            FaultPlan::none().kill_at(MASTER, SimTime::ZERO + SimDuration::from_secs(1000));
        let out = sim
            .try_run_faulty(watchdog, |ctx| {
                let comm = Comm::new(&ctx, cfg.platform.net);
                match ctx.rank() {
                    MASTER => run_master(&ctx, &comm, &cfg),
                    1 => run_worker(&ctx, &comm, &cfg),
                    _ => {
                        comm.bcast(MASTER, Bytes::new());
                        comm.scatterv(MASTER, Vec::new());
                        comm.send(MASTER, TAG_SUBMIT, Bytes::from_static(&[0xff; 3]));
                        let piece = comm.scatterv(MASTER, Vec::new());
                        Assign::decode(&piece)
                            .map(|_| mpiblast::RankReport::default())
                            .map_err(PioError::from)
                    }
                }
            })
            .expect("neither a rank panic nor a deadlock");
        for (rank, outcome) in out.outputs.iter().enumerate() {
            let got = format!("{outcome:?}");
            assert!(
                got.starts_with("Some(Err(Protocol(\"truncated input while reading"),
                "rank {rank}: {got}"
            );
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
