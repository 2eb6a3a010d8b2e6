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

use bytes::Bytes;

use crate::app::{FragmentSchedule, PioBlastConfig};
use crate::fault::{FaultMode, PioError};
use crate::proto::PartitionMessage;

// Unified protocol tags. `READY`/`GRANT` keep the fault-free dynamic
// scheduler's historical values; the rest keep the recovery protocol's.
/// Worker -> master: fragment request, doubling as the grant ack.
pub(crate) const TAG_READY: u64 = 1;
/// Master -> worker: `[batch u32][ids][PartitionMessage]` grant.
pub(crate) const TAG_GRANT: u64 = 2;
/// Master -> worker: the query bundle (point-to-point modes).
pub(crate) const TAG_BUNDLE: u64 = 10;
/// Master -> worker: epoch-framed `[batch u32]` submission request.
pub(crate) const TAG_SUBMIT_REQ: u64 = 12;
/// Worker -> master: epoch-framed [`MetaSubmission`] bytes.
pub(crate) const TAG_SUBMIT: u64 = 13;
/// Master -> worker: epoch-framed [`OffsetAssignment`] bytes.
pub(crate) const TAG_ASSIGN: u64 = 14;
/// Worker -> master: epoch-framed write acknowledgement.
pub(crate) const TAG_DONE: u64 = 15;
/// Master -> worker: the run is complete.
pub(crate) const TAG_FINISH: u64 = 16;
/// Master -> worker: abandon the run.
pub(crate) const TAG_ABORT: u64 = 17;
/// Master -> worker: one stream batch's queries (`[batch u32][queries]`,
/// service mode). Sent ahead of the batch's first grant — FIFO ordering
/// per peer pair guarantees the queries precede every command that
/// needs them — and prefetched behind the previous batch's search.
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

/// Prefix `body` with an 8-byte little-endian epoch.
pub(crate) fn with_epoch(epoch: u64, body: &[u8]) -> Bytes {
    let mut buf = Vec::with_capacity(8 + body.len());
    buf.extend_from_slice(&epoch.to_le_bytes());
    buf.extend_from_slice(body);
    Bytes::from(buf)
}

/// Split an epoch-prefixed payload.
pub(crate) fn split_epoch(payload: &[u8]) -> Result<(u64, &[u8]), PioError> {
    if payload.len() < 8 {
        return Err(PioError::Protocol("epoch frame too short".into()));
    }
    let mut e = [0u8; 8];
    e.copy_from_slice(&payload[..8]);
    Ok((u64::from_le_bytes(e), &payload[8..]))
}

/// A grant payload: the batch it belongs to, the global fragment ids
/// (checkpoint keys), and the byte-range assignments themselves.
pub(crate) fn encode_grant(batch: u32, ids: &[usize], part: &PartitionMessage) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&batch.to_le_bytes());
    buf.extend_from_slice(&(ids.len() as u32).to_le_bytes());
    for &f in ids {
        buf.extend_from_slice(&(f as u32).to_le_bytes());
    }
    buf.extend_from_slice(&part.encode());
    buf
}

/// Read a little-endian `u32` at `at`, or fail with a typed protocol
/// error naming the field. Received frames must never be able to panic a
/// rank, however truncated or garbled.
fn read_u32(buf: &[u8], at: usize, what: &str) -> Result<u32, PioError> {
    buf.get(at..at + 4)
        .and_then(|b| b.try_into().ok())
        .map(u32::from_le_bytes)
        .ok_or_else(|| PioError::Protocol(format!("grant frame truncated at {what}")))
}

/// Inverse of [`encode_grant`].
pub(crate) fn decode_grant(buf: &[u8]) -> Result<(u32, Vec<u32>, PartitionMessage), PioError> {
    let batch = read_u32(buf, 0, "batch")?;
    let n = read_u32(buf, 4, "id count")? as usize;
    // Bound the count by the frame itself before sizing anything: a
    // garbage length can't trigger a huge allocation or an overflowing
    // offset.
    let ids_end = 8usize.saturating_add(n.saturating_mul(4));
    if buf.len() < ids_end {
        return Err(PioError::Protocol("grant id list truncated".into()));
    }
    let ids = (0..n)
        .map(|i| read_u32(buf, 8 + 4 * i, "fragment id"))
        .collect::<Result<Vec<u32>, PioError>>()?;
    let part =
        PartitionMessage::decode(&buf[ids_end..]).map_err(|e| PioError::Protocol(e.to_string()))?;
    Ok((batch, ids, part))
}

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

/// A `TAG_QBATCH` payload: the stream batch id plus its query records
/// (service mode; the molecule travels in the startup bundle).
pub(crate) fn encode_qbatch(batch: u32, queries: &[blast_core::seq::SeqRecord]) -> Vec<u8> {
    let mut w = seqfmt::codec::Writer::new();
    w.u32(batch);
    w.u32(queries.len() as u32);
    for q in queries {
        w.string(&q.defline);
        w.u32(q.residues.len() as u32);
        w.bytes(&q.residues);
    }
    w.finish()
}

/// Inverse of [`encode_qbatch`]. Truncated or garbled frames are typed
/// protocol errors, never panics.
pub(crate) fn decode_qbatch(
    buf: &[u8],
    molecule: blast_core::Molecule,
) -> Result<(u32, Vec<blast_core::seq::SeqRecord>), PioError> {
    let err = |e: seqfmt::codec::CodecError| PioError::Protocol(format!("query batch: {e}"));
    let mut r = seqfmt::codec::Reader::new(buf);
    let batch = r.u32("stream batch").map_err(err)?;
    let n = r.u32("query count").map_err(err)? as usize;
    let mut queries = Vec::new();
    for _ in 0..n {
        let defline = r.string("query defline").map_err(err)?;
        let len = r.u32("query len").map_err(err)? as usize;
        let residues = r.bytes(len, "query residues").map_err(err)?.to_vec();
        queries.push(blast_core::seq::SeqRecord {
            defline,
            residues,
            molecule,
        });
    }
    Ok((batch, queries))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_framing_round_trips() {
        let framed = with_epoch(7, b"payload");
        let (e, body) = split_epoch(&framed).unwrap();
        assert_eq!(e, 7);
        assert_eq!(body, b"payload");
        assert!(split_epoch(b"short").is_err());
    }

    #[test]
    fn grant_framing_round_trips() {
        let part = PartitionMessage::default();
        let buf = encode_grant(3, &[5, 9], &part);
        let (batch, ids, got) = decode_grant(&buf).unwrap();
        assert_eq!(batch, 3);
        assert_eq!(ids, vec![5, 9]);
        assert_eq!(got, part);
        assert!(decode_grant(&buf[..6]).is_err());
    }

    #[test]
    fn qbatch_framing_round_trips_and_rejects_truncation() {
        let molecule = blast_core::Molecule::Protein;
        let queries = vec![
            blast_core::seq::SeqRecord {
                defline: "q0 first".into(),
                residues: b"MKV".to_vec(),
                molecule,
            },
            blast_core::seq::SeqRecord {
                defline: "q1 second".into(),
                residues: b"ACDEFG".to_vec(),
                molecule,
            },
        ];
        let buf = encode_qbatch(5, &queries);
        let (batch, got) = decode_qbatch(&buf, molecule).unwrap();
        assert_eq!(batch, 5);
        assert_eq!(got, queries);
        for cut in 0..buf.len() {
            if let Ok((b, q)) = decode_qbatch(&buf[..cut], molecule) {
                // Only a coherent prefix (fewer whole queries) may
                // decode; the count field forbids even that.
                panic!("prefix {cut} decoded: ({b}, {} queries)", q.len());
            }
        }
        let (b, q) = decode_qbatch(&encode_qbatch(0, &[]), molecule).unwrap();
        assert_eq!((b, q.len()), (0, 0));
    }

    #[test]
    fn a_dynamic_worker_rejects_a_multi_fragment_grant() {
        // `MasterAction::Grant` carries one fragment, so the master
        // machine cannot send this; the count still arrives on the wire.
        // Play the master by hand and grant two fragments at once.
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
        let part = PartitionMessage {
            fragments: seqfmt::virtual_fragments(&[&db.volumes[0].index], 2)
                .into_iter()
                .map(|spec| FragmentAssignment {
                    spec,
                    volume_name: db.alias.volumes[0].clone(),
                })
                .collect(),
            volumes: db.alias.volumes.clone(),
        };
        assert_eq!(part.fragments.len(), 2);
        let bundle = mpiblast::wire::QueryBundle {
            db_title: db.alias.title.clone(),
            db_stats: db.alias.global_stats,
            molecule: db.alias.molecule,
            queries,
        };
        let out = sim
            .try_run_faulty(simcluster::FaultPlan::none(), |ctx| {
                let comm = Comm::new(&ctx, cfg.platform.net);
                if ctx.rank() == MASTER {
                    comm.bcast(MASTER, Bytes::from(bundle.encode()));
                    comm.recv(Some(1), Some(TAG_READY));
                    comm.send(1, TAG_GRANT, Bytes::from(encode_grant(0, &[0, 1], &part)));
                    None
                } else {
                    Some(run_worker(&ctx, &comm, &cfg))
                }
            })
            .expect("neither a rank panic nor a deadlock");
        match &out.outputs[1] {
            Some(Some(Err(PioError::Protocol(what)))) => {
                assert!(what.contains("carries 2 fragments"), "{what}")
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_grants_are_typed_errors_not_panics() {
        // Satellite: every truncation point and garbage frame must fail
        // with `PioError::Protocol`, never a slice or allocation panic.
        let part = PartitionMessage::default();
        let good = encode_grant(1, &[2, 3, 4], &part);
        // Every proper prefix of a valid frame.
        for cut in 0..good.len() {
            match decode_grant(&good[..cut]) {
                Ok((batch, ids, p)) => {
                    // A prefix may only decode if it is itself coherent —
                    // which a strict-length PartitionMessage rejects.
                    panic!("prefix {cut} decoded: ({batch}, {ids:?}, {p:?})")
                }
                Err(PioError::Protocol(_)) => {}
                Err(other) => panic!("prefix {cut}: wrong error kind {other:?}"),
            }
        }
        // A length field claiming far more ids than the frame holds must
        // not allocate or scan past the buffer.
        let mut lying = Vec::new();
        lying.extend_from_slice(&0u32.to_le_bytes());
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_grant(&lying), Err(PioError::Protocol(_))));
        // Pure garbage.
        for garbage in [&b""[..], &b"\xff"[..], &[0xAAu8; 37][..]] {
            assert!(matches!(decode_grant(garbage), Err(PioError::Protocol(_))));
        }
    }
}
