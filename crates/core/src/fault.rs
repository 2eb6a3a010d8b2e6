//! Fault-tolerance policy of the pioBLAST run, and the error type it
//! shares with mpiBLAST (re-exported from the `mpiblast` substrate).
//!
//! The protocol that *implements* these policies lives in
//! [`crate::runtime`]: one event-driven master/worker state-machine pair
//! shared by every mode. What a rank death *means* is decided by how the
//! runtime's actions are lowered, not by a mode of its own —
//!
//! * the collective lowering (`Off`, one-shot) uses broadcast, gather and
//!   scatter, whose binomial trees deadlock the moment a rank dies (like
//!   real MPI without fault tolerance);
//! * the point-to-point lowering (`Recover`, and every service-mode run)
//!   sweeps worker liveness while it waits, and a worker that returned
//!   its own error has left the run as surely as a killed one. Under
//!   `Recover` (dynamic
//!   schedule only) a dead worker's fragments are re-queued to survivors
//!   and the collection epoch restarts, producing byte-identical output;
//!   with [`checkpointing`](crate::runtime) enabled, only the victim's
//!   *unfinished* fragments are re-queued. Without it — `serve` with no
//!   `--recover` — the master fails fast with
//!   [`PioError::WorkerDied`] and aborts the survivors.
//!
//! **Why recovery is byte-identical.** Each epoch first completes
//! distribution, so the collected submissions always cover the full
//! fragment set; `merge_and_layout` is deterministic in the submissions'
//! *content* (not their placement — the invariance tests in `app` pin
//! this), so every epoch computes the same offsets and bytes; and output
//! flushes through the I/O plane rewrite records at those fixed offsets,
//! so records re-written after a restart are idempotent. The surviving
//! run therefore produces exactly the failure-free file.
//!
//! Stale messages from an aborted epoch are fenced with an 8-byte epoch
//! prefix on `SUBMIT_REQ`/`SUBMIT`/`ASSIGN`/`DONE` payloads; mismatching
//! epochs are discarded.

/// Fault-tolerance mode of a pioBLAST run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultMode {
    /// No recovery. A one-shot run uses the plain collective protocol (a
    /// rank death hangs the run, like real MPI without fault tolerance);
    /// a service-mode run, which is point-to-point, detects the death and
    /// fails fast with a typed [`PioError`].
    #[default]
    Off,
    /// Detect worker death and reassign the dead worker's fragments to
    /// survivors; the output is byte-identical to a failure-free run.
    /// Requires the dynamic schedule.
    Recover,
}

// Why a run could not complete: one vocabulary for both programs,
// defined beside `RankReport` in the shared substrate.
pub use mpiblast::PioError;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::FragmentSchedule;
    use crate::testutil::Job;
    use mpiblast::RankReport;
    use simcluster::{FaultPlan, SimDuration, SimTime};

    type FaultyOutputs = Vec<Option<Result<RankReport, PioError>>>;

    fn run_with_plan(
        nranks: usize,
        nfrags: usize,
        schedule: FragmentSchedule,
        fault: FaultMode,
        plan: FaultPlan,
    ) -> (Vec<u8>, FaultyOutputs, Vec<usize>) {
        run_with_plan_ckpt(nranks, nfrags, schedule, fault, false, plan)
    }

    fn run_with_plan_ckpt(
        nranks: usize,
        nfrags: usize,
        schedule: FragmentSchedule,
        fault: FaultMode,
        checkpoint: bool,
        plan: FaultPlan,
    ) -> (Vec<u8>, FaultyOutputs, Vec<usize>) {
        let job = Job {
            nranks,
            plan,
            ..Job::default()
        };
        let done = job.run(|cfg| {
            cfg.num_fragments = Some(nfrags);
            cfg.collective_output = false;
            cfg.schedule = schedule;
            cfg.fault = fault;
            cfg.checkpoint = checkpoint;
        });
        (done.report, done.outputs, done.killed)
    }

    fn reference_bytes() -> Vec<u8> {
        let (bytes, outputs, killed) = run_with_plan(
            4,
            9,
            FragmentSchedule::Dynamic,
            FaultMode::Off,
            FaultPlan::none(),
        );
        assert!(killed.is_empty());
        assert!(outputs.iter().all(|o| matches!(o, Some(Ok(_)))));
        bytes
    }

    #[test]
    fn fault_free_fault_modes_are_byte_identical() {
        let reference = reference_bytes();
        for (schedule, fault, checkpoint) in [
            (FragmentSchedule::Dynamic, FaultMode::Recover, false),
            (FragmentSchedule::Dynamic, FaultMode::Recover, true),
        ] {
            let (bytes, outputs, killed) =
                run_with_plan_ckpt(4, 9, schedule, fault, checkpoint, FaultPlan::none());
            assert!(killed.is_empty());
            assert!(outputs.iter().all(|o| matches!(o, Some(Ok(_)))));
            assert_eq!(bytes, reference, "{schedule:?}/{fault:?}/ckpt={checkpoint}");
        }
    }

    #[test]
    fn single_worker_death_recovers_byte_identically() {
        let reference = reference_bytes();
        // Kill at different protocol points: mid-distribution (after the
        // initial request + one grant ack), late distribution, and right
        // after posting the submission — with and without checkpointing.
        for checkpoint in [false, true] {
            for sends in [2u64, 4, 5] {
                let (bytes, outputs, killed) = run_with_plan_ckpt(
                    4,
                    9,
                    FragmentSchedule::Dynamic,
                    FaultMode::Recover,
                    checkpoint,
                    FaultPlan::none().kill_after_sends(2, sends),
                );
                assert_eq!(killed, vec![2], "kill after {sends} sends");
                assert_eq!(
                    bytes, reference,
                    "kill after {sends} sends, ckpt={checkpoint}"
                );
                assert!(matches!(outputs[0], Some(Ok(_))), "master survives");
                assert!(outputs[2].is_none(), "killed rank has no output");
            }
        }
    }

    #[test]
    fn three_worker_deaths_recover_byte_identically() {
        let reference = reference_bytes();
        for checkpoint in [false, true] {
            let plan = FaultPlan::none()
                .kill_after_sends(1, 2)
                .kill_after_sends(2, 4)
                .kill_after_sends(3, 6);
            let (bytes, outputs, killed) = run_with_plan_ckpt(
                5,
                12,
                FragmentSchedule::Dynamic,
                FaultMode::Recover,
                checkpoint,
                plan,
            );
            assert_eq!(killed, vec![1, 2, 3]);
            assert_eq!(bytes, reference, "ckpt={checkpoint}");
            assert!(matches!(outputs[0], Some(Ok(_))), "master survives");
            assert!(matches!(outputs[4], Some(Ok(_))), "last worker survives");
        }
    }

    #[test]
    fn master_death_surfaces_to_workers() {
        let (_, outputs, killed) = run_with_plan(
            4,
            9,
            FragmentSchedule::Dynamic,
            FaultMode::Recover,
            FaultPlan::none().kill_after_sends(0, 5),
        );
        assert_eq!(killed, vec![0]);
        assert!(outputs[0].is_none());
        for (w, out) in outputs.iter().enumerate().skip(1) {
            assert_eq!(*out, Some(Err(PioError::MasterDied)), "worker {w}");
        }
    }

    #[test]
    fn losing_every_worker_is_a_typed_error() {
        let (_, outputs, killed) = run_with_plan(
            2,
            3,
            FragmentSchedule::Dynamic,
            FaultMode::Recover,
            FaultPlan::none().kill_after_sends(1, 2),
        );
        assert_eq!(killed, vec![1]);
        assert_eq!(outputs[0], Some(Err(PioError::AllWorkersDied)));
    }

    #[test]
    fn checkpoint_blobs_are_cleaned_up_after_a_run() {
        let done = Job::default().run(|cfg| {
            cfg.num_fragments = Some(6);
            cfg.collective_output = false;
            cfg.schedule = FragmentSchedule::Dynamic;
            cfg.fault = FaultMode::Recover;
            cfg.checkpoint = true;
        });
        assert!(done.outputs.iter().all(|o| matches!(o, Some(Ok(_)))));
        let leftovers: Vec<String> = done.env.shared.peek_list("results.txt.ckpt.");
        assert!(
            leftovers.is_empty(),
            "stale checkpoint blobs: {leftovers:?}"
        );
    }

    #[test]
    fn a_grants_acknowledgement_waits_for_its_checkpoint() {
        // One fragment per worker, checkpoint puts posted. Worker 3 dies
        // right after acknowledging its fragment: the put was joined
        // before the acknowledgement left, so the master adopts the blob
        // and no fragment is searched twice or re-cut.
        let job = Job {
            nranks: 9,
            plan: FaultPlan::none().kill_after_sends(3, 2),
            traced: true,
            ..Job::default()
        };
        let done = job.run(|cfg| {
            cfg.num_fragments = Some(8);
            cfg.collective_output = false;
            cfg.schedule = FragmentSchedule::Dynamic;
            cfg.fault = FaultMode::Recover;
            cfg.checkpoint = true;
            cfg.io.io_async = true;
        });
        assert_eq!(done.killed, vec![3]);
        assert_eq!(done.report, reference_bytes());
        let trace = done.trace.expect("traced");
        let mut searched: Vec<u64> = trace
            .events
            .iter()
            .filter(|e| e.name == "search.fragment")
            .filter_map(|e| match e.args.iter().find(|(k, _)| *k == "fragment") {
                Some((_, tracelog::ArgVal::U64(f))) => Some(*f),
                _ => None,
            })
            .collect();
        searched.sort_unstable();
        assert_eq!(
            searched,
            (0..8).collect::<Vec<u64>>(),
            "each fragment searched once"
        );
    }

    #[test]
    fn checkpoint_blobs_of_pieces_are_cleaned_up_after_a_killed_run() {
        // One fragment per worker. Worker 3 dies midway through searching
        // its fragment (the fault-free run searches it from about 2 ms to
        // 25 ms of virtual time), so the fragment has no checkpoint: with
        // every fragment granted, it is re-cut into one piece per
        // survivor, and each piece is checkpointed under an id past the
        // eight.
        let at = SimTime::ZERO + SimDuration::from_millis(14);
        let job = Job {
            nranks: 9,
            plan: FaultPlan::none().kill_at(3, at),
            traced: true,
            ..Job::default()
        };
        let done = job.run(|cfg| {
            cfg.num_fragments = Some(8);
            cfg.collective_output = false;
            cfg.schedule = FragmentSchedule::Dynamic;
            cfg.fault = FaultMode::Recover;
            cfg.checkpoint = true;
            cfg.io.io_async = true;
        });
        assert_eq!(done.killed, vec![3]);
        assert_eq!(done.report, reference_bytes());
        let trace = done.trace.expect("traced");
        let pieces: Vec<u64> = trace
            .events
            .iter()
            .filter(|e| e.name == "search.fragment")
            .filter_map(|e| match e.args.iter().find(|(k, _)| *k == "fragment") {
                Some((_, tracelog::ArgVal::U64(f))) if *f >= 8 => Some(*f),
                _ => None,
            })
            .collect();
        assert_eq!(pieces.len(), 7, "one piece per survivor: {pieces:?}");
        let leftovers: Vec<String> = done.env.shared.peek_list("results.txt.ckpt.");
        assert!(
            leftovers.is_empty(),
            "stale checkpoint blobs: {leftovers:?}"
        );
    }
}
