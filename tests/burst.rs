//! Property tests for the burst-buffer staging tier (`--burst-buffer`).
//!
//! Staging changes *where* output and checkpoint bytes sit between an
//! epoch and its fence — absorbed into the node's staging volume,
//! striped across backing files, drained asynchronously — but must
//! never change *what* the merged report contains. The properties here
//! sweep staging capacity from zero (every put backpressures and the
//! plane degrades to direct writes) through bounded (bursty grant
//! traffic hits `StagingFull` mid-run) to effectively unbounded, and
//! compose that with `--io-async`, intra-rank compute
//! slots (`--threads`), query batching, and `FaultMode::Recover`
//! worker kills. Every combination must reproduce the unstaged
//! reference bytes.

mod common;

use std::sync::OnceLock;

use blast_core::search::SearchParams;
use common::{run_frags, run_opts, Opts};
use mpiblast::{Platform, ReportOptions};
use pioblast::{BurstOptions, FaultMode, FragmentSchedule, PioBlastConfig};
use proptest::prelude::*;
use simcluster::FaultPlan;

/// The staging tests' cluster: the blade profile, whose NFS is slow
/// relative to its staging devices.
fn blade(nranks: usize, plan: FaultPlan) -> Opts {
    Opts {
        nranks,
        platform: Platform::blade_cluster(),
        plan,
        ..Opts::default()
    }
}

/// The checkpointless Recover shape the kill tests run under.
fn recover(cfg: &mut PioBlastConfig) {
    cfg.collective_output = false;
    cfg.schedule = FragmentSchedule::Dynamic;
    cfg.fault = FaultMode::Recover;
}

fn reference_bytes() -> &'static [u8] {
    static REF: OnceLock<Vec<u8>> = OnceLock::new();
    REF.get_or_init(|| {
        let (bytes, killed) = run_frags(blade(4, FaultPlan::none()), 9, |_| {});
        assert!(killed.is_empty());
        assert!(!bytes.is_empty(), "reference run produced no output");
        bytes
    })
}

/// The capacity ladder the properties sweep: zero (every put refused —
/// full degradation to direct writes), one stripe unit (bursty epochs
/// hit `StagingFull` mid-run and individual puts degrade), a few
/// units, and the unbounded default.
fn capacity_pick(i: usize) -> u64 {
    [0, 64 * 1024, 256 * 1024, BurstOptions::default().capacity][i]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Bounded staging under bursty grant traffic degrades gracefully:
    /// whatever mix of absorbed and refused puts a capacity bound
    /// produces — across the async plane, intra-rank compute slots,
    /// and batched epochs — the merged report is
    /// byte-identical to the unstaged run's.
    #[test]
    fn bounded_staging_degrades_byte_identically(
        nranks in 3usize..=5,
        nfrags in 4usize..=10,
        capacity_i in 0usize..4,
        flags in 0u32..8,
        batch_pick in 0usize..=2,
        threads in 1usize..=2,
    ) {
        let (io_async, dynamic, collective_output) =
            (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
        let (bytes, killed) = run_frags(blade(nranks, FaultPlan::none()), nfrags, |cfg| {
            cfg.io.burst = Some(BurstOptions {
                capacity: capacity_pick(capacity_i),
                ..Default::default()
            });
            cfg.io.io_async = io_async;
            cfg.collective_output = collective_output;
            if dynamic {
                cfg.schedule = FragmentSchedule::Dynamic;
            }
            cfg.query_batch = if batch_pick == 0 { None } else { Some(batch_pick) };
            cfg.threads = threads;
        });
        prop_assert!(killed.is_empty());
        prop_assert_eq!(
            &bytes[..],
            reference_bytes(),
            "nranks={} nfrags={} cap={} async={} dyn={} co={} batch={} threads={}",
            nranks, nfrags, capacity_pick(capacity_i),
            io_async, dynamic, collective_output, batch_pick, threads
        );
    }

    /// A worker killed with staged-but-undrained data — checkpoint
    /// blobs absorbed into its staging volume, output runs in flight —
    /// must not corrupt recovery: the staged data is node-local and
    /// dies with the rank, the fence-before-ack contract means nothing
    /// acked was lost, and `FaultMode::Recover` reproduces the
    /// fault-free unstaged bytes.
    #[test]
    fn kill_with_staged_data_recovers_byte_identically(
        nranks in 3usize..=5,
        nfrags in 4usize..=10,
        victim_seed in 0usize..64,
        kill_after in 1u64..=8,
        capacity_i in 0usize..4,
        checkpoint in any::<bool>(),
        io_async in any::<bool>(),
        batch_pick in 0usize..=2,
    ) {
        let victim = 1 + victim_seed % (nranks - 1);
        let plan = FaultPlan::none().kill_after_sends(victim, kill_after);
        let (bytes, killed) = run_frags(blade(nranks, plan), nfrags, |cfg| {
            recover(cfg);
            cfg.io.burst = Some(BurstOptions {
                capacity: capacity_pick(capacity_i),
                ..Default::default()
            });
            cfg.io.io_async = io_async;
            cfg.checkpoint = checkpoint;
            cfg.query_batch = if batch_pick == 0 { None } else { Some(batch_pick) };
        });
        prop_assert!(killed.is_empty() || killed == vec![victim]);
        prop_assert_eq!(
            &bytes[..],
            reference_bytes(),
            "nranks={} nfrags={} victim={} kill_after={} cap={} ckpt={} async={} batch={} killed={:?}",
            nranks, nfrags, victim, kill_after, capacity_pick(capacity_i),
            checkpoint, io_async, batch_pick, killed
        );
    }
}

/// Kills that re-cut a leftover fragment over seven survivors and ship
/// checkpointed records to them, on staged output: bounded and unbounded
/// staging, with and without `--io-async`, checkpoints and query
/// batching. Staged pieces and shipped orphans are fenced before their
/// acks like any output, so every report is the unstaged reference, and
/// the matrix does both.
#[test]
fn staged_kills_that_split_and_ship_recover_byte_identically() {
    let (mut splits, mut shipped) = (0, 0);
    for capacity in [64 * 1024, BurstOptions::default().capacity] {
        for io_async in [false, true] {
            for checkpoint in [false, true] {
                for kill_after in [2u64, 3] {
                    let plan = FaultPlan::none().kill_after_sends(3, kill_after);
                    let opts = Opts {
                        traced: true,
                        ..blade(9, plan)
                    };
                    let done = run_opts(opts, |cfg| {
                        recover(cfg);
                        cfg.num_fragments = Some(16);
                        cfg.io.burst = Some(BurstOptions {
                            capacity,
                            ..Default::default()
                        });
                        cfg.io.io_async = io_async;
                        cfg.checkpoint = checkpoint;
                        cfg.query_batch = io_async.then_some(2);
                    });
                    let what = format!(
                        "cap={capacity} async={io_async} ckpt={checkpoint} \
                         kill_after={kill_after} killed={:?}",
                        done.killed
                    );
                    assert!(done.killed.is_empty() || done.killed == vec![3], "{what}");
                    assert_eq!(&done.report[..], reference_bytes(), "{what}");
                    let (s, o) = common::splits_and_shipments(&done.trace.expect("traced"));
                    splits += s;
                    shipped += o;
                }
            }
        }
    }
    assert!(
        splits > 0 && shipped > 0,
        "{splits} splits, {shipped} shipments"
    );
}

/// Zero capacity refuses every put: the run completes entirely on the
/// direct-write path and still matches the reference — the degradation
/// contract in its pure form.
#[test]
fn zero_capacity_degrades_to_direct_writes() {
    let (bytes, killed) = run_frags(blade(4, FaultPlan::none()), 9, |cfg| {
        cfg.io.burst = Some(BurstOptions {
            capacity: 0,
            ..Default::default()
        });
        cfg.query_batch = Some(2);
    });
    assert!(killed.is_empty());
    assert_eq!(&bytes[..], reference_bytes());
}

/// Unbounded staging on the checkpointing Recover path: every
/// checkpoint put is absorbed and fenced before its ack, so a
/// mid-stream kill adopts exactly the checkpoints the master was told
/// about.
#[test]
fn staged_checkpoints_survive_kill() {
    let plan = FaultPlan::none().kill_after_sends(2, 4);
    let (bytes, killed) = run_frags(blade(4, plan), 9, |cfg| {
        recover(cfg);
        cfg.io.burst = Some(BurstOptions::default());
        cfg.checkpoint = true;
        cfg.query_batch = Some(2);
    });
    assert!(killed.is_empty() || killed == vec![2]);
    assert_eq!(&bytes[..], reference_bytes());
}

/// A split-collective report write whose staging fails on *one*
/// aggregator must stay aligned: the shared file system fills up just
/// short of the second batch's last byte, so exactly the last
/// aggregator's batch-1 drain fails — and `StagingStore::put` reports a
/// completed drain's failure at the *next* put, inside batch 2's
/// `write_at_all_begin`. That rank must come out of the collective with
/// a typed output error while the others, whose stages succeeded, leave
/// the closing barrier and finish; the engine must never see a
/// deadlock. (Batch 2 is the last, so nobody waits on the failed rank
/// afterwards.)
#[test]
fn staging_failure_inside_a_split_collective_is_typed_not_a_deadlock() {
    use mpiblast::report::serial_report;
    use pioblast::PioError;

    let db = common::small_db(Opts::default().db_seed);
    let queries = common::sample_queries(&db, 3);
    // The report is the queries' sections back to back, so batches 0
    // and 1 (one query each) end where a two-query report ends.
    let two_batches = serial_report(
        &SearchParams::blastp(),
        queries[..2].to_vec(),
        &db,
        ReportOptions::default(),
    )
    .expect("serial oracle")
    .len() as u64;
    // `run_opts` panics on an engine deadlock: a staging failure must
    // not strand the other ranks in the barrier.
    let done = run_opts(blade(4, FaultPlan::none()), |cfg| {
        let shared = &cfg.env.shared;
        shared.set_capacity(common::stored_bytes(shared) + two_batches - 1);
        cfg.num_fragments = Some(9);
        cfg.query_batch = Some(1);
        cfg.io.io_async = true;
        cfg.io.burst = Some(BurstOptions::default());
    });
    let results: Vec<_> = done.outputs.into_iter().flatten().collect();
    assert_eq!(results.len(), 4, "nobody was killed");
    let failed = results
        .iter()
        .filter(|r| matches!(r, Err(PioError::Output(parafs::StoreError::NoSpace { .. }))))
        .count();
    let clean = results.iter().filter(|r| r.is_ok()).count();
    assert!(
        failed >= 1,
        "the last aggregator must report NoSpace: {results:?}"
    );
    assert!(
        clean >= 1,
        "ranks that staged cleanly must finish: {results:?}"
    );
    assert_eq!(failed + clean, 4, "only typed output errors: {results:?}");
}
