//! Property and degradation tests for the nonblocking I/O plane
//! (`--io-async`).
//!
//! The async plane changes *when* bytes move — a fragment's three file
//! reads are in flight together, checkpoint and output writes fire and
//! collect at epoch fences — but must never change *what* lands in the
//! report. The properties here drive arbitrary interleavings of
//! begin/wait orderings (schedules, access classes, batching, skewed rank
//! speeds, worker kills with operations in flight) and pin the output
//! to the synchronous plane's bytes.
//!
//! The degradation tests cover the purged panic paths: malformed setup
//! files (alias, query FASTA, volume index) and a full file system must
//! surface as typed errors on every rank — no panic, no deadlock.

mod common;

use std::sync::OnceLock;

use common::{run_frags, run_opts, Opts};
use mpiblast::Platform;
use pioblast::{FaultMode, FragmentSchedule, InputError, PioError};
use proptest::prelude::*;
use simcluster::FaultPlan;

fn reference_bytes() -> &'static [u8] {
    static REF: OnceLock<Vec<u8>> = OnceLock::new();
    REF.get_or_init(|| {
        let (bytes, killed) = run_frags(Opts::default(), 9, |_| {});
        assert!(killed.is_empty());
        assert!(!bytes.is_empty(), "reference run produced no output");
        bytes
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any interleaving of begin/wait orderings the async plane can
    /// produce — every access class (the `flags` bits draw every
    /// context the plane resolves one from), both platforms, static and
    /// dynamic schedules, batched epochs (handles fired during a batch's
    /// searches are collected at its fence), skewed per-rank compute
    /// speeds to shuffle which rank's operations are in flight when —
    /// yields bytes identical to the synchronous plane's.
    #[test]
    fn async_interleavings_are_byte_identical_to_sync(
        nranks in 3usize..=5,
        nfrags in 4usize..=10,
        flags in 0u32..16,
        batch_pick in 0usize..=2,
        skew in prop::collection::vec(0.5f64..2.0, 5),
    ) {
        let (blade, dynamic) = (flags & 1 != 0, flags & 2 != 0);
        let (collective_input, collective_output) = (flags & 4 != 0, flags & 8 != 0);
        let query_batch = if batch_pick == 0 { None } else { Some(batch_pick) };
        let opts = Opts {
            nranks,
            platform: if blade { Platform::blade_cluster() } else { Platform::altix() },
            ..Opts::default()
        };
        let (bytes, killed) = run_frags(opts, nfrags, |cfg| {
            cfg.io.io_async = true;
            cfg.collective_input = collective_input;
            cfg.collective_output = collective_output;
            if dynamic {
                cfg.schedule = FragmentSchedule::Dynamic;
            }
            cfg.query_batch = query_batch;
            cfg.rank_compute = Some(skew[..nranks].to_vec());
        });
        prop_assert!(killed.is_empty());
        prop_assert_eq!(
            &bytes[..],
            reference_bytes(),
            "nranks={} nfrags={} blade={} dynamic={} ci={} co={} batch={:?}",
            nranks, nfrags, blade, dynamic,
            collective_input, collective_output, query_batch
        );
    }

    /// A worker killed with asynchronous operations in flight —
    /// posted fragment reads, fire-and-collect checkpoint blobs that may
    /// straddle the kill point — must not corrupt recovery:
    /// `FaultMode::Recover` still produces the fault-free bytes. The
    /// dead rank's in-flight writes are discarded, so a half-written
    /// checkpoint decodes as garbage and the fragment is re-queued,
    /// exactly like the synchronous plane's partial write.
    #[test]
    fn kill_with_async_ops_in_flight_recovers_byte_identically(
        nranks in 3usize..=5,
        nfrags in 4usize..=10,
        victim_seed in 0usize..64,
        kill_after in 1u64..=8,
        checkpoint in any::<bool>(),
        batch_pick in 0usize..=2,
    ) {
        let victim = 1 + victim_seed % (nranks - 1);
        let query_batch = if batch_pick == 0 { None } else { Some(batch_pick) };
        let opts = Opts {
            nranks,
            plan: FaultPlan::none().kill_after_sends(victim, kill_after),
            ..Opts::default()
        };
        let (bytes, killed) = run_frags(opts, nfrags, |cfg| {
            cfg.io.io_async = true;
            cfg.collective_output = false;
            cfg.schedule = FragmentSchedule::Dynamic;
            cfg.fault = FaultMode::Recover;
            cfg.checkpoint = checkpoint;
            cfg.query_batch = query_batch;
        });
        prop_assert!(killed.is_empty() || killed == vec![victim]);
        prop_assert_eq!(
            &bytes[..],
            reference_bytes(),
            "nranks={} nfrags={} victim={} kill_after={} ckpt={} batch={:?} killed={:?}",
            nranks, nfrags, victim, kill_after, checkpoint, query_batch, killed
        );
    }
}

// ---------------------------------------------------------------------
// Degradation: the purged panic paths
// ---------------------------------------------------------------------

/// Run with a post-staging corruption applied to the shared store; every
/// rank must return an error (typed, no panic, no deadlock), under the
/// collective lowering (`Off`) and the point-to-point one (`Recover`).
/// The closure may also redirect the alias path (the missing-file case).
fn run_corrupted(
    fault: FaultMode,
    corrupt: impl Fn(&parafs::SimFs, &mut String),
) -> Vec<Result<mpiblast::RankReport, PioError>> {
    let opts = Opts {
        nranks: 3,
        n_queries: 2,
        ..Opts::default()
    };
    let done = run_opts(opts, |cfg| {
        corrupt(&cfg.env.shared, &mut cfg.db_alias);
        if fault == FaultMode::Recover {
            cfg.schedule = FragmentSchedule::Dynamic;
        }
        cfg.fault = fault;
    });
    done.outputs.into_iter().flatten().collect()
}

fn assert_master_input_error(outputs: &[Result<mpiblast::RankReport, PioError>]) {
    match &outputs[0] {
        Err(PioError::Input(InputError::Malformed(_) | InputError::Store(_))) => {}
        other => panic!("master should fail with a typed input error, got {other:?}"),
    }
    for (rank, r) in outputs.iter().enumerate().skip(1) {
        assert!(r.is_err(), "worker {rank} should error, got {r:?}");
    }
}

#[test]
fn malformed_alias_degrades_without_abort() {
    for fault in [FaultMode::Off, FaultMode::Recover] {
        let outputs = run_corrupted(fault, |fs, alias| {
            fs.preload(alias, b"this is not an alias file".to_vec());
        });
        assert_master_input_error(&outputs);
    }
}

#[test]
fn missing_alias_degrades_without_abort() {
    let outputs = run_corrupted(FaultMode::Off, |_, alias| {
        *alias = "no-such-db.al".into();
    });
    assert_master_input_error(&outputs);
}

#[test]
fn malformed_query_fasta_degrades_without_abort() {
    for fault in [FaultMode::Off, FaultMode::Recover] {
        let outputs = run_corrupted(fault, |fs, _| {
            // Protein residues outside the alphabet fail the parse.
            fs.preload("queries.fa", b">q1\n@@##!!\n".to_vec());
        });
        assert_master_input_error(&outputs);
    }
}

#[test]
fn malformed_volume_index_degrades_without_abort() {
    let vol = &common::small_db(Opts::default().db_seed).volumes[0];
    let path = format!("db/{}.idx", vol.name);
    // Garbage, and a valid index with one flipped byte: byte 4 of the
    // offset count, which then claims 2^36 table entries (an allocator
    // abort before the count was bounded by the bytes that follow it).
    let mut flipped = vol.idx.clone();
    flipped[vol.index.seq_table_start() as usize - 4] = 0x10;
    for idx in [vec![0xAB; 17], flipped] {
        for fault in [FaultMode::Off, FaultMode::Recover] {
            let outputs = run_corrupted(fault, |fs, _| fs.preload(&path, idx.clone()));
            assert_master_input_error(&outputs);
        }
    }
}

#[test]
fn full_file_system_degrades_output_to_typed_errors() {
    for io_async in [false, true] {
        let opts = Opts {
            nranks: 3,
            n_queries: 2,
            ..Opts::default()
        };
        let done = run_opts(opts, |cfg| {
            // Nothing written past this point fits: every report write
            // must surface `StoreError::NoSpace` as `PioError::Output`.
            cfg.env.shared.set_capacity(0);
            cfg.io.io_async = io_async;
        });
        let outputs: Vec<_> = done.outputs.into_iter().flatten().collect();
        let writers = outputs
            .iter()
            .filter(|r| matches!(r, Err(PioError::Output(parafs::StoreError::NoSpace { .. }))))
            .count();
        assert!(
            writers > 0,
            "io_async={io_async}: at least one rank must report NoSpace, got {outputs:?}"
        );
        for (rank, r) in outputs.iter().enumerate() {
            assert!(
                r.is_err(),
                "io_async={io_async}: rank {rank} should degrade to an error, got {r:?}"
            );
        }
    }
}

/// Kills that re-cut a leftover fragment over the survivors and ship
/// checkpointed records to them, on the nonblocking plane: the pieces'
/// reads are posted like any grant's, and their checkpoint puts and the
/// shipped records' writes are joined at the epoch fences. With and
/// without checkpoints and query batching, every report is the
/// synchronous reference, and the matrix does both.
#[test]
fn async_kills_that_split_and_ship_recover_byte_identically() {
    let (mut splits, mut shipped) = (0, 0);
    for checkpoint in [false, true] {
        for query_batch in [None, Some(1)] {
            for kill_after in [2u64, 3, 4] {
                let opts = Opts {
                    nranks: 9,
                    plan: FaultPlan::none().kill_after_sends(3, kill_after),
                    traced: true,
                    ..Opts::default()
                };
                let done = run_opts(opts, |cfg| {
                    cfg.num_fragments = Some(16);
                    cfg.collective_output = false;
                    cfg.query_batch = query_batch;
                    cfg.schedule = FragmentSchedule::Dynamic;
                    cfg.fault = FaultMode::Recover;
                    cfg.checkpoint = checkpoint;
                    cfg.io.io_async = true;
                });
                let what = format!(
                    "ckpt={checkpoint} batch={query_batch:?} kill_after={kill_after} \
                     killed={:?}",
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
    assert!(
        splits > 0 && shipped > 0,
        "{splits} splits, {shipped} shipments"
    );
}

/// A checkpoint put that fails must degrade, not abort — and under
/// `--io-async` the failure crosses the plane boundary late: the put is
/// fired, parked in the plane and joined at the epoch fence. Either way
/// the worker logs `ckpt.skipped` and carries on, the master finds no
/// blob to adopt when that worker dies after submitting, requeues its
/// fragments, and the report is the reference's.
#[test]
fn a_failed_checkpoint_put_degrades_to_a_skip_and_a_requeue() {
    for io_async in [false, true] {
        let opts = Opts {
            plan: FaultPlan::none().kill_after_sends(2, 5),
            traced: true,
            ..Opts::default()
        };
        let done = run_opts(opts, |cfg| {
            cfg.num_fragments = Some(9);
            cfg.collective_output = false;
            cfg.schedule = FragmentSchedule::Dynamic;
            cfg.fault = FaultMode::Recover;
            cfg.checkpoint = true;
            cfg.io.io_async = io_async;
            // The report's bytes are allocated up front, so writing it
            // needs no growth, and nothing else is free: every blob
            // bounces off the full file system.
            let shared = &cfg.env.shared;
            shared.preload(common::OUTPUT, vec![0; reference_bytes().len()]);
            shared.set_capacity(common::stored_bytes(shared));
        });
        assert_eq!(done.killed, vec![2], "io_async={io_async}");
        assert_eq!(&done.report[..], reference_bytes(), "io_async={io_async}");
        for (rank, r) in done.outputs.iter().enumerate() {
            assert!(
                rank == 2 || matches!(r, Some(Ok(_))),
                "io_async={io_async} rank {rank}: {r:?}"
            );
        }
        let trace = done.trace.expect("traced");
        let count =
            |rank: usize, name: &str| trace.rank_events(rank).filter(|e| e.name == name).count();
        assert!(
            (1..4).all(|w| count(w, "ckpt.skipped") > 0),
            "io_async={io_async}"
        );
        assert!(
            count(0, "requeue") > 0,
            "io_async={io_async}: nothing to adopt"
        );
        if io_async {
            // The failures came back through the join, not the put.
            assert!(count(2, "plane.async.wait") > 0 && count(2, "plane.ckpt.put") == 0);
        }
    }
}
