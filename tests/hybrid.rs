//! Property tests for intra-rank compute slots (`--threads`): the
//! sharded subject scan plus deterministic merge must be byte-identical
//! to the serial kernel for every slot count, every fragment shape, and
//! under `FaultMode::Recover` worker kills — with and without the
//! nonblocking I/O plane's fragment read-ahead, which the slot fork
//! composes with inside the worker ingest loop.
//!
//! Slot parallelism changes *virtual time* (the DES charges the max
//! slot load instead of the serial sum), so kill triggers land at
//! different protocol points than in the serial runs — which is the
//! point: recovery must re-shard re-granted fragments and still merge
//! into the exact reference bytes.

mod common;

use std::sync::OnceLock;

use common::{run_frags, Opts};
use pioblast::{FaultMode, FragmentSchedule};
use proptest::prelude::*;
use simcluster::FaultPlan;

fn run_hybrid(
    nranks: usize,
    nfrags: usize,
    threads: usize,
    io_async: bool,
    plan: FaultPlan,
) -> (Vec<u8>, Vec<usize>) {
    let opts = Opts {
        nranks,
        db_seed: 33,
        plan,
        ..Opts::default()
    };
    run_frags(opts, nfrags, |cfg| {
        cfg.collective_output = false;
        cfg.schedule = FragmentSchedule::Dynamic;
        cfg.fault = FaultMode::Recover;
        cfg.threads = threads;
        cfg.io.io_async = io_async;
    })
}

fn reference_bytes() -> &'static [u8] {
    static REF: OnceLock<Vec<u8>> = OnceLock::new();
    REF.get_or_init(|| {
        let (bytes, killed) = run_hybrid(4, 9, 1, false, FaultPlan::none());
        assert!(killed.is_empty());
        assert!(!bytes.is_empty(), "reference run produced no output");
        bytes
    })
}

/// Cheap deterministic guard independent of the proptest machinery: a
/// fault-free sweep over slot counts (including oversharded ones far
/// past the subject-per-fragment count) must reproduce the serial bytes.
#[test]
fn slot_sweep_is_byte_identical_without_faults() {
    for threads in [2, 3, 4, 8, 16] {
        for io_async in [false, true] {
            let (bytes, killed) = run_hybrid(4, 9, threads, io_async, FaultPlan::none());
            assert!(killed.is_empty());
            assert_eq!(
                &bytes[..],
                reference_bytes(),
                "threads={threads} io_async={io_async} diverged from serial"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full matrix: shard counts x fragment shapes x recovery kills
    /// x the async I/O plane. Whatever the virtual-time interleaving,
    /// the merged report must be the serial fault-free bytes.
    #[test]
    fn sharded_scan_recovers_byte_identically(
        nranks in 3usize..=5,
        nfrags in 4usize..=10,
        threads in 1usize..=6,
        io_async in any::<bool>(),
        victim_seed in 0usize..64,
        kill_after in 1u64..=8,
    ) {
        let victim = 1 + victim_seed % (nranks - 1);
        let plan = FaultPlan::none().kill_after_sends(victim, kill_after);
        let (bytes, killed) = run_hybrid(nranks, nfrags, threads, io_async, plan);
        // The trigger may never fire (the victim finishes before its
        // kill_after-th send); either way the bytes must match.
        prop_assert!(killed.is_empty() || killed == vec![victim]);
        prop_assert_eq!(
            &bytes[..],
            reference_bytes(),
            "nranks={} nfrags={} threads={} io_async={} victim={} kill_after={} killed={:?}",
            nranks, nfrags, threads, io_async, victim, kill_after, killed
        );
    }
}
