//! Host memory must not grow with the simulated rank count beyond what
//! a rank itself is: its fiber, its mailbox, its fragment and its result
//! buffers. Kernel working memory — the diagonal table, the gapped and
//! banded DP rows — belongs to the engine thread, which runs one rank at
//! a time, so it is paid once per job, not once per rank.
//!
//! A counting `#[global_allocator]` tracks live heap bytes and their
//! peak. One pioBLAST job over the shared test database runs at 16 and
//! at 128 ranks, and the test bounds the growth of the job's peak live
//! heap per added rank. Fiber stacks (2 MiB each) are left out: they are
//! reserved from the allocator but committed a page at a time, so their
//! requested size says nothing about resident memory.
//!
//! Measured on an x86-64 Linux host (release build): with one kernel
//! scratch and one traceback buffer set per rank, as before this test
//! existed, the slope was 37 945 B (37.1 KiB) per added rank; with one
//! scratch per engine thread it is 5 284 B (5.2 KiB). The bound, 16 KiB,
//! sits between the two.
//!
//! This binary holds a single test so no other test thread allocates
//! while it measures.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use common::{sample_queries, small_db, staged};
use mpiblast::Platform;
use simcluster::Sim;

/// Allocations this large are fiber stacks, not live data (see above).
const STACK_SIZED: usize = 1 << 20;

/// Bound on peak live heap growth per added rank.
const MAX_BYTES_PER_RANK: usize = 16 << 10;

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn counted(size: usize) -> bool {
    size < STACK_SIZED
}

fn grow(size: usize) {
    if counted(size) {
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrink(size: usize) {
    if counted(size) {
        LIVE.fetch_sub(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns what `System` returned; the counters beside it are atomics that
// never touch the memory handed out.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Peak live heap of one job at `nranks` ranks, above what was live
/// before it started (the staged database, the queries, the config).
fn job_peak(nranks: usize) -> usize {
    let db = small_db(21);
    let queries = sample_queries(&db, 3);
    let sim = Sim::new(nranks);
    let cfg = staged(&sim, &Platform::altix(), &db, &queries);
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = sim.run(|ctx| pioblast::run_rank(&ctx, &cfg));
    let peak = PEAK.load(Ordering::Relaxed);
    assert!(
        out.outputs.iter().all(|r| r.is_ok()),
        "the job must succeed at {nranks} ranks"
    );
    peak - before
}

#[test]
fn peak_heap_per_added_rank_excludes_kernel_working_memory() {
    let (small, large) = (16, 128);
    let at_small = job_peak(small);
    let at_large = job_peak(large);
    let per_rank = at_large.saturating_sub(at_small) / (large - small);
    println!(
        "peak live heap: {at_small} B at {small} ranks, {at_large} B at {large} ranks, \
         {per_rank} B per added rank"
    );
    assert!(
        per_rank <= MAX_BYTES_PER_RANK,
        "peak live heap grows {per_rank} B per added rank (bound {MAX_BYTES_PER_RANK} B): \
         does some rank keep kernel working memory between compute calls?"
    );
}
