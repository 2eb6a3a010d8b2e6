//! The collective output write must not cost every rank a copy of every
//! rank's file view. Two-phase I/O exchanges all views (gather, then
//! broadcast), and each rank used to decode the whole bundle into a list
//! of views it kept for the rest of the write: P copies of P views, the
//! O(P²) that ROMIO avoids by having an aggregator look only at requests
//! in its own file domain. Now every rank validates the bundle and keeps
//! the one shared buffer; only an aggregator reads other ranks' regions,
//! and only those reaching into its domain.
//!
//! A counting `#[global_allocator]` tracks live heap bytes and their
//! peak, as in `tests/memory_scaling.rs` (fiber stacks left out). One
//! pioBLAST job with collective output (`PioBlastConfig::new`: static
//! schedule, two-phase report write) runs over the shared test database
//! at 16 and at 128 ranks, and the test bounds the growth of the job's
//! peak live heap per added rank. Its 32 queries are searched with
//! `expect = 1000`, so each hits most of the database: the exchanged
//! bundle then holds about 3 600 regions (58 KB), and the views outweigh
//! what else a rank holds per query.
//!
//! Measured on an x86-64 Linux host (release build): with every rank
//! holding every rank's decoded view, the slope was 60 698 B per added
//! rank; with the bundle read in place it is 16 578 B. The bound, 32 KiB,
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

/// Allocations this large are fiber stacks, not live data.
const STACK_SIZED: usize = 1 << 20;

/// Bound on peak live heap growth per added rank.
const MAX_BYTES_PER_RANK: usize = 32 << 10;

/// Queries in the job.
const QUERIES: usize = 32;

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

/// Peak live heap of one collective-output job at `nranks` ranks, above
/// what was live before it started (the staged database, the queries,
/// the config).
fn job_peak(nranks: usize) -> usize {
    let db = small_db(21);
    let queries = sample_queries(&db, QUERIES);
    let sim = Sim::new(nranks);
    let mut cfg = staged(&sim, &Platform::altix(), &db, &queries);
    // Weak hits count too: many records per query, so many regions.
    cfg.params.expect = 1e3;
    assert!(
        cfg.collective_output,
        "the paper design writes collectively"
    );
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
fn collective_output_heap_per_added_rank_holds_no_copy_of_every_view() {
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
         does every rank keep a decoded copy of every rank's file view?"
    );
}
