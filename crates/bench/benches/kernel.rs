//! Kernel micro-benchmark: host cost and memory discipline of the
//! allocation-free search path.
//!
//! Reported into `BENCH_kernel.json` at the workspace root:
//! * `ns_per_residue` of the scratch kernel (best of N runs);
//! * allocator calls per subject;
//! * allocator calls on the steady-state no-retention path (must be 0
//!   per subject — the same invariant `tests/alloc.rs` locks in);
//! * as history, the last figures recorded for the seed kernel this one
//!   replaced (a verbatim copy lived here until its job — proving the
//!   1.37x once — was done).
//!
//! Asserts zero steady-state per-subject allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use blast_core::search::{BlastSearcher, PreparedQueries, SearchParams, SearchScratch, VecSource};
use blast_core::seq::SeqRecord;
use blast_core::stats::DbStats;
use seqfmt::sampler::sample_queries;
use seqfmt::synth::{generate, SynthConfig};

/// The last figures recorded for the seed kernel on this workload (fresh
/// `DiagState` per call, per-subject vectors, `BTreeMap` collection,
/// fresh DP buffers per gapped extension) and for the scratch kernel in
/// that same interleaved measurement, kept in the artifact as history
/// now that the seed kernel's code is gone.
const SEED_KERNEL_HISTORY: &str = "{\"ns_per_residue\": 352.360, \"allocs_per_subject\": 9.408, \
     \"scratch_ns_per_residue\": 257.758, \"speedup\": 1.367}";

// ---------------------------------------------------------------------
// Counting allocator: the bench is single-threaded, so a relaxed global
// counter of alloc/realloc calls measures exactly the kernel under test.
// ---------------------------------------------------------------------

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let residues = env_u64("KERNEL_BENCH_RESIDUES", 300_000);
    let query_bytes = env_u64("KERNEL_BENCH_QUERY_BYTES", 1536);
    let samples = env_u64("KERNEL_BENCH_SAMPLES", 5) as usize;

    // An nr-like protein workload: family-structured redundancy so gapped
    // extensions and multi-HSP subjects dominate, ~250-residue average
    // subjects so per-subject costs amortize realistically.
    // Same redundancy profile as the repo's standard nr-like bench
    // workload (`blast_bench::workload`): large families, 20% mutation.
    let mut synth = SynthConfig::nr_like(2005, residues);
    synth.family_size_mean = 120.0;
    synth.mutation_rate = 0.2;
    let records = generate(&synth);
    let queries = sample_queries(&records, query_bytes, 2005 ^ 0x5eed);
    let db = DbStats {
        num_sequences: records.len() as u64,
        total_residues: records.iter().map(|r| r.len() as u64).sum(),
    };
    let mut params = SearchParams::blastp();
    params.max_hsps_per_subject = 4;
    let prepared = PreparedQueries::prepare(&params, queries, db);
    let source = VecSource::from_records(&records);

    let kernel = BlastSearcher::new(&params, &prepared);
    let mut scratch = SearchScratch::new();
    let warm = kernel.search(&source, &mut scratch);
    let avg_subject = db.total_residues as f64 / db.num_sequences as f64;
    println!(
        "== Kernel bench: {} subjects ({:.0} avg residues), {} queries, {} samples ==",
        db.num_sequences,
        avg_subject,
        prepared.len(),
        samples
    );
    println!("workload: {:?}", warm.stats);

    // Best sample of N: interference only ever adds time.
    let mut ns_per_residue = f64::INFINITY;
    let mut allocs_per_subject = 0.0;
    for _ in 0..samples {
        let before = alloc_calls();
        let start = Instant::now();
        let stats = kernel.search(&source, &mut scratch).stats;
        let elapsed = start.elapsed();
        let allocs = alloc_calls() - before;
        ns_per_residue = ns_per_residue.min(elapsed.as_nanos() as f64 / stats.residues as f64);
        allocs_per_subject = allocs as f64 / stats.subjects as f64;
    }

    // Steady-state discipline: unrelated queries under a stringent cutoff
    // still drive seeding and extension, but retain nothing — the warmed
    // scratch path must not allocate at all (at most the one per-call
    // output vector, i.e. zero per subject).
    let mut strict = params.clone();
    strict.expect = 1e-6;
    let mut state = 0x5eed_2005_u64;
    let noise_queries: Vec<SeqRecord> = (0..4)
        .map(|i| SeqRecord {
            defline: format!("noise{i}"),
            residues: (0..120)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) % 20) as u8
                })
                .collect(),
            molecule: blast_core::Molecule::Protein,
        })
        .collect();
    let strict_prepared = PreparedQueries::prepare(&strict, noise_queries, db);
    let strict_kernel = BlastSearcher::new(&strict, &strict_prepared);
    let mut strict_scratch = SearchScratch::new();
    strict_kernel.search(&source, &mut strict_scratch); // warmup
    let before = alloc_calls();
    let steady = strict_kernel.search(&source, &mut strict_scratch);
    let steady_allocs = alloc_calls() - before;
    assert!(
        steady.per_query.iter().all(|h| h.is_empty()),
        "strict cutoff must reject every hit"
    );

    println!(
        "scratch kernel: {ns_per_residue:.2} ns/residue, {allocs_per_subject:.3} allocs/subject; \
         steady-state no-retention pass: {steady_allocs} allocator calls over {} subjects",
        steady.stats.subjects
    );

    let mut json = String::from("{\n  \"bench\": \"kernel\",\n");
    let _ = write!(
        json,
        "  \"subjects\": {},\n  \"avg_subject_residues\": {:.1},\n  \"queries\": {},\n",
        db.num_sequences,
        avg_subject,
        prepared.len()
    );
    let _ = write!(
        json,
        "  \"scratch\": {{\"ns_per_residue\": {ns_per_residue:.3}, \
         \"allocs_per_subject\": {allocs_per_subject:.3}}},\n"
    );
    let _ = write!(
        json,
        "  \"steady_state_allocs\": {steady_allocs},\n  \
         \"seed_kernel_history\": {SEED_KERNEL_HISTORY}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernel.json");
    std::fs::write(path, &json).expect("write BENCH_kernel.json");
    println!("wrote {path}");

    assert!(
        steady_allocs <= 1,
        "steady-state per-subject path must be allocation-free, got {steady_allocs} calls"
    );
}
