//! Proof that the kernel's steady-state per-subject path is allocation-free.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after one
//! warmup pass grows every scratch buffer to its high-water mark, scanning
//! more subjects through the same [`SearchScratch`] must not allocate at
//! all — the per-call cost is one constant allocation (the per-query
//! result vector), independent of how many subjects are scanned.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use blast_core::alphabet::Molecule;
use blast_core::search::{BlastSearcher, PreparedQueries, SearchParams, SearchScratch, VecSource};
use blast_core::seq::SeqRecord;
use blast_core::stats::DbStats;

/// Counts alloc/realloc calls on the current thread. The counter is a
/// const-initialized thread-local so reading it never allocates or takes
/// a lock; other harness threads don't perturb the measurement.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// Deterministic pseudo-random protein residues: enough neighborhood-word
/// seed hits to drive ungapped (and occasional gapped) extensions, but no
/// alignment strong enough to pass a stringent E-value cutoff.
fn noise(seed: usize, len: usize) -> Vec<u8> {
    let mut state = (seed as u64) * 2 + 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 20) as u8
        })
        .collect()
}

#[test]
fn steady_state_subject_scan_is_allocation_free() {
    // Stringent cutoff: seeds fire and extensions run, but nothing is
    // retained, so the only allocation a search call may make is the
    // per-query output vector itself.
    let mut params = SearchParams::blastp();
    params.expect = 1e-6;

    let subjects: Vec<SeqRecord> = (0..16)
        .map(|i| SeqRecord {
            defline: format!("s{i}"),
            residues: noise(i, 60 + (i % 7) * 11),
            molecule: Molecule::Protein,
        })
        .collect();
    let db = DbStats {
        num_sequences: subjects.len() as u64,
        total_residues: subjects.iter().map(|r| r.len() as u64).sum(),
    };
    let queries = vec![SeqRecord {
        defline: "q".into(),
        residues: noise(97, 80),
        molecule: Molecule::Protein,
    }];
    let prepared = PreparedQueries::prepare(&params, queries, db);
    let searcher = BlastSearcher::new(&params, &prepared);

    let small = VecSource::from_records(&subjects);
    let tripled: Vec<SeqRecord> = (0..3).flat_map(|_| subjects.iter().cloned()).collect();
    let large = VecSource::from_records(&tripled);

    let mut scratch = SearchScratch::new();

    // Warmup: grow every buffer to its high-water mark.
    let warm = searcher.search(&large, &mut scratch);
    assert!(warm.stats.seed_hits > 0, "workload must exercise seeding");
    assert!(
        warm.stats.ungapped_extensions > 0,
        "workload must exercise extension"
    );
    assert_eq!(warm.per_query[0].len(), 0, "cutoff must reject everything");

    let before_small = allocs();
    let r_small = searcher.search(&small, &mut scratch);
    let cost_small = allocs() - before_small;

    let before_large = allocs();
    let r_large = searcher.search(&large, &mut scratch);
    let cost_large = allocs() - before_large;

    // Keep results alive across the measurement so their drops (frees,
    // not allocations) cannot be reordered into the window.
    assert_eq!(r_small.stats.subjects, 16);
    assert_eq!(r_large.stats.subjects, 48);

    // Per-subject path: zero allocations. Tripling the subjects scanned
    // must not change the per-call cost at all.
    assert_eq!(
        cost_small, cost_large,
        "allocation count must be independent of subjects scanned"
    );
    // Per-call constant: just the per-query output vector.
    assert!(
        cost_small <= 1,
        "expected at most the per-query result vector, got {cost_small} allocations"
    );
}

#[test]
fn growing_subjects_allocate_only_at_the_high_water_mark() {
    // The buffers a subject's length sizes — the scan's word buffer and
    // the diagonal table — grow only when a subject is longer than every
    // one before it; a subject no longer than that, and every subject of
    // a second pass, costs only the per-call result vector.
    let mut params = SearchParams::blastp();
    params.expect = 1e-6;
    let lengths = [40, 40, 80, 60, 160, 120, 320, 320, 200, 640, 30];
    let subjects: Vec<SeqRecord> = lengths
        .iter()
        .enumerate()
        .map(|(i, &len)| SeqRecord {
            defline: format!("s{i}"),
            residues: noise(i, len),
            molecule: Molecule::Protein,
        })
        .collect();
    let db = DbStats {
        num_sequences: subjects.len() as u64,
        total_residues: subjects.iter().map(|r| r.len() as u64).sum(),
    };
    let queries = vec![SeqRecord {
        defline: "q".into(),
        residues: noise(97, 80),
        molecule: Molecule::Protein,
    }];
    let prepared = PreparedQueries::prepare(&params, queries, db);
    let searcher = BlastSearcher::new(&params, &prepared);
    let sources: Vec<VecSource> = subjects
        .iter()
        .map(|s| VecSource::from_records(std::slice::from_ref(s)))
        .collect();

    // Warm everything a subject's length does not size, on a subject
    // shorter than all of them.
    let mut scratch = SearchScratch::new();
    let tiny = VecSource::from_records(&[SeqRecord {
        defline: "t".into(),
        residues: noise(99, 10),
        molecule: Molecule::Protein,
    }]);
    searcher.search(&tiny, &mut scratch);
    let cost_of = |source: &VecSource, scratch: &mut SearchScratch| {
        let before = allocs();
        let result = searcher.search(source, scratch);
        let cost = allocs() - before;
        assert_eq!(result.stats.subjects, 1);
        cost
    };
    let base = cost_of(&tiny, &mut scratch);
    assert!(base <= 1, "the per-query result vector, got {base}");

    let mut longest = 0;
    for (source, &len) in sources.iter().zip(&lengths) {
        let cost = cost_of(source, &mut scratch);
        if len > longest {
            assert!(cost <= base + 2, "len {len}: {cost} allocations");
            longest = len;
        } else {
            assert_eq!(cost, base, "len {len} is within the high-water mark");
        }
    }
    for (source, &len) in sources.iter().zip(&lengths) {
        assert_eq!(
            cost_of(source, &mut scratch),
            base,
            "steady state, len {len}"
        );
    }
}

#[test]
fn sharded_scan_with_per_slot_scratches_stays_allocation_free() {
    // The intra-rank threaded path: each slot scans its subject range
    // through its *own* scratch (no aliasing between slots), then the
    // shards merge deterministically through slot 0's scratch. After
    // warmup, the whole shard-and-merge cycle must cost a constant
    // number of allocations — independent of how many subjects each
    // shard scans — and must reproduce the serial kernel's results.
    let mut params = SearchParams::blastp();
    params.expect = 1e-6;

    let subjects: Vec<SeqRecord> = (0..16)
        .map(|i| SeqRecord {
            defline: format!("s{i}"),
            residues: noise(i, 60 + (i % 7) * 11),
            molecule: Molecule::Protein,
        })
        .collect();
    let db = DbStats {
        num_sequences: subjects.len() as u64,
        total_residues: subjects.iter().map(|r| r.len() as u64).sum(),
    };
    let queries = vec![SeqRecord {
        defline: "q".into(),
        residues: noise(97, 80),
        molecule: Molecule::Protein,
    }];
    let prepared = PreparedQueries::prepare(&params, queries, db);
    let searcher = BlastSearcher::new(&params, &prepared);

    let small = VecSource::from_records(&subjects);
    let tripled: Vec<SeqRecord> = (0..3).flat_map(|_| subjects.iter().cloned()).collect();
    let large = VecSource::from_records(&tripled);

    const NSHARDS: usize = 4;
    let mut scratches: Vec<SearchScratch> = (0..NSHARDS).map(|_| SearchScratch::new()).collect();

    fn cycle(
        searcher: &BlastSearcher,
        source: &VecSource,
        n: usize,
        scratches: &mut [SearchScratch],
    ) -> blast_core::search::FragmentResult {
        let per = n.div_ceil(NSHARDS);
        let parts: Vec<_> = (0..NSHARDS)
            .map(|i| {
                let lo = (i * per).min(n);
                let hi = ((i + 1) * per).min(n);
                searcher.search_subject_range(source, lo..hi, &mut scratches[i])
            })
            .collect();
        let (head, tail) = scratches.split_first_mut().unwrap();
        let _ = tail;
        searcher.merge_sharded(parts, head)
    }

    // Warmup: grow every slot's buffers to their high-water marks.
    let warm = cycle(&searcher, &large, tripled.len(), &mut scratches);
    assert!(warm.stats.seed_hits > 0, "workload must exercise seeding");

    let before_small = allocs();
    let r_small = cycle(&searcher, &small, subjects.len(), &mut scratches);
    let cost_small = allocs() - before_small;

    let before_large = allocs();
    let r_large = cycle(&searcher, &large, tripled.len(), &mut scratches);
    let cost_large = allocs() - before_large;

    assert_eq!(r_small.stats.subjects, 16);
    assert_eq!(r_large.stats.subjects, 48);

    // Per-subject path across all slots: zero allocations. Tripling the
    // subjects per shard must not change the cycle's constant cost (the
    // shard-result vector and the per-shard/merged output vectors).
    assert_eq!(
        cost_small, cost_large,
        "sharded allocation count must be independent of subjects scanned"
    );
    assert!(
        cost_small <= 2 + 2 * NSHARDS as u64,
        "expected only the shard/result vectors, got {cost_small} allocations"
    );

    // Aliasing check: per-slot scratches and the merge reproduce the
    // serial kernel exactly.
    let mut serial = SearchScratch::new();
    let reference = searcher.search(&small, &mut serial);
    assert_eq!(r_small.per_query, reference.per_query);
    assert_eq!(r_small.stats, reference.stats);
}

#[test]
fn retained_hits_allocate_only_per_hit_output() {
    // With hits retained, the steady state allocates only the output the
    // caller keeps: repeating the identical search through a warmed
    // scratch costs the identical number of allocations every time.
    let params = SearchParams::blastp();
    let family: Vec<u8> = noise(5, 70);
    let subjects: Vec<SeqRecord> = (0..8)
        .map(|i| {
            let residues = if i % 2 == 0 {
                family.iter().map(|&c| (c + (i as u8 % 3)) % 20).collect()
            } else {
                noise(i + 40, 66)
            };
            SeqRecord {
                defline: format!("s{i}"),
                residues,
                molecule: Molecule::Protein,
            }
        })
        .collect();
    let db = DbStats {
        num_sequences: subjects.len() as u64,
        total_residues: subjects.iter().map(|r| r.len() as u64).sum(),
    };
    let queries = vec![SeqRecord {
        defline: "q".into(),
        residues: family,
        molecule: Molecule::Protein,
    }];
    let prepared = PreparedQueries::prepare(&params, queries, db);
    let searcher = BlastSearcher::new(&params, &prepared);
    let source = VecSource::from_records(&subjects);

    let mut scratch = SearchScratch::new();
    let warm = searcher.search(&source, &mut scratch);
    assert!(!warm.per_query[0].is_empty(), "workload must retain hits");

    let before_a = allocs();
    let ra = searcher.search(&source, &mut scratch);
    let cost_a = allocs() - before_a;

    let before_b = allocs();
    let rb = searcher.search(&source, &mut scratch);
    let cost_b = allocs() - before_b;

    assert_eq!(ra.per_query, rb.per_query);
    assert_eq!(
        cost_a, cost_b,
        "steady-state allocation cost must be exactly reproducible"
    );
}
