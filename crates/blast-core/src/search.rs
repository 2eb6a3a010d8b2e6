//! The end-to-end BLAST search kernel.
//!
//! [`BlastSearcher`] runs the classic pipeline over one database partition:
//! scan each subject against a query-set lookup table, trigger two-hit
//! ungapped X-drop extensions, escalate good segments to gapped X-drop
//! extensions, cull redundant HSPs, score against the *global* search
//! space, and keep the best `hitlist_size` subjects per query.
//!
//! The kernel is partition-agnostic: it searches whatever
//! [`SubjectSource`] it is handed — a whole database, a physical fragment
//! file (mpiBLAST) or an in-memory virtual fragment (pioBLAST) — and its
//! statistics stay identical because [`crate::stats::SearchSpace`] is
//! always derived from whole-database statistics.

use std::cell::RefCell;
use std::sync::{Arc, Mutex, PoisonError, Weak};

use crate::alphabet::Molecule;
use crate::extend::{gapped_xdrop, ungapped_xdrop, ExtendScratch, GappedHit, UngappedHit};
use crate::filter::{mask_in_place, FilterParams};
use crate::hsp::{cull_contained_sorted, Hsp, RankKey};
use crate::karlin::{gapped_params, solve_ungapped, Background, GapPenalties, KarlinParams};
use crate::lookup::{Bucket, LookupTable, QuerySet};
use crate::matrix::ScoreMatrix;
use crate::seq::{SeqRecord, SubjectView};
use crate::stats::{DbStats, SearchSpace};

/// A source of database subjects for one search pass.
pub trait SubjectSource {
    /// Number of subjects in this partition.
    fn num_subjects(&self) -> usize;
    /// The `i`-th subject of this partition.
    fn subject(&self, i: usize) -> SubjectView<'_>;
}

/// Search configuration (the blastp defaults mirror NCBI's).
#[derive(Debug, Clone)]
pub struct SearchParams {
    /// Molecule searched.
    pub molecule: Molecule,
    /// Scoring matrix.
    pub matrix: ScoreMatrix,
    /// Affine gap penalties.
    pub gaps: GapPenalties,
    /// Seed word length (3 for blastp, 11 for blastn).
    pub word_len: usize,
    /// Word alphabet size (20 for protein, 4 for DNA).
    pub word_alphabet: usize,
    /// Neighborhood threshold `T` (word pairs scoring >= T seed).
    pub threshold: i32,
    /// Two-hit window `A` in residues; `0` selects single-hit seeding.
    pub two_hit_window: u32,
    /// Ungapped X-drop, in bits.
    pub xdrop_ungapped_bits: f64,
    /// Gapped X-drop, in bits.
    pub xdrop_gapped_bits: f64,
    /// Ungapped score (bits) that triggers a gapped extension.
    pub gap_trigger_bits: f64,
    /// E-value cutoff for reporting.
    pub expect: f64,
    /// Best subjects kept per query per partition.
    pub hitlist_size: usize,
    /// HSPs kept per (query, subject) pair.
    pub max_hsps_per_subject: usize,
    /// Whether to mask low-complexity query regions (`-F T`).
    pub filter_query: bool,
    /// Ungapped Karlin–Altschul parameters.
    pub ungapped: KarlinParams,
    /// Gapped Karlin–Altschul parameters.
    pub gapped: KarlinParams,
}

impl SearchParams {
    /// blastp defaults: BLOSUM62, gaps 11/1, word 3, T=11, two-hit A=40,
    /// X-drops 7/15 bits, gap trigger 22 bits, E=10, hitlist 500.
    // The embedded BLOSUM62 and its 11/1 gapped-table entry are constants
    // with valid statistics (`karlin`'s unit tests solve both).
    #[allow(clippy::expect_used)]
    pub fn blastp() -> SearchParams {
        let matrix = ScoreMatrix::blosum62();
        let ungapped = solve_ungapped(&matrix, &Background::protein())
            .expect("BLOSUM62 has valid ungapped statistics");
        let gaps = GapPenalties::BLOSUM62_DEFAULT;
        let gapped = gapped_params("BLOSUM62", gaps).expect("default gapped table entry");
        SearchParams {
            molecule: Molecule::Protein,
            matrix,
            gaps,
            word_len: 3,
            word_alphabet: 20,
            threshold: 11,
            two_hit_window: 40,
            xdrop_ungapped_bits: 7.0,
            xdrop_gapped_bits: 15.0,
            gap_trigger_bits: 22.0,
            expect: 10.0,
            hitlist_size: 500,
            max_hsps_per_subject: 25,
            filter_query: true,
            ungapped,
            gapped,
        }
    }

    /// blastn-like defaults: +1/−3, word 11 exact, single-hit seeding.
    // The +1/−3 matrix is a constant with valid statistics (`karlin`'s
    // unit tests solve it).
    #[allow(clippy::expect_used)]
    pub fn blastn() -> SearchParams {
        let matrix = ScoreMatrix::dna(1, -3);
        let ungapped = solve_ungapped(&matrix, &Background::dna()).expect("DNA matrix statistics");
        // blastn gapped statistics are well approximated by ungapped ones
        // for these small penalties (documented NCBI practice).
        let gapped = ungapped;
        let gaps = GapPenalties { open: 5, extend: 2 };
        SearchParams {
            molecule: Molecule::Dna,
            matrix,
            gaps,
            word_len: 11,
            word_alphabet: 4,
            threshold: 11, // exact match: full self-score of a +1 word
            two_hit_window: 0,
            xdrop_ungapped_bits: 20.0,
            xdrop_gapped_bits: 30.0,
            gap_trigger_bits: 22.0,
            expect: 10.0,
            hitlist_size: 500,
            max_hsps_per_subject: 25,
            filter_query: true,
            ungapped,
            gapped,
        }
    }

    /// Convert a bit quantity to raw score units via the ungapped lambda
    /// (how NCBI converts X-drop and trigger settings).
    fn bits_to_raw(&self, bits: f64) -> i32 {
        (bits * std::f64::consts::LN_2 / self.ungapped.lambda).round() as i32
    }
}

/// Queries prepared for searching: masked, concatenated, with the lookup
/// table and per-query global search spaces. Build once, search any number
/// of partitions.
pub struct PreparedQueries {
    /// Original (unmasked) query records, for output.
    pub records: Vec<SeqRecord>,
    set: QuerySet,
    lookup: LookupTable,
    /// Gapped search space per query (global statistics).
    pub spaces: Vec<SearchSpace>,
    /// Raw-score cutoff per query for the final E-value threshold.
    cutoffs: Vec<i32>,
}

/// Everything besides the records that shapes a [`PreparedQueries`]:
/// masking, the lookup table, the search spaces and the cutoffs. The
/// build reads its settings from here and nowhere else, which is what
/// lets [`PreparedQueries::prepare_shared`] use it as the memo key.
#[derive(Clone, PartialEq)]
struct PrepareInputs {
    molecule: Molecule,
    filter_query: bool,
    matrix: ScoreMatrix,
    word_len: usize,
    word_alphabet: usize,
    threshold: i32,
    gapped: KarlinParams,
    expect: f64,
    db: DbStats,
}

/// Live results of [`PreparedQueries::prepare_shared`], by content. The
/// entries are weak: the memo keeps nothing alive on its own.
static SHARED: Mutex<Vec<(PrepareInputs, Weak<PreparedQueries>)>> = Mutex::new(Vec::new());

impl PrepareInputs {
    fn of(params: &SearchParams, db: DbStats) -> PrepareInputs {
        PrepareInputs {
            molecule: params.molecule,
            filter_query: params.filter_query,
            matrix: params.matrix.clone(),
            word_len: params.word_len,
            word_alphabet: params.word_alphabet,
            threshold: params.threshold,
            gapped: params.gapped,
            expect: params.expect,
            db,
        }
    }

    fn prepare(&self, records: Vec<SeqRecord>) -> PreparedQueries {
        let masked: Vec<Vec<u8>> = records
            .iter()
            .map(|r| {
                let mut q = r.residues.clone();
                if self.filter_query {
                    mask_in_place(
                        &mut q,
                        self.molecule,
                        FilterParams::for_molecule(self.molecule),
                    );
                }
                q
            })
            .collect();
        let sentinel = (self.molecule.alphabet_size() - 1) as u8;
        let set = QuerySet::new(&masked, sentinel);
        let lookup = LookupTable::build(
            &set,
            &self.matrix,
            self.word_len,
            self.word_alphabet,
            self.threshold,
        );
        let spaces: Vec<SearchSpace> = records
            .iter()
            .map(|r| SearchSpace::new(self.gapped, r.len() as u64, self.db))
            .collect();
        let cutoffs = spaces
            .iter()
            .map(|sp| sp.cutoff_score(self.expect))
            .collect();
        PreparedQueries {
            records,
            set,
            lookup,
            spaces,
            cutoffs,
        }
    }
}

impl PreparedQueries {
    /// Prepare `records` for search against a database with global
    /// statistics `db`.
    pub fn prepare(params: &SearchParams, records: Vec<SeqRecord>, db: DbStats) -> PreparedQueries {
        PrepareInputs::of(params, db).prepare(records)
    }

    /// [`PreparedQueries::prepare`], built once per distinct input while
    /// any holder is alive: a call whose records, database statistics
    /// and preparation-shaping parameters all equal those of a result
    /// some caller in this process still holds gets that result back.
    /// The simulated ranks of one job prepare the same query set, so one
    /// lookup table serves them all; when the last holder drops its
    /// `Arc` the table is freed.
    pub fn prepare_shared(
        params: &SearchParams,
        records: &[SeqRecord],
        db: DbStats,
    ) -> Arc<PreparedQueries> {
        let inputs = PrepareInputs::of(params, db);
        // The memo holds only weak references: a holder that panicked left
        // nothing half-written worth refusing.
        let memo = || SHARED.lock().unwrap_or_else(PoisonError::into_inner);
        {
            let mut live = memo();
            live.retain(|(_, entry)| entry.strong_count() > 0);
            let hit = live
                .iter()
                .filter(|(key, _)| *key == inputs)
                .filter_map(|(_, entry)| entry.upgrade())
                .find(|prepared| prepared.records == records);
            if let Some(prepared) = hit {
                return prepared;
            }
        }
        // Built outside the lock: concurrent jobs do not wait on each
        // other, and a duplicate entry is harmless.
        let prepared = Arc::new(inputs.prepare(records.to_vec()));
        memo().push((inputs, Arc::downgrade(&prepared)));
        prepared
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total query residues.
    pub fn total_residues(&self) -> u64 {
        self.records.iter().map(|r| r.len() as u64).sum()
    }

    /// The concatenated, masked query set.
    pub fn set(&self) -> &QuerySet {
        &self.set
    }

    /// The neighborhood-word lookup table over the query set.
    pub fn lookup(&self) -> &LookupTable {
        &self.lookup
    }

    /// Raw-score reporting cutoff of query `idx`.
    pub fn cutoff(&self, idx: usize) -> i32 {
        self.cutoffs[idx]
    }
}

/// All hits of one query against one subject.
#[derive(Debug, Clone, PartialEq)]
pub struct SubjectHit {
    /// Global ordinal id of the subject.
    pub oid: u32,
    /// Subject length in residues (needed for output).
    pub subject_len: u32,
    /// HSPs in canonical order (best first).
    pub hsps: Vec<Hsp>,
}

impl SubjectHit {
    /// Best (first) HSP's score.
    pub fn best_score(&self) -> i32 {
        self.hsps.first().map_or(0, |h| h.score)
    }

    /// Best (first) HSP's E-value.
    pub fn best_evalue(&self) -> f64 {
        self.hsps.first().map_or(f64::INFINITY, |h| h.evalue)
    }
}

/// Results of searching one partition: per query, the retained subjects.
#[derive(Debug, Clone, Default)]
pub struct FragmentResult {
    /// `per_query[q]` lists hits of query `q`, best subject first.
    pub per_query: Vec<Vec<SubjectHit>>,
    /// Search-effort counters.
    pub stats: SearchStats,
}

/// Instrumentation counters for one search pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Subjects scanned.
    pub subjects: u64,
    /// Residues scanned.
    pub residues: u64,
    /// Raw lookup hits.
    pub seed_hits: u64,
    /// Ungapped extensions triggered (two-hit pairs).
    pub ungapped_extensions: u64,
    /// Gapped extensions performed.
    pub gapped_extensions: u64,
    /// HSPs surviving all filters.
    pub hsps_kept: u64,
}

impl SearchStats {
    /// Accumulate another pass's counters.
    pub fn merge(&mut self, other: &SearchStats) {
        self.subjects += other.subjects;
        self.residues += other.residues;
        self.seed_hits += other.seed_hits;
        self.ungapped_extensions += other.ungapped_extensions;
        self.gapped_extensions += other.gapped_extensions;
        self.hsps_kept += other.hsps_kept;
    }
}

/// The search kernel. Create once per (params, queries) pair; call
/// [`BlastSearcher::search`] once per partition, threading a reused
/// [`SearchScratch`] through every call.
pub struct BlastSearcher<'a> {
    params: &'a SearchParams,
    queries: &'a PreparedQueries,
    x_ungapped: i32,
    x_gapped: i32,
    gap_trigger: i32,
}

/// Reusable working memory for the search kernel's per-subject path.
///
/// The kernel's steady state — scan a subject, extend its seeds, collect
/// its HSPs — performs **zero heap allocations** when driven through one
/// `SearchScratch`: diagonal state is offset-biased rather than cleared,
/// the word buffer, candidate and HSP vectors are recycled at their
/// high-water marks, and the gapped-extension DP rows live in the embedded
/// [`ExtendScratch`]. Reuse never changes results (see the
/// `scratch_reuse_is_invisible` property test), so any caller may hand
/// the kernel any scratch.
///
/// Ownership follows the OS thread, not the caller: the runtime borrows
/// the calling thread's one scratch through [`SearchScratch::with_local`]
/// for the length of each compute call. The simulator runs every rank
/// of a job on one engine thread, one rank at a time, and no compute
/// call yields to another rank before it returns — so one scratch per
/// thread serves every simulated rank, and a rank holds no kernel
/// memory between calls.
#[derive(Default)]
pub struct SearchScratch {
    diag: DiagState,
    /// The scan's first pass: `(subject position, word)` of every window
    /// whose lookup bucket is non-empty, in subject order. Sized to the
    /// longest subject's window count, never more.
    words: Vec<(u32, u32)>,
    /// Gapped alignment envelopes found on the current subject.
    gapped_hits: Vec<(u32, GappedHit)>,
    /// Ungapped-only HSP candidates on the current subject.
    ungapped_keep: Vec<(u32, UngappedHit)>,
    /// Flat per-subject HSP accumulator, decorated with the (query,
    /// ranking) sort key so the sort never recomputes keys.
    keyed: Vec<((u32, RankKey), Hsp)>,
    /// One query's culled HSP run, reused across queries and subjects.
    run: Vec<Hsp>,
    /// Final ranking decoration: (best-HSP key, subject hit).
    ranked: Vec<(RankKey, SubjectHit)>,
    /// DP buffers for gapped X-drop extension.
    ext: ExtendScratch,
}

thread_local! {
    static LOCAL: RefCell<SearchScratch> = RefCell::new(SearchScratch::new());
}

impl SearchScratch {
    /// Fresh scratch; buffers grow to their high-water marks on use.
    pub fn new() -> SearchScratch {
        SearchScratch::default()
    }

    /// Run `f` with this thread's scratch, lent for the length of the
    /// call. A nested call — `f` itself asking for the thread's scratch —
    /// gets a fresh one instead of a panic; results are the same either
    /// way, only the inner call's buffers are not reused.
    ///
    /// `f` must not yield to other code that borrows the scratch (in the
    /// simulator: it must not block in virtual time). Every compute
    /// charge runs its closure to completion before it yields.
    pub fn with_local<T>(f: impl FnOnce(&mut SearchScratch) -> T) -> T {
        LOCAL.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => f(&mut scratch),
            Err(_) => f(&mut SearchScratch::new()),
        })
    }

    /// The embedded extension buffers, for traceback and formatting
    /// ([`crate::format::alignment_record_into`]).
    pub fn extend_scratch(&mut self) -> &mut ExtendScratch {
        &mut self.ext
    }
}

/// One diagonal's scan state: the last seed hit and the end of the last
/// ungapped extension, each stored as subject position + the table's
/// per-subject bias. Eight bytes, so a cache line holds eight diagonals
/// and the table stays out of the lookup backbone's way in L1.
#[derive(Clone, Copy, Default)]
struct DiagCell {
    last_hit: u32,
    last_ext_end: u32,
}

/// Per-diagonal scan state, offset-biased to avoid clearing between
/// subjects (NCBI's `diag_offset`).
///
/// Each subject's positions are stored as `pos + bias`, and each subject
/// starts its bias more than the two-hit window past every value an
/// earlier subject stored. A cell left from an older subject therefore
/// reads as a hit beyond the window and an extension ending before the
/// subject's first word — what a cell never touched reads as — with no
/// stamp to compare.
#[derive(Default)]
struct DiagState {
    cells: Vec<DiagCell>,
    /// Added to every position stored for the current subject.
    bias: u32,
    /// The largest value the current subject can store: `bias + s_len`.
    end: u32,
}

impl DiagState {
    /// Start a subject of `s_len` residues over `diagonals` cells.
    fn begin_subject(&mut self, diagonals: usize, s_len: u32, word_len: u32, window: u32) {
        if self.cells.len() < diagonals {
            self.cells.resize(diagonals, DiagCell::default());
        }
        // A stored hit at most `end` is then more than `window` and at
        // least `word_len` behind every new position, and a stored
        // extension end is below every new `pos + word_len`.
        let step = window.saturating_add(word_len).saturating_add(1);
        match self
            .end
            .checked_add(step)
            .filter(|bias| bias.checked_add(s_len).is_some())
        {
            Some(bias) => self.bias = bias,
            None => {
                // The bias would overflow: zeroed cells read as stale
                // against any bias of at least `step`.
                self.cells.fill(DiagCell::default());
                self.bias = step;
            }
        }
        self.end = self.bias.saturating_add(s_len);
    }

    /// Combined per-seed-hit update: a single cell load decides whether the
    /// hit is masked by an earlier ungapped extension on this diagonal,
    /// completes a two-hit pair (return `true` = extend), or merely arms
    /// the diagonal. Folding the extension-mask check and the two-hit
    /// bookkeeping into one call costs one bounds check and one cell load
    /// per seed hit instead of two, and seed hits outnumber every other
    /// kernel event by two orders of magnitude.
    ///
    /// NCBI's two-hit rule: a new hit pairs with the stored one when they
    /// do not overlap (`dist >= word_len`) and fall within the window `A`
    /// (`dist <= window`). An overlapping hit *keeps* the stored position
    /// (so a later hit can still pair with the original); a hit beyond the
    /// window replaces it. A hit masked by a previous extension leaves the
    /// stored pair state untouched.
    /// The body is written branch-free (selects over the loaded cell):
    /// the masked/overlap outcomes depend on just-loaded data and
    /// mispredict heavily in a branchy formulation, serialising the scan
    /// on the cell load latency. Only the loop-invariant `window == 0`
    /// test remains a branch. Both sides of every comparison carry the
    /// same bias, so within a subject it cancels; a stale cell is beyond
    /// the window and masks nothing (see [`DiagState`]).
    #[inline]
    fn admit_hit(&mut self, d: usize, new_pos: u32, word_len: u32, window: u32) -> bool {
        let pos = new_pos + self.bias;
        let cell = &mut self.cells[d];
        let masked = pos + word_len <= cell.last_ext_end;
        if window == 0 {
            // Single-hit seeding: every unmasked hit extends, and the
            // stored hit is never read.
            return !masked;
        }
        let dist = pos.wrapping_sub(cell.last_hit);
        let overlap = dist < word_len;
        // Two-hit pair: non-overlapping, within the window. Overlapping
        // hits keep the stored position (so a later hit can still pair
        // with the original); beyond-window hits restart the pair,
        // completed pairs reset it.
        let pair = !overlap & (dist <= window);
        let update = !masked & !overlap;
        cell.last_hit = if update { pos } else { cell.last_hit };
        !masked & pair
    }

    #[inline]
    fn set_extension_end(&mut self, d: usize, end: u32) {
        self.cells[d].last_ext_end = end + self.bias;
    }

    /// Pretend earlier subjects stored values up to `end`, so the bias
    /// overflow is reached within a few subjects.
    #[cfg(test)]
    fn skip_bias_to(&mut self, end: u32) {
        assert!(end >= self.end, "stored values must stay at most `end`");
        self.end = end;
    }
}

impl<'a> BlastSearcher<'a> {
    /// Bind the kernel to a parameter set and prepared queries.
    pub fn new(params: &'a SearchParams, queries: &'a PreparedQueries) -> BlastSearcher<'a> {
        BlastSearcher {
            params,
            queries,
            x_ungapped: params.bits_to_raw(params.xdrop_ungapped_bits),
            x_gapped: params.bits_to_raw(params.xdrop_gapped_bits),
            gap_trigger: params.bits_to_raw(params.gap_trigger_bits),
        }
    }

    /// Search one partition, returning per-query subject hits.
    ///
    /// `scratch` is caller-owned working memory: pass the same scratch to
    /// every call (across subjects, fragments, and runs) and the
    /// per-subject path stays allocation-free. Results are identical for
    /// a fresh and a reused scratch.
    pub fn search<S: SubjectSource + ?Sized>(
        &self,
        source: &S,
        scratch: &mut SearchScratch,
    ) -> FragmentResult {
        let mut result = self.search_subject_range(source, 0..source.num_subjects(), scratch);
        self.finalize(&mut result, scratch);
        result
    }

    /// Scan a contiguous subject range of one partition, returning
    /// *unranked* per-query hits (subject-scan order, no hitlist cut).
    ///
    /// This is the shardable half of [`BlastSearcher::search`]: disjoint
    /// ranges covering `0..num_subjects` can be scanned with any scratch
    /// (the runtime's compute slots take the thread's one in turn) and
    /// recombined with
    /// [`BlastSearcher::merge_sharded`] — the merged result is
    /// byte-identical to the serial search for every shard count, because
    /// ranking keys are computed per subject and each subject appears in
    /// exactly one shard.
    pub fn search_subject_range<S: SubjectSource + ?Sized>(
        &self,
        source: &S,
        range: std::ops::Range<usize>,
        scratch: &mut SearchScratch,
    ) -> FragmentResult {
        let mut result = FragmentResult {
            per_query: vec![Vec::new(); self.queries.len()],
            stats: SearchStats::default(),
        };
        let concat_len = self.queries.set.concat().len();
        for si in range {
            let subject = source.subject(si);
            self.search_subject(&subject, concat_len, scratch, &mut result);
        }
        result
    }

    /// Rank a scanned partition: keep only the best `hitlist_size`
    /// subjects per query, sorting on ranking keys computed once per
    /// subject instead of twice per comparison. Keys are distinct (each
    /// subject appears once per partition), so the unstable sort is
    /// deterministic.
    pub fn finalize(&self, result: &mut FragmentResult, scratch: &mut SearchScratch) {
        let ranked = &mut scratch.ranked;
        for hits in &mut result.per_query {
            ranked.clear();
            ranked.extend(hits.drain(..).map(|h| (h.hsps[0].rank_key(), h)));
            ranked.sort_unstable_by_key(|a| a.0);
            ranked.truncate(self.params.hitlist_size);
            hits.extend(ranked.drain(..).map(|(_, h)| h));
        }
    }

    /// Deterministically merge per-shard scan results (from
    /// [`BlastSearcher::search_subject_range`] over disjoint ranges of one
    /// partition) into the finalized whole-partition result.
    ///
    /// Per-query hit lists are concatenated in shard order, then ranked by
    /// [`BlastSearcher::finalize`]. Each subject belongs to exactly one
    /// shard, so every rank key appears once and the sort's output is
    /// independent of both shard count and shard boundaries — byte-
    /// identical to the serial kernel.
    pub fn merge_sharded(
        &self,
        shards: impl IntoIterator<Item = FragmentResult>,
        scratch: &mut SearchScratch,
    ) -> FragmentResult {
        let mut merged = FragmentResult {
            per_query: vec![Vec::new(); self.queries.len()],
            stats: SearchStats::default(),
        };
        for shard in shards {
            merged.stats.merge(&shard.stats);
            for (q, hits) in shard.per_query.into_iter().enumerate() {
                merged.per_query[q].extend(hits);
            }
        }
        self.finalize(&mut merged, scratch);
        merged
    }

    fn search_subject(
        &self,
        subject: &SubjectView<'_>,
        concat_len: usize,
        scratch: &mut SearchScratch,
        result: &mut FragmentResult,
    ) {
        let params = self.params;
        let w = params.word_len;
        result.stats.subjects += 1;
        result.stats.residues += subject.residues.len() as u64;
        if subject.residues.len() < w {
            return;
        }
        let s = subject.residues;
        let s_len = s.len();
        let (word_len, window) = (w as u32, params.two_hit_window);
        // Diagonal `qp + s_len - sp` lies below `concat_len + s_len`; the
        // one cell past them takes the padding slots' admissions.
        let spare = concat_len + s_len;
        scratch
            .diag
            .begin_subject(spare + 1, s_len as u32, word_len, window);
        scratch.gapped_hits.clear();
        scratch.ungapped_keep.clear();

        // Pass 1 finds the windows that have hits; pass 2 admits them in
        // subject order, extending as it goes — the one-pass order.
        let mut words = std::mem::take(&mut scratch.words);
        let found = self.nonempty_words(s, &mut words);
        let concat = self.queries.set.concat();
        let mut seed_hits = 0u64;
        for &(sp, word) in &words[..found] {
            match self.queries.lookup.bucket(word) {
                Bucket::Inline { len, slots } => {
                    // Exactly INLINE_HITS admissions, whatever `len`: a
                    // fixed trip count the branch predictor never misses.
                    seed_hits += len as u64;
                    for (i, &qp) in slots.iter().enumerate() {
                        let live = i < len;
                        let d = if live {
                            (qp as usize + s_len) - sp as usize
                        } else {
                            spare
                        };
                        if scratch.diag.admit_hit(d, sp, word_len, window) & live {
                            self.extend_seed(subject, concat, qp, sp, d, scratch, result);
                        }
                    }
                }
                Bucket::Spilled(positions) => {
                    seed_hits += positions.len() as u64;
                    for &qp in positions {
                        let d = (qp as usize + s_len) - sp as usize;
                        if scratch.diag.admit_hit(d, sp, word_len, window) {
                            self.extend_seed(subject, concat, qp, sp, d, scratch, result);
                        }
                    }
                }
            }
        }
        scratch.words = words;
        result.stats.seed_hits += seed_hits;

        self.collect_subject_hits(subject, scratch, result);
    }

    /// The scan's first pass: roll the word index over `s` and write
    /// `(word start, word)` for every window whose lookup bucket is
    /// non-empty to the front of `words`, in subject order; return how
    /// many. Every window is written, and the cursor advances past it
    /// only when its bucket has a hit — no branch on the bucket.
    fn nonempty_words(&self, s: &[u8], words: &mut Vec<(u32, u32)>) -> usize {
        let w = self.params.word_len;
        let alpha = self.params.word_alphabet as u32;
        let word_span = alpha.pow(w as u32 - 1);
        let lookup = &self.queries.lookup;
        let windows = s.len() + 1 - w;
        if words.len() < windows {
            words.reserve_exact(windows - words.len());
            words.resize(windows, (0, 0));
        }
        let mut found = 0;
        let mut idx = 0u32;
        let mut run = 0usize;
        for (sp_end, &c) in s.iter().enumerate() {
            if (c as u32) >= alpha {
                run = 0;
                idx = 0;
                continue;
            }
            // Drop the residue leaving a full window by subtraction: a
            // division here sits on the loop's only dependency chain.
            let out = if run >= w { s[sp_end - w] as u32 } else { 0 };
            idx = (idx - out * word_span) * alpha + c as u32;
            run += 1;
            if run < w {
                continue;
            }
            words[found] = ((sp_end + 1 - w) as u32, idx);
            found += (lookup.bucket_len(idx) != 0) as usize;
        }
        found
    }

    #[allow(clippy::too_many_arguments)]
    fn extend_seed(
        &self,
        subject: &SubjectView<'_>,
        concat: &[u8],
        qp: u32,
        sp: u32,
        d: usize,
        scratch: &mut SearchScratch,
        result: &mut FragmentResult,
    ) {
        let params = self.params;
        result.stats.ungapped_extensions += 1;
        let hit = ungapped_xdrop(
            &params.matrix,
            concat,
            subject.residues,
            qp,
            sp,
            params.word_len as u32,
            self.x_ungapped,
        );
        scratch.diag.set_extension_end(d, hit.s_end);

        // Identify which query this extension belongs to. Extensions cannot
        // cross sentinels (they score UNDEFINED against everything), but be
        // defensive: locate both ends.
        let Some((query_idx, _)) = self.queries.set.locate(hit.q_start) else {
            return;
        };
        let (q_lo, q_hi) = self.queries.set.range(query_idx);
        if hit.q_end > q_hi {
            return; // crossed a sentinel: discard (cannot happen with sane matrices)
        }
        let cutoff = self.queries.cutoffs[query_idx];

        if hit.score >= self.gap_trigger {
            // Gapped extension from the ungapped segment's midpoint, unless
            // that seed already lies inside a gapped hit for this query.
            let (seed_q, seed_s) = hit.seed_point();
            let covered = scratch.gapped_hits.iter().any(|(qi, g)| {
                *qi == query_idx as u32
                    && seed_q >= g.q_start + q_lo
                    && seed_q < g.q_end + q_lo
                    && seed_s >= g.s_start
                    && seed_s < g.s_end
            });
            if covered {
                return;
            }
            result.stats.gapped_extensions += 1;
            let query = &concat[q_lo as usize..q_hi as usize];
            let g = gapped_xdrop(
                &params.matrix,
                params.gaps,
                query,
                subject.residues,
                seed_q - q_lo,
                seed_s,
                self.x_gapped,
                &mut scratch.ext,
            );
            if g.score >= cutoff {
                scratch.gapped_hits.push((query_idx as u32, g));
            }
        } else if hit.score >= cutoff {
            // Strong enough ungapped-only HSP (rare with gapped cutoffs).
            let mut h = hit;
            h.q_start -= q_lo;
            h.q_end -= q_lo;
            scratch.ungapped_keep.push((query_idx as u32, h));
        }
    }

    /// Collect the subject's surviving HSPs into per-query subject hits.
    ///
    /// A flat sort-by-(query, rank) pass over the reused accumulator
    /// replaces the seed kernel's per-subject `BTreeMap<u32, Vec<Hsp>>`:
    /// one cache-friendly sort, then a walk over query runs, with the
    /// only allocation being each *retained* hit's output vector.
    fn collect_subject_hits(
        &self,
        subject: &SubjectView<'_>,
        scratch: &mut SearchScratch,
        result: &mut FragmentResult,
    ) {
        if scratch.gapped_hits.is_empty() && scratch.ungapped_keep.is_empty() {
            return;
        }
        let params = self.params;
        let SearchScratch {
            gapped_hits,
            ungapped_keep,
            keyed,
            run,
            ..
        } = scratch;
        keyed.clear();
        for &(qi, g) in gapped_hits.iter() {
            let sp = &self.queries.spaces[qi as usize];
            let h = Hsp {
                query_idx: qi,
                oid: subject.oid,
                q_start: g.q_start,
                q_end: g.q_end,
                s_start: g.s_start,
                s_end: g.s_end,
                score: g.score,
                bit_score: sp.bit_score(g.score),
                evalue: sp.evalue(g.score),
            };
            keyed.push(((qi, h.rank_key()), h));
        }
        for &(qi, u) in ungapped_keep.iter() {
            let sp = &self.queries.spaces[qi as usize];
            let h = Hsp {
                query_idx: qi,
                oid: subject.oid,
                q_start: u.q_start,
                q_end: u.q_end,
                s_start: u.s_start,
                s_end: u.s_end,
                score: u.score,
                bit_score: sp.bit_score(u.score),
                evalue: sp.evalue(u.score),
            };
            keyed.push(((qi, h.rank_key()), h));
        }
        // Queries ascending, canonical HSP order within each query. Equal
        // keys imply identical HSPs, so the unstable sort is deterministic.
        keyed.sort_unstable_by_key(|a| a.0);

        let mut i = 0;
        while i < keyed.len() {
            let qi = keyed[i].0 .0;
            run.clear();
            while i < keyed.len() && keyed[i].0 .0 == qi {
                run.push(keyed[i].1);
                i += 1;
            }
            let kept = cull_contained_sorted(run);
            run.truncate(kept);
            run.retain(|h| h.evalue <= params.expect);
            run.truncate(params.max_hsps_per_subject);
            if run.is_empty() {
                continue;
            }
            result.stats.hsps_kept += run.len() as u64;
            result.per_query[qi as usize].push(SubjectHit {
                oid: subject.oid,
                subject_len: subject.residues.len() as u32,
                hsps: run.clone(),
            });
        }
    }
}

/// A trivial in-memory [`SubjectSource`] over owned records, for tests and
/// small serial searches.
pub struct VecSource {
    subjects: Vec<(u32, Vec<u8>, Vec<u8>)>, // (oid, residues, defline)
}

impl VecSource {
    /// Build from records, assigning oids `0..n` in order.
    pub fn from_records(records: &[SeqRecord]) -> VecSource {
        VecSource {
            subjects: records
                .iter()
                .enumerate()
                .map(|(i, r)| (i as u32, r.residues.clone(), r.defline.clone().into_bytes()))
                .collect(),
        }
    }

    /// Build with explicit oids.
    pub fn with_oids(subjects: Vec<(u32, Vec<u8>, Vec<u8>)>) -> VecSource {
        VecSource { subjects }
    }
}

impl SubjectSource for VecSource {
    fn num_subjects(&self) -> usize {
        self.subjects.len()
    }

    fn subject(&self, i: usize) -> SubjectView<'_> {
        let (oid, residues, defline) = &self.subjects[i];
        SubjectView {
            oid: *oid,
            residues,
            defline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Molecule;
    use crate::fasta;

    fn db_records() -> Vec<SeqRecord> {
        // A tiny database: one family of similar sequences plus noise.
        let text = b">s0 family member A\n\
MKVLAAGHWRTEYFNDCQWHERTYPLKIHGFDSAEWCVNMMKVLAAGHWRTEYFNDCQ\n\
>s1 family member B\n\
MKVLAAGHWRTEYFNDCQWHERTYPLKIHGFDSAEWCVNMMKVLAAGHWRTEYANDCQ\n\
>s2 unrelated\n\
GGGGPPPPGGGGPPPPGGGGPPPPGGGGPPPPGGGGPPPP\n\
>s3 family member C distant\n\
MKVLAAGHWRTEYFNDCQAAERTYPLKIHGFDSAEWCVNM\n";
        fasta::parse(Molecule::Protein, text).unwrap()
    }

    fn stats_for(records: &[SeqRecord]) -> DbStats {
        DbStats {
            num_sequences: records.len() as u64,
            total_residues: records.iter().map(|r| r.len() as u64).sum(),
        }
    }

    fn search_with(query: &[u8]) -> FragmentResult {
        let params = SearchParams::blastp();
        let records = db_records();
        let db = stats_for(&records);
        let queries = vec![SeqRecord::from_ascii(Molecule::Protein, "q1", query).unwrap()];
        let prepared = PreparedQueries::prepare(&params, queries, db);
        let searcher = BlastSearcher::new(&params, &prepared);
        searcher.search(
            &VecSource::from_records(&records),
            &mut SearchScratch::new(),
        )
    }

    #[test]
    fn query_from_family_hits_family() {
        let result = search_with(b"MKVLAAGHWRTEYFNDCQWHERTYPLKIHGFDSAEWCVNM");
        let hits = &result.per_query[0];
        assert!(!hits.is_empty(), "expected hits, stats {:?}", result.stats);
        let oids: Vec<u32> = hits.iter().map(|h| h.oid).collect();
        assert!(oids.contains(&0), "oids {oids:?}");
        assert!(oids.contains(&1), "oids {oids:?}");
        // The unrelated low-complexity sequence must not appear.
        assert!(!oids.contains(&2), "oids {oids:?}");
        // Best hit first.
        assert!(hits[0].best_score() >= hits.last().unwrap().best_score());
    }

    #[test]
    fn unrelated_query_finds_nothing_significant() {
        // A diverse sequence absent from the database. With E <= 10 and a
        // tiny database, weak chance alignments may pass (as in real
        // BLAST), but nothing remotely significant can.
        let result = search_with(b"DEDEDKRKRHWYFWYHDEDKRKRHWYFWYHDKRHWYFWYH");
        for hit in &result.per_query[0] {
            assert!(
                hit.best_evalue() > 1e-4,
                "unexpected significant hit: {hit:?}"
            );
        }
    }

    #[test]
    fn evalues_within_cutoff() {
        let result = search_with(b"MKVLAAGHWRTEYFNDCQWHERTYPLKIHGFDSAEWCVNM");
        for hit in &result.per_query[0] {
            for h in &hit.hsps {
                assert!(h.evalue <= 10.0);
                assert!(h.score > 0);
                assert!(h.q_end > h.q_start);
                assert!(h.s_end > h.s_start);
            }
        }
    }

    #[test]
    fn search_is_deterministic() {
        let a = search_with(b"MKVLAAGHWRTEYFNDCQWHERTYPLKIHGFDSAEWCVNM");
        let b = search_with(b"MKVLAAGHWRTEYFNDCQWHERTYPLKIHGFDSAEWCVNM");
        assert_eq!(a.per_query[0], b.per_query[0]);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn partitioned_search_equals_whole_search() {
        // The core invariant behind database segmentation: searching two
        // disjoint partitions yields exactly the whole-database hit set.
        let params = SearchParams::blastp();
        let records = db_records();
        let db = stats_for(&records);
        let queries = vec![SeqRecord::from_ascii(
            Molecule::Protein,
            "q1",
            b"MKVLAAGHWRTEYFNDCQWHERTYPLKIHGFDSAEWCVNM",
        )
        .unwrap()];
        let prepared = PreparedQueries::prepare(&params, queries, db);
        let searcher = BlastSearcher::new(&params, &prepared);

        let whole = searcher.search(
            &VecSource::from_records(&records),
            &mut SearchScratch::new(),
        );

        let all: Vec<(u32, Vec<u8>, Vec<u8>)> = records
            .iter()
            .enumerate()
            .map(|(i, r)| (i as u32, r.residues.clone(), r.defline.clone().into_bytes()))
            .collect();
        let part_a = VecSource::with_oids(all[..2].to_vec());
        let part_b = VecSource::with_oids(all[2..].to_vec());
        let ra = searcher.search(&part_a, &mut SearchScratch::new());
        let rb = searcher.search(&part_b, &mut SearchScratch::new());

        let mut merged: Vec<SubjectHit> = ra.per_query[0]
            .iter()
            .chain(rb.per_query[0].iter())
            .cloned()
            .collect();
        merged.sort_by(|a, b| a.hsps[0].rank_key().cmp(&b.hsps[0].rank_key()));
        assert_eq!(merged, whole.per_query[0]);
    }

    #[test]
    fn sharded_scan_matches_serial_for_every_shard_count() {
        // The compute-slot invariant: shard the subject range across any
        // number of per-slot scratches, merge, and the result is
        // byte-identical to the serial kernel.
        let params = SearchParams::blastp();
        let records = db_records();
        let db = stats_for(&records);
        let queries = vec![SeqRecord::from_ascii(
            Molecule::Protein,
            "q1",
            b"MKVLAAGHWRTEYFNDCQWHERTYPLKIHGFDSAEWCVNM",
        )
        .unwrap()];
        let prepared = PreparedQueries::prepare(&params, queries, db);
        let searcher = BlastSearcher::new(&params, &prepared);
        let source = VecSource::from_records(&records);
        let serial = searcher.search(&source, &mut SearchScratch::new());

        let n = source.num_subjects();
        for shards in 1..=n + 2 {
            let mut scratches: Vec<SearchScratch> =
                (0..shards).map(|_| SearchScratch::new()).collect();
            let per = n.div_ceil(shards);
            let parts: Vec<FragmentResult> = (0..shards)
                .map(|k| {
                    let lo = (k * per).min(n);
                    let hi = ((k + 1) * per).min(n);
                    searcher.search_subject_range(&source, lo..hi, &mut scratches[k])
                })
                .collect();
            let merged = searcher.merge_sharded(parts, &mut scratches[0]);
            assert_eq!(merged.per_query, serial.per_query, "shards={shards}");
            assert_eq!(merged.stats, serial.stats, "shards={shards}");
        }
    }

    #[test]
    fn nested_local_scratch_gives_the_outer_results() {
        let params = SearchParams::blastp();
        let records = db_records();
        let queries = vec![SeqRecord::from_ascii(
            Molecule::Protein,
            "q1",
            b"MKVLAAGHWRTEYFNDCQWHERTYPLKIHGFDSAEWCVNM",
        )
        .unwrap()];
        let prepared = PreparedQueries::prepare(&params, queries, stats_for(&records));
        let searcher = BlastSearcher::new(&params, &prepared);
        let source = VecSource::from_records(&records);
        let (outer, inner) = SearchScratch::with_local(|outer| {
            // The thread's scratch is lent out: the nested call gets a
            // fresh one instead of a panic.
            let inner = SearchScratch::with_local(|inner| searcher.search(&source, inner));
            (searcher.search(&source, outer), inner)
        });
        assert!(!outer.per_query[0].is_empty());
        assert_eq!(outer.per_query, inner.per_query);
        assert_eq!(outer.stats, inner.stats);
        // The borrow ended with the call: the thread's scratch, now
        // dirty, is lent again and agrees too.
        let again = SearchScratch::with_local(|s| searcher.search(&source, s));
        assert_eq!(again.per_query, outer.per_query);
    }

    #[test]
    fn stats_count_work() {
        let result = search_with(b"MKVLAAGHWRTEYFNDCQWHERTYPLKIHGFDSAEWCVNM");
        assert_eq!(result.stats.subjects, 4);
        assert!(result.stats.seed_hits > 0);
        assert!(result.stats.ungapped_extensions > 0);
        assert!(result.stats.gapped_extensions > 0);
        assert!(result.stats.hsps_kept >= 2);
    }

    #[test]
    fn empty_query_set_is_fine() {
        let params = SearchParams::blastp();
        let records = db_records();
        let db = stats_for(&records);
        let prepared = PreparedQueries::prepare(&params, Vec::new(), db);
        let searcher = BlastSearcher::new(&params, &prepared);
        let result = searcher.search(
            &VecSource::from_records(&records),
            &mut SearchScratch::new(),
        );
        assert!(result.per_query.is_empty());
    }

    /// A query set no other test prepares, so parallel tests cannot keep
    /// its memo entry alive.
    fn memo_queries(tag: &str) -> Vec<SeqRecord> {
        let seq =
            format!("MKVLAAGHWRTEYFNDCQWHERTYPLKIHGFDSAEWCVNM{tag}AAAAAAAAAAAAAAAAAAAAAAAAAAAA");
        vec![SeqRecord::from_ascii(Molecule::Protein, tag, seq.as_bytes()).unwrap()]
    }

    #[test]
    fn shared_prepare_builds_once_per_distinct_input() {
        let params = SearchParams::blastp();
        let db = stats_for(&db_records());
        let queries = memo_queries("WWHH");
        let a = PreparedQueries::prepare_shared(&params, &queries, db);
        let b = PreparedQueries::prepare_shared(&params, &queries, db);
        assert!(Arc::ptr_eq(&a, &b), "equal inputs share one build");
        // And the shared build is the one `prepare` makes.
        let own = PreparedQueries::prepare(&params, queries.clone(), db);
        assert_eq!(a.records, own.records);
        assert_eq!(a.set.concat(), own.set.concat());
        assert_eq!(a.lookup.num_entries(), own.lookup.num_entries());
        assert_eq!(a.cutoffs, own.cutoffs);

        // Another query set, or another database, is another build.
        let other = PreparedQueries::prepare_shared(&params, &memo_queries("HHWW"), db);
        assert!(!Arc::ptr_eq(&a, &other));
        assert_ne!(a.records, other.records);
        let bigger = DbStats {
            total_residues: db.total_residues * 1000,
            ..db
        };
        let rescaled = PreparedQueries::prepare_shared(&params, &queries, bigger);
        assert!(!Arc::ptr_eq(&a, &rescaled));
        assert_ne!(a.spaces[0].space(), rescaled.spaces[0].space());
    }

    #[test]
    fn shared_prepare_never_aliases_across_search_params() {
        let db = stats_for(&db_records());
        let queries = memo_queries("YWYW");
        let base = SearchParams::blastp();
        let a = PreparedQueries::prepare_shared(&base, &queries, db);

        let strict = SearchParams {
            threshold: 13,
            ..base.clone()
        };
        let b = PreparedQueries::prepare_shared(&strict, &queries, db);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(a.lookup.num_entries() > b.lookup.num_entries());

        let unmasked = SearchParams {
            filter_query: false,
            ..base.clone()
        };
        let c = PreparedQueries::prepare_shared(&unmasked, &queries, db);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_ne!(a.set.concat(), c.set.concat(), "the poly-A tail is masked");

        let lenient = SearchParams {
            expect: 1e-3,
            ..base.clone()
        };
        let d = PreparedQueries::prepare_shared(&lenient, &queries, db);
        assert!(!Arc::ptr_eq(&a, &d));
        assert!(d.cutoffs[0] > a.cutoffs[0]);

        // A parameter `prepare` never reads does not split the memo.
        let same = SearchParams {
            hitlist_size: 7,
            ..base
        };
        let e = PreparedQueries::prepare_shared(&same, &queries, db);
        assert!(Arc::ptr_eq(&a, &e));
    }

    #[test]
    fn shared_prepare_holds_nothing_once_callers_let_go() {
        let params = SearchParams::blastp();
        let db = stats_for(&db_records());
        let queries = memo_queries("FYFY");
        let first = PreparedQueries::prepare_shared(&params, &queries, db);
        let second = PreparedQueries::prepare_shared(&params, &queries, db);
        let watch = Arc::downgrade(&first);
        drop(first);
        assert!(watch.upgrade().is_some(), "the other rank still holds it");
        drop(second);
        assert!(
            watch.upgrade().is_none(),
            "the memo keeps no strong reference"
        );
        // The next job builds afresh.
        let again = PreparedQueries::prepare_shared(&params, &queries, db);
        assert_eq!(Arc::strong_count(&again), 1);
    }

    #[test]
    fn short_subjects_are_skipped() {
        let params = SearchParams::blastp();
        let records = vec![SeqRecord::from_ascii(Molecule::Protein, "tiny", b"MK").unwrap()];
        let db = stats_for(&records);
        let queries =
            vec![SeqRecord::from_ascii(Molecule::Protein, "q", b"MKVLAAGHWRTEYFND").unwrap()];
        let prepared = PreparedQueries::prepare(&params, queries, db);
        let searcher = BlastSearcher::new(&params, &prepared);
        let result = searcher.search(
            &VecSource::from_records(&records),
            &mut SearchScratch::new(),
        );
        assert!(result.per_query[0].is_empty());
        assert_eq!(result.stats.subjects, 1);
    }

    #[test]
    fn hitlist_size_truncates() {
        let mut params = SearchParams::blastp();
        params.hitlist_size = 1;
        let records = db_records();
        let db = stats_for(&records);
        let queries = vec![SeqRecord::from_ascii(
            Molecule::Protein,
            "q1",
            b"MKVLAAGHWRTEYFNDCQWHERTYPLKIHGFDSAEWCVNM",
        )
        .unwrap()];
        let prepared = PreparedQueries::prepare(&params, queries, db);
        let searcher = BlastSearcher::new(&params, &prepared);
        let result = searcher.search(
            &VecSource::from_records(&records),
            &mut SearchScratch::new(),
        );
        assert_eq!(result.per_query[0].len(), 1);
    }

    #[test]
    fn word_buffer_is_sized_to_the_longest_subject() {
        let params = SearchParams::blastp();
        let subjects: Vec<SeqRecord> = [50usize, 200, 120]
            .iter()
            .map(|&len| SeqRecord {
                defline: format!("s{len}"),
                residues: (0..len).map(|i| (i * 7 % 20) as u8).collect(),
                molecule: Molecule::Protein,
            })
            .collect();
        let prepared = PreparedQueries::prepare(&params, db_records(), stats_for(&subjects));
        let searcher = BlastSearcher::new(&params, &prepared);
        let mut scratch = SearchScratch::new();
        searcher.search(&VecSource::from_records(&subjects), &mut scratch);
        assert!(scratch.words.capacity() <= 200, "8 B x the longest subject");
        assert_eq!(scratch.words.len(), 200 - params.word_len + 1);
    }

    /// The stamped 16-byte diagonal table the biased cell replaced.
    mod stamped {
        include!("../tests/reference/stamped_diag.rs");
    }

    use proptest::prelude::*;

    /// Diagonals per subject in [`traffic`]: few, so hits collide.
    const DIAGONALS: usize = 6;

    /// One subject's diagonal-table traffic: its length beyond the word,
    /// word length, two-hit window, and events — a seed hit (`false`) or
    /// an extension end (`true`) on a diagonal, at a position drawn from
    /// the seed.
    type Subject = (u32, u32, u32, Vec<(bool, usize, u32)>);

    fn traffic() -> impl Strategy<Value = Vec<Subject>> {
        let window = (0u32..60).prop_map(|w| w.saturating_sub(15));
        let event = ((0u8..4).prop_map(|k| k == 0), 0..DIAGONALS, any::<u32>());
        prop::collection::vec(
            (
                0u32..80,
                1u32..12,
                window,
                prop::collection::vec(event, 0..40),
            ),
            1..12,
        )
    }

    /// Replay `subjects` through the stamped and the biased table, the
    /// biased one first told that earlier subjects reached `start`;
    /// every admission must agree. Returns the biased table.
    fn replay(subjects: &[Subject], start: u32) -> Result<DiagState, TestCaseError> {
        let mut reference = stamped::DiagState::default();
        let mut biased = DiagState::default();
        biased.skip_bias_to(start);
        for (si, &(extra, word_len, window, ref events)) in subjects.iter().enumerate() {
            let s_len = word_len + extra;
            reference.begin_subject(DIAGONALS);
            biased.begin_subject(DIAGONALS, s_len, word_len, window);
            for (ei, &(extension, d, seed)) in events.iter().enumerate() {
                if extension {
                    let end = seed % (s_len + 1);
                    reference.set_extension_end(d, end);
                    biased.set_extension_end(d, end);
                } else {
                    let pos = seed % (extra + 1);
                    prop_assert_eq!(
                        biased.admit_hit(d, pos, word_len, window),
                        reference.admit_hit(d, pos, word_len, window),
                        "subject {}, event {}",
                        si,
                        ei
                    );
                }
            }
        }
        Ok(biased)
    }

    proptest! {
        /// The biased 8-byte cell admits exactly as the stamped 16-byte
        /// one did — pairs, overlaps, windows, masks, single-hit seeding
        /// and stale cells from any earlier subject — and so does a table
        /// whose bias overflows: the reset is invisible.
        #[test]
        fn biased_cells_admit_as_stamped_cells(
            subjects in traffic(),
            near_max in prop::option::of(0u32..600),
        ) {
            let start = near_max.map_or(0, |k| u32::MAX - k);
            let biased = replay(&subjects, start)?;
            let advance: u64 = subjects
                .iter()
                .map(|&(extra, w, window, _)| u64::from(window + 2 * w + 1 + extra))
                .sum();
            if u64::from(start) + advance > u64::from(u32::MAX) {
                prop_assert!(biased.end < start, "the bias reset");
            } else {
                prop_assert_eq!(u64::from(biased.end), u64::from(start) + advance);
            }
        }
    }
}
