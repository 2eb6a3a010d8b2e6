//! Neighborhood-word lookup tables.
//!
//! BLAST builds one lookup table over the *concatenated query set*: every
//! word position of every query is registered under all words scoring at
//! least the neighborhood threshold `T` against it, and each database
//! subject is then scanned once against that single table. This is what
//! makes multi-query batches cheap, and it is the structure the paper's
//! "query broadcasting" phase ships to every worker.

use crate::matrix::ScoreMatrix;

/// A set of queries concatenated into one coordinate space.
///
/// Queries are separated by a single gap-code sentinel so no word can span
/// two queries; diagonals and seed hits all live in concatenated
/// coordinates and are mapped back with [`QuerySet::locate`].
#[derive(Debug, Clone)]
pub struct QuerySet {
    concat: Vec<u8>,
    /// Per-query (start, end) ranges into `concat` (end exclusive).
    ranges: Vec<(u32, u32)>,
}

impl QuerySet {
    /// Concatenate encoded query sequences. The sentinel code must not be a
    /// real residue; callers use the alphabet's gap placeholder.
    pub fn new(queries: &[Vec<u8>], sentinel: u8) -> QuerySet {
        let total: usize = queries.iter().map(|q| q.len() + 1).sum();
        let mut concat = Vec::with_capacity(total);
        let mut ranges = Vec::with_capacity(queries.len());
        for q in queries {
            let start = concat.len() as u32;
            concat.extend_from_slice(q);
            ranges.push((start, concat.len() as u32));
            concat.push(sentinel);
        }
        QuerySet { concat, ranges }
    }

    /// Number of queries.
    #[inline]
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether there are no queries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The concatenated residue buffer (including sentinels).
    #[inline]
    pub fn concat(&self) -> &[u8] {
        &self.concat
    }

    /// The (start, end) range of query `idx` in concatenated coordinates.
    #[inline]
    pub fn range(&self, idx: usize) -> (u32, u32) {
        self.ranges[idx]
    }

    /// Residues of query `idx`.
    pub fn query(&self, idx: usize) -> &[u8] {
        let (s, e) = self.ranges[idx];
        &self.concat[s as usize..e as usize]
    }

    /// Length of query `idx` in residues.
    pub fn query_len(&self, idx: usize) -> usize {
        let (s, e) = self.ranges[idx];
        (e - s) as usize
    }

    /// Map a concatenated position to `(query_index, offset_within_query)`.
    ///
    /// Returns `None` for sentinel positions.
    pub fn locate(&self, concat_pos: u32) -> Option<(usize, u32)> {
        let idx = self.ranges.partition_point(|&(_, end)| end <= concat_pos);
        let &(start, end) = self.ranges.get(idx)?;
        (concat_pos >= start && concat_pos < end).then(|| (idx, concat_pos - start))
    }
}

/// Query positions stored inline in a backbone cell before spilling to
/// the overflow array (NCBI's thin-backbone layout uses the same 3).
pub const INLINE_HITS: usize = 3;

/// One dense backbone cell: a 16-byte record giving the common seed-scan
/// case — a word with at most [`INLINE_HITS`] query positions — a single
/// cache-line lookup with no second indirection.
///
/// `cell[0]` is the number of query positions registered under the word;
/// `cell[1..]` holds the positions themselves when there are at most
/// [`INLINE_HITS`], otherwise `cell[1]` is the bucket's start offset in
/// the overflow array. A plain integer array rather than a struct so
/// that the all-zero empty cell lets `vec!` take the backbone from the
/// allocator already zeroed: a sparse table (blastn: 4^11 cells, 67 MB,
/// a few thousand of them occupied) then only ever touches the pages
/// its occupied cells live on.
type BackboneCell = [u32; 1 + INLINE_HITS];

/// A thin-backbone lookup table: word index -> positions in the
/// concatenated query set where a neighborhood word begins.
///
/// Layout follows NCBI's `BlastAaLookupTable`: a dense array of
/// backbone cells stores up to [`INLINE_HITS`] positions inline; larger
/// buckets spill to a shared overflow array. The seed scan's hot
/// `hits(word)` therefore touches one cache line for the overwhelmingly
/// common small bucket, instead of an offsets pair plus a positions
/// range. Construction still runs as a CSR counting sort (see
/// [`LookupTable::build`]) before the backbone is laid down.
#[derive(Debug, Clone)]
pub struct LookupTable {
    word_len: usize,
    alphabet: usize,
    backbone: Vec<BackboneCell>,
    /// Spilled buckets, each a contiguous run referenced by its cell.
    overflow: Vec<u32>,
    num_entries: usize,
}

impl LookupTable {
    /// Build the table over `queries` using `matrix` and neighborhood
    /// threshold `threshold` (NCBI's `T`, 11 for blastp/BLOSUM62).
    ///
    /// Words are `word_len` residues over the first `word_alphabet` codes
    /// of the matrix's alphabet (20 for proteins: ambiguity codes never
    /// appear in neighborhood words, matching NCBI).
    pub fn build(
        queries: &QuerySet,
        matrix: &ScoreMatrix,
        word_len: usize,
        word_alphabet: usize,
        threshold: i32,
    ) -> LookupTable {
        assert!(word_len >= 1, "word_len must be positive");
        // Saturation keeps an overflowing word space above the cap.
        let n_words = word_alphabet.saturating_pow(word_len as u32);
        assert!(n_words <= 1 << 24, "word space too large for a dense table");
        let concat = queries.concat();

        // Per-row maximum scores let the enumeration prune whole subtrees.
        let mut row_max = vec![i32::MIN; matrix.size()];
        for a in 0..matrix.size() as u8 {
            row_max[a as usize] = matrix
                .row(a)
                .iter()
                .take(word_alphabet)
                .copied()
                .max()
                .unwrap_or(i32::MIN);
        }

        // Pass 1: collect (word, position) entries.
        let mut entries: Vec<(u32, u32)> = Vec::new(); // (word, concat_pos)
        let mut suffix_max = vec![0i32; word_len + 1];
        for qi in 0..queries.len() {
            let (start, end) = queries.range(qi);
            let qlen = (end - start) as usize;
            if qlen < word_len {
                continue;
            }
            for off in 0..=(qlen - word_len) {
                let pos = start as usize + off;
                let word = &concat[pos..pos + word_len];
                if word.iter().any(|&c| c as usize >= word_alphabet) {
                    continue; // ambiguity code inside the query word
                }
                enumerate_neighbors(
                    matrix,
                    &row_max,
                    word,
                    word_alphabet,
                    threshold,
                    &mut suffix_max,
                    &mut |w| entries.push((w, pos as u32)),
                );
            }
        }

        // Pass 2: counting sort in place. One `offsets` array serves as
        // histogram, scatter cursor, and (implicit) CSR bounds: after the
        // scatter, `offsets[w]` is the *end* of bucket `w`, so bucket `w`
        // spans `offsets[w-1]..offsets[w]` — no separate counts array and
        // no cloned cursor, halving the peak build memory beyond entries.
        let mut offsets = vec![0u32; n_words];
        for &(w, _) in &entries {
            offsets[w as usize] += 1;
        }
        let mut running = 0u32;
        for slot in offsets.iter_mut() {
            let count = *slot;
            *slot = running; // start of this bucket
            running += count;
        }
        let mut positions = vec![0u32; entries.len()];
        for &(w, pos) in &entries {
            let cursor = &mut offsets[w as usize];
            positions[*cursor as usize] = pos;
            *cursor += 1; // becomes the bucket's end bound
        }
        drop(entries);

        // Pass 3: lay down the thin backbone. Small buckets inline their
        // positions; large ones spill to the compacted overflow array.
        // Empty buckets keep the zeroed cell they were allocated with.
        let mut backbone: Vec<BackboneCell> = vec![[0; 1 + INLINE_HITS]; n_words];
        let mut overflow = Vec::new();
        let mut start = 0u32;
        for (cell, &end) in backbone.iter_mut().zip(&offsets) {
            if end == start {
                continue;
            }
            let bucket = &positions[start as usize..end as usize];
            cell[0] = bucket.len() as u32;
            if bucket.len() <= INLINE_HITS {
                cell[1..1 + bucket.len()].copy_from_slice(bucket);
            } else {
                cell[1] = overflow.len() as u32;
                overflow.extend_from_slice(bucket);
            }
            start = end;
        }
        LookupTable {
            word_len,
            alphabet: word_alphabet,
            backbone,
            overflow,
            num_entries: positions.len(),
        }
    }

    /// Word length in residues.
    #[inline]
    pub fn word_len(&self) -> usize {
        self.word_len
    }

    /// Word-alphabet size.
    #[inline]
    pub fn alphabet(&self) -> usize {
        self.alphabet
    }

    /// Total registered (word, position) pairs.
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.num_entries
    }

    /// Number of words (buckets) in the dense backbone.
    #[inline]
    pub fn num_words(&self) -> usize {
        self.backbone.len()
    }

    /// Compute the bucket index of a window of residues, or `None` if any
    /// residue falls outside the word alphabet.
    #[inline]
    pub fn word_index(&self, window: &[u8]) -> Option<u32> {
        debug_assert_eq!(window.len(), self.word_len);
        let mut idx = 0u32;
        for &c in window {
            if c as usize >= self.alphabet {
                return None;
            }
            idx = idx * self.alphabet as u32 + c as u32;
        }
        Some(idx)
    }

    /// Query positions registered under bucket `word`.
    ///
    /// The common case (a bucket of at most [`INLINE_HITS`] positions)
    /// reads only the 16-byte backbone cell — one cache line.
    #[inline]
    pub fn hits(&self, word: u32) -> &[u32] {
        match self.bucket(word) {
            Bucket::Inline { len, slots } => &slots[..len],
            Bucket::Spilled(positions) => positions,
        }
    }

    /// Number of query positions registered under bucket `word`: one
    /// load from the backbone cell, no overflow access.
    #[inline]
    pub(crate) fn bucket_len(&self, word: u32) -> u32 {
        self.backbone[word as usize][0]
    }

    /// Bucket `word` as the seed scan walks it: the whole inline block,
    /// padding included, or the spilled run.
    #[inline]
    pub(crate) fn bucket(&self, word: u32) -> Bucket<'_> {
        let [len, slots @ ..] = &self.backbone[word as usize];
        let len = *len as usize;
        if len <= INLINE_HITS {
            Bucket::Inline { len, slots }
        } else {
            let start = slots[0] as usize;
            Bucket::Spilled(&self.overflow[start..start + len])
        }
    }
}

/// One bucket of a [`LookupTable`], as [`LookupTable::bucket`] hands it
/// out.
pub(crate) enum Bucket<'a> {
    /// At most [`INLINE_HITS`] positions, stored in the backbone cell:
    /// the first `len` slots hold them, the rest are padding.
    Inline {
        len: usize,
        slots: &'a [u32; INLINE_HITS],
    },
    /// More than [`INLINE_HITS`] positions, a run of the overflow array.
    Spilled(&'a [u32]),
}

/// Enumerate all words over `0..alphabet` scoring at least `threshold`
/// against `word`, pruning with per-row maxima, and call `emit` with each
/// word's bucket index.
fn enumerate_neighbors(
    matrix: &ScoreMatrix,
    row_max: &[i32],
    word: &[u8],
    alphabet: usize,
    threshold: i32,
    suffix_max: &mut [i32],
    emit: &mut impl FnMut(u32),
) {
    // suffix_max[k] = max achievable score from word positions k.. ; the
    // caller's buffer (`word.len() + 1` cells) is refilled for each word.
    suffix_max[word.len()] = 0;
    for k in (0..word.len()).rev() {
        suffix_max[k] = suffix_max[k + 1] + row_max[word[k] as usize];
    }
    recurse(matrix, word, alphabet, threshold, suffix_max, 0, 0, 0, emit);

    #[allow(clippy::too_many_arguments)]
    fn recurse(
        matrix: &ScoreMatrix,
        word: &[u8],
        alphabet: usize,
        threshold: i32,
        suffix_max: &[i32],
        depth: usize,
        score: i32,
        index: u32,
        emit: &mut impl FnMut(u32),
    ) {
        if depth == word.len() {
            if score >= threshold {
                emit(index);
            }
            return;
        }
        let row = matrix.row(word[depth]);
        for (c, &row_score) in row.iter().enumerate().take(alphabet) {
            let s = score + row_score;
            // Prune: even perfect remaining letters cannot reach threshold.
            if s + suffix_max[depth + 1] < threshold {
                continue;
            }
            recurse(
                matrix,
                word,
                alphabet,
                threshold,
                suffix_max,
                depth + 1,
                s,
                index * alphabet as u32 + c as u32,
                emit,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::{encode, Molecule};
    use crate::matrix::ScoreMatrix;

    const GAP: u8 = 27;

    fn qs(queries: &[&[u8]]) -> QuerySet {
        let encoded: Vec<Vec<u8>> = queries
            .iter()
            .map(|q| encode(Molecule::Protein, q).unwrap())
            .collect();
        QuerySet::new(&encoded, GAP)
    }

    #[test]
    fn locate_maps_back_to_queries() {
        let set = qs(&[b"MKVL", b"ACDEF"]);
        assert_eq!(set.len(), 2);
        assert_eq!(set.locate(0), Some((0, 0)));
        assert_eq!(set.locate(3), Some((0, 3)));
        assert_eq!(set.locate(4), None, "sentinel position");
        assert_eq!(set.locate(5), Some((1, 0)));
        assert_eq!(set.locate(9), Some((1, 4)));
        assert_eq!(set.locate(10), None);
        assert_eq!(set.locate(99), None);
    }

    #[test]
    fn query_accessors() {
        let set = qs(&[b"MKVL", b"ACDEF"]);
        assert_eq!(set.query_len(0), 4);
        assert_eq!(set.query_len(1), 5);
        assert_eq!(
            crate::alphabet::decode(Molecule::Protein, set.query(1)),
            b"ACDEF"
        );
    }

    #[test]
    fn exact_word_is_its_own_neighbor() {
        // WWW self-scores 33 >= T=11, so scanning the query itself hits.
        let set = qs(&[b"WWWMK"]);
        let table = LookupTable::build(&set, &ScoreMatrix::blosum62(), 3, 20, 11);
        let www = table.word_index(&set.concat()[0..3]).unwrap();
        assert!(table.hits(www).contains(&0));
    }

    #[test]
    fn low_threshold_registers_more_words() {
        let set = qs(&[b"MKVLGHWRAT"]);
        let m = ScoreMatrix::blosum62();
        let strict = LookupTable::build(&set, &m, 3, 20, 13);
        let loose = LookupTable::build(&set, &m, 3, 20, 11);
        assert!(loose.num_entries() > strict.num_entries());
    }

    #[test]
    fn neighborhood_matches_brute_force() {
        let set = qs(&[b"MKV"]);
        let m = ScoreMatrix::blosum62();
        let t = 11;
        let table = LookupTable::build(&set, &m, 3, 20, t);
        let q = set.query(0);
        let mut expected = 0usize;
        for a in 0..20u8 {
            for b in 0..20u8 {
                for c in 0..20u8 {
                    let s = m.score(q[0], a) + m.score(q[1], b) + m.score(q[2], c);
                    if s >= t {
                        expected += 1;
                        let idx = table.word_index(&[a, b, c]).unwrap();
                        assert!(table.hits(idx).contains(&0), "missing {a},{b},{c}");
                    }
                }
            }
        }
        assert_eq!(table.num_entries(), expected);
    }

    #[test]
    fn words_never_span_queries() {
        // Two queries of 2 residues each: no 3-residue word fits in either,
        // and none may bridge the sentinel.
        let set = qs(&[b"MK", b"VL"]);
        let table = LookupTable::build(&set, &ScoreMatrix::blosum62(), 3, 20, 1);
        assert_eq!(table.num_entries(), 0);
    }

    #[test]
    fn ambiguity_words_are_skipped() {
        let set = qs(&[b"MXVLK"]);
        let m = ScoreMatrix::blosum62();
        let table = LookupTable::build(&set, &m, 3, 20, 11);
        // Positions 0 and 1 contain X (code 22 >= 20); only VLK at 2 counts.
        for w in 0..table.num_words() {
            for &p in table.hits(w as u32) {
                assert_eq!(p, 2);
            }
        }
    }

    #[test]
    fn large_buckets_spill_to_overflow_in_order() {
        // Four copies of the same word register four positions under it:
        // past INLINE_HITS, the bucket spills but keeps query-scan order.
        let set = qs(&[b"WWWWWWWWWWWW"]);
        let table = LookupTable::build(&set, &ScoreMatrix::blosum62(), 3, 20, 11);
        let www = table.word_index(&set.concat()[0..3]).unwrap();
        let hits = table.hits(www);
        assert!(hits.len() > INLINE_HITS, "self-hits of W^12: {hits:?}");
        assert!(hits.windows(2).all(|w| w[0] < w[1]), "ascending: {hits:?}");
        assert_eq!(hits, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn word_index_rejects_out_of_alphabet() {
        let set = qs(&[b"MKVLK"]);
        let table = LookupTable::build(&set, &ScoreMatrix::blosum62(), 3, 20, 11);
        assert_eq!(table.word_index(&[0, 1, 22]), None);
        assert!(table.word_index(&[0, 1, 19]).is_some());
    }

    #[test]
    fn dna_exact_lookup() {
        let q = encode(Molecule::Dna, b"ACGTACGTACGT").unwrap();
        let set = QuerySet::new(&[q], crate::alphabet::DNA_N);
        // Exact matching: threshold = word_len * reward over the DNA matrix.
        let m = ScoreMatrix::dna(1, -3);
        let table = LookupTable::build(&set, &m, 4, 4, 4);
        let idx = table.word_index(&set.concat()[0..4]).unwrap();
        assert!(table.hits(idx).contains(&0));
        // ACGT occurs at offsets 0, 4, 8.
        assert_eq!(table.hits(idx), &[0, 4, 8]);
    }
}
