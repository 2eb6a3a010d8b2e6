//! High-scoring segment pairs (HSPs): records, ordering, and culling.

/// A scored local alignment of one query against one database subject.
///
/// Coordinates are 0-based half-open; `oid` is the subject's ordinal id in
/// the *global* database, so HSPs found in different fragments merge
/// unambiguously.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hsp {
    /// Index of the query within the query set.
    pub query_idx: u32,
    /// Global ordinal id of the subject sequence.
    pub oid: u32,
    /// Query range start.
    pub q_start: u32,
    /// Query range end (exclusive).
    pub q_end: u32,
    /// Subject range start.
    pub s_start: u32,
    /// Subject range end (exclusive).
    pub s_end: u32,
    /// Raw (matrix-unit) score.
    pub score: i32,
    /// Normalized bit score.
    pub bit_score: f64,
    /// Expectation value against the global search space.
    pub evalue: f64,
}

impl Hsp {
    /// Whether `self`'s query and subject ranges both lie inside `other`'s.
    pub fn contained_in(&self, other: &Hsp) -> bool {
        self.oid == other.oid
            && self.query_idx == other.query_idx
            && self.q_start >= other.q_start
            && self.q_end <= other.q_end
            && self.s_start >= other.s_start
            && self.s_end <= other.s_end
    }

    /// Deterministic ranking key: higher score first, then lower E-value,
    /// then subject/coordinate order as an arbitrary but total tiebreak.
    ///
    /// The key is a plain `Copy` tuple so callers can compute it once per
    /// HSP and sort on the cached value instead of re-deriving it in every
    /// comparison (the kernel's ranking sorts do exactly that).
    pub fn rank_key(&self) -> RankKey {
        (
            std::cmp::Reverse(self.score),
            self.oid,
            self.q_start,
            self.s_start,
            self.q_end,
            self.s_end,
        )
    }
}

/// The concrete type of [`Hsp::rank_key`]: totally ordered, `Copy`, and
/// cacheable alongside the HSP it ranks.
pub type RankKey = (std::cmp::Reverse<i32>, u32, u32, u32, u32, u32);

/// Sort HSPs into canonical reporting order (best first, deterministic).
pub fn sort_canonical(hsps: &mut [Hsp]) {
    hsps.sort_by_key(|a| a.rank_key());
}

/// Remove HSPs wholly contained in a higher-scoring HSP of the same
/// (query, subject) pair — the standard BLAST redundancy cull.
///
/// Input order is not preserved; the result is in canonical order.
pub fn cull_contained(hsps: &mut Vec<Hsp>) {
    sort_canonical(hsps);
    let kept = cull_contained_sorted(hsps);
    hsps.truncate(kept);
}

/// Allocation-free containment cull over a canonically-sorted slice:
/// compacts surviving HSPs to the front and returns how many survived.
///
/// The caller must have sorted `hsps` with [`sort_canonical`] ordering
/// (the kernel's flat per-subject accumulator sorts one (query, subject)
/// run at a time and culls each run in place).
pub fn cull_contained_sorted(hsps: &mut [Hsp]) -> usize {
    let mut kept = 0usize;
    for i in 0..hsps.len() {
        let h = hsps[i];
        let contained = hsps[..kept]
            .iter()
            .filter(|k| k.oid == h.oid && k.query_idx == h.query_idx)
            .any(|k| h.contained_in(k));
        if !contained {
            hsps[kept] = h;
            kept += 1;
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hsp(oid: u32, q: (u32, u32), s: (u32, u32), score: i32) -> Hsp {
        Hsp {
            query_idx: 0,
            oid,
            q_start: q.0,
            q_end: q.1,
            s_start: s.0,
            s_end: s.1,
            score,
            bit_score: score as f64,
            evalue: (-(score as f64)).exp(),
        }
    }

    #[test]
    fn containment_requires_same_subject() {
        let a = hsp(1, (0, 100), (0, 100), 50);
        let mut b = hsp(1, (10, 20), (10, 20), 10);
        assert!(b.contained_in(&a));
        b.oid = 2;
        assert!(!b.contained_in(&a));
    }

    #[test]
    fn cull_drops_contained_only() {
        let big = hsp(1, (0, 100), (0, 100), 50);
        let inside = hsp(1, (10, 20), (10, 20), 10);
        let overlapping = hsp(1, (50, 150), (50, 150), 20);
        let elsewhere = hsp(2, (10, 20), (10, 20), 10);
        let mut v = vec![inside, big, overlapping, elsewhere];
        cull_contained(&mut v);
        assert_eq!(v.len(), 3);
        assert!(v.contains(&big));
        assert!(v.contains(&overlapping));
        assert!(v.contains(&elsewhere));
    }

    #[test]
    fn cull_keeps_higher_scoring_inner_if_outer_scores_less() {
        // Containment culling is score-directional: the lower-scoring HSP is
        // dropped only when contained in a *higher or equal* scoring one
        // examined first in canonical order.
        let outer = hsp(1, (0, 100), (0, 100), 10);
        let inner = hsp(1, (10, 20), (10, 20), 50);
        let mut v = vec![outer, inner];
        cull_contained(&mut v);
        // inner ranks first; outer is not contained in inner, so both stay.
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn canonical_sort_is_total_and_deterministic() {
        let mut a = vec![
            hsp(2, (0, 10), (0, 10), 30),
            hsp(1, (0, 10), (0, 10), 30),
            hsp(1, (5, 10), (0, 10), 30),
            hsp(1, (0, 10), (0, 10), 40),
        ];
        let mut b = a.clone();
        b.reverse();
        sort_canonical(&mut a);
        sort_canonical(&mut b);
        assert_eq!(a, b);
        assert_eq!(a[0].score, 40);
    }
}
