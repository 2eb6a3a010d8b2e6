//! Property-based tests of [`FileView`] construction and serialization,
//! and of the run-list module (`mpiio::runs`) against brute force on a
//! small universe.

use bytes::Bytes;
use mpiio::{cut, merge, merge_bytes, pieces, Cover, FileView, Run, ViewError};
use parafs::StoreError;
use proptest::prelude::*;

/// The run-list universe: ranges start within `SPAN` addresses of
/// `base` and are shorter than `REACH`.
const SPAN: u64 = 48;
const REACH: u64 = 12;

/// Random ranges over the universe: unsorted, overlapping, some empty,
/// some running past its end. Anchored at 0 or so that the universe
/// ends at `u64::MAX`, where `offset + len` overflows.
fn arb_ranges() -> impl Strategy<Value = (u64, Vec<(u64, u64)>)> {
    (
        any::<bool>(),
        prop::collection::vec((0..SPAN, 0..REACH), 0..10),
    )
        .prop_map(|(high, ranges)| {
            let base = if high { u64::MAX - SPAN } else { 0 };
            let shifted = ranges.into_iter().map(|(o, l)| (base + o, l)).collect();
            (base, shifted)
        })
}

/// Which addresses `base + k` the `ranges` touch, by brute force. No
/// range touches `u64::MAX` itself: a half-open range ends there at most.
fn bitmap(base: u64, ranges: &[(u64, u64)]) -> Vec<bool> {
    let touched = |k: u64| {
        let inside = |&(o, l): &(u64, u64)| o - base <= k && k - (o - base) < l;
        base.checked_add(k).is_some_and(|at| at < u64::MAX) && ranges.iter().any(inside)
    };
    (0..SPAN + REACH).map(touched).collect()
}

/// The maximal touched stretches of a bitmap, joined across untouched
/// holes of at most `max_hole` addresses.
fn runs_of(base: u64, touched: &[bool], max_hole: u64) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for k in (0..SPAN + REACH).filter(|&k| touched[k as usize]) {
        let at = base + k;
        match out.last_mut() {
            Some((o, l)) if at - (*o + *l) <= max_hole => *l = at + 1 - *o,
            _ => out.push((at, 1)),
        }
    }
    out
}

/// Random byte-carrying pieces over the universe (anchored at 0), each
/// byte distinct so a misplaced one shows.
fn arb_pieces() -> impl Strategy<Value = Vec<(u64, Bytes)>> {
    prop::collection::vec((0..SPAN, 0..REACH as usize), 0..10).prop_map(|ranges| {
        let mut next = 0u8;
        let fill = |(o, l): (u64, usize)| {
            let bytes = (0..l).map(|_| (next, next = next.wrapping_add(1)).0);
            (o, Bytes::from(bytes.collect::<Vec<u8>>()))
        };
        ranges.into_iter().map(fill).collect()
    })
}

/// The file a serial writer leaves behind, writing the pieces in offset
/// order (input order among equals) — the order an aggregator issues
/// them in.
fn paint(pieces: &[(u64, Bytes)]) -> Vec<Option<u8>> {
    let mut file = vec![None; (SPAN + REACH) as usize];
    let mut pieces = pieces.to_vec();
    pieces.sort_by_key(|&(o, _)| o);
    for (o, bytes) in &pieces {
        for (i, b) in bytes.iter().enumerate() {
            file[*o as usize + i] = Some(*b);
        }
    }
    file
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `merge` is the bitmap's answer for every `max_hole`: sorted,
    /// disjoint, clamped at `u64::MAX`, holes bridged exactly up to the
    /// limit.
    #[test]
    fn merge_equals_the_bitmap((base, ranges) in arb_ranges()) {
        let touched = bitmap(base, &ranges);
        for max_hole in (0..=SPAN).chain([u64::MAX]) {
            prop_assert_eq!(
                merge(ranges.clone(), max_hole),
                runs_of(base, &touched, max_hole),
                "max_hole {}", max_hole
            );
        }
    }

    /// `merge_bytes` leaves exactly the runs and bytes a serial writer
    /// of the same pieces would: hole-free stretches joined, the piece
    /// that starts later winning an overlap, nothing bridged — and every
    /// part of a run is one of the pieces itself, not a copy of it.
    #[test]
    fn merge_bytes_reproduces_the_serially_written_file(pieces in arb_pieces()) {
        let file = paint(&pieces);
        let merged = merge_bytes(pieces.clone());
        let ranges: Vec<(u64, u64)> = pieces.iter().map(|(o, d)| (*o, d.len() as u64)).collect();
        let shape: Vec<(u64, u64)> = merged.iter().map(|(o, r)| (*o, r.len())).collect();
        prop_assert_eq!(shape, merge(ranges, 0));
        for (o, run) in &merged {
            let want: Vec<Option<u8>> = file[*o as usize..(o + run.len()) as usize].to_vec();
            let got: Vec<Option<u8>> = run.to_vec().into_iter().map(Some).collect();
            prop_assert_eq!(got, want, "run at {}", o);
            for (at, part) in run.parts() {
                let input = pieces.iter().any(|(po, d)| {
                    *po == o + at && d.len() == part.len() && d.as_ptr() == part.as_ptr()
                });
                prop_assert!(input, "run at {} copied its piece at {}", o, at);
            }
        }
    }

    /// `Cover::slice` is the naive lookup: the bytes when one run holds
    /// the whole range, `None` for every range that is uncovered or
    /// straddles two runs — adjacent ones included, as the independent
    /// class leaves them.
    #[test]
    fn slice_equals_the_naive_lookup(pieces in arb_pieces(), joined in any::<bool>()) {
        // Disjoint runs either way; unjoined, some are adjacent.
        let mut runs = contiguous(merge_bytes(pieces));
        if !joined {
            runs = runs.into_iter().flat_map(|(o, d)| {
                let half = d.len() / 2;
                [(o, d.slice(..half)), (o + half as u64, d.slice(half..))]
            }).filter(|(_, d)| !d.is_empty()).collect();
        }
        let cover = Cover::new(runs.clone());
        for offset in 0..SPAN + REACH + 2 {
            for len in 0..REACH + 4 {
                let naive = runs.iter().find_map(|(o, d)| {
                    let inside = *o <= offset && offset + len <= o + d.len() as u64;
                    inside.then(|| &d[(offset - o) as usize..(offset - o + len) as usize])
                });
                let want = if len == 0 { Some(&[][..]) } else { naive };
                let got = cover.slice(offset, len);
                prop_assert_eq!(got.as_deref(), want, "[{}, +{})", offset, len);
                // A held range is a view of its run, not a copy.
                if let (Some(got), Some(want)) = (&got, want) {
                    prop_assert!(len == 0 || got.as_ptr() == want.as_ptr());
                }
            }
        }
        prop_assert_eq!(cover.slice(u64::MAX, 2), None);
        prop_assert_eq!(cover.slice(3, u64::MAX), None);
    }

    /// `pieces` cuts a payload back into what a view's regions hold, so
    /// a cover of the pieces returns every region.
    #[test]
    fn pieces_invert_concatenation(regions in arb_valid_regions(0)) {
        let total: u64 = regions.iter().map(|&(_, l)| l).sum();
        let payload = Bytes::from((0..total).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
        let cut = pieces(regions.iter().copied(), &payload);
        prop_assert_eq!(cut.concat_bytes(), payload.to_vec());
        let cover = Cover::new(cut);
        let mut at = 0usize;
        for &(o, l) in &regions {
            let got = cover.slice(o, l);
            prop_assert_eq!(got.as_deref(), Some(&payload[at..at + l as usize]));
            prop_assert_eq!(got.map(|b| b.as_ptr()), Some(payload[at..].as_ptr()));
            at += l as usize;
        }
        // A payload that runs out early shortens pieces, never panics.
        let short = pieces(regions.iter().copied(), &payload.slice(..payload.len() / 2));
        prop_assert_eq!(short.concat_bytes(), payload[..payload.len() / 2].to_vec());
    }

    /// `cut` does for a payload of several pieces what `pieces` does for
    /// one: each region gets its bytes, as views of the pieces that hold
    /// them.
    #[test]
    fn cut_inverts_concatenation_of_pieces(
        regions in arb_valid_regions(0),
        splits in prop::collection::vec(0usize..4000, 0..8),
    ) {
        let total: u64 = regions.iter().map(|&(_, l)| l).sum();
        let bytes = Bytes::from((0..total).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
        let mut bounds: Vec<usize> = splits.iter().map(|&k| k % (bytes.len() + 1)).collect();
        bounds.extend([0, bytes.len()]);
        bounds.sort_unstable();
        let mut payload = Run::default();
        for w in bounds.windows(2) {
            payload.push(w[0] as u64, bytes.slice(w[0]..w[1]));
        }
        prop_assert_eq!(payload.len(), total);
        let mut at = 0usize;
        for ((o, run), &(ro, l)) in cut(regions.iter().copied(), &payload).iter().zip(&regions) {
            prop_assert_eq!(*o, ro);
            prop_assert_eq!(run.to_vec(), bytes[at..at + l as usize].to_vec());
            for (part_at, part) in run.parts() {
                prop_assert_eq!(part.as_ptr(), bytes[at + *part_at as usize..].as_ptr());
            }
            at += l as usize;
        }
    }
}

/// Test-only: merged runs as one buffer each, for a `Cover`.
fn contiguous(runs: Vec<(u64, Run)>) -> Vec<(u64, Bytes)> {
    runs.into_iter()
        .map(|(o, r)| (o, Bytes::from(r.to_vec())))
        .collect()
}

/// Test-only: the bytes of a piece list, concatenated.
trait ConcatBytes {
    fn concat_bytes(&self) -> Vec<u8>;
}

impl ConcatBytes for Vec<(u64, Bytes)> {
    fn concat_bytes(&self) -> Vec<u8> {
        self.iter().flat_map(|(_, d)| d.iter().copied()).collect()
    }
}

/// The literal cases of the unit tests that covered the five merge
/// loops and three slice routines this module replaced
/// (`sieve_runs_bridge_small_holes_only`, `coalesce_merges_adjacent`,
/// `coalesce_merges_overlaps_and_adjacency`,
/// `coalesce_clamps_overflowing_spans` and the `RangeBuffers` three).
#[test]
fn the_replaced_copies_cases_still_hold() {
    // plane.rs::sieve_runs
    let regions = vec![(0u64, 10u64), (12, 8), (100, 5), (105, 5)];
    assert_eq!(merge(regions.clone(), 2), vec![(0, 20), (100, 10)]);
    assert_eq!(
        merge(regions.clone(), 0),
        vec![(0, 10), (12, 8), (100, 10)],
        "max_hole 0 still merges adjacency"
    );
    assert_eq!(merge(regions, 1 << 30), vec![(0, 110)]);
    assert!(merge(vec![], 4).is_empty());
    // fileio.rs::{coalesce, coalesce_ranges}
    let piece = |o: u64, d: &'static [u8]| (o, Bytes::from_static(d));
    let runs = merge_bytes(vec![piece(10, &[3, 4]), piece(0, &[1, 2]), piece(2, &[9])]);
    assert_eq!(
        contiguous(runs),
        vec![piece(0, &[1, 2, 9]), piece(10, &[3, 4])]
    );
    assert_eq!(
        merge(vec![(5, 5), (0, 5), (12, 1)], 0),
        vec![(0, 10), (12, 1)]
    );
    // input.rs::coalesce_spans, the shared index-table entry included
    assert_eq!(
        merge(vec![(10, 5), (0, 5), (5, 5), (30, 2)], 0),
        vec![(0, 15), (30, 2)]
    );
    assert_eq!(merge(vec![(0, 16), (8, 16)], 0), vec![(0, 24)]);
    assert_eq!(merge(vec![(4, 0), (2, 1)], 0), vec![(2, 1)]);
    // `offset + len` past u64::MAX clamps instead of wrapping (which
    // would make the span swallow every later one).
    assert_eq!(
        merge(vec![(u64::MAX - 4, 10), (0, 1)], 0),
        vec![(0, 1), (u64::MAX - 4, 4)]
    );
    assert_eq!(
        merge(vec![(u64::MAX - 8, 4), (u64::MAX - 4, 10)], 0),
        vec![(u64::MAX - 8, 8)]
    );
    // input.rs::RangeBuffers::slice
    let data = Bytes::from_static(&[1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
    let cover = Cover::new(pieces([(10, 4), (20, 6)], &data));
    let held = |offset, len| cover.slice(offset, len).map(|b| b.to_vec());
    assert_eq!(held(10, 4), Some(vec![1u8, 2, 3, 4]));
    assert_eq!(held(11, 2), Some(vec![2u8, 3]));
    assert_eq!(held(20, 6), Some(vec![5u8, 6, 7, 8, 9, 10]));
    assert_eq!(held(23, 1), Some(vec![8u8]));
    // Spans that touch in the file are one run once merged, so a
    // straddling range is one slice; a gap in the file breaks it.
    let data = Bytes::from((0..12).collect::<Vec<u8>>());
    let cover = Cover::new(contiguous(merge_bytes(pieces(
        [(0, 4), (4, 6), (20, 2)],
        &data,
    ))));
    assert_eq!(cover.slice(2, 5), Some(Bytes::from(vec![2u8, 3, 4, 5, 6])));
    assert_eq!(cover.slice(0, 10), Some(data.slice(..10)));
    assert_eq!(cover.slice(8, 14), None);
    assert_eq!(cover.slice(2, 9), None);
    assert_eq!(cover.slice(30, 1), None);
    assert_eq!(cover.slice(u64::MAX, 2), None);
}

/// Sorted, disjoint, non-empty regions: cumulative positive gaps/lens.
/// `min` bounds the region count from below.
fn arb_valid_regions(min: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..1000, 1u64..1000), min..32).prop_map(|gaps| {
        let mut off = 0u64;
        gaps.into_iter()
            .map(|(gap, len)| {
                let o = off + gap;
                off = o + len;
                (o, len)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode -> decode is the identity on every valid view.
    #[test]
    fn encode_decode_round_trips(disp in 0u64..1_000_000, regions in arb_valid_regions(0)) {
        let view = FileView::new(disp, regions).unwrap();
        let decoded = FileView::decode(&view.encode());
        prop_assert_eq!(decoded.as_ref().ok(), Some(&view));
    }

    /// decode rejects any truncation or extension of a valid encoding.
    #[test]
    fn decode_rejects_length_corruption(
        disp in 0u64..1_000_000,
        regions in arb_valid_regions(0),
        cut in 1usize..16,
        grow in any::<bool>(),
    ) {
        let bytes = FileView::new(disp, regions).unwrap().encode();
        let corrupted = if grow {
            let mut b = bytes;
            b.extend_from_slice(&[0u8; 3]);
            b
        } else {
            bytes[..bytes.len().saturating_sub(cut)].to_vec()
        };
        let corrupt = matches!(FileView::decode(&corrupted), Err(StoreError::Corrupt { .. }));
        prop_assert!(corrupt);
    }

    /// Swapping two adjacent distinct regions makes the list unsorted,
    /// and `new` rejects it.
    #[test]
    fn new_rejects_out_of_order_regions(
        regions in arb_valid_regions(2),
        seed in 0usize..1024,
    ) {
        let i = seed % (regions.len() - 1);
        let mut shuffled = regions;
        shuffled.swap(i, i + 1);
        prop_assert_eq!(FileView::new(0, shuffled).unwrap_err(), ViewError::Unsorted);
    }

    /// Forcing any region to overlap its predecessor's tail is rejected.
    #[test]
    fn new_rejects_overlapping_regions(
        regions in arb_valid_regions(2),
        seed in 0usize..1024,
    ) {
        let i = 1 + seed % (regions.len() - 1);
        let mut overlapped = regions;
        let (prev_off, prev_len) = overlapped[i - 1];
        overlapped[i].0 = prev_off + prev_len - 1;
        prop_assert_eq!(FileView::new(0, overlapped).unwrap_err(), ViewError::Unsorted);
    }

    /// Zero-length regions are rejected wherever they appear.
    #[test]
    fn new_rejects_empty_regions(
        regions in arb_valid_regions(1),
        seed in 0usize..1024,
    ) {
        let i = seed % regions.len();
        let mut zeroed = regions;
        zeroed[i].1 = 0;
        prop_assert_eq!(FileView::new(0, zeroed).unwrap_err(), ViewError::EmptyRegion);
    }
}
