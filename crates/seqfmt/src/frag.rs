//! Database fragmentation.
//!
//! Two flavors, matching the paper's two systems:
//!
//! * [`virtual_fragments`] — pioBLAST's *dynamic* partitioning: compute,
//!   from volume indexes alone, the `(start offset, end offset)` byte
//!   ranges that each worker should read from the shared `.seq`/`.hdr`/
//!   `.idx` files. No new files are created; any worker count works
//!   against the same formatted database.
//! * [`physical_fragments`] — mpiBLAST's `mpiformatdb` behaviour: re-emit
//!   the database as `n` separate small volumes ("fragments"), which must
//!   be created before a run and copied around during it.

use blast_core::stats::DbStats;

use crate::codec::Wire;
use crate::formatdb::FormattedDb;
use crate::volume::{EncodedVolume, VolumeIndex};

/// A virtual fragment: byte ranges into one volume's files.
///
/// All ranges are half-open `[start, end)`. The index ranges cover
/// `num_seqs + 1` table entries, so the reader can rebase offsets without
/// any other information.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragmentSpec {
    /// Which volume (index into the database's volume list).
    pub volume: usize,
    /// First sequence (local index within the volume).
    pub first_seq: u64,
    /// One past the last sequence (local index).
    pub last_seq: u64,
    /// Global ordinal id of `first_seq`.
    pub base_oid: u64,
    /// Byte range in the volume's `.seq` file.
    pub seq_range: (u64, u64),
    /// Byte range in the volume's `.hdr` file.
    pub hdr_range: (u64, u64),
    /// Byte range of the sequence-offset table slice in `.idx`
    /// (covers entries `first_seq ..= last_seq`).
    pub idx_seq_range: (u64, u64),
    /// Byte range of the header-offset table slice in `.idx`.
    pub idx_hdr_range: (u64, u64),
    /// Residues in this fragment.
    pub residues: u64,
}

crate::wire_struct!(FragmentSpec {
    volume: usize,
    first_seq: u64,
    last_seq: u64,
    base_oid: u64,
    seq_range: (u64, u64),
    hdr_range: (u64, u64),
    idx_seq_range: (u64, u64),
    idx_hdr_range: (u64, u64),
    residues: u64,
});

impl FragmentSpec {
    /// Number of sequences in the fragment.
    pub fn num_seqs(&self) -> u64 {
        self.last_seq - self.first_seq
    }
}

/// Compute up to `n` virtual fragments over a set of volume indexes,
/// balanced by residue count. Fragments never span volumes; when `n` is
/// smaller than the volume count, every volume still gets at least one
/// fragment (so the result may exceed `n` in that degenerate case), and
/// when sequences are scarce the result may have fewer than `n` fragments.
pub fn virtual_fragments(indexes: &[&VolumeIndex], n: usize) -> Vec<FragmentSpec> {
    let n = n.max(1);
    let total_residues: u64 = indexes.iter().map(|i| i.volume_stats.total_residues).sum();
    let mut out = Vec::with_capacity(n);

    // Assign fragment counts to volumes proportionally to residues
    // (largest-remainder), with at least one per non-empty volume.
    let mut assigned: Vec<usize> = vec![0; indexes.len()];
    if total_residues == 0 {
        for (vi, idx) in indexes.iter().enumerate() {
            if idx.num_seqs() > 0 {
                assigned[vi] = 1;
            }
        }
    } else {
        let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(indexes.len());
        let mut used = 0usize;
        for (vi, idx) in indexes.iter().enumerate() {
            let share = n as f64 * idx.volume_stats.total_residues as f64 / total_residues as f64;
            let base = share.floor() as usize;
            let at_least = usize::from(idx.num_seqs() > 0);
            assigned[vi] = base.max(at_least);
            used += assigned[vi];
            remainders.push((vi, share - base as f64));
        }
        // Distribute any remaining fragments by largest remainder.
        remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let mut left = n.saturating_sub(used);
        for &(vi, _) in &remainders {
            if left == 0 {
                break;
            }
            if indexes[vi].num_seqs() > 0 {
                assigned[vi] += 1;
                left -= 1;
            }
        }
    }

    for (vi, idx) in indexes.iter().enumerate() {
        if assigned[vi] > 0 {
            partition_volume(vi, idx, assigned[vi], &mut out);
        }
    }
    out
}

/// Split one volume into up to `k` residue-balanced fragments.
fn partition_volume(vi: usize, idx: &VolumeIndex, k: usize, out: &mut Vec<FragmentSpec>) {
    let num_seqs = idx.num_seqs() as u64;
    let total = idx.volume_stats.total_residues;
    IndexSlice::of_volume(vi, idx).partition((0, num_seqs), total, k, out);
}

/// Cut a fragment into up to `k` pieces at record boundaries, balanced
/// by `.seq` bytes, in record order: at most one piece per record, and
/// at least one. `idx` is the index of the spec's volume. The pieces
/// partition the fragment's records and its `.seq` and `.hdr` ranges
/// exactly; each piece's `.idx` table slices overlap the next one's by
/// the one shared boundary entry, as every fragment's do.
pub fn split(idx: &VolumeIndex, spec: &FragmentSpec, k: usize) -> Vec<FragmentSpec> {
    IndexSlice::of_volume(spec.volume, idx).split(spec, k)
}

/// The offset tables of a run of one volume's records — the volume's
/// whole index, or the slice of it a worker read for one fragment — and
/// where they sit in the volume's `.idx` file: all that cutting records
/// into [`FragmentSpec`]s takes.
#[derive(Debug, Clone, Copy)]
pub struct IndexSlice<'a> {
    volume: usize,
    /// Volume-local index of the record the tables' entry 0 starts.
    first: u64,
    /// Global oid of the volume's record 0.
    volume_oid: u64,
    /// `.idx` offsets of the two tables' entry for record 0.
    seq_table: u64,
    hdr_table: u64,
    /// Absolute `.seq` and `.hdr` offsets of records `first..`, one more
    /// entry than records: the last is where the run ends.
    seq: &'a [u64],
    hdr: &'a [u64],
}

impl<'a> IndexSlice<'a> {
    /// All of volume `volume`'s records.
    pub fn of_volume(volume: usize, idx: &'a VolumeIndex) -> IndexSlice<'a> {
        IndexSlice {
            volume,
            first: 0,
            volume_oid: idx.base_oid,
            seq_table: idx.seq_table_start(),
            hdr_table: idx.hdr_table_start(),
            seq: &idx.seq_offsets,
            hdr: &idx.hdr_offsets,
        }
    }

    /// A fragment's own records, from the two `.idx` table slices its
    /// spec names, decoded but not rebased (`spec.num_seqs() + 1`
    /// entries each). `None` unless the tables are what the spec says:
    /// of that length, nondecreasing, and spanning exactly its `.seq`
    /// and `.hdr` ranges.
    pub fn of_fragment(spec: &FragmentSpec, seq: &'a [u64], hdr: &'a [u64]) -> Option<Self> {
        let records = usize::try_from(spec.last_seq.checked_sub(spec.first_seq)?).ok()?;
        let entries = records.checked_add(1)?;
        let spans = |table: &[u64], (lo, hi): (u64, u64)| {
            table.len() == entries
                && table.first() == Some(&lo)
                && table.last() == Some(&hi)
                && table.windows(2).all(|w| w[0] <= w[1])
        };
        if !spans(seq, spec.seq_range) || !spans(hdr, spec.hdr_range) {
            return None;
        }
        let table = |(lo, _): (u64, u64)| lo.checked_sub(spec.first_seq.checked_mul(8)?);
        Some(IndexSlice {
            volume: spec.volume,
            first: spec.first_seq,
            volume_oid: spec.base_oid.checked_sub(spec.first_seq)?,
            seq_table: table(spec.idx_seq_range)?,
            hdr_table: table(spec.idx_hdr_range)?,
            seq,
            hdr,
        })
    }

    /// `.seq` offset where record `rec` starts (the run's end for one
    /// past its last record).
    fn seq_at(&self, rec: u64) -> u64 {
        self.seq[(rec - self.first) as usize]
    }

    /// The first record whose start is at least `offset`.
    fn first_at(&self, offset: u64) -> u64 {
        self.first + self.seq.partition_point(|&o| o < offset) as u64
    }

    /// The spec of records `[first, last)`, which must lie in the run.
    pub fn spec(&self, first: u64, last: u64) -> FragmentSpec {
        debug_assert!(self.first <= first && first <= last);
        let (i, j) = ((first - self.first) as usize, (last - self.first) as usize);
        let (seq_lo, seq_hi) = (self.seq[i], self.seq[j]);
        FragmentSpec {
            volume: self.volume,
            first_seq: first,
            last_seq: last,
            base_oid: self.volume_oid + first,
            seq_range: (seq_lo, seq_hi),
            hdr_range: (self.hdr[i], self.hdr[j]),
            idx_seq_range: (self.seq_table + 8 * first, self.seq_table + 8 * (last + 1)),
            idx_hdr_range: (self.hdr_table + 8 * first, self.hdr_table + 8 * (last + 1)),
            residues: seq_hi - seq_lo,
        }
    }

    /// [`split`] over this run: `spec`'s records, which must lie in it,
    /// cut into up to `k` pieces balanced by `.seq` bytes.
    pub fn split(&self, spec: &FragmentSpec, k: usize) -> Vec<FragmentSpec> {
        let mut out = Vec::new();
        let records = (spec.first_seq, spec.last_seq);
        self.partition(records, spec.residues, k, &mut out);
        out
    }

    /// Cut `spec`'s records, which must lie in this run, into the pieces
    /// a worker reads ahead through: the first is the smallest record
    /// prefix holding at least `first` bytes of `.seq`, and each later
    /// one the smallest that holds at least twice the piece before it —
    /// or everything left, where what would remain after it could not
    /// be twice its size. A fragment with less than `2 * first` bytes of
    /// `.seq` is one piece. Like [`split`]'s, the pieces partition the
    /// fragment's records and byte ranges exactly.
    pub fn read_ahead(&self, spec: &FragmentSpec, first: u64) -> Vec<FragmentSpec> {
        let (mut at, end) = (spec.first_seq, spec.last_seq);
        let whole = self.seq_at(end) - self.seq_at(at);
        if whole < first.saturating_mul(2) {
            return vec![self.spec(at, end)];
        }
        let (mut out, mut want) = (Vec::new(), first);
        while at < end {
            let base = self.seq_at(at);
            let cut = self.first_at(base.saturating_add(want)).clamp(at + 1, end);
            let size = self.seq_at(cut) - base;
            let cut = if self.seq_at(end) - self.seq_at(cut) < size.saturating_mul(2) {
                end
            } else {
                cut
            };
            out.push(self.spec(at, cut));
            (at, want) = (cut, size.saturating_mul(2));
        }
        out
    }

    /// Cut records `[first, end)` into up to `k` fragments, cutting
    /// where the `.seq` offset passes each `1/k` share of `weight` past
    /// the range's start, but always leaving enough records for the
    /// remaining parts.
    fn partition(
        &self,
        (first, end): (u64, u64),
        weight: u64,
        k: usize,
        out: &mut Vec<FragmentSpec>,
    ) {
        let num_seqs = end.saturating_sub(first);
        if num_seqs == 0 {
            return;
        }
        let k = (k.max(1) as u64).min(num_seqs);
        let base = self.seq_at(first);
        let mut first = first;
        for part in 0..k {
            let target = base.saturating_add(weight.saturating_mul(part + 1) / k);
            let mut last = if part + 1 == k {
                end
            } else {
                // The offsets are nondecreasing: binary search the cut.
                let cut = self.first_at(target).max(first + 1);
                cut.min(end - (k - part - 1))
            };
            if last < first + 1 {
                last = first + 1;
            }
            out.push(self.spec(first, last));
            first = last;
        }
    }
}

/// Build the byte ranges for sequences `[first, last)` of a volume.
pub fn make_spec(vi: usize, idx: &VolumeIndex, first: u64, last: u64) -> FragmentSpec {
    debug_assert!(first <= last && last <= idx.num_seqs() as u64);
    IndexSlice::of_volume(vi, idx).spec(first, last)
}

/// mpiBLAST's `mpiformatdb`: rewrite a formatted database as `n` physical
/// fragment volumes (each a standalone single-volume database carrying the
/// *global* statistics, exactly like mpiBLAST fragments do).
///
/// Like `mpiformatdb`, the requested count is not always achievable; the
/// actual count is `min(n, total sequences)` (the paper hits this: they
/// asked for 63 fragments and got 61).
pub fn physical_fragments(db: &FormattedDb, n: usize) -> Vec<EncodedVolume> {
    let indexes: Vec<&VolumeIndex> = db.volumes.iter().map(|v| &v.index).collect();
    let specs = virtual_fragments(&indexes, n);
    let mut out = Vec::with_capacity(specs.len());
    for (fi, spec) in specs.iter().enumerate() {
        let vol = &db.volumes[spec.volume];
        let (slo, shi) = (spec.seq_range.0 as usize, spec.seq_range.1 as usize);
        let (hlo, hhi) = (spec.hdr_range.0 as usize, spec.hdr_range.1 as usize);
        let first = spec.first_seq as usize;
        let last = spec.last_seq as usize;
        let seq_offsets: Vec<u64> = vol.index.seq_offsets[first..=last]
            .iter()
            .map(|&o| o - spec.seq_range.0)
            .collect();
        let hdr_offsets: Vec<u64> = vol.index.hdr_offsets[first..=last]
            .iter()
            .map(|&o| o - spec.hdr_range.0)
            .collect();
        let index = VolumeIndex {
            molecule: vol.index.molecule,
            title: vol.index.title.clone(),
            base_oid: spec.base_oid,
            volume_stats: DbStats {
                num_sequences: spec.num_seqs(),
                total_residues: spec.residues,
            },
            global_stats: vol.index.global_stats,
            seq_offsets,
            hdr_offsets,
        };
        out.push(EncodedVolume {
            name: format!("{}.frag{:03}", db.alias.title, fi),
            idx: index.encode(),
            seq: vol.seq[slo..shi].to_vec(),
            hdr: vol.hdr[hlo..hhi].to_vec(),
            index,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formatdb::{format_records, FormatDbConfig};
    use blast_core::alphabet::Molecule;
    use blast_core::seq::SeqRecord;

    fn make_db(lens: &[usize]) -> FormattedDb {
        let recs: Vec<SeqRecord> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| SeqRecord {
                defline: format!("gi|{i}| seq {i}"),
                residues: vec![(i % 20) as u8; len],
                molecule: Molecule::Protein,
            })
            .collect();
        format_records(&recs, &FormatDbConfig::protein("t"))
    }

    fn check_partition(db: &FormattedDb, specs: &[FragmentSpec]) {
        // Fragments cover every sequence exactly once, in order.
        let mut oid = 0u64;
        for s in specs {
            assert_eq!(s.base_oid, oid, "fragments must chain");
            assert!(s.last_seq > s.first_seq, "no empty fragments");
            oid += s.num_seqs();
        }
        assert_eq!(oid, db.stats().num_sequences);
    }

    #[test]
    fn fragments_partition_the_database() {
        let db = make_db(&[10, 20, 30, 40, 50, 60, 10, 20, 30, 40]);
        let indexes: Vec<&VolumeIndex> = db.volumes.iter().map(|v| &v.index).collect();
        for n in [1, 2, 3, 4, 7, 10] {
            let specs = virtual_fragments(&indexes, n);
            assert_eq!(specs.len(), n, "n = {n}");
            check_partition(&db, &specs);
        }
    }

    #[test]
    fn more_fragments_than_sequences_saturates() {
        let db = make_db(&[10, 20, 30]);
        let indexes: Vec<&VolumeIndex> = db.volumes.iter().map(|v| &v.index).collect();
        let specs = virtual_fragments(&indexes, 10);
        assert_eq!(specs.len(), 3);
        check_partition(&db, &specs);
    }

    #[test]
    fn fragments_are_residue_balanced() {
        let db = make_db(&[100; 64]);
        let indexes: Vec<&VolumeIndex> = db.volumes.iter().map(|v| &v.index).collect();
        let specs = virtual_fragments(&indexes, 8);
        for s in &specs {
            assert_eq!(s.residues, 800);
        }
    }

    #[test]
    fn byte_ranges_slice_the_right_residues() {
        let db = make_db(&[5, 7, 11, 13]);
        let indexes: Vec<&VolumeIndex> = db.volumes.iter().map(|v| &v.index).collect();
        let specs = virtual_fragments(&indexes, 2);
        let vol = &db.volumes[0];
        let total: u64 = specs.iter().map(|s| s.residues).sum();
        assert_eq!(total, 36);
        // Concatenating all fragments' seq bytes re-creates the volume.
        let mut rebuilt = Vec::new();
        for s in &specs {
            rebuilt.extend_from_slice(&vol.seq[s.seq_range.0 as usize..s.seq_range.1 as usize]);
        }
        assert_eq!(rebuilt, vol.seq);
    }

    #[test]
    fn idx_table_ranges_decode_correct_offsets() {
        let db = make_db(&[5, 7, 11, 13, 17]);
        let indexes: Vec<&VolumeIndex> = db.volumes.iter().map(|v| &v.index).collect();
        let specs = virtual_fragments(&indexes, 3);
        let vol = &db.volumes[0];
        for s in &specs {
            let (lo, hi) = s.idx_seq_range;
            let slice = &vol.idx[lo as usize..hi as usize];
            assert_eq!(slice.len() as u64, 8 * (s.num_seqs() + 1));
            let first = u64::from_le_bytes(slice[..8].try_into().unwrap());
            assert_eq!(first, s.seq_range.0);
            let last = u64::from_le_bytes(slice[slice.len() - 8..].try_into().unwrap());
            assert_eq!(last, s.seq_range.1);
        }
    }

    #[test]
    fn multi_volume_fragments_respect_volume_bounds() {
        let recs: Vec<SeqRecord> = (0..12)
            .map(|i| SeqRecord {
                defline: format!("s{i}"),
                residues: vec![0u8; 10],
                molecule: Molecule::Protein,
            })
            .collect();
        let cfg = FormatDbConfig {
            title: "mv".into(),
            molecule: Molecule::Protein,
            volume_residue_cap: Some(40),
        };
        let db = format_records(&recs, &cfg);
        assert!(db.volumes.len() == 3);
        let indexes: Vec<&VolumeIndex> = db.volumes.iter().map(|v| &v.index).collect();
        let specs = virtual_fragments(&indexes, 6);
        assert_eq!(specs.len(), 6);
        check_partition(&db, &specs);
        for s in &specs {
            // Each fragment's sequence range lies within its own volume.
            let vol_seqs = db.volumes[s.volume].index.num_seqs() as u64;
            assert!(s.last_seq <= vol_seqs);
        }
    }

    #[test]
    fn split_pieces_partition_the_records_and_byte_ranges_of_any_fragment() {
        let db = make_db(&[5, 7, 11, 13, 17, 1, 0, 30, 2, 9, 4]);
        let idx = &db.volumes[0].index;
        for n in 1..=6 {
            for spec in virtual_fragments(&[idx], n) {
                for k in 1..=14 {
                    let pieces = split(idx, &spec, k);
                    let what = format!("{spec:?} into {k}");
                    assert_eq!(
                        pieces.len() as u64,
                        (k as u64).min(spec.num_seqs()),
                        "{what}"
                    );
                    // The pieces chain from the fragment's first record
                    // and byte to its last, none empty.
                    let (first, last) = (&pieces[0], &pieces[pieces.len() - 1]);
                    assert_eq!(first.first_seq, spec.first_seq, "{what}");
                    assert_eq!(last.last_seq, spec.last_seq, "{what}");
                    assert_eq!(first.base_oid, spec.base_oid, "{what}");
                    let ranges = |p: &FragmentSpec| {
                        [p.seq_range, p.hdr_range, p.idx_seq_range, p.idx_hdr_range]
                    };
                    let whole = ranges(&spec).into_iter();
                    let ends = ranges(first).into_iter().zip(ranges(last));
                    for (range, (head, tail)) in whole.zip(ends) {
                        assert_eq!((head.0, tail.1), range, "{what}");
                    }
                    for pair in pieces.windows(2) {
                        let (a, b) = (&pair[0], &pair[1]);
                        assert!(a.last_seq > a.first_seq, "{what}");
                        assert_eq!(a.last_seq, b.first_seq, "{what}");
                        assert_eq!(b.base_oid, a.base_oid + a.num_seqs(), "{what}");
                        assert_eq!(a.seq_range.1, b.seq_range.0, "{what}");
                        assert_eq!(a.hdr_range.1, b.hdr_range.0, "{what}");
                        // The `.idx` slices share their boundary entry.
                        assert_eq!(a.idx_seq_range.1 - 8, b.idx_seq_range.0, "{what}");
                        assert_eq!(a.idx_hdr_range.1 - 8, b.idx_hdr_range.0, "{what}");
                    }
                    let residues: u64 = pieces.iter().map(|p| p.residues).sum();
                    assert_eq!(residues, spec.residues, "{what}");
                    // Each piece is the spec of its own records.
                    for p in &pieces {
                        assert_eq!(*p, make_spec(0, idx, p.first_seq, p.last_seq), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn read_ahead_pieces_start_small_and_at_least_double() {
        let lens: Vec<usize> = (0..200).map(|i| 1 + (i * 37) % 90).collect();
        let db = make_db(&lens);
        let idx = &db.volumes[0].index;
        let whole = IndexSlice::of_volume(0, idx);
        for n in 1..=5 {
            for spec in virtual_fragments(&[idx], n) {
                // The fragment's own slice cuts as the volume's does.
                let (a, b) = (spec.first_seq as usize, spec.last_seq as usize + 1);
                let own =
                    IndexSlice::of_fragment(&spec, &idx.seq_offsets[a..b], &idx.hdr_offsets[a..b])
                        .expect("the volume's tables fit the spec");
                for first in [16u64, 100, 700, 2_000, 1 << 20] {
                    let pieces = own.read_ahead(&spec, first);
                    assert_eq!(pieces, whole.read_ahead(&spec, first));
                    let what = format!("{spec:?} from {first}");
                    let size = |p: &FragmentSpec| p.seq_range.1 - p.seq_range.0;
                    if size(&spec) < 2 * first {
                        assert_eq!(pieces, vec![spec], "{what}");
                        continue;
                    }
                    assert_eq!(pieces.iter().map(size).sum::<u64>(), size(&spec), "{what}");
                    // The first piece is the smallest prefix of `first` bytes.
                    let head = &pieces[0];
                    assert!(size(head) >= first, "{what}");
                    let shorter = make_spec(0, idx, head.first_seq, head.last_seq - 1);
                    assert!(pieces.len() == 1 || size(&shorter) < first, "{what}");
                    for pair in pieces.windows(2) {
                        assert_eq!(pair[0].last_seq, pair[1].first_seq, "{what}");
                        assert!(size(&pair[1]) >= 2 * size(&pair[0]), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_fragments_slice_must_be_the_tables_its_spec_names() {
        let db = make_db(&[5, 7, 11, 13, 17]);
        let idx = &db.volumes[0].index;
        let spec = make_spec(0, idx, 1, 4);
        let (seq, hdr) = (&idx.seq_offsets[1..5], &idx.hdr_offsets[1..5]);
        assert!(IndexSlice::of_fragment(&spec, seq, hdr).is_some());
        // One entry short, one too many, shifted, and decreasing.
        assert!(IndexSlice::of_fragment(&spec, &seq[..3], hdr).is_none());
        assert!(IndexSlice::of_fragment(&spec, seq, &idx.hdr_offsets[1..6]).is_none());
        assert!(IndexSlice::of_fragment(&spec, &idx.seq_offsets[0..4], hdr).is_none());
        let bent = [seq[0], seq[2], seq[1], seq[3]];
        assert!(IndexSlice::of_fragment(&spec, &bent, hdr).is_none());
    }

    #[test]
    fn physical_fragments_carry_global_stats() {
        let db = make_db(&[10, 20, 30, 40, 50]);
        let frags = physical_fragments(&db, 3);
        assert_eq!(frags.len(), 3);
        let mut seqs = 0u64;
        for f in &frags {
            assert_eq!(f.index.global_stats, db.stats());
            seqs += f.index.volume_stats.num_sequences;
            // Fragment index decodes from its own bytes.
            let back = VolumeIndex::decode(&f.idx).unwrap();
            assert_eq!(back, f.index);
            // Offsets are rebased to the fragment file.
            assert_eq!(back.seq_offsets[0], 0);
            assert_eq!(*back.seq_offsets.last().unwrap() as usize, f.seq.len());
        }
        assert_eq!(seqs, 5);
    }

    #[test]
    fn requested_63_like_the_paper_may_yield_fewer() {
        // The paper could not get 63 fragments out of mpiformatdb (got 61);
        // our analogue: more fragments than sequences saturates.
        let db = make_db(&[10; 61]);
        let frags = physical_fragments(&db, 63);
        assert_eq!(frags.len(), 61);
    }
}
