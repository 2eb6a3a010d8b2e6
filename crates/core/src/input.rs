//! The parallel input stage.
//!
//! pioBLAST's default input is *individual* MPI-IO: each worker issues one
//! ranged read per file region (the paper: "since each worker accesses a
//! single, sequential part of the global files, we use the individual I/O
//! interfaces of MPI-IO in the input phase"). This module also implements
//! the design alternative the paper's §4 discusses — reading the global
//! files *collectively*: every rank participates in one two-phase
//! collective read per shared file, which shines when fragments are fine
//! (many noncontiguous ranges per worker) or the file system punishes
//! small independent reads.
//!
//! Both modes are one function, [`read_fragments`]: the caller hands the
//! rank's [`IoPlane`] and the plane's input class decides how the posted
//! views are serviced. Where reads are collective every rank must call
//! this with the same volume list (the master joins with empty
//! assignments); otherwise — dynamic grants, fault epochs — each rank
//! reads only the volumes it was actually assigned, with no global sync,
//! and where the plane posts reads a volume's three file reads are in
//! flight together.
//!
//! A fragment searched as it arrives, where the plane posts reads, can
//! also be read ahead in record-aligned pieces ([`ReadAhead`]): its
//! index slices first, then one piece's `.seq` and `.hdr` in flight
//! while the piece before it is searched.

use blast_core::alphabet::Molecule;
use mpiio::{merge, Cover, FileView, IoPlane, PostedViews, SIEVE_HOLE_LIMIT};
use seqfmt::frag::IndexSlice;
use seqfmt::reader::decode_table;
use seqfmt::{FragmentData, FragmentSpec};

use crate::proto::FragmentAssignment;

// Why the input stage failed: defined beside `PioError` in the shared
// substrate, which mpiBLAST's setup reports through too.
pub use mpiblast::InputError;

/// A fragment's four byte ranges as `(file, offset, len)` — `file` 0, 1
/// or 2 for the volume's `.idx`, `.seq` or `.hdr` — in the order
/// `FragmentData::from_ranges` takes them. The `(lo, hi)` pairs arrived
/// in a grant: an inverted one is a typed error, not an underflow.
fn file_ranges(a: &FragmentAssignment) -> Result<[(usize, u64, u64); 4], InputError> {
    let s = &a.spec;
    let mut out = [(0, 0, 0); 4];
    let named = [
        (0, "idx_seq", s.idx_seq_range),
        (0, "idx_hdr", s.idx_hdr_range),
        (1, "seq", s.seq_range),
        (2, "hdr", s.hdr_range),
    ];
    for (slot, (file, name, (lo, hi))) in out.iter_mut().zip(named) {
        let len = hi.checked_sub(lo).ok_or_else(|| {
            InputError::Fragment(format!(
                "sequences [{}, {}) of {}: {name}_range ({lo}, {hi}) is inverted",
                s.first_seq, s.last_seq, a.volume_name
            ))
        })?;
        *slot = (file, lo, len);
    }
    Ok(out)
}

/// Read this rank's assigned fragment ranges of the shared database files
/// through the I/O plane and materialize the fragments.
///
/// Where reads are collective ([`IoPlane::collective_reads`]) every rank
/// must call this with the same `volume_names`, in the same order — it
/// posts one collective read per volume file, and ranks with nothing to
/// read (the master) join with empty views. Otherwise only the volumes
/// with assignments are touched, so any subset of ranks can call at any
/// time.
///
/// Each volume's three files go to the plane as one view set
/// ([`IoPlane::read_views`]), so the plane decides whether their reads
/// overlap or are serviced one after another, and the fragments are
/// sliced out of the covers it hands back: each fragment's residues and
/// deflines are views of the bytes the file system returned, not copies.
pub fn read_fragments(
    plane: &IoPlane,
    volume_names: &[String],
    assignments: &[FragmentAssignment],
    molecule: Molecule,
) -> Result<Vec<FragmentData>, InputError> {
    let ranges: Vec<_> = assignments
        .iter()
        .map(file_ranges)
        .collect::<Result<_, _>>()?;
    // Per volume, the covers of its three files.
    let mut covers: Vec<Vec<Cover>> = Vec::with_capacity(volume_names.len());
    for vol in volume_names {
        let mut spans: [Vec<(u64, u64)>; 3] = Default::default();
        for (a, ranges) in assignments.iter().zip(&ranges) {
            if a.volume_name == *vol {
                for &(file, lo, len) in ranges {
                    spans[file].push((lo, len));
                }
            }
        }
        if spans[0].is_empty() && !plane.collective_reads() {
            // Nothing of ours in this volume (every fragment has index
            // ranges), and nobody is waiting for us in a collective —
            // skip its files entirely.
            covers.push(Vec::new());
            continue;
        }
        let mut files = Vec::with_capacity(3);
        for (ext, spans) in ["idx", "seq", "hdr"].iter().zip(spans) {
            // Adjacent fragments share a boundary entry of the index
            // tables, so the ranges of one file may overlap: merge.
            let view = FileView::new(0, merge(spans, 0))
                .map_err(|e| InputError::Fragment(format!("bad span set: {e}")))?;
            files.push((format!("db/{vol}.{ext}"), view));
        }
        let views: Vec<(&str, &FileView)> = files.iter().map(|(p, v)| (p.as_str(), v)).collect();
        covers.push(plane.read_views(&views)?);
    }

    // Materialize this rank's fragments from the covers.
    let fragment = |(a, ranges): (&FragmentAssignment, &[(usize, u64, u64); 4])| {
        let vi = volume_names
            .iter()
            .position(|v| *v == a.volume_name)
            .ok_or_else(|| {
                InputError::Fragment(format!("volume {} not in the alias", a.volume_name))
            })?;
        let held = |&(file, offset, len): &(usize, u64, u64)| {
            let cover = covers[vi].get(file);
            cover
                .and_then(|c| c.slice(offset, len))
                .ok_or(InputError::Uncovered { offset, len })
        };
        let [idx_seq, idx_hdr, seq, hdr] = ranges;
        FragmentData::from_ranges(
            molecule,
            a.spec.base_oid,
            &held(idx_seq)?,
            &held(idx_hdr)?,
            held(seq)?,
            held(hdr)?,
        )
        .map_err(|e| InputError::Fragment(e.to_string()))
    };
    assignments.iter().zip(&ranges).map(fragment).collect()
}

/// `.seq` bytes of a read-ahead fragment's first piece. One operation's
/// latency buys about 120 KB of transfer on both modeled file systems —
/// the rule [`SIEVE_HOLE_LIMIT`] is sized by — so a smaller piece is not
/// worth an operation of its own. Each later piece is at least twice the
/// one before it ([`IndexSlice::read_ahead`]).
pub const FIRST_PIECE: u64 = SIEVE_HOLE_LIMIT;

/// A fragment read in record-aligned pieces, each searched while the
/// next one's reads are in flight: its `.idx` table slices, read first
/// and held, the pieces they cut it into, and the reads of the next
/// piece to land.
pub struct ReadAhead<'p, 'c> {
    plane: &'p IoPlane<'p, 'c>,
    volume: String,
    molecule: Molecule,
    /// The fragment's two `.idx` table slices.
    index: Cover,
    pieces: Vec<FragmentSpec>,
    /// The piece whose reads are in flight, if any is left to land.
    next: usize,
    in_flight: Option<PostedViews<'p, 'c>>,
}

impl<'p, 'c> ReadAhead<'p, 'c> {
    /// Whether `a` is worth reading ahead: a fragment with less than two
    /// first pieces of `.seq` is read whole, its three files at once.
    pub fn worth_it(a: &FragmentAssignment) -> bool {
        let (lo, hi) = a.spec.seq_range;
        hi.saturating_sub(lo) >= 2 * FIRST_PIECE
    }

    /// Read `a`'s `.idx` table slices (one view, as [`read_fragments`]
    /// reads them), cut the fragment into its pieces, and post the first
    /// piece's `.seq` and `.hdr` reads.
    pub fn open(
        plane: &'p IoPlane<'p, 'c>,
        a: &FragmentAssignment,
        molecule: Molecule,
    ) -> Result<Self, InputError> {
        let [idx_seq, idx_hdr, ..] = file_ranges(a)?;
        let spans = vec![(idx_seq.1, idx_seq.2), (idx_hdr.1, idx_hdr.2)];
        let view = FileView::new(0, merge(spans, 0))
            .map_err(|e| InputError::Fragment(format!("bad span set: {e}")))?;
        let path = format!("db/{}.idx", a.volume_name);
        let index = plane.read_views(&[(&path, &view)])?.remove(0);
        let table = |(_, offset, len): (usize, u64, u64), what| {
            let bytes = index
                .slice(offset, len)
                .ok_or(InputError::Uncovered { offset, len })?;
            decode_table(&bytes, what).map_err(|e| InputError::Fragment(e.to_string()))
        };
        let seq = table(idx_seq, "seq offset table")?;
        let hdr = table(idx_hdr, "hdr offset table")?;
        let s = &a.spec;
        let slice = IndexSlice::of_fragment(s, &seq, &hdr).ok_or_else(|| {
            InputError::Fragment(format!(
                "sequences [{}, {}) of {}: the index tables disagree with the grant",
                s.first_seq, s.last_seq, a.volume_name
            ))
        })?;
        let mut reader = ReadAhead {
            plane,
            volume: a.volume_name.clone(),
            molecule,
            pieces: slice.read_ahead(s, FIRST_PIECE),
            index,
            next: 0,
            in_flight: None,
        };
        reader.in_flight = Some(reader.post(0)?);
        Ok(reader)
    }

    /// Wait for the piece in flight to land, post the next one's reads,
    /// and return the landed piece — so the caller's scan of it hides
    /// the next one's transfer. Its residues and deflines are views of
    /// the bytes the file system returned, its offset tables a part of
    /// the held index slices. `None` once every piece has landed.
    pub fn next_piece(&mut self) -> Result<Option<FragmentData>, InputError> {
        let Some(posted) = self.in_flight.take() else {
            return Ok(None);
        };
        let covers = self.plane.wait_views(posted)?;
        let p = self.pieces[self.next];
        self.next += 1;
        if self.next < self.pieces.len() {
            self.in_flight = Some(self.post(self.next)?);
        }
        let held = |cover: &Cover, (lo, hi): (u64, u64)| {
            let (offset, len) = (lo, hi - lo);
            cover
                .slice(offset, len)
                .ok_or(InputError::Uncovered { offset, len })
        };
        let piece = FragmentData::from_ranges(
            self.molecule,
            p.base_oid,
            &held(&self.index, p.idx_seq_range)?,
            &held(&self.index, p.idx_hdr_range)?,
            held(&covers[0], p.seq_range)?,
            held(&covers[1], p.hdr_range)?,
        );
        piece
            .map(Some)
            .map_err(|e| InputError::Fragment(e.to_string()))
    }

    /// Post piece `i`'s `.seq` and `.hdr` reads.
    fn post(&self, i: usize) -> Result<PostedViews<'p, 'c>, InputError> {
        let p = &self.pieces[i];
        let view = |(lo, hi): (u64, u64)| {
            FileView::new(0, vec![(lo, hi - lo)])
                .map_err(|e| InputError::Fragment(format!("bad span set: {e}")))
        };
        let (seq, hdr) = (view(p.seq_range)?, view(p.hdr_range)?);
        let (seq_path, hdr_path) = (
            format!("db/{}.seq", self.volume),
            format!("db/{}.hdr", self.volume),
        );
        Ok(self
            .plane
            .post_views(&[(&seq_path, &seq), (&hdr_path, &hdr)]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_inverted_range_in_an_assignment_is_a_typed_error() {
        // The ranges arrive in a grant. `seq_range = (10, 5)` used to be
        // `5 - 10`: a debug-build panic, a ~2^64-byte read in release.
        let sim = simcluster::Sim::new(1);
        let fs = parafs::SimFs::new(sim.handle(), "xfs", parafs::FsProfile::altix_xfs());
        let fs2 = fs.clone();
        let out = sim.run(move |ctx| {
            let net = mpisim::NetProfile {
                latency: 5e-6,
                bandwidth: 1e9,
            };
            let comm = mpisim::Comm::new(&ctx, net);
            let plane = IoPlane::new(&comm, &fs2, Default::default(), None);
            let spec = seqfmt::FragmentSpec {
                volume: 0,
                first_seq: 3,
                last_seq: 4,
                base_oid: 3,
                seq_range: (10, 5),
                hdr_range: (0, 8),
                idx_seq_range: (0, 16),
                idx_hdr_range: (16, 32),
                residues: 0,
            };
            let volume_name = "vol".to_string();
            let assignment = FragmentAssignment { spec, volume_name };
            read_fragments(
                &plane,
                &["vol".to_string()],
                &[assignment],
                Molecule::Protein,
            )
        });
        match &out.outputs[0] {
            Err(InputError::Fragment(what)) => {
                for part in ["[3, 4)", "vol", "seq_range (10, 5)"] {
                    assert!(what.contains(part), "{what}");
                }
            }
            other => panic!("expected a fragment error, got {other:?}"),
        }
        assert_eq!(fs.counters().data_ops, 0, "nothing was read for it");
    }

    mod cuts {
        use blast_core::format::ReportConfig;
        use blast_core::search::{BlastSearcher, PreparedQueries, SearchParams, SearchScratch};
        use blast_core::search::{FragmentResult, SubjectSource};
        use proptest::prelude::*;
        use seqfmt::formatdb::{format_records, FormatDbConfig};
        use seqfmt::frag::{virtual_fragments, IndexSlice};
        use seqfmt::synth::{generate, SynthConfig};
        use seqfmt::{FragmentData, FragmentSpec};

        use crate::cache::format_fragment;

        /// Every record-aligned cut of `spec` worth checking: into k
        /// balanced pieces for every k up to its record count, and by
        /// the read-ahead rule from first pieces of 1, 2, 4 and 8 KiB.
        fn cuts(slice: &IndexSlice, spec: &FragmentSpec) -> Vec<Vec<FragmentSpec>> {
            let k = (1..=spec.num_seqs() as usize).map(|k| slice.split(spec, k));
            let rule = [1u64, 2, 4, 8].map(|kib| slice.read_ahead(spec, kib << 10));
            k.chain(rule).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(6))]

            /// Cut a fragment at record boundaries any way: the pieces
            /// partition its records, `.seq` and `.hdr`; scanning them
            /// one by one and merging gives `search`'s result on the
            /// whole fragment, hits and stats alike; and the pieces,
            /// joined, format to the whole fragment's payload.
            #[test]
            fn any_record_aligned_cut_searches_and_formats_as_the_whole_fragment(
                seed in 0u64..1_000,
                nfrags in 1usize..=3,
            ) {
                let recs = generate(&SynthConfig::nr_like(seed, 24_000));
                let db = format_records(&recs, &FormatDbConfig::protein("cut-test"));
                let vol = &db.volumes[0];
                let queries: Vec<_> = [0, 7]
                    .iter()
                    .map(|&i| blast_core::seq::SeqRecord {
                        defline: format!("query_{i}"),
                        ..recs[i % recs.len()].clone()
                    })
                    .collect();
                let params = SearchParams::blastp();
                let prepared = PreparedQueries::prepare(&params, queries, db.stats());
                let report = ReportConfig::blastp("cut-test", db.stats());
                let searcher = BlastSearcher::new(&params, &prepared);
                let mut scratch = SearchScratch::new();
                let slice = IndexSlice::of_volume(0, &vol.index);
                for spec in virtual_fragments(&[&vol.index], nfrags) {
                    let whole = FragmentData::from_volume_slice(vol, &spec);
                    let want = searcher.search(&whole, &mut scratch);
                    let formatted =
                        format_fragment(&params, &report, &prepared, &whole, want.per_query.clone())
                            .expect("whole fragment formats");
                    for pieces in cuts(&slice, &spec) {
                        let what = format!("seed {seed}, {spec:?} in {} pieces", pieces.len());
                        // The pieces chain over the fragment's records and bytes.
                        let (head, tail) = (&pieces[0], &pieces[pieces.len() - 1]);
                        prop_assert_eq!(
                            (head.first_seq, head.seq_range.0, head.hdr_range.0),
                            (spec.first_seq, spec.seq_range.0, spec.hdr_range.0),
                            "{}", what
                        );
                        prop_assert_eq!(
                            (tail.last_seq, tail.seq_range.1, tail.hdr_range.1),
                            (spec.last_seq, spec.seq_range.1, spec.hdr_range.1),
                            "{}", what
                        );
                        for pair in pieces.windows(2) {
                            let (a, b) = (&pair[0], &pair[1]);
                            prop_assert!(a.first_seq < a.last_seq, "{}", what);
                            prop_assert_eq!(
                                (a.last_seq, a.seq_range.1, a.hdr_range.1),
                                (b.first_seq, b.seq_range.0, b.hdr_range.0),
                                "{}", what
                            );
                        }
                        // Scanned piece by piece, merged: the whole search.
                        let held: Vec<FragmentData> = pieces
                            .iter()
                            .map(|p| FragmentData::from_volume_slice(vol, p))
                            .collect();
                        let parts: Vec<FragmentResult> = held
                            .iter()
                            .map(|p| searcher.search_subject_range(p, 0..p.num_subjects(), &mut scratch))
                            .collect();
                        let got = searcher.merge_sharded(parts, &mut scratch);
                        prop_assert_eq!(&got.per_query, &want.per_query, "{}", what);
                        prop_assert_eq!(got.stats, want.stats, "{}", what);
                        // Joined, the pieces are the fragment, and format as it.
                        let joined = FragmentData::join(held).expect("pieces chain");
                        prop_assert_eq!(&joined, &whole, "{}", what);
                        prop_assert_eq!(joined.data_bytes(), whole.data_bytes(), "{}", what);
                        let again = format_fragment(&params, &report, &prepared, &joined, got.per_query)
                            .expect("joined fragment formats");
                        prop_assert_eq!(&again, &formatted, "{}", what);
                    }
                }
            }
        }
    }
}
