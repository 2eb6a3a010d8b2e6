//! Property-based tests of cross-crate invariants.

use blast_core::alphabet::Molecule;
use blast_core::seq::SeqRecord;
use proptest::prelude::*;
use seqfmt::formatdb::{format_records, FormatDbConfig};
use seqfmt::{virtual_fragments, FragmentData, VolumeIndex, Wire};

/// Arbitrary small protein records (encoded residues 0..20).
fn arb_records() -> impl Strategy<Value = Vec<SeqRecord>> {
    prop::collection::vec(
        (prop::collection::vec(0u8..20, 1..80), "[a-z]{1,12}"),
        1..24,
    )
    .prop_map(|items| {
        items
            .into_iter()
            .enumerate()
            .map(|(i, (residues, name))| SeqRecord {
                defline: format!("gi|{i}| {name}"),
                residues,
                molecule: Molecule::Protein,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// formatdb -> reader round-trips every residue and defline, for any
    /// record set and any volume cap.
    #[test]
    fn formatdb_round_trips(records in arb_records(), cap in prop::option::of(20u64..200)) {
        let cfg = FormatDbConfig {
            title: "prop".into(),
            molecule: Molecule::Protein,
            volume_residue_cap: cap,
        };
        let db = format_records(&records, &cfg);
        // Indexes decode from their own bytes.
        let mut seen = 0usize;
        for vol in &db.volumes {
            let decoded = VolumeIndex::decode(&vol.idx).unwrap();
            prop_assert_eq!(&decoded, &vol.index);
            let frag = FragmentData::from_volume(vol);
            use blast_core::search::SubjectSource;
            for i in 0..frag.num_subjects() {
                let s = frag.subject(i);
                let orig = &records[seen];
                prop_assert_eq!(s.residues, &orig.residues[..]);
                prop_assert_eq!(s.defline, orig.defline.as_bytes());
                prop_assert_eq!(s.oid as usize, seen);
                seen += 1;
            }
        }
        prop_assert_eq!(seen, records.len());
    }

    /// Virtual fragmentation is a partition: disjoint, covering, in
    /// order, for any record set and any requested fragment count; and
    /// materializing a fragment from its byte ranges equals slicing the
    /// volume directly.
    #[test]
    fn virtual_fragments_partition(records in arb_records(), n in 1usize..40) {
        let db = format_records(&records, &FormatDbConfig::protein("prop"));
        let indexes: Vec<&VolumeIndex> = db.volumes.iter().map(|v| &v.index).collect();
        let specs = virtual_fragments(&indexes, n);
        let mut oid = 0u64;
        for spec in &specs {
            prop_assert_eq!(spec.base_oid, oid);
            prop_assert!(spec.num_seqs() > 0);
            oid += spec.num_seqs();

            let vol = &db.volumes[spec.volume];
            let reference = FragmentData::from_volume_slice(vol, spec);
            let idx_seq = &vol.idx[spec.idx_seq_range.0 as usize..spec.idx_seq_range.1 as usize];
            let idx_hdr = &vol.idx[spec.idx_hdr_range.0 as usize..spec.idx_hdr_range.1 as usize];
            let seq = vol.seq[spec.seq_range.0 as usize..spec.seq_range.1 as usize].to_vec();
            let hdr = vol.hdr[spec.hdr_range.0 as usize..spec.hdr_range.1 as usize].to_vec();
            let from_ranges = FragmentData::from_ranges(
                Molecule::Protein, spec.base_oid, idx_seq, idx_hdr, seq, hdr,
            ).unwrap();
            prop_assert_eq!(from_ranges, reference);
        }
        prop_assert_eq!(oid, records.len() as u64);
    }

    /// FASTA write -> parse is the identity on encoded records, for any
    /// wrap width.
    #[test]
    fn fasta_round_trips(records in arb_records(), width in 1usize..100) {
        let text = blast_core::fasta::to_string(&records, width);
        let parsed = blast_core::fasta::parse(Molecule::Protein, text.as_bytes()).unwrap();
        prop_assert_eq!(parsed, records);
    }
}

mod collective_io {
    use super::*;
    use mpiio::{CollectiveHints, FileView, MpiFile};
    use mpisim::{Comm, NetProfile};
    use parafs::{FsProfile, SimFs};
    use simcluster::Sim;

    /// Per-rank disjoint region sets over a shared record grid.
    fn arb_layout() -> impl Strategy<Value = (usize, Vec<Vec<u64>>, usize)> {
        (2usize..6, 1usize..5, 1usize..40, 1usize..5).prop_flat_map(
            |(nranks, aggs, nrec, reclen)| {
                // Assign each record to a rank.
                prop::collection::vec(0..nranks, nrec)
                    .prop_map(move |owners| {
                        let mut per_rank: Vec<Vec<u64>> = vec![Vec::new(); nranks];
                        for (rec, owner) in owners.iter().enumerate() {
                            per_rank[*owner].push((rec * reclen) as u64);
                        }
                        (nranks, per_rank, reclen)
                    })
                    .prop_map(move |(nranks, per_rank, reclen)| {
                        let _ = aggs;
                        (nranks, per_rank, reclen)
                    })
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A two-phase collective write of any disjoint record layout
        /// produces exactly the bytes a serial writer would.
        #[test]
        fn collective_write_equals_serial((nranks, per_rank, reclen) in arb_layout(), aggs in 1usize..5) {
            let sim = Sim::new(nranks);
            let fs = SimFs::new(sim.handle(), "prop", FsProfile::altix_xfs());
            let fs2 = fs.clone();
            let per_rank2 = per_rank.clone();
            sim.run(move |ctx| {
                let comm = Comm::new(&ctx, NetProfile { latency: 1e-6, bandwidth: 1e9 });
                let offsets = &per_rank2[ctx.rank()];
                let regions: Vec<(u64, u64)> =
                    offsets.iter().map(|&o| (o, reclen as u64)).collect();
                let view = FileView::new(0, regions).unwrap();
                let data: Vec<u8> = offsets
                    .iter()
                    .flat_map(|&o| vec![(o / reclen as u64) as u8; reclen])
                    .collect();
                let file = MpiFile::open(&comm, &fs2, "f")
                    .with_hints(CollectiveHints { aggregators: aggs });
                file.write_at_all(&view, &data)
                    .expect("a collective write on an unbounded file system succeeds");
            });
            // Serial oracle.
            let total: usize = per_rank.iter().map(|v| v.len()).sum();
            if total > 0 {
                let max_off = per_rank
                    .iter()
                    .flatten()
                    .max()
                    .map(|&o| o as usize + reclen)
                    .unwrap();
                let mut expect = vec![0u8; max_off];
                for offsets in &per_rank {
                    for &o in offsets {
                        for i in 0..reclen {
                            expect[o as usize + i] = (o / reclen as u64) as u8;
                        }
                    }
                }
                prop_assert_eq!(fs.peek("f").unwrap(), expect);
            }
        }

        /// A two-phase collective read of any disjoint record layout
        /// returns exactly the bytes a serial reader would, in view order.
        #[test]
        fn collective_read_equals_serial((nranks, per_rank, reclen) in arb_layout(), aggs in 1usize..5) {
            let total_recs: usize = per_rank.iter().map(|v| v.len()).sum();
            if total_recs == 0 {
                return Ok(());
            }
            let file_len = per_rank
                .iter()
                .flatten()
                .max()
                .map(|&o| o as usize + reclen)
                .unwrap();
            let content: Vec<u8> = (0..file_len).map(|i| (i % 251) as u8).collect();
            let sim = Sim::new(nranks);
            let fs = SimFs::new(sim.handle(), "prop", FsProfile::altix_xfs());
            fs.preload("f", content.clone());
            let fs2 = fs.clone();
            let per_rank2 = per_rank.clone();
            let out = sim.run(move |ctx| {
                let comm = Comm::new(&ctx, NetProfile { latency: 1e-6, bandwidth: 1e9 });
                let offsets = &per_rank2[ctx.rank()];
                let regions: Vec<(u64, u64)> =
                    offsets.iter().map(|&o| (o, reclen as u64)).collect();
                let view = FileView::new(0, regions).unwrap();
                let file = MpiFile::open(&comm, &fs2, "f")
                    .with_hints(CollectiveHints { aggregators: aggs });
                file.read_at_all(&view).unwrap()
            });
            for (rank, got) in out.outputs.iter().enumerate() {
                let expect: Vec<u8> = per_rank[rank]
                    .iter()
                    .flat_map(|&o| content[o as usize..o as usize + reclen].to_vec())
                    .collect();
                prop_assert_eq!(got, &expect, "rank {}", rank);
            }
        }
    }
}
