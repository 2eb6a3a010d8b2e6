//! One copy of every byte: the file systems hand reads out as views of
//! what they store, the input stage keeps those views, a view never
//! changes under a later write, and an output record handed to the plane
//! is stored as the very buffer it came in. Pointer equality is the
//! check — a copy anywhere on the path shows as a different address.

mod common;

use blast_core::Molecule;
use bytes::Bytes;
use mpiblast::setup::stage_shared_db;
use mpiblast::{ClusterEnv, Platform};
use mpiio::{CollectiveHints, FileView, IoOptions, IoPlane, PlaneConfig, Run};
use mpisim::{Collectives, Comm};
use parafs::{FsProfile, IoClass, SimFs};
use pioblast::input::read_fragments;
use pioblast::proto::FragmentAssignment;
use simcluster::Sim;

#[test]
fn a_read_inside_a_preloaded_file_is_a_view_of_the_stored_buffer() {
    let sim = Sim::new(1);
    let fs = SimFs::new(sim.handle(), "xfs", FsProfile::altix_xfs());
    let mut data: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
    data.shrink_to_fit();
    let base = data.as_ptr() as usize;
    fs.preload("f", data);
    let out = sim.run(move |ctx| {
        let blocking = fs.read_at(&ctx, "f", 4096, 8192).unwrap();
        let op = fs.read_at_begin(&ctx, "f", 999_000, 1000).unwrap();
        let posted = fs.io_wait(&ctx, op).unwrap();
        let whole = fs.read_all(&ctx, "f").unwrap();
        [blocking, posted, whole].map(|b| b.as_ptr() as usize)
    });
    assert_eq!(out.outputs[0], [base + 4096, base + 999_000, base]);
}

#[test]
fn read_fragments_keeps_views_of_the_stored_seq_buffer() {
    // Every fragment's residues lie inside the one buffer the store holds
    // for the volume's `.seq` file, on each class that reads ranges of it
    // (the two-phase class assembles its own buffer by design) and on
    // both issue policies.
    let db = common::small_db(1);
    let vol = db.alias.volumes[0].clone();
    let assignments: Vec<FragmentAssignment> =
        seqfmt::virtual_fragments(&[&db.volumes[0].index], 3)
            .into_iter()
            .map(|spec| FragmentAssignment {
                spec,
                volume_name: vol.clone(),
            })
            .collect();
    let platform = Platform::altix();
    let sim = Sim::new(1);
    let env = ClusterEnv::new(&sim, &platform);
    stage_shared_db(&env.shared, &db);
    let out = sim.run(|ctx| {
        let comm = Comm::new(&ctx, platform.net);
        let seq = env.shared.read_all(&ctx, &format!("db/{vol}.seq")).unwrap();
        let stored = seq.as_ptr_range();
        let mut checked = 0;
        for class in [IoClass::Independent, IoClass::Sieved] {
            for io_async in [false, true] {
                let cfg = PlaneConfig {
                    options: IoOptions {
                        io_async,
                        burst: None,
                    },
                    input: class,
                    ..PlaneConfig::default()
                };
                let plane = IoPlane::new(&comm, &env.shared, cfg, None);
                let volumes = [vol.clone()];
                let frags = read_fragments(&plane, &volumes, &assignments, Molecule::Protein)
                    .expect("the staged database reads");
                for (frag, a) in frags.iter().zip(&assignments) {
                    for oid in a.spec.base_oid..a.spec.base_oid + a.spec.num_seqs() {
                        let residues = frag.residues_of(oid as u32).expect("in the fragment");
                        assert!(
                            stored.contains(&residues.as_ptr()),
                            "{} io_async={io_async}: oid {oid} was copied",
                            class.label()
                        );
                        checked += 1;
                    }
                }
            }
        }
        checked
    });
    assert!(out.outputs[0] > 0);
}

#[test]
fn a_read_taken_before_an_overwrite_keeps_the_old_bytes() {
    // The snapshot a copy used to give: a read's bytes are what the file
    // held when its transfer completed, whatever lands afterwards —
    // blocking, or posted alongside the very write that overwrites it.
    let sim = Sim::new(1);
    let fs = SimFs::new(sim.handle(), "xfs", FsProfile::altix_xfs());
    fs.preload("f", vec![1u8; 1_000_000]);
    let fs2 = fs.clone();
    let out = sim.run(move |ctx| {
        let before = fs2.read_at(&ctx, "f", 0, 4096).unwrap();
        fs2.write_at(&ctx, "f", 0, vec![2u8; 500_000]).unwrap();
        let read = fs2.read_at_begin(&ctx, "f", 400_000, 200_000).unwrap();
        let write = fs2.write_at_begin(&ctx, "f", 300_000, vec![3u8; 700_000]);
        fs2.io_wait(&ctx, write).unwrap();
        let posted = fs2.io_wait(&ctx, read).unwrap();
        let after = fs2.read_at(&ctx, "f", 0, 1_000_000).unwrap();
        (before.to_vec(), posted.to_vec(), after.to_vec())
    });
    let (before, posted, after) = &out.outputs[0];
    assert_eq!(before, &vec![1u8; 4096]);
    let mut want = vec![2u8; 100_000];
    want.extend_from_slice(&[1u8; 100_000]);
    assert_eq!(posted, &want, "the read completed before the write landed");
    assert_eq!(&after[..300_000], &[2u8; 300_000][..]);
    assert_eq!(&after[300_000..], &[3u8; 700_000][..]);
    assert_eq!(fs.peek("f").unwrap(), *after);
}

#[test]
fn a_written_record_is_stored_as_the_buffer_it_was_handed_over_in() {
    // Each rank hands the plane two records as the pieces of one
    // payload. On the independent class every record is its own run; on
    // the two-phase class each rank aggregates the domain its records
    // fall in, so they are local chunks that never cross the wire.
    // Either way, and on both issue policies, a read of a record's range
    // afterwards is a view of that record's own buffer.
    let platform = Platform::altix();
    for class in [IoClass::Independent, IoClass::TwoPhase] {
        for io_async in [false, true] {
            let sim = Sim::new(2);
            let fs = SimFs::new(sim.handle(), "xfs", FsProfile::altix_xfs());
            let out = sim.run(|ctx| {
                let comm = Comm::new(&ctx, platform.net);
                let cfg = PlaneConfig {
                    options: IoOptions {
                        io_async,
                        burst: None,
                    },
                    hints: CollectiveHints { aggregators: 2 },
                    output: class,
                    ..PlaneConfig::default()
                };
                let plane = IoPlane::new(&comm, &fs, cfg, None);
                let me = ctx.rank() as u64;
                let regions = vec![(1000 * me, 100), (1000 * me + 300, 101)];
                let records: Vec<Bytes> = regions
                    .iter()
                    .map(|&(_, len)| Bytes::from(vec![me as u8 + 1; len as usize]))
                    .collect();
                let mut payload = Run::default();
                for record in &records {
                    payload.push(payload.len(), record.clone());
                }
                let view = FileView::new(0, regions.clone()).unwrap();
                plane.write_output("out", &view, payload).unwrap();
                comm.barrier();
                let stored = |(&(off, len), record): (&(u64, u64), &Bytes)| {
                    let read = fs.read_at(&ctx, "out", off, len).unwrap();
                    read == *record && read.as_ptr() == record.as_ptr()
                };
                regions
                    .iter()
                    .zip(&records)
                    .map(stored)
                    .collect::<Vec<bool>>()
            });
            for (rank, views) in out.outputs.iter().enumerate() {
                assert_eq!(
                    views,
                    &[true, true],
                    "{} io_async={io_async}: rank {rank}'s records were copied",
                    class.label()
                );
            }
        }
    }
}
