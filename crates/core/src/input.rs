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

use blast_core::alphabet::Molecule;
use mpiio::{merge, Cover, FileView, IoPlane};
use seqfmt::FragmentData;

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
}
