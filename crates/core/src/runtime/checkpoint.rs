//! Fragment checkpointing (`Recover` + [`RunPolicy::checkpoint`]):
//! workers persist each searched `(batch, fragment)` — submission
//! metadata plus the formatted record bytes — before acknowledging the
//! grant. When a worker dies, the master looks its fragments up here:
//! probe, decode, validate, and adopt each valid blob's payload into its
//! one orphan [`ResultCache`] at once, whose metadata is spliced into the
//! merge and whose records ride to the live workers with their own
//! assignments. The machine requeues only the fragments no valid blob
//! covers, re-cut into pieces ([`cut_pieces`]) when survivors would
//! otherwise idle. A blob is deterministic in its key, so rewrites in
//! retried epochs are idempotent. The master lets go of a batch's
//! adopted payloads when the batch seals; the run drops every blob at
//! the end, for every fragment id and piece id it created, in one posted
//! set of deletes.
//!
//! [`RunPolicy::checkpoint`]: super::RunPolicy::checkpoint

use mpiblast::wire::{FragmentCheckpoint, MetaSubmission};
use mpiio::IoPlane;
use parafs::StoreError;
use seqfmt::{VolumeIndex, Wire};

use crate::app::PioBlastConfig;
use crate::cache::{FragmentPayload, ResultCache};
use crate::proto::FragmentAssignment;

/// Shared-file-system path of one `(batch, fragment)` checkpoint blob.
fn path(cfg: &PioBlastConfig, batch: usize, fragment: usize) -> String {
    format!("{}.ckpt.b{batch}.f{fragment}", cfg.output_path)
}

/// The outcome of a checkpoint put, at the put or at its join. A failure
/// (a full file system) degrades, not aborts: the blob is simply absent,
/// exactly as if the worker had died mid-checkpoint, and recovery
/// re-queues the fragment.
fn landed(put: Result<(), StoreError>) {
    if let Err(e) = put {
        tracelog::instant(
            tracelog::Lane::Io,
            "ckpt.skipped",
            vec![("error", e.to_string().into())],
        );
    }
}

/// Persist one searched fragment. Fired and parked in the plane on the
/// posted policy (the default), joined by [`join_all`] before the
/// fragment is acknowledged: at the grant's ack on the dynamic schedule,
/// at the epoch fence on the static one. Joined here on the serial plane.
pub(super) fn put(
    io: &IoPlane<'_, '_>,
    cfg: &PioBlastConfig,
    batch: usize,
    fragment: u32,
    (meta, records): FragmentPayload,
) {
    let blob = FragmentCheckpoint {
        batch: batch as u32,
        fragment,
        meta,
        records,
    }
    .encode();
    landed(io.checkpoint_put(&path(cfg, batch, fragment as usize), blob));
}

/// Join every checkpoint put the plane still has in flight.
pub(super) fn join_all(io: &IoPlane<'_, '_>) {
    while let Some(joined) = io.checkpoint_join() {
        landed(joined);
    }
}

/// Drop every blob the run may have written: each batch's blob of every
/// fragment id the run created, pieces included, the deletes posted
/// together behind one staging fence.
pub(super) fn drop_all(io: &IoPlane<'_, '_>, cfg: &PioBlastConfig, nbatches: usize, nids: usize) {
    let paths: Vec<String> = (0..nbatches)
        .flat_map(|b| (0..nids).map(move |f| path(cfg, b, f)))
        .collect();
    let _ = io.checkpoint_drop_all(&paths);
}

/// The master's side: which of the dead `(owner, fragment)` pairs have a
/// valid blob for `batch`, in the order given. Each valid blob's payload
/// is adopted into `orphans`, the master's cache. A partial write (the
/// owner died mid-checkpoint) decodes as garbage and counts as absent;
/// so does a blob whose metadata does not `fit` the batch.
pub(super) fn find(
    io: &IoPlane<'_, '_>,
    cfg: &PioBlastConfig,
    batch: usize,
    owned: impl Iterator<Item = (usize, usize)>,
    fits: impl Fn(usize, &MetaSubmission) -> bool,
    orphans: &mut ResultCache,
) -> Vec<usize> {
    let mut found = Vec::new();
    for (w, f) in owned {
        let Ok(blob) = io.checkpoint_get(&path(cfg, batch, f)) else {
            continue;
        };
        let Ok(ck) = FragmentCheckpoint::decode(&blob) else {
            continue;
        };
        if fits(w, &ck.meta) && ck.batch as usize == batch && ck.fragment as usize == f {
            orphans.adopt((ck.meta, ck.records));
            found.push(f);
        }
    }
    found
}

/// Re-cut each fragment of `frags` into up to `k` pieces at record
/// boundaries (`seqfmt::frag::split`), registering the pieces'
/// assignments under fresh ids after every id in `assignments`. Returns
/// `(fragment, piece ids)` for each fragment that was cut; one that
/// cannot be (a single record, or `k == 1`) is left out and requeues
/// whole.
pub(super) fn cut_pieces(
    assignments: &mut Vec<FragmentAssignment>,
    indexes: &[VolumeIndex],
    frags: &[usize],
    k: usize,
) -> Vec<(usize, Vec<usize>)> {
    let mut pieces = Vec::new();
    for &f in frags {
        let Some(parent) = assignments.get(f).cloned() else {
            continue;
        };
        let Some(idx) = indexes.get(parent.spec.volume) else {
            continue;
        };
        let specs = seqfmt::frag::split(idx, &parent.spec, k);
        if specs.len() < 2 {
            continue;
        }
        let first = assignments.len();
        assignments.extend(specs.into_iter().map(|spec| FragmentAssignment {
            spec,
            volume_name: parent.volume_name.clone(),
        }));
        pieces.push((f, (first..assignments.len()).collect()));
    }
    pieces
}
