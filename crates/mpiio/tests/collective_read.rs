//! A collective read whose aggregator cannot read its domain.
//!
//! `read_at_all` is a collective: every rank that needs a chunk of a
//! domain waits for that domain's aggregator to serve it, and every rank
//! ends in the closing barrier. An aggregator whose own file-system read
//! fails must therefore still serve its peers and join the barrier, or
//! the whole job deadlocks. The run goes through `Sim::try_run_faulty`,
//! so a deadlock comes back as `SimError::Deadlock` instead of a panic.

use mpiio::{CollectiveHints, FileView, MpiFile};
use mpisim::{Comm, NetProfile};
use parafs::{FsProfile, SimFs, StoreError};
use simcluster::{FaultPlan, Sim};

const RANKS: usize = 4;
/// The file holds 200 bytes; rank `r` reads `[60 r, 60 r + 60)`, so rank
/// 3's view runs 40 bytes past the end.
const FILE_LEN: usize = 200;
const PER_RANK: u64 = 60;

fn net() -> NetProfile {
    NetProfile {
        latency: 5e-6,
        bandwidth: 1e9,
    }
}

#[test]
fn a_view_past_eof_fails_its_domain_with_typed_errors_not_a_deadlock() {
    let sim = Sim::new(RANKS);
    let fs = SimFs::new(sim.handle(), "xfs", FsProfile::altix_xfs());
    let content: Vec<u8> = (0..FILE_LEN).map(|i| (i % 251) as u8).collect();
    fs.preload("db", content.clone());
    let outcome = sim
        .try_run_faulty(FaultPlan::none(), |ctx| {
            let comm = Comm::new(&ctx, net());
            // Two domains over [0, 240): rank 0 aggregates [0, 120) and
            // rank 2 aggregates [120, 240), whose merged run overruns the
            // file.
            let file =
                MpiFile::open(&comm, &fs, "db").with_hints(CollectiveHints { aggregators: 2 });
            let me = ctx.rank() as u64;
            file.read_at_all(&FileView::contiguous(PER_RANK * me, PER_RANK))
        })
        .unwrap_or_else(|e| panic!("the collective must complete on every rank: {e}"));
    let out: Vec<Result<Vec<u8>, StoreError>> = outcome
        .outputs
        .into_iter()
        .map(|o| o.expect("no rank was killed"))
        .collect();

    // The healthy domain's ranks get their bytes.
    for (r, got) in out.iter().enumerate().take(2) {
        let lo = r * PER_RANK as usize;
        assert_eq!(
            got.as_deref(),
            Ok(&content[lo..lo + PER_RANK as usize]),
            "rank {r}"
        );
    }
    // The failing aggregator returns the file system's own error ...
    assert!(
        matches!(
            out[2],
            Err(StoreError::OutOfRange {
                offset: 120,
                len: 120,
                size: 200,
                ..
            })
        ),
        "rank 2: {:?}",
        out[2]
    );
    // ... and the peer it serves gets an empty piece, which is corrupt.
    match &out[3] {
        Err(StoreError::Corrupt { what }) => {
            for part in ["rank 2", "0 bytes", "60-byte", "offset 180"] {
                assert!(what.contains(part), "{what}");
            }
        }
        other => panic!("rank 3: expected a corrupt-chunk error, got {other:?}"),
    }
}
