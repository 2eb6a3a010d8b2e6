//! Property-based tests of the communication layer: collectives behave
//! like their specifications for arbitrary sizes, roots, and payloads.

use bytes::Bytes;
use mpisim::{Collectives, Comm, NetProfile};
use proptest::prelude::*;
use simcluster::{Sim, SimDuration};

fn net() -> NetProfile {
    NetProfile {
        latency: 7e-6,
        bandwidth: 5e8,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Broadcast delivers the root's exact payload to every rank, for any
    /// communicator size, root, payload, and per-rank start skew.
    #[test]
    fn bcast_is_correct(
        n in 2usize..17,
        root_pick in 0usize..100,
        payload in prop::collection::vec(any::<u8>(), 0..2000),
        skews in prop::collection::vec(0u64..20, 17),
    ) {
        let root = root_pick % n;
        let sim = Sim::new(n);
        let payload2 = payload.clone();
        let out = sim.run(move |ctx| {
            ctx.charge(SimDuration::from_millis(skews[ctx.rank()]));
            let comm = Comm::new(&ctx, net());
            let data = if ctx.rank() == root {
                Bytes::from(payload2.clone())
            } else {
                Bytes::new()
            };
            comm.bcast(root, data).to_vec()
        });
        for (r, got) in out.outputs.iter().enumerate() {
            prop_assert_eq!(got, &payload, "rank {}", r);
        }
    }

    /// Gather collects every rank's distinct payload at the root, in rank
    /// order; scatter distributes distinct pieces back.
    #[test]
    fn gather_scatter_are_correct(
        n in 2usize..13,
        root_pick in 0usize..100,
        lens in prop::collection::vec(0usize..300, 13),
    ) {
        let root = root_pick % n;
        let sim = Sim::new(n);
        let lens2 = lens.clone();
        let out = sim.run(move |ctx| {
            let comm = Comm::new(&ctx, net());
            let me = ctx.rank();
            let mine = Bytes::from(vec![me as u8; lens2[me]]);
            let gathered = comm.gather(root, mine);
            // Root validates and builds scatter pieces; others check their
            // piece.
            let pieces = gathered.map_or_else(Vec::new, |g| {
                for (r, b) in g.iter().enumerate() {
                    assert_eq!(b.len(), lens2[r]);
                    assert!(b.iter().all(|&x| x == r as u8));
                }
                (0..ctx.nranks())
                    .map(|r| Bytes::from(vec![(r * 2) as u8; lens2[r]]))
                    .collect()
            });
            let piece = comm.scatterv(root, pieces);
            piece.len() == lens2[me] && piece.iter().all(|&x| x == (me * 2) as u8)
        });
        prop_assert!(out.outputs.iter().all(|&ok| ok));
    }

    /// After a barrier, every rank's clock is at least the latest
    /// arrival time — no one escapes early.
    #[test]
    fn barrier_is_a_barrier(
        n in 2usize..20,
        skews in prop::collection::vec(0u64..40, 20),
    ) {
        let sim = Sim::new(n);
        let skews2 = skews.clone();
        let out = sim.run(move |ctx| {
            ctx.charge(SimDuration::from_millis(skews2[ctx.rank()]));
            let comm = Comm::new(&ctx, net());
            comm.barrier();
            ctx.now().0
        });
        let latest_arrival = skews[..n].iter().max().copied().unwrap() * 1_000_000;
        for (r, &t) in out.outputs.iter().enumerate() {
            prop_assert!(
                t >= latest_arrival,
                "rank {} left at {}ns before {}ns", r, t, latest_arrival
            );
        }
    }
}
