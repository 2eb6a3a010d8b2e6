//! Property-based tests of the file-system contention model.

use parafs::{FsProfile, SimFs};
use proptest::prelude::*;
use simcluster::{Sim, SimDuration};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Under any pattern of concurrent staggered reads, (a) every byte
    /// requested is delivered exactly once (conservation), and (b) no
    /// transfer finishes faster than the uncontended bound or slower than
    /// the fully-serialized bound.
    #[test]
    fn processor_sharing_bounds_hold(
        sizes in prop::collection::vec(10_000u64..2_000_000, 2..8),
        delays_ms in prop::collection::vec(0u64..50, 2..8),
    ) {
        let n = sizes.len().min(delays_ms.len());
        let sizes = sizes[..n].to_vec();
        let delays = delays_ms[..n].to_vec();
        let profile = FsProfile {
            per_client_bw: 100.0e6,
            aggregate_bw: 250.0e6,
            op_latency: 0.0005,
        };
        let total: u64 = sizes.iter().sum();
        let sim = Sim::new(n);
        let fs = SimFs::new(sim.handle(), "prop", profile);
        fs.preload("f", vec![0u8; total as usize]);
        let offsets: Vec<u64> = sizes
            .iter()
            .scan(0u64, |acc, &s| {
                let o = *acc;
                *acc += s;
                Some(o)
            })
            .collect();
        let sizes2 = sizes.clone();
        let delays2 = delays.clone();
        let offsets2 = offsets.clone();
        let fs2 = fs.clone();
        let out = sim.run(move |ctx| {
            let r = ctx.rank();
            ctx.charge(SimDuration::from_millis(delays2[r]));
            let start = ctx.now();
            let data = fs2.read_at(&ctx, "f", offsets2[r], sizes2[r]).unwrap();
            assert_eq!(data.len() as u64, sizes2[r]);
            (start.as_secs_f64(), ctx.now().as_secs_f64())
        });
        // Conservation.
        prop_assert_eq!(fs.counters().bytes_read, total);
        // Per-transfer bounds.
        for (r, &(start, end)) in out.outputs.iter().enumerate() {
            let dur = end - start;
            let floor = profile.op_latency + sizes[r] as f64 / profile.per_client_bw;
            // Upper bound: latency + everything serialized through the
            // aggregate pipe (loose but always valid).
            let ceil = profile.op_latency + total as f64 / profile.aggregate_bw
                + 0.05 /* staggering slack */;
            prop_assert!(dur >= floor - 1e-9, "rank {r}: {dur} < floor {floor}");
            prop_assert!(dur <= ceil + 1e-9, "rank {r}: {dur} > ceil {ceil}");
        }
    }

    /// Writes then reads round-trip arbitrary interleaved chunks.
    #[test]
    fn write_read_round_trip(
        chunks in prop::collection::vec((0u64..5_000, 1usize..400), 1..20),
    ) {
        let sim = Sim::new(1);
        let fs = SimFs::new(sim.handle(), "prop", FsProfile::altix_xfs());
        let chunks2 = chunks.clone();
        let fs2 = fs.clone();
        sim.run(move |ctx| {
            let mut mirror: Vec<u8> = Vec::new();
            for (i, &(off, len)) in chunks2.iter().enumerate() {
                let data = vec![(i % 251) as u8; len];
                fs2.write_at(&ctx, "f", off, data.clone()).unwrap();
                let end = off as usize + len;
                if mirror.len() < end {
                    mirror.resize(end, 0);
                }
                mirror[off as usize..end].copy_from_slice(&data);
            }
            let got = fs2.read_all(&ctx, "f").unwrap();
            assert_eq!(got, mirror);
        });
    }
}
