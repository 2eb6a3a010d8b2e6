//! Collective operations: barrier, broadcast, gather, scatter.
//!
//! Broadcast and barrier use binomial trees (O(log p) rounds); gather and
//! scatter are flat (root-centric), matching how mpiBLAST actually moves
//! data between master and workers. Every hop pays the point-to-point
//! cost model, so collective costs emerge rather than being assumed.

use bytes::Bytes;

use crate::comm::{Comm, RESERVED_TAG_BASE};

/// Tag-space layout for collectives: `RESERVED | op << 40 | seq`.
fn coll_tag(op: u64, seq: u64) -> u64 {
    RESERVED_TAG_BASE | (op << 40) | (seq & 0xFF_FFFF_FFFF)
}

const OP_BARRIER_GATHER: u64 = 1;
const OP_BARRIER_RELEASE: u64 = 2;
const OP_BCAST: u64 = 3;
const OP_GATHER: u64 = 4;
const OP_SCATTER: u64 = 5;

/// Collective operations over a [`Comm`]. All ranks of the communicator
/// must call the same collective in the same order (the usual MPI rule).
pub trait Collectives {
    /// Block until every rank has entered the barrier.
    fn barrier(&self);
    /// Broadcast `data` from `root`; every rank returns the payload.
    fn bcast(&self, root: usize, data: Bytes) -> Bytes;
    /// Gather each rank's `data` at `root`. Returns `Some(per-rank data)`
    /// on the root, `None` elsewhere.
    fn gather(&self, root: usize, data: Bytes) -> Option<Vec<Bytes>>;
    /// Scatter `pieces[i]` from `root` to rank `i`; each rank returns its
    /// piece. Only the root's `pieces` argument is read: other ranks pass
    /// an empty one.
    fn scatterv(&self, root: usize, pieces: Vec<Bytes>) -> Bytes;
}

impl Collectives for Comm<'_> {
    fn barrier(&self) {
        let seq = self.next_coll_seq();
        let _span = tracelog::span_args(tracelog::Lane::Net, "barrier", vec![("seq", seq.into())]);
        let me = self.rank();
        let n = self.size();
        if n == 1 {
            return;
        }
        // Gather-to-0 up a binomial tree, then release down it.
        let up = coll_tag(OP_BARRIER_GATHER, seq);
        let down = coll_tag(OP_BARRIER_RELEASE, seq);
        let mut mask = 1usize;
        while mask < n {
            if me & mask != 0 {
                let parent = me & !mask;
                self.send_internal(parent, up, Bytes::new());
                break;
            }
            let child = me | mask;
            if child < n {
                self.recv(Some(child), Some(up));
            }
            mask <<= 1;
        }
        // Release phase: parent wakes children in reverse order.
        let joined_mask = mask; // the mask at which we sent (or n for rank 0)
        if me != 0 {
            self.recv(None, Some(down));
        }
        let mut mask = joined_mask >> 1;
        while mask > 0 {
            let child = me | mask;
            if child < n && child != me {
                self.send_internal(child, down, Bytes::new());
            }
            mask >>= 1;
        }
    }

    fn bcast(&self, root: usize, data: Bytes) -> Bytes {
        let seq = self.next_coll_seq();
        let _span = tracelog::span_args(
            tracelog::Lane::Net,
            "bcast",
            vec![
                ("seq", seq.into()),
                ("root", root.into()),
                ("bytes", data.len().into()),
            ],
        );
        let tag = coll_tag(OP_BCAST, seq);
        let n = self.size();
        if n == 1 {
            return data;
        }
        let me = self.rank();
        let vrank = (me + n - root) % n;
        // MPICH binomial tree. Receive phase: scan masks upward; a rank's
        // parent clears its lowest set bit.
        let mut mask = 1usize;
        let mut data = data;
        while mask < n {
            if vrank & mask != 0 {
                let parent = ((vrank ^ mask) + root) % n;
                data = self.recv(Some(parent), Some(tag)).payload;
                break;
            }
            mask <<= 1;
        }
        // Send phase: children sit at vrank + m for every m below our
        // lowest set bit (or below n for the root), largest first.
        mask >>= 1;
        while mask > 0 {
            let child_v = vrank + mask;
            if child_v < n {
                self.send_internal((child_v + root) % n, tag, data.clone());
            }
            mask >>= 1;
        }
        data
    }

    fn gather(&self, root: usize, data: Bytes) -> Option<Vec<Bytes>> {
        let seq = self.next_coll_seq();
        let _span = tracelog::span_args(
            tracelog::Lane::Net,
            "gather",
            vec![
                ("seq", seq.into()),
                ("root", root.into()),
                ("bytes", data.len().into()),
            ],
        );
        let tag = coll_tag(OP_GATHER, seq);
        let me = self.rank();
        let n = self.size();
        if me == root {
            let mut out = vec![Bytes::new(); n];
            out[root] = data;
            for _ in 0..n - 1 {
                let m = self.recv(None, Some(tag));
                out[m.src] = m.payload;
            }
            Some(out)
        } else {
            self.send_internal(root, tag, data);
            None
        }
    }

    fn scatterv(&self, root: usize, pieces: Vec<Bytes>) -> Bytes {
        let seq = self.next_coll_seq();
        let _span = tracelog::span_args(
            tracelog::Lane::Net,
            "scatterv",
            vec![("seq", seq.into()), ("root", root.into())],
        );
        let tag = coll_tag(OP_SCATTER, seq);
        let me = self.rank();
        let n = self.size();
        if me == root {
            assert_eq!(pieces.len(), n, "need one piece per rank");
            let mut mine = Bytes::new();
            for (dst, piece) in pieces.into_iter().enumerate() {
                if dst == me {
                    mine = piece;
                } else {
                    self.send_internal(dst, tag, piece);
                }
            }
            mine
        } else {
            self.recv(Some(root), Some(tag)).payload
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetProfile;
    use simcluster::{Sim, SimDuration};

    fn net() -> NetProfile {
        NetProfile {
            latency: 10e-6,
            bandwidth: 1e9,
        }
    }

    fn with_ranks<R: Send + 'static>(n: usize, f: impl Fn(&Comm) -> R + Sync) -> Vec<R> {
        let sim = Sim::new(n);
        sim.run(|ctx| {
            let comm = Comm::new(&ctx, net());
            f(&comm)
        })
        .outputs
    }

    #[test]
    fn barrier_synchronizes_all_sizes() {
        for n in [1, 2, 3, 5, 8, 13, 32] {
            let sim = Sim::new(n);
            let out = sim.run(|ctx| {
                let comm = Comm::new(&ctx, net());
                // Stagger arrivals; everyone leaves after the latest.
                ctx.charge(SimDuration::from_millis(ctx.rank() as u64));
                comm.barrier();
                ctx.now().as_secs_f64()
            });
            let latest = (n - 1) as f64 * 1e-3;
            for (r, t) in out.outputs.iter().enumerate() {
                assert!(
                    *t >= latest,
                    "n={n} rank {r} left the barrier at {t} before the last arrival {latest}"
                );
            }
        }
    }

    #[test]
    fn bcast_delivers_to_everyone_from_any_root() {
        for n in [1, 2, 3, 4, 7, 16] {
            for root in [0, n - 1, n / 2] {
                let got = with_ranks(n, move |comm| {
                    let data = if comm.rank() == root {
                        Bytes::from(format!("payload-from-{root}"))
                    } else {
                        Bytes::new()
                    };
                    let out = comm.bcast(root, data);
                    String::from_utf8_lossy(&out).into_owned()
                });
                for (r, s) in got.iter().enumerate() {
                    assert_eq!(
                        s,
                        &format!("payload-from-{root}"),
                        "n={n} root={root} rank={r}"
                    );
                }
            }
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let got = with_ranks(6, |comm| {
            let data = Bytes::from(vec![comm.rank() as u8 * 3]);
            comm.gather(2, data)
                .map(|v| v.into_iter().map(|b| b[0]).collect::<Vec<u8>>())
        });
        for (r, o) in got.iter().enumerate() {
            if r == 2 {
                assert_eq!(o.as_ref().unwrap(), &vec![0, 3, 6, 9, 12, 15]);
            } else {
                assert!(o.is_none());
            }
        }
    }

    #[test]
    fn scatterv_distributes_pieces() {
        let got = with_ranks(5, |comm| {
            let pieces = match comm.rank() {
                1 => (0..5u8).map(|i| Bytes::from(vec![i, i + 10])).collect(),
                _ => Vec::new(),
            };
            let mine = comm.scatterv(1, pieces);
            (mine[0], mine[1])
        });
        for (r, &(a, b)) in got.iter().enumerate() {
            assert_eq!(a as usize, r);
            assert_eq!(b as usize, r + 10);
        }
    }

    #[test]
    fn consecutive_collectives_do_not_cross_talk() {
        let got = with_ranks(4, |comm| {
            let a = comm.bcast(
                0,
                if comm.rank() == 0 {
                    Bytes::from_static(b"first")
                } else {
                    Bytes::new()
                },
            );
            comm.barrier();
            let b = comm.bcast(
                0,
                if comm.rank() == 0 {
                    Bytes::from_static(b"second")
                } else {
                    Bytes::new()
                },
            );
            (a.to_vec(), b.to_vec())
        });
        for (a, b) in got {
            assert_eq!(a, b"first");
            assert_eq!(b, b"second");
        }
    }

    #[test]
    fn bcast_of_large_payload_is_log_depth() {
        // 8 ranks, 1 MB: a flat bcast would occupy the root 7 ms
        // (7 sends × 1 ms); binomial occupies it 3 ms.
        let slow = NetProfile {
            latency: 0.0,
            bandwidth: 1e9,
        };
        let sim = Sim::new(8);
        let out = sim.run(|ctx| {
            let comm = Comm::new(&ctx, slow);
            let data = if ctx.rank() == 0 {
                Bytes::from(vec![0u8; 1_000_000])
            } else {
                Bytes::new()
            };
            comm.bcast(0, data);
            ctx.now().as_secs_f64()
        });
        // Root sends exactly 3 copies at 1 ms each.
        assert!((out.outputs[0] - 0.003).abs() < 1e-9, "{out:?}");
        // The deepest leaf waits 3 hops.
        let max = out.outputs.iter().cloned().fold(0.0, f64::max);
        assert!((max - 0.003).abs() < 2e-3, "max {max}");
    }
}
