//! Fault-aware communication: typed errors and timed receives.
//!
//! The plain [`Comm`] operations assume every peer is alive
//! and block forever otherwise — matching stock MPI, where a lost rank
//! hangs the job. The operations here surface rank death (injected via
//! [`simcluster::FaultPlan`]) as typed errors instead, which is what the
//! fault-tolerant pioBLAST scheduler and the fail-fast mpiBLAST baseline
//! build on.

use std::fmt;

use bytes::Bytes;
use simcluster::{Message, SimDuration, SimTime};

use crate::comm::{Comm, RESERVED_TAG_BASE};

/// Why a checked send failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The destination rank is dead; the message would vanish.
    DeadPeer {
        /// The dead destination.
        rank: usize,
    },
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::DeadPeer { rank } => write!(f, "send failed: rank {rank} is dead"),
        }
    }
}

impl std::error::Error for SendError {}

/// Why a timed receive failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No matching message arrived by the deadline.
    Timeout {
        /// The deadline that passed.
        deadline: SimTime,
    },
    /// The awaited source rank has left the run — killed, or its body
    /// returned — with no matching message queued or in flight, so none
    /// can ever arrive.
    DeadPeer {
        /// The dead source.
        rank: usize,
    },
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Timeout { deadline } => {
                write!(f, "receive timed out at {deadline}")
            }
            RecvError::DeadPeer { rank } => {
                write!(f, "receive failed: rank {rank} is dead")
            }
        }
    }
}

impl std::error::Error for RecvError {}

impl Comm<'_> {
    /// Like [`Comm::send`], but fails with a typed error instead of
    /// silently losing the message when `dst` is dead.
    pub fn send_checked(&self, dst: usize, tag: u64, payload: Bytes) -> Result<(), SendError> {
        assert!(tag < RESERVED_TAG_BASE, "tag {tag} is reserved");
        if self.ctx().is_dead(dst) {
            tracelog::instant(
                tracelog::Lane::Sched,
                "send.dead",
                vec![("rank", dst.into())],
            );
            return Err(SendError::DeadPeer { rank: dst });
        }
        self.send(dst, tag, payload);
        Ok(())
    }

    /// Receive with an absolute deadline, traced as [`Comm::recv`] traces
    /// a receipt (a `recv.done` instant). Fails with
    /// [`RecvError::DeadPeer`] as soon as a specifically-awaited source
    /// dies (without waiting out the deadline), or at the deadline if it
    /// returned with nothing matching still on its way; otherwise with
    /// [`RecvError::Timeout`] when the deadline passes. A message still
    /// in flight from a source that returned (a latency longer than the
    /// wait) is a timeout: the next wait receives it.
    pub fn recv_deadline(
        &self,
        src: Option<usize>,
        tag: Option<u64>,
        deadline: SimTime,
    ) -> Result<Message, RecvError> {
        let ctx = self.ctx();
        match ctx.recv_until(src, tag, deadline) {
            Some(m) => {
                tracelog::instant(
                    tracelog::Lane::Net,
                    "recv.done",
                    vec![
                        ("src", m.src.into()),
                        ("tag", m.tag.into()),
                        ("bytes", m.payload.len().into()),
                    ],
                );
                Ok(m)
            }
            None => match src {
                Some(s) if ctx.is_dead(s) || (ctx.has_left(s) && !ctx.has_pending(src, tag)) => {
                    tracelog::instant(tracelog::Lane::Sched, "peer.dead", vec![("rank", s.into())]);
                    Err(RecvError::DeadPeer { rank: s })
                }
                _ => {
                    tracelog::instant(tracelog::Lane::Sched, "recv.timeout", Vec::new());
                    Err(RecvError::Timeout { deadline })
                }
            },
        }
    }

    /// [`Comm::recv_deadline`] with a deadline relative to now.
    pub fn recv_timeout(
        &self,
        src: Option<usize>,
        tag: Option<u64>,
        timeout: SimDuration,
    ) -> Result<Message, RecvError> {
        self.recv_deadline(src, tag, self.ctx().now() + timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetProfile;
    use simcluster::{FaultPlan, Sim};

    fn net() -> NetProfile {
        NetProfile {
            latency: 1e-6,
            bandwidth: 1e9,
        }
    }

    #[test]
    fn recv_timeout_expires_with_typed_error() {
        let sim = Sim::new(2);
        let out = sim.run(|ctx| {
            let comm = Comm::new(&ctx, net());
            if ctx.rank() == 0 {
                let err = comm
                    .recv_timeout(Some(1), Some(4), SimDuration::from_millis(3))
                    .unwrap_err();
                assert_eq!(
                    err,
                    RecvError::Timeout {
                        deadline: SimTime(3_000_000)
                    }
                );
                ctx.now()
            } else {
                // Sends far too late for the deadline.
                ctx.charge(SimDuration::from_secs(1));
                comm.send(0, 4, Bytes::from_static(b"late"));
                ctx.now()
            }
        });
        // The receiver resumed exactly at its deadline.
        assert_eq!(out.outputs[0], SimTime(3_000_000));
    }

    #[test]
    fn send_to_dead_peer_is_a_typed_error() {
        let sim = Sim::new(2);
        let plan = FaultPlan::none().kill_at(1, SimTime(1_000));
        let out = sim.run_faulty(plan, |ctx| {
            let comm = Comm::new(&ctx, net());
            if ctx.rank() == 0 {
                ctx.charge(SimDuration::from_micros(10));
                let err = comm
                    .send_checked(1, 2, Bytes::from_static(b"x"))
                    .unwrap_err();
                assert_eq!(err, SendError::DeadPeer { rank: 1 });
                true
            } else {
                let _ = ctx.recv(Some(0), None); // killed while blocked
                false
            }
        });
        assert_eq!(out.outputs[0], Some(true));
        assert_eq!(out.outputs[1], None);
    }

    #[test]
    fn recv_from_dead_peer_fails_fast() {
        let sim = Sim::new(2);
        let plan = FaultPlan::none().kill_at(1, SimTime(5_000));
        let out = sim.run_faulty(plan, |ctx| {
            let comm = Comm::new(&ctx, net());
            if ctx.rank() == 0 {
                // One-hour deadline, but the death at 5 us cuts it short.
                let err = comm
                    .recv_timeout(Some(1), None, SimDuration::from_secs(3600))
                    .unwrap_err();
                assert_eq!(err, RecvError::DeadPeer { rank: 1 });
                ctx.now()
            } else {
                let _ = ctx.recv(Some(0), None);
                SimTime::ZERO
            }
        });
        assert_eq!(out.outputs[0], Some(SimTime(5_000)));
    }

    #[test]
    fn a_source_that_returned_is_a_dead_peer_once_its_messages_are_in() {
        // Rank 1 sends one message over a 35 ms link and returns at once.
        // The receiver's 25 ms waits time out while the message is in
        // flight, then take it, then report the departed sender — where
        // they used to time out forever.
        let sim = Sim::new(2);
        let wan = NetProfile {
            latency: 0.035,
            bandwidth: 1e9,
        };
        let out = sim.run(|ctx| {
            let comm = Comm::new(&ctx, wan);
            if ctx.rank() == 1 {
                comm.send(0, 3, Bytes::from_static(b"last"));
                return Vec::new();
            }
            let mut got = Vec::new();
            loop {
                let r = comm.recv_timeout(Some(1), None, SimDuration::from_millis(25));
                let dead = matches!(r, Err(RecvError::DeadPeer { .. }));
                got.push((r.map(|m| m.tag), ctx.now()));
                if dead {
                    return got;
                }
            }
        });
        let arrival = SimTime(35_000_004);
        assert_eq!(
            out.outputs[0],
            vec![
                (
                    Err(RecvError::Timeout {
                        deadline: SimTime(25_000_000)
                    }),
                    SimTime(25_000_000)
                ),
                (Ok(3), arrival),
                (
                    Err(RecvError::DeadPeer { rank: 1 }),
                    arrival + SimDuration::from_millis(25)
                ),
            ]
        );
    }

    #[test]
    fn a_detecting_receive_from_a_peer_that_returned_fails() {
        // The worker side of the pump: a master that returned without a
        // word is a dead peer at the first sweep, not an endless one (which
        // the kill at 10 s would end with no output instead).
        let sim = Sim::new(2);
        let plan = FaultPlan::none().kill_at(0, SimTime(10_000_000_000));
        let out = sim.run_faulty(plan, |ctx| {
            let comm = Comm::new(&ctx, net());
            if ctx.rank() == 1 {
                return None;
            }
            let got = crate::sched::Pump::new(&comm, true).recv_from(1, None);
            Some((got.map(|m| m.tag), ctx.now()))
        });
        assert_eq!(
            out.outputs[0],
            Some(Some((
                Err(RecvError::DeadPeer { rank: 1 }),
                SimTime(25_000_000)
            )))
        );
    }

    #[test]
    fn in_flight_message_from_dead_sender_still_delivers() {
        let sim = Sim::new(2);
        // Killed after its first (and only) send: the message is on the
        // wire and must still arrive.
        let plan = FaultPlan::none().kill_after_sends(1, 1);
        let out = sim.run_faulty(plan, |ctx| {
            let comm = Comm::new(&ctx, net());
            if ctx.rank() == 0 {
                let m = comm
                    .recv_timeout(Some(1), Some(3), SimDuration::from_secs(1))
                    .expect("wire message survives the sender");
                m.payload.to_vec()
            } else {
                comm.send(0, 3, Bytes::from_static(b"will"));
                ctx.charge(SimDuration::from_secs(10)); // never completes
                Vec::new()
            }
        });
        assert_eq!(out.outputs[0].as_deref(), Some(&b"will"[..]));
        assert_eq!(out.killed, vec![1]);
    }
}
