//! Differential test of the master state machine.
//!
//! The reference is the machine as it stood with a submission ledger
//! beside its grant queue, kept in `reference/`. Both machines are fed the
//! same random event streams under every policy `PioBlastConfig::validate`
//! accepts; after every event their actions (as `Debug` text), phase,
//! batch, epoch, per-rank ownership, live workers and orphan set must be
//! equal.
//!
//! The live machine hands each accepted submission to the run loop's
//! merger at once (`Absorb`) instead of holding it for the `Merge`, so
//! the comparison translates: the absorbs are taken out of the live
//! actions, and for each reference `Merge { subs }` the submissions the
//! live machine absorbed since its epoch opened must equal `subs` for
//! every rank that counts (the live workers), the other ranks' `subs`
//! being empty; the rest of the `Merge` must match as text.
//!
//! Except where the live machine pipelines batches, which the reference
//! never did: under a fail-fast service policy (point-to-point, no
//! `Recover`) a stream of more than one batch opens each next batch at
//! the merge. Those streams are checked against the pipeline's
//! invariants instead ([`replay_pipelined`]); one-batch streams and every
//! other policy row stay differential.

use mpiblast::wire::MetaSubmission;
use mpiblast::MASTER;
use pioblast::runtime::{MasterAction, MasterEvent, MasterPhase, MasterSm, RunPolicy};
use pioblast::{
    ClusterEnv, FaultMode, FragmentSchedule, PioBlastConfig, Platform, QueryStreamPlan,
    ServiceOptions,
};
use proptest::prelude::*;
use proptest::test_runner::TestRunner;

mod reference;

use reference::master as refm;

/// One policy row: `(schedule, fault, checkpoint, service, affinity)`.
type Row = (FragmentSchedule, FaultMode, bool, bool, bool);

/// Every `(schedule, fault, checkpoint, service, affinity)` combination
/// the configuration accepts.
fn accepted_rows() -> Vec<Row> {
    use FaultMode::{Off, Recover};
    use FragmentSchedule::{Dynamic, Static};
    let platform = Platform::altix();
    let env = ClusterEnv::new(&simcluster::Sim::new(2), &platform);
    let base = || PioBlastConfig::new(&platform, &env, "db.pal", "queries.fa", "results.txt");
    let plan = QueryStreamPlan::generate(1, 1, 1, 1_000, 7);
    let mut rows = Vec::new();
    for schedule in [Static, Dynamic] {
        for fault in [Off, Recover] {
            for checkpoint in [false, true] {
                for service in [false, true] {
                    for affinity in [false, true] {
                        if affinity && !service {
                            continue; // affinity is a field of the service options
                        }
                        let cfg = PioBlastConfig {
                            schedule,
                            fault,
                            checkpoint,
                            service: service.then(|| ServiceOptions {
                                plan: plan.clone(),
                                resident_bytes: 0,
                                affinity,
                            }),
                            ..base()
                        };
                        if cfg.validate().is_ok() {
                            rows.push((schedule, fault, checkpoint, service, affinity));
                        }
                    }
                }
            }
        }
    }
    rows
}

/// One random stream: ranks, fragments, batches, the workers dead at the
/// start (none if bit 0 is clear, else bit `r` for rank `r`), and the
/// event script, each step `(kind, pick, mask)`.
type Stream = (usize, usize, usize, u8, Vec<(u8, u8, u16)>);

fn streams() -> impl Strategy<Value = Stream> {
    (
        2usize..7,
        0usize..10,
        1usize..4,
        any::<u8>(),
        prop::collection::vec((any::<u8>(), any::<u8>(), any::<u16>()), 0..120),
    )
}

/// The elements of `items` whose bit is set in `mask` (bit `i` for the
/// `i`-th element, cycling past 16).
fn subset(items: &[usize], mask: u16) -> Vec<usize> {
    let bits = items.iter().enumerate();
    bits.filter(|(i, _)| mask & (1 << (i % 16)) != 0)
        .map(|(_, &x)| x)
        .collect()
}

/// One step of the script, read against the live machine's state. Most
/// steps send what the current phase waits for, from a live worker under
/// the current epoch; the rest send stale epochs, stale senders, requests
/// out of phase, and deaths. A death names live workers, and its
/// `checkpointed` set is a subset of their owned fragments, as the
/// master's run loop builds it (empty without the checkpoint policy).
fn event(sm: &MasterSm, policy: &RunPolicy, (kind, pick, mask): (u8, u8, u16)) -> MasterEvent {
    let live: Vec<usize> = sm.live_workers().collect();
    let workers = policy.nranks - 1;
    let from = match live.len() {
        0 => 1 + pick as usize % workers,
        n => live[pick as usize % n],
    };
    let any_from = 1 + pick as usize % workers;
    let stale = sm.epoch().wrapping_sub(1 + (mask as u64 & 1));
    let sub = |from: usize| MetaSubmission {
        per_query: vec![(from as u32, Vec::new())],
    };
    match kind % 32 {
        0..=25 => match sm.phase() {
            MasterPhase::Collect => MasterEvent::Submission {
                from,
                epoch: sm.epoch(),
                sub: sub(from),
            },
            MasterPhase::WaitWrites => MasterEvent::WriteDone {
                from,
                epoch: sm.epoch(),
            },
            // A merged batch sealing beside the next one's distribution
            // waits for both (the reference never seals that way).
            _ if sm.sealing().is_some() && kind % 2 == 0 => MasterEvent::WriteDone {
                from,
                epoch: sm.epoch(),
            },
            _ => MasterEvent::Ready { from },
        },
        26 => MasterEvent::Ready { from: any_from },
        27 | 28 => MasterEvent::Submission {
            from: any_from,
            epoch: if mask & 2 == 0 { stale } else { sm.epoch() },
            sub: sub(any_from),
        },
        29 | 30 => MasterEvent::WriteDone {
            from: any_from,
            epoch: if mask & 2 == 0 { stale } else { sm.epoch() },
        },
        _ if live.is_empty() => MasterEvent::Ready { from: any_from },
        _ => {
            let mut ranks = subset(&live, mask);
            if ranks.is_empty() {
                ranks.push(from);
            }
            let owned: Vec<usize> = ranks.iter().flat_map(|&w| sm.owned(w).to_vec()).collect();
            let checkpointed = if policy.checkpoint {
                subset(&owned, mask.rotate_right(5))
            } else {
                Vec::new()
            };
            // No re-cut: the reference knows no pieces.
            MasterEvent::Dead {
                ranks,
                checkpointed,
                pieces: Vec::new(),
            }
        }
    }
}

/// The same event for the reference machine.
fn reference_event(ev: &MasterEvent) -> refm::MasterEvent {
    match ev.clone() {
        MasterEvent::Ready { from } => refm::MasterEvent::Ready { from },
        MasterEvent::Submission { from, epoch, sub } => {
            refm::MasterEvent::Submission { from, epoch, sub }
        }
        MasterEvent::WriteDone { from, epoch } => refm::MasterEvent::WriteDone { from, epoch },
        MasterEvent::Dead {
            ranks,
            checkpointed,
            pieces: _,
        } => refm::MasterEvent::Dead {
            ranks,
            checkpointed,
        },
        MasterEvent::ScatterDone => refm::MasterEvent::ScatterDone,
    }
}

fn debug<T: std::fmt::Debug>(items: &[T]) -> Vec<String> {
    items.iter().map(|a| format!("{a:?}")).collect()
}

/// Each rank's submission absorbed since the current epoch opened.
type Absorbed = Vec<Option<MetaSubmission>>;

/// The live machine's actions as text, without its absorbs: each
/// `Collect` opens an epoch and resets `absorbed`, each `Absorb` records
/// its submission there (once per rank and epoch), and each `Merge`
/// takes a snapshot of it.
fn live_actions(
    acts: Vec<MasterAction>,
    absorbed: &mut Absorbed,
) -> Result<(Vec<String>, Vec<Absorbed>), TestCaseError> {
    let (mut text, mut merged) = (Vec::new(), Vec::new());
    for act in acts {
        match act {
            MasterAction::Absorb { from, sub } => {
                prop_assert!(absorbed[from].is_none(), "{} absorbed twice", from);
                absorbed[from] = Some(sub);
                continue;
            }
            MasterAction::Collect { .. } => absorbed.iter_mut().for_each(|s| *s = None),
            MasterAction::Merge { .. } => merged.push(absorbed.clone()),
            _ => {}
        }
        text.push(format!("{act:?}"));
    }
    Ok((text, merged))
}

/// The reference machine's actions as the live machine's text: each
/// `Merge`'s `subs` must be what the live machine absorbed for it
/// (`merged`, in order) for each rank `counts` accepts, and empty for
/// the others; the `Merge` then reads as the live one without them.
fn reference_actions(
    acts: Vec<refm::MasterAction>,
    merged: Vec<Absorbed>,
    counts: impl Fn(usize) -> bool,
) -> Result<Vec<String>, TestCaseError> {
    let mut merged = merged.into_iter();
    let mut text = Vec::new();
    for act in acts {
        let refm::MasterAction::Merge {
            batch,
            epoch,
            subs,
            orphans,
        } = act
        else {
            text.push(format!("{act:?}"));
            continue;
        };
        let absorbed = merged.next().unwrap_or_else(|| vec![None; subs.len()]);
        for (rank, sub) in subs.iter().enumerate() {
            if counts(rank) {
                prop_assert_eq!(absorbed[rank].as_ref(), Some(sub), "rank {}", rank);
            } else {
                prop_assert_eq!(sub, &MetaSubmission::default(), "rank {}", rank);
            }
        }
        let live = MasterAction::Merge {
            batch,
            epoch,
            orphans,
        };
        text.push(format!("{live:?}"));
    }
    Ok(text)
}

/// Everything observable of the two machines, as text.
/// The orphans are the master's own row: it renders in the orphan slot,
/// and rank 0's row as the reference's empty one.
fn state(sm: &MasterSm, nranks: usize) -> String {
    let owned: Vec<&[usize]> = (0..nranks)
        .map(|r| if r == MASTER { &[] } else { sm.owned(r) })
        .collect();
    let live: Vec<usize> = sm.live_workers().collect();
    format!(
        "{:?} batch {} epoch {} owned {owned:?} live {live:?} orphans {:?}",
        sm.phase(),
        sm.batch(),
        sm.epoch(),
        sm.owned(MASTER),
    )
}

fn reference_state(sm: &refm::MasterSm, nranks: usize) -> String {
    let owned: Vec<&[usize]> = (0..nranks).map(|r| sm.owned(r)).collect();
    let live: Vec<usize> = sm.live_workers().collect();
    format!(
        "{:?} batch {} epoch {} owned {owned:?} live {live:?} orphans {:?}",
        sm.phase(),
        sm.batch(),
        sm.epoch(),
        sm.ledger().orphans(),
    )
}

/// What one replay reached, for the coverage check.
#[derive(Default)]
struct Reached {
    finished: bool,
    orphaned: bool,
}

/// The policy of `row` over `stream`'s cluster, and the ranks live at
/// the start.
fn setup(row: Row, stream: &Stream) -> (RunPolicy, Vec<bool>) {
    let (schedule, fault, checkpoint, service, affinity) = row;
    let (nranks, nfrags, nbatches, dead0, _) = *stream;
    let policy = RunPolicy {
        schedule,
        fault,
        checkpoint,
        nranks,
        nfrags,
        nbatches,
        service,
        affinity,
    };
    let live0: Vec<bool> = (0..nranks)
        .map(|r| r == 0 || dead0 & 1 == 0 || dead0 & (1 << r) == 0)
        .collect();
    (policy, live0)
}

/// Replay `stream` under `row` on both machines, comparing after the
/// construction and after every event — or, where the live machine
/// pipelines the stream's batches, check it alone.
fn replay(row: Row, stream: &Stream) -> Result<Reached, TestCaseError> {
    let (policy, live0) = setup(row, stream);
    if policy.pipelines() && policy.nbatches > 1 {
        return replay_pipelined(row, stream);
    }
    let (nranks, schedule, script) = (policy.nranks, policy.schedule, &stream.4);
    let (mut sm, acts) = MasterSm::new(policy, live0.clone());
    let (mut reference, ref_acts) = refm::MasterSm::new(policy, live0);
    let context = |what: &str| format!("{row:?} {stream:?}: {what}");
    prop_assert_eq!(debug(&acts), debug(&ref_acts), "{}", context("new"));
    let mut events = Vec::new();
    if schedule == FragmentSchedule::Static {
        // The run loop answers the scatter with its completion at once.
        events.push(MasterEvent::ScatterDone);
    }
    let mut reached = Reached::default();
    let mut absorbed: Absorbed = vec![None; nranks];
    let mut steps = script.iter();
    loop {
        let ev = match events.pop() {
            Some(ev) => ev,
            None => match steps.next() {
                Some(&step) => event(&sm, &policy, step),
                None => break,
            },
        };
        let what = format!("{ev:?}");
        let (acts, merged) = live_actions(sm.handle(ev.clone()), &mut absorbed)?;
        let ref_acts = reference.handle(reference_event(&ev));
        let counts = |rank| rank != MASTER && sm.is_live(rank);
        let ref_acts = reference_actions(ref_acts, merged, counts)?;
        prop_assert_eq!(acts, ref_acts, "{}", context(&what));
        prop_assert_eq!(
            state(&sm, nranks),
            reference_state(&reference, nranks),
            "{}",
            context(&what)
        );
        reached.orphaned |= !reference.ledger().orphans().is_empty();
    }
    reached.finished = sm.phase() == MasterPhase::Finished;
    Ok(reached)
}

/// Replay `stream` under a pipelining `row` on the live machine alone,
/// checking after every event that each batch seals exactly once and in
/// order, that no grant of a batch comes before the previous batch's
/// `Merge` and no `Collect` of it before that batch's `FinishBatch`, that
/// every merged batch's fragments were each granted exactly once, to
/// workers still live, and that any death ends the run in `Fail`.
fn replay_pipelined(row: Row, stream: &Stream) -> Result<Reached, TestCaseError> {
    let (policy, live0) = setup(row, stream);
    let (mut sm, acts) = MasterSm::new(policy, live0);
    let context = |what: &str| format!("{row:?} {stream:?}: {what}");
    let (mut merged, mut sealed) = (0usize, 0usize);
    // Per batch, `(fragment, grantee)` of every grant.
    let mut granted: Vec<Vec<(usize, usize)>> = vec![Vec::new(); policy.nbatches];
    let mut pending = acts;
    let mut steps = stream.4.iter();
    loop {
        for act in pending.drain(..) {
            let what = context(&format!("{act:?}"));
            match act {
                MasterAction::Grant { to, frag, batch } => {
                    prop_assert!(batch <= merged, "{}: before the merge", what);
                    granted[batch].push((frag, to));
                }
                MasterAction::Collect { batch, .. } => {
                    prop_assert_eq!(batch, sealed, "{}: before the seal", what);
                }
                MasterAction::Merge { batch, .. } => {
                    prop_assert_eq!(batch, merged, "{}", what);
                    let mut grants = std::mem::take(&mut granted[batch]);
                    grants.sort_unstable();
                    let frags: Vec<usize> = grants.iter().map(|g| g.0).collect();
                    let all: Vec<usize> = (0..policy.nfrags).collect();
                    prop_assert_eq!(frags, all, "{}: each fragment once", what);
                    let owners_live = grants.iter().all(|&(_, w)| sm.is_live(w));
                    prop_assert!(owners_live, "{}: owned by a dead worker", what);
                    merged += 1;
                }
                MasterAction::FinishBatch { batch } => {
                    prop_assert_eq!(batch, sealed, "{}: out of order", what);
                    prop_assert!(batch < merged, "{}: never merged", what);
                    sealed += 1;
                }
                MasterAction::Finish => {
                    prop_assert_eq!(sealed, policy.nbatches, "{}", what);
                }
                MasterAction::Fail { .. }
                | MasterAction::Drain { .. }
                | MasterAction::Absorb { .. } => {}
                MasterAction::Scatter { .. } => prop_assert!(false, "{}", what),
            }
        }
        let Some(&step) = steps.next() else { break };
        let ev = event(&sm, &policy, step);
        let running = !matches!(sm.phase(), MasterPhase::Finished | MasterPhase::Failed);
        let what = context(&format!("{ev:?}"));
        pending = sm.handle(ev.clone());
        if let (MasterEvent::Dead { .. }, true) = (&ev, running) {
            prop_assert!(
                matches!(&pending[..], [MasterAction::Fail { .. }]),
                "{}: {:?}",
                what,
                pending
            );
            prop_assert_eq!(sm.phase(), MasterPhase::Failed, "{}", what);
        }
    }
    Ok(Reached {
        finished: sm.phase() == MasterPhase::Finished,
        orphaned: false,
    })
}

#[test]
fn master_machine_equals_the_reference_on_random_event_streams() {
    let rows = accepted_rows();
    // Static + Off, then Dynamic with Off (three service rows) and
    // Recover (with and without checkpoints, three service rows each).
    assert_eq!(rows.len(), 10, "{rows:?}");
    let mut streams_run = 0usize;
    let mut finished = vec![0usize; rows.len()];
    let mut orphaned = vec![0usize; rows.len()];
    // Per row, pipelined streams that reached the end of their run.
    let mut pipelined = vec![0usize; rows.len()];
    let mut runner = TestRunner::new(
        "master_machine_equals_the_reference_on_random_event_streams",
        ProptestConfig::with_cases(512),
    );
    runner.run(&streams(), |stream| {
        for (i, &row) in rows.iter().enumerate() {
            let reached = replay(row, &stream)?;
            streams_run += 1;
            finished[i] += usize::from(reached.finished);
            orphaned[i] += usize::from(reached.orphaned);
            let pipelines = setup(row, &stream).0.pipelines() && stream.2 > 1;
            pipelined[i] += usize::from(reached.finished && pipelines);
        }
        Ok(())
    });
    assert!(streams_run >= 2_000, "{streams_run} streams");
    // The streams must reach the end of a run under every policy, and
    // adopt checkpoints under every checkpointing one. The two fail-fast
    // service rows (point-to-point without `Recover`) pipeline their
    // multi-batch streams, and some of those must finish too.
    for (i, row) in rows.iter().enumerate() {
        assert!(finished[i] > 0, "{row:?}: no stream finished");
        assert_eq!(orphaned[i] > 0, row.2, "{row:?}: {} orphaned", orphaned[i]);
        let fail_fast_service = row.3 && row.1 == FaultMode::Off;
        assert_eq!(pipelined[i] > 0, fail_fast_service, "{row:?}");
    }
}
