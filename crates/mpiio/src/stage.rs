//! How a write's runs reach the file system: absorbed by the
//! burst-buffer staging tier where there is one, issued to the
//! destination otherwise. Output views, checkpoint blobs and collective
//! aggregators all issue their runs here.

use std::cell::RefCell;
use std::sync::{Arc, Mutex, PoisonError};

use burstfs::{BurstError, StagingStore};
use parafs::{AsyncIo, Run, SimFs, StoreError};
use simcluster::RankCtx;

/// Where a rank's writes go: its staging store, if it has one, in front
/// of the destination file system.
#[derive(Clone, Copy)]
pub(crate) struct Sink<'a> {
    pub burst: Option<&'a RefCell<StagingStore>>,
    pub fs: &'a SimFs,
    pub ctx: &'a RankCtx,
}

/// What issuing a request's runs leaves to join: the writes still in
/// flight and the first failure so far.
#[derive(Default)]
pub struct Pending {
    ops: Vec<AsyncIo>,
    pub(crate) err: Option<StoreError>,
}

impl Pending {
    /// Earliest issue time among the outstanding transfers, in virtual
    /// nanoseconds (`None` when nothing is in flight).
    pub fn issued_ns(&self) -> Option<u64> {
        self.ops.iter().map(|op| op.issued_at().0).min()
    }

    /// Whether every write has completed: a join would not block.
    pub fn is_done(&self) -> bool {
        self.ops.iter().all(AsyncIo::is_done)
    }

    /// Run `hook` once the last write still in flight has landed, in its
    /// completion callback (at once when nothing is in flight), unless a
    /// run failed at issue, a write fails or the rank is killed first:
    /// then never.
    pub fn on_landed(&self, fs: &SimFs, hook: impl FnOnce() + Send + 'static) {
        if self.err.is_some() {
            return;
        }
        if self.ops.is_empty() {
            hook();
            return;
        }
        type Left = (usize, Option<Box<dyn FnOnce() + Send>>);
        let left: Arc<Mutex<Left>> = Arc::new(Mutex::new((self.ops.len(), Some(Box::new(hook)))));
        for op in &self.ops {
            let left = Arc::clone(&left);
            fs.on_complete(op, move |landed| {
                let hook = {
                    let mut left = left.lock().unwrap_or_else(PoisonError::into_inner);
                    left.0 -= 1;
                    if !landed {
                        left.1 = None;
                    }
                    if left.0 == 0 {
                        left.1.take()
                    } else {
                        None
                    }
                };
                if let Some(hook) = hook {
                    hook();
                }
            });
        }
    }
}

impl Sink<'_> {
    /// Try to absorb a destination write into the staging tier.
    /// `Ok(true)` means the run was staged and its drain is in flight —
    /// a later [`burstfs::StagingStore::fence`] lands it. `Ok(false)`
    /// means no store is attached, or the tier pushed back
    /// ([`burstfs::BurstError::StagingFull`]); the run must go to the
    /// destination directly. `Err` is a real storage failure.
    fn try_stage(&self, path: &str, offset: u64, data: &Run) -> Result<bool, StoreError> {
        let Some(cell) = self.burst else {
            return Ok(false);
        };
        match cell
            .borrow_mut()
            .put_run(self.ctx, path, offset, data.clone())
        {
            Ok(()) => Ok(true),
            Err(BurstError::StagingFull { .. }) => Ok(false),
            Err(BurstError::Storage(e)) => Err(e),
        }
    }

    /// Stage or issue each run of `path`, in order: a run the staging
    /// tier does not absorb is written to the destination — joined
    /// before the next run when `joined`, left in flight otherwise —
    /// after creating (truncating) the file when `replace`, which only
    /// a whole-file run asks for. A staged run leaves nothing pending:
    /// its drain belongs to the store and is joined at the next fence.
    /// Every run is attempted whatever became of the ones before it,
    /// and the first failure is kept for [`Sink::join`] to report.
    pub fn issue(&self, path: &str, runs: Vec<(u64, Run)>, joined: bool, replace: bool) -> Pending {
        let mut pend = Pending::default();
        for (offset, data) in runs {
            let issued = self.try_stage(path, offset, &data).and_then(|staged| {
                if staged {
                    return Ok(());
                }
                if replace {
                    self.fs.create(self.ctx, path);
                }
                if joined {
                    return self.fs.write_at(self.ctx, path, offset, data);
                }
                let op = self.fs.write_at_begin(self.ctx, path, offset, data);
                pend.ops.push(op);
                Ok(())
            });
            if let Err(e) = issued {
                pend.err.get_or_insert(e);
            }
        }
        pend
    }

    /// Wait for every write still in flight — after a failure too: the
    /// others still land — and report the first failure, issue-time
    /// ones first.
    pub fn join(&self, pend: Pending) -> Result<(), StoreError> {
        let mut err = pend.err;
        for op in pend.ops {
            if let Err(e) = self.fs.io_wait(self.ctx, op) {
                err.get_or_insert(e);
            }
        }
        err.map_or(Ok(()), Err)
    }
}
