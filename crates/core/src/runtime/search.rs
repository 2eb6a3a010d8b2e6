//! Ingest and search: a worker takes granted fragments in — from its
//! fragment store or the plane — and searches them against the prepared
//! batch, caching formatted records and checkpointing them.

use blast_core::search::{BlastSearcher, SearchScratch};
use mpiblast::phases;
use seqfmt::FragmentData;

use super::checkpoint;
use super::worker_io::WorkerIo;
use crate::cache::format_fragment;
use crate::fault::PioError;
use crate::proto::FragmentAssignment;

impl WorkerIo<'_, '_> {
    /// Take `count` granted fragments in, one path for every mode. A
    /// fragment comes from the worker's [`FragmentStore`] when it holds
    /// it — service mode's cross-query cache hit — and from the plane
    /// otherwise: one read set per fragment not held where the plane
    /// posts reads (its three file reads in flight together), one
    /// coalesced set for the whole grant otherwise. It is then searched
    /// if the schedule searches on arrival, and held in the store. A
    /// one-shot run never holds what it is granted, so it always reads.
    pub(super) fn ingest(
        &mut self,
        batch: usize,
        count: usize,
        search: bool,
    ) -> Result<(), PioError> {
        if search && count != 1 {
            // Only the static scatter, which defers its searching, hands
            // out whole shares; the count arrives on the wire.
            return Err(PioError::Protocol(format!(
                "grant searched on arrival carries {count} fragments, not 1"
            )));
        }
        if self.pending.len() < count {
            return Err(PioError::Protocol("grant count exceeds stash".into()));
        }
        let granted: Vec<(u32, FragmentAssignment)> = self.pending.drain(..count).collect();
        let absent: Vec<FragmentAssignment> = granted
            .iter()
            .filter(|(id, _)| !self.store.contains(*id as usize))
            .map(|(_, a)| a.clone())
            .collect();
        // The coalesced set is read even when empty: on the two-phase
        // class a rank with nothing of its own still joins the collective.
        let sets: Vec<&[FragmentAssignment]> = if self.io.posts_reads() {
            absent.chunks(1).collect()
        } else {
            vec![&absent]
        };
        let mut read = Vec::with_capacity(absent.len());
        for set in sets {
            let t = self.ctx.now();
            read.extend(crate::input::read_fragments(
                self.io,
                &self.grant_volumes,
                set,
                self.molecule,
            )?);
            self.phase_times.add(phases::INPUT, self.ctx.now() - t);
        }
        let mut read = read.into_iter();
        for (id, _) in granted {
            let resident = self.store.take(id as usize);
            if self.policy.service {
                tracelog::instant(
                    tracelog::Lane::Io,
                    if resident.is_some() {
                        "cache.hit"
                    } else {
                        "cache.miss"
                    },
                    vec![("fragment", u64::from(id).into()), ("batch", batch.into())],
                );
            }
            let frag = resident.or_else(|| read.next()).ok_or_else(|| {
                PioError::Protocol(format!(
                    "fragment {id} of batch {batch} is neither resident nor read"
                ))
            })?;
            if search {
                self.search_one(batch, id, &frag)?;
            }
            // (Re)admit as most-recently-used, tracing each eviction the
            // insert forces (only service mode's store is bounded).
            for evicted in self.store.insert(id as usize, frag) {
                tracelog::instant(
                    tracelog::Lane::Io,
                    "store.evict",
                    vec![("fragment", (evicted as u64).into())],
                );
            }
        }
        Ok(())
    }

    /// Search one fragment against the prepared batch, cache the
    /// formatted records, and (under the checkpoint policy) persist the
    /// fragment's results before anything is acknowledged.
    ///
    /// With `cfg.threads > 1` the fragment's subjects are sharded into
    /// contiguous ranges, scanned one after another on the thread's
    /// scratch through [`ComputeModel::run_search_sharded`] (the rank is
    /// charged the max over slot loads plus fork/join), and merged
    /// deterministically — byte-identical to the serial kernel for every
    /// slot count. This composes with `--io-async` and
    /// `FaultMode::Recover` unchanged because both sit outside this call.
    pub(super) fn search_one(
        &mut self,
        batch: usize,
        id: u32,
        frag: &FragmentData,
    ) -> Result<(), PioError> {
        use blast_core::search::SubjectSource;
        let prepared = self.prepared.as_ref().ok_or_else(|| {
            PioError::Protocol(format!(
                "fragment {id} of batch {batch} granted before its queries were prepared"
            ))
        })?;
        let searcher = BlastSearcher::new(&self.cfg.params, prepared);
        let slots = self.cfg.threads.max(1);
        let search_start = self.ctx.now();
        // Every kernel call borrows the thread's scratch for its own
        // length only: the compute charge that yields to other ranks
        // comes after the closure returns.
        let (per_query, stats) = if slots == 1 {
            self.compute.run_search(self.ctx, || {
                let r = SearchScratch::with_local(|scratch| searcher.search(frag, scratch));
                (r.per_query, r.stats)
            })
        } else {
            let n = frag.num_subjects();
            let nshards = slots.min(n.max(1));
            let per = n.div_ceil(nshards);
            let (parts, _) = self
                .compute
                .run_search_sharded(self.ctx, slots, nshards, |i| {
                    let lo = (i * per).min(n);
                    let hi = ((i + 1) * per).min(n);
                    let r = SearchScratch::with_local(|scratch| {
                        searcher.search_subject_range(frag, lo..hi, scratch)
                    });
                    let stats = r.stats;
                    (r, stats)
                });
            let merged =
                SearchScratch::with_local(|scratch| searcher.merge_sharded(parts, scratch));
            (merged.per_query, merged.stats)
        };
        self.stats_total.merge(&stats);
        tracelog::closed_span(
            tracelog::Lane::Search,
            "search.fragment",
            search_start.0,
            self.ctx.now().0,
            vec![
                ("batch", batch.into()),
                ("fragment", (id as u64).into()),
                ("subjects", stats.subjects.into()),
                ("hsps", stats.hsps_kept.into()),
            ],
        );
        self.phase_times
            .add(phases::SEARCH, self.ctx.now() - search_start);

        let cache_start = self.ctx.now();
        let per_query = if self.cfg.local_prune {
            // Paper §5: a worker's hits beyond the global report limit
            // can never appear in the output; prune before formatting.
            let keep = self
                .cfg
                .report
                .num_descriptions
                .max(self.cfg.report.num_alignments);
            per_query
                .into_iter()
                .map(|mut hits| {
                    hits.truncate(keep);
                    hits
                })
                .collect()
        } else {
            per_query
        };
        let (_, payload) = self.compute.run_format(
            self.ctx,
            || {
                format_fragment(
                    &self.cfg.params,
                    &self.report_cfg,
                    prepared,
                    frag,
                    per_query,
                )
            },
            |r| r.as_ref().map(|(bytes, _)| *bytes).unwrap_or(0),
        )?;
        if self.cfg.checkpoint {
            checkpoint::put(self.io, self.cfg, batch, id, payload.clone());
        }
        self.cache.adopt(payload);
        self.phase_times
            .add(phases::OUTPUT, self.ctx.now() - cache_start);
        Ok(())
    }
}
