//! Ingest and search: a worker takes granted fragments in — from its
//! fragment store or the plane — and searches them against the prepared
//! batch, caching formatted records and checkpointing them. A fragment
//! searched on arrival, where the plane posts reads, is read ahead: each
//! record-aligned piece is searched while the next one is in flight.

use std::sync::Arc;

use blast_core::search::{BlastSearcher, FragmentResult, SearchScratch, SubjectSource};
use mpiblast::phases;
use seqfmt::FragmentData;

use super::checkpoint;
use super::worker_io::WorkerIo;
use crate::cache::format_fragment;
use crate::fault::PioError;
use crate::input::ReadAhead;
use crate::proto::FragmentAssignment;

impl WorkerIo<'_, '_> {
    /// Take `count` granted fragments in, one path for every mode. A
    /// fragment comes from the worker's [`FragmentStore`] when it holds
    /// it — service mode's cross-query cache hit — and from the plane
    /// otherwise: one read set per fragment not held where the plane
    /// posts reads (its three file reads in flight together), one
    /// coalesced set for the whole grant otherwise. It is then searched
    /// if the schedule searches on arrival, and held in the store. A
    /// fragment searched on arrival where the plane posts reads, and big
    /// enough to cut, is read ahead instead ([`ReadAhead`]). A one-shot
    /// run never holds what it is granted, so it always reads.
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
        // Read ahead where it pays: searched on arrival, reads posted.
        let read_ahead =
            |a: &FragmentAssignment| search && self.io.posts_reads() && ReadAhead::worth_it(a);
        let absent: Vec<FragmentAssignment> = granted
            .iter()
            .filter(|(id, a)| !self.store.contains(*id as usize) && !read_ahead(a))
            .map(|(_, a)| a.clone())
            .collect();
        // One coalesced set, read even when empty: on the two-phase class
        // a rank with nothing of its own still joins the collective.
        let t = self.ctx.now();
        let read =
            crate::input::read_fragments(self.io, &self.grant_volumes, &absent, self.molecule)?;
        self.phase_times.add(phases::INPUT, self.ctx.now() - t);
        let mut read = read.into_iter();
        for (id, a) in granted {
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
            let frag = match resident {
                None if read_ahead(&a) => self.read_ahead(batch, id, &a)?,
                resident => {
                    let frag = resident.or_else(|| read.next()).ok_or_else(|| {
                        PioError::Protocol(format!(
                            "fragment {id} of batch {batch} is neither resident nor read"
                        ))
                    })?;
                    if search {
                        self.search_one(batch, id, &frag)?;
                    }
                    frag
                }
            };
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

    /// Read `a` ahead and search it: post its first piece's reads; as
    /// each piece lands, post the next one's and scan this one, so the
    /// scan hides the transfer behind it. Exposed waits are INPUT, scans
    /// SEARCH, and the fixed `per_fragment` cost rides on the first scan
    /// only. The fragment is then finished — ranked, formatted,
    /// checkpointed, cached — as a whole-fragment search is, and returned
    /// as one fragment over the pieces' own buffers.
    fn read_ahead(
        &mut self,
        batch: usize,
        id: u32,
        a: &FragmentAssignment,
    ) -> Result<FragmentData, PioError> {
        let mut t = self.ctx.now();
        let mut reader = ReadAhead::open(self.io, a, self.molecule)?;
        let (mut pieces, mut parts) = (Vec::new(), Vec::new());
        while let Some(piece) = reader.next_piece()? {
            self.phase_times.add(phases::INPUT, self.ctx.now() - t);
            parts.extend(self.scan(batch, id, &piece, Some(pieces.len()))?);
            pieces.push(piece);
            t = self.ctx.now();
        }
        let frag = FragmentData::join(pieces).map_err(|e| PioError::Protocol(e.to_string()))?;
        self.finish(batch, id, &frag, parts)?;
        Ok(frag)
    }

    /// Search one fragment against the prepared batch, cache the
    /// formatted records, and (under the checkpoint policy) persist the
    /// fragment's results before anything is acknowledged.
    pub(super) fn search_one(
        &mut self,
        batch: usize,
        id: u32,
        frag: &FragmentData,
    ) -> Result<(), PioError> {
        let parts = self.scan(batch, id, frag, None)?;
        self.finish(batch, id, frag, parts)
    }

    /// The prepared batch, or the error of a grant that came before it.
    fn prepared(
        &self,
        batch: usize,
        id: u32,
    ) -> Result<Arc<blast_core::search::PreparedQueries>, PioError> {
        self.prepared.clone().ok_or_else(|| {
            PioError::Protocol(format!(
                "fragment {id} of batch {batch} granted before its queries were prepared"
            ))
        })
    }

    /// Scan every subject of `source` — a whole fragment, or read-ahead
    /// piece `piece` of one — returning its unranked hits, traced as a
    /// `search.fragment` span and counted as SEARCH. The fixed
    /// per-fragment cost is charged on a fragment's first scan only.
    ///
    /// With `cfg.threads > 1` the subjects are sharded into contiguous
    /// ranges, scanned one after another on the thread's scratch through
    /// [`ComputeModel::run_search_sharded`] (the rank is charged the max
    /// over slot loads plus fork/join); [`WorkerIo::finish`] merges the
    /// parts deterministically — byte-identical to the serial kernel for
    /// every slot count and every cut into pieces, since each subject is
    /// scanned in exactly one part.
    ///
    /// [`ComputeModel::run_search_sharded`]: mpiblast::ComputeModel::run_search_sharded
    fn scan(
        &mut self,
        batch: usize,
        id: u32,
        source: &FragmentData,
        piece: Option<usize>,
    ) -> Result<Vec<FragmentResult>, PioError> {
        let prepared = self.prepared(batch, id)?;
        let searcher = BlastSearcher::new(&self.cfg.params, &prepared);
        let first = piece.unwrap_or(0) == 0;
        let slots = self.cfg.threads.max(1);
        let search_start = self.ctx.now();
        // Every kernel call borrows the thread's scratch for its own
        // length only: the compute charge that yields to other ranks
        // comes after the closure returns.
        let n = source.num_subjects();
        let (parts, stats) = if slots == 1 {
            let (part, stats) = self.compute.run_search(self.ctx, first, || {
                let r = SearchScratch::with_local(|scratch| {
                    searcher.search_subject_range(source, 0..n, scratch)
                });
                let stats = r.stats;
                (r, stats)
            });
            (vec![part], stats)
        } else {
            let nshards = slots.min(n.max(1));
            let per = n.div_ceil(nshards);
            self.compute
                .run_search_sharded(self.ctx, first, slots, nshards, |i| {
                    let lo = (i * per).min(n);
                    let hi = ((i + 1) * per).min(n);
                    let r = SearchScratch::with_local(|scratch| {
                        searcher.search_subject_range(source, lo..hi, scratch)
                    });
                    let stats = r.stats;
                    (r, stats)
                })
        };
        let mut args = vec![
            ("batch", batch.into()),
            ("fragment", (id as u64).into()),
            ("subjects", stats.subjects.into()),
            ("hsps", stats.hsps_kept.into()),
        ];
        if let Some(i) = piece {
            args.push(("piece", i.into()));
        }
        tracelog::closed_span(
            tracelog::Lane::Search,
            "search.fragment",
            search_start.0,
            self.ctx.now().0,
            args,
        );
        self.phase_times
            .add(phases::SEARCH, self.ctx.now() - search_start);
        Ok(parts)
    }

    /// Rank a fragment's scanned parts into its result, then cache its
    /// formatted records and (under the checkpoint policy) persist them
    /// before anything is acknowledged.
    fn finish(
        &mut self,
        batch: usize,
        id: u32,
        frag: &FragmentData,
        parts: Vec<FragmentResult>,
    ) -> Result<(), PioError> {
        let prepared = self.prepared(batch, id)?;
        let searcher = BlastSearcher::new(&self.cfg.params, &prepared);
        let merged = SearchScratch::with_local(|scratch| searcher.merge_sharded(parts, scratch));
        let (per_query, stats) = (merged.per_query, merged.stats);
        self.stats_total.merge(&stats);

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
                    &prepared,
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
