//! Compute-cost accounting.
//!
//! Two modes: `Measured` charges the real wall time of real code (honest,
//! used by the benchmark harnesses), `Modeled` charges deterministic
//! analytical costs from work counters (used by tests, where results must
//! be bit-stable across hosts). Both modes run the *actual* computation —
//! only the virtual-time charge differs.

use std::sync::Arc;

use blast_core::search::{PreparedQueries, SearchParams, SearchStats};
use blast_core::{DbStats, SeqRecord};
use simcluster::{RankCtx, SimDuration};

/// How compute segments are charged to the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ComputeModel {
    /// Charge measured wall time × `scale`.
    Measured {
        /// Wall-time multiplier (models a slower/faster CPU).
        scale: f64,
    },
    /// Charge analytical costs.
    Modeled(ModelParams),
}

/// Cost coefficients for `Modeled` mode, loosely calibrated to a ~2004
/// Itanium2 running NCBI BLAST.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    /// Seconds per subject residue scanned.
    pub per_residue: f64,
    /// Seconds per lookup-table seed hit (scales search cost with the
    /// query-set size, as the real scan loop does).
    pub per_seed: f64,
    /// Seconds per ungapped extension.
    pub per_ungapped: f64,
    /// Seconds per gapped extension.
    pub per_gapped: f64,
    /// Fixed seconds per fragment search (kernel init, diagonal arrays).
    pub per_fragment: f64,
    /// Seconds per formatted output byte (traceback + rendering).
    pub per_output_byte: f64,
    /// Seconds per item handled in a merge/sort step.
    pub per_merge_item: f64,
    /// Seconds per query residue for lookup-table construction.
    pub per_prepare_residue: f64,
    /// Master-side seconds per fetched alignment (NCBI-toolkit sequence
    /// marshalling: readdb lookup, BioSeq construction, deserialization).
    pub per_fetch: f64,
    /// Master-side seconds per result message received (ASN.1 SeqAlign
    /// list deserialization and bookkeeping; mpiBLAST sends one message
    /// per (fragment, query) pair).
    pub per_submission: f64,
    /// Seconds of fork/join overhead per subject shard when a fragment
    /// search is spread across intra-rank compute slots (thread wake,
    /// work handoff, and the merge's share of the join).
    pub per_fork_join: f64,
}

impl Default for ModelParams {
    fn default() -> ModelParams {
        ModelParams {
            per_residue: 40e-9,
            per_seed: 150e-9,
            per_ungapped: 400e-9,
            per_gapped: 30e-6,
            per_fragment: 20e-3,
            per_output_byte: 80e-9,
            per_merge_item: 2e-6,
            per_prepare_residue: 0.5e-6,
            per_fetch: 250e-6,
            per_submission: 1.0e-3,
            per_fork_join: 5e-6,
        }
    }
}

impl ComputeModel {
    /// Deterministic test default.
    pub fn modeled() -> ComputeModel {
        ComputeModel::Modeled(ModelParams::default())
    }

    /// This model with every compute cost multiplied by `factor` — a
    /// slower (or faster) node. Used to simulate heterogeneous clusters.
    pub fn scaled(self, factor: f64) -> ComputeModel {
        assert!(factor.is_finite() && factor > 0.0);
        match self {
            ComputeModel::Measured { scale } => ComputeModel::Measured {
                scale: scale * factor,
            },
            ComputeModel::Modeled(p) => ComputeModel::Modeled(ModelParams {
                per_residue: p.per_residue * factor,
                per_seed: p.per_seed * factor,
                per_ungapped: p.per_ungapped * factor,
                per_gapped: p.per_gapped * factor,
                per_fragment: p.per_fragment * factor,
                per_output_byte: p.per_output_byte * factor,
                per_merge_item: p.per_merge_item * factor,
                per_prepare_residue: p.per_prepare_residue * factor,
                per_fetch: p.per_fetch * factor,
                per_submission: p.per_submission * factor,
                per_fork_join: p.per_fork_join * factor,
            }),
        }
    }

    /// Honest-measurement default.
    pub fn measured() -> ComputeModel {
        ComputeModel::Measured { scale: 1.0 }
    }

    /// The one split between the modes: charge `f`'s measured host time
    /// × scale, or run it and charge the modeled seconds `secs` gives
    /// for its result.
    fn charge<T>(
        &self,
        ctx: &RankCtx,
        f: impl FnOnce() -> T,
        secs: impl FnOnce(&ModelParams, &T) -> f64,
    ) -> T {
        match self {
            ComputeModel::Measured { scale } => ctx.run_measured(*scale, f),
            ComputeModel::Modeled(p) => {
                let out = f();
                ctx.charge(SimDuration::from_secs_f64(secs(p, &out)));
                out
            }
        }
    }

    /// Run one scan of a fragment's subjects — all of them, or one
    /// record-aligned piece of a fragment read ahead — charging by mode.
    /// `f` must return the scan's stats along with its result. Only a
    /// fragment's `first` scan carries the fixed `per_fragment` cost (in
    /// `Modeled` mode), so the scans of a fragment's pieces are charged
    /// what its one whole scan is, to a nanosecond per piece.
    pub fn run_search<T>(
        &self,
        ctx: &RankCtx,
        first: bool,
        f: impl FnOnce() -> (T, SearchStats),
    ) -> (T, SearchStats) {
        self.charge(ctx, f, |p, (_, stats)| {
            let fixed = if first { p.per_fragment } else { 0.0 };
            fixed
                + p.per_residue * stats.residues as f64
                + p.per_seed * stats.seed_hits as f64
                + p.per_ungapped * stats.ungapped_extensions as f64
                + p.per_gapped * stats.gapped_extensions as f64
        })
    }

    /// Run a fragment search sharded across `slots` intra-rank compute
    /// slots. `shard(i)` executes shard `i`'s real subject scan and
    /// returns its value plus that shard's own [`SearchStats`]; the
    /// engine packs the shards onto slots and charges the *maximum* slot
    /// load plus per-shard fork/join overhead
    /// ([`ModelParams::per_fork_join`]; the default model's in `Measured`
    /// mode, scaled like the host time). In `Modeled` mode the fragment's
    /// fixed setup cost (`per_fragment`) is charged once, serially, before
    /// the fork — kernel init does not replicate per shard — and only on
    /// a fragment's `first` scan, as in [`ComputeModel::run_search`].
    /// Returns the shard values in shard order and the merged stats.
    pub fn run_search_sharded<T>(
        &self,
        ctx: &RankCtx,
        first: bool,
        slots: usize,
        nshards: usize,
        mut shard: impl FnMut(usize) -> (T, SearchStats),
    ) -> (Vec<T>, SearchStats) {
        let outs = match *self {
            ComputeModel::Measured { scale } => {
                let per_fork_join = ModelParams::default().per_fork_join;
                let fork_join = SimDuration::from_secs_f64(per_fork_join * scale);
                ctx.compute_parallel(slots, fork_join, nshards, |i| {
                    let start = std::time::Instant::now();
                    let (v, stats) = shard(i);
                    let d = SimDuration::from_secs_f64(start.elapsed().as_secs_f64() * scale);
                    ((v, stats), d)
                })
            }
            ComputeModel::Modeled(p) => {
                if first {
                    ctx.charge(SimDuration::from_secs_f64(p.per_fragment));
                }
                let fork_join = SimDuration::from_secs_f64(p.per_fork_join);
                ctx.compute_parallel(slots, fork_join, nshards, |i| {
                    let (v, stats) = shard(i);
                    let secs = p.per_residue * stats.residues as f64
                        + p.per_seed * stats.seed_hits as f64
                        + p.per_ungapped * stats.ungapped_extensions as f64
                        + p.per_gapped * stats.gapped_extensions as f64;
                    ((v, stats), SimDuration::from_secs_f64(secs))
                })
            }
        };
        let mut total = SearchStats::default();
        let mut vals = Vec::with_capacity(outs.len());
        for (v, stats) in outs {
            total.merge(&stats);
            vals.push(v);
        }
        (vals, total)
    }

    /// Run output formatting that produces `bytes` of text.
    pub fn run_format<T>(
        &self,
        ctx: &RankCtx,
        f: impl FnOnce() -> T,
        bytes: impl Fn(&T) -> u64,
    ) -> T {
        self.charge(ctx, f, |p, out| p.per_output_byte * bytes(out) as f64)
    }

    /// Run query preparation (masking + lookup build) for one rank.
    ///
    /// Every rank is charged for its own preparation. Under `Modeled`
    /// the charge is a function of the residue count alone, so the ranks
    /// of a job — which all prepare the same query set — share one
    /// [`PreparedQueries`] on the host through
    /// [`PreparedQueries::prepare_shared`] without the virtual clock
    /// seeing it. Under `Measured` the host time of the build *is* the
    /// charge, so every call builds.
    pub fn run_prepare(
        &self,
        ctx: &RankCtx,
        params: &SearchParams,
        records: &[SeqRecord],
        db: DbStats,
    ) -> Arc<PreparedQueries> {
        match *self {
            ComputeModel::Measured { scale } => ctx.run_measured(scale, || {
                Arc::new(PreparedQueries::prepare(params, records.to_vec(), db))
            }),
            ComputeModel::Modeled(p) => {
                let out = PreparedQueries::prepare_shared(params, records, db);
                ctx.charge(SimDuration::from_secs_f64(
                    p.per_prepare_residue * out.total_residues() as f64,
                ));
                out
            }
        }
    }

    /// Run the master-side handling of one received result message.
    pub fn run_submission_handling<T>(
        &self,
        ctx: &RankCtx,
        items: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        self.charge(ctx, f, |p, _| {
            p.per_submission + p.per_merge_item * items as f64
        })
    }

    /// Run the master-side handling of one fetched alignment's sequence
    /// data (mpiBLAST's serialized result retrieval).
    pub fn run_fetch_handling<T>(&self, ctx: &RankCtx, f: impl FnOnce() -> T) -> T {
        self.charge(ctx, f, |p, _| p.per_fetch)
    }

    /// Run a merge/sort step over `items` items.
    pub fn run_merge<T>(&self, ctx: &RankCtx, items: u64, f: impl FnOnce() -> T) -> T {
        self.charge(ctx, f, |p, _| p.per_merge_item * items as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcluster::Sim;

    #[test]
    fn modeled_charges_are_deterministic() {
        let run = || {
            let sim = Sim::new(1);
            sim.run(|ctx| {
                let model = ComputeModel::modeled();
                let stats = SearchStats {
                    subjects: 10,
                    residues: 1_000_000,
                    seed_hits: 5_000,
                    ungapped_extensions: 1_000,
                    gapped_extensions: 50,
                    hsps_kept: 20,
                };
                model.run_search(&ctx, true, || ((), stats));
                model.run_format(&ctx, || "x".repeat(1000), |s| s.len() as u64);
                model.run_merge(&ctx, 500, || ());
                ctx.now().0
            })
            .outputs[0]
        };
        let a = run();
        assert_eq!(a, run());
        // per_fragment 20ms + 40ms residues + 0.4ms ungapped + 1.5ms gapped
        // + 0.08ms format + 1ms merge ≈ 63 ms.
        let secs = a as f64 / 1e9;
        assert!((0.05..0.08).contains(&secs), "charged {secs}s");
    }

    #[test]
    fn the_scans_of_a_fragments_pieces_carry_its_fixed_cost_once() {
        let stats = |residues| SearchStats {
            subjects: 3,
            residues,
            seed_hits: 7 * residues,
            ungapped_extensions: residues / 100,
            gapped_extensions: residues / 10_000,
            hsps_kept: 2,
        };
        let run = |pieces: &'static [u64]| {
            let sim = Sim::new(1);
            sim.run(move |ctx| {
                let model = ComputeModel::modeled();
                for (i, &residues) in pieces.iter().enumerate() {
                    model.run_search(&ctx, i == 0, || ((), stats(residues)));
                }
                ctx.now().0
            })
            .outputs[0]
        };
        let whole = run(&[300_000]);
        for cut in [&[100_000, 200_000][..], &[50_000, 100_000, 150_000]] {
            let pieces = run(cut);
            assert!(
                pieces.abs_diff(whole) <= cut.len() as u64,
                "{pieces} vs {whole}"
            );
        }
        // Without the first scan's fixed cost, the pieces are 20 ms short.
        let sim = Sim::new(1);
        let later = sim.run(move |ctx| {
            let model = ComputeModel::modeled();
            model.run_search(&ctx, false, || ((), stats(300_000)));
            ctx.now().0
        });
        assert_eq!(whole - later.outputs[0], 20_000_000);
    }

    #[test]
    fn sharded_search_charges_slot_parallel_time() {
        let run = |slots: usize| {
            let sim = Sim::new(1);
            sim.run(move |ctx| {
                let model = ComputeModel::modeled();
                let stats = SearchStats {
                    subjects: 1,
                    residues: 1_000_000,
                    seed_hits: 0,
                    ungapped_extensions: 0,
                    gapped_extensions: 0,
                    hsps_kept: 0,
                };
                let (vals, total) = model.run_search_sharded(&ctx, true, slots, 4, |i| (i, stats));
                assert_eq!(vals, vec![0, 1, 2, 3], "shard values in shard order");
                assert_eq!(total.residues, 4_000_000, "stats merge across shards");
                ctx.now().0
            })
            .outputs[0]
        };
        // 4 equal 40 ms shards + 20 ms per-fragment setup (charged once)
        // + 4 x 5 us fork/join. One slot serializes the shards; four
        // slots overlap them completely.
        assert_eq!(run(1), 180_020_000);
        assert_eq!(run(4), 60_020_000);
    }

    #[test]
    fn scaled_model_multiplies_costs() {
        let run = |model: ComputeModel| {
            let sim = Sim::new(1);
            sim.run(move |ctx| {
                model.run_merge(&ctx, 1000, || ());
                ctx.now().0
            })
            .outputs[0]
        };
        let base = run(ComputeModel::modeled());
        let double = run(ComputeModel::modeled().scaled(2.0));
        assert_eq!(double, base * 2);
    }

    #[test]
    fn measured_charges_something() {
        let sim = Sim::new(1);
        let t = sim
            .run(|ctx| {
                let model = ComputeModel::measured();
                model.run_merge(&ctx, 0, || {
                    let mut x = 0u64;
                    for i in 0..100_000u64 {
                        x = x.wrapping_add(i * i);
                    }
                    x
                });
                ctx.now().0
            })
            .outputs[0];
        assert!(t > 0);
    }
}
