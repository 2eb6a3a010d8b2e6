//! Source P: layer probes. Each replays one layer's share of the job
//! through the layer's public functions, on the workload's own inputs,
//! and times it on the host clock. Probes run after the timed reps and
//! never touch an end-to-end number.

use std::hint::black_box;
use std::time::Instant;

use blast_core::extend::{banded_global_into, gapped_xdrop, ungapped_xdrop, ExtendScratch};
use blast_core::format::{alignment_record, ReportConfig};
use blast_core::hsp::Hsp;
use blast_core::search::{BlastSearcher, PreparedQueries, SearchScratch, SearchStats, SubjectHit};
use blast_core::seq::SeqRecord;
use bytes::Bytes;
use mpiblast::wire::{MetaHit, MetaSubmission};
use mpiblast::ModelParams;
use mpiio::{FileView, MpiFile};
use mpisim::{Collectives, Comm};
use parafs::SimFs;
use pioblast::{merge_and_layout, BurstOptions, StagingStore};
use seqfmt::{virtual_fragments, FragmentData, VolumeIndex};
use simcluster::fiber::{self, Fiber};
use simcluster::{Sim, SimDuration};
use tracelog::{Lane, Tracer};

use crate::job::POOL;
use crate::metrics::Values;
use crate::spans::Spans;
use crate::stats::ratio;
use crate::workloads::{self, Inputs, Mode, SetupTimes, Spec};

/// Seconds a micro-probe keeps looping to average out timer noise.
const MICRO_BUDGET_S: f64 = 0.05;

/// Host seconds per call of `f`, averaged over enough calls to fill
/// [`MICRO_BUDGET_S`].
fn secs_per_call(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        f();
        calls += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= MICRO_BUDGET_S {
            return elapsed / calls as f64;
        }
    }
}

/// What the search probe learned, kept for the probes that build on it.
#[derive(Default)]
struct Searched {
    /// Seconds in `PreparedQueries::prepare`, and calls made.
    prepare_s: f64,
    prepare_calls: u64,
    /// Query residues per prepare call, summed.
    prepare_residues: u64,
    /// Seconds decoding fragments, and bytes decoded.
    decode_s: f64,
    decode_bytes: u64,
    /// Seconds in `BlastSearcher::search`, and its merged counters.
    search_s: f64,
    stats: SearchStats,
    /// Seconds in `alignment_record`, and bytes it produced.
    format_s: f64,
    format_bytes: u64,
    /// Hits formatted.
    hits: u64,
    /// Per query set, per fragment: the metadata a worker would submit.
    subs: Vec<Vec<MetaSubmission>>,
    /// Extension test pairs: `(query, subject, hsp)`.
    pairs: Vec<(Vec<u8>, Vec<u8>, Hsp)>,
}

/// Replay the blast-core and seqfmt share of the job serially: for every
/// query set (one, or one per stream batch), prepare the queries, then
/// decode, search and format every virtual fragment — what the workers
/// do between them.
fn search_and_format(spec: &Spec, inputs: &Inputs, query_sets: &[Vec<SeqRecord>]) -> Searched {
    let (params, _) = workloads::scaled_params();
    let db = &inputs.db;
    let report_cfg =
        ReportConfig::for_molecule(db.alias.molecule, db.alias.title.clone(), db.stats());
    let indexes: Vec<&VolumeIndex> = db.volumes.iter().map(|v| &v.index).collect();
    let frags = virtual_fragments(&indexes, spec.fragments());
    let mut out = Searched::default();
    let mut scratch = SearchScratch::new();
    for queries in query_sets {
        let t = Instant::now();
        let prepared = PreparedQueries::prepare(&params, queries.clone(), db.stats());
        out.prepare_s += t.elapsed().as_secs_f64();
        out.prepare_calls += 1;
        out.prepare_residues += prepared.total_residues();
        let searcher = BlastSearcher::new(&params, &prepared);
        let mut subs = Vec::with_capacity(frags.len());
        for fspec in &frags {
            let t = Instant::now();
            let frag = FragmentData::from_volume_slice(&db.volumes[fspec.volume], fspec);
            out.decode_s += t.elapsed().as_secs_f64();
            out.decode_bytes += frag.data_bytes();

            let t = Instant::now();
            let result = searcher.search(&frag, &mut scratch);
            out.search_s += t.elapsed().as_secs_f64();
            out.stats.merge(&result.stats);

            let mut sub = MetaSubmission::default();
            for (q, hits) in result.per_query.iter().enumerate() {
                if hits.is_empty() {
                    continue;
                }
                let query = &prepared.records[q].residues;
                let metas = hits
                    .iter()
                    .map(|hit| format_hit(&mut out, &params, &report_cfg, query, &frag, hit))
                    .collect();
                sub.per_query.push((q as u32, metas));
            }
            subs.push(sub);
        }
        out.subs.push(subs);
    }
    out
}

/// Format one hit the way a worker's result cache does, timing only the
/// `alignment_record` call; keeps every 8th pair (up to 512) for the
/// extension probes.
fn format_hit(
    out: &mut Searched,
    params: &blast_core::search::SearchParams,
    report_cfg: &ReportConfig,
    query: &[u8],
    frag: &FragmentData,
    hit: &SubjectHit,
) -> MetaHit {
    let residues = frag.residues_of(hit.oid).expect("hit lies in its fragment");
    let defline =
        String::from_utf8_lossy(frag.defline_of(hit.oid).expect("hit has a defline")).into_owned();
    let t = Instant::now();
    let record = alignment_record(params, report_cfg, query, &defline, residues, &hit.hsps);
    out.format_s += t.elapsed().as_secs_f64();
    out.format_bytes += record.len() as u64;
    out.hits += 1;
    if out.hits.is_multiple_of(8) && out.pairs.len() < 512 {
        out.pairs
            .push((query.to_vec(), residues.to_vec(), hit.hsps[0]));
    }
    MetaHit {
        oid: hit.oid,
        subject_len: hit.subject_len,
        record_size: record.len() as u64,
        defline,
        best: hit.hsps[0],
    }
}

/// The `extend::*` trio on pairs drawn from real hits.
fn extend_probes(pairs: &[(Vec<u8>, Vec<u8>, Hsp)], out: &mut Values) {
    let (params, _) = workloads::scaled_params();
    let raw = |bits: f64| (bits * std::f64::consts::LN_2 / params.ungapped.lambda).round() as i32;
    let (x_ungapped, x_gapped) = (
        raw(params.xdrop_ungapped_bits),
        raw(params.xdrop_gapped_bits),
    );
    let word = params.word_len as u32;
    // A seed on the HSP's own diagonal, clear of both sequence ends.
    let seeds: Vec<(u32, u32)> = pairs
        .iter()
        .map(|(q, s, h)| {
            let mid = (h.q_end - h.q_start).min(h.s_end - h.s_start) / 2;
            let qp = (h.q_start + mid).min(q.len() as u32 - word);
            let sp = (h.s_start + mid).min(s.len() as u32 - word);
            (qp, sp)
        })
        .collect();
    let n = pairs.len().max(1) as f64;
    let mut scratch = ExtendScratch::new();

    let per_sweep = secs_per_call(|| {
        for ((q, s, _), &(qp, sp)) in pairs.iter().zip(&seeds) {
            black_box(ungapped_xdrop(
                &params.matrix,
                q,
                s,
                qp,
                sp,
                word,
                x_ungapped,
            ));
        }
    });
    out.set("blast-core.ungapped_ns_per_call", per_sweep / n * 1e9);

    let per_sweep = secs_per_call(|| {
        for ((q, s, _), &(qp, sp)) in pairs.iter().zip(&seeds) {
            black_box(gapped_xdrop(
                &params.matrix,
                params.gaps,
                q,
                s,
                qp,
                sp,
                x_gapped,
                &mut scratch,
            ));
        }
    });
    out.set("blast-core.gapped_us_per_call", per_sweep / n * 1e6);

    let per_sweep = secs_per_call(|| {
        for (q, s, h) in pairs {
            black_box(banded_global_into(
                &params.matrix,
                params.gaps,
                &q[h.q_start as usize..h.q_end as usize],
                &s[h.s_start as usize..h.s_end as usize],
                16,
                &mut scratch,
            ));
        }
    });
    out.set("blast-core.banded_us_per_call", per_sweep / n * 1e6);
}

/// `virtual_fragments` at the workload's fragment count.
fn partition_probe(spec: &Spec, inputs: &Inputs, out: &mut Values) {
    let indexes: Vec<&VolumeIndex> = inputs.db.volumes.iter().map(|v| &v.index).collect();
    let per_call = secs_per_call(|| {
        black_box(virtual_fragments(black_box(&indexes), spec.fragments()));
    });
    out.set("seqfmt.partition_us", per_call * 1e6);
}

/// Engine probes at the workload's rank count, pool 2. Returns host
/// seconds per dispatched event.
fn simcluster_probes(spec: &Spec, out: &mut Values) -> f64 {
    let n = spec.ranks;

    let t = Instant::now();
    Sim::with_pool(n, POOL).run(|_ctx| ());
    let spawn_s = t.elapsed().as_secs_f64();
    out.set("simcluster.spawn_us_per_rank", spawn_s / n as f64 * 1e6);

    // Every rank yields K times; rank-dependent charges interleave the
    // wakes across the pool's workers as a real run does.
    let yields = (24_000 / n).max(8);
    let t = Instant::now();
    let outcome = Sim::with_pool(n, POOL).run(|ctx| {
        for _ in 0..yields {
            ctx.charge(SimDuration(1_000 + ctx.rank() as u64));
        }
    });
    let dispatch = ratio(
        (t.elapsed().as_secs_f64() - spawn_s).max(0.0),
        outcome.stats.events as f64,
    );
    out.set("simcluster.dispatch_ns_per_event", dispatch * 1e9);

    let mut fiber = Fiber::new(64 * 1024, |mut arg| loop {
        arg = fiber::suspend(arg + 1);
    });
    let mut token = 0usize;
    let round_trip = secs_per_call(|| {
        for _ in 0..1024 {
            token = fiber.resume(token & 0xffff);
        }
    });
    black_box(token);
    drop(fiber);
    out.set("simcluster.fiber_switch_ns", round_trip / 1024.0 * 1e9);
    dispatch
}

/// `Comm` probes: a two-rank ping-pong and a broadcast at the workload's
/// rank count.
fn mpisim_probes(spec: &Spec, out: &mut Values) {
    let net = spec.machine.platform().net;
    const ROUND_TRIPS: u64 = 2_000;
    let t = Instant::now();
    Sim::with_pool(2, POOL).run(|ctx| {
        let comm = Comm::new(&ctx, net);
        let peer = 1 - comm.rank();
        for i in 0..ROUND_TRIPS {
            if comm.rank() == 0 {
                comm.send(peer, i, Bytes::from(vec![0u8; 64]));
                black_box(comm.recv(Some(peer), Some(i)));
            } else {
                black_box(comm.recv(Some(peer), Some(i)));
                comm.send(peer, i, Bytes::from(vec![0u8; 64]));
            }
        }
    });
    out.set(
        "mpisim.p2p_ns_per_msg",
        t.elapsed().as_secs_f64() / (2 * ROUND_TRIPS) as f64 * 1e9,
    );

    let calls = (4_096 / spec.ranks).max(2);
    let t = Instant::now();
    Sim::with_pool(spec.ranks, POOL).run(|ctx| {
        let comm = Comm::new(&ctx, net);
        for _ in 0..calls {
            let data = if comm.rank() == 0 {
                Bytes::from(vec![0u8; 4096])
            } else {
                Bytes::new()
            };
            black_box(comm.bcast(0, data));
        }
    });
    out.set(
        "mpisim.bcast_us_per_call",
        t.elapsed().as_secs_f64() / calls as f64 * 1e6,
    );
}

/// 16 ranks contending 64 KiB `read_at`s on the workload's shared-fs
/// profile.
fn parafs_probe(spec: &Spec, out: &mut Values) {
    const RANKS: usize = 16;
    const READS: usize = 32;
    const CHUNK: u64 = 64 * 1024;
    let sim = Sim::with_pool(RANKS, POOL);
    let fs = SimFs::new(sim.handle(), "probe", spec.machine.platform().shared_fs);
    fs.preload("blob", vec![7u8; (CHUNK as usize) * RANKS * 2]);
    let t = Instant::now();
    sim.run(|ctx| {
        for i in 0..READS {
            let offset = ((ctx.rank() * 2 + i % 2) as u64) * CHUNK;
            black_box(fs.read_at(&ctx, "blob", offset, CHUNK).expect("in range"));
        }
    });
    out.set(
        "parafs.op_host_ns",
        t.elapsed().as_secs_f64() / (RANKS * READS) as f64 * 1e9,
    );
}

/// What the output probes hand to the attribution.
struct OutputProbe {
    /// Bytes the job's formatters produce.
    job_format_bytes: u64,
    /// Host seconds of the two-phase write beyond engine dispatch.
    collective_write_s: f64,
}

/// `FileView` flattening, the merge, and a two-phase collective write of
/// the workload's own output layout on its own rank count.
fn output_probes(
    spec: &Spec,
    inputs: &Inputs,
    first_set: &[SeqRecord],
    searched: &Searched,
    dispatch_s: f64,
    out: &mut Values,
) -> OutputProbe {
    const REGIONS: usize = 10_000;
    let regions: Vec<(u64, u64)> = (0..REGIONS as u64).map(|i| (i * 100, 50)).collect();
    let per_call = secs_per_call(|| {
        let view = FileView::new(7, regions.clone()).expect("sorted, disjoint");
        black_box(view.absolute().map(|(o, l)| o ^ l).fold(0, |a, b| a ^ b));
    });
    out.set(
        "mpiio.flatten_ns_per_region",
        per_call / REGIONS as f64 * 1e9,
    );

    // Merge the first query set's submissions as the master does: rank r
    // holds fragment r - 1 and the master submits nothing.
    let (params, report_opts) = workloads::scaled_params();
    let db = &inputs.db;
    let report_cfg =
        ReportConfig::for_molecule(db.alias.molecule, db.alias.title.clone(), db.stats());
    let prepared = PreparedQueries::prepare(&params, first_set.to_vec(), db.stats());
    let mut subs = vec![MetaSubmission::default()];
    subs.extend(searched.subs[0].iter().cloned());
    let t = Instant::now();
    let merged = merge_and_layout(&report_cfg, &params, &prepared, &subs, report_opts, 0);
    let merge_s = t.elapsed().as_secs_f64();
    out.set(
        "app.merge_ns_per_item",
        ratio(merge_s, merged.merged_items as f64) * 1e9,
    );

    // Each rank's share of the report: its records at the offsets the
    // merge assigned (sizes come from its own submission); the master
    // writes the headers, summaries and footers.
    let mut layouts: Vec<Vec<(u64, u64)>> = Vec::with_capacity(subs.len());
    let mut selected_bytes = 0u64;
    for (rank, assignment) in merged.per_rank.iter().enumerate() {
        let size_of = |q: u32, oid: u32| {
            subs[rank]
                .per_query
                .iter()
                .find(|(qi, _)| *qi == q)
                .and_then(|(_, hits)| hits.iter().find(|h| h.oid == oid))
                .map_or(0, |h| h.record_size)
        };
        let mut regions: Vec<(u64, u64)> = assignment
            .records
            .iter()
            .map(|&(q, oid, off)| (off, size_of(q, oid)))
            .filter(|&(_, len)| len > 0)
            .collect();
        selected_bytes += regions.iter().map(|r| r.1).sum::<u64>();
        if rank == 0 {
            regions.extend(
                merged
                    .master_sections
                    .iter()
                    .filter(|(_, text)| !text.is_empty())
                    .map(|(off, text)| (*off, text.len() as u64)),
            );
        }
        regions.sort_unstable();
        layouts.push(regions);
    }

    let platform = spec.machine.platform();
    let sim = Sim::with_pool(spec.ranks, POOL);
    let fs = SimFs::new(sim.handle(), "probe-out", platform.shared_fs);
    let t = Instant::now();
    let outcome = sim.run(|ctx| {
        let comm = Comm::new(&ctx, platform.net);
        if comm.rank() == 0 {
            fs.create(&ctx, "report.txt");
        }
        comm.barrier();
        let view = FileView::new(0, layouts[comm.rank()].clone())
            .expect("the merge lays records out disjointly");
        let data = vec![b'x'; view.total_bytes() as usize];
        MpiFile::open(&comm, &fs, "report.txt")
            .write_at_all(&view, &data)
            .expect("collective write");
    });
    let write_s = t.elapsed().as_secs_f64();
    out.set(
        "mpiio.two_phase_host_mb_per_s",
        ratio(merged.total_bytes as f64, write_s) / 1e6,
    );

    OutputProbe {
        // pioBLAST workers format every hit they find; mpiBLAST's master
        // formats only the selected ones.
        job_format_bytes: match spec.mode {
            Mode::Mpi => selected_bytes,
            _ => searched.format_bytes,
        },
        // The job's own event count already carries the exchange's
        // dispatch cost; keep only what the write adds on top.
        collective_write_s: (write_s - outcome.stats.events as f64 * dispatch_s).max(0.0),
    }
}

/// `StagingStore::put` host cost.
fn burstfs_probe(spec: &Spec, out: &mut Values) {
    const PUTS: u64 = 64;
    const RUN: usize = 64 * 1024;
    let platform = spec.machine.platform();
    let sim = Sim::with_pool(1, POOL);
    let staging = SimFs::new(sim.handle(), "probe-stage", platform.staging);
    let dest = SimFs::new(sim.handle(), "probe-dest", platform.shared_fs);
    let port = burstfs::DeviceModel {
        op_latency: platform.staging.op_latency,
        bandwidth: platform.staging.aggregate_bw,
    };
    let t = Instant::now();
    sim.run(|ctx| {
        let mut store =
            StagingStore::new(staging.clone(), dest.clone(), BurstOptions::default(), port);
        let run = vec![3u8; RUN];
        for i in 0..PUTS {
            store
                .put(&ctx, "report.txt", i * RUN as u64, &run)
                .expect("capacity is ample");
        }
        store.fence(&ctx).expect("drains land");
    });
    out.set(
        "burstfs.put_host_ns_per_kb",
        t.elapsed().as_secs_f64() / (PUTS * RUN as u64 / 1024) as f64 * 1e9,
    );
}

/// `tracelog` probes: emit cost through an installed tracer, and the
/// Chrome export rate on the run's own trace.
fn tracelog_probes(chrome_len: usize, export_s: f64, out: &mut Values) {
    const EVENTS: usize = 4_096;
    let per_batch = secs_per_call(|| {
        // A fresh tracer per batch, so the ring never wraps.
        let tracer = Tracer::new(1);
        let clock = std::cell::Cell::new(0u64);
        let installed = tracelog::install(tracer.clone(), 0, move || {
            clock.set(clock.get() + 1);
            clock.get()
        });
        for _ in 0..EVENTS {
            tracelog::instant(Lane::Runtime, "probe", Vec::new());
        }
        drop(installed);
        black_box(tracer.finish(EVENTS as u64));
    });
    out.set(
        "tracelog.emit_ns_per_event",
        per_batch / EVENTS as f64 * 1e9,
    );
    out.set(
        "tracelog.export_mb_per_s",
        ratio(chrome_len as f64, export_s) / 1e6,
    );
}

/// What the caller knows about the job the probes explain.
pub struct JobFacts {
    /// The job's `host_wall_s`: its fastest untraced rep.
    pub host_wall_s: f64,
    /// Host wall of the traced run.
    pub traced_wall_s: f64,
    /// Events the job's engine dispatched.
    pub events: u64,
    /// Bytes `export_chrome` produced from the run's trace.
    pub chrome_len: usize,
    /// Host seconds `export_chrome` took.
    pub export_s: f64,
    /// Set-up stage times (the seqfmt generator rates come from them).
    pub setup: SetupTimes,
    /// Workload seed (for the serve plan).
    pub seed: u64,
}

/// Run every probe for one workload and record the source-P metrics.
pub fn record(
    spec: &Spec,
    inputs: &Inputs,
    facts: &JobFacts,
    spans: &mut Spans,
    parent: usize,
    out: &mut Values,
) {
    let query_sets = inputs.query_sets(spec, facts.seed);

    let (searched, _) = spans.time("probe.blast-core.search_format", Some(parent), || {
        search_and_format(spec, inputs, &query_sets)
    });
    let residues = inputs.db.stats().total_residues as f64;
    out.set(
        "blast-core.prepare_us_per_call",
        ratio(searched.prepare_s, searched.prepare_calls as f64) * 1e6,
    );
    out.set(
        "blast-core.search_ns_per_residue",
        ratio(searched.search_s, searched.stats.residues as f64) * 1e9,
    );
    out.set(
        "blast-core.format_mb_per_s",
        ratio(searched.format_bytes as f64, searched.format_s) / 1e6,
    );
    out.set(
        "seqfmt.decode_mb_per_s",
        ratio(searched.decode_bytes as f64, searched.decode_s) / 1e6,
    );
    out.set(
        "seqfmt.synth_mb_per_s",
        ratio(residues, facts.setup.synth_s) / 1e6,
    );
    out.set(
        "seqfmt.formatdb_mb_per_s",
        ratio(residues, facts.setup.formatdb_s) / 1e6,
    );

    spans.time("probe.blast-core.extend", Some(parent), || {
        extend_probes(&searched.pairs, out)
    });
    spans.time("probe.seqfmt.partition", Some(parent), || {
        partition_probe(spec, inputs, out)
    });
    let (dispatch_s, _) = spans.time("probe.simcluster", Some(parent), || {
        simcluster_probes(spec, out)
    });
    spans.time("probe.mpisim", Some(parent), || mpisim_probes(spec, out));
    spans.time("probe.parafs", Some(parent), || parafs_probe(spec, out));
    let (output, _) = spans.time("probe.mpiio_merge", Some(parent), || {
        output_probes(spec, inputs, &query_sets[0], &searched, dispatch_s, out)
    });
    spans.time("probe.burstfs", Some(parent), || burstfs_probe(spec, out));
    spans.time("probe.tracelog", Some(parent), || {
        tracelog_probes(facts.chrome_len, facts.export_s, out)
    });
    out.set(
        "tracelog.run_overhead_pct",
        (ratio(facts.traced_wall_s, facts.host_wall_s) - 1.0) * 100.0,
    );

    // Model calibration: measured host seconds over the seconds
    // ModelParams charges for the same counts. Reported, not gated.
    let model = ModelParams::default();
    let s = searched.stats;
    let nsearches = (searched.prepare_calls * spec.fragments() as u64) as f64;
    let modeled_search = model.per_fragment * nsearches
        + model.per_residue * s.residues as f64
        + model.per_seed * s.seed_hits as f64
        + model.per_ungapped * s.ungapped_extensions as f64
        + model.per_gapped * s.gapped_extensions as f64;
    out.set(
        "mpiblast.calib.search_ratio",
        ratio(searched.search_s, modeled_search),
    );
    out.set(
        "mpiblast.calib.format_ratio",
        ratio(
            searched.format_s,
            model.per_output_byte * searched.format_bytes as f64,
        ),
    );
    out.set(
        "mpiblast.calib.prepare_ratio",
        ratio(
            searched.prepare_s,
            model.per_prepare_residue * searched.prepare_residues as f64,
        ),
    );

    // Attribution: how much of the job's host wall the probes explain.
    let wall = facts.host_wall_s;
    let format_s =
        ratio(output.job_format_bytes as f64, searched.format_bytes as f64) * searched.format_s;
    // Every rank prepares each query set once.
    let prepare_s = searched.prepare_s * spec.ranks as f64;
    let engine_s = facts.events as f64 * dispatch_s;
    // Only the one-shot pioBLAST job writes its report collectively.
    let collective_write_s = match spec.mode {
        Mode::Pio => output.collective_write_s,
        _ => 0.0,
    };
    out.set(
        "blast-core.host_share",
        ratio(searched.search_s + format_s, wall),
    );
    out.set("blast-core.prepare_share", ratio(prepare_s, wall));
    out.set("simcluster.host_share", ratio(engine_s, wall));
    let explained = searched.search_s
        + format_s
        + prepare_s
        + engine_s
        + searched.decode_s
        + collective_write_s;
    out.set("bench.residual_pct", (1.0 - ratio(explained, wall)) * 100.0);
}
