//! The mpiBLAST baseline, faithfully reproducing the 1.2.1 data flow the
//! paper measures:
//!
//! * the database is *pre-partitioned* into physical fragment files on
//!   shared storage;
//! * a master greedily assigns unsearched fragments to idle workers;
//! * each worker **copies** its fragment's files to private storage (its
//!   local disk, or shared scratch on the Altix), then reads them back
//!   during the search stage (mpiBLAST's mmap-embedded I/O);
//! * workers submit per-fragment result alignments (scores and
//!   coordinates only) to the master;
//! * the master merges and, **serially, one alignment at a time**,
//!   fetches sequence data from the owning worker, formats the record
//!   with the output routine, and writes it to the single output file.
//!
//! The serialized result-fetch/format/write loop is the bottleneck the
//! paper quantifies (Table 1: 1007 s of output time against pioBLAST's
//! 15.4 s); it is reproduced here structurally, not hard-coded.

use blast_core::fasta;
use blast_core::format::{self, ReportConfig};
use blast_core::search::{BlastSearcher, SearchScratch, SearchStats, SubjectHit};
use bytes::Bytes;
use mpiio::{FileView, IoPlane, PlaneConfig, Run};
use mpisim::sched::{default_sweep, GrantQueue, Polled, Pump};
use mpisim::{Collectives, Comm};
use parafs::StoreError;
use seqfmt::{FragmentData, VolumeIndex, Wire};
use simcluster::{Message, PhaseTimes, RankCtx};

use crate::error::{InputError, PioError};
use crate::model::ComputeModel;
use crate::phases;
use crate::platform::{ClusterEnv, Platform};
use crate::report::{build_layout, ReportOptions};
use crate::wire::{FetchRequest, FetchResponse, QueryBundle, ResultSubmission};

/// Rank 0 is always the master.
pub const MASTER: usize = 0;

const TAG_FRAG_REQ: u64 = 1;
const TAG_FRAG_ASSIGN: u64 = 2;
const TAG_SUBMIT: u64 = 3;
const TAG_FETCH_REQ: u64 = 4;
const TAG_FETCH_RESP: u64 = 5;
const TAG_DONE: u64 = 6;
const TAG_FRAG_DONE: u64 = 7;
const TAG_ABORT: u64 = 8;
/// Worker -> master: this worker could not load a fragment and is gone.
const TAG_FRAG_FAILED: u64 = 9;

/// No-more-fragments sentinel.
const FRAG_NONE: u32 = u32::MAX;

/// Configuration of one mpiBLAST run.
pub struct MpiBlastConfig {
    /// Machine description.
    pub platform: Platform,
    /// Instantiated file systems.
    pub env: ClusterEnv,
    /// Compute-cost mode.
    pub compute: ComputeModel,
    /// BLAST search parameters.
    pub params: blast_core::search::SearchParams,
    /// Report-size limits.
    pub report: ReportOptions,
    /// Pre-partitioned fragment base names on the shared file system.
    pub fragment_names: Vec<String>,
    /// Query FASTA path on the shared file system.
    pub query_path: String,
    /// Output report path on the shared file system.
    pub output_path: String,
    /// Detect dead ranks and fail fast with a typed [`PioError`]
    /// instead of deadlocking (stock MPI behaviour). Detection covers the
    /// scheduling and output epochs; it does not change fault-free timing
    /// or output bytes.
    pub fault_detection: bool,
}

impl MpiBlastConfig {
    /// The stock mpiBLAST baseline over a staged environment: modeled
    /// compute, blastp parameters, the default report limits, no fault
    /// detection. Callers change what they vary with struct-update
    /// syntax.
    pub fn new(
        platform: &Platform,
        env: &ClusterEnv,
        fragment_names: Vec<String>,
        query_path: &str,
        output_path: &str,
    ) -> MpiBlastConfig {
        MpiBlastConfig {
            platform: platform.clone(),
            env: env.clone(),
            compute: ComputeModel::modeled(),
            params: blast_core::search::SearchParams::blastp(),
            report: ReportOptions::default(),
            fragment_names,
            query_path: query_path.to_string(),
            output_path: output_path.to_string(),
            fault_detection: false,
        }
    }
}

/// What each rank reports at the end of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankReport {
    /// Per-phase virtual time.
    pub phases: PhaseTimes,
    /// Search-effort counters (workers).
    pub search_stats: SearchStats,
}

/// The per-rank body of an mpiBLAST run; call from every rank of a
/// simulation.
pub fn run_rank(ctx: &RankCtx, cfg: &MpiBlastConfig) -> Result<RankReport, PioError> {
    assert!(ctx.nranks() >= 2, "mpiBLAST needs a master and a worker");
    let comm = Comm::new(ctx, cfg.platform.net);
    if ctx.rank() == MASTER {
        run_master(ctx, &comm, cfg)
    } else {
        run_worker(ctx, &comm, cfg)
    }
}

/// Tell every worker but the `dead` ones to abort (best effort; sends
/// to dead ranks are dropped). The master's first detected death ends
/// the run, so every other worker is still live.
fn abort_workers(comm: &Comm, dead: &[usize]) {
    for w in (1..comm.size()).filter(|w| !dead.contains(w)) {
        let _ = comm.send_checked(w, TAG_ABORT, Bytes::new());
    }
}

/// The failure a worker reported in its `TAG_FRAG_FAILED`.
fn frag_failed(m: Message) -> PioError {
    PioError::WorkerFailed {
        rank: m.src,
        what: String::from_utf8_lossy(&m.payload).into_owned(),
    }
}

/// Why the sweep found worker `rank` gone. One that failed a fragment
/// sent `TAG_FRAG_FAILED` before returning, so that message is already
/// queued (perhaps still in flight) and names the failure, even when
/// the master swept before reading it; a killed worker is a death.
fn departed(comm: &Comm, rank: usize) -> PioError {
    let report = if comm.ctx().is_dead(rank) {
        None
    } else {
        comm.recv_timeout(Some(rank), Some(TAG_FRAG_FAILED), default_sweep())
            .ok()
    };
    report.map_or(PioError::WorkerDied { rank }, frag_failed)
}

fn run_master(ctx: &RankCtx, comm: &Comm, cfg: &MpiBlastConfig) -> Result<RankReport, PioError> {
    let shared = &cfg.env.shared;
    let mut phases = PhaseTimes::new();
    let now = || ctx.now();
    let nworkers = ctx.nranks() - 1;
    let nfrag = cfg.fragment_names.len();
    let pump = Pump::new(comm, cfg.fault_detection);

    // ---- startup: read the index and queries, broadcast the bundle ----
    let start = now();
    let setup = || {
        let idx_path = format!("{}.idx", cfg.fragment_names[0]);
        let idx_bytes = shared.read_all(ctx, &idx_path).map_err(InputError::Store)?;
        let index = VolumeIndex::decode(&idx_bytes)
            .map_err(|e| InputError::Malformed(format!("fragment index {idx_path}: {e}")))?;
        let query_text = shared
            .read_all(ctx, &cfg.query_path)
            .map_err(InputError::Store)?;
        let queries = fasta::parse(index.molecule, &query_text)
            .map_err(|e| InputError::Malformed(format!("query FASTA {}: {e}", cfg.query_path)))?;
        Ok::<_, PioError>(QueryBundle {
            db_title: index.title,
            db_stats: index.global_stats,
            molecule: index.molecule,
            queries,
        })
    };
    let bundle = match setup() {
        Ok(bundle) => bundle,
        Err(e) => {
            // The workers sit in the bundle broadcast: an empty bundle
            // fails their decode into a typed error instead of a hang.
            comm.bcast(MASTER, Bytes::new());
            return Err(e);
        }
    };
    comm.bcast(MASTER, Bytes::from(bundle.encode()));
    let prepared = cfg
        .compute
        .run_prepare(ctx, &cfg.params, &bundle.queries, bundle.db_stats);
    let report_cfg =
        ReportConfig::for_molecule(bundle.molecule, bundle.db_title.clone(), bundle.db_stats);
    phases.add(phases::OTHER, now() - start);

    // ---- scheduling + collection epoch ----
    // (query, oid) hits tagged with the worker that owns the sequence data.
    // Result-message handling is charged to the output phase: it is the
    // front half of mpiBLAST's result-merging pipeline (the paper's
    // "Output" column), even though it overlaps the search epoch.
    let mut merged: Vec<Vec<(SubjectHit, usize)>> = vec![Vec::new(); prepared.len()];
    let mut grants = GrantQueue::new(nfrag, ctx.nranks());
    let mut fragments_done = 0usize;
    let mut drained_workers = 0usize;
    while fragments_done < nfrag || drained_workers < nworkers {
        // Without detection the pump degenerates to a blocking receive;
        // with it, a lost worker's unfinished fragment surfaces as a
        // death instead of hanging the job.
        let m = match pump.poll(|_| true, None, None) {
            Polled::Msg(m) => m,
            Polled::Dead(dead) => {
                abort_workers(comm, &dead);
                return Err(departed(comm, dead[0]));
            }
        };
        match m.tag {
            TAG_FRAG_REQ => match grants.grant_to(m.src) {
                Some(f) => {
                    comm.send(m.src, TAG_FRAG_ASSIGN, Bytes::from((f as u32).encode()));
                }
                None => {
                    comm.send(m.src, TAG_FRAG_ASSIGN, Bytes::from(FRAG_NONE.encode()));
                    drained_workers += 1;
                }
            },
            TAG_SUBMIT => {
                let before = now();
                let sub = match ResultSubmission::decode(&m.payload) {
                    Ok(sub) => sub,
                    Err(e) => {
                        abort_workers(comm, &[]);
                        return Err(e.into());
                    }
                };
                // Query indexes arrive on the wire: one past the query
                // set is a malformed frame, not an out-of-bounds index.
                if let Some((q, _)) = sub
                    .per_query
                    .iter()
                    .find(|(q, _)| *q as usize >= merged.len())
                {
                    abort_workers(comm, &[]);
                    return Err(PioError::Protocol(format!(
                        "result submission from rank {}: query {q} of a {}-query set",
                        m.src,
                        merged.len()
                    )));
                }
                let items: u64 = sub.per_query.iter().map(|(_, h)| h.len() as u64).sum();
                cfg.compute.run_submission_handling(ctx, items, || {
                    for (q, hits) in sub.per_query {
                        for h in hits {
                            merged[q as usize].push((h, m.src));
                        }
                    }
                });
                phases.add(phases::OUTPUT, now() - before);
            }
            TAG_FRAG_DONE => {
                fragments_done += 1;
            }
            TAG_FRAG_FAILED => {
                abort_workers(comm, &[]);
                return Err(frag_failed(m));
            }
            other => {
                abort_workers(comm, &[]);
                return Err(PioError::Protocol(format!(
                    "master got unexpected tag {other}"
                )));
            }
        }
    }

    // ---- output epoch: merge, fetch serially, format, write serially ----
    let out_start = now();
    shared.create(ctx, &cfg.output_path);
    // The baseline master writes alone: the default plane (independent,
    // unstaged) reproduces mpiBLAST's serial appends exactly — each
    // section is one contiguous run, joined before the next is formatted.
    let out_plane = IoPlane::new(comm, shared, PlaneConfig::default(), None);
    let mut file_off = 0u64;
    for (q, merged_slot) in merged.iter_mut().enumerate() {
        let mut hits = std::mem::take(merged_slot);
        cfg.compute.run_merge(ctx, hits.len() as u64, || {
            hits.sort_by(|a, b| a.0.hsps[0].rank_key().cmp(&b.0.hsps[0].rank_key()));
        });
        let n_desc = hits.len().min(cfg.report.num_descriptions);
        let n_rec = hits.len().min(cfg.report.num_alignments);
        let n_fetch = n_desc.max(n_rec);

        // The serialized fetch loop: one request/response round trip per
        // alignment appearing in the output.
        let mut fetched: Vec<FetchResponse> = Vec::with_capacity(n_fetch);
        for (hit, owner) in hits.iter().take(n_fetch) {
            let req = FetchRequest {
                query_idx: q as u32,
                oid: hit.oid,
            };
            comm.send(*owner, TAG_FETCH_REQ, Bytes::from(req.encode()));
            let resp = match pump.poll(|_| true, Some(*owner), Some(TAG_FETCH_RESP)) {
                Polled::Msg(m) => m,
                Polled::Dead(dead) => {
                    abort_workers(comm, &dead);
                    return Err(departed(comm, dead[0]));
                }
            };
            let decoded = cfg
                .compute
                .run_fetch_handling(ctx, || FetchResponse::decode(&resp.payload));
            match decoded {
                Ok(decoded) => fetched.push(decoded),
                Err(e) => {
                    abort_workers(comm, &[]);
                    return Err(e.into());
                }
            }
        }

        // Format every selected record (the "NCBI output function" call)
        // straight into the query's output buffer: NCBI's formatter is
        // stream-buffered, so the records are one piece of the section.
        let query = &prepared.records[q];
        let mut records = String::new();
        for ((hit, _), f) in hits.iter().take(n_rec).zip(&fetched) {
            cfg.compute.run_format(
                ctx,
                || {
                    let start = records.len();
                    let defline = String::from_utf8_lossy(&f.defline);
                    let record = (&*defline, &f.residues[..], &hit.hsps[..]);
                    SearchScratch::with_local(|scratch| {
                        format::append_alignment_record(
                            &cfg.params,
                            &report_cfg,
                            &query.residues,
                            record,
                            scratch.extend_scratch(),
                            &mut records,
                        )
                    });
                    (records.len() - start) as u64
                },
                |&bytes| bytes,
            );
        }
        let summaries: Vec<(String, f64, f64)> = (0..n_desc)
            .map(|i| {
                let (hit, _) = &hits[i];
                (
                    String::from_utf8_lossy(&fetched[i].defline).into_owned(),
                    hit.hsps[0].bit_score,
                    hit.hsps[0].evalue,
                )
            })
            .collect();
        let layout = build_layout(
            &report_cfg,
            &cfg.params,
            query,
            &prepared.spaces[q],
            &summaries,
        );

        // The master writes the query's whole section with one serial
        // call: head, summary, records and footer, each buffer a piece of
        // the one run.
        let mut section = Run::default();
        let (head, footer) = (layout.section.head, layout.section.footer);
        for text in [head, layout.summary, records, footer] {
            section.push(section.len(), Bytes::from(text));
        }
        let view = FileView::contiguous(file_off, section.len());
        file_off += section.len();
        out_plane
            .write_output(&cfg.output_path, &view, section)
            .map_err(PioError::Output)?;
    }
    for w in 1..ctx.nranks() {
        comm.send(w, TAG_DONE, Bytes::new());
    }
    phases.add(phases::OUTPUT, now() - out_start);

    Ok(RankReport {
        phases,
        search_stats: SearchStats::default(),
    })
}

fn run_worker(ctx: &RankCtx, comm: &Comm, cfg: &MpiBlastConfig) -> Result<RankReport, PioError> {
    let shared = &cfg.env.shared;
    let (private, prefix) = cfg.env.private_store(ctx.rank());
    let mut phases = PhaseTimes::new();
    let now = || ctx.now();
    let pump = Pump::new(comm, cfg.fault_detection);
    // A fragment this worker cannot load fails the job: the master, who
    // would otherwise wait for the fragment forever, is told and aborts
    // the others.
    let fail = |e: PioError| {
        comm.send(MASTER, TAG_FRAG_FAILED, Bytes::from(e.to_string()));
        e
    };
    // A fragment file it cannot copy or read back is an input error.
    let unreadable = |e: StoreError| fail(InputError::Store(e).into());

    // ---- startup ----
    let bundle_bytes = comm.bcast(MASTER, Bytes::new());
    let bundle = QueryBundle::decode(&bundle_bytes)?;
    let mut stats_total = SearchStats::default();

    // Fragments this worker searched, kept in memory to serve fetches.
    let mut kept: Vec<FragmentData> = Vec::new();

    // ---- fragment loop ----
    loop {
        comm.send(MASTER, TAG_FRAG_REQ, Bytes::new());
        let m = pump
            .recv_from(MASTER, None)
            .map_err(|_| PioError::MasterDied)?;
        let fid = match m.tag {
            TAG_FRAG_ASSIGN => u32::decode(&m.payload)?,
            TAG_ABORT => return Err(PioError::Aborted),
            other => {
                return Err(PioError::Protocol(format!(
                    "worker got unexpected tag {other}"
                )))
            }
        };
        if fid == FRAG_NONE {
            break;
        }
        let Some(name) = cfg.fragment_names.get(fid as usize) else {
            return Err(fail(PioError::Protocol(format!(
                "fragment assignment from rank {}: fragment {fid} of {}",
                m.src,
                cfg.fragment_names.len()
            ))));
        };

        // Copy stage: shared storage -> private storage, whole files. The
        // private store keeps the very buffer the read returned.
        let copy_start = now();
        let mut copied: Vec<String> = Vec::new();
        for ext in ["idx", "seq", "hdr"] {
            let src = format!("{name}.{ext}");
            let data = shared.read_all(ctx, &src).map_err(unreadable)?;
            let dst = format!("{prefix}{src}");
            private.create(ctx, &dst);
            private.write_at(ctx, &dst, 0, data).map_err(unreadable)?;
            copied.push(dst);
        }
        phases.add(phases::COPY, now() - copy_start);

        // Search stage: read the private copy back (mpiBLAST's I/O
        // embedded in the search via mmap), then run the kernel. Each
        // fragment is a fresh BLAST engine invocation, so the query set
        // is re-prepared every time — blastall-per-fragment behaviour,
        // and a real per-fragment cost mpiBLAST pays.
        let search_start = now();
        let reread = |path: &String| private.read_all(ctx, path).map_err(unreadable);
        let idx = reread(&copied[0])?;
        let seq = reread(&copied[1])?;
        let hdr = reread(&copied[2])?;
        let frag = FragmentData::from_file_bytes(&idx, seq, hdr)
            .map_err(|e| fail(InputError::Fragment(format!("fragment {name}: {e}")).into()))?;
        let prepared = cfg
            .compute
            .run_prepare(ctx, &cfg.params, &bundle.queries, bundle.db_stats);
        let searcher = BlastSearcher::new(&cfg.params, &prepared);
        // The thread's kernel scratch is query-agnostic, so it serves
        // the query set re-prepared per fragment too.
        let (per_query, stats) = cfg.compute.run_search(ctx, true, || {
            let r = SearchScratch::with_local(|scratch| searcher.search(&frag, scratch));
            (r.per_query, r.stats)
        });
        stats_total.merge(&stats);
        phases.add(phases::SEARCH, now() - search_start);

        // Submit results (alignments without sequence data). mpiBLAST
        // reports per query: one message per (fragment, query) pair, so
        // the master's result handling scales with fragments x queries.
        for (q, hits) in per_query.into_iter().enumerate() {
            if hits.is_empty() {
                continue;
            }
            let sub = ResultSubmission {
                fragment: fid,
                per_query: vec![(q as u32, hits)],
            };
            comm.send(MASTER, TAG_SUBMIT, Bytes::from(sub.encode()));
        }
        comm.send(MASTER, TAG_FRAG_DONE, Bytes::from(fid.encode()));
        kept.push(frag);
    }

    // ---- serve the master's serialized fetch requests ----
    loop {
        let m = pump
            .recv_from(MASTER, None)
            .map_err(|_| PioError::MasterDied)?;
        match m.tag {
            TAG_DONE => break,
            TAG_ABORT => return Err(PioError::Aborted),
            TAG_FETCH_REQ => {
                // Wire bytes are untrusted. A request that does not
                // decode, or names a subject this worker never searched,
                // is answered with an empty response — the master's
                // decode of it fails and aborts the job — and fails here.
                let found = FetchRequest::decode(&m.payload).ok().and_then(|req| {
                    kept.iter().find_map(|f| {
                        Some(FetchResponse {
                            defline: f.defline_of(req.oid)?.to_vec(),
                            residues: f.residues_of(req.oid)?.to_vec(),
                        })
                    })
                });
                let Some(resp) = found else {
                    comm.send(MASTER, TAG_FETCH_RESP, Bytes::new());
                    return Err(PioError::Protocol(
                        "fetch request: undecodable, or a subject this worker does not hold".into(),
                    ));
                };
                comm.send(MASTER, TAG_FETCH_RESP, Bytes::from(resp.encode()));
            }
            other => {
                return Err(PioError::Protocol(format!(
                    "worker got unexpected tag {other}"
                )))
            }
        }
    }

    Ok(RankReport {
        phases,
        search_stats: stats_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{serial_report, ReportOptions};
    use crate::setup::{stage_fragments, stage_queries};
    use blast_core::search::SearchParams;
    use blast_core::seq::SeqRecord;
    use seqfmt::formatdb::{format_records, FormatDbConfig};
    use seqfmt::synth::{generate, SynthConfig};
    use simcluster::Sim;

    fn small_db() -> seqfmt::FormattedDb {
        let recs = generate(&SynthConfig::nr_like(21, 40_000));
        format_records(&recs, &FormatDbConfig::protein("nr-test"))
    }

    fn sample_queries(db: &seqfmt::FormattedDb, n: usize) -> Vec<SeqRecord> {
        use blast_core::search::SubjectSource;
        let frag = FragmentData::from_volume(&db.volumes[0]);
        (0..n)
            .map(|i| {
                let s = frag.subject((i * 13) % frag.num_subjects());
                SeqRecord {
                    defline: format!("query_{i:05} sampled"),
                    residues: s.residues.to_vec(),
                    molecule: blast_core::Molecule::Protein,
                }
            })
            .collect()
    }

    fn run_once(nranks: usize, nfrags: usize, platform: Platform) -> (Vec<u8>, Vec<RankReport>) {
        let db = small_db();
        let queries = sample_queries(&db, 3);
        let sim = Sim::new(nranks);
        let env = ClusterEnv::new(&sim, &platform);
        let fragment_names = stage_fragments(&env.shared, &db, nfrags);
        let query_path = stage_queries(&env.shared, &queries);
        let cfg = MpiBlastConfig::new(&platform, &env, fragment_names, &query_path, "results.txt");
        let outcome = sim.run(|ctx| run_rank(&ctx, &cfg));
        let output = env.shared.peek("results.txt").expect("output written");
        let reports = outcome
            .outputs
            .into_iter()
            .map(|r| r.expect("rank completed"))
            .collect();
        (output, reports)
    }

    #[test]
    fn output_matches_serial_reference() {
        let db = small_db();
        let queries = sample_queries(&db, 3);
        let expected = serial_report(
            &SearchParams::blastp(),
            queries,
            &db,
            ReportOptions::default(),
        )
        .expect("serial oracle");
        let (got, _) = run_once(4, 3, Platform::altix());
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&expected)
        );
    }

    #[test]
    fn output_is_invariant_to_worker_and_fragment_count() {
        let (a, _) = run_once(3, 2, Platform::altix());
        let (b, _) = run_once(5, 7, Platform::altix());
        assert_eq!(a, b);
    }

    #[test]
    fn blade_platform_with_local_disks_works() {
        let (a, reports) = run_once(3, 2, Platform::blade_cluster());
        let (b, _) = run_once(3, 2, Platform::altix());
        assert_eq!(a, b, "platform must not change output bytes");
        // Workers did copy work.
        assert!(reports[1].phases.get(phases::COPY) > simcluster::SimDuration::ZERO);
    }

    #[test]
    fn phase_reports_are_populated() {
        let (_, reports) = run_once(4, 3, Platform::altix());
        assert!(reports[0].phases.get(phases::OUTPUT) > simcluster::SimDuration::ZERO);
        for r in &reports[1..] {
            assert!(r.phases.get(phases::SEARCH) > simcluster::SimDuration::ZERO);
            assert!(r.search_stats.subjects > 0);
        }
    }

    #[test]
    fn runs_are_deterministic_in_modeled_mode() {
        let (a, ra) = run_once(4, 3, Platform::altix());
        let (b, rb) = run_once(4, 3, Platform::altix());
        assert_eq!(a, b);
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x.phases, y.phases);
        }
    }

    fn faulty_cfg(nranks: usize, nfrags: usize) -> (simcluster::Sim, ClusterEnv, MpiBlastConfig) {
        let db = small_db();
        let queries = sample_queries(&db, 3);
        let sim = simcluster::Sim::new(nranks);
        let platform = Platform::altix();
        let env = ClusterEnv::new(&sim, &platform);
        let fragment_names = stage_fragments(&env.shared, &db, nfrags);
        let query_path = stage_queries(&env.shared, &queries);
        let cfg = MpiBlastConfig {
            fault_detection: true,
            ..MpiBlastConfig::new(&platform, &env, fragment_names, &query_path, "results.txt")
        };
        (sim, env, cfg)
    }

    #[test]
    fn worker_death_fails_fast_with_typed_error() {
        // Kill worker 2 after a few sends (past the startup broadcast,
        // mid-scheduling). The master must detect it and abort the job
        // with typed errors on every surviving rank — no hang, no panic.
        let (sim, _env, cfg) = faulty_cfg(4, 6);
        let plan = simcluster::FaultPlan::none().kill_after_sends(2, 3);
        let out = sim.run_faulty(plan, |ctx| run_rank(&ctx, &cfg));
        assert_eq!(out.killed, vec![2]);
        assert_eq!(out.outputs[2], None, "killed rank yields nothing");
        assert_eq!(out.outputs[0], Some(Err(PioError::WorkerDied { rank: 2 })));
        for w in [1usize, 3] {
            assert_eq!(
                out.outputs[w],
                Some(Err(PioError::Aborted)),
                "survivor {w} must be told to abort"
            );
        }
    }

    #[test]
    fn a_detected_death_is_swept_once_and_ends_the_run() {
        // The master keeps no liveness table: its first detected death
        // returns from the run, so the sweep that finds it is its last.
        let (sim, _env, cfg) = faulty_cfg(4, 6);
        let tracer = tracelog::Tracer::new(4);
        sim.set_tracer(tracer.clone());
        let plan = simcluster::FaultPlan::none().kill_after_sends(2, 3);
        let out = sim.run_faulty(plan, |ctx| run_rank(&ctx, &cfg));
        assert_eq!(out.killed, vec![2]);
        assert_eq!(out.outputs[0], Some(Err(PioError::WorkerDied { rank: 2 })));
        let trace = tracer.finish(out.elapsed.since(simcluster::SimTime::ZERO).0);
        let swept: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.name == "sweep.dead")
            .map(|e| (e.rank, e.args.clone()))
            .collect();
        assert_eq!(swept, vec![(MASTER, vec![("rank", 2usize.into())])]);
    }

    #[test]
    fn master_death_is_detected_by_workers() {
        // Kill the master after it has broadcast and granted fragments;
        // workers fail fast with MasterDied instead of waiting forever.
        let (sim, _env, cfg) = faulty_cfg(3, 4);
        let plan = simcluster::FaultPlan::none().kill_after_sends(0, 4);
        let out = sim.run_faulty(plan, |ctx| run_rank(&ctx, &cfg));
        assert_eq!(out.killed, vec![0]);
        assert_eq!(out.outputs[0], None);
        for w in 1..3 {
            assert_eq!(out.outputs[w], Some(Err(PioError::MasterDied)));
        }
    }

    #[test]
    fn bad_setup_inputs_are_typed_errors_on_every_rank() {
        // A missing query file, or a fragment index that is truncated or
        // lies about its table sizes, must leave every rank with a typed
        // error: the master reports the input error pioBLAST's setup
        // reports (`tests/async_io.rs`), and neither panics nor strands the
        // workers in the bundle broadcast. So must a fragment only a
        // worker touches — a truncated `.seq`, an absent `.hdr`: the worker
        // that drew it reports its own input error, the master names that
        // worker, the others are aborted.
        for detect in [false, true] {
            for input in [
                "no queries",
                "short idx",
                "lying idx",
                "short seq",
                "no hdr",
            ] {
                let (sim, env, mut cfg) = faulty_cfg(4, 3);
                cfg.fault_detection = detect;
                let frag1 = cfg.fragment_names[1].clone();
                let staged = |path: &str| env.shared.peek(path).expect("staged file");
                match input {
                    "no queries" => cfg.query_path = "no-such-queries.fa".to_string(),
                    "short idx" => {
                        let idx = format!("{}.idx", cfg.fragment_names[0]);
                        let bytes = staged(&idx);
                        env.shared.preload(&idx, bytes[..bytes.len() / 2].to_vec());
                    }
                    "lying idx" => {
                        // Byte 4 of the offset count: 2^36 table entries.
                        let idx = format!("{}.idx", cfg.fragment_names[0]);
                        let mut bytes = staged(&idx);
                        let count_at = VolumeIndex::decode(&bytes)
                            .expect("staged index")
                            .seq_table_start() as usize
                            - 8;
                        bytes[count_at + 4] = 0x10;
                        env.shared.preload(&idx, bytes);
                    }
                    "short seq" => {
                        let seq = format!("{frag1}.seq");
                        let bytes = staged(&seq);
                        env.shared.preload(&seq, bytes[..bytes.len() / 2].to_vec());
                    }
                    _ => {
                        // The same fragment under a name with no `.hdr`.
                        for ext in ["idx", "seq"] {
                            env.shared.preload(
                                &format!("ghost.{ext}"),
                                staged(&format!("{frag1}.{ext}")),
                            );
                        }
                        cfg.fragment_names[1] = "ghost".to_string();
                    }
                }
                let out = sim
                    .try_run_faulty(simcluster::FaultPlan::none(), |ctx| run_rank(&ctx, &cfg))
                    .expect("neither a rank panic nor a deadlock");
                let errs: Vec<&PioError> = out
                    .outputs
                    .iter()
                    .map(|r| r.as_ref().expect("nobody was killed").as_ref())
                    .map(|r| r.expect_err("every rank fails"))
                    .collect();
                let what = format!("detect={detect} {input}: {errs:?}");
                // A master setup failure broadcasts an empty bundle, which
                // every worker rejects as a malformed frame.
                let workers_released = || {
                    for e in &errs[1..] {
                        assert!(matches!(e, PioError::Protocol(_)), "{what}");
                    }
                };
                match input {
                    "no queries" => {
                        let missing = StoreError::NotFound {
                            path: "no-such-queries.fa".into(),
                        };
                        assert_eq!(*errs[MASTER], InputError::Store(missing).into(), "{what}");
                        workers_released();
                        continue;
                    }
                    "short idx" | "lying idx" => {
                        let index = format!("fragment index {}.idx:", cfg.fragment_names[0]);
                        let malformed = match errs[MASTER] {
                            PioError::Input(InputError::Malformed(m)) => m.starts_with(&index),
                            _ => false,
                        };
                        assert!(malformed, "{what}");
                        workers_released();
                        continue;
                    }
                    _ => {}
                }
                let PioError::WorkerFailed { rank, .. } = errs[MASTER] else {
                    panic!("{what}");
                };
                let own = match errs[*rank] {
                    PioError::Input(InputError::Fragment(_)) => input == "short seq",
                    PioError::Input(InputError::Store(StoreError::NotFound { path })) => {
                        input == "no hdr" && path.ends_with("ghost.hdr")
                    }
                    _ => false,
                };
                assert!(own, "{what}");
                for (r, e) in errs.iter().enumerate().skip(1) {
                    assert!(r == *rank || **e == PioError::Aborted, "{what}");
                }
            }
        }
    }

    #[test]
    fn a_worker_that_fails_while_the_master_is_busy_is_still_named() {
        // The worker that draws the last of eight fragments finds its
        // `.seq` cut short, reports the failure and returns while the
        // master is still handling a submission, so the master's next
        // sweep finds the worker gone before it has read the report. The
        // report is queued all the same: the master names the failure,
        // not a death.
        let (sim, env, mut cfg) = faulty_cfg(8, 8);
        cfg.query_path = stage_queries(&env.shared, &sample_queries(&small_db(), 1));
        let seq = format!("{}.seq", cfg.fragment_names[7]);
        let bytes = env.shared.peek(&seq).expect("staged file");
        env.shared.preload(&seq, bytes[..bytes.len() / 2].to_vec());
        let out = sim
            .try_run_faulty(simcluster::FaultPlan::none(), |ctx| run_rank(&ctx, &cfg))
            .expect("neither a rank panic nor a deadlock");
        let Some(Err(PioError::WorkerFailed { rank, what })) = &out.outputs[MASTER] else {
            panic!("master: {:?}", out.outputs[MASTER]);
        };
        assert!(what.contains("inconsistent fragment"), "{what}");
        let own = &out.outputs[*rank];
        assert!(
            matches!(own, Some(Err(PioError::Input(InputError::Fragment(_))))),
            "worker {rank}: {own:?}"
        );
    }

    #[test]
    fn a_worker_answers_a_bad_fetch_request_with_a_typed_error() {
        // The master only fetches subjects a worker reported, so it
        // cannot send these; the bytes still arrive on the wire. Play
        // the master by hand: grant the one fragment, drain the worker,
        // then ask for garbage and for a subject nobody searched.
        let unowned = FetchRequest {
            query_idx: 0,
            oid: u32::MAX,
        };
        for request in [b"\x01\x02\x03".to_vec(), unowned.encode()] {
            let (sim, _env, cfg) = faulty_cfg(2, 1);
            let bundle = bundle_of(&small_db());
            let out = sim
                .try_run_faulty(simcluster::FaultPlan::none(), |ctx| {
                    if ctx.rank() != MASTER {
                        return run_rank(&ctx, &cfg);
                    }
                    let comm = Comm::new(&ctx, cfg.platform.net);
                    comm.bcast(MASTER, Bytes::from(bundle.encode()));
                    for fid in [0, FRAG_NONE] {
                        while comm.recv(Some(1), None).tag != TAG_FRAG_REQ {}
                        comm.send(1, TAG_FRAG_ASSIGN, Bytes::from(fid.encode()));
                    }
                    comm.send(1, TAG_FETCH_REQ, Bytes::from(request.clone()));
                    let resp = comm.recv(Some(1), Some(TAG_FETCH_RESP));
                    // What `run_master` makes of the response.
                    FetchResponse::decode(&resp.payload)?;
                    Ok(RankReport::default())
                })
                .expect("neither a rank panic nor a deadlock");
            for (rank, side) in [(MASTER, "FetchResponse"), (1, "fetch request")] {
                match &out.outputs[rank] {
                    Some(Err(PioError::Protocol(what))) => {
                        assert!(what.contains(side), "rank {rank}: {what}")
                    }
                    other => panic!("rank {rank}: expected a protocol error, got {other:?}"),
                }
            }
        }
    }

    /// The query bundle `run_master` would broadcast for `faulty_cfg`.
    fn bundle_of(db: &seqfmt::FormattedDb) -> QueryBundle {
        QueryBundle {
            db_title: db.alias.title.clone(),
            db_stats: db.alias.global_stats,
            molecule: db.alias.molecule,
            queries: sample_queries(db, 3),
        }
    }

    #[test]
    fn a_master_rejects_a_result_for_a_query_outside_the_set() {
        // Play the worker by hand: take the one fragment, then submit a
        // hit for query 9 of three. It used to index `merged[9]`.
        let (sim, _env, cfg) = faulty_cfg(2, 1);
        let hsp = blast_core::hsp::Hsp {
            query_idx: 9,
            oid: 0,
            q_start: 0,
            q_end: 10,
            s_start: 0,
            s_end: 10,
            score: 50,
            bit_score: 50.0,
            evalue: 1e-9,
        };
        let forged = ResultSubmission {
            fragment: 0,
            per_query: vec![(
                9,
                vec![SubjectHit {
                    oid: 0,
                    subject_len: 10,
                    hsps: vec![hsp],
                }],
            )],
        };
        let out = sim
            .try_run_faulty(simcluster::FaultPlan::none(), |ctx| {
                if ctx.rank() == MASTER {
                    return run_rank(&ctx, &cfg);
                }
                let comm = Comm::new(&ctx, cfg.platform.net);
                comm.bcast(MASTER, Bytes::new());
                comm.send(MASTER, TAG_FRAG_REQ, Bytes::new());
                assert_eq!(comm.recv(Some(MASTER), None).tag, TAG_FRAG_ASSIGN);
                comm.send(MASTER, TAG_SUBMIT, Bytes::from(forged.encode()));
                assert_eq!(comm.recv(Some(MASTER), None).tag, TAG_ABORT);
                Err(PioError::Aborted)
            })
            .expect("neither a rank panic nor a deadlock");
        match &out.outputs[MASTER] {
            Some(Err(PioError::Protocol(what))) => {
                for part in ["rank 1", "query 9", "3-query set"] {
                    assert!(what.contains(part), "{what}");
                }
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn a_worker_rejects_an_assignment_of_a_fragment_outside_the_set() {
        // Play the master by hand: assign fragment 5 of one. It used to
        // index `fragment_names[5]`; now the worker tells the master it
        // failed, and returns the typed error.
        let (sim, env, cfg) = faulty_cfg(2, 1);
        let bundle = bundle_of(&small_db());
        let out = sim
            .try_run_faulty(simcluster::FaultPlan::none(), |ctx| {
                if ctx.rank() != MASTER {
                    return run_rank(&ctx, &cfg);
                }
                let comm = Comm::new(&ctx, cfg.platform.net);
                comm.bcast(MASTER, Bytes::from(bundle.encode()));
                assert_eq!(comm.recv(Some(1), None).tag, TAG_FRAG_REQ);
                comm.send(1, TAG_FRAG_ASSIGN, Bytes::from(5u32.encode()));
                assert_eq!(comm.recv(Some(1), None).tag, TAG_FRAG_FAILED);
                Ok(RankReport::default())
            })
            .expect("neither a rank panic nor a deadlock");
        match &out.outputs[1] {
            Some(Err(PioError::Protocol(what))) => {
                for part in ["rank 0", "fragment 5 of 1"] {
                    assert!(what.contains(part), "{what}");
                }
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
        assert_eq!(env.shared.counters().data_ops, 0, "nothing was copied");
    }

    #[test]
    fn fault_detection_does_not_change_output_or_timing() {
        let run = |detect: bool| {
            let (sim, env, mut cfg) = faulty_cfg(4, 3);
            cfg.fault_detection = detect;
            let out = sim.run(|ctx| run_rank(&ctx, &cfg));
            (env.shared.peek("results.txt").expect("output"), out.elapsed)
        };
        let (bytes_off, elapsed_off) = run(false);
        let (bytes_on, elapsed_on) = run(true);
        assert_eq!(bytes_off, bytes_on);
        assert_eq!(elapsed_off, elapsed_on, "detection must be timing-neutral");
    }
}
