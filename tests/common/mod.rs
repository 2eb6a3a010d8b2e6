//! Fixtures shared by the integration tests: one small database, one
//! query sampler, and one staged pioBLAST run built on
//! [`PioBlastConfig::new`] — a test names only what it changes.

// Every test binary compiles this module and uses its own subset.
#![allow(dead_code)]

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use blast_core::seq::SeqRecord;
use mpiblast::setup::{stage_queries, stage_shared_db};
use mpiblast::{ClusterEnv, Platform, RankReport};
use pioblast::{PioBlastConfig, PioError};
use seqfmt::formatdb::{format_records, FormatDbConfig};
use seqfmt::synth::{generate, SynthConfig};
use seqfmt::FormattedDb;
use simcluster::{FaultPlan, Sim, SimDuration, SimTime};
use tracelog::{Trace, Tracer};

/// Path every staged run writes its report to.
pub const OUTPUT: &str = "results.txt";

/// A 40 k-residue nr-like protein database in one volume.
pub fn small_db(seed: u64) -> FormattedDb {
    let recs = generate(&SynthConfig::nr_like(seed, 40_000));
    format_records(&recs, &FormatDbConfig::protein("nr-test"))
}

/// `n` queries copied from the database's own subjects, so each hits.
pub fn sample_queries(db: &FormattedDb, n: usize) -> Vec<SeqRecord> {
    use blast_core::search::SubjectSource;
    let frag = seqfmt::FragmentData::from_volume(&db.volumes[0]);
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

/// Stage `db` and `queries` on a fresh environment over `sim` and
/// return the paper-design config for it (report at [`OUTPUT`]).
pub fn staged(
    sim: &Sim,
    platform: &Platform,
    db: &FormattedDb,
    queries: &[SeqRecord],
) -> PioBlastConfig {
    let env = ClusterEnv::new(sim, platform);
    let db_alias = stage_shared_db(&env.shared, db);
    let query_path = stage_queries(&env.shared, queries);
    PioBlastConfig::new(platform, &env, &db_alias, &query_path, OUTPUT)
}

/// Kills the master at t = 1000 s, far past any run of these fixtures:
/// a run that would hang ends there instead, with no output from rank 0,
/// so the test fails rather than hangs.
pub fn watchdog() -> FaultPlan {
    FaultPlan::none().kill_at(0, SimTime::ZERO + SimDuration::from_secs(1_000))
}

/// Run `job` on a thread of its own and return what it returns; fail if
/// it has not finished after `secs` seconds of host time. A master that
/// loops at one virtual instant never reaches [`watchdog`]'s kill, so a
/// test that could loop that way runs under both. A panic in `job` is
/// raised again here. On a timeout the job's thread is left running: a
/// looping job can never be joined, and it ends with the test process.
pub fn within_host_secs<T: Send + 'static>(
    secs: u64,
    job: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (done, finished) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let out = job();
        let _ = done.send(());
        out
    });
    if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(secs)) {
        panic!("the job did not finish within {secs} s of host time");
    }
    handle
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// Bytes `fs` holds right now — what a test caps it at
/// (`SimFs::set_capacity`) to leave a run a known amount of free space.
pub fn stored_bytes(fs: &parafs::SimFs) -> u64 {
    let len = |p: &String| fs.peek(p).expect("listed").len() as u64;
    fs.peek_list("").iter().map(len).sum()
}

/// Cluster shape, workload and fault plan of one run over [`small_db`].
/// Everything else is the constructor's config plus the test's closure.
pub struct Opts {
    pub nranks: usize,
    pub platform: Platform,
    pub db_seed: u64,
    pub n_queries: usize,
    pub plan: FaultPlan,
    /// Install a tracer and hand the merged trace back.
    pub traced: bool,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            nranks: 4,
            platform: Platform::altix(),
            db_seed: 21,
            n_queries: 3,
            plan: FaultPlan::none(),
            traced: false,
        }
    }
}

/// What a finished run hands back.
pub struct Done {
    /// Bytes at [`OUTPUT`]; empty when no report was written there.
    pub report: Vec<u8>,
    /// Per-rank results; `None` for a killed rank.
    pub outputs: Vec<Option<Result<RankReport, PioError>>>,
    pub killed: Vec<usize>,
    pub elapsed: SimTime,
    pub env: ClusterEnv,
    /// The merged trace, when [`Opts::traced`].
    pub trace: Option<Trace>,
}

/// [`run_opts`] over `nfrags` virtual fragments, for the byte-identity
/// properties: returns the report bytes and the killed ranks.
pub fn run_frags(
    opts: Opts,
    nfrags: usize,
    tweak: impl FnOnce(&mut PioBlastConfig),
) -> (Vec<u8>, Vec<usize>) {
    let done = run_opts(opts, |cfg| {
        cfg.num_fragments = Some(nfrags);
        tweak(cfg);
    });
    (done.report, done.killed)
}

/// What a traced `Recover` run did for its dead: how many requeued
/// fragments it re-cut into pieces (`split` instants), and how many of
/// its merges spliced in orphans, whose records ride to the live workers
/// with their assignments.
pub fn splits_and_shipments(trace: &Trace) -> (usize, usize) {
    let named = |name: &'static str| trace.events.iter().filter(move |e| e.name == name);
    let orphans = |e: &&tracelog::Event| {
        let arg = e.args.iter().find(|(k, _)| *k == "orphans");
        !matches!(arg, Some((_, tracelog::ArgVal::U64(0))))
    };
    (
        named("split").count(),
        named("merge").filter(orphans).count(),
    )
}

/// Stage the workload, let `tweak` change the paper-design config (it
/// may also touch the staged files through `cfg.env`), and run it.
pub fn run_opts(opts: Opts, tweak: impl FnOnce(&mut PioBlastConfig)) -> Done {
    let db = small_db(opts.db_seed);
    let queries = sample_queries(&db, opts.n_queries);
    let sim = Sim::new(opts.nranks);
    let tracer = opts.traced.then(|| {
        let tracer = Tracer::new(opts.nranks);
        sim.set_tracer(tracer.clone());
        tracer
    });
    let mut cfg = staged(&sim, &opts.platform, &db, &queries);
    tweak(&mut cfg);
    let out = sim.run_faulty(opts.plan, |ctx| pioblast::run_rank(&ctx, &cfg));
    Done {
        report: cfg.env.shared.peek(OUTPUT).unwrap_or_default(),
        outputs: out.outputs,
        killed: out.killed,
        elapsed: out.elapsed,
        trace: tracer.map(|t| t.finish(out.elapsed.since(SimTime::ZERO).0)),
        env: cfg.env,
    }
}

/// The one-line-summary bytes of a report: after each summary section's
/// column preamble, its lines and the blank line that closes them.
pub fn summary_bytes(report: &[u8]) -> u64 {
    let text = String::from_utf8_lossy(report);
    text.match_indices(blast_core::format::SUMMARY_PREAMBLE)
        .map(|(at, pre)| {
            let lines = &text[at + pre.len()..];
            lines.find("\n\n").expect("a closing blank line") as u64 + 2
        })
        .sum()
}

/// A `u64` argument of a trace event.
pub fn arg(e: &tracelog::Event, key: &str) -> u64 {
    match e.args.iter().find(|(k, _)| *k == key) {
        Some((_, tracelog::ArgVal::U64(v))) => *v,
        other => panic!("{} {key}: {other:?}", e.name),
    }
}

/// `(rank, start, lines, bytes)` of every `format.summary` span: the
/// one-line summaries each worker rendered.
pub fn summary_spans(trace: &Trace) -> Vec<(usize, u64, u64, u64)> {
    trace
        .events
        .iter()
        .filter(|e| e.name == "format.summary" && e.kind == tracelog::EventKind::Begin)
        .map(|e| (e.rank, e.t, arg(e, "lines"), arg(e, "bytes")))
        .collect()
}
