//! The CLI subcommands: generate, formatdb, sample, run.

use std::fs;
use std::path::Path;

use blast_core::alphabet::Molecule;
use blast_core::fasta;
use blast_core::search::SearchParams;
use mpiblast::setup::{stage_fragments, stage_queries};
use mpiblast::{ClusterEnv, ComputeModel, MpiBlastConfig, Platform};
use pioblast::PioBlastConfig;
use seqfmt::formatdb::FormatDbConfig;
use seqfmt::sampler::sample_queries;
use seqfmt::synth::{generate, generate_dna, SynthConfig};
use seqfmt::{AliasFile, FormattedDb, Wire};
use simcluster::Sim;

use crate::args::{ArgError, ParsedArgs};

/// A CLI-level error with a user-facing message.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> CliError {
        CliError(e.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> CliError {
        CliError(format!("I/O error: {e}"))
    }
}

/// The usage text.
pub const USAGE: &str = "\
pioblast-sim — simulated parallel BLAST (IPPS'05 pioBLAST reproduction)

USAGE:
  pioblast-sim gen      --residues N --out db.fa [--seed S] [--dna]
  pioblast-sim formatdb --in db.fa --title NAME --out-dir DIR [--volume-cap N] [--dna]
  pioblast-sim sample   --in db.fa --bytes N --out queries.fa [--seed S] [--dna]
  pioblast-sim run      --program pio|mpi --procs N --db-dir DIR --queries q.fa
                        --out report.txt [--platform PLATFORM] [--frags N]
                        [--threads N] [--batch N] [--measured] [--dna]
                        [--no-collective] [--dynamic] [--fault-detect] [--recover]
                        [--checkpoint] [--io-async] [--burst-buffer]
                        [--burst-capacity BYTES]
                        [--trace out.json] [--trace-filter LANE[,LANE...]]
  pioblast-sim serve    --procs N --db-dir DIR --queries q.fa --out report.txt
                        [--platform PLATFORM] [--users N] [--stream-batches N]
                        [--mean-gap-ms N] [--resident-mb N] [--affinity] [--frags N]
                        [--threads N] [--io-async] [--recover]
                        [--checkpoint] [--burst-buffer] [--burst-capacity BYTES]
                        [--seed S] [--measured] [--dna] [--trace out.json]
                        [--trace-filter LANE[,...]]
  pioblast-sim trace-check --in trace.json
  pioblast-sim trace-diff  --a run1.json --b run2.json [--top N]
  pioblast-sim trace-diff  --in trace.json --write-baseline profile.tsv
  pioblast-sim trace-diff  --in trace.json --baseline profile.tsv

Integer options accept k/M/G suffixes (e.g. --residues 12M).

PLATFORM is one of altix (SGI Altix: NUMAlink + striped XFS), blade
(IBM blades: gigabit + NFS + local disks), manycore (64-core nodes),
objectstore (10 GbE + S3/Ceph-class store: huge aggregate bandwidth,
HTTP-scale request overhead), multisite (two sites over a WAN: tens of
milliseconds per message and per shared-fs operation).

An option or flag the subcommand does not use (unknown, misspelled, or
inapplicable to the other arguments) is an error, not ignored.

serve replays a seeded query stream (--users users submitting
--stream-batches batches, inter-arrival gaps averaging --mean-gap-ms)
against a long-lived cluster. Each stream batch's report is written to
<--out>.q<batch> and is byte-identical to running that batch alone.
--resident-mb caps each worker's resident fragment store (0 keeps
nothing); --affinity re-grants fragments to the workers that already
hold them, so resident re-grants skip their reads entirely.

--fault-detect (mpi only) sweeps for dead ranks and fails fast with a
typed error instead of hanging. pioBLAST has no such switch: a one-shot
run hangs on a death like MPI does unless --recover is given, and serve
without --recover always fails fast.

--threads N (pio only) shards each granted fragment's subjects across N
intra-rank compute slots with a deterministic merge — output bytes never
change. N must be between 1 and the platform's cores per node (altix 16,
blade 4, manycore 64).

--trace writes a Chrome trace_event JSON (loadable in Perfetto or
chrome://tracing): one process per rank, one thread per subsystem lane.
--trace-filter (requires --trace) limits the export to the named lanes
(phase, search, io, net, runtime, sched, engine). trace-check validates
a trace file: monotonic timestamps per lane and balanced begin/end span
pairs.
trace-diff aligns two exported runs by (rank, lane, phase) and reports
which lane/phase diverged and by how much (--top rows per section);
runs at different rank counts compare cluster totals and per-rank
means, identical runs report an empty diff. With --in it profiles one
trace instead: --write-baseline commits the cluster busy-ns profile to
a file, --baseline checks the trace against a committed profile and
exits nonzero, listing the differing rows, unless the profile renders
to that file exactly — the CI regression gate.

Data requests are posted: a request's file-system operations are all in
flight at once, so their latencies overlap (a fragment's reads, a
report write's runs, checkpoint puts). --io-async, which asked for
that before it was the default, is still accepted and changes nothing.

--burst-buffer stages output and checkpoint writes in a per-node burst
buffer (the platform's staging profile, striped across four backing
files), draining to the shared file system in the background; drains
are fenced at epoch boundaries under --recover and always before the
run ends, so reports stay byte-identical.
--burst-capacity bounds staged-but-undrained bytes (default 256M);
a full buffer degrades that write to a direct one (typed backpressure).
";

/// Dispatch a parsed command line. An option or flag the subcommand
/// never read is an error; subcommands that write files or run a
/// simulation also check before they do, so a typo costs no run and
/// leaves no output.
pub fn dispatch(args: &ParsedArgs) -> Result<String, CliError> {
    let out = match args.command.as_str() {
        "gen" => cmd_gen(args),
        "formatdb" => cmd_formatdb(args),
        "sample" => cmd_sample(args),
        "run" => cmd_run(args),
        "serve" => cmd_serve(args),
        "trace-check" => cmd_trace_check(args),
        "trace-diff" => cmd_trace_diff(args),
        "help" | "--help" => Ok(USAGE.to_string()),
        other => Err(CliError(format!("unknown subcommand {other:?}\n\n{USAGE}"))),
    }?;
    args.reject_unused()?;
    Ok(out)
}

fn molecule_of(args: &ParsedArgs) -> Molecule {
    if args.flag("dna") {
        Molecule::Dna
    } else {
        Molecule::Protein
    }
}

fn cmd_gen(args: &ParsedArgs) -> Result<String, CliError> {
    let residues = args.require_u64("residues")?;
    let out = args.require("out")?;
    let seed = args.u64_or("seed", 42)?;
    let molecule = molecule_of(args);
    let cfg = match molecule {
        Molecule::Protein => SynthConfig::nr_like(seed, residues),
        Molecule::Dna => SynthConfig::nt_like_dna(seed, residues),
    };
    let records = match molecule {
        Molecule::Protein => generate(&cfg),
        Molecule::Dna => generate_dna(&cfg),
    };
    let text = fasta::to_string(&records, 60);
    args.reject_unused()?;
    fs::write(out, &text)?;
    Ok(format!(
        "wrote {} sequences, {} residues ({} bytes FASTA) to {}",
        records.len(),
        records.iter().map(|r| r.len() as u64).sum::<u64>(),
        text.len(),
        out
    ))
}

fn cmd_formatdb(args: &ParsedArgs) -> Result<String, CliError> {
    let input = args.require("in")?;
    let title = args.require("title")?;
    let out_dir = args.require("out-dir")?;
    let molecule = molecule_of(args);
    let text = fs::read(input)?;
    let db = seqfmt::format_fasta(
        &text,
        &FormatDbConfig {
            title: title.to_string(),
            molecule,
            volume_residue_cap: args.u64_opt("volume-cap")?,
        },
    )
    .map_err(|e| CliError(format!("parsing {input}: {e}")))?;
    args.reject_unused()?;
    fs::create_dir_all(out_dir)?;
    let mut bytes = 0u64;
    let files = db.files();
    for (name, data) in &files {
        bytes += data.len() as u64;
        fs::write(Path::new(out_dir).join(name), data)?;
    }
    Ok(format!(
        "formatted {}: {} sequences, {} residues -> {} volume(s), {} files, {} bytes under {}",
        title,
        db.stats().num_sequences,
        db.stats().total_residues,
        db.volumes.len(),
        files.len(),
        bytes,
        out_dir
    ))
}

fn cmd_sample(args: &ParsedArgs) -> Result<String, CliError> {
    let input = args.require("in")?;
    let bytes = args.require_u64("bytes")?;
    let out = args.require("out")?;
    let seed = args.u64_or("seed", 7)?;
    let molecule = molecule_of(args);
    let text = fs::read(input)?;
    let records =
        fasta::parse(molecule, &text).map_err(|e| CliError(format!("parsing {input}: {e}")))?;
    if records.is_empty() {
        return Err(CliError(format!("{input} holds no sequences")));
    }
    let queries = sample_queries(&records, bytes, seed);
    args.reject_unused()?;
    fs::write(out, fasta::to_string(&queries, 60))?;
    Ok(format!("sampled {} queries to {}", queries.len(), out))
}

/// Load a formatted database from a host directory by its alias file.
pub fn load_db(db_dir: &str) -> Result<FormattedDb, CliError> {
    let dir = Path::new(db_dir);
    let alias_path = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().map(|x| x == "al").unwrap_or(false))
        .ok_or_else(|| CliError(format!("no .al alias file in {db_dir}")))?;
    let alias = AliasFile::decode(&fs::read(&alias_path)?)
        .map_err(|e| CliError(format!("bad alias file: {e}")))?;
    let mut volumes = Vec::new();
    for name in &alias.volumes {
        let read = |ext: &str| -> Result<Vec<u8>, CliError> {
            Ok(fs::read(dir.join(format!("{name}.{ext}")))?)
        };
        let idx = read("idx")?;
        let index = seqfmt::VolumeIndex::decode(&idx)
            .map_err(|e| CliError(format!("bad index {name}.idx: {e}")))?;
        volumes.push(seqfmt::EncodedVolume {
            name: name.clone(),
            idx,
            seq: read("seq")?,
            hdr: read("hdr")?,
            index,
        });
    }
    Ok(FormattedDb { alias, volumes })
}

/// Parse `--platform` into one of the simulated machines.
fn parse_platform(args: &ParsedArgs) -> Result<Platform, CliError> {
    match args.get("platform").unwrap_or("altix") {
        "altix" => Ok(Platform::altix()),
        "blade" => Ok(Platform::blade_cluster()),
        "manycore" => Ok(Platform::manycore()),
        "objectstore" => Ok(Platform::objectstore()),
        "multisite" => Ok(Platform::multisite()),
        other => Err(CliError(format!(
            "unknown platform {other:?} (expected altix, blade, manycore, objectstore, or multisite)"
        ))),
    }
}

/// Parse `--burst-buffer` / `--burst-capacity` into plane options.
/// Requests are always posted; `--io-async` is accepted and changes
/// nothing.
fn io_options(args: &ParsedArgs) -> Result<pioblast::IoOptions, CliError> {
    args.flag("io-async");
    let burst = if args.flag("burst-buffer") {
        let d = pioblast::BurstOptions::default();
        let capacity = match args.get("burst-capacity") {
            None => d.capacity,
            Some(text) => parse_size(text)?,
        };
        if capacity == 0 {
            return Err(CliError("--burst-capacity must be positive".into()));
        }
        Some(pioblast::BurstOptions { capacity, ..d })
    } else {
        if args.get("burst-capacity").is_some() {
            return Err(CliError("--burst-capacity requires --burst-buffer".into()));
        }
        None
    };
    Ok(pioblast::IoOptions {
        io_async: true,
        burst,
    })
}

/// Parse a byte size with an optional k/M/G suffix (e.g. `256M`).
fn parse_size(text: &str) -> Result<u64, CliError> {
    let (digits, mult) = match text.chars().last() {
        Some('k' | 'K') => (&text[..text.len() - 1], 1u64 << 10),
        Some('m' | 'M') => (&text[..text.len() - 1], 1u64 << 20),
        Some('g' | 'G') => (&text[..text.len() - 1], 1u64 << 30),
        _ => (text, 1),
    };
    digits
        .parse::<u64>()
        .map(|n| n.saturating_mul(mult))
        .map_err(|_| CliError(format!("bad size {text:?} (expected e.g. 1048576 or 64M)")))
}

/// Parse `--trace-filter io,net` into lanes (`None` = all lanes). The
/// filter shapes the `--trace` export, so without `--trace` it would be
/// silently meaningless — a typed error instead.
fn trace_filter(args: &ParsedArgs) -> Result<Option<Vec<tracelog::Lane>>, CliError> {
    let Some(spec) = args.get("trace-filter") else {
        return Ok(None);
    };
    if args.get("trace").is_none() {
        return Err(CliError("--trace-filter requires --trace".into()));
    }
    let mut lanes = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        let lane = tracelog::Lane::parse(part).ok_or_else(|| {
            CliError(format!(
                "unknown trace lane {part:?} (expected one of: phase, search, io, net, runtime, sched, engine)"
            ))
        })?;
        lanes.push(lane);
    }
    Ok(Some(lanes))
}

fn cmd_trace_check(args: &ParsedArgs) -> Result<String, CliError> {
    let input = args.require("in")?;
    let text = fs::read_to_string(input)?;
    let stats = tracelog::check::validate_chrome(&text)
        .map_err(|e| CliError(format!("{input}: invalid trace: {e}")))?;
    Ok(format!(
        "{input}: valid Chrome trace — {} events ({} spans, {} instants, {} counter samples) across {} rank(s)",
        stats.events, stats.spans, stats.instants, stats.counters, stats.ranks
    ))
}

fn cmd_trace_diff(args: &ParsedArgs) -> Result<String, CliError> {
    let load = |path: &str| -> Result<tracelog::diff::RunProfile, CliError> {
        let text = fs::read_to_string(path)?;
        tracelog::diff::profile_chrome(&text)
            .map_err(|e| CliError(format!("{path}: invalid trace: {e}")))
    };
    // Baseline modes: profile one trace and either commit its cluster
    // busy-ns profile (--write-baseline) or check it against a committed
    // one (--baseline), failing with a nonzero exit unless the profile
    // renders to the committed file exactly.
    if let Some(input) = args.get("in") {
        let input = input.to_string();
        let profile = load(&input)?;
        if let Some(out) = args.get("write-baseline") {
            let text = tracelog::diff::render_baseline(&profile);
            let rows = profile.cluster_totals().len();
            args.reject_unused()?;
            fs::write(out, text)?;
            return Ok(format!(
                "{input}: wrote baseline ({rows} lane/phase rows, {} rank(s)) to {out}",
                profile.ranks
            ));
        }
        let base_path = args.require("baseline")?;
        let failures = tracelog::diff::check_baseline(&fs::read_to_string(base_path)?, &profile);
        return if failures.is_empty() {
            Ok(format!(
                "{input}: matches baseline {base_path} ({} lane/phase rows)",
                profile.cluster_totals().len()
            ))
        } else {
            Err(CliError(format!(
                "{input}: differs from baseline {base_path} (- baseline, + run):\n  {}",
                failures.join("\n  ")
            )))
        };
    }
    let path_a = args.require("a")?;
    let path_b = args.require("b")?;
    let top = args.u64_or("top", 12)? as usize;
    let d = tracelog::diff::diff_profiles(&load(path_a)?, &load(path_b)?);
    Ok(tracelog::diff::render_diff(&d, top.max(1)))
}

/// Report path on the simulated shared file system.
const OUTPUT_PATH: &str = "report.txt";

/// What `run` and `serve` set up the same way: the shared options, the
/// database and queries loaded from disk, and the queries staged on a
/// fresh simulated cluster ([`Job::load`] returns its `Sim` alongside).
struct Job<'a> {
    nprocs: usize,
    queries_path: &'a str,
    out: &'a str,
    platform: Platform,
    threads: usize,
    nfrags: Option<usize>,
    params: SearchParams,
    compute: ComputeModel,
    db: FormattedDb,
    nqueries: usize,
    env: ClusterEnv,
    query_path: String,
    tracer: Option<tracelog::Tracer>,
    trace_path: Option<&'a str>,
    filter: Option<Vec<tracelog::Lane>>,
}

impl<'a> Job<'a> {
    /// Tracing is opt-in: without `--trace` (and unless the caller reads
    /// the trace itself, `always_traced`) no tracer is installed, so the
    /// engine and every `tracelog` call site take their no-op fast path.
    fn load(args: &'a ParsedArgs, always_traced: bool) -> Result<(Sim, Job<'a>), CliError> {
        let nprocs = args.require_u64("procs")? as usize;
        if nprocs < 2 {
            return Err(CliError("--procs must be at least 2".into()));
        }
        let db_dir = args.require("db-dir")?;
        let queries_path = args.require("queries")?;
        let out = args.require("out")?;
        let platform = parse_platform(args)?;
        let threads = args.u64_or("threads", 1)? as usize;
        let nfrags = args.u64_opt("frags")?.map(|v| v as usize);
        let molecule = molecule_of(args);
        let params = match molecule {
            Molecule::Protein => SearchParams::blastp(),
            Molecule::Dna => SearchParams::blastn(),
        };
        let compute = if args.flag("measured") {
            ComputeModel::measured()
        } else {
            ComputeModel::modeled()
        };
        let db = load_db(db_dir)?;
        let query_text = fs::read(queries_path)?;
        let queries = fasta::parse(molecule, &query_text)
            .map_err(|e| CliError(format!("parsing {queries_path}: {e}")))?;

        let filter = trace_filter(args)?;
        let trace_path = args.get("trace");
        let sim = Sim::new(nprocs);
        let tracer = (always_traced || trace_path.is_some()).then(|| {
            let tracer = tracelog::Tracer::new(nprocs);
            sim.set_tracer(tracer.clone());
            tracer
        });
        let env = ClusterEnv::new(&sim, &platform);
        let query_path = stage_queries(&env.shared, &queries);
        let job = Job {
            nprocs,
            queries_path,
            out,
            platform,
            threads,
            nfrags,
            params,
            compute,
            db,
            nqueries: queries.len(),
            env,
            query_path,
            tracer,
            trace_path,
            filter,
        };
        Ok((sim, job))
    }

    /// The paper-design pioBLAST config over this job with the options
    /// `run` and `serve` share applied; the database is staged here.
    fn pio_config(&self, args: &ParsedArgs) -> Result<PioBlastConfig, CliError> {
        let db_alias = mpiblast::setup::stage_shared_db(&self.env.shared, &self.db);
        Ok(PioBlastConfig {
            compute: self.compute,
            params: self.params.clone(),
            num_fragments: self.nfrags,
            checkpoint: args.flag("checkpoint"),
            threads: self.threads,
            io: io_options(args)?,
            ..PioBlastConfig::new(
                &self.platform,
                &self.env,
                &db_alias,
                &self.query_path,
                OUTPUT_PATH,
            )
        })
    }

    /// Finish the tracer, if any; with `--trace`, export it and return
    /// the note for the summary line.
    fn finish_trace(
        &self,
        elapsed: simcluster::SimTime,
    ) -> Result<(Option<tracelog::Trace>, String), CliError> {
        let Some(tracer) = &self.tracer else {
            return Ok((None, String::new()));
        };
        let trace = tracer.finish(elapsed.since(simcluster::SimTime::ZERO).0);
        let mut note = String::new();
        if let Some(path) = self.trace_path {
            let json = tracelog::chrome::export_chrome(&trace, self.filter.as_deref());
            fs::write(path, &json)?;
            note = format!(
                ", trace {} events{} -> {path}",
                trace.events.len(),
                if trace.dropped > 0 {
                    format!(" ({} dropped)", trace.dropped)
                } else {
                    String::new()
                }
            );
        }
        Ok((Some(trace), note))
    }
}

fn cmd_run(args: &ParsedArgs) -> Result<String, CliError> {
    let program = args.require("program")?.to_string();
    let (sim, job) = Job::load(args, false)?;
    // Both programs report failure as one `PioError` per rank.
    let o = match program.as_str() {
        "mpi" => {
            let nfrags = job.nfrags.unwrap_or(job.nprocs - 1);
            let fragment_names = stage_fragments(&job.env.shared, &job.db, nfrags);
            let cfg = MpiBlastConfig {
                compute: job.compute,
                params: job.params.clone(),
                fault_detection: args.flag("fault-detect"),
                ..MpiBlastConfig::new(
                    &job.platform,
                    &job.env,
                    fragment_names,
                    &job.query_path,
                    OUTPUT_PATH,
                )
            };
            args.reject_unused()?;
            sim.run(|ctx| mpiblast::run_rank(&ctx, &cfg))
        }
        "pio" => {
            let cfg = PioBlastConfig {
                collective_output: !args.flag("no-collective"),
                local_prune: args.flag("prune"),
                query_batch: args.u64_opt("batch")?.map(|v| v as usize),
                collective_input: args.flag("collective-input"),
                schedule: if args.flag("dynamic") || args.flag("recover") {
                    pioblast::FragmentSchedule::Dynamic
                } else {
                    pioblast::FragmentSchedule::Static
                },
                fault: if args.flag("recover") {
                    pioblast::FaultMode::Recover
                } else {
                    pioblast::FaultMode::Off
                },
                ..job.pio_config(args)?
            };
            args.reject_unused()?;
            sim.run(|ctx| pioblast::run_rank(&ctx, &cfg))
        }
        other => {
            return Err(CliError(format!(
                "--program must be pio or mpi, got {other:?}"
            )))
        }
    };
    if let Some(e) = o.outputs.iter().find_map(|r| r.as_ref().err()) {
        return Err(CliError(format!("run failed: {e}")));
    }
    let report = job
        .env
        .shared
        .peek(OUTPUT_PATH)
        .map_err(|e| CliError(format!("no report produced: {e}")))?;
    fs::write(job.out, &report)?;
    let (_, trace_note) = job.finish_trace(o.elapsed)?;
    Ok(format!(
        "{program}BLAST, {} processes on {}: {:.3}s virtual time, {} messages, {} events fired of {} scheduled, report {} bytes -> {}, file-system operations in flight per client: at most {}{trace_note}",
        job.nprocs,
        job.db.alias.title,
        o.elapsed.as_secs_f64(),
        o.stats.messages,
        o.stats.events,
        o.stats.scheduled,
        report.len(),
        job.out,
        job.env.shared.max_in_flight()
    ))
}

/// `serve`: replay a seeded query stream against a long-lived cluster,
/// writing each stream batch's report to `<out>.q<batch>`.
fn cmd_serve(args: &ParsedArgs) -> Result<String, CliError> {
    let users = args.u64_or("users", 4)? as u32;
    if users == 0 {
        return Err(CliError("--users must be at least 1".into()));
    }
    let nbatches = args.u64_or("stream-batches", 8)? as usize;
    if nbatches == 0 {
        return Err(CliError("--stream-batches must be at least 1".into()));
    }
    let mean_gap_ms = args.u64_or("mean-gap-ms", 1)?;
    let resident_mb = args.u64_or("resident-mb", 0)?;
    let seed = args.u64_or("seed", 42)?;
    // The service metrics are read off the trace, so serve always traces.
    let (sim, job) = Job::load(args, true)?;
    if job.nqueries < nbatches {
        return Err(CliError(format!(
            "--stream-batches {} needs at least that many queries ({} holds {})",
            nbatches, job.queries_path, job.nqueries
        )));
    }
    let plan = pioblast::QueryStreamPlan::generate(
        users,
        nbatches,
        job.nqueries,
        mean_gap_ms * 1_000_000,
        seed,
    );
    let cfg = PioBlastConfig {
        collective_output: false,
        schedule: pioblast::FragmentSchedule::Dynamic,
        fault: if args.flag("recover") {
            pioblast::FaultMode::Recover
        } else {
            pioblast::FaultMode::Off
        },
        service: Some(pioblast::ServiceOptions {
            plan,
            resident_bytes: resident_mb << 20,
            affinity: args.flag("affinity"),
        }),
        ..job.pio_config(args)?
    };
    args.reject_unused()?;
    let o = sim.run(|ctx| pioblast::run_rank(&ctx, &cfg));
    if let Some(e) = o.outputs.iter().find_map(|r| r.as_ref().err()) {
        return Err(CliError(format!("serve failed: {e}")));
    }
    let out = job.out;
    let mut bytes = 0usize;
    for b in 0..nbatches {
        let report = job
            .env
            .shared
            .peek(&format!("{OUTPUT_PATH}.q{b}"))
            .map_err(|e| CliError(format!("stream batch {b} produced no report: {e}")))?;
        bytes += report.len();
        fs::write(format!("{out}.q{b}"), &report)?;
    }
    let (trace, trace_note) = job.finish_trace(o.elapsed)?;
    let trace = trace.ok_or_else(|| CliError("serve ran without its tracer".into()))?;
    let metrics = pioblast::ServiceMetrics::from_trace(&trace);
    Ok(format!(
        "pioBLAST service, {} processes on {}: {} users x {} batches in {:.3}s virtual time, \
         {:.2} queries/s, p50 {:.3}s, p99 {:.3}s, hit rate {:.1}% ({}/{} grants), \
         {bytes} report bytes -> {out}.q0..q{}{trace_note}",
        job.nprocs,
        job.db.alias.title,
        users,
        nbatches,
        o.elapsed.as_secs_f64(),
        metrics.queries_per_sec,
        metrics.p50_latency_s,
        metrics.p99_latency_s,
        100.0 * metrics.hit_rate(),
        metrics.cache_hits,
        metrics.cache_hits + metrics.cache_misses,
        nbatches - 1
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pioblast-cli-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn trace_check_refuses_a_trace_whose_tracer_dropped_events() {
        // Room for two events per rank, five recorded: the export says
        // three were lost, and `trace-check` fails naming the count —
        // `main` turns the error into a non-zero exit.
        use tracelog::{EventKind, Lane, Tracer};
        let dir = tmpdir("dropped");
        let export = |cap: usize| {
            let tracer = Tracer::with_capacity(1, cap);
            for t in 0..5 {
                tracer.record(
                    0,
                    t,
                    Lane::Io,
                    EventKind::Instant,
                    "tick".into(),
                    Vec::new(),
                );
            }
            let path = dir.join(format!("cap{cap}.json"));
            fs::write(
                &path,
                tracelog::chrome::export_chrome(&tracer.finish(10), None),
            )
            .unwrap();
            path
        };
        let lossy = export(2);
        let err = dispatch(&args(&["trace-check", "--in", lossy.to_str().unwrap()])).unwrap_err();
        assert!(err.0.contains("dropped 3 event(s)"), "{}", err.0);
        let whole = export(5);
        let ok = dispatch(&args(&["trace-check", "--in", whole.to_str().unwrap()])).unwrap();
        assert!(ok.contains("5 instants"), "{ok}");
        // The profile reader skips the line: a lossy trace still diffs.
        let lossy = lossy.to_str().unwrap();
        dispatch(&args(&["trace-diff", "--a", lossy, "--b", lossy])).unwrap();
    }

    #[test]
    fn gen_formatdb_sample_run_pipeline() {
        let dir = tmpdir("pipeline");
        let fa = dir.join("db.fa");
        let qfa = dir.join("q.fa");
        let dbdir = dir.join("db");
        let report = dir.join("report.txt");

        let msg = dispatch(&args(&[
            "gen",
            "--residues",
            "30k",
            "--seed",
            "5",
            "--out",
            fa.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(msg.contains("wrote"));

        let msg = dispatch(&args(&[
            "formatdb",
            "--in",
            fa.to_str().unwrap(),
            "--title",
            "clidb",
            "--out-dir",
            dbdir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(msg.contains("1 volume(s)"), "{msg}");

        let msg = dispatch(&args(&[
            "sample",
            "--in",
            fa.to_str().unwrap(),
            "--bytes",
            "1k",
            "--out",
            qfa.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(msg.contains("sampled"));

        // Run both programs; reports must match byte-for-byte. Each run
        // also exports a trace that trace-check must accept.
        let mut outputs = Vec::new();
        for program in ["pio", "mpi"] {
            let out = dir.join(format!("{program}.txt"));
            let trace = dir.join(format!("{program}.json"));
            let msg = dispatch(&args(&[
                "run",
                "--program",
                program,
                "--procs",
                "4",
                "--db-dir",
                dbdir.to_str().unwrap(),
                "--queries",
                qfa.to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
                "--trace",
                trace.to_str().unwrap(),
            ]))
            .unwrap();
            assert!(msg.contains("report"), "{msg}");
            assert!(msg.contains("trace"), "{msg}");
            let check = dispatch(&args(&["trace-check", "--in", trace.to_str().unwrap()])).unwrap();
            assert!(check.contains("valid Chrome trace"), "{check}");
            outputs.push(fs::read(&out).unwrap());
        }
        assert_eq!(outputs[0], outputs[1]);
        assert!(!outputs[0].is_empty());

        // trace-diff: a trace against itself is equivalent; pio vs mpi
        // runs differ and the divergence report names lanes.
        let pio_trace = dir.join("pio.json");
        let mpi_trace = dir.join("mpi.json");
        let same = dispatch(&args(&[
            "trace-diff",
            "--a",
            pio_trace.to_str().unwrap(),
            "--b",
            pio_trace.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(same.contains("equivalent"), "{same}");
        let diff = dispatch(&args(&[
            "trace-diff",
            "--a",
            pio_trace.to_str().unwrap(),
            "--b",
            mpi_trace.to_str().unwrap(),
            "--top",
            "5",
        ]))
        .unwrap();
        assert!(diff.contains("cluster totals"), "{diff}");

        // Baseline gate: a committed profile of the pio trace admits
        // the identical trace and rejects the mpi trace, naming the rows
        // on both sides.
        let baseline = dir.join("baseline.tsv");
        let wrote = dispatch(&args(&[
            "trace-diff",
            "--in",
            pio_trace.to_str().unwrap(),
            "--write-baseline",
            baseline.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(wrote.contains("wrote baseline"), "{wrote}");
        let ok = dispatch(&args(&[
            "trace-diff",
            "--in",
            pio_trace.to_str().unwrap(),
            "--baseline",
            baseline.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(ok.contains("matches baseline"), "{ok}");
        let gate = dispatch(&args(&[
            "trace-diff",
            "--in",
            mpi_trace.to_str().unwrap(),
            "--baseline",
            baseline.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(gate.0.contains("differs from baseline"), "{}", gate.0);
        assert!(gate.0.contains("\n  -wall_ns\t"), "{}", gate.0);
        assert!(gate.0.contains("\n  +wall_ns\t"), "{}", gate.0);
        // mpiBLAST's copy stage is a phase pioBLAST never enters.
        assert!(gate.0.contains("\n  +phase\tcopy\t"), "{}", gate.0);

        // --threads shards the scan across compute slots without changing
        // a single output byte.
        let threaded_out = dir.join("pio-t4.txt");
        dispatch(&args(&[
            "run",
            "--program",
            "pio",
            "--procs",
            "4",
            "--threads",
            "4",
            "--db-dir",
            dbdir.to_str().unwrap(),
            "--queries",
            qfa.to_str().unwrap(),
            "--out",
            threaded_out.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(fs::read(&threaded_out).unwrap(), outputs[0]);
        let _ = report;
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_flags_are_validated() {
        let dir = tmpdir("runflags");
        let fa = dir.join("db.fa");
        let qfa = dir.join("q.fa");
        let dbdir = dir.join("db");
        dispatch(&args(&[
            "gen",
            "--residues",
            "10k",
            "--out",
            fa.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&args(&[
            "formatdb",
            "--in",
            fa.to_str().unwrap(),
            "--title",
            "t",
            "--out-dir",
            dbdir.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&args(&[
            "sample",
            "--in",
            fa.to_str().unwrap(),
            "--bytes",
            "256",
            "--out",
            qfa.to_str().unwrap(),
        ]))
        .unwrap();
        let out = dir.join("out.txt");
        let run = |extra: &[&str]| {
            let mut v = vec![
                "run",
                "--program",
                "pio",
                "--procs",
                "3",
                "--db-dir",
                dbdir.to_str().unwrap(),
                "--queries",
                qfa.to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
            ];
            v.extend_from_slice(extra);
            dispatch(&args(&v))
        };
        // Zero slots and oversubscribing the platform's cores are typed
        // errors, not panics.
        let err = run(&["--threads", "0"]).unwrap_err();
        assert!(err.0.contains("--threads must be at least 1"), "{err}");
        let err = run(&["--platform", "blade", "--threads", "8"]).unwrap_err();
        assert!(err.0.contains("cores per node"), "{err}");
        // The platform ceiling itself is fine (blade HS20s expose four
        // hardware threads).
        run(&["--platform", "blade", "--threads", "4"]).unwrap();
        // The post-2005 platforms both complete; their I/O regimes
        // differ, so times do not agree but reports do.
        run(&["--platform", "objectstore"]).unwrap();
        let object = fs::read(&out).unwrap();
        run(&["--platform", "multisite"]).unwrap();
        assert_eq!(fs::read(&out).unwrap(), object);
        let err = run(&["--platform", "cloud9"]).unwrap_err();
        assert!(err.0.contains("objectstore"), "{err}");
        // An option nothing reads is a typed error naming it, raised
        // before the simulation runs (no report appears): the removed
        // engine and I/O-plane knobs (with or without the flag they used
        // to depend on), a misspelled flag, a pio-only flag under mpi.
        fs::remove_file(&out).unwrap();
        for (extra, named) in [
            (&["--pool-threads", "4"][..], "--pool-threads"),
            (&["--io-strategy", "sieve"][..], "--io-strategy"),
            (&["--sieve-threshold", "128k"][..], "--sieve-threshold"),
            (&["--stripe-files", "2"][..], "--stripe-files"),
            (
                &["--burst-buffer", "--stripe-files", "2"][..],
                "--stripe-files",
            ),
            (&["--io-asynch"][..], "--io-asynch"),
            (&["--program", "mpi", "--io-async"][..], "--io-async"),
            // pioBLAST lost its detect-only mode; the flag is mpiBLAST's.
            (&["--fault-detect"][..], "--fault-detect"),
        ] {
            let err = run(extra).unwrap_err();
            assert!(err.0.contains(named), "{err}");
            assert!(err.0.contains("not used by `run`"), "{err}");
            assert!(!out.exists(), "{named} was rejected only after the run");
        }
        run(&["--program", "mpi", "--fault-detect"]).unwrap();
        fs::remove_file(&out).unwrap();
        let err = dispatch(&args(&["help", "--verbose"])).unwrap_err();
        assert!(err.0.contains("--verbose"), "{err}");
        // Conditional pairs keep their own dependency errors.
        let err = run(&["--burst-capacity", "1M"]).unwrap_err();
        assert!(err.0.contains("requires --burst-buffer"), "{err}");
        let err = run(&["--trace-filter", "io"]).unwrap_err();
        assert!(err.0.contains("--trace-filter requires --trace"), "{err}");
        assert!(!out.exists());
        // Tracing observes a run without moving it: same report bytes,
        // same virtual time, message and event counts in the summary line.
        let plain = run(&[]).unwrap();
        let report = fs::read(&out).unwrap();
        let trace = dir.join("t.json");
        let traced = run(&["--trace", trace.to_str().unwrap()]).unwrap();
        assert_eq!(fs::read(&out).unwrap(), report);
        assert!(plain.contains("s virtual time, "), "{plain}");
        let (_, counts) = plain.split_once(" messages, ").expect(&plain);
        let (fired, counts) = counts.split_once(" events fired of ").expect(&plain);
        let (scheduled, _) = counts.split_once(" scheduled, report ").expect(&plain);
        let (fired, scheduled): (u64, u64) = (fired.parse().unwrap(), scheduled.parse().unwrap());
        assert!(fired <= scheduled && scheduled <= 2 * fired, "{plain}");
        // Posted reads: a fragment's three files are in flight together.
        let (_, window) = plain
            .split_once(" in flight per client: at most ")
            .expect(&plain);
        assert!(window.parse::<u64>().unwrap() >= 3, "{plain}");
        let note = traced.strip_prefix(plain.as_str()).expect(&traced);
        assert!(note.starts_with(", trace "), "{traced}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_streams_batches_and_reports_metrics() {
        let dir = tmpdir("serve");
        let fa = dir.join("db.fa");
        let qfa = dir.join("q.fa");
        let dbdir = dir.join("db");
        dispatch(&args(&[
            "gen",
            "--residues",
            "30k",
            "--seed",
            "5",
            "--out",
            fa.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&args(&[
            "formatdb",
            "--in",
            fa.to_str().unwrap(),
            "--title",
            "servedb",
            "--out-dir",
            dbdir.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&args(&[
            "sample",
            "--in",
            fa.to_str().unwrap(),
            "--bytes",
            "2k",
            "--out",
            qfa.to_str().unwrap(),
        ]))
        .unwrap();

        // Affinity on and off: per-batch reports must agree byte for
        // byte (residency is a cache, never a result change), and the
        // affinity run must actually hit its resident store.
        let serve = |label: &str, extra: &[&str]| {
            let out = dir.join(format!("svc-{label}.txt"));
            let mut v = vec![
                "serve",
                "--procs",
                "4",
                "--db-dir",
                dbdir.to_str().unwrap(),
                "--queries",
                qfa.to_str().unwrap(),
                "--users",
                "2",
                "--stream-batches",
                "3",
                "--seed",
                "9",
                "--out",
                out.to_str().unwrap(),
            ];
            v.extend_from_slice(extra);
            let msg = dispatch(&args(&v)).unwrap();
            let reports: Vec<Vec<u8>> = (0..3)
                .map(|b| fs::read(format!("{}.q{b}", out.to_str().unwrap())).unwrap())
                .collect();
            (msg, reports)
        };
        let (msg_off, off) = serve("off", &[]);
        let (msg_on, on) = serve("on", &["--affinity", "--resident-mb", "64"]);
        assert!(msg_off.contains("hit rate 0.0%"), "{msg_off}");
        assert!(!msg_on.contains("hit rate 0.0%"), "{msg_on}");
        assert!(msg_on.contains("queries/s"), "{msg_on}");
        assert_eq!(on, off, "affinity changed report bytes");
        assert!(on.iter().all(|r| !r.is_empty()));

        // A traced serve exports a validator-clean Chrome trace.
        let trace = dir.join("svc.json");
        let (msg, _) = serve(
            "traced",
            &[
                "--affinity",
                "--resident-mb",
                "64",
                "--trace",
                trace.to_str().unwrap(),
            ],
        );
        assert!(msg.contains("trace"), "{msg}");
        let check = dispatch(&args(&["trace-check", "--in", trace.to_str().unwrap()])).unwrap();
        assert!(check.contains("valid Chrome trace"), "{check}");

        // The retired I/O-plane knobs are rejected by name here too.
        for named in ["--io-strategy", "--sieve-threshold", "--stripe-files"] {
            let err = dispatch(&args(&[
                "serve",
                "--procs",
                "4",
                "--db-dir",
                dbdir.to_str().unwrap(),
                "--queries",
                qfa.to_str().unwrap(),
                "--stream-batches",
                "3",
                "--burst-buffer",
                "--out",
                dir.join("x.txt").to_str().unwrap(),
                named,
                "2",
            ]))
            .unwrap_err();
            assert!(err.0.contains(named), "{err}");
            assert!(err.0.contains("not used by `serve`"), "{err}");
        }

        // More batches than queries is a typed error, not a panic.
        let err = dispatch(&args(&[
            "serve",
            "--procs",
            "4",
            "--db-dir",
            dbdir.to_str().unwrap(),
            "--queries",
            qfa.to_str().unwrap(),
            "--stream-batches",
            "100000",
            "--out",
            dir.join("x.txt").to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.0.contains("needs at least that many queries"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_filter_parses_and_rejects_unknown_lanes() {
        let a = args(&[
            "run",
            "--trace",
            "t.json",
            "--trace-filter",
            "io,net, search",
        ]);
        let lanes = trace_filter(&a).unwrap().unwrap();
        assert_eq!(
            lanes,
            vec![
                tracelog::Lane::Io,
                tracelog::Lane::Net,
                tracelog::Lane::Search
            ]
        );
        let bad = args(&["run", "--trace", "t.json", "--trace-filter", "gpu"]);
        assert!(trace_filter(&bad)
            .unwrap_err()
            .0
            .contains("unknown trace lane"));
        // The filter shapes the export: without one it is an error.
        let orphan = trace_filter(&args(&["run", "--trace-filter", "io"])).unwrap_err();
        assert!(orphan.0.contains("requires --trace"), "{orphan}");
        assert_eq!(trace_filter(&args(&["run"])).unwrap(), None);
    }

    #[test]
    fn multivolume_round_trips_through_disk() {
        let dir = tmpdir("mv");
        let fa = dir.join("db.fa");
        let dbdir = dir.join("db");
        dispatch(&args(&[
            "gen",
            "--residues",
            "30k",
            "--out",
            fa.to_str().unwrap(),
        ]))
        .unwrap();
        let msg = dispatch(&args(&[
            "formatdb",
            "--in",
            fa.to_str().unwrap(),
            "--title",
            "mv",
            "--out-dir",
            dbdir.to_str().unwrap(),
            "--volume-cap",
            "10k",
        ]))
        .unwrap();
        assert!(msg.contains("volume(s)"));
        let db = load_db(dbdir.to_str().unwrap()).unwrap();
        assert!(db.volumes.len() >= 3, "{msg}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(dispatch(&args(&["run", "--program", "pio"])).is_err());
        assert!(dispatch(&args(&["nope"])).is_err());
        assert!(dispatch(&args(&[
            "run",
            "--program",
            "xyz",
            "--procs",
            "4",
            "--db-dir",
            "/nonexistent",
            "--queries",
            "x",
            "--out",
            "y",
        ]))
        .is_err());
        let help = dispatch(&args(&["help"])).unwrap();
        assert!(help.contains("USAGE"));

        // One flipped byte in a formatted database — byte 4 of the `.idx`
        // offset count, which then claims 2^36 table entries — is a
        // `CliError` under both programs, not an allocator abort.
        let dir = tmpdir("flipped-idx");
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (fa, dbdir, qfa) = (path("db.fa"), path("db"), path("q.fa"));
        dispatch(&args(&["gen", "--residues", "20k", "--out", &fa])).unwrap();
        dispatch(&args(&[
            "formatdb",
            "--in",
            &fa,
            "--title",
            "cidb",
            "--out-dir",
            &dbdir,
        ]))
        .unwrap();
        dispatch(&args(&[
            "sample", "--in", &fa, "--bytes", "500", "--out", &qfa,
        ]))
        .unwrap();
        let idx_path = dir.join("db/cidb.idx");
        let mut idx = fs::read(&idx_path).unwrap();
        idx[64] = 0x10;
        fs::write(&idx_path, idx).unwrap();
        for program in ["pio", "mpi"] {
            let err = dispatch(&args(&[
                "run",
                "--program",
                program,
                "--procs",
                "4",
                "--db-dir",
                &dbdir,
                "--queries",
                &qfa,
                "--out",
                &path("report.txt"),
            ]))
            .unwrap_err();
            assert!(err.0.contains("bad index cidb.idx"), "{program}: {err}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
