//! The six benchmark workloads: what each one runs, why it exists, and
//! how its inputs are made from the seed.
//!
//! Names are fixed (later PRs compare against them). Sizes are frozen:
//! changing one changes every recorded number, and the fingerprint table
//! (`fingerprints.json`) fails the run when an input drifts.

use blast_core::fasta;
use blast_core::search::SearchParams;
use blast_core::seq::SeqRecord;
use mpiblast::report::serial_report;
use mpiblast::{Platform, ReportOptions};
use pioblast::QueryStreamPlan;
use seqfmt::formatdb::{format_records, FormatDbConfig};
use seqfmt::sampler::sample_queries;
use seqfmt::synth::{generate, SynthConfig};
use seqfmt::{physical_fragments, FormattedDb};

use std::path::Path;
use std::{fs, io};

use crate::spans::Spans;
use crate::stats::fnv1a64;

/// Simulated machine a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Machine {
    /// SGI Altix: NUMAlink + XFS, fast shared file system.
    Altix,
    /// IBM blade cluster: gigabit Ethernet + NFS + local disks.
    Blade,
}

impl Machine {
    /// The platform description.
    pub fn platform(self) -> Platform {
        match self {
            Machine::Altix => Platform::altix(),
            Machine::Blade => Platform::blade_cluster(),
        }
    }
}

/// Which program and mode a workload's job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// pioBLAST one-shot, static schedule, collective output, no faults.
    Pio,
    /// The mpiBLAST baseline.
    Mpi,
    /// pioBLAST service mode: seeded query stream, affinity, resident
    /// store, nonblocking I/O plane.
    Serve,
    /// pioBLAST under `FaultMode::Recover` with checkpointing, the
    /// nonblocking plane and the burst tier; one worker is killed.
    Recover,
}

/// Service-mode stream shape (`serve_affinity16`).
pub const SERVE_USERS: u32 = 4;
/// Stream batches replayed by `serve_affinity16`.
pub const SERVE_BATCHES: usize = 8;
/// Mean inter-arrival gap of the stream, virtual nanoseconds.
pub const SERVE_MEAN_GAP_NS: u64 = 1_000_000;
/// Resident fragment store per worker, bytes.
pub const SERVE_RESIDENT_BYTES: u64 = 256 << 20;
/// `recover_burst16`: the worker that dies and how many sends it gets.
/// Two sends put the kill after its first grant request and before its
/// submission, so its fragment is requeued and searched again.
pub const RECOVER_KILL: (usize, u64) = (5, 2);

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Fixed name.
    pub name: &'static str,
    /// One line: why the workload exists.
    pub why: &'static str,
    /// Database size in residues.
    pub db_residues: u64,
    /// Number of queries.
    pub n_queries: usize,
    /// Residues per query (sampled records are cut to this length).
    pub query_len: usize,
    /// Simulated ranks (master + workers).
    pub ranks: usize,
    /// Machine profile.
    pub machine: Machine,
    /// Program and mode.
    pub mode: Mode,
}

impl Spec {
    /// Database fragments the job is split into: natural partitioning,
    /// one per worker.
    pub fn fragments(&self) -> usize {
        self.ranks - 1
    }

    /// The same workload at `1/div` of its input size (smoke mode).
    pub fn shrunk(mut self, div: u64) -> Spec {
        // Every fragment still needs a few sequences.
        self.db_residues = (self.db_residues / div).max(self.ranks as u64 * 1_000);
        self.n_queries = (self.n_queries / div as usize).max(match self.mode {
            // The stream needs at least one query per batch.
            Mode::Serve => SERVE_BATCHES,
            _ => 2,
        });
        self
    }
}

/// Every workload, in reporting order.
pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "search16",
        why: "16 ranks on a large database: host time is blast-core scan and extension, so a kernel change shows and an engine or I/O change must not",
        db_residues: 12_000_000,
        n_queries: 6,
        query_len: QUERY_LEN,
        ranks: 16,
        machine: Machine::Altix,
        mode: Mode::Pio,
    },
    Spec {
        name: "scale512",
        why: "512 ranks on a small database: simcluster dispatch, fiber stacks, mpisim traffic and per-rank prepare dominate; the subject scan is a minor share",
        db_residues: 1_000_000,
        n_queries: 4,
        query_len: QUERY_LEN,
        ranks: 512,
        machine: Machine::Altix,
        mode: Mode::Pio,
    },
    Spec {
        name: "output_blade32",
        why: "32 ranks on blade/NFS with many queries and a large report: traceback/format, metadata merge and two-phase collective write carry the job",
        db_residues: OUTPUT_DB,
        n_queries: OUTPUT_QUERIES,
        query_len: QUERY_LEN,
        ranks: 32,
        machine: Machine::Blade,
        mode: Mode::Pio,
    },
    Spec {
        name: "mpi_blade32",
        why: "the mpiBLAST baseline on output_blade32's inputs: fragment copy, serialized fetch and master-only writes use the same lower layers differently",
        db_residues: OUTPUT_DB,
        n_queries: OUTPUT_QUERIES,
        query_len: QUERY_LEN,
        ranks: 32,
        machine: Machine::Blade,
        mode: Mode::Mpi,
    },
    Spec {
        name: "serve_affinity16",
        why: "service mode, 8 stream batches from 4 users: resident-store hits beside cold reads, the nonblocking plane and re-grant scheduling; makespan of the stream",
        db_residues: SERVICE_DB,
        n_queries: 8,
        query_len: QUERY_LEN,
        ranks: 16,
        machine: Machine::Blade,
        mode: Mode::Serve,
    },
    Spec {
        name: "recover_burst16",
        why: "Recover + checkpoint + async plane + burst tier with one worker killed: p2p lowering, checkpoint puts/gets, staging fences and requeue",
        db_residues: SERVICE_DB,
        n_queries: 6,
        query_len: QUERY_LEN,
        ranks: 16,
        machine: Machine::Blade,
        mode: Mode::Recover,
    },
];

const SERVICE_DB: u64 = 3_000_000;
const OUTPUT_DB: u64 = 600_000;
const OUTPUT_QUERIES: usize = 12;
const QUERY_LEN: usize = 200;

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Search parameters and report limits shared by every workload: NCBI
/// defaults with HSPs per subject capped so records stay compact at this
/// database scale.
pub fn scaled_params() -> (SearchParams, ReportOptions) {
    let mut params = SearchParams::blastp();
    params.max_hsps_per_subject = 4;
    (params, ReportOptions::default())
}

/// The seed every workload's sequences, record order and query order come
/// from. The run's `--seed` chooses none of them: it numbers the database
/// records (the `gi|<n>|` of every defline, hence the header volume and a
/// few bytes of every alignment record in the report) and seeds the
/// `serve` stream plan. Two seeds therefore give different input files
/// with exactly the same search work in every fragment, and the virtual
/// metrics differ in the sixth digit, not by per cent. Measured at this
/// commit, each wider role cost a bound worth having: sequences drawn from
/// the run seed moved `virt_total_s` 5-7 % from seed to seed, record order
/// (what each fragment holds) and query order alone still 3-5 % on
/// `output_blade32` and `mpi_blade32` — the kernel's extension counts
/// depend on query order, because its diagonal state is indexed in the
/// concatenated query space and hits of different queries meet there.
pub const CONTENT_SEED: u64 = 2005;

fn synth_config(residues: u64) -> SynthConfig {
    let mut synth = SynthConfig::nr_like(CONTENT_SEED, residues);
    // Every family grows to the generator's cap of 500 members, so a
    // sampled query aligns against hundreds of subjects and saturates the
    // report limits (500 descriptions, 250 alignments), as real nr
    // queries do: every query then costs the same format and output work.
    synth.family_size_mean = 1e9;
    synth.mutation_rate = 0.2;
    synth
}

/// Shuffle `records`. The generator emits families contiguously; real nr
/// is not sorted by family, and contiguous families would hand one worker
/// all of a query's alignment work.
fn shuffle_records(records: &mut [SeqRecord]) {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(CONTENT_SEED ^ 0x7a57);
    records.shuffle(&mut rng);
}

/// Give every record a `gi` number drawn from the run seed, in place of
/// the generator's running count.
fn number_records(records: &mut [SeqRecord], seed: u64) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x6149);
    for r in records {
        let rest = r
            .defline
            .splitn(3, '|')
            .nth(2)
            .expect("generated deflines start `gi|<n>|`");
        r.defline = format!("gi|{}|{rest}", rng.gen_range(1..1_000_000_000u32));
    }
}

/// Sample `n` queries of exactly `len` residues each: draw records with
/// `sample_queries`, keep those long enough, cut them to `len`. A fixed
/// count and length state a workload's query volume exactly, where a byte
/// budget leaves both to the sampled records' lengths.
fn sample_fixed_queries(records: &[SeqRecord], n: usize, len: usize) -> Vec<SeqRecord> {
    let per_query = (len + len / 60 + 64) as u64;
    let mut queries = Vec::with_capacity(n);
    // A generous pool: about three records in four are long enough.
    for mut q in sample_queries(records, 8 * n as u64 * per_query, CONTENT_SEED ^ 0x5eed) {
        if q.len() >= len && queries.len() < n {
            q.residues.truncate(len);
            queries.push(q);
        }
    }
    assert_eq!(queries.len(), n, "query pool too small for {n} x {len}");
    queries
}

/// A workload's inputs, as the program receives them: the bytes of the
/// shared file system before the job starts, plus the oracle reports.
pub struct Inputs {
    /// The formatted database (kept for probes and the oracle).
    pub db: FormattedDb,
    /// The sampled queries.
    pub queries: Vec<SeqRecord>,
    /// Shared-file-system image: `(path, bytes)`.
    pub image: Vec<(String, Vec<u8>)>,
    /// Alias path of the database inside the image.
    pub db_alias: String,
    /// Fragment base names inside the image (mpiBLAST only).
    pub fragment_names: Vec<String>,
    /// Query FASTA path inside the image.
    pub query_path: String,
    /// Expected report(s): one for a one-shot job, one per stream batch
    /// for `serve`.
    pub oracle: Vec<Vec<u8>>,
    /// Fingerprints of all of the above, taken while building them.
    pub fingerprints: Fingerprints,
}

impl Inputs {
    /// The query sets the job searches: the whole set for a one-shot
    /// job, one per stream batch for `serve`.
    pub fn query_sets(&self, spec: &Spec, seed: u64) -> Vec<Vec<SeqRecord>> {
        match spec.mode {
            Mode::Serve => serve_plan(self.queries.len(), seed)
                .partition(&self.queries)
                .expect("the plan is generated for this query set"),
            _ => vec![self.queries.clone()],
        }
    }
}

/// FNV-1a-64 fingerprints of one workload's inputs. `records` and
/// `queries` are the same at every seed; `db` and `oracle` carry the
/// seed's record numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprints {
    /// The generated records (deflines and residues) in database order,
    /// before the run seed numbers them.
    pub records: u64,
    /// The query FASTA.
    pub queries: u64,
    /// Every database file (alias, then each volume's idx/seq/hdr).
    pub db: u64,
    /// The oracle report(s).
    pub oracle: u64,
}

/// Host seconds each set-up stage took.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `seqfmt::synth::generate`, plus ordering the records by the seed.
    pub synth_s: f64,
    /// `format_records`.
    pub formatdb_s: f64,
    /// `sample_queries`.
    pub sample_s: f64,
    /// Staging: the file-system image (fragments for mpiBLAST), written
    /// where the job's process reads it.
    pub stage_s: f64,
    /// `serial_report` (per stream batch for `serve`).
    pub oracle_s: f64,
}

impl SetupTimes {
    /// Whole set-up.
    pub fn total(&self) -> f64 {
        self.synth_s + self.formatdb_s + self.sample_s + self.stage_s + self.oracle_s
    }
}

/// The stream plan `serve_affinity16` replays over `nqueries` queries.
pub fn serve_plan(nqueries: usize, seed: u64) -> QueryStreamPlan {
    QueryStreamPlan::generate(
        SERVE_USERS,
        SERVE_BATCHES,
        nqueries,
        SERVE_MEAN_GAP_NS,
        seed,
    )
}

/// Build a workload's inputs from the seed and stage them under `dir`
/// for the job's process (`dir/image/<path>`, `dir/oracle.<b>`),
/// recording one host span per stage under `parent`.
pub fn build(
    spec: &Spec,
    seed: u64,
    dir: &Path,
    spans: &mut Spans,
    parent: usize,
) -> io::Result<(Inputs, SetupTimes)> {
    let mut times = SetupTimes::default();
    let mut fingerprints = Fingerprints::default();

    let s = spans.open("setup.synth", Some(parent));
    let mut records = generate(&synth_config(spec.db_residues));
    times.synth_s = spans.close(s);

    let s = spans.open("setup.sample", Some(parent));
    let queries = sample_fixed_queries(&records, spec.n_queries, spec.query_len);
    let query_fasta = fasta::to_string(&queries, 60).into_bytes();
    fingerprints.queries = fnv1a64(&[&query_fasta]);
    times.sample_s = spans.close(s);

    let s = spans.open("setup.order", Some(parent));
    shuffle_records(&mut records);
    let chunks: Vec<&[u8]> = records
        .iter()
        .flat_map(|r| [r.defline.as_bytes(), r.residues.as_slice()])
        .collect();
    fingerprints.records = fnv1a64(&chunks);
    number_records(&mut records, seed);
    times.synth_s += spans.close(s);

    let s = spans.open("setup.formatdb", Some(parent));
    let db = format_records(&records, &FormatDbConfig::protein("nr-sim"));
    drop(records);
    times.formatdb_s = spans.close(s);

    let s = spans.open("setup.stage", Some(parent));
    let mut image: Vec<(String, Vec<u8>)> = Vec::new();
    let mut fragment_names = Vec::new();
    let db_alias = format!("db/{}.al", db.alias.title);
    let files = db.files();
    let chunks: Vec<&[u8]> = files.iter().map(|(_, bytes)| bytes.as_slice()).collect();
    fingerprints.db = fnv1a64(&chunks);
    if spec.mode == Mode::Mpi {
        // mpiformatdb's job: pre-partition into physical fragments.
        for frag in physical_fragments(&db, spec.fragments()) {
            for (name, bytes) in frag.files() {
                image.push((format!("frags/{name}"), bytes.to_vec()));
            }
            fragment_names.push(format!("frags/{}", frag.name));
        }
    } else {
        for (name, bytes) in files {
            image.push((format!("db/{name}"), bytes));
        }
    }
    let query_path = "queries.fa".to_string();
    image.push((query_path.clone(), query_fasta));
    for (path, bytes) in &image {
        let file = dir.join("image").join(path);
        fs::create_dir_all(file.parent().expect("image paths are relative files"))?;
        fs::write(file, bytes)?;
    }
    times.stage_s = spans.close(s);

    let s = spans.open("setup.oracle", Some(parent));
    let (params, report) = scaled_params();
    let mut inputs = Inputs {
        db,
        queries,
        image,
        db_alias,
        fragment_names,
        query_path,
        oracle: Vec::new(),
        fingerprints,
    };
    for (b, set) in inputs.query_sets(spec, seed).into_iter().enumerate() {
        let report = serial_report(&params, set, &inputs.db, report).expect("oracle report");
        fs::write(dir.join(format!("oracle.{b}")), &report)?;
        inputs.oracle.push(report);
    }
    let chunks: Vec<&[u8]> = inputs.oracle.iter().map(Vec::as_slice).collect();
    inputs.fingerprints.oracle = fnv1a64(&chunks);
    times.oracle_s = spans.close(s);
    Ok((inputs, times))
}
