//! Fixtures shared by this crate's unit tests: one small database, one
//! query sampler, and one staged run built on [`PioBlastConfig::new`].

use blast_core::seq::SeqRecord;
use mpiblast::platform::{ClusterEnv, Platform};
use mpiblast::setup::{stage_queries, stage_shared_db};
use mpiblast::RankReport;
use seqfmt::formatdb::{format_records, FormatDbConfig};
use seqfmt::synth::{generate, SynthConfig};
use seqfmt::{FormattedDb, FragmentData};
use simcluster::{FaultPlan, Sim, SimTime};

use crate::app::{run_rank, PioBlastConfig};
use crate::fault::PioError;

/// Path every test run writes its report to.
pub(crate) const OUTPUT: &str = "results.txt";

pub(crate) fn small_db(cap: Option<u64>) -> FormattedDb {
    let recs = generate(&SynthConfig::nr_like(21, 40_000));
    let cfg = FormatDbConfig {
        title: "nr-test".into(),
        molecule: blast_core::Molecule::Protein,
        volume_residue_cap: cap,
    };
    format_records(&recs, &cfg)
}

pub(crate) fn sample_queries(db: &FormattedDb, n: usize) -> Vec<SeqRecord> {
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

/// Cluster shape, workload and fault plan of one test run. Everything
/// else is [`PioBlastConfig::new`] plus what the test's closure changes.
pub(crate) struct Job {
    pub nranks: usize,
    pub platform: Platform,
    /// Volume residue cap of the small database (`None` = one volume).
    pub cap: Option<u64>,
    pub n_queries: usize,
    pub plan: FaultPlan,
    /// Install a tracer and hand the merged trace back.
    pub traced: bool,
}

impl Default for Job {
    fn default() -> Job {
        Job {
            nranks: 4,
            platform: Platform::altix(),
            cap: None,
            n_queries: 3,
            plan: FaultPlan::none(),
            traced: false,
        }
    }
}

/// What a finished [`Job`] hands back.
pub(crate) struct Done {
    /// Bytes at [`OUTPUT`]; empty when no report was written.
    pub report: Vec<u8>,
    /// Per-rank results; `None` for a killed rank.
    pub outputs: Vec<Option<Result<RankReport, PioError>>>,
    pub killed: Vec<usize>,
    pub elapsed: SimTime,
    pub env: ClusterEnv,
    /// The merged trace, when [`Job::traced`].
    pub trace: Option<tracelog::Trace>,
}

impl Done {
    /// Every rank's report, for runs in which no rank may fail.
    pub fn reports(self) -> Vec<RankReport> {
        self.outputs
            .into_iter()
            .map(|r| r.expect("rank not killed").expect("rank completed"))
            .collect()
    }
}

impl Job {
    /// Stage the workload, let `tweak` change the paper-design config
    /// (it may also touch the staged files through `cfg.env`), and run.
    pub fn run(self, tweak: impl FnOnce(&mut PioBlastConfig)) -> Done {
        let db = small_db(self.cap);
        let queries = sample_queries(&db, self.n_queries);
        let sim = Sim::new(self.nranks);
        let tracer = self.traced.then(|| tracelog::Tracer::new(self.nranks));
        if let Some(tracer) = &tracer {
            sim.set_tracer(tracer.clone());
        }
        let env = ClusterEnv::new(&sim, &self.platform);
        let db_alias = stage_shared_db(&env.shared, &db);
        let query_path = stage_queries(&env.shared, &queries);
        let mut cfg = PioBlastConfig::new(&self.platform, &env, &db_alias, &query_path, OUTPUT);
        tweak(&mut cfg);
        let out = sim.run_faulty(self.plan, |ctx| run_rank(&ctx, &cfg));
        Done {
            report: env.shared.peek(OUTPUT).unwrap_or_default(),
            outputs: out.outputs,
            killed: out.killed,
            elapsed: out.elapsed,
            env,
            trace: tracer.map(|t| t.finish(out.elapsed.0)),
        }
    }
}
