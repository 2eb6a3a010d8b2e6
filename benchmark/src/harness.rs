//! Measuring one workload: stage its inputs, run untraced reps in fresh
//! child processes, then one traced run and the layer probes.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;
use std::{fs, io};

use tracelog::Tracer;

use crate::json::Json;
use crate::metrics::Values;
use crate::spans::Spans;
use crate::stats::{fnv1a64, hex64, median, summarize, Summary};
use crate::workloads::{self, Fingerprints, Inputs, SetupTimes, Spec};
use crate::{analysis, job, probes};

/// Where the harness writes: staged inputs, traces and span logs.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A workload with its inputs built and staged on disk for its jobs.
pub struct Staged {
    /// The workload.
    pub spec: Spec,
    /// The seed its inputs were made from.
    pub seed: u64,
    /// The inputs, in memory (the traced run and the probes use them).
    pub inputs: Inputs,
    /// Host seconds of each whole set-up made.
    pub setup_samples: Vec<f64>,
    /// Stage times of the last set-up.
    pub setup: SetupTimes,
    /// Directory the job's process reads.
    dir: PathBuf,
    /// The harness's own host-clock spans for this workload.
    pub spans: Spans,
}

/// Build `spec`'s inputs from `seed` `setups` times (every build is a
/// full set-up; the last one is kept) and stage them under `run_dir`.
pub fn stage(spec: Spec, seed: u64, setups: usize, run_dir: &Path) -> io::Result<Staged> {
    let dir = run_dir.join(spec.name);
    let mut spans = Spans::new(spec.name);
    let mut setup_samples = Vec::with_capacity(setups);
    let mut last = None;
    for _ in 0..setups.max(1) {
        // Drop the previous copy first: two databases in memory at once
        // would be the harness's cost, not the workload's.
        drop(last.take());
        if dir.exists() {
            fs::remove_dir_all(&dir)?;
        }
        fs::create_dir_all(&dir)?;
        let root = spans.open("setup", None);
        let built = workloads::build(&spec, seed, &dir, &mut spans, root)?;
        spans.close(root);
        setup_samples.push(built.1.total());
        last = Some(built);
    }
    let (inputs, setup) = last.expect("at least one set-up ran");
    let manifest = Json::obj(vec![
        ("workload", Json::Str(spec.name.into())),
        ("seed", Json::Str(seed.to_string())),
        ("nqueries", Json::Num(inputs.queries.len() as f64)),
        ("db_alias", Json::Str(inputs.db_alias.clone())),
        ("query_path", Json::Str(inputs.query_path.clone())),
        (
            "fragment_names",
            Json::Arr(
                inputs
                    .fragment_names
                    .iter()
                    .cloned()
                    .map(Json::Str)
                    .collect(),
            ),
        ),
        ("reports", Json::Num(inputs.oracle.len() as f64)),
    ]);
    fs::write(dir.join("manifest.json"), manifest.pretty())?;
    Ok(Staged {
        spec,
        seed,
        inputs,
        setup_samples,
        setup,
        dir,
        spans,
    })
}

impl Staged {
    /// Remove the staged files.
    pub fn cleanup(&self) {
        // Best effort: a leftover directory only costs disk.
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// One untraced job, as its child process reported it.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// Host seconds of the job.
    pub wall_s: f64,
    /// Peak resident set of the child, MiB.
    pub rss_mb: f64,
    /// DES makespan, virtual nanoseconds.
    pub virt_ns: u64,
    /// Digest of everything deterministic in the outcome.
    pub digest: u64,
    /// Why the job failed, if it did.
    pub failure: Option<String>,
}

/// Digest of the deterministic part of an outcome: virtual clock, every
/// counter, and the report bytes.
fn digest(outcome: &job::JobOutcome) -> u64 {
    let mut counters = outcome.deterministic_part();
    let reports = std::mem::take(&mut counters.reports);
    let text = format!("{counters:?}");
    let mut chunks: Vec<&[u8]> = vec![text.as_bytes()];
    chunks.extend(reports.iter().map(Vec::as_slice));
    fnv1a64(&chunks)
}

fn peak_rss_kb() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// The child side of a rep: load the staged inputs from `dir`, run the
/// job once with tracing off, check the reports against the oracle, and
/// print one JSON line.
pub fn child_main(dir: &Path) -> Result<(), String> {
    let read = |p: PathBuf| fs::read(&p).map_err(|e| format!("{}: {e}", p.display()));
    let manifest =
        String::from_utf8(read(dir.join("manifest.json"))?).map_err(|e| e.to_string())?;
    let manifest = Json::parse(&manifest)?;
    let field = |k: &str| {
        manifest
            .get(k)
            .ok_or_else(|| format!("manifest lacks `{k}`"))
    };
    let text = |k: &str| {
        field(k)?
            .as_str()
            .map(str::to_string)
            .ok_or(format!("`{k}` is not a string"))
    };
    let count = |k: &str| field(k)?.as_u64().ok_or(format!("`{k}` is not a count"));
    let spec = workloads::find(&text("workload")?).ok_or("unknown workload")?;
    let seed: u64 = text("seed")?.parse().map_err(|_| "bad seed")?;
    let fragment_names: Vec<String> = field("fragment_names")?
        .as_arr()
        .ok_or("`fragment_names` is not a list")?
        .iter()
        .filter_map(|v| v.as_str().map(str::to_string))
        .collect();

    let mut image = Vec::new();
    let root = dir.join("image");
    let mut pending = vec![root.clone()];
    while let Some(d) = pending.pop() {
        for entry in fs::read_dir(&d).map_err(|e| format!("{}: {e}", d.display()))? {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let rel = path
                    .strip_prefix(&root)
                    .map_err(|e| e.to_string())?
                    .to_string_lossy()
                    .replace('\\', "/");
                image.push((rel, read(path)?));
            }
        }
    }
    // Directory order is arbitrary; the file system image is not.
    image.sort();

    let db_alias = text("db_alias")?;
    let query_path = text("query_path")?;
    let outcome = job::run(
        &spec,
        job::JobInput {
            image,
            db_alias: &db_alias,
            fragment_names: &fragment_names,
            query_path: &query_path,
            nqueries: count("nqueries")? as usize,
            seed,
        },
        None,
    );
    let rss_kb = peak_rss_kb();

    let oracle: Vec<Vec<u8>> = (0..count("reports")?)
        .map(|b| read(dir.join(format!("oracle.{b}"))))
        .collect::<Result<_, _>>()?;
    let failure = job::verify(&spec, &outcome, &oracle).err();
    let line = Json::obj(vec![
        ("wall_s", Json::Num(outcome.wall_s)),
        ("rss_kb", Json::Num(rss_kb as f64)),
        ("virt_ns", Json::Num(outcome.virt_ns as f64)),
        ("digest", Json::Str(hex64(digest(&outcome)))),
        ("failure", failure.map_or(Json::Null, Json::Str)),
    ]);
    println!("{}", line.render());
    Ok(())
}

/// Run one untraced rep of `staged`'s job in a fresh child process (so
/// its peak RSS is the job's own) and wait for it.
pub fn rep(staged: &mut Staged) -> Rep {
    let span = staged.spans.open("job", None);
    let result = spawn_rep(&staged.dir);
    staged.spans.close(span);
    result.unwrap_or_else(|e| Rep {
        wall_s: 0.0,
        rss_mb: 0.0,
        virt_ns: 0,
        digest: 0,
        failure: Some(e),
    })
}

fn spawn_rep(dir: &Path) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .arg("--child")
        .arg(dir)
        .output()
        .map_err(|e| format!("spawning the job process: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "job process {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("job process printed nothing")?;
    let doc = Json::parse(line)?;
    let num = |k: &str| {
        doc.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("job result lacks `{k}`"))
    };
    let digest = doc
        .get("digest")
        .and_then(Json::as_str)
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or("job result lacks `digest`")?;
    Ok(Rep {
        wall_s: num("wall_s")?,
        rss_mb: num("rss_kb")? / 1024.0,
        virt_ns: num("virt_ns")? as u64,
        digest,
        failure: doc
            .get("failure")
            .and_then(Json::as_str)
            .map(str::to_string),
    })
}

/// Everything measured for one workload.
pub struct Measured {
    /// The workload.
    pub spec: Spec,
    /// Jobs attempted: every untraced rep plus the traced run.
    pub attempted: u64,
    /// Jobs that failed, with the first reason.
    pub failed: u64,
    /// The first failure's reason.
    pub first_failure: Option<String>,
    /// End-to-end metrics.
    pub end_to_end: Values,
    /// Per-layer metrics (empty unless probes were asked for).
    pub per_layer: Values,
    /// Distribution of the untraced host walls.
    pub wall: Summary,
    /// Fingerprints of the inputs.
    pub fingerprints: Fingerprints,
}

/// After the timed reps: one traced run (checked against the untraced
/// ones), the end-to-end metrics, and — with `layers` — every per-layer
/// metric. Writes `out/<workload>.trace.json` and `.spans.json`.
pub fn finish(mut staged: Staged, reps: &[Rep], layers: bool) -> io::Result<Measured> {
    let spec = staged.spec;
    let mut attempted = reps.len() as u64;
    let mut failed = 0u64;
    let mut first_failure: Option<String> = None;
    let mut fail = |why: String| {
        failed += 1;
        first_failure.get_or_insert(why);
    };
    let good: Vec<&Rep> = reps.iter().filter(|r| r.failure.is_none()).collect();
    for r in reps {
        if let Some(why) = &r.failure {
            fail(why.clone());
        } else if r.digest != good[0].digest {
            // Same inputs, different outcome: the job is not
            // deterministic, whatever its report says.
            fail(format!(
                "{}: reps disagree (virtual {} ns vs {} ns)",
                spec.name, r.virt_ns, good[0].virt_ns
            ));
        }
    }

    // The traced run, in this process: same job, tracer attached.
    let input = job::JobInput {
        image: staged.inputs.image.clone(),
        db_alias: &staged.inputs.db_alias,
        fragment_names: &staged.inputs.fragment_names,
        query_path: &staged.inputs.query_path,
        nqueries: staged.inputs.queries.len(),
        seed: staged.seed,
    };
    let tracer = Tracer::new(spec.ranks);
    let span = staged.spans.open("job.traced", None);
    let traced = job::run(&spec, input, Some(&tracer));
    staged.spans.close(span);
    let trace = tracer.finish(traced.virt_ns);
    attempted += 1;
    let span = staged.spans.open("verify", None);
    if let Err(why) = job::verify(&spec, &traced, &staged.inputs.oracle) {
        fail(why);
    } else if let Some(r) = good.first() {
        // Tracing must never move the virtual clock, a counter or a byte.
        if r.digest != digest(&traced) {
            fail(format!(
                "{}: traced run differs from the untraced runs (virtual {} ns vs {} ns)",
                spec.name, traced.virt_ns, r.virt_ns
            ));
        }
    }
    staged.spans.close(span);

    let span = staged.spans.open("trace.export", None);
    let t = Instant::now();
    let chrome = tracelog::chrome::export_chrome(&trace, None);
    let export_s = t.elapsed().as_secs_f64();
    if let Err(why) = tracelog::check::validate_chrome(&chrome) {
        fail(format!("{}: exported trace is invalid: {why}", spec.name));
    }
    let out = out_dir();
    fs::create_dir_all(&out)?;
    fs::write(out.join(format!("{}.trace.json", spec.name)), &chrome)?;
    staged.spans.close(span);

    let walls: Vec<f64> = good.iter().map(|r| r.wall_s).collect();
    let rss: Vec<f64> = good.iter().map(|r| r.rss_mb).collect();
    let wall = summarize(&walls).unwrap_or(Summary {
        n: 0,
        min: 0.0,
        q1: 0.0,
        median: 0.0,
        q3: 0.0,
    });
    let mut end_to_end = Values::default();
    end_to_end.set("setup_s", median(&staged.setup_samples));
    // The fastest rep, not the median. Interference on the shared host
    // only ever adds time, and it comes in spells of tens of seconds, so
    // a run's reps are slowed together: over ten runs in such a spell the
    // medians spread 9-28 % and the fastest reps 7-17 % (README.md).
    end_to_end.set("host_wall_s", wall.min);
    // The smallest, not the median: on identical inputs `mpi_blade32`'s
    // peak reads 25.4 or 28.4 MiB from one rep to the next (the pool
    // threads' allocations interleave differently at start-up and
    // tear-down), so a median flips between the two by 12 % while the
    // smallest of ten reps stays within 0.5 %.
    end_to_end.set(
        "host_peak_rss_mb",
        rss.iter().copied().reduce(f64::min).unwrap_or(0.0),
    );
    end_to_end.set("virt_total_s", traced.virt_ns as f64 / 1e9);
    end_to_end.set("virt_nonsearch_s", analysis::virt_nonsearch_s(&trace));

    let mut per_layer = Values::default();
    if layers {
        analysis::record(&spec, &traced, &trace, &mut per_layer);
        let root = staged.spans.open("probes", None);
        let facts = probes::JobFacts {
            host_wall_s: wall.min,
            traced_wall_s: traced.wall_s,
            events: traced.engine.events,
            chrome_len: chrome.len(),
            export_s,
            setup: staged.setup,
            seed: staged.seed,
        };
        probes::record(
            &spec,
            &staged.inputs,
            &facts,
            &mut staged.spans,
            root,
            &mut per_layer,
        );
        staged.spans.close(root);
    }

    fs::write(
        out.join(format!("{}.spans.json", spec.name)),
        staged.spans.to_json().pretty(),
    )?;
    let fingerprints = staged.inputs.fingerprints;
    staged.cleanup();
    Ok(Measured {
        spec,
        attempted,
        failed,
        first_failure,
        end_to_end,
        per_layer,
        wall,
        fingerprints,
    })
}
