//! The repository's benchmark: host-time and virtual-time end-to-end
//! metrics over six workloads, per-layer probes, and a traced run.
//!
//! ```text
//! pioblast-benchmark [--seed S]                      every workload, every metric
//! pioblast-benchmark --smoke                         1/20 size, one rep, same checks
//! pioblast-benchmark --agree [--seed S]              two full sets, compared
//! pioblast-benchmark --workload W --seed S --seconds T --trace 0|1
//!                                                    one workload, one JSON line (BENCHMARK.json)
//! pioblast-benchmark --write-fingerprints            re-record fingerprints.json
//! ```
//!
//! See `README.md` beside this crate for what every number means.

mod analysis;
mod harness;
mod job;
mod json;
mod metrics;
mod probes;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use harness::{Measured, Rep, Staged};
use json::Json;
use metrics::{Clock, Def, END_TO_END, PER_LAYER};
use stats::hex64;
use workloads::{Fingerprints, WORKLOADS};

/// The seed `fingerprints.json` records inputs for, and the default.
const CANONICAL_SEED: u64 = 2005;
/// Input shrink factor of `--smoke`.
const SMOKE_DIV: u64 = 20;
/// `run_seconds` of `BENCHMARK.json`: how long a `--workload` run keeps
/// taking untraced reps.
const RUN_SECONDS: f64 = 10.0;
/// Untraced reps per workload in a full run.
const FULL_REPS: usize = 7;
/// Fewest untraced reps a `--workload` run takes, however short `--seconds`.
const MIN_REPS: usize = 3;
/// Set-ups per run whose median is `setup_s`.
const SETUPS: usize = 3;
/// The recorded input fingerprints (see `--write-fingerprints`).
const FINGERPRINTS: &str = include_str!("../fingerprints.json");

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    agree: bool,
    write_fingerprints: bool,
    child: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: CANONICAL_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        agree: false,
        write_fingerprints: false,
        child: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--smoke" => args.smoke = true,
            "--agree" => args.agree = true,
            "--write-fingerprints" => args.write_fingerprints = true,
            "--child" => args.child = Some(PathBuf::from(value("a directory")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Pin this process — and the job processes and engine threads it
/// starts, which inherit the mask — to one CPU of those it may use.
///
/// The DES engine runs exactly one thread at a time by design (the
/// scheduler round-trips every event to a pool worker), so one CPU costs
/// it no parallelism. What pinning removes is where the kernel happens
/// to place those threads: on a virtualized host a wake-up that crosses
/// vCPUs costs ~20 us against ~2 us on the same one, and which of the
/// two a run gets is luck, which made `host_wall_s` bimodal (0.6 s or
/// 1.9 s for the same `mpi_blade32` job). The price: every host time is
/// a one-CPU number, and a future engine that runs ranks in parallel
/// would show no gain here. Returns the CPU, or `None` where the platform
/// has no such call or refuses it.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    // Declared here because the container has no `libc` crate; both
    // symbols come from the C library std already links.
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    const WORDS: usize = 16; // room for 1024 CPUs, the kernel's usual cpu_set_t
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let word = allowed.iter().position(|&w| w != 0)?;
    let cpu = word * 64 + allowed[word].trailing_zeros() as usize;
    let mut one = [0u64; WORDS];
    one[word] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the byte length passed,
    // and names a CPU the kernel just reported as allowed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The header every output carries.
fn header(nproc: usize, seed: u64, reps: &str) -> Json {
    Json::obj(vec![
        (
            "git_rev",
            Json::Str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        ("nproc", Json::Num(nproc as f64)),
        ("pool", Json::Num(job::POOL as f64)),
        ("seed", Json::Str(seed.to_string())),
        ("reps", Json::Str(reps.into())),
    ])
}

fn print_header(h: &Json) {
    let s = |k: &str| match h.get(k) {
        Some(Json::Str(s)) => s.clone(),
        Some(other) => other.render(),
        None => String::new(),
    };
    println!(
        "# git {} | {} | nproc {} | pool {} | seed {} | reps {}",
        s("git_rev"),
        s("rustc"),
        s("nproc"),
        s("pool"),
        s("seed"),
        s("reps")
    );
}

/// A directory for this process's staged inputs.
fn run_dir() -> PathBuf {
    harness::out_dir().join(format!("run-{}", std::process::id()))
}

// ---- fingerprints ----

fn recorded(table: &str, workload: &str) -> Result<Fingerprints, String> {
    let doc = Json::parse(FINGERPRINTS).map_err(|e| format!("fingerprints.json: {e}"))?;
    let entry = doc
        .get(table)
        .and_then(|t| t.get(workload))
        .ok_or_else(|| {
            format!("fingerprints.json records nothing for {table}/{workload}; run --write-fingerprints")
        })?;
    let hex = |k: &str| {
        entry
            .get(k)
            .and_then(Json::as_str)
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("fingerprints.json: bad `{k}` for {table}/{workload}"))
    };
    Ok(Fingerprints {
        records: hex("records")?,
        queries: hex("queries")?,
        db: hex("db")?,
        oracle: hex("oracle")?,
    })
}

/// Compare the fingerprints taken while the workload's inputs were built
/// with the recorded ones, so no change to the generator, the formatter,
/// the sampler or the kernel can alter a workload silently. The sequences
/// and queries are the same at every seed; the formatted database and the
/// oracle carry the seed's record numbers, so they are compared when the
/// run's seed is the recorded one (every `--smoke` run, by default).
fn check_fingerprints(staged: &Staged, table: &str) -> Result<(), String> {
    let want = recorded(table, staged.spec.name)?;
    let got = staged.inputs.fingerprints;
    let mut pairs = vec![
        ("generated records", got.records, want.records),
        ("queries", got.queries, want.queries),
    ];
    if staged.seed == CANONICAL_SEED {
        pairs.push(("formatted database", got.db, want.db));
        pairs.push(("oracle report", got.oracle, want.oracle));
    }
    let wrong: Vec<String> = pairs
        .into_iter()
        .filter(|(_, g, w)| g != w)
        .map(|(what, g, w)| format!("{what} {} (recorded {})", hex64(g), hex64(w)))
        .collect();
    if wrong.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "INPUT FINGERPRINT MISMATCH for {table}/{}: {}. \
             The workload is no longer the one the recorded numbers describe.",
            staged.spec.name,
            wrong.join("; ")
        ))
    }
}

fn fingerprint_json(f: &Fingerprints) -> Json {
    Json::obj(vec![
        ("records", Json::Str(hex64(f.records))),
        ("queries", Json::Str(hex64(f.queries))),
        ("db", Json::Str(hex64(f.db))),
        ("oracle", Json::Str(hex64(f.oracle))),
    ])
}

fn write_fingerprints() -> Result<(), String> {
    let dir = run_dir();
    let mut tables = Vec::new();
    for (table, div) in [("full", 1), ("smoke", SMOKE_DIV)] {
        let mut entries = Vec::new();
        for spec in WORKLOADS {
            let spec = if div > 1 { spec.shrunk(div) } else { spec };
            let staged =
                harness::stage(spec, CANONICAL_SEED, 1, &dir).map_err(|e| e.to_string())?;
            entries.push((
                spec.name.to_string(),
                fingerprint_json(&staged.inputs.fingerprints),
            ));
            staged.cleanup();
            println!("{table}/{}: recorded", spec.name);
        }
        tables.push((table.to_string(), Json::Obj(entries)));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let mut doc = vec![("seed".to_string(), Json::Num(CANONICAL_SEED as f64))];
    doc.extend(tables);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fingerprints.json");
    std::fs::write(&path, Json::Obj(doc).pretty()).map_err(|e| e.to_string())?;
    println!("wrote {} (rebuild to pick it up)", path.display());
    Ok(())
}

// ---- output ----

fn metrics_json(values: &[(&'static Def, f64)], annotated: bool) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|(d, v)| {
                let mut m = vec![("value", Json::Num(*v)), ("unit", Json::Str(d.unit.into()))];
                if annotated {
                    m.push(("clock", Json::Str(d.clock.label().into())));
                    m.push(("better", Json::Str(d.better.label().into())));
                }
                (d.name.to_string(), Json::obj(m))
            })
            .collect(),
    )
}

fn measured_json(m: &Measured) -> Json {
    let mut pairs = vec![
        ("name", Json::Str(m.spec.name.into())),
        ("correct", Json::Bool(m.failed == 0)),
        ("attempted", Json::Num(m.attempted as f64)),
        ("failed", Json::Num(m.failed as f64)),
        (
            "first_failure",
            m.first_failure.clone().map_or(Json::Null, Json::Str),
        ),
        (
            "end_to_end",
            metrics_json(&m.end_to_end.in_order(&END_TO_END), true),
        ),
        (
            "host_wall",
            Json::obj(vec![
                ("n", Json::Num(m.wall.n as f64)),
                ("min", Json::Num(m.wall.min)),
                ("q1", Json::Num(m.wall.q1)),
                ("median", Json::Num(m.wall.median)),
                ("q3", Json::Num(m.wall.q3)),
            ]),
        ),
        ("fingerprints", fingerprint_json(&m.fingerprints)),
    ];
    if m.per_layer != Default::default() {
        pairs.push((
            "per_layer",
            metrics_json(&m.per_layer.in_order(&PER_LAYER), true),
        ));
    }
    Json::obj(pairs)
}

fn print_metric(d: &Def, v: f64, note: &str) {
    let bound = d
        .bound
        .map_or(String::new(), |b| format!("[{:.0}%]", b * 100.0));
    println!(
        "  {:<36} {:>16.6} {:<10} {:<8} {bound:<6} {note}",
        d.name,
        v,
        d.unit,
        d.clock.label()
    );
}

fn print_measured(m: &Measured) {
    println!("\n== {} — {}", m.spec.name, m.spec.why);
    println!(
        "   {} ranks, {} residues, {} queries x {} residues",
        m.spec.ranks, m.spec.db_residues, m.spec.n_queries, m.spec.query_len
    );
    for (d, v) in m.end_to_end.in_order(&END_TO_END) {
        let note = if d.name == "host_wall_s" {
            format!(
                "q1 {:.4} median {:.4} q3 {:.4} n {} spread {:.1}%",
                m.wall.q1,
                m.wall.median,
                m.wall.q3,
                m.wall.n,
                m.wall.spread() * 100.0
            )
        } else {
            String::new()
        };
        print_metric(d, v, &note);
    }
    println!(
        "  {:<36} {:>16} {:<10} {:<8}        of {} attempted{}",
        "failures",
        m.failed,
        "jobs",
        "count",
        m.attempted,
        m.first_failure
            .as_ref()
            .map_or(String::new(), |w| format!(" — {w}"))
    );
    if m.per_layer != Default::default() {
        for (d, v) in m.per_layer.in_order(&PER_LAYER) {
            print_metric(d, v, "");
        }
    }
}

// ---- modes ----

/// `--workload W --seed S --seconds T --trace 0|1`: one workload, one
/// JSON object as the last line of standard output.
fn run_one(args: &Args, name: &str, nproc: usize) -> Result<(), String> {
    let spec = workloads::find(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let dir = run_dir();
    let setups = if args.trace { 1 } else { SETUPS };
    let mut staged = harness::stage(spec, args.seed, setups, &dir).map_err(|e| e.to_string())?;
    check_fingerprints(&staged, "full")?;

    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        reps.push(harness::rep(&mut staged));
    }
    let measured = harness::finish(staged, &reps, args.trace).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(&dir);

    print_header(&header(nproc, args.seed, &reps.len().to_string()));
    print_measured(&measured);
    let metrics = if args.trace {
        metrics_json(&measured.per_layer.in_order(&PER_LAYER), false)
    } else {
        metrics_json(&measured.end_to_end.in_order(&END_TO_END), false)
    };
    let line = Json::obj(vec![
        ("correct", Json::Bool(measured.failed == 0)),
        ("attempted", Json::Num(measured.attempted as f64)),
        ("failed", Json::Num(measured.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
    Ok(())
}

/// Every workload: stage all, run the untraced reps round-robin across
/// workloads (so drift decorrelates), then the traced run and probes.
fn run_all(args: &Args, nproc: usize) -> Result<Vec<Measured>, String> {
    let (table, reps, setups) = if args.smoke {
        ("smoke", 1, 1)
    } else {
        ("full", FULL_REPS, SETUPS)
    };
    let dir = run_dir();
    let mut staged: Vec<Staged> = Vec::new();
    for spec in WORKLOADS {
        let spec = if args.smoke {
            spec.shrunk(SMOKE_DIV)
        } else {
            spec
        };
        let s = harness::stage(spec, args.seed, setups, &dir).map_err(|e| e.to_string())?;
        check_fingerprints(&s, table)?;
        staged.push(s);
    }
    let mut all_reps: Vec<Vec<Rep>> = vec![Vec::new(); staged.len()];
    for _ in 0..reps {
        for (s, r) in staged.iter_mut().zip(&mut all_reps) {
            r.push(harness::rep(s));
        }
    }
    let mut measured = Vec::new();
    for (s, r) in staged.into_iter().zip(&all_reps) {
        measured.push(harness::finish(s, r, true).map_err(|e| e.to_string())?);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let head = header(nproc, args.seed, &reps.to_string());
    print_header(&head);
    for m in &measured {
        print_measured(m);
    }
    let doc = Json::obj(vec![
        ("header", head),
        ("mode", Json::Str(table.into())),
        (
            "workloads",
            Json::Arr(measured.iter().map(measured_json).collect()),
        ),
    ]);
    let path = harness::out_dir().join(format!("results.{table}.json"));
    std::fs::write(&path, doc.pretty()).map_err(|e| e.to_string())?;
    println!("\nwrote {}", path.display());
    Ok(measured)
}

fn any_failed(measured: &[Measured]) -> Result<(), String> {
    let failed: Vec<String> = measured
        .iter()
        .filter(|m| m.failed > 0)
        .map(|m| format!("{} ({} of {})", m.spec.name, m.failed, m.attempted))
        .collect();
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("failed jobs: {}", failed.join(", ")))
    }
}

/// `--agree`: two full sets back to back, compared under the benchmark's
/// own bounds — exact equality for every virtual or count metric, the
/// metric's bound for host end-to-end metrics.
fn run_agree(args: &Args, nproc: usize) -> Result<(), String> {
    let first = run_all(args, nproc)?;
    let second = run_all(args, nproc)?;
    any_failed(&first)?;
    any_failed(&second)?;
    let mut disagreements = 0usize;
    println!("\n== agreement of two sets (seed {})", args.seed);
    for (a, b) in first.iter().zip(&second) {
        println!("\n{}", a.spec.name);
        println!(
            "  {:<36} {:>16} {:>16} {:>9}  verdict",
            "metric", "first", "second", "change"
        );
        let pairs = a
            .end_to_end
            .in_order(&END_TO_END)
            .into_iter()
            .zip(b.end_to_end.in_order(&END_TO_END))
            .chain(
                a.per_layer
                    .in_order(&PER_LAYER)
                    .into_iter()
                    .zip(b.per_layer.in_order(&PER_LAYER)),
            );
        for ((d, va), (_, vb)) in pairs {
            let change = if va == 0.0 { 0.0 } else { (vb - va) / va };
            let (verdict, agrees) = match (d.clock, d.bound) {
                (Clock::Virtual | Clock::Count, _) if va == vb => ("exact", true),
                (Clock::Virtual | Clock::Count, _) => ("DIFFERS", false),
                (Clock::Host, Some(bound)) if change.abs() <= bound => ("within bound", true),
                (Clock::Host, Some(_)) => ("OUT OF BOUND", false),
                // Host layer numbers are reported, not gated.
                (Clock::Host, None) => continue,
            };
            if !agrees {
                disagreements += 1;
            } else if d.bound.is_none() {
                // Exact layer metrics that agree: keep the table short.
                continue;
            }
            println!(
                "  {:<36} {:>16.6} {:>16.6} {:>8.2}%  {verdict}",
                d.name,
                va,
                vb,
                change * 100.0
            );
        }
    }
    if disagreements == 0 {
        println!(
            "\nthe two sets agree: virtual and count metrics bit-equal, host metrics within bounds"
        );
        Ok(())
    } else {
        Err(format!(
            "{disagreements} metric(s) disagree between the two sets"
        ))
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if let Some(dir) = &args.child {
        return harness::child_main(dir);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if pin_to_one_cpu().is_none() {
        eprintln!("pioblast-benchmark: could not pin to one CPU; host times will be noisier");
    }
    if args.write_fingerprints {
        return write_fingerprints();
    }
    if let Some(name) = &args.workload {
        return run_one(&args, name, nproc);
    }
    if args.agree {
        return run_agree(&args, nproc);
    }
    any_failed(&run_all(&args, nproc)?)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pioblast-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The repository's `BENCHMARK.json`, as the registry and the workload
    /// table give it.
    fn benchmark_json() -> Json {
        let metric = |d: &Def| {
            assert!(
                metrics::valid_name(d.name) && metrics::valid_unit(d.unit),
                "{}",
                d.name
            );
            let mut m = vec![
                ("name", Json::Str(d.name.into())),
                ("unit", Json::Str(d.unit.into())),
                ("better", Json::Str(d.better.label().into())),
            ];
            if let Some(b) = d.bound {
                m.push(("bound", Json::Num(b)));
            }
            Json::obj(m)
        };
        let strs =
            |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str((*s).into())).collect());
        Json::obj(vec![
            (
                "command",
                strs(&[
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]),
            ),
            ("paths", strs(&["benchmark"])),
            ("run_seconds", Json::Num(RUN_SECONDS)),
            (
                "workloads",
                Json::Arr(
                    WORKLOADS
                        .iter()
                        .map(|w| {
                            Json::obj(vec![
                                ("name", Json::Str(w.name.into())),
                                ("why", Json::Str(w.why.into())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Json::Arr(END_TO_END.iter().map(metric).collect()),
            ),
            (
                "per_layer",
                Json::Arr(PER_LAYER.iter().map(metric).collect()),
            ),
        ])
    }

    /// `BENCHMARK.json` is what the driver reads; the registry and the
    /// workload table are what the harness runs. This keeps them in step.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(Json::parse(&text), Ok(benchmark_json()));
        for w in &WORKLOADS {
            assert!(metrics::valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn every_workload_has_recorded_fingerprints() {
        for table in ["full", "smoke"] {
            for w in &WORKLOADS {
                recorded(table, w.name).expect("recorded");
            }
        }
        assert!(recorded("full", "no-such-workload").is_err());
    }
}
