//! Read-ahead inside a fragment: a worker that searches a grant on
//! arrival, on a plane that posts reads, reads the fragment's index
//! slices, cuts it into record-aligned pieces (the first holding at
//! least 64 KiB of `.seq`, each later one at least twice the one before
//! it), and searches each piece while the next one's reads are in
//! flight.
//!
//! The pieces change *when* bytes arrive and when the scan starts,
//! never *what* lands in the report, and never what the search is
//! charged: every report here equals the serial oracle, and each
//! fragment's traced search time equals the modeled charge of its
//! search with the fixed per-fragment cost counted once.

mod common;

use std::collections::BTreeMap;
use std::sync::OnceLock;

use blast_core::search::{
    BlastSearcher, PreparedQueries, SearchParams, SearchScratch, SearchStats,
};
use blast_core::seq::SeqRecord;
use common::{arg, staged, OUTPUT};
use mpiblast::report::{serial_report, ReportOptions};
use mpiblast::{ModelParams, Platform};
use pioblast::input::FIRST_PIECE;
use pioblast::{
    BurstOptions, FaultMode, FragmentSchedule, PioBlastConfig, QueryStreamPlan, ServiceOptions,
};
use seqfmt::formatdb::{format_records, FormatDbConfig};
use seqfmt::frag::{virtual_fragments, IndexSlice};
use seqfmt::synth::{generate, SynthConfig};
use seqfmt::{FormattedDb, FragmentData, FragmentSpec};
use simcluster::{FaultPlan, Sim, SimDuration, SimTime};
use tracelog::{Event, EventKind, Trace, Tracer};

const NRANKS: usize = 4;
const NQUERIES: usize = 3;

/// A 600 k-residue database: three fragments of about 200 KB of `.seq`,
/// each read in two pieces (about 64 KB, then the rest).
fn db() -> &'static FormattedDb {
    static DB: OnceLock<FormattedDb> = OnceLock::new();
    DB.get_or_init(|| {
        let recs = generate(&SynthConfig::nr_like(61, 600_000));
        format_records(&recs, &FormatDbConfig::protein("nr-ahead"))
    })
}

fn queries() -> Vec<SeqRecord> {
    common::sample_queries(db(), NQUERIES)
}

/// The oracle for `queries`.
fn serial(queries: Vec<SeqRecord>) -> Vec<u8> {
    let opts = ReportOptions::default();
    serial_report(&SearchParams::blastp(), queries, db(), opts).expect("serial oracle")
}

struct Done {
    /// The report, or each stream batch's in service mode.
    reports: Vec<Vec<u8>>,
    killed: Vec<usize>,
    trace: Trace,
}

/// A traced `--dynamic --io-async` run on the blade cluster, with
/// `tweak` on top.
fn run(plan: FaultPlan, tweak: impl FnOnce(&mut PioBlastConfig)) -> Done {
    let sim = Sim::new(NRANKS);
    let tracer = Tracer::new(NRANKS);
    sim.set_tracer(tracer.clone());
    let mut cfg = staged(&sim, &Platform::blade_cluster(), db(), &queries());
    cfg.schedule = FragmentSchedule::Dynamic;
    cfg.io.io_async = true;
    tweak(&mut cfg);
    let out = sim.run_faulty(plan, |ctx| pioblast::run_rank(&ctx, &cfg));
    let reports = match &cfg.service {
        Some(svc) => (0..svc.plan.batches.len())
            .map(|b| {
                cfg.env
                    .shared
                    .peek(&format!("{OUTPUT}.q{b}"))
                    .unwrap_or_default()
            })
            .collect(),
        None => vec![cfg.env.shared.peek(OUTPUT).unwrap_or_default()],
    };
    Done {
        reports,
        killed: out.killed,
        trace: tracer.finish(out.elapsed.since(SimTime::ZERO).0),
    }
}

fn scans(trace: &Trace) -> impl Iterator<Item = &Event> {
    trace
        .events
        .iter()
        .filter(|e| e.name == "search.fragment" && e.kind == EventKind::Begin)
}

/// Scans of a piece past a fragment's first.
fn later_pieces(trace: &Trace) -> usize {
    let later = |e: &&Event| e.args.iter().any(|(k, _)| *k == "piece") && arg(e, "piece") > 0;
    scans(trace).filter(later).count()
}

/// When the span `begin` opens on its rank's Search lane closes: the
/// first `End` there after it (spans on that lane do not nest).
fn end_of(trace: &Trace, begin: &Event) -> u64 {
    let at = trace.events.iter().position(|e| std::ptr::eq(e, begin));
    let after = &trace.events[at.expect("an event of this trace") + 1..];
    let end = after
        .iter()
        .find(|e| e.rank == begin.rank && e.lane == begin.lane && e.kind == EventKind::End);
    end.expect("every span closes").t
}

fn stream_plan() -> QueryStreamPlan {
    QueryStreamPlan::generate(2, NQUERIES, NQUERIES, 2_000_000, 5)
}

#[test]
fn read_ahead_reports_equal_the_serial_report_in_every_mode() {
    let want = serial(queries());
    type Tweak = fn(&mut PioBlastConfig);
    let modes: [(&str, Tweak); 4] = [
        ("off", |_| {}),
        ("recover with checkpoints", |cfg| {
            cfg.fault = FaultMode::Recover;
            cfg.checkpoint = true;
        }),
        ("burst", |cfg| cfg.io.burst = Some(BurstOptions::default())),
        ("two threads", |cfg| cfg.threads = 2),
    ];
    for (what, tweak) in modes {
        let done = run(FaultPlan::none(), tweak);
        assert!(done.killed.is_empty(), "{what}");
        assert_eq!(done.reports, vec![want.clone()], "{what}");
        assert_eq!(
            later_pieces(&done.trace),
            3,
            "{what}: one later piece per fragment"
        );
    }
    // Service mode with affinity: each stream batch equals the oracle
    // for its own queries, and the cold reads are read ahead.
    let plan = stream_plan();
    let done = run(FaultPlan::none(), |cfg| {
        cfg.collective_output = false;
        cfg.service = Some(ServiceOptions {
            plan: plan.clone(),
            resident_bytes: 64 << 20,
            affinity: true,
        });
    });
    let batches = plan
        .partition(&queries())
        .expect("plan matches its queries");
    let want: Vec<Vec<u8>> = batches.into_iter().map(serial).collect();
    assert_eq!(done.reports, want, "serve with affinity");
    assert!(
        later_pieces(&done.trace) >= 3,
        "serve reads its cold fragments ahead"
    );
}

#[test]
fn a_kill_while_a_piece_is_in_flight_recovers_byte_identically() {
    let recover = |cfg: &mut PioBlastConfig| {
        cfg.fault = FaultMode::Recover;
        cfg.checkpoint = true;
    };
    // Each worker's first scan starts the instant its second piece's
    // reads are posted; a kill a nanosecond later finds them in flight.
    let clean = run(FaultPlan::none(), recover);
    for victim in 1..NRANKS {
        let first_scan = scans(&clean.trace)
            .find(|e| e.rank == victim && arg(e, "piece") == 0)
            .expect("every worker reads a fragment ahead");
        let at = SimTime::ZERO + SimDuration(first_scan.t + 1);
        let done = run(FaultPlan::none().kill_at(victim, at), recover);
        assert_eq!(done.killed, vec![victim]);
        assert_eq!(
            done.reports,
            vec![serial(queries())],
            "rank {victim} killed"
        );
    }
}

/// Each fragment's pieces, as the read-ahead rule cuts them.
fn pieces_of(spec: &FragmentSpec) -> Vec<FragmentSpec> {
    let idx = &db().volumes[spec.volume].index;
    IndexSlice::of_volume(spec.volume, idx).read_ahead(spec, FIRST_PIECE)
}

#[test]
fn the_next_piece_is_read_while_this_one_is_searched() {
    let done = run(FaultPlan::none(), |_| {});
    let specs = virtual_fragments(&[&db().volumes[0].index], NRANKS - 1);
    let mut checked = 0;
    for (id, spec) in specs.iter().enumerate() {
        let pieces = pieces_of(spec);
        assert_eq!(pieces.len(), 2, "{spec:?}");
        let scan = |i: usize| {
            scans(&done.trace)
                .find(|e| arg(e, "fragment") == id as u64 && arg(e, "piece") == i as u64)
                .expect("each piece is scanned")
        };
        for i in 0..pieces.len() - 1 {
            let (this, next) = (scan(i), &pieces[i + 1]);
            // The next piece's `.seq` read, on the rank scanning this one.
            let posted = done
                .trace
                .events
                .iter()
                .find(|e| {
                    e.rank == this.rank
                        && e.name == "fs.read.begin"
                        && arg(e, "offset") == next.seq_range.0
                        && arg(e, "bytes") == next.seq_range.1 - next.seq_range.0
                })
                .expect("the next piece is read");
            assert!(posted.t <= this.t, "fragment {id}: posted before the scan");
            assert!(posted.t < end_of(&done.trace, this), "fragment {id}");
            assert_eq!(
                arg(this, "subjects"),
                pieces[i].num_seqs(),
                "fragment {id}, piece {i}"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 3);
}

#[test]
fn each_fragments_search_time_is_the_modeled_charge_of_its_search() {
    let done = run(FaultPlan::none(), |_| {});
    let params = SearchParams::blastp();
    let prepared = PreparedQueries::prepare(&params, queries(), db().stats());
    let searcher = BlastSearcher::new(&params, &prepared);
    let mut scratch = SearchScratch::new();
    let vol = &db().volumes[0];
    let specs = virtual_fragments(&[&vol.index], NRANKS - 1);
    // Traced search time per fragment, summed over its pieces.
    let mut traced: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for e in scans(&done.trace) {
        let entry = traced.entry(arg(e, "fragment")).or_default();
        entry.0 += end_of(&done.trace, e) - e.t;
        entry.1 += 1;
    }
    assert_eq!(traced.len(), specs.len());
    let p = ModelParams::default();
    let charge = |s: SearchStats| {
        let secs = p.per_fragment
            + p.per_residue * s.residues as f64
            + p.per_seed * s.seed_hits as f64
            + p.per_ungapped * s.ungapped_extensions as f64
            + p.per_gapped * s.gapped_extensions as f64;
        SimDuration::from_secs_f64(secs).0
    };
    for (id, spec) in specs.iter().enumerate() {
        let whole = FragmentData::from_volume_slice(vol, spec);
        let stats = searcher.search(&whole, &mut scratch).stats;
        let (busy, npieces) = traced[&(id as u64)];
        assert_eq!(npieces, 2, "fragment {id}");
        let want = charge(stats);
        assert!(
            busy.abs_diff(want) <= npieces,
            "fragment {id}: traced {busy} ns, modeled {want} ns"
        );
    }
}
