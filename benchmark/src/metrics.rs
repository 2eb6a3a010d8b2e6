//! The metric registry: every number the benchmark prints, with its
//! unit, its clock domain, which way is better, and (end-to-end metrics
//! only) the share by which it may worsen before a change is a
//! regression. `BENCHMARK.json` at the repository root lists exactly
//! these; a unit test keeps the two in step.

/// The clock a metric is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time or host memory: noisy, bounded by a tolerance.
    Host,
    /// The DES virtual clock: exact for fixed inputs.
    Virtual,
    /// A count the program made: exact for fixed inputs.
    Count,
}

impl Clock {
    /// Label printed beside every metric.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Virtual => "virtual",
            Clock::Count => "count",
        }
    }
}

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name (letters, digits, `_`, `.`, `-`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Clock domain.
    pub clock: Clock,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, clock: Clock, bound: f64) -> Def {
    Def {
        name,
        unit,
        clock,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, clock: Clock, better: Better) -> Def {
    Def {
        name,
        unit,
        clock,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};
use Clock::{Count, Host, Virtual};

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports all of them, measured with tracing off.
#[rustfmt::skip] // one metric per row reads as the table it is
pub const END_TO_END: [Def; 5] = [
    // median host time to make the workload's inputs: synth + formatdb + query sampling + staging + serial oracle
    e2e("setup_s", "s", Host, 0.25),
    // host time of one job, Sim::with_pool to report bytes in hand, tracing off, fresh child process per rep: the fastest rep
    e2e("host_wall_s", "s", Host, 0.25),
    // smallest peak resident set (VmHWM) of the job's child process over the reps
    e2e("host_peak_rss_mb", "MiB", Host, 0.10),
    // DES makespan of the job (stream makespan for serve); identical across reps and traced/untraced
    e2e("virt_total_s", "s", Virtual, 0.005),
    // virt_total_s minus the SEARCH share of the critical path: the paper's headline quantity
    e2e("virt_nonsearch_s", "s", Virtual, 0.005),
];

/// Per-layer metrics, prefix = crate. Source T: the traced run and the
/// run's own counters (virtual/count, exact). Source P: a layer probe
/// replaying the layer's share of the job through public functions (host).
#[rustfmt::skip] // one metric per row reads as the table it is
pub const PER_LAYER: [Def; 70] = [
    // blast-core
    layer("blast-core.prepare_us_per_call", "us/call", Host, Lower), // P: PreparedQueries::prepare on the workload's queries
    layer("blast-core.search_ns_per_residue", "ns/residue", Host, Lower), // P: BlastSearcher::search over the workload's virtual fragments, serially
    layer("blast-core.ungapped_ns_per_call", "ns/call", Host, Lower), // P: extend::ungapped_xdrop on query/subject pairs drawn from the search probe's hits
    layer("blast-core.gapped_us_per_call", "us/call", Host, Lower), // P: extend::gapped_xdrop on the same pairs
    layer("blast-core.banded_us_per_call", "us/call", Host, Lower), // P: extend::banded_global traceback on the same pairs
    layer("blast-core.format_mb_per_s", "MB/s", Host, Higher), // P: format::alignment_record over every hit of every fragment, as the workers' result caches do
    layer("blast-core.host_share", "ratio", Host, Lower), // P: (search + format probe seconds, format scaled to the bytes the job formats) / host_wall_s
    layer("blast-core.prepare_share", "ratio", Host, Lower), // P: prepare seconds x ranks / host_wall_s (every rank prepares each query set)
    layer("blast-core.residues", "count", Count, Lower), // T: subject residues scanned, all ranks
    layer("blast-core.seed_hits", "count", Count, Lower), // T: lookup-table seed hits
    layer("blast-core.ungapped_ext", "count", Count, Lower), // T: ungapped extensions
    layer("blast-core.gapped_ext", "count", Count, Lower), // T: gapped extensions
    layer("blast-core.hsps_kept", "count", Count, Higher), // T: HSPs surviving all filters
    layer("blast-core.gapped_per_ungapped", "ratio", Count, Higher), // T: useful work: gapped extensions per ungapped extension
    layer("blast-core.kept_per_gapped", "ratio", Count, Higher), // T: useful work: HSPs kept per gapped extension
    // seqfmt
    layer("seqfmt.synth_mb_per_s", "MB/s", Host, Higher), // P: synth::generate residues per second (from set-up)
    layer("seqfmt.formatdb_mb_per_s", "MB/s", Host, Higher), // P: format_records residues per second (from set-up)
    layer("seqfmt.decode_mb_per_s", "MB/s", Host, Higher), // P: FragmentData::from_volume_slice over every virtual fragment
    layer("seqfmt.partition_us", "us", Host, Lower), // P: virtual_fragments at the workload's fragment count
    // simcluster
    layer("simcluster.events", "count", Count, Lower), // T: events the DES scheduler processed
    layer("simcluster.dispatch_ns_per_event", "ns/event", Host, Lower), // P: ranks x K charge() yields at the workload's rank count, pool 2
    layer("simcluster.spawn_us_per_rank", "us/rank", Host, Lower), // P: Sim::with_pool(n, 2).run of an empty body
    layer("simcluster.fiber_switch_ns", "ns", Host, Lower), // P: Fiber::resume / suspend round trip
    layer("simcluster.host_share", "ratio", Host, Lower), // P: events x dispatch / host_wall_s
    // mpisim
    layer("mpisim.messages", "count", Count, Lower), // T: messages posted
    layer("mpisim.message_bytes", "bytes", Count, Lower), // T: payload bytes posted
    layer("mpisim.virt_wait_s", "s", Virtual, Lower), // T: Net-lane busy time per rank, mean
    layer("mpisim.p2p_ns_per_msg", "ns/msg", Host, Lower), // P: two-rank ping-pong through Comm
    layer("mpisim.bcast_us_per_call", "us/call", Host, Lower), // P: Comm::bcast at the workload's rank count
    // parafs
    layer("parafs.read_ops", "count", Count, Lower), // T: file-system reads begun, all tiers
    layer("parafs.read_bytes", "bytes", Count, Lower), // T: bytes read, shared + local tiers
    layer("parafs.write_ops", "count", Count, Lower), // T: file-system writes begun, all tiers
    layer("parafs.write_bytes", "bytes", Count, Lower), // T: bytes written, shared + local tiers
    layer("parafs.class.independent_reqs", "count", Count, Lower), // T: shared-fs requests issued as independent I/O
    layer("parafs.class.sieve_reqs", "count", Count, Lower), // T: shared-fs requests issued as data-sieved I/O
    layer("parafs.class.two_phase_reqs", "count", Count, Lower), // T: shared-fs requests issued as two-phase collective I/O
    layer("parafs.virt_io_s", "s", Virtual, Lower), // T: Io-lane busy time, the busiest rank
    layer("parafs.op_host_ns", "ns/op", Host, Lower), // P: 16 ranks contending 64 KiB read_at
    // mpiio
    layer("mpiio.plane_reads", "count", Count, Lower), // T: I/O-plane read requests (sync + async)
    layer("mpiio.plane_writes", "count", Count, Lower), // T: I/O-plane write requests (sync + async)
    layer("mpiio.ckpt_puts", "count", Count, Lower), // T: checkpoint puts
    layer("mpiio.virt_write_s", "s", Virtual, Lower), // T: time inside plane write requests, the busiest rank
    layer("mpiio.flatten_ns_per_region", "ns/region", Host, Lower), // P: FileView::new + absolute over 10k regions
    layer("mpiio.two_phase_host_mb_per_s", "MB/s", Host, Higher), // P: write_at_all of a report-sized layout on the workload's rank count
    // burstfs
    layer("burstfs.staged_bytes", "bytes", Count, Lower), // T: bytes absorbed by staging volumes
    layer("burstfs.backpressure", "count", Count, Lower), // T: puts refused with StagingFull
    layer("burstfs.drain_virt_s", "s", Virtual, Lower), // T: time ranks spent fenced on drains, summed
    layer("burstfs.put_host_ns_per_kb", "ns/KiB", Host, Lower), // P: StagingStore::put host cost
    // app (pioblast or mpiblast, whichever the workload runs)
    layer("app.virt_input_s", "s", Virtual, Lower), // T: critical-path time in copy + input
    layer("app.virt_search_s", "s", Virtual, Lower), // T: critical-path time in search
    layer("app.virt_output_s", "s", Virtual, Lower), // T: critical-path time in output
    layer("app.virt_other_s", "s", Virtual, Lower), // T: critical-path time in everything else; the four sum to virt_total_s
    layer("app.search_imbalance", "ratio", Virtual, Lower), // T: max / mean per-worker search busy time
    layer("app.grants", "count", Count, Lower), // T: fragment grants
    layer("app.submissions", "count", Count, Lower), // T: result submissions the master handled
    layer("app.requeues", "count", Count, Lower), // T: fragments requeued after a death
    layer("app.epochs", "count", Count, Lower), // T: protocol epochs started
    layer("app.cache_hit_ratio", "ratio", Count, Higher), // T: resident-store hits / grants (serve only, else 0)
    layer("app.service_queries_per_virt_s", "1/s", Virtual, Higher), // T: stream batches completed per virtual second (serve only, else 0)
    layer("app.service_p50_virt_s", "s", Virtual, Lower), // T: median admission-to-seal latency (serve only, else 0)
    layer("app.merge_ns_per_item", "ns/item", Host, Lower), // P: pioblast::merge::merge_and_layout
    // tracelog
    layer("tracelog.events", "count", Count, Lower), // T: events in the merged trace
    layer("tracelog.dropped", "count", Count, Lower), // T: events the ring buffers dropped (must be 0)
    layer("tracelog.emit_ns_per_event", "ns/event", Host, Lower), // P: one instant through an installed tracer
    layer("tracelog.export_mb_per_s", "MB/s", Host, Higher), // P: chrome::export_chrome of the run's trace
    layer("tracelog.run_overhead_pct", "%", Host, Lower), // P: traced host wall vs host_wall_s
    // model calibration (mpiblast::model): measured host seconds / modeled seconds
    layer("mpiblast.calib.search_ratio", "ratio", Host, Lower), // P: search probe seconds / seconds ModelParams charges for the same counts
    layer("mpiblast.calib.format_ratio", "ratio", Host, Lower), // P: format probe seconds / modeled seconds for the same bytes
    layer("mpiblast.calib.prepare_ratio", "ratio", Host, Lower), // P: prepare probe seconds / modeled seconds for the same residues
    // the harness itself
    layer("bench.residual_pct", "%", Host, Lower), // P: share of host_wall_s the probe budget does not explain
];

/// Whether `name` is a legal metric name: starts with a letter or digit,
/// at most 64 of letters, digits, `_`, `.`, `-`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1..=16 of letters, digits, `_`, `/`,
/// `%`, `.`, `-`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The definition of `name`, end-to-end or per-layer.
pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// Measured values, by metric name, in registry order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Record `value` for `name`. Panics on a name the registry does not
    /// define or a value recorded twice — both are harness bugs.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = find(name).unwrap_or_else(|| panic!("metric `{name}` is not in the registry"));
        assert!(self.get(name).is_none(), "metric `{name}` recorded twice");
        self.0.push((def.name, value));
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Every `(definition, value)` of `defs`, in registry order. Panics
    /// if one is missing: every workload reports every metric.
    pub fn in_order(&self, defs: &'static [Def]) -> Vec<(&'static Def, f64)> {
        defs.iter()
            .map(|d| {
                let v = self
                    .get(d.name)
                    .unwrap_or_else(|| panic!("metric `{}` was not measured", d.name));
                (d, v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validator_accepts_only_the_contract_alphabet() {
        for ok in [
            "host_wall_s",
            "blast-core.search_ns_per_residue",
            "a",
            "9lives",
            "x-1.y_2",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            ".hidden",
            "-dash",
            "_under",
            "has space",
            "slash/no",
            "pct%",
            "é",
            &long,
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn unit_validator_accepts_only_the_contract_alphabet() {
        for ok in ["s", "ms", "1/s", "count", "%", "MB/s", "ns/residue", "MiB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "per second", "this_unit_is_far_too_long", "µs"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn registry_names_and_units_are_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{}: {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} defined twice", d.name);
        }
        for d in &END_TO_END {
            let b = d.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", d.name);
        }
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn values_keep_registry_order_and_reject_strays() {
        let mut v = Values::default();
        v.set("host_wall_s", 1.5);
        v.set("setup_s", 0.5);
        assert_eq!(v.get("host_wall_s"), Some(1.5));
        assert_eq!(v.get("virt_total_s"), None);
        assert!(std::panic::catch_unwind(|| {
            let mut v = Values::default();
            v.set("no.such.metric", 1.0);
        })
        .is_err());
    }
}
