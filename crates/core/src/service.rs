//! Query-stream service mode: the long-lived BLAST-as-a-service
//! scenario the paper's one-shot runs amortize into.
//!
//! A [`QueryStreamPlan`] is a seeded, deterministic simulation of N
//! users submitting query batches over virtual time. `pioblast serve`
//! feeds the plan into an admission layer on the master: each stream
//! batch becomes one distribute → collect → write cycle of the same
//! runtime protocol, with every fragment re-granted per batch.
//! What makes the stream cheaper than B independent one-shot runs:
//!
//! * workers keep a bounded resident [`FragmentStore`] (LRU by bytes),
//!   so a re-granted fragment whose data is already resident skips the
//!   parafs read entirely and records a `cache.hit` trace instant;
//! * the master's grant queue prefers the fragments a worker held last
//!   (`GrantQueue::grant_to_preferring`), falling back to front-of-queue
//!   work stealing so load balance and Recover-mode requeues still win
//!   over affinity;
//! * the next batch's queries are shipped to workers while the current
//!   batch is still searching, so admission overlaps compute.
//!
//! Each stream batch's report is written to `<output>.q<batch>` and is
//! byte-identical to running that batch as its own one-shot job — the
//! property `tests/service.rs` pins down.

use seqfmt::FragmentData;
use tracelog::{ArgVal, EventKind, Trace};

use crate::fault::PioError;

/// One user's query batch in the stream: who submitted, when, and how
/// many queries of the run's query file it consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamBatch {
    /// Submitting user id (`0..users`).
    pub user: u32,
    /// Virtual arrival time, nanoseconds since run start. The master
    /// admits the batch no earlier than this.
    pub arrival_ns: u64,
    /// Queries consumed from the query file, in file order.
    pub nqueries: usize,
}

/// A deterministic, seeded stream of query batches (arrival-ordered).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryStreamPlan {
    /// The batches, sorted by arrival time.
    pub batches: Vec<StreamBatch>,
}

/// splitmix64: the plan generator's only randomness source — tiny,
/// seedable, and identical everywhere, so a `(seed, shape)` pair names
/// exactly one plan.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl QueryStreamPlan {
    /// Generate a plan: `nbatches` batches from `users` users, jointly
    /// consuming `total_queries` queries, with seeded inter-arrival gaps
    /// averaging `mean_gap_ns`. Deterministic in its arguments. Batch
    /// sizes start from an even split and are jittered (never to zero
    /// while `total_queries >= nbatches`); the first batch arrives at
    /// time zero.
    pub fn generate(
        users: u32,
        nbatches: usize,
        total_queries: usize,
        mean_gap_ns: u64,
        seed: u64,
    ) -> QueryStreamPlan {
        assert!(users >= 1, "a stream needs at least one user");
        assert!(nbatches >= 1, "a stream needs at least one batch");
        let mut rng = seed ^ 0x5157_5354_5245_414D; // "QWSTREAM"
                                                    // Even contiguous split, then a seeded transfer between
                                                    // neighbours for size variety (bounded so no batch empties).
        let mut sizes: Vec<usize> = (0..nbatches)
            .map(|b| total_queries * (b + 1) / nbatches - total_queries * b / nbatches)
            .collect();
        for b in 0..nbatches.saturating_sub(1) {
            let movable = sizes[b].saturating_sub(1);
            let t = (splitmix64(&mut rng) as usize) % (movable / 2 + 1);
            sizes[b] -= t;
            sizes[b + 1] += t;
        }
        let mut arrival = 0u64;
        let batches = sizes
            .into_iter()
            .enumerate()
            .map(|(b, nqueries)| {
                let user = (splitmix64(&mut rng) % users as u64) as u32;
                if b > 0 {
                    // Uniform on [mean/2, 3*mean/2): mean-preserving,
                    // never zero for a nonzero mean.
                    let gap = mean_gap_ns / 2 + splitmix64(&mut rng) % mean_gap_ns.max(1);
                    arrival += gap;
                }
                StreamBatch {
                    user,
                    arrival_ns: arrival,
                    nqueries,
                }
            })
            .collect();
        QueryStreamPlan { batches }
    }

    /// Total queries the plan consumes.
    pub fn total_queries(&self) -> usize {
        self.batches.iter().map(|b| b.nqueries).sum()
    }

    /// Split a query set into the plan's per-batch slices, consuming the
    /// set in file order. The plan must consume the set exactly —
    /// anything else means the plan was generated for a different query
    /// file, which is a typed error, not a truncation.
    pub fn partition<T: Clone>(&self, queries: &[T]) -> Result<Vec<Vec<T>>, PioError> {
        if self.total_queries() != queries.len() {
            return Err(PioError::Protocol(format!(
                "stream plan consumes {} queries but the query set has {}",
                self.total_queries(),
                queries.len()
            )));
        }
        let mut at = 0usize;
        Ok(self
            .batches
            .iter()
            .map(|b| {
                let slice = queries[at..at + b.nqueries].to_vec();
                at += b.nqueries;
                slice
            })
            .collect())
    }
}

/// Service-mode knobs carried on the run configuration.
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// The query stream to serve.
    pub plan: QueryStreamPlan,
    /// Per-worker resident fragment store capacity in bytes
    /// (`--resident-mb`); 0 disables cross-batch residency entirely.
    pub resident_bytes: u64,
    /// Affinity-aware grants (`--affinity`): prefer re-granting a
    /// fragment to the worker that last held it.
    pub affinity: bool,
}

/// A worker's fragment store: every fragment it holds, evicted
/// least-recently-used by data bytes. Service mode bounds it and keeps
/// it across stream batches; a one-shot run's is unbounded (`u64::MAX`).
///
/// `take` removes the entry (the caller searches it, then `insert`s it
/// back, which refreshes recency); eviction happens on insert, oldest
/// first, until the store fits its byte cap. A fragment larger than the
/// whole cap is evicted immediately — a zero cap therefore retains
/// nothing, which is the affinity-off baseline.
#[derive(Debug, Default)]
pub struct FragmentStore {
    cap_bytes: u64,
    bytes: u64,
    /// Front = least recently used, back = most recently used.
    entries: Vec<(usize, FragmentData)>,
}

impl FragmentStore {
    /// An empty store capped at `cap_bytes`.
    pub fn new(cap_bytes: u64) -> FragmentStore {
        FragmentStore {
            cap_bytes,
            bytes: 0,
            entries: Vec::new(),
        }
    }

    /// Is fragment `id` resident?
    pub fn contains(&self, id: usize) -> bool {
        self.entries.iter().any(|(f, _)| *f == id)
    }

    /// Resident fragments with their ids, least recently used first.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &FragmentData)> {
        self.entries.iter().map(|(f, frag)| (*f, frag))
    }

    /// Remove and return fragment `id`'s data, if resident.
    pub fn take(&mut self, id: usize) -> Option<FragmentData> {
        let pos = self.entries.iter().position(|(f, _)| *f == id)?;
        let (_, frag) = self.entries.remove(pos);
        self.bytes -= frag.data_bytes();
        Some(frag)
    }

    /// Insert (or refresh) fragment `id` as most recently used, then
    /// evict LRU-first until the store fits its cap. Returns the evicted
    /// fragment ids (which may include `id` itself when it alone
    /// exceeds the cap).
    pub fn insert(&mut self, id: usize, frag: FragmentData) -> Vec<usize> {
        if let Some(pos) = self.entries.iter().position(|(f, _)| *f == id) {
            let (_, old) = self.entries.remove(pos);
            self.bytes -= old.data_bytes();
        }
        self.bytes += frag.data_bytes();
        self.entries.push((id, frag));
        let mut evicted = Vec::new();
        while self.bytes > self.cap_bytes && !self.entries.is_empty() {
            let (f, old) = self.entries.remove(0);
            self.bytes -= old.data_bytes();
            evicted.push(f);
        }
        evicted
    }

    /// Resident data bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Resident fragment count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Service-level metrics derived from a run's merged trace: throughput,
/// per-query (per stream batch) latency percentiles, and the resident
/// store's hit rate.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceMetrics {
    /// Completed stream batches (one "query" each, in the service sense).
    pub queries: usize,
    /// Virtual wall clock of the run, seconds.
    pub wall_s: f64,
    /// Completed stream batches per virtual second.
    pub queries_per_sec: f64,
    /// Median admission-to-seal latency, seconds.
    pub p50_latency_s: f64,
    /// 99th-percentile admission-to-seal latency, seconds.
    pub p99_latency_s: f64,
    /// Fragment grants served from the resident store.
    pub cache_hits: u64,
    /// Fragment grants that had to read from the file system.
    pub cache_misses: u64,
}

impl ServiceMetrics {
    /// Derive metrics from a merged trace: `service.done` instants carry
    /// each stream batch's latency; `cache.hit`/`cache.miss` instants
    /// tally the resident store.
    pub fn from_trace(trace: &Trace) -> ServiceMetrics {
        let mut latencies_ns: Vec<u64> = Vec::new();
        let mut hits = 0u64;
        let mut misses = 0u64;
        for e in &trace.events {
            if e.kind != EventKind::Instant {
                continue;
            }
            match &*e.name {
                "service.done" => {
                    let lat = e
                        .args
                        .iter()
                        .find(|(k, _)| *k == "latency_ns")
                        .and_then(|(_, v)| match v {
                            ArgVal::U64(n) => Some(*n),
                            ArgVal::Str(_) => None,
                        })
                        .unwrap_or(0);
                    latencies_ns.push(lat);
                }
                "cache.hit" => hits += 1,
                "cache.miss" => misses += 1,
                _ => {}
            }
        }
        latencies_ns.sort_unstable();
        let pct = |q: f64| -> f64 {
            if latencies_ns.is_empty() {
                return 0.0;
            }
            let idx = ((latencies_ns.len() - 1) as f64 * q).round() as usize;
            latencies_ns[idx] as f64 / 1e9
        };
        let wall_s = trace.wall as f64 / 1e9;
        let queries = latencies_ns.len();
        ServiceMetrics {
            queries,
            wall_s,
            queries_per_sec: if wall_s > 0.0 {
                queries as f64 / wall_s
            } else {
                0.0
            },
            p50_latency_s: pct(0.50),
            p99_latency_s: pct(0.99),
            cache_hits: hits,
            cache_misses: misses,
        }
    }

    /// Resident-store hit rate over all fragment grants (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqfmt::formatdb::{format_records, FormatDbConfig};
    use seqfmt::synth::{generate, SynthConfig};

    fn frags(n: usize) -> Vec<FragmentData> {
        let recs = generate(&SynthConfig::nr_like(4 * n as u64, 2_000 * n as u64));
        let db = format_records(&recs, &FormatDbConfig::protein("store-test"));
        let index_refs = vec![&db.volumes[0].index];
        seqfmt::virtual_fragments(&index_refs, n)
            .into_iter()
            .map(|spec| FragmentData::from_volume_slice(&db.volumes[0], &spec))
            .collect()
    }

    #[test]
    fn plans_are_deterministic_and_partition_exactly() {
        let a = QueryStreamPlan::generate(3, 8, 40, 1_000_000, 42);
        let b = QueryStreamPlan::generate(3, 8, 40, 1_000_000, 42);
        assert_eq!(a, b, "same seed, same plan");
        let c = QueryStreamPlan::generate(3, 8, 40, 1_000_000, 43);
        assert_ne!(a, c, "different seed, different plan");
        assert_eq!(a.total_queries(), 40);
        assert_eq!(a.batches[0].arrival_ns, 0);
        for w in a.batches.windows(2) {
            assert!(w[0].arrival_ns < w[1].arrival_ns, "arrivals ascend");
        }
        for batch in &a.batches {
            assert!(batch.nqueries >= 1, "jitter never empties a batch");
            assert!(batch.user < 3);
        }
        let queries: Vec<usize> = (0..40).collect();
        let parts = a.partition(&queries).unwrap();
        assert_eq!(parts.len(), 8);
        let flat: Vec<usize> = parts.into_iter().flatten().collect();
        assert_eq!(flat, queries, "partition consumes the set in order");
        // Wrong-size query sets are a typed error.
        assert!(matches!(
            a.partition(&queries[..39]),
            Err(PioError::Protocol(_))
        ));
    }

    #[test]
    fn store_evicts_least_recently_used_by_bytes() {
        let data = frags(4);
        let one = data[0].data_bytes();
        // Every synthetic fragment is within ~2x of its siblings; cap
        // the store at two median fragments.
        let cap: u64 = data.iter().map(|f| f.data_bytes()).sum::<u64>() / 2;
        let mut store = FragmentStore::new(cap);
        assert!(store.is_empty());
        let mut evicted_total = Vec::new();
        for (i, f) in data.iter().enumerate() {
            evicted_total.extend(store.insert(i, f.clone()));
        }
        assert!(store.bytes() <= cap);
        assert!(!store.contains(evicted_total[0]), "evictions left");
        // The most recent insert survives.
        assert!(store.contains(3));
        // take removes; re-insert refreshes recency.
        let f3 = store.take(3).expect("resident");
        assert!(!store.contains(3));
        store.insert(3, f3);
        let ids = |store: &FragmentStore| store.iter().map(|(id, _)| id).collect::<Vec<_>>();
        assert_eq!(*ids(&store).last().unwrap(), 3, "re-insert is most recent");
        // Eviction order is LRU-first: fill until something evicts and
        // check it was the front entry.
        let before = ids(&store);
        let evicted = store.insert(0, data[0].clone());
        for e in &evicted {
            assert!(
                before.first() == Some(e) || !before.contains(e) || *e == 0,
                "evicted {e} was not the LRU of {before:?}"
            );
        }
        // A zero-cap store retains nothing.
        let mut none = FragmentStore::new(0);
        let evicted = none.insert(7, data[1].clone());
        assert_eq!(evicted, vec![7]);
        assert!(none.is_empty());
        assert_eq!(none.bytes(), 0);
        let _ = one;
    }

    #[test]
    fn metrics_read_service_and_cache_instants() {
        use std::borrow::Cow;
        use tracelog::{Event, Lane};
        let mk = |t: u64, name: &'static str, args: Vec<(&'static str, ArgVal)>| Event {
            t,
            rank: 0,
            seq: t,
            lane: Lane::Runtime,
            kind: EventKind::Instant,
            name: Cow::Borrowed(name),
            args,
        };
        let trace = Trace {
            nranks: 2,
            wall: 4_000_000_000,
            events: vec![
                mk(
                    1_000,
                    "service.done",
                    vec![
                        ("query", 0u64.into()),
                        ("latency_ns", 1_000_000_000u64.into()),
                    ],
                ),
                mk(
                    2_000,
                    "service.done",
                    vec![
                        ("query", 1u64.into()),
                        ("latency_ns", 3_000_000_000u64.into()),
                    ],
                ),
                mk(10, "cache.hit", Vec::new()),
                mk(11, "cache.hit", Vec::new()),
                mk(12, "cache.hit", Vec::new()),
                mk(13, "cache.miss", Vec::new()),
            ],
            dropped: 0,
        };
        let m = ServiceMetrics::from_trace(&trace);
        assert_eq!(m.queries, 2);
        assert_eq!(m.cache_hits, 3);
        assert_eq!(m.cache_misses, 1);
        assert!((m.hit_rate() - 0.75).abs() < 1e-9);
        assert!((m.queries_per_sec - 0.5).abs() < 1e-9);
        assert!((m.p50_latency_s - 1.0).abs() < 1e-9 || (m.p50_latency_s - 3.0).abs() < 1e-9);
        assert!((m.p99_latency_s - 3.0).abs() < 1e-9);
    }
}
