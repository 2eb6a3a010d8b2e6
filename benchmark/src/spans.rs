//! The harness's own host-clock spans: one per set-up stage, job,
//! verification, trace export and probe. Held in memory and written out
//! when the run ends (`out/<workload>.spans.json`).

use std::time::Instant;

use crate::json::Json;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: Option<u64>,
    parent: Option<usize>,
}

/// An in-memory span log for one workload.
pub struct Spans {
    epoch: Instant,
    workload: String,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty log; timestamps count from now.
    pub fn new(workload: &str) -> Spans {
        Spans {
            epoch: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: None,
            parent,
        });
        self.spans.len() - 1
    }

    /// Close a span; returns its duration in host seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = Some(end);
        (end - span.start_ns) as f64 / 1e9
    }

    /// Time `f` under a span.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }

    /// The log as JSON: every span with name, start, end, parent and the
    /// workload id. A span still open is closed at the time of export.
    pub fn to_json(&self) -> Json {
        let now = self.now_ns();
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj(vec![
                        ("id", Json::Num(id as f64)),
                        ("workload", Json::Str(self.workload.clone())),
                        ("name", Json::Str(s.name.clone())),
                        ("clock", Json::Str("host".into())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns.unwrap_or(now) as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}
