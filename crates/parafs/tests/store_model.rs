//! The store's equivalence bar: random operation sequences — and the
//! write patterns the workloads produce — driven through the extent
//! store and through the dense `FileStore` it replaced, kept verbatim
//! below as the reference model. After every operation both must hold
//! the same bytes, lengths and totals and return the same errors; and
//! every read taken earlier must still hold what it read.

use bytes::Bytes;
use parafs::{FileStore, Run, StripeMap};
use proptest::prelude::*;

// The parent commit's dense store, verbatim: every file one `Vec<u8>`,
// zero-padded up to each write's offset.
mod dense {
    //! The in-memory object store backing a simulated file system.
    #![allow(dead_code)]

    use std::collections::BTreeMap;

    /// A flat namespace of files (paths are plain strings; `/`-separated
    /// prefixes act as directories for listing purposes).
    #[derive(Debug, Default, Clone)]
    pub struct FileStore {
        files: BTreeMap<String, Vec<u8>>,
    }

    /// Errors from store operations.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum StoreError {
        /// The named file does not exist.
        NotFound {
            /// The requested path.
            path: String,
        },
        /// A ranged read fell outside the file.
        OutOfRange {
            /// The requested path.
            path: String,
            /// Requested offset.
            offset: u64,
            /// Requested length.
            len: u64,
            /// Actual file size.
            size: u64,
        },
        /// A write would grow the file system past its configured capacity
        /// (see [`crate::fs::SimFs::set_capacity`]). The write did not land.
        NoSpace {
            /// The path being written.
            path: String,
            /// Bytes the write would have added.
            needed: u64,
            /// Bytes still free under the capacity.
            free: u64,
        },
        /// Bytes that should decode as a known on-disk or on-wire structure
        /// did not (produced by layers above the store, e.g. the I/O plane's
        /// view-bundle decoder).
        Corrupt {
            /// What failed to decode.
            what: String,
        },
    }

    impl std::fmt::Display for StoreError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                StoreError::NotFound { path } => write!(f, "file not found: {path}"),
                StoreError::OutOfRange {
                    path,
                    offset,
                    len,
                    size,
                } => write!(
                    f,
                    "read [{offset}, {offset}+{len}) out of range for {path} (size {size})"
                ),
                StoreError::NoSpace { path, needed, free } => write!(
                    f,
                    "file system full writing {path} (needs {needed} more bytes, {free} free)"
                ),
                StoreError::Corrupt { what } => write!(f, "corrupt data: {what}"),
            }
        }
    }

    impl std::error::Error for StoreError {}

    impl FileStore {
        /// An empty store.
        pub fn new() -> FileStore {
            FileStore::default()
        }

        /// Create or truncate a file.
        pub fn create(&mut self, path: &str) {
            self.files.insert(path.to_string(), Vec::new());
        }

        /// Replace a file's entire contents.
        pub fn put(&mut self, path: &str, data: Vec<u8>) {
            self.files.insert(path.to_string(), data);
        }

        /// Whether the file exists.
        pub fn exists(&self, path: &str) -> bool {
            self.files.contains_key(path)
        }

        /// File size, if it exists.
        pub fn len(&self, path: &str) -> Option<u64> {
            self.files.get(path).map(|d| d.len() as u64)
        }

        /// Whether the store holds no files.
        pub fn is_empty(&self) -> bool {
            self.files.is_empty()
        }

        /// Read `len` bytes at `offset`.
        pub fn read_at(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
            let data = self.files.get(path).ok_or_else(|| StoreError::NotFound {
                path: path.to_string(),
            })?;
            let end = offset
                .checked_add(len)
                .filter(|&e| e <= data.len() as u64)
                .ok_or_else(|| StoreError::OutOfRange {
                    path: path.to_string(),
                    offset,
                    len,
                    size: data.len() as u64,
                })?;
            Ok(data[offset as usize..end as usize].to_vec())
        }

        /// Read a whole file.
        pub fn read_all(&self, path: &str) -> Result<Vec<u8>, StoreError> {
            self.files
                .get(path)
                .cloned()
                .ok_or_else(|| StoreError::NotFound {
                    path: path.to_string(),
                })
        }

        /// Write at `offset`, zero-padding any gap and extending as needed.
        /// Creates the file if absent (like O_CREAT).
        pub fn write_at(&mut self, path: &str, offset: u64, data: &[u8]) {
            let file = self.files.entry(path.to_string()).or_default();
            let end = offset as usize + data.len();
            if file.len() < end {
                file.resize(end, 0);
            }
            file[offset as usize..end].copy_from_slice(data);
        }

        /// Delete a file.
        pub fn delete(&mut self, path: &str) -> Result<(), StoreError> {
            self.files
                .remove(path)
                .map(|_| ())
                .ok_or_else(|| StoreError::NotFound {
                    path: path.to_string(),
                })
        }

        /// Paths starting with `prefix`, in lexicographic order.
        pub fn list_prefix(&self, prefix: &str) -> Vec<String> {
            self.files
                .range(prefix.to_string()..)
                .take_while(|(k, _)| k.starts_with(prefix))
                .map(|(k, _)| k.clone())
                .collect()
        }

        /// Total bytes stored.
        pub fn total_bytes(&self) -> u64 {
            self.files.values().map(|d| d.len() as u64).sum()
        }
    }
}

const PATHS: [&str; 3] = ["out/report", "out/report.s1", "ckpt.b0.f0"];

/// One store operation. Written bytes are views of one shared buffer at
/// `src`, so stored extents alias each other's allocations.
#[derive(Debug, Clone)]
enum Op {
    Create(usize),
    Put(usize, u64, usize),
    WriteAt(usize, u64, u64, usize),
    ReadAt(usize, u64, u64),
    ReadAll(usize),
    Delete(usize),
    List(&'static str),
}

fn arb_op() -> impl Strategy<Value = Op> {
    (
        0u8..12,
        0usize..PATHS.len(),
        0u64..160,
        0u64..48,
        0usize..64,
    )
        .prop_map(|(kind, p, off, len, src)| match kind {
            0 => Op::Create(p),
            1 => Op::Put(p, len, src),
            // Writes dominate: overlapping, adjacent, past EOF with a
            // hole, zero-length past EOF.
            2..=6 => Op::WriteAt(p, off, len, src),
            7 | 8 => Op::ReadAt(p, off, len),
            9 => Op::ReadAll(p),
            10 => Op::Delete(p),
            _ => Op::List(["out/", "ckpt", ""][src % 3]),
        })
}

/// Both stores side by side, plus every read taken so far.
struct Pair {
    sparse: FileStore,
    dense: dense::FileStore,
    /// The bytes every write is cut from: byte `i` is `i % 251`, offset
    /// by a generation so rewrites differ from what they overwrite.
    source: Bytes,
    held: Vec<(Bytes, Vec<u8>)>,
}

impl Pair {
    fn new() -> Pair {
        Pair {
            sparse: FileStore::new(),
            dense: dense::FileStore::new(),
            source: Bytes::from((0..4096u32).map(|i| (i % 251) as u8).collect::<Vec<u8>>()),
            held: Vec::new(),
        }
    }

    fn data(&self, src: usize, len: u64) -> Bytes {
        self.source.slice(src..src + len as usize)
    }

    fn write_at(&mut self, path: &str, offset: u64, data: Bytes) {
        self.dense.write_at(path, offset, &data);
        self.sparse.write_at(path, offset, data);
    }

    /// One write of several pieces: each `(back, len, src)` piece starts
    /// `back` bytes before the end of the ones before it (overlapping
    /// them when `back > 0`), so the run has no hole. The dense store
    /// writes the pieces one by one, in order.
    fn write_run(&mut self, path: &str, offset: u64, pieces: &[(u64, u64, usize)]) {
        let mut run = Run::default();
        for &(back, len, src) in pieces {
            let at = run.len().saturating_sub(back);
            let data = self.data(src, len);
            self.dense.write_at(path, offset + at, &data);
            run.push(at, data);
        }
        self.sparse.write_at(path, offset, run);
    }

    fn put(&mut self, path: &str, data: Bytes) {
        self.dense.put(path, data.to_vec());
        self.sparse.put(path, data);
    }

    fn read_at(&mut self, path: &str, offset: u64, len: u64) -> Result<(), TestCaseError> {
        let want = self
            .dense
            .read_at(path, offset, len)
            .map_err(|e| format!("{e:?}"));
        let got = self
            .sparse
            .read_at(path, offset, len)
            .map_err(|e| format!("{e:?}"));
        prop_assert_eq!(got.clone().map(|b| b.to_vec()), want.clone());
        // The same range as a run of views: the drain's read.
        let run = self.sparse.read_run_at(path, offset, len);
        prop_assert_eq!(run.map(|r| r.to_vec()).ok(), want.clone().ok());
        if let (Ok(got), Ok(want)) = (got, want) {
            self.held.push((got, want));
        }
        Ok(())
    }

    fn apply(&mut self, op: &Op) -> Result<(), TestCaseError> {
        match *op {
            Op::Create(p) => {
                self.dense.create(PATHS[p]);
                self.sparse.create(PATHS[p]);
            }
            Op::Put(p, len, src) => self.put(PATHS[p], self.data(src, len)),
            Op::WriteAt(p, off, len, src) => self.write_at(PATHS[p], off, self.data(src, len)),
            Op::ReadAt(p, off, len) => self.read_at(PATHS[p], off, len)?,
            Op::ReadAll(p) => {
                let want = self.dense.read_all(PATHS[p]).map_err(|e| format!("{e:?}"));
                let got = self.sparse.read_all(PATHS[p]).map_err(|e| format!("{e:?}"));
                prop_assert_eq!(got.map(|b| b.to_vec()), want);
            }
            Op::Delete(p) => {
                let want = self.dense.delete(PATHS[p]).map_err(|e| format!("{e:?}"));
                let got = self.sparse.delete(PATHS[p]).map_err(|e| format!("{e:?}"));
                prop_assert_eq!(got, want);
            }
            Op::List(prefix) => {
                prop_assert_eq!(
                    self.sparse.list_prefix(prefix),
                    self.dense.list_prefix(prefix)
                );
            }
        }
        self.check()
    }

    /// Same files, lengths, bytes and total — a hole reads as the zeros
    /// the dense store padded it with — and every held read unchanged.
    fn check(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.sparse.total_bytes(), self.dense.total_bytes());
        prop_assert_eq!(self.sparse.is_empty(), self.dense.is_empty());
        for path in PATHS {
            prop_assert_eq!(self.sparse.exists(path), self.dense.exists(path));
            prop_assert_eq!(self.sparse.len(path), self.dense.len(path));
            let want = self.dense.read_all(path).ok();
            prop_assert_eq!(
                self.sparse.read_all(path).ok().map(|b| b.to_vec()),
                want.clone()
            );
            let copied = self
                .sparse
                .len(path)
                .map(|len| self.sparse.copy_at(path, 0, len));
            prop_assert_eq!(copied.and_then(Result::ok), want);
        }
        for (got, want) in &self.held {
            prop_assert_eq!(&got[..], &want[..], "a read changed under a later write");
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random sequences of every operation.
    #[test]
    fn random_operations_match_the_dense_store(ops in prop::collection::vec(arb_op(), 1..48)) {
        let mut pair = Pair::new();
        for op in &ops {
            pair.apply(op)?;
        }
    }

    /// The burst tier's staged stripe files: each record at its
    /// destination offset, striped four wide, lands near `offset / 4` in
    /// each stripe file, with holes up to where the rank's first record
    /// went. Then a drain-style reassembly reads every record back.
    #[test]
    fn staged_stripe_runs_match(
        records in prop::collection::vec((0u64..4000, 1u64..300), 1..12),
        unit in 1u64..64,
    ) {
        let mut pair = Pair::new();
        let map = StripeMap::new(4, unit);
        for &(offset, len) in &records {
            for e in map.extents(offset, len) {
                let path = StripeMap::stripe_path("out/report", e.file);
                let data = pair.data((offset % 512) as usize, e.len);
                pair.write_at(&path, e.file_offset, data);
                pair.check()?;
            }
            for c in map.chunks(offset, len) {
                pair.read_at(&StripeMap::stripe_path("out/report", c.file), c.file_offset, c.len)?;
            }
        }
    }

    /// Two-phase aggregators: the report's extent cut into contiguous
    /// domains, each written as one or a few runs, domains landing in
    /// any order.
    #[test]
    fn two_phase_domains_match(
        cuts in prop::collection::vec(1u64..400, 1..8),
        order in prop::collection::vec(0usize..64, 8),
        split in any::<bool>(),
    ) {
        let mut pair = Pair::new();
        let mut domains = Vec::new();
        let mut at = 0u64;
        for len in cuts {
            domains.push((at, len));
            at += len;
        }
        let n = domains.len();
        for (i, &k) in order.iter().enumerate().take(n) {
            domains.swap(i, k % n);
        }
        for (i, (off, len)) in domains.into_iter().enumerate() {
            let runs = if split && len > 1 {
                vec![(off, len / 2), (off + len / 2, len - len / 2)]
            } else {
                vec![(off, len)]
            };
            for (o, l) in runs {
                pair.write_at("out/report", o, pair.data(i * 7, l));
                pair.check()?;
            }
        }
        pair.read_at("out/report", 0, at)?;
    }

    /// `serve`'s per-record independent writes: scattered records into a
    /// created stream report, then the master's sections around them,
    /// then a rewrite of some records as a recovery epoch would.
    #[test]
    fn per_record_writes_match(
        records in prop::collection::vec((0u64..2000, 1u64..120), 1..24),
        rewrite in prop::collection::vec(any::<bool>(), 24),
    ) {
        let mut pair = Pair::new();
        pair.dense.create("out/report.q0");
        pair.sparse.create("out/report.q0");
        for (i, &(off, len)) in records.iter().enumerate() {
            pair.write_at("out/report.q0", off, pair.data(i, len));
            pair.check()?;
        }
        pair.write_at("out/report.q0", 0, pair.data(300, 40));
        for (i, &(off, len)) in records.iter().enumerate() {
            if rewrite[i] {
                pair.write_at("out/report.q0", off, pair.data(100 + i, len));
                pair.check()?;
            }
        }
    }

    /// Multi-piece runs — scattered records handed over as one payload,
    /// an aggregator's domain of several ranks' chunks, a drain of
    /// stripe chunks — overlapping, adjacent and zero-length pieces
    /// included, between random single-buffer operations: the same
    /// bytes as writing the pieces one by one.
    #[test]
    fn multi_piece_runs_match_the_dense_store(
        steps in prop::collection::vec(
            (
                arb_op(),
                (0usize..PATHS.len(), 0u64..160),
                prop::collection::vec((0u64..24, 0u64..24, 0usize..64), 1..6),
            ),
            1..24,
        ),
    ) {
        let mut pair = Pair::new();
        for (op, (p, offset), pieces) in &steps {
            pair.apply(op)?;
            pair.write_run(PATHS[*p], *offset, pieces);
            pair.check()?;
            let len = pieces.iter().map(|&(_, l, _)| l).sum::<u64>().min(40);
            pair.read_at(PATHS[*p], *offset, len)?;
        }
    }

    /// Whole-blob checkpoint puts: `put`, and the plane's create-then-
    /// write of a blob, replacing longer and shorter blobs.
    #[test]
    fn checkpoint_puts_match(blobs in prop::collection::vec((0u64..600, any::<bool>()), 1..10)) {
        let mut pair = Pair::new();
        for (i, &(len, via_create)) in blobs.iter().enumerate() {
            let blob = pair.data(i * 11, len);
            if via_create {
                pair.dense.create("ckpt.b0.f0");
                pair.sparse.create("ckpt.b0.f0");
                pair.write_at("ckpt.b0.f0", 0, blob);
            } else {
                pair.put("ckpt.b0.f0", blob);
            }
            pair.check()?;
            pair.read_at("ckpt.b0.f0", 0, len)?;
        }
    }
}

#[test]
fn the_named_write_cases_match() {
    let mut pair = Pair::new();
    let ops = [
        Op::WriteAt(0, 10, 5, 0),  // past EOF with a hole
        Op::WriteAt(0, 15, 5, 9),  // adjacent
        Op::WriteAt(0, 12, 6, 30), // overlapping both
        Op::WriteAt(0, 40, 0, 0),  // zero-length past EOF extends
        Op::WriteAt(1, 7, 0, 0),   // and creates
        Op::ReadAt(0, 8, 14),      // across extents and a hole
        Op::ReadAt(0, 20, 20),     // all hole
        Op::ReadAt(0, 12, 6),      // inside one extent
        Op::ReadAt(0, 30, 11),     // out of range
        Op::WriteAt(0, 0, 40, 50), // covers everything
        Op::ReadAll(0),
        Op::Delete(1),
        Op::Delete(1),
        Op::List("out/"),
    ];
    for op in &ops {
        pair.apply(op).unwrap_or_else(|e| panic!("{op:?}: {e:?}"));
    }
    // Runs: adjacent pieces; a later piece over an earlier one; a piece
    // over two; a zero-length piece; one past EOF, leaving a hole.
    pair.write_run(PATHS[0], 4, &[(0, 6, 0), (0, 6, 100), (3, 2, 200)]);
    pair.write_run(PATHS[0], 30, &[(0, 8, 7), (0, 0, 9), (8, 12, 300)]);
    pair.write_run(PATHS[2], 60, &[(0, 5, 1)]);
    pair.check().unwrap();
    for (p, offset, len) in [(0, 0, 50), (0, 8, 6), (2, 50, 15)] {
        pair.read_at(PATHS[p], offset, len).unwrap();
    }
}
