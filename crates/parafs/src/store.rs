//! The in-memory object store backing a simulated file system.
//!
//! A file is its logical length plus sorted, disjoint extents of
//! immutable [`Bytes`]: a write inserts each piece of its [`Run`] as an
//! extent and trims the extents it overlaps by slicing them, so no
//! buffer a reader holds is ever mutated and nothing is zero-padded. A
//! read inside one extent is a view of it; a read across extents or
//! holes assembles one buffer, with zeros where nothing was written.
//! Lengths and totals count the logical length, holes included — what a
//! capacity limit sees.

use std::collections::BTreeMap;

use bytes::Bytes;

use crate::run::Run;

/// A flat namespace of files (paths are plain strings; `/`-separated
/// prefixes act as directories for listing purposes).
#[derive(Debug, Default, Clone)]
pub struct FileStore {
    files: BTreeMap<String, File>,
    /// Sum of every file's logical length.
    total: u64,
}

/// One file: its logical length and what was written, keyed by offset.
#[derive(Debug, Default, Clone)]
struct File {
    len: u64,
    /// Non-empty, disjoint extents; a byte in no extent reads as zero.
    extents: BTreeMap<u64, Bytes>,
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

impl File {
    /// The extents overlapping `[offset, end)`, in offset order.
    fn overlapping(&self, offset: u64, end: u64) -> impl Iterator<Item = (u64, &Bytes)> + '_ {
        // The one extent that may start before `offset` and reach into it.
        let before = self
            .extents
            .range(..offset)
            .next_back()
            .filter(|(&o, b)| o + b.len() as u64 > offset);
        let inside = self.extents.range(offset..end);
        before.into_iter().chain(inside).map(|(&o, b)| (o, b))
    }

    /// The extents' bytes inside `[offset, end)`, as views clipped to
    /// it, each at its absolute offset, in offset order.
    fn clipped(&self, offset: u64, end: u64) -> impl Iterator<Item = (u64, Bytes)> + '_ {
        self.overlapping(offset, end).map(move |(o, b)| {
            let (lo, hi) = (o.max(offset), (o + b.len() as u64).min(end));
            (lo, b.slice((lo - o) as usize..(hi - o) as usize))
        })
    }

    /// `[offset, offset + len)`, which must lie inside the file: a view
    /// when one extent holds it all, else one assembled buffer.
    fn read(&self, offset: u64, len: u64) -> Bytes {
        let end = offset + len;
        if let Some((o, b)) = self.overlapping(offset, end).next() {
            if o <= offset && end <= o + b.len() as u64 {
                return b.slice((offset - o) as usize..(end - o) as usize);
            }
        }
        Bytes::from(self.assemble(offset, len))
    }

    /// `[offset, offset + len)` copied once into a fresh buffer, zeros
    /// for the holes.
    fn assemble(&self, offset: u64, len: u64) -> Vec<u8> {
        let mut out = vec![0u8; len as usize];
        for (o, b) in self.clipped(offset, offset + len) {
            out[(o - offset) as usize..][..b.len()].copy_from_slice(&b);
        }
        out
    }

    /// `[offset, offset + len)`, which must lie inside the file, as a run
    /// of views of the extents that hold it — a zero-filled piece for
    /// each hole.
    fn read_run(&self, offset: u64, len: u64) -> Run {
        let mut run = Run::default();
        for (o, b) in self.clipped(offset, offset + len) {
            if o - offset > run.len() {
                let hole = (o - offset - run.len()) as usize;
                run.push(run.len(), Bytes::from(vec![0u8; hole]));
            }
            run.push(o - offset, b);
        }
        if run.len() < len {
            run.push(
                run.len(),
                Bytes::from(vec![0u8; (len - run.len()) as usize]),
            );
        }
        run
    }

    /// Land `run` at `offset`: each piece, in order, trims what it covers
    /// out of the extents it overlaps (by slicing — their buffers are
    /// untouched) and becomes an extent itself; the logical length
    /// extends to the run's end.
    fn write(&mut self, offset: u64, run: Run) {
        let end = offset + run.len();
        for (at, piece) in run.into_parts() {
            self.put_extent(offset + at, piece);
        }
        self.len = self.len.max(end);
    }

    /// Insert one non-empty extent over whatever it overlaps.
    fn put_extent(&mut self, offset: u64, data: Bytes) {
        let end = offset + data.len() as u64;
        let hit: Vec<(u64, Bytes)> = self
            .overlapping(offset, end)
            .map(|(o, b)| (o, b.clone()))
            .collect();
        for (o, b) in hit {
            self.extents.remove(&o);
            let b_end = o + b.len() as u64;
            if o < offset {
                self.extents.insert(o, b.slice(..(offset - o) as usize));
            }
            if end < b_end {
                self.extents.insert(end, b.slice((end - o) as usize..));
            }
        }
        self.extents.insert(offset, data);
    }
}

impl FileStore {
    /// An empty store.
    pub fn new() -> FileStore {
        FileStore::default()
    }

    /// Create or truncate a file.
    pub fn create(&mut self, path: &str) {
        self.replace(path, File::default());
    }

    /// Replace a file's entire contents.
    pub fn put(&mut self, path: &str, data: impl Into<Run>) {
        let mut file = File::default();
        file.write(0, data.into());
        self.replace(path, file);
    }

    fn replace(&mut self, path: &str, file: File) {
        self.total += file.len;
        if let Some(old) = self.files.insert(path.to_string(), file) {
            self.total -= old.len;
        }
    }

    /// Whether the file exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// File size, if it exists.
    pub fn len(&self, path: &str) -> Option<u64> {
        self.files.get(path).map(|f| f.len)
    }

    /// Whether the store holds no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// The file at `path`, if `[offset, offset + len)` lies inside it.
    fn range(&self, path: &str, offset: u64, len: u64) -> Result<&File, StoreError> {
        let file = self.files.get(path).ok_or_else(|| StoreError::NotFound {
            path: path.to_string(),
        })?;
        if offset.checked_add(len).is_none_or(|e| e > file.len) {
            return Err(StoreError::OutOfRange {
                path: path.to_string(),
                offset,
                len,
                size: file.len,
            });
        }
        Ok(file)
    }

    /// Read `len` bytes at `offset`: a view of the stored buffer when
    /// one write holds them all, else one assembled copy.
    pub fn read_at(&self, path: &str, offset: u64, len: u64) -> Result<Bytes, StoreError> {
        Ok(self.range(path, offset, len)?.read(offset, len))
    }

    /// Read a whole file.
    pub fn read_all(&self, path: &str) -> Result<Bytes, StoreError> {
        let len = self.len(path).unwrap_or(0);
        self.read_at(path, 0, len)
    }

    /// [`FileStore::read_at`] into a fresh buffer of the caller's own:
    /// one copy, whatever the extents.
    pub fn copy_at(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        Ok(self.range(path, offset, len)?.assemble(offset, len))
    }

    /// Read `len` bytes at `offset` as a run of views of the extents
    /// that hold them — no copy, however many writes they came from
    /// (a hole is a zero-filled piece).
    pub fn read_run_at(&self, path: &str, offset: u64, len: u64) -> Result<Run, StoreError> {
        Ok(self.range(path, offset, len)?.read_run(offset, len))
    }

    /// Write at `offset`, extending the file as needed; bytes between
    /// the old end and `offset` are a hole that reads as zeros. Creates
    /// the file if absent (like O_CREAT). The store keeps each piece of
    /// `data` itself, as its own extent.
    pub fn write_at(&mut self, path: &str, offset: u64, data: impl Into<Run>) {
        let file = self.files.entry(path.to_string()).or_default();
        let before = file.len;
        file.write(offset, data.into());
        self.total += file.len - before;
    }

    /// Delete a file.
    pub fn delete(&mut self, path: &str) -> Result<(), StoreError> {
        let file = self
            .files
            .remove(path)
            .ok_or_else(|| StoreError::NotFound {
                path: path.to_string(),
            })?;
        self.total -= file.len;
        Ok(())
    }

    /// Paths starting with `prefix`, in lexicographic order.
    pub fn list_prefix(&self, prefix: &str) -> Vec<String> {
        self.files
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Total logical bytes stored, holes included.
    pub fn total_bytes(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_read_round_trip() {
        let mut s = FileStore::new();
        s.put("a/b.txt", b"hello world".to_vec());
        assert_eq!(s.read_all("a/b.txt").unwrap(), b"hello world"[..]);
        assert_eq!(s.read_at("a/b.txt", 6, 5).unwrap(), b"world"[..]);
        assert_eq!(s.len("a/b.txt"), Some(11));
    }

    #[test]
    fn missing_file_errors() {
        let s = FileStore::new();
        assert!(matches!(
            s.read_all("nope").unwrap_err(),
            StoreError::NotFound { .. }
        ));
        assert_eq!(s.len("nope"), None);
    }

    #[test]
    fn out_of_range_read_errors() {
        let mut s = FileStore::new();
        s.put("f", vec![1, 2, 3]);
        assert!(matches!(
            s.read_at("f", 2, 5).unwrap_err(),
            StoreError::OutOfRange { size: 3, .. }
        ));
        // Overflowing offset+len is also caught.
        assert!(s.read_at("f", u64::MAX, 2).is_err());
    }

    #[test]
    fn write_at_extends_and_reads_holes_as_zeros() {
        let mut s = FileStore::new();
        s.write_at("f", 4, b"abc".to_vec());
        assert_eq!(s.read_all("f").unwrap(), vec![0, 0, 0, 0, b'a', b'b', b'c']);
        s.write_at("f", 0, b"zz".to_vec());
        assert_eq!(s.read_at("f", 0, 2).unwrap(), b"zz"[..]);
        assert_eq!(s.len("f"), Some(7));
        assert_eq!(s.copy_at("f", 1, 5).unwrap(), vec![b'z', 0, 0, b'a', b'b']);
        // A zero-length write past the end still extends the file.
        s.write_at("f", 10, Vec::new());
        assert_eq!(s.len("f"), Some(10));
        assert_eq!(s.total_bytes(), 10);
    }

    #[test]
    fn an_overwrite_trims_by_slicing_and_leaves_held_views_alone() {
        let mut s = FileStore::new();
        s.put("f", (0u8..10).collect::<Vec<u8>>());
        let held = s.read_at("f", 2, 6).unwrap();
        s.write_at("f", 3, vec![9u8; 3]);
        assert_eq!(held, vec![2, 3, 4, 5, 6, 7]);
        assert_eq!(s.read_all("f").unwrap(), vec![0, 1, 2, 9, 9, 9, 6, 7, 8, 9]);
        // The untouched tail is still a view of the first write.
        assert_eq!(s.read_at("f", 6, 4).unwrap().as_ptr(), held[4..].as_ptr());
    }

    #[test]
    fn list_prefix_is_ordered_and_scoped() {
        let mut s = FileStore::new();
        s.create("db/nr.idx");
        s.create("db/nr.seq");
        s.create("out/result");
        assert_eq!(s.list_prefix("db/"), vec!["db/nr.idx", "db/nr.seq"]);
        assert!(s.list_prefix("zzz").is_empty());
    }

    #[test]
    fn delete_removes() {
        let mut s = FileStore::new();
        s.create("x");
        assert!(s.delete("x").is_ok());
        assert!(!s.exists("x"));
        assert!(s.delete("x").is_err());
    }

    #[test]
    fn total_bytes_sums() {
        let mut s = FileStore::new();
        s.put("a", vec![0; 10]);
        s.put("b", vec![0; 5]);
        assert_eq!(s.total_bytes(), 15);
        s.write_at("b", 20, vec![1; 4]);
        s.put("a", vec![0; 3]);
        assert_eq!(s.total_bytes(), 27);
        s.delete("b").unwrap();
        s.create("a");
        assert_eq!(s.total_bytes(), 0);
    }
}
