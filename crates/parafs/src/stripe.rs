//! Deterministic round-robin file striping.
//!
//! A burst-buffer staging volume multiplies absorb bandwidth by
//! spreading one contiguous run across several backing files written
//! concurrently (ViPIOS-style data distribution): under the
//! processor-sharing model of [`crate::fs::SimFs`], `N` concurrent
//! streams reach `min(N * per_client_bw, aggregate_bw)`, so striping
//! converts the device's aggregate headroom into absorb speed.
//!
//! The map is a pure function of `(stripe_unit, stripe_files)` — no
//! allocation table, no metadata file. The destination file's offset
//! domain is cut into `stripe_unit`-sized units; unit `g` lives in
//! backing file `g % files` at file offset `(g / files) * unit`. Any
//! byte range can therefore be written, read back, and reassembled
//! deterministically by any party that knows the two parameters.

use crate::fs::{AsyncIo, SimFs};
use crate::run::Run;
use simcluster::RankCtx;

/// A round-robin stripe layout: `files` backing files, `unit`-byte
/// stripe units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeMap {
    files: usize,
    unit: u64,
}

/// One piece of a striped range: `len` bytes at `src_offset` within the
/// source buffer land in backing file `file` at `file_offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeChunk {
    /// Backing-file index, `0..files`.
    pub file: usize,
    /// Offset within that backing file.
    pub file_offset: u64,
    /// Offset of this chunk within the source range.
    pub src_offset: u64,
    /// Chunk length in bytes.
    pub len: u64,
}

impl StripeMap {
    /// A map over `files` backing files with `unit`-byte stripe units.
    /// Both must be at least 1.
    pub fn new(files: usize, unit: u64) -> StripeMap {
        assert!(files >= 1, "stripe map needs at least one backing file");
        assert!(unit >= 1, "stripe unit must be at least one byte");
        StripeMap { files, unit }
    }

    /// Number of backing files.
    pub fn files(&self) -> usize {
        self.files
    }

    /// Stripe unit, bytes.
    pub fn unit(&self) -> u64 {
        self.unit
    }

    /// The backing-file path for stripe file `k` of `base`.
    pub fn stripe_path(base: &str, k: usize) -> String {
        format!("{base}.s{k}")
    }

    /// Split the destination range `[offset, offset + len)` into stripe
    /// chunks, in ascending destination order. Empty for `len == 0`.
    pub fn chunks(&self, offset: u64, len: u64) -> Vec<StripeChunk> {
        let mut out = Vec::new();
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let g = pos / self.unit;
            let within = pos % self.unit;
            let take = (self.unit - within).min(end - pos);
            out.push(StripeChunk {
                file: (g % self.files as u64) as usize,
                file_offset: (g / self.files as u64) * self.unit + within,
                src_offset: pos - offset,
                len: take,
            });
            pos += take;
        }
        out
    }
}

/// A maximal contiguous extent within one backing file: the coalesced
/// physical transfer covering one or more [`StripeChunk`]s of a striped
/// range. For a contiguous source range, each touched backing file
/// coalesces to exactly one extent (its units are consecutive rows), so
/// an `N`-file map moves `N` concurrent streams — the striping win.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripeExtent {
    /// Backing-file index.
    pub file: usize,
    /// Extent start within that backing file.
    pub file_offset: u64,
    /// Total extent length, bytes.
    pub len: u64,
    /// The chunks this extent covers, in file order; their `src_offset`
    /// fields scatter/gather the extent against the source range.
    pub chunks: Vec<StripeChunk>,
}

impl StripeMap {
    /// [`StripeMap::chunks`], coalesced into per-file contiguous
    /// extents — the actual transfers a striped read/write issues.
    pub fn extents(&self, offset: u64, len: u64) -> Vec<StripeExtent> {
        let mut per_file: Vec<StripeExtent> = Vec::new();
        for c in self.chunks(offset, len) {
            if let Some(e) = per_file
                .iter_mut()
                .find(|e| e.file == c.file && e.file_offset + e.len == c.file_offset)
            {
                e.len += c.len;
                e.chunks.push(c);
            } else {
                per_file.push(StripeExtent {
                    file: c.file,
                    file_offset: c.file_offset,
                    len: c.len,
                    chunks: vec![c],
                });
            }
        }
        per_file
    }
}

/// Begin writing `data` at destination offset `offset` across the
/// stripe files of `base` on `fs`: one nonblocking operation per
/// backing-file extent, issued concurrently so the extents share the
/// device's aggregate bandwidth. Each extent's run is views of `data`'s
/// pieces, so the stripe files hold the very buffers the caller staged.
/// The caller must [`SimFs::io_wait`] every returned operation.
pub fn write_striped_begin(
    fs: &SimFs,
    ctx: &RankCtx,
    base: &str,
    map: &StripeMap,
    offset: u64,
    data: &Run,
) -> Vec<AsyncIo> {
    map.extents(offset, data.len())
        .into_iter()
        .map(|e| {
            let mut run = Run::default();
            for c in &e.chunks {
                run.join(run.len(), data.slice(c.src_offset, c.len));
            }
            let path = StripeMap::stripe_path(base, e.file);
            fs.write_at_begin(ctx, &path, e.file_offset, run)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_round_robin_and_pack_densely() {
        let m = StripeMap::new(3, 10);
        // 35 bytes from offset 0: units 0,1,2,3 -> files 0,1,2,0.
        let c = m.chunks(0, 35);
        assert_eq!(c.len(), 4);
        assert_eq!((c[0].file, c[0].file_offset, c[0].len), (0, 0, 10));
        assert_eq!((c[1].file, c[1].file_offset, c[1].len), (1, 0, 10));
        assert_eq!((c[2].file, c[2].file_offset, c[2].len), (2, 0, 10));
        // Unit 3 wraps to file 0's second row.
        assert_eq!((c[3].file, c[3].file_offset, c[3].len), (0, 10, 5));
    }

    #[test]
    fn unaligned_ranges_split_at_unit_boundaries() {
        let m = StripeMap::new(2, 8);
        // [5, 21): tail of unit 0, all of unit 1, head of unit 2.
        let c = m.chunks(5, 16);
        assert_eq!(c.len(), 3);
        assert_eq!((c[0].file, c[0].file_offset, c[0].len), (0, 5, 3));
        assert_eq!((c[1].file, c[1].file_offset, c[1].len), (1, 0, 8));
        assert_eq!((c[2].file, c[2].file_offset, c[2].len), (0, 8, 5));
        // src offsets tile the range exactly.
        assert_eq!(c.iter().map(|x| x.len).sum::<u64>(), 16);
        assert_eq!(c[0].src_offset, 0);
        assert_eq!(c[1].src_offset, 3);
        assert_eq!(c[2].src_offset, 11);
    }

    #[test]
    fn single_file_degenerates_to_identity() {
        let m = StripeMap::new(1, 4096);
        let c = m.chunks(1000, 10_000);
        // Offsets are preserved verbatim with one backing file.
        assert!(c.iter().all(|x| x.file == 0));
        assert_eq!(c[0].file_offset, 1000);
        let rebuilt: u64 = c.iter().map(|x| x.len).sum();
        assert_eq!(rebuilt, 10_000);
    }

    #[test]
    fn contiguous_ranges_coalesce_to_one_extent_per_file() {
        let m = StripeMap::new(3, 10);
        // 65 bytes from offset 5: units 0..=6 -> files 0,1,2 each get
        // one contiguous extent despite holding 2-3 separate units.
        let e = m.extents(5, 65);
        assert_eq!(e.len(), 3);
        let mut files: Vec<usize> = e.iter().map(|x| x.file).collect();
        files.sort_unstable();
        assert_eq!(files, vec![0, 1, 2]);
        assert_eq!(e.iter().map(|x| x.len).sum::<u64>(), 65);
        // Extent chunk lists tile each extent exactly.
        for x in &e {
            assert_eq!(x.chunks.iter().map(|c| c.len).sum::<u64>(), x.len);
        }
    }

    #[test]
    fn map_is_offset_addressable() {
        // The chunk of a sub-range equals the sub-range of the chunks:
        // read-back of any window must hit the same file bytes the
        // write put there.
        let m = StripeMap::new(4, 16);
        let whole = m.chunks(32, 256);
        let window = m.chunks(48, 64);
        for w in &window {
            let covered = whole.iter().any(|c| {
                c.file == w.file
                    && w.file_offset >= c.file_offset
                    && w.file_offset + w.len <= c.file_offset + c.len
            });
            assert!(
                covered,
                "window chunk {w:?} not covered by whole-range layout"
            );
        }
    }

    #[test]
    fn four_stripe_files_absorb_a_run_twice_as_fast_as_one() {
        // Same 8 MiB run on the burst device: four concurrent streams
        // share its aggregate bandwidth where one is held to a single
        // stream's — why the staging tier stripes four wide.
        let elapsed = |files: usize| {
            let sim = simcluster::Sim::new(1);
            let fs = SimFs::new(sim.handle(), "stage0", crate::FsProfile::burst_buffer());
            let mut out = sim.run(move |ctx| {
                let t0 = ctx.now();
                let map = StripeMap::new(files, 64 * 1024);
                let data = Run::from(vec![3u8; 8 << 20]);
                for op in write_striped_begin(&fs, &ctx, "big", &map, 0, &data) {
                    fs.io_wait(&ctx, op).unwrap();
                }
                ctx.now().since(t0).0
            });
            out.outputs.remove(0)
        };
        let (solo, striped) = (elapsed(1), elapsed(4));
        assert!(
            (striped as f64) < (solo as f64) * 0.5,
            "striping 4-wide should at least halve the absorb: {striped} vs {solo}"
        );
    }
}
