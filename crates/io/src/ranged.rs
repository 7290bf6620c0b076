//! Range-addressable file sources — chunk-range scheduling for the
//! chunk-parallel partitioner.
//!
//! Implements [`RangedEdgeSource`] (see `tps_graph::ranged`) for both
//! on-disk formats, so `tps-core`'s `ParallelRunner` can open one
//! independent cursor per worker thread:
//!
//! * **v1** (`TPSBEL1`) — records are fixed-width, so a range `[a, b)` is a
//!   single seek to `HEADER + 8·a` and a countdown.
//! * **v2** (`TPSBEL2`) — the chunk **index footer** is read once at open
//!   and a prefix-sum over per-chunk edge counts is kept; a range cursor
//!   binary-searches the chunk containing its start edge, decodes whole
//!   chunks (checksums verified as in a sequential pass) and skips the
//!   intra-chunk prefix. Workers therefore schedule disjoint chunk ranges
//!   off one shared index with no coordination.
//!
//! Ranges are expressed in *edge indices*, not storage offsets, so a
//! parallel partitioning run makes identical per-thread decisions whether
//! the graph lives in memory, in a v1 file or in a v2 file.
//!
//! Each format has a buffered source (one `BufReader<File>` per cursor) and
//! a memory-mapped one (every cursor reads one shared read-only mapping).
//! Both v2 sources hand out the same range cursor; it differs only in how
//! it fetches the bytes of the chunk it decodes next. [`open_ranged`] is the
//! front door (format sniffing via [`crate::detect_format`]);
//! [`open_ranged_backend`] picks the source for a [`ReaderKind`].

use std::fs::File;
use std::io::{self, BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use tps_core::job::ReaderKind;
use tps_graph::formats::binary as v1;
use tps_graph::ranged::{check_range, RangedEdgeSource};
use tps_graph::stream::EdgeStream;
use tps_graph::types::{Edge, GraphInfo};

use crate::mmap::{edge_at, read_mapped_v1_header, v1_records, Mmap};
use crate::v2::{decode_chunk_slice, read_chunk_at, read_layout, ChunkMeta, V2Layout};
use crate::EdgeFileFormat;

/// A [`RangedEdgeSource`] over a v1 fixed-width `.bel` file.
pub struct RangedV1File {
    path: PathBuf,
    info: GraphInfo,
}

impl RangedV1File {
    /// Open `path` and validate the v1 header.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;
        let info = v1::read_header(&mut file)?;
        Ok(RangedV1File { path, info })
    }
}

impl RangedEdgeSource for RangedV1File {
    fn info(&self) -> GraphInfo {
        self.info
    }

    fn open_range(&self, start: u64, end: u64) -> io::Result<Box<dyn EdgeStream + '_>> {
        check_range(start, end, self.info.num_edges)?;
        let file = File::open(&self.path)?;
        let mut stream = V1RangeStream {
            reader: BufReader::with_capacity(1 << 16, file),
            start,
            end,
            pos: start,
        };
        stream.seek_to_start()?;
        Ok(Box::new(stream))
    }
}

struct V1RangeStream {
    reader: BufReader<File>,
    start: u64,
    end: u64,
    pos: u64,
}

impl V1RangeStream {
    fn seek_to_start(&mut self) -> io::Result<()> {
        self.reader.seek(SeekFrom::Start(
            v1::HEADER_LEN + self.start * v1::EDGE_RECORD_LEN,
        ))?;
        self.pos = self.start;
        Ok(())
    }
}

impl EdgeStream for V1RangeStream {
    fn reset(&mut self) -> io::Result<()> {
        self.seek_to_start()
    }

    fn next_edge(&mut self) -> io::Result<Option<Edge>> {
        if self.pos >= self.end {
            return Ok(None);
        }
        let mut rec = [0u8; v1::EDGE_RECORD_LEN as usize];
        self.reader.read_exact(&mut rec)?;
        self.pos += 1;
        Ok(Some(Edge {
            src: u32::from_le_bytes(rec[0..4].try_into().unwrap()),
            dst: u32::from_le_bytes(rec[4..8].try_into().unwrap()),
        }))
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.end - self.start)
    }
}

/// A [`RangedEdgeSource`] over a memory-mapped v1 `.bel` file: one shared
/// read-only mapping, zero-copy range cursors with per-worker offsets.
///
/// Every worker's range stream is a `(start, end, cursor)` triple over the
/// same mapped payload — no per-worker file handles, no read syscalls, no
/// decode buffers. `reset` is a cursor assignment. This is the fastest
/// parallel backend on a warm page cache (the decode copy of the buffered
/// readers disappears); on a cold cache the kernel's readahead serves
/// interleaved workers nearly as well as dedicated cursors.
pub struct RangedMmapV1File {
    map: Mmap,
    info: GraphInfo,
}

impl RangedMmapV1File {
    /// Map `path` and validate the v1 header.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = File::open(path.as_ref())?;
        let map = Mmap::map(&file)?;
        let info = read_mapped_v1_header(map.as_slice())?;
        Ok(RangedMmapV1File { map, info })
    }
}

impl RangedEdgeSource for RangedMmapV1File {
    fn info(&self) -> GraphInfo {
        self.info
    }

    fn open_range(&self, start: u64, end: u64) -> io::Result<Box<dyn EdgeStream + '_>> {
        check_range(start, end, self.info.num_edges)?;
        Ok(Box::new(MmapV1RangeStream {
            payload: v1_records(self.map.as_slice(), self.info),
            start,
            end,
            pos: start,
        }))
    }
}

/// A zero-copy cursor over records `[start, end)` of a shared v1 mapping.
struct MmapV1RangeStream<'a> {
    payload: &'a [u8],
    start: u64,
    end: u64,
    pos: u64,
}

impl EdgeStream for MmapV1RangeStream<'_> {
    fn reset(&mut self) -> io::Result<()> {
        self.pos = self.start;
        Ok(())
    }

    #[inline]
    fn next_edge(&mut self) -> io::Result<Option<Edge>> {
        if self.pos >= self.end {
            return Ok(None);
        }
        let e = edge_at(self.payload, self.pos as usize);
        self.pos += 1;
        Ok(Some(e))
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.end - self.start)
    }
}

/// The validated layout of a v2 file plus its edge prefix sums: the shared
/// read-only directory every v2 range cursor schedules off.
struct V2Index {
    layout: V2Layout,
    /// `cum[i]` = edges in chunks `0..i`; `cum[num_chunks]` = `|E|`.
    cum: Vec<u64>,
}

impl V2Index {
    /// Validate header, index and trailer of `file` and build the prefix
    /// sums.
    fn read(file: &mut File) -> io::Result<Self> {
        let layout = read_layout(file)?;
        let mut cum = Vec::with_capacity(layout.chunks.len() + 1);
        let mut total = 0u64;
        cum.push(0);
        for c in &layout.chunks {
            total += c.edge_count as u64;
            cum.push(total);
        }
        Ok(V2Index { layout, cum })
    }

    /// A cursor over edges `[start, end)` reading chunk bytes from `bytes`.
    fn open_range<'a>(
        &'a self,
        bytes: ChunkBytes<'a>,
        start: u64,
        end: u64,
    ) -> io::Result<Box<dyn EdgeStream + 'a>> {
        let mut stream = V2RangeStream {
            chunks: &self.layout.chunks,
            cum: &self.cum,
            bytes,
            start,
            end,
            next_chunk: 0,
            emitted: 0,
            buf: Vec::new(),
            buf_pos: 0,
            verified: vec![false; self.layout.chunks.len()],
        };
        stream.rewind()?;
        Ok(Box::new(stream))
    }
}

/// A [`RangedEdgeSource`] over a v2 chunked file, scheduling chunk ranges
/// off the shared index footer; each range cursor reads through its own
/// buffered file handle.
pub struct RangedV2File {
    path: PathBuf,
    index: V2Index,
}

impl RangedV2File {
    /// Open `path`, validating header, index and trailer.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let index = V2Index::read(&mut File::open(&path)?)?;
        Ok(RangedV2File { path, index })
    }

    /// The chunk directory (shared, read-only — workers schedule off it).
    pub fn chunks(&self) -> &[ChunkMeta] {
        &self.index.layout.chunks
    }
}

impl RangedEdgeSource for RangedV2File {
    fn info(&self) -> GraphInfo {
        self.index.layout.info
    }

    fn open_range(&self, start: u64, end: u64) -> io::Result<Box<dyn EdgeStream + '_>> {
        check_range(start, end, self.index.layout.info.num_edges)?;
        let reader = BufReader::with_capacity(1 << 16, File::open(&self.path)?);
        let bytes = ChunkBytes::File {
            reader,
            scratch: Vec::new(),
        };
        self.index.open_range(bytes, start, end)
    }
}

/// A [`RangedEdgeSource`] over a memory-mapped v2 chunked file: chunk-index
/// scheduling as in [`RangedV2File`], but chunks are decoded straight out of
/// the shared mapping (checksums still verified) instead of through
/// per-worker file handles.
pub struct RangedMmapV2File {
    map: Mmap,
    index: V2Index,
}

impl RangedMmapV2File {
    /// Map `path`, validating header, index and trailer.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let mut file = File::open(path.as_ref())?;
        let index = V2Index::read(&mut file)?;
        let map = Mmap::map(&file)?;
        Ok(RangedMmapV2File { map, index })
    }
}

impl RangedEdgeSource for RangedMmapV2File {
    fn info(&self) -> GraphInfo {
        self.index.layout.info
    }

    fn open_range(&self, start: u64, end: u64) -> io::Result<Box<dyn EdgeStream + '_>> {
        check_range(start, end, self.index.layout.info.num_edges)?;
        let bytes = ChunkBytes::Mapped(self.map.as_slice());
        self.index.open_range(bytes, start, end)
    }
}

/// Where a v2 range cursor fetches the bytes of the chunk it decodes next.
enum ChunkBytes<'a> {
    /// The cursor's own buffered file handle, kept positioned at the next
    /// chunk; `scratch` holds one chunk payload.
    File {
        reader: BufReader<File>,
        scratch: Vec<u8>,
    },
    /// The source's shared read-only mapping of the whole file.
    Mapped(&'a [u8]),
}

/// A stream over edges `[start, end)` of a v2 file, decoding whole chunks
/// and skipping the intra-chunk prefix.
struct V2RangeStream<'a> {
    chunks: &'a [ChunkMeta],
    cum: &'a [u64],
    bytes: ChunkBytes<'a>,
    start: u64,
    end: u64,
    /// Next chunk index to decode sequentially.
    next_chunk: usize,
    /// Edges already handed out of this range.
    emitted: u64,
    buf: Vec<Edge>,
    buf_pos: usize,
    /// Chunks whose checksum this cursor already verified — multi-pass
    /// workers (`reset` + re-stream) decode proven chunks checksum-free.
    verified: Vec<bool>,
}

impl V2RangeStream<'_> {
    /// Position at the chunk containing `start` and skip the intra-chunk
    /// prefix (decoding is chunk-at-a-time; varints cannot be entered
    /// mid-stream).
    fn rewind(&mut self) -> io::Result<()> {
        self.emitted = 0;
        self.buf.clear();
        self.buf_pos = 0;
        if self.start >= self.end || self.chunks.is_empty() {
            return Ok(());
        }
        // Last chunk whose cumulative start is <= `start`.
        self.next_chunk = self
            .cum
            .partition_point(|&c| c <= self.start)
            .saturating_sub(1);
        if let ChunkBytes::File { reader, .. } = &mut self.bytes {
            reader.seek(SeekFrom::Start(self.chunks[self.next_chunk].offset))?;
        }
        let skip = self.start - self.cum[self.next_chunk];
        self.decode_next_chunk()?;
        self.buf_pos = skip as usize;
        Ok(())
    }

    /// Decode chunk `next_chunk` into `buf` and advance the counter.
    fn decode_next_chunk(&mut self) -> io::Result<()> {
        let meta = self.chunks[self.next_chunk];
        self.buf.clear();
        self.buf_pos = 0;
        let verify = !self.verified[self.next_chunk];
        match &mut self.bytes {
            ChunkBytes::File { reader, scratch } => {
                read_chunk_at(reader, meta, verify, scratch, &mut self.buf)?
            }
            ChunkBytes::Mapped(bytes) => decode_chunk_slice(bytes, meta, verify, &mut self.buf)?,
        }
        self.verified[self.next_chunk] = true;
        self.next_chunk += 1;
        Ok(())
    }
}

impl EdgeStream for V2RangeStream<'_> {
    fn reset(&mut self) -> io::Result<()> {
        self.rewind()
    }

    fn next_edge(&mut self) -> io::Result<Option<Edge>> {
        loop {
            if self.emitted >= self.end - self.start {
                return Ok(None);
            }
            if self.buf_pos < self.buf.len() {
                let e = self.buf[self.buf_pos];
                self.buf_pos += 1;
                self.emitted += 1;
                return Ok(Some(e));
            }
            if self.next_chunk >= self.chunks.len() {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "v2 chunk directory exhausted before range end",
                ));
            }
            self.decode_next_chunk()?;
        }
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.end - self.start)
    }
}

/// Open `path` (v1 or v2, sniffed by magic) as a ranged source.
pub fn open_ranged<P: AsRef<Path>>(path: P) -> io::Result<Box<dyn RangedEdgeSource>> {
    let path = path.as_ref();
    match crate::detect_format(path)? {
        EdgeFileFormat::V1 => Ok(Box::new(RangedV1File::open(path)?)),
        EdgeFileFormat::V2 => Ok(Box::new(RangedV2File::open(path)?)),
    }
}

/// Like [`open_ranged`], serving every range as a zero-copy (v1) or
/// in-mapping-decoded (v2) cursor over one shared memory mapping.
pub fn open_ranged_mmap<P: AsRef<Path>>(path: P) -> io::Result<Box<dyn RangedEdgeSource>> {
    let path = path.as_ref();
    match crate::detect_format(path)? {
        EdgeFileFormat::V1 => Ok(Box::new(RangedMmapV1File::open(path)?)),
        EdgeFileFormat::V2 => Ok(Box::new(RangedMmapV2File::open(path)?)),
    }
}

/// Open `path` as a ranged source with the requested [`ReaderKind`] — the
/// parallel/distributed analogue of [`crate::open_edge_stream`].
pub fn open_ranged_backend<P: AsRef<Path>>(
    path: P,
    reader: ReaderKind,
) -> io::Result<Box<dyn RangedEdgeSource>> {
    match reader {
        ReaderKind::Buffered => open_ranged(path),
        ReaderKind::Mmap => open_ranged_mmap(path),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_graph::formats::binary::write_binary_edge_list;
    use tps_graph::ranged::split_even;
    use tps_graph::stream::for_each_edge;

    fn tmpfile(tag: &str, ext: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tps-io-ranged-{tag}-{}.{ext}", std::process::id()))
    }

    fn edges(n: u32) -> Vec<Edge> {
        (0..n)
            .map(|i| Edge::new(i % 517, (i * 31 + 7) % 4096))
            .collect()
    }

    fn collect(s: &mut dyn EdgeStream) -> Vec<Edge> {
        let mut out = Vec::new();
        for_each_edge(s, |e| out.push(e)).unwrap();
        out
    }

    #[test]
    fn v1_ranges_reassemble_full_pass() {
        let path = tmpfile("v1", "bel");
        let es = edges(10_000);
        write_binary_edge_list(&path, 4096, es.iter().copied()).unwrap();
        let src = RangedV1File::open(&path).unwrap();
        assert_eq!(src.info().num_edges, 10_000);
        for parts in [1usize, 3, 7] {
            let mut seen = Vec::new();
            for (a, b) in split_even(10_000, parts) {
                let mut s = src.open_range(a, b).unwrap();
                seen.extend(collect(&mut *s));
            }
            assert_eq!(seen, es, "parts = {parts}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_ranges_reassemble_full_pass_across_chunk_sizes() {
        let es = edges(10_000);
        // Chunk sizes that do and do not divide the range boundaries.
        for chunk_edges in [64u32, 1000, 4096, 20_000] {
            let path = tmpfile(&format!("v2-{chunk_edges}"), "bel2");
            crate::v2::write_v2_edge_list(&path, 4096, es.iter().copied(), chunk_edges).unwrap();
            let src = RangedV2File::open(&path).unwrap();
            for parts in [1usize, 2, 5, 13] {
                let mut seen = Vec::new();
                for (a, b) in split_even(10_000, parts) {
                    let mut s = src.open_range(a, b).unwrap();
                    seen.extend(collect(&mut *s));
                }
                assert_eq!(seen, es, "chunk {chunk_edges} parts {parts}");
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn v2_range_mid_chunk_resets_correctly() {
        let es = edges(5_000);
        let path = tmpfile("v2-reset", "bel2");
        crate::v2::write_v2_edge_list(&path, 4096, es.iter().copied(), 777).unwrap();
        let src = RangedV2File::open(&path).unwrap();
        // A range starting and ending mid-chunk.
        let mut s = src.open_range(1_000, 3_500).unwrap();
        let first = collect(&mut *s);
        let second = collect(&mut *s); // collect resets first
        assert_eq!(first.len(), 2_500);
        assert_eq!(first, second);
        assert_eq!(first[0], es[1_000]);
        assert_eq!(*first.last().unwrap(), es[3_499]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_ranged_sniffs_both_formats() {
        let es = edges(2_000);
        let p1 = tmpfile("sniff", "bel");
        let p2 = tmpfile("sniff", "bel2");
        write_binary_edge_list(&p1, 4096, es.iter().copied()).unwrap();
        crate::v2::write_v2_edge_list(&p2, 4096, es.iter().copied(), 300).unwrap();
        for p in [&p1, &p2] {
            let src = open_ranged(p).unwrap();
            let mut s = src.open_range(500, 1500).unwrap();
            let seen = collect(&mut *s);
            assert_eq!(seen, &es[500..1500], "{p:?}");
        }
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn mmap_ranges_match_buffered_ranges_both_formats() {
        let es = edges(6_000);
        let p1 = tmpfile("mm", "bel");
        let p2 = tmpfile("mm", "bel2");
        write_binary_edge_list(&p1, 4096, es.iter().copied()).unwrap();
        crate::v2::write_v2_edge_list(&p2, 4096, es.iter().copied(), 777).unwrap();
        for p in [&p1, &p2] {
            let src = open_ranged_mmap(p).unwrap();
            assert_eq!(src.info().num_edges, 6_000);
            for parts in [1usize, 3, 5] {
                let mut seen = Vec::new();
                for (a, b) in split_even(6_000, parts) {
                    let mut s = src.open_range(a, b).unwrap();
                    seen.extend(collect(&mut *s));
                }
                assert_eq!(seen, es, "{p:?} parts {parts}");
            }
            // Mid-range reset rewinds to the range start, not the file start.
            let mut s = src.open_range(1_000, 2_500).unwrap();
            let first = collect(&mut *s);
            assert_eq!(first, collect(&mut *s));
            assert_eq!(first[0], es[1_000]);
            // Out-of-bounds ranges rejected like every other backend.
            assert!(src.open_range(0, 6_001).is_err());
        }
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn mmap_rejects_absurd_header_edge_counts() {
        // A header promising 2^61 edges would wrap the size multiply;
        // both mmap openers must report corruption, not panic later.
        let path = tmpfile("absurd", "bel");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&tps_graph::formats::binary::MAGIC);
        bytes.extend_from_slice(&8u64.to_le_bytes());
        bytes.extend_from_slice(&(1u64 << 61).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        std::fs::write(&path, &bytes).unwrap();
        assert!(RangedMmapV1File::open(&path).is_err());
        assert!(crate::mmap::MmapEdgeFile::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn backend_dispatch_opens_all_three() {
        let es = edges(500);
        let p1 = tmpfile("dispatch", "bel");
        let p2 = tmpfile("dispatch", "bel2");
        write_binary_edge_list(&p1, 4096, es.iter().copied()).unwrap();
        crate::v2::write_v2_edge_list(&p2, 4096, es.iter().copied(), 64).unwrap();
        for path in [&p1, &p2] {
            for reader in ReaderKind::ALL {
                let src = open_ranged_backend(path, reader).unwrap();
                let mut s = src.open_range(100, 200).unwrap();
                assert_eq!(collect(&mut *s), &es[100..200], "{reader:?} on {path:?}");
            }
        }
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn out_of_bounds_ranges_rejected() {
        let es = edges(100);
        let path = tmpfile("oob", "bel");
        write_binary_edge_list(&path, 4096, es.iter().copied()).unwrap();
        let src = RangedV1File::open(&path).unwrap();
        assert!(src.open_range(0, 101).is_err());
        assert!(src.open_range(60, 50).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_range_yields_nothing() {
        let es = edges(100);
        let path = tmpfile("emptyrange", "bel2");
        crate::v2::write_v2_edge_list(&path, 4096, es.iter().copied(), 32).unwrap();
        let src = RangedV2File::open(&path).unwrap();
        let mut s = src.open_range(50, 50).unwrap();
        assert_eq!(s.next_edge().unwrap(), None);
        std::fs::remove_file(&path).ok();
    }
}
