//! The binary edge-list format ("`.bel`").
//!
//! Layout:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"TPSBEL1\0"
//! 8       8     num_vertices (u64 le)
//! 16      8     num_edges    (u64 le)
//! 24      8*E   edge records: src (u32 le), dst (u32 le)
//! ```
//!
//! The payload matches the paper's "binary edge list with 32-bit vertex IDs";
//! the 24-byte header lets streams report exact hints without a discovery
//! pass. [`BinaryEdgeFile`] reads it with a buffered reader, 8 bytes per edge,
//! and supports `reset` by seeking — this is the faithful out-of-core path.
//!
//! ## Other readers and the v2 format
//!
//! This buffered reader is the *baseline* backend. The `tps-io` crate layers
//! faster paths over the same on-disk bytes, all behind
//! [`EdgeStream`]:
//!
//! * `tps_io::MmapEdgeFile` — zero-copy memory-mapped reads of this v1
//!   format (fastest on a warm page cache).
//! * `tps_io::v2` — the compressed chunked **TPSBEL2** format: varint-encoded
//!   edges in checksummed chunks with an index footer, typically 50–70 % of
//!   the v1 size on skewed graphs, plus order-preserving v1↔v2 converters.
//!
//! Pick a backend with `tps_io::open_edge_stream(path, ReaderKind::…)`
//! (auto-detects v1 vs v2 by magic), or from the CLI via
//! `tps partition --reader buffered|mmap`.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::stream::EdgeStream;
use crate::types::{Edge, GraphInfo};

/// Magic bytes identifying the format (also versions it).
pub const MAGIC: [u8; 8] = *b"TPSBEL1\0";
/// Header length in bytes.
pub const HEADER_LEN: u64 = 24;
/// Bytes per edge record.
pub const EDGE_RECORD_LEN: u64 = 8;

/// Write `edges` to `path` in the binary format.
pub fn write_binary_edge_list<P: AsRef<Path>>(
    path: P,
    num_vertices: u64,
    edges: impl IntoIterator<Item = Edge>,
) -> io::Result<GraphInfo> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    w.write_all(&MAGIC)?;
    w.write_all(&num_vertices.to_le_bytes())?;
    // Placeholder for the edge count; patched after the payload.
    w.write_all(&0u64.to_le_bytes())?;
    let mut n = 0u64;
    for e in edges {
        w.write_all(&e.src.to_le_bytes())?;
        w.write_all(&e.dst.to_le_bytes())?;
        n += 1;
    }
    let mut file = w.into_inner()?;
    file.seek(SeekFrom::Start(16))?;
    file.write_all(&n.to_le_bytes())?;
    file.flush()?;
    Ok(GraphInfo {
        num_vertices,
        num_edges: n,
    })
}

/// A streaming reader over a binary edge-list file.
///
/// Memory use is one `BufReader` buffer regardless of the file size: this is
/// the out-of-core ingestion path of every streaming partitioner.
pub struct BinaryEdgeFile {
    path: PathBuf,
    reader: BufReader<File>,
    info: GraphInfo,
    remaining: u64,
}

impl BinaryEdgeFile {
    /// Open `path`, validating the header.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        let mut reader = BufReader::with_capacity(1 << 16, file);
        let info = read_header(&mut reader)?;
        Ok(BinaryEdgeFile {
            path,
            reader,
            remaining: info.num_edges,
            info,
        })
    }

    /// The graph summary from the header.
    pub fn info(&self) -> GraphInfo {
        self.info
    }

    /// Path this stream reads from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total payload bytes of one full pass (used by the storage simulator to
    /// charge I/O time per pass).
    pub fn pass_bytes(&self) -> u64 {
        HEADER_LEN + self.info.num_edges * EDGE_RECORD_LEN
    }
}

/// Read and validate a TPSBEL1 header from `r`, leaving the cursor at the
/// first edge record. Shared by every v1 reader backend (buffered here,
/// mmap in `tps-io`) so the header layout lives in one place.
pub fn read_header<R: Read>(r: &mut R) -> io::Result<GraphInfo> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a TPSBEL1 binary edge list (bad magic)",
        ));
    }
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    let num_vertices = u64::from_le_bytes(buf);
    r.read_exact(&mut buf)?;
    let num_edges = u64::from_le_bytes(buf);
    Ok(GraphInfo {
        num_vertices,
        num_edges,
    })
}

impl EdgeStream for BinaryEdgeFile {
    fn reset(&mut self) -> io::Result<()> {
        self.reader.seek(SeekFrom::Start(HEADER_LEN))?;
        self.remaining = self.info.num_edges;
        Ok(())
    }

    fn next_edge(&mut self) -> io::Result<Option<Edge>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let mut rec = [0u8; 8];
        self.reader.read_exact(&mut rec)?;
        self.remaining -= 1;
        let src = u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]);
        let dst = u32::from_le_bytes([rec[4], rec[5], rec[6], rec[7]]);
        Ok(Some(Edge { src, dst }))
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.info.num_edges)
    }

    fn num_vertices_hint(&self) -> Option<u64> {
        Some(self.info.num_vertices)
    }
}

/// A buffered writer producing one binary edge-list file per partition —
/// the materialised output of an out-of-core partitioning run.
pub struct PartitionFileWriter {
    writers: Vec<BufWriter<File>>,
    counts: Vec<u64>,
    num_vertices: u64,
    paths: Vec<PathBuf>,
}

impl PartitionFileWriter {
    /// Create `k` files named `<stem>.part<i>.bel` in `dir`.
    pub fn create(dir: &Path, stem: &str, k: u32, num_vertices: u64) -> io::Result<Self> {
        let mut writers = Vec::with_capacity(k as usize);
        let mut paths = Vec::with_capacity(k as usize);
        for i in 0..k {
            let path = dir.join(format!("{stem}.part{i}.bel"));
            let file = File::create(&path)?;
            let mut w = BufWriter::new(file);
            w.write_all(&MAGIC)?;
            w.write_all(&num_vertices.to_le_bytes())?;
            w.write_all(&0u64.to_le_bytes())?;
            writers.push(w);
            paths.push(path);
        }
        Ok(PartitionFileWriter {
            writers,
            counts: vec![0; k as usize],
            num_vertices,
            paths,
        })
    }

    /// Append an edge to partition `p`.
    pub fn write(&mut self, edge: Edge, p: u32) -> io::Result<()> {
        let w = &mut self.writers[p as usize];
        w.write_all(&edge.src.to_le_bytes())?;
        w.write_all(&edge.dst.to_le_bytes())?;
        self.counts[p as usize] += 1;
        Ok(())
    }

    /// Patch edge counts into all headers and close the files.
    /// Returns the per-partition paths and edge counts.
    pub fn finish(self) -> io::Result<Vec<(PathBuf, u64)>> {
        let _ = self.num_vertices;
        let mut out = Vec::with_capacity(self.writers.len());
        for ((w, count), path) in self.writers.into_iter().zip(self.counts).zip(self.paths) {
            let mut file = w.into_inner()?;
            file.seek(SeekFrom::Start(16))?;
            file.write_all(&count.to_le_bytes())?;
            file.flush()?;
            out.push((path, count));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::for_each_edge;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tps-binfmt-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("g.bel");
        let edges = vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(4, 0)];
        let info = write_binary_edge_list(&path, 5, edges.clone()).unwrap();
        assert_eq!(info.num_edges, 3);

        let mut f = BinaryEdgeFile::open(&path).unwrap();
        assert_eq!(
            f.info(),
            GraphInfo {
                num_vertices: 5,
                num_edges: 3
            }
        );
        let mut seen = Vec::new();
        for_each_edge(&mut f, |e| seen.push(e)).unwrap();
        assert_eq!(seen, edges);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multi_pass_identical() {
        let dir = tmpdir("multipass");
        let path = dir.join("g.bel");
        let edges: Vec<Edge> = (0..100).map(|i| Edge::new(i, (i * 7 + 1) % 128)).collect();
        write_binary_edge_list(&path, 128, edges.clone()).unwrap();
        let mut f = BinaryEdgeFile::open(&path).unwrap();
        let mut p1 = Vec::new();
        for_each_edge(&mut f, |e| p1.push(e)).unwrap();
        let mut p2 = Vec::new();
        for_each_edge(&mut f, |e| p2.push(e)).unwrap();
        assert_eq!(p1, edges);
        assert_eq!(p1, p2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let dir = tmpdir("badmagic");
        let path = dir.join("bad.bel");
        std::fs::write(&path, b"NOTMAGIC________________").unwrap();
        assert!(BinaryEdgeFile::open(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_file_round_trip() {
        let dir = tmpdir("empty");
        let path = dir.join("e.bel");
        write_binary_edge_list(&path, 0, std::iter::empty()).unwrap();
        let mut f = BinaryEdgeFile::open(&path).unwrap();
        assert_eq!(f.next_edge().unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pass_bytes_accounts_header_and_records() {
        let dir = tmpdir("bytes");
        let path = dir.join("g.bel");
        write_binary_edge_list(&path, 4, (0..10).map(|i| Edge::new(i % 4, (i + 1) % 4))).unwrap();
        let f = BinaryEdgeFile::open(&path).unwrap();
        assert_eq!(f.pass_bytes(), 24 + 10 * 8);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), f.pass_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partition_writer_splits_edges() {
        let dir = tmpdir("pwriter");
        let mut w = PartitionFileWriter::create(&dir, "g", 2, 6).unwrap();
        w.write(Edge::new(0, 1), 0).unwrap();
        w.write(Edge::new(2, 3), 1).unwrap();
        w.write(Edge::new(4, 5), 1).unwrap();
        let parts = w.finish().unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].1, 1);
        assert_eq!(parts[1].1, 2);
        let mut f = BinaryEdgeFile::open(&parts[1].0).unwrap();
        let mut seen = Vec::new();
        for_each_edge(&mut f, |e| seen.push(e)).unwrap();
        assert_eq!(seen, vec![Edge::new(2, 3), Edge::new(4, 5)]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
