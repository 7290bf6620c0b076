//! Memory-mapped zero-copy edge streams.
//!
//! [`MmapEdgeFile`] maps a `.bel` (TPSBEL1) file read-only and serves edges
//! straight out of the page cache: no read syscalls, no copy into a user
//! buffer, and `reset` is a cursor assignment. On re-reads with a warm page
//! cache this is the fastest backend; on a cold cache the kernel's readahead
//! (hinted with `madvise(MADV_SEQUENTIAL)`) still keeps it competitive with
//! buffered reads.
//!
//! The mapping is done with a tiny private `mmap(2)` FFI binding — the
//! workspace builds offline with no `libc`/`memmap2` crates, and the three
//! symbols used here (`mmap`, `munmap`, `madvise`) are part of every Unix C
//! library. Non-Unix targets get an `Unsupported` error at `open` time.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};

use tps_graph::formats::binary::{EDGE_RECORD_LEN, HEADER_LEN};
use tps_graph::stream::EdgeStream;
use tps_graph::types::{Edge, GraphInfo};

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_SHARED: i32 = 1;
    pub const MADV_SEQUENTIAL: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
        pub fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    }
}

/// A read-only memory mapping of an entire file.
///
/// Dereferences to `&[u8]`. The mapping is `MAP_SHARED` + `PROT_READ`: pages
/// are shared with the page cache and never copied.
pub struct Mmap {
    ptr: *mut std::ffi::c_void,
    len: usize,
}

// SAFETY: the mapping is read-only for its entire lifetime; concurrent reads
// of immutable memory are safe from any thread.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Map `file` read-only in full. Empty files produce an empty mapping
    /// without calling `mmap` (a zero-length mapping is EINVAL on Linux).
    #[cfg(unix)]
    pub fn map(file: &File) -> io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;

        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "file too large to map",
            ));
        }
        let len = len as usize;
        if len == 0 {
            return Ok(Mmap {
                ptr: std::ptr::null_mut(),
                len: 0,
            });
        }
        // SAFETY: fd is valid for the duration of the call; we request a
        // fresh read-only shared mapping and check for MAP_FAILED.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        // Advisory only; ignore failures.
        unsafe { sys::madvise(ptr, len, sys::MADV_SEQUENTIAL) };
        Ok(Mmap { ptr, len })
    }

    /// Memory mapping is not wired up on this platform.
    #[cfg(not(unix))]
    pub fn map(_file: &File) -> io::Result<Mmap> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "mmap backend requires a Unix target",
        ))
    }

    /// The mapped bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: ptr/len describe a live PROT_READ mapping owned by self.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        if self.len != 0 {
            // SAFETY: ptr/len came from a successful mmap and are unmapped
            // exactly once.
            #[cfg(unix)]
            unsafe {
                sys::munmap(self.ptr, self.len);
            }
        }
    }
}

/// Decode the edge at record index `i` of a raw edge payload.
#[inline]
pub(crate) fn edge_at(payload: &[u8], i: usize) -> Edge {
    let off = i * EDGE_RECORD_LEN as usize;
    let rec: [u8; 8] = payload[off..off + 8].try_into().expect("record in bounds");
    Edge {
        src: u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]),
        dst: u32::from_le_bytes([rec[4], rec[5], rec[6], rec[7]]),
    }
}

/// Parse the v1 header at the front of a mapped file and check its edge
/// count against the mapping's length.
pub(crate) fn read_mapped_v1_header(bytes: &[u8]) -> io::Result<GraphInfo> {
    let mut cursor = bytes;
    let info = tps_graph::formats::binary::read_header(&mut cursor)?;
    // The edge count is untrusted file input: a corrupt header must
    // become an error here, not a wrapped multiply and a later panic.
    let need = info
        .num_edges
        .checked_mul(EDGE_RECORD_LEN)
        .and_then(|payload| payload.checked_add(HEADER_LEN))
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "header promises an impossible edge count {}",
                    info.num_edges
                ),
            )
        })?;
    if (bytes.len() as u64) < need {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("file holds {} bytes, header promises {need}", bytes.len()),
        ));
    }
    Ok(info)
}

/// The edge records of a mapped v1 file whose header
/// [`read_mapped_v1_header`] accepted as `info`.
#[inline]
pub(crate) fn v1_records(bytes: &[u8], info: GraphInfo) -> &[u8] {
    let start = HEADER_LEN as usize;
    let len = (info.num_edges * EDGE_RECORD_LEN) as usize;
    &bytes[start..start + len]
}

/// A zero-copy [`EdgeStream`] over a memory-mapped TPSBEL1 file.
pub struct MmapEdgeFile {
    path: PathBuf,
    map: Mmap,
    info: GraphInfo,
    cursor: u64,
}

impl MmapEdgeFile {
    /// Map `path` and validate the v1 header.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        let map = Mmap::map(&file)?;
        let info = read_mapped_v1_header(map.as_slice())?;
        Ok(MmapEdgeFile {
            path,
            map,
            info,
            cursor: 0,
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

    /// The raw edge records (zero-copy view past the header).
    pub fn edge_bytes(&self) -> &[u8] {
        v1_records(self.map.as_slice(), self.info)
    }

    /// Random access to edge `i` without advancing the stream.
    pub fn edge(&self, i: u64) -> Edge {
        assert!(i < self.info.num_edges, "edge index out of bounds");
        edge_at(self.edge_bytes(), i as usize)
    }
}

impl EdgeStream for MmapEdgeFile {
    fn reset(&mut self) -> io::Result<()> {
        self.cursor = 0;
        Ok(())
    }

    #[inline]
    fn next_edge(&mut self) -> io::Result<Option<Edge>> {
        if self.cursor >= self.info.num_edges {
            return Ok(None);
        }
        let e = edge_at(self.edge_bytes(), self.cursor as usize);
        self.cursor += 1;
        Ok(Some(e))
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.info.num_edges)
    }

    fn num_vertices_hint(&self) -> Option<u64> {
        Some(self.info.num_vertices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_graph::formats::binary::{write_binary_edge_list, MAGIC};
    use tps_graph::ranged::RangedEdgeSource;
    use tps_graph::stream::for_each_edge;

    fn tmpfile(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tps-io-mmap-{tag}-{}.bel", std::process::id()))
    }

    #[test]
    fn mmap_streams_identical_to_spec_order() {
        let path = tmpfile("order");
        let edges: Vec<Edge> = (0..1000)
            .map(|i| Edge::new(i, (i * 31 + 7) % 2048))
            .collect();
        write_binary_edge_list(&path, 2048, edges.iter().copied()).unwrap();
        let mut m = MmapEdgeFile::open(&path).unwrap();
        assert_eq!(
            m.info(),
            GraphInfo {
                num_vertices: 2048,
                num_edges: 1000
            }
        );
        let mut seen = Vec::new();
        for_each_edge(&mut m, |e| seen.push(e)).unwrap();
        assert_eq!(seen, edges);
        // Second pass identical.
        let mut again = Vec::new();
        for_each_edge(&mut m, |e| again.push(e)).unwrap();
        assert_eq!(again, edges);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn random_access_matches_stream() {
        let path = tmpfile("random");
        let edges: Vec<Edge> = (0..64).map(|i| Edge::new(i * 3, i * 5 + 1)).collect();
        write_binary_edge_list(&path, 1024, edges.iter().copied()).unwrap();
        let m = MmapEdgeFile::open(&path).unwrap();
        for (i, &e) in edges.iter().enumerate() {
            assert_eq!(m.edge(i as u64), e);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        // Both v1 mmap openers share one header check.
        fn open_both(path: &Path) -> [io::Result<GraphInfo>; 2] {
            [
                MmapEdgeFile::open(path).map(|m| m.info()),
                crate::ranged::RangedMmapV1File::open(path).map(|m| m.info()),
            ]
        }
        fn header(num_edges: u64, records: usize) -> Vec<u8> {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&MAGIC);
            bytes.extend_from_slice(&4u64.to_le_bytes());
            bytes.extend_from_slice(&num_edges.to_le_bytes());
            bytes.extend_from_slice(&vec![0u8; 8 * records]);
            bytes
        }

        let path = tmpfile("bad");
        std::fs::write(&path, b"NOTMAGIC________________").unwrap();
        for r in open_both(&path) {
            assert!(r.is_err());
        }

        // Valid header promising more edges than the file holds.
        std::fs::write(&path, header(100, 2)).unwrap();
        for r in open_both(&path) {
            let err = r.expect_err("truncated file must fail");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
            assert_eq!(err.to_string(), "file holds 40 bytes, header promises 824");
        }

        // An edge count whose byte size overflows u64.
        std::fs::write(&path, header(u64::MAX, 2)).unwrap();
        for r in open_both(&path) {
            let err = r.expect_err("absurd edge count must fail");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(
                err.to_string(),
                format!("header promises an impossible edge count {}", u64::MAX)
            );
        }

        // The exact size opens through both.
        std::fs::write(&path, header(2, 2)).unwrap();
        for r in open_both(&path) {
            assert_eq!(r.unwrap().num_edges, 2);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_graph_maps_fine() {
        let path = tmpfile("empty");
        write_binary_edge_list(&path, 0, std::iter::empty()).unwrap();
        let mut m = MmapEdgeFile::open(&path).unwrap();
        assert_eq!(m.next_edge().unwrap(), None);
        std::fs::remove_file(&path).ok();
    }
}
