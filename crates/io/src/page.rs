//! The checksummed page store backing out-of-core cluster paging.
//!
//! [`FilePageStore`] implements `tps-clustering`'s
//! [`PageBacking`] over a single slotted file: every page lives in a
//! fixed-layout slot (`key`, `length`, word-wise FNV-1a checksum,
//! payload), new keys append, re-written keys overwrite their slot in
//! place (all pages of a store share one size, so slots never grow). An in-memory directory maps
//! keys to slot offsets — `O(#pages)` at 16 bytes per *page*, three to
//! four orders of magnitude below the paged data itself.
//!
//! Integrity: a read that hits a slot whose stored key, length or checksum
//! disagrees with expectations fails loudly (`InvalidData`) instead of
//! handing back silently wrong cluster state; a slot cut short by
//! truncation surfaces as `UnexpectedEof`. The paged partitioning path
//! checks for these after every phase (`PagedClustering::check_io`).

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use tps_clustering::paged::{PageBacking, PageStoreProvider};

/// Slot header: key (8) + payload length (4) + FNV-1a checksum (8).
const SLOT_HEADER_LEN: u64 = 20;

/// 64-bit FNV-1a over a page payload, one little-endian `u64` word per
/// step (then the sub-word tail byte by byte) — an eighth of the steps of
/// the byte-wise hash. Each step (xor, multiply by an odd prime) is a
/// bijection of the state for a fixed input, so a change confined to one
/// word (or one tail byte) always changes the sum.
fn fnv1a(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        hash ^= u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        hash = hash.wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A slotted, checksummed, overwrite-in-place page file (see module docs).
/// The backing file is removed on drop.
#[derive(Debug)]
pub struct FilePageStore {
    file: File,
    path: PathBuf,
    page_size: usize,
    /// Page key → slot start offset.
    directory: HashMap<u64, u64>,
    /// Append cursor for slots of never-before-written keys.
    end: u64,
}

impl FilePageStore {
    /// Create an empty store for `page_size`-byte pages at `path`
    /// (truncating anything already there).
    pub fn create(path: &Path, page_size: usize) -> io::Result<Self> {
        assert!(page_size > 0, "page size must be positive");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FilePageStore {
            file,
            path: path.to_path_buf(),
            page_size,
            directory: HashMap::new(),
            end: 0,
        })
    }

    /// Number of distinct pages stored.
    pub fn num_pages(&self) -> usize {
        self.directory.len()
    }

    /// Bytes the store occupies on disk.
    pub fn file_bytes(&self) -> u64 {
        self.end
    }
}

impl Drop for FilePageStore {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

impl PageBacking for FilePageStore {
    fn read_page(&mut self, key: u64, buf: &mut [u8]) -> io::Result<bool> {
        debug_assert_eq!(buf.len(), self.page_size);
        let Some(&offset) = self.directory.get(&key) else {
            return Ok(false);
        };
        self.file.seek(SeekFrom::Start(offset))?;
        let mut header = [0u8; SLOT_HEADER_LEN as usize];
        self.file.read_exact(&mut header).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("page {key:#x}: slot header truncated"),
                )
            } else {
                e
            }
        })?;
        let stored_key = u64::from_le_bytes(header[0..8].try_into().unwrap());
        let stored_len = u32::from_le_bytes(header[8..12].try_into().unwrap());
        let stored_sum = u64::from_le_bytes(header[12..20].try_into().unwrap());
        if stored_key != key {
            return Err(invalid(format!(
                "page {key:#x}: slot holds key {stored_key:#x} (corrupt directory or slot)"
            )));
        }
        if stored_len as usize != self.page_size {
            return Err(invalid(format!(
                "page {key:#x}: slot length {stored_len} != page size {}",
                self.page_size
            )));
        }
        self.file.read_exact(buf).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("page {key:#x}: slot payload truncated"),
                )
            } else {
                e
            }
        })?;
        if fnv1a(buf) != stored_sum {
            return Err(invalid(format!(
                "page {key:#x}: checksum mismatch (corrupt slot)"
            )));
        }
        Ok(true)
    }

    fn write_pages(&mut self, pages: &[(u64, Vec<u8>)]) -> io::Result<()> {
        for (key, data) in pages {
            debug_assert_eq!(data.len(), self.page_size);
            let offset = match self.directory.get(key) {
                Some(&off) => off,
                None => {
                    let off = self.end;
                    self.directory.insert(*key, off);
                    self.end += SLOT_HEADER_LEN + self.page_size as u64;
                    off
                }
            };
            let mut slot = Vec::with_capacity(SLOT_HEADER_LEN as usize + data.len());
            slot.extend_from_slice(&key.to_le_bytes());
            slot.extend_from_slice(&(data.len() as u32).to_le_bytes());
            slot.extend_from_slice(&fnv1a(data).to_le_bytes());
            slot.extend_from_slice(data);
            self.file.seek(SeekFrom::Start(offset))?;
            self.file.write_all(&slot)?;
        }
        Ok(())
    }
}

/// A [`PageStoreProvider`] creating [`FilePageStore`]s in a directory
/// (typically under the system temp dir). Each store gets a unique file;
/// stores remove their files on drop, and providers remove the directory
/// on drop if it emptied.
#[derive(Debug)]
pub struct TempPageStoreProvider {
    dir: PathBuf,
    counter: AtomicU64,
}

impl TempPageStoreProvider {
    /// A provider creating stores inside `dir` (created on first use).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TempPageStoreProvider {
            dir: dir.into(),
            counter: AtomicU64::new(0),
        }
    }
}

impl Drop for TempPageStoreProvider {
    fn drop(&mut self) {
        // Only removes the directory when no store files remain.
        let _ = fs::remove_dir(&self.dir);
    }
}

impl PageStoreProvider for TempPageStoreProvider {
    fn open_store(&self, page_size: usize) -> io::Result<Box<dyn PageBacking>> {
        fs::create_dir_all(&self.dir)?;
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let path = self
            .dir
            .join(format!("pages-{}-{n}.tpspage", std::process::id()));
        Ok(Box::new(FilePageStore::create(&path, page_size)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_clustering::paged::{MemPageBacking, PagedClustering};
    use tps_clustering::streaming::{clustering_pass_on, VolumeCap};
    use tps_graph::degree::DegreeTable;
    use tps_graph::gen::planted::{self, PlantedConfig};

    fn tmpfile(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tps-io-page-{tag}-{}.tpspage", std::process::id()))
    }

    fn page(fill: u8, size: usize) -> Vec<u8> {
        vec![fill; size]
    }

    #[test]
    fn roundtrip_and_unknown_keys() {
        let path = tmpfile("roundtrip");
        let mut store = FilePageStore::create(&path, 64).unwrap();
        store
            .write_pages(&[(1, page(0xAA, 64)), (9, page(0xBB, 64))])
            .unwrap();
        let mut buf = vec![0u8; 64];
        assert!(store.read_page(9, &mut buf).unwrap());
        assert_eq!(buf, page(0xBB, 64));
        assert!(store.read_page(1, &mut buf).unwrap());
        assert_eq!(buf, page(0xAA, 64));
        assert!(!store.read_page(7, &mut buf).unwrap(), "never written");
        assert_eq!(store.num_pages(), 2);
    }

    #[test]
    fn overwrite_in_place_keeps_file_size() {
        let path = tmpfile("overwrite");
        let mut store = FilePageStore::create(&path, 32).unwrap();
        store.write_pages(&[(5, page(1, 32))]).unwrap();
        let size_once = store.file_bytes();
        for round in 2..10u8 {
            store.write_pages(&[(5, page(round, 32))]).unwrap();
        }
        assert_eq!(store.file_bytes(), size_once, "overwrites must not grow");
        let mut buf = vec![0u8; 32];
        assert!(store.read_page(5, &mut buf).unwrap());
        assert_eq!(buf, page(9, 32));
    }

    /// Every single-byte flip of the payload must fail the checksum — for a
    /// whole-word page and for one with a sub-word tail (12 = 8 + 4).
    #[test]
    fn corrupt_payload_fails_checksum() {
        for size in [64usize, 12] {
            let path = tmpfile(&format!("corrupt{size}"));
            let mut store = FilePageStore::create(&path, size).unwrap();
            let mut buf = vec![0u8; size];
            for offset in 0..size as u64 {
                let original: Vec<u8> = (0..size as u8).map(|b| b.wrapping_mul(37)).collect();
                store.write_pages(&[(3, original.clone())]).unwrap();
                // Flip one payload byte out-of-band.
                let mut f = OpenOptions::new().write(true).open(&path).unwrap();
                f.seek(SeekFrom::Start(SLOT_HEADER_LEN + offset)).unwrap();
                f.write_all(&[original[offset as usize] ^ 0x99]).unwrap();
                drop(f);
                let err = store.read_page(3, &mut buf).unwrap_err();
                assert_eq!(
                    err.kind(),
                    io::ErrorKind::InvalidData,
                    "size {size}, offset {offset}"
                );
                assert!(
                    err.to_string().contains("checksum"),
                    "size {size}, offset {offset}: {err}"
                );
            }
        }
    }

    #[test]
    fn corrupt_slot_key_is_detected() {
        let path = tmpfile("badkey");
        let mut store = FilePageStore::create(&path, 16).unwrap();
        store.write_pages(&[(42, page(7, 16))]).unwrap();
        let mut f = OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(0)).unwrap();
        f.write_all(&77u64.to_le_bytes()).unwrap();
        drop(f);
        let mut buf = vec![0u8; 16];
        let err = store.read_page(42, &mut buf).unwrap_err();
        assert!(err.to_string().contains("key"), "{err}");
    }

    #[test]
    fn truncated_slot_is_detected() {
        let path = tmpfile("trunc");
        let mut store = FilePageStore::create(&path, 64).unwrap();
        store
            .write_pages(&[(1, page(1, 64)), (2, page(2, 64))])
            .unwrap();
        // Cut the file mid-way through the second slot's payload.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(SLOT_HEADER_LEN + 64 + SLOT_HEADER_LEN + 10)
            .unwrap();
        drop(f);
        let mut buf = vec![0u8; 64];
        assert!(store.read_page(1, &mut buf).unwrap(), "first slot intact");
        let err = store.read_page(2, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn store_file_removed_on_drop() {
        let path = tmpfile("dropclean");
        let mut store = FilePageStore::create(&path, 16).unwrap();
        store.write_pages(&[(0, page(0, 16))]).unwrap();
        assert!(path.exists());
        drop(store);
        assert!(!path.exists());
    }

    #[test]
    fn provider_hands_out_distinct_stores() {
        let dir = std::env::temp_dir().join(format!("tps-io-pagedir-{}", std::process::id()));
        let provider = TempPageStoreProvider::new(&dir);
        let mut a = provider.open_store(32).unwrap();
        let mut b = provider.open_store(32).unwrap();
        a.write_pages(&[(1, page(0xA, 32))]).unwrap();
        let mut buf = vec![0u8; 32];
        assert!(!b.read_page(1, &mut buf).unwrap(), "stores are independent");
        drop(a);
        drop(b);
        drop(provider);
        assert!(!dir.exists(), "empty store dir cleaned up");
    }

    /// The file store and the in-memory backing are interchangeable under
    /// a real clustering workload: same final state, byte for byte.
    #[test]
    fn paged_clustering_over_file_store_matches_mem_backing() {
        let g = planted::generate(&PlantedConfig::web(600, 3000), 3);
        let mut s = g.stream();
        let degrees = DegreeTable::compute(&mut s, g.num_vertices()).unwrap();
        let cap = VolumeCap::FractionOfTotal(1.0 / 8.0).resolve(degrees.total_volume());
        let run = |backing: Box<dyn PageBacking>| -> PagedClustering {
            // 4 tiny frames: heavy eviction through the backing under test.
            let mut t = PagedClustering::with_page_size(g.num_vertices(), 4 * 64, 64, backing);
            for _ in 0..2 {
                let mut s = g.stream();
                clustering_pass_on(&mut s, &degrees, cap, &mut t).unwrap();
            }
            t.check_io().unwrap();
            t
        };
        let path = tmpfile("clustered");
        let mut on_file = run(Box::new(FilePageStore::create(&path, 64).unwrap()));
        let mut in_mem = run(Box::new(MemPageBacking::new()));
        assert_eq!(on_file.num_cluster_ids(), in_mem.num_cluster_ids());
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(on_file.raw_cluster_of(v), in_mem.raw_cluster_of(v), "v={v}");
        }
        on_file.check_io().unwrap();
        in_mem.check_io().unwrap();
    }
}
