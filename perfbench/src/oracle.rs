//! The output oracle: checks a run's assignments against its input and
//! recomputes quality from scratch, independent of the program's own
//! `QualitySink`.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use tps_core::sink::AssignmentSink;
use tps_graph::types::{Edge, PartitionId};

/// Bytes per assignment record: `src`, `dst`, partition, little-endian u32s.
const RECORD: usize = 12;

/// splitmix64's finaliser: a bijective 64-bit mix.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn edge_key(e: Edge) -> u64 {
    mix((u64::from(e.src) << 32) | u64::from(e.dst))
}

/// Fingerprints of an edge or assignment stream.
///
/// `edges` and `assignments` are sums of per-item hashes, so they identify
/// a multiset whatever the order; `sequence` chains the assignment hashes,
/// so two streams share it only if they emit the same assignments in the
/// same order (bit-identical output).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    pub count: u64,
    pub edges: u64,
    pub assignments: u64,
    pub sequence: u64,
}

impl Fingerprint {
    /// The (src, dst) multiset of the generated input.
    pub fn of_input(edges: &[Edge]) -> Fingerprint {
        Fingerprint {
            count: edges.len() as u64,
            edges: edges
                .iter()
                .fold(0u64, |acc, &e| acc.wrapping_add(edge_key(e))),
            ..Fingerprint::default()
        }
    }

    #[inline]
    fn add(&mut self, edge: Edge, p: PartitionId) {
        let key = edge_key(edge);
        let a = mix(key ^ mix(u64::from(p) + 1));
        self.count += 1;
        self.edges = self.edges.wrapping_add(key);
        self.assignments = self.assignments.wrapping_add(a);
        self.sequence = mix(self.sequence.rotate_left(17) ^ a);
    }
}

/// A sink that only fingerprints what it receives.
#[derive(Default)]
pub struct FingerprintSink(pub Fingerprint);

impl AssignmentSink for FingerprintSink {
    #[inline]
    fn assign(&mut self, edge: Edge, p: PartitionId) -> io::Result<()> {
        self.0.add(edge, p);
        Ok(())
    }
}

/// The job's output sink: every assignment appended to a file, for the
/// oracle to check in another process.
pub struct AssignmentWriter {
    out: BufWriter<File>,
}

impl AssignmentWriter {
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(AssignmentWriter {
            out: BufWriter::with_capacity(1 << 20, File::create(path)?),
        })
    }

    /// Flush, returning any write error (dropping would discard it).
    pub fn finish(mut self) -> io::Result<()> {
        self.out.flush()
    }
}

impl AssignmentSink for AssignmentWriter {
    #[inline]
    fn assign(&mut self, edge: Edge, p: PartitionId) -> io::Result<()> {
        let mut rec = [0u8; RECORD];
        rec[0..4].copy_from_slice(&edge.src.to_le_bytes());
        rec[4..8].copy_from_slice(&edge.dst.to_le_bytes());
        rec[8..12].copy_from_slice(&p.to_le_bytes());
        self.out.write_all(&rec)
    }
}

/// Everything the oracle recomputes from one assignment stream.
#[derive(Clone, Debug)]
pub struct Recomputed {
    pub fingerprint: Fingerprint,
    pub loads: Vec<u64>,
    /// Replicas ÷ vertices with at least one replica.
    pub replication_factor: f64,
    /// Max load ÷ (|E| / k).
    pub balance: f64,
    /// Partition ids ≥ k seen (each one is an error).
    pub out_of_range: u64,
}

/// Recompute fingerprint, loads, RF and balance from an assignment file.
pub fn recompute_file(path: &Path, num_vertices: u64, k: u32) -> io::Result<Recomputed> {
    let mut acc = Accumulator::new(num_vertices, k);
    let mut input = BufReader::with_capacity(1 << 20, File::open(path)?);
    let mut block = vec![0u8; RECORD * 8192];
    loop {
        let n = read_full(&mut input, &mut block)?;
        if n % RECORD != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "assignment file ends mid-record",
            ));
        }
        for rec in block[..n].chunks_exact(RECORD) {
            let word = |i: usize| u32::from_le_bytes(rec[i..i + 4].try_into().expect("4 bytes"));
            acc.assign(Edge::new(word(0), word(4)), word(8))?;
        }
        if n < block.len() {
            return Ok(acc.finish());
        }
    }
}

fn read_full(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut n = 0;
    while n < buf.len() {
        match r.read(&mut buf[n..])? {
            0 => break,
            m => n += m,
        }
    }
    Ok(n)
}

/// An independent quality tracker: a plain bitset per vertex, no shared
/// code with `tps-metrics`.
struct Accumulator {
    k: u32,
    words: usize,
    bits: Vec<u64>,
    fingerprint: Fingerprint,
    loads: Vec<u64>,
    out_of_range: u64,
}

impl Accumulator {
    fn new(num_vertices: u64, k: u32) -> Self {
        let words = (k as usize).div_ceil(64);
        Accumulator {
            k,
            words,
            bits: vec![0; num_vertices as usize * words],
            fingerprint: Fingerprint::default(),
            loads: vec![0; k as usize],
            out_of_range: 0,
        }
    }

    fn finish(self) -> Recomputed {
        let replicas: u64 = self.bits.iter().map(|w| u64::from(w.count_ones())).sum();
        let covered = self
            .bits
            .chunks_exact(self.words)
            .filter(|row| row.iter().any(|&w| w != 0))
            .count() as u64;
        let edges = self.fingerprint.count;
        let max_load = self.loads.iter().copied().max().unwrap_or(0);
        Recomputed {
            fingerprint: self.fingerprint,
            replication_factor: replicas as f64 / covered.max(1) as f64,
            balance: max_load as f64 / (edges.max(1) as f64 / f64::from(self.k)),
            loads: self.loads,
            out_of_range: self.out_of_range,
        }
    }
}

impl AssignmentSink for Accumulator {
    fn assign(&mut self, edge: Edge, p: PartitionId) -> io::Result<()> {
        self.fingerprint.add(edge, p);
        if p >= self.k {
            self.out_of_range += 1;
            return Ok(());
        }
        self.loads[p as usize] += 1;
        for v in [edge.src, edge.dst] {
            let word = v as usize * self.words + p as usize / 64;
            let Some(w) = self.bits.get_mut(word) else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("vertex {v} outside the input's vertex range"),
                ));
            };
            *w |= 1u64 << (p % 64);
        }
        Ok(())
    }
}

/// What a run claims about itself, for the oracle to hold it to.
pub struct Claimed {
    pub replication_factor: f64,
    pub balance: f64,
    pub cap_overshoot: u64,
}

/// Check one run's recomputed output against its input and its own
/// claims. Returns every violation found (empty = valid).
pub fn check(
    input: &Fingerprint,
    out: &Recomputed,
    claimed: &Claimed,
    k: u32,
    alpha: f64,
) -> Vec<String> {
    let mut errors = Vec::new();
    if out.fingerprint.count != input.count || out.fingerprint.edges != input.edges {
        errors.push(format!(
            "edge multiset differs: {} assignments for {} input edges (fingerprint {:016x} vs {:016x})",
            out.fingerprint.count, input.count, out.fingerprint.edges, input.edges
        ));
    }
    if out.out_of_range > 0 {
        errors.push(format!(
            "{} assignments to partitions ≥ k",
            out.out_of_range
        ));
    }
    let cap = (alpha * input.count as f64 / f64::from(k)).ceil() as u64;
    let excess: u64 = out.loads.iter().map(|&l| l.saturating_sub(cap)).sum();
    if excess > claimed.cap_overshoot {
        errors.push(format!(
            "loads exceed the cap {cap} by {excess} edges, {} counted as cap_overshoot",
            claimed.cap_overshoot
        ));
    }
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(1.0);
    if !close(out.replication_factor, claimed.replication_factor) {
        errors.push(format!(
            "replication factor {} recomputed, {} reported",
            out.replication_factor, claimed.replication_factor
        ));
    }
    if !close(out.balance, claimed.balance) {
        errors.push(format!(
            "balance {} recomputed, {} reported",
            out.balance, claimed.balance
        ));
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiset_fingerprint_ignores_order_and_sequence_does_not() {
        let mut a = FingerprintSink::default();
        let mut b = FingerprintSink::default();
        a.assign(Edge::new(1, 2), 0).unwrap();
        a.assign(Edge::new(3, 4), 1).unwrap();
        b.assign(Edge::new(3, 4), 1).unwrap();
        b.assign(Edge::new(1, 2), 0).unwrap();
        assert_eq!(a.0.assignments, b.0.assignments);
        assert_eq!(
            a.0.edges,
            Fingerprint::of_input(&[Edge::new(3, 4), Edge::new(1, 2)]).edges
        );
        assert_ne!(a.0.sequence, b.0.sequence);
    }

    #[test]
    fn recomputes_rf_and_balance() {
        let mut acc = Accumulator::new(4, 2);
        acc.assign(Edge::new(0, 1), 0).unwrap();
        acc.assign(Edge::new(1, 2), 1).unwrap();
        let r = acc.finish();
        // Vertex 1 sits on both partitions: 4 replicas over 3 vertices.
        assert!((r.replication_factor - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.balance, 1.0);
    }
}
