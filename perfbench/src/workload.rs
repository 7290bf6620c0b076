//! The workloads: which generated graph each one partitions, in which
//! file format, with which engine, and what its output must equal.

use std::io;
use std::path::Path;

use tps_core::job::ReaderKind;
use tps_graph::datasets::{Dataset, DatasetConfig};
use tps_graph::formats::binary::write_binary_edge_list;
use tps_graph::gen::{planted, social};
use tps_graph::stream::InMemoryGraph;
use tps_io::v2::{write_v2_edge_list, DEFAULT_CHUNK_EDGES};
use tps_io::{open_edge_stream, open_ranged_backend};

/// On-disk edge format the input is ingested into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// `TPSBEL1`: fixed 8-byte records.
    V1,
    /// `TPSBEL2`: varint-compressed chunks.
    V2,
}

/// How a job partitions its input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// `TwoPhasePartitioner` on one stream (`JobSpec` with `ThreadMode::Serial`).
    Serial,
    /// The serial engine under `JobSpec::mem_budget_mb`: paged cluster state.
    Paged { mem_budget_mb: u64 },
    /// `ParallelRunner` with this many worker threads.
    Threads(usize),
    /// `tps_dist::run_dist_local` with this many loopback workers.
    Dist(usize),
}

impl Engine {
    /// Shards of the phase-by-phase replay that reproduces this engine.
    pub fn shards(self) -> usize {
        match self {
            Engine::Serial | Engine::Paged { .. } => 1,
            Engine::Threads(n) | Engine::Dist(n) => n,
        }
    }

    /// Whether the engine reads one stream (serial) or a ranged source.
    pub fn is_serial(self) -> bool {
        matches!(self, Engine::Serial | Engine::Paged { .. })
    }

    pub fn arg(self) -> String {
        match self {
            Engine::Serial => "serial".to_string(),
            Engine::Paged { mem_budget_mb } => format!("paged:{mem_budget_mb}"),
            Engine::Threads(n) => format!("threads:{n}"),
            Engine::Dist(n) => format!("dist:{n}"),
        }
    }

    pub fn parse(s: &str) -> Result<Engine, String> {
        let (kind, n) = match s.split_once(':') {
            Some((kind, n)) => (kind, n.parse::<u64>().map_err(|e| format!("{s}: {e}"))?),
            None => (s, 0),
        };
        match (kind, n) {
            ("serial", _) => Ok(Engine::Serial),
            ("paged", mb) => Ok(Engine::Paged { mem_budget_mb: mb }),
            ("threads", n) if n >= 1 => Ok(Engine::Threads(n as usize)),
            ("dist", n) if n >= 1 => Ok(Engine::Dist(n as usize)),
            _ => Err(format!("unknown engine {s:?}")),
        }
    }
}

/// What every job's assignments must equal, bit for bit and in order.
#[derive(Clone, Copy, Debug)]
pub enum Reference {
    /// The benchmark's phase-by-phase replay through the public shard
    /// kernels (`ShardAssigner` over one shard is documented ≡ serial, over
    /// `T` shards with the shared matrix ≡ `ParallelRunner` at `T`).
    Replay,
    /// A job of another engine on the same input.
    Job(Engine),
}

pub struct Workload {
    pub name: &'static str,
    pub dataset: Dataset,
    /// `Dataset::config_scaled` factor: 10.0 on `Ok` and 2.5 on `Gsh` both
    /// give 4M edges.
    pub scale: f64,
    pub k: u32,
    pub format: Format,
    pub reader: ReaderKind,
    pub engine: Engine,
    pub reference: Reference,
}

/// Budget of `paged-evict`: its ½ cluster-page share (3 MiB) is below the
/// ~4 MiB cluster table of the 4M-edge `ok` graph, so pages evict (~17k
/// faults); 8 MiB never evicts and 4 MiB thrashes (~370k faults).
pub const PAGED_EVICT_BUDGET_MB: u64 = 6;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serial-social",
        dataset: Dataset::Ok,
        scale: 10.0,
        k: 32,
        format: Format::V2,
        reader: ReaderKind::Buffered,
        engine: Engine::Serial,
        reference: Reference::Replay,
    },
    Workload {
        name: "paged-evict",
        dataset: Dataset::Ok,
        scale: 10.0,
        k: 32,
        format: Format::V2,
        reader: ReaderKind::Buffered,
        engine: Engine::Paged {
            mem_budget_mb: PAGED_EVICT_BUDGET_MB,
        },
        reference: Reference::Job(Engine::Serial),
    },
    Workload {
        name: "parallel-web",
        dataset: Dataset::Gsh,
        scale: 2.5,
        k: 256,
        format: Format::V1,
        reader: ReaderKind::Mmap,
        engine: Engine::Threads(2),
        reference: Reference::Replay,
    },
    Workload {
        name: "dist-loopback",
        dataset: Dataset::Ok,
        scale: 10.0,
        k: 32,
        format: Format::V2,
        reader: ReaderKind::Buffered,
        engine: Engine::Dist(2),
        reference: Reference::Job(Engine::Threads(2)),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Generate this workload's graph for `seed`. Workloads on the same
    /// dataset and seed get the same graph, so their outputs can be
    /// compared across workloads.
    pub fn generate(&self, seed: u64) -> InMemoryGraph {
        let seed = self.dataset.seed() ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        match self.dataset.config_scaled(self.scale) {
            DatasetConfig::Social(cfg) => social::generate(&cfg, seed),
            DatasetConfig::Planted(cfg) => planted::generate(&cfg, seed),
        }
    }

    pub fn input_file_name(&self) -> &'static str {
        match self.format {
            Format::V1 => "input.bel",
            Format::V2 => "input.bel2",
        }
    }

    /// The program's ingest: write the edges in this workload's format.
    pub fn ingest(&self, graph: &InMemoryGraph, path: &Path) -> io::Result<()> {
        let edges = graph.edges().iter().copied();
        match self.format {
            Format::V1 => write_binary_edge_list(path, graph.num_vertices(), edges)?,
            Format::V2 => {
                write_v2_edge_list(path, graph.num_vertices(), edges, DEFAULT_CHUNK_EDGES)?
            }
        };
        Ok(())
    }

    /// Open the ingested file the way this workload's engine reads it.
    pub fn open(&self, path: &Path) -> io::Result<()> {
        if self.engine.is_serial() {
            open_edge_stream(path, self.reader.into()).map(drop)
        } else {
            open_ranged_backend(path, self.reader.into()).map(drop)
        }
    }

    /// v2 chunks in one full pass over the input (0 for v1).
    pub fn chunks(&self, num_edges: u64) -> u64 {
        match self.format {
            Format::V1 => 0,
            Format::V2 => num_edges.div_ceil(u64::from(DEFAULT_CHUNK_EDGES)),
        }
    }
}
