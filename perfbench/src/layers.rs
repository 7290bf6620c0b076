//! The traced run: per-layer costs from spans around public calls, hot
//! structure micro timings on the workload's own state, and mode ratios
//! timed interleaved in one process.

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tps_clustering::paged::{PageStoreProvider, PagedClustering};
use tps_clustering::streaming::clustering_pass_on;
use tps_core::job::MemBudgetSplit;
use tps_core::sink::NullSink;
use tps_core::two_phase::scoring::{two_choice_best, EdgeScoreInputs};
use tps_core::two_phase::{ClusterPaging, TwoPhaseConfig};
use tps_graph::stream::EdgeStream;
use tps_graph::types::Edge;
use tps_io::v2::{set_decode_cache_budget, DECODE_CACHE_DEFAULT_BYTES};
use tps_io::{open_edge_stream, open_ranged_backend, TempPageStoreProvider};
use tps_metrics::atomic::SharedReplicaView;
use tps_metrics::bitmatrix::ReplicaSet;

use crate::job::run_engine;
use crate::oracle::{Fingerprint, FingerprintSink};
use crate::replay::{replay, Replayed, Replicas};
use crate::trace::{self, SpanRecord, Tracer};
use crate::workload::{Engine, Workload};
use crate::{median, regime_errors, Checks, Metric, SETUP_REPS};

/// Edges in the fixed sample the micro timings run over.
const SAMPLE_EDGES: usize = 4096;
/// Interleaved pairs per mode ratio (the first side alternates).
const RATIO_PAIRS: usize = 2;
/// A budget under which the whole cluster table stays resident (the
/// `paged_resident_vs_flat` setting: the paging code path, no eviction).
const RESIDENT_BUDGET_MB: u64 = 4096;
const MIB: f64 = (1u64 << 20) as f64;

/// Run the traced measurement of `w` on `seed`'s graph, writing the spans
/// to `trace_path`.
pub fn run(
    w: &Workload,
    seed: u64,
    work: &Path,
    trace_path: &Path,
    checks: &mut Checks,
) -> io::Result<Vec<Metric>> {
    let tracer = Tracer::new(true);
    let graph = w.generate(seed);
    let input = Fingerprint::of_input(graph.edges());
    let (nv, ne) = (graph.num_vertices(), graph.num_edges());
    let path = work.join(w.input_file_name());
    for _ in 0..SETUP_REPS {
        tracer.span("io.ingest", 0, ne, |_| w.ingest(&graph, &path))?;
        tracer.span("io.open", 0, 0, |_| w.open(&path))?;
        crate::settle(&path)?;
    }
    let stride = (graph.edges().len() / SAMPLE_EDGES).max(1);
    let sample: Vec<Edge> = graph.edges().iter().step_by(stride).copied().collect();
    drop(graph);

    // One cold and one warm pass through the job's reader, under the job's
    // decode-cache budget.
    let (pages_budget, decode_budget) = match w.engine {
        Engine::Paged { mem_budget_mb } => {
            let split = MemBudgetSplit::of(mem_budget_mb << 20);
            (split.cluster_pages, split.decode_cache)
        }
        _ => (
            MemBudgetSplit::of(RESIDENT_BUDGET_MB << 20).cluster_pages,
            DECODE_CACHE_DEFAULT_BYTES,
        ),
    };
    set_decode_cache_budget(decode_budget);
    let mut stream = open_edge_stream(&path, w.reader.into())?;
    let cold = tracer.span("io.cold_pass", 0, ne, |_| count_pass(&mut *stream))?;
    let warm = tracer.span("io.warm_pass", 0, ne, |_| count_pass(&mut *stream))?;
    checks.expect(cold == ne && warm == ne, || {
        format!("passes streamed {cold} and {warm} edges of {ne}")
    });
    drop(stream);

    // The job rebuilt phase by phase from the public kernels.
    let source = open_ranged_backend(&path, w.reader.into())?;
    let mut replayed_fp = FingerprintSink::default();
    let replayed = tracer.span("replay", 0, 0, |root| {
        replay(&*source, w.engine, w.k, &tracer, root, &mut replayed_fp)
    })?;
    drop(source);
    checks.expect(
        replayed_fp.0.edges == input.edges && replayed_fp.0.count == ne,
        || "the replay did not assign every input edge exactly once".to_string(),
    );

    // Phase 1 again on the paged cluster table, under the job's cluster-page
    // budget (resident where the workload sets none).
    let provider: Arc<dyn PageStoreProvider> =
        Arc::new(TempPageStoreProvider::new(work.join("pages")));
    let passes = TwoPhaseConfig::default().clustering_passes;
    let paged_pass = |budget: u64, name: &'static str| -> io::Result<PagedClustering> {
        let paging = ClusterPaging::new(budget, Arc::clone(&provider));
        let store = paging.provider.open_store(paging.page_size)?;
        let mut table = PagedClustering::with_page_size(nv, budget, paging.page_size, store);
        let mut stream = open_edge_stream(&path, w.reader.into())?;
        tracer.span(name, 0, ne * u64::from(passes), |_| {
            for _ in 0..passes {
                clustering_pass_on(
                    &mut *stream,
                    &replayed.degrees,
                    replayed.volume_cap,
                    &mut table,
                )?;
            }
            table.check_io()
        })?;
        Ok(table)
    };
    let paged = paged_pass(pages_budget, "clustering.paged_pass")?;
    let resident_mb = paged.resident_bytes() as f64 / MIB;
    let mut resident = if matches!(w.engine, Engine::Paged { .. }) {
        paged_pass(
            MemBudgetSplit::of(RESIDENT_BUDGET_MB << 20).cluster_pages,
            "clustering.resident_pass",
        )?
    } else {
        paged
    };
    if w.engine.shards() == 1 {
        let differ = sample
            .iter()
            .filter(|e| resident.raw_cluster_of(e.src) != replayed.clustering.raw_cluster_of(e.src))
            .count();
        checks.expect(differ == 0, || {
            format!("paged clustering differs from the flat one on {differ} sampled vertices")
        });
    }

    let micro = Micro::measure(&tracer, w, &replayed, &mut resident, &sample);
    drop(resident);

    // The job itself, in this process, for its counters and output.
    let mut job_fp = FingerprintSink::default();
    let job = tracer.span("job", 0, ne, |_| {
        run_engine(w.engine, w.reader, w.k, &path, None, &mut job_fp)
    })?;
    checks.expect(job_fp.0 == replayed_fp.0, || {
        format!(
            "job output {:016x} differs from the phase-by-phase replay {:016x}",
            job_fp.0.sequence, replayed_fp.0.sequence
        )
    });
    for e in regime_errors(w, &job, ne, replayed.overlay_words) {
        checks.expect(false, || e.clone());
    }

    // Mode ratios, each side timed interleaved on the same file.
    let time = |engine: Engine, trace: Option<&Path>| -> io::Result<Duration> {
        Ok(run_engine(engine, w.reader, w.k, &path, trace, &mut NullSink)?.wall)
    };
    let program_trace = work.join("program-trace.jsonl");
    let trace_overhead = interleaved(
        &tracer,
        "ratio.trace_overhead",
        || time(w.engine, Some(&program_trace)),
        || time(w.engine, None),
    )?;
    let t1_vs_serial = interleaved(
        &tracer,
        "ratio.t1_vs_serial",
        || time(Engine::Threads(1), None),
        || time(Engine::Serial, None),
    )?;
    let paged_vs_flat = interleaved(
        &tracer,
        "ratio.paged_resident_vs_flat",
        || {
            time(
                Engine::Paged {
                    mem_budget_mb: RESIDENT_BUDGET_MB,
                },
                None,
            )
        },
        || time(Engine::Serial, None),
    )?;
    let dist_vs_threads = interleaved(
        &tracer,
        "ratio.dist_vs_threads",
        || time(Engine::Dist(2), None),
        || time(Engine::Threads(2), None),
    )?;

    let spans = tracer.spans();
    trace::write_jsonl(trace_path, &spans, w.name, seed)?;
    let selfs = trace::self_times(&spans);
    let per_edge = |name: &str| trace::ns_per_edge(&spans, &selfs, name).unwrap_or(0.0);
    let ms = |name: &str| trace::self_ns(&spans, &selfs, name) as f64 / 1e6;
    let ne_f = ne as f64;
    let counters = &replayed.counters;
    let frame_bytes = job.obs("dist.frames.bytes") / 2; // counted on send and on receive
    let words_per_vertex = u64::from(w.k).div_ceil(64);
    Ok(vec![
        Metric::new("io.ingest_ns_per_edge", per_edge("io.ingest"), "ns/edge"),
        Metric::new("io.open_ms", ms("io.open") / SETUP_REPS as f64, "ms"),
        Metric::new(
            "io.cold_pass_ns_per_edge",
            per_edge("io.cold_pass"),
            "ns/edge",
        ),
        Metric::new(
            "io.warm_pass_ns_per_edge",
            per_edge("io.warm_pass"),
            "ns/edge",
        ),
        Metric::new(
            "io.chunks_decoded",
            job.obs("io.v2.chunks_decoded") as f64,
            "count",
        ),
        Metric::new(
            "graph.degree_ns_per_edge",
            per_edge("graph.shard_degrees"),
            "ns/edge",
        ),
        Metric::new(
            "clustering.pass_ns_per_edge",
            per_edge("clustering.shard_clustering"),
            "ns/edge",
        ),
        Metric::new(
            "clustering.clusters",
            replayed.clustering.num_nonempty_clusters() as f64,
            "count",
        ),
        Metric::new(
            "clustering.paged_pass_ns_per_edge",
            per_edge("clustering.paged_pass"),
            "ns/edge",
        ),
        Metric::new(
            "clustering.paged.faults",
            job.report("paging_faults") as f64,
            "count",
        ),
        Metric::new(
            "clustering.paged.evictions",
            job.report("paging_evictions") as f64,
            "count",
        ),
        Metric::new(
            "clustering.paged.writebacks",
            job.report("paging_writebacks") as f64,
            "count",
        ),
        Metric::new("clustering.paged.resident_mb", resident_mb, "MB"),
        Metric::new("clustering.paged_lookup_ns", micro.paged_lookup_ns, "ns"),
        Metric::new("clustering.v2c_lookup_ns", micro.v2c_lookup_ns, "ns"),
        Metric::new(
            "core.prepartition_ns_per_edge",
            per_edge("core.prepartition_pass"),
            "ns/edge",
        ),
        Metric::new(
            "core.score_ns_per_remaining_edge",
            ms("core.remaining_pass") * 1e6 / counters.remaining.max(1) as f64,
            "ns/edge",
        ),
        Metric::new("core.two_choice_ns", micro.two_choice_ns, "ns"),
        Metric::new("core.mapping_ms", ms("core.mapping"), "ms"),
        Metric::new(
            "core.prepartition_rate",
            counters.prepartitioned as f64 / ne_f,
            "ratio",
        ),
        Metric::new(
            "core.fallback_rate",
            (counters.fallback_hash + counters.fallback_least_loaded) as f64 / ne_f,
            "ratio",
        ),
        Metric::new(
            "core.emit_ns_per_edge",
            per_edge("core.spool_replay"),
            "ns/edge",
        ),
        Metric::new(
            "core.parallel.barrier_wait_frac",
            barrier_wait_frac(&spans),
            "ratio",
        ),
        Metric::new("core.cap_overshoot", replayed.cap_overshoot as f64, "count"),
        Metric::new("metrics.replica_probe_ns", micro.replica_probe_ns, "ns"),
        Metric::new(
            "metrics.overlay_words",
            replayed.overlay_words as f64,
            "count",
        ),
        Metric::new(
            "metrics.replica_matrix_mb",
            (nv * words_per_vertex * 8) as f64 / MIB,
            "MB",
        ),
        Metric::new("dist.frames", job.obs("dist.frames.sent") as f64, "count"),
        Metric::new("dist.frame_bytes", frame_bytes as f64, "bytes"),
        Metric::new("dist.bytes_per_edge", frame_bytes as f64 / ne_f, "B/edge"),
        Metric::new("obs.trace_overhead.ratio", trace_overhead, "ratio"),
        Metric::new("core.t1_vs_serial.ratio", t1_vs_serial, "ratio"),
        Metric::new(
            "clustering.paged_resident_vs_flat.ratio",
            paged_vs_flat,
            "ratio",
        ),
        Metric::new("dist.vs_threads.ratio", dist_vs_threads, "ratio"),
    ])
}

/// Stream one full pass (rewinding first), returning the edge count.
fn count_pass(stream: &mut dyn EdgeStream) -> io::Result<u64> {
    stream.reset()?;
    let mut n = 0u64;
    while let Some(e) = stream.next_edge()? {
        black_box(e);
        n += 1;
    }
    Ok(n)
}

/// `median(a) ÷ median(b)` over [`RATIO_PAIRS`] pairs, alternating which
/// side runs first.
fn interleaved(
    tracer: &Tracer,
    name: &'static str,
    mut a: impl FnMut() -> io::Result<Duration>,
    mut b: impl FnMut() -> io::Result<Duration>,
) -> io::Result<f64> {
    tracer.span(name, 0, 0, |_| {
        let (mut ta, mut tb) = (Vec::new(), Vec::new());
        for pair in 0..RATIO_PAIRS {
            if pair % 2 == 0 {
                ta.push(a()?.as_secs_f64());
                tb.push(b()?.as_secs_f64());
            } else {
                tb.push(b()?.as_secs_f64());
                ta.push(a()?.as_secs_f64());
            }
        }
        Ok(median(&ta) / median(&tb))
    })
}

/// Share of the parallel phases' wall time in which some worker had
/// already finished: Σ(phase wall − slowest worker) ÷ Σ phase wall.
fn barrier_wait_frac(spans: &[SpanRecord]) -> f64 {
    let (mut wall, mut waiting) = (0u64, 0u64);
    for phase in spans.iter().filter(|s| s.name.starts_with("phase.")) {
        let slowest = spans
            .iter()
            .filter(|s| s.parent == phase.id)
            .map(SpanRecord::duration_ns)
            .max()
            .unwrap_or(0);
        wall += phase.duration_ns();
        waiting += phase.duration_ns() - slowest.min(phase.duration_ns());
    }
    waiting as f64 / wall.max(1) as f64
}

/// Hot-structure costs per operation, on the workload's post-phase state
/// and a fixed sample of its own edges.
struct Micro {
    replica_probe_ns: f64,
    v2c_lookup_ns: f64,
    paged_lookup_ns: f64,
    two_choice_ns: f64,
}

impl Micro {
    fn measure(
        tracer: &Tracer,
        w: &Workload,
        r: &Replayed,
        resident: &mut PagedClustering,
        sample: &[Edge],
    ) -> Micro {
        let ops = sample.len() as u64;
        let v2c_lookup_ns = tracer.span("micro.v2c_lookup", 0, 0, |_| {
            per_op(2 * ops, || {
                for e in sample {
                    black_box(r.clustering.raw_cluster_of(black_box(e.src)));
                    black_box(r.clustering.raw_cluster_of(black_box(e.dst)));
                }
            })
        });
        let paged_lookup_ns = tracer.span("micro.paged_lookup", 0, 0, |_| {
            per_op(2 * ops, || {
                for e in sample {
                    black_box(resident.raw_cluster_of(black_box(e.src)));
                    black_box(resident.raw_cluster_of(black_box(e.dst)));
                }
            })
        });
        let inputs: Vec<EdgeScoreInputs> = sample
            .iter()
            .map(|e| {
                let (cu, cv) = (
                    r.clustering.raw_cluster_of(e.src),
                    r.clustering.raw_cluster_of(e.dst),
                );
                EdgeScoreInputs {
                    u: e.src,
                    v: e.dst,
                    du: u64::from(r.degrees.degree(e.src)),
                    dv: u64::from(r.degrees.degree(e.dst)),
                    vol_cu: r.clustering.volume(cu),
                    vol_cv: r.clustering.volume(cv),
                    pu: r.placement.partition_of(cu),
                    pv: r.placement.partition_of(cv),
                }
            })
            .collect();
        // Probe the partitions scoring would probe: each endpoint's cluster
        // partition.
        let probes: Vec<(u32, u32)> = inputs
            .iter()
            .flat_map(|i| [(i.u, i.pv), (i.v, i.pu)])
            .collect();
        let (replica_probe_ns, two_choice_ns) = match &r.replicas {
            Replicas::Owned(m) => time_replicas(tracer, m, &probes, &inputs),
            Replicas::Shared(shared) => {
                // A frozen view whose overlay holds scoring-time writes, one
                // per sampled edge, as a worker's would.
                let mut view = SharedReplicaView::new(shared);
                view.freeze();
                for (i, e) in sample.iter().enumerate() {
                    view.insert(e.src, (i as u32).wrapping_mul(2_654_435_761) % w.k);
                }
                time_replicas(tracer, &view, &probes, &inputs)
            }
        };
        Micro {
            replica_probe_ns,
            v2c_lookup_ns,
            paged_lookup_ns,
            two_choice_ns,
        }
    }
}

/// Per-operation cost of a replica-bit probe and of `two_choice_best`
/// against `set`.
fn time_replicas<R: ReplicaSet>(
    tracer: &Tracer,
    set: &R,
    probes: &[(u32, u32)],
    inputs: &[EdgeScoreInputs],
) -> (f64, f64) {
    let probe_ns = tracer.span("micro.replica_probe", 0, 0, |_| {
        per_op(probes.len() as u64, || {
            for &(v, p) in probes {
                black_box(set.contains(black_box(v), p));
            }
        })
    });
    let score_ns = tracer.span("micro.two_choice", 0, 0, |_| {
        per_op(inputs.len() as u64, || {
            for i in inputs {
                black_box(two_choice_best(black_box(i), set));
            }
        })
    });
    (probe_ns, score_ns)
}

/// Nanoseconds per operation of `f` (which performs `ops` operations):
/// the median of five ≥20 ms batches, after one warm-up call.
fn per_op(ops: u64, mut f: impl FnMut()) -> f64 {
    f();
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0u64;
            while start.elapsed() < Duration::from_millis(20) {
                f();
                calls += 1;
            }
            start.elapsed().as_nanos() as f64 / (calls * ops) as f64
        })
        .collect();
    median(&batches)
}
