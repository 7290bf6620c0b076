//! The phase-by-phase replay: the job rebuilt from the program's public
//! per-shard kernels (`shard_degrees`, `shard_clustering`,
//! `cluster_placement`, `ShardAssigner`, spool `replay`), with a span
//! around every call. One shard with an owned replica matrix is the serial
//! engine; `T` shards over the shared atomic matrix are `ParallelRunner`;
//! `T` shards with owned matrices OR-merged at the barrier are the
//! distributed workers. Its output must equal the job's bit for bit.

use std::io;

use tps_clustering::merge::merge_clusterings;
use tps_clustering::model::Clustering;
use tps_core::balance::{AtomicLoads, PartitionLoads};
use tps_core::parallel::{
    cluster_placement, merge_degree_tables, overshoot_from_loads, resolve_volume_cap, run_workers,
    run_workers_with, shard_clustering, shard_degrees, ShardAssigner, ShardLoads,
};
use tps_core::partitioner::PartitionParams;
use tps_core::sink::{AssignmentSink, AssignmentSpool, MemorySpoolFactory, SpoolFactory};
use tps_core::two_phase::mapping::ClusterPlacement;
use tps_core::two_phase::{AssignCounters, TwoPhaseConfig};
use tps_graph::degree::DegreeTable;
use tps_graph::ranged::{split_even, RangedEdgeSource};
use tps_metrics::atomic::{AtomicReplicationMatrix, SharedReplicaView};
use tps_metrics::bitmatrix::{ReplicaSet, ReplicationMatrix};

use crate::trace::{SpanId, Tracer};
use crate::workload::Engine;

/// Replica state after phase 2, for the micro timings.
pub enum Replicas {
    /// Shard 0's own matrix (serial, distributed).
    Owned(ReplicationMatrix),
    /// The shared matrix the parallel workers froze at the barrier.
    Shared(AtomicReplicationMatrix),
}

pub struct Replayed {
    pub degrees: DegreeTable,
    pub clustering: Clustering,
    pub placement: ClusterPlacement,
    pub volume_cap: u64,
    pub replicas: Replicas,
    pub counters: AssignCounters,
    pub cap_overshoot: u64,
    /// Words in the parallel workers' post-freeze overlays (0 otherwise).
    pub overlay_words: u64,
}

/// Replay `engine`'s job over `source` into `sink`.
pub fn replay(
    source: &dyn RangedEdgeSource,
    engine: Engine,
    k: u32,
    tracer: &Tracer,
    root: SpanId,
    sink: &mut dyn AssignmentSink,
) -> io::Result<Replayed> {
    let config = TwoPhaseConfig::default();
    let params = PartitionParams::new(k);
    let info = source.info();
    let (nv, ne) = (info.num_vertices, info.num_edges);
    let shards = engine.shards();
    let ranges = split_even(ne, shards);
    let len = |r: (u64, u64)| r.1 - r.0;

    let degrees = tracer.span("phase.degree", root, 0, |ph| {
        run_workers(&ranges, |_, r| {
            tracer.span("graph.shard_degrees", ph, len(r), |_| {
                shard_degrees(source, r, nv)
            })
        })
    })?;
    let degrees = merge_degree_tables(degrees);

    let volume_cap = resolve_volume_cap(&config, k, &degrees);
    let passes = u64::from(config.clustering_passes);
    let mut locals = tracer.span("phase.clustering", root, 0, |ph| {
        run_workers(&ranges, |_, r| {
            tracer.span("clustering.shard_clustering", ph, len(r) * passes, |_| {
                shard_clustering(source, r, &config, &degrees, volume_cap, nv, shards > 1)
            })
        })
    })?;
    // One shard's clustering is the serial one; only shards merge.
    let clustering = if shards == 1 {
        locals.pop().expect("one shard")
    } else {
        tracer.span("clustering.merge", root, 0, |_| {
            merge_clusterings(&locals, &degrees)
        })
    };
    drop(locals);
    let placement = tracer.span("core.mapping", root, 0, |_| {
        cluster_placement(&config, &clustering, k)
    });

    let shared_phase = Phase {
        source,
        ranges: &ranges,
        tracer,
        root,
    };
    let (counters, cap_overshoot, overlay_words, replicas) = match engine {
        Engine::Threads(_) => {
            let ledger = AtomicLoads::new(k, ne, params.alpha);
            let matrix = AtomicReplicationMatrix::new(nv, k);
            let assigners = shared_phase.assign(
                |t| {
                    ShardAssigner::new(
                        config,
                        &degrees,
                        &clustering,
                        &placement,
                        SharedReplicaView::new(&matrix),
                        ShardLoads::with_ledger(&ledger, t, shards),
                    )
                },
                |shards| {
                    for (a, _) in shards {
                        a.freeze_replication();
                    }
                },
                sink,
            )?;
            let counters = sum_counters(&assigners);
            let overshoot = assigners.iter().map(|a| a.overshoot()).sum();
            let overlay = assigners.iter().map(|a| a.overlay_words() as u64).sum();
            drop(assigners);
            (counters, overshoot, overlay, Replicas::Shared(matrix))
        }
        _ => {
            let cap = PartitionLoads::new(k, ne, params.alpha).cap();
            let assigners = shared_phase.assign(
                |t| {
                    ShardAssigner::new(
                        config,
                        &degrees,
                        &clustering,
                        &placement,
                        ReplicationMatrix::new(nv, k),
                        ShardLoads::standalone(k, cap, t, shards),
                    )
                },
                |shards| {
                    if shards.len() > 1 {
                        let mut merged = shards[0].0.replication_shard().clone();
                        for (a, _) in &shards[1..] {
                            merged.merge_from(a.replication_shard());
                        }
                        for (a, _) in shards.iter_mut() {
                            a.install_replication(merged.clone());
                        }
                    }
                },
                sink,
            )?;
            let mut loads = vec![0u64; k as usize];
            for a in &assigners {
                for (sum, &l) in loads.iter_mut().zip(a.local_loads()) {
                    *sum += l;
                }
            }
            let overshoot = overshoot_from_loads(&loads, k, ne, params.alpha);
            let matrix = assigners[0].replication_shard().clone();
            (
                sum_counters(&assigners),
                overshoot,
                0,
                Replicas::Owned(matrix),
            )
        }
    };
    Ok(Replayed {
        degrees,
        clustering,
        placement,
        volume_cap,
        replicas,
        counters,
        cap_overshoot,
        overlay_words,
    })
}

fn sum_counters<R: ReplicaSet>(assigners: &[ShardAssigner<'_, R>]) -> AssignCounters {
    let mut total = AssignCounters::default();
    for a in assigners {
        total.merge(&a.counters());
    }
    total
}

type Shard<'a, R> = (ShardAssigner<'a, R>, Box<dyn AssignmentSpool>);

/// Phase 2's edge passes over every shard, as `ParallelRunner` schedules
/// them.
struct Phase<'s> {
    source: &'s dyn RangedEdgeSource,
    ranges: &'s [(u64, u64)],
    tracer: &'s Tracer,
    root: SpanId,
}

impl Phase<'_> {
    /// Pre-partition every shard, cross the replica `barrier`, score the
    /// remaining edges, then replay the spools into `sink` in shard order.
    fn assign<'a, R: ReplicaSet + Send>(
        &self,
        new_assigner: impl Fn(usize) -> ShardAssigner<'a, R> + Sync,
        barrier: impl FnOnce(&mut [Shard<'a, R>]),
        sink: &mut dyn AssignmentSink,
    ) -> io::Result<Vec<ShardAssigner<'a, R>>> {
        let (source, tracer, root) = (self.source, self.tracer, self.root);
        let len = |r: (u64, u64)| r.1 - r.0;
        let mut shards = tracer.span("phase.prepartition", root, 0, |ph| {
            run_workers(self.ranges, |t, r| {
                tracer.span("core.prepartition_pass", ph, len(r), |sp| {
                    let mut assigner = new_assigner(t);
                    let mut spool = MemorySpoolFactory.create_spool(t)?;
                    let mut s =
                        tracer.span("io.open_range", sp, 0, |_| source.open_range(r.0, r.1))?;
                    assigner.prepartition_pass(&mut *s, &mut *spool)?;
                    Ok((assigner, spool))
                })
            })
        })?;
        tracer.span("core.replica_barrier", root, 0, |_| barrier(&mut shards));
        let mut shards = tracer.span("phase.remaining", root, 0, |ph| {
            run_workers_with(self.ranges, shards, |_, r, (mut assigner, mut spool)| {
                tracer.span("core.remaining_pass", ph, len(r), |sp| {
                    let mut s =
                        tracer.span("io.open_range", sp, 0, |_| source.open_range(r.0, r.1))?;
                    assigner.remaining_pass(&mut *s, &mut *spool)?;
                    Ok((assigner, spool))
                })
            })
        })?;
        tracer.span("core.emit", root, 0, |em| {
            for (t, (_, spool)) in shards.iter_mut().enumerate() {
                tracer.span("core.spool_replay", em, len(self.ranges[t]), |_| {
                    spool.replay(sink)
                })?;
            }
            Ok::<_, io::Error>(())
        })?;
        Ok(shards.into_iter().map(|(a, _)| a).collect())
    }
}
