//! Counter conformance: serial, serial paged (evicting) and a two-thread
//! `ParallelRunner` run of one job report the same counter schema, both in
//! the `RunReport` and as `tps-obs` counters.
//!
//! Obs counters are process-global, so this file holds one test and the
//! three runs execute one after another; each run is judged by how much
//! every counter grew during it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use tps_clustering::paged::MemPageStoreProvider;
use tps_core::parallel::ParallelRunner;
use tps_core::partitioner::{PartitionParams, Partitioner, RunReport};
use tps_core::sink::NullSink;
use tps_core::two_phase::{ClusterPaging, TwoPhaseConfig, TwoPhasePartitioner};
use tps_graph::datasets::Dataset;

/// Run `job`, returning its report and the growth of every obs counter.
fn observed(job: impl FnOnce() -> RunReport) -> (RunReport, BTreeMap<String, u64>) {
    let before: BTreeMap<String, u64> = tps_obs::counters_snapshot().into_iter().collect();
    let report = job();
    let grown = tps_obs::counters_snapshot()
        .into_iter()
        .map(|(name, v)| {
            let grown = v - before.get(&name).unwrap_or(&0);
            (name, grown)
        })
        .collect();
    (report, grown)
}

fn report_keys(report: &RunReport) -> BTreeSet<&str> {
    report.counters.iter().map(|(n, _)| n.as_str()).collect()
}

#[test]
fn serial_paged_and_parallel_share_one_counter_schema() {
    let g = Dataset::Ok.generate_scaled(0.02);
    let params = PartitionParams::new(8);
    let config = TwoPhaseConfig::default();

    let serial = observed(|| {
        TwoPhasePartitioner::new(config)
            .partition(&mut g.stream(), &params, &mut NullSink)
            .unwrap()
    });
    let paged = observed(|| {
        let paging = ClusterPaging {
            budget_bytes: 4 << 10,
            page_size: 512,
            provider: Arc::new(MemPageStoreProvider),
        };
        TwoPhasePartitioner::new(config)
            .with_cluster_paging(paging)
            .partition(&mut g.stream(), &params, &mut NullSink)
            .unwrap()
    });
    let parallel = observed(|| {
        ParallelRunner::new(config, 2)
            .partition(&g, &params, &mut NullSink)
            .unwrap()
    });

    for (mode, (report, obs)) in [
        ("serial", &serial),
        ("paged", &paged),
        ("parallel", &parallel),
    ] {
        // Every edge is pre-partitioned, bounced off a full target, or
        // scored.
        assert_eq!(
            report.counter("prepartitioned")
                + report.counter("prepartition_overflow")
                + report.counter("remaining"),
            g.num_edges(),
            "{mode}"
        );
        // The obs counters carry the report's totals.
        let published = [
            (
                "core.assign.prepartitioned",
                report.counter("prepartitioned"),
            ),
            ("core.assign.remaining", report.counter("remaining")),
            (
                "core.assign.fallback",
                report.counter("fallback_hash") + report.counter("fallback_least_loaded"),
            ),
            ("clustering.clusters", report.counter("clusters")),
        ];
        for (key, want) in published {
            assert_eq!(obs.get(key).copied(), Some(want), "{mode}: obs {key}");
        }
        assert!(report.counter("clusters") > 0, "{mode}");
    }

    // One report schema: paging adds its own block, parallel its thread
    // count, and nothing else differs.
    let serial_keys = report_keys(&serial.0);
    assert!(serial_keys.contains("cap_overshoot"));
    assert_eq!(serial.0.counter("cap_overshoot"), 0);
    let mut want_paged = serial_keys.clone();
    want_paged.extend(["paging_budget_bytes", "paging_faults"]);
    want_paged.extend(["paging_evictions", "paging_writebacks"]);
    assert_eq!(report_keys(&paged.0), want_paged);
    let mut want_parallel = serial_keys.clone();
    want_parallel.insert("threads");
    assert_eq!(report_keys(&parallel.0), want_parallel);

    // The paged run really paged, and decided exactly like the flat one.
    assert!(paged.0.counter("paging_evictions") > 0);
    for key in &serial_keys {
        assert_eq!(paged.0.counter(key), serial.0.counter(key), "paged {key}");
    }
}
