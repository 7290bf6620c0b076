//! Run outcomes: what one [`crate::job::JobSpec`] run produces.

use std::time::Duration;

use tps_metrics::quality::PartitionMetrics;

use crate::partitioner::RunReport;

/// Everything one partitioning run produces.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Algorithm name.
    pub name: String,
    /// Ground-truth quality metrics (from the emitted assignments).
    pub metrics: PartitionMetrics,
    /// The partitioner's own phase/counter report.
    pub report: RunReport,
    /// End-to-end wall-clock time of the `partition` call.
    pub wall_time: Duration,
    /// Peak heap growth during the run in bytes (0 unless the counting
    /// allocator is installed — bench binaries install it).
    pub peak_heap_bytes: usize,
}

impl RunOutcome {
    /// Wall time in seconds.
    pub fn seconds(&self) -> f64 {
        self.wall_time.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use tps_graph::datasets::Dataset;

    use crate::job::JobSpec;

    #[test]
    fn run_partitioner_collects_metrics_and_report() {
        // A serial run's outcome carries the algorithm name, ground-truth
        // metrics over every edge, a wall time and the phase report.
        let g = Dataset::Ok.generate_scaled(0.01);
        let mut stream = g.stream();
        let out = JobSpec::stream(&mut stream)
            .k(4)
            .num_vertices(g.num_vertices())
            .run()
            .unwrap();
        assert_eq!(out.name, "2PS-L");
        assert_eq!(out.metrics.num_edges, g.num_edges());
        assert!(out.wall_time > Duration::ZERO);
        assert!(!out.report.phases.phases().is_empty());
    }
}
