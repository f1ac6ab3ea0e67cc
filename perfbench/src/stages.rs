//! The traced batch: one BatchEnum+ batch run stage by stage, in Alg. 4 order, through
//! each stage's public entry point, with a span around every call.
//!
//! 1. `BatchIndex::build` (hcsp-index)
//! 2. `QueryNeighborhood::from_index` + `SimilarityMatrix::compute` (clustering)
//! 3. `cluster_queries` (clustering)
//! 4. `detect_common_queries` per cluster and direction into a `SharingGraph`, plus the
//!    Ψ slack and topological passes (detection)
//! 5. `BatchEnum::run_batch_with_index` (enumeration)
//!
//! Step 5 repeats the clustering and detection of steps 2–4 internally, so enumeration's
//! self time is that span minus the ClusterQuery and IdentifySubquery times the same call
//! reports in its `EnumStats`.

use crate::trace::Tracer;
use hcsp_core::clustering::cluster_queries;
use hcsp_core::detection::detect_common_queries;
use hcsp_core::sharing_graph::SharingGraph;
use hcsp_core::similarity::{QueryNeighborhood, SimilarityMatrix};
use hcsp_core::{
    BatchEnum, BatchSummary, PathQuery, QueryResponse, QuerySpec, SearchOrder, SpecSink, Stage,
};
use hcsp_graph::{DiGraph, Direction};
use hcsp_index::BatchIndex;

/// Clustering threshold γ of every BatchEnum+ run in the benchmark (the paper default).
pub const GAMMA: f64 = 0.5;

/// Per-layer figures of one traced batch (times in seconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageReport {
    pub index_build_s: f64,
    pub index_entries: f64,
    pub index_heap_bytes: f64,
    pub similarity_s: f64,
    pub merge_s: f64,
    pub clusters: f64,
    pub detect_s: f64,
    pub cells_visited: f64,
    pub dominating_created: f64,
    pub reuse_edges: f64,
    pub psi_nodes: f64,
    /// Enumeration self time: the `run_batch_with_index` span minus its own
    /// ClusterQuery and IdentifySubquery stage times.
    pub enum_s: f64,
    pub expanded_vertices: f64,
    pub scanned_edges: f64,
    pub pruned_edges: f64,
    pub stored_prefixes: f64,
    pub cache_splices: f64,
    pub produced_paths: f64,
    pub peak_cached_results: f64,
}

impl StageReport {
    /// Sum of the stage self times: the traced batch's wall time by layer.
    pub fn self_time_s(&self) -> f64 {
        self.index_build_s + self.similarity_s + self.merge_s + self.detect_s + self.enum_s
    }

    /// Adds `other` field by field (peaks take the maximum).
    pub fn accumulate(&mut self, other: &StageReport) {
        self.index_build_s += other.index_build_s;
        self.index_entries += other.index_entries;
        self.index_heap_bytes += other.index_heap_bytes;
        self.similarity_s += other.similarity_s;
        self.merge_s += other.merge_s;
        self.clusters += other.clusters;
        self.detect_s += other.detect_s;
        self.cells_visited += other.cells_visited;
        self.dominating_created += other.dominating_created;
        self.reuse_edges += other.reuse_edges;
        self.psi_nodes += other.psi_nodes;
        self.enum_s += other.enum_s;
        self.expanded_vertices += other.expanded_vertices;
        self.scanned_edges += other.scanned_edges;
        self.pruned_edges += other.pruned_edges;
        self.stored_prefixes += other.stored_prefixes;
        self.cache_splices += other.cache_splices;
        self.produced_paths += other.produced_paths;
        self.peak_cached_results = self.peak_cached_results.max(other.peak_cached_results);
    }
}

/// Runs one BatchEnum+ batch stage by stage under `tracer`; returns the per-layer
/// figures and one response per spec (for the output check).
pub fn traced_batch(
    tracer: &mut Tracer,
    request: u64,
    graph: &DiGraph,
    specs: &[QuerySpec],
) -> (StageReport, Vec<QueryResponse>) {
    let mut report = StageReport::default();
    let queries: Vec<PathQuery> = specs.iter().map(|s| s.query).collect();
    let batch = tracer.open("batch", request);

    let (index, build) = tracer.span(
        "hcsp-index::BatchIndex::build",
        Some(batch),
        request,
        || {
            let summary = BatchSummary::of(&queries);
            BatchIndex::build(
                graph,
                &summary.sources,
                &summary.targets,
                summary.max_hop_limit,
            )
        },
    );
    report.index_build_s = build.as_secs_f64();
    report.index_entries = index.stats().stored_entries as f64;
    report.index_heap_bytes =
        (index.source_index().heap_bytes() + index.target_index().heap_bytes()) as f64;

    let (matrix, similarity) = tracer.span("core::similarity", Some(batch), request, || {
        let neighborhoods: Vec<QueryNeighborhood> = queries
            .iter()
            .map(|q| QueryNeighborhood::from_index(&index, q))
            .collect();
        SimilarityMatrix::compute(&neighborhoods)
    });
    report.similarity_s = similarity.as_secs_f64();

    let (clusters, merge) = tracer.span("core::clustering", Some(batch), request, || {
        cluster_queries(&matrix, GAMMA)
    });
    report.merge_s = merge.as_secs_f64();
    report.clusters = clusters.len() as f64;

    let ((), detect) = tracer.span("core::detection", Some(batch), request, || {
        for cluster in &clusters {
            let members: Vec<_> = cluster.iter().map(|&q| (q, queries[q])).collect();
            let mut sharing = SharingGraph::new();
            for dir in [Direction::Forward, Direction::Backward] {
                let outcome = detect_common_queries(graph, &index, &members, dir, &mut sharing);
                report.cells_visited += outcome.cells_visited as f64;
                report.dominating_created += outcome.dominating_created as f64;
                report.reuse_edges += outcome.reuse_edges as f64;
            }
            std::hint::black_box(sharing.anchor_slacks(&queries));
            std::hint::black_box(sharing.topological_order());
            report.psi_nodes += sharing.len() as f64;
        }
    });
    report.detect_s = detect.as_secs_f64();

    let mut sink = SpecSink::new(specs);
    let (stats, run) = tracer.span(
        "core::BatchEnum::run_batch_with_index",
        Some(batch),
        request,
        || {
            BatchEnum::new(SearchOrder::DistanceThenDegree, GAMMA)
                .run_batch_with_index(graph, &index, &queries, &mut sink)
        },
    );
    tracer.close(batch);
    let inner = stats.stage_time(Stage::ClusterQuery) + stats.stage_time(Stage::IdentifySubquery);
    report.enum_s = run.saturating_sub(inner).as_secs_f64();
    let c = stats.counters;
    report.expanded_vertices = c.expanded_vertices as f64;
    report.scanned_edges = c.scanned_edges as f64;
    report.pruned_edges = c.pruned_edges as f64;
    report.stored_prefixes = c.stored_prefixes as f64;
    report.cache_splices = c.cache_splices as f64;
    report.produced_paths = c.produced_paths as f64;
    report.peak_cached_results = stats.peak_cached_results as f64;
    (report, sink.into_responses())
}
