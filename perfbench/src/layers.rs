//! The per-layer metrics of a traced run, printed under the same names by every
//! workload. A layer a workload does not run reports 0 (no work done there).

use crate::stages::StageReport;
use crate::util::{ratio, Metrics};

/// Figures of the serving layers and the serving harness (all zero for batch workloads).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeLayers {
    pub queue_wait_mean_ms: f64,
    pub queue_wait_max_ms: f64,
    pub exec_ms_per_query: f64,
    pub batch_size_mean: f64,
    pub pinned_behind_ratio: f64,
    pub fsyncs_per_update: f64,
    pub update_ack_ms: f64,
    pub server_overhead_ms: f64,
    pub first_chunk_ms: f64,
    pub parse_us: f64,
    pub read_p50_ms_low: f64,
    pub read_p99_ms_low: f64,
    pub read_p99_ms_high: f64,
    pub write_p50_ms_high: f64,
    pub write_p99_ms_high: f64,
    pub gen_late_p99_ms: f64,
    pub max_qps: f64,
}

/// Prints every per-layer metric. `core` holds the sums over `batches` traced batches;
/// times and counts are reported per batch, peaks as the maximum.
pub fn put_layer_metrics(
    m: &mut Metrics,
    core: &StageReport,
    batches: f64,
    serve: &ServeLayers,
    trace_overhead: f64,
) {
    let per = |x: f64| ratio(x, batches);
    m.put("index.build_s", per(core.index_build_s), "s");
    m.put("index.entries", per(core.index_entries), "count");
    m.put("index.heap_bytes", per(core.index_heap_bytes), "bytes");
    m.put("cluster.similarity_s", per(core.similarity_s), "s");
    m.put("cluster.merge_s", per(core.merge_s), "s");
    m.put("cluster.count", per(core.clusters), "count");
    m.put("detect.s", per(core.detect_s), "s");
    m.put("detect.cells_visited", per(core.cells_visited), "count");
    m.put(
        "detect.dominating_created",
        per(core.dominating_created),
        "count",
    );
    m.put("detect.reuse_edges", per(core.reuse_edges), "count");
    m.put("psi.nodes", per(core.psi_nodes), "count");
    m.put("enum.s", per(core.enum_s), "s");
    m.put(
        "enum.paths_per_s",
        ratio(core.produced_paths, core.enum_s),
        "1/s",
    );
    m.put(
        "enum.expanded_vertices",
        per(core.expanded_vertices),
        "count",
    );
    m.put("enum.scanned_edges", per(core.scanned_edges), "count");
    m.put("enum.pruned_edges", per(core.pruned_edges), "count");
    m.put(
        "enum.prune_ratio",
        ratio(core.pruned_edges, core.scanned_edges),
        "ratio",
    );
    m.put("enum.stored_prefixes", per(core.stored_prefixes), "count");
    m.put("enum.cache_splices", per(core.cache_splices), "count");
    m.put("enum.produced_paths", per(core.produced_paths), "count");
    m.put("cache.peak_results", core.peak_cached_results, "count");
    m.put("service.queue_wait_mean_ms", serve.queue_wait_mean_ms, "ms");
    m.put("service.queue_wait_max_ms", serve.queue_wait_max_ms, "ms");
    m.put("service.exec_ms_per_query", serve.exec_ms_per_query, "ms");
    m.put("service.batch_size_mean", serve.batch_size_mean, "count");
    m.put(
        "service.pinned_behind_ratio",
        serve.pinned_behind_ratio,
        "ratio",
    );
    m.put(
        "storage.fsyncs_per_update",
        serve.fsyncs_per_update,
        "ratio",
    );
    m.put("storage.update_ack_ms", serve.update_ack_ms, "ms");
    m.put("server.overhead_ms", serve.server_overhead_ms, "ms");
    m.put("server.first_chunk_ms", serve.first_chunk_ms, "ms");
    m.put("server.parse_us", serve.parse_us, "us");
    m.put("read_p50_ms.low", serve.read_p50_ms_low, "ms");
    m.put("read_p99_ms.low", serve.read_p99_ms_low, "ms");
    m.put("read_p99_ms.high", serve.read_p99_ms_high, "ms");
    m.put("write_p50_ms.high", serve.write_p50_ms_high, "ms");
    m.put("write_p99_ms.high", serve.write_p99_ms_high, "ms");
    m.put("max_qps", serve.max_qps, "1/s");
    m.put("gen.late_p99_ms", serve.gen_late_p99_ms, "ms");
    m.put("trace.overhead", trace_overhead, "ratio");
}
