//! The batch workloads: closed loop, one 100-query BatchEnum+ batch at a time.
//!
//! Every batch of a run holds distinct queries drawn from the workload seed, so a run's
//! figures average over several query sets. Each batch's answers are checked against
//! BasicEnum+ (no sharing) on the same queries, run after the timed loop.

use crate::layers::{put_layer_metrics, ServeLayers};
use crate::stages::{traced_batch, StageReport, GAMMA};
use crate::trace::Tracer;
use crate::util::{median, mix, peak_rss_mb, reset_peak_rss, Checked, Metrics};
use crate::Args;
use hcsp_core::{Algorithm, BatchEngine, QueryResponse, QuerySpec};
use hcsp_graph::{DiGraph, VertexId};
use hcsp_workload::{random_query_set, Dataset, DatasetScale, QuerySetSpec};
use std::time::Instant;

/// Queries per batch (the paper's default batch size).
const BATCH_QUERIES: usize = 100;
/// Graph builds per run (at least); `setup_s` is their median.
const SETUP_REPEATS: usize = 11;
/// Graph builds continue until they have taken this long in total.
const SETUP_MIN_S: f64 = 0.3;

/// One batch workload's fixed shape.
pub struct BatchShape {
    pub dataset: Dataset,
    /// `true`: `Collect` specs (paths materialised); `false`: `Count` specs.
    pub collect: bool,
    pub k_min: u32,
    pub k_max: u32,
}

/// The specs of batch `j`: hop constraints stratified over `k_min..=k_max` (an equal
/// share per `k`), reachable endpoints drawn from the seed.
fn batch_specs(graph: &DiGraph, shape: &BatchShape, seed: u64, j: u64) -> Vec<QuerySpec> {
    let ks: Vec<u32> = (shape.k_min..=shape.k_max).collect();
    let mut specs = Vec::with_capacity(BATCH_QUERIES);
    for (i, &k) in ks.iter().enumerate() {
        let n = BATCH_QUERIES / ks.len() + usize::from(i < BATCH_QUERIES % ks.len());
        let spec = QuerySetSpec::new(n, mix(mix(seed, j), u64::from(k))).with_hops(k, k);
        for q in random_query_set(graph, spec) {
            specs.push(if shape.collect {
                QuerySpec::collect(q)
            } else {
                QuerySpec::count(q)
            });
        }
    }
    specs
}

/// An order-independent digest of one answer: its count and, for path answers, the
/// wrapping sum of a hash of every path.
fn digest(response: &QueryResponse) -> (u64, u64) {
    let hash_path = |p: &[VertexId]| {
        p.iter()
            .fold(0xCBF2_9CE4_8422_2325u64, |h, v| mix(h, u64::from(v.0)))
    };
    let paths = response.paths().map_or(0, |set| {
        set.iter()
            .fold(0u64, |acc, p| acc.wrapping_add(hash_path(p)))
    });
    (response.count().unwrap_or(0), paths)
}

/// Builds the workload's graph repeatedly; returns the last build and the median build
/// time.
fn setup(dataset: Dataset) -> (DiGraph, f64) {
    let mut times = Vec::new();
    let mut graph = None;
    while times.len() < SETUP_REPEATS || times.iter().sum::<f64>() < SETUP_MIN_S {
        let start = Instant::now();
        graph = Some(std::hint::black_box(dataset.build(DatasetScale::Small)));
        times.push(start.elapsed().as_secs_f64());
    }
    (graph.expect("at least one build"), median(&times))
}

/// A batch the run answered, kept for the output check.
struct Answered {
    specs: Vec<QuerySpec>,
    digests: Vec<Vec<(u64, u64)>>,
}

/// Checks every recorded answer of every batch against BasicEnum+ on the same queries.
fn check(graph: &DiGraph, answered: &[Answered]) -> Checked {
    let oracle = BatchEngine::with_algorithm(Algorithm::BasicEnumPlus);
    let mut checked = Checked::default();
    for batch in answered {
        let expected: Vec<(u64, u64)> = oracle
            .run_specs(graph, &batch.specs)
            .responses
            .iter()
            .map(digest)
            .collect();
        for got in &batch.digests {
            for (g, e) in got.iter().zip(&expected) {
                checked.record(g == e);
            }
            // A short answer vector fails every missing query.
            for _ in got.len()..expected.len() {
                checked.record(false);
            }
        }
    }
    checked
}

pub fn run(shape: &BatchShape, args: &Args) -> (Metrics, Checked) {
    let (graph, setup_s) = setup(shape.dataset);
    eprintln!(
        "graph {} analog: {} vertices, {} edges; setup {setup_s:.4} s",
        shape.dataset,
        graph.num_vertices(),
        graph.num_edges()
    );
    reset_peak_rss();
    let engine = BatchEngine::builder()
        .algorithm(Algorithm::BatchEnumPlus)
        .gamma(GAMMA)
        .build();
    let mut tracer = Tracer::new();
    let mut answered: Vec<Answered> = Vec::new();
    let mut batch_s: Vec<f64> = Vec::new();
    let mut traced_s: Vec<f64> = Vec::new();
    let mut layers = StageReport::default();
    let loop_start = Instant::now();
    let mut j = 0u64;
    while j == 0 || loop_start.elapsed().as_secs_f64() < args.seconds {
        let specs = batch_specs(&graph, shape, args.seed, j);
        let start = Instant::now();
        let outcome = engine.run_specs(&graph, &specs);
        batch_s.push(start.elapsed().as_secs_f64());
        let mut digests = vec![outcome.responses.iter().map(digest).collect()];
        drop(outcome);
        if args.trace {
            let (report, responses) = traced_batch(&mut tracer, j, &graph, &specs);
            traced_s.push(report.self_time_s());
            layers.accumulate(&report);
            digests.push(responses.iter().map(digest).collect());
        }
        answered.push(Answered { specs, digests });
        j += 1;
    }
    let peak_rss = peak_rss_mb();
    let checked = check(&graph, &answered);

    let queries: f64 = answered.iter().map(|a| a.specs.len() as f64).sum();
    let total_s: f64 = batch_s.iter().sum();
    eprintln!(
        "{} batches, {queries} queries; batch seconds {batch_s:?}",
        batch_s.len(),
    );
    let mut metrics = Metrics::default();
    if args.trace {
        let n = traced_s.len() as f64;
        let overhead = traced_s.iter().sum::<f64>() / total_s - 1.0;
        eprintln!(
            "traced batches: stage self times sum to {:.4} s per batch against {:.4} s untraced",
            traced_s.iter().sum::<f64>() / n,
            total_s / n
        );
        put_layer_metrics(&mut metrics, &layers, n, &ServeLayers::default(), overhead);
        tracer.save(args);
    } else {
        metrics.put("queries_per_s", queries / total_s, "1/s");
        metrics.put("query_p50_ms", median(&batch_s) * 1e3, "ms");
        metrics.put("setup_s", setup_s, "s");
        metrics.put("peak_rss_mb", peak_rss, "MB");
    }
    (metrics, checked)
}
