//! Cross-validation of the cluster-sharded parallel executor
//! ([`Engine::run_specs_parallel`]) against the sequential algorithms: parallel
//! execution must be **lossless and deterministic**.
//!
//! For every seeded generator workload the suite asserts, at 1, 2, 4 and 8 worker
//! threads and for every algorithm, that
//!
//! * a batch of `Collect` specs returns *exactly* the sequential path sets — the same
//!   paths, per query, in the same order (byte-identical output), and
//! * the per-query statistics that are defined to be deterministic (traversal counters,
//!   cluster counts, shared-subquery counts, produced paths) are identical to the
//!   sequential run and across repeated parallel runs.
//!
//! Timing-derived fields (stage durations) are excluded by design: they measure the
//! machine, not the algorithm.

use hcsp::core::{BasicEnum, BatchEnum};
use hcsp::prelude::*;
use hcsp::workload::{random_query_set, similar_query_set, QuerySetSpec};
use hcsp_graph::generators::erdos_renyi::gnm_random;
use hcsp_graph::generators::preferential::{preferential_attachment, PreferentialConfig};
use hcsp_graph::generators::regular::grid;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One seeded workload: a generator graph plus a query batch drawn from it.
fn workloads() -> Vec<(String, DiGraph, Vec<PathQuery>)> {
    let mut out = Vec::new();

    let g = grid(5, 5);
    let queries = random_query_set(&g, QuerySetSpec::new(12, 11).with_hops(4, 6));
    out.push(("grid-5x5".to_string(), g, queries));

    for seed in [1, 2] {
        let g = gnm_random(80, 480, seed).unwrap();
        let queries = similar_query_set(&g, QuerySetSpec::new(14, seed).with_hops(3, 5), 0.5);
        out.push((format!("gnm-80-480-seed{seed}"), g, queries));
    }

    let g = preferential_attachment(PreferentialConfig {
        num_vertices: 220,
        edges_per_vertex: 3,
        reciprocity: 0.3,
        seed: 5,
    })
    .unwrap();
    let queries = similar_query_set(&g, QuerySetSpec::new(10, 9).with_hops(3, 4), 0.7);
    out.push(("preferential-220".to_string(), g, queries));

    out
}

fn collect_specs(queries: &[PathQuery]) -> Vec<QuerySpec> {
    queries.iter().map(|&q| QuerySpec::collect(q)).collect()
}

/// Runs `queries` as `Collect` specs on a fresh engine with `workers` threads.
fn run_parallel(
    graph: &DiGraph,
    algorithm: Algorithm,
    queries: &[PathQuery],
    workers: usize,
) -> (Vec<PathSet>, EnumStats) {
    let mut engine = Engine::with_algorithm(graph.clone(), algorithm);
    let outcome = engine.run_specs_parallel(&collect_specs(queries), workers);
    let paths = outcome
        .responses
        .into_iter()
        .map(|r| r.into_paths().expect("collect specs answer with paths"))
        .collect();
    (paths, outcome.stats)
}

/// Asserts the deterministic `EnumStats` fields of two runs agree.
fn assert_same_stats(actual: &EnumStats, expected: &EnumStats, what: &str) {
    assert_eq!(
        actual.counters, expected.counters,
        "{what}: counters diverge"
    );
    assert_eq!(actual.num_queries, expected.num_queries, "{what}");
    assert_eq!(actual.num_clusters, expected.num_clusters, "{what}");
    assert_eq!(
        actual.num_shared_subqueries, expected.num_shared_subqueries,
        "{what}"
    );
}

#[test]
fn parallel_batch_enum_is_byte_identical_to_sequential_at_every_thread_count() {
    for (name, graph, queries) in workloads() {
        assert!(!queries.is_empty(), "workload {name} generated no queries");
        let mut sequential = CollectSink::new(queries.len());
        let seq_stats = BatchEnum::new(SearchOrder::DistanceThenDegree, 0.5).run_batch(
            &graph,
            &queries,
            &mut sequential,
        );
        for workers in THREAD_COUNTS {
            let (paths, par_stats) =
                run_parallel(&graph, Algorithm::BatchEnumPlus, &queries, workers);
            // Exactly the sequential path set: same paths, same per-query order.
            assert_eq!(
                paths,
                sequential.all(),
                "{name}: path sets diverge at {workers} workers"
            );
            assert_same_stats(
                &par_stats,
                &seq_stats,
                &format!("{name} at {workers} workers"),
            );
        }
    }
}

#[test]
fn parallel_runs_are_deterministic_across_repetitions() {
    for (name, graph, queries) in workloads() {
        let (first, first_stats) = run_parallel(&graph, Algorithm::BatchEnumPlus, &queries, 4);
        for _ in 0..2 {
            let (again, again_stats) = run_parallel(&graph, Algorithm::BatchEnumPlus, &queries, 4);
            assert_eq!(again, first, "{name}: nondeterministic output");
            assert_same_stats(&again_stats, &first_stats, &format!("{name}: repeated run"));
        }
    }
}

#[test]
fn parallel_basic_enum_matches_sequential_basic_enum() {
    for (name, graph, queries) in workloads() {
        let mut sequential = CollectSink::new(queries.len());
        let seq_stats = BasicEnum::new(SearchOrder::DistanceThenDegree).run_batch(
            &graph,
            &queries,
            &mut sequential,
        );
        for workers in THREAD_COUNTS {
            let (paths, par_stats) =
                run_parallel(&graph, Algorithm::BasicEnumPlus, &queries, workers);
            assert_eq!(
                paths,
                sequential.all(),
                "{name}: parallel BasicEnum+ diverges at {workers} workers"
            );
            assert_eq!(par_stats.counters, seq_stats.counters, "{name}");
        }
    }
}

#[test]
fn engine_parallel_entry_point_is_lossless_for_every_algorithm() {
    for (name, graph, queries) in workloads() {
        let specs = collect_specs(&queries);
        for algorithm in Algorithm::ALL {
            let mut reference = Engine::with_algorithm(graph.clone(), algorithm);
            let expected = reference.run_specs(&specs);
            for workers in THREAD_COUNTS {
                let mut engine = Engine::with_algorithm(graph.clone(), algorithm);
                let outcome = engine.run_specs_parallel(&specs, workers);
                let what = format!("{name}: {algorithm} at {workers} workers");
                // Byte-identical responses: the same paths per query, in the same order.
                assert_eq!(outcome.responses, expected.responses, "{what}");
                assert_same_stats(&outcome.stats, &expected.stats, &what);
            }
        }
    }
}
