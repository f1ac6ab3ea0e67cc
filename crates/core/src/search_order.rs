//! Neighbour expansion order.
//!
//! `BasicEnum+` and `BatchEnum+` are "the same algorithms with an optimized search order
//! introduced by PathEnum" (§V "Algorithms"). The plain variants expand out-neighbours in
//! CSR (vertex-id) order; the optimized variants expand neighbours closest to the query
//! anchor first (ties broken towards low-degree vertices), which finds failing branches
//! earlier and improves memory locality of the index lookups. The produced *path set* is
//! identical for both orders — only the traversal order, and therefore the running time,
//! differs.

use serde::{Deserialize, Serialize};

/// Which order neighbours are expanded in during the half searches.
///
/// The half searches apply it per DFS level: the fill pass records each candidate's
/// `(distance to anchor, degree)` key and, under [`SearchOrder::DistanceThenDegree`],
/// sorts the level's run by `(distance, degree, vertex id)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SearchOrder {
    /// CSR (increasing vertex id) order — `PathEnum` / `BasicEnum` / `BatchEnum`.
    #[default]
    VertexId,
    /// Distance-to-anchor order, ties broken by increasing degree —
    /// `BasicEnum+` / `BatchEnum+`.
    DistanceThenDegree,
}

impl SearchOrder {
    /// Human-readable suffix used by experiment output ("" or "+").
    pub fn suffix(self) -> &'static str {
        match self {
            SearchOrder::VertexId => "",
            SearchOrder::DistanceThenDegree => "+",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffers::SearchBuffers;
    use crate::query::PathQuery;
    use crate::search::SearchContext;
    use crate::stats::SearchCounters;
    use hcsp_graph::generators::regular::grid;
    use hcsp_graph::{DiGraph, Direction, VertexId};
    use hcsp_index::BatchIndex;

    /// Orders `candidates` as one `+`-order DFS level: keys recorded the way the fill pass
    /// records them (the anchor's pre-resolved distance map, the vertex degree), then
    /// [`SearchBuffers::sort_run_by_keys`].
    fn sort_level(
        candidates: &[VertexId],
        graph: &DiGraph,
        index: &BatchIndex,
        anchor: VertexId,
        dir: Direction,
    ) -> Vec<VertexId> {
        let view = index.anchor_view(dir, anchor);
        let mut buffers = SearchBuffers::for_graph(graph);
        for &w in candidates {
            buffers.candidates.push(w);
            buffers
                .cand_keys
                .push((view.dist(w), graph.degree(w, dir) as u32));
        }
        buffers.sort_run_by_keys(0, candidates.len());
        buffers.candidates
    }

    /// The `+` order spelled out: `(dist_towards, degree, id)`, stable sort.
    fn explicit_order(
        candidates: &[VertexId],
        graph: &DiGraph,
        index: &BatchIndex,
        anchor: VertexId,
        dir: Direction,
    ) -> Vec<VertexId> {
        let mut sorted = candidates.to_vec();
        sorted.sort_by_key(|&w| {
            (
                index.dist_towards(dir, w, anchor),
                graph.degree(w, dir) as u32,
                w.raw(),
            )
        });
        sorted
    }

    #[test]
    fn vertex_id_order_is_noop() {
        // The root's children 1 and 3 are expanded in CSR order under the plain order.
        let g = grid(3, 3);
        let index = BatchIndex::build(&g, &[VertexId(0)], &[VertexId(8)], 6);
        let q = PathQuery::new(0u32, 8u32, 6);
        let ctx = SearchContext::new(&g, &index, SearchOrder::VertexId);
        let prefixes = ctx.enumerate_half(&q, Direction::Forward, &mut SearchCounters::default());
        let c: Vec<VertexId> = prefixes
            .iter()
            .filter(|p| p.len() == 2)
            .map(|p| p[1])
            .collect();
        assert_eq!(c, vec![VertexId(1), VertexId(3)]);
        assert_eq!(c, g.neighbors(VertexId(0), Direction::Forward));
    }

    #[test]
    fn optimized_order_prefers_vertices_closer_to_anchor() {
        // Grid 3x3: vertex 8 is the bottom-right corner. From vertex 0 the neighbours are
        // 1 (dist to 8 = 3) and 3 (dist to 8 = 3); extend candidate list with vertex 5
        // (dist 1) and 7 (dist 1, same degree class) to exercise ordering.
        let g = grid(3, 3);
        let index = BatchIndex::build(&g, &[VertexId(0)], &[VertexId(8)], 6);
        let input = [VertexId(1), VertexId(5), VertexId(3), VertexId(7)];
        let c = sort_level(&input, &g, &index, VertexId(8), Direction::Forward);
        let dist: Vec<u32> = c
            .iter()
            .map(|&w| index.dist_to_target(w, VertexId(8)))
            .collect();
        assert!(
            dist.windows(2).all(|w| w[0] <= w[1]),
            "distances not ascending: {dist:?}"
        );
        assert_eq!(
            c,
            explicit_order(&input, &g, &index, VertexId(8), Direction::Forward)
        );
    }

    #[test]
    fn unreachable_vertices_sort_last() {
        let g = grid(3, 3);
        let index = BatchIndex::build(&g, &[VertexId(0)], &[VertexId(8)], 6);
        let input = [VertexId(8), VertexId(0)];
        // dist(8 -> 8) = 0, dist(0 -> 8) = 4, so 8 first.
        let c = sort_level(&input, &g, &index, VertexId(8), Direction::Forward);
        assert_eq!(c[0], VertexId(8));
        assert_eq!(
            c,
            explicit_order(&input, &g, &index, VertexId(8), Direction::Forward)
        );
    }

    #[test]
    fn unstable_sort_produces_the_stable_sort_order() {
        // The key ends in the vertex id, so it is a total order and the unstable sort
        // must produce exactly what a stable sort would — including among vertices tied
        // on (distance, degree). A grid gives plenty of such ties.
        let g = grid(4, 4);
        let anchor = VertexId(15);
        let index = BatchIndex::build(&g, &[VertexId(0)], &[anchor], 8);
        // Every vertex, duplicated and reversed: ties and equal elements abound.
        let mut candidates: Vec<VertexId> = (0..16).rev().map(VertexId).collect();
        candidates.extend((0..16).map(VertexId));
        assert_eq!(
            sort_level(&candidates, &g, &index, anchor, Direction::Forward),
            explicit_order(&candidates, &g, &index, anchor, Direction::Forward)
        );
    }

    #[test]
    fn suffixes() {
        assert_eq!(SearchOrder::VertexId.suffix(), "");
        assert_eq!(SearchOrder::DistanceThenDegree.suffix(), "+");
        assert_eq!(SearchOrder::default(), SearchOrder::VertexId);
    }
}
