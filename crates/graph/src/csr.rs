//! Compressed sparse row (CSR) adjacency storage.
//!
//! A [`CsrAdjacency`] stores, for every vertex `v`, a contiguous slice of neighbour ids.
//! [`crate::DiGraph`] holds two of them: one for out-neighbours (the forward graph `G`) and
//! one for in-neighbours (the reverse graph `G^r`), so both search directions used by the
//! bidirectional enumeration of the paper are O(1)-addressable without copying the graph.

use crate::vertex::VertexId;

/// Immutable CSR adjacency: `offsets[v]..offsets[v+1]` indexes into `targets`.
///
/// Neighbour lists are sorted in increasing vertex id and deduplicated; this makes
/// membership tests `O(log d)` and gives deterministic iteration order, which in turn makes
/// every algorithm in the workspace deterministic for a fixed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrAdjacency {
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    /// Degree (in this adjacency direction) of each entry of `targets`, kept parallel to
    /// it: `target_degrees[i] == degree(targets[i])`. The cache-conscious hot array of
    /// the DFS fill pass — the `DistanceThenDegree` sort key reads the degree of
    /// every surviving candidate, and reading it from the slice being scanned costs one
    /// sequential stream instead of a dependent `offsets[w] / offsets[w+1]` gather per
    /// neighbour.
    target_degrees: Vec<u32>,
}

/// Computes the parallel per-target degree array from a finished `offsets`/`targets` pair.
fn inline_degrees(offsets: &[u64], targets: &[VertexId]) -> Vec<u32> {
    targets
        .iter()
        .map(|t| (offsets[t.index() + 1] - offsets[t.index()]) as u32)
        .collect()
}

impl CsrAdjacency {
    /// Builds a CSR structure from per-vertex sorted, deduplicated neighbour lists.
    ///
    /// The caller (normally [`crate::GraphBuilder`]) is responsible for sorting and
    /// deduplication; this constructor only concatenates.
    pub fn from_sorted_lists(lists: &[Vec<VertexId>]) -> Self {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        let total: usize = lists.iter().map(Vec::len).sum();
        let mut targets = Vec::with_capacity(total);
        offsets.push(0u64);
        for list in lists {
            debug_assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "neighbour lists must be strictly sorted"
            );
            targets.extend_from_slice(list);
            offsets.push(targets.len() as u64);
        }
        let target_degrees = inline_degrees(&offsets, &targets);
        CsrAdjacency {
            offsets,
            targets,
            target_degrees,
        }
    }

    /// Builds a CSR structure directly from an edge list using counting sort.
    ///
    /// `edges` may contain duplicates; they are removed. The resulting neighbour lists are
    /// sorted. This is the allocation-friendly path used for large generated graphs.
    pub fn from_edges(num_vertices: usize, edges: &[(VertexId, VertexId)]) -> Self {
        // Counting pass.
        let mut counts = vec![0u64; num_vertices + 1];
        for &(u, _) in edges {
            counts[u.index() + 1] += 1;
        }
        // Prefix sums -> provisional offsets.
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let mut targets = vec![VertexId(0); edges.len()];
        let mut cursor = counts.clone();
        for &(u, v) in edges {
            let slot = cursor[u.index()];
            targets[slot as usize] = v;
            cursor[u.index()] += 1;
        }
        // Sort and deduplicate each row in place, then compact.
        let mut dedup_targets = Vec::with_capacity(targets.len());
        let mut offsets = Vec::with_capacity(num_vertices + 1);
        offsets.push(0u64);
        for v in 0..num_vertices {
            let start = counts[v] as usize;
            let end = counts[v + 1] as usize;
            let row = &mut targets[start..end];
            row.sort_unstable();
            let mut prev: Option<VertexId> = None;
            for &t in row.iter() {
                if prev != Some(t) {
                    dedup_targets.push(t);
                    prev = Some(t);
                }
            }
            offsets.push(dedup_targets.len() as u64);
        }
        let target_degrees = inline_degrees(&offsets, &dedup_targets);
        CsrAdjacency {
            offsets,
            targets: dedup_targets,
            target_degrees,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of stored (deduplicated) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// The sorted neighbour slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let start = self.offsets[v.index()] as usize;
        let end = self.offsets[v.index() + 1] as usize;
        &self.targets[start..end]
    }

    /// Degree of `v` in this adjacency direction.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// The degrees of `v`'s neighbours, parallel to [`CsrAdjacency::neighbors`]:
    /// `neighbor_degrees(v)[i] == degree(neighbors(v)[i])`.
    ///
    /// One contiguous read per DFS fill pass; see the `target_degrees` field.
    #[inline]
    pub fn neighbor_degrees(&self, v: VertexId) -> &[u32] {
        let start = self.offsets[v.index()] as usize;
        let end = self.offsets[v.index() + 1] as usize;
        &self.target_degrees[start..end]
    }

    /// Whether the edge `(u, v)` exists in this adjacency direction.
    #[inline]
    pub fn contains_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates over all `(source, target)` pairs stored in this adjacency.
    pub fn iter_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices()).flat_map(move |u| {
            let u = VertexId::new(u);
            self.neighbors(u).iter().map(move |&v| (u, v))
        })
    }

    /// Raw offsets array (length `n + 1`), exposed for serialisation.
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Raw concatenated target array, exposed for serialisation.
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Reconstructs a CSR adjacency from raw parts (used by the binary loader).
    ///
    /// Returns `None` if the parts are inconsistent (non-monotone offsets or a final offset
    /// not equal to `targets.len()`).
    pub fn from_raw_parts(offsets: Vec<u64>, targets: Vec<VertexId>) -> Option<Self> {
        if offsets.is_empty() || *offsets.last().unwrap() as usize != targets.len() {
            return None;
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return None;
        }
        if targets.iter().any(|t| t.index() + 1 >= offsets.len()) {
            return None;
        }
        // The binary format carries only offsets + targets; the hot degree array is
        // derived, so the on-disk format needs no change.
        let target_degrees = inline_degrees(&offsets, &targets);
        Some(CsrAdjacency {
            offsets,
            targets,
            target_degrees,
        })
    }

    /// Approximate heap footprint in bytes (offsets + targets + inline degrees).
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>()
            + self.targets.len() * std::mem::size_of::<VertexId>()
            + self.target_degrees.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u32) -> VertexId {
        VertexId(x)
    }

    #[test]
    fn from_edges_sorts_and_dedups() {
        let edges = vec![(v(0), v(2)), (v(0), v(1)), (v(0), v(2)), (v(2), v(0))];
        let csr = CsrAdjacency::from_edges(3, &edges);
        assert_eq!(csr.num_vertices(), 3);
        assert_eq!(csr.num_edges(), 3);
        assert_eq!(csr.neighbors(v(0)), &[v(1), v(2)]);
        assert_eq!(csr.neighbors(v(1)), &[] as &[VertexId]);
        assert_eq!(csr.neighbors(v(2)), &[v(0)]);
        assert_eq!(csr.degree(v(0)), 2);
        assert!(csr.contains_edge(v(0), v(2)));
        assert!(!csr.contains_edge(v(1), v(2)));
    }

    #[test]
    fn from_sorted_lists_round_trip() {
        let lists = vec![vec![v(1), v(3)], vec![], vec![v(0)], vec![v(2)]];
        let csr = CsrAdjacency::from_sorted_lists(&lists);
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.num_edges(), 4);
        for (i, list) in lists.iter().enumerate() {
            assert_eq!(csr.neighbors(v(i as u32)), list.as_slice());
        }
    }

    #[test]
    fn iter_edges_yields_all_pairs() {
        let edges = vec![(v(0), v(1)), (v(1), v(2)), (v(2), v(0))];
        let csr = CsrAdjacency::from_edges(3, &edges);
        let collected: Vec<_> = csr.iter_edges().collect();
        assert_eq!(collected, edges);
    }

    #[test]
    fn from_raw_parts_validates() {
        let csr = CsrAdjacency::from_edges(3, &[(v(0), v(1))]);
        let rebuilt =
            CsrAdjacency::from_raw_parts(csr.offsets().to_vec(), csr.targets().to_vec()).unwrap();
        assert_eq!(rebuilt, csr);

        assert!(CsrAdjacency::from_raw_parts(vec![0, 2], vec![v(1)]).is_none());
        assert!(CsrAdjacency::from_raw_parts(vec![2, 0, 1], vec![v(1)]).is_none());
        assert!(CsrAdjacency::from_raw_parts(vec![], vec![]).is_none());
    }

    #[test]
    fn empty_graph_is_fine() {
        let csr = CsrAdjacency::from_edges(0, &[]);
        assert_eq!(csr.num_vertices(), 0);
        assert_eq!(csr.num_edges(), 0);
    }

    #[test]
    fn heap_bytes_counts_all_arrays() {
        // 3 offsets (u64) + 1 target (u32) + 1 inline degree (u32).
        let csr = CsrAdjacency::from_edges(2, &[(v(0), v(1))]);
        assert_eq!(csr.heap_bytes(), 3 * 8 + 4 + 4);
    }

    #[test]
    fn neighbor_degrees_mirror_the_neighbor_slice() {
        let edges = vec![
            (v(0), v(1)),
            (v(0), v(2)),
            (v(1), v(2)),
            (v(2), v(0)),
            (v(2), v(1)),
        ];
        for csr in [
            CsrAdjacency::from_edges(3, &edges),
            CsrAdjacency::from_raw_parts(
                CsrAdjacency::from_edges(3, &edges).offsets().to_vec(),
                CsrAdjacency::from_edges(3, &edges).targets().to_vec(),
            )
            .unwrap(),
        ] {
            for u in 0..3 {
                let u = v(u);
                let degrees: Vec<u32> = csr
                    .neighbors(u)
                    .iter()
                    .map(|&w| csr.degree(w) as u32)
                    .collect();
                assert_eq!(csr.neighbor_degrees(u), degrees.as_slice());
            }
        }
    }

    #[test]
    fn from_raw_parts_rejects_out_of_range_targets() {
        assert!(CsrAdjacency::from_raw_parts(vec![0, 1], vec![v(7)]).is_none());
    }
}
