//! Triangle counting as two GraphMat vertex programs.
//!
//! The paper's formulation (§3-IV, §4.2): the input graph is first made
//! symmetric and then reduced to its strict upper triangle, giving a DAG in
//! which each triangle `a < b < c` is counted exactly once. Two vertex
//! programs then run:
//!
//! 1. **Adjacency-list construction** — every vertex sends its id along its
//!    out-edges; each vertex stores the sorted list of ids it received (its
//!    in-neighbours in the DAG).
//! 2. **Counting** — every vertex sends that list along its out-edges; the
//!    receiving vertex intersects the incoming list with its own list. The
//!    intersection size is the number of triangles closed by that edge.
//!
//! Step 2 is exactly where GraphMat's ability to read the *destination
//! vertex's state inside `PROCESS_MESSAGE`* pays off: a pure matrix framework
//! (CombBLAS) cannot express this and falls back to an SpGEMM whose
//! intermediate result "overflows memory or comes close to memory limits"
//! (§5.2.1) — the behaviour the CombBLAS-style baseline reproduces.

use crate::AlgorithmOutput;
use graphmat_core::error::Result;
use graphmat_core::{EdgeDirection, GraphProgram, Session, Topology, VertexId, VertexState};
use graphmat_io::edgelist::EdgeList;

/// Per-vertex triangle-counting state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TriangleVertex {
    /// Sorted in-neighbour ids collected in phase 1.
    pub neighbors: Vec<VertexId>,
    /// Triangles closed at this vertex, accumulated in phase 2.
    pub triangles: u64,
}

/// Phase 1: collect in-neighbour lists. Generic over the (ignored) edge
/// type; `E = ()` is the unweighted fast path.
struct CollectNeighbors<E> {
    _edge: std::marker::PhantomData<E>,
}

impl<E> Default for CollectNeighbors<E> {
    fn default() -> Self {
        CollectNeighbors {
            _edge: std::marker::PhantomData,
        }
    }
}

impl<E: Clone + Send + Sync> GraphProgram for CollectNeighbors<E> {
    type VertexProp = TriangleVertex;
    type Message = VertexId;
    type Reduced = Vec<VertexId>;
    type Edge = E;

    fn direction(&self) -> EdgeDirection {
        EdgeDirection::Out
    }

    fn send_message(&self, v: VertexId, _prop: &TriangleVertex) -> Option<VertexId> {
        Some(v)
    }

    fn process_message(&self, msg: &VertexId, _edge: &E, _dst: &TriangleVertex) -> Vec<VertexId> {
        vec![*msg]
    }

    fn reduce(&self, acc: &mut Vec<VertexId>, mut value: Vec<VertexId>) {
        acc.append(&mut value);
    }

    fn apply(&self, reduced: &Vec<VertexId>, prop: &mut TriangleVertex) {
        let mut list = reduced.clone();
        list.sort_unstable();
        list.dedup();
        prop.neighbors = list;
    }
}

/// Phase 2: intersect neighbour lists.
struct CountTriangles<E> {
    _edge: std::marker::PhantomData<E>,
}

impl<E> Default for CountTriangles<E> {
    fn default() -> Self {
        CountTriangles {
            _edge: std::marker::PhantomData,
        }
    }
}

impl<E: Clone + Send + Sync> GraphProgram for CountTriangles<E> {
    type VertexProp = TriangleVertex;
    type Message = Vec<VertexId>;
    type Reduced = u64;
    type Edge = E;

    fn direction(&self) -> EdgeDirection {
        EdgeDirection::Out
    }

    fn send_message(&self, _v: VertexId, prop: &TriangleVertex) -> Option<Vec<VertexId>> {
        if prop.neighbors.is_empty() {
            None
        } else {
            Some(prop.neighbors.clone())
        }
    }

    fn process_message(&self, msg: &Vec<VertexId>, _edge: &E, dst: &TriangleVertex) -> u64 {
        sorted_intersection_size(msg, &dst.neighbors)
    }

    fn reduce(&self, acc: &mut u64, value: u64) {
        *acc += value;
    }

    fn apply(&self, reduced: &u64, prop: &mut TriangleVertex) {
        prop.triangles += *reduced;
    }
}

/// Size of the intersection of two sorted, deduplicated id lists.
fn sorted_intersection_size(a: &[VertexId], b: &[VertexId]) -> u64 {
    let mut count = 0u64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Count triangles over a pre-built shared topology through a [`Session`];
/// the output holds the per-vertex counts (see [`total_triangles`]).
/// Triangles depend only on the structure, so any edge value type works.
///
/// The topology must already be the strict
/// upper-triangle DAG the algorithm expects — build it from
/// `edges.to_dag()` (`session.build_graph(&edges.to_dag()).in_edges(false)`
/// `.finish()?`); no preprocessing happens here.
///
/// Both vertex programs run through one pooled [`VertexState`]: phase 2
/// intersects the neighbour lists phase 1 stored in the same state — the
/// two-phase shape is exactly what per-run state (as opposed to
/// graph-owned state) makes natural.
pub fn triangle_count_on<E: Clone + Send + Sync + 'static>(
    session: &Session,
    topology: &Topology<E>,
) -> Result<AlgorithmOutput<u64>> {
    let mut state: VertexState<TriangleVertex> = VertexState::for_topology(topology);

    let phase1 = session
        .run(topology, CollectNeighbors::<E>::default())
        .activate_all()
        .max_iterations(1)
        .execute_with(&mut state)?;
    let phase2 = session
        .run(topology, CountTriangles::<E>::default())
        .activate_all()
        .max_iterations(1)
        .execute_with(&mut state)?;

    let stats = merge_phase_stats(phase1.stats, &phase2.stats);
    Ok(AlgorithmOutput {
        values: state.properties().iter().map(|p| p.triangles).collect(),
        stats,
        converged: true,
    })
}

/// Fold phase 2's run statistics into phase 1's. Works from the aggregate
/// totals, not the per-superstep detail, so nothing is lost when
/// `record_supersteps` is off (the detail, when present, is appended too).
fn merge_phase_stats(
    mut stats: graphmat_core::RunStats,
    phase2: &graphmat_core::RunStats,
) -> graphmat_core::RunStats {
    stats.iterations += phase2.iterations;
    stats.total_time += phase2.total_time;
    stats.send_time += phase2.send_time;
    stats.spmv_time += phase2.spmv_time;
    stats.apply_time += phase2.apply_time;
    stats.edges_processed += phase2.edges_processed;
    stats.messages_sent += phase2.messages_sent;
    stats.supersteps.extend(phase2.supersteps.iter().copied());
    stats
}

/// Total number of triangles (sum of the per-vertex counts).
pub fn total_triangles(output: &AlgorithmOutput<u64>) -> u64 {
    output.values.iter().sum()
}

/// Brute-force reference count used by tests (O(V·d²)).
pub fn triangle_count_reference<E: Clone>(edges: &EdgeList<E>) -> u64 {
    let dag = edges.to_dag();
    let n = dag.num_vertices() as usize;
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(s, d, _) in dag.edges() {
        adj[s as usize].push(d);
    }
    for list in &mut adj {
        list.sort_unstable();
    }
    let mut total = 0u64;
    for u in 0..n {
        for &v in &adj[u] {
            total += sorted_intersection_size(&adj[u], &adj[v as usize]);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Triangles of `el` (DAG-reduced as the paper prescribes) on `session`.
    fn count_in<E: Clone + Send + Sync + 'static>(
        session: &Session,
        el: &EdgeList<E>,
    ) -> AlgorithmOutput<u64> {
        let topo = session
            .build_graph(&el.to_dag())
            .in_edges(false)
            .finish()
            .unwrap();
        triangle_count_on(session, &topo).unwrap()
    }

    fn count(el: &EdgeList<()>) -> u64 {
        total_triangles(&count_in(&Session::sequential(), el))
    }

    #[test]
    fn single_triangle() {
        let el = EdgeList::from_pairs(4, vec![(0, 1), (1, 2), (2, 0), (2, 3)]);
        assert_eq!(count(&el), 1);
    }

    #[test]
    fn two_triangles_sharing_an_edge() {
        let el = EdgeList::from_pairs(4, vec![(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(count(&el), 2);
        assert_eq!(count(&el), triangle_count_reference(&el));
    }

    #[test]
    fn complete_graph_k5_has_ten_triangles() {
        let mut pairs = Vec::new();
        for i in 0..5u32 {
            for j in (i + 1)..5u32 {
                pairs.push((i, j));
            }
        }
        assert_eq!(count(&EdgeList::from_pairs(5, pairs)), 10); // C(5,3)
    }

    #[test]
    fn triangle_free_graph() {
        // a star has no triangles
        let el = EdgeList::from_pairs(5, vec![(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(count(&el), 0);
    }

    #[test]
    fn direction_of_input_edges_does_not_matter() {
        let a = EdgeList::from_pairs(3, vec![(0, 1), (1, 2), (2, 0)]);
        let b = EdgeList::from_pairs(3, vec![(1, 0), (2, 1), (0, 2)]);
        assert_eq!(count(&a), count(&b));
    }

    #[test]
    fn matches_reference_on_rmat() {
        let el = graphmat_io::rmat::generate(
            &graphmat_io::rmat::RmatConfig::triangle_counting(8).with_seed(31),
        );
        let out = count_in(&Session::with_threads(4).unwrap(), &el);
        assert_eq!(total_triangles(&out), triangle_count_reference(&el));
        assert!(
            total_triangles(&out) > 0,
            "RMAT graph should contain triangles"
        );
    }

    #[test]
    fn phase_stats_survive_suppressed_superstep_detail() {
        // With record_supersteps off the per-superstep log is empty; the
        // merged stats must still account for both phases' totals.
        use graphmat_core::{RunOptions, SessionOptions};
        let session = Session::new(SessionOptions::default().with_threads(1).with_run_defaults(
            RunOptions {
                record_supersteps: false,
                ..RunOptions::default()
            },
        ))
        .unwrap();
        let el = EdgeList::from_pairs(4, vec![(0, 1), (1, 2), (2, 0)]);
        let out = count_in(&session, &el);
        assert_eq!(total_triangles(&out), 1);
        assert_eq!(out.stats.iterations, 2);
        assert!(out.stats.edges_processed > 0);
        assert!(out.stats.supersteps.is_empty());
    }

    #[test]
    fn exactly_two_supersteps_of_work() {
        let el = EdgeList::from_pairs(4, vec![(0, 1), (1, 2), (2, 0)]);
        let out = count_in(&Session::sequential(), &el);
        assert_eq!(out.stats.iterations, 2);
        assert_eq!(out.stats.supersteps.len(), 2);
    }
}
