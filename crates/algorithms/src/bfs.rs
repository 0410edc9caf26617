//! Breadth-First Search as a GraphMat vertex program.
//!
//! The paper's formulation (§3-II): the root gets distance 0 and is active;
//! at iteration `t` every vertex adjacent to an active vertex computes
//! `Distance(v) = min(Distance(v), t + 1)`, and vertices whose distance
//! changed (from ∞) become active. BFS runs on the symmetrized, unweighted
//! graph (§5.1).
//!
//! The program never reads edge values, so it is generic over the edge type
//! `E`. Running it on an `EdgeList<()>` takes the zero-cost unweighted fast
//! path: the DCSC matrices store no edge values, saving 4 bytes/edge of
//! memory traffic versus an `f32`-weighted graph of the same topology.

use crate::AlgorithmOutput;
use graphmat_core::error::Result;
use graphmat_core::{
    ActivityPolicy, EdgeDirection, GraphProgram, GraphView, RunResult, Session, Topology, VertexId,
    VertexState,
};
use graphmat_io::edgelist::EdgeList;

/// Distance value meaning "not reached yet".
pub const UNREACHED: u32 = u32::MAX;

/// The BFS vertex program. The vertex property is the current distance from
/// the root (`UNREACHED` if not discovered yet). Generic over the (ignored)
/// edge type; `BfsProgram<()>` is the unweighted fast path.
pub struct BfsProgram<E = ()> {
    _edge: std::marker::PhantomData<E>,
}

impl<E> Default for BfsProgram<E> {
    fn default() -> Self {
        BfsProgram {
            _edge: std::marker::PhantomData,
        }
    }
}

impl<E: Clone + Send + Sync> GraphProgram for BfsProgram<E> {
    type VertexProp = u32;
    type Message = u32;
    type Reduced = u32;
    type Edge = E;

    fn direction(&self) -> EdgeDirection {
        EdgeDirection::Out
    }

    fn send_message(&self, _v: VertexId, dist: &u32) -> Option<u32> {
        Some(*dist)
    }

    fn process_message(&self, msg: &u32, _edge: &E, _dst: &u32) -> u32 {
        msg.saturating_add(1)
    }

    fn reduce(&self, acc: &mut u32, value: u32) {
        if value < *acc {
            *acc = value;
        }
    }

    fn apply(&self, reduced: &u32, dist: &mut u32) {
        if *reduced < *dist {
            *dist = *reduced;
        }
    }
}

/// Run BFS over a pre-built shared topology through a [`Session`] and
/// return the per-vertex hop distance from the root ([`UNREACHED`] for
/// vertices in other components).
///
/// The serving-shape entry point: build the topology once
/// (`session.build_graph(&edges.symmetrized()).in_edges(false).finish()?`),
/// share it via `Arc`, and call this from any number of threads
/// concurrently. No preprocessing happens here — symmetrize the edge list
/// before building if the search should ignore direction (the paper always
/// does, §5.1). Weights are ignored: an `EdgeList<()>` topology is the
/// unweighted fast path.
///
/// # Errors
///
/// [`graphmat_core::GraphMatError::VertexOutOfRange`] if `root` is not a
/// vertex of the topology.
pub fn bfs_on<E: Clone + Send + Sync + 'static>(
    session: &Session,
    topology: &Topology<E>,
    root: VertexId,
) -> Result<AlgorithmOutput<u32>> {
    crate::run_fresh(topology, |state| {
        bfs_view_into(session, GraphView::base(topology), root, None, state)
    })
}

/// Run BFS over a `(base ⊕ delta)` [`GraphView`] into a caller-owned
/// (pooled) state — the serving hot path, and the one place BFS's run is
/// set up.
///
/// Zero per-query allocation in the steady state: the hop distances are
/// left in `state`, and the engine workspace cached inside the state is
/// recycled. Use one [`graphmat_core::StatePool`] per program type (see its
/// docs); pass a `deadline` to bound wall-clock time
/// ([`graphmat_core::GraphMatError::DeadlineExceeded`] past it). Over a
/// view with pending edits the search traverses the **edited** graph,
/// bit-for-bit identical to a run against a topology rebuilt from the
/// edited edge list.
pub fn bfs_view_into<E: Clone + Send + Sync + 'static>(
    session: &Session,
    view: GraphView<'_, E>,
    root: VertexId,
    deadline: Option<std::time::Instant>,
    state: &mut VertexState<u32>,
) -> Result<RunResult> {
    session
        .run_view(view, BfsProgram::<E>::default())
        .init_all(UNREACHED)
        .seed_with(root, 0)
        // BFS semantics are fixed: frontier-driven, run to convergence —
        // session-wide run defaults must not silently truncate or
        // over-activate the search.
        .activity(ActivityPolicy::Changed)
        .until_convergence()
        .deadline(deadline)
        .execute_with(state)
}

/// Queue-based reference BFS used by tests.
pub fn bfs_reference<E: Clone>(edges: &EdgeList<E>, root: VertexId, symmetrize: bool) -> Vec<u32> {
    let symmetric;
    let edges = if symmetrize {
        symmetric = edges.symmetrized();
        &symmetric
    } else {
        edges
    };
    let n = edges.num_vertices() as usize;
    let mut adj = vec![Vec::new(); n];
    for &(s, d, _) in edges.edges() {
        adj[s as usize].push(d as usize);
    }
    let mut dist = vec![UNREACHED; n];
    let mut queue = std::collections::VecDeque::new();
    dist[root as usize] = 0;
    queue.push_back(root as usize);
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if dist[v] == UNREACHED {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_with_branch() -> EdgeList<()> {
        // 0-1-2-3 chain plus branch 1-4; vertex 5 isolated
        EdgeList::from_pairs(6, vec![(0, 1), (1, 2), (2, 3), (1, 4)])
    }

    /// `el` as a topology in `session`: out-edges only, no preprocessing.
    fn build(session: &Session, el: &EdgeList<()>) -> std::sync::Arc<Topology<()>> {
        session.build_graph(el).in_edges(false).finish().unwrap()
    }

    #[test]
    fn distances_match_reference() {
        let el = chain_with_branch();
        let session = Session::sequential();
        let out = bfs_on(&session, &build(&session, &el.symmetrized()), 0).unwrap();
        assert_eq!(out.values, bfs_reference(&el, 0, true));
        assert_eq!(out.values, vec![0, 1, 2, 3, 2, UNREACHED]);
        assert!(out.converged);
        // frontier advances one hop per superstep; final superstep discovers
        // nothing new, so iterations = max distance + 1
        assert_eq!(out.stats.iterations, 4);

        // Misuse is an error, not a panic.
        let err = bfs_on(&session, &build(&session, &el), 99).unwrap_err();
        assert_eq!(
            err,
            graphmat_core::GraphMatError::VertexOutOfRange {
                vertex: 99,
                num_vertices: 6
            }
        );
    }

    #[test]
    fn symmetrization_makes_directed_edges_traversable_backwards() {
        let el = EdgeList::from_pairs(3, vec![(1, 0), (1, 2)]);
        let session = Session::sequential();
        // rooted at 0: without symmetrization nothing is reachable
        let directed = bfs_on(&session, &build(&session, &el), 0).unwrap();
        assert_eq!(directed.values, vec![0, UNREACHED, UNREACHED]);
        let sym = bfs_on(&session, &build(&session, &el.symmetrized()), 0).unwrap();
        assert_eq!(sym.values, vec![0, 1, 2]);
    }

    #[test]
    fn session_run_defaults_cannot_truncate_the_search() {
        // A session whose run defaults cap iterations at 1 (say, for
        // PageRank-style workloads) must not silently truncate a
        // convergence-driven driver: bfs_on pins its own termination.
        use graphmat_core::{RunOptions, SessionOptions};
        let session = Session::new(
            SessionOptions::default()
                .with_threads(1)
                .with_run_defaults(RunOptions::default().with_max_iterations(1)),
        )
        .unwrap();
        let el = chain_with_branch();
        let out = bfs_on(&session, &build(&session, &el.symmetrized()), 0).unwrap();
        assert!(out.converged);
        assert_eq!(out.values, vec![0, 1, 2, 3, 2, UNREACHED]);
    }

    #[test]
    fn pooled_driver_matches_and_reruns_identically() {
        let el = chain_with_branch();
        let session = Session::sequential();
        let topo = build(&session, &el.symmetrized());
        let on = bfs_on(&session, &topo, 0).unwrap();

        let mut pool = graphmat_core::StatePool::for_topology(&topo);
        let mut state = pool.acquire();
        bfs_view_into(&session, GraphView::base(&topo), 0, None, &mut state).unwrap();
        assert_eq!(state.properties(), on.values.as_slice());
        pool.release(state);

        // Rerun from the pool: the stale distances must be re-initialized
        // and the cached workspace reused.
        let mut state = pool.acquire();
        bfs_view_into(&session, GraphView::base(&topo), 1, None, &mut state).unwrap();
        let fresh = bfs_on(&session, &topo, 1).unwrap();
        assert_eq!(state.properties(), fresh.values.as_slice());
        assert!(state.has_cached_workspace());
        assert_eq!(pool.created(), 1);
        assert_eq!(pool.reused(), 1);
    }

    #[test]
    fn parallel_matches_sequential_on_rmat() {
        let el =
            graphmat_io::rmat::generate(&graphmat_io::rmat::RmatConfig::graph500(9).with_seed(21));
        let run = |session: Session| {
            bfs_on(&session, &build(&session, &el.symmetrized().topology()), 1).unwrap()
        };
        let seq = run(Session::sequential());
        let par = run(Session::with_threads(4).unwrap());
        assert_eq!(seq.values, par.values);
        assert_eq!(seq.values, bfs_reference(&el, 1, true));
    }
}
