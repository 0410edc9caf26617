//! Graph algorithms written as GraphMat vertex programs.
//!
//! The paper evaluates five algorithms chosen for their diversity (§3):
//!
//! * [`pagerank`] — PageRank (iterative ranking, all vertices active every
//!   superstep);
//! * [`bfs`] — Breadth-First Search (traversal, frontier-driven);
//! * [`collaborative_filtering`] — matrix factorization by gradient descent
//!   on a bipartite ratings graph (heavy per-vertex state, both directions);
//! * [`triangle_count`] — triangle counting (large messages: adjacency
//!   lists);
//! * [`sssp`] — single-source shortest paths (Bellman-Ford with an active
//!   frontier).
//!
//! Beyond the paper's set, the crate also ships [`connected_components`],
//! [`degree`] and [`delta_pagerank`] as extensions demonstrating that the
//! same `GraphProgram` abstraction covers more algorithms without backend
//! changes.
//!
//! Every algorithm follows the same pattern as the paper's appendix listing:
//! a `Program` implementing [`graphmat_core::GraphProgram`] (plus a
//! `*Config` struct where the algorithm has parameters) and **one pooled
//! view driver plus one `*_on` wrapper**:
//!
//! * the pooled view driver (`bfs_view_into`, `pagerank_view_into`, …) is
//!   where the algorithm's run is set up, once: it runs over a
//!   `(base ⊕ delta)` [`graphmat_core::GraphView`] through a
//!   [`graphmat_core::Session`], writes into a caller-owned
//!   [`graphmat_core::VertexState`] (typically recycled through a
//!   [`graphmat_core::StatePool`]) and takes an optional deadline. A
//!   long-running server that keeps one pool per worker per algorithm
//!   allocates nothing per query in the steady state — the state vector
//!   and the engine workspace cached inside it are both reused;
//! * the `*_on` wrapper (`bfs_on`, `pagerank_on`, …) takes
//!   `&Session + &Topology`, runs the view driver into a fresh state and
//!   returns the values as an [`AlgorithmOutput`].
//!
//! The topology is built once (see
//! [`graphmat_core::Session::build_graph`]), shared via `Arc`, and any
//! number of drivers can run against it **concurrently** from different
//! threads through one session. Drivers return
//! `Result<_, GraphMatError>` instead of panicking, and they do *not*
//! preprocess the graph — symmetrize / DAG-reduce the edge list before
//! building the topology (each driver documents what it expects).
//!
//! The five algorithms the query server runs (BFS, SSSP, PageRank,
//! connected components, in-degrees) have both drivers. The others keep
//! only the shape they need: [`delta_pagerank`] a view driver
//! (`delta_pagerank_view`, which its streaming maintainer reuses) plus
//! `delta_pagerank_on`; triangle counting and collaborative filtering a
//! `*_on` driver.
//!
//! All drivers are **generic over the edge value type**. Structure-only
//! algorithms (BFS, connected components, degree, triangle counting,
//! PageRank) run on any `Topology<E>` and simply ignore the values — build
//! the topology from an `EdgeList<()>` for the zero-cost unweighted fast
//! path, where the adjacency matrices store no edge value bytes at all. Weight-consuming
//! algorithms (SSSP, collaborative filtering) bound their edge type with
//! [`graphmat_io::edgelist::EdgeWeight`], so `f32`, integer weights and
//! even `()` (unit weights) all work without touching the backend.

pub mod bfs;
pub mod collaborative_filtering;
pub mod connected_components;
pub mod degree;
pub mod delta_pagerank;
pub mod pagerank;
pub mod sssp;
pub mod triangle_count;

/// Result of an algorithm run: the per-vertex output plus the engine
/// statistics (used by the benchmark harness).
#[derive(Clone, Debug)]
pub struct AlgorithmOutput<T> {
    /// Per-vertex result values, indexed by vertex id.
    pub values: Vec<T>,
    /// Engine statistics for the run.
    pub stats: graphmat_core::RunStats,
    /// Whether the run converged before hitting the iteration limit.
    pub converged: bool,
}

impl<T> AlgorithmOutput<T> {
    /// Transform every per-vertex value, keeping the statistics.
    pub fn map_values<U>(self, f: impl FnMut(T) -> U) -> AlgorithmOutput<U> {
        AlgorithmOutput {
            values: self.values.into_iter().map(f).collect(),
            stats: self.stats,
            converged: self.converged,
        }
    }
}

impl<T> From<graphmat_core::RunOutcome<T>> for AlgorithmOutput<T> {
    fn from(outcome: graphmat_core::RunOutcome<T>) -> Self {
        AlgorithmOutput {
            values: outcome.values,
            stats: outcome.stats,
            converged: outcome.converged,
        }
    }
}

/// Run a pooled view driver into a fresh state sized for `topology` and
/// collect the final properties — what every `*_on` wrapper reduces to, so
/// each algorithm's run set-up lives in its view driver alone.
pub(crate) fn run_fresh<V: Clone + Default, E>(
    topology: &graphmat_core::Topology<E>,
    run: impl FnOnce(
        &mut graphmat_core::VertexState<V>,
    ) -> graphmat_core::error::Result<graphmat_core::RunResult>,
) -> graphmat_core::error::Result<AlgorithmOutput<V>> {
    let mut state = graphmat_core::VertexState::for_topology(topology);
    let result = run(&mut state)?;
    Ok(AlgorithmOutput {
        values: state.into_properties(),
        stats: result.stats,
        converged: result.converged,
    })
}

/// Stats for a driver's zero-iteration short-circuit: no supersteps ran, but
/// the environment facts (matrix footprint, lane count) are still reported.
pub(crate) fn zero_superstep_stats<E>(
    topology: &graphmat_core::Topology<E>,
    session: &graphmat_core::Session,
) -> graphmat_core::RunStats {
    graphmat_core::RunStats {
        matrix_bytes: topology.matrix_bytes(),
        nthreads: session.nthreads(),
        ..Default::default()
    }
}
