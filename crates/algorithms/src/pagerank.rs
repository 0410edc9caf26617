//! PageRank as a GraphMat vertex program.
//!
//! The paper's formulation (§3-I):
//!
//! ```text
//! PR_{t+1}(v) = r + (1 - r) * Σ_{u | (u,v) ∈ E}  PR_t(u) / degree(u)
//! ```
//!
//! with `r` the random-surf probability and `degree(u)` the out-degree of
//! `u`. Initial ranks are 1.0 and every vertex is active; each superstep is
//! one generalized SpMV with multiply = "take the incoming contribution" and
//! add = `+`. The paper reports time per iteration (Figure 4a), so the driver
//! runs a fixed number of iterations by default.

use crate::AlgorithmOutput;
use graphmat_core::error::Result;
use graphmat_core::{
    ActivityPolicy, EdgeDirection, GraphProgram, GraphView, RunResult, Session, Topology, VertexId,
    VertexState,
};
use graphmat_io::edgelist::EdgeList;

/// PageRank parameters.
#[derive(Clone, Copy, Debug)]
pub struct PageRankConfig {
    /// Random-surf probability `r` (the paper's equation 1; 0.15 is the
    /// conventional value).
    pub random_surf: f64,
    /// Number of iterations to run (the paper reports time per iteration, so
    /// the iteration count is fixed rather than convergence-driven; see
    /// [`crate::delta_pagerank`] for the convergence-driven variant).
    pub iterations: usize,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            random_surf: 0.15,
            iterations: 20,
        }
    }
}

/// Per-vertex PageRank state: the current rank and the out-degree (cached so
/// SEND_MESSAGE can divide by it without a graph lookup, exactly as the
/// original GraphMat stores algorithm state in the vertex property).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PageRankVertex {
    /// Current rank estimate.
    pub rank: f64,
    /// Out-degree of the vertex.
    pub degree: u32,
}

/// The PageRank vertex program. Edge values are never read, so the program
/// is generic over the edge type; `PageRankProgram<()>` runs on unweighted
/// graphs with no edge value bytes in the matrix.
pub struct PageRankProgram<E = f32> {
    random_surf: f64,
    _edge: std::marker::PhantomData<E>,
}

impl<E: Clone + Send + Sync> GraphProgram for PageRankProgram<E> {
    type VertexProp = PageRankVertex;
    type Message = f64;
    type Reduced = f64;
    type Edge = E;

    fn direction(&self) -> EdgeDirection {
        EdgeDirection::Out
    }

    fn send_message(&self, _v: VertexId, prop: &PageRankVertex) -> Option<f64> {
        if prop.degree == 0 {
            None // dangling vertices contribute nothing
        } else {
            Some(prop.rank / prop.degree as f64)
        }
    }

    fn process_message(&self, msg: &f64, _edge: &E, _dst: &PageRankVertex) -> f64 {
        *msg
    }

    fn reduce(&self, acc: &mut f64, value: f64) {
        *acc += value;
    }

    fn apply(&self, reduced: &f64, prop: &mut PageRankVertex) {
        prop.rank = self.random_surf + (1.0 - self.random_surf) * reduced;
    }
}

/// Run PageRank over a pre-built shared topology through a [`Session`] and
/// return the per-vertex ranks.
///
/// Ranks depend only on the structure (any edge value type works), so one
/// `Arc<Topology>` serves this and any other driver concurrently. A
/// `config.iterations` of `0` returns the initial ranks (1.0 everywhere)
/// without running.
pub fn pagerank_on<E: Clone + Send + Sync + 'static>(
    session: &Session,
    topology: &Topology<E>,
    config: &PageRankConfig,
) -> Result<AlgorithmOutput<f64>> {
    crate::run_fresh(topology, |state| {
        pagerank_view_into(session, GraphView::base(topology), config, None, state)
    })
    .map(|out| out.map_values(|p| p.rank))
}

/// Run PageRank over a `(base ⊕ delta)` [`GraphView`] into a caller-owned
/// (pooled) state — the serving hot path, and the one place PageRank's run
/// is set up.
///
/// Zero per-query allocation in the steady state: the final
/// [`PageRankVertex`] properties are left in `state` (read ranks with
/// `state.properties()[v].rank`), and the engine workspace cached inside
/// the state is recycled. Acquire/release the state through a
/// [`graphmat_core::StatePool`] dedicated to PageRank — the cached
/// workspace is typed by the program, so sharing one pool across programs
/// would re-allocate it every query. The out-degrees each vertex divides
/// its rank by come from the view, so over pending edits the ranks match a
/// run against the rebuilt topology bit-for-bit.
///
/// `deadline`, when given, bounds the run's wall-clock time
/// ([`graphmat_core::GraphMatError::DeadlineExceeded`] past it; the state
/// keeps the completed supersteps' partial ranks and stays safely
/// reusable). A `config.iterations` of `0` just writes the initial ranks.
pub fn pagerank_view_into<E: Clone + Send + Sync + 'static>(
    session: &Session,
    view: GraphView<'_, E>,
    config: &PageRankConfig,
    deadline: Option<std::time::Instant>,
    state: &mut VertexState<PageRankVertex>,
) -> Result<RunResult> {
    /// Every vertex starts at rank 1.0 (the paper's initialisation).
    const INITIAL_RANK: f64 = 1.0;
    let degrees = view.out_degrees();
    // Initialise the pooled state directly instead of through
    // `RunBuilder::init_with`: the builder boxes its init closure, and this
    // one captures the degree slice — a small per-query heap allocation the
    // serving hot path must not make (`tests/zero_alloc.rs`).
    state.check_matches(view.topology())?;
    state.init_properties(|v| PageRankVertex {
        rank: INITIAL_RANK,
        degree: degrees[v as usize],
    });
    if config.iterations == 0 {
        return Ok(RunResult {
            stats: crate::zero_superstep_stats(view.topology(), session),
            converged: false,
        });
    }
    let program = PageRankProgram::<E> {
        random_surf: config.random_surf,
        _edge: std::marker::PhantomData,
    };
    session
        .run_view(view, program)
        .activate_all()
        // every vertex rebroadcasts each iteration, as in the paper's
        // fixed-iteration PageRank runs
        .activity(ActivityPolicy::AlwaysAll)
        .max_iterations(config.iterations)
        .deadline(deadline)
        .execute_with(state)
}

/// Dense reference implementation used by tests: straightforward iteration of
/// the paper's equation 1 over an adjacency list.
pub fn pagerank_reference<E>(edges: &EdgeList<E>, random_surf: f64, iterations: usize) -> Vec<f64> {
    let n = edges.num_vertices() as usize;
    let degrees = edges.out_degrees();
    let mut ranks = vec![1.0f64; n];
    for _ in 0..iterations {
        let mut incoming = vec![0.0f64; n];
        for (u, v, _) in edges.edges() {
            if degrees[*u as usize] > 0 {
                incoming[*v as usize] += ranks[*u as usize] / degrees[*u as usize] as f64;
            }
        }
        for v in 0..n {
            // vertices with no in-edges keep rank = r + 0, but GraphMat only
            // applies to vertices that received a message — mirror that by
            // updating every vertex that has at least one in-edge
            ranks[v] = if incoming[v] > 0.0 || edges.in_degrees()[v] > 0 {
                random_surf + (1.0 - random_surf) * incoming[v]
            } else {
                ranks[v]
            };
        }
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_graph() -> EdgeList<()> {
        // 0 -> 1 -> 2 -> 0 plus 0 -> 2
        EdgeList::from_pairs(3, vec![(0, 1), (1, 2), (2, 0), (0, 2)])
    }

    /// PageRank over `el` on `session`, with `iterations` supersteps.
    fn pagerank_in(
        session: &Session,
        el: &EdgeList<()>,
        iterations: usize,
    ) -> AlgorithmOutput<f64> {
        let topo = session.build_graph(el).in_edges(false).finish().unwrap();
        let cfg = PageRankConfig {
            iterations,
            ..Default::default()
        };
        pagerank_on(session, &topo, &cfg).unwrap()
    }

    #[test]
    fn matches_reference_on_small_graph() {
        let el = triangle_graph();
        let out = pagerank_in(&Session::sequential(), &el, 15);
        let reference = pagerank_reference(&el, 0.15, 15);
        for (a, b) in out.values.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn ranks_reflect_link_structure() {
        // vertex 2 has two in-edges, vertices 0 and 1 have one each
        let out = pagerank_in(&Session::sequential(), &triangle_graph(), 20);
        assert!(out.values[2] > out.values[1]);
        assert!(out.values[2] > out.values[0]);
    }

    #[test]
    fn runs_requested_number_of_iterations() {
        let out = pagerank_in(&Session::sequential(), &triangle_graph(), 7);
        assert_eq!(out.stats.iterations, 7);
        assert!(!out.converged);
    }

    #[test]
    fn ranks_sum_stays_close_to_vertex_count() {
        // PageRank conserves total rank mass up to the dangling-vertex leak;
        // with no dangling vertices the sum stays ≈ n.
        let out = pagerank_in(&Session::sequential(), &triangle_graph(), 30);
        let total: f64 = out.values.iter().sum();
        assert!((total - 3.0).abs() < 1e-6, "total rank {total}");
    }

    #[test]
    fn dangling_vertices_do_not_poison_ranks() {
        // vertex 3 has no out-edges
        let el = EdgeList::from_pairs(4, vec![(0, 1), (1, 2), (2, 0), (0, 3)]);
        let out = pagerank_in(&Session::sequential(), &el, 20);
        assert!(out.values.iter().all(|r| r.is_finite()));
        assert!(out.values[3] > 0.0);
    }

    #[test]
    fn zero_iterations_return_the_initial_ranks() {
        let out = pagerank_in(&Session::sequential(), &triangle_graph(), 0);
        assert_eq!(out.values, vec![1.0; 3]);
        assert_eq!(out.stats.iterations, 0);
        assert!(!out.converged);
    }

    #[test]
    fn pooled_driver_matches_and_reruns_identically() {
        let el = triangle_graph();
        let cfg = PageRankConfig {
            iterations: 15,
            ..Default::default()
        };
        let session = Session::sequential();
        let topo = session.build_graph(&el).in_edges(false).finish().unwrap();
        let on = pagerank_on(&session, &topo, &cfg).unwrap();

        let mut pool = graphmat_core::StatePool::for_topology(&topo);
        for _ in 0..2 {
            let mut state = pool.acquire();
            pagerank_view_into(&session, GraphView::base(&topo), &cfg, None, &mut state).unwrap();
            let ranks: Vec<f64> = state.properties().iter().map(|p| p.rank).collect();
            assert_eq!(ranks, on.values);
            assert!(state.has_cached_workspace());
            pool.release(state);
        }
        assert_eq!((pool.created(), pool.reused()), (1, 1));
    }

    #[test]
    fn parallel_matches_sequential() {
        let el =
            graphmat_io::rmat::generate(&graphmat_io::rmat::RmatConfig::graph500(9).with_seed(77))
                .topology();
        let seq = pagerank_in(&Session::sequential(), &el, 5);
        let par = pagerank_in(&Session::with_threads(4).unwrap(), &el, 5);
        for (a, b) in seq.values.iter().zip(par.values.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
