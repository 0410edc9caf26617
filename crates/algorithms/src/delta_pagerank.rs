//! Convergence-driven ("delta") PageRank — an extension beyond the paper's
//! fixed-iteration PageRank.
//!
//! The paper times PageRank per iteration with every vertex active. Many
//! deployments instead run to a tolerance, propagating only the *change* in
//! rank each superstep so that converged regions of the graph drop out of the
//! computation. Writing the rank update in incremental form,
//!
//! ```text
//! rank_{t+1}(v) − rank_t(v) = (1 − r) Σ_{u→v} Δ_t(u) / degree(u)
//! ```
//!
//! the message becomes `Δ(u)/degree(u)`, APPLY adds the damped sum to the
//! rank, and a vertex whose increment falls below the tolerance goes inactive
//! — GraphMat's active-set machinery implements the frontier shrinkage with
//! no engine change (Algorithm 2 lines 12–13). Initialising
//! `rank_0 = Δ_0 = r` makes the recurrence exact from the first superstep.
//!
//! **Boundary-case semantics.** A vertex with no in-edges ends at `rank = r`,
//! which is what the paper's equation 1 prescribes. The fixed-iteration
//! [`crate::pagerank`] program instead leaves such vertices at their initial
//! rank of 1.0, because Algorithm 2 only APPLYs to vertices that received a
//! message — that is faithful to the original GraphMat implementation. On
//! graphs where every vertex has an in-edge the two programs converge to the
//! same values; on graphs with source vertices their results differ by design
//! (and the difference propagates downstream).

use crate::AlgorithmOutput;
use graphmat_core::error::Result;
use graphmat_core::store::{GraphSnapshot, GraphStore};
use graphmat_core::{EdgeDirection, GraphProgram, GraphView, Session, Topology, VertexId};
use graphmat_delta::DeltaBatch;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Delta-PageRank parameters.
#[derive(Clone, Copy, Debug)]
pub struct DeltaPageRankConfig {
    /// Random-surf probability `r`.
    pub random_surf: f64,
    /// Convergence tolerance: a vertex whose rank increment is smaller than
    /// this stops broadcasting.
    pub tolerance: f64,
    /// Hard iteration cap (safety net).
    pub max_iterations: usize,
}

impl Default for DeltaPageRankConfig {
    fn default() -> Self {
        DeltaPageRankConfig {
            random_surf: 0.15,
            tolerance: 1e-7,
            max_iterations: 500,
        }
    }
}

/// Per-vertex delta-PageRank state.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DeltaPrVertex {
    /// Current rank estimate.
    pub rank: f64,
    /// Increment applied in the last superstep (what gets broadcast next).
    pub delta: f64,
    /// Out-degree, cached for SEND_MESSAGE.
    pub degree: u32,
}

struct DeltaPageRankProgram<E> {
    random_surf: f64,
    tolerance: f64,
    _edge: std::marker::PhantomData<E>,
}

impl<E: Clone + Send + Sync> GraphProgram for DeltaPageRankProgram<E> {
    type VertexProp = DeltaPrVertex;
    type Message = f64;
    type Reduced = f64;
    type Edge = E;

    fn direction(&self) -> EdgeDirection {
        EdgeDirection::Out
    }

    fn send_message(&self, _v: VertexId, prop: &DeltaPrVertex) -> Option<f64> {
        if prop.degree == 0 || prop.delta == 0.0 {
            None
        } else {
            Some(prop.delta / prop.degree as f64)
        }
    }

    fn process_message(&self, msg: &f64, _edge: &E, _dst: &DeltaPrVertex) -> f64 {
        *msg
    }

    fn reduce(&self, acc: &mut f64, value: f64) {
        *acc += value;
    }

    fn apply(&self, reduced: &f64, prop: &mut DeltaPrVertex) {
        let increment = (1.0 - self.random_surf) * reduced;
        if increment.abs() >= self.tolerance {
            prop.rank += increment;
            prop.delta = increment;
        } else {
            // below tolerance: absorb nothing and go quiet (the vertex stays
            // inactive because its property did not change)
        }
    }
}

/// Run PageRank over a pre-built shared topology through a [`Session`]
/// until every vertex's rank increment falls below the tolerance. The
/// returned ranks satisfy the same fixed-point equation as
/// [`crate::pagerank::pagerank_on`]; they differ from a truncated
/// fixed-iteration run only by the tolerance.
///
/// # Errors
///
/// [`graphmat_core::GraphMatError::InvalidParameter`] for a non-positive
/// or NaN tolerance.
pub fn delta_pagerank_on<E: Clone + Send + Sync>(
    session: &Session,
    topology: &Topology<E>,
    config: &DeltaPageRankConfig,
) -> Result<AlgorithmOutput<f64>> {
    delta_pagerank_view(session, GraphView::base(topology), config)
}

/// [`delta_pagerank_on`] over a `(base ⊕ delta)` [`GraphView`] — typically
/// `snapshot.view()` from a [`GraphStore`] snapshot. The out-degrees the
/// program divides by are the **edited** graph's, so results are
/// bit-for-bit identical to a run against a topology rebuilt from the
/// edited edge list.
pub fn delta_pagerank_view<E: Clone + Send + Sync>(
    session: &Session,
    view: GraphView<'_, E>,
    config: &DeltaPageRankConfig,
) -> Result<AlgorithmOutput<f64>> {
    validate_tolerance(config.tolerance)?;
    // Zero iterations returns the initial state without running, like the
    // other fixed-iteration drivers.
    if config.max_iterations == 0 {
        return Ok(AlgorithmOutput {
            values: vec![config.random_surf; view.num_vertices() as usize],
            stats: crate::zero_superstep_stats(view.topology(), session),
            converged: false,
        });
    }
    let degrees = view.out_degrees();
    let r = config.random_surf;
    let program = DeltaPageRankProgram::<E> {
        random_surf: config.random_surf,
        tolerance: config.tolerance,
        _edge: std::marker::PhantomData,
    };
    let outcome = session
        .run_view(view, program)
        .init_with(|v| DeltaPrVertex {
            rank: r,
            delta: r,
            degree: degrees[v as usize],
        })
        .activate_all()
        // The whole point of the delta formulation is a shrinking
        // changed-only frontier; pin it against session defaults.
        .activity(graphmat_core::ActivityPolicy::Changed)
        .max_iterations(config.max_iterations)
        .execute()?;
    Ok(AlgorithmOutput::from(outcome).map_values(|p| p.rank))
}

/// NaN must be rejected alongside non-positive values — a NaN tolerance
/// would make every `increment.abs() >= tolerance` false and return a bogus
/// "converged" result.
fn validate_tolerance(tolerance: f64) -> Result<()> {
    if tolerance.is_nan() || tolerance <= 0.0 {
        return Err(graphmat_core::GraphMatError::InvalidParameter(
            "delta-PageRank tolerance must be positive",
        ));
    }
    Ok(())
}

/// The residual-restart program [`StreamingPageRank`] runs after a topology
/// change. Superstep 0 re-evaluates every vertex's rank under the **new**
/// graph (each vertex broadcasts `rank/degree`, APPLY computes
/// `new = r + (1 − r)·Σ` and records the residual `new − rank` as the
/// delta); every later superstep is the ordinary delta recurrence. The
/// phase flip happens at the superstep barrier (`on_superstep_end`), so
/// SEND and APPLY of one superstep always agree on the phase.
struct StreamingRestartProgram<E> {
    random_surf: f64,
    tolerance: f64,
    restart: AtomicBool,
    _edge: std::marker::PhantomData<E>,
}

impl<E: Clone + Send + Sync> GraphProgram for StreamingRestartProgram<E> {
    type VertexProp = DeltaPrVertex;
    type Message = f64;
    type Reduced = f64;
    type Edge = E;

    fn direction(&self) -> EdgeDirection {
        EdgeDirection::Out
    }

    fn send_message(&self, _v: VertexId, prop: &DeltaPrVertex) -> Option<f64> {
        let value = if self.restart.load(Ordering::Relaxed) {
            prop.rank
        } else {
            prop.delta
        };
        if prop.degree == 0 || value == 0.0 {
            None
        } else {
            Some(value / prop.degree as f64)
        }
    }

    fn process_message(&self, msg: &f64, _edge: &E, _dst: &DeltaPrVertex) -> f64 {
        *msg
    }

    fn reduce(&self, acc: &mut f64, value: f64) {
        *acc += value;
    }

    fn apply(&self, reduced: &f64, prop: &mut DeltaPrVertex) {
        if self.restart.load(Ordering::Relaxed) {
            let new_rank = self.random_surf + (1.0 - self.random_surf) * reduced;
            let residual = new_rank - prop.rank;
            if residual.abs() >= self.tolerance {
                prop.rank = new_rank;
                prop.delta = residual;
            }
        } else {
            let increment = (1.0 - self.random_surf) * reduced;
            if increment.abs() >= self.tolerance {
                prop.rank += increment;
                prop.delta = increment;
            }
        }
    }

    fn on_superstep_end(&self, iteration: usize, _changed: usize) {
        if iteration == 0 {
            self.restart.store(false, Ordering::Relaxed);
        }
    }
}

/// PageRank maintained incrementally across a stream of real
/// [`DeltaBatch`]es — the GraFS-style "keep the result live while the graph
/// mutates" workload, built on [`GraphStore`] snapshots.
///
/// The first [`StreamingPageRank::refresh`] runs full delta-PageRank
/// ([`delta_pagerank_view`]). Each later refresh **repairs** the previous
/// ranks instead of recomputing: one restart superstep re-evaluates every
/// vertex under the new snapshot and seeds the delta recurrence with the
/// per-vertex residual, so only the region the edits perturbed (above
/// `tolerance`) re-converges — the shrinking-frontier property that makes
/// delta-PageRank cheap carries over to topology changes.
///
/// Ranks agree with a from-scratch [`delta_pagerank_view`] run on the same
/// snapshot to within tolerance-scale differences (both satisfy the same
/// fixed-point equation; iteration *paths* differ). Vertices whose last
/// in-edge was deleted are reset to `r`, matching the from-scratch
/// boundary-case semantics documented at the module level.
///
/// ```
/// # use graphmat_algorithms::delta_pagerank::{StreamingPageRank, DeltaPageRankConfig};
/// # use graphmat_core::store::GraphStore;
/// # use graphmat_core::Session;
/// # use graphmat_delta::{DeltaBatch, UpdateOp};
/// # use graphmat_io::edgelist::EdgeList;
/// let session = Session::sequential();
/// let edges = EdgeList::from_tuples(3, vec![(0, 1, 1.0f32), (1, 2, 1.0), (2, 0, 1.0)]);
/// let topo = session.build_graph(&edges).finish().unwrap();
/// let store = GraphStore::with_defaults(topo);
///
/// let mut pr = StreamingPageRank::new(DeltaPageRankConfig::default()).unwrap();
/// pr.refresh(&session, &store.snapshot()).unwrap(); // full run
///
/// let mut batch = DeltaBatch::new(3);
/// batch.insert(0, 2, 1.0).unwrap();
/// pr.ingest(&session, &store, batch).unwrap(); // apply + incremental repair
/// assert_eq!(pr.ranks().len(), 3);
/// ```
pub struct StreamingPageRank {
    config: DeltaPageRankConfig,
    ranks: Vec<f64>,
    version: u64,
    initialized: bool,
}

impl StreamingPageRank {
    /// Create a maintainer with the given parameters (validated — a bad
    /// tolerance is a typed error, not a panic).
    pub fn new(config: DeltaPageRankConfig) -> Result<Self> {
        validate_tolerance(config.tolerance)?;
        Ok(StreamingPageRank {
            config,
            ranks: Vec::new(),
            version: 0,
            initialized: false,
        })
    }

    /// The maintained per-vertex ranks (empty before the first refresh).
    pub fn ranks(&self) -> &[f64] {
        &self.ranks
    }

    /// The snapshot version the ranks were last computed against.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Bring the ranks up to date with `snapshot`: a full run the first
    /// time, an incremental residual-restart repair afterwards.
    pub fn refresh<E: Clone + Send + Sync>(
        &mut self,
        session: &Session,
        snapshot: &GraphSnapshot<E>,
    ) -> Result<graphmat_core::RunResult> {
        let view = snapshot.view();
        let n = view.num_vertices() as usize;
        if !self.initialized {
            let out = delta_pagerank_view(session, view, &self.config)?;
            self.ranks = out.values;
            self.version = snapshot.version();
            self.initialized = true;
            return Ok(graphmat_core::RunResult {
                stats: out.stats,
                converged: out.converged,
            });
        }
        if self.ranks.len() != n {
            return Err(graphmat_core::GraphMatError::InvalidParameter(
                "snapshot vertex count does not match the maintained ranks",
            ));
        }
        let degrees = view.out_degrees();
        let ranks = &self.ranks;
        let program = StreamingRestartProgram::<E> {
            random_surf: self.config.random_surf,
            tolerance: self.config.tolerance,
            restart: AtomicBool::new(true),
            _edge: std::marker::PhantomData,
        };
        let outcome = session
            .run_view(view, program)
            .init_with(|v| DeltaPrVertex {
                rank: ranks[v as usize],
                delta: 0.0,
                degree: degrees[v as usize],
            })
            .activate_all()
            .activity(graphmat_core::ActivityPolicy::Changed)
            .max_iterations(self.config.max_iterations)
            .execute()?;
        self.ranks.clear();
        self.ranks.extend(outcome.values.iter().map(|p| p.rank));
        // Boundary-case fixup: a vertex with no in-edges never receives a
        // message, so the program cannot move it; from scratch it would sit
        // at its initial rank `r`. Pin it there explicitly (an edit may have
        // deleted its last in-edge).
        let in_degrees = view.in_degrees();
        for (v, rank) in self.ranks.iter_mut().enumerate() {
            if in_degrees[v] == 0 {
                *rank = self.config.random_surf;
            }
        }
        self.version = snapshot.version();
        Ok(graphmat_core::RunResult {
            stats: outcome.stats,
            converged: outcome.converged,
        })
    }

    /// Apply one real update batch to `store` and incrementally repair the
    /// ranks against the snapshot that admitted it. Returns that snapshot.
    pub fn ingest<E: Clone + Send + Sync + 'static>(
        &mut self,
        session: &Session,
        store: &GraphStore<E>,
        batch: DeltaBatch<E>,
    ) -> Result<Arc<GraphSnapshot<E>>> {
        let snapshot = store.apply(batch)?;
        self.refresh(session, &snapshot)?;
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::{pagerank_on, PageRankConfig};
    use graphmat_io::edgelist::EdgeList;

    fn test_graph() -> EdgeList {
        graphmat_io::rmat::generate(&graphmat_io::rmat::RmatConfig::graph500(8).with_seed(3))
    }

    /// Delta-PageRank over `el` on `session`.
    fn delta_in(
        session: &Session,
        el: &EdgeList,
        cfg: &DeltaPageRankConfig,
    ) -> AlgorithmOutput<f64> {
        let topo = session.build_graph(el).in_edges(false).finish().unwrap();
        delta_pagerank_on(session, &topo, cfg).unwrap()
    }

    #[test]
    fn converges_before_the_iteration_cap() {
        let out = delta_in(
            &Session::sequential(),
            &test_graph(),
            &DeltaPageRankConfig::default(),
        );
        assert!(out.converged);
        assert!(out.stats.iterations < 500);
    }

    #[test]
    fn agrees_with_fixed_iteration_pagerank() {
        // Use a graph where every vertex has at least one in-edge and one
        // out-edge (RMAT plus a Hamiltonian cycle), so the classic program's
        // "never-applied vertices keep their initial rank" boundary case does
        // not kick in and both formulations share a unique fixed point.
        let rmat = test_graph();
        let n = rmat.num_vertices();
        let mut edges: Vec<(u32, u32, f32)> = rmat.edges().to_vec();
        for v in 0..n {
            edges.push((v, (v + 1) % n, 1.0));
        }
        let el = EdgeList::from_tuples(n, edges);

        let session = Session::sequential();
        let delta = delta_in(
            &session,
            &el,
            &DeltaPageRankConfig {
                tolerance: 1e-12,
                max_iterations: 1000,
                ..Default::default()
            },
        );
        let topo = session.build_graph(&el).in_edges(false).finish().unwrap();
        let fixed = pagerank_on(
            &session,
            &topo,
            &PageRankConfig {
                iterations: 200,
                ..Default::default()
            },
        )
        .unwrap();
        for (v, (a, b)) in delta.values.iter().zip(fixed.values.iter()).enumerate() {
            assert!((a - b).abs() < 1e-4, "vertex {v}: {a} vs {b}");
        }
    }

    #[test]
    fn active_set_shrinks_over_time() {
        let cfg = DeltaPageRankConfig {
            tolerance: 1e-6,
            ..Default::default()
        };
        let out = delta_in(&Session::sequential(), &test_graph(), &cfg);
        let first = out.stats.supersteps.first().unwrap().active_vertices;
        let last = out.stats.supersteps.last().unwrap().active_vertices;
        assert!(last < first, "frontier should shrink: {first} -> {last}");
    }

    #[test]
    fn parallel_matches_sequential() {
        let el = test_graph();
        let cfg = DeltaPageRankConfig::default();
        let seq = delta_in(&Session::sequential(), &el, &cfg);
        let par = delta_in(&Session::with_threads(4).unwrap(), &el, &cfg);
        for (a, b) in seq.values.iter().zip(par.values.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_iterations_return_the_initial_ranks() {
        let cfg = DeltaPageRankConfig {
            max_iterations: 0,
            ..Default::default()
        };
        let on = delta_in(&Session::sequential(), &test_graph(), &cfg);
        assert!(on.values.iter().all(|&r| r == cfg.random_surf));
        assert!(!on.converged);
    }

    #[test]
    fn zero_tolerance_is_an_error_on_the_session_path() {
        let el = test_graph();
        let session = Session::sequential();
        let topo = session.build_graph(&el).in_edges(false).finish().unwrap();
        for tolerance in [0.0, -1.0, f64::NAN] {
            let bad = DeltaPageRankConfig {
                tolerance,
                ..Default::default()
            };
            assert!(
                matches!(
                    delta_pagerank_on(&session, &topo, &bad).unwrap_err(),
                    graphmat_core::GraphMatError::InvalidParameter(_)
                ),
                "tolerance {tolerance} must be rejected"
            );
        }
    }

    #[test]
    fn view_driver_over_pending_deltas_matches_rebuild_bit_for_bit() {
        use graphmat_core::store::{GraphStore, StoreOptions};

        let el = test_graph();
        let session = Session::sequential();
        let topo = session.build_graph(&el).in_edges(false).finish().unwrap();
        let store = GraphStore::new(
            std::sync::Arc::clone(&topo),
            StoreOptions {
                compaction_threshold: usize::MAX,
                background: false,
                overload_watermark: usize::MAX,
            },
        );
        let n = el.num_vertices();
        let mut batch = DeltaBatch::new(n);
        batch.insert(0, n - 1, 1.0).unwrap();
        batch.delete(el.edges()[0].0, el.edges()[0].1).unwrap();
        batch.insert(n / 2, 0, 2.0).unwrap();
        let snapshot = store.apply(batch).unwrap();
        assert!(snapshot.overlay().is_some());

        let cfg = DeltaPageRankConfig::default();
        let overlaid = delta_pagerank_view(&session, snapshot.view(), &cfg).unwrap();

        store.compact_now();
        let rebuilt = store.snapshot();
        assert!(rebuilt.overlay().is_none());
        let from_scratch = delta_pagerank_view(&session, rebuilt.view(), &cfg).unwrap();
        for (v, (a, b)) in overlaid.values.iter().zip(&from_scratch.values).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "vertex {v}: {a} vs {b}");
        }
    }

    #[test]
    fn streaming_pagerank_tracks_real_batches() {
        use graphmat_core::store::{GraphStore, StoreOptions};

        let el = test_graph();
        let n = el.num_vertices();
        let session = Session::sequential();
        let topo = session.build_graph(&el).in_edges(false).finish().unwrap();
        let store = GraphStore::new(
            std::sync::Arc::clone(&topo),
            StoreOptions {
                // Force a compaction mid-stream so the maintainer crosses a
                // base rebuild too.
                compaction_threshold: 4,
                background: false,
                overload_watermark: usize::MAX,
            },
        );
        let cfg = DeltaPageRankConfig {
            tolerance: 1e-10,
            max_iterations: 1000,
            ..Default::default()
        };
        let mut pr = StreamingPageRank::new(cfg).unwrap();
        let first = pr.refresh(&session, &store.snapshot()).unwrap();
        assert!(first.converged);
        assert_eq!(pr.version(), 0);

        // Stream three real batches, repairing incrementally after each.
        let batches: Vec<Vec<(u32, u32, f32)>> = vec![
            vec![(0, n - 1, 1.0), (1, n / 2, 1.0)],
            vec![(n / 2, 1, 1.0), (2, 0, 1.0)],
            vec![(0, n - 1, 2.0), (3, n / 3, 1.0)],
        ];
        for ops in batches {
            let mut batch = DeltaBatch::new(n);
            for (s, d, w) in ops {
                batch.insert(s, d, w).unwrap();
            }
            let snap = pr.ingest(&session, &store, batch).unwrap();
            assert_eq!(pr.version(), snap.version());
        }
        assert_eq!(pr.version(), 3);
        assert!(store.compactions() >= 1, "threshold 4 must have compacted");

        // The repaired ranks agree with a from-scratch run on the final
        // snapshot (same fixed point; iteration paths differ).
        let from_scratch = delta_pagerank_view(&session, store.snapshot().view(), &cfg).unwrap();
        for (v, (a, b)) in pr.ranks().iter().zip(&from_scratch.values).enumerate() {
            assert!((a - b).abs() < 1e-6, "vertex {v}: {a} vs {b}");
        }
    }

    #[test]
    fn streaming_refresh_rejects_mismatched_snapshot() {
        use graphmat_core::store::GraphStore;

        let session = Session::sequential();
        let el = test_graph();
        let topo = session.build_graph(&el).in_edges(false).finish().unwrap();
        let small = EdgeList::from_tuples(3, vec![(0u32, 1u32, 1.0f32), (1, 2, 1.0)]);
        let small_topo = session
            .build_graph(&small)
            .in_edges(false)
            .finish()
            .unwrap();

        let mut pr = StreamingPageRank::new(DeltaPageRankConfig::default()).unwrap();
        pr.refresh(&session, &GraphStore::with_defaults(topo).snapshot())
            .unwrap();
        let err = pr
            .refresh(&session, &GraphStore::with_defaults(small_topo).snapshot())
            .unwrap_err();
        assert!(matches!(
            err,
            graphmat_core::GraphMatError::InvalidParameter(_)
        ));
    }
}
