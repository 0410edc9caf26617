//! [`Session`]: one persistent worker pool, many concurrent queries.
//!
//! The serving architecture GraphMat's matrix backend enables (and which
//! RedisGraph demonstrated in production) is: build the matrix **once**,
//! keep it resident, and answer many independent queries against it. The
//! session is the owning handle for that pattern:
//!
//! * it owns one [`Executor`] — a pool of parked worker threads created at
//!   [`Session::new`] and reused by every run; concurrent runs share the
//!   pool safely (parallel regions are serialized inside the executor, and
//!   phases below the parallel-work threshold run inline on the calling
//!   thread);
//! * [`Session::build_graph`] is a fluent builder producing an
//!   `Arc<Topology<E>>` — the immutable, `Sync` half that any number of
//!   runs can share without cloning;
//! * [`Session::run`] is a fluent run builder: seed vertices, initialise
//!   properties, cap iterations, pick the ablation toggles, then
//!   [`RunBuilder::execute`] into a fresh [`VertexState`] or
//!   [`RunBuilder::execute_with`] into a pooled one (which also recycles
//!   the engine workspace cached inside the state — reruns allocate
//!   nothing).
//!
//! Sessions run **direction-optimized** by default: [`RunOptions::default`]
//! selects [`VectorKind::Auto`], which picks the sparse push or dense pull SpMV
//! backend per superstep by frontier density (bit-for-bit identical results
//! either way; see [`crate::engine::choose_backend`]). Force a backend with
//! [`RunBuilder::vector`], or skip building the pull mirrors entirely
//! with [`GraphBuilder::pull_enabled`]`(false)` (the mirrors cost roughly
//! the adjacency matrices' memory again). The paper's always-push engine is
//! `pull_enabled(false)` plus `.vector(VectorKind::Bitvector)` — per run, or
//! for every run through [`SessionOptions::run_defaults`].
//!
//! Every fallible step returns a [`GraphMatError`] instead of panicking:
//! out-of-range seed vertices, zero threads, empty edge lists, mismatched
//! state lengths, missing in-edge matrices and zero iteration limits are
//! all error responses a serving layer can hand back to a client.
//!
//! ```
//! use graphmat_core::session::Session;
//! use graphmat_core::program::{GraphProgram, VertexId};
//! use graphmat_io::edgelist::EdgeList;
//!
//! struct Hops;
//! impl GraphProgram for Hops {
//!     type VertexProp = u32;
//!     type Message = u32;
//!     type Reduced = u32;
//!     type Edge = ();
//!     fn send_message(&self, _v: VertexId, d: &u32) -> Option<u32> { Some(*d) }
//!     fn process_message(&self, m: &u32, _e: &(), _d: &u32) -> u32 { m.saturating_add(1) }
//!     fn reduce(&self, acc: &mut u32, v: u32) { *acc = (*acc).min(v); }
//!     fn apply(&self, r: &u32, d: &mut u32) { *d = (*d).min(*r); }
//! }
//!
//! let session = Session::sequential();
//! let edges = EdgeList::from_pairs(4, vec![(0, 1), (1, 2), (2, 3)]);
//! let topo = session.build_graph(&edges).in_edges(false).finish().unwrap();
//! let outcome = session
//!     .run(&topo, Hops)
//!     .init_all(u32::MAX)
//!     .seed_with(0, 0)
//!     .execute()
//!     .unwrap();
//! assert_eq!(outcome.values, vec![0, 1, 2, 3]);
//! assert!(outcome.converged);
//! ```

use crate::engine::Workspace;
use crate::error::{GraphMatError, Result};
use crate::options::{ActivityPolicy, DispatchMode, RunOptions, VectorKind};
use crate::program::{EdgeDirection, GraphProgram, VertexId};
use crate::runner::{run_program_view, RunResult};
use crate::state::VertexState;
use crate::stats::RunStats;
use crate::topology::{GraphBuildOptions, Topology};
use crate::view::GraphView;
use graphmat_io::edgelist::EdgeList;
use graphmat_sparse::parallel::{available_threads, Executor};
use std::sync::Arc;

/// Options for creating a [`Session`].
#[derive(Clone, Copy, Debug)]
pub struct SessionOptions {
    /// Number of executor lanes (worker pool size) — the one thread-count
    /// knob. Must be at least 1; [`SessionOptions::default`] uses every
    /// available hardware thread.
    pub threads: usize,
    /// Default run options applied to every [`RunBuilder`] (each builder can
    /// override them per run).
    pub run_defaults: RunOptions,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            threads: available_threads(),
            run_defaults: RunOptions::default(),
        }
    }
}

impl SessionOptions {
    /// Set the worker-pool size.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the default run options.
    pub fn with_run_defaults(mut self, defaults: RunOptions) -> Self {
        self.run_defaults = defaults;
        self
    }
}

/// An owning handle over one persistent executor pool plus graph/run
/// builders. `Session` is `Sync`: share it by reference (or `Arc`) across
/// threads and issue concurrent runs against shared topologies.
#[derive(Debug)]
pub struct Session {
    executor: Executor,
    defaults: RunOptions,
}

impl Session {
    /// Create a session with an explicit configuration.
    ///
    /// # Errors
    ///
    /// [`GraphMatError::ZeroThreads`] if `options.threads == 0`;
    /// [`GraphMatError::ZeroIterations`] if the run defaults carry
    /// `max_iterations == Some(0)`.
    pub fn new(options: SessionOptions) -> Result<Session> {
        if options.threads == 0 {
            return Err(GraphMatError::ZeroThreads);
        }
        options.run_defaults.validate()?;
        Ok(Session {
            executor: Executor::new(options.threads),
            defaults: options.run_defaults,
        })
    }

    /// A session using every available hardware thread.
    pub fn with_defaults() -> Result<Session> {
        Session::new(SessionOptions::default())
    }

    /// A session with a pool of exactly `threads` lanes.
    pub fn with_threads(threads: usize) -> Result<Session> {
        Session::new(SessionOptions::default().with_threads(threads))
    }

    /// A single-threaded session (no worker pool; everything runs inline on
    /// the calling thread). Cannot fail.
    pub fn sequential() -> Session {
        Session {
            executor: Executor::sequential(),
            defaults: RunOptions::default(),
        }
    }

    /// Number of executor lanes the session's pool provides.
    pub fn nthreads(&self) -> usize {
        self.executor.nthreads()
    }

    /// The session's executor, for callers that run their own parallel
    /// kernels on the same worker pool.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// The run defaults every [`RunBuilder`] starts from.
    pub fn run_defaults(&self) -> &RunOptions {
        &self.defaults
    }

    /// Start building a shared topology from an edge list. When the
    /// partition count is left automatic, it defaults to
    /// `partition_factor ×` **this session's pool size** (the paper's
    /// `nthreads * 8` rule) — not the machine's hardware thread count.
    pub fn build_graph<'e, E: Clone>(&self, edges: &'e EdgeList<E>) -> GraphBuilder<'e, E> {
        GraphBuilder {
            edges,
            options: GraphBuildOptions::default(),
            threads: self.nthreads(),
        }
    }

    /// Start building a run of `program` over `topology`. The builder
    /// starts from the session's run defaults.
    pub fn run<'s, 't, P: GraphProgram>(
        &'s self,
        topology: &'t Topology<P::Edge>,
        program: P,
    ) -> RunBuilder<'s, 't, P> {
        self.run_view(GraphView::base(topology), program)
    }

    /// Start building a run of `program` over a `(base ⊕ delta)`
    /// [`GraphView`] — typically `snapshot.view()` from a
    /// [`crate::store::GraphStore`] snapshot. Identical to [`Session::run`]
    /// when the view carries no overlay; with pending edits the run uses the
    /// overlay-aware push backend (forcing [`VectorKind::Dense`] is rejected
    /// at execute time with [`GraphMatError::InvalidParameter`]).
    pub fn run_view<'s, 't, P: GraphProgram>(
        &'s self,
        view: GraphView<'t, P::Edge>,
        program: P,
    ) -> RunBuilder<'s, 't, P> {
        RunBuilder {
            session: self,
            view,
            program,
            options: self.defaults,
            init: InitSpec::None,
            seeds: Vec::new(),
            activate_all: false,
        }
    }
}

/// Fluent builder for an `Arc<Topology<E>>` (from [`Session::build_graph`]).
pub struct GraphBuilder<'e, E> {
    edges: &'e EdgeList<E>,
    options: GraphBuildOptions,
    /// The session's pool size — what an automatic partition count
    /// multiplies `partition_factor` by.
    threads: usize,
}

impl<'e, E: Clone> GraphBuilder<'e, E> {
    /// Explicitly set the number of matrix partitions (`0` = the default
    /// `partition_factor ×` the session's pool size).
    pub fn partitions(mut self, n: usize) -> Self {
        self.options.num_partitions = n;
        self
    }

    /// Set the partition multiplier used when the partition count is
    /// automatic (the paper uses 8).
    pub fn partition_factor(mut self, factor: usize) -> Self {
        self.options.partition_factor = factor;
        self
    }

    /// Balance partitions by edge count (default `true`).
    pub fn balanced(mut self, balance: bool) -> Self {
        self.options.balance_partitions = balance;
        self
    }

    /// Also build the non-transposed matrix for in-edge scattering
    /// (default `true`; `In`/`Both`-direction programs need it).
    pub fn in_edges(mut self, build: bool) -> Self {
        self.options.build_in_edges = build;
        self
    }

    /// Also build the row-major CSR pull mirrors the direction-optimized
    /// backend traverses (default `true`). The mirrors cost roughly the
    /// DCSC matrices' memory again — [`Topology::pull_bytes`] reports the
    /// exact figure, and [`Topology::matrix_bytes`] includes it. With
    /// `pull_enabled(false)` the default [`VectorKind::Auto`] runs
    /// always-push and a forced [`VectorKind::Dense`] run is rejected with
    /// [`GraphMatError::MissingPullMirror`].
    pub fn pull_enabled(mut self, build: bool) -> Self {
        self.options.build_pull_mirrors = build;
        self
    }

    /// Override every construction option at once — the route for the
    /// Figure 7 layout ablations (unbalanced partitions, explicit partition
    /// counts).
    pub fn build_options(mut self, options: GraphBuildOptions) -> Self {
        self.options = options;
        self
    }

    /// Build the topology, ready to be shared across concurrent runs.
    ///
    /// # Errors
    ///
    /// [`GraphMatError::EmptyEdgeList`] if the edge list has no edges — an
    /// all-isolated-vertices "graph" is almost always an upstream loading
    /// bug, and the partitioner cannot balance zero edges meaningfully.
    pub fn finish(self) -> Result<Arc<Topology<E>>> {
        if self.edges.is_empty() {
            return Err(GraphMatError::EmptyEdgeList);
        }
        // Resolve an automatic partition count against the session's pool
        // size (the paper's `nthreads * 8`), not the machine's hardware
        // thread count — a 1-lane session on a 64-thread host must not
        // walk 512 partitions per SpMV.
        let mut options = self.options;
        options.num_partitions = options.effective_partitions_for(self.threads);
        Ok(Arc::new(Topology::from_edge_list(self.edges, options)))
    }
}

/// How a run builder initialises vertex properties before seeding. The
/// lifetime lets the init closure borrow from the topology (e.g. its
/// degree arrays) without cloning them per query.
enum InitSpec<'t, V> {
    /// Leave the state's current properties (warm start on pooled states;
    /// `V::default()` on fresh ones).
    None,
    /// Set every property to one value.
    All(V),
    /// Compute every property from the vertex id.
    Fn(Box<dyn Fn(VertexId) -> V + 't>),
}

/// The outcome of a builder-driven run: the final vertex properties plus
/// the engine statistics.
#[derive(Clone, Debug)]
pub struct RunOutcome<V> {
    /// Final per-vertex properties, indexed by vertex id (moved out of the
    /// run's state — no clone).
    pub values: Vec<V>,
    /// Timing and work statistics for the run.
    pub stats: RunStats,
    /// `true` if the program terminated because no vertex changed state,
    /// `false` if it hit the iteration limit.
    pub converged: bool,
}

/// Fluent builder for one vertex-program run (from [`Session::run`] or
/// [`Session::run_view`]).
pub struct RunBuilder<'s, 't, P: GraphProgram> {
    session: &'s Session,
    view: GraphView<'t, P::Edge>,
    program: P,
    options: RunOptions,
    init: InitSpec<'t, P::VertexProp>,
    seeds: Vec<(VertexId, Option<P::VertexProp>)>,
    activate_all: bool,
}

impl<'s, 't, P: GraphProgram> RunBuilder<'s, 't, P> {
    /// Mark vertex `v` active for the first superstep (validated against
    /// the topology's vertex count at execute time).
    pub fn seed(mut self, v: VertexId) -> Self {
        self.seeds.push((v, None));
        self
    }

    /// Set vertex `v`'s property to `value` *and* mark it active — the
    /// "source distance 0, source active" idiom of the paper's appendix in
    /// one call.
    pub fn seed_with(mut self, v: VertexId, value: P::VertexProp) -> Self {
        self.seeds.push((v, Some(value)));
        self
    }

    /// Set every vertex's property to `value` before seeding.
    pub fn init_all(mut self, value: P::VertexProp) -> Self {
        self.init = InitSpec::All(value);
        self
    }

    /// Compute every vertex's property from its id before seeding. The
    /// closure may borrow from the topology (it only needs to live as long
    /// as this builder), so per-vertex data such as
    /// [`Topology::out_degrees`] can be read in place, without a per-query
    /// clone.
    pub fn init_with(mut self, f: impl Fn(VertexId) -> P::VertexProp + 't) -> Self {
        self.init = InitSpec::Fn(Box::new(f));
        self
    }

    /// Mark every vertex active for the first superstep (PageRank-style
    /// programs).
    pub fn activate_all(mut self) -> Self {
        self.activate_all = true;
        self
    }

    /// Cap the number of supersteps (`0` is rejected at execute time with
    /// [`GraphMatError::ZeroIterations`]).
    pub fn max_iterations(mut self, max: usize) -> Self {
        self.options.max_iterations = Some(max);
        self
    }

    /// Run until no vertex changes state (the default unless the session's
    /// run defaults say otherwise).
    pub fn until_convergence(mut self) -> Self {
        self.options.max_iterations = None;
        self
    }

    /// Select the message-vector representation / SpMV backend:
    /// [`VectorKind::Auto`] (the session default) picks push or pull per
    /// superstep; `Bitvector`/`Sorted` force push; `Dense` forces pull
    /// (rejected at execute time with [`GraphMatError::MissingPullMirror`]
    /// if the topology was built with `pull_enabled(false)`). All kinds
    /// produce bit-for-bit identical results.
    pub fn vector(mut self, vector: VectorKind) -> Self {
        self.options.vector = vector;
        self
    }

    /// Set a hard wall-clock deadline for the run (`None` clears one
    /// inherited from the session defaults). Checked between supersteps —
    /// when the deadline passes, the run stops with
    /// [`GraphMatError::DeadlineExceeded`] instead of finishing, which is
    /// how a serving layer bounds per-request latency. The overshoot is at
    /// most one superstep; on [`RunBuilder::execute_with`] the completed
    /// supersteps' partial results remain in the pooled state (re-init with
    /// [`RunBuilder::init_all`]/[`RunBuilder::init_with`] on the next run).
    pub fn deadline(mut self, deadline: impl Into<Option<std::time::Instant>>) -> Self {
        self.options.deadline = deadline.into();
        self
    }

    /// Select the callback dispatch mode.
    pub fn dispatch(mut self, dispatch: DispatchMode) -> Self {
        self.options.dispatch = dispatch;
        self
    }

    /// Select how the next superstep's active set is derived.
    pub fn activity(mut self, activity: ActivityPolicy) -> Self {
        self.options.activity = activity;
        self
    }

    /// Record (or suppress) per-superstep statistics.
    pub fn record_supersteps(mut self, record: bool) -> Self {
        self.options.record_supersteps = record;
        self
    }

    /// Everything about this run that can be rejected without touching any
    /// state — the one place a run request is validated: option validity,
    /// seed ranges, the in-edge matrix (and, over a pending overlay, the
    /// in-edge kernel overlay) the program's direction requires, and the
    /// pull mirrors a forced [`VectorKind::Dense`] needs. Runs **before**
    /// the first mutation so a rejected run leaves a pooled state's previous
    /// contents intact; the engine below relies on it.
    fn validate(&self) -> Result<()> {
        self.options.validate()?;
        for (v, _) in &self.seeds {
            if *v >= self.view.num_vertices() {
                return Err(GraphMatError::VertexOutOfRange {
                    vertex: *v,
                    num_vertices: self.view.num_vertices(),
                });
            }
        }
        if self.program.direction() != EdgeDirection::Out {
            // The store compiles overlays against every matrix the base
            // built, so the overlay half only trips on a hand-assembled
            // `GraphView::new` mismatch.
            let overlay_lacks_in =
                self.view.has_overlay() && self.view.in_kernel_overlay().is_none();
            if !self.view.has_in_edges() || overlay_lacks_in {
                return Err(GraphMatError::MissingInMatrix);
            }
        }
        if self.options.vector == VectorKind::Dense {
            if self.view.has_overlay() {
                return Err(GraphMatError::InvalidParameter(
                    "VectorKind::Dense forces the pull backend, which cannot traverse a \
                     snapshot with pending deltas; use Auto (or a push kind) until the \
                     store compacts",
                ));
            }
            if !self.view.topology().has_pull_mirrors() {
                return Err(GraphMatError::MissingPullMirror);
            }
        }
        Ok(())
    }

    /// Apply init, seeds and activation to a state whose length already
    /// matches the topology and whose seeds [`RunBuilder::validate`] has
    /// already range-checked. Always clears the active set first so pooled
    /// states cannot leak stale active bits into the new run.
    fn prepare(&self, state: &mut VertexState<P::VertexProp>) {
        state.clear_active();
        match &self.init {
            InitSpec::None => {}
            InitSpec::All(value) => state.set_all_properties(value.clone()),
            InitSpec::Fn(f) => state.init_properties(f),
        }
        for (v, value) in &self.seeds {
            if let Some(value) = value {
                state.set_property(*v, value.clone());
            }
            state.set_active(*v);
        }
        if self.activate_all {
            state.set_all_active();
        }
    }

    /// Run into a fresh [`VertexState`] and return the final properties.
    ///
    /// # Errors
    ///
    /// [`GraphMatError::ZeroIterations`] for a `max_iterations(0)` request,
    /// [`GraphMatError::VertexOutOfRange`] for a seed outside the topology,
    /// [`GraphMatError::MissingInMatrix`] if the program needs in-edges the
    /// view does not have, [`GraphMatError::MissingPullMirror`] /
    /// [`GraphMatError::InvalidParameter`] for a forced
    /// [`VectorKind::Dense`] without mirrors / over pending edits, and
    /// [`GraphMatError::DeadlineExceeded`] once the run's deadline passes.
    pub fn execute(self) -> Result<RunOutcome<P::VertexProp>>
    where
        P::VertexProp: Default,
    {
        self.validate()?;
        let n = self.view.num_vertices() as usize;
        let mut state: VertexState<P::VertexProp> = VertexState::new(n);
        self.prepare(&mut state);
        let mut ws = Workspace::<P>::new(n, &self.options);
        let result = run_program_view(
            &self.program,
            self.view,
            &mut state,
            &self.options,
            &self.session.executor,
            &mut ws,
        )?;
        Ok(RunOutcome {
            values: state.into_properties(),
            stats: result.stats,
            converged: result.converged,
        })
    }

    /// Run into a caller-owned (pooled) state, recycling the engine
    /// workspace cached inside it: the second run of the same program type
    /// through the same state performs no buffer allocation at all.
    ///
    /// The state's active set is always cleared before seeding; properties
    /// are left untouched unless [`RunBuilder::init_all`] /
    /// [`RunBuilder::init_with`] is given (warm starts are a feature — pass
    /// an init to get a fully deterministic cold start).
    ///
    /// On return the state holds the final vertex properties.
    ///
    /// # Errors
    ///
    /// Everything [`RunBuilder::execute`] reports, plus
    /// [`GraphMatError::StateLengthMismatch`] if the state does not match
    /// the topology.
    pub fn execute_with(self, state: &mut VertexState<P::VertexProp>) -> Result<RunResult>
    where
        P: 'static,
    {
        self.validate()?;
        state.check_matches(self.view.topology())?;
        self.prepare(state);
        let n = self.view.num_vertices() as usize;
        let mut ws = state
            .take_cached_workspace::<Workspace<P>>()
            .filter(|ws| ws.is_compatible(n, &self.options))
            .unwrap_or_else(|| Box::new(Workspace::<P>::new(n, &self.options)));
        let result = run_program_view(
            &self.program,
            self.view,
            state,
            &self.options,
            &self.session.executor,
            &mut ws,
        );
        state.cache_workspace(ws);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SSSP over f32 weights (the paper's appendix program).
    struct Sssp;

    impl GraphProgram for Sssp {
        type VertexProp = f32;
        type Message = f32;
        type Reduced = f32;
        type Edge = f32;

        fn send_message(&self, _v: VertexId, dist: &f32) -> Option<f32> {
            Some(*dist)
        }

        fn process_message(&self, msg: &f32, edge: &f32, _dst: &f32) -> f32 {
            msg + edge
        }

        fn reduce(&self, acc: &mut f32, value: f32) {
            if value < *acc {
                *acc = value;
            }
        }

        fn apply(&self, reduced: &f32, dist: &mut f32) {
            if *reduced < *dist {
                *dist = *reduced;
            }
        }
    }

    fn figure3_edges() -> EdgeList<f32> {
        EdgeList::from_tuples(
            5,
            vec![
                (0, 1, 1.0),
                (0, 2, 3.0),
                (0, 3, 2.0),
                (1, 2, 1.0),
                (2, 3, 2.0),
                (3, 4, 2.0),
                (4, 0, 4.0),
            ],
        )
    }

    #[test]
    fn session_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();
    }

    #[test]
    fn sessions_default_to_direction_optimization() {
        assert_eq!(RunOptions::default().vector, VectorKind::Auto);
        assert_eq!(
            SessionOptions::default().run_defaults.vector,
            VectorKind::Auto
        );
        assert_eq!(
            Session::sequential().run_defaults().vector,
            VectorKind::Auto
        );
        assert_eq!(
            Session::with_threads(2).unwrap().run_defaults().vector,
            VectorKind::Auto
        );
    }

    #[test]
    fn forced_dense_on_a_pull_disabled_topology_is_an_error() {
        let session = Session::sequential();
        let edges = figure3_edges();
        let topo = session
            .build_graph(&edges)
            .pull_enabled(false)
            .in_edges(false)
            .finish()
            .unwrap();
        assert!(!topo.has_pull_mirrors());
        let err = session
            .run(&topo, Sssp)
            .init_all(f32::MAX)
            .seed_with(0, 0.0)
            .vector(VectorKind::Dense)
            .execute()
            .unwrap_err();
        assert_eq!(err, GraphMatError::MissingPullMirror);
        // Auto degrades gracefully on the same topology.
        let outcome = session
            .run(&topo, Sssp)
            .init_all(f32::MAX)
            .seed_with(0, 0.0)
            .execute()
            .unwrap();
        assert_eq!(outcome.values, vec![0.0, 1.0, 2.0, 2.0, 4.0]);
        assert_eq!(outcome.stats.pull_supersteps, 0);
    }

    #[test]
    fn all_vector_kinds_agree_through_the_builder() {
        let session = Session::with_threads(2).unwrap();
        let edges = figure3_edges();
        let topo = session.build_graph(&edges).partitions(2).finish().unwrap();
        let run = |kind: VectorKind| {
            session
                .run(&*topo, Sssp)
                .init_all(f32::MAX)
                .seed_with(0, 0.0)
                .vector(kind)
                .execute()
                .unwrap()
                .values
        };
        let push = run(VectorKind::Bitvector);
        assert_eq!(push, run(VectorKind::Sorted));
        assert_eq!(push, run(VectorKind::Dense));
        assert_eq!(push, run(VectorKind::Auto));
    }

    #[test]
    fn expired_deadline_stops_the_run_with_a_typed_error() {
        let session = Session::sequential();
        let edges = figure3_edges();
        let topo = session
            .build_graph(&edges)
            .in_edges(false)
            .finish()
            .unwrap();
        // A deadline already in the past trips before the first superstep.
        let err = session
            .run(&topo, Sssp)
            .init_all(f32::MAX)
            .seed_with(0, 0.0)
            .deadline(std::time::Instant::now() - std::time::Duration::from_millis(1))
            .execute()
            .unwrap_err();
        assert_eq!(err, GraphMatError::DeadlineExceeded);
        // A comfortable deadline changes nothing.
        let outcome = session
            .run(&topo, Sssp)
            .init_all(f32::MAX)
            .seed_with(0, 0.0)
            .deadline(std::time::Instant::now() + std::time::Duration::from_secs(60))
            .execute()
            .unwrap();
        assert_eq!(outcome.values, vec![0.0, 1.0, 2.0, 2.0, 4.0]);
        // `None` clears a deadline inherited from an earlier builder call.
        let outcome = session
            .run(&topo, Sssp)
            .init_all(f32::MAX)
            .seed_with(0, 0.0)
            .deadline(std::time::Instant::now())
            .deadline(None)
            .execute()
            .unwrap();
        assert!(outcome.converged);
    }

    #[test]
    fn deadline_mid_run_leaves_partial_results_in_a_pooled_state() {
        // A program that never converges (each superstep increments every
        // vertex), so only the deadline can stop it.
        struct Count;
        impl GraphProgram for Count {
            type VertexProp = u64;
            type Message = u64;
            type Reduced = u64;
            type Edge = f32;
            fn send_message(&self, _v: VertexId, c: &u64) -> Option<u64> {
                Some(*c)
            }
            fn process_message(&self, m: &u64, _e: &f32, _d: &u64) -> u64 {
                *m
            }
            fn reduce(&self, acc: &mut u64, v: u64) {
                *acc = (*acc).max(v);
            }
            fn apply(&self, _r: &u64, c: &mut u64) {
                *c += 1;
            }
        }
        let session = Session::sequential();
        let edges = figure3_edges();
        let topo = session
            .build_graph(&edges)
            .in_edges(false)
            .finish()
            .unwrap();
        let mut state: VertexState<u64> = VertexState::for_topology(&topo);
        let err = session
            .run(&topo, Count)
            .init_all(0)
            .activate_all()
            .activity(ActivityPolicy::AlwaysAll)
            .deadline(std::time::Instant::now() + std::time::Duration::from_millis(20))
            .execute_with(&mut state)
            .unwrap_err();
        assert_eq!(err, GraphMatError::DeadlineExceeded);
        // Some supersteps completed before the deadline and their effects
        // are visible — the state is reusable for the next (re-initialised)
        // query.
        assert!(state.properties().iter().all(|&c| c > 0));
        assert!(state.has_cached_workspace());
    }

    #[test]
    fn zero_threads_is_rejected() {
        let err = Session::new(SessionOptions::default().with_threads(0)).unwrap_err();
        assert_eq!(err, GraphMatError::ZeroThreads);
    }

    #[test]
    fn invalid_run_defaults_are_rejected() {
        let opts = SessionOptions::default()
            .with_run_defaults(RunOptions::default().with_max_iterations(0));
        assert_eq!(
            Session::new(opts).unwrap_err(),
            GraphMatError::ZeroIterations
        );
    }

    #[test]
    fn automatic_partition_count_follows_the_session_pool_size() {
        // The paper's rule is nthreads × 8 where nthreads is what will
        // actually run the SpMV — the session's pool, not the machine.
        let n = 4096u32;
        let edges = EdgeList::from_pairs(n, (0..n - 1).map(|v| (v, v + 1)));
        for threads in [1usize, 2] {
            let session = Session::with_threads(threads).unwrap();
            let topo = session
                .build_graph(&edges)
                .in_edges(false)
                .finish()
                .unwrap();
            assert_eq!(topo.num_partitions(), 8 * threads);
        }
        // An explicit partition count still wins.
        let session = Session::with_threads(2).unwrap();
        let topo = session
            .build_graph(&edges)
            .partitions(5)
            .in_edges(false)
            .finish()
            .unwrap();
        assert_eq!(topo.num_partitions(), 5);
    }

    #[test]
    fn empty_edge_list_is_rejected() {
        let session = Session::sequential();
        let edges: EdgeList<f32> = EdgeList::new(10);
        let err = session.build_graph(&edges).finish().unwrap_err();
        assert_eq!(err, GraphMatError::EmptyEdgeList);
    }

    #[test]
    fn builder_runs_figure3_sssp() {
        let session = Session::with_threads(2).unwrap();
        let edges = figure3_edges();
        let topo = session
            .build_graph(&edges)
            .partitions(2)
            .in_edges(false)
            .finish()
            .unwrap();
        let outcome = session
            .run(&topo, Sssp)
            .init_all(f32::MAX)
            .seed_with(0, 0.0)
            .max_iterations(50)
            .vector(VectorKind::Bitvector)
            .execute()
            .unwrap();
        assert!(outcome.converged);
        assert_eq!(outcome.values, vec![0.0, 1.0, 2.0, 2.0, 4.0]);
        assert_eq!(outcome.stats.nthreads, 2);
    }

    #[test]
    fn out_of_range_seed_is_an_error_not_a_panic() {
        let session = Session::sequential();
        let edges = figure3_edges();
        let topo = session.build_graph(&edges).finish().unwrap();
        let err = session
            .run(&topo, Sssp)
            .seed_with(99, 0.0)
            .execute()
            .unwrap_err();
        assert_eq!(
            err,
            GraphMatError::VertexOutOfRange {
                vertex: 99,
                num_vertices: 5
            }
        );
    }

    /// An `EdgeDirection::In` program, shared by the missing-in-matrix
    /// tests below.
    struct Inward;
    impl GraphProgram for Inward {
        type VertexProp = f32;
        type Message = f32;
        type Reduced = f32;
        type Edge = f32;
        fn direction(&self) -> EdgeDirection {
            EdgeDirection::In
        }
        fn send_message(&self, _v: VertexId, d: &f32) -> Option<f32> {
            Some(*d)
        }
        fn process_message(&self, m: &f32, _e: &f32, _d: &f32) -> f32 {
            *m
        }
        fn reduce(&self, acc: &mut f32, v: f32) {
            *acc += v;
        }
        fn apply(&self, r: &f32, p: &mut f32) {
            *p = *r;
        }
    }

    /// What every rejected-run case fills its pooled state with.
    const SENTINEL: f32 = 42.0;

    /// Assert `result` is the typed rejection `expected` and that `state`
    /// still holds its sentinel contents: properties all [`SENTINEL`], only
    /// vertex 2 active.
    fn assert_rejected_untouched(
        result: Result<RunResult>,
        expected: GraphMatError,
        state: &VertexState<f32>,
    ) {
        assert_eq!(result.unwrap_err(), expected);
        assert!(
            state.properties().iter().all(|&p| p == SENTINEL),
            "{expected:?} overwrote properties"
        );
        assert_eq!(
            state.active_count(),
            1,
            "{expected:?} touched the active set"
        );
        assert!(state.is_active(2), "{expected:?} touched the active set");
    }

    #[test]
    fn every_rejected_run_leaves_a_pooled_state_untouched() {
        use crate::store::{GraphStore, StoreOptions};
        use graphmat_delta::{BaseFacts, DeltaBatch, DeltaOverlay, PairIndex, UpdateOp};

        let session = Session::sequential();
        let edges = figure3_edges();
        let topo = session.build_graph(&edges).finish().unwrap();
        let bare = session
            .build_graph(&edges)
            .in_edges(false)
            .pull_enabled(false)
            .finish()
            .unwrap();
        // A store snapshot with a pending edit…
        let store = GraphStore::new(
            Arc::clone(&topo),
            StoreOptions {
                compaction_threshold: usize::MAX,
                background: false,
                overload_watermark: usize::MAX,
            },
        );
        let edit = vec![(1, 4, UpdateOp::Insert(1.0))];
        let snapshot = store
            .apply(DeltaBatch::from_ops(5, edit.clone()).unwrap())
            .unwrap();
        // …and a hand-assembled view whose overlay was compiled without the
        // in-edge kernel, although the base has an in matrix.
        let out_ranges = topo.out_partition_ranges();
        let facts = BaseFacts {
            num_vertices: 5,
            num_edges: topo.num_edges(),
            out_ranges: &out_ranges,
            in_ranges: None,
            out_degrees: topo.out_degrees(),
            in_degrees: topo.in_degrees(),
        };
        let no_in_overlay =
            DeltaOverlay::build(&facts, &PairIndex::from_edges(edges.edges()), &edit);
        let no_in_view = GraphView::new(&topo, Some(&no_in_overlay));
        assert!(no_in_view.has_overlay() && no_in_view.has_in_edges());

        let mut state: VertexState<f32> = VertexState::for_topology(&topo);
        state.set_all_properties(SENTINEL);
        state.set_active(2);
        // Every case asks for a mutating init, so a check that ran after
        // `prepare` would show up as an overwritten state.
        let sssp = |view| {
            session
                .run_view(view, Sssp)
                .init_all(f32::MAX)
                .seed_with(0, 0.0)
        };
        let inward = |view| session.run_view(view, Inward).init_all(0.0).activate_all();

        let result = sssp(GraphView::base(&topo))
            .max_iterations(0)
            .execute_with(&mut state);
        assert_rejected_untouched(result, GraphMatError::ZeroIterations, &state);

        let result = sssp(GraphView::base(&topo))
            .seed_with(99, 0.0)
            .execute_with(&mut state);
        let expected = GraphMatError::VertexOutOfRange {
            vertex: 99,
            num_vertices: 5,
        };
        assert_rejected_untouched(result, expected, &state);

        let result = inward(GraphView::base(&bare)).execute_with(&mut state);
        assert_rejected_untouched(result, GraphMatError::MissingInMatrix, &state);

        let result = sssp(GraphView::base(&bare))
            .vector(VectorKind::Dense)
            .execute_with(&mut state);
        assert_rejected_untouched(result, GraphMatError::MissingPullMirror, &state);

        let result = sssp(snapshot.view())
            .vector(VectorKind::Dense)
            .execute_with(&mut state);
        let Err(pending @ GraphMatError::InvalidParameter(_)) = result.clone() else {
            panic!("forced Dense over pending deltas: {result:?}");
        };
        assert_rejected_untouched(result, pending, &state);

        let result = inward(no_in_view).execute_with(&mut state);
        assert_rejected_untouched(result, GraphMatError::MissingInMatrix, &state);

        // A state sized for another graph is rejected before it is touched.
        let mut wrong: VertexState<f32> = VertexState::new(3);
        wrong.set_all_properties(SENTINEL);
        wrong.set_active(2);
        let result = sssp(GraphView::base(&topo)).execute_with(&mut wrong);
        let expected = GraphMatError::StateLengthMismatch {
            state_vertices: 3,
            topology_vertices: 5,
        };
        assert_rejected_untouched(result, expected, &wrong);
    }

    #[test]
    fn zero_iteration_cap_is_an_error() {
        let session = Session::sequential();
        let edges = figure3_edges();
        let topo = session.build_graph(&edges).finish().unwrap();
        let err = session
            .run(&topo, Sssp)
            .seed_with(0, 0.0)
            .max_iterations(0)
            .execute()
            .unwrap_err();
        assert_eq!(err, GraphMatError::ZeroIterations);
    }

    #[test]
    fn in_direction_program_without_in_matrix_is_an_error() {
        let session = Session::sequential();
        let edges = figure3_edges();
        let topo = session
            .build_graph(&edges)
            .in_edges(false)
            .finish()
            .unwrap();
        let err = session
            .run(&topo, Inward)
            .activate_all()
            .execute()
            .unwrap_err();
        assert_eq!(err, GraphMatError::MissingInMatrix);
    }

    #[test]
    fn execute_with_reuses_the_cached_workspace() {
        let session = Session::sequential();
        let edges = figure3_edges();
        let topo = session
            .build_graph(&edges)
            .in_edges(false)
            .finish()
            .unwrap();
        let mut state: VertexState<f32> = VertexState::for_topology(&topo);

        let run = |state: &mut VertexState<f32>| {
            session
                .run(&topo, Sssp)
                .init_all(f32::MAX)
                .seed_with(0, 0.0)
                .execute_with(state)
                .unwrap()
        };
        assert!(!state.has_cached_workspace());
        run(&mut state);
        assert!(state.has_cached_workspace(), "workspace cached after run 1");
        let first = state.properties().to_vec();
        run(&mut state);
        assert_eq!(state.properties(), &first[..], "rerun is identical");

        // A fresh execute() agrees with the pooled path.
        let fresh = session
            .run(&topo, Sssp)
            .init_all(f32::MAX)
            .seed_with(0, 0.0)
            .execute()
            .unwrap();
        assert_eq!(fresh.values, first);
    }

    #[test]
    fn stale_active_bits_do_not_leak_into_the_next_run() {
        let session = Session::sequential();
        let edges = figure3_edges();
        let topo = session
            .build_graph(&edges)
            .in_edges(false)
            .finish()
            .unwrap();
        let mut state: VertexState<f32> = VertexState::for_topology(&topo);
        // Poison the state: everything active, garbage properties.
        state.set_all_active();
        state.set_all_properties(-1.0);
        let result = session
            .run(&topo, Sssp)
            .init_all(f32::MAX)
            .seed_with(1, 0.0)
            .max_iterations(1)
            .execute_with(&mut state)
            .unwrap();
        // Only the seed was active: exactly its out-neighbourhood relaxed.
        assert_eq!(result.stats.supersteps[0].active_vertices, 1);
        assert_eq!(*state.property(2), 1.0);
        assert_eq!(*state.property(0), f32::MAX);
    }

    #[test]
    fn run_view_with_overlay_matches_a_rebuilt_topology() {
        use crate::store::{GraphStore, StoreOptions};
        use graphmat_delta::{DeltaBatch, UpdateOp};

        let session = Session::with_threads(2).unwrap();
        let edges = figure3_edges();
        let topo = session.build_graph(&edges).partitions(2).finish().unwrap();
        let store = GraphStore::new(
            Arc::clone(&topo),
            StoreOptions {
                compaction_threshold: usize::MAX,
                background: false,
                overload_watermark: usize::MAX,
            },
        );
        let batch = DeltaBatch::from_ops(
            5,
            vec![
                (0, 1, UpdateOp::Insert(5.0)), // reweight
                (0, 2, UpdateOp::Delete),
                (2, 0, UpdateOp::Insert(1.0)), // fresh edge
            ],
        )
        .unwrap();
        let snapshot = store.apply(batch).unwrap();
        assert!(snapshot.overlay().is_some());

        let overlaid = session
            .run_view(snapshot.view(), Sssp)
            .init_all(f32::MAX)
            .seed_with(0, 0.0)
            .execute()
            .unwrap();

        // Rebuild a topology from the edited edge list and run identically.
        store.compact_now();
        let compacted = store.snapshot();
        assert!(compacted.overlay().is_none());
        let rebuilt = session
            .run_view(compacted.view(), Sssp)
            .init_all(f32::MAX)
            .seed_with(0, 0.0)
            .execute()
            .unwrap();
        for (a, b) in overlaid.values.iter().zip(&rebuilt.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // Forcing the pull backend against pending deltas is a typed error.
        let snapshot = store
            .apply(DeltaBatch::from_ops(5, vec![(1, 4, UpdateOp::Insert(1.0))]).unwrap())
            .unwrap();
        let err = session
            .run_view(snapshot.view(), Sssp)
            .init_all(f32::MAX)
            .seed_with(0, 0.0)
            .vector(VectorKind::Dense)
            .execute()
            .unwrap_err();
        assert!(matches!(err, GraphMatError::InvalidParameter(_)));
    }

    #[test]
    fn concurrent_runs_share_one_topology_through_one_session() {
        let session = Session::with_threads(2).unwrap();
        let edges = figure3_edges();
        let topo = session
            .build_graph(&edges)
            .in_edges(false)
            .finish()
            .unwrap();

        let run_from = |source: VertexId| {
            session
                .run(&*topo, Sssp)
                .init_all(f32::MAX)
                .seed_with(source, 0.0)
                .execute()
                .unwrap()
                .values
        };
        let sequential: Vec<Vec<f32>> = (0..5).map(run_from).collect();

        let concurrent: Vec<Vec<f32>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..5u32)
                .map(|source| {
                    let session = &session;
                    let topo = Arc::clone(&topo);
                    s.spawn(move || {
                        session
                            .run(&*topo, Sssp)
                            .init_all(f32::MAX)
                            .seed_with(source, 0.0)
                            .execute()
                            .unwrap()
                            .values
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(sequential, concurrent);
    }
}
