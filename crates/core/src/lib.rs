//! GraphMat core: the vertex-programming frontend executed as generalized
//! sparse matrix–sparse vector multiplication.
//!
//! This crate is the paper's primary contribution. Users describe a graph
//! algorithm as a [`program::GraphProgram`] — the familiar
//! `SEND_MESSAGE` / `PROCESS_MESSAGE` / `REDUCE` / `APPLY` vertex-programming
//! callbacks (§4.1) — and the runner executes it as a sequence of
//! bulk-synchronous supersteps, each of which is one generalized SpMV over
//! the DCSC-partitioned transposed adjacency matrix (Algorithms 1 and 2 of
//! the paper).
//!
//! # The three-layer API
//!
//! GraphMat's productivity claim is a frontend over a **fixed** sparse
//! matrix: build the matrix once, run many vertex programs against it. The
//! API is organised around exactly that split:
//!
//! 1. [`topology::Topology<E>`] — the immutable build product: partitioned
//!    DCSC out/in matrices, degree arrays. `Sync`, cheap to wrap in an
//!    `Arc`, queryable from many threads at once, never mutated by a run.
//! 2. [`state::VertexState<V>`] — the mutable per-run half: vertex
//!    properties plus the active bit vector (and a cached engine
//!    workspace). Created fresh per query, or pooled and reused across
//!    runs.
//! 3. [`session::Session`] — the owning handle: one persistent
//!    [`Executor`](graphmat_sparse::parallel::Executor) pool plus fluent
//!    builders for topologies ([`session::Session::build_graph`]) and runs
//!    ([`session::Session::run`]). Fallible paths return
//!    [`error::GraphMatError`] instead of panicking.
//!
//! ```
//! use graphmat_core::session::Session;
//! # use graphmat_core::program::{GraphProgram, VertexId};
//! # use graphmat_io::edgelist::EdgeList;
//! # struct Sssp;
//! # impl GraphProgram for Sssp {
//! #     type VertexProp = f32; type Message = f32; type Reduced = f32; type Edge = f32;
//! #     fn send_message(&self, _v: VertexId, d: &f32) -> Option<f32> { Some(*d) }
//! #     fn process_message(&self, m: &f32, e: &f32, _d: &f32) -> f32 { m + e }
//! #     fn reduce(&self, acc: &mut f32, v: f32) { if v < *acc { *acc = v; } }
//! #     fn apply(&self, r: &f32, d: &mut f32) { if *r < *d { *d = *r; } }
//! # }
//!
//! let session = Session::with_defaults()?;
//! # let edges = EdgeList::from_tuples(3, vec![(0, 1, 1.0), (1, 2, 1.0)]);
//! let topology = session.build_graph(&edges).partitions(16).finish()?;
//! let outcome = session
//!     .run(&topology, Sssp)
//!     .init_all(f32::MAX)
//!     .seed_with(0, 0.0)
//!     .max_iterations(50)
//!     .execute()?;
//! assert!(outcome.converged);
//! # Ok::<(), graphmat_core::error::GraphMatError>(())
//! ```
//!
//! Because the topology is shared by reference, N threads can run N
//! different programs against one graph **concurrently** through one
//! session — the matrix is never cloned. That separation is what a serving
//! frontend (many independent queries over one resident graph) needs.
//!
//! # Direction optimization (PR-4)
//!
//! The paper's engine always runs column-wise sparse SpMV — a *push*
//! traversal, perfect for sparse frontiers, wasteful when most vertices are
//! active. This reproduction adds the *dense pull* backend (row-parallel
//! SpMV over a row-major CSR mirror of the partitioned matrix) and, with
//! [`options::VectorKind::Auto`] — the default — picks push or pull
//! **per superstep** using Beamer's direction-switching rule
//! ([`engine::choose_backend`]): pull when the frontier's out-edges exceed
//! `unexplored_edges / α` and the frontier is not tiny. All backends reduce
//! each destination's messages in ascending source order, so results are
//! **bit-for-bit identical** — only speed changes. Costs and knobs:
//!
//! * the CSR mirrors roughly double adjacency-matrix memory
//!   ([`topology::Topology::pull_bytes`]; skip them with
//!   `.pull_enabled(false)` on the graph builder, which pins `Auto` to
//!   push — together with `.vector(Bitvector)` that is the paper's
//!   always-push engine);
//! * `.vector(…)` on the run builder forces a backend
//!   (`Bitvector`/`Sorted` → push, `Dense` → pull, `Auto` → per-superstep);
//!   `Bitvector`, `Dense` and `Auto` fill one message vector that either
//!   kernel reads, so switching kinds on a pooled state allocates nothing;
//! * α is fixed at [`options::DEFAULT_PULL_ALPHA`] = 14;
//! * each superstep records the chosen [`stats::Backend`] and its frontier
//!   density in [`stats::SuperstepStats`].
//!
//! # Edge-type genericity (PR-1)
//!
//! The whole stack is generic over the **edge value type**: a program
//! declares [`program::GraphProgram::Edge`] and runs on matrices that store
//! exactly that type. `Edge = ()` is the zero-cost unweighted fast path —
//! `Vec<()>` stores nothing, so BFS, connected components, degree and
//! triangle counting traverse matrices with no edge value bytes at all.
//! See [`program`] for the PR-1 migration guide from the hardcoded-`f32`
//! API.
//!
//! Module map:
//!
//! * [`program`] — the `GraphProgram` trait and edge-direction selection.
//! * [`topology`] — the immutable, shareable matrix half.
//! * [`state`] — the mutable per-run half (bounds-checked accessors with
//!   descriptive diagnostics; `try_*` variants return errors).
//! * [`pool`] — [`pool::StatePool`]: per-worker `VertexState` recycling with
//!   growth counters, the allocation-free steady state for serving layers.
//! * [`session`] — the session frontend: executor pool + builders.
//! * [`error`] — [`error::GraphMatError`].
//! * [`engine`] — one superstep: SEND + generalized SpMV into a reusable
//!   workspace, plus the push/pull direction selector.
//! * [`runner`] — the iteration loop with convergence detection and the
//!   APPLY phase (Algorithm 2), driven by [`session::RunBuilder`].
//! * [`options`] — run-time knobs including the Figure 7 ablation toggles.
//! * [`stats`] — per-superstep and whole-run statistics.

pub mod engine;
pub mod error;
pub mod options;
pub mod pool;
pub mod program;
pub mod runner;
pub mod session;
pub mod state;
pub mod stats;
pub mod store;
pub mod topology;
pub mod view;

pub use engine::{choose_backend, PULL_BETA};
pub use error::GraphMatError;
pub use options::{ActivityPolicy, DispatchMode, RunOptions, VectorKind, DEFAULT_PULL_ALPHA};
pub use pool::StatePool;
pub use program::{EdgeDirection, GraphProgram, VertexId};
pub use runner::RunResult;
pub use session::{GraphBuilder, RunBuilder, RunOutcome, Session, SessionOptions};
pub use state::VertexState;
pub use stats::{Backend, RunStats, SuperstepStats};
pub use store::{GraphSnapshot, GraphStore, StoreOptions, StoreStats};
pub use topology::{GraphBuildOptions, Topology};
pub use view::GraphView;
