//! # GraphMat-RS
//!
//! A Rust reproduction of *GraphMat: High performance graph analytics made
//! productive* (Sundaram et al., VLDB 2015).
//!
//! GraphMat exposes a **vertex-programming** frontend — you write
//! `send_message` / `process_message` / `reduce` / `apply` callbacks — and
//! executes it as **generalized sparse matrix–sparse vector multiplication**
//! over the transposed adjacency matrix, stored in DCSC format and processed
//! by a partition-parallel backend.
//!
//! ## The session API: one resident graph, many concurrent queries
//!
//! The public API is organised around the separation that makes a serving
//! architecture possible (build the matrix once, answer many queries):
//!
//! * [`core::session::Session`] — owns one persistent worker pool and the
//!   fluent builders; `Sync`, so share it across threads;
//! * [`core::topology::Topology`]`<E>` — the immutable matrices + degrees,
//!   wrapped in an `Arc` and shared by every run without cloning;
//! * [`core::state::VertexState`]`<V>` — the per-run mutable half
//!   (properties + active set), fresh per query or pooled across runs.
//!
//! ```
//! use graphmat::prelude::*;
//!
//! let session = Session::with_defaults()?;
//! let edges = EdgeList::from_tuples(3, vec![(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (0, 2, 1.0)]);
//! // Build once; Arc<Topology> is shared by every run that follows.
//! let topo = session.build_graph(&edges).in_edges(false).finish()?;
//!
//! // Packaged algorithms take &Session + &Topology…
//! let ranks = pagerank_on(&session, &topo, &PageRankConfig::default())?;
//! assert!(ranks.values[2] > ranks.values[0]);
//!
//! // …and hand-written programs go through the run builder (seed the
//! // source, cap iterations, execute into a fresh per-run state).
//! let sssp = sssp_on(&session, &topo, 0)?;
//! assert_eq!(sssp.values[1], 1.0);
//! # Ok::<(), GraphMatError>(())
//! ```
//!
//! Runs issued from different threads against the same `Arc<Topology>`
//! through one `Session` execute concurrently — the matrix is never cloned,
//! and every fallible path (bad vertex id, empty edge list, missing in-edge
//! matrix, zero threads) returns a typed [`core::error::GraphMatError`].
//!
//! Every packaged algorithm has one pooled view driver (`bfs_view_into`,
//! `pagerank_view_into`, …) that writes into a caller-owned `VertexState`,
//! plus a `*_on` wrapper over it that returns fresh values, as above. See
//! [`algorithms`] for the driver shapes and `examples/quickstart.rs` for a
//! complete session-based program.
//!
//! ## Direction optimization (PR-4)
//!
//! Runs are **direction-optimized** by default
//! (`VectorKind::Auto`): each superstep executes either the paper's sparse
//! *push* SpMV (column-wise over the DCSC) or the dense *pull* SpMV
//! (row-parallel over a CSR mirror), chosen by Beamer's frontier-density
//! rule — pull when the frontier's out-edges exceed `unexplored / α`.
//! Results are bit-for-bit identical across backends; the per-superstep
//! choice is recorded in `SuperstepStats::backend`. Force a backend with
//! `.vector(…)` (α is fixed at 14), and skip the mirrors'
//! ~2× matrix memory with `.pull_enabled(false)` on the graph builder
//! (with `.vector(VectorKind::Bitvector)`, that is the paper's always-push
//! engine).
//!
//! ## Edge-type genericity (PR-1)
//!
//! Like the original C++ (which templatizes the edge type alongside the
//! three vertex-program types), the whole stack is **generic over the edge
//! value type**: a vertex program declares
//! [`core::program::GraphProgram::Edge`], topologies are `Topology<E>` and
//! edge lists are `EdgeList<E>` (`f32` by default). `Edge = ()` is the
//! **zero-cost unweighted fast path**: `Vec<()>` stores nothing, so the
//! DCSC matrices carry no edge value bytes at all — 4 bytes/edge less
//! memory traffic for a bandwidth-bound SpMV. BFS, connected components,
//! degree and triangle counting all accept `EdgeList<()>` (build one with
//! `EdgeList::from_pairs` or strip weights with `EdgeList::topology()`).
//! See [`core::program`] for the PR-1 migration guide from the
//! hardcoded-`f32` API.
//!
//! ## Serving (PR-6)
//!
//! The [`server`] crate turns the session architecture into a long-running
//! query server: `graphmat-serve` loads one graph at startup and answers
//! length-prefix-framed TCP requests (PageRank / BFS / SSSP / components /
//! degrees) from a worker pool with a bounded admission queue, per-request
//! deadlines, pooled per-worker `VertexState`s (steady-state serving
//! allocates nothing per query) and a `STATS` observability endpoint;
//! `loadgen` drives it and emits the `BENCH_serving` JSON series. See the
//! README's *Serving* section.
//!
//! This umbrella crate re-exports the whole workspace so that examples,
//! integration tests and downstream users can depend on a single crate.

pub use graphmat_algorithms as algorithms;
pub use graphmat_baselines as baselines;
pub use graphmat_core as core;
pub use graphmat_delta as delta;
pub use graphmat_io as io;
pub use graphmat_perf as perf;
pub use graphmat_server as server;
pub use graphmat_sparse as sparse;

/// Commonly used types for writing and running vertex programs.
pub mod prelude {
    pub use graphmat_algorithms::bfs::{bfs_on, bfs_view_into};
    pub use graphmat_algorithms::collaborative_filtering::{
        collaborative_filtering_on, rmse, CfConfig,
    };
    pub use graphmat_algorithms::connected_components::{
        component_count, connected_components_on, connected_components_view_into,
    };
    pub use graphmat_algorithms::degree::{in_degrees_on, in_degrees_view_into, out_degrees_on};
    pub use graphmat_algorithms::delta_pagerank::{
        delta_pagerank_on, delta_pagerank_view, DeltaPageRankConfig, StreamingPageRank,
    };
    pub use graphmat_algorithms::pagerank::{
        pagerank_on, pagerank_view_into, PageRankConfig, PageRankVertex,
    };
    pub use graphmat_algorithms::sssp::{sssp_on, sssp_view_into};
    pub use graphmat_algorithms::triangle_count::{total_triangles, triangle_count_on};
    pub use graphmat_algorithms::AlgorithmOutput;
    pub use graphmat_core::{
        ActivityPolicy, Backend, DispatchMode, EdgeDirection, GraphBuildOptions, GraphMatError,
        GraphProgram, GraphSnapshot, GraphStore, GraphView, RunOptions, RunOutcome, RunResult,
        RunStats, Session, SessionOptions, StatePool, StoreOptions, StoreStats, SuperstepStats,
        Topology, VectorKind, VertexId, VertexState, DEFAULT_PULL_ALPHA,
    };
    pub use graphmat_delta::{DeltaBatch, DeltaError, UpdateOp};
    pub use graphmat_io::bipartite::BipartiteConfig;
    pub use graphmat_io::edgelist::{EdgeList, EdgeWeight};
    pub use graphmat_io::grid::GridConfig;
    pub use graphmat_io::rmat::RmatConfig;
    pub use graphmat_sparse::spvec::SparseVector;
}
