//! One superstep: SEND_MESSAGE → generalized SpMV, allocation-free.
//!
//! This module is the bridge between the vertex-program frontend and the
//! sparse backend (the right-hand column of the paper's Figure 2):
//!
//! * `SEND_MESSAGE` over the active vertices **creates the sparse input
//!   vector**;
//! * `PROCESS_MESSAGE` becomes the generalized SpMV **multiply**, with the
//!   destination row index used to look up the destination vertex's property
//!   (the GraphMat extension over pure semiring frameworks, §4.2);
//! * `REDUCE` becomes the generalized SpMV **add**.
//!
//! The APPLY phase lives in [`crate::runner`], because it mutates vertex
//! state and drives the convergence loop.
//!
//! # Topology / state split
//!
//! A superstep **reads** the immutable
//! [`Topology`](crate::topology::Topology) (matrices + degrees) and the
//! current [`VertexState`] (properties + active set), and **writes** only
//! into the run's workspace. Nothing here mutates the topology, which is what
//! makes one `Arc<Topology>` safe to share between concurrent runs — each
//! run brings its own state and workspace.
//!
//! # The workspace: zero allocation per superstep
//!
//! GraphMat's SSSP/BFS advantage comes from tiny per-iteration overheads
//! (§5.2.1). To honour that, all per-superstep buffers — the message vector,
//! the reduced-output vector, the optional second output for
//! [`EdgeDirection::Both`], the APPLY `updated` list and the next-active bit
//! vector — live in a workspace owned by the runner and are **cleared and
//! reused** every iteration, never reallocated. One superstep runs SEND +
//! SpMV into that workspace and returns only scalar metrics.
//!
//! # Parallel SEND
//!
//! With a multi-lane executor and a large enough frontier, SEND is chunked
//! over the **words** of the active-vertex bit vector
//! ([`graphmat_sparse::spvec::SparseVector::fill_words_parallel`]): each lane
//! scans its word range and inserts messages for its own vertices. Chunks
//! never share a 64-bit validity word, so all writes are plain stores — no
//! locks, no atomics on the value path, no allocation. Per
//! [`GraphProgram::direction`], SEND reads only the degree array the
//! direction actually needs (out-degrees for `Out`, in-degrees for `In`,
//! both for `Both`) when accounting the edges a superstep will traverse.
//!
//! # Direction optimization: push vs pull
//!
//! The paper's engine always *pushes*: SEND builds a sparse message vector
//! and the column-wise DCSC SpMV scatters it — ideal when few vertices are
//! active, wasteful when most are (PageRank every superstep, the middle of
//! a BFS). This reproduction adds the dense *pull* backend
//! direction-optimized frameworks (Beamer's bottom-up BFS, GraphBLAST) get
//! their biggest win from: SEND fills the same bitvector-backed
//! [`SparseVector`], and the row-parallel [`gspmv_csr_pull_into`] kernel
//! walks destination rows of the topology's CSR mirror, gathering messages
//! by index — no sharded writers, no atomics, perfect write locality. One
//! message vector serves both directions, so switching costs no buffer.
//!
//! [`VectorKind::Auto`] (the default) makes the choice per
//! superstep with [`choose_backend`], Beamer's rule: pull when the
//! frontier's out-edges exceed `unexplored_edges / α` and the frontier is
//! not tiny. Forced kinds pin the backend (`Bitvector`/`Sorted` → push,
//! `Dense` → pull). Every representation reduces each destination's
//! incoming products in ascending source order, so **all four produce
//! bit-for-bit identical results** — the selector can never change an
//! answer, only its speed. The superstep records the chosen
//! [`Backend`] in its metrics so runs expose their push/pull trajectory.

use crate::error::{GraphMatError, Result};
use crate::options::{DispatchMode, RunOptions, VectorKind, DEFAULT_PULL_ALPHA};
use crate::program::{EdgeDirection, GraphProgram, VertexId};
use crate::state::VertexState;
use crate::stats::Backend;
use crate::view::GraphView;
use graphmat_sparse::bitvec::AtomicBitVec;
use graphmat_sparse::parallel::{chunks, Executor};
use graphmat_sparse::spmv::{gspmv_csr_pull_into, gspmv_overlay_into};
use graphmat_sparse::spvec::{SortedSparseVector, SparseVector};
use graphmat_sparse::Index;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Work lists smaller than this run a phase sequentially: waking the pool
/// costs more than scanning a short list on one lane — exactly the "small
/// per-iteration overhead" property the paper credits for GraphMat's SSSP
/// advantage (§5.2.1). Shared by SEND (here) and APPLY (the runner) so the
/// two cutoffs cannot drift apart.
pub(crate) const PARALLEL_PHASE_MIN_WORK: usize = 2048;

/// The β guard of the direction selector: never pull while fewer than
/// `1/β` of all vertices are active, no matter how few edges remain
/// unexplored. This is Beamer's bottom-up→top-down switch-back condition —
/// without it a BFS tail (tiny frontier, everything already explored) would
/// stay on the pull backend and pay a full row sweep to deliver a handful of
/// messages.
pub const PULL_BETA: f64 = 24.0;

/// The Beamer-style direction rule used by [`VectorKind::Auto`]: pull when
/// the frontier's outgoing edges outnumber `unexplored_edges / alpha`
/// (the frontier is about to touch a large share of what is left, so a
/// row-major sweep that reads each destination's sources beats scattering)
/// **and** at least `num_vertices / β` vertices are active (see
/// [`PULL_BETA`]).
///
/// `frontier_edges` is the out-edge count of the current active set in the
/// program's scatter direction; `unexplored_edges` is the direction's total
/// edge count minus everything already traversed this run (saturating at
/// zero — fixed-iteration algorithms like PageRank re-traverse every edge
/// each superstep, exhaust the estimate after one superstep and settle on
/// pull, which is exactly the desired behaviour).
pub fn choose_backend(
    frontier_edges: u64,
    unexplored_edges: u64,
    active_count: usize,
    num_vertices: usize,
    alpha: f64,
) -> Backend {
    let frontier_is_heavy = frontier_edges as f64 > unexplored_edges as f64 / alpha;
    let frontier_is_broad = active_count as f64 * PULL_BETA >= num_vertices as f64;
    if frontier_is_heavy && frontier_is_broad {
        Backend::Pull
    } else {
        Backend::Push
    }
}

/// Scalar measurements of one superstep's SEND + SpMV phases; the reduced
/// values themselves land in the [`Workspace`].
pub(crate) struct SuperstepMetrics {
    /// Number of messages generated by SEND_MESSAGE.
    pub messages_sent: usize,
    /// Number of edges traversed by the SpMV.
    pub edges_processed: u64,
    /// Which SpMV backend ran (push, or pull when the frontier was dense).
    pub backend: Backend,
    /// Time spent building the message vector.
    pub send_time: Duration,
    /// Time spent in the SpMV.
    pub spmv_time: Duration,
}

/// The message vector SEND fills. Which kernel reads it is decided per
/// superstep from [`RunOptions::vector`], not from the store.
enum MessageStore<M> {
    /// Bit vector + dense value array (the paper's choice, §4.4.2), read by
    /// the push and the pull kernel alike. Serves `Bitvector`, `Dense` and
    /// `Auto` runs.
    Bitvector(SparseVector<M>),
    /// Sorted tuples (the Figure 7 ablation baseline; always pushed, and
    /// SEND stays sequential here because sorted insertion cannot be
    /// sharded).
    Sorted(SortedSparseVector<M>),
}

/// Reusable per-run scratch state: every buffer a superstep needs, allocated
/// once in [`Workspace::new`] and recycled (cleared, never freed) across all
/// supersteps of a run — or across **runs**, when the workspace rides in a
/// pooled [`VertexState`] via
/// [`crate::session::RunBuilder::execute_with`].
pub(crate) struct Workspace<P: GraphProgram> {
    messages: MessageStore<P::Message>,
    pub(crate) reduced: SparseVector<P::Reduced>,
    /// Second SpMV target for [`EdgeDirection::Both`]; built lazily on first
    /// use so unidirectional programs never pay for it.
    scratch: Option<SparseVector<P::Reduced>>,
    /// Vertex ids with a reduced value this superstep (APPLY's work list).
    pub(crate) updated: Vec<Index>,
    /// Active set being built for the next superstep.
    pub(crate) next_active: AtomicBitVec,
}

impl<P: GraphProgram> Workspace<P> {
    /// Allocate a workspace for a graph of `n` vertices.
    pub(crate) fn new(n: usize, options: &RunOptions) -> Self {
        let messages = match options.vector {
            VectorKind::Sorted => MessageStore::Sorted(SortedSparseVector::new(n)),
            VectorKind::Bitvector | VectorKind::Dense | VectorKind::Auto => {
                MessageStore::Bitvector(SparseVector::new(n))
            }
        };
        Workspace {
            messages,
            reduced: SparseVector::new(n),
            scratch: None,
            updated: Vec::new(),
            next_active: AtomicBitVec::new(n),
        }
    }

    /// Whether this workspace can serve a run over `n` vertices with the
    /// given options (used when recycling a cached workspace from a pooled
    /// [`VertexState`] — a mismatch means "allocate fresh", never an error).
    /// Only the sorted ablation needs its own store, so `Bitvector`, `Dense`
    /// and `Auto` runs share one workspace.
    pub(crate) fn is_compatible(&self, n: usize, options: &RunOptions) -> bool {
        let sorted = matches!(self.messages, MessageStore::Sorted(_));
        sorted == (options.vector == VectorKind::Sorted) && self.reduced.len() == n
    }
}

/// Execute the SEND_MESSAGE and SpMV phases of one superstep over a
/// `(base ⊕ delta)` [`GraphView`], reusing the buffers in `ws`.
/// Allocation-free in the steady state.
///
/// `active_count` is the current number of active vertices — the caller (the
/// runner's convergence check) already has it in hand, and passing it in
/// spares SEND a second full popcount of the active bit vector per
/// superstep. It gates the sequential-vs-parallel SEND choice and feeds the
/// direction selector's β guard.
///
/// `explored_edges` is the number of edges already traversed by earlier
/// supersteps of this run (the runner's cumulative
/// `RunStats::edges_processed`); the [`VectorKind::Auto`] selector uses it
/// to estimate the unexplored remainder.
///
/// The push SpMV runs [`gspmv_overlay_into`] over the view's pending
/// overlay, if any, and SEND accounts the **merged** degree arrays, so
/// metrics describe the edited graph. [`VectorKind::Auto`] always selects
/// the push backend while edits are pending — the pull mirrors describe the
/// unedited base and are only refreshed by compaction.
///
/// The request has been validated by [`crate::session::RunBuilder`] before
/// the run started (in-edge matrix and in-kernel overlay for `In`/`Both`
/// programs, pull mirrors and no pending overlay for a forced
/// [`VectorKind::Dense`]), so the matrix lookups below cannot fail.
#[allow(clippy::too_many_arguments)]
pub(crate) fn superstep_view_into<P: GraphProgram>(
    view: GraphView<'_, P::Edge>,
    state: &VertexState<P::VertexProp>,
    program: &P,
    options: &RunOptions,
    executor: &Executor,
    active_count: usize,
    explored_edges: u64,
    ws: &mut Workspace<P>,
) -> Result<SuperstepMetrics> {
    // Release-mode checks, not debug_asserts: the Topology/VertexState
    // split makes a mismatched pairing expressible, and without this the
    // failure is a bare slice-index panic deep in SEND/SpMV. Two usize
    // compares per superstep is free next to the SpMV.
    let topology = view.topology();
    let n = topology.num_vertices() as usize;
    assert_eq!(
        state.num_vertices(),
        n,
        "vertex state sized for {} vertices used with a topology of {} vertices",
        state.num_vertices(),
        n
    );
    assert_eq!(
        ws.reduced.len(),
        n,
        "workspace sized for {} vertices used with a topology of {} vertices",
        ws.reduced.len(),
        n
    );
    let direction = program.direction();

    // --- Backend selection. Pending overlays pin the push backend: the
    // pull mirrors describe the unedited base.
    let backend = match options.vector {
        VectorKind::Bitvector | VectorKind::Sorted => Backend::Push,
        VectorKind::Dense => Backend::Pull,
        VectorKind::Auto if !view.has_overlay() && topology.has_pull_mirrors() => {
            let frontier_edges = frontier_out_edges(view, state, direction, active_count, executor);
            let unexplored = direction_edge_total(view, direction).saturating_sub(explored_edges);
            choose_backend(
                frontier_edges,
                unexplored,
                active_count,
                n,
                DEFAULT_PULL_ALPHA,
            )
        }
        VectorKind::Auto => Backend::Push,
    };

    // --- SEND_MESSAGE: build the message vector from active vertices.
    let send_start = Instant::now();
    let (messages_sent, edges_processed) = match &mut ws.messages {
        MessageStore::Bitvector(mv) => {
            send_frontier(view, state, program, direction, executor, active_count, mv)
        }
        MessageStore::Sorted(sv) => {
            sv.clear();
            send_sequential(view, state, program, direction, |v, msg| sv.set(v, msg))
        }
    };
    let send_time = send_start.elapsed();

    // --- Generalized SpMV (Algorithm 1): sparse push or dense pull.
    let spmv_start = Instant::now();
    let Workspace {
        messages,
        reduced,
        scratch,
        ..
    } = ws;
    spmv_phase(
        view,
        state,
        program,
        options.dispatch,
        executor,
        messages,
        backend,
        reduced,
        scratch,
    )?;
    let spmv_time = spmv_start.elapsed();

    Ok(SuperstepMetrics {
        messages_sent,
        edges_processed,
        backend,
        send_time,
        spmv_time,
    })
}

/// Total edges a program of the given direction could ever traverse — the
/// denominator of the selector's unexplored-edge estimate. Reads the view's
/// merged edge count, so pending deltas are counted.
fn direction_edge_total<E>(view: GraphView<'_, E>, direction: EdgeDirection) -> u64 {
    match direction {
        EdgeDirection::Out | EdgeDirection::In => view.num_edges() as u64,
        EdgeDirection::Both => 2 * view.num_edges() as u64,
    }
}

/// Out-edge count of the current active set in the scatter direction —
/// Beamer's `m_f`. One degree-array read per active vertex; skipped entirely
/// when every vertex is active (then it is just the direction's edge total,
/// the PageRank-every-superstep case). Large frontiers are scanned in
/// parallel over active-bitvector words with the same cutoff SEND uses, so
/// the selector's pre-scan can never dominate the phase it is sizing.
fn frontier_out_edges<E: Sync, V: Sync>(
    view: GraphView<'_, E>,
    state: &VertexState<V>,
    direction: EdgeDirection,
    active_count: usize,
    executor: &Executor,
) -> u64 {
    if active_count == view.num_vertices() as usize {
        return direction_edge_total(view, direction);
    }
    let active = state.active_bits();
    if executor.nthreads() == 1 || active_count < PARALLEL_PHASE_MIN_WORK {
        return active
            .iter_ones()
            .map(|v| edges_for(view, direction, v as VertexId))
            .sum();
    }
    let ch = chunks(active.words().len(), executor.nthreads() * 4);
    let total = AtomicU64::new(0);
    executor.for_each_dynamic(ch.count(), |chunk_idx| {
        let (word_start, word_end) = ch.bounds(chunk_idx);
        let mut local = 0u64;
        for v in active.iter_ones_in_words(word_start, word_end) {
            local += edges_for(view, direction, v as VertexId);
        }
        total.fetch_add(local, Ordering::Relaxed);
    });
    total.load(Ordering::Relaxed)
}

/// How many edges a message from `v` will traverse, given the scatter
/// direction — the SEND loop reads only the degree array(s) the direction
/// requires. The view resolves to the merged degrees when deltas are
/// pending, so `edges_processed` metrics always describe the edited graph.
#[inline(always)]
fn edges_for<E>(view: GraphView<'_, E>, direction: EdgeDirection, v: VertexId) -> u64 {
    match direction {
        EdgeDirection::Out => view.out_degrees()[v as usize] as u64,
        EdgeDirection::In => view.in_degrees()[v as usize] as u64,
        EdgeDirection::Both => {
            view.out_degrees()[v as usize] as u64 + view.in_degrees()[v as usize] as u64
        }
    }
}

/// Sequential SEND over the active set, handing each message to `insert`
/// (which writes it into an already-cleared message vector).
fn send_sequential<P: GraphProgram>(
    view: GraphView<'_, P::Edge>,
    state: &VertexState<P::VertexProp>,
    program: &P,
    direction: EdgeDirection,
    mut insert: impl FnMut(VertexId, P::Message),
) -> (usize, u64) {
    let props = state.properties();
    let mut sent = 0usize;
    let mut edges = 0u64;
    for v in state.active_bits().iter_ones() {
        let v = v as VertexId;
        if let Some(msg) = program.send_message(v, &props[v as usize]) {
            insert(v, msg);
            sent += 1;
            edges += edges_for(view, direction, v);
        }
    }
    (sent, edges)
}

/// SEND into the bitvector message store that both kernels read:
/// sequential for small frontiers, otherwise chunked over active-bitvector
/// words across the executor's lanes.
fn send_frontier<P: GraphProgram>(
    view: GraphView<'_, P::Edge>,
    state: &VertexState<P::VertexProp>,
    program: &P,
    direction: EdgeDirection,
    executor: &Executor,
    active_count: usize,
    messages: &mut SparseVector<P::Message>,
) -> (usize, u64) {
    messages.clear();
    if executor.nthreads() == 1 || active_count < PARALLEL_PHASE_MIN_WORK {
        return send_sequential(view, state, program, direction, |v, msg| {
            messages.set(v, msg)
        });
    }

    let props = state.properties();
    let active = state.active_bits();
    let sent = AtomicUsize::new(0);
    let edges = AtomicU64::new(0);
    messages.fill_words_parallel(executor, |writer| {
        let (word_start, word_end) = writer.word_range();
        let mut local_sent = 0usize;
        let mut local_edges = 0u64;
        for v in active.iter_ones_in_words(word_start, word_end) {
            let v = v as VertexId;
            if let Some(msg) = program.send_message(v, &props[v as usize]) {
                writer.set(v, msg);
                local_sent += 1;
                local_edges += edges_for(view, direction, v);
            }
        }
        sent.fetch_add(local_sent, Ordering::Relaxed);
        edges.fetch_add(local_edges, Ordering::Relaxed);
    });
    (sent.load(Ordering::Relaxed), edges.load(Ordering::Relaxed))
}

/// Run the SpMV phase into the workspace buffers, with static
/// (monomorphised, inlinable) dispatch of the user callbacks or dynamic
/// (`dyn Fn`) dispatch, the latter modelling the paper's "without -ipo"
/// configuration for Figure 7. Either way the callbacks are built once per
/// superstep and [`run_sides`] runs the push or the pull kernel with them.
#[allow(clippy::too_many_arguments)]
fn spmv_phase<P: GraphProgram>(
    view: GraphView<'_, P::Edge>,
    state: &VertexState<P::VertexProp>,
    program: &P,
    dispatch: DispatchMode,
    executor: &Executor,
    messages: &MessageStore<P::Message>,
    backend: Backend,
    reduced: &mut SparseVector<P::Reduced>,
    scratch: &mut Option<SparseVector<P::Reduced>>,
) -> Result<()> {
    let props = state.properties();
    match dispatch {
        DispatchMode::Static => {
            let multiply = |msg: &P::Message, edge: &P::Edge, dst: Index| {
                program.process_message(msg, edge, &props[dst as usize])
            };
            let add = |acc: &mut P::Reduced, value: P::Reduced| program.reduce(acc, value);
            run_sides(
                view, program, executor, messages, backend, &multiply, &add, reduced, scratch,
            )
        }
        DispatchMode::Dynamic => {
            // Route every callback invocation through a trait object so the
            // optimiser cannot inline the user code into the SpMV kernel.
            #[allow(clippy::type_complexity)]
            let process: &(dyn Fn(&P::Message, &P::Edge, &P::VertexProp) -> P::Reduced
                  + Sync) = &|m, e, d| program.process_message(m, e, d);
            let reduce: &(dyn Fn(&mut P::Reduced, P::Reduced) + Sync) =
                &|acc, v| program.reduce(acc, v);
            let multiply = |msg: &P::Message, edge: &P::Edge, dst: Index| {
                process(msg, edge, &props[dst as usize])
            };
            let add = |acc: &mut P::Reduced, value: P::Reduced| reduce(acc, value);
            run_sides(
                view, program, executor, messages, backend, &multiply, &add, reduced, scratch,
            )
        }
    }
}

/// Run one SpMV per side of the graph the program's direction traverses:
/// out-edges, then in-edges. The second side of [`EdgeDirection::Both`]
/// writes into the scratch vector, which is then folded into `reduced`.
/// Push and pull take this same walk, so each destination's products
/// arrive in the same order and the two backends stay bit-for-bit
/// identical.
///
/// Push runs over the side's DCSC merged with its pending overlay, if any,
/// so results also match a from-scratch rebuild bit for bit. Pull runs over
/// the side's CSR mirror.
#[allow(clippy::too_many_arguments)]
fn run_sides<P, M, A>(
    view: GraphView<'_, P::Edge>,
    program: &P,
    executor: &Executor,
    messages: &MessageStore<P::Message>,
    backend: Backend,
    multiply: &M,
    add: &A,
    reduced: &mut SparseVector<P::Reduced>,
    scratch: &mut Option<SparseVector<P::Reduced>>,
) -> Result<()>
where
    P: GraphProgram,
    M: Fn(&P::Message, &P::Edge, Index) -> P::Reduced + Sync,
    A: Fn(&mut P::Reduced, P::Reduced) + Sync,
{
    let topology = view.topology();
    let run = |side: EdgeDirection, y: &mut SparseVector<P::Reduced>| -> Result<()> {
        let (matrix, overlay, mirror) = if side == EdgeDirection::In {
            let matrix = topology.in_matrix().ok_or(GraphMatError::MissingInMatrix)?;
            (matrix, view.in_kernel_overlay(), topology.in_pull_mirror())
        } else {
            let matrix = topology.out_matrix();
            (
                matrix,
                view.out_kernel_overlay(),
                topology.out_pull_mirror(),
            )
        };
        match (messages, backend) {
            (MessageStore::Bitvector(mv), Backend::Push) => {
                gspmv_overlay_into(matrix, overlay, mv, multiply, add, executor, y)
            }
            (MessageStore::Bitvector(mv), Backend::Pull) => {
                let mirror = mirror.ok_or(GraphMatError::MissingPullMirror)?;
                gspmv_csr_pull_into(mirror, mv, multiply, add, executor, y)
            }
            (MessageStore::Sorted(sv), _) => {
                gspmv_overlay_into(matrix, overlay, sv, multiply, add, executor, y)
            }
        }
        Ok(())
    };
    match program.direction() {
        EdgeDirection::Out => run(EdgeDirection::Out, reduced),
        EdgeDirection::In => run(EdgeDirection::In, reduced),
        EdgeDirection::Both => {
            run(EdgeDirection::Out, reduced)?;
            let scratch = scratch.get_or_insert_with(|| SparseVector::new(reduced.len()));
            run(EdgeDirection::In, scratch)?;
            merge_scratch(program, scratch, reduced);
            Ok(())
        }
    }
}

/// Fold the `Both`-direction second output (in-edge traversal) into the
/// primary reduced vector with the program's REDUCE.
fn merge_scratch<P: GraphProgram>(
    program: &P,
    scratch: &SparseVector<P::Reduced>,
    reduced: &mut SparseVector<P::Reduced>,
) {
    for (k, v) in scratch.iter() {
        reduced.merge(k, v.clone(), |acc, value| program.reduce(acc, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{GraphBuildOptions, Topology};
    use graphmat_io::edgelist::EdgeList;

    /// SSSP as in the paper's Figure 3 / appendix.
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

    /// Figure 3(a): A=0,B=1,C=2,D=3,E=4, with the default pull mirrors so
    /// the same graph serves the push and pull backend tests.
    fn figure3_topology() -> Topology<f32> {
        let el = EdgeList::from_tuples(
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
        );
        Topology::from_edge_list(&el, GraphBuildOptions::default().with_partitions(2))
    }

    /// Figure 3 SSSP state: every distance infinite except A's, with the
    /// given active set.
    fn figure3_state(active: &[VertexId]) -> VertexState<f32> {
        let mut state = VertexState::new(5);
        state.set_all_properties(f32::MAX);
        state.set_property(0, 0.0);
        for &v in active {
            state.set_active(v);
        }
        state
    }

    /// One superstep into a fresh workspace: its metrics and reduced output.
    fn one_superstep<P: GraphProgram>(
        topology: &Topology<P::Edge>,
        state: &VertexState<P::VertexProp>,
        program: &P,
        options: &RunOptions,
        executor: &Executor,
    ) -> (SuperstepMetrics, Vec<(Index, P::Reduced)>) {
        let mut ws = Workspace::<P>::new(topology.num_vertices() as usize, options);
        let metrics = superstep_view_into(
            GraphView::base(topology),
            state,
            program,
            options,
            executor,
            state.active_count(),
            0,
            &mut ws,
        )
        .unwrap();
        (metrics, ws.reduced.to_entries())
    }

    /// [`RunOptions`] forcing one vector kind.
    fn forced(kind: VectorKind) -> RunOptions {
        RunOptions::default().with_vector(kind)
    }

    #[test]
    fn figure3_first_superstep() {
        let (out, reduced) = one_superstep(
            &figure3_topology(),
            &figure3_state(&[0]),
            &Sssp,
            &forced(VectorKind::Bitvector),
            &Executor::sequential(),
        );
        assert_eq!(out.messages_sent, 1);
        assert_eq!(out.edges_processed, 3);
        assert_eq!(out.backend, Backend::Push);
        assert_eq!(reduced, vec![(1, 1.0), (2, 3.0), (3, 2.0)]);
    }

    #[test]
    fn dispatch_modes_agree() {
        let topology = figure3_topology();
        let state = figure3_state(&[0, 1, 2, 3, 4]);
        let executor = Executor::new(2);
        let run = |kind: VectorKind, dispatch: DispatchMode| {
            one_superstep(
                &topology,
                &state,
                &Sssp,
                &forced(kind).with_dispatch(dispatch),
                &executor,
            )
        };
        let (_, fast) = run(VectorKind::Bitvector, DispatchMode::Static);
        let (_, slow) = run(VectorKind::Bitvector, DispatchMode::Dynamic);
        assert_eq!(fast, slow);

        // The same ablation must hold on the pull backend.
        let (pull, pull_fast) = run(VectorKind::Dense, DispatchMode::Static);
        let (_, pull_slow) = run(VectorKind::Dense, DispatchMode::Dynamic);
        assert_eq!(pull.backend, Backend::Pull);
        assert_eq!(pull_fast, fast);
        assert_eq!(pull_slow, fast);
    }

    #[test]
    fn vector_kinds_agree() {
        let topology = figure3_topology();
        let state = figure3_state(&[0, 1, 2, 3, 4]);
        let executor = Executor::sequential();
        let run =
            |kind: VectorKind| one_superstep(&topology, &state, &Sssp, &forced(kind), &executor);
        let (_, bitvec) = run(VectorKind::Bitvector);
        let (_, sorted) = run(VectorKind::Sorted);
        let (dense, dense_out) = run(VectorKind::Dense);
        let (_, auto) = run(VectorKind::Auto);
        assert_eq!(bitvec, sorted);
        assert_eq!(bitvec, dense_out);
        assert_eq!(bitvec, auto);
        assert_eq!(dense.backend, Backend::Pull);
    }

    #[test]
    fn auto_without_mirrors_degrades_to_push() {
        let el = EdgeList::from_tuples(3, vec![(0, 1, 1.0), (1, 2, 1.0)]);
        let topology = Topology::from_edge_list(
            &el,
            GraphBuildOptions::default()
                .with_pull_mirrors(false)
                .with_partitions(1),
        );
        let mut state: VertexState<f32> = VertexState::for_topology(&topology);
        state.set_all_properties(0.0);
        state.set_all_active();
        let (out, reduced) = one_superstep(
            &topology,
            &state,
            &Sssp,
            &forced(VectorKind::Auto),
            &Executor::sequential(),
        );
        // A fully-dense frontier would normally pull; without mirrors the
        // selector must settle for push and still produce the right answer.
        assert_eq!(out.backend, Backend::Push);
        assert_eq!(reduced, vec![(1, 1.0), (2, 1.0)]);
    }

    #[test]
    fn selector_follows_the_beamer_rule() {
        // Heavy frontier + broad frontier → pull.
        assert_eq!(choose_backend(1000, 1000, 500, 1000, 14.0), Backend::Pull);
        // Heavy frontier but tiny active set (BFS tail) → push (β guard).
        assert_eq!(choose_backend(1000, 0, 10, 1000, 14.0), Backend::Push);
        // Light frontier (BFS start) → push.
        assert_eq!(choose_backend(3, 10_000, 500, 1000, 14.0), Backend::Push);
        // α tunes the switch point: the same frontier pulls with a large α
        // and pushes with a small one.
        assert_eq!(choose_backend(100, 10_000, 500, 1000, 200.0), Backend::Pull);
        assert_eq!(choose_backend(100, 10_000, 500, 1000, 2.0), Backend::Push);
    }

    #[test]
    fn workspace_reuse_across_supersteps_matches_fresh_outputs() {
        let topology = figure3_topology();
        let state = figure3_state(&[0, 1, 2, 3, 4]);
        let options = RunOptions::default();
        let executor = Executor::new(2);
        let mut ws = Workspace::<Sssp>::new(5, &options);
        for _ in 0..3 {
            let (fresh, fresh_reduced) =
                one_superstep(&topology, &state, &Sssp, &options, &executor);
            let metrics = superstep_view_into(
                GraphView::base(&topology),
                &state,
                &Sssp,
                &options,
                &executor,
                state.active_count(),
                0,
                &mut ws,
            )
            .unwrap();
            assert_eq!(metrics.messages_sent, fresh.messages_sent);
            assert_eq!(metrics.edges_processed, fresh.edges_processed);
            assert_eq!(ws.reduced.to_entries(), fresh_reduced);
        }
    }

    #[test]
    fn workspace_compatibility_checks_length_and_kind() {
        // Bitvector, Dense and Auto share one bitvector store; only the
        // sorted ablation and a different length need a fresh workspace.
        let shared = [VectorKind::Bitvector, VectorKind::Dense, VectorKind::Auto];
        let sorted_opts = forced(VectorKind::Sorted);
        for built in shared {
            let ws = Workspace::<Sssp>::new(16, &forced(built));
            for used in shared {
                assert!(ws.is_compatible(16, &forced(used)), "{built:?} → {used:?}");
                assert!(!ws.is_compatible(17, &forced(used)), "{built:?} → {used:?}");
            }
            assert!(!ws.is_compatible(16, &sorted_opts), "{built:?} → Sorted");
        }
        let sorted = Workspace::<Sssp>::new(16, &sorted_opts);
        assert!(sorted.is_compatible(16, &sorted_opts));
        assert!(!sorted.is_compatible(17, &sorted_opts));
        for used in shared {
            assert!(
                !sorted.is_compatible(16, &forced(used)),
                "Sorted → {used:?}"
            );
        }
    }

    /// A program that scatters along in-edges: each vertex tells its
    /// *in-neighbours* (sources of its incoming edges) its id.
    struct InDegreeLike;

    impl GraphProgram for InDegreeLike {
        type VertexProp = u32;
        type Message = u32;
        type Reduced = u32;
        type Edge = f32;

        fn direction(&self) -> EdgeDirection {
            EdgeDirection::In
        }

        fn send_message(&self, v: VertexId, _p: &u32) -> Option<u32> {
            Some(v)
        }

        fn process_message(&self, _m: &u32, _e: &f32, _d: &u32) -> u32 {
            1
        }

        fn reduce(&self, acc: &mut u32, v: u32) {
            *acc += v;
        }

        fn apply(&self, r: &u32, p: &mut u32) {
            *p = *r;
        }
    }

    /// Run [`InDegreeLike`] once with every vertex of `el` active.
    fn in_direction_superstep(
        el: &EdgeList<f32>,
        partitions: usize,
    ) -> (SuperstepMetrics, Vec<(Index, u32)>) {
        let topology =
            Topology::from_edge_list(el, GraphBuildOptions::default().with_partitions(partitions));
        let mut state: VertexState<u32> = VertexState::for_topology(&topology);
        state.set_all_active();
        one_superstep(
            &topology,
            &state,
            &InDegreeLike,
            &RunOptions::default(),
            &Executor::sequential(),
        )
    }

    #[test]
    fn in_direction_counts_out_degrees() {
        // Scattering along in-edges delivers, to each vertex, one message per
        // out-edge it has (y = G·x with x = all ones).
        let el = EdgeList::from_tuples(4, vec![(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let (_, reduced) = in_direction_superstep(&el, 2);
        // vertex 0 has 2 out-edges, vertices 1 and 2 one each, 3 none
        assert_eq!(reduced, vec![(0, 2), (1, 1), (2, 1)]);
    }

    #[test]
    fn in_direction_counts_only_in_degrees_for_edges_processed() {
        // SEND must account only the degree array the direction requires.
        // Vertex 0 here has 2 out-edges and 0 in-edges; an In-direction
        // program sending from every vertex processes exactly the in-degree
        // total.
        let el = EdgeList::from_tuples(3, vec![(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]);
        let (out, _) = in_direction_superstep(&el, 1);
        // in-degrees: v0=0, v1=1, v2=2 → total 3 edges for an In program
        assert_eq!(out.edges_processed, 3);
    }

    #[test]
    #[should_panic(expected = "used with a topology of")]
    fn mismatched_state_is_rejected_with_diagnostics_in_release_too() {
        // A plain assert (not debug_assert): it guards the unsafe sharded
        // writes, and a mismatched pairing must not surface as a bare
        // slice-index panic inside SEND.
        let wrong: VertexState<f32> = VertexState::new(3);
        let _ = one_superstep(
            &figure3_topology(),
            &wrong,
            &Sssp,
            &RunOptions::default(),
            &Executor::sequential(),
        );
    }

    #[test]
    fn inactive_graph_produces_no_work() {
        let (out, reduced) = one_superstep(
            &figure3_topology(),
            &figure3_state(&[]),
            &Sssp,
            &RunOptions::default(),
            &Executor::sequential(),
        );
        assert_eq!(out.messages_sent, 0);
        assert_eq!(out.edges_processed, 0);
        assert!(reduced.is_empty());
    }
}
