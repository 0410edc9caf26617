//! The superstep loop (Algorithm 2) and the APPLY phase.
//!
//! `run_program_view` repeats SEND → SpMV → APPLY until no vertex changes
//! state or the iteration limit is reached, following the bulk-synchronous
//! parallel model: state written by APPLY becomes visible only in the next
//! superstep (§4.1). After APPLY, exactly the vertices whose property changed
//! are active for the next superstep (Algorithm 2 lines 12–13).
//!
//! # Topology / state split
//!
//! The loop reads an immutable [`Topology`](crate::topology::Topology)
//! through a [`GraphView`] and mutates a caller-owned [`VertexState`] —
//! nothing about the matrices changes during a run, so one `Arc<Topology>`
//! can serve any number of concurrent runs, each with its own state. The
//! loop is reached only through [`crate::session::RunBuilder`], which
//! rejects every unrunnable request before the state is touched.
//!
//! # Execution resources
//!
//! One [`Executor`] (a persistent pool of parked worker threads) and one
//! workspace (message/output/work-list buffers) serve every superstep —
//! the loop itself spawns no threads and allocates nothing in the steady
//! state. The [`crate::session::Session`] owns a process-lifetime executor
//! and recycles workspaces through pooled states.

use crate::engine::{superstep_view_into, Workspace, PARALLEL_PHASE_MIN_WORK};
use crate::error::{GraphMatError, Result};
use crate::options::{ActivityPolicy, RunOptions};
use crate::program::GraphProgram;
use crate::state::VertexState;
use crate::stats::{RunStats, SuperstepStats};
use crate::view::GraphView;
use graphmat_sparse::parallel::{chunks, Executor};
use graphmat_sparse::spvec::MessageVector;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The outcome of a runner invocation.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Timing and work statistics for the run.
    pub stats: RunStats,
    /// `true` if the program terminated because no vertex changed state,
    /// `false` if it hit the iteration limit.
    pub converged: bool,
}

/// Run a vertex program over a `(base ⊕ delta)` [`GraphView`] and a
/// caller-owned mutable state, reusing a caller-owned workspace. The state's
/// current vertex properties and active set are the program's initial state;
/// on return the state holds the final properties.
///
/// A view without an overlay runs the plain matrices; a view with pending
/// edits runs every superstep through the overlay-aware push SpMV, with
/// results bit-for-bit identical to a run over a topology rebuilt from the
/// edited edge list.
///
/// The caller ([`crate::session::RunBuilder`]) has already validated the
/// request against the view, so the matrix lookups inside a superstep cannot
/// fail; the one error a valid run raises is
/// [`GraphMatError::DeadlineExceeded`], between supersteps.
pub(crate) fn run_program_view<P: GraphProgram>(
    program: &P,
    view: GraphView<'_, P::Edge>,
    state: &mut VertexState<P::VertexProp>,
    options: &RunOptions,
    executor: &Executor,
    ws: &mut Workspace<P>,
) -> Result<RunResult> {
    let topology = view.topology();
    let mut stats = RunStats {
        matrix_bytes: topology.matrix_bytes(),
        nthreads: executor.nthreads(),
        ..RunStats::default()
    };
    let mut converged = false;
    let mut iteration = 0usize;

    loop {
        if let Some(max) = options.max_iterations {
            if iteration >= max {
                break;
            }
        }
        // The barrier between supersteps is the cancellation point: a run
        // can overshoot its deadline by at most one superstep, and the
        // completed supersteps' results stay in the state (a pooled state's
        // next run re-initialises anyway).
        if let Some(deadline) = options.deadline {
            if Instant::now() >= deadline {
                return Err(GraphMatError::DeadlineExceeded);
            }
        }
        let active_before = state.active_count();
        if active_before == 0 {
            converged = true;
            break;
        }

        let output = superstep_view_into(
            view,
            state,
            program,
            options,
            executor,
            active_before,
            // The selector's explored-edge estimate: everything earlier
            // supersteps of this run already traversed.
            stats.edges_processed,
            ws,
        )?;
        let vertices_updated = ws.reduced.nnz();
        let (apply_time, vertices_changed) = apply_phase(program, state, ws, executor);

        // Fixed-iteration algorithms (PageRank, gradient-descent CF) need
        // every vertex to rebroadcast each superstep even when its own state
        // did not change; frontier algorithms activate only changed vertices.
        if options.activity == ActivityPolicy::AlwaysAll && vertices_changed > 0 {
            state.set_all_active();
        }

        let step = SuperstepStats {
            iteration,
            backend: output.backend,
            frontier_density: active_before as f64 / (topology.num_vertices() as f64).max(1.0),
            active_vertices: active_before,
            messages_sent: output.messages_sent,
            edges_processed: output.edges_processed,
            vertices_updated,
            vertices_changed,
            send_time: output.send_time,
            spmv_time: output.spmv_time,
            apply_time,
        };
        stats.record(step, options.record_supersteps);
        program.on_superstep_end(iteration, vertices_changed);
        iteration += 1;
    }

    Ok(RunResult { stats, converged })
}

/// APPLY the reduced values in the workspace, update the state's active set,
/// and return `(apply_time, vertices_changed)`. Reuses the workspace's
/// `updated` list and `next_active` bit vector — no per-superstep
/// allocation.
fn apply_phase<P: GraphProgram>(
    program: &P,
    state: &mut VertexState<P::VertexProp>,
    ws: &mut Workspace<P>,
    executor: &Executor,
) -> (std::time::Duration, usize) {
    let apply_start = Instant::now();
    let Workspace {
        reduced,
        updated,
        next_active,
        ..
    } = ws;
    updated.clear();
    updated.extend(reduced.iter().map(|(k, _)| k));
    next_active.clear_all();

    let changed_total = if executor.nthreads() == 1 || updated.len() < PARALLEL_PHASE_MIN_WORK {
        // Sequential APPLY for small work lists (see the threshold's doc).
        let mut changed = 0usize;
        let props = state.properties_mut();
        for &v in updated.iter() {
            let reduced = reduced
                .get(v)
                // audit:allow(no-unwrap): `updated` is exactly the key set of
                // `reduced`, rebuilt from it a few lines above.
                .expect("updated vertex must have a reduced value");
            let slot = &mut props[v as usize];
            let old = slot.clone();
            program.apply(reduced, slot);
            if *slot != old {
                next_active.set(v as usize);
                changed += 1;
            }
        }
        changed
    } else {
        // Parallel APPLY over disjoint chunks of the updated-vertex list.
        // Each vertex id appears exactly once, so the unsafe shared-slice
        // writes never alias.
        let props_ptr = SharedProps::new(state.properties_mut());
        let reduced = &*reduced;
        let updated = &updated[..];
        let next_active = &*next_active;
        let ch = chunks(updated.len(), executor.nthreads() * 4);
        let changed = AtomicUsize::new(0);
        executor.for_each_dynamic(ch.count(), |chunk_idx| {
            let (start, end) = ch.bounds(chunk_idx);
            let mut local_changed = 0usize;
            for &v in &updated[start..end] {
                let reduced = reduced
                    .get(v)
                    // audit:allow(no-unwrap): `updated` is exactly the key
                    // set of `reduced`, rebuilt from it before the dispatch.
                    .expect("updated vertex must have a reduced value");
                // SAFETY: vertex ids in `updated` are unique, so each
                // property slot is written by exactly one chunk.
                let slot = unsafe { props_ptr.get_mut(v as usize) };
                let old = slot.clone();
                program.apply(reduced, slot);
                if *slot != old {
                    next_active.set(v as usize);
                    local_changed += 1;
                }
            }
            changed.fetch_add(local_changed, Ordering::Relaxed);
        });
        changed.load(Ordering::Relaxed)
    };

    state.load_active_from(next_active);
    (apply_start.elapsed(), changed_total)
}

/// A raw pointer to the vertex-property slice that can be shared across the
/// APPLY worker threads. Safe to use only because every updated vertex id is
/// unique, so no two threads ever touch the same element.
struct SharedProps<V> {
    ptr: *mut V,
    len: usize,
    /// Write-once shadow of the "each updated id is unique" invariant: a
    /// handle lives for one APPLY region, so every slot may be claimed at
    /// most once (see `graphmat_sparse::shard_check`).
    #[cfg(feature = "shard-check")]
    claims: graphmat_sparse::shard_check::ClaimMap,
}

// SAFETY: the pointer crosses threads only inside `apply_phase`'s parallel
// region, where each element index appears in the `updated` work list once
// and is therefore written through `get_mut` by exactly one lane; the
// element type is `V: Send`, and the caller blocks until every lane
// finishes, keeping the borrowed slice alive for the whole region.
unsafe impl<V: Send> Send for SharedProps<V> {}
unsafe impl<V: Send> Sync for SharedProps<V> {}

impl<V> SharedProps<V> {
    fn new(slice: &mut [V]) -> Self {
        SharedProps {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            #[cfg(feature = "shard-check")]
            claims: graphmat_sparse::shard_check::ClaimMap::new(slice.len(), "APPLY property slot"),
        }
    }

    /// # Safety
    /// Callers must guarantee `i < len` and that no other thread accesses
    /// element `i` concurrently.
    #[allow(clippy::mut_from_ref)]
    unsafe fn get_mut(&self, i: usize) -> &mut V {
        debug_assert!(i < self.len);
        // Claim before handing out the aliasable &mut so a duplicated id in
        // the updated work list panics instead of aliasing the property.
        #[cfg(feature = "shard-check")]
        self.claims.claim_exclusive(i);
        &mut *self.ptr.add(i)
    }
}

#[cfg(test)]
mod tests {
    use crate::program::{GraphProgram, VertexId};
    use crate::session::Session;
    use graphmat_io::edgelist::EdgeList;

    /// SSSP, as in the paper's appendix listing.
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

    /// SSSP from vertex 0 over the Figure 3 graph, optionally capped.
    fn figure3_sssp(session: &Session, cap: Option<usize>) -> crate::session::RunOutcome<f32> {
        let topo = session
            .build_graph(&figure3_edges())
            .partitions(2)
            .finish()
            .unwrap();
        let run = session
            .run(&topo, Sssp)
            .init_all(f32::MAX)
            .seed_with(0, 0.0);
        match cap {
            Some(max) => run.max_iterations(max),
            None => run,
        }
        .execute()
        .unwrap()
    }

    #[test]
    fn sssp_converges_to_figure3_distances() {
        let result = figure3_sssp(&Session::sequential(), None);
        assert!(result.converged);
        // Final distances from A (paper Figure 3(d)): A=0, B=1, C=2, D=2, E=4
        assert_eq!(result.values, vec![0.0, 1.0, 2.0, 2.0, 4.0]);
        assert!(result.stats.iterations >= 3);
    }

    #[test]
    fn iteration_limit_is_respected() {
        let result = figure3_sssp(&Session::sequential(), Some(1));
        assert!(!result.converged);
        assert_eq!(result.stats.iterations, 1);
        // only A's direct neighbours have been relaxed
        assert_eq!(result.values[4], f32::MAX);
    }

    #[test]
    fn empty_active_set_converges_immediately() {
        let session = Session::sequential();
        let topo = session.build_graph(&figure3_edges()).finish().unwrap();
        let result = session
            .run(&topo, Sssp)
            .init_all(f32::MAX)
            .execute()
            .unwrap();
        assert!(result.converged);
        assert_eq!(result.stats.iterations, 0);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let sequential = figure3_sssp(&Session::sequential(), None);
        let parallel = figure3_sssp(&Session::with_threads(4).unwrap(), None);
        assert_eq!(sequential.values, parallel.values);
    }

    #[test]
    fn stats_capture_superstep_detail() {
        let result = figure3_sssp(&Session::sequential(), None);
        assert_eq!(result.stats.supersteps.len(), result.stats.iterations);
        assert_eq!(result.stats.nthreads, 1);
        let first = &result.stats.supersteps[0];
        assert_eq!(first.active_vertices, 1);
        assert_eq!(first.messages_sent, 1);
        assert_eq!(first.edges_processed, 3);
        assert_eq!(first.vertices_updated, 3);
        assert!(result.stats.edges_processed >= 3);
    }

    /// PageRank-style program where every vertex is active every iteration;
    /// exercises the parallel APPLY path on a slightly larger graph.
    struct Rank;

    impl GraphProgram for Rank {
        type VertexProp = f64;
        type Message = f64;
        type Reduced = f64;
        type Edge = f32;

        fn send_message(&self, _v: VertexId, rank: &f64) -> Option<f64> {
            Some(*rank)
        }

        fn process_message(&self, msg: &f64, _edge: &f32, _dst: &f64) -> f64 {
            *msg
        }

        fn reduce(&self, acc: &mut f64, value: f64) {
            *acc += value;
        }

        fn apply(&self, reduced: &f64, rank: &mut f64) {
            *rank = 0.15 + 0.85 * *reduced;
        }
    }

    #[test]
    fn parallel_apply_matches_sequential_on_larger_graph() {
        use graphmat_io::rmat::{self, RmatConfig};
        let el = rmat::generate(&RmatConfig::graph500(10).with_seed(11));

        let run = |threads: usize| {
            let session = Session::with_threads(threads).unwrap();
            let topo = session.build_graph(&el).partitions(16).finish().unwrap();
            session
                .run(&topo, Rank)
                .init_all(1.0)
                .activate_all()
                .max_iterations(3)
                .execute()
                .unwrap()
                .values
        };

        let seq = run(1);
        let par = run(4);
        for (a, b) in seq.iter().zip(par.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
