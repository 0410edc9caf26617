//! Direct proof of the allocation-budget claim: a warmed superstep loop —
//! over a bare topology with each of forced push, forced pull and `Auto` in
//! turn on one pooled state, and over a pending delta overlay — and a
//! warmed server round perform **zero** heap allocation.
//!
//! The engine's design doc (and `tests/pool_reuse.rs`) argue this indirectly
//! through pool counters; here the claim is enforced at the allocator
//! boundary. `graphmat_audit::alloc_track::CountingAllocator` is installed
//! as this binary's global allocator, and the steady-state regions are
//! measured with `AllocGuard` — any alloc / dealloc / realloc anywhere in
//! the process during the measured window fails the test.
//!
//! The counters are process-global, so this binary contains exactly one
//! `#[test]` (see the module docs of `alloc_track`).
//!
//! Skipped under `--features shard-check`: the race detector deliberately
//! allocates shadow claim maps inside the instrumented regions, which is
//! exactly the overhead the default build must not pay — this test is the
//! proof that it doesn't.

#![cfg(not(feature = "shard-check"))]

use graphmat_audit::alloc_track::{AllocGuard, CountingAllocator};
use graphmat_core::program::{GraphProgram, VertexId};
use graphmat_core::{
    ActivityPolicy, GraphStore, RunOptions, Session, SessionOptions, StoreOptions, VectorKind,
    VertexState,
};
use graphmat_delta::DeltaBatch;
use graphmat_io::rmat::{self, RmatConfig};
use graphmat_server::protocol::{Algorithm, RunRequest, Status};
use graphmat_server::service::{self, GraphService, WorkerStates};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Minimal PageRank-shaped program: every vertex broadcasts its rank each
/// superstep (`AlwaysAll`), so 100 iterations exercise SEND, SpMV and APPLY
/// on every superstep.
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
fn warmed_supersteps_and_server_rounds_allocate_nothing() {
    let el = rmat::generate(&RmatConfig::graph500(10).with_seed(7));
    let session = match Session::new(
        SessionOptions::default()
            .with_threads(4)
            // Superstep detail is the one per-iteration heap consumer the
            // options expose; the zero-alloc serving configuration turns
            // it off.
            .with_run_defaults(RunOptions {
                record_supersteps: false,
                ..RunOptions::default()
            }),
    ) {
        Ok(s) => s,
        Err(e) => panic!("session: {e}"),
    };
    let topo = match session.build_graph(&el).finish() {
        Ok(t) => t,
        Err(e) => panic!("build: {e}"),
    };

    // ---- Part 1: 100 pooled supersteps through the engine front-end. ----
    let mut state: VertexState<f64> = VertexState::for_topology(&topo);
    let run = |state: &mut VertexState<f64>, kind: VectorKind| {
        session
            .run(&topo, Rank)
            .init_all(1.0)
            .activate_all()
            .activity(ActivityPolicy::AlwaysAll)
            .max_iterations(100)
            .vector(kind)
            .execute_with(state)
    };
    // Warm-up run allocates the cached workspace inside the state.
    match run(&mut state, VectorKind::Auto) {
        Ok(r) => assert_eq!(r.stats.iterations, 100),
        Err(e) => panic!("warm-up run: {e}"),
    }
    // Forced push, forced pull and the selector all read one message
    // vector, so switching kinds on the pooled state reuses its workspace.
    for kind in [VectorKind::Bitvector, VectorKind::Dense, VectorKind::Auto] {
        let (outcome, stats) = AllocGuard::measure(|| run(&mut state, kind));
        match outcome {
            Ok(r) => assert_eq!(r.stats.iterations, 100),
            Err(e) => panic!("measured {kind:?} run: {e}"),
        }
        assert!(
            !stats.any(),
            "100 warmed {kind:?} supersteps must not touch the heap, got {stats:?}"
        );
    }

    // ---- Part 2: the same supersteps over a pending delta overlay. ----
    // No compaction thread and no automatic compaction, so nothing else in
    // the process allocates inside the measured window.
    let store = GraphStore::new(
        Arc::clone(&topo),
        StoreOptions {
            compaction_threshold: usize::MAX,
            background: false,
            ..StoreOptions::default()
        },
    );
    // Edits on sources with and without base out-edges, so the merged walk
    // runs its same-column and its overlay-only arms.
    let (src, dst, _) = el.edges()[0];
    let fresh = match topo.out_degrees().iter().position(|&d| d == 0) {
        Some(v) => v as u32,
        None => panic!("the RMAT graph has a vertex without out-edges"),
    };
    let mut batch = DeltaBatch::new(topo.num_vertices());
    let edits = [
        batch.delete(src, dst),
        batch.insert(0, 1, 2.0),
        batch.insert(5, 3, 1.0),
        batch.insert(fresh, src, 0.5),
    ];
    for edit in edits {
        if let Err(e) = edit {
            panic!("batch: {e}");
        }
    }
    let snapshot = match store.apply(batch) {
        Ok(s) => s,
        Err(e) => panic!("apply: {e}"),
    };
    assert!(snapshot.view().has_overlay());
    let run_overlay = |state: &mut VertexState<f64>| {
        session
            .run_view(snapshot.view(), Rank)
            .init_all(1.0)
            .activate_all()
            .activity(ActivityPolicy::AlwaysAll)
            .max_iterations(100)
            .execute_with(state)
    };
    match run_overlay(&mut state) {
        Ok(r) => assert_eq!(r.stats.iterations, 100),
        Err(e) => panic!("warm-up overlay run: {e}"),
    }
    let (outcome, stats) = AllocGuard::measure(|| run_overlay(&mut state));
    match outcome {
        Ok(r) => assert_eq!(r.stats.iterations, 100),
        Err(e) => panic!("measured overlay run: {e}"),
    }
    assert!(
        !stats.any(),
        "100 warmed supersteps over a pending overlay must not touch the heap, got {stats:?}"
    );
    drop(snapshot);
    drop(store);

    // ---- Part 3: steady-state server rounds, in-process. ----
    let service = GraphService::new(session, topo);
    let mut states = WorkerStates::for_topology(service.topology());
    let request = RunRequest::new(Algorithm::PageRank)
        .iterations(5)
        .include_values(true);
    let mut buf: Vec<u8> = Vec::new();
    // Two warm-up rounds: the first creates the pooled PageRank state and
    // sizes the response buffer, the second proves acquire/release recycles.
    for round in 0..2 {
        buf.clear();
        let status = service::execute_run(&service, &mut states, &request, None, &mut buf).status;
        assert_eq!(status, Status::Ok, "warm-up round {round}");
    }
    let created_after_warmup = states.created();
    let (_, stats) = AllocGuard::measure(|| {
        for _ in 0..10 {
            buf.clear();
            let status =
                service::execute_run(&service, &mut states, &request, None, &mut buf).status;
            assert_eq!(status, Status::Ok);
        }
    });
    assert!(
        !stats.any(),
        "10 steady-state server rounds must not touch the heap, got {stats:?}"
    );
    assert_eq!(
        states.created(),
        created_after_warmup,
        "steady-state rounds must recycle pooled states, not create new ones"
    );
    assert!(!buf.is_empty(), "rounds actually produced responses");
}
