//! Proof that the superstep loop never spawns threads: the only thread
//! spawns an executor ever performs happen at construction, and a run of
//! many supersteps on a shared executor moves the process-wide spawn counter
//! by exactly zero.
//!
//! This test deliberately lives in its own integration-test binary so no
//! concurrently running test can create executors and perturb the counter.

use graphmat_core::program::{GraphProgram, VertexId};
use graphmat_core::{ActivityPolicy, Session};
use graphmat_io::rmat::{self, RmatConfig};
use graphmat_sparse::parallel::threads_spawned_total;

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
fn superstep_loop_never_spawns_threads() {
    let el = rmat::generate(&RmatConfig::graph500(12).with_seed(9));
    let nthreads = 4;

    let before_pool = threads_spawned_total();
    let session = Session::with_threads(nthreads).unwrap();
    let executor = session.executor();
    assert_eq!(
        executor.threads_spawned(),
        nthreads - 1,
        "a pooled executor spawns exactly nthreads - 1 workers (caller is lane 0)"
    );
    assert_eq!(threads_spawned_total(), before_pool + (nthreads - 1));

    // 60 supersteps with all vertices active, twice, on the same pool: the
    // old executor spawned (and joined) fresh OS threads for every SpMV,
    // SEND and APPLY dispatch — thousands of spawns for this workload.
    let before_run = threads_spawned_total();
    for _ in 0..2 {
        let topo = session.build_graph(&el).finish().unwrap();
        let result = session
            .run(&topo, Rank)
            .init_all(1.0)
            .activate_all()
            .activity(ActivityPolicy::AlwaysAll)
            .max_iterations(60)
            .execute()
            .unwrap();
        assert_eq!(result.stats.iterations, 60);
    }
    assert_eq!(
        threads_spawned_total(),
        before_run,
        "running 120 supersteps must not spawn a single thread"
    );
    assert_eq!(executor.threads_spawned(), nthreads - 1);
}
