//! Pool-executor correctness: final vertex properties must be invariant to
//! the thread count for every scatter direction and message-vector
//! representation, on a skewed RMAT graph large enough to trigger the
//! parallel SEND and APPLY paths (> 2048 active vertices).

use graphmat_core::program::{EdgeDirection, GraphProgram, VertexId};
use graphmat_core::{ActivityPolicy, Session, VectorKind};
use graphmat_io::rmat::{self, RmatConfig};

/// A direction-configurable program over integer state. `reduce` is
/// commutative and associative in `u64` (wrapping add), so any schedule must
/// produce bit-identical results.
struct Mixer {
    direction: EdgeDirection,
}

impl GraphProgram for Mixer {
    type VertexProp = u64;
    type Message = u64;
    type Reduced = u64;
    type Edge = f32;

    fn direction(&self) -> EdgeDirection {
        self.direction
    }

    fn send_message(&self, v: VertexId, prop: &u64) -> Option<u64> {
        // A few silent vertices keep the message vector properly sparse.
        if v % 17 == 3 {
            None
        } else {
            Some(prop.wrapping_mul(0x9e3779b97f4a7c15) ^ v as u64)
        }
    }

    fn process_message(&self, msg: &u64, _edge: &f32, dst_prop: &u64) -> u64 {
        msg.wrapping_add(*dst_prop).rotate_left(7)
    }

    fn reduce(&self, acc: &mut u64, value: u64) {
        *acc = acc.wrapping_add(value);
    }

    fn apply(&self, reduced: &u64, prop: &mut u64) {
        *prop = prop.wrapping_add(*reduced) | 1;
    }
}

fn run(direction: EdgeDirection, vector: VectorKind, threads: usize) -> Vec<u64> {
    // Scale 12 → 4096 vertices, comfortably above the 2048-vertex thresholds
    // that gate the parallel SEND and APPLY paths.
    let el = rmat::generate(&RmatConfig::graph500(12).with_seed(42));
    let session = Session::with_threads(threads).unwrap();
    let topo = session.build_graph(&el).finish().unwrap();
    let result = session
        .run(&topo, Mixer { direction })
        .init_with(|v| v as u64 + 1)
        .activate_all()
        .vector(vector)
        .activity(ActivityPolicy::AlwaysAll)
        .max_iterations(4)
        .execute()
        .unwrap();
    assert_eq!(result.stats.iterations, 4);
    assert_eq!(result.stats.nthreads, threads);
    result.values
}

#[test]
fn thread_count_invariance_across_directions_and_vector_kinds() {
    for direction in [EdgeDirection::Out, EdgeDirection::In, EdgeDirection::Both] {
        for vector in [VectorKind::Bitvector, VectorKind::Sorted] {
            let sequential = run(direction, vector, 1);
            for threads in [2, 4, 7] {
                let parallel = run(direction, vector, threads);
                assert_eq!(
                    sequential, parallel,
                    "results diverged for {direction:?}/{vector:?} at {threads} threads"
                );
            }
        }
    }
}
