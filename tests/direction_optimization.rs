//! End-to-end tests of the direction-optimized engine: the `VectorKind`
//! backends must be **bit-for-bit interchangeable** (push and pull reduce
//! each destination's messages in the same ascending-source order), and the
//! `Auto` selector must actually flip between them where the workload's
//! frontier density says it should.
//!
//! Property-style coverage follows the repo's offline convention: instead of
//! `proptest`, deterministic RMAT and grid graphs are swept across every
//! edge direction, vector kind and thread count, so failures reproduce
//! exactly from the case labels in the assertion messages.

use graphmat::prelude::*;
use graphmat_io::{grid, rmat};
use std::sync::Arc;

/// A weighted program parametrized over its scatter direction, chosen so
/// every callback output depends on the message, the edge value *and* the
/// destination property — any backend disagreement shows up immediately.
struct DirectedRelax {
    direction: EdgeDirection,
}

impl GraphProgram for DirectedRelax {
    type VertexProp = f32;
    type Message = f32;
    type Reduced = f32;
    type Edge = f32;

    fn direction(&self) -> EdgeDirection {
        self.direction
    }

    fn send_message(&self, _v: VertexId, dist: &f32) -> Option<f32> {
        if *dist < f32::MAX {
            Some(*dist)
        } else {
            None
        }
    }

    fn process_message(&self, msg: &f32, edge: &f32, dst: &f32) -> f32 {
        // Non-trivial use of all three inputs (and non-commutative in the
        // destination read): relax, slightly biased by the current value.
        let candidate = msg + edge;
        if *dst < f32::MAX {
            candidate.min(*dst + 0.25)
        } else {
            candidate
        }
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

/// A session whose runs always push — the paper's engine.
fn push_session(threads: usize) -> Session {
    Session::new(
        SessionOptions::default()
            .with_threads(threads)
            .with_run_defaults(RunOptions::default().with_vector(VectorKind::Bitvector)),
    )
    .unwrap()
}

fn test_graphs() -> Vec<(&'static str, EdgeList)> {
    vec![
        (
            "rmat",
            rmat::generate(&RmatConfig::graph500(9).with_seed(42)),
        ),
        ("grid", grid::generate(&GridConfig::square(24).with_seed(7))),
    ]
}

/// The satellite property test: `Auto` is bit-identical to every forced
/// kind across RMAT + grid graphs, all three `EdgeDirection`s, 1 and 4
/// threads. f32 comparisons are exact (`==` via `Vec<f32>` equality): the
/// backends must agree to the last ulp, not approximately.
#[test]
fn auto_is_bit_identical_to_every_forced_backend() {
    for (graph_name, edges) in test_graphs() {
        for threads in [1usize, 4] {
            let session = Session::with_threads(threads).unwrap();
            let topo = session.build_graph(&edges).partitions(8).finish().unwrap();
            for direction in [EdgeDirection::Out, EdgeDirection::In, EdgeDirection::Both] {
                let run = |kind: VectorKind| {
                    session
                        .run(&*topo, DirectedRelax { direction })
                        .init_all(f32::MAX)
                        .seed_with(0, 0.0)
                        .seed_with(1, 0.5)
                        .vector(kind)
                        .max_iterations(64)
                        .execute()
                        .unwrap()
                };
                let auto = run(VectorKind::Auto);
                for forced in [VectorKind::Bitvector, VectorKind::Sorted, VectorKind::Dense] {
                    let out = run(forced);
                    assert_eq!(
                        auto.values, out.values,
                        "{graph_name}, {threads} threads, {direction:?}, Auto vs {forced:?}"
                    );
                }
                // The forced-dense run must actually have pulled every
                // superstep, and forced-push runs never pull.
                assert_eq!(
                    run(VectorKind::Dense).stats.pull_supersteps,
                    run(VectorKind::Dense).stats.iterations,
                    "{graph_name} {direction:?}"
                );
                assert_eq!(run(VectorKind::Bitvector).stats.pull_supersteps, 0);
            }
        }
    }
}

/// The satellite unit test: on an RMAT graph the BFS frontier starts tiny
/// (push), explodes through the middle supersteps (pull) and dies out again
/// (push) — the selector must visibly flip, and the distances must still be
/// exactly the reference BFS.
#[test]
fn selector_flips_direction_across_bfs_supersteps() {
    let edges = rmat::generate(&RmatConfig::graph500(10).with_seed(21));
    let session = Session::with_threads(2).unwrap();
    let topo = session
        .build_graph(&edges.symmetrized())
        .in_edges(false)
        .finish()
        .unwrap();
    let out = bfs_on(&session, &topo, 1).unwrap();
    assert_eq!(
        out.values,
        graphmat_algorithms::bfs::bfs_reference(&edges, 1, true)
    );

    let backends: Vec<Backend> = out.stats.supersteps.iter().map(|s| s.backend).collect();
    assert!(
        backends.first() == Some(&Backend::Push),
        "superstep 0 (single-vertex frontier) must push: {backends:?}"
    );
    assert!(
        backends.contains(&Backend::Pull),
        "the dense middle of the BFS must select pull: {backends:?}"
    );
    assert!(
        backends.last() == Some(&Backend::Push),
        "the dying frontier of the final superstep must push again: {backends:?}"
    );
    assert_eq!(
        out.stats.pull_supersteps,
        backends.iter().filter(|b| **b == Backend::Pull).count()
    );
    // The recorded frontier densities justify the choices: every pull
    // superstep saw a denser frontier than the sparsest push superstep.
    for s in &out.stats.supersteps {
        assert!((0.0..=1.0).contains(&s.frontier_density), "{s:?}");
    }
}

/// PageRank activates every vertex every superstep — the canonical
/// dense-frontier workload. Under `Auto` it must settle on the pull backend
/// while producing exactly the push ranks.
#[test]
fn pagerank_selects_pull_on_every_superstep() {
    let edges = rmat::generate(&RmatConfig::graph500(9).with_seed(5));
    let session = Session::with_threads(2).unwrap();
    let topo = session
        .build_graph(&edges)
        .in_edges(false)
        .finish()
        .unwrap();
    let cfg = PageRankConfig::default();
    let auto = pagerank_on(&session, &topo, &cfg).unwrap();
    assert_eq!(
        auto.stats.pull_supersteps, auto.stats.iterations,
        "every all-vertices-active superstep should pull"
    );
    for s in &auto.stats.supersteps {
        assert_eq!(s.backend, Backend::Pull);
        assert_eq!(s.frontier_density, 1.0);
    }

    // Bit-for-bit against the always-push engine on the same graph.
    let push = pagerank_on(&push_session(2), &topo, &cfg).unwrap();
    assert_eq!(auto.values, push.values);
    assert_eq!(push.stats.pull_supersteps, 0);
}

/// All eight packaged algorithms, run through their session drivers under
/// `Auto` and under forced push on the same topologies, must agree
/// bit-for-bit — the acceptance bar of the direction-optimization PR.
#[test]
fn all_algorithms_agree_between_auto_and_forced_push() {
    let edges = rmat::generate(&RmatConfig::graph500(8).with_seed(33));
    let auto = Session::with_threads(2).unwrap();
    let push = push_session(2);
    macro_rules! agree {
        ($name:literal, |$s:ident| $run:expr) => {{
            let run = |$s: &Session| $run;
            assert_eq!(run(&auto), run(&push), $name);
        }};
    }

    // BFS / CC run on the symmetrized graph.
    let sym_topo = auto
        .build_graph(&edges.symmetrized().topology())
        .finish()
        .unwrap();
    agree!("bfs", |s| bfs_on(s, &sym_topo, 0).unwrap().values);
    agree!("connected components", |s| connected_components_on(
        s, &sym_topo
    )
    .unwrap()
    .values);

    let topo = auto.build_graph(&edges).finish().unwrap();
    agree!("sssp", |s| sssp_on(s, &topo, 0).unwrap().values);
    agree!("pagerank", |s| pagerank_on(
        s,
        &topo,
        &PageRankConfig::default()
    )
    .unwrap()
    .values);
    agree!("delta pagerank", |s| delta_pagerank_on(
        s,
        &topo,
        &DeltaPageRankConfig::default()
    )
    .unwrap()
    .values);
    agree!("in-degrees", |s| in_degrees_on(s, &topo).unwrap().values);
    agree!("out-degrees", |s| out_degrees_on(s, &topo).unwrap().values);

    let tc_edges = rmat::generate(&RmatConfig::triangle_counting(7).with_seed(3));
    let tc_topo = auto
        .build_graph(&tc_edges.to_dag())
        .in_edges(false)
        .finish()
        .unwrap();
    agree!("triangle count", |s| triangle_count_on(s, &tc_topo)
        .unwrap()
        .values);

    let ratings =
        graphmat_io::bipartite::generate(&BipartiteConfig::netflix_like(64, 48, 600).with_seed(9));
    let cf_cfg = CfConfig {
        latent_dims: 8,
        iterations: 3,
        ..Default::default()
    };
    let cf_topo = auto.build_graph(&ratings.edges).finish().unwrap();
    agree!("collaborative filtering", |s| collaborative_filtering_on(
        s, &cf_topo, &cf_cfg
    )
    .unwrap()
    .values);
}

/// Pooled states + workspace recycling across backend switches: rerunning
/// through one state with different forced kinds must keep results identical
/// and never corrupt the cached workspace.
#[test]
fn pooled_state_survives_backend_switches() {
    let edges = rmat::generate(&RmatConfig::graph500(8).with_seed(11));
    let session = Session::with_threads(2).unwrap();
    let topo: Arc<Topology<f32>> = session.build_graph(&edges).finish().unwrap();
    let mut state: VertexState<f32> = VertexState::for_topology(&topo);

    let mut results: Vec<Vec<f32>> = Vec::new();
    for kind in [
        VectorKind::Auto,
        VectorKind::Dense,
        VectorKind::Bitvector,
        VectorKind::Auto,
        VectorKind::Sorted,
    ] {
        session
            .run(
                &*topo,
                DirectedRelax {
                    direction: EdgeDirection::Out,
                },
            )
            .init_all(f32::MAX)
            .seed_with(0, 0.0)
            .vector(kind)
            .max_iterations(64)
            .execute_with(&mut state)
            .unwrap();
        results.push(state.properties().to_vec());
    }
    for w in results.windows(2) {
        assert_eq!(w[0], w[1]);
    }
}
