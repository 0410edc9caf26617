//! Integration tests: every engine in the workspace computes the same
//! answers on the same graphs. This is the correctness backbone of the
//! benchmark comparisons — a baseline that produced different results would
//! make the Figure 4 timings meaningless.

use graphmat::baselines::{comb, native, vertexpull, worklist};
use graphmat::prelude::*;
use graphmat_io::bipartite::{self, BipartiteConfig};
use graphmat_io::datasets::{load, DatasetId, DatasetScale};
use graphmat_io::grid::{self, GridConfig};
use std::sync::Arc;

fn social_graph() -> EdgeList {
    load(DatasetId::FacebookLike, DatasetScale::Tiny)
}

fn road_graph() -> EdgeList {
    grid::generate(&GridConfig {
        removal_fraction: 0.05,
        ..GridConfig::square(40)
    })
}

/// `edges` as a topology of `session`, built with the defaults.
fn build<E: Clone>(session: &Session, edges: &EdgeList<E>) -> Arc<Topology<E>> {
    session.build_graph(edges).finish().unwrap()
}

/// GraphMat BFS from `root` over the symmetrized graph, as the paper runs it.
fn graphmat_bfs<E: Clone + Send + Sync + 'static>(edges: &EdgeList<E>, root: VertexId) -> Vec<u32> {
    let session = Session::with_defaults().unwrap();
    bfs_on(&session, &build(&session, &edges.symmetrized()), root)
        .unwrap()
        .values
}

#[test]
fn pagerank_all_engines_agree() {
    let edges = social_graph();
    let iterations = 8;
    let session = Session::with_defaults().unwrap();
    let cfg = PageRankConfig {
        iterations,
        ..Default::default()
    };
    let gm = pagerank_on(&session, &build(&session, &edges), &cfg).unwrap();
    let nat = native::pagerank(&edges, 0.15, iterations, 0);
    let cb = comb::pagerank(&edges, 0.15, iterations, 0);
    let wl = worklist::pagerank(&edges, 0.15, iterations, 0);

    for v in 0..edges.num_vertices() as usize {
        // Engines that APPLY only to message receivers leave source vertices
        // at their initial rank; compare the vertices that actually update.
        if edges.in_degrees()[v] == 0 {
            continue;
        }
        let reference = nat.values[v];
        assert!(
            (gm.values[v] - reference).abs() < 1e-9,
            "graphmat vertex {v}"
        );
        assert!((cb.values[v] - reference).abs() < 1e-9, "comb vertex {v}");
        assert!(
            (wl.values[v] - reference).abs() < 1e-9,
            "worklist vertex {v}"
        );
    }

    let gl = vertexpull::pagerank(&edges, 0.15, iterations, 0);
    for v in 0..edges.num_vertices() as usize {
        if edges.in_degrees()[v] == 0 {
            continue;
        }
        assert!(
            (gl.values[v] - nat.values[v]).abs() < 1e-9,
            "gas vertex {v}"
        );
    }
}

#[test]
fn bfs_all_engines_agree() {
    let edges = social_graph();
    let root = 3;
    let gm = graphmat_bfs(&edges, root);
    let nat = native::bfs(&edges, root, 0);
    let cb = comb::bfs(&edges, root, 0);
    let gl = vertexpull::bfs(&edges, root, 0);
    let wl = worklist::bfs(&edges, root, 0);
    assert_eq!(gm, nat.values);
    assert_eq!(cb.values, nat.values);
    assert_eq!(gl.values, nat.values);
    assert_eq!(wl.values, nat.values);
}

#[test]
fn sssp_all_engines_agree_on_road_network() {
    let edges = road_graph();
    let source = 0;
    let session = Session::with_defaults().unwrap();
    let gm = sssp_on(&session, &build(&session, &edges), source).unwrap();
    let nat = native::sssp(&edges, source, 0);
    let cb = comb::sssp(&edges, source, 0);
    let gl = vertexpull::sssp(&edges, source, 0);
    let wl = worklist::sssp(&edges, source, 0);
    for v in 0..edges.num_vertices() as usize {
        let reference = nat.values[v];
        for (name, value) in [
            ("graphmat", gm.values[v]),
            ("comb", cb.values[v]),
            ("gas", gl.values[v]),
            ("worklist", wl.values[v]),
        ] {
            if reference == f32::MAX {
                assert_eq!(value, f32::MAX, "{name} vertex {v} should be unreachable");
            } else {
                assert!((value - reference).abs() < 1e-3, "{name} vertex {v}");
            }
        }
    }
}

#[test]
fn triangle_counts_agree_across_engines() {
    let edges = load(DatasetId::RmatTriangle, DatasetScale::Tiny);
    let session = Session::with_defaults().unwrap();
    let gm = triangle_count_on(&session, &build(&session, &edges.to_dag())).unwrap();
    let expected = native::triangle_count(&edges, 0).values.iter().sum::<u64>();
    assert_eq!(total_triangles(&gm), expected);
    assert_eq!(
        comb::triangle_count(&edges, 0).values.iter().sum::<u64>(),
        expected
    );
    assert_eq!(
        vertexpull::triangle_count(&edges, 0)
            .values
            .iter()
            .sum::<u64>(),
        expected
    );
    assert_eq!(
        worklist::triangle_count(&edges, 0)
            .values
            .iter()
            .sum::<u64>(),
        expected
    );
    assert!(expected > 0, "the RMAT TC graph should contain triangles");
}

#[test]
fn collaborative_filtering_engines_agree() {
    let ratings = bipartite::generate(&BipartiteConfig {
        num_users: 80,
        num_items: 16,
        num_ratings: 800,
        ..Default::default()
    });
    let cfg = CfConfig {
        latent_dims: 6,
        iterations: 5,
        ..Default::default()
    };
    let session = Session::with_defaults().unwrap();
    let gm = collaborative_filtering_on(&session, &build(&session, &ratings.edges), &cfg).unwrap();
    let nat = native::collaborative_filtering(&ratings, 6, cfg.lambda, cfg.gamma, 5, cfg.seed, 0);
    let cb = comb::collaborative_filtering(&ratings, 6, cfg.lambda, cfg.gamma, 5, cfg.seed, 0);
    let gl =
        vertexpull::collaborative_filtering(&ratings, 6, cfg.lambda, cfg.gamma, 5, cfg.seed, 0);
    for v in 0..ratings.edges.num_vertices() as usize {
        for k in 0..6 {
            let reference = nat.values[v][k];
            assert!(
                (gm.values[v][k] - reference).abs() < 1e-9,
                "graphmat {v},{k}"
            );
            assert!((cb.values[v][k] - reference).abs() < 1e-9, "comb {v},{k}");
            assert!((gl.values[v][k] - reference).abs() < 1e-9, "gas {v},{k}");
        }
    }
}

#[test]
fn unweighted_bfs_agrees_across_every_baseline() {
    // The generic-edge API end to end: a zero-byte EdgeList<()> flows through
    // GraphMat AND all four comparator engines, and everyone agrees with the
    // weighted run on the same topology.
    let weighted = social_graph();
    let edges: EdgeList<()> = weighted.topology();
    let root = 3;
    let reference = graphmat_bfs(&weighted, root);

    let gm = graphmat_bfs(&edges, root);
    let nat = native::bfs(&edges, root, 0);
    let cb = comb::bfs(&edges, root, 0);
    let gl = vertexpull::bfs(&edges, root, 0);
    let wl = worklist::bfs(&edges, root, 0);
    assert_eq!(gm, reference);
    assert_eq!(nat.values, reference);
    assert_eq!(cb.values, reference);
    assert_eq!(gl.values, reference);
    assert_eq!(wl.values, reference);
}

#[test]
fn graphmat_is_deterministic_across_thread_counts() {
    let edges = social_graph();
    let run = |threads: usize| {
        let session = Session::with_threads(threads).unwrap();
        let topology = build(&session, &edges);
        let cfg = PageRankConfig {
            iterations: 5,
            ..Default::default()
        };
        (
            pagerank_on(&session, &topology, &cfg).unwrap().values,
            sssp_on(&session, &topology, 1).unwrap().values,
        )
    };
    let (pr1, ss1) = run(1);
    let (pr4, ss4) = run(4);
    assert_eq!(ss1, ss4);
    for (a, b) in pr1.iter().zip(pr4.iter()) {
        assert!((a - b).abs() < 1e-12);
    }
}
