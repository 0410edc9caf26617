//! Integration tests for the generic edge type flowing end to end:
//! unweighted (`()`) runs must agree with `f32` runs on the same topology,
//! integer weights must work through SSSP, and the unweighted fast path must
//! actually shed its edge value bytes.

use graphmat::prelude::*;
use graphmat_io::datasets::{load, DatasetId, DatasetScale};
use graphmat_io::uniform::{self, UniformConfig};
use std::sync::Arc;

fn weighted_graph() -> EdgeList {
    load(DatasetId::FacebookLike, DatasetScale::Tiny)
}

/// `edges` as an out-edge-only topology of `session`.
fn build<E: Clone>(session: &Session, edges: &EdgeList<E>) -> Arc<Topology<E>> {
    session.build_graph(edges).in_edges(false).finish().unwrap()
}

/// BFS from vertex 0 over the symmetrized `edges`.
fn bfs_sym<E: Clone + Send + Sync + 'static>(edges: &EdgeList<E>) -> AlgorithmOutput<u32> {
    let session = Session::with_defaults().unwrap();
    bfs_on(&session, &build(&session, &edges.symmetrized()), 0).unwrap()
}

#[test]
fn unweighted_bfs_matches_weighted_topology() {
    let weighted = weighted_graph();
    let unweighted: EdgeList<()> = weighted.topology();
    let a = bfs_sym(&weighted);
    let b = bfs_sym(&unweighted);
    assert_eq!(a.values, b.values);
    assert_eq!(a.stats.iterations, b.stats.iterations);
}

#[test]
fn unweighted_connected_components_match_weighted_topology() {
    let weighted = weighted_graph();
    let unweighted = weighted.topology();
    let session = Session::with_defaults().unwrap();
    let a = connected_components_on(&session, &build(&session, &weighted.symmetrized())).unwrap();
    let b = connected_components_on(&session, &build(&session, &unweighted.symmetrized())).unwrap();
    assert_eq!(a.values, b.values);
}

#[test]
fn unweighted_degrees_match_weighted_topology() {
    let weighted = weighted_graph();
    let unweighted = weighted.topology();
    let session = Session::sequential();
    let w = session.build_graph(&weighted).finish().unwrap();
    let u = session.build_graph(&unweighted).finish().unwrap();
    assert_eq!(
        in_degrees_on(&session, &w).unwrap().values,
        in_degrees_on(&session, &u).unwrap().values,
    );
    assert_eq!(
        out_degrees_on(&session, &w).unwrap().values,
        out_degrees_on(&session, &u).unwrap().values,
    );
}

#[test]
fn unweighted_triangle_count_matches_weighted_topology() {
    let weighted = load(DatasetId::RmatTriangle, DatasetScale::Tiny);
    let unweighted = weighted.topology();
    let session = Session::with_defaults().unwrap();
    let a = triangle_count_on(&session, &build(&session, &weighted.to_dag())).unwrap();
    let b = triangle_count_on(&session, &build(&session, &unweighted.to_dag())).unwrap();
    assert_eq!(a.values, b.values);
    assert!(total_triangles(&a) > 0);
}

#[test]
fn integer_weight_sssp_matches_f32() {
    // u32 edge weights end to end: generate integer weights, run both the
    // f32 and the u32 instantiations, plus the Dijkstra reference.
    let f32_edges = uniform::generate(
        &UniformConfig::new(200, 1500)
            .with_weights(1, 20)
            .with_seed(4),
    );
    let u32_edges: EdgeList<u32> = f32_edges.map_values(|_, _, w| *w as u32);
    let session = Session::with_threads(4).unwrap();
    let from_f32 = sssp_on(&session, &build(&session, &f32_edges), 7).unwrap();
    let from_u32 = sssp_on(&session, &build(&session, &u32_edges), 7).unwrap();
    assert_eq!(from_f32.values, from_u32.values);
    let reference = graphmat_algorithms::sssp::sssp_reference(&u32_edges, 7);
    for (v, (a, b)) in from_u32.values.iter().zip(reference.iter()).enumerate() {
        assert!((a - b).abs() < 1e-4, "vertex {v}: {a} vs {b}");
    }
}

#[test]
fn unweighted_sssp_counts_hops() {
    // () edges read as weight 1, so SSSP on EdgeList<()> is BFS hop counting.
    let session = Session::with_defaults().unwrap();
    let topo = build(&session, &weighted_graph().symmetrized().topology());
    let hops = sssp_on(&session, &topo, 0).unwrap();
    let levels = bfs_on(&session, &topo, 0).unwrap();
    for (v, (d, l)) in hops.values.iter().zip(levels.values.iter()).enumerate() {
        if *l == u32::MAX {
            assert_eq!(*d, f32::MAX, "vertex {v}");
        } else {
            assert_eq!(*d, *l as f32, "vertex {v}");
        }
    }
}

#[test]
fn unweighted_matrices_store_no_value_bytes() {
    let weighted = weighted_graph();
    let unweighted = weighted.topology();
    let session = Session::sequential();
    // One DCSC matrix, no pull mirrors: the value bytes are the difference.
    let tw = session
        .build_graph(&weighted)
        .in_edges(false)
        .pull_enabled(false)
        .finish()
        .unwrap();
    let tu = session
        .build_graph(&unweighted)
        .in_edges(false)
        .pull_enabled(false)
        .finish()
        .unwrap();
    assert_eq!(tw.num_edges(), tu.num_edges());
    assert_eq!(
        tw.matrix_bytes() - tu.matrix_bytes(),
        tw.num_edges() * std::mem::size_of::<f32>(),
        "the unweighted graph must shed exactly 4 bytes per edge"
    );
}

#[test]
fn run_stats_surface_the_memory_saving() {
    let weighted = weighted_graph();
    let unweighted = weighted.topology();
    let a = bfs_sym(&weighted);
    let b = bfs_sym(&unweighted);
    assert!(a.stats.matrix_bytes > b.stats.matrix_bytes);
    assert!(b.stats.matrix_bytes > 0);
}

#[test]
fn struct_valued_edges_flow_through_the_engine() {
    // A custom edge struct: SSSP-style relaxation over a "road segment" that
    // carries both a length and a lane count, demonstrating that new edge
    // types need no backend changes.
    #[derive(Clone, Debug, PartialEq)]
    struct Road {
        length: f32,
        lanes: u8,
    }

    struct RoadSssp;

    impl GraphProgram for RoadSssp {
        type VertexProp = f32;
        type Message = f32;
        type Reduced = f32;
        type Edge = Road;

        fn send_message(&self, _v: VertexId, d: &f32) -> Option<f32> {
            Some(*d)
        }

        fn process_message(&self, msg: &f32, edge: &Road, _dst: &f32) -> f32 {
            // narrow roads cost double
            msg + edge.length * if edge.lanes < 2 { 2.0 } else { 1.0 }
        }

        fn reduce(&self, acc: &mut f32, v: f32) {
            if v < *acc {
                *acc = v;
            }
        }

        fn apply(&self, r: &f32, d: &mut f32) {
            if *r < *d {
                *d = *r;
            }
        }
    }

    let edges: EdgeList<Road> = EdgeList::from_tuples(
        3,
        vec![
            (
                0,
                1,
                Road {
                    length: 1.0,
                    lanes: 1,
                },
            ), // effective 2.0
            (
                0,
                2,
                Road {
                    length: 3.0,
                    lanes: 4,
                },
            ), // effective 3.0
            (
                1,
                2,
                Road {
                    length: 0.5,
                    lanes: 2,
                },
            ), // effective 0.5
        ],
    );
    let session = Session::sequential();
    let topo = session.build_graph(&edges).partitions(2).finish().unwrap();
    let result = session
        .run(&topo, RoadSssp)
        .init_all(f32::MAX)
        .seed_with(0, 0.0)
        .execute()
        .unwrap();
    assert!(result.converged);
    assert_eq!(result.values[1], 2.0);
    assert_eq!(result.values[2], 2.5); // 0->1->2 beats the direct wide road
}
