//! Integration tests of engine-level behaviour that the paper calls out:
//! the SpMV dominating runtime, frontier-driven work, the active-set
//! machinery, and the MatrixMarket loading path end to end.

use graphmat::io::{datasets, mtx};
use graphmat::prelude::*;
use graphmat_io::datasets::{DatasetId, DatasetScale};

/// `iterations`-superstep PageRank over `edges` with a fresh session.
fn pagerank_run(edges: &EdgeList, iterations: usize) -> AlgorithmOutput<f64> {
    let session = Session::with_defaults().unwrap();
    let topo = session.build_graph(edges).in_edges(false).finish().unwrap();
    let cfg = PageRankConfig {
        iterations,
        ..Default::default()
    };
    pagerank_on(&session, &topo, &cfg).unwrap()
}

/// SSSP from vertex 0 over `edges` with a fresh session.
fn sssp_run(edges: &EdgeList) -> AlgorithmOutput<f32> {
    let session = Session::with_defaults().unwrap();
    let topo = session.build_graph(edges).in_edges(false).finish().unwrap();
    sssp_on(&session, &topo, 0).unwrap()
}

/// BFS from `root` over the symmetrized `edges` with a fresh session.
fn bfs_run(edges: &EdgeList, root: VertexId) -> AlgorithmOutput<u32> {
    let session = Session::with_defaults().unwrap();
    let topo = session
        .build_graph(&edges.symmetrized())
        .in_edges(false)
        .finish()
        .unwrap();
    bfs_on(&session, &topo, root).unwrap()
}

#[test]
fn spmv_dominates_pagerank_runtime() {
    // §5.4: "most (over 80%) of the time is spent in the Generalized SPMV".
    // At tiny scales the constant overheads weigh more, so require a majority
    // rather than the full 80%.
    let edges = datasets::load(DatasetId::RmatGraph500, DatasetScale::Tiny);
    let out = pagerank_run(&edges, 10);
    assert!(
        out.stats.spmv_fraction() > 0.5,
        "SpMV fraction was only {:.1}%",
        out.stats.spmv_fraction() * 100.0
    );
}

#[test]
fn sssp_on_road_network_takes_many_cheap_iterations() {
    // The Figure 4e discussion: road networks need many supersteps, each
    // doing little work — exactly where per-iteration overhead matters.
    // (A pure grid without highway shortcuts keeps the hop counts high.)
    let edges = graphmat::io::grid::generate(&graphmat::io::grid::GridConfig {
        removal_fraction: 0.05,
        num_shortcuts: 0,
        ..graphmat::io::grid::GridConfig::square(40)
    });
    let out = sssp_run(&edges);
    assert!(out.converged);
    assert!(
        out.stats.iterations > 20,
        "expected a high-diameter run, got {} supersteps",
        out.stats.iterations
    );
    let max_frontier = out
        .stats
        .supersteps
        .iter()
        .map(|s| s.active_vertices)
        .max()
        .unwrap();
    assert!(
        max_frontier < edges.num_vertices() as usize / 2,
        "frontier should stay well below the vertex count"
    );
}

#[test]
fn bfs_on_social_graph_finishes_in_few_supersteps() {
    // Small-world graphs have tiny diameters, the opposite regime.
    let edges = datasets::load(DatasetId::FacebookLike, DatasetScale::Tiny);
    let out = bfs_run(&edges, 0);
    assert!(out.converged);
    assert!(
        out.stats.iterations <= 12,
        "social graph BFS took {} supersteps",
        out.stats.iterations
    );
}

#[test]
fn mtx_roundtrip_feeds_the_engine() {
    // Write a graph to MatrixMarket, read it back, and get identical results
    // — the original GraphMat's ReadMTX ingestion path.
    let edges = datasets::load(DatasetId::FlickrLike, DatasetScale::Tiny);
    let mut buffer = Vec::new();
    mtx::write(&edges, &mut buffer).unwrap();
    let reloaded = mtx::read(buffer.as_slice()).unwrap();
    assert_eq!(reloaded.num_edges(), edges.num_edges());

    let a = sssp_run(&edges);
    let b = sssp_run(&reloaded);
    assert_eq!(a.values, b.values);
}

#[test]
fn run_stats_account_for_all_supersteps() {
    let edges = datasets::load(DatasetId::WikipediaLike, DatasetScale::Tiny);
    let out = bfs_run(&edges, 2);
    assert_eq!(out.stats.supersteps.len(), out.stats.iterations);
    let edge_sum: u64 = out.stats.supersteps.iter().map(|s| s.edges_processed).sum();
    assert_eq!(edge_sum, out.stats.edges_processed);
    let msg_sum: u64 = out
        .stats
        .supersteps
        .iter()
        .map(|s| s.messages_sent as u64)
        .sum();
    assert_eq!(msg_sum, out.stats.messages_sent);
}

#[test]
fn delta_pagerank_touches_fewer_edges_than_fixed_iteration() {
    // The extension's point: convergence-driven activity saves work.
    let edges = datasets::load(DatasetId::LiveJournalLike, DatasetScale::Tiny);
    let fixed = pagerank_run(&edges, 50);
    let session = Session::with_defaults().unwrap();
    let topo = session
        .build_graph(&edges)
        .in_edges(false)
        .finish()
        .unwrap();
    let cfg = DeltaPageRankConfig {
        tolerance: 1e-6,
        max_iterations: 50,
        ..Default::default()
    };
    let delta = delta_pagerank_on(&session, &topo, &cfg).unwrap();
    assert!(delta.stats.edges_processed < fixed.stats.edges_processed);
}

#[test]
fn cost_counters_scale_with_graph_size() {
    let small = datasets::load(DatasetId::FacebookLike, DatasetScale::Tiny);
    let out = pagerank_run(&small, 3);
    let counters = out.stats.to_cost_counters(12);
    assert!(counters.edge_ops >= small.num_edges() as u64);
    assert!(counters.bytes_read > counters.edge_ops);
}
