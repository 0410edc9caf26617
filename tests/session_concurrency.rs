//! Concurrency acceptance test for the `Session`/`Topology`/`VertexState`
//! redesign: N threads run N *different* vertex programs against one
//! `Arc<Topology>` through one shared `Session`, without cloning the matrix,
//! and every result matches the corresponding single-threaded-in-main run
//! **bit for bit**.
//!
//! A container fusing the matrices with one run's state would need `&mut`
//! access per run, so two concurrent runs — even two read-only queries —
//! would need two copies of the adjacency matrices.

use graphmat::prelude::*;
use std::sync::Arc;

fn test_edges() -> (EdgeList<()>, EdgeList<()>) {
    let raw =
        graphmat::io::rmat::generate(&graphmat::io::rmat::RmatConfig::graph500(10).with_seed(42))
            .topology();
    (raw.symmetrized(), raw.to_dag())
}

#[test]
fn six_programs_run_concurrently_over_one_shared_topology() {
    let (sym_edges, dag_edges) = test_edges();
    let session = Session::with_threads(4).expect("session");
    // Two shared topologies: the symmetrized graph for the traversal /
    // ranking programs, the upper-triangle DAG for triangle counting.
    let topo: Arc<Topology<()>> = session.build_graph(&sym_edges).finish().expect("topology");
    let dag: Arc<Topology<()>> = session
        .build_graph(&dag_edges)
        .in_edges(false)
        .finish()
        .expect("dag topology");

    let pr_cfg = PageRankConfig {
        iterations: 10,
        ..Default::default()
    };
    let dpr_cfg = DeltaPageRankConfig::default();

    // Baseline: every program once, sequentially from the main thread,
    // through the SAME session and topologies the concurrent phase uses.
    let seq_bfs = bfs_on(&session, &topo, 1).unwrap().values;
    let seq_pr = pagerank_on(&session, &topo, &pr_cfg).unwrap().values;
    let seq_cc = connected_components_on(&session, &topo).unwrap().values;
    let seq_sssp = sssp_on(&session, &topo, 3).unwrap().values;
    let seq_dpr = delta_pagerank_on(&session, &topo, &dpr_cfg).unwrap().values;
    let seq_tri = triangle_count_on(&session, &dag).unwrap().values;

    // Concurrent phase: six threads, six different programs, one session,
    // shared topologies. The pool was built at Session::new — concurrency
    // must not spawn a single new OS thread anywhere in the process (a
    // regression to per-run executors would), and Arc sharing means the
    // matrices are never cloned. The process-global spawn counter is safe
    // to assert on here because the only other test in this binary uses
    // Session::sequential(), which spawns nothing.
    assert_eq!(
        session.executor().threads_spawned(),
        3,
        "4 lanes = caller + 3 pool threads"
    );
    let spawned_before = graphmat::sparse::parallel::threads_spawned_total();
    let runs = 3; // several rounds per thread to maximise interleaving
    let (bfs_r, pr_r, cc_r, sssp_r, dpr_r, tri_r) = std::thread::scope(|s| {
        let session = &session;
        let bfs_h = s.spawn(|| {
            (0..runs)
                .map(|_| bfs_on(session, &topo, 1).unwrap().values)
                .collect::<Vec<_>>()
        });
        let pr_h = s.spawn(|| {
            (0..runs)
                .map(|_| pagerank_on(session, &topo, &pr_cfg).unwrap().values)
                .collect::<Vec<_>>()
        });
        let cc_h = s.spawn(|| {
            (0..runs)
                .map(|_| connected_components_on(session, &topo).unwrap().values)
                .collect::<Vec<_>>()
        });
        let sssp_h = s.spawn(|| {
            (0..runs)
                .map(|_| sssp_on(session, &topo, 3).unwrap().values)
                .collect::<Vec<_>>()
        });
        let dpr_h = s.spawn(|| {
            (0..runs)
                .map(|_| delta_pagerank_on(session, &topo, &dpr_cfg).unwrap().values)
                .collect::<Vec<_>>()
        });
        let tri_h = s.spawn(|| {
            (0..runs)
                .map(|_| triangle_count_on(session, &dag).unwrap().values)
                .collect::<Vec<_>>()
        });
        (
            bfs_h.join().unwrap(),
            pr_h.join().unwrap(),
            cc_h.join().unwrap(),
            sssp_h.join().unwrap(),
            dpr_h.join().unwrap(),
            tri_h.join().unwrap(),
        )
    });
    assert_eq!(
        graphmat::sparse::parallel::threads_spawned_total(),
        spawned_before,
        "concurrent runs must reuse the session's pool — no executor \
         anywhere may spawn a thread during the concurrent phase"
    );

    // Bit-for-bit agreement with the sequential baselines, every round.
    for round in 0..runs {
        assert_eq!(bfs_r[round], seq_bfs, "BFS round {round}");
        assert_eq!(pr_r[round], seq_pr, "PageRank round {round}");
        assert_eq!(cc_r[round], seq_cc, "CC round {round}");
        assert_eq!(sssp_r[round], seq_sssp, "SSSP round {round}");
        assert_eq!(dpr_r[round], seq_dpr, "delta-PageRank round {round}");
        assert_eq!(tri_r[round], seq_tri, "triangles round {round}");
    }

    // Cross-check two of the baselines against independent references.
    assert_eq!(
        seq_bfs,
        graphmat::algorithms::bfs::bfs_reference(&sym_edges, 1, false)
    );
    assert_eq!(
        seq_cc,
        graphmat::algorithms::connected_components::connected_components_reference(&sym_edges)
    );
}

#[test]
fn concurrent_hand_written_programs_share_a_topology() {
    // Same property at the `session.run(...)` builder level, with a
    // hand-written program: 8 threads, 8 different seeds, one topology.
    struct Hops;
    impl GraphProgram for Hops {
        type VertexProp = u32;
        type Message = u32;
        type Reduced = u32;
        type Edge = ();
        fn send_message(&self, _v: VertexId, d: &u32) -> Option<u32> {
            Some(*d)
        }
        fn process_message(&self, m: &u32, _e: &(), _d: &u32) -> u32 {
            m.saturating_add(1)
        }
        fn reduce(&self, acc: &mut u32, v: u32) {
            *acc = (*acc).min(v);
        }
        fn apply(&self, r: &u32, d: &mut u32) {
            *d = (*d).min(*r);
        }
    }

    // Sequential session: spawns no pool threads, which keeps the other
    // test's process-global spawn-counter assertion race-free — and the
    // user threads below are still genuinely concurrent over one topology.
    let (sym_edges, _) = test_edges();
    let session = Session::sequential();
    let topo = session
        .build_graph(&sym_edges)
        .in_edges(false)
        .finish()
        .unwrap();

    let run_from = |root: VertexId| {
        session
            .run(&*topo, Hops)
            .init_all(u32::MAX)
            .seed_with(root, 0)
            .execute()
            .unwrap()
            .values
    };
    let expected: Vec<Vec<u32>> = (0..8).map(run_from).collect();
    let concurrent: Vec<Vec<u32>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8u32)
            .map(|root| s.spawn(move || run_from(root)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(expected, concurrent);
}
