//! The per-layer ladder of a traced run, measured on the workload's own
//! graph by calling each layer's public functions directly:
//!
//! * `sparse`: the push and pull SpMV kernels on the topology's own
//!   matrices at seeded frontiers of fixed density, and an empty
//!   `for_each_dynamic` region;
//! * `core`/`algorithms`: BFS, SSSP and PageRank runs through the pooled
//!   view drivers, read out of their `RunStats`, on 2 and on 1 executor
//!   lanes;
//! * `baselines`: the native and worklist (`Galois*`) codes on the same
//!   graph and roots;
//! * `core.store`: the update stream replayed into a `GraphStore`, and BFS
//!   on a snapshot with and without a pending overlay.
//!
//! Every BFS, SSSP and PageRank answer of the ladder is checked outside its
//! timer against the library's reference code on the same edge list (the
//! overlay BFS against the edge list with the pending edits applied); an
//! error or a mismatch counts as a failed operation of the run.

use crate::analytics::{self, PAGERANK_ITERATIONS, RANDOM_SURF};
use crate::gen;
use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use graphmat_algorithms::bfs::{bfs_reference, bfs_view_into};
use graphmat_algorithms::pagerank::{pagerank_view_into, PageRankConfig, PageRankVertex};
use graphmat_algorithms::sssp::{sssp_reference, sssp_view_into};
use graphmat_core::{
    Backend, GraphStore, GraphView, RunStats, Session, StatePool, StoreOptions, Topology,
};
use graphmat_delta::DeltaBatch;
use graphmat_io::edgelist::EdgeList;
use graphmat_io::rng::StdRng;
use graphmat_server::protocol::{checksum_f32, checksum_u32};
use graphmat_server::EdgeEdit;
use graphmat_sparse::spmv::{gspmv_csr_pull_into, gspmv_into};
use graphmat_sparse::spvec::{DenseVector, SparseVector};
use graphmat_sparse::Index;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frontier densities of the kernel sweep, in percent of the vertices. The
/// labelled ones are reported per edge; all of them locate the crossover.
const DENSITIES: [(f64, Option<&str>); 10] = [
    (0.1, Some("pct0_1")),
    (0.2, None),
    (0.5, None),
    (1.0, Some("pct1")),
    (2.0, None),
    (5.0, None),
    (10.0, Some("pct10")),
    (20.0, None),
    (50.0, None),
    (100.0, Some("pct100")),
];
/// Timed calls per kernel and density; the median is kept.
const KERNEL_REPS: usize = 7;
/// Queries per algorithm in the ladder.
const BFS_QUERIES: usize = 8;
const SSSP_QUERIES: usize = 4;
const PAGERANK_QUERIES: usize = 3;
/// Baseline calls (each rebuilds its CSR outside its timer).
const BASELINE_QUERIES: usize = 3;
/// UPDATE batches replayed into the store.
pub const REPLAY_BATCHES: usize = 200;
/// Batches applied before the overlay BFS: 64 × 64 edits, the default
/// compaction threshold's worth of pending operations.
const OVERLAY_BATCHES: usize = 64;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median(v: &[f64]) -> f64 {
    stats::median(v).unwrap_or(0.0)
}

/// `count` distinct seeded vertices (all of them when `count >= n`).
fn frontier(rng: &mut StdRng, n: usize, count: usize) -> Vec<Index> {
    let mut ids: Vec<Index> = (0..n as Index).collect();
    let count = count.min(n);
    for i in 0..count {
        let j = i + rng.gen_range(0..n - i);
        ids.swap(i, j);
    }
    ids.truncate(count);
    ids
}

/// Push and pull kernel costs per frontier out-edge, the crossover and the
/// executor's dispatch cost.
pub fn kernels(
    topology: &Topology<f32>,
    session: &Session,
    seed: u64,
    report: &mut Report,
    tracer: &mut Tracer,
) {
    let n = topology.num_vertices() as usize;
    let executor = session.executor();
    let matrix = topology.out_matrix();
    let Some(mirror) = topology.out_pull_mirror() else {
        return;
    };
    let degrees = topology.out_degrees();
    let mut rng = StdRng::seed_from_u64(gen::sub_seed(seed, 11));
    let mut y: SparseVector<f32> = SparseVector::new(n);
    let multiply = |m: &f32, e: &f32, _k: Index| m + e;
    let add = |acc: &mut f32, v: f32| *acc = acc.min(v);
    let mut crossover = 100.0;
    let mut crossed = false;
    tracer.span("bench.kernel_ladder", 0, |tracer| {
        for (pct, label) in DENSITIES {
            let ids = frontier(
                &mut rng,
                n,
                ((n as f64) * pct / 100.0).round().max(1.0) as usize,
            );
            let frontier_edges: u64 = ids.iter().map(|&v| degrees[v as usize] as u64).sum();
            let mut push_x: SparseVector<f32> = SparseVector::new(n);
            let mut pull_x: DenseVector<f32> = DenseVector::new(n);
            for &v in &ids {
                push_x.set(v, 1.0);
                pull_x.set(v, 1.0);
            }
            let (mut push, mut pull) = (Vec::new(), Vec::new());
            for _ in 0..KERNEL_REPS {
                let t = Instant::now();
                tracer.span("sparse.gspmv_into", 0, |_| {
                    gspmv_into(matrix, &push_x, &multiply, &add, executor, &mut y)
                });
                push.push(t.elapsed().as_secs_f64() * 1e9);
                std::hint::black_box(y.nnz());
                let t = Instant::now();
                tracer.span("sparse.gspmv_csr_pull_into", 0, |_| {
                    gspmv_csr_pull_into(mirror, &pull_x, &multiply, &add, executor, &mut y)
                });
                pull.push(t.elapsed().as_secs_f64() * 1e9);
                std::hint::black_box(y.nnz());
            }
            let (push, pull) = (median(&push), median(&pull));
            if !crossed && pull <= push {
                crossover = pct;
                crossed = true;
            }
            if let Some(label) = label {
                let per_edge = frontier_edges.max(1) as f64;
                report.set(
                    format!("sparse.push_ns_per_edge.{label}"),
                    push / per_edge,
                    "ns",
                    KERNEL_REPS,
                );
                report.set(
                    format!("sparse.pull_ns_per_edge.{label}"),
                    pull / per_edge,
                    "ns",
                    KERNEL_REPS,
                );
            }
        }
    });
    report.set("sparse.crossover_pct", crossover, "%", DENSITIES.len());

    let ntasks = topology.num_partitions().max(2);
    let mut per_call = Vec::new();
    for _ in 0..21 {
        let t = Instant::now();
        for _ in 0..100 {
            executor.for_each_dynamic(ntasks, |task| {
                std::hint::black_box(task);
            });
        }
        per_call.push(t.elapsed().as_secs_f64() * 1e6 / 100.0);
    }
    report.set(
        "sparse.dispatch_us",
        median(&per_call),
        "us",
        per_call.len() * 100,
    );
}

/// Ladder queries run and those that returned an error or a wrong answer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Accumulated `RunStats` of one algorithm's queries.
#[derive(Default)]
struct Runs {
    tally: Tally,
    ms: Vec<f64>,
    supersteps: usize,
    pull_supersteps: usize,
    send: Duration,
    spmv: Duration,
    apply: Duration,
    total: Duration,
    pull_frontier_edges: u64,
    pull_swept_edges: u64,
}

impl Runs {
    /// Account one query: its `RunStats` when it returned, and a failure
    /// when it returned an error or `correct` is false.
    fn add(
        &mut self,
        elapsed: Duration,
        stats: Option<&RunStats>,
        correct: bool,
        stored_edges: u64,
    ) {
        self.tally.attempted += 1;
        self.tally.failed += u64::from(stats.is_none() || !correct);
        let Some(stats) = stats else {
            return;
        };
        self.ms.push(ms(elapsed));
        self.supersteps += stats.iterations;
        self.pull_supersteps += stats.pull_supersteps;
        self.send += stats.send_time;
        self.spmv += stats.spmv_time;
        self.apply += stats.apply_time;
        self.total += elapsed;
        for step in stats
            .supersteps
            .iter()
            .filter(|s| s.backend == Backend::Pull)
        {
            self.pull_frontier_edges += step.edges_processed;
            self.pull_swept_edges += stored_edges;
        }
    }

    fn queries(&self) -> usize {
        self.ms.len()
    }

    fn report_phases(&self, name: &str, report: &mut Report) {
        let phases = (self.send + self.spmv + self.apply)
            .as_secs_f64()
            .max(1e-12);
        let n = self.queries();
        report.set(
            format!("core.send_frac.{name}"),
            self.send.as_secs_f64() / phases,
            "ratio",
            n,
        );
        report.set(
            format!("core.spmv_frac.{name}"),
            self.spmv.as_secs_f64() / phases,
            "ratio",
            n,
        );
        report.set(
            format!("core.apply_frac.{name}"),
            self.apply.as_secs_f64() / phases,
            "ratio",
            n,
        );
    }

    fn per_query(&self, count: usize) -> f64 {
        count as f64 / self.queries().max(1) as f64
    }
}

/// BFS from each root; `expected[i]` is the checksum of the reference
/// distances from `roots[i]`.
fn bfs_runs(
    session: &Session,
    view: GraphView<'_, f32>,
    roots: &[u32],
    expected: &[u64],
    tracer: &mut Tracer,
) -> Runs {
    let stored = view.num_edges() as u64;
    let mut pool = StatePool::<u32>::for_topology(view.topology());
    let mut runs = Runs::default();
    for (i, (&root, &checksum)) in roots.iter().zip(expected).enumerate() {
        let mut state = pool.acquire();
        let t = Instant::now();
        let result = tracer.span("algorithms.bfs_view_into", i as u64, |_| {
            bfs_view_into(session, view, root, None, &mut state)
        });
        let elapsed = t.elapsed();
        let correct = checksum_u32(state.properties()) == checksum;
        runs.add(
            elapsed,
            result.as_ref().ok().map(|r| &r.stats),
            correct,
            stored,
        );
        pool.release(state);
    }
    runs
}

/// SSSP from each source; `expected[i]` is the checksum of the reference
/// distances from `sources[i]`.
fn sssp_runs(
    session: &Session,
    topology: &Topology<f32>,
    sources: &[u32],
    expected: &[u64],
    tracer: &mut Tracer,
) -> Runs {
    let stored = topology.num_edges() as u64;
    let mut pool = StatePool::<f32>::for_topology(topology);
    let mut runs = Runs::default();
    for (i, (&source, &checksum)) in sources.iter().zip(expected).enumerate() {
        let mut state = pool.acquire();
        let t = Instant::now();
        let result = tracer.span("algorithms.sssp_view_into", i as u64, |_| {
            sssp_view_into(session, GraphView::base(topology), source, None, &mut state)
        });
        let elapsed = t.elapsed();
        let correct = checksum_f32(state.properties()) == checksum;
        runs.add(
            elapsed,
            result.as_ref().ok().map(|r| &r.stats),
            correct,
            stored,
        );
        pool.release(state);
    }
    runs
}

/// PageRank runs; `expected` holds the reference ranks.
fn pagerank_runs(
    session: &Session,
    topology: &Topology<f32>,
    expected: &[f64],
    tracer: &mut Tracer,
) -> Runs {
    let stored = topology.num_edges() as u64;
    let config = PageRankConfig {
        iterations: PAGERANK_ITERATIONS,
        random_surf: RANDOM_SURF,
        ..Default::default()
    };
    let mut pool = StatePool::<PageRankVertex>::for_topology(topology);
    let mut runs = Runs::default();
    for i in 0..PAGERANK_QUERIES {
        let mut state = pool.acquire();
        let t = Instant::now();
        let result = tracer.span("algorithms.pagerank_view_into", i as u64, |_| {
            pagerank_view_into(
                session,
                GraphView::base(topology),
                &config,
                None,
                &mut state,
            )
        });
        let elapsed = t.elapsed();
        let correct = result
            .as_ref()
            .is_ok_and(|run| run.stats.iterations == PAGERANK_ITERATIONS)
            && analytics::ranks_match(state.properties(), expected);
        runs.add(
            elapsed,
            result.as_ref().ok().map(|r| &r.stats),
            correct,
            stored,
        );
        pool.release(state);
    }
    runs
}

/// Checksums of the reference BFS distances from each root.
fn bfs_checksums(edges: &EdgeList<f32>, roots: &[u32]) -> Vec<u64> {
    roots
        .iter()
        .map(|&root| checksum_u32(&bfs_reference(edges, root, false)))
        .collect()
}

/// `core` counts and splits from the drivers' `RunStats`, the 1- vs
/// 2-lane speed-up, and the baselines on the same graph and roots.
pub fn algorithms(
    topology: &Topology<f32>,
    edges: &EdgeList<f32>,
    session: &Session,
    roots: &[u32],
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<Tally, String> {
    let single = Session::with_threads(1).map_err(|e| e.to_string())?;
    let view = GraphView::base(topology);
    let nnz = topology.num_edges() as f64;
    let bfs_roots = &roots[..BFS_QUERIES.min(roots.len())];
    let sssp_roots = &roots[..SSSP_QUERIES.min(roots.len())];
    let bfs_expected = bfs_checksums(edges, bfs_roots);
    let sssp_expected: Vec<u64> = sssp_roots
        .iter()
        .map(|&s| checksum_f32(&sssp_reference(edges, s)))
        .collect();
    let pagerank_expected = analytics::pagerank_expected(edges, PAGERANK_ITERATIONS);
    let (bfs, sssp, pagerank, sssp_1t, pagerank_1t) =
        tracer.span("bench.algorithm_ladder", 0, |t| {
            (
                bfs_runs(session, view, bfs_roots, &bfs_expected, t),
                sssp_runs(session, topology, sssp_roots, &sssp_expected, t),
                pagerank_runs(session, topology, &pagerank_expected, t),
                sssp_runs(&single, topology, sssp_roots, &sssp_expected, t),
                pagerank_runs(&single, topology, &pagerank_expected, t),
            )
        });
    let mut tally = Tally::default();
    for runs in [&bfs, &sssp, &pagerank, &sssp_1t, &pagerank_1t] {
        tally.add(runs.tally);
    }

    report.set(
        "core.supersteps.bfs",
        bfs.per_query(bfs.supersteps),
        "count",
        bfs.queries(),
    );
    report.set(
        "core.supersteps.sssp",
        sssp.per_query(sssp.supersteps),
        "count",
        sssp.queries(),
    );
    report.set(
        "core.pull_frac.bfs",
        bfs.pull_supersteps as f64 / bfs.supersteps.max(1) as f64,
        "ratio",
        bfs.queries(),
    );
    report.set(
        "core.pull_frac.pagerank",
        pagerank.pull_supersteps as f64 / pagerank.supersteps.max(1) as f64,
        "ratio",
        pagerank.queries(),
    );
    report.set(
        "core.pull_useful_frac.bfs",
        bfs.pull_frontier_edges as f64 / bfs.pull_swept_edges.max(1) as f64,
        "ratio",
        bfs.queries(),
    );
    report.set(
        "core.superstep_us.bfs",
        bfs.total.as_secs_f64() * 1e6 / bfs.supersteps.max(1) as f64,
        "us",
        bfs.supersteps,
    );
    report.set(
        "core.superstep_us.sssp",
        sssp.total.as_secs_f64() * 1e6 / sssp.supersteps.max(1) as f64,
        "us",
        sssp.supersteps,
    );
    bfs.report_phases("bfs", report);
    pagerank.report_phases("pagerank", report);
    sssp.report_phases("sssp", report);
    let pagerank_iter_ms = median(&pagerank.ms) / PAGERANK_ITERATIONS as f64;
    report.set(
        "core.ns_per_edge.pagerank",
        pagerank_iter_ms * 1e6 / nnz,
        "ns",
        pagerank.queries(),
    );
    report.set(
        "core.speedup_2t.pagerank",
        median(&pagerank_1t.ms) / median(&pagerank.ms).max(1e-12),
        "ratio",
        pagerank.queries(),
    );
    report.set(
        "core.speedup_2t.sssp",
        median(&sssp_1t.ms) / median(&sssp.ms).max(1e-12),
        "ratio",
        sssp.queries(),
    );

    // Baselines: same graph, same roots; their timers exclude their own
    // CSR construction.
    let lanes = session.nthreads();
    let base_roots = &roots[..BASELINE_QUERIES.min(roots.len())];
    let (native_pr, galois_pr, native_bfs, native_sssp) =
        tracer.span("bench.baseline_ladder", 0, |t| {
            let native_pr = t.span("baselines.native_pagerank", 0, |_| {
                graphmat_baselines::native::pagerank(edges, RANDOM_SURF, PAGERANK_ITERATIONS, lanes)
            });
            let galois_pr = t.span("baselines.worklist_pagerank", 0, |_| {
                graphmat_baselines::worklist::pagerank(
                    edges,
                    RANDOM_SURF,
                    PAGERANK_ITERATIONS,
                    lanes,
                )
            });
            let native_bfs: Vec<f64> = base_roots
                .iter()
                .map(|&r| {
                    t.span("baselines.native_bfs", 0, |_| {
                        ms(graphmat_baselines::native::bfs(edges, r, lanes).elapsed)
                    })
                })
                .collect();
            let native_sssp: Vec<f64> = base_roots
                .iter()
                .map(|&r| {
                    t.span("baselines.native_sssp", 0, |_| {
                        ms(graphmat_baselines::native::sssp(edges, r, lanes).elapsed)
                    })
                })
                .collect();
            (native_pr, galois_pr, native_bfs, native_sssp)
        });
    let native_pr_ms = ms(native_pr.elapsed) / PAGERANK_ITERATIONS as f64;
    let galois_pr_ms = ms(galois_pr.elapsed) / PAGERANK_ITERATIONS as f64;
    report.set("baselines.native.pagerank_iter_ms", native_pr_ms, "ms", 1);
    report.set("baselines.galois.pagerank_iter_ms", galois_pr_ms, "ms", 1);
    report.set(
        "baselines.native.bfs_ms_p50",
        median(&native_bfs),
        "ms",
        native_bfs.len(),
    );
    report.set(
        "baselines.native.sssp_ms_p50",
        median(&native_sssp),
        "ms",
        native_sssp.len(),
    );
    let graphmat_bfs = median(&bfs.ms[..base_roots.len().min(bfs.ms.len())]);
    let graphmat_sssp = median(&sssp.ms[..base_roots.len().min(sssp.ms.len())]);
    report.set(
        "gap.pagerank_vs_native",
        pagerank_iter_ms / native_pr_ms.max(1e-12),
        "ratio",
        1,
    );
    report.set(
        "gap.bfs_vs_native",
        graphmat_bfs / median(&native_bfs).max(1e-12),
        "ratio",
        native_bfs.len(),
    );
    report.set(
        "gap.sssp_vs_native",
        graphmat_sssp / median(&native_sssp).max(1e-12),
        "ratio",
        native_sssp.len(),
    );
    Ok(tally)
}

fn delta_batch(num_vertices: u32, edits: &[EdgeEdit]) -> Result<DeltaBatch<f32>, String> {
    let mut batch = DeltaBatch::new(num_vertices);
    for e in edits {
        let r = if e.insert {
            batch.insert(e.src, e.dst, e.weight)
        } else {
            batch.delete(e.src, e.dst)
        };
        r.map_err(|err| err.to_string())?;
    }
    Ok(batch)
}

/// Replay the update stream into a store the way the server holds it
/// (background compaction at the default threshold), then measure BFS on a
/// snapshot without and with a threshold's worth of pending overlay, and
/// the compaction of that overlay.
pub fn store(
    topology: &Arc<Topology<f32>>,
    edges: &EdgeList<f32>,
    session: &Session,
    batches: &[Vec<EdgeEdit>],
    roots: &[u32],
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<Tally, String> {
    let n = topology.num_vertices();
    let mut apply_ms = Vec::new();
    let mut delta = Vec::new();
    let compactions = tracer.span("bench.store_replay", 0, |t| -> Result<u64, String> {
        let store = GraphStore::new(Arc::clone(topology), StoreOptions::default());
        for (i, edits) in batches.iter().enumerate() {
            let batch = delta_batch(n, edits)?;
            let start = Instant::now();
            let snapshot = t
                .span("core.store_apply", i as u64, |_| store.apply(batch))
                .map_err(|e| e.to_string())?;
            apply_ms.push(ms(start.elapsed()));
            delta.push(snapshot.delta_len() as f64);
        }
        let compactions = store.compactions();
        // Finish any background compaction so it does not compete with
        // the measurements that follow.
        store.compact_now();
        Ok(compactions)
    })?;
    report.set(
        "core.store.apply_ms_p50",
        median(&apply_ms),
        "ms",
        apply_ms.len(),
    );
    report.set(
        "core.store.apply_ms_p95",
        stats::tail(&apply_ms, 0.95).unwrap_or(0.0),
        "ms",
        apply_ms.len(),
    );
    report.set("core.store.compactions", compactions as f64, "count", 1);
    report.set(
        "core.store.delta_edges_p50",
        median(&delta),
        "count",
        delta.len(),
    );

    let pending = GraphStore::new(
        Arc::clone(topology),
        StoreOptions {
            compaction_threshold: usize::MAX,
            ..StoreOptions::default()
        },
    );
    for edits in batches.iter().take(OVERLAY_BATCHES) {
        pending
            .apply(delta_batch(n, edits)?)
            .map_err(|e| e.to_string())?;
    }
    let roots = &roots[..BFS_QUERIES.min(roots.len())];
    let base_expected = bfs_checksums(edges, roots);
    let edited = gen::apply_edits(edges, &batches[..OVERLAY_BATCHES.min(batches.len())]);
    let overlay_expected = bfs_checksums(&edited, roots);
    drop(edited);
    let snapshot = pending.snapshot();
    let (base, overlay) = tracer.span("bench.overlay_ladder", 0, |t| {
        (
            bfs_runs(session, GraphView::base(topology), roots, &base_expected, t),
            bfs_runs(session, snapshot.view(), roots, &overlay_expected, t),
        )
    });
    let mut tally = base.tally;
    tally.add(overlay.tally);
    report.set(
        "algorithms.bfs_ms_p50.base",
        median(&base.ms),
        "ms",
        base.queries(),
    );
    report.set(
        "algorithms.bfs_ms_p50.overlay",
        median(&overlay.ms),
        "ms",
        overlay.queries(),
    );
    drop(snapshot);
    let start = Instant::now();
    tracer.span("core.store_compact_now", 0, |_| pending.compact_now());
    report.set(
        "core.store.compact_s",
        start.elapsed().as_secs_f64(),
        "s",
        1,
    );
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_and_wrong_answers_count_as_failed() {
        let stats = RunStats {
            iterations: 3,
            ..Default::default()
        };
        let mut runs = Runs::default();
        runs.add(Duration::from_millis(2), Some(&stats), true, 10);
        runs.add(Duration::from_millis(2), Some(&stats), false, 10);
        runs.add(Duration::from_millis(2), None, true, 10);
        assert_eq!(runs.tally.attempted, 3);
        assert_eq!(runs.tally.failed, 2);
        // A run that returned still feeds the timings; an error does not.
        assert_eq!(runs.queries(), 2);
        assert_eq!(runs.supersteps, 6);
    }
}
