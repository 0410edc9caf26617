//! Shared machinery for the figure/table reproductions.

use graphmat_algorithms::bfs::bfs_on;
use graphmat_algorithms::collaborative_filtering::{collaborative_filtering_on, CfConfig};
use graphmat_algorithms::pagerank::{pagerank_on, PageRankConfig};
use graphmat_algorithms::sssp::sssp_on;
use graphmat_algorithms::triangle_count::triangle_count_on;
use graphmat_baselines::{comb, native, vertexpull, worklist, Framework};
use graphmat_core::{
    GraphBuildOptions, RunOptions, RunStats, Session, SessionOptions, SuperstepStats, Topology,
    VectorKind,
};
use graphmat_io::bipartite::RatingsGraph;
use graphmat_io::datasets::{self, DatasetId, DatasetScale};
use graphmat_io::edgelist::EdgeList;
use graphmat_perf::{CostCounters, PerfReport};
use std::time::Duration;

/// The five algorithms of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// PageRank (Figure 4a) — reported per iteration.
    PageRank,
    /// Breadth-first search (Figure 4b) — total time.
    Bfs,
    /// Triangle counting (Figure 4c) — total time.
    TriangleCount,
    /// Collaborative filtering (Figure 4d) — reported per iteration.
    CollaborativeFiltering,
    /// Single-source shortest paths (Figure 4e) — total time.
    Sssp,
}

impl Algorithm {
    /// Short name used in table headers.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::PageRank => "PR",
            Algorithm::Bfs => "BFS",
            Algorithm::TriangleCount => "TC",
            Algorithm::CollaborativeFiltering => "CF",
            Algorithm::Sssp => "SSSP",
        }
    }

    /// `true` if the paper reports time per iteration for this algorithm.
    pub fn per_iteration(&self) -> bool {
        matches!(
            self,
            Algorithm::PageRank | Algorithm::CollaborativeFiltering
        )
    }
}

/// Iteration counts used for the timed runs (kept small so the whole suite
/// finishes quickly; per-iteration numbers are unaffected).
pub const PR_ITERATIONS: usize = 5;
/// Gradient-descent iterations for the collaborative-filtering runs.
pub const CF_ITERATIONS: usize = 3;
/// Latent dimensions for collaborative filtering.
pub const CF_DIMS: usize = 20;

/// Result of one (framework, algorithm, dataset) measurement.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Which engine ran.
    pub framework: Framework,
    /// Which algorithm ran.
    pub algorithm: Algorithm,
    /// Dataset name.
    pub dataset: String,
    /// Reported time in seconds — per iteration for PR/CF, total otherwise.
    pub seconds: f64,
    /// Abstract cost counters for the Figure 6 model.
    pub counters: CostCounters,
    /// Wall-clock time of the whole run (not divided by iterations).
    pub total: Duration,
    /// Per-superstep engine detail (GraphMat runs only; empty for the
    /// baseline frameworks, which have no superstep structure). Carries the
    /// chosen push/pull backend and frontier density per superstep, which
    /// the `--json` output surfaces so direction flips are visible in the
    /// perf trajectory.
    pub supersteps: Vec<SuperstepStats>,
}

impl Measurement {
    /// Derived Figure 6 report for this measurement.
    pub fn perf_report(&self) -> PerfReport {
        PerfReport::from_counters(&self.counters, self.total)
    }
}

/// Which datasets Figure 4 uses for each algorithm (paper Table 1, reduced to
/// the synthetic stand-ins).
pub fn figure4_datasets(algorithm: Algorithm) -> Vec<DatasetId> {
    match algorithm {
        Algorithm::PageRank | Algorithm::Bfs => vec![
            DatasetId::LiveJournalLike,
            DatasetId::FacebookLike,
            DatasetId::WikipediaLike,
            DatasetId::RmatGraph500,
        ],
        Algorithm::TriangleCount => vec![
            DatasetId::LiveJournalLike,
            DatasetId::FacebookLike,
            DatasetId::WikipediaLike,
            DatasetId::RmatTriangle,
        ],
        Algorithm::CollaborativeFiltering => {
            vec![DatasetId::NetflixLike, DatasetId::SyntheticCf]
        }
        Algorithm::Sssp => vec![
            DatasetId::FlickrLike,
            DatasetId::UsaRoadLike,
            DatasetId::RmatSssp,
            DatasetId::RmatGraph500,
        ],
    }
}

/// Run one algorithm under one framework on an already-loaded graph.
pub fn run_graph_algorithm(
    framework: Framework,
    algorithm: Algorithm,
    dataset_name: &str,
    edges: &EdgeList,
    nthreads: usize,
) -> Measurement {
    assert!(
        algorithm != Algorithm::CollaborativeFiltering,
        "use run_cf for collaborative filtering"
    );
    let (seconds, counters, total, supersteps) = match framework {
        Framework::GraphMat => {
            // Paper-faithful configuration for the cross-framework figures:
            // the paper's always-push engine. The direction-optimized engine
            // is measured by the Figure 7 rows and by `run_graphmat_auto`.
            let (session, build) = paper_engine(nthreads);
            measured(algorithm, graphmat_stats(algorithm, edges, &session, build))
        }
        Framework::Native => run_native(algorithm, edges, nthreads),
        Framework::CombBlasLike => run_comb(algorithm, edges, nthreads),
        Framework::GraphLabLike => run_vertexpull(algorithm, edges, nthreads),
        Framework::GaloisLike => run_worklist(algorithm, edges, nthreads),
    };
    Measurement {
        framework,
        algorithm,
        dataset: dataset_name.to_string(),
        seconds,
        counters,
        total,
        supersteps,
    }
}

/// Run collaborative filtering under one framework.
pub fn run_cf(
    framework: Framework,
    dataset_name: &str,
    ratings: &RatingsGraph,
    nthreads: usize,
) -> Measurement {
    let (counters, total, iterations, supersteps) = match framework {
        Framework::GraphMat => {
            let cfg = CfConfig {
                latent_dims: CF_DIMS,
                iterations: CF_ITERATIONS,
                ..Default::default()
            };
            let (session, build) = paper_engine(nthreads);
            let stats = collaborative_filtering_on(
                &session,
                &build_topology(&session, &ratings.edges, build),
                &cfg,
            )
            .expect("collaborative filtering runs on the ratings topology")
            .stats;
            (
                stats.to_cost_counters(CF_DIMS * 8),
                stats.total_time,
                stats.iterations.max(1),
                stats.supersteps,
            )
        }
        Framework::Native => {
            let run = native::collaborative_filtering(
                ratings,
                CF_DIMS,
                0.05,
                0.002,
                CF_ITERATIONS,
                7,
                nthreads,
            );
            (run.counters, run.elapsed, run.iterations.max(1), Vec::new())
        }
        Framework::CombBlasLike => {
            let run = comb::collaborative_filtering(
                ratings,
                CF_DIMS,
                0.05,
                0.002,
                CF_ITERATIONS,
                7,
                nthreads,
            );
            (run.counters, run.elapsed, run.iterations.max(1), Vec::new())
        }
        Framework::GraphLabLike => {
            let run = vertexpull::collaborative_filtering(
                ratings,
                CF_DIMS,
                0.05,
                0.002,
                CF_ITERATIONS,
                7,
                nthreads,
            );
            (run.counters, run.elapsed, run.iterations.max(1), Vec::new())
        }
        Framework::GaloisLike => {
            let run = worklist::collaborative_filtering(
                ratings,
                CF_DIMS,
                0.05,
                0.002,
                CF_ITERATIONS,
                7,
                nthreads,
            );
            (run.counters, run.elapsed, run.iterations.max(1), Vec::new())
        }
    };
    Measurement {
        framework,
        algorithm: Algorithm::CollaborativeFiltering,
        dataset: dataset_name.to_string(),
        seconds: total.as_secs_f64() / iterations as f64,
        counters,
        total,
        supersteps,
    }
}

/// Run the direction-optimized engine configuration — `VectorKind::Auto`
/// over a pull-enabled topology, the defaults — and label the dataset
/// `"<name>+auto"` so JSON consumers can tell it apart from the
/// paper-faithful push run of [`run_graph_algorithm`]. Its superstep
/// trajectory is where push→pull direction flips show up.
pub fn run_graphmat_auto(
    algorithm: Algorithm,
    dataset_name: &str,
    edges: &EdgeList,
    nthreads: usize,
) -> Measurement {
    let session = session(nthreads, RunOptions::default());
    // Out-direction workloads only (PR/BFS/SSSP): no in-edge matrix, and
    // the default pull mirror of G^T the Auto selector switches to.
    let build = GraphBuildOptions::default().with_in_edges(false);
    let (seconds, counters, total, supersteps) =
        measured(algorithm, graphmat_stats(algorithm, edges, &session, build));
    Measurement {
        framework: Framework::GraphMat,
        algorithm,
        dataset: format!("{dataset_name}+auto"),
        seconds,
        counters,
        total,
        supersteps,
    }
}

/// A session of `threads` lanes whose runs default to `run_defaults` — the
/// one route by which the figures' engine knobs (vector kind, dispatch)
/// reach a GraphMat run.
fn session(threads: usize, run_defaults: RunOptions) -> Session {
    Session::new(
        SessionOptions::default()
            .with_threads(threads)
            .with_run_defaults(run_defaults),
    )
    .expect("figure sessions have at least one lane and valid run defaults")
}

/// The paper's engine, stated explicitly: every superstep pushes
/// (`VectorKind::Bitvector`) over a topology built without pull mirrors.
fn paper_engine(threads: usize) -> (Session, GraphBuildOptions) {
    (
        session(
            threads,
            RunOptions::default().with_vector(VectorKind::Bitvector),
        ),
        GraphBuildOptions::default().with_pull_mirrors(false),
    )
}

/// Build the shared topology a GraphMat row runs on.
fn build_topology<E: Clone>(
    session: &Session,
    edges: &EdgeList<E>,
    build: GraphBuildOptions,
) -> std::sync::Arc<Topology<E>> {
    session
        .build_graph(edges)
        .build_options(build)
        .finish()
        .expect("figure datasets have edges")
}

/// Run one graph algorithm through the session drivers. The matrix build is
/// untimed; preprocessing happens here, as the paper prescribes: BFS runs on
/// the symmetrized graph, triangle counting on its upper-triangle DAG.
fn graphmat_stats(
    algorithm: Algorithm,
    edges: &EdgeList,
    session: &Session,
    build: GraphBuildOptions,
) -> RunStats {
    let stats = match algorithm {
        Algorithm::PageRank => {
            let cfg = PageRankConfig {
                iterations: PR_ITERATIONS,
                ..Default::default()
            };
            pagerank_on(session, &build_topology(session, edges, build), &cfg).map(|out| out.stats)
        }
        Algorithm::Bfs => bfs_on(
            session,
            &build_topology(session, &edges.symmetrized(), build),
            0,
        )
        .map(|out| out.stats),
        Algorithm::TriangleCount => {
            triangle_count_on(session, &build_topology(session, &edges.to_dag(), build))
                .map(|out| out.stats)
        }
        Algorithm::Sssp => {
            sssp_on(session, &build_topology(session, edges, build), 0).map(|out| out.stats)
        }
        Algorithm::CollaborativeFiltering => unreachable!("handled by run_cf"),
    };
    stats.expect("GraphMat run over a figure dataset")
}

/// The figures' view of a GraphMat run: reported seconds (per iteration for
/// PR), Figure 6 cost counters, total time and the superstep trajectory.
fn measured(
    algorithm: Algorithm,
    stats: RunStats,
) -> (f64, CostCounters, Duration, Vec<SuperstepStats>) {
    let vertex_prop_bytes = match algorithm {
        Algorithm::PageRank => 12,
        Algorithm::TriangleCount => 24,
        _ => 4,
    };
    (
        per_iteration_seconds(
            stats.total_time,
            stats.iterations,
            algorithm.per_iteration(),
        ),
        stats.to_cost_counters(vertex_prop_bytes),
        stats.total_time,
        stats.supersteps,
    )
}

fn per_iteration_seconds(elapsed: Duration, iterations: usize, per_iter: bool) -> f64 {
    if per_iter {
        elapsed.as_secs_f64() / iterations.max(1) as f64
    } else {
        elapsed.as_secs_f64()
    }
}

fn run_native(
    algorithm: Algorithm,
    edges: &EdgeList,
    nthreads: usize,
) -> (f64, CostCounters, Duration, Vec<SuperstepStats>) {
    match algorithm {
        Algorithm::PageRank => {
            let run = native::pagerank(edges, 0.15, PR_ITERATIONS, nthreads);
            (
                per_iteration_seconds(run.elapsed, run.iterations, true),
                run.counters,
                run.elapsed,
                Vec::new(),
            )
        }
        Algorithm::Bfs => {
            let run = native::bfs(edges, 0, nthreads);
            (
                run.elapsed.as_secs_f64(),
                run.counters,
                run.elapsed,
                Vec::new(),
            )
        }
        Algorithm::TriangleCount => {
            let run = native::triangle_count(edges, nthreads);
            (
                run.elapsed.as_secs_f64(),
                run.counters,
                run.elapsed,
                Vec::new(),
            )
        }
        Algorithm::Sssp => {
            let run = native::sssp(edges, 0, nthreads);
            (
                run.elapsed.as_secs_f64(),
                run.counters,
                run.elapsed,
                Vec::new(),
            )
        }
        Algorithm::CollaborativeFiltering => unreachable!(),
    }
}

fn run_comb(
    algorithm: Algorithm,
    edges: &EdgeList,
    nthreads: usize,
) -> (f64, CostCounters, Duration, Vec<SuperstepStats>) {
    match algorithm {
        Algorithm::PageRank => {
            let run = comb::pagerank(edges, 0.15, PR_ITERATIONS, nthreads);
            (
                per_iteration_seconds(run.elapsed, run.iterations, true),
                run.counters,
                run.elapsed,
                Vec::new(),
            )
        }
        Algorithm::Bfs => {
            let run = comb::bfs(edges, 0, nthreads);
            (
                run.elapsed.as_secs_f64(),
                run.counters,
                run.elapsed,
                Vec::new(),
            )
        }
        Algorithm::TriangleCount => {
            let run = comb::triangle_count(edges, nthreads);
            (
                run.elapsed.as_secs_f64(),
                run.counters,
                run.elapsed,
                Vec::new(),
            )
        }
        Algorithm::Sssp => {
            let run = comb::sssp(edges, 0, nthreads);
            (
                run.elapsed.as_secs_f64(),
                run.counters,
                run.elapsed,
                Vec::new(),
            )
        }
        Algorithm::CollaborativeFiltering => unreachable!(),
    }
}

fn run_vertexpull(
    algorithm: Algorithm,
    edges: &EdgeList,
    nthreads: usize,
) -> (f64, CostCounters, Duration, Vec<SuperstepStats>) {
    match algorithm {
        Algorithm::PageRank => {
            let run = vertexpull::pagerank(edges, 0.15, PR_ITERATIONS, nthreads);
            (
                per_iteration_seconds(run.elapsed, run.iterations, true),
                run.counters,
                run.elapsed,
                Vec::new(),
            )
        }
        Algorithm::Bfs => {
            let run = vertexpull::bfs(edges, 0, nthreads);
            (
                run.elapsed.as_secs_f64(),
                run.counters,
                run.elapsed,
                Vec::new(),
            )
        }
        Algorithm::TriangleCount => {
            let run = vertexpull::triangle_count(edges, nthreads);
            (
                run.elapsed.as_secs_f64(),
                run.counters,
                run.elapsed,
                Vec::new(),
            )
        }
        Algorithm::Sssp => {
            let run = vertexpull::sssp(edges, 0, nthreads);
            (
                run.elapsed.as_secs_f64(),
                run.counters,
                run.elapsed,
                Vec::new(),
            )
        }
        Algorithm::CollaborativeFiltering => unreachable!(),
    }
}

fn run_worklist(
    algorithm: Algorithm,
    edges: &EdgeList,
    nthreads: usize,
) -> (f64, CostCounters, Duration, Vec<SuperstepStats>) {
    match algorithm {
        Algorithm::PageRank => {
            let run = worklist::pagerank(edges, 0.15, PR_ITERATIONS, nthreads);
            (
                per_iteration_seconds(run.elapsed, run.iterations, true),
                run.counters,
                run.elapsed,
                Vec::new(),
            )
        }
        Algorithm::Bfs => {
            let run = worklist::bfs(edges, 0, nthreads);
            (
                run.elapsed.as_secs_f64(),
                run.counters,
                run.elapsed,
                Vec::new(),
            )
        }
        Algorithm::TriangleCount => {
            let run = worklist::triangle_count(edges, nthreads);
            (
                run.elapsed.as_secs_f64(),
                run.counters,
                run.elapsed,
                Vec::new(),
            )
        }
        Algorithm::Sssp => {
            let run = worklist::sssp(edges, 0, nthreads);
            (
                run.elapsed.as_secs_f64(),
                run.counters,
                run.elapsed,
                Vec::new(),
            )
        }
        Algorithm::CollaborativeFiltering => unreachable!(),
    }
}

/// Run Figure 4 for one algorithm: every framework on every dataset.
pub fn figure4(algorithm: Algorithm, scale: DatasetScale, nthreads: usize) -> Vec<Measurement> {
    let mut out = Vec::new();
    for &id in &figure4_datasets(algorithm) {
        if algorithm == Algorithm::CollaborativeFiltering {
            let ratings = datasets::load_ratings(id, scale);
            for &fw in Framework::figure4() {
                out.push(run_cf(fw, id.name(), &ratings, nthreads));
            }
        } else {
            let edges = datasets::load(id, scale);
            for &fw in Framework::figure4() {
                out.push(run_graph_algorithm(
                    fw,
                    algorithm,
                    id.name(),
                    &edges,
                    nthreads,
                ));
            }
        }
    }
    out
}

/// Geometric mean of a slice of positive numbers.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Table 2: geometric-mean speedup of GraphMat over each other framework,
/// computed from a set of Figure 4 measurements.
pub fn table2_speedups(measurements: &[Measurement]) -> Vec<(Framework, f64)> {
    let others = [
        Framework::GraphLabLike,
        Framework::CombBlasLike,
        Framework::GaloisLike,
    ];
    others
        .iter()
        .map(|&fw| {
            let ratios: Vec<f64> = measurements
                .iter()
                .filter(|m| m.framework == Framework::GraphMat)
                .filter_map(|gm| {
                    measurements
                        .iter()
                        .find(|m| {
                            m.framework == fw
                                && m.algorithm == gm.algorithm
                                && m.dataset == gm.dataset
                        })
                        .map(|other| other.seconds / gm.seconds.max(1e-12))
                })
                .collect();
            (fw, geomean(&ratios))
        })
        .collect()
}

/// Table 3: geometric-mean slowdown of GraphMat with respect to native code
/// per algorithm (values > 1 mean GraphMat is slower).
pub fn table3_slowdowns(scale: DatasetScale, nthreads: usize) -> Vec<(Algorithm, f64)> {
    let algorithms = [
        Algorithm::PageRank,
        Algorithm::Bfs,
        Algorithm::TriangleCount,
        Algorithm::CollaborativeFiltering,
        Algorithm::Sssp,
    ];
    let mut rows = Vec::new();
    for &alg in &algorithms {
        let mut ratios = Vec::new();
        for &id in &figure4_datasets(alg) {
            if alg == Algorithm::CollaborativeFiltering {
                let ratings = datasets::load_ratings(id, scale);
                let gm = run_cf(Framework::GraphMat, id.name(), &ratings, nthreads);
                let nat = run_cf(Framework::Native, id.name(), &ratings, nthreads);
                ratios.push(gm.seconds / nat.seconds.max(1e-12));
            } else {
                let edges = datasets::load(id, scale);
                let gm = run_graph_algorithm(Framework::GraphMat, alg, id.name(), &edges, nthreads);
                let nat = run_graph_algorithm(Framework::Native, alg, id.name(), &edges, nthreads);
                ratios.push(gm.seconds / nat.seconds.max(1e-12));
            }
        }
        rows.push((alg, geomean(&ratios)));
    }
    rows
}

/// One row of the Figure 7 ablation.
#[derive(Clone, Debug)]
pub struct AblationStep {
    /// Configuration label ("naive", "+bitvector", ...).
    pub label: &'static str,
    /// Measured time in seconds.
    pub seconds: f64,
    /// Cumulative speedup over the naive configuration.
    pub speedup: f64,
    /// Supersteps that ran on the pull backend (0 for the push-only rows;
    /// equals `iterations` for the forced-pull row).
    pub pull_supersteps: usize,
    /// Total supersteps of the run.
    pub iterations: usize,
}

/// The Figure 7 configurations: the paper's five cumulative optimization
/// steps plus this reproduction's direction-optimization comparison rows
/// (push-only, pull-only, auto). Shared by the harness and the
/// `fig7_ablation` criterion bench so the two cannot drift apart.
///
/// Fields: `(label, threads, dispatch, vector, partitions per thread,
/// balanced)`. Pull mirrors are built exactly for the configurations whose
/// vector kind can pull, so the paper-faithful push rows carry no extra
/// build cost or memory.
pub fn figure7_configs(
    nthreads: usize,
) -> Vec<(
    &'static str,
    usize,
    graphmat_core::DispatchMode,
    graphmat_core::VectorKind,
    usize,
    bool,
)> {
    use graphmat_core::{DispatchMode, VectorKind};
    vec![
        (
            "naive (scalar)",
            1,
            DispatchMode::Dynamic,
            VectorKind::Sorted,
            1,
            false,
        ),
        (
            "+bitvector",
            1,
            DispatchMode::Dynamic,
            VectorKind::Bitvector,
            1,
            false,
        ),
        (
            "+ipo (inlined)",
            1,
            DispatchMode::Static,
            VectorKind::Bitvector,
            1,
            false,
        ),
        (
            "+parallel",
            nthreads,
            DispatchMode::Static,
            VectorKind::Bitvector,
            1,
            false,
        ),
        (
            "+load balance (push only)",
            nthreads,
            DispatchMode::Static,
            VectorKind::Bitvector,
            8,
            true,
        ),
        // Direction-optimization rows: same fully-optimized configuration,
        // varying only the backend. "pull only" is expected to *lose* on
        // sparse-frontier workloads (SSSP) and win on dense ones
        // (PageRank); "auto" should track the better of the two.
        (
            "pull only (dense)",
            nthreads,
            DispatchMode::Static,
            VectorKind::Dense,
            8,
            true,
        ),
        (
            "auto (direction-opt)",
            nthreads,
            DispatchMode::Static,
            VectorKind::Auto,
            8,
            true,
        ),
    ]
}

/// The session and topology layout of one Figure 7 configuration: the
/// dispatch and vector knobs reach the engine as the session's run
/// defaults, the partition layout as the graph build options. Pull mirrors
/// are built exactly for the vector kinds that can pull, so the
/// paper-faithful push rows carry no extra build cost or memory.
pub fn figure7_engine(
    threads: usize,
    dispatch: graphmat_core::DispatchMode,
    vector: VectorKind,
    partitions_per_thread: usize,
    balanced: bool,
) -> (Session, GraphBuildOptions) {
    let run_defaults = RunOptions::default()
        .with_dispatch(dispatch)
        .with_vector(vector);
    let build = GraphBuildOptions::default()
        .with_partitions(partitions_per_thread * threads)
        .with_balancing(balanced)
        .with_in_edges(false)
        .with_pull_mirrors(matches!(vector, VectorKind::Dense | VectorKind::Auto));
    (session(threads, run_defaults), build)
}

/// Figure 7: cumulative effect of the paper's optimizations — plus the
/// push-only / pull-only / auto direction-optimization comparison — on
/// PageRank and SSSP. Returns the per-step results for the given
/// algorithm/dataset; each step also reports how many of its supersteps ran
/// on the pull backend.
pub fn figure7_ablation(
    algorithm: Algorithm,
    edges: &EdgeList,
    nthreads: usize,
) -> Vec<AblationStep> {
    assert!(matches!(algorithm, Algorithm::PageRank | Algorithm::Sssp));
    let mut out = Vec::new();
    let mut naive_seconds = None;
    for (label, threads, dispatch, vector, ppt, balanced) in figure7_configs(nthreads) {
        let (session, build) = figure7_engine(threads, dispatch, vector, ppt, balanced);
        let stats = graphmat_stats(algorithm, edges, &session, build);
        let seconds = per_iteration_seconds(
            stats.total_time,
            stats.iterations,
            algorithm.per_iteration(),
        );
        let naive = *naive_seconds.get_or_insert(seconds);
        out.push(AblationStep {
            label,
            seconds,
            speedup: naive / seconds.max(1e-12),
            pull_supersteps: stats.pull_supersteps,
            iterations: stats.iterations,
        });
    }
    out
}

/// Figure 5: thread-scaling sweep for one framework/algorithm/dataset.
/// Returns `(threads, seconds)` pairs.
pub fn figure5_scaling(
    framework: Framework,
    algorithm: Algorithm,
    edges: &EdgeList,
    thread_counts: &[usize],
) -> Vec<(usize, f64)> {
    thread_counts
        .iter()
        .map(|&t| {
            let m = run_graph_algorithm(framework, algorithm, "scaling", edges, t);
            (t, m.seconds)
        })
        .collect()
}

/// Serialize measurements as a JSON array (hand-rolled — the build is
/// offline, so no serde). Every GraphMat measurement carries its
/// per-superstep trajectory, including the **backend** ("push"/"pull") the
/// direction-optimized engine chose and the **frontier_density** it chose it
/// on, so a plot over `supersteps` shows exactly where a run flipped
/// direction.
pub fn measurements_to_json(measurements: &[Measurement]) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    fn finite(v: f64) -> f64 {
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }
    let mut out = String::from("[\n");
    for (i, m) in measurements.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "  {{\"framework\": \"{}\", \"algorithm\": \"{}\", \"dataset\": \"{}\", \
             \"seconds\": {:.9}, \"total_seconds\": {:.9}, \"supersteps\": [",
            esc(m.framework.name()),
            esc(m.algorithm.name()),
            esc(&m.dataset),
            finite(m.seconds),
            m.total.as_secs_f64(),
        ));
        for (j, s) in m.supersteps.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"iteration\": {}, \"backend\": \"{}\", \"frontier_density\": {:.9}, \
                 \"active_vertices\": {}, \"messages_sent\": {}, \"edges_processed\": {}, \
                 \"vertices_updated\": {}, \"vertices_changed\": {}, \
                 \"send_seconds\": {:.9}, \"spmv_seconds\": {:.9}, \"apply_seconds\": {:.9}}}",
                s.iteration,
                s.backend.name(),
                finite(s.frontier_density),
                s.active_vertices,
                s.messages_sent,
                s.edges_processed,
                s.vertices_updated,
                s.vertices_changed,
                s.send_time.as_secs_f64(),
                s.spmv_time.as_secs_f64(),
                s.apply_time.as_secs_f64(),
            ));
        }
        out.push_str("]}");
    }
    out.push_str("\n]\n");
    out
}

/// Render a simple ASCII table.
pub fn render_table(headers: &[String], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("| ");
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!("{:width$} | ", cell, width = widths[i]));
        }
        line.trim_end().to_string() + "\n"
    };
    out.push_str(&render_row(headers, &widths));
    out.push_str(&format!(
        "|{}|\n",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    ));
    for row in rows {
        out.push_str(&render_row(row, &widths));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn figure4_datasets_cover_all_algorithms() {
        for alg in [
            Algorithm::PageRank,
            Algorithm::Bfs,
            Algorithm::TriangleCount,
            Algorithm::CollaborativeFiltering,
            Algorithm::Sssp,
        ] {
            assert!(!figure4_datasets(alg).is_empty());
        }
    }

    #[test]
    fn run_all_frameworks_on_tiny_bfs() {
        let edges = datasets::load(DatasetId::FacebookLike, DatasetScale::Tiny);
        for &fw in Framework::figure4() {
            let m = run_graph_algorithm(fw, Algorithm::Bfs, "tiny", &edges, 2);
            assert!(m.seconds >= 0.0);
            assert!(m.counters.total_ops() > 0, "{fw:?} reported no work");
        }
    }

    #[test]
    fn run_cf_all_frameworks_tiny() {
        let ratings = datasets::load_ratings(DatasetId::NetflixLike, DatasetScale::Tiny);
        for &fw in Framework::figure4() {
            let m = run_cf(fw, "tiny-cf", &ratings, 2);
            assert!(m.seconds > 0.0);
        }
    }

    #[test]
    fn table2_produces_three_rows() {
        let edges = datasets::load(DatasetId::FacebookLike, DatasetScale::Tiny);
        let mut measurements = Vec::new();
        for &fw in Framework::figure4() {
            measurements.push(run_graph_algorithm(fw, Algorithm::Bfs, "tiny", &edges, 2));
        }
        let speedups = table2_speedups(&measurements);
        assert_eq!(speedups.len(), 3);
        assert!(speedups.iter().all(|(_, s)| *s > 0.0));
    }

    #[test]
    fn ablation_has_direction_rows_and_naive_is_baseline() {
        let edges = datasets::load(DatasetId::FacebookLike, DatasetScale::Tiny);
        let steps = figure7_ablation(Algorithm::PageRank, &edges, 2);
        assert_eq!(steps.len(), 7);
        assert!((steps[0].speedup - 1.0).abs() < 1e-9);
        // The push-only rows never pull; the forced-pull row always pulls;
        // auto on PageRank (every vertex active every superstep) pulls every
        // superstep — the acceptance criterion of the direction PR.
        for push_row in &steps[..5] {
            assert_eq!(push_row.pull_supersteps, 0, "{}", push_row.label);
        }
        let pull_only = &steps[5];
        assert_eq!(pull_only.label, "pull only (dense)");
        assert_eq!(pull_only.pull_supersteps, pull_only.iterations);
        let auto = &steps[6];
        assert_eq!(auto.label, "auto (direction-opt)");
        assert_eq!(
            auto.pull_supersteps, auto.iterations,
            "dense-frontier PageRank supersteps must select the pull backend"
        );
    }

    #[test]
    fn sssp_ablation_auto_tracks_the_sparse_frontier() {
        // SSSP's frontier starts from one source: auto must not pull every
        // superstep (most are sparse), while forced dense always pulls.
        let edges = datasets::load(DatasetId::FlickrLike, DatasetScale::Tiny);
        let steps = figure7_ablation(Algorithm::Sssp, &edges, 2);
        let pull_only = &steps[5];
        assert_eq!(pull_only.pull_supersteps, pull_only.iterations);
        let auto = &steps[6];
        assert!(
            auto.pull_supersteps < auto.iterations,
            "auto pulled {}/{} supersteps on a frontier-driven SSSP",
            auto.pull_supersteps,
            auto.iterations
        );
    }

    #[test]
    fn json_output_carries_backend_and_density_per_superstep() {
        let edges = datasets::load(DatasetId::FacebookLike, DatasetScale::Tiny);
        let m = run_graph_algorithm(Framework::GraphMat, Algorithm::Bfs, "tiny", &edges, 2);
        assert!(!m.supersteps.is_empty());
        let json = measurements_to_json(&[m]);
        assert!(json.contains("\"backend\": \"push\""), "{json}");
        assert!(json.contains("\"frontier_density\": "), "{json}");
        assert!(json.contains("\"dataset\": \"tiny\""), "{json}");
        // Baselines serialize with an empty superstep list.
        let nat = run_graph_algorithm(Framework::Native, Algorithm::Bfs, "tiny", &edges, 2);
        let json = measurements_to_json(&[nat]);
        assert!(json.contains("\"supersteps\": []"), "{json}");
    }

    #[test]
    fn render_table_aligns_columns() {
        let table = render_table(
            &["a".to_string(), "bbb".to_string()],
            &[vec!["1".to_string(), "2".to_string()]],
        );
        assert!(table.contains("| a"));
        assert!(table.lines().count() == 3);
    }
}
