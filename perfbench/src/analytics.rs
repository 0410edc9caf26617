//! The closed-loop analytics workloads: one caller issuing queries back to
//! back through one `Session`, pooled states and the `*_view_into`
//! drivers, exactly as a server worker runs them.
//!
//! * `analytics-social`: BFS from seeded roots, with a 10-iteration
//!   PageRank after every fifth BFS.
//! * `analytics-road`: SSSP from seeded sources.
//!
//! Every answer is checked outside the timed call: BFS and SSSP against a
//! checksum of `bfs_reference` / `sssp_reference` for the same root,
//! PageRank against the reference ranks within [`PAGERANK_TOLERANCE`].

use crate::gen;
use crate::procfs::{self, CpuUse, CpuWindow};
use crate::trace::Tracer;
use graphmat_algorithms::bfs::{bfs_reference, bfs_view_into, UNREACHED};
use graphmat_algorithms::pagerank::{
    pagerank_reference, pagerank_view_into, PageRankConfig, PageRankVertex,
};
use graphmat_algorithms::sssp::{sssp_reference, sssp_view_into, UNREACHABLE};
use graphmat_core::{GraphView, RunStats, Session, StatePool, Topology};
use graphmat_io::edgelist::EdgeList;
use graphmat_server::protocol::{checksum_f32, checksum_u32};
use std::time::{Duration, Instant};

/// PageRank iterations per query.
pub const PAGERANK_ITERATIONS: usize = 10;
/// PageRank random-surf probability.
pub const RANDOM_SURF: f64 = 0.15;
/// Largest accepted difference between a GraphMat rank and the reference
/// rank, relative to the reference (both sum in f64, in different orders).
pub const PAGERANK_TOLERANCE: f64 = 1e-9;
/// Distinct roots (BFS) or sources (SSSP) a run cycles through.
pub const ROOTS: usize = 128;
/// BFS queries per PageRank query on the social workload.
const BFS_PER_PAGERANK: usize = 5;

/// The reference ranks of `pagerank_reference`, computed with the
/// in-degree vector hoisted out of its vertex loop. `pagerank_reference`
/// recomputes the in-degrees for every vertex that received no message,
/// which costs O(n·m) on graphs with isolated vertices; [`check_pagerank_reference`]
/// shows the two agree.
pub fn pagerank_expected(edges: &EdgeList<f32>, iterations: usize) -> Vec<f64> {
    let n = edges.num_vertices() as usize;
    let out_degrees = edges.out_degrees();
    let in_degrees = edges.in_degrees();
    let mut ranks = vec![1.0f64; n];
    for _ in 0..iterations {
        let mut incoming = vec![0.0f64; n];
        for &(u, v, _) in edges.edges() {
            if out_degrees[u as usize] > 0 {
                incoming[v as usize] += ranks[u as usize] / out_degrees[u as usize] as f64;
            }
        }
        for v in 0..n {
            if incoming[v] > 0.0 || in_degrees[v] > 0 {
                ranks[v] = RANDOM_SURF + (1.0 - RANDOM_SURF) * incoming[v];
            }
        }
    }
    ranks
}

/// Check [`pagerank_expected`] against `pagerank_reference` itself on a
/// small seeded RMAT graph with isolated vertices.
pub fn check_pagerank_reference(seed: u64) -> bool {
    let small = graphmat_io::rmat::generate(
        &graphmat_io::rmat::RmatConfig::graph500(9)
            .with_edge_factor(4)
            .with_seed(gen::sub_seed(seed, 9)),
    );
    let expected = pagerank_expected(&small, PAGERANK_ITERATIONS);
    let reference = pagerank_reference(&small, RANDOM_SURF, PAGERANK_ITERATIONS);
    expected
        .iter()
        .zip(&reference)
        .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Every rank within [`PAGERANK_TOLERANCE`] of the expected one.
pub fn ranks_match(ranks: &[PageRankVertex], expected: &[f64]) -> bool {
    ranks.len() == expected.len()
        && ranks
            .iter()
            .zip(expected)
            .all(|(r, e)| (r.rank - e).abs() <= PAGERANK_TOLERANCE * e.abs().max(1.0))
}

/// What one closed-loop phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency of each read query: BFS (social) or SSSP (road), in ms.
    pub read_ms: Vec<f64>,
    /// Per-iteration time: PageRank ms / iterations (social) or SSSP ms /
    /// supersteps (road).
    pub iter_ms: Vec<f64>,
    /// Traversed input edges over all queries (see [`gen::reached_edges`]).
    pub edges: u64,
    /// Summed query time, in seconds.
    pub query_s: f64,
    /// Wall time of the loop, in seconds.
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub cpu: CpuUse,
}

impl Phase {
    /// One phase holding every sample of `parts`; CPU use and steal are
    /// averaged by wall time.
    pub fn merge<'p>(parts: impl IntoIterator<Item = &'p Phase>) -> Phase {
        let mut out = Phase::default();
        let (mut cpu_s, mut stolen) = (0.0, 0.0);
        for p in parts {
            out.read_ms.extend_from_slice(&p.read_ms);
            out.iter_ms.extend_from_slice(&p.iter_ms);
            out.edges += p.edges;
            out.query_s += p.query_s;
            out.wall_s += p.wall_s;
            out.attempted += p.attempted;
            out.failed += p.failed;
            out.cpu.minor_faults += p.cpu.minor_faults;
            cpu_s += p.cpu.util * p.wall_s;
            stolen += p.cpu.steal_frac * p.wall_s;
        }
        out.cpu.util = cpu_s / out.wall_s.max(1e-12);
        out.cpu.steal_frac = stolen / out.wall_s.max(1e-12);
        out
    }

    pub fn edges_per_s(&self) -> f64 {
        self.edges as f64 / self.query_s.max(1e-12)
    }

    pub fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall_s.max(1e-12)
    }
}

/// Record a finished driver call as an `algorithms` span with the run's
/// SEND/SpMV/APPLY split as program-reported children.
fn trace_run(
    tracer: &mut Tracer,
    name: &'static str,
    request: u64,
    start: Instant,
    stats: &RunStats,
) {
    let span = tracer.record(name, request, start, Instant::now(), None);
    tracer.derived(
        span,
        request,
        &[
            ("core.send", stats.send_time),
            ("sparse.spmv", stats.spmv_time),
            ("core.apply", stats.apply_time),
        ],
    );
}

/// One analytics workload's queries.
pub enum Queries<'a> {
    Social(Social<'a>),
    Road(Road<'a>),
}

/// A phase measured in blocks: every block, and the cleaner half by host
/// steal that the metrics are computed over.
pub struct Measured {
    pub all: Phase,
    pub kept: Phase,
}

impl Queries<'_> {
    /// The BFS roots or SSSP sources the queries cycle through.
    pub fn roots(&self) -> &[u32] {
        match self {
            Queries::Social(q) => &q.roots,
            Queries::Road(q) => &q.sources,
        }
    }

    /// Run queries back to back for `seconds`, in `blocks` equal blocks,
    /// calling `before_block` (outside the block's time) before each.
    /// Answers are checked in every block; the metrics come from the half
    /// of the blocks in which the hypervisor stole the least CPU time.
    pub fn measure(
        &mut self,
        seconds: f64,
        blocks: usize,
        tracer: &mut Tracer,
        before_block: &mut dyn FnMut() -> Result<(), String>,
    ) -> Result<Measured, String> {
        let length = seconds / blocks.max(1) as f64;
        let parts = (0..blocks.max(1))
            .map(|_| {
                before_block()?;
                Ok(match self {
                    Queries::Social(q) => q.run(length, tracer),
                    Queries::Road(q) => q.run(length, tracer),
                })
            })
            .collect::<Result<Vec<Phase>, String>>()?;
        let steal: Vec<f64> = parts.iter().map(|p| p.cpu.steal_frac).collect();
        Ok(Measured {
            all: Phase::merge(&parts),
            kept: Phase::merge(procfs::cleaner_half(&steal).into_iter().map(|i| &parts[i])),
        })
    }
}

/// The social workload's queries and their expected answers.
pub struct Social<'a> {
    session: &'a Session,
    topology: &'a Topology<f32>,
    roots: Vec<u32>,
    bfs_checksums: Vec<u64>,
    bfs_edges: Vec<u64>,
    pagerank: Vec<f64>,
    bfs_pool: StatePool<u32>,
    pagerank_pool: StatePool<PageRankVertex>,
    next_op: u64,
}

impl<'a> Social<'a> {
    pub fn new(
        session: &'a Session,
        topology: &'a Topology<f32>,
        edges: &EdgeList<f32>,
        seed: u64,
    ) -> Social<'a> {
        let roots = gen::roots(seed, topology.out_degrees(), ROOTS);
        let (bfs_checksums, bfs_edges) = roots
            .iter()
            .map(|&root| {
                let dist = bfs_reference(edges, root, false);
                let reached = gen::reached_edges(topology.out_degrees(), |v| dist[v] != UNREACHED);
                (checksum_u32(&dist), reached)
            })
            .unzip();
        Social {
            session,
            topology,
            roots,
            bfs_checksums,
            bfs_edges,
            pagerank: pagerank_expected(edges, PAGERANK_ITERATIONS),
            bfs_pool: StatePool::for_topology(topology),
            pagerank_pool: StatePool::for_topology(topology),
            next_op: 0,
        }
    }

    /// Run queries back to back for `seconds`, continuing the query
    /// sequence where the previous call stopped.
    fn run(&mut self, seconds: f64, tracer: &mut Tracer) -> Phase {
        let view = GraphView::base(self.topology);
        let config = PageRankConfig {
            iterations: PAGERANK_ITERATIONS,
            random_surf: RANDOM_SURF,
            ..Default::default()
        };
        let nnz = self.topology.num_edges() as u64;
        let mut phase = Phase::default();
        let window = CpuWindow::start();
        let begin = Instant::now();
        let stop = begin + Duration::from_secs_f64(seconds);
        let cycle = BFS_PER_PAGERANK as u64 + 1;
        while Instant::now() < stop {
            let request = self.next_op;
            self.next_op += 1;
            phase.attempted += 1;
            if request % cycle == cycle - 1 {
                let mut state = self.pagerank_pool.acquire();
                let ok = tracer.span("bench.pagerank", request, |t| {
                    let start = Instant::now();
                    let result = pagerank_view_into(self.session, view, &config, None, &mut state);
                    let ms = start.elapsed().as_secs_f64() * 1e3;
                    match result {
                        Ok(run) => {
                            trace_run(
                                t,
                                "algorithms.pagerank_view_into",
                                request,
                                start,
                                &run.stats,
                            );
                            phase.query_s += ms / 1e3;
                            phase.iter_ms.push(ms / run.stats.iterations.max(1) as f64);
                            phase.edges += nnz * run.stats.iterations as u64;
                            run.stats.iterations == PAGERANK_ITERATIONS
                                && ranks_match(state.properties(), &self.pagerank)
                        }
                        Err(_) => false,
                    }
                });
                self.pagerank_pool.release(state);
                phase.failed += u64::from(!ok);
                continue;
            }
            // The BFS ordinal of this operation: one in `cycle` is PageRank.
            let k = (request - request / cycle) as usize % self.roots.len();
            let mut state = self.bfs_pool.acquire();
            let ok = tracer.span("bench.bfs", request, |t| {
                let start = Instant::now();
                let result = bfs_view_into(self.session, view, self.roots[k], None, &mut state);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                match result {
                    Ok(run) => {
                        trace_run(t, "algorithms.bfs_view_into", request, start, &run.stats);
                        phase.query_s += ms / 1e3;
                        phase.read_ms.push(ms);
                        phase.edges += self.bfs_edges[k];
                        checksum_u32(state.properties()) == self.bfs_checksums[k]
                    }
                    Err(_) => false,
                }
            });
            self.bfs_pool.release(state);
            phase.failed += u64::from(!ok);
        }
        phase.wall_s = begin.elapsed().as_secs_f64();
        phase.cpu = window.finish();
        phase
    }
}

/// The road workload's queries and their expected answers.
pub struct Road<'a> {
    session: &'a Session,
    topology: &'a Topology<f32>,
    sources: Vec<u32>,
    checksums: Vec<u64>,
    reached: Vec<u64>,
    pool: StatePool<f32>,
    next_op: u64,
}

impl<'a> Road<'a> {
    pub fn new(
        session: &'a Session,
        topology: &'a Topology<f32>,
        edges: &EdgeList<f32>,
        seed: u64,
    ) -> Road<'a> {
        let sources = gen::roots(seed, topology.out_degrees(), ROOTS);
        let (checksums, reached) = sources
            .iter()
            .map(|&s| {
                let dist = sssp_reference(edges, s);
                let reached =
                    gen::reached_edges(topology.out_degrees(), |v| dist[v] != UNREACHABLE);
                (checksum_f32(&dist), reached)
            })
            .unzip();
        Road {
            session,
            topology,
            sources,
            checksums,
            reached,
            pool: StatePool::for_topology(topology),
            next_op: 0,
        }
    }

    /// Run SSSP queries back to back for `seconds`, continuing the
    /// source sequence where the previous call stopped.
    fn run(&mut self, seconds: f64, tracer: &mut Tracer) -> Phase {
        let view = GraphView::base(self.topology);
        let mut phase = Phase::default();
        let window = CpuWindow::start();
        let begin = Instant::now();
        let stop = begin + Duration::from_secs_f64(seconds);
        while Instant::now() < stop {
            let request = self.next_op;
            self.next_op += 1;
            let k = request as usize % self.sources.len();
            phase.attempted += 1;
            let mut state = self.pool.acquire();
            let ok = tracer.span("bench.sssp", request, |t| {
                let start = Instant::now();
                let result = sssp_view_into(self.session, view, self.sources[k], None, &mut state);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                match result {
                    Ok(run) => {
                        trace_run(t, "algorithms.sssp_view_into", request, start, &run.stats);
                        phase.query_s += ms / 1e3;
                        phase.read_ms.push(ms);
                        phase.iter_ms.push(ms / run.stats.iterations.max(1) as f64);
                        phase.edges += self.reached[k];
                        checksum_f32(state.properties()) == self.checksums[k]
                    }
                    Err(_) => false,
                }
            });
            self.pool.release(state);
            phase.failed += u64::from(!ok);
        }
        phase.wall_s = begin.elapsed().as_secs_f64();
        phase.cpu = window.finish();
        phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hoisted_pagerank_reference_matches_the_library_one() {
        assert!(check_pagerank_reference(1));
        assert!(check_pagerank_reference(2));
    }

    #[test]
    fn merged_blocks_pool_samples_and_weight_cpu_by_wall_time() {
        let block = |ms: f64, wall_s: f64, steal_frac: f64| Phase {
            read_ms: vec![ms],
            edges: 10,
            query_s: ms / 1e3,
            wall_s,
            attempted: 2,
            failed: 1,
            cpu: CpuUse {
                util: 2.0,
                minor_faults: 3,
                steal_frac,
            },
            ..Default::default()
        };
        let merged = Phase::merge(&[block(1.0, 1.0, 0.0), block(3.0, 3.0, 0.4)]);
        assert_eq!(merged.read_ms, vec![1.0, 3.0]);
        assert_eq!((merged.edges, merged.attempted, merged.failed), (20, 4, 2));
        assert_eq!(merged.cpu.util, 2.0);
        assert_eq!(merged.cpu.minor_faults, 6);
        assert!((merged.cpu.steal_frac - 0.3).abs() < 1e-12);
        assert_eq!(merged.ops_per_s(), 0.5);
    }

    #[test]
    fn edges_per_s_divides_traversed_edges_by_query_time() {
        let phase = Phase {
            edges: 3_000,
            query_s: 0.5,
            ..Default::default()
        };
        assert_eq!(phase.edges_per_s(), 6_000.0);
    }
}
