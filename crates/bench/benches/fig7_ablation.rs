//! Figure 7: cumulative effect of the backend optimizations (bitvector,
//! inlining, parallelism, load balancing) on PageRank — extended with the
//! direction-optimization rows: push-only vs pull-only vs auto, so the
//! ablation covers the dense-pull backend and the per-superstep selector.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphmat_algorithms::pagerank::{pagerank_on, PageRankConfig};
use graphmat_bench::harness::{figure7_configs, figure7_engine};
use graphmat_io::datasets::{load, DatasetId, DatasetScale};
use graphmat_sparse::parallel::available_threads;

fn bench(c: &mut Criterion) {
    let edges = load(DatasetId::FacebookLike, DatasetScale::Tiny);
    let max = available_threads();
    let cfg = PageRankConfig {
        iterations: 3,
        ..Default::default()
    };
    let mut group = c.benchmark_group("fig7_ablation_pagerank");
    group.sample_size(10);
    for (label, threads, dispatch, vector, ppt, balanced) in figure7_configs(max) {
        // The matrix is built once per configuration; the timed body is the
        // engine run alone.
        let (session, build) = figure7_engine(threads, dispatch, vector, ppt, balanced);
        let topology = session
            .build_graph(&edges)
            .build_options(build)
            .finish()
            .unwrap();
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| pagerank_on(&session, &topology, &cfg).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
