//! Microbenchmarks of the sparse backend itself: generalized SpMV throughput
//! for the bitvector vs sorted sparse-vector representations, for different
//! partition counts, and — the generic-edge payoff — for weighted (`f32`)
//! versus unweighted (`()`) matrices of the same topology, and for the
//! sparse-push versus dense-pull kernels at different frontier densities
//! (the direction-optimization tradeoff). These support the §4.5
//! optimization discussion rather than a specific figure.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphmat_io::rmat::{self, RmatConfig};
use graphmat_sparse::parallel::{available_threads, Executor};
use graphmat_sparse::partition::PartitionedDcsc;
use graphmat_sparse::pull::CsrMirror;
use graphmat_sparse::spmv::{gspmv, gspmv_csr_pull_into, gspmv_into};
use graphmat_sparse::spvec::{SortedSparseVector, SparseVector};
use graphmat_sparse::Index;

fn bench(c: &mut Criterion) {
    let el = rmat::generate(&RmatConfig::graph500(12).with_seed(5));
    let coo = el.to_transpose_coo();
    let n = el.num_vertices() as usize;
    let threads = available_threads();

    let mut group = c.benchmark_group("spmv_kernels");
    group.sample_size(10);

    // dense frontier, bitvector vs sorted representation
    let matrix = PartitionedDcsc::from_coo_balanced(&coo, threads * 8);
    let executor = Executor::new(threads);
    let mut bitvec_frontier: SparseVector<f32> = SparseVector::new(n);
    let mut sorted_frontier: SortedSparseVector<f32> = SortedSparseVector::new(n);
    for v in (0..n as u32).step_by(2) {
        bitvec_frontier.set(v, 1.0);
        sorted_frontier.set(v, 1.0);
    }
    group.bench_function("bitvector_frontier", |b| {
        b.iter(|| {
            gspmv(
                &matrix,
                &bitvec_frontier,
                &|m: &f32, e: &f32, _k: Index| m + e,
                &|acc: &mut f32, v: f32| *acc = acc.min(v),
                &executor,
            )
        })
    });
    // Steady-state engine configuration: output vector reused across calls
    // (what the superstep workspace does) — the allocation-free hot path.
    let mut reused_output: SparseVector<f32> = SparseVector::new(n);
    group.bench_function("bitvector_frontier_reused_output", |b| {
        b.iter(|| {
            gspmv_into(
                &matrix,
                &bitvec_frontier,
                &|m: &f32, e: &f32, _k: Index| m + e,
                &|acc: &mut f32, v: f32| *acc = acc.min(v),
                &executor,
                &mut reused_output,
            );
            reused_output.nnz()
        })
    });
    group.bench_function("sorted_frontier", |b| {
        b.iter(|| {
            gspmv(
                &matrix,
                &sorted_frontier,
                &|m: &f32, e: &f32, _k: Index| m + e,
                &|acc: &mut f32, v: f32| *acc = acc.min(v),
                &executor,
            )
        })
    });

    // Weighted vs unweighted SpMV over the SAME topology: the `()`-edge
    // matrix stores no value array (zero bytes/edge vs 4 bytes/edge), so a
    // bandwidth-bound traversal — BFS-style level expansion here — has
    // strictly less memory traffic to move.
    let unweighted_matrix =
        PartitionedDcsc::from_coo_balanced(&el.topology().to_transpose_coo(), threads * 8);
    println!(
        "matrix bytes: weighted (f32 edges) = {}, unweighted (() edges) = {} ({} bytes/edge saved)",
        matrix.bytes(),
        unweighted_matrix.bytes(),
        (matrix.bytes() - unweighted_matrix.bytes()) / matrix.nnz().max(1)
    );
    let mut level_frontier: SparseVector<u32> = SparseVector::new(n);
    for v in (0..n as u32).step_by(2) {
        level_frontier.set(v, 1);
    }
    group.bench_function("weighted_edges_f32", |b| {
        b.iter(|| {
            gspmv(
                &matrix,
                &level_frontier,
                &|level: &u32, _e: &f32, _k: Index| level + 1,
                &|acc: &mut u32, v: u32| *acc = (*acc).min(v),
                &executor,
            )
        })
    });
    group.bench_function("unweighted_edges_unit", |b| {
        b.iter(|| {
            gspmv(
                &unweighted_matrix,
                &level_frontier,
                &|level: &u32, _e: &(), _k: Index| level + 1,
                &|acc: &mut u32, v: u32| *acc = (*acc).min(v),
                &executor,
            )
        })
    });

    // Push vs pull at different frontier densities: the pull kernel reads
    // every stored edge, so it should win only on dense frontiers — exactly
    // the regime the Auto selector sends it. Both kernels read one frontier.
    let mirror = CsrMirror::from_partitioned(&matrix);
    for (label, stride) in [("dense_1_of_2", 2usize), ("sparse_1_of_64", 64)] {
        let mut x: SparseVector<f32> = SparseVector::new(n);
        for v in (0..n as u32).step_by(stride) {
            x.set(v, 1.0);
        }
        let mut y: SparseVector<f32> = SparseVector::new(n);
        group.bench_with_input(BenchmarkId::new("push", label), &x, |b, x| {
            b.iter(|| {
                gspmv_into(
                    &matrix,
                    x,
                    &|m: &f32, e: &f32, _k: Index| m + e,
                    &|acc: &mut f32, v: f32| *acc = acc.min(v),
                    &executor,
                    &mut y,
                );
                y.nnz()
            })
        });
        group.bench_with_input(BenchmarkId::new("pull", label), &x, |b, x| {
            b.iter(|| {
                gspmv_csr_pull_into(
                    &mirror,
                    x,
                    &|m: &f32, e: &f32, _k: Index| m + e,
                    &|acc: &mut f32, v: f32| *acc = acc.min(v),
                    &executor,
                    &mut y,
                );
                y.nnz()
            })
        });
    }

    // partition-count sweep (load balancing)
    for parts in [1usize, threads, threads * 8] {
        let pd = PartitionedDcsc::from_coo_balanced(&coo, parts);
        group.bench_with_input(BenchmarkId::new("partitions", parts), &pd, |b, pd| {
            b.iter(|| {
                gspmv(
                    pd,
                    &bitvec_frontier,
                    &|m: &f32, e: &f32, _k: Index| m + e,
                    &|acc: &mut f32, v: f32| *acc = acc.min(v),
                    &executor,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
