//! Generalized sparse matrix – sparse vector multiplication.
//!
//! This is Algorithm 1 of the paper: walk the non-empty columns `j` of (a
//! partition of) `Gᵀ`; if `j` is present in the sparse input vector `x`,
//! combine `x[j]` with every stored entry `(k, j)` using the generalized
//! multiply, and fold the results into `y[k]` with the generalized add. The
//! multiply also receives the destination row index `k`, which is how
//! `graphmat-core` gives `PROCESS_MESSAGE` access to the destination
//! vertex's property — GraphMat's key frontend extension over CombBLAS
//! (§4.2).
//!
//! There are two kernels:
//!
//! * The **push** kernel, [`gspmv_overlay_into`] — partition-parallel over a
//!   [`PartitionedDcsc`], optionally merged with a pending [`Overlay`] of
//!   edge edits, using an [`Executor`] for dynamic scheduling. Each
//!   partition owns a disjoint row range, so all partitions write directly
//!   into **one** shared output vector through a disjoint-row-range writer —
//!   no per-partition partial vectors, no stitch pass, zero allocation (see
//!   its "Allocation contract" section). [`gspmv_into`] runs it without an
//!   overlay and [`gspmv`] additionally allocates the output.
//! * The **dense pull** kernel, [`gspmv_csr_pull_into`] — row-parallel over
//!   a [`CsrMirror`], used by the direction-optimized engine when the
//!   frontier is dense (reads the same [`SparseVector`] the push kernel
//!   reads, by index; writes each output row exactly once, with no sharded
//!   scatter).

use crate::dcsc::Dcsc;
use crate::overlay::{Overlay, OverlayOp, OverlayPartition};
use crate::parallel::Executor;
use crate::partition::PartitionedDcsc;
use crate::pull::CsrMirror;
use crate::spvec::{MessageVector, SparseVector};
use crate::Index;
use std::cmp::Ordering;

/// Partition-parallel generalized SpMV over `base ⊕ overlay` (Algorithm 1 +
/// optimizations 3 and 4 of §4.5), writing into a caller-provided output
/// vector. With `overlay == None` this is the plain kernel over `base`.
///
/// `y` is cleared and then filled in place. All partitions write directly
/// into `y` through a disjoint-row-range writer ([`SparseVector::sharded`]):
/// each partition owns a contiguous, non-overlapping row range (a
/// [`PartitionedDcsc`] construction invariant, which an overlay must share),
/// so no two tasks ever touch the same output entry and no stitching pass
/// is needed.
///
/// Per destination row, products are folded in ascending source (column)
/// order with deleted entries skipped and upserted entries multiplied in
/// their sorted position — bit-for-bit what the kernel produces on a matrix
/// rebuilt from the edited edge list. A partition without pending edits
/// runs the plain column walk.
///
/// # Allocation contract
///
/// Steady-state cost is **O(active entries) work and zero allocation** —
/// this function never allocates, regardless of thread or partition count.
/// The first version of this kernel allocated one O(n) `SparseVector` per
/// partition (O(n · partitions) zero-initialised memory per superstep with
/// the paper's `8 × threads` partitioning) and then stitched the partials
/// sequentially; that cost is gone. Callers running many supersteps should
/// reuse one `y` across calls (the engine's workspace does exactly that).
///
/// # Panics
/// Panics if `y` has the wrong length, or if `overlay` is not aligned with
/// `base` (shape and row partitioning must match exactly).
pub fn gspmv_overlay_into<X, E, Y, V, M, A>(
    base: &PartitionedDcsc<E>,
    overlay: Option<&Overlay<E>>,
    x: &V,
    multiply: &M,
    add: &A,
    executor: &Executor,
    y: &mut SparseVector<Y>,
) where
    V: MessageVector<X> + Sync,
    X: Sync,
    E: Sync,
    Y: Clone + Default + Send,
    M: Fn(&X, &E, Index) -> Y + Sync,
    A: Fn(&mut Y, Y) + Sync,
{
    assert_eq!(
        y.len(),
        base.nrows() as usize,
        "output vector length must match the matrix row count"
    );
    if let Some(overlay) = overlay {
        overlay.check_aligned(base);
    }
    y.clear();
    if x.nnz() == 0 {
        return;
    }
    let edits = |p: usize| overlay.map(|overlay| &overlay.partitions[p]);
    let nparts = base.n_partitions();
    if executor.nthreads() == 1 || nparts == 1 {
        for p in 0..nparts {
            walk_columns(
                &base.partition(p).matrix,
                edits(p),
                x,
                multiply,
                |k, product| y.merge(k, product, |acc, v| add(acc, v)),
            );
        }
        return;
    }

    let shards = y.sharded();
    executor.for_each_dynamic(nparts, |p| {
        let mut newly_set = 0usize;
        walk_columns(
            &base.partition(p).matrix,
            edits(p),
            x,
            multiply,
            |k, product| {
                // SAFETY: partitions own disjoint row ranges (an overlay's
                // partitioning equals the base's, checked above), so row `k`
                // is merged by this task only — the same argument that makes
                // the runner's parallel APPLY sound.
                unsafe { shards.merge(k, product, &mut newly_set, |acc, v| add(acc, v)) };
            },
        );
        shards.commit(newly_set);
    });
    drop(shards); // folds the per-task counts into y's nnz
}

/// The Algorithm-1 column walk over one partition of `base ⊕ edits`: a
/// two-pointer sweep over the base's non-empty columns and the edited ones,
/// handing `(row, product)` pairs to `sink` — which reduces into either a
/// plain [`SparseVector`] or a shard of one — in exactly the order a
/// rebuilt matrix would produce them.
#[inline(always)]
fn walk_columns<X, E, Y, V, M>(
    base: &Dcsc<E>,
    edits: Option<&OverlayPartition<E>>,
    x: &V,
    multiply: &M,
    mut sink: impl FnMut(Index, Y),
) where
    V: MessageVector<X>,
    M: Fn(&X, &E, Index) -> Y,
{
    let edits = match edits {
        Some(edits) if !edits.cols.is_empty() => edits,
        _ => {
            // No pending edits: the plain column walk — the steady-state
            // path pays only the check above, once per partition.
            for col in base.iter_cols() {
                emit_column(col, x, multiply, &mut sink);
            }
            return;
        }
    };

    let mut bi = 0usize;
    let mut oi = 0usize;
    loop {
        let order = match (base.col_indices().get(bi), edits.cols.get(oi)) {
            (None, None) => return,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some(bj), Some(oj)) => bj.cmp(oj),
        };
        match order {
            Ordering::Less => {
                // Base-only column: emit its entries unchanged.
                emit_column(base.nonempty_col(bi), x, multiply, &mut sink);
                bi += 1;
            }
            Ordering::Greater => {
                // Overlay-only column: upserts are fresh entries, deletes
                // target nothing.
                if let Some(xj) = x.get(edits.cols[oi]) {
                    let (start, end) = (edits.col_ptr[oi], edits.col_ptr[oi + 1]);
                    for idx in start..end {
                        if let OverlayOp::Upsert(w) = &edits.ops[idx] {
                            let k = edits.rows[idx];
                            sink(k, multiply(xj, w, k));
                        }
                    }
                }
                oi += 1;
            }
            Ordering::Equal => {
                // Same column in both: merge rows with a second two-pointer
                // sweep; an op masks every stored copy of its coordinate.
                let (j, rows, edges) = base.nonempty_col(bi);
                if let Some(xj) = x.get(j) {
                    let (start, end) = (edits.col_ptr[oi], edits.col_ptr[oi + 1]);
                    let orows = &edits.rows[start..end];
                    let oops = &edits.ops[start..end];
                    let mut i = 0usize;
                    let mut o = 0usize;
                    while i < rows.len() || o < orows.len() {
                        if o == orows.len() || (i < rows.len() && rows[i] < orows[o]) {
                            sink(rows[i], multiply(xj, &edges[i], rows[i]));
                            i += 1;
                        } else if i == rows.len() || orows[o] < rows[i] {
                            if let OverlayOp::Upsert(w) = &oops[o] {
                                sink(orows[o], multiply(xj, w, orows[o]));
                            }
                            o += 1;
                        } else {
                            let k = rows[i];
                            while i < rows.len() && rows[i] == k {
                                i += 1; // mask all stored copies
                            }
                            if let OverlayOp::Upsert(w) = &oops[o] {
                                sink(k, multiply(xj, w, k));
                            }
                            o += 1;
                        }
                    }
                }
                bi += 1;
                oi += 1;
            }
        }
    }
}

/// Emit every stored entry of one base column `j`, if `j` is in `x`.
#[inline(always)]
fn emit_column<X, E, Y, V, M>(
    (j, rows, edges): (Index, &[Index], &[E]),
    x: &V,
    multiply: &M,
    sink: &mut impl FnMut(Index, Y),
) where
    V: MessageVector<X>,
    M: Fn(&X, &E, Index) -> Y,
{
    if let Some(xj) = x.get(j) {
        for (k, e) in rows.iter().zip(edges) {
            sink(*k, multiply(xj, e, *k));
        }
    }
}

/// Partition-parallel generalized SpMV over `matrix` alone — the push kernel
/// [`gspmv_overlay_into`] with no overlay.
pub fn gspmv_into<X, E, Y, V, M, A>(
    matrix: &PartitionedDcsc<E>,
    x: &V,
    multiply: &M,
    add: &A,
    executor: &Executor,
    y: &mut SparseVector<Y>,
) where
    V: MessageVector<X> + Sync,
    X: Sync,
    E: Sync,
    Y: Clone + Default + Send,
    M: Fn(&X, &E, Index) -> Y + Sync,
    A: Fn(&mut Y, Y) + Sync,
{
    gspmv_overlay_into(matrix, None, x, multiply, add, executor, y);
}

/// Row-parallel generalized SpMV over a row-major [`CsrMirror`] — the
/// **dense pull** backend of the direction-optimized engine.
///
/// Where [`gspmv_into`] *pushes* (walk the non-empty columns present in the
/// sparse input, scatter into output rows), this kernel *pulls*: each task
/// owns one partition of destination rows and, for every row `k`, gathers
/// the row's source entries, probes the input vector's validity bitmap
/// per source, multiplies the hits and folds them into a register-resident
/// accumulator — then writes `y[k]` exactly once. No sharded scatter, no
/// atomics anywhere on the write path, perfect write locality; the cost is
/// touching every stored edge of the matrix, which is why the engine only
/// selects this kernel when the frontier is dense enough (Beamer's
/// direction-switching rule).
///
/// Per-destination reduction order is **ascending source id** — the same
/// order the push kernel produces (it walks DCSC columns in ascending
/// order) — so push and pull are bit-for-bit identical even for
/// non-associative floating-point `add`s.
///
/// `y` is cleared and then filled in place; like [`gspmv_into`] this
/// function never allocates.
pub fn gspmv_csr_pull_into<X, E, Y, M, A>(
    mirror: &CsrMirror<E>,
    x: &SparseVector<X>,
    multiply: &M,
    add: &A,
    executor: &Executor,
    y: &mut SparseVector<Y>,
) where
    X: Sync,
    E: Sync,
    Y: Clone + Default + Send,
    M: Fn(&X, &E, Index) -> Y + Sync,
    A: Fn(&mut Y, Y) + Sync,
{
    assert_eq!(
        y.len(),
        mirror.nrows() as usize,
        "output vector length must match the matrix row count"
    );
    assert_eq!(
        x.len(),
        mirror.ncols() as usize,
        "input vector length must match the matrix column count"
    );
    y.clear();
    if x.nnz() == 0 {
        return;
    }
    let nparts = mirror.n_partitions();
    if executor.nthreads() == 1 || nparts == 1 {
        for part in mirror.partitions() {
            for (k, cols, edges) in part.iter_rows() {
                if let Some(acc) = pull_row(x, cols, edges, k, multiply, add) {
                    y.set(k, acc);
                }
            }
        }
        return;
    }

    // Partitions own disjoint row ranges and every row is written at most
    // once, so the sharded handle's insert path is all that runs — the
    // atomics it uses are only for validity words straddling a range
    // boundary.
    let shards = y.sharded();
    executor.for_each_dynamic(nparts, |p| {
        let part = mirror.partition(p);
        let mut newly_set = 0usize;
        for (k, cols, edges) in part.iter_rows() {
            if let Some(acc) = pull_row(x, cols, edges, k, multiply, add) {
                // SAFETY: partitions own disjoint row ranges, so row `k` is
                // written by this task only.
                unsafe { shards.merge(k, acc, &mut newly_set, |slot, v| *slot = v) };
            }
        }
        shards.commit(newly_set);
    });
    drop(shards);
}

/// Gather one destination row: probe the input per source (ascending),
/// multiply hits and fold them into a local accumulator.
#[inline(always)]
fn pull_row<X, E, Y, M, A>(
    x: &SparseVector<X>,
    cols: &[Index],
    edges: &[E],
    k: Index,
    multiply: &M,
    add: &A,
) -> Option<Y>
where
    M: Fn(&X, &E, Index) -> Y,
    A: Fn(&mut Y, Y),
{
    let mut acc: Option<Y> = None;
    for (j, e) in cols.iter().zip(edges) {
        if let Some(xj) = x.get(*j) {
            let product = multiply(xj, e, k);
            match &mut acc {
                Some(a) => add(a, product),
                None => acc = Some(product),
            }
        }
    }
    acc
}

/// Partition-parallel generalized SpMV returning a freshly allocated output
/// vector. Convenience wrapper over [`gspmv_into`] — hot loops should call
/// [`gspmv_into`] with a reused vector instead.
pub fn gspmv<X, E, Y, V, M, A>(
    matrix: &PartitionedDcsc<E>,
    x: &V,
    multiply: &M,
    add: &A,
    executor: &Executor,
) -> SparseVector<Y>
where
    V: MessageVector<X> + Sync,
    X: Sync,
    E: Sync,
    Y: Clone + Default + Send,
    M: Fn(&X, &E, Index) -> Y + Sync,
    A: Fn(&mut Y, Y) + Sync,
{
    let mut y: SparseVector<Y> = SparseVector::new(matrix.nrows() as usize);
    gspmv_into(matrix, x, multiply, add, executor, &mut y);
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::semiring::{MinPlus, PlusTimes, Semiring};

    /// The 5-vertex weighted graph of the paper's Figure 3 (SSSP example).
    /// Vertices A..E = 0..4; edges (src, dst, weight).
    fn figure3_graph_transpose() -> Coo<f32> {
        // Gᵀ as drawn in Figure 3(b): row = destination, column = source.
        let edges: [(u32, u32, f32); 7] = [
            (0, 1, 1.0), // A->B w1   => Gᵀ[1][0]
            (0, 2, 3.0), // A->C w3
            (0, 3, 2.0), // A->D w2
            (1, 2, 1.0), // B->C w1
            (2, 3, 2.0), // C->D w2
            (3, 4, 2.0), // D->E w2
            (4, 0, 4.0), // E->A w4
        ];
        let mut gt = Coo::new(5, 5);
        for (src, dst, w) in edges {
            gt.push(dst, src, w); // transpose: row = dst, col = src
        }
        gt
    }

    #[test]
    fn figure3_iteration0_matches_paper() {
        // x = {A: 0}; process = msg + edge; reduce = min
        let gt = PartitionedDcsc::from_coo_even(&figure3_graph_transpose(), 2);
        let mut x: SparseVector<f32> = SparseVector::new(5);
        x.set(0, 0.0);
        let y = gspmv(
            &gt,
            &x,
            &|m: &f32, e: &f32, _| m + e,
            &|acc: &mut f32, v| *acc = acc.min(v),
            &Executor::sequential(),
        );
        // Paper iteration 0 result: B=1, C=3, D=2 (A and E unset)
        assert_eq!(y.to_entries(), vec![(1, 1.0), (2, 3.0), (3, 2.0)]);
    }

    #[test]
    fn figure3_iteration1_matches_paper() {
        let gt = PartitionedDcsc::from_coo_even(&figure3_graph_transpose(), 2);
        // frontier after iteration 0: B=1, C=3, D=2
        let mut x: SparseVector<f32> = SparseVector::new(5);
        x.set(1, 1.0);
        x.set(2, 3.0);
        x.set(3, 2.0);
        let y = gspmv(
            &gt,
            &x,
            &|m: &f32, e: &f32, _| m + e,
            &|acc: &mut f32, v| *acc = acc.min(v),
            &Executor::new(2),
        );
        // Paper iteration 1 reduced values: C=2, D=5, E=4
        assert_eq!(y.to_entries(), vec![(2, 2.0), (3, 5.0), (4, 4.0)]);
    }

    #[test]
    fn in_degree_example_from_figure1() {
        // Figure 1: multiply Gᵀ by all-ones to get in-degrees.
        // Graph: A->B, A->C, B->C, C->D, D->? use 4 vertices A..D
        let mut gt: Coo<f64> = Coo::new(4, 4);
        for (src, dst) in [(0u32, 1u32), (0, 2), (1, 2), (2, 3)] {
            gt.push(dst, src, 1.0);
        }
        let pd = PartitionedDcsc::from_coo_even(&gt, 3);
        let ones = SparseVector::full(4, 1.0f64);
        let y = gspmv(
            &pd,
            &ones,
            &|x: &f64, e: &f64, _| PlusTimes.multiply(x, e),
            &|acc: &mut f64, v| PlusTimes.add(acc, v),
            &Executor::sequential(),
        );
        // in-degrees: A=0 (unset), B=1, C=2, D=1
        assert_eq!(y.get(0), None);
        assert_eq!(y.get(1), Some(&1.0));
        assert_eq!(y.get(2), Some(&2.0));
        assert_eq!(y.get(3), Some(&1.0));
    }

    #[test]
    fn parallel_matches_sequential() {
        // random-ish structured matrix, compare 1-thread vs many-thread output
        let mut coo: Coo<f64> = Coo::new(64, 64);
        let mut state = 12345u64;
        for _ in 0..400 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = ((state >> 33) % 64) as u32;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let c = ((state >> 33) % 64) as u32;
            coo.push(r, c, ((state >> 40) % 10) as f64 + 1.0);
        }
        coo.dedup_by(|a, _| *a);
        let pd_seq = PartitionedDcsc::from_coo_even(&coo, 1);
        let pd_par = PartitionedDcsc::from_coo_balanced(&coo, 16);
        let mut x: SparseVector<f64> = SparseVector::new(64);
        for i in (0..64).step_by(3) {
            x.set(i, (i + 1) as f64);
        }
        let multiply = |x: &f64, e: &f64, _| PlusTimes.multiply(x, e);
        let add = |acc: &mut f64, v| PlusTimes.add(acc, v);
        let seq = gspmv(&pd_seq, &x, &multiply, &add, &Executor::sequential());
        let par = gspmv(&pd_par, &x, &multiply, &add, &Executor::new(4));
        assert_eq!(seq.to_entries(), par.to_entries());
    }

    #[test]
    fn shared_output_matches_stitch_on_unbalanced_partitions() {
        // Regression test for the shared-output rewrite of `gspmv`: heavily
        // unbalanced partitions (one huge, several tiny, boundaries inside a
        // single 64-bit bitmap word) must produce exactly what sequential
        // per-partition accumulation — the old stitch path — produced.
        use crate::partition::RowRange;
        let n = 150u32;
        let mut coo: Coo<i64> = Coo::new(n, n);
        let mut state = 99u64;
        for _ in 0..1200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = ((state >> 33) % 150) as u32;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let c = ((state >> 33) % 150) as u32;
            coo.push(r, c, ((state >> 40) % 100) as i64 - 50);
        }
        // Word-unaligned, very skewed ranges: 0..130 | 130..131 | 131..133 | 133..150
        let ranges = [
            RowRange { start: 0, end: 130 },
            RowRange {
                start: 130,
                end: 131,
            },
            RowRange {
                start: 131,
                end: 133,
            },
            RowRange {
                start: 133,
                end: 150,
            },
        ];
        let pd = PartitionedDcsc::from_coo(&coo, &ranges);
        let mut x: SparseVector<i64> = SparseVector::new(n as usize);
        for i in (0..n).step_by(2) {
            x.set(i, i as i64 + 1);
        }

        // Old stitch-path semantics: sequential partial per partition, then set.
        let mut stitched: SparseVector<i64> = SparseVector::new(n as usize);
        for part in pd.partitions() {
            let mut partial: SparseVector<i64> = SparseVector::new(n as usize);
            for (j, rows, edges) in part.matrix.iter_cols() {
                if let Some(xj) = x.get(j) {
                    for (k, e) in rows.iter().zip(edges) {
                        partial.merge(*k, xj * e, |a, v| *a += v);
                    }
                }
            }
            for (k, v) in partial.iter() {
                stitched.set(k, *v);
            }
        }

        let shared = gspmv(
            &pd,
            &x,
            &|m: &i64, e: &i64, _| m * e,
            &|a: &mut i64, v| *a += v,
            &Executor::new(4),
        );
        assert_eq!(shared.nnz(), stitched.nnz());
        assert_eq!(shared.to_entries(), stitched.to_entries());
    }

    #[test]
    fn gspmv_into_reuses_output_and_clears_stale_entries() {
        let gt = PartitionedDcsc::from_coo_even(&figure3_graph_transpose(), 2);
        let mut y: SparseVector<f32> = SparseVector::new(5);
        let ex = Executor::new(2);
        // First superstep: frontier {A}.
        let mut x: SparseVector<f32> = SparseVector::new(5);
        x.set(0, 0.0);
        gspmv_into(
            &gt,
            &x,
            &|m: &f32, e: &f32, _| m + e,
            &|acc: &mut f32, v| *acc = acc.min(v),
            &ex,
            &mut y,
        );
        assert_eq!(y.to_entries(), vec![(1, 1.0), (2, 3.0), (3, 2.0)]);
        // Reuse y for a different frontier: stale entries must vanish.
        x.clear();
        x.set(3, 2.0);
        gspmv_into(
            &gt,
            &x,
            &|m: &f32, e: &f32, _| m + e,
            &|acc: &mut f32, v| *acc = acc.min(v),
            &ex,
            &mut y,
        );
        assert_eq!(y.to_entries(), vec![(4, 4.0)]);
    }

    #[test]
    fn matches_dense_reference() {
        let mut coo: Coo<f64> = Coo::new(10, 10);
        for i in 0..10u32 {
            for j in 0..10u32 {
                if (i * 7 + j * 3) % 4 == 0 {
                    coo.push(i, j, (i + 2 * j) as f64);
                }
            }
        }
        let dense = crate::csr::Csr::from_coo(&coo).to_dense();
        let pd = PartitionedDcsc::from_coo_balanced(&coo, 4);
        let x_dense: Vec<f64> = (0..10).map(|i| i as f64 * 0.5).collect();
        let mut x: SparseVector<f64> = SparseVector::new(10);
        for (i, v) in x_dense.iter().enumerate() {
            x.set(i as u32, *v);
        }
        let y = gspmv(
            &pd,
            &x,
            &|x: &f64, e: &f64, _| PlusTimes.multiply(x, e),
            &|acc: &mut f64, v| PlusTimes.add(acc, v),
            &Executor::new(2),
        );
        for (r, row) in dense.iter().enumerate() {
            let expect: f64 = (0..10).map(|c| row[c] * x_dense[c]).sum();
            let got = y.get(r as u32).copied().unwrap_or(0.0);
            assert!((expect - got).abs() < 1e-9, "row {r}: {expect} vs {got}");
        }
    }

    #[test]
    fn min_plus_semiring_runs() {
        let mut gt: Coo<f32> = Coo::new(3, 3);
        gt.push(1, 0, 5.0);
        gt.push(2, 1, 2.0);
        let pd = PartitionedDcsc::from_coo_even(&gt, 1);
        let mut x: SparseVector<f32> = SparseVector::new(3);
        x.set(0, 0.0);
        x.set(1, 100.0);
        let y = gspmv(
            &pd,
            &x,
            &|x: &f32, e: &f32, _| MinPlus.multiply(x, e),
            &|acc: &mut f32, v| MinPlus.add(acc, v),
            &Executor::sequential(),
        );
        assert_eq!(y.get(1), Some(&5.0));
        assert_eq!(y.get(2), Some(&102.0));
    }

    #[test]
    fn empty_frontier_produces_empty_output() {
        let gt = PartitionedDcsc::from_coo_even(&figure3_graph_transpose(), 2);
        let x: SparseVector<f32> = SparseVector::new(5);
        let y = gspmv(
            &gt,
            &x,
            &|m: &f32, e: &f32, _| m + e,
            &|acc: &mut f32, v| *acc = acc.min(v),
            &Executor::new(2),
        );
        assert_eq!(y.nnz(), 0);
    }

    #[test]
    fn pull_matches_push_on_figure3() {
        let gt = PartitionedDcsc::from_coo_even(&figure3_graph_transpose(), 2);
        let mirror = CsrMirror::from_partitioned(&gt);
        let ex = Executor::new(2);
        // frontier after iteration 0: B=1, C=3, D=2; both kernels read it
        let mut x: SparseVector<f32> = SparseVector::new(5);
        for (i, v) in [(1u32, 1.0f32), (2, 3.0), (3, 2.0)] {
            x.set(i, v);
        }
        let multiply = |m: &f32, e: &f32, _: Index| m + e;
        let add = |acc: &mut f32, v: f32| *acc = acc.min(v);
        let push: SparseVector<f32> = gspmv(&gt, &x, &multiply, &add, &ex);
        let mut pull: SparseVector<f32> = SparseVector::new(5);
        gspmv_csr_pull_into(&mirror, &x, &multiply, &add, &ex, &mut pull);
        assert_eq!(pull.to_entries(), push.to_entries());
        assert_eq!(pull.to_entries(), vec![(2, 2.0), (3, 5.0), (4, 4.0)]);
    }

    #[test]
    fn pull_matches_push_on_random_matrix_all_densities() {
        let mut coo: Coo<i64> = Coo::new(150, 150);
        let mut state = 7u64;
        for _ in 0..1500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = ((state >> 33) % 150) as u32;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let c = ((state >> 33) % 150) as u32;
            coo.push(r, c, ((state >> 40) % 100) as i64 - 50);
        }
        let pd = PartitionedDcsc::from_coo_balanced(&coo, 7);
        let mirror = CsrMirror::from_partitioned(&pd);
        let multiply = |m: &i64, e: &i64, k: Index| m * e + k as i64;
        let add = |acc: &mut i64, v: i64| *acc += v;
        for stride in [1usize, 2, 17, 149] {
            let mut x: SparseVector<i64> = SparseVector::new(150);
            for i in (0..150).step_by(stride) {
                x.set(i as Index, i as i64 + 1);
            }
            for threads in [1usize, 4] {
                let ex = Executor::new(threads);
                let push: SparseVector<i64> = gspmv(&pd, &x, &multiply, &add, &ex);
                let mut pull: SparseVector<i64> = SparseVector::new(150);
                gspmv_csr_pull_into(&mirror, &x, &multiply, &add, &ex, &mut pull);
                assert_eq!(
                    pull.to_entries(),
                    push.to_entries(),
                    "stride {stride}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn pull_reuses_output_and_clears_stale_entries() {
        let gt = PartitionedDcsc::from_coo_even(&figure3_graph_transpose(), 2);
        let mirror = CsrMirror::from_partitioned(&gt);
        let ex = Executor::sequential();
        let multiply = |m: &f32, e: &f32, _: Index| m + e;
        let add = |acc: &mut f32, v: f32| *acc = acc.min(v);
        let mut y: SparseVector<f32> = SparseVector::new(5);
        let mut x: SparseVector<f32> = SparseVector::new(5);
        x.set(0, 0.0);
        gspmv_csr_pull_into(&mirror, &x, &multiply, &add, &ex, &mut y);
        assert_eq!(y.to_entries(), vec![(1, 1.0), (2, 3.0), (3, 2.0)]);
        x.clear();
        x.set(3, 2.0);
        gspmv_csr_pull_into(&mirror, &x, &multiply, &add, &ex, &mut y);
        assert_eq!(y.to_entries(), vec![(4, 4.0)]);
    }

    #[test]
    fn pull_empty_frontier_produces_empty_output() {
        let gt = PartitionedDcsc::from_coo_even(&figure3_graph_transpose(), 2);
        let mirror = CsrMirror::from_partitioned(&gt);
        let x: SparseVector<f32> = SparseVector::new(5);
        let mut y: SparseVector<f32> = SparseVector::new(5);
        gspmv_csr_pull_into(
            &mirror,
            &x,
            &|m: &f32, e: &f32, _| m + e,
            &|acc: &mut f32, v| *acc = acc.min(v),
            &Executor::new(2),
            &mut y,
        );
        assert_eq!(y.nnz(), 0);
    }

    #[test]
    fn multiply_sees_destination_row() {
        // The destination row index must be passed through so the engine can
        // read destination vertex state (GraphMat's extension, §4.2).
        let mut gt: Coo<i32> = Coo::new(4, 4);
        gt.push(3, 0, 1);
        gt.push(2, 0, 1);
        let pd = PartitionedDcsc::from_coo_even(&gt, 1);
        let mut x: SparseVector<i32> = SparseVector::new(4);
        x.set(0, 10);
        let y = gspmv(
            &pd,
            &x,
            &|m: &i32, _e: &i32, k: Index| m + k as i32,
            &|acc: &mut i32, v| *acc += v,
            &Executor::sequential(),
        );
        assert_eq!(y.get(2), Some(&12));
        assert_eq!(y.get(3), Some(&13));
    }
}
