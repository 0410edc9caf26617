//! Delta overlays: a small sorted edit set applied on top of a
//! [`PartitionedDcsc`] during SpMV, without rebuilding the matrix.
//!
//! A streaming graph accumulates edge insertions, weight updates and
//! deletions between compactions. Rebuilding the DCSC per batch would cost
//! O(E log E); instead the pending edits live in an [`Overlay`] — a
//! column-major, partition-aligned structure holding at most **one**
//! [`OverlayOp`] per `(row, col)` coordinate — and the push kernel
//! [`crate::spmv::gspmv_overlay_into`] runs Algorithm 1 over
//! `base ⊕ overlay` with a merged two-pointer column walk.
//!
//! The walk preserves the push kernel's reduction-order contract: products
//! arrive at each destination row in **ascending source (column) order**,
//! exactly as they would from a matrix rebuilt from the edited edge list.
//! Since the generalized add may be a non-associative floating-point sum,
//! this is what makes overlay results bit-for-bit identical to a
//! from-scratch rebuild (for bases without duplicate coordinates; an op on
//! a duplicated coordinate masks *all* stored copies).
//!
//! The overlay mirrors the base's row partitioning one-to-one, so the
//! kernel's parallel path writes through the same disjoint-row-range
//! writer with or without pending edits.

use crate::partition::{PartitionedDcsc, RowRange};
use crate::Index;

/// One pending edit at a matrix coordinate.
#[derive(Clone, Debug, PartialEq)]
pub enum OverlayOp<T> {
    /// Insert the entry, or replace every stored copy of it, with this value.
    Upsert(T),
    /// Remove every stored copy of the entry (a no-op if absent).
    Delete,
}

/// The edits owned by one row partition, in DCSC-shaped column-major order.
#[derive(Clone, Debug)]
pub(crate) struct OverlayPartition<T> {
    /// Non-empty column ids, ascending.
    pub(crate) cols: Vec<Index>,
    /// `col_ptr[i]..col_ptr[i+1]` indexes the entries of `cols[i]`.
    pub(crate) col_ptr: Vec<usize>,
    /// Row ids per column, ascending, unique within a column.
    pub(crate) rows: Vec<Index>,
    /// The op at each `(row, col)` coordinate.
    pub(crate) ops: Vec<OverlayOp<T>>,
}

/// A sorted set of pending edits aligned to a base matrix's row partitions.
///
/// Build one with [`Overlay::from_entries`] from resolved `(row, col, op)`
/// triples — **at most one op per coordinate**; a delta log resolves
/// duplicates to latest-wins before building. The partition ranges must be
/// exactly the base matrix's ranges so the two structures can be swept
/// together partition by partition.
#[derive(Clone, Debug)]
pub struct Overlay<T> {
    nrows: Index,
    ncols: Index,
    ranges: Vec<RowRange>,
    pub(crate) partitions: Vec<OverlayPartition<T>>,
    n_upserts: usize,
}

impl<T> Overlay<T> {
    /// Build an overlay from resolved edit triples, bucketed and sorted to
    /// align with the base matrix's row partitioning.
    ///
    /// # Panics
    /// Panics if `ranges` is empty or not contiguous over `0..nrows`, if a
    /// coordinate is out of range, or (in debug builds) if two entries share
    /// a coordinate.
    pub fn from_entries(
        nrows: Index,
        ncols: Index,
        ranges: &[RowRange],
        entries: Vec<(Index, Index, OverlayOp<T>)>,
    ) -> Self {
        assert!(!ranges.is_empty(), "at least one partition range required");
        assert_eq!(ranges[0].start, 0, "ranges must start at row 0");
        assert_eq!(
            ranges[ranges.len() - 1].end,
            nrows,
            "ranges must cover all rows"
        );
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "ranges must be contiguous");
        }
        for &(r, c, _) in &entries {
            assert!(
                r < nrows && c < ncols,
                "overlay entry ({r},{c}) out of bounds for {nrows}x{ncols} matrix"
            );
        }

        // Bucket rows into partitions by binary search over range starts,
        // the same scheme PartitionedDcsc::from_coo uses.
        let starts: Vec<Index> = ranges.iter().map(|r| r.start).collect();
        let mut buckets: Vec<Vec<(Index, Index, OverlayOp<T>)>> =
            (0..ranges.len()).map(|_| Vec::new()).collect();
        let mut n_upserts = 0usize;
        for (r, c, op) in entries {
            if matches!(op, OverlayOp::Upsert(_)) {
                n_upserts += 1;
            }
            let p = match starts.binary_search(&r) {
                Ok(i) => i,
                Err(i) => i - 1,
            };
            buckets[p].push((r, c, op));
        }

        let partitions = buckets
            .into_iter()
            .map(|mut bucket| {
                bucket.sort_unstable_by_key(|&(r, c, _)| (c, r));
                debug_assert!(
                    bucket
                        .windows(2)
                        .all(|w| (w[0].1, w[0].0) != (w[1].1, w[1].0)),
                    "at most one op per (row, col) coordinate"
                );
                let mut cols = Vec::new();
                let mut col_ptr = vec![0usize];
                let mut rows = Vec::with_capacity(bucket.len());
                let mut ops = Vec::with_capacity(bucket.len());
                for (r, c, op) in bucket {
                    if cols.last() != Some(&c) {
                        cols.push(c);
                        col_ptr.push(rows.len());
                    }
                    rows.push(r);
                    ops.push(op);
                    let last = col_ptr.len() - 1;
                    col_ptr[last] = rows.len();
                }
                OverlayPartition {
                    cols,
                    col_ptr,
                    rows,
                    ops,
                }
            })
            .collect();

        Overlay {
            nrows,
            ncols,
            ranges: ranges.to_vec(),
            partitions,
            n_upserts,
        }
    }

    /// Number of rows of the (virtual) edited matrix.
    pub fn nrows(&self) -> Index {
        self.nrows
    }

    /// Number of columns of the (virtual) edited matrix.
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    /// Total number of pending ops.
    pub fn nnz(&self) -> usize {
        self.partitions.iter().map(|p| p.rows.len()).sum()
    }

    /// Number of upsert ops (the rest are deletes).
    pub fn n_upserts(&self) -> usize {
        self.n_upserts
    }

    /// `true` if there are no pending ops.
    pub fn is_empty(&self) -> bool {
        self.partitions.iter().all(|p| p.rows.is_empty())
    }

    /// Number of partitions (equals the base matrix's).
    pub fn n_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// The row ranges the overlay was bucketed by.
    pub fn ranges(&self) -> &[RowRange] {
        &self.ranges
    }

    /// Approximate heap footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| {
                p.cols.len() * std::mem::size_of::<Index>()
                    + p.col_ptr.len() * std::mem::size_of::<usize>()
                    + p.rows.len() * std::mem::size_of::<Index>()
                    + p.ops.len() * std::mem::size_of::<OverlayOp<T>>()
            })
            .sum::<usize>()
            + self.ranges.len() * std::mem::size_of::<RowRange>()
    }

    /// Assert that this overlay is aligned with `base`: same shape and the
    /// exact same row partitioning (the soundness condition for the shared
    /// disjoint-row-range output writer).
    pub(crate) fn check_aligned<E>(&self, base: &PartitionedDcsc<E>) {
        assert_eq!(self.nrows, base.nrows(), "overlay/base row count mismatch");
        assert_eq!(self.ncols, base.ncols(), "overlay/base col count mismatch");
        assert_eq!(
            self.partitions.len(),
            base.n_partitions(),
            "overlay/base partition count mismatch"
        );
        for (range, part) in self.ranges.iter().zip(base.partitions()) {
            assert_eq!(
                (range.start, range.end),
                (part.rows.start, part.rows.end),
                "overlay/base partition ranges mismatch"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::parallel::Executor;
    use crate::partition::RowPartitioner;
    use crate::spmv::{gspmv_into, gspmv_overlay_into};
    use crate::spvec::SparseVector;

    /// The Figure 3 graph of the paper, as `Gᵀ` (row = dst, col = src).
    fn figure3_transpose() -> Vec<(Index, Index, f32)> {
        vec![
            (1, 0, 1.0), // A->B
            (2, 0, 3.0), // A->C
            (3, 0, 2.0), // A->D
            (2, 1, 1.0), // B->C
            (3, 2, 2.0), // C->D
            (4, 3, 2.0), // D->E
            (0, 4, 4.0), // E->A
        ]
    }

    fn build(entries: &[(Index, Index, f32)], ranges: &[RowRange]) -> PartitionedDcsc<f32> {
        let coo = Coo::from_entries(5, 5, entries.to_vec());
        PartitionedDcsc::from_coo(&coo, ranges)
    }

    /// Apply ops to an entry list the way a compaction would, returning the
    /// rebuilt entry set.
    fn apply_ops(
        entries: &[(Index, Index, f32)],
        ops: &[(Index, Index, OverlayOp<f32>)],
    ) -> Vec<(Index, Index, f32)> {
        let mut out: Vec<(Index, Index, f32)> = entries
            .iter()
            .filter(|&&(r, c, _)| !ops.iter().any(|&(or, oc, _)| or == r && oc == c))
            .copied()
            .collect();
        for (r, c, op) in ops {
            if let OverlayOp::Upsert(w) = op {
                out.push((*r, *c, *w));
            }
        }
        out
    }

    fn ranges2() -> Vec<RowRange> {
        vec![RowRange { start: 0, end: 3 }, RowRange { start: 3, end: 5 }]
    }

    fn full_frontier() -> SparseVector<f32> {
        let mut x = SparseVector::new(5);
        for i in 0..5u32 {
            x.set(i, (i + 1) as f32 * 0.5);
        }
        x
    }

    fn run_overlay(
        base: &PartitionedDcsc<f32>,
        ov: &Overlay<f32>,
        x: &SparseVector<f32>,
        threads: usize,
    ) -> Vec<(Index, f32)> {
        let mut y = SparseVector::new(5);
        gspmv_overlay_into(
            base,
            Some(ov),
            x,
            &|m: &f32, e: &f32, _| m * e,
            &|acc: &mut f32, v| *acc += v,
            &Executor::new(threads),
            &mut y,
        );
        y.to_entries()
    }

    fn run_plain(
        base: &PartitionedDcsc<f32>,
        x: &SparseVector<f32>,
        threads: usize,
    ) -> Vec<(Index, f32)> {
        let mut y = SparseVector::new(5);
        gspmv_into(
            base,
            x,
            &|m: &f32, e: &f32, _| m * e,
            &|acc: &mut f32, v| *acc += v,
            &Executor::new(threads),
            &mut y,
        );
        y.to_entries()
    }

    #[test]
    fn empty_overlay_matches_plain_kernel() {
        let base = build(&figure3_transpose(), &ranges2());
        let ov: Overlay<f32> = Overlay::from_entries(5, 5, &ranges2(), vec![]);
        assert!(ov.is_empty());
        let x = full_frontier();
        for threads in [1usize, 4] {
            assert_eq!(
                run_overlay(&base, &ov, &x, threads),
                run_plain(&base, &x, threads)
            );
        }
    }

    #[test]
    fn insert_delete_update_match_rebuild() {
        let entries = figure3_transpose();
        let base = build(&entries, &ranges2());
        let ops = vec![
            (2, 1, OverlayOp::Delete),      // delete B->C
            (3, 0, OverlayOp::Upsert(9.0)), // reweight A->D
            (4, 1, OverlayOp::Upsert(7.0)), // insert B->E
            (0, 2, OverlayOp::Upsert(1.5)), // insert C->A (new column entry)
            (1, 3, OverlayOp::Delete),      // delete absent D->B: no-op
        ];
        let ov = Overlay::from_entries(5, 5, &ranges2(), ops.clone());
        assert_eq!(ov.nnz(), 5);
        assert_eq!(ov.n_upserts(), 3);
        let rebuilt = build(&apply_ops(&entries, &ops), &ranges2());
        let x = full_frontier();
        for threads in [1usize, 4] {
            assert_eq!(
                run_overlay(&base, &ov, &x, threads),
                run_plain(&rebuilt, &x, threads),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn ops_mask_all_duplicate_copies() {
        let mut entries = figure3_transpose();
        entries.push((2, 1, 10.0)); // duplicate B->C with a second weight
        entries.push((3, 0, 20.0)); // duplicate A->D
        let base = build(&entries, &ranges2());
        let ops = vec![
            (2, 1, OverlayOp::Delete),      // must remove both copies
            (3, 0, OverlayOp::Upsert(1.0)), // must replace both copies
        ];
        let ov = Overlay::from_entries(5, 5, &ranges2(), ops.clone());
        // The rebuild drops every copy of an edited coordinate.
        let rebuilt = build(&apply_ops(&entries, &ops), &ranges2());
        let x = full_frontier();
        assert_eq!(run_overlay(&base, &ov, &x, 1), run_plain(&rebuilt, &x, 1));
    }

    #[test]
    fn sparse_frontier_skips_missing_columns() {
        let entries = figure3_transpose();
        let base = build(&entries, &ranges2());
        let ops = vec![(4, 1, OverlayOp::Upsert(7.0)), (2, 0, OverlayOp::Delete)];
        let ov = Overlay::from_entries(5, 5, &ranges2(), ops.clone());
        let rebuilt = build(&apply_ops(&entries, &ops), &ranges2());
        let mut x = SparseVector::new(5);
        x.set(1, 2.0); // only source B active
        for threads in [1usize, 4] {
            assert_eq!(
                run_overlay(&base, &ov, &x, threads),
                run_plain(&rebuilt, &x, threads)
            );
        }
    }

    #[test]
    fn random_edits_match_rebuild_bit_for_bit() {
        // f64 values and a sum-reduction: any reduction-order difference vs
        // the rebuilt matrix shows up as a bit difference.
        let n: Index = 97;
        let mut state = 42u64;
        let mut rand = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        let mut entries: Vec<(Index, Index, f64)> = Vec::new();
        for _ in 0..900 {
            let r = rand() % n;
            let c = rand() % n;
            if !entries.iter().any(|&(er, ec, _)| er == r && ec == c) {
                entries.push((r, c, (rand() % 1000) as f64 / 7.0));
            }
        }
        let counts = {
            let coo = Coo::from_entries(n, n, entries.clone());
            coo.row_counts()
        };
        let ranges = RowPartitioner::balanced_nnz(&counts, 7);
        let coo = Coo::from_entries(n, n, entries.clone());
        let base = PartitionedDcsc::from_coo(&coo, &ranges);

        // ~120 ops: half deletes of existing coordinates, half upserts
        // (mix of reweights and fresh inserts).
        let mut ops: Vec<(Index, Index, OverlayOp<f64>)> = Vec::new();
        for i in 0..120 {
            let (r, c) = if i % 2 == 0 && !entries.is_empty() {
                let e = entries[(rand() as usize) % entries.len()];
                (e.0, e.1)
            } else {
                (rand() % n, rand() % n)
            };
            if ops.iter().any(|&(or, oc, _)| or == r && oc == c) {
                continue;
            }
            let op = if i % 4 == 1 {
                OverlayOp::Delete
            } else {
                OverlayOp::Upsert((rand() % 500) as f64 / 3.0)
            };
            ops.push((r, c, op));
        }
        // After a small UPDATE most partitions have no edits, and the walk
        // branches per partition on exactly that: also run the ops that fall
        // in one partition's row range.
        let part = ranges[3];
        let one_partition: Vec<(Index, Index, OverlayOp<f64>)> = ops
            .iter()
            .filter(|&&(r, _, _)| part.start <= r && r < part.end)
            .cloned()
            .collect();

        let mut x: SparseVector<f64> = SparseVector::new(n as usize);
        for i in 0..n {
            if i % 3 != 1 {
                x.set(i, (i as f64 + 0.25) / 3.0);
            }
        }
        let multiply = |m: &f64, e: &f64, k: Index| m * e + k as f64 * 1e-9;
        let add = |acc: &mut f64, v: f64| *acc += v;
        for ops in [ops, one_partition] {
            let ov = Overlay::from_entries(n, n, &ranges, ops.clone());
            assert!(!ov.is_empty());

            let mut rebuilt_entries: Vec<(Index, Index, f64)> = entries
                .iter()
                .filter(|&&(r, c, _)| !ops.iter().any(|&(or, oc, _)| or == r && oc == c))
                .copied()
                .collect();
            for (r, c, op) in &ops {
                if let OverlayOp::Upsert(w) = op {
                    rebuilt_entries.push((*r, *c, *w));
                }
            }
            let rebuilt_coo = Coo::from_entries(n, n, rebuilt_entries);
            let rebuilt = PartitionedDcsc::from_coo(&rebuilt_coo, &ranges);

            for threads in [1usize, 4] {
                let ex = Executor::new(threads);
                let mut want: SparseVector<f64> = SparseVector::new(n as usize);
                gspmv_into(&rebuilt, &x, &multiply, &add, &ex, &mut want);
                let mut got: SparseVector<f64> = SparseVector::new(n as usize);
                gspmv_overlay_into(&base, Some(&ov), &x, &multiply, &add, &ex, &mut got);
                let want_bits: Vec<(Index, u64)> = want
                    .to_entries()
                    .into_iter()
                    .map(|(k, v)| (k, v.to_bits()))
                    .collect();
                let got_bits: Vec<(Index, u64)> = got
                    .to_entries()
                    .into_iter()
                    .map(|(k, v)| (k, v.to_bits()))
                    .collect();
                assert_eq!(got_bits, want_bits, "{} ops, {threads} threads", ops.len());
            }
        }
    }

    #[test]
    fn misaligned_partitions_are_rejected() {
        let base = build(&figure3_transpose(), &ranges2());
        let other = vec![RowRange { start: 0, end: 2 }, RowRange { start: 2, end: 5 }];
        let ov: Overlay<f32> = Overlay::from_entries(5, 5, &other, vec![]);
        let mut y = SparseVector::new(5);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gspmv_overlay_into(
                &base,
                Some(&ov),
                &full_frontier(),
                &|m: &f32, e: &f32, _| m * e,
                &|acc: &mut f32, v| *acc += v,
                &Executor::sequential(),
                &mut y,
            )
        }));
        assert!(err.is_err());
    }

    #[test]
    fn overlay_reports_sizes() {
        let ov = Overlay::from_entries(
            5,
            5,
            &ranges2(),
            vec![(0, 1, OverlayOp::Upsert(1.0f32)), (4, 2, OverlayOp::Delete)],
        );
        assert_eq!(ov.nnz(), 2);
        assert_eq!(ov.n_upserts(), 1);
        assert_eq!(ov.n_partitions(), 2);
        assert!(!ov.is_empty());
        assert!(ov.bytes() > 0);
        assert_eq!(ov.nrows(), 5);
        assert_eq!(ov.ncols(), 5);
        assert_eq!(ov.ranges().len(), 2);
    }
}
