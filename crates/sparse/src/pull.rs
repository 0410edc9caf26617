//! Row-major CSR mirrors for the **pull** execution path.
//!
//! GraphMat's column-wise DCSC SpMV is a *push* traversal: it walks the
//! non-empty columns (sources) present in the sparse message vector and
//! scatters into the output rows. That is ideal for sparse frontiers but
//! wasteful when most vertices are active — the regime direction-optimized
//! engines (Beamer et al.'s bottom-up BFS, GraphBLAST's SpMV/SpMSpV switch)
//! handle with a row-wise *pull* traversal: iterate destination rows, gather
//! from the same bitvector-backed message vector by index, and write each
//! output entry exactly once.
//!
//! [`CsrMirror`] is the structure that traversal runs over: the **same row
//! partitions** as a [`PartitionedDcsc`] (so the two backends share one load
//! balance and one disjoint-row-ownership argument), each stored row-major —
//! a compact CSR whose row pointers cover only the partition's own row range
//! and whose column ids stay global. It is a *mirror*: built from, and fully
//! redundant with, the DCSC it shadows, costing roughly the same memory
//! again ([`CsrMirror::bytes`]; graph builds can skip it when pull will
//! never run).

use crate::dcsc::Dcsc;
use crate::partition::{PartitionedDcsc, RowRange};
use crate::{ix, Index};

/// One row partition of a [`CsrMirror`]: the partition's row range plus a
/// compact CSR over exactly those rows. `row_ptr` is indexed by
/// `row - rows.start` (local), `col_idx` holds global column ids.
#[derive(Clone, Debug)]
pub struct PullPartition<T> {
    /// The rows this partition owns (same range as the mirrored DCSC
    /// partition).
    pub rows: RowRange,
    row_ptr: Vec<usize>,
    col_idx: Vec<Index>,
    values: Vec<T>,
}

impl<T> PullPartition<T> {
    /// Number of stored entries in this partition.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The (global) column indices and values of global row `r`.
    ///
    /// # Panics
    /// Panics if `r` is outside this partition's row range.
    #[inline(always)]
    pub fn row(&self, r: Index) -> (&[Index], &[T]) {
        let local = ix(r - self.rows.start);
        let start = self.row_ptr[local];
        let end = self.row_ptr[local + 1];
        (&self.col_idx[start..end], &self.values[start..end])
    }

    /// Iterate the partition's rows as `(global_row, col_idx, values)`,
    /// skipping empty rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = (Index, &[Index], &[T])> + '_ {
        (self.rows.start..self.rows.end).filter_map(move |r| {
            let (cols, vals) = self.row(r);
            if cols.is_empty() {
                None
            } else {
                Some((r, cols, vals))
            }
        })
    }
}

/// A sparse matrix stored row-major, split into the same 1-D row partitions
/// as the [`PartitionedDcsc`] it mirrors. This is what the pull kernel
/// ([`crate::spmv::gspmv_csr_pull_into`]) traverses.
#[derive(Clone, Debug)]
pub struct CsrMirror<T> {
    nrows: Index,
    ncols: Index,
    partitions: Vec<PullPartition<T>>,
}

impl<T: Clone> CsrMirror<T> {
    /// Build the row-major mirror of a partitioned DCSC. Within each row,
    /// column ids come out ascending (the DCSC iterates columns in ascending
    /// order), which is what keeps push and pull reductions **bit-for-bit
    /// identical**: both fold a destination's incoming products in ascending
    /// source order.
    pub fn from_partitioned(matrix: &PartitionedDcsc<T>) -> Self {
        let partitions = matrix
            .partitions()
            .iter()
            .map(|p| Self::mirror_partition(&p.matrix, p.rows))
            .collect();
        CsrMirror {
            nrows: matrix.nrows(),
            ncols: matrix.ncols(),
            partitions,
        }
    }

    fn mirror_partition(dcsc: &Dcsc<T>, rows: RowRange) -> PullPartition<T> {
        let local_rows = rows.len();
        let nnz = dcsc.nnz();
        // Counting sort by local row: one pass to count, one to place.
        let mut row_ptr = vec![0usize; local_rows + 1];
        for (r, _, _) in dcsc.iter() {
            row_ptr[ix(r - rows.start) + 1] += 1;
        }
        for i in 1..row_ptr.len() {
            row_ptr[i] += row_ptr[i - 1];
        }
        let mut next = row_ptr.clone();
        let mut col_idx = vec![0 as Index; nnz];
        let mut values: Vec<Option<T>> = vec![None; nnz];
        // Column-major iteration → per-row appends arrive in ascending
        // column order, so rows come out sorted without an extra pass.
        for (r, c, v) in dcsc.iter() {
            let slot = next[ix(r - rows.start)];
            col_idx[slot] = c;
            values[slot] = Some(v.clone());
            next[ix(r - rows.start)] += 1;
        }
        PullPartition {
            rows,
            row_ptr,
            col_idx,
            values: values
                .into_iter()
                // audit:allow(no-unwrap): counting-sort invariant — every
                // slot between the row pointers was filled by the scatter
                // loop above.
                .map(|v| v.expect("slot filled"))
                .collect(),
        }
    }
}

impl<T> CsrMirror<T> {
    /// Number of rows of the whole matrix.
    pub fn nrows(&self) -> Index {
        self.nrows
    }

    /// Number of columns of the whole matrix.
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    /// Total number of stored entries across partitions.
    pub fn nnz(&self) -> usize {
        self.partitions.iter().map(|p| p.nnz()).sum()
    }

    /// Number of partitions (same as the mirrored DCSC).
    pub fn n_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Access the partitions.
    pub fn partitions(&self) -> &[PullPartition<T>] {
        &self.partitions
    }

    /// Access one partition.
    pub fn partition(&self, i: usize) -> &PullPartition<T> {
        &self.partitions[i]
    }

    /// Total in-memory footprint in bytes (row pointers, column ids and
    /// stored values; zero value bytes when `T = ()`). This is the *extra*
    /// memory a pull-enabled topology pays on top of its DCSC matrices.
    pub fn bytes(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| {
                p.row_ptr.len() * std::mem::size_of::<usize>()
                    + p.col_idx.len() * std::mem::size_of::<Index>()
                    + p.values.len() * std::mem::size_of::<T>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn sample() -> Coo<i32> {
        let mut m = Coo::new(8, 8);
        for c in 1..8 {
            m.push(0, c, c as i32);
        }
        m.push(3, 1, 100);
        m.push(5, 2, 200);
        m.push(5, 7, 201);
        m.push(7, 0, 300);
        m
    }

    #[test]
    fn mirror_preserves_entries_and_partitioning() {
        let coo = sample();
        let pd = PartitionedDcsc::from_coo_balanced(&coo, 3);
        let mirror = CsrMirror::from_partitioned(&pd);
        assert_eq!(mirror.nnz(), pd.nnz());
        assert_eq!(mirror.n_partitions(), pd.n_partitions());
        assert_eq!(mirror.nrows(), pd.nrows());
        let mut got: Vec<(u32, u32, i32)> = mirror
            .partitions()
            .iter()
            .flat_map(|p| p.iter_rows())
            .flat_map(|(r, cols, vals)| cols.iter().zip(vals).map(move |(c, v)| (r, *c, *v)))
            .collect();
        let mut expect: Vec<(u32, u32, i32)> =
            coo.entries().iter().map(|&(r, c, v)| (r, c, v)).collect();
        got.sort();
        expect.sort();
        assert_eq!(got, expect);
        // Same ranges as the mirrored DCSC.
        for (mp, dp) in mirror.partitions().iter().zip(pd.partitions()) {
            assert_eq!(mp.rows, dp.rows);
        }
    }

    #[test]
    fn rows_are_sorted_by_column() {
        let pd = PartitionedDcsc::from_coo_even(&sample(), 2);
        let mirror = CsrMirror::from_partitioned(&pd);
        let (cols, vals) = mirror.partition(0).row(0);
        assert_eq!(cols, &[1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(vals, &[1, 2, 3, 4, 5, 6, 7]);
        for p in mirror.partitions() {
            for (_, cols, _) in p.iter_rows() {
                assert!(cols.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn empty_rows_are_skipped_by_iter_rows() {
        let pd = PartitionedDcsc::from_coo_even(&sample(), 2);
        let mirror = CsrMirror::from_partitioned(&pd);
        let nonempty: Vec<u32> = mirror
            .partitions()
            .iter()
            .flat_map(|p| p.iter_rows().map(|(r, _, _)| r))
            .collect();
        assert_eq!(nonempty, vec![0, 3, 5, 7]);
    }

    #[test]
    fn unweighted_mirror_stores_no_value_bytes() {
        let coo = sample();
        let weighted = CsrMirror::from_partitioned(&PartitionedDcsc::from_coo_even(&coo, 2));
        let unweighted =
            CsrMirror::from_partitioned(&PartitionedDcsc::from_coo_even(&coo.map(|_| ()), 2));
        assert_eq!(
            weighted.bytes() - unweighted.bytes(),
            weighted.nnz() * std::mem::size_of::<i32>()
        );
    }
}
