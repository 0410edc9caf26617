//! Sparse vectors.
//!
//! The paper considers two sparse-vector representations (§4.4.2):
//!
//! 1. a variable-sized array of sorted `(index, value)` tuples, and
//! 2. a bit vector marking the valid indices plus a constant-size (number of
//!    vertices) value array storing values only at valid indices.
//!
//! Option 2 wins across all algorithms and graphs — membership tests inside
//! the SpMV inner loop become a single bit probe, and the bit vector is small
//! enough to be shared and cached by all threads — so [`SparseVector`] is the
//! default used throughout the engine. [`SortedSparseVector`] implements
//! option 1 and exists so the Figure 7 "+bitvector" ablation can quantify the
//! difference.
//!
//! Both implement [`MessageVector`], the minimal interface the generalized
//! SpMV needs from its input vector. One [`SparseVector`] serves both
//! execution directions: the push kernel ([`crate::spmv::gspmv_into`])
//! probes it per non-empty matrix column, and the row-parallel pull kernel
//! ([`crate::spmv::gspmv_csr_pull_into`]) probes it per stored source index.
//! The pull kernel accepts only a [`SparseVector`], because it looks up every
//! source it meets and needs those lookups to be O(1).
//!
//! # Concurrent writers
//!
//! Two write handles let multiple threads populate **one** [`SparseVector`]
//! in place, which is what keeps the superstep hot path allocation-free:
//!
//! * [`Sharded`] (from [`SparseVector::sharded`]) — for writers that own
//!   *disjoint index sets* whose boundaries are not word-aligned, e.g. the
//!   row partitions of the generalized SpMV. Validity bits are published
//!   with atomic `fetch_or` because neighbouring shards can share a 64-bit
//!   word at a range boundary.
//! * [`WordRangeWriter`] (inside [`SparseVector::fill_words_parallel`]) —
//!   for writers chunked on *word boundaries*, e.g. the SEND phase scanning
//!   the active-vertex bit vector. No atomics needed: chunks never share a
//!   word.

use crate::bitvec::BitVec;
use crate::parallel::{chunks, Executor};
use crate::{ix, Index};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const WORD_BITS: usize = 64;

/// The read interface the generalized SpMV requires from its input vector.
pub trait MessageVector<T> {
    /// Logical length (number of vertices).
    fn len(&self) -> usize;
    /// `true` if no entries are set.
    fn is_empty(&self) -> bool {
        self.nnz() == 0
    }
    /// Number of set entries.
    fn nnz(&self) -> usize;
    /// Is index `i` present?
    fn contains(&self, i: Index) -> bool;
    /// Borrow the value at `i`, if present.
    fn get(&self, i: Index) -> Option<&T>;
}

/// Bit-vector backed sparse vector (the paper's option 2).
///
/// Values are stored in a dense array indexed by vertex id; validity is
/// tracked by a [`BitVec`]. `T: Default` supplies the placeholder stored at
/// unset slots.
#[derive(Clone, Debug)]
pub struct SparseVector<T> {
    valid: BitVec,
    values: Vec<T>,
    nnz: usize,
    /// shard-check shadow state: one sticky-ownership claim per index
    /// (sharded merges) and one write-once claim per validity word
    /// (word-range fills). Reset at the start of each parallel region.
    #[cfg(feature = "shard-check")]
    row_claims: crate::shard_check::ClaimMap,
    #[cfg(feature = "shard-check")]
    word_claims: crate::shard_check::ClaimMap,
}

#[cfg(feature = "shard-check")]
fn claim_maps(n: usize) -> (crate::shard_check::ClaimMap, crate::shard_check::ClaimMap) {
    (
        crate::shard_check::ClaimMap::new(n, "SparseVector row"),
        crate::shard_check::ClaimMap::new(n.div_ceil(WORD_BITS), "SparseVector word"),
    )
}

impl<T: Clone + Default> SparseVector<T> {
    /// Create an empty sparse vector of logical length `n`.
    pub fn new(n: usize) -> Self {
        #[cfg(feature = "shard-check")]
        let (row_claims, word_claims) = claim_maps(n);
        SparseVector {
            valid: BitVec::new(n),
            values: vec![T::default(); n],
            nnz: 0,
            #[cfg(feature = "shard-check")]
            row_claims,
            #[cfg(feature = "shard-check")]
            word_claims,
        }
    }

    /// Create a vector with every index set to `value` (e.g. the all-ones
    /// vector used for degree calculation in the paper's Figure 1).
    pub fn full(n: usize, value: T) -> Self {
        let mut valid = BitVec::new(n);
        valid.set_all();
        #[cfg(feature = "shard-check")]
        let (row_claims, word_claims) = claim_maps(n);
        SparseVector {
            valid,
            values: vec![value; n],
            nnz: n,
            #[cfg(feature = "shard-check")]
            row_claims,
            #[cfg(feature = "shard-check")]
            word_claims,
        }
    }
}

impl<T> SparseVector<T> {
    /// Set index `i` to `value`, overwriting any previous value.
    #[inline(always)]
    pub fn set(&mut self, i: Index, value: T) {
        if !self.valid.set(ix(i)) {
            self.nnz += 1;
        }
        self.values[ix(i)] = value;
    }

    /// Remove index `i` (the stored value slot keeps its last contents).
    pub fn unset(&mut self, i: Index) {
        if self.valid.get(ix(i)) {
            self.valid.clear(ix(i));
            self.nnz -= 1;
        }
    }

    /// Mutable access to the value at `i`, if present.
    #[inline(always)]
    pub fn get_mut(&mut self, i: Index) -> Option<&mut T> {
        if self.valid.get(ix(i)) {
            Some(&mut self.values[ix(i)])
        } else {
            None
        }
    }

    /// Insert-or-update: if `i` is present, `merge(existing, value)`,
    /// otherwise set it to `value`. This is exactly the `REDUCE` accumulation
    /// of Algorithm 1 line 7.
    #[inline(always)]
    pub fn merge(&mut self, i: Index, value: T, merge: impl FnOnce(&mut T, T)) {
        if self.valid.get(ix(i)) {
            merge(&mut self.values[ix(i)], value);
        } else {
            self.valid.set(ix(i));
            self.values[ix(i)] = value;
            self.nnz += 1;
        }
    }

    /// Iterate over `(index, &value)` pairs in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = (Index, &T)> + '_ {
        self.valid
            .iter_ones()
            .map(move |i| (i as Index, &self.values[i]))
    }

    /// Clear all entries without deallocating.
    pub fn clear(&mut self) {
        self.valid.clear_all();
        self.nnz = 0;
    }

    /// The validity bit vector (shared read-only across threads in the SpMV).
    pub fn valid_bits(&self) -> &BitVec {
        &self.valid
    }

    /// Raw dense value storage (values at unset indices are unspecified).
    pub fn raw_values(&self) -> &[T] {
        &self.values
    }

    /// Collect into a `Vec<(Index, T)>` (for tests / display).
    pub fn to_entries(&self) -> Vec<(Index, T)>
    where
        T: Clone,
    {
        self.iter().map(|(i, v)| (i, v.clone())).collect()
    }

    /// Logical length (number of vertices); same as
    /// [`MessageVector::len`], provided inherently for convenience.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if no entries are set.
    pub fn is_empty(&self) -> bool {
        self.nnz == 0
    }

    /// Number of set entries; same as [`MessageVector::nnz`], provided
    /// inherently for convenience.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Create a shared handle through which multiple threads may merge
    /// entries concurrently, provided they touch **disjoint index sets**
    /// (see [`Sharded::merge`]). Dropping the handle folds the threads'
    /// newly-set counts back into `nnz`.
    pub fn sharded(&mut self) -> Sharded<'_, T> {
        // A new handle starts a new parallel region: prior ownership lapses.
        #[cfg(feature = "shard-check")]
        self.row_claims.reset();
        Sharded {
            values: self.values.as_mut_ptr(),
            words: self.valid.words_mut().as_mut_ptr(),
            len: self.values.len(),
            added: AtomicUsize::new(0),
            nnz: &mut self.nnz as *mut usize,
            #[cfg(feature = "shard-check")]
            claims: &self.row_claims,
            _marker: PhantomData,
        }
    }

    /// Populate the vector in parallel from **word-aligned chunks** of its
    /// index space. `f` is invoked once per chunk with a [`WordRangeWriter`]
    /// restricted to that chunk's word range `[word_start, word_end)`; since
    /// the executor hands each chunk to exactly one lane and no two chunks
    /// share a 64-bit validity word, all writes are plain (non-atomic) and
    /// race-free. `nnz` is updated once at the end.
    ///
    /// The index space is over-split into several word chunks per lane and
    /// dynamically scheduled, so a frontier clustered in one contiguous id
    /// range (e.g. a BFS wavefront on a locality-ordered graph) does not
    /// serialize on a single lane.
    ///
    /// This is the SEND-phase primitive: the engine scans the active-vertex
    /// bit vector word range and inserts one message per sending vertex,
    /// with no allocation and no locks.
    pub fn fill_words_parallel<F>(&mut self, executor: &Executor, f: F)
    where
        T: Send,
        F: Fn(&mut WordRangeWriter<'_, T>) + Sync,
    {
        let nwords = self.valid.words().len();
        if nwords == 0 {
            return;
        }
        let added = AtomicUsize::new(0);
        #[cfg(feature = "shard-check")]
        self.word_claims.reset();
        #[cfg(feature = "shard-check")]
        let word_claims = &self.word_claims;
        let parts = RawParts {
            values: self.values.as_mut_ptr(),
            words: self.valid.words_mut().as_mut_ptr(),
            len: self.values.len(),
        };
        let ch = chunks(nwords, executor.nthreads() * 4);
        executor.for_each_dynamic(ch.count(), |chunk_idx| {
            let (word_start, word_end) = ch.bounds(chunk_idx);
            // Each word chunk is handed out exactly once: claim its words
            // write-once before constructing the writer that stores to them.
            #[cfg(feature = "shard-check")]
            for w in word_start..word_end {
                word_claims.claim_exclusive(w);
            }
            let mut writer = WordRangeWriter {
                parts,
                word_start,
                word_end,
                added: 0,
                _marker: PhantomData,
            };
            f(&mut writer);
            added.fetch_add(writer.added, Ordering::Relaxed);
        });
        self.nnz += added.load(Ordering::Relaxed);
    }
}

/// Raw storage pointers of a [`SparseVector`], shared across the lanes of a
/// parallel fill. Disjointness of the written regions is enforced by the
/// writer types built on top.
struct RawParts<T> {
    values: *mut T,
    words: *mut u64,
    len: usize,
}

impl<T> Clone for RawParts<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for RawParts<T> {}

// SAFETY: the pointers come from an exclusive (&mut) borrow of the vector
// that outlives the parallel region, and the writer types only touch
// disjoint regions from different threads.
unsafe impl<T: Send> Send for RawParts<T> {}
unsafe impl<T: Send> Sync for RawParts<T> {}

/// Concurrent merge handle for writers owning disjoint index sets (e.g. the
/// disjoint row ranges of SpMV partitions). Created by
/// [`SparseVector::sharded`].
///
/// Because two shards may share a validity *word* (range boundaries are not
/// word-aligned), validity bits are read and published atomically; values
/// need no atomics since indices are disjoint.
pub struct Sharded<'a, T> {
    values: *mut T,
    words: *mut u64,
    len: usize,
    added: AtomicUsize,
    nnz: *mut usize,
    /// Sticky per-row ownership shadow: the first lane to merge into a row
    /// owns it for the lifetime of the handle (see [`crate::shard_check`]).
    #[cfg(feature = "shard-check")]
    claims: &'a crate::shard_check::ClaimMap,
    _marker: PhantomData<&'a mut SparseVector<T>>,
}

// SAFETY: see `RawParts`; additionally `added` is atomic and `nnz` is only
// dereferenced in Drop, after all threads are done (the borrow rules force
// the parallel region to end before the handle can be dropped by its owner).
unsafe impl<T: Send> Send for Sharded<'_, T> {}
unsafe impl<T: Send> Sync for Sharded<'_, T> {}

impl<T> Sharded<'_, T> {
    /// Insert-or-update entry `i`, mirroring [`SparseVector::merge`].
    /// `newly_set` is the caller's thread-local counter of entries this
    /// thread set for the first time; pass its final value to
    /// [`Sharded::commit`] once the thread's work is done.
    ///
    /// # Safety
    /// For the whole time the handle is shared, index `i` must be written by
    /// **at most one** thread (disjoint index ownership). `i` must be within
    /// bounds.
    #[inline(always)]
    pub unsafe fn merge(
        &self,
        i: Index,
        value: T,
        newly_set: &mut usize,
        merge: impl FnOnce(&mut T, T),
    ) {
        let i = ix(i);
        debug_assert!(i < self.len, "index {i} out of range {}", self.len);
        // Claim before the raw write so a disjointness violation panics
        // before any undefined behaviour can occur.
        #[cfg(feature = "shard-check")]
        self.claims.claim_owner(i);
        let mask = 1u64 << (i % WORD_BITS);
        // Neighbouring shards may concurrently update other bits of this
        // word, so all word accesses go through an atomic view.
        let word = &*(self.words.add(i / WORD_BITS) as *const AtomicU64);
        if word.load(Ordering::Relaxed) & mask != 0 {
            merge(&mut *self.values.add(i), value);
        } else {
            *self.values.add(i) = value;
            word.fetch_or(mask, Ordering::Relaxed);
            *newly_set += 1;
        }
    }

    /// Fold a thread's local newly-set count into the vector's `nnz`
    /// (applied when the handle is dropped).
    pub fn commit(&self, newly_set: usize) {
        self.added.fetch_add(newly_set, Ordering::Relaxed);
    }
}

impl<T> Drop for Sharded<'_, T> {
    fn drop(&mut self) {
        // SAFETY: the exclusive borrow of the vector is still alive and all
        // worker threads have finished (the executor joins before returning).
        unsafe { *self.nnz += self.added.load(Ordering::Relaxed) };
    }
}

/// Write handle restricted to one word-aligned chunk of a [`SparseVector`],
/// handed out by [`SparseVector::fill_words_parallel`]. All writes are plain
/// stores; the containment check in [`WordRangeWriter::set`] is what makes
/// the shared-nothing claim sound, so it is a hard assert.
pub struct WordRangeWriter<'a, T> {
    parts: RawParts<T>,
    word_start: usize,
    word_end: usize,
    added: usize,
    _marker: PhantomData<&'a mut SparseVector<T>>,
}

impl<T> WordRangeWriter<'_, T> {
    /// The word range `[start, end)` this writer may touch.
    pub fn word_range(&self) -> (usize, usize) {
        (self.word_start, self.word_end)
    }

    /// The index range `[start, end)` this writer may set.
    pub fn index_range(&self) -> (usize, usize) {
        (
            self.word_start * WORD_BITS,
            (self.word_end * WORD_BITS).min(self.parts.len),
        )
    }

    /// Set index `i` to `value`, overwriting any previous value (same
    /// semantics as [`SparseVector::set`]).
    ///
    /// # Panics
    /// Panics if `i` falls outside this writer's word range.
    #[inline(always)]
    pub fn set(&mut self, i: Index, value: T) {
        let i = ix(i);
        let w = i / WORD_BITS;
        assert!(
            w >= self.word_start && w < self.word_end && i < self.parts.len,
            "index {i} outside this writer's word range [{}, {})",
            self.word_start,
            self.word_end
        );
        // SAFETY: the assert above confines `i` to this chunk's words, and
        // chunks are disjoint across threads.
        unsafe {
            *self.parts.values.add(i) = value;
            let word = self.parts.words.add(w);
            let mask = 1u64 << (i % WORD_BITS);
            if *word & mask == 0 {
                *word |= mask;
                self.added += 1;
            }
        }
    }
}

impl<T> MessageVector<T> for SparseVector<T> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.values.len()
    }

    #[inline(always)]
    fn nnz(&self) -> usize {
        self.nnz
    }

    #[inline(always)]
    fn contains(&self, i: Index) -> bool {
        self.valid.get(ix(i))
    }

    #[inline(always)]
    fn get(&self, i: Index) -> Option<&T> {
        if self.valid.get(ix(i)) {
            Some(&self.values[ix(i)])
        } else {
            None
        }
    }
}

/// Another name for [`SparseVector`], kept for code that still names the pull kernel's input so.
pub type DenseVector<T> = SparseVector<T>;

/// Sorted `(index, value)` tuple sparse vector (the paper's option 1).
///
/// Membership tests are `O(log nnz)` binary searches; kept only for the
/// Figure 7 ablation that shows why the bit-vector representation wins.
///
/// There is deliberately no `Default` impl: a defaulted vector would have
/// logical length 0 yet silently accept out-of-range writes, making
/// [`MessageVector::len`] lie about the domain. Construct with
/// [`SortedSparseVector::new`]; writes are bounds-checked in debug builds,
/// matching [`SparseVector`].
#[derive(Clone, Debug)]
pub struct SortedSparseVector<T> {
    len: usize,
    entries: Vec<(Index, T)>,
}

impl<T> SortedSparseVector<T> {
    /// Create an empty vector of logical length `n`.
    pub fn new(n: usize) -> Self {
        SortedSparseVector {
            len: n,
            entries: Vec::new(),
        }
    }

    /// Set index `i` to `value`, keeping entries sorted.
    pub fn set(&mut self, i: Index, value: T) {
        debug_assert!(ix(i) < self.len, "index {i} out of range {}", self.len);
        match self.entries.binary_search_by_key(&i, |e| e.0) {
            Ok(pos) => self.entries[pos].1 = value,
            Err(pos) => self.entries.insert(pos, (i, value)),
        }
    }

    /// Insert-or-update, mirroring [`SparseVector::merge`].
    pub fn merge(&mut self, i: Index, value: T, merge: impl FnOnce(&mut T, T)) {
        debug_assert!(ix(i) < self.len, "index {i} out of range {}", self.len);
        match self.entries.binary_search_by_key(&i, |e| e.0) {
            Ok(pos) => merge(&mut self.entries[pos].1, value),
            Err(pos) => self.entries.insert(pos, (i, value)),
        }
    }

    /// Iterate over `(index, &value)` pairs in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = (Index, &T)> + '_ {
        self.entries.iter().map(|(i, v)| (*i, v))
    }

    /// Clear all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl<T> MessageVector<T> for SortedSparseVector<T> {
    fn len(&self) -> usize {
        self.len
    }

    fn nnz(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    fn contains(&self, i: Index) -> bool {
        self.entries.binary_search_by_key(&i, |e| e.0).is_ok()
    }

    #[inline]
    fn get(&self, i: Index) -> Option<&T> {
        self.entries
            .binary_search_by_key(&i, |e| e.0)
            .ok()
            .map(|pos| &self.entries[pos].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_vector_set_get() {
        let mut v: SparseVector<f32> = SparseVector::new(10);
        assert_eq!(v.nnz(), 0);
        assert!(v.is_empty());
        v.set(3, 1.5);
        v.set(7, 2.5);
        assert_eq!(v.nnz(), 2);
        assert!(v.contains(3));
        assert!(!v.contains(4));
        assert_eq!(v.get(7), Some(&2.5));
        assert_eq!(v.get(0), None);
        assert_eq!(MessageVector::len(&v), 10);
    }

    #[test]
    fn sparse_vector_overwrite_does_not_double_count() {
        let mut v: SparseVector<i32> = SparseVector::new(5);
        v.set(2, 1);
        v.set(2, 9);
        assert_eq!(v.nnz(), 1);
        assert_eq!(v.get(2), Some(&9));
    }

    #[test]
    fn sparse_vector_unset() {
        let mut v: SparseVector<i32> = SparseVector::new(5);
        v.set(2, 1);
        v.unset(2);
        assert_eq!(v.nnz(), 0);
        assert!(!v.contains(2));
        v.unset(2); // idempotent
        assert_eq!(v.nnz(), 0);
    }

    #[test]
    fn sparse_vector_merge_accumulates() {
        let mut v: SparseVector<i32> = SparseVector::new(5);
        v.merge(1, 10, |a, b| *a += b);
        v.merge(1, 5, |a, b| *a += b);
        v.merge(2, 7, |a, b| *a += b);
        assert_eq!(v.get(1), Some(&15));
        assert_eq!(v.get(2), Some(&7));
        assert_eq!(v.nnz(), 2);
    }

    #[test]
    fn sparse_vector_full_and_clear() {
        let mut v = SparseVector::full(4, 1.0f64);
        assert_eq!(v.nnz(), 4);
        assert_eq!(v.iter().count(), 4);
        v.clear();
        assert_eq!(v.nnz(), 0);
        assert_eq!(v.iter().count(), 0);
    }

    #[test]
    fn sparse_vector_iter_sorted() {
        let mut v: SparseVector<u32> = SparseVector::new(100);
        for i in [90u32, 5, 40, 7] {
            v.set(i, i * 2);
        }
        let entries = v.to_entries();
        assert_eq!(entries, vec![(5, 10), (7, 14), (40, 80), (90, 180)]);
    }

    #[test]
    fn sparse_vector_get_mut() {
        let mut v: SparseVector<i32> = SparseVector::new(5);
        v.set(1, 3);
        *v.get_mut(1).unwrap() = 4;
        assert_eq!(v.get(1), Some(&4));
        assert!(v.get_mut(0).is_none());
    }

    #[test]
    fn sorted_vector_basics() {
        let mut v: SortedSparseVector<i32> = SortedSparseVector::new(50);
        v.set(20, 1);
        v.set(10, 2);
        v.set(20, 3);
        assert_eq!(v.nnz(), 2);
        assert!(v.contains(10));
        assert!(!v.contains(11));
        assert_eq!(v.get(20), Some(&3));
        assert_eq!(MessageVector::len(&v), 50);
        let collected: Vec<(u32, i32)> = v.iter().map(|(i, x)| (i, *x)).collect();
        assert_eq!(collected, vec![(10, 2), (20, 3)]);
    }

    #[test]
    fn sorted_vector_merge() {
        let mut v: SortedSparseVector<i32> = SortedSparseVector::new(10);
        v.merge(3, 5, |a, b| *a += b);
        v.merge(3, 6, |a, b| *a += b);
        assert_eq!(v.get(3), Some(&11));
        v.clear();
        assert_eq!(v.nnz(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of range")]
    fn sorted_vector_out_of_bounds_set_panics_in_debug() {
        let mut v: SortedSparseVector<i32> = SortedSparseVector::new(5);
        v.set(5, 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of range")]
    fn sorted_vector_out_of_bounds_merge_panics_in_debug() {
        let mut v: SortedSparseVector<i32> = SortedSparseVector::new(3);
        v.merge(7, 1, |a, b| *a += b);
    }

    #[test]
    fn sharded_merge_matches_sequential_merge() {
        // Disjoint index ranges with a boundary inside one 64-bit word.
        let mut expected: SparseVector<u64> = SparseVector::new(200);
        for i in 0..200u32 {
            expected.merge(i, i as u64, |a, b| *a += b);
            if i % 3 == 0 {
                expected.merge(i, 1, |a, b| *a += b);
            }
        }
        let mut v: SparseVector<u64> = SparseVector::new(200);
        {
            let shards = v.sharded();
            let ranges = [(0u32, 70u32), (70, 130), (130, 200)];
            std::thread::scope(|scope| {
                for (lo, hi) in ranges {
                    let shards = &shards;
                    scope.spawn(move || {
                        let mut newly = 0usize;
                        for i in lo..hi {
                            // SAFETY: ranges are disjoint.
                            unsafe { shards.merge(i, i as u64, &mut newly, |a, b| *a += b) };
                            if i % 3 == 0 {
                                // SAFETY: same disjoint range as above; re-merging
                                // an index this lane owns is explicitly allowed.
                                unsafe { shards.merge(i, 1, &mut newly, |a, b| *a += b) };
                            }
                        }
                        shards.commit(newly);
                    });
                }
            });
        }
        assert_eq!(v.nnz(), expected.nnz());
        assert_eq!(v.to_entries(), expected.to_entries());
    }

    /// The detector's acceptance test: two lanes deliberately merge into the
    /// **same** row of one `Sharded` handle — the exact bug class the unsafe
    /// disjoint-write protocol cannot tolerate — and shard-check must turn
    /// it into a panic on the second lane instead of silent UB.
    #[test]
    #[cfg(feature = "shard-check")]
    fn shard_check_catches_overlapping_sharded_claims() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::Barrier;

        let mut v: SparseVector<u64> = SparseVector::new(64);
        let shards = v.sharded();
        let barrier = Barrier::new(2);
        let caught = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|lane| {
                    let shards = &shards;
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        catch_unwind(AssertUnwindSafe(|| {
                            let mut newly = 0;
                            // Both lanes target row 7: a protocol violation.
                            // SAFETY: deliberately violates disjointness; the
                            // claim map panics before the racing write.
                            unsafe { shards.merge(7, lane as u64, &mut newly, |a, b| *a += b) };
                            shards.commit(newly);
                        }))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| panic!("join failed")))
                .collect::<Vec<_>>()
        });
        let panics = caught.iter().filter(|r| r.is_err()).count();
        assert_eq!(panics, 1, "exactly the second claimant must panic");
        let msg = caught
            .into_iter()
            .find_map(|r| r.err())
            .and_then(|p| p.downcast::<String>().ok())
            .unwrap_or_else(|| panic!("panic payload must be a String"));
        assert!(
            msg.contains("shard-check"),
            "diagnostic names the detector: {msg}"
        );
        assert!(
            msg.contains("SparseVector row[7]"),
            "diagnostic names the row: {msg}"
        );
        assert!(msg.contains("lane"), "diagnostic names the lanes: {msg}");
    }

    #[test]
    fn fill_words_parallel_matches_sequential_set() {
        let ex = Executor::new(4);
        let mut par: SparseVector<u32> = SparseVector::new(1000);
        par.fill_words_parallel(&ex, |w| {
            let (lo, hi) = w.index_range();
            for i in (lo..hi).filter(|i| i % 7 == 0) {
                w.set(i as Index, i as u32 * 2);
            }
        });
        let mut seq: SparseVector<u32> = SparseVector::new(1000);
        for i in (0..1000).step_by(7) {
            seq.set(i as Index, i as u32 * 2);
        }
        assert_eq!(par.nnz(), seq.nnz());
        assert_eq!(par.to_entries(), seq.to_entries());
    }

    #[test]
    fn fill_words_parallel_accumulates_nnz_across_calls() {
        let ex = Executor::sequential();
        let mut v: SparseVector<u8> = SparseVector::new(128);
        v.fill_words_parallel(&ex, |w| {
            let (lo, hi) = w.index_range();
            for i in lo..hi.min(10) {
                w.set(i as Index, 1);
            }
        });
        assert_eq!(v.nnz(), 10);
        // Second fill over the same indices must not double-count.
        v.fill_words_parallel(&ex, |w| {
            let (lo, hi) = w.index_range();
            for i in lo..hi.min(10) {
                w.set(i as Index, 2);
            }
        });
        assert_eq!(v.nnz(), 10);
        assert_eq!(v.get(0), Some(&2));
    }

    #[test]
    #[should_panic(expected = "word range")]
    fn word_range_writer_rejects_out_of_chunk_index() {
        let mut v: SparseVector<u8> = SparseVector::new(256);
        // Sequential executor → a single chunk covering everything, so build
        // a writer over a sub-range via a 4-lane executor and write outside.
        let ex = Executor::new(4);
        v.fill_words_parallel(&ex, |w| {
            let (lo, _) = w.word_range();
            if lo > 0 {
                w.set(0, 1); // outside this chunk
            } else {
                w.set(255, 1); // outside chunk 0 (4 words split across lanes)
            }
        });
    }

    #[test]
    fn both_representations_agree() {
        let mut bv: SparseVector<i64> = SparseVector::new(64);
        let mut sv: SortedSparseVector<i64> = SortedSparseVector::new(64);
        for (i, val) in [(5u32, 1i64), (63, 2), (0, 3), (31, 4), (5, 9)] {
            bv.set(i, val);
            sv.set(i, val);
        }
        for i in 0..64u32 {
            assert_eq!(bv.contains(i), sv.contains(i), "index {i}");
            assert_eq!(bv.get(i), sv.get(i), "index {i}");
        }
        assert_eq!(bv.nnz(), sv.nnz());
    }
}
