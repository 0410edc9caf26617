//! Generalized multiply/add pairs (semirings).
//!
//! The paper frames graph traversal as SpMV over a semiring (§2, §4.2):
//! "overloading the multiply and add operations of a SPMV can produce
//! different graph algorithms". A [`Semiring`] bundles the two user-defined
//! operations — `multiply` plays the role of `PROCESS_MESSAGE` restricted to
//! (message, edge) inputs, and `add` plays the role of `REDUCE`.
//!
//! The full GraphMat engine in `graphmat-core` uses a richer signature (the
//! destination vertex's property is also an input to `process_message`,
//! which is GraphMat's productivity advantage over CombBLAS), but the plain
//! semiring form is what the SpGEMM kernels here and the CombBLAS-style
//! baseline use.

/// A generalized (multiply, add) pair over message type `X`, edge type `E`
/// and accumulator type `Y`.
pub trait Semiring: Sync {
    /// Input (message) element type.
    type X;
    /// Matrix (edge) element type.
    type E;
    /// Output (accumulator) element type.
    type Y;

    /// The generalized multiplication: combine an input-vector element with a
    /// matrix element.
    fn multiply(&self, x: &Self::X, e: &Self::E) -> Self::Y;

    /// The generalized addition: fold `value` into the accumulator.
    fn add(&self, acc: &mut Self::Y, value: Self::Y);
}

/// Ordinary arithmetic `(+, ×)` over `f64` — linear-algebra SpMV, PageRank.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlusTimes;

impl Semiring for PlusTimes {
    type X = f64;
    type E = f64;
    type Y = f64;

    #[inline(always)]
    fn multiply(&self, x: &f64, e: &f64) -> f64 {
        x * e
    }

    #[inline(always)]
    fn add(&self, acc: &mut f64, value: f64) {
        *acc += value;
    }
}

/// Tropical `(min, +)` semiring over `f32` — shortest paths (SSSP).
#[derive(Clone, Copy, Debug, Default)]
pub struct MinPlus;

impl Semiring for MinPlus {
    type X = f32;
    type E = f32;
    type Y = f32;

    #[inline(always)]
    fn multiply(&self, x: &f32, e: &f32) -> f32 {
        x + e
    }

    #[inline(always)]
    fn add(&self, acc: &mut f32, value: f32) {
        if value < *acc {
            *acc = value;
        }
    }
}

/// Boolean `(or, and)` semiring — reachability / BFS frontiers.
#[derive(Clone, Copy, Debug, Default)]
pub struct OrAnd;

impl Semiring for OrAnd {
    type X = bool;
    type E = bool;
    type Y = bool;

    #[inline(always)]
    fn multiply(&self, x: &bool, e: &bool) -> bool {
        *x && *e
    }

    #[inline(always)]
    fn add(&self, acc: &mut bool, value: bool) {
        *acc = *acc || value;
    }
}

/// Counting semiring `(+, 1)` over unsigned integers: every traversed edge
/// contributes one, regardless of the message — in/out-degree computation
/// (the paper's Figure 1 example).
#[derive(Clone, Copy, Debug, Default)]
pub struct CountEdges;

impl Semiring for CountEdges {
    type X = u64;
    type E = ();
    type Y = u64;

    #[inline(always)]
    fn multiply(&self, x: &u64, _e: &()) -> u64 {
        *x
    }

    #[inline(always)]
    fn add(&self, acc: &mut u64, value: u64) {
        *acc += value;
    }
}

/// A semiring assembled from two closures; convenient for tests and one-off
/// kernels.
#[derive(Clone, Copy)]
pub struct FnSemiring<X, E, Y, M, A> {
    multiply: M,
    add: A,
    _marker: std::marker::PhantomData<fn(&X, &E) -> Y>,
}

impl<X, E, Y, M, A> FnSemiring<X, E, Y, M, A>
where
    M: Fn(&X, &E) -> Y + Sync,
    A: Fn(&mut Y, Y) + Sync,
{
    /// Build a semiring from a multiply and an add closure.
    pub fn new(multiply: M, add: A) -> Self {
        FnSemiring {
            multiply,
            add,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<X, E, Y, M, A> Semiring for FnSemiring<X, E, Y, M, A>
where
    M: Fn(&X, &E) -> Y + Sync,
    A: Fn(&mut Y, Y) + Sync,
{
    type X = X;
    type E = E;
    type Y = Y;

    #[inline(always)]
    fn multiply(&self, x: &X, e: &E) -> Y {
        (self.multiply)(x, e)
    }

    #[inline(always)]
    fn add(&self, acc: &mut Y, value: Y) {
        (self.add)(acc, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plus_times_is_arithmetic() {
        let s = PlusTimes;
        assert_eq!(s.multiply(&3.0, &4.0), 12.0);
        let mut acc = 1.0;
        s.add(&mut acc, 2.5);
        assert_eq!(acc, 3.5);
    }

    #[test]
    fn min_plus_takes_minimum() {
        let s = MinPlus;
        assert_eq!(s.multiply(&3.0, &4.0), 7.0);
        let mut acc = 10.0f32;
        s.add(&mut acc, 7.0);
        assert_eq!(acc, 7.0);
        s.add(&mut acc, 9.0);
        assert_eq!(acc, 7.0);
    }

    #[test]
    fn or_and_is_boolean() {
        let s = OrAnd;
        assert!(s.multiply(&true, &true));
        assert!(!s.multiply(&true, &false));
        let mut acc = false;
        s.add(&mut acc, false);
        assert!(!acc);
        s.add(&mut acc, true);
        assert!(acc);
    }

    #[test]
    fn count_edges_counts() {
        let s = CountEdges;
        assert_eq!(s.multiply(&1, &()), 1);
        let mut acc = 0u64;
        s.add(&mut acc, 1);
        s.add(&mut acc, 1);
        assert_eq!(acc, 2);
    }

    #[test]
    fn fn_semiring_wraps_closures() {
        let s = FnSemiring::new(
            |x: &i32, e: &i32| x * e,
            |acc: &mut i32, v| *acc = (*acc).max(v),
        );
        assert_eq!(s.multiply(&2, &5), 10);
        let mut acc = 3;
        s.add(&mut acc, 10);
        assert_eq!(acc, 10);
        s.add(&mut acc, 4);
        assert_eq!(acc, 10);
    }
}
