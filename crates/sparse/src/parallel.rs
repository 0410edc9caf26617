//! Partition-parallel execution on a persistent worker pool.
//!
//! The paper parallelizes the generalized SpMV by giving each thread matrix
//! partitions to process, using OpenMP dynamic scheduling so that threads that
//! finish light partitions steal the remaining heavy ones (§4.5, optimizations
//! 3 and 4). [`Executor::run_dynamic`] reproduces that: a shared atomic
//! counter hands out task (partition) indices to a fixed set of worker lanes
//! until the queue is exhausted.
//!
//! Unlike an OpenMP parallel region — and unlike the first version of this
//! module, which spawned and joined fresh OS threads on every call — the
//! [`Executor`] owns a **persistent pool** of parked worker threads:
//!
//! * the pool is created once (in [`Executor::new`]) and reused by every
//!   `run_dynamic` / `run_chunked` / `for_each_dynamic` call, so a superstep
//!   costs a condvar wake instead of a `thread::spawn` + `join` round trip.
//!   This matters most exactly where the paper says it does (§5.2.1):
//!   algorithms like road-network SSSP run thousands of supersteps that each
//!   do microseconds of work;
//! * workers park on a condvar between calls and are shut down when the
//!   executor is dropped;
//! * the calling thread participates as lane 0, so `Executor::new(n)` still
//!   means *n* lanes of compute but only `n - 1` OS threads are spawned
//!   ([`Executor::threads_spawned`] exposes the count for tests);
//! * [`Executor::sequential`] (and any 1-thread executor) spawns no pool at
//!   all and runs everything inline on the caller — important both for
//!   determinism in tests and so the single-threaded baseline of the
//!   scalability experiment (Figure 5) pays no threading overhead.
//!
//! A dispatch (`broadcast`) hands the workers a lifetime-erased pointer to
//! the caller's closure; the caller always blocks until every lane has
//! finished before returning, which is what makes the erasure sound. Panics
//! in any lane are caught, the remaining lanes drain normally, and the first
//! payload is re-raised on the caller — the pool itself survives and stays
//! usable.
//!
//! Calls on one `Executor` are serialized: the pool runs one parallel region
//! at a time. Do **not** call back into the same executor from inside a task
//! closure — that would deadlock. Nested parallelism is not something
//! GraphMat's flat partition-parallel loops need.
//!
//! [`chunks`] is the shared range-splitting helper used by [`Executor::run_chunked`]
//! and by the chunk-parallel phases in `graphmat-core` (APPLY, SEND). It
//! yields only non-empty ranges — the previous per-call-site chunk math could
//! emit empty trailing chunks that were still scheduled as tasks.

use std::mem::MaybeUninit;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Lock a pool mutex, shrugging off poisoning. Task panics are captured by
/// `catch_unwind` inside the lanes and re-raised on the caller, so a
/// poisoned pool mutex only means a lane died between those nets; the
/// counters it guards are still consistent (every update is a single
/// assignment) and the dispatch protocol must keep draining or the caller
/// deadlocks.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// [`Condvar::wait`] with the same poisoning stance as [`lock`].
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Number of hardware threads available to this process (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Process-wide count of worker threads ever spawned by [`Executor`] pools.
///
/// Tests use this to prove the engine never spawns threads inside the
/// superstep loop: the counter may only move when an executor is *created*.
pub fn threads_spawned_total() -> usize {
    SPAWN_COUNT.load(Ordering::Relaxed)
}

static SPAWN_COUNT: AtomicUsize = AtomicUsize::new(0);

/// A split of `0..len` into at most `max_chunks` contiguous, **non-empty**
/// ranges of (nearly) equal size.
///
/// `bounds(i)` for `i < count()` is guaranteed non-empty, so every scheduled
/// task has real work — callers never see the degenerate trailing chunks the
/// old `chunk_count`/`chunk_bounds` pair in the runner could produce.
#[derive(Clone, Copy, Debug)]
pub struct Chunks {
    len: usize,
    chunk: usize,
    count: usize,
}

/// Split `0..len` into at most `max_chunks` non-empty contiguous ranges.
pub fn chunks(len: usize, max_chunks: usize) -> Chunks {
    if len == 0 {
        return Chunks {
            len: 0,
            chunk: 1,
            count: 0,
        };
    }
    let max = max_chunks.max(1).min(len);
    let chunk = len.div_ceil(max);
    Chunks {
        len,
        chunk,
        count: len.div_ceil(chunk),
    }
}

impl Chunks {
    /// Number of non-empty chunks.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Half-open bounds `(start, end)` of chunk `i`; non-empty for `i < count()`.
    pub fn bounds(&self, i: usize) -> (usize, usize) {
        debug_assert!(
            i < self.count,
            "chunk index {i} out of range {}",
            self.count
        );
        let start = i * self.chunk;
        (start, (start + self.chunk).min(self.len))
    }

    /// Iterate over all `(start, end)` bounds.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.count).map(|i| self.bounds(i))
    }
}

/// A lifetime-erased pointer to the closure of the parallel region currently
/// being executed. Only ever dereferenced while the dispatching caller is
/// blocked in [`Executor::broadcast`], which keeps the borrow alive.
struct JobSlot(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared invocation is fine) and the pointer
// only crosses threads under the dispatch protocol described above.
unsafe impl Send for JobSlot {}

struct Control {
    /// Bumped once per dispatch; workers run each epoch's job exactly once.
    epoch: u64,
    job: Option<JobSlot>,
    /// Workers that have not yet finished the current epoch's job.
    remaining: usize,
    /// First panic payload captured from a worker lane this epoch.
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

struct Shared {
    control: Mutex<Control>,
    /// Signalled when a new epoch (or shutdown) is published.
    work: Condvar,
    /// Signalled when the last worker finishes an epoch.
    done: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    /// Serializes dispatches: one parallel region at a time per executor.
    caller: Mutex<()>,
    handles: Vec<JoinHandle<()>>,
}

impl Pool {
    fn new(nworkers: usize) -> Self {
        let shared = Arc::new(Shared {
            control: Mutex::new(Control {
                epoch: 0,
                job: None,
                remaining: 0,
                panic: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..nworkers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                SPAWN_COUNT.fetch_add(1, Ordering::Relaxed);
                std::thread::Builder::new()
                    .name(format!("graphmat-worker-{}", i + 1))
                    .spawn(move || worker_loop(&shared, i + 1))
                    // audit:allow(no-unwrap): pool construction is setup-time;
                    // a machine that cannot spawn a thread has nothing to
                    // degrade to, and the panic carries the OS error.
                    .expect("failed to spawn executor worker thread")
            })
            .collect();
        Pool {
            shared,
            caller: Mutex::new(()),
            handles,
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut c = lock(&self.shared.control);
            c.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, lane: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut c = lock(&shared.control);
            loop {
                if c.shutdown {
                    return;
                }
                if c.epoch != seen_epoch {
                    seen_epoch = c.epoch;
                    // audit:allow(no-unwrap): dispatch protocol invariant — a
                    // bumped epoch always publishes a job first; a None here
                    // is a pool bug and continuing would deadlock the caller.
                    break c.job.as_ref().expect("job published with epoch").0;
                }
                c = wait(&shared.work, c);
            }
        };
        // SAFETY: the dispatching caller blocks until `remaining` reaches
        // zero, so the closure behind `job` outlives this call.
        let f = unsafe { &*job };
        // RECOVERY: the task closure may panic with its output buffers
        // half-written, but those buffers belong to the dispatching caller,
        // which sees the re-raised payload and unwinds too — nothing
        // half-written is ever observed. Catching here keeps the lane (and
        // the `remaining` handshake the caller is blocked on) alive: the
        // first payload is stashed, the count still reaches zero, and the
        // pool stays usable for the next dispatch.
        let result = catch_unwind(AssertUnwindSafe(|| f(lane)));
        let mut c = lock(&shared.control);
        if let Err(payload) = result {
            if c.panic.is_none() {
                c.panic = Some(payload);
            }
        }
        c.remaining -= 1;
        if c.remaining == 0 {
            shared.done.notify_one();
        }
    }
}

/// A fixed-width parallel executor backed by a persistent worker pool.
///
/// `Executor::new(n)` provides `n` lanes of compute: `n - 1` parked pool
/// threads plus the calling thread. All scheduling entry points reuse the
/// same pool; nothing is spawned per call. The pool shuts down when the
/// executor is dropped.
pub struct Executor {
    nthreads: usize,
    pool: Option<Pool>,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new(available_threads())
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("nthreads", &self.nthreads)
            .field("pooled", &self.pool.is_some())
            .finish()
    }
}

/// Shared pointer to the `run_dynamic` result slots; each task index is
/// written by exactly one lane.
struct ResultSlots<T>(*mut MaybeUninit<T>);
// SAFETY: lanes only ever *write* through the pointer, each to the slot
// whose index it uniquely claimed from the dispatch counter, so no slot is
// aliased concurrently; the values moved across threads are `T: Send`; and
// the dispatching caller keeps the backing `Vec` alive (and does not read
// it) until every lane has finished the broadcast.
unsafe impl<T: Send> Send for ResultSlots<T> {}
unsafe impl<T: Send> Sync for ResultSlots<T> {}

impl Executor {
    /// Create an executor with `nthreads` lanes. For `nthreads > 1` this
    /// spawns the worker pool — create the executor once and reuse it; see
    /// `graphmat_core::session::Session`.
    ///
    /// # Panics
    ///
    /// Panics if `nthreads == 0`. A zero thread count is a configuration
    /// bug; callers resolve "all threads" to [`available_threads`] before
    /// constructing the executor (`graphmat_core::Session` rejects zero
    /// with a typed error).
    pub fn new(nthreads: usize) -> Self {
        assert!(
            nthreads >= 1,
            "Executor::new requires at least one lane (got 0); resolve \
             '0 = all threads' before constructing the executor"
        );
        let pool = (nthreads > 1).then(|| Pool::new(nthreads - 1));
        Executor { nthreads, pool }
    }

    /// Create a sequential executor (no pool; everything runs inline).
    pub fn sequential() -> Self {
        Executor {
            nthreads: 1,
            pool: None,
        }
    }

    /// Number of compute lanes.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Number of OS threads this executor spawned (always `nthreads - 1` for
    /// a pooled executor, 0 for a sequential one, and constant for the
    /// executor's whole lifetime — the superstep loop never spawns).
    pub fn threads_spawned(&self) -> usize {
        self.pool.as_ref().map_or(0, |p| p.handles.len())
    }

    /// Run `f(lane)` once on every lane (workers 1..n plus the caller as
    /// lane 0) and return once all lanes have finished. Panics from any lane
    /// are re-raised here after every lane has stopped touching `f`.
    fn broadcast(&self, f: &(dyn Fn(usize) + Sync)) {
        let pool = self
            .pool
            .as_ref()
            // audit:allow(no-unwrap): internal invariant — every caller
            // checks `self.pool.is_none()` and runs inline before reaching
            // the broadcast path.
            .expect("broadcast requires a pooled executor");
        let _serial = lock(&pool.caller);
        // SAFETY of the lifetime erasure: this function does not return until
        // every worker has finished running `job` (remaining == 0), so the
        // borrow of `f` is live for as long as any worker can observe it.
        let job = JobSlot(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        });
        {
            let mut c = lock(&pool.shared.control);
            c.epoch += 1;
            c.job = Some(job);
            c.remaining = pool.handles.len();
            pool.shared.work.notify_all();
        }
        // RECOVERY: lane 0 runs on the calling thread, and a panic here must
        // not skip the wait below — returning early while workers still hold
        // the lifetime-erased `job` pointer would be a use-after-free. The
        // catch holds the caller in place until `remaining` hits zero and the
        // job slot is cleared; only then is the payload re-raised.
        let caller_result = catch_unwind(AssertUnwindSafe(|| f(0)));
        let worker_panic = {
            let mut c = lock(&pool.shared.control);
            while c.remaining > 0 {
                c = wait(&pool.shared.done, c);
            }
            c.job = None;
            c.panic.take()
        };
        drop(_serial);
        if let Err(payload) = caller_result {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }

    /// Run `f(task)` for every task index in `0..ntasks`, dynamically
    /// scheduled across the executor's lanes, and return the results in task
    /// order.
    ///
    /// With one lane (or one task) everything runs inline on the caller's
    /// thread. The only allocation is the result vector itself; prefer
    /// [`Executor::for_each_dynamic`] on hot paths that do not need collected
    /// results.
    pub fn run_dynamic<T, F>(&self, ntasks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if ntasks == 0 {
            return Vec::new();
        }
        if self.pool.is_none() || ntasks == 1 {
            return (0..ntasks).map(&f).collect();
        }

        let next = AtomicUsize::new(0);
        let mut results: Vec<MaybeUninit<T>> = (0..ntasks).map(|_| MaybeUninit::uninit()).collect();
        let slots = ResultSlots(results.as_mut_ptr());
        let slots = &slots; // capture the Sync wrapper, not the raw pointer
        #[cfg(feature = "shard-check")]
        let slot_claims = crate::shard_check::ClaimMap::new(ntasks, "run_dynamic result slot");
        #[cfg(feature = "shard-check")]
        let slot_claims = &slot_claims;
        self.broadcast(&|_lane| loop {
            let task = next.fetch_add(1, Ordering::Relaxed);
            if task >= ntasks {
                break;
            }
            let value = f(task);
            // Each slot is write-once: claim before the raw write so a
            // dispatch-counter bug panics instead of aliasing the slot.
            #[cfg(feature = "shard-check")]
            slot_claims.claim_exclusive(task);
            // SAFETY: `task` was claimed from the counter by exactly one
            // lane, so this slot is written exactly once, and `slots`
            // outlives the broadcast (the caller blocks until completion).
            unsafe { (*slots.0.add(task)).write(value) };
        });
        // If any lane panicked, `broadcast` has already re-raised and we never
        // get here (the MaybeUninit vec then drops without dropping elements —
        // a leak of the completed results, never a double free or UB).

        // SAFETY: the counter handed out every index in 0..ntasks and
        // broadcast returned normally, so every slot is initialized.
        unsafe {
            let ptr = results.as_mut_ptr() as *mut T;
            let len = results.len();
            let cap = results.capacity();
            std::mem::forget(results);
            Vec::from_raw_parts(ptr, len, cap)
        }
    }

    /// Run `f(task)` for side effects only. Unlike [`Executor::run_dynamic`]
    /// this allocates nothing — it is the scheduling primitive of the
    /// allocation-free superstep hot path.
    pub fn for_each_dynamic<F>(&self, ntasks: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if ntasks == 0 {
            return;
        }
        if self.pool.is_none() || ntasks == 1 {
            for task in 0..ntasks {
                f(task);
            }
            return;
        }
        let next = AtomicUsize::new(0);
        self.broadcast(&|_lane| loop {
            let task = next.fetch_add(1, Ordering::Relaxed);
            if task >= ntasks {
                break;
            }
            f(task);
        });
    }

    /// Split the half-open range `0..n` into one contiguous chunk per lane
    /// (via [`chunks`]) and run `f(chunk_idx, start, end)` on each. Used for
    /// embarrassingly parallel loops over vertices or bit-vector words
    /// (e.g. the SEND and APPLY phases). Allocation-free.
    pub fn run_chunked<F>(&self, n: usize, f: F)
    where
        F: Fn(usize, usize, usize) + Sync,
    {
        if n == 0 {
            return;
        }
        let ch = chunks(n, self.nthreads);
        if self.pool.is_none() || ch.count() == 1 {
            for (i, (start, end)) in ch.iter().enumerate() {
                f(i, start, end);
            }
            return;
        }
        self.broadcast(&|lane| {
            if lane < ch.count() {
                let (start, end) = ch.bounds(lane);
                f(lane, start, end);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn sequential_runs_in_order() {
        let ex = Executor::sequential();
        let out = ex.run_dynamic(5, |i| i * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn parallel_results_in_task_order() {
        let ex = Executor::new(4);
        let out = ex.run_dynamic(100, |i| i as u64 * 2);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 2);
        }
    }

    #[test]
    fn zero_tasks_is_empty() {
        let ex = Executor::new(4);
        let out: Vec<u32> = ex.run_dynamic(0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_tasks() {
        let ex = Executor::new(16);
        let out = ex.run_dynamic(3, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn for_each_visits_every_task_once() {
        let ex = Executor::new(4);
        let counter = AtomicU64::new(0);
        ex.for_each_dynamic(1000, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn run_chunked_covers_range_exactly_once() {
        let ex = Executor::new(3);
        let n = 1000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        ex.run_chunked(n, |_, start, end| {
            for hit in &hits[start..end] {
                hit.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn run_chunked_empty() {
        let ex = Executor::new(3);
        ex.run_chunked(0, |_, _, _| panic!("should not be called"));
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_is_a_configuration_bug() {
        let _ = Executor::new(0);
    }

    #[test]
    fn default_uses_available_parallelism() {
        let ex = Executor::default();
        assert!(ex.nthreads() >= 1);
        assert_eq!(ex.nthreads(), available_threads());
    }

    #[test]
    fn pool_spawns_once_and_is_reused() {
        // Only the per-executor counter is asserted here: the process-global
        // `threads_spawned_total` moves whenever a concurrently running test
        // creates a pooled executor, so exact global assertions live in the
        // isolated integration binary `tests/pool_reuse.rs`.
        let ex = Executor::new(4);
        assert_eq!(ex.threads_spawned(), 3);
        // Many dispatches across all entry points: no further spawns.
        for round in 0..200 {
            let out = ex.run_dynamic(8, |i| i + round);
            assert_eq!(out.len(), 8);
            ex.for_each_dynamic(8, |_| {});
            ex.run_chunked(100, |_, _, _| {});
        }
        assert_eq!(ex.threads_spawned(), 3);
    }

    #[test]
    fn pool_survives_task_panic() {
        let ex = Executor::new(3);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            ex.for_each_dynamic(16, |t| {
                if t == 7 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err());
        // The pool is still alive and schedules correctly afterwards.
        let out = ex.run_dynamic(10, |i| i * 3);
        assert_eq!(out, (0..10).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn drop_shuts_the_pool_down() {
        let ex = Executor::new(3);
        ex.for_each_dynamic(4, |_| {});
        drop(ex); // joins the workers; nothing to assert beyond "no hang"
    }

    #[test]
    fn chunks_yield_only_nonempty_ranges() {
        // The regression the old runner chunk math had: len=9 split into up
        // to 8 chunks used to emit (8,9) followed by three empty chunks.
        let ch = chunks(9, 8);
        assert_eq!(ch.count(), 5);
        let collected: Vec<(usize, usize)> = ch.iter().collect();
        assert_eq!(collected, vec![(0, 2), (2, 4), (4, 6), (6, 8), (8, 9)]);
        assert!(collected.iter().all(|&(s, e)| e > s));
    }

    #[test]
    fn chunks_cover_range_contiguously() {
        for (len, max) in [(0, 4), (1, 4), (5, 1), (10, 3), (64, 64), (1000, 7)] {
            let ch = chunks(len, max);
            assert!(ch.count() <= max.max(1));
            let mut next = 0;
            for (s, e) in ch.iter() {
                assert_eq!(s, next, "len={len} max={max}");
                assert!(e > s, "empty chunk for len={len} max={max}");
                next = e;
            }
            assert_eq!(next, len);
        }
    }
}
