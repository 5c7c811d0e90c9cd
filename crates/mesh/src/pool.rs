//! Persistent worker pool for parallel chip ticking.
//!
//! Spawning scoped threads per cycle costs more than the ticks they run,
//! so the workers are created once (by `Simulator::set_parallelism`) and
//! fed per-cycle work through a seqlock-style epoch counter:
//!
//! 1. The coordinator writes the cycle's job (a `Fn(usize)` ticking one
//!    chunk of chips per worker index) into a shared cell, then bumps the
//!    epoch with `Release` ordering and unparks any parked worker.
//! 2. Each worker `Acquire`-loads the epoch, spinning briefly and then
//!    parking between cycles; observing a new epoch publishes the job
//!    pointer and every coordinator-side write (the pre-tick link phase)
//!    to the worker.
//! 3. Workers run the job with their index, then decrement the remaining
//!    count with `Release`; the coordinator `Acquire`-waits for zero, which
//!    publishes every chip mutation back before the post-tick link phase.
//!
//! Determinism is untouched: the pool only changes *who executes* a chunk,
//! never what a chunk contains or the order chunk results are merged (the
//! simulator still merges per-chunk wake buffers in chunk-index order).
//!
//! The job borrows the simulator's chips for the duration of one cycle;
//! [`WorkerPool::dispatch`] erases that lifetime to hand the borrow to the
//! workers, and the returned [`ActiveJob`] guard re-establishes it by
//! blocking (in `wait` or on drop, including unwinds) until every worker
//! is done. This is the same discipline as `std::thread::scope`, kept
//! sound by the guard rather than a closure scope.

#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, Thread};
use std::time::Duration;

/// Spin iterations a worker burns on the epoch before parking. Between
/// cycles the coordinator runs the serial link phases (a few microseconds
/// on meshes worth parallelising), so a short spin usually catches the
/// next epoch without a park/unpark round trip.
const SPIN_BEFORE_PARK: u32 = 4096;

/// The type-erased per-cycle job: called once per worker with the worker's
/// index (`0..worker_threads`). The coordinator itself runs an extra chunk
/// outside the pool, so worker `w` conventionally handles chunk `w + 1`.
type Job = &'static (dyn Fn(usize) + Sync);

/// The job cell: written by the coordinator strictly before the epoch bump
/// that announces it, read by workers strictly after observing that bump
/// (`Release`/`Acquire` pairs make both visible), and cleared only after
/// every worker has checked in. No two accesses race.
struct JobCell(UnsafeCell<Option<Job>>);

// SAFETY: see the struct comment — the epoch/remaining protocol serialises
// all accesses; the cell is never read and written concurrently.
unsafe impl Sync for JobCell {}

struct Shared {
    /// Monotone job counter; a change is the "new work" signal.
    epoch: AtomicU64,
    /// The job for the current epoch.
    job: JobCell,
    /// Workers that have not finished the current job yet.
    remaining: AtomicUsize,
    /// Per-worker "I am parked" flags, so the coordinator only pays an
    /// unpark syscall for workers that actually went to sleep.
    parked: Vec<AtomicBool>,
    /// Set (with the epoch bumped) to shut the workers down.
    shutdown: AtomicBool,
    /// A worker panicked while running a job; re-raised by the coordinator.
    panicked: AtomicBool,
    /// The coordinator thread to unpark when the last worker finishes.
    /// Refreshed on every dispatch (the simulator may migrate threads).
    coordinator: Mutex<Option<Thread>>,
}

/// Long-lived worker threads fed per-cycle work by epoch handoff.
///
/// Crate-internal: the simulator owns one and rebuilds it
/// when [`set_parallelism`] changes the worker count.
///
/// [`set_parallelism`]: crate::sim::Simulator::set_parallelism
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("worker_threads", &self.threads.len()).finish()
    }
}

impl WorkerPool {
    /// Spawns `worker_threads` parked workers (the coordinator's own chunk
    /// does not need a thread, so a `workers = n` simulator passes `n - 1`).
    pub fn new(worker_threads: usize) -> Self {
        let shared = Arc::new(Shared {
            epoch: AtomicU64::new(0),
            job: JobCell(UnsafeCell::new(None)),
            remaining: AtomicUsize::new(0),
            parked: (0..worker_threads).map(|_| AtomicBool::new(false)).collect(),
            shutdown: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            coordinator: Mutex::new(None),
        });
        let threads = (0..worker_threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rtr-mesh-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawning a mesh worker thread")
            })
            .collect();
        WorkerPool { shared, threads }
    }

    /// Number of pool-owned threads (excludes the coordinator).
    pub fn worker_threads(&self) -> usize {
        self.threads.len()
    }

    /// Publishes `job` to every worker and returns a guard that must be
    /// waited on (or dropped) before any state the job borrows is touched
    /// again. The call itself is the handoff: job-cell write, epoch bump,
    /// unparks for sleeping workers.
    pub fn dispatch<'a>(&'a self, job: &'a (dyn Fn(usize) + Sync)) -> ActiveJob<'a> {
        debug_assert_eq!(self.shared.remaining.load(Ordering::Relaxed), 0);
        *self.shared.coordinator.lock().expect("coordinator lock") = Some(std::thread::current());
        // SAFETY: `remaining == 0` (debug-asserted above, guaranteed by
        // `ActiveJob` consuming every dispatch), so no worker is reading
        // the cell. The lifetime erasure to `'static` is sound because the
        // returned guard blocks until `remaining` returns to zero before
        // the `'a` borrow can end — workers never hold the job past their
        // check-in.
        unsafe {
            let erased: Job = std::mem::transmute::<
                &'a (dyn Fn(usize) + Sync),
                &'static (dyn Fn(usize) + Sync),
            >(job);
            *self.shared.job.0.get() = Some(erased);
        }
        self.shared.remaining.store(self.threads.len(), Ordering::Relaxed);
        self.shared.epoch.fetch_add(1, Ordering::Release);
        for (w, thread) in self.threads.iter().enumerate() {
            if self.shared.parked[w].swap(false, Ordering::AcqRel) {
                thread.thread().unpark();
            }
        }
        ActiveJob { pool: self, done: false, _borrow: PhantomData }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.epoch.fetch_add(1, Ordering::Release);
        for thread in &self.threads {
            thread.thread().unpark();
        }
        for thread in self.threads.drain(..) {
            // A worker that panicked outside a job (impossible today) would
            // surface here; job panics are re-raised by `ActiveJob`.
            let _ = thread.join();
        }
    }
}

/// Guard for a dispatched job: the coordinator's half of the barrier.
#[must_use = "the job borrows simulator state; wait() before touching it"]
pub(crate) struct ActiveJob<'a> {
    pool: &'a WorkerPool,
    done: bool,
    _borrow: PhantomData<&'a ()>,
}

impl ActiveJob<'_> {
    /// Blocks until every worker has finished the job, then re-raises any
    /// worker panic on the coordinator.
    pub fn wait(mut self) {
        self.wait_inner();
        self.done = true;
        if self.pool.shared.panicked.swap(false, Ordering::AcqRel) {
            panic!("a mesh worker thread panicked while ticking chips");
        }
    }

    fn wait_inner(&self) {
        let shared = &self.pool.shared;
        let mut spins = 0u32;
        while shared.remaining.load(Ordering::Acquire) != 0 {
            if spins < SPIN_BEFORE_PARK {
                spins += 1;
                std::hint::spin_loop();
            } else {
                // The finishing worker unparks us; the timeout is a safety
                // net against a missed coordinator handle, not a poll loop.
                std::thread::park_timeout(Duration::from_micros(100));
            }
        }
        // All workers checked in (Release/Acquire above), so clearing the
        // cell cannot race a reader.
        unsafe {
            *shared.job.0.get() = None;
        }
    }
}

impl Drop for ActiveJob<'_> {
    fn drop(&mut self) {
        if !self.done {
            // Unwinding past the guard (e.g. a coordinator-side panic in
            // the local chunk): still block until workers release the
            // borrow, but swallow the flag — a double panic would abort.
            self.wait_inner();
            if !std::thread::panicking() && self.pool.shared.panicked.swap(false, Ordering::AcqRel)
            {
                panic!("a mesh worker thread panicked while ticking chips");
            }
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    let mut seen = 0u64;
    // Start with the spin budget exhausted: there is no job yet at spawn
    // time, and spinning here would steal CPU from the thread that just
    // spawned us (on a fully loaded host, from the simulation itself).
    let mut spins = SPIN_BEFORE_PARK;
    loop {
        let current = loop {
            let epoch = shared.epoch.load(Ordering::Acquire);
            if epoch != seen {
                break epoch;
            }
            if spins < SPIN_BEFORE_PARK {
                spins += 1;
                std::hint::spin_loop();
            } else {
                shared.parked[index].store(true, Ordering::Release);
                // Re-check after publishing the flag so an epoch bump that
                // raced the store cannot strand us parked: either we see it
                // here, or the coordinator saw our flag and unparks us.
                if shared.epoch.load(Ordering::Acquire) != seen {
                    shared.parked[index].store(false, Ordering::Release);
                    break shared.epoch.load(Ordering::Acquire);
                }
                std::thread::park();
            }
        };
        seen = current;
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // SAFETY: observing the new epoch (Acquire) orders this read after
        // the coordinator's job write (before its Release bump), and the
        // cell is not cleared until after our check-in below.
        let job = unsafe { *shared.job.0.get() };
        if let Some(job) = job {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(index)));
            if outcome.is_err() {
                shared.panicked.store(true, Ordering::Release);
            }
        }
        if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            if let Some(coordinator) = shared.coordinator.lock().expect("coordinator lock").as_ref()
            {
                coordinator.unpark();
            }
        }
        // Fresh spin budget between jobs: the next dispatch usually lands
        // within the serial link phases, so spinning catches it cheaply.
        spins = 0;
    }
}

/// A slice of work items claimable by index from any thread, each at most
/// once — the safe bridge between one shared job closure and the disjoint
/// `&mut` chunks it hands to workers.
///
/// Memory safety is enforced at runtime: claiming an index twice panics
/// (it would alias a `&mut`), and out-of-range claims return `None` so a
/// pool with more workers than chunks degrades gracefully.
pub(crate) struct ClaimSlice<'a, T> {
    ptr: *mut T,
    claimed: Box<[AtomicBool]>,
    _borrow: PhantomData<&'a mut [T]>,
}

// SAFETY: `claim` hands each element to exactly one thread (enforced by
// the `claimed` flags), so sending/sharing the view is as safe as sending
// the elements themselves.
unsafe impl<T: Send> Sync for ClaimSlice<'_, T> {}
unsafe impl<T: Send> Send for ClaimSlice<'_, T> {}

impl<'a, T> ClaimSlice<'a, T> {
    pub fn new(items: &'a mut [T]) -> Self {
        ClaimSlice {
            ptr: items.as_mut_ptr(),
            claimed: items.iter().map(|_| AtomicBool::new(false)).collect(),
            _borrow: PhantomData,
        }
    }

    /// Claims element `index`, or `None` if it is out of range.
    ///
    /// The returned borrow lives for `'a` — it derives from the original
    /// `&'a mut [T]`, not from `&self`, which is also why handing it out
    /// from a shared reference is sound: the claim flag guarantees each
    /// element is surrendered at most once.
    ///
    /// # Panics
    ///
    /// Panics if the element was already claimed — two live `&mut` to one
    /// element would be undefined behaviour, so the bug trips loudly.
    pub fn claim(&self, index: usize) -> Option<&'a mut T> {
        let flag = self.claimed.get(index)?;
        assert!(
            !flag.swap(true, Ordering::AcqRel),
            "work item {index} claimed twice — chunk/worker mapping bug"
        );
        // SAFETY: in range (checked above) and claimed exactly once, so
        // this is the only live reference to the element; the PhantomData
        // borrow keeps the backing slice alive and un-aliased for 'a.
        Some(unsafe { &mut *self.ptr.add(index) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn pool_runs_every_worker_and_reuses_threads() {
        let pool = WorkerPool::new(3);
        let hits = AtomicU32::new(0);
        for _ in 0..100 {
            let job = |_w: usize| {
                hits.fetch_add(1, Ordering::Relaxed);
            };
            pool.dispatch(&job).wait();
        }
        assert_eq!(hits.load(Ordering::Relaxed), 300);
    }

    #[test]
    fn claim_slice_hands_out_disjoint_elements() {
        let mut items = vec![0u64; 4];
        let claims = ClaimSlice::new(&mut items);
        let pool = WorkerPool::new(3);
        let job = |w: usize| {
            if let Some(item) = claims.claim(w + 1) {
                *item = (w + 1) as u64;
            }
            // Out-of-range claims are quietly absent.
            assert!(claims.claim(99).is_none());
        };
        let guard = pool.dispatch(&job);
        *claims.claim(0).expect("chunk 0") = 42;
        guard.wait();
        drop(claims);
        assert_eq!(items, vec![42, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "claimed twice")]
    fn double_claim_panics() {
        let mut items = vec![0u8; 1];
        let claims = ClaimSlice::new(&mut items);
        let _a = claims.claim(0);
        let _b = claims.claim(0);
    }

    #[test]
    fn worker_panic_reaches_the_coordinator() {
        let pool = WorkerPool::new(1);
        let job = |_w: usize| panic!("boom");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.dispatch(&job).wait();
        }));
        assert!(caught.is_err(), "the worker panic must be re-raised");
        // The pool survives a panicked job and keeps serving.
        let ok = |_w: usize| {};
        pool.dispatch(&ok).wait();
    }

    #[test]
    fn drop_joins_all_threads() {
        let pool = WorkerPool::new(4);
        let job = |_w: usize| {};
        pool.dispatch(&job).wait();
        drop(pool); // join happens here; a hang would time the test out
    }
}
