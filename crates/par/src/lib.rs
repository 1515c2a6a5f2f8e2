//! # gcomm-par — deterministic data parallelism for the gcomm drivers
//!
//! A zero-dependency scoped worker pool built on [`std::thread::scope`].
//! The branch-and-bound placement search (its subtrees) and the fuzz
//! suites (their seeds) fan independent work items across workers; this
//! crate guarantees the **determinism contract** those callers rely on
//! (DESIGN.md §11): for a pure `f`, [`map`] returns exactly
//! `items.iter().enumerate().map(f).collect()` regardless of the worker
//! count — results come back in item order, and `jobs = 1` takes a strictly
//! serial in-place path so it is the reference behaviour by construction.
//!
//! Scheduling is a channel-free chunked work queue: one shared atomic
//! next-item index that workers `fetch_add`; results land in per-item
//! slots, so no ordering information ever depends on which worker ran what.
//! Worker panics propagate to the caller after all threads have joined
//! (the [`std::thread::scope`] contract), never silently dropping items.
//!
//! Worker-count resolution is shared by every driver: the `--jobs N` flag
//! (see [`take_jobs_flag`]) overrides the `GCOMM_JOBS` environment
//! variable, which overrides [`std::thread::available_parallelism`].
//!
//! ```
//! let squares = gcomm_par::map(4, &[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Default worker count: `GCOMM_JOBS` when set to a positive integer,
/// otherwise [`std::thread::available_parallelism`] (1 when unknown).
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("GCOMM_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Extracts a `--jobs <N>` flag from an argument list, removing it so the
/// binary's own parsing never sees it. Returns [`default_jobs`] when the
/// flag is absent.
///
/// # Errors
///
/// Returns a usage message when `--jobs` has a missing or non-positive
/// value.
pub fn take_jobs_flag(args: &mut Vec<String>) -> Result<usize, String> {
    let mut jobs: Option<usize> = None;
    let mut kept = Vec::with_capacity(args.len());
    let mut it = args.drain(..);
    while let Some(a) = it.next() {
        if a == "--jobs" {
            let v = it.next().ok_or("--jobs requires a value")?;
            match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => jobs = Some(n),
                _ => return Err(format!("--jobs: invalid worker count `{v}`")),
            }
        } else {
            kept.push(a);
        }
    }
    drop(it);
    *args = kept;
    Ok(jobs.unwrap_or_else(default_jobs))
}

/// Maps `f` over `items` on up to `jobs` worker threads, returning results
/// in item order.
///
/// `f` receives `(index, &item)` and must be pure up to commutative side
/// effects (budget charges, obs counters): the determinism contract is
/// that the returned vector is identical to the serial
/// `items.iter().enumerate().map(f).collect()` for any `jobs`. With
/// `jobs <= 1` (or fewer than two items) the closure runs serially on the
/// calling thread — same stack, same thread-locals — which makes that
/// path the reference semantics by construction.
///
/// # Panics
///
/// A panic in `f` propagates to the caller once all workers have joined.
pub fn map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len());
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(i, &items[i]);
                *slots[i].lock().unwrap() = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            // invariant: the queue hands out every index < items.len()
            // exactly once, and scope() joined all workers.
            slot.into_inner()
                .unwrap()
                .expect("worker filled every slot")
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Long-lived worker pool (the compile-service backend)
// ---------------------------------------------------------------------------

/// A submitted unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why [`Pool::try_submit`] refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity — the caller must shed load
    /// (reject the request) rather than buffer unboundedly.
    Full,
    /// The pool is draining or shut down and accepts no new work.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full => write!(f, "queue full"),
            SubmitError::Closed => write!(f, "pool closed"),
        }
    }
}

struct PoolState {
    queue: VecDeque<Job>,
    /// Closed pools accept no new jobs; workers drain the queue then exit.
    open: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled on every enqueue and on close.
    wake: Condvar,
    cap: usize,
}

/// A long-lived worker pool with a **bounded** job queue and explicit
/// backpressure — the execution backend of the compile service
/// (DESIGN.md §12). Unlike [`map`], which fans a known slice across
/// scoped threads, a `Pool` accepts work items one at a time as they
/// arrive from the outside world, and *refuses* them
/// ([`SubmitError::Full`]) once `queue_cap` jobs are waiting: the caller
/// sheds load instead of buffering without bound.
///
/// Worker count resolution follows the same `--jobs`/`GCOMM_JOBS`
/// conventions as [`map`] (the caller passes the resolved count).
/// [`Pool::shutdown`] closes the queue, lets the workers finish every
/// job already accepted (drain semantics), and joins them.
pub struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawns `jobs` workers (at least 1) behind a queue of at most
    /// `queue_cap` waiting jobs (at least 1).
    pub fn new(jobs: usize, queue_cap: usize) -> Pool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                open: true,
            }),
            wake: Condvar::new(),
            cap: queue_cap.max(1),
        });
        let workers = (0..jobs.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Pool { shared, workers }
    }

    /// Enqueues a job unless the queue is full or the pool is closed.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when `queue_cap` jobs are already waiting
    /// (the backpressure signal), [`SubmitError::Closed`] after
    /// [`Pool::shutdown`] began.
    pub fn try_submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        let mut state = self.shared.state.lock().unwrap();
        if !state.open {
            return Err(SubmitError::Closed);
        }
        if state.queue.len() >= self.shared.cap {
            return Err(SubmitError::Full);
        }
        state.queue.push_back(Box::new(job));
        drop(state);
        self.shared.wake.notify_one();
        Ok(())
    }

    /// Jobs waiting in the queue right now (excludes jobs mid-execution).
    pub fn queued(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// A clonable submission handle that shares this pool's queue. Handles
    /// can outlive the moment [`Pool::shutdown`] is called — their submits
    /// then fail with [`SubmitError::Closed`] — which lets the pool's owner
    /// keep drain/join authority while other threads only ever enqueue.
    pub fn handle(&self) -> PoolHandle {
        PoolHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Closes the queue, drains it (every job already accepted still
    /// runs), and joins the workers. Idempotent by construction: consumes
    /// the pool.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        self.shared.state.lock().unwrap().open = false;
        self.shared.wake.notify_all();
        for w in self.workers.drain(..) {
            // A worker panic is a bug in the submitted job; surface it.
            if let Err(e) = w.join() {
                std::panic::resume_unwind(e);
            }
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        if !self.workers.is_empty() && !std::thread::panicking() {
            self.close_and_join();
        }
    }
}

/// A clonable enqueue-only handle to a [`Pool`] (see [`Pool::handle`]).
#[derive(Clone)]
pub struct PoolHandle {
    shared: Arc<PoolShared>,
}

impl PoolHandle {
    /// Enqueues a job; same contract as [`Pool::try_submit`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] at capacity, [`SubmitError::Closed`] once the
    /// owning pool began shutting down (or was dropped).
    pub fn try_submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        let mut state = self.shared.state.lock().unwrap();
        if !state.open {
            return Err(SubmitError::Closed);
        }
        if state.queue.len() >= self.shared.cap {
            return Err(SubmitError::Full);
        }
        state.queue.push_back(Box::new(job));
        drop(state);
        self.shared.wake.notify_one();
        Ok(())
    }

    /// Jobs waiting in the queue right now.
    pub fn queued(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if !state.open {
                    return;
                }
                state = shared.wake.wait(state).unwrap();
            }
        };
        job();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial = map(1, &items, |i, &x| (i as u64) * 1000 + x);
        for jobs in [2, 3, 8, 64] {
            assert_eq!(map(jobs, &items, |i, &x| (i as u64) * 1000 + x), serial);
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        assert_eq!(map(8, &[] as &[u8], |_, &x| x), Vec::<u8>::new());
        assert_eq!(map(8, &[7u8], |_, &x| x), vec![7]);
    }

    #[test]
    fn map_runs_every_item_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let items: Vec<u32> = (0..1000).collect();
        let out = map(16, &items, |_, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x + 1
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
        assert_eq!(out[999], 1000);
    }

    #[test]
    fn pool_runs_every_accepted_job() {
        use std::sync::atomic::AtomicU64;
        let ran = Arc::new(AtomicU64::new(0));
        let pool = Pool::new(4, 64);
        for _ in 0..50 {
            let ran = Arc::clone(&ran);
            pool.try_submit(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(ran.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn pool_rejects_when_full_and_drains_on_shutdown() {
        use std::sync::atomic::AtomicU64;
        use std::sync::mpsc;
        let ran = Arc::new(AtomicU64::new(0));
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let pool = Pool::new(1, 2);
        // Occupy the single worker until released so the queue backs up.
        {
            let ran = Arc::clone(&ran);
            pool.try_submit(move || {
                started_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        started_rx.recv().unwrap();
        // Two queued jobs fill the cap; the third is refused, not buffered.
        let mut accepted = 0;
        let mut rejected = 0;
        for _ in 0..5 {
            let ran = Arc::clone(&ran);
            match pool.try_submit(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            }) {
                Ok(()) => accepted += 1,
                Err(SubmitError::Full) => rejected += 1,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert_eq!(accepted, 2, "queue cap admits exactly cap jobs");
        assert_eq!(rejected, 3);
        release_tx.send(()).unwrap();
        // Drain: the blocked job and both queued jobs all complete.
        pool.shutdown();
        assert_eq!(ran.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn pool_refuses_jobs_after_drop_begins() {
        let pool = Pool::new(2, 4);
        pool.try_submit(|| {}).unwrap();
        pool.shutdown();
        // `shutdown` consumed the pool; a fresh closed pool behaves the
        // same way via the state flag.
        let pool = Pool::new(1, 1);
        pool.shared.state.lock().unwrap().open = false;
        assert_eq!(pool.try_submit(|| {}), Err(SubmitError::Closed));
        pool.shared.state.lock().unwrap().open = true;
    }

    #[test]
    fn handle_submits_and_closes_with_pool() {
        use std::sync::atomic::AtomicU64;
        let ran = Arc::new(AtomicU64::new(0));
        let pool = Pool::new(2, 8);
        let handle = pool.handle();
        for _ in 0..10 {
            // Submission can hit backpressure while the workers catch up;
            // the contract under test is that accepted jobs all run.
            loop {
                let ran = Arc::clone(&ran);
                match handle.try_submit(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                }) {
                    Ok(()) => break,
                    Err(SubmitError::Full) => std::thread::yield_now(),
                    Err(e) => panic!("unexpected {e:?}"),
                }
            }
        }
        pool.shutdown();
        assert_eq!(ran.load(Ordering::Relaxed), 10);
        assert_eq!(handle.try_submit(|| {}), Err(SubmitError::Closed));
    }

    #[test]
    fn jobs_flag_is_extracted() {
        let mut args: Vec<String> = ["--out", "x.json", "--jobs", "3", "-v"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(take_jobs_flag(&mut args), Ok(3));
        assert_eq!(args, vec!["--out", "x.json", "-v"]);
        let mut bad: Vec<String> = vec!["--jobs".into(), "zero".into()];
        assert!(take_jobs_flag(&mut bad).is_err());
        let mut none: Vec<String> = vec!["-v".into()];
        assert!(take_jobs_flag(&mut none).unwrap() >= 1);
    }
}
