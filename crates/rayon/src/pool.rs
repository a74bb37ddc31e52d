//! The resident fork-join pool: one job at a time, run by the thread that
//! posted it plus parked workers, all claiming chunk indices from one cursor.
//!
//! `run(chunks, f)` posts `f`, wakes workers and starts on chunk 0 at once, so
//! a small job is mostly done before a worker arrives and costs no thread
//! creation; a large or skewed one is balanced by claiming. A call made while
//! the pool is occupied — from inside a chunk, or while another thread's job
//! is running — runs all its chunks on the calling thread, so nothing ever
//! waits for the pool. Which thread ran a chunk is never observable: callers
//! derive chunk boundaries from `(len, width())` alone.
//!
//! Workers are created once (the set grows to the widest width ever used),
//! never exit and are not joined; a chunk's panic is caught where it ran and
//! re-raised on the poster, so a worker cannot die with a job.
//!
//! All of the crate's pool `unsafe` is here: the job pointer is the poster's
//! borrowed closure with its lifetime erased.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// `spin_loop` polls a worker makes for the next job before it parks, and the
/// poster makes for workers still inside their last chunk before it sleeps.
/// See CHANGES.md (PR 16) for the measurement that set it.
const SPINS_BEFORE_PARK: u32 = 1 << 12;

thread_local! {
    /// This thread's participant bound; 0 = the host's parallelism.
    static WIDTH: Cell<usize> = const { Cell::new(0) };
}

/// At most this many threads take part in a parallel call made here.
pub(crate) fn width() -> usize {
    match WIDTH.get() {
        0 => host_width(),
        n => n,
    }
}

pub(crate) fn host_width() -> usize {
    // `available_parallelism` reads cgroup files on Linux: ask once.
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Sets this thread's width until dropped (also on unwind).
pub(crate) struct WidthGuard(usize);

impl WidthGuard {
    pub(crate) fn set(n: usize) -> Self {
        WidthGuard(WIDTH.replace(n))
    }
}

impl Drop for WidthGuard {
    fn drop(&mut self) {
        WIDTH.set(self.0);
    }
}

#[derive(Clone, Copy)]
struct Job {
    /// The poster's `&(dyn Fn(usize) + Sync)`, lifetime erased.
    f: *const (dyn Fn(usize) + Sync),
    chunks: usize,
    /// The poster's width: bounds the participants and is what
    /// `current_num_threads()` answers inside the job on every thread.
    width: usize,
}

// SAFETY: `f` points at a `Sync` closure, so calling it from another thread is
// sound while it is alive; `run` keeps it alive (see there).
unsafe impl Send for Job {}

struct Slot {
    job: Option<Job>,
    workers: usize,
    parked: usize,
}

static SLOT: Mutex<Slot> = Mutex::new(Slot {
    job: None,
    workers: 0,
    parked: 0,
});
/// Workers park here; signalled under `SLOT` when a job is posted.
static WORK: Condvar = Condvar::new();
/// The poster sleeps here; signalled under `SLOT` by the last worker to leave.
static DONE: Condvar = Condvar::new();
/// Held by the poster from before it posts until every worker has left.
/// Everything below belongs to whoever holds it.
static BUSY: AtomicBool = AtomicBool::new(false);
/// Jobs posted so far (changed under `SLOT`); a polling worker watches it.
static POSTED: AtomicUsize = AtomicUsize::new(0);
/// Next unclaimed chunk of the current job.
static NEXT: AtomicUsize = AtomicUsize::new(0);
/// Workers inside the current job (raised under `SLOT`).
static JOINED: AtomicUsize = AtomicUsize::new(0);
/// First panic payload of the current job.
static PANIC: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);

fn lock<T>(m: &'static Mutex<T>) -> MutexGuard<'static, T> {
    m.lock().expect("no user code runs under a pool lock")
}

/// Calls `f(i)` once for every `i` in `0..chunks`, on this thread and up to
/// `width() - 1` workers, and returns when all calls have returned. A panic in
/// any call stops unclaimed chunks from starting and resumes on this thread
/// after the claimed ones finish.
pub(crate) fn run(chunks: usize, f: &(dyn Fn(usize) + Sync)) {
    let width = width();
    if chunks <= 1 || width <= 1 || BUSY.swap(true, Ordering::Acquire) {
        return (0..chunks).for_each(f);
    }
    // SAFETY: only the lifetime changes. Workers reach `f` through the `Job`
    // they copy out of `SLOT` and call it only for chunks claimed while they
    // are counted in `JOINED`; they are counted under the `SLOT` lock while
    // the job is posted. Below, the job is withdrawn under that lock and this
    // function does not return before `JOINED` is back to 0, so no call
    // outlives the borrow.
    let f = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
    };
    let job = Job { f, chunks, width };
    NEXT.store(0, Ordering::Relaxed);
    {
        let mut slot = lock(&SLOT);
        while slot.workers + 1 < width {
            let spawned = std::thread::Builder::new()
                .name("rayon-shim-worker".into())
                .spawn(worker);
            if spawned.is_err() {
                break; // fewer participants, same result
            }
            slot.workers += 1;
        }
        slot.job = Some(job);
        POSTED.fetch_add(1, Ordering::Release);
        for _ in 0..slot.parked.min(width - 1).min(chunks - 1) {
            WORK.notify_one();
        }
    }
    work(job);
    lock(&SLOT).job = None;
    let mut spins = 0;
    while JOINED.load(Ordering::Acquire) != 0 {
        if spins < SPINS_BEFORE_PARK {
            spins += 1;
            std::hint::spin_loop();
            continue;
        }
        let mut slot = lock(&SLOT);
        while JOINED.load(Ordering::Acquire) != 0 {
            slot = DONE
                .wait(slot)
                .expect("no user code runs under a pool lock");
        }
    }
    let panic = lock(&PANIC).take();
    BUSY.store(false, Ordering::Release);
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

/// Claims and runs chunks until none are left.
fn work(job: Job) {
    loop {
        let i = NEXT.fetch_add(1, Ordering::Relaxed);
        if i >= job.chunks {
            return;
        }
        // SAFETY: the poster is inside `run` (this thread is the poster, or is
        // counted in `JOINED`), so the closure behind `f` is alive.
        let f = unsafe { &*job.f };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
            NEXT.store(job.chunks, Ordering::Relaxed);
            lock(&PANIC).get_or_insert(payload);
        }
    }
}

fn worker() {
    let mut seen = 0;
    loop {
        let mut spins = 0;
        while POSTED.load(Ordering::Acquire) == seen && spins < SPINS_BEFORE_PARK {
            spins += 1;
            std::hint::spin_loop();
        }
        let mut slot = lock(&SLOT);
        if POSTED.load(Ordering::Relaxed) == seen {
            slot.parked += 1;
            while POSTED.load(Ordering::Relaxed) == seen {
                slot = WORK
                    .wait(slot)
                    .expect("no user code runs under a pool lock");
            }
            slot.parked -= 1;
        }
        seen = POSTED.load(Ordering::Relaxed);
        let Some(job) = slot.job else { continue };
        if JOINED.load(Ordering::Relaxed) + 2 > job.width {
            continue; // the poster and the workers already inside fill the width
        }
        JOINED.fetch_add(1, Ordering::Relaxed);
        drop(slot);
        WIDTH.set(job.width);
        work(job);
        // Release: the poster's Acquire load of 0 sees every chunk's writes.
        if JOINED.fetch_sub(1, Ordering::Release) == 1 {
            // Taking the lock orders this after the poster's check-then-wait.
            let _slot = lock(&SLOT);
            DONE.notify_one();
        }
    }
}
