//! What the resident pool promises, observed through the public surface only.
//!
//! The pool is one per process and serves one job at a time, so the tests
//! here that reason about who holds it take `SERIAL` (this file is its own
//! process; the crate's unit tests cannot interfere).

use rayon::prelude::*;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier, Mutex, MutexGuard};
use std::thread::{self, ThreadId};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn pool(n: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("pool")
}

/// Miri runs these too (CI); it is a few hundred times slower.
fn scaled(n: usize) -> usize {
    if cfg!(miri) {
        (n / 200).max(2)
    } else {
        n
    }
}

#[test]
fn install_restores_the_width_after_a_panic() {
    let before = rayon::current_num_threads();
    let outer = pool(5);
    outer.install(|| {
        let unwound = catch_unwind(|| pool(3).install(|| panic!("inside install")));
        assert!(unwound.is_err());
        assert_eq!(rayon::current_num_threads(), 5);
    });
    assert_eq!(rayon::current_num_threads(), before);
}

#[test]
fn concurrent_installs_each_see_their_own_width() {
    let _serial = serial();
    let both_installed = Barrier::new(2);
    thread::scope(|s| {
        for n in [1usize, 8] {
            let both_installed = &both_installed;
            s.spawn(move || {
                pool(n).install(|| {
                    both_installed.wait();
                    assert_eq!(rayon::current_num_threads(), n);
                    // Chunk boundaries follow the width: one chunk at 1.
                    let accs = (0..1_000u32).into_par_iter().fold(|| 0u32, |a, _| a + 1);
                    assert_eq!(accs.count() == 1, n == 1);
                    both_installed.wait();
                })
            });
        }
    });
}

#[test]
fn a_job_carries_its_callers_width_to_every_thread() {
    let _serial = serial();
    let seen: BTreeSet<usize> = pool(3).install(|| {
        (0..scaled(4_096))
            .into_par_iter()
            .map(|_| rayon::current_num_threads())
            .collect()
    });
    assert_eq!(seen, BTreeSet::from([3]));
}

#[test]
fn a_nested_call_runs_on_the_thread_that_made_it() {
    let _serial = serial();
    pool(4).install(|| {
        (0..64u32).into_par_iter().for_each(|_| {
            let me = thread::current().id();
            let inner: Vec<ThreadId> = (0..256u32)
                .into_par_iter()
                .map(|_| thread::current().id())
                .collect();
            assert!(inner.iter().all(|&t| t == me));
        });
    });
}

#[test]
fn a_call_made_while_the_pool_is_occupied_runs_alone_and_does_not_wait() {
    let _serial = serial();
    let (entered_tx, entered) = mpsc::channel::<ThreadId>();
    let entered_tx = Mutex::new(entered_tx);
    let release = AtomicBool::new(false);
    thread::scope(|s| {
        // The occupier: every chunk reports in, then holds its thread until
        // released, so the poster and one worker sit inside the job.
        s.spawn(|| {
            pool(2).install(|| {
                (0..8u32).into_par_iter().for_each(|_| {
                    let tx = entered_tx.lock().unwrap().clone();
                    tx.send(thread::current().id()).unwrap();
                    while !release.load(Ordering::Acquire) {
                        thread::yield_now();
                    }
                });
            });
        });
        // Two different threads inside the job: it holds the pool.
        let first = entered.recv().unwrap();
        while entered.recv().unwrap() == first {}
        let me = thread::current().id();
        let ran_on: Vec<ThreadId> = pool(2).install(|| {
            (0..1_000u32)
                .into_par_iter()
                .map(|_| thread::current().id())
                .collect()
        });
        assert_eq!(ran_on.len(), 1_000);
        assert!(ran_on.iter().all(|&t| t == me));
        release.store(true, Ordering::Release);
    });
}

#[test]
fn a_chunk_panic_reaches_the_caller_after_claimed_chunks_finish() {
    let _serial = serial();
    let inside = AtomicUsize::new(0);
    struct Inside<'a>(&'a AtomicUsize);
    impl Drop for Inside<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        pool(4).install(|| {
            (0..4_096u32).into_par_iter().for_each(|x| {
                inside.fetch_add(1, Ordering::SeqCst);
                let _inside = Inside(&inside);
                if x == 1_000 {
                    panic!("chunk panic");
                }
                std::hint::black_box((0..200u32).sum::<u32>());
            });
        })
    }));
    let payload = unwound.expect_err("the panic must reach the caller");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk panic"));
    assert_eq!(
        inside.load(Ordering::SeqCst),
        0,
        "a chunk was still running"
    );
    // The pool is free again and serves the next job on several threads.
    let total: u64 = pool(4).install(|| (1..10_001u64).into_par_iter().map(|x| x * 2).sum());
    assert_eq!(total, 10_000 * 10_001);
}

#[test]
fn ten_thousand_tiny_jobs_complete() {
    let _serial = serial();
    let hits = AtomicUsize::new(0);
    let jobs = scaled(10_000);
    pool(2).install(|| {
        for _ in 0..jobs {
            (0..8u32).into_par_iter().for_each(|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(hits.load(Ordering::Relaxed), jobs * 8);
}

/// Everything a caller can observe of one parallel pass over `data`.
type Observed = (Vec<u64>, Vec<Vec<u64>>, Vec<usize>, Vec<u64>);

fn observe(data: &[u64]) -> Observed {
    let mapped: Vec<u64> = data.par_iter().map(|&x| x.wrapping_mul(3)).collect();
    let accumulators: Vec<Vec<u64>> = data
        .par_iter()
        .fold(Vec::new, |mut acc, &x| {
            acc.push(x);
            acc
        })
        .collect();
    let mut indices = vec![0usize; data.len()];
    indices
        .par_iter_mut()
        .enumerate()
        .for_each(|(i, slot)| *slot = i);
    let mut sorted = data.to_vec();
    sorted.par_sort_unstable();
    (mapped, accumulators, indices, sorted)
}

#[test]
fn results_do_not_depend_on_the_width_or_on_which_thread_ran_what() {
    let _serial = serial();
    let n = scaled(20_000).max(64);
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let data: Vec<u64> = (0..n)
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            x >> 44
        })
        .collect();
    let mut sorted = data.clone();
    sorted.sort_unstable();
    for width in [1usize, 2, 3, 8] {
        let first = pool(width).install(|| observe(&data));
        assert_eq!(
            first.0,
            data.iter().map(|&x| x.wrapping_mul(3)).collect::<Vec<_>>()
        );
        assert_eq!(
            first.1.concat(),
            data,
            "accumulators out of order at {width}"
        );
        assert_eq!(first.1.len() == 1, width == 1);
        assert_eq!(first.2, (0..n).collect::<Vec<_>>());
        assert_eq!(first.3, sorted);
        for _ in 1..scaled(100) {
            // Chunk boundaries (the accumulators) repeat exactly too.
            assert_eq!(pool(width).install(|| observe(&data)), first);
        }
    }
}
