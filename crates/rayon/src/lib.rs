//! Offline stand-in for the subset of rayon this workspace uses.
//!
//! The build environment has no network access and no cached registry, so the
//! real `rayon` crate cannot be fetched. This shim reproduces the API surface
//! the workspace actually calls — `par_iter`/`into_par_iter` adapter chains,
//! `par_iter_mut().enumerate().for_each`, `par_sort_unstable`, and
//! `ThreadPoolBuilder`/`ThreadPool::install` — with *real* parallelism on a
//! resident worker set (the `pool` module's docs have the threading model).
//!
//! Every parallel call is one primitive: `0..len` is cut into chunks whose
//! boundaries depend on `(len, current_num_threads())` only, and the chunks
//! are claimed from one atomic cursor by the calling thread — which starts on
//! chunk 0 the moment it has posted the job — and by up to
//! `current_num_threads() - 1` parked workers. No OS thread is created per
//! call; a call too small to be worth a worker is simply finished by its
//! caller before one wakes, so there is no work-size cutoff.
//!
//! Semantics match rayon where it matters for this codebase:
//! - adapter chains are order-preserving (`map`/`filter`/`collect` produce
//!   the same sequence as the sequential iterator would) and lazy: a chain is
//!   fused and walked once per chunk, and range and slice sources are never
//!   materialised,
//! - `fold(identity, f)` yields one accumulator per chunk, in chunk order,
//! - `for_each`/`map` closures run concurrently on multiple OS threads, so
//!   shared-state bugs (and relaxed-atomic counter behaviour) are exercised
//!   for real,
//! - `ThreadPool::install` bounds the threads used by parallel calls made
//!   inside the closure, on the installing thread only, and is restored on
//!   unwind,
//! - a panic in a closure resumes on the caller once the chunks already
//!   claimed have finished.
//!
//! Differences from rayon: chunks are self-scheduled from a cursor, not
//! stolen, and one job runs at a time — a parallel call made from inside
//! another, or while another thread's call occupies the workers, runs on its
//! calling thread alone (it never waits). `sum` adds in sequence order, so a
//! float sum does not depend on the thread count. `par_sort_unstable`
//! requires `T: Clone + Sync` on top of rayon's `T: Ord` (its merge rounds go
//! through a scratch buffer of clones; the hot callers in this workspace sort
//! `u64` keys, where clone is a copy).

use std::ops::Range;
use std::sync::Mutex;

mod pool;

/// Number of threads a parallel call made here may use: the host's
/// parallelism, or the innermost [`ThreadPool::install`] on this thread.
/// Inside a parallel call it answers the caller's value on every thread.
pub fn current_num_threads() -> usize {
    pool::width()
}

/// Items per chunk of a parallel call over `len` items — a function of
/// `(len, current_num_threads())` only, never of which thread runs what.
/// Each of the `n` threads' even share is cut in `n` again, so a thread that
/// arrives late still finds work and what a straggler leaves unclaimed can be
/// spread over all the others.
fn chunk_size(len: usize) -> usize {
    let n = current_num_threads();
    len.div_ceil(n.saturating_mul(n)).max(1)
}

/// Runs `f` over `0..len` cut into chunks, on the pool; results in chunk order.
fn for_chunks<R: Send>(len: usize, f: impl Fn(Range<usize>) -> R + Sync) -> Vec<R> {
    let size = chunk_size(len);
    let out: Vec<Mutex<Option<R>>> = (0..len.div_ceil(size)).map(|_| Mutex::new(None)).collect();
    pool::run(out.len(), &|i| {
        let r = f(i * size..len.min((i + 1) * size));
        *out[i].lock().expect("one writer per slot") = Some(r);
    });
    out.into_iter()
        .map(|slot| slot.into_inner().expect("one writer per slot"))
        .map(|r| r.expect("the pool ran every chunk"))
        .collect()
}

/// A parallel iterator: a source of `len()` positions that can be walked
/// sequentially over any sub-range, plus adapters that compose lazily. A
/// consuming call cuts `0..len()` into chunks, walks each chunk's fused
/// adapter chain on the pool and combines the per-chunk results in chunk
/// order, so every result is what the sequential iterator would give.
#[allow(clippy::len_without_is_empty)]
pub trait ParallelIterator: Sized + Sync {
    type Item: Send;

    /// Source positions (before any `filter`/`flat_map_iter`).
    #[doc(hidden)]
    fn len(&self) -> usize;

    /// The items that source positions `r` yield, in order.
    #[doc(hidden)]
    fn seq(&self, r: Range<usize>) -> impl Iterator<Item = Self::Item>;

    fn map<U, F>(self, f: F) -> impl ParallelIterator<Item = U>
    where
        U: Send,
        F: Fn(Self::Item) -> U + Sync + Send,
    {
        Map { base: self, f }
    }

    fn filter<F>(self, f: F) -> impl ParallelIterator<Item = Self::Item>
    where
        F: Fn(&Self::Item) -> bool + Sync + Send,
    {
        self.flat_map_iter(move |x| f(&x).then_some(x))
    }

    fn filter_map<U, F>(self, f: F) -> impl ParallelIterator<Item = U>
    where
        U: Send,
        F: Fn(Self::Item) -> Option<U> + Sync + Send,
    {
        self.flat_map_iter(f)
    }

    fn flat_map_iter<U, I, F>(self, f: F) -> impl ParallelIterator<Item = U>
    where
        U: Send,
        I: IntoIterator<Item = U>,
        F: Fn(Self::Item) -> I + Sync + Send,
    {
        FlatMapIter { base: self, f }
    }

    /// One accumulator per chunk, in chunk order, like rayon's `fold`.
    fn fold<Acc, ID, F>(self, identity: ID, f: F) -> ParIter<Acc>
    where
        Acc: Send,
        ID: Fn() -> Acc + Sync + Send,
        F: Fn(Acc, Self::Item) -> Acc + Sync + Send,
    {
        ParIter::new(for_chunks(self.len(), |r| self.seq(r).fold(identity(), &f)))
    }

    /// `op` must be associative and `identity()` neutral for it, as in rayon:
    /// each chunk folds from its own `identity()`.
    fn reduce<ID, F>(self, identity: ID, op: F) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync + Send,
        F: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
    {
        for_chunks(self.len(), |r| self.seq(r).fold(identity(), &op))
            .into_iter()
            .fold(identity(), &op)
    }

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        for_chunks(self.len(), |r| self.seq(r).for_each(&f));
    }

    /// Sums the items in sequence order (the items are computed in parallel),
    /// so a floating-point sum does not depend on the thread count.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item>,
    {
        for_chunks(self.len(), |r| self.seq(r).collect::<Vec<_>>())
            .into_iter()
            .flatten()
            .sum()
    }

    fn count(self) -> usize {
        for_chunks(self.len(), |r| self.seq(r).count())
            .into_iter()
            .sum()
    }

    fn collect<C>(self) -> C
    where
        C: FromIterator<Self::Item>,
    {
        for_chunks(self.len(), |r| self.seq(r).collect::<Vec<_>>())
            .into_iter()
            .flatten()
            .collect()
    }

    fn max(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        for_chunks(self.len(), |r| self.seq(r).max())
            .into_iter()
            .flatten()
            .max()
    }

    fn min(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        for_chunks(self.len(), |r| self.seq(r).min())
            .into_iter()
            .flatten()
            .min()
    }
}

/// Kept apart from [`FlatMapIter`] because a mapped range or slice knows its
/// exact length, which `collect` uses to allocate once.
struct Map<P, F> {
    base: P,
    f: F,
}

impl<P, U, F> ParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    U: Send,
    F: Fn(P::Item) -> U + Sync + Send,
{
    type Item = U;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn seq(&self, r: Range<usize>) -> impl Iterator<Item = U> {
        self.base.seq(r).map(&self.f)
    }
}

struct FlatMapIter<P, F> {
    base: P,
    f: F,
}

impl<P, U, I, F> ParallelIterator for FlatMapIter<P, F>
where
    P: ParallelIterator,
    U: Send,
    I: IntoIterator<Item = U>,
    F: Fn(P::Item) -> I + Sync + Send,
{
    type Item = U;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn seq(&self, r: Range<usize>) -> impl Iterator<Item = U> {
        self.base.seq(r).flat_map(&self.f)
    }
}

/// An owned sequence as a parallel iterator (`vec.into_par_iter()`, `fold`'s
/// accumulators). Each item sits in its own cell so that the chunk owning its
/// position can move it out through `&self`; the locks are never contended.
pub struct ParIter<T: Send> {
    items: Vec<Mutex<Option<T>>>,
}

impl<T: Send> ParIter<T> {
    fn new(items: Vec<T>) -> Self {
        ParIter {
            items: items.into_iter().map(|x| Mutex::new(Some(x))).collect(),
        }
    }
}

impl<T: Send> ParallelIterator for ParIter<T> {
    type Item = T;
    fn len(&self) -> usize {
        self.items.len()
    }
    fn seq(&self, r: Range<usize>) -> impl Iterator<Item = T> {
        self.items[r].iter().map(|cell| {
            let item = cell.lock().expect("one taker per item").take();
            item.expect("each position is walked once")
        })
    }
}

struct RangeIter<Idx>(Range<Idx>);

impl<Idx> ParallelIterator for RangeIter<Idx>
where
    Range<Idx>: Iterator<Item = Idx> + Clone,
    Idx: Send + Sync,
{
    type Item = Idx;
    fn len(&self) -> usize {
        let (len, upper) = self.0.size_hint();
        assert_eq!(upper, Some(len), "range longer than usize::MAX");
        len
    }
    fn seq(&self, r: Range<usize>) -> impl Iterator<Item = Idx> {
        let mut rest = self.0.clone();
        if r.start > 0 {
            rest.nth(r.start - 1);
        }
        rest.take(r.len())
    }
}

struct SliceIter<'s, T>(&'s [T]);

impl<'s, T: Sync> ParallelIterator for SliceIter<'s, T> {
    type Item = &'s T;
    fn len(&self) -> usize {
        self.0.len()
    }
    fn seq(&self, r: Range<usize>) -> impl Iterator<Item = &'s T> {
        self.0[r].iter()
    }
}

/// Cuts `items` into the pieces of `size` a parallel call gives its chunks.
/// The lock only lets the one chunk that owns a piece reach its `&mut`
/// through the shared closure; it is never contended.
fn pieces_mut<T>(items: &mut [T], size: usize) -> Vec<Mutex<&mut [T]>> {
    items.chunks_mut(size).map(Mutex::new).collect()
}

/// Mutable parallel iterator over a slice (`par_iter_mut()`).
pub struct ParIterMut<'a, T: Send> {
    items: &'a mut [T],
}

impl<'a, T: Send> ParIterMut<'a, T> {
    pub fn enumerate(self) -> ParIterMutEnumerate<'a, T> {
        ParIterMutEnumerate { items: self.items }
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut T) + Sync + Send,
    {
        self.enumerate().for_each(|(_, x)| f(x));
    }
}

pub struct ParIterMutEnumerate<'a, T: Send> {
    items: &'a mut [T],
}

impl<T: Send> ParIterMutEnumerate<'_, T> {
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut T)) + Sync + Send,
    {
        let size = chunk_size(self.items.len());
        let pieces = pieces_mut(self.items, size);
        pool::run(pieces.len(), &|i| {
            let mut piece = pieces[i].lock().expect("one chunk per piece");
            for (j, x) in piece.iter_mut().enumerate() {
                f((i * size + j, x));
            }
        });
    }
}

pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> impl ParallelIterator<Item = Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> impl ParallelIterator<Item = T> {
        ParIter::new(self)
    }
}

impl<Idx> IntoParallelIterator for Range<Idx>
where
    Range<Idx>: Iterator<Item = Idx> + Clone,
    Idx: Send + Sync,
{
    type Item = Idx;
    fn into_par_iter(self) -> impl ParallelIterator<Item = Idx> {
        RangeIter(self)
    }
}

/// `slice.par_iter()` / `vec.par_iter()` (via autoderef).
pub trait ParallelSlice<T: Sync> {
    fn par_iter<'s>(&'s self) -> impl ParallelIterator<Item = &'s T>
    where
        T: 's;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter<'s>(&'s self) -> impl ParallelIterator<Item = &'s T>
    where
        T: 's,
    {
        SliceIter(self)
    }
}

/// Inputs shorter than this sort sequentially: the scratch allocation and
/// the merge passes only pay for themselves on sizeable slices.
const PAR_SORT_MIN_LEN: usize = 1 << 12;

/// Hints the CPU to pull the cache line holding `p` toward L1. The merge
/// streams two runs linearly, so a few-iterations-ahead hint hides the DRAM
/// latency of the next line.
#[inline(always)]
fn prefetch_hint<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        core::arch::x86_64::_mm_prefetch(p as *const i8, core::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(target_arch = "aarch64")]
    unsafe {
        core::arch::asm!("prfm pldl1keep, [{0}]", in(reg) p, options(nostack, preserves_flags));
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

/// How far ahead of the merge cursors to issue prefetch hints, in elements.
const MERGE_PREFETCH_DIST: usize = 16;

/// Merges adjacent sorted runs of `width` from `src` into `dst` (same
/// length), one pool chunk per run pair — pair outputs are disjoint.
fn merge_round<T: Ord + Clone + Send + Sync>(src: &[T], width: usize, dst: &mut [T]) {
    let pairs = pieces_mut(dst, 2 * width);
    pool::run(pairs.len(), &|i| {
        let mut out = pairs[i].lock().expect("one chunk per pair");
        let sc = &src[i * 2 * width..][..out.len()];
        let mid = width.min(sc.len());
        merge_pair(&sc[..mid], &sc[mid..], &mut out);
    });
}

/// Classic two-way merge of sorted `a` and `b` into `out`
/// (`out.len() == a.len() + b.len()`), with prefetch hints ahead of both
/// run cursors.
fn merge_pair<T: Ord + Clone>(a: &[T], b: &[T], out: &mut [T]) {
    let (mut i, mut j) = (0, 0);
    for o in out.iter_mut() {
        if let Some(ahead) = a.get(i + MERGE_PREFETCH_DIST) {
            prefetch_hint(ahead);
        }
        if let Some(ahead) = b.get(j + MERGE_PREFETCH_DIST) {
            prefetch_hint(ahead);
        }
        *o = if i < a.len() && (j >= b.len() || a[i] <= b[j]) {
            i += 1;
            a[i - 1].clone()
        } else {
            j += 1;
            b[j - 1].clone()
        };
    }
}

/// `slice.par_iter_mut()` and `slice.par_sort_unstable()`.
pub trait ParallelSliceMut<T: Send> {
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;
    /// Parallel merge sort: one equal run per thread is `sort_unstable`d on
    /// the pool, then pairwise merge rounds ping-pong between the slice and
    /// a scratch buffer. Bounded by [`ThreadPool::install`] like every other
    /// parallel call.
    ///
    /// Deviation from rayon's bound (`T: Ord`): the merge rounds clone
    /// through a scratch buffer and share the source slice across the
    /// pool's threads, so `T: Clone + Sync` is also required here.
    fn par_sort_unstable(&mut self)
    where
        T: Ord + Clone + Sync;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut { items: self }
    }
    fn par_sort_unstable(&mut self)
    where
        T: Ord + Clone + Sync,
    {
        let threads = current_num_threads();
        let len = self.len();
        if threads <= 1 || len < PAR_SORT_MIN_LEN {
            self.sort_unstable();
            return;
        }
        // Phase 1: sort one run per thread. Sorting costs the same
        // everywhere, so finer runs would only add merge rounds.
        let chunk = len.div_ceil(threads);
        let runs = pieces_mut(self, chunk);
        pool::run(runs.len(), &|i| {
            runs[i].lock().expect("one chunk per run").sort_unstable()
        });
        drop(runs);
        // Phase 2: merge rounds, doubling run width, alternating direction
        // between the slice and the scratch buffer.
        let mut scratch: Vec<T> = self.to_vec();
        let mut in_self = true;
        let mut width = chunk;
        while width < len {
            if in_self {
                merge_round(self, width, &mut scratch);
            } else {
                merge_round(&scratch, width, self);
            }
            in_self = !in_self;
            width *= 2;
        }
        if !in_self {
            self.clone_from_slice(&scratch);
        }
    }
}

#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A bound on how many threads take part in the parallel calls made inside
/// [`ThreadPool::install`] on the installing thread; the threads themselves
/// are the crate's one resident worker set.
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let _restore = pool::WidthGuard::set(self.num_threads);
        f()
    }

    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            pool::host_width()
        } else {
            self.num_threads
        };
        Ok(ThreadPool { num_threads: n })
    }
}

pub mod prelude {
    pub use crate::{
        IntoParallelIterator, ParIter, ParIterMut, ParallelIterator, ParallelSlice,
        ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u32> = (0..10_000).collect();
        let doubled: Vec<u32> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..10_000).map(|x| x * 2).collect::<Vec<u32>>());
    }

    #[test]
    fn range_into_par_iter_filter_count() {
        let n = (0u32..5_000)
            .into_par_iter()
            .filter(|&x| x % 3 == 0)
            .count();
        assert_eq!(n, (0u32..5_000).filter(|&x| x % 3 == 0).count());
    }

    #[test]
    fn fold_reduce_matches_sequential_sum() {
        let v: Vec<u64> = (1..=10_000).collect();
        let total = v
            .par_iter()
            .fold(|| 0u64, |acc, &x| acc + x)
            .reduce(|| 0u64, |a, b| a + b);
        assert_eq!(total, (1..=10_000u64).sum::<u64>());
    }

    #[test]
    fn for_each_runs_every_item_once() {
        let hits = AtomicU64::new(0);
        let v: Vec<u32> = (0..4_096).collect();
        v.par_iter().for_each(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4_096);
    }

    #[test]
    fn par_iter_mut_enumerate_writes_indices() {
        let mut v = vec![0usize; 3_000];
        v.par_iter_mut().enumerate().for_each(|(i, x)| *x = i * 7);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i * 7);
        }
    }

    #[test]
    fn flat_map_iter_flattens_in_order() {
        let out: Vec<u32> = (0u32..100)
            .into_par_iter()
            .flat_map_iter(|c| (0..3).map(move |k| c * 10 + k))
            .collect();
        let expect: Vec<u32> = (0u32..100)
            .flat_map(|c| (0..3).map(move |k| c * 10 + k))
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn par_sort_unstable_sorts() {
        let mut v: Vec<u64> = (0..2_000).rev().collect();
        v.par_sort_unstable();
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn par_sort_matches_sequential_across_thread_counts() {
        // Deterministic pseudo-random input (LCG), with duplicates.
        // Under Miri (CI) just past the parallel-sort threshold.
        let n = if cfg!(miri) { 5_000 } else { 100_000 };
        let mut data: Vec<u64> = Vec::with_capacity(n);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..n {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            data.push(x >> 40); // narrow range => many duplicates
        }
        let mut expect = data.clone();
        expect.sort_unstable();
        for threads in [1usize, 2, 3, 8] {
            let pool = crate::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let mut got = data.clone();
            pool.install(|| got.par_sort_unstable());
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_sort_accepts_non_copy_types_across_thread_counts() {
        // `String` is Ord + Clone but not Copy: exercises the clone-based
        // merge path that real rayon supports (`T: Ord + Send`).
        let n = if cfg!(miri) { 5_000 } else { 20_000 };
        let mut data: Vec<String> = Vec::with_capacity(n);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..n {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            data.push(format!("key-{:05}", x >> 48));
        }
        let mut expect = data.clone();
        expect.sort_unstable();
        for threads in [1usize, 2, 8] {
            let pool = crate::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let mut got = data.clone();
            pool.install(|| got.par_sort_unstable());
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_sort_handles_uneven_and_tiny_inputs() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(7)
            .build()
            .expect("pool");
        for len in [0usize, 1, 2, 31, 4_095, 4_096, 4_097, 9_999] {
            let mut v: Vec<u64> = (0..len as u64).rev().map(|i| i % 97).collect();
            let mut expect = v.clone();
            expect.sort_unstable();
            pool.install(|| v.par_sort_unstable());
            assert_eq!(v, expect, "len={len}");
        }
    }

    #[test]
    fn pool_install_bounds_threads() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .expect("pool");
        let inside = pool.install(crate::current_num_threads);
        assert_eq!(inside, 2);
    }
}
