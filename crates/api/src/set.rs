//! One sorted neighbour set per vertex, and the one paged table that turns
//! any such set into a streaming graph (paper §4.1 ①, §5).
//!
//! [`NeighborSet`] is the set: LSGraph's vertex block and the Aspen,
//! PaC-tree and Sortledton sets. [`SetTable`] owns the rest once: the table,
//! its growth, copy-on-write clones, the parallel batch apply with
//! task-local counters, the edge accounting, the self-check, the footprint.
//!
//! The table is pages of `PAGE` sets, one allocation and one reference count
//! each: a batch walks sets in address order, a read is one indexed load,
//! cloning the table bumps one count per page, and a writer copies a page it
//! finds shared with a clone once (shallow for a set that shares its payload:
//! a block's spill, a functional tree). For sets that recycle (LSGraph's
//! block), a clone that drops hands each page it held alone back to the
//! writer, which copies the next shared version of that page into it
//! instead of into fresh memory. That format is private to this file.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

use rayon::prelude::*;

use crate::batch::{Run, SortedBatch};
use crate::{
    catch_invariants, CounterSnapshot, DynamicGraph, Edge, Footprint, Graph, MemoryFootprint,
    OpCounters, VertexId,
};

/// An ordered, duplicate-free set of `u32` destination ids: one vertex's
/// adjacency in a [`SetTable`]. Its footprint counts its own slot in the
/// table as well as what it points at.
pub trait NeighborSet: Clone + Default + MemoryFootprint + Send + Sync {
    /// What the methods read and the run methods record into.
    type Ctx: SetCtx;

    /// Builds a set holding a strictly ascending slice.
    fn from_sorted(sorted: &[u32], ctx: &Self::Ctx) -> Self;

    /// Number of ids held.
    fn len(&self) -> usize;

    /// Whether the set holds no id.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `x` is held.
    fn contains(&self, x: u32, ctx: &Self::Ctx) -> bool;

    /// Hands the ids to `f` in non-empty, strictly ascending slices until
    /// `f` returns `false`; returns whether the walk completed.
    fn for_each_slice_while(&self, f: &mut dyn FnMut(&[u32]) -> bool) -> bool;

    /// Inserts a strictly ascending run of ids (present ids are no-ops) and
    /// returns how many were new.
    fn insert_run(&mut self, run: &[u32], ctx: &Self::Ctx) -> usize;

    /// Deletes a strictly ascending run of ids (absent ids are no-ops) and
    /// returns how many were held.
    fn delete_run(&mut self, run: &[u32], ctx: &Self::Ctx) -> usize;

    /// Verifies the set's structural invariants, recording into no counter;
    /// panics on the first violated one.
    fn check_invariants(&self, ctx: &Self::Ctx);

    /// Whether a page of these sets that a dropped clone held alone goes
    /// back to the writer as a spare for its next copy of that page
    /// ([`NeighborSet::release_shared`], [`NeighborSet::recycle_from`]).
    /// Worth it only for a set whose copy into its own payload saves the
    /// allocations a fresh copy makes. Otherwise (the default) a clone's
    /// drop frees its pages and reads none of their counts.
    const RECYCLES: bool = false;

    /// Lets go of payload this set, on a page a dropped clone held alone,
    /// still shares with another version of the page, so that a spare
    /// keeps only what nothing else reads and a later write finds the live
    /// payload unshared. The set is a spare's from then on: never read,
    /// only overwritten by [`NeighborSet::recycle_from`]. Called only when
    /// [`NeighborSet::RECYCLES`]; the default keeps everything.
    fn release_shared(&mut self) {}

    /// Makes this set, a spare's, a copy of `live` that a write is about
    /// to change, reusing this set's own payload when it has the shape the
    /// copy needs (so the copy's layout is the one a fresh copy would
    /// have); returns whether it did. Called only when
    /// [`NeighborSet::RECYCLES`]; the default clones.
    fn recycle_from(&mut self, live: &Self) -> bool {
        self.clone_from(live);
        false
    }
}

/// What a [`NeighborSet`] reads (its settings) and records into (its
/// counters): `()` for neither, [`OpCounters`] for a baseline's counts.
pub trait SetCtx: Default + Send + Sync {
    /// The same settings, counters at zero: what one task of
    /// [`SetTable::par_apply`] records into, and a snapshot starts from.
    fn fresh(&self) -> Self;

    /// Adds the counters of `task`, a [`SetCtx::fresh`] copy, into these.
    fn absorb(&self, task: &Self);

    /// Records that a write copied a page of `sets` sets a clone shared.
    fn page_copied(&self, _sets: usize) {}

    /// Records that such a copy went into a spare page, `reused` of its
    /// sets into their own payload ([`NeighborSet::recycle_from`]).
    fn page_recycled(&self, _reused: usize) {}

    /// Records the spares the table holds once a pass is over: `pages`
    /// pages whose sets report `bytes` bytes.
    fn spares_held(&self, _pages: usize, _bytes: usize) {}

    /// What the counters hold, if they are the baselines' family.
    fn counters(&self) -> Option<CounterSnapshot> {
        None
    }
}

impl SetCtx for () {
    fn fresh(&self) -> Self {}
    fn absorb(&self, _: &()) {}
}

impl SetCtx for OpCounters {
    fn fresh(&self) -> Self {
        OpCounters::new()
    }
    fn absorb(&self, task: &Self) {
        OpCounters::absorb(self, task);
    }
    fn counters(&self) -> Option<CounterSnapshot> {
        Some(self.snapshot())
    }
}

/// The functional sets' run update (Aspen's and the PaC-tree's rule, for
/// insert and delete alike): when the run is a sizeable fraction of the set
/// (run × 4 ≥ max(len, 8)), one rebuild from the set's ids with the run
/// merged in (`insert`) or taken out ([`merged_ids`]); per-id path copying
/// with `point` otherwise. Returns how many ids changed.
pub fn bulk_or_path_copy<S: NeighborSet<Ctx = OpCounters>>(
    set: &mut S,
    run: &[u32],
    c: &OpCounters,
    insert: bool,
    point: fn(&S, u32, &OpCounters) -> Option<S>,
) -> usize {
    if run.len() * 4 >= set.len().max(8) {
        let ids = merged_ids(set.len(), run, insert, |f| set.for_each_slice_while(f));
        let next = S::from_sorted(&ids, c);
        c.rebuilds.record(1);
        c.search_steps.record(run.len() as u64);
        c.elements_moved.record(next.len() as u64);
        let changed = next.len().abs_diff(set.len());
        *set = next;
        changed
    } else {
        let mut changed = 0;
        for &u in run {
            if let Some(next) = point(set, u, c) {
                *set = next;
                changed += 1;
            }
        }
        changed
    }
}

/// The ids a slice walk hands over, with `run` merged in (`insert`) or
/// taken out, in one allocation: what a set or a container rebuilt around
/// a run is built from. `len` is how many ids the walk hands over.
pub fn merged_ids(
    len: usize,
    run: &[u32],
    insert: bool,
    walk: impl FnOnce(&mut dyn FnMut(&[u32]) -> bool) -> bool,
) -> Vec<u32> {
    let mut out = Vec::with_capacity(if insert { len + run.len() } else { len });
    let mut j = 0;
    walk(&mut |s| {
        for &x in s {
            while j < run.len() && run[j] < x {
                if insert {
                    out.push(run[j]);
                }
                j += 1;
            }
            let hit = run.get(j) == Some(&x);
            j += usize::from(hit);
            if insert || !hit {
                out.push(x);
            }
        }
        true
    });
    if insert {
        out.extend_from_slice(&run[j..]);
    }
    out
}

/// Sets per page, the unit a table shares with its clones. Larger makes a
/// snapshot cheaper and each page a lagging reader pins dearer; DESIGN.md
/// "Vertex directory" has the sweep that chose the value.
const PAGE: usize = 32;

/// One page: a shared, immutable-while-shared run of sets.
type Page<S> = Arc<[S; PAGE]>;

/// A page a dropped clone held alone, and the bytes its sets report once
/// they have released what they shared ([`NeighborSet::release_shared`]).
struct Spare<S> {
    page: Page<S>,
    bytes: usize,
}

/// A writer's spares: at most one per page, by page index, and what they
/// hold in all.
#[derive(Default)]
struct Spares<S> {
    slots: Vec<Option<Spare<S>>>,
    pages: usize,
    bytes: usize,
}

impl<S> Spares<S> {
    /// Keeps `spare` as page `i`'s and hands back the one it replaces: the
    /// last returned stays.
    fn put(&mut self, i: usize, spare: Spare<S>) -> Option<Spare<S>> {
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        self.pages += 1;
        self.bytes += spare.bytes;
        let old = self.slots[i].replace(spare)?;
        self.pages -= 1;
        self.bytes -= old.bytes;
        Some(old)
    }

    /// One slot per page of a table of `len` pages: the spares of pages at
    /// or past `len` (returned by a clone that grew) are freed.
    fn fit(&mut self, len: usize) {
        for old in self.slots.drain(len.min(self.slots.len())..).flatten() {
            self.pages -= 1;
            self.bytes -= old.bytes;
        }
        self.slots.resize_with(len, || None);
    }
}

/// What a writer shares with its clones: its spares, and how many passes
/// it has begun. Until that count moves past what it was when a clone was
/// taken, the writer still holds every page the clone does, so the clone's
/// drop has nothing to return and skips the walk.
#[derive(Default)]
struct Returns<S> {
    spares: Spares<S>,
    passes: usize,
}

/// A table's part in the returns. A table made empty is a writer and owns
/// them; each clone, and each clone of a clone, holds a weak handle and the
/// pass count at the flip, so a clone dropped after the writer frees its
/// pages as it always did, and the writer sees from the weak count whether
/// any clone is left.
enum Role<S> {
    Writer(Arc<Mutex<Returns<S>>>),
    Clone(Weak<Mutex<Returns<S>>>, usize),
}

/// The returns, whatever a panic left in them: whole entries.
fn lock<S>(returns: &Mutex<Returns<S>>) -> MutexGuard<'_, Returns<S>> {
    returns.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `count` pages of empty sets, each a clone of one `S::default()`: an
/// empty set that allocates (a functional tree's root) allocates once, as a
/// `Vec` of them filled by cloning would.
fn empty_pages<S: NeighborSet>(count: usize) -> impl Iterator<Item = Page<S>> {
    let empty = S::default();
    (0..count).map(move |_| Arc::new(std::array::from_fn(|_| empty.clone())))
}

/// Exclusive access to a page's sets, copying the page first when a clone
/// still shares it, and the bytes of the spare it took, if any. The writer
/// holds `&mut` on the table, so no clone can be created meanwhile and the
/// count only falls: a count of 1 is exclusive, and a clone dropped after
/// we read > 1 costs one harmless extra copy.
///
/// With a `spare`, the copy goes into it: the sets at `written`, which a
/// write is about to change, each into their own payload where its shape
/// allows ([`NeighborSet::recycle_from`]); every other set shallowly, as a
/// fresh copy would. Without one, [`Arc::make_mut`] copies into fresh
/// memory. The displaced version lives on in the clones that share it. A
/// page written in place, which no reader shares any more, frees its
/// spare: readers that let go of a page stop costing the writer memory.
fn page_mut<'a, S: NeighborSet>(
    live: &'a mut Page<S>,
    spare: &mut Option<Spare<S>>,
    written: impl IntoIterator<Item = usize>,
    ctx: &S::Ctx,
) -> (&'a mut [S; PAGE], Option<usize>) {
    let taken = spare.as_ref().map(|s| s.bytes);
    if Arc::strong_count(live) == 1 {
        *spare = None;
    } else {
        ctx.page_copied(PAGE);
        if let Some(Spare { mut page, .. }) = spare.take() {
            // A spare is held alone from the moment it is returned.
            if let Some(sets) = Arc::get_mut(&mut page) {
                let mut write = [false; PAGE];
                written.into_iter().for_each(|i| write[i] = true);
                let mut reused = 0;
                for ((set, from), write) in sets.iter_mut().zip(live.iter()).zip(write) {
                    if write {
                        reused += usize::from(set.recycle_from(from));
                    } else {
                        set.clone_from(from);
                    }
                }
                ctx.page_recycled(reused);
                *live = page;
            }
        }
    }
    (Arc::make_mut(live), taken)
}

/// What one task of [`SetTable::par_apply`] hands back: the sum of its
/// runs' results, the spares it took (pages, bytes), and its context.
struct Task<C> {
    applied: usize,
    spares_taken: (usize, usize),
    ctx: C,
}

/// A streaming graph over one [`NeighborSet`] per vertex, in pages. A
/// clone shares every page, and the context as its `Clone` does; dropped,
/// it returns the pages it held alone to the table it was cloned from, if
/// its sets recycle ([`NeighborSet::RECYCLES`]).
pub struct SetTable<S: NeighborSet> {
    pages: Vec<Page<S>>,
    /// Vertices in the table. The sets of the last page at or past `n` are
    /// padding: never read, never written, always empty.
    n: usize,
    num_edges: usize,
    ctx: S::Ctx,
    role: Role<S>,
}

impl<S: NeighborSet> SetTable<S> {
    /// Sets per page: what a clone shares, and a write under a clone
    /// copies ([`SetCtx::page_copied`]), at a time.
    pub const PAGE: usize = PAGE;

    /// An empty graph over `n` vertices whose sets use `ctx`.
    pub fn with_ctx(n: usize, ctx: S::Ctx) -> Self {
        SetTable {
            pages: empty_pages(n.div_ceil(PAGE)).collect(),
            n,
            num_edges: 0,
            ctx,
            role: Role::Writer(Arc::default()),
        }
    }

    /// Creates an empty graph over `n` vertices.
    pub fn new(n: usize) -> Self {
        Self::with_ctx(n, S::Ctx::default())
    }

    /// The page and slot of `v`; panics unless `v < n` (the last page's
    /// padding is not a vertex).
    #[inline]
    fn slot(&self, v: VertexId) -> (usize, usize) {
        let v = v as usize;
        assert!(v < self.n, "vertex {v} outside the table ({})", self.n);
        (v / PAGE, v % PAGE)
    }

    /// The set of `v`, which must be a vertex.
    #[inline]
    pub fn set(&self, v: VertexId) -> &S {
        let (page, slot) = self.slot(v);
        &self.pages[page][slot]
    }

    /// Every vertex's set, in id order.
    pub fn sets(&self) -> impl Iterator<Item = &S> {
        self.pages.iter().flat_map(|p| p.iter()).take(self.n)
    }

    /// What the sets read and the table's counters.
    pub fn ctx(&self) -> &S::Ctx {
        &self.ctx
    }

    /// Ensures the table covers ids below `n`; it never shrinks.
    pub fn grow_to(&mut self, n: usize) {
        if n > self.n {
            let more = n.div_ceil(PAGE) - self.pages.len();
            self.pages.extend(empty_pages(more));
            self.n = n;
        }
    }

    /// Moves the edge total by `added - removed`: the caller's accounting
    /// for what its [`SetTable::par_apply`] passes and installs changed.
    pub fn account(&mut self, added: usize, removed: usize) {
        self.num_edges = self.num_edges + added - removed;
    }

    /// Bulk-loads from an edge list in parallel.
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        Self::from_edges_with_ctx(n, edges, S::Ctx::default())
    }

    /// [`SetTable::from_edges`] with sets that use `ctx`.
    pub fn from_edges_with_ctx(n: usize, edges: &[Edge], ctx: S::Ctx) -> Self {
        let batch = SortedBatch::new(edges);
        let mut g = Self::with_ctx(n.max(batch.id_bound()), ctx);
        let built = g.par_apply(&batch, |run, set, ctx| {
            *set = S::from_sorted(run.dsts, ctx);
            run.dsts.len()
        });
        g.account(built, 0);
        g
    }

    /// A copy of the graph that later updates to either side do not reach:
    /// one reference bump per page, O(V / 32). Its counters start at zero.
    pub fn snapshot(&self) -> Self {
        self.clone_with(self.ctx.fresh())
    }

    /// A clone with context `ctx`: every page shared, and the way back to
    /// the writer's spares.
    fn clone_with(&self, ctx: S::Ctx) -> Self {
        SetTable {
            pages: self.pages.clone(),
            n: self.n,
            num_edges: self.num_edges,
            ctx,
            role: match &self.role {
                Role::Writer(returns) => Role::Clone(Arc::downgrade(returns), lock(returns).passes),
                Role::Clone(writer, flip) => Role::Clone(writer.clone(), *flip),
            },
        }
    }

    /// The vertices whose set differs from `base`'s, ascending, where `base`
    /// is an earlier clone of this table. A page still shared with `base` is
    /// unchanged, since a write copies a shared page first; inside a page
    /// that moved, `same` compares each set with `base`'s, and a vertex past
    /// `base`'s pages with an empty set. Every vertex whose ids differ is
    /// listed, and a `same` that tests shared payload by identity lists only
    /// sets written since `base`.
    pub fn changed_since(&self, base: &Self, same: impl Fn(&S, &S) -> bool) -> Vec<VertexId> {
        let empty = S::default();
        let mut changed = Vec::new();
        for (i, page) in self.pages.iter().enumerate() {
            let old = base.pages.get(i);
            if old.is_some_and(|old| Arc::ptr_eq(page, old)) {
                continue;
            }
            // A base set past its `n` is padding, which is always empty.
            let live = (self.n - i * PAGE).min(PAGE);
            for (slot, set) in page[..live].iter().enumerate() {
                if !same(set, old.map_or(&empty, |old| &old[slot])) {
                    changed.push((i * PAGE + slot) as VertexId);
                }
            }
        }
        changed
    }

    /// Replaces `v`'s set wholesale (`v` must be a vertex); a clone keeps
    /// reading the displaced version of its page, and the copy that keeps
    /// it from this write takes fresh memory. Edge accounting is the
    /// caller's (a set reset after a panic has no trustworthy length).
    pub fn install(&mut self, v: VertexId, set: S) {
        let (page, slot) = self.slot(v);
        page_mut(&mut self.pages[page], &mut None, [], &self.ctx).0[slot] = set;
    }

    /// Runs `f` once per run of `batch` on its source's set, in parallel, and
    /// returns the sum of the results; panics if a source is outside the
    /// table. Each touched page is made exclusive once ([`page_mut`], into
    /// its spare when it has one) and takes its runs in source order
    /// ([`crate::batch::par_apply_beside`], which lends each task its pages
    /// and their spares, so no task takes a lock). `f` also gets its task's
    /// context, a [`SetCtx::fresh`] one made as the task starts, to read and
    /// record into. The workers thus share no counter: the table's context
    /// absorbs each task's once the pass is over, so every total is what
    /// one shared family would hold. Edge accounting is the caller's.
    ///
    /// The spares leave the mutex for the pass, all of them freed first if
    /// no clone is left to share a page with; what clones return meanwhile
    /// joins them after it, the last returned kept. So outside a pass the
    /// writer holds at most one spare per page. A clone that writes becomes
    /// a writer: its spares are its own from its first pass.
    pub fn par_apply(
        &mut self,
        batch: &SortedBatch,
        f: impl Fn(Run<'_>, &mut S, &S::Ctx) -> usize + Sync,
    ) -> usize {
        let end = batch.runs().next_back().map_or(0, |r| r.src as usize + 1);
        assert!(end <= self.n, "apply run source outside the table");
        let shared = match &self.role {
            Role::Writer(returns) => Arc::clone(returns),
            Role::Clone(..) => {
                let returns = Arc::default();
                self.role = Role::Writer(Arc::clone(&returns));
                returns
            }
        };
        let mut spares = {
            let mut returns = lock(&shared);
            returns.passes += 1;
            std::mem::take(&mut returns.spares)
        };
        if spares.pages > 0 && Arc::weak_count(&shared) == 0 {
            spares.fit(0);
        }
        spares.fit(self.pages.len());
        let ctx = &self.ctx;
        let tasks = crate::batch::par_apply_beside::<_, _, _, PAGE>(
            &mut self.pages,
            &mut spares.slots,
            batch,
            || Task {
                applied: 0,
                spares_taken: (0, 0),
                ctx: ctx.fresh(),
            },
            |task, page, spare, runs| {
                let written = runs.clone().map(|i| batch.run(i).src as usize % PAGE);
                let (sets, taken) = page_mut(page, spare, written, &task.ctx);
                if let Some(bytes) = taken {
                    task.spares_taken.0 += 1;
                    task.spares_taken.1 += bytes;
                }
                for run in runs.map(|i| batch.run(i)) {
                    task.applied += f(run, &mut sets[run.src as usize % PAGE], &task.ctx);
                }
            },
        );
        let mut applied = 0;
        for task in &tasks {
            self.ctx.absorb(&task.ctx);
            applied += task.applied;
            spares.pages -= task.spares_taken.0;
            spares.bytes -= task.spares_taken.1;
        }
        let mut returns = lock(&shared);
        let returned = std::mem::replace(&mut returns.spares, spares);
        let held = &mut returns.spares;
        let displaced: Vec<_> = (returned.slots.into_iter().enumerate())
            .filter_map(|(i, spare)| held.put(i, spare?))
            .collect();
        self.ctx.spares_held(held.pages, held.bytes);
        drop(returns);
        drop(displaced);
        applied
    }
}

impl<S: NeighborSet> Clone for SetTable<S>
where
    S::Ctx: Clone,
{
    /// Every page shared, and the context as its `Clone` does.
    fn clone(&self) -> Self {
        self.clone_with(self.ctx.clone())
    }
}

impl<S: NeighborSet> Drop for SetTable<S> {
    /// A clone whose sets recycle ([`NeighborSet::RECYCLES`]) hands each
    /// page it holds alone, which no other version of the table can read,
    /// back to the writer's spares once its sets have released what they
    /// share; every other page just loses a reference. Reading the count
    /// first keeps a shared page to that one decrement, and a clone dropped
    /// before the writer's next pass skips even that read. Two clones
    /// dropped at once on two threads may each see the other's reference
    /// and free a page between them instead, and so may a clone whose drop
    /// reads the pass count just before a pass begins: a missed spare,
    /// nothing more.
    fn drop(&mut self) {
        if !S::RECYCLES {
            return;
        }
        let Role::Clone(writer, flip) = &self.role else {
            return;
        };
        let Some(shared) = writer.upgrade() else {
            return;
        };
        if lock(&shared).passes == *flip {
            return;
        }
        // A plain loop: the same walk as an iterator chain ran several
        // times slower, on a pass that is mostly decrements.
        let mut back = Vec::new();
        for (i, mut page) in std::mem::take(&mut self.pages).into_iter().enumerate() {
            if Arc::strong_count(&page) > 1 {
                continue;
            }
            if let Some(sets) = Arc::get_mut(&mut page) {
                // One touch per set: what it keeps is measured while hot.
                let kept = |s: &mut S| {
                    s.release_shared();
                    s.footprint().total()
                };
                let bytes = sets.iter_mut().map(kept).sum();
                back.push((i, Spare { page, bytes }));
            }
        }
        if back.is_empty() {
            return;
        }
        let mut returns = lock(&shared);
        let displaced: Vec<_> = (back.into_iter())
            .filter_map(|(i, spare)| returns.spares.put(i, spare))
            .collect();
        drop(returns);
        drop(displaced);
    }
}

impl<S: NeighborSet> Graph for SetTable<S> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.n
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.num_edges
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        self.set(v).len()
    }

    #[inline]
    fn for_each_neighbor_slice_while(
        &self,
        v: VertexId,
        f: &mut dyn FnMut(&[VertexId]) -> bool,
    ) -> bool {
        self.set(v).for_each_slice_while(f)
    }

    #[inline]
    fn has_edge(&self, v: VertexId, u: VertexId) -> bool {
        self.set(v).contains(u, &self.ctx)
    }
}

impl<S: NeighborSet> DynamicGraph for SetTable<S> {
    fn insert_batch(&mut self, batch: &[Edge]) -> usize {
        let batch = SortedBatch::new(batch);
        self.grow_to(batch.id_bound());
        let added = self.par_apply(&batch, |run, set, ctx| set.insert_run(run.dsts, ctx));
        self.account(added, 0);
        added
    }

    fn delete_batch(&mut self, batch: &[Edge]) -> usize {
        let mut batch = SortedBatch::new(batch);
        let n = self.n;
        batch.retain_sources(|src| (src as usize) < n);
        let removed = self.par_apply(&batch, |run, set, ctx| set.delete_run(run.dsts, ctx));
        self.account(0, removed);
        removed
    }

    fn op_counters(&self) -> Option<CounterSnapshot> {
        self.ctx.counters()
    }

    fn reset_instrumentation(&mut self) {
        self.ctx = self.ctx.fresh();
    }

    /// Every vertex's set, naming the vertex, then the edge total.
    fn check_invariants(&self) {
        let mut total = 0;
        for (v, set) in self.sets().enumerate() {
            if let Err(e) = catch_invariants(|| set.check_invariants(&self.ctx)) {
                panic!("vertex {v}: {e}");
            }
            total += set.len();
        }
        assert_eq!(total, self.num_edges, "edge accounting");
    }
}

impl<S: NeighborSet> MemoryFootprint for SetTable<S> {
    /// Each vertex's set; the last page's padding is not the graph's.
    fn footprint(&self) -> Footprint {
        (0..self.pages.len())
            .into_par_iter()
            .map(|i| {
                let live = (self.n - i * PAGE).min(PAGE);
                self.pages[i][..live].iter().map(S::footprint).sum()
            })
            .reduce(Footprint::default, Footprint::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StructSnapshot, StructStats};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A sorted `Vec` as a set, enough to drive the table.
    #[derive(Clone, Default)]
    struct VecSet(Vec<u32>);

    impl MemoryFootprint for VecSet {
        fn footprint(&self) -> Footprint {
            Footprint::new(self.0.len() * 4, core::mem::size_of::<Self>())
        }
    }

    impl NeighborSet for VecSet {
        type Ctx = OpCounters;

        fn from_sorted(sorted: &[u32], _: &OpCounters) -> Self {
            VecSet(sorted.to_vec())
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn contains(&self, x: u32, _: &OpCounters) -> bool {
            self.0.binary_search(&x).is_ok()
        }
        fn for_each_slice_while(&self, f: &mut dyn FnMut(&[u32]) -> bool) -> bool {
            self.0.is_empty() || f(&self.0)
        }
        fn insert_run(&mut self, run: &[u32], c: &OpCounters) -> usize {
            bulk_or_path_copy(self, run, c, true, VecSet::with)
        }
        fn delete_run(&mut self, run: &[u32], _: &OpCounters) -> usize {
            let before = self.0.len();
            self.0 = merged_ids(before, run, false, |f| f(&self.0));
            before - self.0.len()
        }
        fn check_invariants(&self, _: &OpCounters) {
            assert!(self.0.windows(2).all(|w| w[0] < w[1]), "not ascending");
        }
    }

    impl VecSet {
        fn with(&self, u: u32, c: &OpCounters) -> Option<VecSet> {
            c.search_steps.record(1);
            let i = self.0.binary_search(&u).err()?;
            let mut next = self.clone();
            next.0.insert(i, u);
            Some(next)
        }
    }

    fn edges(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs.iter().map(|&(a, b)| Edge::new(a, b)).collect()
    }

    #[test]
    fn table_grows_counts_and_resets() {
        let mut g = SetTable::<VecSet>::from_edges(2, &edges(&[(0, 1), (0, 3)]));
        let snap = g.snapshot();
        // One id into a set of two: the per-id path; nine into none: a
        // rebuild.
        assert_eq!(g.insert_batch(&edges(&[(0, 2)])), 1);
        assert_eq!(g.op_counters().unwrap().rebuilds, 0);
        let hub: Vec<Edge> = (0..9).map(|u| Edge::new(5, u)).collect();
        assert_eq!(g.insert_batch(&hub), 9);
        assert_eq!(g.op_counters().unwrap().rebuilds, 1);
        assert_eq!((g.num_vertices(), g.num_edges()), (9, 12));
        assert_eq!(g.delete_batch(&edges(&[(0, 1), (0, 7), (40, 1)])), 1);
        assert_eq!(g.neighbors(0), [2, 3]);
        assert!(g.has_edge(5, 8) && !g.has_edge(0, 1));
        assert_eq!(snap.neighbors(0), [1, 3]);
        assert_eq!(g.footprint(), Footprint::new(44, 9 * 24));
        g.reset_instrumentation();
        assert_eq!(g.op_counters(), Some(CounterSnapshot::default()));
        assert_eq!(g.validate_structure(), Ok(()));
    }

    #[test]
    fn a_miscounted_table_fails_validation() {
        let mut g = SetTable::<VecSet>::from_edges(3, &edges(&[(0, 1), (2, 0)]));
        assert_eq!(g.validate_structure(), Ok(()));
        g.num_edges += 1;
        let counted = g.op_counters();
        let err = g.validate_structure().unwrap_err();
        assert!(err.contains("edge accounting"), "{err}");
        assert_eq!(g.op_counters(), counted);
        g.num_edges -= 1;
        Arc::make_mut(&mut g.pages[0])[2].0.push(0);
        assert!(g
            .validate_structure()
            .unwrap_err()
            .contains("vertex 2: not ascending"));
    }

    /// A sorted `Vec` whose context is a shared [`StructStats`] family, as
    /// a vertex block's is: the page copies land in `cow_block_copies`, the
    /// ids a run adds in `vb_inline_hits`.
    #[derive(Clone, Default)]
    struct PageSet(Vec<u32>);

    impl MemoryFootprint for PageSet {
        fn footprint(&self) -> Footprint {
            Footprint::new(self.0.len() * 4, core::mem::size_of::<Self>())
        }
    }

    impl NeighborSet for PageSet {
        type Ctx = Stats;

        fn from_sorted(sorted: &[u32], _: &Stats) -> Self {
            PageSet(sorted.to_vec())
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn contains(&self, x: u32, _: &Stats) -> bool {
            self.0.binary_search(&x).is_ok()
        }
        fn for_each_slice_while(&self, f: &mut dyn FnMut(&[u32]) -> bool) -> bool {
            self.0.is_empty() || f(&self.0)
        }
        fn insert_run(&mut self, run: &[u32], stats: &Stats) -> usize {
            let before = self.0.len();
            self.0 = merged_ids(before, run, true, |f| f(&self.0));
            stats.vb_inline_hits.record((self.0.len() - before) as u64);
            self.0.len() - before
        }
        fn delete_run(&mut self, run: &[u32], _: &Stats) -> usize {
            let before = self.0.len();
            self.0 = merged_ids(before, run, false, |f| f(&self.0));
            before - self.0.len()
        }
        fn check_invariants(&self, _: &Stats) {
            assert!(self.0.windows(2).all(|w| w[0] < w[1]), "not ascending");
        }
        const RECYCLES: bool = true;
        /// Into its own buffer when it has one of the live one's capacity.
        fn recycle_from(&mut self, live: &Self) -> bool {
            if self.0.capacity() == 0 || self.0.capacity() != live.0.capacity() {
                *self = live.clone();
                return false;
            }
            self.0.clear();
            self.0.extend_from_slice(&live.0);
            true
        }
    }

    type Stats = Arc<StructStats>;

    impl SetCtx for Stats {
        fn fresh(&self) -> Self {
            Arc::new(StructStats::new())
        }
        fn absorb(&self, task: &Self) {
            StructStats::absorb(self, task);
        }
        fn page_copied(&self, sets: usize) {
            self.cow_block_copies.record(sets as u64);
        }
        fn page_recycled(&self, reused: usize) {
            self.cow_pages_recycled.record(1);
            self.cow_spills_recycled.record(reused as u64);
        }
        fn spares_held(&self, pages: usize, bytes: usize) {
            self.cow_spare_pages.record(pages as u64);
            self.cow_spare_bytes.record(bytes as u64);
        }
    }

    type Table = SetTable<PageSet>;

    const P: u32 = PAGE as u32;

    fn table(n: usize) -> Table {
        Table::new(n)
    }

    /// Inserts `u` into `v`'s set through the batch entry point.
    fn insert(g: &mut Table, v: u32, u: u32) {
        let batch = SortedBatch::new(&[Edge::new(v, u)]);
        let n = g.par_apply(&batch, |_, set, ctx| set.insert_run(&[u], ctx));
        g.account(n, 0);
    }

    fn cow_copies(g: &Table) -> u64 {
        g.ctx().snapshot().cow_block_copies
    }

    fn page_ptrs(g: &Table) -> Vec<*const [PageSet; PAGE]> {
        g.pages.iter().map(Arc::as_ptr).collect()
    }

    fn one(u: u32) -> PageSet {
        PageSet(vec![u])
    }

    #[test]
    fn disjoint_tasks_each_write_their_own_slot() {
        // Five sources: three on page 0, one on page 1, one on page 3.
        let srcs = [0, 2, P - 1, P, 3 * P + 1];
        let batch: Vec<Edge> = (0..40u32)
            .map(|i| Edge::new(srcs[i as usize % 5], 1_000 + i))
            .collect();
        let batch = SortedBatch::new(&batch);
        let mut g = table(4 * PAGE);
        let frozen = g.snapshot();
        let before = page_ptrs(&g);
        let applied = g.par_apply(&batch, |run, set, ctx| {
            assert_eq!(set.len(), 0);
            set.insert_run(run.dsts, ctx)
        });
        g.account(applied, 0);
        assert_eq!(applied, 40);
        for src in srcs {
            assert_eq!((g.degree(src), frozen.degree(src)), (8, 0), "source {src}");
        }
        assert_eq!(g.degree(1), 0);
        g.check_invariants();
        frozen.check_invariants();
        // Every touched page was shared with the clone, so each was copied
        // once — not once per source on it — and the untouched page was not.
        assert_eq!(cow_copies(&g), 3 * PAGE as u64);
        let after = page_ptrs(&g);
        let moved: Vec<bool> = (0..4).map(|p| before[p] != after[p]).collect();
        assert_eq!(moved, [true, true, false, true]);
        assert_eq!(page_ptrs(&frozen), before);
    }

    #[test]
    #[should_panic(expected = "outside the table")]
    fn out_of_range_source_is_refused() {
        // 4 is inside the first page's allocation but not a vertex.
        let batch = SortedBatch::new(&[Edge::new(1, 0), Edge::new(4, 0)]);
        table(4).par_apply(&batch, |_, _, _| 0);
    }

    /// The workers record into their tasks' contexts, never the table's:
    /// while the pass runs, the table's counters read what they read before
    /// the call; after it, they have moved by exactly what the runs
    /// recorded, page copies included.
    #[test]
    fn tasks_record_locally_and_the_table_absorbs_them_after_the_pass() {
        // Sources on pages 0, 1 and 3; page 2 untouched.
        let srcs = [1, 2, P + 5, 3 * P];
        let batch: Vec<Edge> = (0..4 * 200u32)
            .map(|i| Edge::new(srcs[i as usize % 4], (i * 7919) % 5_000))
            .collect();
        let batch = SortedBatch::new(&batch);
        let mut g = table(4 * PAGE);
        insert(&mut g, 3, 9);
        let frozen = g.snapshot();
        let before = g.ctx().snapshot();
        assert_ne!(before, StructSnapshot::default());
        let shared = Arc::clone(g.ctx());
        let applied = g.par_apply(&batch, |run, set, task| {
            let n = set.insert_run(run.dsts, task);
            assert!(task.snapshot().vb_inline_hits >= n as u64);
            assert_eq!(shared.snapshot(), before, "source {}", run.src);
            n
        });
        assert_eq!(applied, batch.len());
        let moved = g.ctx().snapshot().since(before);
        assert_eq!(moved.vb_inline_hits, batch.len() as u64);
        assert_eq!(moved.cow_block_copies, 3 * PAGE as u64);
        for run in batch.runs() {
            assert_eq!(g.set(run.src).0, run.dsts);
        }
        assert_eq!(frozen.degree(P + 5), 0);
    }

    /// A displaced page lives exactly as long as the last clone that can
    /// read it. (A weak handle on a page, as here, keeps the clone from
    /// returning it to the writer, so it is freed.)
    #[test]
    fn displaced_version_dies_with_its_last_reader() {
        let mut g = table(PAGE + 2);
        let (first, second) = (g.snapshot(), g.snapshot());
        let cowed = Arc::downgrade(&g.pages[0]);
        let installed = Arc::downgrade(&g.pages[1]);
        insert(&mut g, 0, 1);
        g.install(P + 1, one(0));
        assert_eq!(cow_copies(&g), 2 * PAGE as u64);
        assert_eq!((g.degree(0), first.degree(0)), (1, 0));
        assert_eq!((g.degree(P + 1), second.degree(P + 1)), (1, 0));
        drop(first);
        assert!(cowed.upgrade().is_some() && installed.upgrade().is_some());
        drop(second);
        assert!(cowed.upgrade().is_none() && installed.upgrade().is_none());
        // Unshared again: the next writes are in place.
        let live = page_ptrs(&g);
        insert(&mut g, 0, 2);
        g.install(P + 1, PageSet::default());
        assert_eq!(cow_copies(&g), 2 * PAGE as u64);
        assert_eq!(page_ptrs(&g), live);
    }

    /// The writer's spares: page index and address.
    fn spares(g: &Table) -> Vec<(usize, *const [PageSet; PAGE])> {
        let Role::Writer(returns) = &g.role else {
            unreachable!("a clone that never wrote has no spares")
        };
        let returns = lock(returns);
        let held = returns.spares.slots.iter().enumerate();
        held.filter_map(|(i, s)| Some((i, Arc::as_ptr(&s.as_ref()?.page))))
            .collect()
    }

    /// A dropped clone returns the pages it held alone and no other: a page
    /// the writer or another clone still reads stays where it is. The
    /// writer keeps one spare per page, the last returned, and the next
    /// write to a page a clone shares copies the page into its spare, a
    /// written set into its own buffer when the capacities match. A page
    /// written while no clone shares it frees its spare, and a pass with no
    /// clone left frees them all.
    #[test]
    fn only_pages_held_alone_come_back_and_one_spare_per_page_stays() {
        let mut g = table(3 * PAGE);
        g.install(1, PageSet((0..40).collect()));
        g.install(P + 1, one(5));
        g.account(41, 0);
        let (a, b) = (g.snapshot(), g.snapshot());
        let first = page_ptrs(&a)[0];
        insert(&mut g, 1, 100);
        // `a` and `b` share the displaced page 0 and the writer's pages 1, 2.
        drop(a);
        assert_eq!(spares(&g), []);
        drop(b);
        assert_eq!(spares(&g), [(0, first)]);
        // The next copy of page 0 goes into that spare; the one after has
        // none left and allocates.
        let c = g.snapshot();
        insert(&mut g, 2, 7);
        assert_eq!(page_ptrs(&g)[0], first);
        let d = g.snapshot();
        insert(&mut g, 3, 8);
        let (second, third) = (page_ptrs(&c)[0], page_ptrs(&g)[0]);
        assert!(second != first && third != first && third != second);
        // Two versions of page 0 come back; the last returned stays.
        drop(c);
        assert_eq!(spares(&g), [(0, second)]);
        drop(d);
        assert_eq!(spares(&g), [(0, first)]);
        // A pass that copies another page under a clone keeps it.
        let e = g.snapshot();
        insert(&mut g, P + 1, 6);
        assert_eq!(spares(&g), [(0, first)]);
        let before = g.ctx().snapshot();
        assert_eq!(before.cow_spare_pages, 1);
        assert!(before.cow_spare_bytes >= (PAGE * core::mem::size_of::<PageSet>()) as u64);
        // Shared again: the copy lands in the spare, the written set in
        // the buffer its old version had; the clone keeps reading its own.
        insert(&mut g, 1, 102);
        assert_eq!((page_ptrs(&g)[0], page_ptrs(&e)[0]), (first, third));
        let moved = g.ctx().snapshot().since(before);
        assert_eq!(
            (moved.cow_pages_recycled, moved.cow_spills_recycled),
            (1, 1)
        );
        assert_eq!(moved.cow_block_copies, PAGE as u64);
        assert_eq!(g.ctx().snapshot().cow_spare_pages, 0);
        assert_eq!(g.set(1).0.len(), e.set(1).0.len() + 1);
        assert_eq!(
            (g.set(2).0.as_slice(), g.set(3).0.as_slice()),
            (&[7][..], &[8][..])
        );
        g.check_invariants();
        e.check_invariants();
        // `e` still reads pages 0 and 1, but no version the writer holds:
        // page 0's new spare goes with the next write to it.
        let f = g.snapshot();
        insert(&mut g, 2, 9);
        drop(f);
        assert_eq!(spares(&g).len(), 1);
        insert(&mut g, 2, 11);
        assert_eq!(spares(&g), []);
        // The last clone gone, the next pass frees every spare, written or
        // not: `e`'s pages 0 and 1 here.
        drop(e);
        assert_eq!(spares(&g).len(), 2);
        insert(&mut g, 2 * P, 1);
        assert_eq!(spares(&g), []);
        assert_eq!(g.ctx().snapshot().cow_spare_pages, 0);
        g.check_invariants();
    }

    /// `changed_since` skips the pages a base still shares, asks `same` for
    /// each set of a page that moved, and holds a vertex past the base's
    /// pages to an empty set.
    #[test]
    fn changes_since_a_base_are_read_off_the_pages() {
        let mut g = table(2 * PAGE);
        g.install(1, one(4));
        let base = g.snapshot();
        insert(&mut g, P + 3, 9);
        g.install(P + 4, PageSet::default());
        g.grow_to(3 * PAGE + 1);
        g.install(2 * P + 5, one(1));
        let asked = std::cell::Cell::new(0);
        let same = |a: &PageSet, b: &PageSet| {
            asked.set(asked.get() + 1);
            a.0 == b.0
        };
        assert_eq!(g.changed_since(&base, same), [P + 3, 2 * P + 5]);
        assert_eq!(asked.get(), 2 * PAGE + 1, "pages 1 and 2, and vertex 3P");
        assert_eq!(g.changed_since(&g.snapshot(), |_, _| false), []);
    }

    /// `install` under a clone copies the page once, however many of its
    /// sets are then replaced; without a clone it copies nothing.
    #[test]
    fn install_copies_a_shared_page_once() {
        let mut g = table(2 * PAGE);
        g.install(3, one(7));
        assert_eq!(cow_copies(&g), 0);
        let frozen = g.snapshot();
        let before = page_ptrs(&g);
        g.install(4, one(7));
        g.install(5, one(7));
        assert_eq!(cow_copies(&g), PAGE as u64);
        assert_eq!((g.degree(4), g.degree(5)), (1, 1));
        assert_eq!(
            (frozen.degree(3), frozen.degree(4), frozen.degree(5)),
            (1, 0, 0)
        );
        let after = page_ptrs(&g);
        assert!(before[0] != after[0] && before[1] == after[1]);
        assert_eq!(page_ptrs(&frozen), before);
    }

    /// Whether reading `v` panics, through the three read entry points.
    fn read_panics(g: &Table, v: u32) -> bool {
        let reads: [&dyn Fn() -> usize; 3] =
            [&|| g.degree(v), &|| usize::from(g.has_edge(v, 0)), &|| {
                usize::from(g.for_each_neighbor_slice_while(v, &mut |_| true))
            }];
        let panicked = reads.map(|read| catch_unwind(AssertUnwindSafe(read)).is_err());
        assert!(panicked.iter().all(|&p| p == panicked[0]), "vertex {v}");
        panicked[0]
    }

    /// The table has exactly `n` vertices whatever the page size: the
    /// padding of the last page is not readable and not counted.
    #[test]
    fn padding_is_not_a_vertex() {
        for n in [1, 63, 64, 65, 130] {
            let g = table(n);
            let frozen = g.snapshot();
            assert_eq!(g.num_vertices(), n);
            assert_eq!(g.pages.len(), n.div_ceil(PAGE));
            assert_eq!(g.sets().count(), n);
            assert_eq!(g.footprint().total(), n * core::mem::size_of::<PageSet>());
            assert!(!read_panics(&g, n as u32 - 1));
            for v in n..g.pages.len() * PAGE + 1 {
                assert!(read_panics(&g, v as u32), "n {n}, live, vertex {v}");
                assert!(read_panics(&frozen, v as u32), "n {n}, clone, vertex {v}");
            }
            g.check_invariants();
        }
    }

    #[test]
    fn growth_across_a_page_boundary_leaves_a_clone_alone() {
        let n = PAGE + 3;
        let mut g = table(n);
        insert(&mut g, P + 2, 9);
        let frozen = g.snapshot();
        let before = page_ptrs(&frozen);
        // Within the last page first, then across two boundaries.
        for grown in [n + 2, 3 * PAGE + 1] {
            g.grow_to(grown);
            assert_eq!(g.num_vertices(), grown);
            insert(&mut g, grown as u32 - 1, 5);
            assert_eq!(g.degree(grown as u32 - 1), 1);
            g.check_invariants();
        }
        g.grow_to(n);
        assert_eq!(g.num_vertices(), 3 * PAGE + 1, "the table never shrinks");
        // The first write landed on the page the clone shares (its padding,
        // to the clone); the second on a page the clone never had.
        assert_eq!(cow_copies(&g), PAGE as u64);
        assert_eq!(frozen.num_vertices(), n);
        assert_eq!(frozen.num_edges(), 1);
        assert_eq!(page_ptrs(&frozen), before);
        assert_eq!(frozen.degree(P + 2), 1);
        assert!(read_panics(&frozen, n as u32));
        assert!(read_panics(&frozen, n as u32 + 1));
        frozen.check_invariants();
    }

    /// Cloning the table touches page counts only; a set is copied when
    /// its page is, and not before.
    #[test]
    fn clone_bumps_page_counts_only() {
        let mut g = table(2 * PAGE);
        g.install(1, PageSet((0..500).collect()));
        let hub = |g: &Table| g.set(1).0.as_ptr();
        let frozen = g.snapshot();
        assert!(g.pages.iter().all(|p| Arc::strong_count(p) == 2));
        assert_eq!(hub(&g), hub(&frozen));
        // A write on the other page leaves the hub's page shared as it is.
        insert(&mut g, P, 3);
        assert_eq!(hub(&g), hub(&frozen));
        // A write to the hub's page-mate copies the page, the hub with it.
        insert(&mut g, 2, 3);
        assert_ne!(hub(&g), hub(&frozen));
        assert_eq!(frozen.degree(1), 500);
        assert_eq!(g.set(1).0, frozen.set(1).0);
    }
}
