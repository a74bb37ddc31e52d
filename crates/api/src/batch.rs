//! Batch-update preparation shared by every engine (paper §5, "Batch
//! Updates").
//!
//! The paper's pipeline sorts a batch by source then destination id, dedups
//! it, and splits it into per-source groups so each group is applied by one
//! thread without locking. [`SortedBatch`] is that pipeline's product, and
//! every engine builds one per batch. One walk, [`par_apply`], lends each
//! group of runs its own stretch of a table. The sort runs in parallel and its time is
//! charged to the update, exactly as the paper charges it to throughput.

use std::ops::Range;

use rayon::prelude::*;

use crate::edge::Edge;

/// Sorts a batch by `(src, dst)` in parallel and removes duplicates.
pub fn sorted_dedup_keys(batch: &[Edge]) -> Vec<u64> {
    let mut keys: Vec<u64> = batch.iter().map(|e| e.key()).collect();
    keys.par_sort_unstable();
    keys.dedup();
    keys
}

/// A contiguous run of sorted keys sharing one source vertex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SrcRun {
    /// The shared source vertex.
    pub src: u32,
    /// Start offset into the key slice.
    pub start: usize,
    /// End offset (exclusive).
    pub end: usize,
}

/// Splits sorted packed keys into per-source runs.
pub fn runs_by_src(keys: &[u64]) -> Vec<SrcRun> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < keys.len() {
        let src = (keys[i] >> 32) as u32;
        let mut j = i + 1;
        while j < keys.len() && (keys[j] >> 32) as u32 == src {
            j += 1;
        }
        runs.push(SrcRun {
            src,
            start: i,
            end: j,
        });
        i = j;
    }
    runs
}

/// One source's share of a [`SortedBatch`].
#[derive(Clone, Copy, Debug)]
pub struct Run<'a> {
    /// Its position among the batch's runs, from 0.
    pub index: usize,
    /// The source vertex.
    pub src: u32,
    /// Its destinations, strictly ascending and non-empty.
    pub dsts: &'a [u32],
}

/// A batch sorted by `(src, dst)`, deduplicated, and cut into per-source
/// runs over one array of destination ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SortedBatch {
    /// Every run's destinations, run after run.
    dsts: Vec<u32>,
    /// Strictly ascending sources; `start..end` indexes `dsts`.
    runs: Vec<SrcRun>,
}

impl SortedBatch {
    /// Sorts, deduplicates and groups `batch`.
    pub fn new(batch: &[Edge]) -> Self {
        SortedBatch::from_keys(&sorted_dedup_keys(batch))
    }

    /// Groups keys as [`sorted_dedup_keys`] returns them (the second step on
    /// its own, for a caller that times the two apart).
    pub fn from_keys(keys: &[u64]) -> Self {
        SortedBatch {
            dsts: keys.iter().map(|&k| k as u32).collect(),
            runs: runs_by_src(keys),
        }
    }

    /// The run at `index`, as [`par_apply`] hands the indices out.
    pub fn run(&self, index: usize) -> Run<'_> {
        let r = &self.runs[index];
        Run {
            index,
            src: r.src,
            dsts: &self.dsts[r.start..r.end],
        }
    }

    /// Number of distinct edges.
    pub fn len(&self) -> usize {
        self.dsts.len()
    }

    /// Whether the batch holds no edge.
    pub fn is_empty(&self) -> bool {
        self.dsts.is_empty()
    }

    /// One past the largest id the batch names as source or destination (0
    /// when empty): the vertex count an insert grows its table to. One pass
    /// over the destinations.
    pub fn id_bound(&self) -> usize {
        let top_src = self.runs.last().map(|r| r.src);
        top_src
            .max(self.dsts.iter().copied().max())
            .map_or(0, |m| m as usize + 1)
    }

    /// Keeps only the runs whose source `keep` accepts; a delete drops
    /// sources beyond its table this way, since their edges cannot exist.
    pub fn retain_sources(&mut self, mut keep: impl FnMut(u32) -> bool) {
        let (dsts, mut len) = (&mut self.dsts, 0);
        self.runs.retain_mut(|r| {
            if !keep(r.src) {
                return false;
            }
            if r.start != len {
                dsts.copy_within(r.start..r.end, len);
                (r.start, r.end) = (len, len + r.end - r.start);
            }
            len = r.end;
            true
        });
        self.dsts.truncate(len);
    }

    /// The runs, by ascending source.
    pub fn runs(&self) -> impl DoubleEndedIterator<Item = Run<'_>> + ExactSizeIterator {
        (0..self.runs.len()).map(|i| self.run(i))
    }

    /// Every run's destinations, run after run.
    pub fn into_dsts(self) -> Vec<u32> {
        self.dsts
    }
}

/// Pairs each item with its own stretch `table[range]`. The walk goes
/// forward once, splitting each stretch off the rest of the table, so every
/// slot is borrowed at most once and the pairs can go to different threads.
///
/// # Panics
///
/// Panics unless the ranges are non-empty, strictly ascend without
/// overlapping, and lie inside `table`.
fn disjoint_mut<T, I>(
    table: &mut [T],
    items: impl IntoIterator<Item = (Range<usize>, I)>,
) -> Vec<(&mut [T], I)> {
    let len = table.len();
    let (mut rest, mut next) = (table, 0);
    let mut out = Vec::new();
    for (r, item) in items {
        assert!(
            next <= r.start && r.start < r.end,
            "disjoint walk ranges must strictly ascend"
        );
        assert!(
            r.end <= len,
            "disjoint walk range {r:?} outside a table of {len}"
        );
        let (stretch, tail) = std::mem::take(&mut rest)[r.start - next..].split_at_mut(r.len());
        (rest, next) = (tail, r.end);
        out.push((stretch, item));
    }
    out
}

/// Runs `f` on every slot `table[src / PER]` that some run's source falls
/// in, with the indices of the runs on that slot (ascending, each read with
/// [`SortedBatch::run`]), on the pool. The runs are cut into as many groups
/// as a parallel call has chunks (threads²), never inside a slot; each group
/// is one task, which starts from its own `task()` and borrows the stretch
/// of `table` from its first slot to its last, so lending the slots costs
/// one step per group, not one per run or per slot. Returns the tasks'
/// states in source order. (`PER` is a constant so that the division per
/// run is a shift.)
///
/// # Panics
///
/// Panics if a run's slot is outside `table`.
pub fn par_apply<T: Send, A: Send, const PER: usize>(
    table: &mut [T],
    batch: &SortedBatch,
    task: impl Fn() -> A + Sync,
    f: impl Fn(&mut A, &mut T, Range<usize>) + Sync,
) -> Vec<A> {
    // A `Vec` of `()` allocates nothing.
    let mut none = vec![(); table.len()];
    par_apply_beside::<_, _, _, PER>(table, &mut none, batch, task, |a, t, (), runs| {
        f(a, t, runs)
    })
}

/// [`par_apply`] over two tables of one length side by side: each group
/// borrows the same stretch of both, and `f` gets the slot of each.
///
/// # Panics
///
/// Panics if the lengths differ, and as [`par_apply`] does.
pub fn par_apply_beside<T: Send, U: Send, A: Send, const PER: usize>(
    table: &mut [T],
    side: &mut [U],
    batch: &SortedBatch,
    task: impl Fn() -> A + Sync,
    f: impl Fn(&mut A, &mut T, &mut U, Range<usize>) + Sync,
) -> Vec<A> {
    assert_eq!(
        table.len(),
        side.len(),
        "tables side by side differ in length"
    );
    let slot = |r: &SrcRun| r.src as usize / PER;
    let runs = &batch.runs[..];
    let threads = rayon::current_num_threads();
    let per = runs.len().div_ceil(threads * threads).max(1);
    let mut groups = Vec::new();
    let mut first = 0;
    while first < runs.len() {
        let mut end = (first + per).min(runs.len());
        while end < runs.len() && slot(&runs[end]) == slot(&runs[end - 1]) {
            end += 1;
        }
        let stretch = slot(&runs[first])..slot(&runs[end - 1]) + 1;
        groups.push((stretch, (first..end, None)));
        first = end;
    }
    let sides = disjoint_mut(side, groups.iter().map(|(r, _)| (r.clone(), ())));
    let mut work: Vec<_> = disjoint_mut(table, groups).into_iter().zip(sides).collect();
    work.par_iter_mut()
        .for_each(|((slots, (group, out)), (sides, ()))| {
            let (base, mut state) = (slot(&runs[group.start]), task());
            let mut next = group.start;
            for on_slot in runs[group.clone()].chunk_by(|a, b| slot(a) == slot(b)) {
                let i = slot(&on_slot[0]) - base;
                let indices = next..next + on_slot.len();
                next = indices.end;
                f(&mut state, &mut slots[i], &mut sides[i], indices);
            }
            *out = Some(state);
        });
    let states = work.into_iter().map(|((_, (_, state)), _)| state);
    states
        .map(|s| s.expect("the pool ran every group"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use std::collections::{BTreeMap, BTreeSet};

    type Model = BTreeMap<u32, BTreeSet<u32>>;

    fn model(batch: &[Edge]) -> Model {
        let mut m = Model::new();
        for e in batch {
            m.entry(e.src).or_default().insert(e.dst);
        }
        m
    }

    /// Asserts that `b` holds exactly `m`'s runs, in order.
    fn assert_matches(b: &SortedBatch, m: &Model) {
        let runs: Vec<(u32, Vec<u32>)> = b.runs().map(|r| (r.src, r.dsts.to_vec())).collect();
        let want: Vec<(u32, Vec<u32>)> = m
            .iter()
            .map(|(&s, ds)| (s, ds.iter().copied().collect()))
            .collect();
        assert_eq!(runs, want);
        assert_eq!(b.len(), m.values().map(BTreeSet::len).sum::<usize>());
        assert_eq!(b.is_empty(), m.is_empty());
        let top = m.iter().map(|(&s, ds)| s.max(*ds.last().unwrap())).max();
        assert_eq!(b.id_bound(), top.map_or(0, |t| t as usize + 1));
        let all: Vec<u32> = m.values().flatten().copied().collect();
        assert_eq!(b.clone().into_dsts(), all);
    }

    /// Random batches over a few ids near each end of `u32`, so duplicates
    /// and self-loops are common and `u32::MAX` is often named.
    fn random_batch(rng: &mut SmallRng) -> Vec<Edge> {
        let id = |rng: &mut SmallRng| {
            let small = rng.gen_range(0u32..12);
            if rng.gen_bool(0.3) {
                u32::MAX - small
            } else {
                small
            }
        };
        let len = rng.gen_range(0usize..60);
        (0..len).map(|_| Edge::new(id(rng), id(rng))).collect()
    }

    #[test]
    fn batch_equals_a_map_of_sets_and_dropping_sources_filters_it() {
        for case in 0..256 {
            let mut rng = SmallRng::seed_from_u64(0xBA7C + case);
            let batch = random_batch(&mut rng);
            let m = model(&batch);
            let b = SortedBatch::new(&batch);
            assert_matches(&b, &m);
            assert_eq!(SortedBatch::from_keys(&sorted_dedup_keys(&batch)), b);
            for n in [0, 5, 12, u32::MAX as usize, u32::MAX as usize + 1] {
                let mut kept = b.clone();
                kept.retain_sources(|s| (s as usize) < n);
                let mut want = m.clone();
                want.retain(|&s, _| (s as usize) < n);
                assert_matches(&kept, &want);
            }
            let mut odd = b.clone();
            odd.retain_sources(|s| s % 2 == 1);
            let mut want = m.clone();
            want.retain(|&s, _| s % 2 == 1);
            assert_matches(&odd, &want);
        }
        assert_matches(&SortedBatch::new(&[]), &Model::new());
    }

    #[test]
    fn sort_dedup_orders_by_src_then_dst() {
        let batch = [
            Edge::new(2, 1),
            Edge::new(0, 9),
            Edge::new(2, 0),
            Edge::new(0, 9),
            Edge::new(1, 5),
        ];
        let want = [(0, 9), (1, 5), (2, 0), (2, 1)].map(|(u, v)| Edge::new(u, v).key());
        assert_eq!(sorted_dedup_keys(&batch), want);
    }

    #[test]
    fn runs_group_by_source() {
        let keys = sorted_dedup_keys(&[
            Edge::new(3, 3),
            Edge::new(1, 2),
            Edge::new(1, 4),
            Edge::new(3, 1),
        ]);
        let runs = runs_by_src(&keys);
        assert_eq!(
            runs,
            vec![
                SrcRun {
                    src: 1,
                    start: 0,
                    end: 2
                },
                SrcRun {
                    src: 3,
                    start: 2,
                    end: 4
                }
            ]
        );
    }

    /// Sums each run's length into its slot, one task per group.
    fn fill<const PER: usize>(table: &mut [Vec<u32>], batch: &SortedBatch) -> usize {
        let tasks = par_apply::<_, _, PER>(
            table,
            batch,
            || 0,
            |n, slot, runs| {
                let first = batch.run(runs.start).src as usize / PER;
                for run in runs.map(|i| batch.run(i)) {
                    assert_eq!(run.src as usize / PER, first);
                    slot.extend_from_slice(run.dsts);
                    *n += run.dsts.len();
                }
            },
        );
        tasks.into_iter().sum()
    }

    #[test]
    fn par_apply_hands_each_slot_its_runs_once() {
        let batch = SortedBatch::new(&[
            Edge::new(9, 1),
            Edge::new(0, 2),
            Edge::new(2, 3),
            Edge::new(2, 4),
            Edge::new(5, 0),
        ]);
        let mut pages = vec![Vec::new(); 3];
        assert_eq!(fill::<4>(&mut pages, &batch), 5);
        assert_eq!(pages, [vec![2, 3, 4], vec![0], vec![1]]);
        let mut table = vec![Vec::new(); 10];
        assert_eq!(fill::<1>(&mut table, &batch), 5);
        assert_eq!(table[2], [3, 4]);
        assert_eq!(table[9], [1]);
        assert!(table[1].is_empty());
    }

    #[test]
    fn par_apply_gives_every_run_its_slot_across_groups() {
        for case in 0..32 {
            let mut rng = SmallRng::seed_from_u64(0xA991 + case);
            let len = rng.gen_range(0usize..2_000);
            let batch: Vec<Edge> = (0..len)
                .map(|_| Edge::new(rng.gen_range(0..700), rng.gen_range(0..50)))
                .collect();
            let m = model(&batch);
            let b = SortedBatch::new(&batch);
            let mut table = vec![Vec::new(); 700];
            assert_eq!(fill::<1>(&mut table, &b), b.len());
            for (v, got) in table.iter().enumerate() {
                let want: Vec<u32> = m.get(&(v as u32)).into_iter().flatten().copied().collect();
                assert_eq!(*got, want, "vertex {v}");
            }
            // Pages of 32: a group never splits a page's runs.
            let mut pages = vec![Vec::new(); 700usize.div_ceil(32)];
            assert_eq!(fill::<32>(&mut pages, &b), b.len());
            for (p, got) in pages.iter().enumerate() {
                let want: Vec<u32> = m
                    .range(32 * p as u32..32 * (p as u32 + 1))
                    .flat_map(|(_, ds)| ds.iter().copied())
                    .collect();
                assert_eq!(*got, want, "page {p}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascend")]
    fn repeated_index_is_refused() {
        disjoint_mut(&mut [0u8; 4], [(1..2, ()), (1..2, ())]);
    }

    #[test]
    #[should_panic(expected = "outside a table of 4")]
    fn out_of_range_index_is_refused() {
        disjoint_mut(&mut [0u8; 4], [(1..2, ()), (4..5, ())]);
    }
}
