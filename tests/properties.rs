//! Randomized differential tests: every per-vertex set (any `NeighborSet`,
//! the containers outside that contract through test-local newtypes)
//! behaves as `BTreeSet` under random runs, and the simulator's snapshot
//! sets hold LSGraph's snapshots to the model. (Every engine is driven
//! against the model by the simulator's engine axis, `tests/cross_engine.rs`.)
//!
//! These were originally proptest properties; they are now driven by seeded
//! `SmallRng` loops (the build is offline, so the proptest crate is
//! unavailable). Each case uses a distinct fixed seed, so failures reproduce
//! exactly.

use rand::prelude::*;

use std::collections::BTreeSet;
use std::ops::Range;

use lsgraph::baselines::{CTreeSet, PacSet, SortledtonSet, VECTOR_THRESHOLD};
use lsgraph::substrates::{BTreeSet32, Pma, PmaKey, PmaParams};
use lsgraph::{
    Config, DynamicGraph, Edge, Footprint, Graph, LsGraph, MemoryFootprint, NeighborSet,
    SlotOccupancy, Spill, StructStats,
};
use lsgraph_core::{BlockCtx, VertexBlock, INLINE_CAP};

// The simulator's harness and model (`tests/sim`), for the snapshot sets.
#[path = "sim/harness.rs"]
mod harness;
#[path = "sim/model.rs"]
mod model;

use harness::Op::{Clear, DropSnap, Repair, Snap};
use harness::{batch, check_set, page_blocks, Op};

const CASES: u64 = 64;

/// Sink for the structural events of the bare-container properties.
static STATS: StructStats = StructStats::new();

/// Every key of `space` plus the `u32` boundary keys: what a membership
/// probe is checked on after a set property's operations.
fn probe_keys(space: std::ops::Range<u32>) -> impl Iterator<Item = u32> {
    space.chain([0, 1, u32::MAX - 1, u32::MAX])
}

/// The container a set property runs against, with the ids already in it:
/// empty — a vertex's spill growing from nothing, the ladder's depth 0 — or
/// a LIA over evenly spread ids with a dense run at each of `clusters`, so
/// every block a run touches is delegated and ids near one land in a child,
/// the ladder's depth 1.
fn spill_under_test(
    cfg: &Config,
    clusters: Option<&[u32]>,
) -> (Spill, std::collections::BTreeSet<u32>) {
    let Some(clusters) = clusters else {
        return (Spill::from_sorted(&[], cfg), Default::default());
    };
    let spread = 2 * cfg.m as u32;
    let step = u32::MAX / spread;
    let mut held: std::collections::BTreeSet<u32> =
        (0..spread).map(|i| i * step + step / 2).collect();
    for &start in clusters {
        held.extend(start..start + 48);
    }
    let t = Spill::from_sorted(&held.iter().copied().collect::<Vec<_>>(), cfg);
    let mut occ = SlotOccupancy::default();
    t.add_slot_occupancy(&mut occ);
    assert!(occ.child > 0, "no block was delegated to a child");
    (t, held)
}

/// Runs a set property makes on one container: half grow it, half drain it.
const RUNS: usize = 16;

/// An id from `keys`, or now and then one of the `u32` boundary ids.
fn gen_id(rng: &mut SmallRng, keys: &Range<u32>) -> u32 {
    if rng.gen_bool(0.05) {
        [0, 1, u32::MAX - 1, u32::MAX][rng.gen_range(0..4)]
    } else {
        rng.gen_range(keys.clone())
    }
}

/// The set property, one instantiation per container, under `ctx`: seeded
/// cases start empty or from `from_sorted`, and each goes through
/// [`check_runs`]. Returns the largest length any case reached.
fn check_neighbor_set<S: NeighborSet>(ctx: &S::Ctx, seed: u64, keys: Range<u32>) -> usize {
    let mut top = 0;
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed + case);
        let held: BTreeSet<u32> = match case % 2 {
            0 => BTreeSet::new(),
            _ => (0..rng.gen_range(1..200))
                .map(|_| gen_id(&mut rng, &keys))
                .collect(),
        };
        let set = S::from_sorted(&held.iter().copied().collect::<Vec<_>>(), ctx);
        top = top.max(check_runs(set, held, &keys, ctx, &mut rng));
    }
    top
}

/// Applies [`RUNS`] random runs to `set` and to `model` (which holds what
/// `set` holds) and checks after each: the returned count and `len`,
/// `contains` over [`probe_keys`] (every id of `keys`, or, when `keys` is
/// too wide to list, each held and each run id and both its neighbours),
/// the slice walk and `check_invariants`. Runs may be empty, one in eight
/// draws up to 299 ids so that a single run can cross a rung, and runs name
/// held ids (inserts), absent ids (deletes) and the `u32` boundary ids; a delete
/// draws half its ids from those held, and the last run deletes
/// everything. Returns the largest length reached.
fn check_runs<S: NeighborSet>(
    mut set: S,
    mut model: BTreeSet<u32>,
    keys: &Range<u32>,
    ctx: &S::Ctx,
    rng: &mut SmallRng,
) -> usize {
    let mut top = set.len();
    for step in 0..RUNS {
        let last = step == RUNS - 1;
        let insert = !last && rng.gen_bool(if step < RUNS / 2 { 0.75 } else { 0.25 });
        // Now and then a run long enough to carry a container across a rung
        // (past `A`, past `M / 2`) in one call.
        let len = if rng.gen_bool(0.125) { 65..300 } else { 0..65 };
        let mut run: Vec<u32> = (0..rng.gen_range(len))
            .map(|_| match model.len() {
                n if !insert && n > 0 && rng.gen_bool(0.5) => {
                    *model.iter().nth(rng.gen_range(0..n)).unwrap()
                }
                _ => gen_id(rng, keys),
            })
            .collect();
        if last {
            run.extend(&model);
        }
        run.sort_unstable();
        run.dedup();
        let (got, want) = if insert {
            let want = run.iter().filter(|&&u| model.insert(u)).count();
            (set.insert_run(&run, ctx), want)
        } else {
            let want = run.iter().filter(|&&u| model.remove(&u)).count();
            (set.delete_run(&run, ctx), want)
        };
        assert_eq!((got, set.len()), (want, model.len()), "step {step}");
        let probes: Vec<u32> = if keys.len() <= 1 << 12 {
            probe_keys(keys.clone()).collect()
        } else {
            let near = model.iter().chain(&run);
            let near = near.flat_map(|&k| [k.saturating_sub(1), k, k.saturating_add(1)]);
            probe_keys(0..0).chain(near).collect()
        };
        for k in probes {
            assert_eq!(
                set.contains(k, ctx),
                model.contains(&k),
                "step {step}: key {k}"
            );
        }
        let mut slices = Vec::new();
        set.for_each_slice_while(&mut |s| {
            slices.push(s.to_vec());
            true
        });
        assert!(slices.iter().all(|s| !s.is_empty()), "step {step}");
        assert!(slices.concat().iter().eq(&model), "step {step}");
        assert_eq!(set.for_each_slice_while(&mut |_| false), model.is_empty());
        set.check_invariants(ctx);
        top = top.max(set.len());
    }
    assert!(model.is_empty());
    top
}

/// `Spill` as a [`NeighborSet`]: at the default `Config` when `M` is 0
/// (the array, then the RIA rung), else at `a = 8` and `m = M` (every rung).
#[derive(Clone)]
struct SpillSet<const M: usize>(Spill);

impl<const M: usize> SpillSet<M> {
    fn cfg() -> Config {
        match M {
            0 => Config::default(),
            m => Config {
                a: 8,
                m,
                ..Config::default()
            },
        }
    }
}

impl<const M: usize> Default for SpillSet<M> {
    fn default() -> Self {
        Self::from_sorted(&[], &())
    }
}

impl<const M: usize> MemoryFootprint for SpillSet<M> {
    fn footprint(&self) -> Footprint {
        self.0.footprint()
    }
}

impl<const M: usize> NeighborSet for SpillSet<M> {
    type Ctx = ();
    fn from_sorted(sorted: &[u32], _: &()) -> Self {
        SpillSet(Spill::from_sorted(sorted, &Self::cfg()))
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn contains(&self, x: u32, _: &()) -> bool {
        self.0.contains(x, &Self::cfg())
    }
    fn for_each_slice_while(&self, f: &mut dyn FnMut(&[u32]) -> bool) -> bool {
        self.0.for_each_slice_while(f)
    }
    fn insert_run(&mut self, run: &[u32], _: &()) -> usize {
        self.0.insert_run(run, &Self::cfg(), &STATS)
    }
    fn delete_run(&mut self, run: &[u32], _: &()) -> usize {
        self.0.delete_run(run, &Self::cfg(), &STATS)
    }
    fn check_invariants(&self, _: &()) {
        self.0.check_invariants(&Self::cfg());
    }
}

/// `BTreeSet32` as a [`NeighborSet`].
#[derive(Clone, Default)]
struct BTreeSet32Set(BTreeSet32);

impl MemoryFootprint for BTreeSet32Set {
    fn footprint(&self) -> Footprint {
        self.0.footprint()
    }
}

impl NeighborSet for BTreeSet32Set {
    type Ctx = ();
    fn from_sorted(sorted: &[u32], _: &()) -> Self {
        BTreeSet32Set(BTreeSet32::from_sorted(sorted))
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn contains(&self, x: u32, _: &()) -> bool {
        self.0.contains(x)
    }
    fn for_each_slice_while(&self, f: &mut dyn FnMut(&[u32]) -> bool) -> bool {
        self.0.for_each_slice_while(f)
    }
    fn insert_run(&mut self, run: &[u32], _: &()) -> usize {
        run.iter().filter(|&&u| self.0.insert(u)).count()
    }
    fn delete_run(&mut self, run: &[u32], _: &()) -> usize {
        run.iter().filter(|&&u| self.0.delete(u)).count()
    }
    fn check_invariants(&self, _: &()) {
        self.0.check_invariants();
    }
}

/// The PMA as a [`NeighborSet`]: over `u64` keys as PCSR and Terrace use
/// it, and over `u32` keys as LSGraph's `MediumStore::Pma` arm does, where
/// `u32::MAX` is an id like any other.
#[derive(Clone, Default)]
struct PmaSet<K: PmaKey>(Pma<K>);

impl<K: PmaKey> MemoryFootprint for PmaSet<K> {
    fn footprint(&self) -> Footprint {
        self.0.footprint()
    }
}

impl<K: PmaKey + Default + From<u32> + Into<u64>> NeighborSet for PmaSet<K> {
    type Ctx = ();
    fn from_sorted(sorted: &[u32], _: &()) -> Self {
        let keys: Vec<K> = sorted.iter().map(|&u| K::from(u)).collect();
        PmaSet(Pma::from_sorted(&keys, PmaParams::dense()))
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn contains(&self, x: u32, _: &()) -> bool {
        self.0.contains(K::from(x))
    }
    fn for_each_slice_while(&self, f: &mut dyn FnMut(&[u32]) -> bool) -> bool {
        let id = |&k: &K| k.into() as u32;
        self.0
            .for_each_segment_while(|seg| f(&seg.iter().map(id).collect::<Vec<_>>()))
    }
    fn insert_run(&mut self, run: &[u32], _: &()) -> usize {
        run.iter().filter(|&&u| self.0.insert(K::from(u))).count()
    }
    fn delete_run(&mut self, run: &[u32], _: &()) -> usize {
        run.iter().filter(|&&u| self.0.delete(K::from(u))).count()
    }
    fn check_invariants(&self, _: &()) {
        self.0.check_invariants();
    }
}

#[test]
fn ctree_and_pacset_behave_as_sorted_sets() {
    check_neighbor_set::<CTreeSet>(&Default::default(), 0xC000, 0..500);
    check_neighbor_set::<PacSet>(&Default::default(), 0xC100, 0..500);
}

/// Above [`VECTOR_THRESHOLD`] ids the set is a skip list, and it shrinks
/// back to a vector as the runs drain it.
#[test]
fn sortledton_set_behaves_as_sorted_set() {
    assert!(check_neighbor_set::<SortledtonSet>(&(), 0xB000, 0..512) > VECTOR_THRESHOLD);
}

/// `Spill` at the default `Config`: the array, then the RIA rung.
#[test]
fn ria_behaves_as_sorted_set() {
    let a = SpillSet::<0>::cfg().a;
    assert!(check_neighbor_set::<SpillSet<0>>(&(), 0x6000, 0..500) > a);
}

/// `Spill` at `a = 8`, `m = 64`, from empty (every rung, at depth 0) and
/// from a LIA whose blocks near `CLUSTER` are delegated to a child, where
/// the runs land (depth 1).
#[test]
fn hitree_behaves_as_sorted_set() {
    const CLUSTER: u32 = 1 << 31;
    let cfg = SpillSet::<64>::cfg();
    assert!(check_neighbor_set::<SpillSet<64>>(&(), 0x7000, 0..500) > cfg.m);
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x7100 + case);
        let (spill, held) = spill_under_test(&cfg, Some(&[CLUSTER]));
        let keys = CLUSTER..CLUSTER + 500;
        check_runs(SpillSet::<64>(spill), held, &keys, &(), &mut rng);
    }
}

/// `VertexBlock` at `a = 8`, `m = 64`: the inline line, the front take that
/// refills it, then every rung behind it.
#[test]
fn vertex_block_behaves_as_sorted_set() {
    let ctx = BlockCtx::new(SpillSet::<64>::cfg());
    assert!(check_neighbor_set::<VertexBlock>(&ctx, 0x7800, 0..500) > ctx.cfg.m + INLINE_CAP);
}

#[test]
fn btree_behaves_as_sorted_set() {
    check_neighbor_set::<BTreeSet32Set>(&(), 0x9000, 0..500);
}

/// Both key widths draw the `u32` boundary ids, `u32::MAX` among them.
#[test]
fn pma_behaves_as_sorted_set() {
    check_neighbor_set::<PmaSet<u64>>(&(), 0x8000, 0..500);
    check_neighbor_set::<PmaSet<u32>>(&(), 0x8100, 0..500);
}

#[test]
fn delta_chunk_roundtrips() {
    use lsgraph::substrates::DeltaChunk;
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xA000 + case);
        let len = rng.gen_range(0usize..300);
        let mut keys: Vec<u32> = (0..len).map(|_| rng.gen()).collect();
        // Mix in boundary values like proptest's any::<u32>() would.
        if case % 4 == 0 && !keys.is_empty() {
            keys[0] = 0;
            let last = keys.len() - 1;
            keys[last] = u32::MAX;
        }
        keys.sort_unstable();
        keys.dedup();
        let c = DeltaChunk::encode(&keys);
        assert_eq!(c.decode(), keys.clone());
        assert_eq!(c.len(), keys.len());
        for probe in keys.iter().take(20) {
            assert!(c.contains(*probe));
        }
    }
}

/// `u32` boundary ids round-trip through every tier and through the
/// children at either end of a LIA: `Spill` at `a = 8`, `m = 32`, from
/// empty and from a LIA with children near 0 and `u32::MAX`, under runs over
/// all of `u32`.
#[test]
fn extreme_keys_survive() {
    let cfg = SpillSet::<32>::cfg();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xE000 + case);
        for clusters in [None, Some(&[2, u32::MAX - 50][..])] {
            let (spill, held) = spill_under_test(&cfg, clusters);
            check_runs(SpillSet::<32>(spill), held, &(0..u32::MAX), &(), &mut rng);
        }
    }
}

/// Inserts with probability `p`, `len` uniform pairs below `ids`.
fn random_batch(rng: &mut SmallRng, p: f64, len: std::ops::Range<usize>, ids: u32) -> Op {
    let insert = rng.gen_bool(p);
    let len = rng.gen_range(len);
    batch(insert, harness::pairs(rng, len, ids, ids))
}

/// The simulator's snapshot sets: every held snapshot reads the model frozen
/// at its flip after every step. A snapshot before every batch makes each
/// batch copy every page it touches exactly once, whole; random take/drop
/// interleavings retire every snapshot taken.
#[test]
fn lsgraph_snapshots_stay_frozen_under_random_interleavings() {
    let page = page_blocks();
    assert!(page > 1 && page < 120, "the stream spans pages");
    check_set("snapshots/boundary", "snapshots", 1..=4, |seed| {
        let mut rng = SmallRng::seed_from_u64(0x51AB_0000 + seed);
        (0..16)
            .flat_map(|_| [Snap, random_batch(&mut rng, 0.65, 1..200, 120)])
            .collect()
    });
    check_set("snapshots/interleave", "small", 0..CASES, |seed| {
        let mut rng = SmallRng::seed_from_u64(0xF000 + seed);
        (0..rng.gen_range(8..24))
            .map(|_| match rng.gen_range(0..5) {
                0..=2 => random_batch(&mut rng, 0.6, 1..60, 60),
                3 => Snap,
                _ => DropSnap(rng.gen_range(0..64)),
            })
            .collect()
    });
}

/// The vertex directory shares fixed-size pages between the writer and its
/// snapshots, so the cases that matter are at page edges: a table whose size
/// is no multiple of any page, that inserts grow across several page
/// boundaries while snapshots of the smaller table are held.
#[test]
fn lsgraph_snapshots_and_live_graph_match_oracle_while_the_table_grows() {
    let grown = check_set("snapshots/growth", "growing", 0..16, |seed| {
        let mut rng = SmallRng::seed_from_u64(0x23000 + seed);
        let mut ops = Vec::new();
        for step in 0..32 {
            ops.extend(rng.gen_bool(0.5).then_some(Snap));
            ops.push(random_batch(&mut rng, 0.65, 1..80, 50 + 7 * step));
            ops.extend(rng.gen_bool(0.3).then(|| DropSnap(rng.gen_range(0..64))));
        }
        ops
    });
    assert!(grown.iter().all(|sim| sim.model.adj.len() > 200), "grew");
}

/// The post-fault lifecycle under held snapshots: a snapshot pinned between
/// clear+quarantine and repair keeps the vertex quarantined and empty.
#[test]
fn lsgraph_snapshot_quarantine_repair_interleavings() {
    check_set("snapshots/quarantine", "small", 0..CASES, |seed| {
        let mut rng = SmallRng::seed_from_u64(0x10000 + seed);
        let mut ops = Vec::new();
        for _ in 0..rng.gen_range(6..16) {
            if rng.gen_bool(0.6) {
                ops.push(random_batch(&mut rng, 0.6, 1..60, 60));
                ops.extend(rng.gen_bool(0.4).then_some(Snap));
            } else {
                ops.push(Clear(rng.gen_range(0..60)));
                ops.extend(rng.gen_bool(0.7).then_some(Snap));
                ops.push(Repair);
            }
        }
        ops
    });
}

/// Applies `stream` to two graphs — one bare, one with a fresh snapshot held
/// across every batch, so each of its writes copies the block first — and
/// holds the two to the same bytes and tiers after every batch: how a block
/// is laid out must not record who was reading when it was written. Returns
/// the bare graph.
fn assert_layout_ignores_readers(n: usize, cfg: Config, stream: &[(bool, Vec<Edge>)]) -> LsGraph {
    use lsgraph::MemoryFootprint;
    let mut bare = LsGraph::with_config(n, cfg);
    let mut read = LsGraph::with_config(n, cfg);
    for (step, (is_insert, batch)) in stream.iter().enumerate() {
        let held = read.snapshot();
        if *is_insert {
            bare.insert_batch(batch);
            read.insert_batch(batch);
        } else {
            bare.delete_batch(batch);
            read.delete_batch(batch);
        }
        drop(held);
        assert_eq!(read.footprint(), bare.footprint(), "step {step}");
        assert_eq!(read.tier_stats(), bare.tier_stats(), "step {step}");
    }
    assert!(read.stats().snapshot().cow_block_copies > 0);
    assert_eq!(bare.stats().snapshot().cow_block_copies, 0);
    bare
}

#[test]
fn lsgraph_layout_is_the_same_with_and_without_readers() {
    fn stream(
        rng: &mut SmallRng,
        steps: usize,
        mut edge: impl FnMut(&mut SmallRng) -> Edge,
    ) -> Vec<(bool, Vec<Edge>)> {
        (0..steps)
            .map(|_| {
                let len = rng.gen_range(1usize..60);
                (rng.gen_bool(0.65), (0..len).map(|_| edge(rng)).collect())
            })
            .collect()
    }
    for case in 0..8 {
        let mut rng = SmallRng::seed_from_u64(0x11000 + case);
        // Every tier, at thresholds a 60-vertex stream can cross.
        let small = Config {
            a: 4,
            m: 16,
            ..Config::default()
        };
        let s = stream(&mut rng, 24, |r| {
            Edge::new(r.gen_range(0..60), r.gen_range(0..60))
        });
        assert_layout_ignores_readers(60, small, &s);

        // The spill array alone (`Spill::Array`): the paper's thresholds and
        // no vertex past inline + `A` = 45 neighbors.
        let s = stream(&mut rng, 40, |r| {
            Edge::new(r.gen_range(0..30), r.gen_range(0..45))
        });
        let g = assert_layout_ignores_readers(45, Config::default(), &s);
        let tiers = g.tier_stats();
        assert!(tiers.array_vertices > 0, "case {case}");
        assert_eq!(tiers.inline_vertices + tiers.array_vertices, 45);

        // Array leaves inside a HITree (`Spill::Array` at depth 1): one hub whose keys
        // cluster, so LIA blocks overflow into child arrays that later
        // batches write to.
        let hub = Config {
            m: 128,
            ..Config::default()
        };
        let s = stream(&mut rng, 40, |r| {
            let cluster = r.gen_range(0u32..8) * 2_000;
            Edge::new(0, cluster + r.gen_range(0..500))
        });
        let g = assert_layout_ignores_readers(1, hub, &s);
        assert_eq!(g.tier_stats().hitree_vertices, 1, "case {case}");
        assert!(g.lia_slot_occupancy().child > 0, "case {case}");
    }
}

/// Counter totals are schedule-independent: the same batch stream applied at
/// widths 1, 2 and 8, with a snapshot held across every other batch and then
/// across each of the last four, so pages are copied on write (into the
/// pages the previous snapshot returned, in the last three), yields
/// identical deterministic counters and one `group_apply` sample per 64
/// runs of each batch at every width.
#[test]
fn parallel_counter_totals_match_single_threaded() {
    let run = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let mut g = LsGraph::with_config(4_096, Config::default().with_m(128));
            let mut rng = SmallRng::seed_from_u64(42);
            let mut sampled = 0;
            for round in 0..12u32 {
                // Skewed sources: 64 hubs accumulate degree past `m`, so the
                // batches drive the RIA and HITree tiers; the rest spread the
                // batch over every page.
                let batch: Vec<Edge> = (0..4_000)
                    .map(|_| {
                        let hub = rng.gen_bool(0.75);
                        let src = rng.gen_range(0..if hub { 64 } else { 4_096 });
                        Edge::new(src, rng.gen_range(0..4_096))
                    })
                    .collect();
                let held = (round.is_multiple_of(2) || round >= 8).then(|| g.snapshot());
                g.insert_batch(&batch);
                sampled += group_apply_samples(&batch);
                if round % 2 == 1 {
                    g.delete_batch(&batch[..1_000]);
                    sampled += group_apply_samples(&batch[..1_000]);
                }
                drop(held);
            }
            let samples = g.latency_stats().unwrap().group_apply.count();
            assert_eq!(samples, sampled, "{threads} threads");
            (g.struct_snapshot(), samples)
        })
    };
    let (single, single_runs) = run(1);
    // Sanity: the workload moved structure and copied pages. A batch
    // taken with no snapshot alive frees every spare, so only the last
    // three held batches copy into recycled pages. No block is copied into
    // its old spill: a hub takes about 47 ids a batch, so by the next its
    // container has another shape, or is a HITree, which is never reused.
    assert!(single.ria_within_block_shifts > 0);
    assert!(single.vb_inline_hits > 0 && single.hitree_node_upgrades > 0);
    assert!(single.cow_block_copies > 0);
    assert!(single.cow_pages_recycled > 0);
    assert_eq!(single.cow_spills_recycled, 0);
    for threads in [2, 8] {
        let (many, many_runs) = run(threads);
        assert_eq!(
            single.deterministic_fields(),
            many.deterministic_fields(),
            "{threads} threads"
        );
        assert_eq!(single_runs, many_runs, "{threads} threads");
    }
}

/// The `group_apply` samples a committed batch adds: one per 64 of its
/// per-source runs, rounded up.
fn group_apply_samples(batch: &[Edge]) -> u64 {
    let runs = BTreeSet::from_iter(batch.iter().map(|e| e.src)).len() as u64;
    runs.div_ceil(64)
}

/// Deletion-path property test for the incremental maintainer: under
/// seeded symmetric streams that interleave deletes (including targeted
/// disconnections of the BFS source) with snapshot take/drop churn,
/// [`IncrementalBfs`] stays equal to a from-scratch BFS after every batch —
/// and the snapshots pinned mid-stream keep serving the maintainer's reads.
#[test]
fn incremental_maintainers_survive_deletion_streams() {
    use lsgraph::analytics::IncrementalBfs;

    const N: usize = 64;
    for seed in [3u64, 29, 71, 113] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = LsGraph::with_config(N, Config::default());
        let mut bfs = IncrementalBfs::new(&g, 0);
        let mut snaps = Vec::new();
        for round in 0..24 {
            // Heavier deletes than the generic streams: this is the
            // non-monotone path (support-checked repair) under test.
            let is_insert = rng.gen_bool(0.55);
            let batch: Vec<Edge> = if !is_insert && round % 5 == 4 {
                // Targeted: sever the source's current neighborhood, which
                // can push every distance to UNREACHED at once.
                g.neighbors(0)
                    .into_iter()
                    .flat_map(|u| [Edge::new(0, u), Edge::new(u, 0)])
                    .collect()
            } else {
                (0..rng.gen_range(1usize..24))
                    .flat_map(|_| {
                        let a = rng.gen_range(0..N as u32);
                        let b = rng.gen_range(0..N as u32);
                        [Edge::new(a, b), Edge::new(b, a)]
                    })
                    .collect()
            };
            if batch.is_empty() {
                continue;
            }
            if is_insert {
                g.insert_batch(&batch);
                bfs.on_insert(&g, &batch);
            } else {
                g.delete_batch(&batch);
                bfs.on_delete(&g, &batch);
            }
            // Snapshot churn: pin the post-batch state, drop an older pin,
            // and run the maintainer's differential check against a pinned
            // snapshot too (same content as the live graph).
            snaps.push(g.snapshot());
            if snaps.len() > 3 {
                snaps.remove(0);
            }
            let snap = snaps.last().unwrap();
            let fresh = IncrementalBfs::new(snap, 0);
            assert_eq!(
                bfs.distances(),
                fresh.distances(),
                "seed {seed} round {round}: bfs"
            );
        }
        g.check_invariants();
    }
}
