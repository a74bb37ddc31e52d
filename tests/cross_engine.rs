//! The simulator's engine axis (`tests/sim`): LSGraph at two thresholds and
//! under each §6.2 ablation, and Terrace, Aspen, PaC-tree, Sortledton and
//! PCSR, each driven by the one op grammar and held to the one model after
//! every step (`harness::Axis`). One test per engine runs every setup's seed
//! set and the named traces; a failing seed names the engine, setup and
//! seed, and prints its shrunk trace to paste back in as a `named(..)` trace
//! that reruns on that engine.

#[path = "sim/harness.rs"]
mod harness;
#[path = "sim/model.rs"]
mod model;

use std::collections::HashSet;

use lsgraph::baselines::VECTOR_THRESHOLD;
use lsgraph::Tier::{self, *};
use lsgraph_terrace::{HIGH_THRESHOLD, INLINE_CAP};
use rand::{rngs::SmallRng, Rng, SeedableRng};

use harness::{batch, check_set, named, pairs, rmat_batch, Op, Op::*, RANGE};

/// Up to 11 batches of up to 79 pairs over ids below 80, past the 60-vertex
/// table, with snapshots taken and dropped between them.
fn small(seed: u64) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(0x1000 + seed);
    let mut ops = Vec::new();
    for _ in 0..rng.gen_range(1..12) {
        let len = rng.gen_range(1..80);
        ops.push(batch(rng.gen_bool(0.5), pairs(&mut rng, len, 80, 80)));
        match rng.gen_range(0..8) {
            0 => ops.push(Snap),
            1 => ops.push(DropSnap(rng.gen_range(0..4))),
            _ => {}
        }
    }
    ops
}

/// 16 batches of 1 200 pairs, vertex `v`'s ids below `RANGE[v]`; inserts
/// first, then mostly; every fourth batch the held snapshot is replaced.
fn spread(seed: u64) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(0x5_11CE + seed);
    let mut ops = Vec::new();
    for round in 0..16 {
        let insert = round < 4 || rng.gen_bool(0.7);
        let pairs = (0..1_200).map(|_| {
            let v = rng.gen_range(0..RANGE.len() as u32);
            (v, rng.gen_range(0..RANGE[v as usize]))
        });
        ops.push(batch(insert, pairs.collect()));
        if round % 4 == 3 {
            ops.extend([DropSnap(0), Snap]);
        }
    }
    ops
}

/// Two symmetric R-MAT insert rounds over the bulk load, the first under a
/// snapshot taken at the load, then one batch deleting a part of the load
/// (its R-MAT seed's first edges) and of the first round.
fn rmat(seed: u64) -> Vec<Op> {
    let round = |r| Insert(rmat_batch(6_000, 10 + 2 * seed + r));
    let mut delete = rmat_batch(5_000, 1);
    delete.extend(rmat_batch(1_000, 10 + 2 * seed));
    vec![Snap, round(0), DropSnap(0), round(1), Delete(delete)]
}

/// Every setup's seed set and the named traces on `engine`; `spread` must
/// reach Terrace's B-tree, Sortledton's skip list and, on an LSGraph engine,
/// exactly `tiers`.
fn axis(engine: &str, tiers: &[Tier]) {
    let on = |setup| format!("{engine}/{setup}");
    check_set("small", &on("small"), 0..16, small);
    for sim in check_set("spread", &on("spread"), 0..1, spread) {
        let want: HashSet<Tier> = tiers.iter().copied().collect();
        assert_eq!(sim.reach.tiers, want, "{engine}: the tiers reached");
        assert!(sim.reach.degree > HIGH_THRESHOLD + INLINE_CAP, "B-tree");
        assert!(sim.reach.degree > VECTOR_THRESHOLD, "skip list");
    }
    let rmat = check_set("rmat", &on("rmat"), 0..1, rmat);
    assert!(rmat.iter().all(|sim| sim.reach.triangles > 0), "triangles");
    // Duplicates, self loops and both orientations in one batch, deletes of
    // absent edges (one past the table), the batch undone; the empty table.
    let hostile = vec![(1, 1), (1, 2), (1, 2), (2, 1), (3, 0), (3, 0)];
    let absent = Delete(vec![(0, 1), (9, 9)]);
    let hostile = vec![Insert(hostile.clone()), absent, Delete(hostile)];
    let empty = vec![Insert(vec![]), Insert(vec![(0, 0)])];
    // One vertex per rung: 5, 40, 200 and 2 000 odd ids.
    let rung = |(v, d): (u32, u32)| Insert((0..d).map(|i| (v, 2 * i + 1)).collect());
    let rungs = [(0, 5), (1, 40), (2, 200), (3, 2_000)].map(rung).to_vec();
    // A hub filled to 2 048 ids in 256-edge batches (up the whole ladder), a
    // snapshot, then its ids deleted smallest first, 256 per batch.
    let hub = |c: u32| (c * 256..(c + 1) * 256).map(|u| (0, u)).collect();
    let fill = (0..8).map(|c| Insert(hub(c)));
    let drain = (0..8).map(|c| Delete(hub(c)));
    let front_first = fill.chain([Snap]).chain(drain).collect();
    // Every vertex of the first page holding ids, two snapshots, two
    // page-mates written under both, the older snapshot dropped first: a
    // copied page keeps its other sets for every reader.
    let page: Vec<(u32, u32)> = (0..64).map(|v| (v, v % 7)).collect();
    let page_mates = vec![
        Insert(page),
        Snap,
        Insert(vec![(1, 9), (2, 9)]),
        Snap,
        Delete(vec![(1, 1), (2, 2), (2, 9)]),
        DropSnap(0),
        Insert(vec![(1, 3), (2, 5)]),
        DropSnap(0),
    ];
    let traces = [
        ("hostile", "empty", hostile),
        ("empty", "empty", empty),
        ("every_tier", "spread", rungs),
        ("front_first", "spread", front_first),
        ("page_mates", "empty", page_mates),
    ];
    for (name, setup, ops) in traces {
        named(name, &on(setup), ops);
    }
    let recycled = named("recycled_pages", &on("empty"), recycled_pages());
    if engine.starts_with("LSGraph") {
        let s = recycled.stats;
        assert!(
            s.cow_pages_recycled > 0,
            "{engine}: no page copy went into a spare"
        );
        assert!(
            s.cow_spills_recycled > 0,
            "{engine}: no spill copied into its own buffer"
        );
    }
}

/// Pages copied on write into the pages dropped snapshots returned. One
/// page holds a hub and a medium vertex written in every batch, so their
/// recycled copies go into the spills' old buffers; a spill array whose
/// capacity a delete and an insert keep, recycled the same way; two
/// vertices that climb a rung (past `a` at the default thresholds and at
/// `a = 4`), so a later copy meets a spill of another shape; and a
/// page-mate never written again, copied shallowly. Two snapshots are held
/// at a time and dropped oldest first, then newest first, two of them from
/// a spawned thread; the axis checks every held one after every step.
fn recycled_pages() -> Vec<Op> {
    // Vertex v's even ids below 2·degree; inserts add odd ids.
    let even = |v: u32, degree: u32| (0..degree).map(move |i| (v, 2 * i));
    let load = [
        (1, 300),
        (2, 60),
        (3, 45),
        (4, 33),
        (5, 17),
        (6, 17),
        (40, 5),
    ];
    let load = load.into_iter().flat_map(|(v, d)| even(v, d)).collect();
    let grow = |ids: &[u32], climbers: bool| {
        let hub = ids.iter().flat_map(|&u| [(1, u), (2, u)]);
        let up = climbers.then_some([(3, ids[0]), (6, ids[0])]);
        Insert(hub.chain(up.into_iter().flatten()).collect())
    };
    vec![
        Insert(load),
        Snap,
        grow(&[101, 301, 501], true),
        Snap,
        Delete(vec![(1, 200), (1, 400), (2, 100), (5, 32)]),
        DropSnapOnThread(0),
        Snap,
        Insert(vec![
            (1, 103),
            (1, 303),
            (2, 103),
            (3, 103),
            (5, 33),
            (6, 103),
        ]),
        DropSnap(0),
        Snap,
        Delete(vec![(1, 202), (2, 102), (5, 30)]),
        DropSnapOnThread(1),
        grow(&[105], false),
        Snap,
        grow(&[107], false),
    ]
}

/// One test per engine, with the tiers an LSGraph engine's `spread` set
/// reaches.
macro_rules! engines {
    ($($test:ident: $engine:literal $tiers:expr;)*) => {$(
        #[test]
        fn $test() { axis($engine, &$tiers) }
    )*};
}

engines! {
    lsgraph: "LSGraph" [Inline, Array, Ria];
    lsgraph_small_thresholds: "LSGraph-a4m16" [Inline, Array, Ria, HiTree];
    lsgraph_pma_ablation: "LSGraph-PMA" [Inline, Array, Pma];
    lsgraph_ria_only_ablation: "LSGraph-RiaOnly" [Inline, Array, Ria];
    lsgraph_binary_search_ablation: "LSGraph-Binary" [Inline, Array, Ria, HiTree];
    terrace: "Terrace" [];
    aspen: "Aspen" [];
    pactree: "PaC-tree" [];
    sortledton: "Sortledton" [];
    pcsr: "PCSR" [];
}
