//! The simulator's standing seed set (`tests/sim`): a symmetric batch stream
//! drives a subscription hub carrying all four query kinds, and after every
//! quiesced batch each subscription equals its from-scratch oracle and its
//! polled deltas replay to its result, one delta per batch.
//!
//! With `--features failpoints` the set also kills one subscription
//! mid-delivery (`subscription_deliver`: survivors stay oracle-equal, the
//! restarted one reconverges) and commits lossy batches under probabilistic
//! `apply_run` kills followed by repairs.
//!
//! A third set aims its deletes at the anchor's neighbourhood, where the
//! random 96-id deletes rarely land: every delete pair has one end among the
//! anchor's low ids, so the traversal maintainers' support-checked repair
//! runs on cut tree edges, under held snapshots and, with the feature, under
//! `apply_run` kills.

#[path = "sim/harness.rs"]
mod harness;
#[path = "sim/model.rs"]
mod model;

use lsgraph::queries::StandingQuery::{self, *};
use lsgraph_api::FailMode::{Nth, Probability};
use rand::{rngs::SmallRng, Rng, SeedableRng};

use harness::{batch, check_set, pairs, Op, Op::*};

const SEEDS: [u64; 4] = [11, 23, 47, 91];

const QUERIES: [StandingQuery; 4] = [
    KHop { src: 0, k: 2 },
    ComponentMembership { src: 0 },
    WindowedEdgeCount { window: 3 },
    WindowedTriangleCount { window: 3 },
];

/// A symmetric batch over a small id space, so deletes hit real edges and
/// components split and merge.
fn symmetric(rng: &mut SmallRng) -> Op {
    let (insert, len) = (rng.gen_bool(0.7), rng.gen_range(1..32));
    let pairs = pairs(rng, len, 96, 96).into_iter();
    batch(insert, pairs.flat_map(|(a, b)| [(a, b), (b, a)]).collect())
}

/// A mirrored batch whose every pair has one end below 4, next to the
/// anchor: a delete cuts BFS-tree edges near the source.
fn anchored(rng: &mut SmallRng, insert: bool) -> Op {
    let len = rng.gen_range(1..12);
    let pairs = pairs(rng, len, 4, 96).into_iter();
    batch(insert, pairs.flat_map(|(a, b)| [(a, b), (b, a)]).collect())
}

/// `n` rounds of one symmetric batch, then a drained hub.
fn rounds(rng: &mut SmallRng, n: usize) -> Vec<Op> {
    (0..n).flat_map(|_| [symmetric(rng), Quiesce]).collect()
}

/// An early subscriber keeps batches queuing; the late one registers while a
/// batch is queued but already reflected in its registration state, so
/// delivery must skip it (the harness checks a bootstrap delta only).
fn late_subscription(rng: &mut SmallRng) -> Vec<Op> {
    let mut ops = vec![Subscribe(QUERIES[0])];
    ops.extend((0..4).map(|_| symmetric(rng)));
    ops.extend([Pause, symmetric(rng), Subscribe(QUERIES[1]), Quiesce]);
    ops
}

#[test]
fn late_subscription_skips_already_reflected_batches() {
    check_set("standing/late", "standing", SEEDS, |seed| {
        late_subscription(&mut SmallRng::seed_from_u64(seed ^ 0xA5A5))
    });
}

#[test]
fn subscriptions_match_from_scratch_kernels_every_batch() {
    let kills = cfg!(feature = "failpoints");
    let sims = check_set("standing", "standing", SEEDS, |seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ops = late_subscription(&mut rng);
        ops.extend([Subscribe(QUERIES[2]), Subscribe(QUERIES[3])]);
        ops.extend(rounds(&mut rng, 24));
        if kills {
            // Registration order picks the victim; survivors stay
            // oracle-equal and the restarted one reconverges.
            let victim = 1 + SEEDS.iter().position(|&s| s == seed).unwrap() as u64;
            ops.extend([Pause, Arm("subscription_deliver", Nth(victim))]);
            ops.extend(rounds(&mut rng, 1));
            ops.push(Disarm("subscription_deliver"));
            ops.extend(rounds(&mut rng, 6));
            ops.push(Restart);
            ops.extend(rounds(&mut rng, 4));
            // Lossy commits: the batch after a repair refreshes every
            // subscription from the snapshot.
            for t in 0..12 {
                let seed = seed ^ 0xBEEF ^ t;
                let kill = Arm("apply_run", Probability { p: 0.08, seed });
                ops.extend([kill, symmetric(&mut rng), Disarm("apply_run"), Repair]);
                ops.extend(rounds(&mut rng, 1));
            }
        }
        ops
    });
    for sim in sims.iter().filter(|_| kills) {
        assert_eq!(sim.fires.get("subscription_deliver"), Some(&1));
    }
}

#[test]
fn anchored_deletes_repair_only_what_they_cut() {
    let kills = cfg!(feature = "failpoints");
    let sims = check_set("standing/anchored", "standing", SEEDS, |seed| {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
        let mut ops: Vec<Op> = QUERIES.iter().map(|&q| Subscribe(q)).collect();
        for t in 0..24 {
            // Grow next to the anchor and away from it, then cut next to it
            // with a snapshot held across the cut (dropped every other round).
            ops.extend([symmetric(&mut rng), anchored(&mut rng, true), Snap]);
            let cut = anchored(&mut rng, false);
            if kills && t % 3 == 2 {
                let kill = Arm(
                    "apply_run",
                    Probability {
                        p: 0.1,
                        seed: seed ^ t,
                    },
                );
                ops.extend([kill, cut, Disarm("apply_run"), Repair]);
            } else {
                ops.push(cut);
            }
            ops.push(Quiesce);
            if t % 2 == 1 {
                ops.push(DropSnap(rng.gen_range(0..4)));
            }
        }
        ops
    });
    for sim in sims.iter().filter(|_| kills) {
        assert!(sim.fires.get("apply_run").is_some_and(|&n| n > 0));
    }
}
