//! The traced run's per-layer probes and the per-layer metric list.
//!
//! The probes run after the measured rounds, on the same engine, and leave
//! the graph as they found it. Each isolates one layer, or one tier of one
//! layer, so that a change to it has a number of its own to move.

use std::collections::BTreeMap;
use std::hint::black_box;

use lsgraph_analytics::{connected_components, triangle_count};
use lsgraph_api::batch::{runs_by_src, sorted_dedup_keys};
use lsgraph_api::{Edge, Graph, StructSnapshot};
use lsgraph_core::{LsGraph, Tier};
use rayon::prelude::*;

use crate::calib::{median, quantile, Rng};
use crate::ctx::{Ctx, Rec};
use crate::engine::{apply, count_hits, Engine};
use crate::inputs::Inputs;
use crate::model::INF;
use crate::run::{Measured, Metric};
use crate::spec::{self, Mode, Workload, BFS_REPS, PR_ITERS};

/// Per-layer values found by the probes: name to `(value, samples)`.
pub type LayerMap = BTreeMap<&'static str, (f64, usize)>;

const TIER_PROBES: usize = 1 << 17;
const TIER_SCAN_EDGES: usize = 1 << 21;
const TIER_BATCH: usize = 1 << 14;
const REPS: usize = 3;
const FLOOR_REPS: usize = 200;

const INSERT_NAMES: [&str; 4] = [
    "core.insert_ns_per_edge.inline",
    "core.insert_ns_per_edge.array",
    "core.insert_ns_per_edge.ria",
    "core.insert_ns_per_edge.hitree",
];
const PROBE_NAMES: [&str; 4] = [
    "core.probe_ns.inline",
    "core.probe_ns.array",
    "core.probe_ns.ria",
    "core.probe_ns.hitree",
];
const SCAN_NAMES: [&str; 4] = [
    "core.scan_ns_per_edge.inline",
    "core.scan_ns_per_edge.array",
    "core.scan_ns_per_edge.ria",
    "core.scan_ns_per_edge.hitree",
];
const SHARE_NAMES: [&str; 4] = [
    "core.batch_edge_share.inline",
    "core.batch_edge_share.array",
    "core.batch_edge_share.ria",
    "core.batch_edge_share.hitree",
];
fn tier_index(t: Tier) -> Option<usize> {
    match t {
        Tier::Inline => Some(0),
        Tier::Array => Some(1),
        Tier::Ria => Some(2),
        Tier::HiTree => Some(3),
        // Neither exists under the default configuration every workload uses.
        Tier::Pma | Tier::Compressed => None,
    }
}

/// Median of a named sample, per operation, in nanoseconds.
fn ns_per(ctx: &Ctx, name: &str, ops: usize) -> (f64, usize) {
    let s = ctx.sample(name);
    (median(s) / ops as f64 * 1e9, s.len())
}

pub fn probe(e: &mut Engine, w: &Workload, inp: &Inputs, ctx: &mut Ctx, out: &mut LayerMap) {
    // The hub must not answer the probes' batches.
    e.cancel_subscriptions();
    api_phases(w, inp, ctx);
    tiers(e.graph_mut(), inp, ctx, out);
    floors(e.graph_mut(), inp, ctx);
    twin_passes(e, w, inp, ctx, out);
    kernels(e.graph(), ctx);
}

/// `sorted_dedup_keys` and `runs_by_src` on the workload's own batches.
fn api_phases(w: &Workload, inp: &Inputs, ctx: &mut Ctx) {
    ctx.segment("probe.api", |rec, _| {
        for batch in inp.pool.chunks(w.batch) {
            let keys = rec.call("api.sort_dedup", || sorted_dedup_keys(batch));
            black_box(rec.call("api.group", || runs_by_src(&keys)));
        }
    });
}

/// Probe, scan and insert cost of each tier, on vertices that sit in it.
fn tiers(g: &mut LsGraph, inp: &Inputs, ctx: &mut Ctx, out: &mut LayerMap) {
    let mut buckets: [Vec<u32>; 4] = Default::default();
    for v in 0..g.num_vertices() as u32 {
        if let Some(i) = tier_index(g.tier(v)) {
            buckets[i].push(v);
        }
    }
    let mut share = [0usize; 4];
    for e in &inp.pool {
        if let Some(i) = tier_index(g.tier(e.src)) {
            share[i] += 1;
        }
    }
    let mut rng = Rng(0x71E5);
    for (i, bucket) in buckets.iter().enumerate() {
        out.insert(
            SHARE_NAMES[i],
            (100.0 * share[i] as f64 / inp.pool.len() as f64, 1),
        );
        if bucket.is_empty() {
            continue;
        }
        // Half the probes name a real neighbour, half a random vertex.
        let probes: Vec<(u32, u32)> = (0..TIER_PROBES)
            .map(|_| {
                let v = bucket[rng.below(bucket.len())];
                let ns = inp.base.out(v);
                if ns.is_empty() || rng.next_u64() & 1 == 0 {
                    (v, rng.below(inp.n) as u32)
                } else {
                    (v, ns[rng.below(ns.len())] as u32)
                }
            })
            .collect();
        let mut scan: Vec<u32> = Vec::new();
        let mut scan_edges = 0;
        for &v in bucket {
            if scan_edges >= TIER_SCAN_EDGES {
                break;
            }
            scan.push(v);
            scan_edges += inp.base.degree(v);
        }
        // Fresh edges spread evenly over the tier's vertices.
        let mut batch: Vec<Edge> = Vec::with_capacity(TIER_BATCH);
        let mut taken = std::collections::BTreeSet::new();
        while batch.len() < TIER_BATCH {
            let v = bucket[batch.len() % bucket.len()];
            let d = rng.below(inp.n) as u32;
            if !inp.base.has_edge(v, d) && taken.insert((v, d)) {
                batch.push(Edge::new(v, d));
            }
        }
        let want = probes
            .iter()
            .filter(|&&(s, d)| inp.base.has_edge(s, d))
            .count();
        ctx.segment("probe.tier", |rec, tally| {
            for _ in 0..REPS {
                let hits = rec.call(PROBE_NAMES[i], || count_hits(&*g, &probes));
                tally.check("tier probe hit count", hits == want);
                let seen = rec.call(SCAN_NAMES[i], || {
                    let mut n = 0usize;
                    for &v in &scan {
                        g.for_each_neighbor(v, &mut |u| n += usize::from(black_box(u) != u32::MAX));
                    }
                    n
                });
                tally.check("tier scan edge count", seen == scan_edges);
                let r = rec.call(INSERT_NAMES[i], || g.try_insert_batch(&batch));
                tally.check(
                    "tier insert batch",
                    matches!(&r, Ok(o) if o.applied == batch.len()),
                );
                let r = g.try_delete_batch(&batch);
                tally.check(
                    "tier delete batch",
                    matches!(&r, Ok(o) if o.applied == batch.len()),
                );
            }
        });
        out.insert(PROBE_NAMES[i], ns_per(ctx, PROBE_NAMES[i], TIER_PROBES));
        out.insert(SCAN_NAMES[i], ns_per(ctx, SCAN_NAMES[i], scan_edges.max(1)));
        out.insert(INSERT_NAMES[i], ns_per(ctx, INSERT_NAMES[i], TIER_BATCH));
    }
}

/// The cost of calling at all: a one-edge batch, and an empty fork-join.
fn floors(g: &mut LsGraph, inp: &Inputs, ctx: &mut Ctx) {
    let one = [inp.pool[0]];
    ctx.segment("probe.floor", |rec, tally| {
        for _ in 0..FLOOR_REPS {
            let r = rec.call("core.call_floor", || g.try_insert_batch(&one));
            let d = g.try_delete_batch(&one);
            tally.check(
                "one-edge batch",
                matches!((&r, &d), (Ok(a), Ok(b)) if a.applied == 1 && b.applied == 1),
            );
            // 64 items: enough for the shim to fork, too few to do work.
            rec.call("rayon.fork_join", || {
                (0..64u32).into_par_iter().for_each(|x| {
                    black_box(x);
                })
            });
        }
    });
}

/// The pool inserted and deleted straight on the graph, with and without a
/// snapshot held across every batch; on a store, also through the store with
/// no subscription left, which splits the WAL's and the hub's cost off.
fn twin_passes(e: &mut Engine, w: &Workload, inp: &Inputs, ctx: &mut Ctx, out: &mut LayerMap) {
    fn pass(g: &mut LsGraph, w: &Workload, inp: &Inputs, held: bool, rec: &mut Rec) {
        for insert in [true, false] {
            for batch in inp.pool.chunks(w.batch) {
                let snap = held.then(|| g.snapshot());
                let name = if held {
                    "twin.held_batch"
                } else {
                    "twin.plain_batch"
                };
                black_box(rec.call(name, || apply(g, insert, batch))).ok();
                if let Some(s) = snap {
                    rec.call("core.snapshot_drop", || drop(s));
                    rec.call("core.reclaim_epochs", || g.reclaim_epochs());
                }
            }
        }
    }
    let mut copies = 0;
    for _ in 0..REPS {
        ctx.segment("probe.twin_plain", |rec, _| {
            pass(e.graph_mut(), w, inp, false, rec)
        });
        let before = e.graph().struct_snapshot().cow_block_copies;
        ctx.segment("probe.twin_held", |rec, _| {
            pass(e.graph_mut(), w, inp, true, rec)
        });
        copies += e.graph().struct_snapshot().cow_block_copies - before;
        if w.mode == Mode::Durable {
            e.update_name = "twin.store_batch";
            ctx.segment("probe.twin_store", |rec, tally| {
                e.update(true, &inp.pool, w.batch, inp, rec, tally);
                e.update(false, &inp.pool, w.batch, inp, rec, tally);
            });
            e.update_name = w.update_call();
        }
    }
    ctx.checks(|t| {
        t.check(
            "twin passes restore the graph",
            e.graph().num_edges() == inp.base.num_edges(),
        )
    });
    let batches = 2 * inp.pool.len().div_ceil(w.batch) * REPS;
    out.insert(
        "core.cow_block_copies_per_batch",
        (copies as f64 / batches as f64, batches),
    );
}

fn kernels(g: &LsGraph, ctx: &mut Ctx) {
    ctx.segment("probe.cc", |rec, _| {
        black_box(rec.call("analytics.cc", || connected_components(g)));
    });
    ctx.segment("probe.tc", |rec, _| {
        black_box(rec.call("analytics.tc", || triangle_count(g)));
    });
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them. A layer
/// the workload never enters reports 0.
pub fn metrics(
    w: &Workload,
    inp: &Inputs,
    ctx: &Ctx,
    m: &Measured,
    stats: &StructSnapshot,
    mut out: LayerMap,
) -> Vec<Metric> {
    let us = |name: &str| {
        let s = ctx.sample(name);
        (median(s) * 1e6, s.len())
    };
    let ms = |name: &str| {
        let s = ctx.sample(name);
        (median(s) * 1e3, s.len())
    };
    let rounds = m.rounds as f64;
    let batches_per_round = 2 * inp.pool.len().div_ceil(w.batch);
    let calls = ctx.sample(w.update_call());
    let batch_us = median(calls) * 1e6;

    out.insert("api.sort_dedup_us", us("api.sort_dedup"));
    out.insert("api.group_us", us("api.group"));
    let apply_us = batch_us - us("api.sort_dedup").0 - us("api.group").0;
    out.insert("core.apply_us", (apply_us, calls.len()));
    let phases =
        (stats.phase_sort_nanos + stats.phase_group_nanos + stats.phase_apply_nanos).max(1) as f64;
    out.insert(
        "core.sort_share",
        (100.0 * stats.phase_sort_nanos as f64 / phases, 1),
    );
    out.insert(
        "core.apply_share",
        (100.0 * stats.phase_apply_nanos as f64 / phases, 1),
    );
    for (name, count) in [
        ("core.tier_vertices.inline", m.tiers.inline_vertices),
        ("core.tier_vertices.array", m.tiers.array_vertices),
        ("core.tier_vertices.ria", m.tiers.ria_vertices),
        ("core.tier_vertices.hitree", m.tiers.hitree_vertices),
    ] {
        out.insert(name, (count as f64, 1));
    }
    let spill =
        m.tiers.spill_edges as f64 / (m.tiers.spill_edges + m.tiers.inline_edges).max(1) as f64;
    out.insert("core.spill_edge_share", (100.0 * spill, 1));
    out.insert("core.call_floor_us", us("core.call_floor"));
    out.insert("rayon.fork_join_us", us("rayon.fork_join"));
    out.insert("rayon.threads", (rayon::current_num_threads() as f64, 1));
    let spawns: Vec<f64> = ctx
        .segs
        .iter()
        .filter(|s| s.name == "U+" || s.name == "U-")
        .map(|s| s.spawns as f64 / (batches_per_round / 2) as f64)
        .collect();
    out.insert("rayon.spawns_per_batch", (median(&spawns), spawns.len()));
    let held = ctx.sample("twin.held_batch");
    let plain = ctx.sample("twin.plain_batch");
    out.insert(
        "core.cow_batch_ratio",
        (median(held) / median(plain), held.len()),
    );
    out.insert("core.snapshot_drop_us", us("core.snapshot_drop"));
    out.insert("core.epoch_reclaim_us", us("core.reclaim_epochs"));
    let moved = stats.vb_inline_shifts
        + stats.arr_shifts
        + stats.ria_within_block_shifts
        + stats.ria_cross_block_moves
        + stats.lia_within_block_shifts;
    let edges = rounds * 2.0 * inp.pool.len() as f64;
    out.insert("core.elements_moved_per_edge", (moved as f64 / edges, 1));
    out.insert(
        "core.tier_upgrades",
        (stats.tier_upgrades as f64 / rounds, 1),
    );
    out.insert("core.ria_rebuilds", (stats.ria_rebuilds as f64 / rounds, 1));
    out.insert(
        "core.lia_retrains",
        (stats.lia_model_retrains as f64 / rounds, 1),
    );
    out.insert(
        "core.batch_p95_us",
        (quantile(calls, 0.95) * 1e6, calls.len()),
    );

    let levels = inp
        .bfs_levels
        .iter()
        .filter(|&&l| l != INF)
        .max()
        .map_or(0, |&l| l + 1);
    out.insert("analytics.bfs_levels", (f64::from(levels), 1));
    let reached_edges: usize = (0..inp.n as u32)
        .filter(|&v| inp.bfs_levels[v as usize] != INF)
        .map(|v| inp.full.degree(v))
        .sum();
    let b = ctx.sample("B");
    let bfs_us = median(b) / BFS_REPS as f64 * 1e6;
    out.insert(
        "analytics.bfs_edges_per_us",
        (reached_edges as f64 / bfs_us, b.len()),
    );
    let r = ctx.sample("R");
    let pr_us = median(r) / PR_ITERS as f64 * 1e6;
    out.insert(
        "analytics.pr_edges_per_us",
        (inp.full.num_edges() as f64 / pr_us, r.len()),
    );
    out.insert("analytics.cc_ms", ms("analytics.cc"));
    out.insert("analytics.tc_ms", ms("analytics.tc"));

    if w.mode == Mode::Durable {
        let bare = median(plain) * 1e6;
        let logged = ctx.sample("twin.store_batch");
        out.insert(
            "persist.wal_append_us",
            (median(logged) * 1e6 - bare, logged.len()),
        );
        out.insert(
            "queries.hook_us",
            (batch_us - median(logged) * 1e6, calls.len()),
        );
        out.insert("persist.wal_sync_us", us("persist.sync"));
        out.insert(
            "persist.checkpoint_delta_ms",
            ms("persist.checkpoint_delta"),
        );
        out.insert("persist.checkpoint_full_ms", ms("persist.checkpoint_full"));
        out.insert("persist.recovery_ms", ms("persist.recover"));
        out.insert("persist.retention_ms", ms("persist.retention"));
        out.insert("queries.delivery_lag_us", us("queries.quiesce"));
        out.insert(
            "queries.deltas_delivered",
            (stats.deltas_delivered as f64 / rounds, 1),
        );
        out.insert(
            "queries.delta_entries_per_batch",
            (
                stats.delta_entries_emitted as f64 / (rounds * batches_per_round as f64),
                1,
            ),
        );
        out.insert("queries.subscribe_ms", ms("queries.subscribe"));
    }

    let gen = ctx.sample("gen.generate");
    out.insert(
        "gen.build_meps",
        (
            w.generator.raw_edges() as f64 / median(gen) / 1e6,
            gen.len(),
        ),
    );
    let c: Vec<f64> = ctx.calib.samples.iter().map(|s| s.total()).collect();
    let mean = c.iter().sum::<f64>() / c.len() as f64;
    let var = c.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / c.len() as f64;
    out.insert("host.calib_ms", (median(&c) * 1e3, c.len()));
    out.insert("host.calib_cv", (100.0 * var.sqrt() / mean, c.len()));
    let spawn: Vec<f64> = ctx.calib.samples.iter().map(|s| s.per_spawn()).collect();
    out.insert("host.spawn_us", (median(&spawn) * 1e6, spawn.len()));
    let scales: Vec<f64> = ctx.segs.iter().map(|s| s.scale).collect();
    out.insert("host.scale", (median(&scales), scales.len()));
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    out.insert("host.nproc", (nproc as f64, 1));

    let [control, traced] = &m.round_s;
    out.insert(
        "trace.overhead_pct",
        (
            100.0 * (median(traced) / median(control) - 1.0),
            traced.len().min(control.len()),
        ),
    );
    let breakdown = ctx.rec.spans.rounds();
    let coverage = breakdown.iter().map(|r| r.coverage()).fold(1.0, f64::min);
    out.insert("trace.coverage_pct", (100.0 * coverage, breakdown.len()));
    for (layer, name) in [
        ("core", "trace.self_ms.core"),
        ("analytics", "trace.self_ms.analytics"),
        ("persist", "trace.self_ms.persist"),
        ("queries", "trace.self_ms.queries"),
        ("host", "trace.self_ms.host"),
        ("bench", "trace.self_ms.bench"),
    ] {
        let per_round: Vec<f64> = breakdown
            .iter()
            .map(|r| r.by_layer.get(layer).copied().unwrap_or(0) as f64 / 1e6)
            .collect();
        out.insert(name, (median(&per_round), per_round.len()));
    }

    spec::PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let (value, n) = out.get(name).copied().unwrap_or((0.0, 0));
            Metric {
                name: name.to_string(),
                value,
                unit,
                n,
            }
        })
        .collect()
}
