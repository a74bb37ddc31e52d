//! The system under test, driven only through public items of `core`,
//! `analytics`, `persist` and `queries`, and one round of the benchmark.

use std::collections::VecDeque;
use std::hint::black_box;
use std::path::{Path, PathBuf};

use lsgraph_analytics::{bfs, pagerank};
use lsgraph_api::{Edge, Graph, MemoryFootprint};
use lsgraph_core::{BatchOutcome, Config, GraphSnapshot, LsGraph};
use lsgraph_persist::{Store, StoreOptions};
use lsgraph_queries::{StandingQuery, SubscriptionHandle, SubscriptionHub};

use crate::ctx::{Ctx, Rec, Tally};
use crate::inputs::{generate, Inputs};
use crate::model::{key, Model};
use crate::spec::{Mode, Workload, BFS_REPS, PR_DAMPING, PR_ITERS, SYNC_EVERY};

const WINDOW: usize = 8;

enum Backend {
    Mem(LsGraph),
    Store(Box<Store>),
}

/// Fields drop top to bottom: subscriptions, then the hub (joins its delivery
/// worker), then the graph that holds the hub's hook.
pub struct Engine {
    subs: Vec<SubscriptionHandle>,
    hub: Option<SubscriptionHub>,
    backend: Backend,
    mode: Mode,
    /// Name under which update calls are timed; the traced run's twin passes
    /// change it to keep their samples apart.
    pub update_name: &'static str,
    /// The reference's copy of the windowed query's history: per batch, the
    /// keys it inserted (`None` for a delete batch).
    window: VecDeque<Option<Vec<u64>>>,
}

/// Options under which `Store::checkpoint()` has no choice to make: the first
/// image of a chain is full, every later one a delta.
pub fn store_options() -> StoreOptions {
    StoreOptions {
        delta_ratio: 1.0,
        max_delta_chain: u64::MAX,
        ..StoreOptions::default()
    }
}

pub struct Setup {
    pub engine: Engine,
    pub base_edges: Vec<Edge>,
    /// Sum of the normalised stage times.
    pub setup_s: f64,
}

fn outcome_ok<E>(r: &Result<BatchOutcome, E>) -> bool {
    matches!(r, Ok(o) if o.edges_lost == 0)
}

/// Generates the base graph and builds the engine on it, one calibrated
/// segment per stage.
pub fn setup(w: &Workload, seed: u64, store_dir: &Path, ctx: &mut Ctx) -> Result<Setup, String> {
    let n = 1usize << w.generator.scale;
    let mut setup_s = 0.0;
    let (base_edges, seg) = ctx.segment("setup.gen", |rec, _| {
        rec.call("gen.generate", || {
            generate(w.generator, w.generator.raw_edges(), seed)
        })
    });
    setup_s += seg.norm_s;

    let engine = if w.mode == Mode::Durable {
        let _ = std::fs::remove_dir_all(store_dir);
        let (opened, seg) = ctx.segment("setup.open", |rec, _| {
            rec.call("persist.open", || {
                Store::open_with(store_dir, n, Config::default(), store_options())
            })
        });
        setup_s += seg.norm_s;
        let (mut store, _) = opened.map_err(|e| format!("open store: {e}"))?;
        let (_, seg) = ctx.segment("setup.load", |rec, tally| {
            for chunk in base_edges.chunks(1 << 18) {
                let r = rec.call("persist.bulk_insert", || store.insert_batch(chunk));
                tally.check("bulk load batch", outcome_ok(&r));
            }
        });
        setup_s += seg.norm_s;
        let (meta, seg) = ctx.segment("setup.checkpoint", |rec, _| {
            rec.call("persist.checkpoint_full", || store.checkpoint())
        });
        setup_s += seg.norm_s;
        let meta = meta.map_err(|e| format!("first checkpoint: {e}"))?;
        ctx.samples
            .entry("persist.image_bytes")
            .or_default()
            .push(meta.bytes as f64);
        let ((hub, subs), seg) = ctx.segment("setup.subscribe", |rec, _| {
            rec.call("queries.subscribe", || {
                let g = store.graph_mut();
                let hub = SubscriptionHub::attach(g);
                let src = (0..g.num_vertices() as u32)
                    .max_by_key(|&v| (g.degree(v), std::cmp::Reverse(v)))
                    .unwrap_or(0);
                let subs = [
                    StandingQuery::KHop { src, k: 2 },
                    StandingQuery::WindowedEdgeCount { window: WINDOW },
                    StandingQuery::ComponentMembership { src },
                ]
                .map(|q| hub.subscribe(g, q))
                .into_iter()
                .collect::<Vec<_>>();
                (hub, subs)
            })
        });
        setup_s += seg.norm_s;
        Engine {
            subs,
            hub: Some(hub),
            backend: Backend::Store(Box::new(store)),
            mode: w.mode,
            update_name: w.update_call(),
            window: VecDeque::new(),
        }
    } else {
        let (g, seg) = ctx.segment("setup.build", |rec, _| {
            rec.call("core.from_edges", || {
                LsGraph::from_edges(n, &base_edges, Config::default())
            })
        });
        setup_s += seg.norm_s;
        Engine {
            subs: Vec::new(),
            hub: None,
            backend: Backend::Mem(g),
            mode: w.mode,
            update_name: w.update_call(),
            window: VecDeque::new(),
        }
    };
    Ok(Setup {
        engine,
        base_edges,
        setup_s,
    })
}

impl Engine {
    pub fn graph(&self) -> &LsGraph {
        match &self.backend {
            Backend::Mem(g) => g,
            Backend::Store(s) => s.graph(),
        }
    }

    /// The graph itself; on a store this bypasses the WAL, which the traced
    /// run's twin passes want (they restore the state they found).
    pub fn graph_mut(&mut self) -> &mut LsGraph {
        match &mut self.backend {
            Backend::Mem(g) => g,
            Backend::Store(s) => s.graph_mut(),
        }
    }

    pub fn store_mut(&mut self) -> Option<&mut Store> {
        match &mut self.backend {
            Backend::Mem(_) => None,
            Backend::Store(s) => Some(s),
        }
    }

    /// Cancels every subscription, so the hub's hook returns at once.
    pub fn cancel_subscriptions(&mut self) {
        if let Some(hub) = &self.hub {
            hub.quiesce();
        }
        self.subs.clear();
    }

    /// One update segment: `edges` in batches of `b`, inserted or deleted,
    /// with whatever the workload's mode does around each batch. Returns the
    /// number of edges the engine reports it applied.
    pub fn update(
        &mut self,
        insert: bool,
        edges: &[Edge],
        b: usize,
        inp: &Inputs,
        rec: &mut Rec,
        tally: &mut Tally,
    ) -> usize {
        let mut applied = 0;
        let name = self.update_name;
        let batches = edges.chunks(b).count();
        for (i, batch) in edges.chunks(b).enumerate() {
            rec.spans.batch = i as u32;
            let ok = match (&mut self.backend, self.mode) {
                (Backend::Store(store), _) => {
                    let r = rec.call(name, || {
                        if insert {
                            store.insert_batch(batch)
                        } else {
                            store.delete_batch(batch)
                        }
                    });
                    applied += r.as_ref().map_or(0, |o| o.applied);
                    let mut ok = outcome_ok(&r);
                    if (i + 1) % SYNC_EVERY == 0 || i + 1 == batches {
                        ok &= rec.call("persist.sync", || store.sync()).is_ok();
                    }
                    self.window.push_back(
                        insert.then(|| batch.iter().map(|e| key(e.src, e.dst)).collect()),
                    );
                    if self.window.len() > WINDOW {
                        self.window.pop_front();
                    }
                    ok
                }
                (Backend::Mem(g), Mode::Mixed) => {
                    let snap = rec.call("core.snapshot", || g.snapshot());
                    let r = rec.call(name, || apply(g, insert, batch));
                    applied += r.as_ref().map_or(0, |o| o.applied);
                    let probes = &inp.held_probes[i];
                    let hits = rec.call("core.has_edge", || count_hits(&snap, probes));
                    // The snapshot predates the batch: an inserted edge must
                    // be invisible to it, a deleted one still visible.
                    let expect = if insert {
                        probes.len() / 2
                    } else {
                        probes.len()
                    };
                    tally.check("held snapshot isolation", hits == expect);
                    rec.call("core.snapshot_drop", || drop(snap));
                    rec.call("core.reclaim_epochs", || g.reclaim_epochs());
                    outcome_ok(&r)
                }
                (Backend::Mem(g), _) => {
                    let r = rec.call(name, || apply(g, insert, batch));
                    applied += r.as_ref().map_or(0, |o| o.applied);
                    outcome_ok(&r)
                }
            };
            tally.check("update batch", ok);
        }
        rec.spans.batch = 0;
        if let Backend::Store(store) = &mut self.backend {
            let before = store.graph().struct_snapshot().delta_checkpoints_written;
            let r = rec.call("persist.checkpoint_delta", || store.checkpoint());
            let after = store.graph().struct_snapshot().delta_checkpoints_written;
            tally.check("delta checkpoint", r.is_ok() && after == before + 1);
            // With every subscription cancelled (the traced run's twin
            // passes) there is nothing to wait for and nothing to time.
            if let (Some(hub), false) = (&self.hub, self.subs.is_empty()) {
                rec.call("queries.quiesce", || hub.quiesce());
            }
        }
        applied
    }

    /// Compares every subscription's materialised result with the reference's
    /// recompute on `state` (0 = base, 1 = full).
    fn check_standing(&self, inp: &Inputs, state: usize, tally: &mut Tally) {
        let (Some(refs), [khop, window, component]) = (&inp.standing, &self.subs[..]) else {
            return;
        };
        let model: &Model = if state == 0 { &inp.base } else { &inp.full };
        tally.check("k-hop subscription", khop.result() == refs[state].khop);
        tally.check(
            "component subscription",
            component.result() == refs[state].component,
        );
        let mut cand: Vec<u64> = self.window.iter().flatten().flatten().copied().collect();
        cand.sort_unstable();
        cand.dedup();
        let present = cand
            .iter()
            .filter(|&&k| model.has_edge((k >> 32) as u32, k as u32))
            .count() as u64;
        tally.check(
            "windowed-count subscription",
            window.result().get(&0).copied() == Some(present),
        );
    }
}

pub fn apply(
    g: &mut LsGraph,
    insert: bool,
    batch: &[Edge],
) -> Result<BatchOutcome, lsgraph_core::GraphError> {
    if insert {
        g.try_insert_batch(batch)
    } else {
        g.try_delete_batch(batch)
    }
}

pub fn count_hits<G: Graph + ?Sized>(g: &G, probes: &[(u32, u32)]) -> usize {
    probes.iter().filter(|&&(s, d)| g.has_edge(s, d)).count()
}

/// Segments P, B and R against `g` (the live graph, or a held snapshot).
fn reads<G: Graph>(g: &G, inp: &Inputs, ctx: &mut Ctx) {
    let (hits, _) = ctx.segment("P", |rec, _| {
        rec.call("core.has_edge", || count_hits(g, &inp.probes))
    });
    ctx.checks(|t| t.check("probe hit count", hits == inp.expected_hits));

    let (trees, _) = ctx.segment("B", |rec, _| {
        (0..BFS_REPS)
            .map(|_| rec.call("analytics.bfs", || bfs(g, inp.src)))
            .collect::<Vec<_>>()
    });
    ctx.checks(|t| {
        for (i, parents) in trees.iter().enumerate() {
            // Every run must reach the reference's vertices; the last is
            // checked edge by edge as a shortest-path tree.
            let ok = if i + 1 == trees.len() {
                inp.full.is_bfs_tree(inp.src, &inp.bfs_levels, parents)
            } else {
                Model::same_reach(&inp.bfs_levels, parents)
            };
            t.check("bfs result", ok);
        }
    });

    let (scores, _) = ctx.segment("R", |rec, _| {
        rec.call("analytics.pagerank", || pagerank(g, PR_ITERS, PR_DAMPING))
    });
    ctx.checks(|t| {
        let ok = scores.len() == inp.pagerank.len() && {
            let l1: f64 = scores
                .iter()
                .zip(&inp.pagerank)
                .map(|(a, b)| (a - b).abs())
                .sum();
            let mass: f64 = scores.iter().sum();
            let mass_ref: f64 = inp.pagerank.iter().sum();
            l1 < 1e-9 && (mass - mass_ref).abs() < 1e-9
        };
        t.check("pagerank scores and mass", ok);
    });
}

/// One round: U+ S P B R U-, each a calibrated segment, each output checked.
/// The graph ends the round exactly as it began it. Returns the engine's
/// bytes per edge at the end of U+.
pub fn round(e: &mut Engine, w: &Workload, inp: &Inputs, ctx: &mut Ctx) -> f64 {
    let round_span = ctx.rec.spans.open("bench.round");

    let (applied, _) = ctx.segment("U+", |rec, tally| {
        e.update(true, &inp.pool, w.batch, inp, rec, tally)
    });
    ctx.checks(|t| {
        t.check("U+ applied count", applied == inp.pool.len());
        t.check(
            "edge count after U+",
            e.graph().num_edges() == inp.full.num_edges(),
        );
        e.check_standing(inp, 1, t);
    });
    let id = ctx.rec.spans.open("core.footprint");
    let bytes_per_edge = e.graph().footprint().total() as f64 / e.graph().num_edges() as f64;
    ctx.rec.spans.close(id);

    ctx.segment("S", |rec, _| {
        let g = e.graph();
        rec.call("core.snapshot_cycle", || {
            for _ in 0..w.snapshot_reps {
                drop(black_box(g.snapshot()));
            }
        })
    });

    if e.mode == Mode::Mixed {
        let id = ctx.rec.spans.open("core.snapshot_hold");
        let held: GraphSnapshot = e.graph().snapshot();
        ctx.rec.spans.close(id);
        reads(&held, inp, ctx);
        let id = ctx.rec.spans.open("core.snapshot_release");
        drop(held);
        e.graph().reclaim_epochs();
        ctx.rec.spans.close(id);
    } else {
        reads(e.graph(), inp, ctx);
    }

    let (removed, _) = ctx.segment("U-", |rec, tally| {
        e.update(false, &inp.pool, w.batch, inp, rec, tally)
    });
    ctx.checks(|t| {
        t.check("U- applied count", removed == inp.pool.len());
        t.check(
            "edge count after U-",
            e.graph().num_edges() == inp.base.num_edges(),
        );
        e.check_standing(inp, 0, t);
    });

    ctx.rec.spans.close(round_span);
    bytes_per_edge
}

/// A store directory removed when the run ends, however it ends.
pub struct StoreDir(pub PathBuf);

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
