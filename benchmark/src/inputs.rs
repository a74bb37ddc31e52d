//! Seeded inputs and the answers the reference model expects for them.

use std::collections::BTreeMap;

use lsgraph_api::Edge;
use lsgraph_gen::{erdos_renyi, graph500, rmat, RmatParams};

use crate::calib::Rng;
use crate::model::{key, Model};
use crate::spec::{
    Family, Generator, Mode, Workload, HELD_PROBES, PROBES, PR_DAMPING, PR_ITERS, TAIL_BATCHES,
};

/// `m` raw edges (duplicates and self-loops kept) from the workload's generator.
fn raw(g: Generator, m: usize, seed: u64) -> Vec<Edge> {
    match g.family {
        Family::Graph500 => graph500(g.scale, m, seed),
        Family::RmatPaper => rmat(g.scale, m, RmatParams::paper(), seed),
        Family::ErdosRenyi => erdos_renyi(1 << g.scale, m, seed),
    }
}

/// The base graph's edge list: `m` generated edges, each followed by its
/// reverse. The paper evaluates symmetrised graphs and the analytics kernels
/// are only defined on them (their dense steps pull along out-edges).
pub fn generate(g: Generator, m: usize, seed: u64) -> Vec<Edge> {
    raw(g, m, seed)
        .into_iter()
        .flat_map(|e| [e, e.reversed()])
        .collect()
}

/// What a standing query must hold in each of the two states a round visits.
pub struct StandingRef {
    pub khop: BTreeMap<u32, u64>,
    pub component: BTreeMap<u32, u64>,
}

pub struct Inputs {
    pub n: usize,
    /// Distinct edges absent from the base graph, in generator order.
    pub pool: Vec<Edge>,
    /// `Durable`: distinct edges absent from base and pool, logged after the
    /// last checkpoint.
    pub tail: Vec<Edge>,
    /// The graph every round starts and ends on.
    pub base: Model,
    /// Base plus pool: the graph segments S, P, B and R see.
    pub full: Model,
    pub probes: Vec<(u32, u32)>,
    pub expected_hits: usize,
    /// `Mixed`: per batch, probes for the snapshot held across it. The first
    /// half are base edges, the second half edges of that batch.
    pub held_probes: Vec<Vec<(u32, u32)>>,
    /// BFS source: the top-degree vertex of `full`.
    pub src: u32,
    pub bfs_levels: Vec<u32>,
    pub pagerank: Vec<f64>,
    /// `Durable`: the standing queries' source (top-degree vertex of `base`)
    /// and their results on `base` and on `full`.
    pub hub: u32,
    pub standing: Option<[StandingRef; 2]>,
}

/// `want` directed edges, as the first `want / 2` pairs `(u, v), (v, u)` of a
/// seeded stream that are distinct, not loops, and absent from `taken` (the
/// sorted keys of a symmetric graph).
fn fresh_edges(g: Generator, want: usize, seed: u64, taken: &[u64]) -> Vec<Edge> {
    let pairs = want / 2;
    let mut out: Vec<Edge> = Vec::with_capacity(want);
    let mut seen: Vec<u64> = Vec::new();
    let mut salt = 0u64;
    while out.len() < want {
        salt += 1;
        let cand = raw(
            g,
            4 * pairs,
            seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407),
        );
        // Order-preserving dedup on the unordered pair: sort (key, position),
        // keep first positions.
        let mut tagged: Vec<(u64, usize)> = cand
            .iter()
            .enumerate()
            .filter(|(_, e)| e.src != e.dst)
            .map(|(i, e)| (key(e.src.min(e.dst), e.src.max(e.dst)), i))
            .filter(|(k, _)| taken.binary_search(k).is_err() && seen.binary_search(k).is_err())
            .collect();
        tagged.sort_unstable();
        tagged.dedup_by_key(|t| t.0);
        tagged.sort_unstable_by_key(|t| t.1);
        tagged.truncate(pairs - out.len() / 2);
        out.extend(
            tagged
                .iter()
                .flat_map(|&(_, i)| [cand[i], cand[i].reversed()]),
        );
        seen.extend(tagged.iter().map(|t| t.0));
        seen.sort_unstable();
    }
    out
}

impl Inputs {
    pub fn new(w: &Workload, seed: u64, base_edges: &[Edge]) -> Inputs {
        let n = 1usize << w.generator.scale;
        let base = Model::new(n, base_edges.iter().map(|e| key(e.src, e.dst)).collect());
        let pool = fresh_edges(w.generator, w.pool, seed ^ 0x5EED_0001, &base.keys);
        let mut full_keys = base.keys.clone();
        full_keys.extend(pool.iter().map(|e| key(e.src, e.dst)));
        let full = Model::new(n, full_keys);
        let tail = if w.mode == Mode::Durable {
            fresh_edges(
                w.generator,
                TAIL_BATCHES * w.batch,
                seed ^ 0x5EED_0002,
                &full.keys,
            )
        } else {
            Vec::new()
        };

        // Probe sources follow the edge distribution (a hub is asked about as
        // often as it has edges); about half the probes name a real edge.
        let mut rng = Rng(seed ^ 0x5EED_0003);
        let edge_of = |m: &Model, rng: &mut Rng| {
            let k = m.keys[rng.below(m.keys.len())];
            ((k >> 32) as u32, k as u32)
        };
        let probes: Vec<(u32, u32)> = (0..PROBES)
            .map(|_| {
                let (s, d) = edge_of(&full, &mut rng);
                if rng.next_u64() & 1 == 0 {
                    (s, d)
                } else {
                    (s, rng.below(n) as u32)
                }
            })
            .collect();
        let expected_hits = probes.iter().filter(|&&(s, d)| full.has_edge(s, d)).count();

        let held_probes = if w.mode == Mode::Mixed {
            pool.chunks(w.batch)
                .map(|batch| {
                    let mut v: Vec<(u32, u32)> = (0..HELD_PROBES / 2)
                        .map(|_| edge_of(&base, &mut rng))
                        .collect();
                    v.extend((0..HELD_PROBES / 2).map(|_| {
                        let e = batch[rng.below(batch.len())];
                        (e.src, e.dst)
                    }));
                    v
                })
                .collect()
        } else {
            Vec::new()
        };

        let src = full.top_degree_vertex();
        let bfs_levels = full.bfs_levels(src);
        let pagerank = full.pagerank(PR_ITERS, PR_DAMPING);
        let hub = base.top_degree_vertex();
        let standing = (w.mode == Mode::Durable).then(|| {
            [&base, &full].map(|m| StandingRef {
                khop: m.khop(hub, 2),
                component: m.component_of(hub),
            })
        });
        Inputs {
            n,
            pool,
            tail,
            base,
            full,
            probes,
            expected_hits,
            held_probes,
            src,
            bfs_levels,
            pagerank,
            hub,
            standing,
        }
    }
}
