//! Delta-native delivery, checked two ways that do not depend on time.
//!
//! * **Differential:** for all four query kinds, seeded symmetric batch
//!   streams (inserts, deletes, lossy deliveries, ids beyond the current
//!   vertex table, empty batches) go through a [`SubscriptionRegistry`] on a
//!   plain CSR, and after every batch the delta the maintainer returned must
//!   equal `diff` of the from-scratch evaluations before and after, entry
//!   for entry; replaying the deltas must reconstruct `result()`, which must
//!   equal [`StandingQuery::oracle`].
//! * **Complexity:** a graph wrapper counts adjacency reads, and a batch
//!   that changes no result must cost O(|batch|) of them — a delete batch
//!   whose cut tree edges all leave another parent at most 2·|batch| — and a
//!   delete batch that cuts a subtree O(|batch| + affected vertices), far
//!   below one traversal.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::{rngs::SmallRng, Rng, SeedableRng};

use lsgraph_analytics::IncrementalBfs;
use lsgraph_api::{Edge, Graph};
use lsgraph_core::BatchKind;
use lsgraph_gen::{erdos_renyi, Csr};
use lsgraph_queries::diff;
use lsgraph_queries::{BatchWindow, Maintainer, StandingQuery, SubscriptionRegistry};

const SEEDS: [u64; 4] = [5, 17, 61, 103];
const BATCHES: u64 = 200;
const WINDOW: usize = 3;
/// The vertex table starts this small so that ids drawn a little past it
/// keep growing it, and one membership anchor starts beyond it.
const N0: usize = 24;
const LATE_SRC: u32 = 40;

fn sym(pairs: impl IntoIterator<Item = (u32, u32)>) -> Vec<Edge> {
    pairs
        .into_iter()
        .flat_map(|(a, b)| [Edge::new(a, b), Edge::new(b, a)])
        .collect()
}

/// The reference graph: a symmetric edge set and a vertex table that, like
/// the engine's, grows to hold every id an insert batch names.
struct Model {
    n: usize,
    edges: BTreeSet<(u32, u32)>,
}

impl Model {
    fn csr(&self) -> Csr {
        let edges: Vec<Edge> = self.edges.iter().map(|&(s, d)| Edge::new(s, d)).collect();
        Csr::from_edges(self.n, &edges)
    }

    /// Commits `batch`; a lossy commit keeps each symmetric pair with
    /// probability one half and also empties one vertex, as a quarantine
    /// does.
    fn commit(&mut self, rng: &mut SmallRng, kind: BatchKind, batch: &[Edge], lossy: bool) {
        if kind == BatchKind::Insert {
            let max = batch.iter().map(|e| e.src.max(e.dst)).max();
            self.n = self.n.max(max.map_or(0, |m| m as usize + 1));
        }
        for pair in batch.chunks(2) {
            if lossy && rng.gen_bool(0.5) {
                continue;
            }
            for e in pair {
                match kind {
                    BatchKind::Insert => self.edges.insert((e.src, e.dst)),
                    BatchKind::Delete => self.edges.remove(&(e.src, e.dst)),
                };
            }
        }
        if lossy {
            let v = rng.gen_range(0..self.n as u32);
            self.edges.retain(|&(s, d)| s != v && d != v);
        }
    }
}

#[test]
fn returned_deltas_equal_the_diff_of_from_scratch_results() {
    let queries = [
        StandingQuery::KHop { src: 0, k: 2 },
        StandingQuery::WindowedEdgeCount { window: WINDOW },
        StandingQuery::WindowedTriangleCount { window: WINDOW },
        StandingQuery::ComponentMembership { src: 0 },
        StandingQuery::ComponentMembership { src: LATE_SRC },
    ];
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut model = Model {
            n: N0,
            edges: BTreeSet::new(),
        };
        let mut reg = SubscriptionRegistry::new(None);
        let g0 = model.csr();
        let ids: Vec<_> = queries.iter().map(|&q| reg.register(&g0, q, 0)).collect();
        let mut window = BatchWindow::new(WINDOW);
        let mut expected: Vec<_> = queries.iter().map(|q| q.oracle(&g0, &window)).collect();
        let mut replays = vec![BTreeMap::new(); queries.len()];
        let (mut lossy_seen, mut grown, mut empty_seen) = (0, 0, 0);
        for seq in 1..=BATCHES {
            let kind = if rng.gen_bool(0.6) {
                BatchKind::Insert
            } else {
                BatchKind::Delete
            };
            let lossy = rng.gen_bool(0.12);
            // One batch in twelve is empty; ids reach eight past the table.
            let len = if rng.gen_range(0..12) == 0 {
                0
            } else {
                rng.gen_range(1..20)
            };
            let top = model.n as u32 + if rng.gen_bool(0.2) { 8 } else { 0 };
            let batch = sym((0..len).map(|_| (rng.gen_range(0..top), rng.gen_range(0..top))));
            let n_before = model.n;
            model.commit(&mut rng, kind, &batch, lossy);
            lossy_seen += usize::from(lossy);
            grown += usize::from(model.n > n_before);
            empty_seen += usize::from(batch.is_empty());

            let g = model.csr();
            window.push(seq, kind, &batch);
            reg.deliver(&g, seq, kind, &batch, lossy);
            for (i, (&id, q)) in ids.iter().zip(&queries).enumerate() {
                let ctx = format!("seed {seed} seq {seq} {q:?}");
                let now = q.oracle(&g, &window);
                let polled = reg.poll(id);
                // The first poll also carries the registration bootstrap.
                assert_eq!(polled.len(), 1 + usize::from(seq == 1), "{ctx}");
                let delta = polled.last().unwrap();
                assert_eq!(delta, &diff(id, seq, &expected[i], &now), "{ctx}: delta");
                for d in &polled {
                    d.apply_to(&mut replays[i]);
                }
                let result = reg.result(id).unwrap();
                assert_eq!(replays[i], result, "{ctx}: replay");
                assert_eq!(result, now, "{ctx}: oracle");
                if q.window().is_none() {
                    let fresh = Maintainer::new(q, &g).materialize(&g);
                    assert_eq!(result, fresh, "{ctx}: from-scratch materialize");
                }
                expected[i] = now;
            }
        }
        assert!(
            lossy_seen >= 10 && grown >= 3 && empty_seen >= 5,
            "seed {seed}: mix"
        );
        assert!(
            model.n > LATE_SRC as usize,
            "seed {seed}: the late anchor entered the table"
        );
    }
}

/// A graph that counts the adjacency reads made through it.
struct Counting<'a> {
    g: &'a Csr,
    reads: AtomicU64,
}

impl<'a> Counting<'a> {
    fn new(g: &'a Csr) -> Self {
        Counting {
            g,
            reads: AtomicU64::new(0),
        }
    }

    fn read(&self) {
        self.reads.fetch_add(1, Ordering::Relaxed);
    }

    fn take(&self) -> u64 {
        self.reads.swap(0, Ordering::Relaxed)
    }
}

impl Graph for Counting<'_> {
    fn num_vertices(&self) -> usize {
        self.g.num_vertices()
    }
    fn num_edges(&self) -> usize {
        self.g.num_edges()
    }
    fn degree(&self, v: u32) -> usize {
        self.read();
        self.g.degree(v)
    }
    fn for_each_neighbor_slice_while(&self, v: u32, f: &mut dyn FnMut(&[u32]) -> bool) -> bool {
        self.read();
        self.g.for_each_neighbor_slice_while(v, f)
    }
    fn has_edge(&self, v: u32, u: u32) -> bool {
        self.read();
        self.g.has_edge(v, u)
    }
}

/// Adjacency walks the delete repair may spend per batch edge and per
/// vertex whose distance moves: one support check per candidate, then a
/// seed walk and a relaxation walk per invalidated vertex.
const WALKS_PER_ENTRY: u64 = 3;

#[test]
fn graph_reads_follow_the_batch_not_the_graph() {
    const N: u32 = 1 << 16;
    /// The top ids form a path hung from a neighbour of the source at one
    /// end and from a far vertex at the other, so that cutting its near end
    /// moves a known stretch of it.
    const PATH: u32 = 64;
    const ER: u32 = N - PATH;
    const BATCH: usize = 256;
    let queries = [
        StandingQuery::KHop { src: 0, k: 2 },
        StandingQuery::ComponentMembership { src: 0 },
        StandingQuery::WindowedEdgeCount { window: 4 },
    ];
    let mut edges = sym(erdos_renyi(ER, 4 << 16, 7).iter().map(|e| (e.src, e.dst)));
    let er = IncrementalBfs::new(&Csr::from_edges(ER as usize, &edges), 0);
    let near = (1..ER).find(|&v| er.distances()[v as usize] == 1).unwrap();
    let far = (1..ER).find(|&v| er.distances()[v as usize] == 6).unwrap();
    edges.extend(sym([(near, ER), (N - 1, far)]));
    edges.extend(sym((ER..N - 1).map(|v| (v, v + 1))));
    let g0 = Csr::from_edges(N as usize, &edges);
    let mut maintainers: Vec<_> = queries.iter().map(|q| Maintainer::new(q, &g0)).collect();

    // New edges that move nothing: both ends at one BFS level past the
    // k-hop cutoff, so no distance improves and no component merges.
    let bfs = IncrementalBfs::new(&g0, 0);
    let level: Vec<u32> = (0..ER)
        .filter(|&v| bfs.distances()[v as usize] == 4)
        .collect();
    let batch = sym(level
        .chunks(2)
        .map(|p| (p[0], p[1]))
        .filter(|&(a, b)| !g0.has_edge(a, b))
        .take(BATCH / 2));
    assert_eq!(batch.len(), BATCH, "level 4 holds enough vertices");
    edges.extend_from_slice(&batch);
    let g1 = Csr::from_edges(N as usize, &edges);
    let counting = Counting::new(&g1);
    let mut mirror = BatchWindow::new(4);
    // Delivered twice: the second time the edges are already in the window,
    // so the windowed count stands still too.
    for seq in [1, 2] {
        mirror.push(seq, BatchKind::Insert, &batch);
        for (m, q) in maintainers.iter_mut().zip(&queries) {
            let delta = m.apply(&counting, seq, BatchKind::Insert, &batch, false);
            let reads = counting.take();
            assert!(reads <= 4 * BATCH as u64, "{q:?} seq {seq}: {reads} reads");
            let counts_new_edges = q.window().is_some() && seq == 1;
            assert!(
                delta == Default::default() || counts_new_edges,
                "{q:?} seq {seq}: {delta:?}"
            );
        }
    }
    // What one from-scratch BFS reads, for scale.
    IncrementalBfs::new(&counting, 0);
    let traversal = counting.take();
    assert!(
        traversal >= N as u64 / 2,
        "the BFS reaches most of the graph"
    );

    // Tree edges whose heads keep another parent: no distance moves, and
    // the repair reads at most two adjacencies per batch edge; the windowed
    // count reads none.
    let bfs = IncrementalBfs::new(&g1, 0);
    let dist = bfs.distances();
    let cut = sym((0..ER)
        .filter(|&v| dist[v as usize] == 5)
        .filter_map(|v| {
            let parents: Vec<u32> = g1
                .neighbors(v)
                .into_iter()
                .filter(|&u| dist[u as usize] == 4)
                .collect();
            (parents.len() >= 2).then(|| (parents[0], v))
        })
        .take(BATCH / 2));
    assert_eq!(
        cut.len(),
        BATCH,
        "level 5 holds enough twice-parented vertices"
    );
    let mut deliver = |edges: &mut Vec<Edge>, seq: u64, cut: &[Edge]| {
        let cut_set: BTreeSet<Edge> = cut.iter().copied().collect();
        edges.retain(|e| !cut_set.contains(e));
        let g = Csr::from_edges(N as usize, edges);
        let counting = Counting::new(&g);
        mirror.push(seq, BatchKind::Delete, cut);
        let out: Vec<_> = maintainers
            .iter_mut()
            .zip(&queries)
            .map(|(m, q)| {
                let delta = m.apply(&counting, seq, BatchKind::Delete, cut, false);
                assert_eq!(m.materialize(&g), q.oracle(&g, &mirror), "{q:?}");
                (q, delta, counting.take())
            })
            .collect();
        (g, out)
    };
    for (q, delta, reads) in deliver(&mut edges, 3, &cut).1 {
        let allowed = if q.window().is_some() {
            0
        } else {
            2 * cut.len() as u64
        };
        assert!(reads <= allowed, "{q:?}: {reads} reads, {allowed} allowed");
        assert_eq!(delta, Default::default(), "{q:?}");
    }

    // Cutting the path's near end moves the stretch of it that was closer
    // to the source that way: the repair reads O(|batch| + that stretch).
    let before = IncrementalBfs::new(&Csr::from_edges(N as usize, &edges), 0);
    let cut = sym([(near, ER)]);
    let (g, out) = deliver(&mut edges, 4, &cut);
    let after = IncrementalBfs::new(&g, 0);
    let moved = (0..N as usize)
        .filter(|&v| before.distances()[v] != after.distances()[v])
        .count() as u64;
    assert!(moved >= PATH as u64 / 4, "{moved} vertices moved");
    let allowed = WALKS_PER_ENTRY * (cut.len() as u64 + moved);
    assert!(100 * allowed < traversal, "{allowed} vs {traversal}");
    for (q, _, reads) in out {
        let allowed = if q.window().is_some() { 0 } else { allowed };
        assert!(reads <= allowed, "{q:?}: {reads} reads, {allowed} allowed");
    }
}
