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
//!   that changes no result must cost O(|batch|) of them, a delete batch at
//!   most one traversal per traversal subscription.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::{rngs::SmallRng, Rng, SeedableRng};

use lsgraph_analytics::IncrementalBfs;
use lsgraph_api::{Edge, Graph};
use lsgraph_core::BatchKind;
use lsgraph_gen::{erdos_renyi, Csr};
use lsgraph_queries::delta::diff;
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
    fn for_each_neighbor(&self, v: u32, f: &mut dyn FnMut(u32)) {
        self.read();
        self.g.for_each_neighbor(v, f)
    }
    fn for_each_neighbor_while(&self, v: u32, f: &mut dyn FnMut(u32) -> bool) -> bool {
        self.read();
        self.g.for_each_neighbor_while(v, f)
    }
    fn copy_neighbors_into(&self, v: u32, out: &mut Vec<u32>) {
        self.read();
        self.g.copy_neighbors_into(v, out)
    }
    fn has_edge(&self, v: u32, u: u32) -> bool {
        self.read();
        self.g.has_edge(v, u)
    }
}

#[test]
fn graph_reads_follow_the_batch_not_the_graph() {
    const N: u32 = 1 << 16;
    const BATCH: usize = 256;
    let queries = [
        StandingQuery::KHop { src: 0, k: 2 },
        StandingQuery::ComponentMembership { src: 0 },
        StandingQuery::WindowedEdgeCount { window: 4 },
    ];
    let mut edges = sym(erdos_renyi(N, 4 << 16, 7).iter().map(|e| (e.src, e.dst)));
    let g0 = Csr::from_edges(N as usize, &edges);
    let mut maintainers: Vec<_> = queries.iter().map(|q| Maintainer::new(q, &g0)).collect();

    // New edges that move nothing: both ends at one BFS level past the
    // k-hop cutoff, so no distance improves and no component merges.
    let bfs = IncrementalBfs::new(&g0, 0);
    let level: Vec<u32> = (0..N)
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

    // A delete batch: one traversal per traversal subscription, measured
    // as what one from-scratch BFS reads on the same graph; none for the
    // windowed count.
    let cut = sym(edges.iter().take(BATCH / 2).map(|e| (e.src, e.dst)));
    let cut_set: BTreeSet<(u32, u32)> = cut.iter().map(|e| (e.src, e.dst)).collect();
    edges.retain(|e| !cut_set.contains(&(e.src, e.dst)));
    let g2 = Csr::from_edges(N as usize, &edges);
    let counting = Counting::new(&g2);
    IncrementalBfs::new(&counting, 0);
    let traversal = counting.take();
    assert!(
        traversal >= N as u64 / 2,
        "the BFS reaches most of the graph"
    );
    mirror.push(3, BatchKind::Delete, &cut);
    for (m, q) in maintainers.iter_mut().zip(&queries) {
        m.apply(&counting, 3, BatchKind::Delete, &cut, false);
        let reads = counting.take();
        let allowed = if q.window().is_some() { 0 } else { traversal };
        assert!(reads <= allowed, "{q:?}: {reads} reads, {allowed} allowed");
        assert_eq!(m.materialize(&g2), q.oracle(&g2, &mirror), "{q:?}");
    }
}
