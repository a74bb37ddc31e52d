//! The one model every seed set is checked against: the intended adjacency
//! (every acknowledged batch applied in full, as per-vertex `BTreeSet`s), the
//! quarantine set that masks it, and the log of acknowledged batches, so the
//! state at any recovered `next_seq` prefix can be rebuilt.

use std::collections::BTreeSet;

use lsgraph::{BatchKind, BatchOutcome, Edge, Footprint, Graph, GraphView, MemoryFootprint};
use lsgraph::{Tier, TierStats, VertexId};
use lsgraph_api::catch_invariants;

#[derive(Clone, Debug, Default)]
pub struct Model {
    /// Intended adjacency; its length is the graph's `num_vertices`.
    pub adj: Vec<BTreeSet<u32>>,
    /// Vertices that read as empty until repaired.
    pub quarantined: BTreeSet<VertexId>,
    /// Acknowledged batches, indexed by WAL sequence number.
    pub log: Vec<(BatchKind, Vec<Edge>)>,
}

/// What a reader must see: masked adjacency per vertex and the quarantine
/// set, frozen at a point in time, and for a snapshot the live graph's read
/// surface at its flip.
#[derive(Clone, Debug, PartialEq)]
pub struct Frozen {
    pub adj: Vec<Vec<u32>>,
    pub quarantined: Vec<VertexId>,
    pub surface: Option<Surface>,
}

/// Everything else a reader can ask, as one comparable value: per vertex the
/// tier and the adjacency; the footprint and the tier statistics.
pub type Surface = (Vec<(Tier, Vec<u32>)>, Footprint, TierStats);

pub fn surface(g: &GraphView) -> Surface {
    let per_vertex = (0..g.num_vertices() as u32).map(|v| (g.tier(v), g.neighbors(v)));
    (per_vertex.collect(), g.footprint(), g.tier_stats())
}

pub fn edges(pairs: &[(u32, u32)]) -> Vec<Edge> {
    pairs.iter().map(|&(s, d)| Edge::new(s, d)).collect()
}

impl Model {
    pub fn new(n: usize) -> Model {
        Model {
            adj: vec![BTreeSet::new(); n],
            ..Model::default()
        }
    }

    /// Applies an acknowledged batch to the intended adjacency and logs it.
    pub fn apply(&mut self, kind: BatchKind, batch: &[Edge]) {
        for e in batch {
            match kind {
                BatchKind::Insert => {
                    let top = e.src.max(e.dst) as usize;
                    if top >= self.adj.len() {
                        self.adj.resize(top + 1, BTreeSet::new());
                    }
                    self.adj[e.src as usize].insert(e.dst);
                }
                BatchKind::Delete => {
                    if let Some(ns) = self.adj.get_mut(e.src as usize) {
                        ns.remove(&e.dst);
                    }
                }
            }
        }
        self.log.push((kind, batch.to_vec()));
    }

    /// The outcome the engine must report for `batch` on this (pre-batch)
    /// state when the runs of `killed` panicked: quarantined sources
    /// are skipped, killed ones drop their pre-batch adjacency, the rest
    /// apply exactly.
    pub fn outcome(&self, kind: BatchKind, batch: &[Edge], killed: &[u32]) -> BatchOutcome {
        let mut keys: Vec<(u32, u32)> = batch.iter().map(|e| (e.src, e.dst)).collect();
        keys.sort_unstable();
        keys.dedup();
        if kind == BatchKind::Delete {
            keys.retain(|&(s, _)| (s as usize) < self.adj.len());
        }
        let mut srcs: Vec<u32> = keys.iter().map(|k| k.0).collect();
        srcs.dedup();
        let live = |s: u32| !self.quarantined.contains(&s) && !killed.contains(&s);
        let has = |(s, d): (u32, u32)| self.adj.get(s as usize).is_some_and(|ns| ns.contains(&d));
        let deleting = kind == BatchKind::Delete;
        let lost = |v: &u32| self.adj.get(*v as usize).map_or(0, BTreeSet::len);
        BatchOutcome {
            applied: keys
                .iter()
                .filter(|&&k| live(k.0) && has(k) == deleting)
                .count(),
            quarantined: killed.to_vec(),
            edges_lost: killed.iter().map(lost).sum(),
            skipped_quarantined: srcs.iter().filter(|s| self.quarantined.contains(s)).count(),
        }
    }

    pub fn frozen(&self) -> Frozen {
        Frozen {
            adj: (0..self.adj.len() as u32).map(|v| self.masked(v)).collect(),
            quarantined: self.quarantined.iter().copied().collect(),
            surface: None,
        }
    }

    /// What `v` reads as: nothing while quarantined.
    pub fn masked(&self, v: VertexId) -> Vec<u32> {
        if self.quarantined.contains(&v) {
            return Vec::new();
        }
        self.adj[v as usize].iter().copied().collect()
    }
}

/// Cuts a per-vertex table to the `nv` vertices a graph loaded from an image
/// a delta wrote has. A delta image grows the table only as far as the last
/// vertex it writes, so trailing vertices that only ever appeared as
/// destinations come back missing; they must be empty. Any other load keeps
/// the table, and `assert_reads` holds `num_vertices` to it exactly.
pub fn trim_to<T: Default + PartialEq>(adj: &mut Vec<T>, nv: usize, delta: bool) {
    if delta {
        let tail = adj.get(nv..);
        let empty = tail.is_some_and(|tail| tail.iter().all(|ns| *ns == T::default()));
        assert!(empty, "recovered {nv} vertices of {}", adj.len());
        adj.truncate(nv);
    }
}

/// Asserts any engine's `g` reads exactly `adj`: the vertex count, each
/// vertex's neighbours and degree, and the exact edge total.
pub fn assert_adjacency(g: &dyn Graph, adj: &[Vec<u32>], ctx: &str) {
    assert_eq!(g.num_vertices(), adj.len(), "{ctx}: num_vertices");
    for (v, ns) in adj.iter().enumerate() {
        assert_eq!(&g.neighbors(v as u32), ns, "{ctx}: vertex {v}");
        assert_eq!(g.degree(v as u32), ns.len(), "{ctx}: degree of {v}");
    }
    let m: usize = adj.iter().map(Vec::len).sum();
    assert_eq!(g.num_edges(), m, "{ctx}: num_edges");
}

/// Asserts `g` reads exactly `want`: per-vertex adjacency and degree
/// (quarantined vertices empty), the quarantine set, the exact edge total,
/// and the structural invariants.
pub fn assert_reads(g: &GraphView, want: &Frozen, ctx: &str) {
    assert_eq!(g.quarantined_vertices(), want.quarantined, "{ctx}: Q");
    assert_adjacency(g, &want.adj, ctx);
    catch_invariants(|| g.check_invariants()).unwrap_or_else(|e| panic!("{ctx}: invariants: {e}"));
    if let Some(s) = &want.surface {
        assert!(surface(g) == *s, "{ctx}: read surface");
    }
}
