//! Cross-engine differential tests: LSGraph and the five baselines it is
//! measured against (Terrace, Aspen, PaC-tree, Sortledton and PCSR), plus
//! the CSR ground truth, must agree on every read and every analytics
//! result over the same edge stream, and every engine's one neighbor walk
//! keeps the slice-walk contract.

use std::collections::BTreeSet;

use lsgraph::baselines::{AspenGraph, PacGraph, SortledtonGraph, TerraceGraph};
use lsgraph::gen::{rmat, Csr, RmatParams};
use lsgraph::substrates::PmaGraph;
use lsgraph::{
    analytics, Config, DynamicGraph, Edge, Graph, GraphSnapshot, LsGraph, MediumStore, Tier,
};
use rand::{rngs::SmallRng, Rng, SeedableRng};

const SCALE: u32 = 11;
const N: usize = 1 << SCALE;

fn sym(edges: &[Edge]) -> Vec<Edge> {
    edges.iter().flat_map(|e| [*e, e.reversed()]).collect()
}

struct Engines {
    ls: LsGraph,
    terrace: TerraceGraph,
    aspen: AspenGraph,
    pac: PacGraph,
    sortledton: SortledtonGraph,
    pcsr: PmaGraph,
    oracle: Csr,
}

impl Engines {
    fn build(edges: &[Edge]) -> Self {
        Engines {
            ls: LsGraph::from_edges(N, edges, Config::default()),
            terrace: TerraceGraph::from_edges(N, edges),
            aspen: AspenGraph::from_edges(N, edges),
            pac: PacGraph::from_edges(N, edges),
            sortledton: SortledtonGraph::from_edges(N, edges),
            pcsr: PmaGraph::from_edges(N, edges),
            oracle: Csr::from_edges(N, edges),
        }
    }

    fn each(&self) -> [(&str, &dyn Graph); 6] {
        [
            ("LSGraph", &self.ls),
            ("Terrace", &self.terrace),
            ("Aspen", &self.aspen),
            ("PaC-tree", &self.pac),
            ("Sortledton", &self.sortledton),
            ("PCSR", &self.pcsr),
        ]
    }

    /// Applies one batch to every engine (the oracle is rebuilt by callers).
    fn update(&mut self, insert: bool, batch: &[Edge]) {
        let engines: [&mut dyn DynamicGraph; 6] = [
            &mut self.ls,
            &mut self.terrace,
            &mut self.aspen,
            &mut self.pac,
            &mut self.sortledton,
            &mut self.pcsr,
        ];
        for g in engines {
            if insert {
                g.insert_batch(batch);
            } else {
                g.delete_batch(batch);
            }
        }
    }
}

#[test]
fn neighbors_match_oracle_after_bulk_load() {
    let edges = sym(&rmat(SCALE, 60_000, RmatParams::paper(), 1));
    let e = Engines::build(&edges);
    for (name, g) in e.each() {
        assert_eq!(g.num_edges(), e.oracle.num_edges(), "{name}");
        for v in 0..N as u32 {
            assert_eq!(
                g.neighbors(v),
                e.oracle.neighbors_slice(v),
                "{name} vertex {v}"
            );
        }
    }
}

#[test]
fn neighbors_match_after_update_rounds() {
    let base = sym(&rmat(SCALE, 30_000, RmatParams::paper(), 2));
    let mut e = Engines::build(&base);
    let mut all = base.clone();
    // Three insert rounds and one delete round.
    let mut deleted: Vec<Edge> = Vec::new();
    for round in 0..4u64 {
        if round == 3 {
            let del = sym(&rmat(SCALE, 8_000, RmatParams::paper(), 2)); // subset of base seed
            e.update(false, &del);
            deleted = del;
        } else {
            let batch = sym(&rmat(SCALE, 10_000, RmatParams::paper(), 10 + round));
            e.update(true, &batch);
            all.extend_from_slice(&batch);
        }
    }
    let remaining: Vec<Edge> = {
        let del: std::collections::HashSet<u64> = deleted.iter().map(|e| e.key()).collect();
        all.iter()
            .filter(|e| !del.contains(&e.key()))
            .copied()
            .collect()
    };
    let oracle = Csr::from_edges(N, &remaining);
    for (name, g) in e.each() {
        assert_eq!(g.num_edges(), oracle.num_edges(), "{name}");
        for v in 0..N as u32 {
            assert_eq!(
                g.neighbors(v),
                oracle.neighbors_slice(v),
                "{name} vertex {v}"
            );
        }
    }
}

#[test]
fn bfs_distances_agree() {
    let edges = sym(&rmat(SCALE, 40_000, RmatParams::paper(), 3));
    let e = Engines::build(&edges);
    let src = (0..N as u32)
        .max_by_key(|&v| e.oracle.degree(v))
        .expect("vertices");
    let want = {
        let p = analytics::bfs(&e.oracle, src);
        analytics::distances_from_parents(&e.oracle, src, &p)
    };
    for (name, g) in e.each() {
        let p = analytics::bfs(g, src);
        let d = analytics::distances_from_parents(g, src, &p);
        assert_eq!(d, want, "{name}");
    }
}

#[test]
fn connected_components_agree() {
    let edges = sym(&rmat(SCALE, 20_000, RmatParams::paper(), 4));
    let e = Engines::build(&edges);
    let want = analytics::connected_components(&e.oracle);
    for (name, g) in e.each() {
        assert_eq!(analytics::connected_components(g), want, "{name}");
    }
}

#[test]
fn pagerank_agrees_within_epsilon() {
    let edges = sym(&rmat(SCALE, 40_000, RmatParams::paper(), 5));
    let e = Engines::build(&edges);
    let want = analytics::pagerank(&e.oracle, 15, 0.85);
    for (name, g) in e.each() {
        let got = analytics::pagerank(g, 15, 0.85);
        for v in 0..N {
            assert!(
                (got[v] - want[v]).abs() < 1e-10,
                "{name} vertex {v}: {} vs {}",
                got[v],
                want[v]
            );
        }
    }
}

#[test]
fn triangle_counts_agree() {
    let edges = sym(&rmat(SCALE, 30_000, RmatParams::paper(), 6));
    let e = Engines::build(&edges);
    let want = analytics::triangle_count(&e.oracle).triangles;
    assert!(want > 0, "workload should contain triangles");
    for (name, g) in e.each() {
        assert_eq!(analytics::triangle_count(g).triangles, want, "{name}");
    }
}

#[test]
fn betweenness_agrees_within_epsilon() {
    let edges = sym(&rmat(SCALE, 25_000, RmatParams::paper(), 7));
    let e = Engines::build(&edges);
    let src = (0..N as u32)
        .max_by_key(|&v| e.oracle.degree(v))
        .expect("vertices");
    let want = analytics::betweenness(&e.oracle, src);
    for (name, g) in e.each() {
        let got = analytics::betweenness(g, src);
        for v in 0..N {
            assert!(
                (got[v] - want[v]).abs() < 1e-6 * (1.0 + want[v].abs()),
                "{name} vertex {v}: {} vs {}",
                got[v],
                want[v]
            );
        }
    }
}

/// Holds `g`'s walk of `v` to the slice-walk contract and to `want`: every
/// slice non-empty, ids strictly ascending across slice boundaries, the
/// concatenation equal to the model; a per-id walk told to stop after the
/// k-th id visits exactly k ids, for every k; `copy_neighbors_into` appends.
fn check_walk(name: &str, g: &dyn Graph, v: u32, want: &BTreeSet<u32>) {
    let ctx = format!("{name} vertex {v}");
    let mut slices: Vec<Vec<u32>> = Vec::new();
    assert!(g.for_each_neighbor_slice_while(v, &mut |s| {
        slices.push(s.to_vec());
        true
    }));
    assert!(slices.iter().all(|s| !s.is_empty()), "{ctx}: empty slice");
    let ids = slices.concat();
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ctx}: not ascending");
    assert!(ids.iter().eq(want), "{ctx}: differs from the model");
    assert_eq!(g.degree(v), ids.len(), "{ctx}");
    assert!(g.for_each_neighbor_while(v, &mut |_| true), "{ctx}");
    for k in 1..=ids.len() {
        let mut seen = Vec::new();
        let complete = g.for_each_neighbor_while(v, &mut |u| {
            seen.push(u);
            seen.len() < k
        });
        assert!(!complete && seen == ids[..k], "{ctx}: stop after {k}");
    }
    let mut out = vec![u32::MAX];
    g.copy_neighbors_into(v, &mut out);
    assert_eq!((out[0], &out[1..]), (u32::MAX, &ids[..]), "{ctx}: append");
}

/// Random insert/delete batches over sources whose id ranges spread their
/// degrees across every container: LSGraph's inline line, array, RIA (or the
/// PMA ablation's per-vertex PMA) and HITree; Terrace's inline line, shared
/// PMA and B-tree; Sortledton's vector and skip list; PCSR's packed keys;
/// Aspen's chunks; PaC-tree's leaves; `Csr` rows. A snapshot is checked
/// against the model it was taken at after the writer has moved on.
#[test]
fn slice_walk_contract_holds_on_every_engine() {
    const RANGE: [u32; 7] = [1, 10, 24, 60, 160, 700, 2_400];
    let n = RANGE.len();
    let cfg = Config {
        a: 8,
        m: 64,
        ..Config::default()
    };
    let mut ls = LsGraph::with_config(n, cfg);
    let mut ablation = LsGraph::with_config(
        n,
        Config {
            medium: MediumStore::Pma,
            ..cfg
        },
    );
    let mut terrace = TerraceGraph::new(n);
    let mut aspen = AspenGraph::new(n);
    let mut pac = PacGraph::new(n);
    let mut sortledton = SortledtonGraph::new(n);
    let mut pcsr = PmaGraph::new(n);
    let mut model = vec![BTreeSet::new(); n];
    let mut held: Option<(GraphSnapshot, Vec<BTreeSet<u32>>)> = None;
    let mut tiers = Vec::new();
    let mut rng = SmallRng::seed_from_u64(0x5_11CE);
    for round in 0..48 {
        let batch: Vec<Edge> = (0..400)
            .map(|_| {
                let v = rng.gen_range(0..n as u32);
                Edge::new(v, rng.gen_range(0..RANGE[v as usize]))
            })
            .collect();
        let insert = round < 8 || rng.gen_bool(0.7);
        let writers: [&mut dyn DynamicGraph; 7] = [
            &mut ls,
            &mut ablation,
            &mut terrace,
            &mut aspen,
            &mut pac,
            &mut sortledton,
            &mut pcsr,
        ];
        for g in writers {
            if insert {
                g.insert_batch(&batch);
            } else {
                g.delete_batch(&batch);
            }
        }
        for e in &batch {
            let ns = &mut model[e.src as usize];
            if insert {
                ns.insert(e.dst);
            } else {
                ns.remove(&e.dst);
            }
        }
        if round % 8 != 7 {
            continue;
        }
        if let Some((snap, frozen)) = held.take() {
            for v in 0..n as u32 {
                check_walk("LSGraph snapshot", &snap, v, &frozen[v as usize]);
            }
        }
        held = Some((ls.snapshot(), model.clone()));
        tiers.extend((0..n as u32).map(|v| ls.tier(v)));
        let edges: Vec<Edge> = (0..n as u32)
            .flat_map(|v| model[v as usize].iter().map(move |&u| Edge::new(v, u)))
            .collect();
        let csr = Csr::from_edges(n, &edges);
        let readers: [(&str, &dyn Graph); 8] = [
            ("LSGraph", &ls),
            ("LSGraph PMA ablation", &ablation),
            ("Terrace", &terrace),
            ("Aspen", &aspen),
            ("PaC-tree", &pac),
            ("Sortledton", &sortledton),
            ("PCSR", &pcsr),
            ("CSR", &csr),
        ];
        for (name, g) in readers {
            for v in 0..n as u32 {
                check_walk(name, g, v, &model[v as usize]);
            }
        }
    }
    let want = [Tier::Inline, Tier::Array, Tier::Ria, Tier::HiTree];
    assert!(want.iter().all(|t| tiers.contains(t)), "{tiers:?}");
    assert!(
        model[n - 1].len() > 1_024 + 13,
        "Terrace's B-tree tier reached"
    );
}
