//! Snapshot-isolation differential suite: a [`GraphSnapshot`] taken at a
//! batch boundary must keep reading exactly the state at its flip — no
//! later insert or delete may leak into it — while the live graph moves on.
//!
//! Each test freezes a `BTreeSet` adjacency oracle at snapshot time and
//! re-verifies every outstanding snapshot against its frozen oracle after
//! every subsequent batch, across 4 seeds. The copy-on-write and snapshot
//! counters are checked exactly: with a fresh snapshot taken before every
//! batch, each per-source run copies its block exactly once.

use std::collections::BTreeSet;
use std::sync::mpsc;

use rand::{rngs::SmallRng, Rng, SeedableRng};

use lsgraph_api::{DynamicGraph, Edge, Graph, MemoryFootprint};
use lsgraph_core::{Config, GraphSnapshot, LsGraph};

const N: usize = 120;
const ROUNDS: usize = 16;

/// Small thresholds so the stream exercises array, RIA, and HITree spills
/// (copy-on-write must preserve every tier, not just inline blocks).
fn cfg() -> Config {
    Config {
        a: 4,
        m: 32,
        ..Config::default()
    }
}

fn gen_batch(rng: &mut SmallRng) -> (bool, Vec<Edge>) {
    let is_insert = rng.gen_bool(0.65);
    let len = rng.gen_range(1usize..200);
    let batch = (0..len)
        .map(|_| Edge::new(rng.gen_range(0..N as u32), rng.gen_range(0..N as u32)))
        .collect();
    (is_insert, batch)
}

fn apply_to_oracle(oracle: &mut [BTreeSet<u32>], is_insert: bool, batch: &[Edge]) {
    for e in batch {
        if is_insert {
            oracle[e.src as usize].insert(e.dst);
        } else {
            oracle[e.src as usize].remove(&e.dst);
        }
    }
}

/// Materializes the oracle as sorted adjacency lists plus the edge total.
fn freeze(oracle: &[BTreeSet<u32>]) -> (Vec<Vec<u32>>, usize) {
    let adj: Vec<Vec<u32>> = oracle.iter().map(|s| s.iter().copied().collect()).collect();
    let m = adj.iter().map(Vec::len).sum();
    (adj, m)
}

/// Asserts `snap` reads exactly the frozen state `(adj, m)`.
fn assert_snapshot_matches(snap: &GraphSnapshot, adj: &[Vec<u32>], m: usize, ctx: &str) {
    assert_eq!(snap.num_edges(), m, "{ctx}: num_edges");
    for v in 0..N as u32 {
        assert_eq!(snap.neighbors(v), adj[v as usize], "{ctx}: vertex {v}");
    }
    snap.validate_invariants()
        .unwrap_or_else(|e| panic!("{ctx}: snapshot invariants: {e}"));
}

/// Blocks per directory page, as the engine reports it: what one write under
/// a snapshot copies.
fn page_blocks() -> u64 {
    let mut g = LsGraph::new(1);
    let _held = g.snapshot();
    g.insert_batch(&[Edge::new(0, 0)]);
    g.stats().snapshot().cow_block_copies
}

#[test]
fn snapshot_at_every_batch_boundary_matches_frozen_oracle() {
    let page = page_blocks();
    assert!(page > 1 && N as u64 > page, "the stream spans pages");
    for seed in 1..=4u64 {
        let mut rng = SmallRng::seed_from_u64(0x51AB_0000 + seed);
        let mut g = LsGraph::with_config(N, cfg());
        let mut oracle: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); N];
        let mut snaps: Vec<(GraphSnapshot, Vec<Vec<u32>>, usize)> = Vec::new();
        let mut expected_cow = 0u64;

        for round in 0..ROUNDS {
            // Flip BEFORE the batch: the snapshot must freeze the pre-batch
            // state, making the batch itself the first "later write" it is
            // forbidden to observe.
            let (adj, m) = freeze(&oracle);
            snaps.push((g.snapshot(), adj, m));

            let (is_insert, batch) = gen_batch(&mut rng);
            // A snapshot now shares every page, so this batch copies each
            // page it has a source on exactly once, whole.
            let touched: BTreeSet<u64> = batch.iter().map(|e| e.src as u64 / page).collect();
            expected_cow += touched.len() as u64 * page;
            if is_insert {
                g.insert_batch(&batch);
            } else {
                g.delete_batch(&batch);
            }
            apply_to_oracle(&mut oracle, is_insert, &batch);

            // Every outstanding snapshot still reads its own frozen past.
            for (i, (snap, adj, m)) in snaps.iter().enumerate() {
                assert_snapshot_matches(
                    snap,
                    adj,
                    *m,
                    &format!("seed {seed} round {round} snap {i}"),
                );
            }
            g.check_invariants();
        }

        // The live view converged on the full stream.
        let (adj, m) = freeze(&oracle);
        assert_eq!(g.num_edges(), m, "seed {seed}: live num_edges");
        for v in 0..N as u32 {
            assert_eq!(
                g.neighbors(v),
                adj[v as usize],
                "seed {seed}: live vertex {v}"
            );
        }

        let s = g.stats().snapshot();
        assert_eq!(s.snapshots_taken, ROUNDS as u64, "seed {seed}");
        assert_eq!(s.cow_block_copies, expected_cow, "seed {seed}");
        assert_eq!(s.snapshots_retired, 0, "seed {seed}: all snaps still held");

        drop(snaps);
        let s = g.stats().snapshot();
        assert_eq!(s.snapshots_retired, s.snapshots_taken, "seed {seed}");
        g.check_invariants();
    }
}

#[test]
fn snapshot_clones_share_one_epoch_and_retire_once() {
    let mut g = LsGraph::with_config(8, cfg());
    g.insert_batch(&[Edge::new(0, 1), Edge::new(1, 2)]);
    let snap = g.snapshot();
    let twin = snap.clone();
    g.insert_batch(&[Edge::new(0, 3)]);
    assert_eq!(snap.neighbors(0), vec![1]);
    assert_eq!(twin.neighbors(0), vec![1]);

    // Dropping one clone retires nothing.
    drop(twin);
    let s = g.stats().snapshot();
    assert_eq!(s.snapshots_taken, 1);
    assert_eq!(s.snapshots_retired, 0);

    drop(snap);
    let s = g.stats().snapshot();
    assert_eq!(s.snapshots_retired, 1);
}

#[test]
fn snapshot_freezes_quarantine_and_repair_state() {
    let mut g = LsGraph::with_config(16, cfg());
    g.insert_batch(&[Edge::new(3, 1), Edge::new(3, 2), Edge::new(4, 5)]);
    let before = g.snapshot();

    // Clear + requarantine + repair is the post-fault lifecycle; a snapshot
    // taken before it must keep the original adjacency, one taken between
    // must see the quarantined (empty) vertex.
    g.clear_vertex(3);
    g.restore_quarantine_set(&[3]).unwrap();
    let during = g.snapshot();
    g.repair_vertex(3, &[7, 1]).unwrap();

    assert_eq!(before.neighbors(3), vec![1, 2]);
    assert!(!before.is_quarantined(3));
    assert_eq!(during.neighbors(3), Vec::<u32>::new());
    assert!(during.is_quarantined(3));
    assert_eq!(during.quarantined_vertices(), vec![3]);
    assert_eq!(g.neighbors(3), vec![1, 7]);
    assert!(!g.is_quarantined(3));

    before.validate_invariants().unwrap();
    during.validate_invariants().unwrap();
    g.check_invariants();
}

/// Writer thread + N reader threads: the writer streams batches, flipping a
/// snapshot (with its frozen oracle) to every reader at every batch
/// boundary; each reader fully verifies every snapshot it receives. The
/// interleaving is deterministic in outcome — each reader checks each
/// snapshot against state frozen at the flip, so scheduling cannot change
/// what any assertion sees.
#[test]
fn concurrent_readers_see_frozen_state_under_write_load() {
    const READERS: usize = 4;

    let mut rng = SmallRng::seed_from_u64(0xC0FF_EE01);
    let mut g = LsGraph::with_config(N, cfg());
    let mut oracle: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); N];

    let mut txs = Vec::new();
    let mut handles = Vec::new();
    for reader in 0..READERS {
        let (tx, rx) = mpsc::channel::<(GraphSnapshot, Vec<Vec<u32>>, usize)>();
        txs.push(tx);
        handles.push(std::thread::spawn(move || {
            let mut verified = 0usize;
            while let Ok((snap, adj, m)) = rx.recv() {
                assert_snapshot_matches(&snap, &adj, m, &format!("reader {reader}"));
                verified += 1;
            }
            verified
        }));
    }

    for _ in 0..ROUNDS {
        let (adj, m) = freeze(&oracle);
        let snap = g.snapshot();
        for tx in &txs {
            tx.send((snap.clone(), adj.clone(), m)).unwrap();
        }
        drop(snap);
        let (is_insert, batch) = gen_batch(&mut rng);
        if is_insert {
            g.insert_batch(&batch);
        } else {
            g.delete_batch(&batch);
        }
        apply_to_oracle(&mut oracle, is_insert, &batch);
    }
    drop(txs);
    for h in handles {
        assert_eq!(h.join().expect("reader panicked"), ROUNDS);
    }

    // All readers exited, so every snapshot clone is gone.
    let s = g.stats().snapshot();
    assert_eq!(s.snapshots_taken, ROUNDS as u64);
    assert_eq!(s.snapshots_retired, ROUNDS as u64);
    g.check_invariants();
}

/// Everything a reader can ask of a graph, as one comparable value. A macro
/// so the same expression runs against the live graph's and the snapshot's
/// own accessors.
macro_rules! read_surface {
    ($g:expr) => {{
        let g = $g;
        let per_vertex: Vec<_> = (0..g.num_vertices() as u32)
            .map(|v| {
                let mut ns = Vec::new();
                let tier = g.checkpoint_vertex(v, &mut ns);
                (tier, g.tier(v), ns, g.degree(v), g.is_quarantined(v))
            })
            .collect();
        (
            per_vertex,
            g.num_edges(),
            g.validate_invariants(),
            g.footprint(),
            g.tier_stats(),
        )
    }};
}

/// The live graph and a snapshot answer through the same
/// `lsgraph_core::GraphView` code, so at the flip their whole read surface
/// is equal, and afterwards the snapshot's never changes.
#[test]
fn snapshot_and_live_graph_answer_identically_at_the_flip() {
    for seed in 0..4u64 {
        let mut rng = SmallRng::seed_from_u64(0x51AB + seed);
        let mut g = LsGraph::with_config(N, cfg());
        // One hub deep in the HITree tier so all four tiers are compared.
        g.insert_batch(&(0..400u32).map(|i| Edge::new(7, i)).collect::<Vec<_>>());
        for round in 0..ROUNDS {
            let (is_insert, batch) = gen_batch(&mut rng);
            if is_insert {
                g.insert_batch(&batch);
            } else {
                g.delete_batch(&batch);
            }
            if round == ROUNDS / 2 {
                g.clear_vertex(3);
                g.restore_quarantine_set(&[3]).unwrap();
            }
        }
        let snap = g.snapshot();
        let at_flip = read_surface!(&g);
        assert_eq!(at_flip.2, Ok(()));
        assert_eq!(read_surface!(&snap), at_flip, "seed {seed}");
        // The writer moves on (and thaws the quarantined vertex); the
        // snapshot keeps giving the answers of the flip.
        g.repair_vertex(3, &[1, 2]).unwrap();
        g.insert_batch(&(0..300u32).map(|i| Edge::new(9, i)).collect::<Vec<_>>());
        assert_ne!(read_surface!(&g), at_flip);
        assert_eq!(read_surface!(&snap), at_flip, "seed {seed}");
    }
}
