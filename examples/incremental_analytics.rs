//! Incremental analytics over a live stream: maintain BFS distances from a
//! landmark vertex while batches arrive, repairing only the affected region
//! — the incremental-computation pattern the paper's §3.1 design discussion
//! targets.
//!
//! ```text
//! cargo run --release --example incremental_analytics
//! ```

use std::time::Instant;

use lsgraph::analytics::{IncrementalBfs, UNREACHED};
use lsgraph::{gen, Config, DynamicGraph, Edge, Graph, LsGraph};

fn main() {
    let n = 50_000;
    let stream = gen::temporal_stream(n, 600_000, 0.7, 11);
    let (base, live) = stream.split_at(stream.len() / 2);

    let undirected =
        |es: &[Edge]| -> Vec<Edge> { es.iter().flat_map(|e| [*e, e.reversed()]).collect() };
    let mut g = LsGraph::from_edges(n, &undirected(base), Config::default());
    let landmark = (0..n as u32)
        .max_by_key(|&v| g.degree(v))
        .expect("non-empty");
    println!(
        "base |E|={}, landmark vertex {landmark} (degree {})",
        g.num_edges(),
        g.degree(landmark)
    );

    let t0 = Instant::now();
    let mut inc = IncrementalBfs::new(&g, landmark);
    println!("initial BFS: {:?}", t0.elapsed());

    for (epoch, chunk) in live.chunks(30_000).enumerate() {
        let batch = undirected(chunk);
        let t0 = Instant::now();
        g.insert_batch(&batch);
        let ingest = t0.elapsed();

        let t0 = Instant::now();
        inc.on_insert(&g, &batch);
        let repair = t0.elapsed();

        let t0 = Instant::now();
        let fresh = IncrementalBfs::new(&g, landmark);
        let full = t0.elapsed();
        assert_eq!(inc.distances(), fresh.distances(), "repair must be exact");

        let reached = inc.distances().iter().filter(|&&d| d != UNREACHED).count();
        let ecc = inc
            .distances()
            .iter()
            .filter(|&&d| d != UNREACHED)
            .max()
            .copied()
            .unwrap_or(0);
        println!(
            "epoch {epoch}: ingest {ingest:>9.2?}  incremental repair {repair:>9.2?}  \
             (full recompute {full:>9.2?})  reached {reached}, eccentricity {ecc}"
        );
    }
}
