//! Interactive graph shell: a small REPL driving the full public API — the
//! kind of tool a downstream user builds first on top of the library.
//!
//! ```text
//! cargo run --release --example graph_shell
//! > gen rmat 14 200000        # R-MAT graph, 2^14 vertices, 200k edges
//! > insert 3 17               # add edge (3, 17) and its mirror
//! > neighbors 3
//! > bfs 3
//! > pagerank 10
//! > stats
//! > help
//! ```
//!
//! Also accepts a script on stdin (`echo "gen rmat 12 10000\nstats" | ...`).

use std::io::{self, BufRead, Write};

use lsgraph::{analytics, gen, Config, DynamicGraph, Edge, Graph, LsGraph, MemoryFootprint};

fn help() {
    println!(
        "commands:\n\
         \x20 gen rmat <scale> <edges>      generate + load an R-MAT graph\n\
         \x20 gen temporal <n> <edges>      generate a temporal stream graph\n\
         \x20 load <path>                   load a SNAP edge-list file\n\
         \x20 insert <u> <v>                insert undirected edge\n\
         \x20 delete <u> <v>                delete undirected edge\n\
         \x20 neighbors <v>                 print sorted adjacency\n\
         \x20 degree <v>                    print degree\n\
         \x20 bfs <src>                     reachable count + eccentricity\n\
         \x20 pagerank <iters>              top-5 vertices by score\n\
         \x20 components                    component count + giant size\n\
         \x20 triangles                     triangle count\n\
         \x20 stats                         tier population + memory\n\
         \x20 help | quit"
    );
}

fn main() {
    let mut g = LsGraph::with_config(0, Config::default());
    println!("lsgraph shell — 'help' for commands");
    let stdin = io::stdin();
    loop {
        print!("> ");
        io::stdout().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let int = |s: &&str| s.parse::<u32>().ok();
        match parts.as_slice() {
            [] => {}
            ["quit"] | ["exit"] => break,
            ["help"] => help(),
            ["gen", "rmat", sc, m] => match (sc.parse::<u32>(), m.parse::<usize>()) {
                (Ok(sc), Ok(m)) if sc <= 24 => {
                    let edges = gen::rmat(sc, m, gen::RmatParams::paper(), 42);
                    let undirected: Vec<Edge> =
                        edges.iter().flat_map(|e| [*e, e.reversed()]).collect();
                    g = LsGraph::from_edges(1 << sc, &undirected, Config::default());
                    println!("loaded |V|={} |E|={}", g.num_vertices(), g.num_edges());
                }
                _ => println!("usage: gen rmat <scale<=24> <edges>"),
            },
            ["gen", "temporal", n, m] => match (n.parse::<usize>(), m.parse::<usize>()) {
                (Ok(n), Ok(m)) if n >= 2 => {
                    let edges = gen::temporal_stream(n, m, 0.7, 42);
                    g = LsGraph::with_config(n, Config::default());
                    g.insert_batch_undirected(&edges);
                    println!("loaded |V|={} |E|={}", g.num_vertices(), g.num_edges());
                }
                _ => println!("usage: gen temporal <n>=2> <edges>"),
            },
            ["load", path] => match gen::load_snap_text(std::path::Path::new(path)) {
                Ok(edges) => {
                    g = LsGraph::from_edges(0, &edges, Config::default());
                    println!("loaded |V|={} |E|={}", g.num_vertices(), g.num_edges());
                }
                Err(e) => println!("load failed: {e}"),
            },
            ["insert", u, v] => match (int(u), int(v)) {
                (Some(u), Some(v)) => {
                    let added = g.insert_batch_undirected(&[Edge::new(u, v)]);
                    println!("{added} directed edges added");
                }
                _ => println!("usage: insert <u> <v>"),
            },
            ["delete", u, v] => match (int(u), int(v)) {
                (Some(u), Some(v)) => {
                    let removed = g.delete_batch_undirected(&[Edge::new(u, v)]);
                    println!("{removed} directed edges removed");
                }
                _ => println!("usage: delete <u> <v>"),
            },
            ["neighbors", v] => match int(v) {
                Some(v) if (v as usize) < g.num_vertices() => {
                    let ns = g.neighbors(v);
                    let shown = ns.len().min(50);
                    println!(
                        "{:?}{}",
                        &ns[..shown],
                        if ns.len() > shown { " ..." } else { "" }
                    );
                }
                _ => println!("vertex out of range"),
            },
            ["degree", v] => match int(v) {
                Some(v) if (v as usize) < g.num_vertices() => println!("{}", g.degree(v)),
                _ => println!("vertex out of range"),
            },
            ["bfs", src] => match int(src) {
                Some(s) if (s as usize) < g.num_vertices() => {
                    let parents = analytics::bfs(&g, s);
                    let dist = analytics::distances_from_parents(&g, s, &parents);
                    let reached = dist.iter().filter(|&&d| d != u32::MAX).count();
                    let ecc = dist.iter().filter(|&&d| d != u32::MAX).max().unwrap_or(&0);
                    println!("reached {reached} vertices, eccentricity {ecc}");
                }
                _ => println!("vertex out of range"),
            },
            ["pagerank", iters] => match iters.parse::<usize>() {
                Ok(iters) if g.num_vertices() > 0 => {
                    let pr = analytics::pagerank(&g, iters, 0.85);
                    let mut top: Vec<u32> = (0..g.num_vertices() as u32).collect();
                    top.sort_by(|&a, &b| pr[b as usize].total_cmp(&pr[a as usize]));
                    for &v in top.iter().take(5) {
                        println!("  v{v}: {:.6} (degree {})", pr[v as usize], g.degree(v));
                    }
                }
                _ => println!("usage: pagerank <iters> (on a non-empty graph)"),
            },
            ["components"] => {
                let cc = analytics::connected_components(&g);
                let mut counts = std::collections::HashMap::new();
                for &l in &cc {
                    *counts.entry(l).or_insert(0usize) += 1;
                }
                let giant = counts.values().copied().max().unwrap_or(0);
                println!("{} components, giant = {giant} vertices", counts.len());
            }
            ["triangles"] => {
                let tc = analytics::triangle_count(&g);
                println!("{} triangles in {:?}", tc.triangles, tc.total);
            }
            ["stats"] => {
                let s = g.tier_stats();
                let fp = g.footprint();
                println!(
                    "tiers: inline {} | array {} | ria {} | hitree {}  (edges: {} inline / {} spill)",
                    s.inline_vertices,
                    s.array_vertices,
                    s.ria_vertices,
                    s.hitree_vertices,
                    s.inline_edges,
                    s.spill_edges
                );
                println!(
                    "memory: {:.1} MB total, {:.1}% index overhead",
                    fp.total() as f64 / (1024.0 * 1024.0),
                    fp.index_ratio() * 100.0
                );
            }
            _ => println!("unknown command; 'help' lists commands"),
        }
    }
}
