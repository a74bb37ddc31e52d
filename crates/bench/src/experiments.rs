//! One function per paper table/figure. See EXPERIMENTS.md for the mapping
//! and the recorded paper-vs-measured outcomes.

use std::time::Duration;

use lsgraph_api::{DynamicGraph, Edge, Graph, MemoryFootprint};
use lsgraph_aspen::AspenGraph;
use lsgraph_core::{Config, HighDegreeStore, LiaSearch, LsGraph, MediumStore};
use lsgraph_gen::{rmat, DatasetProfile, RmatParams, TEMPORAL_PROFILES};
use lsgraph_pactree::PacGraph;
use lsgraph_terrace::TerraceGraph;

use crate::report::{BenchReport, EngineReport, FootprintReport, KernelTime, SCHEMA_VERSION};
use crate::runner::{
    build_engine, build_engine_scaled, engines, fmt_tput, time, time_avg, EngineKind, Scale,
};

/// Datasets used at the current scale (TW/FR only at higher scales: their
/// stand-ins are large even scaled).
fn datasets(scale: &Scale) -> Vec<DatasetProfile> {
    let mut names = vec!["LJ", "OR", "RM"];
    if scale.shift >= 4 {
        names.push("TW");
        names.push("FR");
    }
    names
        .into_iter()
        .map(|n| DatasetProfile::by_name(n).expect("profile exists"))
        .collect()
}

/// Shift mapping a profile's real size down to the harness scale.
fn shift_for(p: &DatasetProfile, scale: &Scale) -> u32 {
    p.log_vertices.saturating_sub(scale.graph_scale())
}

/// A vertex with edges, used as the BFS/BC source (paper uses the highest
/// out-degree vertex, as Terrace/Ligra do).
fn max_degree_vertex(g: &dyn Graph) -> u32 {
    (0..g.num_vertices() as u32)
        .max_by_key(|&v| g.degree(v))
        .unwrap_or(0)
}

/// Generates the update batch the throughput experiments use (rMat with the
/// paper's parameters over the same vertex range).
fn update_batch(graph_scale: u32, size: usize, seed: u64) -> Vec<Edge> {
    rmat(graph_scale, size, RmatParams::paper(), seed)
}

/// Fig. 12 (+ §6.2 deletion results): insert/delete throughput for every
/// engine and graph across batch sizes, the cells of [`fig12_report`].
pub fn fig12(scale: &Scale) {
    println!("# Fig. 12: update throughput (edges/s), insert|delete");
    let r = fig12_report(scale);
    let edges = |bs: usize| bs * scale.trials;
    for (i, row) in r.engines.chunks(engines().len()).enumerate() {
        if i % scale.batch_sizes().len() == 0 {
            println!("\n## {}", row[0].dataset);
            print!("{:>10}", "batch");
            row.iter().for_each(|e| print!("{:>22}", e.engine));
            println!();
        }
        print!("{:>10}", row[0].batch_size);
        for e in row {
            let ins = fmt_tput(edges(e.batch_size), Duration::from_nanos(e.insert_nanos));
            let del = fmt_tput(edges(e.batch_size), Duration::from_nanos(e.delete_nanos));
            print!("{:>22}", format!("{ins}|{del}"));
        }
        println!();
    }
}

/// Measures one engine on one (dataset, batch size) cell: `trials`
/// insert+delete rounds with fixed seeds, instrumentation reset first so
/// the counters cover exactly this cell.
fn measure_cell(
    g: &mut Box<dyn crate::Engine>,
    kind: EngineKind,
    dataset: &str,
    gscale: u32,
    bs: usize,
    trials: usize,
) -> EngineReport {
    g.reset_instrumentation();
    let mut ins = Duration::ZERO;
    let mut del = Duration::ZERO;
    for t in 0..trials {
        let batch = update_batch(gscale, bs, 1_000 + t as u64);
        let (_, ti) = time(|| g.insert_batch(&batch));
        let (_, td) = time(|| g.delete_batch(&batch));
        ins += ti;
        del += td;
    }
    let edges = (bs * trials) as f64;
    EngineReport {
        engine: kind.name().to_string(),
        dataset: dataset.to_string(),
        batch_size: bs,
        insert_eps: edges / ins.as_secs_f64().max(1e-12),
        delete_eps: edges / del.as_secs_f64().max(1e-12),
        insert_nanos: ins.as_nanos() as u64,
        delete_nanos: del.as_nanos() as u64,
        counters: g.op_counters(),
        struct_stats: g.struct_stats(),
        footprint: Some(measure_footprint(g.as_ref())),
        latency: g.latency_stats(),
        ..EngineReport::default()
    }
}

/// Structural self-check after an engine's measured updates: a run that
/// leaves an engine in an invalid state must not produce a baseline. It
/// walks the whole graph, so a caller runs it after an engine's last cell,
/// never between interleaved cells, where it would cool the caches of the
/// engine measured next (on a 2-core host, fig12's cells read 2–13 %
/// slower that way).
fn validate(g: &(impl crate::Engine + ?Sized), kind: EngineKind, dataset: &str) {
    if let Err(e) = g.validate_structure() {
        panic!("structure invalid after {}/{dataset}: {e}", kind.name());
    }
}

/// Footprint split + space amplification for one engine.
///
/// Measured amplification is payload bytes per minimal 4-byte edge slot;
/// α is the engine's configured bound when it has one (LSGraph), 0 = n/a.
fn measure_footprint(g: &(impl crate::Engine + ?Sized)) -> FootprintReport {
    let fp = g.footprint();
    let m = g.num_edges() as u64;
    FootprintReport {
        payload_bytes: fp.payload_bytes as u64,
        index_bytes: fp.index_bytes as u64,
        space_amp_measured: if m == 0 {
            0.0
        } else {
            fp.payload_bytes as f64 / (4.0 * m as f64)
        },
        space_amp_alpha: g.configured_alpha().unwrap_or(0.0),
    }
}

/// Fig. 12 as a machine-readable report: every engine × dataset × batch
/// size, with throughput plus the instrumentation counters for each cell.
pub fn fig12_report(scale: &Scale) -> BenchReport {
    let mut out = Vec::new();
    for p in datasets(scale) {
        let shift = shift_for(&p, scale);
        let n = p.scaled_vertices(shift);
        let gscale = p.log_vertices - shift;
        let base = p.generate(shift, 42);
        let mut built: Vec<(EngineKind, Box<dyn crate::Engine>)> = engines()
            .iter()
            .map(|&k| (k, build_engine_scaled(k, n, &base, shift)))
            .collect();
        for bs in scale.batch_sizes() {
            for (k, g) in built.iter_mut() {
                out.push(measure_cell(g, *k, p.name, gscale, bs, scale.trials));
            }
        }
        for (k, g) in &built {
            validate(g.as_ref(), *k, p.name);
        }
    }
    BenchReport {
        schema_version: SCHEMA_VERSION,
        experiment: "fig12".to_string(),
        base: scale.base,
        shift: scale.shift,
        trials: scale.trials,
        engines: out,
    }
}

/// Insert+delete rounds per engine in the §6.2 small-batch cell.
const SMALL_TRIALS: usize = 200;

/// §6.2 small batches as a machine-readable report (batch size 10 on OR).
pub fn small_batches_report(scale: &Scale) -> BenchReport {
    let p = DatasetProfile::by_name("OR").expect("profile exists");
    let shift = shift_for(&p, scale);
    let gscale = p.log_vertices - shift;
    let base = p.generate(shift, 42);
    let n = p.scaled_vertices(shift);
    let mut out = Vec::new();
    for k in engines() {
        let mut g = build_engine_scaled(k, n, &base, shift);
        out.push(measure_cell(&mut g, k, p.name, gscale, 10, SMALL_TRIALS));
        validate(g.as_ref(), k, p.name);
    }
    BenchReport {
        schema_version: SCHEMA_VERSION,
        experiment: "small".to_string(),
        base: scale.base,
        shift: scale.shift,
        trials: scale.trials,
        engines: out,
    }
}

/// §6.2 small batches: throughput at batch size 10, the cells of
/// [`small_batches_report`].
pub fn small_batches(scale: &Scale) {
    println!("# §6.2: batch-size-10 updates (throughput, edges/s), insert|delete");
    for e in small_batches_report(scale).engines {
        let edges = e.batch_size * SMALL_TRIALS;
        let ins = fmt_tput(edges, Duration::from_nanos(e.insert_nanos));
        let del = fmt_tput(edges, Duration::from_nanos(e.delete_nanos));
        println!("{:>10}: {ins}|{del}", e.engine);
    }
}

/// Fig. 3 motivation: Terrace wins BFS, Aspen wins large inserts.
pub fn fig3(scale: &Scale) {
    println!("# Fig. 3a: BFS time normalized to Terrace (lower is better)");
    for p in datasets(scale) {
        let shift = shift_for(&p, scale);
        let n = p.scaled_vertices(shift);
        let base = p.generate(shift, 42);
        let terrace = TerraceGraph::from_edges(n, &sym(&base));
        let aspen = AspenGraph::from_edges(n, &sym(&base));
        let src = max_degree_vertex(&terrace);
        let t_t = time_avg(scale.trials, || {
            lsgraph_analytics::bfs(&terrace, src);
        });
        let t_a = time_avg(scale.trials, || {
            lsgraph_analytics::bfs(&aspen, src);
        });
        println!(
            "{:>4}: Terrace 1.00  Aspen {:.2}",
            p.name,
            t_a.as_secs_f64() / t_t.as_secs_f64()
        );
    }
    println!("\n# Fig. 3b: insert throughput on OR, Terrace vs Aspen (+ PCSR)");
    let p = DatasetProfile::by_name("OR").expect("profile exists");
    let shift = shift_for(&p, scale);
    let gscale = p.log_vertices - shift;
    let base = p.generate(shift, 42);
    let n = p.scaled_vertices(shift);
    let mut terrace = TerraceGraph::from_edges(n, &base);
    let mut aspen = AspenGraph::from_edges(n, &base);
    let mut pcsr = lsgraph_pma::PmaGraph::from_edges(n, &base);
    println!(
        "{:>10}{:>12}{:>12}{:>12}",
        "batch", "Terrace", "Aspen", "PCSR"
    );
    for bs in scale.batch_sizes() {
        let batch = update_batch(gscale, bs, 11);
        let (_, tt) = time(|| terrace.insert_batch(&batch));
        terrace.delete_batch(&batch);
        let (_, ta) = time(|| aspen.insert_batch(&batch));
        aspen.delete_batch(&batch);
        let (_, tp) = time(|| pcsr.insert_batch(&batch));
        pcsr.delete_batch(&batch);
        println!(
            "{bs:>10}{:>12}{:>12}{:>12}",
            fmt_tput(bs, tt),
            fmt_tput(bs, ta),
            fmt_tput(bs, tp)
        );
    }
}

/// Fig. 4: where Terrace's insert time goes (PMA share, search vs move).
pub fn fig4(scale: &Scale) {
    println!("# Fig. 4: Terrace insert cost breakdown (single structure shares)");
    println!(
        "{:>6}{:>12}{:>16}{:>16}{:>12}",
        "graph", "PMA-time", "search-steps", "moved-elems", "rebuilds"
    );
    for p in datasets(scale) {
        let shift = shift_for(&p, scale);
        let gscale = p.log_vertices - shift;
        let n = p.scaled_vertices(shift);
        let base = p.generate(shift, 42);
        let mut g = TerraceGraph::from_edges(n, &base);
        g.reset_instrumentation();
        let batch = update_batch(gscale, *scale.batch_sizes().last().expect("nonempty"), 5);
        g.insert_batch(&batch);
        let c = g.pma_counters();
        println!(
            "{:>6}{:>11.1}%{:>16}{:>16}{:>12}",
            p.name,
            g.pma_time_share() * 100.0,
            c.search_steps,
            c.elements_moved,
            c.rebuilds
        );
    }
}

/// Mirrors a directed edge list (the paper symmetrizes analytics inputs).
fn sym(edges: &[Edge]) -> Vec<Edge> {
    let mut out = Vec::with_capacity(edges.len() * 2);
    for e in edges {
        out.push(*e);
        out.push(e.reversed());
    }
    out
}

/// Fig. 13: BFS and BC times normalized to LSGraph, the cells of
/// [`fig13_report`].
pub fn fig13(scale: &Scale) {
    println!("# Fig. 13: BFS / BC time normalized to LSGraph (higher = slower)");
    println!(
        "{:>6}{:>6}{:>10}{:>10}{:>10}{:>10}",
        "graph", "algo", "LSGraph", "Terrace", "Aspen", "PaC-tree"
    );
    let r = fig13_report(scale);
    use EngineKind::{Aspen, LsGraph, PacTree, Terrace};
    for row in r.engines.chunks(engines().len()) {
        for (algo, kernel) in [("BFS", 0), ("BC", 1)] {
            let wall = |k: EngineKind| {
                let cell = row.iter().find(|e| e.engine == k.name()).expect("cell");
                cell.kernels[kernel].wall_nanos as f64
            };
            print!("{:>6}{:>6}", row[0].dataset, algo);
            for k in [LsGraph, Terrace, Aspen, PacTree] {
                print!("{:>10.2}", wall(k) / wall(LsGraph));
            }
            println!();
        }
    }
}

/// Fig. 13 as a machine-readable report: BFS and BC wall time per engine ×
/// dataset. The kernels record into the process-global
/// [`LatencyStats`](lsgraph_api::LatencyStats)
/// sink, so each engine's cell is a before/after snapshot diff:
/// `latency.kernel` carries the per-invocation histogram (its `sum` is the
/// total kernel time) and `kernels` the wall time per kernel. Kernels move
/// no structure, so `struct_stats` is null. Update-throughput fields are 0
/// (this is an analytics experiment; `batch_size` 0 marks that).
pub fn fig13_report(scale: &Scale) -> BenchReport {
    use lsgraph_api::LatencyStats;
    let mut out = Vec::new();
    let trials = scale.trials.max(1);
    for p in datasets(scale) {
        let shift = shift_for(&p, scale);
        let n = p.scaled_vertices(shift);
        let base = sym(&p.generate(shift, 42));
        let built: Vec<(EngineKind, Box<dyn crate::Engine>)> = engines()
            .iter()
            .map(|&k| (k, build_engine(k, n, &base)))
            .collect();
        let src = max_degree_vertex(built[0].1.as_ref());
        for (k, g) in &built {
            let lat_before = LatencyStats::global().snapshot();
            let (_, bfs_d) = time(|| {
                for _ in 0..trials {
                    lsgraph_analytics::bfs(g.as_ref(), src);
                }
            });
            let (_, bc_d) = time(|| {
                for _ in 0..trials {
                    lsgraph_analytics::betweenness(g.as_ref(), src);
                }
            });
            let latency = LatencyStats::global().snapshot().since(&lat_before);
            out.push(EngineReport {
                engine: k.name().to_string(),
                dataset: p.name.to_string(),
                footprint: Some(measure_footprint(g.as_ref())),
                latency: Some(latency),
                kernels: vec![
                    KernelTime {
                        name: "bfs".to_string(),
                        wall_nanos: bfs_d.as_nanos() as u64,
                    },
                    KernelTime {
                        name: "bc".to_string(),
                        wall_nanos: bc_d.as_nanos() as u64,
                    },
                ],
                ..EngineReport::default()
            });
        }
    }
    BenchReport {
        schema_version: SCHEMA_VERSION,
        experiment: "fig13".to_string(),
        base: scale.base,
        shift: scale.shift,
        trials: scale.trials,
        engines: out,
    }
}

/// Table 2: PR / CC / TC absolute times, LSGraph vs Terrace.
pub fn table2(scale: &Scale) {
    println!("# Table 2: PR, CC, TC times in seconds (T/L = Terrace/LSGraph)");
    println!(
        "{:>6}{:>10}{:>10}{:>7}{:>10}{:>10}{:>7}{:>10}{:>10}{:>7}{:>9}",
        "graph", "PR-L", "PR-T", "T/L", "CC-L", "CC-T", "T/L", "TC-L", "TC-T", "T/L", "Tra/L"
    );
    for p in datasets(scale) {
        let shift = shift_for(&p, scale);
        let n = p.scaled_vertices(shift);
        let base = sym(&p.generate(shift, 42));
        let ls = LsGraph::from_edges(n, &base, Config::default());
        let tr = TerraceGraph::from_edges(n, &base);
        let pr_l = time_avg(scale.trials, || {
            lsgraph_analytics::pagerank(&ls, 10, 0.85);
        });
        let pr_t = time_avg(scale.trials, || {
            lsgraph_analytics::pagerank(&tr, 10, 0.85);
        });
        let cc_l = time_avg(scale.trials, || {
            lsgraph_analytics::connected_components(&ls);
        });
        let cc_t = time_avg(scale.trials, || {
            lsgraph_analytics::connected_components(&tr);
        });
        let tc_l = lsgraph_analytics::triangle_count(&ls);
        let tc_t = lsgraph_analytics::triangle_count(&tr);
        assert_eq!(tc_l.triangles, tc_t.triangles, "TC mismatch across engines");
        println!(
            "{:>6}{:>10.4}{:>10.4}{:>7.2}{:>10.4}{:>10.4}{:>7.2}{:>10.4}{:>10.4}{:>7.2}{:>8.1}%",
            p.name,
            pr_l.as_secs_f64(),
            pr_t.as_secs_f64(),
            pr_t.as_secs_f64() / pr_l.as_secs_f64(),
            cc_l.as_secs_f64(),
            cc_t.as_secs_f64(),
            cc_t.as_secs_f64() / cc_l.as_secs_f64(),
            tc_l.total.as_secs_f64(),
            tc_t.total.as_secs_f64(),
            tc_t.total.as_secs_f64() / tc_l.total.as_secs_f64(),
            tc_l.traversal.as_secs_f64() / tc_l.total.as_secs_f64() * 100.0,
        );
    }
}

/// Table 3: memory footprints and LSGraph's index overhead.
pub fn table3(scale: &Scale) {
    println!("# Table 3: memory usage (MB), T/L ratio, LSGraph index overhead I/L");
    println!(
        "{:>6}{:>10}{:>10}{:>10}{:>10}{:>7}{:>7}",
        "graph", "LSGraph", "Terrace", "Aspen", "PaC-tree", "T/L", "I/L"
    );
    for p in datasets(scale) {
        let shift = shift_for(&p, scale);
        let n = p.scaled_vertices(shift);
        let base = sym(&p.generate(shift, 42));
        let mb = |b: usize| b as f64 / (1024.0 * 1024.0);
        let ls = LsGraph::from_edges(n, &base, Config::default());
        let fp_l = ls.footprint();
        let fp_t = TerraceGraph::from_edges(n, &base).footprint();
        let fp_a = AspenGraph::from_edges(n, &base).footprint();
        let fp_p = PacGraph::from_edges(n, &base).footprint();
        println!(
            "{:>6}{:>10.1}{:>10.1}{:>10.1}{:>10.1}{:>7.2}{:>6.1}%",
            p.name,
            mb(fp_l.total()),
            mb(fp_t.total()),
            mb(fp_a.total()),
            mb(fp_p.total()),
            fp_t.total() as f64 / fp_l.total() as f64,
            ls.index_overhead() * 100.0,
        );
    }
    // Self-reported splits above vs what the process actually allocated;
    // the gap is allocator slack plus harness overhead.
    println!("# process heap: {}", lsgraph_api::heap_summary());
}

/// §6.2 component ablation: PMA-for-RIA, RIA-only, binary search in LIA.
pub fn ablation(scale: &Scale) {
    println!("# §6.2 ablation: insert time of one large batch (lower is better)");
    let p = DatasetProfile::by_name("OR").expect("profile exists");
    let shift = shift_for(&p, scale);
    let gscale = p.log_vertices - shift;
    let n = p.scaled_vertices(shift);
    let base = p.generate(shift, 42);
    // Whole-graph-scale insert, as the paper's 10^8-edge ablation workload;
    // smaller batches barely reach the HITree/LIA code paths.
    let bs = base.len();
    let variants: [(&str, Config); 4] = [
        ("LSGraph (full)", Config::default()),
        (
            "PMA instead of RIA",
            Config {
                medium: MediumStore::Pma,
                ..Config::default()
            },
        ),
        (
            "RIA instead of HITree",
            Config {
                high: HighDegreeStore::RiaOnly,
                ..Config::default()
            },
        ),
        (
            "binary search in LIA",
            Config {
                lia_search: LiaSearch::Binary,
                ..Config::default()
            },
        ),
    ];
    let mut baseline = None;
    for (name, cfg) in variants {
        let mut total = Duration::ZERO;
        for t in 0..scale.trials {
            let mut g = LsGraph::from_edges(n, &base, cfg);
            let batch = update_batch(gscale, bs, 33 + t as u64);
            let (_, d) = time(|| g.insert_batch(&batch));
            total += d;
        }
        let secs = (total / scale.trials.max(1) as u32).as_secs_f64();
        let rel = match baseline {
            None => {
                baseline = Some(secs);
                1.0
            }
            Some(b) => secs / b,
        };
        println!("{name:>24}: {secs:.4}s  ({rel:.2}x of full)");
    }
}

/// Fig. 14: insert-time sensitivity to α and M.
pub fn fig14(scale: &Scale) {
    println!("# Fig. 14: time (s) to insert one large batch, by alpha and M");
    sensitivity(scale, false);
}

/// Fig. 15: PageRank sensitivity to α and M.
pub fn fig15(scale: &Scale) {
    println!("# Fig. 15: PageRank time (s), by alpha and M");
    sensitivity(scale, true);
}

fn sensitivity(scale: &Scale, pagerank: bool) {
    let alphas = [1.1, 1.2, 1.3, 1.5, 2.0];
    let ms = [1usize << 12, 1 << 14, 1 << 16];
    for p in datasets(scale) {
        let shift = shift_for(&p, scale);
        let gscale = p.log_vertices - shift;
        let n = p.scaled_vertices(shift);
        let base = if pagerank {
            sym(&p.generate(shift, 42))
        } else {
            p.generate(shift, 42)
        };
        // The paper's Fig. 14 inserts a batch comparable to the whole graph
        // (10^8 edges on LJ); match that ratio so the α effect is visible.
        let bs = base
            .len()
            .max(*scale.batch_sizes().last().expect("nonempty"));
        println!("\n## {}", p.name);
        print!("{:>8}", "alpha\\M");
        for m in ms {
            print!("{:>10}", format!("2^{}", m.ilog2()));
        }
        println!();
        for a in alphas {
            print!("{a:>8}");
            for m in ms {
                let cfg = Config::default().with_alpha(a).with_m(m);
                let d = if pagerank {
                    let g = LsGraph::from_edges(n, &base, cfg);
                    time_avg(scale.trials, || {
                        lsgraph_analytics::pagerank(&g, 10, 0.85);
                    })
                } else {
                    let mut total = std::time::Duration::ZERO;
                    for t in 0..scale.trials {
                        // Fresh graph per trial: a whole-graph-sized insert.
                        let mut g = LsGraph::from_edges(n, &base, cfg);
                        let batch = update_batch(gscale, bs, 17 + t as u64);
                        let (_, d) = time(|| g.insert_batch(&batch));
                        total += d;
                    }
                    total / scale.trials.max(1) as u32
                };
                print!("{:>10.4}", d.as_secs_f64());
            }
            println!();
        }
    }
}

/// Fig. 16: five consecutive large insert batches (no deletes), stressing
/// HITree's vertical movement.
pub fn fig16(scale: &Scale) {
    println!("# Fig. 16: cumulative time (s) of 5 consecutive large inserts on OR");
    let p = DatasetProfile::by_name("OR").expect("profile exists");
    let shift = shift_for(&p, scale);
    let gscale = p.log_vertices - shift;
    let n = p.scaled_vertices(shift);
    let base = p.generate(shift, 42);
    // Five whole-graph-scale batches, as in the paper (5 x 10^8 on OR).
    let bs = base.len() / 2;
    let alphas = [1.1, 1.2, 1.5];
    let ms = [1usize << 12, 1 << 14, 1 << 16];
    print!("{:>8}", "alpha\\M");
    for m in ms {
        print!("{:>10}", format!("2^{}", m.ilog2()));
    }
    println!();
    for a in alphas {
        print!("{a:>8}");
        for m in ms {
            let cfg = Config::default().with_alpha(a).with_m(m);
            let mut g = LsGraph::from_edges(n, &base, cfg);
            let (_, d) = time(|| {
                for round in 0..5u64 {
                    let batch = update_batch(gscale, bs, 100 + round);
                    g.insert_batch(&batch);
                }
            });
            print!("{:>10.4}", d.as_secs_f64());
        }
        println!();
    }
}

/// Fig. 17: update-throughput scaling across thread counts.
pub fn fig17(scale: &Scale) {
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("# Fig. 17: insert throughput vs threads on OR (hw threads: {hw})");
    let p = DatasetProfile::by_name("OR").expect("profile exists");
    let shift = shift_for(&p, scale);
    let gscale = p.log_vertices - shift;
    let n = p.scaled_vertices(shift);
    let base = p.generate(shift, 42);
    let bs = scale.batch_sizes()[3];
    let mut threads = vec![1usize];
    while *threads.last().expect("nonempty") * 2 <= hw {
        threads.push(threads.last().expect("nonempty") * 2);
    }
    print!("{:>10}", "threads");
    for k in engines() {
        print!("{:>12}", k.name());
    }
    println!();
    for t in threads {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .expect("pool");
        print!("{t:>10}");
        for k in engines() {
            // `trials` fresh batches streamed into one engine: a single
            // batch is a few milliseconds, too short to tell 1 from 2.
            let d: Duration = pool.install(|| {
                let mut g = build_engine(k, n, &base);
                (0..scale.trials)
                    .map(|trial| {
                        let batch = update_batch(gscale, bs, 55 + trial as u64);
                        time(|| g.insert_batch(&batch)).1
                    })
                    .sum()
            });
            print!("{:>12}", fmt_tput(bs * scale.trials, d));
        }
        println!();
    }
}

/// Table 4 / §6.5: realistic temporal arrival streams — 90% loaded, the
/// final 10% streamed as timestamped batches.
pub fn table4(scale: &Scale) {
    println!("# Table 4 / §6.5: streaming the last 10% of temporal graphs (edges/s)");
    let div = if scale.shift >= 3 {
        1
    } else {
        10 >> scale.shift.min(3)
    };
    print!("{:>6}", "graph");
    for k in engines() {
        print!("{:>12}", k.name());
    }
    println!();
    for p in TEMPORAL_PROFILES {
        let stream = p.generate(div.max(1), 7);
        let cut = stream.len() * 9 / 10;
        let (base, tail) = stream.split_at(cut);
        let n = p.vertices / div.max(1) + 1;
        print!("{:>6}", p.name);
        for k in engines() {
            let mut g = build_engine(k, n, base);
            let (_, d) = time(|| {
                for chunk in tail.chunks(10_000.max(tail.len() / 50)) {
                    g.insert_batch(chunk);
                }
            });
            print!("{:>12}", fmt_tput(tail.len(), d));
        }
        println!();
    }
}

/// §6.1 baseline selection: PaC-tree vs Sortledton update throughput (the
/// paper reports PaC-tree ahead by 40.56×–142.53× and therefore uses it as
/// the tree-family baseline).
pub fn sortledton(scale: &Scale) {
    use lsgraph_pactree::PacGraph;
    use lsgraph_sortledton::SortledtonGraph;
    println!("# §6.1: PaC-tree vs Sortledton insert throughput (edges/s)");
    let p = DatasetProfile::by_name("OR").expect("profile exists");
    let shift = shift_for(&p, scale);
    let gscale = p.log_vertices - shift;
    let n = p.scaled_vertices(shift);
    let base = p.generate(shift, 42);
    let mut pac = PacGraph::from_edges(n, &base);
    let mut sl = SortledtonGraph::from_edges(n, &base);
    println!(
        "{:>10}{:>12}{:>12}{:>8}",
        "batch", "PaC-tree", "Sortledton", "P/S"
    );
    for bs in scale.batch_sizes() {
        let batch = update_batch(gscale, bs, 61);
        let (_, tp) = time(|| pac.insert_batch(&batch));
        pac.delete_batch(&batch);
        let (_, ts) = time(|| sl.insert_batch(&batch));
        sl.delete_batch(&batch);
        println!(
            "{bs:>10}{:>12}{:>12}{:>8.2}",
            fmt_tput(bs, tp),
            fmt_tput(bs, ts),
            ts.as_secs_f64() / tp.as_secs_f64()
        );
    }
}

/// §6.5 larger graphs: graph500 Kronecker, LSGraph vs Aspen vs PaC-tree.
pub fn g500(scale: &Scale) {
    println!("# §6.5: graph500 Kronecker graph, insert throughput (edges/s)");
    let gscale = scale.graph_scale() + 2;
    let m = 1usize << (gscale + 3);
    let base = lsgraph_gen::graph500(gscale, m, 3);
    let n = 1usize << gscale;
    let bs = *scale.batch_sizes().last().expect("nonempty");
    for k in [EngineKind::LsGraph, EngineKind::Aspen, EngineKind::PacTree] {
        let mut g = build_engine(k, n, &base);
        let batch = lsgraph_gen::graph500(gscale, bs, 91);
        let (_, d) = time(|| g.insert_batch(&batch));
        println!("{:>10}: {}", k.name(), fmt_tput(bs, d));
    }
}

/// Measures one durability cell at batch size `bs`: a fresh WAL-fronted
/// store loads the base graph, streams `trials` logged insert + delete
/// rounds (synced each round), checkpoints, streams `trials` more rounds
/// past the checkpoint, and reopens — so the recovery replays exactly the
/// post-checkpoint tail.
fn durability_cell(
    dataset: &str,
    n: usize,
    base: &[Edge],
    gscale: u32,
    shift: u32,
    bs: usize,
    trials: usize,
) -> EngineReport {
    use lsgraph_persist::Store;
    let dir = std::env::temp_dir().join(format!(
        "lsgraph-bench-durability-{}-{bs}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let cfg = crate::runner::scaled_config(shift);
    let (mut store, _) = Store::open(&dir, n, cfg).expect("open store");
    store.insert_batch(base).expect("load base");
    store.checkpoint().expect("baseline checkpoint");
    let stats_before = store.graph().stats().snapshot();
    let wal_before = store.wal_len();

    // Measured logged updates: append + group commit + apply, fsync per
    // round (the WAL's advertised durability point).
    let mut ins = Duration::ZERO;
    let mut del = Duration::ZERO;
    for t in 0..trials {
        let batch = update_batch(gscale, bs, 1_000 + t as u64);
        let (_, ti) = time(|| {
            store.insert_batch(&batch).expect("logged insert");
            store.sync().expect("sync");
        });
        let (_, td) = time(|| {
            store.delete_batch(&batch).expect("logged delete");
            store.sync().expect("sync");
        });
        ins += ti;
        del += td;
    }
    let (ckpt_meta, ckpt_d) = time(|| store.checkpoint().expect("checkpoint"));

    // Post-checkpoint tail: what the recovery below has to replay.
    let mut tail_edges = 0usize;
    for t in 0..trials {
        let batch = update_batch(gscale, bs, 5_000 + t as u64);
        tail_edges += batch.len();
        store.insert_batch(&batch).expect("tail insert");
    }
    store.sync().expect("tail sync");
    let wal_after = store.wal_len();
    let stats_after = store.graph().stats().snapshot();
    drop(store);

    let ((store, recovery), rec_d) = time(|| Store::open(&dir, n, cfg).expect("recover"));
    assert_eq!(
        recovery.frames_replayed, trials as u64,
        "recovery must replay exactly the post-checkpoint tail"
    );
    if let Err(e) = store.graph().validate_structure() {
        panic!("structure invalid after durability/{dataset}/bs={bs}: {e}");
    }
    // The cell's counters cover the pre-crash store (logged updates +
    // checkpoint); the recovery counters live on the *recovered* store's
    // stats, so graft them in — all four durability counters then describe
    // this one cell and stay deterministic for the regression gate.
    let rec_stats = store.graph().stats().snapshot();
    let mut cell_stats = stats_after.since(stats_before);
    cell_stats.recovery_frames_replayed = rec_stats.recovery_frames_replayed;
    cell_stats.recovery_frames_discarded = rec_stats.recovery_frames_discarded;
    cell_stats.recovery_images_discarded = rec_stats.recovery_images_discarded;
    let edges = (bs * trials) as f64;
    let report = EngineReport {
        engine: "LSGraph+WAL".to_string(),
        dataset: dataset.to_string(),
        batch_size: bs,
        insert_eps: edges / ins.as_secs_f64().max(1e-12),
        delete_eps: edges / del.as_secs_f64().max(1e-12),
        insert_nanos: ins.as_nanos() as u64,
        delete_nanos: del.as_nanos() as u64,
        struct_stats: Some(cell_stats),
        footprint: Some(measure_footprint(store.graph())),
        durability: Some(crate::report::DurabilityReport {
            wal_frames: cell_stats.wal_frames_appended,
            wal_bytes: wal_after - wal_before,
            wal_append_eps: (2.0 * edges) / (ins + del).as_secs_f64().max(1e-12),
            checkpoint_bytes: ckpt_meta.bytes,
            checkpoint_nanos: ckpt_d.as_nanos() as u64,
            recovery_nanos: rec_d.as_nanos() as u64,
            replay_frames: recovery.frames_replayed,
            replay_eps: tail_edges as f64 / rec_d.as_secs_f64().max(1e-12),
            wal_segments_rotated: cell_stats.wal_segments_rotated,
            wal_segments_deleted: cell_stats.wal_segments_deleted,
            delta_checkpoints_written: cell_stats.delta_checkpoints_written,
            checkpoint_dirty_vertices: cell_stats.checkpoint_dirty_vertices,
            wal_live_bytes: cell_stats.wal_live_bytes,
        }),
        ..EngineReport::default()
    };
    std::fs::remove_dir_all(&dir).ok();
    report
}

/// Measures one **rotating** durability cell: the store runs with a
/// segment budget sized to the batch (so the WAL rotates on nearly every
/// append), eager delta checkpoints (`delta_ratio` 1.0), and a retention
/// pass every fourth round. The cell asserts the two tentpole durability
/// properties directly:
///
/// - **bounded WAL**: retention reclaims sealed segments behind the chain
///   tip, so the live WAL stays strictly below the bytes appended over the
///   run;
/// - **delta scaling**: a delta image's size grows with the number of
///   vertices it covers (probed with a small and a large batch),
///   and stays below the full base image.
fn rotation_cell(
    dataset: &str,
    n: usize,
    base: &[Edge],
    gscale: u32,
    shift: u32,
    bs: usize,
    trials: usize,
) -> EngineReport {
    use lsgraph_persist::{Store, StoreOptions};
    let dir = std::env::temp_dir().join(format!(
        "lsgraph-bench-rotating-{}-{bs}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let cfg = crate::runner::scaled_config(shift);
    let opts = StoreOptions {
        // One update frame roughly fills a segment, so rotation happens on
        // nearly every logged round.
        segment_bytes: ((bs * 8) as u64).max(1024),
        delta_ratio: 1.0,
        max_delta_chain: 64,
    };
    let (mut store, _) = Store::open_with(&dir, n, cfg, opts).expect("open store");
    store.insert_batch(base).expect("load base");
    let full_meta = store.checkpoint().expect("baseline full checkpoint");
    let stats_before = store.graph().stats().snapshot();

    // Logged rounds with periodic checkpoint + retention. Scales with the
    // profile but keeps a floor so rotation and GC always trigger.
    let rounds = trials.max(12);
    let mut ins = Duration::ZERO;
    let mut del = Duration::ZERO;
    let mut appended = 0u64;
    let mut last_len = store.wal_len();
    for t in 0..rounds {
        let batch = update_batch(gscale, bs, 9_000 + t as u64);
        let (_, ti) = time(|| {
            store.insert_batch(&batch).expect("logged insert");
            store.sync().expect("sync");
        });
        let (_, td) = time(|| {
            store.delete_batch(&batch).expect("logged delete");
            store.sync().expect("sync");
        });
        ins += ti;
        del += td;
        appended += store.wal_len().saturating_sub(last_len);
        if t % 4 == 3 {
            store.checkpoint().expect("delta checkpoint");
            store.run_retention().expect("retention pass");
        }
        last_len = store.wal_len();
    }
    store.checkpoint().expect("closing checkpoint");
    store.run_retention().expect("closing retention");

    // Tentpole property 1: the live WAL is bounded — retention reclaimed
    // sealed segments, so on-disk bytes sit strictly below what the run
    // appended.
    let live = store.wal_len();
    assert!(
        live < appended,
        "rotating/{dataset}/bs={bs}: live WAL {live} B not bounded \
         (appended {appended} B, retention reclaimed nothing)"
    );

    // Tentpole property 2: delta image bytes scale with the count of
    // vertices that changed. Probe with a small batch, then one ~8x larger.
    let small = update_batch(gscale, (bs / 4).max(8), 77);
    store.insert_batch(&small).expect("small probe");
    store.sync().expect("sync");
    let small_meta = store.checkpoint().expect("small delta");
    let small_changed = store.graph().stats().snapshot().checkpoint_dirty_vertices;
    let large = update_batch(gscale, (bs * 2).max(64), 78);
    store.insert_batch(&large).expect("large probe");
    store.sync().expect("sync");
    let large_meta = store.checkpoint().expect("large delta");
    let large_changed = store.graph().stats().snapshot().checkpoint_dirty_vertices;
    assert!(
        small_changed < large_changed,
        "rotating/{dataset}/bs={bs}: probe changed sets not ordered \
         ({small_changed} vs {large_changed})"
    );
    assert!(
        small_meta.bytes < large_meta.bytes,
        "rotating/{dataset}/bs={bs}: delta bytes do not scale with changed \
         vertices ({} B for {small_changed} vs {} B for {large_changed})",
        small_meta.bytes,
        large_meta.bytes
    );
    assert!(
        large_meta.bytes < full_meta.bytes,
        "rotating/{dataset}/bs={bs}: delta image ({} B) not smaller than \
         the full base image ({} B)",
        large_meta.bytes,
        full_meta.bytes
    );

    // Post-checkpoint tail, then recover and verify like the base cell.
    let mut tail_edges = 0usize;
    for t in 0..2 {
        let batch = update_batch(gscale, bs, 11_000 + t as u64);
        tail_edges += batch.len();
        store.insert_batch(&batch).expect("tail insert");
    }
    store.sync().expect("tail sync");
    let wal_live = store.wal_len();
    let stats_after = store.graph().stats().snapshot();
    drop(store);

    let ((store, recovery), rec_d) =
        time(|| Store::open_with(&dir, n, cfg, opts).expect("recover"));
    assert_eq!(
        recovery.frames_replayed, 2,
        "recovery must replay exactly the post-checkpoint tail"
    );
    if let Err(e) = store.graph().validate_structure() {
        panic!("structure invalid after rotating/{dataset}/bs={bs}: {e}");
    }
    let rec_stats = store.graph().stats().snapshot();
    let mut cell_stats = stats_after.since(stats_before);
    cell_stats.recovery_frames_replayed = rec_stats.recovery_frames_replayed;
    cell_stats.recovery_frames_discarded = rec_stats.recovery_frames_discarded;
    cell_stats.recovery_images_discarded = rec_stats.recovery_images_discarded;
    assert!(
        cell_stats.wal_segments_rotated > 0 && cell_stats.wal_segments_deleted > 0,
        "rotating/{dataset}/bs={bs}: rotation or retention never triggered"
    );
    assert!(
        cell_stats.delta_checkpoints_written >= 2,
        "rotating/{dataset}/bs={bs}: probes did not write delta images"
    );
    let edges = (bs * rounds) as f64;
    let report = EngineReport {
        engine: "LSGraph+WAL/rotating".to_string(),
        dataset: dataset.to_string(),
        batch_size: bs,
        insert_eps: edges / ins.as_secs_f64().max(1e-12),
        delete_eps: edges / del.as_secs_f64().max(1e-12),
        insert_nanos: ins.as_nanos() as u64,
        delete_nanos: del.as_nanos() as u64,
        struct_stats: Some(cell_stats),
        footprint: Some(measure_footprint(store.graph())),
        durability: Some(crate::report::DurabilityReport {
            wal_frames: cell_stats.wal_frames_appended,
            wal_bytes: appended,
            wal_append_eps: (2.0 * edges) / (ins + del).as_secs_f64().max(1e-12),
            checkpoint_bytes: large_meta.bytes,
            checkpoint_nanos: 0,
            recovery_nanos: rec_d.as_nanos() as u64,
            replay_frames: recovery.frames_replayed,
            replay_eps: tail_edges as f64 / rec_d.as_secs_f64().max(1e-12),
            wal_segments_rotated: cell_stats.wal_segments_rotated,
            wal_segments_deleted: cell_stats.wal_segments_deleted,
            delta_checkpoints_written: cell_stats.delta_checkpoints_written,
            checkpoint_dirty_vertices: large_changed,
            wal_live_bytes: wal_live,
        }),
        ..EngineReport::default()
    };
    std::fs::remove_dir_all(&dir).ok();
    report
}

/// Durability experiment: WAL append throughput, checkpoint
/// write cost, and recovery replay rate across batch sizes on OR, plus one
/// rotating cell (segmented WAL + delta checkpoints + retention GC) at the
/// largest batch size.
pub fn durability_report(scale: &Scale) -> BenchReport {
    let p = DatasetProfile::by_name("OR").expect("profile exists");
    let shift = shift_for(&p, scale);
    let gscale = p.log_vertices - shift;
    let n = p.scaled_vertices(shift);
    let base = p.generate(shift, 42);
    let mut engines: Vec<EngineReport> = scale
        .batch_sizes()
        .into_iter()
        .map(|bs| durability_cell(p.name, n, &base, gscale, shift, bs, scale.trials))
        .collect();
    let rot_bs = *scale.batch_sizes().last().expect("nonempty");
    engines.push(rotation_cell(
        p.name,
        n,
        &base,
        gscale,
        shift,
        rot_bs,
        scale.trials,
    ));
    BenchReport {
        schema_version: SCHEMA_VERSION,
        experiment: "durability".to_string(),
        base: scale.base,
        shift: scale.shift,
        trials: scale.trials,
        engines,
    }
}

/// Durability experiment, human-readable table.
pub fn durability(scale: &Scale) {
    println!("# durability: logged updates, checkpoints, recovery (OR)");
    println!(
        "{:>22}{:>10}{:>14}{:>14}{:>12}{:>14}{:>10}{:>10}{:>10}",
        "engine",
        "batch",
        "logged-ins",
        "logged-del",
        "ckpt-MB",
        "replay-eps",
        "segs-rot",
        "segs-del",
        "live-KB"
    );
    let r = durability_report(scale);
    for e in &r.engines {
        let d = e.durability.as_ref().expect("durability cell");
        println!(
            "{:>22}{:>10}{:>14}{:>14}{:>12.2}{:>14}{:>10}{:>10}{:>10.1}",
            e.engine,
            e.batch_size,
            format!("{:.2e}", e.insert_eps),
            format!("{:.2e}", e.delete_eps),
            d.checkpoint_bytes as f64 / (1024.0 * 1024.0),
            format!("{:.2e}", d.replay_eps),
            d.wal_segments_rotated,
            d.wal_segments_deleted,
            d.wal_live_bytes as f64 / 1024.0,
        );
    }
}

/// Number of concurrent reader threads in the `mixed` experiment.
const MIXED_READERS: usize = 4;

/// Measures one mixed reader/writer cell at batch size `bs`: a writer
/// streams `rounds` update batches, flipping a [`GraphSnapshot`] after
/// every batch, while [`MIXED_READERS`] reader threads hammer the latest
/// published snapshot with a **fixed** number of read ops each, recording
/// per-op latency into the `reader` histogram.
///
/// The protocol keeps the gated counters deterministic: the writer holds
/// every snapshot until the readers finish (so each per-source run copies
/// its block exactly once per batch, making `cow_block_copies` a pure
/// function of the seeded batches), the reader op count is fixed per thread
/// (so the `reader` histogram count is exactly readers × ops).
fn mixed_cell(
    dataset: &str,
    n: usize,
    base: &[Edge],
    gscale: u32,
    shift: u32,
    bs: usize,
    trials: usize,
) -> EngineReport {
    use lsgraph_core::GraphSnapshot;
    use std::sync::{Arc, Mutex};
    use std::time::Instant;

    let rounds = 8 * trials.max(1);
    let ops_per_reader = 64 * rounds;

    let cfg = crate::runner::scaled_config(shift);
    let mut g = LsGraph::from_edges(n, base, cfg);
    g.reset_instrumentation();

    // Live metrics: when `repro ... --metrics` installed a JSONL sink, the
    // engine's registry is sampled once per writer round plus once at
    // quiescence — `rounds + 1` samples per cell, an exact function of the
    // workload, never of wall clock. Without a sink every tick is a no-op.
    let registry = {
        let mut r = lsgraph_api::MetricsRegistry::new();
        r.register_struct_stats("lsgraph", g.stats_handle());
        r.register_latency_stats("lsgraph", g.latency_handle());
        Arc::new(r)
    };
    let lat = g.latency_handle();
    let mut sampler = lsgraph_api::Sampler::new(registry, format!("{dataset}/bs={bs}"));
    let mut tick_edges = 0usize;
    let mut tick_start = Instant::now();

    // Seed the published slot so readers have a frozen view from op one.
    let published: Arc<Mutex<GraphSnapshot>> = Arc::new(Mutex::new(g.snapshot()));
    let mut handles = Vec::new();
    for r in 0..MIXED_READERS {
        let published = Arc::clone(&published);
        handles.push(std::thread::spawn(move || {
            let start = Instant::now();
            for i in 0..ops_per_reader {
                // Cloning the handle bumps one refcount on the shared
                // snapshot state, never the per-block Arcs, so reads do not
                // perturb the writer's copy-on-write accounting.
                let snap = published.lock().expect("published snapshot").clone();
                let op_start = Instant::now();
                let v = ((r * ops_per_reader + i) * 97 % snap.num_vertices().max(1)) as u32;
                std::hint::black_box(snap.neighbors(v).len());
                snap.record_reader_duration(op_start.elapsed());
            }
            start.elapsed()
        }));
    }

    // Writer: stream batches (a delete round every third), flip + publish a
    // snapshot after each, and hold them all until measurement ends.
    let mut snaps = Vec::with_capacity(rounds);
    let mut ins = Duration::ZERO;
    let mut del = Duration::ZERO;
    let mut ins_edges = 0usize;
    let mut del_edges = 0usize;
    let writer_start = std::time::Instant::now();
    for t in 0..rounds {
        let batch = update_batch(gscale, bs, 1_000 + t as u64);
        if t % 3 == 2 {
            del_edges += batch.len();
            let (_, d) = time(|| g.delete_batch(&batch));
            del += d;
        } else {
            ins_edges += batch.len();
            let (_, d) = time(|| g.insert_batch(&batch));
            ins += d;
        }
        let snap = g.snapshot();
        *published.lock().expect("published snapshot") = snap.clone();
        snaps.push(snap);

        // One metrics sample per writer round: instantaneous writer eps
        // since the previous tick, and the readers' running p99 — the
        // series shows *when* in the run a regression happens.
        let total = ins_edges + del_edges;
        let eps = (total - tick_edges) as f64 / tick_start.elapsed().as_secs_f64().max(1e-12);
        let p99 = lat.reader.snapshot().p99() as f64;
        sampler
            .tick(&[("writer_eps", eps), ("reader_p99_ns", p99)])
            .expect("metrics tick failed");
        tick_edges = total;
        tick_start = Instant::now();
    }
    let writer_d = writer_start.elapsed();
    let reader_walls: Vec<Duration> = handles
        .into_iter()
        .map(|h| h.join().expect("reader thread panicked"))
        .collect();
    let max_reader_wall = reader_walls.iter().copied().max().unwrap_or(Duration::ZERO);

    drop(snaps);
    drop(published);
    if let Err(e) = g.validate_structure() {
        panic!("structure invalid after mixed/{dataset}/bs={bs}: {e}");
    }

    // Final sample, taken after every snapshot has dropped.
    sampler
        .tick(&[
            ("writer_eps", 0.0),
            ("reader_p99_ns", lat.reader.snapshot().p99() as f64),
        ])
        .expect("metrics tick failed");

    let ss = g.struct_stats().expect("struct stats");
    let writer_edges = (ins_edges + del_edges) as u64;
    let reader_ops = (MIXED_READERS * ops_per_reader) as u64;
    EngineReport {
        engine: "LSGraph+Snapshots".to_string(),
        dataset: dataset.to_string(),
        batch_size: bs,
        insert_eps: ins_edges as f64 / ins.as_secs_f64().max(1e-12),
        delete_eps: del_edges as f64 / del.as_secs_f64().max(1e-12),
        insert_nanos: ins.as_nanos() as u64,
        delete_nanos: del.as_nanos() as u64,
        struct_stats: Some(ss),
        footprint: Some(measure_footprint(&g)),
        latency: g.latency_stats(),
        mixed: Some(crate::report::MixedReport {
            writer_batches: rounds as u64,
            writer_edges,
            writer_eps: writer_edges as f64 / writer_d.as_secs_f64().max(1e-12),
            reader_threads: MIXED_READERS as u64,
            reader_ops,
            reader_ops_per_sec: reader_ops as f64 / max_reader_wall.as_secs_f64().max(1e-12),
            snapshots_taken: ss.snapshots_taken,
            cow_block_copies: ss.cow_block_copies,
        }),
        ..EngineReport::default()
    }
}

/// Mixed experiment: concurrent analytics-style reads over
/// snapshots while the writer streams updates, across batch sizes on OR.
pub fn mixed_report(scale: &Scale) -> BenchReport {
    let p = DatasetProfile::by_name("OR").expect("profile exists");
    let shift = shift_for(&p, scale);
    let gscale = p.log_vertices - shift;
    let n = p.scaled_vertices(shift);
    let base = p.generate(shift, 42);
    if lsgraph_api::is_metrics_streaming() {
        // Deterministic sample budget: (rounds + 1 quiescence tick) per
        // cell. `repro check --metrics` asserts the file hits it exactly.
        let rounds = 8 * scale.trials.max(1) as u64;
        let expected = scale.batch_sizes().len() as u64 * (rounds + 1);
        lsgraph_api::write_metrics_header("mixed", expected).expect("metrics header failed");
    }
    let engines = scale
        .batch_sizes()
        .into_iter()
        .map(|bs| mixed_cell(p.name, n, &base, gscale, shift, bs, scale.trials))
        .collect();
    BenchReport {
        schema_version: SCHEMA_VERSION,
        experiment: "mixed".to_string(),
        base: scale.base,
        shift: scale.shift,
        trials: scale.trials,
        engines,
    }
}

/// Mixed experiment, human-readable table: writer and reader throughput
/// plus reader latency percentiles under write load.
pub fn mixed(scale: &Scale) {
    println!("# mixed: snapshot readers under write load (OR, {MIXED_READERS} readers)");
    println!(
        "{:>10}{:>14}{:>14}{:>10}{:>10}{:>10}{:>10}",
        "batch", "writer-eps", "reader-ops/s", "p50-ns", "p90-ns", "p99-ns", "cow"
    );
    let r = mixed_report(scale);
    for e in &r.engines {
        let m = e.mixed.as_ref().expect("mixed cell");
        let reader = e.latency.as_ref().map(|l| l.reader).unwrap_or_default();
        println!(
            "{:>10}{:>14}{:>14}{:>10}{:>10}{:>10}{:>10}",
            e.batch_size,
            format!("{:.2e}", m.writer_eps),
            format!("{:.2e}", m.reader_ops_per_sec),
            reader.p50(),
            reader.p90(),
            reader.p99(),
            m.cow_block_copies,
        );
    }
}

/// Number of standing subscriptions registered in the `standing` experiment
/// (one per query kind, with k-hop and membership sharing the source).
const STANDING_SUBS: usize = 4;

/// Window size (in batches) of the windowed standing queries.
const STANDING_WINDOW: usize = 4;

/// Measures one standing-query cell at batch size `bs`: four subscriptions
/// (2-hop neighborhood, windowed edge count, windowed triangle count,
/// component membership) are registered through a [`SubscriptionHub`], then
/// the writer streams `rounds` symmetric update batches (a delete round
/// every third). After each batch the cell times two paths over the *same*
/// graph state:
///
/// * **delivery** — `hub.quiesce()`: the worker applies the batch to every
///   incremental maintainer and emits the per-subscription [`ResultDelta`];
/// * **recompute** — the four from-scratch oracles (fresh BFS, fresh label
///   propagation, window rescans).
///
/// Each subscription's materialized result is asserted equal to its oracle
/// every round, so the reported speedup is over a verified-identical
/// answer. Counters stay deterministic: exactly one snapshot per batch
/// (taken by the hook) and `STANDING_SUBS` deltas per batch.
fn standing_cell(
    dataset: &str,
    n: usize,
    base: &[Edge],
    gscale: u32,
    shift: u32,
    bs: usize,
    trials: usize,
) -> EngineReport {
    use lsgraph_core::BatchKind;
    use lsgraph_queries::{BatchWindow, StandingQuery, SubscriptionHub};

    let rounds = 8 * trials.max(1);
    let cfg = crate::runner::scaled_config(shift);
    let mut g = LsGraph::from_edges(n, base, cfg);
    g.reset_instrumentation();

    let src = max_degree_vertex(&g);
    let queries = [
        StandingQuery::KHop { src, k: 2 },
        StandingQuery::WindowedEdgeCount {
            window: STANDING_WINDOW,
        },
        StandingQuery::WindowedTriangleCount {
            window: STANDING_WINDOW,
        },
        StandingQuery::ComponentMembership { src },
    ];
    assert_eq!(queries.len(), STANDING_SUBS);

    let hub = SubscriptionHub::attach(&mut g);
    let subs: Vec<_> = queries.iter().map(|&q| hub.subscribe(&g, q)).collect();

    // Mirror of the registry's sliding window, fed the same batches, so the
    // windowed oracles see the same history the maintainers do.
    let mut oracle_window = BatchWindow::new(STANDING_WINDOW);

    let mut ins = Duration::ZERO;
    let mut del = Duration::ZERO;
    let mut ins_edges = 0usize;
    let mut del_edges = 0usize;
    let mut delivery = Duration::ZERO;
    let mut recompute = Duration::ZERO;
    for t in 0..rounds {
        // Symmetric batches: membership is maintained as reachability from
        // the anchor, which is the component only on a symmetric graph.
        let batch = sym(&update_batch(gscale, bs, 1_000 + t as u64));
        let kind = if t % 3 == 2 {
            del_edges += batch.len();
            let (_, d) = time(|| g.delete_batch(&batch));
            del += d;
            BatchKind::Delete
        } else {
            ins_edges += batch.len();
            let (_, d) = time(|| g.insert_batch(&batch));
            ins += d;
            BatchKind::Insert
        };
        oracle_window.push(g.batch_seq(), kind, &batch);

        // Incremental path: the worker delivers this batch to all four
        // maintainers and applies the deltas they return.
        let (_, d) = time(|| hub.quiesce());
        delivery += d;

        // From-scratch path: the full kernels on the same state.
        let (fresh, d) = time(|| {
            queries
                .iter()
                .map(|q| q.oracle(&g, &oracle_window))
                .collect::<Vec<_>>()
        });
        recompute += d;
        for ((sub, want), q) in subs.iter().zip(&fresh).zip(&queries) {
            let got = sub.result();
            if &got != want {
                let missing: Vec<_> = want
                    .iter()
                    .filter(|(k, v)| got.get(k) != Some(v))
                    .take(8)
                    .collect();
                let extra: Vec<_> = got
                    .iter()
                    .filter(|(k, v)| want.get(k) != Some(v))
                    .take(8)
                    .collect();
                panic!(
                    "standing/{dataset}/bs={bs}: {q:?} diverged from oracle at batch {t}: got {} entries want {}; missing(first8)={missing:?} extra(first8)={extra:?}",
                    got.len(), want.len()
                );
            }
        }
    }

    hub.quiesce();
    if let Err(e) = g.validate_structure() {
        panic!("structure invalid after standing/{dataset}/bs={bs}: {e}");
    }

    // Sampled while all four handles are live: the gauge must read 4.
    let ss = g.struct_stats().expect("struct stats");
    assert_eq!(ss.subscriptions_active, STANDING_SUBS as u64);
    assert_eq!(
        ss.deltas_delivered,
        (STANDING_SUBS * rounds) as u64,
        "standing/{dataset}/bs={bs}: every batch reaches every subscription"
    );
    assert_eq!(ss.subscription_panics, 0);

    let footprint = measure_footprint(&g);
    let latency = g.latency_stats();
    drop(subs);
    hub.shutdown();

    EngineReport {
        engine: "LSGraph+Standing".to_string(),
        dataset: dataset.to_string(),
        batch_size: bs,
        insert_eps: ins_edges as f64 / ins.as_secs_f64().max(1e-12),
        delete_eps: del_edges as f64 / del.as_secs_f64().max(1e-12),
        insert_nanos: ins.as_nanos() as u64,
        delete_nanos: del.as_nanos() as u64,
        struct_stats: Some(ss),
        footprint: Some(footprint),
        latency,
        standing: Some(crate::report::StandingReport {
            subscriptions: STANDING_SUBS as u64,
            batches: rounds as u64,
            deltas_delivered: ss.deltas_delivered,
            delta_entries: ss.delta_entries_emitted,
            delivery_nanos: delivery.as_nanos() as u64,
            recompute_nanos: recompute.as_nanos() as u64,
            speedup: recompute.as_secs_f64() / delivery.as_secs_f64().max(1e-12),
            subscription_panics: ss.subscription_panics,
        }),
        ..EngineReport::default()
    }
}

/// Standing-query experiment: per-batch incremental delta
/// delivery vs from-scratch recomputation for four standing subscriptions,
/// across batch sizes on OR. Every delivered result is asserted equal to
/// the from-scratch oracle before it is timed into the report.
pub fn standing_report(scale: &Scale) -> BenchReport {
    let p = DatasetProfile::by_name("OR").expect("profile exists");
    let shift = shift_for(&p, scale);
    let gscale = p.log_vertices - shift;
    let n = p.scaled_vertices(shift);
    // Symmetrized like every analytics experiment: the BFS/CC kernels (and
    // the dense edge_map direction) assume an undirected graph, and the
    // streamed batches are symmetrized too, so symmetry is an invariant.
    let base = sym(&p.generate(shift, 42));
    let engines = scale
        .batch_sizes()
        .into_iter()
        .map(|bs| standing_cell(p.name, n, &base, gscale, shift, bs, scale.trials))
        .collect();
    BenchReport {
        schema_version: SCHEMA_VERSION,
        experiment: "standing".to_string(),
        base: scale.base,
        shift: scale.shift,
        trials: scale.trials,
        engines,
    }
}

/// Standing-query experiment, human-readable table: delta volume and the
/// delivery-vs-recompute speedup per batch size.
pub fn standing(scale: &Scale) {
    println!(
        "# standing: incremental delta delivery vs full recomputation (OR, {STANDING_SUBS} subscriptions, window={STANDING_WINDOW})"
    );
    println!(
        "{:>10}{:>10}{:>12}{:>14}{:>14}{:>10}{:>10}",
        "batch", "deltas", "entries", "deliver-ms", "recomp-ms", "speedup", "panics"
    );
    let r = standing_report(scale);
    for e in &r.engines {
        let s = e.standing.as_ref().expect("standing cell");
        println!(
            "{:>10}{:>10}{:>12}{:>14.2}{:>14.2}{:>10}{:>10}",
            e.batch_size,
            s.deltas_delivered,
            s.delta_entries,
            s.delivery_nanos as f64 / 1e6,
            s.recompute_nanos as f64 / 1e6,
            format!("{:.1}x", s.speedup),
            s.subscription_panics,
        );
    }
}

/// Artifact-evaluation style correctness pass: every engine must agree with
/// a CSR oracle on reads and analytics at the configured scale.
pub fn verify(scale: &Scale) {
    println!(
        "# verify: cross-engine agreement at base 2^{}",
        scale.graph_scale()
    );
    let p = DatasetProfile::by_name("LJ").expect("profile exists");
    let shift = shift_for(&p, scale);
    let n = p.scaled_vertices(shift);
    let base = sym(&p.generate(shift, 42));
    let oracle = lsgraph_gen::Csr::from_edges(n, &base);
    let built: Vec<(EngineKind, Box<dyn crate::Engine>)> = engines()
        .iter()
        .map(|&k| (k, build_engine(k, n, &base)))
        .collect();
    let src = max_degree_vertex(&oracle);
    let want_dist = {
        let par = lsgraph_analytics::bfs(&oracle, src);
        lsgraph_analytics::distances_from_parents(&oracle, src, &par)
    };
    let want_cc = lsgraph_analytics::connected_components(&oracle);
    let want_tc = lsgraph_analytics::triangle_count(&oracle).triangles;
    let mut ok = true;
    for (k, g) in &built {
        let mut fails = Vec::new();
        for v in (0..n as u32).step_by(97) {
            if g.neighbors(v) != oracle.neighbors_slice(v) {
                fails.push("neighbors");
                break;
            }
        }
        let par = lsgraph_analytics::bfs(g.as_ref(), src);
        if lsgraph_analytics::distances_from_parents(g.as_ref(), src, &par) != want_dist {
            fails.push("bfs");
        }
        if lsgraph_analytics::connected_components(g.as_ref()) != want_cc {
            fails.push("cc");
        }
        if lsgraph_analytics::triangle_count(g.as_ref()).triangles != want_tc {
            fails.push("tc");
        }
        if fails.is_empty() {
            println!("{:>10}: PASS", k.name());
        } else {
            ok = false;
            println!("{:>10}: FAIL ({})", k.name(), fails.join(", "));
        }
    }
    assert!(ok, "verification failed");
}

/// Front deletes (ROADMAP item 12): one hub of 50 000 ids at the default
/// `Config` deletes its smallest `k` ids or its largest `k`, as one batch
/// and in 256-edge batches, for k = 5 000 / 10 000 / 20 000. A sliding
/// window expiring a hub's oldest neighbours deletes the smallest ids
/// first; the refill that keeps the inline line holding the smallest ids
/// must not make that the slow end. Fixed size; the best of `trials`
/// fresh hubs per cell.
pub fn frontdel(scale: &Scale) {
    const HUB: u32 = 50_000;
    println!("# front deletes: one hub of {HUB} ids, ns per deleted edge");
    println!(
        "{:>8}{:>8}{:>12}{:>12}{:>10}",
        "k", "batch", "smallest", "largest", "ratio"
    );
    let hub: Vec<Edge> = (0..HUB).map(|u| Edge::new(0, u)).collect();
    let cell = |ids: std::ops::Range<u32>, batch: usize| {
        let doomed: Vec<Edge> = ids.map(|u| Edge::new(0, u)).collect();
        (0..scale.trials.max(1))
            .map(|_| {
                let mut g = LsGraph::from_edges(1, &hub, Config::default());
                let (_, d) = time(|| {
                    for b in doomed.chunks(batch) {
                        g.delete_batch(b);
                    }
                });
                assert_eq!(g.degree(0), hub.len() - doomed.len());
                d.as_nanos() as f64 / doomed.len() as f64
            })
            .fold(f64::MAX, f64::min)
    };
    for k in [5_000, 10_000, 20_000] {
        for batch in [k as usize, 256] {
            let small = cell(0..k, batch);
            let large = cell(HUB - k..HUB, batch);
            println!(
                "{k:>8}{batch:>8}{small:>12.1}{large:>12.1}{:>10.2}",
                small / large
            );
        }
    }
}

/// One `repro` experiment: the function printing its table, and the
/// report that `--json` writes and `check --baseline` re-runs, if it has one.
pub struct Experiment {
    /// The subcommand name, also the `experiment` field of its report.
    pub id: &'static str,
    /// Prints its text table.
    pub print: fn(&Scale),
    /// Its machine-readable report, for `--json` and `check --baseline`.
    pub report: Option<fn(&Scale) -> BenchReport>,
    /// Whether `repro all` runs it.
    pub in_all: bool,
}

const fn exp(
    id: &'static str,
    print: fn(&Scale),
    report: Option<fn(&Scale) -> BenchReport>,
    in_all: bool,
) -> Experiment {
    Experiment {
        id,
        print,
        report,
        in_all,
    }
}

/// Every `repro` experiment, in paper order.
pub const EXPERIMENTS: &[Experiment] = &[
    exp("fig3", fig3, None, true),
    exp("fig4", fig4, None, true),
    exp("fig12", fig12, Some(fig12_report), true),
    exp("small", small_batches, Some(small_batches_report), true),
    exp("ablation", ablation, None, true),
    exp("fig13", fig13, Some(fig13_report), true),
    exp("table2", table2, None, true),
    exp("table3", table3, None, true),
    exp("fig14", fig14, None, true),
    exp("fig15", fig15, None, true),
    exp("fig16", fig16, None, true),
    exp("fig17", fig17, None, true),
    exp("table4", table4, None, true),
    exp("sortledton", sortledton, None, true),
    exp("g500", g500, None, true),
    exp("durability", durability, Some(durability_report), false),
    exp("mixed", mixed, Some(mixed_report), false),
    exp("standing", standing, Some(standing_report), false),
    exp("verify", verify, None, false),
    exp("frontdel", frontdel, None, false),
];

/// The experiment named `id`.
pub fn experiment(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// Runs every experiment marked `in_all`, in paper order.
pub fn all(scale: &Scale) {
    for (i, e) in EXPERIMENTS.iter().filter(|e| e.in_all).enumerate() {
        if i > 0 {
            println!();
        }
        (e.print)(scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_table3() {
        // Exercises every engine build + footprint on a small graph.
        table3(&Scale::tiny());
    }

    #[test]
    fn smoke_small_batches() {
        small_batches(&Scale::tiny());
    }

    /// DESIGN.md's experiment index lists exactly the `repro` experiments,
    /// in table order.
    #[test]
    fn design_index_names_every_experiment() {
        let design = include_str!("../../../DESIGN.md");
        let index = design
            .split("## Experiment index")
            .nth(1)
            .expect("DESIGN.md has an experiment index");
        let index = index.split("\n## ").next().unwrap_or(index);
        let rows: Vec<&str> = index
            .lines()
            .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
            .collect();
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        assert_eq!(rows, ids);
    }

    #[test]
    fn smoke_durability() {
        let r = durability_report(&Scale::tiny());
        assert!(!r.engines.is_empty());
        let mut rotating_cells = 0;
        for e in &r.engines {
            let d = e.durability.as_ref().expect("durability payload");
            assert!(d.wal_frames > 0);
            assert!(d.checkpoint_bytes > 0);
            let ss = e.struct_stats.expect("struct stats");
            assert_eq!(ss.recovery_frames_discarded, 0);
            assert_eq!(ss.recovery_images_discarded, 0);
            assert_eq!(ss.recovery_frames_replayed, d.replay_frames);
            if e.engine.ends_with("/rotating") {
                rotating_cells += 1;
                // The rotating cell replays a fixed 2-frame tail and must
                // have exercised rotation, retention, and delta images.
                assert_eq!(d.replay_frames, 2);
                assert!(d.wal_segments_rotated > 0);
                assert!(d.wal_segments_deleted > 0);
                assert!(d.delta_checkpoints_written >= 2);
                assert!(d.checkpoint_dirty_vertices > 0);
                assert!(d.wal_live_bytes < d.wal_bytes, "live WAL unbounded");
            } else {
                assert_eq!(d.replay_frames, Scale::tiny().trials as u64);
            }
        }
        assert_eq!(rotating_cells, 1, "exactly one rotating cell rides along");
        // The report round-trips through JSON.
        let back = crate::report::BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn smoke_mixed() {
        let scale = Scale::tiny();
        let r = mixed_report(&scale);
        assert!(!r.engines.is_empty());
        let rounds = 8 * scale.trials.max(1) as u64;
        for e in &r.engines {
            let m = e.mixed.as_ref().expect("mixed payload");
            assert_eq!(m.writer_batches, rounds);
            assert_eq!(m.reader_threads, MIXED_READERS as u64);
            // Fixed ops per reader: the histogram count is deterministic.
            assert_eq!(m.reader_ops, MIXED_READERS as u64 * 64 * rounds);
            let lat = e.latency.as_ref().expect("latency");
            assert_eq!(lat.reader.count(), m.reader_ops);
            assert_eq!(lat.batch_apply.count(), rounds);
            // One seed flip before the stream plus one per batch, all
            // retired by the end-of-cell quiescence.
            let ss = e.struct_stats.expect("struct stats");
            assert_eq!(ss.snapshots_taken, rounds + 1);
            assert_eq!(ss.snapshots_retired, ss.snapshots_taken);
            assert!(ss.cow_block_copies > 0);
        }
        // The report round-trips through JSON, and a
        // self-comparison under the regression gate is clean.
        let back = crate::report::BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        let v = crate::check::compare(&r, &back, crate::check::CheckOptions::default());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn smoke_standing() {
        let scale = Scale::tiny();
        let r = standing_report(&scale);
        assert!(!r.engines.is_empty());
        let rounds = 8 * scale.trials.max(1) as u64;
        for e in &r.engines {
            // standing_cell itself asserts every delivered result equals the
            // from-scratch oracle; here we pin the deterministic volumes.
            let s = e.standing.as_ref().expect("standing payload");
            assert_eq!(s.subscriptions, STANDING_SUBS as u64);
            assert_eq!(s.batches, rounds);
            assert_eq!(s.deltas_delivered, STANDING_SUBS as u64 * rounds);
            assert!(s.delta_entries > 0, "deltas must carry entries");
            assert_eq!(s.subscription_panics, 0);
            let ss = e.struct_stats.expect("struct stats");
            assert_eq!(ss.subscriptions_active, STANDING_SUBS as u64);
            // Exactly one snapshot per batch (taken by the hook), all
            // retired by the end-of-cell quiescence.
            assert_eq!(ss.snapshots_taken, rounds);
            assert_eq!(ss.snapshots_retired, rounds);
        }
        // Round-trips through JSON and self-compares clean
        // under the regression gate.
        let back = crate::report::BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        let v = crate::check::compare(&r, &back, crate::check::CheckOptions::default());
        assert!(v.is_empty(), "{v:?}");
    }
}
