//! Criterion micro-benchmarks of the single structures behind the figures:
//! RIA vs PMA vs B-tree insert/search/scan, learned vs binary LIA search,
//! LR vs PLR model cost (§3.2), HITree bulk-load.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

use lsgraph_api::StructStats;
use lsgraph_btree::BTreeSet32;
use lsgraph_core::model::{LinearModel, PlrModel, PositionModel};
use lsgraph_core::{Config, LiaSearch, Ria, Spill};
use lsgraph_pma::{Pma, PmaParams};

fn keys(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut v: Vec<u32> = (0..n).map(|_| rng.gen_range(0..n as u32 * 8)).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Random inserts into each ordered-set structure (the Fig. 12 microcosm).
fn bench_inserts(c: &mut Criterion) {
    let n = 50_000;
    let base = keys(n, 1);
    let extra: Vec<u32> = {
        let mut rng = SmallRng::seed_from_u64(2);
        (0..10_000)
            .map(|_| rng.gen_range(0..n as u32 * 8))
            .collect()
    };
    let stats = StructStats::new();
    let mut g = c.benchmark_group("insert_10k_into_50k");
    g.throughput(Throughput::Elements(extra.len() as u64));
    g.bench_function("ria", |b| {
        b.iter_batched(
            || Ria::from_sorted(&base, 1.2),
            |mut r| {
                for &k in &extra {
                    black_box(r.insert(k, &stats));
                }
            },
            criterion::BatchSize::LargeInput,
        )
    });
    g.bench_function("pma", |b| {
        b.iter_batched(
            || Pma::<u32>::from_sorted(&base, PmaParams::dense()),
            |mut p| {
                for &k in &extra {
                    black_box(p.insert(k));
                }
            },
            criterion::BatchSize::LargeInput,
        )
    });
    g.bench_function("btree", |b| {
        b.iter_batched(
            || BTreeSet32::from_sorted(&base),
            |mut t| {
                for &k in &extra {
                    black_box(t.insert(k));
                }
            },
            criterion::BatchSize::LargeInput,
        )
    });
    g.bench_function("hitree", |b| {
        let cfg = Config::default();
        b.iter_batched(
            || Spill::from_sorted(&base, &cfg),
            |mut t| {
                for &k in &extra {
                    black_box(t.insert(k, &cfg, &stats));
                }
            },
            criterion::BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// Membership probes: RIA's indexed search vs PMA's gapped binary search.
fn bench_search(c: &mut Criterion) {
    let n = 100_000;
    let base = keys(n, 3);
    let probes: Vec<u32> = {
        let mut rng = SmallRng::seed_from_u64(4);
        (0..1_000).map(|_| rng.gen_range(0..n as u32 * 8)).collect()
    };
    let ria = Ria::from_sorted(&base, 1.2);
    let pma = Pma::<u32>::from_sorted(&base, PmaParams::dense());
    let bt = BTreeSet32::from_sorted(&base);
    let cfg = Config::default();
    let cfg_bin = Config {
        lia_search: LiaSearch::Binary,
        ..Config::default()
    };
    let tree = Spill::from_sorted(&base, &cfg);
    let mut g = c.benchmark_group("search_1k_in_100k");
    g.throughput(Throughput::Elements(probes.len() as u64));
    g.bench_function("ria", |b| {
        b.iter(|| probes.iter().filter(|&&k| ria.contains(k)).count())
    });
    g.bench_function("pma", |b| {
        b.iter(|| probes.iter().filter(|&&k| pma.contains(k)).count())
    });
    g.bench_function("btree", |b| {
        b.iter(|| probes.iter().filter(|&&k| bt.contains(k)).count())
    });
    g.bench_function("hitree_learned", |b| {
        b.iter(|| probes.iter().filter(|&&k| tree.contains(k, &cfg)).count())
    });
    g.bench_function("hitree_binary", |b| {
        b.iter(|| {
            probes
                .iter()
                .filter(|&&k| tree.contains(k, &cfg_bin))
                .count()
        })
    });
    g.finish();
}

/// Sums the ids a slice walk hands over.
fn scan_sum(walk: impl FnOnce(&mut dyn FnMut(&[u32]) -> bool) -> bool) -> u64 {
    let mut s = 0u64;
    walk(&mut |xs| {
        s += xs.iter().map(|&x| x as u64).sum::<u64>();
        true
    });
    s
}

/// Full scans, each structure walked in its own unit: the traversal
/// locality behind Fig. 13 / Table 2.
fn bench_scan(c: &mut Criterion) {
    let n = 200_000;
    let base = keys(n, 5);
    let ria = Ria::from_sorted(&base, 1.2);
    let pma = Pma::<u32>::from_sorted(&base, PmaParams::default());
    let bt = BTreeSet32::from_sorted(&base);
    let cfg = Config::default();
    let tree = Spill::from_sorted(&base, &cfg);
    let mut g = c.benchmark_group("scan_200k");
    g.throughput(Throughput::Elements(base.len() as u64));
    g.bench_function("ria", |b| {
        b.iter(|| scan_sum(|f| ria.for_each_slice_while(f)))
    });
    g.bench_function("pma", |b| {
        b.iter(|| scan_sum(|f| pma.for_each_segment_while(f)))
    });
    g.bench_function("btree", |b| {
        b.iter(|| scan_sum(|f| bt.for_each_slice_while(f)))
    });
    g.bench_function("hitree", |b| {
        b.iter(|| scan_sum(|f| tree.for_each_slice_while(f)))
    });
    g.finish();
}

/// LR vs PLR training and prediction cost (the §3.2 trade-off).
fn bench_models(c: &mut Criterion) {
    let base = keys(100_000, 7);
    let mut g = c.benchmark_group("model_cost");
    g.bench_function("lr_train", |b| {
        b.iter(|| LinearModel::fit(black_box(&base), base.len() * 2))
    });
    g.bench_function("plr_train", |b| {
        b.iter(|| PlrModel::fit(black_box(&base), base.len() * 2, 16))
    });
    let lr = LinearModel::fit(&base, base.len() * 2);
    let plr = PlrModel::fit(&base, base.len() * 2, 16);
    g.bench_function("lr_predict", |b| {
        b.iter(|| base.iter().map(|&k| lr.predict(k)).sum::<usize>())
    });
    g.bench_function("plr_predict", |b| {
        b.iter(|| base.iter().map(|&k| plr.predict(k)).sum::<usize>())
    });
    g.finish();
}

/// HITree bulk-load cost (Algorithm 1).
fn bench_bulkload(c: &mut Criterion) {
    let cfg = Config::default();
    let mut g = c.benchmark_group("bulkload");
    for n in [10_000usize, 100_000] {
        let base = keys(n, 9);
        g.throughput(Throughput::Elements(base.len() as u64));
        g.bench_with_input(BenchmarkId::new("hitree", n), &base, |b, base| {
            b.iter(|| Spill::from_sorted(black_box(base), &cfg))
        });
        g.bench_with_input(BenchmarkId::new("ria", n), &base, |b, base| {
            b.iter(|| Ria::from_sorted(black_box(base), 1.2))
        });
    }
    g.finish();
}

/// Triangle counting on a live LSGraph (the GPM set-computation pattern,
/// Table 2's workload).
fn bench_tc(c: &mut Criterion) {
    use lsgraph_api::Edge;
    use lsgraph_core::LsGraph;
    let scale = 12u32;
    let edges: Vec<Edge> = lsgraph_gen::rmat(scale, 60_000, lsgraph_gen::RmatParams::paper(), 3)
        .iter()
        .flat_map(|e| [*e, e.reversed()])
        .collect();
    let g = LsGraph::from_edges(1 << scale, &edges, Config::default());
    let mut grp = c.benchmark_group("triangle_count");
    grp.bench_function("materialized", |b| {
        b.iter(|| lsgraph_analytics::triangle_count(&g).triangles)
    });
    grp.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_inserts, bench_search, bench_scan, bench_models, bench_bulkload, bench_tc
}
criterion_main!(benches);
