//! Two same-seed report runs must agree on every deterministic field.
//!
//! The batch streams are seeded and the engines partition batch application
//! into disjoint per-source runs, so every counter increment happens exactly
//! once regardless of thread schedule; only the `*_nanos` timing fields may
//! differ between runs. This is what makes `BENCH_*.json` trajectories
//! comparable across commits.

use lsgraph_bench::{small_batches_report, Scale};

#[test]
fn same_seed_runs_reproduce_counters_exactly() {
    let scale = Scale::tiny();
    let a = small_batches_report(&scale);
    let b = small_batches_report(&scale);
    assert_eq!(a.engines.len(), b.engines.len());
    for (x, y) in a.engines.iter().zip(&b.engines) {
        assert_eq!(x.engine, y.engine);
        assert_eq!(x.dataset, y.dataset);
        assert_eq!(x.batch_size, y.batch_size);
        match (&x.counters, &y.counters) {
            (Some(cx), Some(cy)) => {
                assert_eq!(
                    cx.deterministic_fields(),
                    cy.deterministic_fields(),
                    "op counters diverged for {}",
                    x.engine
                );
                assert!(cx.search_steps > 0, "{} recorded no searches", x.engine);
            }
            (None, None) => {}
            _ => panic!("counter presence diverged for {}", x.engine),
        }
        match (&x.struct_stats, &y.struct_stats) {
            (Some(sx), Some(sy)) => {
                assert_eq!(
                    sx.deterministic_fields(),
                    sy.deterministic_fields(),
                    "struct counters diverged for {}",
                    x.engine
                );
                assert!(sx.vb_inline_hits > 0, "{} saw no inline traffic", x.engine);
            }
            (None, None) => {}
            _ => panic!("struct-stat presence diverged for {}", x.engine),
        }
    }
    // Exactly one engine (LSGraph) reports structural counters.
    assert_eq!(
        a.engines
            .iter()
            .filter(|e| e.struct_stats.is_some())
            .count(),
        1
    );
}
