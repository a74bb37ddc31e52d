//! Deterministic fault injection for robustness testing.
//!
//! A *failpoint* is a named site in the engine where a fault (a panic) can
//! be injected on demand. Sites are compiled in only under the `failpoints`
//! feature; without it the [`fail_point!`](crate::fail_point) macro expands
//! to nothing, so production builds carry **zero** overhead — not even an
//! atomic load.
//!
//! Activation is deterministic so failures reproduce exactly:
//!
//! - [`FailMode::Nth`] fires on the n-th evaluation of the site (1-based)
//!   and never again until reconfigured — "fail the third RIA rebuild".
//! - [`FailMode::Probability`] fires pseudo-randomly with probability `p`,
//!   derived by hashing `(seed, hit index)` with a splitmix64 mix — the same
//!   seed always fires on the same hit indices, independent of thread
//!   interleaving *per site* (each site keeps its own hit counter, and
//!   LSGraph's disjoint-run pipeline evaluates each structural event exactly
//!   once).
//!
//! Configuration is **process-global** (sites are reached from deep inside
//! container code where threading a handle through would distort the very
//! code paths under test), so tests that configure failpoints must
//! serialize on a shared lock and call [`reset_failpoints`] when done.

use std::sync::Mutex;

/// The failpoint sites wired into the engine, in stable order.
///
/// | site | fires just before |
/// |------|-------------------|
/// | `ria_rebuild` | a RIA α-expansion / shrink / refill rebuild |
/// | `lia_retrain` | an LIA node retrains its linear model |
/// | `hitree_vertical` | an overflowing LIA block creates a child node |
/// | `tier_upgrade` | a spill container upgrades to the next tier |
/// | `apply_run` | a per-source run is applied by the batch pipeline |
/// | `wal_append` | a batch frame is appended to the write-ahead log |
/// | `wal_sync` | buffered WAL frames are flushed + fsynced |
/// | `checkpoint_write` | a checkpoint image is serialized to disk |
/// | `recovery_replay` | a WAL-tail frame is replayed during recovery |
/// | `snapshot_flip` | a read snapshot is counted as taken (mid-flip) |
/// | `metrics_sample` | a sampler tick snapshots the metrics registry |
/// | `wal_rotate` | the WAL seals a full segment and opens the next one |
/// | `segment_gc` | retention GC deletes superseded segments/images |
/// | `delta_checkpoint` | a delta image of the changed vertices is serialized to disk |
/// | `spill_downgrade` | a sparse spill container downgrades to a lower tier |
/// | `subscription_deliver` | a standing-query subscription evaluates its per-batch delta |
pub const FAILPOINT_SITES: [&str; 16] = [
    "ria_rebuild",
    "lia_retrain",
    "hitree_vertical",
    "tier_upgrade",
    "apply_run",
    "wal_append",
    "wal_sync",
    "checkpoint_write",
    "recovery_replay",
    "snapshot_flip",
    "metrics_sample",
    "wal_rotate",
    "segment_gc",
    "delta_checkpoint",
    "spill_downgrade",
    "subscription_deliver",
];

/// When a configured site fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FailMode {
    /// Never fire (the default for every site).
    Off,
    /// Fire on exactly the n-th evaluation (1-based) of the site.
    Nth(u64),
    /// Fire on each evaluation with probability `p`, deterministically
    /// derived from `seed` and the site's hit index.
    Probability {
        /// Firing probability in `[0, 1]`.
        p: f64,
        /// Seed mixed into every per-hit decision.
        seed: u64,
    },
}

#[derive(Clone, Copy, Debug)]
struct SiteState {
    mode: FailMode,
    /// Evaluations of this site since the last [`reset_failpoints`] or
    /// [`configure_failpoint`].
    hits: u64,
    /// Times this site actually fired.
    fired: u64,
}

const OFF: SiteState = SiteState {
    mode: FailMode::Off,
    hits: 0,
    fired: 0,
};

static REGISTRY: Mutex<[SiteState; FAILPOINT_SITES.len()]> =
    Mutex::new([OFF; FAILPOINT_SITES.len()]);

fn site_index(site: &str) -> usize {
    FAILPOINT_SITES
        .iter()
        .position(|&s| s == site)
        .unwrap_or_else(|| panic!("unknown failpoint site '{site}' (known: {FAILPOINT_SITES:?})"))
}

/// splitmix64 finalizer: a high-quality 64-bit mix.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Arms `site` with `mode`, resetting its hit and fired counters.
///
/// # Panics
///
/// Panics if `site` is not one of [`FAILPOINT_SITES`] (catches typos at the
/// test site rather than silently never firing).
pub fn configure_failpoint(site: &str, mode: FailMode) {
    let i = site_index(site);
    let mut reg = REGISTRY.lock().unwrap();
    reg[i] = SiteState {
        mode,
        hits: 0,
        fired: 0,
    };
}

/// Disarms every site and zeroes all counters.
pub fn reset_failpoints() {
    let mut reg = REGISTRY.lock().unwrap();
    *reg = [OFF; FAILPOINT_SITES.len()];
}

/// Times `site` actually fired since it was last configured/reset.
pub fn failpoint_fired(site: &str) -> u64 {
    REGISTRY.lock().unwrap()[site_index(site)].fired
}

/// Records one evaluation of `site` and decides whether it fires.
///
/// Called by the [`fail_point!`](crate::fail_point) macro; not meant to be
/// called directly outside of tests.
pub fn failpoint_should_fire(site: &str) -> bool {
    let i = site_index(site);
    let mut reg = REGISTRY.lock().unwrap();
    let s = &mut reg[i];
    s.hits += 1;
    let fire = match s.mode {
        FailMode::Off => false,
        FailMode::Nth(n) => s.hits == n,
        FailMode::Probability { p, seed } => {
            // 53 high bits give an unbiased uniform in [0, 1).
            let h = mix(seed ^ mix(s.hits));
            ((h >> 11) as f64) / ((1u64 << 53) as f64) < p
        }
    };
    if fire {
        s.fired += 1;
    }
    fire
}

/// Injects a fault (panics) at a named site if that site is armed.
///
/// Expands to nothing when the `failpoints` feature is off.
#[cfg(feature = "failpoints")]
#[macro_export]
macro_rules! fail_point {
    ($site:expr) => {
        if $crate::failpoint_should_fire($site) {
            panic!("failpoint '{}' fired", $site);
        }
    };
}

/// Injects a fault (panics) at a named site if that site is armed.
///
/// Expands to nothing when the `failpoints` feature is off.
#[cfg(not(feature = "failpoints"))]
#[macro_export]
macro_rules! fail_point {
    ($site:expr) => {};
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Failpoint state is process-global; serialize the tests touching it.
    static LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn off_by_default_and_after_reset() {
        let _g = locked();
        reset_failpoints();
        for site in FAILPOINT_SITES {
            assert!(!failpoint_should_fire(site), "{site} fired while off");
        }
        configure_failpoint("apply_run", FailMode::Nth(1));
        assert!(failpoint_should_fire("apply_run"));
        reset_failpoints();
        assert!(!failpoint_should_fire("apply_run"));
        reset_failpoints();
    }

    #[test]
    fn nth_fires_exactly_once_on_the_nth_hit() {
        let _g = locked();
        reset_failpoints();
        configure_failpoint("ria_rebuild", FailMode::Nth(3));
        let fires: Vec<bool> = (0..6)
            .map(|_| failpoint_should_fire("ria_rebuild"))
            .collect();
        assert_eq!(fires, [false, false, true, false, false, false]);
        assert_eq!(REGISTRY.lock().unwrap()[site_index("ria_rebuild")].hits, 6);
        assert_eq!(failpoint_fired("ria_rebuild"), 1);
        reset_failpoints();
    }

    #[test]
    fn probability_is_deterministic_per_seed_and_seed_sensitive() {
        let _g = locked();
        reset_failpoints();
        let run = |seed: u64| -> Vec<bool> {
            configure_failpoint("tier_upgrade", FailMode::Probability { p: 0.5, seed });
            (0..64)
                .map(|_| failpoint_should_fire("tier_upgrade"))
                .collect()
        };
        let a1 = run(42);
        let a2 = run(42);
        assert_eq!(a1, a2, "same seed must reproduce exactly");
        let b = run(43);
        assert_ne!(a1, b, "different seeds should differ on 64 draws");
        let fired_n = a1.iter().filter(|&&f| f).count();
        assert!(
            (10..=54).contains(&fired_n),
            "p=0.5 over 64 draws fired {fired_n} times"
        );
        reset_failpoints();
    }

    #[test]
    fn probability_extremes() {
        let _g = locked();
        reset_failpoints();
        configure_failpoint("lia_retrain", FailMode::Probability { p: 0.0, seed: 7 });
        assert!((0..100).all(|_| !failpoint_should_fire("lia_retrain")));
        configure_failpoint("lia_retrain", FailMode::Probability { p: 1.0, seed: 7 });
        assert!((0..100).all(|_| failpoint_should_fire("lia_retrain")));
        reset_failpoints();
    }

    #[test]
    #[should_panic(expected = "unknown failpoint site")]
    fn unknown_site_is_rejected() {
        configure_failpoint("no_such_site", FailMode::Nth(1));
    }

    #[test]
    fn sites_are_distinct_and_independent() {
        let _g = locked();
        reset_failpoints();
        configure_failpoint("apply_run", FailMode::Nth(1));
        assert!(!failpoint_should_fire("hitree_vertical"));
        assert!(failpoint_should_fire("apply_run"));
        reset_failpoints();
    }
}
