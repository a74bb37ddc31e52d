//! Instrumentation counters for the motivation experiments (paper Fig. 4)
//! and the structural observability layer.
//!
//! Two families live here, each declared **once** as a table of
//! `name: Kind, Gate, "layer", "unit"` rows that
//! [`metric_family!`](crate::metric) expands into the atomics struct, its
//! snapshot, the snapshot arithmetic and the [`MetricDesc`](crate::MetricDesc)
//! list that the metrics registry, `repro check` and the EXPERIMENTS.md
//! table read. Every row records itself (`stats.arr_shifts.record(n)`) by
//! its kind's rule, so adding a metric is one row; the only methods here
//! are the recorders that do more than one row's arithmetic.
//!
//! - [`OpCounters`]: coarse per-structure search/movement totals, used by the
//!   PMA-based baselines to regenerate Fig. 4.
//! - [`StructStats`]: per-container-class counters for LSGraph's own
//!   structures — vertex blocks, the sorted-array spill tier, the RIA, and
//!   the HITree/LIA — plus wall-clock phase timers for the batch-update
//!   pipeline (sort / group / apply). These make the paper's §4
//!   bounded-movement claims checkable: every horizontal ripple records its
//!   span against the `log2(num_blocks)` bound, and every vertical
//!   (child-creating) move records whether a block overflow preceded it.
//!
//! All rows are updated with `Ordering::Relaxed`: they are statistics,
//! not synchronization. Because LSGraph partitions a batch into disjoint
//! per-source runs, each structural event happens exactly once regardless of
//! thread interleaving, so counters and max-gauges are deterministic across
//! runs and thread counts; timers and last-writer-wins gauges are not. The
//! batch pipeline's parallel tasks each record into a family of their own,
//! which the engine's absorbs once per task (`absorb`: a sum or a max per
//! row), so the totals do not depend on how the runs were split.

use std::time::Instant;

use crate::metric::{metric_family, Timer};
use crate::trace;

metric_family! {
    /// Cheap relaxed-atomic counters shared by instrumented structures.
    ///
    /// Counters are updated with `Ordering::Relaxed`: they are statistics, not
    /// synchronization, and relaxed increments keep the instrumented fast paths
    /// honest.
    OpCounters,
    /// Point-in-time copy of [`OpCounters`].
    CounterSnapshot;

    /// Element comparisons performed while locating insert/delete positions.
    search_steps: Counter, None, "baselines", "comparisons";
    /// Elements moved to resolve position conflicts or rebalance.
    elements_moved: Counter, None, "baselines", "elements";
    /// Nanoseconds spent in search phases (single-threaded runs only).
    search_nanos: Timer, None, "baselines", "ns";
    /// Nanoseconds spent moving data (single-threaded runs only).
    move_nanos: Timer, None, "baselines", "ns";
    /// Number of whole-structure rebuilds / array expansions.
    rebuilds: Counter, None, "baselines", "events";
}

/// Pipeline phase attributed by a [`PhaseTimer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Batch key sort + dedup.
    Sort,
    /// Grouping sorted keys into per-source runs.
    Group,
    /// Applying runs to the per-vertex structures.
    Apply,
}

metric_family! {
    /// Structure-level counters for LSGraph's container classes.
    ///
    /// Field groups mirror the paper's structures: `vb_*` for the 64-byte vertex
    /// blocks (§4.1), `arr_*`/`tier_*` for the sorted-array spill tier and its
    /// tier transitions, `ria_*` for the Redundant Indexed Array (§3.1/§4.2),
    /// `lia_*`/`hitree_*` for the Learned Index Array and HITree (§4.3), and
    /// `phase_*_nanos` for the batch pipeline. Every instance belongs to one
    /// engine or one experiment cell; there is no process-wide sink.
    StructStats,
    /// Point-in-time copy of [`StructStats`].
    StructSnapshot;

    /// Inserts satisfied entirely inside a vertex block's inline array.
    vb_inline_hits: Counter, None, "core", "inserts";
    /// Elements shifted within inline arrays to make room.
    vb_inline_shifts: Counter, None, "core", "elements";
    /// Inline maxima evicted into a spill structure by an inline insert.
    vb_spill_evictions: Counter, None, "core", "elements";
    /// Inserts routed directly to a vertex block's spill structure.
    vb_spill_inserts: Counter, None, "core", "inserts";
    /// Spill minima pulled back inline after an inline delete.
    vb_spill_refills: Counter, None, "core", "elements";

    /// Elements shifted inside sorted arrays (`Spill::Array`, behind a vertex
    /// block or inside a HITree).
    arr_shifts: Counter, None, "core", "elements";
    /// Kind changes up the ladder of the container behind a vertex block
    /// (Array → RIA/PMA, RIA/PMA → LIA).
    tier_upgrades: Counter, Drift, "core", "events";
    /// Kind changes down the ladder of the container behind a vertex block
    /// after heavy deletion.
    tier_downgrades: Counter, None, "core", "events";

    /// Elements shifted inside one RIA block (within-block horizontal move).
    ria_within_block_shifts: Counter, None, "core", "elements";
    /// Elements carried across RIA block boundaries by ripple inserts
    /// (cross-block horizontal move).
    ria_cross_block_moves: Counter, None, "core", "elements";
    /// Ripple-insert events (one per insert that crossed block boundaries).
    ria_ripples: Counter, Drift, "core", "events";
    /// Largest ripple span observed, in blocks (gauge, not a sum).
    ria_max_ripple_span: GaugeMax, None, "core", "blocks";
    /// Most recent `log2(num_blocks) + 1` locality bound in effect when a
    /// ripple was recorded (gauge, not a sum).
    ria_bound: GaugeLast, None, "core", "blocks";
    /// Ripples whose span exceeded the locality bound. The paper's §4.2
    /// movement bound says this must stay zero; tests assert it.
    ria_bound_exceeded: Counter, Invariant, "core", "events";
    /// RIA rebuild events (α-expansion, shrink, or delete-refill rebuild).
    ria_rebuilds: Counter, Drift, "core", "events";

    /// LIA within-block shifts while packing into a partially-filled block.
    lia_within_block_shifts: Counter, None, "core", "elements";
    /// Horizontal packing events: an overflowing LIA block re-packed in
    /// place because the merged contents still fit `BKS` slots.
    lia_horizontal_packs: Counter, None, "core", "events";
    /// Vertical movement events: an overflowing LIA block delegated to a
    /// newly created child node.
    lia_vertical_child_creates: Counter, None, "core", "events";
    /// Vertical moves NOT preceded by a block overflow. The paper's §4.3
    /// horizontal-then-vertical policy says this must stay zero; tests
    /// assert it.
    lia_vertical_premature: Counter, Invariant, "core", "events";
    /// LIA model retrain events (node rebuilt with a fresh linear model).
    lia_model_retrains: Counter, Drift, "core", "events";
    /// Kind changes up the ladder of a container inside a HITree, a LIA's
    /// child (Array → RIA → LIA).
    hitree_node_upgrades: Counter, Drift, "core", "events";

    /// Per-source apply tasks that panicked and were contained by the
    /// panic-safe batch pipeline. Must stay zero in normal (fault-free)
    /// runs; `repro check` gates on it.
    apply_run_panics: Counter, Invariant, "core", "events";
    /// Vertices quarantined (adjacency dropped, degree forced to 0) after an
    /// apply panic. Must stay zero in normal runs.
    vertices_quarantined: Counter, Invariant, "core", "vertices";
    /// Quarantined vertices restored via `repair_vertex`. Must stay zero in
    /// normal runs.
    vertices_repaired: Counter, Invariant, "core", "vertices";

    /// WAL frames appended by the durability layer (one per logged batch).
    wal_frames_appended: Counter, Drift, "persist", "frames";
    /// Bytes written by the most recent checkpoint image (gauge, not a sum).
    checkpoint_bytes: GaugeLast, None, "persist", "bytes";
    /// WAL frames replayed through the batch pipeline during recovery.
    recovery_frames_replayed: Counter, Drift, "persist", "frames";
    /// WAL frames discarded as torn/corrupt during recovery.
    recovery_frames_discarded: Counter, Invariant, "persist", "frames";

    /// WAL segments sealed and rotated out by the segmented log.
    wal_segments_rotated: Counter, Drift, "persist", "segments";
    /// WAL segments deleted by retention GC.
    wal_segments_deleted: Counter, Drift, "persist", "segments";
    /// Bytes currently held by live WAL segments on disk (gauge, not a
    /// sum). Retention GC keeps this bounded by the retention window.
    wal_live_bytes: GaugeLast, None, "persist", "bytes";
    /// Delta (dirty-vertex-only) checkpoint images written.
    delta_checkpoints_written: Counter, Drift, "persist", "images";
    /// Dirty vertices captured by the most recent checkpoint freeze
    /// (gauge, not a sum). Delta image size scales with this.
    checkpoint_dirty_vertices: GaugeLast, None, "persist", "vertices";
    /// Checkpoint images discarded as corrupt/unlinked while rebuilding the
    /// recovery chain. Must stay zero on clean runs; `repro check` gates it.
    recovery_images_discarded: Counter, Invariant, "persist", "images";

    /// Read snapshots taken from the live graph.
    snapshots_taken: Counter, Drift, "core", "snapshots";
    /// Read snapshots dropped (the last clone of each).
    snapshots_retired: Counter, Drift, "core", "snapshots";
    /// Vertex blocks copied on write because a snapshot still referenced
    /// their directory page when a batch mutated a vertex on it: one whole
    /// page of blocks per shared page touched, so `cow_block_copies` over
    /// the batch's runs is the write amplification of page-granular sharing.
    cow_block_copies: Counter, Drift, "core", "blocks";

    /// Standing-query subscriptions currently registered (gauge, not a
    /// sum). Quarantined subscriptions still count until cancelled.
    subscriptions_active: GaugeLast, None, "queries", "subscriptions";
    /// Result deltas delivered to standing-query subscribers (one per
    /// subscription per applied batch).
    deltas_delivered: Counter, Drift, "queries", "deltas";
    /// Individual added/removed/changed entries carried by delivered
    /// deltas. The amortized-cost argument for standing queries is that
    /// this stays proportional to the batch, not the graph.
    delta_entries_emitted: Counter, Drift, "queries", "entries";
    /// Subscription evaluations that panicked and were quarantined by the
    /// delivery loop. Must stay zero in normal (fault-free) runs; `repro
    /// check` treats a nonzero value as an invariant violation.
    subscription_panics: Counter, Invariant, "queries", "events";

    /// Nanoseconds in the batch sort+dedup phase.
    phase_sort_nanos: Timer, None, "core", "ns";
    /// Nanoseconds grouping keys into per-source runs.
    phase_group_nanos: Timer, None, "core", "ns";
    /// Nanoseconds applying runs to vertex structures.
    phase_apply_nanos: Timer, None, "core", "ns";
}

impl StructStats {
    /// Records `hits` ids of a run inserted into an inline line, shifting
    /// `shifted` of the line's elements.
    #[inline]
    pub fn record_vb_inline_insert(&self, hits: u64, shifted: u64) {
        self.vb_inline_hits.record(hits);
        self.vb_inline_shifts.record(shifted);
    }

    /// Records a cross-block ripple insert spanning `span` blocks under
    /// locality bound `bound`, carrying `moved` elements across boundaries.
    #[inline]
    pub fn record_ria_ripple(&self, span: u64, moved: u64, bound: u64) {
        self.ria_ripples.record(1);
        self.ria_cross_block_moves.record(moved);
        self.ria_max_ripple_span.record(span);
        self.ria_bound.record(bound);
        if span > bound {
            self.ria_bound_exceeded.record(1);
        }
    }

    /// Records a vertical child creation; `overflowed` says whether a block
    /// overflow forced it (the only legal reason).
    #[inline]
    pub fn record_lia_vertical(&self, overflowed: bool) {
        self.lia_vertical_child_creates.record(1);
        if !overflowed {
            self.lia_vertical_premature.record(1);
        }
    }

    /// Records one result delta delivered to a subscriber carrying
    /// `entries` added/removed/changed entries.
    #[inline]
    pub fn record_delta_delivered(&self, entries: u64) {
        self.deltas_delivered.record(1);
        self.delta_entries_emitted.record(entries);
    }

    /// Starts a scoped timer attributing wall-clock time to `phase`; the
    /// elapsed nanoseconds are added when the returned guard drops. The
    /// guard also carries the phase's trace [`Span`](crate::Span).
    #[inline]
    pub fn time(&self, phase: Phase) -> PhaseTimer<'_> {
        let (target, span_kind) = match phase {
            Phase::Sort => (&self.phase_sort_nanos, trace::SpanKind::Sort),
            Phase::Group => (&self.phase_group_nanos, trace::SpanKind::Group),
            Phase::Apply => (&self.phase_apply_nanos, trace::SpanKind::Apply),
        };
        PhaseTimer {
            target,
            start: Instant::now(),
            _span: trace::span(span_kind),
        }
    }
}

/// Scoped phase timer returned by [`StructStats::time`]; accumulates elapsed
/// nanoseconds into its target counter on drop.
#[must_use = "the timer records on drop; binding it to `_` drops immediately"]
pub struct PhaseTimer<'a> {
    target: &'a Timer,
    start: Instant,
    /// Trace span covering the same scope.
    _span: trace::Span,
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        self.target.record(self.start.elapsed().as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{Gate, MetricKind};

    #[test]
    fn counters_accumulate_and_reset() {
        let c = OpCounters::new();
        c.search_steps.record(3);
        c.search_steps.record(2);
        c.elements_moved.record(7);
        c.rebuilds.record(1);
        let s = c.snapshot();
        assert_eq!(s.search_steps, 5);
        assert_eq!(s.elements_moved, 7);
        assert_eq!(s.rebuilds, 1);
        c.reset();
        assert_eq!(c.snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn snapshot_since() {
        let c = OpCounters::new();
        c.elements_moved.record(10);
        let a = c.snapshot();
        c.elements_moved.record(5);
        c.search_steps.record(1);
        let d = c.snapshot().since(a);
        assert_eq!(d.elements_moved, 5);
        assert_eq!(d.search_steps, 1);
    }

    #[test]
    fn struct_stats_record_and_reset() {
        let s = StructStats::new();
        s.record_vb_inline_insert(1, 3);
        s.record_vb_inline_insert(1, 0);
        s.vb_spill_evictions.record(1);
        s.arr_shifts.record(9);
        s.ria_within_block_shifts.record(4);
        s.record_ria_ripple(2, 2, 5);
        s.ria_rebuilds.record(1);
        s.lia_horizontal_packs.record(1);
        s.record_lia_vertical(true);
        s.lia_model_retrains.record(1);
        s.hitree_node_upgrades.record(1);
        let snap = s.snapshot();
        assert_eq!(snap.vb_inline_hits, 2);
        assert_eq!(snap.vb_inline_shifts, 3);
        assert_eq!(snap.vb_spill_evictions, 1);
        assert_eq!(snap.arr_shifts, 9);
        assert_eq!(snap.ria_within_block_shifts, 4);
        assert_eq!(snap.ria_cross_block_moves, 2);
        assert_eq!(snap.ria_ripples, 1);
        assert_eq!(snap.ria_max_ripple_span, 2);
        assert_eq!(snap.ria_bound, 5);
        assert_eq!(snap.ria_bound_exceeded, 0);
        assert_eq!(snap.ria_rebuilds, 1);
        assert_eq!(snap.lia_horizontal_packs, 1);
        assert_eq!(snap.lia_vertical_child_creates, 1);
        assert_eq!(snap.lia_vertical_premature, 0);
        assert_eq!(snap.lia_model_retrains, 1);
        assert_eq!(snap.hitree_node_upgrades, 1);
        s.reset();
        assert_eq!(s.snapshot(), StructSnapshot::default());
    }

    #[test]
    fn ripple_past_bound_flags_violation() {
        let s = StructStats::new();
        s.record_ria_ripple(7, 7, 5);
        let snap = s.snapshot();
        assert_eq!(snap.ria_bound_exceeded, 1);
        assert_eq!(snap.ria_max_ripple_span, 7);
    }

    #[test]
    fn premature_vertical_flags_violation() {
        let s = StructStats::new();
        s.record_lia_vertical(false);
        assert_eq!(s.snapshot().lia_vertical_premature, 1);
    }

    #[test]
    fn phase_timer_attributes_time() {
        let s = StructStats::new();
        {
            let _t = s.time(Phase::Sort);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        {
            let _t = s.time(Phase::Apply);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = s.snapshot();
        assert!(snap.phase_sort_nanos >= 1_000_000);
        assert!(snap.phase_apply_nanos >= 500_000);
        assert_eq!(snap.phase_group_nanos, 0);
    }

    #[test]
    fn absorb_merges_each_row_by_its_kind() {
        let into = StructStats::new();
        into.arr_shifts.record(5);
        into.phase_apply_nanos.record(100);
        into.record_ria_ripple(4, 4, 9);
        into.checkpoint_bytes.record(77);
        let before = into.snapshot();

        // A zeroed family changes nothing.
        into.absorb(&StructStats::new());
        assert_eq!(into.snapshot(), before);

        let from = StructStats::new();
        from.arr_shifts.record(3);
        from.phase_apply_nanos.record(20);
        from.record_ria_ripple(2, 2, 6);
        into.absorb(&from);
        let s = into.snapshot();
        // Counters and timers add.
        assert_eq!((s.arr_shifts, s.phase_apply_nanos), (8, 120));
        assert_eq!((s.ria_ripples, s.ria_cross_block_moves), (2, 6));
        // `GaugeMax` keeps the larger; a non-zero `GaugeLast` replaces.
        assert_eq!((s.ria_max_ripple_span, s.ria_bound), (4, 6));
        // A `GaugeLast` the source never recorded keeps the target's value.
        assert_eq!(s.checkpoint_bytes, 77);

        from.reset();
        from.record_ria_ripple(7, 7, 8);
        into.absorb(&from);
        assert_eq!(into.snapshot().ria_max_ripple_span, 7);
        assert_eq!(into.snapshot().ria_bound, 8);
        assert_eq!(into.snapshot().ria_bound_exceeded, 0);
    }

    /// One recording schedule spread over several families in order and
    /// absorbed in that order ends where recording it all into one family
    /// does, every row of it.
    #[test]
    fn absorbing_locals_equals_recording_into_one() {
        let record = |s: &StructStats, i: u64| {
            s.record_vb_inline_insert(1, i % 4);
            s.arr_shifts.record(i);
            s.record_ria_ripple(i % 5, i % 3, i % 7);
            if i.is_multiple_of(6) {
                s.record_lia_vertical(i.is_multiple_of(12));
                s.cow_block_copies.record(32);
            }
            s.phase_apply_nanos.record(i * 10);
        };
        let one = StructStats::new();
        (0..60).for_each(|i| record(&one, i));
        for n in [1, 2, 7] {
            let locals: Vec<StructStats> = (0..n).map(|_| StructStats::new()).collect();
            for i in 0..60u64 {
                record(&locals[(i as usize * n) / 60], i);
            }
            let merged = StructStats::new();
            locals.iter().for_each(|l| merged.absorb(l));
            assert_eq!(merged.snapshot(), one.snapshot(), "{n} locals");
        }
    }

    fn words(list: &str) -> Vec<&str> {
        list.split_whitespace().collect()
    }

    fn names(pred: impl Fn(&crate::MetricDesc) -> bool) -> Vec<&'static str> {
        let picked = StructSnapshot::METRICS.iter().filter(|m| pred(m));
        picked.map(|m| m.name).collect()
    }

    /// The table is consistent with everything expanded from it, and the
    /// derived sets are the ones the gate and the registry had when they
    /// were spelled by hand.
    #[test]
    fn metric_table_is_consistent() {
        // Names are unique and `fields` follows the table; a rename or a
        // count change here must be an intentional schema change.
        let all = names(|_| true);
        assert_eq!(all.len(), 44);
        let unique: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
        let field_names: Vec<_> = StructSnapshot::default().fields().map(|(n, _)| n).into();
        assert_eq!(field_names, all);
        assert!(!all.contains(&"phase_kernel_nanos"));
        for expected in words(
            "vb_inline_hits vb_inline_shifts vb_spill_evictions vb_spill_inserts \
             vb_spill_refills arr_shifts tier_downgrades ria_within_block_shifts \
             ria_cross_block_moves lia_within_block_shifts lia_horizontal_packs \
             lia_vertical_child_creates phase_sort_nanos phase_group_nanos \
             phase_apply_nanos",
        ) {
            assert!(all.contains(&expected), "{expected} left the schema");
        }

        // Round trip through `fields`/`from_fields`, every field distinct.
        let pairs = all.iter().zip(1u64..).map(|(n, v)| (*n, v * 10));
        let later = StructSnapshot::from_fields(pairs).unwrap();
        assert_eq!(StructSnapshot::from_fields(later.fields()).unwrap(), later);
        assert!(StructSnapshot::from_fields([("no_such_metric", 1)]).is_err());

        // `since` keeps every gauge and subtracts everything else.
        let earlier = StructSnapshot::from_fields(all.iter().map(|n| (*n, 3))).unwrap();
        let diff = later.since(earlier);
        for ((m, (_, d)), (_, l)) in StructSnapshot::METRICS
            .iter()
            .zip(diff.fields())
            .zip(later.fields())
        {
            assert_eq!(d, if m.kind.is_gauge() { l } else { l - 3 }, "{}", m.name);
        }
        // ... and through the recorders, as callers see it.
        let s = StructStats::new();
        s.ria_within_block_shifts.record(10);
        s.record_ria_ripple(3, 3, 6);
        let a = s.snapshot();
        s.ria_within_block_shifts.record(5);
        s.record_ria_ripple(2, 2, 6);
        let d = s.snapshot().since(a);
        assert_eq!(d.ria_within_block_shifts, 5);
        assert_eq!(d.ria_ripples, 1);
        assert_eq!(d.ria_cross_block_moves, 2);
        assert_eq!(d.ria_max_ripple_span, 3);
        assert_eq!(d.ria_bound, 6);

        // The derived sets.
        assert_eq!(
            names(|m| m.gate == Gate::Invariant),
            words(
                "ria_bound_exceeded lia_vertical_premature apply_run_panics \
                 vertices_quarantined vertices_repaired recovery_frames_discarded \
                 recovery_images_discarded subscription_panics"
            )
        );
        assert_eq!(
            names(|m| m.gate == Gate::Drift),
            words(
                "tier_upgrades ria_ripples ria_rebuilds lia_model_retrains \
                 hitree_node_upgrades wal_frames_appended recovery_frames_replayed \
                 wal_segments_rotated wal_segments_deleted delta_checkpoints_written \
                 snapshots_taken snapshots_retired cow_block_copies deltas_delivered \
                 delta_entries_emitted"
            )
        );
        assert_eq!(
            names(|m| m.kind.is_gauge()),
            words(
                "ria_max_ripple_span ria_bound checkpoint_bytes wal_live_bytes \
                 checkpoint_dirty_vertices subscriptions_active"
            )
        );
        // Reruns reproduce everything but timers and last-writer-wins gauges.
        let deterministic: Vec<_> = later
            .deterministic_fields()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(
            deterministic,
            names(|m| matches!(m.kind, MetricKind::Counter | MetricKind::GaugeMax))
        );
        assert!(deterministic.contains(&"ria_max_ripple_span"));
        assert!(!deterministic.contains(&"ria_bound"));
        assert_eq!(
            CounterSnapshot::default().deterministic_fields().len(),
            CounterSnapshot::LEN - 2
        );
    }
}
