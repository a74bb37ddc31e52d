//! The benchmark's declaration: workloads, metrics, bounds. `BENCHMARK.json`
//! is rendered from these tables (`benchmark spec`), and the contract test
//! holds the committed file to them, so there is one place to edit.

use std::fmt::Write as _;

/// How a workload drives the engine inside its update segments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `LsGraph::try_{insert,delete}_batch` and nothing else.
    Plain,
    /// A snapshot taken before every batch, held across it, probed after it,
    /// dropped, then `reclaim_epochs()`; reads go to a held snapshot.
    Mixed,
    /// Batches through `Store` (WAL append, periodic `sync`, a delta
    /// checkpoint closing each segment) with a subscription hub attached.
    Durable,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// `gen::graph500`
    Graph500,
    /// `gen::rmat` with `RmatParams::paper()`
    RmatPaper,
    /// `gen::erdos_renyi`
    ErdosRenyi,
}

/// `2^scale` vertices and `edge_factor << scale` generated edges; the base
/// graph holds each edge and its reverse, less duplicates.
#[derive(Clone, Copy, Debug)]
pub struct Generator {
    pub family: Family,
    pub scale: u32,
    pub edge_factor: usize,
}

impl Generator {
    pub fn raw_edges(self) -> usize {
        self.edge_factor << self.scale
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub generator: Generator,
    /// Fresh edges inserted by U+ and deleted by U- every round.
    pub pool: usize,
    /// Edges per update call.
    pub batch: usize,
    pub mode: Mode,
    /// `snapshot()` take+drop pairs in segment S (sized so S lasts >= 50 ms).
    pub snapshot_reps: usize,
}

pub const PROBES: usize = 1 << 19;
pub const BFS_REPS: usize = 8;
pub const PR_ITERS: usize = 4;
pub const PR_DAMPING: f64 = 0.85;
/// `has_edge` probes against the snapshot held across each batch (`Mixed`).
pub const HELD_PROBES: usize = 1 << 12;
/// `Durable`: one `sync()` per this many batches.
pub const SYNC_EVERY: usize = 8;
/// `Durable`: batches appended and synced after the last checkpoint, which
/// recovery must replay.
pub const TAIL_BATCHES: usize = 8;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ingest-skew",
        why: "Graph500 skew, 64Ki-edge batches, no snapshot/WAL/hub: sort/group/apply and the RIA/HITree tiers do nearly all the work",
        generator: Generator { family: Family::Graph500, scale: 17, edge_factor: 16 },
        pool: 1 << 18,
        batch: 1 << 16,
        mode: Mode::Plain,
        snapshot_reps: 32,
    },
    Workload {
        name: "trickle-flat",
        why: "uniform graph (no vertex past the array tier), 256-edge batches: per-call fixed cost and the inline path dominate; RIA/HITree idle, so a tier change must show nothing here",
        generator: Generator { family: Family::ErdosRenyi, scale: 18, edge_factor: 4 },
        pool: 1 << 17,
        batch: 256,
        mode: Mode::Plain,
        snapshot_reps: 16,
    },
    Workload {
        name: "snapshot-mixed",
        why: "ingest-skew's graph, pool and batch with a snapshot held across every batch and all reads on a held snapshot: CoW, whole-spill copies and epoch reclaim dominate",
        generator: Generator { family: Family::Graph500, scale: 17, edge_factor: 16 },
        pool: 1 << 18,
        batch: 1 << 16,
        mode: Mode::Mixed,
        snapshot_reps: 32,
    },
    Workload {
        name: "durable-pipeline",
        why: "paper R-MAT through Store (WAL, sync every 8 batches, delta checkpoints) with three standing queries delivered per batch: the only workload where persist and queries work",
        generator: Generator { family: Family::RmatPaper, scale: 17, edge_factor: 8 },
        pool: 1 << 15,
        batch: 1 << 12,
        mode: Mode::Durable,
        snapshot_reps: 32,
    },
];

impl Workload {
    /// Name the workload's update calls are timed under in measured rounds.
    pub fn update_call(&self) -> &'static str {
        match self.mode {
            Mode::Durable => "persist.update_batch",
            Mode::Plain | Mode::Mixed => "core.update_batch",
        }
    }
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "update_meps",
        unit: "Medges/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "batch_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "snapshot_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_mops",
        unit: "Mops/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "bfs_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "pr_iter_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "mem_bytes_per_edge",
        unit: "B/edge",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// `(name, unit, better)` of every per-layer metric, in report order.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("api.sort_dedup_us", "us", Better::Lower),
    ("api.group_us", "us", Better::Lower),
    ("core.apply_us", "us", Better::Lower),
    ("core.sort_share", "%", Better::Lower),
    ("core.apply_share", "%", Better::Lower),
    ("core.insert_ns_per_edge.inline", "ns", Better::Lower),
    ("core.insert_ns_per_edge.array", "ns", Better::Lower),
    ("core.insert_ns_per_edge.ria", "ns", Better::Lower),
    ("core.insert_ns_per_edge.hitree", "ns", Better::Lower),
    ("core.probe_ns.inline", "ns", Better::Lower),
    ("core.probe_ns.array", "ns", Better::Lower),
    ("core.probe_ns.ria", "ns", Better::Lower),
    ("core.probe_ns.hitree", "ns", Better::Lower),
    ("core.scan_ns_per_edge.inline", "ns", Better::Lower),
    ("core.scan_ns_per_edge.array", "ns", Better::Lower),
    ("core.scan_ns_per_edge.ria", "ns", Better::Lower),
    ("core.scan_ns_per_edge.hitree", "ns", Better::Lower),
    ("core.batch_edge_share.inline", "%", Better::Higher),
    ("core.batch_edge_share.array", "%", Better::Higher),
    ("core.batch_edge_share.ria", "%", Better::Higher),
    ("core.batch_edge_share.hitree", "%", Better::Higher),
    ("core.tier_vertices.inline", "count", Better::Higher),
    ("core.tier_vertices.array", "count", Better::Higher),
    ("core.tier_vertices.ria", "count", Better::Higher),
    ("core.tier_vertices.hitree", "count", Better::Higher),
    ("core.spill_edge_share", "%", Better::Lower),
    ("core.call_floor_us", "us", Better::Lower),
    ("rayon.fork_join_us", "us", Better::Lower),
    ("rayon.threads", "count", Better::Higher),
    ("rayon.spawns_per_batch", "count", Better::Lower),
    ("core.cow_batch_ratio", "x", Better::Lower),
    ("core.cow_block_copies_per_batch", "count", Better::Lower),
    ("core.snapshot_drop_us", "us", Better::Lower),
    ("core.epoch_reclaim_us", "us", Better::Lower),
    ("core.elements_moved_per_edge", "count", Better::Lower),
    ("core.tier_upgrades", "count", Better::Lower),
    ("core.ria_rebuilds", "count", Better::Lower),
    ("core.lia_retrains", "count", Better::Lower),
    ("core.batch_p95_us", "us", Better::Lower),
    ("analytics.bfs_levels", "count", Better::Lower),
    ("analytics.bfs_edges_per_us", "1/us", Better::Higher),
    ("analytics.pr_edges_per_us", "1/us", Better::Higher),
    ("analytics.cc_ms", "ms", Better::Lower),
    ("analytics.tc_ms", "ms", Better::Lower),
    ("persist.wal_append_us", "us", Better::Lower),
    ("persist.wal_sync_us", "us", Better::Lower),
    ("persist.checkpoint_delta_ms", "ms", Better::Lower),
    ("persist.checkpoint_full_ms", "ms", Better::Lower),
    ("persist.recovery_ms", "ms", Better::Lower),
    ("persist.frames_replayed", "count", Better::Lower),
    ("persist.wal_bytes_per_edge", "B/edge", Better::Lower),
    ("persist.image_bytes_per_edge", "B/edge", Better::Lower),
    ("persist.retention_ms", "ms", Better::Lower),
    ("queries.hook_us", "us", Better::Lower),
    ("queries.delivery_lag_us", "us", Better::Lower),
    ("queries.deltas_delivered", "count", Better::Higher),
    ("queries.delta_entries_per_batch", "count", Better::Lower),
    ("queries.subscribe_ms", "ms", Better::Lower),
    ("gen.build_meps", "Medges/s", Better::Higher),
    ("host.calib_ms", "ms", Better::Lower),
    ("host.calib_cv", "%", Better::Lower),
    ("host.spawn_us", "us", Better::Lower),
    ("host.scale", "x", Better::Lower),
    ("host.nproc", "count", Better::Higher),
    ("trace.overhead_pct", "%", Better::Lower),
    ("trace.coverage_pct", "%", Better::Higher),
    ("trace.self_ms.core", "ms", Better::Lower),
    ("trace.self_ms.analytics", "ms", Better::Lower),
    ("trace.self_ms.persist", "ms", Better::Lower),
    ("trace.self_ms.queries", "ms", Better::Lower),
    ("trace.self_ms.host", "ms", Better::Lower),
    ("trace.self_ms.bench", "ms", Better::Lower),
];

/// Seconds one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u32 = 24;

fn better(b: Better) -> &'static str {
    match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    }
}

/// `BENCHMARK.json`, exactly as committed at the repo root.
pub fn benchmark_json() -> String {
    let mut s = String::new();
    s.push_str("{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            better(m.better),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, &(name, unit, b)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{comma}",
            better(b)
        );
    }
    s.push_str("  ]\n}\n");
    s
}
