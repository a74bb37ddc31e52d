//! EXPERIMENTS.md's metric table is rendered from the metric declarations
//! (`lsgraph_api::counters`), not written by hand: this test renders it and
//! compares it with the text between the markers. After adding, renaming or
//! re-classifying a metric, paste the block the failure prints.

use lsgraph::{CounterSnapshot, Gate, MetricDesc, MetricKind, StructSnapshot};

const BEGIN: &str = "<!-- metric-table:begin (rendered by tests/metric_docs.rs) -->\n";
const END: &str = "<!-- metric-table:end -->";

fn row(m: &MetricDesc) -> String {
    let kind = match m.kind {
        MetricKind::Counter => "counter",
        MetricKind::GaugeMax => "gauge-max",
        MetricKind::GaugeLast => "gauge-last",
        MetricKind::Timer => "timer",
    };
    let gate = match m.gate {
        Gate::Invariant => "invariant",
        Gate::Drift => "drift",
        Gate::None => "none",
    };
    format!(
        "| `{}` | {kind} | {gate} | {} | {} | {} |\n",
        m.name, m.layer, m.unit, m.meaning
    )
}

fn rendered() -> String {
    let mut out = String::from(
        "| name | kind | gate | layer | unit | meaning |\n|---|---|---|---|---|---|\n",
    );
    // `struct_stats` rows, then the `counters` rows (layer `baselines`).
    for m in StructSnapshot::METRICS
        .iter()
        .chain(&CounterSnapshot::METRICS)
    {
        out.push_str(&row(m));
    }
    out
}

#[test]
fn experiments_md_metric_table_matches_the_declarations() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md is readable");
    let want = rendered();
    let start = doc.find(BEGIN).expect("begin marker present") + BEGIN.len();
    let end = start + doc[start..].find(END).expect("end marker present");
    assert!(
        doc[start..end] == want,
        "EXPERIMENTS.md's metric table is stale; replace the text between the markers with:\n\n{want}"
    );
}
