//! EXPERIMENTS.md's metric table is rendered from the metric declarations
//! (`StructSnapshot::METRICS`), not written by hand: this test renders it and
//! compares it with the text between the markers. After adding, renaming or
//! re-classifying a metric, paste the block the failure prints.
//!
//! The failpoint catalogue (`lsgraph_api::FAILPOINT_SITES`) is spelled by
//! hand in two more places — EXPERIMENTS.md's site table and README's list of
//! core sites; the second test names whatever they list that the catalogue
//! does not, and the other way round.

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

fn read(name: &str) -> String {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn experiments_md_metric_table_matches_the_declarations() {
    let doc = read("EXPERIMENTS.md");
    let want = rendered();
    let start = doc.find(BEGIN).expect("begin marker present") + BEGIN.len();
    let end = start + doc[start..].find(END).expect("end marker present");
    assert!(
        doc[start..end] == want,
        "EXPERIMENTS.md's metric table is stale; replace the text between the markers with:\n\n{want}"
    );
}

/// `(stale, missing)`: what `listed` names that `catalogue` does not, and
/// what it leaves out.
fn drift<'a>(listed: &[&'a str], catalogue: &[&'a str]) -> (Vec<&'a str>, Vec<&'a str>) {
    let not_in = |xs: &[&'a str], ys: &[&'a str]| -> Vec<&'a str> {
        xs.iter().copied().filter(|x| !ys.contains(x)).collect()
    };
    (not_in(listed, catalogue), not_in(catalogue, listed))
}

#[test]
fn failpoint_site_lists_match_the_catalogue() {
    let none = (Vec::new(), Vec::new());

    // EXPERIMENTS.md: one `| `site` | layer | fires in |` row per site.
    let doc = read("EXPERIMENTS.md");
    let table = doc.find("| site ").expect("failpoint table present");
    let rows: Vec<(&str, &str)> = doc[table..]
        .lines()
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|l| {
            let mut cells = l.split('|').skip(1).map(str::trim);
            let site = cells.next().expect("site cell").trim_matches('`');
            (site, cells.next().expect("layer cell"))
        })
        .collect();
    let table_sites: Vec<&str> = rows.iter().map(|r| r.0).collect();
    assert_eq!(
        drift(&table_sites, &lsgraph_api::FAILPOINT_SITES),
        none,
        "EXPERIMENTS.md failpoint table: (stale rows, sites without a row)"
    );

    // README: the core sites, in the parentheses after "named core sites".
    let doc = read("README.md");
    let at = doc
        .find("named core sites")
        .expect("core site list present");
    let open = at + doc[at..].find('(').expect("list opens");
    let close = open + doc[open..].find(')').expect("list closes");
    let listed: Vec<&str> = doc[open..close].split('`').skip(1).step_by(2).collect();
    let core: Vec<&str> = rows.iter().filter(|r| r.1 == "core").map(|r| r.0).collect();
    assert_eq!(
        drift(&listed, &core),
        none,
        "README core failpoint list: (stale names, core sites not listed)"
    );
}
