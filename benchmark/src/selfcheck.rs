//! `benchmark selfcheck`: does the benchmark agree with itself?
//!
//! Each workload is run as two interleaved sets (A B A B A B) of the same
//! code on the same seeds, one child process per run so that peak memory is
//! each run's own. For every end-to-end metric the two sets' medians must
//! agree within the metric's bound; any breach fails the check.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use crate::calib::median;
use crate::spec::{Better, END_TO_END, WORKLOADS};

/// Runs per set.
const PER_SET: usize = 3;

/// Runs one workload in a child process and returns its `metric` lines.
fn child(
    exe: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    out: &Path,
) -> Result<BTreeMap<String, f64>, String> {
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .arg("--out")
        .arg(out)
        .output()
        .map_err(|e| format!("spawn {exe:?}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !stdout
        .lines()
        .last()
        .is_some_and(|l| l.contains("\"correct\": true"))
    {
        return Err(format!("{workload} seed {seed} reported incorrect output"));
    }
    Ok(stdout.lines().filter_map(metric_line).collect())
}

/// Parses `metric <name> <value> ...`.
fn metric_line(line: &str) -> Option<(String, f64)> {
    let mut p = line.split_whitespace();
    if p.next()? != "metric" {
        return None;
    }
    Some((p.next()?.to_string(), p.next()?.parse().ok()?))
}

/// Prints the comparison and returns whether every metric stayed in bounds.
pub fn selfcheck(exe: &Path, seconds: f64, out: &Path) -> Result<bool, String> {
    let mut ok = true;
    println!("selfcheck: {PER_SET} runs per set, sets interleaved A B A B A B, {seconds} s measured per run");
    println!(
        "{:<17} {:<19} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "|A-B|/A", "bound"
    );
    for w in &WORKLOADS {
        let mut sets: [BTreeMap<String, Vec<f64>>; 2] = Default::default();
        for i in 0..2 * PER_SET {
            let seed = 1000 + (i / 2) as u64;
            for (name, value) in child(exe, w.name, seed, seconds, out)? {
                sets[i % 2].entry(name).or_default().push(value);
            }
        }
        for m in &END_TO_END {
            let (a, b) = (median(&sets[0][m.name]), median(&sets[1][m.name]));
            let gap = (a - b).abs() / a;
            let worse = match m.better {
                Better::Lower => b > a,
                Better::Higher => b < a,
            };
            let pass = gap <= m.bound;
            ok &= pass;
            println!(
                "{:<17} {:<19} {:>12.4} {:>12.4} {:>8.2}% {:>6.0}%  {}",
                w.name,
                m.name,
                a,
                b,
                100.0 * gap,
                100.0 * m.bound,
                match (pass, worse) {
                    (true, _) => "ok",
                    (false, true) => "BREACH (B worse)",
                    (false, false) => "BREACH (B better)",
                }
            );
        }
    }
    println!("selfcheck: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}
