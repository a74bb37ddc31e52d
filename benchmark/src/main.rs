//! `benchmark --workload W --seed N --seconds S --trace 0|1` runs one
//! workload and prints its metrics, the last line as one JSON object;
//! `benchmark spec` prints `BENCHMARK.json`; `benchmark selfcheck` runs every
//! workload as two interleaved sets and fails if they disagree.

use std::path::PathBuf;
use std::process::ExitCode;

use lsgraph_benchmark::run::{run, Opts};
use lsgraph_benchmark::spec;

fn usage() -> String {
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--rounds R] [--out DIR]\n       benchmark spec\n       benchmark selfcheck [--seconds S] [--out DIR]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        rounds: None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: '{value}' is not {what}");
        match flag.as_str() {
            "--workload" => o.workload = value.clone(),
            "--seed" => o.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(o.seconds > 0.0 && o.seconds <= 60.0) {
                    return Err(bad("between 0 and 60"));
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--rounds" => o.rounds = Some(value.parse().map_err(|_| bad("a whole number"))?),
            "--out" => o.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("spec") {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let selfcheck = args.first().map(String::as_str) == Some("selfcheck");
    let opts = match parse(&args[usize::from(selfcheck)..]) {
        Ok(o) if selfcheck || spec::workload(&o.workload).is_some() => o,
        Ok(o) => {
            eprintln!("unknown workload '{}'\n{}", o.workload, usage());
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if selfcheck {
        let exe = std::env::current_exe().expect("path of this executable");
        return match lsgraph_benchmark::selfcheck::selfcheck(&exe, opts.seconds, &opts.out_dir) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("selfcheck failed: {e}");
                ExitCode::from(1)
            }
        };
    }
    match run(&opts) {
        Ok(report) => {
            let t = &report.tiers;
            println!(
                "workload {} seed {} rounds {} attempted {} failed {}",
                report.workload, opts.seed, report.rounds, report.attempted, report.failed
            );
            println!(
                "tiers inline {} array {} ria {} hitree {} spill_edges {} inline_edges {}",
                t.inline_vertices,
                t.array_vertices,
                t.ria_vertices,
                t.hitree_vertices,
                t.spill_edges,
                t.inline_edges
            );
            print!("{}", report.table());
            println!("{}", report.json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::from(1)
        }
    }
}
