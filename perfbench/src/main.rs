//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (or all of them), prints every metric by name with its
//! unit, and ends with one JSON line.  Untraced runs report the end-to-end
//! metrics, traced runs the per-layer ones.  Exits 1 when an output check
//! fails and 2 on bad arguments.
//!
//! A run is a fixed amount of work per workload, so that every run of a
//! workload measures the same calls; `--seconds` is accepted and recorded,
//! and `run_seconds` in `BENCHMARK.json` states how long a run takes.

use perfbench::pipeline::{self, RunResult, THREADS};
use perfbench::report;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: '{value}' is not an unsigned integer"))?;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds: '{value}' is not a duration"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: '{value}' is not 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<_> = if args.workload == "all" {
        pipeline::workloads().into_iter().collect()
    } else {
        match pipeline::workload(&args.workload) {
            Some(w) => vec![w],
            None => {
                let names: Vec<_> = pipeline::workloads().iter().map(|w| w.name).collect();
                eprintln!(
                    "perfbench: unknown workload '{}' (expected one of {} or all)",
                    args.workload,
                    names.join(", ")
                );
                return ExitCode::from(2);
            }
        }
    };

    let prefixed = workloads.len() > 1;
    let mut runs: Vec<RunResult> = Vec::new();
    for w in &workloads {
        println!(
            "# perfbench {} seed={} seconds={} trace={}",
            w.name,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        let r = pipeline::run(w, args.seed, args.trace, THREADS);
        println!("# env {}", report::env_json(&r, args.seed));
        print!("{}", report::metric_lines("", &r.end_to_end));
        if args.trace {
            print!("{}", report::metric_lines("", &r.layers));
        }
        for p in &r.tally.problems {
            eprintln!("perfbench: {}: output check failed: {p}", w.name);
        }
        runs.push(r);
    }
    if args.trace {
        print!("{}", report::layer_table(&runs));
    }

    let correct = runs.iter().all(RunResult::correct);
    let attempted = runs.iter().map(|r| r.tally.attempted).sum::<u64>().max(1);
    let failed = runs.iter().map(|r| r.tally.failed).sum();
    let mut metrics = Vec::new();
    for r in &runs {
        let set = if args.trace { &r.layers } else { &r.end_to_end };
        for m in set.iter() {
            let name = if prefixed {
                format!("{}.{}", r.workload, m.name)
            } else {
                m.name.to_string()
            };
            metrics.push((name, m.value, m.unit));
        }
    }
    println!(
        "{}",
        report::result_json(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
