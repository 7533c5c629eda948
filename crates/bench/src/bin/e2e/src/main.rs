//! `e2e` — the repository's two-clock benchmark. See `README.md` in the
//! package directory for the metric and workload tables and how to read the
//! output.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! e2e [--seed <n>] [--seconds <s>] [--rounds <r>] [--out <file>]     # every workload
//! e2e --compare <a.json> <b.json>
//! e2e --describe                                                      # BENCHMARK.json
//! ```
//!
//! The first form is the contract in `BENCHMARK.json`: one workload, one
//! process, the result as the last line of stdout. The second runs every
//! workload round-robin in child processes and writes the report `--compare`
//! reads.

mod alloc;
mod harness;
mod host;
mod json;
mod layers;
mod measure;
mod report;
mod rng;
mod stats;
mod tracer;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Seed used when none is given, and the seed held out from development:
/// numbers quoted in the README were taken on the first, and every claim
/// made with this benchmark must also hold on the second.
pub const DEFAULT_SEED: u64 = 20250926;
pub const HELD_OUT_SEED: u64 = 7919;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  e2e --workload <{}> --seed <u64> --seconds <n> --trace <0|1> [--trace-out <file>]\n  \
         e2e [--seed <u64>] [--seconds <n>] [--rounds <n>] [--out <file>]\n  \
         e2e --compare <a.json> <b.json>\n\
         default seed {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED}",
        workloads::ALL
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut trace_out = None;
    let mut rounds = 1usize;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str);
        let parsed = match flag.as_str() {
            "--describe" => {
                println!("{}", report::describe().render());
                return ExitCode::SUCCESS;
            }
            "--compare" => {
                let (Some(a), Some(b)) = (value(), value()) else {
                    return usage();
                };
                return report::compare_files(a, b);
            }
            "--workload" => value().map(|v| workload = Some(v.to_string())),
            "--seed" => value().and_then(|v| v.parse().ok()).map(|v| seed = v),
            "--seconds" => value()
                .and_then(|v| v.parse::<f64>().ok())
                .filter(|s| *s > 0.0 && *s <= 600.0)
                .map(|v| seconds = Some(v)),
            "--trace" => value()
                .and_then(|v| match v {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                })
                .map(|v| trace = v),
            "--trace-out" => value().map(|v| trace_out = Some(v.to_string())),
            "--rounds" => value()
                .and_then(|v| v.parse().ok())
                .filter(|r| (1..=100).contains(r))
                .map(|v| rounds = v),
            "--out" => value().map(|v| out = Some(v.to_string())),
            _ => None,
        };
        if parsed.is_none() {
            eprintln!("e2e: bad argument at `{flag}`");
            return usage();
        }
    }
    match workload {
        Some(name) => {
            let Some(w) = workloads::ALL.iter().find(|w| w.name == name) else {
                eprintln!("e2e: unknown workload `{name}`");
                return usage();
            };
            report::run_one(
                w,
                seed,
                seconds.unwrap_or(20.0),
                trace,
                trace_out.as_deref(),
            )
        }
        None => report::run_all(seed, seconds.unwrap_or(10.0), rounds, out.as_deref()),
    }
}
