//! `bench-report` — the checking harnesses, each writing a tracked JSON
//! artifact whose identity and coverage flags CI asserts.
//!
//! Usage:
//!   bench-report (--churn | --scenarios | --serve | --resilience) [--quick] [--seed N] [--out PATH]
//!
//! `--churn` replays deletion-aware event streams (inserts + retractions
//! at 0%/25%/50% delete fractions) through RS/SS under both engines and
//! writes `BENCH_churn.json` (schema `kg-bench-churn/v1`), with a
//! per-fraction cross-engine and cross-offer-path identity check.
//! `--scenarios` sweeps the adversarial scenario matrix — every
//! `kg_datagen::scenario` family through all eight evaluators under both
//! engines — and writes `BENCH_scenarios.json` (schema
//! `kg-bench-scenarios/v1`) with per-cell byte-identity and CI coverage
//! flags. `--serve` load-tests the kg-serve session service over real TCP
//! — thousands of tenant monitors registered and driven through churn
//! scripts, with served estimates byte-checked against in-process
//! evaluation and checkpoint/restore round-trips — and writes
//! `BENCH_serve.json` (schema `kg-bench-serve/v1`). `--resilience` runs
//! the deterministic chaos harness — seeded connection faults, abrupt
//! process kills, spill-file sabotage, and a final drain→restart cycle
//! over a tenant fleet, with every served estimate byte-checked against
//! a fault-free replay — and writes `BENCH_resilience.json` (schema
//! `kg-bench-resilience/v1`).
//!
//! Performance is measured by the benchmark in `perfbench/` (warm-up,
//! repeated samples, spread, and a traced per-layer run); the timings
//! these artifacts carry are single samples for context only.
//!
//! `--quick` shrinks scales and trial counts (CI); the default output path
//! is `BENCH_<mode>.json` in the working directory. All artifacts are
//! written atomically (temp file + rename), so an interrupted run never
//! leaves a truncated JSON. Run release: `cargo run --release -p kg-bench
//! --bin bench-report -- --churn`.

use kg_bench::artifact::write_atomic;
use kg_bench::{chaos, churn, scenarios, serve};

const USAGE: &str =
    "bench-report (--churn | --scenarios | --serve | --resilience) [--quick] [--seed N] [--out PATH]";

enum Mode {
    Churn,
    Scenarios,
    Serve,
    Resilience,
}

fn main() {
    let mut quick = false;
    let mut seed: Option<u64> = None;
    let mut out: Option<String> = None;
    let mut mode: Option<Mode> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--churn" => mode = Some(Mode::Churn),
            "--scenarios" => mode = Some(Mode::Scenarios),
            "--serve" => mode = Some(Mode::Serve),
            "--resilience" => mode = Some(Mode::Resilience),
            "--quick" => quick = true,
            "--seed" => {
                seed = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--seed needs an integer")),
                );
            }
            "--out" => {
                out = Some(args.next().unwrap_or_else(|| die("--out needs a path")));
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            other => die(&format!("unknown argument {other}")),
        }
    }
    let mode = mode.unwrap_or_else(|| die(&format!("a mode is required\nusage: {USAGE}")));
    #[cfg(debug_assertions)]
    eprintln!("warning: debug build — run with --release for meaningful numbers");

    let (table, json, out) = match mode {
        Mode::Churn => {
            let mut opts = churn::ChurnOpts {
                quick,
                ..Default::default()
            };
            if let Some(s) = seed {
                opts.seed = s;
            }
            let report = churn::run(&opts);
            (
                churn::render_table(&report),
                churn::to_json(&report),
                out.unwrap_or_else(|| String::from("BENCH_churn.json")),
            )
        }
        Mode::Scenarios => {
            let mut opts = scenarios::ScenarioOpts {
                quick,
                ..Default::default()
            };
            if let Some(s) = seed {
                opts.seed = s;
            }
            let report = scenarios::run(&opts);
            (
                scenarios::render_table(&report),
                scenarios::to_json(&report),
                out.unwrap_or_else(|| String::from("BENCH_scenarios.json")),
            )
        }
        Mode::Serve => {
            let mut opts = serve::ServeOpts {
                quick,
                ..Default::default()
            };
            if let Some(s) = seed {
                opts.seed = s;
            }
            let report = serve::run(&opts);
            (
                serve::render_table(&report),
                serve::to_json(&report),
                out.unwrap_or_else(|| String::from("BENCH_serve.json")),
            )
        }
        Mode::Resilience => {
            let mut opts = chaos::ChaosOpts {
                quick,
                ..Default::default()
            };
            if let Some(s) = seed {
                opts.seed = s;
            }
            let report = chaos::run(&opts);
            (
                chaos::render_table(&report),
                chaos::to_json(&report),
                out.unwrap_or_else(|| String::from("BENCH_resilience.json")),
            )
        }
    };
    print!("{table}");
    write_atomic(&out, &json).unwrap_or_else(|e| die(&format!("write {out}: {e}")));
    println!("wrote {out}");
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
