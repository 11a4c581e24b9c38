//! `kg-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed`, and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced). A human
//! summary and the host fingerprint go to standard error. Exits 1 when an
//! output check failed, 2 on bad arguments.

use kg_perfbench::report::{end_to_end, per_layer};
use kg_perfbench::{host, run, RunArgs};
use std::path::Path;
use std::process::{Command, ExitCode};

/// Directory (relative to the working directory) for spill stores and
/// trace files.
const OUT_DIR: &str = ".perfbench";

/// Set in the child process that runs `serve_aged`.
const CHILD_ENV: &str = "KG_PERFBENCH_CHILD";

/// `serve_aged` runs in a child of this program, held to one CPU and one
/// glibc malloc arena, because both steady its figures on a shared VM:
///
/// * One CPU. The client and the server's connection thread hand each
///   request back and forth; on two vCPUs every hand-off wakes an idle
///   vCPU through the hypervisor, whose delay grows with the host's load.
///   Over the same seven seeds, alternating, the event-post 90th
///   percentile ranged 9.2–14.1 ms on two vCPUs and 7.8–9.3 ms on one.
/// * One arena. The server gives each connection a thread of its own, and
///   glibc gives a new thread a fresh arena whenever the previous
///   connection's thread has not exited yet; each arena keeps the
///   fragments of the multi-megabyte checkpoint buffers it served. With
///   glibc's default limit (8 per core) the peak resident size of ten runs
///   of the same code ranged from 197 to 261 MB; with one arena it repeats
///   within 3%.
///
/// Returns `None` in the child. Without `taskset` the child runs on every
/// CPU, with a warning.
fn rerun_pinned(argv: &[String]) -> Option<ExitCode> {
    if std::env::var_os(CHILD_ENV).is_some() {
        return None;
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot find this program to re-run it: {e}");
            return Some(ExitCode::from(2));
        }
    };
    let child = |program: &std::ffi::OsStr, pre: &[std::ffi::OsString]| {
        Command::new(program)
            .args(pre)
            .args(argv)
            .env(CHILD_ENV, "1")
            .env("MALLOC_ARENA_MAX", "1")
            .status()
    };
    let cpu = host::last_allowed_cpu().unwrap_or(0).to_string();
    let pinned = child(
        "taskset".as_ref(),
        &["-c".into(), cpu.into(), exe.clone().into()],
    );
    let status = match pinned {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            eprintln!("warning: no taskset; serve_aged runs on every CPU");
            child(exe.as_os_str(), &[])
        }
        other => other,
    };
    Some(match status {
        Ok(status) => ExitCode::from(status.code().map_or(2, |code| code as u8)),
        Err(e) => {
            eprintln!("error: cannot re-run for serve_aged: {e}");
            ExitCode::from(2)
        }
    })
}

fn parse(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: kg-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "serve_aged" {
        if let Some(code) = rerun_pinned(&argv) {
            return code;
        }
    }
    let out_dir = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("error: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    eprintln!("host {}", host::fingerprint(out_dir));
    let outcome = match run(&args, out_dir) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let names = if args.trace {
        per_layer()
    } else {
        end_to_end()
    };
    for (name, unit) in &names {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        match outcome.samples.get(name) {
            Some(n) => eprintln!("{:<34} {value:>14.6} {unit:<8} (n={n})", name),
            None => eprintln!("{:<34} {value:>14.6} {unit}", name),
        }
    }
    for failure in &outcome.check_failures {
        eprintln!("CHECK FAILED: {failure}");
    }
    println!("{}", outcome.result_line(&names));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
