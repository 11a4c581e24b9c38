//! kg-perfbench: the repository's steady end-to-end and per-layer
//! benchmark.
//!
//! Two workloads, each chosen to stress different layers:
//!
//! * [`static_eval`] — the paper's offline evaluation loop on the MOVIE
//!   profile (sampling, annotation, estimation, trial executor).
//! * [`serve`] (`serve_aged`) — a few deeply aged RS/SS tenants served
//!   over TCP (transport, HTTP, JSON, API, and the session layer's
//!   growth, tombstones and checkpoint codec).
//!
//! Every layer is measured from outside, by timing calls into public
//! functions of the repository's crates. An untraced run reports the
//! end-to-end metrics; a traced run reports the per-layer metrics. See
//! `README.md` in this directory for the metric tables.

#![forbid(unsafe_code)]

pub mod host;
pub mod report;
pub mod serve;
pub mod static_eval;
pub mod trace;

use report::Outcome;
use std::path::Path;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["static_eval", "serve_aged"];

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

/// Run one workload; spill stores and trace files go under `out_dir`.
/// Unknown workload names are an error.
pub fn run(args: &RunArgs, out_dir: &Path) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "static_eval" => Ok(static_eval::run(args, out_dir)),
        "serve_aged" => serve::run(args, out_dir),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
