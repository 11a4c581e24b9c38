//! Metric names and units, the result line, and the small statistics the
//! workloads share.

use kg_serve::json::Json;
use std::collections::BTreeMap;

/// End-to-end metrics: every untraced run reports each of them. The
/// meaning of the operation behind `throughput_per_s` and `op_*_ms` is
/// per workload (see `README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("cost_h", "h"),
];

/// The offline designs of `static_eval`, as metric prefixes.
pub const DESIGNS: [&str; 3] = ["srs", "twcs", "stwcs"];

/// Per-design per-layer metrics of `static_eval` (prefixed `srs.`,
/// `twcs.`, `stwcs.`).
pub const PER_DESIGN: &[(&str, &str)] = &[
    ("evals_per_s", "1/s"),
    ("cost_h", "h"),
    ("eval.instantiate_us", "us"),
    ("sampling.draw_self_us", "us"),
    ("annotate.annotate_us", "us"),
    ("annotate.calls", "count"),
    ("annotate.triples", "count"),
    ("annotate.entities", "count"),
    ("eval.batches", "count"),
    ("stats.estimate_us", "us"),
    ("eval.busy_frac", "fraction"),
];

/// Serve routes, as metric infixes.
pub const ROUTES: [&str; 3] = ["events", "read", "checkpoint"];

/// Per-route per-layer metrics of the serve workloads (`<layer>.<route>.<what>`).
pub const PER_ROUTE: &[(&str, &str, &str)] = &[
    ("route", "p50_ms", "ms"),
    ("transport", "self_ms", "ms"),
    ("api", "self_us", "us"),
];

/// Per-layer metrics that are neither per design nor per route.
pub const PER_LAYER_FLAT: &[(&str, &str)] = &[
    ("datagen.generate_s", "s"),
    ("sampling.index_build_s", "s"),
    ("annotate.store_build_s", "s"),
    ("http.read_us", "us"),
    ("http.write_us", "us"),
    ("json.parse_us", "us"),
    ("session.apply_events.p50_ms", "ms"),
    ("session.apply_events.p90_ms", "ms"),
    ("session.apply_events.first_ms", "ms"),
    ("session.apply_events.last_ms", "ms"),
    ("session.estimate_us", "us"),
    ("session.checkpoint_ms", "ms"),
    ("session.checkpoint_bytes", "B"),
    ("session.register_ms", "ms"),
    ("session.restore_ms", "ms"),
    ("spill.save_us", "us"),
    ("spill.load_us", "us"),
    ("spill.bytes", "B"),
    ("registry.evictions", "count"),
    ("registry.revivals", "count"),
    ("registry.persist_failures", "count"),
    ("registry.corrupt_dropped", "count"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("op.p90_ms", "ms"),
    ("op.samples", "count"),
    ("trace.overhead_frac", "fraction"),
];

/// Every per-layer metric with its unit, in a fixed order. A traced run
/// reports each of them; a layer the workload never enters reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for design in DESIGNS {
        for (what, unit) in PER_DESIGN {
            out.push((format!("{design}.{what}"), *unit));
        }
    }
    for (layer, what, unit) in PER_ROUTE {
        for route in ROUTES {
            out.push((format!("{layer}.{route}.{what}"), *unit));
        }
    }
    for (name, unit) in PER_LAYER_FLAT {
        out.push((name.to_string(), *unit));
    }
    out
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests or evaluations) plus output checks.
    pub attempted: u64,
    /// Failed operations plus failed output checks.
    pub failed: u64,
    /// One message per failed output check; any entry fails the run.
    pub check_failures: Vec<String>,
    /// Measured metrics by name.
    pub metrics: BTreeMap<String, f64>,
    /// Sample counts behind latency metrics, for the human summary.
    pub samples: BTreeMap<String, usize>,
}

impl Outcome {
    /// Record one output check; a failed check is counted and kept.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.check_failures.push(what());
        }
    }

    /// Record a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// The contract's result line for the given metric set: every listed
    /// metric appears, a metric the workload did not measure reads 0.
    pub fn result_line(&self, names: &[(String, &'static str)]) -> String {
        let metrics = names
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_string()
    }
}

/// The end-to-end metric list in [`Outcome::result_line`]'s shape.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|(name, unit)| (name.to_string(), *unit))
        .collect()
}

/// Nearest-rank quantile `q` of an ascending slice (0 for an empty one).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample ascending (total order; the harness never records NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// Mean of a sample (0 for an empty one).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run `setup` once and time it.
pub fn timed<T>(setup: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = setup();
    (out, start.elapsed().as_secs_f64())
}

/// The median set-up time: `first_s` plus `more` further set-ups, each
/// dropped before the next starts. Callers run the further set-ups after
/// the timed window and after reading the peak resident set size, so that
/// neither sees the memory of a discarded set-up.
pub fn median_setup_s<T>(first_s: f64, more: usize, mut setup: impl FnMut() -> T) -> f64 {
    let mut durations = vec![first_s];
    for _ in 0..more {
        let (out, seconds) = timed(&mut setup);
        drop(out);
        durations.push(seconds);
    }
    median(&durations)
}
