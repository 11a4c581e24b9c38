//! Tests of the benchmark harness itself, on inputs small enough for a
//! debug build.

use kg_datagen::DatasetProfile;
use kg_eval::session::EvaluatorKind;
use kg_eval::TrialExecutor;
use kg_perfbench::report::{self, Outcome};
use kg_perfbench::serve::{self, Shape, World};
use kg_perfbench::static_eval::{self, Bench, LayerTotals};
use kg_perfbench::trace::{self, Recorder};
use kg_perfbench::{RunArgs, WORKLOADS};
use kg_serve::json::{self, Json};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

fn out_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn small_shape() -> Shape {
    Shape {
        tenants: vec![
            (EvaluatorKind::Reservoir { capacity: 40 }, 3_000),
            (EvaluatorKind::Stratified, 2_000),
        ],
        preage_events: 60,
    }
}

#[test]
fn timing_wrappers_leave_results_unchanged() {
    let bench = Bench::build(&DatasetProfile::movie().scaled(0.01), 7);
    let exec = TrialExecutor::new().with_workers(2);
    let config = kg_eval::EvalConfig::default();
    let sink = Mutex::new(Vec::new());
    for (d, eval) in static_eval::designs().iter().enumerate() {
        let base = static_eval::base_seed(7, d, 3);
        let untraced = eval.run_trials_dense(
            &bench.index,
            &*bench.oracle,
            &bench.pool,
            &config,
            &exec,
            6,
            base,
        );
        let totals = LayerTotals::default();
        let traced = static_eval::traced_trials(
            eval,
            &bench,
            &exec,
            6,
            base,
            &totals,
            Instant::now(),
            10_000,
            &sink,
        );
        assert_eq!(
            static_eval::bits(&traced),
            static_eval::bits(&static_eval::moments(&untraced)),
            "design {d}"
        );
    }
    let recorders = sink.into_inner().unwrap();
    let names: Vec<&str> = recorders
        .iter()
        .flat_map(|r| r.spans().iter().map(|s| s.name))
        .collect();
    for layer in [
        "eval.instantiate",
        "sampling.draw",
        "annotate.annotate",
        "stats.estimate",
    ] {
        assert!(names.contains(&layer), "no {layer} span");
    }
}

#[test]
fn serve_tiers_agree_and_the_traced_run_reports_every_serve_layer() {
    let args = RunArgs {
        workload: "serve_aged".into(),
        seed: 3,
        seconds: 1.0,
        trace: true,
    };
    let outcome = serve::run_shape(&small_shape(), &args, &out_dir("tiers")).unwrap();
    assert!(outcome.correct(), "{:?}", outcome.check_failures);
    assert_eq!(outcome.failed, 0);
    for layer in [
        "transport.events.self_ms",
        "api.events.self_us",
        "http.read_us",
        "json.parse_us",
        "session.apply_events.p50_ms",
        "session.checkpoint_bytes",
        "spill.bytes",
        "session.restore_ms",
    ] {
        assert!(outcome.metrics[layer] > 0.0, "{layer} not measured");
    }
    assert_eq!(outcome.metrics["registry.revivals"], 2.0);
}

#[test]
fn a_corrupted_served_estimate_fails_the_run() {
    let mut world = World::build(&small_shape(), 5, false).unwrap();
    serve::run_phase(
        &mut world,
        false,
        Duration::from_millis(500),
        Instant::now(),
    );
    let mut clean = Outcome::default();
    serve::verify(&world, &mut clean);
    assert!(clean.correct(), "{:?}", clean.check_failures);

    let last = world.clients[0][0]
        .last
        .as_mut()
        .expect("an estimate was served");
    last.mean_bits ^= 1;
    let mut corrupted = Outcome::default();
    serve::verify(&world, &mut corrupted);
    assert!(!corrupted.correct());
    assert!(corrupted.failed >= 1);
}

#[test]
fn result_line_has_the_contract_shape() {
    let mut outcome = Outcome::default();
    outcome.set("setup_s", 0.25);
    outcome.check(true, String::new);
    let line = outcome.result_line(&report::end_to_end());
    let doc = json::parse(line.as_bytes()).unwrap();
    let Json::Obj(members) = &doc else {
        panic!("not an object: {line}")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
    let metrics = doc.get("metrics").unwrap();
    for (name, unit) in report::END_TO_END {
        let metric = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(metric.get("unit").unwrap().as_str(), Some(*unit));
        assert!(metric.get("value").unwrap().as_f64().is_some());
    }
}

#[test]
fn benchmark_json_lists_the_harness_workloads_and_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = json::parse(&std::fs::read(path).unwrap()).unwrap();
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
    let end_to_end: Vec<(String, String)> = report::END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names("end_to_end"), end_to_end);
    let per_layer: Vec<(String, String)> = report::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(names("per_layer"), per_layer);
}

#[test]
fn self_time_subtracts_the_children() {
    let epoch = Instant::now();
    let at = |ns: u64| epoch + Duration::from_nanos(ns);
    let mut rec = Recorder::new(epoch, 16);
    let root = rec.open("root", 1, at(0));
    rec.record("child", 1, at(10), at(30));
    let mid = rec.open("mid", 1, at(40));
    rec.record("leaf", 1, at(45), at(50));
    rec.close(mid, at(70));
    rec.close(root, at(100));
    assert_eq!(
        trace::self_times(rec.spans()),
        vec![100 - 20 - 30, 20, 30 - 5, 5]
    );
    let full = Recorder::new(epoch, 0);
    assert!(full.spans().is_empty());
}
