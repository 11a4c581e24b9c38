//! `static_eval`: the paper's offline evaluation loop, no serving.
//!
//! The KG is the MOVIE profile (2.65M triples, REM 90%), evaluated to
//! ε = 5% at α = 5% by SRS, TWCS (m = 5) and size-stratified TWCS (m = 5,
//! 4 strata) on the dense engine. One *operation* is a round: one
//! [`Evaluator::run_trials_dense`] call per design, of
//! `TRIALS_PER_CALL` seeded evaluations, on an `nproc`-worker
//! [`TrialExecutor`]. The trial counts give each design a similar share
//! of a round's time, so a change to any one design's path moves the
//! round latency by a visible amount. The
//! untraced run times rounds; the traced run times the same rounds a
//! second time with every layer call wrapped, and checks that the
//! wrapped aggregates are byte-identical.

use crate::report::{self, Outcome, DESIGNS};
use crate::trace::{Open, Recorder};
use crate::RunArgs;
use kg_annotate::annotator::Annotator;
use kg_annotate::cost::CostModel;
use kg_annotate::lease::{ArenaLease, DenseArenaPool};
use kg_annotate::oracle::LabelOracle;
use kg_datagen::DatasetProfile;
use kg_eval::framework::{Evaluator, TrialAggregate};
use kg_eval::static_eval::run_static;
use kg_eval::{EvalConfig, TrialExecutor};
use kg_model::retract::Retraction;
use kg_model::triple::TripleRef;
use kg_model::update::UpdateBatch;
use kg_sampling::design::StaticDesign;
use kg_sampling::PopulationIndex;
use kg_stats::{PointEstimate, RunningMoments};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::cell::RefCell;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Seeded evaluations per design in one round, in [`DESIGNS`] order.
/// Size-stratified TWCS re-stratifies the whole population per
/// evaluation (about a thousand times the cost of an SRS evaluation on
/// MOVIE), hence its small count. A round of about 150 ms averages over
/// enough evaluations of each design that its 90th-percentile latency
/// sits within about 10% of the median: with a quarter of these counts,
/// the tail of the two stratified evaluations per round set the 90th
/// percentile and it swung by a quarter of its median from run to run.
const TRIALS_PER_CALL: [u64; 3] = [2048, 4096, 8];
/// Rounds whose mean annotation cost gives `cost_h`; the timed loop runs
/// at least this many rounds, so the value depends on the seed alone.
const COST_ROUNDS: u64 = 32;
/// Length of the stretches of rounds whose median rate is
/// `throughput_per_s`, in seconds.
const STRETCH_S: f64 = 2.5;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Traced rounds whose spans are written out (the rest are only summed).
const SPAN_ROUNDS: u64 = 1;
/// Spans kept per worker and design call in a recorded round.
const SPANS_PER_CALL: usize = 200_000;

/// The designs under test, in [`DESIGNS`] order.
pub fn designs() -> [Evaluator; 3] {
    [
        Evaluator::srs(),
        Evaluator::twcs(5),
        Evaluator::twcs_size_stratified(5, 4),
    ]
}

/// Everything built before timed work.
pub struct Bench {
    /// Population index shared by every evaluation.
    pub index: Arc<PopulationIndex>,
    /// Label oracle (consulted by stratification).
    pub oracle: Arc<dyn LabelOracle + Send + Sync>,
    /// Dense arenas over the materialized label store.
    pub pool: DenseArenaPool,
    /// The generator's gold accuracy.
    pub gold: f64,
    /// Seconds spent generating the dataset.
    pub generate_s: f64,
    /// Seconds spent building the population index.
    pub index_build_s: f64,
    /// Seconds spent materializing the label store.
    pub store_build_s: f64,
}

impl Bench {
    /// Generate `profile` from `seed` and build the index and label store.
    pub fn build(profile: &DatasetProfile, seed: u64) -> Bench {
        let t0 = Instant::now();
        let dataset = profile.generate(seed);
        let t1 = Instant::now();
        let index = Arc::new(
            PopulationIndex::from_population(&dataset.population)
                .expect("generated populations are non-empty"),
        );
        let t2 = Instant::now();
        let store = Arc::new(index.materialize_labels(&*dataset.oracle));
        let pool = DenseArenaPool::new(store, CostModel::default());
        let t3 = Instant::now();
        Bench {
            index,
            oracle: dataset.oracle,
            pool,
            gold: dataset.gold_accuracy,
            generate_s: (t1 - t0).as_secs_f64(),
            index_build_s: (t2 - t1).as_secs_f64(),
            store_build_s: (t3 - t2).as_secs_f64(),
        }
    }
}

/// First trial seed of `design`'s call in `round`: each design walks one
/// consecutive trial-seed stream, its trial count per round.
pub fn base_seed(seed: u64, design: usize, round: u64) -> u64 {
    let stream =
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ ((design as u64 + 1) << 40);
    stream.wrapping_add(round * TRIALS_PER_CALL[design])
}

/// The seven aggregate moments in [`TrialAggregate`] field order.
pub fn moments(a: &TrialAggregate) -> [RunningMoments; 7] {
    [
        a.estimate,
        a.moe,
        a.cost_seconds,
        a.units,
        a.triples_annotated,
        a.entities_identified,
        a.converged,
    ]
}

/// Bit fingerprint of aggregate moments: mean, standard deviation, count.
pub fn bits(moments: &[RunningMoments]) -> Vec<(u64, u64, u64)> {
    moments
        .iter()
        .map(|m| (m.mean().to_bits(), m.sample_std().to_bits(), m.count()))
        .collect()
}

/// Untraced rounds of all three designs.
struct Rounds {
    /// Wall time of each round, milliseconds.
    round_ms: Vec<f64>,
    /// Wall seconds spent in each design's calls.
    design_s: [f64; 3],
    /// Per-round aggregates, per design.
    aggregates: Vec<[TrialAggregate; 3]>,
    /// Wall seconds of the whole loop.
    wall_s: f64,
}

impl Rounds {
    /// Evaluations completed.
    fn evaluations(&self) -> u64 {
        self.aggregates.len() as u64 * TRIALS_PER_CALL.iter().sum::<u64>()
    }

    /// Evaluations per second: the median over consecutive stretches of
    /// at least `STRETCH_S` seconds of rounds of each stretch's
    /// evaluations over its time, so that one slow stretch on a shared
    /// host moves it no more than one fast stretch does. Without a whole
    /// stretch, the rate over all rounds.
    fn rate(&self) -> f64 {
        let per_round = TRIALS_PER_CALL.iter().sum::<u64>() as f64;
        let mut rates = Vec::new();
        let (mut rounds, mut ms) = (0.0, 0.0);
        for &round_ms in &self.round_ms {
            rounds += 1.0;
            ms += round_ms;
            if ms >= STRETCH_S * 1e3 {
                rates.push(rounds * per_round / (ms / 1e3));
                (rounds, ms) = (0.0, 0.0);
            }
        }
        if rates.is_empty() {
            self.evaluations() as f64 / self.wall_s
        } else {
            report::median(&rates)
        }
    }

    /// Mean annotation hours per evaluation of one design (`None`: all
    /// designs) over the first `COST_ROUNDS` rounds.
    fn cost_h(&self, design: Option<usize>) -> f64 {
        let mut costs = Vec::new();
        for round in self.aggregates.iter().take(COST_ROUNDS as usize) {
            for (d, agg) in round.iter().enumerate() {
                if design.is_none_or(|want| want == d) {
                    costs.push(agg.cost_seconds.mean() / 3600.0);
                }
            }
        }
        report::mean(&costs)
    }
}

/// Run untraced rounds until `window` has passed and at least
/// `min_rounds` rounds are done.
fn untraced_rounds(
    bench: &Bench,
    seed: u64,
    exec: &TrialExecutor,
    window: Duration,
    min_rounds: u64,
) -> Rounds {
    let config = EvalConfig::default();
    let designs = designs();
    let mut rounds = Rounds {
        round_ms: Vec::new(),
        design_s: [0.0; 3],
        aggregates: Vec::new(),
        wall_s: 0.0,
    };
    let start = Instant::now();
    let mut round = 0u64;
    while round < min_rounds || start.elapsed() < window {
        let round_start = Instant::now();
        let aggs: [TrialAggregate; 3] = std::array::from_fn(|d| {
            let t = Instant::now();
            let agg = designs[d].run_trials_dense(
                &bench.index,
                &*bench.oracle,
                &bench.pool,
                &config,
                exec,
                TRIALS_PER_CALL[d],
                base_seed(seed, d, round),
            );
            rounds.design_s[d] += t.elapsed().as_secs_f64();
            agg
        });
        rounds
            .round_ms
            .push(round_start.elapsed().as_secs_f64() * 1e3);
        rounds.aggregates.push(aggs);
        round += 1;
    }
    rounds.wall_s = start.elapsed().as_secs_f64();
    rounds
}

/// Per-design layer totals of a traced run, summed over evaluations.
#[derive(Debug, Default)]
pub struct LayerTotals {
    evals: AtomicU64,
    eval_ns: AtomicU64,
    instantiate_ns: AtomicU64,
    draw_ns: AtomicU64,
    annotate_ns: AtomicU64,
    annotate_calls: AtomicU64,
    estimate_ns: AtomicU64,
    batches: AtomicU64,
    /// Wall nanoseconds of the design's traced calls.
    wall_ns: AtomicU64,
}

impl LayerTotals {
    fn per_eval(&self, counter: &AtomicU64) -> f64 {
        let evals = self.evals.load(Ordering::Relaxed).max(1);
        counter.load(Ordering::Relaxed) as f64 / evals as f64
    }
}

/// Per-evaluation sums the wrappers fill in.
#[derive(Debug, Default, Clone, Copy)]
struct Acc {
    draw_ns: u64,
    annotate_ns: u64,
    annotate_calls: u64,
    estimate_ns: u64,
    batches: u64,
}

/// What both wrappers of one evaluation share.
struct Probe<'r> {
    rec: &'r mut Recorder,
    request: u64,
    acc: Acc,
}

fn nanos(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

/// A [`StaticDesign`] that times `draw` and `estimate`.
struct TracedDesign<'a, 'r> {
    inner: &'a mut dyn StaticDesign,
    probe: &'a RefCell<Probe<'r>>,
}

impl StaticDesign for TracedDesign<'_, '_> {
    fn draw(
        &mut self,
        rng: &mut dyn RngCore,
        annotator: &mut dyn Annotator,
        batch: usize,
    ) -> usize {
        let start = Instant::now();
        let open: Open = {
            let mut p = self.probe.borrow_mut();
            let request = p.request;
            p.rec.open("sampling.draw", request, start)
        };
        let drawn = self.inner.draw(rng, annotator, batch);
        let end = Instant::now();
        let mut p = self.probe.borrow_mut();
        p.rec.close(open, end);
        p.acc.draw_ns += nanos(start, end);
        p.acc.batches += 1;
        drawn
    }

    fn estimate(&self) -> PointEstimate {
        let start = Instant::now();
        let estimate = self.inner.estimate();
        let end = Instant::now();
        let mut p = self.probe.borrow_mut();
        let request = p.request;
        p.rec.record("stats.estimate", request, start, end);
        p.acc.estimate_ns += nanos(start, end);
        estimate
    }

    fn units(&self) -> usize {
        self.inner.units()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// An [`Annotator`] that times every annotation call and forwards the
/// engine's hints unchanged, so the wrapped engine takes its own fast
/// paths.
struct TracedAnnotator<'a, 'r> {
    inner: &'a mut dyn Annotator,
    probe: &'a RefCell<Probe<'r>>,
}

impl TracedAnnotator<'_, '_> {
    fn timed<T>(&mut self, call: impl FnOnce(&mut dyn Annotator) -> T) -> T {
        let start = Instant::now();
        let out = call(&mut *self.inner);
        let end = Instant::now();
        let mut p = self.probe.borrow_mut();
        let request = p.request;
        p.rec.record("annotate.annotate", request, start, end);
        p.acc.annotate_ns += nanos(start, end);
        p.acc.annotate_calls += 1;
        out
    }
}

impl Annotator for TracedAnnotator<'_, '_> {
    fn annotate_into(&mut self, refs: &[TripleRef], out: &mut Vec<bool>) {
        self.timed(|a| a.annotate_into(refs, out))
    }

    fn annotate_indexed_into(&mut self, refs: &[TripleRef], globals: &[u64], out: &mut Vec<bool>) {
        self.timed(|a| a.annotate_indexed_into(refs, globals, out))
    }

    fn annotate_one(&mut self, r: TripleRef) -> bool {
        self.timed(|a| a.annotate_one(r))
    }

    fn annotate_cluster(&mut self, cluster: u32, size: usize) -> u32 {
        self.timed(|a| a.annotate_cluster(cluster, size))
    }

    fn annotate_cluster_sited(&mut self, cluster: u32, base: u64, size: usize) -> u32 {
        self.timed(|a| a.annotate_cluster_sited(cluster, base, size))
    }

    fn annotate_offsets(&mut self, cluster: u32, offsets: &[usize]) -> u32 {
        self.timed(|a| a.annotate_offsets(cluster, offsets))
    }

    fn seconds(&self) -> f64 {
        self.inner.seconds()
    }

    fn entities_identified(&self) -> usize {
        self.inner.entities_identified()
    }

    fn triples_annotated(&self) -> usize {
        self.inner.triples_annotated()
    }

    fn extend_population(&mut self, first_cluster: u32, delta: &UpdateBatch) {
        self.inner.extend_population(first_cluster, delta)
    }

    fn retract(&mut self, retraction: &Retraction) {
        self.inner.retract(retraction)
    }
}

/// One traced evaluation: instantiate the design, wrap it and the
/// arena, and drive the static loop. Returns the metrics in
/// [`TrialAggregate`] field order.
fn traced_evaluation(
    eval: &Evaluator,
    index: &Arc<PopulationIndex>,
    oracle: &dyn LabelOracle,
    arena: &mut dyn Annotator,
    rec: &mut Recorder,
    totals: &LayerTotals,
    seed: u64,
) -> Vec<f64> {
    let config = EvalConfig::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let t0 = Instant::now();
    let root = rec.open("eval.evaluation", seed, t0);
    let mut design = eval.design().instantiate(index.clone(), oracle);
    let t1 = Instant::now();
    rec.record("eval.instantiate", seed, t0, t1);
    let probe = RefCell::new(Probe {
        rec,
        request: seed,
        acc: Acc::default(),
    });
    let report = {
        let mut traced_design = TracedDesign {
            inner: design.as_mut(),
            probe: &probe,
        };
        let mut traced_annotator = TracedAnnotator {
            inner: arena,
            probe: &probe,
        };
        run_static(&mut traced_design, &mut traced_annotator, &config, &mut rng)
    };
    let t2 = Instant::now();
    let probe = probe.into_inner();
    probe.rec.close(root, t2);
    let acc = probe.acc;
    totals.evals.fetch_add(1, Ordering::Relaxed);
    totals.eval_ns.fetch_add(nanos(t0, t2), Ordering::Relaxed);
    totals
        .instantiate_ns
        .fetch_add(nanos(t0, t1), Ordering::Relaxed);
    totals.draw_ns.fetch_add(acc.draw_ns, Ordering::Relaxed);
    totals
        .annotate_ns
        .fetch_add(acc.annotate_ns, Ordering::Relaxed);
    totals
        .annotate_calls
        .fetch_add(acc.annotate_calls, Ordering::Relaxed);
    totals
        .estimate_ns
        .fetch_add(acc.estimate_ns, Ordering::Relaxed);
    totals.batches.fetch_add(acc.batches, Ordering::Relaxed);
    vec![
        report.estimate.mean,
        report.moe,
        report.cost_seconds,
        report.units as f64,
        report.triples_annotated as f64,
        report.entities_identified as f64,
        report.converged as u64 as f64,
    ]
}

/// A worker's leased arena and span recorder; the recorder is handed to
/// `sink` when the worker finishes.
struct Worker<'p> {
    arena: ArenaLease<'p>,
    rec: Option<Recorder>,
    sink: &'p Mutex<Vec<Recorder>>,
}

impl Drop for Worker<'_> {
    fn drop(&mut self) {
        if let Some(rec) = self.rec.take() {
            if !rec.spans().is_empty() {
                self.sink
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .push(rec);
            }
        }
    }
}

/// [`Evaluator::run_trials_dense`] with every layer call timed: the same
/// seeds, the same leased arenas, the same fixed-shape reduction.
// One parameter per input of the traced call; a struct would only rename them.
#[allow(clippy::too_many_arguments)]
pub fn traced_trials(
    eval: &Evaluator,
    bench: &Bench,
    exec: &TrialExecutor,
    trials: u64,
    base: u64,
    totals: &LayerTotals,
    epoch: Instant,
    span_capacity: usize,
    sink: &Mutex<Vec<Recorder>>,
) -> Vec<RunningMoments> {
    let start = Instant::now();
    let out = exec.run_with(
        trials,
        base,
        7,
        || Worker {
            arena: bench.pool.checkout(),
            rec: Some(Recorder::new(epoch, span_capacity)),
            sink,
        },
        |worker, seed| {
            worker.arena.reset();
            let rec = worker.rec.as_mut().expect("recorder present until drop");
            traced_evaluation(
                eval,
                &bench.index,
                &*bench.oracle,
                worker.arena.arena_mut(),
                rec,
                totals,
                seed,
            )
        },
    );
    totals
        .wall_ns
        .fetch_add(nanos(start, Instant::now()), Ordering::Relaxed);
    out
}

fn check_rounds(outcome: &mut Outcome, bench: &Bench, rounds: &Rounds, seed: u64) {
    let config = EvalConfig::default();
    let designs = designs();
    let first = &rounds.aggregates[0];
    let one = TrialExecutor::new().with_workers(1);
    for (d, eval) in designs.iter().enumerate() {
        // Worker-count invariance: round 0 again at one worker.
        let again = eval.run_trials_dense(
            &bench.index,
            &*bench.oracle,
            &bench.pool,
            &config,
            &one,
            TRIALS_PER_CALL[d],
            base_seed(seed, d, 0),
        );
        outcome.check(bits(&moments(&again)) == bits(&moments(&first[d])), || {
            format!(
                "{}: round 0 at 1 worker differs from nproc workers",
                DESIGNS[d]
            )
        });
        // Accuracy: the mean estimate lies within the mean MoE of gold.
        let mut estimate = RunningMoments::new();
        let mut moe = RunningMoments::new();
        let mut converged = RunningMoments::new();
        for round in &rounds.aggregates {
            estimate.merge(&round[d].estimate);
            moe.merge(&round[d].moe);
            converged.merge(&round[d].converged);
        }
        let err = (estimate.mean() - bench.gold).abs();
        outcome.check(err <= moe.mean(), || {
            format!(
                "{}: mean estimate {} is {err} from gold {} (MoE {})",
                DESIGNS[d],
                estimate.mean(),
                bench.gold,
                moe.mean()
            )
        });
        let failed = converged.count() as f64 * (1.0 - converged.mean());
        outcome.failed += failed.round() as u64;
    }
    outcome.attempted += rounds.evaluations();
}

/// Run the workload on `profile` (MOVIE for the benchmark; tests use
/// smaller profiles).
pub fn run_profile(profile: &DatasetProfile, args: &RunArgs, out_dir: &Path) -> Outcome {
    let exec = TrialExecutor::new().with_workers(crate::host::nproc());
    let mut outcome = Outcome::default();
    let window = Duration::from_secs_f64(args.seconds);
    let setup = |bench: Bench| {
        // Warm-up: lease every worker's arena and fault in the index.
        untraced_rounds(&bench, args.seed ^ 1, &exec, Duration::ZERO, 1);
        bench
    };
    if !args.trace {
        let (bench, first_setup_s) = report::timed(|| setup(Bench::build(profile, args.seed)));
        let rounds = untraced_rounds(&bench, args.seed, &exec, window, COST_ROUNDS);
        outcome.set("peak_rss_mb", report::peak_rss_mb());
        check_rounds(&mut outcome, &bench, &rounds, args.seed);
        drop(bench);
        let setup_s = report::median_setup_s(first_setup_s, SETUPS - 1, || {
            setup(Bench::build(profile, args.seed))
        });
        let ms = report::sorted(rounds.round_ms.clone());
        outcome.set("setup_s", setup_s);
        outcome.set("throughput_per_s", rounds.rate());
        outcome.set("op_p50_ms", report::quantile(&ms, 0.5));
        outcome.set("cost_h", rounds.cost_h(None));
        outcome.samples.insert("op_p50_ms".into(), ms.len());
        return outcome;
    }

    // Traced run: the first half untraced, the second half traced over
    // the same seeds.
    let bench = setup(Bench::build(profile, args.seed));
    outcome.set("datagen.generate_s", bench.generate_s);
    outcome.set("sampling.index_build_s", bench.index_build_s);
    outcome.set("annotate.store_build_s", bench.store_build_s);
    let rounds = untraced_rounds(&bench, args.seed, &exec, window / 2, COST_ROUNDS);
    check_rounds(&mut outcome, &bench, &rounds, args.seed);
    let ms = report::sorted(rounds.round_ms.clone());
    outcome.set("op.p90_ms", report::quantile(&ms, 0.9));
    outcome.set("op.samples", ms.len() as f64);

    let designs = designs();
    let totals: [LayerTotals; 3] = Default::default();
    let mut triples: [RunningMoments; 3] = Default::default();
    let mut entities: [RunningMoments; 3] = Default::default();
    let sink = Mutex::new(Vec::new());
    let start = Instant::now();
    let mut round = 0u64;
    while round < 1 || start.elapsed() < window / 2 {
        let capacity = if round < SPAN_ROUNDS {
            SPANS_PER_CALL
        } else {
            0
        };
        for (d, eval) in designs.iter().enumerate() {
            let base = base_seed(args.seed, d, round);
            let traced = traced_trials(
                eval,
                &bench,
                &exec,
                TRIALS_PER_CALL[d],
                base,
                &totals[d],
                start,
                capacity,
                &sink,
            );
            if let Some(untraced) = rounds.aggregates.get(round as usize) {
                outcome.check(bits(&traced) == bits(&moments(&untraced[d])), || {
                    format!(
                        "{}: traced round {round} differs from run_trials_dense",
                        DESIGNS[d]
                    )
                });
            }
            triples[d].merge(&traced[4]);
            entities[d].merge(&traced[5]);
        }
        round += 1;
    }
    let traced_s = start.elapsed().as_secs_f64();
    let traced_evals = round * TRIALS_PER_CALL.iter().sum::<u64>();
    outcome.attempted += traced_evals;

    for (d, name) in DESIGNS.iter().enumerate() {
        let t = &totals[d];
        let us = |counter: &AtomicU64| t.per_eval(counter) / 1e3;
        let workers = exec.workers().min(TRIALS_PER_CALL[d] as usize) as f64;
        let evals = rounds.aggregates.len() as f64 * TRIALS_PER_CALL[d] as f64;
        outcome.set(format!("{name}.evals_per_s"), evals / rounds.design_s[d]);
        outcome.set(format!("{name}.cost_h"), rounds.cost_h(Some(d)));
        outcome.set(format!("{name}.eval.instantiate_us"), us(&t.instantiate_ns));
        outcome.set(
            format!("{name}.sampling.draw_self_us"),
            (t.per_eval(&t.draw_ns) - t.per_eval(&t.annotate_ns)) / 1e3,
        );
        outcome.set(format!("{name}.annotate.annotate_us"), us(&t.annotate_ns));
        outcome.set(
            format!("{name}.annotate.calls"),
            t.per_eval(&t.annotate_calls),
        );
        outcome.set(format!("{name}.annotate.triples"), triples[d].mean());
        outcome.set(format!("{name}.annotate.entities"), entities[d].mean());
        outcome.set(format!("{name}.eval.batches"), t.per_eval(&t.batches));
        outcome.set(format!("{name}.stats.estimate_us"), us(&t.estimate_ns));
        outcome.set(
            format!("{name}.eval.busy_frac"),
            t.eval_ns.load(Ordering::Relaxed) as f64
                / (workers * t.wall_ns.load(Ordering::Relaxed).max(1) as f64),
        );
    }
    let untraced_rate = rounds.evaluations() as f64 / rounds.wall_s;
    let traced_rate = traced_evals as f64 / traced_s;
    outcome.set("trace.overhead_frac", 1.0 - traced_rate / untraced_rate);

    let recorders = sink.into_inner().unwrap_or_else(|p| p.into_inner());
    let path = out_dir.join(format!("trace-static_eval-seed{}.jsonl", args.seed));
    if let Err(e) = crate::trace::write_jsonl(&path, &recorders) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    outcome
}

/// Run `static_eval` on the MOVIE profile.
pub fn run(args: &RunArgs, out_dir: &Path) -> Outcome {
    run_profile(&DatasetProfile::movie(), args, out_dir)
}
