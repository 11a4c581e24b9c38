//! `serve_aged`: a few long-lived monitor tenants served over TCP.
//!
//! Four tenants — RS and SS, over bases of 2·10⁴ and 10⁵ clusters of
//! sizes 1–8 — are pre-aged in-process through
//! [`SessionRegistry::apply_events`] before [`Server::start`] runs on the
//! same registry. Every tenant runs the dense engine with the batched
//! offer path. One closed-loop client thread serves every tenant in turn,
//! one connection at a time, so every tenant's request order is
//! sequential and replayable and no request waits behind another; per
//! tenant, event posts (10 clusters inserted, 2 live triples retracted)
//! alternate with estimate reads, and every `CYCLE`-th request is a
//! checkpoint.
//!
//! The traced run replays each request on three tiers, each with its own
//! registry built from the same seed: (1) TCP through the server, (2)
//! in-process [`http::read_request`] → [`api::handle`] →
//! [`http::write_response`], (3) the direct [`SessionRegistry`] call. The
//! differences between tiers give the transport, http/api and session
//! self times.

use crate::report::{self, Outcome, ROUTES};
use crate::trace::Recorder;
use crate::RunArgs;
use kg_eval::dynamic::reservoir::OfferMode;
use kg_eval::session::{
    Engine, EstimateReport, EvaluatorKind, LifecyclePolicy, SessionError, SessionRegistry,
    SessionSpec,
};
use kg_eval::{CheckpointStore, EvalConfig, TrialExecutor};
use kg_model::retract::{KgEvent, Retraction};
use kg_model::update::UpdateBatch;
use kg_serve::json::{self, Json};
use kg_serve::{api, http, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashSet};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Length of the sub-windows whose median throughput and latency
/// percentiles an untraced run reports, so that one slow stretch on a
/// shared host moves a run's figures no more than one fast stretch does.
/// Two seconds hold about two hundred event posts, so each sub-window's
/// 90th percentile has more than ten samples beyond it.
const SUB_WINDOW: Duration = Duration::from_secs(2);
/// Requests per tenant cycle: event posts alternate with reads, and the
/// last request of a cycle is a checkpoint.
const CYCLE: u64 = 48;
/// Event posts per tenant after which its cumulative cost is read for
/// `cost_h`; every run gets there, so `cost_h` depends on the seed alone.
const COST_EVENTS: u64 = 40;
/// Events per `apply_events` call when pre-ageing or replaying. The
/// estimate stream does not depend on how events are split into
/// requests, so these calls may be large.
const CHUNK: usize = 500;

/// Tenant shapes and pre-ageing depth.
#[derive(Debug, Clone)]
pub struct Shape {
    /// (evaluator, base clusters) per tenant.
    pub tenants: Vec<(EvaluatorKind, usize)>,
    /// Events applied to each tenant during set-up.
    pub preage_events: usize,
}

impl Shape {
    /// The benchmark's shape: an RS and an SS tenant over 10⁵ clusters
    /// and another pair over 2·10⁴, each 4000 events old.
    pub fn benchmark() -> Shape {
        Shape {
            tenants: vec![
                (EvaluatorKind::Reservoir { capacity: 100 }, 100_000),
                (EvaluatorKind::Stratified, 100_000),
                (EvaluatorKind::Stratified, 20_000),
                (EvaluatorKind::Reservoir { capacity: 100 }, 20_000),
            ],
            preage_events: 4_000,
        }
    }
}

/// Request routes, in [`ROUTES`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `POST /kg/{id}/events`.
    Events = 0,
    /// `GET /kg/{id}/estimate`.
    Read = 1,
    /// `POST /kg/{id}/checkpoint`.
    Checkpoint = 2,
}

/// One request against a tenant.
#[derive(Debug, Clone)]
pub enum Op {
    /// Apply events.
    Events(Vec<KgEvent>),
    /// Read the estimate.
    Estimate,
    /// Checkpoint the session.
    Checkpoint,
}

impl Op {
    fn route(&self) -> Route {
        match self {
            Op::Events(_) => Route::Events,
            Op::Estimate => Route::Read,
            Op::Checkpoint => Route::Checkpoint,
        }
    }
}

/// An estimate as served: exact bits plus the cumulative cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Served {
    /// `mean_bits`.
    pub mean_bits: u64,
    /// `var_bits`.
    pub var_bits: u64,
    /// `cumulative_cost_seconds`.
    pub cost_s: f64,
}

impl Served {
    fn from_report(r: &EstimateReport) -> Served {
        Served {
            mean_bits: r.mean.to_bits(),
            var_bits: r.var_of_mean.to_bits(),
            cost_s: r.cumulative_cost_seconds,
        }
    }

    fn from_json(doc: &Json) -> Option<Served> {
        let bits = |key| u64::from_str_radix(doc.get(key)?.as_str()?, 16).ok();
        Some(Served {
            mean_bits: bits("mean_bits")?,
            var_bits: bits("var_bits")?,
            cost_s: doc.get("cumulative_cost_seconds")?.as_f64()?,
        })
    }

    /// Same estimate bits (the cost may differ between request
    /// partitions of one event stream).
    pub fn same_estimate(&self, other: &Served) -> bool {
        self.mean_bits == other.mean_bits && self.var_bits == other.var_bits
    }
}

/// Raw population of a tenant (cluster sizes at insertion plus the dead
/// raw offsets), used to generate retractions of live triples.
#[derive(Debug, Clone)]
struct Population {
    sizes: Vec<u32>,
    dead: HashSet<(u32, u32)>,
    live: u64,
}

impl Population {
    fn new(sizes: &[u32]) -> Self {
        Population {
            sizes: sizes.to_vec(),
            dead: HashSet::new(),
            live: sizes.iter().map(|&s| u64::from(s)).sum(),
        }
    }

    fn apply(&mut self, event: &KgEvent) {
        if let Some(r) = event.retracted() {
            for (cluster, offsets) in r.entries() {
                for &off in offsets.iter() {
                    self.dead.insert((*cluster, off));
                }
            }
            self.live -= r.total_retracted();
        }
        if let Some(batch) = event.inserted() {
            self.sizes.extend_from_slice(batch.delta_sizes());
            self.live += batch.total_triples();
        }
    }

    /// `n` distinct live triples, uniformly over clusters then offsets.
    fn pick_live(&self, rng: &mut StdRng, n: usize) -> Retraction {
        assert!(self.live > n as u64, "the population keeps live triples");
        let mut picked: BTreeSet<(u32, u32)> = BTreeSet::new();
        while picked.len() < n {
            let cluster = rng.gen_range(0..self.sizes.len()) as u32;
            let offset = rng.gen_range(0..self.sizes[cluster as usize]);
            if !self.dead.contains(&(cluster, offset)) {
                picked.insert((cluster, offset));
            }
        }
        let mut entries: Vec<(u32, Vec<u32>)> = Vec::new();
        for (cluster, offset) in picked {
            match entries.last_mut() {
                Some((c, offsets)) if *c == cluster => offsets.push(offset),
                _ => entries.push((cluster, vec![offset])),
            }
        }
        Retraction::new(entries).expect("picked triples are distinct")
    }
}

/// Client-side state of one tenant.
pub struct Tenant {
    /// The tenant's spec.
    pub spec: SessionSpec,
    /// Session id on each tier (tiers 2 and 3 only in traced runs).
    pub ids: [u64; 3],
    /// Every event applied since registration, in order.
    pub events: Vec<KgEvent>,
    /// Last checkpoint served over TCP.
    pub checkpoint: Vec<u8>,
    /// `events.len()` when that checkpoint was taken.
    pub checkpoint_at: usize,
    /// Last estimate served over TCP (after the last applied event).
    pub last: Option<Served>,
    /// Requests issued to this tenant over TCP.
    pub requests: u64,
    /// Event posts served over TCP.
    pub events_posted: u64,
    /// Cumulative cost after [`COST_EVENTS`] event posts.
    pub cost_mark: Option<f64>,
    /// A request of this tenant failed, so its served state is unknown.
    pub broken: bool,
    pop: Population,
    rng: StdRng,
}

impl Tenant {
    fn new(spec: SessionSpec, script_seed: u64) -> Tenant {
        let pop = Population::new(&spec.base_sizes);
        Tenant {
            spec,
            ids: [0; 3],
            events: Vec::new(),
            checkpoint: Vec::new(),
            checkpoint_at: 0,
            last: None,
            requests: 0,
            events_posted: 0,
            cost_mark: None,
            broken: false,
            pop,
            rng: StdRng::seed_from_u64(script_seed),
        }
    }

    /// The tenant's next event post: 10 clusters of sizes 1–8 inserted,
    /// then 2 live triples retracted.
    fn next_events(&mut self) -> Vec<KgEvent> {
        let sizes: Vec<u32> = (0..10).map(|_| self.rng.gen_range(1..=8)).collect();
        let insert = KgEvent::Insert(UpdateBatch::from_sizes(sizes).expect("sizes are positive"));
        self.pop.apply(&insert);
        let retract = KgEvent::Retract(self.pop.pick_live(&mut self.rng, 2));
        self.pop.apply(&retract);
        vec![insert, retract]
    }
}

fn mix(seed: u64, salt: u64) -> u64 {
    // Derived seeds stay below 2^53 so JSON carries them exactly.
    (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)) >> 11
}

/// The tenants of a seed, not yet registered or aged.
fn tenants(shape: &Shape, seed: u64) -> Vec<Tenant> {
    shape
        .tenants
        .iter()
        .enumerate()
        .map(|(t, &(kind, clusters))| {
            let t = t as u64;
            let mut rng = StdRng::seed_from_u64(mix(seed, 300 + t));
            let spec = SessionSpec {
                kind,
                engine: Engine::Dense,
                offer_mode: OfferMode::Batched,
                m: 5,
                config: EvalConfig::default(),
                seed: mix(seed, 100 + t),
                oracle_accuracy: 0.85 + 0.03 * t as f64,
                oracle_seed: mix(seed, 200 + t),
                base_sizes: (0..clusters).map(|_| rng.gen_range(1..=8)).collect(),
            };
            Tenant::new(spec, mix(seed, 400 + t))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

fn join_u32(values: &[u32]) -> String {
    let parts: Vec<String> = values.iter().map(u32::to_string).collect();
    parts.join(",")
}

/// `POST /kg/{id}/events` body.
fn events_body(events: &[KgEvent]) -> String {
    let entries = |r: &Retraction| -> String {
        let parts: Vec<String> = r
            .entries()
            .iter()
            .map(|(c, offsets)| format!(r#"{{"cluster":{c},"offsets":[{}]}}"#, join_u32(offsets)))
            .collect();
        parts.join(",")
    };
    let parts: Vec<String> = events
        .iter()
        .map(|event| match event {
            KgEvent::Insert(b) => {
                format!(
                    r#"{{"op":"insert","sizes":[{}]}}"#,
                    join_u32(b.delta_sizes())
                )
            }
            KgEvent::Retract(r) => format!(r#"{{"op":"retract","entries":[{}]}}"#, entries(r)),
            KgEvent::Revise(r, b) => format!(
                r#"{{"op":"revise","entries":[{}],"sizes":[{}]}}"#,
                entries(r),
                join_u32(b.delta_sizes())
            ),
        })
        .collect();
    format!(r#"{{"events":[{}]}}"#, parts.join(","))
}

/// The raw HTTP request for `op` against session `id`.
fn request_bytes(op: &Op, id: u64) -> Vec<u8> {
    let (method, path, body) = match op {
        Op::Events(events) => ("POST", format!("/kg/{id}/events"), events_body(events)),
        Op::Estimate => ("GET", format!("/kg/{id}/estimate"), String::new()),
        Op::Checkpoint => ("POST", format!("/kg/{id}/checkpoint"), String::new()),
    };
    format!(
        "{method} {path} HTTP/1.1\r\nhost: kg-serve\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One TCP exchange; returns the status and the raw response body.
fn exchange<'b>(
    addr: SocketAddr,
    request: &[u8],
    buf: &'b mut Vec<u8>,
) -> Result<(u16, &'b [u8]), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .write_all(request)
        .map_err(|e| format!("send: {e}"))?;
    buf.clear();
    stream.read_to_end(buf).map_err(|e| format!("read: {e}"))?;
    let split = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response without a header end")?;
    let status = std::str::from_utf8(&buf[..split])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or("response without a status")?;
    Ok((status, &buf[split + 4..]))
}

/// What a tier answered for one op.
#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Estimate(Served),
    Checkpoint(Vec<u8>),
}

/// The answer in a 200 response body. A checkpoint body is scanned for
/// its hex payload rather than parsed: `json::parse` re-validates the
/// rest of its input for every string character, which is quadratic in
/// a multi-megabyte payload.
fn answer_from_body(op: &Op, body: &[u8]) -> Option<Answer> {
    if let Op::Checkpoint = op {
        const KEY: &[u8] = b"\"checkpoint\":\"";
        let start = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
        let len = body[start..].iter().position(|&b| b == b'"')?;
        let hex = std::str::from_utf8(&body[start..start + len]).ok()?;
        return api::hex_decode(hex).map(Answer::Checkpoint);
    }
    answer_from_json(op, &json::parse(body).ok()?)
}

fn answer_from_json(op: &Op, doc: &Json) -> Option<Answer> {
    match op {
        Op::Events(_) | Op::Estimate => Served::from_json(doc).map(Answer::Estimate),
        Op::Checkpoint => api::hex_decode(doc.get("checkpoint")?.as_str()?).map(Answer::Checkpoint),
    }
}

fn answer_from_session(op: &Op, registry: &SessionRegistry, id: u64) -> Option<Answer> {
    let estimate = |r: Result<EstimateReport, SessionError>| {
        r.ok().map(|r| Answer::Estimate(Served::from_report(&r)))
    };
    match op {
        Op::Events(events) => estimate(registry.apply_events(id, events)),
        Op::Estimate => estimate(registry.estimate(id)),
        Op::Checkpoint => registry.checkpoint(id).ok().map(Answer::Checkpoint),
    }
}

// ---------------------------------------------------------------------------
// The served world
// ---------------------------------------------------------------------------

/// A server that is killed when dropped.
struct ServerGuard(Option<Server>);

impl Drop for ServerGuard {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.kill();
        }
    }
}

/// A directory removed when dropped.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn registry() -> SessionRegistry {
    SessionRegistry::with_executor(TrialExecutor::new().with_workers(crate::host::nproc()))
}

/// The registries, tenants and server a run drives.
pub struct World {
    addr: SocketAddr,
    server: ServerGuard,
    /// Tiers 2 and 3 (traced runs only).
    tiers: Option<(SessionRegistry, SessionRegistry)>,
    /// Tenants per closed-loop client thread. There is one client: with
    /// a second one on a 2-vCPU host, event posts waited behind the other
    /// client's checkpoints and the server's connection threads, their
    /// 90th percentile sat at 1.5× the median and swung from run to run.
    pub clients: Vec<Vec<Tenant>>,
    /// Milliseconds of each set-up registration.
    setup_register_ms: Vec<f64>,
}

impl World {
    /// Register and pre-age every tenant on each tier's registry (one, or
    /// three for a traced run), then start the server on tier 1's.
    pub fn build(shape: &Shape, seed: u64, traced: bool) -> Result<World, String> {
        let registries: Vec<SessionRegistry> = (0..if traced { 3 } else { 1 })
            .map(|_| registry())
            .collect();
        let mut client = Vec::new();
        let mut setup_register_ms = Vec::new();
        for mut tenant in tenants(shape, seed) {
            for (tier, registry) in registries.iter().enumerate() {
                let start = Instant::now();
                tenant.ids[tier] = registry
                    .register(tenant.spec.clone())
                    .map_err(|e| format!("set-up registration: {e}"))?;
                setup_register_ms.push(start.elapsed().as_secs_f64() * 1e3);
            }
            let events: Vec<KgEvent> = (0..shape.preage_events)
                .flat_map(|_| tenant.next_events())
                .collect();
            for chunk in events.chunks(CHUNK) {
                for (tier, registry) in registries.iter().enumerate() {
                    registry
                        .apply_events(tenant.ids[tier], chunk)
                        .map_err(|e| format!("set-up pre-ageing: {e}"))?;
                }
            }
            tenant.events = events;
            client.push(tenant);
        }
        let mut registries = registries.into_iter();
        let reg1 = Arc::new(registries.next().expect("tier 1 exists"));
        let tiers = registries.next().zip(registries.next());
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let server = Server::start(listener, reg1, ServerConfig::default(), None)
            .map_err(|e| format!("server start: {e}"))?;
        Ok(World {
            addr: server.addr(),
            server: ServerGuard(Some(server)),
            tiers,
            clients: vec![client],
            setup_register_ms,
        })
    }
}

// ---------------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------------

/// What one client measured in one phase.
#[derive(Debug, Default)]
pub struct ClientStats {
    /// Requests issued.
    pub requests: u64,
    /// Requests that failed (non-2xx, transport error, bad response).
    pub failed: u64,
    /// Output checks made.
    pub checks: u64,
    /// Failed output checks.
    pub check_failures: Vec<String>,
    /// First request errors seen.
    pub errors: Vec<String>,
    /// When the phase started.
    started: Option<Instant>,
    /// Every tier-1 request: completion time in the phase, route, ms.
    done: Vec<(Duration, Route, f64)>,
    /// Tier-1 minus tier-2 time per route, ms.
    transport_self_ms: [Vec<f64>; 3],
    /// `api::handle` minus the session call per route, µs.
    api_self_us: [Vec<f64>; 3],
    http_read_us: Vec<f64>,
    http_write_us: Vec<f64>,
    json_parse_us: Vec<f64>,
    /// `SessionRegistry::apply_events` in request order, ms.
    session_events_ms: Vec<f64>,
    session_estimate_us: Vec<f64>,
    session_checkpoint_ms: Vec<f64>,
    checkpoint_bytes: Vec<f64>,
    rec: Option<Recorder>,
}

impl ClientStats {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.check_failures.push(what());
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if let Some(rec) = self.rec.as_mut() {
            rec.record(name, request, start, end);
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Issue `op` for `tenant` over TCP (and, when `tiers` is given, on tiers
/// 2 and 3), update the tenant, and record timings. Returns the tier-1
/// answer, or `None` when the request failed.
fn execute(
    world: &World,
    tiers: Option<&(SessionRegistry, SessionRegistry)>,
    tenant: &mut Tenant,
    op: Op,
    stats: &mut ClientStats,
    buf: &mut Vec<u8>,
) -> Option<Answer> {
    let request_id = stats.requests;
    stats.requests += 1;
    tenant.requests += 1;
    let wire = request_bytes(&op, tenant.ids[0]);
    let t0 = Instant::now();
    let root = stats
        .rec
        .as_mut()
        .map(|rec| rec.open("request", request_id, t0));
    let result = exchange(world.addr, &wire, buf);
    let t1 = Instant::now();
    stats.record("tier1.tcp", request_id, t0, t1);
    if let Some(started) = stats.started {
        stats.done.push((t1 - started, op.route(), ms(t1 - t0)));
    }
    let answer = match result {
        Ok((200, body)) => {
            let answer = answer_from_body(&op, body);
            if answer.is_none() {
                stats.fail(format!("request {request_id}: unexpected 200 response"));
            }
            answer
        }
        Ok((status, body)) => {
            let body = String::from_utf8_lossy(body).into_owned();
            stats.fail(format!("request {request_id}: status {status}: {body}"));
            None
        }
        Err(e) => {
            stats.fail(format!("request {request_id}: {e}"));
            None
        }
    };
    if let (Some(answer), Some((reg2, reg3))) = (&answer, tiers) {
        let (a2, a3) = replay_tiers(reg2, reg3, tenant, &op, request_id, t1 - t0, stats);
        let agree = |other: &Option<Answer>| match (answer, other) {
            (Answer::Estimate(a), Some(Answer::Estimate(b))) => a.same_estimate(b),
            (a, b) => Some(a) == b.as_ref(),
        };
        stats.check(agree(&a2) && agree(&a3), || {
            format!("request {request_id}: tiers disagree: tcp {answer:?}, http/api {a2:?}, session {a3:?}")
        });
    }
    if let (Some(rec), Some(root)) = (stats.rec.as_mut(), root) {
        rec.close(root, Instant::now());
    }
    match &answer {
        None => tenant.broken = true,
        Some(Answer::Checkpoint(bytes)) => {
            tenant.checkpoint = bytes.clone();
            tenant.checkpoint_at = tenant.events.len();
        }
        Some(Answer::Estimate(served)) => {
            tenant.last = Some(*served);
            if let Op::Events(events) = op {
                tenant.events.extend(events);
                tenant.events_posted += 1;
                if tenant.events_posted == COST_EVENTS {
                    tenant.cost_mark = Some(served.cost_s);
                }
            }
        }
    }
    answer
}

/// Replay one op on tier 2 (the server's exchange without the socket)
/// and tier 3 (the registry call), recording the in-process layer times.
fn replay_tiers(
    reg2: &SessionRegistry,
    reg3: &SessionRegistry,
    tenant: &Tenant,
    op: &Op,
    request_id: u64,
    tcp: Duration,
    stats: &mut ClientStats,
) -> (Option<Answer>, Option<Answer>) {
    let route = op.route() as usize;
    let wire = request_bytes(op, tenant.ids[1]);
    let t0 = Instant::now();
    let parsed = http::read_request(&mut BufReader::new(&wire[..]));
    let t1 = Instant::now();
    let req = match parsed {
        Ok(req) => req,
        Err(e) => {
            stats.check(false, || {
                format!("request {request_id}: tier 2 could not read it: {e:?}")
            });
            return (None, None);
        }
    };
    if !req.body.is_empty() {
        let p0 = Instant::now();
        let doc = json::parse(&req.body);
        let p1 = Instant::now();
        std::hint::black_box(doc.is_ok());
        stats.json_parse_us.push(us(p1 - p0));
        stats.record("tier2.json.parse", request_id, p0, p1);
    }
    let t2 = Instant::now();
    let (status, doc) = api::handle(reg2, &req);
    let t3 = Instant::now();
    let mut out = Vec::new();
    let written = http::write_response(&mut out, status, &doc.to_string());
    let t4 = Instant::now();
    std::hint::black_box(&out);
    stats.record("tier2.http.read", request_id, t0, t1);
    stats.record("tier2.api.handle", request_id, t2, t3);
    stats.record("tier2.http.write", request_id, t3, t4);
    stats.http_read_us.push(us(t1 - t0));
    stats.http_write_us.push(us(t4 - t3));
    let in_process = (t1 - t0) + (t3 - t2) + (t4 - t3);
    stats.transport_self_ms[route].push(ms(tcp.saturating_sub(in_process)));
    let a2 = (status == 200 && written.is_ok())
        .then(|| answer_from_json(op, &doc))
        .flatten();

    let s0 = Instant::now();
    let a3 = answer_from_session(op, reg3, tenant.ids[2]);
    let s1 = Instant::now();
    let session = s1 - s0;
    stats.api_self_us[route].push(us((t3 - t2).saturating_sub(session)));
    let name = match op {
        Op::Events(_) => {
            stats.session_events_ms.push(ms(session));
            "tier3.session.apply_events"
        }
        Op::Estimate => {
            stats.session_estimate_us.push(us(session));
            "tier3.session.estimate"
        }
        Op::Checkpoint => {
            stats.session_checkpoint_ms.push(ms(session));
            if let Some(Answer::Checkpoint(bytes)) = &a3 {
                stats.checkpoint_bytes.push(bytes.len() as f64);
            }
            "tier3.session.checkpoint"
        }
    };
    stats.record(name, request_id, s0, s1);
    (a2, a3)
}

/// Serve one client's tenants round-robin until `deadline`, and past it
/// until every tenant has reached its cost mark.
fn client_loop(
    world: &World,
    tiers: Option<&(SessionRegistry, SessionRegistry)>,
    tenants: &mut [Tenant],
    deadline: Instant,
    stats: &mut ClientStats,
) {
    let mut buf = Vec::new();
    for turn in 0.. {
        let marked = tenants.iter().all(|t| t.cost_mark.is_some() || t.broken);
        let live = tenants.iter().any(|t| !t.broken);
        if !live || (marked && Instant::now() >= deadline) {
            break;
        }
        let tenant = &mut tenants[turn % tenants.len()];
        if tenant.broken {
            continue;
        }
        let step = tenant.requests % CYCLE;
        let op = if step == CYCLE - 1 {
            Op::Checkpoint
        } else if step.is_multiple_of(2) {
            Op::Events(tenant.next_events())
        } else {
            Op::Estimate
        };
        execute(world, tiers, tenant, op, stats, &mut buf);
    }
}

/// Run every client for `window` (traced: replaying each request on
/// tiers 2 and 3); returns each client's stats.
pub fn run_phase(
    world: &mut World,
    traced: bool,
    window: Duration,
    epoch: Instant,
) -> Vec<ClientStats> {
    let mut clients = std::mem::take(&mut world.clients);
    let start = Instant::now();
    let deadline = start + window;
    let world_ref: &World = world;
    let tiers = world_ref.tiers.as_ref().filter(|_| traced);
    let stats = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|tenants| {
                scope.spawn(move || {
                    let mut stats = ClientStats {
                        rec: traced.then(|| Recorder::new(epoch, 2_000_000)),
                        started: Some(start),
                        ..ClientStats::default()
                    };
                    client_loop(world_ref, tiers, tenants, deadline, &mut stats);
                    stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    world.clients = clients;
    stats
}

// ---------------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------------

fn replay_to_end(
    registry: &SessionRegistry,
    start: Result<u64, SessionError>,
    events: &[KgEvent],
) -> Result<Served, String> {
    let id = start.map_err(|e| e.to_string())?;
    let mut result = Ok(());
    for chunk in events.chunks(CHUNK) {
        if let Err(e) = registry.apply_events(id, chunk) {
            result = Err(e.to_string());
            break;
        }
    }
    let report = result.and_then(|()| registry.estimate(id).map_err(|e| e.to_string()));
    registry.remove(id);
    Ok(Served::from_report(&report?))
}

/// The checks of one tenant: its last served estimate against an
/// in-process replay of its whole event log on a fresh registry, and its
/// last checkpoint restored and fed the events after it. Returns how
/// many checks ran and the failed ones.
fn check_tenant(tenant: &Tenant) -> (u64, Vec<String>) {
    let registry = SessionRegistry::with_executor(TrialExecutor::new().with_workers(1));
    let id = tenant.ids[0];
    let Some(served) = tenant.last else {
        return (1, vec![format!("tenant {id}: no estimate was served")]);
    };
    let mut failures = Vec::new();
    let start = registry.register(tenant.spec.clone());
    match replay_to_end(&registry, start, &tenant.events) {
        Ok(replayed) if replayed.same_estimate(&served) => {}
        other => failures.push(format!(
            "tenant {id}: served {served:?}, in-process replay {other:?}"
        )),
    }
    if tenant.checkpoint.is_empty() {
        return (1, failures);
    }
    let start = registry.restore(&tenant.checkpoint);
    match replay_to_end(&registry, start, &tenant.events[tenant.checkpoint_at..]) {
        Ok(resumed) if resumed.same_estimate(&served) => {}
        other => failures.push(format!(
            "tenant {id}: restored checkpoint resumes to {other:?}, served {served:?}"
        )),
    }
    (2, failures)
}

/// Run [`check_tenant`] on every tenant that saw no failed request, on
/// `nproc` threads. Each mismatch is a failed check.
pub fn verify(world: &World, outcome: &mut Outcome) {
    let tenants: Vec<&Tenant> = world
        .clients
        .iter()
        .flatten()
        .filter(|t| !t.broken)
        .collect();
    let per_thread = tenants.len().div_ceil(crate::host::nproc()).max(1);
    let results: Vec<(u64, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .chunks(per_thread)
            .map(|group| {
                scope.spawn(move || group.iter().map(|t| check_tenant(t)).collect::<Vec<_>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("replay threads do not panic"))
            .collect()
    });
    for (checks, failures) in results {
        outcome.attempted += checks;
        outcome.failed += failures.len() as u64;
        outcome.check_failures.extend(failures);
    }
}

/// The spill and lifecycle layers on each tenant's tier-3 checkpoint:
/// `CheckpointStore::save`/`load` in a store of its own, then restore
/// into a lifecycle registry, evict, and revive with an estimate read,
/// which must match tier 3.
fn lifecycle_probe(world: &World, out_dir: &Path, outcome: &mut Outcome) {
    let Some((_, reg3)) = &world.tiers else {
        return;
    };
    let dir = TempDir(out_dir.join(format!("spill-{}", std::process::id())));
    let (store, life_store) = match (
        CheckpointStore::open(dir.0.join("probe")),
        CheckpointStore::open(dir.0.join("registry")),
    ) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            outcome.check(false, || format!("cannot open a spill store: {e}"));
            return;
        }
    };
    let life = SessionRegistry::with_lifecycle(
        TrialExecutor::new().with_workers(1),
        LifecyclePolicy::default(),
        life_store,
    );
    let (mut save, mut load, mut bytes, mut restore) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for tenant in world.clients.iter().flatten().filter(|t| !t.broken) {
        let id3 = tenant.ids[2];
        let (Ok(record), Ok(expected)) = (reg3.checkpoint(id3), reg3.estimate(id3)) else {
            outcome.check(false, || format!("tier 3 lost tenant {id3}"));
            continue;
        };
        let t0 = Instant::now();
        let saved = store.save(id3, &record);
        let t1 = Instant::now();
        let loaded = store.load(id3);
        let t2 = Instant::now();
        save.push(us(t1 - t0));
        load.push(us(t2 - t1));
        bytes.push(record.len() as f64);
        outcome.check(
            saved.is_ok() && loaded.as_deref().ok() == Some(&record[..]),
            || format!("the spill store did not return tenant {id3}'s record"),
        );
        let t3 = Instant::now();
        let restored = life.restore(&record);
        restore.push(ms(t3.elapsed()));
        let revived = restored.and_then(|id| {
            life.evict(id)?;
            let report = life.estimate(id);
            life.remove(id);
            report
        });
        let expected = Served::from_report(&expected);
        outcome.check(
            revived.is_ok_and(|r| Served::from_report(&r).same_estimate(&expected)),
            || format!("tenant {id3}: the restored, evicted and revived session serves another estimate"),
        );
    }
    let stats = life.stats();
    outcome.set("spill.save_us", report::median(&save));
    outcome.set("spill.load_us", report::median(&load));
    outcome.set("spill.bytes", report::mean(&bytes));
    outcome.set("session.restore_ms", report::median(&restore));
    outcome.set("registry.evictions", stats.evictions as f64);
    outcome.set("registry.revivals", stats.revivals as f64);
    outcome.set("registry.persist_failures", stats.persist_failures as f64);
    outcome.set("registry.corrupt_dropped", stats.corrupt_dropped as f64);
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

fn merged<T: Clone>(stats: &[ClientStats], field: impl Fn(&ClientStats) -> &Vec<T>) -> Vec<T> {
    stats
        .iter()
        .flat_map(|s| field(s).iter().cloned())
        .collect()
}

fn account(outcome: &mut Outcome, stats: &[ClientStats]) {
    for s in stats {
        outcome.attempted += s.requests + s.checks;
        outcome.failed += s.failed + s.check_failures.len() as u64;
        outcome
            .check_failures
            .extend(s.check_failures.iter().cloned());
        for e in &s.errors {
            eprintln!("request failed: {e}");
        }
    }
}

/// Sub-window medians of an untraced phase: requests per second, and
/// event-post latency p50 and p90 in ms, each the median over the full
/// [`SUB_WINDOW`]s of `window`; plus the event-post sample count.
fn windowed(stats: &[ClientStats], window: Duration) -> (f64, f64, f64, usize) {
    let windows = ((window.as_secs_f64() / SUB_WINDOW.as_secs_f64()) as usize).max(1);
    let mut counts = vec![0usize; windows];
    let mut events: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for (at, route, ms) in stats.iter().flat_map(|s| &s.done) {
        let k = (at.as_secs_f64() / SUB_WINDOW.as_secs_f64()) as usize;
        if k < windows {
            counts[k] += 1;
            if *route == Route::Events {
                events[k].push(*ms);
            }
        }
    }
    let rates: Vec<f64> = counts
        .iter()
        .map(|&c| c as f64 / SUB_WINDOW.as_secs_f64())
        .collect();
    let sorted: Vec<Vec<f64>> = events.into_iter().map(report::sorted).collect();
    let p = |q: f64| -> Vec<f64> { sorted.iter().map(|e| report::quantile(e, q)).collect() };
    let samples = sorted.iter().map(Vec::len).sum();
    (
        report::median(&rates),
        report::median(&p(0.5)),
        report::median(&p(0.9)),
        samples,
    )
}

/// Requests per second of client time: requests over the summed tier-1
/// latency divided by the client count.
fn latency_rate(stats: &[ClientStats]) -> f64 {
    let requests: u64 = stats.iter().map(|s| s.requests).sum();
    let busy: f64 = stats.iter().flat_map(|s| &s.done).map(|d| d.2).sum::<f64>() / 1e3;
    requests as f64 / (busy / stats.len().max(1) as f64)
}

/// Run `serve_aged` with `shape` (the benchmark's, or a smaller one in
/// tests).
pub fn run_shape(shape: &Shape, args: &RunArgs, out_dir: &Path) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let window = Duration::from_secs_f64(args.seconds);
    let epoch = Instant::now();
    if !args.trace {
        let (world, first_setup_s) = report::timed(|| World::build(shape, args.seed, false));
        let mut world = world?;
        let stats = run_phase(&mut world, false, window, epoch);
        outcome.set("peak_rss_mb", report::peak_rss_mb());
        let (rate, p50, _, samples) = windowed(&stats, window);
        outcome.set("throughput_per_s", rate);
        outcome.set("op_p50_ms", p50);
        outcome.samples.insert("op_p50_ms".into(), samples);
        let cost_s: f64 = world
            .clients
            .iter()
            .flatten()
            .filter_map(|t| t.cost_mark)
            .sum();
        outcome.set("cost_h", cost_s / 3600.0);
        account(&mut outcome, &stats);
        verify(&world, &mut outcome);
        drop(world);
        let setup_s = report::median_setup_s(first_setup_s, SETUPS - 1, || {
            World::build(shape, args.seed, false)
        });
        outcome.set("setup_s", setup_s);
        return Ok(outcome);
    }

    let mut world = World::build(shape, args.seed, true)?;
    let traced = run_phase(&mut world, true, window / 2, epoch);
    let untraced = run_phase(&mut world, false, window / 2, epoch);
    let serve = world.server.0.as_ref().map(Server::stats);

    for (r, route) in ROUTES.iter().enumerate() {
        let tcp: Vec<f64> = untraced
            .iter()
            .flat_map(|s| &s.done)
            .filter(|d| d.1 as usize == r)
            .map(|d| d.2)
            .collect();
        outcome.set(format!("route.{route}.p50_ms"), report::median(&tcp));
        let transport = merged(&traced, |s| &s.transport_self_ms[r]);
        outcome.set(
            format!("transport.{route}.self_ms"),
            report::median(&transport),
        );
        let api = merged(&traced, |s| &s.api_self_us[r]);
        outcome.set(format!("api.{route}.self_us"), report::median(&api));
    }
    let (_, _, p90, samples) = windowed(&untraced, window / 2);
    outcome.set("op.p90_ms", p90);
    outcome.set("op.samples", samples as f64);
    outcome.set(
        "http.read_us",
        report::median(&merged(&traced, |s| &s.http_read_us)),
    );
    outcome.set(
        "http.write_us",
        report::median(&merged(&traced, |s| &s.http_write_us)),
    );
    outcome.set(
        "json.parse_us",
        report::median(&merged(&traced, |s| &s.json_parse_us)),
    );
    // Age windows: each client's first and last fifth of event posts.
    let (mut first, mut last) = (Vec::new(), Vec::new());
    for s in &traced {
        let fifth = s.session_events_ms.len() / 5;
        first.extend_from_slice(&s.session_events_ms[..fifth]);
        last.extend_from_slice(&s.session_events_ms[s.session_events_ms.len() - fifth..]);
    }
    let apply = report::sorted(merged(&traced, |s| &s.session_events_ms));
    outcome.set("session.apply_events.p50_ms", report::quantile(&apply, 0.5));
    outcome.set("session.apply_events.p90_ms", report::quantile(&apply, 0.9));
    outcome.set("session.apply_events.first_ms", report::median(&first));
    outcome.set("session.apply_events.last_ms", report::median(&last));
    let estimate = merged(&traced, |s| &s.session_estimate_us);
    outcome.set("session.estimate_us", report::median(&estimate));
    let checkpoint = merged(&traced, |s| &s.session_checkpoint_ms);
    outcome.set("session.checkpoint_ms", report::median(&checkpoint));
    let bytes = merged(&traced, |s| &s.checkpoint_bytes);
    outcome.set("session.checkpoint_bytes", report::mean(&bytes));
    outcome.set(
        "session.register_ms",
        report::median(&world.setup_register_ms),
    );
    if let Some(serve) = serve {
        outcome.set("serve.shed", serve.shed as f64);
        outcome.set("serve.timeouts", serve.timeouts as f64);
    }
    outcome.set(
        "trace.overhead_frac",
        1.0 - latency_rate(&traced) / latency_rate(&untraced),
    );
    account(&mut outcome, &traced);
    account(&mut outcome, &untraced);
    lifecycle_probe(&world, out_dir, &mut outcome);

    let recorders: Vec<Recorder> = traced.into_iter().filter_map(|s| s.rec).collect();
    let path = out_dir.join(format!("trace-serve_aged-seed{}.jsonl", args.seed));
    if let Err(e) = crate::trace::write_jsonl(&path, &recorders) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    verify(&world, &mut outcome);
    Ok(outcome)
}

/// Run `serve_aged`.
pub fn run(args: &RunArgs, out_dir: &Path) -> Result<Outcome, String> {
    run_shape(&Shape::benchmark(), args, out_dir)
}
