//! kg-serve: a KG accuracy-monitoring service over session-scoped
//! incremental evaluators (`kg_eval::session`).
//!
//! Hand-rolled std-only HTTP/1.1 + JSON — the build environment is
//! offline, so no web framework and no serde. One exchange per
//! connection (`Connection: close`), one thread per connection, all
//! tenants multiplexed over a shared [`SessionRegistry`].
//!
//! # Fault tolerance
//!
//! The serving loop is a [`Server`] with:
//!
//! * **Read/write deadlines** on every socket — a slowloris peer
//!   dribbling bytes, or one that never reads its response, is cut off at
//!   the whole-exchange deadline ([`http::DeadlineStream`]), answered 408
//!   where a response is still possible.
//! * **Load shedding** — more than [`ServerConfig::max_in_flight`]
//!   concurrent exchanges answer `503` with `Retry-After` instead of
//!   queueing without bound.
//! * **Graceful drain** — `POST /admin/drain` (or
//!   [`DrainController::request_drain`], or stdin EOF in the binary)
//!   stops the accept loop, waits out in-flight requests under
//!   [`ServerConfig::drain_deadline`], checkpoints every live session to
//!   the registry's spill store, and returns. A restarted process
//!   recovers the full tenant set via
//!   [`SessionRegistry::recover_from_store`].
//! * **Fault injection** — a [`FaultHook`] scripted per accepted
//!   connection lets the chaos harness (`kg_bench::chaos`) drop, stall,
//!   or half-serve exchanges deterministically on the production path.
//!
//! The binary (`kg-serve`) binds a listener and prints
//! `LISTENING <addr>` on stdout so harnesses can scrape the ephemeral
//! port. [`serve`] remains as the block-forever convenience wrapper so
//! benches and tests can run the exact production path in-process.

#![warn(missing_docs)]

pub mod api;
pub mod http;
pub mod json;

use kg_eval::session::SessionRegistry;
use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Connection-hardening knobs of a [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Whole-exchange deadline for reading one request. A peer that has
    /// not delivered a complete request by then is answered 408.
    pub read_timeout: Duration,
    /// Socket write timeout for the response. A peer that never reads
    /// cannot wedge the worker past this.
    pub write_timeout: Duration,
    /// Maximum concurrent exchanges; beyond it new connections are shed
    /// with `503` + `Retry-After`.
    pub max_in_flight: usize,
    /// How long a drain waits for in-flight exchanges before
    /// checkpointing and returning anyway.
    pub drain_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_in_flight: 256,
            drain_deadline: Duration::from_secs(10),
        }
    }
}

/// What a [`FaultHook`] makes of one accepted connection. Every action is
/// decided **before** the request is dispatched to the registry, so an
/// injected fault never half-applies a mutation — the client retries
/// against unchanged state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Serve normally.
    None,
    /// Drop the connection without reading the request.
    AbortBeforeRead,
    /// Read the full request, then drop without responding (the client
    /// cannot tell how far the server got).
    AbortAfterRead,
    /// Hold the connection open for the given delay, then drop it
    /// without reading (a stalled server from the client's view).
    StallThenAbort(Duration),
}

/// Deterministic per-connection fault plan, consulted with the accept
/// sequence number of each connection.
pub trait FaultHook: Send + Sync {
    /// The action for connection number `conn_seq` (0-based, in accept
    /// order).
    fn plan(&self, conn_seq: u64) -> FaultAction;
}

/// Point-in-time serving counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections shed with 503 (over `max_in_flight`).
    pub shed: u64,
    /// Exchanges cut off by the read deadline (answered 408).
    pub timeouts: u64,
    /// Connections sacrificed to the fault hook.
    pub faults_injected: u64,
}

/// What a graceful drain accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainOutcome {
    /// Sessions checkpointed to the spill store (0 when the registry has
    /// no store attached).
    pub persisted: usize,
    /// In-flight exchanges still running when the drain deadline expired
    /// (0 on a clean drain).
    pub stragglers: usize,
}

struct Shared {
    registry: Arc<SessionRegistry>,
    config: ServerConfig,
    fault: Option<Arc<dyn FaultHook>>,
    addr: SocketAddr,
    draining: AtomicBool,
    killed: AtomicBool,
    in_flight: AtomicUsize,
    accepted: AtomicU64,
    shed: AtomicU64,
    timeouts: AtomicU64,
    faults_injected: AtomicU64,
    outcome: Mutex<Option<DrainOutcome>>,
}

impl Shared {
    /// Ask the accept loop to stop, waking it with a loopback connection
    /// if it is parked in `accept()`.
    fn request_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
    }

    fn stats(&self) -> ServeStats {
        ServeStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
        }
    }
}

/// A remote control for requesting a graceful drain (e.g. from a signal
/// watcher thread) without owning the [`Server`].
#[derive(Clone)]
pub struct DrainController(Arc<Shared>);

impl DrainController {
    /// Ask the server to drain; returns immediately. Join the
    /// [`Server`] to observe completion.
    pub fn request_drain(&self) {
        self.0.request_drain();
    }
}

/// A running accept loop. Dropping the handle does **not** stop the
/// server; call [`Server::drain`] or [`Server::kill`].
pub struct Server {
    shared: Arc<Shared>,
    accept: thread::JoinHandle<()>,
}

impl Server {
    /// Start serving `listener` on a background accept thread.
    pub fn start(
        listener: TcpListener,
        registry: Arc<SessionRegistry>,
        config: ServerConfig,
        fault: Option<Arc<dyn FaultHook>>,
    ) -> std::io::Result<Server> {
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            registry,
            config,
            fault,
            addr,
            draining: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            outcome: Mutex::new(None),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(Server { shared, accept })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A cloneable drain trigger.
    pub fn controller(&self) -> DrainController {
        DrainController(Arc::clone(&self.shared))
    }

    /// Serving counters so far.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// Gracefully drain: stop accepting, wait out in-flight exchanges
    /// under the drain deadline, checkpoint every live session to the
    /// spill store, and return what happened.
    pub fn drain(self) -> DrainOutcome {
        self.shared.request_drain();
        let shared = Arc::clone(&self.shared);
        let _ = self.accept.join();
        let outcome = shared.outcome.lock().unwrap().take();
        outcome.unwrap_or(DrainOutcome {
            persisted: 0,
            stragglers: 0,
        })
    }

    /// Abrupt shutdown: stop accepting and return without waiting for
    /// in-flight exchanges and without checkpointing anything — the
    /// crash-simulation path of the chaos harness. Whatever the spill
    /// store holds (write-through, earlier evictions) is all a restart
    /// gets.
    pub fn kill(self) {
        self.shared.killed.store(true, Ordering::SeqCst);
        self.shared.request_drain();
        let _ = self.accept.join();
    }

    /// Block until the server drains (via `POST /admin/drain` or a
    /// [`DrainController`]) and return the outcome.
    pub fn join(self) -> DrainOutcome {
        let shared = Arc::clone(&self.shared);
        let _ = self.accept.join();
        let outcome = shared.outcome.lock().unwrap().take();
        outcome.unwrap_or(DrainOutcome {
            persisted: 0,
            stragglers: 0,
        })
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.draining.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.draining.load(Ordering::SeqCst) {
            // The wake-up (or a straggler racing it): refuse politely.
            let _ = shed_response(stream, &shared.config, "draining");
            break;
        }
        let seq = shared.accepted.fetch_add(1, Ordering::Relaxed);
        let in_flight = shared.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        let conn_shared = Arc::clone(&shared);
        thread::spawn(move || handle_exchange(&conn_shared, stream, seq, in_flight));
    }
    drop(listener);
    if shared.killed.load(Ordering::SeqCst) {
        return;
    }
    // Graceful path: wait out in-flight exchanges, then checkpoint.
    let deadline = Instant::now() + shared.config.drain_deadline;
    while shared.in_flight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(2));
    }
    let stragglers = shared.in_flight.load(Ordering::SeqCst);
    let persisted = shared.registry.drain_to_store().unwrap_or(0);
    *shared.outcome.lock().unwrap() = Some(DrainOutcome {
        persisted,
        stragglers,
    });
}

fn shed_response(mut stream: TcpStream, config: &ServerConfig, why: &str) -> std::io::Result<()> {
    stream.set_write_timeout(Some(config.write_timeout))?;
    let body = json::Json::Obj(vec![(
        "error".to_string(),
        json::Json::Str(why.to_string()),
    )]);
    http::write_response_with(&mut stream, 503, &[("retry-after", "1")], &body.to_string())?;
    finish_exchange(stream);
    Ok(())
}

/// Close an exchange without risking a TCP reset racing the response: a
/// status written while request bytes sit unread (shedding, 408, 413)
/// would be discarded by the peer's kernel if we closed outright. Send
/// FIN, then drain whatever the peer still sends, under a hard bound.
fn finish_exchange(mut stream: TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let deadline = Instant::now() + Duration::from_millis(500);
    let mut sink = [0u8; 4096];
    while Instant::now() < deadline {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => continue,
        }
    }
}

/// Serve one connection end to end: fault hook, shedding, deadlines,
/// admin routes, API dispatch.
fn handle_exchange(shared: &Shared, stream: TcpStream, seq: u64, in_flight: usize) {
    // Gives the slot back however the exchange ends, a panic included.
    let _slot = InFlightSlot(&shared.in_flight);
    let action = match &shared.fault {
        Some(hook) => hook.plan(seq),
        None => FaultAction::None,
    };
    match action {
        FaultAction::AbortBeforeRead => {
            shared.faults_injected.fetch_add(1, Ordering::Relaxed);
            return;
        }
        FaultAction::StallThenAbort(delay) => {
            shared.faults_injected.fetch_add(1, Ordering::Relaxed);
            thread::sleep(delay);
            return;
        }
        FaultAction::AbortAfterRead | FaultAction::None => {}
    }
    if in_flight > shared.config.max_in_flight {
        shared.shed.fetch_add(1, Ordering::Relaxed);
        let _ = shed_response(stream, &shared.config, "overloaded");
        return;
    }
    let reader = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = BufReader::new(http::DeadlineStream::new(
        reader,
        shared.config.read_timeout,
    ));
    let mut writer = stream;
    let parsed = http::read_request(&mut reader);
    if action == FaultAction::AbortAfterRead {
        shared.faults_injected.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let (status, body) = match parsed {
        Ok(request) => dispatch(shared, &request),
        Err(http::HttpError::Closed) => return,
        Err(e) if e.is_timeout() => {
            shared.timeouts.fetch_add(1, Ordering::Relaxed);
            (408, err_body("request read deadline exceeded"))
        }
        Err(http::HttpError::Io(_)) => return,
        Err(http::HttpError::Bad(what)) => (400, err_body(what)),
        Err(http::HttpError::TooLarge(what)) => (413, err_body(what)),
    };
    if writer
        .set_write_timeout(Some(shared.config.write_timeout))
        .is_err()
    {
        return;
    }
    if http::write_response(&mut writer, status, &body.to_string()).is_ok() {
        finish_exchange(writer);
    }
}

/// The load-shedding slot `accept_loop` took for one exchange, given back
/// on drop so that an exchange that panics still releases it.
struct InFlightSlot<'a>(&'a AtomicUsize);

impl Drop for InFlightSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn err_body(what: &str) -> json::Json {
    json::Json::Obj(vec![(
        "error".to_string(),
        json::Json::Str(what.to_string()),
    )])
}

/// Admin routes (they need server state), then the session API.
fn dispatch(shared: &Shared, request: &http::Request) -> (u16, json::Json) {
    let segments: Vec<&str> = request.segments.iter().map(String::as_str).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["admin", "drain"]) => {
            // Flag now, wake the accept loop from a detached thread so
            // this exchange still gets its 200 out.
            shared.draining.store(true, Ordering::SeqCst);
            let addr = shared.addr;
            thread::spawn(move || {
                let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
            });
            (
                200,
                json::Json::Obj(vec![("draining".to_string(), json::Json::Bool(true))]),
            )
        }
        ("GET", ["admin", "stats"]) => {
            let serve = shared.stats();
            let registry = shared.registry.stats();
            let num = |n: u64| json::Json::Num(n as f64);
            (
                200,
                json::Json::Obj(vec![
                    ("accepted".to_string(), num(serve.accepted)),
                    ("shed".to_string(), num(serve.shed)),
                    ("timeouts".to_string(), num(serve.timeouts)),
                    ("faults_injected".to_string(), num(serve.faults_injected)),
                    ("live".to_string(), num(registry.live as u64)),
                    ("spilled".to_string(), num(registry.spilled as u64)),
                    ("evictions".to_string(), num(registry.evictions)),
                    ("revivals".to_string(), num(registry.revivals)),
                    ("corrupt_dropped".to_string(), num(registry.corrupt_dropped)),
                    (
                        "persist_failures".to_string(),
                        num(registry.persist_failures),
                    ),
                ]),
            )
        }
        _ => api::handle(&shared.registry, request),
    }
}

/// Accept loop with default hardening: serve until drained (via
/// `POST /admin/drain`), then return. The historical entry point for
/// benches and tests that want the production path in-process on the
/// current thread.
pub fn serve(listener: TcpListener, registry: Arc<SessionRegistry>) {
    if let Ok(server) = Server::start(listener, registry, ServerConfig::default(), None) {
        server.join();
    }
}
