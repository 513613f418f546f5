//! The long-lived HTTP serving front end.
//!
//! ```text
//!  clients ─▶ listener ──sync_channel──▶ handler pool (N): parse, then on the same thread
//!             (503 if full)               │ admit  AdmissionQueue per tenant (full → 429)
//!                                         │ wait   one of K permits, granted by drain(1)
//!                                         ▼ serve  ModelServer::serve, return the permit
//! ```
//!
//! Two thread roles share one `Shared` block:
//!
//! * the **listener** accepts sockets and feeds a bounded handoff
//!   channel (an overflowing accept path answers `503` inline rather
//!   than queueing connections invisibly);
//! * **handlers** speak HTTP/1.1 keep-alive, parse and route
//!   requests, and run each on their own thread; a `/v1/serve`
//!   request first passes the `Gate` (see the diagram), whose
//!   round-robin grants make a flooding tenant delay itself only.
//!
//! Shutdown is graceful by construction: the queue closes first (new
//! work is refused with `503` + `Retry-After`), the gate waits until
//! every admitted request has been served and every permit is back,
//! and only then do the listener and handler pool wind down — an
//! admitted request always gets its response.

use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{JoinHandle, ThreadId};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::Metrics;
use crate::protocol::{self, DecodeOpen, ServeRequest};
use crate::queue::{AdmissionQueue, Rejection};
use minihttp::{read_request, Request, Response};
use sprint_engine::{Engine, ModelServer, SessionError, SessionOpen, SessionTable};
use sprint_workloads::TraceGenerator;

/// How the server is built: socket, pool sizes, service permits, and
/// admission capacities.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port (tests).
    pub addr: String,
    /// Connection-handler threads.
    pub http_threads: usize,
    /// Sockets the listener may park while every handler is busy
    /// (beyond this, connections get an inline `503`).
    pub accept_backlog: usize,
    /// Per-tenant admission-queue capacity.
    pub queue_per_tenant: usize,
    /// Global admission capacity across tenants.
    pub queue_global: usize,
    /// Service permits: how many admitted `/v1/serve` requests run on
    /// their handlers at once; the rest wait in the admission queue.
    pub engine_workers: usize,
    /// Most decode sessions allowed to hold KV pages at once; the
    /// least-recently-used session beyond this is evicted (its pages
    /// return to the engine's shared pool, its next step rehydrates it
    /// transparently). `None` leaves residency to pool pressure alone.
    pub max_resident_sessions: Option<usize>,
    /// Test hook: a delay a `/v1/serve` request sleeps once it holds
    /// its permit, so the overload and drain tests can hold permits
    /// deterministically. `None` in production.
    pub service_delay: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            http_threads: 4,
            accept_backlog: 64,
            queue_per_tenant: 32,
            queue_global: 128,
            engine_workers: sprint_parallel::max_threads(),
            max_resident_sessions: None,
            service_delay: None,
        }
    }
}

/// The fair service gate: admitted tickets wait in the admission queue
/// until one of `permits` service permits frees, and `drain(1)` hands
/// it to the next ticket in round-robin tenant order. One condvar wakes
/// both the waiting handlers and the drain wait.
struct Gate {
    state: Mutex<GateState>,
    changed: Condvar,
    permits: usize,
}

/// A ticket is its waiting handler's thread id: a handler waits for
/// one request at a time.
struct GateState {
    queue: AdmissionQueue<ThreadId>,
    free: usize,
    /// Tickets granted a permit whose handler has not yet woken.
    granted: Vec<ThreadId>,
}

impl GateState {
    fn grant(&mut self) {
        let granted = self.free.min(self.queue.depth());
        self.free -= granted;
        self.granted.extend(self.queue.drain(granted));
    }
}

/// One held service permit; dropping it, also while unwinding, returns
/// the permit and grants it to the next queued ticket.
struct Permit<'a>(&'a Gate);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.free += 1;
        state.grant();
        drop(state);
        self.0.changed.notify_all();
    }
}

impl Gate {
    fn new(permits: usize, per_tenant: usize, global: usize) -> Gate {
        let permits = permits.max(1);
        let queue = AdmissionQueue::new(per_tenant, global);
        let state = GateState {
            queue,
            free: permits,
            granted: Vec::new(),
        };
        Gate {
            state: Mutex::new(state),
            changed: Condvar::new(),
            permits,
        }
    }

    /// No code panics while holding the gate lock and every update
    /// leaves the state consistent, so a poisoned lock is recovered.
    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits a request under `tenant` (counting it admitted), then
    /// blocks until it holds a permit.
    fn enter(&self, tenant: &str, metrics: &Metrics) -> Result<Permit<'_>, Rejection> {
        let ticket = std::thread::current().id();
        let mut state = self.lock();
        state.queue.submit(tenant, ticket)?;
        metrics.admitted.fetch_add(1, Ordering::Relaxed);
        state.grant();
        while !state.granted.contains(&ticket) {
            state = self
                .changed
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.granted.retain(|&t| t != ticket);
        Ok(Permit(self))
    }

    /// Closes admission, then waits until every admitted request has
    /// been served and all permits are back.
    fn close_and_drain(&self) {
        let mut state = self.lock();
        state.queue.close();
        while state.queue.depth() > 0 || state.free < self.permits {
            state = self
                .changed
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct Shared {
    server: ModelServer,
    config: ServerConfig,
    metrics: Metrics,
    gate: Gate,
    shutdown: AtomicBool,
    /// Every open `/v1/decode` session: residency, LRU eviction and
    /// rehydration all happen inside the table.
    sessions: SessionTable,
}

/// A running server: the listener and handler pool threads, plus the
/// shared state they communicate through.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: std::net::SocketAddr,
    listener: JoinHandle<()>,
    handlers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("handlers", &self.handlers.len())
            .finish()
    }
}

impl Server {
    /// Binds, spawns the thread roles, and returns the running server.
    ///
    /// # Errors
    ///
    /// Socket errors from binding `config.addr`.
    pub fn start(engine: Engine, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            server: ModelServer::new(engine),
            gate: Gate::new(
                config.engine_workers,
                config.queue_per_tenant,
                config.queue_global,
            ),
            shutdown: AtomicBool::new(false),
            metrics: Metrics::new(),
            sessions: SessionTable::new(config.max_resident_sessions),
            config,
        });

        let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(shared.config.accept_backlog);
        let conn_rx = Arc::new(Mutex::new(conn_rx));

        let mut handlers = Vec::new();
        for _ in 0..shared.config.http_threads.max(1) {
            let rx = Arc::clone(&conn_rx);
            let shared = Arc::clone(&shared);
            handlers.push(std::thread::spawn(move || loop {
                let stream = {
                    let rx = rx.lock().unwrap_or_else(PoisonError::into_inner);
                    rx.recv()
                };
                match stream {
                    Ok(stream) => handle_connection(&shared, stream),
                    Err(_) => return, // listener gone and channel drained
                }
            }));
        }

        let listener_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || listen_loop(&shared, &listener, &conn_tx))
        };

        Ok(Server {
            shared,
            local_addr,
            listener: listener_thread,
            handlers,
        })
    }

    /// The bound socket address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// The server's metrics block (live counters).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Gracefully shuts down: refuse new work, drain everything
    /// already admitted, then stop the threads.
    pub fn shutdown(self) {
        // 1. Close admission — queued and in-flight work still drains.
        // 2. Wait until the closed queue is empty and every permit is
        //    back: every admitted request has then been served.
        self.shared.gate.close_and_drain();
        // 3. Now stop accepting sockets and wind down the handlers
        //    (their idle keep-alive loops poll this flag).
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = self.listener.join(); // dropping the thread drops conn_tx
        for handler in self.handlers {
            let _ = handler.join();
        }
    }
}

fn listen_loop(shared: &Shared, listener: &TcpListener, conn_tx: &mpsc::SyncSender<TcpStream>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                if let Err(back) = conn_tx.try_send(stream) {
                    // Every handler busy and the backlog full: shed the
                    // connection visibly instead of letting it starve.
                    shared.metrics.unavailable.fetch_add(1, Ordering::Relaxed);
                    let mut stream = match back {
                        mpsc::TrySendError::Full(s) | mpsc::TrySendError::Disconnected(s) => s,
                    };
                    let _ = Response::json(503, r#"{"error":"handler pool saturated"}"#)
                        .with_header("Retry-After", "1")
                        .write_to(&mut stream, false);
                    let _ = stream.flush();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    loop {
        match read_request(&mut reader) {
            Ok(Some(request)) => {
                let keep_alive = request.keep_alive();
                let response = route(shared, &request);
                if response.write_to(&mut writer, keep_alive).is_err() {
                    return;
                }
                let _ = writer.flush();
                if !keep_alive {
                    return;
                }
            }
            Ok(None) => return, // clean EOF
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let _ = error_json(400, e.to_string()).write_to(&mut writer, false);
                return;
            }
            Err(_) => return,
        }
    }
}

fn route(shared: &Shared, request: &Request) -> Response {
    shared.metrics.http_requests.fetch_add(1, Ordering::Relaxed);
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => health(shared),
        ("GET", "/metrics") => {
            let depth = shared.gate.lock().queue.depth();
            let pool = shared.server.engine().kv_pool();
            // The table owns these two counts; the exposition copies them.
            let metrics = &shared.metrics;
            metrics
                .sessions_evicted
                .store(shared.sessions.evictions(), Ordering::Relaxed);
            metrics
                .sessions_rehydrated
                .store(shared.sessions.rehydrations(), Ordering::Relaxed);
            Response::text(
                200,
                shared.metrics.render(
                    depth,
                    pool.pages_in_use(),
                    pool.capacity_pages().unwrap_or(0),
                ),
            )
            .with_header("Content-Type", "text/plain; version=0.0.4")
        }
        ("POST", "/v1/serve") => serve_endpoint(shared, request),
        ("POST", "/v1/decode") => decode_endpoint(shared, request),
        _ => Response::json(404, r#"{"error":"no such endpoint"}"#),
    }
}

fn health(shared: &Shared) -> Response {
    let draining = shared.gate.lock().queue.is_closed();
    let body = Json::obj([
        (
            "status",
            Json::Str(if draining { "draining" } else { "ok" }.to_string()),
        ),
        (
            "sessions_open",
            Json::Int(shared.metrics.sessions_open.load(Ordering::Relaxed) as i128),
        ),
    ]);
    Response::json(if draining { 503 } else { 200 }, body.to_string())
}

/// A `{"error": message}` response.
fn error_json(status: u16, message: impl Into<String>) -> Response {
    let body = Json::obj([("error", Json::Str(message.into()))]).to_string();
    Response::json(status, body)
}

fn serve_endpoint(shared: &Shared, request: &Request) -> Response {
    let body = match Json::parse(&request.body_str()) {
        Ok(body) => body,
        Err(e) => return error_json(400, format!("invalid JSON body: {e}")),
    };
    let serve = match ServeRequest::parse(&body) {
        Ok(serve) => serve,
        Err(e) => return error_json(400, e),
    };
    let tenant = request.header("x-tenant").unwrap_or("default");
    let admitted_at = Instant::now();
    let permit = match shared.gate.enter(tenant, &shared.metrics) {
        Ok(permit) => permit,
        Err(rejection) => {
            let (status, shed) = match rejection {
                Rejection::Closed => (503, &shared.metrics.unavailable),
                _ => (429, &shared.metrics.rejected),
            };
            shed.fetch_add(1, Ordering::Relaxed);
            return error_json(status, rejection.reason())
                .with_header("Retry-After", rejection.retry_after_s().to_string());
        }
    };
    if let Some(delay) = shared.config.service_delay {
        std::thread::sleep(delay);
    }
    let result = shared.server.serve(&serve.to_model_request());
    drop(permit);
    let metrics = &shared.metrics;
    metrics.record_latency(admitted_at.elapsed().as_nanos() as u64);
    metrics.completed.fetch_add(1, Ordering::Relaxed);
    match result {
        Ok(response) => {
            metrics.record_faults(
                response.total.faults_detected,
                response.total.fault_retries,
                response.total.remapped_columns,
                response.total.heads_demoted,
            );
            Response::json(200, protocol::response_json(&response).to_string())
        }
        Err(e) => error_json(500, e.to_string()),
    }
}

fn decode_endpoint(shared: &Shared, request: &Request) -> Response {
    let body = match Json::parse(&request.body_str()) {
        Ok(body) => body,
        Err(e) => return error_json(400, format!("invalid JSON body: {e}")),
    };
    match (body.str_field("action"), body.u64_field("session")) {
        (Some("open"), _) => decode_open(shared, &body),
        (Some("step"), Some(id)) => decode_step(shared, id).unwrap_or_else(session_error),
        (Some("close"), Some(id)) => decode_close(shared, id).unwrap_or_else(session_error),
        (Some("step" | "close"), None) => error_json(400, "missing 'session' id"),
        _ => error_json(400, "'action' must be one of open, step, close"),
    }
}

/// Maps a table failure onto the wire: `404` unknown id, `409` for a
/// finished stream, `409` + `Retry-After` for a KV page pool that
/// stayed exhausted after evicting everything evictable, `500`
/// otherwise.
fn session_error(e: SessionError) -> Response {
    let status = match e {
        SessionError::Unknown(_) => 404,
        SessionError::Exhausted(_) | SessionError::PoolExhausted(_) => 409,
        SessionError::Engine(_) => 500,
    };
    let response = error_json(status, e.to_string());
    if matches!(e, SessionError::PoolExhausted(_)) {
        response.with_header("Retry-After", "1")
    } else {
        response
    }
}

fn decode_open(shared: &Shared, body: &Json) -> Response {
    if shared.gate.lock().queue.is_closed() {
        return Response::json(503, r#"{"error":"server is draining"}"#)
            .with_header("Retry-After", "5");
    }
    let open = match DecodeOpen::parse(body) {
        Ok(open) => open,
        Err(e) => return error_json(400, e),
    };
    let mut spec = open.model.trace_spec().with_seq_len(open.seq_len);
    spec.padding_fraction = 0.0; // decode histories hold only real tokens
    let trace = match TraceGenerator::new(open.seed).generate(&spec) {
        Ok(trace) => trace,
        Err(e) => return error_json(400, format!("trace synthesis failed: {e}")),
    };
    let opened = shared.sessions.open(
        shared.server.engine(),
        SessionOpen {
            trace,
            prefill: open.prefill,
            head_id: open.seed,
            mode: None,
            threshold_spec: None,
        },
    );
    let id = match opened {
        Ok(id) => id,
        Err(e) => return session_error(e),
    };
    shared
        .metrics
        .sessions_opened
        .fetch_add(1, Ordering::Relaxed);
    shared.metrics.sessions_open.fetch_add(1, Ordering::Relaxed);
    let body = Json::obj([
        ("session", Json::Int(id as i128)),
        ("position", Json::Int(open.prefill as i128)),
        ("seq_len", Json::Int(open.seq_len as i128)),
    ]);
    Response::json(200, body.to_string())
}

fn decode_step(shared: &Shared, id: u64) -> Result<Response, SessionError> {
    let response = shared.sessions.step(shared.server.engine(), id)?;
    shared.metrics.decode_steps.fetch_add(1, Ordering::Relaxed);
    shared.metrics.record_faults(
        response.perf.faults_detected,
        response.perf.fault_retries,
        0,
        0,
    );
    let output: Vec<Json> = response
        .output
        .iter()
        .map(|&x| Json::Num(f64::from(x)))
        .collect();
    let body = Json::obj([
        ("position", Json::Int(response.position as i128)),
        ("kept", Json::Int(response.decision.kept_count() as i128)),
        ("considered", Json::Int(response.decision.len() as i128)),
        ("demoted", Json::Bool(response.perf.demoted)),
        ("output", Json::Arr(output)),
    ]);
    Ok(Response::json(200, body.to_string()))
}

fn decode_close(shared: &Shared, id: u64) -> Result<Response, SessionError> {
    let perf = shared.sessions.close(id)?;
    shared.metrics.sessions_open.fetch_sub(1, Ordering::Relaxed);
    let body = Json::obj([
        ("session", Json::Int(id as i128)),
        ("tokens", Json::Int(perf.tokens as i128)),
        ("cycles", Json::Int(perf.cycles as i128)),
        ("kept_fraction", Json::Num(perf.kept_fraction())),
        ("recalibrations", Json::Int(perf.recalibrations as i128)),
        ("evictions", Json::Int(perf.evictions as i128)),
        ("rehydrations", Json::Int(perf.rehydrations as i128)),
        ("faults_detected", Json::Int(perf.faults_detected as i128)),
        ("fault_retries", Json::Int(perf.fault_retries as i128)),
        ("demoted", Json::Bool(perf.demoted)),
    ]);
    Ok(Response::json(200, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panic_while_holding_a_permit_returns_it_and_the_drain_finishes() {
        let (gate, metrics) = (Gate::new(1, 4, 4), Metrics::new());
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _permit = gate.enter("a", &metrics).expect("admitted");
                while gate.lock().queue.depth() == 0 {
                    std::thread::yield_now();
                }
                // The next request waits: panic under the gate lock too,
                // so the unwinding permit meets a poisoned lock.
                let _state = gate.lock();
                panic!("injected panic holding the permit and the gate lock");
            });
            while gate.lock().free > 0 {
                std::thread::yield_now();
            }
            let waiter = scope.spawn(|| drop(gate.enter("b", &metrics).expect("admitted")));
            assert!(holder.join().is_err());
            assert!(waiter.join().is_ok(), "the queued request gets the permit");
        });
        assert!(gate.state.is_poisoned());
        gate.close_and_drain();
        assert_eq!(gate.enter("c", &metrics).err(), Some(Rejection::Closed));
        let state = gate.lock();
        assert_eq!((state.free, state.granted.len()), (1, 0));
        assert_eq!(metrics.admitted.load(Ordering::Relaxed), 2);
    }
}
