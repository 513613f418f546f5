//! The long-lived HTTP serving front end.
//!
//! ```text
//!             ┌────────────┐   TcpStream    ┌──────────────────┐
//!  clients ──▶│  listener  │──sync_channel─▶│ handler pool (N) │
//!             └────────────┘  (503 if full) └──────┬───────────┘
//!                                    parse + admit │  reply rx
//!                                                  ▼
//!                              ┌──────────────────────────────┐
//!                              │ AdmissionQueue (per tenant,  │
//!                              │ bounded → 429 + Retry-After) │
//!                              └──────────────┬───────────────┘
//!                                 batch window│ round-robin drain
//!                                             ▼
//!                              ┌──────────────────────────────┐
//!                              │ batcher → serve_many_report  │
//!                              └──────────────────────────────┘
//! ```
//!
//! Three thread roles share one `Shared` block:
//!
//! * the **listener** accepts sockets and feeds a bounded handoff
//!   channel (an overflowing accept path answers `503` inline rather
//!   than queueing connections invisibly);
//! * **handlers** speak HTTP/1.1 keep-alive, parse and route
//!   requests, and — for `/v1/serve` — park on a per-request reply
//!   channel after admission;
//! * the **batcher** wakes every batching window, drains up to
//!   `max_batch` admitted requests fairly across tenants, and runs
//!   them as one [`ModelServer::serve_many_report`] call, so
//!   coalescing under load is deterministic in shape.
//!
//! Shutdown is graceful by construction: the queue closes first (new
//! work is refused with `503` + `Retry-After`), the batcher drains
//! everything already admitted, and only then do the listener and
//! handler pool wind down — an admitted request always gets its
//! response.

use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::Metrics;
use crate::protocol::{self, DecodeOpen, ServeRequest};
use crate::queue::{AdmissionQueue, Rejection};
use minihttp::{read_request, Request, Response};
use sprint_engine::{
    Engine, ModelRequest, ModelResponse, ModelServer, SessionError, SessionOpen, SessionTable,
    SprintError,
};
use sprint_workloads::TraceGenerator;

/// How the server is built: socket, pool sizes, batching, and
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
    /// The batching window: how long the batcher sleeps between
    /// queue drains. Longer windows coalesce more per engine batch.
    pub batch_window: Duration,
    /// Most serve requests per engine batch.
    pub max_batch: usize,
    /// Per-tenant admission-queue capacity.
    pub queue_per_tenant: usize,
    /// Global admission capacity across tenants.
    pub queue_global: usize,
    /// Worker-thread cap handed to the engine per batch.
    pub engine_workers: usize,
    /// Most decode sessions allowed to hold KV pages at once; the
    /// least-recently-used session beyond this is evicted (its pages
    /// return to the engine's shared pool, its next step rehydrates it
    /// transparently). `None` leaves residency to pool pressure alone.
    pub max_resident_sessions: Option<usize>,
    /// Test hook: an artificial service delay inserted before each
    /// engine batch. Lets the overload and drain tests hold requests
    /// in flight deterministically. `None` in production.
    pub service_delay: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            http_threads: 4,
            accept_backlog: 64,
            batch_window: Duration::from_millis(2),
            max_batch: 16,
            queue_per_tenant: 32,
            queue_global: 128,
            engine_workers: sprint_parallel::max_threads(),
            max_resident_sessions: None,
            service_delay: None,
        }
    }
}

/// One admitted serve request parked in the queue.
struct QueuedServe {
    request: ModelRequest,
    admitted_at: Instant,
    reply: mpsc::Sender<Result<ModelResponse, SprintError>>,
}

struct Shared {
    server: ModelServer,
    config: ServerConfig,
    metrics: Metrics,
    queue: Mutex<AdmissionQueue<QueuedServe>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    /// Every open `/v1/decode` session: residency, LRU eviction and
    /// rehydration all happen inside the table.
    sessions: SessionTable,
}

/// A running server: the listener, handler pool and batcher threads,
/// plus the shared state they communicate through.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: std::net::SocketAddr,
    listener: Option<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
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
            queue: Mutex::new(AdmissionQueue::new(
                config.queue_per_tenant,
                config.queue_global,
            )),
            queue_cv: Condvar::new(),
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
                    let rx = rx.lock().expect("conn channel poisoned");
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

        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || batch_loop(&shared))
        };

        Ok(Server {
            shared,
            local_addr,
            listener: Some(listener_thread),
            batcher: Some(batcher),
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
    pub fn shutdown(mut self) {
        // 1. Close admission — queued and in-flight work still drains.
        self.shared.queue.lock().expect("queue poisoned").close();
        self.shared.queue_cv.notify_all();
        // 2. The batcher exits once the closed queue is empty; joining
        //    it proves every admitted request got a response.
        if let Some(batcher) = self.batcher.take() {
            let _ = batcher.join();
        }
        // 3. Now stop accepting sockets and wind down the handlers
        //    (their idle keep-alive loops poll this flag).
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(listener) = self.listener.take() {
            let _ = listener.join(); // dropping the thread drops conn_tx
        }
        for handler in self.handlers.drain(..) {
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

fn batch_loop(shared: &Shared) {
    loop {
        let batch: Vec<QueuedServe> = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            // Sleep out the batching window (or until woken) so
            // concurrent arrivals coalesce into one engine batch.
            if queue.depth() == 0 {
                if queue.is_closed() {
                    return;
                }
                let (q, _) = shared
                    .queue_cv
                    .wait_timeout(queue, shared.config.batch_window)
                    .expect("queue poisoned");
                queue = q;
            }
            queue.drain(shared.config.max_batch)
        };
        if batch.is_empty() {
            continue;
        }
        if let Some(delay) = shared.config.service_delay {
            std::thread::sleep(delay);
        }
        shared.metrics.batches.fetch_add(1, Ordering::Relaxed);
        let requests: Vec<ModelRequest> = batch.iter().map(|q| q.request.clone()).collect();
        match shared
            .server
            .serve_many_report(shared.config.engine_workers, &requests)
        {
            Ok((responses, _)) => {
                for (queued, response) in batch.into_iter().zip(responses) {
                    finish_serve(shared, queued, Ok(response));
                }
            }
            Err(_) => {
                // One bad request fails a whole batch; retry each
                // request alone so its neighbors still succeed and the
                // offender gets its own error.
                for queued in batch {
                    let result = shared
                        .server
                        .serve_many_report(
                            shared.config.engine_workers,
                            std::slice::from_ref(&queued.request),
                        )
                        .map(|(mut responses, _)| responses.remove(0));
                    finish_serve(shared, queued, result);
                }
            }
        }
    }
}

fn finish_serve(shared: &Shared, queued: QueuedServe, result: Result<ModelResponse, SprintError>) {
    if let Ok(response) = &result {
        shared.metrics.record_faults(
            response.total.faults_detected,
            response.total.fault_retries,
            response.total.remapped_columns,
            response.total.heads_demoted,
        );
    }
    shared
        .metrics
        .record_latency(queued.admitted_at.elapsed().as_nanos() as u64);
    shared.metrics.inflight.fetch_sub(1, Ordering::Relaxed);
    shared.metrics.completed.fetch_add(1, Ordering::Relaxed);
    // A dropped receiver means the client hung up; nothing to do.
    let _ = queued.reply.send(result);
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
                let body = Json::obj([("error", Json::Str(e.to_string()))]).to_string();
                let _ = Response::json(400, body).write_to(&mut writer, false);
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
            let depth = shared.queue.lock().expect("queue poisoned").depth();
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
    let draining = shared.queue.lock().expect("queue poisoned").is_closed();
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

fn bad_request(message: impl Into<String>) -> Response {
    let body = Json::obj([("error", Json::Str(message.into()))]).to_string();
    Response::json(400, body)
}

fn serve_endpoint(shared: &Shared, request: &Request) -> Response {
    let body = match Json::parse(&request.body_str()) {
        Ok(body) => body,
        Err(e) => return bad_request(format!("invalid JSON body: {e}")),
    };
    let serve = match ServeRequest::parse(&body) {
        Ok(serve) => serve,
        Err(e) => return bad_request(e),
    };
    let tenant = request.header("x-tenant").unwrap_or("default").to_string();
    let (reply_tx, reply_rx) = mpsc::channel();
    let queued = QueuedServe {
        request: serve.to_model_request(),
        admitted_at: Instant::now(),
        reply: reply_tx,
    };
    {
        let mut queue = shared.queue.lock().expect("queue poisoned");
        if let Err(rejection) = queue.submit(&tenant, queued) {
            let status = match rejection {
                Rejection::Closed => {
                    shared.metrics.unavailable.fetch_add(1, Ordering::Relaxed);
                    503
                }
                _ => {
                    shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                    429
                }
            };
            let body = Json::obj([("error", Json::Str(rejection.reason()))]).to_string();
            return Response::json(status, body)
                .with_header("Retry-After", rejection.retry_after_s().to_string());
        }
        shared.metrics.admitted.fetch_add(1, Ordering::Relaxed);
        shared.metrics.inflight.fetch_add(1, Ordering::Relaxed);
    }
    shared.queue_cv.notify_all();
    // Wait for the batcher. The generous bound only trips if the
    // batcher died; admitted work is otherwise always answered.
    match reply_rx.recv_timeout(Duration::from_secs(120)) {
        Ok(Ok(response)) => Response::json(200, protocol::response_json(&response).to_string()),
        Ok(Err(e)) => {
            let body = Json::obj([("error", Json::Str(e.to_string()))]).to_string();
            Response::json(500, body)
        }
        Err(_) => Response::json(500, r#"{"error":"serve batch loop unresponsive"}"#),
    }
}

fn decode_endpoint(shared: &Shared, request: &Request) -> Response {
    let body = match Json::parse(&request.body_str()) {
        Ok(body) => body,
        Err(e) => return bad_request(format!("invalid JSON body: {e}")),
    };
    match (body.str_field("action"), body.u64_field("session")) {
        (Some("open"), _) => decode_open(shared, &body),
        (Some("step"), Some(id)) => decode_step(shared, id).unwrap_or_else(session_error),
        (Some("close"), Some(id)) => decode_close(shared, id).unwrap_or_else(session_error),
        (Some("step" | "close"), None) => bad_request("missing 'session' id"),
        _ => bad_request("'action' must be one of open, step, close"),
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
    let body = Json::obj([("error", Json::Str(e.to_string()))]).to_string();
    let response = Response::json(status, body);
    if matches!(e, SessionError::PoolExhausted(_)) {
        response.with_header("Retry-After", "1")
    } else {
        response
    }
}

fn decode_open(shared: &Shared, body: &Json) -> Response {
    if shared.queue.lock().expect("queue poisoned").is_closed() {
        return Response::json(503, r#"{"error":"server is draining"}"#)
            .with_header("Retry-After", "5");
    }
    let open = match DecodeOpen::parse(body) {
        Ok(open) => open,
        Err(e) => return bad_request(e),
    };
    let mut spec = open.model.trace_spec().with_seq_len(open.seq_len);
    spec.padding_fraction = 0.0; // decode histories hold only real tokens
    let trace = match TraceGenerator::new(open.seed).generate(&spec) {
        Ok(trace) => trace,
        Err(e) => return bad_request(format!("trace synthesis failed: {e}")),
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
