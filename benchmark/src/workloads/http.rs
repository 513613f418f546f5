//! What the two HTTP workloads share: two keep-alive connections
//! (tenants `a` and `b`) against an in-process `Server::start` on an
//! ephemeral port, and the `/metrics` scrape.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use minihttp::{Client, Response};
use sprint_engine::Engine;
use sprint_server::{Server, ServerConfig};

use crate::report::Values;
use crate::runner::Recorder;

/// Closed-loop callers, one connection each. `nproc` is 2 on the
/// reference host.
pub const TENANTS: [&str; 2] = ["a", "b"];

/// A running server and its address.
#[derive(Debug)]
pub struct Running {
    pub server: Server,
    pub addr: String,
}

impl Running {
    /// Starts `engine` behind `config` on an ephemeral port.
    ///
    /// # Errors
    ///
    /// The socket could not be bound.
    pub fn start(engine: Engine, config: ServerConfig) -> Result<Running, String> {
        let server = Server::start(engine, config).map_err(|e| format!("server start: {e}"))?;
        let addr = server.local_addr().to_string();
        Ok(Running { server, addr })
    }

    pub fn client(&self) -> Client {
        Client::connect(self.addr.clone()).with_read_timeout(Some(Duration::from_secs(30)))
    }
}

/// Runs `caller(c, recorder)` on one thread per tenant, all timed from
/// one origin, and returns their recorders.
pub fn callers(
    seconds: f64,
    traced: bool,
    caller: impl Fn(usize, &mut Recorder) + Sync,
) -> Vec<Recorder> {
    let origin = Instant::now();
    let caller = &caller;
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..TENANTS.len())
            .map(|c| {
                scope.spawn(move || {
                    let mut rec = Recorder::new(origin, seconds, c as u64, traced);
                    caller(c, &mut rec);
                    rec
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("a caller thread panicked"))
            .collect()
    })
}

/// `POST path` with a JSON body as `tenant`.
pub fn post(
    client: &mut Client,
    tenant: &str,
    path: &str,
    body: &str,
) -> std::io::Result<Response> {
    let headers = [("Content-Type", "application/json"), ("x-tenant", tenant)];
    client.send("POST", path, &headers, body.as_bytes())
}

/// The counters and gauges of one `GET /metrics`, by name (labelled
/// series are skipped), and how long the scrape took in milliseconds.
///
/// # Errors
///
/// The scrape did not return 200.
pub fn scrape(client: &mut Client) -> Result<(BTreeMap<String, f64>, f64), String> {
    let started = Instant::now();
    let response = client
        .get("/metrics")
        .map_err(|e| format!("GET /metrics: {e}"))?;
    let ms = started.elapsed().as_secs_f64() * 1e3;
    if response.status != 200 {
        return Err(format!("GET /metrics returned {}", response.status));
    }
    let text = response.body_str();
    let series = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect();
    Ok((series, ms))
}

/// Server-layer numbers from two scrapes around the timed phase, per
/// thousand of the `ops` operations between them.
pub fn server_layers(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    ops: u64,
    layers: &mut Values,
) {
    let delta = |name: &str| after.get(name).unwrap_or(&0.0) - before.get(name).unwrap_or(&0.0);
    let per_kop = |x: f64| x * 1e3 / ops.max(1) as f64;
    let completed = delta("sprint_requests_completed_total");
    let shed = delta("sprint_requests_rejected_total") + delta("sprint_requests_unavailable_total");
    layers.insert(
        "server.mean_batch",
        completed / delta("sprint_batches_total").max(1.0),
    );
    layers.insert("server.shed_share", shed / (completed + shed).max(1.0));
    layers.insert(
        "server.sessions_evicted_per_kop",
        per_kop(delta("sprint_sessions_evicted_total")),
    );
    layers.insert(
        "server.sessions_rehydrated_per_kop",
        per_kop(delta("sprint_sessions_rehydrated_total")),
    );
}

/// Median round trip of `GET /health` in milliseconds: socket and parse
/// with no engine behind them.
///
/// # Errors
///
/// A request failed.
pub fn health_roundtrip_ms(client: &mut Client) -> Result<f64, String> {
    let mut ms = Vec::new();
    for _ in 0..200 {
        let started = Instant::now();
        let response = client
            .get("/health")
            .map_err(|e| format!("GET /health: {e}"))?;
        ms.push(started.elapsed().as_secs_f64() * 1e3);
        if response.status != 200 {
            return Err(format!("GET /health returned {}", response.status));
        }
    }
    Ok(crate::stats::median(&ms))
}
