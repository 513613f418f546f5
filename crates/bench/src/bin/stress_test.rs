//! `stress_test` — open-loop overload harness for the HTTP front end.
//!
//! Boots an in-process [`sprint_server::Server`] on an ephemeral port
//! and replays a [`sprint_workloads::ArrivalShape::Ramp`] of
//! [`sprint_workloads::ArrivalSpec`] traffic at it over real sockets.
//! The ramp averages ~2× the server's deliberately throttled capacity
//! (an injected per-batch service delay makes capacity exact and
//! host-independent), against tiny admission queues. The server must
//! *shed* (429 + `Retry-After`) rather than let the tail run away: the
//! harness records the shed rate (ppm) and the p99 of the requests
//! that did complete. (Capacity is not measured here: that is the
//! `http_serve` workload of `benchmark/`, none of whose workloads
//! sheds.)
//!
//! The two rows merge into the committed report under
//! `server/overload/...`; `cargo run -p sprint-bench --bin report --
//! --check` enforces the shed-rate band and the bounded p99.
//! `--no-report` skips the merge (pure smoke run); `--quick` shrinks
//! the phase for CI smoke.

use sprint_bench::report::{Report, Row, Unit};
use sprint_engine::{nearest_rank, Engine, SprintConfig};
use sprint_server::{Server, ServerConfig};
use sprint_workloads::{ArrivalSpec, TraceGenerator};
use std::time::{Duration, Instant};

/// Client workers. Clients are closed-loop (a worker blocks on its
/// in-flight request), so the worker count bounds the in-flight
/// concurrency — it must comfortably exceed the overload config's
/// queue capacity plus the batch in service, or the queues can never
/// fill and nothing sheds.
const OVERLOAD_WORKERS: usize = 16;

#[derive(Debug, Default)]
struct PhaseStats {
    shed: u64,
    other: u64,
    latencies_ns: Vec<u64>,
    wall: Duration,
}

impl PhaseStats {
    fn completed(&self) -> u64 {
        self.latencies_ns.len() as u64
    }

    fn offered(&self) -> u64 {
        self.completed() + self.shed + self.other
    }

    fn qps(&self) -> f64 {
        self.completed() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    fn shed_ppm(&self) -> u64 {
        if self.offered() == 0 {
            return 0;
        }
        (self.shed as f64 / self.offered() as f64 * 1e6).round() as u64
    }
}

/// Replays `arrivals` (virtual ns mapped 1:1 onto real ns) against
/// `addr`, striped across `workers` keep-alive clients.
fn replay(
    addr: &str,
    arrivals: &[sprint_workloads::Arrival],
    body: &str,
    workers: usize,
) -> PhaseStats {
    let started = Instant::now();
    let worker = |w: usize| {
        let mut client = minihttp::Client::connect(addr.to_string())
            .with_read_timeout(Some(Duration::from_secs(30)));
        let mut stats = PhaseStats::default();
        for arrival in arrivals.iter().skip(w).step_by(workers) {
            let due = Duration::from_nanos(arrival.at_ns);
            if let Some(wait) = due.checked_sub(started.elapsed()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            match client.post_json("/v1/serve", body) {
                Ok(response) if response.status == 200 => {
                    stats.latencies_ns.push(sent.elapsed().as_nanos() as u64)
                }
                Ok(response) if response.status == 429 => stats.shed += 1,
                Ok(_) | Err(_) => stats.other += 1,
            }
        }
        stats
    };
    let mut total = PhaseStats::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| scope.spawn(move || worker(w)))
            .collect();
        for handle in handles {
            let stats = handle.join().expect("client worker panicked");
            total.shed += stats.shed;
            total.other += stats.other;
            total.latencies_ns.extend(stats.latencies_ns);
        }
    });
    total.wall = started.elapsed();
    total
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let no_report = args.iter().any(|a| a == "--no-report");
    // Tiny shape: the harness measures the serving fabric, not the
    // substrate, and must hold its floors on a single-core host.
    let body = r#"{"model":"synth1","layers":1,"heads":1,"seq_len":16,"seed":3}"#;

    // Throttled capacity: 2 service permits, each held >=25 ms per
    // request -> ~80 req/s.
    // The ramp averages ~2x that (80 -> 320 req/s across the phase),
    // so the bounded queues must shed.
    let count = if quick { 80 } else { 400 };
    let engine = Engine::builder(SprintConfig::small()).seed(7).build()?;
    let server = Server::start(
        engine,
        ServerConfig {
            // Handlers are connection-pinned, so the pool must exceed
            // the client count for all clients to contend at once.
            http_threads: OVERLOAD_WORKERS + 2,
            engine_workers: 2,
            queue_per_tenant: 4,
            queue_global: 8,
            service_delay: Some(Duration::from_millis(25)),
            ..ServerConfig::default()
        },
    )?;
    let addr = server.local_addr().to_string();
    let arrivals = TraceGenerator::new(43)
        .arrivals(&ArrivalSpec::poisson(count, 6_250_000.0, 1).ramp(2.0, 0.5))?;
    let mut overload = replay(&addr, &arrivals, body, OVERLOAD_WORKERS);
    overload.latencies_ns.sort_unstable();
    let overload_p99 = nearest_rank(&overload.latencies_ns, 99.0);
    server.shutdown();
    println!(
        "[overload] offered {} completed {} shed {} other {} in {:.2}s -> {:.1} QPS, shed {} ppm, p99 {:.2} ms",
        overload.offered(),
        overload.completed(),
        overload.shed,
        overload.other,
        overload.wall.as_secs_f64(),
        overload.qps(),
        overload.shed_ppm(),
        overload_p99 as f64 / 1e6,
    );

    if overload.shed == 0 {
        eprintln!("warning: overload phase shed nothing; queues never filled");
    }

    if !no_report {
        let rows = [
            Row::value(
                "server/overload/shed_rate_ppm",
                Unit::Ppm,
                u128::from(overload.shed_ppm()),
                overload.offered(),
            ),
            Row::value(
                "server/overload/p99_ns",
                Unit::Ns,
                u128::from(overload_p99),
                overload.completed(),
            ),
        ];
        let path = Report::default_path();
        Report::merge_into(&path, &rows)?;
        println!("merged {} server rows into {}", rows.len(), path.display());
    }
    Ok(())
}
