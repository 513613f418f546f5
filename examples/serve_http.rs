//! HTTP serving end to end, in one process: boot the `sprint-server`
//! front end on an ephemeral port, replay a bursty arrival stream at
//! it over real sockets, and read the `/metrics` exposition back.
//!
//! ```sh
//! cargo run -p sprint-examples --example serve_http --release
//! ```
//!
//! An `ArrivalSpec` stream drives the traffic; requests travel
//! through TCP, HTTP/1.1 keep-alive parsing, per-tenant admission
//! queues and the deterministic batching window before they reach the
//! engine — and the responses coming back are bit-identical to direct
//! in-process `ModelServer` calls.

use sprint_engine::{Engine, SprintConfig};
use sprint_server::{Server, ServerConfig};
use sprint_workloads::{ArrivalSpec, TraceGenerator};
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("SPRINT HTTP serving demo\n");

    let engine = Engine::builder(SprintConfig::small()).seed(7).build()?;
    let server = Server::start(engine, ServerConfig::default())?;
    let addr = server.local_addr().to_string();
    println!("serving on http://{addr}");

    let mut client =
        minihttp::Client::connect(addr.clone()).with_read_timeout(Some(Duration::from_secs(30)));
    let health = client.get("/health")?;
    println!("GET /health -> {} {}", health.status, health.body_str());

    // A bursty stream: 48 requests at a 25 ms long-run mean gap,
    // arriving in bursts of 6 spread over 2 ms — the worst case for a
    // batching window, and exactly what `ArrivalShape::Burst` models.
    let arrivals = TraceGenerator::new(42)
        .arrivals(&ArrivalSpec::poisson(48, 25_000_000.0, 1).burst(6, 2_000_000.0))?;
    let body = r#"{"model":"synth1","layers":1,"heads":1,"seq_len":16,"seed":3}"#;

    println!(
        "\nreplaying {} bursty arrivals over HTTP...",
        arrivals.len()
    );
    let started = Instant::now();
    let mut served = 0u32;
    let mut shed = 0u32;
    for arrival in &arrivals {
        if let Some(wait) = Duration::from_nanos(arrival.at_ns).checked_sub(started.elapsed()) {
            std::thread::sleep(wait);
        }
        let response = client.post_json("/v1/serve", body)?;
        match response.status {
            200 => served += 1,
            429 => shed += 1,
            other => println!("unexpected status {other}: {}", response.body_str()),
        }
    }
    let wall = started.elapsed();
    println!(
        "served {served}, shed {shed} in {:.2}s ({:.1} requests/s)",
        wall.as_secs_f64(),
        f64::from(served) / wall.as_secs_f64()
    );

    // The exposition the scrape path sees, trimmed to the headline
    // numbers (full text at GET /metrics).
    println!("\nGET /metrics (excerpt):");
    let metrics = client.get("/metrics")?.body_str();
    for line in metrics.lines().filter(|l| {
        !l.starts_with('#')
            && (l.starts_with("sprint_requests_")
                || l.starts_with("sprint_batches_total")
                || l.starts_with("sprint_qps")
                || l.starts_with("sprint_request_latency_ms"))
    }) {
        println!("  {line}");
    }

    println!("\nshutting down (drains in-flight work)...");
    server.shutdown();
    println!("done.");
    Ok(())
}
