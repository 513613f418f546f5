//! `sprint-server` — a long-lived HTTP serving front end over the
//! SPRINT engine.
//!
//! The lower crates answer *"how fast is one pass?"*; this crate
//! answers *"what happens when real traffic meets the substrate?"*.
//! It binds a plain [`std::net::TcpListener`] (HTTP/1.1 via the
//! vendored [`minihttp`] — the workspace builds offline, so no
//! framework), and exposes:
//!
//! | Endpoint          | Purpose                                      |
//! |-------------------|----------------------------------------------|
//! | `GET /health`     | liveness + drain state                       |
//! | `GET /metrics`    | Prometheus-style text exposition             |
//! | `POST /v1/serve`  | one forward pass, behind fair admission      |
//! | `POST /v1/decode` | autoregressive sessions: open / step / close |
//!
//! Serve traffic flows through bounded per-tenant queues
//! ([`queue::AdmissionQueue`]): over capacity the server sheds load
//! with `429 Too Many Requests` + `Retry-After` instead of queueing
//! unboundedly, and service permits granted round-robin across tenants
//! bound how many run a [`sprint_engine::ModelServer`] pass at once.
//! Responses are **bit-identical** to direct in-process calls — the
//! protocol is reference-based (model name + seed, traces
//! re-synthesized server-side), and floats render shortest-round-trip
//! (see [`json`]).
//!
//! # Example
//!
//! ```
//! use sprint_engine::{Engine, SprintConfig};
//! use sprint_server::{Server, ServerConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let engine = Engine::builder(SprintConfig::small()).build()?;
//! let server = Server::start(engine, ServerConfig::default())?;
//! let mut client = minihttp::Client::connect(server.local_addr().to_string());
//! let health = client.get("/health")?;
//! assert_eq!(health.status, 200);
//! let response = client.post_json(
//!     "/v1/serve",
//!     r#"{"model":"synth1","layers":1,"heads":1,"seq_len":16,"seed":3}"#,
//! )?;
//! assert_eq!(response.status, 200);
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;

pub use json::Json;
pub use metrics::Metrics;
pub use protocol::ServeRequest;
pub use queue::{AdmissionQueue, Rejection};
pub use server::{Server, ServerConfig};
