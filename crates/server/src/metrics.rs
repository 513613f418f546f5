//! Server-wide counters and the `/metrics` text exposition.
//!
//! Everything is lock-free atomics except the latency reservoir (a
//! small mutex-guarded ring of recent request latencies, sampled for
//! the quantile gauges). The exposition follows the Prometheus text
//! format: `# HELP`/`# TYPE` preamble per family, one sample per line,
//! quantiles as `{quantile="..."}` labels.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Capacity of the latency reservoir: quantiles reflect the most
/// recent this-many completed requests.
pub const LATENCY_RING: usize = 4096;

/// Shared server counters. One instance per [`crate::Server`], behind
/// an `Arc`; every handler and the batcher update it.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    /// Requests that reached routing (any endpoint).
    pub http_requests: AtomicU64,
    /// Serve requests admitted into a queue.
    pub admitted: AtomicU64,
    /// Serve requests rejected with 429 (queue full).
    pub rejected: AtomicU64,
    /// Serve requests rejected with 503 (shutting down / overloaded
    /// accept path).
    pub unavailable: AtomicU64,
    /// Serve requests completed (response written).
    pub completed: AtomicU64,
    /// Serve requests currently admitted but not yet completed.
    pub inflight: AtomicU64,
    /// Engine batches dispatched by the batcher.
    pub batches: AtomicU64,
    /// Decode sessions opened over HTTP.
    pub sessions_opened: AtomicU64,
    /// Decode sessions currently open.
    pub sessions_open: AtomicU64,
    /// Decode steps served.
    pub decode_steps: AtomicU64,
    /// Decode sessions whose KV pages were dropped back to the shared
    /// pool (the session survives; its next step rehydrates it).
    pub sessions_evicted: AtomicU64,
    /// Decode sessions rebuilt from their replayed token history.
    pub sessions_rehydrated: AtomicU64,
    /// ReRAM cell faults detected, rolled up across responses.
    pub faults_detected: AtomicU64,
    /// Write-verify repair retries, rolled up across responses.
    pub fault_retries: AtomicU64,
    /// Crossbar columns remapped to spares, rolled up.
    pub remapped_columns: AtomicU64,
    /// Heads demoted to the exact digital pipeline, rolled up.
    pub heads_demoted: AtomicU64,
    latencies_ns: Mutex<LatencyRing>,
}

#[derive(Debug)]
struct LatencyRing {
    samples: Vec<u64>,
    next: usize,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            started: Instant::now(),
            http_requests: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            unavailable: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            sessions_opened: AtomicU64::new(0),
            sessions_open: AtomicU64::new(0),
            decode_steps: AtomicU64::new(0),
            sessions_evicted: AtomicU64::new(0),
            sessions_rehydrated: AtomicU64::new(0),
            faults_detected: AtomicU64::new(0),
            fault_retries: AtomicU64::new(0),
            remapped_columns: AtomicU64::new(0),
            heads_demoted: AtomicU64::new(0),
            latencies_ns: Mutex::new(LatencyRing {
                samples: Vec::with_capacity(LATENCY_RING),
                next: 0,
            }),
        }
    }
}

impl Metrics {
    /// A zeroed metrics block whose uptime clock starts now.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed request's end-to-end latency.
    pub fn record_latency(&self, ns: u64) {
        let mut ring = self.latencies_ns.lock().expect("latency ring poisoned");
        if ring.samples.len() < LATENCY_RING {
            ring.samples.push(ns);
        } else {
            let slot = ring.next;
            ring.samples[slot] = ns;
        }
        ring.next = (ring.next + 1) % LATENCY_RING;
    }

    /// Folds one response's fault rollup into the counters.
    pub fn record_faults(&self, detected: u64, retries: u64, remapped: u64, demoted: u64) {
        self.faults_detected.fetch_add(detected, Ordering::Relaxed);
        self.fault_retries.fetch_add(retries, Ordering::Relaxed);
        self.remapped_columns.fetch_add(remapped, Ordering::Relaxed);
        self.heads_demoted.fetch_add(demoted, Ordering::Relaxed);
    }

    /// Nearest-rank quantiles over the reservoir: `(p50, p90, p99)` in
    /// nanoseconds, zeros when nothing has completed.
    pub fn latency_quantiles_ns(&self) -> (u64, u64, u64) {
        let mut sorted = self
            .latencies_ns
            .lock()
            .expect("latency ring poisoned")
            .samples
            .clone();
        sorted.sort_unstable();
        let pick = |pct: f64| sprint_engine::nearest_rank(&sorted, pct);
        (pick(50.0), pick(90.0), pick(99.0))
    }

    /// Completed requests per second of server uptime.
    pub fn qps(&self) -> f64 {
        let uptime = self.started.elapsed().as_secs_f64().max(1e-9);
        self.completed.load(Ordering::Relaxed) as f64 / uptime
    }

    /// Renders the Prometheus-style text exposition, with the live
    /// queue depth and KV pool occupancy supplied by the caller (the
    /// queue and the engine's page pool own those numbers;
    /// `kv_pages_capacity` of zero means the pool is unbounded).
    pub fn render(
        &self,
        queue_depth: usize,
        kv_pages_in_use: usize,
        kv_pages_capacity: usize,
    ) -> String {
        let (p50, p90, p99) = self.latency_quantiles_ns();
        let counter = |out: &mut String, name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        };
        let gauge = |out: &mut String, name: &str, help: &str, value: String| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
            ));
        };
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut out = String::new();
        counter(
            &mut out,
            "sprint_http_requests_total",
            "HTTP requests routed (all endpoints).",
            load(&self.http_requests),
        );
        counter(
            &mut out,
            "sprint_requests_admitted_total",
            "Serve requests admitted into a tenant queue.",
            load(&self.admitted),
        );
        counter(
            &mut out,
            "sprint_requests_rejected_total",
            "Serve requests shed with 429 (queue full).",
            load(&self.rejected),
        );
        counter(
            &mut out,
            "sprint_requests_unavailable_total",
            "Serve requests refused with 503 (draining or overloaded).",
            load(&self.unavailable),
        );
        counter(
            &mut out,
            "sprint_requests_completed_total",
            "Serve requests completed.",
            load(&self.completed),
        );
        counter(
            &mut out,
            "sprint_batches_total",
            "Engine batches dispatched by the batching loop.",
            load(&self.batches),
        );
        gauge(
            &mut out,
            "sprint_requests_inflight",
            "Serve requests admitted but not yet completed.",
            load(&self.inflight).to_string(),
        );
        gauge(
            &mut out,
            "sprint_queue_depth",
            "Serve requests waiting in tenant queues.",
            queue_depth.to_string(),
        );
        gauge(
            &mut out,
            "sprint_qps",
            "Completed serve requests per second of uptime.",
            format!("{:.3}", self.qps()),
        );
        out.push_str("# HELP sprint_request_latency_ms End-to-end serve latency quantiles over the recent-request reservoir.\n");
        out.push_str("# TYPE sprint_request_latency_ms gauge\n");
        for (q, ns) in [("0.5", p50), ("0.9", p90), ("0.99", p99)] {
            out.push_str(&format!(
                "sprint_request_latency_ms{{quantile=\"{q}\"}} {:.3}\n",
                ns as f64 / 1e6
            ));
        }
        counter(
            &mut out,
            "sprint_decode_sessions_opened_total",
            "Decode sessions opened over HTTP.",
            load(&self.sessions_opened),
        );
        gauge(
            &mut out,
            "sprint_decode_sessions_open",
            "Decode sessions currently open.",
            load(&self.sessions_open).to_string(),
        );
        counter(
            &mut out,
            "sprint_decode_steps_total",
            "Decode steps served.",
            load(&self.decode_steps),
        );
        counter(
            &mut out,
            "sprint_sessions_evicted_total",
            "Decode sessions whose KV pages were dropped back to the pool.",
            load(&self.sessions_evicted),
        );
        counter(
            &mut out,
            "sprint_sessions_rehydrated_total",
            "Decode sessions rebuilt from their replayed token history.",
            load(&self.sessions_rehydrated),
        );
        gauge(
            &mut out,
            "sprint_kv_pages_in_use",
            "Pages resident in the shared KV page pool.",
            kv_pages_in_use.to_string(),
        );
        gauge(
            &mut out,
            "sprint_kv_pages_capacity",
            "Page capacity of the KV pool (0 = unbounded).",
            kv_pages_capacity.to_string(),
        );
        counter(
            &mut out,
            "sprint_fault_cells_detected_total",
            "ReRAM cell faults detected across all served work.",
            load(&self.faults_detected),
        );
        counter(
            &mut out,
            "sprint_fault_retries_total",
            "Write-verify repair retries across all served work.",
            load(&self.fault_retries),
        );
        counter(
            &mut out,
            "sprint_fault_remapped_columns_total",
            "Crossbar columns remapped to spares across all served work.",
            load(&self.remapped_columns),
        );
        counter(
            &mut out,
            "sprint_heads_demoted_total",
            "Heads demoted to the exact digital pipeline across all served work.",
            load(&self.heads_demoted),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_renders_all_families() {
        let m = Metrics::new();
        m.http_requests.fetch_add(3, Ordering::Relaxed);
        m.completed.fetch_add(2, Ordering::Relaxed);
        m.record_faults(5, 2, 1, 1);
        m.record_latency(1_000_000);
        m.record_latency(3_000_000);
        m.sessions_evicted.fetch_add(6, Ordering::Relaxed);
        m.sessions_rehydrated.fetch_add(4, Ordering::Relaxed);
        let text = m.render(4, 9, 16);
        for needle in [
            "sprint_http_requests_total 3",
            "sprint_requests_completed_total 2",
            "sprint_queue_depth 4",
            "sprint_sessions_evicted_total 6",
            "sprint_sessions_rehydrated_total 4",
            "sprint_kv_pages_in_use 9",
            "sprint_kv_pages_capacity 16",
            "sprint_request_latency_ms{quantile=\"0.5\"} 1.000",
            "sprint_request_latency_ms{quantile=\"0.99\"} 3.000",
            "sprint_fault_cells_detected_total 5",
            "sprint_fault_retries_total 2",
            "sprint_fault_remapped_columns_total 1",
            "sprint_heads_demoted_total 1",
            "# TYPE sprint_qps gauge",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn latency_ring_wraps_without_growing() {
        let m = Metrics::new();
        for i in 0..(LATENCY_RING as u64 + 100) {
            m.record_latency(i);
        }
        let (p50, _, p99) = m.latency_quantiles_ns();
        // The oldest 100 samples were overwritten; quantiles come from
        // the most recent LATENCY_RING values (100..4196).
        assert!(p50 >= 100, "p50 {p50}");
        assert!(p99 < LATENCY_RING as u64 + 100, "p99 {p99}");
    }

    #[test]
    fn quantiles_empty_reservoir_is_zero() {
        assert_eq!(Metrics::new().latency_quantiles_ns(), (0, 0, 0));
    }
}
