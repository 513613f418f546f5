//! `http_serve`: one `POST /v1/serve` per operation. The engine work is
//! microseconds, so socket, parse, JSON, admission queue, batch window,
//! fold and serialize do nearly all of it.

use sprint_engine::{HeadRequest, ModelRequest, ModelResponse, ModelServer, PerfRollup};
use sprint_server::{protocol, Json, ServeRequest, ServerConfig};
use sprint_workloads::TraceGenerator;

use super::http::{callers, post, Running, TENANTS};
use super::{engine_builder, input_seed, rollup_layers};
use crate::checks::{head_checksum, Digest};
use crate::reference::RelErr;
use crate::report::Values;
use crate::runner::{Recorder, Sim, Workload};

/// Distinct request seeds, cycled. A request is one 16-token head (8 live
/// rows whose error is either about 0.02 or about 0.3), so it takes this
/// many for the simulated statistics and the median row error to move
/// little with the seed.
pub const REQUEST_SEEDS: usize = 512;

#[derive(Debug)]
pub struct HttpServe {
    pub running: Running,
    /// The distinct request bodies.
    pub bodies: Vec<String>,
    /// The same engine as the server's, called in process.
    pub twin: ModelServer,
    /// `protocol::response_json(twin.serve(..))` of every body: what
    /// each HTTP body must equal byte for byte.
    pub expected: Vec<String>,
    pub served: Vec<ModelResponse>,
    /// The warm-up pass's HTTP bodies, checked in `verify`.
    warm: Vec<String>,
}

/// The engine-side request a wire body names, through the server's own
/// parser.
///
/// # Errors
///
/// The body is not a serve request.
pub fn model_request(body: &str) -> Result<ModelRequest, String> {
    Ok(ServeRequest::parse(&Json::parse(body)?)?.to_model_request())
}

impl Workload for HttpServe {
    /// Every request has the same shape, so a handful hold the same work.
    const PASS: usize = 16;

    fn setup(_name: &'static str, seed: u64) -> Result<Self, String> {
        let engine = engine_builder().build().map_err(|e| e.to_string())?;
        let running = Running::start(engine, ServerConfig::default())?;
        let bodies: Vec<String> = (0..REQUEST_SEEDS as u64)
            .map(|i| {
                let s = input_seed(seed, 4, i);
                format!(r#"{{"model":"synth1","layers":1,"heads":1,"seq_len":16,"seed":{s}}}"#)
            })
            .collect();
        let mut client = running.client();
        let mut warm = Vec::new();
        for (body, tenant) in bodies.iter().zip(TENANTS.iter().cycle()) {
            let response = post(&mut client, tenant, "/v1/serve", body)
                .map_err(|e| format!("warm-up request: {e}"))?;
            if response.status != 200 {
                return Err(format!("warm-up request returned {}", response.status));
            }
            warm.push(response.body_str());
        }
        let twin = ModelServer::new(engine_builder().build().map_err(|e| e.to_string())?);
        Ok(HttpServe {
            running,
            bodies,
            twin,
            expected: Vec::new(),
            served: Vec::new(),
            warm,
        })
    }

    fn prepare_checks(&mut self) -> Result<(), String> {
        for body in &self.bodies {
            let response = self
                .twin
                .serve(&model_request(body)?)
                .map_err(|e| e.to_string())?;
            self.expected
                .push(protocol::response_json(&response).to_string());
            self.served.push(response);
        }
        Ok(())
    }

    fn run(&mut self, seconds: f64, traced: bool) -> Vec<Recorder> {
        let (bodies, expected) = (&self.bodies, &self.expected);
        callers(seconds, traced, |c, rec| {
            let mut client = self.running.client();
            // The two callers start half a cycle apart.
            for i in (0..bodies.len()).cycle().skip(c * bodies.len() / 2) {
                let response = rec.time(|tracer, op| {
                    let span = tracer.begin("minihttp.client_send", op);
                    let response = post(&mut client, TENANTS[c], "/v1/serve", &bodies[i]);
                    tracer.end(span);
                    response
                });
                rec.check(
                    response.is_ok_and(|r| r.status == 200 && r.body == expected[i].as_bytes()),
                );
                if rec.expired() {
                    break;
                }
            }
        })
    }

    fn verify(&mut self, layers: &mut Values) -> Result<Sim, String> {
        for (i, body) in self.warm.iter().enumerate() {
            if *body != self.expected[i] {
                return Err(format!(
                    "warm-up body {i} differs from the in-process response"
                ));
            }
        }
        // A twin of each request's single head, run directly: its rollup
        // must equal the served total (whose wire form the bodies were
        // just compared with), and its output is what the f64 reference
        // is compared against.
        let engine = self.twin.engine();
        let mut err = RelErr::default();
        let mut digest = Digest::default();
        let mut total = PerfRollup::default();
        for (body, served) in self.bodies.iter().zip(&self.served) {
            let request = model_request(body)?;
            let plan = request.head_plan();
            let [plan] = plan.as_slice() else {
                return Err("the request does not name exactly one head".to_string());
            };
            let trace = TraceGenerator::new(plan.trace_seed)
                .generate(&plan.spec)
                .map_err(|e| e.to_string())?;
            let response = engine
                .run_head(&HeadRequest::from_trace(&trace).with_head_id(plan.head_id))
                .map_err(|e| e.to_string())?;
            let live = trace.live_tokens();
            let d = trace.q().cols();
            let rollup = PerfRollup::from_response(
                served.mode,
                engine.config(),
                d,
                plan.spec.seq_len,
                live,
                &response,
            );
            if rollup != served.total {
                return Err("the twin head's rollup differs from the served total".to_string());
            }
            err.add_head(&trace, response.output.as_slice());
            for w in [
                rollup.cycles,
                rollup.energy.total().as_pj().to_bits(),
                head_checksum(&response),
            ] {
                digest.word(w);
            }
            total.merge(&rollup);
        }
        let per_op = |x: u64| x as f64 / REQUEST_SEEDS as f64;
        rollup_layers(&total, REQUEST_SEEDS, layers);
        Ok(Sim {
            cycles_per_op: per_op(total.cycles),
            energy_nj_per_op: total.energy.total().as_nj() / REQUEST_SEEDS as f64,
            rel_err: err.median(),
            digest: digest.0,
        })
    }

    fn teardown(self) {
        self.running.server.shutdown();
    }
}
