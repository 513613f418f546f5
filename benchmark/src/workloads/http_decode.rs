//! `http_decode`: one `POST /v1/decode` step per operation, over 8
//! sessions opened over HTTP with at most 6 resident, so the server's own
//! session map, LRU tick, evict-coldest and transparent rehydration run.
//! Each caller owns 4 sessions and steps them 8 at a time in a seeded
//! shuffled order.
//!
//! Which session the server evicts depends on how the two callers
//! interleave, and a rehydrated session reproduces a never-evicted one bit
//! for bit only under the ideal noise model (a rebuilt pruner restarts its
//! noise streams). This workload therefore runs `NoiseModel::ideal()`, so
//! every step's `output` can be checked against a direct
//! `Engine::open_session` twin whatever the interleaving was. The noisy
//! analog path is `prefill_sprint`'s and `decode_churn`'s to measure.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use minihttp::Client;
use sprint_engine::{DecodeStep, Engine, SessionRequest};
use sprint_reram::NoiseModel;
use sprint_server::{Json, ServerConfig};
use sprint_workloads::{HeadTrace, ModelConfig, TraceGenerator};

use super::http::{callers, post, Running, TENANTS};
use super::{engine_builder, input_seed};
use crate::checks::Digest;
use crate::reference::RelErr;
use crate::report::Values;
use crate::runner::{Recorder, Sim, Workload};

pub const SESSIONS: usize = 8;
pub const SEQ_LEN: usize = 256;
pub const PREFILL: usize = 64;
pub const MAX_RESIDENT: usize = 6;
/// Consecutive steps on one session before another is drawn.
pub const BURST: usize = 8;

/// What a direct, never-evicted session returns for one session seed.
#[derive(Debug)]
pub struct Twin {
    pub trace: HeadTrace,
    /// Output row of every step, from token `PREFILL` on.
    pub outputs: Vec<Vec<f32>>,
    /// Simulated cycles of the whole session (the `cycles` a close
    /// reports once every token was served).
    pub cycles: u64,
    pub energy_nj: f64,
}

#[derive(Debug)]
pub struct HttpDecode {
    pub running: Running,
    seed: u64,
    /// The session seeds sent in `open`; caller `c` owns sessions
    /// `c * SESSIONS / 2 ..`.
    pub session_seeds: Vec<u64>,
    pub twins: Vec<Twin>,
    /// Milliseconds to synthesize one twin trace (what an `open` pays).
    generate_ms: f64,
}

fn engine() -> Result<Engine, String> {
    engine_builder()
        .noise(NoiseModel::ideal())
        .build()
        .map_err(|e| e.to_string())
}

/// One caller's view of one server-side session.
struct Remote {
    id: u64,
    next: usize,
}

/// The body of a 200 response.
fn ok_json(response: std::io::Result<minihttp::Response>) -> Option<Json> {
    let response = response.ok()?;
    if response.status != 200 {
        return None;
    }
    Json::parse(&response.body_str()).ok()
}

fn open(client: &mut Client, tenant: &str, seed: u64) -> Result<Remote, String> {
    let body = format!(
        r#"{{"action":"open","model":"gpt2_large","seq_len":{SEQ_LEN},"prefill":{PREFILL},"seed":{seed}}}"#
    );
    let doc = ok_json(post(client, tenant, "/v1/decode", &body)).ok_or("open was refused")?;
    Ok(Remote {
        id: doc
            .u64_field("session")
            .ok_or("open returned no session id")?,
        next: PREFILL,
    })
}

/// Closes `remote`; a session that served every token must report the
/// twin's simulated cycles (`twin` is `None` during warm-up, before the
/// twins exist).
fn close(client: &mut Client, tenant: &str, remote: &Remote, twin: Option<&Twin>) -> bool {
    let body = format!(r#"{{"action":"close","session":{}}}"#, remote.id);
    let Some(doc) = ok_json(post(client, tenant, "/v1/decode", &body)) else {
        return false;
    };
    let complete = twin.filter(|_| remote.next == SEQ_LEN);
    complete.is_none_or(|twin| doc.u64_field("cycles") == Some(twin.cycles))
}

/// Whether a step's body carries `position == t` and exactly the twin's
/// output row (shortest-round-trip floats: equal values are equal bits).
fn step_matches(doc: &Json, t: usize, expected: &[f32]) -> bool {
    let Some(Json::Arr(output)) = doc.get("output") else {
        return false;
    };
    doc.u64_field("position") == Some(t as u64)
        && output.len() == expected.len()
        && output.iter().zip(expected).all(|(got, want)| {
            got.as_f64()
                .is_some_and(|g| (g as f32).to_bits() == want.to_bits())
        })
}

/// splitmix64: the callers' burst schedules.
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl HttpDecode {
    /// One caller's burst order for one life of its sessions: each of
    /// its sessions `(SEQ_LEN - PREFILL) / BURST` times, shuffled by the seed. Replayed
    /// cycle after cycle, so every cycle opens each session once, uses up
    /// all its tokens and closes it: the same work, whenever it runs.
    fn cycle(&self, c: usize) -> Vec<usize> {
        let mine = SESSIONS / TENANTS.len();
        let mut order: Vec<usize> = (0..mine * (SEQ_LEN - PREFILL) / BURST)
            .map(|b| b % mine)
            .collect();
        let mut rng = input_seed(self.seed, 6, c as u64);
        for i in (1..order.len()).rev() {
            order.swap(i, (next_u64(&mut rng) % (i as u64 + 1)) as usize);
        }
        order
    }

    /// One caller's closed loop: cycles of open every session, `BURST`
    /// steps at a time in the seeded order, close every session; until
    /// the recorder has expired at the end of a cycle (`once`: exactly one
    /// cycle). Only steps are timed operations; opens and closes fall
    /// between them. The callers start every cycle together, so a cycle of
    /// both is always the same work in the same arrangement (opens
    /// side by side, then steps side by side) however long they ran.
    fn caller(
        &self,
        c: usize,
        rec: &mut Recorder,
        once: bool,
        sync: &CycleSync,
    ) -> Result<(), String> {
        let tenant = TENANTS[c];
        let mine = SESSIONS / TENANTS.len();
        let first = c * mine;
        let order = self.cycle(c);
        let mut client = self.running.client();
        loop {
            let mut outcome = Ok(());
            match (first..first + mine)
                .map(|s| open(&mut client, tenant, self.session_seeds[s]))
                .collect::<Result<Vec<_>, _>>()
            {
                Ok(mut remotes) => {
                    for &pick in &order {
                        let twin = self.twins.get(first + pick);
                        let remote = &mut remotes[pick];
                        let body = format!(r#"{{"action":"step","session":{}}}"#, remote.id);
                        for _ in 0..BURST {
                            let t = remote.next;
                            let response = rec.time(|tracer, op| {
                                let span = tracer.begin("minihttp.client_send", op);
                                let response = post(&mut client, tenant, "/v1/decode", &body);
                                tracer.end(span);
                                response
                            });
                            rec.check(ok_json(response).is_some_and(|doc| {
                                twin.is_none_or(|twin| {
                                    step_matches(&doc, t, &twin.outputs[t - PREFILL])
                                })
                            }));
                            remote.next += 1;
                        }
                    }
                    for (remote, s) in remotes.iter().zip(first..) {
                        rec.check(close(&mut client, tenant, remote, self.twins.get(s)));
                    }
                }
                Err(e) => outcome = Err(e),
            }
            // Both callers leave together: a caller that stopped alone
            // would leave the other waiting for the next cycle.
            if sync.stop_after(once || outcome.is_err() || rec.expired()) {
                return outcome;
            }
        }
    }

    fn callers(&self, seconds: f64, traced: bool, once: bool) -> Vec<Recorder> {
        let sync = CycleSync::new(TENANTS.len());
        callers(seconds, traced, |c, rec| {
            if self.caller(c, rec, once, &sync).is_err() {
                rec.failed += 1;
            }
        })
    }
}

/// Lets the callers end every cycle together and agree on whether it was
/// the last.
struct CycleSync {
    barrier: Barrier,
    stop: AtomicBool,
}

impl CycleSync {
    fn new(callers: usize) -> Self {
        CycleSync {
            barrier: Barrier::new(callers),
            stop: AtomicBool::new(false),
        }
    }

    /// Waits for every caller to finish its cycle; true if any of them
    /// wants to stop. The second wait keeps a fast caller from raising the
    /// flag for the next cycle before a slow one has read it for this one.
    fn stop_after(&self, wants_to_stop: bool) -> bool {
        if wants_to_stop {
            self.stop.store(true, Ordering::SeqCst);
        }
        self.barrier.wait();
        let stop = self.stop.load(Ordering::SeqCst);
        self.barrier.wait();
        stop
    }
}

impl Workload for HttpDecode {
    /// One cycle of both callers.
    const PASS: usize = SESSIONS * (SEQ_LEN - PREFILL);

    fn setup(_name: &'static str, seed: u64) -> Result<Self, String> {
        let config = ServerConfig {
            max_resident_sessions: Some(MAX_RESIDENT),
            ..ServerConfig::default()
        };
        let out = HttpDecode {
            running: Running::start(engine()?, config)?,
            seed,
            session_seeds: (0..SESSIONS as u64)
                .map(|i| input_seed(seed, 5, i))
                .collect(),
            twins: Vec::new(),
            generate_ms: 0.0,
        };
        // Warm-up: one cycle of each caller. Outputs are checked once
        // `prepare_checks` has computed the twins.
        let warm = out.callers(f64::MAX, false, true);
        if warm.iter().any(|r| r.ops.is_empty()) {
            return Err("the warm-up pass served no step".to_string());
        }
        Ok(out)
    }

    fn prepare_checks(&mut self) -> Result<(), String> {
        let engine = engine()?;
        let spec = ModelConfig::gpt2_large()
            .trace_spec()
            .with_seq_len(SEQ_LEN)
            .with_padding(0.0);
        for &seed in &self.session_seeds {
            let started = Instant::now();
            let trace = TraceGenerator::new(seed)
                .generate(&spec)
                .map_err(|e| e.to_string())?;
            self.generate_ms += started.elapsed().as_secs_f64() * 1e3 / SESSIONS as f64;
            let k = trace.k().prefix_rows(PREFILL).map_err(|e| e.to_string())?;
            let v = trace.v().prefix_rows(PREFILL).map_err(|e| e.to_string())?;
            let request =
                SessionRequest::new(&k, &v, trace.config(), trace.threshold()).with_head_id(seed);
            let mut session = engine.open_session(&request).map_err(|e| e.to_string())?;
            let mut outputs = Vec::new();
            let mut energy_nj = 0.0;
            for t in PREFILL..SEQ_LEN {
                let step = DecodeStep {
                    q: trace.q().row(t),
                    k: trace.k().row(t),
                    v: trace.v().row(t),
                };
                let response = session.step(&step).map_err(|e| e.to_string())?;
                energy_nj += response.perf.energy.total().as_nj();
                outputs.push(response.output);
            }
            let cycles = session.perf().cycles;
            self.twins.push(Twin {
                trace,
                outputs,
                cycles,
                energy_nj,
            });
        }
        Ok(())
    }

    fn run(&mut self, seconds: f64, traced: bool) -> Vec<Recorder> {
        self.callers(seconds, traced, false)
    }

    fn verify(&mut self, layers: &mut Values) -> Result<Sim, String> {
        let mut err = RelErr::default();
        let mut digest = Digest::default();
        let steps = (SESSIONS * (SEQ_LEN - PREFILL)) as f64;
        for twin in &self.twins {
            for (t, output) in (PREFILL..).zip(&twin.outputs) {
                err.add_step(&twin.trace, t, output);
                digest.floats(output);
            }
            digest.word(twin.cycles);
            digest.word(twin.energy_nj.to_bits());
        }
        let pool_client = &mut self.running.client();
        let (series, _) = super::http::scrape(pool_client)?;
        let leaked = series.get("sprint_kv_pages_in_use").copied().unwrap_or(0.0);
        if leaked != 0.0 {
            return Err(format!(
                "{leaked} KV pages in use with every session closed"
            ));
        }
        layers.insert("attention.pool_pages_leaked", leaked);
        layers.insert("workloads.generate_ms", self.generate_ms);
        Ok(Sim {
            cycles_per_op: self.twins.iter().map(|t| t.cycles).sum::<u64>() as f64 / steps,
            energy_nj_per_op: self.twins.iter().map(|t| t.energy_nj).sum::<f64>() / steps,
            rel_err: err.median(),
            digest: digest.0,
        })
    }

    fn teardown(self) {
        self.running.server.shutdown();
    }
}
