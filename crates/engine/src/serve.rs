//! Model-level serving: [`ModelServer`] over the [`Engine`].
//!
//! The [`Engine`] serves isolated heads; the evaluation — and any real
//! deployment — is model-shaped. [`ModelServer`] closes that gap: it
//! decomposes a [`ModelRequest`] (layers × heads, per-layer sequence
//! lengths, one shared base seed) into [`crate::HeadRequest`]s,
//! schedules them over the engine's pool of reset-reused worker
//! scratches via [`sprint_parallel`], and aggregates the responses
//! into a [`ModelResponse`] of per-layer and whole-model roll-ups.
//! The decomposition inherits [`Engine::run_batch`]'s determinism
//! guarantee: results are bit-identical across worker counts and equal
//! to a sequential per-head loop over the same
//! [`ModelRequest::head_plan`].
//!
//! Traffic — arrivals, admission, service permits, latency
//! percentiles — is the HTTP server's job (`sprint_server`: each
//! handler that holds a service permit calls [`ModelServer::serve`]
//! for its one request). Decode sessions are served by
//! [`crate::SessionTable`], not here.

use std::time::Instant;

use sprint_workloads::{ProxyTask, TaskScore, TraceGenerator, TraceSpec};

use crate::engine::BatchReport;
use crate::model::{HeadPlan, LayerReport, ModelRequest, ModelResponse, PerfRollup};
use crate::{Engine, HeadRequest, SprintError};

/// Per-stage execution accounting for one [`ModelServer::serve_many`]
/// pass ([`ModelServer::serve_many_report`]).
///
/// The serial stages (`plan_ns`, `score_ns`, `fold_ns`) are wall-clock
/// spans; the two fan-outs (`synth`, `batch`) carry full per-worker
/// [`BatchReport`]s. Together they answer "where did the pass
/// serialize": a large serial stage bounds scaling no matter how many
/// workers run, while an uneven fan-out shows up in the worker
/// counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Wall-clock nanoseconds decomposing passes into head plans
    /// (serial).
    pub plan_ns: u128,
    /// Trace-synthesis fan-out (deduplicated `(seed, spec)` pairs).
    pub synth: BatchReport,
    /// The engine head-batch fan-out.
    pub batch: BatchReport,
    /// Wall-clock nanoseconds scoring accuracy (≈0 when no pass asks
    /// for it; the scoring fan-out is timed as one span).
    pub score_ns: u128,
    /// Wall-clock nanoseconds folding head rollups into per-layer and
    /// per-model reports (serial).
    pub fold_ns: u128,
}

impl ServeStats {
    /// The pass's ideal wall-clock on a host with one free core per
    /// worker: the serial stages plus each fan-out's critical path.
    /// Comparing this across worker counts demonstrates (or refutes)
    /// scaling independent of how loaded the measuring machine is.
    pub fn critical_path_ns(&self) -> u128 {
        self.plan_ns
            + self.synth.critical_path_ns()
            + self.batch.critical_path_ns()
            + self.score_ns
            + self.fold_ns
    }
}

/// Serves whole forward passes over one [`Engine`].
///
/// The server owns nothing beyond the engine: all reusable substrate
/// state (pruner crossbars, memory controllers, attention scratch)
/// lives in the engine's worker slots and is recycled across passes,
/// so a long-running server allocates no per-request substrate.
///
/// # Example
///
/// ```
/// use sprint_engine::{Engine, ModelProfile, ModelRequest, ModelServer, SprintConfig};
/// use sprint_workloads::ModelConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let server = ModelServer::new(Engine::builder(SprintConfig::small()).seed(1).build()?);
/// let profile = ModelProfile::from_model(&ModelConfig::bert_base())
///     .with_layers(2)
///     .with_heads(2)
///     .with_layer_seq_lens(vec![48, 32]); // ragged layers are fine
/// let response = server.serve(&ModelRequest::new(profile).with_seed(7))?;
/// assert_eq!(response.layers.len(), 2);
/// assert_eq!(response.total.heads, 4);
/// assert!(response.total.energy.total().as_pj() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ModelServer {
    engine: Engine,
}

impl ModelServer {
    /// Wraps an engine. The engine's worker slots are the server's
    /// execution pool; its defaults (mode, noise, comparator, seed)
    /// apply to every pass that does not override them.
    pub fn new(engine: Engine) -> Self {
        ModelServer { engine }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Unwraps the server back into its engine.
    pub fn into_engine(self) -> Engine {
        self.engine
    }

    /// Serves one forward pass (fanned out across up to
    /// [`Engine::worker_slots`] workers).
    ///
    /// # Errors
    ///
    /// [`SprintError::Request`] for degenerate profiles or accuracy
    /// requests without a source model; substrate errors otherwise.
    pub fn serve(&self, request: &ModelRequest) -> Result<ModelResponse, SprintError> {
        let mut responses = self.serve_many(std::slice::from_ref(request))?;
        Ok(responses.remove(0))
    }

    /// Serves several passes as one flattened head batch. Each pass
    /// keeps its own base seed, so the responses equal one
    /// [`ModelServer::serve`] call per request.
    ///
    /// # Errors
    ///
    /// The first failing request's error, in request order.
    pub fn serve_many(&self, requests: &[ModelRequest]) -> Result<Vec<ModelResponse>, SprintError> {
        Ok(self
            .serve_many_report(sprint_parallel::max_threads(), requests)?
            .0)
    }

    /// [`ModelServer::serve_many`] over an explicit worker count, with
    /// per-stage execution accounting — the entry the determinism
    /// tests sweep widths through. Returns the responses together with
    /// a [`ServeStats`] locating where the pass spent its time (serial
    /// planning/scoring/folding vs. the synthesis and head-batch
    /// fan-outs, with per-worker counters for both).
    ///
    /// # Errors
    ///
    /// Same as [`ModelServer::serve_many`].
    #[allow(clippy::type_complexity)]
    pub fn serve_many_report(
        &self,
        threads: usize,
        requests: &[ModelRequest],
    ) -> Result<(Vec<ModelResponse>, ServeStats), SprintError> {
        // The explicit count governs every fan-out of the pass, not
        // just the engine batch — a caller asking for one worker gets
        // exactly one thread of synthesis and scoring too. It is NOT
        // clamped to `max_threads()`: an explicit request for N
        // workers must produce N workers (the engine batch still caps
        // at its slot count), otherwise worker sweeps silently
        // serialize on small hosts.
        let workers = threads.max(1);
        // 1. Decompose every pass into its deterministic head plan.
        let plan_started = Instant::now();
        let mut plans: Vec<(usize, HeadPlan)> = Vec::new();
        for (r, request) in requests.iter().enumerate() {
            request.profile().validate()?;
            if request.wants_accuracy() && request.profile().source().is_none() {
                return Err(SprintError::Request(format!(
                    "accuracy requested for '{}' but the profile has no source model",
                    request.profile().name()
                )));
            }
            plans.extend(request.head_plan().into_iter().map(|h| (r, h)));
        }
        let plan_ns = plan_started.elapsed().as_nanos();

        // 2. Synthesize the traces — deduplicated: passes that share a
        // base seed and layer shape (a mode sweep over one model, say)
        // name the same (trace_seed, spec) pairs, and a trace is a
        // pure function of that pair, so each unique pair is built
        // once. The fan-out stays bit-identical to a sequential loop.
        let synth_started = Instant::now();
        let mut trace_keys: Vec<(u64, TraceSpec)> = Vec::new();
        let mut trace_of: Vec<usize> = Vec::with_capacity(plans.len());
        for (_, plan) in &plans {
            let key = (plan.trace_seed, plan.spec);
            let idx = trace_keys
                .iter()
                .position(|k| *k == key)
                .unwrap_or_else(|| {
                    trace_keys.push(key);
                    trace_keys.len() - 1
                });
            trace_of.push(idx);
        }
        let (traces, synth_workers) = sprint_parallel::par_chunk_try_map_threads(
            workers,
            &trace_keys,
            |_, _, (seed, spec)| TraceGenerator::new(*seed).generate(spec),
        )?;
        let synth = BatchReport {
            wall_ns: synth_started.elapsed().as_nanos(),
            workers: synth_workers,
        };

        // 3. Stamp out head requests (borrowing the traces) and run
        // them as one sharded batch: worker `w` stays pinned to the
        // engine's scratch slot `w` for the whole batch. The unchecked
        // path is deliberate — mode sweeps flatten passes that reuse
        // head ids against a shared base seed, which the public
        // `run_batch` rejects as a seed collision.
        let head_requests: Vec<HeadRequest> = plans
            .iter()
            .zip(&trace_of)
            .map(|((r, plan), &t)| {
                let mut head = HeadRequest::from_trace(&traces[t]).with_head_id(plan.head_id);
                if let Some(mode) = requests[*r].mode_override() {
                    head = head.with_mode(mode);
                }
                if let Some(spec) = requests[*r].threshold_spec_override() {
                    head = head.with_threshold_spec(spec);
                }
                head
            })
            .collect();
        let (head_responses, batch) = self.engine.run_batch_sharded(workers, &head_requests)?;

        // 4. Score the passes that asked for accuracy. Tasks are
        // deduplicated like traces (a task is a pure function of its
        // trace, source model and task seed, and its construction runs
        // a dense reference pass — the expensive half); the per-head
        // evaluation still runs per response. Skipped entirely when no
        // pass wants accuracy.
        let score_started = Instant::now();
        let scores: Vec<Option<TaskScore>> = if requests.iter().any(ModelRequest::wants_accuracy) {
            let mut task_keys: Vec<(usize, u64, usize)> = Vec::new(); // (trace, seed, request)
            let mut task_of: Vec<Option<usize>> = Vec::with_capacity(plans.len());
            for ((r, plan), &t) in plans.iter().zip(&trace_of) {
                if !requests[*r].wants_accuracy() {
                    task_of.push(None);
                    continue;
                }
                let idx = task_keys
                    .iter()
                    .position(|&(kt, ks, kr)| {
                        kt == t
                            && ks == plan.task_seed
                            && requests[kr].profile().source() == requests[*r].profile().source()
                    })
                    .unwrap_or_else(|| {
                        task_keys.push((t, plan.task_seed, *r));
                        task_keys.len() - 1
                    });
                task_of.push(Some(idx));
            }
            let tasks =
                sprint_parallel::par_try_map_threads(workers, &task_keys, |&(t, seed, r)| {
                    let model = requests[r].profile().source().expect("checked above");
                    ProxyTask::new(&traces[t], model, seed)
                })?;
            let indices: Vec<usize> = (0..plans.len()).collect();
            sprint_parallel::par_try_map_threads(
                workers,
                &indices,
                |&i| -> Result<_, SprintError> {
                    match task_of[i] {
                        Some(t) => Ok(Some(tasks[t].evaluate(&head_responses[i].output)?)),
                        None => Ok(None),
                    }
                },
            )?
        } else {
            vec![None; plans.len()]
        };
        let score_ns = score_started.elapsed().as_nanos();

        // 5. Fold head rollups into per-layer and per-model reports.
        let fold_started = Instant::now();
        let mut out: Vec<ModelResponse> = requests
            .iter()
            .map(|request| ModelResponse {
                model: request.profile().name().to_string(),
                mode: request.mode_override().unwrap_or(self.engine.mode()),
                layers: request
                    .profile()
                    .layer_seq_lens()
                    .iter()
                    .enumerate()
                    .map(|(layer, &seq_len)| LayerReport {
                        layer,
                        seq_len,
                        perf: PerfRollup::default(),
                    })
                    .collect(),
                total: PerfRollup::default(),
            })
            .collect();
        for (((r, plan), &t), (response, score)) in plans
            .iter()
            .zip(&trace_of)
            .zip(head_responses.iter().zip(&scores))
        {
            let request = &requests[*r];
            let mut rollup = PerfRollup::from_response(
                request.mode_override().unwrap_or(self.engine.mode()),
                self.engine.config(),
                request.profile().head_dim(),
                plan.spec.seq_len,
                traces[t].live_tokens(),
                response,
            );
            if let Some(score) = score {
                rollup.record_score(*score);
            }
            out[*r].layers[plan.layer].perf.merge(&rollup);
        }
        // The model total is *defined* as the merge of the layer
        // reports (not a second per-head fold), so `Σ layers == total`
        // holds exactly — f64 addition groups the same way on both
        // sides.
        for response in &mut out {
            for layer in 0..response.layers.len() {
                let perf = response.layers[layer].perf;
                response.total.merge(&perf);
            }
        }
        let stats = ServeStats {
            plan_ns,
            synth,
            batch,
            score_ns,
            fold_ns: fold_started.elapsed().as_nanos(),
        };
        Ok((out, stats))
    }
}

/// The nearest-rank percentile of an ascending-sorted slice: the
/// sample at rank `⌈pct/100 · n⌉`, no interpolation; `T::default()`
/// (zero) for an empty slice. The one estimator behind the server's
/// `/metrics` reservoir and the stress harness. Any percentile above
/// `100 · (1 − 1/n)` returns the sample **maximum**: over fewer than
/// 100 samples "p99" is simply the slowest one.
pub fn nearest_rank<T: Copy + Default>(sorted: &[T], pct: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecutionMode, ModelProfile, SprintConfig};
    use sprint_reram::NoiseModel;
    use sprint_workloads::ModelConfig;

    fn server(slots: usize) -> ModelServer {
        ModelServer::new(
            Engine::builder(SprintConfig::small())
                .noise(NoiseModel::ideal())
                .seed(3)
                .worker_slots(slots)
                .build()
                .unwrap(),
        )
    }

    fn tiny_request() -> ModelRequest {
        ModelRequest::new(
            ModelProfile::from_model(&ModelConfig::bert_base())
                .with_layers(2)
                .with_heads(2)
                .with_layer_seq_lens(vec![40, 24]),
        )
        .with_seed(11)
    }

    #[test]
    fn serve_rolls_layers_into_totals() {
        let response = server(2).serve(&tiny_request()).unwrap();
        assert_eq!(response.model, "BERT-B");
        assert_eq!(response.mode, ExecutionMode::Sprint);
        assert_eq!(response.layers.len(), 2);
        assert_eq!(response.layers[0].seq_len, 40);
        assert_eq!(response.layers[1].seq_len, 24);
        let mut merged = PerfRollup::default();
        for layer in &response.layers {
            assert_eq!(layer.perf.heads, 2);
            assert!(layer.perf.cycles > 0);
            assert!(layer.perf.energy.total().as_pj() > 0.0);
            merged.merge(&layer.perf);
        }
        assert_eq!(merged, response.total);
        assert_eq!(response.total.heads, 4);
        // Sprint prunes: kept fraction strictly inside (0, 1).
        let kept = response.total.kept_fraction();
        assert!(kept > 0.0 && kept < 1.0, "kept fraction {kept}");
        assert!(response.total.queries_pruned > 0);
        assert_eq!(response.total.accuracy(), None, "accuracy off by default");
    }

    #[test]
    fn mode_override_moves_the_energy_ordering() {
        let s = server(2);
        let dense = s
            .serve(&tiny_request().with_mode(ExecutionMode::Dense))
            .unwrap();
        let sprint = s
            .serve(&tiny_request().with_mode(ExecutionMode::Sprint))
            .unwrap();
        assert!(dense.total.energy.total() > sprint.total.energy.total());
        assert!(dense.total.cycles > sprint.total.cycles);
        assert!(dense.total.bytes_fetched > sprint.total.bytes_fetched);
        assert_eq!(dense.total.queries_pruned, 0);
        assert!((dense.total.kept_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_requires_a_source_model() {
        let profile = ModelProfile::custom("free", 32, 1, vec![32], 0.7, 0.2, 0.8).unwrap();
        let err = server(1).serve(&ModelRequest::new(profile).with_accuracy(true));
        assert!(matches!(err, Err(SprintError::Request(_))));
    }

    #[test]
    fn accuracy_rollup_scores_every_head() {
        let response = server(2)
            .serve(
                &tiny_request()
                    .with_mode(ExecutionMode::Dense)
                    .with_accuracy(true),
            )
            .unwrap();
        let score = response.total.accuracy().expect("accuracy requested");
        // Dense output scores near the pinned BERT-B baseline and
        // agrees with itself.
        assert!(score.accuracy > 0.6, "accuracy {}", score.accuracy);
        assert_eq!(score.agreement, 1.0);
        for layer in &response.layers {
            assert!(layer.perf.accuracy().is_some());
        }
    }

    #[test]
    fn zero_head_requests_are_rejected() {
        let profile = ModelProfile::from_model(&ModelConfig::vit_base()).with_layers(0);
        let err = server(1).serve(&ModelRequest::new(profile));
        assert!(matches!(err, Err(SprintError::Request(_))));
    }

    #[test]
    fn serve_many_equals_independent_serves() {
        let s = server(4);
        let a = tiny_request();
        let b = tiny_request()
            .with_seed(29)
            .with_mode(ExecutionMode::Oracle);
        let together = s.serve_many(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(together[0], s.serve(&a).unwrap());
        assert_eq!(together[1], s.serve(&b).unwrap());
    }

    #[test]
    fn percentiles_saturate_to_max_at_small_sample_counts() {
        let six: [u128; 6] = [10, 20, 30, 40, 50, 60];
        // Nearest-rank: p50 of 6 samples is rank ceil(3) = sample 30.
        assert_eq!(nearest_rank(&six, 50.0), 30);
        // Anything above 100·(1 − 1/6) ≈ 83.3% collapses to the max.
        assert_eq!(nearest_rank(&six, 90.0), 60);
        assert_eq!(nearest_rank(&six, 99.0), 60);
        assert_eq!(nearest_rank(&six, 100.0), 60);
        assert_eq!(nearest_rank(&six, 0.0), 10);
        // 100+ samples resolve p99.
        let big: Vec<u128> = (1..=200).collect();
        assert_eq!(nearest_rank(&big, 99.0), 198);
        assert_eq!(nearest_rank::<u128>(&[], 50.0), 0);
    }
}
