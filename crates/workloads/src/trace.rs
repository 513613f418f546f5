//! Synthetic attention-head traces with calibrated pruning statistics.
//!
//! Stands in for the fine-tuned checkpoints and datasets of §VII (see
//! DESIGN.md "Substitutions"). The generator synthesizes Q/K/V whose
//! score structure reproduces the three statistics every architectural
//! result depends on:
//!
//! 1. the learned **pruning rate** (74.6 % for BERT-B, ...),
//! 2. the **zero-padding** fraction (the gray region of Fig. 2), and
//! 3. the **adjacent-query spatial locality** of kept keys (Fig. 3's
//!    2–3×-above-random overlap).
//!
//! The mechanism mirrors why real attention shows locality: a few keys
//! are *globally salient* (every query attends to them — articles,
//! separators, CLS), and the rest of a query's attention follows a
//! *topic* that drifts slowly across adjacent tokens. Keys are built
//! with a per-key salience weight toward a shared direction `u`;
//! queries blend `u` with a slowly drifting unit vector, so adjacent
//! queries rank keys similarly.
//!
//! The server synthesizes a trace per `/v1/serve` call and per
//! `/v1/decode` open, so generation computes only what a request reads.
//! One lane-blocked score kernel serves the λ bisection, the real build
//! and decision derivation, each score bit-identical to the scalar
//! [`HeadTrace::score_row`]; the learned threshold is a selected
//! quantile, not a sorted one. The λ bisection draws its calibration
//! stream once — the salience direction, K and the topic walk, none of
//! which depends on λ — and each of its nine steps only re-blends Q and
//! re-scores; it draws no V and builds no trace. The digital-reference
//! decisions are derived once, on the first
//! [`HeadTrace::reference_decisions`] call, so `generate` — and the
//! benchmark's `workloads.generate_ms` — no longer includes that work.
//! ARCHITECTURE.md "Trace synthesis" states the draw order and the
//! oracle test that pins every bit.

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sprint_attention::{
    calibrate_threshold, AttentionConfig, AttentionError, Matrix, PaddingMask, PruneDecision,
    PruningStats,
};

#[cfg(test)]
use crate::stats::unit_vec;
use crate::stats::{normal, normalize, unit_vec_into};

/// Specification of one synthetic head trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSpec {
    /// Total sequence length including padding.
    pub seq_len: usize,
    /// Per-head embedding size.
    pub head_dim: usize,
    /// Target fraction of live keys pruned per live query.
    pub prune_rate: f64,
    /// Fraction of the sequence that is zero padding.
    pub padding_fraction: f64,
    /// Target mean adjacent-query kept-set overlap (Fig. 3).
    pub target_overlap: f64,
}

impl TraceSpec {
    /// Returns the spec with a different sequence length (used to scale
    /// experiments down while keeping the model's statistics).
    #[must_use]
    pub fn with_seq_len(mut self, seq_len: usize) -> Self {
        self.seq_len = seq_len;
        self
    }

    /// Returns the spec with a different target pruning rate.
    #[must_use]
    pub fn with_prune_rate(mut self, rate: f64) -> Self {
        self.prune_rate = rate;
        self
    }

    /// Returns the spec with a different target adjacent overlap.
    #[must_use]
    pub fn with_overlap(mut self, overlap: f64) -> Self {
        self.target_overlap = overlap;
        self
    }

    /// Returns the spec with a different padding fraction.
    #[must_use]
    pub fn with_padding(mut self, fraction: f64) -> Self {
        self.padding_fraction = fraction;
        self
    }

    /// Number of live (non-padded) tokens.
    pub fn live_tokens(&self) -> usize {
        let live = (self.seq_len as f64 * (1.0 - self.padding_fraction)).round() as usize;
        live.clamp(1, self.seq_len)
    }

    fn validate(&self) -> Result<(), AttentionError> {
        if self.seq_len == 0 {
            return Err(AttentionError::InvalidDimension {
                name: "seq_len",
                value: 0,
            });
        }
        if self.head_dim == 0 {
            return Err(AttentionError::InvalidDimension {
                name: "head_dim",
                value: 0,
            });
        }
        if !(0.0..1.0).contains(&self.prune_rate) {
            return Err(AttentionError::InvalidQuantization(format!(
                "prune rate {} outside [0, 1)",
                self.prune_rate
            )));
        }
        if !(0.0..1.0).contains(&self.padding_fraction) {
            return Err(AttentionError::InvalidQuantization(format!(
                "padding fraction {} outside [0, 1)",
                self.padding_fraction
            )));
        }
        if !(0.0..=1.0).contains(&self.target_overlap) {
            return Err(AttentionError::InvalidQuantization(format!(
                "target overlap {} outside [0, 1]",
                self.target_overlap
            )));
        }
        Ok(())
    }
}

impl Default for TraceSpec {
    /// A BERT-Base-like head: s = 384, d = 64, 74.6 % pruning,
    /// 46 % padding, 85 % adjacent overlap.
    fn default() -> Self {
        TraceSpec {
            seq_len: 384,
            head_dim: 64,
            prune_rate: 0.746,
            padding_fraction: 0.46,
            target_overlap: 0.85,
        }
    }
}

/// One synthetic attention head: Q/K/V matrices, padding mask, the
/// calibrated learned threshold, and the statistics of the
/// digital-reference pruning decisions (the decisions themselves are
/// derived on demand, see [`HeadTrace::reference_decisions`]).
#[derive(Debug, Clone)]
pub struct HeadTrace {
    q: Matrix,
    k: Matrix,
    v: Matrix,
    padding: PaddingMask,
    threshold: f32,
    config: AttentionConfig,
    stats: PruningStats,
    /// A function of the fields above, filled on the first
    /// [`HeadTrace::reference_decisions`] call.
    decisions: OnceLock<Vec<PruneDecision>>,
}

impl PartialEq for HeadTrace {
    /// Compares everything the trace is made of; the decisions follow
    /// from it, so whether they have been derived yet does not count.
    fn eq(&self, other: &Self) -> bool {
        self.q == other.q
            && self.k == other.k
            && self.v == other.v
            && self.padding == other.padding
            && self.threshold == other.threshold
            && self.config == other.config
            && self.stats == other.stats
    }
}

impl HeadTrace {
    /// Query matrix, `s × d` (padded rows are zero).
    pub fn q(&self) -> &Matrix {
        &self.q
    }

    /// Key matrix, `s × d` (padded rows are zero).
    pub fn k(&self) -> &Matrix {
        &self.k
    }

    /// Value matrix, `s × d` (padded rows are zero).
    pub fn v(&self) -> &Matrix {
        &self.v
    }

    /// The padding mask.
    pub fn padding(&self) -> PaddingMask {
        self.padding
    }

    /// The calibrated learned pruning threshold (Eq. 3's `Th`).
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// The head configuration (embedding size and score scale).
    pub fn config(&self) -> AttentionConfig {
        self.config
    }

    /// Total sequence length including padding.
    pub fn seq_len(&self) -> usize {
        self.k.rows()
    }

    /// Number of live queries/keys.
    pub fn live_tokens(&self) -> usize {
        self.padding.live()
    }

    /// The digital-reference pruning decisions, one per query (padded
    /// queries are fully pruned; padded keys are pruned everywhere).
    ///
    /// Derived once, on the first call, from Q, K and the threshold
    /// with the same score kernel the generator calibrated with; later
    /// calls (and clones made after it) return the stored set. No
    /// serving path reads them, so [`TraceGenerator::generate`] (and
    /// the benchmark's `workloads.generate_ms`) does not include that
    /// work; the first caller pays it.
    pub fn reference_decisions(&self) -> &[PruneDecision] {
        self.decisions.get_or_init(|| {
            let (s, live) = (self.seq_len(), self.live_tokens());
            let lanes = KeyLanes::new(&self.k, live);
            let mut scores = vec![0.0; live];
            let mut decisions = Vec::with_capacity(s);
            for i in 0..live {
                lanes.scores_into(self.q.row(i), self.config.scale(), &mut scores);
                let mut pruned = vec![true; s];
                decide_row(&scores, self.threshold, &mut pruned[..live]);
                decisions.push(PruneDecision::new(pruned));
            }
            decisions.resize(s, PruneDecision::new(vec![true; s]));
            decisions
        })
    }

    /// Pruning statistics measured over the live queries.
    pub fn stats(&self) -> PruningStats {
        self.stats
    }

    /// Raw (unpruned, unpadded-masked) score row for query `i` against
    /// every key, in full precision.
    ///
    /// A plain scalar dot per key: the oracle the generator's
    /// lane-blocked score kernel is checked against bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn score_row(&self, i: usize) -> Vec<f32> {
        let scale = self.config.scale();
        (0..self.k.rows())
            .map(|j| {
                scale
                    * self
                        .q
                        .row(i)
                        .iter()
                        .zip(self.k.row(j))
                        .map(|(a, b)| a * b)
                        .sum::<f32>()
            })
            .collect()
    }
}

/// Deterministic generator of [`HeadTrace`]s.
///
/// Each call to [`TraceGenerator::generate`] consumes fresh randomness
/// from the generator's stream, so consecutive calls give independent
/// heads while the whole sequence stays reproducible from the seed.
///
/// # Example
///
/// ```
/// use sprint_workloads::{TraceGenerator, TraceSpec};
///
/// let spec = TraceSpec::default().with_seq_len(96);
/// let a = TraceGenerator::new(1).generate(&spec).unwrap();
/// let b = TraceGenerator::new(1).generate(&spec).unwrap();
/// assert_eq!(a.threshold(), b.threshold(), "same seed, same trace");
/// ```
#[derive(Debug)]
pub struct TraceGenerator {
    rng: StdRng,
}

/// Adjacent-query drift correlation of the topic random walk. Fixed;
/// the salience blend λ is the calibrated knob. 0.82 puts the
/// topic-only overlap floor near 0.63, below every studied model's
/// observed overlap, so the λ search can always reach its target.
const DRIFT_RHO: f64 = 0.82;
/// Score-structure coefficient: the salience term contributes up to
/// `9λ·γ` and the topic term is `N(0, (9(1−λ))²)`, so scores span
/// roughly ±15 — the peaky post-softmax distributions of trained
/// transformers, where the pruned tail carries a few percent of the
/// probability mass (which is what makes runtime pruning
/// accuracy-neutral, §II-A).
const SCORE_COEFF: f64 = 9.0;
/// Calibration sequence length for the λ search.
const CALIBRATION_LEN: usize = 192;

impl TraceGenerator {
    /// Creates a generator with the given seed.
    pub fn new(seed: u64) -> Self {
        TraceGenerator {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Generates one head trace matching `spec`.
    ///
    /// The salience blend is first calibrated on a reduced-size
    /// instance so the measured adjacent overlap lands near
    /// `spec.target_overlap`, then the full-size trace is synthesized
    /// and its threshold calibrated to `spec.prune_rate`.
    ///
    /// # Errors
    ///
    /// Returns an error when the spec fails validation.
    pub fn generate(&mut self, spec: &TraceSpec) -> Result<HeadTrace, AttentionError> {
        spec.validate()?;
        let cal_seed = self.rng.gen::<u64>();
        let lambda = calibrate_lambda(spec, cal_seed);
        let build_seed = self.rng.gen::<u64>();
        build_trace(spec, lambda, build_seed)
    }

    /// Generates `n` independent head traces for the same spec, fanned
    /// out across cores.
    ///
    /// Per-trace randomness (the calibration seed and the build seed)
    /// is drawn from the generator's stream *in sequential order* before
    /// the fan-out, so the result is element-for-element identical to
    /// `n` sequential [`TraceGenerator::generate`] calls — and the
    /// generator's stream position afterwards is the same too.
    ///
    /// # Errors
    ///
    /// Propagates the first (lowest-index) generation error.
    pub fn generate_many(
        &mut self,
        spec: &TraceSpec,
        n: usize,
    ) -> Result<Vec<HeadTrace>, AttentionError> {
        spec.validate()?;
        let seeds: Vec<(u64, u64)> = (0..n)
            .map(|_| (self.rng.gen::<u64>(), self.rng.gen::<u64>()))
            .collect();
        sprint_parallel::par_try_map(&seeds, |&(cal_seed, build_seed)| {
            let lambda = calibrate_lambda(spec, cal_seed);
            build_trace(spec, lambda, build_seed)
        })
    }
}

/// The temporal shape of a synthetic arrival stream — how requests
/// cluster in time at a fixed long-run mean rate.
///
/// Every shape preserves [`ArrivalSpec::mean_interarrival_ns`] as the
/// long-run mean gap; only the clustering changes. The serving stress
/// harness (`sprint-server`'s `stress_test`) replays all three to
/// exercise admission control under steady, bursty and ramping load.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ArrivalShape {
    /// Memoryless (Poisson) arrivals: exponential inter-arrival gaps,
    /// the standard model for independent user traffic.
    #[default]
    Poisson,
    /// On/off burst traffic: arrivals come in bursts of `size`
    /// requests scattered uniformly over a `spread_ns` window, with
    /// burst *starts* following a Poisson process whose mean gap is
    /// `size × mean_interarrival_ns` — so the long-run rate matches
    /// the Poisson shape while the instantaneous rate spikes.
    Burst {
        /// Arrivals per burst (≥ 1). The final burst truncates at the
        /// stream's total `count`.
        size: usize,
        /// Window (ns of virtual time) each burst's arrivals scatter
        /// over, uniformly. Zero means fully simultaneous arrivals.
        spread_ns: f64,
    },
    /// Linearly ramping load: arrival `i`'s expected gap is
    /// `mean_interarrival_ns` scaled by the interpolation of
    /// `start_factor → end_factor` across the stream (gaps stay
    /// exponential around that moving mean). `start_factor > 1.0 >
    /// end_factor` ramps the offered rate *up* — the warm-up-then-slam
    /// profile capacity tests use.
    Ramp {
        /// Gap multiplier at the first arrival (> 0, finite).
        start_factor: f64,
        /// Gap multiplier at the last arrival (> 0, finite).
        end_factor: f64,
    },
}

/// Specification of a synthetic request-arrival stream, replayed at
/// the HTTP server by `examples/serve_http.rs` and the stress
/// harness.
///
/// The [`ArrivalShape`] controls clustering (steady Poisson, bursts,
/// or a linear ramp) at the same long-run mean rate. Each arrival
/// picks one of `templates` request templates uniformly, so a
/// mixed-model stream needs no extra machinery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalSpec {
    /// Number of arrivals to draw.
    pub count: usize,
    /// Long-run mean inter-arrival gap in nanoseconds of virtual time.
    pub mean_interarrival_ns: f64,
    /// Number of request templates arrivals choose from (uniformly).
    pub templates: usize,
    /// How arrivals cluster in time (default: Poisson).
    pub shape: ArrivalShape,
}

impl ArrivalSpec {
    /// A memoryless (Poisson) stream — the default shape.
    pub fn poisson(count: usize, mean_interarrival_ns: f64, templates: usize) -> Self {
        ArrivalSpec {
            count,
            mean_interarrival_ns,
            templates,
            shape: ArrivalShape::Poisson,
        }
    }

    /// Returns the spec reshaped to bursts of `size` arrivals spread
    /// over `spread_ns` (see [`ArrivalShape::Burst`]).
    #[must_use]
    pub fn burst(mut self, size: usize, spread_ns: f64) -> Self {
        self.shape = ArrivalShape::Burst { size, spread_ns };
        self
    }

    /// Returns the spec reshaped to a linear gap ramp from
    /// `start_factor` to `end_factor` (see [`ArrivalShape::Ramp`]).
    #[must_use]
    pub fn ramp(mut self, start_factor: f64, end_factor: f64) -> Self {
        self.shape = ArrivalShape::Ramp {
            start_factor,
            end_factor,
        };
        self
    }

    fn validate(&self) -> Result<(), AttentionError> {
        if self.mean_interarrival_ns <= 0.0 || !self.mean_interarrival_ns.is_finite() {
            return Err(AttentionError::InvalidQuantization(format!(
                "mean inter-arrival {} must be positive and finite",
                self.mean_interarrival_ns
            )));
        }
        if self.templates == 0 {
            return Err(AttentionError::InvalidDimension {
                name: "templates",
                value: 0,
            });
        }
        match self.shape {
            ArrivalShape::Poisson => {}
            ArrivalShape::Burst { size, spread_ns } => {
                if size == 0 {
                    return Err(AttentionError::InvalidDimension {
                        name: "burst size",
                        value: 0,
                    });
                }
                if spread_ns < 0.0 || !spread_ns.is_finite() {
                    return Err(AttentionError::InvalidQuantization(format!(
                        "burst spread {spread_ns} must be non-negative and finite"
                    )));
                }
            }
            ArrivalShape::Ramp {
                start_factor,
                end_factor,
            } => {
                for (name, f) in [("start", start_factor), ("end", end_factor)] {
                    if f <= 0.0 || !f.is_finite() {
                        return Err(AttentionError::InvalidQuantization(format!(
                            "ramp {name} factor {f} must be positive and finite"
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

/// One request arrival of a synthetic traffic stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival time in nanoseconds of virtual time (non-decreasing
    /// within a generated stream).
    pub at_ns: u64,
    /// Which request template this arrival asks for
    /// (`0..spec.templates`).
    pub template: usize,
}

impl TraceGenerator {
    /// Draws one arrival stream from the generator's randomness.
    ///
    /// The stream is sorted by arrival time and fully determined by
    /// the generator seed, stream position, and spec — the same seed
    /// always replays the same traffic, for every [`ArrivalShape`].
    ///
    /// # Errors
    ///
    /// Returns an error when the spec fails validation.
    ///
    /// # Example
    ///
    /// ```
    /// use sprint_workloads::{ArrivalSpec, TraceGenerator};
    ///
    /// let spec = ArrivalSpec::poisson(16, 1_000_000.0, 2);
    /// let stream = TraceGenerator::new(3).arrivals(&spec).unwrap();
    /// assert_eq!(stream.len(), 16);
    /// assert!(stream.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    /// // The same spec reshaped into bursts of 8 over a 10 µs window:
    /// let bursty = TraceGenerator::new(3).arrivals(&spec.burst(8, 10_000.0)).unwrap();
    /// assert_eq!(bursty.len(), 16);
    /// ```
    pub fn arrivals(&mut self, spec: &ArrivalSpec) -> Result<Vec<Arrival>, AttentionError> {
        spec.validate()?;
        fn exp_gap(rng: &mut StdRng, mean: f64) -> f64 {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            -mean * u.ln()
        }
        let mut out = Vec::with_capacity(spec.count);
        match spec.shape {
            ArrivalShape::Poisson => {
                let mut t = 0.0f64;
                for _ in 0..spec.count {
                    t += exp_gap(&mut self.rng, spec.mean_interarrival_ns);
                    out.push(Arrival {
                        at_ns: t as u64,
                        template: self.rng.gen_range(0..spec.templates),
                    });
                }
            }
            ArrivalShape::Burst { size, spread_ns } => {
                // Burst starts are Poisson at 1/size the arrival rate,
                // so `size` arrivals per burst keep the long-run mean.
                let mut burst_start = 0.0f64;
                let mut emitted = 0usize;
                while emitted < spec.count {
                    burst_start += exp_gap(&mut self.rng, size as f64 * spec.mean_interarrival_ns);
                    for _ in 0..size.min(spec.count - emitted) {
                        let offset = if spread_ns > 0.0 {
                            self.rng.gen_range(0.0..spread_ns)
                        } else {
                            0.0
                        };
                        out.push(Arrival {
                            at_ns: (burst_start + offset) as u64,
                            template: self.rng.gen_range(0..spec.templates),
                        });
                        emitted += 1;
                    }
                }
                // Bursts may overlap when the spread exceeds the burst
                // gap; a stable sort restores the time order without
                // perturbing same-instant draws.
                out.sort_by_key(|a| a.at_ns);
            }
            ArrivalShape::Ramp {
                start_factor,
                end_factor,
            } => {
                let mut t = 0.0f64;
                let denom = spec.count.saturating_sub(1).max(1) as f64;
                for i in 0..spec.count {
                    let factor = start_factor + (end_factor - start_factor) * (i as f64 / denom);
                    t += exp_gap(&mut self.rng, spec.mean_interarrival_ns * factor);
                    out.push(Arrival {
                        at_ns: t as u64,
                        template: self.rng.gen_range(0..spec.templates),
                    });
                }
            }
        }
        Ok(out)
    }
}

/// One event of a session-churn schedule: the open/step/evict
/// interleaving the paged-KV serving layers are exercised under.
/// Sessions open implicitly at their first `Step` and close when their
/// last one is served; an evicted session rehydrates transparently at
/// its next `Step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// Decode one token on session `session`.
    Step {
        /// Session index in `0..spec.sessions`.
        session: usize,
    },
    /// Drop session `session`'s KV pages back to the pool (its token
    /// history survives outside the engine).
    Evict {
        /// Session index in `0..spec.sessions`.
        session: usize,
    },
}

impl ChurnEvent {
    /// The session the event addresses.
    pub fn session(&self) -> usize {
        match *self {
            ChurnEvent::Step { session } | ChurnEvent::Evict { session } => session,
        }
    }
}

/// Shape of a session-churn schedule
/// ([`TraceGenerator::churn_schedule`]): `sessions` concurrent decode
/// streams of `steps_per_session` tokens each, randomly interleaved,
/// with evictions injected at `evict_fraction` per served step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSpec {
    /// Concurrent decode sessions.
    pub sessions: usize,
    /// Tokens each session decodes.
    pub steps_per_session: usize,
    /// Probability that an eviction of a random still-live session is
    /// injected after each served step (`0.0..=1.0`).
    pub evict_fraction: f64,
}

impl ChurnSpec {
    /// Builds a churn shape.
    pub fn new(sessions: usize, steps_per_session: usize, evict_fraction: f64) -> Self {
        ChurnSpec {
            sessions,
            steps_per_session,
            evict_fraction,
        }
    }

    fn validate(&self) -> Result<(), AttentionError> {
        if self.sessions == 0 {
            return Err(AttentionError::InvalidDimension {
                name: "sessions",
                value: 0,
            });
        }
        if self.steps_per_session == 0 {
            return Err(AttentionError::InvalidDimension {
                name: "steps per session",
                value: 0,
            });
        }
        if !(0.0..=1.0).contains(&self.evict_fraction) || !self.evict_fraction.is_finite() {
            return Err(AttentionError::InvalidQuantization(format!(
                "evict fraction {} must lie in [0, 1]",
                self.evict_fraction
            )));
        }
        Ok(())
    }
}

impl TraceGenerator {
    /// Draws one random open/step/evict interleaving from the
    /// generator's randomness: every session serves exactly
    /// `steps_per_session` steps in order, the interleaving across
    /// sessions is uniform over the live set, and each served step
    /// injects — with probability `evict_fraction` — an eviction of a
    /// random session that still has steps left. Fully determined by
    /// the generator seed and spec; sweeping seeds sweeps
    /// interleavings.
    ///
    /// # Errors
    ///
    /// Returns an error when the spec fails validation.
    ///
    /// # Example
    ///
    /// ```
    /// use sprint_workloads::{ChurnEvent, ChurnSpec, TraceGenerator};
    ///
    /// let spec = ChurnSpec::new(4, 8, 0.25);
    /// let schedule = TraceGenerator::new(7).churn_schedule(&spec).unwrap();
    /// let steps = schedule
    ///     .iter()
    ///     .filter(|e| matches!(e, ChurnEvent::Step { .. }))
    ///     .count();
    /// assert_eq!(steps, 4 * 8);
    /// let same = TraceGenerator::new(7).churn_schedule(&spec).unwrap();
    /// assert_eq!(schedule, same, "same seed, same interleaving");
    /// ```
    pub fn churn_schedule(&mut self, spec: &ChurnSpec) -> Result<Vec<ChurnEvent>, AttentionError> {
        spec.validate()?;
        let mut remaining = vec![spec.steps_per_session; spec.sessions];
        let mut live: Vec<usize> = (0..spec.sessions).collect();
        let mut out = Vec::with_capacity(spec.sessions * spec.steps_per_session);
        while !live.is_empty() {
            let pick = self.rng.gen_range(0..live.len());
            let session = live[pick];
            out.push(ChurnEvent::Step { session });
            remaining[session] -= 1;
            if remaining[session] == 0 {
                live.swap_remove(pick);
            }
            if !live.is_empty() && spec.evict_fraction > 0.0 {
                let roll: f64 = self.rng.gen_range(0.0..1.0);
                if roll < spec.evict_fraction {
                    let victim = live[self.rng.gen_range(0..live.len())];
                    out.push(ChurnEvent::Evict { session: victim });
                }
            }
        }
        Ok(out)
    }
}

/// Binary-searches the salience blend λ so that the measured
/// adjacent overlap on a calibration-size instance matches the
/// target. Overlap is monotone in λ: more salience weight means
/// more of the kept set is the static popular-key set.
///
/// Each step reads what `build_trace(cal_spec, λ, seed)` would return —
/// its mean adjacent overlap — but λ only sets the Q blend, so the
/// stream is drawn once and each step re-blends Q and re-scores. V is
/// drawn last and nothing after it consumes the stream, so it is not
/// drawn. A failing step falls back to λ = 0.5.
fn calibrate_lambda(spec: &TraceSpec, seed: u64) -> f64 {
    let cal_live = spec.live_tokens().min(CALIBRATION_LEN);
    let cal_spec = TraceSpec {
        seq_len: cal_live,
        padding_fraction: 0.0,
        ..*spec
    };
    let bisect = || -> Result<f64, AttentionError> {
        let draws = Draws::new(&cal_spec, &mut StdRng::seed_from_u64(seed))?;
        let lanes = KeyLanes::new(&draws.k, cal_live);
        let scale = AttentionConfig::new(spec.head_dim).scale();
        let mut q = Matrix::zeros(cal_live, spec.head_dim)?;
        let mut scores = Matrix::zeros(cal_live, cal_live)?;
        let (mut lo, mut hi) = (0.02f64, 0.97f64);
        for _ in 0..9 {
            let mid = 0.5 * (lo + hi);
            draws.blend_q(mid, &mut q);
            lanes.score_rows(&q, scale, &mut scores);
            let (_, stats) = threshold_and_stats(&cal_spec, &scores)?;
            if stats.mean_adjacent_overlap < spec.target_overlap {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(0.5 * (lo + hi))
    };
    bisect().unwrap_or(0.5)
}

/// Synthesizes the actual matrices for a given salience blend.
fn build_trace(spec: &TraceSpec, lambda: f64, seed: u64) -> Result<HeadTrace, AttentionError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let padding = PaddingMask::new(spec.seq_len, spec.live_tokens())?;
    let draws = Draws::new(spec, &mut rng)?;
    let mut q = Matrix::zeros(spec.seq_len, spec.head_dim)?;
    draws.blend_q(lambda, &mut q);
    // The topic rows are gone before the score matrix is allocated, and
    // scoring draws nothing, so the threshold is calibrated before V is
    // drawn and the score matrix is gone before V is allocated.
    let k = draws.into_keys();
    let (threshold, stats) = {
        let live = padding.live();
        let mut scores = Matrix::zeros(live, live)?;
        KeyLanes::new(&k, live).score_rows(
            &q,
            AttentionConfig::new(spec.head_dim).scale(),
            &mut scores,
        );
        threshold_and_stats(spec, &scores)?
    };

    // Values: independent content per key.
    let mut v = Matrix::zeros(spec.seq_len, spec.head_dim)?;
    for j in 0..padding.live() {
        let row = v.row_mut(j);
        for slot in row.iter_mut() {
            *slot = (0.5 * normal(&mut rng)) as f32;
        }
    }

    Ok(HeadTrace {
        q,
        k,
        v,
        padding,
        threshold,
        config: AttentionConfig::new(spec.head_dim),
        stats,
        decisions: OnceLock::new(),
    })
}

/// What the head of a build's stream draws before V, none of which
/// depends on the salience blend λ: the salience direction `u`, the
/// keys, and the topic random walk Q follows.
struct Draws {
    u: Vec<f64>,
    k: Matrix,
    /// Query `i`'s unit topic vector `w_i`, `live × d` flat.
    topics: Vec<f64>,
}

impl Draws {
    /// Draws `u`, then per live key its salience γ, topic ξ and
    /// magnitude, then `w₀` and one drift vector per later live query;
    /// V's draws follow them.
    fn new(spec: &TraceSpec, rng: &mut StdRng) -> Result<Self, AttentionError> {
        let d = spec.head_dim;
        let live = spec.live_tokens();

        // Shared salience direction.
        let mut u = vec![0.0; d];
        unit_vec_into(rng, &mut u);

        // Keys: salient cluster + topical remainder.
        let mut k = Matrix::zeros(spec.seq_len, d)?;
        let mut xi = vec![0.0; d];
        for j in 0..live {
            let gamma: f64 = if rng.gen_bool(0.3) {
                rng.gen_range(0.55..0.9)
            } else {
                rng.gen_range(0.0..0.25)
            };
            unit_vec_into(rng, &mut xi);
            let mag = 1.0 + 0.05 * normal(rng);
            let ortho = (1.0 - gamma * gamma).sqrt();
            let row = k.row_mut(j);
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = ((gamma * u[c] + ortho * xi[c]) * mag) as f32;
            }
        }

        // Topics: a slow random walk of unit vectors, one step per query.
        let mut topics = vec![0.0; live * d];
        unit_vec_into(rng, &mut topics[..d]);
        let g = &mut xi;
        for i in 1..live {
            unit_vec_into(rng, g);
            let (walked, rest) = topics.split_at_mut(i * d);
            let next = &mut rest[..d];
            for ((n, w), gc) in next.iter_mut().zip(&walked[(i - 1) * d..]).zip(g.iter()) {
                *n = DRIFT_RHO * w + (1.0 - DRIFT_RHO * DRIFT_RHO).sqrt() * gc;
            }
            normalize(next);
        }

        Ok(Draws { u, k, topics })
    }

    /// Writes the queries for salience blend `lambda` into the first
    /// live rows of `q`, blending the salience direction with each
    /// query's topic.
    ///
    /// With score = (1/√d)·q·k and k ≈ γu + √(1−γ²)ξ, the coefficients
    /// below give score ≈ SCORE_COEFF·(λγ + (1−λ)·z) where z ~ N(0,1)
    /// is the topic affinity: salient keys score high for everyone,
    /// topical keys for the queries whose drift vector aligns.
    fn blend_q(&self, lambda: f64, q: &mut Matrix) {
        let d = self.u.len();
        let alpha = SCORE_COEFF * lambda * (d as f64).sqrt();
        let beta = SCORE_COEFF * (1.0 - lambda) * d as f64;
        for (i, w) in self.topics.chunks_exact(d).enumerate() {
            for ((slot, u), w) in q.row_mut(i).iter_mut().zip(&self.u).zip(w) {
                *slot = (alpha * u + beta * w) as f32;
            }
        }
    }

    /// The keys, dropping the rest of the draws.
    fn into_keys(self) -> Matrix {
        self.k
    }
}

/// The threshold calibrated over the live `scores` (one row per live
/// query) and the `pruning_stats` of the decisions it makes.
fn threshold_and_stats(
    spec: &TraceSpec,
    scores: &Matrix,
) -> Result<(f32, PruningStats), AttentionError> {
    let live = spec.live_tokens();
    let threshold = calibrate_threshold(scores, spec.prune_rate)?;

    // `pruning_stats` over the live rows' decisions, each covering all
    // `seq_len` keys (a padded key is pruned, so it adds to no count),
    // accumulated in its float order from two kept-row buffers.
    let s = spec.seq_len;
    let (mut prev, mut row) = (vec![true; live], vec![true; live]);
    let (mut rate_sum, mut overlap_sum) = (0.0, 0.0);
    for i in 0..live {
        decide_row(scores.row(i), threshold, &mut row);
        let (kept, overlap) = row
            .iter()
            .zip(&prev)
            .fold((0, 0), |(kept, both), (&p, &q)| {
                (kept + usize::from(!p), both + usize::from(!(p | q)))
            });
        rate_sum += (s - kept) as f64 / s as f64;
        if i > 0 && kept > 0 {
            overlap_sum += overlap as f64 / kept as f64;
        }
        std::mem::swap(&mut prev, &mut row);
    }
    let overlap_terms = live - 1;
    let stats = PruningStats {
        mean_prune_rate: rate_sum / live as f64,
        mean_adjacent_overlap: if overlap_terms == 0 {
            0.0
        } else {
            overlap_sum / overlap_terms as f64
        },
        live_queries: live,
    };
    Ok((threshold, stats))
}

/// Eq. 3 over one live query's scores: a key is pruned when its score
/// falls below the threshold. Threshold pruning is relative to the
/// row's own score scale: the argmax key always survives (softmax over
/// zero keys is undefined), so it is force-kept even when the globally
/// calibrated threshold would drop the whole row. Ties go to the last
/// maximal key under `total_cmp`, as `Iterator::max_by` picks it.
fn decide_row(scores: &[f32], threshold: f32, pruned: &mut [bool]) {
    let mut argmax = 0;
    for (j, (flag, &score)) in pruned.iter_mut().zip(scores).enumerate() {
        *flag = score < threshold;
        if score.total_cmp(&scores[argmax]).is_ge() {
            argmax = j;
        }
    }
    pruned[argmax] = false;
}

/// Keys per block of the score kernel: one step of it advances this
/// many independent dot products.
const LANES: usize = 16;

/// A head's first `keys` keys transposed once into blocks of [`LANES`]
/// keys, laid out `[block][c][lane]`, so a query's scores take one pass
/// over its row per block with every lane an independent sum. The last
/// block's unused lanes hold zeros and are never read back.
struct KeyLanes {
    data: Vec<f32>,
    keys: usize,
    d: usize,
}

impl KeyLanes {
    fn new(k: &Matrix, keys: usize) -> Self {
        let d = k.cols();
        let mut data = vec![0.0; keys.div_ceil(LANES) * d * LANES];
        for j in 0..keys {
            let base = j / LANES * d * LANES + j % LANES;
            for (c, &x) in k.row(j).iter().enumerate() {
                data[base + c * LANES] = x;
            }
        }
        KeyLanes { data, keys, d }
    }

    /// Writes `scale · (q · k_j)` for every key `j` into `out`. Each dot
    /// is summed the way `q.iter().zip(k_j).map(|(a, b)| a * b)
    /// .sum::<f32>()` sums it — from `-0.0`, in ascending `c`, multiply
    /// then add, never fused — so every score is bit-identical to
    /// [`HeadTrace::score_row`]'s.
    fn scores_into(&self, q: &[f32], scale: f32, out: &mut [f32]) {
        assert_eq!(out.len(), self.keys, "one score per key");
        for (block, out) in self
            .data
            .chunks_exact(self.d * LANES)
            .zip(out.chunks_mut(LANES))
        {
            let mut acc = [-0.0f32; LANES];
            for (keys, &x) in block.chunks_exact(LANES).zip(q) {
                for (a, &k) in acc.iter_mut().zip(keys) {
                    *a += x * k;
                }
            }
            for (o, a) in out.iter_mut().zip(acc) {
                *o = scale * a;
            }
        }
    }

    /// Writes row `i` of `scores` with query `q.row(i)`'s scores, for
    /// every row of `scores`.
    fn score_rows(&self, q: &Matrix, scale: f32, scores: &mut Matrix) {
        for i in 0..scores.rows() {
            self.scores_into(q.row(i), scale, scores.row_mut(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> TraceSpec {
        TraceSpec {
            seq_len: 128,
            head_dim: 32,
            prune_rate: 0.75,
            padding_fraction: 0.25,
            target_overlap: 0.85,
        }
    }

    #[test]
    fn spec_validation_rejects_bad_values() {
        let base = quick_spec();
        assert!(TraceSpec { seq_len: 0, ..base }.validate().is_err());
        assert!(TraceSpec {
            head_dim: 0,
            ..base
        }
        .validate()
        .is_err());
        assert!(TraceSpec {
            prune_rate: 1.0,
            ..base
        }
        .validate()
        .is_err());
        assert!(TraceSpec {
            padding_fraction: 1.0,
            ..base
        }
        .validate()
        .is_err());
        assert!(TraceSpec {
            target_overlap: 1.5,
            ..base
        }
        .validate()
        .is_err());
        assert!(base.validate().is_ok());
    }

    #[test]
    fn builder_methods_override_fields() {
        let s = TraceSpec::default()
            .with_seq_len(100)
            .with_prune_rate(0.5)
            .with_overlap(0.7)
            .with_padding(0.1);
        assert_eq!(s.seq_len, 100);
        assert_eq!(s.prune_rate, 0.5);
        assert_eq!(s.target_overlap, 0.7);
        assert_eq!(s.padding_fraction, 0.1);
        assert_eq!(s.live_tokens(), 90);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = quick_spec();
        let a = TraceGenerator::new(9).generate(&spec).unwrap();
        let b = TraceGenerator::new(9).generate(&spec).unwrap();
        assert_eq!(a.q(), b.q());
        assert_eq!(a.threshold(), b.threshold());
        let c = TraceGenerator::new(10).generate(&spec).unwrap();
        assert_ne!(a.q(), c.q(), "different seeds differ");
    }

    #[test]
    fn padded_rows_are_zero_and_fully_pruned() {
        let spec = quick_spec();
        let t = TraceGenerator::new(1).generate(&spec).unwrap();
        let live = t.live_tokens();
        assert_eq!(live, 96);
        for i in live..t.seq_len() {
            assert!(t.q().row(i).iter().all(|&x| x == 0.0));
            assert!(t.k().row(i).iter().all(|&x| x == 0.0));
            assert_eq!(t.reference_decisions()[i].kept_count(), 0);
        }
        // Live queries never keep a padded key.
        for i in 0..live {
            for j in live..t.seq_len() {
                assert!(t.reference_decisions()[i].is_pruned(j));
            }
        }
    }

    #[test]
    fn pruning_rate_matches_target() {
        let spec = quick_spec();
        let t = TraceGenerator::new(2).generate(&spec).unwrap();
        let live = t.live_tokens();
        // Among live queries, the fraction of *live* keys pruned should
        // be near the target.
        let mut pruned = 0usize;
        let mut total = 0usize;
        for i in 0..live {
            let d = &t.reference_decisions()[i];
            for j in 0..live {
                total += 1;
                if d.is_pruned(j) {
                    pruned += 1;
                }
            }
        }
        let rate = pruned as f64 / total as f64;
        assert!(
            (rate - spec.prune_rate).abs() < 0.02,
            "rate={rate} target={}",
            spec.prune_rate
        );
    }

    #[test]
    fn adjacent_overlap_approaches_target() {
        let spec = quick_spec();
        let t = TraceGenerator::new(3).generate(&spec).unwrap();
        let overlap = t.stats().mean_adjacent_overlap;
        assert!(
            (overlap - spec.target_overlap).abs() < 0.12,
            "overlap={overlap} target={}",
            spec.target_overlap
        );
    }

    #[test]
    fn overlap_tracks_different_targets() {
        // The calibration must separate a low-locality ViT-like trace
        // from a high-locality BERT-like trace.
        let lo_spec = quick_spec().with_overlap(0.68).with_padding(0.0);
        let hi_spec = quick_spec().with_overlap(0.9).with_padding(0.0);
        let lo = TraceGenerator::new(4).generate(&lo_spec).unwrap();
        let hi = TraceGenerator::new(4).generate(&hi_spec).unwrap();
        assert!(
            hi.stats().mean_adjacent_overlap > lo.stats().mean_adjacent_overlap + 0.08,
            "hi={} lo={}",
            hi.stats().mean_adjacent_overlap,
            lo.stats().mean_adjacent_overlap
        );
    }

    #[test]
    fn overlap_exceeds_random_expectation() {
        // The central claim of Fig. 3: observed locality is well above
        // the hypergeometric expectation (= keep rate).
        let spec = quick_spec();
        let t = TraceGenerator::new(5).generate(&spec).unwrap();
        let random = 1.0 - spec.prune_rate;
        assert!(
            t.stats().mean_adjacent_overlap > 2.0 * random,
            "observed={} random={random}",
            t.stats().mean_adjacent_overlap
        );
    }

    #[test]
    fn score_row_matches_reference_decisions() {
        let spec = quick_spec();
        let t = TraceGenerator::new(6).generate(&spec).unwrap();
        let live = t.live_tokens();
        for i in (0..live).step_by(17) {
            let row = t.score_row(i);
            let d = &t.reference_decisions()[i];
            // The row's argmax key is force-kept regardless of the
            // global threshold (softmax needs at least one key), so it
            // is exempt from the pure-threshold relation.
            let argmax = (0..live)
                .max_by(|&a, &b| row[a].total_cmp(&row[b]))
                .unwrap();
            assert!(d.is_kept(argmax), "argmax of query {i} must be kept");
            for (j, &rv) in row.iter().enumerate().take(live) {
                if j == argmax {
                    continue;
                }
                assert_eq!(d.is_pruned(j), rv < t.threshold(), "mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    fn arrival_streams_are_sorted_deterministic_and_calibrated() {
        let spec = ArrivalSpec::poisson(512, 50_000.0, 3);
        let a = TraceGenerator::new(11).arrivals(&spec).unwrap();
        let b = TraceGenerator::new(11).arrivals(&spec).unwrap();
        assert_eq!(a, b, "same seed, same stream");
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert!(a.iter().all(|x| x.template < 3));
        // Mean gap within 20% of the spec over 512 draws.
        let span = a.last().unwrap().at_ns as f64;
        let mean = span / spec.count as f64;
        assert!(
            (mean - spec.mean_interarrival_ns).abs() < 0.2 * spec.mean_interarrival_ns,
            "measured mean gap {mean}"
        );
        let c = TraceGenerator::new(12).arrivals(&spec).unwrap();
        assert_ne!(a, c, "different seeds differ");
    }

    #[test]
    fn arrival_spec_validation_rejects_bad_values() {
        let base = ArrivalSpec::poisson(4, 1000.0, 1);
        assert!(TraceGenerator::new(0).arrivals(&base).is_ok());
        assert!(TraceGenerator::new(0)
            .arrivals(&ArrivalSpec {
                mean_interarrival_ns: 0.0,
                ..base
            })
            .is_err());
        assert!(TraceGenerator::new(0)
            .arrivals(&ArrivalSpec {
                templates: 0,
                ..base
            })
            .is_err());
        assert!(TraceGenerator::new(0)
            .arrivals(&base.burst(0, 100.0))
            .is_err());
        assert!(TraceGenerator::new(0)
            .arrivals(&base.burst(4, -1.0))
            .is_err());
        assert!(TraceGenerator::new(0)
            .arrivals(&base.ramp(0.0, 1.0))
            .is_err());
        assert!(TraceGenerator::new(0)
            .arrivals(&base.ramp(1.0, f64::INFINITY))
            .is_err());
    }

    #[test]
    fn burst_arrivals_cluster_but_keep_long_run_rate() {
        let spec = ArrivalSpec::poisson(512, 50_000.0, 2).burst(8, 5_000.0);
        let a = TraceGenerator::new(31).arrivals(&spec).unwrap();
        let b = TraceGenerator::new(31).arrivals(&spec).unwrap();
        assert_eq!(a, b, "same seed, same burst stream");
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert_eq!(a.len(), 512);
        // Long-run rate matches the Poisson spec within 25%.
        let span = a.last().unwrap().at_ns as f64;
        let mean = span / spec.count as f64;
        assert!(
            (mean - spec.mean_interarrival_ns).abs() < 0.25 * spec.mean_interarrival_ns,
            "measured mean gap {mean}"
        );
        // Clustering: the median gap is far below the mean gap, because
        // most consecutive pairs land inside a burst's narrow spread.
        let mut gaps: Vec<u64> = a.windows(2).map(|w| w[1].at_ns - w[0].at_ns).collect();
        gaps.sort_unstable();
        let median = gaps[gaps.len() / 2] as f64;
        assert!(
            median < 0.2 * spec.mean_interarrival_ns,
            "median gap {median} should sit inside a burst spread"
        );
    }

    #[test]
    fn burst_final_burst_truncates_at_count() {
        // 10 arrivals in bursts of 8: one full burst plus a 2-wide tail.
        let spec = ArrivalSpec::poisson(10, 1_000.0, 1).burst(8, 100.0);
        let a = TraceGenerator::new(5).arrivals(&spec).unwrap();
        assert_eq!(a.len(), 10);
    }

    #[test]
    fn ramp_arrivals_speed_up_when_end_factor_shrinks() {
        // Gap multiplier ramps 4.0 -> 0.25: the back half of the stream
        // must be denser (smaller gaps) than the front half.
        let spec = ArrivalSpec::poisson(400, 10_000.0, 1).ramp(4.0, 0.25);
        let a = TraceGenerator::new(17).arrivals(&spec).unwrap();
        let b = TraceGenerator::new(17).arrivals(&spec).unwrap();
        assert_eq!(a, b, "same seed, same ramp stream");
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        let gaps: Vec<u64> = a.windows(2).map(|w| w[1].at_ns - w[0].at_ns).collect();
        let half = gaps.len() / 2;
        let front: f64 = gaps[..half].iter().sum::<u64>() as f64 / half as f64;
        let back: f64 = gaps[half..].iter().sum::<u64>() as f64 / (gaps.len() - half) as f64;
        assert!(
            back < 0.5 * front,
            "ramp should compress gaps: front mean {front}, back mean {back}"
        );
    }

    #[test]
    fn churn_schedule_serves_every_session_exactly_and_deterministically() {
        let spec = ChurnSpec::new(6, 17, 0.3);
        let a = TraceGenerator::new(11).churn_schedule(&spec).unwrap();
        let b = TraceGenerator::new(11).churn_schedule(&spec).unwrap();
        assert_eq!(a, b, "same seed, same interleaving");
        let mut steps = vec![0usize; spec.sessions];
        let mut evictions = 0usize;
        for event in &a {
            match *event {
                ChurnEvent::Step { session } => {
                    assert!(session < spec.sessions);
                    steps[session] += 1;
                }
                ChurnEvent::Evict { session } => {
                    assert!(
                        steps[session] < spec.steps_per_session,
                        "evicted session {session} had already finished"
                    );
                    evictions += 1;
                }
            }
        }
        assert!(steps.iter().all(|&s| s == spec.steps_per_session));
        assert!(
            evictions > 0,
            "evict fraction 0.3 over 102 steps fired never"
        );
        // A different seed gives a different interleaving.
        let c = TraceGenerator::new(12).churn_schedule(&spec).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn churn_schedule_with_zero_evict_fraction_is_pure_steps() {
        let spec = ChurnSpec::new(3, 5, 0.0);
        let events = TraceGenerator::new(2).churn_schedule(&spec).unwrap();
        assert_eq!(events.len(), 15);
        assert!(events.iter().all(|e| matches!(e, ChurnEvent::Step { .. })));
    }

    #[test]
    fn churn_spec_validation_rejects_degenerate_shapes() {
        assert!(TraceGenerator::new(0)
            .churn_schedule(&ChurnSpec::new(0, 4, 0.1))
            .is_err());
        assert!(TraceGenerator::new(0)
            .churn_schedule(&ChurnSpec::new(4, 0, 0.1))
            .is_err());
        assert!(TraceGenerator::new(0)
            .churn_schedule(&ChurnSpec::new(4, 4, -0.1))
            .is_err());
        assert!(TraceGenerator::new(0)
            .churn_schedule(&ChurnSpec::new(4, 4, 1.5))
            .is_err());
        assert!(TraceGenerator::new(0)
            .churn_schedule(&ChurnSpec::new(4, 4, f64::NAN))
            .is_err());
    }

    #[test]
    fn generate_many_yields_independent_heads() {
        let spec = quick_spec();
        let traces = TraceGenerator::new(7).generate_many(&spec, 3).unwrap();
        assert_eq!(traces.len(), 3);
        assert_ne!(traces[0].q(), traces[1].q());
        assert_ne!(traces[1].q(), traces[2].q());
    }

    #[test]
    fn generate_many_matches_sequential_generation() {
        let spec = quick_spec();
        let batched = TraceGenerator::new(21).generate_many(&spec, 3).unwrap();
        let mut gen = TraceGenerator::new(21);
        for (i, expected) in batched.iter().enumerate() {
            let sequential = gen.generate(&spec).unwrap();
            assert_eq!(expected, &sequential, "trace {i} diverges");
        }
        // The generator's stream position advances identically, too.
        let mut after_batch = TraceGenerator::new(21);
        let _ = after_batch.generate_many(&spec, 3).unwrap();
        assert_eq!(
            after_batch.generate(&spec).unwrap(),
            gen.generate(&spec).unwrap(),
            "stream position after batch matches sequential"
        );
    }

    #[test]
    fn equality_and_clones_ignore_whether_decisions_were_derived() {
        let spec = quick_spec();
        let a = TraceGenerator::new(8).generate(&spec).unwrap();
        let b = TraceGenerator::new(8).generate(&spec).unwrap();
        let underived = a.clone();
        assert_eq!(a, b);
        let decisions = a.reference_decisions().to_vec();
        assert_eq!(a, b, "derived on one side only");
        assert_eq!(a, underived);
        let derived = a.clone();
        assert_eq!(derived, a);
        // A clone made after the derivation carries the decisions; one
        // made before derives its own, equal ones.
        assert!(PruneDecision::shares_storage(
            &derived.reference_decisions()[0],
            &a.reference_decisions()[0]
        ));
        assert!(!PruneDecision::shares_storage(
            &underived.reference_decisions()[0],
            &a.reference_decisions()[0]
        ));
        assert_eq!(underived.reference_decisions(), &decisions[..]);
        assert_eq!(b.reference_decisions(), &decisions[..]);
        assert_ne!(a, TraceGenerator::new(9).generate(&spec).unwrap());
    }

    #[test]
    fn decide_row_force_keeps_the_key_max_by_picks() {
        for (scores, threshold) in [
            (vec![1.0, 3.0, 3.0, 2.0], 5.0),
            (vec![2.0, 1.0, 2.0], 1.5),
            (vec![0.0, -0.0], 1.0),
            (vec![-0.0, 0.0, -0.0], 1.0),
            (vec![-4.0], 0.0),
        ] {
            let mut pruned = vec![false; scores.len()];
            decide_row(&scores, threshold, &mut pruned);
            let argmax = (0..scores.len())
                .max_by(|&a, &b| scores[a].total_cmp(&scores[b]))
                .unwrap();
            let expected: Vec<bool> = scores
                .iter()
                .enumerate()
                .map(|(j, &s)| j != argmax && s < threshold)
                .collect();
            assert_eq!(pruned, expected, "{scores:?} at {threshold}");
        }
    }

    /// Keys (rows of `k`) of every kind the kernel must sum like the
    /// scalar dot: all `+0.0`, all `-0.0`, subnormal, and mixed normal
    /// values of both signs.
    fn kernel_keys(keys: usize, d: usize) -> Matrix {
        let mut k = Matrix::zeros(keys.max(1), d).unwrap();
        for j in 0..keys {
            for (c, slot) in k.row_mut(j).iter_mut().enumerate() {
                let wave = ((j * 31 + c * 17) % 23) as f32 - 11.0;
                *slot = match j % 4 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => wave * f32::MIN_POSITIVE / 64.0,
                    _ => wave / 7.0,
                };
            }
        }
        k
    }

    #[test]
    fn lane_kernel_matches_the_scalar_dot() {
        for keys in [0, 1, LANES - 1, LANES, LANES + 1, 2 * LANES + 3] {
            for d in [1, LANES - 1, LANES, LANES + 1, 64] {
                let k = kernel_keys(keys, d);
                let lanes = KeyLanes::new(&k, keys);
                let queries: [Vec<f32>; 4] = [
                    vec![0.0; d],
                    (0..d).map(|c| 1.5 + c as f32).collect(),
                    (0..d).map(|c| -0.25 * (c % 5) as f32).collect(),
                    (0..d).map(|c| (c as f32 - 3.0) * 1e-3).collect(),
                ];
                for (qi, q) in queries.iter().enumerate() {
                    for scale in [1.0, 0.125] {
                        let mut out = vec![f32::NAN; keys];
                        lanes.scores_into(q, scale, &mut out);
                        for (j, score) in out.iter().enumerate() {
                            let scalar =
                                scale * q.iter().zip(k.row(j)).map(|(a, b)| a * b).sum::<f32>();
                            assert_eq!(
                                score.to_bits(),
                                scalar.to_bits(),
                                "{keys} keys, d = {d}, query {qi}, key {j}, scale {scale}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// `build_trace` and `calibrate_lambda` as they were before scoring
    /// moved to lanes: a scalar all-pairs score matrix, a threshold read
    /// off a full stable sort, an s × s decision set, and
    /// `pruning_stats` over it for every bisection step. The oracle of
    /// the synthesis differential tests.
    mod scalar_oracle {
        use super::super::{normal, unit_vec, DRIFT_RHO, SCORE_COEFF};
        use super::*;
        use sprint_attention::pruning_stats;

        pub(super) struct OracleTrace {
            pub(super) q: Matrix,
            pub(super) k: Matrix,
            pub(super) v: Matrix,
            pub(super) threshold: f32,
            pub(super) decisions: Vec<PruneDecision>,
            pub(super) stats: PruningStats,
        }

        /// What `TraceGenerator::new(seed).generate(spec)` returned.
        pub(super) fn generate(spec: &TraceSpec, seed: u64) -> OracleTrace {
            let mut rng = StdRng::seed_from_u64(seed);
            let cal_seed = rng.gen::<u64>();
            let lambda = calibrate_lambda(spec, cal_seed);
            let build_seed = rng.gen::<u64>();
            build_trace(spec, lambda, build_seed).unwrap()
        }

        fn calibrate_lambda(spec: &TraceSpec, seed: u64) -> f64 {
            let cal_live = spec.live_tokens().min(CALIBRATION_LEN);
            let cal_spec = TraceSpec {
                seq_len: cal_live,
                padding_fraction: 0.0,
                ..*spec
            };
            let (mut lo, mut hi) = (0.02f64, 0.97f64);
            for _ in 0..9 {
                let mid = 0.5 * (lo + hi);
                let trace = match build_trace(&cal_spec, mid, seed) {
                    Some(t) => t,
                    None => return 0.5,
                };
                if trace.stats.mean_adjacent_overlap < spec.target_overlap {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi)
        }

        fn sorted_threshold(scores: &Matrix, rate: f64) -> Option<f32> {
            let mut finite: Vec<f32> = scores
                .as_slice()
                .iter()
                .copied()
                .filter(|s| s.is_finite())
                .collect();
            if finite.is_empty() {
                return None;
            }
            finite.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let idx = ((finite.len() as f64) * rate).floor() as usize;
            if idx == 0 {
                return Some(finite[0]);
            }
            let idx = idx.min(finite.len() - 1);
            let (below, at) = (finite[idx - 1], finite[idx]);
            Some(if below < at { (below + at) / 2.0 } else { at })
        }

        fn build_trace(spec: &TraceSpec, lambda: f64, seed: u64) -> Option<OracleTrace> {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = spec.seq_len;
            let d = spec.head_dim;
            let live = spec.live_tokens();
            let config = AttentionConfig::new(d);

            let u = unit_vec(&mut rng, d);
            let mut k = Matrix::zeros(s, d).ok()?;
            for j in 0..live {
                let gamma: f64 = if rng.gen_bool(0.3) {
                    rng.gen_range(0.55..0.9)
                } else {
                    rng.gen_range(0.0..0.25)
                };
                let xi = unit_vec(&mut rng, d);
                let mag = 1.0 + 0.05 * normal(&mut rng);
                let ortho = (1.0 - gamma * gamma).sqrt();
                let row = k.row_mut(j);
                for (c, slot) in row.iter_mut().enumerate() {
                    *slot = ((gamma * u[c] + ortho * xi[c]) * mag) as f32;
                }
            }
            let mut q = Matrix::zeros(s, d).ok()?;
            let mut w = unit_vec(&mut rng, d);
            let alpha = SCORE_COEFF * lambda * (d as f64).sqrt();
            let beta = SCORE_COEFF * (1.0 - lambda) * d as f64;
            for i in 0..live {
                if i > 0 {
                    let g = unit_vec(&mut rng, d);
                    let mut next: Vec<f64> = w
                        .iter()
                        .zip(&g)
                        .map(|(wi, gi)| DRIFT_RHO * wi + (1.0 - DRIFT_RHO * DRIFT_RHO).sqrt() * gi)
                        .collect();
                    crate::stats::normalize(&mut next);
                    w = next;
                }
                let row = q.row_mut(i);
                for (c, slot) in row.iter_mut().enumerate() {
                    *slot = (alpha * u[c] + beta * w[c]) as f32;
                }
            }
            let mut v = Matrix::zeros(s, d).ok()?;
            for j in 0..live {
                for slot in v.row_mut(j).iter_mut() {
                    *slot = (0.5 * normal(&mut rng)) as f32;
                }
            }

            let mut live_scores = Matrix::zeros(live, live).ok()?;
            for i in 0..live {
                for j in 0..live {
                    let score = config.scale()
                        * q.row(i)
                            .iter()
                            .zip(k.row(j))
                            .map(|(a, b)| a * b)
                            .sum::<f32>();
                    live_scores.set(i, j, score);
                }
            }
            let threshold = sorted_threshold(&live_scores, spec.prune_rate)?;

            let mut decisions = Vec::with_capacity(s);
            for i in 0..s {
                if i >= live {
                    decisions.push(PruneDecision::new(vec![true; s]));
                    continue;
                }
                let mut pruned = vec![true; s];
                for (j, flag) in pruned.iter_mut().enumerate().take(live) {
                    *flag = live_scores.get(i, j) < threshold;
                }
                let argmax = (0..live)
                    .max_by(|&a, &b| live_scores.get(i, a).total_cmp(&live_scores.get(i, b)))
                    .unwrap();
                pruned[argmax] = false;
                decisions.push(PruneDecision::new(pruned));
            }
            let stats = pruning_stats(&decisions[..live]);
            Some(OracleTrace {
                q,
                k,
                v,
                threshold,
                decisions,
                stats,
            })
        }
    }

    /// The one-pass draw the draw step and [`Draws::blend_q`] replaced:
    /// `u`, K, then Q with its drift vectors drawn and blended as they
    /// come, from the head of a build's stream.
    fn one_pass_qk(spec: &TraceSpec, lambda: f64, rng: &mut StdRng) -> (Matrix, Matrix) {
        let (s, d, live) = (spec.seq_len, spec.head_dim, spec.live_tokens());
        let u = unit_vec(rng, d);
        let mut k = Matrix::zeros(s, d).unwrap();
        for j in 0..live {
            let gamma: f64 = if rng.gen_bool(0.3) {
                rng.gen_range(0.55..0.9)
            } else {
                rng.gen_range(0.0..0.25)
            };
            let xi = unit_vec(rng, d);
            let mag = 1.0 + 0.05 * normal(rng);
            let ortho = (1.0 - gamma * gamma).sqrt();
            for (c, slot) in k.row_mut(j).iter_mut().enumerate() {
                *slot = ((gamma * u[c] + ortho * xi[c]) * mag) as f32;
            }
        }
        let mut q = Matrix::zeros(s, d).unwrap();
        let mut w = unit_vec(rng, d);
        let alpha = SCORE_COEFF * lambda * (d as f64).sqrt();
        let beta = SCORE_COEFF * (1.0 - lambda) * d as f64;
        for i in 0..live {
            if i > 0 {
                let g = unit_vec(rng, d);
                let mut next: Vec<f64> = w
                    .iter()
                    .zip(&g)
                    .map(|(wi, gi)| DRIFT_RHO * wi + (1.0 - DRIFT_RHO * DRIFT_RHO).sqrt() * gi)
                    .collect();
                normalize(&mut next);
                w = next;
            }
            for (c, slot) in q.row_mut(i).iter_mut().enumerate() {
                *slot = (alpha * u[c] + beta * w[c]) as f32;
            }
        }
        (q, k)
    }

    #[test]
    fn blended_queries_match_the_one_pass_draw() {
        for model in crate::ModelConfig::all() {
            for s in [1, 2, 16, 192] {
                for padding in [model.padding_fraction, 0.0] {
                    let spec = model.trace_spec().with_seq_len(s).with_padding(padding);
                    for lambda in [0.02, 0.3, 0.495, 0.97] {
                        let label = format!("{spec:?} λ = {lambda}");
                        let (mut a, mut b) = (StdRng::seed_from_u64(7), StdRng::seed_from_u64(7));
                        let draws = Draws::new(&spec, &mut a).unwrap();
                        let mut q = Matrix::zeros(s, spec.head_dim).unwrap();
                        draws.blend_q(lambda, &mut q);
                        let (one_q, one_k) = one_pass_qk(&spec, lambda, &mut b);
                        assert_eq!(bits(&q), bits(&one_q), "{label}: Q");
                        assert_eq!(bits(&draws.into_keys()), bits(&one_k), "{label}: K");
                        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "{label}: V starts here");
                    }
                }
            }
        }
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Every bit a caller can read of a generated trace equals the
    /// scalar oracle's: Q, K, V, the threshold, the stats and every
    /// reference decision row.
    fn assert_matches_oracle(spec: &TraceSpec, seed: u64) {
        let label = format!("{spec:?} seed {seed}");
        let fast = TraceGenerator::new(seed).generate(spec).unwrap();
        let oracle = scalar_oracle::generate(spec, seed);
        assert_eq!(bits(fast.q()), bits(&oracle.q), "{label}: Q");
        assert_eq!(bits(fast.k()), bits(&oracle.k), "{label}: K");
        assert_eq!(bits(fast.v()), bits(&oracle.v), "{label}: V");
        assert_eq!(
            fast.threshold().to_bits(),
            oracle.threshold.to_bits(),
            "{label}: threshold"
        );
        let (a, b) = (fast.stats(), oracle.stats);
        assert_eq!(
            (
                a.mean_prune_rate.to_bits(),
                a.mean_adjacent_overlap.to_bits(),
                a.live_queries
            ),
            (
                b.mean_prune_rate.to_bits(),
                b.mean_adjacent_overlap.to_bits(),
                b.live_queries
            ),
            "{label}: stats"
        );
        let decisions = fast.reference_decisions();
        assert_eq!(decisions.len(), oracle.decisions.len(), "{label}");
        for (i, (d, o)) in decisions.iter().zip(&oracle.decisions).enumerate() {
            assert_eq!(d, o, "{label}: decision row {i}");
        }
    }

    /// Every studied model at its catalog padding and at none, three
    /// seeds each, over `lengths`.
    fn sweep_against_oracle(lengths: &[usize]) {
        for model in crate::ModelConfig::all() {
            for &s in lengths {
                for padding in [model.padding_fraction, 0.0] {
                    let spec = model.trace_spec().with_seq_len(s).with_padding(padding);
                    for seed in [1, 0x5eed, 20220930] {
                        assert_matches_oracle(&spec, seed);
                    }
                }
            }
        }
    }

    #[test]
    fn generate_matches_the_scalar_oracle() {
        sweep_against_oracle(&[1, 2, 3, 7, 16, 33, 96, 200, 256]);
    }

    #[test]
    #[ignore = "full-size sweep; run in release with --include-ignored"]
    fn generate_matches_the_scalar_oracle_at_full_size() {
        sweep_against_oracle(&[384, 512]);
    }
}
