//! The four accuracy scenarios of Fig. 9, plus the bit-sensitivity
//! sweep of Fig. 5.

use sprint_engine::{Engine, ExecutionMode, FaultPolicy, ModelProfile, ModelRequest, ModelServer};
use sprint_reram::{FaultModel, NoiseModel, ThresholdSpec};
use sprint_workloads::{ModelConfig, TaskScore};

use crate::{SprintConfig, SprintError};

/// The four bars of Fig. 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccuracyScenario {
    /// Software-only dense attention.
    Baseline,
    /// Learned runtime pruning in full precision (LeOPArd).
    RuntimePruning,
    /// SPRINT's in-memory thresholding, approximate scores used
    /// directly (no on-chip recompute).
    SprintNoRecompute,
    /// Full SPRINT: in-memory thresholding + on-chip recompute.
    Sprint,
}

impl AccuracyScenario {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            AccuracyScenario::Baseline => "Baseline",
            AccuracyScenario::RuntimePruning => "Runtime Pruning",
            AccuracyScenario::SprintNoRecompute => "SPRINT w/o Recompute",
            AccuracyScenario::Sprint => "SPRINT",
        }
    }
}

/// Task scores of the four scenarios on one model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioScores {
    /// Software-only baseline.
    pub baseline: TaskScore,
    /// Runtime pruning (full-precision thresholding).
    pub runtime_pruning: TaskScore,
    /// SPRINT without on-chip recompute.
    pub sprint_no_recompute: TaskScore,
    /// Full SPRINT.
    pub sprint: TaskScore,
}

/// Evaluates the four Fig. 9 scenarios for one model on its proxy task.
///
/// `seq_len` overrides the model's default sequence length (accuracy
/// studies run at reduced lengths for test speed; the report binary
/// uses larger ones). The analog noise model is the paper's 5-bit
/// equivalent.
///
/// # Errors
///
/// Propagates substrate errors.
pub fn evaluate_scenarios(
    model: &ModelConfig,
    seq_len: Option<usize>,
    seed: u64,
) -> Result<ScenarioScores, SprintError> {
    // One model server serves all four scenarios as one batch:
    // `Dense` is the software baseline, `Oracle` the full-precision
    // runtime pruning, and the two SPRINT variants run the analog
    // in-memory thresholding at the paper's 5-bit-equivalent noise.
    // The shared base seed pins one trace and one proxy task across
    // the four passes (the server deduplicates their synthesis), so
    // the scenario scores stay directly comparable.
    let server = ModelServer::new(accuracy_engine(NoiseModel::default(), seed ^ 0xacc)?);
    let profile = accuracy_profile(model, seq_len);
    let requests: Vec<ModelRequest> = ExecutionMode::ALL
        .iter()
        .map(|&mode| {
            ModelRequest::new(profile.clone())
                .with_seed(seed)
                .with_mode(mode)
                .with_accuracy(true)
        })
        .collect();
    let responses = server.serve_many(&requests)?;
    let score =
        |i: usize| -> TaskScore { responses[i].total.accuracy().expect("accuracy requested") };

    // ExecutionMode::ALL is Fig. 9 bar order: Dense, Oracle,
    // NoRecompute, Sprint.
    Ok(ScenarioScores {
        baseline: score(0),
        runtime_pruning: score(1),
        sprint_no_recompute: score(2),
        sprint: score(3),
    })
}

/// Evaluates the four Fig. 9 scenarios under an injected ReRAM cell
/// fault rate, returning the scores plus the number of faulty cells
/// the scrub detected on the Sprint pass.
///
/// The engine runs the [`FaultPolicy::Monitor`] policy — faults are
/// detected and counted but left in place — so the sweep isolates the
/// *accuracy* consequence of stuck analog scores: the digital modes
/// (`Dense`/`Oracle`) never touch the crossbars and stay flat, Sprint's
/// on-chip recompute bounds the loss to wrongly pruned keys, and the
/// no-recompute variant feeds the corrupted scores straight to the
/// softmax. A zero rate attaches no fault model at all, making row one
/// bit-identical to the fault-free pipeline.
///
/// # Errors
///
/// Propagates substrate errors.
pub fn fault_scenarios(
    model: &ModelConfig,
    seq_len: Option<usize>,
    seed: u64,
    fault_rate: f64,
) -> Result<(ScenarioScores, u64), SprintError> {
    let mut builder = Engine::builder(SprintConfig::medium())
        .noise(NoiseModel::default())
        .seed(seed ^ 0xacc)
        .worker_slots(1)
        .fault_policy(FaultPolicy::Monitor);
    if fault_rate > 0.0 {
        let fault_model = FaultModel::uniform(fault_rate, seed ^ 0xfa11)
            .map_err(sprint_engine::SprintError::from)?;
        builder = builder.fault_model(fault_model);
    }
    let server = ModelServer::new(builder.build()?);
    let profile = accuracy_profile(model, seq_len);
    let requests: Vec<ModelRequest> = ExecutionMode::ALL
        .iter()
        .map(|&mode| {
            ModelRequest::new(profile.clone())
                .with_seed(seed)
                .with_mode(mode)
                .with_accuracy(true)
        })
        .collect();
    let responses = server.serve_many(&requests)?;
    let score =
        |i: usize| -> TaskScore { responses[i].total.accuracy().expect("accuracy requested") };
    let faults = responses
        .iter()
        .map(|r| r.total.faults_detected)
        .max()
        .unwrap_or(0);
    Ok((
        ScenarioScores {
            baseline: score(0),
            runtime_pruning: score(1),
            sprint_no_recompute: score(2),
            sprint: score(3),
        },
        faults,
    ))
}

/// The single-head accuracy profile of one model: the statistics of
/// the studied workload, one layer × one head (the accuracy proxy is a
/// per-head instrument; model-size grids just average more draws of
/// the same mechanism at much higher cost).
fn accuracy_profile(model: &ModelConfig, seq_len: Option<usize>) -> ModelProfile {
    let mut profile = ModelProfile::from_model(model).with_layers(1).with_heads(1);
    if let Some(s) = seq_len {
        profile = profile.with_seq_len(s);
    }
    profile
}

/// The engine the accuracy sweeps share: M-SPRINT, one worker.
fn accuracy_engine(noise: NoiseModel, seed: u64) -> Result<Engine, SprintError> {
    Engine::builder(SprintConfig::medium())
        .noise(noise)
        .seed(seed)
        .worker_slots(1)
        .build()
}

/// The Fig. 5 sweep: task accuracy as a function of the number of bits
/// used for the in-memory score comparison (Eq. 3), with full-precision
/// on-chip recompute of the survivors.
///
/// Returns `(bits, accuracy)` pairs for `bits = 1..=max_bits`.
///
/// # Errors
///
/// Propagates substrate errors.
pub fn bit_sensitivity(
    model: &ModelConfig,
    seq_len: Option<usize>,
    max_bits: u32,
    seed: u64,
) -> Result<Vec<(u32, f64)>, SprintError> {
    // One server sweeps every bit width as one batch: the crossbars
    // are reprogrammed in place per width, and the shared base seed
    // pins the same trace and proxy task across the whole sweep (the
    // server builds both once).
    let server = ModelServer::new(accuracy_engine(NoiseModel::ideal(), seed ^ 0xb17)?);
    let profile = accuracy_profile(model, seq_len);
    let requests: Vec<ModelRequest> = (1..=max_bits)
        .map(|bits| {
            ModelRequest::new(profile.clone())
                .with_seed(seed)
                .with_mode(ExecutionMode::Sprint)
                .with_threshold_spec(ThresholdSpec::quantized(bits))
                .with_accuracy(true)
        })
        .collect();
    let responses = server.serve_many(&requests)?;
    Ok(responses
        .iter()
        .zip(1..=max_bits)
        .map(|(response, bits)| {
            let score = response.total.accuracy().expect("accuracy requested");
            (bits, score.accuracy)
        })
        .collect())
}

/// Mean unweighted accuracy degradation of SPRINT vs baseline over a
/// set of scores (the paper's headline 0.36 % number).
pub fn mean_degradation(scores: &[(String, ScenarioScores)]) -> f64 {
    let classification: Vec<&ScenarioScores> = scores
        .iter()
        .filter(|(name, _)| name != "GPT-2-L")
        .map(|(_, s)| s)
        .collect();
    if classification.is_empty() {
        return 0.0;
    }
    classification
        .iter()
        .map(|s| (s.baseline.accuracy - s.sprint.accuracy).max(0.0))
        .sum::<f64>()
        / classification.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_labels_match_fig9_bars() {
        assert_eq!(AccuracyScenario::Baseline.label(), "Baseline");
        assert_eq!(
            AccuracyScenario::SprintNoRecompute.label(),
            "SPRINT w/o Recompute"
        );
    }

    #[test]
    fn sprint_recovers_most_of_the_no_recompute_loss() {
        // The central claim of Fig. 9: recompute closes the gap —
        // SPRINT lands at the runtime-pruning level (paper: 0.22%
        // apart) while the no-recompute variant falls well below.
        // Proxy-task degradations are magnified relative to the
        // paper's fine-tuned models (see EXPERIMENTS.md), so the
        // assertions target the orderings and the SPRINT-vs-pruning
        // parity rather than sub-percent absolute gaps.
        let model = ModelConfig::bert_base();
        let s = evaluate_scenarios(&model, Some(96), 3).unwrap();
        assert!(
            s.sprint.accuracy + 1e-9 >= s.sprint_no_recompute.accuracy,
            "recompute ({}) must not score below no-recompute ({})",
            s.sprint.accuracy,
            s.sprint_no_recompute.accuracy
        );
        let parity = (s.sprint.accuracy - s.runtime_pruning.accuracy).abs();
        assert!(
            parity < 0.08,
            "SPRINT ({}) should match runtime pruning ({})",
            s.sprint.accuracy,
            s.runtime_pruning.accuracy
        );
        let sprint_gap = (s.baseline.accuracy - s.sprint.accuracy).abs();
        assert!(sprint_gap < 0.2, "proxy gap {sprint_gap} out of band");
    }

    #[test]
    fn runtime_pruning_stays_close_to_baseline() {
        let model = ModelConfig::vit_base();
        let s = evaluate_scenarios(&model, Some(96), 5).unwrap();
        let gap = (s.baseline.accuracy - s.runtime_pruning.accuracy).abs();
        assert!(gap < 0.08, "runtime pruning gap {gap}");
    }

    #[test]
    fn perplexity_stays_near_baseline_for_gpt2() {
        // Fig. 9: SPRINT's perplexity stays within ~0.1 of the 17.55
        // baseline. (The no-recompute blow-up of the paper needs the
        // real LM objective; our pinned pseudo-perplexity only shows
        // small, seed-dependent shifts there — see EXPERIMENTS.md.)
        let model = ModelConfig::gpt2_large();
        let s = evaluate_scenarios(&model, Some(96), 7).unwrap();
        assert!(
            (s.sprint.perplexity - s.baseline.perplexity).abs() < 0.5,
            "SPRINT perplexity {} strays from baseline {}",
            s.sprint.perplexity,
            s.baseline.perplexity
        );
        assert!(
            (s.runtime_pruning.perplexity - s.baseline.perplexity).abs() < 0.5,
            "runtime pruning perplexity {} strays from baseline {}",
            s.runtime_pruning.perplexity,
            s.baseline.perplexity
        );
    }

    #[test]
    fn bit_sweep_shows_fig5_shape() {
        let model = ModelConfig::bert_base();
        let sweep = bit_sensitivity(&model, Some(96), 8, 11).unwrap();
        assert_eq!(sweep.len(), 8);
        let acc = |b: u32| sweep[(b - 1) as usize].1;
        // One bit collapses; four bits is near the plateau.
        assert!(acc(1) < acc(4), "1-bit {} vs 4-bit {}", acc(1), acc(4));
        let plateau = (acc(6) + acc(7) + acc(8)) / 3.0;
        assert!(
            (acc(4) - plateau).abs() < 0.08,
            "4-bit {} should be near plateau {plateau}",
            acc(4)
        );
    }

    #[test]
    fn mean_degradation_ignores_generative_models() {
        let mk = |acc_base: f64, acc_sprint: f64| ScenarioScores {
            baseline: TaskScore {
                accuracy: acc_base,
                perplexity: 1.0,
                agreement: 1.0,
            },
            runtime_pruning: TaskScore {
                accuracy: acc_base,
                perplexity: 1.0,
                agreement: 1.0,
            },
            sprint_no_recompute: TaskScore {
                accuracy: acc_sprint - 0.04,
                perplexity: 1.0,
                agreement: 0.9,
            },
            sprint: TaskScore {
                accuracy: acc_sprint,
                perplexity: 1.0,
                agreement: 0.99,
            },
        };
        let scores = vec![
            ("BERT-B".to_string(), mk(0.80, 0.796)),
            ("GPT-2-L".to_string(), mk(0.0, 0.0)),
        ];
        let deg = mean_degradation(&scores);
        assert!((deg - 0.004).abs() < 1e-9, "deg {deg}");
    }
}
