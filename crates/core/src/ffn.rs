//! End-to-end execution including the feed-forward networks (§VII
//! "End-to-End comparison including fully-connected networks").
//!
//! SPRINT's QK-PU and V-PU are repurposed as two 8-bit 64-tap
//! dot-product engines for the FFN, with the K/V buffers holding 16 KB
//! of weights reused across tokens. SPRINT's FFN advantage comes from
//! the two-dimensional sequence reduction: padded tokens skip the FFN
//! entirely, cutting its iteration count by the live fraction.

use sprint_workloads::ModelConfig;

use crate::counting::{simulate_head, ExecutionMode};
use crate::{HeadProfile, SprintConfig};

/// Transformer-layer dimensions relevant to the FFN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FfnConfig {
    /// Model embedding width (heads × 64 in the studied models).
    pub d_model: usize,
    /// Hidden width (4 × d_model in all studied models).
    pub d_hidden: usize,
}

impl FfnConfig {
    /// Derives the FFN dimensions from a model configuration.
    pub fn for_model(model: &ModelConfig) -> Self {
        let d_model = model.heads * model.head_dim;
        FfnConfig {
            d_model,
            d_hidden: 4 * d_model,
        }
    }

    /// MAC operations of both FFN layers for `tokens` tokens
    /// (in → hidden → out), counted as 2 ops per MAC.
    pub fn ops(&self, tokens: usize) -> f64 {
        2.0 * (tokens as f64) * (self.d_model as f64) * (self.d_hidden as f64) * 2.0
    }
}

/// End-to-end (attention + FFN) comparison for one model/config.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Attention-only speedup (Fig. 11's metric).
    pub attention_speedup: f64,
    /// Attention-only energy reduction (Fig. 12's metric).
    pub attention_energy_reduction: f64,
    /// End-to-end speedup including FFNs.
    pub speedup: f64,
    /// End-to-end energy reduction including FFNs.
    pub energy_reduction: f64,
    /// Fraction of baseline layer ops spent in attention.
    pub attention_ops_fraction: f64,
}

/// Computes the end-to-end comparison for one model on one config.
///
/// The FFN runs on the same PUs in both systems, so its speedup and
/// energy reduction equal the live-token fraction the 2-D reduction
/// skips; attention numbers come from the counting simulator over the
/// given profile.
pub fn end_to_end(model: &ModelConfig, cfg: &SprintConfig, profile: &HeadProfile) -> EndToEnd {
    let base = simulate_head(profile, cfg, ExecutionMode::Baseline);
    let sprint = simulate_head(profile, cfg, ExecutionMode::Sprint);
    let attention_speedup = sprint.speedup_over(&base);
    let attention_energy_reduction = sprint.energy_reduction_over(&base);

    // Per-layer op split (all heads).
    let d = model.head_dim as f64;
    let s = profile.seq_len as f64;
    let attn_ops = model.heads as f64 * 2.0 * s * s * d * 2.0;
    let ffn = FfnConfig::for_model(model);
    let ffn_base_ops = ffn.ops(profile.seq_len);
    let f_attn = attn_ops / (attn_ops + ffn_base_ops);

    // FFN gain: padded tokens are skipped entirely.
    let live_fraction = profile.live as f64 / profile.seq_len as f64;
    let ffn_speedup = 1.0 / live_fraction;

    let speedup = 1.0 / ((1.0 - f_attn) / ffn_speedup + f_attn / attention_speedup);
    let energy_reduction =
        1.0 / ((1.0 - f_attn) / ffn_speedup + f_attn / attention_energy_reduction);

    EndToEnd {
        attention_speedup,
        attention_energy_reduction,
        speedup,
        energy_reduction,
        attention_ops_fraction: f_attn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ffn_dimensions_follow_model_width() {
        let bert = FfnConfig::for_model(&ModelConfig::bert_base());
        assert_eq!(bert.d_model, 768);
        assert_eq!(bert.d_hidden, 3072);
        let gpt = FfnConfig::for_model(&ModelConfig::gpt2_large());
        assert_eq!(gpt.d_model, 1280);
    }

    #[test]
    fn ffn_ops_scale_linearly_in_tokens() {
        let f = FfnConfig {
            d_model: 768,
            d_hidden: 3072,
        };
        assert!((f.ops(200) / f.ops(100) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bert_end_to_end_lands_in_paper_band() {
        // Paper: BERT-B 2.2x energy / 1.8x speedup end to end.
        let model = ModelConfig::bert_base();
        let profile = HeadProfile::synthetic(
            model.seq_len,
            model.live_tokens(),
            model.keep_rate(),
            model.adjacent_overlap,
            3,
        );
        let e2e = end_to_end(&model, &SprintConfig::medium(), &profile);
        assert!(
            (1.3..3.2).contains(&e2e.speedup),
            "end-to-end speedup {} outside the plausible band",
            e2e.speedup
        );
        assert!(
            (1.3..3.5).contains(&e2e.energy_reduction),
            "end-to-end energy {} outside the plausible band",
            e2e.energy_reduction
        );
        // FFN dominates ops for BERT-class models.
        assert!(e2e.attention_ops_fraction < 0.2);
    }

    #[test]
    fn vit_gains_almost_nothing_end_to_end() {
        // Paper: ViT-B 1.1x / 1.0x — no padded area to skip.
        let model = ModelConfig::vit_base();
        let profile = HeadProfile::synthetic(
            model.seq_len,
            model.live_tokens(),
            model.keep_rate(),
            model.adjacent_overlap,
            4,
        );
        let e2e = end_to_end(&model, &SprintConfig::medium(), &profile);
        assert!(
            e2e.speedup < 1.5,
            "ViT end-to-end speedup {} should be marginal",
            e2e.speedup
        );
        assert!(e2e.speedup >= 1.0);
    }

    #[test]
    fn larger_benchmarks_gain_more_end_to_end() {
        // Paper: "M-SPRINT achieves greater benefit for larger
        // benchmarks, e.g. 7.7x/4.7x for Synth2".
        let bert = ModelConfig::bert_base();
        let synth = ModelConfig::synth2();
        let bp = HeadProfile::synthetic(
            bert.seq_len,
            bert.live_tokens(),
            bert.keep_rate(),
            bert.adjacent_overlap,
            5,
        );
        // Scaled-down Synth-2 with the same statistics (full size is
        // exercised by the report binary).
        let sp = HeadProfile::synthetic(1024, 512, synth.keep_rate(), synth.adjacent_overlap, 6);
        let cfg = SprintConfig::medium();
        let b = end_to_end(&bert, &cfg, &bp);
        let s = end_to_end(&synth, &cfg, &sp);
        assert!(
            s.speedup > b.speedup,
            "synth {} vs bert {}",
            s.speedup,
            b.speedup
        );
    }

    #[test]
    fn attention_fraction_grows_with_sequence_length() {
        let synth = ModelConfig::synth2();
        let short = HeadProfile::synthetic(256, 128, 0.25, 0.84, 7);
        let long = HeadProfile::synthetic(2048, 1024, 0.25, 0.84, 7);
        let cfg = SprintConfig::medium();
        let a = end_to_end(&synth, &cfg, &short);
        let b = end_to_end(&synth, &cfg, &long);
        assert!(b.attention_ops_fraction > a.attention_ops_fraction);
    }
}
