//! The eight studied workloads (§VII "Benchmarks").

use crate::trace::TraceSpec;

/// The transformer models evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// BERT-Base on SQuAD.
    BertBase,
    /// BERT-Large on SQuAD.
    BertLarge,
    /// ALBERT-X-Large on SQuAD.
    AlbertXl,
    /// ALBERT-XX-Large on SQuAD.
    AlbertXxl,
    /// ViT-Base on CIFAR-10.
    VitBase,
    /// GPT-2-Large on WikiText-2.
    Gpt2Large,
    /// Synthetic futuristic model, 2K sequence.
    Synth1,
    /// Synthetic futuristic model, 4K sequence.
    Synth2,
}

/// The dataset each model is fine-tuned and evaluated on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Stanford Question Answering Dataset.
    Squad,
    /// CIFAR-10 image classification.
    Cifar10,
    /// WikiText-2 language modelling.
    WikiText2,
    /// GLUE/CoLA (used in the Fig. 2 illustration and MRPC-style
    /// accuracy studies).
    Glue,
    /// Synthetic long-sequence data.
    Synthetic,
}

/// Configuration of one studied workload, with the constants the paper
/// reports in §VII: default sequence length, embedding size (d = 64
/// for every model), learned pruning rate, zero-padding ratio and the
/// baseline task accuracy of Fig. 9.
///
/// # Example
///
/// ```
/// use sprint_workloads::ModelConfig;
///
/// let m = ModelConfig::gpt2_large();
/// assert_eq!(m.seq_len, 1024);
/// assert!((m.pruning_rate - 0.739).abs() < 1e-9);
/// assert!(m.is_generative());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Which model this is.
    pub kind: ModelKind,
    /// Display name used in reports ("BERT-B", ...).
    pub name: &'static str,
    /// Evaluation dataset.
    pub dataset: Dataset,
    /// Default sequence length (197 CIFAR-10 / 384 SQuAD /
    /// 1024 WikiText-2 / 2048 / 4096 synthetic).
    pub seq_len: usize,
    /// Per-head embedding size; 64 for all studied models.
    pub head_dim: usize,
    /// Attention heads per layer.
    pub heads: usize,
    /// Attention layers.
    pub layers: usize,
    /// Learned runtime pruning rate (fraction of scores pruned among
    /// live tokens).
    pub pruning_rate: f64,
    /// Mean fraction of the sequence that is zero padding
    /// (0.46 for SQuAD models, 0 for ViT/GPT-2, 0.5 synthetic).
    pub padding_fraction: f64,
    /// Mean adjacent-query kept-set overlap observed on the real
    /// dataset (Fig. 3, "Dataset" bars).
    pub adjacent_overlap: f64,
    /// Baseline (software-only) task accuracy, or perplexity for
    /// generative models (Fig. 9).
    pub baseline_metric: f64,
}

impl ModelConfig {
    /// BERT-Base / SQuAD: s = 384, 74.6 % pruning, 46 % padding.
    pub fn bert_base() -> Self {
        ModelConfig {
            kind: ModelKind::BertBase,
            name: "BERT-B",
            dataset: Dataset::Squad,
            seq_len: 384,
            head_dim: 64,
            heads: 12,
            layers: 12,
            pruning_rate: 0.746,
            padding_fraction: 0.46,
            adjacent_overlap: 0.8556,
            baseline_metric: 0.80198,
        }
    }

    /// BERT-Large / SQuAD: s = 384, 75.5 % pruning.
    pub fn bert_large() -> Self {
        ModelConfig {
            kind: ModelKind::BertLarge,
            name: "BERT-L",
            dataset: Dataset::Squad,
            seq_len: 384,
            head_dim: 64,
            heads: 16,
            layers: 24,
            pruning_rate: 0.755,
            padding_fraction: 0.46,
            adjacent_overlap: 0.85,
            baseline_metric: 0.8351,
        }
    }

    /// ALBERT-X-Large / SQuAD: s = 384, 65.1 % pruning.
    pub fn albert_xl() -> Self {
        ModelConfig {
            kind: ModelKind::AlbertXl,
            name: "ALBERT-XL",
            dataset: Dataset::Squad,
            seq_len: 384,
            head_dim: 64,
            heads: 16,
            layers: 24,
            pruning_rate: 0.651,
            padding_fraction: 0.46,
            adjacent_overlap: 0.84,
            baseline_metric: 0.857142857,
        }
    }

    /// ALBERT-XX-Large / SQuAD: s = 384, 73.1 % pruning.
    pub fn albert_xxl() -> Self {
        ModelConfig {
            kind: ModelKind::AlbertXxl,
            name: "ALBERT-XXL",
            dataset: Dataset::Squad,
            seq_len: 384,
            head_dim: 64,
            heads: 64,
            layers: 12,
            pruning_rate: 0.731,
            padding_fraction: 0.46,
            adjacent_overlap: 0.8756,
            baseline_metric: 0.873509934,
        }
    }

    /// ViT-Base / CIFAR-10: s = 197, 64.4 % pruning, no padding.
    pub fn vit_base() -> Self {
        ModelConfig {
            kind: ModelKind::VitBase,
            name: "ViT-B",
            dataset: Dataset::Cifar10,
            seq_len: 197,
            head_dim: 64,
            heads: 12,
            layers: 12,
            pruning_rate: 0.644,
            padding_fraction: 0.0,
            adjacent_overlap: 0.739,
            baseline_metric: 0.9873,
        }
    }

    /// GPT-2-Large / WikiText-2: s = 1024, 73.9 % pruning.
    /// The baseline metric is perplexity (17.55; lower is better).
    ///
    /// GPT-2 is autoregressive: the causal mask blanks the upper
    /// triangle of every attention map, which SPRINT's 2-D sequence
    /// reduction skips exactly like a padded region. The profile
    /// models this with an equivalent masked fraction of `1 − 1/√2`
    /// (the live square with the same area as the causal triangle).
    /// Its adjacent-query overlap is the highest of the studied
    /// models — the paper reports only ~2.1 % of the sequence fetched
    /// between adjacent queries.
    pub fn gpt2_large() -> Self {
        ModelConfig {
            kind: ModelKind::Gpt2Large,
            name: "GPT-2-L",
            dataset: Dataset::WikiText2,
            seq_len: 1024,
            head_dim: 64,
            heads: 20,
            layers: 36,
            pruning_rate: 0.739,
            padding_fraction: 0.29,
            adjacent_overlap: 0.92,
            baseline_metric: 17.55,
        }
    }

    /// Synthetic 2K-sequence futuristic model: 75 % pruning,
    /// 50 % padding (§VII).
    pub fn synth1() -> Self {
        ModelConfig {
            kind: ModelKind::Synth1,
            name: "Synth-1",
            dataset: Dataset::Synthetic,
            seq_len: 2048,
            head_dim: 64,
            heads: 16,
            layers: 24,
            pruning_rate: 0.75,
            padding_fraction: 0.5,
            adjacent_overlap: 0.84,
            baseline_metric: 0.85,
        }
    }

    /// Synthetic 4K-sequence futuristic model: 75 % pruning,
    /// 50 % padding (§VII).
    pub fn synth2() -> Self {
        ModelConfig {
            kind: ModelKind::Synth2,
            name: "Synth-2",
            dataset: Dataset::Synthetic,
            seq_len: 4096,
            head_dim: 64,
            heads: 16,
            layers: 24,
            pruning_rate: 0.75,
            padding_fraction: 0.5,
            adjacent_overlap: 0.84,
            baseline_metric: 0.85,
        }
    }

    /// All eight studied workloads, in the order the paper's figures
    /// list them.
    pub fn all() -> Vec<ModelConfig> {
        vec![
            ModelConfig::bert_base(),
            ModelConfig::bert_large(),
            ModelConfig::albert_xl(),
            ModelConfig::albert_xxl(),
            ModelConfig::vit_base(),
            ModelConfig::gpt2_large(),
            ModelConfig::synth1(),
            ModelConfig::synth2(),
        ]
    }

    /// The six real (non-synthetic) models of the accuracy study.
    pub fn real_models() -> Vec<ModelConfig> {
        ModelConfig::all()
            .into_iter()
            .filter(|m| m.dataset != Dataset::Synthetic)
            .collect()
    }

    /// Whether the baseline metric is a perplexity (lower is better)
    /// rather than an accuracy.
    pub fn is_generative(&self) -> bool {
        matches!(self.kind, ModelKind::Gpt2Large)
    }

    /// Mean number of live (non-padded) tokens per input.
    pub fn live_tokens(&self) -> usize {
        let live = (self.seq_len as f64 * (1.0 - self.padding_fraction)).round() as usize;
        live.clamp(1, self.seq_len)
    }

    /// Fraction of live keys kept per query (1 − pruning rate).
    pub fn keep_rate(&self) -> f64 {
        1.0 - self.pruning_rate
    }

    /// A [`TraceSpec`] that generates synthetic heads matching this
    /// model's statistics.
    pub fn trace_spec(&self) -> TraceSpec {
        TraceSpec {
            seq_len: self.seq_len,
            head_dim: self.head_dim,
            prune_rate: self.pruning_rate,
            padding_fraction: self.padding_fraction,
            target_overlap: self.adjacent_overlap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_returns_eight_workloads_in_paper_order() {
        let all = ModelConfig::all();
        assert_eq!(all.len(), 8);
        let names: Vec<&str> = all.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            vec![
                "BERT-B",
                "BERT-L",
                "ALBERT-XL",
                "ALBERT-XXL",
                "ViT-B",
                "GPT-2-L",
                "Synth-1",
                "Synth-2"
            ]
        );
    }

    #[test]
    fn sequence_lengths_match_section_seven() {
        let by_name: Vec<(usize, &str)> = ModelConfig::all()
            .iter()
            .map(|m| (m.seq_len, m.name))
            .collect();
        assert!(by_name.contains(&(197, "ViT-B")));
        assert!(by_name.contains(&(384, "BERT-B")));
        assert!(by_name.contains(&(1024, "GPT-2-L")));
        assert!(by_name.contains(&(2048, "Synth-1")));
        assert!(by_name.contains(&(4096, "Synth-2")));
    }

    #[test]
    fn pruning_rates_match_section_seven() {
        let rates: Vec<f64> = ModelConfig::all().iter().map(|m| m.pruning_rate).collect();
        assert_eq!(
            rates,
            vec![0.746, 0.755, 0.651, 0.731, 0.644, 0.739, 0.75, 0.75]
        );
    }

    #[test]
    fn every_model_uses_embedding_64() {
        assert!(ModelConfig::all().iter().all(|m| m.head_dim == 64));
    }

    #[test]
    fn padding_fractions_match_paper() {
        let vit = ModelConfig::vit_base();
        assert_eq!(vit.padding_fraction, 0.0, "ViT has no padded area");
        let gpt = ModelConfig::gpt2_large();
        assert!(
            (gpt.padding_fraction - 0.29).abs() < 1e-9,
            "causal-mask equivalent"
        );
        let bert = ModelConfig::bert_base();
        assert!((bert.padding_fraction - 0.46).abs() < 1e-9, "46% for SQuAD");
        assert_eq!(ModelConfig::synth2().padding_fraction, 0.5);
    }

    #[test]
    fn live_tokens_reflect_padding() {
        let bert = ModelConfig::bert_base();
        assert_eq!(bert.live_tokens(), (384.0 * 0.54f64).round() as usize);
        let vit = ModelConfig::vit_base();
        assert_eq!(vit.live_tokens(), 197);
    }

    #[test]
    fn only_gpt2_is_generative() {
        let gen: Vec<&str> = ModelConfig::all()
            .iter()
            .filter(|m| m.is_generative())
            .map(|m| m.name)
            .collect();
        assert_eq!(gen, vec!["GPT-2-L"]);
    }

    #[test]
    fn real_models_excludes_synthetic() {
        let real = ModelConfig::real_models();
        assert_eq!(real.len(), 6);
        assert!(real.iter().all(|m| m.dataset != Dataset::Synthetic));
    }

    #[test]
    fn trace_spec_inherits_model_statistics() {
        let m = ModelConfig::bert_base();
        let spec = m.trace_spec();
        assert_eq!(spec.seq_len, m.seq_len);
        assert_eq!(spec.prune_rate, m.pruning_rate);
        assert_eq!(spec.padding_fraction, m.padding_fraction);
    }
}
