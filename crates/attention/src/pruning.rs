//! Learned-threshold runtime pruning (LeOPArd-style, §II-A).
//!
//! The paper builds on gradient-based learned runtime pruning: a
//! per-layer threshold `Th` is learned during fine-tuning and applied at
//! inference, pruning every key whose score falls below it. This module
//! provides the converged artifact — a per-layer [`ThresholdSet`] — and
//! a calibration routine that recovers the threshold from sample score
//! distributions and a target pruning rate (the two are interchangeable
//! for the architecture study; see DESIGN.md substitutions).

use std::sync::Arc;

use crate::{AttentionError, Matrix};

/// The pruning decision for one query: which keys were pruned.
///
/// Follows the paper's encoding for the binary pruning vector produced
/// by the in-memory comparators: **`true` (1) means pruned**, `false`
/// (0) means the key is kept and must be fetched.
///
/// The flag storage is shared on clone (`Arc`-backed, copy-on-write on
/// [`PruneDecision::apply_padding`]): cloning a decision is a
/// reference-count bump, so the padded tail of a head — one identical
/// all-pruned decision per padded query — shares a single allocation
/// instead of materializing `s × s` flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PruneDecision {
    pruned: Arc<Vec<bool>>,
}

impl PruneDecision {
    /// Builds a decision from per-key pruned flags.
    pub fn new(pruned: Vec<bool>) -> Self {
        PruneDecision {
            pruned: Arc::new(pruned),
        }
    }

    /// Builds a decision by thresholding a score row: keys with
    /// `score < threshold` are pruned (Eq. 3 of the paper).
    pub fn from_scores(scores: &[f32], threshold: f32) -> Self {
        PruneDecision::new(scores.iter().map(|&s| s < threshold).collect())
    }

    /// Number of keys covered by the decision.
    pub fn len(&self) -> usize {
        self.pruned.len()
    }

    /// Whether the decision covers zero keys.
    pub fn is_empty(&self) -> bool {
        self.pruned.is_empty()
    }

    /// Whether key `i` is pruned.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn is_pruned(&self, i: usize) -> bool {
        self.pruned[i]
    }

    /// Whether key `i` is kept.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn is_kept(&self, i: usize) -> bool {
        !self.pruned[i]
    }

    /// The pruned flags as a slice (`true` = pruned).
    pub fn as_slice(&self) -> &[bool] {
        &self.pruned
    }

    /// Iterates the indices of kept (unpruned) keys, ascending.
    pub fn iter_kept(&self) -> impl Iterator<Item = usize> + '_ {
        self.pruned
            .iter()
            .enumerate()
            .filter_map(|(i, &p)| (!p).then_some(i))
    }

    /// Indices of kept (unpruned) keys, ascending.
    pub fn kept_indices(&self) -> Vec<usize> {
        self.iter_kept().collect()
    }

    /// Number of kept keys.
    pub fn kept_count(&self) -> usize {
        self.pruned.iter().filter(|&&p| !p).count()
    }

    /// Fraction of keys pruned.
    pub fn prune_rate(&self) -> f64 {
        if self.pruned.is_empty() {
            0.0
        } else {
            (self.len() - self.kept_count()) as f64 / self.len() as f64
        }
    }

    /// Marks every key at or beyond `live` as pruned (padding mask).
    ///
    /// Copy-on-write: a decision whose storage is shared with clones is
    /// detached before mutation, so the clones are unaffected.
    pub fn apply_padding(&mut self, live: usize) {
        for (i, p) in Arc::make_mut(&mut self.pruned).iter_mut().enumerate() {
            if i >= live {
                *p = true;
            }
        }
    }

    /// Whether two decisions share the same backing allocation (clones
    /// do, until one is mutated). Sharing is an optimization only —
    /// equality is always by value.
    pub fn shares_storage(a: &PruneDecision, b: &PruneDecision) -> bool {
        Arc::ptr_eq(&a.pruned, &b.pruned)
    }

    /// Count of keys kept by `self` that are also kept by `other`
    /// (the overlap exploited by the spatial-locality engine).
    ///
    /// # Panics
    ///
    /// Panics if the two decisions cover different key counts.
    pub fn kept_overlap(&self, other: &PruneDecision) -> usize {
        assert_eq!(
            self.len(),
            other.len(),
            "decisions cover different key counts"
        );
        self.pruned
            .iter()
            .zip(other.pruned.iter())
            .filter(|(&a, &b)| !a && !b)
            .count()
    }
}

/// Ascending kept-key indices per query row: what the deciding step
/// hands the recompute kernel, so that every stage of the quantized
/// datapath visits only surviving keys.
#[derive(Debug, Clone, Default)]
pub(crate) struct KeptLists {
    indices: Vec<u32>,
    /// Row `i` is `indices[offsets[i]..offsets[i + 1]]`. Empty when no
    /// decisions were given: every row then shares the one list
    /// `0..s_k`.
    offsets: Vec<usize>,
}

impl KeptLists {
    /// Rebuilds the lists for `decisions` over `s_k` keys (each
    /// decision already validated to cover exactly `s_k`), reusing the
    /// allocations.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::InvalidDimension`] when `s_k` does
    /// not fit the 32-bit indices.
    pub(crate) fn fill(
        &mut self,
        s_k: usize,
        decisions: Option<&[PruneDecision]>,
    ) -> Result<(), AttentionError> {
        let keys = u32::try_from(s_k).map_err(|_| AttentionError::InvalidDimension {
            name: "keys",
            value: s_k,
        })?;
        self.indices.clear();
        self.offsets.clear();
        let Some(decisions) = decisions else {
            self.indices.extend(0..keys);
            return Ok(());
        };
        self.offsets.push(0);
        for d in decisions {
            self.indices.extend(
                (0..keys)
                    .zip(d.as_slice())
                    .filter_map(|(j, &p)| (!p).then_some(j)),
            );
            self.offsets.push(self.indices.len());
        }
        Ok(())
    }

    /// The kept keys of query row `i`, ascending.
    pub(crate) fn row(&self, i: usize) -> &[u32] {
        if self.offsets.is_empty() {
            &self.indices
        } else {
            &self.indices[self.offsets[i]..self.offsets[i + 1]]
        }
    }
}

/// Aggregate pruning statistics over all queries of a head.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PruningStats {
    /// Mean fraction of keys pruned per live query.
    pub mean_prune_rate: f64,
    /// Mean fraction of a query's kept keys that were also kept by the
    /// previous query (adjacent-query overlap, Fig. 3).
    pub mean_adjacent_overlap: f64,
    /// Number of live (non-padded) queries measured.
    pub live_queries: usize,
}

/// Computes [`PruningStats`] over a sequence of per-query decisions.
///
/// Queries with zero kept keys contribute a zero overlap term, matching
/// how the memory controller would see them (nothing to reuse).
pub fn pruning_stats(decisions: &[PruneDecision]) -> PruningStats {
    if decisions.is_empty() {
        return PruningStats::default();
    }
    let mut rate_sum = 0.0;
    let mut overlap_sum = 0.0;
    let mut overlap_terms = 0usize;
    for (i, d) in decisions.iter().enumerate() {
        rate_sum += d.prune_rate();
        if i > 0 {
            let kept = d.kept_count();
            if kept > 0 {
                overlap_sum += d.kept_overlap(&decisions[i - 1]) as f64 / kept as f64;
            }
            overlap_terms += 1;
        }
    }
    PruningStats {
        mean_prune_rate: rate_sum / decisions.len() as f64,
        mean_adjacent_overlap: if overlap_terms == 0 {
            0.0
        } else {
            overlap_sum / overlap_terms as f64
        },
        live_queries: decisions.len(),
    }
}

/// Per-layer learned pruning thresholds.
///
/// # Example
///
/// ```
/// use sprint_attention::ThresholdSet;
///
/// let set = ThresholdSet::uniform(12, -0.5);
/// assert_eq!(set.layer(3), -0.5);
/// assert_eq!(set.layers(), 12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdSet {
    per_layer: Vec<f32>,
}

impl ThresholdSet {
    /// Creates a set with one threshold per layer.
    ///
    /// # Panics
    ///
    /// Panics if `per_layer` is empty.
    pub fn new(per_layer: Vec<f32>) -> Self {
        assert!(!per_layer.is_empty(), "a model has at least one layer");
        ThresholdSet { per_layer }
    }

    /// Creates a set with the same threshold in every layer.
    pub fn uniform(layers: usize, threshold: f32) -> Self {
        ThresholdSet::new(vec![threshold; layers.max(1)])
    }

    /// Number of layers covered.
    pub fn layers(&self) -> usize {
        self.per_layer.len()
    }

    /// Threshold for `layer`, clamping past the last layer (ALBERT-style
    /// layer sharing reuses the last threshold).
    pub fn layer(&self, layer: usize) -> f32 {
        self.per_layer[layer.min(self.per_layer.len() - 1)]
    }
}

/// Calibrates a pruning threshold from sample scores so that the target
/// fraction of entries falls below it.
///
/// This recovers the converged value of LeOPArd's gradient-learned
/// threshold: at convergence the threshold sits at the score quantile
/// that prunes the learned rate. Only finite scores participate
/// (padding positions carry `-inf`/`MASK_NEG` and are excluded).
///
/// # Errors
///
/// Returns [`AttentionError::EmptyInput`] when `scores` contains no
/// finite entries, or [`AttentionError::InvalidQuantization`] when
/// `target_prune_rate` is outside `[0, 1)`.
///
/// # Example
///
/// ```
/// use sprint_attention::{calibrate_threshold, Matrix};
///
/// # fn main() -> Result<(), sprint_attention::AttentionError> {
/// let scores = Matrix::from_rows(&[vec![0.0, 1.0, 2.0, 3.0]])?;
/// let th = calibrate_threshold(&scores, 0.5)?;
/// assert!(th > 1.0 && th <= 2.0); // prunes {0.0, 1.0}
/// # Ok(())
/// # }
/// ```
pub fn calibrate_threshold(scores: &Matrix, target_prune_rate: f64) -> Result<f32, AttentionError> {
    if !(0.0..1.0).contains(&target_prune_rate) {
        return Err(AttentionError::InvalidQuantization(format!(
            "target prune rate {target_prune_rate} outside [0, 1)"
        )));
    }
    let mut finite: Vec<f32> = scores
        .as_slice()
        .iter()
        .copied()
        .filter(|s| s.is_finite())
        .collect();
    if finite.is_empty() {
        return Err(AttentionError::EmptyInput("finite scores for calibration"));
    }
    finite.sort_by(|a, b| a.partial_cmp(b).expect("finite scores compare"));
    let idx = ((finite.len() as f64) * target_prune_rate).floor() as usize;
    if idx == 0 {
        // Prune nothing: any threshold at or below the minimum works.
        return Ok(finite[0]);
    }
    let idx = idx.min(finite.len() - 1);
    // Threshold strictly between the last pruned and first kept score.
    let below = finite[idx - 1];
    let at = finite[idx];
    Ok(if below < at { (below + at) / 2.0 } else { at })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn decision_from_scores_applies_strict_less_than() {
        let d = PruneDecision::from_scores(&[0.1, 0.5, 0.9], 0.5);
        assert!(d.is_pruned(0));
        assert!(d.is_kept(1), "score equal to threshold is kept");
        assert!(d.is_kept(2));
        assert_eq!(d.kept_indices(), vec![1, 2]);
        assert_eq!(d.kept_count(), 2);
        assert!((d.prune_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn clones_share_storage_until_mutated() {
        let a = PruneDecision::new(vec![false, true, false]);
        let mut b = a.clone();
        assert!(PruneDecision::shares_storage(&a, &b));
        // Copy-on-write: mutation detaches the clone, the original is
        // untouched.
        b.apply_padding(1);
        assert!(!PruneDecision::shares_storage(&a, &b));
        assert!(a.is_kept(2));
        assert!(b.is_pruned(2));
    }

    #[test]
    fn padding_prunes_tail() {
        let mut d = PruneDecision::new(vec![false; 6]);
        d.apply_padding(4);
        assert_eq!(d.kept_count(), 4);
        assert!(d.is_pruned(5));
    }

    #[test]
    fn overlap_counts_jointly_kept() {
        let a = PruneDecision::new(vec![false, false, true, false]);
        let b = PruneDecision::new(vec![false, true, true, false]);
        assert_eq!(a.kept_overlap(&b), 2);
        assert_eq!(b.kept_overlap(&a), 2, "overlap is symmetric");
    }

    #[test]
    #[should_panic(expected = "different key counts")]
    fn overlap_rejects_mismatched_lengths() {
        let a = PruneDecision::new(vec![false]);
        let b = PruneDecision::new(vec![false, true]);
        let _ = a.kept_overlap(&b);
    }

    #[test]
    fn stats_aggregate_rates_and_overlap() {
        let decisions = vec![
            PruneDecision::new(vec![false, false, true, true]),
            PruneDecision::new(vec![false, true, true, false]),
        ];
        let stats = pruning_stats(&decisions);
        assert!((stats.mean_prune_rate - 0.5).abs() < 1e-12);
        // Second query keeps {0, 3}; first kept {0, 1} -> overlap 1 of 2.
        assert!((stats.mean_adjacent_overlap - 0.5).abs() < 1e-12);
        assert_eq!(stats.live_queries, 2);
    }

    #[test]
    fn stats_handle_empty_and_fully_pruned() {
        assert_eq!(pruning_stats(&[]), PruningStats::default());
        let decisions = vec![
            PruneDecision::new(vec![true, true]),
            PruneDecision::new(vec![true, true]),
        ];
        let stats = pruning_stats(&decisions);
        assert_eq!(stats.mean_prune_rate, 1.0);
        assert_eq!(stats.mean_adjacent_overlap, 0.0);
    }

    #[test]
    fn threshold_set_clamps_layer_index() {
        let set = ThresholdSet::new(vec![-1.0, -2.0]);
        assert_eq!(set.layer(0), -1.0);
        assert_eq!(set.layer(1), -2.0);
        assert_eq!(set.layer(99), -2.0);
    }

    #[test]
    fn calibration_hits_target_rate() {
        let scores = Matrix::from_vec(1, 100, (0..100).map(|i| i as f32).collect()).unwrap();
        for target in [0.0, 0.25, 0.5, 0.75, 0.9] {
            let th = calibrate_threshold(&scores, target).unwrap();
            let d = PruneDecision::from_scores(scores.row(0), th);
            assert!(
                (d.prune_rate() - target).abs() <= 0.011,
                "target={target} got={}",
                d.prune_rate()
            );
        }
    }

    #[test]
    fn calibration_ignores_non_finite_scores() {
        let mut row = vec![f32::NEG_INFINITY; 50];
        row.extend((0..50).map(|i| i as f32));
        let scores = Matrix::from_vec(1, 100, row).unwrap();
        let th = calibrate_threshold(&scores, 0.5).unwrap();
        // Half of the *finite* scores are below the threshold.
        assert!(th > 24.0 && th < 26.0, "th={th}");
    }

    #[test]
    fn calibration_rejects_bad_inputs() {
        let scores = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert!(calibrate_threshold(&scores, 1.0).is_err());
        assert!(calibrate_threshold(&scores, -0.1).is_err());
        let masked = Matrix::from_rows(&[vec![f32::NEG_INFINITY]]).unwrap();
        assert!(calibrate_threshold(&masked, 0.5).is_err());
    }

    proptest! {
        #[test]
        fn prop_calibration_rate_close(
            n in 10usize..300,
            target in 0.0f64..0.95,
            seed in 0u64..500,
        ) {
            let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
            let mut next = || {
                x ^= x << 13; x ^= x >> 7; x ^= x << 17;
                (x >> 40) as f32 / 16777216.0
            };
            let scores = Matrix::from_vec(1, n, (0..n).map(|_| next()).collect()).unwrap();
            let th = calibrate_threshold(&scores, target).unwrap();
            let d = PruneDecision::from_scores(scores.row(0), th);
            // Quantile granularity limits accuracy to ~1/n (ties aside).
            prop_assert!((d.prune_rate() - target).abs() <= 2.0 / n as f64 + 1e-9);
        }

        #[test]
        fn prop_prune_rate_monotone_in_threshold(
            th1 in -1.0f32..1.0, th2 in -1.0f32..1.0,
        ) {
            let scores: Vec<f32> = (0..64).map(|i| (i as f32 / 32.0) - 1.0).collect();
            let (lo, hi) = if th1 <= th2 { (th1, th2) } else { (th2, th1) };
            let d_lo = PruneDecision::from_scores(&scores, lo);
            let d_hi = PruneDecision::from_scores(&scores, hi);
            prop_assert!(d_lo.prune_rate() <= d_hi.prune_rate());
            // Monotone set containment: everything kept at hi is kept at lo.
            for i in 0..scores.len() {
                if d_hi.is_kept(i) {
                    prop_assert!(d_lo.is_kept(i));
                }
            }
        }
    }
}
