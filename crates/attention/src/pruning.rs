//! Learned-threshold runtime pruning (LeOPArd-style, §II-A).
//!
//! The paper builds on gradient-based learned runtime pruning: a
//! per-layer threshold `Th` is learned during fine-tuning and applied at
//! inference, pruning every key whose score falls below it. This module
//! provides the per-query [`PruneDecision`] and a calibration routine
//! that recovers the converged threshold from sample score
//! distributions and a target pruning rate (the two are interchangeable
//! for the architecture study; see DESIGN.md substitutions).

use std::ops::Range;
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
        let mut count = [0];
        self.kept_by_residue(&mut count);
        count[0] as usize
    }

    /// Kept keys by index residue: `counts[r]` becomes the number of kept
    /// keys `j` with `j % counts.len() == r` (non-empty), read eight flags
    /// a word, one byte lane per `j % 8`, wherever `counts.len()` divides 8.
    pub fn kept_by_residue(&self, counts: &mut [u64]) {
        counts.fill(0);
        let n = counts.len();
        let word_end = if 8 % n == 0 { self.len() / 8 * 8 } else { 0 };
        let (words, tail) = self.pruned.split_at(word_end);
        // Byte `b` of `sum` counts lane `b`: 255 words fill a byte.
        for block in words.chunks(8 * 255) {
            let sum = block.chunks_exact(8).fold(0, |sum, w| sum + kept_word(w));
            for (b, lane) in sum.to_le_bytes().into_iter().enumerate() {
                counts[b % n] += u64::from(lane);
            }
        }
        for (j, &pruned) in (word_end..).zip(tail) {
            counts[j % n] += u64::from(!pruned);
        }
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
/// datapath visits only surviving keys. Row `i`'s kept pairs also own
/// the slots [`KeptLists::span`] of a kept-ordered value buffer (one
/// `f32` per pair: the row's scores, then its probabilities).
#[derive(Debug, Clone, Default)]
pub(crate) struct KeptLists {
    /// The lists back to back, then unused slack.
    indices: Vec<u32>,
    /// Row `i` is `indices[offsets[i]..offsets[i + 1]]`; without
    /// decisions `offsets` is `[0, s_k]` and every row shares the one
    /// list `0..s_k`.
    offsets: Vec<usize>,
    shared: bool,
    /// One past the largest key any row keeps (0 when none does).
    key_end: usize,
}

/// Eight pruned flags as one word whose byte `t` is 1 when key `t` is
/// kept (`!word & 0x0101…`, a safe fold that compiles to one load).
fn kept_word(word: &[bool]) -> u64 {
    !(0..)
        .zip(word)
        .fold(0, |w, (t, &p)| w | u64::from(p) << (8 * t))
        & 0x0101_0101_0101_0101
}

/// For each byte `m`, the positions of its set bits, ascending (the
/// rest zero): the kept keys of one eight-flag word whose kept mask is
/// `m`.
static SET_BITS: [[u8; 8]; 256] = {
    let mut table = [[0u8; 8]; 256];
    let mut m = 0;
    while m < 256 {
        let (mut n, mut bit) = (0, 0);
        while bit < 8 {
            if m & (1 << bit) != 0 {
                table[m][n] = bit as u8;
                n += 1;
            }
            bit += 1;
        }
        m += 1;
    }
    table
};

impl KeptLists {
    /// Rebuilds the lists for `decisions` over `s_k` keys (each
    /// decision already validated to cover exactly `s_k`), reusing the
    /// allocations. Flags are read eight at a time, branch-free: the
    /// kept ones are the zero bytes of the word (`!word & 0x0101…`),
    /// gathered into an 8-bit mask whose set-bit positions a table
    /// lists; all eight candidates are written and the list advances
    /// by the mask's popcount.
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
        const LOW_BITS: u64 = 0x0101_0101_0101_0101;
        // Moves the low bit of byte `t` to bit `56 + t`.
        const GATHER: u64 = 0x0102_0408_1020_4080;
        let keys = u32::try_from(s_k).map_err(|_| AttentionError::InvalidDimension {
            name: "keys",
            value: s_k,
        })?;
        self.offsets.clear();
        self.offsets.push(0);
        self.shared = decisions.is_none();
        let Some(decisions) = decisions else {
            self.indices.clear();
            self.indices.extend(0..keys);
            self.offsets.push(s_k);
            self.key_end = s_k;
            return Ok(());
        };
        self.key_end = 0;
        let mut len = 0;
        for d in decisions {
            // Room for every key of the row plus one word's overshoot.
            if self.indices.len() < len + s_k + 8 {
                self.indices.resize(len + s_k + 8, 0);
            }
            let mut words = d.as_slice().chunks_exact(8);
            let mut base = 0u32;
            for word in &mut words {
                let kept = kept_word(word);
                if kept != 0 {
                    let mask = (kept.wrapping_mul(GATHER) >> 56) as usize;
                    for (slot, &bit) in self.indices[len..len + 8].iter_mut().zip(&SET_BITS[mask]) {
                        *slot = base + u32::from(bit);
                    }
                    // The byte sum, i.e. the number of kept flags.
                    len += (kept.wrapping_mul(LOW_BITS) >> 56) as usize;
                }
                base += 8;
            }
            for (j, &pruned) in (base..).zip(words.remainder()) {
                if !pruned {
                    self.indices[len] = j;
                    len += 1;
                }
            }
            if len > self.offsets[self.offsets.len() - 1] {
                self.key_end = self.key_end.max(self.indices[len - 1] as usize + 1);
            }
            self.offsets.push(len);
        }
        Ok(())
    }

    /// The kept keys of query row `i`, ascending.
    pub(crate) fn row(&self, i: usize) -> &[u32] {
        let i = if self.shared { 0 } else { i };
        &self.indices[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Row `i`'s slots in the kept-ordered value buffer.
    pub(crate) fn span(&self, i: usize) -> Range<usize> {
        if self.shared {
            let n = self.offsets[1];
            i * n..(i + 1) * n
        } else {
            self.offsets[i]..self.offsets[i + 1]
        }
    }

    /// The value slots rows `rows` own, contiguous and in row order.
    pub(crate) fn spans(&self, rows: Range<usize>) -> Range<usize> {
        if rows.is_empty() {
            return 0..0;
        }
        self.span(rows.start).start..self.span(rows.end - 1).end
    }

    /// One past the largest kept key of any row: the keys whose codes
    /// the recompute reads.
    pub(crate) fn key_end(&self) -> usize {
        self.key_end
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

/// Calibrates a pruning threshold from sample scores so that the target
/// fraction of entries falls below it.
///
/// This recovers the converged value of LeOPArd's gradient-learned
/// threshold: at convergence the threshold sits at the score quantile
/// that prunes the learned rate. Only finite scores participate
/// (padding positions carry `-inf`/`MASK_NEG` and are excluded).
///
/// The quantile is selected in linear time, not sorted, and the result
/// is bit-identical to reading it off a stable ascending sort of the
/// finite scores, including which of `-0.0` / `0.0` a tie returns.
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
    let mut finite = Vec::with_capacity(scores.as_slice().len());
    finite.extend(scores.as_slice().iter().copied().filter(|s| s.is_finite()));
    if finite.is_empty() {
        return Err(AttentionError::EmptyInput("finite scores for calibration"));
    }
    // The two order statistics a stable ascending sort would put at
    // `idx - 1` and `idx`: the first kept score by selection, the last
    // pruned one as the maximum of the left partition. `total_cmp`
    // orders finite values as `partial_cmp` does except that `-0.0`
    // goes before `0.0`, so each position holds the sort's value up to
    // the sign of a zero.
    let idx = ((finite.len() as f64) * target_prune_rate).floor() as usize;
    let at_idx = idx.min(finite.len() - 1);
    let (pruned, &mut at, _) = finite.select_nth_unstable_by(at_idx, f32::total_cmp);
    // The stable sort keeps equal zeros in input order: take the zero it
    // would have put at `at_idx`.
    let at = if at == 0.0 {
        stable_zero(scores.as_slice(), at_idx)
    } else {
        at
    };
    if idx == 0 {
        // Prune nothing: any threshold at or below the minimum works.
        return Ok(at);
    }
    // Threshold strictly between the last pruned and first kept score.
    // A zero `below` either ties `at` (and `at` is returned) or is added
    // to a non-zero `at`, so its sign cannot reach the result.
    let below = pruned.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    Ok(if below < at { (below + at) / 2.0 } else { at })
}

/// The zero that a stable ascending sort of the finite `scores` places
/// at position `pos`, given that a zero lands there: the zeros follow
/// every negative score, in input order.
fn stable_zero(scores: &[f32], pos: usize) -> f32 {
    let negatives = scores.iter().filter(|&&s| s < 0.0 && s.is_finite()).count();
    scores
        .iter()
        .copied()
        .filter(|&s| s == 0.0)
        .nth(pos - negatives)
        .expect("a zero sorts to `pos`")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn word_wise_kept_lists_match_the_flags() {
        // Lengths across the eight-flag words and their ragged ends,
        // densities from none kept to all kept.
        let mut state = 0x2545_f491u32;
        let mut lists = KeptLists::default();
        for s_k in [0usize, 1, 7, 8, 9, 16, 17, 40, 63, 64, 65] {
            for density in [0u32, 1, 4, 8, 15, 16] {
                let decisions: Vec<PruneDecision> = (0..5)
                    .map(|_| {
                        PruneDecision::new(
                            (0..s_k)
                                .map(|_| {
                                    state ^= state << 13;
                                    state ^= state >> 17;
                                    state ^= state << 5;
                                    state % 16 >= density
                                })
                                .collect(),
                        )
                    })
                    .collect();
                lists.fill(s_k, Some(&decisions)).unwrap();
                let mut slot = 0;
                let mut key_end = 0;
                for (i, d) in decisions.iter().enumerate() {
                    let want: Vec<u32> = d.iter_kept().map(|j| j as u32).collect();
                    assert_eq!(lists.row(i), want.as_slice(), "s_k {s_k}, row {i}");
                    assert_eq!(lists.span(i), slot..slot + want.len());
                    slot += want.len();
                    key_end = key_end.max(want.last().map_or(0, |&j| j as usize + 1));
                }
                assert_eq!(lists.spans(0..5), 0..slot);
                assert_eq!(lists.key_end(), key_end, "s_k {s_k}");
            }
            lists.fill(s_k, None).unwrap();
            let all: Vec<u32> = (0..s_k as u32).collect();
            assert_eq!(lists.row(3), all.as_slice());
            assert_eq!(lists.span(3), 3 * s_k..4 * s_k);
            assert_eq!(lists.key_end(), s_k);
        }
    }

    #[test]
    fn kept_by_residue_counts_across_word_blocks() {
        // Lengths around the 255-word blocks, where a byte of the lane
        // sum would carry, all kept (every byte at its largest) and in
        // a ragged pattern, over residues that divide 8 and some that
        // do not; the counts arrive dirty.
        for len in [0usize, 7, 2039, 2040, 2041, 2048, 4080, 4097] {
            for pattern in [|_: usize| false, |j: usize| j % 3 == 0 || j % 11 == 4] {
                let d = PruneDecision::new((0..len).map(pattern).collect());
                for n in 1..=9 {
                    let mut want = vec![0u64; n];
                    d.iter_kept().for_each(|j| want[j % n] += 1);
                    let mut got = vec![7u64; n];
                    d.kept_by_residue(&mut got);
                    assert_eq!(got, want, "len {len}, {n} residues");
                }
                assert_eq!(d.kept_count(), d.iter_kept().count(), "len {len}");
            }
        }
    }

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

    /// The threshold as read off a full stable sort, before selection
    /// replaced it: the oracle of the selection's bit-identity.
    fn sorted_threshold(scores: &[f32], rate: f64) -> Option<f32> {
        let mut finite: Vec<f32> = scores.iter().copied().filter(|s| s.is_finite()).collect();
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

    fn assert_selection_matches_sort(scores: &[f32], rate: f64) {
        let m = Matrix::from_vec(1, scores.len(), scores.to_vec()).unwrap();
        assert_eq!(
            calibrate_threshold(&m, rate).ok().map(f32::to_bits),
            sorted_threshold(scores, rate).map(f32::to_bits),
            "scores {scores:?}, rate {rate}"
        );
    }

    #[test]
    fn signed_zero_ties_resolve_by_input_position() {
        // Sorted: [-1, 0.0, -0.0, 1] or [-1, -0.0, 0.0, 1]; rate 0.5
        // reads position 2, the second zero in input order.
        let th = |scores: Vec<f32>, rate| {
            calibrate_threshold(&Matrix::from_vec(1, scores.len(), scores).unwrap(), rate)
                .unwrap()
                .to_bits()
        };
        assert_eq!(th(vec![-1.0, 0.0, -0.0, 1.0], 0.5), (-0.0f32).to_bits());
        assert_eq!(th(vec![-1.0, -0.0, 0.0, 1.0], 0.5), 0.0f32.to_bits());
        // Rate 0 reads the minimum: the first zero in input order.
        assert_eq!(th(vec![0.0, -0.0, 2.0], 0.0), 0.0f32.to_bits());
        assert_eq!(th(vec![-0.0, 0.0, 2.0], 0.0), (-0.0f32).to_bits());
        for scores in [
            vec![0.0, -0.0],
            vec![-0.0, 0.0],
            vec![f32::NAN, -0.0, f32::NEG_INFINITY, 0.0, -0.0],
            vec![3.0],
            vec![-0.0],
        ] {
            for rate in [0.0, 0.3, 0.5, 0.7, 0.999] {
                assert_selection_matches_sort(&scores, rate);
            }
        }
    }

    /// Score palettes dense in the ties a selection could break
    /// differently from a stable sort.
    const PALETTE: [f32; 12] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        2.5,
        -2.5,
        1e-40,
        -1e-40,
        f32::NEG_INFINITY,
        f32::INFINITY,
        f32::NAN,
        0.75,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn prop_selected_threshold_equals_the_sorted_one(
            picks in proptest::collection::vec(0usize..2 * PALETTE.len(), 1..40),
            noise in proptest::collection::vec(-4.0f32..4.0, 40..41),
            rate_pick in 0usize..4,
            free_rate in 0.0f64..0.999,
        ) {
            // About half the entries from the palette (duplicates, ±0,
            // subnormals, non-finite), the rest distinct; rates 0 and
            // 0.999 are drawn in half the cases.
            let scores: Vec<f32> = picks
                .iter()
                .zip(&noise)
                .map(|(&p, &n)| PALETTE.get(p).copied().unwrap_or(n))
                .collect();
            let rate = [0.0, 0.999, free_rate, free_rate][rate_pick];
            assert_selection_matches_sort(&scores, rate);
            let palette_only: Vec<f32> = picks.iter().map(|&p| PALETTE[p % PALETTE.len()]).collect();
            assert_selection_matches_sort(&palette_only, rate);
        }
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
