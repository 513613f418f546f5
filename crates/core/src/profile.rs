//! Head profiles: the per-query kept-key sets the performance
//! simulator consumes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sprint_workloads::HeadTrace;

/// The pruning-mask view of one attention head: which keys each query
/// keeps, plus the padding split.
///
/// Profiles come from two sources: [`HeadProfile::from_trace`] (the
/// full synthetic Q/K/V pipeline) and [`HeadProfile::synthetic`] (a
/// fast clustered-mask generator for parameter sweeps where matrices
/// are not needed).
///
/// # Example
///
/// ```
/// use sprint_core::HeadProfile;
///
/// let p = HeadProfile::synthetic(256, 192, 0.25, 0.85, 3);
/// assert_eq!(p.seq_len, 256);
/// assert_eq!(p.live, 192);
/// assert!((p.mean_kept() - 48.0).abs() < 8.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HeadProfile {
    /// Total sequence length including padding.
    pub seq_len: usize,
    /// Live (non-padded) tokens.
    pub live: usize,
    /// Embedding size.
    pub head_dim: usize,
    /// Kept key indices per query; padded queries hold empty sets.
    pub kept_per_query: Vec<Vec<usize>>,
}

/// Parameters of one [`HeadProfile::synthetic`] call, for batched
/// parallel generation via [`HeadProfile::synthetic_many`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticHeadSpec {
    /// Total sequence length including padding.
    pub seq_len: usize,
    /// Live (non-padded) tokens.
    pub live: usize,
    /// Fraction of live keys kept per live query.
    pub keep_rate: f64,
    /// Adjacent-query kept-set overlap target.
    pub overlap: f64,
    /// RNG seed.
    pub seed: u64,
}

impl HeadProfile {
    /// Extracts the profile of a generated head trace.
    pub fn from_trace(trace: &HeadTrace) -> Self {
        HeadProfile {
            seq_len: trace.seq_len(),
            live: trace.live_tokens(),
            head_dim: trace.config().d(),
            kept_per_query: trace
                .reference_decisions()
                .iter()
                .map(|d| d.kept_indices())
                .collect(),
        }
    }

    /// Generates a clustered-mask profile directly: `keep_rate` of the
    /// live keys kept per live query, with `overlap` of each query's
    /// kept set carried over from the previous query, arranged in
    /// contiguous clusters (the spatial structure of Fig. 2).
    ///
    /// # Panics
    ///
    /// Panics unless `live <= seq_len`, `0 < keep_rate <= 1` and
    /// `0 <= overlap <= 1`.
    pub fn synthetic(seq_len: usize, live: usize, keep_rate: f64, overlap: f64, seed: u64) -> Self {
        assert!(live >= 1 && live <= seq_len, "live tokens within sequence");
        assert!(keep_rate > 0.0 && keep_rate <= 1.0, "keep rate in (0, 1]");
        assert!((0.0..=1.0).contains(&overlap), "overlap in [0, 1]");
        let mut rng = StdRng::seed_from_u64(seed);
        let m = ((live as f64 * keep_rate).round() as usize).clamp(1, live);

        // Initial kept set: a handful of contiguous clusters.
        let clusters = (m / 16).max(1);
        let width = m.div_ceil(clusters);
        let mut kept = vec![false; live];
        let mut count = 0usize;
        while count < m {
            let start = rng.gen_range(0..live);
            for off in 0..width {
                let j = (start + off) % live;
                if !kept[j] {
                    kept[j] = true;
                    count += 1;
                    if count == m {
                        break;
                    }
                }
            }
        }

        let retain = ((overlap * m as f64).round() as usize).min(m);
        // Maintain the kept set as a swap-remove list for O(1) drops
        // and anchor picks (full-size sweeps evolve 4096-query masks).
        let mut kept_list: Vec<usize> = kept
            .iter()
            .enumerate()
            .filter_map(|(j, &k)| k.then_some(j))
            .collect();
        let mut kept_per_query = Vec::with_capacity(seq_len);
        for _ in 0..live {
            let mut snapshot = kept_list.clone();
            snapshot.sort_unstable();
            kept_per_query.push(snapshot);
            // Evolve: drop m - retain random kept keys, then grow the
            // clusters by the same amount (keeps spatial contiguity).
            let drop = m - retain;
            for _ in 0..drop {
                if kept_list.is_empty() {
                    break;
                }
                let idx = rng.gen_range(0..kept_list.len());
                let victim = kept_list.swap_remove(idx);
                kept[victim] = false;
            }
            let mut added = 0usize;
            let mut guard = 0usize;
            while added < drop && guard < live * 4 {
                guard += 1;
                // Extend an existing cluster edge with high probability,
                // otherwise seed a new position.
                let j = if rng.gen_bool(0.85) && !kept_list.is_empty() {
                    let anchor = kept_list[rng.gen_range(0..kept_list.len())];
                    if rng.gen_bool(0.5) {
                        (anchor + 1) % live
                    } else {
                        (anchor + live - 1) % live
                    }
                } else {
                    rng.gen_range(0..live)
                };
                if !kept[j] {
                    kept[j] = true;
                    kept_list.push(j);
                    added += 1;
                }
            }
        }
        for _ in live..seq_len {
            kept_per_query.push(Vec::new());
        }
        HeadProfile {
            seq_len,
            live,
            head_dim: 64,
            kept_per_query,
        }
    }

    /// Generates many synthetic profiles in parallel, one per spec, in
    /// spec order. Each head's mask evolution is inherently sequential
    /// in its queries, but heads are independent — the per-head loop
    /// fans out across cores with deterministic output (each profile is
    /// a pure function of its spec).
    ///
    /// # Panics
    ///
    /// Panics if any spec violates the [`HeadProfile::synthetic`]
    /// preconditions.
    pub fn synthetic_many(specs: &[SyntheticHeadSpec]) -> Vec<HeadProfile> {
        sprint_parallel::par_map(specs, |s| {
            HeadProfile::synthetic(s.seq_len, s.live, s.keep_rate, s.overlap, s.seed)
        })
    }

    /// Mean kept keys per live query.
    pub fn mean_kept(&self) -> f64 {
        let live_queries: Vec<&Vec<usize>> = self
            .kept_per_query
            .iter()
            .filter(|k| !k.is_empty())
            .collect();
        if live_queries.is_empty() {
            return 0.0;
        }
        live_queries.iter().map(|k| k.len()).sum::<usize>() as f64 / live_queries.len() as f64
    }

    /// Mean keep rate among live keys.
    pub fn keep_rate(&self) -> f64 {
        if self.live == 0 {
            0.0
        } else {
            self.mean_kept() / self.live as f64
        }
    }

    /// Mean adjacent-query kept-set overlap (fraction of the current
    /// query's kept keys shared with the previous live query).
    pub fn mean_overlap(&self) -> f64 {
        let live: Vec<&Vec<usize>> = self
            .kept_per_query
            .iter()
            .filter(|k| !k.is_empty())
            .collect();
        if live.len() < 2 {
            return 0.0;
        }
        let mut sum = 0.0;
        for w in live.windows(2) {
            let prev: std::collections::HashSet<usize> = w[0].iter().copied().collect();
            let shared = w[1].iter().filter(|j| prev.contains(j)).count();
            sum += shared as f64 / w[1].len() as f64;
        }
        sum / (live.len() - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprint_workloads::{TraceGenerator, TraceSpec};

    #[test]
    fn synthetic_hits_keep_rate_and_overlap() {
        let p = HeadProfile::synthetic(256, 200, 0.25, 0.85, 11);
        assert!(
            (p.keep_rate() - 0.25).abs() < 0.03,
            "keep {}",
            p.keep_rate()
        );
        assert!(
            (p.mean_overlap() - 0.85).abs() < 0.06,
            "overlap {}",
            p.mean_overlap()
        );
        assert_eq!(p.kept_per_query.len(), 256);
        assert!(p.kept_per_query[200..].iter().all(Vec::is_empty));
    }

    #[test]
    fn synthetic_masks_are_clustered() {
        // Count contiguous runs: clustered masks have far fewer runs
        // than random masks with the same density.
        let p = HeadProfile::synthetic(256, 256, 0.25, 0.85, 3);
        let kept = &p.kept_per_query[10];
        let mut runs = 1;
        for w in kept.windows(2) {
            if w[1] != w[0] + 1 {
                runs += 1;
            }
        }
        // 64 kept keys: random placement would give ~48 runs
        // (64 * (1 - 64/256)); clusters should stay well below that.
        assert!(runs < 36, "kept set too fragmented: {runs} runs");
    }

    #[test]
    fn synthetic_extremes() {
        let all = HeadProfile::synthetic(64, 64, 1.0, 1.0, 5);
        assert_eq!(all.kept_per_query[0].len(), 64);
        assert!((all.mean_overlap() - 1.0).abs() < 1e-9);
        let one = HeadProfile::synthetic(64, 32, 0.03, 0.0, 5);
        assert_eq!(one.kept_per_query[0].len(), 1);
    }

    #[test]
    fn from_trace_matches_trace_statistics() {
        let spec = TraceSpec::default().with_seq_len(96);
        let trace = TraceGenerator::new(9).generate(&spec).unwrap();
        let p = HeadProfile::from_trace(&trace);
        assert_eq!(p.seq_len, 96);
        assert_eq!(p.live, trace.live_tokens());
        assert_eq!(p.head_dim, 64);
        let expected_keep = 1.0 - spec.prune_rate;
        assert!(
            (p.keep_rate() - expected_keep).abs() < 0.05,
            "profile keep {} vs spec {}",
            p.keep_rate(),
            expected_keep
        );
        // The two estimators differ slightly on queries with empty
        // kept sets (the profile filters them, the trace counts them
        // as zero-overlap terms).
        assert!(
            (p.mean_overlap() - trace.stats().mean_adjacent_overlap).abs() < 0.05,
            "profile overlap {} vs trace {}",
            p.mean_overlap(),
            trace.stats().mean_adjacent_overlap
        );
    }

    #[test]
    #[should_panic(expected = "keep rate")]
    fn synthetic_rejects_zero_keep_rate() {
        let _ = HeadProfile::synthetic(64, 64, 0.0, 0.5, 1);
    }

    #[test]
    fn synthetic_many_matches_sequential_generation() {
        let specs: Vec<SyntheticHeadSpec> = (0..6)
            .map(|i| SyntheticHeadSpec {
                seq_len: 96,
                live: 80,
                keep_rate: 0.25,
                overlap: 0.8,
                seed: 40 + i,
            })
            .collect();
        let batched = HeadProfile::synthetic_many(&specs);
        for (spec, profile) in specs.iter().zip(&batched) {
            let sequential = HeadProfile::synthetic(
                spec.seq_len,
                spec.live,
                spec.keep_rate,
                spec.overlap,
                spec.seed,
            );
            assert_eq!(profile, &sequential, "seed {}", spec.seed);
        }
    }
}
