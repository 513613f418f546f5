//! The spatial-locality detection engine (§V-C, Eqs. 4–5).
//!
//! Sits in the memory-controller frontend. Given the binary pruning
//! vectors of the previous (`Pᵗ⁻¹`) and current (`Pᵗ`) queries
//! (bit = 1 means pruned), it splits the current unpruned set into:
//!
//! * **memory requests** (Eq. 4): `Pᵗ⁻¹ ∧ ¬Pᵗ` — needed now, not on
//!   chip → the MRG turns these into read requests;
//! * **spatial-locality hits** (Eq. 5): `¬Pᵗ⁻¹ ∧ ¬Pᵗ` — needed now and
//!   already resident → the KIG bootstraps score computation on them
//!   immediately.

use crate::MemoryError;

/// The two output vectors of the SLD engine for one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SldSplit {
    /// Eq. 4: keys to fetch from main memory (`true` = fetch).
    pub memory_requests: Vec<bool>,
    /// Eq. 5: keys already in the on-chip K buffer (`true` = reuse).
    pub locality_hits: Vec<bool>,
}

impl SldSplit {
    /// Indices of keys to fetch.
    pub fn request_indices(&self) -> Vec<usize> {
        self.memory_requests
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect()
    }

    /// Indices of keys to reuse from on-chip buffers.
    pub fn hit_indices(&self) -> Vec<usize> {
        self.locality_hits
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect()
    }

    /// Number of keys to fetch.
    pub fn request_count(&self) -> usize {
        self.memory_requests.iter().filter(|&&b| b).count()
    }

    /// Number of keys reused.
    pub fn hit_count(&self) -> usize {
        self.locality_hits.iter().filter(|&&b| b).count()
    }
}

/// The SLD engine: remembers the last pruning vector and splits each
/// new one.
///
/// # Example
///
/// ```
/// use sprint_memory::SldEngine;
///
/// let mut sld = SldEngine::new();
/// // Query 0 keeps keys {0, 2}: both are cold fetches.
/// let s0 = sld.process(&[false, true, false, true]).unwrap();
/// assert_eq!(s0.request_indices(), vec![0, 2]);
/// // Query 1 keeps {0, 3}: key 0 is a locality hit, key 3 a fetch.
/// let s1 = sld.process(&[false, true, true, false]).unwrap();
/// assert_eq!(s1.hit_indices(), vec![0]);
/// assert_eq!(s1.request_indices(), vec![3]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SldEngine {
    last: Option<Vec<bool>>,
}

impl SldEngine {
    /// Creates an engine with no history (the first query fetches its
    /// whole unpruned set).
    pub fn new() -> Self {
        SldEngine::default()
    }

    /// Clears the history (e.g. at a new attention head, whose K
    /// buffer contents are unrelated).
    pub fn reset(&mut self) {
        self.last = None;
    }

    /// Splits the pruning vector of the current query.
    ///
    /// `pruned[j] == true` means key `j` was pruned in memory (the
    /// paper's '1' encoding). Updates the stored history.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::LengthMismatch`] if the vector length
    /// changes between queries.
    pub fn process(&mut self, pruned: &[bool]) -> Result<SldSplit, MemoryError> {
        if let Some(last) = &self.last {
            if last.len() != pruned.len() {
                return Err(MemoryError::LengthMismatch {
                    what: "pruning vector",
                    expected: last.len(),
                    found: pruned.len(),
                });
            }
        }
        let split = match &self.last {
            None => SldSplit {
                memory_requests: pruned.iter().map(|&p| !p).collect(),
                locality_hits: vec![false; pruned.len()],
            },
            Some(last) => SldSplit {
                // Eq. 4: P(t-1) AND NOT P(t)
                memory_requests: last
                    .iter()
                    .zip(pruned)
                    .map(|(&prev, &cur)| prev && !cur)
                    .collect(),
                // Eq. 5: NOT P(t-1) AND NOT P(t)
                locality_hits: last
                    .iter()
                    .zip(pruned)
                    .map(|(&prev, &cur)| !prev && !cur)
                    .collect(),
            },
        };
        self.last = Some(pruned.to_vec());
        Ok(split)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn first_query_is_all_cold_fetches() {
        let mut sld = SldEngine::new();
        let s = sld.process(&[false, false, true]).unwrap();
        assert_eq!(s.request_count(), 2);
        assert_eq!(s.hit_count(), 0);
    }

    #[test]
    fn reset_forgets_history() {
        let mut sld = SldEngine::new();
        sld.process(&[false, false]).unwrap();
        sld.reset();
        let s = sld.process(&[false, false]).unwrap();
        assert_eq!(s.request_count(), 2, "post-reset queries are cold");
    }

    #[test]
    fn length_change_is_rejected() {
        let mut sld = SldEngine::new();
        sld.process(&[false, true]).unwrap();
        assert!(sld.process(&[false, true, true]).is_err());
    }

    #[test]
    fn paper_example_splits_correctly() {
        // Fig. 2 narrative: query "The" keeps K{2,4,5,6,11,13}; the
        // adjacent query "more" additionally needs "appear" and "in"
        // while reusing the rest.
        let s = 16;
        let mut prev = vec![true; s];
        for j in [2, 4, 5, 6, 11, 13] {
            prev[j] = false;
        }
        let mut cur = prev.clone();
        cur[7] = false; // "appear"
        cur[8] = false; // "in"
        cur[2] = true; // one key no longer needed
        let mut sld = SldEngine::new();
        sld.process(&prev).unwrap();
        let split = sld.process(&cur).unwrap();
        assert_eq!(split.request_indices(), vec![7, 8]);
        assert_eq!(split.hit_indices(), vec![4, 5, 6, 11, 13]);
    }

    proptest! {
        /// DESIGN.md invariant 4: requests and hits partition the
        /// current unpruned set.
        #[test]
        fn prop_split_partitions_unpruned(
            prev in proptest::collection::vec(proptest::bool::ANY, 1..64),
            cur_bits in proptest::collection::vec(proptest::bool::ANY, 1..64),
        ) {
            let n = prev.len().min(cur_bits.len());
            let prev = &prev[..n];
            let cur = &cur_bits[..n];
            let mut sld = SldEngine::new();
            sld.process(prev).unwrap();
            let split = sld.process(cur).unwrap();
            for (j, ((&req, &hit), &c)) in split
                .memory_requests
                .iter()
                .zip(&split.locality_hits)
                .zip(cur)
                .enumerate()
            {
                let kept = !c;
                prop_assert!(!(req && hit), "disjoint at {j}");
                prop_assert_eq!(req || hit, kept, "union is the kept set at {}", j);
            }
        }

        /// Identical adjacent pruning vectors need zero fetches.
        #[test]
        fn prop_identical_vectors_are_all_hits(
            bits in proptest::collection::vec(proptest::bool::ANY, 1..64),
        ) {
            let mut sld = SldEngine::new();
            sld.process(&bits).unwrap();
            let split = sld.process(&bits).unwrap();
            prop_assert_eq!(split.request_count(), 0);
            let kept = bits.iter().filter(|&&b| !b).count();
            prop_assert_eq!(split.hit_count(), kept);
        }
    }
}
