//! The finite on-chip K/V buffer (§VI): which key/value pairs are
//! resident, and what each query's kept set has to fetch.
//!
//! "Each CORELET keeps look-up tables [that] record which key and
//! value vectors are currently present on chip"; SPRINT has no double
//! buffering, so an incoming pair replaces a resident one. This is
//! the one model of that buffer: the served
//! [`crate::MemoryController`] takes every query's kept set through
//! it, the figure drivers (`sprint_core::counting`) count their
//! fetches through it, and the residency ablation runs it under both
//! replacement policies.
//!
//! The resident keys sit in one list ordered by retention, lowest
//! first, beside a key-indexed presence table; a full buffer gives up
//! the front of the list. The two [`ResidencyPolicy`] values differ
//! only in where a query's accesses put the keys it touches.

/// Where a query's kept set puts the keys it touches in the retention
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResidencyPolicy {
    /// SLD-informed replacement: the unpruned-index buffers hold the
    /// whole kept set of the current query, so the controller pins it
    /// as a block — resident members first (the stable, globally
    /// salient keys), then the ones just fetched, each in kept order —
    /// above every older resident, and only then evicts. Older
    /// residents fill the spare room in their previous order, since a
    /// key kept recently is likely kept again soon.
    SldPinned,
    /// A plain LRU cache: keys are touched one at a time in kept
    /// order, each becoming the most recent, and a miss on a full
    /// buffer evicts the least recently used key at once — even one
    /// the same query still needs, which is why LRU thrashes when the
    /// kept working set cycles past the capacity.
    Lru,
}

/// A K/V buffer of finite capacity tracking resident key indices.
///
/// Between two adjacent queries an ample `SldPinned` buffer is the
/// paper's SLD engine: the misses of query `t` are Eq. 4,
/// `Pᵗ⁻¹ ∧ ¬Pᵗ` (kept now, pruned before), and the reuses Eq. 5,
/// `¬Pᵗ⁻¹ ∧ ¬Pᵗ`. Past that one-query window the table also knows the
/// keys that left the kept set and came back, and the ones a full
/// buffer gave up.
///
/// # Example
///
/// ```
/// use sprint_memory::{Residency, ResidencyPolicy};
///
/// let mut buffer = Residency::new(2, ResidencyPolicy::SldPinned);
/// assert_eq!(buffer.access(&[7, 9]), 2, "cold: both fetched");
/// assert_eq!(buffer.access(&[9, 11]), 1, "9 is reused");
/// assert_eq!((buffer.missed(), buffer.reused()), (&[11][..], &[9][..]));
/// // The kept set is pinned; 7 was the resident it displaced.
/// assert!(buffer.contains(9) && buffer.contains(11) && !buffer.contains(7));
/// assert_eq!(buffer.hits(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Residency {
    capacity: usize,
    policy: ResidencyPolicy,
    /// Resident keys, lowest retention first: the front is evicted.
    order: Vec<usize>,
    /// The look-up table: `present[key]` iff `key` is in `order`.
    present: Vec<bool>,
    /// The last access's non-resident and resident keys, in kept order.
    missed: Vec<usize>,
    reused: Vec<usize>,
    hits: u64,
}

impl Residency {
    /// An empty buffer holding at most `capacity` K/V pairs (at least
    /// one: the pair being computed on).
    pub fn new(capacity: usize, policy: ResidencyPolicy) -> Self {
        Residency {
            capacity: capacity.max(1),
            policy,
            order: Vec::new(),
            present: Vec::new(),
            missed: Vec::new(),
            reused: Vec::new(),
            hits: 0,
        }
    }

    /// Processes one query's kept key indices (distinct, in the order
    /// the CORELETs consume them) and returns how many had to be
    /// fetched. Every non-resident kept key is fetched; what stays
    /// resident afterwards is the policy's choice.
    pub fn access(&mut self, kept: &[usize]) -> u64 {
        self.missed.clear();
        self.reused.clear();
        match self.policy {
            ResidencyPolicy::SldPinned => {
                // Stable partition: lift the resident kept keys out of
                // the list, then append the block lowest first.
                for &j in kept {
                    match self.present.get_mut(j) {
                        Some(resident) if *resident => {
                            *resident = false;
                            self.reused.push(j);
                        }
                        _ => {
                            self.missed.push(j);
                            self.cover(j);
                        }
                    }
                }
                let present = &self.present;
                self.order.retain(|&k| present[k]);
                for &j in self.missed.iter().rev().chain(self.reused.iter().rev()) {
                    self.present[j] = true;
                    self.order.push(j);
                }
                let excess = self.order.len().saturating_sub(self.capacity);
                for k in self.order.drain(..excess) {
                    self.present[k] = false;
                }
            }
            ResidencyPolicy::Lru => {
                for &j in kept {
                    if self.contains(j) {
                        self.reused.push(j);
                        let at = self.order.iter().position(|&k| k == j);
                        self.order.remove(at.expect("a present key is in the list"));
                    } else {
                        self.missed.push(j);
                        if self.order.len() == self.capacity {
                            let victim = self.order.remove(0);
                            self.present[victim] = false;
                        }
                        self.cover(j);
                        self.present[j] = true;
                    }
                    self.order.push(j);
                }
            }
        }
        self.hits += self.reused.len() as u64;
        self.missed.len() as u64
    }

    /// The keys the last access had to fetch, in kept order.
    pub fn missed(&self) -> &[usize] {
        &self.missed
    }

    /// The keys the last access found resident, in kept order.
    pub fn reused(&self) -> &[usize] {
        &self.reused
    }

    /// Kept keys found resident over all accesses so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Whether `key` is resident (the look-up-table check).
    pub fn contains(&self, key: usize) -> bool {
        self.present.get(key).is_some_and(|&p| p)
    }

    /// Number of resident pairs; never above the capacity.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Empties the buffer and zeroes the hit count, keeping the
    /// allocations; costs the number of resident pairs, not the size
    /// of the table.
    pub fn clear(&mut self) {
        for k in self.order.drain(..) {
            self.present[k] = false;
        }
        self.missed.clear();
        self.reused.clear();
        self.hits = 0;
    }

    /// Grows the look-up table to index `key`.
    fn cover(&mut self, key: usize) {
        if key >= self.present.len() {
            self.present.resize(key + 1, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ResidencyPolicy::{Lru, SldPinned};

    fn resident(buffer: &Residency, universe: usize) -> Vec<usize> {
        (0..universe).filter(|&j| buffer.contains(j)).collect()
    }

    #[test]
    fn zero_capacity_is_clamped_to_one_pair() {
        for policy in [SldPinned, Lru] {
            let mut buffer = Residency::new(0, policy);
            assert!(buffer.is_empty());
            assert_eq!(buffer.access(&[4]), 1);
            assert_eq!(buffer.access(&[4]), 0, "{policy:?}: one pair stays");
            assert_eq!(buffer.len(), 1);
        }
    }

    #[test]
    fn eq4_eq5_hold_between_adjacent_queries() {
        // Fig. 2 narrative: query "The" keeps K{2,4,5,6,11,13}; the
        // adjacent query "more" additionally needs "appear" and "in"
        // while reusing the rest. `true` = pruned, the paper's encoding.
        let pruning =
            |kept: &[usize]| -> Vec<bool> { (0..16).map(|j| !kept.contains(&j)).collect() };
        let kept = |p: &[bool]| -> Vec<usize> { (0..16).filter(|&j| !p[j]).collect() };
        let prev = pruning(&[2, 4, 5, 6, 11, 13]);
        let cur = pruning(&[4, 5, 6, 7, 8, 11, 13]);
        let mut buffer = Residency::new(usize::MAX, SldPinned);
        buffer.access(&kept(&prev));
        buffer.access(&kept(&cur));
        let eq4: Vec<usize> = (0..16).filter(|&j| prev[j] && !cur[j]).collect();
        let eq5: Vec<usize> = (0..16).filter(|&j| !prev[j] && !cur[j]).collect();
        assert_eq!(buffer.missed(), eq4, "Eq. 4: P(t-1) AND NOT P(t)");
        assert_eq!(buffer.missed(), [7, 8]);
        assert_eq!(buffer.reused(), eq5, "Eq. 5: NOT P(t-1) AND NOT P(t)");
        assert_eq!(buffer.reused(), [4, 5, 6, 11, 13]);
        // Key 2 left the kept set for one query and comes back: the
        // one-query window of Eq. 4 would refetch it, the table reuses it.
        assert_eq!(buffer.access(&[2, 7]), 0);
        assert_eq!(buffer.reused(), [2, 7]);
    }

    #[test]
    fn clear_leaves_a_fresh_buffer() {
        for policy in [SldPinned, Lru] {
            let mut buffer = Residency::new(3, policy);
            buffer.access(&[4, 40, 2]);
            buffer.access(&[4, 9]);
            buffer.clear();
            assert!(buffer.is_empty() && buffer.hits() == 0, "{policy:?}");
            assert_eq!(resident(&buffer, 64), Vec::<usize>::new(), "{policy:?}");
            assert_eq!(buffer.access(&[40, 4]), 2, "{policy:?}: cold again");
            assert_eq!(buffer.missed(), [40, 4]);
        }
    }

    #[test]
    fn inserts_up_to_capacity_without_eviction() {
        for policy in [SldPinned, Lru] {
            let mut buffer = Residency::new(3, policy);
            assert_eq!(buffer.access(&[1]), 1);
            assert_eq!(buffer.access(&[2]), 1);
            assert_eq!(buffer.access(&[3]), 1);
            assert_eq!(resident(&buffer, 8), vec![1, 2, 3], "{policy:?}");
        }
    }

    #[test]
    fn lru_victim_is_least_recently_used() {
        let mut buffer = Residency::new(2, Lru);
        buffer.access(&[1, 2]);
        buffer.access(&[1]); // the hit refreshes 1: 2 becomes LRU
        assert_eq!(buffer.access(&[3]), 1);
        assert_eq!(resident(&buffer, 8), vec![1, 3]);
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let mut buffer = Residency::new(2, Lru);
        buffer.access(&[1, 2]);
        assert_eq!(buffer.access(&[1]), 0);
        assert_eq!(buffer.len(), 2);
        buffer.access(&[3]);
        assert!(!buffer.contains(2), "2 was least recently used");
    }

    #[test]
    fn touch_counts_hits_and_misses() {
        for policy in [SldPinned, Lru] {
            let mut buffer = Residency::new(2, policy);
            assert_eq!(buffer.access(&[5]), 1);
            assert_eq!(buffer.access(&[5, 6]), 1, "{policy:?}");
            assert_eq!(buffer.hits(), 1, "{policy:?}");
        }
    }

    #[test]
    fn lru_evicts_mid_query_what_sld_pins() {
        // Capacity 2, a kept set of 3 cycling: LRU evicts each key
        // just before the query returns to it; SLD pinning keeps the
        // first two of the block.
        let kept = [0usize, 1, 2];
        let mut lru = Residency::new(2, Lru);
        let mut sld = Residency::new(2, SldPinned);
        assert_eq!((lru.access(&kept), sld.access(&kept)), (3, 3));
        assert_eq!(lru.access(&kept), 3, "LRU thrashes");
        assert_eq!(sld.access(&kept), 1, "0 and 1 stayed pinned");
    }

    #[test]
    fn sld_retains_resident_kept_keys_first() {
        let mut buffer = Residency::new(3, SldPinned);
        buffer.access(&[10, 11, 12]);
        // 12 is resident, 1 and 2 are new: the block is 12, 1, 2.
        assert_eq!(buffer.access(&[1, 2, 12]), 2);
        assert_eq!(resident(&buffer, 16), vec![1, 2, 12]);
        // Five kept, two of them resident, room for three: both
        // resident ones and the first fetched one stay.
        assert_eq!(buffer.access(&[5, 6, 7, 2, 12]), 3);
        assert_eq!(resident(&buffer, 16), vec![2, 5, 12]);
    }

    #[test]
    fn sld_fills_spare_room_with_older_residents_in_previous_order() {
        let mut buffer = Residency::new(4, SldPinned);
        buffer.access(&[1, 2, 3, 4]); // retention order 1, 2, 3, 4
        assert_eq!(buffer.access(&[9, 3]), 1); // block 3, 9; then 1, 2
        assert_eq!(resident(&buffer, 16), vec![1, 2, 3, 9]);
        assert_eq!(buffer.access(&[8]), 1); // block 8; then 3, 9, 1
        assert_eq!(resident(&buffer, 16), vec![1, 3, 8, 9]);
    }

    #[test]
    fn sld_kept_set_larger_than_the_capacity_retains_its_head() {
        let mut buffer = Residency::new(3, SldPinned);
        buffer.access(&[20, 21]);
        // Everything non-resident is fetched, even what cannot stay.
        assert_eq!(buffer.access(&[0, 1, 2, 3, 4]), 5);
        assert_eq!(resident(&buffer, 32), vec![0, 1, 2]);
        assert_eq!(buffer.hits(), 0);
    }

    proptest! {
        #[test]
        fn prop_len_never_exceeds_capacity(
            queries in proptest::collection::vec(
                proptest::collection::vec(proptest::bool::ANY, 32..33), 0..24),
            cap in 1usize..16,
            lru in proptest::bool::ANY,
        ) {
            let mut buffer = Residency::new(cap, if lru { Lru } else { SldPinned });
            for flags in &queries {
                let kept: Vec<usize> = (0..32).filter(|&j| flags[j]).collect();
                let before = buffer.hits();
                let misses = buffer.access(&kept);
                prop_assert!(buffer.len() <= cap);
                prop_assert_eq!(misses + buffer.hits() - before, kept.len() as u64);
                // Fetches and reuses partition the kept set.
                let mut split = [buffer.missed(), buffer.reused()].concat();
                split.sort_unstable();
                prop_assert_eq!(split, kept);
            }
        }

        #[test]
        fn prop_recent_window_is_resident(
            keys in proptest::collection::vec(0usize..64, 1..100),
            cap in 1usize..8,
        ) {
            let mut buffer = Residency::new(cap, Lru);
            for &k in &keys {
                buffer.access(&[k]);
            }
            // The last `cap` *distinct* keys must be resident.
            let mut seen = Vec::new();
            for k in keys.iter().rev() {
                if !seen.contains(k) {
                    seen.push(*k);
                }
                if seen.len() == cap {
                    break;
                }
            }
            for k in seen {
                prop_assert!(buffer.contains(k), "recently used {k} evicted");
            }
        }

        #[test]
        fn prop_ample_capacity_fetches_each_key_once(
            queries in proptest::collection::vec(
                proptest::collection::vec(proptest::bool::ANY, 24..25), 1..16),
            lru in proptest::bool::ANY,
        ) {
            let mut buffer = Residency::new(24, if lru { Lru } else { SldPinned });
            let mut fetched = 0u64;
            let mut touched = [false; 24];
            for flags in &queries {
                let kept: Vec<usize> = (0..24).filter(|&j| flags[j]).collect();
                fetched += buffer.access(&kept);
                kept.iter().for_each(|&j| touched[j] = true);
            }
            let distinct = touched.iter().filter(|&&t| t).count();
            prop_assert_eq!(fetched, distinct as u64);
            prop_assert_eq!(buffer.len(), distinct);
        }
    }
}
