//! The memory controller against a frozen copy of its earlier self.
//!
//! `oracle` below is the controller as it was before queries stopped
//! allocating: a `Residency` that kept its retention order as one list
//! (`retain` over every resident, then re-push the block), per-channel
//! row buffers that group each batch into `Vec`s with a linear search,
//! and per-channel MRG walks over an `s`-long request vector. The
//! current controller must agree with it on every statistic and both
//! key lists, and the current `Residency` with the list on every split,
//! at every capacity, under both policies.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sprint_engine::SprintConfig;
use sprint_memory::{MemoryController, MemoryGeometry, Residency, ResidencyPolicy};

mod oracle {
    use sprint_memory::{
        KeyAddress, MemoryError, MemoryGeometry, MemoryRequestGenerator, MemoryStats,
        ResidencyPolicy,
    };

    /// The retention order as one list, lowest first.
    pub struct Residency {
        capacity: usize,
        policy: ResidencyPolicy,
        order: Vec<usize>,
        present: Vec<bool>,
        pub missed: Vec<usize>,
        pub reused: Vec<usize>,
        pub hits: u64,
    }

    impl Residency {
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

        pub fn access(&mut self, kept: &[usize]) -> u64 {
            self.missed.clear();
            self.reused.clear();
            match self.policy {
                ResidencyPolicy::SldPinned => {
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

        pub fn contains(&self, key: usize) -> bool {
            self.present.get(key).is_some_and(|&p| p)
        }

        pub fn len(&self) -> usize {
            self.order.len()
        }

        pub fn clear(&mut self) {
            for k in self.order.drain(..) {
                self.present[k] = false;
            }
            self.missed.clear();
            self.reused.clear();
            self.hits = 0;
        }

        fn cover(&mut self, key: usize) {
            if key >= self.present.len() {
                self.present.resize(key + 1, false);
            }
        }
    }

    /// One channel's row buffers: a fetch batch grouped into `Vec`s
    /// by (bank, row) with a linear search, each group counted against
    /// its bank's open row.
    struct Channel {
        open: Vec<Option<usize>>,
    }

    impl Channel {
        /// Row hits and misses of one batch.
        fn count_fetches(&mut self, fetches: &[KeyAddress]) -> (u64, u64) {
            let mut row_hits = 0u64;
            let mut row_misses = 0u64;
            let mut groups: Vec<((usize, usize), Vec<&KeyAddress>)> = Vec::new();
            for f in fetches {
                let key = (f.location.bank, f.location.row);
                match groups.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, v)) => v.push(f),
                    None => groups.push((key, vec![f])),
                }
            }
            for ((bank, row), group) in groups {
                if self.open[bank] != Some(row) {
                    self.open[bank] = Some(row);
                    row_misses += 1;
                    row_hits += group.len() as u64 - 1;
                } else {
                    row_hits += group.len() as u64;
                }
            }
            (row_hits, row_misses)
        }
    }

    pub struct Outcome {
        pub fetched_keys: Vec<usize>,
        pub reused_keys: Vec<usize>,
    }

    pub struct MemoryController {
        geometry: MemoryGeometry,
        channels: Vec<Channel>,
        mrgs: Vec<MemoryRequestGenerator>,
        residency: Residency,
        keys: Option<usize>,
        pub stats: MemoryStats,
    }

    impl MemoryController {
        pub fn new(geometry: MemoryGeometry) -> Self {
            let mut mc = MemoryController {
                geometry,
                channels: Vec::new(),
                mrgs: (0..geometry.channels)
                    .map(|ch| MemoryRequestGenerator::new(ch, geometry).unwrap())
                    .collect(),
                residency: Residency::new(usize::MAX, ResidencyPolicy::SldPinned),
                keys: None,
                stats: MemoryStats::default(),
            };
            mc.reset_cold();
            mc
        }

        pub fn reset_cold(&mut self) {
            let g = self.geometry;
            self.channels = (0..g.channels)
                .map(|_| Channel {
                    open: vec![None; g.banks_per_channel],
                })
                .collect();
            self.residency.clear();
            self.keys = None;
            self.stats = MemoryStats::default();
        }

        pub fn process_query(&mut self, pruned: &[bool]) -> Result<Outcome, MemoryError> {
            let expected = *self.keys.get_or_insert(pruned.len());
            if expected != pruned.len() {
                return Err(MemoryError::LengthMismatch {
                    what: "pruning vector",
                    expected,
                    found: pruned.len(),
                });
            }
            let copyq_beats = 2;
            for _ in &self.channels {
                self.stats.copyq_commands += copyq_beats;
                self.stats.readp_commands += 1;
            }
            self.stats.queries += 1;
            let kept: Vec<usize> = (0..pruned.len()).filter(|&j| !pruned[j]).collect();
            let missed = self.residency.access(&kept);
            let mut requests = Vec::new();
            if missed > 0 {
                requests.resize(pruned.len(), false);
                for &j in &self.residency.missed {
                    requests[j] = true;
                }
            }
            for (channel, mrg) in self.channels.iter_mut().zip(&self.mrgs) {
                let fetches = mrg.generate(&requests);
                if fetches.is_empty() {
                    continue;
                }
                let (row_hits, row_misses) = channel.count_fetches(&fetches);
                self.stats.fetched_vectors += fetches.len() as u64;
                self.stats.bytes_fetched += (fetches.len() * self.geometry.bytes_per_fetch) as u64;
                self.stats.row_hits += row_hits;
                self.stats.row_misses += row_misses;
            }
            self.stats.reused_vectors += self.residency.reused.len() as u64;
            Ok(Outcome {
                fetched_keys: self.residency.missed.clone(),
                reused_keys: self.residency.reused.clone(),
            })
        }
    }
}

/// A head's pruning vectors (`true` = pruned): a random keep rate, then
/// each query flips a random share of the one before, so adjacent kept
/// sets overlap the way §V's locality expects, from all (a Dense head
/// keeps every key every time) to nearly none.
fn head_queries(rng: &mut StdRng, keys: usize, queries: usize) -> Vec<Vec<bool>> {
    let mut either = |fixed: f64| {
        if rng.gen_bool(0.25) {
            fixed
        } else {
            rng.gen_range(0.0..1.0f64)
        }
    };
    let (keep, churn) = (either(1.0), either(0.0));
    let mut row: Vec<bool> = (0..keys).map(|_| !rng.gen_bool(keep)).collect();
    (0..queries)
        .map(|_| {
            for p in row.iter_mut() {
                if rng.gen_bool(churn * 0.5) {
                    *p = !rng.gen_bool(keep);
                }
            }
            row.clone()
        })
        .collect()
}

/// Runs `queries` through both controllers, asserting every output equal.
fn run_both(
    new: &mut MemoryController,
    old: &mut oracle::MemoryController,
    queries: &[Vec<bool>],
    cold_each: bool,
) {
    for (i, pruned) in queries.iter().enumerate() {
        if cold_each {
            new.reset_cold();
            old.reset_cold();
        }
        let got = new.process_query(pruned).unwrap();
        let want = old.process_query(pruned).unwrap();
        let at = format!("query {i} of {} keys", pruned.len());
        assert_eq!(new.fetched_keys(), want.fetched_keys, "{at}");
        assert_eq!(new.reused_keys(), want.reused_keys, "{at}");
        assert_eq!(
            (got.fetched, got.reused),
            (want.fetched_keys.len(), want.reused_keys.len()),
            "{at}"
        );
        assert_eq!(new.stats(), old.stats, "{at}");
    }
}

fn geometries() -> [MemoryGeometry; 3] {
    [
        SprintConfig::medium().memory_geometry(),
        MemoryGeometry::default(),
        // Few channels, small rows and banks: deep per-channel batches
        // over many (bank, row) groups, with precharge churn.
        MemoryGeometry {
            channels: 2,
            banks_per_channel: 2,
            vectors_per_row: 4,
            rows_per_bank: 4096,
            bytes_per_fetch: 96,
            bursts_per_fetch: 3,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Heads of up to 1024 keys through one controller each (a cold
    /// reset between heads, as the engine does), then decode-style
    /// steps that reset before every query.
    #[test]
    fn the_controller_matches_its_frozen_oracle(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let timing = SprintConfig::medium().timing;
        for geometry in geometries() {
            let mut new = MemoryController::new(geometry, timing).unwrap();
            let mut old = oracle::MemoryController::new(geometry);
            for _ in 0..3 {
                let keys = rng.gen_range(1..1025usize);
                let queries = rng.gen_range(1..13usize);
                let head = head_queries(&mut rng, keys, queries);
                new.reset_cold();
                old.reset_cold();
                run_both(&mut new, &mut old, &head, false);
            }
            // Decode: one query per step over a history that grows by a
            // key a step, each priced on a cold controller.
            let start = rng.gen_range(1..1000usize);
            let steps = head_queries(&mut rng, start + 24, 24);
            let steps: Vec<Vec<bool>> =
                steps.into_iter().enumerate().map(|(t, row)| row[..start + t].to_vec()).collect();
            run_both(&mut new, &mut old, &steps, true);
        }
    }

    /// The stamp-and-FIFO retention order against the list it replaced:
    /// the same split, hit count and resident set after every access, at
    /// every capacity the system uses, under both policies.
    #[test]
    fn the_residency_matches_its_frozen_order_list(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Half the heads span a few dozen keys, so kept sets that are
        // wholly resident, reordered, then evicted from a small buffer
        // are common.
        let span = if rng.gen_bool(0.5) { 33 } else { 1025 };
        let keys = rng.gen_range(1..span);
        let queries = head_queries(&mut rng, keys, 16);
        let served = SprintConfig::medium().kv_capacity_pairs();
        for capacity in [1, 7, served, usize::MAX] {
            for policy in [ResidencyPolicy::SldPinned, ResidencyPolicy::Lru] {
                let mut new = Residency::new(capacity, policy);
                let mut old = oracle::Residency::new(capacity, policy);
                let mut last = Vec::new();
                for (i, pruned) in queries.iter().enumerate() {
                    if i == 9 {
                        new.clear();
                        old.clear();
                    }
                    // Every third query keeps part of what is resident
                    // from the last one: wholly resident, reordered.
                    let kept: Vec<usize> = if i % 3 == 2 {
                        last.iter().copied().filter(|&j| old.contains(j) && rng.gen_bool(0.5)).collect()
                    } else {
                        (0..keys).filter(|&j| !pruned[j]).collect()
                    };
                    let at = format!("{policy:?} at capacity {capacity}, query {i}");
                    prop_assert_eq!(new.access(&kept), old.access(&kept), "{}", at);
                    prop_assert_eq!(new.missed(), old.missed, "{}", at);
                    prop_assert_eq!(new.reused(), old.reused, "{}", at);
                    prop_assert_eq!(new.hits(), old.hits, "{}", at);
                    prop_assert_eq!(new.len(), old.len(), "{}", at);
                    for j in 0..keys {
                        prop_assert_eq!(new.contains(j), old.contains(j), "{} key {}", at, j);
                    }
                    last = kept;
                }
            }
        }
    }
}
