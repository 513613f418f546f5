//! The §VII cost model: operation counts × Table II unit energies, and
//! the per-query latency rule.
//!
//! Every simulated energy and cycle figure in the workspace — the
//! paper-figure bars of `sprint_core::counting`, the per-head
//! [`crate::PerfRollup`] and the per-step [`crate::StepPerf`] — is
//! produced here. There are two *count producers*, each filling an
//! [`OpCounts`] record and a per-query `(worst CORELET load, memory
//! cycles)` pair from its own source of truth: `counting` from
//! synthetic kept-set profiles, and the served `count_queries` from
//! executed decisions plus memory-controller statistics, for a head
//! and a decode step alike. Neither charges a [`Category`] or combines
//! latency terms itself.
//!
//! The count → category → unit-energy table and the per-mode
//! stage/latency table are in `ARCHITECTURE.md`, "Cost model"; the
//! tests below hold this module to them.
//!
//! The token-to-CORELET mapping lives here too, next to the latency
//! rule it feeds (§VI, Fig. 8). Unpruned key indices cluster spatially
//! (Fig. 2), so assigning *contiguous blocks* of the sequence to
//! CORELETs concentrates work on whichever CORELET owns the active
//! cluster. SPRINT instead interleaves tokens: with `N` CORELETs, key
//! `K_{N·n+i}` belongs to CORELET `i`, which spreads every cluster
//! evenly. [`worst_corelet_load`] is that rule as a count;
//! [`assign_tokens`] materialises it (and the sequential strawman) as
//! work lists for the Fig. 8 imbalance statistics.

use sprint_attention::PruneDecision;
use sprint_energy::{Category, EnergyBreakdown, UnitEnergies};
use sprint_memory::MemoryStats;
use sprint_reram::PruneHardwareStats;

use crate::{ExecutionMode, SprintConfig};

/// Command-bus occupancy of the thresholding handshake per query
/// (CopyQ beats + ReadP). The handshake and the fetches for query
/// `i + 1` are issued while query `i` computes (the controller
/// "proactively prefetches" unpruned vectors, §VI), so only the bus
/// occupancy can bound throughput, never the analog latency.
const THRESHOLD_ISSUE_CYCLES: u64 = 4;

/// The operation counts of one costed unit of work (a head, or one
/// decode step): everything [`OpCounts::energy`] multiplies by a
/// Table II unit energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// Bits written to the ReRAM arrays (embeddings programmed).
    pub reram_write_bits: u64,
    /// Bits read from the ReRAM arrays as data movement (fetched K/V
    /// payload plus the streamed query vectors).
    pub reram_read_bits: u64,
    /// Analog in-memory vector-matrix operations (one per array tile).
    pub in_memory_ops: u64,
    /// Analog comparator firings (one per key column thresholded).
    pub comparator_firings: u64,
    /// CopyQ / ReadP payload bits on the memory-side command path
    /// (charged at the ReRAM read rate, but not data movement).
    pub command_bits: u64,
    /// QK-PU dot products.
    pub qk_dots: u64,
    /// V-PU dot products.
    pub vpu_dots: u64,
    /// Softmax element operations.
    pub softmax_ops: u64,
    /// MAC-array passes one dot product takes (`⌈d / lanes⌉`).
    pub tiles_per_dot: u64,
    /// Bits of one K or V vector (each dot reads one from the buffers).
    pub vector_bits: u64,
    /// Bits written into the on-chip K/V buffers by fetches.
    pub onchip_write_bits: u64,
}

impl OpCounts {
    /// The on-chip half of a record — the Fig. 9 stage table: under
    /// `mode` a unit runs over `dense` pairs where its stage covers
    /// everything and over `kept` where it touches only survivors.
    /// Callers pass head totals or one query's counts alike, and fill
    /// in the memory-side fields with struct-update syntax.
    pub fn on_chip(
        mode: ExecutionMode,
        dense: u64,
        kept: u64,
        tiles_per_dot: u64,
        vector_bits: u64,
    ) -> OpCounts {
        let (qk_dots, vpu_dots, softmax_ops) = match mode {
            // Full dense QK; Dense keeps everything downstream too.
            ExecutionMode::Dense => (dense, dense, dense),
            ExecutionMode::Oracle => (dense, kept, kept),
            // Recompute touches only the survivors.
            ExecutionMode::Sprint => (kept, kept, kept),
            // Approximate scores skip the QK-PU entirely.
            ExecutionMode::NoRecompute => (0, kept, kept),
        };
        OpCounts {
            qk_dots,
            vpu_dots,
            softmax_ops,
            tiles_per_dot,
            vector_bits,
            ..OpCounts::default()
        }
    }

    /// The counts priced at `u`: the one charge sheet of the workspace.
    pub fn energy(&self, u: &UnitEnergies) -> EnergyBreakdown {
        let mut energy = EnergyBreakdown::new();
        energy.charge(
            Category::ReramWrite,
            u.reram_write_bits(self.reram_write_bits),
        );
        energy.charge(Category::ReramRead, u.reram_read_bits(self.reram_read_bits));
        energy.charge(
            Category::InReramPruning,
            u.in_memory_computation * self.in_memory_ops
                + u.analog_comparator * self.comparator_firings
                + u.reram_read_bits(self.command_bits),
        );
        energy.charge(
            Category::QkPu,
            u.qk_pu_dot_product * (self.qk_dots * self.tiles_per_dot),
        );
        energy.charge(
            Category::VPu,
            u.qk_pu_dot_product * (self.vpu_dots * self.tiles_per_dot),
        );
        energy.charge(Category::Softmax, u.softmax * self.softmax_ops);
        energy.charge(
            Category::OnChipRead,
            u.buffer_access_bits((self.qk_dots + self.vpu_dots) * self.vector_bits),
        );
        energy.charge(
            Category::OnChipWrite,
            u.buffer_access_bits(self.onchip_write_bits),
        );
        energy
    }
}

/// Worst per-CORELET share of one query's kept keys under token
/// interleaving: key `j` belongs to CORELET `j % N` (Fig. 8; the rule
/// [`assign_tokens`] materialises as work lists), over a list of kept
/// indices. `loads` is the caller's scratch, one slot per CORELET.
pub fn worst_corelet_load(kept: impl IntoIterator<Item = usize>, loads: &mut [u64]) -> u64 {
    loads.fill(0);
    let corelets = loads.len();
    kept.into_iter().for_each(|j| loads[j % corelets] += 1);
    loads.iter().copied().max().unwrap_or(0)
}

/// How unpruned tokens map to CORELETs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingPolicy {
    /// Contiguous block per CORELET (the strawman of Fig. 8).
    Sequential,
    /// Round-robin token interleaving (SPRINT's scheme).
    Interleaved,
}

/// Assigns the kept key indices of one query to `corelets` work lists.
///
/// `seq_len` is the total sequence length, needed to size the
/// sequential blocks.
///
/// # Panics
///
/// Panics if `corelets == 0` or `seq_len == 0`.
///
/// # Example
///
/// ```
/// use sprint_engine::cost::{assign_tokens, MappingPolicy};
///
/// let kept = vec![0, 1, 2, 3];
/// let a = assign_tokens(&kept, 2, MappingPolicy::Interleaved, 8);
/// assert_eq!(a[0], vec![0, 2]);
/// assert_eq!(a[1], vec![1, 3]);
/// let b = assign_tokens(&kept, 2, MappingPolicy::Sequential, 8);
/// assert_eq!(b[0], vec![0, 1, 2, 3]); // all in the first block of 4
/// assert!(b[1].is_empty());
/// ```
pub fn assign_tokens(
    kept: &[usize],
    corelets: usize,
    policy: MappingPolicy,
    seq_len: usize,
) -> Vec<Vec<usize>> {
    assert!(corelets > 0, "at least one CORELET");
    assert!(seq_len > 0, "sequence length must be non-zero");
    let mut out = vec![Vec::new(); corelets];
    match policy {
        MappingPolicy::Interleaved => {
            for &j in kept {
                out[j % corelets].push(j);
            }
        }
        MappingPolicy::Sequential => {
            let block = seq_len.div_ceil(corelets);
            for &j in kept {
                out[(j / block).min(corelets - 1)].push(j);
            }
        }
    }
    out
}

/// The imbalance ratio of one assignment: max over min assigned tokens
/// per CORELET (Fig. 8's metric; 1.0 is ideal balance).
///
/// CORELETs with zero tokens count as one token, mirroring the paper's
/// finite ratios on small models where some CORELETs idle.
pub fn imbalance_ratio(assignments: &[Vec<usize>]) -> f64 {
    if assignments.is_empty() {
        return 1.0;
    }
    let max = assignments.iter().map(Vec::len).max().unwrap_or(0);
    let min = assignments.iter().map(Vec::len).min().unwrap_or(0);
    if max == 0 {
        return 1.0;
    }
    max as f64 / min.max(1) as f64
}

/// Mean imbalance ratio over all queries of a head.
///
/// `kept_per_query` holds the kept key indices of each query; queries
/// with no kept keys are skipped (padded region).
pub fn mean_imbalance(
    kept_per_query: &[Vec<usize>],
    corelets: usize,
    policy: MappingPolicy,
    seq_len: usize,
) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for kept in kept_per_query {
        if kept.is_empty() {
            continue;
        }
        sum += imbalance_ratio(&assign_tokens(kept, corelets, policy, seq_len));
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        sum / n as f64
    }
}

/// One query's latency: the next query starts once this one's stages
/// have drained on the busiest CORELET (§VI), overlapped with the
/// memory stream, and in the analog modes never below the handshake's
/// bus occupancy.
///
/// `keys` is the number of keys a dense stage covers, `worst` the
/// busiest CORELET's kept keys ([`worst_corelet_load`]; ignored by
/// `Dense`), `memory_cycles` what the query's fetches occupy the
/// channels for.
pub fn query_cycles(
    mode: ExecutionMode,
    keys: usize,
    worst: u64,
    corelets: usize,
    tiles_per_dot: u64,
    memory_cycles: u64,
) -> u64 {
    let dense = keys.div_ceil(corelets) as u64;
    let stages = match mode {
        ExecutionMode::Dense => 3 * dense,
        ExecutionMode::Oracle => dense + 2 * worst,
        ExecutionMode::Sprint => 3 * worst,
        ExecutionMode::NoRecompute => 2 * worst,
    };
    let floor = if mode.uses_in_memory_pruning() {
        THRESHOLD_ISSUE_CYCLES
    } else {
        0
    };
    (stages * tiles_per_dot).max(memory_cycles).max(floor)
}

/// The served pricing call: the [`OpCounts`] (without ReRAM writes),
/// cycles and kept keys of `decisions` (kept key `j` on CORELET `j % N`),
/// one executed decision per live query over `keys` live keys — a head's
/// live rows or a decode step's one query — with fetches from
/// `memory_stats` (query-averaged) and analog op counts from `prune_stats`.
pub(crate) fn count_queries(
    mode: ExecutionMode,
    config: &SprintConfig,
    d: usize,
    keys: usize,
    decisions: &[PruneDecision],
    memory_stats: &MemoryStats,
    prune_stats: &PruneHardwareStats,
) -> (OpCounts, u64, u64) {
    let queries = decisions.len() as u64;
    let d_bits = (d * 8) as u64;
    let cpt = d.div_ceil(config.head_dim.max(1)) as u64;
    let corelets = config.corelets.max(1);

    let mean_fetch = memory_stats.fetched_vectors.div_ceil(queries.max(1));
    let mem = (mean_fetch as f64 * config.cycles_per_pair()).ceil() as u64;
    let mut loads = vec![0u64; corelets];
    let (mut kept, mut cycles) = (0u64, 0u64);
    for decision in decisions {
        decision.kept_by_residue(&mut loads);
        kept += loads.iter().sum::<u64>();
        let worst = loads.iter().copied().max().unwrap_or(0);
        cycles += query_cycles(mode, keys, worst, corelets, cpt, mem);
    }

    let mut counts = OpCounts {
        // What the controller fetched, plus the streamed query vectors.
        reram_read_bits: memory_stats.bytes_fetched * 8 + queries * d_bits,
        onchip_write_bits: memory_stats.fetched_vectors * d_bits,
        // Dense stages cover every query × key pair.
        ..OpCounts::on_chip(mode, queries * keys as u64, kept, cpt, d_bits)
    };
    // The pruner's own counters plus the CopyQ/ReadP payloads (a head
    // demoted before its first query charges none of them).
    if prune_stats.queries_pruned > 0 {
        counts.in_memory_ops = prune_stats.in_memory_ops;
        counts.comparator_firings = prune_stats.comparator_firings;
        counts.command_bits = queries * (d as u64 * 4) + queries * keys as u64 / 8;
    }
    (counts, cycles, kept)
}

/// The energy of writing `tokens` tokens' K and V rows (`2·d` bytes
/// each) into the crossbars: a decode step's programming, a rehydration.
pub(crate) fn program_energy(u: &UnitEnergies, tokens: u64, d: usize) -> EnergyBreakdown {
    OpCounts {
        reram_write_bits: tokens * 2 * (d * 8) as u64,
        ..OpCounts::default()
    }
    .energy(u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every field at a distinct non-zero value.
    fn busy() -> OpCounts {
        OpCounts {
            reram_write_bits: 512,
            reram_read_bits: 1024,
            in_memory_ops: 3,
            comparator_firings: 5,
            command_bits: 2048,
            qk_dots: 7,
            vpu_dots: 11,
            softmax_ops: 13,
            tiles_per_dot: 2,
            vector_bits: 256,
            onchip_write_bits: 4096,
        }
    }

    #[test]
    fn the_charge_sheet_is_the_docs_table() {
        use Category::*;
        let u = UnitEnergies::default();
        let per_512b = |unit: sprint_energy::Energy, bits: f64| unit.as_pj() * (bits / 512.0);
        // The ARCHITECTURE.md table: category, the fields that feed it,
        // and what `busy()` costs there at the Table II unit.
        let sheet: [(Category, &[&str], f64); 8] = [
            (
                ReramWrite,
                &["reram_write_bits"],
                per_512b(u.reram_write_512b, 512.0),
            ),
            (
                ReramRead,
                &["reram_read_bits"],
                per_512b(u.reram_read_512b, 1024.0),
            ),
            (
                InReramPruning,
                &["in_memory_ops", "comparator_firings", "command_bits"],
                u.in_memory_computation.as_pj() * 3.0
                    + u.analog_comparator.as_pj() * 5.0
                    + per_512b(u.reram_read_512b, 2048.0),
            ),
            (
                QkPu,
                &["qk_dots", "tiles_per_dot"],
                u.qk_pu_dot_product.as_pj() * 14.0,
            ),
            (
                VPu,
                &["vpu_dots", "tiles_per_dot"],
                u.qk_pu_dot_product.as_pj() * 22.0,
            ),
            (Softmax, &["softmax_ops"], u.softmax.as_pj() * 13.0),
            (
                OnChipRead,
                &["qk_dots", "vpu_dots", "vector_bits"],
                per_512b(u.kv_buffer_access, 18.0 * 256.0),
            ),
            (
                OnChipWrite,
                &["onchip_write_bits"],
                per_512b(u.kv_buffer_access, 4096.0),
            ),
        ];
        type Bump = fn(&mut OpCounts);
        let bumps: [(&str, Bump); 11] = [
            ("reram_write_bits", |c| c.reram_write_bits += 1),
            ("reram_read_bits", |c| c.reram_read_bits += 1),
            ("in_memory_ops", |c| c.in_memory_ops += 1),
            ("comparator_firings", |c| c.comparator_firings += 1),
            ("command_bits", |c| c.command_bits += 1),
            ("qk_dots", |c| c.qk_dots += 1),
            ("vpu_dots", |c| c.vpu_dots += 1),
            ("softmax_ops", |c| c.softmax_ops += 1),
            ("tiles_per_dot", |c| c.tiles_per_dot += 1),
            ("vector_bits", |c| c.vector_bits += 1),
            ("onchip_write_bits", |c| c.onchip_write_bits += 1),
        ];

        let priced = busy().energy(&u);
        for (category, _, pj) in sheet {
            assert_eq!(priced.get(category).as_pj(), pj, "{category}");
        }
        // Bump one field: exactly the categories that name it move.
        for (field, bump) in bumps {
            let mut counts = busy();
            bump(&mut counts);
            let bumped = counts.energy(&u);
            for (category, fields, _) in sheet {
                let moved = bumped.get(category) != priced.get(category);
                assert_eq!(moved, fields.contains(&field), "{field} vs {category}");
            }
        }
    }

    #[test]
    fn an_all_zero_record_charges_nothing() {
        let e = OpCounts::default().energy(&UnitEnergies::default());
        for c in Category::ALL {
            assert_eq!(e.get(c).as_pj().to_bits(), 0.0f64.to_bits(), "{c}");
        }
    }

    #[test]
    fn stage_table_per_mode() {
        use ExecutionMode::*;
        let on_chip = |mode| OpCounts::on_chip(mode, 100, 7, 2, 512);
        let expect = |qk_dots, vpu_dots, softmax_ops| OpCounts {
            qk_dots,
            vpu_dots,
            softmax_ops,
            tiles_per_dot: 2,
            vector_bits: 512,
            // The pipeline implies nothing memory-side.
            ..OpCounts::default()
        };
        assert_eq!(on_chip(Dense), expect(100, 100, 100));
        assert_eq!(on_chip(Oracle), expect(100, 7, 7));
        assert_eq!(on_chip(Sprint), expect(7, 7, 7));
        assert_eq!(on_chip(NoRecompute), expect(0, 7, 7));
    }

    #[test]
    fn latency_rule_per_mode() {
        use ExecutionMode::*;
        // 10 keys over 4 CORELETs (⌈10/4⌉ = 3), worst CORELET holds 2
        // kept keys, 2 tiles per dot, an idle memory stream.
        let compute = |mode| query_cycles(mode, 10, 2, 4, 2, 0);
        assert_eq!(compute(Dense), 3 * 3 * 2);
        assert_eq!(compute(Oracle), (3 + 2 * 2) * 2);
        assert_eq!(compute(Sprint), 3 * 2 * 2);
        assert_eq!(compute(NoRecompute), 2 * 2 * 2);
        // The memory stream bounds every mode once it is the longer.
        for mode in ExecutionMode::ALL {
            assert_eq!(query_cycles(mode, 10, 2, 4, 2, 1000), 1000, "{mode:?}");
        }
        // A query that keeps nothing and fetches nothing still occupies
        // the command bus in the analog modes, and only there.
        assert_eq!(query_cycles(Sprint, 10, 0, 4, 2, 0), THRESHOLD_ISSUE_CYCLES);
        assert_eq!(
            query_cycles(NoRecompute, 10, 0, 4, 2, 0),
            THRESHOLD_ISSUE_CYCLES
        );
        assert_eq!(query_cycles(Oracle, 0, 0, 4, 2, 0), 0);
        assert_eq!(query_cycles(Dense, 0, 0, 4, 2, 0), 0);
    }

    #[test]
    fn worst_load_is_the_longest_interleaved_work_list() {
        let kept = [0usize, 3, 4, 8, 9, 12, 17, 40, 44];
        for corelets in 1..=5 {
            let lists = assign_tokens(&kept, corelets, MappingPolicy::Interleaved, 64);
            let longest = lists.iter().map(Vec::len).max().unwrap() as u64;
            // Scratch arrives dirty: the function owns clearing it.
            let mut loads = vec![99u64; corelets];
            assert_eq!(
                worst_corelet_load(kept, &mut loads),
                longest,
                "{corelets} CORELETs"
            );
        }
        assert_eq!(worst_corelet_load([], &mut [0u64; 4]), 0);
    }

    #[test]
    fn interleaving_spreads_clusters() {
        // A 32-wide cluster in a 128 sequence over 4 CORELETs.
        let kept: Vec<usize> = (40..72).collect();
        let a = assign_tokens(&kept, 4, MappingPolicy::Interleaved, 128);
        assert!(a.iter().all(|v| v.len() == 8), "{a:?}");
        assert!((imbalance_ratio(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sequential_concentrates_clusters() {
        let kept: Vec<usize> = (40..72).collect();
        let a = assign_tokens(&kept, 4, MappingPolicy::Sequential, 128);
        // Block size 32: the cluster spans blocks 1 and 2 unevenly.
        let ratio = imbalance_ratio(&a);
        assert!(ratio >= 3.0, "ratio={ratio} assignments={a:?}");
    }

    #[test]
    fn paper_interleaving_rule_k_4n_plus_i() {
        // "given total four available CORELETs, SPRINT process K_{4n+i}
        // in the i-th CORELET".
        let kept: Vec<usize> = (0..16).collect();
        let a = assign_tokens(&kept, 4, MappingPolicy::Interleaved, 16);
        for (i, list) in a.iter().enumerate() {
            assert!(list.iter().all(|&j| j % 4 == i));
        }
    }

    #[test]
    fn every_token_assigned_exactly_once() {
        let kept: Vec<usize> = vec![3, 17, 18, 19, 64, 100];
        for policy in [MappingPolicy::Sequential, MappingPolicy::Interleaved] {
            let a = assign_tokens(&kept, 3, policy, 128);
            let mut all: Vec<usize> = a.concat();
            all.sort_unstable();
            assert_eq!(all, kept, "{policy:?}");
        }
    }

    #[test]
    fn imbalance_handles_edge_cases() {
        assert_eq!(imbalance_ratio(&[]), 1.0);
        assert_eq!(imbalance_ratio(&[vec![], vec![]]), 1.0);
        // One CORELET idle: min clamps to 1.
        assert_eq!(imbalance_ratio(&[vec![1, 2, 3], vec![]]), 3.0);
    }

    #[test]
    fn mean_imbalance_skips_empty_queries() {
        // Both non-empty queries split evenly over 2 CORELETs; the
        // empty (padded) query must not drag the average.
        let queries = vec![vec![0, 1, 2, 3], vec![], vec![0, 1, 4, 5]];
        let m = mean_imbalance(&queries, 2, MappingPolicy::Interleaved, 8);
        assert!(
            (m - 1.0).abs() < 1e-9,
            "balanced queries average to 1, got {m}"
        );
    }

    #[test]
    fn interleaving_dominates_sequential_at_every_corelet_count() {
        // Fig. 8: at 2/4/8/16 CORELETs, interleaving stays near the
        // ideal ratio of 1 while the sequential mapping suffers badly
        // on a clustered mask.
        let kept: Vec<usize> = (100..160).collect();
        let seq_len = 512;
        for n in [2usize, 4, 8, 16] {
            let seq = imbalance_ratio(&assign_tokens(&kept, n, MappingPolicy::Sequential, seq_len));
            let int = imbalance_ratio(&assign_tokens(
                &kept,
                n,
                MappingPolicy::Interleaved,
                seq_len,
            ));
            assert!(
                int <= seq,
                "interleaving never worse: n={n} int={int} seq={seq}"
            );
            assert!(int <= 2.0, "interleaved ratio stays small: n={n} int={int}");
            assert!(
                seq >= 4.0,
                "sequential suffers on clusters: n={n} seq={seq}"
            );
        }
    }

    /// The served pricing call's kept total and worst CORELET load for
    /// one decision over `corelets` CORELETs, read back from its Oracle
    /// cycles: with an idle memory stream and one tile per dot they are
    /// `⌈keys/N⌉ + 2·worst`.
    fn priced_loads(d: &PruneDecision, corelets: usize) -> (u64, u64) {
        let config = SprintConfig {
            corelets,
            ..SprintConfig::medium()
        };
        let (_, cycles, kept) = count_queries(
            ExecutionMode::Oracle,
            &config,
            config.head_dim,
            d.len(),
            std::slice::from_ref(d),
            &MemoryStats::default(),
            &PruneHardwareStats::default(),
        );
        (kept, (cycles - d.len().div_ceil(corelets) as u64) / 2)
    }

    /// [`crate::PerfRollup::from_response`] as it was before the kept
    /// total came from the pricing call, frozen: the CORELET loads
    /// walked each live decision's kept indices, and `kept_scores`
    /// walked every flag again. Returns cycles, energy and kept scores.
    fn two_walk_rollup(
        mode: ExecutionMode,
        config: &SprintConfig,
        d: usize,
        seq_len: usize,
        keys: usize,
        response: &crate::HeadResponse,
    ) -> (u64, EnergyBreakdown, u64) {
        let decisions = &response.decisions[..keys.min(response.decisions.len())];
        let (memory_stats, prune_stats) = (&response.memory_stats, &response.prune_stats);
        let queries = decisions.len() as u64;
        let d_bits = (d * 8) as u64;
        let cpt = d.div_ceil(config.head_dim.max(1)) as u64;
        let corelets = config.corelets.max(1);
        let mean_fetch = memory_stats.fetched_vectors.div_ceil(queries.max(1));
        let mem = (mean_fetch as f64 * config.cycles_per_pair()).ceil() as u64;
        let mut loads = vec![0u64; corelets];
        let (mut kept, mut cycles) = (0u64, 0u64);
        for decision in decisions {
            let worst = worst_corelet_load(decision.iter_kept(), &mut loads);
            kept += loads.iter().sum::<u64>();
            cycles += query_cycles(mode, keys, worst, corelets, cpt, mem);
        }
        let mut counts = OpCounts {
            reram_read_bits: memory_stats.bytes_fetched * 8 + queries * d_bits,
            onchip_write_bits: memory_stats.fetched_vectors * d_bits,
            ..OpCounts::on_chip(mode, queries * keys as u64, kept, cpt, d_bits)
        };
        if prune_stats.queries_pruned > 0 {
            counts.in_memory_ops = prune_stats.in_memory_ops;
            counts.comparator_firings = prune_stats.comparator_firings;
            counts.command_bits = queries * (d as u64 * 4) + queries * keys as u64 / 8;
        }
        counts.reram_write_bits = 3 * seq_len as u64 * d_bits;
        let kept_scores = decisions
            .iter()
            .map(|d| d.as_slice().iter().filter(|&&p| !p).count() as u64)
            .sum();
        (cycles, counts.energy(&config.energies), kept_scores)
    }

    #[test]
    fn the_rollup_prices_every_head_as_the_two_walk_rollup_did() {
        use crate::{Engine, FaultPolicy, HeadRequest, PerfRollup};
        use sprint_attention::{Matrix, PaddingMask};
        use sprint_reram::{FaultModel, NoiseModel};
        use sprint_workloads::{ModelConfig, TraceGenerator};

        let bert = |seq, seed| {
            let spec = ModelConfig::bert_base().trace_spec().with_seq_len(seq);
            TraceGenerator::new(seed).generate(&spec).unwrap()
        };
        let (head, short) = (bert(512, 7), bert(200, 8));
        assert!(head.live_tokens() < 512 && short.live_tokens() % 8 != 0);
        let q1 = Matrix::from_vec(1, short.q().cols(), short.q().row(0).to_vec()).unwrap();
        let cross = HeadRequest::new(&q1, short.k(), short.v(), short.config(), short.threshold());
        let none_live = HeadRequest::from_trace(&short)
            .with_padding(PaddingMask::new(short.seq_len(), 0).unwrap());
        let odd = SprintConfig {
            corelets: 3,
            ..SprintConfig::medium()
        };
        let demoting = FaultModel::new(3).with_line_rates(1.0, 0.0).unwrap();

        // (what, config, fault model, request, its live keys, modes)
        let mut cases = vec![
            (
                "BERT-base s = 512",
                SprintConfig::medium(),
                None,
                HeadRequest::from_trace(&head),
                head.live_tokens(),
                ExecutionMode::ALL.to_vec(),
            ),
            (
                "cross-shaped",
                SprintConfig::medium(),
                None,
                cross,
                short.seq_len(),
                ExecutionMode::ALL.to_vec(),
            ),
            (
                "zero live",
                SprintConfig::medium(),
                None,
                none_live,
                0,
                ExecutionMode::ALL.to_vec(),
            ),
            (
                "fault-demoted",
                SprintConfig::medium(),
                Some(demoting),
                HeadRequest::from_trace(&short),
                short.live_tokens(),
                vec![ExecutionMode::Sprint],
            ),
        ];
        for config in [SprintConfig::small(), SprintConfig::large(), odd] {
            let request = HeadRequest::from_trace(&short);
            let modes = ExecutionMode::ALL.to_vec();
            cases.push(("s = 200", config, None, request, short.live_tokens(), modes));
        }
        for (what, config, fault, request, live, modes) in cases {
            for mode in modes {
                let mut builder = Engine::builder(config.clone())
                    .noise(NoiseModel::default())
                    .mode(mode)
                    .seed(5)
                    .worker_slots(1);
                if let Some(model) = fault {
                    builder = builder
                        .fault_model(model)
                        .fault_policy(FaultPolicy::Demote { max_attempts: 2 });
                }
                let response = builder.build().unwrap().run_head(&request).unwrap();
                assert_eq!(fault.is_some(), response.faults.demoted, "{what}");
                let (d, seq_len) = (request.q().cols(), request.k().rows());
                let rolled = PerfRollup::from_response(mode, &config, d, seq_len, live, &response);
                let (cycles, energy, kept) =
                    two_walk_rollup(mode, &config, d, seq_len, live, &response);
                let at = format!("{what}, {mode:?} on {} ({})", config.name, config.corelets);
                assert_eq!(rolled.cycles, cycles, "{at}");
                assert_eq!(rolled.kept_scores, kept, "{at}");
                for c in Category::ALL {
                    let (got, want) = (rolled.energy.get(c).as_pj(), energy.get(c).as_pj());
                    assert_eq!(got.to_bits(), want.to_bits(), "{at}: {c}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn prop_priced_loads_follow_the_interleaving_rule(
            flags in proptest::collection::vec(proptest::bool::ANY, 0..71),
        ) {
            // Every `len % 8` tail, as drawn and all kept or all pruned,
            // over CORELET counts that divide 8 and two that do not.
            let len = flags.len();
            for flags in [flags, vec![false; len], vec![true; len]] {
                let d = PruneDecision::new(flags);
                let per_flag = d.as_slice().iter().filter(|&&p| !p).count() as u64;
                prop_assert_eq!(d.kept_count() as u64, per_flag);
                for corelets in [1, 2, 3, 4, 5, 8] {
                    let worst = worst_corelet_load(d.iter_kept(), &mut vec![0; corelets]);
                    prop_assert_eq!(priced_loads(&d, corelets), (per_flag, worst), "N = {}", corelets);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_assignment_partitions_kept(
            kept_bits in proptest::collection::vec(proptest::bool::ANY, 1..256),
            corelets in 1usize..9,
            interleaved in proptest::bool::ANY,
        ) {
            let kept: Vec<usize> = kept_bits
                .iter().enumerate().filter_map(|(j, &b)| b.then_some(j)).collect();
            let policy = if interleaved { MappingPolicy::Interleaved } else { MappingPolicy::Sequential };
            let a = assign_tokens(&kept, corelets, policy, kept_bits.len());
            let mut all: Vec<usize> = a.concat();
            all.sort_unstable();
            prop_assert_eq!(all, kept);
            prop_assert!(imbalance_ratio(&a) >= 1.0);
        }
    }
}
