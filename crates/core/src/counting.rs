//! The operation-counting performance and energy simulator (§VII
//! "SPRINT performance simulator").
//!
//! Faithful to the paper's methodology: count in-memory dot products
//! and analog comparisons, ReRAM read/write accesses, on-chip buffer
//! traffic, QK/V-PU dot products, softmax LUT/divider operations —
//! accounting for spatial locality and the finite on-chip K/V capacity
//! — then multiply by the Table II unit energies. Latency folds the
//! in-memory thresholding delay, the memory-channel bandwidth and the
//! worst-CORELET compute time per query.
//!
//! Four execution modes cover the paper's comparison points. Each is a
//! *count producer* for the one cost model in [`sprint_engine::cost`]:
//! it derives fetch and operation counts from the profile's kept sets
//! and the finite SLD-pinned [`Residency`] buffer model, and is priced
//! and timed as the Fig. 9 pipeline in the last column.
//!
//! | Mode | Fetches | Computes | Figures | Costed as |
//! |---|---|---|---|---|
//! | [`ExecutionMode::Baseline`] | everything (padded incl.) | full `s×s` | denominator everywhere | `Dense` |
//! | [`ExecutionMode::MaskOnly`] | live tokens only | `live×live` | Fig. 10 "Mask Only" | `Dense` |
//! | [`ExecutionMode::PruningOnly`] | all K, kept V | all QK, kept softmax/V | Fig. 13 second bar | `Oracle` |
//! | [`ExecutionMode::Sprint`] | kept K/V via SLD | kept everything | Figs. 10–13 | `Sprint` |

use sprint_energy::EnergyBreakdown;
use sprint_engine::cost::{query_cycles, worst_corelet_load, OpCounts};
use sprint_engine::ExecutionMode as Pipeline;
use sprint_memory::{Residency, ResidencyPolicy};
use sprint_reram::{ARRAY_COLS, ARRAY_ROWS};

use crate::{HeadProfile, SprintConfig};

/// Which system variant to count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionMode {
    /// Iso-resource design without in-memory pruning, SLD or the
    /// two-dimensional padded-region reduction.
    Baseline,
    /// Baseline plus the padded-region (2-D) sequence reduction.
    MaskOnly,
    /// On-chip runtime pruning (LeOPArd-style): every `Q×Kᵀ` is still
    /// computed and every K fetched; softmax/`×V` run on kept scores
    /// and only kept V vectors are fetched.
    PruningOnly,
    /// Full SPRINT: in-memory thresholding, SLD reuse, selective
    /// fetch, on-chip recompute, 2-D reduction.
    Sprint,
}

impl ExecutionMode {
    /// Display label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            ExecutionMode::Baseline => "Baseline",
            ExecutionMode::MaskOnly => "Mask Only",
            ExecutionMode::PruningOnly => "Pruning Only",
            ExecutionMode::Sprint => "SPRINT",
        }
    }
}

/// Counted performance of one head under one mode.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadPerf {
    /// The mode counted.
    pub mode: ExecutionMode,
    /// Head latency in cycles (1 GHz clock).
    pub cycles: u64,
    /// Energy by category (Table II units).
    pub energy: EnergyBreakdown,
    /// Bytes moved from main memory (K/V/Q payload).
    pub bytes_from_memory: u64,
    /// K/V vector pairs fetched.
    pub fetched_pairs: u64,
    /// K/V vector pairs reused from on-chip buffers.
    pub reused_pairs: u64,
    /// QK-PU dot products.
    pub qk_dots: u64,
    /// V-PU dot products.
    pub vpu_dots: u64,
    /// Softmax element operations.
    pub softmax_ops: u64,
}

impl HeadPerf {
    /// Speedup of `self` relative to `other` (`other.cycles / self.cycles`).
    pub fn speedup_over(&self, other: &HeadPerf) -> f64 {
        other.cycles as f64 / self.cycles.max(1) as f64
    }

    /// Energy reduction of `self` relative to `other`.
    pub fn energy_reduction_over(&self, other: &HeadPerf) -> f64 {
        other.energy.total().as_pj() / self.energy.total().as_pj().max(1e-12)
    }

    /// Data-movement reduction relative to `other` (Fig. 10 metric).
    pub fn data_movement_reduction_over(&self, other: &HeadPerf) -> f64 {
        1.0 - self.bytes_from_memory as f64 / other.bytes_from_memory.max(1) as f64
    }
}

/// Counts one head under `mode` on `cfg`.
///
/// # Panics
///
/// Panics if the profile has a zero live region (checked by
/// construction in [`HeadProfile`]).
pub fn simulate_head(profile: &HeadProfile, cfg: &SprintConfig, mode: ExecutionMode) -> HeadPerf {
    let g = Geometry {
        d_bits: (profile.head_dim * 8) as u64,
        cpt: profile.head_dim.div_ceil(cfg.head_dim.max(1)) as u64,
        cpp: cfg.cycles_per_pair(),
        corelets: cfg.corelets.max(1),
        capacity: cfg.kv_capacity_pairs(),
    };
    let counted = match mode {
        ExecutionMode::Baseline => dense_like(profile, &g, profile.seq_len),
        ExecutionMode::MaskOnly => dense_like(profile, &g, profile.live),
        ExecutionMode::PruningOnly => pruning_only(profile, &g),
        ExecutionMode::Sprint => sprint(profile, &g),
    };
    let counts = counted.counts;
    HeadPerf {
        mode,
        cycles: counted.cycles,
        energy: counts.energy(&cfg.energies),
        bytes_from_memory: counts.reram_read_bits / 8,
        fetched_pairs: counted.fetched_pairs,
        reused_pairs: counted.reused_pairs,
        qk_dots: counts.qk_dots,
        vpu_dots: counts.vpu_dots,
        softmax_ops: counts.softmax_ops,
    }
}

/// The per-head constants every producer derives its counts from.
struct Geometry {
    /// Bits of one K or V vector.
    d_bits: u64,
    /// MAC-array passes per dot product.
    cpt: u64,
    /// Channel cycles to move one K/V pair.
    cpp: f64,
    corelets: usize,
    /// On-chip capacity in K/V pairs.
    capacity: usize,
}

/// What a producer hands back to [`simulate_head`] for pricing.
struct Counted {
    counts: OpCounts,
    cycles: u64,
    fetched_pairs: u64,
    reused_pairs: u64,
}

/// Baseline and MaskOnly differ only in the effective sequence length.
fn dense_like(profile: &HeadProfile, g: &Geometry, n: usize) -> Counted {
    // Data movement: the baseline pins as much of the working set as
    // fits (the best a design without SLD can do on a cyclic scan) and
    // restreams the remainder every query. This reproduces the Fig. 1
    // gradient: data movement decreases smoothly with capacity and
    // collapses once the whole sequence fits.
    let refetch = n.saturating_sub(g.capacity) as u64;
    let fetched_pairs = n as u64 + (n as u64 - 1) * refetch;

    let pairs = (n * n) as u64;
    let counts = OpCounts {
        // Embeddings written to ReRAM once per head (Q, K, V).
        reram_write_bits: 3 * profile.seq_len as u64 * g.d_bits,
        // Fetched pairs plus the streamed query vectors.
        reram_read_bits: fetched_pairs * 2 * g.d_bits + n as u64 * g.d_bits,
        // Writes on every fetched pair.
        onchip_write_bits: fetched_pairs * 2 * g.d_bits,
        // Compute: full n x n.
        ..OpCounts::on_chip(Pipeline::Dense, pairs, pairs, g.cpt, g.d_bits)
    };

    let cycles = (0..n)
        .map(|q| {
            let fetch_this = if q == 0 { n as u64 } else { refetch };
            let mem = (fetch_this as f64 * g.cpp).ceil() as u64;
            query_cycles(Pipeline::Dense, n, 0, g.corelets, g.cpt, mem)
        })
        .sum();

    Counted {
        counts,
        cycles,
        fetched_pairs,
        reused_pairs: pairs.saturating_sub(fetched_pairs),
    }
}

fn pruning_only(profile: &HeadProfile, g: &Geometry) -> Counted {
    let s = profile.seq_len;

    // K vectors stream for every query (thresholding needs all
    // scores) beyond the pinned capacity; V vectors fetch only after
    // pruning, with reuse.
    let k_refetch = s.saturating_sub(g.capacity) as u64;
    let mut k_fetch_vectors = s as u64;
    let mut v_buffer = Residency::new(g.capacity, ResidencyPolicy::SldPinned);
    let mut v_fetch_vectors = 0u64;
    let mut kept_scores = 0u64;
    let mut cycles = 0u64;

    for (q, kept) in profile.kept_per_query.iter().enumerate() {
        let k_this = if q == 0 { s as u64 } else { k_refetch };
        if q > 0 {
            k_fetch_vectors += k_refetch;
        }
        let v_this = v_buffer.access(kept);
        v_fetch_vectors += v_this;
        kept_scores += kept.len() as u64;

        // QK runs over every key; only the kept scores flow through
        // softmax and the V-PU — the source of the modest pruning-only
        // speedup (paper: 1.8/1.7/1.7x). Without in-memory pruning
        // there is no interleaved kept set: survivors split evenly.
        let worst = kept.len().div_ceil(g.corelets) as u64;
        let mem = (((k_this + v_this) as f64) * g.cpp / 2.0).ceil() as u64;
        cycles += query_cycles(Pipeline::Oracle, s, worst, g.corelets, g.cpt, mem);
    }

    let fetched_vectors = k_fetch_vectors + v_fetch_vectors;
    let score_pairs = (profile.kept_per_query.len() * s) as u64;
    let counts = OpCounts {
        reram_write_bits: 3 * s as u64 * g.d_bits,
        reram_read_bits: fetched_vectors * g.d_bits + s as u64 * g.d_bits,
        onchip_write_bits: fetched_vectors * g.d_bits,
        ..OpCounts::on_chip(Pipeline::Oracle, score_pairs, kept_scores, g.cpt, g.d_bits)
    };
    Counted {
        counts,
        cycles,
        fetched_pairs: fetched_vectors / 2,
        reused_pairs: v_buffer.hits(),
    }
}

fn sprint(profile: &HeadProfile, g: &Geometry) -> Counted {
    let live = profile.live;
    let d = profile.head_dim;
    let queries = &profile.kept_per_query[..live.min(profile.kept_per_query.len())];

    let mut buffer = Residency::new(g.capacity, ResidencyPolicy::SldPinned);
    let mut fetched_pairs = 0u64;
    let mut kept_scores = 0u64;
    let mut cycles = 0u64;
    let mut loads = vec![0u64; g.corelets];

    for kept in queries {
        // Selective fetch through SLD + finite capacity.
        let misses = buffer.access(kept);
        fetched_pairs += misses;
        kept_scores += kept.len() as u64;

        let worst = worst_corelet_load(kept.iter().copied(), &mut loads);
        let mem = (misses as f64 * g.cpp).ceil() as u64;
        cycles += query_cycles(Pipeline::Sprint, live, worst, g.corelets, g.cpt, mem);
    }

    // In-memory thresholding, once per live query: one analog op per
    // array tile and one comparator per live key (the 2-D reduction
    // filters padded columns).
    let tiles = (live.div_ceil(ARRAY_COLS) * d.div_ceil(ARRAY_ROWS)) as u64;
    let score_pairs = (queries.len() * live) as u64;
    let counts = OpCounts {
        reram_write_bits: 3 * profile.seq_len as u64 * g.d_bits,
        // Reads: fetched pairs (K MSB from transposable arrays + K LSB
        // + V from standard arrays = one pair payload) plus the
        // streamed query vectors.
        reram_read_bits: fetched_pairs * 2 * g.d_bits + live as u64 * g.d_bits,
        in_memory_ops: queries.len() as u64 * tiles,
        comparator_firings: queries.len() as u64 * live as u64,
        // The CopyQ MSB transfers and ReadP pruning vectors stay on
        // the memory-side command path: they are charged to the
        // in-ReRAM-pruning energy but are not K/V/Q data movement (the
        // Fig. 10 metric).
        command_bits: live as u64 * (d as u64 * 4) + live as u64 * live as u64 / 8,
        onchip_write_bits: fetched_pairs * 2 * g.d_bits,
        ..OpCounts::on_chip(Pipeline::Sprint, score_pairs, kept_scores, g.cpt, g.d_bits)
    };
    Counted {
        counts,
        cycles,
        fetched_pairs,
        reused_pairs: buffer.hits(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprint_energy::Category;

    fn bert_like() -> HeadProfile {
        HeadProfile::synthetic(384, 207, 0.254, 0.85, 42)
    }

    fn vit_like() -> HeadProfile {
        HeadProfile::synthetic(197, 197, 0.356, 0.739, 43)
    }

    #[test]
    fn sprint_beats_baseline_on_every_metric() {
        let p = bert_like();
        let cfg = SprintConfig::small();
        let base = simulate_head(&p, &cfg, ExecutionMode::Baseline);
        let spr = simulate_head(&p, &cfg, ExecutionMode::Sprint);
        assert!(spr.cycles < base.cycles);
        assert!(spr.energy.total() < base.energy.total());
        assert!(spr.bytes_from_memory < base.bytes_from_memory);
        assert!(spr.qk_dots < base.qk_dots);
    }

    #[test]
    fn mode_ordering_matches_paper() {
        // Energy: Baseline > PruningOnly > Sprint (Fig. 13);
        // MaskOnly sits between Baseline and Sprint (Fig. 10). Use the
        // capacity-constrained S config, where the distinctions are
        // strict (at ample capacity MaskOnly and Sprint converge, as
        // in the paper's L-SPRINT rows).
        let p = bert_like();
        let cfg = SprintConfig::small();
        let base = simulate_head(&p, &cfg, ExecutionMode::Baseline);
        let mask = simulate_head(&p, &cfg, ExecutionMode::MaskOnly);
        let prune = simulate_head(&p, &cfg, ExecutionMode::PruningOnly);
        let spr = simulate_head(&p, &cfg, ExecutionMode::Sprint);
        assert!(base.energy.total() > prune.energy.total());
        assert!(prune.energy.total() > spr.energy.total());
        assert!(base.bytes_from_memory > mask.bytes_from_memory);
        assert!(mask.bytes_from_memory > spr.bytes_from_memory);
    }

    #[test]
    fn pruning_only_reduction_is_modest() {
        // Fig. 13: ~1.9-2.0x for the SQuAD models, because all QK work
        // and K fetches remain.
        let p = bert_like();
        let cfg = SprintConfig::medium();
        let base = simulate_head(&p, &cfg, ExecutionMode::Baseline);
        let prune = simulate_head(&p, &cfg, ExecutionMode::PruningOnly);
        let reduction = prune.energy_reduction_over(&base);
        assert!(
            (1.4..3.5).contains(&reduction),
            "pruning-only reduction {reduction} outside the paper band"
        );
        // And it is far below SPRINT's reduction.
        let spr = simulate_head(&p, &cfg, ExecutionMode::Sprint);
        assert!(spr.energy_reduction_over(&base) > 2.0 * reduction);
    }

    #[test]
    fn sprint_data_movement_reduction_matches_fig10_band() {
        // Fig. 10: ~98% reduction for BERT-B on S-SPRINT.
        let p = bert_like();
        let cfg = SprintConfig::small();
        let base = simulate_head(&p, &cfg, ExecutionMode::Baseline);
        let spr = simulate_head(&p, &cfg, ExecutionMode::Sprint);
        let red = spr.data_movement_reduction_over(&base);
        assert!(red > 0.90, "reduction {red}");
    }

    #[test]
    fn mask_only_reduction_tracks_padding() {
        // 46% padding: mask-only saves roughly the padded fraction of
        // fetches and the square of it in compute.
        let p = bert_like();
        let cfg = SprintConfig::small();
        let base = simulate_head(&p, &cfg, ExecutionMode::Baseline);
        let mask = simulate_head(&p, &cfg, ExecutionMode::MaskOnly);
        let red = mask.data_movement_reduction_over(&base);
        assert!((0.4..0.95).contains(&red), "mask-only reduction {red}");
        let compute_ratio = mask.qk_dots as f64 / base.qk_dots as f64;
        assert!((compute_ratio - 0.29).abs() < 0.05, "(207/384)^2 = 0.29");
    }

    #[test]
    fn vit_benefits_least() {
        // Fig. 11/12: ViT-B has the smallest gains (no padding, lowest
        // pruning rate, weakest locality).
        let cfg = SprintConfig::small();
        let bert = bert_like();
        let vit = vit_like();
        let bert_speedup = simulate_head(&bert, &cfg, ExecutionMode::Sprint)
            .speedup_over(&simulate_head(&bert, &cfg, ExecutionMode::Baseline));
        let vit_speedup = simulate_head(&vit, &cfg, ExecutionMode::Sprint)
            .speedup_over(&simulate_head(&vit, &cfg, ExecutionMode::Baseline));
        assert!(
            bert_speedup > 1.5 * vit_speedup,
            "bert {bert_speedup} vs vit {vit_speedup}"
        );
        assert!(vit_speedup > 1.0);
    }

    #[test]
    fn larger_configs_move_less_data() {
        // Fig. 10: data movement reduction grows with on-chip capacity.
        let p = bert_like();
        let s = simulate_head(&p, &SprintConfig::small(), ExecutionMode::Sprint);
        let m = simulate_head(&p, &SprintConfig::medium(), ExecutionMode::Sprint);
        let l = simulate_head(&p, &SprintConfig::large(), ExecutionMode::Sprint);
        assert!(s.bytes_from_memory >= m.bytes_from_memory);
        assert!(m.bytes_from_memory >= l.bytes_from_memory);
    }

    #[test]
    fn energy_categories_are_populated_correctly() {
        let p = bert_like();
        let cfg = SprintConfig::medium();
        let base = simulate_head(&p, &cfg, ExecutionMode::Baseline);
        assert_eq!(
            base.energy.get(Category::InReramPruning).as_pj(),
            0.0,
            "baseline never prunes in memory"
        );
        let spr = simulate_head(&p, &cfg, ExecutionMode::Sprint);
        assert!(spr.energy.get(Category::InReramPruning).as_pj() > 0.0);
        // Fig. 13: in SPRINT, ReRAM writes dominate the residual stack.
        assert!(
            spr.energy.get(Category::ReramWrite) > spr.energy.get(Category::ReramRead),
            "writes should outweigh the tiny selective reads"
        );
        // In-memory pruning overhead stays small (paper: ~4% of the
        // SPRINT stack).
        let frac = spr.energy.fraction(Category::InReramPruning);
        assert!(frac < 0.25, "in-memory pruning fraction {frac}");
    }

    #[test]
    fn baseline_memory_fraction_reproduces_fig1_extremes() {
        // 20% capacity at long sequences: memory access dominates
        // (>60%); full capacity: memory access is minor.
        let p = HeadProfile::synthetic(1024, 1024, 0.25, 0.85, 7);
        let mut tight = SprintConfig::small();
        tight.onchip_kib = (1024 * 2 * 64 / 1024) / 5; // 20% of requisite
        let base_tight = simulate_head(&p, &tight, ExecutionMode::Baseline);
        let frac_tight =
            base_tight.energy.memory_access().as_pj() / base_tight.energy.total().as_pj();
        assert!(frac_tight > 0.5, "tight-capacity fraction {frac_tight}");

        let mut ample = SprintConfig::small();
        ample.onchip_kib = 1024 * 2 * 64 / 1024; // 100%
        let base_ample = simulate_head(&p, &ample, ExecutionMode::Baseline);
        let frac_ample =
            base_ample.energy.memory_access().as_pj() / base_ample.energy.total().as_pj();
        assert!(frac_ample < 0.2, "ample-capacity fraction {frac_ample}");
    }

    #[test]
    fn fully_padded_tail_costs_sprint_nothing() {
        let with_pad = HeadProfile::synthetic(256, 128, 0.25, 0.85, 9);
        let no_pad = HeadProfile::synthetic(128, 128, 0.25, 0.85, 9);
        let cfg = SprintConfig::small();
        let a = simulate_head(&with_pad, &cfg, ExecutionMode::Sprint);
        let b = simulate_head(&no_pad, &cfg, ExecutionMode::Sprint);
        // Identical live region: only the one-time embedding writes
        // (which scale with s) differ.
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.qk_dots, b.qk_dots);
    }
}
