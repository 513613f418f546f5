//! The S/M/L-SPRINT hardware configurations (Table I).

use sprint_energy::{AreaModel, TimingParams, UnitEnergies};
use sprint_memory::MemoryGeometry;

/// One SPRINT hardware configuration.
///
/// Table I:
///
/// | Module | S / M / L |
/// |---|---|
/// | ReRAM BW | 16 × 64-bit channels @ 1 GHz per CORELET |
/// | ReRAM array | 256×128 standard, 64×128 transposable (4-b MLC) |
/// | On-chip cache | 16 / 32 / 64 KB total K/V buffers (8/16/32 banks) |
/// | QK-PU / V-PU | 1 / 2 / 4 × 1-D 64-way 8×8-b MAC |
/// | Softmax | 1 / 2 / 4 × 12-b in, 8-b out, 2×64 B LUTs, 2 dividers |
/// | Query buffer | 64 / 128 / 256 B |
/// | Index buffer | 0.5 / 1 / 2 KB |
///
/// # Example
///
/// ```
/// use sprint_engine::SprintConfig;
///
/// let m = SprintConfig::medium();
/// assert_eq!(m.corelets, 2);
/// assert_eq!(m.onchip_kib, 32);
/// assert_eq!(m.kv_capacity_pairs(), 256);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SprintConfig {
    /// Configuration name ("S-SPRINT", ...).
    pub name: &'static str,
    /// Number of CORELETs.
    pub corelets: usize,
    /// Total on-chip K/V buffer capacity in KiB.
    pub onchip_kib: usize,
    /// K/V buffer banks.
    pub banks: usize,
    /// Query buffer bytes.
    pub query_buffer_bytes: usize,
    /// Unpruned-index buffer bytes.
    pub index_buffer_bytes: usize,
    /// Per-head embedding size (64 in every studied model).
    pub head_dim: usize,
    /// Memory channels **per CORELET** (Table I: 16 × 64-bit).
    pub channels_per_corelet: usize,
    /// Effective payload bytes one channel moves per cycle. 64-bit
    /// channels peak at 8 B/cycle; command gaps, row misses and bank
    /// conflicts derate this (calibrated against the cycle-level
    /// `sprint-memory` model).
    pub channel_bytes_per_cycle: f64,
    /// Memory timing parameters.
    pub timing: TimingParams,
    /// Unit energies (Table II).
    pub energies: UnitEnergies,
}

impl SprintConfig {
    /// S-SPRINT: 1 CORELET, 16 KB.
    pub fn small() -> Self {
        SprintConfig::sized("S-SPRINT", 1, 16, 8, 64, 512)
    }

    /// M-SPRINT: 2 CORELETs, 32 KB.
    pub fn medium() -> Self {
        SprintConfig::sized("M-SPRINT", 2, 32, 16, 128, 1024)
    }

    /// L-SPRINT: 4 CORELETs, 64 KB.
    pub fn large() -> Self {
        SprintConfig::sized("L-SPRINT", 4, 64, 32, 256, 2048)
    }

    /// All three studied configurations, small to large.
    pub fn all() -> Vec<SprintConfig> {
        vec![
            SprintConfig::small(),
            SprintConfig::medium(),
            SprintConfig::large(),
        ]
    }

    fn sized(
        name: &'static str,
        corelets: usize,
        onchip_kib: usize,
        banks: usize,
        query_buffer_bytes: usize,
        index_buffer_bytes: usize,
    ) -> Self {
        SprintConfig {
            name,
            corelets,
            onchip_kib,
            banks,
            query_buffer_bytes,
            index_buffer_bytes,
            head_dim: 64,
            channels_per_corelet: 16,
            channel_bytes_per_cycle: 6.5,
            timing: TimingParams::default(),
            energies: UnitEnergies::default(),
        }
    }

    /// On-chip capacity in key/value vector *pairs*: half the cache
    /// holds keys, half values; one vector is `head_dim` bytes.
    pub fn kv_capacity_pairs(&self) -> usize {
        (self.onchip_kib * 1024) / (2 * self.head_dim)
    }

    /// Total memory channels across CORELETs.
    pub fn total_channels(&self) -> usize {
        self.channels_per_corelet * self.corelets
    }

    /// Aggregate memory bandwidth in bytes per cycle.
    pub fn memory_bytes_per_cycle(&self) -> f64 {
        self.total_channels() as f64 * self.channel_bytes_per_cycle
    }

    /// Cycles to move one K/V pair (K LSB + V payload plus the MSB
    /// nibbles from the transposable array) over the channels.
    pub fn cycles_per_pair(&self) -> f64 {
        (2 * self.head_dim) as f64 / self.memory_bytes_per_cycle()
    }

    /// The area model matching this configuration.
    pub fn area(&self) -> AreaModel {
        match self.corelets {
            1 => AreaModel::s_sprint(),
            2 => AreaModel::m_sprint(),
            _ => AreaModel::l_sprint(),
        }
    }

    /// The matching `sprint-memory` geometry.
    pub fn memory_geometry(&self) -> MemoryGeometry {
        MemoryGeometry {
            channels: self.total_channels(),
            banks_per_channel: 8,
            vectors_per_row: 32,
            rows_per_bank: 4096,
            bytes_per_fetch: 2 * self.head_dim,
            bursts_per_fetch: (2 * self.head_dim).div_ceil(32),
        }
    }
}

impl std::fmt::Display for SprintConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}:", self.name)?;
        writeln!(f, "  CORELETs               {}", self.corelets)?;
        writeln!(
            f,
            "  ReRAM BW               {}x64-bit channels @ 1 GHz per CORELET",
            self.channels_per_corelet
        )?;
        writeln!(
            f,
            "  On-chip cache          {} KB K/V buffers ({} banks)",
            self.onchip_kib, self.banks
        )?;
        writeln!(
            f,
            "  QK-PU / V-PU           {} EA of 1-D {}-way 8x8-b MAC",
            self.corelets, self.head_dim
        )?;
        writeln!(
            f,
            "  Softmax                {} EA, 12-b in / 8-b out, 2x64B LUTs, 2 dividers",
            self.corelets
        )?;
        writeln!(f, "  Query buffer           {} B", self.query_buffer_bytes)?;
        write!(f, "  Index buffer           {} B", self.index_buffer_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_presets() {
        let s = SprintConfig::small();
        let m = SprintConfig::medium();
        let l = SprintConfig::large();
        assert_eq!((s.corelets, s.onchip_kib, s.banks), (1, 16, 8));
        assert_eq!((m.corelets, m.onchip_kib, m.banks), (2, 32, 16));
        assert_eq!((l.corelets, l.onchip_kib, l.banks), (4, 64, 32));
        assert_eq!(s.query_buffer_bytes, 64);
        assert_eq!(m.query_buffer_bytes, 128);
        assert_eq!(l.query_buffer_bytes, 256);
        assert_eq!(s.index_buffer_bytes, 512);
        assert_eq!(l.index_buffer_bytes, 2048);
    }

    #[test]
    fn capacity_in_pairs_matches_cache_size() {
        // 16 KB / (2 x 64 B) = 128 pairs.
        assert_eq!(SprintConfig::small().kv_capacity_pairs(), 128);
        assert_eq!(SprintConfig::medium().kv_capacity_pairs(), 256);
        assert_eq!(SprintConfig::large().kv_capacity_pairs(), 512);
    }

    #[test]
    fn bandwidth_scales_with_corelets() {
        let s = SprintConfig::small();
        let l = SprintConfig::large();
        assert_eq!(s.total_channels(), 16);
        assert_eq!(l.total_channels(), 64);
        assert!(l.memory_bytes_per_cycle() > s.memory_bytes_per_cycle());
        assert!(l.cycles_per_pair() < s.cycles_per_pair());
    }

    #[test]
    fn derived_configs_are_consistent() {
        for cfg in SprintConfig::all() {
            let geom = cfg.memory_geometry();
            geom.validate().unwrap();
            assert_eq!(geom.channels, cfg.total_channels());
        }
    }

    #[test]
    fn display_mentions_table_one_fields() {
        let text = SprintConfig::small().to_string();
        assert!(text.contains("S-SPRINT"));
        assert!(text.contains("16 KB"));
        assert!(text.contains("64-way"));
        assert!(text.contains("Query buffer"));
    }

    #[test]
    fn area_model_matches_configuration() {
        assert!(
            SprintConfig::small().area().total_mm2() < SprintConfig::large().area().total_mm2()
        );
        let m = SprintConfig::medium().area();
        assert!(
            (m.total_mm2() - 1.9).abs() / 1.9 < 0.05,
            "Table III: 1.9 mm^2"
        );
    }
}
