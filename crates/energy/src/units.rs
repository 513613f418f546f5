//! Per-operation unit energies (Table II of the paper) and the ADC cost
//! model discussed in §III.

use crate::Energy;

/// Post-layout unit energies of the major SPRINT microarchitectural units.
///
/// Values are taken verbatim from Table II of the paper (65 nm TSMC,
/// 1 GHz post-layout simulation) and from the §VII prose:
///
/// | Unit | Energy |
/// |---|---|
/// | QK-PU / V-PU dot product (8-bit, 64-tap) | 192.56 pJ |
/// | Key/Value buffer access (4 banks × 128-bit) | 256 pJ |
/// | Softmax (2 LUT accesses + multiply + division) | 89.8 pJ |
/// | Analog comparators (128 columns) | 5.34 pJ |
/// | In-memory computation (64 rows × 128 columns) | 833.6 pJ |
/// | ReRAM access (512 bits) | write 12 492.8 pJ / read 1 587.2 pJ |
///
/// The ReRAM per-bit costs (3.1 pJ/bit read, 24.4 pJ/bit write) and the
/// 0.10 pJ/MAC in-memory dot-product cost (including DAC) appear in the
/// §VII methodology text and are consistent with the table.
///
/// # Example
///
/// ```
/// use sprint_energy::UnitEnergies;
///
/// let u = UnitEnergies::default();
/// // One full 64x128 in-memory op plus its comparator bank:
/// let per_query = u.in_memory_computation + u.analog_comparator_bank;
/// assert!(per_query.as_pj() < u.reram_read_bits(128 * 64 * 8).as_pj());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitEnergies {
    /// One 8-bit, 64-tap dot product on the QK-PU or V-PU: 192.56 pJ.
    pub qk_pu_dot_product: Energy,
    /// One K/V buffer access: 4 banks with 128-bit access per bank
    /// (512 bits total): 256 pJ.
    pub kv_buffer_access: Energy,
    /// One softmax evaluation: 2 LUT accesses + multiply + division: 89.8 pJ.
    pub softmax: Energy,
    /// One firing of the 128-column analog comparator bank: 5.34 pJ
    /// (41 fJ per comparator, per §VII).
    pub analog_comparator_bank: Energy,
    /// One in-memory vector-matrix operation over a 64-row × 128-column
    /// crossbar, including digital-to-analog conversion: 833.6 pJ
    /// (0.10 pJ/MAC at 65 nm, per Cai et al.).
    pub in_memory_computation: Energy,
    /// ReRAM standard read of 512 bits: 1587.2 pJ (3.1 pJ/bit).
    pub reram_read_512b: Energy,
    /// ReRAM standard write of 512 bits: 12 492.8 pJ (24.4 pJ/bit).
    pub reram_write_512b: Energy,
    /// Single analog comparator: 41 fJ.
    pub analog_comparator: Energy,
    /// In-memory MAC including DAC: 0.10 pJ.
    pub in_memory_mac: Energy,
}

impl Default for UnitEnergies {
    fn default() -> Self {
        UnitEnergies {
            qk_pu_dot_product: Energy::from_pj(192.56),
            kv_buffer_access: Energy::from_pj(256.0),
            softmax: Energy::from_pj(89.8),
            analog_comparator_bank: Energy::from_pj(5.34),
            in_memory_computation: Energy::from_pj(833.6),
            reram_read_512b: Energy::from_pj(1587.2),
            reram_write_512b: Energy::from_pj(12492.8),
            analog_comparator: Energy::from_fj(41.0),
            in_memory_mac: Energy::from_pj(0.10),
        }
    }
}

impl UnitEnergies {
    /// Returns the energy of a ReRAM standard read of `bits` bits.
    ///
    /// Linearly scales the 512-bit access energy of Table II
    /// (3.1 pJ/bit); partial accesses still pay proportionally, matching
    /// the paper's per-bit accounting.
    pub fn reram_read_bits(&self, bits: u64) -> Energy {
        self.reram_read_512b * (bits as f64 / 512.0)
    }

    /// Returns the energy of a ReRAM standard write of `bits` bits.
    pub fn reram_write_bits(&self, bits: u64) -> Energy {
        self.reram_write_512b * (bits as f64 / 512.0)
    }

    /// Returns the energy of an on-chip K/V buffer access of `bits` bits.
    ///
    /// Scales the 512-bit (4 × 128-bit bank) access of Table II.
    pub fn buffer_access_bits(&self, bits: u64) -> Energy {
        self.kv_buffer_access * (bits as f64 / 512.0)
    }

    /// Returns the energy of an in-memory dot product over a crossbar
    /// region of `rows × cols` cells, including DAC.
    pub fn in_memory_op(&self, rows: usize, cols: usize) -> Energy {
        self.in_memory_mac * (rows as f64 * cols as f64)
    }
}

/// Relative cost model of analog-to-digital converters, used for the
/// design-choice analysis in §III (challenge ② "ADC converter overhead").
///
/// The paper cites a 5-bit ADC as >20× the power and >30× the area of a
/// 1-bit ADC (implemented as a comparator). SPRINT's decision to threshold
/// in analog and emit 1-bit pruning flags rests on this asymmetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdcCostModel {
    /// Power of a b-bit flash ADC relative to a 1-bit comparator,
    /// modelled as `2^b / 2` (doubling per bit), which reproduces the
    /// paper's ">20×" at 5 bits (2⁵/2 = 16 is the floor; calibrated
    /// multiplier below lifts it above 20).
    pub power_per_level: f64,
    /// Area of a b-bit flash ADC relative to a 1-bit comparator.
    pub area_per_level: f64,
}

impl Default for AdcCostModel {
    fn default() -> Self {
        // Flash ADCs need 2^b - 1 comparators plus an encoder. Calibrate
        // the per-level coefficients so that 5 bits lands at the paper's
        // cited >20x power and >30x area.
        AdcCostModel {
            power_per_level: 20.8 / 31.0,
            // 31.0 / 31.0: one comparator-area per level.
            area_per_level: 1.0,
        }
    }
}

impl AdcCostModel {
    /// Relative power of a `bits`-bit flash ADC vs a 1-bit comparator.
    ///
    /// A `bits`-bit flash ADC uses `2^bits - 1` comparator slices.
    pub fn relative_power(&self, bits: u32) -> f64 {
        let levels = (1u64 << bits) as f64 - 1.0;
        (levels * self.power_per_level).max(1.0)
    }

    /// Relative area of a `bits`-bit flash ADC vs a 1-bit comparator.
    pub fn relative_area(&self, bits: u32) -> f64 {
        let levels = (1u64 << bits) as f64 - 1.0;
        (levels * self.area_per_level).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_two_constants_match_paper() {
        let u = UnitEnergies::default();
        assert_eq!(u.qk_pu_dot_product.as_pj(), 192.56);
        assert_eq!(u.kv_buffer_access.as_pj(), 256.0);
        assert_eq!(u.softmax.as_pj(), 89.8);
        assert_eq!(u.analog_comparator_bank.as_pj(), 5.34);
        assert_eq!(u.in_memory_computation.as_pj(), 833.6);
        assert_eq!(u.reram_read_512b.as_pj(), 1587.2);
        assert_eq!(u.reram_write_512b.as_pj(), 12492.8);
    }

    #[test]
    fn per_bit_costs_match_prose() {
        let u = UnitEnergies::default();
        // 3.1 pJ/bit read and 24.4 pJ/bit write from section VII.
        assert!((u.reram_read_bits(1).as_pj() - 3.1).abs() < 0.01);
        assert!((u.reram_write_bits(1).as_pj() - 24.4).abs() < 0.01);
    }

    #[test]
    fn read_energy_scales_linearly() {
        let u = UnitEnergies::default();
        let one = u.reram_read_bits(512);
        let two = u.reram_read_bits(1024);
        assert!((two.as_pj() - 2.0 * one.as_pj()).abs() < 1e-9);
    }

    #[test]
    fn in_memory_op_matches_table_entry() {
        let u = UnitEnergies::default();
        // 64 x 128 at 0.10 pJ/MAC = 819.2 pJ; Table II reports 833.6 pJ
        // because of DAC overhead. Accept the table value as the op cost
        // and the per-MAC value for scaled regions.
        assert!(u.in_memory_op(64, 128).as_pj() <= u.in_memory_computation.as_pj());
        assert!((u.in_memory_op(64, 128).as_pj() - 819.2).abs() < 1e-9);
    }

    #[test]
    fn adc_cost_ratios_match_cited_asymmetry() {
        let m = AdcCostModel::default();
        assert!(
            m.relative_power(5) > 20.0,
            "paper cites >20x power at 5 bits"
        );
        assert!(m.relative_area(5) > 30.0, "paper cites >30x area at 5 bits");
        assert_eq!(m.relative_power(1), 1.0);
        assert_eq!(m.relative_area(1), 1.0);
        // Monotone in bit count.
        for b in 1..8 {
            assert!(m.relative_power(b + 1) >= m.relative_power(b));
            assert!(m.relative_area(b + 1) >= m.relative_area(b));
        }
    }
}
