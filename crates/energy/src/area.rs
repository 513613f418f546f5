//! Area/floorplan model (Fig. 14, Table III) and Dennard scaling.

/// Area of one named floorplan component, in mm² at 65 nm.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentArea {
    /// Component name as it appears on the Fig. 14 floorplan.
    pub name: String,
    /// Silicon area in mm².
    pub area_mm2: f64,
}

/// Area model of a SPRINT on-chip accelerator plus its ReRAM in-memory
/// thresholding overhead.
///
/// Calibrated against two anchors from the paper:
///
/// * Fig. 14: the S-SPRINT layout occupies 1.18 × 0.8 mm² = 0.944 mm²
///   including 16 KB of SRAM, and the estimated ReRAM in-memory area is
///   about 6 % of that.
/// * Table III: M-SPRINT totals 1.9 mm² with the in-memory thresholding
///   area ("only 3 % of total") included.
///
/// # Example
///
/// ```
/// use sprint_energy::AreaModel;
///
/// let s = AreaModel::s_sprint();
/// assert!((s.total_mm2() - 0.944).abs() / 0.944 < 0.05);
/// let m = AreaModel::m_sprint();
/// assert!((m.total_mm2() - 1.9).abs() / 1.9 < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AreaModel {
    /// Number of CORELETs (1, 2 or 4 for S/M/L).
    pub corelets: usize,
    /// Total on-chip K/V buffer capacity in KiB (16/32/64 for S/M/L).
    pub sram_kib: usize,
    /// ReRAM in-memory thresholding overhead in mm² (transposable array
    /// peripheral circuitry attributable to SPRINT).
    pub reram_overhead_mm2: f64,
}

/// Per-CORELET digital logic area at 65 nm, in mm² (QK-PU + V-PU +
/// softmax + control), derived from the S-SPRINT floorplan after
/// removing the SRAM macro and ReRAM overhead estimates.
const LOGIC_PER_CORELET_MM2: f64 = 0.52;

/// SRAM macro density at 65 nm, mm² per KiB (high-density single-port,
/// ARM memory compiler class), fitted to the same anchors.
const SRAM_MM2_PER_KIB: f64 = 0.0235;

impl AreaModel {
    /// The S-SPRINT floorplan: 1 CORELET, 16 KB SRAM (Fig. 14).
    pub fn s_sprint() -> Self {
        AreaModel {
            corelets: 1,
            sram_kib: 16,
            reram_overhead_mm2: 0.056,
        }
    }

    /// The M-SPRINT floorplan: 2 CORELETs, 32 KB SRAM (Table III: 1.9 mm²).
    pub fn m_sprint() -> Self {
        AreaModel {
            corelets: 2,
            sram_kib: 32,
            reram_overhead_mm2: 0.056,
        }
    }

    /// The L-SPRINT floorplan: 4 CORELETs, 64 KB SRAM.
    pub fn l_sprint() -> Self {
        AreaModel {
            corelets: 4,
            sram_kib: 64,
            reram_overhead_mm2: 0.056,
        }
    }

    /// Digital logic area (all CORELETs), mm².
    pub fn logic_mm2(&self) -> f64 {
        LOGIC_PER_CORELET_MM2 * self.corelets as f64
    }

    /// SRAM area, mm².
    pub fn sram_mm2(&self) -> f64 {
        SRAM_MM2_PER_KIB * self.sram_kib as f64
    }

    /// Total area including the ReRAM in-memory thresholding overhead.
    pub fn total_mm2(&self) -> f64 {
        self.logic_mm2() + self.sram_mm2() + self.reram_overhead_mm2
    }

    /// Fraction of total area attributable to the ReRAM overhead
    /// (~6 % for S-SPRINT per Fig. 14, ~3 % for M-SPRINT per Table III).
    pub fn reram_overhead_fraction(&self) -> f64 {
        self.reram_overhead_mm2 / self.total_mm2()
    }

    /// Itemized component list for floorplan reports.
    pub fn components(&self) -> Vec<ComponentArea> {
        vec![
            ComponentArea {
                name: format!("CORELET logic x{}", self.corelets),
                area_mm2: self.logic_mm2(),
            },
            ComponentArea {
                name: format!("K/V SRAM ({} KiB)", self.sram_kib),
                area_mm2: self.sram_mm2(),
            },
            ComponentArea {
                name: "ReRAM in-memory thresholding".to_string(),
                area_mm2: self.reram_overhead_mm2,
            },
        ]
    }
}

/// Dennard-scales a per-operation metric between process nodes.
///
/// The paper uses classic Dennard scaling \[37\] to compare 65 nm SPRINT
/// with the 40 nm A3/SpAtten designs: energy per operation scales with
/// the square of the feature-size ratio, so a *throughput-per-joule*
/// metric measured at `from_nm` is multiplied by `(from_nm / to_nm)²`
/// when projected to `to_nm`.
///
/// # Example
///
/// ```
/// use sprint_energy::dennard_scale;
///
/// // Paper: 902.7 GOPs/J at 65 nm becomes ~3873.5 at 45 nm-class.
/// let scaled = dennard_scale(902.7, 65.0, 31.4);
/// assert!(scaled > 3000.0);
/// ```
///
/// # Panics
///
/// Panics if either node size is not strictly positive.
pub fn dennard_scale(metric: f64, from_nm: f64, to_nm: f64) -> f64 {
    assert!(
        from_nm > 0.0 && to_nm > 0.0,
        "process nodes must be positive"
    );
    metric * (from_nm / to_nm).powi(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s_sprint_matches_fig14_envelope() {
        let s = AreaModel::s_sprint();
        let total = s.total_mm2();
        // Fig. 14: 1.18 mm x 0.8 mm = 0.944 mm^2.
        assert!((total - 0.944).abs() / 0.944 < 0.05, "got {total}");
        // "the area overhead takes only around 6% in S-SPRINT"
        let frac = s.reram_overhead_fraction();
        assert!(frac > 0.04 && frac < 0.08, "got {frac}");
    }

    #[test]
    fn m_sprint_matches_table3_area() {
        let m = AreaModel::m_sprint();
        assert!(
            (m.total_mm2() - 1.9).abs() / 1.9 < 0.05,
            "got {}",
            m.total_mm2()
        );
        // "in-memory thresholding ... takes only 3% out of total M-SPRINT area"
        let frac = m.reram_overhead_fraction();
        assert!(frac > 0.02 && frac < 0.045, "got {frac}");
    }

    #[test]
    fn area_grows_with_configuration() {
        let s = AreaModel::s_sprint().total_mm2();
        let m = AreaModel::m_sprint().total_mm2();
        let l = AreaModel::l_sprint().total_mm2();
        assert!(s < m && m < l);
    }

    #[test]
    fn components_sum_to_total() {
        for model in [
            AreaModel::s_sprint(),
            AreaModel::m_sprint(),
            AreaModel::l_sprint(),
        ] {
            let sum: f64 = model.components().iter().map(|c| c.area_mm2).sum();
            assert!((sum - model.total_mm2()).abs() < 1e-12);
        }
    }

    #[test]
    fn dennard_scaling_is_quadratic() {
        let x = dennard_scale(100.0, 65.0, 32.5);
        assert!((x - 400.0).abs() < 1e-9);
        // Identity when nodes match.
        assert_eq!(dennard_scale(7.0, 40.0, 40.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn dennard_rejects_nonpositive_nodes() {
        dennard_scale(1.0, 0.0, 40.0);
    }
}
