//! Clock-domain and memory timing parameters (§V of the paper).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// The SPRINT digital clock: 1 GHz (Table I, "@ 1 GHz").
pub const DEFAULT_CLOCK_HZ: f64 = 1.0e9;

/// A duration measured in clock cycles.
///
/// # Example
///
/// ```
/// use sprint_energy::{Cycles, DEFAULT_CLOCK_HZ};
///
/// let lat = Cycles::new(8);
/// assert_eq!(lat.as_u64(), 8);
/// assert!((lat.as_seconds(DEFAULT_CLOCK_HZ) - 8e-9).abs() < 1e-18);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    pub fn new(n: u64) -> Self {
        Cycles(n)
    }

    /// Returns the raw cycle count.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Converts to seconds at the given clock frequency.
    pub fn as_seconds(self, clock_hz: f64) -> f64 {
        self.0 as f64 / clock_hz
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Returns the larger of two cycle counts.
    pub fn max(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.max(rhs.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    /// # Panics
    ///
    /// Panics in debug builds on underflow, like integer subtraction.
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

/// Memory timing constraints observed by the SPRINT memory controller.
///
/// The conventional constraints follow DDR-style semantics; `t_ax_th` is
/// the constraint the paper introduces between a `CopyQ` that starts
/// in-memory thresholding and the `ReadP` that collects the binary
/// pruning vector ("<8 cycles" per the paper's circuit simulations, §V-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingParams {
    /// Row-activate to column-access delay.
    pub t_rcd: Cycles,
    /// Row precharge time.
    pub t_rp: Cycles,
    /// Column-access (CAS) latency; also the data-bus occupancy of a
    /// `CopyQ` burst, which bypasses row activation.
    pub t_cl: Cycles,
    /// Minimum spacing between row activations to *different* banks.
    pub t_rrd: Cycles,
    /// Sliding window in which at most four activations may be issued
    /// (four-activation window).
    pub t_faw: Cycles,
    /// In-memory thresholding latency between `CopyQ` (start bit set)
    /// and the earliest legal `ReadP`.
    pub t_ax_th: Cycles,
    /// Data-burst length in cycles for a standard read/write.
    pub t_burst: Cycles,
}

impl Default for TimingParams {
    /// Conservative DDR-like defaults at the 1 GHz SPRINT clock, with the
    /// paper's `tAxTh = 8` bound.
    fn default() -> Self {
        TimingParams {
            t_rcd: Cycles::new(14),
            t_rp: Cycles::new(14),
            t_cl: Cycles::new(14),
            t_rrd: Cycles::new(4),
            t_faw: Cycles::new(20),
            t_ax_th: Cycles::new(8),
            t_burst: Cycles::new(4),
        }
    }
}

impl TimingParams {
    /// Validates internal consistency of the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated relation:
    /// `t_faw >= t_rrd` (the four-activation window cannot be shorter
    /// than the activate-to-activate spacing) and all values non-zero
    /// except `t_ax_th` (which may be zero for an ideal-analog ablation).
    pub fn validate(&self) -> Result<(), String> {
        if self.t_faw < self.t_rrd {
            return Err(format!(
                "t_faw ({}) must be >= t_rrd ({})",
                self.t_faw, self.t_rrd
            ));
        }
        for (name, v) in [
            ("t_rcd", self.t_rcd),
            ("t_rp", self.t_rp),
            ("t_cl", self.t_cl),
            ("t_rrd", self.t_rrd),
            ("t_burst", self.t_burst),
        ] {
            if v == Cycles::ZERO {
                return Err(format!("{name} must be non-zero"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_arithmetic() {
        let a = Cycles::new(10);
        let b = Cycles::new(4);
        assert_eq!((a + b).as_u64(), 14);
        assert_eq!((a - b).as_u64(), 6);
        assert_eq!((a * 3).as_u64(), 30);
        assert_eq!(a.max(b), a);
        assert_eq!(b.saturating_sub(a), Cycles::ZERO);
        let total: Cycles = [a, b, b].into_iter().sum();
        assert_eq!(total.as_u64(), 18);
    }

    #[test]
    fn cycles_convert_to_seconds() {
        let c = Cycles::new(1000);
        assert!((c.as_seconds(DEFAULT_CLOCK_HZ) - 1e-6).abs() < 1e-15);
    }

    #[test]
    fn default_params_are_valid() {
        let p = TimingParams::default();
        p.validate().expect("defaults must validate");
        assert_eq!(p.t_ax_th, Cycles::new(8), "paper: tAxTh < 8 cycles");
    }

    #[test]
    fn validation_rejects_inconsistent_windows() {
        let p = TimingParams {
            t_faw: Cycles::new(2),
            t_rrd: Cycles::new(4),
            ..TimingParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_rejects_zero_core_timings() {
        let p = TimingParams {
            t_rcd: Cycles::ZERO,
            ..TimingParams::default()
        };
        assert!(p.validate().is_err());
    }
}
