//! The [`Energy`] newtype: a quantity of energy in picojoules.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A quantity of energy, stored in picojoules.
///
/// All unit energies in the SPRINT paper (Table II) are reported in
/// picojoules, so this newtype keeps every intermediate value in the same
/// unit and only converts for display. Negative energies are representable
/// (differences) but never produced by the cost model itself.
///
/// # Example
///
/// ```
/// use sprint_energy::Energy;
///
/// let read = Energy::from_pj(1587.2);
/// let write = Energy::from_pj(12492.8);
/// assert!(write > read);
/// assert_eq!((read + write).as_pj(), 1587.2 + 12492.8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy value from picojoules.
    pub fn from_pj(pj: f64) -> Self {
        Energy(pj)
    }

    /// Creates an energy value from femtojoules.
    pub fn from_fj(fj: f64) -> Self {
        Energy(fj * 1e-3)
    }

    /// Creates an energy value from nanojoules.
    pub fn from_nj(nj: f64) -> Self {
        Energy(nj * 1e3)
    }

    /// Creates an energy value from microjoules.
    pub fn from_uj(uj: f64) -> Self {
        Energy(uj * 1e6)
    }

    /// Returns the value in picojoules.
    pub fn as_pj(self) -> f64 {
        self.0
    }

    /// Returns the value in nanojoules.
    pub fn as_nj(self) -> f64 {
        self.0 * 1e-3
    }

    /// Returns the value in microjoules.
    pub fn as_uj(self) -> f64 {
        self.0 * 1e-6
    }

    /// Returns the value in joules.
    pub fn as_joules(self) -> f64 {
        self.0 * 1e-12
    }

    /// Returns whether the value is a finite, non-negative quantity.
    pub fn is_valid(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Mul<u64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: u64) -> Energy {
        Energy(self.0 * rhs as f64)
    }
}

impl Div<f64> for Energy {
    type Output = Energy;
    fn div(self, rhs: f64) -> Energy {
        Energy(self.0 / rhs)
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, Add::add)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pj = self.0.abs();
        if pj >= 1e6 {
            write!(f, "{:.3} uJ", self.as_uj())
        } else if pj >= 1e3 {
            write!(f, "{:.3} nJ", self.as_nj())
        } else {
            write!(f, "{:.3} pJ", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips_between_units() {
        assert_eq!(Energy::from_nj(1.0).as_pj(), 1000.0);
        assert_eq!(Energy::from_uj(1.0).as_nj(), 1000.0);
        assert!((Energy::from_fj(41.0).as_pj() - 0.041).abs() < 1e-12);
        assert!((Energy::from_pj(5.0).as_joules() - 5e-12).abs() < 1e-24);
    }

    #[test]
    fn arithmetic_behaves_like_f64() {
        let a = Energy::from_pj(10.0);
        let b = Energy::from_pj(2.5);
        assert_eq!((a + b).as_pj(), 12.5);
        assert_eq!((a - b).as_pj(), 7.5);
        assert_eq!((a * 2.0).as_pj(), 20.0);
        assert_eq!((a * 3u64).as_pj(), 30.0);
        assert_eq!((a / 4.0).as_pj(), 2.5);
        let mut c = a;
        c += b;
        assert_eq!(c.as_pj(), 12.5);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Energy = (1..=4).map(|i| Energy::from_pj(i as f64)).sum();
        assert_eq!(total.as_pj(), 10.0);
    }

    #[test]
    fn display_picks_reasonable_unit() {
        assert_eq!(format!("{}", Energy::from_pj(12.0)), "12.000 pJ");
        assert_eq!(format!("{}", Energy::from_pj(1587.2)), "1.587 nJ");
        assert_eq!(format!("{}", Energy::from_uj(2.0)), "2.000 uJ");
    }

    #[test]
    fn validity_flags_negative_and_nan() {
        assert!(Energy::from_pj(1.0).is_valid());
        assert!(Energy::ZERO.is_valid());
        assert!(!(Energy::from_pj(1.0) - Energy::from_pj(2.0)).is_valid());
        assert!(!Energy::from_pj(f64::NAN).is_valid());
    }
}
