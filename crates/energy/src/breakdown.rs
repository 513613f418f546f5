//! Energy accounting by microarchitectural category (Fig. 13).

use std::fmt;
use std::ops::{Add, AddAssign};

use crate::Energy;

/// The eight energy categories of the paper's Fig. 13 breakdown.
///
/// Every joule spent by either the baseline design or SPRINT is attributed
/// to exactly one of these buckets, so that reductions can be reported as
/// ratios over identical category sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Standard ReRAM (main memory) reads of Q / K / V data.
    ReramRead,
    /// Standard ReRAM writes (storing embeddings, incl. K MSB/LSB split).
    ReramWrite,
    /// In-ReRAM pruning: analog dot products, comparators, 1-bit ADCs,
    /// CopyQ/ReadP transfers.
    InReramPruning,
    /// On-chip K/V/Q buffer reads.
    OnChipRead,
    /// On-chip K/V/Q buffer writes.
    OnChipWrite,
    /// QK-PU digital dot products (score recompute).
    QkPu,
    /// V-PU digital dot products (weighted-sum of values).
    VPu,
    /// Softmax unit (LUTs, multipliers, dividers).
    Softmax,
}

impl Category {
    /// All categories, in the order Fig. 13 stacks them.
    pub const ALL: [Category; 8] = [
        Category::ReramRead,
        Category::ReramWrite,
        Category::InReramPruning,
        Category::OnChipRead,
        Category::OnChipWrite,
        Category::QkPu,
        Category::VPu,
        Category::Softmax,
    ];

    /// A short, stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Category::ReramRead => "ReRAM Read",
            Category::ReramWrite => "ReRAM Write",
            Category::InReramPruning => "In-ReRAM Pruning",
            Category::OnChipRead => "On-Chip Read",
            Category::OnChipWrite => "On-Chip Write",
            Category::QkPu => "QK-PU",
            Category::VPu => "V-PU",
            Category::Softmax => "Softmax",
        }
    }

    fn index(self) -> usize {
        match self {
            Category::ReramRead => 0,
            Category::ReramWrite => 1,
            Category::InReramPruning => 2,
            Category::OnChipRead => 3,
            Category::OnChipWrite => 4,
            Category::QkPu => 5,
            Category::VPu => 6,
            Category::Softmax => 7,
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// An energy ledger keyed by [`Category`].
///
/// Backed by a fixed array so accumulation in simulator hot loops is
/// allocation-free.
///
/// # Example
///
/// ```
/// use sprint_energy::{Category, Energy, EnergyBreakdown};
///
/// let mut bd = EnergyBreakdown::new();
/// bd.charge(Category::QkPu, Energy::from_pj(192.56));
/// bd.charge(Category::Softmax, Energy::from_pj(89.8));
/// let total = bd.total();
/// assert!((total.as_pj() - 282.36).abs() < 1e-9);
/// let frac = bd.fraction(Category::QkPu);
/// assert!(frac > 0.6 && frac < 0.7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    buckets: [Energy; 8],
}

impl EnergyBreakdown {
    /// Creates an empty breakdown (all categories zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records (accumulates) `amount` of energy against `category`.
    pub fn charge(&mut self, category: Category, amount: Energy) {
        self.buckets[category.index()] += amount;
    }

    /// Returns the energy attributed to `category`.
    pub fn get(&self, category: Category) -> Energy {
        self.buckets[category.index()]
    }

    /// Returns the total over all categories.
    pub fn total(&self) -> Energy {
        self.buckets.iter().copied().sum()
    }

    /// Returns the fraction of the total attributed to `category`.
    ///
    /// Returns 0.0 when the total is zero.
    pub fn fraction(&self, category: Category) -> f64 {
        let total = self.total().as_pj();
        if total == 0.0 {
            0.0
        } else {
            self.get(category).as_pj() / total
        }
    }

    /// Returns the summed energy of the main-memory categories
    /// (ReRAM read + write), the numerator of Fig. 1.
    pub fn memory_access(&self) -> Energy {
        self.get(Category::ReramRead) + self.get(Category::ReramWrite)
    }

    /// Returns this breakdown with every bucket scaled by `factor`.
    ///
    /// Used to average per-layer breakdowns over a model.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> EnergyBreakdown {
        let mut out = *self;
        for b in &mut out.buckets {
            *b = *b * factor;
        }
        out
    }

    /// Iterates over `(category, energy)` pairs in display order.
    pub fn iter(&self) -> impl Iterator<Item = (Category, Energy)> + '_ {
        Category::ALL.iter().map(move |&c| (c, self.get(c)))
    }

    /// Returns each bucket normalized against an external reference total
    /// (Fig. 13 normalizes pruning-only and SPRINT stacks to the baseline
    /// total).
    pub fn normalized_to(&self, reference: Energy) -> Vec<(Category, f64)> {
        let denom = reference.as_pj();
        Category::ALL
            .iter()
            .map(|&c| {
                let f = if denom == 0.0 {
                    0.0
                } else {
                    self.get(c).as_pj() / denom
                };
                (c, f)
            })
            .collect()
    }
}

impl Add for EnergyBreakdown {
    type Output = EnergyBreakdown;
    fn add(self, rhs: EnergyBreakdown) -> EnergyBreakdown {
        let mut out = self;
        out += rhs;
        out
    }
}

impl AddAssign for EnergyBreakdown {
    fn add_assign(&mut self, rhs: EnergyBreakdown) {
        for (a, b) in self.buckets.iter_mut().zip(rhs.buckets.iter()) {
            *a += *b;
        }
    }
}

impl fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total();
        writeln!(f, "total: {total}")?;
        for (c, e) in self.iter() {
            writeln!(
                f,
                "  {:<18} {:>14}  ({:5.1}%)",
                c.label(),
                e.to_string(),
                self.fraction(c) * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EnergyBreakdown {
        let mut bd = EnergyBreakdown::new();
        bd.charge(Category::ReramRead, Energy::from_pj(100.0));
        bd.charge(Category::ReramWrite, Energy::from_pj(50.0));
        bd.charge(Category::QkPu, Energy::from_pj(30.0));
        bd.charge(Category::Softmax, Energy::from_pj(20.0));
        bd
    }

    #[test]
    fn total_is_sum_of_categories() {
        let bd = sample();
        assert_eq!(bd.total().as_pj(), 200.0);
        let by_iter: f64 = bd.iter().map(|(_, e)| e.as_pj()).sum();
        assert_eq!(by_iter, 200.0);
    }

    #[test]
    fn fractions_sum_to_one() {
        let bd = sample();
        let s: f64 = Category::ALL.iter().map(|&c| bd.fraction(c)).sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn memory_access_combines_reads_and_writes() {
        let bd = sample();
        assert_eq!(bd.memory_access().as_pj(), 150.0);
    }

    #[test]
    fn empty_breakdown_has_zero_fractions() {
        let bd = EnergyBreakdown::new();
        assert_eq!(bd.total(), Energy::ZERO);
        assert_eq!(bd.fraction(Category::QkPu), 0.0);
    }

    #[test]
    fn add_merges_bucketwise() {
        let merged = sample() + sample();
        assert_eq!(merged.total().as_pj(), 400.0);
        assert_eq!(merged.get(Category::QkPu).as_pj(), 60.0);
    }

    #[test]
    fn scaled_multiplies_every_bucket() {
        let bd = sample().scaled(0.5);
        assert_eq!(bd.total().as_pj(), 100.0);
        assert_eq!(bd.get(Category::ReramRead).as_pj(), 50.0);
    }

    #[test]
    fn normalized_to_uses_external_reference() {
        let bd = sample();
        let norm = bd.normalized_to(Energy::from_pj(400.0));
        let total: f64 = norm.iter().map(|(_, f)| f).sum();
        assert!((total - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_every_category() {
        let s = format!("{}", sample());
        for c in Category::ALL {
            assert!(s.contains(c.label()), "missing {c}");
        }
    }
}
