//! Error and recall metrics for the accuracy studies of Figs. 5 and 9.

use crate::{AttentionError, Matrix, PruneDecision};

/// Mean absolute error between two matrices, ignoring positions where
/// either side is non-finite (pruned entries carry `-inf`).
///
/// # Errors
///
/// Returns [`AttentionError::ShapeMismatch`] unless shapes match.
pub fn mean_abs_error(a: &Matrix, b: &Matrix) -> Result<f64, AttentionError> {
    if a.shape() != b.shape() {
        return Err(AttentionError::ShapeMismatch {
            op: "mean_abs_error",
            left: a.shape(),
            right: b.shape(),
        });
    }
    let mut sum = 0.0f64;
    let mut n = 0usize;
    for (&x, &y) in a.as_slice().iter().zip(b.as_slice()) {
        if x.is_finite() && y.is_finite() {
            sum += (x - y).abs() as f64;
            n += 1;
        }
    }
    Ok(if n == 0 { 0.0 } else { sum / n as f64 })
}

/// Fraction of keys kept by `reference` that are also kept by `approx`
/// (the recall of an approximate pruning decision).
///
/// A value of 1.0 means the approximate (in-memory) thresholding did
/// not falsely prune any key the precise threshold would keep — the
/// property SPRINT's negative threshold margin is designed to ensure.
///
/// Returns 1.0 when the reference keeps nothing (no key to miss).
///
/// # Panics
///
/// Panics if the decisions cover different key counts.
pub fn prune_set_overlap(reference: &PruneDecision, approx: &PruneDecision) -> f64 {
    assert_eq!(
        reference.len(),
        approx.len(),
        "decisions cover different key counts"
    );
    let ref_kept = reference.kept_count();
    if ref_kept == 0 {
        return 1.0;
    }
    reference.kept_overlap(approx) as f64 / ref_kept as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_matrices_agree_fully() {
        let a = Matrix::from_rows(&[vec![0.3, 0.7], vec![0.6, 0.4]]).unwrap();
        assert_eq!(mean_abs_error(&a, &a).unwrap(), 0.0);
    }

    #[test]
    fn mae_ignores_non_finite_entries() {
        let a = Matrix::from_rows(&[vec![f32::NEG_INFINITY, 1.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![0.0, 2.0]]).unwrap();
        assert_eq!(mean_abs_error(&a, &b).unwrap(), 1.0);
    }

    #[test]
    fn overlap_is_recall_of_reference_kept_set() {
        let reference = PruneDecision::new(vec![false, false, true, false]);
        let approx = PruneDecision::new(vec![false, true, true, false]);
        // Reference keeps {0,1,3}; approx keeps {0,3}: recall 2/3.
        assert!((prune_set_overlap(&reference, &approx) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_with_empty_reference_is_one() {
        let reference = PruneDecision::new(vec![true, true]);
        let approx = PruneDecision::new(vec![false, true]);
        assert_eq!(prune_set_overlap(&reference, &approx), 1.0);
    }
}
