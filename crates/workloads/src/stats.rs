//! Small deterministic sampling helpers (normal deviates, unit vectors).

use rand::Rng;

/// Draws one standard-normal deviate via the Box-Muller transform.
///
/// The offline dependency set has no `rand_distr`, so the two-line
/// transform lives here.
pub(crate) fn normal<R: Rng>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling the half-open interval away from zero.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Overwrites `v` with a uniformly random unit vector: i.i.d.
/// standard-normal deviates in index order, divided by their norm, with
/// a redraw of the whole vector when the norm is (numerically) zero.
pub(crate) fn unit_vec_into<R: Rng>(rng: &mut R, v: &mut [f64]) {
    loop {
        for x in v.iter_mut() {
            *x = normal(rng);
        }
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 1e-9 {
            for x in v.iter_mut() {
                *x /= norm;
            }
            return;
        }
    }
}

/// Fills a vector with i.i.d. standard-normal deviates.
#[cfg(test)]
pub(crate) fn normal_vec<R: Rng>(rng: &mut R, n: usize) -> Vec<f64> {
    (0..n).map(|_| normal(rng)).collect()
}

/// Returns a uniformly random unit vector of dimension `n`: the
/// allocating form [`unit_vec_into`] is pinned to.
#[cfg(test)]
pub(crate) fn unit_vec<R: Rng>(rng: &mut R, n: usize) -> Vec<f64> {
    loop {
        let v = normal_vec(rng, n);
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 1e-9 {
            return v.into_iter().map(|x| x / norm).collect();
        }
    }
}

/// Normalizes `v` in place to unit length; leaves an all-zero vector
/// untouched.
pub(crate) fn normalize(v: &mut [f64]) {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 1e-12 {
        for x in v {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_has_zero_mean_unit_variance() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }

    #[test]
    fn unit_vectors_have_unit_norm() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let v = unit_vec(&mut rng, 64);
            let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn unit_vectors_are_roughly_isotropic() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = unit_vec(&mut rng, 64);
        let b = unit_vec(&mut rng, 64);
        // Random high-dimensional unit vectors are nearly orthogonal.
        let dot: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!(dot.abs() < 0.5);
    }

    #[test]
    fn unit_vec_into_draws_the_allocating_form_bit_for_bit() {
        for n in [1, 2, 7, 64] {
            let (mut a, mut b) = (
                StdRng::seed_from_u64(n as u64),
                StdRng::seed_from_u64(n as u64),
            );
            let mut v = vec![f64::NAN; n];
            for _ in 0..20 {
                unit_vec_into(&mut a, &mut v);
                let expected = unit_vec(&mut b, n);
                let bits = |x: &[f64]| x.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&v), bits(&expected), "n = {n}");
            }
            assert_eq!(
                a.gen::<u64>(),
                b.gen::<u64>(),
                "n = {n}: same draws consumed"
            );
        }
    }

    #[test]
    fn normalize_handles_zero_vector() {
        let mut v = vec![0.0; 4];
        normalize(&mut v);
        assert_eq!(v, vec![0.0; 4]);
        let mut w = vec![3.0, 4.0];
        normalize(&mut w);
        assert!((w[0] - 0.6).abs() < 1e-12);
    }
}
