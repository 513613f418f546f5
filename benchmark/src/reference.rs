//! The benchmark's own dense reference: exact softmax attention in f64.
//!
//! Written here, not taken from the repository's reference pipelines, so
//! that deleting or changing those can never stop the comparison from
//! building or silently move what `output_rel_err` is measured against.

use sprint_workloads::HeadTrace;

/// `softmax(scale · Q Kᵀ) V` in f64. `q` holds `s_q` rows of `d`
/// values, `k` holds `s_k` rows of `d`, `v` holds `s_k` rows of `d_v`; a
/// single query is the `s_q = 1` case. Returns `s_q` rows of `d_v`.
pub fn dense_attention_f64(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    d: usize,
    d_v: usize,
    scale: f32,
) -> Vec<f64> {
    let (s_q, s_k) = (q.len() / d, k.len() / d);
    assert_eq!(v.len(), s_k * d_v, "one value row per key row");
    let mut out = vec![0.0f64; s_q * d_v];
    let mut scores = vec![0.0f64; s_k];
    for i in 0..s_q {
        let qi = &q[i * d..(i + 1) * d];
        let mut max = f64::NEG_INFINITY;
        for (j, s) in scores.iter_mut().enumerate() {
            let kj = &k[j * d..(j + 1) * d];
            let dot: f64 = qi.iter().zip(kj).map(|(&a, &b)| a as f64 * b as f64).sum();
            *s = dot * scale as f64;
            max = max.max(*s);
        }
        let mut sum = 0.0f64;
        for s in scores.iter_mut() {
            *s = (*s - max).exp();
            sum += *s;
        }
        let row = &mut out[i * d_v..(i + 1) * d_v];
        for (j, &p) in scores.iter().enumerate() {
            let w = p / sum;
            for (o, &x) in row.iter_mut().zip(&v[j * d_v..(j + 1) * d_v]) {
                *o += w * x as f64;
            }
        }
    }
    out
}

/// Relative L2 error of every output row (one per query) against its
/// reference row; the metric is their median.
///
/// A row's error depends mostly on the trace it came from (its learned
/// threshold), and one bad trace in eight dominates an error pooled over
/// all rows: across seeds the pooled error moves by a third, the median
/// row's by a few percent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RelErr {
    rows: Vec<f64>,
}

impl RelErr {
    /// Adds the rows of `out` (`d_v` values each) against `reference`.
    pub fn add(&mut self, out: &[f32], reference: &[f64], d_v: usize) {
        assert_eq!(out.len(), reference.len(), "output and reference shapes");
        for (o, r) in out.chunks_exact(d_v).zip(reference.chunks_exact(d_v)) {
            let diff_sq: f64 = o.iter().zip(r).map(|(&o, &r)| (o as f64 - r).powi(2)).sum();
            let ref_sq: f64 = r.iter().map(|r| r * r).sum();
            self.rows.push((diff_sq / ref_sq).sqrt());
        }
    }

    /// Adds the live rows of a head's `output` (`seq_len` rows) against
    /// dense attention over the trace's live region.
    pub fn add_head(&mut self, trace: &HeadTrace, output: &[f32]) {
        let live = trace.live_tokens();
        let (d, d_v) = (trace.q().cols(), trace.v().cols());
        let reference = dense_attention_f64(
            &trace.q().as_slice()[..live * d],
            &trace.k().as_slice()[..live * d],
            &trace.v().as_slice()[..live * d_v],
            d,
            d_v,
            trace.config().scale(),
        );
        self.add(&output[..live * d_v], &reference, d_v);
    }

    /// Adds decode step `t`'s output row against single-query attention
    /// over the history that step saw (tokens `0..=t`).
    pub fn add_step(&mut self, trace: &HeadTrace, t: usize, output: &[f32]) {
        let (d, d_v) = (trace.q().cols(), trace.v().cols());
        let reference = dense_attention_f64(
            trace.q().row(t),
            &trace.k().as_slice()[..(t + 1) * d],
            &trace.v().as_slice()[..(t + 1) * d_v],
            d,
            d_v,
            trace.config().scale(),
        );
        self.add(output, &reference, d_v);
    }

    /// `‖out − reference‖₂ / ‖reference‖₂` of the median row.
    pub fn median(&self) -> f64 {
        crate::stats::median(&self.rows)
    }

    /// The same of the worst row.
    pub fn max(&self) -> f64 {
        self.rows.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_scores_average_the_values() {
        // Orthogonal query: every score 0, so the output is the mean of V.
        let q = [1.0, 0.0];
        let k = [0.0, 1.0, 0.0, 2.0, 0.0, -1.0];
        let v = [3.0, 6.0, 9.0];
        let out = dense_attention_f64(&q, &k, &v, 2, 1, 0.5);
        assert!((out[0] - 6.0).abs() < 1e-12);
    }

    #[test]
    fn a_dominant_key_wins_and_rows_are_independent() {
        let q = [10.0, 0.0, 0.0, 10.0];
        let k = [10.0, 0.0, 0.0, 10.0];
        let v = [1.0, 2.0, 3.0, 4.0];
        let out = dense_attention_f64(&q, &k, &v, 2, 2, 1.0);
        assert!((out[0] - 1.0).abs() < 1e-9 && (out[1] - 2.0).abs() < 1e-9);
        assert!((out[2] - 3.0).abs() < 1e-9 && (out[3] - 4.0).abs() < 1e-9);
        // Two-key softmax by hand.
        let out = dense_attention_f64(&[1.0], &[1.0, 0.0], &[1.0, 0.0], 1, 1, 1.0);
        let e = 1f64.exp();
        assert!((out[0] - e / (e + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn relative_error_is_per_row() {
        let mut e = RelErr::default();
        e.add(&[1.0, 0.0, 3.0, 4.0], &[1.0, 0.0, 3.0, 4.0], 2);
        assert_eq!((e.median(), e.max()), (0.0, 0.0));
        e.add(&[0.0, 0.0], &[0.0, 2.0], 2);
        assert_eq!((e.median(), e.max()), (0.0, 1.0));
        e.add(&[3.0, 0.0], &[3.0, 4.0], 2);
        e.add(&[3.0, 0.0], &[3.0, 4.0], 2);
        assert!((e.median() - 0.8).abs() < 1e-12);
    }
}
