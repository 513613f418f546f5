//! Estimators: percentiles, quartiles, and the host times of a timed
//! phase split into equal-count segments.

/// The quiet segments are the fastest ones that together hold this share
/// of the operations, and at least [`MIN_QUIET_OPS`] operations (so that
/// ten lie beyond the 90th percentile).
pub const QUIET_SHARE: f64 = 0.05;
pub const MIN_QUIET_OPS: usize = 100;

/// Nearest-rank percentile of an ascending slice (`pct` in `0..=100`).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First quartile, median and third quartile of `values`, by the
/// exclusive method (Python's `statistics.quantiles(values, n=4)`, which
/// the acceptance rule for this benchmark is written in).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let m = x.len();
    [1, 2, 3].map(|i| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    })
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let m = x.len();
    if m % 2 == 1 {
        x[m / 2]
    } else {
        (x[m / 2 - 1] + x[m / 2]) / 2.0
    }
}

/// One timed operation, in nanoseconds since the run's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The segments of `per` operations each that `ops` (ascending by
/// `end_ns`) splits into: each segment's completion rate (operations per
/// second) and its operations. A segment lasts from the end of the
/// segment before it (the first one from the phase's origin, time 0, so
/// that it too holds whatever the loop does before its first operation) to
/// the end of its last operation, so the segments tile the timed phase
/// and everything the loop does between operations is counted.
/// Operations left over after the last full segment are not used.
pub fn segments(ops: &[Op], per: usize) -> Vec<(f64, &[Op])> {
    let mut from = 0;
    ops.chunks_exact(per)
        .map(|chunk| {
            let to = chunk[per - 1].end_ns;
            let rate = per as f64 / ((to - from).max(1) as f64 * 1e-9);
            from = to;
            (rate, chunk)
        })
        .collect()
}

/// Throughput and latency percentiles of a set of operations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HostTimes {
    pub throughput_ops_s: f64,
    pub latency_p50_ms: f64,
    pub latency_p90_ms: f64,
    pub latency_p99_ms: f64,
}

fn latency_percentiles(ops: impl Iterator<Item = Op>, throughput_ops_s: f64) -> HostTimes {
    let mut ms: Vec<f64> = ops
        .map(|op| (op.end_ns - op.start_ns) as f64 * 1e-6)
        .collect();
    ms.sort_by(f64::total_cmp);
    let at = |pct| {
        if ms.is_empty() {
            0.0
        } else {
            percentile(&ms, pct)
        }
    };
    HostTimes {
        throughput_ops_s,
        latency_p50_ms: at(50.0),
        latency_p90_ms: at(90.0),
        latency_p99_ms: at(99.0),
    }
}

/// One timed phase: host times of the whole of it (median segment rate,
/// percentiles over every operation) and of its quiet part, the fastest
/// segments, [`QUIET_SHARE`] of them (the slowest rate among them,
/// percentiles over their operations).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Phase {
    pub whole: HostTimes,
    pub quiet: HostTimes,
    /// Rate of every segment, in time order.
    pub segment_rates: Vec<f64>,
}

/// Splits `ops` (ascending by `end_ns`) into segments of `pass`
/// operations and measures them.
///
/// `pass` is the fewest operations that always hold the same work (one
/// pass over the workload's distinct inputs, unless they all have one
/// shape), so the segments' rates differ only by what the host did
/// meanwhile. The reference host is shared: for seconds at a time a
/// neighbour slows everything by a third or more, so whole-phase medians
/// flip between two modes from run to run. Interference only ever slows a
/// segment, so the fastest segments are the ones that show the program's
/// own speed; a slowdown caused by the program is in every segment and
/// shows there too. A phase shorter than one pass is a single segment.
pub fn measure_phase(ops: &[Op], pass: usize) -> Phase {
    let mut segments = segments(ops, pass.clamp(1, ops.len().max(1)));
    if segments.is_empty() {
        return Phase::default();
    }
    let segment_rates: Vec<f64> = segments.iter().map(|(rate, _)| *rate).collect();
    let whole = latency_percentiles(ops.iter().copied(), median(&segment_rates));
    segments.sort_by(|a, b| b.0.total_cmp(&a.0));
    let per = segments[0].1.len();
    let keep = (segments.len() as f64 * QUIET_SHARE).ceil() as usize;
    let keep = keep.max(MIN_QUIET_OPS.div_ceil(per)).min(segments.len());
    let quiet = &segments[..keep];
    let slowest_quiet = quiet[keep - 1].0;
    let quiet_ops = quiet.iter().flat_map(|(_, ops)| ops.iter().copied());
    Phase {
        whole,
        quiet: latency_percentiles(quiet_ops, slowest_quiet),
        segment_rates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let x: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&x, 50.0), 50.0);
        assert_eq!(percentile(&x, 90.0), 90.0);
        assert_eq!(percentile(&x, 99.0), 99.0);
        assert_eq!(percentile(&x, 100.0), 100.0);
        assert_eq!(percentile(&x, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let x: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&x), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    /// `n` operations of 1 ms, each followed by a gap of `gap_ms`.
    fn train(n: u64, start_ns: u64, gap_ms: u64) -> Vec<Op> {
        (0..n)
            .map(|i| {
                let start_ns = start_ns + i * (1 + gap_ms) * 1_000_000;
                Op {
                    start_ns,
                    end_ns: start_ns + 1_000_000,
                }
            })
            .collect()
    }

    #[test]
    fn segments_tile_the_timed_phase() {
        // 200 operations of 1 ms with a 1 ms gap after each, the first
        // one 5 ms after the origin: segments of two, 500 ops/s, except
        // that the first also holds the time before its first operation.
        let ops = train(200, 5_000_000, 1);
        let segs = segments(&ops, 2);
        assert_eq!(segs.len(), 100);
        assert!((segs[0].0 - 2.0 / 8e-3).abs() < 1e-6);
        assert!(segs[1..]
            .iter()
            .all(|(r, ops)| (r - 500.0).abs() < 1e-6 && ops.len() == 2));
        // Left-over operations are not used; a phase shorter than one
        // pass is one segment.
        assert_eq!(segments(&ops, 3).len(), 66);
        assert_eq!(
            measure_phase(&ops[..3], 16).whole.throughput_ops_s,
            3.0 / 10e-3
        );
        assert_eq!(measure_phase(&[], 16), Phase::default());
    }

    #[test]
    fn the_quiet_part_ignores_a_slow_stretch() {
        // 1000 operations: the first 400 at 1 ms back to back, then 600
        // that take 3 ms each (a noisy neighbour, or a slower program).
        let mut ops = train(400, 0, 0);
        ops.extend((0..600u64).map(|i| Op {
            start_ns: 400_000_000 + i * 3_000_000,
            end_ns: 400_000_000 + (i + 1) * 3_000_000,
        }));
        let Phase { whole, quiet, .. } = measure_phase(&ops, 10);
        assert!((whole.throughput_ops_s - 1000.0 / 3.0).abs() < 1e-6);
        assert_eq!(whole.latency_p50_ms, 3.0);
        assert!((quiet.throughput_ops_s - 1000.0).abs() < 1e-6);
        assert_eq!((quiet.latency_p50_ms, quiet.latency_p90_ms), (1.0, 1.0));
        // A slowdown in every segment shows in the quiet part too.
        let slow = measure_phase(&train(1000, 0, 1), 10).quiet;
        assert!((slow.throughput_ops_s - 500.0).abs() < 1e-6);
        // Few operations: the quiet part still holds a hundred of them.
        let mut few = train(150, 0, 0);
        few.extend(train(150, 1_000_000_000, 2));
        let quiet = measure_phase(&few, 10).quiet;
        assert_eq!(
            (quiet.throughput_ops_s, quiet.latency_p90_ms),
            (1000.0, 1.0)
        );
    }
}
