//! What every workload shares: the per-thread recorder, the trait a
//! workload implements, and the untraced run that yields the end-to-end
//! metrics.

use std::time::Instant;

use crate::cli::Args;
use crate::env::peak_rss_mib;
use crate::report::{Outcome, Values};
use crate::span::Tracer;
use crate::stats::{measure_phase, quartiles, HostTimes, Op};

/// Set-ups per run: at least [`MIN_SETUPS`], and more while they are
/// cheap (under [`SETUP_BUDGET_S`] in total, at most [`MAX_SETUPS`]).
/// `setup_s` is the fastest of them, for the reason [`measure_phase`] gives
/// (a median of few set-ups flips between the host's two modes); the last
/// set-up is the one measured.
pub const MIN_SETUPS: usize = 5;
pub const MAX_SETUPS: usize = 15;
pub const SETUP_BUDGET_S: f64 = 3.0;

/// Samples, failures and spans of one caller thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    deadline_ns: u64,
    /// Distinguishes the operations of different threads in the trace.
    thread: u64,
    pub ops: Vec<Op>,
    pub failed: u64,
    pub tracer: Tracer,
}

impl Recorder {
    pub fn new(origin: Instant, seconds: f64, thread: u64, traced: bool) -> Self {
        Recorder {
            origin,
            deadline_ns: (seconds * 1e9) as u64,
            thread,
            ops: Vec::new(),
            failed: 0,
            tracer: Tracer::new(origin, traced),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Whether the timed phase is over.
    pub fn expired(&self) -> bool {
        self.now_ns() >= self.deadline_ns
    }

    /// Times one operation. `f` gets the tracer and the operation's id.
    pub fn time<T>(&mut self, f: impl FnOnce(&mut Tracer, u64) -> T) -> T {
        let id = self.thread << 32 | self.ops.len() as u64;
        let start_ns = self.now_ns();
        let out = f(&mut self.tracer, id);
        let end_ns = self.now_ns();
        self.ops.push(Op { start_ns, end_ns });
        out
    }

    /// Counts the last operation as failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.failed += u64::from(!ok);
    }
}

/// What the untimed verify pass finds: the simulated statistics of the
/// distinct inputs and a digest of every exact simulated count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sim {
    pub cycles_per_op: f64,
    pub energy_nj_per_op: f64,
    pub rel_err: f64,
    pub digest: u64,
}

/// One workload: inputs made from the seed, the program under test, and
/// the checks on what it returns.
pub trait Workload: Sized {
    /// Operations in one pass over the distinct inputs: the segment the
    /// timed phase is split into (see [`measure_phase`]).
    const PASS: usize;

    /// Makes the inputs from `seed`, builds the program under test and
    /// runs one warm-up pass over every distinct input. Timed as
    /// `setup_s`.
    ///
    /// # Errors
    ///
    /// The program refused a generated input or could not start.
    fn setup(name: &'static str, seed: u64) -> Result<Self, String>;

    /// Computes whatever the per-operation checks compare against and the
    /// warm-up pass did not already give (untimed).
    ///
    /// # Errors
    ///
    /// The program refused an input.
    fn prepare_checks(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Runs operations for `seconds`, checking each; one recorder per
    /// caller thread.
    fn run(&mut self, seconds: f64, traced: bool) -> Vec<Recorder>;

    /// The untimed output checks. Per-layer numbers that responses and
    /// public counters carry go into `layers`.
    ///
    /// # Errors
    ///
    /// A description of the first check that failed or could not be
    /// evaluated.
    fn verify(&mut self, layers: &mut Values) -> Result<Sim, String>;

    /// Stops what `setup` started.
    fn teardown(self) {}
}

/// End-to-end numbers of one timed phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub attempted: u64,
    pub failed: u64,
    /// Over the quiet part of the phase: what the end-to-end metrics
    /// report (see [`measure_phase`]).
    pub quiet: HostTimes,
    /// Over the whole phase.
    pub whole: HostTimes,
    pub segments: usize,
    /// Quartiles of the rates of all segments.
    pub segment_quartiles: [f64; 3],
}

/// Merges the threads' samples into one timed phase, split into segments
/// of `pass` operations.
pub fn summarize(recorders: &[Recorder], pass: usize) -> Summary {
    let mut ops: Vec<Op> = recorders
        .iter()
        .flat_map(|r| r.ops.iter().copied())
        .collect();
    ops.sort_by_key(|op| op.end_ns);
    let phase = measure_phase(&ops, pass);
    let rates = &phase.segment_rates;
    Summary {
        attempted: ops.len() as u64,
        failed: recorders.iter().map(|r| r.failed).sum(),
        quiet: phase.quiet,
        whole: phase.whole,
        segments: rates.len(),
        segment_quartiles: if rates.len() >= 2 {
            quartiles(rates)
        } else {
            [rates.first().copied().unwrap_or(0.0); 3]
        },
    }
}

/// Sets the workload up several times (once under `--smoke`), tearing
/// each down before the next; returns the last with the fastest set-up
/// time in seconds.
///
/// # Errors
///
/// The first set-up error.
pub fn repeated_setup<W: Workload>(name: &'static str, args: &Args) -> Result<(W, f64), String> {
    let mut times: Vec<f64> = Vec::new();
    loop {
        let started = Instant::now();
        let workload = W::setup(name, args.seed)?;
        times.push(started.elapsed().as_secs_f64());
        let cheap = times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_BUDGET_S;
        if args.smoke || (times.len() >= MIN_SETUPS && !cheap) {
            return Ok((
                workload,
                times.iter().copied().fold(f64::INFINITY, f64::min),
            ));
        }
        workload.teardown();
    }
}

/// The untraced run: set-up, timed phase, verify pass; returns the
/// end-to-end metrics. Prints the segment quartiles, sample count and
/// `sim_digest` for the reader.
///
/// # Errors
///
/// A set-up error, or an output check that could not be evaluated.
pub fn end_to_end<W: Workload>(name: &'static str, args: &Args) -> Result<Outcome, String> {
    let (mut workload, setup_s) = repeated_setup::<W>(name, args)?;
    workload.prepare_checks()?;
    let recorders = workload.run(args.timed_seconds(), false);
    let summary = summarize(&recorders, W::PASS);
    let verify_started = Instant::now();
    let sim = workload.verify(&mut Values::new());
    let verify_s = verify_started.elapsed().as_secs_f64();
    workload.teardown();
    let rss = peak_rss_mib();

    let [q1, q2, q3] = summary.segment_quartiles;
    let whole = &summary.whole;
    println!(
        "{name}: {} operations timed, {} failed; verify {verify_s:.2} s\n  whole phase: {} segments, rates q1 {q1:.2} median {q2:.2} q3 {q3:.2} 1/s, latency p50 {:.4} p90 {:.4} p99 {:.4} ms",
        summary.attempted, summary.failed, summary.segments, whole.latency_p50_ms, whole.latency_p90_ms, whole.latency_p99_ms
    );
    let sim = sim.map_err(|e| format!("verify: {e}"))?;
    println!("  sim_digest: {:016x}", sim.digest);
    if summary.attempted == 0 {
        return Err("no operation completed in the timed phase".to_string());
    }
    let mut values = Values::new();
    values.insert("setup_s", setup_s);
    values.insert("throughput_ops_s", summary.quiet.throughput_ops_s);
    values.insert("latency_p50_ms", summary.quiet.latency_p50_ms);
    values.insert("sim_cycles_per_op", sim.cycles_per_op);
    values.insert("sim_energy_nj_per_op", sim.energy_nj_per_op);
    values.insert("output_rel_err", sim.rel_err);
    values.insert("host_peak_rss_mb", rss);
    Ok(Outcome {
        correct: summary.failed == 0,
        attempted: summary.attempted,
        failed: summary.failed,
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_expected_checksum_counts_as_a_failure() {
        let mut rec = Recorder::new(Instant::now(), 1.0, 0, false);
        let expected = [11u64, 22, 33];
        for (i, wrong) in [false, true, false].into_iter().enumerate() {
            let got = rec.time(|_, _| expected[i]);
            rec.check(got == expected[i] + u64::from(wrong));
        }
        let summary = summarize(&[rec], 1);
        assert_eq!((summary.attempted, summary.failed), (3, 1));
        assert!(summary.failed as f64 / summary.attempted as f64 > 0.0);
    }

    #[test]
    fn threads_merge_into_one_summary() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin, 1.0, 0, true);
        let mut b = Recorder::new(origin, 1.0, 1, true);
        for i in 0..20u64 {
            let r = if i % 2 == 0 { &mut a } else { &mut b };
            r.ops.push(Op {
                start_ns: i * 1_000_000,
                end_ns: (i + 1) * 1_000_000,
            });
        }
        let id = b.time(|_, id| id);
        assert_eq!(id, 1 << 32 | 10);
        b.ops.pop();
        let s = summarize(&[a, b], 2);
        assert_eq!(s.attempted, 20);
        assert!((s.whole.throughput_ops_s - 1000.0).abs() < 1e-6);
        assert!((s.quiet.throughput_ops_s - 1000.0).abs() < 1e-6);
        assert_eq!((s.quiet.latency_p50_ms, s.whole.latency_p99_ms), (1.0, 1.0));
    }
}
