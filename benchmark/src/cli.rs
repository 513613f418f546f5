//! Command line of both binaries.

use crate::report::WORKLOADS;

/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 20_220_930;
/// Length of the timed phase when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 15.0;

pub const USAGE: &str = "\
usage: bench [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]
  --workload  one of prefill_sprint, prefill_dense, decode_churn, http_serve,
              http_decode; without it every workload runs, each in a child process
  --seed      the only source of randomness (default 20220930; 77003141 is
              held out: nothing here was tuned on it)
  --seconds   length of the timed phase (default 15)
  --trace     1 reports the per-layer metrics from a traced run, 0 the
              end-to-end metrics (default 0)
  --smoke     1/50 of the timed phase and a single set-up; not comparable";

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<&'static str>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Args {
    /// Parses the arguments after the program name.
    ///
    /// # Errors
    ///
    /// A message naming the argument that could not be used.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    let known = WORKLOADS.iter().find(|w| **w == name);
                    out.workload = Some(known.ok_or(format!("unknown workload {name}"))?);
                }
                "--seed" => {
                    out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                        return Err(format!("--seconds {} is outside 0..=600", out.seconds));
                    }
                }
                "--trace" => {
                    out.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    };
                }
                "--smoke" => out.smoke = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(out)
    }

    /// Length of the timed phase: `--seconds`, or a fiftieth of it under
    /// `--smoke`.
    pub fn timed_seconds(&self) -> f64 {
        if self.smoke {
            self.seconds / 50.0
        } else {
            self.seconds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        Args::parse(words.iter().map(|w| w.to_string()))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse(&[
            "--workload",
            "http_serve",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload, Some("http_serve"));
        assert_eq!(
            (args.seed, args.seconds, args.trace, args.smoke),
            (7, 10.0, true, false)
        );
        let args = parse(&[]).unwrap();
        assert_eq!(
            (args.workload, args.seed, args.trace),
            (None, DEFAULT_SEED, false)
        );
        assert_eq!(args.timed_seconds(), DEFAULT_SECONDS);
        assert_eq!(
            parse(&["--smoke"]).unwrap().timed_seconds(),
            DEFAULT_SECONDS / 50.0
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        for words in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--trace", "yes"],
            &["--frobnicate"],
        ] {
            assert!(parse(words).is_err(), "{words:?}");
        }
    }
}
