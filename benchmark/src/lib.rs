//! The repository benchmark: five workloads, the end-to-end metrics of an
//! untraced run and the per-layer metrics of a traced one. See
//! `../README.md` and `../../BENCHMARK.json`.
//!
//! This library holds what both binaries share and calls only the
//! repository's front-door API. The calls into single layers live in the
//! traced binary (`src/bin/bench_trace/layers.rs`), so a change to a
//! layer's API can never stop the end-to-end binary from building.

pub mod checks;
pub mod cli;
pub mod env;
pub mod reference;
pub mod report;
pub mod runner;
pub mod span;
pub mod stats;
pub mod workloads;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

use cli::{Args, USAGE};
use report::{result_line, table, Outcome, WORKLOADS};

/// The arguments of the binary that serves `--trace <trace>`; a usage
/// error, or the other binary's `--trace` value, is exit code 2.
pub fn parse_args(trace: bool) -> Result<Args, ExitCode> {
    match Args::parse(std::env::args().skip(1)) {
        Ok(args) if args.trace == trace => Ok(args),
        Ok(args) => {
            eprintln!(
                "--trace {} is the other binary's (benchmark/run.sh picks it)",
                u8::from(args.trace)
            );
            Err(ExitCode::from(2))
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            Err(ExitCode::from(2))
        }
    }
}

/// Prints one workload's metrics by name with their units and, as the
/// last line, the result object; the exit code says whether every
/// declared metric could be evaluated.
pub fn finish(
    name: &str,
    outcome: Result<Outcome, String>,
    declared: &[(&str, &str)],
    required: bool,
) -> ExitCode {
    let line = outcome.and_then(|outcome| {
        print!("{}", table(&outcome.values, declared));
        result_line(&outcome, declared, required)
    });
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{name}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload, each in a child process of this same binary (so
/// peak memory and warm caches never leak from one to the next), and
/// prints one JSON document of their result lines.
pub fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut results = Vec::new();
    for name in WORKLOADS {
        let mut command = Command::new(&exe);
        command
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped());
        if args.smoke {
            command.arg("--smoke");
        }
        let mut child = match command.spawn() {
            Ok(child) => child,
            Err(e) => {
                eprintln!("{name}: cannot start: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut last = String::new();
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            println!("{line}");
            last = line;
        }
        let status = child.wait();
        if !status.is_ok_and(|s| s.success()) {
            eprintln!("{name}: failed");
            return ExitCode::FAILURE;
        }
        results.push(format!("\"{name}\": {last}"));
    }
    println!(
        "{{\"seed\": {}, \"seconds\": {}, \"comparable\": {}, \"workloads\": {{{}}}}}",
        args.seed,
        args.timed_seconds(),
        !args.smoke,
        results.join(", ")
    );
    ExitCode::SUCCESS
}
