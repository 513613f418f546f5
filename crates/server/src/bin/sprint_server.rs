//! `sprint_server` — boot the HTTP serving front end.
//!
//! ```text
//! cargo run --release -p sprint-server --bin sprint_server -- \
//!     --addr 127.0.0.1:8080 --seed 7 --serve-seconds 60
//! ```
//!
//! Flags (all optional):
//!
//! * `--addr HOST:PORT` — bind address (default `127.0.0.1:8080`;
//!   port 0 picks an ephemeral port and prints it).
//! * `--seed N` — engine base seed (default 7).
//! * `--http-threads N` / `--max-batch N` / `--batch-window-ms N` /
//!   `--queue-per-tenant N` / `--queue-global N` — the corresponding
//!   [`ServerConfig`] knobs.
//! * `--kv-pool-pages N` — cap the shared KV page pool at N pages
//!   (decode sessions beyond the cap are LRU-evicted and rehydrated
//!   transparently; default 0 = unbounded).
//! * `--kv-page-bytes N` — KV page size in bytes (default 65536).
//! * `--max-resident-sessions N` — cap how many decode sessions hold
//!   KV pages at once (default 0 = uncapped).
//! * `--serve-seconds N` — run for N seconds, then shut down
//!   gracefully (CI smoke uses this; the default runs until SIGKILL).
//! * `--help` — print the usage and exit.
//!
//! Every flag takes its value as `--flag VALUE` or `--flag=VALUE`. An
//! unknown flag, or a value that is missing or does not parse, prints
//! the usage on stderr and exits with status 2: a typo must not boot a
//! server with defaults.

use sprint_attention::{PagePool, DEFAULT_PAGE_BYTES};
use sprint_engine::{Engine, SprintConfig};
use sprint_server::{Server, ServerConfig};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

const USAGE: &str = "\
usage: sprint_server [--addr HOST:PORT] [--seed N] [--http-threads N]
                     [--max-batch N] [--batch-window-ms N]
                     [--queue-per-tenant N] [--queue-global N]
                     [--kv-pool-pages N] [--kv-page-bytes N]
                     [--max-resident-sessions N] [--serve-seconds N]
                     [--help]";

/// What the command line asks for.
#[derive(Debug)]
struct Options {
    config: ServerConfig,
    seed: u64,
    /// 0 = unbounded pool.
    kv_pool_pages: usize,
    kv_page_bytes: usize,
    /// 0 = serve until killed.
    serve_seconds: u64,
}

fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: '{value}' is not a valid number"))
}

/// Parses the arguments after the program name. `Ok(None)` is a
/// request for the usage text (`--help`).
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Option<Options>, String> {
    let mut options = Options {
        config: ServerConfig {
            addr: "127.0.0.1:8080".to_string(),
            ..ServerConfig::default()
        },
        seed: 7,
        kv_pool_pages: 0,
        kv_page_bytes: DEFAULT_PAGE_BYTES,
        serve_seconds: 0,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value.to_string())),
            None => (arg.as_str(), None),
        };
        if flag == "--help" {
            return Ok(None);
        }
        let mut value = || {
            inline
                .clone()
                .or_else(|| args.next())
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let config = &mut options.config;
        match flag {
            "--addr" => config.addr = value()?,
            "--seed" => options.seed = number(flag, &value()?)?,
            "--http-threads" => config.http_threads = number(flag, &value()?)?,
            "--max-batch" => config.max_batch = number(flag, &value()?)?,
            "--batch-window-ms" => {
                config.batch_window = Duration::from_millis(number(flag, &value()?)?)
            }
            "--queue-per-tenant" => config.queue_per_tenant = number(flag, &value()?)?,
            "--queue-global" => config.queue_global = number(flag, &value()?)?,
            "--kv-pool-pages" => options.kv_pool_pages = number(flag, &value()?)?,
            "--kv-page-bytes" => options.kv_page_bytes = number(flag, &value()?)?,
            "--max-resident-sessions" => {
                let cap: usize = number(flag, &value()?)?;
                config.max_resident_sessions = (cap > 0).then_some(cap);
            }
            "--serve-seconds" => options.serve_seconds = number(flag, &value()?)?,
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Some(options))
}

fn serve(options: Options) -> Result<(), Box<dyn std::error::Error>> {
    let kv_pool = if options.kv_pool_pages > 0 {
        PagePool::bounded(options.kv_page_bytes, options.kv_pool_pages)
    } else {
        PagePool::unbounded(options.kv_page_bytes)
    };
    let engine = Engine::builder(SprintConfig::small())
        .seed(options.seed)
        .kv_pool(kv_pool)
        .build()?;
    let server = Server::start(engine, options.config)?;
    // Machine-greppable boot line (CI curls the printed address).
    println!("sprint-server listening on {}", server.local_addr());

    let serve_seconds = options.serve_seconds;
    if serve_seconds > 0 {
        std::thread::sleep(Duration::from_secs(serve_seconds));
        println!("sprint-server draining after {serve_seconds}s");
        server.shutdown();
        println!("sprint-server stopped");
    } else {
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        Ok(Some(options)) => match serve(options) {
            Ok(()) => ExitCode::SUCCESS,
            Err(error) => {
                eprintln!("sprint_server: {error}");
                ExitCode::FAILURE
            }
        },
        Ok(None) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("sprint_server: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Options>, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    /// Every setting, in the order of [`FLAGS`].
    fn settings(o: &Options) -> [String; 11] {
        let c = &o.config;
        [
            c.addr.clone(),
            o.seed.to_string(),
            c.http_threads.to_string(),
            c.max_batch.to_string(),
            c.batch_window.as_millis().to_string(),
            c.queue_per_tenant.to_string(),
            c.queue_global.to_string(),
            o.kv_pool_pages.to_string(),
            o.kv_page_bytes.to_string(),
            c.max_resident_sessions.unwrap_or(0).to_string(),
            o.serve_seconds.to_string(),
        ]
    }

    /// Every documented flag, its default, and a non-default value.
    const FLAGS: [(&str, &str, &str); 11] = [
        ("--addr", "127.0.0.1:8080", "0.0.0.0:9"),
        ("--seed", "7", "11"),
        ("--http-threads", "4", "3"),
        ("--max-batch", "16", "5"),
        ("--batch-window-ms", "2", "9"),
        ("--queue-per-tenant", "32", "6"),
        ("--queue-global", "128", "60"),
        ("--kv-pool-pages", "0", "12"),
        ("--kv-page-bytes", "65536", "4096"),
        ("--max-resident-sessions", "0", "2"),
        ("--serve-seconds", "0", "8"),
    ];

    #[test]
    fn every_documented_flag_parses_in_both_forms() {
        let defaults = parse(&[]).unwrap().unwrap();
        assert_eq!(settings(&defaults), FLAGS.map(|(_, default, _)| default));
        let spaced: Vec<&str> = FLAGS.iter().flat_map(|&(f, _, v)| [f, v]).collect();
        let joined = FLAGS.map(|(f, _, v)| format!("{f}={v}"));
        for options in [parse(&spaced), parse_args(joined)] {
            assert_eq!(settings(&options.unwrap().unwrap()), FLAGS.map(|(.., v)| v));
        }
        for (flag, ..) in FLAGS {
            assert!(USAGE.contains(flag), "the usage text omits {flag}");
        }
    }

    #[test]
    fn bad_command_lines_are_refused_not_defaulted() {
        for (args, needle) in [
            (&["--max-batch", "abc"][..], "--max-batch: 'abc'"),
            (&["--kv-pool-pages", "1O"], "--kv-pool-pages: '1O'"),
            (&["--kv-pool-pages=1O"], "--kv-pool-pages: '1O'"),
            (&["--bogus-flag"], "unknown flag '--bogus-flag'"),
            (&["--seed", "-1"], "--seed: '-1'"),
            (&["--seed"], "--seed needs a value"),
            (&["stray"], "unknown flag 'stray'"),
        ] {
            let error = parse(args).unwrap_err();
            assert!(error.contains(needle), "{args:?}: {error}");
        }
        // `--help` asks for the usage and starts nothing.
        assert!(parse(&["--seed", "3", "--help"]).unwrap().is_none());
    }
}
