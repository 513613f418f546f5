//! The end-to-end run: `--trace 0`. Calls only the front-door API.

use std::process::ExitCode;

use sprint_benchmark::report::END_TO_END;
use sprint_benchmark::runner::end_to_end;
use sprint_benchmark::workloads::{
    decode_churn::DecodeChurn, http_decode::HttpDecode, http_serve::HttpServe, prefill::Prefill,
};
use sprint_benchmark::{env, finish, parse_args, run_all};

fn main() -> ExitCode {
    let args = match parse_args(false) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let Some(name) = args.workload else {
        return run_all(&args);
    };
    print!(
        "{}",
        env::block(args.seed, args.timed_seconds(), args.smoke)
    );
    let outcome = match name {
        "prefill_sprint" | "prefill_dense" => end_to_end::<Prefill>(name, &args),
        "decode_churn" => end_to_end::<DecodeChurn>(name, &args),
        "http_serve" => end_to_end::<HttpServe>(name, &args),
        _ => end_to_end::<HttpDecode>(name, &args),
    };
    finish(name, outcome, &END_TO_END, true)
}
