#!/bin/bash
# The command of ../BENCHMARK.json: builds the benchmark package and runs
# one of its two binaries with the arguments given.
#
#   --trace 1   the traced binary (per-layer metrics; the only code that
#               calls into single layers)
#   otherwise   the end-to-end binary (front-door API only)
#
# The two are separate binaries so that a change to a layer's API can
# break the build of the traced run only. Without --workload every
# workload runs, each in a child process.
set -eu
here="$(dirname "$0")"
bin=bench
previous=""
for argument in "$@"; do
    if [ "$previous" = "--trace" ] && [ "$argument" = "1" ]; then
        bin=bench-trace
    fi
    previous="$argument"
done
exec cargo run --quiet --release --offline --manifest-path "$here/Cargo.toml" --bin "$bin" -- "$@"
