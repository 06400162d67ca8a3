#!/usr/bin/env bash
# The one command: build the benchmark (release, offline, its own
# target directory) and run it. Arguments are the binary's; see
# `run.sh --help` and README.md.
#
#   benchmark/run.sh                       all five workloads -> benchmark/out/results.json
#   benchmark/run.sh --trace               ... plus the traced run and its layer metrics
#   benchmark/run.sh --quick               smoke run: 1 block, 1/4 of the ops, checks on
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                          one run; the last line is the result object
#   benchmark/run.sh probes                the layer probes alone
#   benchmark/run.sh compare A.json B.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A driver may point CARGO_TARGET_DIR somewhere of its own; by default
# build outputs stay inside this package.
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

bin="$target/release/cypress-benchmark"
case "${1:-}" in
    compare | spec | probes | --help | -h) exec "$bin" "$@" ;;
    *) exec "$bin" "$@" --out-dir "$here/out" ;;
esac
