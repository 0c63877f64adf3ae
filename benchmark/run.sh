#!/usr/bin/env bash
# Builds the benchmark offline and runs it. With no arguments: the whole
# suite at seed 1 (every workload, every metric, out/report-seed1.json).
#
#   benchmark/run.sh [--seed N]                          the suite
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                        one workload, one JSON result line
#   benchmark/run.sh --self-test                         corrupted answer keys must be caught
#   benchmark/run.sh compare A.json B.json               apply the bounds to two reports
#
# Nothing else is accepted: repetitions and timed seconds are fixed per form.
#
# Exits non-zero when the build fails, an output is wrong, or `compare`
# finds a metric worse than its bound.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/smm-benchmark" "$@"
