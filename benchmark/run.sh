#!/usr/bin/env bash
# The reCloud benchmark. Builds the repo's `recloud` binary and the
# benchmark package (release, one shared target directory), then either
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload in one process; the last stdout line is the result
#       JSON (this is the form BENCHMARK.json's `command` is run in), or
#
#   benchmark/run.sh [--seed N] [--quick] [--twice]
#       the whole ledger: verify, every workload in a fresh process, a
#       traced pass of each, every metric printed by name and unit and
#       kept in benchmark/results/. --twice runs two sets and writes their
#       agreement to benchmark/results/agreement.txt; --quick runs a tenth
#       of the time and records nothing.
#
# Everything it writes stays inside the checkout: build output and scratch
# (store directories, port files, traces) under the target directory.
set -euo pipefail
HERE="$(cd "$(dirname "$0")" && pwd)"
ROOT="$(dirname "$HERE")"

# One target directory for both builds, so the crates compile once and the
# two binaries end up side by side. A relative CARGO_TARGET_DIR means
# relative to where the caller stands, as cargo reads it.
TARGET="${CARGO_TARGET_DIR:-$ROOT/target}"
case "$TARGET" in /*) ;; *) TARGET="$PWD/$TARGET" ;; esac
export CARGO_TARGET_DIR="$TARGET"

cargo build --release --offline --quiet --manifest-path "$ROOT/Cargo.toml" -p recloud-cli
cargo build --release --offline --quiet --manifest-path "$HERE/Cargo.toml"

export RECLOUD_BIN="$TARGET/release/recloud"
export RECLOUD_BENCH_SCRATCH="$TARGET/benchmark/run-$$"
mkdir -p "$RECLOUD_BENCH_SCRATCH"

# Every exit path: kill any daemon still alive (each writes its pid into
# its scratch directory) and remove this run's scratch. Traces survive in
# $TARGET/benchmark.
cleanup() {
    for pidfile in "$RECLOUD_BENCH_SCRATCH"/daemon-*/pid; do
        [ -f "$pidfile" ] && kill -9 "$(cat "$pidfile")" 2>/dev/null || true
    done
    for trace in "$RECLOUD_BENCH_SCRATCH"/trace-*.json; do
        [ -f "$trace" ] && mv -f "$trace" "$TARGET/benchmark/" || true
    done
    rm -rf "$RECLOUD_BENCH_SCRATCH"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

mode=ledger
for arg in "$@"; do
    [ "$arg" = "--workload" ] && mode=run
done
"$TARGET/release/recloud-benchmark" "$mode" "$@"
