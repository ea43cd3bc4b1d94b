#!/usr/bin/env bash
# Builds the benchmark from source (offline, locked) and runs it. Every
# argument passes through to the `benchmark` binary, e.g.
#
#   bash benchmark/run.sh --workload vocoder_arch --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh --seed 1 --json out.json     # all workloads, e2e + traced
#
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cargo build --release --locked --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/benchmark" "$@"
