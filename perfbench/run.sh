#!/usr/bin/env bash
# Builds the benchmark (release) and runs it with the given arguments:
#   bash perfbench/run.sh --workload sweep24|seq_cb [--seed N]
#                         [--seconds N] [--trace 0|1]
# Run from the repository root. Build output goes to stderr so the last
# line of stdout stays the benchmark's JSON result.
set -euo pipefail
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml --bins 1>&2
exec "${CARGO_TARGET_DIR:-perfbench/target}/release/perfbench" "$@"
