#!/usr/bin/env bash
# Gate for the benchmark's own workspace: the root scripts/check.sh cannot
# see it. Run from anywhere: benchmark/check.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --all-targets -- -D warnings"
cargo clippy -q --offline --all-targets -- -D warnings

echo "== cargo test (unit tests + smoke runs of every workload)"
cargo test -q --offline --release

echo "benchmark checks passed."
