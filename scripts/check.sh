#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, and the full test suite.
# Run from the repo root: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Announce a stage, after the wall seconds of the one it ends.
stage() {
    [ -z "${stage_name:-}" ] || echo "   ($((SECONDS - stage_started)) s)"
    stage_name="$1"
    stage_started=$SECONDS
    [ -z "$1" ] || echo "== $1"
}

stage "cargo fmt --check"
cargo fmt --check

stage "cargo clippy --workspace -- -D warnings"
cargo clippy -q --workspace --all-targets -- -D warnings

stage "cargo test --workspace"
cargo test -q --workspace

stage "results reproduction (one paper run => every committed per-flow artifact)"
# The committed results/ files are the oracle that licenses refactoring:
# one `paper` run (17 simulated months, each entry at its committed scale)
# must re-render every table, figure, the chaos campaign and the six
# ablations byte for byte, and both trace exports and the alert log must
# equal the committed ones (the table test in
# crates/bench/tests/paper_table.rs pins table == committed file set).
# `paper`'s standard month is fault-free, so the chaos entry is what
# executes the loop's Fault / Readmit / ReAdd / EdgeRecover handlers.
# Runs in $tmp so the check never rewrites the files it compares against.
# A fresh build reproducing the committed traces is also the same-seed
# determinism check: it proves byte identity across builds and runs.
cargo build -q --release -p netsession-bench --bin paper
bin="$PWD/target/release/paper"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
(cd "$tmp" && "$bin" >/dev/null 2>&1)
for f in "$tmp"/results/*.txt "$tmp"/results/*.trace.json "$tmp"/results/alerts.json; do
    cmp "$f" "results/$(basename "$f")"
done

stage "alert coverage (every hybrid.fault.* counter ruled or allowlisted)"
counters="$(grep -rhoE 'hybrid\.fault\.[a-z_]+' crates/hybrid/src --include='*.rs' --exclude=alerts.rs | sort -u)"
missing=""
for c in $counters; do
    grep -qF "\"$c\"" crates/hybrid/src/alerts.rs || missing="$missing $c"
done
if [ -n "$missing" ]; then
    echo "hybrid.fault.* counters with no alert rule or ALLOWLIST entry in crates/hybrid/src/alerts.rs:$missing" >&2
    exit 1
fi

stage "shard determinism (2-shard parallel == sequential oracle, smoke scale)"
# The sharded million-peer runner must be an optimization, not an
# approximation: stdout (merged report, per-region SHA-256 stream digests,
# alerts, tallies, and the shard profiler's load-imbalance report) is
# compared byte-for-byte between the threaded run and the one-thread
# oracle, and across repeat runs. Runs in $tmp so the smoke-scale sidecars
# never clobber the committed full-scale results/scale.* artifacts.
cargo build -q --release -p netsession-bench --bin scale
scale_bin="$PWD/target/release/scale"
(cd "$tmp" && "$scale_bin" --smoke --sequential --profile-det-out det_seq.json >scale_seq.txt 2>/dev/null)
(cd "$tmp" && "$scale_bin" --smoke --parallel --profile-det-out det_par1.json >scale_par1.txt 2>/dev/null)
(cd "$tmp" && "$scale_bin" --smoke --parallel --profile-det-out det_par2.json >scale_par2.txt 2>/dev/null)
cmp "$tmp/scale_seq.txt" "$tmp/scale_par1.txt"
cmp "$tmp/scale_par1.txt" "$tmp/scale_par2.txt"

stage "shard-profile determinism (deterministic telemetry stream byte-diffed + schema.rs lint)"
# The profiler's deterministic channel — per-window per-shard events,
# barrier queue depth, mail matrix, and the SHA-256 stream fingerprint —
# must be byte-identical across execution modes and repeat runs. Volatile
# wall-clock timings are excluded by construction (they live only in the
# sidecar's "volatile" section, which --profile-det-out omits).
cmp "$tmp/det_seq.json" "$tmp/det_par1.json"
cmp "$tmp/det_par1.json" "$tmp/det_par2.json"
# Both sidecars, fresh and committed, against the shard-profile table in
# crates/bench/src/schema.rs.
"$scale_bin" --lint "$tmp/results/scale.profile.json"
if [ -e results/scale.profile.json ]; then
    "$scale_bin" --lint results/scale.profile.json
fi

stage "sub-region shard determinism (16 sub-shards > 9 regions, smoke scale)"
# Shard keys are contiguous sub-region blocks, so K may exceed the nine
# regions. Gate the interesting side of that boundary: at K=16 every
# populous region is split across shards, and the parallel run must still
# be byte-identical to the sequential oracle.
(cd "$tmp" && "$scale_bin" --smoke --shards 16 --sequential >scale16_seq.txt 2>/dev/null)
(cd "$tmp" && "$scale_bin" --smoke --shards 16 --parallel >scale16_par.txt 2>/dev/null)
cmp "$tmp/scale16_seq.txt" "$tmp/scale16_par.txt"

stage "timeseries determinism (chaos smoke: seq vs par sidecar byte-diff + schema.rs lint)"
# The merged windowed-telemetry sidecar is a deterministic artifact: under
# the full fault campaign at smoke scale, the sequential oracle and the
# threaded run must print byte-identical stdout and write byte-identical
# sidecars; the fresh sidecar must pass its own lint (schema, digest,
# injected=>detected join), and the committed full-scale sidecar must
# still lint — a stale or hand-edited snapshot fails on its digest.
(cd "$tmp" && "$scale_bin" --smoke --chaos --sequential --timeseries-out ts_seq.json >ts_seq.txt 2>/dev/null)
(cd "$tmp" && "$scale_bin" --smoke --chaos --parallel --timeseries-out ts_par.json >ts_par.txt 2>/dev/null)
cmp "$tmp/ts_seq.txt" "$tmp/ts_par.txt"
cmp "$tmp/ts_seq.json" "$tmp/ts_par.json"
"$scale_bin" --lint "$tmp/ts_seq.json"
if [ -e results/scale.timeseries.json ]; then
    "$scale_bin" --lint results/scale.timeseries.json
fi

stage "perf trajectory (perfbench --trend: every snapshot passes schema.rs, BENCH_15 present)"
# Trajectory table from every committed BENCH_*.json, each validated
# against the perfbench table in crates/bench/src/schema.rs (the fields
# each snapshot number requires, the parallel-speedup floor); fails when one
# breaks it or BENCH_15.json is missing. Re-measures nothing: wheel == heap
# is crates/hybrid/tests/queue_oracle.rs.
cargo build -q --release -p netsession-bench --bin perfbench
"$PWD/target/release/perfbench" --trend --require 15

stage "committed trace exports stay under 1 MiB"
oversize="$(find results -name '*.trace.json' -size +1M 2>/dev/null || true)"
if [ -n "$oversize" ]; then
    echo "trace export(s) exceed the 1 MiB budget:" >&2
    echo "$oversize" >&2
    exit 1
fi

stage ""
echo "All checks passed in $SECONDS s."
