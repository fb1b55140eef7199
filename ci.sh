#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
#
# The build is fully offline — every external dependency is vendored as a
# minimal stub under stubs/ (see stubs/README.md) — so this runs on a
# clean checkout with no registry access.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --offline -- -D warnings

# Protocol-aware static analysis: transition-matrix coverage against the
# model checker, waits-for liveness, panic hygiene in hot crates,
# artifact determinism, and stat registration. Prints per-pass timings,
# writes results/lint/transition_matrix.json (v1) and
# results/lint/protocol_model.json (v2), plus the machine-readable
# findings list, and fails on any finding. The v2 model is then checked
# under the v1-compat reader so old artifact consumers keep working.
echo "== stashdir-lint"
cargo run -q -p stashdir-lint --offline -- --root . \
  --json results/lint/findings.json
echo "== stashdir-lint --verify-v1"
cargo run -q -p stashdir-lint --offline -- \
  --verify-v1 results/lint/protocol_model.json

# Chaos smoke (E17): one injected fault per taxonomy class on a small
# grid; the run fails unless every class is caught by its expected
# detector (invariant checker or liveness watchdog) — the end-to-end
# mutation gate for the fault-injection layer.
echo "== chaos smoke (E17)"
chaos_out=$(cargo run -q -p stashdir-harness --offline --bin sweep -- \
  --plan chaos_smoke --run ci_chaos --ops 400 --no-progress)
echo "$chaos_out" | grep -qF \
  "chaos gate: 7/7 fault classes caught by their expected detector — PASS" \
  || { echo "chaos smoke FAILED:"; echo "$chaos_out"; exit 1; }

# Shoot-out smoke (E18): the equal-area backend comparison end to end at
# a reduced op count, from a scratch cwd so the committed full-scale
# results/e18_shootout.csv is not clobbered. Passes when the sweep
# completes and the CSV carries every registered backend.
echo "== shoot-out smoke (E18)"
repo_root=$(pwd)
e18_dir=$(mktemp -d)
(cd "$e18_dir" && cargo run -q --manifest-path "$repo_root/Cargo.toml" \
  -p stashdir-harness --offline --bin sweep -- \
  --plan shootout --run ci_shootout --ops 300 --no-progress >/dev/null)
e18_backends=$(tail -n +2 "$e18_dir/results/e18_shootout.csv" | cut -d, -f2 | sort -u)
e18_count=$(echo "$e18_backends" | wc -l)
[[ "$e18_count" -ge 6 ]] \
  || { echo "E18 smoke FAILED: only $e18_count backends in CSV:"; echo "$e18_backends"; exit 1; }
rm -rf "$e18_dir"

# XL-scaling smoke (E20): one budgeted 256-core point through the
# struct-of-arrays sim core, from a scratch cwd so the committed
# full-scale results/e20_scaling_xl.csv is not clobbered. Passes when
# the sweep completes and the CSV carries all four core counts (the
# 128-1024 rows assemble even when only the smoke ops ran).
echo "== XL-scaling smoke (E20)"
e20_dir=$(mktemp -d)
(cd "$e20_dir" && cargo run -q --manifest-path "$repo_root/Cargo.toml" \
  -p stashdir-harness --offline --bin sweep -- \
  --plan scaling_xl --run ci_scaling_xl --ops 40 --no-progress >/dev/null)
e20_rows=$(tail -n +2 "$e20_dir/results/e20_scaling_xl.csv" | cut -d, -f2 | sort -un)
[[ "$e20_rows" == $'128\n256\n512\n1024' ]] \
  || { echo "E20 smoke FAILED: core counts in CSV:"; echo "$e20_rows"; exit 1; }
rm -rf "$e20_dir"

# Chaos campaign smoke (E19): a short budgeted coverage-guided campaign
# from a scratch cwd against the freshly written protocol model. Passes
# when composing fault classes pairwise still catches all 7 (the E17
# property under composition), when the campaign strictly beats the
# single-fault coverage floor, and when the emitted coverage artifact
# verifies under the lint schema checker.
echo "== chaos campaign smoke (E19)"
e19_dir=$(mktemp -d)
e19_out=$(cd "$e19_dir" && cargo run -q --manifest-path "$repo_root/Cargo.toml" \
  -p stashdir-harness --offline --bin campaign -- \
  --model "$repo_root/results/lint/protocol_model.json" \
  --ops 400 --rounds 2 --plateau 1 --no-progress)
echo "$e19_out" | grep -qF \
  "pairwise gate: 7/7 fault classes caught when composed — PASS" \
  || { echo "E19 smoke FAILED (pairwise gate):"; echo "$e19_out"; exit 1; }
echo "$e19_out" | grep -qE \
  "coverage gate: campaign witnessed [0-9]+/[0-9]+ reachable transitions \(single-fault baseline [0-9]+\) — PASS" \
  || { echo "E19 smoke FAILED (coverage gate):"; echo "$e19_out"; exit 1; }
echo "== stashdir-lint --verify-coverage"
cargo run -q -p stashdir-lint --offline -- \
  --verify-coverage "$e19_dir/results/campaign/coverage.json"
rm -rf "$e19_dir"

echo "== cargo test -q --offline"
cargo test -q --workspace --offline

# Benchmark byte-identity gate: one short run of every perfbench
# workload at seed 7, where each checks its simulated-stat fingerprints
# against perfbench/pins.txt and counts a mismatch as a failed case. The
# stage fails unless there is one result line per workload and every one
# reads "failed": 0. Then the benchmark's own unit tests. Cargo may
# refresh perfbench/Cargo.lock while resolving the package's path
# dependencies; the stage puts the committed file back.
echo "== perfbench pins (seed 7)"
pb_lock=$(mktemp)
cp perfbench/Cargo.lock "$pb_lock"
trap 'cp "$pb_lock" perfbench/Cargo.lock; rm -f "$pb_lock"' EXIT
pb_out=$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
  --workload all --seed 7 --seconds 1)
pb_results=$(echo "$pb_out" | grep '^{"correct"' || true)
pb_count=$(echo "$pb_results" | grep -c '"attempted"' || true)
pb_clean=$(echo "$pb_results" | grep -c '"failed": 0,' || true)
[[ "$pb_count" -eq 3 && "$pb_clean" -eq 3 ]] \
  || { echo "perfbench pins FAILED ($pb_clean/$pb_count clean result lines):"; echo "$pb_out"; exit 1; }
echo "$pb_results" | sed 's/, "metrics".*//'
echo "== cargo test (perfbench)"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# Hot-path benchmark gate (opt-in: STASHDIR_BENCH=1). Compares the
# microbench medians against the committed BENCH_sim_hotpath.json and
# fails on >10% regression; also re-asserts the ≥20% event-dispatch /
# stat-bump improvement. Off by default so CI stays fast and immune to
# shared-host timing noise; refresh the baseline with
#   cargo bench -p stashdir-bench --bench hotpath -- --record
if [[ "${STASHDIR_BENCH:-0}" == "1" ]]; then
  echo "== bench gate (hotpath --check)"
  cargo bench -q -p stashdir-bench --bench hotpath --offline -- --check
fi

echo "CI OK"
