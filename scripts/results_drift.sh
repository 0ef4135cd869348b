#!/usr/bin/env bash
# Results-drift check: re-runs every deterministic paper-figure binary of
# `crates/bench` with default arguments and diffs its stdout against the
# committed `results/<bin>.txt`. Exits nonzero, naming each bin whose
# output moved, when any differs.
#
# `table2_latency` and `table3_power` print wall-clock timings, so they
# are left out. The twelve bins take about 4.5 minutes on a 2-vCPU host,
# which is why this runs as its own CI job rather than inside check.sh.
# Each bin's wall time and the total go to stderr, so the CI log shows
# where the time goes; stdout stays the comparison.
#
# Usage: scripts/results_drift.sh [BIN...]   (default: all twelve)
set -euo pipefail

cd "$(dirname "$0")/.."

BINS=(fig02_feasibility fig09_consistency fig10_recovery fig11_states
      fig13_overall table1_angle fig14_noise fig14_motion fig15a_devices
      fig15b_training baseline_comparison ablation)
if [ "$#" -gt 0 ]; then
    BINS=("$@")
fi

cargo build --release -p earsonar-bench --bins

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
# Wall time since a start stamp taken from ${EPOCHREALTIME/[.,]/} (µs).
elapsed() {
    local us=$((${EPOCHREALTIME/[.,]/} - $1))
    printf '%d.%d s' $((us / 1000000)) $((us / 100000 % 10))
}

drifted=()
total_start=${EPOCHREALTIME/[.,]/}
for b in "${BINS[@]}"; do
    echo "==> $b"
    start=${EPOCHREALTIME/[.,]/}
    # Progress goes to stderr; only stdout is the committed result.
    "target/release/$b" > "$out/$b.txt" 2> /dev/null
    echo "$b: $(elapsed "$start")" >&2
    if ! diff -u "results/$b.txt" "$out/$b.txt"; then
        drifted+=("$b")
    fi
done
echo "total: $(elapsed "$total_start")" >&2

if [ "${#drifted[@]}" -gt 0 ]; then
    echo "results drifted from results/*.txt: ${drifted[*]}" >&2
    echo "regenerate with: target/release/<bin> > results/<bin>.txt" >&2
    exit 1
fi
echo "All ${#BINS[@]} results match results/*.txt."
