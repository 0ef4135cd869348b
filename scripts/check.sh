#!/usr/bin/env bash
# Full local CI pass: build, tests, lints, and a benchmark smoke run.
# Everything here is hermetic — no network, no external tools beyond the
# Rust toolchain.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check: every workspace member is rustfmt-clean"
# Covers workspace members only; benchmark/ is its own package and keeps
# its own formatting.
cargo fmt --all --check

echo "==> layering: earsonar-sim is in no shipped crate's normal dependencies"
# The detection core reads recordings through earsonar-signal and the
# engine multiplexes that core; the simulator is one producer among
# several and may only be a dev-dependency. The workspace has no
# registry dependencies, so the tree resolves offline.
for crate in earsonar earsonar-ml earsonar-signal earsonar-engine; do
    deps=$(cargo tree --offline -e normal -p "$crate" --prefix none)
    if grep -q '^earsonar-sim ' <<<"$deps"; then
        echo "$crate depends on earsonar-sim:"
        cargo tree --offline -e normal -p "$crate" -i earsonar-sim
        exit 1
    fi
done

echo "==> unsafe header: every library root forbids unsafe code"
missing=$(grep -L '^#!\[forbid(unsafe_code)\]' src/suite.rs crates/*/src/lib.rs || true)
if [ -n "$missing" ]; then
    echo "no #![forbid(unsafe_code)] in:"
    echo "$missing"
    exit 1
fi

echo "==> no ambient randomness: neither lockfile lists a rand or getrandom package"
if grep -nE '^name = "(rand.*|getrandom)"$' Cargo.lock benchmark/Cargo.lock; then exit 1; fi

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> robustness: fault injection, quality gating, monotonicity"
# Explicitly exercised even though --workspace already ran them: these
# suites are the acceptance bar for graceful degradation (a corrupted
# capture must recover to the clean verdict or refuse — never flip the
# effusion class). See DESIGN.md "Robustness & graceful degradation".
cargo test -q --test failure_injection --test quality_monotonicity
cargo test -q -p earsonar quality::

echo "==> schedule exploration: 100+ interleavings equal sequential screening"
# Replays every delivery order for 3 sessions x 2 chunks (90 schedules),
# seeded worker/drain-cadence variations, a one-slot backpressure queue
# (all inconclusive 8-chirp sessions) and conclusive 24-chirp sessions
# at 1, 2 and 4 workers. Each session must equal sequential screening of
# the same samples bit for bit, and backpressure must never drop an
# accepted chunk. The harness is crates/engine/tests/common.
cargo test -q -p earsonar-engine --test schedule_exploration

echo "==> cargo clippy --workspace (deny warnings): panic-freedom in the"
echo "    detection crates, no HashMap/lock/wall-clock, reasoned and live waivers"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace (deny rustdoc warnings)"
# Catches broken and private intra-doc links. The earsonar bin/lib
# output-filename collision is a cargo warning and does not fail this step.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> benchmark: unit tests and clippy (its own package, outside the workspace)"
# benchmark/ declares an empty [workspace], so the --workspace commands
# above never see it; BENCHMARK.json at the root names it as the repo's
# benchmark.
cargo test --release --manifest-path benchmark/Cargo.toml
cargo clippy --release --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings

echo "==> benchmark smoke run: four workloads, pinned input and outcome digests"
# Exits nonzero when a workload's input or outcome digest at seed 7
# differs from benchmark/pins.txt, when any op fails, or when the stage
# replay diverges — so a change that moves a simulated input or a
# verdict fails here. Timings are printed, never asserted.
cargo run --release --manifest-path benchmark/Cargo.toml -- --smoke

echo "All checks passed."
