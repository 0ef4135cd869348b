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

echo "==> xtask lint: workspace invariants (panic-freedom, allocation"
echo "    discipline, determinism, layering, header hygiene, no lock)"
# Parses manifests and scans sources directly, so it runs before anything
# else builds. See DESIGN.md "Static analysis & invariants".
cargo run -p xtask -- lint

echo "==> xtask lint --waivers: every waiver carries a reason and suppresses"
echo "    a real finding"
cargo run -p xtask -- lint --waivers

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

echo "==> schedule exploration: verdict bit-identity over 100+ interleavings"
# Replays every enumerable delivery order for small session counts (90
# schedules for 3 sessions x 2 chunks) plus seeded worker/drain-cadence
# variations, asserting verdicts match the sequential baseline bit for
# bit and that backpressure never drops an accepted chunk.
cargo test -q -p earsonar-engine --test schedule_exploration

echo "==> cargo clippy --workspace (deny warnings)"
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
