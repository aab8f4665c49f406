#!/usr/bin/env bash
# One-command gate for the workspace: formatting, the static-analysis
# verify pass, an offline release build, the test suite, the repo
# benchmark's own tests (the determinism gate), the crash-point sweeps
# and the differential oracle. CI and pre-push hooks should run exactly
# this.
#
# `check.sh --thorough` additionally runs the crash-point sweeps at
# stride 1 (every single I/O index, including the points inside the
# scrubber and the repair pipeline) — the nightly lane.
set -euo pipefail
cd "$(dirname "$0")/.."

STRIDE=16
if [ "${1:-}" = "--thorough" ]; then
  STRIDE=1
fi

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo xtask verify --json (vs committed VERIFY.json)"
cargo run -q -p xtask -- verify --json > /tmp/verify_now.json
cargo run -q -p xtask -- verify   # human-readable pass/fail (exit code gates)

# Effect-waiver ratchet: the set of consumed waivers (DMXnnn Site ids)
# may only shrink relative to the committed snapshot, which lists none.
# A waiver id here means a write-ahead / latch exception was added —
# that is a review event, not a routine change.
new_waivers=$(comm -13 \
  <(grep -oE '"id": "DMX[0-9]+ [^"]+"' VERIFY.json | sort -u) \
  <(grep -oE '"id": "DMX[0-9]+ [^"]+"' /tmp/verify_now.json | sort -u))
if [ -n "$new_waivers" ]; then
  echo "effect waivers not present in committed VERIFY.json:"
  echo "$new_waivers"
  exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy -q --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace"
cargo test -q --workspace

# The repo benchmark is a package of its own, built against the public
# engine API; its smoke test is what notices an API break there. It is
# also the determinism gate: the whole matrix runs twice on one seed and
# every counted metric must repeat byte for byte.
echo "==> benchmark package tests (determinism gate)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

# Bounded crash-point sweep: every 16th I/O index by default; stride 1
# (every index) under --thorough. The self-heal sweep re-runs the same
# crash grid with the crash points landing inside CHECK TABLE / REPAIR
# TABLE, asserting the repair pipeline converges from any interruption.
echo "==> fault sweep (FAULT_SWEEP_STRIDE=$STRIDE)"
FAULT_SWEEP_STRIDE=$STRIDE cargo test -q --test fault_sweep
echo "==> self-heal crash sweep (FAULT_SWEEP_STRIDE=$STRIDE)"
FAULT_SWEEP_STRIDE=$STRIDE cargo test -q --test self_heal crash_sweep

# Storage-method differential oracle: heap vs btree vs in-memory model
# over seeded statement streams.
echo "==> differential oracle"
cargo test -q --test differential

echo "check.sh: all gates passed"
