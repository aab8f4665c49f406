#!/usr/bin/env bash
# One-command gate for the workspace: formatting, the static-analysis
# verify pass, an offline release build, the test suite (which holds the
# crash-point sweeps at every I/O index — `tests/fault_sweep.rs`,
# `tests/self_heal.rs` — and the differential oracle) and the repo
# benchmark's own tests (the determinism gate). CI and pre-push hooks
# should run exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

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

echo "check.sh: all gates passed"
