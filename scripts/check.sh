#!/usr/bin/env bash
# One-command gate for the workspace: formatting, the static-analysis
# verify pass, an offline release build, the test suite (a debug build:
# the latch assertions of `dmx_types::held` are on; it holds the
# crash-point sweeps at every I/O index — `tests/fault_sweep.rs`,
# `tests/self_heal.rs` — and the differential oracle) and the repo
# benchmark's own tests (the determinism gate). CI and pre-push hooks
# should run exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo xtask verify"
cargo run -q -p xtask -- verify

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
