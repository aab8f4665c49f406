#!/usr/bin/env bash
# One-command gate for the workspace, in order: formatting; clippy with
# warnings denied (it holds the panic, raw-I/O and wall-clock rules of
# DESIGN §8); the API docs with warnings denied, so every intra-doc link
# resolves to a public item; an offline release build; the workspace tests in a debug
# build, so the latch assertions of `dmx_types::held` are on (among them
# the crash-point sweeps at every I/O index of `tests/fault_sweep.rs` and
# `tests/self_heal.rs`, the differential oracle and the architecture
# rules of `tests/architecture.rs`); and the repo benchmark's own tests
# (the determinism gate). CI and pre-push hooks should run exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy -q --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps --workspace (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps --workspace

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
