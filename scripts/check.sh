#!/usr/bin/env bash
# One-command gate for the workspace, in order: formatting; clippy with
# warnings denied (it holds the panic, raw-I/O and wall-clock rules of
# DESIGN §8); the API docs with warnings denied, so every intra-doc link
# resolves to a public item; an offline release build; the workspace tests in a debug
# build, so the latch assertions of `dmx_types::held` are on (among them
# the crash-point sweeps at every I/O index, all driven by `tests/support`:
# the four of `tests/fault_sweep.rs` (mixed DML, DDL, steal eviction,
# every attachment type), the differential oracle's in
# `tests/differential.rs`, the statistics sweep of `tests/statistics.rs`
# and the scrub-and-repair window of `tests/self_heal.rs`; the five
# families of the conformance kit `tests/support/kit.rs`, which run every
# registered type's entry — scan protocol (`tests/scan_conformance.rs`),
# replay (`tests/logged_tree_replay.rs`), update ≡ delete + insert
# (`tests/scan_conformance.rs`), a crash at every I/O
# (`tests/fault_sweep.rs`) and CHECK/REPAIR (`tests/self_heal.rs`) —
# and `tests/kit.rs`, which fails on a registered type with no entry; the
# architecture rules of `tests/architecture.rs`; and the counted ratchet
# of `crates/bench/tests/counted.rs`, which runs every E1–E12 lane twice
# at a small size and holds its counter deltas to `crates/bench/counted.tsv`);
# and the repo benchmark's own tests (the determinism gate). CI and
# pre-push hooks should run exactly this.
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

# Every test binary runs, so one failing binary does not hide the
# results of those after it; the step still fails if any test did.
echo "==> cargo test --workspace --no-fail-fast"
cargo test -q --workspace --no-fail-fast

# The repo benchmark is a package of its own, built against the public
# engine API; its smoke test is what notices an API break there. It is
# also the determinism gate: the whole matrix runs twice on one seed and
# every counted metric must repeat byte for byte.
echo "==> benchmark package tests (determinism gate)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "check.sh: all gates passed"
