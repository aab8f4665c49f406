#!/usr/bin/env bash
# One-command gate for the workspace: formatting, the static-analysis
# verify pass, an offline release build, and the test suite. CI and
# pre-push hooks should run exactly this.
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
# engine API; its smoke test is what notices an API break there.
echo "==> benchmark package tests"
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

# Deterministic bench smoke: scaled-down seeded scenarios run twice;
# any metric-snapshot divergence between the runs fails the gate.
echo "==> bench smoke (determinism gate)"
cargo run -q --release -p dmx-bench --bin harness -- --smoke

# Metric-name compatibility: every metric exported by the pr3 baseline
# must still exist in each later baseline (renaming or dropping a
# published metric is a breaking observability change). pr5-only names
# such as planner.misestimate stay published through BENCH_pr5.json.
for later in BENCH_pr5.json BENCH_pr7.json BENCH_pr8.json BENCH_pr9.json BENCH_pr10.json; do
  if [ -f BENCH_pr3.json ] && [ -f "$later" ]; then
    echo "==> bench metric-name compatibility (pr3 -> ${later})"
    missing=$(comm -23 \
      <(grep -oE '"[a-z_]+(\.[a-z_]+)+"' BENCH_pr3.json | sort -u) \
      <(grep -oE '"[a-z_]+(\.[a-z_]+)+"' "$later" | sort -u))
    if [ -n "$missing" ]; then
      echo "previously-exported metrics missing from ${later}:"
      echo "$missing"
      exit 1
    fi
  fi
done

# Recovery-architecture perf ratchet (PR8): the steal/no-force commit
# path must keep the b-tree bulk load at >= 2x the PR3 force-at-commit
# baseline, and commit must have stopped flushing pages — pool.flushes
# in the PR8 bulk scenarios stays a small DDL-bootstrap constant
# instead of scaling with the row count. Both numbers come from the
# committed baselines, so the gate is hermetic.
if [ -f BENCH_pr3.json ] && [ -f BENCH_pr8.json ]; then
  echo "==> recovery perf ratchet (pr8 vs pr3)"
  ratchet() { # file scenario -> ops_per_sec (integer part)
    grep -o "\"name\": \"$2\"[^}]*" "$1" \
      | grep -oE '"ops_per_sec": [0-9]+' | grep -oE '[0-9]+' | head -1
  }
  pr3_btree=$(ratchet BENCH_pr3.json bulk_insert_btree)
  pr8_btree=$(ratchet BENCH_pr8.json bulk_insert_btree)
  if [ "$pr8_btree" -lt $((pr3_btree * 2)) ]; then
    echo "pr8 bulk_insert_btree ${pr8_btree} ops/s < 2x pr3 baseline ${pr3_btree} ops/s"
    exit 1
  fi
  echo "    bulk_insert_btree: pr8 ${pr8_btree} ops/s >= 2x pr3 ${pr3_btree} ops/s"
  for scenario in bulk_insert_heap bulk_insert_btree; do
    flushes=$(grep -o "\"name\": \"$scenario\".*" BENCH_pr8.json \
      | grep -oE '"pool\.flushes": ?[0-9]+' | grep -oE '[0-9]+' | head -1)
    if [ "${flushes:-999}" -gt 16 ]; then
      echo "pr8 $scenario flushed ${flushes} pages at commit (no-force regression)"
      exit 1
    fi
    echo "    $scenario: pool.flushes=${flushes} (no-force holds)"
  done
fi

# MVCC read-path ratchet (PR9): the snapshot scan path must collapse
# scan-phase lock traffic by >= 10x against the locking baseline (the
# shipped figure is ~40,000x: one Relation IS lock per scan instead of
# a record + gap lock per row), and the snapshot run must actually have
# routed its scans through the version store. Both scenarios run the
# identical seeded workload, so the ratio is hermetic.
if [ -f BENCH_pr9.json ]; then
  echo "==> MVCC read-path ratchet (pr9 snapshot vs locking)"
  scanlocks() { # scenario -> bench.scan_lock_acquires
    grep -o "\"name\": \"$1\".*" BENCH_pr9.json \
      | grep -oE '"bench\.scan_lock_acquires": ?[0-9]+' | grep -oE '[0-9]+' | head -1
  }
  locking=$(scanlocks read_mostly_locking)
  snapshot=$(scanlocks read_mostly_snapshot)
  if [ "${snapshot:-999999}" -gt $((${locking:-0} / 10)) ]; then
    echo "pr9 snapshot scan path took ${snapshot} locks vs locking ${locking} (< 10x collapse)"
    exit 1
  fi
  echo "    scan-path lock.acquires: locking ${locking} -> snapshot ${snapshot}"
  mvcc_scans=$(grep -o '"name": "read_mostly_snapshot".*' BENCH_pr9.json \
    | grep -oE '"mvcc\.snapshot_scans": ?[0-9]+' | grep -oE '[0-9]+' | head -1)
  if [ "${mvcc_scans:-0}" -lt 1 ]; then
    echo "pr9 read_mostly_snapshot never took a snapshot scan"
    exit 1
  fi
  echo "    read_mostly_snapshot: mvcc.snapshot_scans=${mvcc_scans}"
fi

# Statistics cost-feedback ratchet (PR10): maintained statistics must
# at least halve the planner's p90 row-estimate error on the skewed
# matrix relative to the guess-only lane (the shipped figure is ~66x),
# must flip at least one plan, and their per-modification maintenance
# must cost <= 10% wall clock on the identical DML-heavy stream. All
# figures come from the committed baseline, so the gate is hermetic.
if [ -f BENCH_pr10.json ]; then
  echo "==> statistics cost-feedback ratchet (pr10 stats vs guess)"
  misest() { # scenario -> bench.misest_p90
    grep -o "\"name\": \"$1\".*" BENCH_pr10.json \
      | grep -oE '"bench\.misest_p90": ?[0-9]+' | grep -oE '[0-9]+$' | head -1
  }
  guess=$(misest misestimate_guess)
  stats=$(misest misestimate_stats)
  if [ $((${stats:-999999} * 2)) -gt "${guess:-0}" ]; then
    echo "pr10 stats-lane p90 misestimate ${stats} rows vs guess ${guess} (< 2x shrink)"
    exit 1
  fi
  echo "    p90 misestimate: guess ${guess} -> stats ${stats} rows"
  flips=$(grep -o '"name": "misestimate_stats".*' BENCH_pr10.json \
    | grep -oE '"bench\.plan_flips": ?[0-9]+' | grep -oE '[0-9]+$' | head -1)
  if [ "${flips:-0}" -lt 1 ]; then
    echo "pr10 statistics flipped no plans"
    exit 1
  fi
  echo "    plan flips under statistics: ${flips}"
  lane_ms() { # scenario -> elapsed_ms (integer part)
    grep -o "\"name\": \"$1\"[^}]*" BENCH_pr10.json \
      | grep -oE '"elapsed_ms": [0-9]+' | grep -oE '[0-9]+$' | head -1
  }
  base_ms=$(lane_ms dml_overhead_base)
  stats_ms=$(lane_ms dml_overhead_stats)
  if [ $((${stats_ms:-999999} * 10)) -gt $((${base_ms:-0} * 11)) ]; then
    echo "pr10 statistics maintenance overhead: ${stats_ms}ms vs ${base_ms}ms base (> 10%)"
    exit 1
  fi
  echo "    dml lane: base ${base_ms}ms -> stats ${stats_ms}ms (<= 10% overhead)"
fi

echo "check.sh: all gates passed"
