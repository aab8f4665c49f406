//! The metric registry — the one place a metric is declared — plus the
//! estimators every workload shares and the result line the driver reads.
//!
//! `BENCHMARK.json` repeats these tables by hand; `tests/smoke.rs` holds
//! the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How a metric's value is obtained, which decides whether two runs on
/// one seed must agree exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Derived from event counters and byte counts only: repeats exactly
    /// for a seed.
    Counted,
    /// Involves a clock (or the allocator): repeats within noise.
    Timed,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
}

const fn m(name: &'static str, unit: &'static str, kind: Kind) -> MetricDef {
    MetricDef { name, unit, kind }
}

use Kind::{Counted as C, Timed as T};

/// What a user of the engine sees. Every workload reports all seven;
/// directions and bounds live in `BENCHMARK.json`.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", T),
    m("ops_per_s", "1/s", T),
    m("lat_p50_us", "us", T),
    m("recovery_s", "s", T),
    m("wal_bytes_per_user_byte", "B/B", C),
    m("store_bytes_per_user_byte", "B/B", C),
    m("peak_rss_mb", "MB", T),
];

/// One entry per layer observation, named `<crate>.<what>_<unit>`. The
/// README's table says which end-to-end metric on which workload each
/// should move; a workload that cannot exercise a metric reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    // compile path: point_select, point_cold
    m("query.parse_us", "us", T),
    m("query.plan_us", "us", T),
    m("query.plan_cache_hit_rate", "ratio", C),
    m("core.begin_commit_ns", "ns", T),
    // read path: scan_join
    m("query.exec_us", "us", T),
    m("query.rows_examined_per_row_returned", "ratio", C),
    m("query.scan_us", "us", T),
    m("query.agg_us", "us", T),
    m("query.join_outer_us", "us", T),
    m("query.join_probe_us", "us", T),
    m("core.scan_next_snapshot_ns", "ns", T),
    m("core.scan_rows_per_stmt", "count", C),
    m("core.scan_opens_per_stmt", "count", C),
    m("core.fetches_per_stmt", "count", C),
    m("expr.eval_predicate_ns", "ns", T),
    m("txn.version_reads_per_scanned_row", "ratio", C),
    m("pagestore.pins_per_scanned_row", "ratio", C),
    m("pagestore.fetch_hit_ns", "ns", T),
    // SQL write path: keyed_dml
    m("query.update_us", "us", T),
    m("query.insert_us", "us", T),
    m("query.delete_us", "us", T),
    m("core.scan_next_locking_ns", "ns", T),
    m("core.commit_us", "us", T),
    m("lock.acquires_per_stmt", "count", C),
    m("lock.lock_unlock_ns", "ns", T),
    m("lock.est_share", "ratio", T),
    m("pagestore.pins_per_stmt", "count", C),
    m("storage.btree_sm_fetch_us", "us", T),
    m("wal.forces_per_commit", "count", C),
    m("wal.force_us", "us", T),
    m("wal.est_share", "ratio", T),
    // record-interface write path: attached_dml
    m("core.insert_us", "us", T),
    m("core.update_us", "us", T),
    m("core.delete_us", "us", T),
    m("core.fetch_us", "us", T),
    m("core.rollback_us", "us", T),
    m("storage.bare_write_us", "us", T),
    m("attach.invocations_per_write", "count", C),
    m("attach.probes_per_stmt", "count", C),
    m("attach.veto_rate", "ratio", C),
    m("attach.cost_per_attachment_us", "us", T),
    m("attach.index_probe_us", "us", T),
    m("btree.insert_ns", "ns", T),
    m("btree.delete_ns", "ns", T),
    m("txn.abort_rate", "ratio", C),
    m("txn.versions_recorded_per_write", "count", C),
    m("txn.gc_reclaimed_per_commit", "count", C),
    m("wal.frames_per_commit", "count", C),
    m("wal.bytes_per_commit", "B", C),
    m("wal.append_ns", "ns", T),
    // shared structures
    m("btree.get_ns", "ns", T),
    m("btree.cursor_next_ns", "ns", T),
    m("wal.restart_frames_per_s", "1/s", T),
    m("storage.pages_per_1k_rows", "count", C),
    m("btree.pages_per_1k_entries", "count", C),
    // buffer pool under pressure: point_cold
    m("pagestore.hit_rate", "ratio", C),
    m("pagestore.evictions_per_stmt", "count", C),
    m("pagestore.steals_per_stmt", "count", C),
    m("pagestore.disk_reads_per_stmt", "count", C),
    m("pagestore.disk_writes_per_stmt", "count", C),
    m("pagestore.fetch_miss_us", "us", T),
    m("pagestore.est_share", "ratio", T),
];

/// Values gathered by name while a run proceeds. Names outside the
/// registry are diagnostics: printed, never gated.
#[derive(Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_string(), v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &f64)> {
        self.0.iter()
    }
}

/// What one run hands back: the gated metrics of its mode, diagnostics,
/// and the correctness tally the contract asks for.
pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    /// False when a durability or end-state check failed, even if every
    /// statement matched its expected outcome.
    pub correct: bool,
    pub notes: Vec<String>,
}

impl Report {
    /// The registry table this run's mode reports.
    pub fn defs(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// One `name value unit` line per metric, diagnostics after the
    /// gated ones, then notes.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "# workload {} ({})",
            self.workload,
            if self.traced {
                "traced fixed-work pass: per-layer metrics"
            } else {
                "untraced: end-to-end metrics"
            }
        );
        for d in self.defs() {
            let _ = writeln!(
                s,
                "{:<40} {:>16} {}",
                d.name,
                fmt_num(self.values.get(d.name)),
                d.unit
            );
        }
        let gated: Vec<&str> = self.defs().iter().map(|d| d.name).collect();
        for (name, v) in self.values.iter() {
            if !gated.contains(&name.as_str()) {
                let _ = writeln!(s, "  diag {:<42} {:>16}", name, fmt_num(*v));
            }
        }
        for n in &self.notes {
            let _ = writeln!(s, "  note {n}");
        }
        s
    }

    /// The contract's last line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn render_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, d) in self.defs().iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                fmt_num(self.values.get(d.name)),
                d.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Shortest round-trip decimal form, so a measured time keeps all its
/// digits; non-finite values cannot be JSON and print as 0.
pub fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

// -- estimators ----------------------------------------------------------

/// Median of a sample (mean of the two middle values for even counts);
/// 0 for an empty one.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile, `q` in `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Smallest value; 0 for an empty sample.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// computes them (the exclusive method the driver uses).
pub fn quartiles_exclusive(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// `a / b`, or 0 when the denominator is: a workload that never runs the
/// counted event reports the ratio as absent, not as NaN.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles_exclusive(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&xs), 5.5);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
