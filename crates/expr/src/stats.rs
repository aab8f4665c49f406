//! Maintained-statistics shapes and the stats-aware selectivity
//! estimator.
//!
//! The paper allows attachments "to maintain statistics about relations";
//! this module defines the *planner-facing* snapshot of such statistics —
//! per-relation row counts, per-field null/distinct counts, min/max and a
//! fixed-bucket equi-width histogram — plus [`selectivity`], the
//! estimator the cost-estimation interface consults. The estimator falls
//! back to [`super::analyze::default_selectivity`]'s textbook guesses for
//! any predicate (or column) the statistics do not cover, so partially
//! analyzed relations still benefit from whatever is known.
//!
//! The statistics *attachment* (crates/attach) owns durable maintenance
//! and publishes immutable [`TableStats`] snapshots; everything here is
//! pure computation over such a snapshot.

use dmx_types::{FieldId, Value};

use crate::analyze::{default_selectivity, sargable, SargOp};
use crate::ast::{CmpOp, Expr};

/// Number of equi-width histogram buckets maintained per field.
pub const HIST_BUCKETS: usize = 8;

/// A fixed-bucket equi-width histogram over a numeric field. Bucket `i`
/// covers `[lo + i*w, lo + (i+1)*w)` with `w = (hi - lo) / buckets`;
/// out-of-range values are clamped into the edge buckets (bounds are
/// frozen when the histogram is built by `ANALYZE`, while maintenance
/// continues under later DML).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    pub lo: f64,
    pub hi: f64,
    pub buckets: Vec<u64>,
}

impl Histogram {
    /// An empty histogram over `[lo, hi]` (degenerate ranges are widened
    /// so every bucket keeps a non-zero width).
    pub fn new(lo: f64, hi: f64) -> Histogram {
        let hi = if hi > lo { hi } else { lo + 1.0 };
        Histogram {
            lo,
            hi,
            buckets: vec![0; HIST_BUCKETS],
        }
    }

    fn width(&self) -> f64 {
        (self.hi - self.lo) / self.buckets.len() as f64
    }

    /// The bucket a value falls into, clamped to the edge buckets.
    pub fn bucket_index(&self, v: f64) -> usize {
        if self.buckets.is_empty() {
            return 0;
        }
        let raw = (v - self.lo) / self.width();
        (raw.max(0.0) as usize).min(self.buckets.len() - 1)
    }

    /// Adds (`delta = 1`) or removes (`delta = -1`) one value.
    pub fn add(&mut self, v: f64, delta: i64) {
        let i = self.bucket_index(v);
        let b = &mut self.buckets[i];
        *b = if delta >= 0 {
            b.saturating_add(delta as u64)
        } else {
            b.saturating_sub((-delta) as u64)
        };
    }

    /// Total count across all buckets.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Estimated fraction of counted values strictly below `v`, with
    /// linear interpolation inside the containing bucket.
    pub fn fraction_below(&self, v: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.5;
        }
        if v <= self.lo {
            return 0.0;
        }
        if v >= self.hi {
            return 1.0;
        }
        let i = self.bucket_index(v);
        let full: u64 = self.buckets.iter().take(i).sum();
        let within = (v - (self.lo + i as f64 * self.width())) / self.width();
        (full as f64 + self.buckets[i] as f64 * within.clamp(0.0, 1.0)) / total as f64
    }
}

/// Maintained statistics for one field.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// NULL values currently in the relation.
    pub nulls: u64,
    /// Approximate distinct non-null values (linear-counting estimate;
    /// never shrinks under deletes until the next `ANALYZE`).
    pub distinct: u64,
    /// Smallest / largest value ever inserted (widen-only under DML,
    /// exact after `ANALYZE`).
    pub min: Option<Value>,
    pub max: Option<Value>,
    /// Present only after `ANALYZE` froze the bucket bounds.
    pub histogram: Option<Histogram>,
}

impl ColumnStats {
    fn non_null_fraction(&self, rows: u64) -> f64 {
        if rows == 0 {
            return 1.0;
        }
        1.0 - (self.nulls.min(rows) as f64 / rows as f64)
    }

    /// Fraction of rows whose value lies strictly below `v`, from the
    /// histogram when present, else interpolated between min and max.
    fn fraction_below(&self, v: f64) -> Option<f64> {
        if let Some(h) = &self.histogram {
            return Some(h.fraction_below(v));
        }
        let (lo, hi) = (
            value_to_f64(self.min.as_ref()?)?,
            value_to_f64(self.max.as_ref()?)?,
        );
        if hi <= lo {
            return Some(if v > lo { 1.0 } else { 0.0 });
        }
        Some(((v - lo) / (hi - lo)).clamp(0.0, 1.0))
    }

    /// Selectivity of one sargable constraint on this column, or `None`
    /// when the statistics cannot answer (non-numeric constant, spatial
    /// constraint, no data).
    pub fn sarg_selectivity(&self, op: &SargOp, rows: u64) -> Option<f64> {
        if rows == 0 {
            return Some(0.0);
        }
        let nn = self.non_null_fraction(rows);
        // one distinct value's share of the non-null rows
        let one_value = (nn / self.distinct.max(1) as f64).clamp(0.0, 1.0);
        match op {
            SargOp::Eq(v) => {
                let x = value_to_f64(v)?;
                // min/max only widen under DML, so an out-of-range
                // constant provably matches nothing.
                if let (Some(lo), Some(hi)) = (
                    self.min.as_ref().and_then(value_to_f64),
                    self.max.as_ref().and_then(value_to_f64),
                ) {
                    if x < lo || x > hi {
                        return Some(0.0);
                    }
                }
                // With a histogram, localize the uniform-distinct guess
                // to the constant's bucket: skew a global distinct count
                // cannot see shows up as a heavy bucket.
                if let Some(h) = &self.histogram {
                    let total = h.total();
                    if total > 0 && !h.buckets.is_empty() {
                        let bfrac = h.buckets[h.bucket_index(x)] as f64 / total as f64;
                        let per_bucket =
                            (self.distinct.max(1) as f64 / h.buckets.len() as f64).max(1.0);
                        return Some((bfrac / per_bucket).clamp(0.0, 1.0));
                    }
                }
                Some(one_value)
            }
            // which value is unknown until the access is opened
            SargOp::EqParam(_) => Some(one_value),
            SargOp::Range(cmp, v) => {
                let x = value_to_f64(v)?;
                let below = self.fraction_below(x)?;
                let sel = match cmp {
                    CmpOp::Lt | CmpOp::Le => below,
                    CmpOp::Gt | CmpOp::Ge => 1.0 - below,
                    _ => return None,
                };
                Some((sel * nn).clamp(0.0, 1.0))
            }
            SargOp::Encloses(_) | SargOp::EnclosedBy(_) | SargOp::Intersects(_) => None,
        }
    }
}

/// An immutable per-relation statistics snapshot, as published to the
/// planner (`sys.statistics` renders the same snapshot as rows).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TableStats {
    /// Rows currently in the relation (maintained exactly).
    pub rows: u64,
    /// Per-field statistics, indexed by [`FieldId`]; `None` for fields
    /// the attachment does not track (non-numeric types).
    pub columns: Vec<Option<ColumnStats>>,
}

impl TableStats {
    /// Statistics for one field, if tracked.
    pub fn column(&self, f: FieldId) -> Option<&ColumnStats> {
        self.columns.get(f as usize).and_then(|c| c.as_ref())
    }
}

/// Numeric view of a value for histogram / range math.
pub fn value_to_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Statistics-based fraction of rows matched by one sargable constraint
/// on `field`, or `None` when no snapshot covers the column (callers
/// fall back to their structural guess, e.g. `1/records` for a unique
/// key probe).
pub fn sarg_fraction(field: FieldId, op: &SargOp, stats: Option<&TableStats>) -> Option<f64> {
    let st = stats?;
    if st.rows == 0 {
        return None;
    }
    st.column(field)?.sarg_selectivity(op, st.rows)
}

/// Estimated selectivity of `expr`: statistics-driven where the snapshot
/// covers the constrained column, [`default_selectivity`] otherwise.
/// Passing `None` reproduces the guess-based baseline exactly.
pub fn selectivity(expr: &Expr, stats: Option<&TableStats>) -> f64 {
    match stats {
        Some(st) if st.rows > 0 => stats_selectivity(expr, st).clamp(0.0, 1.0),
        _ => default_selectivity(expr),
    }
}

fn stats_selectivity(expr: &Expr, st: &TableStats) -> f64 {
    match expr {
        Expr::And(v) => v.iter().map(|e| stats_selectivity(e, st)).product(),
        Expr::Or(v) => {
            let p_none: f64 = v.iter().map(|e| 1.0 - stats_selectivity(e, st)).product();
            1.0 - p_none
        }
        Expr::Not(e) => 1.0 - stats_selectivity(e, st),
        Expr::IsNull(inner, negated) => {
            if let Expr::Column(f) = inner.as_ref() {
                if let Some(cs) = st.column(*f) {
                    let nf = cs.nulls.min(st.rows) as f64 / st.rows as f64;
                    return if *negated { 1.0 - nf } else { nf };
                }
            }
            default_selectivity(expr)
        }
        // `x != c` is the complement of the (sargable) equality.
        Expr::Cmp(CmpOp::Ne, l, r) => {
            let eq = Expr::Cmp(CmpOp::Eq, l.clone(), r.clone());
            1.0 - stats_selectivity(&eq, st)
        }
        Expr::Cmp(_, _, _) => {
            if let Some(s) = sargable(expr) {
                if let Some(cs) = st.column(s.field) {
                    if let Some(sel) = cs.sarg_selectivity(&s.op, st.rows) {
                        return sel;
                    }
                }
            }
            default_selectivity(expr)
        }
        _ => default_selectivity(expr),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(nulls: u64, distinct: u64, min: i64, max: i64, hist: Option<Histogram>) -> ColumnStats {
        ColumnStats {
            nulls,
            distinct,
            min: Some(Value::Int(min)),
            max: Some(Value::Int(max)),
            histogram: hist,
        }
    }

    fn uniform_hist(lo: f64, hi: f64, per_bucket: u64) -> Histogram {
        let mut h = Histogram::new(lo, hi);
        for b in &mut h.buckets {
            *b = per_bucket;
        }
        h
    }

    #[test]
    fn histogram_fraction_below() {
        let h = uniform_hist(0.0, 800.0, 100);
        assert_eq!(h.fraction_below(-5.0), 0.0);
        assert_eq!(h.fraction_below(900.0), 1.0);
        let f = h.fraction_below(200.0);
        assert!((f - 0.25).abs() < 1e-9, "{f}");
        // interpolation inside a bucket
        let f = h.fraction_below(50.0);
        assert!((f - 0.0625).abs() < 1e-9, "{f}");
    }

    #[test]
    fn histogram_clamps_out_of_range_values() {
        let mut h = Histogram::new(0.0, 8.0);
        h.add(-100.0, 1);
        h.add(100.0, 1);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[HIST_BUCKETS - 1], 1);
        h.add(-100.0, -1);
        assert_eq!(h.buckets[0], 0);
        h.add(-100.0, -1); // never underflows
        assert_eq!(h.buckets[0], 0);
    }

    #[test]
    fn eq_uses_distinct_count() {
        let st = TableStats {
            rows: 1000,
            columns: vec![Some(col(0, 10, 0, 9, None))],
        };
        let sel = selectivity(&Expr::col_eq(0, 5i64), Some(&st));
        assert!((sel - 0.1).abs() < 1e-9, "{sel}");
        // out-of-range constant provably matches nothing
        let sel = selectivity(&Expr::col_eq(0, 99i64), Some(&st));
        assert_eq!(sel, 0.0);
        // != is the complement
        let sel = selectivity(&Expr::cmp_col(CmpOp::Ne, 0, 5i64), Some(&st));
        assert!((sel - 0.9).abs() < 1e-9, "{sel}");
    }

    #[test]
    fn range_uses_histogram_then_minmax() {
        let st = TableStats {
            rows: 800,
            columns: vec![Some(col(
                0,
                800,
                0,
                800,
                Some(uniform_hist(0.0, 800.0, 100)),
            ))],
        };
        let sel = selectivity(&Expr::cmp_col(CmpOp::Lt, 0, 200i64), Some(&st));
        assert!((sel - 0.25).abs() < 1e-9, "{sel}");
        // same query without a histogram: min/max interpolation
        let st2 = TableStats {
            rows: 800,
            columns: vec![Some(col(0, 800, 0, 800, None))],
        };
        let sel = selectivity(&Expr::cmp_col(CmpOp::Gt, 0, 600i64), Some(&st2));
        assert!((sel - 0.25).abs() < 1e-9, "{sel}");
    }

    #[test]
    fn nulls_shape_isnull_and_sarg_selectivity() {
        let st = TableStats {
            rows: 100,
            columns: vec![Some(col(25, 5, 0, 9, None))],
        };
        let is_null = Expr::IsNull(Box::new(Expr::Column(0)), false);
        assert!((selectivity(&is_null, Some(&st)) - 0.25).abs() < 1e-9);
        let not_null = Expr::IsNull(Box::new(Expr::Column(0)), true);
        assert!((selectivity(&not_null, Some(&st)) - 0.75).abs() < 1e-9);
        // Eq is scaled by the non-null fraction: 0.75 / 5 distinct
        let sel = selectivity(&Expr::col_eq(0, 5i64), Some(&st));
        assert!((sel - 0.15).abs() < 1e-9, "{sel}");
        // ... and so is equality with a value bound at open
        let param = Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Column(0)),
            Box::new(Expr::Param(2)),
        );
        assert!((selectivity(&param, Some(&st)) - 0.15).abs() < 1e-9);
    }

    #[test]
    fn falls_back_to_defaults_without_stats() {
        let e = Expr::col_eq(0, 1i64);
        assert_eq!(selectivity(&e, None), default_selectivity(&e));
        // untracked column falls back too
        let st = TableStats {
            rows: 10,
            columns: vec![None],
        };
        assert_eq!(selectivity(&e, Some(&st)), default_selectivity(&e));
        // empty relation: everything is zero-selectivity… via defaults
        let st = TableStats {
            rows: 0,
            columns: vec![],
        };
        assert_eq!(selectivity(&e, Some(&st)), default_selectivity(&e));
    }

    #[test]
    fn boolean_combinations_stay_probabilities() {
        let st = TableStats {
            rows: 1000,
            columns: vec![Some(col(0, 10, 0, 9, None)), Some(col(0, 100, 0, 99, None))],
        };
        let e = Expr::And(vec![Expr::col_eq(0, 1i64), Expr::col_eq(1, 2i64)]);
        let s = selectivity(&e, Some(&st));
        assert!((s - 0.001).abs() < 1e-9, "{s}");
        let e = Expr::Or(vec![Expr::col_eq(0, 1i64), Expr::col_eq(1, 2i64)]);
        let s = selectivity(&e, Some(&st));
        assert!((0.0..=1.0).contains(&s) && s > 0.1, "{s}");
        let e = Expr::Not(Box::new(Expr::col_eq(0, 1i64)));
        assert!((selectivity(&e, Some(&st)) - 0.9).abs() < 1e-9);
    }
}
