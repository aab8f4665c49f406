//! Cost-estimation interface types.
//!
//! "Given a list of 'eligible' predicates supplied by the query planner,
//! the storage method or access attachment can determine the 'relevance'
//! of the predicates to the access path instance and then estimate the
//! I/O and CPU costs to return the record fields or keys that satisfy the
//! predicates." An extension answers with a [`PathChoice`]; the planner
//! compares [`Cost`]s across access paths (path 0 = the storage method).
//!
//! The eligible list may contain `field = $n`: the table is the inner
//! side of a join and `$n` is a value of the outer row, known only when
//! the access is opened. A path that can look that value up by key
//! answers with the query [`AccessQuery::KeyEqualsParam`]`(n)` and lists
//! the conjunct in `applied`; the executor binds it to
//! [`AccessQuery::KeyEquals`] — "the key is, or for a composite key starts
//! with, these encoded values" on every path — before it opens the
//! access. A path that cannot needs no code for it: the conjunct is one
//! more predicate, pushed down or left as residual with the value in it.
//!
//! A *keyed* path — entries ordered, or hashed, by the encoded values of
//! a list of fields — does not decide relevance itself: it states its
//! key fields to [`KeyMatch::of`] and adds what only it knows
//! (uniqueness, covering, ordering, a probe cost of its own).

use std::ops::Bound;

use dmx_expr::analyze::{sargable, Sarg, SargOp};
use dmx_expr::{CmpOp, Expr};
use dmx_types::key::encode_value;
use dmx_types::{FieldId, Value};

use crate::access::{prefix_successor, AccessPath, AccessQuery, KeyRange};
use crate::stats::RelationStats;

/// Cost model weights: one page transfer costs `IO_UNIT`, one record
/// touched costs `CPU_UNIT`, one extension procedure call costs
/// `CALL_UNIT`.
pub const IO_UNIT: f64 = 1.0;
pub const CPU_UNIT: f64 = 0.001;
pub const CALL_UNIT: f64 = 0.0002;

/// Estimated I/O and CPU cost.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cost {
    /// Page transfers.
    pub io: f64,
    /// Records / keys processed.
    pub cpu: f64,
}

impl Cost {
    /// A cost of `io` page reads and `cpu` record touches.
    pub fn new(io: f64, cpu: f64) -> Self {
        Cost { io, cpu }
    }

    /// Weighted scalar total used for comparison.
    pub fn total(&self) -> f64 {
        self.io * IO_UNIT + self.cpu * CPU_UNIT
    }

    /// Component-wise sum.
    pub fn plus(&self, other: Cost) -> Cost {
        Cost {
            io: self.io + other.io,
            cpu: self.cpu + other.cpu,
        }
    }

    /// Scales both components (e.g. per-probe cost × probe count).
    pub fn times(&self, k: f64) -> Cost {
        Cost {
            io: self.io * k,
            cpu: self.cpu * k,
        }
    }

    /// Reading `rows` adjacent entries of a tree that holds `entries`,
    /// `per_leaf` to a leaf page: one descent (fan-out ~128) and the
    /// leaves they span.
    pub fn tree(entries: u64, rows: f64, per_leaf: f64) -> Cost {
        let height = (entries.max(2) as f64).log2() / 7.0 + 1.0;
        Cost::new(height + (rows / per_leaf).ceil(), rows)
    }
}

/// An extension's answer to the planner: how it would run an access and
/// what that costs.
#[derive(Debug, Clone)]
pub struct PathChoice {
    /// Which access path this is.
    pub path: AccessPath,
    /// The concrete query the access path would execute.
    pub query: AccessQuery,
    /// Estimated cost of producing the qualifying record keys / fields.
    pub cost: Cost,
    /// Estimated number of records the path emits.
    pub rows_out: f64,
    /// Base-table fields available directly from the path (a covering
    /// path lets the executor skip the storage-method fetch).
    pub covered: Option<Vec<FieldId>>,
    /// Predicates the path *fully* applies (the executor need not
    /// re-check them).
    pub applied: Vec<Expr>,
    /// Field ordering of the emitted stream, if any (lets the planner
    /// skip sorts).
    pub ordering: Option<Vec<FieldId>>,
}

impl PathChoice {
    /// The storage method's full scan of `records` records (the
    /// relation's count, or a nominal one where none is maintained): every
    /// page read, every record touched, every pushed-down predicate
    /// applied in the pool and `rows_out` scaled by their selectivity
    /// under `stats`. A storage method then states only what differs.
    pub fn full_scan(records: u64, stats: &RelationStats, preds: &[Expr]) -> PathChoice {
        let ts = stats.table_stats();
        let sel: f64 = preds
            .iter()
            .map(|p| dmx_expr::selectivity(p, ts.as_deref()))
            .product();
        PathChoice {
            path: AccessPath::StorageMethod,
            query: AccessQuery::All,
            cost: Cost::new(stats.pages() as f64, records as f64),
            rows_out: records as f64 * sel,
            covered: None,
            applied: preds.to_vec(),
            ordering: None,
        }
    }
}

/// What the eligible predicates mean to a path keyed on a list of fields.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyMatch {
    /// How many leading key fields are fixed: by constants, or the first
    /// alone by `$n`.
    pub fixed: usize,
    /// The encoded constants of the fixed fields (empty under `$n`).
    pub prefix: Vec<u8>,
    /// [`AccessQuery::KeyEqualsParam`] for `$n`, otherwise the
    /// [`AccessQuery::Range`] of keys the applied conjuncts allow.
    pub query: AccessQuery,
    /// The conjuncts the key answers *fully*: an entry's key lies in the
    /// range exactly when every one of them holds on its record, so none
    /// needs checking again.
    pub applied: Vec<Expr>,
    /// The share of the relation's records inside the range.
    pub fraction: f64,
}

impl KeyMatch {
    /// Matches `preds` against a key whose entries start with the
    /// encoded values of `fields`, in that order (DESIGN §6.1 has the
    /// contract). Relevant are `field = constant` on the leading fields,
    /// as far as they go, then every ordering comparison of the next
    /// field with a constant — the tightest bound of each side decides,
    /// and a pair no value satisfies names an empty range — or, with no
    /// constant on it, the first field `= $n`. `None` when nothing is.
    ///
    /// Every bound is a key prefix: a lower bound the first key admitted,
    /// included, an upper bound the first refused, excluded, so the range
    /// holds whatever follows the encoded values in a key. An upper bound
    /// alone starts past the NULLs, which sort first and satisfy no
    /// comparison.
    ///
    /// The fraction multiplies each fixed field's statistics (`one_key`,
    /// the path's guess of one key's share, where they do not cover them
    /// all) by the bounded field's: one bound as its statistics say, or a
    /// third; two as `lower + upper − 1`, the whole then no less than one
    /// value's share.
    pub fn of(
        fields: &[FieldId],
        preds: &[Expr],
        stats: &RelationStats,
        one_key: f64,
    ) -> Option<KeyMatch> {
        let sargs: Vec<(&Expr, Sarg)> = preds
            .iter()
            .filter_map(|p| Some((p, sargable(p)?)))
            .collect();
        let ts = stats.table_stats();
        let share = |s: &Sarg| dmx_expr::sarg_fraction(s.field, &s.op, ts.as_deref());

        let (mut prefix, mut applied) = (Vec::new(), Vec::new());
        let mut fixed_share = Some(1.0);
        for &f in fields {
            let Some((p, s, v)) = sargs.iter().find_map(|(p, s)| match &s.op {
                SargOp::Eq(v) if s.field == f => Some((*p, s, v)),
                _ => None,
            }) else {
                break;
            };
            encode_value(v, &mut prefix);
            applied.push(p.clone());
            fixed_share = fixed_share.zip(share(s)).map(|(a, b)| a * b);
        }
        let fixed = applied.len();
        if fixed == 0 {
            let probe = sargs.iter().find_map(|(p, s)| match s.op {
                SargOp::EqParam(n) if fields.first() == Some(&s.field) => Some((*p, s, n)),
                _ => None,
            });
            if let Some((p, s, n)) = probe {
                return Some(KeyMatch {
                    fixed: 1,
                    prefix,
                    query: AccessQuery::KeyEqualsParam(n),
                    applied: vec![p.clone()],
                    fraction: share(s).unwrap_or(one_key),
                });
            }
        }

        // The tightest bound of each side on the next field, as the first
        // key it admits or refuses — `>` and `<=` turn on the first key
        // past those that start with the constant — beside the sarg it
        // came from.
        let (mut lower, mut upper) = (None::<(Vec<u8>, &Sarg)>, None::<(Vec<u8>, &Sarg)>);
        for (p, s) in &sargs {
            let SargOp::Range(op, v) = &s.op else {
                continue;
            };
            if fields.get(fixed) != Some(&s.field) {
                continue;
            }
            let mut edge = prefix.clone();
            encode_value(v, &mut edge);
            if matches!(op, CmpOp::Gt | CmpOp::Le) {
                let Some(past) = prefix_successor(&edge) else {
                    continue;
                };
                edge = past;
            }
            applied.push((*p).clone());
            let is_upper = matches!(op, CmpOp::Lt | CmpOp::Le);
            let tighter = |held: &Vec<u8>| if is_upper { edge < *held } else { edge > *held };
            let side = if is_upper { &mut upper } else { &mut lower };
            if side.as_ref().is_none_or(|(held, _)| tighter(held)) {
                *side = Some((edge, s));
            }
        }
        if applied.is_empty() {
            return None;
        }

        let fixed_share = match fixed {
            0 => 1.0,
            _ => fixed_share.unwrap_or(one_key),
        };
        let third = |s: &Sarg| share(s).unwrap_or(1.0 / 3.0);
        let fraction = match (&lower, &upper) {
            (None, None) => fixed_share,
            (Some((_, s)), None) | (None, Some((_, s))) => fixed_share * third(s),
            (Some((_, lo)), Some((_, hi))) => {
                let one_value = share(&Sarg {
                    field: lo.field,
                    op: SargOp::EqParam(0),
                });
                (fixed_share * (third(lo) + third(hi) - 1.0)).max(one_value.unwrap_or(one_key))
            }
        };

        let KeyRange { lo, hi } = KeyRange::prefix(prefix.clone());
        let lo = match (lower, &upper) {
            (Some((edge, _)), _) => Bound::Included(edge),
            (None, Some(_)) => {
                let mut nulls = prefix.clone();
                encode_value(&Value::Null, &mut nulls);
                prefix_successor(&nulls).map_or(lo, Bound::Included)
            }
            (None, None) => lo,
        };
        let hi = upper.map_or(hi, |(edge, _)| Bound::Excluded(edge));
        Some(KeyMatch {
            fixed,
            prefix,
            query: AccessQuery::Range(KeyRange { lo, hi }),
            applied,
            fraction,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    #[test]
    fn totals_and_arithmetic() {
        let a = Cost::new(10.0, 1000.0);
        let b = Cost::new(1.0, 1.0);
        assert!(a.total() > b.total());
        let s = a.plus(b);
        assert_eq!(s.io, 11.0);
        assert_eq!(s.cpu, 1001.0);
        let t = b.times(3.0);
        assert_eq!(t.io, 3.0);
    }

    #[test]
    fn io_dominates_cpu_at_equal_counts() {
        // One page read outweighs one record of CPU by construction.
        assert!(Cost::new(1.0, 0.0).total() > Cost::new(0.0, 1.0).total());
    }

    #[test]
    fn tree_cost_is_a_descent_plus_the_leaves_spanned() {
        let c = Cost::tree(10_000, 21.0, 100.0);
        assert_eq!(c.io, (10_000f64).log2() / 7.0 + 1.0 + 1.0);
        assert_eq!(c.cpu, 21.0);
        // no entry, no leaf: the descent alone
        assert_eq!(Cost::tree(0, 0.0, 100.0).io, 1.0 / 7.0 + 1.0);
    }

    // ---- the matcher against a model --------------------------------

    use dmx_expr::{EvalContext, FunctionRegistry};
    use dmx_types::key::encode_values;
    use dmx_types::testrng::TestRng;

    const ONE_KEY: f64 = 0.001;

    fn cmp(op: CmpOp, field: FieldId, v: i64) -> Expr {
        Expr::cmp_col(op, field, v)
    }

    fn eq_param(field: FieldId, n: usize) -> Expr {
        Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Column(field)),
            Box::new(Expr::Param(n)),
        )
    }

    fn enc(vals: &[i64]) -> Vec<u8> {
        encode_values(&vals.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>())
    }

    fn past(vals: &[i64]) -> Vec<u8> {
        prefix_successor(&enc(vals)).unwrap()
    }

    fn matched(fields: &[FieldId], preds: &[Expr]) -> Option<KeyMatch> {
        KeyMatch::of(fields, preds, &RelationStats::default(), ONE_KEY)
    }

    #[test]
    fn the_matcher_names_the_range_the_conjuncts_allow() {
        use CmpOp::*;
        let (inc, exc) = (Bound::Included, Bound::Excluded);
        // (key fields, conjuncts, applied (indices into them), lo, hi, fraction)
        type Case = (
            Vec<FieldId>,
            Vec<Expr>,
            Vec<usize>,
            Bound<Vec<u8>>,
            Bound<Vec<u8>>,
            f64,
        );
        let cases: Vec<Case> = vec![
            // a composite key: the prefix, then both bounds of the next field
            (
                vec![0, 1],
                vec![cmp(Ge, 1, 5), cmp(Eq, 0, 1), cmp(Lt, 1, 9), cmp(Eq, 2, 7)],
                vec![1, 0, 2],
                inc(enc(&[1, 5])),
                exc(enc(&[1, 9])),
                ONE_KEY,
            ),
            // the prefix alone: every key that starts with it
            (
                vec![0, 1],
                vec![cmp(Eq, 0, 1)],
                vec![0],
                inc(enc(&[1])),
                exc(past(&[1])),
                ONE_KEY,
            ),
            // both bounds, in either order
            (
                vec![0],
                vec![cmp(Ge, 0, 100), cmp(Le, 0, 120)],
                vec![0, 1],
                inc(enc(&[100])),
                exc(past(&[120])),
                ONE_KEY,
            ),
            (
                vec![0],
                vec![cmp(Le, 0, 120), cmp(Ge, 0, 100)],
                vec![0, 1],
                inc(enc(&[100])),
                exc(past(&[120])),
                ONE_KEY,
            ),
            // two lower bounds: the tighter decides, both are answered
            (
                vec![0],
                vec![cmp(Gt, 0, 3), cmp(Ge, 0, 7)],
                vec![0, 1],
                inc(enc(&[7])),
                Bound::Unbounded,
                1.0 / 3.0,
            ),
            (
                vec![0],
                vec![cmp(Ge, 0, 7), cmp(Gt, 0, 7)],
                vec![0, 1],
                inc(past(&[7])),
                Bound::Unbounded,
                1.0 / 3.0,
            ),
            // a pair no value satisfies: an empty range, not an error
            (
                vec![0],
                vec![cmp(Gt, 0, 9), cmp(Lt, 0, 3)],
                vec![0, 1],
                inc(past(&[9])),
                exc(enc(&[3])),
                ONE_KEY,
            ),
            // an upper bound alone starts past the NULLs
            (
                vec![0],
                vec![cmp(Lt, 0, 5)],
                vec![0],
                inc(prefix_successor(&encode_values(&[Value::Null])).unwrap()),
                exc(enc(&[5])),
                1.0 / 3.0,
            ),
            // a constant beside `$n` on the same field: the constant is
            // the key, `$n` stays a predicate
            (
                vec![0],
                vec![eq_param(0, 2), cmp(Eq, 0, 4)],
                vec![1],
                inc(enc(&[4])),
                exc(past(&[4])),
                ONE_KEY,
            ),
        ];
        for (fields, preds, applied, lo, hi, fraction) in cases {
            let m = matched(&fields, &preds).unwrap_or_else(|| panic!("{preds:?}"));
            let want: Vec<Expr> = applied.iter().map(|&i| preds[i].clone()).collect();
            assert_eq!(m.applied, want, "{preds:?}");
            assert_eq!(
                m.query,
                AccessQuery::Range(KeyRange { lo, hi }),
                "{preds:?}"
            );
            assert_eq!(m.fraction, fraction, "{preds:?}");
            let fixed = want
                .iter()
                .filter(|p| sargable(p).is_some_and(|s| matches!(s.op, SargOp::Eq(_))));
            assert_eq!(m.fixed, fixed.count(), "{preds:?}");
        }
        let empty = matched(&[0], &[cmp(Gt, 0, 9), cmp(Lt, 0, 3)]).unwrap();
        let AccessQuery::Range(r) = empty.query else {
            panic!()
        };
        assert!((0..12).all(|v| !r.contains(&enc(&[v]))));

        // `$n` alone: looked up by key when the access is opened
        let probe = matched(&[0, 1], &[cmp(Ge, 1, 3), eq_param(0, 2)]).unwrap();
        assert_eq!(probe.query, AccessQuery::KeyEqualsParam(2));
        assert_eq!(probe.applied, vec![eq_param(0, 2)]);
        assert_eq!((probe.fixed, probe.fraction), (1, ONE_KEY));

        // irrelevant: `!=` and `= NULL`; a bound, or `$n`, on a field with
        // no equality on the one before it; a field the key does not have
        for (fields, preds) in [
            (vec![0], vec![cmp(Ne, 0, 3), Expr::col_eq(0, Value::Null)]),
            (vec![0, 1], vec![cmp(Ge, 1, 5)]),
            (vec![0, 1], vec![eq_param(1, 0)]),
            (vec![0], vec![cmp(Eq, 1, 5)]),
            (vec![0], vec![]),
        ] {
            assert_eq!(matched(&fields, &preds), None, "{preds:?}");
        }
    }

    #[test]
    fn two_bounds_share_what_both_statistics_leave() {
        use dmx_expr::stats::{ColumnStats, Histogram, TableStats};
        let mut histogram = Histogram::new(0.0, 10_000.0);
        histogram.buckets.fill(1250);
        let stats = RelationStats::default();
        stats.reset(10_000, 250, 0);
        stats.publish_table_stats(Some(Arc::new(TableStats {
            rows: 10_000,
            columns: vec![Some(ColumnStats {
                nulls: 0,
                distinct: 10_000,
                min: Some(Value::Int(0)),
                max: Some(Value::Int(9_999)),
                histogram: Some(histogram),
            })],
        })));
        let (lo, hi) = (cmp(CmpOp::Ge, 0, 100), cmp(CmpOp::Le, 0, 120));
        let share = |p: &Expr| KeyMatch::of(&[0], std::slice::from_ref(p), &stats, ONE_KEY);
        let (lo_share, hi_share) = (share(&lo).unwrap().fraction, share(&hi).unwrap().fraction);
        assert!((lo_share - 0.99).abs() < 1e-9 && (hi_share - 0.012).abs() < 1e-9);
        for preds in [[lo.clone(), hi.clone()], [hi, lo]] {
            let m = KeyMatch::of(&[0], &preds, &stats, ONE_KEY).unwrap();
            assert_eq!(m.fraction, lo_share + hi_share - 1.0, "{preds:?}");
        }
        // a pair that leaves nothing is still one value's share
        let none = [cmp(CmpOp::Ge, 0, 500), cmp(CmpOp::Le, 0, 400)];
        let m = KeyMatch::of(&[0], &none, &stats, ONE_KEY).unwrap();
        assert_eq!(m.fraction, 1.0 / 10_000.0);
    }

    /// "Applied" means fully applied — the executor never checks an
    /// applied conjunct again — so for any key that starts with a row's
    /// encoded key fields, being in the range and satisfying every
    /// applied conjunct are the same thing.
    #[test]
    fn a_key_is_in_the_range_exactly_when_every_applied_conjunct_holds() {
        let funcs = FunctionRegistry::empty();
        let mut rng = TestRng::new(0x5EED_0023);
        let value = |rng: &mut TestRng| match rng.below(8) {
            0 => Value::Null,
            v => Value::Int(v as i64 - 1),
        };
        let (mut ranges, mut inside) = (0, 0);
        for _ in 0..3000 {
            let mut fields: Vec<FieldId> = vec![0, 1, 2];
            rng.shuffle(&mut fields);
            fields.truncate(1 + rng.index(3));
            let preds: Vec<Expr> = (0..1 + rng.index(4))
                .map(|_| {
                    let ops = [
                        CmpOp::Eq,
                        CmpOp::Ne,
                        CmpOp::Lt,
                        CmpOp::Le,
                        CmpOp::Gt,
                        CmpOp::Ge,
                    ];
                    let op = ops[rng.index(ops.len())];
                    Expr::cmp_col(op, rng.below(3) as FieldId, value(&mut rng))
                })
                .collect();
            let Some(m) = matched(&fields, &preds) else {
                continue;
            };
            let AccessQuery::Range(range) = &m.query else {
                panic!("no `$n` among {preds:?}");
            };
            ranges += 1;
            for _ in 0..24 {
                let row: Vec<Value> = (0..3).map(|_| value(&mut rng)).collect();
                let key_values: Vec<Value> =
                    fields.iter().map(|&f| row[f as usize].clone()).collect();
                // whatever follows the key fields: nothing, or a record key
                let mut key = encode_values(&key_values);
                key.extend(rng.bytes(3));
                let holds = m
                    .applied
                    .iter()
                    .all(|p| dmx_expr::eval_predicate(p, &row, EvalContext::new(&funcs)).unwrap());
                assert_eq!(
                    range.contains(&key),
                    holds,
                    "key fields {fields:?}, {preds:?} applied {:?}, row {row:?}",
                    m.applied
                );
                inside += holds as u32;
            }
        }
        assert!(
            ranges > 1000 && inside > 1000,
            "{ranges} ranges, {inside} rows inside"
        );
    }

    #[test]
    fn full_scan_baseline() {
        let stats = RelationStats::default();
        stats.reset(5000, 100, 0);
        let c = PathChoice::full_scan(5000, &stats, &[]);
        assert_eq!(c.cost.io, 100.0);
        assert_eq!(c.rows_out, 5000.0);
        assert!(matches!(c.query, AccessQuery::All));
        assert!(c.applied.is_empty());
    }
}
