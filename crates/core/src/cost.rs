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

use dmx_expr::Expr;
use dmx_types::FieldId;

use crate::access::{AccessPath, AccessQuery};
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

#[cfg(test)]
mod tests {
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
