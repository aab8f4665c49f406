//! The lane registry: one barometer for the paper's claims.
//!
//! The paper's evaluation is architectural, so each lane measures one
//! configuration of an explicit performance claim or design choice (E1–E12
//! of DESIGN.md §4, each with its EXPERIMENTS.md section). A [`Lane`]'s
//! setup returns a fixed-work [`Pass`] that counts its ops and asserts its
//! own answer; [`run`] times the pass and reads the [`COUNTERS`] deltas
//! around it, and [`render`] prints rows as one tab-separated table. The
//! `harness` binary times lanes at full size; `tests/counted.rs` holds
//! every lane's counters at a small size to the checked-in `counted.tsv`.
//!
//! The crate is exempt from the runtime panic discipline (a failed fixture
//! or lane check aborts loudly) and is the one that reads the wall clock.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_types)]

mod lanes;

use std::fmt::Write;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dmx_core::{Database, ExtensionRegistry};
use dmx_query::SqlExt;
use dmx_types::obs::name::*;
use dmx_types::{Record, RecordKey, Result, Value};

pub use lanes::LANES;

/// One measured configuration of a claim.
pub struct Lane {
    /// `e<n>/…`: the claim, then the configuration its setup reads. Unique.
    pub name: &'static str,
    /// The E-number of the claim the lane serves.
    pub claim: u8,
    /// False for a lane whose counters depend on thread timing: it is
    /// timed, but stays out of `counted.tsv`.
    pub counted: bool,
    /// Builds the lane's state from its name at `1/scale` of full size.
    pub setup: fn(&'static str, usize) -> Pass,
}

/// A lane's fixed work over the state its setup built.
pub struct Pass {
    /// The database whose counters the pass moves, if it opens one.
    pub db: Option<Arc<Database>>,
    /// Returns the op count; panics on a wrong answer.
    pub work: Box<dyn FnOnce() -> u64>,
}

/// The counter columns, each the sum of its metrics' deltas over a pass.
pub const COUNTERS: [(&str, &[&str]); 8] = [
    (WAL_BYTES, &[WAL_BYTES]),
    (WAL_APPENDS, &[WAL_APPENDS]),
    (WAL_FORCES, &[WAL_FORCES]),
    (LOCK_ACQUIRES, &[LOCK_ACQUIRES]),
    ("pins", &[POOL_HITS, POOL_MISSES]),
    (SCAN_ROWS, &[SCAN_ROWS]),
    (DML_FETCHES, &[DML_FETCHES]),
    (ATT_INVOCATIONS, &[ATT_INVOCATIONS]),
];

fn counters(db: &Option<Arc<Database>>) -> [u64; 8] {
    let snap = db.as_ref().map(|db| db.metrics_snapshot());
    COUNTERS.map(|(_, names)| match &snap {
        Some(s) => names.iter().map(|n| s.counter(n)).sum(),
        None => 0,
    })
}

/// One lane's measurement: the pass's op count, wall time and counters.
pub struct Row {
    pub lane: &'static Lane,
    pub ops: u64,
    pub elapsed: Duration,
    pub counters: [u64; 8],
}

/// Sets `lane` up at `scale` and runs its pass once.
pub fn run(lane: &'static Lane, scale: usize) -> Row {
    let Pass { db, work } = (lane.setup)(lane.name, scale);
    let (before, start) = (counters(&db), Instant::now());
    let ops = work();
    let (elapsed, after) = (start.elapsed(), counters(&db));
    let counters = std::array::from_fn(|i| after[i] - before[i]);
    Row {
        lane,
        ops,
        elapsed,
        counters,
    }
}

/// Rows as a tab-separated table under a header: lane, claim, ops, ns/op
/// when `timed`, then the [`COUNTERS`].
pub fn render(rows: &[Row], timed: bool) -> String {
    let mut head = vec!["lane", "claim", "ops"];
    head.extend(timed.then_some("ns/op"));
    head.extend(COUNTERS.map(|(c, _)| c));
    let mut out = head.join("\t");
    for r in rows {
        write!(out, "\n{}\tE{}\t{}", r.lane.name, r.lane.claim, r.ops).unwrap();
        if timed {
            let ns = r.elapsed.as_secs_f64() * 1e9 / r.ops.max(1) as f64;
            write!(out, "\t{ns:.1}").unwrap();
        }
        r.counters
            .iter()
            .for_each(|c| write!(out, "\t{c}").unwrap());
    }
    out + "\n"
}

/// Builds the standard registry (all built-in extensions).
pub fn registry() -> Arc<ExtensionRegistry> {
    let reg = ExtensionRegistry::new();
    dmx_storage::register_builtin_storage(&reg).expect("storage builtins");
    dmx_attach::register_builtin_attachments(&reg).expect("attachment builtins");
    reg
}

/// A fresh in-memory database with all built-in extensions.
pub fn open_db() -> Arc<Database> {
    Database::open_fresh(registry()).expect("open")
}

/// Creates the EMPLOYEE-style relation `table` with `indexes` (`{t}` names
/// it) and loads `n` rows of [`emp_row`].
pub fn load_emp(db: &Arc<Database>, table: &str, n: usize, indexes: &[&str]) -> Result<()> {
    db.execute_sql(&format!(
        "CREATE TABLE {table} (id INT NOT NULL, name STRING NOT NULL, dept INT, salary FLOAT)"
    ))?;
    for spec in indexes {
        db.execute_sql(&spec.replace("{t}", table))?;
    }
    insert_rows(db, table, 0..n, emp_row).map(drop)
}

/// Row `i` of [`load_emp`]'s relation: `id, name, dept, salary`.
pub fn emp_row(i: usize) -> Vec<Value> {
    let (id, dept, salary) = (i as i64, (i % 10) as i64, 1000.0 + (i % 100) as f64);
    vec![
        Value::Int(id),
        Value::Str(format!("emp{i}")),
        Value::Int(dept),
        Value::Float(salary),
    ]
}

/// Inserts `row(i)` for each of `ids` into `table` in one transaction;
/// their record keys.
pub fn insert_rows(
    db: &Arc<Database>,
    table: &str,
    ids: Range<usize>,
    row: impl Fn(usize) -> Vec<Value>,
) -> Result<Vec<RecordKey>> {
    let rel = db.catalog().get_by_name(table)?.id;
    db.with_txn(|txn| {
        ids.map(|i| db.insert(txn, rel, Record::new(row(i))))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let db = open_db();
        load_emp(&db, "e", 50, &["CREATE UNIQUE INDEX e_pk ON {t} (id)"]).unwrap();
        let rows = db.query_sql("SELECT COUNT(*) FROM e").unwrap();
        assert_eq!(rows[0][0], Value::Int(50));
    }
}
