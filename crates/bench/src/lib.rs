//! Shared fixtures for the experiment harness.
//!
//! The paper's evaluation is architectural (its figures are diagrams);
//! every experiment here corresponds to an explicit performance claim or
//! design choice, catalogued in DESIGN.md §4 and measured into
//! EXPERIMENTS.md.
//!
//! The bench harness is exempt from the runtime panic discipline: a
//! failed fixture should abort the experiment loudly, not thread `Result`
//! through every scenario. It is the one crate that reads the wall clock.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_types)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use dmx_core::{Database, ExtensionRegistry};
use dmx_page::IoSnapshot;
use dmx_query::SqlExt;
use dmx_types::Result;

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

/// Creates and loads the EMPLOYEE-style relation with `n` rows.
/// Columns: `id INT, name STRING, dept INT, salary FLOAT`.
pub fn load_emp(db: &Arc<Database>, table: &str, n: usize, indexes: &[&str]) -> Result<()> {
    db.execute_sql(&format!(
        "CREATE TABLE {table} (id INT NOT NULL, name STRING NOT NULL, dept INT, salary FLOAT)"
    ))?;
    for spec in indexes {
        db.execute_sql(&spec.replace("{t}", table))?;
    }
    let rd = db.catalog().get_by_name(table)?;
    db.with_txn(|txn| {
        for i in 0..n {
            db.insert(
                txn,
                rd.id,
                dmx_types::Record::new(vec![
                    dmx_types::Value::Int(i as i64),
                    dmx_types::Value::Str(format!("emp{i}")),
                    dmx_types::Value::Int((i % 10) as i64),
                    dmx_types::Value::Float(1000.0 + (i % 100) as f64),
                ]),
            )?;
        }
        Ok(())
    })
}

/// Times a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed())
}

/// Times a closure and reports the disk I/O delta.
pub fn time_io<T>(db: &Arc<Database>, f: impl FnOnce() -> T) -> (T, Duration, IoSnapshot) {
    let before = db.services().disk.stats().snapshot();
    let start = Instant::now();
    let v = f();
    let d = start.elapsed();
    let after = db.services().disk.stats().snapshot();
    (v, d, after.since(&before))
}

/// Pretty-prints a table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Formats a duration as microseconds with 1 decimal.
pub fn us(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e6)
}

/// Formats a duration as milliseconds with 1 decimal.
pub fn ms(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

/// Per-op nanoseconds.
pub fn ns_per(d: Duration, ops: usize) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e9 / ops.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let db = open_db();
        load_emp(&db, "e", 50, &["CREATE UNIQUE INDEX e_pk ON {t} (id)"]).unwrap();
        let rows = db.query_sql("SELECT COUNT(*) FROM e").unwrap();
        assert_eq!(rows[0][0], dmx_types::Value::Int(50));
        let (_, d, io) = time_io(&db, || db.query_sql("SELECT * FROM e").unwrap());
        assert!(d.as_nanos() > 0);
        let _ = io;
    }
}
