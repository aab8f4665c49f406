//! Bound plans, dependency tracking, and automatic re-translation.
//!
//! The paper: "it is important to retain the translations of queries into
//! query execution plans … A uniform mechanism for recording the
//! dependencies of execution plans on the relations they use allows the
//! system to invalidate any plans which depend upon relations or access
//! paths that have been deleted from the system. Invalidated execution
//! plans are automatically re-translated, by the common system, the next
//! time the query is invoked."
//!
//! Run with: `cargo run --example plan_cache`

use starburst_dmx::prelude::*;

/// The plan cache's counters, as `sys.metrics` shows them.
fn cache_counters(db: &Database) -> String {
    let snap = db.metrics_snapshot();
    let count = |name: &str| snap.counter(&format!("plan.cache_{name}"));
    format!(
        "hits={}, misses={}, retranslations={}",
        count("hits"),
        count("misses"),
        count("retranslations")
    )
}

fn main() -> Result<()> {
    let db = starburst_dmx::open_default()?;
    db.execute_sql("CREATE TABLE emp (id INT NOT NULL, name STRING NOT NULL)")?;
    db.execute_sql("CREATE UNIQUE INDEX emp_pk ON emp (id)")?;
    for i in 0..5000 {
        db.execute_sql(&format!("INSERT INTO emp VALUES ({i}, 'emp{i}')"))?;
    }

    let q = "SELECT name FROM emp WHERE id = 4242";

    // first execution compiles and binds the plan …
    println!("plan on first execution:");
    for row in db.query_sql(&format!("EXPLAIN {q}"))? {
        println!("  {}", row[0].as_str()?);
    }
    db.query_sql(q)?;
    // … subsequent executions reuse it without touching the catalog
    for _ in 0..10 {
        db.query_sql(q)?;
    }
    println!("\ncache after 11 executions: {}", cache_counters(&db));

    // Dropping the index invalidates every dependent plan …
    db.execute_sql("DROP INDEX emp_pk ON emp")?;
    println!("\ndropped emp_pk; next invocation re-translates automatically:");
    let rows = db.query_sql(q)?; // no error: re-translated against the scan
    println!("  result (via storage-method scan): {:?}", rows[0]);
    for row in db.query_sql(&format!("EXPLAIN {q}"))? {
        println!("  {}", row[0].as_str()?);
    }
    println!("\ncache afterwards: {}", cache_counters(&db));
    Ok(())
}
