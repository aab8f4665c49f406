//! The maintained-statistics loop, end to end: `ANALYZE TABLE` registers
//! the stats attachment and rebuilds exactly; ordinary DML maintains the
//! published snapshot as a WAL-logged side effect; `sys.statistics`
//! renders it; the planner's estimates flip plans and shrink
//! `planner.misestimate`. A seeded property stream checks maintenance
//! against exact recomputation, a crash sweep checks that statistics
//! never report rows a reopen doesn't contain, and a same-seed double
//! run checks that `sys.statistics` is byte-identical (the snapshot is
//! part of the determinism contract).

// Examples and integration-test harnesses are exempt from the runtime
// panic discipline: failures here should abort loudly.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod support;

use std::collections::BTreeMap;
use std::sync::Arc;

use starburst_dmx::prelude::*;
use starburst_dmx::types::testrng::TestRng;
use support::{put, reopen, Rows, Script, Tables};

const SEED: u64 = 0x57A7_57A7_57A7_57A7;

/// One `sys.statistics` row, decoded.
#[derive(Debug, Clone, PartialEq)]
struct StatRow {
    field: String,
    rows: i64,
    nulls: Option<i64>,
    distinct: Option<i64>,
    min: Option<String>,
    max: Option<String>,
    histogram: Option<String>,
}

fn stat_rows(db: &Arc<Database>, relation: &str) -> Vec<StatRow> {
    let opt_int = |v: &Value| match v {
        Value::Int(i) => Some(*i),
        _ => None,
    };
    let opt_str = |v: &Value| match v {
        Value::Str(s) => Some(s.clone()),
        _ => None,
    };
    db.query_sql(&format!(
        "SELECT field, rows, nulls, distinct, min, max, histogram \
         FROM sys.statistics WHERE relation = '{relation}'"
    ))
    .unwrap()
    .into_iter()
    .map(|r| StatRow {
        field: r[0].as_str().unwrap().to_string(),
        rows: r[1].as_int().unwrap(),
        nulls: opt_int(&r[2]),
        distinct: opt_int(&r[3]),
        min: opt_str(&r[4]),
        max: opt_str(&r[5]),
        histogram: opt_str(&r[6]),
    })
    .collect()
}

fn field<'a>(rows: &'a [StatRow], name: &str) -> &'a StatRow {
    rows.iter()
        .find(|r| r.field == name)
        .unwrap_or_else(|| panic!("no sys.statistics row for field {name} in {rows:?}"))
}

#[test]
fn analyze_registers_the_attachment_and_publishes_exact_statistics() {
    let db = starburst_dmx::open_default().unwrap();
    db.execute_sql("CREATE TABLE emp (id INT NOT NULL, name STRING NOT NULL, bonus INT)")
        .unwrap();
    for id in 0..100 {
        let bonus = if id % 4 == 0 {
            "NULL".to_string()
        } else {
            (id * 10).to_string()
        };
        db.execute_sql(&format!("INSERT INTO emp VALUES ({id}, 'e{id}', {bonus})"))
            .unwrap();
    }
    // Nothing published before the first ANALYZE: no rows, guesses rule.
    assert!(stat_rows(&db, "emp").is_empty());

    let r = db.execute_sql("ANALYZE TABLE emp").unwrap();
    assert_eq!(r.columns, vec!["relation", "analyzed", "rows"]);
    assert_eq!(r.rows[0][0], Value::from("emp"));
    assert_eq!(r.rows[0][2], Value::Int(100));

    let rows = stat_rows(&db, "emp");
    let summary = field(&rows, "*");
    assert_eq!(summary.rows, 100);
    let id = field(&rows, "id");
    assert_eq!(id.nulls, Some(0));
    assert_eq!(id.min.as_deref(), Some("0"));
    assert_eq!(id.max.as_deref(), Some("99"));
    // approximate distinct: linear counting over 100 true distincts
    let d = id.distinct.unwrap();
    assert!((80..=120).contains(&d), "distinct estimate {d} off for id");
    let bonus = field(&rows, "bonus");
    assert_eq!(bonus.nulls, Some(25));
    assert!(
        bonus.histogram.as_deref().unwrap_or("").contains(".."),
        "ANALYZE must freeze a histogram: {bonus:?}"
    );
    // name is a string field: untracked, so no per-field row
    assert!(rows.iter().all(|r| r.field != "name"));

    // The second ANALYZE rebuilds in place (no second registration).
    let r = db.execute_sql("ANALYZE TABLE emp").unwrap();
    assert_eq!(r.rows[0][2], Value::Int(100));
    assert_eq!(stat_rows(&db, "emp"), rows);
}

/// Model of the table's `v` column for exact recomputation.
#[derive(Default)]
struct ColumnModel {
    live: BTreeMap<i64, Option<i64>>, // id -> v (None = NULL)
}

impl ColumnModel {
    fn rows(&self) -> i64 {
        self.live.len() as i64
    }
    fn nulls(&self) -> i64 {
        self.live.values().filter(|v| v.is_none()).count() as i64
    }
    fn min(&self) -> Option<i64> {
        self.live.values().flatten().min().copied()
    }
    fn max(&self) -> Option<i64> {
        self.live.values().flatten().max().copied()
    }
}

/// Applies a seeded DML stream; maintenance must track it statement by
/// statement.
fn run_stats_stream(db: &Arc<Database>, seed: u64, ops: usize) -> ColumnModel {
    let mut model = ColumnModel::default();
    let mut rng = TestRng::new(seed);
    let mut next_id = 0i64;
    for _ in 0..ops {
        let roll = rng.below(100);
        if roll < 50 || model.live.is_empty() {
            let id = next_id;
            next_id += 1;
            let v = if rng.below(5) == 0 {
                None
            } else {
                Some(rng.range_i64(-1000, 1000))
            };
            let lit = v.map_or("NULL".to_string(), |v| v.to_string());
            db.execute_sql(&format!("INSERT INTO ts VALUES ({id}, {lit})"))
                .unwrap();
            model.live.insert(id, v);
        } else if roll < 75 {
            let keys: Vec<i64> = model.live.keys().copied().collect();
            let id = keys[rng.index(keys.len())];
            let v = rng.range_i64(-1000, 1000);
            db.execute_sql(&format!("UPDATE ts SET v = {v} WHERE id = {id}"))
                .unwrap();
            model.live.insert(id, Some(v));
        } else {
            let keys: Vec<i64> = model.live.keys().copied().collect();
            let id = keys[rng.index(keys.len())];
            db.execute_sql(&format!("DELETE FROM ts WHERE id = {id}"))
                .unwrap();
            model.live.remove(&id);
        }
    }
    model
}

#[test]
fn maintained_statistics_agree_with_exact_recomputation() {
    let db = starburst_dmx::open_default().unwrap();
    db.execute_sql("CREATE TABLE ts (id INT NOT NULL, v INT)")
        .unwrap();
    db.execute_sql("ANALYZE TABLE ts").unwrap(); // registers the attachment
    let model = run_stats_stream(&db, SEED, 300);
    assert!(model.rows() > 0, "stream must leave live rows");

    // Maintained: counts exact, bounds widen-only (superset of truth).
    let rows = stat_rows(&db, "ts");
    assert_eq!(field(&rows, "*").rows, model.rows());
    let v = field(&rows, "v");
    assert_eq!(v.rows, model.rows());
    assert_eq!(v.nulls, Some(model.nulls()));
    let bound = |s: &Option<String>| s.as_ref().map(|s| s.parse::<i64>().unwrap());
    if let (Some(m), Some(b)) = (model.min(), bound(&v.min)) {
        assert!(b <= m, "maintained min {b} above exact {m}");
    }
    if let (Some(m), Some(b)) = (model.max(), bound(&v.max)) {
        assert!(b >= m, "maintained max {b} below exact {m}");
    }

    // ANALYZE recomputes exactly: bounds snap back to the truth.
    db.execute_sql("ANALYZE TABLE ts").unwrap();
    let rows = stat_rows(&db, "ts");
    let v = field(&rows, "v");
    assert_eq!(v.rows, model.rows());
    assert_eq!(v.nulls, Some(model.nulls()));
    assert_eq!(bound(&v.min), model.min(), "exact min after ANALYZE");
    assert_eq!(bound(&v.max), model.max(), "exact max after ANALYZE");
}

#[test]
fn same_seed_yields_byte_identical_sys_statistics() {
    let run = || {
        let db = starburst_dmx::open_default().unwrap();
        db.execute_sql("CREATE TABLE ts (id INT NOT NULL, v INT)")
            .unwrap();
        db.execute_sql("ANALYZE TABLE ts").unwrap();
        run_stats_stream(&db, SEED, 200);
        format!(
            "{:?}",
            db.query_sql("SELECT * FROM sys.statistics").unwrap()
        )
    };
    assert_eq!(
        run(),
        run(),
        "sys.statistics must be a pure function of the seed"
    );
}

#[test]
fn statistics_flip_the_plan_and_shrink_the_misestimate() {
    let db = starburst_dmx::open_default().unwrap();
    db.execute_sql("CREATE TABLE skew (id INT NOT NULL, dept INT NOT NULL, pay INT NOT NULL)")
        .unwrap();
    db.execute_sql("CREATE INDEX skew_dept ON skew (dept, pay)")
        .unwrap();
    // dept 0 holds 90% of rows; the textbook Eq guess (1% for a probe)
    // makes an index probe look great — statistics reveal the skew.
    let mut n0 = 0i64;
    for chunk in 0..40 {
        let mut tuples = Vec::new();
        for i in 0..100 {
            let id = chunk * 100 + i;
            let dept = if id % 10 == 0 { 1 + (id / 10) % 9 } else { 0 };
            if dept == 0 {
                n0 += 1;
            }
            tuples.push(format!("({id}, {dept}, {id})"));
        }
        db.execute_sql(&format!("INSERT INTO skew VALUES {}", tuples.join(", ")))
            .unwrap();
    }
    let q = "SELECT pay FROM skew WHERE dept = 0";

    let explain = |db: &Arc<Database>| -> String {
        db.query_sql(&format!("EXPLAIN {q}"))
            .unwrap()
            .into_iter()
            .map(|r| r[0].as_str().unwrap().to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    let access_estimate = |db: &Arc<Database>| -> (f64, i64) {
        let rows = db
            .execute_sql(&format!("EXPLAIN ANALYZE {q}"))
            .unwrap()
            .rows;
        let access = rows
            .iter()
            .find(|r| r[0].as_str().unwrap().contains("Access"))
            .expect("access node");
        (
            access[1].as_int().unwrap() as f64,
            access[2].as_int().unwrap(),
        )
    };

    let before = explain(&db);
    assert!(
        before.contains("attachment"),
        "guess-based plan should probe the index:\n{before}"
    );
    let (est_before, actual) = access_estimate(&db);
    assert_eq!(actual, n0);

    db.execute_sql("ANALYZE TABLE skew").unwrap();
    let after = explain(&db);
    assert!(
        after.contains("storage-method"),
        "stats should flip the skewed probe to a scan:\n{after}"
    );
    let (est_after, actual2) = access_estimate(&db);
    assert_eq!(actual2, n0);
    let err_before = (est_before - actual as f64).abs();
    let err_after = (est_after - actual as f64).abs();
    assert!(
        err_after * 2.0 <= err_before,
        "misestimate must shrink at least 2x: before {err_before}, after {err_after}"
    );

    // A selective predicate still picks the index with stats live.
    let selective = db
        .query_sql("EXPLAIN SELECT pay FROM skew WHERE dept = 7")
        .unwrap()
        .into_iter()
        .map(|r| r[0].as_str().unwrap().to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        selective.contains("attachment"),
        "selective probe should stay on the index:\n{selective}"
    );
}

#[test]
fn dropping_the_attachment_retracts_the_snapshot() {
    let db = starburst_dmx::open_default().unwrap();
    db.execute_sql("CREATE TABLE td (id INT NOT NULL, v INT)")
        .unwrap();
    db.execute_sql("INSERT INTO td VALUES (1, 10), (2, 20)")
        .unwrap();
    db.execute_sql("ANALYZE TABLE td").unwrap();
    assert!(!stat_rows(&db, "td").is_empty());
    db.execute_sql("DROP ATTACHMENT stats ON td").unwrap();
    assert!(
        stat_rows(&db, "td").is_empty(),
        "dropping the stats attachment must retract sys.statistics rows"
    );
}

#[test]
fn statistics_survive_reopen() {
    let (env, injector) = DatabaseEnv::fresh_with_plan(FaultPlan::new(SEED));
    let db = reopen(&env);
    db.execute_sql("CREATE TABLE ts (id INT NOT NULL, v INT)")
        .unwrap();
    db.execute_sql("ANALYZE TABLE ts").unwrap();
    run_stats_stream(&db, SEED, 120);
    let before = format!("{:?}", stat_rows(&db, "ts"));
    drop(db);
    injector.clear();
    let db = reopen(&env);
    assert_eq!(
        format!("{:?}", stat_rows(&db, "ts")),
        before,
        "reopen must rehydrate the identical statistics snapshot"
    );
}

// ---------------------------------------------------------------------
// Crash sweep: the maintained row count is WAL-coupled to the data it
// describes, so after recovery at *any* crash point the published
// statistics must agree exactly with what the reopened database
// actually contains.
// ---------------------------------------------------------------------

const CRASH_SEED: u64 = 0x5CA7_7E2E;
const CRASH_OPS: usize = 14;

/// `rd.stats.records()` (what every plan is costed on) and
/// `sys.relations` must equal what `t` holds, whatever was rolled back
/// on the way there.
fn assert_row_count_is_true(db: &Arc<Database>, at: &str) {
    let count = db.query_sql("SELECT COUNT(*) FROM t").unwrap()[0][0]
        .as_int()
        .unwrap();
    let rd = db.catalog().get_by_name("t").unwrap();
    assert_eq!(rd.stats.records() as i64, count, "{at}: rd.stats.records()");
    let bytes: usize = db
        .query_sql("SELECT * FROM t")
        .unwrap()
        .into_iter()
        .map(|row| Record::new(row).encode().len())
        .sum();
    let sys = db
        .query_sql("SELECT records, bytes FROM sys.relations WHERE name = 't'")
        .unwrap();
    assert_eq!(
        sys[0],
        vec![Value::Int(count), Value::Int(bytes as i64)],
        "{at}: sys.relations (records, bytes)"
    );
}

#[test]
fn rolled_back_writes_leave_the_planner_row_count_alone() {
    let db = starburst_dmx::open_default().unwrap();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, pad STRING NOT NULL)")
        .unwrap();
    db.execute_sql("CREATE UNIQUE INDEX t_id ON t (id)")
        .unwrap();
    let sess = Session::new(db.clone());
    let insert = |ids: std::ops::Range<i64>| {
        for id in ids {
            sess.execute(&format!("INSERT INTO t VALUES ({id}, 'p{id}')"))
                .unwrap();
        }
    };

    // (a) inserts rolled back
    sess.execute("BEGIN").unwrap();
    insert(0..100);
    sess.execute("ROLLBACK").unwrap();
    assert_row_count_is_true(&db, "ROLLBACK of 100 inserts");

    // (b) deletes (and an update) rolled back
    insert(0..100);
    assert_row_count_is_true(&db, "100 committed inserts");
    sess.execute("BEGIN").unwrap();
    sess.execute("DELETE FROM t WHERE id < 50").unwrap();
    sess.execute("UPDATE t SET pad = 'longer than it was' WHERE id = 70")
        .unwrap();
    sess.execute("ROLLBACK").unwrap();
    assert_row_count_is_true(&db, "ROLLBACK of 50 deletes");

    // (c) a savepoint taken mid-transaction: what precedes it commits
    sess.execute("BEGIN").unwrap();
    insert(100..110);
    sess.execute("SAVEPOINT s").unwrap();
    insert(110..130);
    sess.execute("DELETE FROM t WHERE id < 5").unwrap();
    sess.execute("ROLLBACK TO SAVEPOINT s").unwrap();
    sess.execute("COMMIT").unwrap();
    assert_row_count_is_true(&db, "ROLLBACK TO a savepoint, then COMMIT");
    assert_eq!(db.catalog().get_by_name("t").unwrap().stats.records(), 110);

    // (d) a veto in the third row of an autocommit statement takes the
    // first two back with it
    let err = db
        .execute_sql("INSERT INTO t VALUES (200, 'a'), (201, 'b'), (7, 'dup'), (202, 'c')")
        .unwrap_err();
    assert!(matches!(err, DmxError::Veto { .. }), "{err}");
    assert_row_count_is_true(&db, "unique-index veto inside a multi-row INSERT");

    // (e) committed work still counts: an update that outgrows its page
    // relocates the record (two stamps under two keys) and adds no row
    let rel = db.catalog().get_by_name("t").unwrap().id;
    let row = |id: i64, pad: &str| Record::new(vec![Value::Int(id), Value::from(pad)]);
    let moved = db
        .with_txn(|txn| {
            let mut moved = 0;
            for id in 300..304 {
                let key = db.insert(txn, rel, row(id, "narrow"))?;
                let new_key = db.update(txn, rel, &key, row(id, &"w".repeat(3000)))?;
                moved += usize::from(new_key != key);
            }
            Ok(moved)
        })
        .unwrap();
    assert!(moved > 0, "no update relocated its record");
    assert_row_count_is_true(&db, "relocating heap updates, committed");
}

/// The swept workload: registration via ANALYZE, then autocommitted
/// inserts and deletes, with the rows each leaves.
fn crash_script() -> Script<Tables> {
    let mut s = Script::new(Tables::new());
    s.then("CREATE TABLE ts (id INT NOT NULL, v INT)", |m| {
        m.insert("ts".into(), Rows::new());
    })
    .then("ANALYZE TABLE ts", |_| {});
    let mut rng = TestRng::new(CRASH_SEED);
    let mut live: Vec<i64> = Vec::new();
    for i in 0..CRASH_OPS as i64 {
        if rng.below(100) < 70 || live.is_empty() {
            let v = rng.range_i64(-50, 50);
            s.then(format!("INSERT INTO ts VALUES ({i}, {v})"), |m| {
                put(m, "ts", vec![Value::Int(i), Value::Int(v)])
            });
            live.push(i);
        } else {
            let id = live.remove(rng.index(live.len()));
            s.then(format!("DELETE FROM ts WHERE id = {id}"), |m| {
                m.get_mut("ts").expect("ts").remove(&id);
            });
        }
    }
    s
}

/// After recovery, the published statistics must describe exactly the
/// rows the reopened database contains — never rows that vanished, never
/// bounds that exclude survivors. Returns the statistics.
fn check_stats_match_contents(db: &Arc<Database>, at: &str) -> Vec<StatRow> {
    let contents = match db.query_sql("SELECT id, v FROM ts") {
        Ok(rows) => rows,
        // CREATE never committed: nothing to describe.
        Err(DmxError::NotFound(_)) => return Vec::new(),
        // A crash mid-registration can leave the stats tree torn and
        // the relation fenced; REPAIR rebuilds the attachment-backed
        // state like any other, after which stats must agree again.
        Err(DmxError::RelationQuarantined { .. }) => {
            let r = db
                .execute_sql("REPAIR TABLE ts")
                .unwrap_or_else(|e| panic!("{at}: repair failed: {e}"));
            assert_eq!(r.rows[0][2], Value::from("healthy"), "{at}");
            db.query_sql("SELECT id, v FROM ts")
                .unwrap_or_else(|e| panic!("{at}: post-repair scan: {e}"))
        }
        Err(e) => panic!("{at}: scanning ts: {e}"),
    };
    let stats = stat_rows(db, "ts");
    if stats.is_empty() {
        // The ANALYZE DDL never committed; guesses rule, nothing stale.
        return stats;
    }
    let actual = contents.len() as i64;
    assert_eq!(
        field(&stats, "*").rows,
        actual,
        "{at}: statistics report a row count the reopened table contradicts"
    );
    let v = field(&stats, "v");
    assert_eq!(v.rows, actual, "{at}: per-field row count diverged");
    let nulls = contents.iter().filter(|r| r[1] == Value::Null).count() as i64;
    assert_eq!(v.nulls, Some(nulls), "{at}: null count diverged");
    let bound = |s: &Option<String>| s.as_ref().map(|s| s.parse::<i64>().unwrap());
    for r in &contents {
        if let Value::Int(x) = r[1] {
            assert!(
                bound(&v.min).unwrap() <= x && x <= bound(&v.max).unwrap(),
                "{at}: live value {x} outside maintained bounds {v:?}"
            );
        }
    }
    stats
}

#[test]
fn crash_sweep_statistics_never_contradict_the_reopened_table() {
    let script = crash_script();
    let config = DatabaseConfig::default();
    let (total, done) =
        support::healthy(CRASH_SEED, &config, |run| script.run(&run.open().unwrap()));
    assert_eq!(done, (script.len(), None), "the healthy run failed");
    assert!(total > 40, "workload too small to sweep ({total} I/Os)");
    support::sweep(
        CRASH_SEED,
        &config,
        0..total,
        |run| run.open().map_or(0, |db| script.run(&db).0),
        |db, &done, at| {
            let stats = check_stats_match_contents(db, at);
            let got = support::tables(db, &["ts"], at);
            script.assert_recovered(done, &got, at);
            (got, stats)
        },
    );
}
