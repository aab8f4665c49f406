//! What a read costs, counted: page pins, lock requests and delta sweeps
//! read off `metrics_snapshot()` around one statement. These are exact
//! for a given database, so they gate in tier-1 what the benchmark's
//! `pagestore.pins_per_scanned_row` and `pins_per_stmt` report: a scan
//! pins each page it reads once — not once per row — takes the relation
//! lock and nothing else, a point lookup descends its index once, a
//! join opens one inner scan and re-binds it per outer row, and a range
//! on a key costs its own length however its bounds are written.

// Examples and integration-test harnesses are exempt from the runtime
// panic discipline: failures here should abort loudly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use starburst_dmx::attach::btree_index::IxDesc;
use starburst_dmx::prelude::*;
use starburst_dmx::types::FileId;

const ROWS: i64 = 3000;

/// The `emp` row of `id`: id, name, dept, site, age, salary.
fn row(id: i64) -> Vec<Value> {
    let int = Value::Int;
    vec![
        int(id),
        Value::Str(format!("emp{id:010}")),
        int((id * 31) % 50),
        int((id * 17 + 3) % 50),
        int(20 + (id * 7) % 100),
        int(1000 + (id * 13) % 5000),
    ]
}

const AGE: usize = 4;

fn emp_db() -> Arc<Database> {
    let db = starburst_dmx::open_default().unwrap();
    db.execute_sql(
        "CREATE TABLE emp (id INT NOT NULL, name STRING NOT NULL, dept INT NOT NULL, \
         site INT NOT NULL, age INT NOT NULL, salary INT NOT NULL)",
    )
    .unwrap();
    db.execute_sql("CREATE UNIQUE INDEX emp_id ON emp USING btree (id)")
        .unwrap();
    let rel = db.catalog().get_by_name("emp").unwrap().id;
    db.with_txn(|txn| {
        for id in 0..ROWS {
            db.insert(txn, rel, Record::new(row(id)))?;
        }
        Ok(())
    })
    .unwrap();
    db
}

/// `(page pins, lock requests, delta sweeps)` so far.
fn counts(db: &Arc<Database>) -> [u64; 3] {
    let m = db.metrics_snapshot();
    [
        m.counter("pool.hits") + m.counter("pool.misses"),
        m.counter("lock.acquires"),
        m.counter("scan.delta_sweeps"),
    ]
}

/// Runs `sql` in `sess` and returns its rows with what it cost.
fn counted(db: &Arc<Database>, sess: &Session, sql: &str) -> (Vec<Vec<Value>>, [u64; 3]) {
    let before = counts(db);
    let rows = sess.execute(sql).unwrap().rows;
    let after = counts(db);
    (rows, [0, 1, 2].map(|i| after[i] - before[i]))
}

#[test]
fn a_snapshot_scan_pins_each_page_once_and_locks_the_relation_only() {
    let db = emp_db();
    let rd = db.catalog().get_by_name("emp").unwrap();
    let file = FileId(u32::from_le_bytes(rd.sm_desc[..4].try_into().unwrap()));
    let pages = db.services().pool.disk().page_count(file).unwrap() as u64;
    assert!(pages > 10, "a heap of several pages: {pages}");

    let sess = Session::new(db.clone());
    sess.execute("BEGIN").unwrap();
    for (sql, model) in [
        (
            // half the rows qualify, two of six columns are read
            "SELECT id, salary FROM emp WHERE age >= 30 AND age < 80",
            (0..ROWS)
                .map(row)
                .filter(|r| (30..80).contains(&r[AGE].as_int().unwrap()))
                .map(|r| vec![r[0].clone(), r[5].clone()])
                .collect::<Vec<_>>(),
        ),
        (
            // none does: every page is still read, once
            "SELECT id, salary FROM emp WHERE age = 500",
            Vec::new(),
        ),
        (
            // all do, whole records
            "SELECT * FROM emp",
            (0..ROWS).map(row).collect(),
        ),
    ] {
        let (rows, [pins, locks, sweeps]) = counted(&db, &sess, sql);
        assert_eq!(rows, model, "{sql}");
        assert_eq!(pins, pages, "one pin per page, none at exhaustion: {sql}");
        assert_eq!(locks, 1, "the relation's IS lock: {sql}");
        assert_eq!(sweeps, 0, "no writer, nothing to sweep: {sql}");
    }
    sess.execute("COMMIT").unwrap();
}

#[test]
fn a_unique_index_point_select_descends_once() {
    let db = emp_db();
    let rd = db.catalog().get_by_name("emp").unwrap();
    let tree = IxDesc::decode(&rd.find_attachment("emp_id").unwrap().1.desc)
        .unwrap()
        .open_tree(db.services());
    let height = tree.stats().unwrap().height as u64;
    assert!(height >= 2, "an index with a root above its leaves");

    let sess = Session::new(db.clone());
    sess.execute("BEGIN").unwrap();
    for id in [0, 77, ROWS / 2, ROWS - 1] {
        let sql = format!("SELECT name FROM emp WHERE id = {id}");
        let plan = sess.execute(&format!("EXPLAIN {sql}")).unwrap();
        assert!(format!("{:?}", plan.rows).contains("via attachment"));
        let (rows, [pins, locks, sweeps]) = counted(&db, &sess, &sql);
        assert_eq!(rows, vec![vec![row(id)[1].clone()]]);
        // the descent (the leaf pinned once, the range's end seen in it)
        // and the record's page; a key that is its leaf's last entry
        // looks at the next leaf for the end
        assert!(
            (height + 1..=height + 2).contains(&pins),
            "id {id}: {pins} pins for an index of height {height}"
        );
        assert_eq!(locks, 2, "relation IS for the scan and for the fetch");
        assert_eq!(sweeps, 0);
    }
    // a key that is not there costs the descent alone
    let (rows, [pins, ..]) = counted(&db, &sess, "SELECT name FROM emp WHERE id = -5");
    assert!(rows.is_empty());
    assert!(pins <= height + 1, "{pins}");
    sess.execute("COMMIT").unwrap();
}

/// `(scan opens, access-path probes, lock requests, delta sweeps)` so far.
fn join_counts(db: &Arc<Database>) -> [u64; 4] {
    let m = db.metrics_snapshot();
    [
        m.counter("scan.opens"),
        m.counter("att.probes"),
        m.counter("lock.acquires"),
        m.counter("scan.delta_sweeps"),
    ]
}

#[test]
fn a_join_opens_its_inner_scan_once_and_rebinds_it_per_outer_row() {
    let db = emp_db();
    // the outer side: ids to look up, two of them NULL, one matching nothing
    let picks = [
        Some(3),
        None,
        Some(7),
        Some(7),
        None,
        Some(ROWS - 1),
        Some(-4),
    ];
    db.execute_sql("CREATE TABLE pick (id INT, site INT)")
        .unwrap();
    for (i, p) in picks.iter().enumerate() {
        let id = p.map_or("NULL".to_string(), |p| p.to_string());
        db.execute_sql(&format!("INSERT INTO pick VALUES ({id}, {i})"))
            .unwrap();
    }
    let asked = picks.iter().flatten().count() as u64;
    let found: Vec<i64> = picks
        .iter()
        .flatten()
        .copied()
        .filter(|p| *p >= 0)
        .collect();

    let sess = Session::new(db.clone());
    sess.execute("BEGIN").unwrap();
    sess.execute("SELECT id FROM pick LIMIT 1").unwrap();
    let held = sess
        .execute("SELECT txn FROM sys.locks WHERE state = 'held'")
        .unwrap();
    let txn = starburst_dmx::types::TxnId(held.rows[0][0].as_int().unwrap() as u64);
    let run = |sql: &str| {
        let before = join_counts(&db);
        let rows = sess.execute(sql).unwrap().rows;
        let after = join_counts(&db);
        assert_eq!(db.scans().open_count(txn), 0, "{sql}");
        (rows, [0, 1, 2, 3].map(|i| after[i] - before[i]))
    };

    // probed: `emp`'s unique index answers `e.id = $pick.id`
    let probe = "SELECT p.id, e.name FROM pick p, emp e WHERE p.id = e.id";
    let plan = format!(
        "{:?}",
        sess.execute(&format!("EXPLAIN {probe}")).unwrap().rows
    );
    assert!(
        plan.contains("Access emp via attachment") && plan.contains("[probe]"),
        "{plan}"
    );
    let (rows, [opens, probes, locks, sweeps]) = run(probe);
    let model: Vec<Vec<Value>> = found
        .iter()
        .map(|&id| vec![Value::Int(id), row(id)[1].clone()])
        .collect();
    assert_eq!(rows, model);
    assert_eq!(opens, 2, "the outer scan and one inner scan");
    assert_eq!(
        probes, asked,
        "the index is asked once per non-NULL outer value"
    );
    // relation IS for each of the two scans, and for each record fetched
    assert_eq!(locks, 2 + found.len() as u64);
    assert_eq!(sweeps, 0);

    // cut short: the third outer row is never looked up
    let (rows, [opens, probes, locks, _]) = run(&format!("{probe} LIMIT 2"));
    assert_eq!(rows, model[..2]);
    assert_eq!([opens, probes, locks], [2, 2, 2 + 2]);

    // un-probed: no path answers `e.site = $pick.site` by key, so the
    // heap scan takes it as its predicate — re-bound, not reopened, and
    // every row the plain nested loop would return
    let scan = "SELECT p.site, e.id FROM pick p, emp e WHERE p.site = e.site AND e.id < 100";
    let plan = format!(
        "{:?}",
        sess.execute(&format!("EXPLAIN {scan}")).unwrap().rows
    );
    assert!(
        plan.contains("Access emp via storage-method") && plan.contains("probe from outer"),
        "{plan}"
    );
    let (mut rows, [opens, probes, locks, sweeps]) = run(scan);
    let mut model: Vec<Vec<Value>> = (0..picks.len() as i64)
        .flat_map(|site| {
            (0..100)
                .filter(move |&id| row(id)[3] == Value::Int(site))
                .map(move |id| vec![Value::Int(site), Value::Int(id)])
        })
        .collect();
    rows.sort_by(|a, b| starburst_dmx::expr::eval::compare_rows(a, b));
    model.sort_by(|a, b| starburst_dmx::expr::eval::compare_rows(a, b));
    assert!(!model.is_empty());
    assert_eq!(rows, model);
    assert_eq!([opens, probes, locks, sweeps], [2, 0, 2, 0]);
    sess.execute("COMMIT").unwrap();
}

/// A two-step access gets a frame of record keys from its path, and
/// fetches the record of one when its consumer asks for the next row:
/// what a `LIMIT` cuts off is never fetched.
#[test]
fn a_two_step_access_fetches_the_records_it_hands_on() {
    let db = emp_db();
    db.execute_sql("CREATE INDEX emp_dept ON emp USING btree (dept)")
        .unwrap();
    let in_dept = (0..ROWS).filter(|&id| row(id)[2] == Value::Int(7)).count() as u64;
    assert!(in_dept > 10);
    let sess = Session::new(db.clone());
    let fetched = |sql: &str| {
        let before = db.metrics_snapshot().counter("dml.fetches");
        let rows = sess.execute(sql).unwrap().rows;
        (
            rows.len() as u64,
            db.metrics_snapshot().counter("dml.fetches") - before,
        )
    };
    let all = "SELECT id, name FROM emp WHERE dept = 7";
    let plan = format!(
        "{:?}",
        sess.execute(&format!("EXPLAIN {all}")).unwrap().rows
    );
    assert!(plan.contains("Access emp via attachment"), "{plan}");
    assert_eq!(fetched(all), (in_dept, in_dept));
    assert_eq!(fetched(&format!("{all} LIMIT 3")), (3, 3));
    // an aggregate with a residual on the record reads each once
    assert_eq!(
        fetched("SELECT COUNT(*) FROM emp WHERE dept = 7 AND age >= 0"),
        (1, in_dept)
    );
}

/// Loads `rows(id)` for `id` in `0..10_000` into `table` in one
/// transaction.
fn load_10k(db: &Arc<Database>, table: &str, rows: impl Fn(i64) -> Vec<Value>) {
    let rel = db.catalog().get_by_name(table).unwrap().id;
    db.with_txn(|txn| {
        for id in 0..10_000 {
            db.insert(txn, rel, Record::new(rows(id)))?;
        }
        Ok(())
    })
    .unwrap();
}

/// The three spellings of one range on `id`.
const SPELLINGS: [&str; 3] = [
    "id >= 100 AND id <= 120",
    "id <= 120 AND id >= 100",
    "id BETWEEN 100 AND 120",
];

/// `SELECT` and `UPDATE` of the 21 rows of [`SPELLINGS`] on `table`,
/// each spelling counted: the `(pins, locks)` of the SELECT and of the
/// UPDATE, which must not depend on the spelling.
fn range_costs(db: &Arc<Database>, table: &str, via: &str) -> ([u64; 2], [u64; 2]) {
    let sess = Session::new(db.clone());
    let mut costs = Vec::new();
    for pred in SPELLINGS {
        let select = format!("SELECT id FROM {table} WHERE {pred}");
        let plan = sess.execute(&format!("EXPLAIN {select}")).unwrap();
        assert!(format!("{:?}", plan.rows).contains(via), "{plan:?}");
        let (rows, [pins, locks, _]) = counted(db, &sess, &select);
        let model: Vec<Vec<Value>> = (100..=120).map(|id| vec![Value::Int(id)]).collect();
        assert_eq!(rows, model, "{select}");
        let update = format!("UPDATE {table} SET v = 1 WHERE {pred}");
        let (rows, [upins, ulocks, _]) = counted(db, &sess, &update);
        assert_eq!(rows, vec![vec![Value::Int(21)]], "{update}");
        costs.push(([pins, locks], [upins, ulocks]));
    }
    assert_eq!(costs[0], costs[1], "{table}: the order of the bounds");
    assert_eq!(costs[0], costs[2], "{table}: BETWEEN");
    costs[0]
}

/// Both bounds of a range reach the tree, so what `WHERE id >= 100 AND
/// id <= 120` reads, pins and locks is the 21 keys and their boundary —
/// in either order of the conjuncts and as `BETWEEN` — on a B-tree
/// relation and through a B-tree index on a heap. (With one bound the
/// lower-bound-first SELECT pinned 311 pages and its UPDATE took 19,865
/// locks; upper-bound-first they were 5, and 308 with 413 pins.)
#[test]
fn a_two_sided_range_costs_the_same_however_it_is_written() {
    let db = starburst_dmx::open_default().unwrap();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, v INT NOT NULL) USING btree WITH (key=id)")
        .unwrap();
    load_10k(&db, "t", |id| vec![Value::Int(id), Value::Int(id * 7)]);
    let ([pins, locks], [upins, ulocks]) = range_costs(&db, "t", "via storage-method [range]");
    assert!(
        pins <= 5 && locks == 1,
        "SELECT: {pins} pins, {locks} locks"
    );
    assert!(
        ulocks <= 308 && upins <= 413,
        "UPDATE: {ulocks} locks, {upins} pins"
    );

    // a heap with a B-tree index on `id`, statistics in place: the index
    // is offered both bounds, and wins
    db.execute_sql("CREATE TABLE h (id INT NOT NULL, v INT NOT NULL)")
        .unwrap();
    db.execute_sql("CREATE INDEX h_id ON h USING btree (id)")
        .unwrap();
    load_10k(&db, "h", |id| vec![Value::Int(id), Value::Int(id * 7)]);
    db.execute_sql("ANALYZE TABLE h").unwrap();
    let ([pins, locks], [upins, ulocks]) = range_costs(&db, "h", "via attachment");
    assert!(
        pins <= 5 && locks == 1,
        "SELECT: {pins} pins, {locks} locks"
    );
    assert!(
        ulocks <= 308 && upins <= 413,
        "UPDATE: {ulocks} locks, {upins} pins"
    );
}

/// A composite key `(a, b)`: `a = 1 AND b >= 5 AND b < 9` is the slice
/// of four keys, not all thousand of `a = 1`.
#[test]
fn a_composite_key_prefix_and_range_reads_its_slice() {
    let db = starburst_dmx::open_default().unwrap();
    db.execute_sql(
        "CREATE TABLE c (a INT NOT NULL, b INT NOT NULL, v INT NOT NULL) \
         USING btree WITH (key = 'a,b')",
    )
    .unwrap();
    load_10k(&db, "c", |id| {
        vec![Value::Int(id / 1000), Value::Int(id % 1000), Value::Int(id)]
    });
    let sess = Session::new(db.clone());
    let slice = "a = 1 AND b >= 5 AND b < 9";
    let (rows, [pins, locks, _]) = counted(&db, &sess, &format!("SELECT b FROM c WHERE {slice}"));
    let model: Vec<Vec<Value>> = (5..9).map(|b| vec![Value::Int(b)]).collect();
    assert_eq!(rows, model);
    assert!(pins <= 3 && locks == 1, "{pins} pins, {locks} locks");
    let (_, [whole, ..]) = counted(&db, &sess, "SELECT b FROM c WHERE a = 1");
    assert!(whole >= 10, "all of `a = 1` is many leaves: {whole}");
    // the UPDATE locks the four keys and the boundary, with their gaps,
    // not the thousand
    let (rows, [_, locks, _]) = counted(&db, &sess, &format!("UPDATE c SET v = 0 WHERE {slice}"));
    assert_eq!(rows, vec![vec![Value::Int(4)]]);
    assert!(locks <= 30, "{locks} locks");
}

#[test]
fn explain_names_the_fields_a_storage_method_scan_reads() {
    let db = emp_db();
    let plan = |sql: &str| -> String {
        let rows = db.query_sql(&format!("EXPLAIN {sql}")).unwrap();
        let lines: Vec<&str> = rows.iter().map(|r| r[0].as_str().unwrap()).collect();
        lines.join("\n")
    };
    let agg = plan("SELECT COUNT(*), SUM(salary) FROM emp WHERE age >= 30 AND age < 80");
    assert!(
        agg.contains("via storage-method") && agg.contains("reads [age, salary]"),
        "{agg}"
    );
    let all = plan("SELECT * FROM emp");
    assert!(
        all.contains("reads [id, name, dept, site, age, salary]"),
        "{all}"
    );
    let none = plan("SELECT COUNT(*) FROM emp");
    assert!(none.contains("reads []"), "{none}");
    // an access path's values are its key's: nothing is projected
    let probe = plan("SELECT name FROM emp WHERE id = 7");
    assert!(
        probe.contains("via attachment") && !probe.contains("reads"),
        "{probe}"
    );
}
