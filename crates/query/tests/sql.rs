//! End-to-end SQL tests: DDL with extension clauses, DML, access-path
//! selection, joins, aggregates, bound-plan caching and invalidation,
//! authorization, transactions.

// Integration-test harnesses are exempt from the runtime panic
// discipline: a broken fixture should abort loudly.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::Arc;

use dmx_attach::register_builtin_attachments;
use dmx_core::{Database, ExtensionRegistry};
use dmx_query::{Session, SqlExt};
use dmx_storage::register_builtin_storage;
use dmx_types::{DmxError, Value};

fn open_db() -> Arc<Database> {
    let reg = ExtensionRegistry::new();
    register_builtin_storage(&reg).unwrap();
    register_builtin_attachments(&reg).unwrap();
    Database::open_fresh(reg).unwrap()
}

fn setup_emp_n(db: &Arc<Database>, n: usize) {
    db.execute_sql(
        "CREATE TABLE emp (id INT NOT NULL, name STRING NOT NULL, dept INT, salary FLOAT)",
    )
    .unwrap();
    for i in 0..n {
        db.execute_sql(&format!(
            "INSERT INTO emp VALUES ({i}, 'emp{i}', {}, {:.1})",
            i % 5,
            1000.0 + i as f64 * 10.0
        ))
        .unwrap();
    }
}

fn setup_emp(db: &Arc<Database>) {
    setup_emp_n(db, 100)
}

#[test]
fn quickstart_shape() {
    let db = open_db();
    db.execute_sql("CREATE TABLE emp (id INT NOT NULL, name STRING, salary FLOAT) USING heap")
        .unwrap();
    db.execute_sql("CREATE INDEX emp_id ON emp USING btree (id) WITH (unique=true)")
        .unwrap();
    db.execute_sql("INSERT INTO emp VALUES (1, 'ann', 100.0)")
        .unwrap();
    let rows = db.query_sql("SELECT name FROM emp WHERE id = 1").unwrap();
    assert_eq!(rows, vec![vec![Value::from("ann")]]);
}

/// An INT past f64 precision and a FLOAT compare exactly on every access
/// path: the keyed `[record]` access and a scan that evaluates `id + 0`
/// agree that 2^53 + 1 is not 2^53.
#[test]
fn an_int_past_f64_precision_is_not_the_float_below_it() {
    let db = open_db();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL) USING btree WITH (key=id)")
        .unwrap();
    db.execute_sql("INSERT INTO t VALUES (9007199254740992), (9007199254740993)")
        .unwrap();
    for q in [
        "SELECT id FROM t WHERE id = 9007199254740992.0",
        "SELECT id FROM t WHERE id + 0 = 9007199254740992.0",
    ] {
        let rows = db.query_sql(q).unwrap();
        assert_eq!(rows, vec![vec![Value::Int(1 << 53)]], "{q}");
    }
}

#[test]
fn select_filters_projection_order_limit() {
    let db = open_db();
    setup_emp(&db);
    let rows = db
        .query_sql(
            "SELECT id, salary FROM emp WHERE dept = 2 AND salary > 1500 ORDER BY id DESC LIMIT 3",
        )
        .unwrap();
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0][0], Value::Int(97));
    assert_eq!(rows[1][0], Value::Int(92));
    assert_eq!(rows[2][0], Value::Int(87));
    // expressions in projections
    let rows = db
        .query_sql("SELECT id * 2 + 1 FROM emp WHERE id = 10")
        .unwrap();
    assert_eq!(rows, vec![vec![Value::Int(21)]]);
    // LIKE and functions
    let rows = db
        .query_sql("SELECT COUNT(*) FROM emp WHERE name LIKE 'emp1%'")
        .unwrap();
    assert_eq!(rows[0][0], Value::Int(11)); // emp1, emp10..emp19
}

#[test]
fn aggregates_and_group_by() {
    let db = open_db();
    setup_emp(&db);
    let r = db
        .execute_sql("SELECT COUNT(*), SUM(id), MIN(salary), MAX(salary), AVG(id) FROM emp")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(100));
    assert_eq!(r.rows[0][1], Value::Int(4950));
    assert_eq!(r.rows[0][2], Value::Float(1000.0));
    assert_eq!(r.rows[0][3], Value::Float(1990.0));
    assert_eq!(r.rows[0][4], Value::Float(49.5));
    // grouped
    let rows = db
        .query_sql("SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY dept")
        .unwrap();
    assert_eq!(rows.len(), 5);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row[0], Value::Int(i as i64));
        assert_eq!(row[1], Value::Int(20));
    }
    // aggregates over empty input
    let rows = db
        .query_sql("SELECT COUNT(*), SUM(id) FROM emp WHERE id > 10000")
        .unwrap();
    assert_eq!(rows, vec![vec![Value::Int(0), Value::Null]]);
}

#[test]
fn index_is_chosen_and_correct() {
    let db = open_db();
    setup_emp_n(&db, 2000);
    // without an index: full scan plan
    let plan = db
        .query_sql("EXPLAIN SELECT name FROM emp WHERE id = 42")
        .unwrap();
    let text: String = plan
        .iter()
        .map(|r| r[0].as_str().unwrap().to_string() + "\n")
        .collect();
    assert!(text.contains("storage-method"), "{text}");

    db.execute_sql("CREATE UNIQUE INDEX emp_pk ON emp (id)")
        .unwrap();
    let plan = db
        .query_sql("EXPLAIN SELECT name FROM emp WHERE id = 42")
        .unwrap();
    let text: String = plan
        .iter()
        .map(|r| r[0].as_str().unwrap().to_string() + "\n")
        .collect();
    assert!(
        text.contains("attachment"),
        "planner picked the index: {text}"
    );

    let rows = db.query_sql("SELECT name FROM emp WHERE id = 42").unwrap();
    assert_eq!(rows, vec![vec![Value::from("emp42")]]);
    // range predicates work through the index too
    let rows = db
        .query_sql("SELECT id FROM emp WHERE id >= 1995 ORDER BY id")
        .unwrap();
    assert_eq!(rows.len(), 5);

    // covered query: only indexed fields referenced → no record fetches
    let plan = db
        .query_sql("EXPLAIN SELECT id FROM emp WHERE id >= 1995")
        .unwrap();
    let text: String = plan
        .iter()
        .map(|r| r[0].as_str().unwrap().to_string() + "\n")
        .collect();
    assert!(text.contains("covered"), "{text}");
    let rows = db.query_sql("SELECT id FROM emp WHERE id >= 1995").unwrap();
    assert_eq!(rows.len(), 5);
}

/// `x BETWEEN a AND b` is `x >= a AND x <= b` to everything past the
/// parser: the same rows, the same plan — a range of the index, both
/// bounds in it and neither left to re-check.
#[test]
fn between_is_the_two_conjuncts_it_stands_for() {
    let db = open_db();
    setup_emp_n(&db, 2000);
    db.execute_sql("CREATE UNIQUE INDEX emp_pk ON emp (id)")
        .unwrap();
    let plain = "SELECT id FROM emp WHERE id >= 10 AND id <= 14";
    let between = "SELECT id FROM emp WHERE id BETWEEN 10 AND 14";
    let want: Vec<Vec<Value>> = (10..=14).map(|i| vec![Value::Int(i)]).collect();
    assert_eq!(db.query_sql(between).unwrap(), want);
    let plan = |sql: &str| db.query_sql(&format!("EXPLAIN {sql}")).unwrap();
    assert_eq!(plan(between), plan(plain));
    let text = format!("{:?}", plan(between));
    assert!(
        text.contains("via attachment") && text.contains("[range]") && text.contains("covered"),
        "{text}"
    );
    assert!(!text.contains("Filter"), "{text}");
    let outside = db
        .query_sql("SELECT COUNT(*) FROM emp WHERE id NOT BETWEEN 10 AND 14")
        .unwrap();
    assert_eq!(outside, vec![vec![Value::Int(1995)]]);
    let gone = db
        .execute_sql("DELETE FROM emp WHERE id BETWEEN 12 AND 5000")
        .unwrap();
    assert_eq!(gone.scalar().unwrap(), &Value::Int(1988));
}

/// NULL sorts first in an index and satisfies no comparison: a range with
/// an upper bound alone starts past the NULL entries, because the index
/// answers `dept < 1` in full and nothing checks it again.
#[test]
fn an_index_range_with_an_upper_bound_alone_passes_the_nulls_by() {
    let db = open_db();
    setup_emp_n(&db, 2000);
    for id in 5000..5004 {
        db.execute_sql(&format!("INSERT INTO emp VALUES ({id}, 'n', NULL, 0.0)"))
            .unwrap();
    }
    let q = "SELECT dept FROM emp WHERE dept < 1";
    let unindexed = db.query_sql(q).unwrap();
    assert_eq!(unindexed, vec![vec![Value::Int(0)]; 400]);
    db.execute_sql("CREATE INDEX emp_dept ON emp (dept)")
        .unwrap();
    let plan = format!("{:?}", db.query_sql(&format!("EXPLAIN {q}")).unwrap());
    assert!(plan.contains("via attachment"), "{plan}");
    assert_eq!(db.query_sql(q).unwrap(), unindexed);
}

/// An index estimator hands back the conjunct its sarg came from, not
/// the one at the sarg's position: with a non-sargable conjunct written
/// first, the index applies exactly `id = 5` (the residual is what the
/// chosen path did not apply) and the filter keeps exactly `name <> 'x'`.
#[test]
fn index_applies_the_conjunct_its_sarg_came_from() {
    use dmx_expr::{CmpOp, Expr};
    use dmx_query::planner::{plan_select, Plan};
    let q = "SELECT name FROM emp WHERE name <> 'x' AND id = 5";
    let dmx_query::ast::Stmt::Select(sel) = dmx_query::parser::parse(q).unwrap() else {
        panic!("not a SELECT");
    };
    for ddl in [
        "CREATE INDEX emp_id ON emp (id)",
        "CREATE INDEX emp_id ON emp USING hash (id)",
    ] {
        let db = open_db();
        setup_emp_n(&db, 2000);
        db.execute_sql("INSERT INTO emp VALUES (5, 'x', 0, 0.0)")
            .unwrap();
        let unindexed = db.query_sql(q).unwrap();
        assert_eq!(unindexed, vec![vec![Value::from("emp5")]]);

        db.execute_sql(ddl).unwrap();
        let compiled = plan_select(&db, &sel).unwrap();
        let mut node = &compiled.plan;
        let access = loop {
            match node {
                Plan::Access(a) => break a,
                other => node = other.children()[0],
            }
        };
        assert!(
            matches!(access.path, dmx_core::AccessPath::Attachment(..)),
            "{ddl}: planner did not pick the index"
        );
        assert_eq!(
            access.residual,
            Some(Expr::Cmp(
                CmpOp::Ne,
                Box::new(Expr::Column(1)),
                Box::new(Expr::Const(Value::from("x")))
            )),
            "{ddl}"
        );
        assert_eq!(db.query_sql(q).unwrap(), unindexed, "{ddl}");
    }
}

#[test]
fn update_delete_with_predicates() {
    let db = open_db();
    setup_emp(&db);
    let r = db
        .execute_sql("UPDATE emp SET salary = salary * 2, name = 'boosted' WHERE dept = 1")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(20));
    let rows = db
        .query_sql("SELECT COUNT(*) FROM emp WHERE name = 'boosted'")
        .unwrap();
    assert_eq!(rows[0][0], Value::Int(20));
    let r = db.execute_sql("DELETE FROM emp WHERE dept = 1").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(20));
    let rows = db.query_sql("SELECT COUNT(*) FROM emp").unwrap();
    assert_eq!(rows[0][0], Value::Int(80));
}

#[test]
fn update_evaluates_every_assignment_against_the_old_row() {
    let db = open_db();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, a INT, b INT)")
        .unwrap();
    db.execute_sql("INSERT INTO t VALUES (1, 10, 20), (2, 1, 2)")
        .unwrap();
    // a swap: the second assignment must not see the first one's result
    db.execute_sql("UPDATE t SET a = b, b = a WHERE id = 1")
        .unwrap();
    db.execute_sql("UPDATE t SET a = a + 1, b = a WHERE id = 2")
        .unwrap();
    assert_eq!(
        db.query_sql("SELECT id, a, b FROM t ORDER BY 1").unwrap(),
        vec![
            vec![Value::Int(1), Value::Int(20), Value::Int(10)],
            vec![Value::Int(2), Value::Int(2), Value::Int(1)],
        ]
    );
}

/// The plan line of `EXPLAIN sql` that names the access to `table`.
fn access_line(db: &Arc<Database>, sql: &str, table: &str) -> String {
    let rows = db.query_sql(&format!("EXPLAIN {sql}")).unwrap();
    rows.iter()
        .map(|r| r[0].as_str().unwrap().trim().to_string())
        .find(|l| l.starts_with(&format!("Access {table} ")))
        .unwrap_or_else(|| panic!("no access line for {table} in {rows:?}"))
}

#[test]
fn a_write_naming_every_key_field_fetches_its_record_by_key() {
    let db = open_db();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, v INT NOT NULL) USING btree WITH (key=id)")
        .unwrap();
    db.execute_sql("INSERT INTO t VALUES (1, 0), (5, 0), (7, 0), (9, 0)")
        .unwrap();
    let counter = |name: &str| db.metrics_snapshot().counter(name);
    let affected = |sql: &str| db.execute_sql(sql).unwrap().rows[0][0].clone();

    let line = access_line(&db, "UPDATE t SET v = 1 WHERE id = 40", "t");
    assert!(
        line.starts_with("Access t via storage-method [record] (~"),
        "{line}"
    );
    // a SELECT opens its scan on the record's key range: the same rows
    assert_eq!(
        db.query_sql("SELECT v FROM t WHERE id = 5").unwrap(),
        vec![vec![Value::Int(0)]]
    );

    // by key: one fetch, no scan
    let (fetches, opens) = (counter("dml.fetches"), counter("scan.opens"));
    assert_eq!(affected("UPDATE t SET v = 1 WHERE id = 5"), Value::Int(1));
    assert_eq!(counter("dml.fetches"), fetches + 1);
    assert_eq!(counter("scan.opens"), opens);

    // an absent key: nothing to write
    assert_eq!(affected("UPDATE t SET v = 1 WHERE id = 6"), Value::Int(0));
    assert_eq!(affected("DELETE FROM t WHERE id = 6"), Value::Int(0));

    // a residual conjunct that fails writes nothing and logs nothing
    let (appends, bytes) = (counter("wal.appends"), counter("wal.bytes"));
    assert_eq!(
        affected("UPDATE t SET v = 2 WHERE id = 5 AND v = 99"),
        Value::Int(0)
    );
    assert_eq!(
        affected("DELETE FROM t WHERE id = 5 AND v = 99"),
        Value::Int(0)
    );
    assert_eq!(
        (counter("wal.appends"), counter("wal.bytes")),
        (appends, bytes)
    );

    // a FLOAT constant equal to an INT key names the same record
    assert_eq!(affected("UPDATE t SET v = 3 WHERE id = 5.0"), Value::Int(1));
    assert_eq!(
        db.query_sql("SELECT v FROM t WHERE id = 5").unwrap(),
        vec![vec![Value::Int(3)]]
    );

    // changing the key relocates the record fetched by key
    let line = access_line(&db, "UPDATE t SET id = id + 1000 WHERE id = 7", "t");
    assert!(line.contains("[record]"), "{line}");
    assert_eq!(
        affected("UPDATE t SET id = id + 1000 WHERE id = 7"),
        Value::Int(1)
    );
    assert_eq!(
        db.query_sql("SELECT id FROM t ORDER BY 1").unwrap(),
        [1, 5, 9, 1007].map(|id| vec![Value::Int(id)]).to_vec()
    );

    assert_eq!(affected("DELETE FROM t WHERE id = 9"), Value::Int(1));
    assert_eq!(
        db.query_sql("SELECT id FROM t WHERE id = 9").unwrap(),
        Vec::<Vec<Value>>::new()
    );
}

#[test]
fn a_composite_key_goes_by_key_only_when_every_field_is_fixed() {
    let db = open_db();
    db.execute_sql(
        "CREATE TABLE c (a INT NOT NULL, b INT NOT NULL, v INT NOT NULL) USING btree WITH (key = 'a,b')",
    )
    .unwrap();
    db.execute_sql("INSERT INTO c VALUES (1, 1, 0), (1, 2, 0), (1, 3, 0), (2, 2, 0)")
        .unwrap();
    let both = "UPDATE c SET v = 1 WHERE a = 1 AND b = 2";
    let line = access_line(&db, both, "c");
    assert!(line.contains("via storage-method [record]"), "{line}");
    assert_eq!(db.execute_sql(both).unwrap().rows[0][0], Value::Int(1));

    let leading = "UPDATE c SET v = v + 10 WHERE a = 1";
    let line = access_line(&db, leading, "c");
    assert!(line.contains("via storage-method [range]"), "{line}");
    assert_eq!(db.execute_sql(leading).unwrap().rows[0][0], Value::Int(3));
    assert_eq!(
        db.query_sql("SELECT a, b, v FROM c ORDER BY 1, 2").unwrap(),
        [(1, 1, 10), (1, 2, 11), (1, 3, 10), (2, 2, 0)]
            .map(|(a, b, v)| vec![Value::Int(a), Value::Int(b), Value::Int(v)])
            .to_vec()
    );
}

#[test]
fn null_outer_values_probe_nothing() {
    // A join whose outer value is NULL asks its inner side nothing,
    // whichever path serves it — keyed or not: the one inner scan is
    // opened for the first outer value that is not NULL and re-bound for
    // each one after it.
    let inners = [
        (
            "CREATE TABLE i (d INT, tag INT)",
            Some("CREATE INDEX i_d ON i (d)"),
        ),
        (
            "CREATE TABLE i (d INT, tag INT)",
            Some("CREATE INDEX i_d ON i USING hash (d)"),
        ),
        (
            "CREATE TABLE i (d INT NOT NULL, tag INT) USING btree WITH (key = d)",
            None,
        ),
        ("CREATE TABLE i (d INT, tag INT)", None),
    ];
    for (create_inner, index) in inners {
        let db = open_db();
        db.execute_sql("CREATE TABLE o (id INT NOT NULL, d INT)")
            .unwrap();
        db.execute_sql("INSERT INTO o VALUES (1, 7), (2, NULL), (3, 8), (4, 99)")
            .unwrap();
        db.execute_sql(create_inner).unwrap();
        if let Some(ddl) = index {
            db.execute_sql(ddl).unwrap();
        }
        db.execute_sql("INSERT INTO i VALUES (7, 70), (8, 80), (9, 90)")
            .unwrap();
        let q = "SELECT o.id, i.tag FROM o, i WHERE o.d = i.d ORDER BY 1";
        let plan = format!("{:?}", db.query_sql(&format!("EXPLAIN {q}")).unwrap());
        assert!(plan.contains("probe from outer"), "{index:?}: {plan}");
        let counts = || {
            let m = db.metrics_snapshot();
            (m.counter("scan.opens"), m.counter("att.probes"))
        };
        let before = counts();
        assert_eq!(
            db.query_sql(q).unwrap(),
            vec![
                vec![Value::Int(1), Value::Int(70)],
                vec![Value::Int(3), Value::Int(80)],
            ],
            "{index:?}"
        );
        let (opens, probes) = counts();
        // the outer scan plus the inner one
        assert_eq!(opens - before.0, 1 + 1, "{create_inner} {index:?}");
        // an access path is asked once per non-NULL outer value
        let asked = if index.is_some() { 3 } else { 0 };
        assert_eq!(probes - before.1, asked, "{create_inner} {index:?}");
    }
}

#[test]
fn unindexed_equi_joins_filter_in_the_inner_scan() {
    // With no index anywhere the join conjunct still belongs to the inner
    // table: bound to the outer row, it is evaluated where the inner scan
    // reads its records, so only joining rows surface.
    let db = open_db();
    db.execute_sql("CREATE TABLE o (id INT NOT NULL, g INT)")
        .unwrap();
    db.execute_sql("CREATE TABLE i (f INT, tag INT NOT NULL)")
        .unwrap();
    let g = |id: i64| (id % 10 != 0).then_some(id % 50);
    let o_rows: Vec<String> = (0..200)
        .map(|id| match g(id) {
            Some(g) => format!("({id}, {g})"),
            None => format!("({id}, NULL)"),
        })
        .collect();
    db.execute_sql(&format!("INSERT INTO o VALUES {}", o_rows.join(", ")))
        .unwrap();
    let i_rows: Vec<String> = (0..300)
        .map(|tag| format!("({}, {tag})", tag % 60))
        .collect();
    db.execute_sql(&format!("INSERT INTO i VALUES {}", i_rows.join(", ")))
        .unwrap();

    let mut expected: Vec<Vec<Value>> = (0..200)
        .flat_map(|id| {
            (0..300)
                .filter(move |tag| g(id) == Some(tag % 60))
                .map(move |tag| vec![Value::Int(id), Value::Int(tag)])
        })
        .collect();
    expected.sort_by(|a, b| a[0].total_cmp(&b[0]).then(a[1].total_cmp(&b[1])));
    assert_eq!(expected.len(), 900);

    let counter = |name: &str| db.metrics_snapshot().counter(name);
    let (rows_before, opens_before) = (counter("scan.rows"), counter("scan.opens"));
    let rows = db
        .query_sql("SELECT o.id, i.tag FROM o, i WHERE o.g = i.f ORDER BY 1, 2")
        .unwrap();
    assert_eq!(rows, expected);
    // every outer row, and of the inner rows only those that join
    assert_eq!(counter("scan.rows") - rows_before, 200 + 900);
    // the outer scan plus one inner scan, re-bound per non-NULL outer value
    assert_eq!(counter("scan.opens") - opens_before, 1 + 1);
}

#[test]
fn joins_all_strategies_agree() {
    let db = open_db();
    db.execute_sql("CREATE TABLE dept (id INT NOT NULL, dname STRING NOT NULL)")
        .unwrap();
    for d in 0..5 {
        db.execute_sql(&format!("INSERT INTO dept VALUES ({d}, 'dept{d}')"))
            .unwrap();
    }
    setup_emp(&db);

    let q =
        "SELECT e.name, d.dname FROM emp e, dept d WHERE e.dept = d.id AND e.id < 10 ORDER BY 1";
    // 1. plain nested loop
    let nl = db.query_sql(q).unwrap();
    assert_eq!(nl.len(), 10);
    assert_eq!(nl[0][0], Value::from("emp0"));
    assert_eq!(nl[0][1], Value::from("dept0"));

    // 2. index nested loop (index on the inner join column)
    db.execute_sql("CREATE UNIQUE INDEX dept_pk ON dept (id)")
        .unwrap();
    let inl = db.query_sql(q).unwrap();
    assert_eq!(nl, inl, "index NL join returns identical rows");

    // 3. join index
    db.execute_sql("CREATE ATTACHMENT ed ON emp USING joinindex WITH (side=left, fields=dept)")
        .unwrap();
    db.execute_sql(
        "CREATE ATTACHMENT ed ON dept USING joinindex WITH (side=right, fields=id, other=emp)",
    )
    .unwrap();
    let plan = db.query_sql(&format!("EXPLAIN {q}")).unwrap();
    let text: String = plan
        .iter()
        .map(|r| r[0].as_str().unwrap().to_string() + "\n")
        .collect();
    assert!(text.contains("JoinIndexJoin"), "{text}");
    let ji = db.query_sql(q).unwrap();
    assert_eq!(nl, ji, "join-index join returns identical rows");
}

/// A join index answers in either FROM order. With `dept` first the pair
/// scan opens through dept's right-side instance, whose items are *emp's*
/// record keys: the dispatcher must pass them through, not re-read each
/// as a dept record (which kept 5 of 100 rows).
#[test]
fn a_join_index_join_answers_in_either_from_order() {
    let db = open_db();
    db.execute_sql("CREATE TABLE dept (id INT NOT NULL, dname STRING NOT NULL)")
        .unwrap();
    for d in 0..5 {
        db.execute_sql(&format!("INSERT INTO dept VALUES ({d}, 'dept{d}')"))
            .unwrap();
    }
    setup_emp(&db);
    let orders = [
        "SELECT e.id, d.dname FROM emp e, dept d WHERE e.dept = d.id ORDER BY 1",
        "SELECT e.id, d.dname FROM dept d, emp e WHERE e.dept = d.id ORDER BY 1",
    ];
    let nested_loop = db.query_sql(orders[0]).unwrap();
    assert_eq!(nested_loop.len(), 100);
    assert_eq!(db.query_sql(orders[1]).unwrap(), nested_loop);

    db.execute_sql("CREATE ATTACHMENT ed ON emp USING joinindex WITH (side=left, fields=dept)")
        .unwrap();
    db.execute_sql(
        "CREATE ATTACHMENT ed ON dept USING joinindex WITH (side=right, fields=id, other=emp)",
    )
    .unwrap();
    for q in orders {
        let plan = format!("{:?}", db.query_sql(&format!("EXPLAIN {q}")).unwrap());
        assert!(plan.contains("JoinIndexJoin"), "{q}: {plan}");
        assert_eq!(db.query_sql(q).unwrap(), nested_loop, "{q}");
    }
}

#[test]
fn check_constraint_via_sql() {
    let db = open_db();
    db.execute_sql("CREATE TABLE acc (id INT NOT NULL, bal FLOAT NOT NULL)")
        .unwrap();
    db.execute_sql("CREATE CONSTRAINT bal_pos ON acc CHECK (bal >= 0)")
        .unwrap();
    db.execute_sql("INSERT INTO acc VALUES (1, 10.0)").unwrap();
    let err = db
        .execute_sql("INSERT INTO acc VALUES (2, -1.0)")
        .unwrap_err();
    assert!(matches!(err, DmxError::Veto { .. }));
    assert_eq!(
        db.query_sql("SELECT COUNT(*) FROM acc").unwrap()[0][0],
        Value::Int(1)
    );
    // deferred: violation inside a txn is fine if fixed before COMMIT
    let sess = Session::new(db.clone());
    sess.execute("CREATE CONSTRAINT bal_cap ON acc CHECK (bal <= 100) DEFERRED")
        .unwrap();
    sess.execute("BEGIN").unwrap();
    sess.execute("UPDATE acc SET bal = 500.0 WHERE id = 1")
        .unwrap();
    sess.execute("UPDATE acc SET bal = 50.0 WHERE id = 1")
        .unwrap();
    sess.execute("COMMIT").unwrap();
    sess.execute("BEGIN").unwrap();
    sess.execute("UPDATE acc SET bal = 500.0 WHERE id = 1")
        .unwrap();
    let err = sess.execute("COMMIT").unwrap_err();
    assert!(matches!(err, DmxError::ConstraintViolation(_)));
    assert_eq!(
        db.query_sql("SELECT bal FROM acc WHERE id = 1").unwrap()[0][0],
        Value::Float(50.0)
    );
}

#[test]
fn session_transactions_and_savepoints() {
    let db = open_db();
    db.execute_sql("CREATE TABLE t (x INT NOT NULL)").unwrap();
    let sess = Session::new(db.clone());
    sess.execute("BEGIN").unwrap();
    sess.execute("INSERT INTO t VALUES (1)").unwrap();
    sess.execute("SAVEPOINT sp").unwrap();
    sess.execute("INSERT INTO t VALUES (2)").unwrap();
    sess.execute("ROLLBACK TO SAVEPOINT sp").unwrap();
    sess.execute("INSERT INTO t VALUES (3)").unwrap();
    sess.execute("COMMIT").unwrap();
    let rows = db.query_sql("SELECT x FROM t ORDER BY x").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(1)], vec![Value::Int(3)]]);
    // full rollback
    sess.execute("BEGIN").unwrap();
    sess.execute("DELETE FROM t").unwrap();
    sess.execute("ROLLBACK").unwrap();
    assert_eq!(
        db.query_sql("SELECT COUNT(*) FROM t").unwrap()[0][0],
        Value::Int(2)
    );
    // autocommit trait refuses txn control
    assert!(db.execute_sql("BEGIN").is_err());
}

#[test]
fn plan_cache_reuse_and_invalidation() {
    let db = open_db();
    setup_emp(&db);
    db.execute_sql("CREATE UNIQUE INDEX emp_pk ON emp (id)")
        .unwrap();
    let cache = db.query_state::<dmx_query::PlanCache, _>(Default::default);
    let q = "SELECT name FROM emp WHERE id = 7";
    db.query_sql(q).unwrap();
    let misses0 = cache
        .stats
        .misses
        .load(std::sync::atomic::Ordering::Relaxed);
    let hits0 = cache.stats.hits.load(std::sync::atomic::Ordering::Relaxed);
    for _ in 0..5 {
        db.query_sql(q).unwrap();
    }
    assert_eq!(
        cache.stats.hits.load(std::sync::atomic::Ordering::Relaxed),
        hits0 + 5,
        "subsequent executions reuse the bound plan"
    );
    assert_eq!(
        cache
            .stats
            .misses
            .load(std::sync::atomic::Ordering::Relaxed),
        misses0
    );
    // dropping the index invalidates; the next execution re-translates
    // automatically and still answers correctly
    db.execute_sql("DROP INDEX emp_pk ON emp").unwrap();
    let rows = db.query_sql(q).unwrap();
    assert_eq!(rows, vec![vec![Value::from("emp7")]]);
    assert!(
        cache
            .stats
            .retranslations
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1,
        "plan was re-translated after DDL"
    );
}

/// 3,072 distinct SELECT texts through one session, one hot text among
/// them throughout: the cache and the dependency registry stay at the
/// capacity, the hot text keeps its plan, and every answer is right.
#[test]
fn the_plan_cache_holds_at_most_its_capacity() {
    use std::sync::atomic::Ordering::Relaxed;
    let db = open_db();
    setup_emp(&db);
    let cache = db.query_state::<dmx_query::PlanCache, _>(Default::default);
    let sess = Session::new(db.clone());
    let cap = 1024;
    let hot = "SELECT COUNT(*) FROM emp WHERE dept = 3";
    let cached = |sess: &Session| {
        sess.execute("SELECT COUNT(*) FROM sys.plan_cache")
            .unwrap()
            .rows
    };
    for i in 0..3 * cap as i64 {
        let (id, floor) = (i % 100, 900 + i / 100 * 20);
        let sql = format!("SELECT name FROM emp WHERE id = {id} AND salary >= {floor}");
        let want = match 1000 + 10 * id >= floor {
            true => vec![vec![Value::from(format!("emp{id}").as_str())]],
            false => vec![],
        };
        assert_eq!(sess.execute(&sql).unwrap().rows, want, "{sql}");
        if i % 16 == 0 {
            let hits = cache.stats.hits.load(Relaxed);
            assert_eq!(sess.execute(hot).unwrap().rows, vec![vec![Value::Int(20)]]);
            if i > 0 {
                assert_eq!(
                    cache.stats.hits.load(Relaxed),
                    hits + 1,
                    "the hot text at {i}"
                );
            }
        }
        if i % 512 == 511 {
            let rows = cached(&sess);
            let [Value::Int(rows)] = rows[0][..] else {
                panic!("one count: {rows:?}");
            };
            assert!(rows as usize <= cap, "{rows} plans cached at {i}");
            assert!(
                db.deps().plan_count() <= cap,
                "{} plans registered",
                db.deps().plan_count()
            );
        }
    }
    assert_eq!(cache.len(), cap);
}

#[test]
fn authorization_enforced_per_user() {
    let db = open_db();
    setup_emp(&db);
    let bob = Session::with_user(db.clone(), "bob");
    let err = bob.execute("SELECT * FROM emp").unwrap_err();
    assert!(matches!(err, DmxError::Unauthorized(_)));
    db.execute_sql("GRANT select ON emp TO bob").unwrap();
    assert_eq!(bob.execute("SELECT * FROM emp").unwrap().len(), 100);
    let err = bob.execute("DELETE FROM emp").unwrap_err();
    assert!(matches!(err, DmxError::Unauthorized(_)));
    db.execute_sql("REVOKE select ON emp FROM bob").unwrap();
    assert!(bob.execute("SELECT * FROM emp").is_err());
    // bob owns what bob creates
    bob.execute("CREATE TABLE bobs (x INT)").unwrap();
    bob.execute("INSERT INTO bobs VALUES (1)").unwrap();
    assert_eq!(bob.execute("SELECT * FROM bobs").unwrap().len(), 1);
}

#[test]
fn spatial_sql_with_rtree() {
    let db = open_db();
    db.execute_sql("CREATE TABLE parcels (id INT NOT NULL, area RECT)")
        .unwrap();
    db.execute_sql("CREATE INDEX parcels_rt ON parcels USING rtree (area)")
        .unwrap();
    for i in 0..800 {
        let x = (i % 10) * 100;
        let y = (i / 10) * 100;
        db.execute_sql(&format!(
            "INSERT INTO parcels VALUES ({i}, RECT({x}, {y}, {}, {}))",
            x + 90,
            y + 90
        ))
        .unwrap();
    }
    // which parcels enclose this point-ish query box?
    let rows = db
        .query_sql("SELECT id FROM parcels WHERE area ENCLOSES RECT(110, 110, 120, 120)")
        .unwrap();
    assert_eq!(rows, vec![vec![Value::Int(11)]]);
    let plan = db
        .query_sql("EXPLAIN SELECT id FROM parcels WHERE area ENCLOSES RECT(110, 110, 120, 120)")
        .unwrap();
    let text: String = plan
        .iter()
        .map(|r| r[0].as_str().unwrap().to_string() + "\n")
        .collect();
    assert!(text.contains("attachment"), "R-tree chosen: {text}");
    // window query
    let rows = db
        .query_sql("SELECT COUNT(*) FROM parcels WHERE RECT(0, 0, 290, 90) ENCLOSES area")
        .unwrap();
    assert_eq!(
        rows[0][0],
        Value::Int(3),
        "parcels 0, 1 and 2 fit the window"
    );
}

/// An index nested-loop join must keep the probed table's own
/// predicates, whichever probe kind serves it, in either FROM order,
/// with or without published statistics.
#[test]
fn probe_joins_keep_the_inner_tables_predicates() {
    const EMP: i64 = 6000;
    const DEPTS: i64 = 50;
    let age = |id: i64| 20 + (id * 7) % 40;
    let expected: Vec<Vec<Value>> = (0..EMP)
        .filter(|&id| age(id) < 30)
        .map(|id| vec![Value::Int(id)])
        .collect();
    let probes = [
        (
            "CREATE TABLE emp (id INT NOT NULL, dept INT NOT NULL, age INT NOT NULL)",
            Some("CREATE INDEX emp_dept ON emp (dept)"),
        ),
        (
            "CREATE TABLE emp (id INT NOT NULL, dept INT NOT NULL, age INT NOT NULL)",
            Some("CREATE INDEX emp_dept ON emp USING hash (dept)"),
        ),
        (
            "CREATE TABLE emp (id INT NOT NULL, dept INT NOT NULL, age INT NOT NULL) \
          USING btree WITH (key = 'dept,id')",
            None,
        ),
    ];
    for (create_emp, index) in probes {
        let db = open_db();
        db.execute_sql("CREATE TABLE dept (id INT NOT NULL, dname STRING NOT NULL)")
            .unwrap();
        db.execute_sql(create_emp).unwrap();
        if let Some(ddl) = index {
            db.execute_sql(ddl).unwrap();
        }
        for d in 0..DEPTS {
            db.execute_sql(&format!("INSERT INTO dept VALUES ({d}, 'dept{d}')"))
                .unwrap();
        }
        for batch in (0..EMP).collect::<Vec<_>>().chunks(200) {
            let rows: Vec<String> = batch
                .iter()
                .map(|&id| format!("({id}, {}, {})", id % DEPTS, age(id)))
                .collect();
            db.execute_sql(&format!("INSERT INTO emp VALUES {}", rows.join(", ")))
                .unwrap();
        }
        for analyzed in [false, true] {
            if analyzed {
                db.execute_sql("ANALYZE TABLE emp").unwrap();
                db.execute_sql("ANALYZE TABLE dept").unwrap();
            }
            let mut probed = false;
            for from in ["emp e, dept d", "dept d, emp e"] {
                let q = format!(
                    "SELECT e.id FROM {from} WHERE e.dept = d.id AND e.age < 30 ORDER BY 1"
                );
                let plan: String = db
                    .query_sql(&format!("EXPLAIN {q}"))
                    .unwrap()
                    .iter()
                    .map(|r| r[0].as_str().unwrap().to_string() + "\n")
                    .collect();
                probed |= plan
                    .lines()
                    .any(|l| l.contains("Access emp") && l.contains("probe from outer"));
                let rows = db.query_sql(&q).unwrap();
                assert_eq!(
                    rows, expected,
                    "{index:?} analyzed={analyzed} FROM {from}:\n{plan}"
                );
            }
            assert!(probed, "{index:?} analyzed={analyzed}: emp never probed");
        }
    }
}

#[test]
fn storage_method_choice_via_sql() {
    let db = open_db();
    // a B-tree-organized relation: keyed storage
    db.execute_sql("CREATE TABLE kv (k INT NOT NULL, v STRING) USING btree WITH (key = k)")
        .unwrap();
    for i in [5, 1, 9, 3] {
        db.execute_sql(&format!("INSERT INTO kv VALUES ({i}, 'v{i}')"))
            .unwrap();
    }
    // key-ordered scans come straight from the storage method
    let rows = db.query_sql("SELECT k FROM kv").unwrap();
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(1)],
            vec![Value::Int(3)],
            vec![Value::Int(5)],
            vec![Value::Int(9)]
        ]
    );
    // a temporary relation
    db.execute_sql("CREATE TABLE scratch (x INT) USING memory")
        .unwrap();
    db.execute_sql("INSERT INTO scratch VALUES (1), (2)")
        .unwrap();
    assert_eq!(
        db.query_sql("SELECT COUNT(*) FROM scratch").unwrap()[0][0],
        Value::Int(2)
    );
    // duplicate storage key rejected
    let err = db
        .execute_sql("INSERT INTO kv VALUES (5, 'dup')")
        .unwrap_err();
    assert!(matches!(err, DmxError::Duplicate(_)));
}

#[test]
fn referential_integrity_via_sql() {
    let db = open_db();
    db.execute_sql("CREATE TABLE dept (id INT NOT NULL)")
        .unwrap();
    db.execute_sql("CREATE TABLE emp (id INT NOT NULL, dept INT)")
        .unwrap();
    db.execute_sql(
        "CREATE ATTACHMENT fk_c ON emp USING refint WITH (role=child, fields=dept, other=dept, other_fields=id)",
    )
    .unwrap();
    db.execute_sql(
        "CREATE ATTACHMENT fk_p ON dept USING refint WITH (role=parent, fields=id, other=emp, other_fields=dept, on_delete=cascade)",
    )
    .unwrap();
    db.execute_sql("INSERT INTO dept VALUES (1)").unwrap();
    db.execute_sql("INSERT INTO emp VALUES (10, 1)").unwrap();
    assert!(db.execute_sql("INSERT INTO emp VALUES (11, 99)").is_err());
    db.execute_sql("DELETE FROM dept WHERE id = 1").unwrap();
    assert_eq!(
        db.query_sql("SELECT COUNT(*) FROM emp").unwrap()[0][0],
        Value::Int(0),
        "cascade removed the employee"
    );
}

#[test]
fn a_self_referencing_cascade_deletes_a_target_it_already_removed() {
    // Row 2 names row 1 as its parent. The DELETE collects both targets
    // before its first write; deleting row 1 cascades into row 2, so the
    // second target is gone when the statement reaches it.
    let db = open_db();
    db.execute_sql("CREATE TABLE n (id INT NOT NULL, parent INT)")
        .unwrap();
    db.execute_sql(
        "CREATE ATTACHMENT n_p ON n USING refint WITH (role=parent, fields=id, other=n, other_fields=parent, on_delete=cascade)",
    )
    .unwrap();
    db.execute_sql("INSERT INTO n VALUES (1, NULL)").unwrap();
    db.execute_sql("INSERT INTO n VALUES (2, 1)").unwrap();
    db.execute_sql("DELETE FROM n WHERE id >= 1").unwrap();
    assert_eq!(
        db.query_sql("SELECT COUNT(*) FROM n").unwrap()[0][0],
        Value::Int(0),
        "both rows are gone"
    );
}

#[test]
fn drop_table_via_sql_and_errors() {
    let db = open_db();
    db.execute_sql("CREATE TABLE t (x INT)").unwrap();
    db.execute_sql("DROP TABLE t").unwrap();
    assert!(matches!(
        db.query_sql("SELECT * FROM t"),
        Err(DmxError::NotFound(_))
    ));
    // planner errors
    db.execute_sql("CREATE TABLE u (x INT)").unwrap();
    assert!(matches!(
        db.query_sql("SELECT nope FROM u"),
        Err(DmxError::Planning(_))
    ));
    assert!(
        db.execute_sql("CREATE TABLE u (x INT)").is_err(),
        "duplicate"
    );
}

/// `create_instance` is the one reader of an attribute list, and it reads
/// the list before it allocates: a rejected DDL statement creates no
/// file and uses up no relation id or instance number.
#[test]
fn a_rejected_attribute_list_allocates_nothing() {
    let db = open_db();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, area RECT, d INT)")
        .unwrap();
    let rejected = [
        "CREATE TABLE v (x INT) USING heap WITH (bogus = 1)",
        "CREATE TABLE v (x INT) USING btree WITH (key = x, bogus = 1)",
        "CREATE TABLE v (x INT) USING btree WITH (key = nope)",
        "CREATE INDEX t_i ON t USING btree (id) WITH (bogus = 1)",
        "CREATE ATTACHMENT t_s ON t USING stats WITH (bogus = 1)",
        "CREATE INDEX t_r ON t USING rtree (id)",
        "CREATE ATTACHMENT t_j ON t USING joinindex WITH (side = middle, fields = id)",
        "CREATE ATTACHMENT t_a ON t USING aggregate WITH (group_by = d)",
    ];
    let files = || {
        db.services()
            .disk
            .stats()
            .files_created
            .load(std::sync::atomic::Ordering::Relaxed)
    };
    let before = files();
    for sql in rejected {
        let err = db.execute_sql(sql).unwrap_err();
        assert!(matches!(err, DmxError::InvalidArg(_)), "{sql}: {err}");
        assert_eq!(files(), before, "{sql} created a file");
    }
    let t = db.catalog().get_by_name("t").unwrap().id;
    db.execute_sql("CREATE TABLE u (x INT)").unwrap();
    assert_eq!(db.catalog().get_by_name("u").unwrap().id.0, t.0 + 1);
    db.execute_sql("CREATE INDEX t_i ON t USING btree (id)")
        .unwrap();
    let rd = db.catalog().get_by_name("t").unwrap();
    let (_, inst) = rd.find_attachment("t_i").unwrap();
    assert_eq!(inst.instance.0, 1, "the first btree index on t");
}

/// The catalog keeps an attachment instance in one tree entry: an
/// instance whose own descriptor would not fit is refused at CREATE with
/// `InvalidArg`, and the refusal leaves no file, no instance number and
/// no trace in the relation's descriptor.
#[test]
fn an_attachment_too_big_for_the_catalog_is_refused() {
    let db = open_db();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, s STRING)")
        .unwrap();
    let files = || {
        db.services()
            .disk
            .stats()
            .files_created
            .load(std::sync::atomic::Ordering::Relaxed)
    };
    let (before, rd) = (files(), db.catalog().get_by_name("t").unwrap());
    let huge = format!(
        "CREATE CONSTRAINT big ON t CHECK (s <> '{}')",
        "x".repeat(3000)
    );
    let err = db.execute_sql(&huge).unwrap_err();
    assert!(
        matches!(&err, DmxError::InvalidArg(m) if m.contains("catalog entry")),
        "{err}"
    );
    assert_eq!(files(), before, "the refused CREATE created a file");
    let after = db.catalog().get_by_name("t").unwrap();
    assert_eq!((after.version, after.attachment_count()), (rd.version, 0));
    db.execute_sql("CREATE CONSTRAINT small ON t CHECK (s <> 'x')")
        .unwrap();
    let rd = db.catalog().get_by_name("t").unwrap();
    assert_eq!(rd.find_attachment("small").unwrap().1.instance.0, 1);
}

#[test]
fn three_way_join() {
    let db = open_db();
    db.execute_sql("CREATE TABLE a (id INT NOT NULL)").unwrap();
    db.execute_sql("CREATE TABLE b (id INT NOT NULL, a_id INT)")
        .unwrap();
    db.execute_sql("CREATE TABLE c (id INT NOT NULL, b_id INT)")
        .unwrap();
    for i in 0..3 {
        db.execute_sql(&format!("INSERT INTO a VALUES ({i})"))
            .unwrap();
        db.execute_sql(&format!("INSERT INTO b VALUES ({i}, {i})"))
            .unwrap();
        db.execute_sql(&format!("INSERT INTO c VALUES ({i}, {i})"))
            .unwrap();
        db.execute_sql(&format!("INSERT INTO c VALUES ({}, {i})", i + 10))
            .unwrap();
    }
    let rows = db
        .query_sql(
            "SELECT a.id, c.id FROM a, b, c WHERE b.a_id = a.id AND c.b_id = b.id ORDER BY 1, 2",
        )
        .unwrap();
    assert_eq!(rows.len(), 6);
    assert_eq!(rows[0], vec![Value::Int(0), Value::Int(0)]);
    assert_eq!(rows[1], vec![Value::Int(0), Value::Int(10)]);
}

/// An operator closes its scan when it goes away, not only when it drains
/// it: a `LIMIT`, a statement that fails mid-scan and a join whose outer
/// side is cut short all used to leave theirs registered until commit,
/// kept alive and asked for a position at every savepoint.
#[test]
fn scans_are_closed_when_their_statement_ends_not_at_commit() {
    let db = open_db();
    setup_emp(&db);
    db.execute_sql("CREATE TABLE dept (id INT NOT NULL, dname STRING NOT NULL)")
        .unwrap();
    for d in 0..5 {
        db.execute_sql(&format!("INSERT INTO dept VALUES ({d}, 'd{d}')"))
            .unwrap();
    }
    // a join index, so the pair-scan operator is covered as well
    db.execute_sql("CREATE TABLE badge (emp INT NOT NULL)")
        .unwrap();
    db.execute_sql("INSERT INTO badge VALUES (3)").unwrap();
    db.execute_sql("INSERT INTO badge VALUES (4)").unwrap();
    db.execute_sql("CREATE ATTACHMENT eb ON emp USING joinindex WITH (side=left, fields=id)")
        .unwrap();
    db.execute_sql(
        "CREATE ATTACHMENT eb ON badge USING joinindex WITH (side=right, fields=emp, other=emp)",
    )
    .unwrap();

    let sess = Session::new(db.clone());
    sess.execute("BEGIN").unwrap();
    // the session's transaction, by the relation lock its reads hold
    sess.execute("SELECT id FROM emp LIMIT 1").unwrap();
    let held = sess
        .execute("SELECT txn FROM sys.locks WHERE state = 'held'")
        .unwrap();
    let txn = dmx_types::TxnId(held.rows[0][0].as_int().unwrap() as u64);
    let open = || db.scans().open_count(txn);
    assert_eq!(open(), 0, "the probe statements themselves");

    for _ in 0..100 {
        let r = sess.execute("SELECT id FROM emp LIMIT 1").unwrap();
        assert_eq!(r.rows.len(), 1);
    }
    assert_eq!(open(), 0, "after LIMIT");

    // fails on the sixth row, the scan mid-page
    let err = sess.execute("SELECT 10 / (id - 5) FROM emp").unwrap_err();
    assert!(matches!(err, DmxError::InvalidArg(_)), "{err}");
    assert!(sess.in_transaction(), "a statement error, not a dead txn");
    assert_eq!(open(), 0, "after a failing statement");

    // a nested loop cut short leaves an outer and an inner scan behind
    let r = sess
        .execute("SELECT e.id, d.dname FROM emp e, dept d WHERE e.dept = d.id LIMIT 3")
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    assert_eq!(open(), 0, "after a join whose outer is cut short");
    let plan = sess
        .execute("EXPLAIN SELECT e.id FROM emp e, badge b WHERE e.id = b.emp")
        .unwrap();
    assert!(format!("{:?}", plan.rows).contains("JoinIndexJoin"));
    let r = sess
        .execute("SELECT e.id FROM emp e, badge b WHERE e.id = b.emp LIMIT 1")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(open(), 0, "after a pair scan cut short");

    // and a savepoint has no abandoned position to save
    sess.execute("SAVEPOINT sp").unwrap();
    sess.execute("ROLLBACK TO SAVEPOINT sp").unwrap();
    sess.execute("COMMIT").unwrap();
}

// ---------------------------------------------------------------------
// frames above the access node change nothing observable
// ---------------------------------------------------------------------

/// One row of `t`: id, name, g (NULL for every seventh), h, v (NULL for
/// every fourth).
type TRow = (i64, String, Option<i64>, i64, Option<f64>);

fn t_rows() -> Vec<TRow> {
    (0..3000)
        .map(|id| {
            (
                id,
                format!("n{:03}", (id * 37) % 101),
                (id % 7 != 0).then_some(id % 5),
                id % 3,
                (id % 4 != 0).then_some(id as f64 * 0.5),
            )
        })
        .collect()
}

fn opt_int(v: Option<i64>) -> Value {
    v.map_or(Value::Null, Value::Int)
}

/// Groups `rows` by `key`, in the order of the encoded keys — the order
/// an aggregate hands its groups out in.
fn grouped<'r>(
    rows: impl Iterator<Item = &'r TRow>,
    key: impl Fn(&TRow) -> Vec<Value>,
) -> Vec<(Vec<Value>, Vec<&'r TRow>)> {
    let mut groups = std::collections::BTreeMap::<Vec<u8>, (Vec<Value>, Vec<&TRow>)>::new();
    for r in rows {
        let k = key(r);
        let slot = groups
            .entry(dmx_types::key::encode_values(&k))
            .or_insert_with(|| (k, Vec::new()));
        slot.1.push(r);
    }
    groups.into_values().collect()
}

/// Runs `plan` through the frame path (`run_to_rows`) and through the
/// row-at-a-time one (`run_analyzed`: every node wrapped, so every pull
/// is the defaulted `next`), each in a snapshot transaction of its own.
fn both_ways(
    db: &Arc<Database>,
    plan: &dmx_query::planner::Plan,
) -> (Vec<Vec<Value>>, Vec<Vec<Value>>, Vec<u64>) {
    let run = |analyzed: bool| {
        let txn = db.begin();
        txn.set_snapshot_reads(true);
        let ctx = dmx_core::ExecCtx { db, txn: &txn };
        let out = if analyzed {
            dmx_query::exec::run_analyzed(plan, &ctx).unwrap()
        } else {
            (
                dmx_query::exec::run_to_rows(plan, &ctx).unwrap(),
                Vec::new(),
            )
        };
        assert_eq!(db.scans().open_count(txn.id()), 0, "scans closed");
        db.commit(&txn).unwrap();
        out
    };
    let (frames, _) = run(false);
    let (rows, actuals) = run(true);
    (frames, rows, actuals)
}

fn plan_of(db: &Arc<Database>, sql: &str) -> dmx_query::planner::Plan {
    let dmx_query::ast::Stmt::Select(sel) = dmx_query::parser::parse(sql).unwrap() else {
        panic!("not a SELECT: {sql}");
    };
    dmx_query::planner::plan_select(db, &sel).unwrap().plan
}

/// A filter that takes the evaluator and then pulls its input: the input
/// takes the same guard again, and a function registration queued
/// between the two wedges both. A debug build refuses the pull where the
/// operator tree reaches the store.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "scan_next_frame under 1 evaluator")]
fn a_pull_under_the_evaluator_is_refused() {
    use dmx_core::ExecCtx;
    use dmx_query::exec::{build, RowFrame, RowSource};

    struct BadFilter<'p> {
        input: Box<dyn RowSource + 'p>,
    }

    impl RowSource for BadFilter<'_> {
        fn next(&mut self, ctx: &ExecCtx<'_>) -> dmx_types::Result<Option<Vec<Value>>> {
            let mut frame = RowFrame::new();
            self.next_frame(ctx, &mut frame)?;
            Ok(frame.pop_front())
        }

        fn next_frame(&mut self, ctx: &ExecCtx<'_>, frame: &mut RowFrame) -> dmx_types::Result<()> {
            let _eval = ctx.evaluator();
            self.input.next_frame(ctx, frame)
        }
    }

    let db = open_db();
    setup_emp_n(&db, 3);
    let plan = plan_of(&db, "SELECT id FROM emp");
    let txn = db.begin();
    let ctx = ExecCtx { db: &db, txn: &txn };
    let mut filter = BadFilter {
        input: build(&plan, &ctx, None).unwrap(),
    };
    let _ = filter.next_frame(&ctx, &mut RowFrame::new());
}

#[test]
fn frames_above_the_access_change_nothing_observable() {
    use dmx_query::planner::Plan;
    let db = open_db();
    db.execute_sql(
        "CREATE TABLE t (id INT NOT NULL, name STRING NOT NULL, g INT, h INT NOT NULL, v FLOAT)",
    )
    .unwrap();
    db.execute_sql("CREATE TABLE p (k INT, tag INT NOT NULL)")
        .unwrap();
    let t = t_rows();
    let (t_rel, p_rel) = (
        db.catalog().get_by_name("t").unwrap().id,
        db.catalog().get_by_name("p").unwrap().id,
    );
    let p: Vec<(Option<i64>, i64)> = vec![(Some(0), 10), (Some(3), 13), (None, 99), (Some(8), 18)];
    db.with_txn(|txn| {
        for (id, name, g, h, v) in &t {
            let v = v.map_or(Value::Null, Value::Float);
            let values = vec![
                Value::Int(*id),
                Value::from(name.as_str()),
                opt_int(*g),
                Value::Int(*h),
                v,
            ];
            db.insert(txn, t_rel, dmx_types::Record::new(values))?;
        }
        for (k, tag) in &p {
            db.insert(
                txn,
                p_rel,
                dmx_types::Record::new(vec![opt_int(*k), Value::Int(*tag)]),
            )?;
        }
        Ok(())
    })
    .unwrap();

    let int = Value::Int;
    let count = |rs: &[&TRow]| int(rs.len() as i64);
    let sum_id = |rs: &[&TRow]| int(rs.iter().map(|r| r.0).sum());

    // (what, SQL, the model's rows in order, the model's per-node counts
    // in EXPLAIN's pre-order)
    type Case = (&'static str, String, Vec<Vec<Value>>, Vec<u64>);
    let mut cases: Vec<Case> = Vec::new();

    // no GROUP BY: one state, every aggregate kind, strings under MIN/MAX
    let hit: Vec<&TRow> = t.iter().filter(|r| r.0 >= 10).collect();
    let vs: Vec<f64> = hit.iter().filter_map(|r| r.4).collect();
    cases.push((
        "no group by",
        "SELECT COUNT(*), COUNT(v), SUM(id), AVG(v), MIN(name), MAX(name), SUM(v) FROM t \
         WHERE id >= 10"
            .into(),
        vec![vec![
            count(&hit),
            int(vs.len() as i64),
            sum_id(&hit),
            Value::Float(vs.iter().sum::<f64>() / vs.len() as f64),
            Value::from(hit.iter().map(|r| r.1.as_str()).min().unwrap()),
            Value::from(hit.iter().map(|r| r.1.as_str()).max().unwrap()),
            Value::Float(vs.iter().sum()),
        ]],
        vec![1, hit.len() as u64],
    ));
    // an empty input: one row without GROUP BY, none with
    cases.push((
        "empty, no group by",
        "SELECT COUNT(*), SUM(id), MIN(name) FROM t WHERE id < 0".into(),
        vec![vec![int(0), Value::Null, Value::Null]],
        vec![1, 0],
    ));
    cases.push((
        "empty, group by",
        "SELECT g, COUNT(*) FROM t WHERE id < 0 GROUP BY g".into(),
        Vec::new(),
        vec![0, 0],
    ));
    // one key with NULLs in it, and a select item read from the group's
    // first row
    let by_g = grouped(t.iter(), |r| vec![opt_int(r.2)]);
    cases.push((
        "one key, NULL keys, representative",
        "SELECT g, id + 1, COUNT(*), SUM(id), MAX(name) FROM t GROUP BY g".into(),
        by_g.iter()
            .map(|(k, rs)| {
                vec![
                    k[0].clone(),
                    int(rs[0].0 + 1),
                    count(rs),
                    sum_id(rs),
                    Value::from(rs.iter().map(|r| r.1.as_str()).max().unwrap()),
                ]
            })
            .collect(),
        vec![by_g.len() as u64, t.len() as u64],
    ));
    // two keys
    let by_gh = grouped(t.iter().filter(|r| r.0 % 2 == 1), |r| {
        vec![opt_int(r.2), int(r.3)]
    });
    cases.push((
        "two keys",
        "SELECT g, h, COUNT(v), MIN(v) FROM t WHERE id % 2 = 1 GROUP BY g, h".into(),
        by_gh
            .iter()
            .map(|(k, rs)| {
                let vs: Vec<f64> = rs.iter().filter_map(|r| r.4).collect();
                let min = vs.iter().copied().reduce(f64::min);
                vec![
                    k[0].clone(),
                    k[1].clone(),
                    int(vs.len() as i64),
                    min.map_or(Value::Null, Value::Float),
                ]
            })
            .collect(),
        vec![by_gh.len() as u64, t.len() as u64 / 2],
    ));
    // LIMIT above an aggregate
    cases.push((
        "limit above",
        "SELECT g, COUNT(*) FROM t GROUP BY g LIMIT 2".into(),
        by_g.iter()
            .take(2)
            .map(|(k, rs)| vec![k[0].clone(), count(rs)])
            .collect(),
        vec![2, 2, t.len() as u64],
    ));
    // filter and projection alone, frame by frame
    let some: Vec<&TRow> = t.iter().filter(|r| r.3 == 2 && r.0 > 400).collect();
    cases.push((
        "project",
        "SELECT name, id * 2, v FROM t WHERE h = 2 AND id > 400".into(),
        some.iter()
            .map(|r| {
                vec![
                    Value::from(r.1.as_str()),
                    int(r.0 * 2),
                    r.4.map_or(Value::Null, Value::Float),
                ]
            })
            .collect(),
        vec![some.len() as u64, some.len() as u64],
    ));
    // a join's rows, whole, into an aggregate; NULL joins nothing
    let joined = |k: i64| t.iter().filter(move |r| r.2 == Some(k));
    let pairs: Vec<(i64, &TRow)> = p
        .iter()
        .filter_map(|(k, tag)| Some(((*k)?, *tag)))
        .flat_map(|(k, tag)| joined(k).map(move |r| (tag, r)))
        .collect();
    let mut tags: Vec<i64> = pairs.iter().map(|(tag, _)| *tag).collect();
    tags.sort_unstable();
    tags.dedup();
    cases.push((
        "join input",
        "SELECT p.tag, COUNT(*), SUM(t.id) FROM p, t WHERE p.k = t.g GROUP BY p.tag".into(),
        tags.iter()
            .map(|tag| {
                let rs: Vec<&TRow> = pairs
                    .iter()
                    .filter(|(t, _)| t == tag)
                    .map(|(_, r)| *r)
                    .collect();
                vec![int(*tag), count(&rs), sum_id(&rs)]
            })
            .collect(),
        vec![
            tags.len() as u64,
            pairs.len() as u64,
            p.len() as u64,
            pairs.len() as u64,
        ],
    ));

    let check = |what: &str, plan: &Plan, want: &[Vec<Value>], counts: &[u64]| {
        let (frames, rows, actuals) = both_ways(&db, plan);
        let mut text = String::new();
        plan.describe(0, &mut text);
        assert_eq!(frames, want, "{what}: frames\n{text}");
        assert_eq!(rows, want, "{what}: rows\n{text}");
        assert_eq!(actuals, counts, "{what}: per-node counts\n{text}");
    };
    for (what, sql, want, counts) in &cases {
        check(what, &plan_of(&db, sql), want, counts);
        // and through the session, EXPLAIN ANALYZE included
        assert_eq!(&db.query_sql(sql).unwrap(), want, "{what}");
        let analyzed = db.query_sql(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        let actual: Vec<u64> = analyzed
            .iter()
            .map(|r| r[2].as_int().unwrap() as u64)
            .collect();
        assert_eq!(&actual, counts, "{what}: EXPLAIN ANALYZE");
    }

    // LIMIT below an aggregate (no SQL spells it): the aggregate sees the
    // first rows only, and the scan is cut short
    let Plan::Aggregate {
        input,
        group_by,
        items,
    } = plan_of(&db, "SELECT g, COUNT(*), SUM(id) FROM t GROUP BY g")
    else {
        panic!("aggregate plan expected");
    };
    let below = Plan::Aggregate {
        input: Box::new(Plan::Limit { input, n: 150 }),
        group_by,
        items,
    };
    let first = grouped(t.iter().take(150), |r| vec![opt_int(r.2)]);
    let want: Vec<Vec<Value>> = first
        .iter()
        .map(|(k, rs)| vec![k[0].clone(), count(rs), sum_id(rs)])
        .collect();
    check(
        "limit below",
        &below,
        &want,
        &[first.len() as u64, 150, 150],
    );

    // A residual beside a pushed predicate (a storage method that
    // applied one conjunct only would plan this): the residual runs on
    // the fields the scan read, not on a row as wide as the table.
    let Plan::Project { input, exprs } =
        plan_of(&db, "SELECT name FROM t WHERE h = 1 AND id > 300")
    else {
        panic!("project plan expected");
    };
    let Plan::Access(mut access) = *input else {
        panic!("access expected");
    };
    let conjuncts: Vec<dmx_expr::Expr> = dmx_expr::conjuncts(access.pushed.as_ref().unwrap())
        .into_iter()
        .cloned()
        .collect();
    assert_eq!(conjuncts.len(), 2);
    assert_eq!(access.reads, Some(vec![0, 1, 3]));
    access.pushed = Some(conjuncts[0].clone());
    access.residual = Some(conjuncts[1].clone());
    let split = Plan::Project {
        input: Box::new(Plan::Access(access)),
        exprs,
    };
    let want: Vec<Vec<Value>> = t
        .iter()
        .filter(|r| r.3 == 1 && r.0 > 300)
        .map(|r| vec![Value::from(r.1.as_str())])
        .collect();
    check(
        "residual beside pushed",
        &split,
        &want,
        &[want.len() as u64, want.len() as u64],
    );

    // The same through an index: covered (the key alone, residual on the
    // key's fields) and two-step (record fetched, residual in the pool).
    db.execute_sql("CREATE INDEX t_gh ON t (g, h)").unwrap();
    db.execute_sql("ANALYZE TABLE t").unwrap();
    let in_g = |g: i64| t.iter().filter(move |r| r.2 == Some(g));
    let covered = "SELECT g, h, COUNT(*) FROM t WHERE g = 2 AND h <> 1 GROUP BY g, h";
    let plan = plan_of(&db, covered);
    let mut text = String::new();
    plan.describe(0, &mut text);
    assert!(text.contains("covered"), "{text}");
    let by_h = grouped(in_g(2).filter(|r| r.3 != 1), |r| vec![int(2), int(r.3)]);
    let want: Vec<Vec<Value>> = by_h
        .iter()
        .map(|(k, rs)| vec![k[0].clone(), k[1].clone(), count(rs)])
        .collect();
    let n = by_h.iter().map(|(_, rs)| rs.len() as u64).sum();
    check("covered index input", &plan, &want, &[by_h.len() as u64, n]);

    db.execute_sql("CREATE UNIQUE INDEX t_id ON t (id)")
        .unwrap();
    db.execute_sql("ANALYZE TABLE t").unwrap();
    let two_step =
        "SELECT h, SUM(id), MIN(name) FROM t WHERE id < 40 AND id >= 10 AND v > 5.0 GROUP BY h";
    let plan = plan_of(&db, two_step);
    let mut text = String::new();
    plan.describe(0, &mut text);
    assert!(
        text.contains("attachment") && !text.contains("covered"),
        "{text}"
    );
    let picked = |r: &&TRow| (10..40).contains(&r.0) && r.4.is_some_and(|v| v > 5.0);
    let by_h = grouped(t.iter().filter(picked), |r| vec![int(r.3)]);
    let want: Vec<Vec<Value>> = by_h
        .iter()
        .map(|(k, rs)| {
            let min = rs.iter().map(|r| r.1.as_str()).min().unwrap();
            vec![k[0].clone(), sum_id(rs), Value::from(min)]
        })
        .collect();
    let n = by_h.iter().map(|(_, rs)| rs.len() as u64).sum();
    check(
        "two-step attachment input",
        &plan,
        &want,
        &[by_h.len() as u64, n],
    );
}
