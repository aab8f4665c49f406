//! The lanes, one per measured configuration of E1–E12. A lane's name is
//! its configuration: its setup reads what varies from the name's parts,
//! and a size in a name is the full one, which `scale` divides. Adjacent
//! rows are the comparisons a claim makes (E3's in-pool against copy-out,
//! E8's vetoes against the transaction an abort would rerun).

use std::collections::HashMap;
use std::hint::black_box;
use std::str::FromStr;
use std::sync::Arc;

use dmx_core::{AccessPath, AccessQuery, Database, ExtensionRegistry};
use dmx_core::{RelationDescriptor, StorageMethod};
use dmx_expr::{eval_predicate, CmpOp, EvalContext, Expr};
use dmx_query::{PlanCache, Session, SqlExt};
use dmx_storage::{BTreeStorage, ForeignStorage, HeapStorage, MemoryStorage, ReadOnlyStorage};
use dmx_types::sync::RwLock;
use dmx_types::testrng::TestRng;
use dmx_types::{DmxError, Record, Value};

use super::{emp_row, insert_rows, load_emp, open_db, registry, Lane, Pass};

const fn lane(name: &'static str, claim: u8, setup: fn(&'static str, usize) -> Pass) -> Lane {
    Lane {
        name,
        claim,
        counted: true,
        setup,
    }
}

/// Every lane, in claim order.
#[rustfmt::skip]
pub const LANES: &[Lane] = &[
    lane("e1/static", 1, e1), lane("e1/trait-object", 1, e1),
    lane("e1/vector", 1, e1), lane("e1/by-name", 1, e1),
    lane("e2/none", 2, e2), lane("e2/index/1", 2, e2), lane("e2/index/2", 2, e2),
    lane("e2/index/4", 2, e2), lane("e2/index/8", 2, e2),
    lane("e2/index+hash+check+aggregate", 2, e2),
    lane("e3/in-pool/0.001", 3, filter), lane("e3/copy-out/0.001", 3, filter),
    lane("e3/in-pool/0.01", 3, filter), lane("e3/copy-out/0.01", 3, filter),
    lane("e3/in-pool/0.1", 3, filter), lane("e3/copy-out/0.1", 3, filter),
    lane("e3/in-pool/0.5", 3, filter), lane("e3/copy-out/0.5", 3, filter),
    lane("e3/in-pool/1", 3, filter), lane("e3/copy-out/1", 3, filter),
    lane("e4/bound", 4, e4), lane("e4/re-translated", 4, e4),
    lane("e4/after-drop-index", 4, e4),
    lane("e5/scan/0.00002", 5, filter), lane("e5/index/0.00002", 5, filter),
    lane("e5/planner/0.00002", 5, filter),
    lane("e5/scan/0.01", 5, filter), lane("e5/index/0.01", 5, filter),
    lane("e5/planner/0.01", 5, filter),
    lane("e5/scan/0.1", 5, filter), lane("e5/index/0.1", 5, filter),
    lane("e5/planner/0.1", 5, filter),
    lane("e5/scan/1", 5, filter), lane("e5/index/1", 5, filter), lane("e5/planner/1", 5, filter),
    lane("e6/nl/2000x50", 6, e6), lane("e6/index-nl/2000x50", 6, e6),
    lane("e6/join-index/2000x50", 6, e6),
    lane("e6/nl/10000x200", 6, e6), lane("e6/index-nl/10000x200", 6, e6),
    lane("e6/join-index/10000x200", 6, e6),
    lane("e6/selective/index-nl/30000x1000", 6, e6),
    lane("e6/selective/join-index/30000x1000", 6, e6),
    lane("e7/none", 7, e7), lane("e7/immediate", 7, e7), lane("e7/deferred", 7, e7),
    lane("e7/transient/immediate", 7, e7), lane("e7/transient/deferred", 7, e7),
    lane("e8/txn/2000", 8, e8), lane("e8/veto/1", 8, e8),
    lane("e8/veto/10", 8, e8), lane("e8/veto/100", 8, e8),
    lane("e9/heap/load", 9, e9), lane("e9/heap/probe", 9, e9),
    lane("e9/heap/scan", 9, e9), lane("e9/heap/range", 9, e9),
    lane("e9/btree/load", 9, e9), lane("e9/btree/probe", 9, e9),
    lane("e9/btree/scan", 9, e9), lane("e9/btree/range", 9, e9),
    lane("e9/memory/load", 9, e9), lane("e9/memory/probe", 9, e9),
    lane("e9/memory/scan", 9, e9), lane("e9/memory/range", 9, e9),
    lane("e9/readonly/load", 9, e9), lane("e9/readonly/probe", 9, e9),
    lane("e9/readonly/scan", 9, e9), lane("e9/readonly/range", 9, e9),
    lane("e9/foreign/load", 9, e9), lane("e9/foreign/probe", 9, e9),
    lane("e9/foreign/scan", 9, e9), lane("e9/foreign/range", 9, e9),
    lane("e10/embedded", 10, e10), lane("e10/catalog", 10, e10), lane("e10/decode", 10, e10),
    lane("e11/cascade/10", 11, e11), lane("e11/cascade/100", 11, e11),
    lane("e11/cascade/1000", 11, e11),
    lane("e12/transfer/1", 12, e12),
    // more threads: their counters depend on how the threads interleave
    Lane { counted: false, ..lane("e12/transfer/2", 12, e12) },
    Lane { counted: false, ..lane("e12/transfer/4", 12, e12) },
];

/// Part `i` of a lane name (`e3/in-pool/0.01`: 1 is `in-pool`).
fn part(name: &str, i: usize) -> &str {
    name.split('/').nth(i).unwrap_or_default()
}

/// The last part of a lane name, parsed.
fn last<T: FromStr>(name: &str) -> Option<T> {
    name.rsplit('/').next()?.parse().ok()
}

/// `full / scale`, at least 1.
fn sized(full: usize, scale: usize) -> usize {
    (full / scale).max(1)
}

/// A pass over `db`.
fn pass(db: &Arc<Database>, work: impl FnOnce(&Arc<Database>) -> u64 + 'static) -> Pass {
    let own = Arc::clone(db);
    let work = Box::new(move || work(&own));
    Pass {
        db: Some(Arc::clone(db)),
        work,
    }
}

/// A pass that moves no database's counters: it calls `f` `n` times.
fn spin(n: usize, f: impl Fn() -> usize + 'static) -> Pass {
    let work = Box::new(move || {
        black_box((0..n).fold(0usize, |acc, i| acc.wrapping_add(f()).wrapping_add(i)));
        n as u64
    });
    Pass { db: None, work }
}

/// Runs `;`-separated statements.
fn exec(db: &Arc<Database>, stmts: &str) {
    for s in stmts.split(';') {
        db.execute_sql(s).expect(s);
    }
}

/// `INSERT INTO table VALUES` the tuples `row(i)` for `i` below `n`.
fn insert(db: &Arc<Database>, table: &str, n: usize, row: impl Fn(usize) -> String) {
    let rows: Vec<String> = (0..n).map(row).collect();
    exec(
        db,
        &format!("INSERT INTO {table} VALUES {}", rows.join(", ")),
    );
}

fn int(db: &Arc<Database>, sql: &str) -> i64 {
    db.query_sql(sql).unwrap()[0][0].as_int().unwrap()
}

/// E1: reaching the heap storage method's procedures, by a static call,
/// a resolved trait object, the registry's id-indexed vector, or (the
/// rejected alternative, with the same locking duties) a map by name.
fn e1(name: &'static str, scale: usize) -> Pass {
    let n = sized(2_000_000, scale);
    let reg = registry();
    let heap = reg.storage_id_by_name("heap").unwrap();
    let resolved = reg.storage(heap).unwrap();
    let methods = reg.storage_methods().into_iter();
    let by_name: HashMap<_, _> = methods
        .map(|(id, m)| (m, reg.storage(id).unwrap()))
        .collect();
    let by_name = RwLock::new(by_name);
    match part(name, 1) {
        "static" => spin(n, || black_box(&HeapStorage).name().len()),
        "trait-object" => spin(n, move || black_box(&resolved).name().len()),
        "vector" => spin(n, move || {
            reg.storage(black_box(heap)).unwrap().name().len()
        }),
        _ => spin(n, move || {
            let sm = by_name.read().get(black_box("heap")).cloned().unwrap();
            sm.name().len()
        }),
    }
}

/// E2: loading rows under 0–8 B-tree indexes, or one with three other
/// attachment types.
fn e2(name: &'static str, scale: usize) -> Pass {
    let n = sized(3000, scale);
    let db = open_db();
    let indexes = match part(name, 1) {
        "none" => 0,
        "index" => last(name).unwrap(),
        _ => 1,
    };
    let mut specs: Vec<String> = (0..indexes)
        .map(|i| format!("CREATE INDEX i{i} ON {{t}} (id)"))
        .collect();
    if name.ends_with("aggregate") {
        specs.push("CREATE INDEX h0 ON {t} USING hash (name)".into());
        specs.push("CREATE CONSTRAINT c0 ON {t} CHECK (salary > 0)".into());
        specs.push(
            "CREATE ATTACHMENT a0 ON {t} USING aggregate WITH (sum=salary, group_by=dept)".into(),
        );
    }
    let specs: Vec<&str> = specs.iter().map(String::as_str).collect();
    load_emp(&db, "t", 0, &specs).unwrap();
    pass(&db, move |db| {
        insert_rows(db, "t", 0..n, emp_row).unwrap().len() as u64
    })
}

/// E3 and E5: rows with `id < fraction·n` of `n`, under a unique index on
/// `id`. E3 evaluates the predicate in the pool during a forced scan (E5's
/// `scan`) or on records copied out in full; E5 also forces the index
/// range, or asks the planner. Every path counts the same rows.
fn filter(name: &'static str, scale: usize) -> Pass {
    let n = sized(50_000, scale);
    let db = open_db();
    load_emp(&db, "t", n, &["CREATE UNIQUE INDEX t_pk ON {t} (id)"]).unwrap();
    let k = ((n as f64 * last::<f64>(name).unwrap()) as i64).max(1);
    let rd = db.catalog().get_by_name("t").unwrap();
    let pred = Expr::cmp_col(CmpOp::Lt, 0, k);
    let (att, inst) = rd.find_attachment("t_pk").unwrap();
    let estimate =
        db.registry()
            .attachment(att)
            .unwrap()
            .estimate(&rd, inst, std::slice::from_ref(&pred));
    let (sm, all) = (AccessPath::StorageMethod, AccessQuery::All);
    let (path, query, pushed, cols) = match part(name, 1) {
        "index" => (
            AccessPath::Attachment(att, inst.instance),
            estimate.unwrap().query,
            None,
            None,
        ),
        "copy-out" => (sm, all, None, None),
        _ => (sm, all, Some(pred.clone()), Some(vec![0])),
    };
    let (t, copy_out) = (rd.id, part(name, 1) == "copy-out");
    pass(&db, move |db| {
        let rows = if part(name, 1) == "planner" {
            int(db, &format!("SELECT COUNT(*) FROM t WHERE id < {k}"))
        } else {
            db.with_txn(|txn| {
                let scan = db.open_scan(txn, t, path, query, pushed, cols)?;
                let funcs = copy_out.then(|| db.services().funcs.read());
                let mut rows = 0;
                while let Some(item) = db.scan_next(txn, scan)? {
                    rows += match (&funcs, item.values) {
                        (Some(f), Some(v)) => {
                            eval_predicate(&pred, &v, EvalContext::new(f))? as i64
                        }
                        _ => 1,
                    };
                }
                Ok(rows)
            })
            .unwrap()
        };
        assert_eq!(rows, k, "{name}");
        n as u64
    })
}

/// E4: a point query with its bound plan reused, re-translated every
/// time, or run once after `DROP INDEX` invalidated its plan.
fn e4(name: &'static str, scale: usize) -> Pass {
    let n = sized(20_000, scale);
    let db = open_db();
    load_emp(&db, "t", n, &["CREATE UNIQUE INDEX t_pk ON {t} (id)"]).unwrap();
    let q = format!("SELECT name FROM t WHERE id = {}", n * 5 / 8);
    let want = vec![vec![Value::Str(format!("emp{}", n * 5 / 8))]];
    assert_eq!(db.query_sql(&q).unwrap(), want);
    let mut runs = sized(2000, scale);
    if name.ends_with("drop-index") {
        exec(&db, "DROP INDEX t_pk ON t");
        runs = 1;
    }
    pass(&db, move |db| {
        let cache = db.query_state::<PlanCache, _>(PlanCache::default);
        for _ in 0..runs {
            if name.ends_with("re-translated") {
                cache.clear(db);
            }
            assert_eq!(db.query_sql(&q).unwrap(), want, "{name}");
        }
        runs as u64
    })
}

/// E6: a join of `emp` and `dept` by plain nested loop, index nested loop
/// or the join index, counted whole; `selective` asks for one employee's
/// row instead, over `ANALYZE`d tables with unique indexes on both ids
/// (ROADMAP item 25).
fn e6(name: &'static str, scale: usize) -> Pass {
    let dims = name.rsplit('/').next().unwrap().split('x');
    let dims: Vec<usize> = dims.map(|d| sized(d.parse().unwrap(), scale)).collect();
    let (emps, depts, plan) = (dims[0], dims[1], name.split('/').rev().nth(1).unwrap());
    let selective = part(name, 1) == "selective";
    let mut ddl = "CREATE TABLE dept (id INT NOT NULL, dname STRING NOT NULL);\
                   CREATE TABLE emp (id INT NOT NULL, name STRING NOT NULL, dept INT)"
        .to_string();
    if plan == "index-nl" || selective {
        ddl += "; CREATE UNIQUE INDEX dept_pk ON dept (id)";
    }
    if selective {
        ddl += "; CREATE UNIQUE INDEX emp_pk ON emp (id)";
    }
    if plan == "join-index" {
        ddl += "; CREATE ATTACHMENT ed ON emp USING joinindex WITH (side=left, fields=dept);\
                CREATE ATTACHMENT ed ON dept USING joinindex WITH (side=right, fields=id, other=emp)";
    }
    let db = open_db();
    exec(&db, &ddl);
    insert(&db, "dept", depts, |d| format!("({d}, 'd{d}')"));
    insert(&db, "emp", emps, |i| {
        format!("({i}, 'e{i}', {})", i % depts)
    });
    let (q, want) = if selective {
        exec(&db, "ANALYZE TABLE emp; ANALYZE TABLE dept");
        let q =
            "SELECT emp.name, dept.dname FROM emp, dept WHERE emp.dept = dept.id AND emp.id = 7";
        let d = format!("d{}", 7 % depts);
        (q, vec![vec![Value::Str("e7".into()), Value::Str(d)]])
    } else {
        let q = "SELECT COUNT(*) FROM emp e, dept d WHERE e.dept = d.id";
        (q, vec![vec![Value::Int(emps as i64)]])
    };
    assert_eq!(db.query_sql(q).unwrap(), want, "{name}");
    pass(&db, move |db| {
        assert_eq!(db.query_sql(q).unwrap(), want, "{name}");
        1
    })
}

/// E7: one transaction of inserts under no constraint, an immediate one
/// or a deferred one; `transient` is the semantic claim: a balance made
/// negative and fixed before COMMIT commits under a deferred constraint,
/// and an immediate one vetoes it.
fn e7(name: &'static str, scale: usize) -> Pass {
    let db = open_db();
    exec(&db, "CREATE TABLE t (id INT NOT NULL, bal FLOAT NOT NULL)");
    let (deferred, transient) = (name.ends_with("deferred"), part(name, 1) == "transient");
    match part(name, 1) {
        "none" => {}
        _ if deferred => exec(&db, "CREATE CONSTRAINT c ON t CHECK (bal >= 0) DEFERRED"),
        _ => exec(&db, "CREATE CONSTRAINT c ON t CHECK (bal >= 0)"),
    }
    let n = if transient { 1 } else { sized(2000, scale) };
    pass(&db, move |db| {
        let sess = Session::new(Arc::clone(db));
        sess.execute("BEGIN").unwrap();
        if !transient {
            for i in 0..n {
                sess.execute(&format!("INSERT INTO t VALUES ({i}, {i}.0)"))
                    .unwrap();
            }
        } else if deferred {
            sess.execute("INSERT INTO t VALUES (1, -5.0)").unwrap();
            sess.execute("UPDATE t SET bal = 5.0 WHERE id = 1").unwrap();
        } else {
            let vetoed = sess.execute("INSERT INTO t VALUES (1, -5.0)");
            assert!(matches!(vetoed, Err(DmxError::Veto { .. })), "{vetoed:?}");
        }
        sess.execute("COMMIT").unwrap();
        let rows = int(db, "SELECT COUNT(*) FROM t WHERE bal >= 0");
        assert_eq!(rows, (deferred || !transient) as i64 * n as i64, "{name}");
        n as u64
    })
}

/// E8: vetoed inserts at the end of a transaction of `n` good ones, each
/// undone by partial rollback; `txn` is that whole transaction and its
/// commit, which abort-and-rerun would repeat for each veto.
fn e8(name: &'static str, scale: usize) -> Pass {
    let n = sized(2000, scale);
    let db = open_db();
    exec(
        &db,
        "CREATE TABLE t (id INT NOT NULL); CREATE CONSTRAINT c ON t CHECK (id < 1000000)",
    );
    let (t, txn) = (db.catalog().get_by_name("t").unwrap().id, db.begin());
    let row = |id: usize| Record::new(vec![Value::Int(id as i64)]);
    let good = part(name, 1) == "txn";
    if !good {
        (0..n).for_each(|i| drop(db.insert(&txn, t, row(i)).unwrap()));
    }
    let vetoes = last(name).filter(|_| !good).unwrap_or(0);
    pass(&db, move |db| {
        if good {
            (0..n).for_each(|i| drop(db.insert(&txn, t, row(i)).unwrap()));
            db.commit(&txn).unwrap();
            assert_eq!(int(db, "SELECT COUNT(*) FROM t"), n as i64);
            return n as u64;
        }
        for _ in 0..vetoes {
            let err = db.insert(&txn, t, row(2_000_000)).unwrap_err();
            assert!(matches!(err, DmxError::Veto { .. }), "{err}");
        }
        vetoes
    })
}

/// E9: a load, keyed probes, a full scan or a range on one storage
/// method. The registry adds a foreign server `mars`.
fn e9(name: &'static str, scale: usize) -> Pass {
    let n = sized(20_000, scale);
    let reg = ExtensionRegistry::new();
    let foreign = ForeignStorage::default();
    foreign.register_server("mars");
    let methods: [Arc<dyn StorageMethod>; 5] = [
        Arc::new(MemoryStorage::default()),
        Arc::new(HeapStorage),
        Arc::new(BTreeStorage),
        Arc::new(ReadOnlyStorage),
        Arc::new(foreign),
    ];
    for sm in methods {
        reg.register_storage_method(sm).unwrap();
    }
    dmx_attach::register_builtin_attachments(&reg).unwrap();
    let db = Database::open_fresh(reg).unwrap();
    let with = match part(name, 1) {
        "btree" => " WITH (key=id)",
        "foreign" => " WITH (server=mars)",
        _ => "",
    };
    let using = format!("USING {}{with}", part(name, 1));
    exec(
        &db,
        &format!("CREATE TABLE t (id INT NOT NULL, name STRING NOT NULL) {using}"),
    );
    let row = |i: usize| vec![Value::Int(i as i64), Value::Str(format!("v{i}"))];
    let op = part(name, 2);
    let keys = match op {
        "load" => vec![],
        _ => insert_rows(&db, "t", 0..n, row).unwrap(),
    };
    let (lo, width) = (n / 2, sized(100, scale));
    let t = db.catalog().get_by_name("t").unwrap().id;
    pass(&db, move |db| match op {
        "load" => insert_rows(db, "t", 0..n, row).unwrap().len() as u64,
        "probe" => {
            let probes = sized(1000, scale);
            db.with_txn(|txn| {
                for key in (0..probes).map(|p| &keys[(p * 7919) % n]) {
                    assert!(db.fetch(txn, t, key, Some(&[0]), None)?.is_some());
                }
                Ok(probes as u64)
            })
            .unwrap()
        }
        "scan" => {
            assert_eq!(int(db, "SELECT COUNT(*) FROM t"), n as i64);
            n as u64
        }
        _ => {
            let q = format!(
                "SELECT COUNT(*) FROM t WHERE id >= {lo} AND id < {}",
                lo + width
            );
            assert_eq!(int(db, &q), width as i64);
            width as u64
        }
    })
}

/// E10: the relation descriptor as a bound plan holds it, from a catalog
/// lookup, or decoded from its catalog bytes (1/100 as many calls).
fn e10(name: &'static str, scale: usize) -> Pass {
    let n = sized(1_000_000, scale);
    let db = open_db();
    let indexes = ["CREATE INDEX a ON {t} (id)", "CREATE INDEX b ON {t} (dept)"];
    load_emp(&db, "t", 1000, &indexes).unwrap();
    let rd = db.catalog().get_by_name("t").unwrap();
    let image = rd.encode();
    let catalog = move || db.catalog().get_by_name(black_box("t")).unwrap();
    let decode = move || RelationDescriptor::decode(black_box(&image)).unwrap();
    match part(name, 1) {
        "embedded" => spin(n, move || black_box(&rd).clone().attachment_count()),
        "catalog" => spin(n, move || catalog().attachment_count()),
        _ => spin(sized(n, 100), move || decode().attachment_count()),
    }
}

/// E11: one parent delete that cascades to its children through a
/// referential-integrity attachment.
fn e11(name: &'static str, scale: usize) -> Pass {
    let fanout = sized(last(name).unwrap(), scale);
    let db = open_db();
    exec(
        &db,
        "CREATE TABLE p (id INT NOT NULL); CREATE TABLE c (id INT NOT NULL, p INT);\
               INSERT INTO p VALUES (1), (2); CREATE ATTACHMENT fk ON p USING refint WITH \
               (role=parent, fields=id, other=c, other_fields=p, on_delete=cascade)",
    );
    insert(&db, "c", fanout, |i| format!("({i}, 1)"));
    pass(&db, move |db| {
        exec(db, "DELETE FROM p WHERE id = 1");
        assert_eq!(int(db, "SELECT COUNT(*) FROM c"), 0);
        fanout as u64
    })
}

/// E12: transfers between 16 accounts on one to four threads; a deadlock
/// victim rolls back and retries. The sum of the balances must hold.
fn e12(name: &'static str, scale: usize) -> Pass {
    let (threads, per_thread) = (last::<u64>(name).unwrap(), sized(50, scale));
    let db = open_db();
    exec(&db, "CREATE TABLE acct (id INT NOT NULL, bal INT NOT NULL); CREATE UNIQUE INDEX acct_pk ON acct (id)");
    insert(&db, "acct", 16, |i| format!("({i}, 1000)"));
    pass(&db, move |db| {
        std::thread::scope(|s| {
            for t in 0..threads {
                let (sess, mut rng) = (Session::new(Arc::clone(db)), TestRng::new(t + 1));
                s.spawn(move || {
                    let mut done = 0;
                    while done < per_thread {
                        let (a, b) = (rng.below(16), rng.below(16));
                        let transfer = [
                            "BEGIN".to_string(),
                            format!("UPDATE acct SET bal = bal - 1 WHERE id = {a}"),
                            format!("UPDATE acct SET bal = bal + 1 WHERE id = {b}"),
                            "COMMIT".to_string(),
                        ];
                        match transfer.iter().try_for_each(|s| sess.execute(s).map(drop)) {
                            Ok(()) => done += 1,
                            Err(_) if sess.in_transaction() => drop(sess.execute("ROLLBACK")),
                            Err(_) => {}
                        }
                    }
                });
            }
        });
        let sum = int(db, "SELECT SUM(bal) FROM acct");
        assert_eq!(sum, 16_000, "the sum of the balances");
        threads * per_thread as u64
    })
}
