//! Integration tests for every attachment type, driven through the core
//! dispatcher — including the paper's Figure 1 configuration (EMPLOYEE
//! relation: heap storage method + B-tree index instances + intra-record
//! consistency constraint).

// Integration-test harnesses are exempt from the runtime panic
// discipline: a broken fixture should abort loudly.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::ops::Bound;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use dmx_attach::{check_params, register_builtin_attachments};
use dmx_core::{
    AccessPath, AccessQuery, Database, DatabaseConfig, DatabaseEnv, ExtensionRegistry, KeyRange,
    SpatialOp,
};
use dmx_expr::{CmpOp, Expr};
use dmx_storage::register_builtin_storage;
use dmx_types::key::encode_values;
use dmx_types::{
    AttrList, ColumnDef, DataType, DmxError, Record, RecordKey, Rect, RelationId, Schema, Value,
};

fn registry() -> Arc<ExtensionRegistry> {
    let reg = ExtensionRegistry::new();
    register_builtin_storage(&reg).unwrap();
    register_builtin_attachments(&reg).unwrap();
    reg
}

fn open_db() -> Arc<Database> {
    Database::open_fresh(registry()).unwrap()
}

fn emp_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::not_null("id", DataType::Int),
        ColumnDef::not_null("name", DataType::Str),
        ColumnDef::new("dept", DataType::Int),
        ColumnDef::new("salary", DataType::Float),
    ])
    .unwrap()
}

fn emp(id: i64, name: &str, dept: i64, salary: f64) -> Record {
    Record::new(vec![
        Value::Int(id),
        Value::from(name),
        Value::Int(dept),
        Value::Float(salary),
    ])
}

fn create_emp(db: &Arc<Database>) -> RelationId {
    db.with_txn(|txn| db.create_relation(txn, "employee", emp_schema(), "heap", &AttrList::new()))
        .unwrap()
}

fn scan_all_ids(db: &Arc<Database>, rel: RelationId, path: AccessPath) -> Vec<i64> {
    db.with_txn(|txn| {
        let scan = db.open_scan(txn, rel, path, AccessQuery::All, None, None)?;
        let mut out = Vec::new();
        while let Some(item) = db.scan_next(txn, scan)? {
            // values[0] is id for both heap rows and id-indexed paths
            out.push(item.values.unwrap()[0].as_int()?);
        }
        Ok(out)
    })
    .unwrap()
}

/// Figure 1: the EMPLOYEE relation uses the heap storage method and has
/// B-tree and intra-record consistency constraint attachments.
#[test]
fn figure1_employee_configuration() {
    let db = open_db();
    let rel = create_emp(&db);
    // salary must be positive — the intra-record constraint
    let positive_salary = Expr::Or(vec![
        Expr::IsNull(Box::new(Expr::Column(3)), false),
        Expr::cmp_col(CmpOp::Gt, 3, 0.0f64),
    ]);
    db.with_txn(|txn| {
        db.create_attachment(
            txn,
            "employee",
            "btree",
            "emp_id_idx",
            &AttrList::parse("fields=id, unique=true").unwrap(),
        )?;
        db.create_attachment(
            txn,
            "employee",
            "check",
            "salary_positive",
            &check_params(&positive_salary, false).unwrap(),
        )
    })
    .unwrap();
    let rd = db.catalog().get(rel).unwrap();
    assert_eq!(rd.attachment_count(), 2);
    let (idx_type, idx_inst) = rd.find_attachment("emp_id_idx").unwrap();
    let idx_path = AccessPath::Attachment(idx_type, idx_inst.instance);

    // inserts flow through storage method + both attachments
    db.with_txn(|txn| {
        for i in [3i64, 1, 2] {
            db.insert(txn, rel, emp(i, &format!("e{i}"), 1, 100.0 * i as f64))?;
        }
        Ok(())
    })
    .unwrap();

    // keyed access via the index: ids come back in key order
    assert_eq!(scan_all_ids(&db, rel, idx_path), vec![1, 2, 3]);

    // duplicate id → unique index vetoes; constraint violation → check
    // vetoes; both leave relation AND index consistent
    db.with_txn(|txn| {
        assert!(matches!(
            db.insert(txn, rel, emp(1, "dup", 1, 50.0)),
            Err(DmxError::Veto { .. })
        ));
        assert!(matches!(
            db.insert(txn, rel, emp(9, "broke", 1, -5.0)),
            Err(DmxError::Veto { .. })
        ));
        Ok(())
    })
    .unwrap();
    assert_eq!(scan_all_ids(&db, rel, idx_path), vec![1, 2, 3]);
    assert_eq!(
        scan_all_ids(&db, rel, AccessPath::StorageMethod).len(),
        3,
        "vetoed records absent from the relation too"
    );
}

#[test]
fn index_backfill_on_existing_records_and_drop() {
    let db = open_db();
    let rel = create_emp(&db);
    db.with_txn(|txn| {
        for i in 0..200 {
            db.insert(txn, rel, emp(i, "x", i % 7, 1.0))?;
        }
        Ok(())
    })
    .unwrap();
    // creating the index on a populated relation backfills it
    db.with_txn(|txn| {
        db.create_attachment(
            txn,
            "employee",
            "btree",
            "by_id",
            &AttrList::parse("fields=id").unwrap(),
        )
    })
    .unwrap();
    let rd = db.catalog().get(rel).unwrap();
    let (t, i) = rd.find_attachment("by_id").unwrap();
    let ids = scan_all_ids(&db, rel, AccessPath::Attachment(t, i.instance));
    assert_eq!(ids, (0..200).collect::<Vec<_>>());

    // dropping the index removes it from the descriptor
    db.with_txn(|txn| db.drop_attachment(txn, "employee", "by_id"))
        .unwrap();
    assert!(db
        .catalog()
        .get(rel)
        .unwrap()
        .find_attachment("by_id")
        .is_none());
}

#[test]
fn unique_backfill_failure_rolls_everything_back() {
    let db = open_db();
    let rel = create_emp(&db);
    db.with_txn(|txn| {
        db.insert(txn, rel, emp(1, "a", 1, 1.0))?;
        db.insert(txn, rel, emp(1, "b", 1, 1.0))?; // duplicate id, no index yet
        Ok(())
    })
    .unwrap();
    // unique index creation must fail during backfill and leave no trace
    let err = db
        .with_txn(|txn| {
            db.create_attachment(
                txn,
                "employee",
                "btree",
                "uniq_id",
                &AttrList::parse("fields=id, unique=true").unwrap(),
            )
        })
        .unwrap_err();
    assert!(matches!(err, DmxError::Veto { .. }));
    assert!(db
        .catalog()
        .get(rel)
        .unwrap()
        .find_attachment("uniq_id")
        .is_none());
}

#[test]
fn index_stays_consistent_across_update_delete_abort() {
    let db = open_db();
    let rel = create_emp(&db);
    db.with_txn(|txn| {
        db.create_attachment(
            txn,
            "employee",
            "btree",
            "by_id",
            &AttrList::parse("fields=id").unwrap(),
        )
    })
    .unwrap();
    let rd = db.catalog().get(rel).unwrap();
    let (t, i) = rd.find_attachment("by_id").unwrap();
    let path = AccessPath::Attachment(t, i.instance);

    let keys: Vec<RecordKey> = db
        .with_txn(|txn| {
            (0..10)
                .map(|i| db.insert(txn, rel, emp(i, "x", 0, 1.0)))
                .collect()
        })
        .unwrap();
    // update key field → index moves the entry
    db.with_txn(|txn| {
        db.update(txn, rel, &keys[0], emp(100, "x", 0, 1.0))?;
        db.delete(txn, rel, &keys[1])?;
        Ok(())
    })
    .unwrap();
    assert_eq!(
        scan_all_ids(&db, rel, path),
        vec![2, 3, 4, 5, 6, 7, 8, 9, 100]
    );
    // aborted changes disappear from the index too
    let txn = db.begin();
    db.insert(&txn, rel, emp(55, "ghost", 0, 1.0)).unwrap();
    db.update(&txn, rel, &keys[2], emp(200, "moved", 0, 1.0))
        .unwrap();
    db.abort(&txn).unwrap();
    assert_eq!(
        scan_all_ids(&db, rel, path),
        vec![2, 3, 4, 5, 6, 7, 8, 9, 100]
    );
}

#[test]
fn index_range_scan_with_query() {
    let db = open_db();
    let rel = create_emp(&db);
    db.with_txn(|txn| {
        db.create_attachment(
            txn,
            "employee",
            "btree",
            "by_id",
            &AttrList::parse("fields=id").unwrap(),
        )?;
        for i in 0..50 {
            db.insert(txn, rel, emp(i, "x", 0, 1.0))?;
        }
        Ok(())
    })
    .unwrap();
    let rd = db.catalog().get(rel).unwrap();
    let (t, inst) = rd.find_attachment("by_id").unwrap();
    // estimate produces the range query for `id = 7`
    let att = db.registry().attachment(t).unwrap();
    let preds = [Expr::col_eq(0, 7i64)];
    let choice = att.estimate(&rd, inst, &preds).expect("index is relevant");
    assert!(choice.cost.total() < 10.0, "keyed access is cheap");
    let ids = db
        .with_txn(|txn| {
            let scan = db.open_scan(
                txn,
                rel,
                AccessPath::Attachment(t, inst.instance),
                choice.query.clone(),
                None,
                None,
            )?;
            let mut out = Vec::new();
            while let Some(item) = db.scan_next(txn, scan)? {
                out.push(item.values.unwrap()[0].as_int()?);
            }
            Ok(out)
        })
        .unwrap();
    assert_eq!(ids, vec![7]);
    // and an irrelevant predicate makes the index decline
    assert!(att.estimate(&rd, inst, &[Expr::col_eq(1, "bob")]).is_none());
}

#[test]
fn hash_index_probes_equality_only() {
    let db = open_db();
    let rel = create_emp(&db);
    db.with_txn(|txn| {
        db.create_attachment(
            txn,
            "employee",
            "hash",
            "h_name",
            &AttrList::parse("fields=name").unwrap(),
        )?;
        for i in 0..30 {
            db.insert(txn, rel, emp(i, &format!("n{}", i % 10), 0, 1.0))?;
        }
        Ok(())
    })
    .unwrap();
    let rd = db.catalog().get(rel).unwrap();
    let (t, inst) = rd.find_attachment("h_name").unwrap();
    let att = db.registry().attachment(t).unwrap();
    // equality is recognized …
    let choice = att
        .estimate(&rd, inst, &[Expr::col_eq(1, "n3")])
        .expect("hash handles equality");
    // … ranges are not
    assert!(att
        .estimate(&rd, inst, &[Expr::cmp_col(CmpOp::Gt, 1, "n3")])
        .is_none());
    let hits = db
        .with_txn(|txn| {
            let scan = db.open_scan(
                txn,
                rel,
                AccessPath::Attachment(t, inst.instance),
                choice.query.clone(),
                None,
                None,
            )?;
            let mut n = 0;
            while db.scan_next(txn, scan)?.is_some() {
                n += 1;
            }
            Ok(n)
        })
        .unwrap();
    assert_eq!(hits, 3, "ids 3, 13, 23");
}

// ---------------------------------------------------------------------
// R-tree
// ---------------------------------------------------------------------

fn spatial_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::not_null("id", DataType::Int),
        ColumnDef::new("area", DataType::Rect),
    ])
    .unwrap()
}

fn parcel(id: i64, r: Rect) -> Record {
    Record::new(vec![Value::Int(id), Value::Rect(r)])
}

#[test]
fn rtree_spatial_queries_match_brute_force() {
    let db = open_db();
    let rel = db
        .with_txn(|txn| {
            db.create_relation(txn, "parcels", spatial_schema(), "heap", &AttrList::new())
        })
        .unwrap();
    db.with_txn(|txn| {
        db.create_attachment(
            txn,
            "parcels",
            "rtree",
            "parcels_rt",
            &AttrList::parse("fields=area").unwrap(),
        )
    })
    .unwrap();
    // deterministic pseudo-random rectangles
    let mut rects = Vec::new();
    let mut seed = 12345u64;
    let mut next = || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((seed >> 33) % 1000) as f64
    };
    db.with_txn(|txn| {
        for i in 0..800i64 {
            let (x, y) = (next(), next());
            let (w, h) = (next() % 50.0 + 1.0, next() % 50.0 + 1.0);
            let r = Rect::new(x, y, x + w, y + h);
            rects.push(r);
            db.insert(txn, rel, parcel(i, r))?;
        }
        Ok(())
    })
    .unwrap();

    let rd = db.catalog().get(rel).unwrap();
    let (t, inst) = rd.find_attachment("parcels_rt").unwrap();
    let path = AccessPath::Attachment(t, inst.instance);

    let run = |op: SpatialOp, q: Rect| -> Vec<i64> {
        db.with_txn(|txn| {
            let scan = db.open_scan(txn, rel, path, AccessQuery::Spatial(op, q), None, None)?;
            let mut out = Vec::new();
            while let Some(item) = db.scan_next(txn, scan)? {
                // fetch id via the record key (access path → storage method)
                let row = db.fetch(txn, rel, &item.key, Some(&[0]), None)?.unwrap();
                out.push(row[0].as_int()?);
            }
            out.sort_unstable();
            Ok(out)
        })
        .unwrap()
    };
    let brute = |f: &dyn Fn(&Rect) -> bool| -> Vec<i64> {
        let mut v: Vec<i64> = rects
            .iter()
            .enumerate()
            .filter(|(_, r)| f(r))
            .map(|(i, _)| i as i64)
            .collect();
        v.sort_unstable();
        v
    };

    let q = Rect::new(200.0, 200.0, 230.0, 230.0);
    assert_eq!(
        run(SpatialOp::Encloses, Rect::new(210.0, 210.0, 212.0, 212.0)),
        brute(&|r| r.encloses(&Rect::new(210.0, 210.0, 212.0, 212.0)))
    );
    assert_eq!(
        run(SpatialOp::EnclosedBy, Rect::new(0.0, 0.0, 300.0, 300.0)),
        brute(&|r| Rect::new(0.0, 0.0, 300.0, 300.0).encloses(r))
    );
    assert_eq!(run(SpatialOp::Intersects, q), brute(&|r| r.intersects(&q)));

    // the ENCLOSES predicate is recognized with a low cost (the paper's
    // cost-estimation example)
    let att = db.registry().attachment(t).unwrap();
    let pred = Expr::Encloses(
        Box::new(Expr::Column(1)),
        Box::new(Expr::Const(Value::Rect(q))),
    );
    let choice = att
        .estimate(&rd, inst, &[pred])
        .expect("ENCLOSES recognized");
    let sm = db.registry().storage(rd.sm).unwrap();
    let scan_cost = sm.estimate(&rd, &[]).cost;
    assert!(
        choice.cost.total() < scan_cost.total(),
        "R-tree beats full scan"
    );
}

#[test]
fn rtree_maintenance_and_abort() {
    let db = open_db();
    let rel = db
        .with_txn(|txn| {
            db.create_relation(txn, "parcels", spatial_schema(), "heap", &AttrList::new())
        })
        .unwrap();
    db.with_txn(|txn| {
        db.create_attachment(
            txn,
            "parcels",
            "rtree",
            "rt",
            &AttrList::parse("fields=area").unwrap(),
        )
    })
    .unwrap();
    let r1 = Rect::new(0.0, 0.0, 10.0, 10.0);
    let r2 = Rect::new(100.0, 100.0, 110.0, 110.0);
    let k = db
        .with_txn(|txn| db.insert(txn, rel, parcel(1, r1)))
        .unwrap();
    let rd = db.catalog().get(rel).unwrap();
    let (t, inst) = rd.find_attachment("rt").unwrap();
    let path = AccessPath::Attachment(t, inst.instance);
    let count_hits = |q: Rect| -> usize {
        db.with_txn(|txn| {
            let scan = db.open_scan(
                txn,
                rel,
                path,
                AccessQuery::Spatial(SpatialOp::Intersects, q),
                None,
                None,
            )?;
            let mut n = 0;
            while db.scan_next(txn, scan)?.is_some() {
                n += 1;
            }
            Ok(n)
        })
        .unwrap()
    };
    assert_eq!(count_hits(r1), 1);
    // update moves the rect
    db.with_txn(|txn| db.update(txn, rel, &k, parcel(1, r2)).map(|_| ()))
        .unwrap();
    assert_eq!(count_hits(r1), 0);
    assert_eq!(count_hits(r2), 1);
    // aborted delete leaves the entry in place
    let txn = db.begin();
    db.delete(&txn, rel, &k).unwrap();
    db.abort(&txn).unwrap();
    assert_eq!(count_hits(r2), 1);
}

// ---------------------------------------------------------------------
// constraints, triggers, aggregates
// ---------------------------------------------------------------------

#[test]
fn deferred_check_constraint_runs_before_prepare() {
    let db = open_db();
    let rel = create_emp(&db);
    // deferred: salary > 0 checked only at commit
    let pred = Expr::cmp_col(CmpOp::Gt, 3, 0.0f64);
    db.with_txn(|txn| {
        db.create_attachment(
            txn,
            "employee",
            "check",
            "sal_def",
            &check_params(&pred, true).unwrap(),
        )
    })
    .unwrap();

    // a violation inside the transaction is fine if fixed before commit
    db.with_txn(|txn| {
        let k = db.insert(txn, rel, emp(1, "a", 0, -5.0))?; // would fail immediate
        db.update(txn, rel, &k, emp(1, "a", 0, 5.0))?; // fixed
        Ok(())
    })
    .unwrap();

    // an unfixed violation aborts the transaction at commit
    let txn = db.begin();
    db.insert(&txn, rel, emp(2, "b", 0, -1.0)).unwrap();
    let err = db.commit(&txn).unwrap_err();
    assert!(matches!(err, DmxError::ConstraintViolation(_)));
    assert_eq!(
        scan_all_ids(&db, rel, AccessPath::StorageMethod),
        vec![1],
        "aborted transaction's record is gone"
    );
}

#[test]
fn referential_integrity_restrict_and_cascade() {
    let db = open_db();
    let dept_schema = Schema::new(vec![
        ColumnDef::not_null("id", DataType::Int),
        ColumnDef::not_null("name", DataType::Str),
    ])
    .unwrap();
    let dept = db
        .with_txn(|txn| db.create_relation(txn, "dept", dept_schema, "heap", &AttrList::new()))
        .unwrap();
    let rel = create_emp(&db);
    db.with_txn(|txn| {
        db.create_attachment(
            txn,
            "employee",
            "refint",
            "emp_dept_fk_child",
            &AttrList::parse("role=child, fields=dept, other=dept, other_fields=id").unwrap(),
        )?;
        db.create_attachment(
            txn,
            "dept",
            "refint",
            "emp_dept_fk_parent",
            &AttrList::parse(
                "role=parent, fields=id, other=employee, other_fields=dept, on_delete=cascade",
            )
            .unwrap(),
        )
    })
    .unwrap();

    let d1 = db
        .with_txn(|txn| {
            let k = db.insert(
                txn,
                dept,
                Record::new(vec![Value::Int(1), Value::from("eng")]),
            )?;
            db.insert(
                txn,
                dept,
                Record::new(vec![Value::Int(2), Value::from("hr")]),
            )?;
            Ok(k)
        })
        .unwrap();

    // child insert with missing parent is vetoed
    db.with_txn(|txn| {
        assert!(matches!(
            db.insert(txn, rel, emp(1, "x", 99, 1.0)),
            Err(DmxError::Veto { .. })
        ));
        db.insert(txn, rel, emp(1, "x", 1, 1.0))?;
        db.insert(txn, rel, emp(2, "y", 1, 1.0))?;
        db.insert(txn, rel, emp(3, "z", 2, 1.0))?;
        Ok(())
    })
    .unwrap();

    // cascade: deleting dept 1 removes its employees
    db.with_txn(|txn| db.delete(txn, dept, &d1)).unwrap();
    assert_eq!(scan_all_ids(&db, rel, AccessPath::StorageMethod), vec![3]);
}

#[test]
fn three_level_cascade_chain() {
    // dept → employee → assignment: deleting the dept cascades twice
    let db = open_db();
    let mk = |name: &str, cols: Vec<ColumnDef>| {
        db.with_txn(|txn| {
            db.create_relation(
                txn,
                name,
                Schema::new(cols.clone()).unwrap(),
                "heap",
                &AttrList::new(),
            )
        })
        .unwrap()
    };
    let dept = mk("dept", vec![ColumnDef::not_null("id", DataType::Int)]);
    let emp_rel = mk(
        "emp",
        vec![
            ColumnDef::not_null("id", DataType::Int),
            ColumnDef::new("dept", DataType::Int),
        ],
    );
    let asg = mk(
        "assignment",
        vec![
            ColumnDef::not_null("id", DataType::Int),
            ColumnDef::new("emp", DataType::Int),
        ],
    );
    db.with_txn(|txn| {
        db.create_attachment(
            txn,
            "dept",
            "refint",
            "fk1p",
            &AttrList::parse(
                "role=parent, fields=id, other=emp, other_fields=dept, on_delete=cascade",
            )
            .unwrap(),
        )?;
        db.create_attachment(
            txn,
            "emp",
            "refint",
            "fk2p",
            &AttrList::parse(
                "role=parent, fields=id, other=assignment, other_fields=emp, on_delete=cascade",
            )
            .unwrap(),
        )
    })
    .unwrap();
    let dk = db
        .with_txn(|txn| {
            let dk = db.insert(txn, dept, Record::new(vec![Value::Int(1)]))?;
            for e in 1..=3i64 {
                db.insert(
                    txn,
                    emp_rel,
                    Record::new(vec![Value::Int(e), Value::Int(1)]),
                )?;
                for a in 0..2i64 {
                    db.insert(
                        txn,
                        asg,
                        Record::new(vec![Value::Int(e * 10 + a), Value::Int(e)]),
                    )?;
                }
            }
            Ok(dk)
        })
        .unwrap();
    assert_eq!(scan_all_ids(&db, asg, AccessPath::StorageMethod).len(), 6);
    db.with_txn(|txn| db.delete(txn, dept, &dk)).unwrap();
    assert!(scan_all_ids(&db, emp_rel, AccessPath::StorageMethod).is_empty());
    assert!(
        scan_all_ids(&db, asg, AccessPath::StorageMethod).is_empty(),
        "cascade reached the grandchild"
    );
}

#[test]
fn trigger_hooks_and_audit_action() {
    let db = open_db();
    let rel = create_emp(&db);
    let audit_schema = Schema::new(vec![
        ColumnDef::not_null("event", DataType::Str),
        ColumnDef::not_null("relation", DataType::Str),
        ColumnDef::new("info", DataType::Str),
    ])
    .unwrap();
    let audit = db
        .with_txn(|txn| db.create_relation(txn, "audit", audit_schema, "heap", &AttrList::new()))
        .unwrap();
    let fired = Arc::new(AtomicU32::new(0));
    let fired2 = fired.clone();
    db.register_hook(
        "count_fires",
        Arc::new(move |_ctx, args| {
            assert_eq!(args.event, "delete");
            fired2.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }),
    );
    db.with_txn(|txn| {
        db.create_attachment(
            txn,
            "employee",
            "trigger",
            "audit_ins",
            &AttrList::parse("on=insert, action=audit:audit").unwrap(),
        )?;
        db.create_attachment(
            txn,
            "employee",
            "trigger",
            "hook_del",
            &AttrList::parse("on=delete, action=hook:count_fires").unwrap(),
        )
    })
    .unwrap();
    let k = db
        .with_txn(|txn| db.insert(txn, rel, emp(1, "a", 0, 1.0)))
        .unwrap();
    // the audit action inserted into the audit relation (cascading
    // modification through the dispatcher)
    db.with_txn(|txn| {
        let scan = db.open_scan(
            txn,
            audit,
            AccessPath::StorageMethod,
            AccessQuery::All,
            None,
            None,
        )?;
        let item = db.scan_next(txn, scan)?.expect("audit row");
        assert_eq!(item.values.unwrap()[0], Value::from("insert"));
        Ok(())
    })
    .unwrap();
    db.with_txn(|txn| db.delete(txn, rel, &k)).unwrap();
    assert_eq!(fired.load(Ordering::SeqCst), 1, "hook fired on delete only");
}

#[test]
fn maintained_aggregates_track_groups() {
    let db = open_db();
    let rel = create_emp(&db);
    db.with_txn(|txn| {
        db.create_attachment(
            txn,
            "employee",
            "aggregate",
            "sal_by_dept",
            &AttrList::parse("sum=salary, group_by=dept").unwrap(),
        )
    })
    .unwrap();
    let keys: Vec<RecordKey> = db
        .with_txn(|txn| {
            (0..10)
                .map(|i| db.insert(txn, rel, emp(i, "x", i % 2, 10.0 * (i + 1) as f64)))
                .collect()
        })
        .unwrap();
    // mutate: move one record between groups, delete another, abort a third change
    db.with_txn(|txn| {
        db.update(txn, rel, &keys[0], emp(0, "x", 1, 10.0))?; // dept 0 → 1
        db.delete(txn, rel, &keys[2])?; // dept 0, salary 30
        Ok(())
    })
    .unwrap();
    let txn = db.begin();
    db.insert(&txn, rel, emp(99, "ghost", 0, 1000.0)).unwrap();
    db.abort(&txn).unwrap();

    // read maintained aggregates and compare with brute force
    let rd = db.catalog().get(rel).unwrap();
    let (t, inst) = rd.find_attachment("sal_by_dept").unwrap();
    let groups: Vec<(i64, i64, f64)> = db
        .with_txn(|txn| {
            let scan = db.open_scan(
                txn,
                rel,
                AccessPath::Attachment(t, inst.instance),
                AccessQuery::All,
                None,
                None,
            )?;
            let mut out = Vec::new();
            while let Some(item) = db.scan_next(txn, scan)? {
                let v = item.values.unwrap();
                out.push((v[0].as_int()?, v[1].as_int()?, v[2].as_float()?));
            }
            Ok(out)
        })
        .unwrap();
    // brute force from the relation
    let mut expect = std::collections::BTreeMap::new();
    db.with_txn(|txn| {
        let scan = db.open_scan(
            txn,
            rel,
            AccessPath::StorageMethod,
            AccessQuery::All,
            None,
            None,
        )?;
        while let Some(item) = db.scan_next(txn, scan)? {
            let v = item.values.unwrap();
            let e = expect.entry(v[2].as_int()?).or_insert((0i64, 0.0f64));
            e.0 += 1;
            e.1 += v[3].as_float()?;
        }
        Ok(())
    })
    .unwrap();
    assert_eq!(groups.len(), expect.len());
    for (g, c, s) in groups {
        let (ec, es) = expect[&g];
        assert_eq!(c, ec, "count for group {g}");
        assert!((s - es).abs() < 1e-9, "sum for group {g}: {s} vs {es}");
    }
}

#[test]
fn join_index_maintains_pairs_on_both_sides() {
    let db = open_db();
    let dept_schema = Schema::new(vec![
        ColumnDef::not_null("id", DataType::Int),
        ColumnDef::not_null("name", DataType::Str),
    ])
    .unwrap();
    let dept = db
        .with_txn(|txn| db.create_relation(txn, "dept", dept_schema, "heap", &AttrList::new()))
        .unwrap();
    let rel = create_emp(&db);
    // left side on employee(dept), right side on dept(id) — same name
    db.with_txn(|txn| {
        db.create_attachment(
            txn,
            "employee",
            "joinindex",
            "emp_dept_ji",
            &AttrList::parse("side=left, fields=dept").unwrap(),
        )?;
        db.create_attachment(
            txn,
            "dept",
            "joinindex",
            "emp_dept_ji",
            &AttrList::parse("side=right, fields=id, other=employee").unwrap(),
        )
    })
    .unwrap();

    let dept_keys: Vec<RecordKey> = db
        .with_txn(|txn| {
            (1..=3i64)
                .map(|i| {
                    db.insert(
                        txn,
                        dept,
                        Record::new(vec![Value::Int(i), Value::from(format!("d{i}"))]),
                    )
                })
                .collect()
        })
        .unwrap();
    let emp_keys: Vec<RecordKey> = db
        .with_txn(|txn| {
            (0..12i64)
                .map(|i| db.insert(txn, rel, emp(i, "x", i % 3 + 1, 1.0)))
                .collect()
        })
        .unwrap();

    let count_pairs = || -> usize {
        let rd = db.catalog().get(rel).unwrap();
        let (t, inst) = rd.find_attachment("emp_dept_ji").unwrap();
        db.with_txn(|txn| {
            let scan = db.open_scan(
                txn,
                rel,
                AccessPath::Attachment(t, inst.instance),
                AccessQuery::All,
                None,
                None,
            )?;
            let mut n = 0;
            while let Some(item) = db.scan_next(txn, scan)? {
                // each pair: left key is an employee record key, right is
                // a dept record key — verify both resolve
                let rkey = match &item.values.as_ref().unwrap()[0] {
                    Value::Bytes(b) => RecordKey::new(b.clone()),
                    other => panic!("expected right key, got {other}"),
                };
                assert!(db.fetch(txn, rel, &item.key, Some(&[0]), None)?.is_some());
                assert!(db.fetch(txn, dept, &rkey, Some(&[0]), None)?.is_some());
                n += 1;
            }
            Ok(n)
        })
        .unwrap()
    };
    assert_eq!(count_pairs(), 12, "every employee matches exactly one dept");

    // deleting a dept removes its pairs (right-side maintenance)
    db.with_txn(|txn| db.delete(txn, dept, &dept_keys[0]))
        .unwrap();
    assert_eq!(count_pairs(), 8);
    // deleting an employee removes its pair (left-side maintenance)
    db.with_txn(|txn| db.delete(txn, rel, &emp_keys[1]))
        .unwrap();
    assert_eq!(count_pairs(), 7);
    // aborted insert leaves no pair behind
    let txn = db.begin();
    db.insert(&txn, rel, emp(100, "ghost", 2, 1.0)).unwrap();
    db.abort(&txn).unwrap();
    assert_eq!(count_pairs(), 7);
}

#[test]
fn crash_restart_keeps_indexes_consistent() {
    let env = DatabaseEnv::fresh();
    let reg = registry();
    let rel;
    {
        let db = Database::open(env.clone(), DatabaseConfig::default(), reg.clone()).unwrap();
        rel = db
            .with_txn(|txn| {
                db.create_relation(txn, "employee", emp_schema(), "heap", &AttrList::new())
            })
            .unwrap();
        db.with_txn(|txn| {
            db.create_attachment(
                txn,
                "employee",
                "btree",
                "by_id",
                &AttrList::parse("fields=id").unwrap(),
            )
        })
        .unwrap();
        db.with_txn(|txn| {
            for i in 0..20 {
                db.insert(txn, rel, emp(i, "x", 0, 1.0))?;
            }
            Ok(())
        })
        .unwrap();
        // uncommitted inserts lost in the crash
        let t = db.begin();
        for i in 100..105 {
            db.insert(&t, rel, emp(i, "ghost", 0, 1.0)).unwrap();
        }
        // crash without commit
    }
    let db = Database::open(env, DatabaseConfig::default(), reg).unwrap();
    let rd = db.catalog().get(rel).unwrap();
    let (t, inst) = rd.find_attachment("by_id").unwrap();
    let ids = scan_all_ids(&db, rel, AccessPath::Attachment(t, inst.instance));
    assert_eq!(
        ids,
        (0..20).collect::<Vec<_>>(),
        "index matches relation after restart"
    );
    assert_eq!(scan_all_ids(&db, rel, AccessPath::StorageMethod).len(), 20);
}

#[test]
fn multiple_attachment_types_compose() {
    // heap + unique index + check + aggregate + trigger all at once;
    // a veto from the LAST attachment must undo the work of the earlier
    // ones (partial rollback across attachment types).
    let db = open_db();
    let rel = create_emp(&db);
    let audit_schema = Schema::new(vec![
        ColumnDef::not_null("event", DataType::Str),
        ColumnDef::not_null("relation", DataType::Str),
        ColumnDef::new("info", DataType::Str),
    ])
    .unwrap();
    db.with_txn(|txn| {
        db.create_relation(txn, "audit", audit_schema.clone(), "heap", &AttrList::new())
    })
    .unwrap();
    let pred = Expr::cmp_col(CmpOp::Lt, 0, 1000i64); // id < 1000
    db.with_txn(|txn| {
        db.create_attachment(
            txn,
            "employee",
            "btree",
            "u",
            &AttrList::parse("fields=id, unique=true").unwrap(),
        )?;
        db.create_attachment(
            txn,
            "employee",
            "aggregate",
            "agg",
            &AttrList::parse("sum=salary").unwrap(),
        )?;
        db.create_attachment(
            txn,
            "employee",
            "check",
            "c",
            &check_params(&pred, false).unwrap(),
        )
    })
    .unwrap();
    db.with_txn(|txn| {
        db.insert(txn, rel, emp(1, "ok", 0, 10.0))?;
        // check (registered LAST, highest attachment order position among
        // its type id) vetoes; index + aggregate updates must roll back
        assert!(db.insert(txn, rel, emp(5000, "bad", 0, 99.0)).is_err());
        Ok(())
    })
    .unwrap();
    let rd = db.catalog().get(rel).unwrap();
    let (t, inst) = rd.find_attachment("u").unwrap();
    assert_eq!(
        scan_all_ids(&db, rel, AccessPath::Attachment(t, inst.instance)),
        vec![1],
        "index clean after veto"
    );
    let (t, inst) = rd.find_attachment("agg").unwrap();
    db.with_txn(|txn| {
        let scan = db.open_scan(
            txn,
            rel,
            AccessPath::Attachment(t, inst.instance),
            AccessQuery::All,
            None,
            None,
        )?;
        let item = db.scan_next(txn, scan)?.unwrap();
        let v = item.values.unwrap();
        assert_eq!(v[1], Value::Int(1), "aggregate count clean after veto");
        assert_eq!(v[2], Value::Float(10.0));
        Ok(())
    })
    .unwrap();
}

// ---------------------------------------------------------------------
// The one modification call: what `on_modify(old, new)` must keep doing
// ---------------------------------------------------------------------

const ACCESS_PATHS: [&str; 4] = ["btree", "hash", "rtree", "joinindex"];

fn plot(id: i64, name: &str, dept: Option<i64>, area: Option<Rect>, note: &str) -> Record {
    Record::new(vec![
        Value::Int(id),
        Value::from(name),
        dept.map_or(Value::Null, Value::Int),
        area.map_or(Value::Null, Value::Rect),
        Value::from(note),
    ])
}

/// A heap of plots `(id, name, dept, area, note)` with one instance,
/// named after its type, of each attachment type in `attach`: the
/// B-tree indexes `id`, the hash `name`, the R-tree `area`, the join
/// index links `dept` to the three rows of `<name>_depts`, the aggregate
/// sums `id` by `dept`. No instance reads `note`.
fn create_plots(db: &Arc<Database>, name: &str, attach: &[&str]) -> RelationId {
    let schema = Schema::new(vec![
        ColumnDef::not_null("id", DataType::Int),
        ColumnDef::not_null("name", DataType::Str),
        ColumnDef::new("dept", DataType::Int),
        ColumnDef::new("area", DataType::Rect),
        ColumnDef::not_null("note", DataType::Str),
    ])
    .unwrap();
    let depts = format!("{name}_depts");
    let dept_schema = Schema::new(vec![ColumnDef::not_null("id", DataType::Int)]).unwrap();
    db.with_txn(|txn| {
        let rel = db.create_relation(txn, name, schema, "heap", &AttrList::new())?;
        let dept_rel = db.create_relation(txn, &depts, dept_schema, "heap", &AttrList::new())?;
        for &ty in attach {
            let params = match ty {
                "btree" => "fields=id",
                "hash" => "fields=name",
                "rtree" => "fields=area",
                "joinindex" => "side=left, fields=dept",
                "aggregate" => "sum=id, group_by=dept",
                _ => "",
            };
            db.create_attachment(txn, name, ty, ty, &AttrList::parse(params).unwrap())?;
            if ty == "joinindex" {
                let right = format!("side=right, fields=id, other={name}");
                db.create_attachment(txn, &depts, ty, ty, &AttrList::parse(&right).unwrap())?;
            }
        }
        for d in 1..=3 {
            db.insert(txn, dept_rel, Record::new(vec![Value::Int(d)]))?;
        }
        Ok(rel)
    })
    .unwrap()
}

/// "The B-tree update operation should be able to detect when no indexed
/// fields for a given index are modified": an update no access path
/// cares about logs the heap's operation and nothing else. Whatever the
/// indexes log, the update is one log frame: their operations join the
/// heap's record.
#[test]
fn update_of_an_unindexed_field_logs_nothing_for_the_indexes() {
    let db = open_db();
    let rels = [
        create_plots(&db, "indexed", &ACCESS_PATHS),
        create_plots(&db, "bare", &[]),
    ];
    let area = Rect::new(0.0, 0.0, 1.0, 1.0);
    let keys = rels.map(|rel| {
        db.with_txn(|txn| db.insert(txn, rel, plot(1, "a", Some(2), Some(area), "old note")))
            .unwrap()
    });
    // Operations and records each twin logs for the same update of its
    // one record.
    let logged = |to: Record| {
        [0, 1].map(|i| {
            db.with_txn(|txn| {
                let count = || {
                    let snap = db.metrics_snapshot();
                    (snap.counter("wal.ext_ops"), snap.counter("wal.appends"))
                };
                let (ops, frames) = count();
                assert_eq!(db.update(txn, rels[i], &keys[i], to.clone())?, keys[i]);
                let (ops_after, frames_after) = count();
                Ok((ops_after - ops, frames_after - frames))
            })
            .unwrap()
        })
    };
    let [indexed, bare] = logged(plot(1, "a", Some(2), Some(area), "new note"));
    assert_eq!(indexed, bare, "no entry changed, so no index may log");
    assert!(bare.0 > 0);
    // Every indexed field changes: each path takes its old entry out and
    // puts the new one in — inside the heap's frame.
    let moved = Rect::new(5.0, 5.0, 6.0, 6.0);
    let [indexed, bare] = logged(plot(7, "b", Some(3), Some(moved), "new note"));
    assert!(
        indexed.0 >= bare.0 + 2 * ACCESS_PATHS.len() as u64,
        "{indexed:?} vs {bare:?}"
    );
    assert_eq!(indexed.1, bare.1, "one frame per update");
}

/// What every access path of plots relation `name` returns, and the row
/// count its maintained statistics publish (what `sys.statistics.rows`
/// renders) — by field values, because the twins' record keys differ.
fn observe(db: &Arc<Database>, name: &str) -> Vec<(String, Vec<Vec<Value>>)> {
    let rd = db.catalog().get_by_name(name).unwrap();
    let depts = db.catalog().get_by_name(&format!("{name}_depts")).unwrap();
    let by_name = |n: &str| AccessQuery::KeyEquals(encode_values(&[Value::from(n)]));
    let from_id_2 = AccessQuery::Range(KeyRange {
        lo: Bound::Included(encode_values(&[Value::Int(2)])),
        hi: Bound::Unbounded,
    });
    let everywhere = Rect::new(-1e6, -1e6, 1e6, 1e6);
    let questions = [
        ("btree", "btree range", from_id_2, true),
        ("hash", "hash probe n0", by_name("n0"), false),
        ("hash", "hash probe n1", by_name("n1"), false),
        ("hash", "hash probe renamed", by_name("renamed"), false),
        (
            "rtree",
            "rtree intersects",
            AccessQuery::Spatial(SpatialOp::Intersects, everywhere),
            false,
        ),
        ("joinindex", "join pairs", AccessQuery::All, false),
        ("aggregate", "aggregate groups", AccessQuery::All, false),
    ];
    let mut seen = Vec::new();
    db.with_txn(|txn| {
        for (ty, what, query, ordered) in questions {
            let (t, inst) = rd.find_attachment(ty).unwrap();
            let path = AccessPath::Attachment(t, inst.instance);
            let scan = db.open_scan(txn, rd.id, path, query, None, None)?;
            let mut rows = Vec::new();
            while let Some(item) = db.scan_next(txn, scan)? {
                let values = item.values.unwrap_or_default();
                rows.push(match ty {
                    // (group, count, sum) summaries stand for themselves
                    "aggregate" => values,
                    // a pair is (left record key, right record key)
                    "joinindex" => {
                        let Value::Bytes(right) = &values[0] else {
                            panic!("join pair without a right key: {values:?}")
                        };
                        let right = RecordKey::new(right.clone());
                        let mut pair = db.fetch(txn, rd.id, &item.key, None, None)?.unwrap();
                        pair.extend(db.fetch(txn, depts.id, &right, None, None)?.unwrap());
                        pair
                    }
                    _ => db.fetch(txn, rd.id, &item.key, None, None)?.unwrap(),
                });
            }
            if !ordered {
                rows.sort_by_key(|row| format!("{row:?}"));
            }
            seen.push((what.to_string(), rows));
        }
        Ok(())
    })
    .unwrap();
    let rows = rd.stats.table_stats().unwrap().rows as i64;
    seen.push(("statistics rows".into(), vec![vec![Value::Int(rows)]]));
    seen
}

/// An update is its delete followed by its insert, to every attachment:
/// twin relations, one taking `update(k, r')` and the other
/// `delete(k); insert(r')`, answer every access path alike afterwards.
#[test]
fn update_equals_delete_then_insert_for_every_access_path() {
    let db = open_db();
    let all = [&ACCESS_PATHS[..], &["aggregate", "stats"]].concat();
    let twins = ["updated", "reinserted"].map(|name| create_plots(&db, name, &all));
    let square = |at: i64| {
        Some(Rect::new(
            at as f64,
            at as f64,
            at as f64 + 2.0,
            at as f64 + 2.0,
        ))
    };
    let keys = twins.map(|rel| {
        db.with_txn(|txn| {
            (0..8i64)
                .map(|i| {
                    let name = format!("n{}", i % 3);
                    db.insert(txn, rel, plot(i, &name, Some(i % 3 + 1), square(i), "v0"))
                })
                .collect::<dmx_types::Result<Vec<RecordKey>>>()
        })
        .unwrap()
    });
    let changes = [
        (0, plot(0, "n0", Some(1), square(0), "only the note")),
        (1, plot(101, "n1", Some(2), square(1), "v0")),
        (2, plot(2, "renamed", Some(1), square(2), "v0")),
        (3, plot(3, "n0", Some(1), None, "area to NULL")),
        (4, plot(4, "n1", None, square(4), "dept to NULL")),
        (5, plot(105, "renamed", Some(9), square(50), "everything")),
        // outgrows its page: the update relocates, like a re-insert
        (6, plot(6, "n0", Some(1), square(6), &"wide".repeat(2000))),
    ];
    db.with_txn(|txn| {
        for (i, to) in &changes {
            db.update(txn, twins[0], &keys[0][*i], to.clone())?;
            db.delete(txn, twins[1], &keys[1][*i])?;
            db.insert(txn, twins[1], to.clone())?;
        }
        Ok(())
    })
    .unwrap();
    let (updated, reinserted) = (observe(&db, "updated"), observe(&db, "reinserted"));
    for ((what, a), (_, b)) in updated.iter().zip(&reinserted) {
        assert_eq!(a, b, "{what}");
    }
    // and the paths are not vacuously alike
    let answer = |what: &str| &updated.iter().find(|(w, _)| w == what).unwrap().1;
    let ids = |what: &str| -> Vec<&Value> { answer(what).iter().map(|r| &r[0]).collect() };
    let int = Value::Int;
    assert_eq!(
        ids("btree range"),
        [2, 3, 4, 6, 7, 101, 105]
            .map(int)
            .iter()
            .collect::<Vec<_>>()
    );
    assert_eq!(ids("hash probe renamed").len(), 2);
    assert_eq!(answer("rtree intersects").len(), 7, "one area is NULL");
    assert_eq!(
        answer("join pairs").len(),
        6,
        "dept NULL and 9 pair with none"
    );
    assert_eq!(answer("statistics rows"), &[vec![Value::Int(8)]]);
}
