//! Integration tests: every built-in storage method driven through the
//! core dispatcher (the paper's two-step modification protocol), plus
//! rollback, savepoints, veto via a test attachment, and crash restart.

// Integration-test harnesses are exempt from the runtime panic
// discipline: a broken fixture should abort loudly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use dmx_core::{
    AccessPath, AccessQuery, Attachment, AttachmentInstance, Database, DatabaseConfig, DatabaseEnv,
    ExecCtx, ExtensionRegistry, Modification, RelationDescriptor,
};
use dmx_expr::{CmpOp, Expr};
use dmx_storage::register_builtin_storage;
use dmx_types::{
    AttrList, ColumnDef, DataType, DmxError, Record, RecordKey, RelationId, Result, Schema, Value,
};

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::not_null("id", DataType::Int),
        ColumnDef::not_null("name", DataType::Str),
        ColumnDef::new("salary", DataType::Float),
    ])
    .unwrap()
}

fn rec(id: i64, name: &str, salary: f64) -> Record {
    Record::new(vec![
        Value::Int(id),
        Value::from(name),
        Value::Float(salary),
    ])
}

fn registry() -> Arc<ExtensionRegistry> {
    let reg = ExtensionRegistry::new();
    register_builtin_storage(&reg).unwrap();
    reg
}

fn open_db() -> Arc<Database> {
    Database::open_fresh(registry()).unwrap()
}

fn params(sm: &str) -> AttrList {
    match sm {
        "btree" => AttrList::parse("key=id").unwrap(),
        "foreign" => AttrList::parse("server=mars").unwrap(),
        _ => AttrList::new(),
    }
}

fn make_rel(db: &Arc<Database>, sm: &str, name: &str) -> RelationId {
    db.with_txn(|txn| db.create_relation(txn, name, schema(), sm, &params(sm)))
        .unwrap()
}

/// Drives the full CRUD + scan lifecycle through the dispatcher.
fn crud_roundtrip(sm: &str) {
    let db = if sm == "foreign" {
        open_db_with_mars()
    } else {
        open_db()
    };
    let rel = make_rel(&db, sm, "t");

    // insert + fetch
    let keys: Vec<RecordKey> = db
        .with_txn(|txn| {
            (0..50)
                .map(|i| db.insert(txn, rel, rec(i, &format!("u{i}"), i as f64 * 10.0)))
                .collect()
        })
        .unwrap();
    db.with_txn(|txn| {
        let row = db.fetch(txn, rel, &keys[7], None, None)?.unwrap();
        assert_eq!(row[0], Value::Int(7));
        assert_eq!(row[1], Value::from("u7"));
        // projection + in-storage filtering
        let got = db.fetch(txn, rel, &keys[7], Some(&[1]), Some(&Expr::col_eq(0, 7i64)))?;
        assert_eq!(got.unwrap(), vec![Value::from("u7")]);
        let filtered = db.fetch(txn, rel, &keys[7], None, Some(&Expr::col_eq(0, 8i64)))?;
        assert_eq!(filtered, None, "predicate rejects in place");
        Ok(())
    })
    .unwrap();

    // scan with pushdown predicate
    db.with_txn(|txn| {
        let scan = db.open_scan(
            txn,
            rel,
            AccessPath::StorageMethod,
            AccessQuery::All,
            Some(Expr::cmp_col(CmpOp::Lt, 0, 10i64)),
            Some(vec![0]),
        )?;
        let mut seen = Vec::new();
        while let Some(item) = db.scan_next(txn, scan)? {
            seen.push(item.values.unwrap()[0].as_int()?);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        Ok(())
    })
    .unwrap();

    assert_eq!(db.catalog().get(rel).unwrap().stats.records(), 50);

    if sm == "readonly" {
        // write-once: update/delete are refused
        db.with_txn(|txn| {
            assert!(matches!(
                db.update(txn, rel, &keys[0], rec(0, "x", 0.0)),
                Err(DmxError::Unsupported(_))
            ));
            assert!(matches!(
                db.delete(txn, rel, &keys[0]),
                Err(DmxError::Unsupported(_))
            ));
            Ok(())
        })
        .unwrap();
        return;
    }

    // update (non-key fields) + delete
    db.with_txn(|txn| {
        let nk = db.update(txn, rel, &keys[3], rec(3, "updated", 99.0))?;
        let row = db.fetch(txn, rel, &nk, None, None)?.unwrap();
        assert_eq!(row[1], Value::from("updated"));
        db.delete(txn, rel, &keys[4])?;
        assert_eq!(db.fetch(txn, rel, &keys[4], None, None)?, None);
        assert!(matches!(
            db.delete(txn, rel, &keys[4]),
            Err(DmxError::NotFound(_))
        ));
        Ok(())
    })
    .unwrap();
    assert_eq!(db.catalog().get(rel).unwrap().stats.records(), 49);
}

fn open_db_with_mars() -> Arc<Database> {
    let reg = ExtensionRegistry::new();
    let foreign = Arc::new(dmx_storage::ForeignStorage::default());
    foreign.register_server("mars");
    reg.register_storage_method(Arc::new(dmx_storage::MemoryStorage::default()))
        .unwrap();
    reg.register_storage_method(Arc::new(dmx_storage::HeapStorage))
        .unwrap();
    reg.register_storage_method(Arc::new(dmx_storage::BTreeStorage))
        .unwrap();
    reg.register_storage_method(Arc::new(dmx_storage::ReadOnlyStorage))
        .unwrap();
    reg.register_storage_method(foreign).unwrap();
    Database::open_fresh(reg).unwrap()
}

#[test]
fn heap_crud() {
    crud_roundtrip("heap");
}

#[test]
fn btree_sm_crud() {
    crud_roundtrip("btree");
}

#[test]
fn memory_crud() {
    crud_roundtrip("memory");
}

#[test]
fn readonly_is_write_once() {
    crud_roundtrip("readonly");
}

#[test]
fn foreign_crud() {
    crud_roundtrip("foreign");
}

#[test]
fn foreign_undo_is_by_compensating_remote_operations() {
    // abort after remote inserts: the remote table ends up empty again
    let db = open_db_with_mars();
    let rel = make_rel(&db, "foreign", "remote");
    let txn = db.begin();
    db.insert(&txn, rel, rec(1, "x", 1.0)).unwrap();
    db.insert(&txn, rel, rec(2, "y", 2.0)).unwrap();
    db.abort(&txn).unwrap();
    db.with_txn(|txn| {
        let scan = db.open_scan(
            txn,
            rel,
            AccessPath::StorageMethod,
            AccessQuery::All,
            None,
            None,
        )?;
        assert!(db.scan_next(txn, scan)?.is_none(), "compensated away");
        Ok(())
    })
    .unwrap();
}

#[test]
fn memory_storage_method_has_paper_id_1() {
    let db = open_db();
    assert_eq!(
        db.registry().storage_id_by_name("memory").unwrap(),
        dmx_types::SmTypeId(1),
        "the base temporary storage method is assigned internal identifier 1"
    );
}

#[test]
fn abort_rolls_back_all_storage_methods() {
    for sm in ["heap", "btree", "memory"] {
        let db = open_db();
        let rel = make_rel(&db, sm, "t");
        let keys = db
            .with_txn(|txn| {
                (0..10)
                    .map(|i| db.insert(txn, rel, rec(i, "keep", 1.0)))
                    .collect::<Result<Vec<_>>>()
            })
            .unwrap();
        // Uncommitted work: one update, one delete, three inserts → abort.
        let txn = db.begin();
        db.update(&txn, rel, &keys[0], rec(0, "dirty", 2.0))
            .unwrap();
        db.delete(&txn, rel, &keys[1]).unwrap();
        for i in 100..103 {
            db.insert(&txn, rel, rec(i, "phantom", 0.0)).unwrap();
        }
        db.abort(&txn).unwrap();

        db.with_txn(|txn| {
            let row = db.fetch(txn, rel, &keys[0], None, None)?.unwrap();
            assert_eq!(row[1], Value::from("keep"), "{sm}: update undone");
            assert!(
                db.fetch(txn, rel, &keys[1], None, None)?.is_some(),
                "{sm}: delete undone"
            );
            let scan = db.open_scan(
                txn,
                rel,
                AccessPath::StorageMethod,
                AccessQuery::All,
                None,
                None,
            )?;
            let mut n = 0;
            while db.scan_next(txn, scan)?.is_some() {
                n += 1;
            }
            assert_eq!(n, 10, "{sm}: inserts undone");
            Ok(())
        })
        .unwrap();
    }
}

#[test]
fn savepoint_partial_rollback_mid_transaction() {
    let db = open_db();
    let rel = make_rel(&db, "heap", "t");
    let txn = db.begin();
    let k1 = db.insert(&txn, rel, rec(1, "before", 1.0)).unwrap();
    db.savepoint(&txn, "sp").unwrap();
    let k2 = db.insert(&txn, rel, rec(2, "after", 2.0)).unwrap();
    db.update(&txn, rel, &k1, rec(1, "mutated", 9.0)).unwrap();
    db.rollback_to_savepoint(&txn, "sp").unwrap();
    // pre-savepoint state restored, transaction still usable
    let row = db.fetch(&txn, rel, &k1, None, None).unwrap().unwrap();
    assert_eq!(row[1], Value::from("before"));
    assert_eq!(db.fetch(&txn, rel, &k2, None, None).unwrap(), None);
    let k3 = db.insert(&txn, rel, rec(3, "post", 3.0)).unwrap();
    db.commit(&txn).unwrap();
    db.with_txn(|t| {
        assert!(db.fetch(t, rel, &k3, None, None)?.is_some());
        assert!(db.fetch(t, rel, &k2, None, None)?.is_none());
        Ok(())
    })
    .unwrap();
}

#[test]
fn crash_restart_preserves_committed_loses_uncommitted() {
    let env = DatabaseEnv::fresh();
    let reg = registry();
    let (rel, committed_key) = {
        let db = Database::open(env.clone(), DatabaseConfig::default(), reg.clone()).unwrap();
        let rel = db
            .with_txn(|txn| db.create_relation(txn, "t", schema(), "heap", &AttrList::new()))
            .unwrap();
        let k = db
            .with_txn(|txn| db.insert(txn, rel, rec(1, "durable", 1.0)))
            .unwrap();
        // uncommitted work lost in the crash
        let txn = db.begin();
        db.insert(&txn, rel, rec(2, "volatile", 2.0)).unwrap();
        (rel, k)
        // db dropped here WITHOUT commit/abort of `txn` → crash
    };
    let db = Database::open(env, DatabaseConfig::default(), reg).unwrap();
    db.with_txn(|txn| {
        let row = db.fetch(txn, rel, &committed_key, None, None)?.unwrap();
        assert_eq!(row[1], Value::from("durable"));
        let scan = db.open_scan(
            txn,
            rel,
            AccessPath::StorageMethod,
            AccessQuery::All,
            None,
            None,
        )?;
        let mut n = 0;
        while db.scan_next(txn, scan)?.is_some() {
            n += 1;
        }
        assert_eq!(n, 1, "only the committed record survives");
        Ok(())
    })
    .unwrap();
}

#[test]
fn temporary_relations_do_not_survive_restart() {
    let env = DatabaseEnv::fresh();
    let reg = registry();
    {
        let db = Database::open(env.clone(), DatabaseConfig::default(), reg.clone()).unwrap();
        db.with_txn(|txn| db.create_relation(txn, "tmp", schema(), "memory", &AttrList::new()))
            .unwrap();
        assert!(db.catalog().get_by_name("tmp").is_ok());
    }
    let db = Database::open(env, DatabaseConfig::default(), reg).unwrap();
    assert!(
        db.catalog().get_by_name("tmp").is_err(),
        "temporary relations vanish at restart"
    );
}

#[test]
fn drop_relation_is_deferred_and_undoable() {
    let db = open_db();
    let rel = make_rel(&db, "heap", "t");
    db.with_txn(|txn| db.insert(txn, rel, rec(1, "x", 1.0)))
        .unwrap();
    // Drop then abort: the relation reappears with its data.
    let txn = db.begin();
    db.drop_relation(&txn, "t").unwrap();
    assert!(db.catalog().get_by_name("t").is_err(), "immediately hidden");
    db.abort(&txn).unwrap();
    assert!(db.catalog().get_by_name("t").is_ok(), "abort restores it");
    db.with_txn(|txn| {
        let scan = db.open_scan(
            txn,
            rel,
            AccessPath::StorageMethod,
            AccessQuery::All,
            None,
            None,
        )?;
        assert!(db.scan_next(txn, scan)?.is_some(), "data intact");
        Ok(())
    })
    .unwrap();
    // Drop and commit: storage is physically released.
    db.with_txn(|txn| db.drop_relation(txn, "t")).unwrap();
    assert!(db.catalog().get_by_name("t").is_err());
}

#[test]
fn btree_sm_key_change_relocates_record() {
    let db = open_db();
    let rel = make_rel(&db, "btree", "t");
    let k = db
        .with_txn(|txn| db.insert(txn, rel, rec(5, "five", 5.0)))
        .unwrap();
    db.with_txn(|txn| {
        let nk = db.update(txn, rel, &k, rec(50, "fifty", 5.0))?;
        assert_ne!(nk, k, "key fields changed → new record key");
        assert!(db.fetch(txn, rel, &k, None, None)?.is_none());
        assert_eq!(
            db.fetch(txn, rel, &nk, None, None)?.unwrap()[0],
            Value::Int(50)
        );
        Ok(())
    })
    .unwrap();
}

#[test]
fn btree_sm_enforces_key_uniqueness_and_scan_order() {
    let db = open_db();
    let rel = make_rel(&db, "btree", "t");
    db.with_txn(|txn| {
        for i in [5i64, 1, 9, 3, 7] {
            db.insert(txn, rel, rec(i, "x", 0.0))?;
        }
        assert!(matches!(
            db.insert(txn, rel, rec(5, "dup", 0.0)),
            Err(DmxError::Duplicate(_))
        ));
        Ok(())
    })
    .unwrap();
    db.with_txn(|txn| {
        let scan = db.open_scan(
            txn,
            rel,
            AccessPath::StorageMethod,
            AccessQuery::All,
            None,
            Some(vec![0]),
        )?;
        let mut ids = Vec::new();
        while let Some(item) = db.scan_next(txn, scan)? {
            ids.push(item.values.unwrap()[0].as_int()?);
        }
        assert_eq!(ids, vec![1, 3, 5, 7, 9], "key-sequential order");
        Ok(())
    })
    .unwrap();
}

// ----------------------------------------------------------------------
// Veto attachment: exercises the two-step protocol + partial rollback.
// ----------------------------------------------------------------------

struct VetoBigIds {
    calls: AtomicU32,
}

impl Attachment for VetoBigIds {
    fn name(&self) -> &str {
        "veto_big_ids"
    }
    fn create_instance(
        &self,
        _ctx: &ExecCtx<'_>,
        _rd: &RelationDescriptor,
        _name: &str,
        params: &AttrList,
    ) -> Result<AttrList> {
        params.check_allowed(&[], self.name())?;
        Ok(AttrList::new())
    }
    fn on_modify(
        &self,
        _ctx: &ExecCtx<'_>,
        _rd: &RelationDescriptor,
        instances: &[AttachmentInstance],
        m: &Modification<'_>,
    ) -> Result<()> {
        // invoked once per modification, servicing all instances
        self.calls.fetch_add(1, Ordering::SeqCst);
        assert!(!instances.is_empty());
        // judges the record as it is afterwards; a delete leaves none
        match m.new() {
            Some((_, new)) if new.values[0].as_int()? > 1000 => {
                Err(DmxError::veto(self.name(), "id too large"))
            }
            _ => Ok(()),
        }
    }
}

#[test]
fn veto_triggers_partial_rollback_of_storage_op() {
    let reg = registry();
    let veto = Arc::new(VetoBigIds {
        calls: AtomicU32::new(0),
    });
    reg.register_attachment(veto.clone()).unwrap();
    let db = Database::open_fresh(reg).unwrap();
    let rel = db
        .with_txn(|txn| db.create_relation(txn, "t", schema(), "heap", &AttrList::new()))
        .unwrap();
    db.with_txn(|txn| {
        db.create_attachment(txn, "t", "veto_big_ids", "guard_a", &AttrList::new())?;
        db.create_attachment(txn, "t", "veto_big_ids", "guard_b", &AttrList::new())
    })
    .unwrap();
    assert_eq!(
        db.catalog().get(rel).unwrap().attachment_count(),
        2,
        "two instances of one type"
    );

    let txn = db.begin();
    let ok_key = db.insert(&txn, rel, rec(1, "fine", 1.0)).unwrap();
    let calls_before = veto.calls.load(Ordering::SeqCst);
    let err = db.insert(&txn, rel, rec(5000, "huge", 1.0)).unwrap_err();
    assert!(matches!(err, DmxError::Veto { .. }));
    assert_eq!(
        veto.calls.load(Ordering::SeqCst),
        calls_before + 1,
        "type invoked once per modification (not per instance)"
    );
    // The storage-method insert was undone by the common recovery log;
    // the transaction itself continues.
    assert!(db.fetch(&txn, rel, &ok_key, None, None).unwrap().is_some());
    let scan = db
        .open_scan(
            &txn,
            rel,
            AccessPath::StorageMethod,
            AccessQuery::All,
            None,
            None,
        )
        .unwrap();
    let mut n = 0;
    while db.scan_next(&txn, scan).unwrap().is_some() {
        n += 1;
    }
    assert_eq!(n, 1, "vetoed record is gone, prior record remains");
    db.commit(&txn).unwrap();
    assert_eq!(db.catalog().get(rel).unwrap().stats.records(), 1);
}

#[test]
fn scan_positions_saved_and_restored_across_savepoint_rollback() {
    let db = open_db();
    let rel = make_rel(&db, "btree", "t");
    db.with_txn(|txn| {
        for i in 0..10 {
            db.insert(txn, rel, rec(i, "x", 0.0))?;
        }
        Ok(())
    })
    .unwrap();
    let txn = db.begin();
    let scan = db
        .open_scan(
            &txn,
            rel,
            AccessPath::StorageMethod,
            AccessQuery::All,
            None,
            Some(vec![0]),
        )
        .unwrap();
    // advance to id=1
    for _ in 0..2 {
        db.scan_next(&txn, scan).unwrap().unwrap();
    }
    db.savepoint(&txn, "sp").unwrap();
    // advance further and do some work that will be rolled back
    for _ in 0..3 {
        db.scan_next(&txn, scan).unwrap().unwrap();
    }
    db.insert(&txn, rel, rec(100, "rolled", 0.0)).unwrap();
    db.rollback_to_savepoint(&txn, "sp").unwrap();
    // scan resumes where it was when the savepoint was established
    let item = db.scan_next(&txn, scan).unwrap().unwrap();
    assert_eq!(item.values.unwrap()[0], Value::Int(2));
    db.commit(&txn).unwrap();
}

#[test]
fn scans_closed_at_transaction_end() {
    let db = open_db();
    let rel = make_rel(&db, "heap", "t");
    let txn = db.begin();
    let id = txn.id();
    db.open_scan(
        &txn,
        rel,
        AccessPath::StorageMethod,
        AccessQuery::All,
        None,
        None,
    )
    .unwrap();
    assert_eq!(db.scans().open_count(id), 1);
    db.commit(&txn).unwrap();
    assert_eq!(db.scans().open_count(id), 0, "closed at termination");
}

#[test]
fn heap_update_relocation_on_growth() {
    let db = open_db();
    let rel = db
        .with_txn(|txn| {
            db.create_relation(
                txn,
                "t",
                Schema::new(vec![
                    ColumnDef::not_null("id", DataType::Int),
                    ColumnDef::not_null("blob", DataType::Str),
                ])
                .unwrap(),
                "heap",
                &AttrList::new(),
            )
        })
        .unwrap();
    // Fill a page almost to capacity, then grow one record far beyond the
    // page's free space: the heap must relocate it under a new RID.
    let big = "y".repeat(3000);
    let keys = db
        .with_txn(|txn| {
            (0..2)
                .map(|i| {
                    db.insert(
                        txn,
                        rel,
                        Record::new(vec![Value::Int(i), Value::Str(big.clone())]),
                    )
                })
                .collect::<Result<Vec<_>>>()
        })
        .unwrap();
    let huge = "z".repeat(6000);
    db.with_txn(|txn| {
        let nk = db.update(
            txn,
            rel,
            &keys[0],
            Record::new(vec![Value::Int(0), Value::Str(huge.clone())]),
        )?;
        assert_ne!(nk, keys[0], "record relocated");
        let row = db.fetch(txn, rel, &nk, Some(&[1]), None)?.unwrap();
        assert_eq!(row[0].as_str()?.len(), 6000);
        assert!(db.fetch(txn, rel, &keys[0], None, None)?.is_none());
        Ok(())
    })
    .unwrap();
}
