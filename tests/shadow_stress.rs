//! Randomized stress: a long mixed workload (inserts, updates, deletes,
//! savepoints, partial rollbacks, aborts, commits, vetoes, crashes) run
//! against the full stack — heap storage method + unique B-tree index +
//! check constraint — and checked after every transaction boundary
//! against a shadow model. This is the dispatcher/recovery equivalent of
//! the per-structure property tests.

// Examples and integration-test harnesses are exempt from the runtime
// panic discipline: failures here should abort loudly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod support;

use std::collections::BTreeMap;
use std::sync::Arc;

use starburst_dmx::prelude::*;
use starburst_dmx::query::SqlExt;
use starburst_dmx::types::testrng::TestRng;
use support::{fresh, reopen};

/// The expected rows of the committed state and of the open transaction,
/// with a savepoint stack: `support::Tables` is one state of the rows
/// and has no savepoints to roll back to, so this model stays.
struct Shadow {
    committed: BTreeMap<i64, i64>,
    /// overlay for the open transaction
    working: BTreeMap<i64, i64>,
    /// savepoint stack of overlays
    saves: Vec<BTreeMap<i64, i64>>,
}

impl Shadow {
    fn new() -> Shadow {
        Shadow {
            committed: BTreeMap::new(),
            working: BTreeMap::new(),
            saves: Vec::new(),
        }
    }
    fn begin(&mut self) {
        self.working = self.committed.clone();
        self.saves.clear();
    }
    fn commit(&mut self) {
        self.committed = self.working.clone();
        self.saves.clear();
    }
    fn abort(&mut self) {
        self.working = self.committed.clone();
        self.saves.clear();
    }
    fn savepoint(&mut self) {
        self.saves.push(self.working.clone());
    }
    fn rollback_to_savepoint(&mut self) {
        if let Some(s) = self.saves.pop() {
            self.working = s;
        }
    }
}

/// Reads the full visible state through BOTH access paths and checks they
/// agree with each other and the expectation.
fn verify(db: &Arc<Database>, sess: &starburst_dmx::prelude::Session, expect: &BTreeMap<i64, i64>) {
    let via_scan: BTreeMap<i64, i64> = sess
        .execute("SELECT id, v FROM t")
        .unwrap()
        .rows
        .into_iter()
        .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
        .collect();
    assert_eq!(&via_scan, expect, "storage-method scan state diverged");
    // through the index path (ordered by id)
    let rd = db.catalog().get_by_name("t").unwrap();
    let (t, inst) = rd.find_attachment("t_pk").unwrap();
    let txn = db.begin();
    let scan = db
        .open_scan(
            &txn,
            rd.id,
            AccessPath::Attachment(t, inst.instance),
            AccessQuery::All,
            None,
            None,
        )
        .unwrap();
    let mut via_index = BTreeMap::new();
    while let Some(item) = db.scan_next(&txn, scan).unwrap() {
        let row = db
            .fetch(&txn, rd.id, &item.key, None, None)
            .unwrap()
            .unwrap();
        via_index.insert(row[0].as_int().unwrap(), row[1].as_int().unwrap());
    }
    db.commit(&txn).unwrap();
    assert_eq!(&via_index, expect, "index state diverged");
}

#[test]
fn randomized_workload_matches_shadow_model() {
    for seed in [7u64, 99, 20260706] {
        let (env, mut db) = fresh();
        db.execute_sql("CREATE TABLE t (id INT NOT NULL, v INT NOT NULL)")
            .unwrap();
        db.execute_sql("CREATE UNIQUE INDEX t_pk ON t (id)")
            .unwrap();
        // ids must stay below 1000 — inserting above is a veto
        db.execute_sql("CREATE CONSTRAINT cap ON t CHECK (id < 1000)")
            .unwrap();

        let mut sess = Session::new(db.clone());
        let mut shadow = Shadow::new();
        let mut rng = TestRng::new(seed);
        let mut in_txn = false;

        for step in 0..400 {
            if !in_txn {
                sess.execute("BEGIN").unwrap();
                shadow.begin();
                in_txn = true;
            }
            match rng.below(100) {
                // insert (maybe duplicate → unique veto; maybe ≥1000 → check veto)
                0..=39 => {
                    let id = rng.below(60) as i64 + if rng.below(20) == 0 { 1000 } else { 0 };
                    let v = rng.below(1_000_000) as i64;
                    let r = sess.execute(&format!("INSERT INTO t VALUES ({id}, {v})"));
                    let dup = shadow.working.contains_key(&id);
                    if id >= 1000 || dup {
                        assert!(
                            matches!(r, Err(DmxError::Veto { .. })),
                            "step {step}: expected veto for id={id} dup={dup}, got {r:?}"
                        );
                    } else {
                        r.unwrap();
                        shadow.working.insert(id, v);
                    }
                }
                // update
                40..=59 => {
                    let id = rng.below(60) as i64;
                    let v = rng.below(1_000_000) as i64;
                    let res = sess
                        .execute(&format!("UPDATE t SET v = {v} WHERE id = {id}"))
                        .unwrap();
                    let n = res.rows[0][0].as_int().unwrap();
                    if let std::collections::btree_map::Entry::Occupied(mut e) =
                        shadow.working.entry(id)
                    {
                        assert_eq!(n, 1, "step {step}");
                        e.insert(v);
                    } else {
                        assert_eq!(n, 0, "step {step}");
                    }
                }
                // delete
                60..=74 => {
                    let id = rng.below(60) as i64;
                    let res = sess
                        .execute(&format!("DELETE FROM t WHERE id = {id}"))
                        .unwrap();
                    let n = res.rows[0][0].as_int().unwrap();
                    assert_eq!(
                        n,
                        shadow.working.remove(&id).map(|_| 1).unwrap_or(0),
                        "step {step}"
                    );
                }
                // savepoint / partial rollback
                75..=79 => {
                    sess.execute("SAVEPOINT sp").unwrap();
                    shadow.savepoint();
                }
                80..=84 => {
                    if shadow.saves.is_empty() {
                        continue;
                    }
                    sess.execute("ROLLBACK TO SAVEPOINT sp").unwrap();
                    shadow.rollback_to_savepoint();
                }
                // abort
                85..=89 => {
                    sess.execute("ROLLBACK").unwrap();
                    shadow.abort();
                    in_txn = false;
                    verify(&db, &sess, &shadow.committed);
                }
                // commit
                90..=96 => {
                    sess.execute("COMMIT").unwrap();
                    shadow.commit();
                    in_txn = false;
                    verify(&db, &sess, &shadow.committed);
                }
                // crash + restart (uncommitted work is lost)
                _ => {
                    drop(sess);
                    shadow.abort();
                    in_txn = false;
                    drop(db);
                    db = reopen(&env);
                    sess = Session::new(db.clone());
                    verify(&db, &sess, &shadow.committed);
                }
            }
        }
        if in_txn {
            sess.execute("COMMIT").unwrap();
            shadow.commit();
        }
        verify(&db, &sess, &shadow.committed);
        assert_eq!(db.active_txns(), 0, "seed {seed}: no leaked transactions");
    }
}
