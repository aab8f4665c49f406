//! Crash-restart matrix: the log-driven recovery driver across storage
//! methods, attachments, DDL and deferred physical actions.
//!
//! A "crash" drops every volatile structure (database object, buffer
//! pool, transaction tables) while the simulated disk and the durable log
//! survive; reopening runs restart recovery: committed deferred intents
//! are completed, loser transactions are undone through the same
//! extension-supplied undo operations that serve aborts and savepoints.

// Examples and integration-test harnesses are exempt from the runtime
// panic discipline: failures here should abort loudly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use starburst_dmx::prelude::*;
use starburst_dmx::query::SqlExt;

fn reopen(env: &DatabaseEnv) -> Arc<Database> {
    starburst_dmx::open_env(env.clone(), DatabaseConfig::default()).unwrap()
}

fn fresh() -> (DatabaseEnv, Arc<Database>) {
    let env = DatabaseEnv::fresh();
    let db = reopen(&env);
    (env, db)
}

#[test]
fn committed_ddl_and_data_survive_repeated_crashes() {
    let (env, db) = fresh();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, v STRING)")
        .unwrap();
    db.execute_sql("CREATE UNIQUE INDEX t_pk ON t (id)")
        .unwrap();
    for i in 0..500 {
        db.execute_sql(&format!("INSERT INTO t VALUES ({i}, 'v{i}')"))
            .unwrap();
    }
    drop(db);
    // crash and reopen three times; state must be identical every time
    for round in 0..3 {
        let db = reopen(&env);
        let n = db.query_sql("SELECT COUNT(*) FROM t").unwrap()[0][0]
            .as_int()
            .unwrap();
        assert_eq!(n, 500, "round {round}");
        // keyed access through the recovered index
        let rows = db.query_sql("SELECT v FROM t WHERE id = 321").unwrap();
        assert_eq!(rows, vec![vec![Value::from("v321")]]);
        drop(db);
    }
}

#[test]
fn losers_across_every_storage_method_are_undone() {
    let (env, db) = fresh();
    db.execute_sql("CREATE TABLE h (id INT NOT NULL)").unwrap();
    db.execute_sql("CREATE TABLE b (id INT NOT NULL) USING btree WITH (key=id)")
        .unwrap();
    db.execute_sql("CREATE TABLE w (id INT NOT NULL) USING readonly")
        .unwrap();
    for i in 0..10 {
        db.execute_sql(&format!("INSERT INTO h VALUES ({i})"))
            .unwrap();
        db.execute_sql(&format!("INSERT INTO b VALUES ({i})"))
            .unwrap();
        db.execute_sql(&format!("INSERT INTO w VALUES ({i})"))
            .unwrap();
    }
    // in-flight work on all three relations, never committed
    let txn = db.begin();
    for rel in ["h", "b"] {
        let rd = db.catalog().get_by_name(rel).unwrap();
        for i in 100..110 {
            db.insert(&txn, rd.id, Record::new(vec![Value::Int(i)]))
                .unwrap();
        }
    }
    let wrd = db.catalog().get_by_name("w").unwrap();
    db.insert(&txn, wrd.id, Record::new(vec![Value::Int(777)]))
        .unwrap();
    // force the log so the loser's records are durable (makes restart
    // actually exercise idempotent undo rather than just dropping a tail)
    db.services().log.force_all().unwrap();
    drop(txn);
    drop(db); // crash

    let db = reopen(&env);
    for rel in ["h", "b", "w"] {
        let n = db
            .query_sql(&format!("SELECT COUNT(*) FROM {rel}"))
            .unwrap()[0][0]
            .as_int()
            .unwrap();
        assert_eq!(n, 10, "{rel}: loser insertions undone at restart");
    }
}

#[test]
fn deferred_drop_completes_after_crash_at_commit_point() {
    // Drop a relation, commit, then crash BEFORE the deferred physical
    // release would normally be marked done: restart must re-drive the
    // intent (idempotently) and the relation must stay gone.
    let (env, db) = fresh();
    db.execute_sql("CREATE TABLE doomed (id INT NOT NULL)")
        .unwrap();
    db.execute_sql("CREATE INDEX di ON doomed (id)").unwrap();
    db.execute_sql("INSERT INTO doomed VALUES (1)").unwrap();
    db.execute_sql("DROP TABLE doomed").unwrap();
    drop(db);
    let db = reopen(&env);
    assert!(db.catalog().get_by_name("doomed").is_err());
    // and again: restart is idempotent
    drop(db);
    let db = reopen(&env);
    assert!(db.catalog().get_by_name("doomed").is_err());
    // the dropped name can be reused
    db.execute_sql("CREATE TABLE doomed (x INT)").unwrap();
    db.execute_sql("INSERT INTO doomed VALUES (9)").unwrap();
}

#[test]
fn uncommitted_ddl_vanishes_at_restart() {
    let (env, db) = fresh();
    db.execute_sql("CREATE TABLE keep (id INT NOT NULL)")
        .unwrap();
    // uncommitted CREATE + uncommitted DROP of another table
    let txn = db.begin();
    db.create_relation(
        &txn,
        "phantom",
        Schema::new(vec![ColumnDef::not_null("x", DataType::Int)]).unwrap(),
        "heap",
        &AttrList::new(),
    )
    .unwrap();
    db.drop_relation(&txn, "keep").unwrap();
    drop(txn);
    drop(db); // crash with the DDL transaction in flight

    let db = reopen(&env);
    assert!(
        db.catalog().get_by_name("phantom").is_err(),
        "uncommitted CREATE gone"
    );
    assert!(
        db.catalog().get_by_name("keep").is_ok(),
        "uncommitted DROP rolled back"
    );
}

#[test]
fn attachments_and_aggregates_recover_consistently() {
    let (env, db) = fresh();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, grp INT NOT NULL, amt FLOAT)")
        .unwrap();
    db.execute_sql("CREATE INDEX t_grp ON t (grp)").unwrap();
    db.execute_sql("CREATE ATTACHMENT sums ON t USING aggregate WITH (sum = amt, group_by = grp)")
        .unwrap();
    for i in 0..60 {
        db.execute_sql(&format!(
            "INSERT INTO t VALUES ({i}, {}, {:.1})",
            i % 3,
            i as f64
        ))
        .unwrap();
    }
    // loser transaction touching both index and aggregate
    let txn = db.begin();
    let rd = db.catalog().get_by_name("t").unwrap();
    for i in 100..120 {
        db.insert(
            &txn,
            rd.id,
            Record::new(vec![Value::Int(i), Value::Int(0), Value::Float(1000.0)]),
        )
        .unwrap();
    }
    db.services().log.force_all().unwrap();
    drop(txn);
    drop(db); // crash

    let db = reopen(&env);
    // index agrees with the relation
    let via_index = db
        .query_sql("SELECT COUNT(*) FROM t WHERE grp = 0")
        .unwrap()[0][0]
        .as_int()
        .unwrap();
    assert_eq!(via_index, 20);
    // maintained aggregates agree with recomputation
    let rd = db.catalog().get_by_name("t").unwrap();
    let (at, inst) = rd.find_attachment("sums").unwrap();
    let txn = db.begin();
    let scan = db
        .open_scan(
            &txn,
            rd.id,
            AccessPath::Attachment(at, inst.instance),
            AccessQuery::All,
            None,
            None,
        )
        .unwrap();
    let mut total_count = 0i64;
    while let Some(item) = db.scan_next(&txn, scan).unwrap() {
        let v = item.values.unwrap();
        total_count += v[1].as_int().unwrap();
        assert!(
            v[2].as_float().unwrap() < 2000.0,
            "rolled-back 1000.0 deltas absent"
        );
    }
    db.commit(&txn).unwrap();
    assert_eq!(total_count, 60);
}

/// A committed `CREATE` of every tree-backed extension survives a crash
/// that no checkpoint precedes: the unlogged root-page bootstrap has to
/// be on disk when the DDL commits, because restart replays the
/// extension's log records against it.
#[test]
fn committed_create_of_every_tree_backed_extension_survives_a_crash() {
    const T: &str = "CREATE TABLE t (id INT NOT NULL, v INT NOT NULL, area RECT)";
    let cases: [(&str, &[&str]); 7] = [
        (
            "btree storage",
            &[
                "CREATE TABLE t (id INT NOT NULL, v INT NOT NULL, area RECT) \
               USING btree WITH (key = id)",
            ],
        ),
        ("btree index", &[T, "CREATE INDEX t_x ON t (v)"]),
        ("hash index", &[T, "CREATE INDEX t_x ON t USING hash (v)"]),
        (
            "aggregate",
            &[
                T,
                "CREATE ATTACHMENT t_x ON t USING aggregate WITH (sum = v, group_by = v)",
            ],
        ),
        ("stats", &[T, "CREATE ATTACHMENT t_x ON t USING stats"]),
        ("rtree", &[T, "CREATE INDEX t_x ON t USING rtree (area)"]),
        (
            "join index",
            &[
                T,
                "CREATE TABLE u (id INT NOT NULL)",
                "CREATE ATTACHMENT tu ON t USING joinindex WITH (side=left, fields=v)",
                "CREATE ATTACHMENT tu ON u USING joinindex WITH (side=right, fields=id, other=t)",
                "INSERT INTO u VALUES (0), (1), (2)",
            ],
        ),
    ];
    for (what, ddl) in cases {
        let (env, db) = fresh();
        for stmt in ddl {
            db.execute_sql(stmt).unwrap();
        }
        for i in 0..50 {
            db.execute_sql(&format!(
                "INSERT INTO t VALUES ({i}, {}, RECT({i}, {i}, {}, {}))",
                i % 5,
                i + 1,
                i + 2
            ))
            .unwrap();
        }
        // Crash: not even the clean-shutdown checkpoint runs.
        std::mem::forget(db);
        let db = reopen(&env);
        assert_eq!(db.quarantined(), vec![], "{what}");
        let n = db.query_sql("SELECT COUNT(*) FROM t").unwrap()[0][0]
            .as_int()
            .unwrap();
        assert_eq!(n, 50, "{what}");
    }
}

/// Rolled-back heap work under steal: a pool of four frames writes back
/// dirty pages while a transaction still runs, so the rollback finds
/// some of its changes already on disk. The undo rewrites those pages in
/// the pool, the log is forced by a later commit, and the process dies
/// without a checkpoint: restart has only the stolen images and the log
/// to go on.
mod undone_under_steal {
    use super::*;
    use starburst_dmx::txn::Transaction;

    /// Four committed rows in a four-frame pool.
    pub fn setup() -> (DatabaseEnv, Arc<Database>, RelationId) {
        let env = DatabaseEnv::fresh();
        let config = DatabaseConfig {
            pool_frames: 4,
            ..DatabaseConfig::default()
        };
        let db = starburst_dmx::open_env(env.clone(), config).unwrap();
        db.execute_sql("CREATE TABLE s (id INT NOT NULL, v STRING)")
            .unwrap();
        for i in 0..4 {
            db.execute_sql(&format!("INSERT INTO s VALUES ({i}, 'v{i}')"))
                .unwrap();
        }
        let rel = db.catalog().get_by_name("s").unwrap().id;
        (env, db, rel)
    }

    /// Rows wide enough that two hundred of them span a dozen pages.
    pub fn insert_wide(
        db: &Arc<Database>,
        txn: &Arc<Transaction>,
        rel: RelationId,
        ids: std::ops::Range<i64>,
    ) {
        for i in ids {
            let row = Record::new(vec![Value::Int(i), Value::from("p".repeat(400))]);
            db.insert(txn, rel, row).unwrap();
        }
    }

    /// Crashes `db` — no checkpoint, the pool's dirty pages lost — and
    /// returns the ids a reopen finds.
    pub fn crash_and_reopen(env: &DatabaseEnv, db: Arc<Database>) -> Vec<i64> {
        assert!(
            db.metrics_snapshot().counter("pool.steals") > 0,
            "the pool never stole a page: the case proves nothing"
        );
        std::mem::forget(db);
        let db = reopen(env);
        let mut ids: Vec<i64> = db
            .query_sql("SELECT id FROM s")
            .unwrap()
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        ids.sort_unstable();
        ids
    }
}

#[test]
fn an_aborted_transactions_stolen_inserts_stay_undone_after_a_crash() {
    use undone_under_steal::*;
    let (env, db, rel) = setup();
    let txn = db.begin();
    insert_wide(&db, &txn, rel, 100..300);
    db.abort(&txn).unwrap();
    // An autocommit statement forces the log past the abort.
    db.execute_sql("INSERT INTO s VALUES (4, 'v4')").unwrap();
    assert_eq!(crash_and_reopen(&env, db), vec![0, 1, 2, 3, 4]);
}

#[test]
fn inserts_rolled_back_to_a_savepoint_stay_undone_after_a_crash() {
    use undone_under_steal::*;
    let (env, db, rel) = setup();
    let txn = db.begin();
    insert_wide(&db, &txn, rel, 4..5);
    db.savepoint(&txn, "sp").unwrap();
    insert_wide(&db, &txn, rel, 100..300);
    db.rollback_to_savepoint(&txn, "sp").unwrap();
    db.commit(&txn).unwrap();
    assert_eq!(crash_and_reopen(&env, db), vec![0, 1, 2, 3, 4]);
}

#[test]
fn a_delete_rolled_back_to_a_savepoint_stays_undone_after_a_crash() {
    use undone_under_steal::*;
    let (env, db, rel) = setup();
    let key = {
        let txn = db.begin();
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
        let first = db.scan_next(&txn, scan).unwrap().unwrap().key;
        db.commit(&txn).unwrap();
        first
    };
    let txn = db.begin();
    db.savepoint(&txn, "sp").unwrap();
    db.delete(&txn, rel, &key).unwrap();
    // Enough pages behind it that the deleted row's page is stolen.
    insert_wide(&db, &txn, rel, 100..300);
    db.rollback_to_savepoint(&txn, "sp").unwrap();
    db.commit(&txn).unwrap();
    assert_eq!(crash_and_reopen(&env, db), vec![0, 1, 2, 3]);
}

/// Restart repeats an aborted transaction's compensations in log order,
/// after the redo of a winner that wrote the same page in between: the
/// page then carries a later LSN than the undone update, but not the row
/// whose insert came before it — there is nothing to take back, and
/// restart goes on.
#[test]
fn a_repeated_undo_finds_nothing_where_its_insert_was_never_redone() {
    let (env, db) = fresh();
    db.execute_sql("CREATE TABLE s (id INT NOT NULL, v INT NOT NULL)")
        .unwrap();
    let rel = db.catalog().get_by_name("s").unwrap().id;
    let row = |id: i64, v: i64| Record::new(vec![Value::Int(id), Value::Int(v)]);
    let txn = db.begin();
    let key = db.insert(&txn, rel, row(1, 1)).unwrap();
    db.update(&txn, rel, &key, row(1, 2)).unwrap();
    db.execute_sql("INSERT INTO s VALUES (2, 2)").unwrap();
    db.abort(&txn).unwrap();
    db.execute_sql("INSERT INTO s VALUES (3, 3)").unwrap();
    std::mem::forget(db);
    let db = reopen(&env);
    let rows = db.query_sql("SELECT id FROM s").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(2)], vec![Value::Int(3)]]);
}

#[test]
fn transaction_ids_never_repeat_across_restarts() {
    // The id allocator resumes past the highest txn id recorded in the
    // durable log. Read-only transactions append nothing (DESIGN.md §6:
    // lazy Begin means they leave no trace, keeping reopen a pure read),
    // so the never-repeat guarantee is scoped to transactions that
    // logged — the only ones recovery can ever encounter. The probe
    // transaction therefore writes a row before committing.
    let (env, db) = fresh();
    db.execute_sql("CREATE TABLE t (x INT)").unwrap();
    let rd = db.catalog().get_by_name("t").unwrap();
    let last_before = {
        let t = db.begin();
        let id = t.id();
        db.insert(&t, rd.id, Record::new(vec![Value::Int(1)]))
            .unwrap();
        db.commit(&t).unwrap();
        id
    };
    drop(db);
    let db = reopen(&env);
    let t = db.begin();
    assert!(t.id() > last_before, "restart continues the id sequence");
    db.commit(&t).unwrap();
}
