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

mod support;

use std::sync::atomic::Ordering;
use std::sync::Arc;

use starburst_dmx::attach::join_index::JoinIndex;
use starburst_dmx::prelude::*;
use starburst_dmx::query::SqlExt;
use starburst_dmx::types::{FileId, Lsn, PageId};
use starburst_dmx::wal::LogBody;
use support::{fresh, kit, open, reopen};

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
    let mut total_count = 0i64;
    for v in support::attachment_items(&db, "t", "sums") {
        total_count += v[1].as_int().unwrap();
        assert!(
            v[2].as_float().unwrap() < 2000.0,
            "rolled-back 1000.0 deltas absent"
        );
    }
    assert_eq!(total_count, 60);
}

/// A committed `CREATE` of every tree-backed extension (every kit entry
/// with replay facts) survives a crash that no checkpoint precedes: the unlogged root-page bootstrap has to
/// be on disk when the DDL commits, because restart replays the
/// extension's log records against it.
#[test]
fn committed_create_of_every_tree_backed_extension_survives_a_crash() {
    for (entry, _) in kit::running(|e| &e.replay) {
        let (env, db) = fresh();
        kit::build(&db, [entry]);
        db.execute_sql("INSERT INTO u VALUES (0), (1), (2)")
            .unwrap();
        for i in 0..50 {
            db.execute_sql(&kit::insert_sql("t", &kit::row(i))).unwrap();
        }
        // Crash: not even the clean-shutdown checkpoint runs.
        std::mem::forget(db);
        let db = reopen(&env);
        let what = entry.name;
        assert_eq!(db.quarantined(), vec![], "{what}");
        let n = db.query_sql("SELECT COUNT(*) FROM t").unwrap()[0][0]
            .as_int()
            .unwrap();
        assert_eq!(n, 50, "{what}");
    }
}

/// A rollback stamps the page it changes with its CLR's LSN. A heap undo
/// that changed the page without that stamp recovers the same rows, since
/// restart's presence checks make a repeated undo a no-op, so no crash
/// sweep sees it; the stamp is what lets restart skip a compensation the
/// page already holds, and it is checked here directly.
#[test]
fn a_rolled_back_insert_leaves_its_page_stamped_with_its_clr() {
    let (env, db) = fresh();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL)").unwrap();
    db.execute_sql("INSERT INTO t VALUES (1)").unwrap();
    let rel = db.catalog().get_by_name("t").unwrap().id;
    let txn = db.begin();
    db.insert(&txn, rel, Record::new(vec![Value::Int(2)]))
        .unwrap();
    db.abort(&txn).unwrap();
    drop(db); // a clean close writes every page back
    let log = &env.stable_log;
    let clr = (1..=log.len() as u64)
        .rev()
        .map(|i| log.record(Lsn(i)).unwrap())
        .find(|r| matches!(r.body, LogBody::Clr { .. }))
        .expect("the abort logged a CLR")
        .lsn;
    let mut page = starburst_dmx::page::Page::new();
    env.disk
        .read_page(PageId::new(FileId(2), 0), &mut page)
        .unwrap();
    assert!(
        page.lsn() >= clr,
        "heap page at {:?}, its CLR at {clr:?}",
        page.lsn()
    );
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
        let db = open(&env, config);
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

/// Each write's operations share a record — the heap's change and its
/// index entry and aggregate cell — but a cascade inside it (a trigger's
/// audit insert) is a modification of its own: it closes the record, logs
/// its own, and the write goes on in a third. A veto inside the cascade
/// takes back the cascade's record, then the write's, each to its own
/// boundary. A crash keeps every committed write whole and takes back
/// every loser's.
#[test]
fn a_cascade_splits_its_modifications_record_and_both_recover_whole() {
    let (env, db) = fresh();
    for ddl in [
        "CREATE TABLE audit (event STRING NOT NULL, relation STRING NOT NULL, info STRING)",
        "CREATE INDEX audit_rel ON audit (relation)",
        "CREATE UNIQUE INDEX audit_info ON audit (info)",
        "CREATE TABLE w (id INT NOT NULL, grp INT NOT NULL)",
        "CREATE INDEX w_id ON w (id)",
        "CREATE ATTACHMENT w_sum ON w USING aggregate WITH (sum = id, group_by = grp)",
        "CREATE ATTACHMENT w_aud ON w USING trigger WITH (on = insert, action = 'audit:audit')",
    ] {
        db.execute_sql(ddl).unwrap();
    }
    let w = db.catalog().get_by_name("w").unwrap().id;
    let row = |i: i64| Record::new(vec![Value::Int(i), Value::Int(i % 3)]);
    let frames = || db.metrics_snapshot().counter("wal.appends");
    let before = frames();
    db.with_txn(|txn| {
        for i in 0..40 {
            db.insert(txn, w, row(i))?;
        }
        // A second row 7 audits what the first did: the audit's unique
        // index vetoes it inside the cascade, after the write's heap
        // change and index entry.
        assert!(db.insert(txn, w, row(7)).is_err());
        Ok(())
    })
    .unwrap();
    // Begin and Commit; three records a write — [heap, w_id], the
    // audit's [heap, audit_rel, audit_info], [w_sum] — and for the vetoed
    // one [heap, w_id], the audit's [heap, audit_rel] and a CLR for each.
    assert_eq!(frames() - before, 2 + 3 * 40 + 4);
    let loser = db.begin();
    for i in 100..110 {
        db.insert(&loser, w, row(i)).unwrap();
    }
    db.services().log.force_all().unwrap();
    std::mem::forget(db);

    let db = reopen(&env);
    assert_eq!(db.quarantined(), vec![]);
    assert_eq!(count(&db, "w"), 40);
    assert_eq!(count(&db, "audit"), 40);
    let audited = db
        .query_sql("SELECT COUNT(*) FROM audit WHERE relation = 'w'")
        .unwrap();
    assert_eq!(audited, vec![vec![Value::Int(40)]]);
    assert_eq!(rows_by_id(&db, [7, 39, 105]), [1, 1, 0]);
    assert_eq!(rows_in_cells(&db, "w", "w_sum"), 40);
}

/// How many rows of `w` hold each id, through its index.
fn rows_by_id<const N: usize>(db: &Arc<Database>, ids: [i64; N]) -> [usize; N] {
    ids.map(|id| {
        let sql = format!("SELECT grp FROM w WHERE id = {id}");
        db.query_sql(&sql).unwrap().len()
    })
}

/// The rows the cells of aggregate `att` on `table` count.
fn rows_in_cells(db: &Arc<Database>, table: &str, att: &str) -> i64 {
    support::attachment_items(db, table, att)
        .iter()
        .map(|cell| cell[1].as_int().unwrap())
        .sum()
}

/// A force inside a modification — what a steal writing back a page the
/// modification dirtied does; here a trigger hook forces the log between
/// the write's index entry and its aggregate cell — seals the record it
/// took: the cell goes into a record of its own, never into a frame
/// already durable without it. A crash keeps the winner's writes whole
/// and takes back the loser's, whose last cell never reached the log.
#[test]
fn a_force_inside_a_modification_seals_its_record() {
    let (env, db) = fresh();
    let force: starburst_dmx::core::HookFn = Arc::new(|ctx, _| ctx.services().log.force_all());
    db.register_hook("force", force);
    for ddl in [
        "CREATE TABLE w (id INT NOT NULL, grp INT NOT NULL)",
        "CREATE INDEX w_id ON w (id)",
        "CREATE ATTACHMENT w_force ON w USING trigger WITH (on = insert, action = 'hook:force')",
        "CREATE ATTACHMENT w_sum ON w USING aggregate WITH (sum = id, group_by = grp)",
    ] {
        db.execute_sql(ddl).unwrap();
    }
    let w = db.catalog().get_by_name("w").unwrap().id;
    let row = |i: i64| Record::new(vec![Value::Int(i), Value::Int(i % 3)]);
    let frames = || db.metrics_snapshot().counter("wal.appends");
    let before = frames();
    db.with_txn(|txn| {
        for i in 0..20 {
            db.insert(txn, w, row(i))?;
        }
        Ok(())
    })
    .unwrap();
    // Begin and Commit, and two records a write: [heap, w_id], forced
    // by the hook, then [w_sum].
    assert_eq!(frames() - before, 2 + 2 * 20);
    let loser = db.begin();
    for i in 100..105 {
        db.insert(&loser, w, row(i)).unwrap();
    }
    std::mem::forget(db);

    let db = reopen(&env);
    assert_eq!(db.quarantined(), vec![]);
    assert_eq!(count(&db, "w"), 20);
    assert_eq!(rows_by_id(&db, [0, 19, 100, 104]), [1, 1, 0, 0]);
    assert_eq!(rows_in_cells(&db, "w", "w_sum"), 20);
}

/// An aborted transaction's insert and update share a page with a
/// winner's insert made between them. Restart repeats history: it redoes
/// all three in log order, then repeats the aborted transaction's
/// compensations, which take its row back out. Only the winners' rows
/// remain.
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

fn count(db: &Arc<Database>, table: &str) -> i64 {
    db.query_sql(&format!("SELECT COUNT(*) FROM {table}"))
        .unwrap()[0][0]
        .as_int()
        .unwrap()
}

/// The catalog's root page (file 1, page 0) as the disk holds it.
fn catalog_page(env: &DatabaseEnv) -> Vec<u8> {
    use starburst_dmx::types::{FileId, PageId};
    let mut page = starburst_dmx::page::Page::new();
    env.disk
        .read_page(PageId::new(FileId(1), 0), &mut page)
        .unwrap();
    page.raw().to_vec()
}

/// Restart order (a): a committed CREATE whose catalog page never
/// reached disk comes back with its rows — in LSN order, the catalog
/// record that enters the relation comes before the rows that need it.
#[test]
fn a_committed_create_whose_catalog_page_never_reached_disk_keeps_its_rows() {
    let (env, db) = fresh();
    let empty = catalog_page(&env);
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, v STRING)")
        .unwrap();
    for i in 0..20 {
        db.execute_sql(&format!("INSERT INTO t VALUES ({i}, 'v{i}')"))
            .unwrap();
    }
    assert_eq!(
        catalog_page(&env),
        empty,
        "the catalog page stayed in the pool"
    );
    std::mem::forget(db);
    assert_eq!(
        support::recover(&env, &DatabaseConfig::default(), "restart", |db, _| count(
            db, "t"
        )),
        20
    );
}

/// Restart order (b): a DROP that crashed before its commit point leaves
/// the relation and the rows committed before it. Had the dropping
/// transaction's catalog page reached disk, restart would find no
/// relation to replay those rows into.
#[test]
fn an_uncommitted_drop_leaves_the_relation_and_its_committed_rows() {
    let (env, db) = fresh();
    db.execute_sql("CREATE TABLE r (id INT NOT NULL)").unwrap();
    for i in 0..20 {
        db.execute_sql(&format!("INSERT INTO r VALUES ({i})"))
            .unwrap();
    }
    let txn = db.begin();
    db.drop_relation(&txn, "r").unwrap();
    db.services().log.force_all().unwrap();
    std::mem::forget(txn);
    std::mem::forget(db);
    assert_eq!(
        support::recover(&env, &DatabaseConfig::default(), "restart", |db, _| count(
            db, "r"
        )),
        20
    );
}

/// Restart order (c): a committed DROP whose release ran but whose
/// completion records never reached the log. Restart repeats the
/// relation's history — its catalog record enters it again, its rows find
/// their files gone and change nothing, the DROP removes it — and
/// releases again: the files are gone already.
#[test]
fn a_committed_drop_whose_release_was_not_logged_done_stays_dropped() {
    let (env, db) = fresh();
    db.execute_sql("CREATE TABLE r (id INT NOT NULL)").unwrap();
    db.execute_sql("CREATE INDEX r_id ON r (id)").unwrap();
    for i in 0..20 {
        db.execute_sql(&format!("INSERT INTO r VALUES ({i})"))
            .unwrap();
    }
    let rd = db.catalog().get_by_name("r").unwrap();
    let mut files = db
        .registry()
        .storage(rd.sm)
        .unwrap()
        .storage_files(&rd.sm_desc);
    for (att, insts) in rd.attached_types() {
        let att = db.registry().attachment(att).unwrap();
        files.extend(insts.iter().flat_map(|i| att.storage_files(&i.desc)));
    }
    assert_eq!(files.len(), 2);
    db.execute_sql("DROP TABLE r").unwrap();
    let durable = env.stable_log.len() as u64;
    assert!(
        db.services().log.last_lsn().0 > durable,
        "completions unforced"
    );
    assert!(files.iter().all(|&f| !env.disk.file_exists(f)), "released");
    std::mem::forget(db);
    support::recover(&env, &DatabaseConfig::default(), "restart", |db, at| {
        assert!(db.catalog().get_by_name("r").is_err(), "{at}");
        assert_eq!(db.quarantined(), vec![], "{at}");
        assert!(files.iter().all(|&f| !env.disk.file_exists(f)), "{at}");
    });
    let db = reopen(&env);
    db.execute_sql("CREATE TABLE r (id INT NOT NULL)").unwrap();
    assert_eq!(count(&db, "r"), 0);
}

/// Restart order (d): DDL taken back inside a transaction that then
/// commits — a vetoed CREATE UNIQUE INDEX build, a DROP INDEX rolled
/// back to a savepoint,
/// and — each rolled back to a savepoint of its own — a CREATE INDEX
/// and a first ANALYZE built over a populated table. The log's undo
/// takes all of it back, catalog records included, and restart repeats
/// those compensations; a build logged no entry to undo, so undoing the
/// catalog record that entered its instance releases the instance. The
/// descriptor, `sys.attachments`, `sys.statistics`, the plan and the
/// number of files on disk are what they were, before the crash and
/// after it, and the index works.
#[test]
fn ddl_taken_back_inside_a_committed_transaction_stays_taken_back() {
    let (env, db) = fresh();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, v INT, pad STRING)")
        .unwrap();
    db.execute_sql("CREATE INDEX t_v ON t (v)").unwrap();
    db.execute_sql("INSERT INTO t VALUES (1, 1, 'a'), (1, 2, 'b')")
        .unwrap();
    let rel = db.catalog().get_by_name("t").unwrap().id;
    db.with_txn(|txn| {
        (10..400).try_for_each(|i| {
            db.insert(
                txn,
                rel,
                Record::new(vec![
                    Value::Int(i),
                    Value::Int(1000 + i),
                    Value::from("p".repeat(200)),
                ]),
            )
            .map(drop)
        })
    })
    .unwrap();
    let state = |db: &Arc<Database>| {
        let rd = db.catalog().get_by_name("t").unwrap();
        let insts: Vec<_> = rd
            .attached_types()
            .flat_map(|(_, insts)| insts.to_vec())
            .collect();
        let attachments = db.query_sql("SELECT * FROM sys.attachments").unwrap();
        let statistics = db
            .query_sql("SELECT * FROM sys.statistics WHERE relation = 't'")
            .unwrap();
        // The access path only: after a crash the estimate costs with
        // the header's row count (ROADMAP 5(a)).
        let plan = db
            .query_sql("EXPLAIN SELECT v FROM t WHERE id = 7")
            .unwrap();
        let probes_an_index = format!("{plan:?}").contains("via attachment");
        let io = env.disk.stats();
        let files =
            io.files_created.load(Ordering::Relaxed) - io.files_deleted.load(Ordering::Relaxed);
        (
            rd.version,
            insts,
            attachments,
            statistics,
            probes_an_index,
            files,
        )
    };
    let before = state(&db);
    assert!(before.3.is_empty(), "{:?}", before.3);
    assert!(!before.4, "no index on id yet");
    let s = Session::new(db.clone());
    s.execute("BEGIN").unwrap();
    let veto = s.execute("CREATE UNIQUE INDEX t_u ON t (id)").unwrap_err();
    assert!(matches!(veto, DmxError::Veto { .. }), "{veto}");
    for ddl in [
        "DROP INDEX t_v ON t",
        "CREATE INDEX t_id ON t (id)",
        "ANALYZE TABLE t",
    ] {
        s.execute("SAVEPOINT sp").unwrap();
        s.execute(ddl).unwrap();
        let built = state(&db);
        assert_ne!(built, before, "{ddl}");
        assert_eq!(built.4, ddl.contains("t_id"), "{ddl}: the plan");
        s.execute("ROLLBACK TO SAVEPOINT sp").unwrap();
        assert_eq!(state(&db), before, "{ddl} rolled back");
    }
    s.execute("COMMIT").unwrap();
    assert_eq!(state(&db), before);
    drop(s);
    std::mem::forget(db);
    let after = support::recover(&env, &DatabaseConfig::default(), "restart", |db, _| {
        let rows = db.query_sql("SELECT id FROM t WHERE v = 2").unwrap();
        (state(db), rows)
    });
    assert_eq!(after, (before, vec![vec![Value::Int(1)]]));
}

/// A `CREATE TABLE` taken back — rolled back to a savepoint inside a
/// transaction that commits, aborted, or in flight at a crash — leaves
/// no file on disk: undoing the relation's catalog header releases its
/// storage, for every storage method that has files. The live file count
/// is what it was before, after the DDL and after a crash.
#[test]
fn a_create_table_taken_back_leaves_no_file() {
    let (env, db) = fresh();
    let live = |env: &DatabaseEnv| {
        let io = env.disk.stats();
        io.files_created.load(Ordering::Relaxed) - io.files_deleted.load(Ordering::Relaxed)
    };
    db.execute_sql("CREATE TABLE keep (id INT NOT NULL)")
        .unwrap();
    let before = live(&env);
    let using = ["heap", "btree WITH (key=id)", "readonly"];
    let s = Session::new(db.clone());
    s.execute("BEGIN").unwrap();
    for (i, sm) in using.iter().enumerate() {
        s.execute("SAVEPOINT sp").unwrap();
        s.execute(&format!("CREATE TABLE g{i} (id INT NOT NULL) USING {sm}"))
            .unwrap();
        s.execute(&format!("INSERT INTO g{i} VALUES (1), (2)"))
            .unwrap();
        assert!(live(&env) > before, "{sm}: a file to release");
        s.execute("ROLLBACK TO SAVEPOINT sp").unwrap();
        assert_eq!(live(&env), before, "{sm} rolled back");
    }
    s.execute("INSERT INTO keep VALUES (1)").unwrap();
    s.execute("COMMIT").unwrap();
    assert_eq!(live(&env), before);
    s.execute("BEGIN").unwrap();
    s.execute("CREATE TABLE aborted (id INT NOT NULL) USING btree WITH (key=id)")
        .unwrap();
    s.execute("ROLLBACK").unwrap();
    assert_eq!(live(&env), before, "aborted");
    drop(s);
    let txn = db.begin();
    db.create_relation(
        &txn,
        "in_flight",
        Schema::new(vec![ColumnDef::not_null("id", DataType::Int)]).unwrap(),
        "heap",
        &AttrList::new(),
    )
    .unwrap();
    db.services().log.force_all().unwrap();
    std::mem::forget(txn);
    std::mem::forget(db);
    support::recover(&env, &DatabaseConfig::default(), "restart", |db, at| {
        assert_eq!(live(&env), before, "{at}");
        for name in ["g0", "g1", "g2", "aborted", "in_flight"] {
            assert!(db.catalog().get_by_name(name).is_err(), "{at}: {name}");
        }
        assert_eq!(count(db, "keep"), 1, "{at}");
    });
}

/// Restart repeats a dropped relation's history too: after a committed
/// and released `DROP TABLE r`, a `CREATE TABLE s` with rows, then a
/// crash. Restart enters `r` again at its records' time and replays its
/// rows and index entries by file id; a deleted file's id is never handed
/// out again, so they find nothing and none reaches `s`. `s` holds
/// exactly its rows and checks healthy, and the live file count is what
/// it was before the crash.
#[test]
fn a_dropped_relations_replayed_records_reach_no_later_relation() {
    let (env, db) = fresh();
    let live = |env: &DatabaseEnv| {
        let io = env.disk.stats();
        io.files_created.load(Ordering::Relaxed) - io.files_deleted.load(Ordering::Relaxed)
    };
    for t in ["r", "s"] {
        db.execute_sql(&format!("CREATE TABLE {t} (id INT NOT NULL, v STRING)"))
            .unwrap();
        db.execute_sql(&format!("CREATE INDEX {t}_id ON {t} (id)"))
            .unwrap();
        for i in 0..20 {
            db.execute_sql(&format!("INSERT INTO {t} VALUES ({i}, '{t}{i}')"))
                .unwrap();
        }
        if t == "r" {
            db.execute_sql("DROP TABLE r").unwrap();
        }
    }
    let before = live(&env);
    let rows = |db: &Arc<Database>| db.query_sql("SELECT id, v FROM s ORDER BY 1").unwrap();
    let expected = rows(&db);
    assert_eq!(expected.len(), 20);
    std::mem::forget(db);
    support::recover(&env, &DatabaseConfig::default(), "restart", |db, at| {
        assert!(db.catalog().get_by_name("r").is_err(), "{at}");
        assert_eq!(rows(db), expected, "{at}");
        let by_index = db.query_sql("SELECT v FROM s WHERE id = 7").unwrap();
        assert_eq!(by_index, vec![vec![Value::from("s7")]], "{at}");
        let check = db.execute_sql("CHECK TABLE s").unwrap();
        assert_eq!(check.rows[0][2], Value::from("healthy"), "{at}: {check:?}");
        assert_eq!(live(&env), before, "{at}");
        assert_eq!(db.quarantined(), vec![], "{at}");
    });
}

/// A join index's second side adopts the trees its first side made, so
/// its build cannot be released whole: it is logged, and a rollback to a
/// savepoint before it takes its entries back out of the trees, which
/// stay. The three trees hold what they did, before a crash and after.
#[test]
fn a_build_into_adopted_trees_is_taken_back_entry_by_entry() {
    let (env, db) = fresh();
    for sql in [
        "CREATE TABLE emp (id INT NOT NULL, dept INT)",
        "CREATE TABLE dept (id INT NOT NULL)",
        "INSERT INTO dept VALUES (1), (2)",
        "INSERT INTO emp VALUES (10, 1), (11, 2), (12, 7)",
        "CREATE ATTACHMENT ed ON emp USING joinindex WITH (side=left, fields=dept)",
    ] {
        db.execute_sql(sql).unwrap();
    }
    let trees = |db: &Arc<Database>| {
        let rd = db.catalog().get_by_name("emp").unwrap();
        let inst = rd.find_attachment("ed").unwrap().1;
        JoinIndex::desc(&rd, inst).unwrap().trees.map(|t| {
            let mut entries = Vec::new();
            let mut cursor = t.open_tree(db.services()).iter_all();
            while let Some(entry) = cursor.next().unwrap() {
                entries.push(entry);
            }
            entries
        })
    };
    let before = trees(&db);
    let s = Session::new(db.clone());
    s.execute("BEGIN").unwrap();
    s.execute("SAVEPOINT sp").unwrap();
    s.execute(
        "CREATE ATTACHMENT ed ON dept USING joinindex WITH (side=right, fields=id, other=emp)",
    )
    .unwrap();
    assert_ne!(trees(&db), before, "the second side paired the rows");
    s.execute("ROLLBACK TO SAVEPOINT sp").unwrap();
    s.execute("COMMIT").unwrap();
    assert_eq!(trees(&db), before);
    drop(s);
    std::mem::forget(db);
    support::recover(&env, &DatabaseConfig::default(), "restart", |db, at| {
        assert_eq!(trees(db), before, "{at}");
        let dept = db.catalog().get_by_name("dept").unwrap();
        assert!(dept.find_attachment("ed").is_none(), "{at}");
    });
}

/// The planner's row count survives a clean close: the close rewrites
/// the catalog header of every relation whose counts moved, so the
/// reopened database costs its first plans on the rows it holds.
#[test]
fn row_counts_survive_a_clean_close() {
    let (env, db) = fresh();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, v INT)")
        .unwrap();
    db.execute_sql("CREATE INDEX t_id ON t (id)").unwrap();
    for i in 0..1000 {
        db.execute_sql(&format!("INSERT INTO t VALUES ({i}, {})", i % 7))
            .unwrap();
    }
    let explain = |db: &Arc<Database>| {
        db.query_sql("EXPLAIN SELECT v FROM t WHERE id = 7")
            .unwrap()
    };
    let plan = explain(&db);
    drop(db);
    let db = reopen(&env);
    let rd = db.catalog().get_by_name("t").unwrap();
    assert_eq!(rd.stats.records() as i64, count(&db, "t"));
    assert_eq!(explain(&db), plan);
    // A close with no count moved appends nothing.
    drop(db);
    let frames = env.stable_log.len();
    drop(reopen(&env));
    assert_eq!(env.stable_log.len(), frames);
}

/// The planner's row count survives a crash as the newest header stored
/// it: restart re-installs the header `ANALYZE TABLE` wrote (300 rows)
/// over the one `CREATE TABLE` left on disk (0), and the count follows
/// the header. The 96 rows after it are not counted yet: redo does not
/// re-derive counts (ROADMAP 5(a)).
#[test]
fn restart_keeps_the_newest_headers_row_count() {
    let (env, db) = fresh();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, v INT)")
        .unwrap();
    let insert = |db: &Arc<Database>, ids: std::ops::Range<i64>| {
        let rel = db.catalog().get_by_name("t").unwrap().id;
        db.with_txn(|txn| {
            ids.clone().try_for_each(|i| {
                db.insert(
                    txn,
                    rel,
                    Record::new(vec![Value::Int(i), Value::Int(i % 7)]),
                )
                .map(drop)
            })
        })
        .unwrap();
    };
    insert(&db, 0..300);
    db.execute_sql("ANALYZE TABLE t").unwrap();
    insert(&db, 300..396);
    std::mem::forget(db);
    for round in 0..2 {
        let db = reopen(&env);
        let rd = db.catalog().get_by_name("t").unwrap();
        assert_eq!(rd.stats.records(), 300, "reopen {round}");
        assert_eq!(count(&db, "t"), 396);
        std::mem::forget(db);
    }
}

/// No DDL fails on descriptor size: forty CHECK constraints are forty
/// catalog records, none of them larger for the others. The descriptor
/// is the same after a clean reopen and after a crash.
#[test]
fn forty_check_constraints_survive_reopen_and_crash() {
    let (env, db) = fresh();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, v INT)")
        .unwrap();
    for i in 0..40 {
        db.execute_sql(&format!("CREATE CONSTRAINT c{i} ON t CHECK (v > -{i} - 1)"))
            .unwrap();
    }
    let descriptor = |db: &Arc<Database>| {
        let rd = db.catalog().get_by_name("t").unwrap();
        let insts: Vec<_> = rd.attached_types().flat_map(|(_, i)| i.to_vec()).collect();
        (rd.version, rd.schema.clone(), insts)
    };
    let before = descriptor(&db);
    assert_eq!(before.2.len(), 40);
    drop(db);
    let db = reopen(&env);
    assert_eq!(descriptor(&db), before);
    db.execute_sql("INSERT INTO t VALUES (1, 0)").unwrap();
    let veto = db.execute_sql("INSERT INTO t VALUES (2, -1)").unwrap_err();
    assert!(matches!(veto, DmxError::Veto { .. }), "{veto}");
    std::mem::forget(db);
    let after = support::recover(&env, &DatabaseConfig::default(), "restart", |db, _| {
        (descriptor(db), count(db, "t"))
    });
    assert_eq!(after, (before, 1));
}

/// The log a `CREATE TABLE` appends does not grow with the catalog: the
/// 1st and the 200th append the same records — a header record and the
/// id high-water record — and force the log once, at the commit point.
/// The bytes are flat but for the varint width of the ids they carry
/// (LSN deltas, transaction and relation ids): a few bytes from #1 to
/// #200, however many relations there are.
#[test]
fn the_nth_create_table_logs_what_the_first_does() {
    let (env, db) = fresh();
    let frame_bytes = |from: usize| -> usize {
        (from..env.stable_log.len())
            .map(|i| env.stable_log.with_frame(i, |f| Ok(f.len())).unwrap())
            .sum()
    };
    let forces = || db.metrics_snapshot().counter("wal.forces");
    let mut logged = Vec::new();
    for n in 1..=200 {
        let (frames, forced) = (env.stable_log.len(), forces());
        db.execute_sql(&format!("CREATE TABLE t{n:03} (id INT NOT NULL, v STRING)"))
            .unwrap();
        assert_eq!(
            forces() - forced,
            1,
            "CREATE TABLE #{n} forced more than once"
        );
        logged.push(frame_bytes(frames));
    }
    let (first, last) = (logged[0], logged[199]);
    assert!(logged.is_sorted(), "{logged:?}");
    assert!(last - first <= 4, "#1 logged {first} B, #200 {last} B");
    assert!(last < 400, "{last} bytes");
}

/// The later-image case, for real: the first `ANALYZE TABLE` builds
/// the statistics cell, unlogged, and updates in its transaction patch
/// it; the DDL's commit writes the tree back holding the last of those
/// images, and later updates patch the cell again before the crash.
/// Restart redoes every patch over a tree that already holds a later
/// image than most of them left, and must end where the crash did: the counts and bounds `sys.statistics` shows,
/// and the plans of two probes, after each of two reopens. (The row
/// count the plans cost with is the one `ANALYZE`'s header stored, so
/// the DML after it moves no row count: redo does not yet re-derive
/// counts, ROADMAP 5(a).)
#[test]
fn statistics_redone_over_a_later_image_end_where_the_crash_did() {
    let (env, db) = fresh();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, v INT NOT NULL, w INT)")
        .unwrap();
    db.execute_sql("CREATE UNIQUE INDEX t_id ON t (id)")
        .unwrap();
    db.execute_sql("CREATE INDEX t_v ON t (v)").unwrap();
    let rel = db.catalog().get_by_name("t").unwrap().id;
    let row = |i: i64, v: i64| {
        let w = if i % 9 == 0 {
            Value::Null
        } else {
            Value::Int(i * 3)
        };
        Record::new(vec![Value::Int(i), Value::Int(v), w])
    };
    let mut keys = Vec::new();
    db.with_txn(|txn| {
        for i in 0..1_000 {
            keys.push(db.insert(txn, rel, row(i, i % 50))?);
        }
        Ok(())
    })
    .unwrap();
    let s = Session::new(db.clone());
    s.execute("BEGIN").unwrap();
    s.execute("ANALYZE TABLE t").unwrap();
    for id in 0..100 {
        s.execute(&format!(
            "UPDATE t SET v = {} WHERE id = {id}",
            10 + id % 40
        ))
        .unwrap();
    }
    s.execute("COMMIT").unwrap();
    drop(s);
    for chunk in keys.chunks(100).take(4) {
        db.with_txn(|txn| {
            for (i, key) in chunk.iter().enumerate() {
                let id = db.fetch(txn, rel, key, None, None)?.unwrap()[0]
                    .as_int()
                    .unwrap();
                db.update(txn, rel, key, row(id, 50 + (id * 7 + i as i64) % 40))?;
            }
            Ok(())
        })
        .unwrap();
    }
    let stats = |db: &Arc<Database>| {
        db.query_sql(
            "SELECT field, rows, nulls, distinct, min, max, histogram \
             FROM sys.statistics WHERE relation = 't'",
        )
        .unwrap()
    };
    let plans = |db: &Arc<Database>| {
        ["id = 7", "v = 7", "v = 77"].map(|p| {
            db.query_sql(&format!("EXPLAIN SELECT id FROM t WHERE {p}"))
                .unwrap()
        })
    };
    let (before, plan) = (stats(&db), plans(&db));
    assert!(before.len() > 1, "{before:?}");
    std::mem::forget(db);
    for round in 0..2 {
        let frames = env.stable_log.len();
        let db = reopen(&env);
        assert_eq!(stats(&db), before, "reopen {round}");
        assert_eq!(plans(&db), plan, "reopen {round}");
        if round == 1 {
            assert_eq!(env.stable_log.len(), frames, "the second reopen appended");
        }
        drop(db);
    }
}
