//! E12: the common lock-based concurrency controller coordinating
//! extensions across threads — serializable money transfers, deadlock
//! detection with victim abort, and concurrent readers/writers through
//! different access paths.

// Examples and integration-test harnesses are exempt from the runtime
// panic discipline: failures here should abort loudly.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod support;

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use starburst_dmx::prelude::*;

/// Concurrent transfers between accounts preserve the total (atomicity +
/// isolation across threads, with deadlock victims retried).
#[test]
fn concurrent_transfers_preserve_invariant() {
    let db = starburst_dmx::open_default().unwrap();
    db.execute_sql("CREATE TABLE acct (id INT NOT NULL, bal INT NOT NULL)")
        .unwrap();
    db.execute_sql("CREATE UNIQUE INDEX acct_pk ON acct (id)")
        .unwrap();
    const ACCOUNTS: i64 = 8;
    const START: i64 = 1000;
    for i in 0..ACCOUNTS {
        db.execute_sql(&format!("INSERT INTO acct VALUES ({i}, {START})"))
            .unwrap();
    }
    let deadlocks = Arc::new(AtomicU32::new(0));
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let db = db.clone();
            let deadlocks = deadlocks.clone();
            s.spawn(move || {
                let sess = Session::new(db);
                let mut seed = 0x9E3779B97F4A7C15u64.wrapping_mul(t + 1);
                let mut rng = move || {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    seed
                };
                let mut done = 0;
                while done < 30 {
                    let from = (rng() % ACCOUNTS as u64) as i64;
                    let to = (rng() % ACCOUNTS as u64) as i64;
                    if from == to {
                        continue;
                    }
                    let amount = (rng() % 50) as i64;
                    sess.execute("BEGIN").unwrap();
                    let r = sess
                        .execute(&format!(
                            "UPDATE acct SET bal = bal - {amount} WHERE id = {from}"
                        ))
                        .and_then(|_| {
                            sess.execute(&format!(
                                "UPDATE acct SET bal = bal + {amount} WHERE id = {to}"
                            ))
                        })
                        .and_then(|_| sess.execute("COMMIT"));
                    match r {
                        Ok(_) => done += 1,
                        Err(DmxError::Deadlock { .. }) | Err(DmxError::LockTimeout) => {
                            // victim: the session already rolled back
                            deadlocks.fetch_add(1, Ordering::Relaxed);
                            if sess.in_transaction() {
                                let _ = sess.execute("ROLLBACK");
                            }
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            });
        }
    });
    let total = db.query_sql("SELECT SUM(bal) FROM acct").unwrap()[0][0]
        .as_int()
        .unwrap();
    assert_eq!(
        total,
        ACCOUNTS * START,
        "money conserved across {} deadlocks",
        deadlocks.load(Ordering::Relaxed)
    );
    assert_eq!(db.active_txns(), 0, "no leaked transactions");
}

/// A forced deadlock: two transactions locking two records in opposite
/// orders. The system-wide detector aborts the younger; the survivor
/// commits.
#[test]
fn deadlock_detected_and_resolved() {
    let db = starburst_dmx::open_default().unwrap();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, v INT)")
        .unwrap();
    db.execute_sql("INSERT INTO t VALUES (1, 0), (2, 0)")
        .unwrap();

    let barrier = Arc::new(std::sync::Barrier::new(2));
    let outcomes = Arc::new(dmx_types::sync::Mutex::new(Vec::new()));
    std::thread::scope(|s| {
        for (first, second) in [(1, 2), (2, 1)] {
            let db = db.clone();
            let barrier = barrier.clone();
            let outcomes = outcomes.clone();
            s.spawn(move || {
                let sess = Session::new(db);
                sess.execute("BEGIN").unwrap();
                sess.execute(&format!("UPDATE t SET v = v + 1 WHERE id = {first}"))
                    .unwrap();
                barrier.wait();
                let r = sess
                    .execute(&format!("UPDATE t SET v = v + 1 WHERE id = {second}"))
                    .and_then(|_| sess.execute("COMMIT"));
                outcomes.lock().push(r.is_ok());
                if sess.in_transaction() {
                    let _ = sess.execute("ROLLBACK");
                }
            });
        }
    });
    let outcomes = outcomes.lock().clone();
    assert_eq!(outcomes.len(), 2);
    assert!(
        outcomes.iter().filter(|ok| **ok).count() >= 1,
        "at least one transaction commits: {outcomes:?}"
    );
    // whatever happened, the database is consistent and unlocked
    let rows = db.query_sql("SELECT SUM(v) FROM t").unwrap();
    let committed = outcomes.iter().filter(|ok| **ok).count() as i64;
    assert_eq!(rows[0][0].as_int().unwrap(), committed * 2);
}

/// Group commit (DESIGN.md §6): commit forces only the log, and the
/// force batches across concurrent committers — whoever wins the flush
/// lock carries every record appended so far, and the others take the
/// free ride (no force of their own). With real overlap the number of
/// physical forces must therefore come out strictly below the number of
/// committed transactions.
#[test]
fn group_commit_batches_forces_across_committers() {
    const COMMITTERS: u64 = 8;
    const TXNS_PER: u64 = 25;
    const ROWS_PER_TXN: u64 = 4;
    let db = starburst_dmx::open_default().unwrap();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, v INT NOT NULL)")
        .unwrap();
    let rd = db.catalog().get_by_name("t").unwrap();
    let forces_before = db.metrics_snapshot().counter("wal.forces");
    std::thread::scope(|s| {
        for w in 0..COMMITTERS {
            let db = db.clone();
            let rd = rd.clone();
            s.spawn(move || {
                for i in 0..TXNS_PER {
                    db.with_txn(|txn| {
                        for r in 0..ROWS_PER_TXN {
                            let id = ((w * TXNS_PER + i) * ROWS_PER_TXN + r) as i64;
                            db.insert(
                                txn,
                                rd.id,
                                Record::new(vec![Value::Int(id), Value::Int(w as i64)]),
                            )?;
                        }
                        Ok(())
                    })
                    .unwrap();
                }
            });
        }
    });
    let metrics = db.metrics_snapshot();
    let commits = COMMITTERS * TXNS_PER;
    let forces = metrics.counter("wal.forces") - forces_before;
    let n = db.query_sql("SELECT COUNT(*) FROM t").unwrap()[0][0]
        .as_int()
        .unwrap();
    assert_eq!(n as u64, commits * ROWS_PER_TXN, "every commit visible");
    assert!(
        forces < commits,
        "{forces} log forces for {commits} commits — group commit never batched"
    );
}

/// The group-commit durability contract under crashes: a commit is
/// acknowledged (returns `Ok`) only after the batch force that covered
/// its commit record succeeded, so a crash at *any* I/O index — in
/// particular between a batch force and the acknowledgment of the
/// committers riding it — never loses an acknowledged commit.
#[test]
fn crash_between_batch_force_and_ack_keeps_acknowledged_commits() {
    const COMMITTERS: u64 = 4;
    const TXNS_PER: u64 = 20;

    // One committer run against `db`; records each acknowledged row id.
    // Threads stop at the first error (the injected crash).
    fn drive(db: &Arc<Database>, acked: &dmx_types::sync::Mutex<Vec<i64>>) {
        let rd = match db.catalog().get_by_name("t") {
            Ok(rd) => rd,
            Err(_) => return,
        };
        std::thread::scope(|s| {
            for w in 0..COMMITTERS {
                let db = db.clone();
                let rd = rd.clone();
                s.spawn(move || {
                    for i in 0..TXNS_PER {
                        let id = (w * TXNS_PER + i) as i64;
                        let r = db.with_txn(|txn| {
                            db.insert(txn, rd.id, Record::new(vec![Value::Int(id)]))
                        });
                        match r {
                            Ok(_) => acked.lock().push(id),
                            Err(_) => return, // crashed: all later I/O fails too
                        }
                    }
                });
            }
        });
    }

    // The table and its committers; returns the ids acknowledged.
    let workload = |run: &support::Run| {
        let acked = dmx_types::sync::Mutex::new(Vec::new());
        if let Some(db) = run.open() {
            if db.execute_sql("CREATE TABLE t (id INT NOT NULL)").is_ok() {
                drive(&db, &acked);
            }
        }
        acked.into_inner()
    };

    // A healthy run sizes the crash window.
    let config = DatabaseConfig::default();
    let (total, acked) = support::healthy(0x6C0C, &config, workload);
    assert_eq!(
        acked.len() as u64,
        COMMITTERS * TXNS_PER,
        "healthy pass must acknowledge everything"
    );

    // Crash at several points inside the concurrent commit window. The
    // interleaving is not deterministic — which ids get acknowledged
    // varies — but the contract must hold for whatever set was acked.
    let points = [total / 4, total / 2, (3 * total) / 4];
    support::crash_points(0x6C0C, &config, points, workload, |db, acked, at| {
        let survivors: std::collections::BTreeSet<i64> = match db.query_sql("SELECT id FROM t") {
            Ok(rows) => rows.iter().map(|r| r[0].as_int().unwrap()).collect(),
            Err(DmxError::NotFound(_)) => {
                assert!(
                    acked.is_empty(),
                    "{at}: table lost with {} acked commits",
                    acked.len()
                );
                return Default::default();
            }
            Err(e) => panic!("{at}: {e}"),
        };
        for id in acked {
            assert!(
                survivors.contains(id),
                "{at}/{total}: acknowledged commit {id} lost \
                 ({} acked, {} survived)",
                acked.len(),
                survivors.len()
            );
        }
        survivors
    });
}

/// Readers traverse indexes while writers mutate — scans stay consistent
/// (record-level S locks block in-flight writers' records).
#[test]
fn readers_and_writers_through_indexes() {
    let db = starburst_dmx::open_default().unwrap();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, grp INT NOT NULL)")
        .unwrap();
    db.execute_sql("CREATE INDEX t_grp ON t USING btree (grp)")
        .unwrap();
    for i in 0..200 {
        db.execute_sql(&format!("INSERT INTO t VALUES ({i}, {})", i % 4))
            .unwrap();
    }
    std::thread::scope(|s| {
        // writers: move records between groups, always in pairs
        for w in 0..2u64 {
            let db = db.clone();
            s.spawn(move || {
                let sess = Session::new(db);
                for i in 0..25 {
                    let id = (w * 100 + i) % 200;
                    sess.execute(&format!("UPDATE t SET grp = (grp + 1) % 4 WHERE id = {id}"))
                        .unwrap();
                }
            });
        }
        // readers: group counts must always total 200
        for _ in 0..2 {
            let db = db.clone();
            s.spawn(move || {
                let sess = Session::new(db);
                for _ in 0..20 {
                    let rows = sess.execute("SELECT COUNT(*) FROM t").unwrap();
                    assert_eq!(rows.rows[0][0], Value::Int(200));
                }
            });
        }
    });
    // final index consistency: counting through the index = through the heap
    let via_index = db
        .query_sql("SELECT COUNT(*) FROM t WHERE grp = 0")
        .unwrap()[0][0]
        .as_int()
        .unwrap();
    let rows = db.query_sql("SELECT grp FROM t").unwrap();
    let brute = rows.iter().filter(|r| r[0] == Value::Int(0)).count() as i64;
    assert_eq!(via_index, brute);
}

/// Session 1 deletes row 5 of `t` and stays open; session 2 then inserts
/// a row with the same key and blocks behind session 1's locks; session
/// 1 rolls back — only once `lock.waits` shows session 2 enqueued, so
/// the interleaving is forced, not slept for. Returns session 2's
/// outcome and the rows with `id = 5` afterwards.
///
/// While session 2 waits, the key is physically absent; when it wakes,
/// the rollback has put `(5, 0)` back. An insert that probed for the key
/// before it held the lock acts on the stale answer.
fn insert_blocked_behind_a_rolled_back_delete(
    ddl: &[&str],
) -> (Result<QueryResult>, Vec<Vec<Value>>) {
    let db = starburst_dmx::open_default().unwrap();
    for sql in ddl {
        db.execute_sql(sql).unwrap();
    }
    for id in [3, 5, 7] {
        db.execute_sql(&format!("INSERT INTO t VALUES ({id}, 0)"))
            .unwrap();
    }
    let s1 = Session::new(db.clone());
    s1.execute("BEGIN").unwrap();
    s1.execute("DELETE FROM t WHERE id = 5").unwrap();
    let waits = || db.metrics_snapshot().counter("lock.waits");
    let waits_before = waits();
    let outcome = std::thread::scope(|s| {
        let s2 = s.spawn(|| Session::new(db.clone()).execute("INSERT INTO t VALUES (5, 1)"));
        while waits() == waits_before && !s2.is_finished() {
            std::thread::yield_now();
        }
        assert!(!s2.is_finished(), "session 2 must block on session 1");
        s1.execute("ROLLBACK").unwrap();
        s2.join().unwrap()
    });
    let rows = db.query_sql("SELECT id, v FROM t WHERE id = 5").unwrap();
    assert_eq!(
        db.query_sql("SELECT COUNT(*) FROM t").unwrap()[0][0],
        Value::Int(3)
    );
    (outcome, rows)
}

/// The B-tree storage method refuses the duplicate key and leaves the
/// restored row alone (it used to overwrite it with `(5, 1)`).
#[test]
fn btree_storage_insert_probes_for_duplicates_under_its_lock() {
    let (outcome, rows) = insert_blocked_behind_a_rolled_back_delete(&[
        "CREATE TABLE t (id INT NOT NULL, v INT NOT NULL) USING btree WITH (key=id)",
    ]);
    assert!(
        matches!(outcome, Err(DmxError::Duplicate(_))),
        "{outcome:?}"
    );
    assert_eq!(rows, vec![vec![Value::Int(5), Value::Int(0)]]);
}

/// A unique B-tree index vetoes the second row with `id = 5` (it used to
/// admit it, leaving two).
#[test]
fn unique_index_probes_for_duplicates_under_its_gap_lock() {
    let (outcome, rows) = insert_blocked_behind_a_rolled_back_delete(&[
        "CREATE TABLE t (id INT NOT NULL, v INT NOT NULL)",
        "CREATE UNIQUE INDEX t_pk ON t (id)",
    ]);
    assert!(matches!(outcome, Err(DmxError::Veto { .. })), "{outcome:?}");
    assert_eq!(rows, vec![vec![Value::Int(5), Value::Int(0)]]);
}

/// Two writers, one maintained cell. Session 1 inserts a row of group 7
/// and stays open; session 2 inserts another row of group 7 and must
/// wait for the cell's lock (`lock.waits` shows it enqueued, so the
/// interleaving is forced, not slept for); session 1 rolls back; session
/// 2 commits. Both maintained cells — the group's `(count, sum)` and the
/// statistics row count — then equal recomputation from the base.
///
/// Unlocked, session 2 read-modify-writes the cell over session 1's
/// uncommitted image, and session 1's rollback reinstalls a before-image
/// that erases session 2's row from both.
#[test]
fn writers_to_one_maintained_cell_serialise_until_commit() {
    let db = starburst_dmx::open_default().unwrap();
    for sql in [
        "CREATE TABLE t (id INT NOT NULL, g INT NOT NULL, v INT NOT NULL)",
        "CREATE ATTACHMENT t_sums ON t USING aggregate WITH (sum = v, group_by = g)",
        "CREATE ATTACHMENT t_stats ON t USING stats",
        "INSERT INTO t VALUES (1, 7, 10)",
    ] {
        db.execute_sql(sql).unwrap();
    }
    let s1 = Session::new(db.clone());
    s1.execute("BEGIN").unwrap();
    s1.execute("INSERT INTO t VALUES (2, 7, 20)").unwrap();
    let waits = || db.metrics_snapshot().counter("lock.waits");
    let waits_before = waits();
    std::thread::scope(|s| {
        let s2 = s.spawn(|| Session::new(db.clone()).execute("INSERT INTO t VALUES (3, 7, 30)"));
        while waits() == waits_before && !s2.is_finished() {
            std::thread::yield_now();
        }
        assert!(!s2.is_finished(), "session 2 must wait for the cell");
        s1.execute("ROLLBACK").unwrap();
        s2.join().unwrap().unwrap();
    });
    assert_eq!(waits(), waits_before + 1, "one wait, on the first cell");

    let base = db
        .query_sql("SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g")
        .unwrap();
    assert_eq!(
        base,
        vec![vec![Value::Int(7), Value::Int(2), Value::Int(40)]]
    );
    assert_eq!(
        support::attachment_items(&db, "t", "t_sums"),
        vec![vec![Value::Int(7), Value::Int(2), Value::Float(40.0)]]
    );
    let stats = db
        .query_sql("SELECT rows FROM sys.statistics WHERE relation = 't' AND field = '*'")
        .unwrap();
    assert_eq!(stats, vec![vec![Value::Int(2)]]);
}

// ---------------------------------------------------------------------
// Keyed DML picks its targets through the planner: `UPDATE`/`DELETE …
// WHERE id = k` on a B-tree relation fetches the one record by key under
// X, so its lock footprint is what it writes, whatever the size of the
// relation.
// ---------------------------------------------------------------------

/// A B-tree relation `t(id, v)` holding the even ids below `2 * rows`.
fn even_ids(rows: i64) -> Arc<Database> {
    let db = starburst_dmx::open_default().unwrap();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, v INT NOT NULL) USING btree WITH (key=id)")
        .unwrap();
    for batch in (0..rows).collect::<Vec<_>>().chunks(200) {
        let values: Vec<String> = batch.iter().map(|i| format!("({}, 0)", i * 2)).collect();
        db.execute_sql(&format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
    }
    db
}

/// Runs `sql` in an open transaction of its own; returns the lock
/// requests it made and the names it holds afterwards (read through
/// `sys.locks` inside the transaction, whose own relation lock is
/// dropped from the answer), then rolls back.
fn footprint(db: &Arc<Database>, sql: &str) -> (u64, std::collections::BTreeSet<String>) {
    let sess = Session::new(db.clone());
    sess.execute("BEGIN").unwrap();
    let acquires = || db.metrics_snapshot().counter("lock.acquires");
    let before = acquires();
    assert_eq!(
        sess.execute(sql).unwrap().scalar().unwrap(),
        &Value::Int(1),
        "{sql}"
    );
    let requests = acquires() - before;
    let sys_locks = db.catalog().get_by_name("sys.locks").unwrap().id;
    let held = sess
        .execute("SELECT name FROM sys.locks WHERE state = 'held'")
        .unwrap()
        .rows
        .into_iter()
        .map(|r| r[0].as_str().unwrap().to_string())
        .filter(|n| *n != format!("relation({})", sys_locks.0))
        .collect();
    sess.execute("ROLLBACK").unwrap();
    (requests, held)
}

/// The name `sys.locks` prints for a record or gap lock on `id` of `rel`.
fn lock_of(rel: RelationId, id: i64, gap: bool) -> String {
    use starburst_dmx::lock::LockName;
    let key = starburst_dmx::types::key::encode_values(&[Value::Int(id)]);
    match gap {
        false => match LockName::record(rel, &RecordKey::new(key)) {
            LockName::Record(r, k) => format!("record({},{k})", r.0),
            other => panic!("unexpected {other:?}"),
        },
        true => match LockName::gap(rel, starburst_dmx::types::FileId(0), Some(&key)) {
            LockName::Gap(r, k) => format!("gap({},{k})", r.0),
            other => panic!("unexpected {other:?}"),
        },
    }
}

#[test]
fn keyed_dml_locks_what_it_writes_whatever_the_size() {
    let mut costs = Vec::new();
    for rows in [100, 2_000] {
        let db = even_ids(rows);
        let rel = db.catalog().get_by_name("t").unwrap().id;
        let relation = format!("relation({})", rel.0);
        // the target fetched by key under X; a delete also merges the
        // gap below 40 into the gap below its successor, 42. Requests:
        // the relation IX and the record X of the fetch, granted again
        // to the write, and a delete's two gaps
        let statements = [
            (
                "UPDATE t SET v = 1 WHERE id = 40",
                vec![relation.clone(), lock_of(rel, 40, false)],
                4,
            ),
            (
                "DELETE FROM t WHERE id = 40",
                vec![
                    relation.clone(),
                    lock_of(rel, 40, false),
                    lock_of(rel, 40, true),
                    lock_of(rel, 42, true),
                ],
                6,
            ),
        ];
        let mut per_stmt = Vec::new();
        for (sql, expected, exact) in statements {
            let (requests, held) = footprint(&db, sql);
            let expected: std::collections::BTreeSet<String> = expected.into_iter().collect();
            assert_eq!(held, expected, "{rows} rows: {sql}");
            assert_eq!(requests, exact, "{rows} rows: {sql}");
            per_stmt.push(requests);
        }
        costs.push(per_stmt);
    }
    assert_eq!(costs[0], costs[1], "lock requests grew with the relation");
}

/// Two updaters of one key queue on its X lock: B's UPDATE of the row A
/// has updated but not committed waits (forced: it shows in
/// `lock.waits`), then runs on A's committed row. No deadlock victim,
/// and both increments land.
#[test]
fn two_updaters_of_one_key_queue_instead_of_deadlocking() {
    let db = even_ids(10);
    let counter = |name: &str| db.metrics_snapshot().counter(name);
    let bump = "UPDATE t SET v = v + 1 WHERE id = 4";
    let (a, b) = (Session::new(db.clone()), Session::new(db.clone()));
    let deadlocks = counter("lock.deadlocks");
    a.execute("BEGIN").unwrap();
    assert_eq!(a.execute(bump).unwrap().scalar().unwrap(), &Value::Int(1));
    b.execute("BEGIN").unwrap();
    let waits = counter("lock.waits");
    std::thread::scope(|s| {
        let second = s.spawn(|| b.execute(bump));
        while counter("lock.waits") == waits && !second.is_finished() {
            std::thread::yield_now();
        }
        assert!(!second.is_finished(), "B's UPDATE must wait for A");
        a.execute("COMMIT").unwrap();
        assert_eq!(
            second.join().unwrap().unwrap().scalar().unwrap(),
            &Value::Int(1)
        );
    });
    b.execute("COMMIT").unwrap();
    assert_eq!(counter("lock.deadlocks"), deadlocks);
    assert_eq!(
        db.query_sql("SELECT v FROM t WHERE id = 4").unwrap(),
        vec![vec![Value::Int(2)]]
    );
}

/// Two threads of autocommit increments of one key on a B-tree
/// relation: every statement succeeds and none is a deadlock victim
/// (two targets S-locked and then upgraded to X would deadlock).
#[test]
fn concurrent_increments_of_one_key_all_commit() {
    const EACH: i64 = 500;
    let db = even_ids(10);
    std::thread::scope(|s| {
        for _ in 0..2 {
            let sess = Session::new(db.clone());
            s.spawn(move || {
                for _ in 0..EACH {
                    let r = sess.execute("UPDATE t SET v = v + 1 WHERE id = 6").unwrap();
                    assert_eq!(r.scalar().unwrap(), &Value::Int(1));
                }
            });
        }
    });
    assert_eq!(db.metrics_snapshot().counter("lock.deadlocks"), 0);
    assert_eq!(
        db.query_sql("SELECT v FROM t WHERE id = 6").unwrap(),
        vec![vec![Value::Int(2 * EACH)]]
    );
}

/// A write by key to an absent key holds that key's X lock: an INSERT of
/// the key waits (forced: it shows in `lock.waits`) until the writer
/// commits, so the writer's "no such row" stays true while it runs.
#[test]
fn a_write_to_an_absent_key_fences_its_insert() {
    let db = even_ids(10);
    let waits = || db.metrics_snapshot().counter("lock.waits");
    for write in [
        "UPDATE t SET v = 1 WHERE id = 5",
        "DELETE FROM t WHERE id = 5",
    ] {
        let (a, b) = (Session::new(db.clone()), Session::new(db.clone()));
        a.execute("BEGIN").unwrap();
        assert_eq!(a.execute(write).unwrap().scalar().unwrap(), &Value::Int(0));
        let before = waits();
        std::thread::scope(|s| {
            let insert = s.spawn(|| b.execute("INSERT INTO t VALUES (5, 0)"));
            while waits() == before && !insert.is_finished() {
                std::thread::yield_now();
            }
            assert!(
                !insert.is_finished(),
                "the insert of 5 must wait for `{write}`"
            );
            assert_eq!(a.execute(write).unwrap().scalar().unwrap(), &Value::Int(0));
            a.execute("COMMIT").unwrap();
            insert.join().unwrap().unwrap();
        });
        assert_eq!(
            db.execute_sql("DELETE FROM t WHERE id = 5")
                .unwrap()
                .scalar()
                .unwrap(),
            &Value::Int(1)
        );
    }
}

/// A's uncommitted range UPDATE fences its own key range against
/// phantoms and nothing else: B's insert into the range waits for A;
/// B's inserts below it and above it, and B's keyed UPDATE far from it,
/// do not.
#[test]
fn range_update_fences_its_range_and_nothing_else() {
    let db = even_ids(400);
    let a = Session::new(db.clone());
    a.execute("BEGIN").unwrap();
    assert_eq!(
        a.execute("UPDATE t SET v = v + 1 WHERE id >= 10 AND id <= 20")
            .unwrap()
            .scalar()
            .unwrap(),
        &Value::Int(6)
    );
    let waits = || db.metrics_snapshot().counter("lock.waits");
    let waits_before = waits();
    let b = Session::new(db.clone());
    // the scan locked 10 … 20 and the boundary key 22, each with the gap
    // below it: 7 lands in the gap below 8, 23 in the gap below 24
    for free in [
        "UPDATE t SET v = 7 WHERE id = 500",
        "INSERT INTO t VALUES (7, 0)",
        "INSERT INTO t VALUES (23, 0)",
    ] {
        assert_eq!(b.execute(free).unwrap().scalar().unwrap(), &Value::Int(1));
        assert_eq!(waits(), waits_before, "`{free}` waited for A");
    }
    std::thread::scope(|s| {
        let insert = s.spawn(|| b.execute("INSERT INTO t VALUES (15, 0)"));
        while waits() == waits_before && !insert.is_finished() {
            std::thread::yield_now();
        }
        assert!(!insert.is_finished(), "the phantom insert must wait for A");
        a.execute("COMMIT").unwrap();
        insert.join().unwrap().unwrap();
    });
    assert_eq!(
        db.query_sql("SELECT id, v FROM t WHERE id >= 10 AND id <= 20")
            .unwrap()
            .len(),
        7
    );
    assert_eq!(
        db.query_sql("SELECT v FROM t WHERE id = 500").unwrap(),
        vec![vec![Value::Int(7)]]
    );
}
