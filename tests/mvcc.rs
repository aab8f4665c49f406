//! Snapshot-scan visibility and key-range locking.
//!
//! The covered-scan staleness window (EXPERIMENTS.md, formerly a
//! "residual known gap"): a covered index scan racing a concurrently
//! *aborting* updater could report the rolled-back entry's key values.
//! Read-only scans now run against the transaction's snapshot — zero
//! record locks, visibility through the version store — and writers
//! carry next-key gap locks so locking scans are phantom-fenced.

// Examples and integration-test harnesses are exempt from the runtime
// panic discipline: failures here should abort loudly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use starburst_dmx::prelude::*;

/// The documented race, forced: a covered index scan runs while an
/// updater holds uncommitted index entries, and again after the updater
/// rolls back. Both reads must report committed-only data — and the
/// reader never blocks on the writer's X locks.
#[test]
fn covered_scan_ignores_in_flight_and_aborted_update() {
    let db = starburst_dmx::open_default().unwrap();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, grp INT NOT NULL)")
        .unwrap();
    db.execute_sql("CREATE INDEX t_grp ON t USING btree (grp)")
        .unwrap();
    for i in 0..20 {
        db.execute_sql(&format!("INSERT INTO t VALUES ({i}, 1)"))
            .unwrap();
    }

    // The updater moves half the records to grp 2 and stays open: the
    // index now holds its uncommitted grp=2 entries, and the grp=1
    // entries for those records are gone.
    let writer = Session::new(db.clone());
    writer.execute("BEGIN").unwrap();
    writer
        .execute("UPDATE t SET grp = 2 WHERE id < 10")
        .unwrap();

    let reader = Session::new(db.clone());
    let committed = reader.execute("SELECT grp FROM t WHERE grp = 1").unwrap();
    assert_eq!(
        committed.rows.len(),
        20,
        "snapshot scan must re-derive the updater's records from their \
         committed images"
    );
    assert!(committed.rows.iter().all(|r| r[0] == Value::Int(1)));
    let dirty = reader.execute("SELECT grp FROM t WHERE grp = 2").unwrap();
    assert!(
        dirty.rows.is_empty(),
        "uncommitted index entries leaked into a covered scan: {:?}",
        dirty.rows
    );

    // The race the gap documented: the updater aborts.
    writer.execute("ROLLBACK").unwrap();

    let after = reader.execute("SELECT grp FROM t WHERE grp = 1").unwrap();
    assert_eq!(after.rows.len(), 20);
    let ghosts = reader.execute("SELECT grp FROM t WHERE grp = 2").unwrap();
    assert!(
        ghosts.rows.is_empty(),
        "rolled-back entries visible after abort: {:?}",
        ghosts.rows
    );
}

/// Snapshot scans acquire no record locks: a full storage-method scan
/// costs exactly one lock acquisition (the relation IS).
#[test]
fn snapshot_scan_takes_zero_record_locks() {
    let db = starburst_dmx::open_default().unwrap();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, v INT NOT NULL)")
        .unwrap();
    for i in 0..100 {
        db.execute_sql(&format!("INSERT INTO t VALUES ({i}, {i})"))
            .unwrap();
    }
    let rd = db.catalog().get_by_name("t").unwrap();

    let txn = db.begin();
    assert!(!txn.set_snapshot_reads(true));
    let before = db.metrics_snapshot().counter("lock.acquires");
    let scan = db
        .open_scan(
            &txn,
            rd.id,
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
    let after = db.metrics_snapshot().counter("lock.acquires");
    db.commit(&txn).unwrap();
    assert_eq!(n, 100);
    assert_eq!(
        after - before,
        1,
        "a snapshot scan must cost exactly the relation IS lock"
    );

    // The same scan under 2PL pays per-record S locks plus gap locks.
    let txn = db.begin();
    let before = db.metrics_snapshot().counter("lock.acquires");
    let scan = db
        .open_scan(
            &txn,
            rd.id,
            AccessPath::StorageMethod,
            AccessQuery::All,
            None,
            None,
        )
        .unwrap();
    while db.scan_next(&txn, scan).unwrap().is_some() {}
    let after = db.metrics_snapshot().counter("lock.acquires");
    db.commit(&txn).unwrap();
    assert!(
        after - before > 100,
        "locking scan acquired only {} locks",
        after - before
    );
}

/// Reads inside one transaction are repeatable: a concurrent committed
/// update is invisible to a snapshot captured before it.
#[test]
fn snapshot_reads_are_repeatable_within_a_transaction() {
    let db = starburst_dmx::open_default().unwrap();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, v INT NOT NULL)")
        .unwrap();
    for i in 0..10 {
        db.execute_sql(&format!("INSERT INTO t VALUES ({i}, 0)"))
            .unwrap();
    }

    let reader = Session::new(db.clone());
    reader.execute("BEGIN").unwrap();
    let sum = reader.execute("SELECT SUM(v) FROM t").unwrap();
    assert_eq!(sum.rows[0][0], Value::Int(0));

    // A concurrent writer commits — without blocking on the reader,
    // which holds no record locks.
    db.execute_sql("UPDATE t SET v = 5").unwrap();

    let again = reader.execute("SELECT SUM(v) FROM t").unwrap();
    assert_eq!(
        again.rows[0][0],
        Value::Int(0),
        "committed update leaked into an older snapshot"
    );
    reader.execute("COMMIT").unwrap();

    // A fresh transaction's snapshot includes the update.
    let fresh = reader.execute("SELECT SUM(v) FROM t").unwrap();
    assert_eq!(fresh.rows[0][0], Value::Int(50));
}

/// An uncommitted CREATE TABLE is invisible to other transactions
/// (DESIGN.md §6.1): reads and writes against it fail with NotFound
/// until the creator commits.
#[test]
fn uncommitted_create_table_is_invisible_to_others() {
    let db = starburst_dmx::open_default().unwrap();
    let creator = Session::new(db.clone());
    creator.execute("BEGIN").unwrap();
    creator
        .execute("CREATE TABLE secret (id INT NOT NULL)")
        .unwrap();
    creator.execute("INSERT INTO secret VALUES (1)").unwrap();

    let other = Session::new(db.clone());
    for sql in ["SELECT * FROM secret", "INSERT INTO secret VALUES (2)"] {
        match other.execute(sql) {
            Err(DmxError::NotFound(_)) => {}
            other => panic!("{sql}: expected NotFound for uncommitted DDL, got {other:?}"),
        }
    }
    // The creator reads its own uncommitted table.
    let own = creator.execute("SELECT COUNT(*) FROM secret").unwrap();
    assert_eq!(own.rows[0][0], Value::Int(1));

    creator.execute("COMMIT").unwrap();
    let visible = other.execute("SELECT COUNT(*) FROM secret").unwrap();
    assert_eq!(visible.rows[0][0], Value::Int(1));
}

/// The fence lifts on abort too — and the name becomes reusable.
#[test]
fn aborted_create_table_lifts_the_ddl_fence() {
    let db = starburst_dmx::open_default().unwrap();
    let creator = Session::new(db.clone());
    creator.execute("BEGIN").unwrap();
    creator
        .execute("CREATE TABLE ghost (id INT NOT NULL)")
        .unwrap();
    creator.execute("ROLLBACK").unwrap();

    let other = Session::new(db.clone());
    assert!(matches!(
        other.execute("SELECT * FROM ghost"),
        Err(DmxError::NotFound(_))
    ));
    // The rolled-back name is free for a new (committed) incarnation.
    db.execute_sql("CREATE TABLE ghost (id INT NOT NULL)")
        .unwrap();
    assert!(other.execute("SELECT * FROM ghost").is_ok());
}

/// Threaded DDL visibility: concurrent readers either get NotFound or
/// the fully-committed table — never a half-created one.
#[test]
fn concurrent_readers_never_see_half_created_table() {
    let db = starburst_dmx::open_default().unwrap();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..2 {
            let db = db.clone();
            let done = &done;
            s.spawn(move || {
                let sess = Session::new(db);
                while !done.load(Ordering::Acquire) {
                    match sess.execute("SELECT COUNT(*) FROM staged") {
                        // Visible ⇒ committed ⇒ the backfilled rows are
                        // all there.
                        Ok(r) => assert_eq!(r.rows[0][0], Value::Int(8)),
                        Err(DmxError::NotFound(_)) => {}
                        Err(e) => panic!("reader: {e}"),
                    }
                }
            });
        }
        let sess = Session::new(db.clone());
        sess.execute("BEGIN").unwrap();
        sess.execute("CREATE TABLE staged (id INT NOT NULL)")
            .unwrap();
        for i in 0..8 {
            sess.execute(&format!("INSERT INTO staged VALUES ({i})"))
                .unwrap();
        }
        sess.execute("COMMIT").unwrap();
        done.store(true, Ordering::Release);
    });
}

/// Next-key gap locks fence phantoms: an insert into a range a locking
/// scan traversed blocks until the scanner commits.
#[test]
fn gap_locks_block_phantom_insert_until_scanner_commits() {
    let db = starburst_dmx::open_default().unwrap();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, v INT NOT NULL) USING btree WITH (key=id)")
        .unwrap();
    for i in 0..10 {
        db.execute_sql(&format!("INSERT INTO t VALUES ({i}, 0)"))
            .unwrap();
    }

    // The scanner's UPDATE runs a locking storage-method scan: S gap
    // locks across every interval it traverses, held to commit.
    let scanner = Session::new(db.clone());
    scanner.execute("BEGIN").unwrap();
    scanner.execute("UPDATE t SET v = 1").unwrap();

    let scanner_committed = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        let db2 = db.clone();
        let flag = scanner_committed.clone();
        let inserter = s.spawn(move || {
            let sess = Session::new(db2);
            // Blocks on the EOF gap's X lock until the scanner's 2PL
            // release.
            sess.execute("INSERT INTO t VALUES (100, 9)").unwrap();
            assert!(
                flag.load(Ordering::Acquire),
                "phantom insert completed while the range scan's locks were held"
            );
        });
        std::thread::sleep(std::time::Duration::from_millis(100));
        scanner_committed.store(true, Ordering::Release);
        scanner.execute("COMMIT").unwrap();
        inserter.join().unwrap();
    });
    let n = db.query_sql("SELECT COUNT(*) FROM t").unwrap()[0][0]
        .as_int()
        .unwrap();
    assert_eq!(n, 11);
}

/// Snapshot readers ignore gap locks entirely: a read-only scan of a
/// range a writer is inserting into neither blocks nor sees the
/// uncommitted insert.
#[test]
fn snapshot_scan_neither_blocks_on_nor_sees_uncommitted_insert() {
    let db = starburst_dmx::open_default().unwrap();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, v INT NOT NULL) USING btree WITH (key=id)")
        .unwrap();
    for i in 0..5 {
        db.execute_sql(&format!("INSERT INTO t VALUES ({i}, 0)"))
            .unwrap();
    }
    let writer = Session::new(db.clone());
    writer.execute("BEGIN").unwrap();
    writer.execute("INSERT INTO t VALUES (2500, 1)").unwrap();
    writer.execute("DELETE FROM t WHERE id = 0").unwrap();

    // No blocking, no dirty read, no vanished record. (Snapshot scans
    // emit version-store-recovered rows after the page-ordered stream,
    // so sort before comparing — DESIGN.md §6.2.)
    let rows = db.query_sql("SELECT id FROM t").unwrap();
    let mut ids: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 1, 2, 3, 4]);

    writer.execute("COMMIT").unwrap();
    let rows = db.query_sql("SELECT id FROM t").unwrap();
    let ids: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    assert_eq!(ids, vec![1, 2, 3, 4, 2500]);
}

/// A committed update that relocates an index entry *forward*, past the
/// scan position, re-exposes the same record key to the inner scan (old
/// entry surfaced before the move, new entry after). The snapshot scan
/// must emit each record once — both probes re-derive the identical
/// snapshot image, so without key dedupe the row would come back twice.
#[test]
fn snapshot_scan_never_duplicates_a_relocated_record() {
    let db = starburst_dmx::open_default().unwrap();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, grp INT NOT NULL)")
        .unwrap();
    db.execute_sql("CREATE INDEX t_grp ON t USING btree (grp)")
        .unwrap();
    for i in 0..10 {
        db.execute_sql(&format!("INSERT INTO t VALUES ({i}, {i})"))
            .unwrap();
    }
    let rd = db.catalog().get_by_name("t").unwrap();
    let (att, inst) = rd.find_attachment("t_grp").unwrap();

    let txn = db.begin();
    assert!(!txn.set_snapshot_reads(true));
    let scan = db
        .open_scan(
            &txn,
            rd.id,
            AccessPath::Attachment(att, inst.instance),
            AccessQuery::All,
            None,
            None,
        )
        .unwrap();
    // Surface the first two entries (grp 0 and 1) ...
    let mut keys = Vec::new();
    for _ in 0..2 {
        let item = db.scan_next(&txn, scan).unwrap().unwrap();
        keys.push(item.key.as_bytes().to_vec());
    }
    // ... then a concurrent committed update moves the already-surfaced
    // record's entry to the far end of the index, ahead of the scan.
    db.execute_sql("UPDATE t SET grp = 100 WHERE id = 0")
        .unwrap();
    while let Some(item) = db.scan_next(&txn, scan).unwrap() {
        keys.push(item.key.as_bytes().to_vec());
    }
    db.commit(&txn).unwrap();

    let mut uniq = std::collections::HashSet::new();
    for k in &keys {
        assert!(
            uniq.insert(k.clone()),
            "snapshot scan surfaced record {k:?} twice after its index \
             entry relocated past the scan position"
        );
    }
    assert_eq!(keys.len(), 10, "every committed record exactly once");
}

/// The hash twin: a probe of a hash index is a snapshot scan too. While
/// it is under way a writer commits three moves — a surfaced record out
/// of the probed bucket, one not yet reached out of it, and a stranger
/// into it. The reader sees the bucket as of its snapshot, each record
/// once, and asks for no lock beyond the relation's.
#[test]
fn snapshot_probe_of_a_hash_index_reads_its_bucket_as_of_the_snapshot() {
    let db = starburst_dmx::open_default().unwrap();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, grp INT NOT NULL)")
        .unwrap();
    db.execute_sql("CREATE INDEX t_grp ON t USING hash (grp)")
        .unwrap();
    for i in 0..10 {
        db.execute_sql(&format!("INSERT INTO t VALUES ({i}, 1)"))
            .unwrap();
    }
    db.execute_sql("INSERT INTO t VALUES (10, 5)").unwrap();
    let rd = db.catalog().get_by_name("t").unwrap();
    let (att, inst) = rd.find_attachment("t_grp").unwrap();
    let locks = || db.metrics_snapshot().counter("lock.acquires");

    let txn = db.begin();
    txn.set_snapshot_reads(true);
    let before = locks();
    let bucket = AccessQuery::KeyEquals(encode_values(&[Value::Int(1)]));
    let path = AccessPath::Attachment(att, inst.instance);
    let scan = db.open_scan(&txn, rd.id, path, bucket, None, None).unwrap();
    let mut seen = Vec::new();
    for _ in 0..2 {
        seen.push(db.scan_next(&txn, scan).unwrap().unwrap());
    }
    let mut reader_locks = locks() - before;

    // record keys are RIDs in insertion order, and a bucket is in record
    // key order: id 0 has been surfaced, id 9 and id 10 lie ahead
    db.execute_sql("UPDATE t SET grp = 2 WHERE id = 0").unwrap();
    db.execute_sql("UPDATE t SET grp = 2 WHERE id = 9").unwrap();
    db.execute_sql("UPDATE t SET grp = 1 WHERE id = 10")
        .unwrap();

    let before = locks();
    while let Some(item) = db.scan_next(&txn, scan).unwrap() {
        seen.push(item);
    }
    reader_locks += locks() - before;
    db.commit(&txn).unwrap();

    assert_eq!(reader_locks, 1, "the relation's IS lock and nothing else");
    assert_eq!(seen.len(), 10, "the ten records of the bucket: {seen:?}");
    let keys: std::collections::HashSet<&RecordKey> = seen.iter().map(|it| &it.key).collect();
    assert_eq!(keys.len(), 10, "each once");
    assert!(seen.iter().all(|it| it.values == Some(vec![Value::Int(1)])));
    // a new snapshot reads the bucket as the writer left it
    let now = db.query_sql("SELECT id FROM t WHERE grp = 1").unwrap();
    let mut ids: Vec<i64> = now.iter().map(|r| r[0].as_int().unwrap()).collect();
    ids.sort_unstable();
    assert_eq!(ids, (1..9).chain([10]).collect::<Vec<_>>());
}

// ---------------------------------------------------------------------
// The snapshot scan's bookkeeping — which keys it surfaced, looked up
// only when a chain turns up — and its delta sweep, with the writer's
// move placed by hand between two pulls of the scan.
// ---------------------------------------------------------------------

use starburst_dmx::core::{Frame, KeyRange, ScanItem};
use starburst_dmx::expr::{CmpOp, Expr};
use starburst_dmx::types::key::encode_values;

const ROWS: i64 = 10;

/// `t (id, grp, v)` with `grp = id`, `v = 0` and an index on `grp`; the
/// record key of each id.
fn lazy_set_fixture(rows: i64) -> (Arc<Database>, Vec<RecordKey>) {
    let db = starburst_dmx::open_default().unwrap();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, grp INT NOT NULL, v INT NOT NULL)")
        .unwrap();
    db.execute_sql("CREATE INDEX t_grp ON t USING btree (grp)")
        .unwrap();
    let rel = db.catalog().get_by_name("t").unwrap().id;
    let keys = db
        .with_txn(|txn| {
            (0..rows)
                .map(|i| {
                    let rec = Record::new(vec![Value::Int(i), Value::Int(i), Value::Int(0)]);
                    db.insert(txn, rel, rec)
                })
                .collect()
        })
        .unwrap();
    (db, keys)
}

/// The two paths under test, each with a filter a writer can push a row
/// out of: the heap scan with the pushed predicate `v = 0`, the index
/// scan over `grp < 1000`.
fn open_filtered(
    db: &Arc<Database>,
    txn: &Arc<starburst_dmx::txn::Transaction>,
    index: bool,
) -> starburst_dmx::types::ScanId {
    let rd = db.catalog().get_by_name("t").unwrap();
    if !index {
        let v_is_0 = Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Column(2)),
            Box::new(Expr::Const(Value::Int(0))),
        );
        let path = AccessPath::StorageMethod;
        return db
            .open_scan(txn, rd.id, path, AccessQuery::All, Some(v_is_0), None)
            .unwrap();
    }
    let (att, inst) = rd.find_attachment("t_grp").unwrap();
    let below_1000 = AccessQuery::Range(KeyRange {
        lo: std::ops::Bound::Unbounded,
        hi: std::ops::Bound::Excluded(encode_values(&[Value::Int(1000)])),
    });
    let path = AccessPath::Attachment(att, inst.instance);
    db.open_scan(txn, rd.id, path, below_1000, None, None)
        .unwrap()
}

/// Pulls two items, lets `interfere` act (it may leave a writer's
/// transaction open by returning its session), then drains the scan — by
/// steps or by frames. Returns the ids in arrival order and how many
/// delta sweeps found something; every item must carry its record's
/// image as of the scan's snapshot.
fn scan_around(
    index: bool,
    frames: bool,
    interfere: impl FnOnce(&Arc<Database>) -> Option<Session>,
) -> (Vec<i64>, u64) {
    let (db, keys) = lazy_set_fixture(ROWS);
    let sweeps = || db.metrics_snapshot().counter("scan.delta_sweeps");
    let before = sweeps();
    let txn = db.begin();
    txn.set_snapshot_reads(true);
    let scan = open_filtered(&db, &txn, index);
    let mut items: Vec<ScanItem> = Vec::new();
    for _ in 0..2 {
        items.push(db.scan_next(&txn, scan).unwrap().unwrap());
    }
    let writer = interfere(&db);
    let mut frame = Frame::new();
    loop {
        if frames {
            db.scan_next_frame(&txn, scan, &mut frame).unwrap();
        } else {
            frame.extend(db.scan_next(&txn, scan).unwrap());
        }
        if frame.is_empty() {
            break;
        }
        items.extend(frame.drain(..));
    }
    let locks = db.metrics_snapshot().counter("lock.acquires");
    assert!(db.scan_next(&txn, scan).unwrap().is_none(), "stays drained");
    assert_eq!(db.metrics_snapshot().counter("lock.acquires"), locks);
    db.commit(&txn).unwrap();
    if let Some(w) = writer {
        w.execute("ROLLBACK").unwrap();
    }
    let ids = items
        .iter()
        .map(|it| {
            let id = keys.iter().position(|k| *k == it.key).expect("a key of t") as i64;
            let image = match index {
                true => vec![Value::Int(id)],
                false => vec![Value::Int(id), Value::Int(id), Value::Int(0)],
            };
            assert_eq!(it.values.as_ref(), Some(&image), "snapshot image of {id}");
            id
        })
        .collect();
    (ids, sweeps() - before)
}

fn each_once(mut ids: Vec<i64>) {
    ids.sort_unstable();
    assert_eq!(ids, (0..ROWS).collect::<Vec<_>>(), "every row exactly once");
}

/// (a) A row goes by while it has no chain — nothing is hashed, nothing
/// looked up — and is then updated and committed by another session, so
/// that it does have one when the sweep lists the relation's chains: the
/// visible image still qualifies, and only the record of what was
/// surfaced keeps it from coming out a second time.
#[test]
fn a_row_surfaced_before_it_had_a_chain_is_not_swept_up_again() {
    for (index, frames) in [(false, false), (false, true), (true, false), (true, true)] {
        let (ids, sweeps) = scan_around(index, frames, |db| {
            db.execute_sql("UPDATE t SET v = 7 WHERE id = 0").unwrap();
            None
        });
        assert_eq!(ids, (0..ROWS).collect::<Vec<_>>(), "index={index}");
        assert_eq!(sweeps, 0, "the sweep had nothing to add");
    }
}

/// (b) An in-flight writer changes a row ahead of the position so that
/// what lies in the page (or the index) no longer passes the scan's own
/// filter: the inner scan drops it without a word, and the sweep
/// re-derives it, once, from its chain.
#[test]
fn a_row_an_in_flight_writer_pushed_out_of_the_filter_is_re_derived_once() {
    for (index, frames) in [(false, false), (false, true), (true, false), (true, true)] {
        let (ids, sweeps) = scan_around(index, frames, |db| {
            let w = Session::new(db.clone());
            w.execute("BEGIN").unwrap();
            let sql = match index {
                true => "UPDATE t SET grp = 5000 WHERE id = 7",
                false => "UPDATE t SET v = 1 WHERE id = 7",
            };
            assert_eq!(w.execute(sql).unwrap().rows[0][0], Value::Int(1));
            Some(w)
        });
        assert_eq!(ids.last(), Some(&7), "after the regular stream");
        each_once(ids);
        assert_eq!(sweeps, 1);
    }
}

/// (c) A row ahead of the position deleted by an in-flight writer comes
/// back with its snapshot image.
#[test]
fn a_row_an_in_flight_writer_deleted_comes_back_from_its_chain() {
    for (index, frames) in [(false, false), (false, true), (true, false), (true, true)] {
        let (ids, sweeps) = scan_around(index, frames, |db| {
            let w = Session::new(db.clone());
            w.execute("BEGIN").unwrap();
            w.execute("DELETE FROM t WHERE id = 8").unwrap();
            Some(w)
        });
        assert_eq!(ids.last(), Some(&8));
        each_once(ids);
        assert_eq!(sweeps, 1);
    }
}

/// (d) The twin of `snapshot_scan_never_duplicates_a_relocated_record`
/// on an index of many leaves, drained by frames: the entry of a record
/// already surfaced moves into the last leaf, so it comes up again in a
/// later frame than the one that showed it first — with a chain, which
/// is what makes the scan look it up in what it surfaced.
#[test]
fn snapshot_scan_never_duplicates_a_record_relocated_across_leaves() {
    let rows = 3000;
    let (db, keys) = lazy_set_fixture(rows);
    let rd = db.catalog().get_by_name("t").unwrap();
    let (att, inst) = rd.find_attachment("t_grp").unwrap();
    let txn = db.begin();
    txn.set_snapshot_reads(true);
    let path = AccessPath::Attachment(att, inst.instance);
    let scan = db
        .open_scan(&txn, rd.id, path, AccessQuery::All, None, None)
        .unwrap();
    let mut seen = vec![db.scan_next(&txn, scan).unwrap().unwrap()];
    assert_eq!(seen[0].key, keys[0]);
    db.execute_sql("UPDATE t SET grp = 1000000 WHERE id = 0")
        .unwrap();
    let (mut frame, mut frames) = (Frame::new(), 0);
    loop {
        db.scan_next_frame(&txn, scan, &mut frame).unwrap();
        if frame.is_empty() {
            break;
        }
        frames += 1;
        seen.extend(frame.drain(..));
    }
    db.commit(&txn).unwrap();
    assert!(frames > 2, "the index has several leaves: {frames} frames");
    let got: Vec<&RecordKey> = seen.iter().map(|it| &it.key).collect();
    assert_eq!(got, keys.iter().collect::<Vec<_>>(), "each once, in order");
    assert_eq!(
        seen[0].values,
        Some(vec![Value::Int(0)]),
        "as of the snapshot"
    );
}

/// (e) A scan re-bound to another range starts over as a snapshot scan
/// too. What it surfaced under the first binding is forgotten — a row
/// that comes up again *with a chain* is looked up in what this binding
/// surfaced, and a row the sweep lists is held against it — and the
/// sweep after the second binding re-derives that binding's rows only.
#[test]
fn a_rebound_scan_forgets_what_it_surfaced_and_sweeps_its_new_range_only() {
    let id_in = |lo: i64, hi: i64| {
        let cmp = |op, v| {
            Expr::Cmp(
                op,
                Box::new(Expr::Column(0)),
                Box::new(Expr::Const(Value::Int(v))),
            )
        };
        cmp(CmpOp::Ge, lo).and(cmp(CmpOp::Lt, hi))
    };
    let grp_in = |lo: i64, hi: i64| {
        AccessQuery::Range(KeyRange {
            lo: std::ops::Bound::Included(encode_values(&[Value::Int(lo)])),
            hi: std::ops::Bound::Excluded(encode_values(&[Value::Int(hi)])),
        })
    };
    for (index, frames) in [(false, false), (false, true), (true, false), (true, true)] {
        let (db, keys) = lazy_set_fixture(ROWS);
        let sweeps = || db.metrics_snapshot().counter("scan.delta_sweeps");
        let before = sweeps();
        let txn = db.begin();
        txn.set_snapshot_reads(true);
        let scan = open_filtered(&db, &txn, index);
        let drain = || {
            let (mut ids, mut frame) = (Vec::new(), Frame::new());
            loop {
                if frames {
                    db.scan_next_frame(&txn, scan, &mut frame).unwrap();
                } else {
                    frame.extend(db.scan_next(&txn, scan).unwrap());
                }
                if frame.is_empty() {
                    return ids;
                }
                for it in frame.drain(..) {
                    let id = keys.iter().position(|k| *k == it.key).expect("a key of t") as i64;
                    let image = match index {
                        true => vec![Value::Int(id)],
                        false => vec![Value::Int(id), Value::Int(id), Value::Int(0)],
                    };
                    assert_eq!(it.values, Some(image), "snapshot image of {id}");
                    ids.push(id);
                }
            }
        };
        // the first binding surfaces every row
        assert_eq!(drain(), (0..ROWS).collect::<Vec<_>>());
        assert_eq!(sweeps(), before, "nobody had written anything");

        // an in-flight writer gives three rows chains: 4 stays where it
        // is, 3 and 8 leave page and index
        let w = Session::new(db.clone());
        w.execute("BEGIN").unwrap();
        w.execute("UPDATE t SET v = 1 WHERE id = 4").unwrap();
        w.execute("DELETE FROM t WHERE id = 3").unwrap();
        w.execute("DELETE FROM t WHERE id = 8").unwrap();

        // the second binding: rows 2, 3 and 4
        let rebound = match index {
            true => db.scan_rebind(&txn, scan, &grp_in(2, 5), None),
            false => db.scan_rebind(&txn, scan, &AccessQuery::All, Some(&id_in(2, 5))),
        };
        assert!(rebound.unwrap(), "both paths re-bind");
        // 2 as read; 4 looked up — it has a chain — and not found among
        // what *this* binding surfaced; 3 from the sweep, which drops 8
        assert_eq!(drain(), vec![2, 4, 3], "index {index} frames {frames}");
        assert_eq!(sweeps() - before, 1);
        db.commit(&txn).unwrap();
        w.execute("ROLLBACK").unwrap();
    }
}
