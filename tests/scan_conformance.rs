//! Scan conformance of every access path built on the two shared
//! cursors: the slotted-file RID scan (heap, read-only storage) and the
//! tree range cursor (B-tree storage; B-tree, hash, aggregate and
//! join-index attachments).
//!
//! Each case loads the same rows, states what its path should serve as a
//! `BTreeMap` model (query key → items in scan order) and is run through
//! the dispatcher's scans, locking and snapshot alike:
//!
//! * all / inclusive / exclusive / empty ranges (exact-key probes for the
//!   hash index, the full scan for the join index);
//! * a position saved at a savepoint is the position `ROLLBACK TO`
//!   resumes at;
//! * deleting the item at the current position leaves the scan just
//!   after it;
//! * pulled a frame at a time (`scan_next_frame`) a scan hands out the
//!   same items in the same order as stepped, in any mixture of the
//!   two; a savepoint taken inside a page's worth of items resumes at
//!   the next item; an item later in the same page that is deleted is
//!   gone under locking and still its snapshot image under snapshot;
//! * re-bound to another query (`scan_rebind`) a scan serves what a fresh
//!   scan of that query serves, by step and by frame; a position saved
//!   before a re-bind is refused after it; a locking scan keeps the range
//!   locks of its earlier bindings;
//! * for the two gap-locking paths, the locks each step takes — read
//!   back through `sys.locks` — are the record-then-gap pair of every
//!   entry passed, the boundary pair (or the EOF gap) once, and the same
//!   sequence again, as re-grants, after a position restore.

// Examples and integration-test harnesses are exempt from the runtime
// panic discipline: failures here should abort loudly.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::Arc;

use starburst_dmx::core::{Frame, KeyRange, ScanItem};
use starburst_dmx::lock::LockName;
use starburst_dmx::prelude::*;
use starburst_dmx::txn::Transaction;
use starburst_dmx::types::key::encode_values;
use starburst_dmx::types::FileId;

/// One loaded row of `t`: record key, `id`, `v`.
type Row = (RecordKey, i64, i64);
/// What a path serves: query key → its items, in scan order.
type Model = BTreeMap<Vec<u8>, Vec<ScanItem>>;

const ROWS: i64 = 12;
const GROUPS: i64 = 4;
/// `u.id` values: the rows of `t` with these `v` have a join partner.
const PARTNERS: [i64; 2] = [1, 2];

/// Which queries a path answers.
enum Queries {
    /// Key ranges over the model's keys.
    Ranges,
    /// One exact key at a time.
    ExactKeys,
    /// The full scan only.
    AllOnly,
}

struct Case {
    name: &'static str,
    ddl: &'static [&'static str],
    /// The attachment on `t` to scan; `None` = the storage method.
    attachment: Option<&'static str>,
    model: fn(&[Row], &[Row]) -> Model,
    queries: Queries,
    /// `None` = the path cannot delete.
    remove: Option<Remove>,
}

/// Removes the entry behind a scan item of `t`.
type Remove = fn(&Arc<Database>, &Arc<Transaction>, RelationId, &ScanItem, &[Row]);

const HEAP_T: &str = "CREATE TABLE t (id INT NOT NULL, v INT NOT NULL)";

fn enc(v: i64) -> Vec<u8> {
    encode_values(&[Value::Int(v)])
}

fn item(key: &RecordKey, values: Vec<Value>) -> ScanItem {
    ScanItem {
        key: key.clone(),
        values: Some(values),
    }
}

/// Storage-method scans: one full record per record key.
fn records(rows: &[Row], _: &[Row]) -> Model {
    rows.iter()
        .map(|(k, id, v)| {
            let it = item(k, vec![Value::Int(*id), Value::Int(*v)]);
            (k.as_bytes().to_vec(), vec![it])
        })
        .collect()
}

/// Index scans on `v`: per value, the record keys in key order, each
/// with the covered value.
fn index_on_v(rows: &[Row], _: &[Row]) -> Model {
    let mut sorted = rows.to_vec();
    sorted.sort_by(|a, b| a.0.as_bytes().cmp(b.0.as_bytes()));
    let mut m = Model::new();
    for (k, _, v) in &sorted {
        m.entry(enc(*v))
            .or_default()
            .push(item(k, vec![Value::Int(*v)]));
    }
    m
}

/// Aggregate scans: one `(group, count, sum(id))` summary per `v`.
fn groups(rows: &[Row], _: &[Row]) -> Model {
    let mut cells: BTreeMap<i64, (i64, f64)> = BTreeMap::new();
    for (_, id, v) in rows {
        let c = cells.entry(*v).or_default();
        c.0 += 1;
        c.1 += *id as f64;
    }
    cells
        .into_iter()
        .map(|(v, (count, sum))| {
            let values = vec![Value::Int(v), Value::Int(count), Value::Float(sum)];
            (enc(v), vec![item(&RecordKey::new(enc(v)), values)])
        })
        .collect()
}

/// Join-index scans: `(t key, u key)` pairs in `(v, t key, u key)` order.
fn pairs(rows: &[Row], partners: &[Row]) -> Model {
    let mut m = Model::new();
    for (lk, _, v) in rows {
        for (rk, _, _) in partners.iter().filter(|p| p.1 == *v) {
            let key = [enc(*v), lk.as_bytes().to_vec(), rk.as_bytes().to_vec()].concat();
            let values = vec![Value::Bytes(rk.as_bytes().to_vec())];
            m.insert(key, vec![item(lk, values)]);
        }
    }
    m
}

fn delete_record(
    db: &Arc<Database>,
    txn: &Arc<Transaction>,
    rel: RelationId,
    item: &ScanItem,
    _: &[Row],
) {
    db.delete(txn, rel, &item.key).unwrap();
}

/// An aggregate item goes away with the last record of its group.
fn delete_group(
    db: &Arc<Database>,
    txn: &Arc<Transaction>,
    rel: RelationId,
    item: &ScanItem,
    rows: &[Row],
) {
    for (k, _, _) in rows.iter().filter(|r| enc(r.2) == item.key.as_bytes()) {
        db.delete(txn, rel, k).unwrap();
    }
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "heap",
            ddl: &[HEAP_T],
            attachment: None,
            model: records,
            queries: Queries::Ranges,
            remove: Some(delete_record),
        },
        Case {
            name: "readonly",
            ddl: &["CREATE TABLE t (id INT NOT NULL, v INT NOT NULL) USING readonly"],
            attachment: None,
            model: records,
            queries: Queries::Ranges,
            remove: None, // write-once
        },
        Case {
            name: "btree storage",
            ddl: &["CREATE TABLE t (id INT NOT NULL, v INT NOT NULL) USING btree WITH (key = id)"],
            attachment: None,
            model: records,
            queries: Queries::Ranges,
            remove: Some(delete_record),
        },
        Case {
            name: "btree index",
            ddl: &[HEAP_T, "CREATE INDEX t_x ON t (v)"],
            attachment: Some("t_x"),
            model: index_on_v,
            queries: Queries::Ranges,
            remove: Some(delete_record),
        },
        Case {
            name: "hash index",
            ddl: &[HEAP_T, "CREATE INDEX t_x ON t USING hash (v)"],
            attachment: Some("t_x"),
            model: index_on_v,
            queries: Queries::ExactKeys,
            remove: Some(delete_record),
        },
        Case {
            name: "aggregate",
            ddl: &[
                HEAP_T,
                "CREATE ATTACHMENT t_x ON t USING aggregate WITH (sum = id, group_by = v)",
            ],
            attachment: Some("t_x"),
            model: groups,
            queries: Queries::Ranges,
            remove: Some(delete_group),
        },
        Case {
            name: "join index",
            ddl: &[
                HEAP_T,
                "CREATE TABLE u (id INT NOT NULL, v INT NOT NULL)",
                "CREATE ATTACHMENT t_x ON t USING joinindex WITH (side=left, fields=v)",
                "CREATE ATTACHMENT t_x ON u USING joinindex WITH (side=right, fields=id, other=t)",
            ],
            attachment: Some("t_x"),
            model: pairs,
            queries: Queries::AllOnly,
            remove: Some(delete_record),
        },
    ]
}

/// A database with the case's DDL applied and the rows loaded.
struct Fixture {
    db: Arc<Database>,
    rel: RelationId,
    path: AccessPath,
    rows: Vec<Row>,
    partners: Vec<Row>,
}

fn load(db: &Arc<Database>, table: &str, ids: impl Iterator<Item = i64>) -> Vec<Row> {
    let Ok(rd) = db.catalog().get_by_name(table) else {
        return Vec::new();
    };
    db.with_txn(|txn| {
        ids.map(|id| {
            let v = id % GROUPS;
            let rec = Record::new(vec![Value::Int(id), Value::Int(v)]);
            Ok((db.insert(txn, rd.id, rec)?, id, v))
        })
        .collect()
    })
    .unwrap()
}

fn fixture(case: &Case) -> Fixture {
    let db = starburst_dmx::open_default().unwrap();
    for stmt in case.ddl {
        db.execute_sql(stmt).unwrap();
    }
    let partners = load(&db, "u", PARTNERS.into_iter());
    let rows = load(&db, "t", 0..ROWS);
    let rd = db.catalog().get_by_name("t").unwrap();
    let path = match case.attachment {
        None => AccessPath::StorageMethod,
        Some(name) => {
            let (att, inst) = rd.find_attachment(name).unwrap();
            AccessPath::Attachment(att, inst.instance)
        }
    };
    Fixture {
        db,
        rel: rd.id,
        path,
        rows,
        partners,
    }
}

impl Fixture {
    fn begin(&self, snapshot: bool) -> Arc<Transaction> {
        let txn = self.db.begin();
        txn.set_snapshot_reads(snapshot);
        txn
    }

    fn open(&self, txn: &Arc<Transaction>, query: &AccessQuery) -> starburst_dmx::types::ScanId {
        self.db
            .open_scan(txn, self.rel, self.path, query.clone(), None, None)
            .unwrap()
    }

    fn drain(&self, txn: &Arc<Transaction>, query: &AccessQuery) -> Vec<ScanItem> {
        let scan = self.open(txn, query);
        let mut out = Vec::new();
        while let Some(it) = self.db.scan_next(txn, scan).unwrap() {
            out.push(it);
        }
        out
    }

    /// What is left of `scan`, by frame or by step.
    fn drain_from(
        &self,
        txn: &Arc<Transaction>,
        scan: starburst_dmx::types::ScanId,
        frames: bool,
    ) -> Vec<ScanItem> {
        if frames {
            return drain_frames(self, txn, scan);
        }
        let mut out = Vec::new();
        while let Some(it) = self.db.scan_next(txn, scan).unwrap() {
            out.push(it);
        }
        out
    }
}

/// The queries to run against `model`, each with the items it must
/// return.
fn queries(kind: &Queries, model: &Model) -> Vec<(AccessQuery, Vec<ScanItem>)> {
    let keys: Vec<&Vec<u8>> = model.keys().collect();
    let within = |r: &KeyRange| -> Vec<ScanItem> {
        model
            .iter()
            .filter(|(k, _)| r.contains(k))
            .flat_map(|(_, items)| items.clone())
            .collect()
    };
    let all = (AccessQuery::All, within(&KeyRange::all()));
    match kind {
        Queries::AllOnly => vec![all],
        Queries::ExactKeys => {
            let mut qs: Vec<_> = keys
                .iter()
                .map(|k| (AccessQuery::KeyEquals((*k).clone()), model[*k].clone()))
                .collect();
            qs.push((AccessQuery::KeyEquals(enc(99)), Vec::new()));
            qs
        }
        Queries::Ranges => {
            let (a, b) = (keys[1].clone(), keys[keys.len() - 2].clone());
            let ranges = [
                KeyRange {
                    lo: Bound::Included(a.clone()),
                    hi: Bound::Included(b.clone()),
                },
                KeyRange {
                    lo: Bound::Excluded(a.clone()),
                    hi: Bound::Excluded(b.clone()),
                },
                KeyRange {
                    lo: Bound::Included(b.clone()),
                    hi: Bound::Unbounded,
                },
                // empty: nothing lies strictly between a key and itself
                KeyRange {
                    lo: Bound::Excluded(a.clone()),
                    hi: Bound::Excluded(a),
                },
            ];
            let mut qs = vec![all];
            qs.extend(ranges.into_iter().map(|r| {
                let expect = within(&r);
                (AccessQuery::Range(r), expect)
            }));
            assert!(qs[1].1.len() > qs[2].1.len(), "bounds distinguishable");
            assert!(qs[4].1.is_empty());
            qs
        }
    }
}

#[test]
fn every_path_serves_its_ranges_positions_and_deletes() {
    for case in cases() {
        let fx = fixture(&case);
        let model = (case.model)(&fx.rows, &fx.partners);
        let qs = queries(&case.queries, &model);
        // the query the position checks run on: the first with 3+ items
        let (long_q, stream) = qs
            .iter()
            .find(|(_, items)| items.len() >= 3)
            .expect("a query with three items");

        for snapshot in [false, true] {
            let mode = if snapshot { "snapshot" } else { "locking" };
            let txn = fx.begin(snapshot);
            for (q, expect) in &qs {
                assert_eq!(&fx.drain(&txn, q), expect, "{} {mode} {q:?}", case.name);
            }

            // savepoint → advance → ROLLBACK TO resumes at the saved item
            let scan = fx.open(&txn, long_q);
            assert_eq!(
                fx.db.scan_next(&txn, scan).unwrap().as_ref(),
                Some(&stream[0])
            );
            fx.db.savepoint(&txn, "sp").unwrap();
            while fx.db.scan_next(&txn, scan).unwrap().is_some() {}
            fx.db.rollback_to_savepoint(&txn, "sp").unwrap();
            let mut resumed = Vec::new();
            while let Some(it) = fx.db.scan_next(&txn, scan).unwrap() {
                resumed.push(it);
            }
            assert_eq!(resumed, stream[1..], "{} {mode} resume", case.name);
            fx.db.commit(&txn).unwrap();
        }

        // deleting the item at the current position leaves the scan just
        // after it
        if let Some(remove) = case.remove {
            let txn = fx.begin(false);
            let scan = fx.open(&txn, long_q);
            fx.db.scan_next(&txn, scan).unwrap().unwrap();
            let on = fx.db.scan_next(&txn, scan).unwrap().unwrap();
            assert_eq!(on, stream[1]);
            remove(&fx.db, &txn, fx.rel, &on, &fx.rows);
            let mut rest = Vec::new();
            while let Some(it) = fx.db.scan_next(&txn, scan).unwrap() {
                rest.push(it);
            }
            assert_eq!(rest, stream[2..], "{} after delete", case.name);
            assert!(!fx.drain(&txn, long_q).contains(&on), "{}", case.name);
            fx.db.abort(&txn).unwrap();
        }
    }
}

// ---------------------------------------------------------------------
// frames: the same items, positions and deletes as stepping
// ---------------------------------------------------------------------

/// The paths whose scans read a snapshot without locks; the others run
/// the locking protocol in a snapshot transaction too.
const VERSIONED: [&str; 5] = [
    "heap",
    "readonly",
    "btree storage",
    "btree index",
    "hash index",
];

/// Drains what is left of `scan` a frame at a time.
fn drain_frames(
    fx: &Fixture,
    txn: &Arc<Transaction>,
    scan: starburst_dmx::types::ScanId,
) -> Vec<ScanItem> {
    let mut out = Vec::new();
    let mut frame = Frame::new();
    loop {
        fx.db.scan_next_frame(txn, scan, &mut frame).unwrap();
        if frame.is_empty() {
            return out;
        }
        out.extend(frame.drain(..));
    }
}

fn sorted(mut items: Vec<ScanItem>) -> Vec<ScanItem> {
    items.sort_by(|a, b| a.key.as_bytes().cmp(b.key.as_bytes()));
    items
}

#[test]
fn frames_change_nothing_observable() {
    for case in cases() {
        let fx = fixture(&case);
        let model = (case.model)(&fx.rows, &fx.partners);
        let qs = queries(&case.queries, &model);
        let (long_q, stream) = qs
            .iter()
            .find(|(_, items)| items.len() >= 3)
            .expect("a query with three items");
        let last = stream.len() - 1;

        for snapshot in [false, true] {
            let mode = if snapshot { "snapshot" } else { "locking" };
            let what = format!("{} {mode}", case.name);
            let txn = fx.begin(snapshot);
            // frame by frame, item by item: the same items in the same
            // order, and every frame but the end of the scan has some
            for (q, expect) in &qs {
                let scan = fx.open(&txn, q);
                assert_eq!(&drain_frames(&fx, &txn, scan), expect, "{what} {q:?}");
                // exhausted stays exhausted, for either way of asking
                assert!(drain_frames(&fx, &txn, scan).is_empty());
                assert!(fx.db.scan_next(&txn, scan).unwrap().is_none());
                // a step, the rest as frames, and the other way round
                let scan = fx.open(&txn, q);
                let mut mixed: Vec<_> = fx.db.scan_next(&txn, scan).unwrap().into_iter().collect();
                mixed.extend(drain_frames(&fx, &txn, scan));
                assert_eq!(&mixed, expect, "{what} step then frames {q:?}");
                let scan = fx.open(&txn, q);
                let mut frame = Frame::new();
                fx.db.scan_next_frame(&txn, scan, &mut frame).unwrap();
                let mut mixed: Vec<_> = frame.drain(..).collect();
                while let Some(it) = fx.db.scan_next(&txn, scan).unwrap() {
                    mixed.push(it);
                }
                assert_eq!(&mixed, expect, "{what} frame then steps {q:?}");
            }

            // A savepoint taken inside a page's worth of items: whatever
            // is pulled after it, by frame or by step, ROLLBACK TO resumes
            // at the item after the saved one — none lost, none twice.
            let scan = fx.open(&txn, long_q);
            let first = fx.db.scan_next(&txn, scan).unwrap();
            assert_eq!(first.as_ref(), Some(&stream[0]));
            fx.db.savepoint(&txn, "mid").unwrap();
            assert_eq!(drain_frames(&fx, &txn, scan), stream[1..], "{what}");
            fx.db.rollback_to_savepoint(&txn, "mid").unwrap();
            fx.db.savepoint(&txn, "again").unwrap();
            let second = fx.db.scan_next(&txn, scan).unwrap();
            assert_eq!(second.as_ref(), Some(&stream[1]), "{what} resume");
            fx.db.rollback_to_savepoint(&txn, "again").unwrap();
            assert_eq!(drain_frames(&fx, &txn, scan), stream[1..], "{what} again");
            fx.db.commit(&txn).unwrap();
        }

        let Some(remove) = case.remove else {
            continue;
        };
        // Locking: the item at the position and one later in the same
        // page are deleted (by the scanning transaction: its own S locks
        // would stop anybody else). The scan is just after the first and
        // never hands out the second — a frame is not a stale copy.
        let txn = fx.begin(false);
        let scan = fx.open(&txn, long_q);
        fx.db.scan_next(&txn, scan).unwrap().unwrap();
        let on = fx.db.scan_next(&txn, scan).unwrap().unwrap();
        assert_eq!(on, stream[1]);
        remove(&fx.db, &txn, fx.rel, &on, &fx.rows);
        remove(&fx.db, &txn, fx.rel, &stream[last], &fx.rows);
        assert_eq!(
            drain_frames(&fx, &txn, scan),
            stream[2..last],
            "{} locking after deletes",
            case.name
        );
        fx.db.abort(&txn).unwrap();

        // Snapshot: another session deletes the two and commits; the
        // scan goes on reading its snapshot — the rest of the stream,
        // the deleted later item included (re-derived from its version,
        // so possibly out of key order).
        if VERSIONED.contains(&case.name) {
            let txn = fx.begin(true);
            let scan = fx.open(&txn, long_q);
            fx.db.scan_next(&txn, scan).unwrap().unwrap();
            let on = fx.db.scan_next(&txn, scan).unwrap().unwrap();
            assert_eq!(on, stream[1]);
            let locks = fx.db.metrics_snapshot().counter("lock.acquires");
            fx.db
                .with_txn(|other| {
                    remove(&fx.db, other, fx.rel, &on, &fx.rows);
                    remove(&fx.db, other, fx.rel, &stream[last], &fx.rows);
                    Ok(())
                })
                .unwrap();
            let locks = fx.db.metrics_snapshot().counter("lock.acquires") - locks;
            assert!(locks > 0, "the deleter locked, the reader did not wait");
            assert_eq!(
                sorted(drain_frames(&fx, &txn, scan)),
                sorted(stream[2..].to_vec()),
                "{} snapshot after deletes",
                case.name
            );
            // a new snapshot sees them gone
            fx.db.commit(&txn).unwrap();
            let txn = fx.begin(true);
            let left = fx.drain(&txn, long_q);
            assert!(!left.contains(&on) && !left.contains(&stream[last]));
            assert_eq!(left.len(), stream.len() - 2, "{}", case.name);
            fx.db.commit(&txn).unwrap();
        }
    }
}

// ---------------------------------------------------------------------
// re-binding: the other query, as a fresh scan would serve it
// ---------------------------------------------------------------------

#[test]
fn a_rebound_scan_is_a_fresh_scan_of_the_other_query() {
    for case in cases() {
        let fx = fixture(&case);
        let model = (case.model)(&fx.rows, &fx.partners);
        let qs = queries(&case.queries, &model);
        let (long_q, stream) = qs
            .iter()
            .find(|(_, items)| items.len() >= 3)
            .expect("a query with three items");

        for snapshot in [false, true] {
            let mode = if snapshot { "snapshot" } else { "locking" };
            let txn = fx.begin(snapshot);
            for (from, _) in &qs {
                for (to, expect) in &qs {
                    for frames in [false, true] {
                        let what = format!("{} {mode} {from:?} -> {to:?}", case.name);
                        // part of the first query drained, then the other
                        let scan = fx.open(&txn, from);
                        fx.db.scan_next(&txn, scan).unwrap();
                        assert!(fx.db.scan_rebind(&txn, scan, to, None).unwrap(), "{what}");
                        assert_eq!(&fx.drain_from(&txn, scan, frames), expect, "{what}");
                        // and once more from its exhausted state
                        assert!(fx.db.scan_rebind(&txn, scan, from, None).unwrap());
                        let again = fx.drain_from(&txn, scan, frames);
                        assert_eq!(again, fx.drain(&txn, from), "{what}: back");
                        fx.db.scan_close(&txn, scan);
                    }
                }
            }
            fx.db.commit(&txn).unwrap();

            // A position is one of the binding it was saved under: after
            // a re-bind the key in it belongs to another range, and
            // restoring it is refused rather than read wrongly.
            let txn = fx.begin(snapshot);
            let scan = fx.open(&txn, long_q);
            assert_eq!(
                fx.db.scan_next(&txn, scan).unwrap().as_ref(),
                Some(&stream[0])
            );
            fx.db.savepoint(&txn, "before").unwrap();
            assert!(fx.db.scan_rebind(&txn, scan, &qs[0].0, None).unwrap());
            fx.db.savepoint(&txn, "after").unwrap();
            fx.db.scan_next(&txn, scan).unwrap();
            // saved under this binding: restored
            fx.db.rollback_to_savepoint(&txn, "after").unwrap();
            assert_eq!(
                fx.drain_from(&txn, scan, false),
                qs[0].1,
                "{} {mode}",
                case.name
            );
            let err = fx.db.rollback_to_savepoint(&txn, "before").unwrap_err();
            assert!(
                matches!(err, DmxError::InvalidArg(_)),
                "{} {mode}: {err}",
                case.name
            );
            fx.db.abort(&txn).unwrap();
        }
    }
}

/// Under locking, what the first binding's range fenced stays fenced: the
/// re-bound scan holds its earlier record and gap locks to commit.
#[test]
fn a_rebound_locking_scan_keeps_the_range_locks_it_took() {
    for name in ["btree storage", "btree index"] {
        let all = cases();
        let case = all.iter().find(|c| c.name == name).unwrap();
        let fx = fixture(case);
        let model = (case.model)(&fx.rows, &fx.partners);
        let keys: Vec<&Vec<u8>> = model.keys().collect();
        let range = |lo: &Vec<u8>, hi: &Vec<u8>| {
            AccessQuery::Range(KeyRange {
                lo: Bound::Included(lo.clone()),
                hi: Bound::Included(hi.clone()),
            })
        };
        let txn = fx.begin(false);
        let scan = fx.open(&txn, &range(keys[0], keys[1]));
        let first = fx.drain_from(&txn, scan, false);
        assert!(!first.is_empty());
        let fenced = held(&fx.db, &txn);
        assert!(
            fenced.iter().any(|l| l.starts_with("gap(")),
            "{name}: {fenced:?}"
        );
        let last = keys.len() - 1;
        assert!(fx
            .db
            .scan_rebind(&txn, scan, &range(keys[last], keys[last]), None)
            .unwrap());
        let second = fx.drain_from(&txn, scan, true);
        assert_eq!(second, model[keys[last]], "{name}");
        let now = held(&fx.db, &txn);
        assert!(
            now.is_superset(&fenced),
            "{name}: {fenced:?} kept in {now:?}"
        );
        assert!(
            now.len() > fenced.len(),
            "{name}: and the second range's added"
        );
        fx.db.commit(&txn).unwrap();
    }
}

// ---------------------------------------------------------------------
// next-key lock sequence of the two gap-locking paths
// ---------------------------------------------------------------------

/// `sys.locks` names of the record lock on `key` and of the gap below
/// tree entry `entry`.
fn lock_pair(rel: RelationId, file: FileId, record: &[u8], entry: &[u8]) -> BTreeSet<String> {
    let name = |n: LockName| match n {
        LockName::Record(r, k) => format!("record({},{k})", r.0),
        LockName::Gap(r, k) => format!("gap({},{k})", r.0),
        other => panic!("unexpected {other:?}"),
    };
    BTreeSet::from([
        name(LockName::record(rel, &RecordKey::new(record.to_vec()))),
        name(LockName::gap(rel, file, Some(entry))),
    ])
}

fn eof_gap(rel: RelationId, file: FileId) -> BTreeSet<String> {
    match LockName::gap(rel, file, None) {
        LockName::Gap(r, k) => BTreeSet::from([format!("gap({},{k})", r.0)]),
        other => panic!("unexpected {other:?}"),
    }
}

/// The S locks `txn` holds, by `sys.locks` name.
fn held(db: &Arc<Database>, txn: &Arc<Transaction>) -> BTreeSet<String> {
    db.query_sql(&format!(
        "SELECT name FROM sys.locks WHERE txn = {} AND mode = 'S' AND state = 'held'",
        txn.id().0
    ))
    .unwrap()
    .into_iter()
    .map(|r| r[0].as_str().unwrap().to_string())
    .collect()
}

/// One `scan_next`: what it returned, which lock names it newly holds,
/// and how many lock requests it made.
fn step(
    fx: &Fixture,
    txn: &Arc<Transaction>,
    scan: starburst_dmx::types::ScanId,
) -> (bool, BTreeSet<String>, u64) {
    let before = held(&fx.db, txn);
    let acquires = fx.db.metrics_snapshot().counter("lock.acquires");
    let got = fx.db.scan_next(txn, scan).unwrap().is_some();
    let acquires = fx.db.metrics_snapshot().counter("lock.acquires") - acquires;
    let new = held(&fx.db, txn).difference(&before).cloned().collect();
    (got, new, acquires)
}

/// Runs a locking scan over `query`, whose in-range tree entries are
/// `entries` (`(record key, tree key)`), followed by `end` — the
/// boundary entry's pair, or the EOF gap.
fn assert_lock_sequence(
    fx: &Fixture,
    file: FileId,
    query: AccessQuery,
    entries: &[(Vec<u8>, Vec<u8>)],
    end: BTreeSet<String>,
) {
    // Per returned item: record S and gap S from the cursor, then the
    // dispatcher's record S re-grant. At the end: the boundary pair, or
    // the EOF gap alone.
    let end_requests = end.len() as u64;
    let none = BTreeSet::new();
    let txn = fx.begin(false);
    let scan = fx.open(&txn, &query);
    for (i, (record, entry)) in entries.iter().enumerate() {
        let pair = lock_pair(fx.rel, file, record, entry);
        assert_eq!(step(fx, &txn, scan), (true, pair, 3), "entry {i}");
        if i == 0 {
            fx.db.savepoint(&txn, "sp").unwrap();
        }
    }
    assert_eq!(step(fx, &txn, scan), (false, end, end_requests), "end");
    assert_eq!(step(fx, &txn, scan), (false, none.clone(), 0), "end once");
    // After a position restore the same sequence is requested again —
    // re-grants, so no new names — the end included.
    fx.db.rollback_to_savepoint(&txn, "sp").unwrap();
    for i in 1..entries.len() {
        assert_eq!(step(fx, &txn, scan), (true, none.clone(), 3), "again {i}");
    }
    assert_eq!(step(fx, &txn, scan), (false, none.clone(), end_requests));
    assert_eq!(step(fx, &txn, scan), (false, none, 0));
    fx.db.commit(&txn).unwrap();
}

#[test]
fn gap_locking_scans_take_the_next_key_lock_sequence() {
    use starburst_dmx::attach::btree_index::IxDesc;
    use starburst_dmx::storage::btree_sm::BtDesc;
    let all = cases();
    let range = |lo: i64, hi: Bound<Vec<u8>>| {
        AccessQuery::Range(KeyRange {
            lo: Bound::Included(enc(lo)),
            hi,
        })
    };

    // B-tree storage: entries are `enc(id) → record`, the record key is
    // the tree key.
    let fx = fixture(all.iter().find(|c| c.name == "btree storage").unwrap());
    let rd = fx.db.catalog().get(fx.rel).unwrap();
    let file = BtDesc::decode(&rd.sm_desc).unwrap().file;
    let entry = |id: i64| (enc(id), enc(id));
    let (b_rec, b_key) = entry(6);
    assert_lock_sequence(
        &fx,
        file,
        range(3, Bound::Included(enc(5))),
        &[entry(3), entry(4), entry(5)],
        lock_pair(fx.rel, file, &b_rec, &b_key),
    );
    assert_lock_sequence(
        &fx,
        file,
        range(ROWS - 2, Bound::Unbounded),
        &[entry(ROWS - 2), entry(ROWS - 1)],
        eof_gap(fx.rel, file),
    );

    // B-tree index on `v`: entries are `enc(v) ∥ record key → record
    // key`, the record key is the value.
    let fx = fixture(all.iter().find(|c| c.name == "btree index").unwrap());
    let rd = fx.db.catalog().get(fx.rel).unwrap();
    let file = IxDesc::decode(&rd.find_attachment("t_x").unwrap().1.desc)
        .unwrap()
        .file;
    let entries = |v: i64| -> Vec<(Vec<u8>, Vec<u8>)> {
        index_on_v(&fx.rows, &[])[&enc(v)]
            .iter()
            .map(|it| {
                let rk = it.key.as_bytes().to_vec();
                (rk.clone(), [enc(v), rk].concat())
            })
            .collect()
    };
    let (b_rec, b_key) = entries(2)[0].clone();
    assert_lock_sequence(
        &fx,
        file,
        range(1, Bound::Included(enc(1))),
        &entries(1),
        lock_pair(fx.rel, file, &b_rec, &b_key),
    );
    assert_lock_sequence(
        &fx,
        file,
        range(GROUPS - 1, Bound::Unbounded),
        &entries(GROUPS - 1),
        eof_gap(fx.rel, file),
    );
}
