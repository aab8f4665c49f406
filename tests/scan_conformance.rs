//! Scan conformance of every access path the conformance kit
//! (`tests/support/kit.rs`) gives scan facts: the storage methods'
//! scans, on the slotted-file RID scan, the tree range cursor or an
//! ordered map, and the B-tree (a unique index, and one whose keys
//! repeat), hash, R-tree, aggregate and join-index attachments'.
//!
//! Each path loads the kit's rows, states what it should serve as a
//! `BTreeMap` model (query key → items in scan order; a path whose
//! items come in tree order is held to the model's items in the order it
//! serves them) and is run through the dispatcher's scans, locking and
//! snapshot alike:
//!
//! * all / inclusive / exclusive / empty ranges (exact-key probes for the
//!   hash index, the full scan for the join index, a window for the
//!   R-tree);
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
//!   locks of its earlier bindings; a path that cannot re-bind refuses;
//! * for the gap-locking paths, the locks each step takes — read
//!   back through `sys.locks` — are the record-then-gap pair of every
//!   entry passed, the boundary pair (or the EOF gap) once, and the same
//!   sequence again, as re-grants, after a position restore;
//! * after updates, every path of the kit's update family serves what
//!   the rows make of it whether each update ran as `update` or as
//!   `delete` then `insert`, and an update of no indexed field logs
//!   nothing for the indexes.

// Examples and integration-test harnesses are exempt from the runtime
// panic discipline: failures here should abort loudly.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod support;

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::Arc;

use starburst_dmx::core::{Frame, KeyRange, ScanItem};
use starburst_dmx::lock::LockName;
use starburst_dmx::prelude::*;
use starburst_dmx::txn::Transaction;
use starburst_dmx::types::key::encode_values;
use starburst_dmx::types::FileId;
use support::kit::{self, Ask, Entry, Items, Queries, Scan, AREA, ID, NOTE, V};

/// One loaded row: record key, fields.
type Row = (RecordKey, Vec<Value>);
/// What a path serves: query key → its items, in scan order.
type Model = BTreeMap<Vec<u8>, Vec<ScanItem>>;

const ROWS: i64 = 12;
/// `u.id` values: the rows of `t` with these `v` have a join partner.
const PARTNERS: [i64; 2] = [1, 2];

fn enc(v: &Value) -> Vec<u8> {
    encode_values(std::slice::from_ref(v))
}

fn item(key: &RecordKey, values: Vec<Value>) -> ScanItem {
    ScanItem {
        key: key.clone(),
        values: Some(values),
    }
}

/// What a path of `items` serves over `rows` of `t` and `partners` of `u`.
fn model(items: Items, rows: &[Row], partners: &[Row]) -> Model {
    let mut m = Model::new();
    let mut sorted = rows.to_vec();
    sorted.sort_by(|a, b| a.0.as_bytes().cmp(b.0.as_bytes()));
    match items {
        // one item per record key: the record, or its area when it has one
        Items::Records | Items::Areas => {
            for (k, row) in rows {
                let values = match items {
                    Items::Areas if row[AREA] == Value::Null => continue,
                    Items::Areas => vec![row[AREA].clone()],
                    _ => row.clone(),
                };
                m.insert(k.as_bytes().to_vec(), vec![item(k, values)]);
            }
        }
        // per value, the record keys in key order, each with the value
        Items::Index(f) => {
            for (k, row) in &sorted {
                let it = item(k, vec![row[f].clone()]);
                m.entry(enc(&row[f])).or_default().push(it);
            }
        }
        // one `(group, count, sum(id))` summary per `v`, NULL a group too
        Items::Groups => {
            let mut cells: BTreeMap<Vec<u8>, (Value, i64, f64)> = BTreeMap::new();
            for (_, row) in rows {
                let c = cells
                    .entry(enc(&row[V]))
                    .or_insert((row[V].clone(), 0, 0.0));
                c.1 += 1;
                c.2 += row[ID].as_int().unwrap() as f64;
            }
            for (key, (v, count, sum)) in cells {
                let values = vec![v, Value::Int(count), Value::Float(sum)];
                m.insert(key.clone(), vec![item(&RecordKey::new(key), values)]);
            }
        }
        // `(t key, u key)` pairs in `(v, t key, u key)` order
        Items::Pairs => {
            for (lk, row) in rows {
                for (rk, _) in partners.iter().filter(|p| p.1[ID] == row[V]) {
                    let key = [enc(&row[V]), lk.as_bytes().to_vec(), rk.as_bytes().to_vec()];
                    let values = vec![Value::Bytes(rk.as_bytes().to_vec())];
                    m.insert(key.concat(), vec![item(lk, values)]);
                }
            }
        }
    }
    m
}

/// Removes the entry behind a scan item of `t`: its record, or for an
/// aggregate's group every record of the group.
fn remove(fx: &Fixture, txn: &Arc<Transaction>, item: &ScanItem) {
    let Items::Groups = fx.scan.items else {
        return fx.db.delete(txn, fx.rel, &item.key).unwrap();
    };
    for (k, _) in fx
        .rows
        .iter()
        .filter(|r| enc(&r.1[V]) == item.key.as_bytes())
    {
        fx.db.delete(txn, fx.rel, k).unwrap();
    }
}

/// A database on the kit's fixture with rows loaded, seen through one
/// entry's path.
#[derive(Clone)]
struct Fixture {
    entry: &'static Entry,
    scan: &'static Scan,
    db: Arc<Database>,
    rel: RelationId,
    path: AccessPath,
    rows: Vec<Row>,
    partners: Vec<Row>,
}

/// The kit's fixture with `entries` on it, `u` holding `partners` and
/// `t` holding `rows`, seen through the first entry's path.
fn fixture(entries: &[&'static Entry], partners: &[i64], rows: Vec<Vec<Value>>) -> Fixture {
    let db = kit::open();
    kit::build(&db, entries.iter().copied());
    let partners = partners.iter().map(|&id| vec![Value::Int(id)]);
    let (partners, rows) = (kit::load(&db, "u", partners), kit::load(&db, "t", rows));
    let (rel, entry) = (db.catalog().get_by_name("t").unwrap().id, entries[0]);
    let (scan, path) = (entry.scan.as_ref().unwrap(), entry.path(&db).0);
    Fixture {
        entry,
        scan,
        db,
        rel,
        path,
        rows,
        partners,
    }
}

/// Every entry the scan family runs, on its fixture: the kit's, and the
/// B-tree index whose keys repeat.
fn fixtures() -> impl Iterator<Item = Fixture> {
    let rows = || (0..ROWS).map(kit::row).collect();
    let entries = kit::running(|e| &e.scan).map(|(e, _)| e);
    let entries = entries.chain([&kit::DUPLICATE_KEYS]);
    entries.map(move |e| fixture(&[e], &PARTNERS, rows()))
}

impl Fixture {
    /// The same database seen through `entry`'s path.
    fn on(&self, entry: &'static Entry) -> Fixture {
        let (scan, path) = (entry.scan.as_ref().unwrap(), entry.path(&self.db).0);
        Fixture {
            entry,
            scan,
            path,
            ..self.clone()
        }
    }

    fn model(&self) -> Model {
        model(self.scan.items, &self.rows, &self.partners)
    }

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
        self.drain_from(txn, scan, false)
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

    /// The queries to run, each with the items it must return.
    fn queries(&self) -> Vec<(AccessQuery, Vec<ScanItem>)> {
        let qs = queries(self.scan.queries, &self.model());
        // Items in tree order: the model's items, as the path orders them.
        let qs: Vec<_> = match self.scan.items {
            Items::Areas => qs
                .into_iter()
                .map(|(q, expect)| {
                    let txn = self.begin(false);
                    let got = self.drain(&txn, &q);
                    self.db.commit(&txn).unwrap();
                    assert_eq!(
                        sorted(got.clone()),
                        sorted(expect),
                        "{} {q:?}",
                        self.entry.name
                    );
                    (q, got)
                })
                .collect(),
            _ => qs,
        };
        qs
    }
}

/// The query the position checks run on: the first with three items or
/// more, with its items.
fn long(qs: &[(AccessQuery, Vec<ScanItem>)]) -> (&AccessQuery, &Vec<ScanItem>) {
    let (q, items) = qs
        .iter()
        .find(|(_, items)| items.len() >= 3)
        .expect("a query with three items");
    (q, items)
}

/// The queries to run against `model`, each with the items it must
/// return.
fn queries(kind: Queries, model: &Model) -> Vec<(AccessQuery, Vec<ScanItem>)> {
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
        Queries::Spatial => {
            let window = Rect::new(2.5, 2.5, 4.5, 4.5);
            let hits = model
                .values()
                .flatten()
                .filter(|it| {
                    it.values.as_ref().unwrap()[0]
                        .as_rect()
                        .unwrap()
                        .intersects(&window)
                })
                .cloned()
                .collect();
            let search = AccessQuery::Spatial(SpatialOp::Intersects, window);
            vec![all, (search, hits)]
        }
        Queries::ExactKeys => {
            let mut qs: Vec<_> = keys
                .iter()
                .map(|k| (AccessQuery::KeyEquals((*k).clone()), model[*k].clone()))
                .collect();
            qs.push((AccessQuery::KeyEquals(enc(&Value::Int(99))), Vec::new()));
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
    for fx in fixtures() {
        let qs = fx.queries();
        let (long_q, stream) = long(&qs);

        for snapshot in [false, true] {
            let mode = if snapshot { "snapshot" } else { "locking" };
            let txn = fx.begin(snapshot);
            for (q, expect) in &qs {
                assert_eq!(&fx.drain(&txn, q), expect, "{} {mode} {q:?}", fx.entry.name);
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
            let resumed = fx.drain_from(&txn, scan, false);
            assert_eq!(resumed, stream[1..], "{} {mode} resume", fx.entry.name);
            fx.db.commit(&txn).unwrap();
        }

        // deleting the item at the current position leaves the scan just
        // after it
        if fx.scan.deletes {
            let txn = fx.begin(false);
            let scan = fx.open(&txn, long_q);
            fx.db.scan_next(&txn, scan).unwrap().unwrap();
            let on = fx.db.scan_next(&txn, scan).unwrap().unwrap();
            assert_eq!(on, stream[1]);
            remove(&fx, &txn, &on);
            let rest = fx.drain_from(&txn, scan, false);
            assert_eq!(rest, stream[2..], "{} after delete", fx.entry.name);
            assert!(!fx.drain(&txn, long_q).contains(&on), "{}", fx.entry.name);
            fx.db.abort(&txn).unwrap();
        }
    }
}

// ---------------------------------------------------------------------
// frames: the same items, positions and deletes as stepping
// ---------------------------------------------------------------------

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
    for fx in fixtures() {
        let qs = fx.queries();
        let (long_q, stream) = long(&qs);
        let last = stream.len() - 1;

        for snapshot in [false, true] {
            let mode = if snapshot { "snapshot" } else { "locking" };
            let what = format!("{} {mode}", fx.entry.name);
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
                mixed.extend(fx.drain_from(&txn, scan, false));
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

        if !fx.scan.deletes {
            continue;
        }
        // Locking: the item at the position and one later in the same
        // page are deleted (by the scanning transaction: its own S locks
        // would stop anybody else). The scan is just after the first and
        // never hands out the second — a frame is not a stale copy.
        let txn = fx.begin(false);
        let scan = fx.open(&txn, long_q);
        fx.db.scan_next(&txn, scan).unwrap().unwrap();
        let on = fx.db.scan_next(&txn, scan).unwrap().unwrap();
        assert_eq!(on, stream[1]);
        remove(&fx, &txn, &on);
        remove(&fx, &txn, &stream[last]);
        assert_eq!(
            drain_frames(&fx, &txn, scan),
            stream[2..last],
            "{} locking after deletes",
            fx.entry.name
        );
        fx.db.abort(&txn).unwrap();

        // Snapshot: another session deletes the two and commits; the
        // scan goes on reading its snapshot — the rest of the stream,
        // the deleted later item included (re-derived from its version,
        // so possibly out of key order).
        if fx.scan.versioned {
            let txn = fx.begin(true);
            let scan = fx.open(&txn, long_q);
            fx.db.scan_next(&txn, scan).unwrap().unwrap();
            let on = fx.db.scan_next(&txn, scan).unwrap().unwrap();
            assert_eq!(on, stream[1]);
            let locks = fx.db.metrics_snapshot().counter("lock.acquires");
            fx.db
                .with_txn(|other| {
                    remove(&fx, other, &on);
                    remove(&fx, other, &stream[last]);
                    Ok(())
                })
                .unwrap();
            let locks = fx.db.metrics_snapshot().counter("lock.acquires") - locks;
            assert!(locks > 0, "the deleter locked, the reader did not wait");
            assert_eq!(
                sorted(drain_frames(&fx, &txn, scan)),
                sorted(stream[2..].to_vec()),
                "{} snapshot after deletes",
                fx.entry.name
            );
            // a new snapshot sees them gone
            fx.db.commit(&txn).unwrap();
            let txn = fx.begin(true);
            let left = fx.drain(&txn, long_q);
            assert!(!left.contains(&on) && !left.contains(&stream[last]));
            assert_eq!(left.len(), stream.len() - 2, "{}", fx.entry.name);
            fx.db.commit(&txn).unwrap();
        }
    }
}

// ---------------------------------------------------------------------
// re-binding: the other query, as a fresh scan would serve it
// ---------------------------------------------------------------------

#[test]
fn a_rebound_scan_is_a_fresh_scan_of_the_other_query() {
    for fx in fixtures() {
        let qs = fx.queries();
        let (long_q, stream) = long(&qs);

        for snapshot in [false, true] {
            let mode = if snapshot { "snapshot" } else { "locking" };
            let txn = fx.begin(snapshot);
            if !fx.scan.rebinds {
                // refused: the caller opens a new scan instead
                let scan = fx.open(&txn, long_q);
                let rebound = fx.db.scan_rebind(&txn, scan, &qs[0].0, None).unwrap();
                assert!(!rebound, "{} {mode}", fx.entry.name);
                fx.db.commit(&txn).unwrap();
                continue;
            }
            for (from, _) in &qs {
                for (to, expect) in &qs {
                    for frames in [false, true] {
                        let what = format!("{} {mode} {from:?} -> {to:?}", fx.entry.name);
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
                fx.entry.name
            );
            let err = fx.db.rollback_to_savepoint(&txn, "before").unwrap_err();
            assert!(
                matches!(err, DmxError::InvalidArg(_)),
                "{} {mode}: {err}",
                fx.entry.name
            );
            fx.db.abort(&txn).unwrap();
        }
    }
}

/// The fixtures of the paths that take next-key gap locks, each with its
/// tree-entry fact.
fn gap_locking() -> impl Iterator<Item = (kit::TreeEntry, Fixture)> {
    fixtures().filter_map(|fx| Some((fx.scan.tree_entry?, fx)))
}

/// Under locking, what the first binding's range fenced stays fenced: the
/// re-bound scan holds its earlier record and gap locks to commit.
#[test]
fn a_rebound_locking_scan_keeps_the_range_locks_it_took() {
    for (_, fx) in gap_locking() {
        let name = fx.entry.name;
        let model = fx.model();
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
// update ≡ delete + insert
// ---------------------------------------------------------------------

/// An update is its delete followed by its insert, to every attachment:
/// twin databases carrying every entry the update family runs, one taking
/// `update(k, r')` and the other `delete(k); insert(r')`, each serve from
/// every such entry's path what their rows make of it — every query of
/// the scan family — and publish their row count as statistics.
#[test]
fn update_equals_delete_then_insert_for_every_access_path() {
    let square = |at: f64| Value::Rect(Rect::new(at, at, at + 2.0, at + 2.0));
    let start = |i: i64| {
        let mut r = kit::row(i);
        r[AREA] = square(i as f64);
        r[NOTE] = Value::from("v0");
        r
    };
    let change = |i: usize, edits: &[(usize, Value)]| {
        let mut r = start(i as i64);
        for (field, v) in edits {
            r[*field] = v.clone();
        }
        (i, r)
    };
    let changes = [
        change(0, &[(NOTE, "only the note".into())]),
        change(1, &[(ID, Value::Int(101))]),
        // a value no `u` row has: hash, join and aggregate move
        change(2, &[(V, Value::Int(7))]),
        change(3, &[(AREA, Value::Null), (NOTE, "area to NULL".into())]),
        change(4, &[(V, Value::Null), (NOTE, "v to NULL".into())]),
        change(
            5,
            &[
                (ID, Value::Int(105)),
                (V, Value::Int(7)),
                (AREA, square(50.0)),
                (NOTE, "everything".into()),
            ],
        ),
        // outgrows its page: the update relocates, like a re-insert
        change(6, &[(NOTE, "wide".repeat(2000).as_str().into())]),
    ];
    let entries: Vec<&Entry> = kit::running(|e| &e.update).map(|(e, _)| e).collect();
    let partners: Vec<i64> = (0..kit::GROUPS).collect();
    for reinsert in [false, true] {
        let mut fx = fixture(&entries, &partners, (0..8).map(start).collect());
        fx.db
            .with_txn(|txn| {
                for (i, to) in &changes {
                    let (key, rec) = (&fx.rows[*i].0, Record::new(to.clone()));
                    fx.rows[*i] = match reinsert {
                        false => (fx.db.update(txn, fx.rel, key, rec)?, to.clone()),
                        true => {
                            fx.db.delete(txn, fx.rel, key)?;
                            (fx.db.insert(txn, fx.rel, rec)?, to.clone())
                        }
                    };
                }
                Ok(())
            })
            .unwrap();
        for (entry, ask) in kit::running(|e| &e.update) {
            let what = format!("{} (reinserted: {reinsert})", entry.name);
            let Ask::Scan = ask else {
                let rd = fx.db.catalog().get(fx.rel).unwrap();
                let rows = rd.stats.table_stats().unwrap().rows as usize;
                assert_eq!(rows, fx.rows.len(), "{what}");
                continue;
            };
            let fx = fx.on(entry);
            let txn = fx.begin(false);
            for (q, expect) in fx.queries() {
                assert_eq!(fx.drain(&txn, &q), expect, "{what} {q:?}");
            }
            fx.db.commit(&txn).unwrap();
        }
    }
}

/// "The B-tree update operation should be able to detect when no indexed
/// fields for a given index are modified": an update no access path
/// cares about logs the heap's operation and nothing else. Whatever the
/// indexes log, the update is one log frame: their operations join the
/// heap's record.
#[test]
fn update_of_an_unindexed_field_logs_nothing_for_the_indexes() {
    // the access paths: the update family's entries whose items name
    // records
    let paths: Vec<&Entry> = kit::running(|e| &e.update)
        .filter(|(e, _)| {
            e.scan
                .as_ref()
                .is_ok_and(|s| !matches!(s.items, Items::Groups))
        })
        .map(|(e, _)| e)
        .collect();
    let twins = [paths.clone(), vec![]].map(|entries| {
        let db = kit::open();
        kit::build(&db, entries);
        kit::load(&db, "u", (0..kit::GROUPS).map(|id| vec![Value::Int(id)]));
        let key = kit::load(&db, "t", [kit::row(2)]).remove(0).0;
        (db, key)
    });
    // Operations and records each twin logs for the same update of its
    // one record.
    let logged = |to: Vec<Value>| {
        twins.each_ref().map(|(db, key)| {
            let rel = db.catalog().get_by_name("t").unwrap().id;
            db.with_txn(|txn| {
                let count = || {
                    let snap = db.metrics_snapshot();
                    (snap.counter("wal.ext_ops"), snap.counter("wal.appends"))
                };
                let (ops, frames) = count();
                assert_eq!(&db.update(txn, rel, key, Record::new(to.clone()))?, key);
                let (ops_after, frames_after) = count();
                Ok((ops_after - ops, frames_after - frames))
            })
            .unwrap()
        })
    };
    let mut to = kit::row(2);
    to[NOTE] = Value::from("new note");
    let [indexed, bare] = logged(to.clone());
    assert_eq!(indexed, bare, "no entry changed, so no index may log");
    assert!(bare.0 > 0);
    // Every indexed field changes: each path takes its old entry out and
    // puts the new one in — inside the heap's frame.
    let mut moved = kit::row(7);
    moved[NOTE] = to[NOTE].clone();
    let [indexed, bare] = logged(moved);
    let min = bare.0 + 2 * paths.len() as u64;
    assert!(indexed.0 >= min, "{indexed:?} vs {bare:?}");
    assert_eq!(indexed.1, bare.1, "one frame per update");
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
    for (tree_entry, fx) in gap_locking() {
        let file = fx.entry.path(&fx.db).1[0];
        let model = fx.model();
        let keys: Vec<&Vec<u8>> = model.keys().collect();
        // `(record key, tree entry)` of every item under `keys[n]`
        let entries = |n: usize| -> Vec<(Vec<u8>, Vec<u8>)> {
            model[keys[n]]
                .iter()
                .map(|it| {
                    let rk = it.key.as_bytes().to_vec();
                    (rk.clone(), tree_entry(keys[n], &rk))
                })
                .collect()
        };
        let range = |lo: usize, hi: Bound<Vec<u8>>| {
            AccessQuery::Range(KeyRange {
                lo: Bound::Included(keys[lo].clone()),
                hi,
            })
        };
        // A range that ends before a boundary entry, and one that runs to
        // the end of the tree: over three keys of one entry each, or over
        // one key of a run of entries (the boundary is then the first
        // entry of the next key).
        let (last, run) = (keys.len() - 1, model[keys[1]].len() > 1);
        let (lo, hi, tail) = if run { (1, 1, last) } else { (3, 5, last - 1) };
        let (b_rec, b_key) = entries(hi + 1)[0].clone();
        assert_lock_sequence(
            &fx,
            file,
            range(lo, Bound::Included(keys[hi].clone())),
            &(lo..=hi).flat_map(entries).collect::<Vec<_>>(),
            lock_pair(fx.rel, file, &b_rec, &b_key),
        );
        assert_lock_sequence(
            &fx,
            file,
            range(tail, Bound::Unbounded),
            &(tail..=last).flat_map(entries).collect::<Vec<_>>(),
            eof_gap(fx.rel, file),
        );
    }
}
