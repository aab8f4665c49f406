//! Replay contract of the logged-tree primitive, for every tree-backed
//! extension the conformance kit (`tests/support/kit.rs`) gives replay
//! facts: the attachments that keep trees and the B-tree storage method.
//!
//! One script of real DML runs on each kit entry's fixture, so the
//! extension logs its own records, and its trees are snapshotted into a
//! `BTreeMap` model before and after every statement. The statement's
//! records are then replayed through the extension's `replay` from both
//! physical starting points a crash can leave behind — applied, and
//! logged but never applied:
//!
//! | tree starts | direction | tree must end |
//! |---|---|---|
//! | applied | undo (reverse order) | before-image |
//! | not applied | undo | before-image (nothing to take back) |
//! | not applied | redo (log order) | after-image |
//! | applied | redo | after-image (entry already present) |
//! | the last statement's image | redo of this and every later statement | the last statement's image |
//!
//! and every replay runs twice, because restart may crash and repeat it.
//! The fifth row is redo over an entry that already holds a later image
//! (a DDL commit flushes a new tree before restart replays the records
//! that built it): a patch sets bytes, so each byte ends with what the
//! last record to touch it wrote.

// Examples and integration-test harnesses are exempt from the runtime
// panic discipline: failures here should abort loudly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod support;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use starburst_dmx::attach::rtree::RTree;
use starburst_dmx::btree::{BTree, OnDuplicate};
use starburst_dmx::core::{Replay, TreeFile};
use starburst_dmx::prelude::*;
use starburst_dmx::storage::btree_sm::BtDesc;
use starburst_dmx::types::{Appended, Lsn};
use starburst_dmx::wal::{Compensation, ExtKind, ExtOp, LogRecord};
use support::kit::{self, Entry};

/// `(tree number, key) → value` over every tree of the extension.
type Model = BTreeMap<(usize, Vec<u8>), Vec<u8>>;

/// The extension's trees, reachable without going through it.
enum Trees {
    B(Vec<BTree>),
    R(RTree),
}

impl Trees {
    /// The trees of `entry`'s type on `t`, where the kit says they are.
    fn of(db: &Arc<Database>, entry: &Entry, trees: kit::Trees) -> Trees {
        let rd = db.catalog().get_by_name("t").unwrap();
        let named = || {
            let (_, inst) = rd.find_attachment(entry.instance().unwrap()).unwrap();
            TreeFile::named_in(&AttrList::decode(&inst.desc).unwrap()).unwrap()
        };
        let s = db.services();
        match trees {
            kit::Trees::Storage => {
                let file = BtDesc::decode(&rd.sm_desc).unwrap().tree_file();
                Trees::B(vec![file.open_tree(s)])
            }
            kit::Trees::Named => Trees::B(named().iter().map(|f| f.open_tree(s)).collect()),
            kit::Trees::NamedRTree => Trees::R(RTree::open(&s.pool, named()[0].root(), &s.latches)),
        }
    }

    fn dump(&self) -> Model {
        let mut out = Model::new();
        match self {
            Trees::B(trees) => {
                for (n, tree) in trees.iter().enumerate() {
                    let mut cur = tree.iter_all();
                    while let Some((k, v)) = cur.next().unwrap() {
                        out.insert((n, k), v);
                    }
                }
            }
            Trees::R(tree) => {
                for (rect, rkey) in tree.all().unwrap() {
                    let mut entry = rect.to_bytes().to_vec();
                    entry.extend_from_slice(&rkey);
                    assert!(
                        out.insert((0, entry), Vec::new()).is_none(),
                        "an R-tree entry is held twice"
                    );
                }
            }
        }
        out
    }

    /// Forces the trees into `want` through the named unlogged path —
    /// what a crash does when it loses or keeps page writes.
    fn restore(&self, want: &Model) {
        let forge = Appended::UNLOGGED;
        for ((n, key), _) in self.dump() {
            match self {
                Trees::B(trees) => {
                    trees[n].with_wal_lsn(forge).delete(&key).unwrap();
                }
                Trees::R(tree) => {
                    let rect = Rect::from_bytes(&key).unwrap();
                    assert!(tree.with_wal_lsn(forge).delete(&rect, &key[32..]).unwrap());
                }
            }
        }
        for ((n, key), value) in want {
            match self {
                Trees::B(trees) => trees[*n]
                    .with_wal_lsn(forge)
                    .insert(key, value, OnDuplicate::Error)
                    .unwrap(),
                Trees::R(tree) => tree
                    .with_wal_lsn(forge)
                    .insert(&Rect::from_bytes(key).unwrap(), &key[32..])
                    .unwrap(),
            }
        }
        assert_eq!(&self.dump(), want);
    }
}

/// One statement of the script; `Upd`/`Del` name an earlier `Ins` by
/// its position among the `Ins` steps.
enum Step {
    Ins(&'static str, Vec<Value>),
    Upd(usize, Vec<Value>),
    Del(usize),
}

/// A row of `t`; `None` is NULL.
fn t(id: i64, v: Option<i64>, at: Option<f64>, note: &str) -> Vec<Value> {
    let area = at.map(|x| Value::Rect(Rect::new(x, x, x + 1.0, x + 2.0)));
    vec![
        Value::Int(id),
        v.map_or(Value::Null, Value::Int),
        area.unwrap_or(Value::Null),
        Value::from(note),
    ]
}

/// The script every extension runs: rows of `t` and their partners in
/// `u`, two in one group, one all NULL; updates that keep the record's
/// width and key, that change its width, that fill its NULLs and that
/// move its key, each also moving `v`; deletes on both sides.
fn script() -> Vec<Step> {
    use Step::*;
    vec![
        Ins("u", vec![Value::Int(7)]),
        Ins("t", t(1, Some(7), Some(1.0), "a")),
        Ins("t", t(2, Some(7), Some(5.0), "bb")),
        Ins("t", t(3, None, None, "a")),
        Ins("u", vec![Value::Int(8)]),
        Upd(1, t(1, Some(8), Some(9.0), "c")),
        Upd(1, t(1, Some(9), Some(9.0), "ccc")),
        Upd(3, t(3, Some(3), Some(3.0), "a")),
        Upd(1, t(4, Some(8), Some(9.0), "ccc")),
        Del(0),
        Del(2),
        Del(1),
    ]
}

/// Which way a replay goes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Dir {
    Undo,
    Redo,
}

/// The record that holds a logged operation, and the operation.
type Logged = (LogRecord, ExtOp);

/// Replays `ops` (a statement's operations, in log order) in direction
/// `dir` through the extension that wrote them; an undo is stamped with
/// the operation's record itself for its compensation.
fn replay(db: &Arc<Database>, ops: &[Logged], dir: Dir) {
    let ordered: Vec<&Logged> = match dir {
        Dir::Undo => ops.iter().rev().collect(),
        Dir::Redo => ops.iter().collect(),
    };
    for (rec, op) in ordered {
        let clr = Compensation::repeating(rec);
        let dir = match dir {
            Dir::Undo => Replay::Undo(&clr),
            Dir::Redo => Replay::Redo(Appended::by_log(rec.lsn)),
        };
        let rd = db.catalog().get(op.relation).unwrap();
        let (services, reg) = (db.services(), db.registry());
        let (code, payload) = (op.op, &op.payload);
        match op.ext {
            ExtKind::Attachment(id) => reg
                .attachment(id)
                .unwrap()
                .replay(services, &rd, rec.lsn, dir, code, payload),
            ExtKind::Storage(id) => reg
                .storage(id)
                .unwrap()
                .replay(services, &rd, rec.lsn, dir, code, payload),
        }
        .unwrap();
    }
}

/// The extension's operations the transaction logged after `since`, in
/// log order, and how many records of operations the statement wrote.
fn ops_since(db: &Arc<Database>, last: Lsn, since: Lsn, ext: ExtKind) -> (Vec<Logged>, usize) {
    let mut out = Vec::new();
    let mut records = 0;
    let mut lsn = last;
    while lsn > since {
        let rec = db.services().log.record(lsn).unwrap();
        lsn = rec.prev_lsn;
        records += usize::from(rec.body.has_ext_ops());
        let ops = rec.body.ext_ops().rev().filter(|op| op.ext == ext);
        let owned: Vec<ExtOp> = ops
            .map(|op| ExtOp {
                ext: op.ext,
                relation: op.relation,
                op: op.op,
                payload: op.payload.to_vec(),
            })
            .collect();
        out.extend(owned.into_iter().map(|op| (rec.clone(), op)));
    }
    out.reverse();
    (out, records)
}

fn run(entry: &Entry, facts: &kit::Replay) {
    let name = entry.name;
    let db = kit::open();
    kit::build(&db, [entry]);
    let rd = db.catalog().get_by_name("t").unwrap();
    let ext = match entry.instance() {
        Some(att) => ExtKind::Attachment(rd.find_attachment(att).unwrap().0),
        None => ExtKind::Storage(rd.sm),
    };
    let trees = Trees::of(&db, entry, facts.trees);
    let initial = trees.dump();

    let txn = db.begin();
    let mut keys: Vec<(&str, RecordKey)> = Vec::new();
    let mut seen_ops = BTreeSet::new();
    // Each statement's records, in log order.
    let mut statements = Vec::new();
    for (n, step) in script().iter().enumerate() {
        let before = trees.dump();
        let since = txn.last_lsn();
        let rel = |name: &str| db.catalog().get_by_name(name).unwrap().id;
        match step {
            Step::Ins(r, row) => {
                let key = db.insert(&txn, rel(r), Record::new(row.clone())).unwrap();
                keys.push((r, key));
            }
            Step::Upd(k, row) => {
                let (r, key) = &keys[*k];
                let moved = db.update(&txn, rel(r), key, Record::new(row.clone()));
                keys[*k].1 = moved.unwrap();
            }
            Step::Del(k) => db.delete(&txn, rel(keys[*k].0), &keys[*k].1).unwrap(),
        }
        let after = trees.dump();
        let (recs, records) = ops_since(&db, txn.last_lsn(), since, ext);
        seen_ops.extend(recs.iter().map(|(_, op)| op.op));
        assert_eq!(
            recs.is_empty(),
            before == after,
            "{name} step {n}: the trees change exactly when something is logged"
        );
        // One record per modification: the storage method's change and
        // every attachment's share it (a B-tree relation's relocating
        // update included); only a relation modification nested in this
        // one — the join index's on the other relation has none — or a
        // heap record moving to another page would add one.
        assert_eq!(records, 1, "{name} step {n}: records a modification wrote");
        for (start, dir, end) in [
            (&after, Dir::Undo, &before),
            (&before, Dir::Undo, &before),
            (&before, Dir::Redo, &after),
            (&after, Dir::Redo, &after),
        ] {
            trees.restore(start);
            for round in 0..2 {
                replay(&db, &recs, dir);
                assert_eq!(
                    &trees.dump(),
                    end,
                    "{name} step {n}: {dir:?} from {} state, round {round}",
                    if start == &after {
                        "applied"
                    } else {
                        "unapplied"
                    },
                );
            }
        }
        trees.restore(&after);
        statements.push(recs);
    }
    let last = trees.dump();
    for n in 0..statements.len() {
        let later = statements[n..].concat();
        trees.restore(&last);
        for round in 0..2 {
            replay(&db, &later, Dir::Redo);
            assert_eq!(
                trees.dump(),
                last,
                "{name}: redo of statements {n}.. over the last image, round {round}"
            );
        }
    }
    assert_eq!(
        seen_ops,
        facts.ops.iter().copied().collect(),
        "{name}: op kinds logged"
    );
    // The recovery driver walks the same records: rolling the whole
    // transaction back returns every tree to where it started.
    db.abort(&txn).unwrap();
    assert_eq!(trees.dump(), initial, "{name}: rollback");
}

#[test]
fn every_tree_backed_extension_replays_idempotently_in_both_directions() {
    for (entry, facts) in kit::running(|e| &e.replay) {
        run(entry, facts);
    }
}
