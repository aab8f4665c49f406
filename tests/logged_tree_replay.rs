//! Replay contract of the logged-tree primitive, for every tree-backed
//! extension (six attachments and the B-tree storage method).
//!
//! Each case runs real DML so the extension logs its own records, and
//! snapshots its trees into a `BTreeMap` model before and after every
//! statement. The statement's records are then replayed through the
//! extension's `replay` from both physical starting points a
//! crash can leave behind — applied, and logged but never applied:
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

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use starburst_dmx::attach::btree_index::IxDesc;
use starburst_dmx::attach::rtree::RTree;
use starburst_dmx::btree::{BTree, OnDuplicate};
use starburst_dmx::core::{RelationDescriptor, Replay, TreeFile};
use starburst_dmx::prelude::*;
use starburst_dmx::storage::btree_sm::BtDesc;
use starburst_dmx::types::{Appended, Lsn};
use starburst_dmx::wal::{Compensation, ExtKind, ExtOp, LogRecord};

const OP_INSERT: u8 = 1;
const OP_DELETE: u8 = 2;
const OP_IMAGES: u8 = 3;
const OP_PATCH: u8 = 4;

/// `(tree number, key) → value` over every tree of the extension.
type Model = BTreeMap<(usize, Vec<u8>), Vec<u8>>;

/// The extension's trees, reachable without going through it.
enum Trees {
    B(Vec<BTree>),
    R(RTree),
}

impl Trees {
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

/// One statement of a case's script; `Upd`/`Del` name an earlier `Ins`
/// by its position among the `Ins` steps.
enum Step {
    Ins(&'static str, Vec<Value>),
    Upd(&'static str, usize, Vec<Value>),
    Del(&'static str, usize),
}

struct Case {
    name: &'static str,
    ddl: &'static [&'static str],
    /// `(relation, attachment)` under test; no attachment = the
    /// relation's storage method.
    target: (&'static str, Option<&'static str>),
    trees: fn(&Arc<Database>, &RelationDescriptor, Option<&[u8]>) -> Trees,
    script: Vec<Step>,
    /// Every op code the script must make the extension log.
    ops: &'static [u8],
}

fn one_btree(db: &Arc<Database>, file: starburst_dmx::core::TreeFile) -> Trees {
    Trees::B(vec![file.open_tree(db.services())])
}

fn int(v: i64) -> Value {
    Value::Int(v)
}

fn rect(x: f64) -> Value {
    Value::Rect(Rect::new(x, x, x + 1.0, x + 2.0))
}

/// The trees an instance's stored attribute list names.
fn named(desc: Option<&[u8]>) -> Vec<TreeFile> {
    TreeFile::named_in(&AttrList::decode(desc.unwrap()).unwrap()).unwrap()
}

fn cases() -> Vec<Case> {
    use Step::*;
    const T: &str = "CREATE TABLE t (id INT NOT NULL, v INT NOT NULL)";
    // Two rows, an update that moves the entry, deletes of both.
    let entry_script = || {
        vec![
            Ins("t", vec![int(1), int(10)]),
            Ins("t", vec![int(2), int(20)]),
            Upd("t", 0, vec![int(3), int(30)]),
            Del("t", 1),
            Del("t", 0),
        ]
    };
    vec![
        Case {
            name: "btree_index",
            ddl: &[T, "CREATE UNIQUE INDEX t_x ON t (id)"],
            target: ("t", Some("t_x")),
            trees: |db, _, d| one_btree(db, IxDesc::decode(d.unwrap()).unwrap()),
            script: entry_script(),
            ops: &[OP_INSERT, OP_DELETE],
        },
        Case {
            name: "hash_index",
            ddl: &[T, "CREATE INDEX t_x ON t USING hash (v)"],
            target: ("t", Some("t_x")),
            trees: |db, _, d| one_btree(db, named(d)[0]),
            script: entry_script(),
            ops: &[OP_INSERT, OP_DELETE],
        },
        Case {
            name: "rtree",
            ddl: &[
                "CREATE TABLE t (id INT NOT NULL, area RECT)",
                "CREATE INDEX t_x ON t USING rtree (area)",
            ],
            target: ("t", Some("t_x")),
            trees: |db, _, d| {
                let root = named(d)[0].root();
                let s = db.services();
                Trees::R(RTree::open(&s.pool, root, &s.latches))
            },
            script: vec![
                Ins("t", vec![int(1), rect(1.0)]),
                Ins("t", vec![int(2), rect(5.0)]),
                Ins("t", vec![int(3), Value::Null]),
                Upd("t", 0, vec![int(1), rect(9.0)]),
                Upd("t", 2, vec![int(3), rect(3.0)]),
                Del("t", 1),
                Del("t", 0),
            ],
            ops: &[OP_INSERT, OP_DELETE],
        },
        Case {
            name: "join_index",
            ddl: &[
                "CREATE TABLE emp (id INT NOT NULL, dept INT)",
                "CREATE TABLE dept (id INT NOT NULL, name STRING)",
                "CREATE ATTACHMENT ed ON emp USING joinindex WITH (side=left, fields=dept)",
                "CREATE ATTACHMENT ed ON dept USING joinindex WITH (side=right, fields=id, other=emp)",
            ],
            target: ("emp", Some("ed")),
            trees: |db, _, d| {
                let files = named(d);
                Trees::B(files.iter().map(|f| f.open_tree(db.services())).collect())
            },
            script: vec![
                Ins("dept", vec![int(7), "d7".into()]),
                Ins("emp", vec![int(1), int(7)]),
                Ins("emp", vec![int(2), int(7)]),
                Ins("emp", vec![int(3), Value::Null]),
                Ins("dept", vec![int(8), "d8".into()]),
                Upd("emp", 1, vec![int(1), int(8)]),
                Del("dept", 0),
                Del("emp", 2),
                Del("emp", 1),
            ],
            ops: &[OP_INSERT, OP_DELETE],
        },
        Case {
            name: "aggregate",
            ddl: &[
                T,
                "CREATE ATTACHMENT t_x ON t USING aggregate WITH (sum = v, group_by = id)",
            ],
            target: ("t", Some("t_x")),
            trees: |db, _, d| one_btree(db, named(d)[0]),
            script: vec![
                Ins("t", vec![int(1), int(10)]),
                Ins("t", vec![int(1), int(5)]),
                Upd("t", 0, vec![int(2), int(10)]),
                Del("t", 1),
                Del("t", 0),
            ],
            // a group's first row creates its cell, its last row's
            // removal deletes it; in between, a count and a sum of fixed
            // width change in place
            ops: &[OP_INSERT, OP_DELETE, OP_PATCH],
        },
        Case {
            name: "stats",
            ddl: &[T, "CREATE ATTACHMENT t_x ON t USING stats"],
            target: ("t", Some("t_x")),
            trees: |db, _, d| one_btree(db, named(d)[0]),
            script: entry_script(),
            // the cell's first image, then patches of it
            ops: &[OP_INSERT, OP_PATCH],
        },
        Case {
            name: "btree_sm",
            ddl: &["CREATE TABLE t (id INT NOT NULL, v STRING NOT NULL) USING btree WITH (key=id)"],
            target: ("t", None),
            trees: |db, rd, _| one_btree(db, BtDesc::decode(&rd.sm_desc).unwrap().tree_file()),
            script: vec![
                Ins("t", vec![int(1), "a".into()]),
                Ins("t", vec![int(2), "bb".into()]),
                Upd("t", 0, vec![int(1), "c".into()]),
                Upd("t", 0, vec![int(1), "ccc".into()]),
                Upd("t", 0, vec![int(1), "d".into()]),
                Upd("t", 0, vec![int(3), "d".into()]),
                Del("t", 1),
            ],
            // a value of one width changes in place, one of another
            // width is replaced whole, a new key moves
            ops: &[OP_INSERT, OP_DELETE, OP_IMAGES, OP_PATCH],
        },
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

fn run(case: &Case) {
    let name = case.name;
    let db = starburst_dmx::open_default().unwrap();
    for sql in case.ddl {
        db.execute_sql(sql).unwrap();
    }
    let rd = db.catalog().get_by_name(case.target.0).unwrap();
    let (ext, desc) = match case.target.1 {
        Some(att) => {
            let (id, inst) = rd.find_attachment(att).unwrap();
            (ExtKind::Attachment(id), Some(&*inst.desc))
        }
        None => (ExtKind::Storage(rd.sm), None),
    };
    let trees = (case.trees)(&db, &rd, desc);
    let initial = trees.dump();

    let txn = db.begin();
    let mut keys: Vec<RecordKey> = Vec::new();
    let mut seen_ops = BTreeSet::new();
    // Each statement's records, in log order.
    let mut statements = Vec::new();
    for (n, step) in case.script.iter().enumerate() {
        let before = trees.dump();
        let since = txn.last_lsn();
        let rel = |name: &str| db.catalog().get_by_name(name).unwrap().id;
        match step {
            Step::Ins(r, row) => {
                keys.push(db.insert(&txn, rel(r), Record::new(row.clone())).unwrap())
            }
            Step::Upd(r, k, row) => {
                keys[*k] = db
                    .update(&txn, rel(r), &keys[*k], Record::new(row.clone()))
                    .unwrap()
            }
            Step::Del(r, k) => db.delete(&txn, rel(r), &keys[*k]).unwrap(),
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
        case.ops.iter().copied().collect(),
        "{name}: op kinds logged"
    );
    // The recovery driver walks the same records: rolling the whole
    // transaction back returns every tree to where it started.
    db.abort(&txn).unwrap();
    assert_eq!(trees.dump(), initial, "{name}: rollback");
}

#[test]
fn every_tree_backed_extension_replays_idempotently_in_both_directions() {
    for case in cases() {
        run(&case);
    }
}
