//! Differential oracle: one seeded DML stream applied to a heap-organized
//! relation, a B-tree-organized relation, and a plain in-memory
//! `BTreeMap` model. After every batch all three must agree exactly —
//! any divergence pins the bug to the storage method (or the dispatcher)
//! that drifted. Running the whole stream twice from the same seed must
//! also reproduce byte-identical oracle state *and* identical metric
//! counters: the observability layer is part of the determinism contract.

// Examples and integration-test harnesses are exempt from the runtime
// panic discipline: failures here should abort loudly.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod support;

use std::collections::BTreeMap;
use std::sync::Arc;

use starburst_dmx::prelude::*;
use starburst_dmx::types::testrng::TestRng;
use starburst_dmx::types::MetricsSnapshot;
use support::{Rows, Script, Tables};

const SEED: u64 = 0x0DDC_0FFE_E0DD_F00D;
const BATCHES: usize = 10;
const OPS_PER_BATCH: usize = 60;
/// Batches of [`apply_sliding_batch`] after the mixed ones.
const SLIDING_BATCHES: usize = 3;

/// The model row: everything the tables store besides the key.
type Model = BTreeMap<i64, (String, i64)>;

fn open() -> Arc<Database> {
    let db = starburst_dmx::open_default().unwrap();
    db.execute_sql("CREATE TABLE th (id INT NOT NULL, name STRING NOT NULL, dept INT NOT NULL)")
        .unwrap();
    db.execute_sql("CREATE UNIQUE INDEX th_pk ON th (id)")
        .unwrap();
    db.execute_sql("CREATE INDEX th_dept ON th (dept)").unwrap();
    db.execute_sql("CREATE INDEX th_name ON th USING hash (name)")
        .unwrap();
    db.execute_sql(
        "CREATE TABLE tb (id INT NOT NULL, name STRING NOT NULL, dept INT NOT NULL) \
         USING btree WITH (key=id)",
    )
    .unwrap();
    db
}

/// Reads a table back in model order (sorted by id).
fn read_sorted(db: &Arc<Database>, table: &str) -> Vec<(i64, String, i64)> {
    let mut rows: Vec<(i64, String, i64)> = db
        .query_sql(&format!("SELECT id, name, dept FROM {table}"))
        .unwrap()
        .into_iter()
        .map(|r| {
            (
                r[0].as_int().unwrap(),
                match &r[1] {
                    Value::Str(s) => s.clone(),
                    other => panic!("name column came back as {other:?}"),
                },
                r[2].as_int().unwrap(),
            )
        })
        .collect();
    rows.sort();
    rows
}

fn model_rows(model: &Model) -> Vec<(i64, String, i64)> {
    model
        .iter()
        .map(|(&id, (name, dept))| (id, name.clone(), *dept))
        .collect()
}

/// A row's name: `tag`, then padding that leaves some eight rows to a
/// heap page, so a few hundred statements leave the twin large enough
/// for the chooser to prefer its indexes to a scan of the heap.
fn padded(tag: String) -> String {
    format!("{tag:_<1000}")
}

/// Runs `stmt` — `{t}` standing for the table — on the heap twin and on
/// the B-tree relation. Each must report `expected` affected rows and
/// have written exactly that many records: targets are collected before
/// the first write, so a statement that moves rows forward in the very
/// index or key order it selects them by still meets each of them once.
fn on_both(db: &Arc<Database>, stmt: &str, expected: usize) {
    let written = if stmt.starts_with("UPDATE") {
        "dml.updates"
    } else {
        "dml.deletes"
    };
    for t in ["th", "tb"] {
        let sql = stmt.replace("{t}", t);
        let before = db.metrics_snapshot().counter(written);
        let r = db.execute_sql(&sql).unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Int(expected as i64), "{sql}");
        assert_eq!(
            db.metrics_snapshot().counter(written) - before,
            expected as u64,
            "{sql}: records written"
        );
    }
}

/// How far a key-range update moves its rows: past every id the stream
/// can reach, so no moved row lands on a live one.
const KEY_SHIFT: i64 = 10_000;

/// Inserts the next id, with a seeded `dept`, into both tables and the
/// model.
fn insert_next(db: &Arc<Database>, model: &mut Model, rng: &mut TestRng, next_id: &mut i64) {
    let id = *next_id;
    *next_id += 1;
    let dept = rng.range_i64(0, 10);
    let name = padded(format!("r{id}"));
    for t in ["th", "tb"] {
        db.execute_sql(&format!("INSERT INTO {t} VALUES ({id}, '{name}', {dept})"))
            .unwrap();
    }
    model.insert(id, (name, dept));
}

/// A sliding batch: each step appends the next id and deletes the lowest
/// live one, so the B-tree relation splits on its rightmost path while
/// its leftmost leaves empty.
fn apply_sliding_batch(
    db: &Arc<Database>,
    model: &mut Model,
    rng: &mut TestRng,
    next_id: &mut i64,
) {
    for _ in 0..OPS_PER_BATCH {
        insert_next(db, model, rng, next_id);
        let (&lowest, _) = model.first_key_value().unwrap();
        on_both(db, &format!("DELETE FROM {{t}} WHERE id = {lowest}"), 1);
        model.remove(&lowest);
    }
}

/// Applies one seeded batch to both tables and the model. Besides the
/// keyed statements, `UPDATE`/`DELETE` predicates land on the heap twin's
/// secondary indexes (B-tree on `dept`: equality and range; hash on
/// `name`: equality), some updates change the very column their index is
/// on, and some change the B-tree relation's key.
fn apply_batch(db: &Arc<Database>, model: &mut Model, rng: &mut TestRng, next_id: &mut i64) {
    type Row = (String, i64);
    for _ in 0..OPS_PER_BATCH {
        let roll = rng.below(100);
        if roll < 40 || model.is_empty() {
            insert_next(db, model, rng, next_id);
            continue;
        }
        let keys: Vec<i64> = model.keys().copied().collect();
        let id = keys[rng.index(keys.len())];
        // four fifths up the live ids: bounds what a range statement hits
        let high = keys[keys.len() * 4 / 5];
        let name = model[&id].0.clone();
        let dept = rng.range_i64(0, 10);
        let to = rng.range_i64(0, 10);
        let fresh = *next_id;
        // the statement, the rows it selects, and what becomes of one
        // (`None`: deleted)
        type Hit = Box<dyn Fn(i64, &Row) -> bool>;
        type Effect = Box<dyn Fn(i64, &Row) -> Option<(i64, Row)>>;
        let (stmt, hit, effect): (String, Hit, Effect) = if roll < 55 {
            (
                format!("UPDATE {{t}} SET dept = {to} WHERE id = {id}"),
                Box::new(move |i, _| i == id),
                Box::new(move |i, r| Some((i, (r.0.clone(), to)))),
            )
        } else if roll < 63 {
            (
                format!("DELETE FROM {{t}} WHERE id = {id}"),
                Box::new(move |i, _| i == id),
                Box::new(|_, _| None),
            )
        } else if roll < 70 {
            (
                format!("UPDATE {{t}} SET dept = {to} WHERE dept = {dept}"),
                Box::new(move |_, r| r.1 == dept),
                Box::new(move |i, r| Some((i, (r.0.clone(), to)))),
            )
        } else if roll < 76 {
            // every row moves forward in the index that finds it
            (
                format!("UPDATE {{t}} SET dept = dept + 1 WHERE dept >= {dept}"),
                Box::new(move |_, r| r.1 >= dept),
                Box::new(|i, r| Some((i, (r.0.clone(), r.1 + 1)))),
            )
        } else if roll < 81 {
            (
                format!("DELETE FROM {{t}} WHERE dept = {dept} AND id >= {high}"),
                Box::new(move |i, r| r.1 == dept && i >= high),
                Box::new(|_, _| None),
            )
        } else if roll < 87 {
            let renamed = padded(format!("n{fresh}"));
            *next_id += 1;
            (
                format!("UPDATE {{t}} SET name = '{renamed}' WHERE name = '{name}'"),
                Box::new(move |_, r| r.0 == name),
                Box::new(move |i, r| Some((i, (renamed.clone(), r.1)))),
            )
        } else if roll < 91 {
            (
                format!("DELETE FROM {{t}} WHERE name = '{name}'"),
                Box::new(move |_, r| r.0 == name),
                Box::new(|_, _| None),
            )
        } else if roll < 96 || keys.iter().any(|k| model.contains_key(&(k + KEY_SHIFT))) {
            *next_id += 1;
            (
                format!("UPDATE {{t}} SET id = {fresh} WHERE id = {id}"),
                Box::new(move |i, _| i == id),
                Box::new(move |_, r| Some((fresh, r.clone()))),
            )
        } else {
            // every row moves forward in the key order that finds it
            (
                format!("UPDATE {{t}} SET id = id + {KEY_SHIFT} WHERE id >= {high}"),
                Box::new(move |i, _| i >= high),
                Box::new(|i, r| Some((i + KEY_SHIFT, r.clone()))),
            )
        };
        let targets: Vec<i64> = model
            .iter()
            .filter(|(i, r)| hit(**i, r))
            .map(|(i, _)| *i)
            .collect();
        on_both(db, &stmt, targets.len());
        let moved: Vec<(i64, Row)> = targets
            .iter()
            .filter_map(|i| model.remove(i).and_then(|r| effect(*i, &r)))
            .collect();
        model.extend(moved);
    }
}

/// Runs the full stream; returns the final oracle state and the metrics.
fn run_stream(seed: u64) -> (Vec<(i64, String, i64)>, MetricsSnapshot) {
    let db = open();
    let mut model = Model::new();
    let mut rng = TestRng::new(seed);
    let mut next_id = 0i64;
    for batch in 0..BATCHES + SLIDING_BATCHES {
        if batch < BATCHES {
            apply_batch(&db, &mut model, &mut rng, &mut next_id);
        } else {
            apply_sliding_batch(&db, &mut model, &mut rng, &mut next_id);
        }
        let expected = model_rows(&model);
        let heap = read_sorted(&db, "th");
        let btree = read_sorted(&db, "tb");
        assert_eq!(
            heap, expected,
            "heap diverged from model after batch {batch}"
        );
        assert_eq!(
            btree, expected,
            "btree diverged from model after batch {batch}"
        );
    }
    // By now the heap twin is large enough that the chooser sends these
    // predicates through its indexes, not through the heap.
    for (stmt, query) in [
        ("UPDATE th SET dept = 1 WHERE id = 5", "range"),
        ("UPDATE th SET dept = dept + 1 WHERE dept >= 8", "range"),
        ("DELETE FROM th WHERE dept = 3", "range"),
        ("DELETE FROM th WHERE name = 'r5'", "key"),
    ] {
        let plan = format!("{:?}", db.query_sql(&format!("EXPLAIN {stmt}")).unwrap());
        assert!(
            plan.contains("Access th via attachment") && plan.contains(&format!("[{query}]")),
            "{stmt}: {plan}"
        );
    }
    (model_rows(&model), db.metrics_snapshot())
}

#[test]
fn heap_btree_and_model_agree_after_every_batch() {
    let (final_rows, metrics) = run_stream(SEED);
    assert!(!final_rows.is_empty(), "the stream must leave live rows");
    // The stream must actually have exercised all three op kinds.
    assert!(metrics.counter("dml.inserts") > 0);
    assert!(metrics.counter("dml.updates") > 0);
    assert!(metrics.counter("dml.deletes") > 0);
    // …and sent target accesses through the heap twin's indexes (nothing
    // else in the stream opens an access-path scan).
    assert!(metrics.counter("att.probes") > 100);
}

#[test]
fn same_seed_reproduces_oracle_state_and_counters() {
    let (rows_a, metrics_a) = run_stream(SEED);
    let (rows_b, metrics_b) = run_stream(SEED);
    assert_eq!(
        rows_a, rows_b,
        "oracle state must be a pure function of the seed"
    );
    assert_eq!(
        metrics_a, metrics_b,
        "metric snapshots must be a pure function of the seed"
    );
}

#[test]
fn explain_analyze_actuals_agree_with_the_oracle() {
    // EXPLAIN ANALYZE is wired through the same executor the oracle
    // exercises: for every dept the root node's actual row count must
    // equal the model's count, on both storage organizations.
    let db = open();
    let mut model = Model::new();
    let mut rng = TestRng::new(SEED);
    let mut next_id = 0i64;
    for _ in 0..3 {
        apply_batch(&db, &mut model, &mut rng, &mut next_id);
    }
    for dept in 0..10 {
        let expected = model.values().filter(|(_, d)| *d == dept).count() as i64;
        for t in ["th", "tb"] {
            let r = db
                .execute_sql(&format!(
                    "EXPLAIN ANALYZE SELECT name FROM {t} WHERE dept = {dept}"
                ))
                .unwrap();
            assert_eq!(r.columns, vec!["plan", "estimated", "actual"]);
            let project = r
                .rows
                .iter()
                .find(|row| matches!(&row[0], Value::Str(s) if s.starts_with("Project")))
                .expect("project node present");
            assert_eq!(
                project[2],
                Value::Int(expected),
                "{t} dept={dept}: EXPLAIN ANALYZE actual disagrees with the model"
            );
        }
    }
}

/// Damages the heap table's index, drives the repair pipeline, and
/// returns the post-repair contents plus the rendered `sys.repairs`
/// rows. Everything downstream of the seed must be reproducible.
fn run_repair_stream(seed: u64) -> (Vec<(i64, String, i64)>, String) {
    let (env, injector) = DatabaseEnv::fresh_with_plan(FaultPlan::new(seed));
    let db = support::reopen(&env);
    db.execute_sql("CREATE TABLE th (id INT NOT NULL, name STRING NOT NULL, dept INT NOT NULL)")
        .unwrap();
    db.execute_sql("CREATE UNIQUE INDEX th_pk ON th (id)")
        .unwrap();
    let mut model = Model::new();
    let mut rng = TestRng::new(seed);
    let mut next_id = 0i64;
    for _ in 0..2 {
        for _ in 0..OPS_PER_BATCH {
            let roll = rng.below(100);
            if roll < 60 || model.is_empty() {
                let id = next_id;
                next_id += 1;
                let dept = rng.range_i64(0, 10);
                db.execute_sql(&format!("INSERT INTO th VALUES ({id}, 'r{id}', {dept})"))
                    .unwrap();
                model.insert(id, (format!("r{id}"), dept));
            } else {
                let keys: Vec<i64> = model.keys().copied().collect();
                let id = keys[rng.index(keys.len())];
                db.execute_sql(&format!("DELETE FROM th WHERE id = {id}"))
                    .unwrap();
                model.remove(&id);
            }
        }
    }
    drop(db);

    // Silent rot in the index file (1 catalog, 2 heap, 3 index).
    let pid = starburst_dmx::types::PageId::new(starburst_dmx::types::FileId(3), 0);
    let mut page = starburst_dmx::page::Page::new();
    env.disk.read_page(pid, &mut page).unwrap();
    page.raw_mut()[100] ^= 0x40;
    env.disk.write_page(pid, &page).unwrap();
    injector.clear();

    let db = support::reopen(&env);
    let check = db.execute_sql("CHECK TABLE th").unwrap();
    assert_eq!(check.rows[0][2], Value::from("quarantined"));
    let repair = db.execute_sql("REPAIR TABLE th").unwrap();
    assert_eq!(repair.rows[0][2], Value::from("healthy"));
    let repairs = format!("{:?}", db.query_sql("SELECT * FROM sys.repairs").unwrap());
    (read_sorted(&db, "th"), repairs)
}

#[test]
fn same_seed_reproduces_repair_outcome_and_contents() {
    let (rows_a, repairs_a) = run_repair_stream(SEED);
    let (rows_b, repairs_b) = run_repair_stream(SEED);
    assert!(!rows_a.is_empty(), "the stream must leave live rows");
    assert_eq!(
        rows_a, rows_b,
        "post-repair contents must be a pure function of the seed"
    );
    assert_eq!(
        repairs_a, repairs_b,
        "sys.repairs rows must be byte-identical run to run"
    );
}

#[test]
fn repaired_table_agrees_with_the_model() {
    // Rebuild the model alongside a third run: repair must restore
    // exactly the committed state, record for record.
    let (rows, _) = run_repair_stream(SEED);
    let mut model = Model::new();
    let mut rng = TestRng::new(SEED);
    let mut next_id = 0i64;
    for _ in 0..2 {
        for _ in 0..OPS_PER_BATCH {
            let roll = rng.below(100);
            if roll < 60 || model.is_empty() {
                let id = next_id;
                next_id += 1;
                let dept = rng.range_i64(0, 10);
                model.insert(id, (format!("r{id}"), dept));
            } else {
                let keys: Vec<i64> = model.keys().copied().collect();
                model.remove(&keys[rng.index(keys.len())]);
            }
        }
    }
    assert_eq!(rows, model_rows(&model), "repair drifted from the model");
}

// ---------------------------------------------------------------------
// Crash-point sweep: the differential oracle under torn execution.
//
// Every committed statement must survive a crash at *any* I/O index and
// every uncommitted one must vanish, on both storage organizations —
// and recovery itself must be a fixed point: the shared driver
// (`tests/support`) reopens a second time, which must append no log
// frames and change no page on disk (DESIGN.md §6, the restart state
// machine). The second property is what makes the redo/undo pass
// trustworthy: if restart "recovered" by rewriting state every time, a
// crash *during* recovery would compound.
// ---------------------------------------------------------------------

const CRASH_SEED: u64 = 0xD1FF_C4A5;
const SWEEP_OPS: usize = 16;
/// Ids at or above this base belong to the deliberately-abandoned
/// transaction: they must never be visible after any reopen.
const POISON_BASE: i64 = 1_000_000;

/// The swept workload: the differential DML stream applied to both
/// tables as autocommitted statements, interleaved with inserts from a
/// transaction that is deliberately never committed — uncommitted writes
/// that may be steal-evicted to disk before the crash, which recovery
/// must undo either way. Key selection reads only the model, so the
/// statements are the same at every crash point.
fn crash_script() -> Script<Tables> {
    let row = |id: i64, dept: i64| {
        vec![
            Value::Int(id),
            Value::Str(format!("r{id}")),
            Value::Int(dept),
        ]
    };
    let mut s = Script::new(Tables::new());
    s.then(
        "CREATE TABLE th (id INT NOT NULL, name STRING NOT NULL, dept INT NOT NULL)",
        |m| {
            m.insert("th".into(), Rows::new());
        },
    )
    .then("CREATE UNIQUE INDEX th_pk ON th (id)", |_| {})
    .then(
        "CREATE TABLE tb (id INT NOT NULL, name STRING NOT NULL, dept INT NOT NULL) \
         USING btree WITH (key=id)",
        |m| {
            m.insert("tb".into(), Rows::new());
        },
    );
    let mut rng = TestRng::new(CRASH_SEED);
    let mut next_id = 0i64;
    for i in 0..SWEEP_OPS {
        let keys: Vec<i64> = s.last()["th"].keys().copied().collect();
        let roll = rng.below(100);
        // the statement, `{t}` standing for the table, and the row it
        // leaves under `id` (`None`: deleted)
        let (stmt, id, left) = if roll < 50 || keys.is_empty() {
            let (id, dept) = (next_id, rng.range_i64(0, 10));
            next_id += 1;
            let sql = format!("INSERT INTO {{t}} VALUES ({id}, 'r{id}', {dept})");
            (sql, id, Some(row(id, dept)))
        } else if roll < 80 {
            let (id, dept) = (keys[rng.index(keys.len())], rng.range_i64(0, 10));
            let sql = format!("UPDATE {{t}} SET dept = {dept} WHERE id = {id}");
            (sql, id, Some(row(id, dept)))
        } else {
            let id = keys[rng.index(keys.len())];
            (format!("DELETE FROM {{t}} WHERE id = {id}"), id, None)
        };
        for t in ["th", "tb"] {
            s.then(stmt.replace("{t}", t), |m| {
                let rows = m.get_mut(t).expect(t);
                match &left {
                    Some(row) => rows.insert(id, row.clone()),
                    None => rows.remove(&id),
                };
            });
        }
        if i % 5 == 0 {
            let id = POISON_BASE + i as i64;
            s.in_flight(format!("INSERT INTO th VALUES ({id}, 'poison{i}', 0)"));
        }
    }
    s
}

/// Crash at every Nth I/O index; after recovery both tables must hold
/// the model's rows before the statement in flight or after it (the
/// poison rows never), and a second reopen must be a pure read.
#[test]
fn crash_sweep_double_reopen_appends_nothing_and_matches_model() {
    let script = crash_script();
    let config = DatabaseConfig::default();
    let (total, done) =
        support::healthy(CRASH_SEED, &config, |run| script.run(&run.open().unwrap()));
    assert_eq!(done, (script.len(), None), "healthy pass must not error");
    assert!(!script.last()["th"].is_empty());
    assert!(total > 50, "workload too small to sweep ({total} I/Os)");
    support::sweep(
        CRASH_SEED,
        &config,
        0..total,
        |run| run.open().map_or(0, |db| script.run(&db).0),
        |db, &done, at| {
            let got = support::tables(db, &["th", "tb"], at);
            script.assert_recovered(done, &got, at);
            got
        },
    );
}

// ---------------------------------------------------------------------
// Concurrent differential: seeded writer schedules under 2PL + key-range
// locks, racing snapshot readers. Writers own disjoint key stripes, so
// the final committed state is a pure function of the seed even though
// the thread interleaving is not; readers must observe only
// transaction-consistent states (the writers deliberately pass through
// an invariant-violating intermediate inside every update transaction).
// ---------------------------------------------------------------------

const CONC_SEED: u64 = 0xC0C0_CAFE_D00D_FEED;
const WRITERS: u64 = 3;
const TXNS_PER_WRITER: usize = 30;
const STRIPE: i64 = 1_000;

/// One writer's seeded transaction stream over its own id stripe, every
/// statement run on the B-tree relation `tc` and on its heap twin `tch`
/// (unique B-tree index on `id`, B-tree index on `a`, hash index on `b`)
/// inside one transaction. `a` values are private to the stripe too, so
/// a predicate on `a` or `b` selects the writer's own rows only.
/// Every committed row satisfies `b == -a`; inside a two-statement
/// update transaction the invariant is deliberately broken in between.
/// Deadlock/timeout victims (gap-lock collisions at stripe boundaries,
/// whole-relation scans of `tc` for the predicates it has no key for)
/// retry the same logical op, keeping the stream a pure function of the
/// seed.
fn run_writer(db: &Arc<Database>, w: u64) -> BTreeMap<i64, i64> {
    /// A committed transaction's effect on the writer's model.
    type ModelApply = Box<dyn Fn(&mut BTreeMap<i64, i64>)>;
    let sess = Session::new(db.clone());
    let mut rng = TestRng::new(CONC_SEED ^ (w + 1));
    let mut model: BTreeMap<i64, i64> = BTreeMap::new(); // id -> a
    let mut next = w as i64 * STRIPE;
    // the stripe's `a` values: [a_lo, a_hi)
    let (a_lo, a_hi) = (w as i64 * 100 + 1, w as i64 * 100 + 100);
    for _ in 0..TXNS_PER_WRITER {
        let roll = rng.below(100);
        let a = rng.range_i64(a_lo, a_hi);
        let keys: Vec<i64> = model.keys().copied().collect();
        // an existing row, when there is one: its id and its `a`
        let (id, old_a) = match keys.len() {
            0 => (0, 0),
            n => {
                let id = keys[rng.index(n)];
                (id, model[&id])
            }
        };
        let (stmts, apply): (Vec<String>, ModelApply) = if roll < 40 || model.is_empty() {
            let id = next;
            next += 1;
            (
                vec![format!("INSERT INTO {{t}} VALUES ({id}, {a}, {})", -a)],
                Box::new(move |m| {
                    m.insert(id, a);
                }),
            )
        } else if roll < 60 {
            (
                // Two statements: between them the row violates
                // b == -a, which no reader may ever observe.
                vec![
                    format!("UPDATE {{t}} SET a = {a} WHERE id = {id}"),
                    format!("UPDATE {{t}} SET b = {} WHERE id = {id}", -a),
                ],
                Box::new(move |m| {
                    m.insert(id, a);
                }),
            )
        } else if roll < 70 {
            (
                vec![format!("DELETE FROM {{t}} WHERE id = {id}")],
                Box::new(move |m| {
                    m.remove(&id);
                }),
            )
        } else if roll < 78 {
            // B-tree index equality; the update moves the entries it
            // was found by
            (
                vec![format!(
                    "UPDATE {{t}} SET a = {a}, b = {} WHERE a = {old_a}",
                    -a
                )],
                Box::new(move |m| {
                    m.values_mut().filter(|v| **v == old_a).for_each(|v| *v = a);
                }),
            )
        } else if roll < 85 {
            // B-tree index range; every entry moves forward in it
            (
                vec![format!(
                    "UPDATE {{t}} SET a = a + 1, b = b - 1 WHERE a >= {a} AND a < {}",
                    a_hi - 1
                )],
                Box::new(move |m| {
                    m.values_mut()
                        .filter(|v| **v >= a && **v < a_hi - 1)
                        .for_each(|v| *v += 1);
                }),
            )
        } else if roll < 92 {
            // hash index equality
            (
                vec![format!("DELETE FROM {{t}} WHERE b = {}", -old_a)],
                Box::new(move |m| m.retain(|_, v| *v != old_a)),
            )
        } else {
            // the B-tree relation's key changes
            let fresh = next;
            next += 1;
            (
                vec![format!("UPDATE {{t}} SET id = {fresh} WHERE id = {id}")],
                Box::new(move |m| {
                    if let Some(v) = m.remove(&id) {
                        m.insert(fresh, v);
                    }
                }),
            )
        };
        let stmts: Vec<String> = stmts
            .iter()
            .flat_map(|s| ["tc", "tch"].map(|t| s.replace("{t}", t)))
            .collect();
        // Retry the whole transaction until it commits.
        'retry: loop {
            sess.execute("BEGIN").unwrap();
            for s in &stmts {
                match sess.execute(s) {
                    Ok(_) => {}
                    Err(DmxError::Deadlock { .. }) | Err(DmxError::LockTimeout) => {
                        if sess.in_transaction() {
                            let _ = sess.execute("ROLLBACK");
                        }
                        continue 'retry;
                    }
                    Err(e) => panic!("writer {w}: {s}: {e}"),
                }
            }
            match sess.execute("COMMIT") {
                Ok(_) => break,
                Err(DmxError::Deadlock { .. }) | Err(DmxError::LockTimeout) => {
                    if sess.in_transaction() {
                        let _ = sess.execute("ROLLBACK");
                    }
                }
                Err(e) => panic!("writer {w}: COMMIT: {e}"),
            }
        }
        apply(&mut model);
    }
    model
}

/// The concurrent schedule; returns the final sorted table state.
fn run_concurrent(check_repeatable: bool) -> Vec<(i64, i64, i64)> {
    let db = starburst_dmx::open_default().unwrap();
    db.execute_sql(
        "CREATE TABLE tc (id INT NOT NULL, a INT NOT NULL, b INT NOT NULL) \
         USING btree WITH (key=id)",
    )
    .unwrap();
    db.execute_sql("CREATE TABLE tch (id INT NOT NULL, a INT NOT NULL, b INT NOT NULL)")
        .unwrap();
    db.execute_sql("CREATE UNIQUE INDEX tch_pk ON tch (id)")
        .unwrap();
    db.execute_sql("CREATE INDEX tch_a ON tch (a)").unwrap();
    db.execute_sql("CREATE INDEX tch_b ON tch USING hash (b)")
        .unwrap();
    // Maintained cells under concurrent writers: a group per `a` value
    // (each private to one stripe, created and deleted as rows come and
    // go) and, once analyzed, the one statistics cell every writer
    // shares.
    db.execute_sql(
        "CREATE ATTACHMENT tch_sums ON tch USING aggregate WITH (sum = b, group_by = a)",
    )
    .unwrap();
    db.execute_sql("ANALYZE TABLE tch").unwrap();
    let done = std::sync::atomic::AtomicBool::new(false);
    let models = dmx_types::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let db = db.clone();
            let models = &models;
            s.spawn(move || {
                let m = run_writer(&db, w);
                models.lock().push(m);
            });
        }
        // Invariant readers: every observed state is transaction-
        // consistent (b == -a on every row), reads never block.
        for t in ["tc", "tch"] {
            let db = db.clone();
            let done = &done;
            s.spawn(move || {
                let sess = Session::new(db);
                while !done.load(std::sync::atomic::Ordering::Acquire) {
                    let rows = sess
                        .execute(&format!("SELECT id, a, b FROM {t}"))
                        .unwrap()
                        .rows;
                    for r in &rows {
                        assert_eq!(
                            r[1].as_int().unwrap(),
                            -r[2].as_int().unwrap(),
                            "reader saw a transaction-inconsistent row: {r:?}"
                        );
                    }
                }
            });
        }
        // Repeatability reader: within one transaction, re-reads are
        // byte-identical regardless of concurrent commits.
        if check_repeatable {
            let db = db.clone();
            let done = &done;
            s.spawn(move || {
                let sess = Session::new(db);
                while !done.load(std::sync::atomic::Ordering::Acquire) {
                    sess.execute("BEGIN").unwrap();
                    let mut first = sess.execute("SELECT id, a FROM tc").unwrap().rows;
                    first.sort_by_key(|r| r[0].as_int().unwrap());
                    for _ in 0..3 {
                        let mut again = sess.execute("SELECT id, a FROM tc").unwrap().rows;
                        again.sort_by_key(|r| r[0].as_int().unwrap());
                        assert_eq!(first, again, "snapshot read not repeatable");
                    }
                    sess.execute("COMMIT").unwrap();
                }
            });
        }
        // Writers finish first; then release the readers.
        while models.lock().len() < WRITERS as usize {
            std::thread::yield_now();
        }
        done.store(true, std::sync::atomic::Ordering::Release);
    });

    // Differential check: the table equals the union of the writers'
    // models (stripes are disjoint).
    let mut expected: Vec<(i64, i64, i64)> = models
        .lock()
        .iter()
        .flat_map(|m| m.iter().map(|(&id, &a)| (id, a, -a)))
        .collect();
    expected.sort();
    for t in ["tc", "tch"] {
        let mut rows: Vec<(i64, i64, i64)> = db
            .query_sql(&format!("SELECT id, a, b FROM {t}"))
            .unwrap()
            .into_iter()
            .map(|r| {
                (
                    r[0].as_int().unwrap(),
                    r[1].as_int().unwrap(),
                    r[2].as_int().unwrap(),
                )
            })
            .collect();
        rows.sort();
        assert_eq!(rows, expected, "{t} diverged from the writers' models");
    }
    // Every maintained cell equals recomputation from the base.
    let mut groups: BTreeMap<i64, (i64, f64)> = BTreeMap::new();
    for &(_, a, b) in &expected {
        let g = groups.entry(a).or_default();
        *g = (g.0 + 1, g.1 + b as f64);
    }
    let cells: BTreeMap<i64, (i64, f64)> = support::attachment_items(&db, "tch", "tch_sums")
        .iter()
        .map(|v| {
            (
                v[0].as_int().unwrap(),
                (v[1].as_int().unwrap(), v[2].as_float().unwrap()),
            )
        })
        .collect();
    assert_eq!(cells, groups, "tch's group cells diverged from its rows");
    let stat_rows = db
        .query_sql("SELECT rows FROM sys.statistics WHERE relation = 'tch' AND field = '*'")
        .unwrap();
    assert_eq!(
        stat_rows,
        vec![vec![Value::Int(expected.len() as i64)]],
        "tch's statistics row count diverged from its rows"
    );
    assert_eq!(db.active_txns(), 0, "no leaked transactions");
    expected
}

#[test]
fn concurrent_writers_and_snapshot_readers_agree_with_models() {
    let rows = run_concurrent(true);
    assert!(!rows.is_empty(), "the schedule must leave live rows");
}

#[test]
fn concurrent_schedule_same_seed_same_final_state() {
    // The committed end state is a pure function of the seed even
    // though the interleaving is not (disjoint writer stripes).
    let a = run_concurrent(false);
    let b = run_concurrent(false);
    assert_eq!(a, b, "same seed must reproduce the final state");
}

#[test]
fn different_seeds_diverge() {
    // A sanity check that the stream actually depends on the seed (i.e.
    // the determinism test above is not vacuous).
    let (rows_a, _) = run_stream(SEED);
    let (rows_b, _) = run_stream(SEED ^ 1);
    assert_ne!(
        rows_a, rows_b,
        "distinct seeds should produce distinct streams"
    );
}
