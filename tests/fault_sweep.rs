//! Deterministic crash-point sweeps and end-to-end corruption handling.
//!
//! Each sweep runs its workload once on healthy devices to count its I/O
//! operations, then once per crash point through the shared driver
//! (`tests/support`): the crash fires, the database is reopened so
//! restart recovery runs, and the recovered state is checked, then
//! checked again after a second reopen that must be a pure read. After
//! every crash point the recovered state must be *some*
//! transaction-consistent prefix of the workload: each autocommitted
//! statement either happened entirely or not at all, and secondary
//! structures agree with base relations.
//!
//! `FAULT_SWEEP_STRIDE` (default 1 = every point) bounds the sweeps for
//! smoke runs, e.g. `FAULT_SWEEP_STRIDE=16 cargo test --test fault_sweep`.

// Examples and integration-test harnesses are exempt from the runtime
// panic discipline: failures here should abort loudly.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod support;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use starburst_dmx::prelude::*;
use starburst_dmx::query::SqlExt;
use starburst_dmx::types::fault::MAX_IO_RETRIES;
use starburst_dmx::types::obs::name::IO_RETRIES;
use support::{fresh, kit, put, reopen, Rows, Script, Tables};

const SEED: u64 = 0xDEC0_DE05;
const ROWS: i64 = 12;

/// The swept workload: DDL (heap + btree-organized tables, a unique
/// index), inserts, updates, deletes and a drop — each statement its own
/// transaction — with the rows each leaves.
fn workload() -> Script<Tables> {
    let row = |i: i64, v: &str| vec![Value::Int(i), Value::from(v)];
    let mut s = Script::new(Tables::new());
    s.then("CREATE TABLE t (id INT NOT NULL, v STRING)", |m| {
        m.insert("t".into(), Rows::new());
    })
    .then(
        "CREATE INDEX t_id ON t USING btree (id) WITH (unique=true)",
        |_| {},
    );
    for i in 0..ROWS {
        s.then(format!("INSERT INTO t VALUES ({i}, 'v{i}')"), |m| {
            put(m, "t", row(i, &format!("v{i}")))
        });
    }
    s.then(
        "CREATE TABLE u (id INT NOT NULL) USING btree WITH (key=id)",
        |m| {
            m.insert("u".into(), Rows::new());
        },
    );
    for i in 0..4 {
        s.then(format!("INSERT INTO u VALUES ({i})"), |m| {
            put(m, "u", vec![Value::Int(i)])
        });
    }
    s.then("UPDATE t SET v = 'updated' WHERE id = 3", |m| {
        put(m, "t", row(3, "updated"))
    })
    .then(format!("DELETE FROM t WHERE id = {}", ROWS - 1), |m| {
        m.get_mut("t").expect("t").remove(&(ROWS - 1));
    })
    .then("DROP TABLE u", |m| {
        m.remove("u");
    });
    s
}

/// What recovery must leave after `done` statements of [`workload`]
/// completed: the rows before the statement in flight or after it, and a
/// unique index (if it committed) that agrees with the base table for
/// every surviving id. Returns the rows.
fn check_invariants(db: &Arc<Database>, script: &Script<Tables>, done: usize, at: &str) -> Tables {
    let got = support::tables(db, &["t", "u"], at);
    script.assert_recovered(done, &got, at);
    for id in got.get("t").into_iter().flat_map(Rows::keys) {
        let via_index = db
            .query_sql(&format!("SELECT v FROM t WHERE id = {id}"))
            .unwrap_or_else(|e| panic!("{at}: keyed lookup of id {id} failed: {e}"));
        assert_eq!(via_index.len(), 1, "{at}: index disagrees on id {id}");
    }
    got
}

/// The tentpole: crash at every Nth I/O of the workload, reopen, verify.
#[test]
fn crash_point_sweep_recovers_consistently() {
    let script = workload();
    let config = DatabaseConfig::default();
    let (total, done) =
        support::healthy(SEED, &config, |run| script.run(&run.open().expect("open")));
    assert_eq!(done, (script.len(), None), "the healthy run failed");
    assert!(total > 50, "workload too small to sweep ({total} I/Os)");
    support::sweep(
        SEED,
        &config,
        0..total,
        |run| run.open().map_or(0, |db| script.run(&db).0),
        |db, &done, at| check_invariants(db, &script, done, at),
    );
}

/// The catalog as a model states it: table → (columns, attachment names).
type CatalogModel = BTreeMap<String, (Vec<String>, BTreeSet<String>)>;

fn create(m: &mut CatalogModel, table: &str, columns: &[&str]) {
    let columns = columns.iter().map(|c| c.to_string()).collect();
    m.insert(table.to_string(), (columns, BTreeSet::new()));
}

fn attach(m: &mut CatalogModel, table: &str, att: &str) {
    m.get_mut(table)
        .expect("modelled table")
        .1
        .insert(att.to_string());
}

/// Rows of `p`, the populated table an index and statistics are built
/// over: wide enough to span more pages than [`DDL_POOL_FRAMES`].
const P_ROWS: usize = 48;

/// The pool the mix runs under: small enough that the builds over `p`
/// steal dirty heap pages before their commit forces the new files.
const DDL_POOL_FRAMES: usize = 6;

/// The DDL mix, one statement at a time through one session; its last
/// two statements are the builds over `p`. A USING memory table is
/// temporary — no reopen finds it — and so is never in the model.
fn ddl_mix() -> Script<CatalogModel> {
    let populate = (0..P_ROWS)
        .map(|i| format!("({i}, '{}')", "p".repeat(1000)))
        .collect::<Vec<_>>()
        .join(", ");
    let mut s = Script::new(CatalogModel::new());
    s.then("CREATE TABLE a (id INT NOT NULL, v INT)", |m| {
        create(m, "a", &["id", "v"])
    })
    .then("CREATE INDEX a_v ON a (v)", |m| attach(m, "a", "a_v"))
    .then("INSERT INTO a VALUES (1, 1), (2, 1)", |_| {})
    // vetoed by the duplicate v: a build taken back
    .vetoed("CREATE UNIQUE INDEX a_u ON a (v)")
    .then("CREATE TABLE m (x INT) USING memory", |_| {})
    .then("ANALYZE TABLE a", |m| attach(m, "a", "stats"))
    .then("BEGIN", |_| {})
    .then("CREATE TABLE b (x INT)", |_| {})
    .then("ROLLBACK", |_| {})
    .then(
        "CREATE TABLE c (k INT NOT NULL) USING btree WITH (key = k)",
        |m| create(m, "c", &["k"]),
    )
    .then("DROP INDEX a_v ON a", |m| {
        m.get_mut("a").expect("a").1.remove("a_v");
    })
    .then("DROP TABLE c", |m| {
        m.remove("c");
    })
    .then("CREATE TABLE d (id INT)", |m| create(m, "d", &["id"]))
    .then("CREATE TABLE p (id INT NOT NULL, pad STRING)", |m| {
        create(m, "p", &["id", "pad"])
    })
    .then(format!("INSERT INTO p VALUES {populate}"), |_| {})
    // built over the rows already there
    .then("CREATE INDEX p_id ON p (id)", |m| attach(m, "p", "p_id"))
    .then("ANALYZE TABLE p", |m| attach(m, "p", "stats"));
    s
}

/// The catalog a database holds, stated as the model states it.
fn catalog_of(db: &Arc<Database>) -> CatalogModel {
    db.catalog()
        .list()
        .iter()
        .filter(|rd| !rd.name.starts_with("sys."))
        .map(|rd| {
            let columns = rd.schema.columns().iter().map(|c| c.name.clone()).collect();
            let atts = rd
                .attached_types()
                .flat_map(|(_, insts)| insts.iter().map(|i| i.name.clone()))
                .collect();
            (rd.name.clone(), (columns, atts))
        })
        .collect()
}

fn ddl_pool() -> DatabaseConfig {
    DatabaseConfig {
        pool_frames: DDL_POOL_FRAMES,
        ..DatabaseConfig::default()
    }
}

/// What the builds over `p` must leave at any crash point: every table
/// checks healthy, and an index or statistics built over `p` are there
/// whole or not at all.
fn check_builds(db: &Arc<Database>, got: &CatalogModel, at: &str) {
    for table in got.keys() {
        let report = db
            .query_sql(&format!("CHECK TABLE {table}"))
            .unwrap_or_else(|e| panic!("{at}: CHECK TABLE {table}: {e}"));
        assert_eq!(report[0][2], Value::from("healthy"), "{at}: {report:?}");
    }
    let Some((_, atts)) = got.get("p") else {
        return;
    };
    let mut base: Vec<i64> = support::rows(db, "p", at).unwrap().into_keys().collect();
    base.sort_unstable();
    assert!(
        base.is_empty() || base == (0..P_ROWS as i64).collect::<Vec<_>>(),
        "{at}: p holds {base:?}"
    );
    if atts.contains("p_id") {
        let mut ids: Vec<i64> = support::attachment_items(db, "p", "p_id")
            .iter()
            .map(|item| item[0].as_int().unwrap())
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, base, "{at}: the index on p is not whole");
    }
    if atts.contains("stats") {
        let rows = db
            .query_sql("SELECT rows FROM sys.statistics WHERE relation = 'p' AND field = '*'")
            .unwrap();
        assert_eq!(
            rows,
            vec![vec![Value::Int(base.len() as i64)]],
            "{at}: stats"
        );
    }
}

/// DDL is logged like data: crash at every I/O of a mix of CREATE/DROP
/// TABLE, CREATE/DROP INDEX, a vetoed unique-index build, `ANALYZE`, an
/// aborted CREATE, a `USING memory` table, and a `CREATE INDEX` and a
/// first `ANALYZE` built over a populated table under a pool small enough
/// that the builds steal pages before their commit forces the new files.
/// After recovery the catalog is the model's after the statements that
/// completed — with the one in flight, or without it — every relation in
/// it answers a query and checks healthy, and what was built over the
/// populated table is whole.
#[test]
fn ddl_crash_sweep_matches_the_model_catalog() {
    let mix = ddl_mix();
    let (total, stolen) = support::healthy(SEED, &ddl_pool(), |run| {
        let db = run.open().expect("open");
        let steals = || db.metrics_snapshot().counter("pool.steals");
        let builds = mix.len() - 2;
        assert_eq!(mix.run_steps(&db, 0..builds), (builds, None));
        let before = steals();
        let done = mix.run_steps(&db, builds..mix.len());
        assert_eq!(done, (mix.len(), None));
        steals() - before
    });
    assert!(
        stolen > 0,
        "the builds stole no page: grow p or shrink the pool"
    );
    support::sweep(
        SEED,
        &ddl_pool(),
        0..total,
        |run| run.open().map_or(0, |db| mix.run(&db).0),
        |db, &done, at| {
            let got = catalog_of(db);
            mix.assert_recovered(done, &got, at);
            for table in got.keys() {
                db.query_sql(&format!("SELECT COUNT(*) FROM {table}"))
                    .unwrap_or_else(|e| panic!("{at}: {table}: {e}"));
            }
            check_builds(db, &got, at);
            got
        },
    );
}

/// Steal/no-force under memory pressure (DESIGN.md §6): a pool small
/// enough that dirty pages belonging to in-flight transactions are
/// stolen — written back before their owner commits — swept with a crash
/// at every Nth I/O index. The WAL-before-evict rule makes every stolen
/// page reconcilable at restart: undo removes stolen-but-uncommitted
/// work, redo reinstates committed-but-unflushed work (commit forces
/// only the log), repeated compensation keeps rolled-back work undone on
/// a page stolen before its rollback, and the abandoned loser
/// transaction never surfaces.
#[test]
fn steal_eviction_sweep_reconciles_stolen_pages() {
    const POOL_FRAMES: usize = 4;
    const BASE: i64 = 8;
    const BIG_LO: i64 = 100;
    const BIG_MID: i64 = 120;
    const BIG_HI: i64 = 140;
    const LOSER_LO: i64 = 200;
    const LOSER_HI: i64 = 240;
    // Two rows a page: each span covers ten pages.
    const SAVED_LO: i64 = 300;
    const SAVED_HI: i64 = 320;
    const ABORTED_LO: i64 = 400;
    const ABORTED_HI: i64 = 420;

    // Wide rows so forty of them span several pages: with four frames the
    // pool cannot hold the working set and must steal dirty frames.
    fn wide(i: i64) -> Record {
        Record::new(vec![Value::Int(i), Value::from("p".repeat(400))])
    }

    fn half_page(i: i64) -> Record {
        Record::new(vec![Value::Int(i), Value::from("r".repeat(3000))])
    }

    /// Base rows autocommitted one by one, then one large multi-statement
    /// winner transaction with a span rolled back to a savepoint inside
    /// it, an aborted transaction, and an abandoned loser — each big
    /// enough that its dirty pages are evicted mid-transaction.
    fn steal_workload(db: &Arc<Database>) -> Result<()> {
        db.execute_sql("CREATE TABLE s (id INT NOT NULL, v STRING)")?;
        for i in 0..BASE {
            db.execute_sql(&format!("INSERT INTO s VALUES ({i}, 'v{i}')"))?;
        }
        let rd = db.catalog().get_by_name("s")?;
        let txn = db.begin();
        for i in BIG_LO..BIG_MID {
            db.insert(&txn, rd.id, wide(i))?;
        }
        db.savepoint(&txn, "span")?;
        for i in SAVED_LO..SAVED_HI {
            db.insert(&txn, rd.id, half_page(i))?;
        }
        db.rollback_to_savepoint(&txn, "span")?;
        for i in BIG_MID..BIG_HI {
            db.insert(&txn, rd.id, wide(i))?;
        }
        db.commit(&txn)?;
        let aborted = db.begin();
        for i in ABORTED_LO..ABORTED_HI {
            db.insert(&aborted, rd.id, half_page(i))?;
        }
        db.abort(&aborted)?;
        let loser = db.begin();
        for i in LOSER_LO..LOSER_HI {
            db.insert(&loser, rd.id, wide(i))?;
        }
        // Make the loser's log records durable so restart exercises real
        // undo of its stolen pages, not just a dropped volatile tail.
        db.services().log.force_all()?;
        drop(loser); // abandoned in flight
        Ok(())
    }

    /// After recovery at any crash point: base ids form a statement
    /// prefix, the winner transaction is all-or-nothing (its commit record
    /// either reached the durable log or did not), and neither its
    /// rolled-back span, the aborted transaction nor the loser ever
    /// surfaces, even though their pages may have been stolen to disk.
    /// Returns the ids `s` holds.
    fn check_steal_invariants(db: &Arc<Database>, at: &str) -> Vec<i64> {
        let Some(rows) = support::rows(db, "s", at) else {
            return Vec::new(); // crashed before CREATE committed
        };
        let mut base = Vec::new();
        let mut big = Vec::new();
        for &id in rows.keys() {
            match id {
                0..BASE => base.push(id),
                BIG_LO..BIG_HI => big.push(id),
                SAVED_LO..SAVED_HI => panic!("{at}: id {id} was rolled back to a savepoint"),
                ABORTED_LO..ABORTED_HI => panic!("{at}: id {id} belongs to an aborted transaction"),
                _ => panic!("{at}: id {id} is stolen loser or phantom data"),
            }
        }
        let expect_prefix: Vec<i64> = (0..base.len() as i64).collect();
        assert_eq!(
            base, expect_prefix,
            "{at}: base rows are not a statement prefix"
        );
        assert!(
            big.is_empty() || big == (BIG_LO..BIG_HI).collect::<Vec<i64>>(),
            "{at}: winner transaction torn: {} of {} rows survived",
            big.len(),
            BIG_HI - BIG_LO,
        );
        rows.into_keys().collect()
    }

    // The healthy run proves the pool actually steals (the sweep would be
    // vacuous otherwise) and sizes the I/O stream.
    let tiny = DatabaseConfig {
        pool_frames: POOL_FRAMES,
        ..DatabaseConfig::default()
    };
    let (total, steals) = support::healthy(SEED ^ 0x57EA, &tiny, |run| {
        let db = run.open().expect("open");
        steal_workload(&db).expect("workload must succeed without faults");
        db.metrics_snapshot().counter("pool.steals")
    });
    assert!(
        steals > 0,
        "pool never stole a dirty frame — grow the workload"
    );
    assert!(total > 50, "workload too small to sweep ({total} I/Os)");
    support::sweep(
        SEED ^ 0x57EA,
        &tiny,
        0..total,
        |run| {
            if let Some(db) = run.open() {
                let _ = steal_workload(&db);
            }
        },
        |db, _, at| check_steal_invariants(db, at),
    );
}

/// Rows of `t` in the every-type sweep.
const T_ROWS: i64 = 12;

/// The every-type workload: `u` and `t` carrying one instance of every
/// attachment type the conformance kit sweeps, each put on by its kit
/// entry's DDL — then autocommitted inserts, updates and deletes, one
/// CHECK veto and one refint veto.
fn every_type_script() -> Script<Tables> {
    let mut s = Script::new(Tables::new());
    s.then(kit::U, |m| {
        m.insert("u".into(), Rows::new());
    })
    .then(format!("CREATE TABLE t {}", kit::T_COLUMNS), |m| {
        m.insert("t".into(), Rows::new());
    });
    for (entry, ()) in kit::running(|e| &e.crash) {
        for ddl in entry.ddl() {
            s.then(ddl, |_| {});
        }
    }
    s.then("INSERT INTO u VALUES (0), (1), (2), (3)", |m| {
        (0..kit::GROUPS).for_each(|id| put(m, "u", vec![Value::Int(id)]))
    });
    for id in 0..T_ROWS {
        s.then(kit::insert_sql("t", &kit::row(id)), |m| {
            put(m, "t", kit::row(id))
        });
    }
    let with_v = |id: i64, v: i64| {
        let mut row = kit::row(id);
        row[kit::V] = Value::Int(v);
        row
    };
    s.then("UPDATE t SET v = 2 WHERE id = 5", |m| {
        put(m, "t", with_v(5, 2))
    })
    .vetoed(kit::insert_sql("t", &with_v(-1, 0)))
    .then("DELETE FROM t WHERE id = 7", |m| {
        m.get_mut("t").expect("t").remove(&7);
    })
    .vetoed(kit::insert_sql("t", &with_v(100, 9)))
    .then("UPDATE t SET v = 0 WHERE v = 3", |m| {
        for row in m.get_mut("t").expect("t").values_mut() {
            if row[kit::V] == Value::Int(3) {
                row[kit::V] = Value::Int(0);
            }
        }
    })
    .then("DELETE FROM t WHERE id = 0", |m| {
        m.get_mut("t").expect("t").remove(&0);
    });
    s
}

/// Every attachment type of the kit crashed at every I/O: after recovery
/// both tables hold the model's rows before the statement in flight or
/// after it, check healthy, and the cells of a type whose items are group
/// summaries equal a `GROUP BY` over `t`.
#[test]
fn every_attachment_type_recovers_at_every_io() {
    let script = every_type_script();
    let config = DatabaseConfig::default();
    let sums = kit::running(|e| &e.crash)
        .find(|(e, _)| matches!(&e.scan, Ok(scan) if matches!(scan.items, kit::Items::Groups)))
        .and_then(|(e, _)| e.instance())
        .expect("a swept type keeps group summaries");
    let workload = |run: &support::Run| {
        let Some(db) = run.open() else { return 0 };
        kit::register_hooks(&db);
        script.run(&db).0
    };
    let (total, done) = support::healthy(SEED, &config, workload);
    assert_eq!(done, script.len(), "the healthy run failed");
    support::sweep(SEED, &config, 0..total, workload, |db, &done, at| {
        let got = support::tables(db, &["t", "u"], at);
        script.assert_recovered(done, &got, at);
        for table in got.keys() {
            let report = db.query_sql(&format!("CHECK TABLE {table}")).unwrap();
            assert_eq!(report[0][2], Value::from("healthy"), "{at}: {report:?}");
        }
        let has_sums = got.contains_key("t")
            && db
                .catalog()
                .get_by_name("t")
                .unwrap()
                .find_attachment(sums)
                .is_some();
        if !has_sums {
            return (got, Vec::new());
        }
        let num = |v: &Value| v.as_float().unwrap();
        let cells: Vec<(i64, i64, f64)> = support::attachment_items(db, "t", sums)
            .iter()
            .map(|c| (c[0].as_int().unwrap(), c[1].as_int().unwrap(), num(&c[2])))
            .collect();
        let mut groups: Vec<(i64, i64, f64)> = db
            .query_sql("SELECT v, COUNT(*), SUM(id) FROM t GROUP BY v")
            .unwrap()
            .iter()
            .map(|g| (g[0].as_int().unwrap(), g[1].as_int().unwrap(), num(&g[2])))
            .collect();
        groups.sort_by_key(|g| g.0);
        assert_eq!(
            cells, groups,
            "{at}: the aggregate's cells are not the GROUP BY"
        );
        (got, cells)
    });
}

/// A corrupted relation is quarantined with a typed error while every
/// other relation keeps serving queries.
#[test]
fn corrupt_page_quarantines_one_relation_others_stay_usable() {
    // Flip one byte under the checksum layer.
    damaged_page_quarantines_one_relation(|page| page.raw_mut()[100] ^= 0x40);
}

/// Zeroing a stamped page's checksum field is damage like any other: the
/// field reads "never stamped", which only an all-zero page may claim.
#[test]
fn wiped_checksum_field_quarantines_like_any_other_damage() {
    // The field is the header's last four bytes, at offset 12.
    damaged_page_quarantines_one_relation(|page| page.put_u32(12, 0));
}

fn damaged_page_quarantines_one_relation(damage: impl Fn(&mut starburst_dmx::page::Page)) {
    let (env, injector) = DatabaseEnv::fresh_with_plan(FaultPlan::new(SEED));
    let db = reopen(&env);
    db.execute_sql("CREATE TABLE healthy (id INT NOT NULL)")
        .expect("ddl");
    db.execute_sql("CREATE TABLE victim (id INT NOT NULL)")
        .expect("ddl");
    for i in 0..5 {
        db.execute_sql(&format!("INSERT INTO healthy VALUES ({i})"))
            .expect("dml");
        db.execute_sql(&format!("INSERT INTO victim VALUES ({i})"))
            .expect("dml");
    }
    let victim_rel = db.catalog().get_by_name("victim").expect("victim").id;
    drop(db);

    // Damage the first page of the victim's data file, below the checksum
    // layer. Files: 1 = catalog, 2 = healthy, 3 = victim (creation order).
    let victim_file = starburst_dmx::types::FileId(3);
    let pid = starburst_dmx::types::PageId::new(victim_file, 0);
    let mut page = starburst_dmx::page::Page::new();
    env.disk
        .read_page(pid, &mut page)
        .expect("read victim page");
    damage(&mut page);
    env.disk.write_page(pid, &page).expect("write corrupt page");
    injector.clear();

    let db = reopen(&env);
    let retries_before = db.metrics().counter(IO_RETRIES).get();
    // The corrupt relation fails with the typed quarantine error…
    let err = db
        .query_sql("SELECT id FROM victim")
        .expect_err("must fail");
    match err {
        DmxError::RelationQuarantined { relation, .. } => assert_eq!(relation, victim_rel),
        other => panic!("expected RelationQuarantined, got {other}"),
    }
    assert_eq!(
        db.metrics().counter(IO_RETRIES).get() - retries_before,
        u64::from(MAX_IO_RETRIES),
        "the read was retried to its budget before the damage was believed"
    );
    assert_eq!(db.quarantined().len(), 1, "exactly one relation fenced");
    // …and stays fenced on repeat access without re-reading the disk.
    let again = db.query_sql("SELECT id FROM victim").expect_err("fenced");
    assert!(matches!(again, DmxError::RelationQuarantined { .. }));
    // Writes are fenced too.
    let w = db
        .execute_sql("INSERT INTO victim VALUES (99)")
        .expect_err("fenced write");
    assert!(matches!(w, DmxError::RelationQuarantined { .. }));
    // Every other relation keeps serving reads and writes.
    let rows = db
        .query_sql("SELECT id FROM healthy")
        .expect("healthy read");
    assert_eq!(rows.len(), 5);
    db.execute_sql("INSERT INTO healthy VALUES (5)")
        .expect("healthy write");
    // clear_quarantine gives one more chance; persistent damage re-fences.
    assert!(db.clear_quarantine(victim_rel));
    let refenced = db
        .query_sql("SELECT id FROM victim")
        .expect_err("still corrupt");
    assert!(matches!(refenced, DmxError::RelationQuarantined { .. }));
}

/// Every page of every file, then every log frame: what a failed open
/// must leave as it found it.
fn durable_image(env: &DatabaseEnv) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    use starburst_dmx::types::{FileId, PageId};
    let mut pages = Vec::new();
    let files = env.disk.stats().snapshot().files_created as u32;
    for file in (1..=files).map(FileId).filter(|&f| env.disk.file_exists(f)) {
        for p in 0..env.disk.page_count(file).expect("page count") {
            let mut page = starburst_dmx::page::Page::new();
            env.disk
                .read_page(PageId::new(file, p), &mut page)
                .expect("read page");
            pages.push(page.raw().to_vec());
        }
    }
    let log = &env.stable_log;
    let frames = (0..log.len())
        .map(|i| log.with_frame(i, |f| Ok(f.to_vec())).expect("read frame"))
        .collect();
    (pages, frames)
}

/// Rot of a catalog page after a clean shutdown is a checksum failure
/// like any other: the open fails with `Corrupt` — a second attempt too
/// — and leaves disk and log byte for byte as they were, the damaged
/// page in place for out-of-band repair.
#[test]
fn catalog_rot_after_clean_shutdown_fails_reopen_loudly() {
    let (env, db) = fresh();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL)")
        .expect("ddl");
    db.execute_sql("INSERT INTO t VALUES (1)").expect("dml");
    drop(db); // clean shutdown: the catalog page is on disk

    // Flip one byte of the catalog's root (file 1, page 0) under the
    // checksum layer, as silent media rot would.
    let pid = starburst_dmx::types::PageId::new(starburst_dmx::types::FileId(1), 0);
    let mut page = starburst_dmx::page::Page::new();
    env.disk
        .read_page(pid, &mut page)
        .expect("read catalog page");
    page.raw_mut()[100] ^= 0x04;
    env.disk
        .write_page(pid, &page)
        .expect("write corrupt catalog page");

    let before = durable_image(&env);
    for attempt in ["reopen over a rotted catalog", "second attempt"] {
        match starburst_dmx::open_env(env.clone(), DatabaseConfig::default()) {
            Err(DmxError::Corrupt(_)) => {}
            Err(e) => panic!("{attempt}: expected Corrupt, got {e}"),
            Ok(_) => panic!("{attempt}: must fail instead of resetting the catalog"),
        }
        assert!(
            durable_image(&env) == before,
            "{attempt}: disk or log changed"
        );
    }
}

/// Transient faults never reach the caller: the buffer manager and log
/// force retry them away, so a workload peppered with transient errors
/// completes exactly like a clean run.
#[test]
fn transient_faults_are_absorbed_by_retries() {
    let mut plan = FaultPlan::new(SEED);
    for k in (5..400).step_by(23) {
        plan = plan.transient_at(k);
    }
    let (env, injector) = DatabaseEnv::fresh_with_plan(plan);
    let db = reopen(&env);
    let script = workload();
    assert_eq!(
        script.run(&db),
        (script.len(), None),
        "transient faults must be invisible to the workload"
    );
    assert!(
        injector.injected() > 0,
        "plan never fired — workload shrank below the fault window"
    );
    let n = db.query_sql("SELECT COUNT(*) FROM t").expect("count")[0][0]
        .as_int()
        .expect("int");
    assert_eq!(n, ROWS - 1, "one row was deleted by the workload");
}

/// A permanent I/O failure surfaces as a hard error (no silent data
/// loss), and the database remains reopenable afterwards.
#[test]
fn permanent_fault_fails_statement_but_database_recovers() {
    let (env, injector) = DatabaseEnv::fresh_with_plan(FaultPlan::new(SEED).permanent_at(40));
    let db = reopen(&env);
    let script = workload();
    let (done, err) = script.run(&db);
    assert!(
        matches!(err, Some(DmxError::Io(_))),
        "expected a hard I/O error, got {err:?}"
    );
    drop(db);
    injector.clear();
    let db = reopen(&env);
    check_invariants(&db, &script, done, "after permanent fault");
}
