//! Deterministic crash-point sweep and end-to-end corruption handling.
//!
//! The sweep first runs a mixed DDL/DML workload against a pass-through
//! fault plan to count its I/O operations (one shared index spans disk
//! *and* log), then replays the same workload once per crash point k:
//! I/O index k (0-based) fails as a simulated crash, every volatile structure is
//! dropped, the injector is cleared (healthy I/O again) and the database
//! is reopened so restart recovery runs. After every crash point the
//! recovered state must be *some* transaction-consistent prefix of the
//! workload: each autocommitted statement either happened entirely or
//! not at all, reopening is idempotent, and secondary structures agree
//! with base relations.
//!
//! `FAULT_SWEEP_STRIDE` (default 1 = every point) bounds the sweep for
//! smoke runs, e.g. `FAULT_SWEEP_STRIDE=16 cargo test --test fault_sweep`.

// Examples and integration-test harnesses are exempt from the runtime
// panic discipline: failures here should abort loudly.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use starburst_dmx::prelude::*;
use starburst_dmx::query::SqlExt;
use starburst_dmx::types::fault::MAX_IO_RETRIES;
use starburst_dmx::types::obs::name::IO_RETRIES;

const SEED: u64 = 0xDEC0_DE05;
const ROWS: i64 = 12;

fn reopen(env: &DatabaseEnv) -> Arc<Database> {
    starburst_dmx::open_env(env.clone(), DatabaseConfig::default()).expect("reopen after crash")
}

/// The swept workload: DDL (heap + btree-organized tables, a unique
/// index), inserts, updates, deletes and a drop — each statement its own
/// transaction. Stops at the first error (the injected crash).
fn workload(db: &Arc<Database>) -> Result<()> {
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, v STRING)")?;
    db.execute_sql("CREATE INDEX t_id ON t USING btree (id) WITH (unique=true)")?;
    for i in 0..ROWS {
        db.execute_sql(&format!("INSERT INTO t VALUES ({i}, 'v{i}')"))?;
    }
    db.execute_sql("CREATE TABLE u (id INT NOT NULL) USING btree WITH (key=id)")?;
    for i in 0..4 {
        db.execute_sql(&format!("INSERT INTO u VALUES ({i})"))?;
    }
    db.execute_sql("UPDATE t SET v = 'updated' WHERE id = 3")?;
    db.execute_sql(&format!("DELETE FROM t WHERE id = {}", ROWS - 1))?;
    db.execute_sql("DROP TABLE u")?;
    Ok(())
}

/// Transaction-consistency invariants that must hold after recovery at
/// *any* crash point. Returns a state fingerprint for idempotence checks.
fn check_invariants(db: &Arc<Database>, at: &str) -> Vec<String> {
    let mut fingerprint = Vec::new();
    // Table t may not exist yet (crash before its CREATE committed).
    let rows = match db.query_sql("SELECT id, v FROM t") {
        Ok(rows) => rows,
        Err(DmxError::NotFound(_)) => {
            fingerprint.push("t: absent".to_string());
            return fingerprint;
        }
        Err(e) => panic!("{at}: unexpected error scanning t: {e}"),
    };
    // Statement atomicity: every surviving row is exactly what one
    // committed statement wrote.
    for row in &rows {
        let id = row[0].as_int().expect("id is INT");
        let v = row[1].as_str().expect("v is STRING");
        assert!(
            (0..ROWS).contains(&id),
            "{at}: row id {id} out of workload range"
        );
        assert!(
            v == format!("v{id}") || (id == 3 && v == "updated"),
            "{at}: row ({id}, {v:?}) is not a committed statement's image"
        );
    }
    let mut ids: Vec<i64> = rows.iter().map(|r| r[0].as_int().expect("int")).collect();
    ids.sort_unstable();
    let mut deduped = ids.clone();
    deduped.dedup();
    assert_eq!(ids, deduped, "{at}: duplicate ids after recovery");
    // The unique index (if it committed) must agree with the base table
    // for every surviving id.
    for &id in &ids {
        let via_index = db
            .query_sql(&format!("SELECT v FROM t WHERE id = {id}"))
            .unwrap_or_else(|e| panic!("{at}: keyed lookup of id {id} failed: {e}"));
        assert_eq!(via_index.len(), 1, "{at}: index disagrees on id {id}");
    }
    for row in &rows {
        fingerprint.push(format!(
            "t: {} {}",
            row[0].as_int().expect("int"),
            row[1].as_str().expect("str")
        ));
    }
    fingerprint.sort();
    // Table u: present (with consistent content) or fully absent.
    match db.query_sql("SELECT id FROM u") {
        Ok(urows) => {
            assert!(urows.len() <= 4, "{at}: u has more rows than inserted");
            fingerprint.push(format!("u: {} rows", urows.len()));
        }
        Err(DmxError::NotFound(_)) => fingerprint.push("u: absent".to_string()),
        Err(e) => panic!("{at}: unexpected error scanning u: {e}"),
    }
    fingerprint
}

fn sweep_stride() -> u64 {
    std::env::var("FAULT_SWEEP_STRIDE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(1)
}

/// The tentpole: crash at every Nth I/O of the workload, reopen, verify.
#[test]
fn crash_point_sweep_recovers_consistently() {
    // Pass 1: count the workload's I/O operations on healthy devices.
    let (env, injector) = DatabaseEnv::fresh_with_plan(FaultPlan::new(SEED));
    let db = reopen(&env);
    workload(&db).expect("workload must succeed without faults");
    drop(db);
    let total = injector.ops();
    assert!(total > 50, "workload too small to sweep ({total} I/Os)");

    let stride = sweep_stride();
    let mut swept = 0u64;
    let mut k = 0;
    while k < total {
        let at = format!("crash point {k}/{total}");
        let (env, injector) = DatabaseEnv::fresh_with_plan(FaultPlan::new(SEED).crash_at(k));
        // The crash can fire during initial open (catalog bootstrap) —
        // that is a legitimate crash point too.
        let crashed_db = starburst_dmx::open_env(env.clone(), DatabaseConfig::default())
            .inspect(|db| {
                let _ = workload(db);
            })
            .ok();
        drop(crashed_db);
        assert!(
            injector.is_crashed() || injector.injected() > 0,
            "{at}: the scheduled crash never fired"
        );
        // Reopen on healthy I/O; restart recovery must succeed.
        injector.clear();
        let db = reopen(&env);
        let fp1 = check_invariants(&db, &at);
        drop(db);
        // Crashing again immediately after recovery (before any new work)
        // must be harmless: restart is idempotent.
        let db = reopen(&env);
        let fp2 = check_invariants(&db, &format!("{at}, second reopen"));
        assert_eq!(fp1, fp2, "{at}: restart is not idempotent");
        swept += 1;
        k += stride;
    }
    assert!(swept > 0, "sweep did not cover any crash point");
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

/// A statement and what it does to the model once it has committed.
type DdlStep = (String, fn(&mut CatalogModel));

/// Rows of `p`, the populated table an index and statistics are built
/// over: wide enough to span more pages than [`DDL_POOL_FRAMES`].
const P_ROWS: usize = 48;

/// The pool the mix runs under: small enough that the builds over `p`
/// steal dirty heap pages before their commit forces the new files.
const DDL_POOL_FRAMES: usize = 6;

/// The DDL mix, one statement at a time through one session. A USING
/// memory table is temporary — no reopen finds it — and so is never in
/// the model.
fn ddl_mix() -> Vec<DdlStep> {
    let populate = (0..P_ROWS)
        .map(|i| format!("({i}, '{}')", "p".repeat(1000)))
        .collect::<Vec<_>>()
        .join(", ");
    let steps: [DdlStep; 17] = [
        ("CREATE TABLE a (id INT NOT NULL, v INT)".into(), |m| {
            create(m, "a", &["id", "v"])
        }),
        ("CREATE INDEX a_v ON a (v)".into(), |m| {
            attach(m, "a", "a_v")
        }),
        ("INSERT INTO a VALUES (1, 1), (2, 1)".into(), |_| {}),
        // vetoed by the duplicate v: a build taken back
        ("CREATE UNIQUE INDEX a_u ON a (v)".into(), |_| {}),
        ("CREATE TABLE m (x INT) USING memory".into(), |_| {}),
        ("ANALYZE TABLE a".into(), |m| attach(m, "a", "stats")),
        ("BEGIN".into(), |_| {}),
        ("CREATE TABLE b (x INT)".into(), |_| {}),
        ("ROLLBACK".into(), |_| {}),
        (
            "CREATE TABLE c (k INT NOT NULL) USING btree WITH (key = k)".into(),
            |m| create(m, "c", &["k"]),
        ),
        ("DROP INDEX a_v ON a".into(), |m| {
            m.get_mut("a").expect("a").1.remove("a_v");
        }),
        ("DROP TABLE c".into(), |m| {
            m.remove("c");
        }),
        ("CREATE TABLE d (id INT)".into(), |m| {
            create(m, "d", &["id"])
        }),
        ("CREATE TABLE p (id INT NOT NULL, pad STRING)".into(), |m| {
            create(m, "p", &["id", "pad"])
        }),
        (format!("INSERT INTO p VALUES {populate}"), |_| {}),
        // built over the rows already there
        ("CREATE INDEX p_id ON p (id)".into(), |m| {
            attach(m, "p", "p_id")
        }),
        ("ANALYZE TABLE p".into(), |m| attach(m, "p", "stats")),
    ];
    steps.into()
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

/// Runs the mix until the injected crash, returning how many statements
/// completed (the vetoed one completes by failing) and how many dirty
/// frames the builds over `p` stole.
fn run_ddl_mix(db: &Arc<Database>, injector: &FaultInjector, mix: &[DdlStep]) -> (usize, u64) {
    let session = Session::new(db.clone());
    let steals = || db.metrics_snapshot().counter("pool.steals");
    let mut stolen = 0;
    for (done, (sql, _)) in mix.iter().enumerate() {
        let before = steals();
        let res = session.execute(sql);
        if injector.is_crashed() || (res.is_err() && !sql.contains("UNIQUE")) {
            return (done, stolen);
        }
        if sql.ends_with("ON p (id)") || sql == "ANALYZE TABLE p" {
            stolen += steals() - before;
        }
    }
    (mix.len(), stolen)
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
    let rd = db.catalog().get_by_name("p").unwrap();
    let ids = |path| {
        db.with_txn(|txn| {
            let scan = db.open_scan(txn, rd.id, path, AccessQuery::All, None, None)?;
            let mut ids = Vec::new();
            while let Some(item) = db.scan_next(txn, scan)? {
                ids.push(item.values.expect("fields")[0].as_int()?);
            }
            ids.sort_unstable();
            Ok(ids)
        })
        .unwrap_or_else(|e| panic!("{at}: scanning p: {e}"))
    };
    let base = ids(AccessPath::StorageMethod);
    assert!(
        base.is_empty() || base == (0..P_ROWS as i64).collect::<Vec<_>>(),
        "{at}: p holds {base:?}"
    );
    if atts.contains("p_id") {
        let (att, inst) = rd.find_attachment("p_id").unwrap();
        let path = AccessPath::Attachment(att, inst.instance);
        assert_eq!(ids(path), base, "{at}: the index on p is not whole");
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
/// it answers a query and checks healthy, what was built over the
/// populated table is whole, and a second reopen appends nothing and
/// finds the same.
#[test]
fn ddl_crash_sweep_matches_the_model_catalog() {
    let mix = ddl_mix();
    let mut states = vec![CatalogModel::new()];
    for (_, step) in &mix {
        let mut next = states.last().expect("a state").clone();
        step(&mut next);
        states.push(next);
    }
    let (env, injector) = DatabaseEnv::fresh_with_plan(FaultPlan::new(SEED));
    let db = starburst_dmx::open_env(env.clone(), ddl_pool()).expect("open");
    let (done, stolen) = run_ddl_mix(&db, &injector, &mix);
    assert_eq!(done, mix.len());
    assert!(
        stolen > 0,
        "the builds stole no page: grow p or shrink the pool"
    );
    drop(db);
    let total = injector.ops();

    let stride = sweep_stride();
    let mut k = 0;
    while k < total {
        let at = format!("ddl crash point {k}/{total}");
        let (env, injector) = DatabaseEnv::fresh_with_plan(FaultPlan::new(SEED).crash_at(k));
        let done = starburst_dmx::open_env(env.clone(), ddl_pool())
            .map_or(0, |db| run_ddl_mix(&db, &injector, &mix).0);
        injector.clear();
        let db = reopen(&env);
        let got = catalog_of(&db);
        assert!(
            got == states[done] || states.get(done + 1) == Some(&got),
            "{at}: after {done} statements the catalog is {got:?}"
        );
        for table in got.keys() {
            db.query_sql(&format!("SELECT COUNT(*) FROM {table}"))
                .unwrap_or_else(|e| panic!("{at}: {table}: {e}"));
        }
        check_builds(&db, &got, &at);
        drop(db);
        let frames = env.stable_log.len();
        let db = reopen(&env);
        assert_eq!(env.stable_log.len(), frames, "{at}: second reopen appended");
        assert_eq!(catalog_of(&db), got, "{at}: second reopen");
        k += stride;
    }
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

    fn tiny() -> DatabaseConfig {
        DatabaseConfig {
            pool_frames: POOL_FRAMES,
            ..DatabaseConfig::default()
        }
    }

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
    fn check_steal_invariants(db: &Arc<Database>, at: &str) {
        let rows = match db.query_sql("SELECT id FROM s") {
            Ok(rows) => rows,
            Err(DmxError::NotFound(_)) => return, // crashed before CREATE committed
            Err(e) => panic!("{at}: unexpected error scanning s: {e}"),
        };
        let mut base = Vec::new();
        let mut big = Vec::new();
        for row in &rows {
            let id = row[0].as_int().expect("id is INT");
            match id {
                0..BASE => base.push(id),
                BIG_LO..BIG_HI => big.push(id),
                SAVED_LO..SAVED_HI => panic!("{at}: id {id} was rolled back to a savepoint"),
                ABORTED_LO..ABORTED_HI => panic!("{at}: id {id} belongs to an aborted transaction"),
                _ => panic!("{at}: id {id} is stolen loser or phantom data"),
            }
        }
        base.sort_unstable();
        let expect_prefix: Vec<i64> = (0..base.len() as i64).collect();
        assert_eq!(
            base, expect_prefix,
            "{at}: base rows are not a statement prefix"
        );
        big.sort_unstable();
        assert!(
            big.is_empty() || big == (BIG_LO..BIG_HI).collect::<Vec<i64>>(),
            "{at}: winner transaction torn: {} of {} rows survived",
            big.len(),
            BIG_HI - BIG_LO,
        );
    }

    // Pass 1 on healthy devices: prove the pool actually steals (the
    // sweep below would be vacuous otherwise) and size the I/O stream.
    let (env, injector) = DatabaseEnv::fresh_with_plan(FaultPlan::new(SEED ^ 0x57EA));
    let db = starburst_dmx::open_env(env.clone(), tiny()).expect("open");
    steal_workload(&db).expect("workload must succeed without faults");
    let steals = db.metrics_snapshot().counter("pool.steals");
    assert!(
        steals > 0,
        "pool never stole a dirty frame — grow the workload"
    );
    drop(db);
    let total = injector.ops();
    assert!(total > 50, "workload too small to sweep ({total} I/Os)");

    let stride = sweep_stride();
    let mut k = 0;
    while k < total {
        let at = format!("steal crash point {k}/{total}");
        let (env, injector) =
            DatabaseEnv::fresh_with_plan(FaultPlan::new(SEED ^ 0x57EA).crash_at(k));
        let crashed_db = starburst_dmx::open_env(env.clone(), tiny())
            .inspect(|db| {
                let _ = steal_workload(db);
            })
            .ok();
        drop(crashed_db);
        assert!(
            injector.is_crashed() || injector.injected() > 0,
            "{at}: the scheduled crash never fired"
        );
        injector.clear();
        let db = starburst_dmx::open_env(env.clone(), tiny()).expect("reopen after crash");
        check_steal_invariants(&db, &at);
        drop(db);
        // Restart is idempotent under steal too.
        let db = starburst_dmx::open_env(env.clone(), tiny()).expect("second reopen");
        check_steal_invariants(&db, &format!("{at}, second reopen"));
        k += stride;
    }
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
    for file in (1..64).map(FileId).filter(|&f| env.disk.file_exists(f)) {
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
    let env = DatabaseEnv::fresh();
    let db = starburst_dmx::open_env(env.clone(), DatabaseConfig::default()).expect("open");
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
    workload(&db).expect("transient faults must be invisible to the workload");
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
    let err = workload(&db).expect_err("permanent fault must surface");
    assert!(
        matches!(err, DmxError::Io(_)),
        "expected a hard I/O error, got {err}"
    );
    drop(db);
    injector.clear();
    let db = reopen(&env);
    check_invariants(&db, "after permanent fault");
}
