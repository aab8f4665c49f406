//! Self-healing storage, end to end: online scrub, automatic quarantine
//! repair (attachment rebuild and base salvage), the incident ring, and
//! out-of-space graceful degradation.
//!
//! The repair crash sweeps replay a deterministic damage + repair
//! scenario with a crash injected at every Nth I/O *inside* the scrub
//! and repair paths, then reopen on healthy devices and drive the
//! pipeline to convergence: repair is just another WAL-logged workload,
//! so a crash mid-repair must leave a state from which repair still
//! succeeds.

// Examples and integration-test harnesses are exempt from the runtime
// panic discipline: failures here should abort loudly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod support;

use std::sync::Arc;

use starburst_dmx::prelude::*;
use starburst_dmx::query::SqlExt;
use support::{fresh, reopen};

const SEED: u64 = 0x5E1F_4EA1;

/// Flips one byte of `(file, page)` under the checksum layer, as silent
/// media rot would.
fn flip_byte(env: &DatabaseEnv, file: u32, page: u32) {
    let pid = starburst_dmx::types::PageId::new(starburst_dmx::types::FileId(file), page);
    let mut p = starburst_dmx::page::Page::new();
    env.disk.read_page(pid, &mut p).expect("read page");
    p.raw_mut()[100] ^= 0x40;
    env.disk.write_page(pid, &p).expect("write page");
}

/// Creates `t` (heap, file 2) with a unique b-tree index (file 3) and
/// `rows` wide records (several pages of heap data).
fn build_indexed_table(db: &Arc<Database>, rows: i64) {
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, v STRING NOT NULL)")
        .expect("ddl");
    db.execute_sql("CREATE INDEX t_id ON t USING btree (id) WITH (unique=true)")
        .expect("index ddl");
    let pad = "x".repeat(200);
    for i in 0..rows {
        db.execute_sql(&format!("INSERT INTO t VALUES ({i}, 'v{i}_{pad}')"))
            .expect("dml");
    }
}

/// Acceptance: a byte flip in the index file quarantines the relation;
/// `REPAIR TABLE` rebuilds the index from the intact base **without a
/// reopen**, lifts the quarantine itself, and records the outcome in
/// `sys.repairs`.
#[test]
fn index_corruption_self_heals_without_reopen() {
    let (env, injector) = DatabaseEnv::fresh_with_plan(FaultPlan::new(SEED));
    let db = reopen(&env);
    build_indexed_table(&db, 20);
    drop(db);
    flip_byte(&env, 3, 0); // file 3 = the index (1 catalog, 2 heap)
    injector.clear();

    let db = reopen(&env);
    // The scrubber finds the damaged index page and fences the relation
    // proactively; every access now fails with the typed fence error.
    let r = db.execute_sql("CHECK TABLE t").expect("scrub runs");
    assert_eq!(r.rows[0][2], Value::from("quarantined"));
    let rel = db.catalog().get_by_name("t").unwrap().id;
    assert_eq!(db.quarantined().len(), 1);
    let err = db
        .query_sql("SELECT v FROM t WHERE id = 7")
        .expect_err("fenced");
    assert!(matches!(err, DmxError::RelationQuarantined { .. }));

    // The automatic pipeline: classify (base intact, index damaged),
    // rebuild through ordinary drop/create DDL, verify, lift the fence.
    let r = db.execute_sql("REPAIR TABLE t").expect("repair succeeds");
    assert_eq!(
        r.columns,
        vec![
            "relation",
            "action",
            "outcome",
            "attempts",
            "recovered",
            "lost"
        ]
    );
    assert_eq!(r.rows[0][1], Value::from("rebuild"));
    assert_eq!(r.rows[0][2], Value::from("healthy"));
    assert_eq!(r.rows[0][5], Value::Int(0), "rebuild loses nothing");

    // No reopen: the same handle serves reads again, through the index.
    assert!(db.quarantined().is_empty(), "quarantine lifted");
    assert!(db.terminal_damage(rel).is_none());
    let rows = db
        .query_sql("SELECT v FROM t WHERE id = 7")
        .expect("healed");
    assert_eq!(rows.len(), 1);
    assert_eq!(
        db.query_sql("SELECT COUNT(*) FROM t").unwrap()[0][0],
        Value::Int(20)
    );

    // The outcome is queryable.
    let repairs = db.query_sql("SELECT * FROM sys.repairs").expect("sysrel");
    assert_eq!(repairs.len(), 1);
    assert_eq!(repairs[0][1], Value::from("t"));
    assert_eq!(repairs[0][2], Value::from("rebuild"));
    assert_eq!(repairs[0][3], Value::from("healthy"));
    let snap = db.metrics_snapshot();
    assert_eq!(snap.counter("repair.rebuilds"), 1);
    assert_eq!(snap.counter("quarantine.cleared"), 1);
}

/// `CHECK TABLE` finds silent damage *proactively* — before any query
/// trips over it — and quarantines.
#[test]
fn check_table_quarantines_proactively() {
    let (env, injector) = DatabaseEnv::fresh_with_plan(FaultPlan::new(SEED));
    let db = reopen(&env);
    build_indexed_table(&db, 8);
    drop(db);
    flip_byte(&env, 3, 0);
    injector.clear();

    let db = reopen(&env);
    // No query has touched the damage yet.
    assert!(db.quarantined().is_empty());
    let r = db.execute_sql("CHECK TABLE t").expect("check runs");
    assert_eq!(r.rows[0][2], Value::from("quarantined"));
    assert_eq!(db.quarantined().len(), 1, "scrub fenced the relation");
    assert!(db.metrics_snapshot().counter("scrub.corrupt") >= 1);

    // A healthy table reports healthy and stays unfenced.
    db.execute_sql("CREATE TABLE ok (id INT NOT NULL)").unwrap();
    db.execute_sql("INSERT INTO ok VALUES (1)").unwrap();
    let r = db.execute_sql("CHECK TABLE ok").expect("check ok");
    assert_eq!(r.rows[0][2], Value::from("healthy"));
    assert_eq!(db.quarantined().len(), 1);
}

/// `CHECK TABLE` walks the files of every tree-backed attachment, and a
/// preventive `REPAIR TABLE` rebuilds the ones that can restate their
/// DDL (aggregate and R-tree among them; a join index cannot — one side
/// does not know the two-relation DDL — and is left as it is).
#[test]
fn check_and_repair_cover_aggregate_rtree_and_join_index_files() {
    let (env, db) = fresh();
    for ddl in [
        "CREATE TABLE t (id INT NOT NULL, v INT NOT NULL, area RECT NOT NULL)",
        "CREATE TABLE u (id INT NOT NULL)",
        "CREATE ATTACHMENT sums ON t USING aggregate WITH (sum = id, group_by = v)",
        "CREATE INDEX t_area ON t USING rtree (area)",
        "CREATE ATTACHMENT tu ON t USING joinindex WITH (side=left, fields=v)",
        "CREATE ATTACHMENT tu ON u USING joinindex WITH (side=right, fields=id, other=t)",
        "INSERT INTO u VALUES (0), (1), (2), (3), (4)",
    ] {
        db.execute_sql(ddl).expect("ddl");
    }
    for i in 0..200 {
        let v = i % 5; // every row of t has its partner in u
        db.execute_sql(&format!(
            "INSERT INTO t VALUES ({i}, {v}, RECT({i}, {i}, {}, {}))",
            i + 1,
            i + 2
        ))
        .expect("dml");
    }
    // (aggregate file, R-tree file, the join index's three tree files)
    let files = || {
        let rd = db.catalog().get_by_name("t").unwrap();
        let files = |name: &str| {
            let (att, inst) = rd.find_attachment(name).unwrap();
            db.registry()
                .attachment(att)
                .unwrap()
                .storage_files(&inst.desc)
        };
        (
            files("sums")[0],
            files("t_area")[0],
            <[_; 3]>::try_from(files("tu")).unwrap(),
        )
    };
    let (agg, rt, ji) = files();
    let rd = db.catalog().get_by_name("t").unwrap();
    let base = db
        .registry()
        .storage(rd.sm)
        .unwrap()
        .storage_files(&rd.sm_desc);
    let pages: i64 = base
        .iter()
        .chain([agg, rt].iter())
        .chain(ji.iter())
        .map(|&f| env.disk.page_count(f).unwrap() as i64)
        .sum();
    let r = db.execute_sql("CHECK TABLE t").expect("check");
    assert_eq!(r.rows[0][2], Value::from("healthy"), "{r:?}");
    assert_eq!(r.rows[0][1], Value::Int(pages), "base + five tree files");

    let window = "SELECT COUNT(*) FROM t WHERE area ENCLOSES RECT(50.2, 50.2, 50.8, 50.8)";
    let before = db.query_sql(window).unwrap();
    let r = db.execute_sql("REPAIR TABLE t").expect("repair");
    assert_eq!(r.rows[0][1], Value::from("rebuild"));
    assert_eq!(r.rows[0][2], Value::from("healthy"));
    let (agg2, rt2, ji2) = files();
    assert!(agg2 != agg && rt2 != rt, "aggregate and R-tree rebuilt");
    assert_eq!(ji2, ji, "join index left in place");
    assert_eq!(db.query_sql(window).unwrap(), before);
}

/// `sys.attachments` shows each instance's DDL list (`params`) without
/// the keys the engine assigned. A rebuild hands that list back to the
/// instance's type, so `REPAIR TABLE` gives every page-backed instance
/// new files and leaves every `params` as it was.
#[test]
fn repair_rebuilds_every_instance_from_its_stored_list() {
    let db = starburst_dmx::open_default().unwrap();
    for ddl in [
        "CREATE TABLE t (id INT NOT NULL, v INT NOT NULL, area RECT NOT NULL)",
        "CREATE UNIQUE INDEX t_id ON t (id)",
        "CREATE INDEX t_v ON t USING hash (v)",
        "CREATE INDEX t_area ON t USING rtree (area)",
        "CREATE ATTACHMENT sums ON t USING aggregate WITH (sum = id, group_by = v)",
        "CREATE ATTACHMENT t_stats ON t USING stats",
        "CREATE ATTACHMENT t_log ON t USING trigger WITH (on = 'insert,delete', action = 'hook:x')",
    ] {
        db.execute_sql(ddl).expect(ddl);
    }
    db.register_hook("x", Arc::new(|_, _| Ok(())));
    for i in 0..50 {
        db.execute_sql(&format!(
            "INSERT INTO t VALUES ({i}, {}, RECT({i}, {i}, {}, {}))",
            i % 4,
            i + 1,
            i + 1
        ))
        .expect("dml");
    }
    let params = || {
        db.query_sql("SELECT name, params FROM sys.attachments WHERE relation = 't' ORDER BY 1")
            .unwrap()
    };
    let before = params();
    let row = |name: &str, params: &str| vec![Value::from(name), Value::from(params)];
    assert_eq!(
        before,
        vec![
            row("sums", "sum = id, group_by = v"),
            row("t_area", "fields = area"),
            row("t_id", "fields = id, unique = true"),
            row("t_log", "on = 'insert,delete', action = 'hook:x'"),
            row("t_stats", ""),
            row("t_v", "fields = v"),
        ]
    );
    let files = || {
        let rd = db.catalog().get_by_name("t").unwrap();
        let mut files = Vec::new();
        for (att, insts) in rd.attached_types() {
            let att = db.registry().attachment(att).unwrap();
            files.extend(insts.iter().map(|i| att.storage_files(&i.desc)));
        }
        files
    };
    let old = files();
    let r = db.execute_sql("REPAIR TABLE t").expect("repair");
    assert_eq!(r.rows[0][1], Value::from("rebuild"));
    assert_eq!(r.rows[0][2], Value::from("healthy"));
    assert_eq!(params(), before);
    let new = files();
    assert_eq!(old.iter().filter(|f| !f.is_empty()).count(), 5);
    for (old, new) in old.iter().zip(&new) {
        assert_eq!(old.len(), new.len());
        assert!(
            old.is_empty() || old != new,
            "{old:?} rebuilt into new files"
        );
    }
}

/// `CHECK TABLE` demands the base's exact key set only from a path that
/// names every record; an R-tree leaves NULL rectangles out by design and
/// only has to name no record the base lacks.
#[test]
fn check_table_accepts_an_rtree_that_skips_a_null() {
    let db = starburst_dmx::open_default().unwrap();
    for ddl in [
        "CREATE TABLE p (id INT NOT NULL, area RECT)",
        "CREATE INDEX p_area ON p USING rtree (area)",
        "INSERT INTO p VALUES (1, RECT(0, 0, 1, 1)), (2, NULL)",
    ] {
        db.execute_sql(ddl).expect(ddl);
    }
    let r = db.execute_sql("CHECK TABLE p").expect("check");
    assert_eq!(r.rows[0][2], Value::from("healthy"), "{r:?}");
    assert!(db.quarantined().is_empty());
}

/// Likewise a join index: an `emp` row with no `dept` partner is in no
/// pair, and the right side's items are `emp`'s keys, not `dept`'s —
/// neither relation is damaged.
#[test]
fn check_table_accepts_a_join_index_with_an_unpartnered_row() {
    let db = starburst_dmx::open_default().unwrap();
    for ddl in [
        "CREATE TABLE emp (id INT NOT NULL, dept INT)",
        "CREATE TABLE dept (id INT NOT NULL)",
        "CREATE ATTACHMENT ed ON emp USING joinindex WITH (side=left, fields=dept)",
        "CREATE ATTACHMENT ed ON dept USING joinindex WITH (side=right, fields=id, other=emp)",
        "INSERT INTO dept VALUES (1), (2)",
        "INSERT INTO emp VALUES (10, 1), (11, 2), (12, 7)",
    ] {
        db.execute_sql(ddl).expect(ddl);
    }
    for t in ["emp", "dept"] {
        let r = db.execute_sql(&format!("CHECK TABLE {t}")).expect("check");
        assert_eq!(r.rows[0][2], Value::from("healthy"), "{t}: {r:?}");
    }
    assert!(db.quarantined().is_empty());
}

/// A damaged *base* is salvaged: every record on readable pages is
/// recovered into a fresh instance, the unreadable ones are reported as
/// lost, and the index is rebuilt on top of the salvaged base.
#[test]
fn base_corruption_salvages_readable_records() {
    let (env, injector) = DatabaseEnv::fresh_with_plan(FaultPlan::new(SEED));
    let db = reopen(&env);
    build_indexed_table(&db, 120); // wide rows: several heap pages
    drop(db);
    flip_byte(&env, 2, 1); // file 2 = the heap base, page 1
    injector.clear();

    let db = reopen(&env);
    let err = db.query_sql("SELECT id FROM t").expect_err("corrupt base");
    assert!(matches!(err, DmxError::RelationQuarantined { .. }));

    let r = db.execute_sql("REPAIR TABLE t").expect("salvage succeeds");
    assert_eq!(r.rows[0][1], Value::from("salvage"));
    assert_eq!(r.rows[0][2], Value::from("healthy"));
    let recovered = match r.rows[0][4] {
        Value::Int(n) => n,
        ref other => panic!("recovered column: {other:?}"),
    };
    let lost = match r.rows[0][5] {
        Value::Int(n) => n,
        ref other => panic!("lost column: {other:?}"),
    };
    assert!(lost > 0, "the torn page's records are lost");
    assert!(recovered > 0, "other pages' records survive");
    assert_eq!(recovered + lost, 120, "every record accounted for");

    // The relation serves again, base and index agreeing.
    assert!(db.quarantined().is_empty());
    let rows = db.query_sql("SELECT id FROM t").expect("healed");
    assert_eq!(rows.len() as i64, recovered);
    for row in &rows {
        let id = row[0].as_int().unwrap();
        let keyed = db
            .query_sql(&format!("SELECT v FROM t WHERE id = {id}"))
            .expect("keyed lookup through rebuilt index");
        assert_eq!(keyed.len(), 1);
    }
    // Survivors keep writing.
    db.execute_sql("INSERT INTO t VALUES (777, 'new')")
        .expect("post-repair write");
    assert!(db.metrics_snapshot().counter("repair.records_lost") >= 1);
}

/// A misdirected write: page 1's intact image lands on page 2 of the heap.
/// The checksum is seeded with the page's address, so the image fails its
/// check where it landed and takes the corruption path: retries,
/// quarantine, then a salvage that serves every surviving row once.
#[test]
fn a_misdirected_write_fails_its_checksum_where_it_lands() {
    let (env, injector) = DatabaseEnv::fresh_with_plan(FaultPlan::new(SEED));
    let db = reopen(&env);
    build_indexed_table(&db, 120);
    drop(db);
    let heap_page = |n| starburst_dmx::types::PageId::new(starburst_dmx::types::FileId(2), n);
    let mut image = starburst_dmx::page::Page::new();
    env.disk
        .read_page(heap_page(1), &mut image)
        .expect("read page 1");
    env.disk
        .write_page(heap_page(2), &image)
        .expect("write it at page 2");
    injector.clear();

    let db = reopen(&env);
    let r = db.execute_sql("CHECK TABLE t").expect("scrub runs");
    assert_eq!(r.rows[0][2], Value::from("quarantined"), "{r:?}");
    assert!(
        db.metrics_snapshot().counter("io.retries") > 0,
        "read retried"
    );
    let err = db.query_sql("SELECT id FROM t").expect_err("fenced");
    assert!(matches!(err, DmxError::RelationQuarantined { .. }));

    let r = db.execute_sql("REPAIR TABLE t").expect("salvage succeeds");
    assert_eq!(r.rows[0][1], Value::from("salvage"));
    assert_eq!(r.rows[0][2], Value::from("healthy"));
    let rows = db.query_sql("SELECT id FROM t").expect("healed");
    let ids: std::collections::HashSet<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    assert_eq!(ids.len(), rows.len(), "no row is served twice");
    assert_eq!(r.rows[0][4], Value::Int(rows.len() as i64), "recovered");
}

/// Manual `clear_quarantine` is observable (trace event + counter), and
/// persistent damage re-fences on the next access — the regression the
/// automatic pipeline must never reintroduce.
#[test]
fn manual_clear_is_observable_and_persistent_damage_refences() {
    let (env, injector) = DatabaseEnv::fresh_with_plan(FaultPlan::new(SEED));
    let db = reopen(&env);
    build_indexed_table(&db, 8);
    drop(db);
    flip_byte(&env, 2, 0);
    injector.clear();

    let db = reopen(&env);
    let rel = db.catalog().get_by_name("t").unwrap().id;
    let _ = db.query_sql("SELECT id FROM t").expect_err("fenced");
    assert!(db.clear_quarantine(rel));
    assert_eq!(db.metrics_snapshot().counter("quarantine.cleared"), 1);
    let trace = db.query_sql("SELECT op FROM sys.trace").expect("trace");
    assert!(
        trace
            .iter()
            .any(|r| r[0] == Value::from("quarantine_clear")),
        "clear_quarantine emits a trace event"
    );
    // The damage is still on disk: the next access re-fences.
    let err = db.query_sql("SELECT id FROM t").expect_err("re-fenced");
    assert!(matches!(err, DmxError::RelationQuarantined { .. }));
    assert_eq!(db.quarantined().len(), 1);
}

/// The incident store is a bounded ring: repeated incidents keep the
/// most recent N with monotone numbering, and evictions are counted.
#[test]
fn incident_ring_is_bounded_numbered_and_counts_evictions() {
    let (env, injector) = DatabaseEnv::fresh_with_plan(FaultPlan::new(SEED));
    let db = reopen(&env);
    build_indexed_table(&db, 8);
    drop(db);
    flip_byte(&env, 2, 0);
    injector.clear();

    let db = reopen(&env);
    let rel = db.catalog().get_by_name("t").unwrap().id;
    // Each clear + access produces a fresh fence and a fresh incident.
    const ROUNDS: u64 = 20;
    for _ in 0..ROUNDS {
        let _ = db.query_sql("SELECT id FROM t").expect_err("fenced");
        assert!(db.clear_quarantine(rel));
    }
    let _ = db.query_sql("SELECT id FROM t").expect_err("fenced");
    let total = ROUNDS + 1;

    let ring = db.incidents();
    assert!(ring.len() as u64 <= total);
    assert!(!ring.is_empty());
    let evicted = db.incidents_evicted();
    assert_eq!(evicted, total - ring.len() as u64, "ring + evicted = total");
    assert!(evicted > 0, "enough incidents to overflow the ring");
    // Numbering is monotone and ends at the newest incident.
    let numbers: Vec<u64> = ring.iter().map(|(n, _)| *n).collect();
    for w in numbers.windows(2) {
        assert_eq!(w[1], w[0] + 1, "incident numbers are consecutive");
    }
    assert_eq!(*numbers.last().unwrap(), total - 1);
    // The eviction counter is published as a metric, mirroring the
    // trace ring's truncation contract.
    assert_eq!(db.metrics_snapshot().counter("incidents.evicted"), evicted);
    // And the ring renders as numbered rows.
    let rows = db.query_sql("SELECT incident FROM sys.incidents").unwrap();
    let mut seen: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    seen.dedup();
    assert_eq!(seen.len(), ring.len(), "one row group per ring entry");
}

/// Out of space mid-statement: the statement aborts cleanly (no torn
/// state), the engine degrades to sticky read-only, reads keep working,
/// and clearing the mode after "freeing space" restores writes.
#[test]
fn out_of_space_aborts_cleanly_and_degrades_to_read_only() {
    let (env, injector) = DatabaseEnv::fresh_with_plan(FaultPlan::new(SEED));
    let db = reopen(&env);
    build_indexed_table(&db, 10);
    let before = db.query_sql("SELECT COUNT(*) FROM t").unwrap();
    drop(db);

    // Re-run the same setup with ENOSPC injected somewhere inside the
    // write path, sweeping a band of injection points.
    let mut hit = 0u64;
    for k in (20..200).step_by(13) {
        let (env, injector) = DatabaseEnv::fresh_with_plan(FaultPlan::new(SEED).enospc_at(k));
        let db = match starburst_dmx::open_env(env.clone(), DatabaseConfig::default()) {
            Ok(db) => db,
            Err(DmxError::OutOfSpace(_)) => continue, // fired during bootstrap
            Err(e) => panic!("open failed unexpectedly: {e}"),
        };
        db.execute_sql("CREATE TABLE t (id INT NOT NULL, v STRING NOT NULL)")
            .and_then(|_| {
                db.execute_sql("CREATE INDEX t_id ON t USING btree (id) WITH (unique=true)")
            })
            .map(|_| ())
            .or_else(|e| match e {
                DmxError::OutOfSpace(_) | DmxError::ReadOnly(_) => Ok(()),
                other => Err(other),
            })
            .expect("ddl fails only with the space errors");
        let mut failed: Option<i64> = None;
        for i in 0..10i64 {
            match db.execute_sql(&format!("INSERT INTO t VALUES ({i}, 'v{i}')")) {
                Ok(_) => {}
                Err(DmxError::OutOfSpace(_)) => {
                    failed = Some(i);
                    break;
                }
                Err(DmxError::ReadOnly(_)) => {
                    failed = Some(i);
                    break;
                }
                Err(DmxError::NotFound(_)) => break, // DDL never completed
                Err(e) => panic!("insert {i}: unexpected error {e}"),
            }
        }
        let Some(first_failed) = failed else {
            continue; // the injection point landed outside this run
        };
        hit += 1;
        assert!(injector.injected() > 0, "ENOSPC fired");
        assert!(!injector.is_crashed(), "ENOSPC is an error, not a crash");

        // Sticky degraded mode: writes refused, reads served.
        assert!(db.read_only_reason().is_some(), "engine went read-only");
        let err = db
            .execute_sql("INSERT INTO t VALUES (999, 'x')")
            .expect_err("read-only");
        assert!(matches!(err, DmxError::ReadOnly(_)));
        let rows = db.query_sql("SELECT id FROM t").expect("reads still work");
        // No torn state: exactly the statements before the failure.
        assert_eq!(rows.len() as i64, first_failed);

        // "Free space", clear the mode: writes resume.
        assert!(db.clear_read_only());
        db.execute_sql("INSERT INTO t VALUES (500, 'resumed')")
            .expect("writes resume after clearing degraded mode");
    }
    assert!(hit > 0, "no sweep point landed inside the write path");
    drop(injector);
    drop(env);
    drop(before);
}

/// Crash-at-every-Nth-I/O sweep through the *scrub and repair* paths:
/// damage the index, then crash inside CHECK/REPAIR. After reopening on
/// healthy devices the pipeline must still converge to a healthy,
/// fully-served relation, and a second reopen finds the same.
#[test]
fn crash_sweep_inside_scrub_and_repair_converges() {
    const ROWS: i64 = 12;
    let config = DatabaseConfig::default();

    // On healthy devices: measure the I/O window of the repair scenario
    // (everything after the byte flip). The setup before it is identical
    // at every crash point (same seed, same statements), so absolute I/O
    // indices line up run to run.
    let (_, (start, total)) = support::healthy(SEED, &config, |run| {
        let db = run.open().expect("open");
        build_indexed_table(&db, ROWS);
        drop(db);
        // The flip itself flows through the fault layer (env.disk is the
        // injected disk), so the sweep window starts after it.
        flip_byte(run.env, 3, 0);
        let start = run.injector.ops();
        let db = run.open().expect("reopen");
        db.execute_sql("CHECK TABLE t").expect("scrub");
        db.execute_sql("REPAIR TABLE t").expect("repair");
        // The window ends at the last repair I/O: the verification below
        // and the close do a few more ops that the crashed runs never
        // replay, so a crash scheduled there would never fire.
        let total = run.injector.ops();
        assert_eq!(
            db.query_sql("SELECT COUNT(*) FROM t").unwrap()[0][0],
            Value::Int(ROWS)
        );
        (start, total)
    });
    assert!(
        total > start + 30,
        "scrub+repair window too small to sweep ({start}..{total})"
    );

    support::sweep(
        SEED,
        &config,
        start..total,
        |run| {
            let db = run.open().expect("the crash comes after the setup");
            build_indexed_table(&db, ROWS);
            drop(db);
            flip_byte(run.env, 3, 0);
            if let Some(db) = run.open() {
                let _ = db
                    .execute_sql("CHECK TABLE t")
                    .and_then(|_| db.execute_sql("REPAIR TABLE t"));
            }
        },
        |db, _, at| {
            // Drive the pipeline to convergence.
            if !db.quarantined().is_empty() || db.execute_sql("CHECK TABLE t").map(|_| ()).is_ok() {
                // The index may still be damaged (crash before the rebuild
                // committed) or already healed; REPAIR is idempotent either
                // way — run it whenever the scrub left a fence.
                if !db.quarantined().is_empty() {
                    db.execute_sql("REPAIR TABLE t")
                        .unwrap_or_else(|e| panic!("{at}: repair after crash failed: {e}"));
                }
            }
            assert!(db.quarantined().is_empty(), "{at}: fence not lifted");
            let n = db.query_sql("SELECT COUNT(*) FROM t").expect("count")[0][0]
                .as_int()
                .unwrap();
            assert_eq!(n, ROWS, "{at}: repair lost committed base records");
            for id in 0..ROWS {
                let keyed = db
                    .query_sql(&format!("SELECT v FROM t WHERE id = {id}"))
                    .unwrap_or_else(|e| panic!("{at}: keyed lookup failed: {e}"));
                assert_eq!(keyed.len(), 1, "{at}: index disagrees on id {id}");
            }
            support::rows(db, "t", at)
        },
    );
}

/// Unrepairable damage reaches the typed terminal state: repair fails
/// with `RepairImpossible`, the relation stays fenced, and `sys.repairs`
/// records the terminal outcome.
#[test]
fn unrepairable_damage_is_a_typed_terminal_state() {
    let (env, injector) = DatabaseEnv::fresh_with_plan(FaultPlan::new(SEED));
    let db = reopen(&env);
    // A btree-*organized* table (no separate base): salvage needs the
    // storage method to support it; damage plus an unsupported salvage
    // is permanent.
    db.execute_sql("CREATE TABLE b (id INT NOT NULL) USING btree WITH (key=id)")
        .expect("ddl");
    for i in 0..6 {
        db.execute_sql(&format!("INSERT INTO b VALUES ({i})"))
            .expect("dml");
    }
    drop(db);
    flip_byte(&env, 2, 0); // file 2 = the btree-organized table
    injector.clear();

    let db = reopen(&env);
    let rel = db.catalog().get_by_name("b").unwrap().id;
    let _ = db.query_sql("SELECT id FROM b").expect_err("fenced");

    match db.execute_sql("REPAIR TABLE b") {
        Err(DmxError::RepairImpossible { relation, .. }) => assert_eq!(relation, rel),
        other => panic!("expected RepairImpossible, got {other:?}"),
    }
    assert!(db.terminal_damage(rel).is_some(), "terminal state recorded");
    assert_eq!(db.quarantined().len(), 1, "still fenced");
    // Repeat attempts short-circuit on the terminal state.
    assert!(matches!(
        db.execute_sql("REPAIR TABLE b"),
        Err(DmxError::RepairImpossible { .. })
    ));
    let repairs = db.query_sql("SELECT outcome FROM sys.repairs").unwrap();
    assert!(repairs.iter().any(|r| r[0] == Value::from("terminal")));
    assert!(db.metrics_snapshot().counter("repair.failures") >= 1);
}
