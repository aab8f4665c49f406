//! Observability as an extension: the `sys.*` system relations answer
//! ordinary SQL, EXPLAIN ANALYZE reports estimated-vs-actual rows that
//! agree with a model oracle, and the flight recorder captures a
//! deterministic incident report when a relation is quarantined. All of
//! it must be a pure function of the seed: two same-seed runs render
//! byte-identical `sys.metrics` output and identical EXPLAIN ANALYZE
//! actuals.

// Examples and integration-test harnesses are exempt from the runtime
// panic discipline: failures here should abort loudly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::sync::Arc;

use starburst_dmx::prelude::*;
use starburst_dmx::types::testrng::TestRng;
use starburst_dmx::wal::LogBody;

const SEED: u64 = 0x0B5E_7AB1_E0B5_E55E;
const ROWS: usize = 80;

/// Builds a database with a seeded `emp` table (unique btree index on
/// `id`) and returns the model of its rows.
fn seeded_db(seed: u64) -> (Arc<Database>, BTreeMap<i64, i64>) {
    let db = starburst_dmx::open_default().unwrap();
    db.execute_sql("CREATE TABLE emp (id INT NOT NULL, name STRING NOT NULL, dept INT NOT NULL)")
        .unwrap();
    db.execute_sql("CREATE UNIQUE INDEX emp_pk ON emp (id)")
        .unwrap();
    let mut rng = TestRng::new(seed);
    let mut model = BTreeMap::new();
    for id in 0..ROWS as i64 {
        let dept = rng.range_i64(0, 8);
        db.execute_sql(&format!("INSERT INTO emp VALUES ({id}, 'e{id}', {dept})"))
            .unwrap();
        model.insert(id, dept);
    }
    (db, model)
}

/// Renders a query result to one canonical string (stable row/value
/// formatting, one row per line).
fn render(rows: &[Vec<Value>]) -> String {
    let mut out = String::new();
    for row in rows {
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                out.push('|');
            }
            out.push_str(&format!("{v:?}"));
        }
        out.push('\n');
    }
    out
}

#[test]
fn sys_relations_answer_ordinary_sql() {
    let (db, _model) = seeded_db(SEED);

    // sys.metrics: live counters through the ordinary SQL path,
    // including WHERE pushdown.
    let metrics = db.execute_sql("SELECT * FROM sys.metrics").unwrap();
    assert_eq!(metrics.columns, vec!["name", "kind", "value"]);
    let inserted = db
        .query_sql("SELECT value FROM sys.metrics WHERE name = 'dml.inserts'")
        .unwrap();
    assert_eq!(inserted.len(), 1);
    assert!(inserted[0][0].as_int().unwrap() >= ROWS as i64);

    // sys.relations: catalog + stats + quarantine flag; emp is healthy.
    let emp = db
        .query_sql(
            "SELECT storage_method, records, quarantined FROM sys.relations WHERE name = 'emp'",
        )
        .unwrap();
    assert_eq!(emp.len(), 1);
    assert_eq!(emp[0][0], Value::Str("heap".into()));
    assert_eq!(emp[0][1], Value::Int(ROWS as i64));
    assert_eq!(emp[0][2], Value::Null);
    // the sys relations themselves appear, stored by the system method
    let sys_rows = db
        .query_sql("SELECT name FROM sys.relations WHERE storage_method = 'system'")
        .unwrap();
    assert!(sys_rows.len() >= 8, "all sys.* relations are published");

    // sys.attachments: the unique index instance shows up.
    let atts = db
        .query_sql("SELECT type, name FROM sys.attachments WHERE relation = 'emp'")
        .unwrap();
    assert!(atts
        .iter()
        .any(|r| r[1] == Value::Str("emp_pk".into()) && r[0] == Value::Str("btree".into())));

    // sys.locks: the scanning transaction's own locks are visible.
    let locks = db.execute_sql("SELECT * FROM sys.locks").unwrap();
    assert_eq!(locks.columns, vec!["name", "txn", "mode", "state"]);
    assert!(
        !locks.rows.is_empty(),
        "the sys.locks scan itself holds locks"
    );
    assert!(locks
        .rows
        .iter()
        .all(|r| r[3] == Value::Str("held".into()) || r[3] == Value::Str("waiting".into())));

    // sys.plan_cache: a compiled query is listed as valid.
    db.query_sql("SELECT dept FROM emp WHERE id = 3").unwrap();
    let cache = db
        .query_sql(
            "SELECT valid FROM sys.plan_cache WHERE sql = 'SELECT dept FROM emp WHERE id = 3'",
        )
        .unwrap();
    assert_eq!(cache, vec![vec![Value::Bool(true)]]);

    // sys.histograms: bucket rows are well-formed where present.
    let hist = db.execute_sql("SELECT * FROM sys.histograms").unwrap();
    assert_eq!(hist.columns, vec!["name", "bucket", "upper_bound", "count"]);

    // sys.incidents: empty while healthy.
    assert!(db
        .query_sql("SELECT * FROM sys.incidents")
        .unwrap()
        .is_empty());

    // sys.* relations are read-only: DML is rejected.
    let err = db
        .execute_sql("INSERT INTO sys.metrics VALUES ('x', 'counter', 1)")
        .expect_err("system relations reject writes");
    assert!(matches!(err, DmxError::Unsupported(_)), "got {err}");
}

#[test]
fn sys_trace_drains_events_and_reports_eviction() {
    let (db, _model) = seeded_db(SEED);
    // Under steal/no-force (DESIGN.md §6) a commit emits a single log
    // `force` event instead of the old per-page flush cascade, so the
    // seeding workload alone no longer overflows the ring. Drive enough
    // additional commits to push the event count past the ring capacity
    // so the first drain starts past zero and the eviction counter is
    // visible.
    for i in 0..300i64 {
        db.execute_sql(&format!(
            "UPDATE emp SET dept = {} WHERE id = {}",
            i % 8,
            i % 80
        ))
        .unwrap();
    }
    // No-force: page write-back does not scale with the commit count.
    let flushes = db.metrics_snapshot().counter("pool.flushes");
    assert!(
        flushes <= 16,
        "{flushes} page flushes across 380 commits: commit is writing pages back"
    );
    let trace = db.execute_sql("SELECT * FROM sys.trace").unwrap();
    assert_eq!(
        trace.columns,
        vec!["seq", "layer", "op", "target", "detail"]
    );
    assert!(!trace.rows.is_empty(), "layers emit trace events");
    let first_seq = trace.rows[0][0].as_int().unwrap();
    assert!(
        first_seq > 0,
        "truncation is visible as a nonzero first seq"
    );
    let evicted = db
        .query_sql("SELECT value FROM sys.metrics WHERE name = 'trace.evicted'")
        .unwrap();
    assert!(evicted[0][0].as_int().unwrap() > 0);
    // Index accesses leave "att probe" events in the trace. `emp` is
    // small enough that the optimizer prefers the full scan, so probe a
    // table large enough for the unique index to win the cost race.
    db.execute_sql("CREATE TABLE big (id INT NOT NULL, name STRING NOT NULL)")
        .unwrap();
    db.execute_sql("CREATE UNIQUE INDEX big_pk ON big (id)")
        .unwrap();
    let rd = db.catalog().get_by_name("big").unwrap();
    db.with_txn(|txn| {
        for i in 0..2000i64 {
            db.insert(
                txn,
                rd.id,
                Record::new(vec![Value::Int(i), Value::Str(format!("e{i}"))]),
            )?;
        }
        Ok(())
    })
    .unwrap();
    let plan = db
        .execute_sql("EXPLAIN SELECT name FROM big WHERE id = 7")
        .unwrap();
    assert!(
        render(&plan.rows).contains("attachment"),
        "index path chosen: {}",
        render(&plan.rows)
    );
    db.query_sql("SELECT name FROM big WHERE id = 7").unwrap();
    let att_events = db
        .query_sql("SELECT op FROM sys.trace WHERE layer = 'att'")
        .unwrap();
    assert!(att_events
        .iter()
        .any(|r| r[0] == Value::Str("probe".into())));
}

#[test]
fn sys_metrics_output_is_byte_identical_across_same_seed_runs() {
    let render_run = || {
        let (db, _) = seeded_db(SEED);
        // mixed workload: probes, full scans, a cache hit, DML
        db.query_sql("SELECT name FROM emp WHERE id = 11").unwrap();
        db.query_sql("SELECT name FROM emp WHERE id = 11").unwrap();
        db.query_sql("SELECT COUNT(*) FROM emp WHERE dept = 3")
            .unwrap();
        db.execute_sql("UPDATE emp SET dept = 9 WHERE id = 5")
            .unwrap();
        render(&db.query_sql("SELECT * FROM sys.metrics").unwrap())
    };
    let a = render_run();
    let b = render_run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "sys.metrics must be a pure function of the seed");
}

/// Bytes of every frame in the stable log.
fn stable_log_bytes(db: &Arc<Database>) -> u64 {
    let stable = db.services().log.stable();
    (0..stable.len())
        .map(|i| stable.with_frame(i, |f| Ok(f.len() as u64)).unwrap())
        .sum()
}

/// `wal.bytes` counts the bytes of every frame made durable — the
/// stable log's frame lengths, exactly — and the per-writer counters
/// (`wal.bytes.sm.<id>`, `wal.bytes.att.<id>`, `wal.bytes.txn`) split it
/// with nothing left over. `wal.frame_overhead_bytes` is what is not
/// the records' payloads: headers and checksums.
#[test]
fn wal_bytes_are_the_stable_logs_and_split_by_writer() {
    let (db, _) = seeded_db(SEED);
    db.execute_sql(
        "CREATE ATTACHMENT emp_n ON emp USING aggregate WITH (sum = id, group_by = dept)",
    )
    .unwrap();
    db.execute_sql("ANALYZE TABLE emp").unwrap();
    db.execute_sql("UPDATE emp SET dept = 9 WHERE id < 10")
        .unwrap();
    let s = Session::new(db.clone());
    s.execute("BEGIN").unwrap();
    s.execute("DELETE FROM emp WHERE id > 70").unwrap();
    s.execute("ROLLBACK").unwrap();
    // The rollback's records are still volatile: nothing forces an abort.
    db.services().log.force_all().unwrap();

    let snap = db.metrics_snapshot();
    let total = snap.counter("wal.bytes");
    assert_eq!(total, stable_log_bytes(&db));
    let by_sql = db
        .query_sql("SELECT value FROM sys.metrics WHERE name = 'wal.bytes'")
        .unwrap();
    assert_eq!(by_sql, vec![vec![Value::Int(total as i64)]]);
    let writers: BTreeMap<&str, u64> = snap
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("wal.bytes."))
        .map(|(name, v)| (name.as_str(), *v))
        .collect();
    assert_eq!(writers.values().sum::<u64>(), total, "{writers:?}");
    let records = db.services().log.stable().all().unwrap();
    let payloads: u64 = (records.iter())
        .map(|rec| match &rec.body {
            LogBody::DeferredIntent { payload } => payload.len() as u64,
            body => body.ext_ops().map(|op| op.payload.len() as u64).sum(),
        })
        .sum();
    let overhead = snap.counter("wal.frame_overhead_bytes");
    assert!(overhead > 0 && payloads > 0);
    assert_eq!(overhead + payloads, total);
    // Each UPDATE's heap change and its attachments' share a frame:
    // `wal.ext_ops` counts them all, `wal.appends` the frames.
    let ops: usize = records.iter().map(|rec| rec.body.ext_ops().count()).sum();
    assert_eq!(snap.counter("wal.ext_ops"), ops as u64);
    assert!(
        records
            .iter()
            .any(|rec| matches!(&rec.body, LogBody::ExtOps(ops) if ops.len() > 2)),
        "no modification shared a frame"
    );
    assert_eq!(snap.counter("wal.appends"), records.len() as u64);
    let rd = db.catalog().get_by_name("emp").unwrap();
    let (index, _) = rd.find_attachment("emp_pk").unwrap();
    let (aggregate, _) = rd.find_attachment("emp_n").unwrap();
    for name in [
        "wal.bytes.txn".to_string(),
        format!("wal.bytes.sm.{}", rd.sm.0),
        format!("wal.bytes.att.{}", index.0),
        format!("wal.bytes.att.{}", aggregate.0),
    ] {
        assert!(writers.get(name.as_str()) > Some(&0), "{name}: {writers:?}");
    }
}

/// The log a transaction writes, ratcheted: 20 writes — 12 updates of
/// one width, 4 inserts, 4 deletes — on a heap carrying statistics, an
/// aggregate and two B-tree indexes log at most this many bytes, in one
/// frame per write between Begin and Commit. An update that keeps a
/// record's or a maintained cell's length logs the bytes it changed, not
/// two whole images (measured: 33,718 B when both images were logged,
/// 9,500 B since), a frame stores no LSN and its small numbers as
/// varints (5,656 B since), and a write's heap change and its
/// attachments' side effects share one frame, naming their relation
/// once (5,032 B since, in 22 frames, not 114), and a number in a key
/// takes the bytes its magnitude needs, not 17 (3,829 B since). Lower it
/// when the log shrinks.
const TWENTY_WRITES_LOG_AT_MOST: u64 = 3_850;

#[test]
fn a_twenty_write_transaction_logs_no_more_than_its_budget() {
    let db = starburst_dmx::open_default().unwrap();
    for ddl in [
        "CREATE TABLE ord (id INT NOT NULL, region INT NOT NULL, cust INT NOT NULL, \
         amt INT NOT NULL, note STRING NOT NULL)",
        "CREATE UNIQUE INDEX ord_id ON ord (id)",
        "CREATE INDEX ord_cust ON ord (cust)",
        "CREATE ATTACHMENT ord_sums ON ord USING aggregate WITH (sum = amt, group_by = region)",
        "ANALYZE TABLE ord",
    ] {
        db.execute_sql(ddl).unwrap();
    }
    let rel = db.catalog().get_by_name("ord").unwrap().id;
    let row = |id: i64, salt: i64| {
        Record::new(vec![
            Value::Int(id),
            Value::Int((id * 31 + salt) % 50),
            Value::Int((id * 7919 + salt * 13) % 5000),
            Value::Int(100 + (id * 37 + salt * 101) % 9000),
            Value::Str(format!("note{:012}", id * 1_000_003 + salt)),
        ])
    };
    let mut keys = Vec::new();
    db.with_txn(|txn| {
        for id in 0..200 {
            keys.push(db.insert(txn, rel, row(id, 0))?);
        }
        Ok(())
    })
    .unwrap();
    db.execute_sql("ANALYZE TABLE ord").unwrap();
    db.services().log.force_all().unwrap();

    let logged = || {
        let snap = db.metrics_snapshot();
        (snap.counter("wal.bytes"), snap.counter("wal.appends"))
    };
    let (before, frames_before) = logged();
    db.with_txn(|txn| {
        for (id, key) in (20..).zip(&keys[20..32]) {
            db.update(txn, rel, key, row(id, 1))?;
        }
        for id in 200..204 {
            db.insert(txn, rel, row(id, 1))?;
        }
        for key in &keys[..4] {
            db.delete(txn, rel, key)?;
        }
        Ok(())
    })
    .unwrap();
    let (after, frames_after) = logged();
    let (bytes, frames) = (after - before, frames_after - frames_before);
    assert!(
        bytes <= TWENTY_WRITES_LOG_AT_MOST,
        "a 20-write transaction logged {bytes} B"
    );
    // Begin, one frame per write and Commit.
    assert_eq!(frames, 22, "a 20-write transaction's frames");
}

/// A build logs nothing its DDL commit forces. Over 1,000 rows and
/// over 10,000, `CREATE INDEX` and a first `ANALYZE TABLE` each offer
/// every row to the build (`att.build_rows`), force the log once — at
/// their commit point — and log the same bytes give or take a few
/// bytes of varint and count width: the catalog records, not a record a
/// row (measured: 107 and 109 B for the index, 82 B for the statistics;
/// a backfill logged row by row wrote 43,107 and 430,109 B for the
/// index, 50,257 and 473,431 B for the statistics, and forced twice).
/// Lower it when the log shrinks.
const BUILD_LOGS_AT_MOST: u64 = 120;

#[test]
fn a_build_logs_the_same_over_ten_times_the_rows() {
    let cost = |rows: i64| {
        let db = starburst_dmx::open_default().unwrap();
        db.execute_sql("CREATE TABLE t (id INT NOT NULL, v INT NOT NULL)")
            .unwrap();
        let rel = db.catalog().get_by_name("t").unwrap().id;
        db.with_txn(|txn| {
            for i in 0..rows {
                db.insert(
                    txn,
                    rel,
                    Record::new(vec![Value::Int(i), Value::Int(i % 97)]),
                )?;
            }
            Ok(())
        })
        .unwrap();
        let counted = || {
            let snap = db.metrics_snapshot();
            ["wal.forces", "wal.bytes", "att.build_rows"].map(|name| snap.counter(name))
        };
        ["CREATE INDEX t_v ON t (v)", "ANALYZE TABLE t"].map(|sql| {
            let before = counted();
            db.execute_sql(sql).unwrap();
            let after = counted();
            let [forces, bytes, built] = [0, 1, 2].map(|i| after[i] - before[i]);
            assert_eq!(built, rows as u64, "{sql}: rows offered to the build");
            assert_eq!(forces, 1, "{sql} over {rows} rows forced {forces} times");
            bytes
        })
    };
    let (small, large) = (cost(1_000), cost(10_000));
    for (sql, (small, large)) in ["CREATE INDEX", "ANALYZE"]
        .iter()
        .zip(small.into_iter().zip(large))
    {
        assert!(
            small.abs_diff(large) <= 8 && large <= BUILD_LOGS_AT_MOST,
            "{sql} logged {small} B over 1,000 rows and {large} B over 10,000"
        );
    }
}

/// An ascending load splits its tree on the rightmost path, where the
/// full page stays full: measured 36 pages for 5,000 rows of a `USING
/// btree` relation (the byte-halving split left 70) and 216 for a unique
/// index over 50,000 ids (431); 29 and 143 since a number in a key takes
/// the bytes its magnitude needs, not 17. Lower them when pages pack
/// tighter.
const ASCENDING_LOAD_PAGES_AT_MOST: [u64; 2] = [29, 143];

/// What each load logs, the same under either split rule: a split logs
/// nothing, for the log is logical above the tree's page layout.
const ASCENDING_LOAD_WAL_BYTES: [u64; 2] = [338_261, 3_199_759];

#[test]
fn an_ascending_load_packs_its_tree_and_logs_no_split() {
    let db = starburst_dmx::open_default().unwrap();
    let logged = || db.metrics_snapshot().counter("wal.bytes");
    // the pages of a relation's storage, or of one of its attachments
    let pages = |table: &str, index: Option<&str>| {
        let rd = db.catalog().get_by_name(table).unwrap();
        let files = match index.and_then(|name| rd.find_attachment(name)) {
            Some((att, inst)) => db
                .registry()
                .attachment(att)
                .unwrap()
                .storage_files(&inst.desc),
            None => db
                .registry()
                .storage(rd.sm)
                .unwrap()
                .storage_files(&rd.sm_desc),
        };
        let disk = &db.services().disk;
        files
            .iter()
            .map(|&f| disk.page_count(f).unwrap() as u64)
            .sum::<u64>()
    };
    db.execute_sql(
        "CREATE TABLE item (id INT NOT NULL, qty INT, name STRING) USING btree WITH (key=id)",
    )
    .unwrap();
    db.execute_sql("CREATE TABLE u (id INT NOT NULL, v INT)")
        .unwrap();
    db.execute_sql("CREATE UNIQUE INDEX u_id ON u (id)")
        .unwrap();
    let before = logged();
    for i in 0..5_000 {
        db.execute_sql(&format!(
            "INSERT INTO item VALUES ({i}, {}, 'item {i}')",
            i % 13
        ))
        .unwrap();
    }
    let item_bytes = logged() - before;
    let rel = db.catalog().get_by_name("u").unwrap().id;
    let before = logged();
    db.with_txn(|txn| {
        for i in 0..50_000 {
            db.insert(
                txn,
                rel,
                Record::new(vec![Value::Int(i), Value::Int(i % 7)]),
            )?;
        }
        Ok(())
    })
    .unwrap();
    let index_bytes = logged() - before;
    let measured = [pages("item", None), pages("u", Some("u_id"))];
    assert!(
        measured
            .iter()
            .zip(ASCENDING_LOAD_PAGES_AT_MOST)
            .all(|(&m, cap)| m <= cap),
        "tree pages {measured:?}, at most {ASCENDING_LOAD_PAGES_AT_MOST:?}"
    );
    assert_eq!([item_bytes, index_bytes], ASCENDING_LOAD_WAL_BYTES);
}

/// The build token refuses, in a debug build, a file outside its
/// instance's storage files.
#[cfg(debug_assertions)]
mod build_token {
    use std::sync::Arc;

    use starburst_dmx::core::{
        Attachment, AttachmentInstance, ExecCtx, LoggedTree, Modification, RelationDescriptor,
        TreeFile,
    };
    use starburst_dmx::prelude::*;
    use starburst_dmx::types::FileId;

    /// An attachment whose build writes a tree it did not declare among its
    /// storage files: no commit would write that change back.
    struct Undeclared;

    impl Attachment for Undeclared {
        fn name(&self) -> &str {
            "undeclared"
        }

        fn create_instance(
            &self,
            ctx: &ExecCtx<'_>,
            _: &RelationDescriptor,
            _: &str,
            _: &AttrList,
        ) -> Result<AttrList> {
            // Not under the assigned `file` and `root`, which the default
            // `storage_files` reads.
            let tree = TreeFile::create(ctx.services())?;
            AttrList::from_pairs([
                ("tree_file", tree.file.0.to_string()),
                ("tree_root", tree.root_page.to_string()),
            ])
        }

        fn on_modify(
            &self,
            ctx: &ExecCtx<'_>,
            rd: &RelationDescriptor,
            instances: &[AttachmentInstance],
            m: &Modification<'_>,
        ) -> Result<()> {
            for inst in instances {
                let attrs = inst.attrs()?;
                let word = |key: &str| attrs.get_u64(key, 0).map(|v| v as u32);
                let tree = TreeFile {
                    file: FileId(word("tree_file")?),
                    root_page: word("tree_root")?,
                };
                let logged = LoggedTree::attachment(ctx, rd, inst, tree.open_tree(ctx.services()));
                logged.apply(m.key().as_bytes(), None, Some(b"x"))?;
            }
            Ok(())
        }
    }

    /// The build token covers its instance's storage files and nothing else:
    /// a debug build refuses an unlogged change to any other file.
    #[test]
    #[should_panic(expected = "a build writes only its instance's files")]
    fn the_build_token_refuses_a_file_outside_its_instance() {
        let registry = starburst_dmx::default_registry().unwrap();
        registry.register_attachment(Arc::new(Undeclared)).unwrap();
        let db = Database::open_fresh(registry).unwrap();
        db.execute_sql("CREATE TABLE t (id INT NOT NULL)").unwrap();
        db.execute_sql("INSERT INTO t VALUES (1), (2)").unwrap();
        let _ =
            db.with_txn(|txn| db.create_attachment(txn, "t", "undeclared", "u", &AttrList::new()));
    }
}

#[test]
fn explain_analyze_actuals_match_the_model_oracle() {
    let (db, model) = seeded_db(SEED);
    let expected = model.values().filter(|&&d| d == 3).count() as i64;

    let run = |db: &Arc<Database>| {
        db.execute_sql("EXPLAIN ANALYZE SELECT name FROM emp WHERE dept = 3")
            .unwrap()
    };
    let r = run(&db);
    assert_eq!(r.columns, vec!["plan", "estimated", "actual"]);
    // The access node reports estimated and actual rows; the actual
    // count agrees with the model oracle.
    let access = r
        .rows
        .iter()
        .find(|row| matches!(&row[0], Value::Str(s) if s.contains("Access emp")))
        .expect("access node present");
    assert!(matches!(access[1], Value::Int(_)), "estimate rendered");
    assert_eq!(access[2], Value::Int(expected), "actual matches oracle");
    // The root (Project) row count equals the query's own result size.
    let project = r
        .rows
        .iter()
        .find(|row| matches!(&row[0], Value::Str(s) if s.starts_with("Project")))
        .expect("project node present");
    assert_eq!(project[2], Value::Int(expected));
    // Oracle cross-check through the ordinary execution path.
    let direct = db.query_sql("SELECT name FROM emp WHERE dept = 3").unwrap();
    assert_eq!(direct.len() as i64, expected);

    // Estimation error was recorded.
    let mis = db
        .query_sql("SELECT value FROM sys.metrics WHERE name = 'planner.misestimate' AND kind = 'histogram_count'")
        .unwrap();
    assert!(mis[0][0].as_int().unwrap() >= 1);

    // A nested loop re-opens its inner side per outer row: the inner
    // access's actual count sums over the openings, and so does its
    // estimate (the plan line keeps the per-opening figure).
    db.execute_sql("CREATE TABLE pick (emp_id INT NOT NULL)")
        .unwrap();
    db.execute_sql(
        "INSERT INTO pick VALUES (0), (3), (6), (9), (12), (15), (18), (21), (24), (27)",
    )
    .unwrap();
    let join = db
        .execute_sql("EXPLAIN ANALYZE SELECT e.name FROM pick p, emp e WHERE p.emp_id = e.id")
        .unwrap();
    let inner = join
        .rows
        .iter()
        .find(|row| matches!(&row[0], Value::Str(s) if s.contains("Access emp") && s.contains("[probe]")))
        .unwrap_or_else(|| panic!("emp probed: {}", render(&join.rows)));
    let (est, actual) = (inner[1].as_int().unwrap(), inner[2].as_int().unwrap());
    assert_eq!(actual, 10);
    assert!(est * 2 >= actual && est <= actual * 2, "estimated {est}");

    // Same seed, fresh database: identical actuals, byte for byte.
    let (db2, _) = seeded_db(SEED);
    assert_eq!(render(&r.rows), render(&run(&db2).rows));
}

#[test]
fn explain_describes_dml_pipelines_without_executing() {
    let (db, _model) = seeded_db(SEED);
    db.execute_sql("CREATE CONSTRAINT dept_pos ON emp CHECK (dept >= 0)")
        .unwrap();
    let before = db.query_sql("SELECT COUNT(*) FROM emp").unwrap();

    let ins = db
        .execute_sql("EXPLAIN INSERT INTO emp VALUES (999, 'x', 1)")
        .unwrap();
    let text = render(&ins.rows);
    assert!(text.contains("Insert into emp via heap"), "{text}");
    assert!(text.contains("attachment btree 'emp_pk'"), "{text}");
    assert!(text.contains("attachment check 'dept_pos'"), "{text}");

    let upd = db
        .execute_sql("EXPLAIN UPDATE emp SET dept = 2 WHERE id = 1")
        .unwrap();
    let text = render(&upd.rows);
    assert!(text.contains("Update emp via heap"), "{text}");
    // The target access is the planner's: the line is the one EXPLAIN
    // SELECT prints for the same predicate (path, query, estimate).
    let sel = db
        .execute_sql("EXPLAIN SELECT * FROM emp WHERE id = 1")
        .unwrap();
    let access = match &sel.rows[1][0] {
        Value::Str(line) => line.clone(),
        other => panic!("plan line came back as {other:?}"),
    };
    assert!(access.starts_with("  Access emp via "), "{access}");
    assert_eq!(upd.rows[1][0], Value::Str(access.clone()), "{text}");

    let del = db
        .execute_sql("EXPLAIN DELETE FROM emp WHERE id = 1")
        .unwrap();
    assert!(render(&del.rows).contains("Delete from emp via heap"));
    assert_eq!(del.rows[1][0], Value::Str(access));
    // No WHERE, no usable index: the full storage-method scan.
    let all = db.execute_sql("EXPLAIN DELETE FROM emp").unwrap();
    assert!(
        render(&all.rows).contains("Access emp via storage-method [all]"),
        "{all:?}"
    );

    // Nothing executed: row count unchanged.
    let after = db.query_sql("SELECT COUNT(*) FROM emp").unwrap();
    assert_eq!(before, after);
}

#[test]
fn flight_recorder_captures_quarantine_incident() {
    let capture = |seed: u64| {
        let (env, injector) = DatabaseEnv::fresh_with_plan(FaultPlan::new(seed));
        let db = starburst_dmx::open_env(env.clone(), DatabaseConfig::default()).unwrap();
        db.execute_sql("CREATE TABLE victim (id INT NOT NULL)")
            .unwrap();
        for i in 0..5 {
            db.execute_sql(&format!("INSERT INTO victim VALUES ({i})"))
                .unwrap();
        }
        assert!(db.last_incident().is_none());
        drop(db);
        // Flip one byte under the checksum layer (file 1 = catalog,
        // file 2 = victim, in creation order).
        let pid = starburst_dmx::types::PageId::new(starburst_dmx::types::FileId(2), 0);
        let mut page = starburst_dmx::page::Page::new();
        env.disk.read_page(pid, &mut page).unwrap();
        page.raw_mut()[100] ^= 0x40;
        env.disk.write_page(pid, &page).unwrap();
        injector.clear();

        let db = starburst_dmx::open_env(env, DatabaseConfig::default()).unwrap();
        let err = db.query_sql("SELECT id FROM victim").expect_err("corrupt");
        assert!(matches!(err, DmxError::RelationQuarantined { .. }));

        // The flight recorder snapshotted the incident…
        let report = db.last_incident().expect("incident recorded");
        let victim_rel = db.catalog().get_by_name("victim").unwrap().id;
        assert_eq!(report.relation, victim_rel);
        assert!(!report.reason.is_empty());

        // …and it is queryable as a relation (numbered ring rows).
        let rows = db.execute_sql("SELECT * FROM sys.incidents").unwrap();
        assert_eq!(rows.columns, vec!["incident", "item", "value"]);
        let text = render(&rows.rows);
        assert!(text.contains("relation"), "{text}");
        assert!(text.contains("reason"), "{text}");
        (format!("{report:?}"), text)
    };
    let (report_a, rows_a) = capture(SEED);
    let (report_b, rows_b) = capture(SEED);
    assert_eq!(report_a, report_b, "incident reports are deterministic");
    assert_eq!(rows_a, rows_b);
}
