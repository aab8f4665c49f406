//! Seeded property test: attachment consistency across crash/reopen.
//!
//! Each iteration derives a DML stream *and* a crash point from the
//! master seed, runs the stream against a relation carrying a unique
//! index, a secondary index and referential-integrity attachments, lets
//! the scheduled crash fire mid-stream (reusing the PR2 [`FaultPlan`]
//! machinery), reopens on healthy I/O, and asserts that every attachment
//! agrees with its base relation — then keeps going and checks again, so
//! recovery output is also a valid starting state. Finally, the whole
//! experiment must be a pure function of its seed: replaying one
//! iteration yields the identical metrics snapshot, counter for counter.

// Examples and integration-test harnesses are exempt from the runtime
// panic discipline: failures here should abort loudly.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod support;

use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

use starburst_dmx::prelude::*;
use starburst_dmx::types::testrng::TestRng;
use starburst_dmx::types::MetricsSnapshot;

const SEED: u64 = 0x00A7_7AC1_1ED0_u64;
const DEPTS: i64 = 6;
const STREAM_OPS: usize = 120;
const ITERATIONS: u64 = 5;

/// DDL: a parent relation, a child relation with unique + secondary
/// index attachments, and a refint pair between them.
fn setup(db: &Arc<Database>) -> Result<()> {
    db.execute_sql("CREATE TABLE dept (id INT NOT NULL, name STRING NOT NULL)")?;
    db.execute_sql("CREATE UNIQUE INDEX dept_pk ON dept (id)")?;
    db.execute_sql("CREATE TABLE emp (id INT NOT NULL, name STRING NOT NULL, dept INT NOT NULL)")?;
    db.execute_sql("CREATE UNIQUE INDEX emp_pk ON emp (id)")?;
    db.execute_sql("CREATE INDEX emp_dept ON emp (dept)")?;
    db.execute_sql(
        "CREATE ATTACHMENT fk_c ON emp USING refint \
         WITH (role=child, fields=dept, other=dept, other_fields=id)",
    )?;
    db.execute_sql(
        "CREATE ATTACHMENT fk_p ON dept USING refint \
         WITH (role=parent, fields=id, other=emp, other_fields=dept)",
    )?;
    for d in 0..DEPTS {
        db.execute_sql(&format!("INSERT INTO dept VALUES ({d}, 'd{d}')"))?;
    }
    Ok(())
}

/// The ids of the rows the stream has written and not deleted.
type Written = BTreeSet<i64>;

/// One seeded DML segment. Statements that fail (constraint veto before
/// the crash, any I/O after it) leave the model untouched; the stream
/// stops at the first I/O error since the device is dead until reopen.
fn stream(db: &Arc<Database>, rng: &mut TestRng, written: &mut Written, next_id: &mut i64) {
    for _ in 0..STREAM_OPS {
        let roll = rng.below(100);
        let invalid = rng.below(8) == 0;
        let dept = if invalid {
            DEPTS + rng.range_i64(1, 50)
        } else {
            rng.range_i64(0, DEPTS)
        };
        let live: Vec<i64> = written.iter().copied().collect();
        let (sql, r) = if roll < 55 || live.is_empty() {
            let id = *next_id;
            let sql = format!("INSERT INTO emp VALUES ({id}, 'e{id}', {dept})");
            let r = db.execute_sql(&sql);
            if r.is_ok() {
                *next_id += 1;
                written.insert(id);
            }
            (sql, r)
        } else if roll < 80 {
            let id = live[rng.index(live.len())];
            let sql = format!("UPDATE emp SET dept = {dept} WHERE id = {id}");
            let r = db.execute_sql(&sql);
            (sql, r)
        } else {
            let id = live[rng.index(live.len())];
            let sql = format!("DELETE FROM emp WHERE id = {id}");
            let r = db.execute_sql(&sql);
            if r.is_ok() {
                // deletion does not invalidate older row images elsewhere:
                // a crash may resurrect nothing, so just forget the key
                written.remove(&id);
            }
            (sql, r)
        };
        match r {
            Ok(_) => {}
            Err(e @ DmxError::Veto { .. }) | Err(e @ DmxError::ConstraintViolation(_)) => {
                assert!(invalid, "veto of a valid statement `{sql}`: {e}")
            }
            // the injected crash (or its aftermath): device dead, stop
            Err(_) => return,
        }
    }
}

/// Attachment/base agreement after recovery. `written` is advisory
/// post-crash (a statement reported as failed may still have committed),
/// so only *structural* invariants are hard-asserted.
fn check_attachments(db: &Arc<Database>, at: &str) -> Vec<(i64, i64)> {
    let rows = db
        .query_sql("SELECT id, name, dept FROM emp")
        .expect("scan emp");
    let mut seen = BTreeSet::new();
    let mut pairs = Vec::new();
    for row in &rows {
        let id = row[0].as_int().expect("id");
        let name = match &row[1] {
            Value::Str(s) => s.clone(),
            other => panic!("{at}: bad name {other:?}"),
        };
        let dept = row[2].as_int().expect("dept");
        // rows are whole statement images
        assert_eq!(name, format!("e{id}"), "{at}: torn row image");
        // unique attachment: no duplicate keys survive recovery
        assert!(seen.insert(id), "{at}: duplicate id {id}");
        // refint attachment: no orphan children survive recovery
        assert!(
            (0..DEPTS).contains(&dept),
            "{at}: orphan child ({id}) -> dept {dept}"
        );
        pairs.push((id, dept));
    }
    // unique index agrees with the base relation, key by key
    for &(id, dept) in &pairs {
        let keyed = db
            .query_sql(&format!("SELECT dept FROM emp WHERE id = {id}"))
            .expect("keyed lookup");
        assert_eq!(
            keyed,
            vec![vec![Value::Int(dept)]],
            "{at}: unique index disagrees with base on id {id}"
        );
    }
    // secondary index agrees with a predicate scan, dept by dept
    for d in 0..DEPTS {
        let mut via_index: Vec<i64> = db
            .query_sql(&format!("SELECT id FROM emp WHERE dept = {d}"))
            .expect("dept lookup")
            .iter()
            .map(|r| r[0].as_int().expect("id"))
            .collect();
        via_index.sort_unstable();
        let expect: Vec<i64> = pairs
            .iter()
            .filter(|&&(_, dept)| dept == d)
            .map(|&(id, _)| id)
            .collect();
        assert_eq!(
            via_index, expect,
            "{at}: secondary index disagrees on dept {d}"
        );
    }
    pairs.sort_unstable();
    pairs
}

/// One full iteration: setup, stream, seeded crash, reopen, check,
/// stream again on healthy I/O, check again. Returns the surviving rows
/// and two metrics snapshots: the recovering database's after its check,
/// and the resumed one's after its stream.
fn run_iteration(seed: u64) -> (Vec<(i64, i64)>, [MetricsSnapshot; 2]) {
    let config = DatabaseConfig::default();
    let workload = |run: &support::Run| {
        let db = run.open().expect("open");
        setup(&db).expect("setup happens before the crash point");
        let setup_ops = run.injector.ops();
        stream(&db, &mut TestRng::new(seed), &mut Written::new(), &mut 0);
        setup_ops
    };
    // On healthy I/O first: learn the I/O budget so the crash point can
    // be placed after setup but inside the stream, deterministically.
    let (total_ops, setup_ops) = support::healthy(seed, &config, workload);
    assert!(total_ops > setup_ops, "stream performed no I/O");

    // Same seed, crash somewhere inside the stream; on reopen, and on
    // the second reopen, the attachments must agree with base.
    let mut point_rng = TestRng::new(seed ^ 0xC4A5_4BAD);
    let k = setup_ops + point_rng.below(total_ops - setup_ops);
    let recovery = OnceLock::new();
    let (env, recovered) = support::crash_point(seed, k, &config, workload, |db, _, at| {
        recovery.get_or_init(|| db.metrics_snapshot());
        check_attachments(db, at)
    });
    let db = support::reopen(&env);

    // Rebuild the model from the recovered state: the statement in
    // flight at the crash may have committed even though it reported an
    // error, so the pre-crash model is only advisory.
    let mut written: Written = recovered.iter().map(|&(id, _)| id).collect();
    let mut next_id = written.last().map_or(0, |id| id + 1);

    // Recovery output must be a usable starting state: keep streaming.
    let mut rng2 = TestRng::new(seed.rotate_left(17));
    stream(&db, &mut rng2, &mut written, &mut next_id);
    let pairs = check_attachments(&db, &format!("seed {seed:#x} post-resume"));
    let recovery = recovery.into_inner().expect("the check ran");
    (pairs, [recovery, db.metrics_snapshot()])
}

#[test]
fn attachments_agree_across_seeded_crash_points() {
    for i in 0..ITERATIONS {
        let seed = SEED.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (pairs, [_, metrics]) = run_iteration(seed);
        // the property is vacuous if nothing survives or nothing happened
        assert!(
            metrics.counter("dml.inserts") > 0,
            "iteration {i}: stream never inserted"
        );
        let _ = pairs;
    }
}

#[test]
fn same_seed_reproduces_rows_and_metrics() {
    let (rows_a, metrics_a) = run_iteration(SEED);
    let (rows_b, metrics_b) = run_iteration(SEED);
    assert_eq!(
        rows_a, rows_b,
        "surviving rows must be a pure function of the seed"
    );
    assert_eq!(
        metrics_a, metrics_b,
        "metrics snapshot must be a pure function of the seed"
    );
    // and the crash actually exercised the attachment paths
    assert!(metrics_a[1].counter("att.invocations") > 0);
    assert!(metrics_a[1].counter("wal.appends") > 0);
}
