//! The crash-point driver behind every recovery oracle.
//!
//! A workload runs on a fresh environment whose fault plan crashes at one
//! I/O index (one index spans disk *and* log); every volatile structure
//! is dropped, the injector is cleared and the database is reopened, so
//! restart recovery runs. A sweep does that at every index of a healthy
//! run's I/O stream (`FAULT_SWEEP_STRIDE=n`, default 1, thins it) and
//! checks each recovered state twice: after recovery, and after a close
//! and a second reopen. Restart repeats history idempotently, so the
//! second reopen is a pure read: the same check result, not one log
//! frame appended, every page of every file unchanged.
//!
//! A workload of autocommitted statements is a [`Script`]: each statement
//! with its effect on a model, so that a crash during statement `done`
//! must leave the model's state before that statement or after it.

// Each test binary uses only part of this module.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::ops::Range;
use std::sync::Arc;

use starburst_dmx::prelude::*;
use starburst_dmx::types::{FileId, PageId};

/// Opens the database over `env`. Over an environment a database has
/// used, that is a reopen, and restart recovery runs.
pub fn open(env: &DatabaseEnv, config: DatabaseConfig) -> Arc<Database> {
    starburst_dmx::open_env(env.clone(), config).expect("open")
}

/// [`open`] with the default configuration.
pub fn reopen(env: &DatabaseEnv) -> Arc<Database> {
    open(env, DatabaseConfig::default())
}

/// A fresh environment and the database opened over it.
pub fn fresh() -> (DatabaseEnv, Arc<Database>) {
    let env = DatabaseEnv::fresh();
    let db = reopen(&env);
    (env, db)
}

/// Every how many I/O indices a sweep crashes: `FAULT_SWEEP_STRIDE`,
/// or 1 (every index) when it is unset.
pub fn stride() -> usize {
    std::env::var("FAULT_SWEEP_STRIDE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(1)
}

/// A content hash of every page of every file the disk has created. File
/// ids are dense from 1 and never reused, so the walk misses none.
pub fn disk_fingerprint(env: &DatabaseEnv) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |b: u64| {
        h ^= b;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    let files = env.disk.stats().snapshot().files_created as u32;
    for fid in (1..=files).map(FileId) {
        if !env.disk.file_exists(fid) {
            continue;
        }
        mix(u64::from(fid.0));
        for p in 0..env.disk.page_count(fid).unwrap() {
            let mut page = starburst_dmx::page::Page::new();
            env.disk.read_page(PageId::new(fid, p), &mut page).unwrap();
            page.raw().iter().for_each(|&b| mix(u64::from(b)));
        }
    }
    h
}

/// What a workload runs on: a fresh environment and its injector.
pub struct Run<'a> {
    pub env: &'a DatabaseEnv,
    pub injector: &'a FaultInjector,
    config: &'a DatabaseConfig,
}

impl Run<'_> {
    /// Opens the database, or `None` when the crash fired during the
    /// open: the catalog bootstrap is a crash point too.
    pub fn open(&self) -> Option<Arc<Database>> {
        starburst_dmx::open_env(self.env.clone(), self.config.clone()).ok()
    }
}

/// Runs `workload` on a fresh environment whose I/O follows `plan`.
fn run_under<T>(
    plan: FaultPlan,
    config: &DatabaseConfig,
    workload: impl FnOnce(&Run) -> T,
) -> (DatabaseEnv, Arc<FaultInjector>, T) {
    let (env, injector) = DatabaseEnv::fresh_with_plan(plan);
    let out = workload(&Run {
        env: &env,
        injector: &injector,
        config,
    });
    (env, injector, out)
}

/// Runs `workload` on healthy devices; returns how many I/Os it did and
/// what it returned.
pub fn healthy<T>(
    seed: u64,
    config: &DatabaseConfig,
    workload: impl FnOnce(&Run) -> T,
) -> (u64, T) {
    let (_, injector, out) = run_under(FaultPlan::new(seed), config, workload);
    (injector.ops(), out)
}

/// One crash point: runs `workload` on a fresh environment whose I/O `k`
/// (0-based) crashes, asserts that the crash fired, clears the injector
/// and [`recover`]s with `check`, which also gets what the workload
/// returned. Returns the environment and the first check's result.
pub fn crash_point<T, C: PartialEq + Debug>(
    seed: u64,
    k: u64,
    config: &DatabaseConfig,
    workload: impl FnOnce(&Run) -> T,
    check: impl Fn(&Arc<Database>, &T, &str) -> C,
) -> (DatabaseEnv, C) {
    let at = format!("seed {seed:#x}, crash point {k}");
    let (env, injector, out) = run_under(FaultPlan::new(seed).crash_at(k), config, workload);
    assert!(
        injector.is_crashed(),
        "{at}: the scheduled crash never fired"
    );
    injector.clear();
    let got = recover(&env, config, &at, |db, at| check(db, &out, at));
    (env, got)
}

/// Crashes `workload` at every [`stride`]-th index of `points`; see
/// [`crash_points`].
pub fn sweep<T, C: PartialEq + Debug>(
    seed: u64,
    config: &DatabaseConfig,
    points: Range<u64>,
    workload: impl Fn(&Run) -> T,
    check: impl Fn(&Arc<Database>, &T, &str) -> C,
) {
    crash_points(seed, config, points.step_by(stride()), workload, check);
}

/// A [`crash_point`] at each of `points`.
pub fn crash_points<T, C: PartialEq + Debug>(
    seed: u64,
    config: &DatabaseConfig,
    points: impl IntoIterator<Item = u64>,
    workload: impl Fn(&Run) -> T,
    check: impl Fn(&Arc<Database>, &T, &str) -> C,
) {
    let mut swept = 0;
    for k in points {
        crash_point(seed, k, config, &workload, &check);
        swept += 1;
    }
    assert!(swept > 0, "the sweep covered no crash point");
}

/// Restarts the crashed database over `env` and runs `check` on it,
/// closes it, reopens and runs `check` again. Restart repeats history
/// idempotently, so the second reopen is a pure read: the two results
/// must be equal, and that reopen and its close must append no log frame
/// and change no page. Returns the first result.
pub fn recover<C: PartialEq + Debug>(
    env: &DatabaseEnv,
    config: &DatabaseConfig,
    at: &str,
    check: impl Fn(&Arc<Database>, &str) -> C,
) -> C {
    let db = open(env, config.clone());
    let first = check(&db, at);
    drop(db);
    let frames = env.stable_log.len();
    let disk = disk_fingerprint(env);
    let at = format!("{at}, second reopen");
    let db = open(env, config.clone());
    assert_eq!(env.stable_log.len(), frames, "{at}: appended log frames");
    let second = check(&db, &at);
    drop(db);
    assert_eq!(first, second, "{at}: the state changed across reopens");
    assert_eq!(
        env.stable_log.len(),
        frames,
        "{at}: close appended log frames"
    );
    assert_eq!(disk_fingerprint(env), disk, "{at}: changed pages on disk");
    first
}

/// How a statement of a [`Script`] ends.
#[derive(Clone, Copy, PartialEq)]
enum Ends {
    Committed,
    /// An attachment or constraint refuses it, and the modification is
    /// taken back whole.
    Vetoed,
    /// It runs inside a transaction that a second session holds open and
    /// never commits.
    InFlight,
}

/// Autocommitted statements, each with its effect on a model `M`.
pub struct Script<M> {
    steps: Vec<(String, Ends)>,
    /// `states[i]`: the model after the first `i` statements.
    states: Vec<M>,
}

impl<M: Clone + PartialEq + Debug> Script<M> {
    pub fn new(model: M) -> Self {
        Script {
            steps: Vec::new(),
            states: vec![model],
        }
    }

    /// A statement that commits, and what it does to the model.
    pub fn then(&mut self, sql: impl Into<String>, effect: impl FnOnce(&mut M)) -> &mut Self {
        let mut next = self.last().clone();
        effect(&mut next);
        self.push(sql.into(), Ends::Committed, next)
    }

    /// A statement that an attachment or a constraint vetoes.
    pub fn vetoed(&mut self, sql: impl Into<String>) -> &mut Self {
        self.push(sql.into(), Ends::Vetoed, self.last().clone())
    }

    /// A write of the one transaction that never commits: restart must
    /// undo it whether or not its pages were stolen to disk.
    pub fn in_flight(&mut self, sql: impl Into<String>) -> &mut Self {
        self.push(sql.into(), Ends::InFlight, self.last().clone())
    }

    fn push(&mut self, sql: String, ends: Ends, next: M) -> &mut Self {
        self.steps.push((sql, ends));
        self.states.push(next);
        self
    }

    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// The model after every statement.
    pub fn last(&self) -> &M {
        self.states.last().expect("a script starts with a state")
    }

    /// Runs `steps` in order through one session until a statement does
    /// not end as scripted. Returns the index of that statement
    /// (`steps.end` when every one ended as scripted) and the error it
    /// failed with. A statement that committed counts as done even when
    /// the crash has fired: it was acknowledged, so recovery must keep it.
    pub fn run_steps(&self, db: &Arc<Database>, steps: Range<usize>) -> (usize, Option<DmxError>) {
        let session = Session::new(db.clone());
        let in_flight = Session::new(db.clone());
        for i in steps.clone() {
            let (sql, ends) = &self.steps[i];
            let res = match ends {
                Ends::InFlight if !in_flight.in_transaction() => in_flight
                    .execute("BEGIN")
                    .and_then(|_| in_flight.execute(sql)),
                Ends::InFlight => in_flight.execute(sql),
                _ => session.execute(sql),
            };
            match (res, *ends == Ends::Vetoed) {
                (Err(DmxError::Veto { .. }), true) | (Ok(_), false) => {}
                (Err(e), _) => return (i, Some(e)),
                (Ok(_), true) => return (i, None),
            }
        }
        (steps.end, None)
    }

    /// Runs every statement: [`Script::run_steps`] over the whole script.
    pub fn run(&self, db: &Arc<Database>) -> (usize, Option<DmxError>) {
        self.run_steps(db, 0..self.len())
    }

    /// Asserts that `got`, what recovery left after a crash during
    /// statement `done`, is the model's state before that statement or
    /// after it.
    pub fn assert_recovered(&self, done: usize, got: &M, at: &str) {
        assert!(
            *got == self.states[done] || self.states.get(done + 1) == Some(got),
            "{at}: after {done} statements the state is neither the model's before \
             the next one nor after it\n got:    {got:?}\n before: {:?}\n after:  {:?}",
            self.states[done],
            self.states.get(done + 1),
        );
    }
}

/// A relation's rows as a model holds them, by their first column.
pub type Rows = BTreeMap<i64, Vec<Value>>;

/// Relations by name, as a model holds them: a relation missing from the
/// map does not exist.
pub type Tables = BTreeMap<String, Rows>;

/// Puts `row` into `table` of the model, under its first column.
pub fn put(m: &mut Tables, table: &str, row: Vec<Value>) {
    let id = row[0].as_int().unwrap();
    m.get_mut(table).expect("a modelled table").insert(id, row);
}

/// The rows `db` holds in `table`, or `None` when there is no such
/// relation. Two rows under one first column fail the check.
pub fn rows(db: &Arc<Database>, table: &str, at: &str) -> Option<Rows> {
    let got = match db.query_sql(&format!("SELECT * FROM {table}")) {
        Err(DmxError::NotFound(_)) => return None,
        res => res
            .map_err(|e| format!("{at}: scanning {table}: {e}"))
            .unwrap(),
    };
    let mut rows = Rows::new();
    for row in got {
        let id = row[0].as_int().unwrap();
        assert!(
            rows.insert(id, row).is_none(),
            "{at}: {table} holds id {id} twice"
        );
    }
    Some(rows)
}

/// The relations of `tables` that `db` holds, as a model states them.
pub fn tables(db: &Arc<Database>, tables: &[&str], at: &str) -> Tables {
    tables
        .iter()
        .filter_map(|t| Some((t.to_string(), rows(db, t, at)?)))
        .collect()
}

/// Every item the scan of attachment `att` on `table` yields.
pub fn attachment_items(db: &Arc<Database>, table: &str, att: &str) -> Vec<Vec<Value>> {
    let rd = db.catalog().get_by_name(table).unwrap();
    let (id, inst) = rd.find_attachment(att).expect("the attachment");
    let path = AccessPath::Attachment(id, inst.instance);
    db.with_txn(|txn| {
        let scan = db.open_scan(txn, rd.id, path, AccessQuery::All, None, None)?;
        let mut items = Vec::new();
        while let Some(item) = db.scan_next(txn, scan)? {
            items.push(item.values.expect("fields"));
        }
        Ok(items)
    })
    .unwrap()
}
