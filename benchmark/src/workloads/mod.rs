//! The five workloads, the interface the harness drives them through, and
//! what they share: the SQL client (untraced through `Session::execute`,
//! traced through the same public steps one by one) and the model checks.
//!
//! To add a workload: write a module implementing [`Workload`] and add one
//! line to [`WORKLOADS`], and its name and reason to `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hasher};
use std::sync::Arc;
use std::time::Instant;

use starburst_dmx::core::{Database, ExecCtx};
use starburst_dmx::query::ast::Stmt;
use starburst_dmx::query::exec::run_to_rows;
use starburst_dmx::query::parser::parse;
use starburst_dmx::query::{PlanCache, Session};
use starburst_dmx::types::testrng::TestRng;
use starburst_dmx::types::{DmxError, Record, Value};

use crate::env::{bail, Env, Res};
use crate::harness::{self, Args};
use crate::metrics::{Report, Values};
use crate::trace::{Tracer, ROOT};

pub mod attached_dml;
pub mod keyed_dml;
pub mod point;
pub mod scan_join;

pub struct Entry {
    pub name: &'static str,
    pub run: fn(&Args) -> Res<Report>,
}

pub const WORKLOADS: &[Entry] = &[
    Entry {
        name: "point_select",
        run: harness::run::<point::PointSelect>,
    },
    Entry {
        name: "point_cold",
        run: harness::run::<point::PointCold>,
    },
    Entry {
        name: "scan_join",
        run: harness::run::<scan_join::ScanJoin>,
    },
    Entry {
        name: "keyed_dml",
        run: harness::run::<keyed_dml::KeyedDml>,
    },
    Entry {
        name: "attached_dml",
        run: harness::run::<attached_dml::AttachedDml>,
    },
];

/// What one item (a statement, or a transaction) cost and whether it did
/// what the model said it would.
pub struct Sample {
    /// Index into [`Workload::CLASSES`].
    pub class: usize,
    /// Time spent inside engine calls.
    pub nanos: u64,
    /// Operations attempted: 1 per SQL statement, 1 per modification call.
    pub ops: u32,
    /// Of those, how many errored or disagreed with the model.
    pub failed: u32,
    /// Rows a query handed back.
    pub rows: u64,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Item classes; `CLASSES[0]` is the headline class whose median is
    /// `lat_p50_us`. Traced, a class is the name of the item's root span.
    const CLASSES: &'static [&'static str];
    /// Rounds in the fixed-work pass (byte ratios, counts, spans).
    const FIXED_ROUNDS: usize;
    /// Instances a run builds: set-up and recovery are timed once in each
    /// and the window is shared out among them. Cheap set-ups get more,
    /// because a short timing needs more tries.
    const REPEATS: usize;
    type Item;

    /// Builds the workload's database from nothing: DDL, load, `ANALYZE`
    /// and whatever reopening it calls for. Timed as `setup_s`.
    fn setup(seed: u64, smoke: bool) -> Res<Self>;
    fn env(&self) -> &Env;
    fn db(&self) -> &Arc<Database>;
    fn pool_frames(&self) -> usize;

    /// Generates the next round — every SQL text, record and expected
    /// outcome — and advances the model as if each item succeeds.
    fn next_round(&mut self) -> Vec<Self::Item>;

    /// Executes one item, checks it against what the generator expected,
    /// and times the engine calls only.
    fn run(&mut self, item: &Self::Item, tr: Option<&mut Tracer>) -> Sample;

    /// Starts writes that are logged but never acknowledged, so the crash
    /// image holds a loser transaction for restart to undo.
    fn begin_unacknowledged(&mut self) -> Res<()> {
        Ok(())
    }
    fn abort_unacknowledged(&mut self) -> Res<()> {
        Ok(())
    }

    /// Reads everything back from `db` (this database or a recovered copy
    /// of it) and counts disagreements with the model, unacknowledged
    /// writes that are visible included.
    fn verify(&self, db: &Arc<Database>) -> Res<u64>;

    /// A statement to `EXPLAIN` before the crash and after recovery.
    fn headline_sql(&self) -> Option<String>;

    /// Encoded bytes of every record committed so far (load included),
    /// and of the records live now.
    fn user_bytes(&self) -> (u64, u64);

    /// Unit costs of the layers this workload leans on, measured with
    /// fixed-count loops on its own structures, plus structure shapes.
    fn probes(&mut self, out: &mut Values) -> Res<()>;
}

// -- the SQL client ------------------------------------------------------

/// One closed-loop SQL session.
pub struct SqlClient {
    pub db: Arc<Database>,
    sess: Session,
    cache: Arc<PlanCache>,
}

/// Rows, or the affected count as a single `[[Int(n)]]` row for DML.
pub type Rows = Vec<Vec<Value>>;

impl SqlClient {
    pub fn new(db: Arc<Database>) -> SqlClient {
        let sess = Session::new(db.clone());
        // The per-database cache `Session` itself uses, so the traced
        // path sees the same hits and misses.
        let cache = db.query_state::<PlanCache, _>(PlanCache::default);
        SqlClient { db, sess, cache }
    }

    /// Runs one statement that needs no timing (DDL, checks).
    pub fn exec(&self, sql: &str) -> Res<Rows> {
        Ok(self.sess.execute(sql)?.rows)
    }

    /// An autocommit SELECT. Untraced it is one `Session::execute`;
    /// traced it is the same public steps with a span around each.
    pub fn select(
        &self,
        sql: &str,
        class: &'static str,
        tr: Option<&mut Tracer>,
    ) -> (u64, Result<Rows, DmxError>) {
        let Some(tr) = tr else {
            let t = Instant::now();
            let r = self.sess.execute(sql);
            return (t.elapsed().as_nanos() as u64, r.map(|q| q.rows));
        };
        tr.next_stmt();
        let root = tr.begin(class, ROOT);
        let txn = tr.span("core.begin", root, || self.db.begin());
        let rows = (|| {
            let Stmt::Select(sel) = tr.span("query.parse", root, || parse(sql))? else {
                return Err(DmxError::InvalidArg(format!("not a SELECT: {sql}")));
            };
            let compiled = tr.span("query.plan", root, || {
                self.cache.get_or_compile(&self.db, sql, &sel)
            })?;
            tr.span("query.exec", root, || {
                let ctx = ExecCtx {
                    db: &self.db,
                    txn: &txn,
                };
                let prev = txn.set_snapshot_reads(true);
                let rows = run_to_rows(&compiled.plan, &ctx);
                txn.set_snapshot_reads(prev);
                rows
            })
        })();
        let done = tr.span("core.commit", root, || match &rows {
            Ok(_) => self.db.commit(&txn),
            Err(_) => self.db.abort(&txn),
        });
        tr.end(root);
        let nanos = tr.spans()[root as usize].dur_ns();
        (nanos, rows.and_then(|r| done.map(|()| r)))
    }

    /// An autocommit INSERT/UPDATE/DELETE. The planner has no public
    /// entry for DML, so traced it runs as BEGIN, the statement, COMMIT
    /// through the session; the parse is also timed alone, beside the
    /// statement, because inside `execute` it cannot be told apart.
    pub fn dml(
        &self,
        sql: &str,
        class: &'static str,
        tr: Option<&mut Tracer>,
    ) -> (u64, Result<Rows, DmxError>) {
        let Some(tr) = tr else {
            let t = Instant::now();
            let r = self.sess.execute(sql);
            return (t.elapsed().as_nanos() as u64, r.map(|q| q.rows));
        };
        tr.next_stmt();
        let _ = tr.span("query.parse", ROOT, || parse(sql));
        let root = tr.begin(class, ROOT);
        let began = tr.span("core.begin", root, || self.sess.execute("BEGIN"));
        let rows = tr.span("query.exec", root, || self.sess.execute(sql));
        let done = tr.span("core.commit", root, || {
            self.sess
                .execute(if rows.is_ok() { "COMMIT" } else { "ROLLBACK" })
        });
        tr.end(root);
        let nanos = tr.spans()[root as usize].dur_ns();
        (nanos, began.and(rows).and_then(|q| done.map(|_| q.rows)))
    }
}

// -- model checks --------------------------------------------------------

/// Order-independent checksum of a result: the wrapping sum of a hash per
/// row, so a model can predict it without predicting row order.
pub fn checksum(rows: &[Vec<Value>]) -> u64 {
    rows.iter()
        .map(|r| row_hash(r))
        .fold(0u64, u64::wrapping_add)
}

pub fn row_hash(row: &[Value]) -> u64 {
    // `DefaultHasher::new()` is keyed with constants, so the hash is the
    // same in every process.
    let mut h = DefaultHasher::new();
    for v in row {
        match v {
            Value::Null => h.write_u8(0),
            Value::Bool(b) => h.write_u8(1 + *b as u8),
            Value::Int(i) => h.write_i64(*i),
            // SUM over INT columns may come back as either numeric type;
            // an integral float hashes as the integer it equals.
            Value::Float(f) if f.fract() == 0.0 => h.write_i64(*f as i64),
            Value::Float(f) => h.write_u64(f.to_bits()),
            Value::Str(s) => h.write(s.as_bytes()),
            Value::Bytes(b) => h.write(b),
            Value::Rect(_) => h.write_u8(3),
        }
    }
    h.finish()
}

/// 1 when a result is not the expected `(row count, checksum)`.
pub fn mismatch(got: &Result<Rows, DmxError>, rows: usize, sum: u64) -> u32 {
    match got {
        Ok(r) if r.len() == rows && checksum(r) == sum => 0,
        _ => 1,
    }
}

/// 1 when a DML result is not `affected` rows.
pub fn wrong_count(got: &Result<Rows, DmxError>, affected: i64) -> u32 {
    match got.as_deref() {
        Ok([row]) if row.first() == Some(&Value::Int(affected)) => 0,
        _ => 1,
    }
}

/// Reads a whole relation back and counts rows that are missing, extra
/// or different from the model (keyed on the first column).
pub fn table_mismatches(
    client: &SqlClient,
    sql: &str,
    model: &BTreeMap<i64, Vec<Value>>,
) -> Res<u64> {
    let rows = client.exec(sql)?;
    let mut seen = 0u64;
    let mut bad = 0u64;
    for row in &rows {
        let Some(Value::Int(id)) = row.first() else {
            return bail(format!("first column of `{sql}` is not an INT"));
        };
        match model.get(id) {
            Some(want) if want == row => seen += 1,
            _ => bad += 1,
        }
    }
    Ok(bad + (model.len() as u64 - seen))
}

/// Encoded size of a row, the "user byte" of the byte-ratio metrics.
pub fn encoded_len(values: &[Value]) -> u64 {
    Record::new(values.to_vec()).encode().len() as u64
}

/// A seed-keyed mix for column contents that must differ between seeds
/// without changing any size or key order.
pub fn mix(seed: u64, x: u64) -> u64 {
    TestRng::new(seed ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Loads `rows` through the record interface, 500 to a transaction.
pub fn bulk_load(db: &Arc<Database>, table: &str, rows: &[Vec<Value>]) -> Res<()> {
    let rel = db.catalog().get_by_name(table)?.id;
    for chunk in rows.chunks(500) {
        db.with_txn(|txn| {
            for r in chunk {
                db.insert(txn, rel, Record::new(r.clone()))?;
            }
            Ok(())
        })?;
    }
    Ok(())
}
