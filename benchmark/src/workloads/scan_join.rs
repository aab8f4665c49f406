//! `scan_join`: the read path past the index — unindexed filter scans,
//! aggregates, a grouped aggregate and two nested-loop joins over an
//! `emp` heap and its `dept` parent. The snapshot heap scan, page pins,
//! the pushed-down predicate, row materialisation and the executor do the
//! work; compiling a statement is under a percent of it, and nothing is
//! logged or locked.
//!
//! Sized for the window the driver allows, not the 100,000 rows first
//! planned: at 30,000 a round takes 85 ms, so a 12 s window holds 140
//! and still holds seventy when the host runs at half speed, which it does.

use std::collections::BTreeMap;
use std::sync::Arc;

use starburst_dmx::core::Database;
use starburst_dmx::expr::{CmpOp, Expr};
use starburst_dmx::types::testrng::TestRng;
use starburst_dmx::types::{PageId, Value};

use super::{
    bulk_load, checksum, encoded_len, mismatch, mix, table_mismatches, Sample, SqlClient, Workload,
};
use crate::env::{Env, Res};
use crate::metrics::{ratio, Values};
use crate::probes;
use crate::trace::Tracer;

struct Sizes {
    emps: i64,
    depts: i64,
    /// Statements of each class in a round, in `CLASSES` order.
    mix: [usize; 5],
}

const FULL: Sizes = Sizes {
    emps: 30_000,
    depts: 1_000,
    mix: [6, 1, 1, 1, 20],
};

const SMOKE: Sizes = Sizes {
    emps: 3_000,
    depts: 100,
    mix: [2, 1, 1, 1, 3],
};

const SCAN: usize = 0;
const AGG: usize = 1;
const GROUP: usize = 2;
const JOIN_OUTER: usize = 3;

/// Ages run 20..=119, exactly one percent of rows each.
const AGES: i64 = 100;
/// Widths of the age windows the range statements select. A literal moves
/// the window, never widens it: every literal of a class selects the same
/// number of rows, so a round is the same work whichever literals the
/// seed and the rotation give it. A literal that changed how many rows a
/// statement selects (`age < <literal>`) makes a round's time follow its
/// literals by several percent, and a run's median follow its seed.
const AGG_SPAN: i64 = 50;
const GROUP_SPAN: i64 = 90;
const OUTER_SPAN: i64 = 10;

pub struct Stmt {
    class: usize,
    sql: String,
    rows: usize,
    sum: u64,
}

pub struct ScanJoin {
    env: Env,
    client: SqlClient,
    sizes: &'static Sizes,
    rng: TestRng,
    emp: BTreeMap<i64, Vec<Value>>,
    dept: BTreeMap<i64, Vec<Value>>,
    /// The few literals each class rotates over, drawn from the seed.
    literals: [Vec<i64>; 5],
    /// Expected `(rows, checksum)` per SQL text, worked out from the
    /// model the first time the text is generated.
    expected: BTreeMap<String, (usize, u64)>,
    loaded_bytes: u64,
    probe_calls: usize,
}

// emp columns
const E_ID: usize = 0;
const E_NAME: usize = 1;
const E_DEPT: usize = 2;
const E_SITE: usize = 3;
const E_AGE: usize = 4;
const E_SALARY: usize = 5;

fn int(v: &Value) -> i64 {
    v.as_int().unwrap_or(0)
}

/// Whether an `emp` row's age lies in `lo..lo + span`.
fn within(emp: &[Value], lo: i64, span: i64) -> bool {
    (lo..lo + span).contains(&int(&emp[E_AGE]))
}

impl ScanJoin {
    fn emp_row(seed: u64, id: i64, depts: i64) -> Vec<Value> {
        vec![
            Value::Int(id),
            Value::Str(format!("emp{id:010}")),
            // `dept` is indexed and drives the probe join; `site` is a
            // second, unindexed reference to `dept` for the outer join.
            // Neither depends on the seed, so the indexes are built in
            // the same order on every run.
            Value::Int((id * 31) % depts),
            Value::Int((id * 17 + 3) % depts),
            Value::Int(20 + (id * 7) % AGES),
            Value::Int(1000 + (mix(seed, id as u64) % 5000) as i64),
        ]
    }

    fn dept_row(id: i64) -> Vec<Value> {
        vec![
            Value::Int(id),
            Value::Str(format!("dept{id:06}")),
            Value::Int(id * 10),
        ]
    }

    fn text(class: usize, lit: i64) -> String {
        match class {
            SCAN => format!("SELECT id, name FROM emp WHERE age = {lit}"),
            AGG => format!(
                "SELECT COUNT(*), SUM(salary) FROM emp WHERE age >= {lit} AND age < {}",
                lit + AGG_SPAN
            ),
            GROUP => format!(
                "SELECT dept, COUNT(*), SUM(salary) FROM emp \
                 WHERE age >= {lit} AND age < {} GROUP BY dept",
                lit + GROUP_SPAN
            ),
            // `site` has no index, so `emp` cannot be probed and stays
            // the outer side, filtered to a tenth, probing `dept`'s
            // unique index once per row.
            JOIN_OUTER => format!(
                "SELECT e.id, d.name FROM emp e, dept d \
                 WHERE e.site = d.id AND e.age >= {lit} AND e.age < {}",
                lit + OUTER_SPAN
            ),
            // join_probe: one `dept` row drives an index range into `emp`.
            _ => format!(
                "SELECT e.id, e.salary FROM dept d, emp e WHERE d.id = {lit} AND e.dept = d.id"
            ),
        }
    }

    /// What the model says `text(class, lit)` returns.
    fn answer(&self, class: usize, lit: i64) -> Vec<Vec<Value>> {
        let emps = self.emp.values();
        match class {
            SCAN => emps
                .filter(|e| int(&e[E_AGE]) == lit)
                .map(|e| vec![e[E_ID].clone(), e[E_NAME].clone()])
                .collect(),
            AGG => {
                let hit: Vec<i64> = emps
                    .filter(|e| within(e, lit, AGG_SPAN))
                    .map(|e| int(&e[E_SALARY]))
                    .collect();
                vec![vec![
                    Value::Int(hit.len() as i64),
                    Value::Int(hit.iter().sum()),
                ]]
            }
            GROUP => {
                let mut groups = BTreeMap::<i64, (i64, i64)>::new();
                for e in emps.filter(|e| within(e, lit, GROUP_SPAN)) {
                    let g = groups.entry(int(&e[E_DEPT])).or_default();
                    g.0 += 1;
                    g.1 += int(&e[E_SALARY]);
                }
                groups
                    .into_iter()
                    .map(|(d, (n, s))| vec![Value::Int(d), Value::Int(n), Value::Int(s)])
                    .collect()
            }
            JOIN_OUTER => emps
                .filter(|e| within(e, lit, OUTER_SPAN))
                .map(|e| vec![e[E_ID].clone(), self.dept[&int(&e[E_SITE])][1].clone()])
                .collect(),
            _ => emps
                .filter(|e| int(&e[E_DEPT]) == lit)
                .map(|e| vec![e[E_ID].clone(), e[E_SALARY].clone()])
                .collect(),
        }
    }

    fn stmt(&mut self, class: usize) -> Stmt {
        let lits = &self.literals[class];
        let lit = lits[self.rng.index(lits.len())];
        let sql = Self::text(class, lit);
        let (rows, sum) = match self.expected.get(&sql) {
            Some(e) => *e,
            None => {
                let a = self.answer(class, lit);
                let e = (a.len(), checksum(&a));
                self.expected.insert(sql.clone(), e);
                e
            }
        };
        Stmt {
            class,
            sql,
            rows,
            sum,
        }
    }
}

impl Workload for ScanJoin {
    const NAME: &'static str = "scan_join";
    const CLASSES: &'static [&'static str] = &["scan", "agg", "group", "join_outer", "join_probe"];
    const FIXED_ROUNDS: usize = 2;
    const REPEATS: usize = 5;
    type Item = Stmt;

    fn setup(seed: u64, smoke: bool) -> Res<Self> {
        let sizes = if smoke { &SMOKE } else { &FULL };
        let env = Env::fresh();
        let db = env.open(2_048)?;
        let client = SqlClient::new(db.clone());
        client.exec(
            "CREATE TABLE dept (id INT NOT NULL, name STRING NOT NULL, budget INT NOT NULL)",
        )?;
        client.exec("CREATE UNIQUE INDEX dept_id ON dept USING btree (id)")?;
        client.exec(
            "CREATE TABLE emp (id INT NOT NULL, name STRING NOT NULL, dept INT NOT NULL, \
             site INT NOT NULL, age INT NOT NULL, salary INT NOT NULL)",
        )?;
        client.exec("CREATE UNIQUE INDEX emp_id ON emp USING btree (id)")?;
        client.exec("CREATE INDEX emp_dept ON emp USING btree (dept)")?;
        let depts: Vec<Vec<Value>> = (0..sizes.depts).map(Self::dept_row).collect();
        let emps: Vec<Vec<Value>> = (0..sizes.emps)
            .map(|id| Self::emp_row(seed, id, sizes.depts))
            .collect();
        bulk_load(&db, "dept", &depts)?;
        bulk_load(&db, "emp", &emps)?;
        client.exec("ANALYZE TABLE dept")?;
        client.exec("ANALYZE TABLE emp")?;
        let loaded_bytes = depts.iter().chain(&emps).map(|r| encoded_len(r)).sum();
        let mut rng = TestRng::new(seed);
        let mut draw = |n: usize, lo: i64, hi: i64| -> Vec<i64> {
            (0..n).map(|_| rng.range_i64(lo, hi)).collect()
        };
        let literals = [
            draw(8, 20, 20 + AGES),              // one age: 1 %
            draw(4, 20, 20 + AGES - AGG_SPAN),   // half
            draw(4, 20, 20 + AGES - GROUP_SPAN), // nine tenths, grouped
            draw(4, 20, 20 + AGES - OUTER_SPAN), // a tenth
            draw(20, 0, sizes.depts),            // one dept
        ];
        Ok(ScanJoin {
            env,
            client,
            sizes,
            rng,
            emp: (0..sizes.emps).zip(emps).collect(),
            dept: (0..sizes.depts).zip(depts).collect(),
            literals,
            expected: BTreeMap::new(),
            loaded_bytes,
            probe_calls: if smoke { 500 } else { probes::CALLS },
        })
    }

    fn env(&self) -> &Env {
        &self.env
    }

    fn db(&self) -> &Arc<Database> {
        &self.client.db
    }

    fn pool_frames(&self) -> usize {
        2_048
    }

    fn next_round(&mut self) -> Vec<Stmt> {
        let mix = self.sizes.mix;
        (0..mix.len())
            .flat_map(|class| std::iter::repeat_n(class, mix[class]))
            .map(|class| self.stmt(class))
            .collect()
    }

    fn run(&mut self, item: &Stmt, tr: Option<&mut Tracer>) -> Sample {
        let (nanos, got) = self.client.select(&item.sql, Self::CLASSES[item.class], tr);
        Sample {
            class: item.class,
            nanos,
            ops: 1,
            failed: mismatch(&got, item.rows, item.sum),
            rows: got.map_or(0, |r| r.len() as u64),
        }
    }

    fn verify(&self, db: &Arc<Database>) -> Res<u64> {
        let client = SqlClient::new(db.clone());
        let mut bad = table_mismatches(
            &client,
            "SELECT id, name, dept, site, age, salary FROM emp",
            &self.emp,
        )?;
        bad += table_mismatches(&client, "SELECT id, name, budget FROM dept", &self.dept)?;
        // One statement of each class, through both of `emp`'s indexes.
        for class in 0..Self::CLASSES.len() {
            let lit = self.literals[class][0];
            let want = self.answer(class, lit);
            let got = client.select(&Self::text(class, lit), "verify", None).1;
            bad += mismatch(&got, want.len(), checksum(&want)) as u64;
        }
        Ok(bad)
    }

    fn headline_sql(&self) -> Option<String> {
        Some(Self::text(SCAN, self.literals[SCAN][0]))
    }

    fn user_bytes(&self) -> (u64, u64) {
        (self.loaded_bytes, self.loaded_bytes)
    }

    fn probes(&mut self, out: &mut Values) -> Res<()> {
        let db = self.client.db.clone();
        let calls = self.probe_calls;
        let rd = db.catalog().get_by_name("emp")?;
        probes::common(&db, rd.id, calls, out)?;
        // The index the probe join walks a range of.
        let tree = probes::index_tree(&db, "emp", "emp_dept")?;
        probes::btree_reads(&tree, calls, out)?;
        out.set(
            "storage.pages_per_1k_rows",
            ratio(rd.stats.pages() as f64 * 1000.0, rd.stats.records() as f64),
        );
        out.set(
            "core.scan_next_snapshot_ns",
            probes::scan_next_ns(&db, "emp", true, self.sizes.emps as usize)?,
        );
        out.set(
            "expr.eval_predicate_ns",
            probes::eval_predicate_ns(
                &db,
                &Expr::Cmp(
                    CmpOp::Eq,
                    Box::new(Expr::Column(E_AGE as u16)),
                    Box::new(Expr::Const(Value::Int(33))),
                ),
                &self.emp[&0],
                calls,
            )?,
        );
        out.set(
            "pagestore.fetch_hit_ns",
            probes::pool_fetch_hit_ns(&db, PageId::new(probes::heap_file(&rd)?, 0), calls)?,
        );
        let ids: Vec<i64> = (0..self.sizes.depts).collect();
        out.set(
            "attach.index_probe_us",
            probes::index_probe_us(&db, "dept", "dept_id", &ids, calls)?,
        );
        Ok(())
    }
}
