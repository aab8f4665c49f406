//! `keyed_dml`: autocommit `UPDATE … WHERE id = k`, `INSERT` and
//! `DELETE … WHERE id = k` through SQL on a B-tree-organised relation.
//!
//! Today a keyed UPDATE or DELETE collects its target with a locking scan
//! of the whole relation — one S lock per row, released at commit — so
//! the core scan, the lock manager and commit-time unlock are the cost,
//! and it grows with the relation (which is why the relation is kept at
//! a fixed size). Once target selection goes through the planner
//! (ROADMAP 2a) the log force and the tree should take over; this is the
//! workload that will show it.

use std::collections::BTreeMap;
use std::sync::Arc;

use starburst_dmx::core::Database;
use starburst_dmx::types::testrng::TestRng;
use starburst_dmx::types::Value;

use super::{encoded_len, mix, table_mismatches, wrong_count, Sample, SqlClient, Workload};
use crate::env::{bail, Env, Res};
use crate::metrics::{ratio, Values};
use crate::probes;
use crate::trace::Tracer;

struct Sizes {
    rows: i64,
}

/// 5,000 rows put an UPDATE near 9 ms, so a 12 s window holds some 800
/// of them, and 400 still when the host runs at half speed; the 10,000
/// first planned left too few samples.
const FULL: Sizes = Sizes { rows: 5_000 };
const SMOKE: Sizes = Sizes { rows: 300 };

const UPDATE: usize = 0;
const INSERT: usize = 1;
const DELETE: usize = 2;

pub struct Stmt {
    class: usize,
    sql: String,
}

pub struct KeyedDml {
    env: Env,
    client: SqlClient,
    seed: u64,
    rng: TestRng,
    /// id → the whole row.
    model: BTreeMap<i64, Vec<Value>>,
    next_id: i64,
    written_bytes: u64,
    probe_calls: usize,
}

fn row(seed: u64, id: i64, qty: i64) -> Vec<Value> {
    vec![
        Value::Int(id),
        Value::Str(format!("item{:04}{id:010}", mix(seed, 1) % 10_000)),
        Value::Int(qty),
    ]
}

fn insert_sql(r: &[Value]) -> String {
    let (Value::Int(id), Value::Str(name), Value::Int(qty)) = (&r[0], &r[1], &r[2]) else {
        unreachable!("rows are built by `row`")
    };
    format!("INSERT INTO item VALUES ({id}, '{name}', {qty})")
}

impl KeyedDml {
    fn live_id(&mut self) -> i64 {
        // Uniform over the live ids, which are a contiguous run: the
        // oldest is deleted and the newest appended each round.
        let lo = *self.model.keys().next().unwrap_or(&0);
        self.rng.range_i64(lo, self.next_id)
    }

    fn update(&mut self) -> Stmt {
        let id = self.live_id();
        let qty = self.rng.range_i64(0, 1000);
        if let Some(r) = self.model.get_mut(&id) {
            r[2] = Value::Int(qty);
            self.written_bytes += encoded_len(r);
        }
        Stmt {
            class: UPDATE,
            sql: format!("UPDATE item SET qty = {qty} WHERE id = {id}"),
        }
    }

    fn insert(&mut self) -> Stmt {
        let r = row(self.seed, self.next_id, self.rng.range_i64(0, 1000));
        let sql = insert_sql(&r);
        self.written_bytes += encoded_len(&r);
        self.model.insert(self.next_id, r);
        self.next_id += 1;
        Stmt { class: INSERT, sql }
    }

    fn delete_oldest(&mut self) -> Stmt {
        let id = self.model.pop_first().map_or(0, |(id, _)| id);
        Stmt {
            class: DELETE,
            sql: format!("DELETE FROM item WHERE id = {id}"),
        }
    }
}

impl Workload for KeyedDml {
    const NAME: &'static str = "keyed_dml";
    const CLASSES: &'static [&'static str] = &["update", "insert", "delete"];
    const FIXED_ROUNDS: usize = 4;
    // Set-up and recovery take tens of milliseconds here, so more of them
    // fit, and their median is the steadier for it.
    const REPEATS: usize = 11;
    type Item = Stmt;

    fn setup(seed: u64, smoke: bool) -> Res<Self> {
        let sizes = if smoke { &SMOKE } else { &FULL };
        let env = Env::fresh();
        let client = SqlClient::new(env.open(2_048)?);
        client.exec(
            "CREATE TABLE item (id INT NOT NULL, name STRING NOT NULL, qty INT NOT NULL) \
             USING btree WITH (key=id)",
        )?;
        // Loaded the way the workload writes: one autocommit INSERT a row.
        let mut model = BTreeMap::new();
        let mut written_bytes = 0;
        for id in 0..sizes.rows {
            let r = row(seed, id, id % 1000);
            client.exec(&insert_sql(&r))?;
            written_bytes += encoded_len(&r);
            model.insert(id, r);
        }
        Ok(KeyedDml {
            env,
            client,
            seed,
            rng: TestRng::new(seed),
            model,
            next_id: sizes.rows,
            written_bytes,
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
        // Live size is the same after every round.
        vec![
            self.update(),
            self.insert(),
            self.update(),
            self.delete_oldest(),
        ]
    }

    fn run(&mut self, item: &Stmt, tr: Option<&mut Tracer>) -> Sample {
        let (nanos, got) = self.client.dml(&item.sql, Self::CLASSES[item.class], tr);
        Sample {
            class: item.class,
            nanos,
            ops: 1,
            failed: wrong_count(&got, 1),
            rows: 0,
        }
    }

    fn begin_unacknowledged(&mut self) -> Res<()> {
        self.client.exec("BEGIN")?;
        for i in 0..3 {
            let id = self.next_id + 1_000_000 + i;
            self.client.exec(&insert_sql(&row(self.seed, id, 7)))?;
        }
        Ok(())
    }

    fn abort_unacknowledged(&mut self) -> Res<()> {
        self.client.exec("ROLLBACK")?;
        Ok(())
    }

    fn verify(&self, db: &Arc<Database>) -> Res<u64> {
        // A ghost that survived shows up as an extra row.
        table_mismatches(
            &SqlClient::new(db.clone()),
            "SELECT id, name, qty FROM item",
            &self.model,
        )
    }

    fn headline_sql(&self) -> Option<String> {
        Some("UPDATE item SET qty = 1 WHERE id = 1".into())
    }

    fn user_bytes(&self) -> (u64, u64) {
        (
            self.written_bytes,
            self.model.values().map(|r| encoded_len(r)).sum(),
        )
    }

    fn probes(&mut self, out: &mut Values) -> Res<()> {
        let db = self.client.db.clone();
        let calls = self.probe_calls;
        let rd = db.catalog().get_by_name("item")?;
        probes::common(&db, rd.id, calls, out)?;
        let tree = probes::sm_tree(&db, "item")?;
        probes::btree_reads(&tree, calls, out)?;
        probes::btree_writes(&db, self.model.len(), calls.min(self.model.len()), out)?;
        let st = tree.stats()?;
        // The relation is the tree: its pages are the rows' pages.
        out.set(
            "storage.pages_per_1k_rows",
            ratio(st.nodes as f64 * 1000.0, st.entries as f64),
        );
        let rows = self.model.len();
        out.set(
            "core.scan_next_locking_ns",
            probes::scan_next_ns(&db, "item", false, rows)?,
        );
        out.set(
            "core.scan_next_snapshot_ns",
            probes::scan_next_ns(&db, "item", true, rows)?,
        );
        let keys = probes::some_keys(&db, "item", 1000)?;
        if keys.is_empty() {
            return bail("item is empty");
        }
        out.set(
            "storage.btree_sm_fetch_us",
            probes::fetch_us(&db, "item", &keys, calls)?,
        );
        Ok(())
    }
}
