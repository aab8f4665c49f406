//! `point_select` and `point_cold`: one statement stream — autocommit
//! unique-index point reads with all-but-unique SQL texts — over the same
//! 50,000-row heap, once under a pool the data fits and once under a
//! pool a sixth its size. On the first, compiling the statement is most
//! of it; on the second, evicting and reading pages is.

use std::collections::BTreeMap;
use std::sync::Arc;

use starburst_dmx::core::Database;
use starburst_dmx::expr::{CmpOp, Expr};
use starburst_dmx::types::testrng::TestRng;
use starburst_dmx::types::{PageId, Value};

use super::{
    bulk_load, encoded_len, mismatch, mix, row_hash, table_mismatches, Sample, SqlClient, Workload,
};
use crate::env::{bail, Env, Res};
use crate::metrics::{ratio, Values};
use crate::probes;
use crate::trace::Tracer;

struct Sizes {
    rows: i64,
    /// Statements per round.
    round: usize,
    /// Frames the data fits in, and frames it does not.
    warm_frames: usize,
    cold_frames: usize,
}

/// Half the 100,000 rows and 256 cold frames first planned, in the same
/// proportion: five set-ups and recoveries of the larger table took 13 s
/// of every run, and twice that when the host is slow.
const FULL: Sizes = Sizes {
    rows: 50_000,
    round: 1_000,
    warm_frames: 2_048,
    cold_frames: 128,
};

const SMOKE: Sizes = Sizes {
    rows: 6_000,
    round: 300,
    warm_frames: 2_048,
    cold_frames: 16,
};

/// Share of statements drawn from the hot set, in percent: the plan-cache
/// hit rate this workload holds steady.
const HOT_PERCENT: u64 = 10;
const HOT_TEXTS: usize = 64;

pub struct Stmt {
    sql: String,
    /// Hash of the one `(owner, balance)` row it must return.
    want: u64,
}

pub struct Point<const COLD: bool> {
    env: Env,
    client: SqlClient,
    frames: usize,
    sizes: &'static Sizes,
    rng: TestRng,
    /// id → the whole row; static after load.
    model: BTreeMap<i64, Vec<Value>>,
    hot: Vec<(i64, u64)>,
    loaded_bytes: u64,
    probe_calls: usize,
}

pub type PointSelect = Point<false>;
pub type PointCold = Point<true>;

fn row(seed: u64, id: i64) -> Vec<Value> {
    vec![
        Value::Int(id),
        // Fixed width, so bytes per row do not depend on the seed.
        Value::Str(format!("own{:05}{:08}", mix(seed, 0) % 100_000, id)),
        Value::Int(1000 + (mix(seed, id as u64) % 977) as i64),
        Value::Int(id % 100),
    ]
}

impl<const COLD: bool> Point<COLD> {
    fn text(&self, id: i64, floor: u64) -> Stmt {
        let r = &self.model[&id];
        Stmt {
            // Every balance is >= 1000 > floor: the conjunct changes the
            // text, never the answer.
            sql: format!("SELECT owner, balance FROM acct WHERE id = {id} AND balance >= {floor}"),
            want: row_hash(&r[1..3]),
        }
    }
}

impl<const COLD: bool> Workload for Point<COLD> {
    const NAME: &'static str = if COLD { "point_cold" } else { "point_select" };
    const CLASSES: &'static [&'static str] = &["select"];
    const FIXED_ROUNDS: usize = 2;
    const REPEATS: usize = 5;
    type Item = Stmt;

    fn setup(seed: u64, smoke: bool) -> Res<Self> {
        let sizes = if smoke { &SMOKE } else { &FULL };
        let env = Env::fresh();
        let db = env.open(sizes.warm_frames)?;
        let client = SqlClient::new(db.clone());
        client.exec(
            "CREATE TABLE acct (id INT NOT NULL, owner STRING NOT NULL, \
             balance INT NOT NULL, branch INT NOT NULL)",
        )?;
        client.exec("CREATE UNIQUE INDEX acct_id ON acct USING btree (id)")?;
        let rows: Vec<Vec<Value>> = (0..sizes.rows).map(|id| row(seed, id)).collect();
        bulk_load(&db, "acct", &rows)?;
        client.exec("ANALYZE TABLE acct")?;
        let loaded_bytes = rows.iter().map(|r| encoded_len(r)).sum();
        let model: BTreeMap<i64, Vec<Value>> = (0..sizes.rows).zip(rows).collect();
        let (client, frames) = if COLD {
            // Built under a pool it fits, then closed cleanly and
            // reopened under one it does not: loading under the small
            // pool would fail, because dirty index pages cannot be
            // stolen.
            drop(client);
            drop(db);
            (
                SqlClient::new(env.open(sizes.cold_frames)?),
                sizes.cold_frames,
            )
        } else {
            (client, sizes.warm_frames)
        };
        let mut rng = TestRng::new(seed);
        let hot = (0..HOT_TEXTS)
            .map(|_| (rng.range_i64(0, sizes.rows), rng.below(1000)))
            .collect();
        Ok(Point {
            env,
            client,
            frames,
            sizes,
            rng,
            model,
            hot,
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
        self.frames
    }

    fn next_round(&mut self) -> Vec<Stmt> {
        (0..self.sizes.round)
            .map(|_| {
                let (id, floor) = if self.rng.below(100) < HOT_PERCENT {
                    self.hot[self.rng.index(HOT_TEXTS)]
                } else {
                    (self.rng.range_i64(0, self.sizes.rows), self.rng.below(1000))
                };
                self.text(id, floor)
            })
            .collect()
    }

    fn run(&mut self, item: &Stmt, tr: Option<&mut Tracer>) -> Sample {
        let (nanos, got) = self.client.select(&item.sql, "select", tr);
        Sample {
            class: 0,
            nanos,
            ops: 1,
            failed: mismatch(&got, 1, item.want),
            rows: got.map_or(0, |r| r.len() as u64),
        }
    }

    fn verify(&self, db: &Arc<Database>) -> Res<u64> {
        let client = SqlClient::new(db.clone());
        let mut bad = table_mismatches(
            &client,
            "SELECT id, owner, balance, branch FROM acct",
            &self.model,
        )?;
        // And through the index, which the scan above does not touch.
        for id in (0..self.sizes.rows).step_by((self.sizes.rows / 100).max(1) as usize) {
            let s = self.text(id, 0);
            bad += mismatch(&client.select(&s.sql, "select", None).1, 1, s.want) as u64;
        }
        Ok(bad)
    }

    fn headline_sql(&self) -> Option<String> {
        Some(self.text(self.sizes.rows / 2, 0).sql)
    }

    fn user_bytes(&self) -> (u64, u64) {
        (self.loaded_bytes, self.loaded_bytes)
    }

    fn probes(&mut self, out: &mut Values) -> Res<()> {
        let db = self.client.db.clone();
        let calls = self.probe_calls;
        let rd = db.catalog().get_by_name("acct")?;
        probes::common(&db, rd.id, calls, out)?;
        let tree = probes::index_tree(&db, "acct", "acct_id")?;
        probes::btree_reads(&tree, calls, out)?;
        out.set(
            "storage.pages_per_1k_rows",
            ratio(rd.stats.pages() as f64 * 1000.0, rd.stats.records() as f64),
        );
        let ids: Vec<i64> = (0..1000)
            .map(|i| i * (self.sizes.rows / 1000).max(1))
            .collect();
        out.set(
            "attach.index_probe_us",
            probes::index_probe_us(&db, "acct", "acct_id", &ids, calls)?,
        );
        out.set(
            "expr.eval_predicate_ns",
            probes::eval_predicate_ns(
                &db,
                &Expr::Cmp(
                    CmpOp::Ge,
                    Box::new(Expr::Column(2)),
                    Box::new(Expr::Const(Value::Int(500))),
                ),
                &self.model[&0],
                calls,
            )?,
        );
        let heap = probes::heap_file(&rd)?;
        let first = PageId::new(heap, 0);
        out.set(
            "pagestore.fetch_hit_ns",
            probes::pool_fetch_hit_ns(&db, first, calls)?,
        );
        if COLD {
            let pages = db.services().disk.page_count(heap)?;
            out.set(
                "pagestore.fetch_miss_us",
                probes::pool_fetch_miss_us(&db, first, pages, calls.min(5_000))?,
            );
        } else if out.get("pagestore.hit_rate") < 1.0 {
            return bail("point_select must fit the pool; it missed");
        }
        Ok(())
    }
}
