//! The bound-plan cache.
//!
//! "It is important to retain the translations of queries into query
//! execution plans … and to use the saved query execution plans whenever
//! the queries are subsequently executed. This query binding approach
//! avoids the non-trivial costs of accessing the relation descriptions
//! and optimizing the query at query execution time." Compiled plans
//! embed `Arc<RelationDescriptor>` snapshots (no catalog access at run
//! time) and register their dependencies with the core's
//! [`dmx_core::DependencyRegistry`]; a plan invalidated by DDL is
//! re-translated automatically on its next invocation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use dmx_types::sync::Mutex;

use dmx_core::{Database, PlanId};
use dmx_types::obs::{name as metric, Counter};
use dmx_types::Result;

use crate::ast::SelectStmt;
use crate::planner::{plan_select, CompiledSelect};

/// Plans the cache holds at most. A SQL text that is new when it is
/// full takes the slot of the first plan the CLOCK hand finds that no
/// statement has used since the hand last passed it.
pub const PLAN_CACHE_CAPACITY: usize = 1024;

struct Cached {
    sql: String,
    plan_id: PlanId,
    compiled: Arc<CompiledSelect>,
    /// Used since the CLOCK hand last passed: spared once more.
    used: bool,
}

/// The cached plans: a ring of slots the CLOCK hand walks, and where
/// each text's slot is.
#[derive(Default)]
struct Plans {
    slots: Vec<Cached>,
    by_sql: HashMap<String, usize>,
    hand: usize,
}

impl Plans {
    /// Caches the plan of a text it does not hold: in a fresh slot while
    /// there is room, else in the slot of the first plan from the hand on
    /// that no statement has used since the hand last passed it, which
    /// goes (its dependencies with it).
    fn add(&mut self, db: &Database, cached: Cached) {
        let sql = cached.sql.clone();
        if self.slots.len() < PLAN_CACHE_CAPACITY {
            self.by_sql.insert(sql, self.slots.len());
            self.slots.push(cached);
            return;
        }
        while std::mem::take(&mut self.slots[self.hand].used) {
            self.hand = (self.hand + 1) % self.slots.len();
        }
        let victim = std::mem::replace(&mut self.slots[self.hand], cached);
        self.by_sql.remove(&victim.sql);
        db.deps().forget_plan(victim.plan_id);
        self.by_sql.insert(sql, self.hand);
        self.hand = (self.hand + 1) % self.slots.len();
    }
}

/// Cache statistics (experiment E4 reports these).
#[derive(Debug, Default)]
pub struct CacheStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub retranslations: AtomicU64,
}

/// SQL-text-keyed cache of compiled SELECT plans.
#[derive(Default)]
pub struct PlanCache {
    plans: Mutex<Plans>,
    pub stats: CacheStats,
    /// Registry mirrors of hits/misses, resolved once from the first
    /// database this cache serves (there is one cache per database).
    registry_counters: OnceLock<(Arc<Counter>, Arc<Counter>)>,
}

impl PlanCache {
    fn registry_counters(&self, db: &Arc<Database>) -> &(Arc<Counter>, Arc<Counter>) {
        self.registry_counters.get_or_init(|| {
            (
                db.metrics().counter(metric::PLAN_CACHE_HITS),
                db.metrics().counter(metric::PLAN_CACHE_MISSES),
            )
        })
    }

    /// Returns the cached plan for `sql` when still valid; otherwise
    /// (re-)compiles, registers dependencies, caches and returns it.
    pub fn get_or_compile(
        &self,
        db: &Arc<Database>,
        sql: &str,
        sel: &SelectStmt,
    ) -> Result<Arc<CompiledSelect>> {
        let (reg_hits, reg_misses) = self.registry_counters(db);
        let (reg_hits, reg_misses) = (reg_hits.clone(), reg_misses.clone());
        {
            let mut plans = self.plans.lock();
            let plans = &mut *plans;
            if let Some(&at) = plans.by_sql.get(sql) {
                let c = &mut plans.slots[at];
                if db.deps().is_valid(c.plan_id) {
                    c.used = true;
                    self.stats.hits.fetch_add(1, Ordering::Relaxed);
                    reg_hits.incr();
                    return Ok(c.compiled.clone());
                }
            }
        }
        // invalid or absent: (re-)translate
        let compiled = Arc::new(plan_select(db, sel)?);
        let plan_id = db.deps().register_plan(compiled.deps.clone());
        let cached = Cached {
            sql: sql.to_string(),
            plan_id,
            compiled: compiled.clone(),
            used: false,
        };
        let mut plans = self.plans.lock();
        if let Some(&at) = plans.by_sql.get(sql) {
            let old = std::mem::replace(&mut plans.slots[at], cached);
            db.deps().forget_plan(old.plan_id);
            self.stats.retranslations.fetch_add(1, Ordering::Relaxed);
        } else {
            plans.add(db, cached);
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
        }
        // Both fresh compiles and retranslations are registry misses:
        // either way a plan was compiled at execution time.
        reg_misses.incr();
        Ok(compiled)
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.plans.lock().slots.len()
    }

    /// True when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows for `sys.plan_cache`: `(sql, valid)` per cached plan, sorted
    /// by SQL text for a deterministic presentation.
    pub fn dump(&self, db: &Database) -> Vec<Vec<dmx_types::Value>> {
        use dmx_types::Value;
        let plans = self.plans.lock();
        let mut rows: Vec<Vec<Value>> = plans
            .slots
            .iter()
            .map(|c| {
                vec![
                    Value::Str(c.sql.clone()),
                    Value::Bool(db.deps().is_valid(c.plan_id)),
                ]
            })
            .collect();
        rows.sort_by(|a, b| match (a.first(), b.first()) {
            (Some(Value::Str(x)), Some(Value::Str(y))) => x.cmp(y),
            _ => std::cmp::Ordering::Equal,
        });
        rows
    }

    /// Drops every cached plan (tests/benches).
    pub fn clear(&self, db: &Arc<Database>) {
        let plans = std::mem::take(&mut *self.plans.lock());
        for c in plans.slots {
            db.deps().forget_plan(c.plan_id);
        }
    }
}
