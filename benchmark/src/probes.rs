//! Layer probes: fixed-count loops over one layer's public functions, run
//! on the workload's own structures after the traced pass. Each returns a
//! cost per call; `est_share` metrics multiply these by the counts the
//! pass observed.
//!
//! To add a probe: write the loop here, call it from the `probes` of the
//! workloads whose structures it fits, and declare the metric in
//! `metrics::PER_LAYER`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use starburst_dmx::attach::btree_index::IxDesc;
use starburst_dmx::btree::{BTree, OnDuplicate};
use starburst_dmx::core::{AccessPath, AccessQuery, Database, RelationDescriptor};
use starburst_dmx::expr::{eval_predicate, EvalContext, Expr};
use starburst_dmx::lock::{LockMode, LockName};
use starburst_dmx::storage::btree_sm::BtDesc;
use starburst_dmx::types::key::encode_values;
use starburst_dmx::types::{FileId, PageId, RecordKey, RelationId, TxnId, Value};
use starburst_dmx::wal::{ExtKind, LogBody, LogManager, StableLog};

use crate::env::{bail, Res};
use crate::metrics::{ratio, Values};

/// Calls per probe loop. Fixed in source so a probe times the same work
/// on every run; smoke runs divide it.
pub const CALLS: usize = 20_000;

fn per_call_ns(start: Instant, calls: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// Probes every workload takes: transaction begin+commit, lock
/// acquire+release, log append and force.
pub fn common(db: &Arc<Database>, rel: RelationId, calls: usize, out: &mut Values) -> Res<()> {
    // An empty transaction: what every autocommit statement pays around
    // its work.
    let t = Instant::now();
    for _ in 0..calls {
        let txn = db.begin();
        db.commit(&txn)?;
    }
    out.set("core.begin_commit_ns", per_call_ns(t, calls));

    // Record locks in batches of 1,000 under one transaction id the
    // engine never hands out, released together as commit does.
    let locks = &db.services().locks;
    let me = TxnId(u64::MAX - 1);
    let names: Vec<LockName> = (0..1000u64)
        .map(|i| LockName::record(rel, &RecordKey::new(i.to_be_bytes().to_vec())))
        .collect();
    let batches = (calls / names.len()).max(1);
    let t = Instant::now();
    for _ in 0..batches {
        locks.lock(me, LockName::Relation(rel), LockMode::IS)?;
        for n in &names {
            locks.lock(me, *n, LockMode::S)?;
        }
        locks.unlock_all(me);
    }
    out.set("lock.lock_unlock_ns", per_call_ns(t, batches * names.len()));

    // Log append and force on a log of its own: appending to the live
    // one would put records in it that restart has to interpret. The
    // payload is the size of this workload's average frame.
    let payload = vec![0u8; out.get("diag.wal_frame_bytes").max(16.0) as usize];
    let log = LogManager::open(StableLog::new());
    let body = || LogBody::ExtOp {
        ext: ExtKind::Storage(starburst_dmx::types::SmTypeId(1)),
        relation: rel,
        op: 1,
        payload: payload.clone(),
    };
    let t = Instant::now();
    let mut last = starburst_dmx::types::Lsn::NULL;
    for _ in 0..calls {
        last = log.append(me, last, body());
    }
    out.set("wal.append_ns", per_call_ns(t, calls));
    log.force_all()?;
    // One frame per force, as an autocommit statement's commit does.
    let forces = calls / 4;
    let mut spent = 0u128;
    for _ in 0..forces {
        last = log.append(me, last, body());
        let t = Instant::now();
        log.force(last)?;
        spent += t.elapsed().as_nanos();
    }
    out.set("wal.force_us", spent as f64 / forces.max(1) as f64 / 1e3);
    Ok(())
}

/// The file a heap relation lives in: its storage-method descriptor is the
/// file id, four bytes little-endian.
pub fn heap_file(rd: &RelationDescriptor) -> Res<FileId> {
    match rd.sm_desc.first_chunk::<4>() {
        Some(b) => Ok(FileId(u32::from_le_bytes(*b))),
        None => bail(format!("{} has no heap descriptor", rd.name)),
    }
}

/// `BufferPool::fetch` of a page that is resident.
pub fn pool_fetch_hit_ns(db: &Arc<Database>, pid: PageId, calls: usize) -> Res<f64> {
    let pool = &db.services().pool;
    drop(pool.fetch(pid)?);
    let t = Instant::now();
    for _ in 0..calls {
        black_box(pool.fetch(pid)?);
    }
    Ok(per_call_ns(t, calls))
}

/// `BufferPool::fetch` of pages that are not resident: strides over a
/// file larger than the pool, so each fetch evicts and reads.
pub fn pool_fetch_miss_us(db: &Arc<Database>, first: PageId, pages: u32, calls: usize) -> Res<f64> {
    let pool = &db.services().pool;
    if (pages as usize) < pool.capacity() * 2 {
        return bail("miss probe needs a file at least twice the pool");
    }
    let misses_before = db.metrics_snapshot().counter("pool.misses");
    let t = Instant::now();
    for i in 0..calls as u32 {
        // 7919 is coprime to any page count here, so the stride visits
        // every page before repeating one.
        let n = (i.wrapping_mul(7919)) % pages;
        black_box(pool.fetch(PageId::new(first.file, n))?);
    }
    let us = per_call_ns(t, calls) / 1e3;
    let missed = db.metrics_snapshot().counter("pool.misses") - misses_before;
    if (missed as usize) < calls * 9 / 10 {
        return bail(format!(
            "miss probe hit the pool: {missed} misses in {calls} fetches"
        ));
    }
    Ok(us)
}

/// The tree behind a B-tree index attachment of `table`.
pub fn index_tree(db: &Arc<Database>, table: &str, index: &str) -> Res<BTree> {
    let rd = db.catalog().get_by_name(table)?;
    let Some((_, inst)) = rd.find_attachment(index) else {
        return bail(format!("no attachment {index} on {table}"));
    };
    let d = IxDesc::decode(&inst.desc)?;
    Ok(BTree::open(
        &db.services().pool,
        PageId::new(d.file, d.root_page),
        &db.services().latches,
    ))
}

/// The tree a B-tree-organised relation is stored in.
pub fn sm_tree(db: &Arc<Database>, table: &str) -> Res<BTree> {
    let rd = db.catalog().get_by_name(table)?;
    let d = BtDesc::decode(&rd.sm_desc)?;
    Ok(BTree::open(
        &db.services().pool,
        PageId::new(d.file, d.root_page),
        &db.services().latches,
    ))
}

/// Point `get` and cursor `next` on a live tree (read-only), and how many
/// pages it spends per thousand entries.
pub fn btree_reads(tree: &BTree, calls: usize, out: &mut Values) -> Res<()> {
    // Keys to look up: the tree's own, taken from a cursor.
    let mut cur = tree.iter_all();
    let mut keys = Vec::new();
    while keys.len() < 1000 {
        let Some((k, _)) = cur.next()? else { break };
        keys.push(k);
    }
    if keys.is_empty() {
        return bail("btree probe on an empty tree");
    }
    let t = Instant::now();
    for i in 0..calls {
        black_box(tree.get(&keys[i % keys.len()])?);
    }
    out.set("btree.get_ns", per_call_ns(t, calls));
    let mut cur = tree.iter_all();
    let t = Instant::now();
    let mut steps = 0usize;
    while steps < calls {
        if cur.next()?.is_none() {
            cur = tree.iter_all();
        }
        steps += 1;
    }
    out.set("btree.cursor_next_ns", per_call_ns(t, steps));
    let st = tree.stats()?;
    out.set(
        "btree.pages_per_1k_entries",
        ratio(st.nodes as f64 * 1000.0, st.entries as f64),
    );
    out.set("diag.btree_height", st.height as f64);
    Ok(())
}

/// `insert` and `delete` on a scratch tree in the workload's pool, filled
/// to `entries` first: mutating a live index from outside the write-ahead
/// protocol would corrupt it.
pub fn btree_writes(db: &Arc<Database>, entries: usize, calls: usize, out: &mut Values) -> Res<()> {
    let sv = db.services();
    let file = sv.disk.create_file()?;
    let tree = BTree::create(&sv.pool, file, &sv.latches)?;
    let key = |i: usize| encode_values(&[Value::Int(i as i64)]);
    let val = [0u8; 10];
    for i in 0..entries {
        tree.insert(&key(i * 2), &val, OnDuplicate::Error)?;
    }
    // Odd keys land between existing entries, spread over every leaf.
    let step = (entries / calls.max(1)).max(1);
    let fresh: Vec<Vec<u8>> = (0..calls.min(entries))
        .map(|i| key(i * step * 2 + 1))
        .collect();
    let t = Instant::now();
    for k in &fresh {
        tree.insert(k, &val, OnDuplicate::Error)?;
    }
    out.set("btree.insert_ns", per_call_ns(t, fresh.len()));
    let t = Instant::now();
    for k in &fresh {
        black_box(tree.delete(k)?);
    }
    out.set("btree.delete_ns", per_call_ns(t, fresh.len()));
    Ok(())
}

/// `scan_next` through the dispatcher over a whole relation: a snapshot
/// scan (no locks, version-store visibility) or a locking scan (S lock
/// and gap lock per row), the two policies of the one scan decorator.
pub fn scan_next_ns(db: &Arc<Database>, table: &str, snapshot: bool, max_rows: usize) -> Res<f64> {
    let rel = db.catalog().get_by_name(table)?.id;
    let txn = db.begin();
    txn.set_snapshot_reads(snapshot);
    let scan = db.open_scan(
        &txn,
        rel,
        AccessPath::StorageMethod,
        AccessQuery::All,
        None,
        None,
    )?;
    let t = Instant::now();
    let mut rows = 0usize;
    while rows < max_rows && db.scan_next(&txn, scan)?.is_some() {
        rows += 1;
    }
    let ns = per_call_ns(t, rows);
    db.scan_close(&txn, scan);
    db.commit(&txn)?;
    Ok(ns)
}

/// The predicate evaluator on one materialised row.
pub fn eval_predicate_ns(db: &Arc<Database>, pred: &Expr, row: &[Value], calls: usize) -> Res<f64> {
    let funcs = db.services().funcs.read();
    let t = Instant::now();
    for _ in 0..calls {
        black_box(eval_predicate(pred, &row, EvalContext::new(&funcs))?);
    }
    Ok(per_call_ns(t, calls))
}

/// Record keys of up to `n` rows of a relation, in storage order.
pub fn some_keys(db: &Arc<Database>, table: &str, n: usize) -> Res<Vec<RecordKey>> {
    let rel = db.catalog().get_by_name(table)?.id;
    let txn = db.begin();
    txn.set_snapshot_reads(true);
    let scan = db.open_scan(
        &txn,
        rel,
        AccessPath::StorageMethod,
        AccessQuery::All,
        None,
        Some(vec![]),
    )?;
    let mut keys = Vec::new();
    while keys.len() < n {
        let Some(item) = db.scan_next(&txn, scan)? else {
            break;
        };
        keys.push(item.key);
    }
    db.scan_close(&txn, scan);
    db.commit(&txn)?;
    Ok(keys)
}

/// `Database::fetch` by record key under one read transaction.
pub fn fetch_us(db: &Arc<Database>, table: &str, keys: &[RecordKey], calls: usize) -> Res<f64> {
    if keys.is_empty() {
        return bail(format!("fetch probe: {table} has no rows"));
    }
    let rel = db.catalog().get_by_name(table)?.id;
    let txn = db.begin();
    txn.set_snapshot_reads(true);
    let t = Instant::now();
    for i in 0..calls {
        black_box(db.fetch(&txn, rel, &keys[i % keys.len()], None, None)?);
    }
    let us = per_call_ns(t, calls) / 1e3;
    db.commit(&txn)?;
    Ok(us)
}

/// One equality probe through an index attachment's access path: open,
/// first item, close.
pub fn index_probe_us(
    db: &Arc<Database>,
    table: &str,
    index: &str,
    values: &[i64],
    calls: usize,
) -> Res<f64> {
    let rd = db.catalog().get_by_name(table)?;
    let Some((att, inst)) = rd.find_attachment(index) else {
        return bail(format!("no attachment {index} on {table}"));
    };
    let path = AccessPath::Attachment(att, inst.instance);
    let keys: Vec<Vec<u8>> = values
        .iter()
        .map(|v| encode_values(&[Value::Int(*v)]))
        .collect();
    let txn = db.begin();
    txn.set_snapshot_reads(true);
    let t = Instant::now();
    for i in 0..calls {
        let query = AccessQuery::KeyEquals(keys[i % keys.len()].clone());
        let scan = db.open_scan(&txn, rd.id, path, query, None, None)?;
        black_box(db.scan_next(&txn, scan)?);
        db.scan_close(&txn, scan);
    }
    let us = per_call_ns(t, calls) / 1e3;
    db.commit(&txn)?;
    Ok(us)
}
