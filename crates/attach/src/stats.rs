//! The maintained-statistics attachment ("this storage can be used to …
//! maintain statistics about relations").
//!
//! One instance per relation maintains, as WAL-logged side effects of
//! ordinary DML, the statistics the cost-estimation interface consumes:
//! an exact row count and, per numeric (`Int`/`Float`) field, a NULL
//! count, a linear-counting distinct sketch, min/max bounds and — after
//! `ANALYZE TABLE` froze bucket bounds — a fixed-bucket equi-width
//! histogram. The whole state lives in **one cell** of a private B-tree
//! (keyed by a constant), so maintenance is a read-modify-write of a
//! single hot page; like [`crate::aggregate`], every change goes through
//! [`LoggedTree::update_cell`], which locks the cell, logs its *before-
//! and after-images* and replays them in either direction.
//!
//! After every image it writes the attachment *publishes* an immutable
//! [`TableStats`] snapshot into the relation descriptor's shared
//! [`dmx_core::RelationStats`] handle, which every storage method's
//! `estimate` and the planner consult ([`dmx_expr::stats::selectivity`]).
//! [`Attachment::activate`] re-publishes from durable state on database
//! open, after restart's redo (which publishes nothing); an undo's
//! `replay` re-publishes the image it installs so aborts never leave a
//! stale snapshot behind, and a dropped or
//! released instance retracts it ([`Attachment::deactivate`]). A new
//! instance's build computes the cell once, exactly, and writes it once
//! (`ANALYZE`'s rebuild), unlogged like every build.
//!
//! Accuracy contract (documented in DESIGN.md §10.4): row and NULL
//! counts are exact; min/max and the distinct sketch only *widen* under
//! deletes (exact again after the next `ANALYZE`); histogram buckets are
//! incremented/decremented with out-of-bounds values clamped into the
//! edge buckets.

use std::sync::Arc;

use dmx_btree::BTree;
use dmx_core::logged_tree;
use dmx_core::{
    Attachment, AttachmentInstance, CommonServices, ExecCtx, LoggedTree, Modification,
    RelationDescriptor, Replay, TreeFile, ASSIGNED_KEYS,
};
use dmx_expr::stats::{value_to_f64, ColumnStats, Histogram, TableStats};
use dmx_types::{
    bytes::le_u16,
    key::{decode_values, encode_values},
    AttrList, DataType, DmxError, Lsn, Record, RecordKey, Result, Schema, Value,
};

use crate::common::{fnv1a, read_u64};

/// The maintained-statistics attachment type.
pub struct Stats;

/// Bytes in the per-field linear-counting distinct sketch (256 bits).
pub const SKETCH_BYTES: usize = 32;

/// The private B-tree holding an instance's single cell: all its stored
/// list names. The one parser takes no attribute from the DDL.
fn cell_tree(attrs: &AttrList) -> Result<TreeFile> {
    attrs.without(&ASSIGNED_KEYS).check_allowed(&[], "stats")?;
    let [tree] = TreeFile::assigned(attrs)?;
    Ok(tree)
}

/// Per-field maintained state inside the cell.
#[derive(Debug, Clone, PartialEq)]
struct ColCell {
    /// `false` for non-numeric fields: only the tag byte is stored.
    tracked: bool,
    nulls: u64,
    /// Linear-counting bitmap over FNV-1a hashes of encoded values.
    sketch: [u8; SKETCH_BYTES],
    min: Option<Value>,
    max: Option<Value>,
    hist: Option<Histogram>,
}

impl ColCell {
    fn untracked() -> ColCell {
        ColCell {
            tracked: false,
            nulls: 0,
            sketch: [0; SKETCH_BYTES],
            min: None,
            max: None,
            hist: None,
        }
    }

    fn tracked() -> ColCell {
        ColCell {
            tracked: true,
            ..ColCell::untracked()
        }
    }
}

/// The whole maintained cell: row count plus per-field state.
#[derive(Debug, Clone, PartialEq)]
struct StatsCell {
    rows: u64,
    cols: Vec<ColCell>,
}

fn sketch_insert(sketch: &mut [u8; SKETCH_BYTES], v: &Value) {
    let bit = (fnv1a(&encode_values(std::slice::from_ref(v))) % (SKETCH_BYTES as u64 * 8)) as usize;
    sketch[bit / 8] |= 1 << (bit % 8);
}

/// Linear-counting estimate: `-m · ln(zeros / m)`, capped into
/// `[1, rows]`; a saturated sketch (no zero bits) degrades to "all rows
/// distinct", which matches near-unique fields.
fn distinct_estimate(sketch: &[u8; SKETCH_BYTES], rows: u64) -> u64 {
    if rows == 0 {
        return 0;
    }
    let m = (SKETCH_BYTES * 8) as f64;
    let zeros: u64 = sketch.iter().map(|b| b.count_zeros() as u64).sum();
    if zeros == 0 {
        return rows;
    }
    let est = (m * (m / zeros as f64).ln()).round() as u64;
    est.clamp(1, rows)
}

impl StatsCell {
    fn new(schema: &Schema) -> StatsCell {
        StatsCell {
            rows: 0,
            cols: schema
                .columns()
                .iter()
                .map(|c| match c.data_type {
                    DataType::Int | DataType::Float => ColCell::tracked(),
                    _ => ColCell::untracked(),
                })
                .collect(),
        }
    }

    /// Applies one record with `sign` +1 (insert) or -1 (delete).
    fn apply(&mut self, record: &Record, sign: i64) {
        self.rows = if sign >= 0 {
            self.rows.saturating_add(1)
        } else {
            self.rows.saturating_sub(1)
        };
        for (i, col) in self.cols.iter_mut().enumerate() {
            if !col.tracked {
                continue;
            }
            match record.values.get(i) {
                Some(Value::Null) | None => {
                    col.nulls = if sign >= 0 {
                        col.nulls.saturating_add(1)
                    } else {
                        col.nulls.saturating_sub(1)
                    };
                }
                Some(v) => {
                    if sign >= 0 {
                        sketch_insert(&mut col.sketch, v);
                        widen(&mut col.min, v, std::cmp::Ordering::Less);
                        widen(&mut col.max, v, std::cmp::Ordering::Greater);
                    }
                    if let (Some(h), Some(x)) = (&mut col.hist, value_to_f64(v)) {
                        h.add(x, sign);
                    }
                }
            }
        }
    }

    /// The cell of exactly `records`: exact distinct sketch and min/max,
    /// and a histogram per field whose bucket bounds are frozen at the
    /// observed min/max, filled by a second pass.
    fn exact(schema: &Schema, records: &[(RecordKey, Record)]) -> StatsCell {
        let mut cell = StatsCell::new(schema);
        for (_, r) in records {
            cell.apply(r, 1);
        }
        for (i, col) in cell.cols.iter_mut().enumerate() {
            let (Some(lo), Some(hi)) = (
                col.min.as_ref().and_then(value_to_f64),
                col.max.as_ref().and_then(value_to_f64),
            ) else {
                continue;
            };
            let mut h = Histogram::new(lo, hi);
            for (_, r) in records {
                if let Some(x) = r.values.get(i).and_then(value_to_f64) {
                    h.add(x, 1);
                }
            }
            col.hist = Some(h);
        }
        cell
    }

    /// The planner-facing snapshot of this cell.
    fn to_table_stats(&self) -> TableStats {
        TableStats {
            rows: self.rows,
            columns: self
                .cols
                .iter()
                .map(|c| {
                    if !c.tracked {
                        return None;
                    }
                    Some(ColumnStats {
                        nulls: c.nulls,
                        distinct: distinct_estimate(&c.sketch, self.rows.saturating_sub(c.nulls)),
                        min: c.min.clone(),
                        max: c.max.clone(),
                        histogram: c.hist.clone(),
                    })
                })
                .collect(),
        }
    }
}

/// Keeps `slot` as the extreme of the values seen so far (`Less` for
/// min, `Greater` for max), comparing through the numeric view.
fn widen(slot: &mut Option<Value>, v: &Value, keep: std::cmp::Ordering) {
    let Some(x) = value_to_f64(v) else { return };
    match slot {
        None => *slot = Some(v.clone()),
        Some(cur) => {
            let Some(c) = value_to_f64(cur) else {
                *slot = Some(v.clone());
                return;
            };
            if x.partial_cmp(&c) == Some(keep) {
                *slot = Some(v.clone());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Cell serialization.
// ---------------------------------------------------------------------

fn encode_value_opt(out: &mut Vec<u8>, v: &Option<Value>) {
    match v {
        None => out.push(0),
        // Ints and floats carry their own variant tag: the
        // order-preserving key encoding folds Int(2) and Float(2.0)
        // into one byte string, which would flip the min/max spelling
        // (and the sys.statistics rendering) across a reopen.
        Some(Value::Int(i)) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Some(Value::Float(x)) => {
            out.push(3);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Some(v) => {
            out.push(1);
            let enc = encode_values(std::slice::from_ref(v));
            out.extend_from_slice(&(enc.len() as u16).to_le_bytes());
            out.extend_from_slice(&enc);
        }
    }
}

fn decode_value_opt(b: &[u8], off: &mut usize) -> Result<Option<Value>> {
    const WHAT: &str = "stats cell value";
    let corrupt = || DmxError::Corrupt(format!("short {WHAT}"));
    let read8 = |b: &[u8], off: &mut usize| -> Result<[u8; 8]> {
        let raw = b.get(*off..*off + 8).ok_or_else(corrupt)?;
        *off += 8;
        raw.try_into()
            .map_err(|_| DmxError::Corrupt(format!("short {WHAT}")))
    };
    let tag = *b.get(*off).ok_or_else(corrupt)?;
    *off += 1;
    match tag {
        0 => Ok(None),
        2 => Ok(Some(Value::Int(i64::from_le_bytes(read8(b, off)?)))),
        3 => Ok(Some(Value::Float(f64::from_bits(u64::from_le_bytes(
            read8(b, off)?,
        ))))),
        1 => {
            let len = le_u16(b, *off).ok_or_else(corrupt)? as usize;
            *off += 2;
            let enc = b.get(*off..*off + len).ok_or_else(corrupt)?;
            *off += len;
            let v = decode_values(enc, 1)?
                .pop()
                .ok_or_else(|| DmxError::Corrupt(format!("empty {WHAT}")))?;
            Ok(Some(v))
        }
        _ => Err(DmxError::Corrupt(format!("bad {WHAT} tag {tag}"))),
    }
}

fn encode_cell(cell: &StatsCell) -> Vec<u8> {
    let mut v = Vec::with_capacity(16 + cell.cols.len() * 64);
    v.extend_from_slice(&cell.rows.to_le_bytes());
    v.extend_from_slice(&(cell.cols.len() as u16).to_le_bytes());
    for c in &cell.cols {
        if !c.tracked {
            v.push(0);
            continue;
        }
        v.push(1);
        v.extend_from_slice(&c.nulls.to_le_bytes());
        v.extend_from_slice(&c.sketch);
        encode_value_opt(&mut v, &c.min);
        encode_value_opt(&mut v, &c.max);
        match &c.hist {
            None => v.push(0),
            Some(h) => {
                v.push(1);
                v.extend_from_slice(&h.lo.to_le_bytes());
                v.extend_from_slice(&h.hi.to_le_bytes());
                v.push(h.buckets.len() as u8);
                for b in &h.buckets {
                    v.extend_from_slice(&b.to_le_bytes());
                }
            }
        }
    }
    v
}

fn decode_cell(b: &[u8]) -> Result<StatsCell> {
    const WHAT: &str = "stats cell";
    let corrupt = || DmxError::Corrupt(format!("short {WHAT}"));
    let rows = read_u64(b, 0, WHAT)?;
    let ncols = le_u16(b, 8).ok_or_else(corrupt)? as usize;
    let mut off = 10;
    let mut cols = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let tag = *b.get(off).ok_or_else(corrupt)?;
        off += 1;
        if tag == 0 {
            cols.push(ColCell::untracked());
            continue;
        }
        let nulls = read_u64(b, off, WHAT)?;
        off += 8;
        let sketch: [u8; SKETCH_BYTES] = b
            .get(off..off + SKETCH_BYTES)
            .and_then(|s| s.try_into().ok())
            .ok_or_else(corrupt)?;
        off += SKETCH_BYTES;
        let min = decode_value_opt(b, &mut off)?;
        let max = decode_value_opt(b, &mut off)?;
        let htag = *b.get(off).ok_or_else(corrupt)?;
        off += 1;
        let hist = if htag == 0 {
            None
        } else {
            let lo = f64::from_bits(read_u64(b, off, WHAT)?);
            let hi = f64::from_bits(read_u64(b, off + 8, WHAT)?);
            let nb = *b.get(off + 16).ok_or_else(corrupt)? as usize;
            off += 17;
            let mut buckets = Vec::with_capacity(nb);
            for _ in 0..nb {
                buckets.push(read_u64(b, off, WHAT)?);
                off += 8;
            }
            Some(Histogram { lo, hi, buckets })
        };
        cols.push(ColCell {
            tracked: true,
            nulls,
            sketch,
            min,
            max,
            hist,
        });
    }
    Ok(StatsCell { rows, cols })
}

impl Stats {
    /// The single cell's constant key.
    fn cell_key() -> Vec<u8> {
        encode_values(&[Value::Int(0)])
    }

    fn read_cell(tree: &BTree) -> Result<Option<StatsCell>> {
        tree.get(&Self::cell_key())?
            .map(|raw| decode_cell(&raw))
            .transpose()
    }

    /// Publishes the image's planner snapshot into the relation's shared
    /// statistics handle.
    fn publish(rd: &RelationDescriptor, image: Option<&StatsCell>) {
        rd.stats
            .publish_table_stats(image.map(|c| Arc::new(c.to_table_stats())));
    }

    /// Replaces the cell with what `change` makes of it, under the cell's
    /// lock, and publishes the result.
    fn update(
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        inst: &AttachmentInstance,
        change: impl FnOnce(Option<StatsCell>) -> StatsCell,
    ) -> Result<()> {
        let file = inst.parsed(cell_tree)?;
        let cells = LoggedTree::attachment(ctx, rd, inst, file.open_tree(ctx.services()));
        let mut after = None;
        cells.update_cell(&Self::cell_key(), |before| {
            let cell = change(before.map(decode_cell).transpose()?);
            let image = encode_cell(&cell);
            after = Some(cell);
            Ok(Some(image))
        })?;
        Self::publish(rd, after.as_ref());
        Ok(())
    }
}

impl Attachment for Stats {
    fn name(&self) -> &str {
        "stats"
    }

    fn create_instance(
        &self,
        ctx: &ExecCtx<'_>,
        _rd: &RelationDescriptor,
        _name: &str,
        params: &AttrList,
    ) -> Result<AttrList> {
        cell_tree(params)?;
        TreeFile::assign(&[TreeFile::create(ctx.services())?], params)
    }

    /// One logged image pair per modification, not one per side.
    fn on_modify(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        instances: &[AttachmentInstance],
        m: &Modification<'_>,
    ) -> Result<()> {
        for inst in instances {
            Self::update(ctx, rd, inst, |before| {
                let mut cell = before.unwrap_or_else(|| StatsCell::new(&rd.schema));
                if let Some((_, old)) = m.old() {
                    cell.apply(old, -1);
                }
                if let Some((_, new)) = m.new() {
                    cell.apply(new, 1);
                }
                cell
            })?;
        }
        Ok(())
    }

    /// Installs the logged image. An undo — a rollback, or restart's
    /// repeated compensation and undo of losers — re-publishes it, so an
    /// abort never leaves a stale planner snapshot behind; restart's redo
    /// does not, as the database re-publishes every instance from durable
    /// state once restart is done ([`Attachment::activate`]).
    fn replay(
        &self,
        services: &Arc<CommonServices>,
        rd: &RelationDescriptor,
        _lsn: Lsn,
        dir: Replay<'_>,
        op: u8,
        payload: &[u8],
    ) -> Result<()> {
        let (file, change) = TreeFile::named_by(payload)?;
        let image = logged_tree::replay(&file.open_tree(services), dir, op, change)?;
        if let Replay::Undo(_) = dir {
            Self::publish(rd, image.as_deref().map(decode_cell).transpose()?.as_ref());
        }
        Ok(())
    }

    /// Re-publishes the planner snapshot from durable state on database
    /// open (descriptor decode starts with an empty in-memory handle).
    fn activate(
        &self,
        services: &Arc<CommonServices>,
        rd: &RelationDescriptor,
        instance: &AttachmentInstance,
    ) -> Result<()> {
        let file = instance.parsed(cell_tree)?;
        Self::publish(rd, Self::read_cell(&file.open_tree(services))?.as_ref());
        Ok(())
    }

    /// Retracts the published snapshot when the instance is dropped; the
    /// planner falls back to guesses immediately.
    fn deactivate(&self, rd: &RelationDescriptor, _instance: &AttachmentInstance) {
        rd.stats.publish_table_stats(None);
    }

    /// The cell computed once from every record and written once: what
    /// `ANALYZE` writes. A relation with no records gets no cell, as under
    /// maintenance: its first insert writes one.
    fn build(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        inst: &AttachmentInstance,
        records: &[(RecordKey, Record)],
    ) -> Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        Self::update(ctx, rd, inst, |_| StatsCell::exact(&rd.schema, records))
    }

    /// `ANALYZE TABLE`: rebuilds the cell *exactly* from the offered full
    /// image, an empty one included.
    fn analyze(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        instances: &[AttachmentInstance],
        records: &[(RecordKey, Record)],
    ) -> Result<bool> {
        for inst in instances {
            Self::update(ctx, rd, inst, |_| StatsCell::exact(&rd.schema, records))?;
        }
        Ok(!instances.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        use dmx_types::ColumnDef;
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("name", DataType::Str),
            ColumnDef::new("score", DataType::Float),
        ])
        .unwrap()
    }

    fn rec(id: i64, name: &str, score: Option<f64>) -> Record {
        Record::new(vec![
            Value::Int(id),
            Value::Str(name.into()),
            score.map(Value::Float).unwrap_or(Value::Null),
        ])
    }

    #[test]
    fn cell_tracks_numeric_fields_only() {
        let mut cell = StatsCell::new(&schema());
        assert!(cell.cols[0].tracked && !cell.cols[1].tracked && cell.cols[2].tracked);
        for i in 0..10 {
            cell.apply(
                &rec(i % 3, "x", if i % 2 == 0 { Some(i as f64) } else { None }),
                1,
            );
        }
        assert_eq!(cell.rows, 10);
        assert_eq!(cell.cols[2].nulls, 5);
        let ts = cell.to_table_stats();
        assert_eq!(ts.rows, 10);
        assert!(ts.columns[1].is_none());
        let id = ts.columns[0].as_ref().unwrap();
        assert_eq!(id.min, Some(Value::Int(0)));
        assert_eq!(id.max, Some(Value::Int(2)));
        assert_eq!(id.distinct, 3, "linear counting is exact this small");
    }

    #[test]
    fn deletes_keep_counts_exact_and_bounds_widen_only() {
        let mut cell = StatsCell::new(&schema());
        cell.apply(&rec(1, "a", Some(1.0)), 1);
        cell.apply(&rec(100, "b", None), 1);
        cell.apply(&rec(100, "b", None), -1);
        assert_eq!(cell.rows, 1);
        assert_eq!(cell.cols[2].nulls, 0);
        // min/max and the sketch do not shrink under deletes
        assert_eq!(cell.cols[0].max, Some(Value::Int(100)));
        assert!(cell.to_table_stats().columns[0].as_ref().unwrap().distinct >= 1);
    }

    #[test]
    fn cell_roundtrips_through_encoding() {
        let mut cell = StatsCell::new(&schema());
        for i in 0..50 {
            cell.apply(&rec(i, "n", Some(i as f64 * 0.5)), 1);
        }
        cell.cols[0].hist = Some({
            let mut h = Histogram::new(0.0, 49.0);
            for i in 0..50 {
                h.add(i as f64, 1);
            }
            h
        });
        let decoded = decode_cell(&encode_cell(&cell)).unwrap();
        assert_eq!(decoded, cell);
        assert!(decode_cell(&[1, 2, 3]).is_err());
    }

    #[test]
    fn distinct_estimate_saturates_to_rows() {
        let mut sketch = [0u8; SKETCH_BYTES];
        for i in 0..5 {
            sketch_insert(&mut sketch, &Value::Int(i));
        }
        let est = distinct_estimate(&sketch, 1000);
        assert!((4..=6).contains(&est), "{est}");
        let full = [0xFFu8; SKETCH_BYTES];
        assert_eq!(distinct_estimate(&full, 1000), 1000);
        assert_eq!(distinct_estimate(&sketch, 0), 0);
    }

    #[test]
    fn same_stream_yields_identical_cells() {
        let build = || {
            let mut cell = StatsCell::new(&schema());
            for i in 0..200 {
                cell.apply(&rec(i % 17, "s", Some((i % 7) as f64)), 1);
                if i % 3 == 0 {
                    cell.apply(&rec(i % 17, "s", Some((i % 7) as f64)), -1);
                }
            }
            encode_cell(&cell)
        };
        assert_eq!(build(), build(), "deterministic maintenance");
    }
}
