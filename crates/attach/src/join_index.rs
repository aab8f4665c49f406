//! The join index (Valduriez '85).
//!
//! "Access paths need not be limited to a single table (e.g., join
//! indexes)." A join index materializes the pairs of record keys whose
//! records join: `R ⋈ S` becomes a scan of precomputed `(r_key, s_key)`
//! pairs. One link = **two instances** of this type, one per relation
//! (the dispatcher invokes attachments of the modified relation only, so
//! both sides must carry an instance to keep the pairs current). The
//! instances share three B-trees, created by the first (`side=left`) and
//! adopted by the second (`side=right, other=<left relation>`):
//!
//! * `pairs`:  `enc(v) ∥ lkey ∥ rkey → [len(lkey)] lkey rkey`
//! * `left`:   `enc(v) ∥ lkey → lkey` (left records by join value)
//! * `right`:  `enc(v) ∥ rkey → rkey`
//!
//! Maintenance on either side is: update the side tree, then pair with
//! every matching key from the opposite side tree.

use std::sync::Arc;

use dmx_core::{
    tolerate_missing, AccessQuery, Attachment, AttachmentInstance, CommonServices, EntryDecoder,
    Evaluator, ExecCtx, KeyRange, LoggedTree, Modification, RelationDescriptor, ScanItem, ScanOps,
    TreeCursor, TreeFile, TreeScan, ASSIGNED_KEYS,
};
use dmx_expr::Expr;
use dmx_types::{
    bytes::le_u16, key::encode_values, AttrList, DmxError, FieldId, Record, RecordKey, Result,
    Value,
};

use crate::common::{field_values, parse_fields};

/// The join-index attachment type.
pub struct JoinIndex;

const TREE_PAIRS: u8 = 0;
const TREE_LEFT: u8 = 1;
const TREE_RIGHT: u8 = 2;

const WHO: &str = "join index";

/// One side of a join index as its attribute list describes it (the
/// sides name the same trees and differ in `side` and `fields`).
#[derive(Debug, Clone, PartialEq)]
pub struct JiDesc {
    pub is_left: bool,
    pub fields: Vec<FieldId>,
    /// The pairs / left / right trees.
    pub trees: [TreeFile; 3],
}

impl JiDesc {
    /// The one parser: `side`, `fields` and the right side's `other` as
    /// the DDL gave them, and the three trees once assigned.
    fn from_attrs(rd: &RelationDescriptor, attrs: &AttrList) -> Result<JiDesc> {
        attrs
            .without(&ASSIGNED_KEYS)
            .check_allowed(&["side", "fields", "other"], WHO)?;
        Ok(JiDesc {
            is_left: is_left(attrs)?,
            fields: parse_fields(attrs, "fields", WHO, &rd.schema)?,
            trees: TreeFile::assigned(attrs)?,
        })
    }
}

/// Whether a list describes the left side, which creates the trees.
fn is_left(attrs: &AttrList) -> Result<bool> {
    match attrs.require("side", WHO)?.to_ascii_lowercase().as_str() {
        "left" => Ok(true),
        "right" => Ok(false),
        _ => Err(DmxError::InvalidArg(
            "join index side must be left|right".into(),
        )),
    }
}

fn encode_pair_value(lkey: &[u8], rkey: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(2 + lkey.len() + rkey.len());
    v.extend_from_slice(&(lkey.len() as u16).to_le_bytes());
    v.extend_from_slice(lkey);
    v.extend_from_slice(rkey);
    v
}

fn decode_pair_value(v: &[u8]) -> Result<(&[u8], &[u8])> {
    let corrupt = || DmxError::Corrupt("short pair value".into());
    let n = le_u16(v, 0).ok_or_else(corrupt)? as usize;
    let lkey = v.get(2..2 + n).ok_or_else(corrupt)?;
    Ok((lkey, v.get(2 + n..).ok_or_else(corrupt)?))
}

/// One side's instance during a modification: the three shared trees as
/// logged handles (each record names the tree it changed).
struct Link<'a> {
    trees: [LoggedTree<'a>; 3],
}

impl<'a> Link<'a> {
    fn open(
        ctx: &ExecCtx<'a>,
        rd: &RelationDescriptor,
        inst: &AttachmentInstance,
        d: &JiDesc,
    ) -> Self {
        Link {
            trees: d
                .trees
                .map(|t| LoggedTree::attachment(ctx, rd, inst, t.open_tree(ctx.services()))),
        }
    }

    fn insert(&self, which: u8, key: &[u8], value: &[u8]) -> Result<()> {
        self.trees[which as usize].apply(key, None, Some(value))
    }

    fn delete(&self, which: u8, key: &[u8]) -> Result<()> {
        let tree = &self.trees[which as usize];
        let old = tree.tree().get(key)?;
        tree.apply(key, old.as_deref(), None)
    }

    /// Entries of tree `which` whose key starts with `p`.
    fn prefix_entries(
        &self,
        ctx: &ExecCtx<'_>,
        which: u8,
        p: &[u8],
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let tree = self.trees[which as usize].tree();
        let mut cur = TreeCursor::new(tree, KeyRange::prefix(p.to_vec()), None);
        let mut out = Vec::new();
        let mut copy = |k: &[u8], v: &[u8]| {
            out.push((k.to_vec(), v.to_vec()));
            Ok(true)
        };
        while cur.step(ctx, false, &mut copy)? {}
        Ok(out)
    }
}

impl JoinIndex {
    /// One side's descriptor, parsed once per catalog version: what the
    /// planner reads to find a join index for a join.
    pub fn desc(rd: &RelationDescriptor, inst: &AttachmentInstance) -> Result<Arc<JiDesc>> {
        inst.parsed(|attrs| JiDesc::from_attrs(rd, attrs))
    }

    /// A record's entry on its side: the encoded join value and the
    /// record key registered under it; `None` when a join field is NULL.
    fn entry<'a>(
        d: &JiDesc,
        (rkey, record): (&'a RecordKey, &Record),
    ) -> Result<Option<(Vec<u8>, &'a [u8])>> {
        let values = field_values(record, &d.fields)?;
        // NULL join values never match
        let joins = !values.iter().any(|v| v.is_null());
        Ok(joins.then(|| (encode_values(&values), rkey.as_bytes())))
    }
}

impl Attachment for JoinIndex {
    fn name(&self) -> &str {
        "joinindex"
    }

    /// The left side creates the three trees; the right side adopts the
    /// left instance's (found by attachment name on the other relation).
    fn create_instance(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        name: &str,
        params: &AttrList,
    ) -> Result<AttrList> {
        let d = JiDesc::from_attrs(rd, params)?;
        let trees = if d.is_left {
            let mut trees = [TreeFile::UNASSIGNED; 3];
            for t in &mut trees {
                *t = TreeFile::create(ctx.services())?;
            }
            trees
        } else {
            let other = params.require("other", WHO)?;
            let other_rd = ctx.db.catalog().get_by_name(other)?;
            let left = other_rd.find_attachment(name).filter(|(att, _)| {
                ctx.db
                    .registry()
                    .attachment(*att)
                    .is_ok_and(|att| att.name() == self.name())
            });
            let (_, left) = left.ok_or_else(|| {
                DmxError::NotFound(format!(
                    "join index '{name}' not found on relation {other} (create the left side first, with the same name)"
                ))
            })?;
            Self::desc(&other_rd, left)?.trees
        };
        TreeFile::assign(&trees, params)
    }

    /// Only the left side, which created the shared trees, destroys them.
    fn destroy_instance(&self, services: &Arc<CommonServices>, inst_desc: &[u8]) -> Result<()> {
        let attrs = AttrList::decode(inst_desc)?;
        if !is_left(&attrs)? {
            return Ok(());
        }
        TreeFile::named_in(&attrs)?
            .into_iter()
            .try_for_each(|t| tolerate_missing(t.destroy(services)))
    }

    fn on_modify(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        instances: &[AttachmentInstance],
        m: &Modification<'_>,
    ) -> Result<()> {
        for inst in instances {
            let d = Self::desc(rd, inst)?;
            let old = m.old().map(|side| Self::entry(&d, side)).transpose()?;
            let new = m.new().map(|side| Self::entry(&d, side)).transpose()?;
            if old == new {
                continue;
            }
            let (my_tree, other_tree) = if d.is_left {
                (TREE_LEFT, TREE_RIGHT)
            } else {
                (TREE_RIGHT, TREE_LEFT)
            };
            let link = Link::open(ctx, rd, inst, &d);
            if let Some((v, key)) = old.flatten() {
                // the record leaves its join value, and every pair it is in
                link.delete(my_tree, &[&v, key].concat())?;
                for (pair_key, pair_val) in link.prefix_entries(ctx, TREE_PAIRS, &v)? {
                    let (lkey, rkey) = decode_pair_value(&pair_val)?;
                    let mine = if d.is_left { lkey } else { rkey };
                    if mine == key {
                        link.delete(TREE_PAIRS, &pair_key)?;
                    }
                }
            }
            if let Some((v, key)) = new.flatten() {
                // 1. register the key under its join value
                link.insert(my_tree, &[&v, key].concat(), key)?;
                // 2. pair it with every matching key on the other side
                for (_, other_key) in link.prefix_entries(ctx, other_tree, &v)? {
                    let (lkey, rkey) = if d.is_left {
                        (key, other_key.as_slice())
                    } else {
                        (other_key.as_slice(), key)
                    };
                    let pair_key = [&v, lkey, rkey].concat();
                    link.insert(TREE_PAIRS, &pair_key, &encode_pair_value(lkey, rkey))?;
                }
            }
        }
        Ok(())
    }

    /// Scans the materialized pairs: each item carries the **left**
    /// record key as `key` and `[Bytes(right record key)]` as values —
    /// the query layer's join-index join strategy consumes this shape,
    /// through either side's instance.
    fn open_scan(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        instance: &AttachmentInstance,
        query: &AccessQuery,
    ) -> Result<Box<dyn ScanOps>> {
        let d = Self::desc(rd, instance)?;
        let tree = d.trees[TREE_PAIRS as usize].open_tree(ctx.services());
        let pairs = PairEntries { is_left: d.is_left };
        TreeScan::open(&tree, None, pairs, query.clone(), None)
    }
}

/// Decodes `pairs` entries: the left record key as the item key, the
/// right one as its value.
struct PairEntries {
    /// Opened through the left side's instance: only then are the item
    /// keys the scanned relation's own record keys.
    is_left: bool,
}

impl EntryDecoder for PairEntries {
    /// Every pair, or nothing: pairs are not looked up by key.
    fn bind(&mut self, query: AccessQuery, _pred: Option<Expr>) -> Result<KeyRange> {
        match query {
            AccessQuery::All => Ok(KeyRange::all()),
            _ => Err(DmxError::Unsupported(
                "join index serves full pair scans".into(),
            )),
        }
    }

    fn item(&self, _eval: &Evaluator<'_>, _key: &[u8], value: &[u8]) -> Result<Option<ScanItem>> {
        let (lkey, rkey) = decode_pair_value(value)?;
        Ok(Some(ScanItem {
            key: RecordKey::new(lkey.to_vec()),
            values: Some(vec![Value::Bytes(rkey.to_vec())]),
        }))
    }

    /// On the right side the items are the *left* relation's keys: the
    /// dispatcher must not re-read them as records of the scanned one,
    /// and the join fetches both records itself.
    fn items_are_record_keys(&self) -> bool {
        self.is_left
    }
}
