//! The extensible relation descriptor.
//!
//! "The relation descriptor is composed of a relation storage method
//! descriptor and descriptors for any attachments defined on the relation
//! instance. The structure of the relation descriptor is a record whose
//! header contains the storage method identifier and whose first field
//! contains the storage method descriptor. Each attachment has an
//! assigned identifier, and the descriptor for the attachment with
//! identifier N is found in field N of the relation descriptor. If there
//! are no instances of attachment type N defined on a particular
//! relation, then field N of that relation's descriptor will be NULL."
//!
//! Each extension supplies and interprets the *contents* of its own
//! descriptor bytes; the common system manages the composite record,
//! fetches it at query compilation time and embeds it in the plan so no
//! catalog access happens at run time (`Arc<RelationDescriptor>` is that
//! embedded copy). Descriptors are immutable; DDL produces a new version.
//! Each field is a [`Descriptor`], which also keeps what its extension
//! parsed the bytes into, so run time does not re-interpret them either;
//! an attachment instance's bytes are the attribute list that made it.

use std::any::Any;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use dmx_types::bytes::{put_varint, varint};
use dmx_types::{
    AttInstanceId, AttTypeId, AttrList, DmxError, RelationId, Result, Schema, SmTypeId,
};

use crate::registry::MAX_ATTACHMENT_TYPES;
use crate::stats::RelationStats;

/// One extension's descriptor: the bytes the catalog stores, and the
/// value its extension reads them into, kept once read. A catalog change
/// rebuilds the relation's descriptor from its records, so each catalog
/// version is read at most once, and a write finds the value instead of
/// decoding bytes.
#[derive(Clone)]
pub struct Descriptor {
    bytes: Vec<u8>,
    parsed: OnceLock<Arc<dyn Any + Send + Sync>>,
}

impl Descriptor {
    /// What `parse` makes of the bytes: run on the first call, the same
    /// value on every later one. Every reader of one descriptor names
    /// one type; asking for another is an [`DmxError::Internal`] error.
    pub fn parsed<T: Any + Send + Sync>(
        &self,
        parse: impl FnOnce(&[u8]) -> Result<T>,
    ) -> Result<Arc<T>> {
        let cached = match self.parsed.get() {
            Some(cached) => cached,
            None => {
                // Two first readers may both parse; they parse the same
                // bytes, and the first value stored is kept.
                let value: Arc<dyn Any + Send + Sync> = Arc::new(parse(&self.bytes)?);
                self.parsed.get_or_init(|| value)
            }
        };
        cached
            .clone()
            .downcast()
            .map_err(|_| DmxError::Internal("descriptor read as two types".into()))
    }
}

impl From<Vec<u8>> for Descriptor {
    fn from(bytes: Vec<u8>) -> Self {
        Descriptor {
            bytes,
            parsed: OnceLock::new(),
        }
    }
}

impl Deref for Descriptor {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

/// Two descriptors are equal when their bytes are.
impl PartialEq for Descriptor {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl fmt::Debug for Descriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.bytes.fmt(f)
    }
}

/// One attachment instance on a relation: its type (the descriptor
/// field it lives in), instance number, user name, and its descriptor:
/// the attribute list its type's `create_instance` returned, encoded.
#[derive(Debug, Clone, PartialEq)]
pub struct AttachmentInstance {
    pub att: AttTypeId,
    pub instance: AttInstanceId,
    pub name: String,
    pub desc: Descriptor,
}

impl AttachmentInstance {
    /// The stored attribute list.
    pub fn attrs(&self) -> Result<AttrList> {
        AttrList::decode(&self.desc)
    }

    /// The instance as its type reads it: `from_attrs` of the stored
    /// attribute list, run once per catalog version
    /// ([`Descriptor::parsed`]).
    pub fn parsed<T: Any + Send + Sync>(
        &self,
        from_attrs: impl FnOnce(&AttrList) -> Result<T>,
    ) -> Result<Arc<T>> {
        self.desc
            .parsed(|bytes| from_attrs(&AttrList::decode(bytes)?))
    }

    /// The instance a catalog record holds, and the relation it is on
    /// (see [`RelationDescriptor::records`]); `None` for a record of
    /// another kind, a relation's header or the id high-water mark.
    pub(crate) fn from_record(
        key: &[u8],
        value: &[u8],
    ) -> Result<Option<(RelationId, AttachmentInstance)>> {
        let &[k0, k1, k2, k3, att, i0, i1] = key else {
            return Ok(None);
        };
        let mut pos = 0usize;
        let len = varint(value, &mut pos).ok_or_else(corrupt)? as usize;
        let name = value.get(pos..pos + len).ok_or_else(corrupt)?;
        let inst = AttachmentInstance {
            att: AttTypeId(att),
            instance: AttInstanceId(u16::from_be_bytes([i0, i1])),
            name: String::from_utf8(name.to_vec()).map_err(|_| corrupt())?,
            desc: value.get(pos + len..).ok_or_else(corrupt)?.to_vec().into(),
        };
        Ok(Some((
            RelationId(u32::from_be_bytes([k0, k1, k2, k3])),
            inst,
        )))
    }
}

/// The composite relation descriptor.
#[derive(Debug, Clone)]
pub struct RelationDescriptor {
    pub id: RelationId,
    pub name: String,
    pub schema: Schema,
    /// Storage method identifier (the descriptor record's "header").
    pub sm: SmTypeId,
    /// Field 0: the storage-method descriptor.
    pub sm_desc: Descriptor,
    /// Field N: instances of attachment type N; `None` = NULL field.
    attachments: Vec<Option<Vec<AttachmentInstance>>>,
    /// Shared statistics (live counters; cached plans stay fresh).
    pub stats: Arc<RelationStats>,
    /// Bumped by every DDL change; plan invalidation key.
    pub version: u64,
    /// Next instance number per attachment type.
    next_instance: Vec<u16>,
}

impl RelationDescriptor {
    /// A new descriptor with no attachments.
    pub fn new(
        id: RelationId,
        name: impl Into<String>,
        schema: Schema,
        sm: SmTypeId,
        sm_desc: Vec<u8>,
    ) -> Self {
        RelationDescriptor {
            id,
            name: name.into(),
            schema,
            sm,
            sm_desc: sm_desc.into(),
            attachments: vec![None; MAX_ATTACHMENT_TYPES],
            stats: Arc::new(RelationStats::default()),
            version: 1,
            next_instance: vec![1; MAX_ATTACHMENT_TYPES],
        }
    }

    /// Instances of attachment type `att`, if any (field N lookup).
    pub fn attachment_instances(&self, att: AttTypeId) -> Option<&[AttachmentInstance]> {
        self.attachments
            .get(att.0 as usize)
            .and_then(|o| o.as_deref())
    }

    /// Attachment types that have at least one instance, in id order —
    /// the dispatcher's iteration set ("each attachment type is invoked
    /// at most once per relation modification and must service all
    /// instances of its type").
    pub fn attached_types(&self) -> impl Iterator<Item = (AttTypeId, &[AttachmentInstance])> {
        self.attachments
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.as_deref().map(|v| (AttTypeId(i as u8), v)))
    }

    /// Total number of attachment instances across all types.
    pub fn attachment_count(&self) -> usize {
        self.attachments.iter().flatten().map(|v| v.len()).sum()
    }

    /// Finds an attachment instance by user name.
    pub fn find_attachment(&self, name: &str) -> Option<(AttTypeId, &AttachmentInstance)> {
        self.attached_types().find_map(|(t, insts)| {
            insts
                .iter()
                .find(|i| i.name.eq_ignore_ascii_case(name))
                .map(|i| (t, i))
        })
    }

    /// Adds an attachment instance (new descriptor version). Returns the
    /// assigned instance id.
    pub fn with_attachment(
        &self,
        att: AttTypeId,
        name: impl Into<String>,
        desc: Vec<u8>,
    ) -> Result<(RelationDescriptor, AttInstanceId)> {
        let idx = att.0 as usize;
        if idx == 0 || idx >= MAX_ATTACHMENT_TYPES {
            return Err(DmxError::InvalidArg(format!(
                "attachment type {att} out of range"
            )));
        }
        let name = name.into();
        if self.find_attachment(&name).is_some() {
            return Err(DmxError::Duplicate(format!("attachment {name}")));
        }
        let mut new = self.clone();
        let inst = AttInstanceId(new.next_instance[idx]);
        new.next_instance[idx] += 1;
        new.attachments[idx]
            .get_or_insert_with(Vec::new)
            .push(AttachmentInstance {
                att,
                instance: inst,
                name,
                desc: desc.into(),
            });
        new.version += 1;
        Ok((new, inst))
    }

    /// Removes an attachment instance by name, returning the new
    /// descriptor and the removed instance.
    pub fn without_attachment(
        &self,
        name: &str,
    ) -> Result<(RelationDescriptor, AttTypeId, AttachmentInstance)> {
        let (att, _) = self
            .find_attachment(name)
            .ok_or_else(|| DmxError::NotFound(format!("attachment {name}")))?;
        let mut new = self.clone();
        let slot = &mut new.attachments[att.0 as usize];
        // find_attachment located `name` under this type id, so the slot
        // and entry exist; surface a typed error if they somehow don't.
        let not_found = || DmxError::NotFound(format!("attachment {name}"));
        let list = slot.as_mut().ok_or_else(not_found)?;
        let pos = list
            .iter()
            .position(|i| i.name.eq_ignore_ascii_case(name))
            .ok_or_else(not_found)?;
        let removed = list.remove(pos);
        if list.is_empty() {
            *slot = None; // field N returns to NULL
        }
        new.version += 1;
        Ok((new, att, removed))
    }

    /// The descriptor as the catalog stores it, keys ascending: the
    /// header record under the big-endian relation id — name, schema,
    /// storage method and its descriptor, version, counts, next instance
    /// numbers — then one record per attachment instance under `id ∥ type
    /// ∥ instance` (big-endian), holding its name (varint length first)
    /// and descriptor. One
    /// record per field keeps each bounded however many instances a
    /// relation carries.
    pub(crate) fn records(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut header = Vec::new();
        put_str(&mut header, &self.name);
        put_bytes(&mut header, &self.schema.encode());
        header.push(self.sm.0);
        put_bytes(&mut header, &self.sm_desc);
        header.extend_from_slice(&self.version.to_le_bytes());
        let (records, pages, bytes) = self.stats.snapshot();
        for v in [records, pages, bytes] {
            header.extend_from_slice(&v.to_le_bytes());
        }
        for next in &self.next_instance {
            header.extend_from_slice(&next.to_le_bytes());
        }
        let id = self.id.0.to_be_bytes();
        let mut out = vec![(id.to_vec(), header)];
        for inst in self.attached_types().flat_map(|(_, insts)| insts) {
            let mut key = id.to_vec();
            key.push(inst.att.0);
            key.extend_from_slice(&inst.instance.0.to_be_bytes());
            let mut value = Vec::new();
            put_varint(&mut value, inst.name.len() as u64);
            value.extend_from_slice(inst.name.as_bytes());
            value.extend_from_slice(&inst.desc);
            out.push((key, value));
        }
        out
    }

    /// The descriptor whose catalog records are `records`, in key order
    /// (the inverse of [`RelationDescriptor::records`]).
    pub(crate) fn from_records(records: &[(Vec<u8>, Vec<u8>)]) -> Result<RelationDescriptor> {
        let ((key, buf), records) = records.split_first().ok_or_else(corrupt)?;
        let id: [u8; 4] = key.as_slice().try_into().map_err(|_| corrupt())?;
        let mut pos = 0usize;
        let name = get_str(buf, &mut pos)?;
        let schema = Schema::decode(&get_bytes(buf, &mut pos)?)?;
        let sm = SmTypeId(get_u8(buf, &mut pos)?);
        let sm_desc = get_bytes(buf, &mut pos)?.into();
        let version = get_u64(buf, &mut pos)?;
        let stats = Arc::new(RelationStats::default());
        // records, pages, bytes
        stats.reset(
            get_u64(buf, &mut pos)?,
            get_u64(buf, &mut pos)?,
            get_u64(buf, &mut pos)?,
        );
        let next_instance = (0..MAX_ATTACHMENT_TYPES)
            .map(|_| get_u16(buf, &mut pos))
            .collect::<Result<Vec<u16>>>()?;
        let mut attachments: Vec<Option<Vec<AttachmentInstance>>> =
            vec![None; MAX_ATTACHMENT_TYPES];
        for (key, value) in records {
            let (rel, inst) = AttachmentInstance::from_record(key, value)?.ok_or_else(corrupt)?;
            if rel.0.to_be_bytes() != id {
                return Err(corrupt());
            }
            let slot = attachments.get_mut(inst.att.0 as usize).ok_or_else(|| {
                DmxError::Corrupt(format!("attachment type {} out of range", inst.att))
            })?;
            slot.get_or_insert_with(Vec::new).push(inst);
        }
        Ok(RelationDescriptor {
            id: RelationId(u32::from_be_bytes(id)),
            name,
            schema,
            sm,
            sm_desc,
            attachments,
            stats,
            version,
            next_instance,
        })
    }

    /// The catalog records in one buffer: their count, then each key and
    /// value length-prefixed.
    pub fn encode(&self) -> Vec<u8> {
        let records = self.records();
        let mut out = (records.len() as u32).to_le_bytes().to_vec();
        for (key, value) in &records {
            put_bytes(&mut out, key);
            put_bytes(&mut out, value);
        }
        out
    }

    /// Deserializes an [`RelationDescriptor::encode`] buffer.
    pub fn decode(buf: &[u8]) -> Result<RelationDescriptor> {
        let mut pos = 0usize;
        let n = get_u32(buf, &mut pos)?;
        let records = (0..n)
            .map(|_| Ok((get_bytes(buf, &mut pos)?, get_bytes(buf, &mut pos)?)))
            .collect::<Result<Vec<_>>>()?;
        if pos != buf.len() {
            return Err(corrupt());
        }
        Self::from_records(&records)
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

fn corrupt() -> DmxError {
    DmxError::Corrupt("truncated relation descriptor".into())
}

fn get_u8(buf: &[u8], pos: &mut usize) -> Result<u8> {
    let v = *buf.get(*pos).ok_or_else(corrupt)?;
    *pos += 1;
    Ok(v)
}

fn get_u16(buf: &[u8], pos: &mut usize) -> Result<u16> {
    let v = dmx_types::bytes::le_u16(buf, *pos).ok_or_else(corrupt)?;
    *pos += 2;
    Ok(v)
}

fn get_u32(buf: &[u8], pos: &mut usize) -> Result<u32> {
    let v = dmx_types::bytes::le_u32(buf, *pos).ok_or_else(corrupt)?;
    *pos += 4;
    Ok(v)
}

fn get_u64(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let v = dmx_types::bytes::le_u64(buf, *pos).ok_or_else(corrupt)?;
    *pos += 8;
    Ok(v)
}

fn get_bytes(buf: &[u8], pos: &mut usize) -> Result<Vec<u8>> {
    let len = get_u32(buf, pos)? as usize;
    let s = buf.get(*pos..*pos + len).ok_or_else(corrupt)?;
    *pos += len;
    Ok(s.to_vec())
}

fn get_str(buf: &[u8], pos: &mut usize) -> Result<String> {
    String::from_utf8(get_bytes(buf, pos)?)
        .map_err(|_| DmxError::Corrupt("descriptor string not utf8".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmx_types::{ColumnDef, DataType};

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::not_null("id", DataType::Int),
            ColumnDef::new("name", DataType::Str),
        ])
        .unwrap()
    }

    fn rd() -> RelationDescriptor {
        RelationDescriptor::new(RelationId(7), "emp", schema(), SmTypeId(2), vec![1, 2, 3])
    }

    #[test]
    fn attachment_field_semantics() {
        let d = rd();
        assert_eq!(d.attachment_instances(AttTypeId(3)), None, "field NULL");
        let (d, i1) = d.with_attachment(AttTypeId(3), "idx_a", vec![9]).unwrap();
        let (d, i2) = d.with_attachment(AttTypeId(3), "idx_b", vec![8]).unwrap();
        let (d, _i3) = d.with_attachment(AttTypeId(5), "chk", vec![7]).unwrap();
        assert_ne!(i1, i2);
        assert_eq!(d.attachment_instances(AttTypeId(3)).unwrap().len(), 2);
        assert_eq!(d.attachment_count(), 3);
        // attached_types iterates in id order, skipping NULL fields
        let types: Vec<AttTypeId> = d.attached_types().map(|(t, _)| t).collect();
        assert_eq!(types, vec![AttTypeId(3), AttTypeId(5)]);
        // version bumped thrice
        assert_eq!(d.version, 4);
    }

    #[test]
    fn duplicate_and_missing_names() {
        let d = rd();
        let (d, _) = d.with_attachment(AttTypeId(3), "idx", vec![]).unwrap();
        assert!(
            d.with_attachment(AttTypeId(4), "IDX", vec![]).is_err(),
            "names global per relation"
        );
        assert!(d.without_attachment("nope").is_err());
        assert!(d.find_attachment("idx").is_some());
    }

    #[test]
    fn remove_returns_field_to_null_but_instance_ids_advance() {
        let d = rd();
        let (d, first) = d.with_attachment(AttTypeId(3), "idx", vec![]).unwrap();
        let (d, att, inst) = d.without_attachment("idx").unwrap();
        assert_eq!(att, AttTypeId(3));
        assert_eq!(inst.instance, first);
        assert_eq!(d.attachment_instances(AttTypeId(3)), None);
        // a re-created attachment gets a fresh instance number
        let (_, second) = d.with_attachment(AttTypeId(3), "idx", vec![]).unwrap();
        assert!(second > first);
    }

    #[test]
    fn type_id_bounds_enforced() {
        let d = rd();
        assert!(
            d.with_attachment(AttTypeId(0), "x", vec![]).is_err(),
            "field 0 is the SM"
        );
        assert!(d
            .with_attachment(AttTypeId(MAX_ATTACHMENT_TYPES as u8), "x", vec![])
            .is_err());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let d = rd();
        let (d, _) = d
            .with_attachment(AttTypeId(3), "idx_a", vec![9, 9])
            .unwrap();
        let (d, _) = d.with_attachment(AttTypeId(5), "chk", vec![]).unwrap();
        d.stats.apply(1, 120);
        d.stats.on_page_allocated();
        let back = RelationDescriptor::decode(&d.encode()).unwrap();
        assert_eq!(back.id, d.id);
        assert_eq!(back.name, d.name);
        assert_eq!(back.schema, d.schema);
        assert_eq!(back.sm, d.sm);
        assert_eq!(back.sm_desc, d.sm_desc);
        assert_eq!(back.version, d.version);
        assert_eq!(back.attachment_count(), 2);
        assert_eq!(
            *back.attachment_instances(AttTypeId(3)).unwrap()[0].desc,
            [9, 9]
        );
        assert_eq!(back.stats.records(), 1);
        assert_eq!(back.stats.snapshot(), d.stats.snapshot());
        assert_eq!(back.records(), d.records());
        // truncation never panics
        let bytes = d.encode();
        for cut in 0..bytes.len() {
            assert!(RelationDescriptor::decode(&bytes[..cut]).is_err());
        }
    }

    /// `parsed` runs its parser on the first call alone, a clone shares
    /// what it parsed, and a second reader type is refused, not silently
    /// re-parsed.
    #[test]
    fn a_descriptor_is_parsed_once() {
        let d = Descriptor::from(vec![1, 2, 3]);
        let mut calls = 0;
        for _ in 0..3 {
            let sum = d
                .parsed(|b| {
                    calls += 1;
                    Ok(b.iter().map(|&x| u32::from(x)).sum::<u32>())
                })
                .unwrap();
            assert_eq!(*sum, 6);
        }
        assert_eq!(calls, 1);
        let copy = d.clone();
        assert_eq!(*copy.parsed(|_| Ok(0u32)).unwrap(), 6, "shared by a clone");
        assert!(matches!(
            d.parsed(|_| Ok("other type")),
            Err(DmxError::Internal(_))
        ));
        // a failed parse caches nothing
        let fresh = Descriptor::from(vec![]);
        assert!(fresh.parsed(|_| -> Result<u32> { Err(corrupt()) }).is_err());
        assert_eq!(*fresh.parsed(|_| Ok(7u32)).unwrap(), 7);
        assert_eq!(&*d, &[1, 2, 3], "derefs to the stored bytes");
    }

    /// A relation's records share its big-endian id as their prefix and
    /// ascend as the tree stores them: the header, then the instances by
    /// type and number. Each instance is a record of its own, so no
    /// record grows with the number of instances.
    #[test]
    fn records_are_keyed_by_id_and_bounded_per_instance() {
        let mut d = rd();
        for i in 0..40 {
            d = d
                .with_attachment(AttTypeId(5), format!("c{i}"), vec![7; 200])
                .unwrap()
                .0;
        }
        let (d, _) = d.with_attachment(AttTypeId(3), "idx", vec![1]).unwrap();
        let records = d.records();
        assert_eq!(records.len(), 42);
        assert_eq!(records[0].0, 7u32.to_be_bytes());
        assert!(records.windows(2).all(|w| w[0].0 < w[1].0), "keys ascend");
        assert!(records
            .iter()
            .all(|(k, v)| k.starts_with(&[0, 0, 0, 7]) && k.len() + v.len() < 400));
        let back = RelationDescriptor::from_records(&records).unwrap();
        assert_eq!(back.records(), records);
        assert_eq!(*back.find_attachment("c39").unwrap().1.desc, [7; 200]);
        // an instance record of another relation is damage, not data
        let mut foreign = records.clone();
        foreign[1].0[3] = 8;
        let res = RelationDescriptor::from_records(&foreign);
        assert!(matches!(res, Err(DmxError::Corrupt(_))));
    }
}
