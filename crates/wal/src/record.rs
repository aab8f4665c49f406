//! Log record format.
//!
//! Each record carries its transaction, a backward `prev_lsn` chain used
//! by rollback, and a body. Extension operations ([`LogBody::ExtOp`])
//! carry an opaque payload that only the originating extension can
//! interpret — mirroring the paper, where the common recovery facility
//! *drives* storage-method and attachment implementations but does not
//! understand their representations.
//!
//! A frame stores only what its position and its length do not imply:
//!
//! ```text
//! varint prev∆ ∥ varint txn ∥ tag ∥ body ∥ u32 crc
//!   ExtOp:  ext id ∥ varint relation ∥ op ∥ payload (the rest)
//!   ExtOps: (varint ext ∥ [varint relation] ∥ op ∥ varint len ∥ payload)*,
//!           two or more; ext = id · 4, + 2 when a relation follows,
//!           + 1 for an attachment. The first operation names its
//!           relation, and a later one exactly when it differs from the
//!           relation of the operation before
//!   Clr:    varint undo_next∆       Intent: payload (the rest)
//!   Done:   varint intent∆          others: nothing
//! ```
//!
//! An [`LogBody::ExtOps`] frame holds the operations of one relation
//! modification — the storage method's change and its attachments' side
//! effects — in the order they were made: undo takes them back last to
//! first under one compensation record, redo repeats them first to last.
//!
//! The LSN is not stored: frame *i* of the stable log holds LSN *i* + 1,
//! and the CRC32 is taken over the LSN's 8 little-endian bytes followed
//! by the frame, so a frame read at any other position fails its check.
//! A back-pointer `x` is stored as the delta `lsn − x`, 0 meaning
//! [`Lsn::NULL`]; one that reaches past LSN 1 is corrupt. No length is
//! stored: the device delimits frames, so a payload is the rest of its
//! frame.

use dmx_types::bytes::{put_varint, varint, varint_len};
use dmx_types::crc::crc32_update;
use dmx_types::{AttTypeId, DmxError, Lsn, RelationId, Result, SmTypeId, TxnId};

/// Which extension wrote an [`LogBody::ExtOp`] record: the indexes into
/// the two procedure vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExtKind {
    Storage(SmTypeId),
    Attachment(AttTypeId),
}

/// Log record bodies.
#[derive(Debug, Clone, PartialEq)]
pub enum LogBody {
    /// Transaction start.
    Begin,
    /// Transaction committed (force point).
    Commit,
    /// Transaction rollback completed.
    Abort,
    /// A named rollback point. Partial rollback stops *after* this LSN.
    Savepoint,
    /// An extension operation. `op` is an extension-private op code;
    /// `payload` is extension-interpreted undo information.
    ExtOp {
        ext: ExtKind,
        relation: RelationId,
        op: u8,
        payload: Vec<u8>,
    },
    /// Two or more extension operations of one relation modification,
    /// in the order they were made: one record, one LSN, one undo step.
    /// Built by [`crate::LogManager::amend`] from an `ExtOp` still in the
    /// volatile tail.
    ExtOps(Vec<ExtOp>),
    /// Compensation record: written after undoing one record's
    /// operations (an `ExtOp` or an `ExtOps`). `undo_next`
    /// is the next LSN to undo, so a crashed rollback never undoes twice.
    Clr { undo_next: Lsn },
    /// Intent to perform a deferred physical action at commit (e.g. the
    /// deferred release of a dropped relation's file). Restart recovery
    /// re-drives intents of committed transactions that lack a matching
    /// [`LogBody::DeferredDone`].
    DeferredIntent { payload: Vec<u8> },
    /// Marks a deferred intent completed.
    DeferredDone { intent_lsn: Lsn },
    /// A quiescent checkpoint: every page state described by records at or
    /// before this LSN is durably on disk (the pool was flushed first).
    /// Restart's redo pass starts scanning just past the last checkpoint.
    /// Written with `TxnId(0)` and a null `prev_lsn` — it belongs to no
    /// transaction.
    Checkpoint,
}

/// One extension operation of an [`LogBody::ExtOps`] record — the four
/// fields of an [`LogBody::ExtOp`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExtOp {
    pub ext: ExtKind,
    pub relation: RelationId,
    pub op: u8,
    pub payload: Vec<u8>,
}

/// An extension operation of a record, borrowed: what a replay reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpRef<'a> {
    pub ext: ExtKind,
    pub relation: RelationId,
    pub op: u8,
    pub payload: &'a [u8],
}

impl ExtOp {
    fn as_ref(&self) -> OpRef<'_> {
        OpRef {
            ext: self.ext,
            relation: self.relation,
            op: self.op,
            payload: &self.payload,
        }
    }

    /// The operation's `ext` varint inside an `ExtOps` frame, and the
    /// relation it names: none when the operation before it (`prev`) was
    /// on the same one.
    fn head(&self, prev: Option<RelationId>) -> (u64, Option<u64>) {
        let (id, att) = match self.ext {
            ExtKind::Storage(s) => (s.0, 0),
            ExtKind::Attachment(a) => (a.0, 1),
        };
        let named = (prev != Some(self.relation)).then_some(u64::from(self.relation.0));
        let code = u64::from(id) << 2 | u64::from(named.is_some()) << 1 | att;
        (code, named)
    }

    /// Bytes of the operation inside an `ExtOps` frame after an operation
    /// on `prev`: its header, then its payload.
    fn framed_len(&self, prev: Option<RelationId>) -> usize {
        let (code, named) = self.head(prev);
        let n = self.payload.len();
        varint_len(code) + named.map_or(0, varint_len) + 1 + varint_len(n as u64) + n
    }

    fn put(&self, out: &mut Vec<u8>, prev: Option<RelationId>) {
        let (code, named) = self.head(prev);
        put_varint(out, code);
        if let Some(relation) = named {
            put_varint(out, relation);
        }
        out.push(self.op);
        put_varint(out, self.payload.len() as u64);
        out.extend_from_slice(&self.payload);
    }
}

/// A record of the one operation.
impl From<ExtOp> for LogBody {
    fn from(op: ExtOp) -> LogBody {
        let ExtOp {
            ext,
            relation,
            op,
            payload,
        } = op;
        LogBody::ExtOp {
            ext,
            relation,
            op,
            payload,
        }
    }
}

/// The bytes each of `ops` takes in an `ExtOps` frame, header and
/// payload, in order.
pub(crate) fn framed_lens(ops: &[ExtOp]) -> impl Iterator<Item = usize> + '_ {
    let prevs = std::iter::once(None).chain(ops.iter().map(|op| Some(op.relation)));
    ops.iter().zip(prevs).map(|(op, prev)| op.framed_len(prev))
}

impl LogBody {
    /// The extension operations the record holds, in the order they were
    /// made: one for an `ExtOp`, each of an `ExtOps`, none for the rest.
    pub fn ext_ops(&self) -> impl DoubleEndedIterator<Item = OpRef<'_>> {
        let (one, more): (_, &[ExtOp]) = match self {
            LogBody::ExtOp {
                ext,
                relation,
                op,
                payload,
            } => {
                let one = OpRef {
                    ext: *ext,
                    relation: *relation,
                    op: *op,
                    payload,
                };
                (Some(one), &[])
            }
            LogBody::ExtOps(ops) => (None, ops),
            _ => (None, &[]),
        };
        one.into_iter().chain(more.iter().map(ExtOp::as_ref))
    }

    /// Whether the record holds extension operations: what undo and redo
    /// hand to the extensions.
    pub fn has_ext_ops(&self) -> bool {
        matches!(self, LogBody::ExtOp { .. } | LogBody::ExtOps(_))
    }
}

/// A complete log record.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// Assigned at append; LSNs are dense and start at 1.
    pub lsn: Lsn,
    /// Previous record of the same transaction ([`Lsn::NULL`] for Begin).
    pub prev_lsn: Lsn,
    pub txn: TxnId,
    pub body: LogBody,
}

const T_BEGIN: u8 = 1;
const T_COMMIT: u8 = 2;
const T_ABORT: u8 = 3;
const T_SAVEPOINT: u8 = 4;
const T_EXTOP_SM: u8 = 5;
const T_EXTOP_ATT: u8 = 6;
const T_CLR: u8 = 7;
const T_INTENT: u8 = 8;
const T_DONE: u8 = 9;
const T_CHECKPOINT: u8 = 10;
const T_EXTOPS: u8 = 11;

/// The frame's checksum: CRC32 of the LSN it holds, then its bytes.
fn frame_crc(lsn: Lsn, frame: &[u8]) -> u32 {
    let state = crc32_update(0xFFFF_FFFF, &lsn.0.to_le_bytes());
    crc32_update(state, frame) ^ 0xFFFF_FFFF
}

impl LogRecord {
    /// Back-pointer `x` of the record as its stored delta (0 = NULL).
    fn delta(&self, x: Lsn) -> u64 {
        debug_assert!(x < self.lsn, "{x} is not behind {}", self.lsn);
        if x.is_null() {
            0
        } else {
            self.lsn.0 - x.0
        }
    }

    /// Serializes the record to the frame stable log position
    /// `self.lsn − 1` holds.
    pub fn encode(&self) -> Vec<u8> {
        let prev = self.delta(self.prev_lsn);
        let body = match &self.body {
            LogBody::ExtOp {
                relation, payload, ..
            } => 2 + varint_len(relation.0.into()) + payload.len(),
            LogBody::ExtOps(ops) => framed_lens(ops).sum(),
            LogBody::Clr { undo_next: x } | LogBody::DeferredDone { intent_lsn: x } => {
                varint_len(self.delta(*x))
            }
            LogBody::DeferredIntent { payload } => payload.len(),
            _ => 0,
        };
        let mut out = Vec::with_capacity(varint_len(prev) + varint_len(self.txn.0) + 1 + body + 4);
        put_varint(&mut out, prev);
        put_varint(&mut out, self.txn.0);
        match &self.body {
            LogBody::Begin => out.push(T_BEGIN),
            LogBody::Commit => out.push(T_COMMIT),
            LogBody::Abort => out.push(T_ABORT),
            LogBody::Savepoint => out.push(T_SAVEPOINT),
            LogBody::ExtOp {
                ext,
                relation,
                op,
                payload,
            } => {
                let (tag, id) = match ext {
                    ExtKind::Storage(s) => (T_EXTOP_SM, s.0),
                    ExtKind::Attachment(a) => (T_EXTOP_ATT, a.0),
                };
                out.extend_from_slice(&[tag, id]);
                put_varint(&mut out, relation.0.into());
                out.push(*op);
                out.extend_from_slice(payload);
            }
            LogBody::ExtOps(ops) => {
                debug_assert!(ops.len() > 1, "one operation is an ExtOp");
                out.push(T_EXTOPS);
                let mut prev = None;
                for op in ops {
                    op.put(&mut out, prev);
                    prev = Some(op.relation);
                }
            }
            LogBody::Clr { undo_next } => {
                out.push(T_CLR);
                put_varint(&mut out, self.delta(*undo_next));
            }
            LogBody::DeferredIntent { payload } => {
                out.push(T_INTENT);
                out.extend_from_slice(payload);
            }
            LogBody::DeferredDone { intent_lsn } => {
                out.push(T_DONE);
                put_varint(&mut out, self.delta(*intent_lsn));
            }
            LogBody::Checkpoint => out.push(T_CHECKPOINT),
        }
        // A torn, rotted or misplaced frame fails decode's check, which
        // is what lets restart recovery scan-and-truncate a damaged log
        // tail instead of replaying it.
        let crc = frame_crc(self.lsn, &out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Deserializes the frame that holds `lsn` ([`LogRecord::encode`]'s),
    /// verifying its checksum first.
    pub fn decode(lsn: Lsn, buf: &[u8]) -> Result<LogRecord> {
        let corrupt = || DmxError::Corrupt("truncated log record".into());
        let body_len = buf.len().checked_sub(4).ok_or_else(corrupt)?;
        let (buf, crc_bytes) = buf.split_at_checked(body_len).ok_or_else(corrupt)?;
        let stored = u32::from_le_bytes(crc_bytes.try_into().map_err(|_| corrupt())?);
        if frame_crc(lsn, buf) != stored {
            return Err(DmxError::Corrupt("log record failed checksum".into()));
        }
        let mut pos = 0usize;
        let int = |pos: &mut usize| varint(buf, pos).ok_or_else(corrupt);
        let byte = |pos: &mut usize| {
            let b = buf.get(*pos).copied().ok_or_else(corrupt)?;
            *pos += 1;
            Ok(b)
        };
        // The rest of the frame, up to its checksum.
        let rest = |pos: &mut usize| {
            let payload = buf.get(*pos..).ok_or_else(corrupt)?.to_vec();
            *pos = buf.len();
            Ok::<_, DmxError>(payload)
        };
        // A delta of 0 is NULL; one of `lsn` or more reaches past LSN 1.
        let back = |pos: &mut usize| match int(pos)? {
            0 => Ok(Lsn::NULL),
            d if d < lsn.0 => Ok(Lsn(lsn.0 - d)),
            d => Err(DmxError::Corrupt(format!(
                "log record {lsn} points {d} back"
            ))),
        };
        let prev_lsn = back(&mut pos)?;
        let txn = TxnId(int(&mut pos)?);
        let tag = byte(&mut pos)?;
        let body = match tag {
            T_BEGIN => LogBody::Begin,
            T_COMMIT => LogBody::Commit,
            T_ABORT => LogBody::Abort,
            T_SAVEPOINT => LogBody::Savepoint,
            T_EXTOP_SM | T_EXTOP_ATT => {
                let id = byte(&mut pos)?;
                let relation = u32::try_from(int(&mut pos)?).map_err(|_| corrupt())?;
                let op = byte(&mut pos)?;
                LogBody::ExtOp {
                    ext: if tag == T_EXTOP_SM {
                        ExtKind::Storage(SmTypeId(id))
                    } else {
                        ExtKind::Attachment(AttTypeId(id))
                    },
                    relation: RelationId(relation),
                    op,
                    payload: rest(&mut pos)?,
                }
            }
            T_EXTOPS => {
                let mut ops: Vec<ExtOp> = Vec::new();
                while pos < buf.len() {
                    let code = int(&mut pos)?;
                    let id = u8::try_from(code >> 2).map_err(|_| corrupt())?;
                    let prev = ops.last().map(|op| op.relation.0);
                    // Named exactly when it differs from the one before.
                    let relation = match (code & 2 != 0, prev) {
                        (true, _) => match u32::try_from(int(&mut pos)?) {
                            Ok(r) if Some(r) != prev => r,
                            _ => return Err(corrupt()),
                        },
                        (false, Some(r)) => r,
                        (false, None) => return Err(corrupt()),
                    };
                    let op = byte(&mut pos)?;
                    let len = usize::try_from(int(&mut pos)?).map_err(|_| corrupt())?;
                    let end = pos.checked_add(len).ok_or_else(corrupt)?;
                    let payload = buf.get(pos..end).ok_or_else(corrupt)?.to_vec();
                    pos = end;
                    ops.push(ExtOp {
                        ext: match code & 1 {
                            0 => ExtKind::Storage(SmTypeId(id)),
                            _ => ExtKind::Attachment(AttTypeId(id)),
                        },
                        relation: RelationId(relation),
                        op,
                        payload,
                    });
                }
                if ops.len() < 2 {
                    return Err(DmxError::Corrupt(
                        "an ExtOps record of one operation".into(),
                    ));
                }
                LogBody::ExtOps(ops)
            }
            T_CLR => LogBody::Clr {
                undo_next: back(&mut pos)?,
            },
            T_INTENT => LogBody::DeferredIntent {
                payload: rest(&mut pos)?,
            },
            T_DONE => LogBody::DeferredDone {
                intent_lsn: back(&mut pos)?,
            },
            T_CHECKPOINT => LogBody::Checkpoint,
            other => return Err(DmxError::Corrupt(format!("bad log tag {other}"))),
        };
        if pos != buf.len() {
            return Err(DmxError::Corrupt("log record longer than its body".into()));
        }
        Ok(LogRecord {
            lsn,
            prev_lsn,
            txn,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// LSNs around the one- and two-byte varint widths, past `u32`, and
    /// at the top of the range.
    const LSNS: [u64; 6] = [1, 127, 128, 129, 1 << 32, u64::MAX - 1];

    /// A frame of `body` bytes sealed for the position holding `lsn`.
    fn seal(lsn: u64, mut body: Vec<u8>) -> Vec<u8> {
        let crc = frame_crc(Lsn(lsn), &body);
        body.extend_from_slice(&crc.to_le_bytes());
        body
    }

    /// The operations of one modification: a storage method's change, an
    /// attachment's on another relation with a payload past one varint
    /// byte of length and a type id past one varint byte of `ext`, an
    /// empty payload back on the first relation, and one more on it.
    fn modification() -> Vec<ExtOp> {
        vec![
            ExtOp {
                ext: ExtKind::Storage(SmTypeId(2)),
                relation: RelationId(5),
                op: 1,
                payload: vec![1, 2, 3],
            },
            ExtOp {
                ext: ExtKind::Attachment(AttTypeId(200)),
                relation: RelationId(u32::MAX),
                op: 4,
                payload: vec![7; 130],
            },
            ExtOp {
                ext: ExtKind::Attachment(AttTypeId(3)),
                relation: RelationId(5),
                op: 2,
                payload: vec![],
            },
            ExtOp {
                ext: ExtKind::Attachment(AttTypeId(3)),
                relation: RelationId(5),
                op: 3,
                payload: vec![9],
            },
        ]
    }

    fn bodies(lsn: u64) -> Vec<LogBody> {
        let back = [Lsn::NULL, Lsn(1), Lsn(lsn / 2), Lsn(lsn - 1)];
        let mut all = vec![
            LogBody::Begin,
            LogBody::Commit,
            LogBody::Abort,
            LogBody::Savepoint,
            LogBody::ExtOp {
                ext: ExtKind::Storage(SmTypeId(2)),
                relation: RelationId(5),
                op: 1,
                payload: vec![1, 2, 3],
            },
            LogBody::ExtOp {
                ext: ExtKind::Attachment(AttTypeId(4)),
                relation: RelationId(u32::MAX),
                op: 2,
                payload: vec![],
            },
            LogBody::DeferredIntent {
                payload: vec![9; 40],
            },
            LogBody::Checkpoint,
            LogBody::ExtOps(modification()),
        ];
        for x in back.into_iter().filter(|x| x.0 < lsn) {
            all.push(LogBody::Clr { undo_next: x });
            all.push(LogBody::DeferredDone { intent_lsn: x });
        }
        all
    }

    /// Every body round-trips at every LSN, under every back-pointer
    /// behind it; every truncation and every byte flip is `Corrupt`, and
    /// so is the frame read at the next position.
    #[test]
    fn roundtrip_all_bodies_at_every_width() {
        for lsn in LSNS {
            for body in bodies(lsn) {
                for prev in [Lsn::NULL, Lsn(1), Lsn(lsn - 1)] {
                    if prev.0 >= lsn {
                        continue;
                    }
                    let rec = LogRecord {
                        lsn: Lsn(lsn),
                        prev_lsn: prev,
                        txn: TxnId(lsn ^ 0x55),
                        body: body.clone(),
                    };
                    let bytes = rec.encode();
                    assert_eq!(bytes.capacity(), bytes.len(), "{rec:?} sized exactly");
                    assert_eq!(LogRecord::decode(rec.lsn, &bytes).unwrap(), rec);
                    let elsewhere = LogRecord::decode(Lsn(lsn + 1), &bytes);
                    assert!(matches!(elsewhere, Err(DmxError::Corrupt(_))), "{rec:?}");
                    for cut in 0..bytes.len() {
                        let short = LogRecord::decode(rec.lsn, &bytes[..cut]);
                        assert!(matches!(short, Err(DmxError::Corrupt(_))), "cut at {cut}");
                    }
                    for i in 0..bytes.len() {
                        let mut rotted = bytes.clone();
                        rotted[i] ^= 0x40;
                        assert!(
                            matches!(
                                LogRecord::decode(rec.lsn, &rotted),
                                Err(DmxError::Corrupt(_))
                            ),
                            "byte flip at {i} of {rec:?} undetected"
                        );
                    }
                }
            }
        }
    }

    /// A transaction-control frame is a few bytes: a Begin at LSN 1 is a
    /// NULL delta, a one-byte transaction id, its tag and the checksum.
    #[test]
    fn a_control_frame_is_its_small_numbers_and_a_checksum() {
        let begin = LogRecord {
            lsn: Lsn(1),
            prev_lsn: Lsn::NULL,
            txn: TxnId(1),
            body: LogBody::Begin,
        };
        assert_eq!(begin.encode()[..3], [0, 1, T_BEGIN]);
        assert_eq!(begin.encode().len(), 7);
    }

    /// A back-pointer delta that reaches LSN 0 or past it is `Corrupt`,
    /// even in a frame whose checksum holds.
    #[test]
    fn deltas_past_lsn_one_are_rejected() {
        for lsn in LSNS {
            let varint_of = |v: u64| {
                let mut out = Vec::new();
                put_varint(&mut out, v);
                out
            };
            for delta in [lsn, lsn + 1, u64::MAX] {
                let prev = [varint_of(delta), vec![1, T_BEGIN]].concat();
                let clr = [vec![0, 1, T_CLR], varint_of(delta)].concat();
                let done = [vec![0, 1, T_DONE], varint_of(delta)].concat();
                for body in [prev, clr, done] {
                    let res = LogRecord::decode(Lsn(lsn), &seal(lsn, body));
                    assert!(matches!(res, Err(DmxError::Corrupt(_))), "{lsn} - {delta}");
                }
            }
            if lsn > 1 {
                let back = LogRecord::decode(Lsn(lsn), &seal(lsn, vec![0, 1, T_CLR, 1]));
                let undo_next = Lsn(lsn - 1);
                assert_eq!(back.unwrap().body, LogBody::Clr { undo_next });
            }
        }
    }

    /// A frame longer than its body, a relation id past `u32` and an
    /// overlong varint are `Corrupt` under a valid checksum: a record has
    /// exactly one frame.
    #[test]
    fn a_frame_has_one_spelling() {
        let bad = [
            vec![0, 1, T_BEGIN, 0],
            vec![0, 1, T_CLR, 1, 0],
            vec![0, 1, T_EXTOP_SM, 1, 0x80, 0x80, 0x80, 0x80, 0x10, 0],
            vec![0x80, 0x00, 1, T_BEGIN],
        ];
        for body in bad {
            let res = LogRecord::decode(Lsn(9), &seal(9, body.clone()));
            assert!(matches!(res, Err(DmxError::Corrupt(_))), "{body:?}");
        }
    }

    /// An `ExtOps` frame is the frame header once, then each operation
    /// as `ext ∥ relation ∥ op ∥ len ∥ payload`, its relation left out
    /// when it is the one before's: an operation that joins a frame
    /// costs its own few bytes, not another header and checksum.
    /// `ext_ops` hands the operations back in order.
    #[test]
    fn ext_ops_frame_layout_is_pinned() {
        let ops = modification();
        let rec = LogRecord {
            lsn: Lsn(9),
            prev_lsn: Lsn(8),
            txn: TxnId(3),
            body: LogBody::ExtOps(ops.clone()),
        };
        let frame = rec.encode();
        let mut want = vec![1, 3, T_EXTOPS];
        want.extend_from_slice(&[10, 5, 1, 3, 1, 2, 3]);
        want.extend_from_slice(&[0xA3, 0x06, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 4, 0x82, 0x01]);
        want.extend_from_slice(&[7; 130]);
        want.extend_from_slice(&[15, 5, 2, 0]);
        want.extend_from_slice(&[13, 3, 1, 9]);
        assert_eq!(frame[..frame.len() - 4], want[..]);
        assert_eq!(framed_lens(&ops).collect::<Vec<_>>(), [7, 140, 4, 4]);
        let back = LogRecord::decode(rec.lsn, &frame).unwrap();
        assert_eq!(back, rec);
        let read: Vec<OpRef<'_>> = back.body.ext_ops().collect();
        assert_eq!(read, ops.iter().map(ExtOp::as_ref).collect::<Vec<_>>());
        assert!(back.body.has_ext_ops());
        assert_eq!(LogBody::Commit.ext_ops().count(), 0);
    }

    /// Under a valid checksum, an `ExtOps` of fewer than two operations,
    /// a payload running past the frame, an id past `u8`, a relation
    /// past `u32`, a first operation that names no relation and a later
    /// one that names the relation before it are `Corrupt`.
    #[test]
    fn an_ext_ops_frame_has_one_spelling() {
        let head = [0, 1, T_EXTOPS];
        let op = [2, 5, 1, 1, 9]; // storage method 0 on relation 5
        let same = [0, 1, 1, 9]; // the same, its relation left out
        let bad = [
            head.to_vec(),
            [&head[..], &op].concat(),
            [&head[..], &op, &[0, 1, 2, 9]].concat(),
            [&head[..], &op, &[0x80, 0x08, 1, 0]].concat(),
            [&head[..], &op, &[2, 0x80, 0x80, 0x80, 0x80, 0x10, 1, 0]].concat(),
            [&head[..], &same, &op].concat(),
            [&head[..], &op, &op].concat(),
        ];
        for body in bad {
            let res = LogRecord::decode(Lsn(9), &seal(9, body.clone()));
            assert!(matches!(res, Err(DmxError::Corrupt(_))), "{body:?}");
        }
        let two = [&head[..], &op, &same].concat();
        let rec = LogRecord::decode(Lsn(9), &seal(9, two)).unwrap();
        let relations: Vec<RelationId> = rec.body.ext_ops().map(|o| o.relation).collect();
        assert_eq!(relations, [RelationId(5); 2]);
    }

    #[test]
    fn encoded_frame_is_the_durable_format() {
        let rec = LogRecord {
            lsn: Lsn(0x1122_3344),
            prev_lsn: Lsn(0x1122_3301),
            txn: TxnId(0xA0B0_C0D0_E0F0),
            body: LogBody::ExtOp {
                ext: ExtKind::Attachment(AttTypeId(3)),
                relation: RelationId(0x0BAD_CAFE),
                op: 9,
                payload: (0u8..21).map(|i| i.wrapping_mul(37) ^ 0x5A).collect(),
            },
        };
        // The prev delta 0x43, the transaction id in seven varint bytes,
        // tag 6 and attachment type 3, the relation in four, op 9, the
        // 21-byte payload, then the CRC32 of the LSN's eight bytes and
        // the 36 above, little-endian.
        const FRAME: [u8; 40] = [
            67, 240, 193, 195, 134, 140, 150, 40, 6, 3, 254, 149, 183, 93, 9, 90, 127, 16, 53, 206,
            227, 132, 89, 114, 23, 40, 205, 230, 187, 92, 113, 10, 47, 192, 229, 190, 233, 100,
            177, 249,
        ];
        assert_eq!(rec.encode(), FRAME);
        assert_eq!(LogRecord::decode(rec.lsn, &FRAME).unwrap(), rec);
    }

    #[test]
    fn bad_tag_rejected() {
        let rec = LogRecord {
            lsn: Lsn(300),
            prev_lsn: Lsn::NULL,
            txn: TxnId(200),
            body: LogBody::Begin,
        };
        let mut body = rec.encode();
        body.truncate(body.len() - 4);
        // A Begin's tag is its last byte.
        let tag = body.len() - 1;
        assert_eq!(body[tag], T_BEGIN);
        for bad in [0, T_EXTOPS + 1, 0xEE] {
            body[tag] = bad;
            let res = LogRecord::decode(rec.lsn, &seal(300, body.clone()));
            assert!(
                matches!(&res, Err(DmxError::Corrupt(m)) if m.contains("tag")),
                "{res:?}"
            );
        }
    }
}
