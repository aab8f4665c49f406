//! Log record format.
//!
//! Each record carries its transaction, a backward `prev_lsn` chain used
//! by rollback, and a body. Extension operations ([`LogBody::ExtOp`])
//! carry an opaque payload that only the originating extension can
//! interpret — mirroring the paper, where the common recovery facility
//! *drives* storage-method and attachment implementations but does not
//! understand their representations.

use dmx_types::crc::crc32;
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
    /// Compensation record: written after undoing one `ExtOp`. `undo_next`
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

impl LogRecord {
    /// Serializes the record to a self-contained byte frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        out.extend_from_slice(&self.lsn.0.to_le_bytes());
        out.extend_from_slice(&self.prev_lsn.0.to_le_bytes());
        out.extend_from_slice(&self.txn.0.to_le_bytes());
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
                out.push(tag);
                out.push(id);
                out.extend_from_slice(&relation.0.to_le_bytes());
                out.push(*op);
                out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                out.extend_from_slice(payload);
            }
            LogBody::Clr { undo_next } => {
                out.push(T_CLR);
                out.extend_from_slice(&undo_next.0.to_le_bytes());
            }
            LogBody::DeferredIntent { payload } => {
                out.push(T_INTENT);
                out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                out.extend_from_slice(payload);
            }
            LogBody::DeferredDone { intent_lsn } => {
                out.push(T_DONE);
                out.extend_from_slice(&intent_lsn.0.to_le_bytes());
            }
            LogBody::Checkpoint => out.push(T_CHECKPOINT),
        }
        // Trailing CRC32 over everything above: a torn or rotted frame is
        // detected by decode, which is what lets restart recovery
        // scan-and-truncate a damaged log tail instead of replaying it.
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Deserializes a frame produced by [`LogRecord::encode`], verifying
    /// its trailing checksum first.
    pub fn decode(buf: &[u8]) -> Result<LogRecord> {
        let corrupt = || DmxError::Corrupt("truncated log record".into());
        let body_len = buf.len().checked_sub(4).ok_or_else(corrupt)?;
        // bounds: body_len + 4 == buf.len() by the checked_sub above
        let (payload, crc_bytes) = (&buf[..body_len], &buf[body_len..]);
        let stored = u32::from_le_bytes(crc_bytes.try_into().map_err(|_| corrupt())?);
        if crc32(payload) != stored {
            return Err(DmxError::Corrupt("log record failed checksum".into()));
        }
        let buf = payload;
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
            let s = buf.get(*pos..*pos + n).ok_or_else(corrupt)?;
            *pos += n;
            Ok(s)
        };
        let u64at = |pos: &mut usize| -> Result<u64> {
            let b: [u8; 8] = take(pos, 8)?.try_into().map_err(|_| corrupt())?;
            Ok(u64::from_le_bytes(b))
        };
        let u32at = |pos: &mut usize| -> Result<u32> {
            let b: [u8; 4] = take(pos, 4)?.try_into().map_err(|_| corrupt())?;
            Ok(u32::from_le_bytes(b))
        };
        let lsn = Lsn(u64at(&mut pos)?);
        let prev_lsn = Lsn(u64at(&mut pos)?);
        let txn = TxnId(u64at(&mut pos)?);
        let tag = take(&mut pos, 1)?[0];
        let body = match tag {
            T_BEGIN => LogBody::Begin,
            T_COMMIT => LogBody::Commit,
            T_ABORT => LogBody::Abort,
            T_SAVEPOINT => LogBody::Savepoint,
            T_EXTOP_SM | T_EXTOP_ATT => {
                let id = take(&mut pos, 1)?[0];
                let relation = RelationId(u32at(&mut pos)?);
                let op = take(&mut pos, 1)?[0];
                let len = u32at(&mut pos)? as usize;
                let payload = take(&mut pos, len)?.to_vec();
                LogBody::ExtOp {
                    ext: if tag == T_EXTOP_SM {
                        ExtKind::Storage(SmTypeId(id))
                    } else {
                        ExtKind::Attachment(AttTypeId(id))
                    },
                    relation,
                    op,
                    payload,
                }
            }
            T_CLR => LogBody::Clr {
                undo_next: Lsn(u64at(&mut pos)?),
            },
            T_INTENT => {
                let len = u32at(&mut pos)? as usize;
                LogBody::DeferredIntent {
                    payload: take(&mut pos, len)?.to_vec(),
                }
            }
            T_DONE => LogBody::DeferredDone {
                intent_lsn: Lsn(u64at(&mut pos)?),
            },
            T_CHECKPOINT => LogBody::Checkpoint,
            other => return Err(DmxError::Corrupt(format!("bad log tag {other}"))),
        };
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

    fn roundtrip(body: LogBody) {
        let rec = LogRecord {
            lsn: Lsn(7),
            prev_lsn: Lsn(3),
            txn: TxnId(99),
            body,
        };
        let bytes = rec.encode();
        assert_eq!(LogRecord::decode(&bytes).unwrap(), rec);
        // every truncation is detected
        for cut in 0..bytes.len() {
            assert!(LogRecord::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn roundtrip_all_bodies() {
        roundtrip(LogBody::Begin);
        roundtrip(LogBody::Commit);
        roundtrip(LogBody::Abort);
        roundtrip(LogBody::Savepoint);
        roundtrip(LogBody::ExtOp {
            ext: ExtKind::Storage(SmTypeId(2)),
            relation: RelationId(5),
            op: 1,
            payload: vec![1, 2, 3],
        });
        roundtrip(LogBody::ExtOp {
            ext: ExtKind::Attachment(AttTypeId(4)),
            relation: RelationId(5),
            op: 2,
            payload: vec![],
        });
        roundtrip(LogBody::Clr { undo_next: Lsn(2) });
        roundtrip(LogBody::DeferredIntent {
            payload: vec![9; 40],
        });
        roundtrip(LogBody::DeferredDone { intent_lsn: Lsn(4) });
        roundtrip(LogBody::Checkpoint);
    }

    #[test]
    fn any_byte_flip_fails_checksum() {
        let bytes = LogRecord {
            lsn: Lsn(5),
            prev_lsn: Lsn(4),
            txn: TxnId(6),
            body: LogBody::ExtOp {
                ext: ExtKind::Storage(SmTypeId(1)),
                relation: RelationId(2),
                op: 3,
                payload: vec![0xAB; 16],
            },
        }
        .encode();
        for i in 0..bytes.len() {
            let mut rotted = bytes.clone();
            rotted[i] ^= 0x40;
            assert!(
                matches!(LogRecord::decode(&rotted), Err(DmxError::Corrupt(_))),
                "byte flip at {i} undetected"
            );
        }
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
        // 56 checksummed bytes (three 16-byte steps and a remainder of
        // 8), produced by the byte-at-a-time kernel of PR 23 and checked
        // in: the last four are the trailing CRC32, little-endian.
        const FRAME: [u8; 60] = [
            68, 51, 34, 17, 0, 0, 0, 0, 1, 51, 34, 17, 0, 0, 0, 0, 240, 224, 208, 192, 176, 160, 0,
            0, 6, 3, 254, 202, 173, 11, 9, 21, 0, 0, 0, 90, 127, 16, 53, 206, 227, 132, 89, 114,
            23, 40, 205, 230, 187, 92, 113, 10, 47, 192, 229, 190, 126, 71, 163, 218,
        ];
        assert_eq!(rec.encode(), FRAME);
        assert_eq!(LogRecord::decode(&FRAME).unwrap(), rec);
    }

    #[test]
    fn bad_tag_rejected() {
        let mut bytes = LogRecord {
            lsn: Lsn(1),
            prev_lsn: Lsn::NULL,
            txn: TxnId(1),
            body: LogBody::Begin,
        }
        .encode();
        bytes[24] = 0xEE;
        assert!(matches!(
            LogRecord::decode(&bytes),
            Err(DmxError::Corrupt(_))
        ));
    }
}
