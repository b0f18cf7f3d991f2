//! Logical log records and their on-disk framing.
//!
//! Each record is framed as `[len: u32 LE][crc: u32 LE][payload]` where
//! the payload is the JSON encoding of a [`WalRecord`] and the CRC covers
//! the payload bytes only. Length-prefix framing plus a checksum lets
//! recovery distinguish a *torn* final record (crash mid-write) from a
//! clean end of log, and the JSON payload keeps records self-describing
//! and schema-name-stable: operations are logged *logically* (entity and
//! attribute names, not ids), so replay re-derives eager containment
//! propagations instead of trusting duplicated physical writes.

use serde::{Deserialize, Serialize};
use toposem_extension::LogicalOp;

use crate::crc32::crc32;
use crate::WalError;

/// Upper bound on a framed payload; anything larger is treated as
/// corruption rather than an allocation request.
pub const MAX_RECORD_LEN: usize = 1 << 26; // 64 MiB

/// One log record: a logical entry stamped with its log sequence number.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WalRecord {
    /// Position in the global log order; strictly increasing.
    pub lsn: u64,
    /// The logical operation.
    pub entry: WalEntry,
}

/// The kind of secondary index a [`IndexDef`] describes. The log only
/// names the kind; building the right structure is the storage layer's
/// job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum IndexKindDef {
    /// Hash index on a single attribute (point lookups).
    Hash,
    /// Ordered (BTree) index on a single attribute (point + range).
    Ordered,
    /// Composite ordered index over several attributes (prefix lookups).
    Composite,
}

/// A logged index definition: entity type, index kind, and the indexed
/// attributes — all by *name*, so the definition survives schema-id
/// renumbering (same rationale as [`LogicalOp`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IndexDef {
    /// Entity type name.
    pub entity: String,
    /// What structure backs the index.
    pub kind: IndexKindDef,
    /// Indexed attribute names; order is significant for composites.
    pub attrs: Vec<String>,
}

/// The logical operations the engine logs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WalEntry {
    /// A transaction started.
    Begin {
        /// Transaction id.
        txn: u64,
    },
    /// A validated insert of the *declared* instance; eager containment
    /// propagations are re-derived on replay, never logged.
    Insert {
        /// Owning transaction.
        txn: u64,
        /// The logical operation (entity + named fields).
        op: LogicalOp,
    },
    /// A cascading delete, logged as the instance the user addressed;
    /// the cascade is recomputed on replay.
    Delete {
        /// Owning transaction.
        txn: u64,
        /// The logical operation (entity + named fields).
        op: LogicalOp,
    },
    /// The transaction's durability point.
    Commit {
        /// Transaction id.
        txn: u64,
    },
    /// The transaction rolled back; recovery discards its operations.
    Abort {
        /// Transaction id.
        txn: u64,
    },
    /// A checkpoint was installed at this LSN: everything before it is
    /// captured by the checkpoint snapshot file.
    Checkpoint {
        /// First transaction id to be allocated after the checkpoint.
        next_txn: u64,
    },
    /// An index definition (non-transactional; named so it survives
    /// id renumbering). Carries the index kind and attribute list so
    /// recovery rebuilds ordered and composite indexes, not just hashes.
    CreateIndex {
        /// The logged definition.
        def: IndexDef,
    },
    /// An index was dropped (non-transactional). Recovery removes every
    /// accumulated definition matching `def`, so a create/drop/create
    /// sequence replays to exactly one live index.
    DropIndex {
        /// The dropped definition (entity, kind, attribute names).
        def: IndexDef,
    },
    /// A declared functional dependency `fd(lhs, rhs, context)`
    /// (non-transactional; entity type names, so recovery can restore
    /// enforcement).
    DeclareFd {
        /// Determining entity type name.
        lhs: String,
        /// Determined entity type name.
        rhs: String,
        /// Context entity type name.
        context: String,
    },
}

impl WalEntry {
    /// The owning transaction, for transactional entries.
    pub fn txn(&self) -> Option<u64> {
        match self {
            WalEntry::Begin { txn }
            | WalEntry::Insert { txn, .. }
            | WalEntry::Delete { txn, .. }
            | WalEntry::Commit { txn }
            | WalEntry::Abort { txn } => Some(*txn),
            WalEntry::Checkpoint { .. }
            | WalEntry::CreateIndex { .. }
            | WalEntry::DropIndex { .. }
            | WalEntry::DeclareFd { .. } => None,
        }
    }
}

/// Frames a record for appending.
pub fn encode_record(rec: &WalRecord) -> Result<Vec<u8>, WalError> {
    let mut out = Vec::new();
    encode_record_into(rec, &mut out)?;
    Ok(out)
}

/// Appends `rec`'s frame to `out`: the payload is written in place behind
/// a header that is filled in once its length and checksum are known. A
/// payload over [`MAX_RECORD_LEN`] — which [`decode_record`] would
/// reject as corrupt — is refused and `out` left as it was.
pub fn encode_record_into(rec: &WalRecord, out: &mut Vec<u8>) -> Result<(), WalError> {
    let at = out.len();
    out.extend_from_slice(&[0; 8]);
    rec.serialize(out);
    let len = out.len() - at - 8;
    if len > MAX_RECORD_LEN {
        out.truncate(at);
        return Err(WalError::Encode(format!(
            "a {len}-byte record exceeds the {MAX_RECORD_LEN}-byte frame limit"
        )));
    }
    let crc = crc32(&out[at + 8..]);
    out[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Outcome of decoding one frame at an offset.
#[derive(Debug)]
pub enum Decoded {
    /// A whole, checksum-valid record; `next` is the offset just past it.
    Record {
        /// The decoded record.
        rec: WalRecord,
        /// Offset of the next frame.
        next: usize,
    },
    /// The buffer ends exactly here: a clean end of log.
    End,
    /// The tail is torn or corrupt from this offset on; the reason is
    /// diagnostic only.
    Torn(&'static str),
}

/// The [`Decoded::Torn`] reason of a whole, checksum-valid frame whose
/// payload is not a record.
const UNDECODABLE: &str = "undecodable payload";

impl Decoded {
    /// Whether the frame here is whole and its checksum valid, yet its
    /// payload does not decode: corruption that no later byte repairs,
    /// unlike a frame cut short.
    pub fn is_undecodable(&self) -> bool {
        matches!(self, Decoded::Torn(why) if *why == UNDECODABLE)
    }
}

/// Decodes the frame starting at `at` in `buf`.
pub fn decode_record(buf: &[u8], at: usize) -> Decoded {
    let remaining = buf.len() - at;
    if remaining == 0 {
        return Decoded::End;
    }
    if remaining < 8 {
        return Decoded::Torn("truncated frame header");
    }
    let len = u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(buf[at + 4..at + 8].try_into().expect("4 bytes"));
    if len > MAX_RECORD_LEN {
        return Decoded::Torn("implausible record length");
    }
    if remaining - 8 < len {
        return Decoded::Torn("truncated payload");
    }
    let payload = &buf[at + 8..at + 8 + len];
    if crc32(payload) != crc {
        return Decoded::Torn("checksum mismatch");
    }
    match serde_json::from_slice::<WalRecord>(payload) {
        Ok(rec) => Decoded::Record {
            rec,
            next: at + 8 + len,
        },
        Err(_) => Decoded::Torn(UNDECODABLE),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toposem_extension::Value;

    fn sample() -> WalRecord {
        WalRecord {
            lsn: 7,
            entry: WalEntry::Insert {
                txn: 3,
                op: LogicalOp {
                    entity: "employee".into(),
                    fields: vec![
                        ("name".into(), Value::str("ann")),
                        ("age".into(), Value::Int(40)),
                    ],
                },
            },
        }
    }

    #[test]
    fn roundtrip() {
        let rec = sample();
        let framed = encode_record(&rec).unwrap();
        match decode_record(&framed, 0) {
            Decoded::Record { rec: back, next } => {
                assert_eq!(back, rec);
                assert_eq!(next, framed.len());
            }
            other => panic!("expected record, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_is_torn_and_every_flip_detected() {
        let framed = encode_record(&sample()).unwrap();
        for cut in 1..framed.len() {
            match decode_record(&framed[..cut], 0) {
                Decoded::Torn(_) => {}
                other => panic!("cut at {cut} not torn: {other:?}"),
            }
        }
        let mut bad = framed.clone();
        for i in 8..bad.len() {
            bad[i] ^= 0x40;
            assert!(
                matches!(decode_record(&bad, 0), Decoded::Torn(_)),
                "payload flip at {i} undetected"
            );
            bad[i] ^= 0x40;
        }
    }

    /// Frames `payload` with a valid length and checksum.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&crc32(payload).to_le_bytes());
        framed.extend_from_slice(payload);
        framed
    }

    #[test]
    fn hostile_nesting_in_a_checksum_valid_frame_is_torn() {
        let deep = "[".repeat(1_000_000);
        for payload in [deep.clone(), format!("{{\"lsn\":1,\"pad\":{deep}")] {
            let decoded = decode_record(&frame(payload.as_bytes()), 0);
            assert!(
                matches!(decoded, Decoded::Torn(_)) && decoded.is_undecodable(),
                "{decoded:?}"
            );
        }
        // A frame cut short is torn, but not undecodable.
        let framed = frame(b"{}");
        assert!(!decode_record(&framed[..framed.len() - 1], 0).is_undecodable());
    }

    #[test]
    fn clean_end_and_txn_accessor() {
        assert!(matches!(decode_record(&[], 0), Decoded::End));
        assert_eq!(WalEntry::Commit { txn: 9 }.txn(), Some(9));
        assert_eq!(WalEntry::Checkpoint { next_txn: 0 }.txn(), None);
    }
}
