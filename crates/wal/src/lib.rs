//! # toposem-wal
//!
//! Write-ahead logging, checkpointing, and crash recovery for the
//! toposem storage engine.
//!
//! The log is an append-only sequence of *logical* records
//! ([`WalEntry`]: `Begin`/`Insert`/`Delete`/`Commit`/`Abort`/
//! `Checkpoint`/`CreateIndex`) framed with a length prefix and a CRC-32
//! per record, split across rotating segment files. Durability of
//! commits is governed by a [`FlushPolicy`]: fsync per commit, group
//! commit (batched fsyncs), or no sync for tests. Checkpoints install a
//! full snapshot atomically (write-temp, fsync, rename) and truncate the
//! old segments; recovery loads the latest checkpoint, replays the
//! committed suffix, discards uncommitted transactions, and tolerates a
//! torn final record.
//!
//! This crate knows nothing about the database representation: the
//! checkpoint payload is opaque bytes, and replay is the storage layer's
//! job (it interprets the [`toposem_extension::LogicalOp`] carried by
//! `Insert`/`Delete` records). That keeps the dependency arrow pointing
//! from storage to here, mirroring how the engine treats the log as a
//! lower-level facility.

use std::time::Duration;

pub mod crc32;
pub mod log;
pub mod record;

pub use crate::log::{
    list_segments, read_checkpoint, read_checkpoint_meta, scan, scan_records, segment_first_lsn,
    segment_name, CheckpointMeta, LogScan, Wal, SEG_HEADER_LEN,
};
pub use crate::record::{decode_record, Decoded, IndexDef, IndexKindDef, WalEntry, WalRecord};

/// When commit records reach the disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushPolicy {
    /// fsync after every commit: each acknowledged commit survives a
    /// crash.
    PerCommit,
    /// Batch fsyncs: sync once `max_batch` commits are pending, or when
    /// a commit arrives and the oldest pending one has already waited
    /// `max_wait`. An acknowledged commit may be lost if a crash lands
    /// inside the window — the classic group-commit trade of durability
    /// lag for an order-of-magnitude throughput gain.
    ///
    /// The log itself only evaluates the `max_wait` deadline when the
    /// *next* commit (or an explicit [`Wal::flush`]) arrives, so the
    /// storage engine runs a dedicated flusher thread that watches
    /// [`Wal::pending_flush_deadline`] and fsyncs at the deadline: every
    /// acknowledged commit — including the final commits of a burst
    /// followed by idleness, or a lone committer — becomes durable
    /// within `max_wait` wall-clock time.
    GroupCommit {
        /// Pending-commit count that forces a sync.
        max_batch: usize,
        /// Longest a pending commit may wait for the batch to fill
        /// before the next commit forces a sync.
        max_wait: Duration,
    },
    /// Never fsync; durability is whatever the OS page cache provides.
    /// For tests and benchmarks.
    NoSync,
}

/// Configuration of a log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalConfig {
    /// Commit durability policy.
    pub flush: FlushPolicy,
    /// Rotate to a new segment once the current one reaches this size.
    pub segment_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            flush: FlushPolicy::PerCommit,
            segment_bytes: 4 * 1024 * 1024,
        }
    }
}

impl WalConfig {
    /// A test-friendly configuration: no fsync, small segments so
    /// rotation is exercised.
    pub fn no_sync() -> Self {
        WalConfig {
            flush: FlushPolicy::NoSync,
            segment_bytes: 64 * 1024,
        }
    }
}

/// Errors from log operations.
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A record failed to encode or decode.
    Encode(String),
    /// The directory holds no checkpoint — nothing to recover.
    NoCheckpoint,
    /// The checkpoint file's header is missing, malformed, or of an
    /// unsupported version.
    BadCheckpoint(String),
    /// A non-tail segment is corrupt (bad header, checksum, or framing);
    /// unlike a torn tail this cannot be explained by a crash mid-append.
    Corrupt {
        /// Offending segment path.
        segment: String,
        /// Byte offset of the bad frame.
        offset: u64,
        /// Diagnostic.
        reason: String,
    },
    /// [`Wal::create`] was pointed at a directory that already holds a
    /// log.
    AlreadyExists,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Encode(e) => write!(f, "wal record encoding error: {e}"),
            WalError::NoCheckpoint => write!(f, "no checkpoint found; nothing to recover"),
            WalError::BadCheckpoint(why) => write!(f, "bad checkpoint: {why}"),
            WalError::Corrupt {
                segment,
                offset,
                reason,
            } => write!(
                f,
                "corrupt wal segment {segment} at byte {offset}: {reason}"
            ),
            WalError::AlreadyExists => {
                write!(f, "directory already holds a log; open it instead")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<serde_json::Error> for WalError {
    fn from(e: serde_json::Error) -> Self {
        WalError::Encode(e.to_string())
    }
}
