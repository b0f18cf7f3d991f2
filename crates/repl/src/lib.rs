//! # toposem-repl
//!
//! Log-shipping replication for the toposem engine: a primary ships its
//! checkpoint and CRC-framed WAL segments through a pluggable
//! [`SegmentTransport`], and any number of followers bootstrap from the
//! checkpoint, replay the shipped segments through the code crash
//! recovery runs, and then tail the live segment — each exposing a
//! **read-only** [`Engine`] whose snapshots answer queries
//! bit-identically to the primary as of the follower's applied LSN.
//!
//! The design leans entirely on two properties the WAL already has:
//!
//! 1. **Segments are self-delimiting.** Every record is framed
//!    `[len][crc][payload]`, so raw segment *bytes* can be shipped at
//!    any moment — a partially written frame decodes as `Torn`, and the
//!    follower simply waits at that offset for more bytes. No seal
//!    protocol, no record-level acks.
//! 2. **Replay is idempotent below a watermark.** A follower tracks one
//!    applied LSN; records below it are skipped, so after a disconnect
//!    (or a transport that re-delivers a whole segment) the follower
//!    re-decodes from anywhere without double-applying.
//!
//! Catch-up cost is bounded by a **checkpoint-segment manifest**
//! ([`Manifest`]): the shipper publishes the checkpoint LSN plus every
//! segment's name, first LSN, and shipped length, so a follower fetches
//! only segments that can still contain records at or above its applied
//! LSN — and detects, from the manifest alone, when the primary has
//! checkpointed past it and a fresh bootstrap is cheaper than replay.
//!
//! Two transports ship today: [`InProcessTransport`] (a shared in-memory
//! store, for tests and embedded replicas) and [`DirTransport`] (a
//! spool directory, for shared-filesystem standbys). The trait is the
//! seam where TCP or S3-style blob transports plug in later.
//!
//! [`Engine`]: toposem_storage::Engine

pub mod follow;
pub mod ship;
pub mod transport;

pub use follow::{Follower, FollowerConfig};
pub use ship::{Shipper, ShipperConfig};
pub use transport::{
    decode_checkpoint, encode_checkpoint, DirTransport, InProcessTransport, Manifest, SegmentEntry,
    SegmentTransport, TransportError,
};

use toposem_storage::EngineError;
use toposem_wal::WalError;

/// Errors surfaced by replication operations.
#[derive(Debug)]
pub enum ReplError {
    /// The segment transport failed.
    Transport(TransportError),
    /// Reading the primary's log directory failed.
    Wal(String),
    /// Applying shipped records to the replica engine failed.
    Engine(EngineError),
    /// A shipper was started on an engine with no write-ahead log.
    NotDurable,
    /// The transport holds no checkpoint yet — nothing to bootstrap a
    /// follower from.
    NoCheckpoint,
    /// A shipped checkpoint's bytes were malformed.
    BadCheckpoint(String),
    /// A shipped segment holds a whole, checksum-valid record that does
    /// not decode — corruption no amount of waiting repairs.
    CorruptSegment {
        /// Segment name.
        segment: String,
        /// Byte offset of the record in the segment.
        offset: u64,
    },
}

impl std::fmt::Display for ReplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplError::Transport(e) => write!(f, "transport failure: {e}"),
            ReplError::Wal(e) => write!(f, "log access failure: {e}"),
            ReplError::Engine(e) => write!(f, "replica apply failure: {e}"),
            ReplError::NotDurable => write!(f, "engine has no write-ahead log to ship"),
            ReplError::NoCheckpoint => write!(f, "transport holds no checkpoint yet"),
            ReplError::BadCheckpoint(why) => write!(f, "bad shipped checkpoint: {why}"),
            ReplError::CorruptSegment { segment, offset } => write!(
                f,
                "shipped segment {segment} is corrupt at byte {offset}: a checksum-valid record does not decode"
            ),
        }
    }
}

impl std::error::Error for ReplError {}

impl From<TransportError> for ReplError {
    fn from(e: TransportError) -> Self {
        ReplError::Transport(e)
    }
}

impl From<WalError> for ReplError {
    fn from(e: WalError) -> Self {
        ReplError::Wal(e.to_string())
    }
}

impl From<EngineError> for ReplError {
    fn from(e: EngineError) -> Self {
        ReplError::Engine(e)
    }
}
