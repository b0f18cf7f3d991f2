//! The shipping seam: a [`SegmentTransport`] moves three kinds of blob
//! from a primary to its followers — the latest checkpoint, raw WAL
//! segment bytes, and a [`Manifest`] tying them together.
//!
//! Transports are deliberately dumb byte stores. All replication
//! intelligence (what to ship, what to fetch, when to re-bootstrap)
//! lives in [`Shipper`](crate::Shipper) and
//! [`Follower`](crate::Follower); a transport only has to deliver the
//! manifest *after* the blobs it names (both implementations here
//! publish the manifest last, and a networked transport would do the
//! same). Segment fetches are offset-based so a tailing follower pulls
//! only bytes it has not decoded yet.

use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use toposem_wal::CheckpointMeta;

use crate::ReplError;

/// Errors from a segment transport.
#[derive(Debug)]
pub enum TransportError {
    /// Underlying I/O failure (or a simulated one, for tests).
    Io(String),
    /// A manifest failed to encode or decode.
    Encode(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport io error: {e}"),
            TransportError::Encode(e) => write!(f, "transport encoding error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e.to_string())
    }
}

impl From<serde_json::Error> for TransportError {
    fn from(e: serde_json::Error) -> Self {
        TransportError::Encode(e.to_string())
    }
}

/// One shipped segment as the manifest describes it.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentEntry {
    /// Segment file name (`seg-<first_lsn>.wal`).
    pub name: String,
    /// LSN of the first record the segment may contain.
    pub first_lsn: u64,
    /// Bytes of the segment shipped so far (header included). The live
    /// segment keeps growing, so this is a lower bound on the next
    /// fetch.
    pub len: u64,
}

/// The checkpoint-segment manifest: the one blob a follower polls.
///
/// It names the current checkpoint and every shipped segment with its
/// first LSN, which lets a follower (a) skip whole segments already
/// below its applied LSN, (b) fetch the rest from its per-segment
/// decode offset only, and (c) detect the "primary checkpointed past
/// me" gap — the oldest listed segment starting *above* its applied
/// LSN — that forces a re-bootstrap.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// `next_lsn` of the published checkpoint; replay starts here after
    /// a bootstrap.
    pub checkpoint_next_lsn: u64,
    /// The primary's `next_lsn` when the manifest was published — the
    /// high-water mark followers report replication lag against.
    pub shipped_next_lsn: u64,
    /// Shipped segments in log order.
    pub segments: Vec<SegmentEntry>,
}

/// A byte store a primary publishes into and followers fetch from.
///
/// `fetch_*` methods return `Ok(None)` when the blob does not exist
/// (yet, or any more) — followers treat that as "try again later", so a
/// transport must reserve errors for real faults.
pub trait SegmentTransport: Send + Sync {
    /// Replace the published checkpoint (encoded with
    /// [`encode_checkpoint`]).
    fn publish_checkpoint(&self, bytes: &[u8]) -> Result<(), TransportError>;
    /// Fetch the published checkpoint, if any.
    fn fetch_checkpoint(&self) -> Result<Option<Vec<u8>>, TransportError>;
    /// Publish (or re-publish, when it has grown) a segment's full
    /// bytes.
    fn publish_segment(&self, name: &str, bytes: &[u8]) -> Result<(), TransportError>;
    /// Append `tail` to a published segment whose first `at` bytes are
    /// published and unchanged. The provided method fetches the segment
    /// back and re-publishes it whole; a store that can append in place
    /// overrides it.
    fn extend_segment(&self, name: &str, at: u64, tail: &[u8]) -> Result<(), TransportError> {
        let mut bytes = self
            .fetch_segment(name, 0)?
            .filter(|b| b.len() as u64 >= at)
            .ok_or_else(|| short_segment(name, at))?;
        bytes.truncate(at as usize);
        bytes.extend_from_slice(tail);
        self.publish_segment(name, &bytes)
    }
    /// Fetch a segment's bytes from byte offset `from`. `Ok(Some)` with
    /// an empty vector means the segment exists but has nothing past
    /// `from` yet.
    fn fetch_segment(&self, name: &str, from: u64) -> Result<Option<Vec<u8>>, TransportError>;
    /// Drop a segment the manifest no longer names.
    fn remove_segment(&self, name: &str) -> Result<(), TransportError>;
    /// Replace the manifest. Publishers must call this *after* the
    /// blobs it names are visible.
    fn publish_manifest(&self, m: &Manifest) -> Result<(), TransportError>;
    /// Fetch the current manifest, if any.
    fn fetch_manifest(&self) -> Result<Option<Manifest>, TransportError>;
    /// Block until the manifest may have changed since change token
    /// `seen`, at most `timeout`, and return the token to pass next time.
    /// A follower takes the token *before* it fetches the manifest, so a
    /// publication after the fetch ends its next wait at once.
    ///
    /// The waiting thread parks, so the wait also ends when anything
    /// unparks it (that is how a stopping follower interrupts it) or
    /// spuriously; callers fetch the manifest and look. The provided
    /// method cannot see publications: it sleeps out `timeout` and
    /// returns `seen`, a poll. A store that can notify overrides it.
    fn wait_for_change(&self, seen: u64, timeout: Duration) -> u64 {
        std::thread::park_timeout(timeout);
        seen
    }
}

fn short_segment(name: &str, at: u64) -> TransportError {
    TransportError::Io(format!("segment {name} holds fewer than {at} bytes"))
}

/// Encode a checkpoint for shipping: the JSON meta line, a newline,
/// then the opaque snapshot payload — the same layout the on-disk
/// checkpoint file uses.
pub fn encode_checkpoint(meta: &CheckpointMeta, payload: &[u8]) -> Result<Vec<u8>, ReplError> {
    let mut bytes =
        serde_json::to_vec(meta).map_err(|e| ReplError::BadCheckpoint(e.to_string()))?;
    bytes.push(b'\n');
    bytes.extend_from_slice(payload);
    Ok(bytes)
}

/// Decode a shipped checkpoint back into its meta and snapshot payload.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<(CheckpointMeta, Vec<u8>), ReplError> {
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| ReplError::BadCheckpoint("missing meta line".into()))?;
    let meta: CheckpointMeta = serde_json::from_slice(&bytes[..nl])
        .map_err(|e| ReplError::BadCheckpoint(e.to_string()))?;
    Ok((meta, bytes[nl + 1..].to_vec()))
}

#[derive(Default)]
struct InProcessState {
    checkpoint: Option<Vec<u8>>,
    manifest: Option<Manifest>,
    segments: HashMap<String, Vec<u8>>,
    /// The change token: bumped by every manifest publication.
    version: u64,
    /// Threads parked in `wait_for_change`, unparked by the next
    /// publication.
    waiters: Vec<Thread>,
}

/// An in-memory transport: primary and followers share one store
/// through cheap clones. Used by the replication tests and by embedded
/// read replicas inside a single process.
///
/// [`set_offline`](InProcessTransport::set_offline) simulates a network
/// partition — every call fails until the link is restored — which is
/// how the tests exercise mid-stream disconnect and catch-up.
///
/// Publishing a manifest wakes every follower waiting in
/// [`wait_for_change`](SegmentTransport::wait_for_change), so a follower
/// applies a shipped commit as it arrives.
#[derive(Clone, Default)]
pub struct InProcessTransport {
    state: Arc<Mutex<InProcessState>>,
    offline: Arc<AtomicBool>,
}

impl InProcessTransport {
    /// A fresh, empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cut (`true`) or restore (`false`) the link; while cut, every
    /// transport call returns an I/O error.
    pub fn set_offline(&self, offline: bool) {
        self.offline.store(offline, Ordering::SeqCst);
    }

    fn check_link(&self) -> Result<(), TransportError> {
        if self.offline.load(Ordering::SeqCst) {
            Err(TransportError::Io("simulated link down".into()))
        } else {
            Ok(())
        }
    }
}

impl SegmentTransport for InProcessTransport {
    fn publish_checkpoint(&self, bytes: &[u8]) -> Result<(), TransportError> {
        self.check_link()?;
        self.state.lock().unwrap().checkpoint = Some(bytes.to_vec());
        Ok(())
    }

    fn fetch_checkpoint(&self) -> Result<Option<Vec<u8>>, TransportError> {
        self.check_link()?;
        Ok(self.state.lock().unwrap().checkpoint.clone())
    }

    fn publish_segment(&self, name: &str, bytes: &[u8]) -> Result<(), TransportError> {
        self.check_link()?;
        self.state
            .lock()
            .unwrap()
            .segments
            .insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn extend_segment(&self, name: &str, at: u64, tail: &[u8]) -> Result<(), TransportError> {
        self.check_link()?;
        let mut state = self.state.lock().unwrap();
        let bytes = state
            .segments
            .get_mut(name)
            .filter(|b| b.len() as u64 >= at)
            .ok_or_else(|| short_segment(name, at))?;
        bytes.truncate(at as usize);
        bytes.extend_from_slice(tail);
        Ok(())
    }

    fn fetch_segment(&self, name: &str, from: u64) -> Result<Option<Vec<u8>>, TransportError> {
        self.check_link()?;
        Ok(self.state.lock().unwrap().segments.get(name).map(|bytes| {
            bytes
                .get(from as usize..)
                .map(|tail| tail.to_vec())
                .unwrap_or_default()
        }))
    }

    fn remove_segment(&self, name: &str) -> Result<(), TransportError> {
        self.check_link()?;
        self.state.lock().unwrap().segments.remove(name);
        Ok(())
    }

    fn publish_manifest(&self, m: &Manifest) -> Result<(), TransportError> {
        self.check_link()?;
        let mut state = self.state.lock().unwrap();
        state.manifest = Some(m.clone());
        state.version += 1;
        for t in state.waiters.drain(..) {
            t.unpark();
        }
        Ok(())
    }

    fn fetch_manifest(&self) -> Result<Option<Manifest>, TransportError> {
        self.check_link()?;
        Ok(self.state.lock().unwrap().manifest.clone())
    }

    fn wait_for_change(&self, seen: u64, timeout: Duration) -> u64 {
        let me = std::thread::current();
        {
            let mut state = self.state.lock().unwrap();
            if state.version != seen {
                return state.version;
            }
            // Registered under the lock that publication takes: a
            // publication after the check finds this thread to unpark.
            state.waiters.push(me.clone());
        }
        std::thread::park_timeout(timeout);
        let mut state = self.state.lock().unwrap();
        state.waiters.retain(|t| t.id() != me.id());
        state.version
    }
}

const DIR_CKPT: &str = "checkpoint.repl";
const DIR_MANIFEST: &str = "manifest.json";

/// A spool-directory transport: blobs are plain files under one root,
/// suitable for followers on a shared filesystem. Checkpoint and
/// manifest are replaced atomically (write-temp then rename) so a
/// follower never reads a half-written one; segments are whole-file
/// rewrites, which is safe because followers only trust bytes the
/// manifest already covers and the CRC framing rejects any torn tail.
#[derive(Clone, Debug)]
pub struct DirTransport {
    root: PathBuf,
}

impl DirTransport {
    /// Open (creating if needed) a spool rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Result<Self, TransportError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(DirTransport { root })
    }

    /// The spool directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), TransportError> {
        let tmp = self.root.join(format!("{name}.tmp"));
        let dst = self.root.join(name);
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, &dst)?;
        Ok(())
    }

    fn read_optional(&self, name: &str) -> Result<Option<Vec<u8>>, TransportError> {
        match fs::read(self.root.join(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

impl SegmentTransport for DirTransport {
    fn publish_checkpoint(&self, bytes: &[u8]) -> Result<(), TransportError> {
        self.write_atomic(DIR_CKPT, bytes)
    }

    fn fetch_checkpoint(&self) -> Result<Option<Vec<u8>>, TransportError> {
        self.read_optional(DIR_CKPT)
    }

    fn publish_segment(&self, name: &str, bytes: &[u8]) -> Result<(), TransportError> {
        self.write_atomic(name, bytes)
    }

    fn fetch_segment(&self, name: &str, from: u64) -> Result<Option<Vec<u8>>, TransportError> {
        Ok(self.read_optional(name)?.map(|bytes| {
            bytes
                .get(from as usize..)
                .map(|tail| tail.to_vec())
                .unwrap_or_default()
        }))
    }

    fn remove_segment(&self, name: &str) -> Result<(), TransportError> {
        match fs::remove_file(self.root.join(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn publish_manifest(&self, m: &Manifest) -> Result<(), TransportError> {
        self.write_atomic(DIR_MANIFEST, &serde_json::to_vec(m)?)
    }

    fn fetch_manifest(&self) -> Result<Option<Manifest>, TransportError> {
        match self.read_optional(DIR_MANIFEST)? {
            Some(bytes) => Ok(Some(serde_json::from_slice(&bytes)?)),
            None => Ok(None),
        }
    }
}
