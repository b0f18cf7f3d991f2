//! The primary side of replication: a background thread that watches
//! the engine's log directory and publishes checkpoint, segments, and
//! manifest through a [`SegmentTransport`].
//!
//! The thread runs a round as soon as a commit or DDL record lands
//! ([`Engine::wait_for_log`]), and at least once per poll interval —
//! which is what ships checkpoints, records of a still-open transaction,
//! and retries after a failed round. Each round the shipper:
//!
//! 1. syncs the engine's log so buffered commit records reach the
//!    segment files (bounding follower staleness by the poll interval
//!    even under `FlushPolicy::NoSync`),
//! 2. re-publishes the checkpoint if its LSN changed (reading only its
//!    header line otherwise),
//! 3. publishes what changed in every segment since the last round:
//!    the bytes appended after the shipped prefix, or the whole segment
//!    when that prefix's tail was rewritten,
//! 4. publishes a fresh [`Manifest`] naming exactly the live segments,
//!    and finally
//! 5. removes transport segments the manifest no longer names.
//!
//! Ordering matters: blobs before manifest, removals after — a follower
//! acting on any manifest it observes finds every blob that manifest
//! names. Transient failures (a segment deleted by a concurrent
//! checkpoint mid-round, a transport hiccup) abort the round, and
//! [`Shipper::last_error`] reports them; the next round starts over from
//! the directory's current truth.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use toposem_storage::Engine;
use toposem_wal::{
    crc32::crc32, list_segments, read_checkpoint, read_checkpoint_meta, segment_first_lsn,
};

use crate::transport::{Manifest, SegmentEntry, SegmentTransport};
use crate::ReplError;

/// Shipper tuning.
#[derive(Clone, Copy, Debug)]
pub struct ShipperConfig {
    /// The longest the shipper waits for a commit before it scans the
    /// log directory anyway.
    pub poll_interval: Duration,
}

impl Default for ShipperConfig {
    fn default() -> Self {
        ShipperConfig {
            poll_interval: Duration::from_millis(50),
        }
    }
}

/// What the shipper remembers about a segment between rounds: shipped
/// length plus a checksum of the shipped tail, so a rewrite after a
/// primary crash-restart (torn tail truncated, new records appended)
/// triggers a whole re-publish instead of an append.
#[derive(Clone, Copy, PartialEq, Eq)]
struct ShippedState {
    len: u64,
    tail_crc: u32,
}

/// Bytes at the end of the shipped prefix that `tail_crc` covers.
const TAIL_LEN: u64 = 64;

/// `bytes` end where the segment ends, and hold at least its last
/// [`TAIL_LEN`] bytes (or all of it).
fn shipped_state(len: u64, bytes: &[u8]) -> ShippedState {
    let tail_start = bytes.len().saturating_sub(TAIL_LEN as usize);
    ShippedState {
        len,
        tail_crc: crc32(&bytes[tail_start..]),
    }
}

/// What a round must publish of one segment.
enum Change {
    /// Nothing: the shipped prefix is intact and nothing follows it.
    None,
    /// Bytes appended after the intact shipped prefix.
    Appended(Vec<u8>),
    /// The whole segment: never shipped, or its shipped suffix was
    /// rewritten.
    Whole(Vec<u8>),
}

/// Reads what changed in the segment at `path` since `prev` was shipped.
/// With a shipped state it reads from the checksummed tail on, so a
/// round costs what was appended, not what the segment holds — a sealed
/// segment costs a 64-byte read.
fn read_change(path: &Path, prev: Option<ShippedState>) -> io::Result<(Change, ShippedState)> {
    let mut file = fs::File::open(path)?;
    if let Some(p) = prev {
        let window = p.len.min(TAIL_LEN);
        file.seek(SeekFrom::Start(p.len - window))?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let window = window as usize;
        if buf.len() >= window && crc32(&buf[..window]) == p.tail_crc {
            if buf.len() == window {
                return Ok((Change::None, p));
            }
            let now = shipped_state(p.len + (buf.len() - window) as u64, &buf);
            return Ok((Change::Appended(buf.split_off(window)), now));
        }
        file.seek(SeekFrom::Start(0))?;
    }
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let now = shipped_state(bytes.len() as u64, &bytes);
    Ok((Change::Whole(bytes), now))
}

/// A handle to the primary-side shipping thread. Dropping it stops the
/// thread after its current round.
pub struct Shipper {
    stop: Arc<AtomicBool>,
    /// Why the thread's latest round failed, if it did.
    last_error: Arc<Mutex<Option<String>>>,
    thread: Option<JoinHandle<()>>,
}

impl Shipper {
    /// Start shipping `engine`'s log through `transport`. Fails with
    /// [`ReplError::NotDurable`] if the engine has no write-ahead log.
    ///
    /// The first round runs synchronously before this returns, so on
    /// success the transport already holds a checkpoint and manifest a
    /// follower can bootstrap from.
    pub fn start(
        engine: Arc<Engine>,
        transport: Arc<dyn SegmentTransport>,
        cfg: ShipperConfig,
    ) -> Result<Shipper, ReplError> {
        let dir = engine.wal_dir().ok_or(ReplError::NotDurable)?;
        let stop = Arc::new(AtomicBool::new(false));
        let last_error = Arc::new(Mutex::new(None));
        let mut state = ShipperState::default();
        // Taken before each round: a commit the round may have missed
        // takes the log past it and ends the next wait at once.
        let mut seen = engine.wal_next_lsn().unwrap_or(0);
        timed_round(&engine, &dir, transport.as_ref(), &mut state)?;
        let thread = {
            let stop = Arc::clone(&stop);
            let last_error = Arc::clone(&last_error);
            std::thread::Builder::new()
                .name("toposem-shipper".into())
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        engine.wait_for_log(seen, cfg.poll_interval);
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        seen = engine.wal_next_lsn().unwrap_or(seen);
                        // Transient faults (offline transport, racing
                        // checkpoint) abort the round; the next one
                        // re-derives everything from the directory.
                        let outcome = timed_round(&engine, &dir, transport.as_ref(), &mut state);
                        *last_error.lock() = outcome.err().map(|e| e.to_string());
                    }
                })
                .map_err(|e| ReplError::Wal(e.to_string()))?
        };
        Ok(Shipper {
            stop,
            last_error,
            thread: Some(thread),
        })
    }

    /// Why the shipping thread's most recent round failed — the
    /// transport, the log directory, or the sync before shipping — or
    /// `None` when it succeeded. The thread keeps shipping either way,
    /// and the next successful round ships everything the failed ones
    /// did not.
    pub fn last_error(&self) -> Option<String> {
        self.last_error.lock().clone()
    }

    /// Ask the thread to stop and wait for it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

impl Drop for Shipper {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[derive(Default)]
struct ShipperState {
    ckpt_next_lsn: Option<u64>,
    shipped: HashMap<String, ShippedState>,
}

/// One [`ship_round`], counted and timed in the engine's replication
/// metrics.
fn timed_round(
    engine: &Engine,
    dir: &Path,
    transport: &dyn SegmentTransport,
    state: &mut ShipperState,
) -> Result<(), ReplError> {
    let repl = &engine.metrics().repl;
    let t0 = Instant::now();
    let outcome = ship_round(engine, dir, transport, state);
    repl.ship_round_ns.record(t0.elapsed().as_nanos() as u64);
    repl.ship_rounds.inc();
    if outcome.is_err() {
        repl.ship_errors.inc();
    }
    outcome
}

fn ship_round(
    engine: &Engine,
    dir: &Path,
    transport: &dyn SegmentTransport,
    state: &mut ShipperState,
) -> Result<(), ReplError> {
    let repl = Arc::clone(&engine.metrics().repl);

    // Push buffered commit records out to the segment files so they are
    // shippable; without this a NoSync engine's tail would sit in the
    // writer's buffer forever.
    engine.sync()?;

    // The header line says whether the checkpoint moved; only then is
    // the snapshot read. Meta and payload of a shipped checkpoint come
    // from one read — an installation since the header read replaces
    // the file atomically.
    let mut meta = read_checkpoint_meta(dir)?;
    if state.ckpt_next_lsn != Some(meta.next_lsn) {
        let payload;
        (meta, payload) = read_checkpoint(dir)?;
        let bytes = crate::transport::encode_checkpoint(&meta, &payload)?;
        transport.publish_checkpoint(&bytes)?;
        repl.checkpoints_shipped.inc();
        state.ckpt_next_lsn = Some(meta.next_lsn);
    }

    let mut entries: Vec<SegmentEntry> = Vec::new();
    for path in list_segments(dir)? {
        let Some(name) = segment_name_of(&path) else {
            continue;
        };
        let Some(first_lsn) = segment_first_lsn(&name) else {
            continue;
        };
        // May race with a concurrent checkpoint deleting old segments;
        // the resulting error aborts this round and the next one sees
        // the post-checkpoint directory.
        let prev = state.shipped.get(&name).copied();
        let (change, now) = read_change(&path, prev).map_err(|e| ReplError::Wal(e.to_string()))?;
        let prev_len = prev.map_or(0, |p| p.len);
        let published = match change {
            Change::None => None,
            Change::Appended(tail) => Some(transport.extend_segment(&name, prev_len, &tail)),
            Change::Whole(bytes) => Some(transport.publish_segment(&name, &bytes)),
        };
        if let Some(published) = published {
            // Forgotten after a failed publish: the next round
            // re-publishes the segment whole.
            state.shipped.remove(&name);
            published?;
            repl.segments_shipped.inc();
            repl.bytes_shipped.add(now.len.saturating_sub(prev_len));
            state.shipped.insert(name.clone(), now);
        }
        entries.push(SegmentEntry {
            name,
            first_lsn,
            len: now.len,
        });
    }

    let shipped_next_lsn = engine.wal_next_lsn().unwrap_or(meta.next_lsn);
    transport.publish_manifest(&Manifest {
        checkpoint_next_lsn: meta.next_lsn,
        shipped_next_lsn,
        segments: entries.clone(),
    })?;
    repl.shipped_lsn.set(shipped_next_lsn);

    // Only after the manifest stopped naming them is it safe to drop
    // segments from the transport.
    let live: std::collections::HashSet<&str> = entries.iter().map(|e| e.name.as_str()).collect();
    let stale: Vec<String> = state
        .shipped
        .keys()
        .filter(|n| !live.contains(n.as_str()))
        .cloned()
        .collect();
    for name in stale {
        transport.remove_segment(&name)?;
        state.shipped.remove(&name);
    }
    Ok(())
}

fn segment_name_of(path: &Path) -> Option<String> {
    Some(path.file_name()?.to_str()?.to_string())
}
