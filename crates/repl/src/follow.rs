//! The follower side of replication: bootstrap from the shipped
//! checkpoint, replay shipped segments, then tail the live one.
//!
//! A [`Follower`] owns a read-only [`Engine`] built by
//! [`Engine::replica_from_checkpoint`] and advances it by feeding every
//! decoded record to [`Engine::apply_replicated`]. Both run the code
//! `Engine::recover` and `Engine::open` run: one constructor from a
//! checkpoint and one per-record apply that buffers a transaction's
//! operations until its `Commit`. An aborted transaction or a torn tail
//! on the primary therefore never leaks partial state into the replica,
//! and a commit that fails to apply is applied not at all: the engine's
//! watermark stays on it, and the round stops there and retries it the
//! next time instead of skipping past it.
//!
//! A round runs when the transport reports a new manifest
//! ([`SegmentTransport::wait_for_change`]) and at least once per poll
//! interval, which is also the pace on a transport that cannot report.
//!
//! Per segment the follower keeps one byte offset: the end of the last
//! CRC-valid frame it decoded. Each round it fetches only bytes past
//! that offset and stops at the first torn frame, waiting for the
//! shipper to deliver the rest — which makes mid-stream disconnects,
//! partially shipped frames, and primary crash-restarts (the torn
//! suffix is truncated and rewritten, always at or past the follower's
//! offset) all resolve to the same "resume at the offset" behaviour.
//! A whole, checksum-valid frame that does not decode is different: no
//! later byte repairs it, so the round fails with
//! [`ReplError::CorruptSegment`], which [`Follower::last_error`] reports
//! while the follower waits at that offset for the segment to be shipped
//! again. When the manifest's oldest segment starts above the follower's
//! applied LSN, the needed records are gone — the primary checkpointed
//! past this follower — so it re-bootstraps from the newer checkpoint
//! and swaps the engine behind its handle.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use toposem_planner::{Consistency, QueryRequest, QueryResponse, QueryTarget};
use toposem_storage::{Engine, QueryError};
use toposem_wal::{decode_record, Decoded, SEG_HEADER_LEN};

use crate::transport::{decode_checkpoint, SegmentTransport};
use crate::ReplError;

/// Follower tuning.
#[derive(Clone, Copy, Debug)]
pub struct FollowerConfig {
    /// The longest the follower waits for the transport to report a new
    /// manifest before it fetches one anyway; a transport that cannot
    /// report publications is polled at this interval.
    pub poll_interval: Duration,
    /// How long a [`Consistency::AtLeast`] query may wait for
    /// replication to reach its LSN before failing with
    /// [`QueryError::Stale`] — the follower's staleness bound.
    ///
    /// [`Consistency::AtLeast`]: toposem_planner::Consistency::AtLeast
    /// [`QueryError::Stale`]: toposem_storage::QueryError::Stale
    pub max_lsn_wait: Duration,
}

impl Default for FollowerConfig {
    fn default() -> Self {
        FollowerConfig {
            poll_interval: Duration::from_millis(50),
            max_lsn_wait: Duration::from_millis(500),
        }
    }
}

struct FollowerShared {
    transport: Arc<dyn SegmentTransport>,
    /// The replica engine; swapped wholesale on re-bootstrap, so
    /// readers clone the `Arc` and keep a consistent engine even across
    /// a swap.
    engine: RwLock<Arc<Engine>>,
    /// Per-segment decode offsets (bytes into the segment file, so the
    /// header counts). A segment absent here starts at
    /// [`SEG_HEADER_LEN`].
    offsets: Mutex<HashMap<String, usize>>,
    /// Notified after every round that moved the applied LSN, so
    /// [`Follower::wait_for_lsn`] wakes when its LSN arrives instead of
    /// polling for it.
    applied: (std::sync::Mutex<()>, Condvar),
    /// Why the tailing thread's latest round failed, if it did.
    last_error: Mutex<Option<String>>,
}

/// A replication follower: a read-only engine kept current by tailing
/// the shipped log. Dropping the handle stops the tailing thread (the
/// engine stays usable at whatever LSN it reached).
pub struct Follower {
    shared: Arc<FollowerShared>,
    cfg: FollowerConfig,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Follower {
    /// Bootstrap from the transport's current checkpoint, replay
    /// everything already shipped, and start tailing. Fails with
    /// [`ReplError::NoCheckpoint`] if nothing has been shipped yet —
    /// see [`Follower::start_when_ready`] to wait instead.
    pub fn start(
        transport: Arc<dyn SegmentTransport>,
        cfg: FollowerConfig,
    ) -> Result<Follower, ReplError> {
        let engine = bootstrap(transport.as_ref())?;
        let shared = Arc::new(FollowerShared {
            transport,
            engine: RwLock::new(engine),
            offsets: Mutex::new(HashMap::new()),
            applied: Default::default(),
            last_error: Mutex::new(None),
        });
        // Catch up on everything already shipped before returning, so a
        // fresh follower is immediately as current as the transport.
        catch_up(&shared)?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("toposem-follower".into())
                .spawn(move || {
                    let mut seen = 0;
                    while !stop.load(Ordering::SeqCst) {
                        seen = shared.transport.wait_for_change(seen, cfg.poll_interval);
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        // A failed round (link down, apply error,
                        // corrupt segment) leaves the replica where it
                        // is and is reported through `last_error`; the
                        // next round resumes from the recorded offsets.
                        let outcome = catch_up(&shared);
                        *shared.last_error.lock() = outcome.err().map(|e| e.to_string());
                    }
                })
                .map_err(|e| ReplError::Wal(e.to_string()))?
        };
        Ok(Follower {
            shared,
            cfg,
            stop,
            thread: Some(thread),
        })
    }

    /// Like [`Follower::start`], but waits up to `timeout` for the
    /// shipper's first checkpoint to appear.
    pub fn start_when_ready(
        transport: Arc<dyn SegmentTransport>,
        cfg: FollowerConfig,
        timeout: Duration,
    ) -> Result<Follower, ReplError> {
        let deadline = Instant::now() + timeout;
        loop {
            match Self::start(Arc::clone(&transport), cfg) {
                Err(ReplError::NoCheckpoint) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                other => return other,
            }
        }
    }

    /// The replica engine as of now. The `Arc` stays valid across a
    /// re-bootstrap; call again to observe the swapped-in engine.
    pub fn engine(&self) -> Arc<Engine> {
        Arc::clone(&self.shared.engine.read())
    }

    /// LSN up to which every committed record has been applied.
    pub fn applied_lsn(&self) -> u64 {
        self.engine().applied_lsn()
    }

    /// Why the tailing thread's most recent round failed — the link, the
    /// replica's apply, or a corrupt shipped segment — or `None` when it
    /// succeeded. The thread keeps polling either way; a corrupt segment
    /// holds the replica at the record before it until the segment is
    /// shipped again intact.
    pub fn last_error(&self) -> Option<String> {
        self.shared.last_error.lock().clone()
    }

    /// Block until the replica has applied at least `lsn` (true) or
    /// `timeout` elapses (false). Wakes as the round that applies `lsn`
    /// ends; every poll interval it also re-checks on its own, covering
    /// records applied to [`Follower::engine`] from outside the rounds.
    pub fn wait_for_lsn(&self, lsn: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let (lock, cond) = &self.shared.applied;
        let mut guard = lock.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if self.applied_lsn() >= lsn {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let wait = (deadline - now).min(self.cfg.poll_interval);
            guard = cond
                .wait_timeout(guard, wait)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// Ask the tailing thread to stop and wait for it.
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

impl Drop for Follower {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A follower answers the unified query API directly: `Latest` and
/// `Snapshot` run against the replica engine's current state (every
/// replica read is snapshot-consistent anyway — commits apply atomically
/// under the engine's write lock), and `AtLeast(lsn)` first waits out
/// the configured staleness bound ([`FollowerConfig::max_lsn_wait`]) for
/// replication to catch up, then fails with
/// [`toposem_storage::QueryError::Stale`] if it has not.
impl QueryTarget for Follower {
    fn run(&self, req: &QueryRequest) -> Result<QueryResponse, QueryError> {
        if let Consistency::AtLeast(lsn) = req.consistency() {
            if !self.wait_for_lsn(lsn, self.cfg.max_lsn_wait) {
                return Err(QueryError::Stale {
                    want_lsn: lsn,
                    applied_lsn: self.applied_lsn(),
                });
            }
        }
        // The engine's own impl re-checks the (now satisfied) LSN floor
        // and handles the remaining consistency modes.
        self.engine().run(req)
    }
}

/// Build a fresh replica engine from the transport's checkpoint.
fn bootstrap(transport: &dyn SegmentTransport) -> Result<Arc<Engine>, ReplError> {
    let bytes = transport
        .fetch_checkpoint()?
        .ok_or(ReplError::NoCheckpoint)?;
    let (meta, payload) = decode_checkpoint(&bytes)?;
    Ok(Arc::new(Engine::replica_from_checkpoint(meta, payload)?))
}

/// One replication round ([`apply_round`]), then a wake-up for
/// [`Follower::wait_for_lsn`] callers if it moved the applied LSN — also
/// when it failed part-way.
fn catch_up(shared: &FollowerShared) -> Result<(), ReplError> {
    let applied = |s: &FollowerShared| s.engine.read().applied_lsn();
    let before = applied(shared);
    let res = apply_round(shared);
    if applied(shared) != before {
        let _guard = shared.applied.0.lock().unwrap_or_else(|e| e.into_inner());
        shared.applied.1.notify_all();
    }
    res
}

/// Fetches the manifest, re-bootstraps if the shipped log no longer
/// reaches back to our applied LSN, then decodes and applies new bytes
/// from every segment that can still hold records at or above it.
fn apply_round(shared: &FollowerShared) -> Result<(), ReplError> {
    let Some(mut manifest) = shared.transport.fetch_manifest()? else {
        return Ok(());
    };
    manifest.segments.sort_by_key(|s| s.first_lsn);

    let mut engine = Arc::clone(&shared.engine.read());
    engine
        .metrics()
        .repl
        .shipped_lsn
        .set(manifest.shipped_next_lsn);

    // Gap check: every record >= applied_lsn must still be fetchable.
    // The oldest shipped segment's first LSN is the earliest record the
    // transport still holds; if even that is above our applied LSN the
    // primary checkpointed past us and replay cannot continue.
    let applied = engine.applied_lsn();
    let gap = match manifest.segments.first() {
        Some(oldest) => applied < oldest.first_lsn,
        None => applied < manifest.checkpoint_next_lsn,
    };
    if gap && manifest.checkpoint_next_lsn > applied {
        let fresh = bootstrap(shared.transport.as_ref())?;
        // Counters live on the engine's metrics registry, so carry the
        // monotonic ones across the swap.
        let old = &engine.metrics().repl;
        let new = &fresh.metrics().repl;
        new.records_applied.add(old.records_applied.get());
        new.rebootstraps.add(old.rebootstraps.get() + 1);
        new.shipped_lsn.set(manifest.shipped_next_lsn);
        *shared.engine.write() = Arc::clone(&fresh);
        shared.offsets.lock().clear();
        engine = fresh;
    }

    let applied = engine.applied_lsn();
    let mut offsets = shared.offsets.lock();
    for (i, seg) in manifest.segments.iter().enumerate() {
        // A segment is fully below our applied LSN when the next
        // segment starts at or below it: mark it consumed without
        // fetching. (Covers the segments that fed the bootstrap
        // checkpoint and whole segments applied in earlier rounds.)
        if let Some(next) = manifest.segments.get(i + 1) {
            if next.first_lsn <= applied {
                offsets.insert(seg.name.clone(), seg.len as usize);
                continue;
            }
        }
        let from = *offsets.get(&seg.name).unwrap_or(&SEG_HEADER_LEN);
        if (from as u64) >= seg.len {
            continue;
        }
        // A removed-segment race (manifest older than the blob set)
        // surfaces as None: skip, the next manifest resolves it.
        let Some(buf) = shared.transport.fetch_segment(&seg.name, from as u64)? else {
            continue;
        };
        let mut at = 0usize;
        let mut corrupt = false;
        loop {
            match decode_record(&buf, at) {
                Decoded::End => break,
                // A whole, checksum-valid frame that does not decode
                // will not heal by waiting.
                torn @ Decoded::Torn(_) if torn.is_undecodable() => {
                    corrupt = true;
                    break;
                }
                // A torn frame is simply bytes the shipper has not
                // delivered yet; resume here next round.
                Decoded::Torn(_) => break,
                Decoded::Record { rec, next } => {
                    engine.apply_replicated(&rec)?;
                    at = next;
                }
            }
        }
        if at > 0 {
            offsets.insert(seg.name.clone(), from + at);
        }
        if corrupt {
            return Err(ReplError::CorruptSegment {
                segment: seg.name.clone(),
                offset: (from + at) as u64,
            });
        }
    }
    // Forget offsets for segments the manifest no longer names.
    let live: std::collections::HashSet<&str> =
        manifest.segments.iter().map(|s| s.name.as_str()).collect();
    offsets.retain(|name, _| live.contains(name.as_str()));
    Ok(())
}
