//! The segmented log: an append-only writer with group commit, atomic
//! checkpoint installation, and the torn-tail-tolerant scanner recovery
//! is built on.
//!
//! Layout of a log directory:
//!
//! ```text
//! <dir>/checkpoint.snap        meta line (JSON) + '\n' + snapshot payload
//! <dir>/seg-<first_lsn>.wal    20-byte header, then framed records
//! ```
//!
//! Segment files carry a magic/version header and the LSN of their first
//! record; names embed the same LSN zero-padded so lexicographic order is
//! log order. A checkpoint is installed atomically: the snapshot is
//! written to a temp file, fsynced, renamed over `checkpoint.snap`, and
//! only then are the now-redundant segments deleted — a crash between any
//! two steps leaves either the old checkpoint with the full log or the
//! new checkpoint with a (harmlessly replayable) prefix of it.

use std::fs::{self, File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use toposem_obs::WalMetrics;

use crate::record::{decode_record, encode_record_into, Decoded, IndexDef, WalEntry, WalRecord};
use crate::{FlushPolicy, WalConfig, WalError};

const SEG_MAGIC: &[u8; 8] = b"TSWALSEG";
// Version 2: `CreateIndex` records carry an `IndexDef` (kind + attribute
// list) instead of a single attribute name, and checkpoint meta's
// `indexes` field holds `IndexDef`s. Version-1 logs are rejected with an
// explicit unsupported-version error rather than misdecoded (a v1
// `CreateIndex` payload would otherwise read as a torn/corrupt record
// and silently truncate the committed suffix behind it).
const SEG_VERSION: u32 = 2;
/// Length of a segment file's header: magic(8) + version(4) +
/// first_lsn(8). Record frames start at this offset — a replication
/// follower decoding shipped segment bytes skips exactly this prefix.
pub const SEG_HEADER_LEN: usize = 20;
const CKPT_MAGIC: &str = "TOPOSEM-WAL-CKPT";
const CKPT_VERSION: u32 = 2;
const CKPT_NAME: &str = "checkpoint.snap";
const CKPT_TMP_NAME: &str = "checkpoint.tmp";

/// The self-identifying header line of a checkpoint file.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CheckpointMeta {
    /// Format magic; always [`CheckpointMeta::MAGIC`].
    pub magic: String,
    /// Format version.
    pub version: u32,
    /// LSN the log restarts at: records with a smaller LSN are captured
    /// by the snapshot payload and must be skipped on replay.
    pub next_lsn: u64,
    /// First transaction id to allocate after recovery from this
    /// checkpoint.
    pub next_txn: u64,
    /// Index definitions live outside the snapshot payload; each names
    /// its entity, kind, and attribute list so recovery can rebuild
    /// hash, ordered, and composite indexes alike.
    pub indexes: Vec<IndexDef>,
    /// Declared functional dependencies, as named `(lhs, rhs, context)`
    /// triples, so recovery restores enforcement.
    pub fds: Vec<(String, String, String)>,
}

impl CheckpointMeta {
    /// The expected magic string.
    pub const MAGIC: &'static str = CKPT_MAGIC;
}

/// Everything a scan of a log directory yields: the checkpoint and the
/// valid record suffix.
#[derive(Debug)]
pub struct LogScan {
    /// Parsed checkpoint header.
    pub meta: CheckpointMeta,
    /// The checkpoint's snapshot payload (opaque to this crate; the
    /// storage layer decodes it).
    pub snapshot: Vec<u8>,
    /// Checksum-valid records with `lsn >= meta.next_lsn`, in log order.
    pub records: Vec<WalRecord>,
    /// Whether the log ended in a torn (incomplete or corrupt) record
    /// that was discarded.
    pub torn_tail: bool,
}

/// Where the valid portion of the final segment ends — used by
/// [`Wal::open`] to truncate a torn tail before appending.
#[derive(Debug)]
struct TailState {
    /// Path of the last segment, when one exists.
    last_segment: Option<PathBuf>,
    /// Byte length of its valid prefix (`None` when the whole file,
    /// header included, is unusable).
    valid_len: Option<u64>,
    /// One past the highest LSN seen anywhere in the scan.
    next_lsn: u64,
    /// One past the highest transaction id seen.
    next_txn: u64,
}

impl TailState {
    /// The state before any segment is read: what the checkpoint says.
    fn after(meta: &CheckpointMeta) -> TailState {
        TailState {
            last_segment: None,
            valid_len: None,
            next_lsn: meta.next_lsn,
            next_txn: meta.next_txn,
        }
    }
}

/// The canonical file name of the segment whose first record has
/// `first_lsn`. Zero-padded so lexicographic order is log order —
/// replication transports rely on this to ship segments in order.
pub fn segment_name(first_lsn: u64) -> String {
    format!("seg-{first_lsn:020}.wal")
}

/// The first LSN embedded in a segment file name (the inverse of
/// [`segment_name`]); `None` when the name is not a segment name. A
/// follower uses this to skip whole segments below its applied LSN.
pub fn segment_first_lsn(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("seg-")?.strip_suffix(".wal")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Paths of every segment file in `dir`, in log order (the zero-padded
/// names make lexicographic order log order). Public so a replication
/// shipper can enumerate sealed and live segments without reaching into
/// the directory layout by hand.
pub fn list_segments(dir: &Path) -> Result<Vec<PathBuf>, WalError> {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .map(|n| n.starts_with("seg-") && n.ends_with(".wal"))
                .unwrap_or(false)
        })
        .collect();
    // Names embed the zero-padded first LSN, so name order is log order.
    segs.sort();
    Ok(segs)
}

fn sync_dir(dir: &Path) {
    // Directory fsync makes the rename/create durable; failure here is
    // not actionable beyond what the file-level fsyncs already ensured.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

fn corrupt(segment: &Path, offset: usize, reason: &str) -> WalError {
    WalError::Corrupt {
        segment: segment.display().to_string(),
        offset: offset as u64,
        reason: reason.to_owned(),
    }
}

/// The version-stable prefix of a checkpoint header: decoded first so a
/// header whose *other* fields changed shape across versions still
/// reports "unsupported version N" instead of a decode error.
#[derive(Debug, Deserialize)]
struct CheckpointProbe {
    magic: String,
    version: u32,
}

fn open_checkpoint(dir: &Path) -> Result<File, WalError> {
    match File::open(dir.join(CKPT_NAME)) {
        Ok(f) => Ok(f),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(WalError::NoCheckpoint),
        Err(e) => Err(WalError::Io(e)),
    }
}

fn missing_header() -> WalError {
    WalError::BadCheckpoint("missing header line".into())
}

/// Reads the checkpoint file of `dir`.
pub fn read_checkpoint(dir: &Path) -> Result<(CheckpointMeta, Vec<u8>), WalError> {
    let mut bytes = Vec::new();
    open_checkpoint(dir)?.read_to_end(&mut bytes)?;
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(missing_header)?;
    let meta = parse_checkpoint_header(&bytes[..nl])?;
    Ok((meta, bytes[nl + 1..].to_vec()))
}

/// Reads only the header line of `dir`'s checkpoint — what a poller
/// needs to notice a new checkpoint without reading its snapshot.
pub fn read_checkpoint_meta(dir: &Path) -> Result<CheckpointMeta, WalError> {
    let mut line = Vec::new();
    BufReader::new(open_checkpoint(dir)?).read_until(b'\n', &mut line)?;
    if line.pop() != Some(b'\n') {
        return Err(missing_header());
    }
    parse_checkpoint_header(&line)
}

fn parse_checkpoint_header(line: &[u8]) -> Result<CheckpointMeta, WalError> {
    let probe: CheckpointProbe = serde_json::from_slice(line)
        .map_err(|e| WalError::BadCheckpoint(format!("undecodable header: {e}")))?;
    if probe.magic != CKPT_MAGIC {
        return Err(WalError::BadCheckpoint(format!(
            "bad magic {:?}",
            probe.magic
        )));
    }
    if probe.version != CKPT_VERSION {
        return Err(WalError::BadCheckpoint(format!(
            "unsupported version {}",
            probe.version
        )));
    }
    serde_json::from_slice(line)
        .map_err(|e| WalError::BadCheckpoint(format!("undecodable header: {e}")))
}

/// The streaming core of every scan: decodes each segment of `dir` in
/// log order and hands `f` the checksum-valid records with
/// `lsn >= meta.next_lsn` as they are decoded, tracking the tail state
/// [`Wal::open`] needs. Returns whether the log ended torn.
fn scan_segments(
    dir: &Path,
    meta: &CheckpointMeta,
    tail: &mut TailState,
    mut f: impl FnMut(WalRecord),
) -> Result<bool, WalError> {
    let segs = list_segments(dir)?;
    tail.last_segment = segs.last().cloned();
    let mut torn_tail = false;
    for (i, seg) in segs.iter().enumerate() {
        let is_last = i + 1 == segs.len();
        let data = fs::read(seg)?;
        if data.len() < SEG_HEADER_LEN
            || &data[..8] != SEG_MAGIC
            || u32::from_le_bytes(data[8..12].try_into().expect("4 bytes")) != SEG_VERSION
        {
            if is_last {
                // A crash during segment creation can leave a header-less
                // file; the whole file is discardable.
                torn_tail = true;
                tail.valid_len = None;
                break;
            }
            return Err(corrupt(seg, 0, "bad segment header"));
        }
        let mut at = SEG_HEADER_LEN;
        loop {
            match decode_record(&data, at) {
                Decoded::End => break,
                Decoded::Record { rec, next } => {
                    tail.next_lsn = tail.next_lsn.max(rec.lsn + 1);
                    if let Some(txn) = rec.entry.txn() {
                        tail.next_txn = tail.next_txn.max(txn + 1);
                    }
                    if let WalEntry::Checkpoint { next_txn } = rec.entry {
                        tail.next_txn = tail.next_txn.max(next_txn);
                    }
                    // Records below the checkpoint LSN are pre-checkpoint
                    // leftovers (crash between checkpoint installation and
                    // segment deletion): already captured by the snapshot.
                    if rec.lsn >= meta.next_lsn {
                        f(rec);
                    }
                    at = next;
                }
                Decoded::Torn(reason) => {
                    if !is_last {
                        return Err(corrupt(seg, at, reason));
                    }
                    torn_tail = true;
                    break;
                }
            }
        }
        if is_last {
            tail.valid_len = Some(at as u64);
        }
    }
    Ok(torn_tail)
}

fn scan_inner(dir: &Path) -> Result<(LogScan, TailState), WalError> {
    let (meta, snapshot) = read_checkpoint(dir)?;
    let mut tail = TailState::after(&meta);
    let mut records = Vec::new();
    let torn_tail = scan_segments(dir, &meta, &mut tail, |rec| records.push(rec))?;
    Ok((
        LogScan {
            meta,
            snapshot,
            records,
            torn_tail,
        },
        tail,
    ))
}

/// Scans a log directory without modifying it: checkpoint, valid record
/// suffix, and whether the tail was torn. This is the read-only half of
/// recovery; [`Wal::open`] additionally truncates the torn tail so the
/// log can be appended to again.
pub fn scan(dir: impl AsRef<Path>) -> Result<LogScan, WalError> {
    scan_inner(dir.as_ref()).map(|(s, _)| s)
}

/// [`scan`] without collecting: after reading the checkpoint (`meta`,
/// from [`read_checkpoint`]), hands `f` the same valid records, in log
/// order, as each segment is decoded. Memory stays bounded by one
/// segment plus whatever `f` keeps, however long the log.
pub fn scan_records(
    dir: impl AsRef<Path>,
    meta: &CheckpointMeta,
    f: impl FnMut(WalRecord),
) -> Result<(), WalError> {
    scan_segments(dir.as_ref(), meta, &mut TailState::after(meta), f).map(|_torn| ())
}

/// The append half of the write-ahead log: one open segment, rotation,
/// and the flush policy.
pub struct Wal {
    dir: PathBuf,
    cfg: WalConfig,
    writer: BufWriter<File>,
    seg_path: PathBuf,
    seg_len: u64,
    next_lsn: u64,
    next_txn: u64,
    pending_commits: usize,
    oldest_pending: Option<Instant>,
    /// Whether a record was appended since the last successful fsync;
    /// [`Wal::flush`] of a clean log costs nothing.
    unsynced: bool,
    metrics: Arc<WalMetrics>,
    /// The frame being appended; its buffer is reused across appends.
    frame: Vec<u8>,
}

impl Wal {
    /// Creates a fresh log at `dir` (created if absent). Fails with
    /// [`WalError::AlreadyExists`] when the directory already holds a log
    /// — an existing log must be recovered with [`Wal::open`], never
    /// silently clobbered.
    pub fn create(dir: impl AsRef<Path>, cfg: WalConfig) -> Result<Wal, WalError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        if dir.join(CKPT_NAME).exists() || !list_segments(&dir)?.is_empty() {
            return Err(WalError::AlreadyExists);
        }
        let (writer, seg_path) = Self::new_segment(&dir, 0)?;
        Ok(Wal {
            dir,
            cfg,
            writer,
            seg_path,
            seg_len: SEG_HEADER_LEN as u64,
            next_lsn: 0,
            next_txn: 0,
            pending_commits: 0,
            oldest_pending: None,
            unsynced: false,
            metrics: Arc::new(WalMetrics::default()),
            frame: Vec::new(),
        })
    }

    /// Opens an existing log for appending: scans it, truncates any torn
    /// tail so new records never follow garbage, and positions the writer
    /// after the last valid record. Returns the scan so the caller can
    /// replay it.
    pub fn open(dir: impl AsRef<Path>, cfg: WalConfig) -> Result<(Wal, LogScan), WalError> {
        let dir = dir.as_ref().to_path_buf();
        let (scan, tail) = scan_inner(&dir)?;
        let (writer, seg_path, seg_len) = match (&tail.last_segment, tail.valid_len) {
            (Some(seg), Some(valid)) => {
                let file = OpenOptions::new().write(true).open(seg)?;
                file.set_len(valid)?; // discard the torn suffix
                let mut writer = BufWriter::new(file);
                writer.seek_to_end()?;
                (writer, seg.clone(), valid)
            }
            (Some(seg), None) => {
                // Header-less husk left by a crash mid-creation.
                fs::remove_file(seg)?;
                let (w, p) = Self::new_segment(&dir, tail.next_lsn)?;
                (w, p, SEG_HEADER_LEN as u64)
            }
            (None, _) => {
                let (w, p) = Self::new_segment(&dir, tail.next_lsn)?;
                (w, p, SEG_HEADER_LEN as u64)
            }
        };
        Ok((
            Wal {
                dir,
                cfg,
                writer,
                seg_path,
                seg_len,
                next_lsn: tail.next_lsn,
                next_txn: tail.next_txn,
                pending_commits: 0,
                oldest_pending: None,
                unsynced: false,
                metrics: Arc::new(WalMetrics::default()),
                frame: Vec::new(),
            },
            scan,
        ))
    }

    fn new_segment(dir: &Path, first_lsn: u64) -> Result<(BufWriter<File>, PathBuf), WalError> {
        let path = dir.join(segment_name(first_lsn));
        let file = File::create(&path)?;
        let mut writer = BufWriter::new(file);
        writer.write_all(SEG_MAGIC)?;
        writer.write_all(&SEG_VERSION.to_le_bytes())?;
        writer.write_all(&first_lsn.to_le_bytes())?;
        writer.flush()?;
        writer.get_ref().sync_all()?;
        sync_dir(dir);
        Ok((writer, path))
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The metrics this log records into (fresh per log unless
    /// [`Wal::set_metrics`] shares one).
    pub fn metrics(&self) -> &Arc<WalMetrics> {
        &self.metrics
    }

    /// Share a metrics registry with this log — the engine attaches its
    /// own [`WalMetrics`] here so WAL activity lands in the engine-wide
    /// snapshot. Counts recorded before the swap stay on the old
    /// registry.
    pub fn set_metrics(&mut self, metrics: Arc<WalMetrics>) {
        self.metrics = metrics;
    }

    /// The LSN the next appended record will get.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// The configured flush policy.
    pub fn flush_policy(&self) -> FlushPolicy {
        self.cfg.flush
    }

    /// Allocates a fresh transaction id.
    pub fn alloc_txn(&mut self) -> u64 {
        let t = self.next_txn;
        self.next_txn += 1;
        t
    }

    /// Appends one record (buffered; durability is governed by the flush
    /// policy via [`Wal::commit_appended`] and [`Wal::flush`]). Returns
    /// the record's LSN.
    pub fn append(&mut self, entry: WalEntry) -> Result<u64, WalError> {
        let lsn = self.next_lsn;
        self.frame.clear();
        encode_record_into(&WalRecord { lsn, entry }, &mut self.frame)?;
        // Set first: a failed write may still leave bytes buffered.
        self.unsynced = true;
        self.writer.write_all(&self.frame)?;
        self.next_lsn += 1;
        self.seg_len += self.frame.len() as u64;
        if self.seg_len >= self.cfg.segment_bytes {
            self.rotate()?;
        }
        Ok(lsn)
    }

    fn rotate(&mut self) -> Result<(), WalError> {
        self.flush()?;
        let (writer, seg_path) = Self::new_segment(&self.dir, self.next_lsn)?;
        self.writer = writer;
        self.seg_path = seg_path;
        self.seg_len = SEG_HEADER_LEN as u64;
        Ok(())
    }

    /// Applies the flush policy after a `Commit` record was appended:
    /// `PerCommit` fsyncs now, `GroupCommit` fsyncs once `max_batch`
    /// commits are pending or the oldest has waited `max_wait`, `NoSync`
    /// leaves durability to the OS.
    ///
    /// Under `GroupCommit` this call alone cannot bound latency: the
    /// deadline is only observed when *some* call re-enters the log. The
    /// engine runs a dedicated flusher thread that watches
    /// [`Wal::pending_flush_deadline`] and calls [`Wal::flush`] when the
    /// oldest pending commit's `max_wait` expires, so a lone committer is
    /// fsynced within `max_wait` wall-clock time instead of waiting for
    /// the next commit to arrive.
    pub fn commit_appended(&mut self) -> Result<(), WalError> {
        match self.cfg.flush {
            FlushPolicy::PerCommit => {
                self.metrics.group_commit_batch.record(1);
                self.flush()
            }
            FlushPolicy::NoSync => Ok(()),
            FlushPolicy::GroupCommit {
                max_batch,
                max_wait,
            } => {
                self.pending_commits += 1;
                if self.oldest_pending.is_none() {
                    self.oldest_pending = Some(Instant::now());
                }
                let due = self.pending_commits >= max_batch.max(1)
                    || self
                        .oldest_pending
                        .map(|t| t.elapsed() >= max_wait)
                        .unwrap_or(false);
                if due {
                    self.flush()
                } else {
                    Ok(())
                }
            }
        }
    }

    /// The instant by which the oldest pending group commit must be
    /// fsynced: `oldest_pending + max_wait` under `GroupCommit` with at
    /// least one unsynced commit, `None` otherwise (nothing pending, or a
    /// policy whose commits are never left waiting). A background flusher
    /// sleeps until this instant and then calls [`Wal::flush`].
    pub fn pending_flush_deadline(&self) -> Option<Instant> {
        match self.cfg.flush {
            FlushPolicy::GroupCommit { max_wait, .. } if self.pending_commits > 0 => {
                self.oldest_pending.map(|t| t + max_wait)
            }
            _ => None,
        }
    }

    /// Number of commits appended but not yet fsynced under the group
    /// commit policy.
    pub fn pending_commits(&self) -> usize {
        self.pending_commits
    }

    /// Flushes buffered records and fsyncs the segment, making every
    /// appended record durable regardless of policy. Records the batch
    /// size when pending group commits are drained. A log with nothing
    /// appended since its last fsync is already durable: the call
    /// returns at once and counts no flush.
    pub fn flush(&mut self) -> Result<(), WalError> {
        if !self.unsynced {
            return Ok(());
        }
        let t0 = Instant::now();
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        self.unsynced = false;
        self.metrics.flushes.inc();
        self.metrics.fsync_ns.record(t0.elapsed().as_nanos() as u64);
        if self.pending_commits > 0 {
            self.metrics
                .group_commit_batch
                .record(self.pending_commits as u64);
        }
        self.pending_commits = 0;
        self.oldest_pending = None;
        Ok(())
    }

    /// Installs a checkpoint: atomically replaces `checkpoint.snap` with
    /// `snapshot` (plus a meta header naming `indexes` and the restart
    /// LSN), then truncates the log to a fresh segment holding a single
    /// `Checkpoint` record. The caller guarantees `snapshot` captures all
    /// committed state and that no transaction is in flight.
    pub fn checkpoint(
        &mut self,
        snapshot: &[u8],
        indexes: &[IndexDef],
        fds: &[(String, String, String)],
    ) -> Result<(), WalError> {
        let t0 = Instant::now();
        self.flush()?;
        let meta = CheckpointMeta {
            magic: CKPT_MAGIC.to_owned(),
            version: CKPT_VERSION,
            next_lsn: self.next_lsn,
            next_txn: self.next_txn,
            indexes: indexes.to_vec(),
            fds: fds.to_vec(),
        };
        let tmp = self.dir.join(CKPT_TMP_NAME);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(serde_json::to_string(&meta)?.as_bytes())?;
            f.write_all(b"\n")?;
            f.write_all(snapshot)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.dir.join(CKPT_NAME))?;
        sync_dir(&self.dir);
        // The snapshot now covers every logged record: drop old segments.
        // A new segment is created *first* so a crash never leaves the
        // directory segment-less (and so the current segment's name may
        // be reused in place when no records followed the last rotation).
        let old = list_segments(&self.dir)?;
        let (writer, seg_path) = Self::new_segment(&self.dir, self.next_lsn)?;
        self.writer = writer;
        self.seg_path = seg_path;
        self.seg_len = SEG_HEADER_LEN as u64;
        for p in old {
            if p != self.seg_path {
                fs::remove_file(p)?;
            }
        }
        sync_dir(&self.dir);
        let next_txn = self.next_txn;
        self.append(WalEntry::Checkpoint { next_txn })?;
        self.flush()?;
        self.metrics.checkpoints.inc();
        self.metrics
            .checkpoint_ns
            .record(t0.elapsed().as_nanos() as u64);
        Ok(())
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Best-effort: push buffered records to the OS so only an actual
        // crash (not a clean drop) can lose NoSync/GroupCommit windows.
        let _ = self.writer.flush();
    }
}

/// `BufWriter<File>` helper: position the underlying file at its end.
trait SeekToEnd {
    fn seek_to_end(&mut self) -> std::io::Result<()>;
}

impl SeekToEnd for BufWriter<File> {
    fn seek_to_end(&mut self) -> std::io::Result<()> {
        use std::io::{Seek, SeekFrom};
        self.seek(SeekFrom::End(0)).map(|_| ())
    }
}
