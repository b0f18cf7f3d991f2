//! The storage engine: a concurrent, transaction-capable wrapper around
//! [`toposem_extension::Database`] that *enforces* the model — containment
//! by maintained inserts/deletes, declared FDs rejected on violation, and
//! domain checks at the boundary.
//!
//! The engine is the piece the paper never built; it exists to prove the
//! model is operational, not just descriptive. Since PR 2 it is also
//! *durable*: attach a [`toposem_wal::Wal`] (via [`Engine::durable`] or
//! [`Engine::open`]) and every mutation is redo-logged logically,
//! [`Engine::commit`] becomes the durability point under the configured
//! flush policy, [`Engine::checkpoint`] installs a snapshot and truncates
//! the log, and [`Engine::recover`] rebuilds the committed state — with
//! indexes and statistics — after a crash.

use std::any::Any;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use parking_lot::{RwLock, RwLockWriteGuard};
use toposem_core::TypeId;
use toposem_extension::{Database, Instance, InstanceError, LogicalOp, Value};
use toposem_fd::{check_fd, Fd};
use toposem_obs::{EngineMetrics, MetricsSnapshot, PlanCacheStats, QueryTrace, TraceRing};
use toposem_wal::{
    CheckpointMeta, FlushPolicy, IndexDef, IndexKindDef, Wal, WalConfig, WalEntry, WalError,
    WalRecord,
};

use crate::index::{CompositeIndex, HashIndex, Index, IndexKind, OrdIndex};
use crate::snapshot;
use crate::snapshot::EngineSnapshot;
use crate::stats::{Statistics, StatisticsCache};

/// Errors surfaced by engine operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The instance failed schema/domain validation.
    Invalid(InstanceError),
    /// The insert would violate a declared FD; the offending dependency is
    /// returned.
    FdViolation(Fd),
    /// No active transaction to commit/rollback.
    NoTransaction,
    /// `begin` was called while a transaction is already active. The
    /// engine is single-writer with flat transactions; silently
    /// flattening nested begins would let one transaction emit two WAL
    /// `Begin` records.
    TransactionActive,
    /// A durable-only operation (checkpoint, sync) was called on an
    /// engine with no write-ahead log attached.
    NotDurable,
    /// An index DDL statement was malformed: no attributes, a repeated
    /// attribute, or an attribute outside the indexed entity type.
    BadIndexDefinition(String),
    /// The write-ahead log failed (message carries the
    /// [`toposem_wal::WalError`] rendering).
    Wal(String),
    /// Checkpoint encoding or recovery replay failed.
    Recovery(String),
    /// The engine is a read-only replica: its state advances only
    /// through [`Engine::apply_replicated`], never through direct
    /// writes or DDL.
    ReadOnly,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Invalid(e) => write!(f, "invalid instance: {e}"),
            EngineError::FdViolation(fd) => write!(f, "functional dependency violated: {fd:?}"),
            EngineError::NoTransaction => write!(f, "no active transaction"),
            EngineError::TransactionActive => {
                write!(f, "a transaction is already active; commit or roll it back")
            }
            EngineError::NotDurable => write!(f, "engine has no write-ahead log attached"),
            EngineError::BadIndexDefinition(why) => write!(f, "bad index definition: {why}"),
            EngineError::Wal(e) => write!(f, "write-ahead log failure: {e}"),
            EngineError::Recovery(e) => write!(f, "recovery failure: {e}"),
            EngineError::ReadOnly => {
                write!(
                    f,
                    "engine is a read-only replica; route writes to the primary"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<InstanceError> for EngineError {
    fn from(e: InstanceError) -> Self {
        EngineError::Invalid(e)
    }
}

impl From<WalError> for EngineError {
    fn from(e: WalError) -> Self {
        EngineError::Wal(e.to_string())
    }
}

/// One undo-log entry.
#[derive(Clone, Debug)]
enum Undo {
    /// Reverse of an insert: remove exactly these freshly-stored pairs
    /// (the instance plus its eager containment propagations).
    UnInsert(Vec<(TypeId, Instance)>),
    /// Reverse of a delete: restore these (type, tuple) pairs.
    Restore(Vec<(TypeId, Instance)>),
}

/// Which way a logged logical operation mutates.
#[derive(Clone, Copy, Debug)]
enum LogKind {
    Insert,
    Delete,
}

/// Entries retained at most; a full cache evicts an arbitrary entry
/// (plans are cheap to rebuild, so dumb eviction beats LRU bookkeeping).
const PLAN_CACHE_CAP: usize = 512;

/// Cached physical plans, keyed by query fingerprint and validated
/// against the statistics epoch: any mutation bumps the epoch, making
/// every cached plan unreachable; the map is cleared lazily when a plan
/// from a *newer* epoch is stored (never rolled backwards by a lagging
/// reader). Values are type-erased so the planner crate — which depends
/// on this one — can cache its own plan type here. Hit/miss/store
/// counters live in the engine's [`EngineMetrics`] registry (atomic, so
/// cache hits need only the engine's read lock).
struct PlanCache {
    epoch: u64,
    plans: HashMap<u64, Arc<dyn Any + Send + Sync>>,
}

impl PlanCache {
    fn new() -> Self {
        PlanCache {
            epoch: 0,
            plans: HashMap::new(),
        }
    }
}

struct Inner {
    db: Database,
    declared_fds: Vec<Fd>,
    /// Secondary indexes, indexed by `TypeId::index()`; each entity type
    /// may carry any number of hash, ordered, and composite indexes.
    indexes: Vec<Vec<Index>>,
    txn_log: Option<Vec<Undo>>,
    /// WAL transaction id of the active explicit transaction.
    current_txn: Option<u64>,
    /// Trace token of the active explicit transaction. Engine-level
    /// (independent of WAL ids, so volatile engines have one too):
    /// queries executed inside the transaction stamp it into their
    /// trace entries, and the commit attributes its `commit_ns` back to
    /// them.
    txn_token: Option<u64>,
    /// Monotonic source of `txn_token`s.
    txn_seq: u64,
    /// The redo log, when the engine is durable.
    wal: Option<Wal>,
    /// Cached planner statistics; dropped on any mutation.
    stats: Option<Arc<Statistics>>,
    /// Per-type statistics carried across epochs, shared with every
    /// snapshot: rebuilding `stats` (here or in a snapshot) recollects
    /// only the types whose relations changed.
    stats_cache: Arc<parking_lot::Mutex<StatisticsCache>>,
    /// Generation counter for `stats`: bumped on every mutation, so
    /// plans and other statistics-derived artefacts can be validated.
    stats_epoch: u64,
    plan_cache: PlanCache,
    /// Cached MVCC snapshot of the last *committed* state, handed to
    /// readers by [`Engine::snapshot`]. Primed at construction, so a
    /// reader arriving while the very first transaction is active still
    /// finds a committed state to read lock-free. Invariant: while a
    /// transaction is active, this (when present) is the committed
    /// pre-transaction state — [`Engine::begin`] refreshes it before
    /// any uncommitted write lands, and in-transaction mutations never
    /// mark it stale.
    snapshot: Option<Arc<EngineSnapshot>>,
    /// Whether `snapshot` lags the committed state and must be rebuilt
    /// before the next use.
    snapshot_stale: bool,
    /// Whether any reader has ever asked for a snapshot. Gates the
    /// refresh in [`Engine::begin`]: a write-only workload (no snapshot
    /// readers) must not clone the whole database on every begin just
    /// to keep a snapshot nobody reads current — it drops the stale
    /// snapshot in O(1) instead. Atomic so the lock-free read path of
    /// [`Engine::snapshot`] can set it under the shared lock.
    snapshot_requested: AtomicBool,
    /// Whether this engine is a read-only replica: every public mutator
    /// is rejected, and state advances only through
    /// [`Engine::apply_replicated`].
    read_only: bool,
    /// One past the LSN of the last log record applied by
    /// [`Engine::apply_record`] (seeded with the checkpoint's `next_lsn`
    /// on an engine built from one; 0 elsewhere). Records below this
    /// watermark are idempotently skipped, so a follower can re-decode a
    /// segment from the start after a disconnect.
    applied_lsn: u64,
    /// Logged transactions whose `Commit` has not been applied yet:
    /// their operations buffer here and apply atomically on commit or
    /// vanish on abort.
    repl_active: HashMap<u64, Vec<(LogKind, LogicalOp)>>,
}

impl Inner {
    /// Every mutation invalidates cached statistics and advances the
    /// epoch that keys the plan cache. The committed-state snapshot goes
    /// stale only for mutations *outside* a transaction: uncommitted
    /// writes must never become visible through it, and commit/rollback
    /// handle their own invalidation.
    fn note_mutation(&mut self, metrics: &EngineMetrics) {
        self.stats = None;
        self.stats_epoch += 1;
        if self.txn_log.is_none() {
            self.snapshot_stale = true;
        }
        metrics.stats_epoch_bumps.inc();
        metrics.stats_epoch.set(self.stats_epoch);
    }

    /// Adds freshly stored `(type, tuple)` pairs — an instance plus its
    /// eager containment propagations — to every index of their type.
    fn index_insert(&mut self, pairs: &[(TypeId, Instance)]) {
        for (s, u) in pairs {
            for idx in &mut self.indexes[s.index()] {
                idx.insert(u);
            }
        }
    }

    /// Removes `(type, tuple)` pairs — a delete's cascade victims, or an
    /// undone insert — from every index of their type.
    fn index_remove(&mut self, pairs: &[(TypeId, Instance)]) {
        for (s, u) in pairs {
            for idx in &mut self.indexes[s.index()] {
                idx.remove(u);
            }
        }
    }

    /// Whether the write just made (an autocommitted op or a `commit`)
    /// opened a group-commit window — the only time the flusher needs
    /// waking. Later commits join a window whose deadline (set by its
    /// oldest commit) the flusher is already sleeping toward, and writes
    /// inside a transaction commit nothing; waking it for those only cost
    /// a context switch per statement.
    fn opened_flush_window(&self) -> bool {
        self.txn_log.is_none() && self.wal.as_ref().is_some_and(|w| w.pending_commits() == 1)
    }

    /// Drops the engine's reference to the cached snapshot ahead of an
    /// autocommitted write, which is about to make it stale anyway (a
    /// stale snapshot is never served). When no reader holds it either,
    /// the relations and indexes it shared become unshared again, so the
    /// write updates them in place instead of copying them — and the
    /// superseded epoch is not left for the next reader's rebuild to
    /// free. Inside a transaction the snapshot is the committed state
    /// readers are served, so it stays.
    fn retire_snapshot(&mut self) {
        if self.txn_log.is_none() {
            self.snapshot = None;
            self.snapshot_stale = true;
        }
    }

    /// Rebuilds the committed-state snapshot from the current database
    /// and indexes — O(types + indexes), as relations and indexes are
    /// shared copy-on-write. Only call when no transaction is active
    /// (or, from `begin`, before the transaction has mutated anything).
    fn refresh_snapshot(&mut self, metrics: &Arc<EngineMetrics>) {
        let t0 = Instant::now();
        self.snapshot = Some(Arc::new(EngineSnapshot::capture(
            self.db.clone(),
            self.indexes.clone(),
            self.stats_epoch,
            Arc::clone(metrics),
            Arc::clone(&self.stats_cache),
        )));
        self.snapshot_stale = false;
        metrics.snapshot_rebuilds.inc();
        metrics
            .snapshot_rebuild_ns
            .record(t0.elapsed().as_nanos() as u64);
    }
}

/// Wake/shutdown flags shared between the engine and its group-commit
/// flusher thread.
#[derive(Default)]
struct FlusherState {
    /// A commit left the WAL with a pending flush deadline.
    wake: bool,
    /// The engine is dropping; the thread must exit.
    shutdown: bool,
}

struct FlusherShared {
    state: Mutex<FlusherState>,
    cond: Condvar,
}

/// Handle to the dedicated group-commit flusher: a background thread
/// that watches [`Wal::pending_flush_deadline`] and fsyncs when the
/// oldest pending commit's `max_wait` expires. Without it the deadline
/// is only evaluated when the *next* commit arrives, so a lone committer
/// under `FlushPolicy::GroupCommit` could stay unsynced indefinitely;
/// with it, every acknowledged commit is durable within `max_wait`
/// wall-clock time. Signals shutdown and joins the thread on drop.
struct GroupCommitFlusher {
    shared: Arc<FlusherShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl GroupCommitFlusher {
    fn spawn(inner: Arc<RwLock<Inner>>) -> GroupCommitFlusher {
        let shared = Arc::new(FlusherShared {
            state: Mutex::new(FlusherState::default()),
            cond: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("toposem-wal-flusher".into())
            .spawn(move || Self::run(inner, thread_shared))
            .expect("spawn wal flusher thread");
        GroupCommitFlusher {
            shared,
            thread: Some(thread),
        }
    }

    /// Signals that a commit left the WAL with a pending flush deadline.
    fn kick(&self) {
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        st.wake = true;
        self.shared.cond.notify_one();
    }

    fn run(inner: Arc<RwLock<Inner>>, shared: Arc<FlusherShared>) {
        let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if st.shutdown {
                return;
            }
            if !st.wake {
                st = shared.cond.wait(st).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            st.wake = false;
            drop(st);
            // Drain pending deadlines: sleep until the oldest pending
            // commit's deadline, then flush. Only a commit that opens a
            // window kicks (later ones would shorten nothing — the oldest
            // deadline governs); the deadline is re-read after every
            // wake, and a batch-triggered flush clears it, ending the
            // loop.
            loop {
                let deadline = inner
                    .read()
                    .wal
                    .as_ref()
                    .and_then(Wal::pending_flush_deadline);
                let Some(deadline) = deadline else { break };
                let now = Instant::now();
                if deadline <= now {
                    let mut guard = inner.write();
                    if let Some(wal) = guard.wal.as_mut() {
                        if wal
                            .pending_flush_deadline()
                            .is_some_and(|d| d <= Instant::now())
                        {
                            // An fsync failure resurfaces on the next
                            // commit's own flush; a background thread has
                            // nobody to report it to.
                            let _ = wal.flush();
                        }
                    }
                    continue;
                }
                let wait = deadline - now;
                let mut guard = shared.state.lock().unwrap_or_else(|e| e.into_inner());
                if guard.shutdown {
                    return;
                }
                if !guard.wake {
                    let (g, _timed_out) = shared
                        .cond
                        .wait_timeout(guard, wait)
                        .unwrap_or_else(|e| e.into_inner());
                    guard = g;
                    if guard.shutdown {
                        return;
                    }
                }
                guard.wake = false;
                drop(guard);
            }
            st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Drop for GroupCommitFlusher {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.shutdown = true;
            self.shared.cond.notify_one();
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The log-advance signal behind [`Engine::wait_for_log`]: the log's
/// commit watermark, and the threads parked until it moves.
///
/// A writer stores the watermark, then reads the waiter count; a waiter
/// counts itself in, then reads the watermark under `parked`'s lock, and
/// a writer that saw it counted takes that lock to unpark. Either the
/// writer sees the waiter and wakes it, or the waiter sees the new
/// watermark, so no wake-up is lost — and a write nobody waits for pays
/// one atomic load.
#[derive(Default)]
struct LogSignal {
    /// The log's `next_lsn` when it was attached, then after each
    /// `Commit` or DDL record. Stored under the engine write lock, so it
    /// only grows.
    lsn: AtomicU64,
    /// Threads inside [`LogSignal::wait`].
    waiters: AtomicUsize,
    /// The threads to unpark when the watermark moves.
    parked: Mutex<Vec<std::thread::Thread>>,
}

impl LogSignal {
    /// Moves the watermark to `lsn`; call under the engine write lock.
    fn publish(&self, lsn: u64) {
        self.lsn.store(lsn, Ordering::SeqCst);
    }

    /// Wakes every waiter; call after releasing the engine lock.
    fn notify(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            // A push or retain leaves the list valid at every step.
            let parked = self.parked.lock().unwrap_or_else(|e| e.into_inner());
            for t in parked.iter() {
                t.unpark();
            }
        }
    }

    fn wait(&self, past_lsn: u64, timeout: Duration) -> bool {
        let me = std::thread::current();
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let passed = {
            let mut parked = self.parked.lock().unwrap_or_else(|e| e.into_inner());
            let passed = self.lsn.load(Ordering::SeqCst) > past_lsn;
            if !passed {
                parked.push(me.clone());
            }
            passed
        };
        if !passed {
            std::thread::park_timeout(timeout);
            self.parked
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .retain(|t| t.id() != me.id());
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        self.lsn.load(Ordering::SeqCst) > past_lsn
    }
}

/// The one mapping between live index kinds and the kinds the log and
/// checkpoints name.
const INDEX_KINDS: [(IndexKind, IndexKindDef); 3] = [
    (IndexKind::Hash, IndexKindDef::Hash),
    (IndexKind::Ordered, IndexKindDef::Ordered),
    (IndexKind::Composite, IndexKindDef::Composite),
];

/// The logged/checkpointed definition of the index of `kind` over
/// `attrs` on `e`.
fn index_def(
    schema: &toposem_core::Schema,
    e: TypeId,
    kind: IndexKind,
    attrs: &[toposem_core::AttrId],
) -> IndexDef {
    let (_, kind) = INDEX_KINDS
        .into_iter()
        .find(|(k, _)| *k == kind)
        .expect("INDEX_KINDS maps every index kind");
    IndexDef {
        entity: schema.type_name(e).to_owned(),
        kind,
        attrs: attrs
            .iter()
            .map(|a| schema.attr_name(*a).to_owned())
            .collect(),
    }
}

/// Resolves a logged index definition's names against the live schema.
fn resolve_index_def(
    schema: &toposem_core::Schema,
    def: &IndexDef,
) -> Result<(TypeId, IndexKind, Vec<toposem_core::AttrId>), EngineError> {
    let (kind, _) = INDEX_KINDS
        .into_iter()
        .find(|(_, d)| *d == def.kind)
        .expect("INDEX_KINDS maps every logged index kind");
    let e = schema.type_id(&def.entity);
    let attrs: Option<Vec<toposem_core::AttrId>> =
        def.attrs.iter().map(|a| schema.attr_id(a)).collect();
    let (Some(e), Some(attrs)) = (e, attrs) else {
        return Err(EngineError::Recovery(format!(
            "logged index ({}, {:?}) names no schema element",
            def.entity, def.attrs
        )));
    };
    Ok((e, kind, attrs))
}

/// The logged/checkpointed `(lhs, rhs, context)` names of a declared FD.
fn fd_names(schema: &toposem_core::Schema, fd: &Fd) -> (String, String, String) {
    (
        schema.type_name(fd.lhs).to_owned(),
        schema.type_name(fd.rhs).to_owned(),
        schema.type_name(fd.context).to_owned(),
    )
}

/// Resolves a logged FD's names against the live schema.
fn resolve_fd(
    schema: &toposem_core::Schema,
    (lhs, rhs, context): (&str, &str, &str),
) -> Result<Fd, EngineError> {
    match (
        schema.type_id(lhs),
        schema.type_id(rhs),
        schema.type_id(context),
    ) {
        (Some(l), Some(r), Some(c)) => Ok(Fd::unchecked(l, r, c)),
        _ => Err(EngineError::Recovery(format!(
            "logged fd ({lhs}, {rhs}, {context}) names no schema element"
        ))),
    }
}

/// The engine. Interior-mutable and `Sync`; all operations take `&self`.
pub struct Engine {
    inner: Arc<RwLock<Inner>>,
    /// Engine-wide metrics registry; lock-free, shared with the attached
    /// WAL (its [`toposem_obs::WalMetrics`] half).
    metrics: Arc<EngineMetrics>,
    /// Ring of recent query/commit traces.
    trace: Arc<TraceRing>,
    /// Background group-commit flusher, present when a WAL with
    /// `FlushPolicy::GroupCommit` is attached.
    flusher: Option<GroupCommitFlusher>,
    /// Wakes [`Engine::wait_for_log`] callers as commits land.
    log_signal: LogSignal,
}

impl Engine {
    /// Wraps a database (volatile: no write-ahead log).
    pub fn new(db: Database) -> Self {
        let n = db.schema().type_count();
        let metrics = Arc::new(EngineMetrics::new());
        let mut inner = Inner {
            db,
            declared_fds: Vec::new(),
            indexes: vec![Vec::new(); n],
            txn_log: None,
            current_txn: None,
            txn_token: None,
            txn_seq: 0,
            wal: None,
            stats: None,
            stats_cache: Arc::default(),
            stats_epoch: 0,
            plan_cache: PlanCache::new(),
            snapshot: None,
            snapshot_stale: false,
            snapshot_requested: AtomicBool::new(false),
            read_only: false,
            applied_lsn: 0,
            repl_active: HashMap::new(),
        };
        // Prime the committed-state snapshot: a reader that arrives
        // while the very first write transaction is active must find a
        // committed state to read lock-free rather than falling back to
        // the locked path.
        inner.refresh_snapshot(&metrics);
        Engine {
            inner: Arc::new(RwLock::new(inner)),
            metrics,
            trace: Arc::new(TraceRing::new(toposem_obs::trace::DEFAULT_TRACE_CAP)),
            flusher: None,
            log_signal: LogSignal::default(),
        }
    }

    /// Attaches a prepared log and, under the group-commit policy, the
    /// dedicated flusher thread that bounds commit-to-durable latency.
    fn attach_wal(&mut self, mut wal: Wal) {
        wal.set_metrics(Arc::clone(&self.metrics.wal));
        let group_commit = matches!(wal.flush_policy(), FlushPolicy::GroupCommit { .. });
        self.log_signal.publish(wal.next_lsn());
        self.inner.write().wal = Some(wal);
        if group_commit {
            self.flusher = Some(GroupCommitFlusher::spawn(Arc::clone(&self.inner)));
        }
    }

    /// Wraps a database durably: writes an initial checkpoint of `db`
    /// through `wal` (so recovery always has a base snapshot) and
    /// attaches the log. Subsequent mutations are redo-logged.
    pub fn durable(db: Database, mut wal: Wal) -> Result<Engine, EngineError> {
        let payload = snapshot::to_vec(&db).map_err(|e| EngineError::Recovery(e.to_string()))?;
        wal.checkpoint(&payload, &[], &[])?;
        let mut eng = Engine::new(db);
        eng.attach_wal(wal);
        Ok(eng)
    }

    /// Opens a durable engine from an existing log directory: recovers
    /// the committed state (checkpoint + committed log suffix), truncates
    /// any torn tail, and continues appending to the same log.
    pub fn open(path: impl AsRef<Path>, cfg: WalConfig) -> Result<Engine, EngineError> {
        let started = Instant::now();
        let (wal, scan) = Wal::open(path, cfg)?;
        let mut eng = Self::from_checkpoint(&scan.meta, &scan.snapshot)?;
        eng.replay_log(started, |apply| {
            scan.records.into_iter().for_each(apply);
            Ok(())
        })?;
        eng.attach_wal(wal);
        Ok(eng)
    }

    /// Recovers the committed state from a log directory **read-only**:
    /// loads the latest valid checkpoint, replays committed transactions
    /// in commit order, discards uncommitted suffixes, tolerates a torn
    /// final record, and rebuilds indexes and statistics. The returned
    /// engine has no log attached and never modifies the directory —
    /// safe to call repeatedly over the same crash artefact. Records are
    /// replayed as they are decoded, so memory stays bounded by the
    /// transactions in flight, not by the length of the log.
    pub fn recover(path: impl AsRef<Path>) -> Result<Engine, EngineError> {
        let started = Instant::now();
        let path = path.as_ref();
        let (meta, snapshot) = toposem_wal::read_checkpoint(path)?;
        let eng = Self::from_checkpoint(&meta, &snapshot)?;
        eng.replay_log(started, |apply| {
            toposem_wal::scan_records(path, &meta, apply)
        })?;
        // Rebuild statistics eagerly so the recovered engine is
        // immediately plannable.
        let _ = eng.statistics();
        Ok(eng)
    }

    /// The one constructor from a checkpoint, under [`Engine::open`],
    /// [`Engine::recover`], and [`Engine::replica_from_checkpoint`]:
    /// loads the snapshot payload, installs the meta's index and FD
    /// definitions, and sets the log watermark to `meta.next_lsn`.
    fn from_checkpoint(meta: &CheckpointMeta, snapshot: &[u8]) -> Result<Engine, EngineError> {
        let db = snapshot::load(snapshot).map_err(|e| EngineError::Recovery(e.to_string()))?;
        let eng = Engine::new(db);
        {
            let mut inner = eng.inner.write();
            for def in &meta.indexes {
                let (e, kind, attrs) = resolve_index_def(inner.db.schema(), def)?;
                Self::create_index_locked(&mut inner, &eng.metrics, e, kind, &attrs)?;
            }
            for (lhs, rhs, context) in &meta.fds {
                let fd = resolve_fd(inner.db.schema(), (lhs, rhs, context))?;
                Self::declare_fd_locked(&mut inner, fd)?;
            }
            inner.applied_lsn = meta.next_lsn;
        }
        Ok(eng)
    }

    /// Replays the records `feed` hands to its callback — by value, so
    /// their operations move into the instances replay builds — through
    /// [`Engine::apply_record`], and counts the run as a recovery that
    /// began at `started`. The first failing record fails the whole
    /// replay; transactions still in flight at the end never committed
    /// and are discarded.
    fn replay_log(
        &self,
        started: Instant,
        feed: impl FnOnce(&mut dyn FnMut(WalRecord)) -> Result<(), WalError>,
    ) -> Result<(), EngineError> {
        let mut inner = self.inner.write();
        let (mut txns, mut ops) = (0, 0);
        let mut replayed = Ok(());
        feed(&mut |rec| {
            if replayed.is_ok() {
                match Self::apply_record(&mut inner, &self.metrics, rec) {
                    Ok(Some(n)) => {
                        txns += 1;
                        ops += n;
                    }
                    Ok(None) => {}
                    Err(e) => replayed = Err(e),
                }
            }
        })?;
        replayed?;
        inner.repl_active.clear();
        self.metrics.recovery_runs.inc();
        self.metrics.recovery_replayed_txns.add(txns);
        self.metrics.recovery_replayed_ops.add(ops);
        self.metrics
            .recovery_ns
            .record(started.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Builds a **read-only replica** engine from a shipped checkpoint —
    /// the same construction recovery starts from, with the applied-LSN
    /// watermark at the checkpoint's `next_lsn`. The replica's state
    /// then advances only through [`Engine::apply_replicated`]; every
    /// public mutator returns [`EngineError::ReadOnly`].
    pub fn replica_from_checkpoint(
        meta: CheckpointMeta,
        snapshot: Vec<u8>,
    ) -> Result<Engine, EngineError> {
        let eng = Self::from_checkpoint(&meta, &snapshot)?;
        {
            let mut inner = eng.inner.write();
            inner.read_only = true;
            // Index installation marked the primed snapshot stale;
            // rebuild so the first replica reader is lock-free
            // immediately.
            inner.refresh_snapshot(&eng.metrics);
        }
        eng.metrics.repl.applied_lsn.set(meta.next_lsn);
        Ok(eng)
    }

    /// Applies one shipped WAL record to a replica through the code
    /// recovery and reopen replay with, and advances the replication
    /// metrics. Operations buffer per transaction and take effect, with
    /// index maintenance, when the `Commit` arrives; DDL applies at its
    /// log position. A record below the applied-LSN watermark is a
    /// no-op, so a follower may re-decode a segment from the start after
    /// a disconnect without double-applying, and counts in no metric.
    /// A `Commit` that fails is applied not at all and leaves the
    /// watermark on it, so a retry fails the same way instead of
    /// skipping past half a transaction.
    pub fn apply_replicated(&self, rec: &WalRecord) -> Result<(), EngineError> {
        let mut inner = self.inner.write();
        let before = inner.applied_lsn;
        Self::apply_record(&mut inner, &self.metrics, rec.clone())?;
        if inner.applied_lsn != before {
            self.metrics.repl.records_applied.inc();
            self.metrics.repl.applied_lsn.set(inner.applied_lsn);
        }
        Ok(())
    }

    /// The one path from a log record to engine state, under recovery,
    /// reopen, and replica apply. Records below the applied-LSN
    /// watermark are skipped. Transactional records buffer per
    /// transaction until their `Commit` applies them (see
    /// [`Engine::apply_committed`]) or their `Abort` drops them; DDL
    /// records apply at their log position. Returns the operation count
    /// of the transaction a `Commit` record applied.
    ///
    /// FD checks are *not* re-run per operation — the primary validated
    /// them before logging, and a replay rejecting a committed record
    /// could only diverge. A logged FD declaration is checked against
    /// the state at its log position, as the primary checked it.
    fn apply_record(
        inner: &mut Inner,
        metrics: &EngineMetrics,
        rec: WalRecord,
    ) -> Result<Option<u64>, EngineError> {
        if rec.lsn < inner.applied_lsn {
            return Ok(None);
        }
        let mut committed = None;
        match rec.entry {
            WalEntry::Begin { txn } => {
                inner.repl_active.insert(txn, Vec::new());
            }
            WalEntry::Insert { txn, op } => {
                let ops = inner.repl_active.entry(txn).or_default();
                ops.push((LogKind::Insert, op));
            }
            WalEntry::Delete { txn, op } => {
                let ops = inner.repl_active.entry(txn).or_default();
                ops.push((LogKind::Delete, op));
            }
            WalEntry::Commit { txn } => {
                committed = Some(Self::apply_committed(inner, metrics, txn)?);
            }
            WalEntry::Abort { txn } => {
                inner.repl_active.remove(&txn);
            }
            WalEntry::Checkpoint { .. } => {}
            WalEntry::CreateIndex { def } => {
                let (e, kind, attrs) = resolve_index_def(inner.db.schema(), &def)?;
                Self::create_index_locked(inner, metrics, e, kind, &attrs)?;
            }
            WalEntry::DropIndex { def } => {
                let (e, kind, attrs) = resolve_index_def(inner.db.schema(), &def)?;
                Self::drop_index_locked(inner, metrics, e, kind, &attrs)?;
            }
            WalEntry::DeclareFd { lhs, rhs, context } => {
                let fd = resolve_fd(inner.db.schema(), (&lhs, &rhs, &context))?;
                Self::declare_fd_locked(inner, fd)?;
            }
        }
        inner.applied_lsn = rec.lsn + 1;
        Ok(committed)
    }

    /// Applies the buffered operations of committed transaction `txn`,
    /// maintaining every affected index, and returns how many there
    /// were. Each operation's values move into the instance it resolves
    /// to. Every operation is resolved against the schema before
    /// anything is mutated: if one fails, nothing is applied and the
    /// transaction is buffered again as it was logged, so a retry fails
    /// the same way.
    fn apply_committed(
        inner: &mut Inner,
        metrics: &EngineMetrics,
        txn: u64,
    ) -> Result<u64, EngineError> {
        let ops = inner.repl_active.remove(&txn).unwrap_or_default();
        let mut resolved = Vec::with_capacity(ops.len());
        let mut pending = ops.into_iter();
        while let Some((kind, op)) = pending.next() {
            match op.resolve(&inner.db) {
                Ok((e, t)) => resolved.push((kind, e, t)),
                Err((err, op)) => {
                    let db = &inner.db;
                    let rebuffered = resolved
                        .into_iter()
                        .map(|(kind, e, t)| (kind, LogicalOp::describe(db, e, &t)))
                        .chain(std::iter::once((kind, op)))
                        .chain(pending)
                        .collect();
                    inner.repl_active.insert(txn, rebuffered);
                    return Err(EngineError::Recovery(err.to_string()));
                }
            }
        }
        let n = resolved.len() as u64;
        if n == 0 {
            return Ok(0);
        }
        inner.retire_snapshot();
        for (kind, e, t) in resolved {
            match kind {
                LogKind::Insert => {
                    let added = inner.db.insert_tracked(e, t);
                    inner.index_insert(&added);
                }
                LogKind::Delete => {
                    // The logged op addresses one instance; its cascade
                    // is recomputed, index entries included.
                    let victims = inner.db.delete_tracked(e, &t);
                    inner.index_remove(&victims);
                }
            }
        }
        // Outside any local transaction, so this also marks the cached
        // snapshot stale: the next reader materialises the commit.
        inner.note_mutation(metrics);
        Ok(n)
    }

    /// One past the LSN of the last log record this engine applied —
    /// by recovery, reopen, or [`Engine::apply_replicated`]; an engine
    /// built from a checkpoint starts at its `next_lsn`, one built by
    /// [`Engine::new`] or [`Engine::durable`] at 0. On a replica this is
    /// the consistency watermark reads wait on.
    pub fn applied_lsn(&self) -> u64 {
        self.inner.read().applied_lsn
    }

    /// Whether this engine is a read-only replica.
    pub fn is_read_only(&self) -> bool {
        self.inner.read().read_only
    }

    /// The LSN the next appended WAL record will get, when a log is
    /// attached — the primary-side watermark replication lag is
    /// measured against.
    pub fn wal_next_lsn(&self) -> Option<u64> {
        self.inner.read().wal.as_ref().map(Wal::next_lsn)
    }

    /// The directory of the attached write-ahead log, when one exists —
    /// where a replication shipper finds checkpoints and segments.
    pub fn wal_dir(&self) -> Option<std::path::PathBuf> {
        self.inner
            .read()
            .wal
            .as_ref()
            .map(|w| w.dir().to_path_buf())
    }

    /// Whether a write-ahead log is attached.
    pub fn is_durable(&self) -> bool {
        self.inner.read().wal.is_some()
    }

    /// Blocks until a `Commit` or DDL record takes the log past
    /// `past_lsn` — its `next_lsn` after that record exceeds `past_lsn` —
    /// and returns true, or returns false once `timeout` elapses. Writers
    /// wake waiters after releasing the engine lock, so a replication
    /// shipper ships a commit as it lands rather than on its next poll.
    /// The wait also ends early when anything unparks the calling thread
    /// (that is how a stopping shipper interrupts it), so callers
    /// re-check what they wait for. An engine without a log publishes
    /// nothing: the call sleeps out `timeout`.
    pub fn wait_for_log(&self, past_lsn: u64, timeout: Duration) -> bool {
        self.log_signal.wait(past_lsn, timeout)
    }

    /// Ends a write that holds `inner`. When `committed` (the write
    /// appended a `Commit` or DDL record, if a log is attached) the log's
    /// new `next_lsn` becomes the [`Engine::wait_for_log`] watermark.
    /// Then the lock is released, and the group-commit flusher (if the
    /// commit opened a flush window) and any log waiters are woken.
    fn finish_write(&self, inner: RwLockWriteGuard<'_, Inner>, committed: bool) {
        let lsn = inner.wal.as_ref().filter(|_| committed).map(Wal::next_lsn);
        let kick = lsn.is_some() && inner.opened_flush_window();
        if let Some(lsn) = lsn {
            self.log_signal.publish(lsn);
        }
        drop(inner);
        if kick {
            self.kick_flusher();
        }
        if lsn.is_some() {
            self.log_signal.notify();
        }
    }

    /// Forces every appended log record to disk — drains any pending
    /// group-commit window. Errors on a volatile engine.
    pub fn sync(&self) -> Result<(), EngineError> {
        match self.inner.write().wal.as_mut() {
            Some(wal) => Ok(wal.flush()?),
            None => Err(EngineError::NotDurable),
        }
    }

    /// Installs a checkpoint: serialises the database in the canonical
    /// snapshot format (with the self-identifying header), atomically
    /// replaces the checkpoint file, and truncates old log segments.
    /// Refuses while a transaction is active — the snapshot must capture
    /// a transaction-consistent state.
    pub fn checkpoint(&self) -> Result<(), EngineError> {
        let mut inner = self.inner.write();
        if inner.read_only {
            return Err(EngineError::ReadOnly);
        }
        if inner.txn_log.is_some() {
            return Err(EngineError::TransactionActive);
        }
        if inner.wal.is_none() {
            return Err(EngineError::NotDurable);
        }
        let payload =
            snapshot::to_vec(&inner.db).map_err(|e| EngineError::Recovery(e.to_string()))?;
        let schema = inner.db.schema();
        let defs: Vec<IndexDef> = schema
            .type_ids()
            .flat_map(|e| {
                inner.indexes[e.index()]
                    .iter()
                    .map(move |idx| index_def(schema, e, idx.kind(), &idx.attrs()))
            })
            .collect();
        let fds: Vec<(String, String, String)> = inner
            .declared_fds
            .iter()
            .map(|fd| fd_names(schema, fd))
            .collect();
        inner
            .wal
            .as_mut()
            .expect("checked above")
            .checkpoint(&payload, &defs, &fds)?;
        Ok(())
    }

    /// Declares an FD the engine must keep satisfied. Returns `Err` with
    /// the FD when the *current* data already violates it. On a durable
    /// engine the declaration is logged (and immediately synced) so
    /// recovery restores enforcement.
    pub fn declare_fd(&self, fd: Fd) -> Result<(), EngineError> {
        let mut inner = self.inner.write();
        if inner.read_only {
            return Err(EngineError::ReadOnly);
        }
        Self::declare_fd_locked(&mut inner, fd)?;
        {
            let inner = &mut *inner;
            if let Some(wal) = inner.wal.as_mut() {
                let (lhs, rhs, context) = fd_names(inner.db.schema(), &fd);
                wal.append(WalEntry::DeclareFd { lhs, rhs, context })?;
                wal.flush()?;
            }
        }
        self.finish_write(inner, true);
        Ok(())
    }

    /// The lock-held body of [`Engine::declare_fd`], shared with replay:
    /// enforces `fd` from now on, unless the data already violates it.
    fn declare_fd_locked(inner: &mut Inner, fd: Fd) -> Result<(), EngineError> {
        if !check_fd(&inner.db, &fd).holds() {
            return Err(EngineError::FdViolation(fd));
        }
        inner.declared_fds.push(fd);
        Ok(())
    }

    /// Builds a hash index on one attribute of `e`'s stored relation.
    /// On a durable engine the definition is logged (and immediately
    /// synced) so recovery rebuilds the index.
    pub fn create_index(&self, e: TypeId, attr: toposem_core::AttrId) -> Result<(), EngineError> {
        self.create_index_of(e, IndexKind::Hash, &[attr])
    }

    /// Builds an ordered (BTree) index on one attribute of `e`'s stored
    /// relation, enabling index range seeks.
    pub fn create_ord_index(
        &self,
        e: TypeId,
        attr: toposem_core::AttrId,
    ) -> Result<(), EngineError> {
        self.create_index_of(e, IndexKind::Ordered, &[attr])
    }

    /// Builds a composite ordered index over `attrs` (order significant:
    /// conjunctive equality selections matching a key *prefix* can seek).
    pub fn create_composite_index(
        &self,
        e: TypeId,
        attrs: &[toposem_core::AttrId],
    ) -> Result<(), EngineError> {
        self.create_index_of(e, IndexKind::Composite, attrs)
    }

    /// The shared index-DDL path: validates the definition, builds the
    /// structure from the stored relation, installs it (replacing any
    /// index of the same kind and attribute list), bumps the statistics
    /// epoch so cached plans are invalidated, and logs the definition on
    /// a durable engine.
    pub fn create_index_of(
        &self,
        e: TypeId,
        kind: IndexKind,
        attrs: &[toposem_core::AttrId],
    ) -> Result<(), EngineError> {
        let mut inner = self.inner.write();
        if inner.read_only {
            return Err(EngineError::ReadOnly);
        }
        Self::create_index_locked(&mut inner, &self.metrics, e, kind, attrs)?;
        self.finish_write(inner, true);
        Ok(())
    }

    /// The lock-held body of [`Engine::create_index_of`], shared with
    /// log replay (which holds the lock already and must bypass the
    /// read-only guard).
    fn create_index_locked(
        inner: &mut Inner,
        metrics: &EngineMetrics,
        e: TypeId,
        kind: IndexKind,
        attrs: &[toposem_core::AttrId],
    ) -> Result<(), EngineError> {
        {
            let schema = inner.db.schema();
            if attrs.is_empty() {
                return Err(EngineError::BadIndexDefinition(
                    "no attributes named".into(),
                ));
            }
            if matches!(kind, IndexKind::Hash | IndexKind::Ordered) && attrs.len() != 1 {
                return Err(EngineError::BadIndexDefinition(format!(
                    "{} indexes take exactly one attribute",
                    kind.name()
                )));
            }
            for (i, a) in attrs.iter().enumerate() {
                if !schema.attrs_of(e).contains(a.index()) {
                    return Err(EngineError::BadIndexDefinition(format!(
                        "attribute {} is not in type {}",
                        schema.attr_name(*a),
                        schema.type_name(e)
                    )));
                }
                if attrs[..i].contains(a) {
                    return Err(EngineError::BadIndexDefinition(format!(
                        "attribute {} repeated",
                        schema.attr_name(*a)
                    )));
                }
            }
        }
        let mut idx = match kind {
            IndexKind::Hash => Index::Hash(HashIndex::new(attrs[0])),
            IndexKind::Ordered => Index::Ord(OrdIndex::new(attrs[0])),
            IndexKind::Composite => Index::Composite(CompositeIndex::new(attrs.to_vec())),
        };
        for t in inner.db.stored(e).iter() {
            idx.insert(t);
        }
        let slot = &mut inner.indexes[e.index()];
        // Re-creating the same definition rebuilds in place; otherwise
        // the new index joins the type's set.
        slot.retain(|existing| !(existing.kind() == kind && existing.attrs() == attrs));
        slot.push(idx);
        // Index presence changes access paths: invalidate cached plans.
        inner.note_mutation(metrics);
        if let Some(wal) = inner.wal.as_mut() {
            let def = index_def(inner.db.schema(), e, kind, attrs);
            wal.append(WalEntry::CreateIndex { def })?;
            wal.flush()?;
        }
        Ok(())
    }

    /// Drops the index of `kind` over `attrs` on `e`, returning whether
    /// one existed. Dropping bumps the statistics epoch (cached plans
    /// may reference the index and must be invalidated) and, on a
    /// durable engine, logs a `DropIndex` record (immediately synced)
    /// so recovery stops rebuilding the index.
    pub fn drop_index(
        &self,
        e: TypeId,
        kind: IndexKind,
        attrs: &[toposem_core::AttrId],
    ) -> Result<bool, EngineError> {
        let mut inner = self.inner.write();
        if inner.read_only {
            return Err(EngineError::ReadOnly);
        }
        let dropped = Self::drop_index_locked(&mut inner, &self.metrics, e, kind, attrs)?;
        self.finish_write(inner, dropped);
        Ok(dropped)
    }

    /// The lock-held body of [`Engine::drop_index`], shared with log
    /// replay.
    fn drop_index_locked(
        inner: &mut Inner,
        metrics: &EngineMetrics,
        e: TypeId,
        kind: IndexKind,
        attrs: &[toposem_core::AttrId],
    ) -> Result<bool, EngineError> {
        let slot = &mut inner.indexes[e.index()];
        let before = slot.len();
        slot.retain(|idx| !(idx.kind() == kind && idx.attrs() == attrs));
        if slot.len() == before {
            return Ok(false);
        }
        inner.note_mutation(metrics);
        if let Some(wal) = inner.wal.as_mut() {
            let def = index_def(inner.db.schema(), e, kind, attrs);
            wal.append(WalEntry::DropIndex { def })?;
            wal.flush()?;
        }
        Ok(true)
    }

    /// Point lookup through any single-attribute index of `e` on `attr`
    /// (falls back to a scan when none exists).
    pub fn lookup(&self, e: TypeId, attr: toposem_core::AttrId, v: &Value) -> Vec<Instance> {
        let inner = self.inner.read();
        for idx in &inner.indexes[e.index()] {
            if let Some(hit) = idx.lookup(attr, v) {
                return hit.to_vec();
            }
        }
        inner
            .db
            .stored(e)
            .iter()
            .filter(|t| t.get(attr) == Some(v))
            .cloned()
            .collect()
    }

    /// Appends a redo record for one logical operation. Outside an
    /// explicit transaction the op is its own transaction
    /// (`Begin`/op/`Commit`) and the flush policy runs; inside one, the
    /// record joins the open transaction and durability waits for
    /// [`Engine::commit`].
    fn log_op(
        inner: &mut Inner,
        metrics: &EngineMetrics,
        kind: LogKind,
        op: LogicalOp,
    ) -> Result<(), EngineError> {
        let autocommit = inner.txn_log.is_none();
        let current = inner.current_txn;
        let Some(wal) = inner.wal.as_mut() else {
            return Ok(());
        };
        let entry = |txn: u64, op: LogicalOp| match kind {
            LogKind::Insert => WalEntry::Insert { txn, op },
            LogKind::Delete => WalEntry::Delete { txn, op },
        };
        if autocommit {
            let txn = wal.alloc_txn();
            wal.append(WalEntry::Begin { txn })?;
            wal.append(entry(txn, op))?;
            wal.append(WalEntry::Commit { txn })?;
            wal.commit_appended()?;
            // An autocommitted op is its own transaction in the log, so
            // it counts as one begin + one commit.
            metrics.txn_begins.inc();
            metrics.txn_commits.inc();
        } else if let Some(txn) = current {
            wal.append(entry(txn, op))?;
        }
        Ok(())
    }

    /// Inserts named fields as an instance of `e`, enforcing domains,
    /// containment (via the database policy), and declared FDs. The FD
    /// check is transactional: a violating insert leaves no trace.
    ///
    /// On a durable engine the *declared* instance is redo-logged after
    /// validation succeeds (propagations are re-derived on replay); a log
    /// failure is reported even though the in-memory insert stands.
    pub fn insert(&self, e: TypeId, fields: &[(&str, Value)]) -> Result<bool, EngineError> {
        let mut inner = self.inner.write();
        if inner.read_only {
            return Err(EngineError::ReadOnly);
        }
        let t = Instance::new(inner.db.schema(), inner.db.catalog(), e, fields)?;
        inner.retire_snapshot();
        let added = inner.db.insert_tracked(e, t.clone());
        if added.is_empty() {
            return Ok(false);
        }
        // Validate FDs; remove exactly what was added if any breaks.
        let fds = inner.declared_fds.clone();
        for fd in &fds {
            if !check_fd(&inner.db, fd).holds() {
                for (s, u) in &added {
                    inner.db.stored_remove(*s, u);
                }
                return Err(EngineError::FdViolation(*fd));
            }
        }
        // Eager containment stores projected tuples in generalisation
        // relations too, and their indexes must see them.
        inner.index_insert(&added);
        if let Some(log) = &mut inner.txn_log {
            log.push(Undo::UnInsert(added));
        }
        if inner.wal.is_some() {
            let op = LogicalOp::describe(&inner.db, e, &t);
            Self::log_op(&mut inner, &self.metrics, LogKind::Insert, op)?;
        }
        inner.note_mutation(&self.metrics);
        let autocommit = inner.txn_log.is_none();
        self.finish_write(inner, autocommit);
        Ok(true)
    }

    /// Deletes an instance (cascading down the ISA hierarchy); returns the
    /// number of tuples removed. On a durable engine the addressed
    /// instance is redo-logged (the cascade is recomputed on replay).
    pub fn delete(&self, e: TypeId, t: &Instance) -> Result<usize, EngineError> {
        let mut inner = self.inner.write();
        if inner.read_only {
            return Err(EngineError::ReadOnly);
        }
        inner.retire_snapshot();
        // What the cascade removed, for undo and index upkeep.
        let victims = inner.db.delete_tracked(e, t);
        let removed = victims.len();
        inner.index_remove(&victims);
        if removed > 0 {
            if let Some(log) = &mut inner.txn_log {
                log.push(Undo::Restore(victims));
            }
            if inner.wal.is_some() {
                let op = LogicalOp::describe(&inner.db, e, t);
                Self::log_op(&mut inner, &self.metrics, LogKind::Delete, op)?;
            }
            inner.note_mutation(&self.metrics);
        }
        let autocommit = removed > 0 && inner.txn_log.is_none();
        self.finish_write(inner, autocommit);
        Ok(removed)
    }

    /// Wakes the group-commit flusher (no-op without one) so a pending
    /// flush deadline is honoured even if no further commit arrives.
    fn kick_flusher(&self) {
        if let Some(f) = &self.flusher {
            f.kick();
        }
    }

    /// Begins a transaction. The engine is single-writer with flat
    /// transactions: beginning while one is active is an error (it would
    /// otherwise silently flatten, emitting two WAL `Begin` records for
    /// what the caller believes are distinct transactions).
    pub fn begin(&self) -> Result<(), EngineError> {
        let mut inner = self.inner.write();
        if inner.read_only {
            return Err(EngineError::ReadOnly);
        }
        if inner.txn_log.is_some() {
            return Err(EngineError::TransactionActive);
        }
        // Append the Begin record *before* marking the transaction
        // active: if the log rejects it, no transaction starts — the
        // caller sees the error and the engine is not left with a
        // phantom open transaction that blocks every later begin while
        // silently skipping the log.
        let txn = match inner.wal.as_mut() {
            Some(wal) => {
                let txn = wal.alloc_txn();
                wal.append(WalEntry::Begin { txn })?;
                Some(txn)
            }
            None => None,
        };
        // Bring the committed-state snapshot up to date *before* the
        // transaction can mutate anything: MVCC readers keep reading the
        // pre-transaction state through it for the transaction's whole
        // lifetime. Only refresh when someone has actually asked for
        // snapshots — a write-only workload would otherwise clone the
        // whole database on every begin; for it the stale snapshot is
        // dropped in O(1) instead (the next snapshot reader rebuilds).
        if inner.snapshot_stale {
            if inner.snapshot_requested.load(Ordering::Relaxed) {
                inner.refresh_snapshot(&self.metrics);
            } else {
                inner.snapshot = None;
            }
        }
        inner.txn_log = Some(Vec::new());
        inner.current_txn = txn;
        inner.txn_seq += 1;
        inner.txn_token = Some(inner.txn_seq);
        self.metrics.txn_begins.inc();
        Ok(())
    }

    /// Commits the active transaction. On a durable engine this is the
    /// durability point: the `Commit` record is appended and the flush
    /// policy decides when it reaches disk (`PerCommit` = before this
    /// returns).
    pub fn commit(&self) -> Result<(), EngineError> {
        let mut inner = self.inner.write();
        if inner.txn_log.take().is_none() {
            return Err(EngineError::NoTransaction);
        }
        let txn = inner.current_txn.take();
        let token = inner.txn_token.take();
        let mut commit_ns = 0;
        if let (Some(txn), Some(wal)) = (txn, inner.wal.as_mut()) {
            let t0 = std::time::Instant::now();
            wal.append(WalEntry::Commit { txn })?;
            wal.commit_appended()?;
            commit_ns = t0.elapsed().as_nanos() as u64;
        }
        // The transaction's writes are committed now: the next snapshot
        // request materialises them, and the pre-transaction epoch goes
        // (freed here, on the writer's clock, unless a reader holds it).
        inner.retire_snapshot();
        self.finish_write(inner, true);
        self.metrics.txn_commits.inc();
        if commit_ns > 0 {
            // Attribute the commit phase back to the transaction's
            // queries, so their end-to-end latency accounting includes
            // the durability cost their writes caused.
            let attributed = token.map_or(0, |t| self.trace.attribute_commit(t, commit_ns));
            if attributed == 0 {
                // No traced queries to charge (the transaction ran none,
                // or the ring evicted them): trace the commit as its own
                // entry. It has no plan/exec association, so the
                // fingerprint and plan hash stay 0.
                self.trace.push(QueryTrace {
                    fingerprint: 0,
                    plan_hash: 0,
                    plan_ns: 0,
                    exec_ns: 0,
                    commit_ns,
                    rows: 0,
                    cache_hit: false,
                    slow: commit_ns >= self.trace.slow_query_ns(),
                    max_q: 0.0,
                    txn: None,
                    session: toposem_obs::trace::current_session(),
                    profile: None,
                });
            }
        }
        Ok(())
    }

    /// Rolls the active transaction back, undoing its operations in
    /// reverse order. On a durable engine an `Abort` record marks the
    /// transaction so recovery discards it without waiting for the
    /// no-commit heuristic.
    pub fn rollback(&self) -> Result<(), EngineError> {
        let mut inner = self.inner.write();
        let log = inner.txn_log.take().ok_or(EngineError::NoTransaction)?;
        inner.note_mutation(&self.metrics);
        for entry in log.into_iter().rev() {
            match entry {
                Undo::UnInsert(added) => {
                    for (s, u) in &added {
                        inner.db.stored_remove(*s, u);
                    }
                    inner.index_remove(&added);
                }
                Undo::Restore(victims) => {
                    // Exactly the removed pairs go back: the delete never
                    // touched generalisations, so nothing needs
                    // re-propagating.
                    inner.index_insert(&victims);
                    for (s, u) in victims {
                        inner.db.insert_unchecked(s, u);
                    }
                }
            }
        }
        let txn = inner.current_txn.take();
        inner.txn_token = None;
        if let (Some(txn), Some(wal)) = (txn, inner.wal.as_mut()) {
            wal.append(WalEntry::Abort { txn })?;
        }
        self.metrics.txn_aborts.inc();
        Ok(())
    }

    /// Trace token of the active explicit transaction, if any. Planned
    /// queries stamp it into their trace entries so the eventual commit
    /// can attribute its `commit_ns` back to them.
    pub fn active_txn_token(&self) -> Option<u64> {
        self.inner.read().txn_token
    }

    /// Reads the semantic extension of `e`.
    pub fn extension(&self, e: TypeId) -> toposem_extension::Relation {
        self.inner.read().db.extension(e)
    }

    /// Runs `f` with read access to the underlying database.
    pub fn with_db<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.inner.read().db)
    }

    /// Runs `f` with read access to the database *and* the index array
    /// under one lock acquisition — the planner's executor uses this so a
    /// whole query sees a consistent snapshot.
    pub fn with_parts<R>(&self, f: impl FnOnce(&Database, &[Vec<Index>]) -> R) -> R {
        let inner = self.inner.read();
        f(&inner.db, &inner.indexes)
    }

    /// The attribute of the first single-attribute index on `e`, when one
    /// exists (composites don't answer single-attribute point lookups).
    pub fn indexed_attr(&self, e: TypeId) -> Option<toposem_core::AttrId> {
        self.inner.read().indexes[e.index()]
            .iter()
            .find_map(|idx| match idx {
                Index::Hash(h) => Some(h.attr()),
                Index::Ord(o) => Some(o.attr()),
                Index::Composite(_) => None,
            })
    }

    /// The definitions of every live index of `e`: kind plus attribute
    /// list, in creation order.
    pub fn index_defs(&self, e: TypeId) -> Vec<(IndexKind, Vec<toposem_core::AttrId>)> {
        self.inner.read().indexes[e.index()]
            .iter()
            .map(|idx| (idx.kind(), idx.attrs()))
            .collect()
    }

    /// Current statistics, assembled lazily and cached until the next
    /// mutation (insert, delete, or rollback). Assembly reuses the
    /// carried statistics of every type the mutations left alone — the
    /// same per-type cache [`EngineSnapshot::statistics`] draws from. Carries the engine's
    /// selectivity-feedback cache, so estimates read through them are
    /// steered by learned corrections (neutral until something has been
    /// observed, or always when `TOPOSEM_FEEDBACK=0`).
    pub fn statistics(&self) -> Arc<Statistics> {
        if let Some(s) = &self.inner.read().stats {
            return Arc::clone(s);
        }
        let mut inner = self.inner.write();
        if inner.stats.is_none() {
            let stats =
                inner
                    .stats_cache
                    .lock()
                    .statistics(&inner.db, &inner.indexes, &self.metrics);
            inner.stats = Some(Arc::new(
                stats.with_feedback(Arc::clone(&self.metrics.feedback), inner.stats_epoch),
            ));
        }
        Arc::clone(inner.stats.as_ref().expect("just filled"))
    }

    /// The statistics generation: bumped by every mutation. Two calls
    /// returning the same epoch bracket a mutation-free window, so
    /// anything derived from statistics (plans, estimates) in between is
    /// still valid.
    pub fn statistics_epoch(&self) -> u64 {
        self.inner.read().stats_epoch
    }

    /// The epoch that keys the plan cache: the statistics epoch plus
    /// the feedback generation. Both terms only ever grow, so the sum
    /// is monotone and uniquely brackets a window in which neither the
    /// data distribution nor the learned corrections moved enough to
    /// change a plan — a cached plan is valid exactly while this value
    /// holds still.
    pub fn plan_epoch(&self) -> u64 {
        self.inner.read().stats_epoch + self.metrics.feedback.generation()
    }

    /// The engine's selectivity-feedback cache (shared with
    /// [`Engine::statistics`] snapshots and the planner's recorder).
    pub fn feedback(&self) -> &Arc<toposem_obs::SelectivityFeedback> {
        &self.metrics.feedback
    }

    /// Looks up a cached plan for `fingerprint`, valid only at `epoch`
    /// (obtain it from [`Engine::statistics_epoch`] *before* planning).
    /// Counts a hit or miss. Hits take only the engine's read lock;
    /// an epoch mismatch in either direction is a miss (a lagging
    /// reader never disturbs the current cache).
    ///
    /// Do **not** call while holding a [`Engine::with_parts`] borrow —
    /// lock acquisition is not reentrant.
    pub fn plan_cache_lookup(
        &self,
        fingerprint: u64,
        epoch: u64,
    ) -> Option<Arc<dyn Any + Send + Sync>> {
        let inner = self.inner.read();
        let cache = &inner.plan_cache;
        if cache.epoch == epoch {
            if let Some(plan) = cache.plans.get(&fingerprint) {
                self.metrics.plan_cache_hits.inc();
                return Some(Arc::clone(plan));
            }
        }
        self.metrics.plan_cache_misses.inc();
        None
    }

    /// Stores a plan under `fingerprint` as of `epoch`. A plan from a
    /// *newer* epoch rolls the cache forward (clearing superseded
    /// entries); a plan computed against superseded statistics is
    /// silently dropped rather than poisoning the cache. A full cache
    /// evicts an arbitrary entry.
    pub fn plan_cache_store(&self, fingerprint: u64, epoch: u64, plan: Arc<dyn Any + Send + Sync>) {
        let mut inner = self.inner.write();
        let cache = &mut inner.plan_cache;
        if epoch > cache.epoch {
            cache.plans.clear();
            cache.epoch = epoch;
        }
        if cache.epoch != epoch {
            return;
        }
        if cache.plans.len() >= PLAN_CACHE_CAP && !cache.plans.contains_key(&fingerprint) {
            if let Some(&victim) = cache.plans.keys().next() {
                cache.plans.remove(&victim);
            }
        }
        cache.plans.insert(fingerprint, plan);
        self.metrics.plan_cache_stores.inc();
    }

    /// Typed lifetime counters of the plan cache. `stores` counts plans
    /// actually inserted (stores dropped for arriving with superseded
    /// statistics are not counted).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.metrics.plan_cache_hits.get(),
            misses: self.metrics.plan_cache_misses.get(),
            stores: self.metrics.plan_cache_stores.get(),
        }
    }

    /// The engine-wide metrics registry. Layers above record their own
    /// events here (the planner counts queries, for instance); readers
    /// should prefer [`Engine::metrics_snapshot`].
    pub fn metrics(&self) -> &Arc<EngineMetrics> {
        &self.metrics
    }

    /// Typed point-in-time copy of every engine metric.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The metrics snapshot rendered in the Prometheus text exposition
    /// format.
    pub fn metrics_prometheus(&self) -> String {
        self.metrics.snapshot().to_prometheus()
    }

    /// The ring of recent query and commit traces. Planned queries push
    /// entries here; slow ones (past `TOPOSEM_SLOW_QUERY_MS`, or
    /// [`TraceRing::set_slow_query_ms`]) retain their full operator
    /// profile.
    pub fn query_trace(&self) -> &Arc<TraceRing> {
        &self.trace
    }

    /// An immutable MVCC snapshot of the last *committed* state, for
    /// lock-free reads: the returned [`EngineSnapshot`] owns its own
    /// database, index array, and statistics, so any number of readers
    /// plan and execute whole queries against it while the single
    /// writer mutates the next epoch. The snapshot is cached and only
    /// rebuilt after a commit (or autocommitted write), so repeated
    /// calls between commits are a read-lock and an `Arc` clone.
    ///
    /// Returns `None` only when a transaction is active and no snapshot
    /// of the pre-transaction state was ever materialised — the caller
    /// falls back to the locked read path. While a transaction *is*
    /// active and a snapshot exists, it is the committed
    /// pre-transaction state: uncommitted writes are never visible
    /// through snapshots, which is exactly what gives concurrent
    /// readers snapshot isolation against the writer.
    pub fn snapshot(&self) -> Option<Arc<EngineSnapshot>> {
        {
            let inner = self.inner.read();
            inner.snapshot_requested.store(true, Ordering::Relaxed);
            if !inner.snapshot_stale {
                if let Some(s) = &inner.snapshot {
                    self.metrics.snapshot_hits.inc();
                    return Some(Arc::clone(s));
                }
            }
        }
        let mut inner = self.inner.write();
        inner.snapshot_requested.store(true, Ordering::Relaxed);
        if inner.txn_log.is_some() {
            // Mid-transaction the database holds uncommitted writes; the
            // cached snapshot (when present) is the committed
            // pre-transaction state, which is the correct answer.
            return inner.snapshot.as_ref().map(Arc::clone);
        }
        if inner.snapshot_stale || inner.snapshot.is_none() {
            inner.refresh_snapshot(&self.metrics);
        } else {
            self.metrics.snapshot_hits.inc();
        }
        Some(Arc::clone(inner.snapshot.as_ref().expect("just refreshed")))
    }

    /// Consumes the engine, returning the database. Pending group-commit
    /// windows are flushed by the log's destructor (best effort).
    pub fn into_db(self) -> Database {
        let Engine { inner, flusher, .. } = self;
        // Join the flusher first so no other owner of `inner` remains.
        drop(flusher);
        match Arc::try_unwrap(inner) {
            Ok(lock) => lock.into_inner().db,
            Err(arc) => arc.read().db.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toposem_core::{employee_schema, GeneralisationTopology, Intension};
    use toposem_extension::{ContainmentPolicy, DomainCatalog};

    fn engine() -> Engine {
        Engine::new(Database::new(
            Intension::analyse(employee_schema()),
            DomainCatalog::employee_defaults(),
            ContainmentPolicy::Eager,
        ))
    }

    fn worksfor_row(n: &str, a: i64, d: &str, l: &str) -> Vec<(&'static str, Value)> {
        vec![
            ("name", Value::str(n)),
            ("age", Value::Int(a)),
            ("depname", Value::str(d)),
            ("location", Value::str(l)),
        ]
    }

    #[test]
    fn primed_snapshot_serves_reads_through_the_first_txn() {
        let eng = engine();
        let worksfor = eng.with_db(|db| db.schema().type_id("worksfor").unwrap());
        eng.begin().unwrap();
        eng.insert(worksfor, &worksfor_row("ann", 40, "sales", "amsterdam"))
            .unwrap();
        // A reader arriving mid-transaction — having never asked for a
        // snapshot before — still gets the committed (empty)
        // pre-transaction state, via the snapshot primed at
        // construction, instead of `None` and the locked fallback.
        let snap = eng
            .snapshot()
            .expect("construction-primed snapshot must survive the first begin");
        assert_eq!(snap.db().extension_cow(worksfor).len(), 0);
        eng.commit().unwrap();
        // After the commit, snapshots materialise the write.
        let snap = eng.snapshot().expect("committed state");
        assert_eq!(snap.db().extension_cow(worksfor).len(), 1);
    }

    #[test]
    fn write_only_workloads_drop_rather_than_refresh_the_snapshot() {
        let eng = engine();
        let worksfor = eng.with_db(|db| db.schema().type_id("worksfor").unwrap());
        let primed = eng.metrics().snapshot_rebuilds.get();
        // A begin/commit loop with no snapshot readers must not clone
        // the database per transaction to keep a snapshot nobody reads.
        for i in 0..10i64 {
            eng.begin().unwrap();
            eng.insert(
                worksfor,
                &worksfor_row(&format!("w{i}"), 20 + i, "sales", "amsterdam"),
            )
            .unwrap();
            eng.commit().unwrap();
        }
        assert_eq!(
            eng.metrics().snapshot_rebuilds.get(),
            primed,
            "begin must not rebuild snapshots for a write-only workload"
        );
        // The first actual reader rebuilds once and sees everything.
        let snap = eng.snapshot().expect("reader rebuilds on demand");
        assert_eq!(snap.db().extension_cow(worksfor).len(), 10);
        assert_eq!(eng.metrics().snapshot_rebuilds.get(), primed + 1);
    }

    #[test]
    fn statistics_recollect_only_the_types_a_write_changed() {
        let eng = engine();
        let (employee, department) = eng.with_db(|db| {
            let s = db.schema();
            (
                s.type_id("employee").unwrap(),
                s.type_id("department").unwrap(),
            )
        });
        let counts = |eng: &Engine| {
            let m = eng.metrics_snapshot().statistics;
            (m.types_reused, m.types_collected)
        };
        let _ = eng.statistics();
        assert_eq!(counts(&eng), (0, 5), "first assembly collects every type");
        // An employee insert propagates to person: two types change.
        eng.insert(
            employee,
            &[
                ("name", Value::str("ann")),
                ("age", Value::Int(40)),
                ("depname", Value::str("sales")),
            ],
        )
        .unwrap();
        let live = eng.statistics();
        assert_eq!(counts(&eng), (3, 7));
        // A snapshot of the same state reuses all five.
        let snap = eng.snapshot().unwrap();
        let snapped = snap.statistics();
        assert_eq!(counts(&eng), (8, 7));
        eng.with_db(|db| {
            for e in db.schema().type_ids() {
                assert_eq!(live.type_stats(e), snapped.type_stats(e));
            }
        });
        eng.insert(
            department,
            &[
                ("depname", Value::str("sales")),
                ("location", Value::str("amsterdam")),
            ],
        )
        .unwrap();
        let _ = eng.statistics();
        assert_eq!(counts(&eng), (12, 8));
        assert_eq!(eng.metrics_snapshot().statistics.collect_ns.count, 3);
        // The snapshot still answers for its own epoch.
        assert_eq!(snap.statistics().cardinality(department), 0);
    }

    #[test]
    fn autocommit_writes_retire_the_cached_snapshot_but_readers_keep_theirs() {
        let eng = engine();
        let person = eng.with_db(|db| db.schema().type_id("person").unwrap());
        let row = |n: &str| vec![("name", Value::str(n)), ("age", Value::Int(1))];
        eng.insert(person, &row("a")).unwrap();
        let held = eng.snapshot().unwrap();
        let rebuilds = eng.metrics_snapshot().mvcc.snapshot_rebuilds;
        eng.insert(person, &row("b")).unwrap();
        // The reader's snapshot is unchanged; the next one sees the write.
        assert_eq!(held.db().stored(person).len(), 1);
        let fresh = eng.snapshot().unwrap();
        assert_eq!(fresh.db().stored(person).len(), 2);
        let m = eng.metrics_snapshot();
        assert_eq!(m.mvcc.snapshot_rebuilds, rebuilds + 1);
        assert_eq!(m.snapshot_rebuild_ns.count, m.mvcc.snapshot_rebuilds);
        // Relations the write did not touch are still shared.
        let department = eng.with_db(|db| db.schema().type_id("department").unwrap());
        assert_eq!(
            held.db().stored(department).version(),
            fresh.db().stored(department).version()
        );
    }

    #[test]
    fn insert_and_extension() {
        let eng = engine();
        let worksfor = eng.with_db(|db| db.schema().type_id("worksfor").unwrap());
        assert!(eng
            .insert(worksfor, &worksfor_row("ann", 40, "sales", "amsterdam"))
            .unwrap());
        assert_eq!(eng.extension(worksfor).len(), 1);
        // Duplicate insert reports not-fresh.
        assert!(!eng
            .insert(worksfor, &worksfor_row("ann", 40, "sales", "amsterdam"))
            .unwrap());
    }

    #[test]
    fn declared_fd_is_enforced() {
        let eng = engine();
        let (worksfor, fd) = eng.with_db(|db| {
            let s = db.schema();
            let gen = GeneralisationTopology::of_schema(s);
            let fd = Fd::new(
                &gen,
                s.type_id("employee").unwrap(),
                s.type_id("department").unwrap(),
                s.type_id("worksfor").unwrap(),
            )
            .unwrap();
            (s.type_id("worksfor").unwrap(), fd)
        });
        eng.declare_fd(fd).unwrap();
        eng.insert(worksfor, &worksfor_row("ann", 40, "sales", "amsterdam"))
            .unwrap();
        // Same employee projection (sales) in a second location: rejected.
        let err = eng
            .insert(worksfor, &worksfor_row("ann", 40, "sales", "utrecht"))
            .unwrap_err();
        assert!(matches!(err, EngineError::FdViolation(_)));
        // The violating tuple left no trace.
        assert_eq!(eng.extension(worksfor).len(), 1);
    }

    #[test]
    fn declaring_fd_on_dirty_data_fails() {
        let eng = engine();
        let (worksfor, fd) = eng.with_db(|db| {
            let s = db.schema();
            let gen = GeneralisationTopology::of_schema(s);
            (
                s.type_id("worksfor").unwrap(),
                Fd::new(
                    &gen,
                    s.type_id("employee").unwrap(),
                    s.type_id("department").unwrap(),
                    s.type_id("worksfor").unwrap(),
                )
                .unwrap(),
            )
        });
        eng.insert(worksfor, &worksfor_row("ann", 40, "sales", "amsterdam"))
            .unwrap();
        eng.insert(worksfor, &worksfor_row("ann", 40, "sales", "utrecht"))
            .unwrap();
        assert!(matches!(
            eng.declare_fd(fd),
            Err(EngineError::FdViolation(_))
        ));
    }

    #[test]
    fn index_lookup() {
        let eng = engine();
        let (employee, depname) = eng.with_db(|db| {
            let s = db.schema();
            (
                s.type_id("employee").unwrap(),
                s.attr_id("depname").unwrap(),
            )
        });
        eng.insert(
            employee,
            &[
                ("name", Value::str("ann")),
                ("age", Value::Int(40)),
                ("depname", Value::str("sales")),
            ],
        )
        .unwrap();
        eng.create_index(employee, depname).unwrap();
        eng.insert(
            employee,
            &[
                ("name", Value::str("bob")),
                ("age", Value::Int(30)),
                ("depname", Value::str("sales")),
            ],
        )
        .unwrap();
        assert_eq!(eng.lookup(employee, depname, &Value::str("sales")).len(), 2);
        assert_eq!(
            eng.lookup(employee, depname, &Value::str("research")).len(),
            0
        );
        assert_eq!(eng.indexed_attr(employee), Some(depname));
        assert_eq!(
            eng.indexed_attr(eng.with_db(|db| db.schema().type_id("person").unwrap())),
            None
        );
    }

    #[test]
    fn multiple_index_kinds_coexist_and_stay_maintained() {
        let eng = engine();
        let (employee, name, age, depname) = eng.with_db(|db| {
            let s = db.schema();
            (
                s.type_id("employee").unwrap(),
                s.attr_id("name").unwrap(),
                s.attr_id("age").unwrap(),
                s.attr_id("depname").unwrap(),
            )
        });
        eng.create_index(employee, depname).unwrap();
        eng.create_ord_index(employee, age).unwrap();
        eng.create_composite_index(employee, &[depname, name])
            .unwrap();
        assert_eq!(
            eng.index_defs(employee),
            vec![
                (IndexKind::Hash, vec![depname]),
                (IndexKind::Ordered, vec![age]),
                (IndexKind::Composite, vec![depname, name]),
            ]
        );
        for (n, a, d) in [("ann", 40, "sales"), ("bob", 30, "research")] {
            eng.insert(
                employee,
                &[
                    ("name", Value::str(n)),
                    ("age", Value::Int(a)),
                    ("depname", Value::str(d)),
                ],
            )
            .unwrap();
        }
        // Point lookups resolve through whichever index matches the
        // attribute (hash for depname, ordered for age).
        assert_eq!(eng.lookup(employee, depname, &Value::str("sales")).len(), 1);
        assert_eq!(eng.lookup(employee, age, &Value::Int(30)).len(), 1);
        // Every index sees deletes too.
        let bob = eng.with_db(|db| {
            Instance::new(
                db.schema(),
                db.catalog(),
                employee,
                &[
                    ("name", Value::str("bob")),
                    ("age", Value::Int(30)),
                    ("depname", Value::str("research")),
                ],
            )
            .unwrap()
        });
        eng.delete(employee, &bob).unwrap();
        assert_eq!(eng.lookup(employee, age, &Value::Int(30)).len(), 0);
        eng.with_parts(|_, indexes| {
            for idx in &indexes[employee.index()] {
                assert_eq!(idx.len(), 1, "{:?} out of sync after delete", idx.kind());
            }
        });
        // Re-creating an existing definition rebuilds in place rather
        // than duplicating it.
        eng.create_ord_index(employee, age).unwrap();
        assert_eq!(eng.index_defs(employee).len(), 3);
    }

    #[test]
    fn bad_index_definitions_are_rejected() {
        let eng = engine();
        let (employee, budget, name) = eng.with_db(|db| {
            let s = db.schema();
            (
                s.type_id("employee").unwrap(),
                s.attr_id("budget").unwrap(),
                s.attr_id("name").unwrap(),
            )
        });
        // Foreign attribute: budget is not an employee attribute.
        assert!(matches!(
            eng.create_ord_index(employee, budget),
            Err(EngineError::BadIndexDefinition(_))
        ));
        // Empty and duplicated composite keys.
        assert!(matches!(
            eng.create_composite_index(employee, &[]),
            Err(EngineError::BadIndexDefinition(_))
        ));
        assert!(matches!(
            eng.create_composite_index(employee, &[name, name]),
            Err(EngineError::BadIndexDefinition(_))
        ));
        // Failed DDL installs nothing.
        assert!(eng.index_defs(employee).is_empty());
    }

    #[test]
    fn containment_propagations_maintain_generalisation_indexes() {
        // Regression: inserting a manager eagerly stores a projected
        // employee tuple; an index on employee must see it.
        let eng = engine();
        let (employee, manager, depname) = eng.with_db(|db| {
            let s = db.schema();
            (
                s.type_id("employee").unwrap(),
                s.type_id("manager").unwrap(),
                s.attr_id("depname").unwrap(),
            )
        });
        eng.create_index(employee, depname).unwrap();
        eng.insert(
            manager,
            &[
                ("name", Value::str("ann")),
                ("age", Value::Int(40)),
                ("depname", Value::str("sales")),
                ("budget", Value::Int(100)),
            ],
        )
        .unwrap();
        // The projected employee tuple is reachable through the index…
        assert_eq!(eng.lookup(employee, depname, &Value::str("sales")).len(), 1);
        // …and deleting the manager (cascading) clears it again.
        let ann = eng.with_db(|db| {
            Instance::new(
                db.schema(),
                db.catalog(),
                manager,
                &[
                    ("name", Value::str("ann")),
                    ("age", Value::Int(40)),
                    ("depname", Value::str("sales")),
                    ("budget", Value::Int(100)),
                ],
            )
            .unwrap()
        });
        assert_eq!(eng.delete(manager, &ann).unwrap(), 1);
        assert_eq!(eng.lookup(employee, depname, &Value::str("sales")).len(), 1);
        let ann_emp = eng.with_db(|db| {
            Instance::new(
                db.schema(),
                db.catalog(),
                employee,
                &[
                    ("name", Value::str("ann")),
                    ("age", Value::Int(40)),
                    ("depname", Value::str("sales")),
                ],
            )
            .unwrap()
        });
        assert_eq!(eng.delete(employee, &ann_emp).unwrap(), 1);
        assert_eq!(eng.lookup(employee, depname, &Value::str("sales")).len(), 0);
    }

    #[test]
    fn rollback_restores_state() {
        let eng = engine();
        let manager = eng.with_db(|db| db.schema().type_id("manager").unwrap());
        let employee = eng.with_db(|db| db.schema().type_id("employee").unwrap());
        eng.begin().unwrap();
        eng.insert(
            manager,
            &[
                ("name", Value::str("ann")),
                ("age", Value::Int(40)),
                ("depname", Value::str("sales")),
                ("budget", Value::Int(100)),
            ],
        )
        .unwrap();
        assert_eq!(eng.extension(employee).len(), 1);
        eng.rollback().unwrap();
        assert_eq!(eng.extension(manager).len(), 0);
        assert_eq!(eng.extension(employee).len(), 0, "propagations undone too");
        eng.with_db(|db| assert_eq!(db.total_stored(), 0));
    }

    #[test]
    fn rollback_restores_deletes() {
        let eng = engine();
        let s = eng.with_db(|db| db.schema().clone());
        let manager = s.type_id("manager").unwrap();
        let person = s.type_id("person").unwrap();
        eng.insert(
            manager,
            &[
                ("name", Value::str("ann")),
                ("age", Value::Int(40)),
                ("depname", Value::str("sales")),
                ("budget", Value::Int(100)),
            ],
        )
        .unwrap();
        let ann = eng.with_db(|db| {
            Instance::new(
                db.schema(),
                db.catalog(),
                person,
                &[("name", Value::str("ann")), ("age", Value::Int(40))],
            )
            .unwrap()
        });
        eng.begin().unwrap();
        assert_eq!(eng.delete(person, &ann).unwrap(), 3);
        eng.with_db(|db| assert_eq!(db.total_stored(), 0));
        eng.rollback().unwrap();
        eng.with_db(|db| assert_eq!(db.total_stored(), 3));
        assert_eq!(eng.extension(manager).len(), 1);
    }

    #[test]
    fn commit_finalises() {
        let eng = engine();
        let person = eng.with_db(|db| db.schema().type_id("person").unwrap());
        eng.begin().unwrap();
        eng.insert(person, &[("name", Value::str("x")), ("age", Value::Int(1))])
            .unwrap();
        eng.commit().unwrap();
        assert!(eng.rollback().is_err(), "nothing to roll back after commit");
        assert_eq!(eng.extension(person).len(), 1);
    }

    #[test]
    fn no_transaction_errors() {
        let eng = engine();
        assert_eq!(eng.commit(), Err(EngineError::NoTransaction));
        assert_eq!(eng.rollback(), Err(EngineError::NoTransaction));
    }

    #[test]
    fn nested_begin_is_rejected_not_flattened() {
        let eng = engine();
        let person = eng.with_db(|db| db.schema().type_id("person").unwrap());
        eng.begin().unwrap();
        eng.insert(person, &[("name", Value::str("x")), ("age", Value::Int(1))])
            .unwrap();
        // A second begin must not silently join the first transaction.
        assert_eq!(eng.begin(), Err(EngineError::TransactionActive));
        // The original transaction is unaffected by the failed begin.
        eng.rollback().unwrap();
        assert_eq!(eng.extension(person).len(), 0);
        // After it ends, begin works again.
        eng.begin().unwrap();
        eng.commit().unwrap();
    }

    #[test]
    fn statistics_epoch_tracks_mutations() {
        let eng = engine();
        let person = eng.with_db(|db| db.schema().type_id("person").unwrap());
        let e0 = eng.statistics_epoch();
        // Reading statistics does not advance the epoch.
        let _ = eng.statistics();
        assert_eq!(eng.statistics_epoch(), e0);
        eng.insert(person, &[("name", Value::str("x")), ("age", Value::Int(1))])
            .unwrap();
        let e1 = eng.statistics_epoch();
        assert!(e1 > e0);
        // A failed (duplicate) insert that changes nothing still reports
        // cleanly; only real mutations need to advance the epoch, but
        // duplicates go through the same path harmlessly.
        let ann = eng.with_db(|db| {
            Instance::new(
                db.schema(),
                db.catalog(),
                person,
                &[("name", Value::str("x")), ("age", Value::Int(1))],
            )
            .unwrap()
        });
        eng.delete(person, &ann).unwrap();
        assert!(eng.statistics_epoch() > e1);
    }

    #[test]
    fn plan_cache_hits_misses_and_epoch_invalidation() {
        let eng = engine();
        let fp = 0xFEED_u64;
        let epoch = eng.statistics_epoch();
        assert!(eng.plan_cache_lookup(fp, epoch).is_none());
        eng.plan_cache_store(fp, epoch, Arc::new(42_u32));
        let cached = eng.plan_cache_lookup(fp, epoch).expect("cached");
        assert_eq!(cached.downcast_ref::<u32>(), Some(&42));
        let c = eng.plan_cache_stats();
        assert_eq!((c.hits, c.misses), (1, 1));
        // A mutation bumps the epoch; the old entry is unreachable.
        let person = eng.with_db(|db| db.schema().type_id("person").unwrap());
        eng.insert(person, &[("name", Value::str("x")), ("age", Value::Int(1))])
            .unwrap();
        let epoch2 = eng.statistics_epoch();
        assert!(eng.plan_cache_lookup(fp, epoch2).is_none());
        let c = eng.plan_cache_stats();
        assert_eq!((c.hits, c.misses), (1, 2));
        // A plan stored under a superseded epoch never reaches current
        // readers.
        eng.plan_cache_store(fp, epoch, Arc::new(7_u32));
        assert!(eng.plan_cache_lookup(fp, epoch2).is_none());
        // Rolling forward: a store at the current epoch clears the old
        // generation and is immediately visible…
        eng.plan_cache_store(fp, epoch2, Arc::new(9_u32));
        let fresh = eng.plan_cache_lookup(fp, epoch2).expect("current plan");
        assert_eq!(fresh.downcast_ref::<u32>(), Some(&9));
        // …and a *lagging* reader using the old epoch misses without
        // disturbing the current generation (no backwards roll).
        assert!(eng.plan_cache_lookup(fp, epoch).is_none());
        assert!(
            eng.plan_cache_lookup(fp, epoch2).is_some(),
            "a stale-epoch lookup must not clear current plans"
        );
    }
}
