//! Per-connection sessions: transaction state, snapshot-pinned reads,
//! replica routing, and name resolution from protocol [`QuerySpec`]s to
//! engine queries.
//!
//! The engine itself is a single-writer store — explicit transactions
//! take its one write token, and two sessions cannot both hold it. What
//! sessions add on top is **read routing** over the unified
//! [`QueryRequest`]/[`QueryTarget`] API:
//!
//! - An *autocommit* read (no open transaction) goes to a replication
//!   follower when a [`ReplicaPool`] is attached, with
//!   [`Consistency::AtLeast`] the session's *read floor* — the primary
//!   WAL watermark recorded at the session's last write — so a session
//!   always reads its own writes. A stale replica makes the read fall
//!   back to the primary's committed snapshot; without a pool it reads
//!   that snapshot directly, never taking the engine write lock.
//! - `BEGIN READ` pins one snapshot (from a replica at or past the
//!   read floor when possible, else the primary) for the whole
//!   transaction: every query until `COMMIT`/`ABORT` sees the exact
//!   same epoch, however many commits land in between.
//! - `BEGIN` (write) takes the engine transaction; the session's own
//!   reads route through the engine lock so they see the session's
//!   uncommitted writes. Writes and DDL always land on the primary.
//!
//! Every query a session runs is attributed to it in the trace ring via
//! [`toposem_obs::set_current_session`].
//!
//! [`Consistency::AtLeast`]: toposem_planner::Consistency::AtLeast

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use toposem_core::{AttrId, TypeId};
use toposem_extension::{Instance, Row, Value};
use toposem_planner::{
    Consistency, PinnedSnapshot, PlannedExecution, QueryRequest, QueryResponse, QueryTarget,
};
use toposem_storage::{Engine, IndexKind, Query, QueryError, SortDir};

use crate::proto::{CmpOp, QuerySpec, Stage};
use crate::replica::ReplicaPool;

static NEXT_SESSION_ID: AtomicU64 = AtomicU64::new(1);

/// What a session can fail with; rendered to clients as `ERR <message>`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// The command is illegal in the current transaction state.
    State(String),
    /// A type or attribute name did not resolve against the schema.
    Resolve(String),
    /// The engine rejected the operation.
    Engine(String),
    /// Query validation or execution failed.
    Query(String),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::State(m)
            | SessionError::Resolve(m)
            | SessionError::Engine(m)
            | SessionError::Query(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// The session's transaction state.
enum Txn {
    /// Autocommit: reads route per query (replica or snapshot).
    None,
    /// Holds the engine's write transaction.
    Write,
    /// A read transaction pinned to one snapshot epoch — on a replica
    /// engine when the pool could serve the read floor, else on the
    /// primary.
    Read(PinnedSnapshot),
}

/// Restores the thread's trace attribution when a query scope ends.
struct AttributionGuard;

impl Drop for AttributionGuard {
    fn drop(&mut self) {
        toposem_obs::set_current_session(None);
    }
}

/// A connection's handle on the engine: transaction state plus query,
/// DML, and DDL entry points. Dropping a session rolls back any write
/// transaction it still holds.
pub struct Session {
    engine: Arc<Engine>,
    replicas: Option<Arc<ReplicaPool>>,
    id: u64,
    txn: Txn,
    /// Primary WAL watermark at this session's last write: replica
    /// reads require at least this LSN (read-your-writes). 0 until the
    /// session writes.
    read_floor: u64,
}

impl Session {
    /// Opens a session over `engine` with a fresh id. Every read is
    /// served by the primary.
    pub fn new(engine: Arc<Engine>) -> Session {
        Session::with_replicas(engine, None)
    }

    /// Opens a session that routes autocommit reads and `BEGIN READ`
    /// pins to `replicas` (when `Some`), falling back to the primary
    /// when a replica is stale or the pool is empty.
    pub fn with_replicas(engine: Arc<Engine>, replicas: Option<Arc<ReplicaPool>>) -> Session {
        let id = NEXT_SESSION_ID.fetch_add(1, Ordering::Relaxed);
        engine.metrics().sessions_opened.inc();
        engine.metrics().sessions_open.inc();
        Session {
            engine,
            replicas,
            id,
            txn: Txn::None,
            read_floor: 0,
        }
    }

    /// This session's id, as stamped into query traces.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The engine this session fronts.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Whether a transaction (read or write) is open.
    pub fn in_txn(&self) -> bool {
        !matches!(self.txn, Txn::None)
    }

    /// `BEGIN` / `BEGIN READ`.
    pub fn begin(&mut self, read: bool) -> Result<(), SessionError> {
        if self.in_txn() {
            return Err(SessionError::State(
                "a transaction is already open".to_owned(),
            ));
        }
        if read {
            let pin = self.pin_read_target()?;
            self.txn = Txn::Read(pin);
        } else {
            self.engine
                .begin()
                .map_err(|e| SessionError::Engine(e.to_string()))?;
            self.txn = Txn::Write;
        }
        Ok(())
    }

    /// Picks the snapshot a `BEGIN READ` pins: a replica that has
    /// caught up to the session's read floor within the pool's
    /// staleness bound, else the primary's committed snapshot.
    fn pin_read_target(&self) -> Result<PinnedSnapshot, SessionError> {
        if let Some(pool) = &self.replicas {
            if let Some(follower) = pool.pick() {
                if follower.wait_for_lsn(self.read_floor, pool.staleness_bound()) {
                    if let Some(pin) = PinnedSnapshot::capture(&follower.engine()) {
                        return Ok(pin);
                    }
                }
                // Replica too stale (or unpinnable): read the primary.
            }
        }
        PinnedSnapshot::capture(&self.engine).ok_or_else(|| {
            SessionError::State(
                "no committed snapshot available (a write transaction is active)".to_owned(),
            )
        })
    }

    /// `COMMIT`. Committing a read transaction just releases the pin.
    pub fn commit(&mut self) -> Result<(), SessionError> {
        match std::mem::replace(&mut self.txn, Txn::None) {
            Txn::None => Err(SessionError::State("no open transaction".to_owned())),
            Txn::Read(_) => Ok(()),
            Txn::Write => {
                self.engine
                    .commit()
                    .map_err(|e| SessionError::Engine(e.to_string()))?;
                self.note_write();
                Ok(())
            }
        }
    }

    /// `ABORT`. Aborting a read transaction just releases the pin.
    pub fn abort(&mut self) -> Result<(), SessionError> {
        match std::mem::replace(&mut self.txn, Txn::None) {
            Txn::None => Err(SessionError::State("no open transaction".to_owned())),
            Txn::Read(_) => Ok(()),
            Txn::Write => self
                .engine
                .rollback()
                .map_err(|e| SessionError::Engine(e.to_string())),
        }
    }

    /// Runs a resolved query, returning the result as an ordered
    /// sequence (the root `order by`'s order, or arrival order) of
    /// whole instances: [`Session::query_rows`] with every joined row
    /// merged.
    pub fn query(&self, q: &Query) -> Result<(TypeId, Vec<Instance>), SessionError> {
        let (ty, rows) = self.query_rows(q.clone())?;
        Ok((ty, rows.into_iter().map(Row::into_instance).collect()))
    }

    /// Runs a resolved query it owns, returning the ordered sequence as
    /// the executor left it: a joined row is its unmerged (build, probe)
    /// pair. The server encodes replies from this.
    pub fn query_rows(&self, q: Query) -> Result<(TypeId, Vec<Row>), SessionError> {
        toposem_obs::set_current_session(Some(self.id));
        let _guard = AttributionGuard;
        let req = QueryRequest::new(q).ordered();
        let res = match &self.txn {
            // Pinned: every query in the transaction sees one epoch.
            Txn::Read(pin) => pin.run(&req),
            // Holding the write token: route through the engine lock so
            // the session sees its own uncommitted writes.
            Txn::Write => self.engine.run(&req),
            Txn::None => self.autocommit_read(req),
        };
        let resp = res.map_err(|e| SessionError::Query(e.to_string()))?;
        let rows = resp.rows.rows().expect("ordered request yields Seq rows");
        Ok((resp.ty, rows))
    }

    /// An autocommit read: a pooled replica first (requiring the
    /// session's read floor), then the primary's committed snapshot.
    /// The primary's `Snapshot` mode itself degrades to the locked path
    /// when no snapshot can be produced, so this never fails for lack
    /// of one.
    fn autocommit_read(&self, req: QueryRequest) -> Result<QueryResponse, QueryError> {
        let req = match self.replicas.as_ref().and_then(|pool| pool.pick()) {
            Some(follower) => {
                let req = req.at_least(self.read_floor);
                match follower.run(&req) {
                    // Stale past the bound: serve from the primary.
                    Err(QueryError::Stale { .. }) => req,
                    other => return other,
                }
            }
            None => req,
        };
        self.engine
            .run(&req.with_consistency(Consistency::Snapshot))
    }

    /// Records that this session changed the primary: replica reads
    /// from here on must have applied at least the current watermark.
    fn note_write(&mut self) {
        if let Some(lsn) = self.engine.wal_next_lsn() {
            self.read_floor = lsn;
        }
    }

    /// Renders the query's physical plan — inside a read transaction
    /// against the pinned snapshot's data, indexes, and statistics, so
    /// it is the plan the session would run.
    pub fn explain(&self, q: &Query) -> Result<String, SessionError> {
        match &self.txn {
            Txn::Read(pin) => pin.explain(q),
            _ => self.engine.explain(q),
        }
        .map_err(|e| SessionError::Query(e.to_string()))
    }

    fn writable(&self, what: &str) -> Result<(), SessionError> {
        match self.txn {
            Txn::Read(_) => Err(SessionError::State(format!(
                "{what} is not allowed in a read transaction"
            ))),
            _ => Ok(()),
        }
    }

    /// Inserts one instance; returns whether it was new.
    pub fn insert(&mut self, ty: TypeId, fields: &[(&str, Value)]) -> Result<bool, SessionError> {
        self.writable("insert")?;
        let inserted = self
            .engine
            .insert(ty, fields)
            .map_err(|e| SessionError::Engine(e.to_string()))?;
        self.note_write();
        Ok(inserted)
    }

    /// Deletes one instance identified by its full field list; returns
    /// the number of stored tuples removed (cascading included).
    pub fn delete(&mut self, ty: TypeId, fields: &[(&str, Value)]) -> Result<usize, SessionError> {
        self.writable("delete")?;
        let t = self
            .engine
            .with_db(|db| Instance::new(db.schema(), db.catalog(), ty, fields))
            .map_err(|e| SessionError::Query(e.to_string()))?;
        let removed = self
            .engine
            .delete(ty, &t)
            .map_err(|e| SessionError::Engine(e.to_string()))?;
        self.note_write();
        Ok(removed)
    }

    /// Builds an index. DDL is autocommit-only: index definitions are
    /// WAL-logged immediately and would not roll back with the
    /// transaction.
    pub fn create_index(
        &mut self,
        kind: IndexKind,
        ty: TypeId,
        attrs: &[AttrId],
    ) -> Result<(), SessionError> {
        self.ddl_allowed()?;
        self.engine
            .create_index_of(ty, kind, attrs)
            .map_err(|e| SessionError::Engine(e.to_string()))?;
        self.note_write();
        Ok(())
    }

    /// Drops an index; returns whether one existed. Autocommit-only,
    /// like [`Session::create_index`].
    pub fn drop_index(
        &mut self,
        kind: IndexKind,
        ty: TypeId,
        attrs: &[AttrId],
    ) -> Result<bool, SessionError> {
        self.ddl_allowed()?;
        let existed = self
            .engine
            .drop_index(ty, kind, attrs)
            .map_err(|e| SessionError::Engine(e.to_string()))?;
        self.note_write();
        Ok(existed)
    }

    fn ddl_allowed(&self) -> Result<(), SessionError> {
        if self.in_txn() {
            return Err(SessionError::State(
                "DDL is autocommit-only; COMMIT or ABORT first".to_owned(),
            ));
        }
        Ok(())
    }

    /// Resolves a protocol query against the engine's schema.
    pub fn resolve(&self, spec: &QuerySpec) -> Result<Query, SessionError> {
        self.engine.with_db(|db| resolve_query(db.schema(), spec))
    }

    /// Resolves an entity type name.
    pub fn type_id(&self, name: &str) -> Result<TypeId, SessionError> {
        self.engine.with_db(|db| {
            db.schema()
                .type_id(name)
                .ok_or_else(|| SessionError::Resolve(format!("unknown entity type `{name}`")))
        })
    }

    /// Resolves an attribute name.
    pub fn attr_id(&self, name: &str) -> Result<AttrId, SessionError> {
        self.engine.with_db(|db| {
            db.schema()
                .attr_id(name)
                .ok_or_else(|| SessionError::Resolve(format!("unknown attribute `{name}`")))
        })
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if matches!(self.txn, Txn::Write) {
            // Disconnect mid-transaction: roll the engine back so the
            // write token is not orphaned.
            let _ = self.engine.rollback();
        }
        self.engine.metrics().sessions_open.dec();
    }
}

/// Resolves a [`QuerySpec`]'s names against `schema` and builds the
/// engine [`Query`].
pub fn resolve_query(
    schema: &toposem_core::Schema,
    spec: &QuerySpec,
) -> Result<Query, SessionError> {
    let type_id = |name: &str| {
        schema
            .type_id(name)
            .ok_or_else(|| SessionError::Resolve(format!("unknown entity type `{name}`")))
    };
    let attr_id = |name: &str| {
        schema
            .attr_id(name)
            .ok_or_else(|| SessionError::Resolve(format!("unknown attribute `{name}`")))
    };
    let mut stages = spec.stages.iter();
    let mut q = match stages.next() {
        Some(Stage::Scan(ty)) => Query::scan(type_id(ty)?),
        Some(other) => {
            return Err(SessionError::Resolve(format!(
                "a pipeline must start with `scan`, not `{}`",
                stage_name(other)
            )))
        }
        None => return Err(SessionError::Resolve("empty pipeline".to_owned())),
    };
    for stage in stages {
        q = match stage {
            Stage::Scan(_) => {
                return Err(SessionError::Resolve(
                    "`scan` can only start a pipeline; use `join (scan …)`".to_owned(),
                ))
            }
            Stage::Select { attr, op, value } => {
                let a = attr_id(attr)?;
                let v = value.clone();
                match op {
                    CmpOp::Eq => q.select(a, v),
                    CmpOp::Lt => q.select_lt(a, v),
                    CmpOp::Le => q.select_le(a, v),
                    CmpOp::Gt => q.select_gt(a, v),
                    CmpOp::Ge => q.select_ge(a, v),
                }
            }
            Stage::Project(ty) => q.project(type_id(ty)?),
            Stage::Join(sub) => q.join(resolve_query(schema, sub)?),
            Stage::Union(sub) => q.union(resolve_query(schema, sub)?),
            Stage::Intersect(sub) => q.intersect(resolve_query(schema, sub)?),
            Stage::OrderBy(keys) => {
                let mut resolved: Vec<(AttrId, SortDir)> = Vec::with_capacity(keys.len());
                for (attr, dir) in keys {
                    resolved.push((attr_id(attr)?, *dir));
                }
                q.order_by(resolved)
            }
        };
    }
    Ok(q)
}

fn stage_name(s: &Stage) -> &'static str {
    match s {
        Stage::Scan(_) => "scan",
        Stage::Select { .. } => "select",
        Stage::Project(_) => "project",
        Stage::Join(_) => "join",
        Stage::Union(_) => "union",
        Stage::Intersect(_) => "intersect",
        Stage::OrderBy(_) => "order",
    }
}
