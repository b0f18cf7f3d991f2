//! The unified query-execution API: one [`QueryRequest`] builder, one
//! [`QueryTarget`] trait.
//!
//! The planner grew entry points combinatorially — planned/profiled/
//! snapshot × plain/ordered — several methods across three traits for
//! what is a single pipeline with three switches. This module collapses
//! them: a [`QueryRequest`] carries the query plus every switch
//! (ordering, profiling, and a read [`Consistency`]), and anything that
//! can answer queries implements [`QueryTarget`] — the live [`Engine`],
//! a pinned [`EngineSnapshot`] (via [`PinnedSnapshot`]), and a
//! replication follower's read-only handle. The old `PlannedExecution`
//! trait survives as a thin shim over this path, so every call site
//! shares one plan cache, one trace ring, and one metrics pipeline.
//!
//! `EXPLAIN ANALYZE` is an ordered, profiled request — the route a
//! session runs — so the profile times the execution a client gets,
//! not the insertion of every row into a result `BTreeSet`.
//!
//! ```
//! use toposem_core::{employee_schema, Intension};
//! use toposem_extension::{ContainmentPolicy, Database, DomainCatalog, Value};
//! use toposem_planner::{QueryRequest, QueryTarget};
//! use toposem_storage::{Engine, Query};
//!
//! let eng = Engine::new(Database::new(
//!     Intension::analyse(employee_schema()),
//!     DomainCatalog::employee_defaults(),
//!     ContainmentPolicy::Eager,
//! ));
//! let (employee, depname) = eng.with_db(|db| {
//!     let s = db.schema();
//!     (s.type_id("employee").unwrap(), s.attr_id("depname").unwrap())
//! });
//! eng.insert(employee, &[
//!     ("name", Value::str("ann")),
//!     ("age", Value::Int(40)),
//!     ("depname", Value::str("sales")),
//! ]).unwrap();
//!
//! let q = Query::scan(employee).select(depname, Value::str("sales"));
//! let resp = eng.run(&QueryRequest::new(q.clone())).unwrap();
//! assert_eq!(resp.ty, employee);
//! assert_eq!(resp.rows.len(), 1);
//!
//! // Same pipeline, different switches: ordered and profiled.
//! let resp = eng.run(&QueryRequest::new(q).ordered().profiled()).unwrap();
//! assert_eq!(resp.rows.len(), 1);
//! assert!(resp.profile.unwrap().render().contains("act=1"));
//! ```

use std::sync::Arc;

use toposem_core::TypeId;
use toposem_extension::{Instance, Relation};
use toposem_obs::QueryProfile;
use toposem_storage::{Engine, EngineSnapshot, Query, QueryError};

use crate::exec;
use crate::with_planned_profiled;

/// How current the read must be.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Consistency {
    /// The target's current state: the live engine's latest committed
    /// epoch (or, inside a transaction, its own uncommitted writes); on
    /// a replica, whatever it has applied so far.
    #[default]
    Latest,
    /// Pin the target's current committed snapshot for this execution —
    /// on a [`PinnedSnapshot`] target, the pinned epoch itself.
    Snapshot,
    /// Require the target to have applied at least this LSN; a replica
    /// that has not errs with [`QueryError::Stale`] (a follower handle
    /// may first wait out its configured staleness bound). Trivially
    /// satisfied on a primary, which is the source of LSNs.
    AtLeast(u64),
}

/// One query plus every execution switch — the argument every
/// [`QueryTarget`] takes.
#[derive(Clone, Debug)]
pub struct QueryRequest {
    query: Query,
    ordered: bool,
    profile: bool,
    consistency: Consistency,
}

impl QueryRequest {
    /// A request with the defaults: unordered set result, no profile,
    /// [`Consistency::Latest`].
    pub fn new(query: Query) -> Self {
        QueryRequest {
            query,
            ordered: false,
            profile: false,
            consistency: Consistency::Latest,
        }
    }

    /// Return the result as a sequence honouring the query's root
    /// `OrderBy` (the planner carries or enforces the order).
    pub fn ordered(mut self) -> Self {
        self.ordered = true;
        self
    }

    /// Also assemble the annotated [`QueryProfile`] tree
    /// (`EXPLAIN ANALYZE`); execution itself is unchanged.
    pub fn profiled(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Set the read-consistency requirement.
    pub fn with_consistency(mut self, c: Consistency) -> Self {
        self.consistency = c;
        self
    }

    /// Shorthand for [`Consistency::AtLeast`].
    pub fn at_least(self, lsn: u64) -> Self {
        self.with_consistency(Consistency::AtLeast(lsn))
    }

    /// The query to execute.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Whether an ordered sequence was requested.
    pub fn is_ordered(&self) -> bool {
        self.ordered
    }

    /// Whether the caller wants the assembled profile.
    pub fn wants_profile(&self) -> bool {
        self.profile
    }

    /// The read-consistency requirement.
    pub fn consistency(&self) -> Consistency {
        self.consistency
    }
}

/// Result rows: a set for plain requests, a presentation-ordered
/// sequence for [`QueryRequest::ordered`] ones.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryRows {
    /// An unordered result relation.
    Set(Relation),
    /// A deduplicated sequence in the requested order.
    Seq(Vec<Instance>),
}

impl QueryRows {
    /// Number of result tuples.
    pub fn len(&self) -> usize {
        match self {
            QueryRows::Set(rel) => rel.len(),
            QueryRows::Seq(seq) => seq.len(),
        }
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate the tuples (in presentation order for `Seq`).
    pub fn iter(&self) -> Box<dyn Iterator<Item = &Instance> + '_> {
        match self {
            QueryRows::Set(rel) => Box::new(rel.iter()),
            QueryRows::Seq(seq) => Box::new(seq.iter()),
        }
    }

    /// The relation, when this is a set result.
    pub fn set(self) -> Option<Relation> {
        match self {
            QueryRows::Set(rel) => Some(rel),
            QueryRows::Seq(_) => None,
        }
    }

    /// The sequence, when this is an ordered result.
    pub fn seq(self) -> Option<Vec<Instance>> {
        match self {
            QueryRows::Set(_) => None,
            QueryRows::Seq(seq) => Some(seq),
        }
    }
}

/// What a [`QueryTarget`] returns: the result's entity type, the rows,
/// and — when requested (or the query crossed the slow threshold) — the
/// assembled profile.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// Entity type of the result (every sanctioned query has one).
    pub ty: TypeId,
    /// The result tuples.
    pub rows: QueryRows,
    /// The annotated profile, present when
    /// [`QueryRequest::profiled`] was set (and sometimes when the query
    /// was slow enough to profile anyway).
    pub profile: Option<Arc<QueryProfile>>,
}

/// Anything that can answer a [`QueryRequest`]: the live [`Engine`], a
/// pinned snapshot, a replication follower.
pub trait QueryTarget {
    /// Plan (or hit the plan cache), execute, observe, and return.
    fn run(&self, req: &QueryRequest) -> Result<QueryResponse, QueryError>;
}

/// The shared execution body: everything lands on
/// [`with_planned_profiled`] with an optional pinned snapshot.
pub(crate) fn run_with(
    eng: &Engine,
    req: &QueryRequest,
    pinned: Option<&Arc<EngineSnapshot>>,
) -> Result<QueryResponse, QueryError> {
    if req.is_ordered() {
        let (ty, seq, profile) = with_planned_profiled(
            eng,
            req.query(),
            pinned,
            req.wants_profile(),
            exec::execute_ordered_profiled,
            |seq| seq.len() as u64,
        )?;
        Ok(QueryResponse {
            ty,
            rows: QueryRows::Seq(seq),
            profile,
        })
    } else {
        let (ty, rel, profile) = with_planned_profiled(
            eng,
            req.query(),
            pinned,
            req.wants_profile(),
            exec::execute_profiled,
            |rel| rel.len() as u64,
        )?;
        Ok(QueryResponse {
            ty,
            rows: QueryRows::Set(rel),
            profile,
        })
    }
}

impl QueryTarget for Engine {
    fn run(&self, req: &QueryRequest) -> Result<QueryResponse, QueryError> {
        match req.consistency() {
            Consistency::Latest => run_with(self, req, None),
            // `snapshot()` is None while a transaction is active — the
            // txn's own reads must see its writes, so fall through to
            // the locked path, same as Latest.
            Consistency::Snapshot => match self.snapshot() {
                Some(snap) => run_with(self, req, Some(&snap)),
                None => run_with(self, req, None),
            },
            Consistency::AtLeast(lsn) => {
                // A primary is the source of LSNs: trivially satisfied.
                // A bare replica engine checks its watermark; waiting
                // out a staleness bound is the follower handle's job.
                if self.is_read_only() && self.applied_lsn() < lsn {
                    return Err(QueryError::Stale {
                        want_lsn: lsn,
                        applied_lsn: self.applied_lsn(),
                    });
                }
                run_with(self, req, None)
            }
        }
    }
}

/// An [`EngineSnapshot`] paired with the engine that produced it — the
/// snapshot target for [`QueryTarget`]. The pairing is what lets a
/// pinned read still share the engine's plan cache, metrics, and trace
/// ring (an `EngineSnapshot` alone has no back-reference).
#[derive(Clone)]
pub struct PinnedSnapshot {
    engine: Arc<Engine>,
    snap: Arc<EngineSnapshot>,
}

impl PinnedSnapshot {
    /// Pin `snap` (captured from `engine` via [`Engine::snapshot`]) as
    /// a query target.
    pub fn new(engine: Arc<Engine>, snap: Arc<EngineSnapshot>) -> Self {
        PinnedSnapshot { engine, snap }
    }

    /// Capture the engine's current committed snapshot as a target.
    /// `None` while a transaction is active on the engine handle.
    pub fn capture(engine: &Arc<Engine>) -> Option<Self> {
        let snap = engine.snapshot()?;
        Some(PinnedSnapshot {
            engine: Arc::clone(engine),
            snap,
        })
    }

    /// The pinned snapshot.
    pub fn snapshot(&self) -> &Arc<EngineSnapshot> {
        &self.snap
    }

    /// The engine the snapshot came from.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Renders `q`'s plan against the pinned snapshot's database,
    /// indexes, and statistics — the plan [`QueryTarget::run`] executes
    /// on this target, not the live engine's.
    pub fn explain(&self, q: &Query) -> Result<String, QueryError> {
        let s = &self.snap;
        crate::render_explain(
            &self.engine,
            q,
            s.db(),
            s.indexes(),
            &s.statistics(),
            s.stats_epoch(),
        )
    }
}

impl QueryTarget for PinnedSnapshot {
    fn run(&self, req: &QueryRequest) -> Result<QueryResponse, QueryError> {
        // Latest *and* Snapshot both mean the pinned epoch here — that
        // is the whole point of pinning. An LSN floor cannot be
        // verified against an epoch-pinned snapshot, so `AtLeast` is
        // answered from the pin as well; session layers route such
        // requests before pinning.
        run_with(&self.engine, req, Some(&self.snap))
    }
}
