//! # toposem-planner
//!
//! A cost-based query planner and vectorised executor for the
//! topology-sanctioned query algebra of `toposem-storage`.
//!
//! The naive `Query::execute` interpreter materialises every
//! intermediate relation and never consults the engine's secondary
//! indexes. This crate compiles the same `Query` AST through three
//! stages:
//!
//! 1. **[`logical`]** — lowering into a typed logical plan plus a rewrite
//!    pass (selection pushdown through sanctioned projections, joins, and
//!    set operations; select-merge over equality *and* range predicates;
//!    dead-branch elimination via per-attribute interval intersection and
//!    finite-domain exclusion). Every rewrite preserves the entity type
//!    of every subplan — the paper's core invariant that a query result
//!    is always an instance set of a declared entity type.
//! 2. **[`cost`]** — cardinality/cost estimation over the engine's
//!    [`toposem_storage::Statistics`] layer (per-type cardinalities,
//!    per-attribute distinct counts feeding join cardinalities, equi-depth
//!    histograms for integer ranges), driving access-path selection,
//!    build-side choice, and join reordering.
//! 3. **[`physical`] / [`exec`]** — *property-aware* physical planning:
//!    every operator advertises its output sort order, each logical node
//!    compiles to a non-dominated (cost, order) candidate frontier, and
//!    multi-way joins are reordered by DPsize over the sanctioned subset
//!    lattice (greedy above 8 relations). Operators: `IndexSeek`,
//!    `IndexRangeSeek` over ordered indexes, `CompositeSeek` over
//!    composite-index prefixes + range suffixes, `IndexOnlyScan` over
//!    covering indexes, `SeqScan`, `Filter`, `Project`, `HashJoin`,
//!    `MergeJoin` (consuming carried order), `Sort` (enforcing it),
//!    `Union`, `Intersect` — executed as a push-based batch pipeline,
//!    one query per thread. Concurrency comes from sessions running
//!    against lock-free committed snapshots.
//!
//! The entry point is the [`QueryTarget`] trait with a [`QueryRequest`]
//! builder — one pipeline behind every switch (ordering, options,
//! profiling, read consistency), implemented by the live engine, pinned
//! snapshots, and replication followers:
//!
//! ```
//! use toposem_core::{employee_schema, Intension};
//! use toposem_extension::{ContainmentPolicy, Database, DomainCatalog, Value};
//! use toposem_planner::{PlannedExecution, QueryRequest, QueryTarget};
//! use toposem_storage::{Engine, Query};
//!
//! let eng = Engine::new(Database::new(
//!     Intension::analyse(employee_schema()),
//!     DomainCatalog::employee_defaults(),
//!     ContainmentPolicy::Eager,
//! ));
//! let (employee, depname, age) = eng.with_db(|db| {
//!     let s = db.schema();
//!     (
//!         s.type_id("employee").unwrap(),
//!         s.attr_id("depname").unwrap(),
//!         s.attr_id("age").unwrap(),
//!     )
//! });
//! for (name, age, dep) in [
//!     ("ann", 40, "sales"),
//!     ("bob", 30, "research"),
//!     ("carol", 25, "admin"),
//!     ("dave", 35, "research"),
//! ] {
//!     eng.insert(employee, &[
//!         ("name", Value::str(name)),
//!         ("age", Value::Int(age)),
//!         ("depname", Value::str(dep)),
//!     ]).unwrap();
//! }
//! eng.create_index(employee, depname).unwrap();
//! eng.create_ord_index(employee, age).unwrap();
//!
//! let q = Query::scan(employee).select(depname, Value::str("sales"));
//! let resp = eng.run(&QueryRequest::new(q.clone())).unwrap();
//! assert_eq!(resp.ty, employee);
//! assert_eq!(resp.rows.len(), 1);
//! // The same query explains as an index seek:
//! assert!(eng.explain(&q).unwrap().contains("IndexSeek"));
//!
//! // A selective range walks only the qualifying slice of the BTree
//! // (a wide range would price near the whole table — the equi-depth
//! // histogram sees that — and scan instead):
//! let r = Query::scan(employee).select_between(age, Value::Int(25), Value::Int(26));
//! let resp = eng.run(&QueryRequest::new(r.clone())).unwrap();
//! assert_eq!(resp.rows.len(), 1); // carol (25)
//! assert!(eng.explain(&r).unwrap().contains("IndexRangeSeek"));
//!
//! // An ascending order-by over the ordered index is carried, not
//! // enforced — an `ordered` request returns the sequence:
//! let o = Query::scan(employee).order_by_asc(age);
//! let seq = eng.run(&QueryRequest::new(o.clone()).ordered()).unwrap().rows.seq().unwrap();
//! let ages: Vec<_> = seq.iter().map(|t| t.get(age).cloned().unwrap()).collect();
//! assert_eq!(ages, vec![Value::Int(25), Value::Int(30), Value::Int(35), Value::Int(40)]);
//! assert!(!eng.explain(&o).unwrap().contains("Sort"));
//! ```

pub mod cost;
pub mod exec;
pub mod logical;
pub mod physical;
pub mod profile;
pub mod request;

use std::sync::Arc;
use std::time::Instant;

use toposem_core::TypeId;
use toposem_extension::{Instance, Relation};
use toposem_obs::{PlanProfile, QueryProfile, QueryTrace};
use toposem_storage::{Engine, EngineSnapshot, Query, QueryError};

pub use cost::{estimate, Estimate};
pub use exec::{
    execute, execute_ordered, execute_ordered_with, execute_profiled, plan_supported, ExecOptions,
};
pub use logical::{lower_and_rewrite, Logical};
pub use physical::{
    order_satisfies, order_satisfies_with_bound, plan, plan_with, Physical, PlannerOptions,
    BATCH_SIZE,
};
pub use profile::build_op_profile;
pub use request::{
    Consistency, PinnedSnapshot, QueryRequest, QueryResponse, QueryRows, QueryTarget,
};

/// Planned execution of sanctioned queries — implemented for
/// [`Engine`], giving it the `query_planned` entry point.
///
/// **Deprecation note.** This trait predates the unified [`QueryRequest`] /
/// [`QueryTarget`] API and survives as a thin shim over it — same plan
/// cache, same trace, same results. New code should build a
/// [`QueryRequest`] and call [`QueryTarget::run`]; these methods remain
/// for source compatibility and may be removed in a future major
/// version.
///
/// **Integrity assumption.** The optimizer performs *semantic* rewrites
/// that rely on declared constraints: a selection constant outside its
/// attribute's domain proves a branch empty. Every mutation through the
/// engine enforces those constraints, so the assumption is sound for
/// engine-managed data; only `toposem_extension::Database::insert_unchecked`
/// bulk loads can plant violating tuples, and such data must be audited
/// (or re-validated) before planned execution is meaningful over it.
pub trait PlannedExecution {
    /// Plans and executes `q`, returning its entity type and result
    /// relation — observably identical to the naive `Query::execute`
    /// on domain-respecting extensions, just faster. Physical plans are
    /// cached on the engine keyed by `(query fingerprint, statistics
    /// epoch)`, so a hot query repeated between mutations skips
    /// rewrite+costing entirely.
    fn query_planned(&self, q: &Query) -> Result<(TypeId, Relation), QueryError>;

    /// Plans and executes `q`, returning its tuples as a sequence
    /// honouring the query's root [`Query::OrderBy`] (when it has one):
    /// the planner either picks an order-carrying access path — index
    /// walks and merge joins emit sorted output for free — or inserts a
    /// `Sort` enforcer. The sequence is deduplicated (results are sets
    /// with a presentation order). Shares the plan cache with
    /// [`PlannedExecution::query_planned`].
    fn query_planned_ordered(&self, q: &Query) -> Result<(TypeId, Vec<Instance>), QueryError>;

    /// Renders the chosen physical plan with cost estimates and the plan
    /// cache's hit/miss counters.
    fn explain(&self, q: &Query) -> Result<String, QueryError>;
}

/// A cache entry: the physical plan plus the canonical rendering of the
/// query it was planned for. The cache key is a 64-bit fingerprint of
/// that rendering; the stored rendering is compared on every hit so a
/// fingerprint collision degrades to a miss instead of silently
/// executing another query's plan. The plan's own fingerprint is
/// computed once at plan time so hit-path tracing costs nothing.
struct CachedPlan {
    query_repr: String,
    physical: Physical,
    plan_hash: u64,
}

/// The shared plan-then-run path behind every execution entry point:
/// consult the plan cache, otherwise lower/rewrite/plan and cache the
/// result, and hand the physical plan (with a consistent database +
/// index snapshot) and a freshly sized [`PlanProfile`] to `run`.
///
/// **MVCC routing.** Outside a transaction (or with an explicitly
/// `pinned` snapshot) the whole query — planning, plan validation, and
/// execution — runs against an immutable committed-epoch
/// [`EngineSnapshot`], so readers never hold the engine lock while the
/// single writer mutates the next epoch. Inside a transaction the
/// locked path is kept: the transaction's own queries must see its
/// uncommitted writes. Both routes share the plan cache; snapshot
/// plans are keyed on the snapshot's epoch, so a plan from a newer
/// epoch is never run against an older snapshot (or vice versa).
///
/// Always-on observability: every query allocates its per-operator
/// profile (atomic slots the executor merges into batch-wise), times
/// its plan and exec phases, updates the engine's query metrics, and
/// pushes an entry into the engine's trace ring. The annotated
/// [`QueryProfile`] tree is only *assembled* when the caller asks for
/// it (`want_profile`) or the query crossed the slow-query threshold —
/// assembly re-walks the plan, so it stays off the per-query fast path.
fn with_planned_profiled<R>(
    eng: &Engine,
    q: &Query,
    pinned: Option<&Arc<EngineSnapshot>>,
    want_profile: bool,
    run: impl Fn(
        &Physical,
        &toposem_extension::Database,
        &[Vec<toposem_storage::Index>],
        &PlanProfile,
    ) -> R,
    count_rows: impl Fn(&R) -> u64,
) -> Result<(TypeId, R, Option<Arc<QueryProfile>>), QueryError> {
    let plan_t0 = Instant::now();
    eng.metrics().queries_planned.inc();
    let snap = match pinned {
        Some(s) => Some(Arc::clone(s)),
        None if eng.active_txn_token().is_none() => eng.snapshot(),
        None => None,
    };
    // Epoch before statistics: a mutation in between invalidates the
    // epoch, so a stale plan can be cached but never *stored* as
    // current (plan_cache_store re-checks the epoch). On the snapshot
    // route the *snapshot's* epoch is used, so a pinned (older)
    // snapshot simply misses the cache instead of poisoning it.
    let epoch = match &snap {
        Some(s) => s.stats_epoch(),
        None => eng.statistics_epoch(),
    };
    let query_repr = format!("{q:?}");
    let fingerprint = Query::fingerprint_str(&query_repr);
    if let Some(cached) = eng.plan_cache_lookup(fingerprint, epoch) {
        if let Some(entry) = cached.downcast_ref::<CachedPlan>() {
            if entry.query_repr == query_repr {
                let physical = &entry.physical;
                let profile = PlanProfile::new(physical.node_count());
                let plan_ns = plan_t0.elapsed().as_nanos() as u64;
                let exec_t0 = Instant::now();
                // A concurrent `drop_index` between the epoch read above
                // and this execution can strand a cached plan whose index
                // no longer exists; validate the plan against the same
                // index array the execution will use (the immutable
                // snapshot's, or the live one *under the same lock
                // acquisition*), and fall through to replanning on a
                // miss.
                let hit = match &snap {
                    Some(s) => exec::plan_supported(physical, s.indexes())
                        .then(|| (physical.ty(), run(physical, s.db(), s.indexes(), &profile))),
                    None => eng.with_parts(|db, indexes| {
                        exec::plan_supported(physical, indexes)
                            .then(|| (physical.ty(), run(physical, db, indexes, &profile)))
                    }),
                };
                if let Some((ty, out)) = hit {
                    let exec_ns = exec_t0.elapsed().as_nanos() as u64;
                    let qp = observe_query(
                        eng,
                        snap.as_deref(),
                        physical,
                        &profile,
                        ObservedQuery {
                            fingerprint,
                            plan_hash: entry.plan_hash,
                            plan_ns,
                            exec_ns,
                            cache_hit: true,
                            rows: count_rows(&out),
                        },
                        want_profile,
                    );
                    return Ok((ty, out, qp));
                }
            }
        }
    }
    let (ty, physical, out, profile, plan_ns, exec_ns) = match &snap {
        Some(s) => {
            let stats = s.statistics();
            let (db, indexes) = (s.db(), s.indexes());
            let logical = lower_and_rewrite(q, db)?;
            let physical = plan(&logical, db, indexes, &stats);
            debug_assert_eq!(physical.ty(), logical.ty());
            let profile = PlanProfile::new(physical.node_count());
            let plan_ns = plan_t0.elapsed().as_nanos() as u64;
            let exec_t0 = Instant::now();
            let out = run(&physical, db, indexes, &profile);
            let exec_ns = exec_t0.elapsed().as_nanos() as u64;
            (logical.ty(), physical, out, profile, plan_ns, exec_ns)
        }
        None => {
            let stats = eng.statistics();
            eng.with_parts(|db, indexes| {
                let logical = lower_and_rewrite(q, db)?;
                let physical = plan(&logical, db, indexes, &stats);
                debug_assert_eq!(physical.ty(), logical.ty());
                let profile = PlanProfile::new(physical.node_count());
                let plan_ns = plan_t0.elapsed().as_nanos() as u64;
                let exec_t0 = Instant::now();
                let out = run(&physical, db, indexes, &profile);
                let exec_ns = exec_t0.elapsed().as_nanos() as u64;
                Ok::<_, QueryError>((logical.ty(), physical, out, profile, plan_ns, exec_ns))
            })?
        }
    };
    let plan_hash = Query::fingerprint_str(&format!("{physical:?}"));
    let qp = observe_query(
        eng,
        snap.as_deref(),
        &physical,
        &profile,
        ObservedQuery {
            fingerprint,
            plan_hash,
            plan_ns,
            exec_ns,
            cache_hit: false,
            rows: count_rows(&out),
        },
        want_profile,
    );
    eng.plan_cache_store(
        fingerprint,
        epoch,
        Arc::new(CachedPlan {
            query_repr,
            physical,
            plan_hash,
        }),
    );
    Ok((ty, out, qp))
}

/// Phase timings and identity of one observed query execution.
struct ObservedQuery {
    fingerprint: u64,
    plan_hash: u64,
    plan_ns: u64,
    exec_ns: u64,
    cache_hit: bool,
    rows: u64,
}

/// Post-execution bookkeeping: query metrics, the slow-query check, the
/// worst q-error, the trace-ring entry, and — when requested or slow —
/// the annotated profile tree. Runs *after* `with_parts`
/// returned, so re-acquiring the engine lock for label rendering is
/// safe.
fn observe_query(
    eng: &Engine,
    snap: Option<&EngineSnapshot>,
    physical: &Physical,
    profile: &PlanProfile,
    obs: ObservedQuery,
    want_profile: bool,
) -> Option<Arc<QueryProfile>> {
    let metrics = eng.metrics();
    metrics.query_rows_returned.add(obs.rows);
    let trace = eng.query_trace();
    let slow = obs.plan_ns + obs.exec_ns >= trace.slow_query_ns();
    if slow {
        metrics.queries_slow.inc();
    }
    // Statistics the execution actually ran with: the snapshot's on the
    // MVCC route (never the live engine's — a concurrent writer may
    // already be in another epoch), the engine's on the locked route.
    let stats = match snap {
        Some(s) => s.statistics(),
        None => eng.statistics(),
    };
    let max_q = profile::max_q_error(physical, &stats, profile);
    metrics
        .planner_qerror
        .record((max_q * 100.0).round() as u64);
    let assembled = (want_profile || slow).then(|| {
        let root = match snap {
            Some(s) => profile::build_op_profile(physical, s.db(), &stats, profile),
            None => eng.with_db(|db| profile::build_op_profile(physical, db, &stats, profile)),
        };
        Arc::new(QueryProfile {
            fingerprint: obs.fingerprint,
            plan_hash: obs.plan_hash,
            plan_ns: obs.plan_ns,
            exec_ns: obs.exec_ns,
            cache_hit: obs.cache_hit,
            rows: obs.rows,
            root,
        })
    });
    trace.push(QueryTrace {
        fingerprint: obs.fingerprint,
        plan_hash: obs.plan_hash,
        plan_ns: obs.plan_ns,
        exec_ns: obs.exec_ns,
        commit_ns: 0,
        rows: obs.rows,
        cache_hit: obs.cache_hit,
        slow,
        max_q,
        txn: eng.active_txn_token(),
        session: toposem_obs::current_session(),
        profile: assembled.clone(),
    });
    assembled
}

impl PlannedExecution for Engine {
    fn query_planned(&self, q: &Query) -> Result<(TypeId, Relation), QueryError> {
        let resp = self.run(&QueryRequest::new(q.clone()))?;
        Ok((resp.ty, resp.rows.set().expect("plain request yields Set")))
    }

    fn query_planned_ordered(&self, q: &Query) -> Result<(TypeId, Vec<Instance>), QueryError> {
        let resp = self.run(&QueryRequest::new(q.clone()).ordered())?;
        Ok((
            resp.ty,
            resp.rows.seq().expect("ordered request yields Seq"),
        ))
    }

    fn explain(&self, q: &Query) -> Result<String, QueryError> {
        let stats = self.statistics();
        let epoch = self.statistics_epoch();
        self.with_parts(|db, indexes| render_explain(self, q, db, indexes, &stats, epoch))
    }
}

/// Renders `q`'s physical plan over one consistent view — `db` and
/// `indexes` priced by `stats`, captured under statistics epoch `epoch`
/// — followed by `eng`'s plan-cache counters. Shared by
/// [`PlannedExecution::explain`] (the live engine) and
/// [`PinnedSnapshot::explain`] (a pinned epoch).
fn render_explain(
    eng: &Engine,
    q: &Query,
    db: &toposem_extension::Database,
    indexes: &[Vec<toposem_storage::Index>],
    stats: &toposem_storage::Statistics,
    epoch: u64,
) -> Result<String, QueryError> {
    let logical = lower_and_rewrite(q, db)?;
    let physical = plan(&logical, db, indexes, stats);
    let mut out = physical.explain(db, stats);
    if !out.ends_with('\n') {
        out.push('\n');
    }
    let cache = eng.plan_cache_stats();
    out.push_str(&format!(
        "PlanCache: {} hits, {} misses (statistics epoch {epoch})\n",
        cache.hits, cache.misses
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use toposem_core::{employee_schema, Intension};
    use toposem_extension::{ContainmentPolicy, Database, DomainCatalog, Value};

    fn engine(policy: ContainmentPolicy) -> Engine {
        let eng = Engine::new(Database::new(
            Intension::analyse(employee_schema()),
            DomainCatalog::employee_defaults(),
            policy,
        ));
        let s = eng.with_db(|db| db.schema().clone());
        for (n, a, d, b) in [("ann", 40, "sales", 100), ("bob", 50, "research", 80)] {
            eng.insert(
                s.type_id("manager").unwrap(),
                &[
                    ("name", Value::str(n)),
                    ("age", Value::Int(a)),
                    ("depname", Value::str(d)),
                    ("budget", Value::Int(b)),
                ],
            )
            .unwrap();
        }
        for (n, a, d) in [("carol", 25, "sales"), ("dave", 35, "research")] {
            eng.insert(
                s.type_id("employee").unwrap(),
                &[
                    ("name", Value::str(n)),
                    ("age", Value::Int(a)),
                    ("depname", Value::str(d)),
                ],
            )
            .unwrap();
        }
        for (d, l) in [("sales", "amsterdam"), ("research", "utrecht")] {
            eng.insert(
                s.type_id("department").unwrap(),
                &[("depname", Value::str(d)), ("location", Value::str(l))],
            )
            .unwrap();
        }
        eng
    }

    fn agree(eng: &Engine, q: &Query) {
        let naive = eng.with_db(|db| q.execute(db));
        let planned = eng.query_planned(q);
        match (naive, planned) {
            (Ok(n), Ok(p)) => assert_eq!(n, p, "planned != naive for {q:?}"),
            (Err(en), Err(ep)) => assert_eq!(en, ep),
            (n, p) => panic!("divergent outcomes: naive {n:?}, planned {p:?}"),
        }
    }

    #[test]
    fn planned_matches_naive_across_operators() {
        for policy in [ContainmentPolicy::Eager, ContainmentPolicy::OnDemand] {
            let eng = engine(policy);
            let s = eng.with_db(|db| db.schema().clone());
            let employee = s.type_id("employee").unwrap();
            let person = s.type_id("person").unwrap();
            let department = s.type_id("department").unwrap();
            let depname = s.attr_id("depname").unwrap();
            let age = s.attr_id("age").unwrap();
            let queries = [
                Query::scan(employee),
                Query::scan(employee).select(depname, Value::str("sales")),
                Query::scan(employee)
                    .select(depname, Value::str("sales"))
                    .select(age, Value::Int(25)),
                Query::scan(employee).project(person),
                Query::scan(employee)
                    .select(depname, Value::str("research"))
                    .project(person),
                Query::scan(employee).join(Query::scan(department)),
                Query::scan(employee)
                    .join(Query::scan(department))
                    .select(depname, Value::str("sales")),
                Query::scan(employee)
                    .select(depname, Value::str("sales"))
                    .union(Query::scan(employee).select(depname, Value::str("research"))),
                Query::scan(employee)
                    .select(depname, Value::str("sales"))
                    .intersect(Query::scan(employee).select(age, Value::Int(25))),
                // Select after project-of-join: exercises pushdown through
                // two operator layers.
                Query::scan(employee)
                    .join(Query::scan(department))
                    .project(person)
                    .select(age, Value::Int(40)),
            ];
            for q in &queries {
                agree(&eng, q);
            }
        }
    }

    #[test]
    fn planned_matches_naive_with_indexes() {
        let eng = engine(ContainmentPolicy::Eager);
        let s = eng.with_db(|db| db.schema().clone());
        let employee = s.type_id("employee").unwrap();
        let department = s.type_id("department").unwrap();
        let depname = s.attr_id("depname").unwrap();
        let age = s.attr_id("age").unwrap();
        eng.create_index(employee, depname).unwrap();
        eng.create_index(department, depname).unwrap();
        let queries = [
            Query::scan(employee).select(depname, Value::str("sales")),
            Query::scan(employee)
                .select(age, Value::Int(25))
                .select(depname, Value::str("sales")),
            Query::scan(employee).join(Query::scan(department)),
            Query::scan(employee)
                .join(Query::scan(department))
                .select(depname, Value::str("research")),
        ];
        for q in &queries {
            agree(&eng, q);
        }
        let plan = eng
            .explain(&Query::scan(employee).select(depname, Value::str("sales")))
            .unwrap();
        assert!(
            plan.contains("IndexSeek"),
            "expected an index seek:\n{plan}"
        );
    }

    #[test]
    fn planned_matches_naive_for_range_and_composite_queries() {
        use toposem_storage::Predicate;
        for policy in [ContainmentPolicy::Eager, ContainmentPolicy::OnDemand] {
            let eng = engine(policy);
            let s = eng.with_db(|db| db.schema().clone());
            let employee = s.type_id("employee").unwrap();
            let person = s.type_id("person").unwrap();
            let age = s.attr_id("age").unwrap();
            let name = s.attr_id("name").unwrap();
            let depname = s.attr_id("depname").unwrap();
            if policy == ContainmentPolicy::Eager {
                eng.create_ord_index(employee, age).unwrap();
                eng.create_composite_index(employee, &[depname, name])
                    .unwrap();
            }
            let queries = [
                Query::scan(employee).select_lt(age, Value::Int(35)),
                Query::scan(employee).select_le(age, Value::Int(35)),
                Query::scan(employee).select_gt(age, Value::Int(35)),
                Query::scan(employee).select_ge(age, Value::Int(40)),
                Query::scan(employee).select_between(age, Value::Int(25), Value::Int(40)),
                // Conjunctive range + equality across attributes.
                Query::scan(employee)
                    .select_between(age, Value::Int(20), Value::Int(60))
                    .select(depname, Value::str("sales")),
                // Conjunctive multi-attribute equality (composite prefix).
                Query::scan(employee)
                    .select_all(&[(depname, Value::str("sales")), (name, Value::str("carol"))]),
                // Two ranges on the same attribute intersect.
                Query::scan(employee)
                    .select_ge(age, Value::Int(25))
                    .select_lt(age, Value::Int(50)),
                // Degenerate range collapsing to a point.
                Query::scan(employee)
                    .select_ge(age, Value::Int(25))
                    .select_le(age, Value::Int(25)),
                // Range below a projection.
                Query::scan(employee)
                    .select_between(age, Value::Int(20), Value::Int(45))
                    .project(person),
                // Inverted range: provably empty.
                Query::scan(employee).select_between(age, Value::Int(50), Value::Int(20)),
                // Range predicate via the generic constructor.
                Query::scan(employee).select_pred(age, Predicate::Gt(Value::Int(29))),
            ];
            for q in &queries {
                agree(&eng, q);
            }
        }
    }

    #[test]
    fn selective_range_query_chooses_index_range_seek() {
        let eng = engine(ContainmentPolicy::Eager);
        let s = eng.with_db(|db| db.schema().clone());
        let employee = s.type_id("employee").unwrap();
        let age = s.attr_id("age").unwrap();
        // Bulk data so the range is selective.
        for i in 0..500 {
            eng.insert(
                employee,
                &[
                    ("name", Value::str(&format!("w{i}"))),
                    ("age", Value::Int(i % 90)),
                    ("depname", Value::str("admin")),
                ],
            )
            .unwrap();
        }
        eng.create_ord_index(employee, age).unwrap();
        let q = Query::scan(employee).select_between(age, Value::Int(10), Value::Int(12));
        let plan = eng.explain(&q).unwrap();
        assert!(
            plan.contains("IndexRangeSeek"),
            "selective range must choose the ordered index:\n{plan}"
        );
        agree(&eng, &q);
        // A point query through the same ordered index degenerates to a
        // point seek.
        let point = Query::scan(employee).select(age, Value::Int(41));
        let plan = eng.explain(&point).unwrap();
        assert!(
            plan.contains("IndexSeek"),
            "equality over an ordered index seeks a point:\n{plan}"
        );
        agree(&eng, &point);
    }

    #[test]
    fn composite_prefix_and_index_only_scans_are_chosen() {
        let eng = engine(ContainmentPolicy::Eager);
        let s = eng.with_db(|db| db.schema().clone());
        let employee = s.type_id("employee").unwrap();
        let person = s.type_id("person").unwrap();
        let name = s.attr_id("name").unwrap();
        let age = s.attr_id("age").unwrap();
        let depname = s.attr_id("depname").unwrap();
        for i in 0..300 {
            eng.insert(
                employee,
                &[
                    ("name", Value::str(&format!("w{i}"))),
                    ("age", Value::Int(i % 90)),
                    (
                        "depname",
                        Value::str(["sales", "research", "admin"][(i % 3) as usize]),
                    ),
                ],
            )
            .unwrap();
        }
        eng.create_composite_index(employee, &[depname, name])
            .unwrap();
        // Full-prefix conjunctive equality: CompositeSeek.
        let q = Query::scan(employee)
            .select(depname, Value::str("sales"))
            .select(name, Value::str("w42"));
        let plan = eng.explain(&q).unwrap();
        assert!(
            plan.contains("CompositeSeek"),
            "conjunctive equality must use the composite prefix:\n{plan}"
        );
        agree(&eng, &q);
        // Partial prefix (leading attribute only) still seeks.
        let q = Query::scan(employee).select(depname, Value::str("research"));
        let plan = eng.explain(&q).unwrap();
        assert!(
            plan.contains("CompositeSeek"),
            "leading-attribute equality must use the composite prefix:\n{plan}"
        );
        agree(&eng, &q);
        // A projection covered by an index's key attributes goes
        // index-only: person = {name, age} ⊆ composite (name, age).
        eng.create_composite_index(employee, &[name, age]).unwrap();
        let q = Query::scan(employee).project(person);
        let plan = eng.explain(&q).unwrap();
        assert!(
            plan.contains("IndexOnlyScan"),
            "covered projection must scan the index only:\n{plan}"
        );
        agree(&eng, &q);
        // Covered projection *with* covered predicates stays index-only.
        let q = Query::scan(employee)
            .select_between(age, Value::Int(10), Value::Int(30))
            .project(person);
        let plan = eng.explain(&q).unwrap();
        assert!(
            plan.contains("IndexOnlyScan"),
            "covered filtered projection must scan the index only:\n{plan}"
        );
        agree(&eng, &q);
        // An uncovered predicate (depname) forces the base path.
        let q = Query::scan(employee)
            .select(depname, Value::str("sales"))
            .project(person);
        let plan = eng.explain(&q).unwrap();
        assert!(
            !plan.contains("IndexOnlyScan"),
            "uncovered predicate must not go index-only:\n{plan}"
        );
        agree(&eng, &q);
        // Cost crossover: once a *selective* range seek is available
        // (ordered index on age), a covered-but-unfiltered key walk must
        // lose to Project(IndexRangeSeek) — the executor's index-only
        // path walks every distinct key, and the cost model must charge
        // for that.
        eng.create_ord_index(employee, age).unwrap();
        let q = Query::scan(employee)
            .select_between(age, Value::Int(10), Value::Int(11))
            .project(person);
        let plan = eng.explain(&q).unwrap();
        assert!(
            plan.contains("IndexRangeSeek") && !plan.contains("IndexOnlyScan"),
            "selective range + projection must range-seek, not walk all keys:\n{plan}"
        );
        agree(&eng, &q);
        // The unfiltered covered projection still goes index-only.
        let q = Query::scan(employee).project(person);
        assert!(eng.explain(&q).unwrap().contains("IndexOnlyScan"));
        agree(&eng, &q);
    }

    #[test]
    fn range_contradictions_are_eliminated() {
        let eng = engine(ContainmentPolicy::Eager);
        let s = eng.with_db(|db| db.schema().clone());
        let employee = s.type_id("employee").unwrap();
        let age = s.attr_id("age").unwrap();
        let depname = s.attr_id("depname").unwrap();
        // Disjoint ranges on one attribute.
        let q = Query::scan(employee)
            .select_lt(age, Value::Int(30))
            .select_gt(age, Value::Int(40));
        let plan = eng.explain(&q).unwrap();
        assert!(plan.contains("Empty"), "disjoint ranges survived:\n{plan}");
        agree(&eng, &q);
        // Equality outside a range.
        let q = Query::scan(employee)
            .select(age, Value::Int(50))
            .select_lt(age, Value::Int(20));
        let plan = eng.explain(&q).unwrap();
        assert!(plan.contains("Empty"), "eq-vs-range survived:\n{plan}");
        agree(&eng, &q);
        // Touching exclusive bounds are empty; touching inclusive bounds
        // are not.
        let q = Query::scan(employee)
            .select_lt(age, Value::Int(30))
            .select_ge(age, Value::Int(30));
        assert!(eng.explain(&q).unwrap().contains("Empty"));
        agree(&eng, &q);
        let q = Query::scan(employee)
            .select_le(age, Value::Int(40))
            .select_ge(age, Value::Int(40));
        assert!(!eng.explain(&q).unwrap().contains("Empty"));
        agree(&eng, &q);
        // A range no member of a finite domain can satisfy is dead.
        let q = Query::scan(employee).select_gt(depname, Value::str("zzz"));
        let plan = eng.explain(&q).unwrap();
        assert!(
            plan.contains("Empty"),
            "domain-excluded range survived:\n{plan}"
        );
        agree(&eng, &q);
    }

    #[test]
    fn sanction_violations_error_identically() {
        let eng = engine(ContainmentPolicy::Eager);
        let s = eng.with_db(|db| db.schema().clone());
        let manager = s.type_id("manager").unwrap();
        let department = s.type_id("department").unwrap();
        let person = s.type_id("person").unwrap();
        let budget = s.attr_id("budget").unwrap();
        // Unsanctioned join, downward projection, foreign attribute,
        // cross-type set operation.
        agree(&eng, &Query::scan(manager).join(Query::scan(department)));
        agree(&eng, &Query::scan(person).project(manager));
        agree(&eng, &Query::scan(person).select(budget, Value::Int(1)));
        agree(&eng, &Query::scan(person).union(Query::scan(department)));
    }

    #[test]
    fn dead_branches_are_eliminated() {
        let eng = engine(ContainmentPolicy::Eager);
        let s = eng.with_db(|db| db.schema().clone());
        let employee = s.type_id("employee").unwrap();
        let depname = s.attr_id("depname").unwrap();
        // Contradictory conjunction → Empty.
        let q = Query::scan(employee)
            .select(depname, Value::str("sales"))
            .select(depname, Value::str("research"));
        let plan = eng.explain(&q).unwrap();
        assert!(
            plan.contains("Empty"),
            "contradiction not eliminated:\n{plan}"
        );
        agree(&eng, &q);
        // Out-of-domain constant → Empty.
        let q = Query::scan(employee).select(depname, Value::str("piracy"));
        let plan = eng.explain(&q).unwrap();
        assert!(
            plan.contains("Empty"),
            "domain violation not eliminated:\n{plan}"
        );
        agree(&eng, &q);
        // Union with a dead branch degenerates to the live branch.
        let q = Query::scan(employee)
            .select(depname, Value::str("piracy"))
            .union(Query::scan(employee));
        let plan = eng.explain(&q).unwrap();
        assert!(!plan.contains("Union"), "dead union arm survived:\n{plan}");
        agree(&eng, &q);
    }

    #[test]
    fn selection_pushdown_reaches_join_leaves() {
        let eng = engine(ContainmentPolicy::Eager);
        let s = eng.with_db(|db| db.schema().clone());
        let employee = s.type_id("employee").unwrap();
        let department = s.type_id("department").unwrap();
        let location = s.attr_id("location").unwrap();
        let q = Query::scan(employee)
            .join(Query::scan(department))
            .select(location, Value::str("utrecht"));
        let plan = eng.explain(&q).unwrap();
        // The location predicate belongs to department only; it must have
        // sunk into that side's scan, leaving no post-join filter.
        assert!(
            !plan.contains("Filter"),
            "selection was not pushed down:\n{plan}"
        );
        assert!(
            plan.contains("SeqScan department filter location"),
            "expected filtered department scan:\n{plan}"
        );
        agree(&eng, &q);
    }

    #[test]
    fn rewrites_preserve_entity_types() {
        let eng = engine(ContainmentPolicy::Eager);
        eng.with_db(|db| {
            let s = db.schema();
            let employee = s.type_id("employee").unwrap();
            let person = s.type_id("person").unwrap();
            let department = s.type_id("department").unwrap();
            let depname = s.attr_id("depname").unwrap();
            let queries = [
                Query::scan(employee)
                    .join(Query::scan(department))
                    .select(depname, Value::str("sales"))
                    .project(person),
                Query::scan(employee)
                    .select(depname, Value::str("sales"))
                    .union(Query::scan(employee).select(depname, Value::str("piracy"))),
            ];
            for q in &queries {
                let expect = q.entity_type(db).unwrap();
                let plan = lower_and_rewrite(q, db).unwrap();
                // verify_types recomputes every node's type structurally
                // and panics on any unsanctioned node.
                assert_eq!(plan.verify_types(db), expect);
                assert_eq!(plan.ty(), expect);
            }
        });
    }

    #[test]
    fn plan_cache_hits_repeated_queries_and_invalidates_on_mutation() {
        let eng = engine(ContainmentPolicy::Eager);
        let s = eng.with_db(|db| db.schema().clone());
        let employee = s.type_id("employee").unwrap();
        let depname = s.attr_id("depname").unwrap();
        let q = Query::scan(employee).select(depname, Value::str("sales"));
        let c = eng.plan_cache_stats();
        assert_eq!((c.hits, c.misses), (0, 0));
        let first = eng.query_planned(&q).unwrap();
        let c = eng.plan_cache_stats();
        assert_eq!((c.hits, c.misses), (0, 1), "cold cache misses");
        let second = eng.query_planned(&q).unwrap();
        let c = eng.plan_cache_stats();
        assert_eq!((c.hits, c.misses), (1, 1), "repeat hits");
        assert_eq!(first, second, "cached plan returns identical results");
        // A structurally different query is its own entry.
        let q2 = Query::scan(employee).select(depname, Value::str("research"));
        eng.query_planned(&q2).unwrap();
        let c = eng.plan_cache_stats();
        assert_eq!((c.hits, c.misses), (1, 2));
        // Mutations bump the statistics epoch: the cached plans are stale
        // (an index created now could change the best access path), so
        // the next lookup misses and replans.
        eng.insert(
            employee,
            &[
                ("name", Value::str("erin")),
                ("age", Value::Int(33)),
                ("depname", Value::str("sales")),
            ],
        )
        .unwrap();
        let third = eng.query_planned(&q).unwrap();
        let c = eng.plan_cache_stats();
        assert_eq!((c.hits, c.misses), (1, 3), "epoch change misses");
        assert_eq!(third.1.len(), first.1.len() + 1);
        // The counters surface through explain.
        let text = eng.explain(&q).unwrap();
        assert!(
            text.contains("PlanCache: 1 hits, 3 misses"),
            "explain must report cache counters:\n{text}"
        );
        // And cached execution agrees with naive even via the cache path.
        agree(&eng, &q);
        agree(&eng, &q);
    }

    #[test]
    fn stale_cached_plan_for_dropped_index_replans_instead_of_panicking() {
        use toposem_storage::IndexKind;
        let eng = engine(ContainmentPolicy::Eager);
        let s = eng.with_db(|db| db.schema().clone());
        let employee = s.type_id("employee").unwrap();
        let depname = s.attr_id("depname").unwrap();
        eng.create_index(employee, depname).unwrap();
        let q = Query::scan(employee).select(depname, Value::str("sales"));
        assert!(eng.explain(&q).unwrap().contains("IndexSeek"));
        // Seed the cache with the index-seek plan…
        let (_, expect) = eng.query_planned(&q).unwrap();
        let repr = format!("{q:?}");
        let fp = Query::fingerprint_str(&repr);
        let stale = eng
            .plan_cache_lookup(fp, eng.statistics_epoch())
            .expect("plan was just cached");
        // …then emulate the drop_index race: the index disappears, but
        // the stale plan ends up current again (the interleaving a
        // concurrent reader that captured the pre-drop epoch produces).
        assert!(eng
            .drop_index(employee, IndexKind::Hash, &[depname])
            .unwrap());
        eng.plan_cache_store(fp, eng.statistics_epoch(), stale);
        // Execution must detect the unsupported plan under the lock and
        // replan rather than panic in the executor.
        let (_, got) = eng.query_planned(&q).unwrap();
        assert_eq!(got, expect);
        assert!(!eng.explain(&q).unwrap().contains("IndexSeek"));
        agree(&eng, &q);
    }

    #[test]
    fn statistics_cache_invalidates_on_mutation() {
        let eng = engine(ContainmentPolicy::Eager);
        let s = eng.with_db(|db| db.schema().clone());
        let employee = s.type_id("employee").unwrap();
        let before = eng.statistics().cardinality(employee);
        eng.insert(
            employee,
            &[
                ("name", Value::str("eve")),
                ("age", Value::Int(28)),
                ("depname", Value::str("admin")),
            ],
        )
        .unwrap();
        let after = eng.statistics().cardinality(employee);
        assert_eq!(after, before + 1, "stats must refresh after insert");
    }
}
