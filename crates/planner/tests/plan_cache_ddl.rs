//! Regression: index DDL must invalidate cached plans.
//!
//! Plans are cached on the engine keyed by `(query fingerprint,
//! statistics epoch)`. Creating or rebuilding an index changes the set
//! of available access paths, so it must bump the statistics epoch —
//! otherwise a hot query keeps executing its stale `SeqScan` plan and
//! never touches the new index. These tests pin that behaviour for all
//! three index kinds.

use toposem_core::{employee_schema, Intension};
use toposem_extension::{ContainmentPolicy, Database, DomainCatalog, Value};
use toposem_planner::PlannedExecution;
use toposem_storage::{Engine, Query};

fn loaded_engine() -> Engine {
    let eng = Engine::new(Database::new(
        Intension::analyse(employee_schema()),
        DomainCatalog::employee_defaults(),
        ContainmentPolicy::Eager,
    ));
    let employee = eng.with_db(|db| db.schema().type_id("employee").unwrap());
    for i in 0..200i64 {
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
    eng
}

#[test]
fn create_ord_index_invalidates_cached_seq_scan_plan() {
    let eng = loaded_engine();
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let age = s.attr_id("age").unwrap();
    let q = Query::scan(employee).select_between(age, Value::Int(10), Value::Int(12));

    // Cold: the only access path is a sequential scan; the plan caches.
    assert!(eng.explain(&q).unwrap().contains("SeqScan"));
    let first = eng.query_planned(&q).unwrap();
    let c0 = eng.plan_cache_stats();
    let second = eng.query_planned(&q).unwrap();
    assert_eq!(first, second);
    let c = eng.plan_cache_stats();
    assert_eq!(
        (c.hits, c.misses),
        (c0.hits + 1, c0.misses),
        "repeat query must hit the cached SeqScan plan"
    );

    // DDL: the ordered index must bump the statistics epoch…
    let epoch_before = eng.statistics_epoch();
    eng.create_ord_index(employee, age).unwrap();
    assert!(
        eng.statistics_epoch() > epoch_before,
        "create_ord_index must bump the statistics epoch"
    );

    // …so the stale SeqScan plan is NOT served: the next execution
    // misses, replans, and picks the range seek.
    let c1 = eng.plan_cache_stats();
    let third = eng.query_planned(&q).unwrap();
    let c = eng.plan_cache_stats();
    assert_eq!(
        (c.hits, c.misses),
        (c1.hits, c1.misses + 1),
        "post-DDL lookup must miss (stale plan served otherwise)"
    );
    assert_eq!(first, third, "replanned results must not change");
    let plan = eng.explain(&q).unwrap();
    assert!(
        plan.contains("IndexRangeSeek"),
        "after DDL the cached plan must be replaced by the range seek:\n{plan}"
    );
}

#[test]
fn every_index_kind_bumps_the_epoch() {
    let eng = loaded_engine();
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let name = s.attr_id("name").unwrap();
    let age = s.attr_id("age").unwrap();
    let depname = s.attr_id("depname").unwrap();

    let e0 = eng.statistics_epoch();
    eng.create_index(employee, depname).unwrap();
    let e1 = eng.statistics_epoch();
    assert!(e1 > e0, "hash index DDL must bump the epoch");
    eng.create_ord_index(employee, age).unwrap();
    let e2 = eng.statistics_epoch();
    assert!(e2 > e1, "ordered index DDL must bump the epoch");
    eng.create_composite_index(employee, &[depname, name])
        .unwrap();
    let e3 = eng.statistics_epoch();
    assert!(e3 > e2, "composite index DDL must bump the epoch");
    // Rebuilding an existing definition replans too (the index contents
    // were rebuilt from the stored relation).
    eng.create_ord_index(employee, age).unwrap();
    assert!(
        eng.statistics_epoch() > e3,
        "index rebuild must bump the epoch"
    );
}

#[test]
fn composite_ddl_invalidates_cached_plan_for_conjunctive_query() {
    let eng = loaded_engine();
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let name = s.attr_id("name").unwrap();
    let depname = s.attr_id("depname").unwrap();
    let q = Query::scan(employee)
        .select(depname, Value::str("sales"))
        .select(name, Value::str("w42"));
    let before = eng.query_planned(&q).unwrap();
    assert!(eng.explain(&q).unwrap().contains("SeqScan"));
    eng.create_composite_index(employee, &[depname, name])
        .unwrap();
    let after = eng.query_planned(&q).unwrap();
    assert_eq!(before, after);
    assert!(
        eng.explain(&q).unwrap().contains("CompositeSeek"),
        "conjunctive query must replan onto the composite index"
    );
}
