//! First-execution planning under equi-depth histograms: a skewed
//! distribution whose [min, max] span is stretched by one outlier must
//! be priced by where the values lie, so the very first `explain` —
//! before any execution — already shows the right access path, and a
//! range over the outlier alone keeps the index.

use toposem_core::{employee_schema, Intension};
use toposem_extension::{ContainmentPolicy, Database, DomainCatalog, DomainSpec, Value};
use toposem_planner::PlannedExecution;
use toposem_storage::{Engine, Query};

/// The employee schema over an unbounded age domain, so the outlier
/// that stretches the [min, max] span is admissible.
fn fresh_db() -> Database {
    let mut catalog = DomainCatalog::new();
    catalog
        .bind("person-names", DomainSpec::AnyStr)
        .bind("ages", DomainSpec::AnyInt)
        .bind(
            "department-names",
            DomainSpec::Enum(vec!["sales".into(), "research".into(), "admin".into()]),
        )
        .bind("amounts", DomainSpec::AnyInt)
        .bind(
            "locations",
            DomainSpec::Enum(vec!["amsterdam".into(), "utrecht".into()]),
        );
    Database::new(
        Intension::analyse(employee_schema()),
        catalog,
        ContainmentPolicy::Eager,
    )
}

/// `n - 1` employees with ages dense in `0..100` plus one outlier at
/// `tail`: priced by its share of the stretched span, the dense range
/// `[0, 100]` would look vanishingly selective and make the ordered
/// index on `age` the attractive — and wrong — access path.
fn skewed_engine(n: i64, tail: i64) -> Engine {
    let eng = Engine::new(fresh_db());
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let deps = ["sales", "research", "admin"];
    for i in 0..n {
        let age = if i == 0 { tail } else { i % 100 };
        eng.insert(
            employee,
            &[
                ("name", Value::str(&format!("w{i:05}"))),
                ("age", Value::Int(age)),
                ("depname", Value::str(deps[(i % 3) as usize])),
            ],
        )
        .unwrap();
    }
    let age = s.attr_id("age").unwrap();
    eng.create_ord_index(employee, age).unwrap();
    eng
}

fn range(eng: &Engine, lo: i64, hi: i64) -> Query {
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let age = s.attr_id("age").unwrap();
    Query::scan(employee).select_between(age, Value::Int(lo), Value::Int(hi))
}

/// The acceptance scenario: the hot range covers all but one row, and
/// the FIRST `explain` — fresh engine, zero executions — already plans
/// the sequential scan.
#[test]
fn skewed_hot_range_plans_a_scan_on_the_first_execution() {
    let eng = skewed_engine(3_000, 100_000);
    assert_eq!(eng.metrics_snapshot().queries.planned, 0, "nothing has run");
    let q = range(&eng, 0, 100);
    let plan = eng.explain(&q).unwrap();
    assert!(
        plan.contains("SeqScan") && !plan.contains("IndexRangeSeek"),
        "histograms must price the hot range near 1.0 and pick the scan:\n{plan}"
    );
    let (_, rel) = eng.with_db(|db| q.execute(db)).unwrap();
    assert_eq!(rel.len(), 2_999, "every row but the outlier matches");
}

/// The flip side: a range the histogram prices as genuinely selective
/// (only the outlier bucket) keeps the index seek on the first
/// execution — histograms must not blunt the index into a scan-always
/// model.
#[test]
fn genuinely_selective_range_keeps_the_index_seek() {
    let eng = skewed_engine(3_000, 100_000);
    let q = range(&eng, 5_000, 200_000);
    let plan = eng.explain(&q).unwrap();
    assert!(
        plan.contains("IndexRangeSeek"),
        "a near-empty range must keep the seek:\n{plan}"
    );
    let (_, rel) = eng.with_db(|db| q.execute(db)).unwrap();
    assert_eq!(rel.len(), 1, "only the outlier is in range");
}
