//! Prints `EXPLAIN ANALYZE` output and the Prometheus metrics export
//! for the q3-shaped join — the walkthrough in README §Observability is
//! generated by this example:
//!
//! ```text
//! cargo run -p toposem-planner --example explain_analyze
//! ```

use toposem_core::{employee_schema, Intension};
use toposem_extension::{ContainmentPolicy, Database, DomainCatalog, Value};
use toposem_planner::{QueryRequest, QueryTarget};
use toposem_storage::{Engine, Query};

fn main() {
    let eng = Engine::new(Database::new(
        Intension::analyse(employee_schema()),
        DomainCatalog::employee_defaults(),
        ContainmentPolicy::Eager,
    ));
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let department = s.type_id("department").unwrap();
    let location = s.attr_id("location").unwrap();
    let deps = ["sales", "research", "admin"];
    for i in 0..3_000i64 {
        eng.insert(
            employee,
            &[
                ("name", Value::str(&format!("w{i:05}"))),
                ("age", Value::Int(i % 90)),
                ("depname", Value::str(deps[(i % 3) as usize])),
            ],
        )
        .unwrap();
    }
    for (d, l) in [
        ("sales", "amsterdam"),
        ("research", "utrecht"),
        ("admin", "utrecht"),
    ] {
        eng.insert(
            department,
            &[("depname", Value::str(d)), ("location", Value::str(l))],
        )
        .unwrap();
    }

    // q3: join with the predicate nested on the far side.
    let q = Query::scan(employee)
        .join(Query::scan(department))
        .select(location, Value::str("utrecht"));
    // EXPLAIN ANALYZE: the ordered, profiled route a session runs.
    let resp = eng.run(&QueryRequest::new(q).ordered().profiled()).unwrap();
    println!("{}", resp.profile.unwrap().render());
    println!("--- metrics snapshot (Prometheus text format) ---");
    print!("{}", eng.metrics_prometheus());
}
