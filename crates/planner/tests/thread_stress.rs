//! True multi-threaded interleavings of planned readers against index
//! DDL: concurrent `query_planned` loops race `create_index` /
//! `create_ord_index` / `create_composite_index` / `drop_index` on the
//! same engine. This extends the PR-4 cached-plan validity regression
//! (which *emulated* the drop-index race) to real schedules: a cached
//! plan whose index vanished mid-flight must replan, never panic, and
//! every result must equal the DDL-independent ground truth — the data
//! never changes, only the access paths do.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use toposem_core::{employee_schema, Intension};
use toposem_extension::{ContainmentPolicy, Database, DomainCatalog, Value};
use toposem_planner::{QueryRequest, QueryTarget};
use toposem_storage::{Engine, IndexKind, Query};

const ROWS: i64 = 2_000;
const DDL_ROUNDS: usize = 60;
const READERS: usize = 4;

fn loaded_engine() -> Engine {
    let eng = Engine::new(Database::new(
        Intension::analyse(employee_schema()),
        DomainCatalog::employee_defaults(),
        ContainmentPolicy::Eager,
    ));
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let department = s.type_id("department").unwrap();
    let deps = ["sales", "research", "admin"];
    for i in 0..ROWS {
        eng.insert(
            employee,
            &[
                ("name", Value::str(&format!("w{i:04}"))),
                ("age", Value::Int(i % 90)),
                ("depname", Value::str(deps[(i % 3) as usize])),
            ],
        )
        .unwrap();
    }
    for (d, l) in [("sales", "amsterdam"), ("research", "utrecht")] {
        eng.insert(
            department,
            &[("depname", Value::str(d)), ("location", Value::str(l))],
        )
        .unwrap();
    }
    eng
}

#[test]
fn concurrent_planned_readers_survive_index_ddl() {
    let eng = loaded_engine();
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let department = s.type_id("department").unwrap();
    let person = s.type_id("person").unwrap();
    let name = s.attr_id("name").unwrap();
    let age = s.attr_id("age").unwrap();
    let depname = s.attr_id("depname").unwrap();

    let queries = [
        Query::scan(employee).select(depname, Value::str("sales")),
        Query::scan(employee).select_between(age, Value::Int(10), Value::Int(40)),
        Query::scan(employee)
            .select(depname, Value::str("research"))
            .select(name, Value::str("w0042")),
        Query::scan(employee).join(Query::scan(department)),
        Query::scan(employee).project(person),
        Query::scan(employee).order_by_asc(age),
    ];
    // Ground truth is DDL-independent: the data never changes. (The
    // queries array is iterated by reference from every reader thread.)
    let expected: Vec<_> = queries
        .iter()
        .map(|q| eng.with_db(|db| q.execute(db)).unwrap())
        .collect();

    let stop = AtomicBool::new(false);
    // Per-reader round counters: the invariant is that *every* reader
    // makes progress under DDL churn, not that the pool does in
    // aggregate (one hot reader must not mask a starved one).
    let rounds: Vec<AtomicUsize> = (0..READERS).map(|_| AtomicUsize::new(0)).collect();

    std::thread::scope(|scope| {
        for my_rounds in &rounds {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    for (q, want) in queries.iter().zip(&expected) {
                        let req = QueryRequest::new(q.clone());
                        let got = eng
                            .run(&req)
                            .expect("sanctioned query must plan under concurrent DDL");
                        assert_eq!(got.ty, want.0);
                        assert_eq!(
                            got.rows.set().as_ref(),
                            Some(&want.1),
                            "reader observed a wrong result for {q:?}"
                        );
                        let seq = eng
                            .run(&req.ordered())
                            .expect("ordered execution must survive concurrent DDL");
                        assert_eq!(seq.rows.len(), want.1.len());
                    }
                    my_rounds.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // The DDL writer churns every index kind, including rebuilds of
        // existing definitions and drops of just-created ones.
        for round in 0..DDL_ROUNDS {
            eng.create_index(employee, depname).unwrap();
            eng.create_ord_index(employee, age).unwrap();
            eng.create_composite_index(employee, &[depname, name])
                .unwrap();
            if round % 2 == 0 {
                assert!(eng
                    .drop_index(employee, IndexKind::Hash, &[depname])
                    .unwrap());
                assert!(eng
                    .drop_index(employee, IndexKind::Ordered, &[age])
                    .unwrap());
            }
            if round % 3 == 0 {
                assert!(eng
                    .drop_index(employee, IndexKind::Composite, &[depname, name])
                    .unwrap());
            }
        }
        // Keep the race window open until every reader has finished at
        // least one full round *during* the churn-or-later epoch, so a
        // fast DDL loop on a loaded host can't end the test before
        // descheduled readers ever ran (deadline only to fail loudly
        // instead of hanging on a genuinely stuck reader).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while rounds.iter().any(|r| r.load(Ordering::Relaxed) == 0) {
            assert!(
                std::time::Instant::now() < deadline,
                "a reader made no progress within 60s of DDL churn"
            );
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
    });

    for (i, r) in rounds.iter().enumerate() {
        assert!(
            r.load(Ordering::Relaxed) >= 1,
            "reader {i} never completed a full query round"
        );
    }
}
