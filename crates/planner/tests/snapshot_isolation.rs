//! Snapshot isolation under concurrency: readers run against immutable
//! copy-on-write epoch snapshots while a writer mutates the engine, so
//! a reader's view is stable for as long as it holds the snapshot —
//! across repeated queries, across joins, and across index drops.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use toposem_core::{employee_schema, Intension};
use toposem_extension::{ContainmentPolicy, Database, DomainCatalog, Value};
use toposem_planner::{PinnedSnapshot, PlannedExecution, QueryRequest, QueryTarget};
use toposem_storage::{Engine, IndexKind, Query};

fn engine() -> Arc<Engine> {
    Arc::new(Engine::new(Database::new(
        Intension::analyse(employee_schema()),
        DomainCatalog::employee_defaults(),
        ContainmentPolicy::Eager,
    )))
}

const DEPS: [&str; 3] = ["sales", "research", "admin"];

fn insert_employee(eng: &Engine, i: i64) {
    let employee = eng.with_db(|db| db.schema().type_id("employee").unwrap());
    eng.insert(
        employee,
        &[
            ("name", Value::str(&format!("w{i:05}"))),
            ("age", Value::Int(i % 90)),
            ("depname", Value::str(DEPS[(i % 3) as usize])),
        ],
    )
    .unwrap();
}

fn insert_departments(eng: &Engine) {
    let department = eng.with_db(|db| db.schema().type_id("department").unwrap());
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
}

/// Readers racing a writer observe *stable epochs*: on any one
/// snapshot, repeated scans agree with each other and with a join over
/// the same snapshot — counts can never tear mid-query — and epochs
/// advance monotonically as the writer commits.
#[test]
fn concurrent_readers_see_stable_epochs_no_torn_joins() {
    let eng = engine();
    insert_departments(&eng);
    for i in 0..50 {
        insert_employee(&eng, i);
    }
    let (employee, department) = eng.with_db(|db| {
        let s = db.schema();
        (
            s.type_id("employee").unwrap(),
            s.type_id("department").unwrap(),
        )
    });
    let scan = QueryRequest::new(Query::scan(employee));
    let join = QueryRequest::new(Query::scan(employee).join(Query::scan(department)));

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 50..250 {
                insert_employee(&eng, i);
            }
            done.store(true, Ordering::SeqCst);
        });
        for _ in 0..4 {
            s.spawn(|| {
                let mut last_count = 0usize;
                loop {
                    let finished = done.load(Ordering::SeqCst);
                    let snap = PinnedSnapshot::capture(&eng).expect("no txn active");
                    let emp1 = snap.run(&scan).unwrap().rows;
                    let joined = snap.run(&join).unwrap().rows;
                    let emp2 = snap.run(&scan).unwrap().rows;
                    // Same snapshot ⇒ same relation, however long the
                    // writer has been committing in between.
                    assert_eq!(emp1, emp2, "repeated scans of one snapshot tore");
                    // Every employee has a department, so the natural
                    // join must cover the snapshot's employees exactly:
                    // a torn epoch would leak or drop rows here.
                    assert_eq!(
                        joined.len(),
                        emp1.len(),
                        "join over one snapshot disagrees with its scan"
                    );
                    // Commits only add rows, so successively captured
                    // snapshots can never go backwards.
                    assert!(
                        emp1.len() >= last_count,
                        "snapshot regressed: {} < {last_count}",
                        emp1.len()
                    );
                    last_count = emp1.len();
                    if finished {
                        break;
                    }
                }
                assert_eq!(last_count, 250, "final snapshot must see every commit");
            });
        }
    });
}

/// A long-running read pin ignores every commit that lands after it was
/// taken; releasing it catches the session up.
#[test]
fn pinned_snapshot_ignores_later_commits() {
    let eng = engine();
    for i in 0..30 {
        insert_employee(&eng, i);
    }
    let employee = eng.with_db(|db| db.schema().type_id("employee").unwrap());
    let q = Query::scan(employee);
    let req = QueryRequest::new(q.clone());

    let pin = PinnedSnapshot::capture(&eng).expect("no txn active");
    let before = pin.run(&req).unwrap().rows;
    assert_eq!(before.len(), 30);

    // Autocommit writes and an explicit transaction both land after.
    for i in 30..40 {
        insert_employee(&eng, i);
    }
    eng.begin().unwrap();
    insert_employee(&eng, 40);
    eng.commit().unwrap();

    let pinned = pin.run(&req).unwrap().rows;
    assert_eq!(pinned.len(), 30, "pinned reads must not see later commits");
    let (_, current) = eng.query_planned(&q).unwrap();
    assert_eq!(current.len(), 41, "unpinned reads see the current state");
}

/// Dropping an index mid-read is safe on both routes: the pinned
/// snapshot still carries its own copy of the index (its cached plan
/// stays valid against *its* epoch), while fresh reads replan without
/// the access path — and both agree on the answer.
#[test]
fn drop_index_mid_read_replans_safely() {
    let eng = engine();
    for i in 0..100 {
        insert_employee(&eng, i);
    }
    let (employee, age) = eng.with_db(|db| {
        let s = db.schema();
        (s.type_id("employee").unwrap(), s.attr_id("age").unwrap())
    });
    eng.create_ord_index(employee, age).unwrap();
    let q = Query::scan(employee).select_between(age, Value::Int(10), Value::Int(40));
    assert!(eng.explain(&q).unwrap().contains("IndexRangeSeek"));

    let req = QueryRequest::new(q.clone());
    let pin = PinnedSnapshot::capture(&eng).expect("no txn active");
    let r1 = pin.run(&req).unwrap().rows.set().unwrap();

    assert!(eng
        .drop_index(employee, IndexKind::Ordered, &[age])
        .unwrap());

    // The pinned snapshot's copy of the index outlives the drop.
    let r2 = pin.run(&req).unwrap().rows.set().unwrap();
    assert_eq!(r1, r2, "pinned execution changed across an index drop");

    // Fresh reads replan against the current (index-less) state.
    let plan = eng.explain(&q).unwrap();
    assert!(
        !plan.contains("IndexRangeSeek"),
        "dropped index must not be planned against:\n{plan}"
    );
    let (_, r3) = eng.query_planned(&q).unwrap();
    assert_eq!(r1, r3, "replanned execution disagrees with the snapshot");
}

/// The acceptance bar: snapshot reads are bit-identical to a serial
/// interleaving. Capture a snapshot after each committed batch, then
/// replay the same batches serially on a fresh engine — each replayed
/// state must equal the corresponding snapshot's query result exactly.
#[test]
fn snapshot_reads_equal_serial_interleaving() {
    let eng = engine();
    insert_departments(&eng);
    let (employee, department) = eng.with_db(|db| {
        let s = db.schema();
        (
            s.type_id("employee").unwrap(),
            s.type_id("department").unwrap(),
        )
    });
    let q = Query::scan(employee).join(Query::scan(department));

    let mut per_batch = Vec::new();
    for batch in 0..5 {
        for i in batch * 20..(batch + 1) * 20 {
            insert_employee(&eng, i);
        }
        let snap = PinnedSnapshot::capture(&eng).expect("no txn active");
        let resp = snap.run(&QueryRequest::new(q.clone())).unwrap();
        per_batch.push((resp.ty, resp.rows.set().unwrap()));
    }

    let serial = engine();
    insert_departments(&serial);
    for (batch, expected) in per_batch.iter().enumerate() {
        let b = batch as i64;
        for i in b * 20..(b + 1) * 20 {
            insert_employee(&serial, i);
        }
        let got = serial.query_planned(&q).unwrap();
        assert_eq!(
            &got, expected,
            "batch {batch}: snapshot read diverged from serial execution"
        );
    }
}
