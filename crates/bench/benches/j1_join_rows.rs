//! J1: what a joined, sorted reply costs against the seek that feeds it.
//!
//! The `scan_join` workload's second form, `scan employee | select age =
//! a | join (scan department) | order by name`, plans as
//! `Sort(HashJoin(SeqScan department, IndexSeek employee.age = a))`. Its
//! seek alone, `select age = a`, is the floor: every row the join
//! returns is one of the seek's rows joined with one department. This
//! bench times both through `Engine::run` (plan cache, execution,
//! observation — the path a session takes) on one pinned snapshot of
//! 20 000 employees, visiting each of the 90 ages once per pass so
//! neither side runs on rows the other just warmed, and reports the
//! ratio join ÷ seek. `BENCH_BASELINE.json` gates it.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use toposem_core::{employee_schema, Intension};
use toposem_extension::{ContainmentPolicy, Database, DomainCatalog, Value};
use toposem_planner::{PinnedSnapshot, QueryRequest, QueryTarget};
use toposem_storage::{Engine, IndexKind, Query};

/// Employees loaded (the end-to-end benchmark's primary size).
const EMPLOYEES: usize = 20_000;
/// Distinct ages, hence distinct queries of each form.
const AGES: i64 = 90;
const DEPS: [(&str, &str); 3] = [
    ("sales", "amsterdam"),
    ("research", "utrecht"),
    ("admin", "utrecht"),
];

fn cfg() -> Criterion {
    Criterion::default().sample_size(10)
}

/// The end-to-end benchmark's fixture: three departments, then employee
/// `i` named `e{i:06}`, aged `i % 90`, in department `(i / 90) % 3`,
/// with a hash index on `name` and an ordered index on `age`.
fn loaded_engine() -> std::sync::Arc<Engine> {
    let eng = Engine::new(Database::new(
        Intension::analyse(employee_schema()),
        DomainCatalog::employee_defaults(),
        ContainmentPolicy::Eager,
    ));
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let department = s.type_id("department").unwrap();
    eng.begin().unwrap();
    for (d, l) in DEPS {
        eng.insert(
            department,
            &[("depname", Value::str(d)), ("location", Value::str(l))],
        )
        .unwrap();
    }
    for i in 0..EMPLOYEES {
        eng.insert(
            employee,
            &[
                ("name", Value::str(&format!("e{i:06}"))),
                ("age", Value::Int(i as i64 % AGES)),
                ("depname", Value::str(DEPS[(i / 90) % 3].0)),
            ],
        )
        .unwrap();
    }
    eng.commit().unwrap();
    let attr = |n: &str| s.attr_id(n).unwrap();
    eng.create_index_of(employee, IndexKind::Hash, &[attr("name")])
        .unwrap();
    eng.create_index_of(employee, IndexKind::Ordered, &[attr("age")])
        .unwrap();
    std::sync::Arc::new(eng)
}

/// Median of `xs`.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn bench(_c: &mut Criterion) {
    let eng = loaded_engine();
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let department = s.type_id("department").unwrap();
    let (name, age) = (s.attr_id("name").unwrap(), s.attr_id("age").unwrap());
    let seek = |a: i64| Query::scan(employee).select(age, Value::Int(a));
    let join = |a: i64| seek(a).join(Query::scan(department)).order_by_asc(name);
    let ordered = |q: Query| QueryRequest::new(q).ordered();
    let joins: Vec<QueryRequest> = (0..AGES).map(|a| ordered(join(a))).collect();
    let seeks: Vec<QueryRequest> = (0..AGES).map(|a| ordered(seek(a))).collect();
    let pin = PinnedSnapshot::capture(&eng).unwrap();

    let plan = pin.explain(&join(7)).unwrap();
    println!("form 2 plan:\n{plan}");
    assert!(
        plan.contains("Sort") && plan.contains("HashJoin") && plan.contains("IndexSeek"),
        "form 2 must plan as Sort(HashJoin(…, IndexSeek)):\n{plan}"
    );
    // Correctness before numbers: the planned, ordered rows are the
    // naive interpreter's.
    for a in [0, 7, AGES - 1] {
        let got = pin.run(&joins[a as usize]).unwrap().rows.seq().unwrap();
        let (_, want) = join(a).execute_ordered(pin.snapshot().db()).unwrap();
        assert_eq!(
            got, want,
            "form 2 diverged from the naive answer at age {a}"
        );
    }

    // One pass = every age once; join and seek passes alternate.
    let pass = |reqs: &[QueryRequest]| {
        let t0 = Instant::now();
        for req in reqs {
            criterion::black_box(pin.run(req).unwrap());
        }
        t0.elapsed().as_secs_f64() / reqs.len() as f64
    };
    for _ in 0..2 {
        pass(&joins);
        pass(&seeks);
    }
    let passes = toposem_bench::sized(30, 10);
    let (mut join_t, mut seek_t) = (Vec::new(), Vec::new());
    for _ in 0..passes {
        join_t.push(pass(&joins));
        seek_t.push(pass(&seeks));
    }
    let (join_t, seek_t) = (median(join_t), median(seek_t));
    let ratio = join_t / seek_t;
    println!(
        "j1 form 2 over {EMPLOYEES} employees (median of {passes} passes × {AGES} ages): \
         join+sort {:.1} µs, seek {:.1} µs per query → {ratio:.1}×",
        join_t * 1e6,
        seek_t * 1e6,
    );
    let iters = (passes as i64 * AGES) as u64;
    toposem_bench::emit_bench_json(
        "j1_join_rows",
        &[
            toposem_bench::BenchSample::from_secs("join_sort_form2", iters, join_t),
            toposem_bench::BenchSample::from_secs("age_seek", iters, seek_t),
        ],
    );
}

criterion_group!(name = benches; config = cfg(); targets = bench);
criterion_main!(benches);
