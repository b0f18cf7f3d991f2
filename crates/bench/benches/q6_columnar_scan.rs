//! Q6: columnar kernels vs. row-at-a-time execution of the *same*
//! pinned plan.
//!
//! The workload is a filter-heavy sequential scan over 100k managers:
//! a three-predicate conjunction whose first two predicates pass every
//! row (so the row path cannot short-circuit early) and whose last
//! keeps 1%. The plan is pinned to a literal `Physical::SeqScan` —
//! both legs execute the identical tree, differing only in the
//! `ExecOptions::columnar` flag, so the measured gap is the
//! kernel dispatch (decoded column vectors + selection bitmaps vs.
//! tuple-wise `get` + `matches`), not a plan-shape difference.
//!
//! The headline claim: the columnar kernels beat the row path ≥2× on
//! the filter-heavy scan, and both produce the identical relation. A
//! secondary (unasserted, Criterion-tracked) pair times a probe-heavy
//! hash join whose key extraction uses per-batch field-position hints
//! on the columnar leg.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use toposem_core::{employee_schema, Intension};
use toposem_extension::{ContainmentPolicy, Database, DomainCatalog, Value};
use toposem_planner::{
    execute_with, lower_and_rewrite, plan_with, ExecOptions, Physical, PlannerOptions,
};
use toposem_storage::{Engine, Predicate, Query};

/// 100k tuples normally, 20k in CI short mode (`TOPOSEM_BENCH_SHORT`).
fn n() -> i64 {
    toposem_bench::sized(100_000, 20_000)
}

fn cfg() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(toposem_bench::sized(
            300, 50,
        )))
        .measurement_time(std::time::Duration::from_millis(toposem_bench::sized(
            2000, 300,
        )))
}

/// N managers with a dense unique `budget` (unbounded integer domain,
/// so range selectivity is controlled exactly by the interval width),
/// plus N employees and the three departments for the join leg (the
/// schema sanctions `employee ⋈ department` as `worksfor`).
fn loaded_engine() -> Engine {
    let eng = Engine::new(Database::new(
        Intension::analyse(employee_schema()),
        DomainCatalog::employee_defaults(),
        ContainmentPolicy::Eager,
    ));
    let s = eng.with_db(|db| db.schema().clone());
    let manager = s.type_id("manager").unwrap();
    let department = s.type_id("department").unwrap();
    let deps = [
        ("sales", "amsterdam"),
        ("research", "utrecht"),
        ("admin", "utrecht"),
    ];
    for (d, l) in deps {
        eng.insert(
            department,
            &[("depname", Value::str(d)), ("location", Value::str(l))],
        )
        .unwrap();
    }
    let employee = s.type_id("employee").unwrap();
    for i in 0..n() {
        eng.insert(
            manager,
            &[
                ("name", Value::str(&format!("m{i:06}"))),
                ("age", Value::Int(i % 120)),
                ("depname", Value::str(deps[(i % 3) as usize].0)),
                ("budget", Value::Int(i)),
            ],
        )
        .unwrap();
        eng.insert(
            employee,
            &[
                ("name", Value::str(&format!("e{i:06}"))),
                ("age", Value::Int(i % 90)),
                ("depname", Value::str(deps[(i % 3) as usize].0)),
            ],
        )
        .unwrap();
    }
    eng
}

/// Median-of-`runs` wall time of `f`.
fn time<R>(runs: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            criterion::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn bench(c: &mut Criterion) {
    let eng = loaded_engine();
    let s = eng.with_db(|db| db.schema().clone());
    let manager = s.type_id("manager").unwrap();
    let department = s.type_id("department").unwrap();
    let age = s.attr_id("age").unwrap();
    let budget = s.attr_id("budget").unwrap();
    let n = n();
    let anchor = n / 2;

    // The pinned scan: a wide conjunction of always-true guards ahead
    // of the 1% range, so the row path evaluates every predicate on
    // every tuple (no short-circuit) while the columnar path fuses each
    // column's ranges into one interval and evaluates the whole
    // conjunction in a single streaming sweep per morsel.
    let scan = Physical::SeqScan {
        ty: manager,
        preds: vec![
            (age, Predicate::Ge(Value::Int(0))),
            (age, Predicate::Le(Value::Int(150))),
            (age, Predicate::Gt(Value::Int(-1))),
            (age, Predicate::Lt(Value::Int(151))),
            (age, Predicate::Between(Value::Int(0), Value::Int(150))),
            (budget, Predicate::Ge(Value::Int(0))),
            (budget, Predicate::Le(Value::Int(n))),
            (budget, Predicate::Gt(Value::Int(-1))),
            (budget, Predicate::Lt(Value::Int(n + 1))),
            (
                budget,
                Predicate::Between(Value::Int(anchor), Value::Int(anchor + n / 100 - 1)),
            ),
        ],
    };
    let row = ExecOptions { columnar: false };
    let col = ExecOptions { columnar: true };

    // Correctness before numbers: identical relations, exactly 1%.
    let row_rel = eng.with_parts(|db, indexes| execute_with(&scan, db, indexes, &row));
    let col_rel = eng.with_parts(|db, indexes| execute_with(&scan, db, indexes, &col));
    assert_eq!(row_rel, col_rel, "columnar kernels must be bit-identical");
    assert_eq!(
        col_rel.len(),
        (n / 100) as usize,
        "the range must keep exactly 1% of the tuples"
    );

    let runs = 30;
    let row_t = eng.with_parts(|db, indexes| time(runs, || execute_with(&scan, db, indexes, &row)));
    let col_t = eng.with_parts(|db, indexes| time(runs, || execute_with(&scan, db, indexes, &col)));
    let speedup = row_t / col_t;
    println!(
        "q6 filter-heavy scan over {n} tuples: row {:.1} µs, columnar {:.1} µs → {speedup:.1}×",
        row_t * 1e6,
        col_t * 1e6
    );
    assert!(
        speedup >= 2.0,
        "columnar kernels must beat row-at-a-time ≥2× on the filter-heavy scan, got {speedup:.2}×"
    );

    // The probe-heavy join leg: every employee probes the 3-row
    // department build side; the columnar leg extracts probe keys via
    // per-batch position hints. Tracked, not asserted — key extraction
    // is a smaller slice of join time than predicate evaluation is of
    // scan time.
    let employee = s.type_id("employee").unwrap();
    let q = Query::scan(employee).join(Query::scan(department));
    let stats = eng.statistics();
    let join_plan: Physical = eng.with_parts(|db, indexes| {
        let logical = lower_and_rewrite(&q, db).unwrap();
        plan_with(
            &logical,
            db,
            indexes,
            &stats,
            &PlannerOptions {
                merge_joins: false,
                ..Default::default()
            },
        )
    });
    let row_join = eng.with_parts(|db, indexes| execute_with(&join_plan, db, indexes, &row));
    let col_join = eng.with_parts(|db, indexes| execute_with(&join_plan, db, indexes, &col));
    assert_eq!(row_join, col_join, "join legs must agree");
    // Under the eager containment policy every manager is also an
    // employee, so the probe side holds 2N rows — all of them match.
    assert_eq!(
        row_join.len(),
        2 * n as usize,
        "every employee (including the contained managers) finds its department"
    );
    let row_join_t =
        eng.with_parts(|db, indexes| time(runs, || execute_with(&join_plan, db, indexes, &row)));
    let col_join_t =
        eng.with_parts(|db, indexes| time(runs, || execute_with(&join_plan, db, indexes, &col)));
    println!(
        "q6 join probe over {n} tuples: row {:.1} µs, columnar {:.1} µs → {:.1}×",
        row_join_t * 1e6,
        col_join_t * 1e6,
        row_join_t / col_join_t
    );

    toposem_bench::emit_bench_json(
        "q6_columnar_scan",
        &[
            toposem_bench::BenchSample::from_secs("row_filter_scan", runs as u64, row_t),
            toposem_bench::BenchSample::from_secs("columnar_filter_scan", runs as u64, col_t),
            toposem_bench::BenchSample::from_secs("row_join_probe", runs as u64, row_join_t),
            toposem_bench::BenchSample::from_secs("columnar_join_probe", runs as u64, col_join_t),
        ],
    );

    let mut g = c.benchmark_group("q6_columnar_scan");
    g.bench_function("row_filter_scan", |b| {
        b.iter(|| eng.with_parts(|db, indexes| execute_with(&scan, db, indexes, &row)))
    });
    g.bench_function("columnar_filter_scan", |b| {
        b.iter(|| eng.with_parts(|db, indexes| execute_with(&scan, db, indexes, &col)))
    });
    g.bench_function("row_join_probe", |b| {
        b.iter(|| eng.with_parts(|db, indexes| execute_with(&join_plan, db, indexes, &row)))
    });
    g.bench_function("columnar_join_probe", |b| {
        b.iter(|| eng.with_parts(|db, indexes| execute_with(&join_plan, db, indexes, &col)))
    });
    g.finish();
}

criterion_group!(name = benches; config = cfg(); targets = bench);
criterion_main!(benches);
