//! O1: the cost of always-on observability.
//!
//! The profiling contract is "near-free": per-operator counters are
//! plain local tallies merged into atomics once per operator, and
//! wall clocks are one `Instant` pair per operator per execution. This
//! bench pins that claim — profiled execution of the q1-shaped workload
//! must stay within 5% of unprofiled execution, and the profiled result
//! must be bit-identical — so an instrumentation regression (say, an
//! atomic bump moved into the per-tuple loop) fails CI instead of
//! silently taxing every query.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use toposem_core::{employee_schema, Intension};
use toposem_extension::{ContainmentPolicy, Database, DomainCatalog, Value};
use toposem_obs::PlanProfile;
use toposem_planner::{execute, execute_profiled, lower_and_rewrite, plan, Physical};
use toposem_storage::{Engine, Query};

/// 10 000 tuples normally, 2 000 in CI short mode (`TOPOSEM_BENCH_SHORT`).
fn n() -> i64 {
    toposem_bench::sized(10_000, 2_000)
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

fn loaded_engine() -> Engine {
    let eng = Engine::new(Database::new(
        Intension::analyse(employee_schema()),
        DomainCatalog::employee_defaults(),
        ContainmentPolicy::Eager,
    ));
    let (employee, name) = eng.with_db(|db| {
        let s = db.schema();
        (s.type_id("employee").unwrap(), s.attr_id("name").unwrap())
    });
    let deps = ["sales", "research", "admin"];
    for i in 0..n() {
        eng.insert(
            employee,
            &[
                ("name", Value::str(&format!("w{i}"))),
                ("age", Value::Int(i % 120)),
                ("depname", Value::str(deps[(i % 3) as usize])),
            ],
        )
        .unwrap();
    }
    let department = eng.with_db(|db| db.schema().type_id("department").unwrap());
    for (d, l) in [("sales", "amsterdam"), ("research", "utrecht")] {
        eng.insert(
            department,
            &[("depname", Value::str(d)), ("location", Value::str(l))],
        )
        .unwrap();
    }
    eng.create_index(employee, name).unwrap();
    eng
}

/// Minimum wall time over `samples` runs of `f` (minimum, not median:
/// the overhead claim is about the instrumentation itself, and the min
/// is the estimator least polluted by scheduler noise).
fn min_time<R>(samples: usize, mut f: impl FnMut() -> R) -> f64 {
    (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            criterion::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn bench(c: &mut Criterion) {
    let eng = loaded_engine();
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let department = s.type_id("department").unwrap();
    let depname = s.attr_id("depname").unwrap();

    // The q1 workload: the scan-shaped select (the worst case for
    // relative overhead: per-batch recording against cheap per-tuple
    // work) and the join (deeper tree, more instrumented operators).
    let third = Query::scan(employee).select(depname, Value::str("sales"));
    let join = Query::scan(employee)
        .join(Query::scan(department))
        .select(depname, Value::str("research"));
    let stats = eng.statistics();
    let plans: Vec<Physical> = eng.with_parts(|db, indexes| {
        [&third, &join]
            .iter()
            .map(|q| plan(&lower_and_rewrite(q, db).unwrap(), db, indexes, &stats))
            .collect()
    });

    // Bit-identity: profiling observes, never perturbs.
    eng.with_parts(|db, indexes| {
        for p in &plans {
            let profile = PlanProfile::new(p.node_count());
            assert_eq!(
                execute(p, db, indexes),
                execute_profiled(p, db, indexes, &profile),
                "profiled execution diverged"
            );
            assert!(
                profile.node(0).snapshot().calls > 0,
                "profile was actually recorded"
            );
        }
    });

    // The overhead guard: min-of-samples over a batched workload (both
    // plans per iteration), profiled ≤ 1.05× unprofiled. A fresh
    // PlanProfile per iteration is charged to the profiled side — that
    // allocation is part of what `query_profiled` pays.
    let (samples, iters) = toposem_bench::sized((15, 40), (10, 20));
    let plain_t = eng.with_parts(|db, indexes| {
        min_time(samples, || {
            for _ in 0..iters {
                for p in &plans {
                    criterion::black_box(execute(p, db, indexes));
                }
            }
        })
    });
    let profiled_t = eng.with_parts(|db, indexes| {
        min_time(samples, || {
            for _ in 0..iters {
                for p in &plans {
                    let profile = PlanProfile::new(p.node_count());
                    criterion::black_box(execute_profiled(p, db, indexes, &profile));
                }
            }
        })
    });
    let ratio = profiled_t / plain_t;
    println!(
        "o1 q1-shaped workload ({} tuples, {iters} iters/sample, min of {samples}): \
         unprofiled {:.2} ms, profiled {:.2} ms → {ratio:.3}× overhead",
        n(),
        plain_t * 1e3,
        profiled_t * 1e3,
    );
    assert!(
        ratio <= 1.05,
        "always-on profiling must cost ≤5% on the q1 workload, measured {ratio:.3}×"
    );
    toposem_bench::emit_bench_json(
        "o1_obs_overhead",
        &[
            toposem_bench::BenchSample::from_secs(
                "unprofiled_q1_workload",
                iters as u64,
                plain_t / iters as f64,
            ),
            toposem_bench::BenchSample::from_secs(
                "profiled_q1_workload",
                iters as u64,
                profiled_t / iters as f64,
            ),
        ],
    );

    let mut g = c.benchmark_group("o1_obs_overhead");
    g.bench_function("unprofiled", |b| {
        b.iter(|| {
            eng.with_parts(|db, indexes| {
                for p in &plans {
                    criterion::black_box(execute(p, db, indexes));
                }
            })
        })
    });
    g.bench_function("profiled", |b| {
        b.iter(|| {
            eng.with_parts(|db, indexes| {
                for p in &plans {
                    let profile = PlanProfile::new(p.node_count());
                    criterion::black_box(execute_profiled(p, db, indexes, &profile));
                }
            })
        })
    });
    g.finish();
}

criterion_group!(name = benches; config = cfg(); targets = bench);
criterion_main!(benches);
