//! Q5: feedback-driven adaptive costing on a skewed workload.
//!
//! A zipfian-ish age distribution (99% of tuples in a dense band, 1%
//! in a long sparse tail) defeats min/max interpolation: the tail
//! range `age ≥ 1000` looks like ~the whole table, so the planner
//! statically mispicks a `SeqScan` over the `IndexRangeSeek` that
//! actually touches 100× fewer tuples. One profiled execution trains the selectivity-
//! feedback cache, the correction crosses the re-plan threshold, and
//! the next plan flips to the range seek — this bench pins that the
//! corrected plan is ≥2× faster than the static one, that q-error
//! collapses after training, and that `explain_analyze` factors the
//! corrected estimate as `static×corr`.
//!
//! It also re-pins the o1 overhead claim with the feedback loop in the
//! path: over a *uniform* workload (observations recorded every
//! execution, corrections all ≈1, no re-plan churn), planned execution
//! with feedback enabled must stay within 5% of a feedback-disabled
//! engine.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use toposem_core::{employee_schema, Intension};
use toposem_extension::{ContainmentPolicy, Database, DomainCatalog, DomainSpec, Value};
use toposem_planner::{
    execute_with, lower_and_rewrite, plan, ExecOptions, Physical, PlannedExecution,
    ProfiledExecution,
};
use toposem_storage::{Engine, Query};

/// 20 000 tuples normally, 4 000 in CI short mode.
fn n() -> i64 {
    toposem_bench::sized(20_000, 4_000)
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

/// The employee schema with an unbounded age domain (the default
/// catalog caps ages at 150, which would forbid the tail).
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

/// 99% of ages dense in [0, 97), 1% in a sparse tail ≥ 1000 stretching
/// the observed span ~1000×; ordered index on age.
fn skewed_engine(rows: i64) -> Engine {
    let eng = Engine::new(fresh_db());
    let (employee, age) = eng.with_db(|db| {
        let s = db.schema();
        (s.type_id("employee").unwrap(), s.attr_id("age").unwrap())
    });
    let deps = ["sales", "research", "admin"];
    for i in 0..rows {
        let a = if i % 100 == 99 {
            1_000 + (i * 7) % 900_000
        } else {
            i % 97
        };
        eng.insert(
            employee,
            &[
                ("name", Value::str(&format!("w{i:06}"))),
                ("age", Value::Int(a)),
                ("depname", Value::str(deps[(i % 3) as usize])),
            ],
        )
        .unwrap();
    }
    eng.create_ord_index(employee, age).unwrap();
    eng
}

/// Uniform ages — estimates are already accurate, so the feedback loop
/// records observations without ever steering a plan. Hash index on
/// depname so the workload mixes access paths.
fn uniform_engine(rows: i64) -> Engine {
    let eng = Engine::new(fresh_db());
    let (employee, depname) = eng.with_db(|db| {
        let s = db.schema();
        (
            s.type_id("employee").unwrap(),
            s.attr_id("depname").unwrap(),
        )
    });
    let deps = ["sales", "research", "admin"];
    for i in 0..rows {
        eng.insert(
            employee,
            &[
                ("name", Value::str(&format!("u{i:06}"))),
                ("age", Value::Int(i % 120)),
                ("depname", Value::str(deps[(i % 3) as usize])),
            ],
        )
        .unwrap();
    }
    eng.create_index(employee, depname).unwrap();
    eng
}

/// Minimum wall time over `samples` runs (the estimator least polluted
/// by scheduler noise — same contract as o1).
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
    // Equi-depth histograms see through this bench's skew statically
    // (q6's statistics — the tail range prices correctly on the first
    // plan), so pin the *runtime feedback* loop by reverting to min/max
    // interpolation for the whole process: the mispick it corrects must
    // exist to be corrected.
    toposem_storage::set_histograms_enabled(false);

    let eng = skewed_engine(n());
    let (employee, age) = eng.with_db(|db| {
        let s = db.schema();
        (s.type_id("employee").unwrap(), s.attr_id("age").unwrap())
    });
    let q = Query::scan(employee).select_ge(age, Value::Int(1_000));
    let (_, naive) = eng.with_db(|db| q.execute(db)).unwrap();
    assert_eq!(naive.len() as i64, n() / 100, "1% tail");

    // The statically chosen plan, before any feedback.
    let stats0 = eng.statistics();
    let static_plan: Physical = eng
        .with_parts(|db, indexes| plan(&lower_and_rewrite(&q, db).unwrap(), db, indexes, &stats0));
    let static_desc = format!("{static_plan:?}");
    assert!(
        static_desc.contains("SeqScan"),
        "static interpolation must mispick the scan:\n{static_desc}"
    );

    // One profiled execution trains the loop.
    let (_, rel, qp1) = eng.query_profiled(&q).unwrap();
    assert_eq!(rel, naive, "mis-planned run is still correct");
    let q_before = qp1.root.q_error();
    assert!(
        q_before > 10.0,
        "the ~100× misestimate is what trains the loop: q={q_before}"
    );
    assert!(
        eng.feedback().stats().replans >= 1,
        "the correction crosses the re-plan threshold"
    );

    // The corrected plan seeks the tail instead of scanning everything.
    let stats1 = eng.statistics();
    let corrected_plan: Physical = eng
        .with_parts(|db, indexes| plan(&lower_and_rewrite(&q, db).unwrap(), db, indexes, &stats1));
    assert!(
        format!("{corrected_plan:?}").contains("IndexRangeSeek"),
        "corrected costing must pick the range seek: {corrected_plan:?}"
    );

    // q-error collapses once the correction is live.
    let (_, rel2, qp2) = eng.query_profiled(&q).unwrap();
    assert_eq!(rel2, naive, "feedback changes plans, never results");
    let q_after = qp2.root.q_error();
    assert!(
        q_after < q_before && q_after < 1.5,
        "q-error must collapse after training: {q_before} → {q_after}"
    );
    let analyzed = eng.explain_analyze(&q).unwrap();
    assert!(
        analyzed.contains('×'),
        "explain_analyze factors est as static×corr:\n{analyzed}"
    );

    // Speedup: corrected vs static plan, same engine, same options.
    let opts = ExecOptions::default();
    let (samples, iters) = toposem_bench::sized((15, 20), (10, 10));
    let time_plan = |p: &Physical| {
        eng.with_parts(|db, indexes| {
            min_time(samples, || {
                for _ in 0..iters {
                    criterion::black_box(execute_with(p, db, indexes, &opts));
                }
            })
        })
    };
    let static_t = time_plan(&static_plan);
    let corrected_t = time_plan(&corrected_plan);
    let speedup = static_t / corrected_t;
    println!(
        "q5 tail query ({} tuples, 1% tail, min of {samples}): static {:.3} ms, \
         corrected {:.3} ms → {speedup:.2}× speedup (q {q_before:.1} → {q_after:.2})",
        n(),
        static_t * 1e3 / iters as f64,
        corrected_t * 1e3 / iters as f64,
    );
    assert!(
        speedup >= 2.0,
        "feedback-corrected plan must be ≥2× faster than the static mispick, \
         measured {speedup:.2}×"
    );

    // Overhead guard: recording observations every execution must stay
    // within 5% of a feedback-disabled engine on a uniform workload.
    std::env::set_var("TOPOSEM_FEEDBACK", "0");
    let eng_off = uniform_engine(toposem_bench::sized(10_000, 2_000));
    std::env::set_var("TOPOSEM_FEEDBACK", "1");
    let eng_on = uniform_engine(toposem_bench::sized(10_000, 2_000));
    assert!(!eng_off.feedback().enabled() && eng_on.feedback().enabled());
    let (employee_u, age_u, depname_u) = eng_on.with_db(|db| {
        let s = db.schema();
        (
            s.type_id("employee").unwrap(),
            s.attr_id("age").unwrap(),
            s.attr_id("depname").unwrap(),
        )
    });
    // A range returning ~2/3 of the table (clears the significance
    // gate, estimate already accurate) plus an indexed point select.
    let wide = Query::scan(employee_u).select_ge(age_u, Value::Int(40));
    let point = Query::scan(employee_u).select(depname_u, Value::str("sales"));
    let run_workload = |eng: &Engine| {
        for q in [&wide, &point] {
            criterion::black_box(eng.query_planned(q).unwrap());
        }
    };
    run_workload(&eng_off); // prime plan caches outside the timing
    run_workload(&eng_on);
    let off_t = min_time(samples, || {
        for _ in 0..iters {
            run_workload(&eng_off);
        }
    });
    let on_t = min_time(samples, || {
        for _ in 0..iters {
            run_workload(&eng_on);
        }
    });
    let overhead = on_t / off_t;
    println!(
        "q5 feedback overhead (uniform workload): disabled {:.3} ms, enabled {:.3} ms \
         → {overhead:.3}×",
        off_t * 1e3 / iters as f64,
        on_t * 1e3 / iters as f64,
    );
    assert!(
        overhead <= 1.05,
        "feedback recording must cost ≤5% on a uniform workload, measured {overhead:.3}×"
    );
    assert!(
        eng_on.feedback().stats().observations > 0,
        "the enabled engine actually recorded observations"
    );

    let samples_out = [
        toposem_bench::BenchSample::from_secs(
            "planned_feedback_off",
            iters as u64,
            off_t / iters as f64,
        ),
        toposem_bench::BenchSample::from_secs(
            "planned_feedback_on",
            iters as u64,
            on_t / iters as f64,
        ),
        toposem_bench::BenchSample::from_secs("static_plan", iters as u64, static_t / iters as f64),
        toposem_bench::BenchSample::from_secs(
            "corrected_plan",
            iters as u64,
            corrected_t / iters as f64,
        ),
    ];
    toposem_bench::emit_bench_json("q5_adaptive", &samples_out);

    let mut g = c.benchmark_group("q5_adaptive");
    g.bench_function("corrected_tail_query", |b| {
        b.iter(|| criterion::black_box(eng.query_planned(&q).unwrap()))
    });
    g.finish();
}

criterion_group!(name = benches; config = cfg(); targets = bench);
criterion_main!(benches);
