//! C1: concurrent snapshot readers scaling against an active writer.
//!
//! The workload models the server's session mix: reader "clients" run
//! an employee ⋈ department join through the MVCC snapshot path (a
//! [`PinnedSnapshot`] target) while a writer thread keeps committing
//! small transactions the whole time, churning the committed-state
//! snapshot under them. Each query runs on its reader's own thread, so
//! the measured scaling is *session concurrency* — snapshot reads never
//! taking the engine write lock.
//!
//! The headline claim (the PR's acceptance bar): a fixed budget of
//! reads completes ≥2× faster on 4 reader threads than on 1, with the
//! writer active in both runs. On <4 cores the comparison still runs
//! and prints, but the ratio is only asserted where the hardware can
//! deliver it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use toposem_core::{employee_schema, Intension};
use toposem_extension::{ContainmentPolicy, Database, DomainCatalog, Value};
use toposem_planner::{PinnedSnapshot, QueryRequest, QueryTarget};
use toposem_storage::{Engine, Query};

/// Employee rows the readers join over; the writer's inserts land in
/// `person`, so snapshots churn while the read workload stays constant.
fn n() -> i64 {
    toposem_bench::sized(30_000, 6_000)
}

/// Total queries per measured run, split evenly across reader threads.
fn total_reads() -> usize {
    toposem_bench::sized(64, 24)
}

fn cfg() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(toposem_bench::sized(300, 50)))
        .measurement_time(Duration::from_millis(toposem_bench::sized(2000, 300)))
}

const DEPS: [(&str, &str); 3] = [
    ("sales", "amsterdam"),
    ("research", "utrecht"),
    ("admin", "utrecht"),
];

fn loaded_engine() -> Arc<Engine> {
    let eng = Arc::new(Engine::new(Database::new(
        Intension::analyse(employee_schema()),
        DomainCatalog::employee_defaults(),
        ContainmentPolicy::Eager,
    )));
    let (employee, department) = eng.with_db(|db| {
        let s = db.schema();
        (
            s.type_id("employee").unwrap(),
            s.type_id("department").unwrap(),
        )
    });
    for (d, l) in DEPS {
        eng.insert(
            department,
            &[("depname", Value::str(d)), ("location", Value::str(l))],
        )
        .unwrap();
    }
    for i in 0..n() {
        eng.insert(
            employee,
            &[
                ("name", Value::str(&format!("e{i:06}"))),
                ("age", Value::Int(i % 90)),
                ("depname", Value::str(DEPS[(i % 3) as usize].0)),
            ],
        )
        .unwrap();
    }
    eng
}

/// Runs the fixed read budget on `threads` readers, each capturing a
/// fresh committed snapshot per query (the autocommit session pattern).
/// Returns the total row count so the work cannot be optimised away.
fn run_readers(eng: &Arc<Engine>, q: &QueryRequest, threads: usize) -> usize {
    let per = total_reads() / threads;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut rows = 0usize;
                    for _ in 0..per {
                        let snap =
                            PinnedSnapshot::capture(eng).expect("committed snapshot was primed");
                        rows += snap.run(q).unwrap().rows.len();
                    }
                    rows
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

/// Median wall time of `runs` executions of the read budget on
/// `threads` readers, with a writer committing throughout.
fn measure(eng: &Arc<Engine>, q: &QueryRequest, threads: usize, runs: usize) -> f64 {
    let person = eng.with_db(|db| db.schema().type_id("person").unwrap());
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut i = 0i64;
            let mut committed = 0usize;
            while !stop.load(Ordering::SeqCst) {
                eng.begin().unwrap();
                for _ in 0..16 {
                    eng.insert(
                        person,
                        &[
                            ("name", Value::str(&format!("c1w{i:08}"))),
                            ("age", Value::Int(i % 90)),
                        ],
                    )
                    .unwrap();
                    i += 1;
                }
                eng.commit().unwrap();
                committed += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            committed
        });
        let mut samples: Vec<f64> = (0..runs)
            .map(|_| {
                let t0 = Instant::now();
                criterion::black_box(run_readers(eng, q, threads));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        stop.store(true, Ordering::SeqCst);
        let committed = writer.join().unwrap();
        assert!(
            committed > 0,
            "the writer must have committed during the measurement"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        samples[samples.len() / 2]
    })
}

fn bench(c: &mut Criterion) {
    let eng = loaded_engine();
    let (employee, department) = eng.with_db(|db| {
        let s = db.schema();
        (
            s.type_id("employee").unwrap(),
            s.type_id("department").unwrap(),
        )
    });
    let scan = QueryRequest::new(Query::scan(employee));
    let q = QueryRequest::new(Query::scan(employee).join(Query::scan(department)));

    // Correctness before numbers: on one snapshot the join covers the
    // scan exactly (every employee's department exists), and a primed
    // snapshot means readers never need the engine lock later.
    let snap = PinnedSnapshot::capture(&eng).expect("no txn active");
    let emp = snap.run(&scan).unwrap().rows;
    let joined = snap.run(&q).unwrap().rows;
    assert_eq!(emp.len() as i64, n());
    assert_eq!(
        joined.len(),
        emp.len(),
        "join over one snapshot must cover its scan"
    );
    drop((snap, emp, joined));

    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let runs = toposem_bench::sized(7, 5);
    let total = total_reads();
    let t1 = measure(&eng, &q, 1, runs);
    let t4 = measure(&eng, &q, 4, runs);
    let speedup = t1 / t4;
    println!(
        "c1 {total} snapshot joins over {} employees on {cores} cores, writer active: \
         1 reader {:.1} ms, 4 readers {:.1} ms → {speedup:.2}×",
        n(),
        t1 * 1e3,
        t4 * 1e3
    );
    if cores >= 4 {
        // Full size asserts the headline 2×; CI short mode (6k rows on
        // shared 4-vCPU runners, with the writer stealing slices)
        // asserts a softer floor so scheduler noise doesn't flake the
        // smoke job while real regressions — readers serialising on an
        // engine lock run at ~1.0× — still fail loudly.
        let floor = toposem_bench::sized(2.0, 1.5);
        assert!(
            speedup >= floor,
            "snapshot readers must scale ≥{floor}× from 1→4 threads on {cores} cores, got {speedup:.2}×"
        );
    } else {
        println!("c1: ratio not asserted (needs ≥4 cores; have {cores})");
    }
    toposem_bench::emit_bench_json(
        "c1_concurrent_clients",
        &[
            toposem_bench::BenchSample::from_secs(
                "reader_1_thread",
                total as u64,
                t1 / total as f64,
            ),
            toposem_bench::BenchSample::from_secs(
                "reader_4_threads",
                total as u64,
                t4 / total as f64,
            ),
        ],
    );

    let mut g = c.benchmark_group("c1_concurrent_clients");
    g.bench_function("readers_x1", |b| b.iter(|| run_readers(&eng, &q, 1)));
    g.bench_function("readers_x4", |b| b.iter(|| run_readers(&eng, &q, 4)));
    g.finish();
}

criterion_group!(name = benches; config = cfg(); targets = bench);
criterion_main!(benches);
