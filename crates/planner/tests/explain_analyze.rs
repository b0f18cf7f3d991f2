//! `EXPLAIN ANALYZE` (an ordered, profiled request) correctness:
//! observed actuals must equal ground truth (the naive interpreter),
//! profiling must not perturb results (bit-identical), q-error must
//! collapse to 1.0 when statistics are fresh over uniform data, the
//! q-error watchdog must rank a misestimate first, commits must
//! attribute their time back to the transaction's queries, and the
//! WAL's latency/batch histograms and the q-error histogram must
//! surface in the Prometheus export.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use toposem_core::{employee_schema, Intension};
use toposem_extension::{ContainmentPolicy, Database, DomainCatalog, Value};
use toposem_planner::{PlannedExecution, QueryRequest, QueryResponse, QueryTarget};
use toposem_storage::{Engine, Query};
use toposem_wal::{FlushPolicy, Wal, WalConfig};

fn fresh_db() -> Database {
    Database::new(
        Intension::analyse(employee_schema()),
        DomainCatalog::employee_defaults(),
        ContainmentPolicy::Eager,
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "toposem-explain-analyze-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// An engine loaded with `n` employees (uniform ages over 90 distinct
/// values, three departments), plus departments — the shape behind the
/// q1–q4 benches.
fn loaded_engine(n: i64) -> Engine {
    let eng = Engine::new(fresh_db());
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let department = s.type_id("department").unwrap();
    let deps = ["sales", "research", "admin"];
    for i in 0..n {
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
    eng
}

/// The q1–q4-shaped query set: point select, range select, join with a
/// pushed-down predicate (hostile nesting), and a plain join.
fn query_suite(eng: &Engine) -> Vec<Query> {
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let department = s.type_id("department").unwrap();
    let name = s.attr_id("name").unwrap();
    let age = s.attr_id("age").unwrap();
    let location = s.attr_id("location").unwrap();
    vec![
        // q1: point select.
        Query::scan(employee).select(name, Value::str("w00042")),
        // q2: range select.
        Query::scan(employee).select_between(age, Value::Int(10), Value::Int(20)),
        // q3: join with a predicate nested on the far side.
        Query::scan(employee)
            .join(Query::scan(department))
            .select(location, Value::str("utrecht")),
        // q4: plain join.
        Query::scan(employee).join(Query::scan(department)),
    ]
}

/// `EXPLAIN ANALYZE`: `q` run down the ordered, profiled route a session
/// takes.
fn analyze(eng: &Engine, q: &Query) -> QueryResponse {
    eng.run(&QueryRequest::new(q.clone()).ordered().profiled())
        .unwrap()
}

/// The actual row count the root operator reports equals the naive
/// interpreter's result cardinality, and the profiled result set is the
/// naive result.
#[test]
fn profiled_actuals_match_naive_serial() {
    let eng = loaded_engine(3_000);
    for q in query_suite(&eng) {
        let (naive_ty, naive) = eng.with_db(|db| q.execute(db)).unwrap();
        let resp = eng.run(&QueryRequest::new(q.clone()).profiled()).unwrap();
        let rel = resp.rows.set().unwrap();
        let qp = resp.profile.unwrap();
        assert_eq!(resp.ty, naive_ty);
        assert_eq!(rel, naive, "profiled result diverged for {q:?}");
        assert_eq!(
            qp.root.stats.rows,
            naive.len() as u64,
            "root actual rows != naive cardinality for {q:?}:\n{}",
            qp.render()
        );
        assert_eq!(qp.rows, naive.len() as u64);
    }
}

/// A profiled run's result is bit-identical to the unprofiled planned
/// run — profiling observes, never perturbs.
#[test]
fn profiled_result_identical_to_unprofiled() {
    let eng = loaded_engine(2_000);
    for q in query_suite(&eng) {
        let req = QueryRequest::new(q.clone());
        let plain = eng.run(&req).unwrap();
        let profiled = eng.run(&req.profiled()).unwrap();
        assert_eq!(plain.ty, profiled.ty);
        assert_eq!(plain.rows, profiled.rows, "profiling perturbed {q:?}");
    }
}

/// Fresh statistics over uniform data estimate exactly: q-error 1.0 on
/// the access path (within f64 rounding).
#[test]
fn q_error_is_unity_with_fresh_stats_on_uniform_data() {
    // 900 rows, ages 0..90 — exactly 10 rows per age value.
    let eng = loaded_engine(900);
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let age = s.attr_id("age").unwrap();
    let q = Query::scan(employee).select(age, Value::Int(42));
    let resp = analyze(&eng, &q);
    let qp = resp.profile.unwrap();
    assert_eq!(resp.rows.len(), 10);
    assert_eq!(qp.root.stats.rows, 10);
    let q_err = qp.root.q_error();
    assert!(
        (q_err - 1.0).abs() < 1e-6,
        "uniform data + fresh stats must estimate exactly, got q={q_err}:\n{}",
        qp.render()
    );
}

/// `EXPLAIN ANALYZE` on the q3-shaped join renders every operator line
/// with estimated rows, actual rows, q-error, and wall time, plus the
/// phase footer.
#[test]
fn explain_analyze_annotates_every_operator() {
    let eng = loaded_engine(3_000);
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let department = s.type_id("department").unwrap();
    let location = s.attr_id("location").unwrap();
    let q = Query::scan(employee)
        .join(Query::scan(department))
        .select(location, Value::str("utrecht"));
    let text = analyze(&eng, &q).profile.unwrap().render();
    let mut op_lines = 0;
    for line in text.lines() {
        if line.starts_with("Phases:") {
            continue;
        }
        op_lines += 1;
        for marker in ["est≈", "act=", "q="] {
            assert!(
                line.contains(marker),
                "operator line missing {marker}: {line}\nfull:\n{text}"
            );
        }
        assert!(!line.contains("par≈"), "no parallel degree: {line}");
    }
    assert!(op_lines >= 3, "expected a join tree:\n{text}");
    assert!(text.contains("HashJoin"), "expected a hash join:\n{text}");
    assert!(
        text.contains("build=") && text.contains("probe="),
        "join must report build/probe sizes:\n{text}"
    );
    assert!(
        text.contains("Phases: plan ") && text.contains("plan cache"),
        "missing phase footer:\n{text}"
    );
}

/// Every planned query lands in the trace ring; dropping the slow-query
/// threshold to zero marks them slow and retains their full operator
/// profiles.
#[test]
fn trace_ring_records_queries_and_retains_slow_profiles() {
    let eng = loaded_engine(500);
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let age = s.attr_id("age").unwrap();
    eng.query_trace().set_slow_query_ms(u64::MAX / 2_000_000); // nothing is slow
    let q = Query::scan(employee).select(age, Value::Int(7));
    eng.query_planned(&q).unwrap();
    let recent = eng.query_trace().recent();
    assert_eq!(recent.len(), 1);
    assert!(!recent[0].slow);
    assert!(
        recent[0].profile.is_none(),
        "fast queries must not pay profile assembly"
    );
    assert_eq!(recent[0].rows, 6); // 500 rows → ages 0..90, 6 hit age 7

    eng.query_trace().set_slow_query_ms(0); // everything is slow
    eng.query_planned(&q).unwrap();
    let slow = eng.query_trace().slow();
    assert_eq!(slow.len(), 1);
    let profile = slow[0]
        .profile
        .as_ref()
        .expect("slow queries retain their full operator profile");
    assert_eq!(profile.root.stats.rows, 6);
    assert_eq!(
        eng.metrics().queries_slow.get(),
        1,
        "slow-query counter follows the threshold"
    );
}

/// A d1-shaped commit workload populates the WAL fsync-latency and
/// group-commit batch-size histograms, and both surface in the
/// Prometheus export alongside the query counters.
#[test]
fn wal_histograms_surface_in_prometheus_export() {
    let dir = temp_dir("prom");
    let cfg = WalConfig {
        flush: FlushPolicy::PerCommit,
        segment_bytes: 1 << 20,
    };
    let eng = Engine::durable(fresh_db(), Wal::create(&dir, cfg).unwrap()).unwrap();
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    for i in 0..32 {
        eng.insert(
            employee,
            &[
                ("name", Value::str(&format!("d{i}"))),
                ("age", Value::Int(i % 60)),
                ("depname", Value::str("sales")),
            ],
        )
        .unwrap();
    }
    let age = s.attr_id("age").unwrap();
    eng.query_planned(&Query::scan(employee).select(age, Value::Int(3)))
        .unwrap();

    let snap = eng.metrics_snapshot();
    assert!(
        snap.wal.flushes >= 32,
        "each commit flushes under PerCommit"
    );
    assert_eq!(snap.wal.fsync_ns.count, snap.wal.flushes);
    assert!(
        snap.wal.group_commit_batch.count >= 32,
        "every commit-driven flush records its batch size"
    );
    assert_eq!(snap.txn.commits, 32);

    let text = eng.metrics_prometheus();
    for metric in [
        "toposem_wal_fsync_latency_ns_bucket",
        "toposem_wal_fsync_latency_ns_sum",
        "toposem_wal_fsync_latency_ns_count",
        "toposem_wal_group_commit_batch_bucket",
        "toposem_wal_flushes_total",
        "toposem_txn_commits_total",
        "toposem_plan_cache_misses_total",
        "toposem_queries_planned_total",
        "toposem_snapshot_rebuild_duration_ns_bucket",
        "toposem_snapshot_rebuild_duration_ns_count",
        "toposem_statistics_collect_duration_ns_bucket",
        "toposem_statistics_collect_duration_ns_count",
        "toposem_statistics_types_reused_total",
        "toposem_statistics_types_collected_total",
    ] {
        assert!(text.contains(metric), "missing {metric} in export:\n{text}");
    }
    // The batch-size histogram saw single-commit flushes: the le="1"
    // cumulative bucket is non-zero.
    let bucket_line = text
        .lines()
        .find(|l| l.starts_with("toposem_wal_group_commit_batch_bucket{le=\"1\"}"))
        .expect("le=1 bucket rendered");
    let count: u64 = bucket_line
        .split_whitespace()
        .last()
        .unwrap()
        .parse()
        .unwrap();
    assert!(count >= 32, "PerCommit batches are size 1: {bucket_line}");
    // Planning collected statistics once, for every type.
    assert!(snap.statistics.types_collected >= 5);
    assert!(snap.statistics.collect_ns.count >= 1);
    let _ = fs::remove_dir_all(&dir);
}

/// Commits attribute their WAL time back to the queries of the
/// enclosing transaction; only query-less transactions fall back to a
/// standalone fingerprint-0 trace entry.
#[test]
fn commit_time_attributed_to_transaction_queries() {
    let dir = temp_dir("attr");
    let cfg = WalConfig {
        flush: FlushPolicy::PerCommit,
        segment_bytes: 1 << 20,
    };
    let eng = Engine::durable(fresh_db(), Wal::create(&dir, cfg).unwrap()).unwrap();
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let name = s.attr_id("name").unwrap();
    for i in 0..4 {
        eng.insert(
            employee,
            &[
                ("name", Value::str(&format!("a{i}"))),
                ("age", Value::Int(30 + i)),
                ("depname", Value::str("sales")),
            ],
        )
        .unwrap();
    }
    let standalone = |eng: &Engine| {
        eng.query_trace()
            .recent()
            .iter()
            .filter(|t| t.fingerprint == 0)
            .count()
    };
    // Only explicit commits trace; the autocommit loads above do not.
    let fp0_before = standalone(&eng);

    // A transaction with two queries: its commit time lands on them.
    eng.begin().unwrap();
    let token = eng.active_txn_token().unwrap();
    let q1 = Query::scan(employee).select(name, Value::str("a1"));
    let q2 = Query::scan(employee).select(name, Value::str("a2"));
    eng.query_planned(&q1).unwrap();
    eng.query_planned(&q2).unwrap();
    eng.insert(
        employee,
        &[
            ("name", Value::str("txn")),
            ("age", Value::Int(50)),
            ("depname", Value::str("sales")),
        ],
    )
    .unwrap();
    eng.commit().unwrap();

    let attributed: Vec<_> = eng
        .query_trace()
        .recent()
        .into_iter()
        .filter(|t| t.txn == Some(token))
        .collect();
    assert_eq!(attributed.len(), 2, "both queries carry the txn token");
    assert!(
        attributed.iter().all(|t| t.commit_ns > 0),
        "commit time distributed across the txn's queries: {attributed:?}"
    );
    assert_eq!(
        standalone(&eng),
        fp0_before,
        "an attributed commit adds no standalone entry"
    );

    // A query-less transaction still traces its commit somewhere.
    eng.begin().unwrap();
    eng.insert(
        employee,
        &[
            ("name", Value::str("quiet")),
            ("age", Value::Int(51)),
            ("depname", Value::str("sales")),
        ],
    )
    .unwrap();
    eng.commit().unwrap();
    assert_eq!(
        standalone(&eng),
        fp0_before + 1,
        "a query-less commit falls back to a standalone entry"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// The q-error watchdog surfaces the worst retained plan first. A range
/// over the string attribute `name` has no histogram and takes the 1/3
/// default: an estimate near 1 000 of the 3 000 rows, where none match.
#[test]
fn worst_plans_ranks_the_misestimated_query_highest() {
    let eng = loaded_engine(3_000);
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let name = s.attr_id("name").unwrap();
    let age = s.attr_id("age").unwrap();

    // Run the badly estimated query first, then a well-estimated one —
    // the watchdog must rank by q-error, not recency.
    let miss = Query::scan(employee).select_between(name, Value::str("x"), Value::str("y"));
    assert_eq!(analyze(&eng, &miss).rows.len(), 0);
    analyze(&eng, &Query::scan(employee).select(age, Value::Int(50)));

    let worst = eng.query_trace().worst_plans(2);
    assert_eq!(worst.len(), 2, "profiled runs retain their profiles");
    assert!(
        worst[0].max_q > 100.0 && worst[1].max_q < 2.0,
        "watchdog ranks the misestimate first: q0={}, q1={}",
        worst[0].max_q,
        worst[1].max_q
    );
    assert!(worst[0].max_q >= worst[1].max_q);
}

/// Every planned execution, profiled or not, records its worst q-error,
/// and the histogram renders in the Prometheus export.
#[test]
fn prometheus_exports_qerror_family() {
    let eng = loaded_engine(900);
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let age = s.attr_id("age").unwrap();
    let q = Query::scan(employee).select_between(age, Value::Int(0), Value::Int(100));
    eng.query_planned(&q).unwrap();
    eng.query_planned(&q).unwrap();

    let snap = eng.metrics_snapshot();
    assert_eq!(snap.planner_qerror.count, 2, "every execution records q");

    let text = eng.metrics_prometheus();
    for metric in [
        "toposem_planner_qerror_bucket",
        "toposem_planner_qerror_sum",
        "toposem_planner_qerror_count",
    ] {
        assert!(text.contains(metric), "missing {metric} in export:\n{text}");
    }
}
