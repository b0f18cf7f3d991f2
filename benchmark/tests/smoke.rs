//! One small run of every workload, untraced and traced: the whole path
//! — set-up, sockets, oracle, recovery check, layer probes, trace file —
//! at 2 000 rows and a fraction of a second, asserting correctness and
//! the shape of the result, never a speed.

use std::path::PathBuf;
use std::time::Duration;

use toposem_benchmark::fixture::SMOKE_ROWS;
use toposem_benchmark::run::{run_traced, run_untraced, Outcome, RunConfig, END_TO_END, PER_LAYER};
use toposem_benchmark::workload::Kind;

fn cfg(kind: Kind) -> RunConfig {
    RunConfig {
        kind,
        seed: 11,
        rows: SMOKE_ROWS,
        warmup: Duration::from_millis(100),
        window: Duration::from_millis(600),
        // Cargo's per-test-target scratch directory; one subdirectory
        // per workload because the tests run in parallel.
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(kind.name()),
    }
}

fn value(o: &Outcome, name: &str) -> f64 {
    o.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

fn smoke(kind: Kind) -> (Outcome, Outcome) {
    let cfg = cfg(kind);
    let plain = run_untraced(&cfg).unwrap();
    assert!(plain.correct(), "{}: {:?}", kind.name(), plain.problems);
    assert!(plain.attempted > 0);
    let names: Vec<_> = plain.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(names, END_TO_END);
    for m in &plain.metrics {
        assert!(
            m.value > 0.0,
            "{} is {} on {}",
            m.name,
            m.value,
            kind.name()
        );
    }
    assert!(plain
        .to_json()
        .starts_with("{\"correct\": true, \"attempted\": "));

    let traced = run_traced(&cfg).unwrap();
    assert!(traced.correct(), "{}: {:?}", kind.name(), traced.problems);
    let names: Vec<_> = traced.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(names, PER_LAYER);
    assert!(traced.report.contains("layer budget"));
    let trace = cfg.out_dir.join(format!("trace-{}.jsonl", kind.name()));
    let first = std::fs::read_to_string(trace).unwrap();
    assert!(first.lines().next().unwrap().contains("\"parent\":"));
    assert_eq!(value(&traced, "error_rate"), 0.0);
    // Scratch directories are gone; only trace files remain.
    for entry in std::fs::read_dir(&cfg.out_dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(name.starts_with("trace-"), "left behind: {name}");
    }
    (plain, traced)
}

#[test]
fn point_read() {
    let (_, t) = smoke(Kind::PointRead);
    assert!(value(&t, "read_p50_us") > 0.0);
    assert_eq!(value(&t, "write_p50_us"), 0.0);
    assert_eq!(value(&t, "storage.snapshot_rebuilds_per_read"), 0.0);
    assert!(value(&t, "storage.index_lookup_us") > 0.0);
    assert_eq!(value(&t, "repl.replica_read_share"), 0.0);
}

#[test]
fn scan_join() {
    let (_, t) = smoke(Kind::ScanJoin);
    assert_eq!(value(&t, "storage.snapshot_rebuilds_per_read"), 0.0);
    assert!(value(&t, "planner.exec_us") > 0.0);
    // 180 distinct texts fit the 512-entry plan cache.
    assert!(value(&t, "planner.plan_cache_hit_ratio") > 0.9);
    assert!(value(&t, "server.reply_bytes_per_op") > 500.0);
}

#[test]
fn write_txn() {
    let (_, t) = smoke(Kind::WriteTxn);
    assert_eq!(value(&t, "read_p50_us"), 0.0);
    for name in [
        "write_p50_us",
        "storage.begin_us",
        "storage.insert_us",
        "storage.delete_us",
        "storage.commit_us",
        "extension.insert_us",
        "extension.delete_us",
        "wal.append_us",
        "wal.fsync_p50_us",
        "wal.bytes_per_commit",
        "wal_bytes_per_user_byte",
    ] {
        assert!(value(&t, name) > 0.0, "{name}");
    }
    // Nobody reads, so nobody rebuilds a snapshot.
    assert_eq!(value(&t, "storage.snapshot_rebuild_us"), 0.0);
}

#[test]
fn mixed_rw() {
    let (_, t) = smoke(Kind::MixedRw);
    assert!(value(&t, "read_p50_us") > 0.0);
    assert!(value(&t, "write_p50_us") > 0.0);
    assert!(value(&t, "storage.snapshot_rebuilds_per_read") > 0.0);
    assert!(value(&t, "storage.snapshot_rebuild_us") > 0.0);
    assert_eq!(value(&t, "repl.replica_read_share"), 0.0);
}

#[test]
fn replicated_rw() {
    let (_, t) = smoke(Kind::ReplicatedRw);
    assert!(value(&t, "repl.replica_read_share") > 0.0);
    assert!(value(&t, "repl.visible_lag_p50_ms") > 0.0);
    assert!(value(&t, "repl.apply_us_per_record") > 0.0);
    assert!(value(&t, "storage.checkpoint_bytes") > 0.0);
    assert_eq!(value(&t, "repl.rebootstraps"), 0.0);
}
