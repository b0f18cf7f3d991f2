//! Group-commit latency bound: a lone acknowledged commit must become
//! durable within `max_wait` wall-clock time, with **no** further
//! commits arriving.
//!
//! Regression for the bug where the WAL only evaluated the `max_wait`
//! deadline inside `commit_appended` — i.e. when the *next* commit
//! arrived — so a single committer (or the last commits of a burst)
//! stayed unsynced indefinitely. The engine now runs a dedicated
//! flusher thread that watches `Wal::pending_flush_deadline` and fsyncs
//! at the deadline.
//!
//! The converse holds too: a log with nothing appended since its last
//! fsync is not fsynced again, however often it is synced.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use toposem_core::{employee_schema, Intension};
use toposem_extension::{ContainmentPolicy, Database, DomainCatalog, Value};
use toposem_storage::Engine;
use toposem_wal::{FlushPolicy, Wal, WalConfig};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "toposem-group-commit-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn group_commit_engine(dir: &PathBuf, max_wait: Duration) -> Engine {
    durable_engine(
        dir,
        FlushPolicy::GroupCommit {
            // Far larger than the test's commit count: only the
            // max_wait deadline can trigger the flush.
            max_batch: 1024,
            max_wait,
        },
    )
}

fn durable_engine(dir: &PathBuf, flush: FlushPolicy) -> Engine {
    let cfg = WalConfig {
        flush,
        segment_bytes: 1 << 20,
    };
    let db = Database::new(
        Intension::analyse(employee_schema()),
        DomainCatalog::employee_defaults(),
        ContainmentPolicy::Eager,
    );
    Engine::durable(db, Wal::create(dir, cfg).unwrap()).unwrap()
}

/// Polls until the engine's physical-flush counter exceeds `before`,
/// returning how long that took (or panicking after `budget`).
fn wait_for_flush(eng: &Engine, before: u64, budget: Duration) -> Duration {
    let t0 = Instant::now();
    while t0.elapsed() < budget {
        if eng.metrics().wal.flushes.get() > before {
            return t0.elapsed();
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!(
        "no flush within {budget:?}: flushes still {}",
        eng.metrics().wal.flushes.get()
    );
}

#[test]
fn single_committer_is_fsynced_within_max_wait() {
    let dir = temp_dir("single");
    let max_wait = Duration::from_millis(25);
    let eng = group_commit_engine(&dir, max_wait);
    let person = eng.with_db(|db| db.schema().type_id("person").unwrap());

    // One autocommitted insert: the commit is acknowledged, joins the
    // group-commit window, and nothing else ever commits.
    let flushes_before = eng.metrics().wal.flushes.get();
    eng.insert(
        person,
        &[("name", Value::str("solo")), ("age", Value::Int(1))],
    )
    .unwrap();

    // CI schedulers are noisy, so the assertion budget is a loose
    // multiple of max_wait; the acceptance target (~2×) is checked
    // against the flusher's own wake-up, not wall-clock perfection.
    let waited = wait_for_flush(&eng, flushes_before, max_wait * 8);
    assert!(
        waited >= Duration::from_millis(5),
        "flush fired at {waited:?} — suspiciously before the deadline could expire"
    );

    // The flush drained the window: the batch histogram saw the lone
    // commit and nothing is pending.
    let snap = eng.metrics_snapshot();
    assert!(
        snap.wal.group_commit_batch.count >= 1,
        "flusher-driven drains must record their batch size"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn explicit_transaction_commit_is_fsynced_without_successor() {
    let dir = temp_dir("txn");
    let max_wait = Duration::from_millis(20);
    let eng = group_commit_engine(&dir, max_wait);
    let person = eng.with_db(|db| db.schema().type_id("person").unwrap());

    let flushes_before = eng.metrics().wal.flushes.get();
    eng.begin().unwrap();
    eng.insert(
        person,
        &[("name", Value::str("txn")), ("age", Value::Int(2))],
    )
    .unwrap();
    eng.commit().unwrap();

    wait_for_flush(&eng, flushes_before, max_wait * 8);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn an_idle_log_is_not_fsynced_again() {
    let dir = temp_dir("idle");
    let eng = durable_engine(&dir, FlushPolicy::NoSync);
    let person = eng.with_db(|db| db.schema().type_id("person").unwrap());
    eng.insert(
        person,
        &[("name", Value::str("first")), ("age", Value::Int(1))],
    )
    .unwrap();
    let flushes = || eng.metrics().wal.flushes.get();
    let before = flushes();
    eng.sync().unwrap();
    eng.sync().unwrap();
    assert_eq!(
        flushes(),
        before + 1,
        "the second sync had nothing to write"
    );
    let snap = eng.metrics_snapshot();
    assert_eq!(snap.wal.fsync_ns.count, snap.wal.flushes);

    // A commit after the skipped flush still reaches the file with the
    // next sync: recovery (read-only, beside the live engine) sees it.
    eng.insert(
        person,
        &[("name", Value::str("second")), ("age", Value::Int(2))],
    )
    .unwrap();
    eng.sync().unwrap();
    assert_eq!(flushes(), before + 2);
    assert_eq!(Engine::recover(&dir).unwrap().extension(person).len(), 2);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn burst_tail_is_flushed_after_idleness() {
    // The last commits of a burst must not wait for a successor either:
    // commit several, go idle, and the deadline drains the tail.
    let dir = temp_dir("burst");
    let max_wait = Duration::from_millis(20);
    let eng = group_commit_engine(&dir, max_wait);
    let person = eng.with_db(|db| db.schema().type_id("person").unwrap());

    let flushes_before = eng.metrics().wal.flushes.get();
    for i in 0..5 {
        eng.insert(
            person,
            &[
                ("name", Value::str(&format!("b{i}"))),
                ("age", Value::Int(i)),
            ],
        )
        .unwrap();
    }
    wait_for_flush(&eng, flushes_before, max_wait * 8);

    // Everything acknowledged is recoverable from the log alone.
    drop(eng);
    let recovered = Engine::recover(&dir).unwrap();
    assert_eq!(recovered.extension(person).len(), 5);
    let _ = fs::remove_dir_all(&dir);
}
