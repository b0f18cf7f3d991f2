//! Crash-recovery integration tests for the durable engine.
//!
//! The contract under test: after any crash, `Engine::recover` yields
//! exactly the state of some *committed prefix* of the workload —
//! checkpointed state plus every transaction whose `Commit` record
//! survived intact, with uncommitted suffixes discarded, a torn final
//! record tolerated, and indexes and statistics rebuilt.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use toposem_core::{employee_schema, AttrId, GeneralisationTopology, Intension, TypeId};
use toposem_extension::{ContainmentPolicy, Database, DomainCatalog, Instance, LogicalOp, Value};
use toposem_fd::Fd;
use toposem_storage::{snapshot, Engine, EngineError, IndexKind, Statistics};
use toposem_wal::{FlushPolicy, Wal, WalConfig, WalEntry, WalRecord};

const NAMES: [&str; 5] = ["ann", "bob", "carol", "dave", "eve"];
const DEPS: [&str; 3] = ["sales", "research", "admin"];

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "toposem-recovery-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn fresh_db() -> Database {
    Database::new(
        Intension::analyse(employee_schema()),
        DomainCatalog::employee_defaults(),
        ContainmentPolicy::Eager,
    )
}

fn durable_engine(dir: &Path, flush: FlushPolicy) -> Engine {
    let cfg = WalConfig {
        flush,
        segment_bytes: 2048, // small: recovery tests should cross segments
    };
    Engine::durable(fresh_db(), Wal::create(dir, cfg).unwrap()).unwrap()
}

/// Deep equality of two engines' databases: canonical snapshot bytes
/// (schema, policy, every stored relation) must agree, and so must the
/// semantic extensions.
fn assert_same_database(recovered: &Engine, shadow: &Engine, context: &str) {
    let a = recovered.with_db(|db| snapshot::to_vec(db).unwrap());
    let b = shadow.with_db(|db| snapshot::to_vec(db).unwrap());
    assert_eq!(a, b, "database state diverged: {context}");
    recovered.with_db(|rdb| {
        shadow.with_db(|sdb| {
            for e in rdb.schema().type_ids() {
                assert_eq!(
                    rdb.extension(e),
                    sdb.extension(e),
                    "extension of {} diverged: {context}",
                    rdb.schema().type_name(e)
                );
            }
        })
    });
}

fn insert_employee(eng: &Engine, name: &str, age: i64, dep: &str) {
    let employee = eng.with_db(|db| db.schema().type_id("employee").unwrap());
    eng.insert(
        employee,
        &[
            ("name", Value::str(name)),
            ("age", Value::Int(age)),
            ("depname", Value::str(dep)),
        ],
    )
    .unwrap();
}

/// The acceptance scenario: checkpoint + N committed transactions + one
/// uncommitted transaction, crash, recover. Recovery must restore
/// exactly the committed state — indexes and statistics included —
/// verified by deep equality against a shadow in-memory engine that
/// executed only the committed work.
#[test]
fn kill_and_recover_restores_exactly_the_committed_state() {
    let dir = temp_dir("kill");
    let eng = durable_engine(&dir, FlushPolicy::PerCommit);
    let shadow = Engine::new(fresh_db());
    let (employee, manager, depname) = eng.with_db(|db| {
        let s = db.schema();
        (
            s.type_id("employee").unwrap(),
            s.type_id("manager").unwrap(),
            s.attr_id("depname").unwrap(),
        )
    });

    // Pre-checkpoint state: an index and a couple of rows.
    eng.create_index(employee, depname).unwrap();
    shadow.create_index(employee, depname).unwrap();
    for (n, a, d) in [("ann", 40, "sales"), ("bob", 30, "research")] {
        insert_employee(&eng, n, a, d);
        insert_employee(&shadow, n, a, d);
    }
    eng.checkpoint().unwrap();

    // N committed transactions after the checkpoint, mirrored on the
    // shadow: inserts (with eager propagations via manager) and a
    // cascading delete.
    for (n, a, d, b) in [("carol", 35, "sales", 100), ("dave", 45, "admin", 70)] {
        eng.begin().unwrap();
        eng.insert(
            manager,
            &[
                ("name", Value::str(n)),
                ("age", Value::Int(a)),
                ("depname", Value::str(d)),
                ("budget", Value::Int(b)),
            ],
        )
        .unwrap();
        eng.commit().unwrap();
        shadow
            .insert(
                manager,
                &[
                    ("name", Value::str(n)),
                    ("age", Value::Int(a)),
                    ("depname", Value::str(d)),
                    ("budget", Value::Int(b)),
                ],
            )
            .unwrap();
    }
    let bob = eng.with_db(|db| {
        Instance::new(
            db.schema(),
            db.catalog(),
            employee,
            &[
                ("name", Value::str("bob")),
                ("age", Value::Int(30)),
                ("depname", Value::str("research")),
            ],
        )
        .unwrap()
    });
    eng.begin().unwrap();
    assert_eq!(eng.delete(employee, &bob).unwrap(), 1);
    eng.commit().unwrap();
    shadow.delete(employee, &bob).unwrap();

    // One transaction that never commits: the crash victim.
    eng.begin().unwrap();
    insert_employee(&eng, "ghost", 99, "admin");
    eng.sync().unwrap(); // its records reach disk — but no Commit does
    drop(eng); // crash

    let recovered = Engine::recover(&dir).unwrap();
    assert_same_database(&recovered, &shadow, "after kill-and-recover");
    // The uncommitted insert left no trace.
    assert!(recovered
        .lookup(employee, depname, &Value::str("admin"))
        .iter()
        .all(|t| t.get(eng_attr(&recovered, "name")) != Some(&Value::str("ghost"))));
    // Indexes were rebuilt (the lookup above used one)…
    assert_eq!(recovered.indexed_attr(employee), Some(depname));
    assert_eq!(
        recovered
            .lookup(employee, depname, &Value::str("sales"))
            .len(),
        shadow.lookup(employee, depname, &Value::str("sales")).len(),
    );
    // …and statistics agree with the shadow's.
    let (rs, ss) = (recovered.statistics(), shadow.statistics());
    recovered.with_db(|db| {
        for e in db.schema().type_ids() {
            assert_eq!(rs.cardinality(e), ss.cardinality(e));
        }
    });
    fs::remove_dir_all(&dir).unwrap();
}

fn eng_attr(eng: &Engine, name: &str) -> toposem_core::AttrId {
    eng.with_db(|db| db.schema().attr_id(name).unwrap())
}

/// A durable engine survives close/reopen cycles through `Engine::open`,
/// continuing the same log.
#[test]
fn open_continues_the_log_across_restarts() {
    let dir = temp_dir("reopen");
    let cfg = WalConfig {
        flush: FlushPolicy::PerCommit,
        segment_bytes: 2048,
    };
    let eng = durable_engine(&dir, FlushPolicy::PerCommit);
    insert_employee(&eng, "ann", 40, "sales");
    drop(eng);

    let eng = Engine::open(&dir, cfg).unwrap();
    assert!(eng.is_durable());
    insert_employee(&eng, "bob", 30, "research");
    eng.checkpoint().unwrap();
    insert_employee(&eng, "carol", 25, "admin");
    drop(eng);

    let recovered = Engine::recover(&dir).unwrap();
    let shadow = Engine::new(fresh_db());
    for (n, a, d) in [
        ("ann", 40, "sales"),
        ("bob", 30, "research"),
        ("carol", 25, "admin"),
    ] {
        insert_employee(&shadow, n, a, d);
    }
    assert_same_database(&recovered, &shadow, "after two restarts");
    fs::remove_dir_all(&dir).unwrap();
}

/// Declared FDs survive recovery: a violating insert that the live
/// engine would reject is also rejected after a restart, both via
/// `recover` (read-only) and `open` (continue).
#[test]
fn declared_fds_survive_recovery() {
    use toposem_core::GeneralisationTopology;
    use toposem_fd::Fd;

    let dir = temp_dir("fds");
    let eng = durable_engine(&dir, FlushPolicy::PerCommit);
    let (worksfor, fd) = eng.with_db(|db| {
        let s = db.schema();
        let gen = GeneralisationTopology::of_schema(s);
        (
            s.type_id("worksfor").unwrap(),
            Fd::new(
                &gen,
                s.type_id("employee").unwrap(),
                s.type_id("department").unwrap(),
                s.type_id("worksfor").unwrap(),
            )
            .unwrap(),
        )
    });
    eng.declare_fd(fd).unwrap();
    eng.insert(
        worksfor,
        &[
            ("name", Value::str("ann")),
            ("age", Value::Int(40)),
            ("depname", Value::str("sales")),
            ("location", Value::str("amsterdam")),
        ],
    )
    .unwrap();
    // Checkpoint so the declaration must survive via checkpoint meta
    // too, not just the log record.
    eng.checkpoint().unwrap();
    drop(eng);

    let violation = [
        ("name", Value::str("ann")),
        ("age", Value::Int(40)),
        ("depname", Value::str("sales")),
        ("location", Value::str("utrecht")),
    ];
    let recovered = Engine::recover(&dir).unwrap();
    assert!(
        matches!(
            recovered.insert(worksfor, &violation),
            Err(EngineError::FdViolation(_))
        ),
        "recovery must restore FD enforcement"
    );
    let cfg = WalConfig {
        flush: FlushPolicy::PerCommit,
        segment_bytes: 2048,
    };
    let reopened = Engine::open(&dir, cfg).unwrap();
    assert!(
        matches!(
            reopened.insert(worksfor, &violation),
            Err(EngineError::FdViolation(_))
        ),
        "open must restore FD enforcement"
    );
    drop(reopened);
    fs::remove_dir_all(&dir).unwrap();
}

/// `drop_index` is durably logged: recovery replays creates *and* drops
/// in log order, so a create/drop/create history converges to exactly
/// one live index, and a dropped index stays dropped across restarts
/// and checkpoints.
#[test]
fn drop_index_survives_recovery() {
    use toposem_storage::IndexKind;

    let dir = temp_dir("dropidx");
    let eng = durable_engine(&dir, FlushPolicy::PerCommit);
    let (employee, depname, age) = eng.with_db(|db| {
        let s = db.schema();
        (
            s.type_id("employee").unwrap(),
            s.attr_id("depname").unwrap(),
            s.attr_id("age").unwrap(),
        )
    });
    insert_employee(&eng, "ann", 40, "sales");
    eng.create_index(employee, depname).unwrap();
    eng.create_ord_index(employee, age).unwrap();
    // Drop the hash index; then create/drop/create the same ordered
    // index so replay must track the definition list in log order.
    assert!(eng
        .drop_index(employee, IndexKind::Hash, &[depname])
        .unwrap());
    assert!(eng
        .drop_index(employee, IndexKind::Ordered, &[age])
        .unwrap());
    eng.create_ord_index(employee, age).unwrap();
    drop(eng);

    let recovered = Engine::recover(&dir).unwrap();
    assert_eq!(
        recovered.index_defs(employee),
        vec![(IndexKind::Ordered, vec![age])],
        "recovery must replay drops in log order"
    );

    // A checkpoint after the drop must not resurrect it either.
    let cfg = WalConfig {
        flush: FlushPolicy::PerCommit,
        segment_bytes: 2048,
    };
    let reopened = Engine::open(&dir, cfg).unwrap();
    assert_eq!(
        reopened.index_defs(employee),
        vec![(IndexKind::Ordered, vec![age])]
    );
    reopened.checkpoint().unwrap();
    assert!(reopened
        .drop_index(employee, IndexKind::Ordered, &[age])
        .unwrap());
    drop(reopened);
    let recovered = Engine::recover(&dir).unwrap();
    assert!(
        recovered.index_defs(employee).is_empty(),
        "a post-checkpoint drop must survive recovery"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn durability_api_guards() {
    let dir = temp_dir("guards");
    let volatile = Engine::new(fresh_db());
    assert!(!volatile.is_durable());
    assert_eq!(volatile.checkpoint(), Err(EngineError::NotDurable));
    assert_eq!(volatile.sync(), Err(EngineError::NotDurable));

    let eng = durable_engine(&dir, FlushPolicy::PerCommit);
    eng.begin().unwrap();
    // Checkpoints must capture transaction-consistent states only.
    assert_eq!(eng.checkpoint(), Err(EngineError::TransactionActive));
    eng.rollback().unwrap();
    eng.checkpoint().unwrap();
    fs::remove_dir_all(&dir).unwrap();
}

/// A replica built from `dir`'s checkpoint, before any record applies.
fn replica_of(dir: &Path) -> (Engine, Vec<WalRecord>) {
    let scan = toposem_wal::scan(dir).unwrap();
    let replica = Engine::replica_from_checkpoint(scan.meta, scan.snapshot).unwrap();
    (replica, scan.records)
}

/// A replicated commit applies whole or not at all. One op of the
/// transaction names an entity the schema lacks, so the `Commit` fails:
/// nothing of the transaction may land, the watermark stays on the
/// `Commit`, and a retry fails the same way instead of skipping it.
#[test]
fn a_replicated_commit_that_cannot_resolve_applies_nothing() {
    let dir = temp_dir("partial");
    drop(durable_engine(&dir, FlushPolicy::PerCommit));
    let (replica, _) = replica_of(&dir);
    let base = replica.applied_lsn();
    let op = |entity: &str| LogicalOp {
        entity: entity.into(),
        fields: vec![
            ("name".into(), Value::str("ann")),
            ("age".into(), Value::Int(40)),
            ("depname".into(), Value::str("sales")),
        ],
    };
    let records: Vec<WalRecord> = [
        WalEntry::Begin { txn: 7 },
        WalEntry::Insert {
            txn: 7,
            op: op("employee"),
        },
        WalEntry::Insert {
            txn: 7,
            op: op("starship"),
        },
        WalEntry::Commit { txn: 7 },
    ]
    .into_iter()
    .zip(base..)
    .map(|(entry, lsn)| WalRecord { lsn, entry })
    .collect();
    let stored = || replica.with_db(|db| db.total_stored());
    for rec in &records[..3] {
        replica.apply_replicated(rec).unwrap();
    }
    let before = stored();
    let commit = &records[3];
    assert!(replica.apply_replicated(commit).is_err());
    assert_eq!(stored(), before, "a failed commit must apply nothing");
    assert_eq!(replica.applied_lsn(), commit.lsn, "watermark moved past it");
    let stats = replica.statistics();
    replica.with_parts(|db, indexes| {
        let reference = Statistics::collect_reference(db, indexes);
        for e in db.schema().type_ids() {
            assert_eq!(stats.type_stats(e), reference.type_stats(e));
        }
    });
    assert!(
        replica.apply_replicated(commit).is_err(),
        "a retried commit must fail again, not be skipped"
    );
    assert_eq!(stored(), before);
    fs::remove_dir_all(&dir).unwrap();
}

/// Recovery counters count `Engine::recover` and `Engine::open` only:
/// one run and one duration sample, one replayed transaction per applied
/// `Commit`, one op per logged operation. A replica's bootstrap and
/// apply are no recovery.
#[test]
fn recovery_metrics_count_log_replays_not_replica_bootstraps() {
    let dir = temp_dir("metrics");
    let eng = durable_engine(&dir, FlushPolicy::PerCommit);
    // Three autocommitted transactions, one explicit one of two ops,
    // and a rolled-back one that replay must not count.
    for (n, a) in [("ann", 40), ("bob", 30), ("carol", 25)] {
        insert_employee(&eng, n, a, "sales");
    }
    eng.begin().unwrap();
    insert_employee(&eng, "dave", 45, "admin");
    insert_employee(&eng, "eve", 35, "admin");
    eng.commit().unwrap();
    eng.begin().unwrap();
    insert_employee(&eng, "ghost", 99, "admin");
    eng.rollback().unwrap();
    drop(eng);

    let recovery = |eng: &Engine| {
        let r = eng.metrics_snapshot().recovery;
        assert_eq!(r.duration_ns.count, r.runs, "one duration per run");
        assert!(r.runs == 0 || r.duration_ns.sum > 0);
        (r.runs, r.replayed_txns, r.replayed_ops)
    };
    assert_eq!(recovery(&Engine::recover(&dir).unwrap()), (1, 4, 5));
    let image = temp_dir("metrics-open");
    copy_dir(&dir, &image);
    let cfg = WalConfig {
        flush: FlushPolicy::PerCommit,
        segment_bytes: 2048,
    };
    assert_eq!(recovery(&Engine::open(&image, cfg).unwrap()), (1, 4, 5));

    let (replica, records) = replica_of(&dir);
    assert_eq!(recovery(&replica), (0, 0, 0));
    for rec in records.iter().chain(&records) {
        replica.apply_replicated(rec).unwrap();
    }
    assert_eq!(recovery(&replica), (0, 0, 0));
    // One per record applied; the second pass is below the watermark.
    let repl = replica.metrics_snapshot().repl;
    assert_eq!(repl.records_applied, records.len() as u64);
    assert_eq!(repl.applied_lsn, replica.applied_lsn());
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&image).unwrap();
}

/// Copies a log directory (the "crash image" the fuzzer mutates).
fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let p = entry.unwrap().path();
        fs::copy(&p, dst.join(p.file_name().unwrap())).unwrap();
    }
}

/// Torn-tail fuzz: truncate the log at *every byte offset of the final
/// record* and assert recovery always yields a prefix-consistent
/// database — the full state when the record survives whole, the state
/// without the final transaction for every cut inside it, and never
/// anything else (no error, no partial transaction).
#[test]
fn torn_tail_fuzz_recovers_a_consistent_prefix_at_every_offset() {
    let dir = temp_dir("fuzz-src");
    let eng = durable_engine(&dir, FlushPolicy::PerCommit);
    let shadow = Engine::new(fresh_db());
    for (n, a, d) in [("ann", 40, "sales"), ("bob", 30, "research")] {
        insert_employee(&eng, n, a, d);
        insert_employee(&shadow, n, a, d);
    }
    // Expected prefix state *without* the final transaction.
    let before_last = shadow.with_db(|db| snapshot::to_vec(db).unwrap());
    // The final transaction, whose Commit is the log's last record.
    insert_employee(&eng, "carol", 25, "admin");
    insert_employee(&shadow, "carol", 25, "admin");
    let with_last = shadow.with_db(|db| snapshot::to_vec(db).unwrap());
    drop(eng);

    // Locate the final record: the last segment's length minus the frame
    // of the final Commit. Recovery of the untouched image must see the
    // full state; every truncation inside the final record must fall
    // back to the previous committed prefix.
    let mut segs: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().ends_with(".wal"))
        .collect();
    segs.sort();
    let last_seg = segs.last().unwrap().clone();
    let full_len = fs::metadata(&last_seg).unwrap().len();
    // Find where the final record begins by scanning frame lengths.
    let bytes = fs::read(&last_seg).unwrap();
    let mut at = 20; // segment header
    let mut final_record_start = at;
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        final_record_start = at;
        at += 8 + len;
    }
    assert_eq!(at as u64, full_len, "frame walk must land on EOF");

    let mut fell_back = 0;
    for cut in final_record_start as u64..=full_len {
        let image = temp_dir("fuzz-image");
        copy_dir(&dir, &image);
        let f = fs::OpenOptions::new()
            .write(true)
            .open(image.join(last_seg.file_name().unwrap()))
            .unwrap();
        f.set_len(cut).unwrap();
        drop(f);
        let recovered =
            Engine::recover(&image).unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e}"));
        let state = recovered.with_db(|db| snapshot::to_vec(db).unwrap());
        if cut == full_len {
            assert_eq!(state, with_last, "untouched image must replay fully");
        } else {
            assert_eq!(
                state, before_last,
                "cut at byte {cut} (record starts at {final_record_start}) \
                 must yield the previous committed prefix"
            );
            fell_back += 1;
        }
        fs::remove_dir_all(&image).unwrap();
    }
    assert!(fell_back > 8, "the fuzz loop must exercise real cuts");
    fs::remove_dir_all(&dir).unwrap();
}

/// One randomly generated workload element.
#[derive(Clone, Debug)]
enum Op {
    /// Insert an employee (name, age, dep indices into small domains).
    Employee(usize, i64, usize),
    /// Insert a manager — exercises eager propagation replay.
    Manager(usize, i64, usize, i64),
    /// Delete a person by (name, age) — exercises cascade replay.
    DeletePerson(usize, i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..NAMES.len(), 0i64..5, 0..DEPS.len()).prop_map(|(n, a, d)| Op::Employee(n, a, d)),
        (0..NAMES.len(), 0i64..5, 0..DEPS.len(), 0i64..4)
            .prop_map(|(n, a, d, b)| Op::Manager(n, a, d, b)),
        (0..NAMES.len(), 0i64..5).prop_map(|(n, a)| Op::DeletePerson(n, a)),
    ]
}

/// Runs one workload op. An insert the declared FD rejects is part of
/// the workload: engine and shadow reject it alike.
fn apply_op(eng: &Engine, op: &Op) {
    let s = eng.with_db(|db| db.schema().clone());
    let res = match op {
        Op::Employee(n, a, d) => eng
            .insert(
                s.type_id("employee").unwrap(),
                &[
                    ("name", Value::str(NAMES[*n])),
                    ("age", Value::Int(*a)),
                    ("depname", Value::str(DEPS[*d])),
                ],
            )
            .map(drop),
        Op::Manager(n, a, d, b) => eng
            .insert(
                s.type_id("manager").unwrap(),
                &[
                    ("name", Value::str(NAMES[*n])),
                    ("age", Value::Int(*a)),
                    ("depname", Value::str(DEPS[*d])),
                    ("budget", Value::Int(*b)),
                ],
            )
            .map(drop),
        Op::DeletePerson(n, a) => {
            let person = s.type_id("person").unwrap();
            let t = eng.with_db(|db| {
                Instance::new(
                    db.schema(),
                    db.catalog(),
                    person,
                    &[("name", Value::str(NAMES[*n])), ("age", Value::Int(*a))],
                )
                .unwrap()
            });
            eng.delete(person, &t).map(drop)
        }
    };
    match res {
        Ok(()) | Err(EngineError::FdViolation(_)) => {}
        Err(e) => panic!("{op:?} failed: {e}"),
    }
}

/// The employee indexes the workload toggles: hash on `depname`,
/// ordered on `age`, composite on `(depname, name)`.
fn employee_index(eng: &Engine, which: usize) -> (TypeId, IndexKind, Vec<AttrId>) {
    eng.with_db(|db| {
        let s = db.schema();
        let attr = |a| s.attr_id(a).unwrap();
        let (kind, attrs) = [
            (IndexKind::Hash, vec![attr("depname")]),
            (IndexKind::Ordered, vec![attr("age")]),
            (IndexKind::Composite, vec![attr("depname"), attr("name")]),
        ][which]
            .clone();
        (s.type_id("employee").unwrap(), kind, attrs)
    })
}

/// Drops employee index `which` when it exists, creates it otherwise.
fn toggle_index(eng: &Engine, which: usize) {
    let (employee, kind, attrs) = employee_index(eng, which);
    if !eng.drop_index(employee, kind, &attrs).unwrap() {
        eng.create_index_of(employee, kind, &attrs).unwrap();
    }
}

/// `fd(person, employee, employee)`: name and age determine depname.
fn name_age_determine_depname(eng: &Engine) -> Fd {
    eng.with_db(|db| {
        let s = db.schema();
        let gen = GeneralisationTopology::of_schema(s);
        let (person, employee) = (s.type_id("person").unwrap(), s.type_id("employee").unwrap());
        Fd::new(&gen, person, employee, employee).unwrap()
    })
}

proptest! {
    /// The recovery oracle: for a random workload of transactions — each
    /// committed, rolled back, or committed-then-checkpointed — and of
    /// index and FD DDL, every way of building an engine from the log
    /// (`recover`, `open`, and a replica fed through `apply_replicated`)
    /// equals a shadow in-memory engine that executed only the committed
    /// work: same snapshot bytes, same index definitions, containment
    /// intact, and the declared FD enforced after recovery. Runs under
    /// both flush policies that allow deterministic on-disk state at drop
    /// time.
    #[test]
    fn recovery_equals_shadow_for_random_committed_workloads(
        txns in prop::collection::vec(
            (prop::collection::vec(op_strategy(), 1..4), 0u8..8),
            1..10,
        ),
    ) {
        for flush in [FlushPolicy::PerCommit, FlushPolicy::NoSync] {
            let dir = temp_dir("oracle");
            let eng = durable_engine(&dir, flush);
            let shadow = Engine::new(fresh_db());
            let mut fd_declared = false;
            for (ops, fate) in &txns {
                // fate: 0 = autocommit ops, 1 = explicit commit,
                // 2 = rollback, 3 = commit then checkpoint; 4..=6 toggle
                // an employee index, 7 declares the FD (its ops unused).
                match fate {
                    0 => {
                        for op in ops {
                            apply_op(&eng, op);
                            apply_op(&shadow, op);
                        }
                    }
                    2 => {
                        eng.begin().unwrap();
                        for op in ops {
                            apply_op(&eng, op);
                        }
                        eng.rollback().unwrap();
                    }
                    4..=6 => {
                        toggle_index(&eng, usize::from(fate - 4));
                        toggle_index(&shadow, usize::from(fate - 4));
                    }
                    7 => {
                        let declared = eng.declare_fd(name_age_determine_depname(&eng)).is_ok();
                        let shadowed = shadow.declare_fd(name_age_determine_depname(&shadow)).is_ok();
                        prop_assert_eq!(declared, shadowed);
                        fd_declared |= declared;
                    }
                    _ => {
                        eng.begin().unwrap();
                        for op in ops {
                            apply_op(&eng, op);
                        }
                        eng.commit().unwrap();
                        for op in ops {
                            apply_op(&shadow, op);
                        }
                        if *fate == 3 {
                            eng.checkpoint().unwrap();
                        }
                    }
                }
            }
            drop(eng);

            let recovered = Engine::recover(&dir).unwrap();
            let image = temp_dir("oracle-open");
            copy_dir(&dir, &image);
            let reopened = Engine::open(&image, WalConfig { flush, segment_bytes: 2048 }).unwrap();
            let (replica, records) = replica_of(&dir);
            for rec in &records {
                replica.apply_replicated(rec).unwrap();
            }
            let want = shadow.with_db(|db| snapshot::to_vec(db).unwrap());
            for (how, built) in [("recover", &recovered), ("open", &reopened), ("replica", &replica)] {
                let got = built.with_db(|db| snapshot::to_vec(db).unwrap());
                prop_assert_eq!(&got, &want, "{}: workload {:?} under {:?}", how, txns, flush);
                for e in shadow.with_db(|db| db.schema().type_ids().collect::<Vec<_>>()) {
                    prop_assert_eq!(built.index_defs(e), shadow.index_defs(e), "{}: indexes", how);
                }
                let violations = built.with_db(|db| db.verify_containment());
                prop_assert!(violations.is_empty(), "{}: {:?}", how, violations);
            }
            // A fresh employee, then the same name and age in another
            // department: rejected exactly when the FD was declared.
            let (employee, _, _) = employee_index(&recovered, 0);
            let row = |d| [("name", Value::str("zed")), ("age", Value::Int(1)), ("depname", Value::str(d))];
            recovered.insert(employee, &row("sales")).unwrap();
            let second = recovered.insert(employee, &row("admin"));
            prop_assert_eq!(
                matches!(second, Err(EngineError::FdViolation(_))),
                fd_declared,
                "{:?}",
                second
            );
            drop(reopened);
            fs::remove_dir_all(&image).unwrap();
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}
