//! Format pins: the on-disk bytes of snapshots, checkpoints, and WAL
//! segments must not change when the in-memory representation does.
//!
//! The files under `tests/golden/` were written by the build *before*
//! rows became shared handles and relations copy-on-write (PR 21):
//!
//! - `eager.snap` / `ondemand.snap`: `snapshot::to_vec` of
//!   [`fixed_database`] under each containment policy;
//! - `wal/`: a log directory (checkpoint + segments) written by
//!   [`write_fixed_log`], crash included — an open transaction whose
//!   records reached disk without a `Commit`;
//! - `wal_recovered.snap`: `snapshot::to_vec` of what that build
//!   recovered from `wal/`.
//!
//! This build must reproduce the snapshot bytes exactly, load the old
//! snapshots, and recover the old log to the same state.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use toposem_core::{employee_schema, GeneralisationTopology, Intension, TypeId};
use toposem_extension::{ContainmentPolicy, Database, DomainCatalog, Instance, Value};
use toposem_fd::Fd;
use toposem_storage::{snapshot, Engine, EngineError, IndexKind};
use toposem_wal::{FlushPolicy, Wal, WalConfig};

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "toposem-golden-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn ty(db: &Database, name: &str) -> TypeId {
    db.schema().type_id(name).unwrap()
}

fn manager(n: &str, a: i64, d: &str, b: i64) -> Vec<(&'static str, Value)> {
    vec![
        ("name", Value::str(n)),
        ("age", Value::Int(a)),
        ("depname", Value::str(d)),
        ("budget", Value::Int(b)),
    ]
}

fn employee(n: &str, a: i64, d: &str) -> Vec<(&'static str, Value)> {
    vec![
        ("name", Value::str(n)),
        ("age", Value::Int(a)),
        ("depname", Value::str(d)),
    ]
}

/// Every value variant the employee schema admits, a string needing
/// escapes, a negative integer, every entity type populated, and one
/// cascading delete.
fn fixed_database(policy: ContainmentPolicy) -> Database {
    let mut db = Database::new(
        Intension::analyse(employee_schema()),
        DomainCatalog::employee_defaults(),
        policy,
    );
    for (d, l) in [
        ("sales", "amsterdam"),
        ("research", "utrecht"),
        ("admin", "utrecht"),
    ] {
        let department = ty(&db, "department");
        db.insert_fields(
            department,
            &[("depname", Value::str(d)), ("location", Value::str(l))],
        )
        .unwrap();
    }
    for (n, a, d, b) in [("ann", 40, "sales", 100), ("bob", 30, "research", -7)] {
        let m = ty(&db, "manager");
        db.insert_fields(m, &manager(n, a, d, b)).unwrap();
    }
    for (n, a, d) in [
        ("carol", 25, "admin"),
        ("d\"q\\e\nf \u{2603}", 0, "sales"),
        ("eve", 150, "research"),
    ] {
        let e = ty(&db, "employee");
        db.insert_fields(e, &employee(n, a, d)).unwrap();
    }
    let worksfor = ty(&db, "worksfor");
    db.insert_fields(
        worksfor,
        &[
            ("name", Value::str("carol")),
            ("age", Value::Int(25)),
            ("depname", Value::str("admin")),
            ("location", Value::str("utrecht")),
        ],
    )
    .unwrap();
    let person = ty(&db, "person");
    db.insert_fields(
        person,
        &[("name", Value::str("zed")), ("age", Value::Int(99))],
    )
    .unwrap();
    let bob = Instance::new(
        db.schema(),
        db.catalog(),
        person,
        &[("name", Value::str("bob")), ("age", Value::Int(30))],
    )
    .unwrap();
    db.delete(person, &bob);
    db
}

/// Writes the fixed log into `dir` (how `golden/wal/` was made): index
/// DDL, a declared FD, committed
/// autocommit and explicit transactions (cascading delete included), a
/// checkpoint in the middle, a rolled-back transaction, an index drop,
/// and finally an open transaction whose records are synced but never
/// committed — then the engine is dropped (the crash).
fn write_fixed_log(dir: &Path) {
    let cfg = WalConfig {
        flush: FlushPolicy::PerCommit,
        segment_bytes: 2048,
    };
    let eng = Engine::durable(
        fixed_database(ContainmentPolicy::Eager),
        Wal::create(dir, cfg).unwrap(),
    )
    .unwrap();
    let (e, m, p, w) = eng.with_db(|db| {
        (
            ty(db, "employee"),
            ty(db, "manager"),
            ty(db, "person"),
            ty(db, "worksfor"),
        )
    });
    let (name, age, depname) = eng.with_db(|db| {
        let s = db.schema();
        (
            s.attr_id("name").unwrap(),
            s.attr_id("age").unwrap(),
            s.attr_id("depname").unwrap(),
        )
    });
    eng.create_index(e, name).unwrap();
    eng.create_ord_index(e, age).unwrap();
    eng.create_composite_index(e, &[depname, name]).unwrap();
    let fd = eng.with_db(|db| {
        let s = db.schema();
        Fd::new(
            &GeneralisationTopology::of_schema(s),
            e,
            ty(db, "department"),
            w,
        )
        .unwrap()
    });
    eng.declare_fd(fd).unwrap();
    for i in 0..6 {
        eng.insert(e, &employee(&format!("w{i}"), 20 + i, "sales"))
            .unwrap();
    }
    eng.insert(m, &manager("gus", 50, "admin", 12)).unwrap();
    eng.checkpoint().unwrap();
    eng.begin().unwrap();
    for i in 6..10 {
        eng.insert(e, &employee(&format!("w{i}"), 20 + i, "research"))
            .unwrap();
    }
    let gus = eng.with_db(|db| {
        Instance::new(
            db.schema(),
            db.catalog(),
            p,
            &[("name", Value::str("gus")), ("age", Value::Int(50))],
        )
        .unwrap()
    });
    assert_eq!(eng.delete(p, &gus).unwrap(), 3);
    eng.commit().unwrap();
    eng.begin().unwrap();
    eng.insert(e, &employee("ghost", 1, "admin")).unwrap();
    eng.rollback().unwrap();
    assert!(eng
        .drop_index(e, IndexKind::Composite, &[depname, name])
        .unwrap());
    eng.insert(
        w,
        &[
            ("name", Value::str("w1")),
            ("age", Value::Int(21)),
            ("depname", Value::str("sales")),
            ("location", Value::str("amsterdam")),
        ],
    )
    .unwrap();
    let w0 = eng.with_db(|db| {
        Instance::new(db.schema(), db.catalog(), e, &employee("w0", 20, "sales")).unwrap()
    });
    assert_eq!(eng.delete(e, &w0).unwrap(), 1);
    eng.begin().unwrap();
    eng.insert(e, &employee("crash", 2, "admin")).unwrap();
    eng.sync().unwrap();
    drop(eng);
}

fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let p = entry.unwrap().path();
        fs::copy(&p, dst.join(p.file_name().unwrap())).unwrap();
    }
}

#[test]
fn snapshot_bytes_match_the_parent_format() {
    for (policy, file) in [
        (ContainmentPolicy::Eager, "eager.snap"),
        (ContainmentPolicy::OnDemand, "ondemand.snap"),
    ] {
        let db = fixed_database(policy);
        let want = fs::read(golden(file)).unwrap();
        let got = snapshot::to_vec(&db).unwrap();
        assert!(
            got == want,
            "{file}: snapshot bytes changed\n got: {}\nwant: {}",
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&want)
        );
        // The old bytes load into an equal database that re-saves to
        // the same bytes.
        let back = snapshot::load(&want[..]).unwrap();
        for e in db.schema().type_ids() {
            assert_eq!(back.stored(e), db.stored(e));
            assert_eq!(back.extension(e), db.extension(e));
        }
        assert_eq!(snapshot::to_vec(&back).unwrap(), want);
        assert!(back.verify_containment().is_empty());
    }
}

#[test]
fn this_build_writes_the_same_checkpoint_and_segment_bytes() {
    let dir = temp_dir("rewrite");
    write_fixed_log(&dir);
    let mut files: Vec<PathBuf> = fs::read_dir(golden("wal"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    let mut ours: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    ours.sort();
    let names = |v: &[PathBuf]| -> Vec<_> {
        v.iter()
            .map(|p| p.file_name().unwrap().to_owned())
            .collect()
    };
    assert_eq!(
        names(&ours),
        names(&files),
        "same checkpoint and segment files"
    );
    for want in &files {
        let got = fs::read(dir.join(want.file_name().unwrap())).unwrap();
        assert!(
            got == fs::read(want).unwrap(),
            "{} differs from the golden bytes",
            want.display()
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_log_written_by_the_parent_build_still_recovers() {
    let image = temp_dir("wal");
    copy_dir(&golden("wal"), &image);
    let recovered = Engine::recover(&image).unwrap();
    let want = fs::read(golden("wal_recovered.snap")).unwrap();
    let got = recovered.with_db(|db| snapshot::to_vec(db).unwrap());
    assert!(
        got == want,
        "recovered state changed\n got: {}\nwant: {}",
        String::from_utf8_lossy(&got),
        String::from_utf8_lossy(&want)
    );
    let (e, w, name, age) = recovered.with_db(|db| {
        let s = db.schema();
        (
            ty(db, "employee"),
            ty(db, "worksfor"),
            s.attr_id("name").unwrap(),
            s.attr_id("age").unwrap(),
        )
    });
    // Index DDL replays in log order (the composite was dropped), and
    // the rebuilt indexes serve lookups.
    assert_eq!(
        recovered.index_defs(e),
        vec![
            (IndexKind::Hash, vec![name]),
            (IndexKind::Ordered, vec![age])
        ]
    );
    assert_eq!(recovered.lookup(e, name, &Value::str("w5")).len(), 1);
    assert!(recovered.lookup(e, name, &Value::str("crash")).is_empty());
    assert!(recovered.lookup(e, name, &Value::str("ghost")).is_empty());
    // The declared FD came back with it.
    assert!(matches!(
        recovered.insert(
            w,
            &[
                ("name", Value::str("w1")),
                ("age", Value::Int(21)),
                ("depname", Value::str("sales")),
                ("location", Value::str("utrecht")),
            ],
        ),
        Err(EngineError::FdViolation(_))
    ));
    recovered.with_db(|db| assert!(db.verify_containment().is_empty()));
    // Reopening the old directory for writing works too.
    let cfg = WalConfig {
        flush: FlushPolicy::PerCommit,
        segment_bytes: 2048,
    };
    let reopened = Engine::open(&image, cfg).unwrap();
    reopened.insert(e, &employee("after", 3, "admin")).unwrap();
    drop(reopened);
    let again = Engine::recover(&image).unwrap();
    assert_eq!(again.lookup(e, name, &Value::str("after")).len(), 1);
    fs::remove_dir_all(&image).unwrap();
}
