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
//! The files below were written by the build *before* the JSON codec
//! stopped going through an intermediate tree, to pin every escape,
//! integer extreme, and log entry kind the codec handles:
//!
//! - `strings.snap`: `snapshot::to_vec` of [`strings_database`], whose
//!   strings hold every character class the writer escapes or passes
//!   through ([`TRICKY`]) and whose integers reach `i64::MIN`/`MAX`;
//! - `every_entry/`: a log directory written by [`write_every_entry_log`],
//!   holding every [`WalEntry`] variant with those strings in its ops;
//! - `every_entry_recovered.snap`: what that build recovered from it;
//! - `records.wal`: the frames [`encode_record`] makes of
//!   [`extreme_records`] — every variant again, LSNs and transaction ids
//!   above `i64::MAX`, booleans, and the strings in every name position.
//!
//! This build must reproduce the snapshot bytes exactly, load the old
//! snapshots, and recover the old log to the same state.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use toposem_core::{employee_schema, GeneralisationTopology, Intension, TypeId};
use toposem_extension::{ContainmentPolicy, Database, DomainCatalog, Instance, LogicalOp, Value};
use toposem_fd::Fd;
use toposem_storage::{snapshot, Engine, EngineError, IndexKind};
use toposem_wal::record::encode_record;
use toposem_wal::{
    decode_record, Decoded, FlushPolicy, IndexDef, IndexKindDef, Wal, WalConfig, WalEntry,
    WalRecord,
};

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

/// One string per character class the JSON writer treats specially —
/// each escape it emits, the control characters it spells as `\u00XX`,
/// and the ones it must pass through untouched — plus the empty string.
const TRICKY: [&str; 11] = [
    "q\"uote",
    "back\\slash",
    "new\nline",
    "tab\there",
    "cr\rreturn",
    "nul\0byte",
    "ctl\u{1}\u{8}\u{b}\u{c}\u{1f}",
    "del\u{7f}",
    "caf\u{e9} \u{2603}",
    "crab \u{1f980}",
    "",
];

/// A person per [`TRICKY`] string and two managers whose budgets are
/// `i64::MIN` and `i64::MAX`.
fn strings_database() -> Database {
    let mut db = Database::new(
        Intension::analyse(employee_schema()),
        DomainCatalog::employee_defaults(),
        ContainmentPolicy::Eager,
    );
    let person = ty(&db, "person");
    for (i, s) in TRICKY.iter().enumerate() {
        db.insert_fields(
            person,
            &[("name", Value::str(s)), ("age", Value::Int(i as i64))],
        )
        .unwrap();
    }
    let m = ty(&db, "manager");
    db.insert_fields(m, &manager("min\u{1f980}", 1, "sales", i64::MIN))
        .unwrap();
    db.insert_fields(m, &manager("max\t", 2, "admin", i64::MAX))
        .unwrap();
    db
}

/// Writes a log holding every [`WalEntry`] variant into `dir` (how
/// `golden/every_entry/` was made): the initial `Checkpoint`, index and
/// FD DDL, a committed transaction of [`TRICKY`]-named inserts and a
/// cascading delete, an `Abort`, a `DropIndex`, autocommitted extreme
/// budgets, and a crash inside an open transaction.
fn write_every_entry_log(dir: &Path) {
    let cfg = WalConfig {
        flush: FlushPolicy::PerCommit,
        segment_bytes: 1 << 20,
    };
    let empty = Database::new(
        Intension::analyse(employee_schema()),
        DomainCatalog::employee_defaults(),
        ContainmentPolicy::Eager,
    );
    let eng = Engine::durable(empty, Wal::create(dir, cfg).unwrap()).unwrap();
    let (e, m, p, w, d) = eng.with_db(|db| {
        (
            ty(db, "employee"),
            ty(db, "manager"),
            ty(db, "person"),
            ty(db, "worksfor"),
            ty(db, "department"),
        )
    });
    let name = eng.with_db(|db| db.schema().attr_id("name").unwrap());
    eng.create_index(e, name).unwrap();
    let fd = eng
        .with_db(|db| Fd::new(&GeneralisationTopology::of_schema(db.schema()), e, d, w).unwrap());
    eng.declare_fd(fd).unwrap();
    eng.begin().unwrap();
    for (i, s) in TRICKY.iter().enumerate() {
        eng.insert(e, &employee(s, i as i64, "research")).unwrap();
    }
    let victim = eng.with_db(|db| {
        Instance::new(
            db.schema(),
            db.catalog(),
            p,
            &[("name", Value::str(TRICKY[2])), ("age", Value::Int(2))],
        )
        .unwrap()
    });
    assert_eq!(eng.delete(p, &victim).unwrap(), 2);
    eng.commit().unwrap();
    eng.begin().unwrap();
    eng.insert(e, &employee("rolled\u{0}back", 3, "admin"))
        .unwrap();
    eng.rollback().unwrap();
    assert!(eng.drop_index(e, IndexKind::Hash, &[name]).unwrap());
    eng.insert(m, &manager("min", 4, "sales", i64::MIN))
        .unwrap();
    eng.insert(m, &manager("max", 5, "admin", i64::MAX))
        .unwrap();
    eng.begin().unwrap();
    eng.insert(e, &employee("crash\u{7f}", 6, "sales")).unwrap();
    eng.sync().unwrap();
    drop(eng);
}

fn tricky_op(entity: &str) -> LogicalOp {
    let mut fields: Vec<(String, Value)> = vec![
        ("min".into(), Value::Int(i64::MIN)),
        ("max".into(), Value::Int(i64::MAX)),
        ("zero".into(), Value::Int(0)),
        ("yes".into(), Value::Bool(true)),
        ("no".into(), Value::Bool(false)),
    ];
    for s in TRICKY {
        fields.push((s.to_owned(), Value::str(s)));
    }
    LogicalOp {
        entity: entity.to_owned(),
        fields,
    }
}

/// Every [`WalEntry`] variant, stamped with LSNs that climb past
/// `i64::MAX` to `u64::MAX`, carrying transaction ids at the same
/// extremes and [`TRICKY`] strings in every name position.
fn extreme_records() -> Vec<WalRecord> {
    let big = u64::MAX;
    let def = |kind, entity: &str| IndexDef {
        entity: entity.to_owned(),
        kind,
        attrs: TRICKY.iter().map(|s| s.to_string()).collect(),
    };
    let entries = vec![
        WalEntry::Begin { txn: big },
        WalEntry::Insert {
            txn: big,
            op: tricky_op(TRICKY[0]),
        },
        WalEntry::Delete {
            txn: i64::MAX as u64 + 1,
            op: tricky_op(TRICKY[9]),
        },
        WalEntry::Commit { txn: big },
        WalEntry::Abort { txn: 0 },
        WalEntry::Checkpoint { next_txn: big },
        WalEntry::CreateIndex {
            def: def(IndexKindDef::Composite, TRICKY[6]),
        },
        WalEntry::DropIndex {
            def: def(IndexKindDef::Ordered, TRICKY[5]),
        },
        WalEntry::CreateIndex {
            def: def(IndexKindDef::Hash, ""),
        },
        WalEntry::DeclareFd {
            lhs: TRICKY[1].to_owned(),
            rhs: TRICKY[8].to_owned(),
            context: TRICKY[10].to_owned(),
        },
    ];
    let first = i64::MAX as u64 - 4;
    let n = entries.len() as u64;
    entries
        .into_iter()
        .enumerate()
        .map(|(i, entry)| WalRecord {
            lsn: if i as u64 + 1 == n {
                big
            } else {
                first + i as u64
            },
            entry,
        })
        .collect()
}

#[test]
fn escapes_and_integer_extremes_keep_their_snapshot_bytes() {
    let db = strings_database();
    let want = fs::read(golden("strings.snap")).unwrap();
    let got = snapshot::to_vec(&db).unwrap();
    assert!(
        got == want,
        "strings.snap: snapshot bytes changed\n got: {}\nwant: {}",
        String::from_utf8_lossy(&got),
        String::from_utf8_lossy(&want)
    );
    let back = snapshot::load(&want[..]).unwrap();
    for e in db.schema().type_ids() {
        assert_eq!(back.stored(e), db.stored(e));
    }
    assert_eq!(snapshot::to_vec(&back).unwrap(), want);
}

#[test]
fn every_entry_kind_keeps_its_log_bytes_and_recovers_the_same() {
    let dir = temp_dir("every-entry");
    write_every_entry_log(&dir);
    let mut files: Vec<PathBuf> = fs::read_dir(golden("every_entry"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    let mut ours: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    ours.sort();
    let names: Vec<_> = files
        .iter()
        .map(|p| p.file_name().unwrap().to_owned())
        .collect();
    assert_eq!(ours, names, "same checkpoint and segment files");
    for want in &files {
        let got = fs::read(dir.join(want.file_name().unwrap())).unwrap();
        assert!(
            got == fs::read(want).unwrap(),
            "{} differs from the golden bytes",
            want.display()
        );
    }
    fs::remove_dir_all(&dir).unwrap();

    // Every variant is really in there.
    let image = temp_dir("every-entry-image");
    copy_dir(&golden("every_entry"), &image);
    let scan = toposem_wal::scan(&image).unwrap();
    let mut kinds: Vec<&str> = scan
        .records
        .iter()
        .map(|r| match r.entry {
            WalEntry::Begin { .. } => "Begin",
            WalEntry::Insert { .. } => "Insert",
            WalEntry::Delete { .. } => "Delete",
            WalEntry::Commit { .. } => "Commit",
            WalEntry::Abort { .. } => "Abort",
            WalEntry::Checkpoint { .. } => "Checkpoint",
            WalEntry::CreateIndex { .. } => "CreateIndex",
            WalEntry::DropIndex { .. } => "DropIndex",
            WalEntry::DeclareFd { .. } => "DeclareFd",
        })
        .collect();
    kinds.sort();
    kinds.dedup();
    assert_eq!(kinds.len(), 9, "every WalEntry variant: {kinds:?}");

    let recovered = Engine::recover(&image).unwrap();
    let want = fs::read(golden("every_entry_recovered.snap")).unwrap();
    let got = recovered.with_db(|db| snapshot::to_vec(db).unwrap());
    assert!(
        got == want,
        "recovered state changed\n got: {}\nwant: {}",
        String::from_utf8_lossy(&got),
        String::from_utf8_lossy(&want)
    );
    let (e, name) =
        recovered.with_db(|db| (ty(db, "employee"), db.schema().attr_id("name").unwrap()));
    assert!(recovered.index_defs(e).is_empty(), "the index was dropped");
    for (i, s) in TRICKY.iter().enumerate() {
        let rows = recovered.with_db(|db| {
            db.stored(e)
                .iter()
                .filter(|t| t.get(name) == Some(&Value::str(s)))
                .count()
        });
        assert_eq!(rows, usize::from(i != 2), "employee {s:?}");
    }
    recovered.with_db(|db| assert!(db.verify_containment().is_empty()));
    fs::remove_dir_all(&image).unwrap();
}

#[test]
fn extreme_records_keep_their_frame_bytes() {
    let recs = extreme_records();
    let mut got = Vec::new();
    for rec in &recs {
        got.extend_from_slice(&encode_record(rec).unwrap());
    }
    let want = fs::read(golden("records.wal")).unwrap();
    assert!(
        got == want,
        "records.wal: frame bytes changed\n got: {}\nwant: {}",
        String::from_utf8_lossy(&got),
        String::from_utf8_lossy(&want)
    );
    let mut at = 0;
    let mut back = Vec::new();
    loop {
        match decode_record(&want, at) {
            Decoded::Record { rec, next } => {
                back.push(rec);
                at = next;
            }
            Decoded::End => break,
            Decoded::Torn(why) => panic!("golden frame at {at} torn: {why}"),
        }
    }
    assert_eq!(back, recs);
}
