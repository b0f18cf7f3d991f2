//! The copy-on-write oracle: snapshots share relations, indexes, and
//! rows with the live engine, statistics are carried across epochs, and
//! deletes cascade by range — none of which may be observable.
//!
//! Random sequences of inserts, deletes, `begin`/`commit`/`rollback`,
//! and index DDL run against a durable engine under both containment
//! policies, with snapshots pinned at random steps. After every step:
//!
//! - (a) every pinned snapshot still equals the deep copy taken when it
//!   was pinned — relations and index contents alike;
//! - (b) the engine's carried statistics, and every pinned snapshot's,
//!   equal a from-scratch [`Statistics::collect_reference`] field by
//!   field for every type;
//! - (c) the engine's relations equal a shadow database maintained with
//!   the scan cascade (every tuple of every specialisation projected and
//!   compared), and every delete removes as many tuples; at the end the
//!   same holds for `Engine::recover` and for a replica fed through
//!   `apply_replicated`;
//! - (d) `verify_containment` is empty.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use toposem_core::{employee_schema, AttrId, Intension, TypeId};
use toposem_extension::{ContainmentPolicy, Database, DomainCatalog, Instance, Value};
use toposem_storage::{Engine, EngineError, EngineSnapshot, Index, IndexKind, Statistics};
use toposem_wal::{FlushPolicy, Wal, WalConfig};

const NAMES: [&str; 4] = ["ann", "bob", "cy", "di"];
const DEPS: [&str; 3] = ["sales", "research", "admin"];
const LOCS: [&str; 2] = ["amsterdam", "utrecht"];
const TYPES: [&str; 5] = ["employee", "person", "department", "manager", "worksfor"];

fn temp_dir() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "toposem-cow-oracle-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Field values drawn from small domains, so deletes find victims and
/// inserts collide.
#[derive(Clone, Copy, Debug)]
struct Row {
    ty: usize,
    name: usize,
    age: i64,
    dep: usize,
    loc: usize,
    budget: i64,
}

#[derive(Clone, Debug)]
enum Op {
    Insert(Row),
    Delete(Row),
    Begin,
    Commit,
    Rollback,
    /// Creates an index of kind `k % 3` on type `ty` over attributes
    /// picked from the type's own by the two seeds.
    CreateIndex {
        ty: usize,
        k: usize,
        a: usize,
        b: usize,
    },
    /// Drops the `slot`-th live index of `ty`, when it has any.
    DropIndex {
        ty: usize,
        slot: usize,
    },
    Pin,
    Unpin(usize),
}

fn row() -> impl Strategy<Value = Row> {
    (
        0..TYPES.len(),
        0..NAMES.len(),
        0i64..4,
        0..DEPS.len(),
        0..LOCS.len(),
        0i64..3,
    )
        .prop_map(|(ty, name, age, dep, loc, budget)| Row {
            ty,
            name,
            age,
            dep,
            loc,
            budget,
        })
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        row().prop_map(Op::Insert),
        row().prop_map(Op::Insert),
        row().prop_map(Op::Insert),
        row().prop_map(Op::Delete),
        row().prop_map(Op::Delete),
        Just(Op::Begin),
        Just(Op::Commit),
        Just(Op::Rollback),
        (0..TYPES.len(), 0usize..3, 0usize..4, 0usize..4)
            .prop_map(|(ty, k, a, b)| Op::CreateIndex { ty, k, a, b }),
        (0..TYPES.len(), 0usize..3).prop_map(|(ty, slot)| Op::DropIndex { ty, slot }),
        Just(Op::Pin),
        (0usize..4).prop_map(Op::Unpin),
    ]
}

fn ty(db: &Database, i: usize) -> TypeId {
    db.schema().type_id(TYPES[i]).unwrap()
}

/// The instance of `r.ty` the row describes: only the type's own
/// attributes are taken.
fn instance(db: &Database, r: &Row) -> (TypeId, Instance) {
    let e = ty(db, r.ty);
    let s = db.schema();
    let fields: Vec<(&str, Value)> = [
        ("name", Value::str(NAMES[r.name])),
        ("age", Value::Int(r.age)),
        ("depname", Value::str(DEPS[r.dep])),
        ("location", Value::str(LOCS[r.loc])),
        ("budget", Value::Int(r.budget)),
    ]
    .into_iter()
    .filter(|(a, _)| s.attrs_of(e).contains(s.attr_id(a).unwrap().index()))
    .collect();
    let t = Instance::new(s, db.catalog(), e, &fields).unwrap();
    (e, t)
}

fn named_fields(t: &Instance, db: &Database) -> Vec<(String, Value)> {
    t.fields()
        .iter()
        .map(|(a, v)| (db.schema().attr_name(*a).to_owned(), v.clone()))
        .collect()
}

/// The cascade as it was before range-scoped deletes: remove `t` from
/// `R_e`, then project every tuple of every specialisation and remove
/// those landing on `t`. The reference the engine's cascade must match.
fn scan_delete(db: &mut Database, e: TypeId, t: &Instance) -> usize {
    let mut removed = usize::from(db.stored_remove(e, t));
    let ae = db.schema().attrs_of(e).clone();
    let specs: Vec<TypeId> = db
        .schema()
        .type_ids()
        .filter(|&s| s != e && db.intension().specialisation().is_specialisation(s, e))
        .collect();
    for s in specs {
        let victims: Vec<Instance> = db
            .stored(s)
            .iter()
            .filter(|u| u.project(&ae) == *t)
            .cloned()
            .collect();
        for u in &victims {
            db.stored_remove(s, u);
        }
        removed += victims.len();
    }
    removed
}

/// Every entry of an index, as a sorted multiset of fresh (unshared)
/// instances.
fn index_entries(idx: &Index) -> Vec<Instance> {
    let mut out: Vec<Instance> = match idx {
        Index::Hash(h) => h.keys().flat_map(|k| h.group(k).to_vec()).collect(),
        Index::Ord(o) => o.keys().flat_map(|k| o.group(k).to_vec()).collect(),
        Index::Composite(c) => c.keys().flat_map(|k| c.group(k).to_vec()).collect(),
    };
    out.sort();
    out.into_iter().map(|t| deep(&t)).collect()
}

/// A copy of `t` sharing nothing with it.
fn deep(t: &Instance) -> Instance {
    Instance::from_parts(t.fields().to_vec())
}

/// One index as a reader sees it: definition, length, and entries.
type IndexImage = (IndexKind, Vec<AttrId>, usize, Vec<Instance>);

/// A deep copy of what a reader can see: every stored relation and
/// every index.
#[derive(Debug, PartialEq)]
struct Image {
    relations: Vec<Vec<Instance>>,
    indexes: Vec<Vec<IndexImage>>,
}

impl Image {
    fn of(db: &Database, indexes: &[Vec<Index>]) -> Image {
        Image {
            relations: db
                .schema()
                .type_ids()
                .map(|e| db.stored(e).iter().map(deep).collect())
                .collect(),
            indexes: indexes
                .iter()
                .map(|ixs| {
                    ixs.iter()
                        .map(|i| (i.kind(), i.attrs(), i.len(), index_entries(i)))
                        .collect()
                })
                .collect(),
        }
    }

    fn of_snapshot(s: &EngineSnapshot) -> Image {
        Image::of(s.db(), s.indexes())
    }
}

fn same_relations(a: &Database, b: &Database) -> bool {
    a.schema().type_ids().all(|e| a.stored(e) == b.stored(e))
}

/// (b): carried statistics equal the reference collector's, field by
/// field, for every type.
fn check_statistics(
    carried: &Statistics,
    db: &Database,
    indexes: &[Vec<Index>],
    what: &str,
) -> Result<(), TestCaseError> {
    let reference = Statistics::collect_reference(db, indexes);
    for e in db.schema().type_ids() {
        prop_assert_eq!(
            carried.type_stats(e),
            reference.type_stats(e),
            "{}: statistics of {} diverged",
            what,
            db.schema().type_name(e)
        );
    }
    Ok(())
}

fn run(policy: ContainmentPolicy, ops: &[Op]) -> Result<(), TestCaseError> {
    let dir = temp_dir();
    let fresh = || {
        Database::new(
            Intension::analyse(employee_schema()),
            DomainCatalog::employee_defaults(),
            policy,
        )
    };
    let cfg = WalConfig {
        flush: FlushPolicy::NoSync,
        segment_bytes: 4096,
    };
    let eng = Engine::durable(fresh(), Wal::create(&dir, cfg).unwrap()).unwrap();
    // Current state (uncommitted writes included) via the scan cascade,
    // and the committed state while a transaction is open.
    let mut shadow = fresh();
    let mut at_begin: Option<Database> = None;
    let mut pinned: Vec<(Arc<EngineSnapshot>, Image)> = Vec::new();
    for (step, op) in ops.iter().enumerate() {
        let what = format!("{policy:?} step {step} {op:?}");
        match op {
            Op::Insert(r) => {
                let (e, t) = instance(&shadow, r);
                let fields = named_fields(&t, &shadow);
                let fields: Vec<(&str, Value)> = fields
                    .iter()
                    .map(|(a, v)| (a.as_str(), v.clone()))
                    .collect();
                let fresh_here = eng.insert(e, &fields).unwrap();
                prop_assert_eq!(fresh_here, shadow.insert(e, t), "{}", what);
            }
            Op::Delete(r) => {
                let (e, t) = instance(&shadow, r);
                let removed = eng.delete(e, &t).unwrap();
                prop_assert_eq!(removed, scan_delete(&mut shadow, e, &t), "{}", what);
            }
            Op::Begin => match eng.begin() {
                Ok(()) => at_begin = Some(shadow.clone()),
                Err(err) => {
                    prop_assert!(at_begin.is_some(), "{}: {}", what, err);
                    prop_assert_eq!(err, EngineError::TransactionActive);
                }
            },
            Op::Commit => match eng.commit() {
                Ok(()) => at_begin = None,
                Err(err) => prop_assert_eq!(err, EngineError::NoTransaction),
            },
            Op::Rollback => match eng.rollback() {
                Ok(()) => shadow = at_begin.take().expect("a transaction was open"),
                Err(err) => prop_assert_eq!(err, EngineError::NoTransaction),
            },
            Op::CreateIndex { ty: i, k, a, b } => {
                let (e, attrs) = eng.with_db(|db| {
                    let e = ty(db, *i);
                    let own: Vec<AttrId> = db
                        .schema()
                        .attrs_of(e)
                        .iter()
                        .map(|x| AttrId(x as u32))
                        .collect();
                    let first = own[a % own.len()];
                    let second = own[b % own.len()];
                    let attrs = if k % 3 == 2 && first != second {
                        vec![first, second]
                    } else {
                        vec![first]
                    };
                    (e, attrs)
                });
                let kind = [IndexKind::Hash, IndexKind::Ordered, IndexKind::Composite][k % 3];
                eng.create_index_of(e, kind, &attrs).unwrap();
            }
            Op::DropIndex { ty: i, slot } => {
                let e = eng.with_db(|db| ty(db, *i));
                let defs = eng.index_defs(e);
                if !defs.is_empty() {
                    let (kind, attrs) = &defs[slot % defs.len()];
                    prop_assert!(eng.drop_index(e, *kind, attrs).unwrap(), "{}", what);
                }
            }
            Op::Pin => {
                if let Some(snap) = eng.snapshot() {
                    let image = Image::of_snapshot(&snap);
                    // A snapshot is the committed state, never a write
                    // of the open transaction.
                    let committed = at_begin.as_ref().unwrap_or(&shadow);
                    prop_assert!(
                        same_relations(snap.db(), committed),
                        "{}: snapshot is not the committed state",
                        what
                    );
                    pinned.push((snap, image));
                }
            }
            Op::Unpin(i) => {
                if !pinned.is_empty() {
                    let n = pinned.len();
                    pinned.remove(i % n);
                }
            }
        }
        // (c) range cascade ≡ scan cascade, (d) containment, and every
        // index mirrors its relation.
        let live = eng.with_parts(|db, indexes| {
            prop_assert!(
                same_relations(db, &shadow),
                "{}: engine != scan shadow",
                what
            );
            prop_assert!(db.verify_containment().is_empty(), "{}: containment", what);
            for e in db.schema().type_ids() {
                let stored: Vec<Instance> = db.stored(e).iter().map(deep).collect();
                for idx in &indexes[e.index()] {
                    prop_assert_eq!(&index_entries(idx), &stored, "{}: index out of sync", what);
                    prop_assert_eq!(idx.len(), stored.len());
                }
            }
            Ok(())
        });
        live?;
        // (b) carried statistics, live and pinned.
        let stats = eng.statistics();
        eng.with_parts(|db, indexes| check_statistics(&stats, db, indexes, &what))?;
        // (a) pinned snapshots are immutable.
        for (snap, image) in &pinned {
            prop_assert!(
                Image::of_snapshot(snap) == *image,
                "{}: a pinned snapshot changed",
                what
            );
            check_statistics(&snap.statistics(), snap.db(), snap.indexes(), &what)?;
        }
    }

    // (c) through recovery and replicated apply: both must reach the
    // committed state (an open transaction never committed).
    eng.sync().unwrap();
    let committed = at_begin.as_ref().unwrap_or(&shadow);
    // (Statistics first: the engine lock is not reentrant.)
    let recovered = Engine::recover(&dir).unwrap();
    let stats = recovered.statistics();
    recovered.with_parts(|db, indexes| {
        prop_assert!(same_relations(db, committed), "{:?}: recovery", policy);
        prop_assert!(db.verify_containment().is_empty());
        check_statistics(&stats, db, indexes, "recovered")
    })?;
    let scan = toposem_wal::scan(&dir).unwrap();
    let replica = Engine::replica_from_checkpoint(scan.meta, scan.snapshot).unwrap();
    for rec in &scan.records {
        replica.apply_replicated(rec).unwrap();
    }
    let stats = replica.statistics();
    let live_indexes = eng.with_parts(|_, live| live.iter().map(Vec::len).sum::<usize>());
    replica.with_parts(|db, indexes| {
        prop_assert!(same_relations(db, committed), "{:?}: replica", policy);
        prop_assert!(db.verify_containment().is_empty());
        prop_assert_eq!(indexes.iter().map(Vec::len).sum::<usize>(), live_indexes);
        check_statistics(&stats, db, indexes, "replica")
    })?;
    drop(eng);
    fs::remove_dir_all(&dir).unwrap();
    Ok(())
}

proptest! {
    #[test]
    fn snapshots_statistics_and_cascades_are_unobservable(
        ops in prop::collection::vec(op(), 1..48),
    ) {
        for policy in [ContainmentPolicy::Eager, ContainmentPolicy::OnDemand] {
            run(policy, &ops)?;
        }
    }
}

/// The range path and the scan path both run: `person` is a canonical
/// prefix of `employee`/`manager`/`worksfor`, `department` is not a
/// prefix of `worksfor`.
#[test]
fn both_cascade_paths_are_exercised() {
    let db = Database::new(
        Intension::analyse(employee_schema()),
        DomainCatalog::employee_defaults(),
        ContainmentPolicy::Eager,
    );
    let s = db.schema();
    let prefix = |e: &str, sp: &str| {
        let (ae, asp) = (
            s.attrs_of(s.type_id(e).unwrap()),
            s.attrs_of(s.type_id(sp).unwrap()),
        );
        asp.iter().take(ae.card()).eq(ae.iter())
    };
    assert!(prefix("person", "employee"));
    assert!(prefix("person", "worksfor"));
    assert!(prefix("employee", "manager"));
    assert!(!prefix("department", "worksfor"));
    let mut names: BTreeSet<&str> = BTreeSet::new();
    names.extend(TYPES);
    assert_eq!(names.len(), s.type_count());
}
