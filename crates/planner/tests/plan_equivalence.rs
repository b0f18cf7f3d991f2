//! The differential query oracle: for randomly generated *sanctioned*
//! queries over randomly loaded databases, planned execution must return
//! exactly the same `(TypeId, Relation)` as the naive tree-walking
//! interpreter — under both containment policies, with and without
//! indexes, across every plan shape the optimizer can produce (SeqScan,
//! IndexSeek, IndexRangeSeek, CompositeSeek, IndexOnlyScan, joins, set
//! operations, dead branches).
//!
//! Queries are grown bottom-up from a decision script so every generated
//! query is valid by construction: selections (equality, range, and
//! conjunctive multi-attribute) use attributes of the input type,
//! projections move up the generalisation topology, joins are kept only
//! when their attribute union is a declared entity type, and set
//! operations pair subqueries of equal type. The indexed variant builds
//! hash, ordered, *and* composite indexes chosen per case, before or
//! after the load, so incremental maintenance of every index kind is on
//! the hook.

use proptest::prelude::*;
use toposem_core::{employee_schema, Intension, TypeId};
use toposem_extension::{ContainmentPolicy, Database, DomainCatalog, Value};
use toposem_planner::{
    execute, lower_and_rewrite, plan_with, PlannedExecution, PlannerOptions, QueryRequest,
    QueryTarget,
};
use toposem_storage::{cmp_by_keys, Engine, Predicate, Query, SortDir};

const NAMES: [&str; 5] = ["ann", "bob", "carol", "dave", "eve"];
const DEPS: [&str; 3] = ["sales", "research", "admin"];
const LOCS: [&str; 2] = ["amsterdam", "utrecht"];

/// One inserted row, decoded from strategy-picked indices.
#[derive(Clone, Debug)]
enum Row {
    Employee(usize, i64, usize),
    Manager(usize, i64, usize, i64),
    Department(usize, usize),
    Person(usize, i64),
    Worksfor(usize, i64, usize, usize),
}

fn row_strategy() -> impl Strategy<Value = Row> {
    prop_oneof![
        (0..NAMES.len(), 0i64..90, 0..DEPS.len()).prop_map(|(n, a, d)| Row::Employee(n, a, d)),
        (0..NAMES.len(), 0i64..90, 0..DEPS.len(), 0i64..500)
            .prop_map(|(n, a, d, b)| Row::Manager(n, a, d, b)),
        (0..DEPS.len(), 0..LOCS.len()).prop_map(|(d, l)| Row::Department(d, l)),
        (0..NAMES.len(), 0i64..90).prop_map(|(n, a)| Row::Person(n, a)),
        (0..NAMES.len(), 0i64..90, 0..DEPS.len(), 0..LOCS.len())
            .prop_map(|(n, a, d, l)| Row::Worksfor(n, a, d, l)),
    ]
}

fn load(eng: &Engine, rows: &[Row]) {
    let s = eng.with_db(|db| db.schema().clone());
    for row in rows {
        let _ = match row {
            Row::Employee(n, a, d) => eng.insert(
                s.type_id("employee").unwrap(),
                &[
                    ("name", Value::str(NAMES[*n])),
                    ("age", Value::Int(*a)),
                    ("depname", Value::str(DEPS[*d])),
                ],
            ),
            Row::Manager(n, a, d, b) => eng.insert(
                s.type_id("manager").unwrap(),
                &[
                    ("name", Value::str(NAMES[*n])),
                    ("age", Value::Int(*a)),
                    ("depname", Value::str(DEPS[*d])),
                    ("budget", Value::Int(*b)),
                ],
            ),
            Row::Department(d, l) => eng.insert(
                s.type_id("department").unwrap(),
                &[
                    ("depname", Value::str(DEPS[*d])),
                    ("location", Value::str(LOCS[*l])),
                ],
            ),
            Row::Person(n, a) => eng.insert(
                s.type_id("person").unwrap(),
                &[("name", Value::str(NAMES[*n])), ("age", Value::Int(*a))],
            ),
            Row::Worksfor(n, a, d, l) => eng.insert(
                s.type_id("worksfor").unwrap(),
                &[
                    ("name", Value::str(NAMES[*n])),
                    ("age", Value::Int(*a)),
                    ("depname", Value::str(DEPS[*d])),
                    ("location", Value::str(LOCS[*l])),
                ],
            ),
        };
    }
}

/// A value for attribute `a`, drawn from a pool that mixes matching,
/// non-matching, and out-of-domain constants (the latter exercise
/// dead-branch elimination).
fn value_for(db: &Database, attr: toposem_core::AttrId, pick: usize) -> Value {
    let name = db.schema().attr_name(attr);
    match name {
        "name" => {
            let pool = ["ann", "bob", "carol", "nobody"];
            Value::str(pool[pick % pool.len()])
        }
        "age" => {
            let pool = [0i64, 17, 42, 89, 200]; // 200 is outside ages 0..=150
            Value::Int(pool[pick % pool.len()])
        }
        "depname" => {
            let pool = ["sales", "research", "admin", "piracy"]; // piracy off-domain
            Value::str(pool[pick % pool.len()])
        }
        "location" => {
            let pool = ["amsterdam", "utrecht", "rotterdam"]; // rotterdam off-domain
            Value::str(pool[pick % pool.len()])
        }
        "budget" => {
            let pool = [0i64, 100, 250];
            Value::Int(pool[pick % pool.len()])
        }
        other => panic!("unknown attribute {other}"),
    }
}

/// A range predicate over attribute `attr`, with kind and constants
/// decoded from the decision picks (pools deliberately include values
/// outside the loaded data and outside finite domains, to exercise empty
/// ranges and dead-branch elimination).
fn range_pred_for(
    db: &Database,
    attr: toposem_core::AttrId,
    kind: usize,
    pick: usize,
) -> Predicate {
    let v = value_for(db, attr, pick);
    match kind % 5 {
        0 => Predicate::Lt(v),
        1 => Predicate::Le(v),
        2 => Predicate::Gt(v),
        3 => Predicate::Ge(v),
        _ => {
            // Between with an independently drawn second bound — possibly
            // inverted, which must plan to Empty and still agree.
            let w = value_for(db, attr, pick.wrapping_add(kind));
            Predicate::Between(v, w)
        }
    }
}

/// Grows a sanctioned query from the decision script. Each decision is
/// `(op, pick_a, pick_b)`; invalid constructions (unsanctioned joins) fall
/// back to their left operand, so the result is always well-typed.
fn grow_query(db: &Database, decisions: &[(u8, u8, u8)]) -> Query {
    let schema = db.schema();
    let types: Vec<TypeId> = schema.type_ids().collect();
    let gen = db.intension().generalisation();
    let mut q =
        Query::scan(types[decisions.first().map(|d| d.1 as usize).unwrap_or(0) % types.len()]);
    for (op, a, b) in decisions {
        let ty = q.entity_type(db).expect("invariant: q stays sanctioned");
        match op % 8 {
            // Selection on an attribute of the current type.
            0 => {
                let attrs: Vec<_> = schema.attrs_of(ty).iter().collect();
                let attr = toposem_core::AttrId(attrs[*a as usize % attrs.len()] as u32);
                q = q.select(attr, value_for(db, attr, *b as usize));
            }
            // Projection onto a generalisation (possibly the type itself).
            1 => {
                let gens: Vec<TypeId> = gen.g_set(ty).iter().map(|i| TypeId(i as u32)).collect();
                q = q.project(gens[*a as usize % gens.len()]);
            }
            // Join with a scanned type; keep only if sanctioned.
            2 => {
                let other = types[*a as usize % types.len()];
                let candidate = q.clone().join(Query::scan(other));
                if candidate.entity_type(db).is_ok() {
                    q = candidate;
                }
            }
            // Union with a same-type subquery (optionally filtered).
            3 => {
                let mut rhs = Query::scan(ty);
                let attrs: Vec<_> = schema.attrs_of(ty).iter().collect();
                let attr = toposem_core::AttrId(attrs[*a as usize % attrs.len()] as u32);
                rhs = rhs.select(attr, value_for(db, attr, *b as usize));
                q = q.union(rhs);
            }
            // Intersection with a same-type subquery.
            4 => {
                let mut rhs = Query::scan(ty);
                if b % 2 == 0 {
                    let attrs: Vec<_> = schema.attrs_of(ty).iter().collect();
                    let attr = toposem_core::AttrId(attrs[*a as usize % attrs.len()] as u32);
                    rhs = rhs.select(attr, value_for(db, attr, *b as usize));
                }
                q = q.intersect(rhs);
            }
            // Range selection on an attribute of the current type.
            5 => {
                let attrs: Vec<_> = schema.attrs_of(ty).iter().collect();
                let attr = toposem_core::AttrId(attrs[*a as usize % attrs.len()] as u32);
                // `a` spans 0..16, so `kind % 5` inside reaches every
                // arm — including `Between` (and its inverted form).
                q = q.select_pred(attr, range_pred_for(db, attr, *a as usize, *b as usize));
            }
            // Conjunctive multi-attribute equality selection: equality on
            // two (possibly equal) attributes in one step, so composite
            // prefix matching gets regular coverage.
            6 => {
                let attrs: Vec<_> = schema.attrs_of(ty).iter().collect();
                let a1 = toposem_core::AttrId(attrs[*a as usize % attrs.len()] as u32);
                let a2 = toposem_core::AttrId(attrs[*b as usize % attrs.len()] as u32);
                q = q.select_all(&[
                    (a1, value_for(db, a1, *b as usize)),
                    (a2, value_for(db, a2, *a as usize)),
                ]);
            }
            // Order-by on one or two attributes of the current type,
            // mixed directions. Non-root orderings are dropped by both
            // evaluators; a root ordering makes the query
            // order-sensitive through `execute_ordered`.
            _ => {
                let attrs: Vec<_> = schema.attrs_of(ty).iter().collect();
                let a1 = toposem_core::AttrId(attrs[*a as usize % attrs.len()] as u32);
                let a2 = toposem_core::AttrId(attrs[*b as usize % attrs.len()] as u32);
                let dir = |x: u8| {
                    if x.is_multiple_of(2) {
                        SortDir::Asc
                    } else {
                        SortDir::Desc
                    }
                };
                let mut keys = vec![(a1, dir(*a))];
                if a1 != a2 {
                    keys.push((a2, dir(*b)));
                }
                q = q.order_by(keys);
            }
        }
    }
    q
}

/// Planned execution agrees with the naive interpreter on the result
/// *sequence* semantics too: the ordered outputs contain the same
/// tuples, and the planned sequence ascends by the root sort keys. The
/// planned side takes the ordered, profiled route — the one a session
/// and `EXPLAIN ANALYZE` run — so profiling is on the hook as well.
fn assert_ordered_agreement(eng: &Engine, q: &Query) -> Result<(), TestCaseError> {
    let naive = eng
        .with_db(|db| q.execute_ordered(db))
        .expect("generated query is sanctioned");
    let resp = eng
        .run(&QueryRequest::new(q.clone()).ordered().profiled())
        .expect("planner accepts sanctioned queries");
    prop_assert!(
        resp.profile.is_some(),
        "a profiled request returns its profile"
    );
    let planned = (
        resp.ty,
        resp.rows.seq().expect("ordered request yields Seq"),
    );
    prop_assert_eq!(naive.0, planned.0, "entity types diverged for {:?}", q);
    prop_assert_eq!(
        naive.1.len(),
        planned.1.len(),
        "ordered lengths diverged for {:?}",
        q
    );
    let keys = q.root_order();
    prop_assert!(
        planned
            .1
            .windows(2)
            .all(|w| cmp_by_keys(&w[0], &w[1], keys) != std::cmp::Ordering::Greater),
        "planned sequence violates {:?} for {:?}",
        keys,
        q
    );
    let ns: std::collections::HashSet<_> = naive.1.into_iter().collect();
    let ps: std::collections::HashSet<_> = planned.1.into_iter().collect();
    prop_assert_eq!(ns, ps, "ordered result sets diverged for {:?}", q);
    Ok(())
}

fn engine(policy: ContainmentPolicy) -> Engine {
    Engine::new(Database::new(
        Intension::analyse(employee_schema()),
        DomainCatalog::employee_defaults(),
        policy,
    ))
}

proptest! {
    /// The headline oracle: planned == naive on both policies, as sets
    /// and as ordered sequences.
    #[test]
    fn planned_equals_naive(
        rows in prop::collection::vec(row_strategy(), 0..25),
        decisions in prop::collection::vec((0u8..8, 0u8..16, 0u8..16), 0..8),
    ) {
        for policy in [ContainmentPolicy::Eager, ContainmentPolicy::OnDemand] {
            let eng = engine(policy);
            load(&eng, &rows);
            let q = eng.with_db(|db| grow_query(db, &decisions));
            let naive = eng.with_db(|db| q.execute(db)).expect("generated query is sanctioned");
            let planned = eng.query_planned(&q).expect("planner accepts sanctioned queries");
            prop_assert_eq!(&naive.0, &planned.0, "entity types diverged for {:?}", q);
            prop_assert_eq!(&naive.1, &planned.1, "relations diverged for {:?}", q);
            assert_ordered_agreement(&eng, &q)?;
        }
    }

    /// Same oracle with every type indexed — kind (hash / ordered /
    /// composite) and attributes picked per case — exercising the
    /// IndexSeek, IndexRangeSeek, CompositeSeek, and IndexOnlyScan paths
    /// with residual filters. Indexes may be created *before* the load,
    /// so incremental index maintenance — including eager containment
    /// propagations into generalisation relations — is on the hook, not
    /// just bulk builds.
    #[test]
    fn planned_equals_naive_with_indexes(
        rows in prop::collection::vec(row_strategy(), 0..25),
        decisions in prop::collection::vec((0u8..8, 0u8..16, 0u8..16), 0..8),
        index_picks in prop::collection::vec(0usize..24, 5),
        index_first in 0u8..2,
    ) {
        let eng = engine(ContainmentPolicy::Eager);
        let s = eng.with_db(|db| db.schema().clone());
        let build_indexes = |eng: &Engine| {
            for (e, pick) in s.type_ids().zip(&index_picks) {
                let attrs: Vec<toposem_core::AttrId> = s
                    .attrs_of(e)
                    .iter()
                    .map(|a| toposem_core::AttrId(a as u32))
                    .collect();
                let attr = attrs[(pick / 3) % attrs.len()];
                match pick % 3 {
                    0 => eng.create_index(e, attr).unwrap(),
                    1 => eng.create_ord_index(e, attr).unwrap(),
                    _ => {
                        // Composite over two adjacent attributes when the
                        // type is wide enough (else a single-attr key).
                        let i = (pick / 3) % attrs.len();
                        let key: Vec<_> = if attrs.len() >= 2 {
                            vec![attrs[i], attrs[(i + 1) % attrs.len()]]
                        } else {
                            vec![attrs[i]]
                        };
                        eng.create_composite_index(e, &key).unwrap();
                    }
                }
            }
        };
        if index_first == 0 {
            build_indexes(&eng);
            load(&eng, &rows);
        } else {
            load(&eng, &rows);
            build_indexes(&eng);
        }
        let q = eng.with_db(|db| grow_query(db, &decisions));
        let naive = eng.with_db(|db| q.execute(db)).expect("generated query is sanctioned");
        let planned = eng.query_planned(&q).expect("planner accepts sanctioned queries");
        prop_assert_eq!(&naive.0, &planned.0);
        prop_assert_eq!(&naive.1, &planned.1, "relations diverged for {:?}", q);
        assert_ordered_agreement(&eng, &q)?;
    }

    /// Multi-way joins through the DP reorderer (and the greedy path for
    /// the widest chains): 3–5-way joins over the sanctioned pool, with
    /// random per-type indexes, optional selections, and an optional
    /// root ordering. The DP plan, the as-written hash-join baseline,
    /// and the naive interpreter must all produce the same relation.
    #[test]
    fn multiway_joins_agree_with_naive_and_baseline(
        rows in prop::collection::vec(row_strategy(), 0..30),
        chain in prop::collection::vec(0usize..4, 2..5),
        sel in (0u8..2, 0u8..16, 0u8..16),
        order in (0u8..2, 0u8..16, 0u8..2),
        index_picks in prop::collection::vec(0usize..24, 5),
    ) {
        let eng = engine(ContainmentPolicy::Eager);
        let s = eng.with_db(|db| db.schema().clone());
        load(&eng, &rows);
        for (e, pick) in s.type_ids().zip(&index_picks) {
            let attrs: Vec<toposem_core::AttrId> = s
                .attrs_of(e)
                .iter()
                .map(|a| toposem_core::AttrId(a as u32))
                .collect();
            let attr = attrs[(pick / 3) % attrs.len()];
            match pick % 3 {
                0 => eng.create_index(e, attr).unwrap(),
                1 => eng.create_ord_index(e, attr).unwrap(),
                _ => {
                    let i = (pick / 3) % attrs.len();
                    let key: Vec<_> = if attrs.len() >= 2 {
                        vec![attrs[i], attrs[(i + 1) % attrs.len()]]
                    } else {
                        vec![attrs[i]]
                    };
                    eng.create_composite_index(e, &key).unwrap();
                }
            }
        }
        // Any left-fold over this pool keeps every intermediate
        // sanctioned (their attribute unions are employee or worksfor).
        let pool = ["person", "employee", "department", "worksfor"]
            .map(|n| s.type_id(n).unwrap());
        let mut q = Query::scan(pool[0]);
        for pick in &chain {
            q = q.join(Query::scan(pool[*pick]));
        }
        let ty = eng.with_db(|db| q.entity_type(db)).expect("pool joins stay sanctioned");
        if sel.0 == 1 {
            let attrs: Vec<_> = s.attrs_of(ty).iter().collect();
            let attr = toposem_core::AttrId(attrs[sel.1 as usize % attrs.len()] as u32);
            let v = eng.with_db(|db| value_for(db, attr, sel.2 as usize));
            q = q.select(attr, v);
        }
        if order.0 == 1 {
            let attrs: Vec<_> = s.attrs_of(ty).iter().collect();
            let attr = toposem_core::AttrId(attrs[order.1 as usize % attrs.len()] as u32);
            let dir = if order.2 == 0 { SortDir::Asc } else { SortDir::Desc };
            q = q.order_by(vec![(attr, dir)]);
        }
        let naive = eng.with_db(|db| q.execute(db)).expect("sanctioned");
        let planned = eng.query_planned(&q).expect("planner accepts sanctioned queries");
        prop_assert_eq!(&naive.0, &planned.0);
        prop_assert_eq!(&naive.1, &planned.1, "relations diverged for {:?}", q);
        assert_ordered_agreement(&eng, &q)?;
        // The as-written baseline (no reordering, hash joins only)
        // computes the same relation as the DP/merge plan.
        let stats = eng.statistics();
        let baseline = eng.with_parts(|db, indexes| {
            let logical = lower_and_rewrite(&q, db).expect("sanctioned");
            let phys = plan_with(&logical, db, indexes, &stats, &PlannerOptions {
                reorder_joins: false,
                merge_joins: false,
                ..Default::default()
            });
            execute(&phys, db, indexes)
        });
        prop_assert_eq!(&naive.1, &baseline, "baseline diverged for {:?}", q);
    }
}

/// Batch-boundary coverage: a relation larger than one executor batch
/// agrees with naive execution.
#[test]
fn large_scan_crosses_batch_boundaries() {
    let eng = engine(ContainmentPolicy::Eager);
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let name = s.attr_id("name").unwrap();
    let age = s.attr_id("age").unwrap();
    let depname = s.attr_id("depname").unwrap();
    for i in 0..5000 {
        eng.insert(
            employee,
            &[
                ("name", Value::str(&format!("w{i}"))),
                ("age", Value::Int(i % 90)),
                ("depname", Value::str(DEPS[(i % 3) as usize])),
            ],
        )
        .unwrap();
    }
    eng.create_index(employee, name).unwrap();
    eng.create_ord_index(employee, age).unwrap();
    let queries = [
        Query::scan(employee),
        Query::scan(employee).select(depname, Value::str("sales")),
        Query::scan(employee).select(name, Value::str("w4242")),
        Query::scan(employee).project(s.type_id("person").unwrap()),
        // A wide range crossing many batch boundaries through the
        // ordered index.
        Query::scan(employee).select_between(age, Value::Int(10), Value::Int(70)),
        Query::scan(employee).select_ge(age, Value::Int(45)),
    ];
    for q in &queries {
        let naive = eng.with_db(|db| q.execute(db)).unwrap();
        let planned = eng.query_planned(q).unwrap();
        assert_eq!(naive, planned);
    }
}
