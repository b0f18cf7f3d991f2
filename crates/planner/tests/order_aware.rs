//! Order-aware planning: physical properties (sort orders), merge joins,
//! Sort enforcers, and DP join reordering.
//!
//! The headline acceptance check lives here: a 3-way join over ordered
//! indexes plans to a `MergeJoin` with **no** `Sort` enforcer — the order
//! is carried from the index walk through the operator tree — and planned
//! execution still agrees with the naive interpreter everywhere.

use toposem_core::{employee_schema, Intension};
use toposem_extension::{ContainmentPolicy, Database, DomainCatalog, Value};
use toposem_planner::{
    execute, execute_ordered, lower_and_rewrite, plan_with, Physical, PlannedExecution,
    PlannerOptions, QueryRequest, QueryTarget,
};
use toposem_storage::{cmp_by_keys, Engine, IndexKind, Query, SortDir};

fn engine() -> Engine {
    Engine::new(Database::new(
        Intension::analyse(employee_schema()),
        DomainCatalog::employee_defaults(),
        ContainmentPolicy::Eager,
    ))
}

/// 200 employees (and matching persons), 3 departments.
fn load(eng: &Engine, n: i64) {
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let person = s.type_id("person").unwrap();
    let department = s.type_id("department").unwrap();
    let deps = ["sales", "research", "admin"];
    for i in 0..n {
        eng.insert(
            employee,
            &[
                ("name", Value::str(&format!("w{i:04}"))),
                ("age", Value::Int(i % 90)),
                ("depname", Value::str(deps[(i % 3) as usize])),
            ],
        )
        .unwrap();
        eng.insert(
            person,
            &[
                ("name", Value::str(&format!("w{i:04}"))),
                ("age", Value::Int(i % 90)),
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
}

fn agree(eng: &Engine, q: &Query) {
    let naive = eng.with_db(|db| q.execute(db)).unwrap();
    let planned = eng.query_planned(q).unwrap();
    assert_eq!(naive, planned, "planned != naive for {q:?}");
}

/// Planned ordered output must be the same *set* as naive ordered output
/// and must ascend by the query's root sort keys (tie order is the
/// executor's to choose).
fn agree_ordered(eng: &Engine, q: &Query) {
    let naive = eng.with_db(|db| q.execute_ordered(db)).unwrap();
    let planned = eng.query_planned_ordered(q).unwrap();
    assert_eq!(naive.0, planned.0, "types diverged for {q:?}");
    assert_eq!(
        naive.1.len(),
        planned.1.len(),
        "cardinalities diverged for {q:?}"
    );
    let keys = q.root_order();
    assert!(
        planned
            .1
            .windows(2)
            .all(|w| cmp_by_keys(&w[0], &w[1], keys) != std::cmp::Ordering::Greater),
        "planned output not sorted by {keys:?} for {q:?}"
    );
    let naive_set: std::collections::HashSet<_> = naive.1.into_iter().collect();
    let planned_set: std::collections::HashSet<_> = planned.1.into_iter().collect();
    assert_eq!(naive_set, planned_set, "result sets diverged for {q:?}");
}

/// The acceptance criterion: a 3-way join over ordered (composite)
/// indexes merges on the carried order — the plan shows a MergeJoin and
/// no Sort enforcer anywhere.
#[test]
fn three_way_join_merges_without_sort_enforcer() {
    let eng = engine();
    load(&eng, 200);
    let s = eng.with_db(|db| db.schema().clone());
    let person = s.type_id("person").unwrap();
    let employee = s.type_id("employee").unwrap();
    let department = s.type_id("department").unwrap();
    let name = s.attr_id("name").unwrap();
    let age = s.attr_id("age").unwrap();
    let depname = s.attr_id("depname").unwrap();
    eng.create_composite_index(person, &[name, age]).unwrap();
    eng.create_composite_index(employee, &[name, age]).unwrap();
    eng.create_ord_index(employee, depname).unwrap();

    let q = Query::scan(person)
        .join(Query::scan(employee))
        .join(Query::scan(department));
    let plan = eng.explain(&q).unwrap();
    assert!(
        plan.contains("MergeJoin"),
        "3-way join over ordered indexes must merge-join:\n{plan}"
    );
    assert!(
        !plan.contains("Sort"),
        "order must be carried, not enforced:\n{plan}"
    );
    agree(&eng, &q);
}

/// Order carried from an explicit ordered-index walk: employee's scan
/// order does not start with `depname`, so without the index the merge
/// would need a Sort — with it, the planner walks the BTree instead.
#[test]
fn merge_join_consumes_index_range_seek_order() {
    let eng = engine();
    load(&eng, 200);
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let department = s.type_id("department").unwrap();
    let depname = s.attr_id("depname").unwrap();
    eng.create_ord_index(employee, depname).unwrap();
    let q = Query::scan(employee).join(Query::scan(department));
    let plan = eng.explain(&q).unwrap();
    assert!(
        plan.contains("MergeJoin") && plan.contains("IndexRangeSeek") && !plan.contains("Sort"),
        "merge join must consume the ordered index's order:\n{plan}"
    );
    agree(&eng, &q);
}

/// A merge join is an equi-join on the whole key set, so a *permuted*
/// key order works as long as both sides share it: composite indexes on
/// (age, name) — the reverse of the canonical shared-key order — must
/// still carry a Sort-free merge join, with the requested (age, name)
/// output order falling out of the walk for free.
#[test]
fn merge_join_consumes_permuted_composite_index_order() {
    let eng = engine();
    load(&eng, 200);
    let s = eng.with_db(|db| db.schema().clone());
    let person = s.type_id("person").unwrap();
    let employee = s.type_id("employee").unwrap();
    let name = s.attr_id("name").unwrap();
    let age = s.attr_id("age").unwrap();
    // The canonical shared-key order is ascending attribute id; index
    // both sides in the *reverse* order, so only a permuted merge-join
    // requirement can consume the carried order.
    let reversed = if name.index() < age.index() {
        [age, name]
    } else {
        [name, age]
    };
    eng.create_composite_index(person, &reversed).unwrap();
    eng.create_composite_index(employee, &reversed).unwrap();

    // Request the permuted order at the root: the merge join that sorts
    // by it produces the answer with no Sort anywhere.
    let q = Query::scan(person)
        .join(Query::scan(employee))
        .order_by(reversed.iter().map(|a| (*a, SortDir::Asc)).collect());
    let plan = eng.explain(&q).unwrap();
    assert!(
        plan.contains("MergeJoin"),
        "permuted composite order must enable a merge join:\n{plan}"
    );
    assert!(
        !plan.contains("Sort"),
        "the permuted key order must be carried, not enforced:\n{plan}"
    );
    agree_ordered(&eng, &q);
}

/// DP join reordering avoids the cross product the as-written nesting
/// would execute: (person ⋈ department) ⋈ worksfor shares no attributes
/// in its first join, so the reorderer must pick another association.
#[test]
fn dp_reorders_away_from_cross_products() {
    let eng = engine();
    load(&eng, 120);
    let s = eng.with_db(|db| db.schema().clone());
    let person = s.type_id("person").unwrap();
    let department = s.type_id("department").unwrap();
    let worksfor = s.type_id("worksfor").unwrap();
    let deps = ["sales", "research", "admin"];
    for i in 0..120 {
        eng.insert(
            worksfor,
            &[
                ("name", Value::str(&format!("w{i:04}"))),
                ("age", Value::Int(i % 90)),
                ("depname", Value::str(deps[(i % 3) as usize])),
                (
                    "location",
                    Value::str(["amsterdam", "utrecht"][(i % 2) as usize]),
                ),
            ],
        )
        .unwrap();
    }
    let q = Query::scan(person)
        .join(Query::scan(department))
        .join(Query::scan(worksfor));
    let stats = eng.statistics();
    let (reordered, baseline) = eng.with_parts(|db, indexes| {
        let logical = lower_and_rewrite(&q, db).unwrap();
        let dp = plan_with(&logical, db, indexes, &stats, &PlannerOptions::default());
        let asis = plan_with(
            &logical,
            db,
            indexes,
            &stats,
            &PlannerOptions {
                reorder_joins: false,
                merge_joins: false,
                ..Default::default()
            },
        );
        (dp, asis)
    });
    let dp_cost = toposem_planner::estimate(&reordered, &stats).cost;
    let base_cost = toposem_planner::estimate(&baseline, &stats).cost;
    assert!(
        dp_cost < base_cost,
        "reordered plan must beat the as-written nesting: {dp_cost} vs {base_cost}"
    );
    // Both plans compute the same relation, which matches naive.
    let naive = eng.with_db(|db| q.execute(db)).unwrap().1;
    eng.with_parts(|db, indexes| {
        assert_eq!(execute(&reordered, db, indexes), naive);
        assert_eq!(execute(&baseline, db, indexes), naive);
    });
    agree(&eng, &q);
}

/// Above the DP budget the greedy fallback still reorders — and at any
/// width, planned execution stays equal to naive.
#[test]
fn wide_self_joins_take_the_greedy_path_and_agree() {
    let eng = engine();
    load(&eng, 40);
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let person = s.type_id("person").unwrap();
    // employee ⋈ person ⋈ employee ⋈ … : 10 leaves (> dp_max_leaves=8),
    // every intermediate union is still a declared type.
    let mut q = Query::scan(employee);
    for i in 0..9 {
        let other = if i % 2 == 0 { person } else { employee };
        q = q.join(Query::scan(other));
    }
    agree(&eng, &q);
}

/// An oversized DP budget is clamped, not trusted: 18 join leaves with
/// `dp_max_leaves: 64` must take the greedy path (the DP's u32 subset
/// masks would overflow) and still agree with naive execution.
#[test]
fn oversized_dp_budget_is_clamped_not_overflowed() {
    let eng = engine();
    load(&eng, 20);
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let person = s.type_id("person").unwrap();
    let mut q = Query::scan(employee);
    for i in 0..17 {
        q = q.join(Query::scan(if i % 2 == 0 { person } else { employee }));
    }
    let stats = eng.statistics();
    let naive = eng.with_db(|db| q.execute(db)).unwrap().1;
    eng.with_parts(|db, indexes| {
        let logical = lower_and_rewrite(&q, db).unwrap();
        let phys = plan_with(
            &logical,
            db,
            indexes,
            &stats,
            &PlannerOptions {
                dp_max_leaves: 64,
                ..Default::default()
            },
        );
        assert_eq!(execute(&phys, db, indexes), naive);
    });
}

/// Ordered execution: planned output honours the root order-by whether
/// the order is carried (ascending, index available) or enforced
/// (descending, or no ordered path).
#[test]
fn order_by_is_honoured_with_and_without_enforcers() {
    let eng = engine();
    load(&eng, 150);
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let department = s.type_id("department").unwrap();
    let age = s.attr_id("age").unwrap();
    let depname = s.attr_id("depname").unwrap();
    let name = s.attr_id("name").unwrap();
    eng.create_ord_index(employee, age).unwrap();

    // Ascending on an ordered-index attribute: carried, no Sort.
    let q = Query::scan(employee).order_by_asc(age);
    let plan = eng.explain(&q).unwrap();
    assert!(
        plan.contains("IndexRangeSeek") && !plan.contains("Sort"),
        "ascending order over an ordered index must be carried:\n{plan}"
    );
    agree_ordered(&eng, &q);

    // Descending: no access path emits it; a Sort enforcer appears.
    let q = Query::scan(employee).order_by(vec![(age, SortDir::Desc)]);
    let plan = eng.explain(&q).unwrap();
    assert!(
        plan.contains("Sort"),
        "descending order needs an enforcer:\n{plan}"
    );
    agree_ordered(&eng, &q);

    // Order over a selection, carried through the residual filter.
    let q = Query::scan(employee)
        .select(depname, Value::str("sales"))
        .order_by_asc(age);
    agree_ordered(&eng, &q);

    // Order over a join output.
    let q = Query::scan(employee)
        .join(Query::scan(department))
        .order_by(vec![(depname, SortDir::Asc), (name, SortDir::Asc)]);
    agree_ordered(&eng, &q);

    // The scan's canonical order is itself a physical property: ordering
    // by the type's first attributes needs no enforcer at all.
    let q = Query::scan(employee).order_by(vec![(name, SortDir::Asc), (age, SortDir::Asc)]);
    let plan = eng.explain(&q).unwrap();
    assert!(
        !plan.contains("Sort"),
        "canonical relation order must satisfy a matching order-by:\n{plan}"
    );
    agree_ordered(&eng, &q);

    // No order-by at all: ordered execution still works (arrival order).
    agree_ordered(&eng, &Query::scan(employee));
}

/// Equality-bound attributes are constants, so they satisfy (or can be
/// skipped in) order positions: a composite walk of `(depname, age)`
/// under `depname = 'sales'` serves `ORDER BY age` — and even
/// `ORDER BY depname DESC, age ASC` — with no `Sort` enforcer.
/// Regression for the planner treating order prefixes literally and
/// sorting anyway.
#[test]
fn equality_bound_attribute_skips_order_positions() {
    let eng = engine();
    load(&eng, 200);
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let age = s.attr_id("age").unwrap();
    let depname = s.attr_id("depname").unwrap();
    eng.create_composite_index(employee, &[depname, age])
        .unwrap();

    // WHERE depname = 'sales' ORDER BY age: the seek emits (depname,
    // age) order with depname constant, so the required prefix reduces
    // to (age) and the order is carried.
    let q = Query::scan(employee)
        .select(depname, Value::str("sales"))
        .order_by_asc(age);
    let plan = eng.explain(&q).unwrap();
    assert!(
        plan.contains("CompositeSeek") && !plan.contains("Sort"),
        "equality-bound depname must be skippable in the order prefix:\n{plan}"
    );
    agree_ordered(&eng, &q);

    // Direction on a constant is meaningless: DESC on the bound
    // attribute still needs no enforcer.
    let q = Query::scan(employee)
        .select(depname, Value::str("sales"))
        .order_by(vec![(depname, SortDir::Desc), (age, SortDir::Asc)]);
    let plan = eng.explain(&q).unwrap();
    assert!(
        !plan.contains("Sort"),
        "sort direction on an equality-bound attribute is irrelevant:\n{plan}"
    );
    agree_ordered(&eng, &q);

    // Without the equality the skip must NOT apply: ORDER BY age over
    // the same index still needs a Sort (depname really groups first).
    let q = Query::scan(employee).order_by_asc(age);
    let plan = eng.explain(&q).unwrap();
    assert!(
        plan.contains("Sort"),
        "unbound leading key must still force an enforcer:\n{plan}"
    );
    agree_ordered(&eng, &q);
}

/// Composite-index range suffix: an equality prefix plus a range on the
/// next key attribute seeks one contiguous composite key range instead
/// of filtering residually.
#[test]
fn composite_equality_prefix_plus_range_suffix_seeks() {
    let eng = engine();
    load(&eng, 300);
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let age = s.attr_id("age").unwrap();
    let depname = s.attr_id("depname").unwrap();
    eng.create_composite_index(employee, &[depname, age])
        .unwrap();
    let q = Query::scan(employee)
        .select(depname, Value::str("sales"))
        .select_between(age, Value::Int(10), Value::Int(30));
    let plan = eng.explain(&q).unwrap();
    assert!(
        plan.contains("CompositeSeek") && plan.contains("range age"),
        "equality prefix + range must seek the composite range:\n{plan}"
    );
    assert!(
        !plan.contains("residual"),
        "both predicates are consumed by the seek:\n{plan}"
    );
    agree(&eng, &q);
    // A leading-attribute range (empty prefix) also seeks.
    let q = Query::scan(employee).select_lt(depname, Value::str("research"));
    let plan = eng.explain(&q).unwrap();
    assert!(
        plan.contains("CompositeSeek") && plan.contains("range depname"),
        "leading range must seek the composite index:\n{plan}"
    );
    agree(&eng, &q);
    // Range + residual past the suffix attribute still agrees.
    let name = s.attr_id("name").unwrap();
    let q = Query::scan(employee)
        .select(depname, Value::str("admin"))
        .select_ge(age, Value::Int(40))
        .select(name, Value::str("w0045"));
    agree(&eng, &q);
}

/// drop_index removes the access path (plans fall back to scans) and is
/// honoured by recovery replay.
#[test]
fn drop_index_removes_access_path_and_replays() {
    let eng = engine();
    load(&eng, 100);
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let age = s.attr_id("age").unwrap();
    eng.create_ord_index(employee, age).unwrap();
    let q = Query::scan(employee).select_between(age, Value::Int(5), Value::Int(8));
    assert!(eng.explain(&q).unwrap().contains("IndexRangeSeek"));
    assert!(eng
        .drop_index(employee, IndexKind::Ordered, &[age])
        .unwrap());
    // Dropping again reports nothing to drop.
    assert!(!eng
        .drop_index(employee, IndexKind::Ordered, &[age])
        .unwrap());
    let plan = eng.explain(&q).unwrap();
    assert!(
        !plan.contains("IndexRangeSeek"),
        "dropped index must not be planned against:\n{plan}"
    );
    agree(&eng, &q);
    assert!(eng.index_defs(employee).is_empty());
}

// ---------------------------------------------------------------------
// Ordered results are sets: duplicates removed exactly where a plan can
// produce them, and nothing removed where it cannot.
// ---------------------------------------------------------------------

/// Employees where `ann` and `ann'` share `(name, age)` and so project
/// onto one `person`, plus the departments every employee references.
fn shared_person_engine() -> Engine {
    let eng = engine();
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let department = s.type_id("department").unwrap();
    for (name, age, dep) in [
        ("ann", 30, "sales"),
        ("ann", 30, "research"),
        ("bob", 40, "sales"),
        ("cid", 30, "admin"),
        ("dee", 50, "research"),
    ] {
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

/// The planned ordered rows.
fn planned_ordered(eng: &Engine, q: &Query) -> Vec<toposem_extension::Instance> {
    eng.run(&QueryRequest::new(q.clone()).ordered())
        .unwrap()
        .rows
        .seq()
        .unwrap()
}

/// Asserts the planned ordered result holds exactly `expect` rows, each
/// once, and agrees with the naive interpreter as a set.
fn assert_distinct_rows(eng: &Engine, q: &Query, expect: usize) {
    let rows = planned_ordered(eng, q);
    let distinct: std::collections::HashSet<_> = rows.iter().cloned().collect();
    assert_eq!(
        distinct.len(),
        rows.len(),
        "repeated rows for {q:?}: {rows:?}"
    );
    assert_eq!(rows.len(), expect, "{q:?}: {rows:?}");
    agree_ordered(eng, q);
}

#[test]
fn ordered_projection_returns_a_shared_person_once() {
    let eng = shared_person_engine();
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let person = s.type_id("person").unwrap();
    let [name, age, depname] = ["name", "age", "depname"].map(|a| s.attr_id(a).unwrap());
    let q = Query::scan(employee)
        .project(person)
        .order_by(vec![(name, SortDir::Asc)]);
    let plan = eng.explain(&q).unwrap();
    assert!(plan.contains("Project"), "{plan}");
    // ann, bob, cid, dee: the two `ann` employees project onto one.
    assert_distinct_rows(&eng, &q, 4);

    // A covering index whose keys extend past `person` turns the same
    // query into an index-only scan that projects each key.
    eng.create_composite_index(employee, &[name, age, depname])
        .unwrap();
    let plan = eng.explain(&q).unwrap();
    assert!(plan.contains("IndexOnlyScan"), "{plan}");
    assert_distinct_rows(&eng, &q, 4);
}

#[test]
fn ordered_union_of_overlapping_selects_returns_each_row_once() {
    let eng = shared_person_engine();
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let [name, age, depname] = ["name", "age", "depname"].map(|a| s.attr_id(a).unwrap());
    // Sales: ann/sales, bob. Age 30: ann/sales, ann/research, cid.
    let q = Query::scan(employee)
        .select(depname, Value::str("sales"))
        .union(Query::scan(employee).select(age, Value::Int(30)))
        .order_by(vec![(name, SortDir::Asc)]);
    assert!(eng.explain(&q).unwrap().contains("Union"));
    assert_distinct_rows(&eng, &q, 4);
}

#[test]
fn ordered_join_of_two_scans_keeps_every_row() {
    let eng = shared_person_engine();
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let department = s.type_id("department").unwrap();
    let person = s.type_id("person").unwrap();
    let name = s.attr_id("name").unwrap();
    // Every employee meets its one department: 5 rows, none merged away.
    let q = Query::scan(employee)
        .join(Query::scan(department))
        .order_by(vec![(name, SortDir::Asc)]);
    assert!(eng.explain(&q).unwrap().contains("Join"));
    assert_distinct_rows(&eng, &q, 5);

    // A join whose input repeats tuples repeats them too, and still
    // returns each once — as planned, and forced onto a hash join.
    let q = Query::scan(employee)
        .project(person)
        .join(Query::scan(person))
        .order_by(vec![(name, SortDir::Asc)]);
    let plan = eng.explain(&q).unwrap();
    assert!(plan.contains("Join") && plan.contains("Project"), "{plan}");
    assert_distinct_rows(&eng, &q, 4);
    let stats = eng.statistics();
    let rows = eng.with_parts(|db, indexes| {
        let logical = lower_and_rewrite(&q, db).unwrap();
        let no_merge = PlannerOptions {
            merge_joins: false,
            ..Default::default()
        };
        let phys = plan_with(&logical, db, indexes, &stats, &no_merge);
        assert!(format!("{phys:?}").contains("HashJoin"), "{phys:?}");
        execute_ordered(&phys, db, indexes)
    });
    let distinct: std::collections::HashSet<_> = rows.iter().collect();
    assert_eq!((rows.len(), distinct.len()), (4, 4), "{rows:?}");
}

/// A hand-built `Sort` over a `MergeJoin` of two `Sort`ed scans runs the
/// sort and merge-join operators directly, whatever the planner would
/// pick: the result is the naive `employee ⋈ department`, and ordered
/// execution arrives sorted on the join key.
#[test]
fn explicit_sort_and_merge_join_trees_agree() {
    let eng = engine();
    load(&eng, 300);
    let s = eng.with_db(|db| db.schema().clone());
    let employee = s.type_id("employee").unwrap();
    let department = s.type_id("department").unwrap();
    let worksfor = s.type_id("worksfor").unwrap();
    let depname = s.attr_id("depname").unwrap();
    let sort_keys = vec![(depname, SortDir::Asc)];
    let sorted_scan = |ty| {
        Box::new(Physical::Sort {
            input: Box::new(Physical::SeqScan {
                ty,
                preds: Vec::new(),
            }),
            keys: sort_keys.clone(),
        })
    };
    let plan = Physical::Sort {
        input: Box::new(Physical::MergeJoin {
            left: sorted_scan(employee),
            right: sorted_scan(department),
            keys: vec![depname],
            ty: worksfor,
        }),
        keys: sort_keys.clone(),
    };
    let naive = eng
        .with_db(|db| {
            Query::scan(employee)
                .join(Query::scan(department))
                .execute(db)
        })
        .unwrap()
        .1;
    assert_eq!(naive.len(), 300, "every employee meets one department");
    let (set, seq) = eng.with_parts(|db, indexes| {
        (
            execute(&plan, db, indexes),
            execute_ordered(&plan, db, indexes),
        )
    });
    assert_eq!(set, naive, "merge-join tree != naive join");
    assert_eq!(seq.len(), naive.len());
    assert_eq!(
        seq.iter().cloned().collect::<toposem_extension::Relation>(),
        naive
    );
    assert!(
        seq.windows(2)
            .all(|w| cmp_by_keys(&w[0], &w[1], &sort_keys) != std::cmp::Ordering::Greater),
        "output violates the enforced sort order"
    );
}
