//! A query algebra restricted to topology-sanctioned paths.
//!
//! §1: the model "limits their use along well-defined paths" — free
//! recombination of attributes (the Universal Relation's failure mode) is
//! ruled out. Concretely:
//!
//! - **Project** is allowed only onto a *generalisation* of the input's
//!   entity type (moving up the ISA hierarchy);
//! - **Join** is allowed only when the combined attribute set is itself a
//!   declared entity type (the Relationship Axiom: combinations must be
//!   explicated as entities);
//! - **Select** never changes the entity type.
//!
//! Every well-typed query therefore *has* an entity type, so its result is
//! interpretable and updatable — queries cannot "destroy the semantic
//! bonds between attributes composing an entity".

use toposem_core::TypeId;
use toposem_extension::{natural_join, Database, Instance, Relation, Value};

/// A selection predicate on one attribute: equality or a range
/// comparison under the total [`Ord`] on [`Value`] (integers before
/// strings before booleans, then the natural order within a variant —
/// the same order `OrdIndex` sorts by, so indexed and naive evaluation
/// cannot disagree).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Predicate {
    /// `attr = v`.
    Eq(Value),
    /// `attr < v`.
    Lt(Value),
    /// `attr ≤ v`.
    Le(Value),
    /// `attr > v`.
    Gt(Value),
    /// `attr ≥ v`.
    Ge(Value),
    /// `lo ≤ attr ≤ hi` (inclusive on both ends).
    Between(Value, Value),
}

impl Predicate {
    /// Does `v` satisfy this predicate?
    pub fn matches(&self, v: &Value) -> bool {
        match self {
            Predicate::Eq(w) => v == w,
            Predicate::Lt(w) => v < w,
            Predicate::Le(w) => v <= w,
            Predicate::Gt(w) => v > w,
            Predicate::Ge(w) => v >= w,
            Predicate::Between(lo, hi) => lo <= v && v <= hi,
        }
    }

    /// The sought value when this is an equality predicate.
    pub fn as_eq(&self) -> Option<&Value> {
        match self {
            Predicate::Eq(v) => Some(v),
            _ => None,
        }
    }

    /// The predicate as inclusive/exclusive interval bounds:
    /// `(lower, upper)`, each `Some((value, inclusive))` when bounded.
    /// Equality is the degenerate interval `[v, v]`.
    pub fn bounds(&self) -> (PredBound<'_>, PredBound<'_>) {
        match self {
            Predicate::Eq(v) => (Some((v, true)), Some((v, true))),
            Predicate::Lt(v) => (None, Some((v, false))),
            Predicate::Le(v) => (None, Some((v, true))),
            Predicate::Gt(v) => (Some((v, false)), None),
            Predicate::Ge(v) => (Some((v, true)), None),
            Predicate::Between(lo, hi) => (Some((lo, true)), Some((hi, true))),
        }
    }

    /// True when no value can satisfy the predicate (an inverted
    /// `Between`).
    pub fn is_empty(&self) -> bool {
        match self {
            Predicate::Between(lo, hi) => lo > hi,
            _ => false,
        }
    }

    /// The set of *integers* this predicate admits, as an inclusive
    /// range `Some((lo, hi))`, or `None` when no integer satisfies it.
    /// Bounds of other variants resolve through the total [`Ord`] on
    /// [`Value`] (`Int < Str < Bool`): a `Str`/`Bool` upper bound
    /// admits every integer, a `Str`/`Bool` lower bound admits none.
    /// Histogram pricing builds on this, so it cannot disagree with
    /// [`Predicate::matches`].
    pub fn int_range(&self) -> Option<(i64, i64)> {
        let (plo, phi) = self.bounds();
        let lo = match plo {
            None => i64::MIN,
            Some((Value::Int(v), true)) => *v,
            Some((Value::Int(v), false)) => v.checked_add(1)?,
            // No integer is ≥ any Str/Bool bound.
            Some(_) => return None,
        };
        let hi = match phi {
            None => i64::MAX,
            Some((Value::Int(v), true)) => *v,
            Some((Value::Int(v), false)) => v.checked_sub(1)?,
            // Every integer is < any Str/Bool bound.
            Some(_) => i64::MAX,
        };
        (lo <= hi).then_some((lo, hi))
    }
}

impl std::fmt::Display for Predicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Predicate::Eq(v) => write!(f, "= {v}"),
            Predicate::Lt(v) => write!(f, "< {v}"),
            Predicate::Le(v) => write!(f, "≤ {v}"),
            Predicate::Gt(v) => write!(f, "> {v}"),
            Predicate::Ge(v) => write!(f, "≥ {v}"),
            Predicate::Between(lo, hi) => write!(f, "∈ [{lo}, {hi}]"),
        }
    }
}

/// One interval bound of a [`Predicate`]: the bounding value and whether
/// it is inclusive; `None` means unbounded on that side.
pub type PredBound<'a> = Option<(&'a Value, bool)>;

/// Direction of one sort key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SortDir {
    /// Smallest value first (the order every index walk produces).
    Asc,
    /// Largest value first (always needs an explicit sort).
    Desc,
}

impl std::fmt::Display for SortDir {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SortDir::Asc => write!(f, "asc"),
            SortDir::Desc => write!(f, "desc"),
        }
    }
}

/// A requested output ordering: sort keys applied left to right.
pub type SortKeys = Vec<(toposem_core::AttrId, SortDir)>;

/// Compares two instances under `keys`, each key by [`cmp_key`]. An
/// attribute missing from a tuple reads as `None`, which orders *first*
/// under [`SortDir::Asc`] and last under [`SortDir::Desc`]; validated
/// same-type tuples never miss one.
pub fn cmp_by_keys(
    a: &Instance,
    b: &Instance,
    keys: &[(toposem_core::AttrId, SortDir)],
) -> std::cmp::Ordering {
    keys.iter()
        .map(|(attr, dir)| cmp_key(a.get(*attr), b.get(*attr), *dir))
        .find(|o| o.is_ne())
        .unwrap_or(std::cmp::Ordering::Equal)
}

/// One sort key's comparison: `Option`'s order (an absent value before
/// every present one), reversed under [`SortDir::Desc`]. Every ordered
/// comparison of rows — [`cmp_by_keys`] and the executor's decorated
/// sort — goes through it.
pub fn cmp_key(a: Option<&Value>, b: Option<&Value>, dir: SortDir) -> std::cmp::Ordering {
    match dir {
        SortDir::Asc => a.cmp(&b),
        SortDir::Desc => b.cmp(&a),
    }
}

/// The intersection of predicate intervals on one attribute: an owned
/// `(value, inclusive)` bound on each side, tightened one predicate at a
/// time. This is the single home of the inclusive/exclusive bound-merge
/// rules — the planner's emptiness proof (dead-branch elimination) and
/// its ordered-index range seeks both build on it, so they cannot
/// disagree about which values a conjunction admits.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Interval {
    /// Lower bound; `None` = unbounded below.
    pub lo: Option<(Value, bool)>,
    /// Upper bound; `None` = unbounded above.
    pub hi: Option<(Value, bool)>,
}

impl Interval {
    /// The full interval (no bounds).
    pub fn full() -> Self {
        Interval::default()
    }

    /// Narrows this interval by `p`'s interval: a higher lower bound is
    /// tighter (at equal values, exclusive beats inclusive), and
    /// symmetrically for upper bounds.
    pub fn tighten(&mut self, p: &Predicate) {
        let (plo, phi) = p.bounds();
        if let Some((v, inc)) = plo {
            let tighter = match &self.lo {
                None => true,
                Some((cur, cur_inc)) => v > cur || (v == cur && *cur_inc && !inc),
            };
            if tighter {
                self.lo = Some((v.clone(), inc));
            }
        }
        if let Some((v, inc)) = phi {
            let tighter = match &self.hi {
                None => true,
                Some((cur, cur_inc)) => v < cur || (v == cur && *cur_inc && !inc),
            };
            if tighter {
                self.hi = Some((v.clone(), inc));
            }
        }
    }

    /// True when no value lies in the interval: the lower bound exceeds
    /// the upper, or they meet with either side exclusive.
    pub fn is_empty(&self) -> bool {
        match (&self.lo, &self.hi) {
            (Some((l, li)), Some((h, hi))) => l > h || (l == h && !(*li && *hi)),
            _ => false,
        }
    }
}

/// A query over the database, with its statically-known entity type.
#[derive(Clone, Debug)]
pub enum Query {
    /// The extension of an entity type.
    Scan(TypeId),
    /// Filter by a single-attribute predicate (equality or range);
    /// type-preserving. Conjunctive multi-attribute selections are
    /// chains of `Select` nodes — the planner merges them.
    Select {
        /// Input query.
        input: Box<Query>,
        /// Attribute to compare.
        attr: toposem_core::AttrId,
        /// The predicate its value must satisfy.
        pred: Predicate,
    },
    /// Project onto a generalisation.
    Project {
        /// Input query.
        input: Box<Query>,
        /// Target entity type (must generalise the input's type).
        to: TypeId,
    },
    /// Natural join; the result must be a declared entity type.
    Join(Box<Query>, Box<Query>),
    /// Set union of two queries of the *same* entity type (opens of the
    /// entity-type topology are closed under union, so same-type unions
    /// are always sanctioned).
    Union(Box<Query>, Box<Query>),
    /// Set intersection of two queries of the same entity type.
    Intersect(Box<Query>, Box<Query>),
    /// Requested output ordering; type-preserving. Ordering is
    /// observable only at the query root (results are sets, so an
    /// interior ordering carries no meaning); nested `OrderBy` nodes
    /// collapse to the outermost one.
    OrderBy {
        /// Input query.
        input: Box<Query>,
        /// Sort keys, applied left to right.
        keys: SortKeys,
    },
}

/// Typing/validation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// Projection target is not a generalisation of the input type.
    NotAGeneralisation {
        /// Input entity type.
        from: TypeId,
        /// Attempted target.
        to: TypeId,
    },
    /// The joined attribute set matches no declared entity type.
    JoinNotAnEntityType,
    /// Union/intersection operands have different entity types.
    TypeMismatch(TypeId, TypeId),
    /// A selection attribute does not belong to the input type.
    ForeignAttribute(toposem_core::AttrId),
    /// A read-consistency bound could not be met: the target (a
    /// replica) has not applied up to the requested LSN.
    Stale {
        /// The LSN the caller required the target to have applied.
        want_lsn: u64,
        /// The LSN the target had actually applied.
        applied_lsn: u64,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::NotAGeneralisation { from, to } => {
                write!(f, "cannot project {from} onto non-generalisation {to}")
            }
            QueryError::JoinNotAnEntityType => write!(
                f,
                "join result is not a declared entity type; explicate the relationship first"
            ),
            QueryError::ForeignAttribute(a) => write!(f, "attribute {a} not in input type"),
            QueryError::TypeMismatch(a, b) => {
                write!(
                    f,
                    "set operation requires equal entity types, got {a} and {b}"
                )
            }
            QueryError::Stale {
                want_lsn,
                applied_lsn,
            } => {
                write!(
                    f,
                    "read target is stale: applied lsn {applied_lsn} is behind required {want_lsn}"
                )
            }
        }
    }
}

impl std::error::Error for QueryError {}

impl Query {
    /// Convenience: a scan.
    pub fn scan(e: TypeId) -> Query {
        Query::Scan(e)
    }

    /// Convenience: selection by an arbitrary predicate.
    pub fn select_pred(self, attr: toposem_core::AttrId, pred: Predicate) -> Query {
        Query::Select {
            input: Box::new(self),
            attr,
            pred,
        }
    }

    /// Convenience: equality selection.
    pub fn select(self, attr: toposem_core::AttrId, value: Value) -> Query {
        self.select_pred(attr, Predicate::Eq(value))
    }

    /// Convenience: `attr < v`.
    pub fn select_lt(self, attr: toposem_core::AttrId, value: Value) -> Query {
        self.select_pred(attr, Predicate::Lt(value))
    }

    /// Convenience: `attr ≤ v`.
    pub fn select_le(self, attr: toposem_core::AttrId, value: Value) -> Query {
        self.select_pred(attr, Predicate::Le(value))
    }

    /// Convenience: `attr > v`.
    pub fn select_gt(self, attr: toposem_core::AttrId, value: Value) -> Query {
        self.select_pred(attr, Predicate::Gt(value))
    }

    /// Convenience: `attr ≥ v`.
    pub fn select_ge(self, attr: toposem_core::AttrId, value: Value) -> Query {
        self.select_pred(attr, Predicate::Ge(value))
    }

    /// Convenience: `lo ≤ attr ≤ hi`.
    pub fn select_between(self, attr: toposem_core::AttrId, lo: Value, hi: Value) -> Query {
        self.select_pred(attr, Predicate::Between(lo, hi))
    }

    /// Convenience: conjunctive multi-attribute equality selection —
    /// one `Select` node per `(attr, value)` pair; the planner merges
    /// the chain into a single conjunction and matches it against
    /// composite index prefixes.
    pub fn select_all(self, preds: &[(toposem_core::AttrId, Value)]) -> Query {
        preds.iter().fold(self, |q, (a, v)| q.select(*a, v.clone()))
    }

    /// Convenience: projection.
    pub fn project(self, to: TypeId) -> Query {
        Query::Project {
            input: Box::new(self),
            to,
        }
    }

    /// Convenience: join.
    pub fn join(self, other: Query) -> Query {
        Query::Join(Box::new(self), Box::new(other))
    }

    /// Convenience: same-type union.
    pub fn union(self, other: Query) -> Query {
        Query::Union(Box::new(self), Box::new(other))
    }

    /// Convenience: same-type intersection.
    pub fn intersect(self, other: Query) -> Query {
        Query::Intersect(Box::new(self), Box::new(other))
    }

    /// Convenience: request an output ordering (keys applied left to
    /// right). The outermost `OrderBy` of a query wins; ordering an
    /// intermediate subquery has no effect on the (set-valued) result.
    pub fn order_by(self, keys: SortKeys) -> Query {
        Query::OrderBy {
            input: Box::new(self),
            keys,
        }
    }

    /// Convenience: ascending single-key ordering.
    pub fn order_by_asc(self, attr: toposem_core::AttrId) -> Query {
        self.order_by(vec![(attr, SortDir::Asc)])
    }

    /// The effective root ordering: the outermost `OrderBy`'s keys, or
    /// empty when the query requests none.
    pub fn root_order(&self) -> &[(toposem_core::AttrId, SortDir)] {
        match self {
            Query::OrderBy { keys, .. } => keys,
            _ => &[],
        }
    }

    /// A stable in-process fingerprint of the query's structure (FNV-1a
    /// over the canonical debug rendering). Two structurally identical
    /// queries collide on purpose — the planner's cache keys on this
    /// together with the engine's statistics epoch.
    pub fn fingerprint(&self) -> u64 {
        Self::fingerprint_str(&format!("{self:?}"))
    }

    /// [`Query::fingerprint`] over an already-rendered `format!("{q:?}")`
    /// string — callers that also need the rendering (e.g. to verify
    /// cache hits against collisions) avoid formatting the tree twice.
    pub fn fingerprint_str(repr: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in repr.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Statically types the query: its result entity type, or the first
    /// sanction violation.
    pub fn entity_type(&self, db: &Database) -> Result<TypeId, QueryError> {
        let schema = db.schema();
        match self {
            Query::Scan(e) => Ok(*e),
            Query::Select { input, attr, .. } => {
                let e = input.entity_type(db)?;
                if !schema.attrs_of(e).contains(attr.index()) {
                    return Err(QueryError::ForeignAttribute(*attr));
                }
                Ok(e)
            }
            Query::Project { input, to } => {
                let from = input.entity_type(db)?;
                if !schema.attrs_of(*to).is_subset(schema.attrs_of(from)) {
                    return Err(QueryError::NotAGeneralisation { from, to: *to });
                }
                Ok(*to)
            }
            Query::Join(a, b) => {
                let ta = a.entity_type(db)?;
                let tb = b.entity_type(db)?;
                let combined = schema.attrs_of(ta).union(schema.attrs_of(tb));
                schema
                    .type_ids()
                    .find(|&t| schema.attrs_of(t) == &combined)
                    .ok_or(QueryError::JoinNotAnEntityType)
            }
            Query::Union(a, b) | Query::Intersect(a, b) => {
                let ta = a.entity_type(db)?;
                let tb = b.entity_type(db)?;
                if ta != tb {
                    return Err(QueryError::TypeMismatch(ta, tb));
                }
                Ok(ta)
            }
            Query::OrderBy { input, keys } => {
                let e = input.entity_type(db)?;
                for (attr, _) in keys {
                    if !schema.attrs_of(e).contains(attr.index()) {
                        return Err(QueryError::ForeignAttribute(*attr));
                    }
                }
                Ok(e)
            }
        }
    }

    /// Executes the query. Typing runs first; execution then cannot fail.
    /// The result is a set; any requested ordering is observable through
    /// [`Query::execute_ordered`] instead.
    pub fn execute(&self, db: &Database) -> Result<(TypeId, Relation), QueryError> {
        let out_type = self.entity_type(db)?;
        Ok((out_type, self.eval(db)))
    }

    /// Executes the query and returns its tuples as a sequence honouring
    /// the root [`Query::OrderBy`] (ties, and the whole result when no
    /// ordering was requested, fall back to the canonical instance
    /// order, so the output is fully deterministic).
    pub fn execute_ordered(&self, db: &Database) -> Result<(TypeId, Vec<Instance>), QueryError> {
        let (ty, rel) = self.execute(db)?;
        // Relation iterates canonically; a stable sort by the requested
        // keys therefore leaves ties canonically ordered.
        let mut out: Vec<Instance> = rel.iter().cloned().collect();
        let keys = self.root_order();
        if !keys.is_empty() {
            out.sort_by(|a, b| cmp_by_keys(a, b, keys));
        }
        Ok((ty, out))
    }

    fn eval(&self, db: &Database) -> Relation {
        let schema = db.schema();
        match self {
            Query::Scan(e) => db.extension(*e),
            Query::Select { input, attr, pred } => input
                .eval(db)
                .select(|t: &Instance| t.get(*attr).is_some_and(|v| pred.matches(v))),
            Query::Project { input, to } => input.eval(db).project(schema.attrs_of(*to)),
            Query::Join(a, b) => natural_join(schema.attr_count(), &a.eval(db), &b.eval(db)),
            Query::Union(a, b) => {
                let mut r = a.eval(db);
                r.union_with(&b.eval(db));
                r
            }
            Query::Intersect(a, b) => {
                let rb = b.eval(db);
                a.eval(db).select(|t| rb.contains(t))
            }
            // Ordering does not change the result *set*.
            Query::OrderBy { input, .. } => input.eval(db),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toposem_core::{employee_schema, Intension};
    use toposem_extension::{ContainmentPolicy, DomainCatalog};

    /// The rule `cmp_by_keys`'s doc states: an attribute missing from a
    /// tuple orders first under `Asc` and last under `Desc`, before any
    /// present value is compared, and later keys only break ties.
    #[test]
    fn missing_attribute_orders_first_ascending_last_descending() {
        use std::cmp::Ordering;
        use toposem_core::AttrId;
        let (a, b) = (AttrId(0), AttrId(1));
        let full = Instance::from_parts(vec![(a, Value::Int(i64::MIN)), (b, Value::Int(0))]);
        let missing = Instance::from_parts(vec![(b, Value::Int(9))]);
        assert_eq!(
            cmp_by_keys(&missing, &full, &[(a, SortDir::Asc)]),
            Ordering::Less
        );
        assert_eq!(
            cmp_by_keys(&missing, &full, &[(a, SortDir::Desc)]),
            Ordering::Greater
        );
        assert_eq!(
            cmp_by_keys(&missing, &missing, &[(a, SortDir::Asc), (b, SortDir::Desc)]),
            Ordering::Equal
        );
        assert_eq!(
            cmp_by_keys(&missing, &full, &[(b, SortDir::Desc), (a, SortDir::Asc)]),
            Ordering::Less,
            "the first key that differs decides"
        );
        assert_eq!(
            cmp_key(None, Some(&Value::Int(0)), SortDir::Asc),
            Ordering::Less
        );
        assert_eq!(
            cmp_key(None, Some(&Value::Int(0)), SortDir::Desc),
            Ordering::Greater
        );
    }

    fn loaded_db() -> Database {
        let mut d = Database::new(
            Intension::analyse(employee_schema()),
            DomainCatalog::employee_defaults(),
            ContainmentPolicy::Eager,
        );
        let s = d.schema().clone();
        for (n, a, dep) in [("ann", 40, "sales"), ("bob", 30, "research")] {
            d.insert_fields(
                s.type_id("employee").unwrap(),
                &[
                    ("name", Value::str(n)),
                    ("age", Value::Int(a)),
                    ("depname", Value::str(dep)),
                ],
            )
            .unwrap();
        }
        for (dep, loc) in [("sales", "amsterdam"), ("research", "utrecht")] {
            d.insert_fields(
                s.type_id("department").unwrap(),
                &[("depname", Value::str(dep)), ("location", Value::str(loc))],
            )
            .unwrap();
        }
        d
    }

    #[test]
    fn scan_select_project() {
        let db = loaded_db();
        let s = db.schema();
        let employee = s.type_id("employee").unwrap();
        let person = s.type_id("person").unwrap();
        let q = Query::scan(employee)
            .select(s.attr_id("depname").unwrap(), Value::str("sales"))
            .project(person);
        let (t, rel) = q.execute(&db).unwrap();
        assert_eq!(t, person);
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn range_selects_are_type_preserving_and_filter_correctly() {
        let db = loaded_db();
        let s = db.schema();
        let employee = s.type_id("employee").unwrap();
        let age = s.attr_id("age").unwrap();
        // ann is 40, bob is 30.
        let cases = [
            (Query::scan(employee).select_lt(age, Value::Int(40)), 1),
            (Query::scan(employee).select_le(age, Value::Int(40)), 2),
            (Query::scan(employee).select_gt(age, Value::Int(30)), 1),
            (Query::scan(employee).select_ge(age, Value::Int(30)), 2),
            (
                Query::scan(employee).select_between(age, Value::Int(30), Value::Int(39)),
                1,
            ),
            // Inverted bounds: empty, not an error.
            (
                Query::scan(employee).select_between(age, Value::Int(40), Value::Int(30)),
                0,
            ),
            // Conjunctive multi-attribute equality.
            (
                Query::scan(employee).select_all(&[
                    (s.attr_id("depname").unwrap(), Value::str("sales")),
                    (s.attr_id("name").unwrap(), Value::str("ann")),
                ]),
                1,
            ),
        ];
        for (q, want) in cases {
            let (t, rel) = q.execute(&db).unwrap();
            assert_eq!(t, employee, "range select changed the type of {q:?}");
            assert_eq!(rel.len(), want, "wrong cardinality for {q:?}");
        }
        // A range select on a foreign attribute is rejected like any
        // other selection.
        let q = Query::scan(s.type_id("person").unwrap())
            .select_lt(s.attr_id("budget").unwrap(), Value::Int(10));
        assert!(matches!(
            q.entity_type(&db),
            Err(QueryError::ForeignAttribute(_))
        ));
    }

    #[test]
    fn predicate_matches_and_bounds_agree() {
        let preds = [
            Predicate::Eq(Value::Int(5)),
            Predicate::Lt(Value::Int(5)),
            Predicate::Le(Value::Int(5)),
            Predicate::Gt(Value::Int(5)),
            Predicate::Ge(Value::Int(5)),
            Predicate::Between(Value::Int(3), Value::Int(7)),
            Predicate::Between(Value::Int(7), Value::Int(3)),
        ];
        for p in &preds {
            for v in (0..10).map(Value::Int) {
                // bounds() must describe exactly the set matches() accepts.
                let (lo, hi) = p.bounds();
                let in_lo = lo.is_none_or(|(b, inc)| if inc { &v >= b } else { &v > b });
                let in_hi = hi.is_none_or(|(b, inc)| if inc { &v <= b } else { &v < b });
                assert_eq!(
                    p.matches(&v),
                    in_lo && in_hi,
                    "bounds/matches disagree for {p:?} at {v:?}"
                );
            }
        }
        assert!(Predicate::Between(Value::Int(7), Value::Int(3)).is_empty());
        assert!(!Predicate::Between(Value::Int(3), Value::Int(3)).is_empty());
        assert_eq!(Predicate::Eq(Value::Int(1)).as_eq(), Some(&Value::Int(1)));
        assert_eq!(Predicate::Lt(Value::Int(1)).as_eq(), None);
    }

    #[test]
    fn int_range_agrees_with_matches() {
        let preds = [
            Predicate::Eq(Value::Int(5)),
            Predicate::Lt(Value::Int(5)),
            Predicate::Le(Value::Int(5)),
            Predicate::Gt(Value::Int(5)),
            Predicate::Ge(Value::Int(5)),
            Predicate::Between(Value::Int(3), Value::Int(7)),
            Predicate::Between(Value::Int(7), Value::Int(3)),
            // Cross-variant constants resolve through Int < Str < Bool.
            Predicate::Eq(Value::str("x")),
            Predicate::Lt(Value::str("x")),
            Predicate::Gt(Value::str("x")),
            Predicate::Le(Value::Bool(false)),
            Predicate::Ge(Value::Bool(true)),
            Predicate::Between(Value::Int(2), Value::str("z")),
        ];
        for p in &preds {
            let range = p.int_range();
            for i in -10..=10 {
                let in_range = range.is_some_and(|(lo, hi)| lo <= i && i <= hi);
                assert_eq!(
                    p.matches(&Value::Int(i)),
                    in_range,
                    "int_range/matches disagree for {p:?} at {i}"
                );
            }
        }
        // Exclusive bounds at the i64 edges collapse to the empty set
        // instead of wrapping.
        assert_eq!(Predicate::Lt(Value::Int(i64::MIN)).int_range(), None);
        assert_eq!(Predicate::Gt(Value::Int(i64::MAX)).int_range(), None);
        assert_eq!(
            Predicate::Lt(Value::str("x")).int_range(),
            Some((i64::MIN, i64::MAX))
        );
    }

    #[test]
    fn order_by_is_type_preserving_and_orders_output() {
        let db = loaded_db();
        let s = db.schema();
        let employee = s.type_id("employee").unwrap();
        let age = s.attr_id("age").unwrap();
        let budget = s.attr_id("budget").unwrap();
        // The set result ignores the ordering…
        let q = Query::scan(employee).order_by_asc(age);
        let (t, rel) = q.execute(&db).unwrap();
        assert_eq!(t, employee);
        assert_eq!(rel.len(), 2);
        // …the ordered result honours it, both directions.
        let (_, asc) = q.execute_ordered(&db).unwrap();
        let ages: Vec<_> = asc.iter().map(|t| t.get(age).cloned().unwrap()).collect();
        assert_eq!(ages, vec![Value::Int(30), Value::Int(40)]);
        let q = Query::scan(employee).order_by(vec![(age, SortDir::Desc)]);
        let (_, desc) = q.execute_ordered(&db).unwrap();
        let ages: Vec<_> = desc.iter().map(|t| t.get(age).cloned().unwrap()).collect();
        assert_eq!(ages, vec![Value::Int(40), Value::Int(30)]);
        // Without an OrderBy the ordered result is the canonical order.
        let (_, plain) = Query::scan(employee).execute_ordered(&db).unwrap();
        assert_eq!(plain.len(), 2);
        // Nested orderings: the outermost wins.
        let q = Query::scan(employee)
            .order_by_asc(age)
            .order_by(vec![(age, SortDir::Desc)]);
        assert_eq!(q.root_order(), &[(age, SortDir::Desc)]);
        let (_, v) = q.execute_ordered(&db).unwrap();
        assert_eq!(v.first().unwrap().get(age), Some(&Value::Int(40)));
        // A sort key outside the input type is rejected like any other
        // foreign attribute.
        let q = Query::scan(employee).order_by_asc(budget);
        assert!(matches!(
            q.entity_type(&db),
            Err(QueryError::ForeignAttribute(_))
        ));
    }

    #[test]
    fn sanctioned_join_types_as_worksfor() {
        let db = loaded_db();
        let s = db.schema();
        let q = Query::scan(s.type_id("employee").unwrap())
            .join(Query::scan(s.type_id("department").unwrap()));
        let (t, rel) = q.execute(&db).unwrap();
        assert_eq!(t, s.type_id("worksfor").unwrap());
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn unsanctioned_join_is_rejected() {
        let db = loaded_db();
        let s = db.schema();
        // person ⋈ department = {name, age, depname, location}… that IS
        // worksfor! Use manager ⋈ department = all five attributes — no
        // entity type covers that.
        let q = Query::scan(s.type_id("manager").unwrap())
            .join(Query::scan(s.type_id("department").unwrap()));
        assert_eq!(
            q.entity_type(&db).unwrap_err(),
            QueryError::JoinNotAnEntityType
        );
    }

    #[test]
    fn downward_projection_is_rejected() {
        let db = loaded_db();
        let s = db.schema();
        let q = Query::scan(s.type_id("person").unwrap()).project(s.type_id("employee").unwrap());
        assert!(matches!(
            q.entity_type(&db),
            Err(QueryError::NotAGeneralisation { .. })
        ));
    }

    #[test]
    fn foreign_selection_attribute_is_rejected() {
        let db = loaded_db();
        let s = db.schema();
        let q = Query::scan(s.type_id("person").unwrap())
            .select(s.attr_id("budget").unwrap(), Value::Int(1));
        assert!(matches!(
            q.entity_type(&db),
            Err(QueryError::ForeignAttribute(_))
        ));
    }

    #[test]
    fn union_and_intersection_are_type_preserving() {
        let db = loaded_db();
        let s = db.schema();
        let employee = s.type_id("employee").unwrap();
        let dep = s.attr_id("depname").unwrap();
        let sales = Query::scan(employee).select(dep, Value::str("sales"));
        let research = Query::scan(employee).select(dep, Value::str("research"));
        let (t, both) = sales.clone().union(research.clone()).execute(&db).unwrap();
        assert_eq!(t, employee);
        assert_eq!(both.len(), 2);
        let (t2, none) = sales.intersect(research).execute(&db).unwrap();
        assert_eq!(t2, employee);
        assert!(none.is_empty());
    }

    #[test]
    fn cross_type_set_operations_are_rejected() {
        let db = loaded_db();
        let s = db.schema();
        let q = Query::scan(s.type_id("employee").unwrap())
            .union(Query::scan(s.type_id("department").unwrap()));
        assert!(matches!(
            q.entity_type(&db),
            Err(QueryError::TypeMismatch(_, _))
        ));
    }

    #[test]
    fn every_result_is_updatable_in_principle() {
        // The invariant the algebra exists for: every well-typed query has
        // an entity type, so its tuples are instances of a declared type.
        let db = loaded_db();
        let s = db.schema();
        let queries = [
            Query::scan(s.type_id("employee").unwrap()),
            Query::scan(s.type_id("employee").unwrap()).project(s.type_id("person").unwrap()),
            Query::scan(s.type_id("employee").unwrap())
                .join(Query::scan(s.type_id("department").unwrap())),
        ];
        for q in queries {
            let (t, rel) = q.execute(&db).unwrap();
            let want = s.attrs_of(t);
            for tuple in rel.iter() {
                assert_eq!(&tuple.attr_set(s.attr_count()), want);
            }
        }
    }
}
