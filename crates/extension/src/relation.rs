//! Relations: finite sets of instances, `R_e ∈ P(D_e)` (§4.1).

use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::de::{required, Reader};
use serde::json::JsonError;
use serde::{Deserialize, Serialize};
use toposem_core::{AttrId, Schema, TypeId};
use toposem_topology::BitSet;

use crate::instance::{Instance, InstanceError};

/// The set of instances of one entity type. A `BTreeSet` keeps iteration
/// deterministic (instances order lexicographically by attribute id and
/// value), which the figure regenerators and tests rely on.
///
/// The set is copy-on-write: a clone shares it, and the first mutation
/// of a shared relation copies the set's spine (its rows are shared
/// handles, so that copy is refcount bumps). Cloning a database — an
/// MVCC snapshot — is therefore O(types), and a commit pays only for the
/// relations it actually changes.
///
/// Every change draws a fresh [`version`](Relation::version) stamp from
/// a process-wide counter, so two relations with the same stamp hold
/// the same tuples: derived data (statistics) can be carried across
/// snapshots keyed on it.
#[derive(Clone, Debug)]
pub struct Relation {
    tuples: Arc<BTreeSet<Instance>>,
    version: u64,
}

fn next_version() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Default for Relation {
    fn default() -> Self {
        Relation::from_set(BTreeSet::new())
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.tuples == other.tuples
    }
}

impl Eq for Relation {}

/// Serialised as the derived form of the former plain struct,
/// `{"tuples":[…]}`; the version stamp is process-local and not stored.
impl Serialize for Relation {
    fn serialize(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"tuples\":");
        self.tuples.serialize(out);
        out.push(b'}');
    }
}

impl Deserialize for Relation {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        let mut tuples: Option<BTreeSet<Instance>> = None;
        r.object(|key, r| {
            Ok(match key {
                "tuples" if tuples.is_none() => {
                    tuples = Some(BTreeSet::deserialize(r)?);
                    true
                }
                _ => false,
            })
        })?;
        Ok(Relation::from_set(required(tuples, "Relation", "tuples")?))
    }
}

impl Relation {
    /// The empty relation.
    pub fn new() -> Self {
        Self::default()
    }

    fn from_set(tuples: BTreeSet<Instance>) -> Self {
        Relation {
            tuples: Arc::new(tuples),
            version: next_version(),
        }
    }

    /// Whether a clone (a snapshot) still shares the tuple set, so the
    /// next write copies it. Writers check for a no-op first in that
    /// case: a write that changes nothing must never copy.
    fn shared(&self) -> bool {
        Arc::strong_count(&self.tuples) > 1
    }

    /// Applies `change` to the tuple set — copying it first if shared —
    /// and stamps a new version when it reports a change.
    fn write(&mut self, change: impl FnOnce(&mut BTreeSet<Instance>) -> bool) -> bool {
        let changed = change(Arc::make_mut(&mut self.tuples));
        if changed {
            self.version = next_version();
        }
        changed
    }

    /// Inserts a tuple; returns whether it was new.
    pub fn insert(&mut self, t: Instance) -> bool {
        if self.shared() && self.tuples.contains(&t) {
            return false;
        }
        self.write(|s| s.insert(t))
    }

    /// Removes a tuple; returns whether it was present.
    pub fn remove(&mut self, t: &Instance) -> bool {
        if self.shared() && !self.tuples.contains(t) {
            return false;
        }
        self.write(|s| s.remove(t))
    }

    /// Membership test.
    pub fn contains(&self, t: &Instance) -> bool {
        self.tuples.contains(t)
    }

    /// The stored handle equal to `t`, if any.
    pub fn get(&self, t: &Instance) -> Option<&Instance> {
        self.tuples.get(t)
    }

    /// The tuples whose leading fields are exactly `prefix`'s fields, in
    /// canonical order — one contiguous range of the set. When the
    /// attributes of `prefix` are the first attributes (by id) of every
    /// tuple here, this is every tuple projecting onto `prefix`.
    pub fn with_prefix<'a>(&'a self, prefix: &'a Instance) -> impl Iterator<Item = &'a Instance> {
        self.tuples
            .range(prefix..)
            .take_while(move |u| u.fields().starts_with(prefix.fields()))
    }

    /// A stamp that changes whenever the tuples do: equal stamps mean
    /// equal contents (clones share their original's stamp until either
    /// side changes).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterates tuples in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &Instance> {
        self.tuples.iter()
    }

    /// The projection `π^e_s(R_s)` of this whole relation onto the
    /// attribute set of a generalisation (§4.1). Duplicate projections
    /// collapse — projection is a set mapping into `P(D_e)`.
    pub fn project_to_type(
        &self,
        schema: &Schema,
        from: TypeId,
        to: TypeId,
    ) -> Result<Relation, InstanceError> {
        // Validate the direction once, then project tuple-wise.
        if !schema.attrs_of(to).is_subset(schema.attrs_of(from)) {
            return Err(InstanceError::NotAGeneralisation {
                from: schema.type_name(from).to_owned(),
                to: schema.type_name(to).to_owned(),
            });
        }
        Ok(self.project(schema.attrs_of(to)))
    }

    /// Projects onto an arbitrary attribute set.
    pub fn project(&self, target: &BitSet) -> Relation {
        self.tuples.iter().map(|t| t.project(target)).collect()
    }

    /// Set inclusion `self ⊆ other`.
    pub fn is_subset(&self, other: &Relation) -> bool {
        self.tuples.is_subset(&other.tuples)
    }

    /// Set union (used by extension mappings to collect information stored
    /// in specialisations).
    pub fn union_with(&mut self, other: &Relation) {
        if self.is_empty() {
            // Nothing to merge into: share the other set outright.
            *self = other.clone();
            return;
        }
        for t in other.iter() {
            self.insert(t.clone());
        }
    }

    /// Retains only tuples matching the predicate (selection).
    pub fn retain<F: FnMut(&Instance) -> bool>(&mut self, mut f: F) {
        if self.shared() && self.tuples.iter().all(&mut f) {
            return;
        }
        self.write(|s| {
            let before = s.len();
            s.retain(|t| f(t));
            s.len() != before
        });
    }

    /// Selection as a new relation.
    pub fn select<F: Fn(&Instance) -> bool>(&self, f: F) -> Relation {
        self.tuples.iter().filter(|t| f(t)).cloned().collect()
    }

    /// Splits the relation into *morsels* — contiguous runs of at most
    /// `size` tuples in canonical iteration order. The concatenation of
    /// all morsels is exactly [`Relation::iter`], so the columnar scan
    /// that evaluates morsel by morsel emits rows in canonical order.
    ///
    /// `size` is clamped to at least 1.
    pub fn morsels(&self, size: usize) -> impl Iterator<Item = Vec<&Instance>> {
        let size = size.max(1);
        let mut iter = self.tuples.iter();
        std::iter::from_fn(move || {
            let part: Vec<&Instance> = iter.by_ref().take(size).collect();
            (!part.is_empty()).then_some(part)
        })
    }

    /// Number of distinct values of `attr` across the relation (tuples
    /// lacking the attribute don't contribute). The statistics layer uses
    /// this to estimate access-path selectivity.
    pub fn distinct_count(&self, attr: AttrId) -> usize {
        self.tuples
            .iter()
            .filter_map(|t| t.get(attr))
            .collect::<HashSet<_>>()
            .len()
    }
}

impl FromIterator<Instance> for Relation {
    fn from_iter<I: IntoIterator<Item = Instance>>(iter: I) -> Self {
        Relation::from_set(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{DomainCatalog, Value};
    use toposem_core::employee_schema;

    fn emp(s: &Schema, c: &DomainCatalog, name: &str, age: i64, dep: &str) -> Instance {
        Instance::new(
            s,
            c,
            s.type_id("employee").unwrap(),
            &[
                ("name", Value::str(name)),
                ("age", Value::Int(age)),
                ("depname", Value::str(dep)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn insert_remove_contains() {
        let s = employee_schema();
        let c = DomainCatalog::employee_defaults();
        let mut r = Relation::new();
        let t = emp(&s, &c, "ann", 30, "sales");
        assert!(r.insert(t.clone()));
        assert!(!r.insert(t.clone()));
        assert!(r.contains(&t));
        assert_eq!(r.len(), 1);
        assert!(r.remove(&t));
        assert!(r.is_empty());
    }

    #[test]
    fn projection_collapses_duplicates() {
        let s = employee_schema();
        let c = DomainCatalog::employee_defaults();
        let employee = s.type_id("employee").unwrap();
        let person = s.type_id("person").unwrap();
        let mut r = Relation::new();
        // Same (name, age), different departments.
        r.insert(emp(&s, &c, "ann", 30, "sales"));
        r.insert(emp(&s, &c, "ann", 30, "research"));
        assert_eq!(r.len(), 2);
        let p = r.project_to_type(&s, employee, person).unwrap();
        assert_eq!(p.len(), 1, "projection is a set mapping");
    }

    #[test]
    fn projection_wrong_direction_errors() {
        let s = employee_schema();
        let r = Relation::new();
        let person = s.type_id("person").unwrap();
        let employee = s.type_id("employee").unwrap();
        assert!(r.project_to_type(&s, person, employee).is_err());
    }

    #[test]
    fn subset_and_union() {
        let s = employee_schema();
        let c = DomainCatalog::employee_defaults();
        let t1 = emp(&s, &c, "ann", 30, "sales");
        let t2 = emp(&s, &c, "bob", 40, "admin");
        let mut a = Relation::new();
        a.insert(t1.clone());
        let mut b = Relation::new();
        b.insert(t1);
        b.insert(t2);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        a.union_with(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn morsels_partition_canonical_order() {
        let s = employee_schema();
        let c = DomainCatalog::employee_defaults();
        let r: Relation = (0..10)
            .map(|i| emp(&s, &c, &format!("w{i}"), 20 + i, "sales"))
            .collect();
        // Concatenated morsels equal canonical iteration, for any size.
        for size in [1, 3, 4, 10, 99] {
            let glued: Vec<&Instance> = r.morsels(size).flatten().collect();
            let canonical: Vec<&Instance> = r.iter().collect();
            assert_eq!(glued, canonical, "morsel size {size}");
            for m in r.morsels(size) {
                assert!(!m.is_empty() && m.len() <= size);
            }
        }
        // A zero size is clamped, not a panic or an infinite loop.
        assert_eq!(r.morsels(0).count(), 10);
        assert_eq!(Relation::new().morsels(4).count(), 0);
    }

    #[test]
    fn clones_share_until_written() {
        let s = employee_schema();
        let c = DomainCatalog::employee_defaults();
        let (ann, bob, cy) = (
            emp(&s, &c, "ann", 30, "sales"),
            emp(&s, &c, "bob", 40, "admin"),
            emp(&s, &c, "cy", 50, "admin"),
        );
        let mut a: Relation = [ann.clone(), bob.clone()].into_iter().collect();
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.tuples, &b.tuples));
        assert_eq!(a.version(), b.version());
        // Writes that change nothing neither copy a shared set nor
        // restamp it.
        assert!(!a.insert(ann.clone()));
        assert!(!a.remove(&cy));
        a.retain(|_| true);
        assert!(Arc::ptr_eq(&a.tuples, &b.tuples));
        assert_eq!(a.version(), b.version());
        // A real write copies once, restamps, and leaves the clone alone.
        assert!(a.insert(cy.clone()));
        assert!(!Arc::ptr_eq(&a.tuples, &b.tuples));
        assert_ne!(a.version(), b.version());
        assert_eq!((a.len(), b.len()), (3, 2));
        assert!(!b.contains(&cy));
        // The copy shares the rows themselves.
        assert!(std::ptr::eq(
            a.get(&ann).unwrap().fields(),
            b.get(&ann).unwrap().fields()
        ));
        // Equality is by contents, whatever the stamps.
        let v = a.version();
        assert!(a.remove(&cy));
        assert!(a.version() > v);
        assert_eq!(a, b);
        a.retain(|t| t != &bob);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn with_prefix_is_the_range_projecting_onto_the_prefix() {
        let s = employee_schema();
        let c = DomainCatalog::employee_defaults();
        let r: Relation = [
            emp(&s, &c, "ann", 30, "sales"),
            emp(&s, &c, "ann", 30, "admin"),
            emp(&s, &c, "ann", 31, "sales"),
            emp(&s, &c, "annie", 30, "sales"),
            emp(&s, &c, "bob", 30, "sales"),
        ]
        .into_iter()
        .collect();
        let person = s.type_id("person").unwrap();
        let ann30 = Instance::new(
            &s,
            &c,
            person,
            &[("name", Value::str("ann")), ("age", Value::Int(30))],
        )
        .unwrap();
        let via_range: Vec<&Instance> = r.with_prefix(&ann30).collect();
        let ap = s.attrs_of(person);
        let via_scan: Vec<&Instance> = r.iter().filter(|u| u.project(ap) == ann30).collect();
        assert_eq!(via_range.len(), 2);
        assert_eq!(via_range, via_scan);
    }

    #[test]
    fn serialised_form_is_the_former_derived_form() {
        let s = employee_schema();
        let c = DomainCatalog::employee_defaults();
        let r: Relation = [emp(&s, &c, "ann", 30, "sales")].into_iter().collect();
        let json = serde_json::to_string(&r).unwrap();
        assert_eq!(
            json,
            r#"{"tuples":[{"fields":[[0,{"Str":"ann"}],[1,{"Int":30}],[2,{"Str":"sales"}]]}]}"#
        );
        let back: Relation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert!(serde_json::from_str::<Relation>(r#"{"rows":[]}"#).is_err());
        assert!(serde_json::from_str::<Instance>(r#"{"fields":7}"#).is_err());
    }

    #[test]
    fn selection() {
        let s = employee_schema();
        let c = DomainCatalog::employee_defaults();
        let age = s.attr_id("age").unwrap();
        let r: Relation = [
            emp(&s, &c, "ann", 30, "sales"),
            emp(&s, &c, "bob", 40, "admin"),
        ]
        .into_iter()
        .collect();
        let young = r.select(|t| matches!(t.get(age), Some(Value::Int(a)) if *a < 35));
        assert_eq!(young.len(), 1);
    }
}
