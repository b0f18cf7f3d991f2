//! Entity instances (§4.1).
//!
//! "An instance of entity type `e`, denoted `t_e`, is a member of `R_e`; in
//! the old terminology: `R_e` is a relation over `e` and `t_e` is a tuple in
//! `R_e`." An instance assigns a value to every attribute of its type —
//! the paper's "taking a single cut" through the attribute disks (F1).

use std::sync::Arc;

use serde::de::{required, Reader};
use serde::json::JsonError;
use serde::{Deserialize, Serialize};
use toposem_core::{AttrId, Schema, TypeId};
use toposem_topology::BitSet;

use crate::value::{DomainCatalog, Value};

/// A tuple over an attribute set: `(AttrId, Value)` pairs sorted by
/// attribute id. The attribute set is implicit in the pairs, making
/// projection a simple filter.
///
/// The pairs are immutable and shared: cloning an instance is a
/// reference-count bump, so a relation, every index over it, and every
/// snapshot that still sees it hold one copy of the row between them.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Instance {
    fields: Arc<[(AttrId, Value)]>,
}

/// Serialised as the derived form of the former `Vec`-backed struct,
/// `{"fields":[[attr,value],…]}`, so snapshots and checkpoints keep
/// their bytes.
impl Serialize for Instance {
    fn serialize(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"fields\":");
        self.fields.serialize(out);
        out.push(b'}');
    }
}

impl Deserialize for Instance {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        let mut fields: Option<Vec<(AttrId, Value)>> = None;
        r.object(|key, r| {
            Ok(match key {
                "fields" if fields.is_none() => {
                    fields = Some(Vec::deserialize(r)?);
                    true
                }
                _ => false,
            })
        })?;
        Ok(Instance {
            fields: required(fields, "Instance", "fields")?.into(),
        })
    }
}

/// Errors raised when constructing or projecting instances.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InstanceError {
    /// The instance is missing an attribute its entity type requires.
    MissingAttribute { attr: String },
    /// The instance carries an attribute outside its entity type.
    ForeignAttribute { attr: String },
    /// A value lies outside the attribute's atomic value set.
    OutsideDomain { attr: String, value: String },
    /// Projection target is not a generalisation of the source type.
    NotAGeneralisation { from: String, to: String },
}

impl std::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceError::MissingAttribute { attr } => {
                write!(f, "missing attribute `{attr}`")
            }
            InstanceError::ForeignAttribute { attr } => {
                write!(f, "attribute `{attr}` does not belong to the entity type")
            }
            InstanceError::OutsideDomain { attr, value } => {
                write!(f, "value {value} outside the domain of attribute `{attr}`")
            }
            InstanceError::NotAGeneralisation { from, to } => {
                write!(
                    f,
                    "`{to}` is not a generalisation of `{from}`; cannot project"
                )
            }
        }
    }
}

impl std::error::Error for InstanceError {}

impl Instance {
    /// Builds an instance of `ty` from `(attribute name, value)` pairs,
    /// validating exact attribute coverage and domain membership.
    pub fn new(
        schema: &Schema,
        catalog: &DomainCatalog,
        ty: TypeId,
        fields: &[(&str, Value)],
    ) -> Result<Self, InstanceError> {
        let layout = Self::layout(schema, catalog, ty, fields.iter().map(|(n, v)| (*n, v)))?;
        Ok(Instance {
            fields: layout
                .into_iter()
                .map(|(a, i)| (a, fields[i].1.clone()))
                .collect(),
        })
    }

    /// [`Instance::new`] over owned pairs, moving each value into the
    /// instance instead of copying it. Validation runs first: on error
    /// `fields` is untouched; on success every value the instance took is
    /// left behind as a placeholder, so the caller drops `fields`.
    pub(crate) fn take_named(
        schema: &Schema,
        catalog: &DomainCatalog,
        ty: TypeId,
        fields: &mut [(String, Value)],
    ) -> Result<Self, InstanceError> {
        let layout = Self::layout(
            schema,
            catalog,
            ty,
            fields.iter().map(|(n, v)| (n.as_str(), v)),
        )?;
        Ok(Instance {
            fields: layout
                .into_iter()
                .map(|(a, i)| (a, std::mem::replace(&mut fields[i].1, Value::Int(0))))
                .collect(),
        })
    }

    /// Checks named fields against `ty` — every name an attribute of
    /// `ty`, every value in its attribute's domain, every attribute of
    /// `ty` covered — and returns, in attribute order, each attribute
    /// with the position of the pair supplying it (the first, when a name
    /// repeats).
    fn layout<'f>(
        schema: &Schema,
        catalog: &DomainCatalog,
        ty: TypeId,
        fields: impl ExactSizeIterator<Item = (&'f str, &'f Value)>,
    ) -> Result<Vec<(AttrId, usize)>, InstanceError> {
        let want = schema.attrs_of(ty);
        let mut layout: Vec<(AttrId, usize)> = Vec::with_capacity(fields.len());
        for (i, (name, value)) in fields.enumerate() {
            let attr = schema
                .attr_id(name)
                .ok_or_else(|| InstanceError::ForeignAttribute {
                    attr: name.to_owned(),
                })?;
            if !want.contains(attr.index()) {
                return Err(InstanceError::ForeignAttribute {
                    attr: name.to_owned(),
                });
            }
            if !catalog.admits(schema, attr, value) {
                return Err(InstanceError::OutsideDomain {
                    attr: name.to_owned(),
                    value: value.to_string(),
                });
            }
            layout.push((attr, i));
        }
        // Stable, so a repeated attribute keeps its first pair.
        layout.sort_by_key(|(a, _)| *a);
        layout.dedup_by(|a, b| a.0 == b.0);
        if layout.len() != want.card() {
            // Find the first missing attribute for the diagnostic.
            let have: Vec<usize> = layout.iter().map(|(a, _)| a.index()).collect();
            let missing = want
                .iter()
                .find(|i| !have.contains(i))
                .map(|i| schema.attr_name(AttrId(i as u32)).to_owned())
                .unwrap_or_else(|| "<duplicate>".to_owned());
            return Err(InstanceError::MissingAttribute { attr: missing });
        }
        Ok(layout)
    }

    /// Builds an instance from already-validated `(AttrId, Value)` pairs.
    /// The caller guarantees coverage and domain membership (used by the
    /// generators and join machinery, which construct values from validated
    /// inputs).
    pub fn from_parts(mut fields: Vec<(AttrId, Value)>) -> Self {
        fields.sort_by_key(|(a, _)| *a);
        Instance {
            fields: fields.into(),
        }
    }

    /// The attribute set this instance covers.
    pub fn attr_set(&self, universe: usize) -> BitSet {
        BitSet::from_indices(universe, self.fields.iter().map(|(a, _)| a.index()))
    }

    /// The value of attribute `a`, if present.
    pub fn get(&self, a: AttrId) -> Option<&Value> {
        self.fields
            .binary_search_by_key(&a, |(attr, _)| *attr)
            .ok()
            .map(|i| &self.fields[i].1)
    }

    /// All fields in attribute-id order.
    pub fn fields(&self) -> &[(AttrId, Value)] {
        &self.fields
    }

    /// Number of attributes.
    pub fn width(&self) -> usize {
        self.fields.len()
    }

    /// The projection `π` onto attribute set `target` (a subset of this
    /// instance's attributes): keeps exactly the listed attributes.
    pub fn project(&self, target: &BitSet) -> Instance {
        Instance {
            fields: self
                .fields
                .iter()
                .filter(|(a, _)| target.contains(a.index()))
                .cloned()
                .collect(),
        }
    }

    /// The projection `π^e_s` of an instance of type `s` onto the domain of
    /// a generalisation `e` (§4.1). Errors unless `A_e ⊆ A_s`.
    pub fn project_to_type(
        &self,
        schema: &Schema,
        from: TypeId,
        to: TypeId,
    ) -> Result<Instance, InstanceError> {
        if !schema.attrs_of(to).is_subset(schema.attrs_of(from)) {
            return Err(InstanceError::NotAGeneralisation {
                from: schema.type_name(from).to_owned(),
                to: schema.type_name(to).to_owned(),
            });
        }
        Ok(self.project(schema.attrs_of(to)))
    }

    /// Two instances are *joinable* when they agree on every shared
    /// attribute.
    pub fn compatible(&self, other: &Instance) -> bool {
        self.shared_attrs(other).is_some()
    }

    /// The number of attributes both instances carry, or `None` when
    /// they disagree on one of them.
    fn shared_attrs(&self, other: &Instance) -> Option<usize> {
        let (mut i, mut j, mut shared) = (0, 0, 0);
        while i < self.fields.len() && j < other.fields.len() {
            match self.fields[i].0.cmp(&other.fields[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if self.fields[i].1 != other.fields[j].1 {
                        return None;
                    }
                    shared += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        Some(shared)
    }

    /// Merges two compatible instances (the tuple-level natural join):
    /// the collected [`Self::merged`] view. Panics when incompatible —
    /// callers must check [`Self::compatible`].
    pub fn merge(&self, other: &Instance) -> Instance {
        let shared = self
            .shared_attrs(other)
            .expect("merging incompatible instances");
        let mut fields = Vec::with_capacity(self.width() + other.width() - shared);
        fields.extend(self.merged(other).cloned());
        Instance {
            fields: fields.into(),
        }
    }

    /// The natural join of two compatible instances, read without being
    /// built: their fields in attribute-id order, each shared attribute
    /// once. The joined tuple is fully determined by its constituents
    /// (each is a projection π of it, §4.2), so this view *is* the
    /// tuple [`Self::merge`] collects.
    pub fn merged<'a>(&'a self, other: &'a Instance) -> MergedFields<'a> {
        MergedFields {
            l: &self.fields,
            r: &other.fields,
        }
    }

    /// Renders the instance with attribute names for diagnostics.
    pub fn display(&self, schema: &Schema) -> String {
        let parts: Vec<String> = self
            .fields
            .iter()
            .map(|(a, v)| format!("{}={}", schema.attr_name(*a), v))
            .collect();
        format!("({})", parts.join(", "))
    }
}

/// The fields of a natural-join tuple read from its two constituents:
/// one two-pointer pass over both id-sorted lists, in attribute-id
/// order, a shared attribute taken once (from the left side; the two
/// sides agree on it).
#[derive(Clone, Debug)]
pub struct MergedFields<'a> {
    l: &'a [(AttrId, Value)],
    r: &'a [(AttrId, Value)],
}

impl<'a> Iterator for MergedFields<'a> {
    type Item = &'a (AttrId, Value);

    fn next(&mut self) -> Option<Self::Item> {
        let (l, r) = (self.l, self.r);
        let (take_l, take_r) = match (l.first(), r.first()) {
            (None, None) => return None,
            (Some(_), None) => (true, false),
            (None, Some(_)) => (false, true),
            (Some(a), Some(b)) => match a.0.cmp(&b.0) {
                std::cmp::Ordering::Less => (true, false),
                std::cmp::Ordering::Greater => (false, true),
                std::cmp::Ordering::Equal => (true, true),
            },
        };
        if take_r {
            self.r = &r[1..];
        }
        if take_l {
            self.l = &l[1..];
            return l.first();
        }
        r.first()
    }
}

/// A result row as the executor carries it: one instance, or the
/// (build, probe) pair of a natural join that has not been merged.
///
/// A pair reads through [`Instance::merged`], and equality, order,
/// and hashing are those of the merged tuple, so a row behaves exactly
/// like the [`Instance`] that [`Row::into_instance`] builds.
#[derive(Clone, Debug)]
pub enum Row {
    /// A stored, projected, or materialised instance.
    One(Instance),
    /// Two compatible instances standing for their natural join.
    Pair(Instance, Instance),
}

impl Row {
    /// The value of attribute `a`, if present.
    pub fn get(&self, a: AttrId) -> Option<&Value> {
        match self {
            Row::One(t) => t.get(a),
            Row::Pair(l, r) => l.get(a).or_else(|| r.get(a)),
        }
    }

    /// All fields in attribute-id order.
    pub fn fields(&self) -> MergedFields<'_> {
        match self {
            Row::One(t) => MergedFields {
                l: &t.fields,
                r: &[],
            },
            Row::Pair(l, r) => l.merged(r),
        }
    }

    /// Number of attributes.
    pub fn width(&self) -> usize {
        match self {
            Row::One(t) => t.width(),
            Row::Pair(..) => self.fields().count(),
        }
    }

    /// The projection `π` onto attribute set `target`, read through the
    /// merged view.
    pub fn project(&self, target: &BitSet) -> Instance {
        match self {
            Row::One(t) => t.project(target),
            Row::Pair(..) => Instance {
                fields: self
                    .fields()
                    .filter(|(a, _)| target.contains(a.index()))
                    .cloned()
                    .collect(),
            },
        }
    }

    /// The row as one instance: a pair is merged here (or in
    /// [`Row::materialise`]), and nowhere else.
    pub fn into_instance(self) -> Instance {
        match self {
            Row::One(t) => t,
            Row::Pair(l, r) => l.merge(&r),
        }
    }

    /// Merges a pair in place and returns the instance the row now is.
    pub fn materialise(&mut self) -> &Instance {
        if let Row::Pair(l, r) = self {
            let merged = l.merge(r);
            *self = Row::One(merged);
        }
        match self {
            Row::One(t) => t,
            Row::Pair(..) => unreachable!("merged above"),
        }
    }
}

impl PartialEq for Row {
    fn eq(&self, other: &Row) -> bool {
        self.fields().eq(other.fields())
    }
}

impl Eq for Row {}

impl PartialOrd for Row {
    fn partial_cmp(&self, other: &Row) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Lexicographic over the fields, as [`Instance`]'s derived order is
/// over its field slice.
impl Ord for Row {
    fn cmp(&self, other: &Row) -> std::cmp::Ordering {
        self.fields().cmp(other.fields())
    }
}

/// Feeds the hasher what [`Instance`]'s derived `Hash` feeds it: the
/// field count, then every `(attribute, value)` pair in order.
impl std::hash::Hash for Row {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Row::One(t) => t.hash(state),
            Row::Pair(..) => {
                state.write_usize(self.width());
                for f in self.fields() {
                    f.hash(state);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toposem_core::employee_schema;

    fn setup() -> (Schema, DomainCatalog) {
        (employee_schema(), DomainCatalog::employee_defaults())
    }

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
    fn construction_validates_coverage() {
        let (s, c) = setup();
        let e = s.type_id("employee").unwrap();
        let err = Instance::new(&s, &c, e, &[("name", Value::str("ann"))]).unwrap_err();
        assert!(matches!(err, InstanceError::MissingAttribute { .. }));
    }

    #[test]
    fn construction_validates_domains() {
        let (s, c) = setup();
        let e = s.type_id("employee").unwrap();
        let err = Instance::new(
            &s,
            &c,
            e,
            &[
                ("name", Value::str("ann")),
                ("age", Value::Int(2000)),
                ("depname", Value::str("sales")),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, InstanceError::OutsideDomain { .. }));
    }

    #[test]
    fn construction_rejects_foreign_attributes() {
        let (s, c) = setup();
        let person = s.type_id("person").unwrap();
        let err = Instance::new(
            &s,
            &c,
            person,
            &[
                ("name", Value::str("ann")),
                ("age", Value::Int(30)),
                ("budget", Value::Int(1)),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, InstanceError::ForeignAttribute { .. }));
    }

    #[test]
    fn projection_to_generalisation() {
        let (s, c) = setup();
        let t = emp(&s, &c, "ann", 30, "sales");
        let person = s.type_id("person").unwrap();
        let employee = s.type_id("employee").unwrap();
        let p = t.project_to_type(&s, employee, person).unwrap();
        assert_eq!(p.width(), 2);
        assert_eq!(p.get(s.attr_id("name").unwrap()), Some(&Value::str("ann")));
        assert_eq!(p.get(s.attr_id("depname").unwrap()), None);
    }

    #[test]
    fn projection_to_non_generalisation_fails() {
        let (s, c) = setup();
        let t = emp(&s, &c, "ann", 30, "sales");
        let employee = s.type_id("employee").unwrap();
        let manager = s.type_id("manager").unwrap();
        assert!(matches!(
            t.project_to_type(&s, employee, manager),
            Err(InstanceError::NotAGeneralisation { .. })
        ));
    }

    #[test]
    fn compatibility_and_merge() {
        let (s, c) = setup();
        let e = emp(&s, &c, "ann", 30, "sales");
        let dep = Instance::new(
            &s,
            &c,
            s.type_id("department").unwrap(),
            &[
                ("depname", Value::str("sales")),
                ("location", Value::str("amsterdam")),
            ],
        )
        .unwrap();
        assert!(e.compatible(&dep));
        let joined = e.merge(&dep);
        assert_eq!(joined.width(), 4); // name, age, depname, location
        assert_eq!(joined, dep.merge(&e), "merge is symmetric");
        let mut all = e.fields().to_vec();
        all.extend(dep.fields().iter().cloned());
        all.sort();
        all.dedup();
        assert_eq!(joined.fields(), &all[..], "canonical attribute order");

        let dep2 = Instance::new(
            &s,
            &c,
            s.type_id("department").unwrap(),
            &[
                ("depname", Value::str("research")),
                ("location", Value::str("utrecht")),
            ],
        )
        .unwrap();
        assert!(!e.compatible(&dep2));
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn merge_incompatible_panics() {
        let (s, c) = setup();
        let a = emp(&s, &c, "ann", 30, "sales");
        let b = emp(&s, &c, "ann", 31, "sales");
        let _ = a.merge(&b);
    }

    #[test]
    fn field_order_is_canonical() {
        let (s, c) = setup();
        let e = s.type_id("employee").unwrap();
        let t1 = Instance::new(
            &s,
            &c,
            e,
            &[
                ("depname", Value::str("sales")),
                ("name", Value::str("ann")),
                ("age", Value::Int(30)),
            ],
        )
        .unwrap();
        let t2 = emp(&s, &c, "ann", 30, "sales");
        assert_eq!(t1, t2);
    }
}
