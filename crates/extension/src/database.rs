//! The database extension: one relation per entity type, kept consistent
//! with the intension via the containment condition (§4.1):
//!
//! ```text
//! e, s ∈ E such that s ∈ S_e :  π^e_s(R_s) ⊆ R_e
//! ```
//!
//! Two maintenance policies are supported (the ablation DESIGN.md calls
//! out): **eager**, where inserting an instance of `s` immediately inserts
//! its projections into every generalisation, so that `R_e` is always
//! materialised; and **on-demand**, where only the declared relation is
//! written and the full extension of `e` is *collected* at read time as
//! `∪_{s ∈ S_e} π^e_s(R_s)` — the paper's "information about entity type
//! instances might be 'stored' within its specialisations only".

use serde::{Deserialize, Serialize};
use toposem_core::{Intension, Schema, TypeId};

use crate::instance::{Instance, InstanceError};
use crate::relation::Relation;
use crate::value::DomainCatalog;

/// How the containment condition is maintained.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ContainmentPolicy {
    /// Insertions propagate projections to all generalisations eagerly.
    Eager,
    /// Relations store only direct insertions; extensions are collected
    /// from specialisations at read time.
    OnDemand,
}

/// A database: an intension plus one [`Relation`] per entity type.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Database {
    intension: Intension,
    catalog: DomainCatalog,
    relations: Vec<Relation>,
    policy: ContainmentPolicy,
}

/// A containment violation found by [`Database::verify_containment`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContainmentViolation {
    /// The specialised type whose projection escapes.
    pub specialisation: TypeId,
    /// The general type whose relation lacks the projection.
    pub generalisation: TypeId,
    /// One offending projected tuple.
    pub witness: Instance,
}

impl Database {
    /// Creates an empty database over an analysed intension.
    pub fn new(intension: Intension, catalog: DomainCatalog, policy: ContainmentPolicy) -> Self {
        let n = intension.schema().type_count();
        Database {
            intension,
            catalog,
            relations: vec![Relation::new(); n],
            policy,
        }
    }

    /// The intension this database instantiates.
    pub fn intension(&self) -> &Intension {
        &self.intension
    }

    /// Restores lookup indices after deserialisation (serde skips them).
    pub fn rebuild_indices(&mut self) {
        self.intension.rebuild_indices();
    }

    /// The schema (shorthand).
    pub fn schema(&self) -> &Schema {
        self.intension.schema()
    }

    /// The domain catalog.
    pub fn catalog(&self) -> &DomainCatalog {
        &self.catalog
    }

    /// The active containment policy.
    pub fn policy(&self) -> ContainmentPolicy {
        self.policy
    }

    /// The *stored* relation of `e` (policy-dependent; prefer
    /// [`Database::extension`] for the semantic extension).
    pub fn stored(&self, e: TypeId) -> &Relation {
        &self.relations[e.index()]
    }

    /// Builds and validates an instance of `e` from named fields, then
    /// inserts it.
    pub fn insert_fields(
        &mut self,
        e: TypeId,
        fields: &[(&str, crate::value::Value)],
    ) -> Result<bool, InstanceError> {
        let t = Instance::new(self.schema(), &self.catalog, e, fields)?;
        Ok(self.insert(e, t))
    }

    /// Inserts a pre-validated instance of `e`. Under the eager policy the
    /// projections onto every generalisation are inserted too. Returns
    /// whether the tuple was new in `R_e`.
    pub fn insert(&mut self, e: TypeId, t: Instance) -> bool {
        !self.insert_tracked(e, t).is_empty()
    }

    /// Like [`Database::insert`], but returns every `(type, tuple)` pair
    /// that was freshly stored — the instance itself plus any eager
    /// containment propagations. Empty when the tuple already existed.
    /// Transactional engines use this to build exact undo logs.
    pub fn insert_tracked(&mut self, e: TypeId, t: Instance) -> Vec<(TypeId, Instance)> {
        let mut added = Vec::new();
        if self.relations[e.index()].insert(t.clone()) {
            added.push((e, t.clone()));
            if self.policy == ContainmentPolicy::Eager {
                let gens: Vec<TypeId> = self
                    .intension
                    .generalisation()
                    .g_set(e)
                    .iter()
                    .map(|i| TypeId(i as u32))
                    .filter(|&g| g != e)
                    .collect();
                for g in gens {
                    let p = t.project(self.schema().attrs_of(g));
                    if self.relations[g.index()].insert(p.clone()) {
                        added.push((g, p));
                    }
                }
            }
        }
        added
    }

    /// Inserts a pre-validated instance of `e` **without** containment
    /// maintenance — the bulk-load path. The caller is expected to audit
    /// afterwards with [`Database::verify_containment`] and the Extension
    /// Axiom checker; hand-loaded data can violate both, which is exactly
    /// what those auditors exist to detect.
    pub fn insert_unchecked(&mut self, e: TypeId, t: Instance) -> bool {
        self.relations[e.index()].insert(t)
    }

    /// Removes a tuple from exactly one stored relation, with no cascade —
    /// the precise inverse of one entry of [`Database::insert_tracked`],
    /// used by transactional undo. Returns whether the tuple was present.
    pub fn stored_remove(&mut self, e: TypeId, t: &Instance) -> bool {
        self.relations[e.index()].remove(t)
    }

    /// Deletes an instance of `e`, cascading to every specialisation whose
    /// tuples project onto it (the containment condition would otherwise
    /// resurrect the deleted fact). Returns the number of tuples removed
    /// across all relations.
    pub fn delete(&mut self, e: TypeId, t: &Instance) -> usize {
        self.delete_tracked(e, t).len()
    }

    /// Like [`Database::delete`], but returns every `(type, tuple)` pair
    /// it removed — `t` itself when stored, then the cascade's victims,
    /// in type order — mirroring [`Database::insert_tracked`].
    /// Transactional engines use this for undo logs and index upkeep.
    ///
    /// Victims are found before anything is written, so a relation with
    /// none is never touched (and a snapshot sharing it never copied).
    /// When `attrs(e)` are the first attributes of `attrs(s)` in id order
    /// — `person` under `employee` — the tuples of `R_s` projecting onto
    /// `t` are exactly those starting with `t`'s fields: one range of the
    /// canonically ordered set, so the cascade costs O(log n + victims).
    /// Other specialisations are scanned.
    pub fn delete_tracked(&mut self, e: TypeId, t: &Instance) -> Vec<(TypeId, Instance)> {
        let schema = self.intension.schema();
        let ae = schema.attrs_of(e);
        let mut victims = Vec::new();
        for si in self.intension.specialisation().s_set(e).iter() {
            let s = TypeId(si as u32);
            let rel = &self.relations[si];
            let before = victims.len();
            if s == e {
                victims.extend(rel.get(t).map(|u| (s, u.clone())));
            } else if schema.attrs_of(s).iter().take(ae.card()).eq(ae.iter()) {
                victims.extend(rel.with_prefix(t).map(|u| (s, u.clone())));
            } else {
                victims.extend(
                    rel.iter()
                        .filter(|u| u.project(ae) == *t)
                        .map(|u| (s, u.clone())),
                );
            }
            for (_, u) in &victims[before..] {
                self.relations[si].remove(u);
            }
        }
        victims
    }

    /// The semantic extension of `e`: under eager maintenance this is the
    /// stored relation; under on-demand it is collected from all
    /// specialisations, `∪_{s ∈ S_e} π^e_s(R_s)`.
    pub fn extension(&self, e: TypeId) -> Relation {
        match self.policy {
            ContainmentPolicy::Eager => self.relations[e.index()].clone(),
            ContainmentPolicy::OnDemand => {
                let mut out = Relation::new();
                let ae = self.schema().attrs_of(e);
                for si in self.intension.specialisation().s_set(e).iter() {
                    out.union_with(&self.relations[si].project(ae));
                }
                out
            }
        }
    }

    /// The semantic extension of `e` without cloning when the policy
    /// permits: under eager maintenance the stored relation *is* the
    /// extension, so a borrow suffices; under on-demand the collected
    /// union is owned. Executors use this to scan without copying.
    pub fn extension_cow(&self, e: TypeId) -> std::borrow::Cow<'_, Relation> {
        match self.policy {
            ContainmentPolicy::Eager => std::borrow::Cow::Borrowed(&self.relations[e.index()]),
            ContainmentPolicy::OnDemand => std::borrow::Cow::Owned(self.extension(e)),
        }
    }

    /// Cardinality of the semantic extension of `e`, without materialising
    /// it under the eager policy.
    pub fn extension_len(&self, e: TypeId) -> usize {
        match self.policy {
            ContainmentPolicy::Eager => self.relations[e.index()].len(),
            ContainmentPolicy::OnDemand => self.extension(e).len(),
        }
    }

    /// Number of stored tuples across all relations.
    pub fn total_stored(&self) -> usize {
        self.relations.iter().map(|r| r.len()).sum()
    }

    /// Checks the containment condition on the *stored* relations. Under
    /// the eager policy this should never report violations; under
    /// on-demand it checks the collected extensions instead (which hold by
    /// construction) — exposed mainly to audit hand-loaded data.
    pub fn verify_containment(&self) -> Vec<ContainmentViolation> {
        let mut violations = Vec::new();
        let schema = self.schema();
        for e in schema.type_ids() {
            let re = self.extension(e);
            for si in self.intension.specialisation().s_set(e).iter() {
                let s = TypeId(si as u32);
                if s == e {
                    continue;
                }
                let projected = self
                    .extension(s)
                    .project_to_type(schema, s, e)
                    .expect("s ∈ S_e implies A_e ⊆ A_s");
                for t in projected.iter() {
                    if !re.contains(t) {
                        violations.push(ContainmentViolation {
                            specialisation: s,
                            generalisation: e,
                            witness: t.clone(),
                        });
                        break; // one witness per pair suffices
                    }
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use toposem_core::employee_schema;

    fn db(policy: ContainmentPolicy) -> Database {
        Database::new(
            Intension::analyse(employee_schema()),
            DomainCatalog::employee_defaults(),
            policy,
        )
    }

    fn insert_manager(d: &mut Database, name: &str, age: i64, dep: &str, budget: i64) {
        let manager = d.schema().type_id("manager").unwrap();
        d.insert_fields(
            manager,
            &[
                ("name", Value::str(name)),
                ("age", Value::Int(age)),
                ("depname", Value::str(dep)),
                ("budget", Value::Int(budget)),
            ],
        )
        .unwrap();
    }

    #[test]
    fn eager_insert_propagates_to_generalisations() {
        let mut d = db(ContainmentPolicy::Eager);
        insert_manager(&mut d, "ann", 40, "sales", 1000);
        let s = d.schema();
        let employee = s.type_id("employee").unwrap();
        let person = s.type_id("person").unwrap();
        let manager = s.type_id("manager").unwrap();
        assert_eq!(d.stored(manager).len(), 1);
        assert_eq!(d.stored(employee).len(), 1, "manager ISA employee");
        assert_eq!(d.stored(person).len(), 1, "manager ISA person");
        assert!(d.verify_containment().is_empty());
    }

    #[test]
    fn on_demand_collects_from_specialisations() {
        let mut d = db(ContainmentPolicy::OnDemand);
        insert_manager(&mut d, "ann", 40, "sales", 1000);
        let s = d.schema();
        let employee = s.type_id("employee").unwrap();
        let manager = s.type_id("manager").unwrap();
        // Stored only at manager…
        assert_eq!(d.stored(employee).len(), 0);
        assert_eq!(d.stored(manager).len(), 1);
        // …but the collected extension sees the employee.
        assert_eq!(d.extension(employee).len(), 1);
        assert!(d.verify_containment().is_empty());
    }

    #[test]
    fn policies_agree_on_extensions() {
        let mut eager = db(ContainmentPolicy::Eager);
        let mut lazy = db(ContainmentPolicy::OnDemand);
        for (name, age, dep, budget) in [("ann", 40, "sales", 1000), ("bob", 50, "research", 500)] {
            insert_manager(&mut eager, name, age, dep, budget);
            insert_manager(&mut lazy, name, age, dep, budget);
        }
        for e in eager.schema().type_ids() {
            assert_eq!(
                eager.extension(e),
                lazy.extension(e),
                "extensions must agree for {}",
                eager.schema().type_name(e)
            );
        }
        // But storage volume differs (the ablation's point).
        assert!(eager.total_stored() > lazy.total_stored());
    }

    #[test]
    fn delete_cascades_to_specialisations() {
        let mut d = db(ContainmentPolicy::Eager);
        insert_manager(&mut d, "ann", 40, "sales", 1000);
        let s = d.schema();
        let person = s.type_id("person").unwrap();
        let ann_person = Instance::new(
            s,
            d.catalog(),
            person,
            &[("name", Value::str("ann")), ("age", Value::Int(40))],
        )
        .unwrap();
        // Deleting ann as a person must delete the employee and manager
        // facts too — otherwise containment would resurrect her.
        let removed = d.delete(person, &ann_person);
        assert_eq!(removed, 3);
        assert!(d.verify_containment().is_empty());
        assert_eq!(d.total_stored(), 0);
    }

    #[test]
    fn delete_tracked_returns_victims_and_leaves_other_relations_untouched() {
        let mut d = db(ContainmentPolicy::Eager);
        insert_manager(&mut d, "ann", 40, "sales", 1000);
        insert_manager(&mut d, "bob", 50, "research", 500);
        let s = d.schema().clone();
        let worksfor = s.type_id("worksfor").unwrap();
        d.insert_fields(
            worksfor,
            &[
                ("name", Value::str("ann")),
                ("age", Value::Int(40)),
                ("depname", Value::str("sales")),
                ("location", Value::str("amsterdam")),
            ],
        )
        .unwrap();
        let snapshot = d.clone();
        let versions: Vec<u64> = s.type_ids().map(|e| d.stored(e).version()).collect();
        let person = s.type_id("person").unwrap();
        let ann = Instance::new(
            &s,
            d.catalog(),
            person,
            &[("name", Value::str("ann")), ("age", Value::Int(40))],
        )
        .unwrap();
        let victims = d.delete_tracked(person, &ann);
        let types: Vec<&str> = victims.iter().map(|(t, _)| s.type_name(*t)).collect();
        assert_eq!(types, ["employee", "person", "manager", "worksfor"]);
        assert!(victims
            .iter()
            .all(|(_, u)| u.project(s.attrs_of(person)) == ann));
        // Relations without victims were not written (department), the
        // others were; the snapshot taken before is untouched.
        for e in s.type_ids() {
            let touched = victims.iter().any(|(t, _)| *t == e);
            assert_eq!(
                d.stored(e).version() != versions[e.index()],
                touched,
                "{}",
                s.type_name(e)
            );
        }
        assert_eq!(snapshot.total_stored(), d.total_stored() + victims.len());
        assert!(d.verify_containment().is_empty());
        // A second delete finds nothing and writes nothing.
        assert!(d.delete_tracked(person, &ann).is_empty());
    }

    #[test]
    fn non_prefix_cascades_scan() {
        // department's attributes (depname, location) are not the first
        // attributes of worksfor's, so its cascade is the scan path.
        let mut d = db(ContainmentPolicy::Eager);
        let s = d.schema().clone();
        let worksfor = s.type_id("worksfor").unwrap();
        let department = s.type_id("department").unwrap();
        for (n, a) in [("ann", 40), ("bob", 50)] {
            d.insert_fields(
                worksfor,
                &[
                    ("name", Value::str(n)),
                    ("age", Value::Int(a)),
                    ("depname", Value::str("sales")),
                    ("location", Value::str("amsterdam")),
                ],
            )
            .unwrap();
        }
        let sales = Instance::new(
            &s,
            d.catalog(),
            department,
            &[
                ("depname", Value::str("sales")),
                ("location", Value::str("amsterdam")),
            ],
        )
        .unwrap();
        assert_eq!(d.delete(department, &sales), 3);
        assert!(d.stored(worksfor).is_empty());
        assert_eq!(d.stored(s.type_id("person").unwrap()).len(), 2);
        assert!(d.verify_containment().is_empty());
    }

    #[test]
    fn delete_of_specialisation_keeps_generalisation() {
        let mut d = db(ContainmentPolicy::Eager);
        insert_manager(&mut d, "ann", 40, "sales", 1000);
        let s = d.schema();
        let manager = s.type_id("manager").unwrap();
        let employee = s.type_id("employee").unwrap();
        let ann_mgr = Instance::new(
            s,
            d.catalog(),
            manager,
            &[
                ("name", Value::str("ann")),
                ("age", Value::Int(40)),
                ("depname", Value::str("sales")),
                ("budget", Value::Int(1000)),
            ],
        )
        .unwrap();
        // Ann stops being a manager but remains an employee.
        let removed = d.delete(manager, &ann_mgr);
        assert_eq!(removed, 1);
        assert_eq!(d.stored(employee).len(), 1);
        assert!(d.verify_containment().is_empty());
    }

    #[test]
    fn extension_len_and_cow_match_extension() {
        for policy in [ContainmentPolicy::Eager, ContainmentPolicy::OnDemand] {
            let mut d = db(policy);
            insert_manager(&mut d, "ann", 40, "sales", 1000);
            insert_manager(&mut d, "bob", 50, "research", 500);
            for e in d.schema().type_ids() {
                let full = d.extension(e);
                assert_eq!(d.extension_len(e), full.len());
                assert_eq!(d.extension_cow(e).as_ref(), &full);
            }
            // Under eager maintenance the cow is a borrow of the stored
            // relation (no clone); on-demand collects an owned union.
            let person = d.schema().type_id("person").unwrap();
            let is_borrowed = matches!(d.extension_cow(person), std::borrow::Cow::Borrowed(_));
            assert_eq!(is_borrowed, policy == ContainmentPolicy::Eager);
        }
    }

    #[test]
    fn insert_fields_validates_domains() {
        let mut d = db(ContainmentPolicy::Eager);
        let manager = d.schema().type_id("manager").unwrap();
        let err = d
            .insert_fields(
                manager,
                &[
                    ("name", Value::str("x")),
                    ("age", Value::Int(9999)),
                    ("depname", Value::str("sales")),
                    ("budget", Value::Int(5)),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, InstanceError::OutsideDomain { .. }));
    }

    #[test]
    fn hand_loaded_violation_is_detected() {
        // Bypass insert() to simulate a corrupted on-demand load where a
        // *generalisation-level* fact contradicts nothing but an
        // eager-level store misses a projection.
        let mut d = db(ContainmentPolicy::Eager);
        let s = d.schema().clone();
        let manager = s.type_id("manager").unwrap();
        let t = Instance::new(
            &s,
            d.catalog(),
            manager,
            &[
                ("name", Value::str("eve")),
                ("age", Value::Int(33)),
                ("depname", Value::str("admin")),
                ("budget", Value::Int(7)),
            ],
        )
        .unwrap();
        d.relations[manager.index()].insert(t); // no propagation!
        let violations = d.verify_containment();
        assert!(!violations.is_empty());
        // Every violation names manager as the escaping specialisation.
        assert!(violations.iter().all(|v| v.specialisation == manager));
    }
}
