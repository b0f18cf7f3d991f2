//! A stable logical encoding of database mutations, for redo logging.
//!
//! A write-ahead log must outlive the process that wrote it, so records
//! cannot carry `TypeId`/`AttrId` values — those are positional ids of
//! one in-memory `Schema`. A [`LogicalOp`] names the entity type and its
//! attributes *by name* and is re-resolved (and re-validated) against the
//! live schema at replay time ([`LogicalOp::resolve`]). The replayed
//! instance then goes through [`Database::insert_tracked`], so eager
//! containment propagations are **re-derived**, never duplicated in the
//! log, or through [`Database::delete_tracked`], recomputing the ISA
//! cascade the same way the original execution did.

use serde::{Deserialize, Serialize};
use toposem_core::TypeId;

use crate::database::Database;
use crate::instance::{Instance, InstanceError};
use crate::value::Value;

/// One logical mutation: an entity type and the declared instance's
/// named fields. Whether it is an insert or a delete is carried by the
/// log record kind, not duplicated here.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogicalOp {
    /// Entity type name.
    pub entity: String,
    /// `(attribute name, value)` pairs of the declared instance.
    pub fields: Vec<(String, Value)>,
}

/// Errors surfaced when replaying a [`LogicalOp`] against a database.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// The named entity type does not exist in the schema.
    UnknownEntity(String),
    /// The logged fields no longer form a valid instance (missing or
    /// foreign attribute, value outside its domain).
    Invalid(InstanceError),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::UnknownEntity(name) => write!(f, "unknown entity type `{name}`"),
            ReplayError::Invalid(e) => write!(f, "logged operation no longer valid: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl LogicalOp {
    /// Describes the instance `t` of type `e` logically, by name.
    pub fn describe(db: &Database, e: TypeId, t: &Instance) -> LogicalOp {
        let schema = db.schema();
        LogicalOp {
            entity: schema.type_name(e).to_owned(),
            fields: t
                .fields()
                .iter()
                .map(|(a, v)| (schema.attr_name(*a).to_owned(), v.clone()))
                .collect(),
        }
    }

    /// Resolves the named entity and fields against `db`'s live schema,
    /// re-running instance validation. The logged values move into the
    /// instance rather than being copied; on failure the operation comes
    /// back untouched beside the error.
    pub fn resolve(
        mut self,
        db: &Database,
    ) -> Result<(TypeId, Instance), (ReplayError, LogicalOp)> {
        let Some(e) = db.schema().type_id(&self.entity) else {
            return Err((ReplayError::UnknownEntity(self.entity.clone()), self));
        };
        match Instance::take_named(db.schema(), db.catalog(), e, &mut self.fields) {
            Ok(t) => Ok((e, t)),
            Err(err) => Err((ReplayError::Invalid(err), self)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::ContainmentPolicy;
    use crate::value::DomainCatalog;
    use toposem_core::{employee_schema, Intension};

    fn db() -> Database {
        Database::new(
            Intension::analyse(employee_schema()),
            DomainCatalog::employee_defaults(),
            ContainmentPolicy::Eager,
        )
    }

    fn manager_op() -> LogicalOp {
        LogicalOp {
            entity: "manager".into(),
            fields: vec![
                ("name".into(), Value::str("ann")),
                ("age".into(), Value::Int(40)),
                ("depname".into(), Value::str("sales")),
                ("budget".into(), Value::Int(100)),
            ],
        }
    }

    #[test]
    fn describe_then_replay_rederives_propagations() {
        let mut original = db();
        let s = original.schema().clone();
        let manager = s.type_id("manager").unwrap();
        let t = Instance::new(
            &s,
            original.catalog(),
            manager,
            &[
                ("name", Value::str("ann")),
                ("age", Value::Int(40)),
                ("depname", Value::str("sales")),
                ("budget", Value::Int(100)),
            ],
        )
        .unwrap();
        original.insert(manager, t.clone());
        let op = LogicalOp::describe(&original, manager, &t);
        assert_eq!(op, manager_op());

        let mut replayed = db();
        let (re, rt) = op.resolve(&replayed).unwrap();
        assert_eq!((re, &rt), (manager, &t));
        assert!(replayed.insert(re, rt.clone()));
        // The eager propagations into employee and person were re-derived
        // from the single logical record.
        for e in s.type_ids() {
            assert_eq!(replayed.stored(e), original.stored(e));
        }
        // Replay is idempotent (not new the second time).
        assert!(!replayed.insert(re, rt));
    }

    #[test]
    fn delete_replay_recomputes_cascade() {
        let mut d = db();
        let (e, t) = manager_op().resolve(&d).unwrap();
        d.insert(e, t);
        let person_op = LogicalOp {
            entity: "person".into(),
            fields: vec![
                ("name".into(), Value::str("ann")),
                ("age".into(), Value::Int(40)),
            ],
        };
        let (e, t) = person_op.resolve(&d).unwrap();
        assert_eq!(d.delete_tracked(e, &t).len(), 3);
        assert_eq!(d.total_stored(), 0);
    }

    #[test]
    fn replay_errors_are_typed() {
        let d = db();
        let bad_entity = LogicalOp {
            entity: "starship".into(),
            fields: vec![],
        };
        assert!(matches!(
            bad_entity.resolve(&d),
            Err((ReplayError::UnknownEntity(_), _))
        ));
        let bad_fields = LogicalOp {
            entity: "person".into(),
            fields: vec![("name".into(), Value::str("ann"))],
        };
        assert!(matches!(
            bad_fields.resolve(&d),
            Err((
                ReplayError::Invalid(InstanceError::MissingAttribute { .. }),
                _
            ))
        ));
    }

    #[test]
    fn resolving_moves_what_instance_new_copies_and_gives_back_failures() {
        let d = db();
        let op = manager_op();
        let fields: Vec<(&str, Value)> = op
            .fields
            .iter()
            .map(|(n, v)| (n.as_str(), v.clone()))
            .collect();
        let manager = d.schema().type_id("manager").unwrap();
        let by_ref = Instance::new(d.schema(), d.catalog(), manager, &fields).unwrap();
        assert_eq!(manager_op().resolve(&d).unwrap(), (manager, by_ref));
        // A repeated attribute keeps its first value, as `Instance::new`
        // does.
        let mut repeated = manager_op();
        repeated.fields.push(("name".into(), Value::str("bob")));
        let (_, t) = repeated.resolve(&d).unwrap();
        let name = d.schema().attr_id("name").unwrap();
        assert_eq!(t.get(name), Some(&Value::str("ann")));
        // Failing ops come back exactly as they were.
        let mut outside = manager_op();
        outside.fields[1].1 = Value::Int(1_000);
        for bad in [
            LogicalOp {
                entity: "starship".into(),
                fields: manager_op().fields,
            },
            outside,
        ] {
            let (_, back) = bad.clone().resolve(&d).unwrap_err();
            assert_eq!(back, bad);
        }
    }

    #[test]
    fn encoding_roundtrips_through_json() {
        let op = manager_op();
        let json = serde_json::to_string(&op).unwrap();
        let back: LogicalOp = serde_json::from_str(&json).unwrap();
        assert_eq!(back, op);
    }
}
