//! # toposem-extension
//!
//! Database extensions for the toposem model (§4 of Siebes & Kersten
//! 1987): atomic domains and values, entity instances, relations, the
//! containment condition, extension mappings `E_e` / restriction maps
//! `p(h,f,e)` with their commuting corollary, the natural join, the
//! Extension Axiom checker, and schema evolution with
//! information-preservation analysis.
//!
//! The central type is [`database::Database`]: an analysed
//! [`toposem_core::Intension`] plus one [`relation::Relation`] per entity
//! type, maintained under either eager or on-demand containment
//! ([`database::ContainmentPolicy`]).

pub mod database;
pub mod evolution;
pub mod extension_map;
pub mod instance;
pub mod join;
pub mod logical_op;
pub mod relation;
pub mod value;

pub use database::{ContainmentPolicy, ContainmentViolation, Database};
pub use evolution::{evolve, EvolutionOp, EvolveError, Migration, TypeFate};
pub use extension_map::{e_map, p_inclusion_holds, verify_corollary, CorollaryReport};
pub use instance::{Instance, InstanceError, MergedFields, Row};
pub use join::{check_all, check_extension_axiom, multi_join, natural_join, ExtensionAxiomReport};
pub use logical_op::{LogicalOp, ReplayError};
pub use relation::Relation;
pub use value::{DomainCatalog, DomainSpec, Value};
