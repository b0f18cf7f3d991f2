//! # toposem-storage
//!
//! The operational layer the paper never built: an axiom-enforcing
//! storage engine over the toposem model. Maintained containment,
//! declared-FD enforcement, hash/ordered/composite secondary indexes,
//! undo-log transactions, a query
//! algebra restricted to topology-sanctioned paths, views with unique
//! update translation, subbase-only physical storage with derivation of
//! constructed types, self-identifying JSON snapshots, and — through
//! `toposem-wal` — durable commits, checkpointing, and crash recovery
//! ([`Engine::durable`] / [`Engine::open`] / [`Engine::recover`]).

pub mod catalog;
pub mod engine;
pub mod index;
pub mod query;
pub mod snapshot;
pub mod stats;
pub mod view_exec;

pub use catalog::{Catalog, StoragePlan};
pub use engine::{Engine, EngineError};
pub use index::{CompositeIndex, HashIndex, Index, IndexKind, OrdIndex};
pub use query::{
    cmp_by_keys, cmp_key, Interval, PredBound, Predicate, Query, QueryError, SortDir, SortKeys,
};
pub use snapshot::{load, save, EngineSnapshot, SnapshotError};
pub use stats::{Histogram, Statistics, TypeStats};
pub use view_exec::{
    apply_update, materialise, translation_count, MaterialisedView, ViewError, ViewUpdate,
};
