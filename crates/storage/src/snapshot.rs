//! Snapshots of a database, in two senses:
//!
//! 1. **Durable snapshots** ([`save`] / [`load`]): JSON via serde behind
//!    a self-identifying header. The paper is about semantics, not
//!    recovery; a snapshot format nevertheless makes the engine usable,
//!    lets the experiments persist generated workloads, and serves as
//!    the WAL's checkpoint payload. Every snapshot starts with [`MAGIC`]
//!    (format name + version), so a checkpoint file is recognisable on
//!    its own and future format evolution is detectable instead of
//!    surfacing as a JSON parse error deep inside the payload. Schemas
//!    carry skipped lookup indices, so loading rebuilds them.
//! 2. **In-memory epoch snapshots** ([`EngineSnapshot`]): an immutable
//!    view of the engine's last *committed* state — database, secondary
//!    indexes, and lazily assembled statistics — shared behind an `Arc`
//!    so MVCC readers plan and execute whole queries without ever
//!    taking the engine's write lock while the single writer mutates
//!    the next epoch. Relations and indexes are copy-on-write, so the
//!    "copy" shares every relation and index with the live engine until
//!    a later commit changes it.

use std::io::{Read, Write};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use toposem_extension::Database;
use toposem_obs::EngineMetrics;

use crate::index::Index;
use crate::stats::{Statistics, StatisticsCache};

/// Header line every snapshot begins with: magic plus format version.
pub const MAGIC: &[u8] = b"TOPOSEM-SNAPSHOT v1\n";

/// Errors from snapshot I/O.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The input does not start with the snapshot magic/version header —
    /// either not a snapshot at all, or a format this build cannot read.
    BadHeader,
    /// Malformed snapshot payload.
    Decode(serde_json::Error),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadHeader => write!(
                f,
                "snapshot header missing or unsupported (expected {:?})",
                String::from_utf8_lossy(MAGIC)
            ),
            SnapshotError::Decode(e) => write!(f, "snapshot decode error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<serde_json::Error> for SnapshotError {
    fn from(e: serde_json::Error) -> Self {
        SnapshotError::Decode(e)
    }
}

/// Serialises the database to a writer: header line, then canonical JSON.
pub fn save<W: Write>(db: &Database, mut w: W) -> Result<(), SnapshotError> {
    let json = serde_json::to_vec(db)?;
    w.write_all(MAGIC)?;
    w.write_all(&json)?;
    Ok(())
}

/// Serialises the database to owned bytes (the WAL checkpoint payload).
pub fn to_vec(db: &Database) -> Result<Vec<u8>, SnapshotError> {
    let mut buf = Vec::new();
    save(db, &mut buf)?;
    Ok(buf)
}

/// Deserialises a database from a reader, validating the header and
/// rebuilding lookup indices.
pub fn load<R: Read>(mut r: R) -> Result<Database, SnapshotError> {
    let mut buf = Vec::new();
    r.read_to_end(&mut buf)?;
    let payload = buf.strip_prefix(MAGIC).ok_or(SnapshotError::BadHeader)?;
    let mut db: Database = serde_json::from_slice(payload)?;
    db.rebuild_indices();
    Ok(db)
}

/// An immutable snapshot of the engine's last committed state: the
/// database, the secondary-index array, and the statistics epoch it was
/// captured under, plus lazily assembled [`Statistics`].
///
/// Capturing one costs O(types + indexes): the database and the index
/// array are clones whose relations and index maps are shared,
/// copy-on-write, with the engine.
///
/// Snapshots give the engine MVCC reads: [`crate::Engine::snapshot`]
/// caches one per committed epoch and hands out `Arc` clones, so any
/// number of readers plan and execute whole queries against a stable
/// epoch — no torn joins, no engine lock held during execution — while
/// the single writer mutates the next epoch. A snapshot taken at
/// transaction start and pinned for the transaction's lifetime yields
/// snapshot isolation: later commits are simply never visible through
/// it. Dropping an index mid-read is equally safe: the snapshot owns its
/// own index array, and plans cached against a newer epoch never reach
/// a reader still holding this one.
pub struct EngineSnapshot {
    db: Database,
    indexes: Vec<Vec<Index>>,
    stats_epoch: u64,
    metrics: Arc<EngineMetrics>,
    stats_cache: Arc<Mutex<StatisticsCache>>,
    stats: OnceLock<Arc<Statistics>>,
}

impl EngineSnapshot {
    /// Captures a snapshot of committed state. The caller (the engine,
    /// under its write lock) guarantees `db` and `indexes` contain no
    /// uncommitted mutations. `stats_cache` is the engine's, so the
    /// snapshot's statistics reuse every type the engine (or an earlier
    /// snapshot) already collected at the same data.
    pub(crate) fn capture(
        db: Database,
        indexes: Vec<Vec<Index>>,
        stats_epoch: u64,
        metrics: Arc<EngineMetrics>,
        stats_cache: Arc<Mutex<StatisticsCache>>,
    ) -> EngineSnapshot {
        EngineSnapshot {
            db,
            indexes,
            stats_epoch,
            metrics,
            stats_cache,
            stats: OnceLock::new(),
        }
    }

    /// The snapshotted database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The snapshotted secondary indexes, indexed by `TypeId::index()`.
    pub fn indexes(&self) -> &[Vec<Index>] {
        &self.indexes
    }

    /// The statistics epoch this snapshot was captured under. Plans
    /// computed against this snapshot are keyed on it, so they never mix
    /// with plans for another epoch.
    pub fn stats_epoch(&self) -> u64 {
        self.stats_epoch
    }

    /// Statistics over the snapshotted state, assembled on first use
    /// from the engine's carried per-type statistics (recollecting only
    /// types whose data changed) and cached for the snapshot's lifetime
    /// (it is immutable, so they never go stale).
    pub fn statistics(&self) -> Arc<Statistics> {
        Arc::clone(self.stats.get_or_init(|| {
            Arc::new(
                self.stats_cache
                    .lock()
                    .statistics(&self.db, &self.indexes, &self.metrics),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toposem_core::{employee_schema, Intension};
    use toposem_extension::{ContainmentPolicy, DomainCatalog, Value};

    #[test]
    fn roundtrip_preserves_data_and_schema() {
        let mut db = Database::new(
            Intension::analyse(employee_schema()),
            DomainCatalog::employee_defaults(),
            ContainmentPolicy::Eager,
        );
        let s = db.schema().clone();
        db.insert_fields(
            s.type_id("manager").unwrap(),
            &[
                ("name", Value::str("ann")),
                ("age", Value::Int(40)),
                ("depname", Value::str("sales")),
                ("budget", Value::Int(100)),
            ],
        )
        .unwrap();
        let mut buf = Vec::new();
        save(&db, &mut buf).unwrap();
        let back = load(&buf[..]).unwrap();
        assert_eq!(back.schema().type_id("manager"), s.type_id("manager"));
        assert_eq!(back.total_stored(), db.total_stored());
        for e in db.schema().type_ids() {
            assert_eq!(back.extension(e), db.extension(e));
        }
        assert!(back.verify_containment().is_empty());
    }

    #[test]
    fn loading_garbage_errors_with_bad_header() {
        // No header at all: the input is not self-identifying.
        assert!(matches!(
            load(&b"not json"[..]),
            Err(SnapshotError::BadHeader)
        ));
        // Raw JSON from the pre-header format is likewise rejected up
        // front rather than misparsed.
        assert!(matches!(
            load(&b"{\"intension\":{}}"[..]),
            Err(SnapshotError::BadHeader)
        ));
        // A future version is detected as a header problem…
        assert!(matches!(
            load(&b"TOPOSEM-SNAPSHOT v2\n{}"[..]),
            Err(SnapshotError::BadHeader)
        ));
        // …while garbage *behind* a valid header is a decode problem.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(b"not json");
        assert!(matches!(load(&bytes[..]), Err(SnapshotError::Decode(_))));
    }

    #[test]
    fn hostile_nesting_is_a_decode_error() {
        let deep = "[".repeat(1_000_000);
        for payload in [deep.clone(), format!("{{\"pad\":{deep}")] {
            let mut bytes = MAGIC.to_vec();
            bytes.extend_from_slice(payload.as_bytes());
            assert!(matches!(load(&bytes[..]), Err(SnapshotError::Decode(_))));
        }
    }

    #[test]
    fn snapshots_are_self_identifying() {
        let db = Database::new(
            Intension::analyse(employee_schema()),
            DomainCatalog::employee_defaults(),
            ContainmentPolicy::Eager,
        );
        let bytes = to_vec(&db).unwrap();
        assert!(bytes.starts_with(MAGIC));
        assert_eq!(load(&bytes[..]).unwrap().total_stored(), 0);
    }

    #[test]
    fn roundtrip_deep_equality_and_rebuilt_indices() {
        // Exercise both policies and a mixed load so the snapshot carries
        // every Value variant and a non-trivial ISA spread.
        for policy in [ContainmentPolicy::Eager, ContainmentPolicy::OnDemand] {
            let mut db = Database::new(
                Intension::analyse(employee_schema()),
                DomainCatalog::employee_defaults(),
                policy,
            );
            let s = db.schema().clone();
            for (n, a, d, b) in [("ann", 40, "sales", 100), ("bob", 30, "research", 7)] {
                db.insert_fields(
                    s.type_id("manager").unwrap(),
                    &[
                        ("name", Value::str(n)),
                        ("age", Value::Int(a)),
                        ("depname", Value::str(d)),
                        ("budget", Value::Int(b)),
                    ],
                )
                .unwrap();
            }
            db.insert_fields(
                s.type_id("department").unwrap(),
                &[
                    ("depname", Value::str("sales")),
                    ("location", Value::str("amsterdam")),
                ],
            )
            .unwrap();

            let mut buf = Vec::new();
            save(&db, &mut buf).unwrap();
            let back = load(&buf[..]).unwrap();

            // Deep schema equality, not just name agreement.
            assert_eq!(back.schema(), db.schema());
            assert_eq!(back.policy(), db.policy());
            // Stored relations and semantic extensions agree everywhere.
            for e in s.type_ids() {
                assert_eq!(back.stored(e), db.stored(e));
                assert_eq!(back.extension(e), db.extension(e));
            }
            // The serde-skipped lookup indices were rebuilt by `load`:
            // name→id resolution works on the loaded schema.
            for e in s.type_ids() {
                let name = s.type_name(e);
                assert_eq!(back.schema().type_id(name), Some(e));
            }
            for a in s.attr_ids() {
                let name = s.attr_name(a);
                assert_eq!(back.schema().attr_id(name), Some(a));
            }
            // And a second save of the loaded database is byte-identical —
            // the round trip is a fixpoint.
            let mut buf2 = Vec::new();
            save(&back, &mut buf2).unwrap();
            assert_eq!(buf, buf2);
        }
    }
}
