//! Replication integration tests.
//!
//! The contract under test: a follower fed *only* the shipped
//! checkpoint and raw segment bytes converges to a database
//! bit-identical to the primary's at the same applied LSN — across
//! committed, aborted, and DDL-bearing workloads, mid-stream
//! disconnects, primary checkpoints that truncate the log under a
//! stalled follower, primary crash-restarts, and follower restarts.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use toposem_core::{employee_schema, GeneralisationTopology, Intension};
use toposem_extension::{ContainmentPolicy, Database, DomainCatalog, Instance, Value};
use toposem_fd::Fd;
use toposem_repl::{
    encode_checkpoint, DirTransport, Follower, FollowerConfig, InProcessTransport, Manifest,
    SegmentEntry, SegmentTransport, Shipper, ShipperConfig, TransportError,
};
use toposem_storage::{snapshot, Engine, EngineError, IndexKind};
use toposem_wal::{FlushPolicy, Wal, WalConfig};

const NAMES: [&str; 5] = ["ann", "bob", "carol", "dave", "eve"];
const DEPS: [&str; 3] = ["sales", "research", "admin"];
const TICK: Duration = Duration::from_millis(2);
const PATIENCE: Duration = Duration::from_secs(20);

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "toposem-repl-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn fresh_db() -> Database {
    Database::new(
        Intension::analyse(employee_schema()),
        DomainCatalog::employee_defaults(),
        ContainmentPolicy::Eager,
    )
}

fn durable_engine(dir: &Path, flush: FlushPolicy) -> Arc<Engine> {
    let cfg = WalConfig {
        flush,
        segment_bytes: 2048, // small: shipping must cross segment rotations
    };
    Arc::new(Engine::durable(fresh_db(), Wal::create(dir, cfg).unwrap()).unwrap())
}

fn fast_ship() -> ShipperConfig {
    ShipperConfig {
        poll_interval: TICK,
    }
}

fn fast_follow() -> FollowerConfig {
    FollowerConfig {
        poll_interval: TICK,
        ..FollowerConfig::default()
    }
}

/// Wait until the follower's applied LSN reaches the primary's current
/// `next_lsn`, then deep-compare: canonical snapshot bytes and every
/// semantic extension must agree bit-for-bit.
fn assert_converges(primary: &Engine, follower: &Follower, context: &str) {
    let target = primary.wal_next_lsn().unwrap();
    assert!(
        follower.wait_for_lsn(target, PATIENCE),
        "follower stuck at lsn {} < {target}: {context}",
        follower.applied_lsn(),
    );
    let replica = follower.engine();
    assert_eq!(replica.applied_lsn(), target, "over-applied? {context}");
    let a = primary.with_db(|db| snapshot::to_vec(db).unwrap());
    let b = replica.with_db(|db| snapshot::to_vec(db).unwrap());
    assert_eq!(a, b, "replica state diverged: {context}");
    primary.with_db(|pdb| {
        replica.with_db(|rdb| {
            for e in pdb.schema().type_ids() {
                assert_eq!(
                    pdb.extension(e),
                    rdb.extension(e),
                    "extension of {} diverged: {context}",
                    pdb.schema().type_name(e)
                );
            }
        })
    });
}

fn insert_employee(eng: &Engine, name: &str, age: i64, dep: &str) {
    let employee = eng.with_db(|db| db.schema().type_id("employee").unwrap());
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

/// The acceptance scenario: checkpoint bootstrap, committed txns with
/// propagation and cascade, an aborted txn, DDL — and a read-only
/// replica answering identically at the primary's LSN.
#[test]
fn follower_converges_and_is_read_only() {
    let dir = temp_dir("basic");
    let primary = durable_engine(&dir, FlushPolicy::NoSync);
    let (employee, manager, depname) = primary.with_db(|db| {
        let s = db.schema();
        (
            s.type_id("employee").unwrap(),
            s.type_id("manager").unwrap(),
            s.attr_id("depname").unwrap(),
        )
    });

    // Pre-ship state, partly checkpointed: the follower must see it via
    // bootstrap, not replay.
    primary.create_index(employee, depname).unwrap();
    insert_employee(&primary, "ann", 40, "sales");
    primary.checkpoint().unwrap();
    insert_employee(&primary, "bob", 30, "research");

    let transport = Arc::new(InProcessTransport::new());
    let _shipper = Shipper::start(
        Arc::clone(&primary),
        transport.clone() as Arc<dyn SegmentTransport>,
        fast_ship(),
    )
    .unwrap();
    let follower = Follower::start_when_ready(
        transport.clone() as Arc<dyn SegmentTransport>,
        fast_follow(),
        PATIENCE,
    )
    .unwrap();

    // Live traffic: a committed multi-op txn (manager insert propagates
    // eagerly), an aborted txn, a cascading delete.
    primary.begin().unwrap();
    primary
        .insert(
            manager,
            &[
                ("name", Value::str("carol")),
                ("age", Value::Int(35)),
                ("depname", Value::str("sales")),
                ("budget", Value::Int(100)),
            ],
        )
        .unwrap();
    primary.commit().unwrap();
    primary.begin().unwrap();
    insert_employee(&primary, "ghost", 99, "admin");
    primary.rollback().unwrap();
    let bob = primary.with_db(|db| {
        Instance::new(
            db.schema(),
            db.catalog(),
            employee,
            &[
                ("name", Value::str("bob")),
                ("age", Value::Int(30)),
                ("depname", Value::str("research")),
            ],
        )
        .unwrap()
    });
    primary.delete(employee, &bob).unwrap();

    assert_converges(&primary, &follower, "basic live traffic");

    // The replica refuses every mutation.
    let replica = follower.engine();
    assert!(replica.is_read_only());
    assert_eq!(replica.begin(), Err(EngineError::ReadOnly));
    assert_eq!(
        replica
            .insert(employee, &[("name", Value::str("x"))])
            .unwrap_err(),
        EngineError::ReadOnly
    );
    assert_eq!(replica.checkpoint(), Err(EngineError::ReadOnly));
    assert!(matches!(
        replica.create_index(employee, depname),
        Err(EngineError::ReadOnly)
    ));

    // And its indexes were maintained through live apply: the replica
    // answers the indexed lookup identically.
    assert_eq!(
        replica
            .lookup(employee, depname, &Value::str("sales"))
            .len(),
        primary
            .lookup(employee, depname, &Value::str("sales"))
            .len(),
    );
    fs::remove_dir_all(&dir).unwrap();
}

/// The unified query API against a follower: `AtLeast(primary lsn)`
/// waits for replication and then answers exactly like the primary; an
/// unreachable LSN floor fails with `Stale`; writes are refused.
#[test]
fn follower_answers_the_unified_query_api() {
    use toposem_planner::{Consistency, QueryRequest, QueryTarget};
    use toposem_storage::{Query, QueryError};

    let dir = temp_dir("qt");
    let primary = durable_engine(&dir, FlushPolicy::NoSync);
    let (employee, depname, age) = primary.with_db(|db| {
        let s = db.schema();
        (
            s.type_id("employee").unwrap(),
            s.attr_id("depname").unwrap(),
            s.attr_id("age").unwrap(),
        )
    });
    let transport = Arc::new(InProcessTransport::new());
    let _shipper = Shipper::start(
        Arc::clone(&primary),
        transport.clone() as Arc<dyn SegmentTransport>,
        fast_ship(),
    )
    .unwrap();
    let follower = Follower::start_when_ready(
        transport as Arc<dyn SegmentTransport>,
        FollowerConfig {
            poll_interval: TICK,
            // Generous for the happy path (the shipper ticks every 2ms),
            // short enough that the Stale case below fails fast.
            max_lsn_wait: Duration::from_millis(300),
        },
        PATIENCE,
    )
    .unwrap();
    for (n, a, d) in [
        ("ann", 40, "sales"),
        ("bob", 30, "sales"),
        ("eve", 20, "admin"),
    ] {
        insert_employee(&primary, n, a, d);
    }

    // Read-your-writes through the LSN floor: no explicit wait needed.
    let lsn = primary.wal_next_lsn().unwrap();
    let q = Query::scan(employee).select(depname, Value::str("sales"));
    let on_follower = follower
        .run(&QueryRequest::new(q.clone()).at_least(lsn))
        .unwrap();
    let on_primary = primary.run(&QueryRequest::new(q.clone())).unwrap();
    assert_eq!(on_follower.ty, on_primary.ty);
    assert_eq!(on_follower.rows, on_primary.rows);

    // Ordered + profiled switches flow through the same pipeline.
    let o = Query::scan(employee).order_by_asc(age);
    let seq = follower
        .run(&QueryRequest::new(o).ordered().profiled().at_least(lsn))
        .unwrap();
    let ages: Vec<_> = seq
        .rows
        .iter()
        .map(|t| t.get(age).cloned().unwrap())
        .collect();
    assert_eq!(ages, vec![Value::Int(20), Value::Int(30), Value::Int(40)]);
    assert!(seq.profile.is_some());

    // An unreachable floor fails with Stale once the bound elapses.
    let strict = Follower::start_when_ready(
        Arc::new(InProcessTransport::new()) as Arc<dyn SegmentTransport>,
        fast_follow(),
        Duration::from_millis(10),
    );
    assert!(strict.is_err(), "empty transport must not bootstrap");
    let err = follower
        .run(
            &QueryRequest::new(Query::scan(employee))
                .with_consistency(Consistency::AtLeast(lsn + 1_000_000)),
        )
        .unwrap_err();
    assert!(matches!(err, QueryError::Stale { .. }), "got {err:?}");
    fs::remove_dir_all(&dir).unwrap();
}

/// A spool-directory transport carries the same contract as the
/// in-process one.
#[test]
fn dir_transport_converges() {
    let dir = temp_dir("dirt-src");
    let spool = temp_dir("dirt-spool");
    let primary = durable_engine(&dir, FlushPolicy::NoSync);
    insert_employee(&primary, "ann", 40, "sales");

    let transport = Arc::new(DirTransport::new(&spool).unwrap());
    let _shipper = Shipper::start(
        Arc::clone(&primary),
        transport.clone() as Arc<dyn SegmentTransport>,
        fast_ship(),
    )
    .unwrap();
    let follower = Follower::start_when_ready(
        transport as Arc<dyn SegmentTransport>,
        fast_follow(),
        PATIENCE,
    )
    .unwrap();
    insert_employee(&primary, "bob", 30, "research");
    primary.checkpoint().unwrap();
    insert_employee(&primary, "carol", 25, "admin");
    assert_converges(&primary, &follower, "dir transport");
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&spool).unwrap();
}

/// Appending to a shipped segment leaves what publishing it whole would,
/// on both transports (the spool one through the provided
/// fetch-and-republish method), and is refused when the store holds
/// less than the prefix it extends.
#[test]
fn extend_segment_matches_whole_publish() {
    let spool = temp_dir("extend-spool");
    let stores: [Arc<dyn SegmentTransport>; 2] = [
        Arc::new(InProcessTransport::new()),
        Arc::new(DirTransport::new(&spool).unwrap()),
    ];
    for t in &stores {
        t.publish_segment("seg", b"header-abc").unwrap();
        t.extend_segment("seg", 7, b"xyz-more").unwrap();
        assert_eq!(
            t.fetch_segment("seg", 0).unwrap().unwrap(),
            b"header-xyz-more"
        );
        assert_eq!(t.fetch_segment("seg", 11).unwrap().unwrap(), b"more");
        assert!(t.extend_segment("seg", 99, b"!").is_err());
        assert!(t.extend_segment("missing", 0, b"!").is_err());
    }
    fs::remove_dir_all(&spool).unwrap();
}

/// A spooled manifest nesting a million arrays deep is an encoding
/// error, not a crash.
#[test]
fn hostile_nesting_in_a_spooled_manifest_is_an_encoding_error() {
    let spool = temp_dir("deep-manifest");
    let t = DirTransport::new(&spool).unwrap();
    let deep = "[".repeat(1_000_000);
    for text in [deep.clone(), format!("{{\"pad\":{deep}")] {
        fs::write(spool.join("manifest.json"), text).unwrap();
        assert!(matches!(t.fetch_manifest(), Err(TransportError::Encode(_))));
    }
    fs::remove_dir_all(&spool).unwrap();
}

/// A shipped segment whose next record is checksum-valid but nests a
/// million arrays deep: the follower's thread survives it, keeps what it
/// applied before it, reports the corruption, and resumes once the
/// segment is shipped again intact.
#[test]
fn follower_survives_and_reports_a_hostile_segment() {
    let dir = temp_dir("hostile");
    let primary = durable_engine(&dir, FlushPolicy::NoSync);
    insert_employee(&primary, "ann", 40, "sales");
    primary.sync().unwrap();
    let transport = Arc::new(InProcessTransport::new());
    let (meta, payload) = toposem_wal::read_checkpoint(&dir).unwrap();
    transport
        .publish_checkpoint(&encode_checkpoint(&meta, &payload).unwrap())
        .unwrap();
    let seg = toposem_wal::list_segments(&dir).unwrap();
    assert_eq!(seg.len(), 1);
    let name = seg[0].file_name().unwrap().to_string_lossy().into_owned();
    let ship = |bytes: &[u8]| {
        transport.publish_segment(&name, bytes).unwrap();
        transport
            .publish_manifest(&Manifest {
                checkpoint_next_lsn: meta.next_lsn,
                shipped_next_lsn: primary.wal_next_lsn().unwrap(),
                segments: vec![SegmentEntry {
                    name: name.clone(),
                    first_lsn: toposem_wal::segment_first_lsn(&name).unwrap(),
                    len: bytes.len() as u64,
                }],
            })
            .unwrap();
    };
    ship(&fs::read(&seg[0]).unwrap());
    let follower = Follower::start(
        transport.clone() as Arc<dyn SegmentTransport>,
        fast_follow(),
    )
    .unwrap();
    let good_lsn = follower.applied_lsn();
    assert_eq!(good_lsn, primary.wal_next_lsn().unwrap());

    let deep = "[".repeat(1_000_000);
    let mut hostile = fs::read(&seg[0]).unwrap();
    hostile.extend_from_slice(&(deep.len() as u32).to_le_bytes());
    hostile.extend_from_slice(&toposem_wal::crc32::crc32(deep.as_bytes()).to_le_bytes());
    hostile.extend_from_slice(deep.as_bytes());
    ship(&hostile);
    let deadline = Instant::now() + PATIENCE;
    let reported = loop {
        if let Some(why) = follower.last_error() {
            break why;
        }
        assert!(
            Instant::now() < deadline,
            "the corrupt segment went unreported"
        );
        std::thread::sleep(TICK);
    };
    assert!(reported.contains("corrupt"), "{reported}");
    assert_eq!(
        follower.applied_lsn(),
        good_lsn,
        "nothing past the good prefix"
    );

    // Shipped again intact (with a new commit behind it), the segment
    // applies: the thread was alive all along.
    insert_employee(&primary, "bob", 30, "research");
    primary.sync().unwrap();
    ship(&fs::read(&seg[0]).unwrap());
    assert_converges(&primary, &follower, "after the segment was shipped intact");
    let deadline = Instant::now() + PATIENCE;
    while follower.last_error().is_some() {
        assert!(
            Instant::now() < deadline,
            "a good round must clear the report"
        );
        std::thread::sleep(TICK);
    }
    follower.stop();
    fs::remove_dir_all(&dir).unwrap();
}

/// Mid-stream disconnect: the link drops while the primary keeps
/// committing; the follower stalls (never regresses, never applies a
/// partial txn) and catches up cleanly when the link returns.
#[test]
fn disconnect_and_catch_up() {
    let dir = temp_dir("disc");
    let primary = durable_engine(&dir, FlushPolicy::NoSync);
    let transport = Arc::new(InProcessTransport::new());
    let _shipper = Shipper::start(
        Arc::clone(&primary),
        transport.clone() as Arc<dyn SegmentTransport>,
        fast_ship(),
    )
    .unwrap();
    let follower = Follower::start_when_ready(
        transport.clone() as Arc<dyn SegmentTransport>,
        fast_follow(),
        PATIENCE,
    )
    .unwrap();
    insert_employee(&primary, "ann", 40, "sales");
    assert_converges(&primary, &follower, "before disconnect");

    transport.set_offline(true);
    let stalled_at = follower.applied_lsn();
    // Enough traffic to cross several segment rotations while dark.
    for i in 0..40 {
        insert_employee(&primary, NAMES[i % NAMES.len()], i as i64, DEPS[i % 3]);
    }
    std::thread::sleep(TICK * 10);
    assert_eq!(
        follower.applied_lsn(),
        stalled_at,
        "follower must hold position while the link is down"
    );

    transport.set_offline(false);
    assert_converges(&primary, &follower, "after reconnect");
    fs::remove_dir_all(&dir).unwrap();
}

/// The primary checkpoints (truncating shipped segments) while the
/// follower is dark: on reconnect the follower detects the gap from the
/// manifest, re-bootstraps from the newer checkpoint, and converges.
#[test]
fn checkpoint_under_stalled_follower_forces_rebootstrap() {
    let dir = temp_dir("reboot");
    let primary = durable_engine(&dir, FlushPolicy::NoSync);
    let transport = Arc::new(InProcessTransport::new());
    let _shipper = Shipper::start(
        Arc::clone(&primary),
        transport.clone() as Arc<dyn SegmentTransport>,
        fast_ship(),
    )
    .unwrap();
    let follower = Follower::start_when_ready(
        transport.clone() as Arc<dyn SegmentTransport>,
        fast_follow(),
        PATIENCE,
    )
    .unwrap();
    insert_employee(&primary, "ann", 40, "sales");
    assert_converges(&primary, &follower, "before the dark checkpoint");

    transport.set_offline(true);
    for i in 0..20 {
        insert_employee(&primary, NAMES[i % NAMES.len()], i as i64, DEPS[i % 3]);
    }
    primary.checkpoint().unwrap(); // old segments are gone now
    insert_employee(&primary, "eve", 1, "admin");
    transport.set_offline(false);

    assert_converges(&primary, &follower, "after rebootstrap");
    assert!(
        follower.engine().metrics().repl.rebootstraps.get() >= 1,
        "the gap must have been bridged by a re-bootstrap"
    );
    fs::remove_dir_all(&dir).unwrap();
}

/// Kill the primary mid-transaction (torn tail on disk), recover it,
/// resume shipping over the same transport: the follower — which may
/// have decoded bytes of the now-truncated suffix's *valid prefix* but
/// never applied the uncommitted txn — converges on the recovered
/// primary's state. Then restart the follower from scratch on the same
/// transport and converge again.
#[test]
fn kill_primary_then_restart_both_sides() {
    let dir = temp_dir("kill");
    let transport = Arc::new(InProcessTransport::new());
    {
        let primary = durable_engine(&dir, FlushPolicy::PerCommit);
        let _shipper = Shipper::start(
            Arc::clone(&primary),
            transport.clone() as Arc<dyn SegmentTransport>,
            fast_ship(),
        )
        .unwrap();
        insert_employee(&primary, "ann", 40, "sales");
        insert_employee(&primary, "bob", 30, "research");
        // The crash victim: records on disk (and possibly shipped), no
        // Commit ever written.
        primary.begin().unwrap();
        insert_employee(&primary, "ghost", 99, "admin");
        primary.sync().unwrap();
        std::thread::sleep(TICK * 5); // let the shipper ship the torn tail
                                      // shipper drops first (stops shipping), then the engine "crashes"
    }

    let follower = Follower::start_when_ready(
        transport.clone() as Arc<dyn SegmentTransport>,
        fast_follow(),
        PATIENCE,
    )
    .unwrap();

    // Recover the primary: the uncommitted suffix is truncated; new
    // traffic overwrites those bytes and the re-shipped segment must
    // splice cleanly at the follower's decode offset.
    let cfg = WalConfig {
        flush: FlushPolicy::PerCommit,
        segment_bytes: 2048,
    };
    let primary = Arc::new(Engine::open(&dir, cfg).unwrap());
    let _shipper = Shipper::start(
        Arc::clone(&primary),
        transport.clone() as Arc<dyn SegmentTransport>,
        fast_ship(),
    )
    .unwrap();
    insert_employee(&primary, "carol", 25, "admin");
    assert_converges(&primary, &follower, "after primary kill-and-recover");
    let employee = primary.with_db(|db| db.schema().type_id("employee").unwrap());
    let name = primary.with_db(|db| db.schema().attr_id("name").unwrap());
    follower.engine().with_db(|db| {
        assert!(
            db.stored(employee)
                .iter()
                .all(|t| t.get(name) != Some(&Value::str("ghost"))),
            "uncommitted txn must not leak to the replica"
        );
    });

    // Follower restart: a brand-new follower bootstraps from the same
    // transport and reaches the same state.
    drop(follower);
    let follower2 = Follower::start_when_ready(
        transport as Arc<dyn SegmentTransport>,
        fast_follow(),
        PATIENCE,
    )
    .unwrap();
    insert_employee(&primary, "dave", 45, "sales");
    assert_converges(&primary, &follower2, "restarted follower");
    fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Waking on arrival: a commit wakes the shipper, a published manifest
// wakes the follower, and a stop wakes both. The `wake_` prefix selects
// these tests for the repeated single-CPU CI run.
// ---------------------------------------------------------------------

/// Longer than any of these tests may take: a wait that lasted a whole
/// poll interval fails them.
const SLOW_POLL: Duration = Duration::from_secs(10);

#[test]
fn wake_an_autocommit_reaches_the_follower_without_waiting_a_poll() {
    let dir = temp_dir("wake");
    let primary = durable_engine(&dir, FlushPolicy::NoSync);
    let transport = Arc::new(InProcessTransport::new());
    let shipper = Shipper::start(
        Arc::clone(&primary),
        transport.clone() as Arc<dyn SegmentTransport>,
        ShipperConfig {
            poll_interval: SLOW_POLL,
        },
    )
    .unwrap();
    let follower = Follower::start(
        transport as Arc<dyn SegmentTransport>,
        FollowerConfig {
            poll_interval: SLOW_POLL,
            ..FollowerConfig::default()
        },
    )
    .unwrap();
    for (i, name) in NAMES.iter().enumerate() {
        insert_employee(&primary, name, i as i64, DEPS[i % DEPS.len()]);
        let target = primary.wal_next_lsn().unwrap();
        assert!(
            follower.wait_for_lsn(target, Duration::from_secs(1)),
            "insert {i} not applied within 1 s: follower at {} < {target}",
            follower.applied_lsn()
        );
    }
    assert_converges(&primary, &follower, "woken replication");
    shipper.stop();
    follower.stop();
    fs::remove_dir_all(&dir).unwrap();
}

/// The spool transport keeps the provided `wait_for_change`, a sleep:
/// its follower still applies within about one of its own polls, while
/// the shipper (polling only every 10 s) ships on the commit.
#[test]
fn wake_dir_transport_converges_within_its_poll() {
    let dir = temp_dir("wake-dir-src");
    let spool = temp_dir("wake-dir-spool");
    let primary = durable_engine(&dir, FlushPolicy::NoSync);
    let transport = Arc::new(DirTransport::new(&spool).unwrap());
    let _shipper = Shipper::start(
        Arc::clone(&primary),
        transport.clone() as Arc<dyn SegmentTransport>,
        ShipperConfig {
            poll_interval: SLOW_POLL,
        },
    )
    .unwrap();
    let poll = Duration::from_millis(200);
    let follower = Follower::start(
        transport as Arc<dyn SegmentTransport>,
        FollowerConfig {
            poll_interval: poll,
            ..FollowerConfig::default()
        },
    )
    .unwrap();
    insert_employee(&primary, "ann", 40, "sales");
    let target = primary.wal_next_lsn().unwrap();
    // One poll plus slack for a loaded scheduler; far below the
    // shipper's own 10 s poll.
    assert!(
        follower.wait_for_lsn(target, poll * 5),
        "follower at {} < {target} after five polls",
        follower.applied_lsn()
    );
    assert_converges(&primary, &follower, "dir transport, woken shipper");
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&spool).unwrap();
}

/// Stopping interrupts the waits: neither side sits out its 10 s poll.
#[test]
fn wake_stop_and_drop_return_promptly() {
    let dir = temp_dir("wake-stop");
    let spool = temp_dir("wake-stop-spool");
    let primary = durable_engine(&dir, FlushPolicy::NoSync);
    let transports: [Arc<dyn SegmentTransport>; 2] = [
        Arc::new(InProcessTransport::new()),
        Arc::new(DirTransport::new(&spool).unwrap()),
    ];
    let slow_follow = FollowerConfig {
        poll_interval: SLOW_POLL,
        ..FollowerConfig::default()
    };
    for transport in transports {
        let shipper = Shipper::start(
            Arc::clone(&primary),
            Arc::clone(&transport),
            ShipperConfig {
                poll_interval: SLOW_POLL,
            },
        )
        .unwrap();
        let follower = Follower::start(Arc::clone(&transport), slow_follow).unwrap();
        // Let both threads reach their waits.
        std::thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        shipper.stop();
        let stopped = t0.elapsed();
        assert!(
            stopped < Duration::from_millis(200),
            "stop took {stopped:?}"
        );
        let t0 = Instant::now();
        drop(follower);
        let dropped = t0.elapsed();
        assert!(
            dropped < Duration::from_millis(200),
            "drop took {dropped:?}"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&spool).unwrap();
}

/// A failed shipping round is reported and counted, not dropped; once
/// the link is back the report clears and the follower catches up.
#[test]
fn shipper_reports_failed_rounds_and_recovers() {
    let dir = temp_dir("ship-err");
    let primary = durable_engine(&dir, FlushPolicy::NoSync);
    let transport = Arc::new(InProcessTransport::new());
    let shipper = Shipper::start(
        Arc::clone(&primary),
        transport.clone() as Arc<dyn SegmentTransport>,
        fast_ship(),
    )
    .unwrap();
    let follower = Follower::start(
        transport.clone() as Arc<dyn SegmentTransport>,
        fast_follow(),
    )
    .unwrap();
    assert_eq!(shipper.last_error(), None);

    transport.set_offline(true);
    insert_employee(&primary, "ann", 40, "sales");
    let deadline = Instant::now() + PATIENCE;
    let reported = loop {
        if let Some(why) = shipper.last_error() {
            break why;
        }
        assert!(
            Instant::now() < deadline,
            "the failed round went unreported"
        );
        std::thread::sleep(TICK);
    };
    assert!(reported.contains("link down"), "{reported}");
    let repl = primary.metrics_snapshot().repl;
    assert!(repl.ship_errors >= 1, "{repl:?}");
    assert!(repl.ship_rounds > repl.ship_errors, "{repl:?}");
    // A round is timed before it is counted, and the snapshot reads the
    // count first.
    assert!(repl.ship_round_ns.count >= repl.ship_rounds, "{repl:?}");

    transport.set_offline(false);
    insert_employee(&primary, "bob", 30, "research");
    assert_converges(&primary, &follower, "after the link came back");
    let deadline = Instant::now() + PATIENCE;
    while shipper.last_error().is_some() {
        assert!(
            Instant::now() < deadline,
            "a good round must clear the report"
        );
        std::thread::sleep(TICK);
    }
    fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Differential oracle: primary ≡ follower for random workloads.
// ---------------------------------------------------------------------

/// One randomly generated workload element, including DDL.
#[derive(Clone, Debug)]
enum Op {
    Employee(usize, i64, usize),
    Manager(usize, i64, usize, i64),
    DeletePerson(usize, i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..NAMES.len(), 0i64..5, 0..DEPS.len()).prop_map(|(n, a, d)| Op::Employee(n, a, d)),
        (0..NAMES.len(), 0i64..5, 0..DEPS.len(), 0i64..4)
            .prop_map(|(n, a, d, b)| Op::Manager(n, a, d, b)),
        (0..NAMES.len(), 0i64..5).prop_map(|(n, a)| Op::DeletePerson(n, a)),
    ]
}

fn apply_op(eng: &Engine, op: &Op) {
    let s = eng.with_db(|db| db.schema().clone());
    match op {
        Op::Employee(n, a, d) => {
            eng.insert(
                s.type_id("employee").unwrap(),
                &[
                    ("name", Value::str(NAMES[*n])),
                    ("age", Value::Int(*a)),
                    ("depname", Value::str(DEPS[*d])),
                ],
            )
            .unwrap();
        }
        Op::Manager(n, a, d, b) => {
            eng.insert(
                s.type_id("manager").unwrap(),
                &[
                    ("name", Value::str(NAMES[*n])),
                    ("age", Value::Int(*a)),
                    ("depname", Value::str(DEPS[*d])),
                    ("budget", Value::Int(*b)),
                ],
            )
            .unwrap();
        }
        Op::DeletePerson(n, a) => {
            let person = s.type_id("person").unwrap();
            let t = eng.with_db(|db| {
                Instance::new(
                    db.schema(),
                    db.catalog(),
                    person,
                    &[("name", Value::str(NAMES[*n])), ("age", Value::Int(*a))],
                )
                .unwrap()
            });
            eng.delete(person, &t).unwrap();
        }
    }
}

/// Toggle-style DDL so a random sequence can never double-create.
fn toggle_index(eng: &Engine) {
    let (employee, depname) = eng.with_db(|db| {
        let s = db.schema();
        (
            s.type_id("employee").unwrap(),
            s.attr_id("depname").unwrap(),
        )
    });
    if !eng
        .drop_index(employee, IndexKind::Hash, &[depname])
        .unwrap()
    {
        eng.create_index(employee, depname).unwrap();
    }
}

fn declare_fd_once(eng: &Engine) {
    let fd = eng.with_db(|db| {
        let s = db.schema();
        let gen = GeneralisationTopology::of_schema(s);
        Fd::new(
            &gen,
            s.type_id("employee").unwrap(),
            s.type_id("department").unwrap(),
            s.type_id("worksfor").unwrap(),
        )
        .unwrap()
    });
    // The random workload may already violate it; both sides must agree
    // on the outcome either way, and only a successful declaration logs.
    let _ = eng.declare_fd(fd);
}

proptest! {
    /// The replication oracle: for a random workload of transactions —
    /// committed, aborted, checkpointed, or DDL — a follower fed only
    /// checkpoints and shipped segments answers bit-identically to the
    /// primary at the primary's final LSN.
    #[test]
    fn follower_equals_primary_for_random_workloads(
        txns in prop::collection::vec(
            (prop::collection::vec(op_strategy(), 1..4), 0u8..6),
            1..12,
        ),
    ) {
        let dir = temp_dir("oracle");
        let primary = durable_engine(&dir, FlushPolicy::NoSync);
        let transport = Arc::new(InProcessTransport::new());
        let _shipper = Shipper::start(
            Arc::clone(&primary),
            transport.clone() as Arc<dyn SegmentTransport>,
            fast_ship(),
        ).unwrap();
        let follower = Follower::start_when_ready(
            transport.clone() as Arc<dyn SegmentTransport>,
            fast_follow(),
            PATIENCE,
        ).unwrap();

        for (ops, fate) in &txns {
            // fate: 0 = autocommit ops, 1 = explicit commit, 2 = abort,
            // 3 = commit then checkpoint, 4 = index DDL toggle,
            // 5 = FD declaration.
            match fate {
                0 => {
                    for op in ops {
                        apply_op(&primary, op);
                    }
                }
                2 => {
                    primary.begin().unwrap();
                    for op in ops {
                        apply_op(&primary, op);
                    }
                    primary.rollback().unwrap();
                }
                4 => toggle_index(&primary),
                5 => declare_fd_once(&primary),
                _ => {
                    primary.begin().unwrap();
                    for op in ops {
                        apply_op(&primary, op);
                    }
                    primary.commit().unwrap();
                    if *fate == 3 {
                        primary.checkpoint().unwrap();
                    }
                }
            }
        }
        let target = primary.wal_next_lsn().unwrap();
        prop_assert!(
            follower.wait_for_lsn(target, PATIENCE),
            "follower stuck at {} < {target} for {:?}",
            follower.applied_lsn(),
            txns,
        );
        let replica = follower.engine();
        let a = primary.with_db(|db| snapshot::to_vec(db).unwrap());
        let b = replica.with_db(|db| snapshot::to_vec(db).unwrap());
        prop_assert_eq!(a, b, "replica diverged for workload {:?}", txns);
        fs::remove_dir_all(&dir).unwrap();
    }
}
