//! The system under test and the fixed conditions every workload runs
//! under: employee schema, eager containment, a durable primary with a
//! group-commit log, two indexes, and (for `replicated_rw`) a shipper,
//! one follower, and replica read routing.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use toposem_core::{employee_schema, AttrId, Intension, TypeId};
use toposem_extension::{ContainmentPolicy, Database, DomainCatalog, Value};
use toposem_repl::{
    Follower, FollowerConfig, InProcessTransport, SegmentTransport, Shipper, ShipperConfig,
};
use toposem_server::{serve, serve_with_replicas, ReplicaPool, ServerHandle};
use toposem_storage::{Engine, IndexKind};
use toposem_wal::{FlushPolicy, Wal, WalConfig};

/// The three departments every employee row cycles through.
pub const DEPS: [(&str, &str); 3] = [
    ("sales", "amsterdam"),
    ("research", "utrecht"),
    ("admin", "utrecht"),
];

/// Employee rows loaded at full size and under `--smoke`.
pub const FULL_ROWS: usize = 20_000;
pub const SMOKE_ROWS: usize = 2_000;

/// The load arrives as this many transactions (plus the index DDL), so
/// the recovery measurement replays a log of fixed shape.
pub const LOAD_TXNS: usize = 200;

/// Replication polling and staleness, as stated in `BENCHMARK.json`.
const REPL_POLL: Duration = Duration::from_millis(2);
const REPL_STALENESS: Duration = Duration::from_millis(50);

/// The flush policy of every durable engine the harness builds.
pub fn wal_config() -> WalConfig {
    WalConfig {
        flush: FlushPolicy::GroupCommit {
            max_batch: 64,
            max_wait: Duration::from_millis(2),
        },
        segment_bytes: 1024 * 1024,
    }
}

/// The engine's `TOPOSEM_*` switches change plans and execution; a run
/// measures the defaults, so any that leak in from the caller's shell
/// are cleared before the first engine is built.
pub fn clear_engine_env() {
    let leaked: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("TOPOSEM_"))
        .collect();
    for k in leaked {
        std::env::remove_var(k);
    }
}

#[cfg(target_os = "linux")]
extern "C" {
    // From the C library std already links; `pid` 0 is the calling thread.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines the calling thread — and every thread spawned from it
/// afterwards: server, clients, flusher, shipper, follower — to one
/// processor, the highest-numbered one it may use, and returns its
/// number.
///
/// On one processor a closed loop hands the CPU from client to server
/// and back without ever waking a second one, so a run measures the
/// CPU work per operation. Spread over two virtual processors the same
/// loop measures the hypervisor's cross-processor wake-up instead,
/// which in the sandbox moves between two levels a third apart every
/// few seconds.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> io::Result<usize> {
    const WORDS: usize = 16;
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed, which is all the call requires.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|i| mask[i / 64] >> (i % 64) & 1 == 1)
        .ok_or_else(|| io::Error::other("empty processor affinity mask"))?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the byte length passed;
    // the call only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> io::Result<usize> {
    Err(io::Error::other(
        "the harness pins threads and reads /proc: Linux only",
    ))
}

/// Keeps the processor busy for `for_how_long`. A virtual processor
/// that has been idle runs up to a third slower for its first second or
/// two of work; whatever is timed first in a process would otherwise be
/// timed on that ramp.
pub fn warm_cpu(for_how_long: Duration) {
    let t0 = Instant::now();
    let mut x = 0u64;
    while t0.elapsed() < for_how_long {
        for _ in 0..100_000 {
            x = std::hint::black_box(
                x.wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407),
            );
        }
    }
}

/// A scratch directory under the harness's output directory, removed
/// when dropped — also on the failure paths, which unwind through it.
pub struct WorkDir(PathBuf);

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

impl WorkDir {
    pub fn new(out_dir: &Path, tag: &str) -> io::Result<WorkDir> {
        let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        let path = out_dir.join(format!("tmp-{}-{n}-{tag}", std::process::id()));
        if path.exists() {
            fs::remove_dir_all(&path)?;
        }
        fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Schema ids the harness needs again and again.
#[derive(Clone, Copy, Debug)]
pub struct Ids {
    pub employee: TypeId,
    pub person: TypeId,
    pub department: TypeId,
    pub name: AttrId,
    pub age: AttrId,
}

impl Ids {
    pub fn of(db: &Database) -> Ids {
        let s = db.schema();
        let ty = |n: &str| s.type_id(n).expect("employee schema names this type");
        let at = |n: &str| s.attr_id(n).expect("employee schema names this attribute");
        Ids {
            employee: ty("employee"),
            person: ty("person"),
            department: ty("department"),
            name: at("name"),
            age: at("age"),
        }
    }
}

pub fn empty_database() -> Database {
    Database::new(
        Intension::analyse(employee_schema()),
        DomainCatalog::employee_defaults(),
        ContainmentPolicy::Eager,
    )
}

/// Name, age, and department of loaded employee row `i`. Departments
/// cycle once per 90 rows, not once per row: ages cycle with period 90,
/// and a department cycle dividing that period would tie every age to
/// one department, leaving a third of the `scan_join` range queries
/// with empty replies.
pub fn employee_row(i: usize) -> (String, i64, &'static str) {
    (format!("e{i:06}"), (i % 90) as i64, DEPS[(i / 90) % 3].0)
}

/// The engine's error types do not convert into one another; the
/// harness reports them all as `io::Error`s carrying their message.
pub fn engine_err(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Builds the durable primary in `wal_dir` and loads it: 3 departments,
/// `rows` employees in [`LOAD_TXNS`] transactions (each propagating a
/// `person` row), then a hash index on `employee.name` and an ordered
/// index on `employee.age`.
pub fn build_primary(wal_dir: &Path, rows: usize) -> io::Result<Arc<Engine>> {
    let wal = Wal::create(wal_dir, wal_config()).map_err(engine_err)?;
    let eng = Engine::durable(empty_database(), wal).map_err(engine_err)?;
    let ids = eng.with_db(Ids::of);
    eng.begin().map_err(engine_err)?;
    for (d, l) in DEPS {
        eng.insert(
            ids.department,
            &[("depname", Value::str(d)), ("location", Value::str(l))],
        )
        .map_err(engine_err)?;
    }
    eng.commit().map_err(engine_err)?;
    let per_txn = rows.div_ceil(LOAD_TXNS);
    for chunk_start in (0..rows).step_by(per_txn) {
        eng.begin().map_err(engine_err)?;
        for i in chunk_start..(chunk_start + per_txn).min(rows) {
            let (name, age, dep) = employee_row(i);
            eng.insert(
                ids.employee,
                &[
                    ("name", Value::Str(name)),
                    ("age", Value::Int(age)),
                    ("depname", Value::str(dep)),
                ],
            )
            .map_err(engine_err)?;
        }
        eng.commit().map_err(engine_err)?;
    }
    eng.create_index_of(ids.employee, IndexKind::Hash, &[ids.name])
        .map_err(engine_err)?;
    eng.create_index_of(ids.employee, IndexKind::Ordered, &[ids.age])
        .map_err(engine_err)?;
    eng.sync().map_err(engine_err)?;
    Ok(Arc::new(eng))
}

/// The replication half of `replicated_rw`. Field order is drop order:
/// the follower and shipper threads stop before the transport goes.
pub struct Replication {
    pub follower: Arc<Follower>,
    pub pool: Arc<ReplicaPool>,
    _shipper: Shipper,
    /// Wall time and size of the checkpoint the follower bootstrapped
    /// from.
    pub checkpoint_s: f64,
    pub checkpoint_bytes: u64,
}

/// A served engine. Field order is drop order: the listener first, then
/// replication, then the engine, and the log directory last.
pub struct System {
    pub server: ServerHandle,
    pub repl: Option<Replication>,
    pub primary: Arc<Engine>,
    pub dir: WorkDir,
}

/// Sets the whole system up from nothing: a fresh directory, the loaded
/// primary, replication when `replicated`, and the listening server.
pub fn build_system(out_dir: &Path, rows: usize, replicated: bool) -> io::Result<System> {
    let dir = WorkDir::new(out_dir, "wal")?;
    let primary = build_primary(&dir.path().join("log"), rows)?;
    let (server, repl) = if replicated {
        let t0 = Instant::now();
        primary.checkpoint().map_err(engine_err)?;
        let checkpoint_s = t0.elapsed().as_secs_f64();
        let checkpoint_bytes = fs::metadata(dir.path().join("log/checkpoint.snap"))?.len();
        let transport: Arc<dyn SegmentTransport> = Arc::new(InProcessTransport::new());
        let shipper = Shipper::start(
            Arc::clone(&primary),
            Arc::clone(&transport),
            ShipperConfig {
                poll_interval: REPL_POLL,
            },
        )
        .map_err(engine_err)?;
        let follower = Arc::new(
            Follower::start(
                transport,
                FollowerConfig {
                    poll_interval: REPL_POLL,
                    max_lsn_wait: REPL_STALENESS,
                },
            )
            .map_err(engine_err)?,
        );
        let pool = Arc::new(
            ReplicaPool::new(vec![Arc::clone(&follower)]).with_staleness_bound(REPL_STALENESS),
        );
        let server = serve_with_replicas(Arc::clone(&primary), Arc::clone(&pool), "127.0.0.1:0")?;
        let repl = Replication {
            follower,
            pool,
            _shipper: shipper,
            checkpoint_s,
            checkpoint_bytes,
        };
        (server, Some(repl))
    } else {
        (serve(Arc::clone(&primary), "127.0.0.1:0")?, None)
    };
    Ok(System {
        server,
        repl,
        primary,
        dir,
    })
}

/// Total bytes of the log segments in `wal_dir` (the checkpoint file is
/// not log volume).
pub fn segment_bytes(wal_dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for seg in toposem_wal::list_segments(wal_dir).map_err(engine_err)? {
        total += fs::metadata(seg)?.len();
    }
    Ok(total)
}
