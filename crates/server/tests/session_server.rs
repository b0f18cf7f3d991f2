//! End-to-end coverage of the session front door: real TCP clients
//! speaking the line protocol against one shared engine, exercising
//! snapshot-isolated reads, write transactions, DML/DDL, replica read
//! routing, and the framing itself.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use toposem_core::{employee_schema, Intension};
use toposem_extension::{ContainmentPolicy, Database, DomainCatalog};
use toposem_repl::{
    Follower, FollowerConfig, InProcessTransport, SegmentTransport, Shipper, ShipperConfig,
};
use toposem_server::{serve, serve_with_replicas, ReplicaPool, ServerHandle, Session};
use toposem_storage::Engine;
use toposem_wal::{FlushPolicy, Wal, WalConfig};

fn engine() -> Arc<Engine> {
    Arc::new(Engine::new(Database::new(
        Intension::analyse(employee_schema()),
        DomainCatalog::employee_defaults(),
        ContainmentPolicy::Eager,
    )))
}

fn server() -> (Arc<Engine>, ServerHandle) {
    let eng = engine();
    let handle = serve(Arc::clone(&eng), "127.0.0.1:0").unwrap();
    (eng, handle)
}

/// A test client: sends one command, reads one framed response.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        let stream = TcpStream::connect(handle.addr()).unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// Sends `cmd`, returns `(header, body)` — header without the body
    /// count, e.g. `"OK employee"` or `"ERR unknown command"`.
    fn send(&mut self, cmd: &str) -> (String, Vec<String>) {
        let mut lines = self.frame(cmd).into_iter().map(|l| l.trim_end().to_owned());
        let head = lines.next().unwrap();
        let head = match head.strip_prefix("OK ") {
            Some(rest) => {
                let info = rest.split_once(' ').map_or("", |(_, info)| info);
                format!("OK {info}").trim_end().to_owned()
            }
            None => head,
        };
        (head, lines.collect())
    }

    /// Sends `cmd`, asserts success, returns the body lines.
    fn ok(&mut self, cmd: &str) -> Vec<String> {
        let (head, body) = self.send(cmd);
        assert!(head.starts_with("OK"), "`{cmd}` failed: {head}");
        body
    }

    /// Sends `cmd`, asserts failure, returns the error message.
    fn err(&mut self, cmd: &str) -> String {
        let (head, _) = self.send(cmd);
        assert!(head.starts_with("ERR"), "`{cmd}` unexpectedly ok: {head}");
        head
    }

    /// Sends `cmd` and returns the whole frame exactly as sent — header
    /// then `n` body lines — each line without its newline and nothing
    /// trimmed.
    fn frame(&mut self, cmd: &str) -> Vec<String> {
        writeln!(self.writer, "{cmd}").unwrap();
        let mut read = || {
            let mut line = String::new();
            self.reader.read_line(&mut line).unwrap();
            line.strip_suffix('\n')
                .unwrap_or_else(|| panic!("unterminated line {line:?}"))
                .to_owned()
        };
        let head = read();
        let n: usize = match head.strip_prefix("OK ") {
            Some(rest) => {
                let n = rest.split(' ').next().unwrap();
                n.parse().unwrap_or_else(|_| panic!("bad frame: {head}"))
            }
            None => 0,
        };
        let mut lines = vec![head];
        for _ in 0..n {
            lines.push(read());
        }
        lines
    }
}

/// The reference rendering of a query reply, which the server's encoder
/// must reproduce byte for byte: each field as
/// `format!("{name}={value}")`, joined by spaces, then the line escape.
/// Rows arrive in the order a session returns them.
fn reference_frame(eng: &Arc<Engine>, query: &toposem_storage::Query) -> Vec<String> {
    let escape = |s: &str| {
        s.replace('\\', "\\\\")
            .replace('\n', "\\n")
            .replace('\t', "\\t")
            .replace('\r', "\\r")
    };
    let (ty, rows) = Session::new(Arc::clone(eng)).query(query).unwrap();
    eng.with_db(|db| {
        let schema = db.schema();
        let mut lines = vec![format!(
            "OK {} {}",
            rows.len(),
            escape(schema.type_name(ty))
        )];
        for t in &rows {
            let fields: Vec<String> = t
                .fields()
                .iter()
                .map(|(a, v)| format!("{}={v}", schema.attr_name(*a)))
                .collect();
            lines.push(escape(&fields.join(" ")));
        }
        lines
    })
}

#[test]
fn protocol_round_trip() {
    let (_eng, handle) = server();
    let mut c = Client::connect(&handle);

    let (head, _) = c.send("PING");
    assert_eq!(head, "OK pong");

    c.ok("INSERT employee name='w1', age=30, depname='sales'");
    c.ok("INSERT employee name='w2', age=10, depname='sales'");
    c.ok("INSERT employee name='w3', age=20, depname='admin'");

    // Ordered query: body rows come back sorted by the requested key.
    let rows = c.ok("QUERY scan employee | order by age asc");
    assert_eq!(rows.len(), 3, "rows: {rows:?}");
    assert!(
        rows[0].contains("age=10") && rows[2].contains("age=30"),
        "{rows:?}"
    );

    // Selection narrows, join resolves, explain renders a plan tree.
    let rows = c.ok("QUERY scan employee | select depname = 'sales'");
    assert_eq!(rows.len(), 2);
    let plan = c.ok("EXPLAIN scan employee | select depname = 'sales'");
    assert!(plan.iter().any(|l| l.contains("SeqScan")), "{plan:?}");

    // Deleting by full field list removes the tuple.
    let (head, _) = c.send("DELETE employee name='w3', age=20, depname='admin'");
    assert!(head.contains("deleted="), "{head}");
    assert_eq!(c.ok("QUERY scan employee").len(), 2);

    // Errors come back as ERR without killing the connection.
    c.err("FROBNICATE");
    c.err("QUERY scan nosuchtype");
    c.err("COMMIT"); // no open transaction
    assert_eq!(c.send("PING").0, "OK pong");

    // Metrics include the session/connection series.
    let metrics = c.ok("METRICS");
    assert!(metrics
        .iter()
        .any(|l| l.starts_with("toposem_sessions_open ")));
    assert!(metrics
        .iter()
        .any(|l| l.starts_with("toposem_connections_opened_total ")));
}

#[test]
fn begin_read_pins_one_snapshot_epoch() {
    let (_eng, handle) = server();
    let mut a = Client::connect(&handle);
    let mut b = Client::connect(&handle);

    a.ok("INSERT employee name='w1', age=1, depname='sales'");
    a.ok("INSERT employee name='w2', age=2, depname='sales'");
    assert_eq!(b.ok("QUERY scan employee").len(), 2);

    // A pins a snapshot; B's later commits must stay invisible to it.
    a.ok("BEGIN READ");
    b.ok("INSERT employee name='w3', age=3, depname='admin'");
    b.ok("INSERT employee name='w4', age=4, depname='admin'");
    assert_eq!(b.ok("QUERY scan employee").len(), 4, "B sees its commits");
    assert_eq!(
        a.ok("QUERY scan employee").len(),
        2,
        "pinned reader must not see later commits"
    );
    // Repeat: still the same epoch, however often A asks.
    assert_eq!(a.ok("QUERY scan employee").len(), 2);

    // Writes are rejected inside a read transaction.
    a.err("INSERT employee name='w5', age=5, depname='admin'");

    // Releasing the pin catches A up to the current committed state.
    a.ok("COMMIT");
    assert_eq!(a.ok("QUERY scan employee").len(), 4);
}

#[test]
fn write_transaction_is_invisible_until_commit() {
    let (_eng, handle) = server();
    let mut a = Client::connect(&handle);
    let mut b = Client::connect(&handle);

    a.ok("INSERT employee name='w1', age=1, depname='sales'");
    // Prime the committed snapshot so B's autocommit reads never need
    // the engine lock while A holds the write token.
    assert_eq!(b.ok("QUERY scan employee").len(), 1);

    a.ok("BEGIN");
    a.ok("INSERT employee name='w2', age=2, depname='sales'");
    assert_eq!(
        a.ok("QUERY scan employee").len(),
        2,
        "a write transaction sees its own writes"
    );
    assert_eq!(
        b.ok("QUERY scan employee").len(),
        1,
        "autocommit readers see only committed state"
    );

    // Another session cannot take the single write token meanwhile.
    b.err("BEGIN");

    a.ok("ABORT");
    assert_eq!(a.ok("QUERY scan employee").len(), 1, "abort rolled back");
    assert_eq!(b.ok("QUERY scan employee").len(), 1);

    a.ok("BEGIN");
    a.ok("INSERT employee name='w3', age=3, depname='admin'");
    a.ok("COMMIT");
    assert_eq!(b.ok("QUERY scan employee").len(), 2, "commit published");
}

#[test]
fn first_txn_reads_stay_lock_free_via_the_primed_snapshot() {
    let (eng, handle) = server();
    let mut a = Client::connect(&handle);
    let mut b = Client::connect(&handle);

    // A takes the write token as the engine's *first* transaction — no
    // session has ever requested a snapshot.
    a.ok("BEGIN");
    a.ok("INSERT employee name='w1', age=1, depname='sales'");

    // B's autocommit read arrives mid-transaction. The snapshot primed
    // at engine construction serves the committed (empty) state; the
    // snapshot-hit counter pins that the read went through the
    // lock-free route rather than the locked fallback.
    let hits_before = eng.metrics().snapshot_hits.get();
    assert_eq!(
        b.ok("QUERY scan employee").len(),
        0,
        "uncommitted writes must stay invisible"
    );
    assert!(
        eng.metrics().snapshot_hits.get() > hits_before,
        "first-txn autocommit read must hit the primed snapshot"
    );

    // BEGIN READ also succeeds mid-write-transaction for the same
    // reason (it needs a committed snapshot to pin).
    b.ok("BEGIN READ");
    assert_eq!(b.ok("QUERY scan employee").len(), 0);
    b.ok("COMMIT");

    a.ok("COMMIT");
    assert_eq!(b.ok("QUERY scan employee").len(), 1, "commit published");
}

#[test]
fn ddl_is_autocommit_only_and_changes_plans() {
    let (_eng, handle) = server();
    let mut c = Client::connect(&handle);
    for i in 0..20 {
        c.ok(&format!(
            "INSERT employee name='w{i:02}', age={i}, depname='sales'"
        ));
    }
    c.ok("CREATE INDEX ord employee age");
    let plan = c.ok("EXPLAIN scan employee | select age >= 10");
    assert!(
        plan.iter().any(|l| l.contains("IndexRangeSeek")),
        "created index must open an access path: {plan:?}"
    );

    c.ok("BEGIN");
    c.err("CREATE INDEX hash employee name");
    c.err("DROP INDEX ord employee age");
    c.ok("ABORT");

    let (head, _) = c.send("DROP INDEX ord employee age");
    assert_eq!(head, "OK dropped=true");
    let plan = c.ok("EXPLAIN scan employee | select age >= 10");
    assert!(
        !plan.iter().any(|l| l.contains("IndexRangeSeek")),
        "dropped index must not be planned against: {plan:?}"
    );
}

#[test]
fn explain_in_a_read_transaction_plans_against_the_pinned_epoch() {
    let (_eng, handle) = server();
    let mut a = Client::connect(&handle);
    let mut b = Client::connect(&handle);
    for i in 0..40 {
        let dep = ["sales", "admin", "research"][i % 3];
        b.ok(&format!(
            "INSERT employee name='w{i:02}', age={i}, depname='{dep}'"
        ));
    }
    let explain = "EXPLAIN scan employee | select depname = 'sales'";

    // A pins the index-free epoch; B's index lands after the pin.
    a.ok("BEGIN READ");
    b.ok("CREATE INDEX hash employee depname");
    let live = b.ok(explain);
    assert!(
        live.iter().any(|l| l.contains("IndexSeek")),
        "the live engine plans the new index: {live:?}"
    );
    let pinned = a.ok(explain);
    assert!(
        !pinned.iter().any(|l| l.contains("IndexSeek")),
        "a pinned reader must explain the plan its own epoch can run: {pinned:?}"
    );
    assert_eq!(
        a.ok("QUERY scan employee | select depname = 'sales'").len(),
        14
    );

    // Releasing the pin explains against the current epoch again.
    a.ok("COMMIT");
    let after = a.ok(explain);
    assert!(
        after.iter().any(|l| l.contains("IndexSeek")),
        "after COMMIT the index is visible: {after:?}"
    );
}

#[test]
fn disconnect_mid_transaction_releases_the_write_token() {
    let (eng, handle) = server();
    {
        let mut a = Client::connect(&handle);
        a.ok("INSERT employee name='w1', age=1, depname='sales'");
        a.ok("BEGIN");
        a.ok("INSERT employee name='w2', age=2, depname='sales'");
        // Drop the connection with the transaction still open.
    }
    // The session's Drop rolls back; a new session can write again.
    let mut b = Client::connect(&handle);
    let t0 = std::time::Instant::now();
    loop {
        let (head, _) = b.send("BEGIN");
        if head.starts_with("OK") {
            break;
        }
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "write token never released: {head}"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(
        b.ok("QUERY scan employee").len(),
        1,
        "the orphaned transaction must have rolled back"
    );
    b.ok("COMMIT");
    drop(b);
    drop(handle);
    // Each connection thread decrements the gauge after it sees its
    // client hang up, which can trail the client's own drop.
    let t0 = std::time::Instant::now();
    while eng.metrics().connections_open.get() != 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "connections never closed"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn sessions_are_metered_and_attributed() {
    let eng = engine();
    let mut s1 = Session::new(Arc::clone(&eng));
    let s2 = Session::new(Arc::clone(&eng));
    assert_ne!(s1.id(), s2.id());
    assert_eq!(eng.metrics().sessions_open.get(), 2);

    let person = s1.type_id("person").unwrap();
    s1.insert(
        person,
        &[
            ("name", toposem_extension::Value::str("p1")),
            ("age", toposem_extension::Value::Int(7)),
        ],
    )
    .unwrap();
    let q = toposem_storage::Query::scan(person);
    let (_, rows) = s2.query(&q).unwrap();
    assert_eq!(rows.len(), 1);

    // The trace ring stamps the session id that ran the query.
    let traced: Vec<_> = eng
        .query_trace()
        .recent()
        .into_iter()
        .filter_map(|t| t.session)
        .collect();
    assert!(
        traced.contains(&s2.id()),
        "trace must attribute the query to session {}: {traced:?}",
        s2.id()
    );

    drop(s2);
    assert_eq!(eng.metrics().sessions_open.get(), 1);
    drop(s1);
    assert_eq!(eng.metrics().sessions_open.get(), 0);
}

// ---------------------------------------------------------------------
// Replica read routing.
// ---------------------------------------------------------------------

fn temp_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "toposem-server-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable primary with a shipper, one live follower, and a server
/// routing reads to it. The shipper and transport ride along so tests
/// can keep them alive or cut the link.
struct Replicated {
    primary: Arc<Engine>,
    transport: Arc<InProcessTransport>,
    _shipper: Shipper,
    follower: Arc<Follower>,
    handle: ServerHandle,
}

fn replicated_server(
    tag: &str,
    poll_interval: Duration,
    max_lsn_wait: Duration,
    staleness: Duration,
) -> Replicated {
    let dir = temp_dir(tag);
    let wal = Wal::create(
        &dir,
        WalConfig {
            flush: FlushPolicy::NoSync,
            segment_bytes: 4096,
        },
    )
    .unwrap();
    let primary = Arc::new(
        Engine::durable(
            Database::new(
                Intension::analyse(employee_schema()),
                DomainCatalog::employee_defaults(),
                ContainmentPolicy::Eager,
            ),
            wal,
        )
        .unwrap(),
    );
    let transport = Arc::new(InProcessTransport::new());
    let shipper = Shipper::start(
        Arc::clone(&primary),
        transport.clone() as Arc<dyn SegmentTransport>,
        ShipperConfig { poll_interval },
    )
    .unwrap();
    let follower = Arc::new(
        Follower::start_when_ready(
            transport.clone() as Arc<dyn SegmentTransport>,
            FollowerConfig {
                poll_interval,
                max_lsn_wait,
            },
            Duration::from_secs(10),
        )
        .unwrap(),
    );
    let pool =
        Arc::new(ReplicaPool::new(vec![Arc::clone(&follower)]).with_staleness_bound(staleness));
    let handle = serve_with_replicas(Arc::clone(&primary), pool, "127.0.0.1:0").unwrap();
    Replicated {
        primary,
        transport,
        _shipper: shipper,
        follower,
        handle,
    }
}

/// Counts query (not commit) traces on an engine's ring.
fn query_traces(eng: &Engine) -> usize {
    eng.query_trace()
        .recent()
        .iter()
        .filter(|t| t.fingerprint != 0)
        .count()
}

#[test]
fn replica_serves_reads_and_primary_takes_writes() {
    let r = replicated_server(
        "route",
        Duration::from_millis(2),
        Duration::from_secs(5),
        Duration::from_secs(5),
    );
    let mut a = Client::connect(&r.handle);
    let mut b = Client::connect(&r.handle);

    // Writes land on the primary and advance its WAL.
    let wal_before = r.primary.wal_next_lsn().unwrap();
    a.ok("INSERT employee name='w1', age=30, depname='sales'");
    a.ok("INSERT employee name='w2', age=10, depname='sales'");
    a.ok("INSERT employee name='w3', age=20, depname='admin'");
    assert!(r.primary.wal_next_lsn().unwrap() > wal_before);

    // The writing session reads its own writes immediately: the read
    // floor forces the replica to catch up (or the primary to answer).
    let replica_before = query_traces(&r.follower.engine());
    let rows = a.ok("QUERY scan employee | order by age asc");
    assert_eq!(rows.len(), 3, "{rows:?}");
    assert!(rows[0].contains("age=10"), "{rows:?}");

    // The read was served by the replica engine, not the primary.
    assert!(
        query_traces(&r.follower.engine()) > replica_before,
        "autocommit read must execute on the replica"
    );

    // BEGIN READ pins a replica snapshot: a later commit (by the other
    // session) stays invisible until the pin is released.
    a.ok("BEGIN READ");
    b.ok("INSERT employee name='w4', age=40, depname='admin'");
    assert_eq!(b.ok("QUERY scan employee").len(), 4, "B reads its write");
    assert_eq!(
        a.ok("QUERY scan employee").len(),
        3,
        "pinned replica reader must not see later commits"
    );
    a.ok("COMMIT");
    assert_eq!(a.ok("QUERY scan employee").len(), 4);

    // Writes are still rejected inside a read transaction.
    a.ok("BEGIN READ");
    a.err("INSERT employee name='w5', age=5, depname='admin'");
    a.ok("ABORT");
}

#[test]
fn stale_replica_falls_back_to_the_primary() {
    // Tiny bounds: a stalled replica must not block reads for long.
    let r = replicated_server(
        "stale",
        Duration::from_millis(2),
        Duration::from_millis(20),
        Duration::from_millis(20),
    );
    let mut c = Client::connect(&r.handle);
    c.ok("INSERT employee name='w1', age=1, depname='sales'");
    assert_eq!(c.ok("QUERY scan employee").len(), 1);

    // Cut the replication link, then write: the replica can never
    // reach the session's new read floor.
    r.transport.set_offline(true);
    c.ok("INSERT employee name='w2', age=2, depname='sales'");

    let primary_before = query_traces(&r.primary);
    let rows = c.ok("QUERY scan employee | order by age asc");
    assert_eq!(rows.len(), 2, "fallback must serve the fresh state");
    assert!(
        query_traces(&r.primary) > primary_before,
        "stale replica must fall back to the primary"
    );

    // BEGIN READ falls back the same way and pins fresh state.
    c.ok("BEGIN READ");
    assert_eq!(c.ok("QUERY scan employee").len(), 2);
    c.ok("COMMIT");

    // Restore the link: replica routing resumes once caught up.
    r.transport.set_offline(false);
    assert!(r
        .follower
        .wait_for_lsn(r.primary.wal_next_lsn().unwrap(), Duration::from_secs(10)));
    assert_eq!(c.ok("QUERY scan employee").len(), 2);
}

/// With 10 s polls on both replication sides, a session's read of its
/// own write is still served by the follower inside a 1 s staleness
/// bound: the commit wakes the shipper and the manifest wakes the
/// follower. (Run with `wake_` filters in the single-CPU CI step.)
#[test]
fn wake_read_your_writes_is_served_by_the_replica() {
    let r = replicated_server(
        "wake-ryw",
        Duration::from_secs(10),
        Duration::from_secs(1),
        Duration::from_secs(1),
    );
    let planned = |e: &Engine| e.metrics_snapshot().queries.planned;
    let mut c = Client::connect(&r.handle);
    for i in 0..3 {
        c.ok(&format!(
            "INSERT employee name='w{i}', age={i}, depname='sales'"
        ));
        let (primary_before, replica_before) = (planned(&r.primary), planned(&r.follower.engine()));
        assert_eq!(c.ok("QUERY scan employee").len(), i + 1);
        assert!(
            planned(&r.follower.engine()) > replica_before,
            "read {i} must execute on the replica"
        );
        assert_eq!(
            planned(&r.primary),
            primary_before,
            "read {i} fell back to the primary"
        );
    }
}

// ---------------------------------------------------------------------
// Protocol polish: string escapes and SHOW TRACE.
// ---------------------------------------------------------------------

#[test]
fn string_escapes_round_trip_through_the_wire() {
    let (_eng, handle) = server();
    let mut c = Client::connect(&handle);

    // A value with an embedded newline, quote, and backslash survives
    // insert → select → render without desynchronising the framing.
    c.ok(r"INSERT employee name='a\'b\nc\\d', age=1, depname='sales'");
    let rows = c.ok(r"QUERY scan employee | select name = 'a\'b\nc\\d'");
    assert_eq!(rows.len(), 1, "escaped literal must match the stored value");
    assert!(
        !rows[0].contains('\n') && rows[0].contains("\\n"),
        "newline must be escaped in the body line: {:?}",
        rows[0]
    );
    // The frame stayed in sync.
    assert_eq!(c.send("PING").0, "OK pong");

    // Unknown escapes are rejected as parse errors, connection intact.
    c.err(r"INSERT employee name='bad \q', age=1, depname='x'");
    assert_eq!(c.send("PING").0, "OK pong");
}

#[test]
fn show_trace_surfaces_worst_plans() {
    let (eng, handle) = server();
    let mut c = Client::connect(&handle);

    // Nothing profiled yet: an empty, well-formed frame.
    let (head, body) = c.send("SHOW TRACE");
    assert_eq!(head, "OK trace");
    assert!(body.is_empty());

    for i in 0..10 {
        c.ok(&format!(
            "INSERT employee name='w{i}', age={i}, depname='sales'"
        ));
    }
    // A profiled run retains its operator profile and records q-error,
    // which is what the watchdog ranks.
    let employee = eng.with_db(|db| db.schema().type_id("employee").unwrap());
    let q = toposem_storage::Query::scan(employee);
    use toposem_planner::{QueryRequest, QueryTarget};
    eng.run(&QueryRequest::new(q).profiled()).unwrap();

    let body = c.ok("SHOW TRACE 3");
    assert!(!body.is_empty(), "profiled query must appear in SHOW TRACE");
    assert!(
        body[0].starts_with("q=") && body[0].contains("exec_us="),
        "unexpected trace line: {:?}",
        body[0]
    );
    assert!(body.len() <= 3);
}

// ---------------------------------------------------------------------
// Reply encoding and request-line bounds.
// ---------------------------------------------------------------------

/// Stored strings that exercise every escape `{s:?}` and the line
/// escape can produce.
const TRICKY: &[&str] = &[
    "",
    "it's",
    "say \"hi\"",
    "back\\slash",
    "line\nbreak",
    "tab\there",
    "cr\rhere",
    "nul\0byte",
    "del\u{7f}",
    "naïve 東京",
    "\u{301}leading combining mark",
];

fn person_query(eng: &Engine) -> (toposem_core::TypeId, toposem_storage::Query) {
    eng.with_db(|db| {
        let s = db.schema();
        let person = s.type_id("person").unwrap();
        let age = s.attr_id("age").unwrap();
        let q = toposem_storage::Query::scan(person)
            .order_by(vec![(age, toposem_storage::SortDir::Asc)]);
        (person, q)
    })
}

#[test]
fn tricky_strings_come_back_exactly_as_the_reference_renders_them() {
    let (eng, handle) = server();
    let (person, q) = person_query(&eng);
    for (i, s) in TRICKY.iter().enumerate() {
        eng.insert(
            person,
            &[
                ("name", toposem_extension::Value::str(s)),
                ("age", toposem_extension::Value::Int(i as i64)),
            ],
        )
        .unwrap();
    }
    let mut c = Client::connect(&handle);
    let frame = c.frame("QUERY scan person | order by age");
    assert_eq!(frame[0], format!("OK {} person", TRICKY.len()));
    assert_eq!(frame, reference_frame(&eng, &q));
    assert_eq!(c.frame("PING"), ["OK 0 pong"], "framing stayed in sync");
}

/// A joined reply is written from its unmerged (build, probe) pairs;
/// with tricky strings in the shared attribute and on both sides, every
/// body line must still be the reference rendering of the merged row.
#[test]
fn joined_rows_with_tricky_strings_on_both_sides_match_the_reference() {
    let mut catalog = DomainCatalog::employee_defaults();
    catalog
        .bind("department-names", toposem_extension::DomainSpec::AnyStr)
        .bind("locations", toposem_extension::DomainSpec::AnyStr);
    let eng = Arc::new(Engine::new(Database::new(
        Intension::analyse(employee_schema()),
        catalog,
        ContainmentPolicy::Eager,
    )));
    let handle = serve(Arc::clone(&eng), "127.0.0.1:0").unwrap();
    let (employee, department, name) = eng.with_db(|db| {
        let s = db.schema();
        (
            s.type_id("employee").unwrap(),
            s.type_id("department").unwrap(),
            s.attr_id("name").unwrap(),
        )
    });
    let n = TRICKY.len();
    for (i, s) in TRICKY.iter().enumerate() {
        let str = toposem_extension::Value::str;
        eng.insert(
            employee,
            &[
                ("name", str(s)),
                ("age", toposem_extension::Value::Int(i as i64)),
                ("depname", str(TRICKY[(i + 1) % n])),
            ],
        )
        .unwrap();
        eng.insert(
            department,
            &[("depname", str(s)), ("location", str(TRICKY[(i + 2) % n]))],
        )
        .unwrap();
    }
    let q = toposem_storage::Query::scan(employee)
        .join(toposem_storage::Query::scan(department))
        .order_by(vec![(name, toposem_storage::SortDir::Asc)]);
    let mut c = Client::connect(&handle);
    assert!(
        c.ok("EXPLAIN scan employee | join (scan department) | order by name")
            .iter()
            .any(|l| l.contains("Join")),
        "the query must run a join"
    );
    let frame = c.frame("QUERY scan employee | join (scan department) | order by name");
    assert_eq!(frame[0], format!("OK {n} worksfor"));
    assert_eq!(frame, reference_frame(&eng, &q));
    assert_eq!(c.frame("PING"), ["OK 0 pong"], "framing stayed in sync");
}

#[test]
fn the_reused_reply_buffer_carries_no_stale_bytes() {
    let (eng, handle) = server();
    let (person, q) = person_query(&eng);
    for i in 0..200 {
        eng.insert(
            person,
            &[
                ("name", toposem_extension::Value::str(&format!("p{i:03}"))),
                ("age", toposem_extension::Value::Int(i % 150)),
            ],
        )
        .unwrap();
    }
    let mut c = Client::connect(&handle);
    let big = c.frame("QUERY scan person | order by age");
    assert_eq!(big.len(), 201);
    assert_eq!(big, reference_frame(&eng, &q));
    let one = c.frame("QUERY scan person | select name = 'p007'");
    assert_eq!(one, ["OK 1 person", "name=\"p007\" age=7"]);
    assert_eq!(
        c.frame("QUERY scan nosuchtype"),
        ["ERR unknown entity type `nosuchtype`"]
    );
    assert_eq!(c.frame("PING"), ["OK 0 pong"]);
}

#[test]
fn an_overlong_request_line_is_refused_and_the_connection_closed() {
    let (eng, handle) = server();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    // 2 MiB with no newline; the server stops reading at 1 MiB, so the
    // tail may fail to send once it hangs up.
    let flood = std::thread::spawn(move || {
        let _ = writer.write_all(&vec![b'x'; 2 << 20]);
    });
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line, "ERR request line too long\n");
    line.clear();
    // Closed: end of stream, or a reset for the bytes it never read.
    assert!(
        matches!(reader.read_line(&mut line), Ok(0) | Err(_)),
        "{line:?}"
    );
    flood.join().unwrap();

    let mut c = Client::connect(&handle);
    assert_eq!(c.send("PING").0, "OK pong");
    c.ok("INSERT person name='after', age=1");
    assert_eq!(c.ok("QUERY scan person").len(), 1);
    drop(c);
    drop(handle);
    assert!(
        eng.metrics().reply_bytes.get() > 0,
        "replies are metered in bytes"
    );
}
