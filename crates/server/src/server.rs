//! The network front door: a thread-per-connection TCP server speaking
//! the line protocol in [`crate::proto`].
//!
//! Every connection gets its own [`Session`]; concurrent readers run
//! against copy-on-write engine snapshots and never contend on the
//! engine write lock, while writers serialise through the engine's
//! single write token. Responses are framed so clients need no
//! lookahead: `ERR <message>` on one line, or `OK <n> [info...]`
//! followed by exactly `n` body lines.

use std::fmt::{self, Write as _};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use toposem_core::{Schema, TypeId};
use toposem_extension::{Row, Value};
use toposem_obs::QueryTrace;
use toposem_storage::Engine;

use crate::proto::{parse_command, Command};
use crate::replica::ReplicaPool;
use crate::session::Session;

/// Longest request line the server reads, newline included. A client
/// that sends more without a newline is refused and disconnected rather
/// than growing the line buffer without bound.
const MAX_LINE: u64 = 1 << 20;

/// A running server: the bound address plus the accept thread's handle.
/// Dropping the handle shuts the listener down (open connections finish
/// on their own when their clients disconnect).
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept thread.
    pub fn shutdown(&mut self) {
        if let Some(handle) = self.accept.take() {
            self.shutdown.store(true, Ordering::SeqCst);
            // Poke the blocking accept so it observes the flag.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` and serves the engine until the handle shuts down.
/// Every read is answered by the primary; see [`serve_with_replicas`]
/// to offload reads onto replication followers.
pub fn serve(engine: Arc<Engine>, addr: impl ToSocketAddrs) -> io::Result<ServerHandle> {
    serve_inner(engine, None, addr)
}

/// Like [`serve`], but sessions route autocommit reads and `BEGIN
/// READ` pins to `replicas`: each read picks a follower round-robin
/// and requires the session's read floor (read-your-writes), falling
/// back to the primary when the replica is stale past the pool's
/// bound. Write transactions and DDL always execute on the primary.
pub fn serve_with_replicas(
    engine: Arc<Engine>,
    replicas: Arc<ReplicaPool>,
    addr: impl ToSocketAddrs,
) -> io::Result<ServerHandle> {
    serve_inner(engine, Some(replicas), addr)
}

fn serve_inner(
    engine: Arc<Engine>,
    replicas: Option<Arc<ReplicaPool>>,
    addr: impl ToSocketAddrs,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let accept = std::thread::Builder::new()
        .name("toposem-server-accept".to_owned())
        .spawn(move || accept_loop(listener, engine, replicas, flag))?;
    Ok(ServerHandle {
        addr: bound,
        shutdown,
        accept: Some(accept),
    })
}

fn accept_loop(
    listener: TcpListener,
    engine: Arc<Engine>,
    replicas: Option<Arc<ReplicaPool>>,
    shutdown: Arc<AtomicBool>,
) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let engine = Arc::clone(&engine);
        let replicas = replicas.clone();
        let _ = std::thread::Builder::new()
            .name("toposem-server-conn".to_owned())
            .spawn(move || {
                engine.metrics().connections_opened.inc();
                engine.metrics().connections_open.inc();
                let metrics = Arc::clone(engine.metrics());
                let _ = handle_connection(stream, engine, replicas);
                metrics.connections_open.dec();
            });
    }
}

fn handle_connection(
    stream: TcpStream,
    engine: Arc<Engine>,
    replicas: Option<Arc<ReplicaPool>>,
) -> io::Result<()> {
    let metrics = Arc::clone(engine.metrics());
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut session = Session::with_replicas(engine, replicas);
    let mut line = Vec::new();
    // Every reply is encoded into this one buffer and sent with one
    // write; it keeps its capacity from reply to reply.
    let mut out = Vec::new();
    loop {
        line.clear();
        let n = (&mut reader)
            .take(MAX_LINE + 1)
            .read_until(b'\n', &mut line)?;
        if n == 0 {
            return Ok(()); // client hung up
        }
        let (reply, last) = if n as u64 > MAX_LINE {
            (Reply::err("request line too long"), true)
        } else {
            let text = std::str::from_utf8(&line)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            let trimmed = text.trim();
            if trimmed.is_empty() {
                continue;
            }
            match parse_command(trimmed) {
                Ok(Command::Quit) => (Reply::ok("bye"), true),
                Ok(cmd) => (dispatch(&mut session, cmd), false),
                Err(e) => (Reply::err(e.to_string()), false),
            }
        };
        let started = Instant::now();
        out.clear();
        reply.encode(session.engine(), &mut out);
        metrics
            .reply_encode_ns
            .record(started.elapsed().as_nanos() as u64);
        metrics.reply_bytes.add(out.len() as u64);
        writer.write_all(&out)?;
        if last {
            return Ok(());
        }
    }
}

/// One response, before encoding: what the command produced, with no
/// text rendered yet.
enum Reply {
    /// `OK 0 <info>`.
    Ok(String),
    /// `OK <n> <type name>` and one `attr=value …` line per row; a
    /// joined row stays its unmerged pair until it is written.
    Rows(TypeId, Vec<Row>),
    /// `OK <n> <info>` and one body line per line of the text.
    Text(&'static str, String),
    /// `OK <n> trace` and one line per traced plan.
    Trace(Vec<QueryTrace>),
    /// `ERR <message>`.
    Err(String),
}

impl Reply {
    fn ok(info: impl Into<String>) -> Reply {
        Reply::Ok(info.into())
    }

    fn err(msg: impl Into<String>) -> Reply {
        Reply::Err(msg.into())
    }

    /// Appends the framed reply to `out`. Every line is escaped the way
    /// [`push_escaped`] describes, so the one-line-per-row framing
    /// survives arbitrary content. Rows render against the engine's
    /// schema.
    fn encode(&self, engine: &Engine, out: &mut Vec<u8>) {
        match self {
            Reply::Ok(info) => push_head(out, 0, info),
            Reply::Rows(ty, rows) => engine.with_db(|db| {
                let schema = db.schema();
                push_head(out, rows.len(), schema.type_name(*ty));
                for t in rows {
                    push_row(out, schema, t);
                }
            }),
            Reply::Text(info, text) => {
                push_head(out, text.lines().count(), info);
                for line in text.lines() {
                    push_escaped(out, line);
                    out.push(b'\n');
                }
            }
            Reply::Trace(worst) => {
                push_head(out, worst.len(), "trace");
                for t in worst {
                    let _ = write!(
                        Escaped(out),
                        "q={:.2} rows={} plan={:#018x} fp={:#018x} plan_us={} exec_us={} \
                         cache_hit={}",
                        t.max_q,
                        t.rows,
                        t.plan_hash,
                        t.fingerprint,
                        t.plan_ns / 1_000,
                        t.exec_ns / 1_000,
                        t.cache_hit,
                    );
                    if let Some(s) = t.session {
                        let _ = write!(Escaped(out), " session={s}");
                    }
                    out.push(b'\n');
                }
            }
            Reply::Err(msg) => {
                out.extend_from_slice(b"ERR ");
                push_escaped(out, msg);
                out.push(b'\n');
            }
        }
    }
}

/// `OK <n> <info>\n`.
fn push_head(out: &mut Vec<u8>, n: usize, info: &str) {
    out.extend_from_slice(b"OK ");
    push_uint(out, n as u64);
    out.push(b' ');
    push_escaped(out, info);
    out.push(b'\n');
}

/// One row: `attr=value` pairs in attribute order, separated by spaces.
/// A joined pair is written in one id-ordered pass over both of its
/// field lists, a shared attribute once. A value renders exactly as
/// [`Value`]'s `Display` does (strings as their `Debug` form), then
/// line-escaped.
fn push_row(out: &mut Vec<u8>, schema: &Schema, row: &Row) {
    for (i, (a, v)) in row.fields().enumerate() {
        if i > 0 {
            out.push(b' ');
        }
        push_escaped(out, schema.attr_name(*a));
        out.push(b'=');
        match v {
            Value::Int(n) => push_int(out, *n),
            Value::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
            // Printable ASCII other than `"` and `\` is exactly what
            // `{s:?}` leaves unescaped, and none of it needs a line
            // escape: quote the bytes as they are.
            Value::Str(s)
                if s.bytes()
                    .all(|b| matches!(b, b' '..=b'~') && b != b'"' && b != b'\\') =>
            {
                out.push(b'"');
                out.extend_from_slice(s.as_bytes());
                out.push(b'"');
            }
            Value::Str(s) => {
                let _ = write!(Escaped(out), "{s:?}");
            }
        }
    }
    out.push(b'\n');
}

/// Decimal digits of `v`, written in place.
fn push_int(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    push_uint(out, v.unsigned_abs());
}

/// Decimal digits of `n`, written in place.
fn push_uint(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends `s` escaped for a response line: `\` doubles, and
/// newline/tab/carriage-return become `\n`/`\t`/`\r`, so no line ever
/// contains a raw newline. Clients reverse it with the lexer's escape
/// table. The escaped bytes are ASCII, so working bytewise never splits
/// a character.
fn push_escaped(out: &mut Vec<u8>, s: &str) {
    let mut rest = s.as_bytes();
    while let Some(i) = rest
        .iter()
        .position(|b| matches!(b, b'\\' | b'\n' | b'\t' | b'\r'))
    {
        out.extend_from_slice(&rest[..i]);
        out.extend_from_slice(match rest[i] {
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\t' => b"\\t",
            _ => b"\\r",
        });
        rest = &rest[i + 1..];
    }
    out.extend_from_slice(rest);
}

/// A `fmt::Write` sink that line-escapes everything formatted into it.
struct Escaped<'a>(&'a mut Vec<u8>);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        push_escaped(self.0, s);
        Ok(())
    }
}

fn dispatch(session: &mut Session, cmd: Command) -> Reply {
    let result = match cmd {
        Command::Ping => Ok(Reply::ok("pong")),
        Command::Metrics => Ok(Reply::Text(
            "metrics",
            session.engine().metrics_prometheus(),
        )),
        Command::ShowTrace { limit } => Ok(Reply::Trace(
            session.engine().query_trace().worst_plans(limit),
        )),
        Command::Begin { read } => session
            .begin(read)
            .map(|()| Reply::ok(if read { "begin read" } else { "begin" })),
        Command::Commit => session.commit().map(|()| Reply::ok("commit")),
        Command::Abort => session.abort().map(|()| Reply::ok("abort")),
        Command::Query(spec) => session.resolve(&spec).and_then(|q| {
            let (ty, rows) = session.query_rows(q)?;
            Ok(Reply::Rows(ty, rows))
        }),
        Command::Explain(spec) => session
            .resolve(&spec)
            .and_then(|q| Ok(Reply::Text("plan", session.explain(&q)?))),
        Command::Insert { ty, fields } => session.type_id(&ty).and_then(|t| {
            let borrowed: Vec<(&str, toposem_extension::Value)> = fields
                .iter()
                .map(|(a, v)| (a.as_str(), v.clone()))
                .collect();
            let inserted = session.insert(t, &borrowed)?;
            Ok(Reply::ok(format!("inserted={inserted}")))
        }),
        Command::Delete { ty, fields } => session.type_id(&ty).and_then(|t| {
            let borrowed: Vec<(&str, toposem_extension::Value)> = fields
                .iter()
                .map(|(a, v)| (a.as_str(), v.clone()))
                .collect();
            let removed = session.delete(t, &borrowed)?;
            Ok(Reply::ok(format!("deleted={removed}")))
        }),
        Command::CreateIndex { kind, ty, attrs } => {
            resolve_index(session, &ty, &attrs).and_then(|(t, attrs)| {
                session.create_index(kind, t, &attrs)?;
                Ok(Reply::ok("index created"))
            })
        }
        Command::DropIndex { kind, ty, attrs } => {
            resolve_index(session, &ty, &attrs).and_then(|(t, attrs)| {
                let existed = session.drop_index(kind, t, &attrs)?;
                Ok(Reply::ok(format!("dropped={existed}")))
            })
        }
        Command::Quit => unreachable!("handled by the connection loop"),
    };
    result.unwrap_or_else(|e| Reply::err(e.to_string()))
}

fn resolve_index(
    session: &Session,
    ty: &str,
    attrs: &[String],
) -> Result<(toposem_core::TypeId, Vec<toposem_core::AttrId>), crate::session::SessionError> {
    let t = session.type_id(ty)?;
    let mut resolved = Vec::with_capacity(attrs.len());
    for a in attrs {
        resolved.push(session.attr_id(a)?);
    }
    Ok((t, resolved))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use toposem_core::{AttrId, Intension, SchemaBuilder};
    use toposem_extension::{ContainmentPolicy, Database, DomainCatalog, Instance};

    /// The reference renderer: every row merged into one instance
    /// (`Instance::merge`), one `String` per field, joined per row, then
    /// every line escaped. The encoder must reproduce its bytes exactly.
    fn reference(reply: &Reply, schema: &Schema) -> Vec<u8> {
        let (head, body): (Result<String, String>, Vec<String>) = match reply {
            Reply::Ok(info) => (Ok(info.clone()), Vec::new()),
            Reply::Rows(ty, rows) => (
                Ok(schema.type_name(*ty).to_owned()),
                rows.iter()
                    .map(|row| {
                        row.clone()
                            .into_instance()
                            .fields()
                            .iter()
                            .map(|(a, v)| format!("{}={v}", schema.attr_name(*a)))
                            .collect::<Vec<_>>()
                            .join(" ")
                    })
                    .collect(),
            ),
            Reply::Text(info, text) => (
                Ok((*info).to_owned()),
                text.lines().map(str::to_owned).collect(),
            ),
            Reply::Trace(worst) => (
                Ok("trace".to_owned()),
                worst
                    .iter()
                    .map(|t| {
                        format!(
                            "q={:.2} rows={} plan={:#018x} fp={:#018x} plan_us={} exec_us={} \
                             cache_hit={}{}",
                            t.max_q,
                            t.rows,
                            t.plan_hash,
                            t.fingerprint,
                            t.plan_ns / 1_000,
                            t.exec_ns / 1_000,
                            t.cache_hit,
                            t.session
                                .map(|s| format!(" session={s}"))
                                .unwrap_or_default(),
                        )
                    })
                    .collect(),
            ),
            Reply::Err(msg) => (Err(msg.clone()), Vec::new()),
        };
        let mut out = String::new();
        match head {
            Ok(info) => {
                out.push_str(&format!("OK {} {}\n", body.len(), escape_line(&info)));
                for line in &body {
                    out.push_str(&escape_line(line));
                    out.push('\n');
                }
            }
            Err(msg) => out.push_str(&format!("ERR {}\n", escape_line(&msg))),
        }
        out.into_bytes()
    }

    /// The reference's line escape.
    fn escape_line(s: &str) -> String {
        if !s.contains(['\\', '\n', '\t', '\r']) {
            return s.to_owned();
        }
        let mut out = String::with_capacity(s.len() + 4);
        for c in s.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c => out.push(c),
            }
        }
        out
    }

    #[test]
    fn lines_escape_reversibly() {
        assert_eq!(escape_line("plain"), "plain");
        assert_eq!(escape_line("a\nb"), "a\\nb");
        assert_eq!(escape_line("a\\nb"), "a\\\\nb");
        assert_eq!(escape_line("t\tr\r"), "t\\tr\\r");
        // No escaped line ever contains a raw newline — the framing
        // invariant the server relies on.
        assert!(!escape_line("x\n\r\t\\y\n").contains('\n'));
        for s in [
            "plain",
            "a\nb",
            "a\\nb",
            "t\tr\r",
            "x\n\r\t\\y\n",
            "",
            "é\u{301}",
        ] {
            let mut out = Vec::new();
            push_escaped(&mut out, s);
            assert_eq!(out, escape_line(s).into_bytes(), "{s:?}");
        }
    }

    /// Strings that exercise every branch of `{s:?}` and of the line
    /// escape, plus plain ones for the fast path.
    const TRICKY: &[&str] = &[
        "",
        "carol",
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
        "mid\u{301}dle",
        "\u{1b}[0m",
    ];

    /// An engine whose one entity type has attribute names that need
    /// escaping, returned with that type's id and attribute ids.
    fn tricky_engine() -> (Engine, TypeId, Vec<AttrId>) {
        let names = ["name", "tab\tattr", "back\\attr", "nl\nattr", "q\"attr"];
        let mut b = SchemaBuilder::new();
        let attrs: Vec<AttrId> = names.iter().map(|n| b.attribute(n, "any")).collect();
        let ty = b.entity_type("t\\ype", &names);
        let (schema, _) = b.build();
        let db = Database::new(
            Intension::analyse(schema),
            DomainCatalog::new(),
            ContainmentPolicy::Eager,
        );
        (Engine::new(db), ty, attrs)
    }

    fn value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Int(i64::MIN)),
            Just(Value::Int(i64::MAX)),
            (-1_000i64..1_000).prop_map(Value::Int),
            Just(Value::Bool(true)),
            Just(Value::Bool(false)),
            text().prop_map(Value::Str),
        ]
    }

    /// A string glued from pieces of [`TRICKY`].
    fn text() -> impl Strategy<Value = String> {
        prop::collection::vec(0..TRICKY.len(), 0..4)
            .prop_map(|picks| picks.into_iter().map(|i| TRICKY[i]).collect())
    }

    /// A row over `attrs` with values `vals`: one instance when `sides`
    /// is `None`, else the pair whose left side holds the attributes
    /// marked 0 or 2 and whose right side those marked 1 or 2 (2 =
    /// shared, so both sides carry the same value).
    fn row(attrs: &[AttrId], vals: Vec<Value>, sides: Option<Vec<u8>>) -> Row {
        let fields: Vec<(AttrId, Value)> = attrs.iter().copied().zip(vals).collect();
        let Some(sides) = sides else {
            return Row::One(Instance::from_parts(fields));
        };
        let side = |keep: fn(u8) -> bool| {
            Instance::from_parts(
                fields
                    .iter()
                    .zip(&sides)
                    .filter(|(_, s)| keep(**s))
                    .map(|(f, _)| f.clone())
                    .collect(),
            )
        };
        Row::Pair(side(|s| s != 1), side(|s| s != 0))
    }

    fn encoded(reply: &Reply, engine: &Engine) -> Vec<u8> {
        let mut out = Vec::new();
        reply.encode(engine, &mut out);
        out
    }

    proptest! {
        /// Whole replies from the encoder equal the reference renderer's,
        /// byte for byte, for rows (single instances and unmerged join
        /// pairs), text bodies, acks, and errors.
        #[test]
        fn encoder_matches_reference_renderer(
            rows in prop::collection::vec(
                (
                    prop::collection::vec(value(), 5),
                    prop_oneof![
                        Just(None),
                        prop::collection::vec(0u8..3, 5).prop_map(Some),
                    ],
                ),
                0..12,
            ),
            info in text(),
            body in prop::collection::vec(text(), 0..6),
        ) {
            let (engine, ty, attrs) = tricky_engine();
            let rows: Vec<Row> = rows
                .into_iter()
                .map(|(vals, sides)| row(&attrs, vals, sides))
                .collect();
            let trace = QueryTrace {
                fingerprint: 7,
                plan_hash: u64::MAX,
                plan_ns: 12_345,
                exec_ns: 999,
                commit_ns: 0,
                rows: rows.len() as u64,
                cache_hit: true,
                slow: false,
                max_q: 1.5,
                txn: None,
                session: Some(3),
                profile: None,
            };
            let replies = [
                Reply::Rows(ty, rows),
                Reply::Ok(info.clone()),
                Reply::Err(info),
                Reply::Text("metrics", body.join("\n")),
                Reply::Trace(vec![trace.clone(), QueryTrace { session: None, ..trace }]),
            ];
            let schema = engine.with_db(|db| db.schema().clone());
            for reply in &replies {
                let got = encoded(reply, &engine);
                let want = reference(reply, &schema);
                prop_assert_eq!(String::from_utf8_lossy(&got), String::from_utf8_lossy(&want));
            }
        }
    }

    #[test]
    fn every_tricky_string_renders_as_the_reference() {
        let (engine, ty, attrs) = tricky_engine();
        let schema = engine.with_db(|db| db.schema().clone());
        for s in TRICKY {
            let vals = || attrs.iter().map(|_| Value::Str((*s).to_owned())).collect();
            let reply = Reply::Rows(
                ty,
                vec![
                    row(&attrs, vals(), None),
                    row(&attrs, vals(), Some(vec![0, 2, 1, 2, 0])),
                ],
            );
            assert_eq!(
                encoded(&reply, &engine),
                reference(&reply, &schema),
                "{s:?}"
            );
        }
    }

    #[test]
    fn integers_render_in_place() {
        for v in [0, 7, -7, 10, -10, 1_000_000, i64::MIN, i64::MAX] {
            let mut out = Vec::new();
            push_int(&mut out, v);
            assert_eq!(out, v.to_string().into_bytes());
        }
    }
}
