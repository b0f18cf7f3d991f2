//! The five named workloads: what each connection sends, and what the
//! correct reply to every statement is.
//!
//! A workload is a deterministic function of the seed. The statement
//! stream of one connection is produced by a [`ConnGen`]; the socket
//! clients and the in-process layer probes both consume it, so the
//! traced run sees the same statements the untraced run sends.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use toposem_extension::{Database, Instance};
use toposem_server::{parse_command, resolve_query, Command};
use toposem_storage::Query;

use crate::fixture::{employee_row, Ids, DEPS};
use crate::gen::{permutation, Rng, Zipf};

/// Skew of the point-read key distribution.
pub const ZIPF_THETA: f64 = 0.99;
/// One in this many `mixed_rw`/`replicated_rw` operations writes. The
/// writes come at a fixed stride, not at random: a write costs a
/// thousand reads here, so a window's throughput would otherwise follow
/// the luck of how many writes the seed dealt it.
const WRITE_EVERY: u64 = 10;
/// Rows a churning connection keeps alive before it starts deleting.
const CHURN_LIVE: usize = 4;
/// Rows a `write_txn` transaction inserts (and deletes of the previous).
const TXN_ROWS: usize = 4;
/// Distinct ages loaded, hence distinct parameters of `scan_join`.
const AGES: u64 = 90;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    PointRead,
    ScanJoin,
    WriteTxn,
    MixedRw,
    ReplicatedRw,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::PointRead,
        Kind::ScanJoin,
        Kind::WriteTxn,
        Kind::MixedRw,
        Kind::ReplicatedRw,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PointRead => "point_read",
            Kind::ScanJoin => "scan_join",
            Kind::WriteTxn => "write_txn",
            Kind::MixedRw => "mixed_rw",
            Kind::ReplicatedRw => "replicated_rw",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Client connections (= client threads). `write_txn` has one: the
    /// engine has a single write token and refuses, not queues, a second
    /// `BEGIN`.
    pub fn connections(self) -> usize {
        match self {
            Kind::WriteTxn => 1,
            _ => 2,
        }
    }

    pub fn replicated(self) -> bool {
        self == Kind::ReplicatedRw
    }

    pub fn writes(self) -> bool {
        !matches!(self, Kind::PointRead | Kind::ScanJoin)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Read,
    Write,
}

/// An order-sensitive and an order-insensitive checksum of a reply's
/// body, cheap enough to compute on every reply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    pub lines: u32,
    /// Wrapping sum of the line hashes: equal for any row order.
    pub sum: u64,
    /// Hash chain over the lines in arrival order.
    pub chain: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Digest {
    pub fn push(&mut self, line: &str) {
        let mut h = FNV_OFFSET;
        for b in line.bytes() {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self.lines += 1;
        self.sum = self.sum.wrapping_add(h);
        self.chain = (self.chain ^ h).wrapping_mul(FNV_PRIME);
    }

    pub fn of<'a>(lines: impl IntoIterator<Item = &'a str>) -> Digest {
        let mut d = Digest::default();
        for l in lines {
            d.push(l);
        }
        d
    }
}

/// What the correct reply to a statement looks like.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// `OK 0 <info>`.
    Info(String),
    /// `OK <n> <type>` plus the rows; `ordered` replies (a root `order
    /// by` on a unique key) must also arrive in the oracle's order.
    Rows {
        ty: String,
        digest: Digest,
        ordered: bool,
    },
}

impl Expect {
    fn info(s: &str) -> Expect {
        Expect::Info(s.to_owned())
    }

    /// Whether a reply with this head and body digest is the right one.
    pub fn matches(&self, ok: bool, info: &str, got: &Digest) -> bool {
        match self {
            Expect::Info(want) => ok && got.lines == 0 && info == want,
            Expect::Rows {
                ty,
                digest,
                ordered,
            } => {
                ok && info == ty
                    && got.lines == digest.lines
                    && got.sum == digest.sum
                    && (!ordered || got.chain == digest.chain)
            }
        }
    }
}

#[derive(Clone, Debug)]
pub struct Stmt {
    pub text: String,
    pub expect: Expect,
}

/// One operation: an autocommit statement or a whole `BEGIN…COMMIT`.
#[derive(Clone, Debug)]
pub struct Op {
    pub class: Class,
    pub stmts: Vec<Stmt>,
    /// Bytes of field values this operation writes once acknowledged.
    pub user_bytes: u64,
}

/// Renders a row the way the server's reply encoder does: `attr=value`
/// pairs in attribute order, strings quoted. The harness keeps its own
/// copy on purpose — it is the oracle for the encoder.
pub fn render_row(db: &Database, t: &Instance) -> String {
    let schema = db.schema();
    t.fields()
        .iter()
        .map(|(a, v)| format!("{}={v}", schema.attr_name(*a)))
        .collect::<Vec<_>>()
        .join(" ")
}

fn person_line(name: &str, age: i64) -> String {
    format!("name={name:?} age={age}")
}

fn employee_line(name: &str, age: i64, dep: &str) -> String {
    format!("name={name:?} age={age} depname={dep:?}")
}

/// Everything about a workload that is shared by its connections and
/// fixed before the first statement is sent: key distribution, the
/// statement texts with few distinct forms, and the oracle's answers.
pub struct Plan {
    pub kind: Kind,
    pub seed: u64,
    pub rows: usize,
    zipf: Zipf,
    /// Zipf rank -> key index.
    perm: Vec<u32>,
    /// Oracle answer of the point read on key index `i`.
    point: Vec<Digest>,
    /// The `scan_join` statements (two forms per age) and their answers.
    scan_join: Vec<Stmt>,
}

impl Plan {
    /// Builds the plan against the loaded database `db`. The oracle's
    /// answers come from [`Query::execute`], the engine's naive
    /// reference evaluator, never from the planner under test.
    pub fn new(kind: Kind, seed: u64, rows: usize, db: &Database) -> Plan {
        let ids = Ids::of(db);
        let mut point = Vec::new();
        let mut scan_join = Vec::new();
        match kind {
            Kind::ScanJoin => {
                for a in 0..AGES as i64 {
                    for text in [
                        format!(
                            "QUERY scan employee | select age >= {a} | select age <= {} \
                             | select depname = '{}'",
                            a + 1,
                            DEPS[0].0
                        ),
                        format!(
                            "QUERY scan employee | select age = {a} | join (scan department) \
                             | order by name"
                        ),
                    ] {
                        let expect = naive_answer(db, &text);
                        scan_join.push(Stmt { text, expect });
                    }
                }
            }
            Kind::WriteTxn => {}
            Kind::PointRead | Kind::MixedRw | Kind::ReplicatedRw => {
                let (_, all) = Query::scan(ids.employee)
                    .execute(db)
                    .expect("scanning a schema type is well typed");
                let by_name: HashMap<String, Digest> = all
                    .iter()
                    .map(|t| {
                        let name = match t.get(ids.name) {
                            Some(toposem_extension::Value::Str(s)) => s.clone(),
                            other => panic!("employee without a string name: {other:?}"),
                        };
                        (name, Digest::of([render_row(db, t).as_str()]))
                    })
                    .collect();
                point = (0..rows)
                    .map(|i| {
                        *by_name
                            .get(&employee_row(i).0)
                            .expect("every loaded employee is in the naive scan")
                    })
                    .collect();
            }
        }
        Plan {
            kind,
            seed,
            rows,
            zipf: Zipf::new(rows, ZIPF_THETA),
            perm: permutation(rows, &mut Rng::fork(seed, 1 << 32)),
            point,
            scan_join,
        }
    }

    fn point_read(&self, rng: &mut Rng) -> Op {
        let key = self.perm[self.zipf.sample(rng)] as usize;
        Op {
            class: Class::Read,
            stmts: vec![Stmt {
                text: format!(
                    "QUERY scan employee | select name = '{}'",
                    employee_row(key).0
                ),
                expect: Expect::Rows {
                    ty: "employee".to_owned(),
                    digest: self.point[key],
                    ordered: false,
                },
            }],
            user_bytes: 0,
        }
    }
}

/// The oracle's answer to a `QUERY` statement: parse and resolve it with
/// the server's own front end, evaluate it naively.
fn naive_answer(db: &Database, text: &str) -> Expect {
    let Ok(Command::Query(spec)) = parse_command(text) else {
        panic!("the harness generated a statement that is not a query: {text}");
    };
    let q = resolve_query(db.schema(), &spec).expect("generated queries name schema elements");
    let (ty, rows) = q
        .execute_ordered(db)
        .expect("generated queries are well typed");
    let lines: Vec<String> = rows.iter().map(|t| render_row(db, t)).collect();
    Expect::Rows {
        ty: db.schema().type_name(ty).to_owned(),
        digest: Digest::of(lines.iter().map(String::as_str)),
        ordered: !q.root_order().is_empty(),
    }
}

/// The statement stream of one connection.
pub struct ConnGen {
    plan: Arc<Plan>,
    conn: usize,
    rng: Rng,
    seq: u64,
    /// `mixed_rw`: operations generated, and which residue of it writes.
    ops: u64,
    write_phase: u64,
    /// `mixed_rw`: churn rows inserted and not yet deleted.
    live: VecDeque<(String, i64)>,
    /// `write_txn`: the rows the previous transaction inserted.
    prev_txn: Vec<(String, i64, &'static str)>,
}

impl ConnGen {
    pub fn new(plan: Arc<Plan>, conn: usize) -> ConnGen {
        let mut rng = Rng::fork(plan.seed, conn as u64);
        let write_phase = rng.below(WRITE_EVERY);
        ConnGen {
            plan,
            conn,
            rng,
            seq: 0,
            ops: 0,
            write_phase,
            live: VecDeque::new(),
            prev_txn: Vec::new(),
        }
    }

    pub fn next_op(&mut self) -> Op {
        match self.plan.kind {
            Kind::PointRead => self.plan.point_read(&mut self.rng),
            Kind::ScanJoin => {
                // Alternate the two forms; the age is uniform.
                let a = self.rng.below(AGES) as usize;
                let form = (self.seq % 2) as usize;
                self.seq += 1;
                Op {
                    class: Class::Read,
                    stmts: vec![self.plan.scan_join[2 * a + form].clone()],
                    user_bytes: 0,
                }
            }
            Kind::WriteTxn => self.write_txn(),
            Kind::MixedRw | Kind::ReplicatedRw => {
                self.ops += 1;
                if self.ops % WRITE_EVERY == self.write_phase {
                    self.churn()
                } else {
                    self.plan.point_read(&mut self.rng)
                }
            }
        }
    }

    /// `INSERT person` until [`CHURN_LIVE`] rows are alive, then delete
    /// the oldest and insert again in turn, so the database's size stays
    /// put.
    fn churn(&mut self) -> Op {
        let user_bytes;
        let stmt = if self.live.len() >= CHURN_LIVE {
            let (name, age) = self.live.pop_front().expect("length checked");
            user_bytes = value_bytes(&[&name]);
            Stmt {
                text: format!("DELETE person name='{name}', age={age}"),
                expect: Expect::info("deleted=1"),
            }
        } else {
            let name = format!("c{}x{}", self.conn, self.seq);
            let age = (self.seq % AGES) as i64;
            self.seq += 1;
            user_bytes = value_bytes(&[&name]);
            let text = format!("INSERT person name='{name}', age={age}");
            self.live.push_back((name, age));
            Stmt {
                text,
                expect: Expect::info("inserted=true"),
            }
        };
        Op {
            class: Class::Write,
            stmts: vec![stmt],
            user_bytes,
        }
    }

    /// `BEGIN`; insert [`TXN_ROWS`] employees (each propagates a person
    /// up the ISA lattice); delete the previous transaction's persons
    /// (each cascades down to its employee); `COMMIT`.
    fn write_txn(&mut self) -> Op {
        let mut stmts = vec![Stmt {
            text: "BEGIN".to_owned(),
            expect: Expect::info("begin"),
        }];
        let mut fresh = Vec::with_capacity(TXN_ROWS);
        let mut user_bytes = 0;
        for j in 0..TXN_ROWS as u64 {
            let name = format!("w{}x{}x{j}", self.conn, self.seq);
            let age = ((self.seq + j) % AGES) as i64;
            let dep = DEPS[((self.seq + j) % 3) as usize].0;
            user_bytes += value_bytes(&[&name, dep]);
            stmts.push(Stmt {
                text: format!("INSERT employee name='{name}', age={age}, depname='{dep}'"),
                expect: Expect::info("inserted=true"),
            });
            fresh.push((name, age, dep));
        }
        for (name, age, _) in self.prev_txn.drain(..) {
            user_bytes += value_bytes(&[&name]);
            stmts.push(Stmt {
                text: format!("DELETE person name='{name}', age={age}"),
                expect: Expect::info("deleted=2"),
            });
        }
        stmts.push(Stmt {
            text: "COMMIT".to_owned(),
            expect: Expect::info("commit"),
        });
        self.seq += 1;
        self.prev_txn = fresh;
        Op {
            class: Class::Write,
            stmts,
            user_bytes,
        }
    }

    /// Rendered rows this connection has added to `(employee, person)`
    /// and not removed, assuming every operation generated so far was
    /// acknowledged — which the closed loop guarantees when it stops
    /// between operations.
    pub fn residue(&self) -> (Vec<String>, Vec<String>) {
        let employees = self
            .prev_txn
            .iter()
            .map(|(n, a, d)| employee_line(n, *a, d))
            .collect();
        let persons = self
            .prev_txn
            .iter()
            .map(|(n, a, _)| person_line(n, *a))
            .chain(self.live.iter().map(|(n, a)| person_line(n, *a)))
            .collect();
        (employees, persons)
    }
}

/// Bytes of field values in a written row: the bytes of each string
/// value plus 8 for its one integer (`age`, an `i64` in the engine).
fn value_bytes(strings: &[&str]) -> u64 {
    strings.iter().map(|s| s.len() as u64).sum::<u64>() + 8
}

/// The rows `(employee, person)` must hold once every connection's
/// operations are applied to the loaded database, rendered.
pub fn expected_state(rows: usize, gens: &[ConnGen]) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut employees = BTreeSet::new();
    let mut persons = BTreeSet::new();
    for i in 0..rows {
        let (name, age, dep) = employee_row(i);
        employees.insert(employee_line(&name, age, dep));
        persons.insert(person_line(&name, age));
    }
    for g in gens {
        let (e, p) = g.residue();
        employees.extend(e);
        persons.extend(p);
    }
    (employees, persons)
}
