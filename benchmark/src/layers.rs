//! The traced half of a `--trace 1` run: the workload's statement
//! stream executed in-process, single-threaded, one public function of
//! one layer at a time, each call a span.
//!
//! The blocking path of a statement is what the server's connection
//! loop does — `parse_command`, `Session::resolve`/`type_id`, then
//! `Session::query` or the write entry point. Beside it run *probes*:
//! direct calls into lower layers (`plan`, `execute_ordered_with`,
//! `Database::insert_fields`, `Wal::append`, …) on the same input, which
//! say how much of the blocking call each layer accounts for. Probes
//! never touch the served engine's state: they work on a pinned
//! snapshot, a private copy of the database, and a scratch log.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use toposem_core::TypeId;
use toposem_extension::{Database, Instance, LogicalOp, Value};
use toposem_planner::{
    execute_ordered_with, lower_and_rewrite, plan, Consistency, ExecOptions, QueryRequest,
    QueryTarget,
};
use toposem_server::{parse_command, CmpOp, Command, QuerySpec, ReplicaPool, Session, Stage};
use toposem_storage::Engine;
use toposem_wal::{Wal, WalEntry};

use crate::fixture::{engine_err as bad, wal_config, Ids, WorkDir};
use crate::trace::Tracer;
use crate::workload::{render_row, ConnGen, Digest, Op, Plan};

/// Operations per traced/untraced batch of the overhead measurement.
const OVERHEAD_BATCH: u64 = 32;
/// One read in this many also runs profiled, for the rows-examined count.
const PROFILE_EVERY: u64 = 64;
/// `Database::clone` samples taken for `extension.clone_us`.
const CLONE_SAMPLES: usize = 5;
/// Connection id of the probe's statement stream: clear of the socket
/// clients', so its churn rows never collide with theirs.
const PROBE_CONN: usize = 100;

/// What the probe loop counted besides its spans.
#[derive(Default)]
pub struct ProbeCounts {
    pub attempted: u64,
    pub failed: u64,
    pub rows_examined: u64,
    pub rows_returned: u64,
    /// Operations and busy time with span recording on, and off.
    pub traced: (u64, Duration),
    pub untraced: (u64, Duration),
}

pub struct LayerProbe {
    primary: Arc<Engine>,
    session: Session,
    ids: Ids,
    /// Private copy of the database for the extension-layer probes.
    scratch_db: Database,
    /// Scratch log with the engine's flush policy for the WAL probes.
    scratch_wal: Wal,
    _scratch_dir: WorkDir,
    /// Transaction id of the open scratch-log transaction, if any.
    scratch_txn: Option<u64>,
    /// A write committed since the primary's snapshot was last taken.
    snapshot_dirty: bool,
    reads: u64,
    pub tracer: Tracer,
    pub counts: ProbeCounts,
}

impl LayerProbe {
    pub fn new(
        primary: Arc<Engine>,
        pool: Option<Arc<ReplicaPool>>,
        out_dir: &Path,
    ) -> io::Result<LayerProbe> {
        let mut tracer = Tracer::default();
        let mut scratch_db = primary.with_db(Database::clone);
        for _ in 0..CLONE_SAMPLES {
            scratch_db = tracer.span("extension.clone", || primary.with_db(Database::clone));
        }
        let scratch_dir = WorkDir::new(out_dir, "scratch-log")?;
        let scratch_wal = Wal::create(scratch_dir.path().join("log"), wal_config()).map_err(bad)?;
        Ok(LayerProbe {
            session: Session::with_replicas(Arc::clone(&primary), pool),
            ids: Ids::of(&scratch_db),
            primary,
            scratch_db,
            scratch_wal,
            _scratch_dir: scratch_dir,
            scratch_txn: None,
            snapshot_dirty: false,
            reads: 0,
            tracer,
            counts: ProbeCounts::default(),
        })
    }

    /// Runs the statement stream of `plan` for `budget`, alternating
    /// batches with span recording on and off.
    pub fn run(&mut self, plan: &Arc<Plan>, budget: Duration) -> io::Result<Vec<ConnGen>> {
        let mut gen = ConnGen::new(Arc::clone(plan), PROBE_CONN);
        let deadline = Instant::now() + budget;
        let mut batch = 0u64;
        while Instant::now() < deadline {
            self.tracer.enabled = batch.is_multiple_of(2);
            let t0 = Instant::now();
            for _ in 0..OVERHEAD_BATCH {
                let op = gen.next_op();
                self.perform(&op)?;
            }
            let slot = if self.tracer.enabled {
                &mut self.counts.traced
            } else {
                &mut self.counts.untraced
            };
            slot.0 += OVERHEAD_BATCH;
            slot.1 += t0.elapsed();
            batch += 1;
        }
        self.tracer.enabled = true;
        Ok(vec![gen])
    }

    fn perform(&mut self, op: &Op) -> io::Result<()> {
        self.tracer.start_request(op.class);
        let root = self.tracer.begin("request");
        let mut correct = true;
        for stmt in &op.stmts {
            let cmd = self
                .tracer
                .span("server.parse", || parse_command(&stmt.text))
                .map_err(bad)?;
            let (info, got) = self.dispatch(cmd)?;
            correct &= stmt.expect.matches(true, &info, &got);
        }
        self.tracer.end(root);
        self.tracer.finish_request();
        self.counts.attempted += 1;
        self.counts.failed += u64::from(!correct);
        Ok(())
    }

    /// Executes one parsed command the way the server's dispatcher does,
    /// returning what the reply's info field and body would be.
    fn dispatch(&mut self, cmd: Command) -> io::Result<(String, Digest)> {
        let no_rows = Digest::default();
        match cmd {
            Command::Query(spec) => self.query(&spec),
            Command::Begin { read: false } => {
                self.tracer
                    .span("storage.begin", || self.session.begin(false))
                    .map_err(bad)?;
                let txn = self.scratch_wal.alloc_txn();
                self.scratch_txn = Some(txn);
                self.wal_append(WalEntry::Begin { txn })?;
                Ok(("begin".to_owned(), no_rows))
            }
            Command::Commit => {
                self.tracer
                    .span("storage.commit", || self.session.commit())
                    .map_err(bad)?;
                let txn = self.scratch_txn.take().ok_or_else(|| bad("stray COMMIT"))?;
                self.wal_commit(txn)?;
                self.snapshot_dirty = true;
                Ok(("commit".to_owned(), no_rows))
            }
            Command::Insert { ty, fields } => {
                let t = self
                    .tracer
                    .span("server.resolve", || self.session.type_id(&ty))
                    .map_err(bad)?;
                let fields: Vec<(&str, Value)> = fields
                    .iter()
                    .map(|(a, v)| (a.as_str(), v.clone()))
                    .collect();
                let inserted = self
                    .tracer
                    .span("storage.insert", || self.session.insert(t, &fields))
                    .map_err(bad)?;
                self.tracer
                    .span("extension.insert", || {
                        self.scratch_db.insert_fields(t, &fields)
                    })
                    .map_err(bad)?;
                let op = LogicalOp::describe(&self.scratch_db, t, &self.instance(t, &fields)?);
                self.wal_write(|txn| WalEntry::Insert { txn, op })?;
                Ok((format!("inserted={inserted}"), no_rows))
            }
            Command::Delete { ty, fields } => {
                let t = self
                    .tracer
                    .span("server.resolve", || self.session.type_id(&ty))
                    .map_err(bad)?;
                let fields: Vec<(&str, Value)> = fields
                    .iter()
                    .map(|(a, v)| (a.as_str(), v.clone()))
                    .collect();
                let removed = self
                    .tracer
                    .span("storage.delete", || self.session.delete(t, &fields))
                    .map_err(bad)?;
                let inst = self.instance(t, &fields)?;
                self.tracer
                    .span("extension.delete", || self.scratch_db.delete(t, &inst));
                let op = LogicalOp::describe(&self.scratch_db, t, &inst);
                self.wal_write(|txn| WalEntry::Delete { txn, op })?;
                Ok((format!("deleted={removed}"), no_rows))
            }
            other => Err(bad(format!("the workloads never send {other:?}"))),
        }
    }

    /// The validated instance a write statement addresses.
    fn instance(&self, t: TypeId, fields: &[(&str, Value)]) -> io::Result<Instance> {
        let db = &self.scratch_db;
        Instance::new(db.schema(), db.catalog(), t, fields).map_err(bad)
    }

    fn query(&mut self, spec: &QuerySpec) -> io::Result<(String, Digest)> {
        let q = self
            .tracer
            .span("server.resolve", || self.session.resolve(spec))
            .map_err(bad)?;
        // The first read after a commit pays for a new snapshot; taking
        // it here, as its own span, keeps that cost out of
        // `server.session_query` and names it.
        let snapshot_span = if self.snapshot_dirty {
            "storage.snapshot_rebuild"
        } else {
            "storage.snapshot_hit"
        };
        self.snapshot_dirty = false;
        let snap = self
            .tracer
            .span(snapshot_span, || self.primary.snapshot())
            .ok_or_else(|| bad("no committed snapshot outside a transaction"))?;
        let (ty, rows) = self
            .tracer
            .span("server.session_query", || self.session.query(&q))
            .map_err(bad)?;
        let (info, got) = self.primary.with_db(|db| {
            let mut d = Digest::default();
            for t in &rows {
                d.push(&render_row(db, t));
            }
            (db.schema().type_name(ty).to_owned(), d)
        });

        // Probes, on the pinned snapshot.
        let physical = self
            .tracer
            .span("planner.plan", || {
                let logical = lower_and_rewrite(&q, snap.db())?;
                Ok::<_, toposem_storage::QueryError>(plan(
                    &logical,
                    snap.db(),
                    snap.indexes(),
                    &snap.statistics(),
                ))
            })
            .map_err(bad)?;
        let probe_rows = self.tracer.span("planner.exec", || {
            execute_ordered_with(
                &physical,
                snap.db(),
                snap.indexes(),
                &ExecOptions::default(),
            )
        });
        std::hint::black_box(probe_rows);
        if let Some(key) = point_key(spec) {
            let (employee, name) = (self.ids.employee, self.ids.name);
            let hit = self.tracer.span("storage.index_lookup", || {
                self.primary.lookup(employee, name, key)
            });
            std::hint::black_box(hit);
        }
        self.reads += 1;
        if self.reads.is_multiple_of(PROFILE_EVERY) {
            let req = QueryRequest::new(q)
                .ordered()
                .profiled()
                .with_consistency(Consistency::Snapshot);
            let resp = self.primary.run(&req).map_err(bad)?;
            let profile = resp
                .profile
                .ok_or_else(|| bad("profiled run without a profile"))?;
            profile.root.walk(&mut |node| {
                if node.children.is_empty() {
                    self.counts.rows_examined += node.stats.rows_in;
                }
            });
            self.counts.rows_returned += profile.rows;
        }
        Ok((info, got))
    }

    /// Mirrors the engine's logging of one write on the scratch log:
    /// inside a transaction one record, outside one `Begin`/op/`Commit`.
    fn wal_write(&mut self, entry: impl FnOnce(u64) -> WalEntry) -> io::Result<()> {
        match self.scratch_txn {
            Some(txn) => self.wal_append(entry(txn)),
            None => {
                let txn = self.scratch_wal.alloc_txn();
                self.wal_append(WalEntry::Begin { txn })?;
                self.wal_append(entry(txn))?;
                self.wal_commit(txn)?;
                self.snapshot_dirty = true;
                Ok(())
            }
        }
    }

    fn wal_append(&mut self, entry: WalEntry) -> io::Result<()> {
        self.tracer
            .span("wal.append", || self.scratch_wal.append(entry))
            .map(|_| ())
            .map_err(bad)
    }

    /// `Commit` record, the flush-policy decision, and then the fsync the
    /// engine's flusher thread would issue when the group-commit window
    /// closes — here at once, so every commit yields one fsync sample
    /// and `commit_appended` itself never has one to do.
    fn wal_commit(&mut self, txn: u64) -> io::Result<()> {
        self.wal_append(WalEntry::Commit { txn })?;
        self.tracer
            .span("wal.commit", || self.scratch_wal.commit_appended())
            .map_err(bad)?;
        self.tracer
            .span("wal.fsync", || self.scratch_wal.flush())
            .map_err(bad)
    }
}

/// The literal of `scan employee | select name = <literal>`.
fn point_key(spec: &QuerySpec) -> Option<&Value> {
    match spec.stages.as_slice() {
        [Stage::Scan(ty), Stage::Select {
            attr,
            op: CmpOp::Eq,
            value,
        }] if ty == "employee" && attr == "name" => Some(value),
        _ => None,
    }
}
