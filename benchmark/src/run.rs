//! One benchmark run of one workload: set-up, load, verification, and
//! the metrics of `BENCHMARK.json`.
//!
//! An untraced run ([`run_untraced`]) produces every end-to-end metric.
//! A traced run ([`run_traced`]) produces every per-layer metric: half
//! its time is the same socket load with the engine's counters sampled
//! at the window's edges, the other half the in-process layer probes of
//! [`crate::layers`].

use std::collections::BTreeSet;
use std::fs;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use toposem_extension::Database;
use toposem_repl::Follower;
use toposem_storage::Engine;

use crate::client::Client;
use crate::fixture::{
    build_primary, build_system, clear_engine_env, engine_err, pin_to_one_cpu, segment_bytes,
    warm_cpu, Ids, System, WorkDir,
};
use crate::hist::Histogram;
use crate::layers::LayerProbe;
use crate::load::{run_load, ConnStats, WriteAck};
use crate::workload::{expected_state, render_row, Class, ConnGen, Kind, Plan};

/// `(name, unit)` of every end-to-end metric, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p95_us", "us"),
    ("recover_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, as in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("error_rate", "ratio"),
    ("wal_bytes_per_user_byte", "ratio"),
    ("trace_overhead_ratio", "ratio"),
    ("server.parse_us", "us"),
    ("server.resolve_us", "us"),
    ("server.session_query_us", "us"),
    ("server.wire_us", "us"),
    ("server.reply_bytes_per_op", "bytes"),
    ("planner.plan_cache_hit_ratio", "ratio"),
    ("planner.plan_us", "us"),
    ("planner.exec_us", "us"),
    ("planner.rows_examined_per_row", "ratio"),
    ("storage.snapshot_rebuild_us", "us"),
    ("storage.snapshot_hit_us", "us"),
    ("storage.snapshot_rebuilds_per_read", "ratio"),
    ("storage.begin_us", "us"),
    ("storage.insert_us", "us"),
    ("storage.delete_us", "us"),
    ("storage.commit_us", "us"),
    ("storage.index_lookup_us", "us"),
    ("storage.checkpoint_s", "s"),
    ("storage.checkpoint_bytes", "bytes"),
    ("storage.recover_us_per_record", "us"),
    ("extension.insert_us", "us"),
    ("extension.delete_us", "us"),
    ("extension.clone_us", "us"),
    ("wal.append_us", "us"),
    ("wal.commit_us", "us"),
    ("wal.fsyncs_per_commit", "ratio"),
    ("wal.fsync_p50_us", "us"),
    ("wal.bytes_per_commit", "bytes"),
    ("repl.visible_lag_p50_ms", "ms"),
    ("repl.visible_lag_p99_ms", "ms"),
    ("repl.apply_us_per_record", "us"),
    ("repl.replica_read_share", "ratio"),
    ("repl.ship_bytes_per_wal_byte", "ratio"),
    ("repl.rebootstraps", "count"),
];

/// An untraced run times one recovery and one whole set-up per round,
/// some rounds before the load and some after it; `recover_s` and
/// `setup_s` are the second-best rounds. Two groups a whole run apart,
/// so that one slow spell of the sandbox cannot cover them all.
const ROUNDS_BEFORE: usize = 3;
const ROUNDS_AFTER: usize = 4;
/// Busy time before the first timed step; see [`warm_cpu`].
const CPU_WARMUP: Duration = Duration::from_millis(1500);
/// How long verification waits for the follower to reach the primary.
const FOLLOWER_CATCH_UP: Duration = Duration::from_secs(10);

#[derive(Clone, Debug)]
pub struct RunConfig {
    pub kind: Kind,
    pub seed: u64,
    /// Employee rows loaded.
    pub rows: usize,
    pub warmup: Duration,
    /// The measured time of the run (`--seconds`).
    pub window: Duration,
    /// Where scratch directories and trace files go.
    pub out_dir: PathBuf,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// What verification found wrong; empty when the run is correct.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// The layer budget and trace file location (traced runs).
    pub report: String,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line the driver reads.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Collects a run's metrics by name against the list `BENCHMARK.json`
/// declares, so a metric can be neither forgotten nor misplaced.
struct MetricSet {
    declared: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl MetricSet {
    fn new(declared: &'static [(&'static str, &'static str)]) -> MetricSet {
        MetricSet {
            declared,
            values: vec![None; declared.len()],
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        let i = self
            .declared
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(
            self.values[i].replace(value).is_none(),
            "metric {name} set twice"
        );
    }

    fn finish(self) -> Vec<Metric> {
        self.declared
            .iter()
            .zip(self.values)
            .map(|(&(name, unit), value)| Metric {
                name,
                unit,
                value: value.unwrap_or_else(|| panic!("metric {name} was never set")),
            })
            .collect()
    }
}

/// Which end of a sample set is the undisturbed one.
#[derive(Clone, Copy)]
enum Best {
    Lowest,
    Highest,
}

/// The second-best of `samples` (the only one, if there is one).
///
/// Every timing the harness reports is taken several times — slices of
/// the window, rounds of set-up and recovery — because the sandbox's
/// processor spends seconds at a time at two thirds of its speed.
/// Interference only ever adds time, so the best samples are the ones
/// that measured the program; the second-best rather than the best, so
/// that one lucky sample (a slice that happened to hold fewer rebuilds)
/// does not set the number. A median would need more than half the
/// samples undisturbed, and often enough has fewer.
fn second_best(mut samples: Vec<f64>, best: Best) -> f64 {
    samples.sort_by(f64::total_cmp);
    if let Best::Highest = best {
        samples.reverse();
    }
    match samples.as_slice() {
        [] => 0.0,
        [only] => *only,
        [_, second, ..] => *second,
    }
}

/// The start-up guard of the command line: a workload's client threads
/// may not outnumber the machine's processors. The run itself is then
/// confined to one processor ([`pin_to_one_cpu`]), which is why this is
/// asked of the machine before any run starts and not of the pinned
/// thread inside one.
pub fn check_parallelism(kind: Kind) -> io::Result<()> {
    let nproc = std::thread::available_parallelism()?.get();
    if kind.connections() > nproc {
        return Err(io::Error::other(format!(
            "{} needs {} client threads but only {nproc} processors are available",
            kind.name(),
            kind.connections()
        )));
    }
    Ok(())
}

/// What both kinds of run do before anything is built or timed.
fn prepare(cfg: &RunConfig) -> io::Result<()> {
    clear_engine_env();
    pin_to_one_cpu()?;
    warm_cpu(CPU_WARMUP);
    fs::create_dir_all(&cfg.out_dir)
}

/// The `VmHWM` line of `/proc/self/status`: the process's peak resident
/// set, in MB.
fn peak_rss_mb() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

/// The fixed log `recover_s` replays: the load's transactions plus the
/// index DDL, and no checkpoint after the initial empty one — the same
/// bytes on every workload and every run.
struct RecoverFixture {
    log: PathBuf,
    records: usize,
    rows: usize,
    _dir: WorkDir,
}

impl RecoverFixture {
    fn build(cfg: &RunConfig) -> io::Result<RecoverFixture> {
        let dir = WorkDir::new(&cfg.out_dir, "recover")?;
        let log = dir.path().join("log");
        drop(build_primary(&log, cfg.rows)?);
        let records = toposem_wal::scan(&log).map_err(engine_err)?.records.len();
        Ok(RecoverFixture {
            log,
            records,
            rows: cfg.rows,
            _dir: dir,
        })
    }

    /// Seconds one `Engine::recover` of the log takes.
    fn time_recover(&self) -> io::Result<f64> {
        let t0 = Instant::now();
        let eng = Engine::recover(&self.log).map_err(engine_err)?;
        let secs = t0.elapsed().as_secs_f64();
        let stored = eng.with_db(Database::total_stored);
        // Every employee row, its propagated person, 3 departments.
        if stored != 2 * self.rows + 3 {
            return Err(io::Error::other(format!(
                "recovery of the load returned {stored} tuples, not {}",
                2 * self.rows + 3
            )));
        }
        Ok(secs)
    }
}

/// Builds the system and proves it serves: the time from nothing to the
/// first reply on a fresh connection.
fn timed_setup(cfg: &RunConfig) -> io::Result<(System, f64)> {
    let t0 = Instant::now();
    let sys = build_system(&cfg.out_dir, cfg.rows, cfg.kind.replicated())?;
    let mut probe = Client::connect(sys.server.addr())?;
    let (head, _) = probe.request("PING", |_| {})?;
    if !head.ok {
        return Err(io::Error::other(format!("PING refused: {}", head.info)));
    }
    Ok((sys, t0.elapsed().as_secs_f64()))
}

/// Merged view of the connections' measurements.
#[derive(Default)]
struct Summary {
    read: Histogram,
    write: Histogram,
    attempted: u64,
    failed: u64,
    reply_bytes: u64,
    user_bytes: u64,
    /// Second-best over the window's slices; see [`second_best`].
    throughput: f64,
    p50_us: f64,
    p95_us: f64,
}

impl Summary {
    fn of(conns: &[(ConnStats, ConnGen)]) -> Summary {
        let mut s = Summary::default();
        for (c, _) in conns {
            s.read.merge(&c.read);
            s.write.merge(&c.write);
            s.attempted += c.attempted;
            s.failed += c.failed;
            s.reply_bytes += c.reply_bytes;
            s.user_bytes += c.user_bytes;
        }
        let slices = conns.first().map_or(0, |(c, _)| c.slices.len());
        let (mut rates, mut p50s, mut p95s) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..slices {
            let mut latency = Histogram::default();
            let mut rate = 0.0;
            for (c, _) in conns {
                latency.merge(&c.slices[i].latency);
                rate += c.slices[i].rate();
            }
            rates.push(rate);
            // A slice in which nothing completed has a rate (zero) but
            // no latency to speak of.
            if latency.count() > 0 {
                p50s.push(latency.quantile_us(0.50));
                p95s.push(latency.quantile_us(0.95));
            }
        }
        s.throughput = second_best(rates, Best::Highest);
        s.p50_us = second_best(p50s, Best::Lowest);
        s.p95_us = second_best(p95s, Best::Lowest);
        s
    }
}

fn rendered(db: &Database, ty: toposem_core::TypeId) -> BTreeSet<String> {
    db.stored(ty).iter().map(|t| render_row(db, t)).collect()
}

fn diff(what: &str, want: &BTreeSet<String>, got: &BTreeSet<String>, problems: &mut Vec<String>) {
    let lost = want.difference(got).count();
    let extra = got.difference(want).count();
    if lost > 0 {
        let first = want.difference(got).next().expect("counted above");
        problems.push(format!(
            "{what}: {lost} acknowledged rows lost (acked_lost), e.g. {first}"
        ));
    }
    if extra > 0 {
        let first = got.difference(want).next().expect("counted above");
        problems.push(format!(
            "{what}: {extra} rows present that were deleted or never written, e.g. {first}"
        ));
    }
}

/// Tears the system down and, after a write workload, checks what it
/// left behind: the follower at the primary's LSN must equal the
/// primary; then `sync`, drop the system, recover from its directory,
/// and the recovered database must hold exactly the loaded rows plus
/// what the generators say is still alive, with the containment
/// condition intact. Returns what was wrong.
fn verify_durable(sys: System, cfg: &RunConfig, gens: &[ConnGen]) -> io::Result<Vec<String>> {
    let mut problems = Vec::new();
    if !cfg.kind.writes() {
        return Ok(problems);
    }
    // The handle outlives `sys.repl`, which is dropped before recovery.
    let follower = sys.repl.as_ref().map(|r| Arc::clone(&r.follower));
    if let Some(follower) = &follower {
        let target = sys
            .primary
            .wal_next_lsn()
            .ok_or_else(|| io::Error::other("primary lost its log"))?;
        sys.primary.sync().map_err(engine_err)?;
        if !follower.wait_for_lsn(target, FOLLOWER_CATCH_UP) {
            problems.push(format!(
                "follower stuck at lsn {} short of the primary's {target}",
                follower.applied_lsn()
            ));
        } else {
            let replica = follower.engine();
            let same = sys.primary.with_db(|p| {
                replica.with_db(|f| p.schema().type_ids().all(|t| p.stored(t) == f.stored(t)))
            });
            if !same {
                problems.push("follower at the primary's LSN differs from the primary".to_owned());
            }
        }
    }
    sys.primary.sync().map_err(engine_err)?;
    let System {
        server,
        repl,
        primary,
        dir,
    } = sys;
    drop(server);
    drop(repl);
    drop(primary);
    let recovered = Engine::recover(dir.path().join("log")).map_err(engine_err)?;
    let (want_employees, want_persons) = expected_state(cfg.rows, gens);
    recovered.with_db(|db| {
        let ids = Ids::of(db);
        diff(
            "employee",
            &want_employees,
            &rendered(db, ids.employee),
            &mut problems,
        );
        diff(
            "person",
            &want_persons,
            &rendered(db, ids.person),
            &mut problems,
        );
        let violations = db.verify_containment();
        if !violations.is_empty() {
            problems.push(format!(
                "containment violated after recovery: {} (specialisation, generalisation) pairs",
                violations.len()
            ));
        }
    });
    Ok(problems)
}

fn build_plan(cfg: &RunConfig, primary: &Engine) -> Arc<Plan> {
    // `with_db`, not a query: a query would ask the primary for a
    // snapshot, and an engine that has ever been asked for one rebuilds
    // it on every later `BEGIN` — which no `write_txn` client causes.
    Arc::new(primary.with_db(|db| Plan::new(cfg.kind, cfg.seed, cfg.rows, db)))
}

/// Runs the workload untraced and reports the end-to-end metrics.
pub fn run_untraced(cfg: &RunConfig) -> io::Result<Outcome> {
    prepare(cfg)?;
    let fixture = RecoverFixture::build(cfg)?;
    let (mut recover_samples, mut setup_samples) = (Vec::new(), Vec::new());
    let mut sys = None;
    for _ in 0..ROUNDS_BEFORE {
        recover_samples.push(fixture.time_recover()?);
        // Drop the previous system first: two loaded engines alive at
        // once would double the peak the run reports.
        drop(sys.take());
        let (built, secs) = timed_setup(cfg)?;
        setup_samples.push(secs);
        sys = Some(built);
    }
    let sys = sys.expect("ROUNDS_BEFORE is at least 1");
    let plan = build_plan(cfg, &sys.primary);
    let conns = run_load(
        sys.server.addr(),
        &plan,
        cfg.warmup,
        cfg.window,
        None,
        || {},
    )?;
    let summary = Summary::of(&conns);
    let gens: Vec<ConnGen> = conns.into_iter().map(|(_, g)| g).collect();
    let problems = verify_durable(sys, cfg, &gens)?;
    for _ in 0..ROUNDS_AFTER {
        recover_samples.push(fixture.time_recover()?);
        setup_samples.push(timed_setup(cfg)?.1);
    }
    let mut m = MetricSet::new(&END_TO_END);
    m.set("setup_s", second_best(setup_samples, Best::Lowest));
    m.set("throughput_ops_s", summary.throughput);
    m.set("op_p50_us", summary.p50_us);
    m.set("op_p95_us", summary.p95_us);
    m.set("recover_s", second_best(recover_samples, Best::Lowest));
    m.set("peak_rss_mb", peak_rss_mb()?);
    Ok(Outcome {
        attempted: summary.attempted,
        failed: summary.failed,
        problems,
        metrics: m.finish(),
        report: String::new(),
    })
}

/// Engine counters read at a window edge.
#[derive(Clone, Copy, Default)]
struct Counters {
    plan_hits: u64,
    plan_misses: u64,
    snapshot_rebuilds: u64,
    follower_queries: u64,
    commits: u64,
    flushes: u64,
    wal_bytes: u64,
    shipped_bytes: u64,
    rebootstraps: u64,
}

impl Counters {
    fn sample(sys: &System) -> io::Result<Counters> {
        let m = sys.primary.metrics();
        let mut c = Counters {
            plan_hits: m.plan_cache_hits.get(),
            plan_misses: m.plan_cache_misses.get(),
            snapshot_rebuilds: m.snapshot_rebuilds.get(),
            commits: m.txn_commits.get(),
            flushes: m.wal.flushes.get(),
            wal_bytes: segment_bytes(&sys.dir.path().join("log"))?,
            shipped_bytes: m.repl.bytes_shipped.get(),
            ..Counters::default()
        };
        if let Some(repl) = &sys.repl {
            // Reads routed to the replica plan, cache, and snapshot on
            // the replica's engine.
            let replica = repl.follower.engine();
            let f = replica.metrics();
            c.plan_hits += f.plan_cache_hits.get();
            c.plan_misses += f.plan_cache_misses.get();
            c.snapshot_rebuilds += f.snapshot_rebuilds.get();
            c.follower_queries = f.queries_planned.get();
            c.rebootstraps = f.repl.rebootstraps.get();
        }
        Ok(c)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Waits, in acknowledgement order, for the follower to apply each
/// acknowledged write, and records how long that took after the ack.
fn lag_monitor(follower: Arc<Follower>, acks: mpsc::Receiver<WriteAck>) -> Histogram {
    let mut lag = Histogram::default();
    for ack in acks {
        while follower.applied_lsn() < ack.lsn {
            if ack.at.elapsed() > FOLLOWER_CATCH_UP {
                // Verification reports a stuck follower; the monitor
                // just stops waiting for it.
                return lag;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        lag.record(ack.at.elapsed().as_nanos() as u64);
    }
    lag
}

/// `repl.apply_us_per_record`: replay the primary's whole log directory
/// (checkpoint, then every record) into a fresh replica engine.
fn measure_apply(log: &Path) -> io::Result<f64> {
    let scan = toposem_wal::scan(log).map_err(engine_err)?;
    let replica = Engine::replica_from_checkpoint(scan.meta, scan.snapshot).map_err(engine_err)?;
    let t0 = Instant::now();
    for rec in &scan.records {
        replica.apply_replicated(rec).map_err(engine_err)?;
    }
    Ok(ratio(
        t0.elapsed().as_secs_f64() * 1e6,
        scan.records.len() as f64,
    ))
}

/// Runs the workload traced and reports the per-layer metrics.
pub fn run_traced(cfg: &RunConfig) -> io::Result<Outcome> {
    prepare(cfg)?;
    let kind = cfg.kind;
    let fixture = RecoverFixture::build(cfg)?;
    let recover_s = fixture.time_recover()?;
    let (sys, _) = timed_setup(cfg)?;
    let plan = build_plan(cfg, &sys.primary);

    // Socket half: the untraced load, with counters read at the edges.
    let mut edges = Vec::with_capacity(2);
    let mut edge_error = None;
    let (ack_tx, ack_rx) = mpsc::channel();
    let monitor = sys.repl.as_ref().map(|r| {
        let follower = Arc::clone(&r.follower);
        std::thread::spawn(move || lag_monitor(follower, ack_rx))
    });
    let acks = monitor
        .is_some()
        .then(|| (Arc::clone(&sys.primary), ack_tx));
    let conns = run_load(
        sys.server.addr(),
        &plan,
        cfg.warmup,
        cfg.window / 2,
        acks,
        || match Counters::sample(&sys) {
            Ok(c) => edges.push(c),
            Err(e) => edge_error = Some(e),
        },
    )?;
    if let Some(e) = edge_error {
        return Err(e);
    }
    // `run_load` consumed the last sender, so the monitor's loop ends.
    let lag = match monitor {
        Some(m) => m.join().expect("the lag monitor panicked"),
        None => Histogram::default(),
    };
    let summary = Summary::of(&conns);
    let (c0, c1) = (edges[0], edges[1]);
    let reads = summary.read.count() as f64;
    let wal_bytes = (c1.wal_bytes - c0.wal_bytes) as f64;
    let commits = (c1.commits - c0.commits) as f64;

    // In-process half: the layer probes.
    let pool = sys.repl.as_ref().map(|r| Arc::clone(&r.pool));
    let mut probe = LayerProbe::new(Arc::clone(&sys.primary), pool, &cfg.out_dir)?;
    let probe_gens = probe.run(&plan, cfg.window / 2)?;
    let LayerProbe { tracer, counts, .. } = probe;

    let apply_us = if kind.replicated() {
        sys.primary.sync().map_err(engine_err)?;
        measure_apply(&sys.dir.path().join("log"))?
    } else {
        0.0
    };
    let (checkpoint_s, checkpoint_bytes) = sys
        .repl
        .as_ref()
        .map_or((0.0, 0.0), |r| (r.checkpoint_s, r.checkpoint_bytes as f64));

    let mut gens: Vec<ConnGen> = conns.into_iter().map(|(_, g)| g).collect();
    gens.extend(probe_gens);
    let problems = verify_durable(sys, cfg, &gens)?;

    // The budget of the class most operations belong to: what the
    // client's median operation is made of.
    let class = if summary.read.count() >= summary.write.count() {
        Class::Read
    } else {
        Class::Write
    };
    let client_p50 = match class {
        Class::Read => summary.read.quantile_us(0.5),
        Class::Write => summary.write.quantile_us(0.5),
    };
    // Probe spans and the root span are beside or above the blocking
    // path, not on it.
    let blocking = |name: &str| {
        name.starts_with("server.")
            || name.starts_with("storage.snapshot")
            || matches!(
                name,
                "storage.begin" | "storage.insert" | "storage.delete" | "storage.commit"
            )
    };
    let budget: Vec<(&str, f64)> = tracer
        .op_budget(class)
        .into_iter()
        .filter(|(name, _)| blocking(name))
        .collect();
    let explained: f64 = budget.iter().map(|(_, us)| us).sum();
    let wire_us = client_p50 - explained;

    let trace_path = cfg.out_dir.join(format!("trace-{}.jsonl", kind.name()));
    tracer.write_jsonl(BufWriter::new(fs::File::create(&trace_path)?))?;

    let traced_rate = ratio(counts.traced.0 as f64, counts.traced.1.as_secs_f64());
    let untraced_rate = ratio(counts.untraced.0 as f64, counts.untraced.1.as_secs_f64());
    let mut m = MetricSet::new(&PER_LAYER);
    m.set("read_p50_us", summary.read.quantile_us(0.50));
    m.set("read_p99_us", summary.read.quantile_us(0.99));
    m.set("write_p50_us", summary.write.quantile_us(0.50));
    m.set("write_p99_us", summary.write.quantile_us(0.99));
    m.set(
        "error_rate",
        ratio(summary.failed as f64, summary.attempted as f64),
    );
    m.set(
        "wal_bytes_per_user_byte",
        ratio(wal_bytes, summary.user_bytes as f64),
    );
    m.set("trace_overhead_ratio", ratio(untraced_rate, traced_rate));
    m.set("server.wire_us", wire_us);
    m.set(
        "server.reply_bytes_per_op",
        ratio(
            summary.reply_bytes as f64,
            (summary.attempted - summary.failed) as f64,
        ),
    );
    let plan_hits = (c1.plan_hits - c0.plan_hits) as f64;
    let plan_misses = (c1.plan_misses - c0.plan_misses) as f64;
    m.set(
        "planner.plan_cache_hit_ratio",
        ratio(plan_hits, plan_hits + plan_misses),
    );
    m.set(
        "planner.rows_examined_per_row",
        ratio(counts.rows_examined as f64, counts.rows_returned as f64),
    );
    m.set(
        "storage.snapshot_rebuilds_per_read",
        ratio((c1.snapshot_rebuilds - c0.snapshot_rebuilds) as f64, reads),
    );
    m.set("storage.checkpoint_s", checkpoint_s);
    m.set("storage.checkpoint_bytes", checkpoint_bytes);
    m.set(
        "storage.recover_us_per_record",
        ratio(recover_s * 1e6, fixture.records as f64),
    );
    m.set(
        "wal.fsyncs_per_commit",
        ratio((c1.flushes - c0.flushes) as f64, commits),
    );
    m.set("wal.bytes_per_commit", ratio(wal_bytes, commits));
    m.set("repl.visible_lag_p50_ms", lag.quantile(0.50) / 1e6);
    m.set("repl.visible_lag_p99_ms", lag.quantile(0.99) / 1e6);
    m.set("repl.apply_us_per_record", apply_us);
    m.set(
        "repl.replica_read_share",
        ratio((c1.follower_queries - c0.follower_queries) as f64, reads),
    );
    m.set(
        "repl.ship_bytes_per_wal_byte",
        ratio((c1.shipped_bytes - c0.shipped_bytes) as f64, wal_bytes),
    );
    m.set(
        "repl.rebootstraps",
        (c1.rebootstraps - c0.rebootstraps) as f64,
    );
    // Every remaining per-layer metric is the median self time of one
    // call of the span it is named after.
    for (metric, span) in [
        ("server.parse_us", "server.parse"),
        ("server.resolve_us", "server.resolve"),
        ("server.session_query_us", "server.session_query"),
        ("planner.plan_us", "planner.plan"),
        ("planner.exec_us", "planner.exec"),
        ("storage.snapshot_rebuild_us", "storage.snapshot_rebuild"),
        ("storage.snapshot_hit_us", "storage.snapshot_hit"),
        ("storage.begin_us", "storage.begin"),
        ("storage.insert_us", "storage.insert"),
        ("storage.delete_us", "storage.delete"),
        ("storage.commit_us", "storage.commit"),
        ("storage.index_lookup_us", "storage.index_lookup"),
        ("extension.insert_us", "extension.insert"),
        ("extension.delete_us", "extension.delete"),
        ("extension.clone_us", "extension.clone"),
        ("wal.append_us", "wal.append"),
        ("wal.commit_us", "wal.commit"),
        ("wal.fsync_p50_us", "wal.fsync"),
    ] {
        m.set(metric, tracer.call_p50_us(span));
    }

    let mut report = format!(
        "layer budget, {} ({} operations, median self time per operation):\n",
        kind.name(),
        match class {
            Class::Read => "read",
            Class::Write => "write",
        }
    );
    for (name, us) in &budget {
        report.push_str(&format!("  {name:<28} {us:>12.3} us\n"));
    }
    report.push_str(&format!(
        "  {:<28} {explained:>12.3} us\n  {:<28} {client_p50:>12.3} us\n  {:<28} {wire_us:>12.3} us\n",
        "sum of layers", "client-observed p50", "remainder (server.wire_us)"
    ));
    report.push_str(&format!(
        "trace: {} spans in {} ({} requests probed, {} with recording off)\n",
        tracer.span_count(),
        trace_path.display(),
        counts.traced.0,
        counts.untraced.0
    ));

    Ok(Outcome {
        attempted: summary.attempted + counts.attempted,
        failed: summary.failed + counts.failed,
        problems,
        metrics: m.finish(),
        report,
    })
}
