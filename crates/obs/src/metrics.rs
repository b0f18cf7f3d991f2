//! Engine-wide metrics registry: atomic counters, gauges, and
//! fixed-bucket histograms, with a typed snapshot API and a
//! Prometheus-style text exporter.
//!
//! Recording is always-on and near-free: every primitive is a relaxed
//! atomic operation, so instrumented hot paths (WAL flush, plan-cache
//! lookup, batch loops) pay a handful of nanoseconds. Snapshots are
//! lock-free reads; a histogram snapshot derives its total count from
//! the per-bucket counts it just read, so `count == Σ buckets` holds by
//! construction and readers never observe a torn histogram.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins instantaneous value (e.g. the current statistics
/// epoch).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add one (e.g. a session opening).
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtract one, saturating at zero so a double-close can never
    /// wrap the gauge around.
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Upper bounds (inclusive, in ns) for latency histograms: 1µs … 10s,
/// one bucket per decade plus a 3× subdivision, then +Inf.
pub const LATENCY_NS_BOUNDS: &[u64] = &[
    1_000,
    3_000,
    10_000,
    30_000,
    100_000,
    300_000,
    1_000_000,
    3_000_000,
    10_000_000,
    30_000_000,
    100_000_000,
    300_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// Upper bounds (inclusive) for size/count histograms (e.g. group-commit
/// batch sizes): powers of two up to 1024, then +Inf.
pub const SIZE_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// Upper bounds for the planner q-error histogram, in hundredths (a
/// recorded value of `q × 100`, so `le="150"` means q ≤ 1.5). Accurate
/// statistics concentrate mass in the first two buckets.
pub const QERROR_X100_BOUNDS: &[u64] = &[110, 150, 200, 400, 1_000, 10_000, 100_000, 1_000_000];

/// Fixed-bucket histogram. Buckets are non-cumulative atomics; the
/// final bucket is the implicit `+Inf` overflow.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
}

impl Histogram {
    /// A histogram over the given static bucket bounds (ascending).
    pub fn new(bounds: &'static [u64]) -> Self {
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        let i = self
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.bounds.len());
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Consistent point-in-time copy. The total count is derived from
    /// the bucket counts read here, never from a separate atomic, so
    /// `count == counts.iter().sum()` always holds.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = counts.iter().sum();
        HistogramSnapshot {
            bounds: self.bounds,
            counts,
            count,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds; `counts` has one extra `+Inf` slot.
    pub bounds: &'static [u64],
    /// Per-bucket (non-cumulative) observation counts.
    pub counts: Vec<u64>,
    /// Total observations, equal to `counts.iter().sum()` by
    /// construction.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean observed value, or 0.0 with no observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn render_prometheus(&self, name: &str, help: &str, out: &mut String) {
        use std::fmt::Write;
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cumulative += c;
            match self.bounds.get(i) {
                Some(b) => {
                    let _ = writeln!(out, "{name}_bucket{{le=\"{b}\"}} {cumulative}");
                }
                None => {
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                }
            }
        }
        let _ = writeln!(out, "{name}_sum {}", self.sum);
        let _ = writeln!(out, "{name}_count {}", self.count);
    }
}

/// Metrics recorded by the write-ahead log. Kept as a separate struct
/// behind an `Arc` so the WAL crate can hold it without depending on
/// the engine (the dependency arrow stays storage → wal → obs).
#[derive(Debug)]
pub struct WalMetrics {
    /// Physical flushes (`flush()` + fsync) of the log.
    pub flushes: Counter,
    /// Wall time of each flush's `sync_data`, in nanoseconds.
    pub fsync_ns: Histogram,
    /// Commits acknowledged per group-commit flush (1 under
    /// `PerCommit`).
    pub group_commit_batch: Histogram,
    /// Checkpoints written.
    pub checkpoints: Counter,
    /// Wall time of each checkpoint, in nanoseconds.
    pub checkpoint_ns: Histogram,
}

impl Default for WalMetrics {
    fn default() -> Self {
        WalMetrics {
            flushes: Counter::default(),
            fsync_ns: Histogram::new(LATENCY_NS_BOUNDS),
            group_commit_batch: Histogram::new(SIZE_BOUNDS),
            checkpoints: Counter::default(),
            checkpoint_ns: Histogram::new(LATENCY_NS_BOUNDS),
        }
    }
}

/// Metrics recorded by the replication layer. Kept as a separate struct
/// behind an `Arc` (same dependency-arrow trick as [`WalMetrics`]) so
/// the replication crate records into the engine-wide registry without
/// obs depending on it. A primary's shipper updates the shipped side; a
/// follower updates both the shipped watermark it has *seen* and the
/// applied side, so `lag` is meaningful on whichever end exports it.
#[derive(Debug)]
pub struct ReplicationMetrics {
    /// Highest LSN published through the segment transport (primary) or
    /// observed in the transport manifest (follower).
    pub shipped_lsn: Gauge,
    /// One past the last LSN the follower has applied to its engine.
    pub applied_lsn: Gauge,
    /// Segment publications through the transport (whole or partial).
    pub segments_shipped: Counter,
    /// Segment bytes pushed through the transport.
    pub bytes_shipped: Counter,
    /// Checkpoints published through the transport.
    pub checkpoints_shipped: Counter,
    /// WAL records a follower applied from the stream, one per record
    /// of any kind; records below its watermark, skipped when a segment
    /// is re-decoded, do not count.
    pub records_applied: Counter,
    /// Times a follower re-bootstrapped from a newer checkpoint because
    /// the segments it needed were superseded.
    pub rebootstraps: Counter,
    /// Shipping rounds a primary's shipper ran, failed ones included.
    pub ship_rounds: Counter,
    /// Shipping rounds that failed (transport down, a segment removed
    /// by a racing checkpoint, a failed sync).
    pub ship_errors: Counter,
    /// Wall time of each shipping round, sync included, in nanoseconds.
    pub ship_round_ns: Histogram,
}

impl Default for ReplicationMetrics {
    fn default() -> Self {
        ReplicationMetrics {
            shipped_lsn: Gauge::default(),
            applied_lsn: Gauge::default(),
            segments_shipped: Counter::default(),
            bytes_shipped: Counter::default(),
            checkpoints_shipped: Counter::default(),
            records_applied: Counter::default(),
            rebootstraps: Counter::default(),
            ship_rounds: Counter::default(),
            ship_errors: Counter::default(),
            ship_round_ns: Histogram::new(LATENCY_NS_BOUNDS),
        }
    }
}

/// The engine-wide registry. One instance per [`Engine`]; every layer
/// records into it through an `Arc`.
///
/// [`Engine`]: https://docs.rs/ (toposem-storage)
#[derive(Debug)]
pub struct EngineMetrics {
    /// Plan-cache hits (fingerprint found at the current statistics
    /// epoch).
    pub plan_cache_hits: Counter,
    /// Plan-cache misses (absent, stale epoch, or unsupported cached
    /// plan).
    pub plan_cache_misses: Counter,
    /// Plans actually inserted into the cache.
    pub plan_cache_stores: Counter,
    /// Statistics-epoch bumps (mutations invalidating stats + plans).
    pub stats_epoch_bumps: Counter,
    /// Current statistics epoch.
    pub stats_epoch: Gauge,
    /// Explicit transactions begun.
    pub txn_begins: Counter,
    /// Transactions committed (explicit commits; autocommitted
    /// single-op transactions count too).
    pub txn_commits: Counter,
    /// Transactions rolled back.
    pub txn_aborts: Counter,
    /// Planned queries executed, every `QueryRequest` route included.
    pub queries_planned: Counter,
    /// Planned queries whose total time crossed the slow-query
    /// threshold.
    pub queries_slow: Counter,
    /// Rows returned by planned queries.
    pub query_rows_returned: Counter,
    /// Log replays performed by `Engine::recover` and `Engine::open`
    /// (a replica's bootstrap from a checkpoint is not one).
    pub recovery_runs: Counter,
    /// `Commit` records replayed by those recoveries.
    pub recovery_replayed_txns: Counter,
    /// Logical operations the replayed commits applied.
    pub recovery_replayed_ops: Counter,
    /// Wall time of each of those recoveries, from reading the
    /// checkpoint to the last record replayed, in nanoseconds.
    pub recovery_ns: Histogram,
    /// Worst per-operator q-error of each planned query, recorded as
    /// `q × 100` (so the histogram can stay integral); a value of 100
    /// is a perfect estimate.
    pub planner_qerror: Histogram,
    /// MVCC snapshot rebuilds (a reader materialised a fresh committed
    /// epoch).
    pub snapshot_rebuilds: Counter,
    /// MVCC snapshot requests served from the cached epoch.
    pub snapshot_hits: Counter,
    /// Wall time of each snapshot rebuild, in nanoseconds.
    pub snapshot_rebuild_ns: Histogram,
    /// Wall time of each statistics assembly that recollected at least
    /// one type, in nanoseconds.
    pub stats_collect_ns: Histogram,
    /// Per-type statistics carried over from an earlier epoch.
    pub stats_types_reused: Counter,
    /// Per-type statistics collected because the type's data changed.
    pub stats_types_collected: Counter,
    /// Sessions opened over the engine's lifetime.
    pub sessions_opened: Counter,
    /// Sessions currently open.
    pub sessions_open: Gauge,
    /// Network connections accepted over the server's lifetime.
    pub connections_opened: Counter,
    /// Network connections currently open.
    pub connections_open: Gauge,
    /// Bytes of every reply the server sent, framing included.
    pub reply_bytes: Counter,
    /// Wall time of encoding each reply into the connection's output
    /// buffer, in nanoseconds.
    pub reply_encode_ns: Histogram,
    /// WAL-layer metrics, shared with the attached [`Wal`].
    ///
    /// [`Wal`]: https://docs.rs/ (toposem-wal)
    pub wal: Arc<WalMetrics>,
    /// Replication-layer metrics, shared with a shipper (primary) or
    /// follower attached to this engine.
    pub repl: Arc<ReplicationMetrics>,
}

impl Default for EngineMetrics {
    fn default() -> Self {
        EngineMetrics {
            plan_cache_hits: Counter::default(),
            plan_cache_misses: Counter::default(),
            plan_cache_stores: Counter::default(),
            stats_epoch_bumps: Counter::default(),
            stats_epoch: Gauge::default(),
            txn_begins: Counter::default(),
            txn_commits: Counter::default(),
            txn_aborts: Counter::default(),
            queries_planned: Counter::default(),
            queries_slow: Counter::default(),
            query_rows_returned: Counter::default(),
            recovery_runs: Counter::default(),
            recovery_replayed_txns: Counter::default(),
            recovery_replayed_ops: Counter::default(),
            recovery_ns: Histogram::new(LATENCY_NS_BOUNDS),
            planner_qerror: Histogram::new(QERROR_X100_BOUNDS),
            snapshot_rebuilds: Counter::default(),
            snapshot_hits: Counter::default(),
            snapshot_rebuild_ns: Histogram::new(LATENCY_NS_BOUNDS),
            stats_collect_ns: Histogram::new(LATENCY_NS_BOUNDS),
            stats_types_reused: Counter::default(),
            stats_types_collected: Counter::default(),
            sessions_opened: Counter::default(),
            sessions_open: Gauge::default(),
            connections_opened: Counter::default(),
            connections_open: Gauge::default(),
            reply_bytes: Counter::default(),
            reply_encode_ns: Histogram::new(LATENCY_NS_BOUNDS),
            wal: Arc::new(WalMetrics::default()),
            repl: Arc::new(ReplicationMetrics::default()),
        }
    }
}

impl EngineMetrics {
    /// Fresh registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Typed point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            plan_cache: PlanCacheStats {
                hits: self.plan_cache_hits.get(),
                misses: self.plan_cache_misses.get(),
                stores: self.plan_cache_stores.get(),
            },
            stats_epoch: self.stats_epoch.get(),
            stats_epoch_bumps: self.stats_epoch_bumps.get(),
            txn: TxnStats {
                begins: self.txn_begins.get(),
                commits: self.txn_commits.get(),
                aborts: self.txn_aborts.get(),
            },
            queries: QueryMetrics {
                planned: self.queries_planned.get(),
                slow: self.queries_slow.get(),
                rows_returned: self.query_rows_returned.get(),
            },
            recovery: RecoveryStats {
                runs: self.recovery_runs.get(),
                replayed_txns: self.recovery_replayed_txns.get(),
                replayed_ops: self.recovery_replayed_ops.get(),
                duration_ns: self.recovery_ns.snapshot(),
            },
            wal: WalStats {
                flushes: self.wal.flushes.get(),
                fsync_ns: self.wal.fsync_ns.snapshot(),
                group_commit_batch: self.wal.group_commit_batch.snapshot(),
                checkpoints: self.wal.checkpoints.get(),
                checkpoint_ns: self.wal.checkpoint_ns.snapshot(),
            },
            repl: ReplicationStats {
                shipped_lsn: self.repl.shipped_lsn.get(),
                applied_lsn: self.repl.applied_lsn.get(),
                segments_shipped: self.repl.segments_shipped.get(),
                bytes_shipped: self.repl.bytes_shipped.get(),
                checkpoints_shipped: self.repl.checkpoints_shipped.get(),
                records_applied: self.repl.records_applied.get(),
                rebootstraps: self.repl.rebootstraps.get(),
                ship_rounds: self.repl.ship_rounds.get(),
                ship_errors: self.repl.ship_errors.get(),
                ship_round_ns: self.repl.ship_round_ns.snapshot(),
            },
            planner_qerror: self.planner_qerror.snapshot(),
            mvcc: MvccStats {
                snapshot_rebuilds: self.snapshot_rebuilds.get(),
                snapshot_hits: self.snapshot_hits.get(),
            },
            snapshot_rebuild_ns: self.snapshot_rebuild_ns.snapshot(),
            statistics: StatisticsStats {
                types_reused: self.stats_types_reused.get(),
                types_collected: self.stats_types_collected.get(),
                collect_ns: self.stats_collect_ns.snapshot(),
            },
            sessions: SessionStats {
                opened: self.sessions_opened.get(),
                open: self.sessions_open.get(),
                connections_opened: self.connections_opened.get(),
                connections_open: self.connections_open.get(),
                reply_bytes: self.reply_bytes.get(),
            },
            reply_encode_ns: self.reply_encode_ns.snapshot(),
        }
    }
}

/// MVCC snapshot counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MvccStats {
    /// Committed epochs materialised as immutable snapshots.
    pub snapshot_rebuilds: u64,
    /// Snapshot requests served from the cached epoch.
    pub snapshot_hits: u64,
}

/// Statistics-cache counters and collect latency.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatisticsStats {
    /// Per-type statistics carried over from an earlier epoch.
    pub types_reused: u64,
    /// Per-type statistics recollected because the type's data changed.
    pub types_collected: u64,
    /// Duration of each statistics assembly that recollected (ns).
    pub collect_ns: HistogramSnapshot,
}

/// Session and connection counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Sessions opened over the engine's lifetime.
    pub opened: u64,
    /// Sessions currently open.
    pub open: u64,
    /// Network connections accepted over the server's lifetime.
    pub connections_opened: u64,
    /// Network connections currently open.
    pub connections_open: u64,
    /// Bytes of every reply the server sent.
    pub reply_bytes: u64,
}

/// Plan-cache counters (the typed form of the `PlanCache: …` line in
/// `explain` output).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that returned a usable cached plan.
    pub hits: u64,
    /// Lookups that had to replan.
    pub misses: u64,
    /// Plans inserted into the cache.
    pub stores: u64,
}

/// Transaction counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxnStats {
    /// `begin()` calls.
    pub begins: u64,
    /// Committed transactions.
    pub commits: u64,
    /// Rolled-back transactions.
    pub aborts: u64,
}

/// Planned-query counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryMetrics {
    /// Planned queries executed.
    pub planned: u64,
    /// Queries over the slow threshold.
    pub slow: u64,
    /// Total rows returned.
    pub rows_returned: u64,
}

/// Recovery counters and durations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Log replays by `Engine::recover` or `Engine::open`.
    pub runs: u64,
    /// Committed transactions replayed.
    pub replayed_txns: u64,
    /// Logical operations replayed.
    pub replayed_ops: u64,
    /// Duration of each replay, checkpoint load included (ns).
    pub duration_ns: HistogramSnapshot,
}

/// WAL counters and histograms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalStats {
    /// Physical flushes.
    pub flushes: u64,
    /// fsync latency histogram (ns).
    pub fsync_ns: HistogramSnapshot,
    /// Commits per group-commit flush.
    pub group_commit_batch: HistogramSnapshot,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Checkpoint duration histogram (ns).
    pub checkpoint_ns: HistogramSnapshot,
}

/// Replication counters, watermarks, and shipping-round latency.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Highest LSN published/observed through the transport.
    pub shipped_lsn: u64,
    /// One past the last LSN applied by the follower.
    pub applied_lsn: u64,
    /// Segment publications through the transport.
    pub segments_shipped: u64,
    /// Segment bytes pushed through the transport.
    pub bytes_shipped: u64,
    /// Checkpoints published through the transport.
    pub checkpoints_shipped: u64,
    /// WAL records applied from the stream.
    pub records_applied: u64,
    /// Follower re-bootstraps from a newer checkpoint.
    pub rebootstraps: u64,
    /// Shipping rounds run, failed ones included.
    pub ship_rounds: u64,
    /// Shipping rounds that failed.
    pub ship_errors: u64,
    /// Shipping-round duration histogram (ns).
    pub ship_round_ns: HistogramSnapshot,
}

impl ReplicationStats {
    /// Records shipped but not yet applied — the replication lag this
    /// end can observe (0 on an engine with no replication attached).
    pub fn lag(&self) -> u64 {
        self.shipped_lsn.saturating_sub(self.applied_lsn)
    }
}

/// Typed snapshot of the whole registry.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// Plan-cache counters.
    pub plan_cache: PlanCacheStats,
    /// Current statistics epoch.
    pub stats_epoch: u64,
    /// Epoch bumps since engine creation.
    pub stats_epoch_bumps: u64,
    /// Transaction counters.
    pub txn: TxnStats,
    /// Planned-query counters.
    pub queries: QueryMetrics,
    /// Recovery counters.
    pub recovery: RecoveryStats,
    /// WAL counters and histograms.
    pub wal: WalStats,
    /// Replication counters and watermarks.
    pub repl: ReplicationStats,
    /// Worst per-query q-error distribution (values are `q × 100`).
    pub planner_qerror: HistogramSnapshot,
    /// MVCC snapshot counters.
    pub mvcc: MvccStats,
    /// Snapshot rebuild duration histogram (ns).
    pub snapshot_rebuild_ns: HistogramSnapshot,
    /// Statistics-cache counters and collect latency.
    pub statistics: StatisticsStats,
    /// Session and connection counters.
    pub sessions: SessionStats,
    /// Reply encode duration histogram (ns).
    pub reply_encode_ns: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// Render in the Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let mut counter = |name: &str, help: &str, v: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        };
        counter(
            "toposem_plan_cache_hits_total",
            "Plan-cache lookups that returned a usable plan",
            self.plan_cache.hits,
        );
        counter(
            "toposem_plan_cache_misses_total",
            "Plan-cache lookups that had to replan",
            self.plan_cache.misses,
        );
        counter(
            "toposem_plan_cache_stores_total",
            "Plans inserted into the cache",
            self.plan_cache.stores,
        );
        counter(
            "toposem_stats_epoch_bumps_total",
            "Statistics-epoch bumps from mutations",
            self.stats_epoch_bumps,
        );
        counter(
            "toposem_txn_begins_total",
            "Explicit transactions begun",
            self.txn.begins,
        );
        counter(
            "toposem_txn_commits_total",
            "Transactions committed",
            self.txn.commits,
        );
        counter(
            "toposem_txn_aborts_total",
            "Transactions rolled back",
            self.txn.aborts,
        );
        counter(
            "toposem_queries_planned_total",
            "Planned queries executed",
            self.queries.planned,
        );
        counter(
            "toposem_queries_slow_total",
            "Planned queries over the slow-query threshold",
            self.queries.slow,
        );
        counter(
            "toposem_query_rows_returned_total",
            "Rows returned by planned queries",
            self.queries.rows_returned,
        );
        counter(
            "toposem_recovery_runs_total",
            "Log replays by recover or open (replica bootstraps excluded)",
            self.recovery.runs,
        );
        counter(
            "toposem_recovery_replayed_txns_total",
            "Committed transactions replayed during recovery",
            self.recovery.replayed_txns,
        );
        counter(
            "toposem_recovery_replayed_ops_total",
            "Logical operations replayed during recovery",
            self.recovery.replayed_ops,
        );
        counter(
            "toposem_wal_flushes_total",
            "Physical WAL flushes (write + fsync)",
            self.wal.flushes,
        );
        counter(
            "toposem_wal_checkpoints_total",
            "Checkpoints written",
            self.wal.checkpoints,
        );
        counter(
            "toposem_snapshot_rebuilds_total",
            "MVCC snapshot rebuilds (committed epochs materialised)",
            self.mvcc.snapshot_rebuilds,
        );
        counter(
            "toposem_snapshot_hits_total",
            "MVCC snapshot requests served from the cached epoch",
            self.mvcc.snapshot_hits,
        );
        counter(
            "toposem_statistics_types_reused_total",
            "Per-type statistics carried over from an earlier epoch",
            self.statistics.types_reused,
        );
        counter(
            "toposem_statistics_types_collected_total",
            "Per-type statistics recollected because the type's data changed",
            self.statistics.types_collected,
        );
        counter(
            "toposem_sessions_opened_total",
            "Sessions opened",
            self.sessions.opened,
        );
        counter(
            "toposem_connections_opened_total",
            "Network connections accepted",
            self.sessions.connections_opened,
        );
        counter(
            "toposem_server_reply_bytes_total",
            "Bytes of replies the server sent, framing included",
            self.sessions.reply_bytes,
        );
        counter(
            "toposem_repl_segments_shipped_total",
            "WAL segment publications through the replication transport",
            self.repl.segments_shipped,
        );
        counter(
            "toposem_repl_bytes_shipped_total",
            "WAL segment bytes pushed through the replication transport",
            self.repl.bytes_shipped,
        );
        counter(
            "toposem_repl_checkpoints_shipped_total",
            "Checkpoints published through the replication transport",
            self.repl.checkpoints_shipped,
        );
        counter(
            "toposem_repl_records_applied_total",
            "WAL records applied from the replication stream",
            self.repl.records_applied,
        );
        counter(
            "toposem_repl_rebootstraps_total",
            "Follower re-bootstraps from a newer checkpoint",
            self.repl.rebootstraps,
        );
        counter(
            "toposem_repl_ship_rounds_total",
            "Shipping rounds a primary's shipper ran, failed ones included",
            self.repl.ship_rounds,
        );
        counter(
            "toposem_repl_ship_errors_total",
            "Shipping rounds that failed",
            self.repl.ship_errors,
        );
        {
            let _ = writeln!(
                out,
                "# HELP toposem_stats_epoch Current statistics epoch\n# TYPE toposem_stats_epoch gauge\ntoposem_stats_epoch {}",
                self.stats_epoch
            );
            let _ = writeln!(
                out,
                "# HELP toposem_sessions_open Sessions currently open\n# TYPE toposem_sessions_open gauge\ntoposem_sessions_open {}",
                self.sessions.open
            );
            let _ = writeln!(
                out,
                "# HELP toposem_connections_open Network connections currently open\n# TYPE toposem_connections_open gauge\ntoposem_connections_open {}",
                self.sessions.connections_open
            );
            let _ = writeln!(
                out,
                "# HELP toposem_repl_shipped_lsn Highest LSN published or observed through the replication transport\n# TYPE toposem_repl_shipped_lsn gauge\ntoposem_repl_shipped_lsn {}",
                self.repl.shipped_lsn
            );
            let _ = writeln!(
                out,
                "# HELP toposem_repl_applied_lsn One past the last LSN applied from the replication stream\n# TYPE toposem_repl_applied_lsn gauge\ntoposem_repl_applied_lsn {}",
                self.repl.applied_lsn
            );
            let _ = writeln!(
                out,
                "# HELP toposem_repl_lag_records Records shipped but not yet applied\n# TYPE toposem_repl_lag_records gauge\ntoposem_repl_lag_records {}",
                self.repl.lag()
            );
        }
        self.planner_qerror.render_prometheus(
            "toposem_planner_qerror",
            "Worst per-operator q-error of each planned query, times 100",
            &mut out,
        );
        self.recovery.duration_ns.render_prometheus(
            "toposem_recovery_duration_ns",
            "Wall time of each recover or open, checkpoint load through log replay, in nanoseconds",
            &mut out,
        );
        self.snapshot_rebuild_ns.render_prometheus(
            "toposem_snapshot_rebuild_duration_ns",
            "MVCC snapshot rebuild duration in nanoseconds",
            &mut out,
        );
        self.statistics.collect_ns.render_prometheus(
            "toposem_statistics_collect_duration_ns",
            "Duration of statistics assemblies that recollected a type, in nanoseconds",
            &mut out,
        );
        self.reply_encode_ns.render_prometheus(
            "toposem_server_reply_encode_duration_ns",
            "Time to encode each reply into the connection's output buffer, in nanoseconds",
            &mut out,
        );
        self.wal.fsync_ns.render_prometheus(
            "toposem_wal_fsync_latency_ns",
            "WAL fsync latency in nanoseconds",
            &mut out,
        );
        self.wal.group_commit_batch.render_prometheus(
            "toposem_wal_group_commit_batch",
            "Commits acknowledged per WAL flush",
            &mut out,
        );
        self.wal.checkpoint_ns.render_prometheus(
            "toposem_wal_checkpoint_duration_ns",
            "Checkpoint duration in nanoseconds",
            &mut out,
        );
        self.repl.ship_round_ns.render_prometheus(
            "toposem_repl_ship_round_duration_ns",
            "Wall time of each shipping round, log sync included, in nanoseconds",
            &mut out,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_sum() {
        let h = Histogram::new(SIZE_BOUNDS);
        h.record(1);
        h.record(2);
        h.record(3); // -> le=4 bucket
        h.record(2_000_000); // -> +Inf
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 2_000_006);
        assert_eq!(s.counts.iter().sum::<u64>(), s.count);
        assert_eq!(s.counts[0], 1); // le=1
        assert_eq!(s.counts[1], 1); // le=2
        assert_eq!(s.counts[2], 1); // le=4
        assert_eq!(s.counts[SIZE_BOUNDS.len()], 1); // +Inf
    }

    #[test]
    fn prometheus_render_shape() {
        let m = EngineMetrics::new();
        m.plan_cache_hits.add(3);
        m.wal.fsync_ns.record(12_345);
        m.wal.group_commit_batch.record(7);
        m.planner_qerror.record(137);
        m.repl.shipped_lsn.set(42);
        m.repl.applied_lsn.set(40);
        m.repl.segments_shipped.add(5);
        m.repl.ship_rounds.add(6);
        m.repl.ship_errors.inc();
        m.repl.ship_round_ns.record(250_000);
        m.snapshot_rebuild_ns.record(40_000);
        m.stats_collect_ns.record(2_000_000);
        m.stats_types_reused.add(4);
        m.stats_types_collected.inc();
        m.reply_bytes.add(9_317);
        m.reply_encode_ns.record(2_500);
        m.recovery_ns.record(45_000_000);
        let text = m.snapshot().to_prometheus();
        assert!(text.contains("toposem_plan_cache_hits_total 3"));
        assert!(text.contains("# TYPE toposem_planner_qerror histogram"));
        assert!(text.contains("toposem_planner_qerror_bucket{le=\"150\"} 1"));
        assert!(text.contains("# TYPE toposem_wal_fsync_latency_ns histogram"));
        assert!(text.contains("toposem_wal_fsync_latency_ns_count 1"));
        assert!(text.contains("toposem_wal_fsync_latency_ns_sum 12345"));
        assert!(text.contains("toposem_wal_group_commit_batch_bucket{le=\"8\"} 1"));
        assert!(text.contains("toposem_wal_group_commit_batch_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("toposem_repl_shipped_lsn 42"));
        assert!(text.contains("toposem_repl_applied_lsn 40"));
        assert!(text.contains("toposem_repl_lag_records 2"));
        assert!(text.contains("toposem_repl_segments_shipped_total 5"));
        assert!(text.contains("# TYPE toposem_repl_ship_rounds_total counter"));
        assert!(text.contains("toposem_repl_ship_rounds_total 6"));
        assert!(text.contains("toposem_repl_ship_errors_total 1"));
        assert!(text.contains("# TYPE toposem_repl_ship_round_duration_ns histogram"));
        assert!(text.contains("toposem_repl_ship_round_duration_ns_bucket{le=\"100000\"} 0"));
        assert!(text.contains("toposem_repl_ship_round_duration_ns_bucket{le=\"300000\"} 1"));
        assert!(text.contains("toposem_repl_ship_round_duration_ns_sum 250000"));
        assert!(text.contains("# TYPE toposem_snapshot_rebuild_duration_ns histogram"));
        assert!(text.contains("toposem_snapshot_rebuild_duration_ns_bucket{le=\"100000\"} 1"));
        assert!(text.contains("toposem_snapshot_rebuild_duration_ns_sum 40000"));
        assert!(text.contains("# TYPE toposem_statistics_collect_duration_ns histogram"));
        assert!(text.contains("toposem_statistics_collect_duration_ns_bucket{le=\"1000000\"} 0"));
        assert!(text.contains("toposem_statistics_collect_duration_ns_count 1"));
        assert!(text.contains("toposem_statistics_types_reused_total 4"));
        assert!(text.contains("toposem_statistics_types_collected_total 1"));
        assert!(text.contains("# TYPE toposem_server_reply_bytes_total counter"));
        assert!(text.contains("toposem_server_reply_bytes_total 9317"));
        assert!(text.contains("# TYPE toposem_server_reply_encode_duration_ns histogram"));
        assert!(text.contains("toposem_server_reply_encode_duration_ns_bucket{le=\"3000\"} 1"));
        assert!(text.contains("toposem_server_reply_encode_duration_ns_count 1"));
        assert!(text.contains("# TYPE toposem_recovery_duration_ns histogram"));
        assert!(text.contains("toposem_recovery_duration_ns_bucket{le=\"30000000\"} 0"));
        assert!(text.contains("toposem_recovery_duration_ns_bucket{le=\"100000000\"} 1"));
        assert!(text.contains("toposem_recovery_duration_ns_sum 45000000"));
    }
}
