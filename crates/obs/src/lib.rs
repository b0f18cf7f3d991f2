//! # toposem-obs
//!
//! Observability primitives for the toposem engine: the pieces every
//! other layer (WAL, storage engine, planner, executor) records into,
//! with no dependency on any of them.
//!
//! Three layers, mirroring how the engine is observed in practice:
//!
//! 1. **[`metrics`]** — an engine-wide registry of cheap atomic
//!    counters, gauges, and fixed-bucket histograms ([`EngineMetrics`]),
//!    snapshot into a typed [`MetricsSnapshot`] and rendered in the
//!    Prometheus text exposition format (hand-written, no external
//!    crates — consistent with the workspace's vendored-stand-in rule).
//! 2. **[`profile`]** — per-operator execution profiles: the executor
//!    accumulates rows/time/detail into a [`PlanProfile`] (one
//!    [`NodeProfile`] of relaxed atomics per physical operator, merged
//!    once per operator so batch loops never touch a shared cache line),
//!    and the planner zips it with its estimates into an [`OpProfile`]
//!    tree carrying q-error = max(est/act, act/est) per node.
//! 3. **[`trace`]** — a bounded ring of recent [`QueryTrace`] entries
//!    (fingerprint, plan hash, plan/exec/commit phase timings) with a
//!    configurable slow-query threshold (`TOPOSEM_SLOW_QUERY_MS`) that
//!    retains the full operator profile for offenders, and a
//!    [`worst_plans`](TraceRing::worst_plans) q-error watchdog over the
//!    retained profiles.
//!
//! Everything here is safe to call from hot paths: recording is a
//! handful of relaxed atomic adds and a monotonic clock read; the only
//! lock is the trace ring's mutex, taken once per query.

pub mod metrics;
pub mod profile;
pub mod trace;

pub use metrics::{
    Counter, EngineMetrics, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, MvccStats,
    PlanCacheStats, QueryMetrics, RecoveryStats, ReplicationMetrics, ReplicationStats,
    SessionStats, StatisticsStats, TxnStats, WalMetrics, WalStats, LATENCY_NS_BOUNDS,
    QERROR_X100_BOUNDS, SIZE_BOUNDS,
};
pub use profile::{q_error, NodeProfile, NodeSnapshot, OpProfile, PlanProfile, QueryProfile};
pub use trace::{current_session, set_current_session, QueryTrace, TraceRing};
