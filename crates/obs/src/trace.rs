//! Structured event trace: a bounded ring buffer of recent query
//! executions with a configurable slow-query threshold.
//!
//! Every planned query pushes one [`QueryTrace`] (fingerprint, plan
//! hash, plan/exec/commit phase timings, row count). Entries whose
//! total time crosses the threshold are flagged slow and retain the
//! full per-operator [`QueryProfile`]; fast entries stay lightweight so
//! the always-on cost is one mutex push per query.
//!
//! The threshold defaults to 100ms and is configurable via the
//! `TOPOSEM_SLOW_QUERY_MS` environment variable (read at ring
//! construction) or [`TraceRing::set_slow_query_ms`] at runtime.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::profile::QueryProfile;

thread_local! {
    /// Session id attributed to traces pushed from this thread. The
    /// session layer runs each connection on its own thread, so a
    /// thread-local carries the attribution through the planner without
    /// threading a parameter down every execution path.
    static CURRENT_SESSION: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Sets the session id stamped into traces pushed from this thread
/// (`None` clears it). The session/server layer calls this when a
/// connection thread starts serving a session.
pub fn set_current_session(id: Option<u64>) {
    CURRENT_SESSION.set(id);
}

/// The session id traces pushed from this thread are attributed to.
pub fn current_session() -> Option<u64> {
    CURRENT_SESSION.get()
}

/// Default slow-query threshold when `TOPOSEM_SLOW_QUERY_MS` is unset.
pub const DEFAULT_SLOW_QUERY_MS: u64 = 100;

/// Default ring capacity.
pub const DEFAULT_TRACE_CAP: usize = 128;

/// One traced event. Queries populate `plan_ns`/`exec_ns`; durable
/// transaction commits are traced separately with `commit_ns` (their
/// fingerprint and plan hash are 0).
#[derive(Clone, Debug)]
pub struct QueryTrace {
    /// Logical-query fingerprint (0 for commit events).
    pub fingerprint: u64,
    /// Physical-plan fingerprint (0 for commit events).
    pub plan_hash: u64,
    /// Planning phase in ns (plan-cache lookup included).
    pub plan_ns: u64,
    /// Execution phase in ns.
    pub exec_ns: u64,
    /// Commit phase in ns (WAL append + flush; 0 for read-only
    /// queries).
    pub commit_ns: u64,
    /// Rows returned (queries) or operations committed (commits).
    pub rows: u64,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// Whether total time crossed the slow-query threshold.
    pub slow: bool,
    /// Worst per-operator q-error observed for this execution (≥ 1.0
    /// for every planned query; 0.0 for commit events, which run no
    /// plan).
    pub max_q: f64,
    /// Token of the enclosing explicit transaction, if any; commits
    /// attribute their `commit_ns` back to entries sharing the token.
    pub txn: Option<u64>,
    /// Session the query ran under, if any (stamped from the pushing
    /// thread's [`current_session`]).
    pub session: Option<u64>,
    /// Full operator profile — retained for slow queries and profiled
    /// requests.
    pub profile: Option<Arc<QueryProfile>>,
}

impl QueryTrace {
    /// Total traced time across phases.
    pub fn total_ns(&self) -> u64 {
        self.plan_ns + self.exec_ns + self.commit_ns
    }
}

/// Bounded ring of recent [`QueryTrace`] entries.
#[derive(Debug)]
pub struct TraceRing {
    cap: usize,
    slow_ns: AtomicU64,
    entries: Mutex<VecDeque<QueryTrace>>,
}

impl TraceRing {
    /// A ring holding the most recent `cap` entries, with the slow
    /// threshold taken from `TOPOSEM_SLOW_QUERY_MS` (falling back to
    /// [`DEFAULT_SLOW_QUERY_MS`]).
    pub fn new(cap: usize) -> Self {
        let ms = std::env::var("TOPOSEM_SLOW_QUERY_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(DEFAULT_SLOW_QUERY_MS);
        TraceRing {
            cap: cap.max(1),
            slow_ns: AtomicU64::new(ms.saturating_mul(1_000_000)),
            entries: Mutex::new(VecDeque::with_capacity(cap.max(1))),
        }
    }

    /// Current slow-query threshold in nanoseconds.
    pub fn slow_query_ns(&self) -> u64 {
        self.slow_ns.load(Ordering::Relaxed)
    }

    /// Override the slow-query threshold at runtime.
    pub fn set_slow_query_ms(&self, ms: u64) {
        self.slow_ns
            .store(ms.saturating_mul(1_000_000), Ordering::Relaxed);
    }

    /// Append an entry, evicting the oldest past capacity.
    pub fn push(&self, t: QueryTrace) {
        let mut q = self.entries.lock().unwrap();
        if q.len() == self.cap {
            q.pop_front();
        }
        q.push_back(t);
    }

    /// All retained entries, oldest first.
    pub fn recent(&self) -> Vec<QueryTrace> {
        self.entries.lock().unwrap().iter().cloned().collect()
    }

    /// Retained entries flagged slow, oldest first.
    pub fn slow(&self) -> Vec<QueryTrace> {
        self.entries
            .lock()
            .unwrap()
            .iter()
            .filter(|t| t.slow)
            .cloned()
            .collect()
    }

    /// The `n` retained entries with the worst (highest) recorded
    /// q-error that still hold a full operator profile, worst first —
    /// the q-error watchdog's working set: these are the plans whose
    /// estimates were furthest from reality.
    pub fn worst_plans(&self, n: usize) -> Vec<QueryTrace> {
        let mut v: Vec<QueryTrace> = self
            .entries
            .lock()
            .unwrap()
            .iter()
            .filter(|t| t.profile.is_some() && t.max_q > 0.0)
            .cloned()
            .collect();
        v.sort_by(|a, b| b.max_q.total_cmp(&a.max_q));
        v.truncate(n);
        v
    }

    /// Distribute a commit's `commit_ns` across the retained entries of
    /// transaction `txn` (evenly, remainder on the last), re-evaluating
    /// their slow flag against the new totals. Returns how many entries
    /// absorbed a share; 0 means the transaction's queries are no
    /// longer in the ring (or it ran none) and the caller should trace
    /// the commit standalone.
    pub fn attribute_commit(&self, txn: u64, commit_ns: u64) -> usize {
        let slow_ns = self.slow_query_ns();
        let mut q = self.entries.lock().unwrap();
        let idx: Vec<usize> = q
            .iter()
            .enumerate()
            .filter(|(_, t)| t.txn == Some(txn))
            .map(|(i, _)| i)
            .collect();
        if idx.is_empty() {
            return 0;
        }
        let share = commit_ns / idx.len() as u64;
        let remainder = commit_ns % idx.len() as u64;
        for (pos, &i) in idx.iter().enumerate() {
            let t = &mut q[i];
            t.commit_ns += share + if pos + 1 == idx.len() { remainder } else { 0 };
            if t.total_ns() >= slow_ns {
                t.slow = true;
            }
        }
        idx.len()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// True when nothing has been traced yet.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().unwrap().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(fp: u64, slow: bool) -> QueryTrace {
        QueryTrace {
            fingerprint: fp,
            plan_hash: fp ^ 1,
            plan_ns: 10,
            exec_ns: 20,
            commit_ns: 0,
            rows: 1,
            cache_hit: false,
            slow,
            max_q: 0.0,
            txn: None,
            session: None,
            profile: None,
        }
    }

    fn profiled(fp: u64, max_q: f64) -> QueryTrace {
        use crate::profile::{OpProfile, QueryProfile};
        QueryTrace {
            max_q,
            profile: Some(Arc::new(QueryProfile {
                fingerprint: fp,
                plan_hash: fp ^ 1,
                plan_ns: 1,
                exec_ns: 1,
                cache_hit: false,
                rows: 1,
                root: OpProfile {
                    label: "SeqScan".into(),
                    est_rows: 1.0,
                    stats: Default::default(),
                    detail: Vec::new(),
                    children: Vec::new(),
                },
            })),
            ..entry(fp, false)
        }
    }

    #[test]
    fn ring_bounds_and_order() {
        let ring = TraceRing::new(3);
        for fp in 0..5 {
            ring.push(entry(fp, fp == 3));
        }
        let recent = ring.recent();
        assert_eq!(
            recent.iter().map(|t| t.fingerprint).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(ring.slow().len(), 1);
        assert_eq!(ring.slow()[0].fingerprint, 3);
        assert_eq!(recent[0].total_ns(), 30);
    }

    #[test]
    fn worst_plans_ranks_retained_profiles_by_q_error() {
        let ring = TraceRing::new(8);
        ring.push(entry(1, false)); // no profile: never surfaced
        ring.push(profiled(2, 4.0));
        ring.push(profiled(3, 80.0));
        ring.push(profiled(4, 9.5));
        let worst = ring.worst_plans(2);
        assert_eq!(
            worst.iter().map(|t| t.fingerprint).collect::<Vec<_>>(),
            vec![3, 4]
        );
        assert!(ring.worst_plans(10).len() == 3);
    }

    #[test]
    fn attribute_commit_distributes_across_txn_entries() {
        let ring = TraceRing::new(8);
        ring.set_slow_query_ms(1); // 1_000_000 ns threshold
        for fp in 0..3 {
            let mut t = entry(fp, false);
            t.txn = (fp < 2).then_some(7);
            ring.push(t);
        }
        // 1_000_001 ns over two entries: 500_000 each, remainder on
        // the last; per-entry totals (~500µs) stay under the 1ms slow
        // threshold.
        assert_eq!(ring.attribute_commit(7, 1_000_001), 2);
        let recent = ring.recent();
        assert_eq!(recent[0].commit_ns, 500_000);
        assert_eq!(recent[1].commit_ns, 500_001);
        assert_eq!(recent[2].commit_ns, 0); // not in txn 7
        assert!(!recent[0].slow);
        assert_eq!(ring.attribute_commit(7, 1_200_000), 2);
        assert!(ring.recent()[0].slow, "totals crossed the threshold");
        // Unknown transaction: nothing to attribute.
        assert_eq!(ring.attribute_commit(99, 1_000), 0);
    }
}
