//! Per-operator execution profiles.
//!
//! The executor accumulates into a [`PlanProfile`] — one
//! [`NodeProfile`] of relaxed atomics per physical operator, addressed
//! by the operator's pre-order index in the plan tree. Operators count
//! into plain locals and merge with one atomic add per operator, so
//! profiling stays off the per-row path.
//!
//! The planner then zips the raw counters with its cost-model estimates
//! into an [`OpProfile`] tree: estimated vs actual rows, q-error, and
//! inclusive wall time per node — the data behind `explain_analyze`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Raw atomic accumulator for one physical operator.
///
/// All fields use relaxed ordering: a query's execution finishes on its
/// own thread before the profile is read.
#[derive(Debug, Default)]
pub struct NodeProfile {
    /// Rows emitted by this operator (bag semantics, before any final
    /// set dedup).
    pub rows: AtomicU64,
    /// Rows or index entries inspected to produce the output (scanned
    /// tuples for scans/seeks, keys walked for index-only scans,
    /// combined input rows for merge joins).
    pub rows_in: AtomicU64,
    /// Inclusive wall time in nanoseconds (children included; fused
    /// pipeline stages share the pipeline's wall time).
    pub wall_ns: AtomicU64,
    /// Times the operator was evaluated.
    pub calls: AtomicU64,
    /// Hash-join build partitions (the build is one partition).
    pub partitions: AtomicU64,
    /// Largest partition size — the skew numerator.
    pub max_partition: AtomicU64,
}

impl NodeProfile {
    /// Add emitted rows.
    pub fn add_rows(&self, n: u64) {
        self.rows.fetch_add(n, Ordering::Relaxed);
    }

    /// Add inspected rows.
    pub fn add_rows_in(&self, n: u64) {
        self.rows_in.fetch_add(n, Ordering::Relaxed);
    }

    /// Add inclusive wall time.
    pub fn add_wall_ns(&self, ns: u64) {
        self.wall_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Count one evaluation.
    pub fn add_call(&self) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Record partition shape (count and largest).
    pub fn note_partitions(&self, count: u64, max: u64) {
        self.partitions.fetch_max(count, Ordering::Relaxed);
        self.max_partition.fetch_max(max, Ordering::Relaxed);
    }

    /// Plain-data copy.
    pub fn snapshot(&self) -> NodeSnapshot {
        NodeSnapshot {
            rows: self.rows.load(Ordering::Relaxed),
            rows_in: self.rows_in.load(Ordering::Relaxed),
            wall_ns: self.wall_ns.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed),
            partitions: self.partitions.load(Ordering::Relaxed),
            max_partition: self.max_partition.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`NodeProfile`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeSnapshot {
    /// Rows emitted.
    pub rows: u64,
    /// Rows/keys inspected.
    pub rows_in: u64,
    /// Inclusive wall ns.
    pub wall_ns: u64,
    /// Evaluations.
    pub calls: u64,
    /// Partitions / buckets.
    pub partitions: u64,
    /// Largest partition.
    pub max_partition: u64,
}

/// Accumulator for a whole plan: one [`NodeProfile`] per operator,
/// indexed pre-order (root = 0, then each child subtree depth-first in
/// child order).
#[derive(Debug)]
pub struct PlanProfile {
    nodes: Vec<NodeProfile>,
}

impl PlanProfile {
    /// A profile for a plan with `node_count` operators.
    pub fn new(node_count: usize) -> Self {
        PlanProfile {
            nodes: (0..node_count).map(|_| NodeProfile::default()).collect(),
        }
    }

    /// The accumulator for the operator at pre-order index `id`.
    pub fn node(&self, id: usize) -> &NodeProfile {
        &self.nodes[id]
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for the degenerate zero-operator profile.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// One node of the annotated `explain_analyze` tree: the operator
/// description zipped with its estimate and observed execution.
#[derive(Clone, Debug, PartialEq)]
pub struct OpProfile {
    /// Operator description, e.g. `HashJoin [worksfor] on (dept)`.
    pub label: String,
    /// Planner-estimated output rows, with any feedback correction
    /// applied — the number the plan was actually priced with.
    pub est_rows: f64,
    /// Feedback correction folded into `est_rows` (1.0 when the
    /// estimate is purely static). The raw static estimate is
    /// `est_rows / corr`; rendering shows `est≈raw×corr` when the
    /// factor is non-neutral so feedback-steered plans are visible.
    pub corr: f64,
    /// Observed execution counters.
    pub stats: NodeSnapshot,
    /// Operator-specific detail (`build`, `probe`, `partitions`,
    /// `scanned`, `vec`, …), rendered in order.
    pub detail: Vec<(&'static str, String)>,
    /// Child operators, in the same order `explain` renders them.
    pub children: Vec<OpProfile>,
}

impl OpProfile {
    /// q-error of the cardinality estimate: `max(est/act, act/est)`
    /// with both sides clamped to ≥ 1 so empty operators compare
    /// cleanly.
    pub fn q_error(&self) -> f64 {
        q_error(self.est_rows, self.stats.rows)
    }

    /// Render this subtree annotated with actuals, one operator per
    /// line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        // `est≈static×corr`: the factored form appears only when a
        // feedback correction steered the estimate, so a plain `est≈n`
        // still reads as "purely static estimate".
        let est = if (self.corr - 1.0).abs() > 5e-3 && self.corr > 0.0 {
            format!("{:.1}×{:.3}", self.est_rows / self.corr, self.corr)
        } else {
            format!("{:.1}", self.est_rows)
        };
        let _ = write!(
            out,
            "{pad}{}  (est≈{est}, act={}, q={:.2}, {})",
            self.label,
            self.stats.rows,
            self.q_error(),
            fmt_ns(self.stats.wall_ns),
        );
        if !self.detail.is_empty() {
            let _ = write!(out, " [");
            for (i, (k, v)) in self.detail.iter().enumerate() {
                if i > 0 {
                    let _ = write!(out, " ");
                }
                let _ = write!(out, "{k}={v}");
            }
            let _ = write!(out, "]");
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(depth + 1, out);
        }
    }

    /// Pre-order walk over this subtree.
    pub fn walk(&self, f: &mut impl FnMut(&OpProfile)) {
        f(self);
        for c in &self.children {
            c.walk(f);
        }
    }
}

/// `max(est/act, act/est)` with both sides clamped to ≥ 1.
pub fn q_error(est_rows: f64, actual_rows: u64) -> f64 {
    let e = est_rows.max(1.0);
    let a = (actual_rows as f64).max(1.0);
    (e / a).max(a / e)
}

/// Human-readable duration from nanoseconds.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// A profiled query: phase timings plus the annotated operator tree.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryProfile {
    /// Fingerprint of the logical query (plan-cache key component).
    pub fingerprint: u64,
    /// Fingerprint of the chosen physical plan.
    pub plan_hash: u64,
    /// Planning phase (includes the plan-cache lookup) in ns.
    pub plan_ns: u64,
    /// Execution phase in ns.
    pub exec_ns: u64,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// Rows in the final result.
    pub rows: u64,
    /// Annotated operator tree.
    pub root: OpProfile,
}

impl QueryProfile {
    /// Render the annotated plan tree plus a phase-timing footer.
    pub fn render(&self) -> String {
        let mut out = self.root.render();
        out.push_str(&format!(
            "Phases: plan {}, exec {} ({}, fingerprint {:016x}, plan hash {:016x}, {} rows)\n",
            fmt_ns(self.plan_ns),
            fmt_ns(self.exec_ns),
            if self.cache_hit {
                "plan cache hit"
            } else {
                "plan cache miss"
            },
            self.fingerprint,
            self.plan_hash,
            self.rows,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_error_symmetric_and_clamped() {
        assert_eq!(q_error(10.0, 10), 1.0);
        assert_eq!(q_error(20.0, 10), 2.0);
        assert_eq!(q_error(10.0, 20), 2.0);
        assert_eq!(q_error(0.0, 0), 1.0); // both clamp to 1
        assert_eq!(q_error(5.0, 0), 5.0);
    }

    #[test]
    fn render_includes_annotations() {
        let mut prof = OpProfile {
            label: "SeqScan person".into(),
            est_rows: 100.0,
            corr: 1.0,
            stats: NodeSnapshot {
                rows: 100,
                wall_ns: 1_500,
                ..NodeSnapshot::default()
            },
            detail: vec![("scanned", "100".into())],
            children: vec![],
        };
        prof.children.push(OpProfile {
            label: "child".into(),
            est_rows: 1.0,
            corr: 1.0,
            stats: NodeSnapshot::default(),
            detail: vec![],
            children: vec![],
        });
        let text = prof.render();
        assert!(text.contains("est≈100.0"));
        assert!(text.contains("act=100"));
        assert!(text.contains("q=1.00"));
        assert!(text.contains("1.5µs)"), "{text}");
        assert!(!text.contains("par≈"), "{text}");
        assert!(text.contains("[scanned=100]"));
        assert!(text.starts_with("SeqScan person"));
        assert!(text.contains("\n  child"));
    }

    #[test]
    fn render_factors_feedback_corrections() {
        let prof = OpProfile {
            label: "IndexRangeSeek person.age".into(),
            est_rows: 40.0,
            corr: 0.01,
            stats: NodeSnapshot {
                rows: 40,
                ..NodeSnapshot::default()
            },
            detail: vec![],
            children: vec![],
        };
        let text = prof.render();
        // Corrected estimate shown as static×corr: 4000 × 0.01 = 40.
        assert!(text.contains("est≈4000.0×0.010"), "{text}");
        // q-error is judged against the corrected estimate.
        assert!(text.contains("q=1.00"), "{text}");
    }
}
