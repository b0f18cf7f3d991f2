//! Zipping raw execution counters with planner estimates.
//!
//! The executor fills a flat [`PlanProfile`] (one atomic slot per
//! operator, addressed pre-order); this module walks the plan tree a
//! second time and zips each operator's description and cost-model
//! estimate with its observed counters into the [`OpProfile`] tree that
//! a profiled request renders. [`max_q_error`] makes the same
//! comparison for every query, keeping only its worst q-error for the
//! watchdog histogram.

use toposem_extension::Database;
use toposem_obs::{q_error, OpProfile, PlanProfile};
use toposem_storage::Statistics;

use crate::cost::estimate;
use crate::physical::Physical;

/// Builds the annotated operator tree for `plan` from the counters the
/// executor accumulated into `profile` (sized to `plan.node_count()`),
/// with each operator's estimate read through `stats`.
pub fn build_op_profile(
    plan: &Physical,
    db: &Database,
    stats: &Statistics,
    profile: &PlanProfile,
) -> OpProfile {
    debug_assert_eq!(profile.len(), plan.node_count(), "profile sized to plan");
    let mut id = 0;
    build(plan, db, stats, profile, &mut id)
}

fn build(
    plan: &Physical,
    db: &Database,
    stats: &Statistics,
    profile: &PlanProfile,
    id: &mut usize,
) -> OpProfile {
    let snap = profile.node(*id).snapshot();
    *id += 1;
    let children: Vec<OpProfile> = plan
        .children()
        .into_iter()
        .map(|c| build(c, db, stats, profile, id))
        .collect();
    let mut detail: Vec<(&'static str, String)> = Vec::new();
    match plan {
        Physical::SeqScan { .. }
        | Physical::IndexSeek { .. }
        | Physical::IndexRangeSeek { .. }
        | Physical::CompositeSeek { .. } => {
            detail.push(("scanned", snap.rows_in.to_string()));
        }
        Physical::IndexOnlyScan { .. } => detail.push(("keys", snap.rows_in.to_string())),
        Physical::HashJoin { .. } => {
            detail.push(("build", children[0].stats.rows.to_string()));
            detail.push(("probe", children[1].stats.rows.to_string()));
            detail.push(("partitions", snap.partitions.to_string()));
            detail.push(("max_partition", snap.max_partition.to_string()));
        }
        Physical::Intersect { .. } => {
            detail.push(("build", children[0].stats.rows.to_string()));
            detail.push(("probe", children[1].stats.rows.to_string()));
        }
        Physical::MergeJoin { .. } => {
            detail.push(("left", children[0].stats.rows.to_string()));
            detail.push(("right", children[1].stats.rows.to_string()));
        }
        _ => {}
    }
    OpProfile {
        label: plan.describe(db),
        est_rows: estimate(plan, stats).rows,
        stats: snap,
        detail,
        children,
    }
}

/// The query's worst per-operator q-error (≥ 1.0; 1.0 for an empty
/// plan): each operator that ran is compared, estimate against the rows
/// it produced, under the same `stats` that priced the plan.
pub(crate) fn max_q_error(plan: &Physical, stats: &Statistics, profile: &PlanProfile) -> f64 {
    debug_assert_eq!(profile.len(), plan.node_count(), "profile sized to plan");
    let mut max_q = 1.0_f64;
    let mut id = 0;
    walk_q(plan, stats, profile, &mut id, &mut max_q);
    max_q
}

fn walk_q(
    plan: &Physical,
    stats: &Statistics,
    profile: &PlanProfile,
    id: &mut usize,
    max_q: &mut f64,
) {
    let snap = profile.node(*id).snapshot();
    *id += 1;
    if snap.calls > 0 {
        *max_q = max_q.max(q_error(estimate(plan, stats).rows, snap.rows));
    }
    for c in plan.children() {
        walk_q(c, stats, profile, id, max_q);
    }
}
