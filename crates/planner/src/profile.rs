//! Zipping raw execution counters with planner estimates.
//!
//! The executor fills a flat [`PlanProfile`] (one atomic slot per
//! operator, addressed pre-order); this module walks the plan tree a
//! second time and zips each operator's description and cost-model
//! estimate with its observed counters into the [`OpProfile`] tree that
//! a profiled request renders. [`max_q_error`] makes the same
//! comparison for every query, keeping only its worst q-error for the
//! watchdog histogram. Both read the estimates from one
//! [`crate::cost::estimate_all`] walk, addressed by the same pre-order
//! ids.

use toposem_extension::Database;
use toposem_obs::{q_error, OpProfile, PlanProfile};

use crate::cost::Estimate;
use crate::physical::Physical;

/// Builds the annotated operator tree for `plan` from the counters the
/// executor accumulated into `profile` (sized to `plan.node_count()`),
/// with each operator's estimate read from `estimates` (pre-order, as
/// [`crate::cost::estimate_all`] returns them).
pub fn build_op_profile(
    plan: &Physical,
    db: &Database,
    estimates: &[Estimate],
    profile: &PlanProfile,
) -> OpProfile {
    debug_assert_eq!(profile.len(), plan.node_count(), "profile sized to plan");
    debug_assert_eq!(estimates.len(), plan.node_count(), "one estimate per node");
    let mut id = 0;
    build(plan, db, estimates, profile, &mut id)
}

fn build(
    plan: &Physical,
    db: &Database,
    estimates: &[Estimate],
    profile: &PlanProfile,
    id: &mut usize,
) -> OpProfile {
    let est_rows = estimates[*id].rows;
    let snap = profile.node(*id).snapshot();
    *id += 1;
    let children: Vec<OpProfile> = plan
        .children()
        .into_iter()
        .map(|c| build(c, db, estimates, profile, id))
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
        est_rows,
        stats: snap,
        detail,
        children,
    }
}

/// The query's worst per-operator q-error (≥ 1.0; 1.0 for an empty
/// plan): each operator that ran is compared, its estimate (from
/// `estimates`, pre-order, priced under the statistics that planned
/// it) against the rows it produced.
pub(crate) fn max_q_error(estimates: &[Estimate], profile: &PlanProfile) -> f64 {
    debug_assert_eq!(profile.len(), estimates.len(), "profile sized to plan");
    estimates
        .iter()
        .enumerate()
        .map(|(id, e)| (e, profile.node(id).snapshot()))
        .filter(|(_, snap)| snap.calls > 0)
        .fold(1.0_f64, |max_q, (e, snap)| {
            max_q.max(q_error(e.rows, snap.rows))
        })
}
