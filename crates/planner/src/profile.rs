//! Zipping raw execution counters with planner estimates.
//!
//! The executor fills a flat [`PlanProfile`] (one atomic slot per
//! operator, addressed pre-order); this module walks the plan tree a
//! second time and zips each operator's description and cost-model
//! estimate with its observed counters into the [`OpProfile`] tree that
//! `explain_analyze` renders.
//!
//! The same walk drives the feedback loop:
//! [`collect_feedback`] compares each cardinality-bearing operator's
//! estimate against the rows it actually produced and derives the
//! [`FeedbackObservation`]s that the engine's
//! [`SelectivityFeedback`](toposem_obs::SelectivityFeedback) cache
//! folds into corrections — plus the query's worst q-error for the
//! watchdog histogram.

use toposem_core::{AttrId, TypeId};
use toposem_extension::Database;
use toposem_obs::{q_error, FeedbackKey, FeedbackObservation, OpProfile, PlanProfile, PredClass};
use toposem_storage::{Predicate, Statistics};

use crate::cost::estimate;
use crate::physical::Physical;

/// Builds the annotated operator tree for `plan` from the counters the
/// executor accumulated into `profile` (sized to `plan.node_count()`).
/// Estimates are read through `stats` — corrections included, when
/// feedback is attached — and factored into `static × correction`
/// against a feedback-stripped copy so the rendering can show
/// `est≈static×corr` for feedback-steered nodes.
pub fn build_op_profile(
    plan: &Physical,
    db: &Database,
    stats: &Statistics,
    profile: &PlanProfile,
) -> OpProfile {
    debug_assert_eq!(profile.len(), plan.node_count(), "profile sized to plan");
    let raw = stats.without_feedback();
    let mut id = 0;
    build(plan, db, stats, &raw, profile, &mut id)
}

fn build(
    plan: &Physical,
    db: &Database,
    stats: &Statistics,
    raw: &Statistics,
    profile: &PlanProfile,
    id: &mut usize,
) -> OpProfile {
    let snap = profile.node(*id).snapshot();
    *id += 1;
    let children: Vec<OpProfile> = plan
        .children()
        .into_iter()
        .map(|c| build(c, db, stats, raw, profile, id))
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
    let est_rows = estimate(plan, stats).rows;
    let static_rows = estimate(plan, raw).rows;
    let corr = if static_rows > 0.0 {
        est_rows / static_rows
    } else {
        1.0
    };
    OpProfile {
        label: plan.describe(db),
        est_rows,
        corr,
        stats: snap,
        detail,
        children,
    }
}

/// Walks `plan` zipped with its execution counters and derives, per
/// cardinality-bearing operator, an observed-vs-estimated
/// [`FeedbackObservation`] keyed the same way the cost model reads its
/// corrections (per fused predicate for scans/seeks/filters, the output
/// type × dominant key for joins). Returns the observations plus the
/// query's worst per-operator q-error (≥ 1.0; 1.0 for an empty plan).
///
/// Estimates are taken through `stats` *with* corrections applied, so
/// each observation carries only the residual error — folding it in
/// converges instead of double-counting.
pub fn collect_feedback(
    plan: &Physical,
    stats: &Statistics,
    profile: &PlanProfile,
) -> (f64, Vec<FeedbackObservation>) {
    debug_assert_eq!(profile.len(), plan.node_count(), "profile sized to plan");
    let mut max_q = 1.0_f64;
    let mut out = Vec::new();
    let mut id = 0;
    collect(plan, stats, profile, &mut id, &mut max_q, &mut out);
    (max_q, out)
}

fn collect(
    plan: &Physical,
    stats: &Statistics,
    profile: &PlanProfile,
    id: &mut usize,
    max_q: &mut f64,
    out: &mut Vec<FeedbackObservation>,
) {
    let snap = profile.node(*id).snapshot();
    *id += 1;
    if snap.calls > 0 {
        let est_rows = estimate(plan, stats).rows;
        *max_q = max_q.max(q_error(est_rows, snap.rows));
        let keys = feedback_keys(plan, stats);
        if !keys.is_empty() {
            out.push(FeedbackObservation {
                keys,
                est_rows,
                act_rows: snap.rows as f64,
            });
        }
    }
    for c in plan.children() {
        collect(c, stats, profile, id, max_q, out);
    }
}

fn pred_key(ty: TypeId, attr: AttrId, pred: &Predicate) -> FeedbackKey {
    FeedbackKey {
        ty: ty.index() as u32,
        attr: attr.index() as u32,
        class: if pred.as_eq().is_some() {
            PredClass::Eq
        } else {
            PredClass::Range
        },
    }
}

fn eq_key(ty: TypeId, attr: AttrId) -> FeedbackKey {
    FeedbackKey {
        ty: ty.index() as u32,
        attr: attr.index() as u32,
        class: PredClass::Eq,
    }
}

fn range_key(ty: TypeId, attr: AttrId) -> FeedbackKey {
    FeedbackKey {
        ty: ty.index() as u32,
        attr: attr.index() as u32,
        class: PredClass::Range,
    }
}

/// The feedback keys behind one operator's cardinality estimate —
/// mirroring exactly which `(type, attribute, class)` selectivities the
/// cost model multiplied to produce it, so corrections land where the
/// next estimate will read them. Operators whose row count is not a
/// selectivity product (projections, sorts, unions) contribute nothing.
fn feedback_keys(plan: &Physical, stats: &Statistics) -> Vec<FeedbackKey> {
    match plan {
        Physical::SeqScan { ty, preds } | Physical::IndexOnlyScan { ty, preds, .. } => {
            preds.iter().map(|(a, p)| pred_key(*ty, *a, p)).collect()
        }
        Physical::Filter { input, preds } => {
            let ty = input.ty();
            preds.iter().map(|(a, p)| pred_key(ty, *a, p)).collect()
        }
        Physical::IndexSeek {
            ty, attr, residual, ..
        } => std::iter::once(eq_key(*ty, *attr))
            .chain(residual.iter().map(|(a, p)| pred_key(*ty, *a, p)))
            .collect(),
        Physical::IndexRangeSeek {
            ty,
            attr,
            lo,
            hi,
            residual,
        } => {
            // Unbounded on both sides the seek is an ordered full scan:
            // no range selectivity was charged, so there is nothing to
            // correct on `attr`.
            let range = (lo.is_some() || hi.is_some()).then(|| range_key(*ty, *attr));
            range
                .into_iter()
                .chain(residual.iter().map(|(a, p)| pred_key(*ty, *a, p)))
                .collect()
        }
        Physical::CompositeSeek {
            ty,
            attrs,
            prefix,
            suffix,
            residual,
        } => attrs[..prefix.len()]
            .iter()
            .map(|a| eq_key(*ty, *a))
            .chain(
                suffix
                    .is_some()
                    .then(|| attrs.get(prefix.len()).map(|a| range_key(*ty, *a)))
                    .flatten(),
            )
            .chain(residual.iter().map(|(a, p)| pred_key(*ty, *a, p)))
            .collect(),
        Physical::HashJoin {
            build,
            probe,
            keys,
            ty,
        }
        | Physical::MergeJoin {
            left: build,
            right: probe,
            keys,
            ty,
        } => vec![FeedbackKey {
            ty: ty.index() as u32,
            attr: stats
                .dominant_join_key(build.ty(), probe.ty(), keys)
                .map_or(FeedbackKey::NO_ATTR, |a| a.index() as u32),
            class: PredClass::Join,
        }],
        _ => Vec::new(),
    }
}
