//! The cost model: cardinality and cost estimation over the statistics
//! layer, driving access-path selection and join-side choice.
//!
//! Costs are abstract "tuple touches". The estimates only need to *rank*
//! alternatives correctly (index seek vs. range seek vs. sequential scan,
//! build side vs. probe side), not predict wall-clock time.

use toposem_storage::{Predicate, Statistics};

use crate::physical::Physical;

use toposem_core::{AttrId, TypeId};
use toposem_extension::Value;

/// Estimated output rows and cumulative cost of a physical subplan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    /// Expected result cardinality.
    pub rows: f64,
    /// Expected tuple touches to produce it.
    pub cost: f64,
}

/// Per-probe overhead of a hash lookup relative to a scan step.
const HASH_PROBE_COST: f64 = 1.2;
/// Fixed overhead of descending a BTree to position a range/prefix seek.
const TREE_DESCENT_COST: f64 = 2.0;
/// Per-tuple overhead of walking an ordered index range relative to a
/// sequential scan step: node hops and comparisons instead of a tight
/// pass over contiguous tuples. Keeps selective seeks winning while a
/// seek that would walk most of the relation correctly loses to the
/// scan (histograms make such wide ranges visible statically).
const TREE_WALK_COST: f64 = 1.1;
/// Fixed overhead of instantiating any operator.
const OPERATOR_SETUP_COST: f64 = 1.0;

/// Combined selectivity of a predicate conjunction under independence.
fn conj_selectivity(ty: TypeId, preds: &[(AttrId, Predicate)], stats: &Statistics) -> f64 {
    preds
        .iter()
        .map(|(a, p)| stats.pred_selectivity(ty, *a, p))
        .product()
}

/// Estimates a physical subplan bottom-up.
pub fn estimate(plan: &Physical, stats: &Statistics) -> Estimate {
    walk(plan, stats, None)
}

/// Every node's [`estimate`], in pre-order (the node ids of a
/// [`toposem_obs::PlanProfile`]), from one bottom-up walk: each node is
/// priced once, where asking [`estimate`] of every node prices each
/// subtree once per ancestor.
pub fn estimate_all(plan: &Physical, stats: &Statistics) -> Vec<Estimate> {
    let mut out = Vec::with_capacity(plan.node_count());
    walk(plan, stats, Some(&mut out));
    out
}

/// [`estimate`], also recording every node's estimate into `out` (when
/// given) at its pre-order position: a node reserves its slot before
/// its children, which are visited in [`Physical::children`] order.
fn walk(plan: &Physical, stats: &Statistics, mut out: Option<&mut Vec<Estimate>>) -> Estimate {
    let slot = out.as_deref_mut().map(|o| {
        o.push(Estimate {
            rows: 0.0,
            cost: 0.0,
        });
        o.len() - 1
    });
    let e = node_estimate(plan, stats, |child| walk(child, stats, out.as_deref_mut()));
    if let (Some(o), Some(at)) = (out, slot) {
        o[at] = e;
    }
    e
}

/// One node's estimate, its children priced through `child` (called
/// once per child, in [`Physical::children`] order).
fn node_estimate(
    plan: &Physical,
    stats: &Statistics,
    mut child: impl FnMut(&Physical) -> Estimate,
) -> Estimate {
    match plan {
        Physical::Empty { .. } => Estimate {
            rows: 0.0,
            cost: OPERATOR_SETUP_COST,
        },
        Physical::SeqScan { ty, preds } => {
            let n = stats.cardinality(*ty) as f64;
            Estimate {
                rows: n * conj_selectivity(*ty, preds, stats),
                cost: OPERATOR_SETUP_COST + n,
            }
        }
        Physical::IndexSeek {
            ty, attr, residual, ..
        } => {
            let n = stats.cardinality(*ty) as f64;
            let bucket = n * stats.selectivity(*ty, *attr);
            Estimate {
                rows: bucket * conj_selectivity(*ty, residual, stats),
                cost: OPERATOR_SETUP_COST + HASH_PROBE_COST + bucket,
            }
        }
        Physical::IndexRangeSeek {
            ty,
            attr,
            lo,
            hi,
            residual,
        } => {
            let n = stats.cardinality(*ty) as f64;
            // The range seek touches exactly the tuples inside the
            // interval; rebuild the interval's selectivity from the
            // bounds it was planned with.
            let interval = range_selectivity(*ty, *attr, lo, hi, stats);
            let touched = n * interval;
            Estimate {
                rows: touched * conj_selectivity(*ty, residual, stats),
                cost: OPERATOR_SETUP_COST + TREE_DESCENT_COST + touched * TREE_WALK_COST,
            }
        }
        Physical::CompositeSeek {
            ty,
            attrs,
            prefix,
            suffix,
            residual,
        } => {
            let n = stats.cardinality(*ty) as f64;
            // Each equality-bound prefix attribute narrows by its own
            // distinct count (independence assumption); a range suffix
            // on the next key attribute narrows further by the range's
            // selectivity. Never below one tuple's worth.
            let prefix_sel: f64 = attrs
                .iter()
                .take(prefix.len())
                .map(|a| stats.selectivity(*ty, *a))
                .product();
            let suffix_sel = match suffix {
                Some(iv) => range_selectivity(*ty, attrs[prefix.len()], &iv.lo, &iv.hi, stats),
                None => 1.0,
            };
            let touched = (n * prefix_sel * suffix_sel).max(1.0_f64.min(n));
            Estimate {
                rows: touched * conj_selectivity(*ty, residual, stats),
                cost: OPERATOR_SETUP_COST + TREE_DESCENT_COST + touched * TREE_WALK_COST,
            }
        }
        Physical::IndexOnlyScan {
            ty,
            key_attrs,
            preds,
            ..
        } => {
            let n = stats.cardinality(*ty) as f64;
            // The executor walks *every* distinct key of the covering
            // index (it does not narrow by the predicates), so the cost
            // must charge the full key walk: the independence-assumption
            // key count, capped by the relation size. Still cheaper than
            // SeqScan + Project (≈ n + rows) because no base tuples are
            // touched and no separate projection pass runs — but a
            // selective Project(IndexRangeSeek) correctly beats it.
            let keys = key_attrs
                .iter()
                .map(|a| stats.distinct_count(*ty, *a).max(1) as f64)
                .product::<f64>()
                .min(n);
            let matched = n * conj_selectivity(*ty, preds, stats);
            Estimate {
                rows: matched,
                cost: OPERATOR_SETUP_COST + TREE_DESCENT_COST + keys,
            }
        }
        Physical::Filter { input, preds } => {
            let e = child(input);
            let ty = input.ty();
            Estimate {
                rows: e.rows * conj_selectivity(ty, preds, stats),
                cost: e.cost + e.rows,
            }
        }
        Physical::Project { input, .. } => {
            let e = child(input);
            Estimate {
                // Projection onto a generalisation can collapse duplicates;
                // without correlation knowledge keep the input estimate.
                rows: e.rows,
                cost: e.cost + e.rows,
            }
        }
        Physical::HashJoin {
            build, probe, keys, ..
        } => {
            let b = child(build);
            let p = child(probe);
            let rows = stats.join_cardinality(build.ty(), b.rows, probe.ty(), p.rows, keys);
            Estimate {
                rows,
                cost: b.cost + p.cost + b.rows + (HASH_PROBE_COST * p.rows + rows),
            }
        }
        Physical::MergeJoin {
            left, right, keys, ..
        } => {
            let l = child(left);
            let r = child(right);
            let rows = stats.join_cardinality(left.ty(), l.rows, right.ty(), r.rows, keys);
            // Both inputs arrive sorted, so the merge touches each input
            // tuple once — no hash build, no per-probe overhead.
            Estimate {
                rows,
                cost: l.cost + r.cost + l.rows + r.rows + rows,
            }
        }
        Physical::Sort { input, .. } => {
            let e = child(input);
            // Comparison sort over the materialised input.
            let n = e.rows.max(2.0);
            Estimate {
                rows: e.rows,
                cost: e.cost + e.rows * n.log2(),
            }
        }
        Physical::Union { left, right, .. } => {
            let l = child(left);
            let r = child(right);
            Estimate {
                rows: l.rows + r.rows,
                cost: l.cost + r.cost + l.rows + r.rows,
            }
        }
        Physical::Intersect { build, probe, .. } => {
            let b = child(build);
            let p = child(probe);
            Estimate {
                rows: b.rows.min(p.rows),
                cost: b.cost + p.cost + b.rows + HASH_PROBE_COST * p.rows,
            }
        }
    }
}

/// Selectivity of an explicit interval, priced by the statistics layer
/// (expressed as the equivalent [`Predicate`]).
fn range_selectivity(
    ty: TypeId,
    attr: AttrId,
    lo: &Option<(Value, bool)>,
    hi: &Option<(Value, bool)>,
    stats: &Statistics,
) -> f64 {
    let pred = match (lo, hi) {
        (Some((l, _)), Some((h, _))) => Predicate::Between(l.clone(), h.clone()),
        (Some((l, true)), None) => Predicate::Ge(l.clone()),
        (Some((l, false)), None) => Predicate::Gt(l.clone()),
        (None, Some((h, true))) => Predicate::Le(h.clone()),
        (None, Some((h, false))) => Predicate::Lt(h.clone()),
        (None, None) => return 1.0,
    };
    stats.pred_selectivity(ty, attr, &pred)
}
