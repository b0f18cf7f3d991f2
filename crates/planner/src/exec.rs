//! The vectorised executor: a push-based batch pipeline over a consistent
//! engine snapshot.
//!
//! Every operator streams [`super::physical::BATCH_SIZE`]-tuple batches
//! into a sink closure; only hash-join build sides, intersection
//! membership sets, sort/merge-join inputs, and the final result relation
//! are materialised. Under the eager containment policy scans borrow the
//! stored relation directly (no extension clone); on-demand extensions are
//! collected once per scan. Index seeks walk hash buckets, BTree ranges,
//! or composite key prefixes; index-only scans rebuild projected tuples
//! from index *keys* without touching base tuples at all.
//!
//! One query runs on one thread. Concurrency comes from sessions: each
//! connection runs its queries against a lock-free committed snapshot.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::time::Instant;

use toposem_core::AttrId;
use toposem_extension::{
    Column, ColumnarMorsel, Database, Instance, Relation, SelectionMask, Value,
};
use toposem_obs::{NodeProfile, PlanProfile};
use toposem_storage::{cmp_by_keys, Index, Predicate, SortDir};
use toposem_topology::BitSet;

use crate::physical::{Physical, BATCH_SIZE};

/// Execution knobs for planned queries.
///
/// [`ExecOptions::default`] resolves once per process from the
/// environment: `TOPOSEM_COLUMNAR=0` (or `false`/`off`) disables the
/// columnar kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecOptions {
    /// Evaluate scans, filters, projections, and hash-join key
    /// extraction through columnar morsel kernels (decoded typed
    /// columns + selection bitmaps) instead of row-at-a-time loops.
    /// Bit-identical either way — this is a performance knob, kept
    /// toggleable so the differential oracle can pin both paths.
    pub columnar: bool,
}

/// Process-wide columnar default: on unless `TOPOSEM_COLUMNAR` is set
/// to `0`, `false`, or `off`.
fn columnar_default() -> bool {
    static COLUMNAR: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *COLUMNAR.get_or_init(|| {
        !matches!(
            std::env::var("TOPOSEM_COLUMNAR").as_deref().map(str::trim),
            Ok("0") | Ok("false") | Ok("off")
        )
    })
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            columnar: columnar_default(),
        }
    }
}

/// A profiling handle threaded through the executor: the shared
/// [`PlanProfile`] plus the pre-order node id of the operator currently
/// being evaluated ([`Prof::none`] disables all recording). `Copy`, two
/// words — passing it costs nothing on the unprofiled path.
#[derive(Clone, Copy)]
pub(crate) struct Prof<'a> {
    inner: Option<(&'a PlanProfile, usize)>,
}

impl<'a> Prof<'a> {
    /// No profiling: every recording site is a `None` check.
    pub(crate) fn none() -> Prof<'a> {
        Prof { inner: None }
    }

    /// Profiling rooted at `plan` (node id 0). `profile` must have been
    /// sized to `plan.node_count()`.
    pub(crate) fn root(plan: &Physical, profile: &'a PlanProfile) -> Prof<'a> {
        debug_assert_eq!(profile.len(), plan.node_count(), "profile sized to plan");
        let _ = plan;
        Prof {
            inner: Some((profile, 0)),
        }
    }

    /// The current operator's slot, when profiling.
    fn node(&self) -> Option<&'a NodeProfile> {
        self.inner.map(|(p, id)| p.node(id))
    }

    /// The handle for `plan`'s `k`-th child: pre-order ids, so the child
    /// starts right after this node plus its earlier siblings' subtrees.
    fn child(&self, plan: &Physical, k: usize) -> Prof<'a> {
        Prof {
            inner: self.inner.map(|(p, id)| {
                let before: usize = plan.children()[..k].iter().map(|c| c.node_count()).sum();
                (p, id + 1 + before)
            }),
        }
    }
}

/// Executes a physical plan against a database + index snapshot (acquire
/// both through `Engine::with_parts` for consistency) under the default
/// [`ExecOptions`].
pub fn execute(plan: &Physical, db: &Database, indexes: &[Vec<Index>]) -> Relation {
    execute_with(plan, db, indexes, &ExecOptions::default())
}

/// [`execute`] with explicit [`ExecOptions`].
pub fn execute_with(
    plan: &Physical,
    db: &Database,
    indexes: &[Vec<Index>],
    opts: &ExecOptions,
) -> Relation {
    execute_prof(plan, db, indexes, opts, Prof::none())
}

/// [`execute_with`] recording per-operator actuals (rows, wall time,
/// operator detail) into `profile`, which must be sized to
/// `plan.node_count()`. The result is bit-identical to the unprofiled
/// path: profiling only adds local tallies merged into the shared slots
/// with one atomic add per operator.
pub fn execute_profiled_with(
    plan: &Physical,
    db: &Database,
    indexes: &[Vec<Index>],
    opts: &ExecOptions,
    profile: &PlanProfile,
) -> Relation {
    execute_prof(plan, db, indexes, opts, Prof::root(plan, profile))
}

fn execute_prof(
    plan: &Physical,
    db: &Database,
    indexes: &[Vec<Index>],
    opts: &ExecOptions,
    prof: Prof,
) -> Relation {
    let mut out = Relation::new();
    for_each_batch(plan, db, indexes, opts, prof, &mut |batch| {
        for t in batch.drain(..) {
            out.insert(t);
        }
    });
    out
}

/// Executes a physical plan and returns the result as an *ordered*
/// sequence: tuples in arrival order, deduplicated (results are sets).
/// The planner guarantees the plan's output order satisfies the query's
/// root `OrderBy` — an order-carrying access path or a `Sort` enforcer —
/// so arrival order *is* the requested order.
pub fn execute_ordered(plan: &Physical, db: &Database, indexes: &[Vec<Index>]) -> Vec<Instance> {
    execute_ordered_with(plan, db, indexes, &ExecOptions::default())
}

/// [`execute_ordered`] with explicit [`ExecOptions`].
pub fn execute_ordered_with(
    plan: &Physical,
    db: &Database,
    indexes: &[Vec<Index>],
    opts: &ExecOptions,
) -> Vec<Instance> {
    execute_ordered_prof(plan, db, indexes, opts, Prof::none())
}

/// [`execute_ordered_with`] recording per-operator actuals into
/// `profile` (see [`execute_profiled_with`]).
pub fn execute_ordered_profiled_with(
    plan: &Physical,
    db: &Database,
    indexes: &[Vec<Index>],
    opts: &ExecOptions,
    profile: &PlanProfile,
) -> Vec<Instance> {
    execute_ordered_prof(plan, db, indexes, opts, Prof::root(plan, profile))
}

fn execute_ordered_prof(
    plan: &Physical,
    db: &Database,
    indexes: &[Vec<Index>],
    opts: &ExecOptions,
    prof: Prof,
) -> Vec<Instance> {
    let mut out: Vec<Instance> = Vec::new();
    // Results are sets; only a plan that can repeat a tuple pays for the
    // membership set that keeps the first occurrence.
    let mut seen: Option<HashSet<Instance>> = (!plan.duplicate_free()).then(HashSet::new);
    let mut append = |batch: &mut Vec<Instance>| match &mut seen {
        None => out.append(batch),
        Some(seen) => {
            for t in batch.drain(..) {
                if seen.insert(t.clone()) {
                    out.push(t);
                }
            }
        }
    };
    for_each_batch(plan, db, indexes, opts, prof, &mut append);
    out
}

/// Whether every index access path in `plan` is still backed by a live
/// index of the snapshot — the mirror of the executor's index lookups.
/// `Engine::drop_index` can remove an index between a cached plan's
/// epoch check and its execution; executing a cached plan is therefore
/// gated on this check (under the same lock acquisition as the
/// execution itself), and a miss falls back to replanning instead of
/// panicking in the executor.
pub fn plan_supported(plan: &Physical, indexes: &[Vec<Index>]) -> bool {
    match plan {
        Physical::Empty { .. } | Physical::SeqScan { .. } => true,
        Physical::IndexSeek { ty, attr, .. } => indexes_of(indexes, *ty).iter().any(|idx| {
            matches!(idx, Index::Hash(h) if h.attr() == *attr)
                || matches!(idx, Index::Ord(o) if o.attr() == *attr)
        }),
        Physical::IndexRangeSeek { ty, attr, .. } => indexes_of(indexes, *ty)
            .iter()
            .any(|idx| matches!(idx, Index::Ord(o) if o.attr() == *attr)),
        Physical::CompositeSeek { ty, attrs, .. } => indexes_of(indexes, *ty)
            .iter()
            .any(|idx| matches!(idx, Index::Composite(c) if c.attrs() == attrs)),
        Physical::IndexOnlyScan {
            ty,
            key_attrs,
            ordered,
            ..
        } => indexes_of(indexes, *ty)
            .iter()
            .any(|idx| idx.attrs() == *key_attrs && (!ordered || !matches!(idx, Index::Hash(_)))),
        Physical::Filter { input, .. }
        | Physical::Project { input, .. }
        | Physical::Sort { input, .. } => plan_supported(input, indexes),
        Physical::HashJoin { build, probe, .. } | Physical::Intersect { build, probe, .. } => {
            plan_supported(build, indexes) && plan_supported(probe, indexes)
        }
        Physical::MergeJoin { left, right, .. } | Physical::Union { left, right, .. } => {
            plan_supported(left, indexes) && plan_supported(right, indexes)
        }
    }
}

fn matches(t: &Instance, preds: &[(AttrId, Predicate)]) -> bool {
    preds
        .iter()
        .all(|(a, p)| t.get(*a).is_some_and(|v| p.matches(v)))
}

/// The type's indexes (planner and executor see the same snapshot, so an
/// operator's index is always present).
fn indexes_of(indexes: &[Vec<Index>], ty: toposem_core::TypeId) -> &[Index] {
    indexes.get(ty.index()).map(Vec::as_slice).unwrap_or(&[])
}

// ---------------------------------------------------------------------
// Columnar kernels.
//
// One decoded column per touched attribute, selection bitmaps per
// predicate, bitmap AND for conjunctions. Every kernel is bit-identical
// to the row-at-a-time evaluation it replaces: a morsel whose rows
// can't all decode an attribute falls back to elementwise evaluation,
// and cross-variant predicate constants resolve through the same total
// `Ord` on `Value` (`Int < Str < Bool`) the row path compares under.
// ---------------------------------------------------------------------

/// Evaluates a predicate conjunction over one columnar morsel: one
/// selection bitmap per predicate, combined by bitmap AND (with an
/// early exit once the mask drains).
fn eval_preds_mask(cm: &ColumnarMorsel, preds: &[(AttrId, Predicate)]) -> SelectionMask {
    let n = cm.len();
    let mut mask = SelectionMask::all(n);
    // Range fusion: a conjunction of predicates over one integer column
    // is the intersection of their inclusive ranges, and every fused
    // interval evaluates in a SINGLE streaming sweep over the rows —
    // the first fetch pays the row's cache miss, the remaining columns
    // read a hot line. `int_range` is exact per predicate, so the fused
    // mask equals the AND of the individual masks bit for bit. Any
    // attribute whose first row is not an integer (or whose shape
    // changes mid-morsel — the sweep aborts) takes the generic
    // per-predicate kernels instead.
    let mut groups: Vec<IntGroup> = Vec::new();
    let mut generic: Vec<usize> = Vec::new();
    let mut done = vec![false; preds.len()];
    let first = cm.rows().first();
    for i in 0..preds.len() {
        if done[i] {
            continue;
        }
        let (attr, _) = preds[i];
        let group: Vec<usize> = (i..preds.len()).filter(|&j| preds[j].0 == attr).collect();
        for &j in &group {
            done[j] = true;
        }
        let pos = first.and_then(|f| {
            f.fields()
                .iter()
                .position(|(a, v)| *a == attr && matches!(v, Value::Int(_)))
        });
        let Some(pos) = pos else {
            generic.extend(&group);
            continue;
        };
        let (mut lo, mut hi) = (i64::MIN, i64::MAX);
        for &j in &group {
            match preds[j].1.int_range() {
                Some((l, h)) => {
                    lo = lo.max(l);
                    hi = hi.min(h);
                }
                // Matches no integer: an unsatisfiable interval keeps
                // the sweep verifying the column's shape.
                None => (lo, hi) = (1, 0),
            }
        }
        groups.push(IntGroup { attr, pos, lo, hi });
    }
    if !groups.is_empty() {
        match int_groups_mask(cm, &groups) {
            Some(pm) => mask.and_with(&pm),
            // Shape changed mid-morsel: evaluate the fused predicates
            // through the generic kernels after all.
            None => generic = (0..preds.len()).collect(),
        }
    }
    for j in generic {
        if !mask.any() {
            break;
        }
        mask.and_with(&pred_mask(cm, preds[j].0, &preds[j].1));
    }
    mask
}

/// One per-attribute conjunction of integer ranges, pre-fused to a
/// single inclusive interval (`lo > hi` means "matches nothing").
struct IntGroup {
    attr: AttrId,
    /// Positional hint: the attribute's field index in the morsel's
    /// first row (verified per row, with a full lookup fallback).
    pos: usize,
    lo: i64,
    hi: i64,
}

/// Evaluates every fused integer interval in ONE streaming sweep —
/// no column materialisation, one scattered row access for all groups
/// together. Returns `None` when any row fails to decode some group's
/// attribute as an `Int`; the caller falls back to the generic
/// per-predicate kernels, which agree bit for bit.
fn int_groups_mask(cm: &ColumnarMorsel, groups: &[IntGroup]) -> Option<SelectionMask> {
    let rows = cm.rows();
    SelectionMask::try_from_fn(rows.len(), |k| {
        let row = rows[k];
        let mut keep = true;
        for g in groups {
            let v = match row.fields().get(g.pos) {
                Some((a, v)) if *a == g.attr => v,
                _ => row.get(g.attr)?,
            };
            let Value::Int(v) = v else {
                return None;
            };
            keep &= (*v >= g.lo) & (*v <= g.hi);
        }
        Some(keep)
    })
}

/// One predicate's selection bitmap over one decoded column. The inner
/// loops are branch-light: the integer kernel compares against the
/// pre-resolved inclusive range from [`Predicate::int_range`], string
/// and boolean kernels against pre-resolved same-variant bounds.
fn pred_mask(cm: &ColumnarMorsel, attr: AttrId, pred: &Predicate) -> SelectionMask {
    let n = cm.len();
    match cm.column(attr) {
        // Some row lacks the attribute: evaluate elementwise (rows
        // missing it are rejected, exactly as `matches` does).
        None => SelectionMask::from_fn(n, |i| {
            cm.rows()[i].get(attr).is_some_and(|v| pred.matches(v))
        }),
        Some(col) => match &*col {
            Column::Int(vals) => match pred.int_range() {
                None => SelectionMask::none(n),
                Some((lo, hi)) => SelectionMask::from_fn(n, |i| {
                    let v = vals[i];
                    (v >= lo) & (v <= hi)
                }),
            },
            Column::Str(vals) => str_mask(vals, pred),
            Column::Bool(vals) => bool_mask(vals, pred),
            Column::Mixed(vals) => SelectionMask::from_fn(n, |i| pred.matches(vals[i])),
        },
    }
}

/// Bitmap kernel over an all-string column. Bounds of other variants
/// resolve through `Int < Str < Bool`: an `Int` bound is below every
/// string, a `Bool` bound above — either the whole column qualifies on
/// that side or none of it does.
fn str_mask(vals: &[&str], pred: &Predicate) -> SelectionMask {
    let (plo, phi) = pred.bounds();
    let lo: Result<Option<(&str, bool)>, ()> = match plo {
        None => Ok(None),
        Some((Value::Str(s), inc)) => Ok(Some((s.as_str(), inc))),
        Some((Value::Int(_), _)) => Ok(None), // every string exceeds it
        Some((Value::Bool(_), _)) => Err(()), // no string reaches it
    };
    let hi: Result<Option<(&str, bool)>, ()> = match phi {
        None => Ok(None),
        Some((Value::Str(s), inc)) => Ok(Some((s.as_str(), inc))),
        Some((Value::Int(_), _)) => Err(()), // no string is below it
        Some((Value::Bool(_), _)) => Ok(None), // every string is below it
    };
    let (Ok(lo), Ok(hi)) = (lo, hi) else {
        return SelectionMask::none(vals.len());
    };
    SelectionMask::from_fn(vals.len(), |i| {
        let v = vals[i];
        let in_lo = lo.is_none_or(|(b, inc)| if inc { v >= b } else { v > b });
        let in_hi = hi.is_none_or(|(b, inc)| if inc { v <= b } else { v < b });
        in_lo & in_hi
    })
}

/// Bitmap kernel over an all-boolean column (`Int`/`Str` bounds sort
/// below every boolean).
fn bool_mask(vals: &[bool], pred: &Predicate) -> SelectionMask {
    let (plo, phi) = pred.bounds();
    let lo: Option<(bool, bool)> = match plo {
        None => None,
        Some((Value::Bool(b), inc)) => Some((*b, inc)),
        Some(_) => None, // every boolean exceeds an Int/Str bound
    };
    let hi: Result<Option<(bool, bool)>, ()> = match phi {
        None => Ok(None),
        Some((Value::Bool(b), inc)) => Ok(Some((*b, inc))),
        Some(_) => Err(()), // no boolean is below an Int/Str bound
    };
    let Ok(hi) = hi else {
        return SelectionMask::none(vals.len());
    };
    SelectionMask::from_fn(vals.len(), |i| {
        let v = vals[i];
        let in_lo = lo.is_none_or(|(b, inc)| if inc { v >= b } else { v & !b });
        let in_hi = hi.is_none_or(|(b, inc)| if inc { v <= b } else { !v & b });
        in_lo & in_hi
    })
}

/// An owned [`Value`] rebuilt from one column slot.
fn owned_value(col: &Column, i: usize) -> Value {
    match col {
        Column::Int(v) => Value::Int(v[i]),
        Column::Str(v) => Value::Str(v[i].to_owned()),
        Column::Bool(v) => Value::Bool(v[i]),
        Column::Mixed(v) => v[i].clone(),
    }
}

/// Projects a batch by column slicing: decode each kept column once and
/// reassemble instances from the slices. Requires a shape-homogeneous
/// batch with every kept column decodable — anything else falls back to
/// tuple-wise [`Instance::project`], which is the semantics either way.
fn project_rows_columnar(rows: &[&Instance], target: &BitSet) -> Vec<Instance> {
    let cm = ColumnarMorsel::new(rows);
    if cm.homogeneous() {
        let Some(first) = rows.first() else {
            return Vec::new();
        };
        let keep: Vec<AttrId> = first
            .fields()
            .iter()
            .map(|(a, _)| *a)
            .filter(|a| target.contains(a.index()))
            .collect();
        if let Some(cols) = cm
            .columns(&keep)
            .into_iter()
            .collect::<Option<Vec<Rc<Column>>>>()
        {
            return (0..rows.len())
                .map(|i| {
                    Instance::from_parts(
                        keep.iter()
                            .zip(&cols)
                            .map(|(a, c)| (*a, owned_value(c, i)))
                            .collect(),
                    )
                })
                .collect();
        }
    }
    rows.iter().map(|t| t.project(target)).collect()
}

/// Filters a materialised batch in place through the columnar kernels,
/// preserving order — the columnar counterpart of
/// `batch.retain(|t| matches(t, preds))`.
fn filter_batch_columnar(batch: &mut Vec<Instance>, preds: &[(AttrId, Predicate)]) {
    let mask = {
        let refs: Vec<&Instance> = batch.iter().collect();
        let cm = ColumnarMorsel::new(&refs);
        eval_preds_mask(&cm, preds)
    };
    let mut i = 0;
    batch.retain(|_| {
        let keep = mask.get(i);
        i += 1;
        keep
    });
}

/// Field-position hints for the join key attributes, read off a batch's
/// first row. Homogeneous batches then extract keys by direct indexing
/// instead of the per-attribute scan `key_of` pays on the row path;
/// every hint is verified per row with a full lookup fallback.
fn key_hints(rows: &[Instance], keys: &[AttrId]) -> Vec<Option<usize>> {
    let first = rows.first();
    keys.iter()
        .map(|k| first.and_then(|f| f.fields().iter().position(|(a, _)| a == k)))
        .collect()
}

/// The hash-join key of one row via [`key_hints`]. Missing attributes
/// are skipped exactly like the row path's `key_of`.
fn key_with_hints(t: &Instance, keys: &[AttrId], hints: &[Option<usize>]) -> Vec<Value> {
    keys.iter()
        .zip(hints)
        .filter_map(|(a, hint)| match hint.and_then(|p| t.fields().get(p)) {
            Some((fa, v)) if fa == a => Some(v.clone()),
            _ => t.get(*a).cloned(),
        })
        .collect()
}

/// The columnar scan: decodes each morsel's predicate columns
/// once, evaluates the conjunction as bitmap ANDs, and emits selected
/// rows in morsel order — the morsel concatenation is canonical
/// iteration order, so output order and content are bit-identical to
/// [`stream_filtered`] over the same relation.
fn scan_columnar(
    rel: &Relation,
    preds: &[(AttrId, Predicate)],
    node: Option<&NodeProfile>,
    sink: &mut dyn FnMut(&mut Vec<Instance>),
) {
    let mut walked = 0u64;
    let mut batches = 0u64;
    for morsel in rel.morsels(BATCH_SIZE) {
        walked += morsel.len() as u64;
        batches += 1;
        let cm = ColumnarMorsel::new(&morsel);
        let mask = eval_preds_mask(&cm, preds);
        if !mask.any() {
            continue;
        }
        let mut batch: Vec<Instance> = mask.iter_ones().map(|i| morsel[i].clone()).collect();
        sink(&mut batch);
    }
    if let Some(node) = node {
        node.add_rows_in(walked);
        node.add_vec_batches(batches);
    }
}

/// Streams `iter` into `sink` in batches, applying the residual filter.
fn stream_filtered<'a>(
    iter: impl Iterator<Item = &'a Instance>,
    residual: &[(AttrId, Predicate)],
    sink: &mut dyn FnMut(&mut Vec<Instance>),
) {
    let mut batch = Vec::with_capacity(BATCH_SIZE);
    for t in iter {
        if matches(t, residual) {
            batch.push(t.clone());
            if batch.len() == BATCH_SIZE {
                sink(&mut batch);
                batch.clear();
            }
        }
    }
    if !batch.is_empty() {
        sink(&mut batch);
    }
}

/// [`stream_filtered`], additionally counting the tuples *walked*
/// (before the residual filter) into the node's `rows_in` when
/// profiling — a plain local counter, one atomic add at the end.
fn stream_profiled<'a>(
    iter: impl Iterator<Item = &'a Instance>,
    residual: &[(AttrId, Predicate)],
    node: Option<&NodeProfile>,
    sink: &mut dyn FnMut(&mut Vec<Instance>),
) {
    match node {
        None => stream_filtered(iter, residual, sink),
        Some(node) => {
            let mut walked = 0u64;
            stream_filtered(iter.inspect(|_| walked += 1), residual, sink);
            node.add_rows_in(walked);
        }
    }
}

/// Runs `sink` over every output batch of `plan`. Batches arrive as owned
/// vectors the sink may drain. When profiling, records this node's call,
/// output rows, and inclusive wall time (children execute inside their
/// parent's pipeline, so each node's wall time covers its subtree).
fn for_each_batch(
    plan: &Physical,
    db: &Database,
    indexes: &[Vec<Index>],
    opts: &ExecOptions,
    prof: Prof,
    sink: &mut dyn FnMut(&mut Vec<Instance>),
) {
    let Some(node) = prof.node() else {
        return exec_node(plan, db, indexes, opts, prof, sink);
    };
    let t0 = Instant::now();
    let mut rows = 0u64;
    exec_node(plan, db, indexes, opts, prof, &mut |batch| {
        rows += batch.len() as u64;
        sink(batch);
    });
    node.add_call();
    node.add_rows(rows);
    node.add_wall_ns(t0.elapsed().as_nanos() as u64);
}

/// The operator dispatch behind [`for_each_batch`].
fn exec_node(
    plan: &Physical,
    db: &Database,
    indexes: &[Vec<Index>],
    opts: &ExecOptions,
    prof: Prof,
    sink: &mut dyn FnMut(&mut Vec<Instance>),
) {
    match plan {
        Physical::Empty { .. } => {}
        Physical::SeqScan { ty, preds } => {
            let rel = db.extension_cow(*ty);
            // A predicate-free scan has nothing to vectorise — row
            // streaming avoids the per-morsel mask machinery.
            if opts.columnar && !preds.is_empty() {
                scan_columnar(&rel, preds, prof.node(), sink);
            } else {
                stream_profiled(rel.iter(), preds, prof.node(), sink);
            }
        }
        Physical::IndexSeek {
            ty,
            attr,
            value,
            residual,
        } => {
            let hit = indexes_of(indexes, *ty)
                .iter()
                .find_map(|idx| idx.lookup(*attr, value))
                .expect("planner chose IndexSeek only when a point index exists");
            stream_profiled(hit.iter(), residual, prof.node(), sink);
        }
        Physical::IndexRangeSeek {
            ty,
            attr,
            lo,
            hi,
            residual,
        } => {
            let ord = indexes_of(indexes, *ty)
                .iter()
                .find_map(|idx| idx.as_ord().filter(|o| o.attr() == *attr))
                .expect("planner chose IndexRangeSeek only when an ordered index exists");
            let lo = lo.as_ref().map(|(v, inc)| (v, *inc));
            let hi = hi.as_ref().map(|(v, inc)| (v, *inc));
            stream_profiled(ord.range(lo, hi), residual, prof.node(), sink);
        }
        Physical::CompositeSeek {
            ty,
            attrs,
            prefix,
            suffix,
            residual,
        } => {
            let comp = indexes_of(indexes, *ty)
                .iter()
                .find_map(|idx| idx.as_composite().filter(|c| c.attrs() == attrs))
                .expect("planner chose CompositeSeek only when the composite index exists");
            match suffix {
                Some(iv) => {
                    let lo = iv.lo.as_ref().map(|(v, inc)| (v, *inc));
                    let hi = iv.hi.as_ref().map(|(v, inc)| (v, *inc));
                    stream_profiled(
                        comp.lookup_prefix_range(prefix, lo, hi),
                        residual,
                        prof.node(),
                        sink,
                    );
                }
                None => stream_profiled(comp.lookup_prefix(prefix), residual, prof.node(), sink),
            }
        }
        Physical::IndexOnlyScan {
            ty,
            to,
            key_attrs,
            ordered,
            preds,
        } => {
            // An ordered plan must walk an ordered structure — a hash
            // index on the same attribute would return keys unsorted.
            let idx = indexes_of(indexes, *ty)
                .iter()
                .find(|idx| {
                    idx.attrs() == *key_attrs && (!ordered || !matches!(idx, Index::Hash(_)))
                })
                .expect("planner chose IndexOnlyScan only when the covering index exists");
            let target = db.schema().attrs_of(*to);
            let mut batch = Vec::with_capacity(BATCH_SIZE);
            // Keys touched, counted locally; merged into `rows_in` once.
            let walked = std::cell::Cell::new(0u64);
            let emit = |key: &[&Value], batch: &mut Vec<Instance>| {
                walked.set(walked.get() + 1);
                let bound: Vec<(AttrId, &Value)> =
                    key_attrs.iter().copied().zip(key.iter().copied()).collect();
                if !preds.iter().all(|(a, p)| {
                    bound
                        .iter()
                        .find(|(b, _)| b == a)
                        .is_some_and(|(_, v)| p.matches(v))
                }) {
                    return;
                }
                let fields: Vec<(AttrId, Value)> = bound
                    .iter()
                    .filter(|(a, _)| target.contains(a.index()))
                    .map(|(a, v)| (*a, (*v).clone()))
                    .collect();
                batch.push(Instance::from_parts(fields));
            };
            match idx {
                Index::Hash(h) => {
                    for k in h.keys() {
                        emit(&[k], &mut batch);
                        if batch.len() >= BATCH_SIZE {
                            sink(&mut batch);
                            batch.clear();
                        }
                    }
                }
                Index::Ord(o) => {
                    for k in o.keys() {
                        emit(&[k], &mut batch);
                        if batch.len() >= BATCH_SIZE {
                            sink(&mut batch);
                            batch.clear();
                        }
                    }
                }
                Index::Composite(c) => {
                    for key in c.keys() {
                        let refs: Vec<&Value> = key.iter().collect();
                        emit(&refs, &mut batch);
                        if batch.len() >= BATCH_SIZE {
                            sink(&mut batch);
                            batch.clear();
                        }
                    }
                }
            }
            if !batch.is_empty() {
                sink(&mut batch);
            }
            if let Some(node) = prof.node() {
                node.add_rows_in(walked.get());
            }
        }
        Physical::Filter { input, preds } => {
            let columnar = opts.columnar;
            for_each_batch(
                input,
                db,
                indexes,
                opts,
                prof.child(plan, 0),
                &mut |batch| {
                    if columnar {
                        filter_batch_columnar(batch, preds);
                    } else {
                        batch.retain(|t| matches(t, preds));
                    }
                    if !batch.is_empty() {
                        sink(batch);
                    }
                },
            );
        }
        Physical::Project { input, to } => {
            let target = db.schema().attrs_of(*to).clone();
            let columnar = opts.columnar;
            for_each_batch(
                input,
                db,
                indexes,
                opts,
                prof.child(plan, 0),
                &mut |batch| {
                    let mut projected: Vec<Instance> = if columnar {
                        let refs: Vec<&Instance> = batch.iter().collect();
                        let out = project_rows_columnar(&refs, &target);
                        batch.clear();
                        out
                    } else {
                        batch.drain(..).map(|t| t.project(&target)).collect()
                    };
                    sink(&mut projected);
                },
            );
        }
        Physical::HashJoin {
            build, probe, keys, ..
        } => {
            // The natural-join key: shared attributes of the two input
            // types, computed by the planner in id order.
            let key_of = |t: &Instance| -> Vec<Value> {
                keys.iter().filter_map(|a| t.get(*a).cloned()).collect()
            };
            let columnar = opts.columnar;
            // Materialise the build side into a hash table, extracting
            // key columns batch-at-a-time on the columnar path.
            let mut table: HashMap<Vec<Value>, Vec<Instance>> = HashMap::new();
            for_each_batch(
                build,
                db,
                indexes,
                opts,
                prof.child(plan, 0),
                &mut |batch| {
                    let hints = columnar.then(|| key_hints(batch, keys));
                    for t in batch.drain(..) {
                        let key = match &hints {
                            Some(h) => key_with_hints(&t, keys, h),
                            None => key_of(&t),
                        };
                        table.entry(key).or_default().push(t);
                    }
                },
            );
            if let Some(node) = prof.node() {
                // Serial build = one partition holding every build row.
                let build_rows: usize = table.values().map(Vec::len).sum();
                node.note_partitions(1, build_rows as u64);
            }
            // Stream the probe side.
            let mut out = Vec::with_capacity(BATCH_SIZE);
            for_each_batch(
                probe,
                db,
                indexes,
                opts,
                prof.child(plan, 1),
                &mut |batch| {
                    let hints = columnar.then(|| key_hints(batch, keys));
                    for p in batch.drain(..) {
                        let partners = match &hints {
                            Some(h) => table.get(&key_with_hints(&p, keys, h)),
                            None => table.get(&key_of(&p)),
                        };
                        if let Some(partners) = partners {
                            for b in partners {
                                out.push(b.merge(&p));
                                if out.len() == BATCH_SIZE {
                                    sink(&mut out);
                                    out.clear();
                                }
                            }
                        }
                    }
                },
            );
            if !out.is_empty() {
                sink(&mut out);
            }
        }
        Physical::MergeJoin {
            left, right, keys, ..
        } => {
            // Both inputs arrive sorted on `keys` (an order-carrying
            // access path, an order-preserving pipeline, or an explicit
            // Sort enforcer below). Materialise each side and match
            // equal-key groups pairwise.
            let collect = |side: &Physical, p: Prof| {
                let mut rows: Vec<Instance> = Vec::new();
                for_each_batch(side, db, indexes, opts, p, &mut |batch| rows.append(batch));
                rows
            };
            let lrows = collect(left, prof.child(plan, 0));
            let rrows = collect(right, prof.child(plan, 1));
            merge_join_sorted(&lrows, &rrows, keys, sink);
        }
        Physical::Sort { input, keys } => {
            let mut rows: Vec<Instance> = Vec::new();
            for_each_batch(
                input,
                db,
                indexes,
                opts,
                prof.child(plan, 0),
                &mut |batch| rows.append(batch),
            );
            // Stable, so an input order on a longer key list survives as
            // the tie-break.
            rows.sort_by(|a, b| cmp_by_keys(a, b, keys));
            let mut iter = rows.into_iter();
            loop {
                let mut batch: Vec<Instance> = iter.by_ref().take(BATCH_SIZE).collect();
                if batch.is_empty() {
                    break;
                }
                sink(&mut batch);
            }
        }
        Physical::Union { left, right, .. } => {
            // Bag semantics here; the collecting sink deduplicates.
            for_each_batch(left, db, indexes, opts, prof.child(plan, 0), sink);
            for_each_batch(right, db, indexes, opts, prof.child(plan, 1), sink);
        }
        Physical::Intersect { build, probe, .. } => {
            let mut members = Relation::new();
            for_each_batch(
                build,
                db,
                indexes,
                opts,
                prof.child(plan, 0),
                &mut |batch| {
                    for t in batch.drain(..) {
                        members.insert(t);
                    }
                },
            );
            for_each_batch(
                probe,
                db,
                indexes,
                opts,
                prof.child(plan, 1),
                &mut |batch| {
                    batch.retain(|t| members.contains(t));
                    if !batch.is_empty() {
                        sink(batch);
                    }
                },
            );
        }
    }
}

/// The merge-join loop: both inputs arrive sorted ascending on `keys`;
/// equal-key groups are matched pairwise and streamed into `sink`
/// batch-wise.
fn merge_join_sorted(
    lrows: &[Instance],
    rrows: &[Instance],
    keys: &[AttrId],
    sink: &mut dyn FnMut(&mut Vec<Instance>),
) {
    let sorted_keys: Vec<(AttrId, SortDir)> = keys.iter().map(|a| (*a, SortDir::Asc)).collect();
    debug_assert!(
        lrows
            .windows(2)
            .chain(rrows.windows(2))
            .all(|w| cmp_by_keys(&w[0], &w[1], &sorted_keys) != std::cmp::Ordering::Greater),
        "merge-join input not sorted on its keys"
    );
    let group_end = |rows: &[Instance], start: usize| {
        let mut end = start + 1;
        while end < rows.len()
            && cmp_by_keys(&rows[start], &rows[end], &sorted_keys) == std::cmp::Ordering::Equal
        {
            end += 1;
        }
        end
    };
    let mut out = Vec::with_capacity(BATCH_SIZE);
    let (mut i, mut j) = (0, 0);
    while i < lrows.len() && j < rrows.len() {
        match cmp_by_keys(&lrows[i], &rrows[j], &sorted_keys) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let (i2, j2) = (group_end(lrows, i), group_end(rrows, j));
                for l in &lrows[i..i2] {
                    for r in &rrows[j..j2] {
                        out.push(l.merge(r));
                        if out.len() == BATCH_SIZE {
                            sink(&mut out);
                            out.clear();
                        }
                    }
                }
                i = i2;
                j = j2;
            }
        }
    }
    if !out.is_empty() {
        sink(&mut out);
    }
}

#[cfg(test)]
mod tests {
    //! Differential tests for the columnar kernels: every kernel is
    //! checked bit-for-bit against the row-at-a-time evaluation it
    //! replaces, across morsel sizes that straddle the bitmap word
    //! boundary (empty, single-tuple, 63/64/65, multi-word) and every
    //! predicate class — including cross-variant constants, which must
    //! resolve through the same `Int < Str < Bool` total order the row
    //! path compares under.

    use super::*;

    const NAME: AttrId = AttrId(0); // always Str
    const AGE: AttrId = AttrId(1); // always Int (negatives included)
    const FLAG: AttrId = AttrId(2); // always Bool
    const MIXED: AttrId = AttrId(3); // alternates Int / Str
    const SPARSE: AttrId = AttrId(4); // missing on every third row

    /// Deterministic rows exercising all four column shapes plus a
    /// partially-missing attribute.
    fn make_rows(n: usize) -> Vec<Instance> {
        (0..n)
            .map(|i| {
                let mut fields = vec![
                    (NAME, Value::str(&format!("w{:03}", (i * 37) % 100))),
                    (AGE, Value::Int((i as i64 * 13) % 50 - 10)),
                    (FLAG, Value::Bool(i % 3 == 0)),
                    (
                        MIXED,
                        if i % 2 == 0 {
                            Value::Int(i as i64)
                        } else {
                            Value::str(&format!("m{i}"))
                        },
                    ),
                ];
                if i % 3 != 1 {
                    fields.push((SPARSE, Value::Int(i as i64 % 7)));
                }
                Instance::from_parts(fields)
            })
            .collect()
    }

    /// Every predicate class, with constants of every variant — the
    /// cross-variant ones hit the kernel branches that resolve bounds
    /// through the `Value` total order.
    fn preds() -> Vec<Predicate> {
        use Predicate::*;
        vec![
            Eq(Value::Int(13)),
            Lt(Value::Int(7)),
            Le(Value::Int(7)),
            Gt(Value::Int(30)),
            Ge(Value::Int(30)),
            Between(Value::Int(-5), Value::Int(12)),
            Between(Value::Int(12), Value::Int(-5)), // inverted: empty
            Eq(Value::str("w037")),
            Lt(Value::str("w050")),
            Le(Value::str("w050")),
            Gt(Value::str("w050")),
            Ge(Value::str("w050")),
            Between(Value::str("w010"), Value::str("w060")),
            Eq(Value::Bool(true)),
            Eq(Value::Bool(false)),
            Lt(Value::Bool(true)),
            Ge(Value::Bool(false)),
            Between(Value::Int(0), Value::str("w999")), // Int lo, Str hi
            Between(Value::str("a"), Value::Bool(true)), // Str lo, Bool hi
            Between(Value::Int(i64::MIN), Value::Bool(true)), // everything
        ]
    }

    /// The row-path semantics every mask kernel must reproduce: rows
    /// missing the attribute are rejected.
    fn ref_ones(rows: &[&Instance], attr: AttrId, pred: &Predicate) -> Vec<usize> {
        rows.iter()
            .enumerate()
            .filter(|(_, t)| t.get(attr).is_some_and(|v| pred.matches(v)))
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn fixture_rows_exercise_every_column_shape() {
        let owned = make_rows(65);
        let refs: Vec<&Instance> = owned.iter().collect();
        let cm = ColumnarMorsel::new(&refs);
        assert!(matches!(&*cm.column(NAME).unwrap(), Column::Str(_)));
        assert!(matches!(&*cm.column(AGE).unwrap(), Column::Int(_)));
        assert!(matches!(&*cm.column(FLAG).unwrap(), Column::Bool(_)));
        assert!(matches!(&*cm.column(MIXED).unwrap(), Column::Mixed(_)));
        assert!(cm.column(SPARSE).is_none(), "sparse attr must not decode");
    }

    #[test]
    fn pred_masks_match_rowwise_evaluation_for_every_class_and_shape() {
        for n in [0usize, 1, 63, 64, 65, 200] {
            let owned = make_rows(n);
            let refs: Vec<&Instance> = owned.iter().collect();
            let cm = ColumnarMorsel::new(&refs);
            for attr in [NAME, AGE, FLAG, MIXED, SPARSE] {
                for pred in preds() {
                    let mask = pred_mask(&cm, attr, &pred);
                    let expect = ref_ones(&refs, attr, &pred);
                    assert_eq!(
                        mask.iter_ones().collect::<Vec<_>>(),
                        expect,
                        "n={n} attr={attr:?} pred={pred:?}"
                    );
                    assert_eq!(mask.count_ones(), expect.len());
                    assert_eq!(mask.any(), !expect.is_empty());
                }
            }
        }
    }

    #[test]
    fn conjunction_bitmaps_match_rowwise_matches() {
        use Predicate::*;
        let pred_sets: Vec<Vec<(AttrId, Predicate)>> = vec![
            vec![],
            vec![(AGE, Ge(Value::Int(0))), (NAME, Lt(Value::str("w080")))],
            // First predicate drains the mask: the early exit must not
            // change the (empty) result.
            vec![(AGE, Lt(Value::Int(-100))), (FLAG, Eq(Value::Bool(true)))],
            vec![
                (FLAG, Eq(Value::Bool(true))),
                (AGE, Between(Value::Int(0), Value::Int(20))),
                (SPARSE, Ge(Value::Int(2))),
                (MIXED, Le(Value::str("zzz"))),
            ],
            // Same-attribute ranges: the fused interval must equal the
            // AND of the individual masks.
            vec![
                (AGE, Ge(Value::Int(0))),
                (AGE, Le(Value::Int(10))),
                (AGE, Between(Value::Int(2), Value::Int(30))),
            ],
            // Contradictory ranges on one column: fuses to empty.
            vec![(AGE, Lt(Value::Int(5))), (AGE, Gt(Value::Int(10)))],
            // A cross-variant Eq that matches no integer (int_range
            // None) mixed into a same-column group.
            vec![(AGE, Ge(Value::Int(0))), (AGE, Eq(Value::str("x")))],
        ];
        for n in [0usize, 1, 64, 200] {
            let owned = make_rows(n);
            let refs: Vec<&Instance> = owned.iter().collect();
            let cm = ColumnarMorsel::new(&refs);
            for ps in &pred_sets {
                let mask = eval_preds_mask(&cm, ps);
                let expect: Vec<usize> = refs
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| matches(t, ps))
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(
                    mask.iter_ones().collect::<Vec<_>>(),
                    expect,
                    "n={n} preds={ps:?}"
                );
            }
        }
    }

    #[test]
    fn filter_batch_columnar_equals_order_preserving_retain() {
        use Predicate::*;
        let ps = vec![(AGE, Ge(Value::Int(0))), (FLAG, Eq(Value::Bool(true)))];
        for n in [0usize, 1, 64, 200] {
            let mut batch = make_rows(n);
            let mut expect = batch.clone();
            expect.retain(|t| matches(t, &ps));
            filter_batch_columnar(&mut batch, &ps);
            assert_eq!(batch, expect, "n={n}");
        }
    }

    #[test]
    fn projection_by_column_slicing_matches_tuple_wise_project() {
        let universe = 8;
        let targets = [
            BitSet::from_indices(universe, [NAME.index(), AGE.index()]),
            BitSet::from_indices(universe, [AGE.index(), SPARSE.index()]),
            BitSet::from_indices(universe, [MIXED.index()]),
            BitSet::empty(universe),
        ];
        // Homogeneous rows (no sparse attr) take the column-sliced path;
        // make_rows' shape-varying batches fall back — both must equal
        // tuple-wise projection.
        let homogeneous: Vec<Instance> = make_rows(100)
            .into_iter()
            .map(|t| t.project(&BitSet::from_indices(universe, [0, 1, 2, 3])))
            .collect();
        for owned in [make_rows(0), make_rows(1), make_rows(100), homogeneous] {
            let refs: Vec<&Instance> = owned.iter().collect();
            for target in &targets {
                let got = project_rows_columnar(&refs, target);
                let expect: Vec<Instance> = refs.iter().map(|t| t.project(target)).collect();
                assert_eq!(got, expect, "target={target:?}");
            }
        }
    }

    #[test]
    fn join_key_hints_match_tuple_wise_extraction() {
        for keys in [
            vec![AGE, NAME],         // both hinted positions hold
            vec![AGE, SPARSE, NAME], // sparse misses: lookup fallback
            vec![MIXED],             // mixed variants still extract
            Vec::new(),
        ] {
            for n in [0usize, 1, 64, 200] {
                let rows = make_rows(n);
                let hints = key_hints(&rows, &keys);
                let got: Vec<Vec<Value>> = rows
                    .iter()
                    .map(|t| key_with_hints(t, &keys, &hints))
                    .collect();
                let expect: Vec<Vec<Value>> = rows
                    .iter()
                    .map(|t| keys.iter().filter_map(|a| t.get(*a).cloned()).collect())
                    .collect();
                assert_eq!(got, expect, "keys={keys:?} n={n}");
            }
        }
    }

    #[test]
    fn scan_columnar_serial_matches_row_streaming() {
        use Predicate::*;
        let mut rel = Relation::new();
        for t in make_rows(200) {
            rel.insert(t);
        }
        let ps = vec![
            (AGE, Between(Value::Int(0), Value::Int(20))),
            (FLAG, Eq(Value::Bool(true))),
        ];
        let mut columnar = Vec::new();
        scan_columnar(&rel, &ps, None, &mut |batch| columnar.append(batch));
        let mut rowwise = Vec::new();
        stream_filtered(rel.iter(), &ps, &mut |batch| rowwise.append(batch));
        assert!(!columnar.is_empty(), "fixture must select something");
        assert_eq!(columnar, rowwise, "order and content must be identical");
    }
}
