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
use std::time::Instant;

use toposem_core::AttrId;
use toposem_extension::{Database, Instance, Relation, Value};
use toposem_obs::{NodeProfile, PlanProfile};
use toposem_storage::{cmp_by_keys, Index, Predicate, SortDir};

use crate::physical::{Physical, BATCH_SIZE};

/// Execution options for [`execute_ordered_with`]. The executor has a
/// single path, so there is nothing left to choose; the type stays only
/// because the end-to-end benchmark harness (`benchmark/src/layers.rs`)
/// names it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecOptions;

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
/// both through `Engine::with_parts` for consistency).
pub fn execute(plan: &Physical, db: &Database, indexes: &[Vec<Index>]) -> Relation {
    execute_prof(plan, db, indexes, Prof::none())
}

/// [`execute`] recording per-operator actuals (rows, wall time, operator
/// detail) into `profile`, which must be sized to `plan.node_count()`.
/// The result is bit-identical to the unprofiled path: profiling only
/// adds local tallies merged into the shared slots with one atomic add
/// per operator.
pub fn execute_profiled(
    plan: &Physical,
    db: &Database,
    indexes: &[Vec<Index>],
    profile: &PlanProfile,
) -> Relation {
    execute_prof(plan, db, indexes, Prof::root(plan, profile))
}

fn execute_prof(plan: &Physical, db: &Database, indexes: &[Vec<Index>], prof: Prof) -> Relation {
    let mut out = Relation::new();
    for_each_batch(plan, db, indexes, prof, &mut |batch| {
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
    execute_ordered_prof(plan, db, indexes, Prof::none())
}

/// [`execute_ordered`]; the options are ignored. Kept only because the
/// end-to-end benchmark harness (`benchmark/src/layers.rs`) calls it.
pub fn execute_ordered_with(
    plan: &Physical,
    db: &Database,
    indexes: &[Vec<Index>],
    _opts: &ExecOptions,
) -> Vec<Instance> {
    execute_ordered(plan, db, indexes)
}

/// [`execute_ordered`] recording per-operator actuals into `profile`
/// (see [`execute_profiled`]).
pub(crate) fn execute_ordered_profiled(
    plan: &Physical,
    db: &Database,
    indexes: &[Vec<Index>],
    profile: &PlanProfile,
) -> Vec<Instance> {
    execute_ordered_prof(plan, db, indexes, Prof::root(plan, profile))
}

fn execute_ordered_prof(
    plan: &Physical,
    db: &Database,
    indexes: &[Vec<Index>],
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
    for_each_batch(plan, db, indexes, prof, &mut append);
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
    prof: Prof,
    sink: &mut dyn FnMut(&mut Vec<Instance>),
) {
    let Some(node) = prof.node() else {
        return exec_node(plan, db, indexes, prof, sink);
    };
    let t0 = Instant::now();
    let mut rows = 0u64;
    exec_node(plan, db, indexes, prof, &mut |batch| {
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
    prof: Prof,
    sink: &mut dyn FnMut(&mut Vec<Instance>),
) {
    match plan {
        Physical::Empty { .. } => {}
        Physical::SeqScan { ty, preds } => {
            let rel = db.extension_cow(*ty);
            stream_profiled(rel.iter(), preds, prof.node(), sink);
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
            for_each_batch(input, db, indexes, prof.child(plan, 0), &mut |batch| {
                batch.retain(|t| matches(t, preds));
                if !batch.is_empty() {
                    sink(batch);
                }
            });
        }
        Physical::Project { input, to } => {
            let target = db.schema().attrs_of(*to).clone();
            for_each_batch(input, db, indexes, prof.child(plan, 0), &mut |batch| {
                let mut projected: Vec<Instance> =
                    batch.drain(..).map(|t| t.project(&target)).collect();
                sink(&mut projected);
            });
        }
        Physical::HashJoin {
            build, probe, keys, ..
        } => {
            // The natural-join key: shared attributes of the two input
            // types, computed by the planner in id order.
            let key_of = |t: &Instance| -> Vec<Value> {
                keys.iter().filter_map(|a| t.get(*a).cloned()).collect()
            };
            // Materialise the build side into a hash table.
            let mut table: HashMap<Vec<Value>, Vec<Instance>> = HashMap::new();
            for_each_batch(build, db, indexes, prof.child(plan, 0), &mut |batch| {
                for t in batch.drain(..) {
                    table.entry(key_of(&t)).or_default().push(t);
                }
            });
            if let Some(node) = prof.node() {
                // Serial build = one partition holding every build row.
                let build_rows: usize = table.values().map(Vec::len).sum();
                node.note_partitions(1, build_rows as u64);
            }
            // Stream the probe side.
            let mut out = Vec::with_capacity(BATCH_SIZE);
            for_each_batch(probe, db, indexes, prof.child(plan, 1), &mut |batch| {
                for p in batch.drain(..) {
                    if let Some(partners) = table.get(&key_of(&p)) {
                        for b in partners {
                            out.push(b.merge(&p));
                            if out.len() == BATCH_SIZE {
                                sink(&mut out);
                                out.clear();
                            }
                        }
                    }
                }
            });
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
                for_each_batch(side, db, indexes, p, &mut |batch| rows.append(batch));
                rows
            };
            let lrows = collect(left, prof.child(plan, 0));
            let rrows = collect(right, prof.child(plan, 1));
            merge_join_sorted(&lrows, &rrows, keys, sink);
        }
        Physical::Sort { input, keys } => {
            let mut rows: Vec<Instance> = Vec::new();
            for_each_batch(input, db, indexes, prof.child(plan, 0), &mut |batch| {
                rows.append(batch)
            });
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
            for_each_batch(left, db, indexes, prof.child(plan, 0), sink);
            for_each_batch(right, db, indexes, prof.child(plan, 1), sink);
        }
        Physical::Intersect { build, probe, .. } => {
            let mut members = Relation::new();
            for_each_batch(build, db, indexes, prof.child(plan, 0), &mut |batch| {
                for t in batch.drain(..) {
                    members.insert(t);
                }
            });
            for_each_batch(probe, db, indexes, prof.child(plan, 1), &mut |batch| {
                batch.retain(|t| members.contains(t));
                if !batch.is_empty() {
                    sink(batch);
                }
            });
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
