//! The vectorised executor: a push-based batch pipeline over a consistent
//! engine snapshot.
//!
//! Every operator streams batches of up to [`super::physical::BATCH_SIZE`]
//! rows into a sink closure (a sort passes its sorted run on whole, and a
//! batch grows only as far as the rows it holds); only hash-join build
//! sides, intersection membership sets, sort/merge-join inputs, and the
//! final result relation are materialised. A join emits each result row
//! as the (build, probe) pair of stored rows it joins ([`Row::Pair`]):
//! the pair determines the natural-join tuple, so operators above read it
//! through the merged view, and it is merged into one [`Instance`] only
//! where a whole tuple is needed — a set sink, the dedup set of a plan
//! that can repeat rows, an intersection's membership test, or the input
//! of another join. Under the eager containment policy scans borrow the
//! stored relation directly (no extension clone); on-demand extensions
//! are collected once per scan. Index seeks walk hash buckets, BTree
//! ranges, or composite key prefixes; index-only scans rebuild projected
//! tuples from index *keys* without touching base tuples at all.
//!
//! One query runs on one thread. Concurrency comes from sessions: each
//! connection runs its queries against a lock-free committed snapshot.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher};
use std::time::Instant;

use toposem_core::AttrId;
use toposem_extension::{Database, Instance, Relation, Row, Value};
use toposem_obs::{NodeProfile, PlanProfile};
use toposem_storage::{cmp_by_keys, cmp_key, Index, Predicate, SortDir};

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
        for row in batch.drain(..) {
            out.insert(row.into_instance());
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
    execute_rows_prof(plan, db, indexes, Prof::none())
        .into_iter()
        .map(Row::into_instance)
        .collect()
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
/// (see [`execute_profiled`]), with joined rows left as pairs.
pub(crate) fn execute_rows_profiled(
    plan: &Physical,
    db: &Database,
    indexes: &[Vec<Index>],
    profile: &PlanProfile,
) -> Vec<Row> {
    execute_rows_prof(plan, db, indexes, Prof::root(plan, profile))
}

fn execute_rows_prof(
    plan: &Physical,
    db: &Database,
    indexes: &[Vec<Index>],
    prof: Prof,
) -> Vec<Row> {
    let mut out: Vec<Row> = Vec::new();
    // Results are sets; only a plan that can repeat a tuple pays for the
    // membership set that keeps the first occurrence.
    let mut seen: Option<HashSet<Instance>> = (!plan.duplicate_free()).then(HashSet::new);
    let mut append = |batch: &mut Vec<Row>| match &mut seen {
        None => take_batch(&mut out, batch),
        Some(seen) => {
            for mut row in batch.drain(..) {
                if seen.insert(row.materialise().clone()) {
                    out.push(row);
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

/// Whether the row whose attributes `get` reads satisfies every
/// predicate.
fn matches<'v>(get: impl Fn(AttrId) -> Option<&'v Value>, preds: &[(AttrId, Predicate)]) -> bool {
    preds
        .iter()
        .all(|(a, p)| get(*a).is_some_and(|v| p.matches(v)))
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
    sink: &mut dyn FnMut(&mut Vec<Row>),
) {
    let mut batch = Vec::new();
    for t in iter {
        if matches(|a| t.get(a), residual) {
            batch.push(Row::One(t.clone()));
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
    sink: &mut dyn FnMut(&mut Vec<Row>),
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
    sink: &mut dyn FnMut(&mut Vec<Row>),
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
    sink: &mut dyn FnMut(&mut Vec<Row>),
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
            let mut batch = Vec::new();
            // Keys touched, counted locally; merged into `rows_in` once.
            let walked = std::cell::Cell::new(0u64);
            let emit = |key: &[&Value], batch: &mut Vec<Row>| {
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
                batch.push(Row::One(Instance::from_parts(fields)));
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
                batch.retain(|row| matches(|a| row.get(a), preds));
                if !batch.is_empty() {
                    sink(batch);
                }
            });
        }
        Physical::Project { input, to } => {
            let target = db.schema().attrs_of(*to).clone();
            for_each_batch(input, db, indexes, prof.child(plan, 0), &mut |batch| {
                let mut projected: Vec<Row> = batch
                    .drain(..)
                    .map(|row| Row::One(row.project(&target)))
                    .collect();
                sink(&mut projected);
            });
        }
        Physical::HashJoin {
            build, probe, keys, ..
        } => {
            // The natural-join key: shared attributes of the two input
            // types, computed by the planner in id order. Build rows are
            // filed under the hash of their key values and compared in
            // place, so neither side copies a key.
            let seed = RandomState::new();
            let key_hash = |t: &Instance| {
                let mut h = seed.build_hasher();
                for a in keys {
                    t.get(*a).hash(&mut h);
                }
                h.finish()
            };
            let mut table: HashMap<u64, Vec<Instance>> = HashMap::new();
            let mut build_rows = 0u64;
            for_each_batch(build, db, indexes, prof.child(plan, 0), &mut |batch| {
                build_rows += batch.len() as u64;
                for row in batch.drain(..) {
                    let t = row.into_instance();
                    table.entry(key_hash(&t)).or_default().push(t);
                }
            });
            if let Some(node) = prof.node() {
                // Serial build = one partition holding every build row.
                node.note_partitions(1, build_rows);
            }
            // Stream the probe side.
            let mut out = Vec::new();
            for_each_batch(probe, db, indexes, prof.child(plan, 1), &mut |batch| {
                for row in batch.drain(..) {
                    let p = row.into_instance();
                    let Some(bucket) = table.get(&key_hash(&p)) else {
                        continue;
                    };
                    for b in bucket {
                        if keys.iter().all(|a| b.get(*a) == p.get(*a)) {
                            out.push(Row::Pair(b.clone(), p.clone()));
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
                for_each_batch(side, db, indexes, p, &mut |batch| {
                    rows.extend(batch.drain(..).map(Row::into_instance))
                });
                rows
            };
            let lrows = collect(left, prof.child(plan, 0));
            let rrows = collect(right, prof.child(plan, 1));
            merge_join_sorted(&lrows, &rrows, keys, sink);
        }
        Physical::Sort { input, keys } => {
            let mut rows: Vec<Row> = Vec::new();
            for_each_batch(input, db, indexes, prof.child(plan, 0), &mut |batch| {
                take_batch(&mut rows, batch)
            });
            let order = sorted_order(&rows, keys);
            permute(&mut rows, order);
            // The sorted run was materialised anyway: it goes on as one
            // batch.
            if !rows.is_empty() {
                sink(&mut rows);
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
                for row in batch.drain(..) {
                    members.insert(row.into_instance());
                }
            });
            for_each_batch(probe, db, indexes, prof.child(plan, 1), &mut |batch| {
                batch.retain_mut(|row| members.contains(row.materialise()));
                if !batch.is_empty() {
                    sink(batch);
                }
            });
        }
    }
}

/// The stable sort permutation of `rows` under `keys`: every row's key
/// values are read once (decorate), then positions sort on them under
/// [`cmp_key`], the rule [`cmp_by_keys`] compares by. Ties keep arrival
/// order, so an input order on a longer key list survives.
fn sorted_order(rows: &[Row], keys: &[(AttrId, SortDir)]) -> Vec<usize> {
    let k = keys.len();
    let vals: Vec<Option<&Value>> = rows
        .iter()
        .flat_map(|r| keys.iter().map(move |(a, _)| r.get(*a)))
        .collect();
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by(|&i, &j| {
        let (a, b) = (&vals[i * k..(i + 1) * k], &vals[j * k..(j + 1) * k]);
        keys.iter()
            .zip(a.iter().zip(b))
            .map(|((_, dir), (x, y))| cmp_key(*x, *y, *dir))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    order
}

/// Rearranges `rows` so position `k` holds the row that was at
/// `order[k]`, by swapping along the permutation's cycles.
fn permute(rows: &mut [Row], mut order: Vec<usize>) {
    const DONE: usize = usize::MAX;
    for start in 0..rows.len() {
        let mut k = start;
        while order[k] != DONE {
            let src = order[k];
            order[k] = DONE;
            if src == start {
                break;
            }
            rows.swap(k, src);
            k = src;
        }
    }
}

/// Appends `batch` to `dst`, draining it; into an empty `dst` the batch
/// moves whole, so a sink fed one batch copies no rows.
fn take_batch(dst: &mut Vec<Row>, batch: &mut Vec<Row>) {
    if dst.is_empty() {
        std::mem::swap(dst, batch);
    } else {
        dst.append(batch);
    }
}

/// The merge-join loop: both inputs arrive sorted ascending on `keys`;
/// equal-key groups are matched pairwise and streamed into `sink`
/// batch-wise as unmerged pairs.
fn merge_join_sorted(
    lrows: &[Instance],
    rrows: &[Instance],
    keys: &[AttrId],
    sink: &mut dyn FnMut(&mut Vec<Row>),
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
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < lrows.len() && j < rrows.len() {
        match cmp_by_keys(&lrows[i], &rrows[j], &sorted_keys) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let (i2, j2) = (group_end(lrows, i), group_end(rrows, j));
                for l in &lrows[i..i2] {
                    for r in &rrows[j..j2] {
                        out.push(Row::Pair(l.clone(), r.clone()));
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
    use super::*;

    /// The decorated sort (order, then in-place permutation) puts rows —
    /// pairs among them, some missing a key attribute, many tied — in
    /// exactly the order a stable sort of the merged tuples under
    /// `cmp_by_keys` does.
    #[test]
    fn decorated_sort_is_the_stable_cmp_by_keys_sort() {
        let (a, b, c) = (AttrId(0), AttrId(1), AttrId(2));
        let rows: Vec<Row> = (0..40i64)
            .map(|i| {
                let left = Instance::from_parts(
                    [(a, Value::Int(i % 3)), (c, Value::Int(i))]
                        .into_iter()
                        .filter(|_| i % 5 != 0)
                        .collect(),
                );
                let right =
                    Instance::from_parts(vec![(b, Value::str(["x", "y"][(i % 2) as usize]))]);
                if i % 4 == 0 {
                    Row::One(left)
                } else {
                    Row::Pair(left, right)
                }
            })
            .collect();
        for keys in [
            vec![(a, SortDir::Asc)],
            vec![(a, SortDir::Desc)],
            vec![(b, SortDir::Asc), (a, SortDir::Desc)],
            vec![(b, SortDir::Desc), (a, SortDir::Asc), (c, SortDir::Desc)],
        ] {
            let got: Vec<Instance> = sorted_order(&rows, &keys)
                .into_iter()
                .map(|i| rows[i].clone().into_instance())
                .collect();
            let mut want: Vec<Instance> = rows.iter().cloned().map(Row::into_instance).collect();
            want.sort_by(|x, y| cmp_by_keys(x, y, &keys));
            assert_eq!(got, want, "{keys:?}");
            let mut permuted = rows.clone();
            permute(&mut permuted, sorted_order(&rows, &keys));
            let permuted: Vec<Instance> = permuted.into_iter().map(Row::into_instance).collect();
            assert_eq!(permuted, want, "{keys:?}");
        }
    }
}
